"""Shared fixtures for the vulforge test suite."""

from __future__ import annotations

import numpy as np
import pytest

from vulforge import synth
from vulforge.codefeat import FeaturizerConfig
from vulforge.core import PredictionSet
from vulforge.ingest import Dataset, Sample, stratified_split
from vulforge.learners import FeatureMatrix, featurize_dataset

#: Small hash space keeps featurization fast in tests; collisions are rare
#: at these corpus sizes.
TEST_FEATURIZER = FeaturizerConfig(dims=1 << 14, ngram_orders=(1, 2))


@pytest.fixture(scope="session")
def separable():
    """A 500-sample linearly separable corpus with its feature matrix."""
    d = synth.separable_corpus(500, seed=1)
    return d, featurize_dataset(d, TEST_FEATURIZER)


@pytest.fixture(scope="session")
def separable_split(separable):
    d, _ = separable
    return stratified_split(d, 0)


def tiny_dataset(n: int = 40, k: int = 2) -> Dataset:
    """Minimal labeled corpus for ingest/metrics plumbing tests."""
    samples = tuple(
        Sample(f"t{i:03d}", f"int f{i}() {{ return {i % 3}; }}", i % k)
        for i in range(n)
    )
    return Dataset(samples, k, "tiny")


def random_feature_matrix(rng, n_rows: int, dims: int = 64) -> FeatureMatrix:
    """Random hashed features for ``n_rows`` samples; about a quarter of the
    rows are empty, the others hold sorted distinct dimensions."""
    vectors = []
    for _ in range(n_rows):
        nnz = 0 if rng.random() < 0.25 else int(rng.integers(1, 8))
        idx = np.sort(rng.choice(dims, size=nnz, replace=False)).astype(np.int64)
        vectors.append((idx, rng.integers(1, 5, size=nnz).astype(np.float64)))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(i) for i, _ in vectors])
    indices = np.concatenate([i for i, _ in vectors]) if vectors else np.empty(0, np.int64)
    data = np.concatenate([c for _, c in vectors]) if vectors else np.empty(0)
    return FeatureMatrix(tuple(f"r{i}" for i in range(n_rows)), indptr, indices,
                         data, dims)


def assert_compact_of(got, ref, columns) -> None:
    """Assert that the svm or knn meta-model ``got`` is the full-width model
    ``ref`` restricted to the sorted ``columns``: svm ``W`` and knn ``rows``
    are the columns of ``ref``'s, which is zero elsewhere; every other param
    is equal."""
    p, q = got.params, ref.params
    assert got.input_width == len(columns)
    assert p.keys() == q.keys()
    renumbered = "W" if got.kind == "svm" else "rows"
    assert np.array_equal(p[renumbered], q[renumbered][:, columns])
    assert not np.delete(q[renumbered], columns, axis=1).any()
    for name in q.keys() - {renumbered}:
        assert np.array_equal(p[name], q[name]), name


def make_predset(model_id: str, split: str, ids, probs) -> PredictionSet:
    return PredictionSet(model_id, split, tuple(ids),
                         np.asarray(probs, dtype=np.float64))


def pytest_terminal_summary(terminalreporter):
    """Echo acceptance verdicts past output capture, one line per criterion."""
    import sys

    mod = sys.modules.get("test_acceptance")
    if mod is not None and getattr(mod, "VERDICTS", None):
        terminalreporter.section("acceptance verdicts")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)
