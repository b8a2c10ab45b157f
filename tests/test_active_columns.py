"""The built-in learner trains and holds only its active columns: bit
identity with a full-width reference, a store that saves and loads the
model as it is held, and the memory that no longer grows with
members x K x dims nor holds wide nnz-long index arrays."""

import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import TEST_FEATURIZER, random_feature_matrix
from vulforge import _kernels, ensembles, store, synth
from vulforge.codefeat import FeaturizerConfig
from vulforge.ensembles import (
    BaseLearnerSpec,
    BoostConfig,
    adaboost_fit,
    adaboost_predict_set,
    bagging_fit,
    bagging_predict_set,
    oof_prediction_set,
)
from vulforge.errors import DimensionMismatch
from vulforge.ingest import Dataset, Sample, bootstrap, stratified_split
from vulforge.learners import (
    FeatureMatrix,
    LearnerConfig,
    SampleWeights,
    _column_positions,
    _epoch_orders,
    _touched_columns,
    featurize_dataset,
    fit_builtin,
    predict_builtin_many,
    unit_rows,
)
from vulforge.store import load_ensemble, save_ensemble


@dataclass(frozen=True)
class _RefModel:
    W: np.ndarray
    b: np.ndarray
    dims: int


def _ref_fit(d, ids, w, cfg, features):
    """The full-width trainer the active-column one replaced: a dense
    (K, dims) W from zero."""
    ids = tuple(ids)
    wmap = w.as_dict()
    weights = np.array([wmap[s] for s in ids])
    n = len(ids)
    indptr, indices, data = features.rows_for(ids)
    data = unit_rows(indptr, data)
    k = d.class_count
    targets = np.zeros((n, k))
    targets[np.arange(n), d.labels_for(ids)] = 1.0
    W = np.zeros((k, features.dims))
    b = np.zeros(k)
    _kernels.csr_softmax_fit(indptr, indices, data, targets, weights * n, W, b,
                             _epoch_orders(n, cfg.epochs, cfg.seed),
                             min(cfg.batch_size, n), cfg.learning_rate,
                             1.0 - cfg.learning_rate * cfg.l2)
    return _RefModel(W, b, features.dims)


def _ref_predict(m, indptr, indices, data):
    return _kernels.softmax(_kernels.csr_logits(indptr, indices, unit_rows(indptr, data),
                                                m.W, m.b))


def _lifted(m):
    """The full-width (K, dims) W a model restricted to ``m.columns`` is."""
    W = np.zeros((m.class_count, m.dims))
    W[:, m.columns] = m.W
    return W


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: +0.0 and -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _corpus(kind):
    if kind == "imbalanced":
        d = synth.imbalanced_corpus(300, seed=3, pos_fraction=0.3)
    else:  # K = 9
        d = synth.paired_cwe_corpus({f"CWE-{c}": 14 for c in range(100, 108)}, seed=3)
    return d, featurize_dataset(d, TEST_FEATURIZER), stratified_split(d, 0)


@pytest.fixture(scope="module", params=["imbalanced", "paired_cwe"])
def corpus(request):
    return _corpus(request.param)


LEARN = LearnerConfig(epochs=3, learning_rate=0.5, batch_size=16, seed=2)


def _assert_same_model(m, ref):
    assert m.W.shape == (m.class_count, len(m.columns))
    assert _same_bits(_lifted(m), ref.W) and _same_bits(m.b, ref.b)


def test_fit_is_the_full_width_fit_on_its_columns(corpus):
    d, feats, s = corpus
    fit_ids = s.train[:40]
    w = SampleWeights.normalized(fit_ids, np.arange(1, len(fit_ids) + 1))
    m = fit_builtin(d, fit_ids, w, LEARN, feats)
    ref = _ref_fit(d, fit_ids, w, LEARN, feats)
    _assert_same_model(m, ref)
    assert np.array_equal(m.columns, np.unique(feats.rows_for(fit_ids)[1]))
    assert len(m.columns) < feats.dims // 10
    # the other rows hold columns no training row touches; they read +0.0
    csr = feats.rows_for(d.ids)
    assert np.setdiff1d(csr[1], m.columns).size > 0
    assert _same_bits(predict_builtin_many(m, *csr), _ref_predict(ref, *csr))


@pytest.mark.parametrize("weight_mode", ["loss", "resample"])
def test_adaboost_rounds_match_full_width(corpus, weight_mode, monkeypatch):
    d, feats, s = corpus
    spec = BaseLearnerSpec("builtin_linear", "boost",
                           LearnerConfig(epochs=20, learning_rate=0.5, batch_size=32))
    cfg = BoostConfig(rounds=3, weight_mode=weight_mode)
    e = adaboost_fit(spec, d, s.train, cfg, feats)
    got = adaboost_predict_set(e, s.test, feats, "test")
    monkeypatch.setattr(ensembles, "fit_builtin", _ref_fit)
    monkeypatch.setattr(ensembles, "predict_builtin_many", _ref_predict)
    ref = adaboost_fit(spec, d, s.train, cfg, feats)
    want = adaboost_predict_set(ref, s.test, feats, "test")
    assert len(e.rounds) == len(ref.rounds) >= 1
    for r, q in zip(e.rounds, ref.rounds):
        assert (r.epsilon, r.alpha, r.z) == (q.epsilon, q.alpha, q.z)
        _assert_same_model(r.model, q.model)
    assert _same_bits(got.probs, want.probs)


def test_oof_predictions_match_full_width(corpus, monkeypatch):
    d, feats, s = corpus
    spec = BaseLearnerSpec("builtin_linear", "m1", LEARN)
    got = oof_prediction_set(spec, d, s.train, feats, folds=4, seed=1)
    monkeypatch.setattr(ensembles, "fit_builtin", _ref_fit)
    monkeypatch.setattr(ensembles, "predict_builtin_many", _ref_predict)
    want = oof_prediction_set(spec, d, s.train, feats, folds=4, seed=1)
    assert _same_bits(got.probs, want.probs)


def _empty_rows_case():
    """A random feature matrix, its dataset, and the ids of its empty rows."""
    fm = random_feature_matrix(np.random.default_rng(8), 60, dims=64)
    d = Dataset(tuple(Sample(s, "", i % 2) for i, s in enumerate(fm.ids)), 2, "rand")
    empty = tuple(s for i, s in enumerate(fm.ids) if fm.indptr[i] == fm.indptr[i + 1])
    return d, fm, empty


def test_rows_without_a_nonzero_train_no_column():
    d, fm, empty = _empty_rows_case()
    assert len(empty) >= 4
    w = SampleWeights.uniform(empty)
    m = fit_builtin(d, empty, w, LEARN, fm)
    ref = _ref_fit(d, empty, w, LEARN, fm)
    assert m.columns.size == 0
    _assert_same_model(m, ref)
    csr = fm.rows_for(fm.ids)
    assert _same_bits(predict_builtin_many(m, *csr), _ref_predict(ref, *csr))


@pytest.mark.parametrize("bad", [-1, 64])
def test_index_outside_dims_is_refused(bad):
    d, fm, empty = _empty_rows_case()
    indices = fm.indices.copy()
    indices[0] = bad
    bad_fm = replace(fm, indices=indices)
    w = SampleWeights.uniform(fm.ids)
    with pytest.raises(DimensionMismatch):
        fit_builtin(d, fm.ids, w, LEARN, bad_fm)
    m = fit_builtin(d, fm.ids, w, LEARN, fm)
    with pytest.raises(DimensionMismatch):
        predict_builtin_many(m, *bad_fm.rows_for(fm.ids))


@pytest.mark.parametrize("epochs", [1, 3])
def test_negative_decay_predicts_the_full_width_bits(corpus, epochs, tmp_path):
    # decay = 1 - lr * l2 = -1: after an odd number of epochs every
    # untouched column of the full-width W holds -0.0, which the held model
    # does not keep; its probabilities are still the reference's bits
    d, feats, s = corpus
    cfg = LearnerConfig(epochs=epochs, learning_rate=0.5, l2=4.0, batch_size=16)
    w = SampleWeights.uniform(s.train)
    m = fit_builtin(d, s.train, w, cfg, feats)
    ref = _ref_fit(d, s.train, w, cfg, feats)
    assert np.signbit(ref.W).any()
    assert np.array_equal(m.columns, np.unique(feats.rows_for(s.train)[1]))
    assert _same_bits(m.W, np.ascontiguousarray(ref.W[:, m.columns]))
    assert _same_bits(m.b, ref.b)
    save_ensemble(tmp_path, ensembles.BaggingEnsemble("soft", (m,), d.class_count))
    loaded, = load_ensemble(tmp_path).members
    for split in (s.train, s.val, s.test):
        csr = feats.rows_for(split)
        want = _ref_predict(ref, *csr)
        assert _same_bits(predict_builtin_many(m, *csr), want)
        assert _same_bits(predict_builtin_many(loaded, *csr), want)


def _sidecars(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_store_round_trips_the_held_model(corpus, tmp_path):
    d, feats, s = corpus
    spec = BaseLearnerSpec("builtin_linear", "bag", LEARN)
    e = bagging_fit(spec, bootstrap(d, s, 2, seed=4), d, "soft", feats)
    first, second = tmp_path / "a", tmp_path / "b"
    save_ensemble(first, e, {"members": 2})
    for i, m in enumerate(e.members):
        for name in ("W", "b", "columns"):
            blob = (first / "params" / f"member_{i}_{name}.npy").read_bytes()
            assert blob == store._npy_bytes(getattr(m, name)), name
    loaded = load_ensemble(first)
    save_ensemble(second, loaded, {"members": 2})
    assert _sidecars(first) == _sidecars(second)
    for m, q in zip(e.members, loaded.members):
        for name in ("W", "b", "columns"):
            assert _same_bits(getattr(q, name), getattr(m, name)), name
    assert _same_bits(bagging_predict_set(loaded, s.test, feats, "test").probs,
                      bagging_predict_set(e, s.test, feats, "test").probs)


def test_round_trip_keeps_columns_trained_to_zero(tmp_path):
    # a row of weight 0 trains the columns only it touches to exactly +0.0;
    # the model holds them, and so does the model loaded back
    fm = FeatureMatrix(("z", "a", "b", "c"), np.array([0, 2, 4, 6, 8]),
                       np.array([1, 2, 3, 5, 3, 5, 3, 6]), np.ones(8), 64)
    d = Dataset(tuple(Sample(s, "", i % 2) for i, s in enumerate(fm.ids)), 2, "r")
    w = SampleWeights.normalized(fm.ids, [0.0, 1.0, 1.0, 1.0])
    m = fit_builtin(d, fm.ids, w, LEARN, fm)
    assert m.columns.tolist() == [1, 2, 3, 5, 6]
    assert not m.W[:, :2].view(np.uint64).any() and m.W[:, 2:].all()
    save_ensemble(tmp_path, ensembles.BaggingEnsemble("soft", (m,), 2))
    loaded, = load_ensemble(tmp_path).members
    for name in ("W", "b", "columns"):
        assert _same_bits(getattr(loaded, name), getattr(m, name)), name


def test_bagging_memory_does_not_hold_full_width_members(tmp_path):
    # a member holds K x (active columns), and so does its W sidecar, so
    # eight members at 2^18 dims stay below two full-width W
    d = synth.imbalanced_corpus(200, seed=1, pos_fraction=0.3)
    feats = featurize_dataset(d, FeaturizerConfig(dims=1 << 18))
    s = stratified_split(d, 0)
    plan = bootstrap(d, s, 8, seed=0)
    spec = BaseLearnerSpec("builtin_linear", "bag",
                           replace(LEARN, epochs=1, batch_size=len(s.train)))
    full_w = d.class_count * feats.dims * 8
    tracemalloc.start()
    try:
        e = bagging_fit(spec, plan, d, "soft", feats)
        save_ensemble(tmp_path, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(e.members) == 8
    assert peak < 2 * full_w, (peak, full_w)


def _unique_cases():
    rng = np.random.default_rng(11)
    fm = random_feature_matrix(rng, 80, dims=64)  # about a quarter of rows empty
    return {
        "random": (fm.indices, fm.dims),
        "one_column": (np.full(9, 5, dtype=np.int64), 64),
        "first_and_last": (np.array([63, 0, 63, 7, 0], dtype=np.int64), 64),
        "no_nonzero": (np.empty(0, dtype=np.int64), 64),
        "int32": (fm.indices.astype(np.int32), fm.dims),
    }


@pytest.mark.parametrize("case", sorted(_unique_cases()))
def test_touched_columns_and_positions_are_np_unique(case):
    indices, dims = _unique_cases()[case]
    columns = _touched_columns(indices, dims)
    positions = _column_positions(columns, indices)
    want_columns, want_positions = np.unique(indices, return_inverse=True)
    assert np.array_equal(columns, want_columns) and columns.dtype == np.int64
    assert np.array_equal(positions, want_positions) and positions.dtype == np.int32


def _int64_predict(m, indptr, indices, data):
    """predict_builtin_many as it was written: int64 row ids, the full-width
    W read at every index, a fresh quotient for each unit row."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    sq = np.zeros(n)
    np.add.at(sq, rows, data * data)
    norms = np.sqrt(sq)
    norms[norms == 0.0] = 1.0
    unit = data / norms[rows]
    W = _lifted(m)
    zT = np.repeat(m.b[:, None], n, axis=1)
    for k in range(m.class_count):
        np.add.at(zT[k], rows, W[k, indices] * unit)
    return _kernels.softmax(np.ascontiguousarray(zT.T))


def test_predict_is_the_int64_formulation(corpus):
    d, feats, s = corpus
    m = fit_builtin(d, s.train, SampleWeights.uniform(s.train), LEARN, feats)
    for ids in (s.test, d.ids, s.test[:1]):
        csr = feats.rows_for(ids)
        assert _same_bits(predict_builtin_many(m, *csr), _int64_predict(m, *csr))


def test_gate_input_is_the_searchsorted_densify():
    rng = np.random.default_rng(12)
    fm = random_feature_matrix(rng, 70, dims=64)
    indptr, indices, data = fm.rows_for(fm.ids)
    stack = rng.uniform(size=(3, 70, 2))
    # half the touched columns, column 0 and dims - 1, then the meta columns
    touched = np.unique(indices)
    columns = np.concatenate([np.union1d(touched[::2], [0, fm.dims - 1]),
                              fm.dims + np.array([0, 3, 5])])
    pos = np.searchsorted(columns, indices)
    keep = columns[np.minimum(pos, len(columns) - 1)] == indices
    want = np.zeros((70, len(columns)))
    want[np.repeat(np.arange(70), np.diff(indptr))[keep], pos[keep]] = data[keep]
    meta = columns >= fm.dims
    want[:, meta] = ensembles._meta_rows(stack)[:, columns[meta] - fm.dims]
    got = ensembles._gate_input(indptr, indices, data, fm.dims, stack, columns)
    assert _same_bits(got, want)


def test_fit_and_predict_hold_no_wide_nnz_temporaries():
    # 6,000 rows of 30 to 89 nonzeros over 20,000 hashed columns: 336k
    # nonzeros.  Above its inputs, the fit peaks near 33.5 bytes a nonzero
    # and predict near 25.5.  The int64 regroup, np.unique and int64 row ids
    # took the fit to 77.6 and predict to 33.3; any one of the int64
    # epoch regroup, np.unique, an int64 unit_rows, int64 column positions
    # or int64 row ids alone crosses a bound.
    rng = np.random.default_rng(13)
    n = 6000
    lens = rng.integers(30, 90, size=n)
    lens[::17] = 0
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    nnz = int(indptr[-1])
    ids = tuple(f"r{i}" for i in range(n))
    fm = FeatureMatrix(ids, indptr, rng.integers(0, 20000, size=nnz) * 13,
                       rng.integers(1, 5, size=nnz).astype(np.float64), 1 << 18)
    d = Dataset(tuple(Sample(s, "", i % 2) for i, s in enumerate(ids)), 2, "mem")
    w = SampleWeights.uniform(ids)
    assert nnz >= 300_000
    tracemalloc.start()
    try:
        m = fit_builtin(d, ids, w, replace(LEARN, epochs=2), fm)
        fit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        predict_builtin_many(m, fm.indptr, fm.indices, fm.data)
        predict_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(m.columns) == 20000
    assert fit_peak <= 36 * nnz, fit_peak / nnz
    assert predict_peak <= 28 * nnz, predict_peak / nnz
