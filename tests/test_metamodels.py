"""Meta-learner fit/predict contract across the four kinds."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ref_split_scan
from vulforge import _kernels
from vulforge.errors import EmptyTrainingSet, NonFiniteInput, WidthMismatch
from vulforge.metamodels import (
    META_KINDS,
    MetaConfig,
    meta_fit,
    meta_predict,
    meta_predict_many,
)


def _blobs(n=80, seed=0):
    """Two well-separated Gaussian blobs in 4 dimensions."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-2.0, size=(n // 2, 4))
    X1 = rng.normal(loc=2.0, size=(n // 2, 4))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    perm = rng.permutation(n)
    return X[perm], y[perm]


@pytest.mark.parametrize("kind", META_KINDS)
class TestAllKinds:
    def test_separates_blobs(self, kind):
        X, y = _blobs()
        m = meta_fit(kind, X, y)
        pred = meta_predict_many(m, X).argmax(1)
        assert (pred == y).mean() >= 0.95

    def test_rows_are_distributions(self, kind):
        X, y = _blobs(40)
        m = meta_fit(kind, X, y)
        probs = meta_predict_many(m, X)
        assert probs.shape == (40, 2)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_deterministic(self, kind):
        X, y = _blobs(40, seed=3)
        a = meta_predict_many(meta_fit(kind, X, y, seed=9), X)
        b = meta_predict_many(meta_fit(kind, X, y, seed=9), X)
        assert np.array_equal(a, b)

    def test_single_row_matches_many(self, kind):
        X, y = _blobs(30)
        m = meta_fit(kind, X, y)
        single = np.vstack([meta_predict(m, x) for x in X])
        assert np.array_equal(single, meta_predict_many(m, X))

    def test_width_mismatch(self, kind):
        X, y = _blobs(30)
        m = meta_fit(kind, X, y)
        with pytest.raises(WidthMismatch):
            meta_predict_many(m, np.zeros((2, 7)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fit_rejected(self, kind, bad):
        X, y = _blobs(30)
        X[7, 2] = bad
        with pytest.raises(NonFiniteInput) as exc:
            meta_fit(kind, X, y)
        assert exc.value.row == 7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_predict_rejected(self, kind, bad):
        X, y = _blobs(30)
        m = meta_fit(kind, X, y, MetaConfig(trees=5, epochs=5))
        Q = X[:4].copy()
        Q[2, 1] = bad
        with pytest.raises(NonFiniteInput) as exc:
            meta_predict_many(m, Q)
        assert exc.value.row == 2


class TestValidation:
    def test_empty_training(self):
        with pytest.raises(EmptyTrainingSet):
            meta_fit("lr", np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_row_label_mismatch(self):
        with pytest.raises(WidthMismatch):
            meta_fit("lr", np.zeros((3, 2)), np.zeros(5, dtype=int))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            meta_fit("mlp", np.zeros((3, 2)), np.zeros(3, dtype=int))


class TestKnn:
    def test_k_clamped_to_rows(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        m = meta_fit("knn", X, y, MetaConfig(knn_k=5))
        assert m.params["k"] == 2

    def test_distance_ties_included(self):
        # query equidistant from 2 class-1 rows; k=1 pulls both in
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        y = np.array([1, 1, 0])
        m = meta_fit("knn", X, y, MetaConfig(knn_k=1))
        p = meta_predict(m, np.array([0.0, 0.0]))
        assert p[1] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 30), st.integers(1, 4),
           st.integers(1, 12), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_vote_matches_per_row_reference(self, n_train, n_query, d, k,
                                            k_out, seed):
        # small integer values make many distance ties at the k-th neighbor
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(n_train, d)).astype(np.float64)
        y = rng.integers(0, k_out, size=n_train)
        Q = rng.integers(0, 3, size=(n_query, d)).astype(np.float64)
        m = meta_fit("knn", X, y, MetaConfig(knn_k=k), output_width=k_out)
        assert np.array_equal(meta_predict_many(m, Q), _ref_knn_predict(m, Q))

    # The hard cases of the Gram kernel: the candidate bound must keep every
    # neighbour and tie however close the distances, large the values or
    # ragged the blocks.

    def _assert_matches_reference(self, X, y, Q, k, k_out=3):
        m = meta_fit("knn", X, y, MetaConfig(knn_k=k), output_width=k_out)
        assert np.array_equal(meta_predict_many(m, Q), _ref_knn_predict(m, Q))

    @pytest.mark.parametrize("block", [_kernels._KNN_BLOCK, 40])
    def test_one_ulp_near_ties(self, block):
        # fit rows one ulp apart on either side of the query's k-th distance
        rng = np.random.default_rng(5)
        base = rng.normal(size=12)
        X = np.tile(base, (40, 1))
        X[:, 0] = base[0] + np.arange(-20, 20) * np.spacing(base[0])
        X[::3, 5] = np.nextafter(base[5], np.inf)
        y = rng.integers(0, 3, size=40)
        Q = np.vstack([base + 1.0, base - 1.0, base, X[17]])
        Q[:, 0] += rng.normal(size=4) * 1e-13
        with mock.patch.object(_kernels, "_KNN_BLOCK", block):
            for k in (1, 5, 21):
                self._assert_matches_reference(X, y, Q, k)

    @pytest.mark.parametrize("block", [_kernels._KNN_BLOCK, 40])
    def test_all_duplicate_fit_rows(self, block):
        # every distance ties, so every pair is a candidate and every row votes
        rng = np.random.default_rng(6)
        X = np.tile(rng.normal(size=7), (30, 1))
        y = rng.integers(0, 3, size=30)
        Q = np.vstack([X[0], rng.normal(size=(9, 7))])
        with mock.patch.object(_kernels, "_KNN_BLOCK", block):
            self._assert_matches_reference(X, y, Q, 5)

    def test_large_magnitude_rows(self):
        # like a gate input: count columns in the 1e3..1e6 range, then
        # expert probabilities.  Each query's fit rows are 0, 1 or 2 away
        # along one column, so k = 3 falls inside six rows at distance 1
        # (exactly, or within an ulp along a probability column), which
        # the Gram rounding, about 1e-3 here, does not order.
        rng = np.random.default_rng(7)
        base = np.hstack([rng.integers(1_000, 1_000_000, size=(10, 20)),
                          rng.random((10, 6))])
        eye = np.eye(26)
        steps = np.vstack([np.zeros(26), eye[:3], eye[20:23], -2 * eye[6:9],
                           2 * eye[23:]])
        X = (base[:, None, :] + steps[None, :, :]).reshape(-1, 26)
        y = rng.integers(0, 3, size=len(X))
        Q = np.vstack([base, base + eye[10]])
        for k in (3, 5, 8):
            self._assert_matches_reference(X, y, Q, k)

    def test_k_equals_fit_rows(self):
        X, y = _blobs(24, seed=8)
        self._assert_matches_reference(X, y, _blobs(10, seed=9)[0], 24, k_out=2)

    def test_one_dimension(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 1))
        X[25:] = X[:25]
        y = rng.integers(0, 3, size=50)
        Q = np.vstack([X[:5], rng.normal(size=(20, 1))])
        for k in (1, 3, 50):
            self._assert_matches_reference(X, y, Q, k)

    @pytest.mark.parametrize("block", [_kernels._KNN_BLOCK, 64])
    def test_queries_span_ragged_blocks(self, block):
        # 64 entries over 13 fit rows: blocks of 4 query rows, the last of 3;
        # at the real block size, three full blocks and one of 5 rows
        rng = np.random.default_rng(11)
        X = rng.normal(size=(13, 6))
        y = rng.integers(0, 3, size=13)
        n_query = 4 * 7 + 3 if block == 64 else 3 * (_kernels._KNN_BLOCK // 13) + 5
        Q = rng.normal(size=(n_query, 6))
        Q[::4] = X[rng.integers(0, 13, size=len(Q[::4]))]
        with mock.patch.object(_kernels, "_KNN_BLOCK", block):
            self._assert_matches_reference(X, y, Q, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 20),
           st.sampled_from([1, 2, 3, 6, 9, 17, 45, 130]),
           st.integers(1, 8), st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e150, 1e160]),
           st.sampled_from([1e-9, 1e-7, 1e-3, 1.0]),
           st.sampled_from([1, 7, 64, _kernels._KNN_BLOCK]),
           st.integers(0, 2**32 - 1))
    def test_real_rows_match_reference(self, n_train, n_query, d, k, scale,
                                       spread, block, seed):
        # real-valued rows about one center: at a small spread their
        # distances are as small as the Gram rounding error.  Duplicates and
        # queries a few ulps from a fit row add exact and near ties.
        rng = np.random.default_rng(seed)
        X = (rng.normal(size=d) + spread * rng.normal(size=(n_train, d))) * scale
        X[rng.random(n_train) < 0.3] = X[0]
        y = rng.integers(0, 3, size=n_train)
        Q = X.mean(axis=0) + rng.normal(size=(n_query, d)) * (spread * scale)
        near = rng.random(n_query) < 0.5
        Q[near] = X[rng.integers(0, n_train, size=near.sum())]
        Q[near] += rng.integers(-3, 4, size=(near.sum(), d)) * np.spacing(Q[near])
        # at scale 1e160 the squares overflow to inf, in both kernels alike
        with (mock.patch.object(_kernels, "_KNN_BLOCK", block),
              np.errstate(over="ignore", invalid="ignore")):
            self._assert_matches_reference(X, y, Q, k)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_predict_memory_bounded(self, duplicates):
        # one knn predict at 1,600 x 1,600, D = 45; all-duplicate fit and
        # query rows make every pair a candidate
        rng = np.random.default_rng(12)
        X = rng.random((1600, 45))
        Q = rng.random((1600, 45))
        if duplicates:
            X[:] = X[0]
            Q[:] = X[0]
        m = meta_fit("knn", X, rng.integers(0, 9, size=1600), output_width=9)
        tracemalloc.start()
        try:
            meta_predict_many(m, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _ref_knn_predict(m, X):
    """The per-row kNN vote: every row's k-th distance and its ties."""
    labels, k = m.params["labels"], m.params["k"]
    dists = _kernels.sq_dists(X, m.params["rows"])
    out = np.zeros((X.shape[0], m.output_width))
    for i in range(X.shape[0]):
        d = dists[i]
        kth = np.partition(d, k - 1)[k - 1]
        neighbors = np.flatnonzero(d <= kth)  # includes ties beyond k
        votes = np.bincount(labels[neighbors], minlength=m.output_width)
        out[i] = votes / votes.sum()
    return out


class TestForest:
    def test_output_width_override(self):
        X, y = _blobs(30)
        m = meta_fit("rf", X, y, MetaConfig(trees=5), output_width=4)
        assert meta_predict_many(m, X).shape == (30, 4)


def _ref_build_tree(X, y, depth, rng, k_out, max_depth):
    n, d = X.shape
    if n < 2 or depth >= max_depth or (y == y[0]).all():
        counts = np.bincount(y, minlength=k_out).astype(np.float64)
        return ["leaf", (counts / counts.sum()).tolist()]
    best_g, best_f, best_thr = np.inf, -1, 0.0
    for f in rng.choice(d, size=max(1, int(np.sqrt(d))), replace=False):
        order = np.argsort(X[:, f], kind="stable")
        g, pos = ref_split_scan(X[order, f], y[order], k_out)
        if pos >= 0 and g < best_g:
            best_g, best_f = g, int(f)
            best_thr = (X[order[pos], f] + X[order[pos + 1], f]) / 2.0
    left = X[:, best_f] <= best_thr
    if best_f < 0 or not left.any() or left.all():
        counts = np.bincount(y, minlength=k_out).astype(np.float64)
        return ["leaf", (counts / counts.sum()).tolist()]
    return ["split", best_f, best_thr,
            _ref_build_tree(X[left], y[left], depth + 1, rng, k_out, max_depth),
            _ref_build_tree(X[~left], y[~left], depth + 1, rng, k_out, max_depth)]


def _ref_forest(X, y, cfg, seed, k_out):
    """The nested trees of the forest ``meta_fit("rf", X, y, cfg, seed)``
    grows, by the builder that copies its rows and scans one drawn column
    at a time with the former one-column split kernel."""
    trees = []
    for t in range(cfg.trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x43E57, t]))
        rows = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(_ref_build_tree(X[rows], y[rows], 0, rng, k_out, cfg.max_depth))
    return trees


def _assert_forest_is(params, flat):
    assert params.keys() == flat.keys()
    for name, value in flat.items():
        assert params[name].dtype == value.dtype, name
        assert np.array_equal(params[name], value), name


def _ref_flatten(trees, k_out):
    """Nested ``["split", f, thr, left, right]``/``["leaf", probs]`` trees as
    one flat forest: preorder nodes, trees joined in order, a leaf its own
    children with feature 0, threshold 0; a split node has zero value."""
    feature, threshold, left, right, value, roots = [], [], [], [], [], []

    def walk(tree):
        node = len(feature)
        feature.append(0)
        threshold.append(0.0)
        left.append(node)
        right.append(node)
        value.append(np.zeros(k_out))
        if tree[0] == "leaf":
            value[node] = np.array(tree[1])
        else:
            feature[node], threshold[node] = tree[1], tree[2]
            left[node] = walk(tree[3])
            right[node] = walk(tree[4])
        return node

    for tree in trees:
        roots.append(walk(tree))
    return {"feature": np.array(feature, dtype=np.int64),
            "threshold": np.array(threshold, dtype=np.float64),
            "left": np.array(left, dtype=np.int64),
            "right": np.array(right, dtype=np.int64),
            "value": np.array(value), "roots": np.array(roots, dtype=np.int64)}


def _ref_tree_predict(tree, X, k_out):
    """One nested tree, walked one row at a time."""
    out = np.empty((X.shape[0], k_out))
    for i in range(X.shape[0]):
        node = tree
        while node[0] == "split":
            node = node[3] if X[i, node[1]] <= node[2] else node[4]
        out[i] = node[1]
    return out


def _split_nodes(params):
    """Mask of the forest's split nodes: a leaf is its own left child."""
    return params["left"] != np.arange(len(params["left"]))


def _wide(width=16, columns=(2, 5, 9, 13)):
    """Blobs placed in ``columns`` of an otherwise all-zero ``width``-wide
    input, with the compact (N, len(columns)) view of the same rows."""
    X, y = _blobs(60, seed=5)
    X[:, 3] = X[:, 0]  # equal Gini on two columns: the first drawn must win
    full = np.zeros((X.shape[0], width))
    full[:, list(columns)] = X
    return X, full, y


class TestColumns:
    """Every meta-model fits exactly the matrix it is given, all-zero columns
    included."""

    @pytest.mark.parametrize("compact", [False, True])
    def test_forest_matches_whole_matrix_builder(self, compact):
        # the tree builder that scans every drawn column of the matrix it is given
        X, full, y = _wide()
        if not compact:
            X = full
        cfg = MetaConfig(trees=20)
        m = meta_fit("rf", X, y, cfg, seed=6)
        ref = _ref_forest(X, y, cfg, 6, 2)
        flat = _ref_flatten(ref, 2)
        _assert_forest_is(m.params, flat)
        assert _split_nodes(flat).any()
        want = np.zeros((X.shape[0], 2))
        for tree in ref:
            want += _ref_tree_predict(tree, X, 2)
        assert np.array_equal(meta_predict_many(m, X), want / len(ref))

    def test_tied_columns_split_on_the_first_drawn(self):
        # four copies of one column: the two columns drawn at a node tie on
        # every score, so the one drawn first must win
        X, y = _blobs(60, seed=5)
        X = np.repeat(X[:, :1], 4, axis=1)
        cfg = MetaConfig(trees=20)
        m = meta_fit("rf", X, y, cfg, seed=6)
        _assert_forest_is(m.params, _ref_flatten(_ref_forest(X, y, cfg, 6, 2), 2))
        draws = []
        for t in range(cfg.trees):
            rng = np.random.default_rng(np.random.SeedSequence([6, 0x43E57, t]))
            rng.integers(0, X.shape[0], size=X.shape[0])
            draws.append(rng.choice(4, size=2, replace=False))
        roots = m.params["roots"]
        assert _split_nodes(m.params)[roots].all()
        assert np.array_equal(m.params["feature"][roots], [d[0] for d in draws])
        assert any(d[0] > d[1] for d in draws)  # not merely the lower column

    @pytest.mark.parametrize("kind", ["lr", "svm", "knn"])
    def test_params_are_arrays(self, kind):
        X, y = _blobs(20)
        m = meta_fit(kind, X, y, MetaConfig(epochs=5))
        arrays = ("W", "b") if kind != "knn" else ("rows", "labels")
        assert all(isinstance(m.params[a], np.ndarray) for a in arrays)
