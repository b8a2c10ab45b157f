"""Numeric kernels: softmax, split scan, and bit-identity of the CSR
kernels with their original formulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vulforge._kernels as kernels
from conftest import ref_split_scan


def _csr_fixture(seed=0, n=50, d=64, k=3, nnz=6):
    rng = np.random.default_rng(seed)
    indptr = np.arange(0, (n + 1) * nnz, nnz, dtype=np.int64)
    indices = rng.integers(0, d, size=n * nnz).astype(np.int64)
    data = rng.uniform(0.2, 1.0, size=n * nnz)
    y = rng.integers(0, k, size=n)
    targets = np.eye(k)[y]
    order = np.vstack([rng.permutation(n) for _ in range(2)]).astype(np.int64)
    return indptr, indices, data, targets, order, n, d, k


def test_softmax_rows_sum_to_one():
    z = np.array([[1000.0, 1001.0], [-5.0, 3.0]])
    p = kernels.softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert p[0, 1] > p[0, 0]


def test_csr_logits_match_dense():
    indptr, indices, data, _, _, n, d, k = _csr_fixture()
    rng = np.random.default_rng(1)
    W = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    X = np.zeros((n, d))
    for i in range(n):
        for e in range(indptr[i], indptr[i + 1]):
            X[i, indices[e]] += data[e]
    assert np.allclose(kernels.csr_logits(indptr, indices, data, W, b),
                       X @ W.T + b)


def test_split_scan_constant_column():
    # a constant column has no split, whatever the columns beside it hold
    V = np.ones((10, 3))
    V[:, 1] = np.arange(10)
    ys = np.arange(10) % 2
    score, threshold = kernels.split_scan(V, ys, 2)
    assert score.shape == threshold.shape == (3,)
    assert score[0] == score[2] == threshold[0] == threshold[2] == np.inf
    assert np.isfinite(score[1]) and threshold[1] == 0.5


@pytest.mark.parametrize("n,d", [(7, 5), (20, (1 << 18) + 6)],
                         ids=["one-block", "blocked-rows"])
def test_sq_dists_equals_per_pair_sums(n, d):
    # the wide case holds more than one block of X rows
    rng = np.random.default_rng(3)
    X = np.where(rng.random((n, d)) < 0.01, rng.normal(size=(n, d)), 0.0)
    Q = np.vstack([X[2], rng.normal(size=d), np.zeros(d)])
    got = kernels.sq_dists(Q, X)
    ref = np.array([[np.sum((q - x) * (q - x)) for x in X] for q in Q])
    assert np.array_equal(got, ref)
    assert got[0, 2] == 0.0

def _ref_split(vals, ys, K):
    """Brute-force best split: the first position of least weighted Gini."""
    n, best = len(vals), (np.inf, -1)
    for pos in range(n - 1):
        if vals[pos] == vals[pos + 1]:
            continue
        sides = [np.bincount(ys[:pos + 1], minlength=K), np.bincount(ys[pos + 1:], minlength=K)]
        g = sum(c.sum() * (1.0 - ((c / c.sum()) ** 2).sum()) for c in sides) / n
        if g < best[0] - 1e-12:
            best = (g, pos)
    return best


def _few_values(rng, n, m):
    """(n, m) columns of few distinct values, unsorted: leading, trailing and
    all-equal runs are common."""
    return rng.integers(0, rng.integers(1, 4, size=m), size=(n, m)).astype(np.float64)


@pytest.mark.parametrize("seed", range(20))
def test_split_scan_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 30)), int(rng.integers(1, 6))
    V = _few_values(rng, n, m)
    ys = rng.integers(0, 3, n)
    score, threshold = kernels.split_scan(V, ys, 3)
    for c in range(m):
        order = np.argsort(V[:, c], kind="stable")
        vals = V[order, c]
        ref_g, ref_pos = _ref_split(vals, ys[order], 3)
        if ref_pos < 0:
            assert score[c] == threshold[c] == np.inf
        else:
            assert threshold[c] == (vals[ref_pos] + vals[ref_pos + 1]) / 2.0
            assert score[c] == pytest.approx(ref_g, abs=1e-12)


@st.composite
def _split_problems(draw):
    """A node's (n, m) drawn columns of few distinct values, with labels of
    K classes: ties, leading and trailing runs and constant columns."""
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 20))
    k = draw(st.sampled_from([2, 3, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = _few_values(rng, n, m)
    if draw(st.booleans()):  # continuous values beside the few-valued ones
        V[:, ::2] = rng.normal(size=(n, (m + 1) // 2))
    return V, rng.integers(0, k, size=n), k


@settings(max_examples=300, deadline=None)
@given(_split_problems())
def test_split_scan_is_the_one_column_kernel_per_column(problem):
    """Score and threshold of each column are the former one-column kernel's
    on that column, stable-sorted, bit for bit."""
    V, ys, k = problem
    score, threshold = kernels.split_scan(V, ys, k)
    want_score, want_threshold = np.full(V.shape[1], np.inf), np.full(V.shape[1], np.inf)
    for c in range(V.shape[1]):
        order = np.argsort(V[:, c], kind="stable")
        vals = V[order, c]
        g, pos = ref_split_scan(vals, ys[order], k)
        if pos >= 0:
            want_score[c] = g
            want_threshold[c] = (vals[pos] + vals[pos + 1]) / 2.0
    assert np.array_equal(score, want_score)
    assert np.array_equal(threshold, want_threshold)


# ---------------------------------------------------------------------------
# CSR kernels: bit-identical to the original per-batch np.isin form
# ---------------------------------------------------------------------------

def _ref_csr_logits(indptr, indices, data, W, b):
    n = len(indptr) - 1
    z = np.tile(b, (n, 1))
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if len(indices):
        np.add.at(z, rows, (W[:, indices] * data).T)
    return z


def _ref_csr_softmax_fit(indptr, indices, data, targets, coefs, W, b, order,
                         batch_size, lr, decay):
    """The original trainer: one pass over all nonzeros per mini-batch."""
    n = targets.shape[0]
    rows_all = np.repeat(np.arange(n), np.diff(indptr))
    for e in range(order.shape[0]):
        perm = order[e]
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            bs = len(batch)
            sel = np.flatnonzero(np.isin(rows_all, batch))
            cols = indices[sel]
            vals = data[sel]
            pos = np.full(n, -1, dtype=np.int64)
            pos[batch] = np.arange(bs)
            brows = pos[rows_all[sel]]
            z = np.tile(b, (bs, 1))
            if len(cols):
                np.add.at(z, brows, (W[:, cols] * vals).T)
            p = kernels.softmax(z)
            g = (p - targets[batch]) * (coefs[batch] / bs)[:, None]
            b -= lr * g.sum(axis=0)
            if len(cols):
                np.subtract.at(W.T, cols, g[brows] * vals[:, None] * lr)
        if decay != 1.0:
            W *= decay
    return W, b


@st.composite
def _csr_problems(draw):
    """Random CSR training problems: empty rows, repeated columns, every
    batch-size regime (1, partial last batch, n, larger than n)."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 30))
    k = draw(st.sampled_from([2, 3, 9]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 7, size=n)
    lens[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    nnz = int(indptr[-1])
    indices = rng.integers(0, d, size=nnz).astype(np.int64)
    data = rng.uniform(-1.0, 2.0, size=nnz)
    targets = np.eye(k)[rng.integers(0, k, size=n)]
    coefs = rng.uniform(0.05, 4.0, size=n)
    epochs = draw(st.integers(1, 3))
    order = np.vstack([rng.permutation(n) for _ in range(epochs)]).astype(np.int64)
    batch_size = draw(st.one_of(st.sampled_from([1, n, n + 5]),
                                st.integers(1, n)))
    lr = draw(st.floats(0.01, 2.0))
    decay = draw(st.sampled_from([1.0, 0.999, 0.9]))
    W = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    return (indptr, indices, data, targets, coefs, W, b, order, batch_size,
            lr, decay)


@settings(max_examples=150, deadline=None)
@given(_csr_problems())
def test_np_csr_softmax_fit_bit_identical(problem):
    indptr, indices, data, targets, coefs, W0, b0, order, bs, lr, decay = problem
    Wr, br = W0.copy(), b0.copy()
    _ref_csr_softmax_fit(indptr, indices, data, targets, coefs, Wr, br,
                         order, bs, lr, decay)
    W, b = W0.copy(), b0.copy()
    kernels.csr_softmax_fit(indptr, indices, data, targets, coefs, W, b,
                            order, bs, lr, decay)
    assert np.array_equal(W, Wr)
    assert np.array_equal(b, br)


@settings(max_examples=150, deadline=None)
@given(_csr_problems())
def test_np_csr_logits_bit_identical(problem):
    indptr, indices, data, _, _, W, b, *_ = problem
    z = kernels.csr_logits(indptr, indices, data, W, b)
    assert z.flags.c_contiguous
    assert np.array_equal(z, _ref_csr_logits(indptr, indices, data, W, b))


# ---------------------------------------------------------------------------
# dense softmax trainer: bit-identical to the mini-batch loop run full-batch
# ---------------------------------------------------------------------------

def _ref_dense_softmax_fit(X, targets, coefs, W, b, order, batch_size, lr, decay):
    """The mini-batch trainer that the lr meta-learner ran with one batch of
    all rows in identity order and unit coefficients."""
    n = X.shape[0]
    for e in range(order.shape[0]):
        perm = order[e]
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            bs = len(batch)
            Xb = X[batch]
            p = kernels.softmax(Xb @ W.T + b)
            g = (p - targets[batch]) * (coefs[batch] / bs)[:, None]
            b -= lr * g.sum(axis=0)
            W -= lr * (g.T @ Xb)
        if decay != 1.0:
            W *= decay
    return W, b


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 600), st.integers(1, 100), st.sampled_from([2, 3, 9]),
       st.integers(1, 5), st.sampled_from([1.0, 0.9995]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_dense_softmax_fit_bit_identical(n, d, k, epochs, decay, fortran, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if fortran:  # a matmul on Fortran-ordered X can round differently
        X = np.asfortranarray(X)
    targets = np.eye(k)[rng.integers(0, k, size=n)]
    Wr, br = np.zeros((k, d)), np.zeros(k)
    order = np.tile(np.arange(n, dtype=np.int64), (epochs, 1))
    _ref_dense_softmax_fit(X, targets, np.ones(n), Wr, br, order, n, 0.5, decay)
    W, b = np.zeros((k, d)), np.zeros(k)
    kernels.dense_softmax_fit(X, targets, W, b, epochs, 0.5, decay)
    assert np.array_equal(W, Wr)
    assert np.array_equal(b, br)


# ---------------------------------------------------------------------------
# narrow index arrays: the same bits as the int64 formulation
# ---------------------------------------------------------------------------

def _ranges_problem(n=600, d=50, k=3, seed=5):
    """A CSR training problem with about a fifth of its rows empty."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(1, 6, size=n)
    lens[rng.random(n) < 0.2] = 0
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    nnz = int(indptr[-1])
    indices = rng.integers(0, d, size=nnz).astype(np.int64)
    data = rng.uniform(-1.0, 2.0, size=nnz)
    targets = np.eye(k)[rng.integers(0, k, size=n)]
    coefs = rng.uniform(0.05, 4.0, size=n)
    order = np.vstack([rng.permutation(n) for _ in range(2)]).astype(np.int64)
    W, b = rng.normal(size=(k, d)), rng.normal(size=k)
    return indptr, indices, data, targets, coefs, W, b, order


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("batch_size", [1, 255, 256, 257, 600, 605])
def test_csr_softmax_fit_narrow_batch_rows_bit_identical(batch_size, dtype):
    # 256 is the widest batch whose row fits a byte; 257 takes two
    assert np.min_scalar_type(batch_size - 1) == (np.uint8 if batch_size <= 256
                                                  else np.uint16)
    indptr, indices, data, targets, coefs, W0, b0, order = _ranges_problem()
    Wr, br = W0.copy(), b0.copy()
    _ref_csr_softmax_fit(indptr, indices, data, targets, coefs, Wr, br, order,
                         batch_size, 0.5, 0.999)
    W, b = W0.copy(), b0.copy()
    kernels.csr_softmax_fit(indptr, indices.astype(dtype), data, targets, coefs,
                            W, b, order, batch_size, 0.5, 0.999)
    assert W.tobytes() == Wr.tobytes() and b.tobytes() == br.tobytes()


def test_ranges_index_is_the_int64_gather():
    rng = np.random.default_rng(2)
    lens = rng.integers(0, 5, size=300)
    lens[:3] = 0  # leading empty ranges
    starts = rng.integers(0, 1000, size=300)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    want = np.repeat(starts - offsets[:-1], lens) + np.arange(offsets[-1])
    got = kernels._ranges_index(starts, lens)
    assert got.dtype == np.int32 and np.array_equal(got, want)
    assert kernels._ranges_index(starts, np.zeros_like(lens)).size == 0
    # positions past 2^31 - 1 take int64
    big = kernels._ranges_index(np.array([2**31 - 2, 5]), np.array([3, 2]))
    assert big.dtype == np.int64
    assert big.tolist() == [2**31 - 2, 2**31 - 1, 2**31, 5, 6]


def _int64_unit_rows(indptr, data):
    """``learners.unit_rows`` as it was: int64 row ids and a fresh quotient."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    sq = np.zeros(n)
    np.add.at(sq, rows, data * data)
    norms = np.sqrt(sq)
    norms[norms == 0.0] = 1.0
    return data / norms[rows]


def test_fit_builtin_negative_decay_bit_identical():
    # decay = 1 - lr * l2 = -1 and an odd epoch count: the full-width
    # reference leaves -0.0 in every untouched column, and fit_builtin holds
    # its touched columns, bit for bit
    from conftest import random_feature_matrix
    from vulforge.ingest import Dataset, Sample
    from vulforge.learners import (LearnerConfig, SampleWeights, _epoch_orders,
                                   fit_builtin, unit_rows)

    fm = random_feature_matrix(np.random.default_rng(6), 90, dims=64)
    d = Dataset(tuple(Sample(s, "", i % 3) for i, s in enumerate(fm.ids)), 3, "r")
    ids = fm.ids[::-1]
    cfg = LearnerConfig(epochs=3, learning_rate=0.5, l2=4.0, batch_size=16, seed=4)
    w = SampleWeights.normalized(ids, np.arange(1, len(ids) + 1))
    m = fit_builtin(d, ids, w, cfg, fm)
    indptr, indices, data = fm.rows_for(ids)
    assert np.array_equal(m.columns, np.unique(indices))
    assert len(m.columns) < fm.dims
    assert unit_rows(indptr, data).tobytes() == _int64_unit_rows(indptr, data).tobytes()
    n = len(ids)
    W, b = np.zeros((3, fm.dims)), np.zeros(3)
    _ref_csr_softmax_fit(indptr, indices, _int64_unit_rows(indptr, data),
                         np.eye(3)[d.labels_for(ids)], w.weights * n, W, b,
                         _epoch_orders(n, cfg.epochs, cfg.seed), 16, 0.5, -1.0)
    assert np.signbit(W).any()
    assert m.W.tobytes() == W[:, m.columns].tobytes() and m.b.tobytes() == b.tobytes()
