"""Dual-path kernel agreement: numba fast path vs pure-numpy fallback, and
bit-identity of the numpy CSR kernels with their original formulation."""

import importlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vulforge._kernels as kernels


@pytest.fixture(scope="module")
def run_both():
    """Callable that evaluates ``fn(kernels_module)`` under the numba path
    and the numpy fallback, returning both results.

    ``importlib.reload`` re-executes the module in place, so the two runs
    happen sequentially; the original path is restored afterwards.
    """
    if not kernels.USE_NUMBA:
        pytest.skip("numba unavailable; only one path to test")
    saved = os.environ.get("VULFORGE_NO_NUMBA")

    def runner(fn):
        os.environ["VULFORGE_NO_NUMBA"] = "0"
        mod = importlib.reload(kernels)
        assert mod.USE_NUMBA
        fast = fn(mod)
        os.environ["VULFORGE_NO_NUMBA"] = "1"
        mod = importlib.reload(kernels)
        assert not mod.USE_NUMBA
        slow = fn(mod)
        return fast, slow

    yield runner
    if saved is None:
        os.environ.pop("VULFORGE_NO_NUMBA", None)
    else:
        os.environ["VULFORGE_NO_NUMBA"] = saved
    importlib.reload(kernels)


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


def test_csr_softmax_fit_paths_agree(run_both):
    indptr, indices, data, targets, order, n, d, k = _csr_fixture()
    coefs = np.ones(n)

    def fit(mod):
        W = np.zeros((k, d))
        b = np.zeros(k)
        mod.csr_softmax_fit(indptr, indices, data, targets, coefs, W, b,
                            order, 8, 0.3, 1.0)
        return W, b

    (Wf, bf), (Ws, bs) = run_both(fit)
    assert np.allclose(Wf, Ws, atol=1e-10)
    assert np.allclose(bf, bs, atol=1e-10)


def test_dense_softmax_fit_paths_agree(run_both):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 3, size=40)
    targets = np.eye(3)[y]
    order = np.vstack([rng.permutation(40) for _ in range(3)]).astype(np.int64)

    def fit(mod):
        W = np.zeros((3, 5))
        b = np.zeros(3)
        mod.dense_softmax_fit(X, targets, np.ones(40), W, b, order, 40, 0.2, 1.0)
        return W, b

    (Wf, bf), (Ws, bs) = run_both(fit)
    assert np.allclose(Wf, Ws, atol=1e-10)
    assert np.allclose(bf, bs, atol=1e-10)


def test_hinge_fit_paths_agree(run_both):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    S = np.where(rng.random((30, 3)) < 0.3, 1.0, -1.0)

    def fit(mod):
        W = np.zeros((3, 4))
        b = np.zeros(3)
        mod.hinge_ovr_fit(X, S, W, b, 20, 0.1, 1e-4)
        return W, b

    (Wf, bf), (Ws, bs) = run_both(fit)
    assert np.allclose(Wf, Ws, atol=1e-10)
    assert np.allclose(bf, bs, atol=1e-10)


def test_sq_dists_paths_agree(run_both):
    rng = np.random.default_rng(5)
    Q = rng.normal(size=(12, 6))
    X = rng.normal(size=(20, 6))
    fast, slow = run_both(lambda mod: mod.sq_dists(Q, X))
    assert np.allclose(fast, slow, atol=1e-10)


def test_split_scan_paths_agree(run_both):
    rng = np.random.default_rng(6)
    cases = []
    for _ in range(20):
        vals = np.sort(rng.integers(0, 6, size=30).astype(np.float64))
        ys = rng.integers(0, 3, size=30)
        cases.append((vals, ys))
    fast, slow = run_both(
        lambda mod: [mod.split_scan(v, y, 3) for v, y in cases])
    for (gf, pf), (gs, ps) in zip(fast, slow):
        assert pf == ps
        if pf >= 0:
            assert gf == pytest.approx(gs, abs=1e-12)


def test_split_scan_constant_column():
    vals = np.ones(10)
    ys = np.arange(10) % 2
    g, pos = kernels.split_scan(vals, ys, 2)
    assert pos == -1 and g == np.inf


# ---------------------------------------------------------------------------
# numpy CSR kernels: bit-identical to the original per-batch np.isin form
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
    kernels._np_csr_softmax_fit(indptr, indices, data, targets, coefs, W, b,
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
