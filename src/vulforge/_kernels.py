"""Numeric hot kernels, one vectorized numpy implementation each.

All kernels are deterministic: shuffle orders are precomputed outside and
passed in, so results depend only on inputs.

The CSR softmax trainer costs O(nnz) per epoch: once per epoch it regroups
the nonzeros by mini-batch, so each batch is a contiguous slice, and it
scatters with one 1-D ``ufunc.at`` per class.  The accumulation order of
every sum matches the earlier per-batch ``np.isin`` formulation, so trained
weights are bit-identical to it (``tests/test_kernels.py`` checks this
against a copy of that formulation).  ``benchmarks/bench_kernels.py``
times the trainer at n and 4n rows.

The CSR kernels index ``W`` by column: ``indices`` must be column
positions of the ``W`` they are given, which can be narrower than the hash
width.  The built-in learner always passes its rows remapped onto their
sorted active columns and a W of that many columns; a column ``indices``
never names is never read or written, except by the epoch's weight decay.
``indices`` may be int32 or int64; the values are the same either way.

Every nnz-long index array these kernels build is int32 (int64 only for
positions past 2^31 - 1), and the batch row of each regrouped nonzero is
one byte for batches of up to 256 rows.  An epoch's regrouped nonzeros
live only inside ``_softmax_epoch``, so the next epoch builds its own
after they are freed: beside its inputs, the trainer holds about 17 bytes
a nonzero at most (position, column, value and batch row).
"""

from __future__ import annotations

import numpy as np

# There is one kernel path.  The name stays because the benchmark harness
# (e2ebench/harness.py) reads it to record the run's kernel path.
USE_NUMBA = False


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = np.atleast_2d(z)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# sparse (CSR) softmax regression
# ---------------------------------------------------------------------------

def _logits(rows, cols, vals, n, W, b):
    """(n, K) logits b + W x of n sparse rows whose nonzeros ``vals`` sit at
    (``rows``, ``cols``); each class sums them in the order given."""
    zT = np.repeat(b[:, None], n, axis=1)  # (K, n): one contiguous row per class
    if len(cols):
        for k in range(W.shape[0]):
            np.add.at(zT[k], rows, W[k, cols] * vals)
    # softmax reduces along rows; a strided view would change its order
    return np.ascontiguousarray(zT.T)


def _ranges_index(starts, lens):
    """The positions ``starts[i] .. starts[i] + lens[i] - 1`` of each range in
    turn, as one array: int32 when every position fits, else int64.  The
    arange is added in place, so no int64 array this long is built."""
    heads = np.cumsum(lens) - lens  # where each range begins in the result
    total = int(heads[-1] + lens[-1]) if len(lens) else 0
    fits = max(total, int((starts + lens).max(initial=0))) <= np.iinfo(np.int32).max
    dtype = np.int32 if fits else np.int64
    index = np.repeat((starts - heads).astype(dtype), lens)
    index += np.arange(total, dtype=dtype)
    return index


def _row_ids(indptr):
    """The row of each nonzero of a CSR, int32 (int64 past 2^31 - 1 rows)."""
    n = len(indptr) - 1
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    return np.repeat(np.arange(n, dtype=dtype), np.diff(indptr))


def csr_logits(indptr, indices, data, W, b):
    return _logits(_row_ids(indptr), indices, data, len(indptr) - 1, W, b)


def _softmax_epoch(indptr, indices, data, targets, coefs, W, b, perm,
                   batch_size, lr):
    """One epoch of mini-batch steps in the order ``perm``.  Its nonzeros
    are regrouped here, so they are freed when it returns."""
    n = targets.shape[0]
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n)
    # Rows grouped by batch, ascending row id within a batch (the stable
    # sort keeps the arange order), then expanded to their nonzeros: each
    # batch becomes one contiguous slice, in ascending nonzero order.
    rows = np.argsort(pos // batch_size, kind="stable")
    lens = np.diff(indptr)[rows]
    offsets = np.concatenate(([0], np.cumsum(lens)))
    eidx = _ranges_index(indptr[rows], lens)
    cols_e = indices[eidx]
    vals_e = data[eidx]
    del eidx
    brow_type = np.min_scalar_type(batch_size - 1)
    brows_e = np.repeat((pos[rows] % batch_size).astype(brow_type), lens)
    for start in range(0, n, batch_size):
        batch = perm[start:start + batch_size]
        bs = len(batch)
        lo, hi = offsets[start], offsets[start + bs]
        # one batch widened to intp, which numpy indexes without a cast
        cols = cols_e[lo:hi].astype(np.intp)
        vals = vals_e[lo:hi]
        brows = brows_e[lo:hi].astype(np.intp)
        p = softmax(_logits(brows, cols, vals, bs, W, b))
        g = (p - targets[batch]) * (coefs[batch] / bs)[:, None]  # (bs, K)
        b -= lr * g.sum(axis=0)
        for k in range(W.shape[0]):
            np.subtract.at(W[k], cols, g[brows, k] * vals * lr)


def csr_softmax_fit(indptr, indices, data, targets, coefs, W, b, order,
                        batch_size, lr, decay):
    for perm in order:
        _softmax_epoch(indptr, indices, data, targets, coefs, W, b, perm,
                       batch_size, lr)
        if decay != 1.0:
            W *= decay
    return W, b


# ---------------------------------------------------------------------------
# dense softmax regression (meta-learners)
# ---------------------------------------------------------------------------

def dense_softmax_fit(X, targets, W, b, epochs, lr, decay):
    """Full-batch gradient descent on the mean cross-entropy, then weight
    decay, once per epoch.  The ``* (1.0 / n)`` scale and the C-ordered X
    keep the weights' bits; dividing by n would change the last bit."""
    X = np.ascontiguousarray(X)
    scale = 1.0 / X.shape[0]
    for _ in range(epochs):
        g = (softmax(X @ W.T + b) - targets) * scale
        b -= lr * g.sum(axis=0)
        W -= lr * (g.T @ X)
        if decay != 1.0:
            W *= decay
    return W, b


def dense_softmax_loss_grad(X, targets, W, b, l2):
    """Mean cross-entropy objective and its analytic gradient (for checks)."""
    n = X.shape[0]
    p = softmax(X @ W.T + b)
    loss = float(-(targets * np.log(p + 1e-300)).sum() / n + 0.5 * l2 * (W * W).sum())
    g = (p - targets) / n
    gW = g.T @ X + l2 * W
    gb = g.sum(axis=0)
    return loss, gW, gb


# ---------------------------------------------------------------------------
# dense linear SVM, one-vs-rest hinge
# ---------------------------------------------------------------------------

def hinge_objective(X, S, W, b, l2):
    """OVR hinge objective: mean_i sum_c max(0, 1 - s_ic z_ic) + l2/2 ||W||^2.

    ``S`` holds the +/-1 one-vs-rest sign matrix.
    """
    z = X @ W.T + b
    return float(np.maximum(0.0, 1.0 - S * z).sum() / X.shape[0]
                 + 0.5 * l2 * (W * W).sum())


def hinge_subgradient(X, S, W, b, l2):
    n = X.shape[0]
    z = X @ W.T + b
    viol = (1.0 - S * z) > 0.0
    G = np.where(viol, -S, 0.0) / n  # (n, K)
    gW = G.T @ X + l2 * W
    gb = G.sum(axis=0)
    return gW, gb


def hinge_ovr_fit(X, S, W, b, epochs, lr, l2):
    for _ in range(epochs):
        gW, gb = hinge_subgradient(X, S, W, b, l2)
        W -= lr * gW
        b -= lr * gb
    return W, b


# ---------------------------------------------------------------------------
# kNN: squared distances and the vote on them
# ---------------------------------------------------------------------------

def sq_dists(Q, X):
    # subtract-square over blocks of about 4e6 differences, bounded memory.
    # Each distance is the sum of one contiguous row, so the blocking never
    # changes its value.  knn_votes votes on exactly these values.
    out = np.empty((Q.shape[0], X.shape[0]))
    rows = max(1, int(4e6 // max(1, X.shape[1])))  # X rows per block
    chunk = max(1, rows // max(1, X.shape[0]))      # Q rows per block
    for s in range(0, Q.shape[0], chunk):
        for t in range(0, X.shape[0], rows):
            d = Q[s:s + chunk, None, :] - X[None, t:t + rows, :]
            out[s:s + chunk, t:t + rows] = (d * d).sum(axis=2)
    return out


_KNN_BLOCK = 1 << 18   # Gram entries per block of query rows (2 MB)
_KNN_SAFE = np.finfo(np.float64).max / 16  # below this no Gram term overflows


def knn_votes(Q, X, labels, k, K):
    """(N_Q, K) kNN vote counts, bit-identical to voting on ``sq_dists(Q, X)``:
    for each query row, every fit row whose distance is at most the k-th
    smallest votes for its label, ties included.  Q and X must be finite.
    (On a Fortran-ordered Q ``sq_dists`` sums in another order; this kernel
    always gives the votes of C-ordered rows, which every caller passes.)

    Query rows go in blocks of about ``_KNN_BLOCK`` pairs.  A block takes
    the Gram estimate G = |q|^2 + |x|^2 - 2 q.x from one matmul, the
    approximate k-th value t' of each row and a bound E on |G - e|, where e
    is the distance ``sq_dists`` computes.  Only pairs with G <= t' + 2E get
    e, by the same contiguous ``(d * d).sum`` row sum, in chunks of about
    ``_KNN_BLOCK`` values; every other pair reads +inf.  The vote then runs
    on those values exactly as on ``sq_dists``.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms,
    Sec. 3.1).  With u = eps/2 and g_n = nu / (1 - nu), a float sum of n
    terms in any order, with or without FMA, is within g_(n-1) times the sum
    of their magnitudes of the exact one, so nothing below depends on how
    BLAS orders or threads its sums.  Let s = sum_d (q_d - x_d)^2 exactly
    and M = |q|^2 + |x|^2, so s <= 2M and sum_d |q_d x_d| <= M/2.
      - e rounds each difference and its square, then sums D nonnegative
        terms: |e - s| <= g_(D+2) s <= 2 g_(D+2) M.
      - G: both norms and q.x carry at most g_D M; the two additions each
        round a value of magnitude at most 3M(1 + g_D):
        |G - s| <= (2 g_D + 6u(1 + g_D)) M.
    So |G - e| is at most about (4D + 10)u M.  E = 8(D+2)(eps S + tiny),
    with S = |q|^2 + max_x |x|^2 from the computed norms, covers it more
    than three times over, enough for the error in S, in E and in t' + 2E;
    the ``tiny`` term covers products that underflow, each off by at most
    2^-1075.  When S reaches ``_KNN_SAFE`` a term of G could overflow, so
    E = inf and every pair of the row is recomputed.

    Why the candidates hold the answer.  The k-th smallest value moves by
    at most the largest change of any element, so the exact k-th distance T
    is within E of t'.  A pair with e <= T then has G <= e + E <= t' + 2E:
    every neighbour and every tie is a candidate.  So the k-th smallest
    recomputed value of the row is T, and the pairs at or below it are the
    pairs ``sq_dists`` votes with.
    """
    n, dim = X.shape
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    xn = np.einsum("ij,ij->i", X, X)
    onehot = np.eye(K)[labels]
    votes = np.empty((Q.shape[0], K))
    rows = max(1, _KNN_BLOCK // n)               # query rows per block
    pairs = max(1, _KNN_BLOCK // max(1, dim))    # pairs per exact chunk
    for s in range(0, Q.shape[0], rows):
        q = Q[s:s + rows]
        qn = np.einsum("ij,ij->i", q, q)
        G = q @ X.T
        G *= -2.0
        G += qn[:, None]
        G += xn
        S = qn + xn.max()
        E = np.where(S < _KNN_SAFE, 8.0 * (dim + 2) * (eps * S + tiny), np.inf)
        # copied out, so that each partitioned block is freed at once
        t = np.partition(G, k - 1, axis=1)[:, k - 1].copy()
        # "not above" so that a row whose E is inf (G may hold NaN) takes all
        cand = np.flatnonzero(~(G > (t + 2.0 * E)[:, None]))
        G.fill(np.inf)
        flat = G.reshape(-1)
        for c in range(0, len(cand), pairs):
            idx = cand[c:c + pairs]
            d = q[idx // n]
            d -= X[idx % n]
            d *= d
            flat[idx] = d.sum(axis=1)
        kth = np.partition(G, k - 1, axis=1)[:, k - 1:k].copy()
        votes[s:s + rows] = (G <= kth) @ onehot
    return votes


# ---------------------------------------------------------------------------
# decision-tree split scan (Gini)
# ---------------------------------------------------------------------------

def split_scan(vals, ys, K):
    """Best binary split of a column pre-sorted by value.

    Returns (weighted_gini, position) where the split separates
    ``[0..pos]`` from ``[pos+1..]``; position -1 means no valid split.
    """
    n = len(vals)
    if n < 2 or vals[0] == vals[-1]:  # a constant column has no split
        return np.inf, -1
    onehot = np.zeros((n, K))
    onehot[np.arange(n), ys] = 1.0
    left = onehot.cumsum(axis=0)          # counts in [0..i]
    total = left[-1]
    nl = np.arange(1, n, dtype=np.float64)
    lcounts = left[:-1]
    rcounts = total - lcounts
    nr = n - nl
    gl = 1.0 - ((lcounts / nl[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - ((rcounts / nr[:, None]) ** 2).sum(axis=1)
    g = (nl * gl + nr * gr) / n
    valid = vals[:-1] != vals[1:]
    if not valid.any():
        return np.inf, -1
    g = np.where(valid, g, np.inf)
    pos = int(np.argmin(g))
    return float(g[pos]), pos
