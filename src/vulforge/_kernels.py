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

def csr_logits(indptr, indices, data, W, b):
    n = len(indptr) - 1
    zT = np.repeat(b[:, None], n, axis=1)  # (K, n): one contiguous row per class
    if len(indices):
        rows = np.repeat(np.arange(n), np.diff(indptr))
        for k in range(W.shape[0]):
            np.add.at(zT[k], rows, W[k, indices] * data)
    return np.ascontiguousarray(zT.T)


def csr_softmax_fit(indptr, indices, data, targets, coefs, W, b, order,
                        batch_size, lr, decay):
    n = targets.shape[0]
    K = W.shape[0]
    row_len = np.diff(indptr)
    for e in range(order.shape[0]):
        perm = order[e]
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        # Rows grouped by batch, ascending row id within a batch (the stable
        # sort keeps the arange order), then expanded to their nonzeros: each
        # batch becomes one contiguous slice, in ascending nonzero order.
        rows = np.argsort(pos // batch_size, kind="stable")
        lens = row_len[rows]
        offsets = np.concatenate(([0], np.cumsum(lens)))
        eidx = (np.repeat(indptr[rows] - offsets[:-1], lens)
                + np.arange(offsets[-1]))
        cols_e = indices[eidx]
        vals_e = data[eidx]
        brows_e = np.repeat(pos[rows] % batch_size, lens)
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            bs = len(batch)
            lo, hi = offsets[start], offsets[start + bs]
            cols = cols_e[lo:hi]
            vals = vals_e[lo:hi]
            brows = brows_e[lo:hi]
            zT = np.repeat(b[:, None], bs, axis=1)
            for k in range(K):
                np.add.at(zT[k], brows, W[k, cols] * vals)
            # softmax reduces along rows; a strided view would change its order
            p = softmax(np.ascontiguousarray(zT.T))
            g = (p - targets[batch]) * (coefs[batch] / bs)[:, None]  # (bs, K)
            b -= lr * g.sum(axis=0)
            for k in range(K):
                np.subtract.at(W[k], cols, g[brows, k] * vals * lr)
        if decay != 1.0:
            W *= decay
    return W, b


# ---------------------------------------------------------------------------
# dense softmax regression (meta-learners)
# ---------------------------------------------------------------------------

def dense_softmax_fit(X, targets, coefs, W, b, order, batch_size, lr, decay):
    n = X.shape[0]
    for e in range(order.shape[0]):
        perm = order[e]
        for start in range(0, n, batch_size):
            batch = perm[start:start + batch_size]
            bs = len(batch)
            Xb = X[batch]
            p = softmax(Xb @ W.T + b)
            g = (p - targets[batch]) * (coefs[batch] / bs)[:, None]
            b -= lr * g.sum(axis=0)
            W -= lr * (g.T @ Xb)
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
# kNN squared distances
# ---------------------------------------------------------------------------

def sq_dists(Q, X):
    # subtract-square per chunk: exact for small-integer fixtures, bounded memory
    out = np.empty((Q.shape[0], X.shape[0]))
    chunk = max(1, int(4e6 // max(1, X.size)))
    for s in range(0, Q.shape[0], chunk):
        d = Q[s:s + chunk, None, :] - X[None, :, :]
        out[s:s + chunk] = (d * d).sum(axis=2)
    return out


# ---------------------------------------------------------------------------
# decision-tree split scan (Gini)
# ---------------------------------------------------------------------------

def split_scan(vals, ys, K):
    """Best binary split of a column pre-sorted by value.

    Returns (weighted_gini, position) where the split separates
    ``[0..pos]`` from ``[pos+1..]``; position -1 means no valid split.
    """
    n = len(vals)
    if n < 2:
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
