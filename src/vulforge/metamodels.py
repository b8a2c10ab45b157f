"""Meta-learners for stacking and gated stacking: logistic regression,
random forest, linear SVM, and kNN, all first-principles with one
fit/predict contract.

Hyperparameter defaults are fixed (k=5, trees=100, depth 16, L2=1e-4,
epochs=200) and echoed into every report.  All four kinds are deterministic
given (X, y, cfg, seed); the forest fits its trees in tree order, each on
its own seed stream.

Every param is an ndarray except knn's ``k``, and every predict is a batch
operation that gives each row the same bits in a batch of any size.  Fit
and predict both reject an input holding NaN or +-inf with
``NonFiniteInput``.  A forest is flat node arrays: ``feature``,
``threshold``, ``left``, ``right`` and ``value`` (nodes, K) hold the trees'
nodes, each tree in preorder and the trees joined in tree order, and
``roots`` (T,) holds each tree's root.  A leaf is its own left and right child, so
prediction moves all rows through all trees one depth level per step until
none moves, then sums the leaf values in tree order.

Every kind fits exactly the X it is given: the forest draws sqrt(X.shape[1])
features a node from X's own columns.  A tree grows over arrays of row
indices into that X, copying no row, and scores each node's drawn columns
in one ``_kernels.split_scan`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import META_KINDS, _kernels  # noqa: F401 (META_KINDS: public name)
from .errors import EmptyTrainingSet, NonFiniteInput, WidthMismatch


@dataclass(frozen=True)
class MetaConfig:
    knn_k: int = 5
    trees: int = 100
    max_depth: int = 16
    l2: float = 1e-4
    epochs: int = 200
    learning_rate: float = 0.5
    svm_learning_rate: float = 0.1


@dataclass(frozen=True)
class MetaModel:
    kind: str
    params: dict
    input_width: int
    output_width: int
    config: MetaConfig = field(default_factory=MetaConfig)


def _check_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyTrainingSet("need at least one training row")
    if X.shape[0] != len(y):
        raise WidthMismatch(f"{X.shape[0]} rows vs {len(y)} labels")
    _check_finite(X)
    return X, y


def _check_finite(X):
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteInput(f"meta-learner input row {row} holds NaN or "
                             "infinity", row=row)


def meta_fit(kind: str, X, y, cfg: MetaConfig = MetaConfig(), seed: int = 0,
             output_width: int | None = None) -> MetaModel:
    X, y = _check_xy(X, y)
    k_out = output_width or int(y.max()) + 1
    if kind == "lr":
        params = _fit_lr(X, y, k_out, cfg, seed)
    elif kind == "svm":
        params = _fit_svm(X, y, k_out, cfg)
    elif kind == "rf":
        params = _fit_rf(X, y, k_out, cfg, seed)
    elif kind == "knn":
        params = {"rows": X.copy(), "labels": y, "k": min(cfg.knn_k, X.shape[0])}
    else:
        raise ValueError(f"unknown meta kind {kind!r}")
    return MetaModel(kind, params, X.shape[1], k_out, cfg)


def meta_predict(m: MetaModel, x) -> np.ndarray:
    return meta_predict_many(m, np.asarray(x, dtype=np.float64)[None, :])[0]


def meta_predict_many(m: MetaModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.input_width:
        raise WidthMismatch(f"row width {X.shape[1:]} != model input {m.input_width}")
    _check_finite(X)
    if m.kind in ("lr", "svm"):
        # einsum sums each row's logits on their own, so a row scores the same
        # bits in a batch of any size; a matmul of one row takes another path
        logits = np.einsum("nd,kd->nk", X, m.params["W"]) + m.params["b"]
        if m.kind == "lr":
            return _kernels.softmax(logits)
        squashed = 1.0 / (1.0 + np.exp(-logits))  # unit-scale logistic
        return squashed / squashed.sum(axis=1, keepdims=True)
    if m.kind == "rf":
        return _forest_predict(m.params, X)
    if m.kind == "knn":
        return _knn_predict(m, X)
    raise ValueError(f"unknown meta kind {m.kind!r}")


# ---------------------------------------------------------------------------
# logistic regression (full-batch softmax GD)
# ---------------------------------------------------------------------------

def _fit_lr(X, y, k_out, cfg, seed):
    n = X.shape[0]
    targets = np.zeros((n, k_out))
    targets[np.arange(n), y] = 1.0
    W = np.zeros((k_out, X.shape[1]))
    b = np.zeros(k_out)
    decay = 1.0 - cfg.learning_rate * cfg.l2
    _kernels.dense_softmax_fit(X, targets, W, b, cfg.epochs, cfg.learning_rate, decay)
    return {"W": W, "b": b}


# ---------------------------------------------------------------------------
# linear SVM (one-vs-rest hinge subgradient)
# ---------------------------------------------------------------------------

def _fit_svm(X, y, k_out, cfg):
    n = X.shape[0]
    S = -np.ones((n, k_out))
    S[np.arange(n), y] = 1.0
    W = np.zeros((k_out, X.shape[1]))
    b = np.zeros(k_out)
    _kernels.hinge_ovr_fit(X, S, W, b, cfg.epochs, cfg.svm_learning_rate, cfg.l2)
    return {"W": W, "b": b}


# ---------------------------------------------------------------------------
# random forest (Gini trees, bootstrap rows, sqrt-width feature subsampling)
# ---------------------------------------------------------------------------

def _fit_rf(X, y, k_out, cfg, seed):
    trees = []
    for t in range(cfg.trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x43E57, t]))
        rows = rng.integers(0, X.shape[0], size=X.shape[0])
        nodes = []
        _build_tree(X, y, rows, 0, rng, k_out, cfg.max_depth, nodes)
        trees.append(nodes)
    offsets = np.cumsum([0] + [len(nodes) for nodes in trees])
    rows = ((f, thr, lo + off, hi + off, v)  # node indices shifted to forest-wide
            for nodes, off in zip(trees, offsets) for f, thr, lo, hi, v in nodes)
    forest = dict(zip(("feature", "threshold", "left", "right", "value"),
                      map(np.array, zip(*rows))))
    return {**forest, "roots": offsets[:-1]}


def _build_tree(X, y, rows, depth, rng, k_out, max_depth, nodes):
    """Grow a tree over the rows ``rows`` of X, scoring each node's drawn
    columns in one ``split_scan`` call; append its nodes to ``nodes`` in
    preorder and return its root's index."""
    node, ys = len(nodes), y[rows]
    counts = np.bincount(ys, minlength=k_out).astype(np.float64)
    nodes.append([0, 0.0, node, node, counts / counts.sum()])  # a leaf until split
    if len(rows) < 2 or depth >= max_depth or (ys == ys[0]).all():
        return node
    drawn = rng.choice(X.shape[1], size=max(1, int(np.sqrt(X.shape[1]))), replace=False)
    score, threshold = _kernels.split_scan(X[rows[:, None], drawn], ys, k_out)
    best = int(np.argmin(score))  # the first drawn of the least scores
    c, thr = int(drawn[best]), threshold[best]
    left = X[rows, c] <= thr  # all rows when no column splits: thr is inf
    if not left.any() or left.all():
        return node
    lo = _build_tree(X, y, rows[left], depth + 1, rng, k_out, max_depth, nodes)
    hi = _build_tree(X, y, rows[~left], depth + 1, rng, k_out, max_depth, nodes)
    nodes[node] = [c, thr, lo, hi, np.zeros(k_out)]
    return node


def _forest_predict(params, X):
    """Send every row through every tree, one depth level per step, and
    average the leaf values in tree order."""
    p, rows = params, np.arange(X.shape[0])[:, None]
    node = np.tile(p["roots"], (X.shape[0], 1))  # (N, T) current node per tree
    while True:
        step = np.where(X[rows, p["feature"][node]] <= p["threshold"][node],
                        p["left"][node], p["right"][node])
        if np.array_equal(step, node):  # every row sits in a leaf
            break
        node = step
    out = np.zeros((X.shape[0], p["value"].shape[1]))
    for t in range(len(p["roots"])):
        out += p["value"][node[:, t]]
    return out / len(p["roots"])


# ---------------------------------------------------------------------------
# kNN (Euclidean; distance ties at the k-th neighbor include all equidistant;
# exactly the vote on ``_kernels.sq_dists``)
# ---------------------------------------------------------------------------

def _knn_predict(m: MetaModel, X):
    votes = _kernels.knn_votes(X, m.params["rows"], m.params["labels"],
                               m.params["k"], m.output_width)
    return votes / votes.sum(axis=1, keepdims=True)
