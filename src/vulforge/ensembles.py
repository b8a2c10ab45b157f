"""The four ensemble strategies: bagging (hard/soft voting), AdaBoost
(binary and SAMME), stacking, and dynamic gated stacking.

All four combine one object, the member stack: an (M, N, K) array of M
members, rounds or base models on N samples over K classes, ``stack[m, i]``
the probability vector member m gives sample i.  One builder,
``_member_stack``, makes it at fit and at predict, and is the one place
that rejects members of unequal K or of other feature dims.  Stacking's
meta rows and the DGS gate input lay it out sample-major, each sample's M
vectors in base order.  The combiners are batch-first: they take the stack
and return (N, K).  An (M, K) input is one sample's rows and gives one (K,)
vector; the single-sample predictors (``bagging_predict``, ``dgs_predict``)
are batches of one over the same code.  Gate scores are an (N, M) batch too,
from the one gate-input builder ``dgs_fit`` trains on.
Every gate (lr, svm, rf, knn) is a meta-model with one width from fit to
score: the sorted columns of the gate input that some validation row
touches, kept on the ``GateModel`` as ``columns``.  Fit and scoring build
the dense gate input on those columns with one helper, ``_gate_input``,
which drops every feature entry outside them.

Vote conventions, fixed across the package:
  * hard bagging: majority over member argmax labels; vote ties resolve by
    higher mean probability among tied classes, then lowest class index
  * soft bagging: entrywise mean of member probability vectors
  * boosting: per-class sum of round coefficients over round argmax labels,
    normalized to a probability vector (the binary sign rule falls out at
    the 0.5 threshold)
  * gated stacking: an (N, M) gate-score matrix; hard routing takes each
    sample's top-scoring expert, soft routing weights the experts by score
Binary boosting uses alpha = 0.5 ln((1-eps)/eps); multi-class uses the SAMME
coefficient alpha = ln((1-eps)/eps) + ln(K-1).  Rounds with degenerate error
stop training early, retaining previously accepted rounds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .codefeat import FeatureVector, stack_features
from .core import PredictionSet
from .errors import (
    CoverageMismatch,
    DimensionMismatch,
    LayoutMismatch,
    MemberKMismatch,
    NoRoundsRetained,
)
from .ingest import BootstrapPlan, Dataset
from .learners import (
    BaseLearnerSpec,
    FeatureMatrix,
    SampleWeights,
    _column_positions,
    _touched_columns,
    emit_round_weights,
    fit_builtin,
    ingest_round_predictions,
    predict_builtin_many,
)
from .metamodels import MetaConfig, MetaModel, meta_fit, meta_predict_many


def derive_seed(master: int, *path: int) -> int:
    """Per-member seed stream: deterministic in ``master`` and ``path``."""
    return int(np.random.SeedSequence([master, *path]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# vote combiners
# ---------------------------------------------------------------------------

def soft_combine(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted per-class sum over the member axis: an (M, N, K) stack with
    (M, N) per-sample weights, or one sample's (M, K) rows with (M,) weights."""
    return (weights[..., None] * stack).sum(axis=0)


def bagging_combine(stack: np.ndarray, mode: str) -> np.ndarray:
    """Combine an (M, N, K) member stack, or one sample's (M, K) rows, under
    a voting mode."""
    if stack.ndim == 2:
        return bagging_combine(stack[:, None, :], mode)[0]
    m, n, k = stack.shape
    if mode == "soft":
        return soft_combine(stack, np.full((m, n), 1.0 / m))
    if mode != "hard":
        raise ValueError(f"unknown bagging mode {mode!r}")
    labels = stack.argmax(axis=2)  # argmax breaks ties toward lowest index
    votes = np.bincount((labels + k * np.arange(n)).ravel(),
                        minlength=n * k).reshape(n, k)
    tied = votes == votes.max(axis=1, keepdims=True)
    # among vote ties the higher mean wins; argmax takes the lowest index
    means = np.where(tied, stack.mean(axis=0), -np.inf)
    winner = (means == means.max(axis=1, keepdims=True)).argmax(axis=1)
    out = np.zeros((n, k))
    out[np.arange(n), winner] = 1.0
    return out


def _member_k(ks, class_count: int | None = None) -> int:
    """The one class count ``ks`` hold, which must be ``class_count`` if given."""
    ks = sorted(set(ks))
    if len(ks) != 1 or class_count not in (None, ks[0]):
        want = "one K" if class_count is None else f"K = {class_count}"
        raise MemberKMismatch(f"member class counts {ks}; members need {want}")
    return ks[0]


def _member_stack(models, ids, features=None, class_count: int | None = None) -> np.ndarray:
    """The (M, N, K) member stack of ``models`` on the samples ``ids``.

    A PredictionSet member is reindexed to ``ids``.  A built-in member
    predicts the rows of ``features`` for ``ids`` (a FeatureMatrix), or the
    one row of a FeatureVector.  Every member must give one K, equal to
    ``class_count`` when it is given.
    """
    rows, csr = [], None
    for m in models:
        if isinstance(m, PredictionSet):
            rows.append(m.reindexed(ids))
            continue
        if m.dims != features.dims:
            raise DimensionMismatch(f"feature dims {features.dims} != model dims {m.dims}")
        if csr is None:
            csr = (stack_features([features]) if isinstance(features, FeatureVector)
                   else features.rows_for(ids))
        rows.append(predict_builtin_many(m, *csr))
    _member_k((r.shape[1] for r in rows), class_count)
    return np.stack(rows)


def _meta_rows(stack: np.ndarray) -> np.ndarray:
    """(N, M*K) rows of an (M, N, K) stack: each sample's M probability
    vectors concatenated in member order."""
    m, n, k = stack.shape
    return np.transpose(stack, (1, 0, 2)).reshape(n, m * k)


def _distinct_draws(draws) -> tuple[tuple, SampleWeights]:
    """The distinct ids of a with-replacement draw, in first-seen order,
    each weighted by how often it was drawn."""
    uniq = Counter(draws)
    ids = tuple(uniq)
    return ids, SampleWeights.normalized(ids, np.array(list(uniq.values()), dtype=np.float64))


# ---------------------------------------------------------------------------
# bagging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaggingEnsemble:
    mode: str  # hard | soft
    members: tuple  # LinearModel... or PredictionSet... (external mode)
    class_count: int
    external: bool = False


def bagging_fit(spec: BaseLearnerSpec, plan: BootstrapPlan, d: Dataset, mode: str,
                features: FeatureMatrix) -> BaggingEnsemble:
    """Train M homogeneous built-in members on the plan's bootstrap draws,
    in member order, each on its own seed stream."""
    members = []
    for i in range(plan.member_count):
        ids, w = _distinct_draws(plan.draws[i])
        cfg = replace(spec.config, seed=derive_seed(spec.config.seed, 0xBA6, i))
        members.append(fit_builtin(d, ids, w, cfg, features))
    return BaggingEnsemble(mode, tuple(members), d.class_count)


def bagging_from_predictions(predsets: list[PredictionSet], mode: str) -> BaggingEnsemble:
    """External mode: members are prediction sets, no training happens."""
    return BaggingEnsemble(mode, tuple(predsets), _member_k(p.k for p in predsets),
                           external=True)


def bagging_predict(e: BaggingEnsemble, x: FeatureVector | str) -> np.ndarray:
    """One sample's combined vote, by its feature vector for built-in
    members or by its id: a batch of one for bagging_predict_set."""
    ids, features = (None, x) if isinstance(x, FeatureVector) else ((x,), None)
    return bagging_combine(_member_stack(e.members, ids, features, e.class_count),
                           e.mode)[0]


def bagging_predict_set(e: BaggingEnsemble, ids, features: FeatureMatrix | None,
                        split: str, model_id: str = "bagging") -> PredictionSet:
    ids = tuple(ids)
    stack = _member_stack(e.members, ids, features, e.class_count)
    return PredictionSet(model_id, split, ids, bagging_combine(stack, e.mode))


# ---------------------------------------------------------------------------
# AdaBoost
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoostRound:
    t: int
    model: object  # LinearModel or PredictionSet
    epsilon: float
    alpha: float
    z: float


@dataclass(frozen=True)
class BoostEnsemble:
    rounds: tuple[BoostRound, ...]
    class_count: int
    variant: str  # binary_adaboost | samme
    vote_mode: str = "label"  # label | score


@dataclass(frozen=True)
class BoostConfig:
    rounds: int = 10
    weight_mode: str = "loss"  # loss | resample
    vote_mode: str = "label"


def _boost_step(w: np.ndarray, miss: np.ndarray, k: int):
    """One Eq-style round update: (epsilon, alpha, new weights, Z, stop)."""
    eps = float(w[miss].sum())
    binary = k == 2
    limit = 0.5 if binary else 1.0 - 1.0 / k
    if eps == 0.0 or eps >= limit:
        return eps, 0.0, w, 1.0, True
    if binary:
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        # signed agreement form: exp(-alpha) when correct, exp(+alpha) when missed
        mult = np.where(miss, math.exp(alpha), math.exp(-alpha))
    else:
        alpha = math.log((1.0 - eps) / eps) + math.log(k - 1.0)
        mult = np.where(miss, math.exp(alpha), 1.0)
    raw = w * mult
    z = float(raw.sum())
    return eps, alpha, raw / z, z, False


def _boost(fit_round, truth: np.ndarray, rounds: int, k: int,
           vote_mode: str) -> BoostEnsemble:
    """The AdaBoost round loop.  ``fit_round(t, w)`` fits round t under the
    weights ``w`` and returns its model and that model's train labels; a
    degenerate round stops the loop, keeping the rounds before it."""
    w = np.full(len(truth), 1.0 / len(truth))  # uniform start
    retained: list[BoostRound] = []
    for t in range(1, rounds + 1):
        model, labels = fit_round(t, w)
        eps, alpha, w, z, stop = _boost_step(w, labels != truth, k)
        if stop:
            if not retained:
                raise NoRoundsRetained(f"first round degenerate (epsilon={eps:.4f})")
            break
        retained.append(BoostRound(t, model, eps, alpha, z))
    if not retained:
        raise NoRoundsRetained("no rounds retained")
    return BoostEnsemble(tuple(retained), k,
                         "binary_adaboost" if k == 2 else "samme", vote_mode)


def adaboost_fit(spec: BaseLearnerSpec, d: Dataset, ids, cfg: BoostConfig,
                 features: FeatureMatrix,
                 weight_log: list | None = None) -> BoostEnsemble:
    if cfg.rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {cfg.rounds}")
    ids = tuple(ids)
    master = spec.config.seed

    def fit_round(t: int, w: np.ndarray):
        fit_ids, fit_w = ids, SampleWeights(ids, w.copy())
        if weight_log is not None:
            weight_log.append((t, w.copy()))
        if cfg.weight_mode == "resample":
            rng = np.random.default_rng(np.random.SeedSequence([master, 0x4E5, t]))
            fit_ids, fit_w = _distinct_draws(
                ids[p] for p in rng.choice(len(ids), size=len(ids), p=w))
        model = fit_builtin(d, fit_ids, fit_w,
                            replace(spec.config, seed=derive_seed(master, 0xB057, t)),
                            features)
        return model, _member_stack([model], ids, features, d.class_count)[0].argmax(axis=1)

    return _boost(fit_round, d.labels_for(ids), cfg.rounds, d.class_count,
                  cfg.vote_mode)


def adaboost_fit_external(root, d: Dataset, train_ids, rounds: int,
                          vote_mode: str = "label") -> BoostEnsemble:
    """External boosting: per-round weights are emitted to the file protocol
    and each round's train predictions are ingested back from
    boost/round_<t>/preds_train.jsonl."""
    train_ids = tuple(train_ids)

    def fit_round(t: int, w: np.ndarray):
        emit_round_weights(root, t, SampleWeights(train_ids, w.copy()))
        preds = ingest_round_predictions(root, t, "train", train_ids)
        return preds, _member_stack([preds], train_ids, None, d.class_count)[0].argmax(axis=1)

    return _boost(fit_round, d.labels_for(train_ids), rounds, d.class_count, vote_mode)


def boost_combine(stack: np.ndarray, alphas: np.ndarray, k: int,
                  vote_mode: str = "label") -> np.ndarray:
    """Normalized coefficient-weighted vote over a (T, N, K) round stack, or
    one sample's (T, K) rows."""
    if stack.ndim == 2:
        return boost_combine(stack[:, None, :], alphas, k, vote_mode)[0]
    if vote_mode != "score":
        stack = np.eye(k)[stack.argmax(axis=2)]  # one-hot round labels
    weights = np.broadcast_to(alphas[:, None], stack.shape[:2])
    return soft_combine(stack, weights) / alphas.sum()


def adaboost_predict_set(e: BoostEnsemble, ids, features: FeatureMatrix | None,
                         split: str, model_id: str = "boosting") -> PredictionSet:
    ids = tuple(ids)
    stack = _member_stack([r.model for r in e.rounds], ids, features, e.class_count)
    alphas = np.array([r.alpha for r in e.rounds])
    return PredictionSet(model_id, split, ids,
                         boost_combine(stack, alphas, e.class_count, e.vote_mode))


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StackingModel:
    base_ids: tuple[str, ...]
    meta: MetaModel
    class_count: int


def stacking_fit(base_preds_val: list[PredictionSet], val_ids, labels: np.ndarray,
                 meta_kind: str, cfg: MetaConfig = MetaConfig(),
                 seed: int = 0) -> StackingModel:
    if len(base_preds_val) < 2:
        raise CoverageMismatch("stacking needs at least two base models")
    stack = _member_stack(base_preds_val, val_ids)
    k = stack.shape[2]
    meta = meta_fit(meta_kind, _meta_rows(stack), np.asarray(labels, dtype=np.int64),
                    cfg, seed, output_width=k)
    return StackingModel(tuple(p.model_id for p in base_preds_val), meta, k)


def stacking_predict_set(s: StackingModel, base_preds: list[PredictionSet], ids,
                         split: str, model_id: str = "stacking") -> PredictionSet:
    if tuple(p.model_id for p in base_preds) != s.base_ids:
        raise LayoutMismatch("base prediction sets out of order for this model")
    stack = _member_stack(base_preds, ids, class_count=s.class_count)
    return PredictionSet(model_id, split, tuple(ids),
                         meta_predict_many(s.meta, _meta_rows(stack)))


def oof_prediction_set(spec: BaseLearnerSpec, d: Dataset, ids,
                       features: FeatureMatrix, folds: int = 5,
                       seed: int = 0) -> PredictionSet:
    """Out-of-fold train-split predictions for one built-in base learner.

    Each fold's rows are predicted by a model trained on the other folds,
    so no meta-training row is predicted by a model that saw it.
    """
    ids = tuple(ids)
    if folds < 2 or folds > len(ids):
        raise ValueError(f"folds must be in [2, {len(ids)}], got {folds}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x00F]))
    perm = rng.permutation(len(ids))
    assignment = np.empty(len(ids), dtype=np.int64)
    assignment[perm] = np.arange(len(ids)) % folds
    out = np.empty((len(ids), d.class_count))
    for f in range(folds):
        hold = np.flatnonzero(assignment == f)
        fit_ids = tuple(ids[i] for i in np.flatnonzero(assignment != f))
        cfg = replace(spec.config, seed=derive_seed(spec.config.seed, 0x0F0, f))
        model = fit_builtin(d, fit_ids, SampleWeights.uniform(fit_ids), cfg, features)
        hold_ids = tuple(ids[i] for i in hold)
        out[hold] = predict_builtin_many(model, *features.rows_for(hold_ids))
    return PredictionSet(spec.model_id, "train", ids, out)


# ---------------------------------------------------------------------------
# dynamic gated stacking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateModel:
    base_ids: tuple[str, ...]
    gate: MetaModel
    routing: str  # hard | soft
    dims: int
    class_count: int
    columns: np.ndarray  # the gate's input columns, sorted

    @property
    def member_count(self) -> int:
        return len(self.base_ids)


@dataclass(frozen=True)
class DgsConfig:
    routing: str = "hard"
    gate_kind: str = "lr"


def gate_targets(stacked: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Expert-correctness distribution per sample.

    Uniform over the base models whose argmax equals the true label;
    uniform over all M when none are correct.
    """
    m, n, _ = stacked.shape
    correct = stacked.argmax(axis=2) == labels[None, :]  # (M, N)
    targets = correct.T.astype(np.float64)
    none_right = targets.sum(axis=1) == 0
    targets[none_right] = 1.0
    return targets / targets.sum(axis=1, keepdims=True)


def _densify(indptr, indices, data, columns: np.ndarray) -> np.ndarray:
    """Dense (N, len(columns)) rows of a CSR on the sorted column set
    ``columns``; entries in any other column are dropped."""
    pos = _column_positions(columns, indices)
    keep = pos < len(columns)
    dense = np.zeros((len(indptr) - 1, len(columns)))
    dense[_kernels._row_ids(indptr)[keep], pos[keep]] = data[keep]
    return dense


def _gate_input(indptr, indices, data, dims: int, stack: np.ndarray,
                columns: np.ndarray) -> np.ndarray:
    """The dense gate input on the sorted ``columns``: each row's hashed
    features in columns below ``dims``, then its M*K base probabilities,
    ``_meta_rows(stack)``, in columns ``dims`` onward."""
    dense = _densify(indptr, indices, data, columns)
    meta = columns >= dims
    dense[:, meta] = _meta_rows(stack)[:, columns[meta] - dims]
    return dense


def dgs_fit(base_preds_val: list[PredictionSet], val_ids, labels: np.ndarray,
            features: FeatureMatrix, cfg: DgsConfig = DgsConfig(),
            meta_cfg: MetaConfig = MetaConfig(), seed: int = 0) -> GateModel:
    """Train the gate on routing labels, the argmax of each validation
    sample's expert-correctness target, over only the columns the
    validation rows touch."""
    if len(base_preds_val) < 2:
        raise CoverageMismatch("gated stacking needs at least two base models")
    val_ids = tuple(val_ids)
    labels = np.asarray(labels, dtype=np.int64)
    stacked = _member_stack(base_preds_val, val_ids)
    m, _, k = stacked.shape
    indptr, indices, data = features.rows_for(val_ids)
    columns = np.concatenate([_touched_columns(indices, features.dims),
                              features.dims + np.arange(m * k)], dtype=indices.dtype)
    gate = meta_fit(cfg.gate_kind,
                    _gate_input(indptr, indices, data, features.dims, stacked, columns),
                    gate_targets(stacked, labels).argmax(axis=1), meta_cfg, seed,
                    output_width=m)
    return GateModel(tuple(p.model_id for p in base_preds_val), gate, cfg.routing,
                     features.dims, k, columns)


def gate_scores_many(g: GateModel, indptr, indices, data, stack: np.ndarray,
                     forced_uniform: bool = False) -> np.ndarray:
    """(N, M) gate scores of N samples: their hashed features as CSR and
    their (M, N, K) expert stack, densified onto the gate's ``columns``."""
    m, n, k = stack.shape
    if m != g.member_count or k != g.class_count:
        raise LayoutMismatch(f"expert stack shape {stack.shape} does not match gate")
    if forced_uniform:
        return _kernels.softmax(np.zeros((n, m)))
    return meta_predict_many(g.gate, _gate_input(indptr, indices, data, g.dims, stack,
                                                 g.columns))


def gate_scores(g: GateModel, fv: FeatureVector, base_rows: np.ndarray,
                forced_uniform: bool = False) -> np.ndarray:
    """One sample's (M,) gate scores: a batch of one for gate_scores_many."""
    return gate_scores_many(g, *stack_features([fv]), base_rows[:, None, :],
                            forced_uniform)[0]


def _route(stack: np.ndarray, scores: np.ndarray, mode: str) -> np.ndarray:
    """Combine an (M, N, K) expert stack under an (N, M) gate-score matrix."""
    if mode == "hard":
        return stack[scores.argmax(axis=1), np.arange(stack.shape[1])]
    return soft_combine(stack, scores.T)


def dgs_predict(g: GateModel, fv: FeatureVector, base_rows, routing: str | None = None,
                forced_uniform: bool = False) -> np.ndarray:
    """One sample's routed output: a batch of one for dgs_predict_set."""
    base_rows = np.vstack([np.asarray(r, dtype=np.float64) for r in base_rows])
    scores = gate_scores(g, fv, base_rows, forced_uniform)
    return _route(base_rows[:, None, :], scores[None, :], routing or g.routing)[0]


def dgs_predict_set(g: GateModel, base_preds: list[PredictionSet], ids,
                    features: FeatureMatrix, split: str, model_id: str = "dgs",
                    forced_uniform: bool = False) -> PredictionSet:
    if tuple(p.model_id for p in base_preds) != g.base_ids:
        raise LayoutMismatch("base prediction sets out of order for this gate")
    ids = tuple(ids)
    stack = _member_stack(base_preds, ids, class_count=g.class_count)
    scores = gate_scores_many(g, *features.rows_for(ids), stack, forced_uniform)
    return PredictionSet(model_id, split, ids, _route(stack, scores, g.routing))
