"""The four ensemble strategies: bagging (hard/soft voting), AdaBoost
(binary and SAMME), stacking, and dynamic gated stacking.

The combiners are batch-first.  They act on an (M, N, K) stack: M members,
rounds or experts, N samples, K classes, with ``stack[m, i]`` the
probability vector member m gives sample i.  They return (N, K).  An
(M, K) input is one sample's rows and gives one (K,) vector; the
single-sample predictors (``bagging_predict``, ``adaboost_predict``,
``dgs_predict``) are batches of one over the same code.

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
from concurrent.futures import ThreadPoolExecutor
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
    LearnerConfig,
    LinearModel,
    SampleWeights,
    emit_round_weights,
    fit_builtin,
    ingest_round_predictions,
    predict_builtin_many,
)
from .metamodels import MetaConfig, MetaModel, meta_fit, meta_predict_many


def derive_seed(master: int, *path: int) -> int:
    """Per-member seed stream: deterministic, independent of worker count."""
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


def _member_stack(models, class_count: int, ids, features) -> np.ndarray:
    """(M, N, K) outputs of bagging members or boosting rounds.

    A PredictionSet member is reindexed to ``ids``.  A built-in member
    predicts the rows of ``features`` (a FeatureMatrix) for ``ids``, or the
    one row of a FeatureVector.
    """
    if isinstance(features, FeatureVector):
        csr = stack_features([features])
    elif features is not None:
        csr = features.rows_for(ids)
    rows = []
    for m in models:
        if isinstance(m, PredictionSet):
            rows.append(m.reindexed(ids))
        elif m.dims != features.dims:
            raise DimensionMismatch(f"feature dims {features.dims} != model dims {m.dims}")
        else:
            rows.append(predict_builtin_many(m, *csr))
    stack = np.stack(rows)
    if stack.shape[2] != class_count:
        raise MemberKMismatch(f"member K {stack.shape[2]} != {class_count}")
    return stack


def _one_sample(x) -> tuple:
    """The ``ids, features`` of _member_stack for one sample: its feature
    vector for built-in members, or its id for prediction-set members."""
    return (None, x) if isinstance(x, FeatureVector) else ((x,), None)


# ---------------------------------------------------------------------------
# bagging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaggingEnsemble:
    mode: str  # hard | soft
    members: tuple  # LinearModel... or PredictionSet... (external mode)
    class_count: int
    plan: BootstrapPlan | None = None
    external: bool = False


def bagging_fit(spec: BaseLearnerSpec, plan: BootstrapPlan, d: Dataset, mode: str,
                features: FeatureMatrix, workers: int = 1) -> BaggingEnsemble:
    """Train M homogeneous built-in members on the plan's bootstrap draws."""
    def fit_member(i: int) -> LinearModel:
        draw = plan.draws[i]
        # with-replacement draws repeat ids; weight mass folds repetitions in
        uniq: dict[str, int] = {}
        for sid in draw:
            uniq[sid] = uniq.get(sid, 0) + 1
        ids = tuple(uniq)
        w = SampleWeights.normalized(ids, np.array([uniq[s] for s in ids], dtype=np.float64))
        cfg = replace(spec.config, seed=derive_seed(spec.config.seed, 0xBA6, i))
        return fit_builtin(d, ids, w, cfg, features)

    if workers <= 1:
        members = [fit_member(i) for i in range(plan.member_count)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            members = list(pool.map(fit_member, range(plan.member_count)))
    return BaggingEnsemble(mode, tuple(members), d.class_count, plan)


def bagging_from_predictions(predsets: list[PredictionSet], mode: str) -> BaggingEnsemble:
    """External mode: members are prediction sets, no training happens."""
    ks = {p.k for p in predsets}
    if len(ks) != 1:
        raise MemberKMismatch(f"member class counts differ: {sorted(ks)}")
    return BaggingEnsemble(mode, tuple(predsets), ks.pop(), external=True)


def bagging_predict(e: BaggingEnsemble, x: FeatureVector | str) -> np.ndarray:
    """One sample's combined vote: a batch of one for bagging_predict_set."""
    return bagging_combine(_member_stack(e.members, e.class_count, *_one_sample(x)),
                           e.mode)[0]


def bagging_predict_set(e: BaggingEnsemble, ids, features: FeatureMatrix | None,
                        split: str, model_id: str = "bagging") -> PredictionSet:
    ids = tuple(ids)
    stack = _member_stack(e.members, e.class_count, ids, features)
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


def adaboost_fit(spec: BaseLearnerSpec, d: Dataset, ids, cfg: BoostConfig,
                 features: FeatureMatrix,
                 learner_cfg: LearnerConfig | None = None,
                 weight_log: list | None = None) -> BoostEnsemble:
    if cfg.rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {cfg.rounds}")
    ids = tuple(ids)
    base_cfg = learner_cfg or spec.config
    k = d.class_count
    truth = d.labels_for(ids)
    indptr, indices, data = None, None, None
    w = np.full(len(ids), 1.0 / len(ids))  # uniform start
    rounds: list[BoostRound] = []
    rng_master = base_cfg.seed
    for t in range(1, cfg.rounds + 1):
        round_cfg = replace(base_cfg, seed=derive_seed(rng_master, 0xB057, t))
        sw = SampleWeights(ids, w.copy())
        if weight_log is not None:
            weight_log.append((t, w.copy()))
        if cfg.weight_mode == "resample":
            rng = np.random.default_rng(np.random.SeedSequence([rng_master, 0x4E5, t]))
            picks = rng.choice(len(ids), size=len(ids), p=w)
            uniq: dict[str, int] = {}
            for p in picks:
                sid = ids[p]
                uniq[sid] = uniq.get(sid, 0) + 1
            fit_ids = tuple(uniq)
            fit_w = SampleWeights.normalized(
                fit_ids, np.array([uniq[s] for s in fit_ids], dtype=np.float64))
            model = fit_builtin(d, fit_ids, fit_w, round_cfg, features)
        else:
            model = fit_builtin(d, ids, sw, round_cfg, features)
        if indptr is None:
            indptr, indices, data = features.rows_for(ids)
        pred = predict_builtin_many(model, indptr, indices, data).argmax(axis=1)
        miss = pred != truth
        eps, alpha, w, z, stop = _boost_step(w, miss, k)
        if stop:
            if not rounds:
                raise NoRoundsRetained(
                    f"first round degenerate (epsilon={eps:.4f})")
            break
        rounds.append(BoostRound(t, model, eps, alpha, z))
    if not rounds:
        raise NoRoundsRetained("no rounds retained")
    return BoostEnsemble(tuple(rounds), k,
                         "binary_adaboost" if k == 2 else "samme", cfg.vote_mode)


def adaboost_fit_external(root, d: Dataset, train_ids, rounds: int,
                          vote_mode: str = "label") -> BoostEnsemble:
    """External boosting: per-round weights are emitted to the file protocol
    and each round's train predictions are ingested back from
    boost/round_<t>/preds_train.jsonl."""
    train_ids = tuple(train_ids)
    k = d.class_count
    truth = d.labels_for(train_ids)
    w = np.full(len(train_ids), 1.0 / len(train_ids))
    retained: list[BoostRound] = []
    for t in range(1, rounds + 1):
        emit_round_weights(root, t, SampleWeights(train_ids, w.copy()))
        preds = ingest_round_predictions(root, t, "train", train_ids)
        pred = preds.reindexed(train_ids).argmax(axis=1)
        eps, alpha, w, z, stop = _boost_step(w, pred != truth, k)
        if stop:
            if not retained:
                raise NoRoundsRetained(f"first round degenerate (epsilon={eps:.4f})")
            break
        retained.append(BoostRound(t, preds, eps, alpha, z))
    if not retained:
        raise NoRoundsRetained("no rounds retained")
    return BoostEnsemble(tuple(retained), k,
                         "binary_adaboost" if k == 2 else "samme", vote_mode)


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


def adaboost_predict(e: BoostEnsemble, x: FeatureVector | str) -> np.ndarray:
    """One sample's boosted vote: a batch of one for adaboost_predict_set."""
    stack = _member_stack([r.model for r in e.rounds], e.class_count, *_one_sample(x))
    alphas = np.array([r.alpha for r in e.rounds])
    return boost_combine(stack, alphas, e.class_count, e.vote_mode)[0]


def adaboost_predict_set(e: BoostEnsemble, ids, features: FeatureMatrix | None,
                         split: str, model_id: str = "boosting") -> PredictionSet:
    ids = tuple(ids)
    stack = _member_stack([r.model for r in e.rounds], e.class_count, ids, features)
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


def build_meta_rows(predsets: list[PredictionSet], ids) -> np.ndarray:
    """Meta input rows: [phi_1(x) .. phi_M(x)] concatenated in base order."""
    blocks = []
    for p in predsets:
        blocks.append(p.reindexed(ids))
    return np.hstack(blocks)


def stacking_fit(base_preds_val: list[PredictionSet], val_ids, labels: np.ndarray,
                 meta_kind: str, cfg: MetaConfig = MetaConfig(),
                 seed: int = 0) -> StackingModel:
    if len(base_preds_val) < 2:
        raise CoverageMismatch("stacking needs at least two base models")
    ks = {p.k for p in base_preds_val}
    if len(ks) != 1:
        raise MemberKMismatch(f"base class counts differ: {sorted(ks)}")
    k = ks.pop()
    X = build_meta_rows(base_preds_val, val_ids)
    meta = meta_fit(meta_kind, X, np.asarray(labels, dtype=np.int64), cfg, seed,
                    output_width=k)
    return StackingModel(tuple(p.model_id for p in base_preds_val), meta, k)


def stacking_predict(s: StackingModel, base_row) -> np.ndarray:
    """Meta output for one sample's M base probability vectors."""
    row = np.concatenate([np.asarray(r, dtype=np.float64) for r in base_row])
    if row.shape[0] != s.meta.input_width:
        raise LayoutMismatch(f"row width {row.shape[0]} != {s.meta.input_width}")
    return meta_predict_many(s.meta, row[None, :])[0]


def stacking_predict_set(s: StackingModel, base_preds: list[PredictionSet], ids,
                         split: str, model_id: str = "stacking") -> PredictionSet:
    if tuple(p.model_id for p in base_preds) != s.base_ids:
        raise LayoutMismatch("base prediction sets out of order for this model")
    X = build_meta_rows(base_preds, ids)
    return PredictionSet(model_id, split, tuple(ids), meta_predict_many(s.meta, X))


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
    gate: object  # LinearModel (sparse lr) or MetaModel (dense kinds)
    routing: str  # hard | soft
    dims: int
    class_count: int

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


def _augmented_features(features: FeatureMatrix, ids, stacked: np.ndarray) -> FeatureMatrix:
    """Hashed code features with flattened base probabilities appended as
    extra columns beyond the hash space."""
    m, n, k = stacked.shape
    flat = np.transpose(stacked, (1, 0, 2)).reshape(n, m * k)  # base order layout
    indptr, indices, data = features.rows_for(ids)
    n_extra = m * k
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    chunks_i, chunks_d = [], []
    extra_cols = features.dims + np.arange(n_extra, dtype=np.int64)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        chunks_i += [indices[lo:hi], extra_cols]
        chunks_d += [data[lo:hi], flat[i]]
        new_indptr[i + 1] = new_indptr[i] + (hi - lo) + n_extra
    return FeatureMatrix(tuple(ids), new_indptr, np.concatenate(chunks_i),
                         np.concatenate(chunks_d), features.dims + n_extra)


def dgs_fit(base_preds_val: list[PredictionSet], val_ids, labels: np.ndarray,
            features: FeatureMatrix, cfg: DgsConfig = DgsConfig(),
            gate_learner_cfg: LearnerConfig | None = None,
            meta_cfg: MetaConfig = MetaConfig(), seed: int = 0,
            dataset: Dataset | None = None) -> GateModel:
    if len(base_preds_val) < 2:
        raise CoverageMismatch("gated stacking needs at least two base models")
    val_ids = tuple(val_ids)
    labels = np.asarray(labels, dtype=np.int64)
    stacked = np.stack([p.reindexed(val_ids) for p in base_preds_val])  # (M, N, K)
    targets = gate_targets(stacked, labels)
    if cfg.gate_kind == "lr":
        aug = _augmented_features(features, val_ids, stacked)
        lcfg = gate_learner_cfg or LearnerConfig(seed=seed)
        gate = fit_builtin(dataset or _label_only_dataset(val_ids, labels),
                           val_ids, SampleWeights.uniform(val_ids), lcfg, aug,
                           soft_targets=targets)
    else:
        # dense kinds train on hard routing labels (argmax of the soft target)
        dense = _dense_gate_input(features, val_ids, stacked)
        gate = meta_fit(cfg.gate_kind, dense, targets.argmax(axis=1), meta_cfg,
                        seed, output_width=len(base_preds_val))
    return GateModel(tuple(p.model_id for p in base_preds_val), gate, cfg.routing,
                     features.dims, stacked.shape[2])


def _label_only_dataset(ids, labels) -> Dataset:
    from .ingest import Sample
    k = int(labels.max()) + 1 if len(labels) else 2
    return Dataset(tuple(Sample(i, "", int(l)) for i, l in zip(ids, labels)),
                   max(k, 2), "gate-train")


def _dense_gate_input(features: FeatureMatrix, ids, stacked: np.ndarray) -> np.ndarray:
    m, n, k = stacked.shape
    dense = np.zeros((n, features.dims + m * k))
    for i, sid in enumerate(ids):
        fv = features.vector_for(sid)
        dense[i, fv.indices] = fv.counts
    dense[:, features.dims:] = np.transpose(stacked, (1, 0, 2)).reshape(n, m * k)
    return dense


def gate_scores(g: GateModel, fv: FeatureVector, base_rows: np.ndarray,
                forced_uniform: bool = False) -> np.ndarray:
    m, k = base_rows.shape
    if m != g.member_count or k != g.class_count:
        raise LayoutMismatch(f"base rows shape {base_rows.shape} does not match gate")
    if forced_uniform:
        return _kernels.softmax(np.zeros((1, m)))[0]
    flat = base_rows.reshape(m * k)
    if isinstance(g.gate, MetaModel):
        dense = np.zeros(g.dims + m * k)
        dense[fv.indices] = fv.counts
        dense[g.dims:] = flat
        return meta_predict_many(g.gate, dense[None, :])[0]
    # the lr gate trains on unit-normalized augmented rows; mirror that here
    norm = math.sqrt(fv.norm * fv.norm + float(flat @ flat))
    scale = 1.0 / norm if norm > 0 else 1.0
    z = (g.gate.W[:, fv.indices] @ fv.counts
         + g.gate.W[:, g.dims:] @ flat) * scale + g.gate.b
    return _kernels.softmax(z)[0]


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
    stack = np.stack([p.reindexed(ids) for p in base_preds])  # (M, N, K)
    scores = np.vstack([
        gate_scores(g, features.vector_for(sid), stack[:, i, :], forced_uniform)
        for i, sid in enumerate(ids)
    ])  # (N, M)
    return PredictionSet(model_id, split, ids, _route(stack, scores, g.routing))
