"""Base learners: built-in weighted softmax regression and the file protocol
for external models.

The built-in learner trains multinomial logistic regression over hashed
n-gram features by mini-batch gradient descent on weighted cross-entropy.
Sample weights enter as per-sample loss multipliers by default; boosting may
alternatively resample (see ensembles).  External models integrate through
prediction files:

  preds/<model_id>/<split>.jsonl          {"id": str, "probs": [float; K]}
  boost/round_<t>/weights.jsonl           {"id": str, "weight": float}
  boost/round_<t>/preds_<split>.jsonl     same row schema as preds
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .codefeat import FeaturizerConfig, FeatureVector, featurize_code, stack_features
from .core import PredictionSet, make_prediction_set, validate_prob_matrix
from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyTrainingSet,
    InvalidProbVector,
    MalformedProbVector,
    MissingSample,
    ProtocolOrderError,
    UnknownSample,
    WeightCoverageMismatch,
)
from .ingest import Dataset, _atomic_write


@dataclass(frozen=True)
class SampleWeights:
    """Normalized per-sample weight distribution (AdaBoost's w^(t))."""

    ids: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.ids) != len(self.weights):
            raise WeightCoverageMismatch("ids and weights differ in length")
        if np.any(self.weights < 0):
            raise WeightCoverageMismatch("negative sample weight")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise WeightCoverageMismatch(f"weights sum to {total}, expected 1")
        self.weights.setflags(write=False)

    @classmethod
    def uniform(cls, ids) -> "SampleWeights":
        ids = tuple(ids)
        n = len(ids)
        return cls(ids, np.full(n, 1.0 / n))

    @classmethod
    def normalized(cls, ids, raw) -> "SampleWeights":
        raw = np.asarray(raw, dtype=np.float64)
        return cls(tuple(ids), raw / raw.sum())

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.ids, self.weights.tolist()))


@dataclass(frozen=True)
class LearnerConfig:
    learning_rate: float = 0.5
    epochs: int = 20
    l2: float = 1e-6
    batch_size: int = 32
    seed: int = 0

    def echo(self) -> dict:
        return {"learning_rate": self.learning_rate, "epochs": self.epochs,
                "l2": self.l2, "batch_size": self.batch_size, "seed": self.seed}


@dataclass(frozen=True)
class LinearModel:
    """Trained softmax regression: K x D weights plus K biases."""

    W: np.ndarray
    b: np.ndarray
    dims: int
    class_count: int
    config: LearnerConfig

    def __post_init__(self):
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("non-finite model parameters")
        self.W.setflags(write=False)
        self.b.setflags(write=False)


@dataclass(frozen=True)
class BaseLearnerSpec:
    kind: str  # builtin_linear | external
    model_id: str
    config: LearnerConfig = LearnerConfig()


@dataclass(frozen=True)
class FeatureMatrix:
    """Hashed features of a whole dataset in CSR form, indexed by sample id."""

    ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dims: int
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.ids)})

    def rows_for(self, ids):
        """Sub-CSR in the order of ``ids``."""
        rows = [self._index[s] for s in ids]
        lens = self.indptr[1:] - self.indptr[:-1]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(lens[rows])
        if len(rows):
            chunks_i = [self.indices[self.indptr[r]:self.indptr[r + 1]] for r in rows]
            chunks_d = [self.data[self.indptr[r]:self.indptr[r + 1]] for r in rows]
            indices = np.concatenate(chunks_i) if chunks_i else np.empty(0, np.int64)
            data = np.concatenate(chunks_d) if chunks_d else np.empty(0)
        else:
            indices = np.empty(0, np.int64)
            data = np.empty(0)
        return indptr, indices, data

    def vector_for(self, sample_id: str) -> FeatureVector:
        r = self._index[sample_id]
        idx = self.indices[self.indptr[r]:self.indptr[r + 1]]
        cnt = self.data[self.indptr[r]:self.indptr[r + 1]]
        return FeatureVector(self.dims, idx.copy(), cnt.copy(),
                             float(np.sqrt(np.dot(cnt, cnt))))


def featurize_dataset(d: Dataset, config: FeaturizerConfig = FeaturizerConfig()) -> FeatureMatrix:
    vectors = [featurize_code(s.code, config) for s in d.samples]
    indptr, indices, data = stack_features(vectors)
    return FeatureMatrix(tuple(d.ids), indptr, indices, data, config.dims)


def unit_rows(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """L2-normalize each CSR row (zero rows pass through unchanged).

    The built-in learner trains and predicts on unit-norm rows so token-count
    magnitudes cannot destabilize gradient steps; per-sample positive scaling
    leaves every argmax decision unchanged.
    """
    if len(data) == 0:
        return data.copy()
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    sq = np.zeros(n)
    np.add.at(sq, rows, data * data)
    norms = np.sqrt(sq)
    norms[norms == 0.0] = 1.0
    return data / norms[rows]


def _epoch_orders(n: int, epochs: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF17]))
    return np.vstack([rng.permutation(n) for _ in range(epochs)]).astype(np.int64)


def fit_builtin(d: Dataset, ids, w: SampleWeights, cfg: LearnerConfig,
                features: FeatureMatrix, soft_targets: np.ndarray | None = None) -> LinearModel:
    """Train the built-in learner on ``ids`` under weight distribution ``w``.

    ``soft_targets`` (N x K, rows summing to 1) overrides the one-hot labels;
    the gate trainer uses this for soft-target cross-entropy.
    """
    ids = tuple(ids)
    if not ids:
        raise EmptyTrainingSet("no training ids")
    if cfg.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if set(ids) != set(w.ids):
        raise WeightCoverageMismatch("weights do not cover exactly the training ids")
    wmap = w.as_dict()
    weights = np.array([wmap[s] for s in ids])
    n = len(ids)
    k = d.class_count
    indptr, indices, data = features.rows_for(ids)
    data = unit_rows(indptr, data)
    if soft_targets is None:
        targets = np.zeros((n, k))
        targets[np.arange(n), d.labels_for(ids)] = 1.0
    else:
        targets = np.asarray(soft_targets, dtype=np.float64)
        k = targets.shape[1]
    W = np.zeros((k, features.dims))
    b = np.zeros(k)
    coefs = weights * n  # uniform weights give the usual per-sample mean scale
    order = _epoch_orders(n, cfg.epochs, cfg.seed)
    decay = 1.0 - cfg.learning_rate * cfg.l2
    batch = min(cfg.batch_size, n)
    _kernels.csr_softmax_fit(indptr, indices, data, targets, coefs, W, b,
                             order, batch, cfg.learning_rate, decay)
    return LinearModel(W, b, features.dims, k, cfg)


def predict_builtin_many(m: LinearModel, indptr, indices, data) -> np.ndarray:
    """Softmax of W.x + b over each unit-normalized CSR row: (N, K)."""
    z = _kernels.csr_logits(indptr, indices, unit_rows(indptr, data), m.W, m.b)
    return _kernels.softmax(z)


def predict_builtin(m: LinearModel, f: FeatureVector) -> np.ndarray:
    """One feature vector's class probabilities: a batch of one for
    predict_builtin_many."""
    if f.dims != m.dims:
        raise DimensionMismatch(f"feature dims {f.dims} != model dims {m.dims}")
    return predict_builtin_many(m, *stack_features([f]))[0]


# ---------------------------------------------------------------------------
# external-model file protocol
# ---------------------------------------------------------------------------

def emit_round_weights(root, t: int, w: SampleWeights) -> Path:
    """Write boost/round_<t>/weights.jsonl; rounds must be emitted in order."""
    root = Path(root)
    if t < 1:
        raise ProtocolOrderError(f"round index must be >= 1, got {t}")
    if t > 1 and not (root / "boost" / f"round_{t - 1}" / "weights.jsonl").exists():
        raise ProtocolOrderError(f"round {t} emitted before round {t - 1}")
    lines = [json.dumps({"id": s, "weight": float(x)})
             for s, x in zip(w.ids, w.weights)]
    path = root / "boost" / f"round_{t}" / "weights.jsonl"
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return path


def write_predictions(root, p: PredictionSet, subdir: str = "preds") -> Path:
    lines = [json.dumps({"id": s, "probs": p.row(s).tolist()}) for s in p.ids]
    path = Path(root) / subdir / p.model_id / f"{p.split}.jsonl"
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return path


def _parse_pred_lines(path: Path, expected: set) -> dict:
    """Sample id -> raw ``probs`` of each line of a prediction file.

    Lines are parsed one at a time, so a bad line is named by its number and
    memory holds one list per row.
    """
    rows = {}
    try:
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedProbVector(f"{path} line {line_no}: not JSON: {exc}") from exc
                sid = rec.get("id") if isinstance(rec, dict) else None
                if not isinstance(sid, str):
                    raise MalformedProbVector(f"{path} line {line_no}: expected an object "
                                              f"with a string \"id\"")
                if sid not in expected:
                    raise UnknownSample(f"{path} line {line_no}: sample {sid!r} not in split")
                if sid in rows:
                    raise DuplicateId(f"{path} line {line_no}: sample {sid!r} appears twice")
                if "probs" not in rec:
                    raise MalformedProbVector(f"{path} line {line_no}: sample {sid!r} "
                                              f"has no \"probs\"")
                rows[sid] = rec["probs"]
    except UnicodeDecodeError as exc:
        raise MalformedProbVector(f"{path}: not UTF-8 text: {exc}") from exc
    missing = expected - rows.keys()
    if missing:
        raise MissingSample(f"split samples missing from {path.name}: "
                            f"{sorted(missing)[:5]}{'...' if len(missing) > 5 else ''}")
    return rows


def _ingest(path: Path, model_id: str, split: str, expected_ids) -> PredictionSet:
    """Read one prediction file: the distinct ``expected_ids`` in that order,
    their probs validated as one matrix.

    Line and id faults anywhere in the file are raised before any probs
    fault; see the README's table of malformed inputs.
    """
    if not path.exists():
        raise MissingSample(f"prediction file {path} does not exist")
    ids = tuple(dict.fromkeys(expected_ids))
    rows = _parse_pred_lines(path, set(ids))
    try:
        first = make_prediction_set(model_id, split, {s: rows[s] for s in ids})
    except InvalidProbVector as exc:
        if exc.row is None:
            raise InvalidProbVector(f"{path}: {exc}") from exc
        raise MalformedProbVector(f"{path}: sample {ids[exc.row]!r}: {exc}") from exc
    if not ids:
        return first
    # Ingest has always renormalized each row twice; the second pass
    # changes the last bit of some rows, so dropping it changes results.
    return PredictionSet(model_id=model_id, split=split, ids=ids,
                         probs=validate_prob_matrix(first.probs))


def ingest_predictions(root, model_id: str, split: str, expected_ids) -> PredictionSet:
    """Read and validate preds/<model_id>/<split>.jsonl against a split."""
    path = Path(root) / "preds" / model_id / f"{split}.jsonl"
    return _ingest(path, model_id, split, expected_ids)


def ingest_round_predictions(root, t: int, split: str, expected_ids,
                             model_id: str | None = None) -> PredictionSet:
    """Read boost/round_<t>/preds_<split>.jsonl for external boosting."""
    path = Path(root) / "boost" / f"round_{t}" / f"preds_{split}.jsonl"
    return _ingest(path, model_id or f"round_{t}", split, expected_ids)
