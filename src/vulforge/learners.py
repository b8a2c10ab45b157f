"""Base learners: built-in weighted softmax regression and the file protocol
for external models.

The built-in learner trains multinomial logistic regression over hashed
n-gram features by mini-batch gradient descent on weighted cross-entropy.
Sample weights enter as per-sample loss multipliers by default; boosting may
alternatively resample (see ensembles).  It trains and holds only the
columns its training rows touch (``LinearModel.columns``): a gradient step
from zero never moves any other column, so the model is the full-width one
restricted to them, bit for bit.  External models integrate through
prediction files:

  preds/<model_id>/<split>.jsonl          {"id": str, "probs": [float; K]}
  boost/round_<t>/weights.jsonl           {"id": str, "weight": float}
  boost/round_<t>/preds_<split>.jsonl     same row schema as preds

Given ``ingest.Snapshots``, ``ingest_predictions`` keeps the raw probs
matrix of each file it reads successfully, in split order, as
``<sha256>.probs.npy`` next to ``<sha256>.ids.json``, and a later read of
the same bytes against the same ids takes the matrix from there instead of
parsing the file.  The value checks and both renormalization passes run on
every read.

The featurizer and the numeric kernels are imported by the functions that
use them, so a process that only reads prediction files loads neither.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import PredictionSet, _stack_rows, make_prediction_set, validate_prob_matrix
from .errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyTrainingSet,
    InvalidProbVector,
    MalformedProbVector,
    MissingSample,
    NonFiniteModel,
    ProtocolOrderError,
    UnknownSample,
    WeightCoverageMismatch,
)
from .ingest import Dataset, Snapshots, _atomic_write, file_sha256

if TYPE_CHECKING:
    from .codefeat import FeaturizerConfig, FeatureVector


@dataclass(frozen=True)
class SampleWeights:
    """Normalized per-sample weight distribution (AdaBoost's w^(t))."""

    ids: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.ids) != len(self.weights):
            raise WeightCoverageMismatch("ids and weights differ in length")
        if not np.isfinite(self.weights).all():  # NaN passes both checks below
            raise WeightCoverageMismatch("non-finite sample weight")
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


@dataclass(frozen=True)
class LinearModel:
    """Trained softmax regression over ``dims`` hashed columns: K biases and
    the (K, len(columns)) weights of the sorted ``columns`` it holds.  Every
    other column's weight is zero, so ``W`` is the full-width K x D matrix
    restricted to ``columns``; the store saves all three as held."""

    W: np.ndarray
    b: np.ndarray
    dims: int
    class_count: int
    config: LearnerConfig
    columns: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise NonFiniteModel("non-finite model parameters; training diverged "
                                 "(a lower learning rate may converge)")
        for arr in (self.W, self.b, self.columns):
            arr.setflags(write=False)


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
        """Sub-CSR in the order of ``ids``, gathered by row offsets through
        one int32 index."""
        from ._kernels import _ranges_index

        rows = np.fromiter(map(self._index.__getitem__, ids), dtype=np.int64)
        starts = self.indptr[rows]
        lens = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        gather = _ranges_index(starts, lens)
        return indptr, self.indices[gather], self.data[gather]

    def vector_for(self, sample_id: str) -> FeatureVector:
        from .codefeat import FeatureVector

        r = self._index[sample_id]
        idx = self.indices[self.indptr[r]:self.indptr[r + 1]]
        cnt = self.data[self.indptr[r]:self.indptr[r + 1]]
        return FeatureVector(self.dims, idx.copy(), cnt.copy(),
                             float(np.sqrt(np.dot(cnt, cnt))))


def featurize_dataset(d: Dataset, config: FeaturizerConfig | None = None) -> FeatureMatrix:
    """Hash every sample of ``d`` under ``config``, by default
    ``FeaturizerConfig()``."""
    from .codefeat import FeaturizerConfig, featurize_many

    config = FeaturizerConfig() if config is None else config
    return FeatureMatrix(d.ids, *featurize_many(d.codes, config), config.dims)


def unit_rows(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """L2-normalize each CSR row (zero rows pass through unchanged).

    The built-in learner trains and predicts on unit-norm rows so token-count
    magnitudes cannot destabilize gradient steps; per-sample positive scaling
    leaves every argmax decision unchanged.  The row ids are int32 and the
    division runs in place on the gathered norms.
    """
    from ._kernels import _row_ids

    if len(data) == 0:
        return data.copy()
    rows = _row_ids(indptr)
    sq = np.zeros(len(indptr) - 1)
    np.add.at(sq, rows, data * data)
    norms = np.sqrt(sq)
    norms[norms == 0.0] = 1.0
    out = norms[rows]
    return np.divide(data, out, out=out)


def _column_positions(columns: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The position of each of the nonnegative ``indices`` in the sorted
    ``columns``, or ``len(columns)`` for an index that is not among them.

    One lookup table as wide as the largest index, O(width + nnz), in the
    narrowest dtype that holds ``len(columns)`` (one byte per hashed column
    for up to 255 columns); a ``searchsorted`` of the unsorted indices was
    25 times slower on 690k indices.  The positions are int32."""
    width = 1 + max(columns[-1] if len(columns) else -1, indices.max(initial=-1))
    lookup = np.full(width, len(columns), dtype=np.min_scalar_type(len(columns)))
    lookup[columns] = np.arange(len(columns))
    return lookup[indices].astype(np.int32)


def _touched_columns(indices: np.ndarray, dims: int) -> np.ndarray:
    """``np.unique(indices)`` for indices in [0, ``dims``), from a dims-wide
    bool mask; ``np.unique`` sorts an nnz-long copy (and, with
    ``return_inverse``, holds about five nnz-long int64 arrays)."""
    touched = np.zeros(dims, dtype=bool)
    touched[indices] = True
    return np.flatnonzero(touched)


def _check_indices(indices: np.ndarray, dims: int) -> None:
    """Raise DimensionMismatch unless every feature index lies in [0, dims)."""
    if len(indices) and not 0 <= indices.min() <= indices.max() < dims:
        raise DimensionMismatch(f"feature indices outside [0, {dims})")


def _epoch_orders(n: int, epochs: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF17]))
    return np.vstack([rng.permutation(n) for _ in range(epochs)]).astype(np.int64)


def fit_builtin(d: Dataset, ids, w: SampleWeights, cfg: LearnerConfig,
                features: FeatureMatrix) -> LinearModel:
    """Train the built-in learner on the labels of ``ids`` in ``d`` under
    weight distribution ``w``.  It trains base models only; every DGS gate
    is a meta-model (see ensembles.dgs_fit).

    The rows are remapped onto their sorted active columns and W holds only
    those.  A column no training row touches is never read, and every
    ``W *= decay`` leaves it a zero (-0.0 under a negative decay, which
    gives the same probabilities as +0.0); each touched entry sees the same
    products in the same order.  So the model is the full-width one
    restricted to ``columns`` and predicts the same bits.  The columns
    come from ``_touched_columns`` and the rows' int32 positions among them
    from ``_column_positions``: no nnz-long index array the fit builds is
    wider than 32 bits."""
    from . import _kernels

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
    indptr, indices, data = features.rows_for(ids)
    _check_indices(indices, features.dims)
    data = unit_rows(indptr, data)
    columns = _touched_columns(indices, features.dims)
    indices = _column_positions(columns, indices)
    k = d.class_count
    targets = np.zeros((n, k))
    targets[np.arange(n), d.labels_for(ids)] = 1.0
    W = np.zeros((k, len(columns)))
    b = np.zeros(k)
    coefs = weights * n  # uniform weights give the usual per-sample mean scale
    order = _epoch_orders(n, cfg.epochs, cfg.seed)
    batch = min(cfg.batch_size, n)
    _kernels.csr_softmax_fit(indptr, indices, data, targets, coefs, W, b,
                             order, batch, cfg.learning_rate,
                             1.0 - cfg.learning_rate * cfg.l2)
    return LinearModel(W, b, features.dims, k, cfg, columns)


def predict_builtin_many(m: LinearModel, indptr, indices, data) -> np.ndarray:
    """Softmax of W.x + b over each unit-normalized CSR row: (N, K).

    Rows are normalized over all their entries; then each index reads its
    column of ``m.W``, or an appended zero column when the model does not
    hold it, so every logit sums the full-width products."""
    from . import _kernels

    _check_indices(indices, m.dims)
    W = np.concatenate((m.W, np.zeros((m.class_count, 1))), axis=1)
    z = _kernels.csr_logits(indptr, _column_positions(m.columns, indices),
                            unit_rows(indptr, data), W, m.b)
    return _kernels.softmax(z)


def predict_builtin(m: LinearModel, f: FeatureVector) -> np.ndarray:
    """One feature vector's class probabilities: a batch of one for
    predict_builtin_many."""
    from .codefeat import stack_features

    if f.dims != m.dims:
        raise DimensionMismatch(f"feature dims {f.dims} != model dims {m.dims}")
    return predict_builtin_many(m, *stack_features([f]))[0]


# ---------------------------------------------------------------------------
# external-model file protocol
# ---------------------------------------------------------------------------

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes it: its repr, or NaN or +-Infinity."""
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _float_text(values: np.ndarray):
    """The float-to-text function for the numbers of ``values``:
    ``float.__repr__`` when all are finite, which is what ``json.dumps``
    writes for them, else ``_json_float``."""
    return float.__repr__ if np.isfinite(values).all() else _json_float


def emit_round_weights(root, t: int, w: SampleWeights) -> Path:
    """Write boost/round_<t>/weights.jsonl; rounds must be emitted in order.
    Each line has the bytes ``json.dumps({"id": ..., "weight": ...})``
    gives, built without it."""
    root = Path(root)
    if t < 1:
        raise ProtocolOrderError(f"round index must be >= 1, got {t}")
    if t > 1 and not (root / "boost" / f"round_{t - 1}" / "weights.jsonl").exists():
        raise ProtocolOrderError(f"round {t} emitted before round {t - 1}")
    num = _float_text(w.weights)
    lines = [f'{{"id": {encode_basestring_ascii(s)}, "weight": {num(x)}}}'
             for s, x in zip(w.ids, w.weights.tolist())]
    path = root / "boost" / f"round_{t}" / "weights.jsonl"
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return path


def write_predictions(root, p: PredictionSet, write=_atomic_write) -> Path:
    """Write preds/<model_id>/<split>.jsonl under ``root`` through
    ``write(path, blob)``, by default the atomic writer.  Each line has the
    bytes ``json.dumps({"id": ..., "probs": [...]})`` gives, built without
    it."""
    num = _float_text(p.probs)
    lines = [f'{{"id": {encode_basestring_ascii(s)}, "probs": [{", ".join(map(num, row))}]}}'
             for s, row in zip(p.ids, p.probs.tolist())]
    path = Path(root) / "preds" / p.model_id / f"{p.split}.jsonl"
    write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return path


def _parse_pred_lines(fh, path: Path, expected: set) -> dict:
    """Sample id -> raw ``probs`` of each line of the prediction text file
    ``fh``, read from ``path``.

    Lines are parsed one at a time, so a bad line is named by its number and
    memory holds one list per row.
    """
    rows = {}
    try:
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


def _read_probs_snapshot(snapshots: Snapshots, key: str, ids: tuple) -> np.ndarray | None:
    """The raw probs stored under ``key``, rows in the order of ``ids``, or
    None when the snapshot is missing, unreadable, or its ids are not
    exactly ``ids`` or its matrix is not one float64 row per id."""
    try:
        stored = json.loads(snapshots.path(key, ".ids.json").read_bytes())
        raw = np.load(snapshots.path(key, ".probs.npy"), allow_pickle=False)
        index = {s: i for i, s in enumerate(stored)}
    except (OSError, ValueError, EOFError, TypeError):
        return None
    if (not isinstance(stored, list) or len(index) != len(stored)
            or index.keys() != set(ids) or raw.dtype != np.float64
            or raw.ndim != 2 or raw.shape[0] != len(ids) or not raw.shape[1]):
        return None
    return raw[[index[s] for s in ids]]


def _ingest(path: Path, model_id: str, split: str, expected_ids,
            snapshots: Snapshots | None = None) -> PredictionSet:
    """Read one prediction file: the distinct ``expected_ids`` in that order,
    their probs validated as one matrix.  With ``snapshots``, the raw matrix
    of a snapshot of the file's bytes for exactly these ids stands in for
    the parse; a read that succeeds stores one.

    Line and id faults anywhere in the file are raised before any probs
    fault; see the README's table of malformed inputs.
    """
    if not path.exists():
        raise MissingSample(f"prediction file {path} does not exist")
    ids = tuple(dict.fromkeys(expected_ids))
    with path.open("rb") as fh:
        key = None if snapshots is None or not ids else file_sha256(fh)
        raw = None if key is None else _read_probs_snapshot(snapshots, key, ids)
        if raw is None:
            with io.TextIOWrapper(fh, encoding="utf-8") as text:
                rows = _parse_pred_lines(text, path, set(ids))
    if not ids:
        return make_prediction_set(model_id, split, rows)
    fresh = raw is None
    try:
        if fresh:
            raw = _stack_rows([rows[s] for s in ids])
        first = validate_prob_matrix(raw)
    except InvalidProbVector as exc:
        if exc.row is None:
            raise InvalidProbVector(f"{path}: {exc}") from exc
        raise MalformedProbVector(f"{path}: sample {ids[exc.row]!r}: {exc}") from exc
    if fresh and key is not None:
        from .store import _npy_bytes

        snapshots.write(snapshots.path(key, ".probs.npy"), _npy_bytes(raw))
        snapshots.write(snapshots.path(key, ".ids.json"),
                        json.dumps(ids, separators=(",", ":")).encode("ascii"))
    # Ingest has always renormalized each row twice; the second pass
    # changes the last bit of some rows, so dropping it changes results.
    return PredictionSet(model_id=model_id, split=split, ids=ids,
                         probs=validate_prob_matrix(first))


def ingest_predictions(root, model_id: str, split: str, expected_ids, *,
                       snapshots: Snapshots | None = None) -> PredictionSet:
    """Read and validate preds/<model_id>/<split>.jsonl against a split,
    through ``snapshots`` when given (see ``_ingest``)."""
    path = Path(root) / "preds" / model_id / f"{split}.jsonl"
    return _ingest(path, model_id, split, expected_ids, snapshots)


def ingest_round_predictions(root, t: int, split: str, expected_ids) -> PredictionSet:
    """Read boost/round_<t>/preds_<split>.jsonl for external boosting."""
    path = Path(root) / "boost" / f"round_{t}" / f"preds_{split}.jsonl"
    return _ingest(path, f"round_{t}", split, expected_ids)
