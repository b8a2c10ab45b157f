"""Foundational value types and probability/label arithmetic.

Probabilities are plain float64 numpy arrays that have passed
``validate_prob_vector``; labels are non-negative ints.  The decision
boundary conventions live here so every module resolves ties the same way:
argmax ties break toward the lowest class index, and the binary threshold
maps mean probability >= 0.5 to class 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoverageMismatch,
    InvalidProbVector,
    NegativeEntry,
    SumOutOfTolerance,
)

#: Ingest tolerance: external files carry rounded decimals.
INGEST_SUM_TOL = 1e-6
#: Internal tolerance after renormalization.
INTERNAL_SUM_TOL = 1e-9


def validate_prob_vector(raw) -> np.ndarray:
    """Validate ``raw`` as a probability vector and renormalize to sum 1.

    Entries must lie in [0, 1] and sum to 1 within ``INGEST_SUM_TOL``.
    Returns a fresh float64 array whose sum is exactly renormalized.
    """
    p = np.asarray(raw, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidProbVector(f"expected non-empty 1-d vector, got shape {p.shape}")
    if np.any(p < 0.0):
        raise NegativeEntry(f"negative entries in {p!r}")
    if np.any(p > 1.0 + INGEST_SUM_TOL):
        raise InvalidProbVector(f"entries above 1 in {p!r}")
    s = float(p.sum())
    if not abs(s - 1.0) <= INGEST_SUM_TOL:  # also rejects a NaN sum
        raise SumOutOfTolerance(f"entries sum to {s}, outside 1 +/- {INGEST_SUM_TOL}")
    if s != 1.0:
        p = p / s
    return p


def argmax_label(p) -> int:
    """Class of maximal probability; ties break to the lowest class index."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidProbVector("empty probability vector")
    # np.argmax already returns the first (lowest) index among ties.
    return int(np.argmax(p))


def binary_label(p1: float) -> int:
    """Binary decision at the 0.5 boundary: class 1 iff p(y=1) >= 0.5."""
    return 1 if p1 >= 0.5 else 0


@dataclass(frozen=True)
class PredictionSet:
    """Per-sample class-probability outputs of one model over one split.

    ``probs`` is an (N, K) array aligned with ``ids``.  Instances are
    immutable and safe to share across workers.
    """

    model_id: str
    split: str  # train | val | test
    ids: tuple[str, ...]
    probs: np.ndarray
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.probs.ndim != 2 or self.probs.shape[0] != len(self.ids):
            raise InvalidProbVector(
                f"probs shape {self.probs.shape} does not match {len(self.ids)} ids"
            )
        if len(set(self.ids)) != len(self.ids):
            raise InvalidProbVector("duplicate sample ids in PredictionSet")
        self.probs.setflags(write=False)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.ids)})

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    def row(self, sample_id: str) -> np.ndarray:
        return self.probs[self._index[sample_id]]

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self._index

    def reindexed(self, ids) -> np.ndarray:
        """Rows in the order of ``ids``; raises CoverageMismatch on gaps."""
        try:
            rows = [self._index[s] for s in ids]
        except KeyError as exc:
            raise CoverageMismatch(f"sample {exc.args[0]!r} not covered by {self.model_id}") from exc
        return self.probs[rows]


def make_prediction_set(model_id: str, split: str, rows: dict[str, np.ndarray]) -> PredictionSet:
    """Build a PredictionSet from an id -> raw-probs mapping, validating rows."""
    ids = tuple(rows)
    widths = {len(rows[s]) for s in ids}
    if len(widths) > 1:
        raise InvalidProbVector(f"inconsistent class counts {sorted(widths)}")
    probs = np.vstack([validate_prob_vector(rows[s]) for s in ids]) if ids else np.zeros((0, 0))
    return PredictionSet(model_id=model_id, split=split, ids=ids, probs=probs)
