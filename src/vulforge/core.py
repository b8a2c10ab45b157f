"""Foundational value types and probability/label arithmetic.

Probabilities are plain float64 numpy arrays that have passed
``validate_prob_matrix``; labels are non-negative ints.  Validation is
batch-first: ``validate_prob_matrix`` checks an (N, K) array with a few
vectorized passes and names the first offending row, and
``validate_prob_vector`` is its batch of one.  Both renormalize exactly as a
per-row ``p / p.sum()`` would, bit for bit.

The decision boundary conventions live here so every module resolves ties
the same way: argmax ties break toward the lowest class index, and the
binary threshold maps mean probability >= 0.5 to class 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

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


def validate_prob_matrix(P) -> np.ndarray:
    """Validate each row of an (N, K) array as a probability vector and
    renormalize it to sum 1.

    Entries must lie in [0, 1] and each row must sum to 1 within
    ``INGEST_SUM_TOL``; a NaN entry fails the sum check.  The error is the one
    a row-by-row check would raise first; its ``row`` attribute is the index
    of the first offending row.  Returns a fresh float64 array in which each
    row whose sum is not exactly 1 is divided by that sum.
    """
    P = np.ascontiguousarray(P, dtype=np.float64)
    if P.ndim != 2 or P.size == 0:
        raise InvalidProbVector(f"expected a non-empty 2-d array, got shape {P.shape}")
    neg = (P < 0.0).any(axis=1)
    above = (P > 1.0 + INGEST_SUM_TOL).any(axis=1)
    # A C-contiguous row sum over axis 1 adds in the same order as the 1-d
    # sum of that row, so the renormalized bits match a per-row check.
    s = P.sum(axis=1)
    off = ~(np.abs(s - 1.0) <= INGEST_SUM_TOL)  # also rejects a NaN sum
    bad = neg | above | off
    if bad.any():
        i = int(np.argmax(bad))
        if neg[i]:
            raise NegativeEntry(f"row {i}: negative entries in {P[i]!r}", row=i)
        if above[i]:
            raise InvalidProbVector(f"row {i}: entries above 1 in {P[i]!r}", row=i)
        raise SumOutOfTolerance(f"row {i}: entries sum to {s[i]}, outside "
                                f"1 +/- {INGEST_SUM_TOL}", row=i)
    out = P.copy()
    np.divide(out, s[:, None], out=out, where=(s != 1.0)[:, None])
    return out


def validate_prob_vector(raw) -> np.ndarray:
    """Validate ``raw`` as one probability vector: a batch of one for
    ``validate_prob_matrix``.  Returns a fresh renormalized float64 array."""
    p = np.asarray(raw, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidProbVector(f"expected non-empty 1-d vector, got shape {p.shape}")
    return validate_prob_matrix(p[None, :])[0]


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
    immutable: ``probs`` is read-only.
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


def _all_numbers(values) -> bool:
    """Whether each of ``values`` is an int or a float (numpy's too), not a
    bool: one C pass collects the types, and the check runs once a type."""
    return all(t is not bool and issubclass(t, (int, float, np.integer, np.floating))
               for t in set(map(type, values)))


def _stack_rows(rows: list) -> np.ndarray:
    """Raw probability rows as one (N, K) float64 array.

    Raises InvalidProbVector with ``row`` set for the first row that is not a
    non-empty list of numbers (a bool or a string is not a number), or with
    ``row`` None when every row is one but their lengths differ.
    """
    try:
        P = np.array(rows, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        P = None
    if (P is not None and P.ndim == 2 and P.shape[1] > 0
            and _all_numbers(chain.from_iterable(rows))):
        return P
    for i, r in enumerate(rows):
        try:
            p = np.asarray(r, dtype=np.float64)
        except (ValueError, TypeError, OverflowError) as exc:
            raise InvalidProbVector(f"row {i}: probs are not numbers: {exc}", row=i) from exc
        if p.ndim != 1 or p.size == 0 or not _all_numbers(r):
            raise InvalidProbVector(f"row {i}: probs are not a non-empty list of "
                                    "numbers", row=i)
    raise InvalidProbVector(f"inconsistent class counts {sorted({len(r) for r in rows})}")


def make_prediction_set(model_id: str, split: str, rows: dict) -> PredictionSet:
    """Build a PredictionSet from an id -> raw-probs mapping, validating the
    stacked rows once as a matrix.

    An InvalidProbVector's ``row`` indexes the offending id in ``rows``; it is
    None when the rows differ in length.
    """
    ids = tuple(rows)
    if not ids:
        return PredictionSet(model_id=model_id, split=split, ids=ids, probs=np.zeros((0, 0)))
    probs = validate_prob_matrix(_stack_rows([rows[s] for s in ids]))
    return PredictionSet(model_id=model_id, split=split, ids=ids, probs=probs)
