"""Confusion-based metrics, weighted multi-class metrics, average-rank
tables, divergent-sample analysis, and correct-set overlap regions.

0/0 convention: precision, recall, or F1 is 0 whenever its denominator is
0; every report header states this.  Human output rounds to percent with
2 decimals, machine output keeps full precision.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import PredictionSet
from .errors import CoverageMismatch, LengthMismatch, TooManySets
from .ingest import _atomic_write

ZERO_CONVENTION = "precision/recall/F1 are 0 when their denominator is 0"


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray  # (K, K): rows true class, columns predicted
    class_count: int
    class_weights: tuple[int, ...] | None = None  # set for weighted metrics

    # a weighted report holds its support-weighted averages in precision,
    # recall and f1; the w_ names read them back (None when unweighted)
    w_precision = property(lambda r: None if r.class_weights is None else r.precision)
    w_recall = property(lambda r: None if r.class_weights is None else r.recall)
    w_f1 = property(lambda r: None if r.class_weights is None else r.f1)

    @property
    def tp(self) -> int:
        return int(self.confusion[1, 1])

    @property
    def tn(self) -> int:
        return int(self.confusion[0, 0])

    @property
    def fp(self) -> int:
        return int(self.confusion[0, 1])

    @property
    def fn(self) -> int:
        return int(self.confusion[1, 0])

    def to_dict(self) -> dict:
        d = {
            "convention": ZERO_CONVENTION,
            "class_count": self.class_count,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": self.confusion.astype(int).tolist(),
        }
        if self.class_weights is not None:
            d.update(w_precision=self.w_precision, w_recall=self.w_recall,
                     w_f1=self.w_f1, class_weights=list(self.class_weights))
        return d

    def human(self) -> str:
        cells = [f"Accuracy {100 * self.accuracy:.2f}"]
        if self.class_weights is not None:
            cells += [f"W-Precision {100 * self.w_precision:.2f}",
                      f"W-Recall {100 * self.w_recall:.2f}",
                      f"W-F1 {100 * self.w_f1:.2f}"]
        else:
            cells += [f"Precision {100 * self.precision:.2f}",
                      f"Recall {100 * self.recall:.2f}",
                      f"F1 {100 * self.f1:.2f}"]
        return "  ".join(cells)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    return _safe_div(2.0 * precision * recall, precision + recall)


def _confusion(preds, truth, k) -> np.ndarray:
    """(K, K) counts, rows true class; labels must lie in [0, k)."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if len(preds) != len(truth) or len(preds) == 0:
        raise LengthMismatch(f"{len(preds)} predictions vs {len(truth)} labels")
    if min(preds.min(), truth.min()) < 0 or max(preds.max(), truth.max()) >= k:
        raise LengthMismatch(f"labels outside [0, {k})")
    return np.bincount(truth * k + preds, minlength=k * k).reshape(k, k)


def binary_metrics(preds, truth) -> MetricsReport:
    """Binary confusion metrics; positive class is 1 (vulnerable)."""
    c = _confusion(preds, truth, 2)
    tp, tn, fp, fn = c[1, 1], c[0, 0], c[0, 1], c[1, 0]
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return MetricsReport(
        accuracy=(tp + tn) / c.sum(),
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        confusion=c,
        class_count=2,
    )


def weighted_metrics(preds, truth, k: int) -> MetricsReport:
    """Per-class one-vs-rest metrics averaged with class-support weights."""
    c = _confusion(preds, truth, k)
    support = c.sum(axis=1).astype(np.float64)  # w_i = class frequency in truth
    per_p = np.array([_safe_div(c[i, i], c[:, i].sum()) for i in range(k)])
    per_r = np.array([_safe_div(c[i, i], c[i, :].sum()) for i in range(k)])
    per_f = np.array([f1_score(per_p[i], per_r[i]) for i in range(k)])
    total = support.sum()
    accuracy = float(np.trace(c) / c.sum())
    return MetricsReport(
        accuracy=accuracy,
        precision=float((support * per_p).sum() / total),
        recall=float((support * per_r).sum() / total),
        f1=float((support * per_f).sum() / total),
        confusion=c,
        class_count=k,
        class_weights=tuple(int(s) for s in support),
    )


# ---------------------------------------------------------------------------
# average-rank tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankTable:
    methods: tuple[str, ...]
    instances: tuple[str, ...]
    metrics: tuple[str, ...]
    ranks: np.ndarray  # (method, instance, metric)
    averages: np.ndarray  # (method, metric)
    tie_rule: str

    def to_dict(self) -> dict:
        return {
            "tie_rule": self.tie_rule,
            "methods": list(self.methods),
            "instances": list(self.instances),
            "metrics": list(self.metrics),
            "averages": {m: {met: float(self.averages[i, j])
                             for j, met in enumerate(self.metrics)}
                         for i, m in enumerate(self.methods)},
        }


def _rank_column(values: np.ndarray, tie_rule: str) -> np.ndarray:
    """Ranks with 1 = best (highest value)."""
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        if tie_rule == "average":
            r = (i + 1 + j + 1) / 2.0
        elif tie_rule == "competition":
            r = float(i + 1)
        else:
            raise ValueError(f"unknown tie rule {tie_rule!r}")
        for t in range(i, j + 1):
            ranks[order[t]] = r
        i = j + 1
    return ranks


def average_rank(scores: np.ndarray, methods, instances, metrics,
                 tie_rule: str = "average") -> RankTable:
    """Rank methods per instance-metric (higher score = rank 1), average
    across instances."""
    scores = np.asarray(scores, dtype=np.float64)
    n_methods, n_instances, n_metrics = scores.shape
    ranks = np.empty_like(scores)
    for i in range(n_instances):
        for j in range(n_metrics):
            ranks[:, i, j] = _rank_column(scores[:, i, j], tie_rule)
    return RankTable(tuple(methods), tuple(instances), tuple(metrics),
                     ranks, ranks.mean(axis=1), tie_rule)


# ---------------------------------------------------------------------------
# divergence and overlap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    divergent_ids: frozenset
    total: int
    correct_proportion: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"divergent_count": len(self.divergent_ids), "total": self.total,
                "correct_proportion": dict(sorted(self.correct_proportion.items()))}


def divergence(preds: list[PredictionSet], truth: dict[str, int]) -> DivergenceReport:
    """Samples whose argmax labels differ across prediction sets, plus each
    set's correct proportion on that divergent subset."""
    if len(preds) < 2:
        raise CoverageMismatch("divergence needs at least two prediction sets")
    ids = list(truth)
    labels = np.stack([p.reindexed(ids).argmax(axis=1) for p in preds])  # (M, N)
    div_mask = (labels != labels[0]).any(axis=0)
    divergent = frozenset(np.array(ids)[div_mask].tolist())
    y = np.array([truth[s] for s in ids])
    props = {}
    for m, p in enumerate(preds):
        if div_mask.any():
            props[p.model_id] = float((labels[m][div_mask] == y[div_mask]).mean())
        else:
            props[p.model_id] = 0.0
    return DivergenceReport(divergent, len(ids), props)


def overlap_regions(correct_sets: list) -> dict[int, int]:
    """Counts per membership bitmask over up to 6 id sets.

    Bit j of the mask is set when the element belongs to set j.  All
    non-empty masks are reported (count 0 allowed); the counts partition
    the union.
    """
    k = len(correct_sets)
    if not 1 <= k <= 6:
        raise TooManySets(f"need 1..6 sets, got {k}")
    sets = [set(s) for s in correct_sets]
    universe = set().union(*sets)
    out = {mask: 0 for mask in range(1, 1 << k)}
    for el in universe:
        mask = 0
        for j, s in enumerate(sets):
            if el in s:
                mask |= 1 << j
        out[mask] += 1
    return out


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------

def _write_csv(path, header: list, rows, write=_atomic_write) -> None:
    """Write a header and rows as one CSV through ``write(path, blob)``, by
    default the atomic writer, which creates the parent directory."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    write(Path(path), buf.getvalue().encode("utf-8"))


def write_report_csv(path, rows: list[dict], write=_atomic_write) -> None:
    keys = sorted({k for r in rows for k in r})
    _write_csv(path, keys, ([r.get(k, "") for k in keys] for r in rows), write)


def write_ranks_csv(path, table: RankTable, write=_atomic_write) -> None:
    _write_csv(path, ["method", *table.metrics],
               ([m, *[f"{v:.6f}" for v in table.averages[i]]]
                for i, m in enumerate(table.methods)), write)


def write_overlap_csv(path, regions: dict[int, int], set_count: int,
                      write=_atomic_write) -> None:
    _write_csv(path, ["bitmask", "count"],
               ([format(mask, f"0{set_count}b"), regions[mask]]
                for mask in sorted(regions)), write)


def write_divergence_csv(path, report: DivergenceReport, write=_atomic_write) -> None:
    _write_csv(path, ["model_id", "correct_proportion", "divergent_count", "total"],
               ([mid, f"{prop:.6f}", len(report.divergent_ids), report.total]
                for mid, prop in sorted(report.correct_proportion.items())), write)


def write_boost_weights_csv(path, t: int, ids, weights, labels,
                            write=_atomic_write) -> None:
    """Per-round sample-weight dump backing the weight-evolution plots."""
    _write_csv(path, ["id", "weight", "label"],
               ([sid, f"{wt:.12g}", int(lb)] for sid, wt, lb in zip(ids, weights, labels)),
               write)
