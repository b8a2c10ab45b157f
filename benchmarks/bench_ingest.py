"""Time prediction-file and dataset ingest per row.

Writes a seeded prediction file of 10k rows with K = 9 classes to a
temporary directory, one ``{"id": ..., "probs": [...]}`` object per line
with softmax-normalized rows (the layout external models and the
end-to-end benchmark write), and a ``paired_cwe_corpus`` dataset of
8 CWEs x 800 pairs (12,800 samples, the size of e2ebench's
external-multiclass workload).  Then prints the best of three timings, in
microseconds per row, for:

- ``ingest_predictions``: parse, id checks and validation of the file;
  then the same read through ``ingest.Snapshots``, as a first read (parse
  and store the snapshot) and as a snapshot hit (rebuild the raw matrix
  from the snapshot, then validate it);
- ``make_prediction_set``: validation of the same rows from an id -> list
  mapping, without the file;
- ``load_dataset``: the parse of the dataset file, a first read through
  ``Snapshots`` and a snapshot hit.

Last, for ``paired_cwe_corpus`` datasets of 12,800 and 128,000 samples,
a snapshot hit as a label-only command reads
it (ids and labels; the code stays in the snapshot) and as a full read
(the same, then ``.samples``): best-of-three milliseconds, and the
megabytes the result holds and the read's peak, both under
``tracemalloc``.

Usage:
    PYTHONPATH=src python benchmarks/bench_ingest.py [--rows N] [--pairs P] [--seed S]
"""

from __future__ import annotations

import argparse
import itertools
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from vulforge import synth
from vulforge.core import make_prediction_set
from vulforge.ingest import Snapshots, load_dataset
from vulforge.learners import ingest_predictions

K = 9
CWES = 8
REPEATS = 3
#: pairs per CWE of the label-only and full reads: 12,800 and 128,000 samples
LABEL_ONLY_PAIRS = (800, 8000)


def _rows(n: int, seed: int) -> dict[str, list[float]]:
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 1.0, size=(n, K))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return {f"s{i:06d}": row for i, row in enumerate(probs.tolist())}


def _best_us_per_row(fn, n: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
        assert len(result.ids) == n
    return best / n * 1e6


def _snapshot_timings(read, root: Path, n: int) -> tuple[float, float]:
    """Per-row times of ``read(snapshots)`` as a first read, each repeat into
    an empty snapshot directory, and as a snapshot hit."""
    fresh = (Snapshots(root / f"first_{i}") for i in itertools.count())
    first = _best_us_per_row(lambda: read(next(fresh)), n)
    warm = Snapshots(root / "warm")
    read(warm)
    return first, _best_us_per_row(lambda: read(warm), n)


def _write_corpus(path: Path, d) -> None:
    path.write_text("".join(json.dumps({"id": s.id, "code": s.code, "label": s.label,
                                        "cwe": s.cwe, "pair_id": s.pair_id}) + "\n"
                            for s in d.samples), encoding="utf-8")


def _ms_held_and_peak_mb(fn) -> tuple[float, float, float]:
    """Best-of-REPEATS milliseconds of ``fn()``, then the megabytes its
    result holds and the call's peak megabytes, traced on one more call."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 - held while the memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return best * 1e3, held / 1e6, peak / 1e6


def _label_only_and_full(pairs: int, seed: int) -> tuple[int, tuple, tuple]:
    """(samples, label-only (ms, MB held, MB peak), full (the same)) for a
    snapshot hit of a ``paired_cwe_corpus`` with ``pairs`` pairs per CWE."""
    d = synth.paired_cwe_corpus({f"CWE-{100 + 7 * i}": pairs for i in range(CWES)},
                                seed=seed)
    n = len(d)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        _write_corpus(data, d)
        del d
        snaps = Snapshots(Path(tmp) / "snapshots")
        load_dataset(data, "multiclass", snapshots=snaps)
        label_only = _ms_held_and_peak_mb(
            lambda: load_dataset(data, "multiclass", snapshots=snaps))
        full = _ms_held_and_peak_mb(lambda: (lambda x: (x, x.samples))(
            load_dataset(data, "multiclass", snapshots=snaps)))
    return n, label_only, full


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=10_000)
    ap.add_argument("--pairs", type=int, default=800, help="pairs per CWE in the dataset")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rows = _rows(args.rows, args.seed)
    ids = list(rows)
    d = synth.paired_cwe_corpus({f"CWE-{100 + 7 * i}": args.pairs for i in range(CWES)},
                                seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "preds" / "ext" / "val.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text("\n".join(json.dumps({"id": s, "probs": rows[s]})
                                  for s in ids) + "\n", encoding="utf-8")
        ingest = _best_us_per_row(
            lambda: ingest_predictions(tmp, "ext", "val", ids), args.rows)
        pred_first, pred_hit = _snapshot_timings(
            lambda snaps: ingest_predictions(tmp, "ext", "val", ids, snapshots=snaps),
            tmp / "pred_snapshots", args.rows)
        data = tmp / "data.jsonl"
        _write_corpus(data, d)
        parse = _best_us_per_row(lambda: load_dataset(data, "multiclass"), len(d))
        data_first, data_hit = _snapshot_timings(
            lambda snaps: load_dataset(data, "multiclass", snapshots=snaps),
            tmp / "data_snapshots", len(d))
    make = _best_us_per_row(
        lambda: make_prediction_set("ext", "val", rows), args.rows)
    print(f"rows={args.rows} K={K} seed={args.seed} best of {REPEATS}")
    print(f"ingest_predictions              {ingest:7.2f} us/row")
    print(f"  first read through snapshots  {pred_first:7.2f} us/row")
    print(f"  snapshot hit                  {pred_hit:7.2f} us/row")
    print(f"make_prediction_set             {make:7.2f} us/row")
    print(f"load_dataset, paired_cwe_corpus {len(d)} samples")
    print(f"  parse                         {parse:7.2f} us/row")
    print(f"  first read through snapshots  {data_first:7.2f} us/row")
    print(f"  snapshot hit                  {data_hit:7.2f} us/row")
    print("snapshot hit, label-only against full (ms, MB held / MB peak)")
    for pairs in LABEL_ONLY_PAIRS:
        n, (lo_ms, lo_mb, lo_peak), (full_ms, full_mb, full_peak) = \
            _label_only_and_full(pairs, args.seed)
        print(f"  {n:7d} samples  label-only {lo_ms:7.1f} ms {lo_mb:6.1f} / {lo_peak:6.1f} MB"
              f"   full {full_ms:7.1f} ms {full_mb:6.1f} / {full_peak:6.1f} MB")


if __name__ == "__main__":
    main()
