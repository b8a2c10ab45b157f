"""Time prediction-file ingest per row.

Writes a seeded prediction file of 10k rows with K = 9 classes to a
temporary directory, one ``{"id": ..., "probs": [...]}`` object per line
with softmax-normalized rows (the layout external models and the
end-to-end benchmark write), then prints the best of three timings, in
microseconds per row, for:

- ``ingest_predictions``: parse, id checks and validation of the file;
- ``make_prediction_set``: validation of the same rows from an id -> list
  mapping, without the file.

Usage:
    PYTHONPATH=src python benchmarks/bench_ingest.py [--rows N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from vulforge.core import make_prediction_set
from vulforge.learners import ingest_predictions

K = 9
REPEATS = 3


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rows = _rows(args.rows, args.seed)
    ids = list(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preds" / "ext" / "val.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text("\n".join(json.dumps({"id": s, "probs": rows[s]})
                                  for s in ids) + "\n", encoding="utf-8")
        ingest = _best_us_per_row(
            lambda: ingest_predictions(tmp, "ext", "val", ids), args.rows)
    make = _best_us_per_row(
        lambda: make_prediction_set("ext", "val", rows), args.rows)
    print(f"rows={args.rows} K={K} seed={args.seed} best of {REPEATS}")
    print(f"ingest_predictions   {ingest:7.2f} us/row")
    print(f"make_prediction_set  {make:7.2f} us/row")


if __name__ == "__main__":
    main()
