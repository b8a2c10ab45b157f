"""Time rf and knn ``meta_predict_many`` at stacking scale.

Fits each meta-learner with its default config on 1,600 rows of stacked
base-model probabilities (5 bases, so D = 5K) and times one
``meta_predict_many`` call over 1,600 query rows, best of 3, at (D, K) =
(10, 2) and (45, 9).  Runs in well under a minute.

Usage:
    PYTHONPATH=src python benchmarks/bench_meta.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from vulforge.metamodels import meta_fit, meta_predict_many

ROWS = 1600
BASES = 5


def _stacked(rng, n: int, k: int):
    """Labels and the concatenated probability rows of BASES noisy bases."""
    y = rng.integers(0, k, size=n)
    blocks = []
    for _ in range(BASES):
        logits = rng.normal(size=(n, k))
        logits[np.arange(n), y] += 1.5
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        blocks.append(e / e.sum(axis=1, keepdims=True))
    return np.hstack(blocks), y


def _best_of_3(m, X) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        meta_predict_many(m, X)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    print(f"{'kind':<6} {'D':>4} {'K':>3} {'rows':>6} {'predict s':>10}")
    for k in (2, 9):
        rng = np.random.default_rng(11)
        X, y = _stacked(rng, ROWS, k)
        Q, _ = _stacked(rng, ROWS, k)
        for kind in ("rf", "knn"):
            m = meta_fit(kind, X, y, seed=3, output_width=k)
            print(f"{kind:<6} {X.shape[1]:>4} {k:>3} {ROWS:>6} "
                  f"{_best_of_3(m, Q):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
