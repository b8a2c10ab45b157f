"""Time rf and knn ``meta_predict_many`` at stacking and gate scale.

Fits each meta-learner with its default config on 1,600 rows and times one
``meta_predict_many`` call over 1,600 query rows, best of 3.  The stacking
cases are rows of stacked base-model probabilities (5 bases, so D = 5K) at
(D, K) = (10, 2) and (45, 9).  The gate case is like a dense DGS gate
input: D = 206 Poisson counts whose rates depend on the routing label, over
K = 5 experts.  ``peak MB`` is the ``tracemalloc`` peak of one more,
untimed, call.  Runs in well under a minute.

Usage:
    PYTHONPATH=src python benchmarks/bench_meta.py
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from vulforge.metamodels import meta_fit, meta_predict_many

ROWS = 1600
BASES = 5
GATE_D, GATE_K = 206, 5


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


def _gate_like(rng, n: int, rates):
    """Labels and Poisson count rows drawn at ``rates[label]``."""
    y = rng.integers(0, GATE_K, size=n)
    return rng.poisson(rates[y]).astype(np.float64), y


def _best_of_3(m, X) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        meta_predict_many(m, X)
        times.append(time.perf_counter() - t0)
    return min(times)


def _peak_mb(m, X) -> float:
    tracemalloc.start()
    try:
        meta_predict_many(m, X)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    print(f"{'kind':<6} {'D':>4} {'K':>3} {'rows':>6} {'predict s':>10} "
          f"{'peak MB':>8}")
    cases = []
    for k in (2, 9):
        rng = np.random.default_rng(11)
        cases.append((*_stacked(rng, ROWS, k), _stacked(rng, ROWS, k)[0], k))
    rng = np.random.default_rng(11)
    rates = rng.gamma(0.5, 2.0, size=(GATE_K, GATE_D))  # one row per label
    cases.append((*_gate_like(rng, ROWS, rates), _gate_like(rng, ROWS, rates)[0],
                  GATE_K))
    for X, y, Q, k in cases:
        for kind in ("rf", "knn"):
            m = meta_fit(kind, X, y, seed=3, output_width=k)
            print(f"{kind:<6} {X.shape[1]:>4} {k:>3} {ROWS:>6} "
                  f"{_best_of_3(m, Q):>10.4f} {_peak_mb(m, Q):>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
