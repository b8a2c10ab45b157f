"""Time the CSR softmax trainer's scaling with the number of rows.

Runs ``csr_softmax_fit`` on a synthetic CSR fixture at n and 4n rows (best
of 3 each) and prints the time ratio, which stays near 4 while the trainer
is linear in the row count.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from vulforge import _kernels


def _fixture(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    d, k = 4096, 4
    nnz_per_row = 40
    indptr = np.arange(0, (n + 1) * nnz_per_row, nnz_per_row, dtype=np.int64)
    indices = rng.integers(0, d, size=n * nnz_per_row).astype(np.int64)
    data = rng.uniform(0.5, 2.0, size=n * nnz_per_row)
    y = rng.integers(0, k, size=n)
    targets = np.zeros((n, k))
    targets[np.arange(n), y] = 1.0
    order = np.vstack([rng.permutation(n) for _ in range(3)]).astype(np.int64)
    return dict(indptr=indptr, indices=indices, data=data, targets=targets,
                coefs=np.ones(n), order=order, d=d, k=k)


def _time_csr_fit(f) -> float:
    W = np.zeros((f["k"], f["d"]))
    b = np.zeros(f["k"])
    t0 = time.perf_counter()
    _kernels.csr_softmax_fit(f["indptr"], f["indices"], f["data"], f["targets"],
                             f["coefs"], W, b, f["order"], 32, 0.3,
                             1.0 - 0.3 * 1e-6)
    return time.perf_counter() - t0


def main(n: int = 2000) -> int:
    small, large = _fixture(n), _fixture(4 * n)
    t_small = min(_time_csr_fit(small) for _ in range(3))
    t_large = min(_time_csr_fit(large) for _ in range(3))
    print(f"{'csr_softmax_fit':<20} {'n':>8} {'seconds':>10}")
    print(f"{'':<20} {n:>8} {t_small:>10.4f}")
    print(f"{'':<20} {4 * n:>8} {t_large:>10.4f}")
    print(f"time ratio 4n / n: {t_large / t_small:.2f} (4.0 = linear in n)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
