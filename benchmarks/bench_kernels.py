"""Benchmark the numba fast path against the pure-numpy fallback.

Runs each hot kernel on a representative fixture under both paths, checks
they agree to within floating-point tolerance, and reports wall times.
Without numba there is only one path; the script then times the numpy
``csr_softmax_fit`` on the fixture at n and 4n rows and prints the time
ratio, which stays near 4 while the trainer is linear in the row count.

Usage:
    python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np


def _load_kernels(no_numba: bool):
    os.environ["VULFORGE_NO_NUMBA"] = "1" if no_numba else "0"
    import vulforge._kernels as k

    return importlib.reload(k)


def _fixtures(seed: int = 7, n: int = 2000):
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
    X = rng.normal(size=(400, 64))
    S = np.where(rng.random((400, k)) < 0.25, 1.0, -1.0)
    Q = rng.normal(size=(200, 64))
    vals = np.sort(rng.normal(size=5000))
    ys = rng.integers(0, k, size=5000)
    return dict(indptr=indptr, indices=indices, data=data, targets=targets,
                coefs=np.ones(n), order=order, X=X, S=S, Q=Q, vals=vals, ys=ys,
                n=n, d=d, k=k)


def _time_csr_fit(kmod, f) -> float:
    W = np.zeros((f["k"], f["d"]))
    b = np.zeros(f["k"])
    t0 = time.perf_counter()
    kmod.csr_softmax_fit(f["indptr"], f["indices"], f["data"], f["targets"],
                         f["coefs"], W, b, f["order"], 32, 0.3,
                         1.0 - 0.3 * 1e-6)
    return time.perf_counter() - t0


def _scaling(kmod, n: int = 2000) -> None:
    """Time the numpy CSR trainer at n and 4n rows (best of 3 each)."""
    small, large = _fixtures(n=n), _fixtures(n=4 * n)
    t_small = min(_time_csr_fit(kmod, small) for _ in range(3))
    t_large = min(_time_csr_fit(kmod, large) for _ in range(3))
    print(f"\n{'csr_softmax_fit':<20} {'n':>8} {'seconds':>10}")
    print(f"{'':<20} {n:>8} {t_small:>10.4f}")
    print(f"{'':<20} {4 * n:>8} {t_large:>10.4f}")
    print(f"time ratio 4n / n: {t_large / t_small:.2f} (4.0 = linear in n)")


def _run(kmod, f):
    results = {}
    times = {}

    def timeit(name, fn):
        t0 = time.perf_counter()
        out = fn()
        times[name] = time.perf_counter() - t0
        results[name] = out

    W = np.zeros((f["k"], f["d"]))
    b = np.zeros(f["k"])
    timeit("csr_softmax_fit", lambda: kmod.csr_softmax_fit(
        f["indptr"], f["indices"], f["data"], f["targets"], f["coefs"],
        W, b, f["order"], 32, 0.3, 1.0 - 0.3 * 1e-6))
    results["csr_softmax_fit"] = (W.copy(), b.copy())

    Wd = np.zeros((f["k"], f["X"].shape[1]))
    bd = np.zeros(f["k"])
    ident = np.tile(np.arange(f["X"].shape[0], dtype=np.int64), (5, 1))
    timeit("dense_softmax_fit", lambda: kmod.dense_softmax_fit(
        f["X"], np.eye(f["k"])[np.arange(f["X"].shape[0]) % f["k"]],
        np.ones(f["X"].shape[0]), Wd, bd, ident, f["X"].shape[0], 0.2, 1.0))
    results["dense_softmax_fit"] = (Wd.copy(), bd.copy())

    Ws = np.zeros((f["k"], f["X"].shape[1]))
    bs = np.zeros(f["k"])
    timeit("hinge_ovr_fit", lambda: kmod.hinge_ovr_fit(
        f["X"], f["S"], Ws, bs, 50, 0.1, 1e-4))
    results["hinge_ovr_fit"] = (Ws.copy(), bs.copy())

    timeit("sq_dists", lambda: kmod.sq_dists(f["Q"], f["X"]))
    timeit("split_scan", lambda: kmod.split_scan(f["vals"], f["ys"], f["k"]))
    return results, times


def main() -> int:
    f = _fixtures()
    print("warming up / running numba path ...")
    nb = _load_kernels(no_numba=False)
    if not nb.USE_NUMBA:
        print("numba unavailable; timing the numpy CSR trainer's scaling")
        _scaling(nb)
        return 0
    _run(nb, f)  # warm-up: trigger jit compilation
    nb_res, nb_times = _run(nb, f)
    print("running numpy fallback ...")
    np_mod = _load_kernels(no_numba=True)
    assert not np_mod.USE_NUMBA
    np_res, np_times = _run(np_mod, f)

    print(f"\n{'kernel':<20} {'numba (s)':>12} {'numpy (s)':>12} {'speedup':>9}  agree")
    ok = True
    for name in nb_times:
        a, b = nb_res[name], np_res[name]
        if isinstance(a, tuple) and isinstance(a[0], np.ndarray):
            agree = all(np.allclose(x, y, atol=1e-8) for x, y in zip(a, b))
        elif isinstance(a, np.ndarray):
            agree = np.allclose(a, b, atol=1e-8)
        else:
            agree = np.allclose(np.asarray(a, dtype=float),
                                np.asarray(b, dtype=float), atol=1e-8)
        ok &= agree
        speed = np_times[name] / nb_times[name] if nb_times[name] else float("inf")
        print(f"{name:<20} {nb_times[name]:>12.4f} {np_times[name]:>12.4f} "
              f"{speed:>8.1f}x  {'yes' if agree else 'NO'}")
    if not ok:
        print("\nFAIL: paths disagree")
        return 1
    print("\nall kernels agree across paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
