"""Start-up cost of each CLI stage: the wall time of each subcommand's child
process, next to the interpreter's own floors, and the vulforge modules
each stage loads.

Generates the inputs of e2ebench workloads (``e2ebench/workloads.py``,
full size) in a temporary directory.  Each round then runs, one child
process at a time, the floors

    python -c pass
    python -c "import numpy"                          (the inherited setting)
    python -c "import numpy", OPENBLAS_NUM_THREADS=1
    python -c "import vulforge.cli"                   (per source tree)

and every stage of each workload's plan in order as
``python -m vulforge.cli ...``, for each source tree in turn, so that the
trees and the floors are interleaved.  It prints the median wall time of
each row over ``--runs`` rounds, then each stage's vulforge modules (and
whether numpy loaded), read from one more ``-X importtime`` run.

Children get ``PYTHONDONTWRITEBYTECODE=1``, so nothing is written inside the
repository and, when no ``__pycache__`` exists, each child compiles the
modules it imports, as e2ebench's stages do with that setting.  With
``--src`` given twice (say a checkout of the parent commit and ``src``),
the two columns compare the trees on the same inputs.

Usage:
    python3 benchmarks/bench_startup.py [--runs 11] [--seed 1]
        [--workload dense-gate --workload builtin-binary] [--src DIR ...]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # this process imports e2ebench and vulforge

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "e2ebench"), str(REPO / "src")]

from workloads import make_plan  # noqa: E402


def child_env(src: Path | None, **extra: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **extra)
    if src is not None:
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
    return env


def wall(argv, env) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        sys.exit(f"{' '.join(argv[:5])} ... exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return elapsed


def loaded_modules(argv, env) -> list[str]:
    """vulforge modules, and numpy if loaded, that ``argv`` imports."""
    proc = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return sorted(n for n in names if n == "numpy" or n.startswith("vulforge."))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=("dense-gate", "builtin-binary", "external-multiclass"),
                    help="repeatable; default dense-gate and builtin-binary")
    ap.add_argument("--src", action="append", type=Path,
                    help="source tree holding vulforge/; repeatable; default src")
    args = ap.parse_args()
    workloads = args.workload or ["dense-gate", "builtin-binary"]
    srcs = [s.resolve() for s in args.src or [REPO / "src"]]
    py = sys.executable
    floors = [("python -c pass", [py, "-c", "pass"], child_env(None)),
              ("import numpy", [py, "-c", "import numpy"], child_env(None)),
              ("import numpy, 1 BLAS thread", [py, "-c", "import numpy"],
               child_env(None, OPENBLAS_NUM_THREADS="1"))]
    times: dict[tuple[str, int], list[float]] = {}
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as tmp:
        # rows: (label, column, argv, env); each tree runs its own copy of
        # each plan, generated from the same seed
        rows = [(label, 0, argv, env) for label, argv, env in floors]
        rows += [("import vulforge.cli", j, [py, "-c", "import vulforge.cli"],
                  child_env(src)) for j, src in enumerate(srcs)]
        for w in workloads:
            for j, src in enumerate(srcs):
                plan = make_plan(w, Path(tmp) / f"{w}-{j}", args.seed)
                rows += [(f"{w}: {stage.name}", j,
                          [py, "-m", "vulforge.cli", *stage.argv], child_env(src))
                         for stage in plan.stages]
        for _ in range(args.runs):
            for label, j, argv, env in rows:
                times.setdefault((label, j), []).append(wall(argv, env))
        print(f"seed {args.seed}, median wall s over {args.runs} rounds")
        for j, src in enumerate(srcs):
            print(f"  [{j}] {src}")
        labels = list(dict.fromkeys(label for label, *_ in rows))
        width = max(map(len, labels))
        print(f"{'':{width}}" + "".join(f"{f'[{j}]':>9}" for j in range(len(srcs))))
        for label in labels:
            cells = [times.get((label, j)) for j in range(len(srcs))]
            print(f"{label:{width}}" + "".join(
                f"{statistics.median(c):9.3f}" if c else f"{'':9}" for c in cells))
        print("modules loaded per stage")
        for label, j, argv, env in rows[len(floors):]:
            mods = loaded_modules(argv, env)
            short = [m.removeprefix("vulforge.") for m in mods]
            print(f"  [{j}] {label}: {' '.join(short)}")


if __name__ == "__main__":
    main()
