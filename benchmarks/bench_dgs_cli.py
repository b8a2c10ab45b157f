"""Wall time and peak RSS of the CLI pipeline behind one gated-stacking run.

Writes ``synth.imbalanced_corpus(n, pos_fraction=0.3)`` as a dataset file in
a temporary directory, then runs ``vulforge split``, ``featurize``,
``train-base`` (models m1 and m2) and ``dgs --gate KIND --base m1,m2`` as
child processes, one at a time, with the default config (2^18 dims, 20
epochs).  After each stage it prints the stage's wall time and
``peak_mb``: the largest max-RSS of any child so far, from
``resource.getrusage(RUSAGE_CHILDREN)``.  So the ``dgs`` line is the peak
of the whole pipeline, and it is the dgs stage's own peak whenever it is
above the line before it.

Usage:
    PYTHONPATH=src python benchmarks/bench_dgs_cli.py [--n 16000]
        [--gate knn] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from vulforge import synth


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=16000)
    ap.add_argument("--gate", default="knn")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "dataset.jsonl"
        d = synth.imbalanced_corpus(args.n, seed=args.seed, pos_fraction=0.3)
        data.write_text("".join(
            json.dumps({"id": s.id, "code": s.code, "label": s.label}) + "\n"
            for s in d.samples))
        common = ["--dataset", str(data), "--out", str(Path(tmp) / "out"),
                  "--seed", str(args.seed)]
        stages = [("split", ["split"]), ("featurize", ["featurize"]),
                  ("train-base m1", ["train-base", "--model-id", "m1"]),
                  # the second base model trains from another seed
                  ("train-base m2", ["train-base", "--model-id", "m2", "--seed",
                                     str(args.seed + 1)]),
                  (f"dgs --gate {args.gate}",
                   ["dgs", "--gate", args.gate, "--base", "m1,m2"])]
        print(f"n = {args.n}\n{'stage':20} {'wall_s':>8} {'peak_mb':>8}")
        for name, argv in stages:
            t0 = time.perf_counter()
            # flags after common ones win, so m2's --seed replaces the default
            run = subprocess.run([sys.executable, "-m", "vulforge.cli", argv[0],
                                  *common, *argv[1:]],
                                 env=env, capture_output=True, text=True)
            if run.returncode:
                sys.exit(f"{name} exited {run.returncode}:\n{run.stderr}")
            wall = time.perf_counter() - t0
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            print(f"{name:20} {wall:8.2f} {peak_kb / 1024:8.1f}", flush=True)


if __name__ == "__main__":
    main()
