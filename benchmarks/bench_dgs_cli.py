"""Wall time and peak RSS of each CLI stage of a gated-stacking pipeline,
with bagging and boosting runs on the same inputs.

Writes a synthetic dataset file in a temporary directory, then runs
``vulforge split``, ``featurize``, ``train-base`` (models m1 and m2),
``bag --mode soft --members 5``, ``boost --rounds 10`` and
``dgs --gate KIND --base m1,m2`` as child processes, one at a time, with
the default config (2^18 dims, 20 epochs).  After each stage it prints
the stage's wall time and ``peak_mb``, that child's own max RSS from
``os.wait4``.

A child's max RSS starts from its parent's high-water mark at fork and
keeps it across ``exec``, so this script loads no numpy: the dataset is
written by a child process too, and every stage is forked from a parent
of about 10 MB.

``--corpus imbalanced`` (default) is ``synth.imbalanced_corpus(n,
pos_fraction=0.3)``, K = 2; ``--corpus paired-cwe`` is
``synth.paired_cwe_corpus`` over 8 CWEs of n/16 pairs each, K = 9, run
under ``--schema multiclass``.

Usage:
    PYTHONPATH=src python benchmarks/bench_dgs_cli.py [--n 16000]
        [--corpus imbalanced|paired-cwe] [--gate knn] [--seed S]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# argv: corpus kind, n, seed, output path
_WRITE_DATASET = """
import json, sys
from vulforge import synth
kind, n, seed, path = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
if kind == "imbalanced":
    d = synth.imbalanced_corpus(n, seed=seed, pos_fraction=0.3)
else:
    d = synth.paired_cwe_corpus({f"CWE-{100 + c}": n // 16 for c in range(8)}, seed=seed)
with open(path, "w", encoding="utf-8") as fh:
    fh.writelines(json.dumps({"id": s.id, "code": s.code, "label": s.label,
                              "cwe": s.cwe, "pair_id": s.pair_id}) + "\\n"
                  for s in d.samples)
"""


def run_child(argv, env: dict, log: Path) -> tuple[float, float]:
    """Run ``argv``; return its wall seconds and its own max RSS in MB.
    A child that fails ends the script with its log."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{argv} exited {proc.returncode}:\n"
                 f"{log.read_text(encoding='utf-8', errors='replace')[-2000:]}")
    return wall, usage.ru_maxrss / 1024


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=16000)
    ap.add_argument("--corpus", choices=("imbalanced", "paired-cwe"), default="imbalanced")
    ap.add_argument("--gate", default="knn")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        data, log = Path(tmp) / "dataset.jsonl", Path(tmp) / "child.log"
        run_child([sys.executable, "-c", _WRITE_DATASET, args.corpus, str(args.n),
                   str(args.seed), str(data)], env, log)
        schema = "binary" if args.corpus == "imbalanced" else "multiclass"
        common = ["--dataset", str(data), "--out", str(Path(tmp) / "out"),
                  "--seed", str(args.seed), "--schema", schema]
        stages = [("split", ["split"]), ("featurize", ["featurize"]),
                  ("train-base m1", ["train-base", "--model-id", "m1"]),
                  # the second base model trains from another seed
                  ("train-base m2", ["train-base", "--model-id", "m2", "--seed",
                                     str(args.seed + 1)]),
                  ("bag --members 5", ["bag", "--mode", "soft", "--members", "5"]),
                  ("boost --rounds 10", ["boost", "--rounds", "10"]),
                  (f"dgs --gate {args.gate}",
                   ["dgs", "--gate", args.gate, "--base", "m1,m2"])]
        print(f"n = {args.n}, corpus {args.corpus}\n"
              f"{'stage':20} {'wall_s':>8} {'peak_mb':>8}")
        for name, argv in stages:
            # flags after common ones win, so m2's --seed replaces the default
            wall, peak = run_child([sys.executable, "-m", "vulforge.cli", argv[0],
                                    *common, *argv[1:]], env, log)
            print(f"{name:20} {wall:8.2f} {peak:8.1f}", flush=True)


if __name__ == "__main__":
    main()
