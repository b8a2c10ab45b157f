"""Time and measure the featurizer: the CLI stage, then its layers in process.

First it writes ``synth.imbalanced_corpus(--cli-n, pos_fraction=0.3)`` as
a dataset file in a temporary directory, runs ``vulforge split`` once and
``vulforge featurize`` three times as child processes, and prints
featurize's median wall time and its largest own peak RSS (``os.wait4``)
against the 3 s gate.  This comes first because a child's peak RSS counts
the memory of the process that started it.

Then, for each size n, it builds ``synth.imbalanced_corpus(n,
pos_fraction=0.3)`` and times, best of 3 at the default config (2^18
dims, n-gram orders 1 and 2):

- ``tokenize``: ``codefeat.tokenize`` on every sample;
- ``hash``: ``codefeat.featurize`` on every sample's tokens (n-gram
  hashing and counting, one sample at a time);
- ``dataset``: ``learners.featurize_dataset`` on the whole corpus.

``peak_mb`` is the ``tracemalloc`` peak of one more, traced run of the
layer.

The child processes import the same ``vulforge`` as this script, so
``PYTHONPATH=<checkout>/src`` measures that checkout.

Usage:
    PYTHONPATH=src python benchmarks/bench_featurize.py [--sizes 4000,16000]
        [--cli-n 16000] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import vulforge
from vulforge import codefeat, synth
from vulforge.learners import featurize_dataset

CLI_GATE_S = 3.0


def _measure(fn):
    """(best-of-3 wall seconds, tracemalloc peak MB) of ``fn()``."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak / 2**20


def _layers(n: int, seed: int) -> None:
    d = synth.imbalanced_corpus(n, seed=seed, pos_fraction=0.3)
    codes = [s.code for s in d.samples]
    tokens = [codefeat.tokenize(c) for c in codes]
    ntok = sum(map(len, tokens))
    for name, fn in (("tokenize", lambda: [codefeat.tokenize(c) for c in codes]),
                     ("hash", lambda: [codefeat.featurize(t) for t in tokens]),
                     ("dataset", lambda: featurize_dataset(d))):
        wall, peak = _measure(fn)
        print(f"{name:9} {n:6d} {ntok:8d} {wall:8.3f} {peak:8.1f}", flush=True)


def _run_child(argv, env, log: Path):
    """Wall seconds and own peak RSS (MB) of one vulforge CLI child."""
    t0 = time.perf_counter()
    with log.open("w") as fh:
        p = subprocess.Popen([sys.executable, "-m", "vulforge.cli", *argv],
                             env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode:
        sys.exit(f"{argv[0]} exited {p.returncode}:\n{log.read_text()}")
    return wall, usage.ru_maxrss / 1024


def _cli(n: int, seed: int) -> None:
    src = Path(vulforge.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "dataset.jsonl"
        d = synth.imbalanced_corpus(n, seed=seed, pos_fraction=0.3)
        data.write_text("".join(
            json.dumps({"id": s.id, "code": s.code, "label": s.label}) + "\n"
            for s in d.samples))
        common = ["--dataset", str(data), "--out", str(Path(tmp) / "out"),
                  "--seed", str(seed)]
        log = Path(tmp) / "child.log"
        _run_child(["split", *common], env, log)
        runs = [_run_child(["featurize", *common], env, log) for _ in range(3)]
    wall = statistics.median(w for w, _ in runs)
    peak = max(r for _, r in runs)
    verdict = "PASS" if wall <= CLI_GATE_S else "FAIL"
    print(f"CLI featurize, n = {n}: {wall:.2f} s median of 3, peak RSS "
          f"{peak:.1f} MB; gate {CLI_GATE_S:.0f} s: {verdict}\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="4000,16000")
    ap.add_argument("--cli-n", type=int, default=16000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(f"vulforge from {Path(vulforge.__file__).resolve().parent}")
    _cli(args.cli_n, args.seed)
    print(f"{'layer':9} {'n':>6} {'tokens':>8} {'best_s':>8} {'peak_mb':>8}")
    for n in map(int, args.sizes.split(",")):
        _layers(n, args.seed)


if __name__ == "__main__":
    main()
