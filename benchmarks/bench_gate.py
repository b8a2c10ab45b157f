"""Time and measure every DGS gate: fit, then score.

For each gate kind and corpus size, builds ``synth.imbalanced_corpus(n,
pos_fraction=0.3)`` with its stratified 8:1:1 split, hashes the validation
and test rows at the default 2^18 dims, and gives each of 5 seeded experts
a random probability row per sample.  It then runs ``dgs_fit`` on the
validation rows and ``gate_scores_many`` on the test rows, and prints:

- ``fit_s`` and ``score_s``: wall time of the two calls, untraced;
- ``peak_mb``: the ``tracemalloc`` peak over both calls, from a second,
  traced run.

Every gate kind runs at every size and scores every test row.

After the cost table it prints each gate kind's ``routing`` accuracy on
``synth.sentinel_corpus(n, experts=5, seed)`` at the same sizes: the
share of test rows whose top gate score is the expert that owns the row.
Expert j is right exactly on the rows that carry its sentinel token
(``synth.sentinel_predsets``; the test rows' jitter is drawn with seed
+ 100), and the gate routes hard at the ``MetaConfig`` defaults.

Usage:
    PYTHONPATH=src python benchmarks/bench_gate.py [--sizes 4000,16000]
        [--kinds lr,svm,rf,knn] [--seed S]
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from vulforge import synth
from vulforge.codefeat import featurize_many
from vulforge.core import PredictionSet
from vulforge.ensembles import DgsConfig, dgs_fit, gate_scores_many
from vulforge.ingest import stratified_split
from vulforge.learners import FeatureMatrix

EXPERTS = 5


def _features(d, split) -> FeatureMatrix:
    """The validation and test rows hashed at the default 2^18 dims."""
    ids = split.val + split.test
    code = {s.id: s.code for s in d.samples}
    return FeatureMatrix(ids, *featurize_many([code[i] for i in ids]), 1 << 18)


def _workload(n: int, seed: int):
    d = synth.imbalanced_corpus(n, seed=seed, pos_fraction=0.3)
    split = stratified_split(d, seed)
    ids = split.val + split.test
    features = _features(d, split)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(d.class_count), size=(EXPERTS, len(ids)))
    bases = [PredictionSet(f"e{j}", "val", ids, probs[j]) for j in range(EXPERTS)]
    return d, split, features, bases


def _run(kind, d, split, features, bases):
    val, test = split.val, split.test
    t0 = time.perf_counter()
    g = dgs_fit(bases, val, d.labels_for(val), features, DgsConfig("hard", kind))
    t1 = time.perf_counter()
    stack = np.stack([p.reindexed(test) for p in bases])
    gate_scores_many(g, *features.rows_for(test), stack)
    return t1 - t0, time.perf_counter() - t1


def _routing(kinds: list[str], n: int, seed: int) -> dict[str, float]:
    """Per gate kind, the share of the sentinel corpus's test rows routed
    to their owner."""
    d, owner = synth.sentinel_corpus(n, experts=EXPERTS, seed=seed)
    split = stratified_split(d, seed)
    features = _features(d, split)
    val = synth.sentinel_predsets(d, owner, split.val, "val", EXPERTS, seed)
    test = synth.sentinel_predsets(d, owner, split.test, "test", EXPERTS, seed + 100)
    stack = np.stack([p.probs for p in test])
    owners = np.array([owner[i] for i in split.test])
    routed = {}
    for kind in kinds:
        g = dgs_fit(val, split.val, d.labels_for(split.val), features,
                    DgsConfig("hard", kind))
        scores = gate_scores_many(g, *features.rows_for(split.test), stack)
        routed[kind] = float((scores.argmax(axis=1) == owners).mean())
    return routed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="4000,16000")
    ap.add_argument("--kinds", default="lr,svm,rf,knn")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(f"{'kind':4} {'n':>6} {'val':>5} {'scored':>6} {'active':>6} "
          f"{'fit_s':>8} {'score_s':>8} {'peak_mb':>8}")
    for n in map(int, args.sizes.split(",")):
        d, split, features, bases = _workload(n, args.seed)
        active = len(np.unique(features.rows_for(split.val)[1])) + EXPERTS * d.class_count
        for kind in args.kinds.split(","):
            fit_s, score_s = _run(kind, d, split, features, bases)
            tracemalloc.start()
            try:
                _run(kind, d, split, features, bases)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{kind:4} {n:6d} {len(split.val):5d} {len(split.test):6d} {active:6d} "
                  f"{fit_s:8.3f} {score_s:8.3f} {peak / 2**20:8.1f}", flush=True)
    print(f"\n{'kind':4} {'n':>6} {'routing':>8}")
    for n in map(int, args.sizes.split(",")):
        for kind, routed in _routing(args.kinds.split(","), n, args.seed).items():
            print(f"{kind:4} {n:6d} {routed:8.3f}", flush=True)


if __name__ == "__main__":
    main()
