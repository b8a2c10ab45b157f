"""Workload definitions: seeded input generation and the CLI stages to run.

Each workload writes its inputs (a dataset jsonl and, for the external
workloads, prediction files) into a work directory, then describes the
`vulforge` stages to run over them.  The program only ever sees those
files.  Paths are fixed per work directory, so repeated passes with the
same seed must give byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vulforge import synth
from vulforge.ingest import Dataset, stratified_split

#: stage group -> the end-to-end metric that sums its stages' wall times
GROUP_METRICS = {"setup": "setup_s", "train": "train_s", "bag": "bag_s",
                 "boost": "boost_s", "stack": "stack_s", "dgs": "dgs_s",
                 "report": "report_s"}

#: Workload sizes.  "full" is what the benchmark measures; "tiny" keeps the
#: benchmark's own tests fast.  See README.md for why each size was chosen.
SIZES = {
    "builtin-binary": {"full": {"n": 1500}, "tiny": {"n": 200}},
    "external-multiclass": {"full": {"cwes": 8, "pairs": 800},
                            "tiny": {"cwes": 3, "pairs": 40}},
    "dense-gate": {"full": {"n": 160}, "tiny": {"n": 120}},
}

#: two rounds always train two learners: AdaBoost stops early once a round's
#: error reaches 1/2, and with five rounds the rounds trained ranged from
#: two to five over seeds 1-10, which made boost time depend on the seed
BUILTIN_ROUNDS = 2
EXTERNAL_MODELS = 5
EXTERNAL_ROUNDS = 5
SENTINEL_EXPERTS = 5


@dataclass(frozen=True)
class Stage:
    """One CLI invocation plus the outputs its check re-reads."""

    name: str
    group: str
    argv: tuple[str, ...]
    #: (model_id, split) prediction files the stage writes under --out
    preds: tuple[tuple[str, str], ...] = ()
    #: report_<name>.json files the stage writes under --out
    reports: tuple[str, ...] = ()

    @property
    def workers(self) -> int:
        """The stage's ``--workers`` value (1 when not given)."""
        if "--workers" not in self.argv:
            return 1
        return int(self.argv[self.argv.index("--workers") + 1])


@dataclass
class Plan:
    """Generated inputs and the stage list of one workload."""

    workload: str
    seed: int
    sizes: dict
    class_count: int
    out: Path
    stages: list[Stage] = field(default_factory=list)


def write_dataset(path: Path, d: Dataset) -> None:
    lines = [json.dumps({"id": s.id, "code": s.code, "label": s.label,
                         "cwe": s.cwe, "pair_id": s.pair_id})
             for s in d.samples]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pred_file(path: Path, ids, probs: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"id": s, "probs": row})
             for s, row in zip(ids, probs.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def noisy_probs(rng: np.random.Generator, labels: np.ndarray, k: int,
                accuracy: float) -> np.ndarray:
    """Probability rows whose argmax is the true label with probability
    ``accuracy`` and a uniformly drawn wrong label otherwise."""
    n = len(labels)
    right = rng.random(n) < accuracy
    shift = rng.integers(1, k, size=n)
    picked = np.where(right, labels, (labels + shift) % k)
    logits = rng.normal(0.0, 1.0, size=(n, k))
    logits[np.arange(n), picked] = logits.max(axis=1) + rng.uniform(0.5, 2.5, n)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _common(plan: Plan, dataset: Path, schema: str,
            seed: int | None = None) -> tuple[str, ...]:
    return ("--dataset", str(dataset), "--out", str(plan.out),
            "--seed", str(plan.seed if seed is None else seed), "--schema", schema)


def plan_builtin_binary(work: Path, seed: int, size: str) -> Plan:
    sizes = SIZES["builtin-binary"][size]
    d = synth.imbalanced_corpus(sizes["n"], seed=seed, pos_fraction=0.3)
    dataset = work / "dataset.jsonl"
    write_dataset(dataset, d)
    plan = Plan("builtin-binary", seed, sizes, 2, work / "out")
    c = _common(plan, dataset, "binary")
    splits = ("train", "val", "test")
    plan.stages = [
        Stage("split", "setup", ("split", *c)),
        Stage("featurize", "setup", ("featurize", *c)),
        Stage("train-base m1", "train", ("train-base", *c, "--model-id", "m1"),
              preds=tuple(("m1", s) for s in splits)),
        Stage("train-base m2", "train",
              ("train-base", *_common(plan, dataset, "binary", seed + 1),
               "--model-id", "m2"),
              preds=tuple(("m2", s) for s in splits)),
        Stage("bag soft", "bag", ("bag", *c, "--mode", "soft", "--members", "4",
                                  "--workers", "2"),
              preds=(("bagging_soft", "test"),), reports=("bagging_soft",)),
        Stage("boost", "boost", ("boost", *c, "--rounds", str(BUILTIN_ROUNDS)),
              preds=(("boosting", "test"),), reports=("boosting",)),
        *(Stage(f"stack {m}", "stack", ("stack", *c, "--meta", m, "--base", "m1,m2"),
                preds=((f"stacking_{m}", "test"),), reports=(f"stacking_{m}",))
          for m in ("lr", "svm", "rf", "knn")),
        Stage("dgs lr", "dgs", ("dgs", *c, "--gate", "lr", "--base", "m1,m2"),
              preds=(("dgs_hard", "test"),), reports=("dgs_hard",)),
        Stage("eval m1", "report", ("eval", *c, "--preds", "m1"), reports=("m1",)),
        Stage("eval m2", "report", ("eval", *c, "--preds", "m2"), reports=("m2",)),
        Stage("overlap", "report", ("overlap", *c, "--preds", "m1,m2")),
        Stage("divergence", "report", ("divergence", *c, "--preds", "m1,m2")),
        Stage("verify", "report", ("verify", "--out", str(plan.out))),
    ]
    return plan


def plan_external_multiclass(work: Path, seed: int, size: str) -> Plan:
    sizes = SIZES["external-multiclass"][size]
    cwes = {f"CWE-{100 + 7 * i}": sizes["pairs"] for i in range(sizes["cwes"])}
    d = synth.paired_cwe_corpus(cwes, seed=seed)
    dataset = work / "dataset.jsonl"
    write_dataset(dataset, d)
    ext = work / "ext"
    split = stratified_split(d, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE47]))
    k = d.class_count
    models = [f"ext_{m}" for m in range(1, EXTERNAL_MODELS + 1)]
    for m, mid in enumerate(models):
        for s in ("train", "val", "test"):
            ids = split.for_split(s)
            write_pred_file(ext / "preds" / mid / f"{s}.jsonl", ids,
                            noisy_probs(rng, d.labels_for(ids), k, 0.55 + 0.05 * m))
    for t in range(1, EXTERNAL_ROUNDS + 1):
        for s in ("train", "test"):
            ids = split.for_split(s)
            write_pred_file(ext / "boost" / f"round_{t}" / f"preds_{s}.jsonl", ids,
                            noisy_probs(rng, d.labels_for(ids), k, 0.5 + 0.04 * t))
    plan = Plan("external-multiclass", seed, dict(sizes, K=k), k, work / "out")
    c = (*_common(plan, dataset, "multiclass"), "--external", str(ext))
    base = ",".join(models)
    plan.stages = [
        Stage("split", "setup", ("split", *c)),
        Stage("bag hard", "bag", ("bag", *c, "--mode", "hard", "--base", base),
              preds=(("bagging_hard", "test"),), reports=("bagging_hard",)),
        Stage("bag soft", "bag", ("bag", *c, "--mode", "soft", "--base", base),
              preds=(("bagging_soft", "test"),), reports=("bagging_soft",)),
        Stage("boost", "boost", ("boost", *c, "--rounds", str(EXTERNAL_ROUNDS)),
              preds=(("boosting", "test"),), reports=("boosting",)),
        *(Stage(f"stack {m}", "stack", ("stack", *c, "--meta", m, "--base", base),
                preds=((f"stacking_{m}", "test"),), reports=(f"stacking_{m}",))
          for m in ("lr", "svm", "knn")),
        Stage("eval ext_1", "report", ("eval", *c, "--preds", models[0]),
              reports=(models[0],)),
        Stage("overlap", "report", ("overlap", *c, "--preds", ",".join(models[:3]))),
        Stage("divergence", "report", ("divergence", *c, "--preds", base)),
        Stage("cwe-subsets", "report", ("cwe-subsets", *c, "--top", "4")),
        Stage("verify", "report", ("verify", "--out", str(plan.out))),
    ]
    return plan


def plan_dense_gate(work: Path, seed: int, size: str) -> Plan:
    sizes = SIZES["dense-gate"][size]
    d, owner = synth.sentinel_corpus(sizes["n"], experts=SENTINEL_EXPERTS, seed=seed)
    dataset = work / "dataset.jsonl"
    write_dataset(dataset, d)
    ext = work / "ext"
    split = stratified_split(d, seed)
    for s in ("train", "val", "test"):
        for p in synth.sentinel_predsets(d, owner, split.for_split(s), s,
                                         experts=SENTINEL_EXPERTS, seed=seed):
            write_pred_file(ext / "preds" / p.model_id / f"{s}.jsonl", p.ids, p.probs)
    plan = Plan("dense-gate", seed, dict(sizes, val_rows=len(split.val)), 2,
                work / "out")
    c = _common(plan, dataset, "binary")
    ce = (*c, "--external", str(ext))
    base = ",".join(f"expert_{j}" for j in range(SENTINEL_EXPERTS))
    plan.stages = [
        Stage("split", "setup", ("split", *c)),
        Stage("featurize", "setup", ("featurize", *c)),
        *(Stage(f"dgs {g}", "dgs", ("dgs", *ce, "--gate", g, "--base", base),
                preds=(("dgs_hard", "test"),), reports=("dgs_hard",))
          for g in ("lr", "svm", "rf")),
        *(Stage(f"stack {m}", "stack", ("stack", *ce, "--meta", m, "--base", base),
                preds=((f"stacking_{m}", "test"),), reports=(f"stacking_{m}",))
          for m in ("rf", "knn", "svm")),
        Stage("eval expert_0", "report", ("eval", *ce, "--preds", "expert_0"),
              reports=("expert_0",)),
        Stage("overlap", "report", ("overlap", *ce, "--preds", base)),
        Stage("divergence", "report", ("divergence", *ce, "--preds", base)),
        Stage("verify", "report", ("verify", "--out", str(plan.out))),
    ]
    return plan


PLANNERS = {
    "builtin-binary": plan_builtin_binary,
    "external-multiclass": plan_external_multiclass,
    "dense-gate": plan_dense_gate,
}


def make_plan(workload: str, work: Path, seed: int, size: str = "full") -> Plan:
    """Generate the workload's inputs under ``work`` and return its stages."""
    work.mkdir(parents=True, exist_ok=True)
    return PLANNERS[workload](work, seed, size)
