#!/usr/bin/env python3
"""End-to-end benchmark of the vulforge CLI over three workloads.

    python3 e2ebench/run.py --workload builtin-binary --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` repeats untraced passes, each stage its own child process,
until ``--seconds`` are used up (at least three passes, which must give the
same manifest digest) and reports medians of the end-to-end metrics.
``--trace 1`` runs a warm-up, an untraced and a traced in-process pass and
reports the per-layer metrics.  Human-readable tables come first; the last line of
standard output is one JSON object with the metrics BENCHMARK.json names.
A full record, with the environment, goes to e2ebench/results/.
See e2ebench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOADS = ("builtin-binary", "external-multiclass", "dense-gate")
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", plan_hook=None) -> dict:
    """Generate inputs, run the passes, check them; return the full record.

    ``plan_hook`` may edit the plan before any pass runs (tests use it to
    inject a failing stage).
    """
    import harness
    from workloads import make_plan

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    plan = make_plan(workload, work, seed, size)
    if plan_hook is not None:
        plan_hook(plan)
    tally = harness.Tally()
    record = {"env": harness.environment(plan)}
    if trace == 0:
        passes = []
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            p = harness.run_pass(plan, "child")
            passes.append(p)
            label = f"pass {len(passes)}"
            tally.add_pass(p, label)
            if len(passes) > 1:
                tally.add_determinism(passes[0], p, label)
            now = time.perf_counter()
            if (len(passes) >= MIN_PASSES
                    and (now - t_start) + (now - t_pass) > seconds):
                break
        record["passes"] = len(passes)
        record["pass_walls"] = [[s.wall_s for s in p.stages] for p in passes]
        record["stages"] = harness.stage_table(passes)
        record["metrics"] = harness.end_to_end_metrics(passes, tally)
        record["units"] = harness.E2E_UNITS
    else:
        from tracer import Tracer

        import_s = harness.import_seconds(harness.child_env(), work / "import.log")
        with harness.logs_to(work / "inproc.log"):
            # the warm-up pass pays first-touch costs (imports, heap growth)
            # that would otherwise be charged to whichever pass runs first
            warmup = harness.run_pass(plan, "inproc")
            untraced = harness.run_pass(plan, "inproc")
            tracer = Tracer()
            traced = harness.run_pass(plan, "inproc", tracer)
        for label, p in (("warm-up", warmup), ("untraced", untraced),
                         ("traced", traced)):
            tally.add_pass(p, label)
            if p is not warmup:
                tally.add_determinism(warmup, p, label)
        untraced_s = sum(s.wall_s for s in untraced.stages)
        traced_s = sum(s.wall_s for s in traced.stages)
        tracer.write(work / "spans.jsonl")
        record["untraced_s"] = untraced_s
        record["traced_s"] = traced_s
        record["layer_self_s"] = tracer.layer_self_times()
        record["metrics"] = harness.layer_metrics(tracer, plan, import_s,
                                                  traced_s - untraced_s)
        record["units"] = harness.LAYER_UNITS
    record.update(correct=tally.failed == 0, attempted=tally.attempted,
                  failed=tally.failed, problems=tally.problems)
    return record


def print_record(record: dict, trace: int) -> None:
    env = record["env"]
    print(f"== {env['workload']}  seed={env['seed']}  sizes={env['sizes']}  "
          f"kernels={env['kernel_path']}  python={env['python']}  "
          f"numpy={env['numpy']}  nproc={env['nproc']}  "
          f"commit={env['git_commit'][:12]}")
    if trace == 0:
        print(f"passes: {record['passes']} (medians below)")
        for row in record["stages"]:
            print(f"  stage {row['stage']:<16} {row['group']:<7} "
                  f"{row['wall_s']:8.3f} s  {row['rss_mb']:8.1f} MB")
    else:
        print(f"untraced in-process pass: {record['untraced_s']:.3f} s, "
              f"traced: {record['traced_s']:.3f} s, "
              f"trace overhead: {record['traced_s'] - record['untraced_s']:.3f} s")
        for layer, v in sorted(record["layer_self_s"].items()):
            print(f"  layer {layer:<12} self {v:8.3f} s")
    for name, value in record["metrics"].items():
        unit, better = record["units"][name]
        print(f"  {name:<40} {value:14.6g} {unit:<6} ({better} is better)")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def result_line(records: list[dict], trace: int) -> dict:
    """The final JSON object: the metrics BENCHMARK.json names for this
    trace mode, prefixed by workload when several ran."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["env"]["workload"] + "/"
        for name in names:
            metrics[prefix + name] = {"value": rec["metrics"][name],
                                      "unit": rec["units"][name][0]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vulforge" / "cli.py").is_file():
        print(f"error: no vulforge sources under {SRC}", file=sys.stderr)
        return 2
    if not BENCHMARK_JSON.is_file():
        print(f"error: {BENCHMARK_JSON} missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    RESULTS.mkdir(exist_ok=True)
    for w in workloads:
        rec = run_workload(w, args.seed, args.seconds, args.trace)
        print_record(rec, args.trace)
        (RESULTS / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1) + "\n", encoding="utf-8")
        records.append(rec)
    print(json.dumps(result_line(records, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
