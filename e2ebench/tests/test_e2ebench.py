"""The benchmark's own tests: every workload runs at a tiny size, every
metric is reported with its unit, failures are counted rather than fatal,
and the tracer's self-time arithmetic holds.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Stage  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: end-to-end metrics that every workload reports
ALWAYS = {"pipeline_s", "setup_s", "stack_s", "report_s", "peak_rss_mb",
          "fail_rate", "f1_mean"}
#: per-stage metrics of the stage groups each workload runs
GROUP_METRICS = {
    "builtin-binary": {"train_s", "bag_s", "boost_s", "dgs_s"},
    "external-multiclass": {"bag_s", "boost_s"},
    "dense-gate": {"dgs_s"},
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Tiny untraced and traced records of every workload, run once."""
    saved = run.WORK
    run.WORK = tmp_path_factory.mktemp("work")
    try:
        return {(w, t): run.run_workload(w, 1, 0, t, size="tiny")
                for w in run.WORKLOADS for t in (0, 1)}
    finally:
        run.WORK = saved


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_is_correct_with_every_metric(records, workload):
    rec = records[(workload, 0)]
    assert rec["correct"], rec["problems"]
    assert rec["failed"] == 0 and rec["passes"] >= 2
    # one operation per stage per pass, plus one determinism check per extra pass
    stages = len(rec["stages"])
    assert rec["attempted"] == rec["passes"] * stages + rec["passes"] - 1
    assert set(rec["metrics"]) == ALWAYS | GROUP_METRICS[workload]
    for name, value in rec["metrics"].items():
        assert rec["units"][name][0], name
        if name != "fail_rate":
            assert value > 0, name
    assert rec["env"]["kernel_path"] in ("numba", "numpy")
    assert rec["env"]["seed"] == 1 and rec["env"]["sizes"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(records, workload):
    rec = records[(workload, 1)]
    assert rec["correct"], rec["problems"]
    assert set(rec["metrics"]) == set(harness.LAYER_UNITS)
    assert rec["metrics"]["cli.import_s"] > 0
    assert rec["metrics"]["cli.unattributed_s"] > 0
    assert rec["metrics"]["core.validate_prob_vector.calls"] > 0
    assert rec["traced_s"] > 0 and rec["untraced_s"] > 0


def test_traced_layers_land_on_their_workloads(records):
    builtin = records[("builtin-binary", 1)]["metrics"]
    assert builtin["kernels.csr_softmax_fit.nnz_epochs"] > 0
    assert builtin["codefeat.ngrams"] > builtin["codefeat.tokens"] > 0
    # bag --workers 2: member fits hang under bagging_fit from both threads
    assert 0 < builtin["ensembles.bag_parallel_eff"] <= 1.0
    external = records[("external-multiclass", 1)]["metrics"]
    assert external["learners.emit_round_weights.self_s"] > 0
    assert external["core.validations_per_row"] == pytest.approx(2.0)
    assert external["codefeat.tokens"] == 0
    dense = records[("dense-gate", 1)]["metrics"]
    assert dense["ensembles.dense_gate_bytes"] > 0
    assert dense["kernels.split_scan.calls"] > 0
    assert dense["metamodels.meta_fit.svm.self_s"] > 0


def test_result_line_carries_benchmark_metrics(records):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line([records[("builtin-binary", trace)]], trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        for m in SPEC[key]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(line["metrics"][m["name"]]["value"], float)


def test_failing_stage_is_counted_not_fatal():
    def inject(plan):
        by_name = {s.name: s for s in plan.stages}
        argv = (*by_name["eval m1"].argv[:-1], "no_such_model")
        plan.stages.insert(3, Stage("eval missing", "report", argv))
        # a stage whose check expects a prediction file it never writes
        plan.stages.insert(-1, Stage("stack claims", "stack", by_name["stack lr"].argv,
                                     preds=(("never_written", "test"),)))

    rec = run.run_workload("builtin-binary", 1, 0, 0, size="tiny", plan_hook=inject)
    assert not rec["correct"]
    assert rec["failed"] == 2 * rec["passes"]
    assert rec["metrics"]["fail_rate"] == pytest.approx(rec["failed"] / rec["attempted"])
    assert any("eval missing: exit code" in p for p in rec["problems"])
    assert any("never_written" in p for p in rec["problems"])
    # the stages after the failures still ran and were checked
    assert rec["stages"][-1]["stage"] == "verify"


def test_determinism_mismatch_is_a_failed_operation():
    tally = harness.Tally()
    tally.add_determinism(harness.Pass(manifest_sha="a"), harness.Pass(manifest_sha="b"), "p2")
    tally.add_determinism(harness.Pass(manifest_sha="a"), harness.Pass(manifest_sha="a"), "p3")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_self_time_subtracts_the_union_of_children():
    t = Tracer()
    t.spans = [
        ["stage", 0.0, 10.0, -1, 0],
        ["ensembles.bagging_fit", 1.0, 9.0, 0, 0],
        ["learners.fit_builtin", 2.0, 6.0, 1, 0],   # two overlapping worker spans
        ["learners.fit_builtin", 4.0, 8.0, 1, 0],
        ["learners.unit_rows", 2.0, 3.0, 2, 0],     # same layer as its parent
        ["kernels.csr_softmax_fit", 3.0, 5.0, 2, 0],
    ]
    st = t.self_times()
    assert st["stage"] == pytest.approx(2.0)
    assert st["ensembles.bagging_fit"] == pytest.approx(2.0)  # 8 - union(2..8)
    assert st["learners.fit_builtin"] == pytest.approx(1.0 + 4.0)
    within = t.self_times(within_layer=True)
    assert within["learners.fit_builtin"] == pytest.approx(2.0 + 4.0)
    assert t.layer_self_times()["learners"] == pytest.approx(6.0)


def test_compare_refuses_different_kernel_paths():
    def rec(path):
        return {"env": {"workload": "w", "kernel_path": path}, "trace": 0,
                "metrics": {"pipeline_s": 1.0}, "units": {"pipeline_s": ["s", "lower"]}}

    assert compare.compare([rec("numpy")], [rec("numpy")])
    with pytest.raises(ValueError):
        compare.compare([rec("numpy")], [rec("numba")])


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "builtin-binary",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
