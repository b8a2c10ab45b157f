"""Run a workload's stages, check their outputs and turn timings into metrics.

An end-to-end pass runs each stage as its own untraced child process
(``python -m vulforge.cli ...``), timed from outside for wall time and
peak RSS, as a user runs the CLI.  A traced pass runs the same stages in
this process through ``cli.main`` with ``tracer.Tracer`` installed.

An operation is one stage plus its output check: the stage exits 0, every
prediction file it wrote re-ingests through ``learners.ingest_predictions``
against its split's ids, and every report JSON it wrote parses.  Each
pass after the first is one more operation: its ``manifest.json`` must
have the same sha256 as the first pass's.  A failed operation is counted
and the run goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import GROUP_METRICS, Plan, Stage
from vulforge import _kernels
from vulforge.errors import VulforgeError
from vulforge.ingest import load_splits
from vulforge.learners import ingest_predictions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class StageRun:
    stage: Stage
    wall_s: float
    rss_mb: float  # 0.0 for in-process stages
    problems: list[str]
    f1: list[float]


@dataclass
class Pass:
    stages: list[StageRun] = field(default_factory=list)
    manifest_sha: str = ""

    def group_s(self, group: str) -> float:
        return sum(s.wall_s for s in self.stages if s.stage.group == group)

    def has_group(self, group: str) -> bool:
        return any(s.stage.group == group for s in self.stages)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv, log_path: Path, env: dict) -> tuple[float, float, int]:
    """Run ``argv`` as a child; return (wall s, max RSS MB, exit code)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _tail(path: Path, lines: int = 3) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


def _run_in_process(stage: Stage, log_path: Path,
                    tracer: Tracer | None) -> tuple[float, int | None]:
    from vulforge import cli

    buf = io.StringIO()
    rc: int | None = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            if tracer is None:
                rc = cli.main(list(stage.argv))
            else:
                with tracer.installed(), tracer.stage(stage.name):
                    rc = cli.main(list(stage.argv))
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc(file=buf)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0
    log_path.write_text(buf.getvalue(), encoding="utf-8")
    return wall, rc


def check_outputs(plan: Plan, stage: Stage) -> tuple[list[str], list[float]]:
    """Re-ingest the stage's prediction files and parse its reports."""
    problems: list[str] = []
    f1: list[float] = []
    if stage.preds:
        try:
            splits = load_splits(plan.out / "splits.json")
        except (OSError, ValueError, KeyError) as exc:
            return [f"splits.json unreadable: {exc}"], f1
        for model_id, split in stage.preds:
            try:
                ingest_predictions(plan.out, model_id, split, splits.for_split(split))
            except (VulforgeError, OSError, ValueError, KeyError) as exc:
                problems.append(f"preds/{model_id}/{split}.jsonl: {exc}")
    for name in stage.reports:
        path = plan.out / f"report_{name}.json"
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            f1.append(float(report["w_f1"] if plan.class_count > 2 else report["f1"]))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{path.name}: {exc}")
    return problems, f1


def reset_outputs(plan: Plan) -> None:
    """Remove everything a previous pass wrote, keeping the inputs."""
    shutil.rmtree(plan.out, ignore_errors=True)
    for weights in plan.out.parent.glob("ext/boost/round_*/weights.jsonl"):
        weights.unlink()


def run_pass(plan: Plan, mode: str, tracer: Tracer | None = None) -> Pass:
    """One pass over the plan's stages; ``mode`` is "child" or "inproc"."""
    reset_outputs(plan)
    logs = plan.out.parent / "logs"
    logs.mkdir(exist_ok=True)
    env = child_env()
    result = Pass()
    for i, stage in enumerate(plan.stages):
        log_path = logs / f"{i:02d}-{stage.argv[0]}.log"
        if mode == "child":
            wall, rss, rc = run_child(
                [sys.executable, "-m", "vulforge.cli", *stage.argv], log_path, env)
        else:
            wall, rc = _run_in_process(stage, log_path, tracer)
            rss = 0.0
        problems, f1 = ([], []) if rc == 0 else ([f"exit code {rc}: {_tail(log_path)}"], [])
        if rc == 0:
            problems, f1 = check_outputs(plan, stage)
        result.stages.append(StageRun(stage, wall, rss, problems, f1))
    manifest = plan.out / "manifest.json"
    if manifest.exists():
        result.manifest_sha = hashlib.sha256(manifest.read_bytes()).hexdigest()
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

#: end-to-end metric -> (unit, better)
E2E_UNITS = {
    "pipeline_s": ("s", "lower"), "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"), "bag_s": ("s", "lower"),
    "boost_s": ("s", "lower"), "stack_s": ("s", "lower"),
    "dgs_s": ("s", "lower"), "report_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"), "fail_rate": ("ratio", "lower"),
    "f1_mean": ("ratio", "higher"),
}


@dataclass
class Tally:
    """Operations attempted and failed over a run, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add_pass(self, p: Pass, label: str) -> None:
        for s in p.stages:
            self.attempted += 1
            if s.problems:
                self.failed += 1
                self.problems += [f"{label} {s.stage.name}: {x}" for x in s.problems]

    def add_determinism(self, first: Pass, other: Pass, label: str) -> None:
        self.attempted += 1
        if not first.manifest_sha or first.manifest_sha != other.manifest_sha:
            self.failed += 1
            self.problems.append(
                f"{label}: manifest.json sha256 {other.manifest_sha[:12] or 'missing'}"
                f" != first pass {first.manifest_sha[:12] or 'missing'}")

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def end_to_end_metrics(passes: list[Pass], tally: Tally) -> dict[str, float]:
    """Medians over passes; a per-stage metric is absent where its group
    does not run."""
    out = {
        "pipeline_s": statistics.median(sum(s.wall_s for s in p.stages)
                                        for p in passes),
    }
    for group, metric in GROUP_METRICS.items():
        if passes[0].has_group(group):
            out[metric] = statistics.median(p.group_s(group) for p in passes)
    out["peak_rss_mb"] = statistics.median(max(s.rss_mb for s in p.stages)
                                           for p in passes)
    out["fail_rate"] = tally.fail_rate
    f1 = [x for s in passes[0].stages for x in s.f1]
    if f1:
        out["f1_mean"] = float(np.mean(f1))
    return out


def stage_table(passes: list[Pass]) -> list[dict]:
    """Per-stage medians, for the human-readable report."""
    rows = []
    for i, sr in enumerate(passes[0].stages):
        rows.append({"stage": sr.stage.name, "group": sr.stage.group,
                     "wall_s": statistics.median(p.stages[i].wall_s for p in passes),
                     "rss_mb": max(p.stages[i].rss_mb for p in passes)})
    return rows


#: per-layer metric -> (unit, better)
LAYER_UNITS = {
    "codefeat.tokenize.self_s": ("s", "lower"),
    "codefeat.featurize.self_s": ("s", "lower"),
    "codefeat.tokens": ("count", "lower"),
    "codefeat.ngrams": ("count", "lower"),
    "kernels.csr_softmax_fit.self_s": ("s", "lower"),
    "kernels.csr_softmax_fit.nnz_epochs": ("count", "lower"),
    "kernels.dense_softmax_fit.self_s": ("s", "lower"),
    "kernels.hinge_ovr_fit.self_s": ("s", "lower"),
    "kernels.split_scan.calls": ("count", "lower"),
    "kernels.sq_dists.self_s": ("s", "lower"),
    "learners.fit_builtin.self_s": ("s", "lower"),
    "learners.fit_builtin.calls": ("count", "lower"),
    "learners.predict_builtin_many.self_s": ("s", "lower"),
    "learners.ingest_predictions.self_s": ("s", "lower"),
    "learners.pred_rows_read": ("count", "lower"),
    "learners.write_predictions.self_s": ("s", "lower"),
    "learners.emit_round_weights.self_s": ("s", "lower"),
    "learners.pred_rows_written": ("count", "lower"),
    "core.validate_prob_vector.calls": ("count", "lower"),
    "core.make_prediction_set.self_s": ("s", "lower"),
    "core.validations_per_row": ("ratio", "lower"),
    "ingest.load_dataset.self_s": ("s", "lower"),
    "ingest.load_dataset.rows": ("count", "lower"),
    "ensembles.bagging_predict_set.self_s": ("s", "lower"),
    "ensembles.adaboost_predict_set.self_s": ("s", "lower"),
    "ensembles.dgs_predict_set.self_s": ("s", "lower"),
    "ensembles.stacking_fit.self_s": ("s", "lower"),
    "ensembles.combined_rows": ("count", "lower"),
    "ensembles.bag_parallel_eff": ("ratio", "higher"),
    "ensembles.dgs_fit.self_s": ("s", "lower"),
    "ensembles.dense_gate_bytes": ("bytes", "lower"),
    "metamodels.meta_fit.lr.self_s": ("s", "lower"),
    "metamodels.meta_fit.svm.self_s": ("s", "lower"),
    "metamodels.meta_fit.rf.self_s": ("s", "lower"),
    "metamodels.meta_fit.knn.self_s": ("s", "lower"),
    "metamodels.meta_predict_many.self_s": ("s", "lower"),
    "metamodels.meta_predict_many.calls": ("count", "lower"),
    "metrics.self_s": ("s", "lower"),
    "store.save_ensemble.self_s": ("s", "lower"),
    # whole-layer self times, each traced instant counted once
    **{f"{layer}.self_s": ("s", "lower")
       for layer in ("codefeat", "kernels", "learners", "core", "ingest",
                     "ensembles", "metamodels", "store")},
    "store.bytes_written": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def bag_parallel_eff(tracer: Tracer, plan: Plan) -> float:
    """Summed member fit time / (workers x bagging_fit wall), over the
    traced bagging stages that train members."""
    workers = {s.name: s.workers for s in plan.stages}
    bag_ids = {i for i, s in enumerate(tracer.spans) if s[0] == "ensembles.bagging_fit"}
    member_s = sum(s[2] - s[1] for s in tracer.spans
                   if s[0] == "learners.fit_builtin" and s[3] in bag_ids)
    capacity = sum((tracer.spans[i][2] - tracer.spans[i][1])
                   * workers[tracer.stage_names[tracer.spans[i][4]]]
                   for i in bag_ids)
    return member_s / capacity if capacity else 0.0


def layer_metrics(tracer: Tracer, plan: Plan, import_s: float,
                  overhead_s: float) -> dict[str, float]:
    st = tracer.self_times(within_layer=True)
    layers = tracer.layer_self_times()
    c = tracer.counts
    out: dict[str, float] = {}
    for name in LAYER_UNITS:
        if name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            out[name] = layers.get(span, 0.0) if "." not in span else st.get(span, 0.0)
        else:
            out[name] = float(c.get(name, 0))
    # "ingest_predictions" covers the boosting round files too
    out["learners.ingest_predictions.self_s"] += st.get(
        "learners.ingest_round_predictions", 0.0)
    rows = c.get("learners.pred_rows_read", 0)
    out["core.validations_per_row"] = (
        c.get("core.validate_prob_vector.calls", 0) / rows if rows else 0.0)
    out["ensembles.bag_parallel_eff"] = bag_parallel_eff(tracer, plan)
    out["cli.unattributed_s"] = layers.get("cli", 0.0)
    out["cli.import_s"] = import_s
    out["trace.overhead_s"] = overhead_s
    return out


def import_seconds(env: dict, log_path: Path, repeats: int = 5) -> float:
    """Median wall time of a bare `import vulforge.cli` child."""
    walls = []
    for _ in range(repeats):
        wall, _, rc = run_child([sys.executable, "-c", "import vulforge.cli"],
                                log_path, env)
        if rc != 0:
            raise RuntimeError(f"import vulforge.cli failed: {_tail(log_path)}")
        walls.append(wall)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit(root: Path = ROOT) -> str:
    """HEAD commit read from .git without running git; "unknown" outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(plan: Plan) -> dict:
    return {
        "workload": plan.workload,
        "seed": plan.seed,
        "sizes": plan.sizes,
        "kernel_path": "numba" if _kernels.USE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


@contextlib.contextmanager
def logs_to(log_path: Path):
    """Send vulforge's INFO logs to a file during in-process passes, as a
    child sends them to its stderr; with a handler on the root logger,
    ``cli.main``'s basicConfig leaves it alone."""
    handler = logging.FileHandler(log_path, encoding="utf-8")
    root = logging.getLogger()
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
        handler.close()
