"""Check that the working tree's ``src/`` writes the same e2ebench outputs,
byte for byte, as a git revision's.

Extracts the revision (``--parent``, default ``HEAD``) with ``git archive``
into one temporary checkout.  For each seed it runs

    python3 e2ebench/run.py --workload W --seed S --seconds 1 --trace 0

there and keeps each workload's ``out/`` tree, then swaps the working
tree's ``src/`` into the checkout and runs the same command again, from the
same path (artifacts embed the paths they were given, so the two runs must
share one).  Both runs use the revision's ``e2ebench/``.  It prints, per
workload and seed, the files whose bytes differ or that only one run
wrote, and the failed operations of each run.  A differing ``.json`` file
that parses on both sides as an object is followed by the top-level keys
whose values differ (``report_m1.json: schema_version``), so a declared
artifact change shows which fields moved.  It exits 0 only when every
tree is identical and no operation failed.  Nothing is written inside the
repository: the checkout and the kept trees live in a temporary directory
that is removed at the end.

Usage:
    python3 benchmarks/same_outputs.py [--parent REV] [--workload all]
        [--seed 1 --seed 2]
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("builtin-binary", "external-multiclass", "dense-gate")


def extract(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` to ``dest`` through ``git archive``."""
    blob = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(checkout: Path, workload: str, seed: int) -> int:
    """Run e2ebench in ``checkout``; return its count of failed operations."""
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        sys.exit(f"e2ebench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["failed"]


def differing(a: Path, b: Path) -> list[str]:
    """Files under ``a`` or ``b`` whose bytes differ or that one lacks."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*")
             if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and filecmp.cmp(a / f, b / f, shallow=False)))


def differing_keys(a: Path, b: Path) -> str:
    """``": key, ..."``, the top-level keys whose values differ between the
    JSON objects in ``a`` and ``b``; empty unless both are such objects."""
    if a.suffix != ".json" or not (a.is_file() and b.is_file()):
        return ""
    try:
        x, y = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    except ValueError:
        return ""
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return ""
    absent = object()
    keys = sorted(k for k in x.keys() | y.keys() if x.get(k, absent) != y.get(k, absent))
    return ": " + ", ".join(keys)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, action="append",
                    help="repeatable; default seeds 1 and 2")
    args = ap.parse_args()
    seeds = args.seed or [1, 2]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        checkout = tmp / "checkout"
        extract(args.parent, checkout)
        for label in ("parent", "change"):
            if label == "change":
                shutil.rmtree(checkout / "src")
                shutil.copytree(REPO / "src", checkout / "src",
                                ignore=shutil.ignore_patterns("__pycache__"))
            for seed in seeds:
                failed = run_bench(checkout, args.workload, seed)
                print(f"{label} seed {seed}: {failed} failed operations", flush=True)
                ok &= failed == 0
                for w in workloads:
                    shutil.copytree(checkout / "e2ebench" / "work" / w / "out",
                                    tmp / label / str(seed) / w)
        for seed in seeds:
            for w in workloads:
                a, b = tmp / "parent" / str(seed) / w, tmp / "change" / str(seed) / w
                diff = differing(a, b)
                count = sum(1 for p in a.rglob("*") if p.is_file())
                print(f"{w} seed {seed}: {count} files, "
                      + ("identical" if not diff else f"{len(diff)} differ"))
                for rel in diff:
                    print(f"  {rel}{differing_keys(a / rel, b / rel)}")
                ok &= not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
