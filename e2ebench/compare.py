#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

    python3 e2ebench/compare.py BASE NEW

BASE and NEW are record files written by run.py (e2ebench/results/*.json)
or directories of them.  For each workload and trace mode present on both
sides, prints each metric's median over the records, the ratio NEW/BASE,
and the record counts.  Records taken on different kernel paths (numba vs
numpy) measure different programs, so the comparison is refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        rec["trace"] = 1 if "traced_s" in rec else 0
        records.append(rec)
    return records


def group(records: list[dict]) -> dict[tuple[str, int], list[dict]]:
    out: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        out.setdefault((rec["env"]["workload"], rec["trace"]), []).append(rec)
    return out


def compare(base: list[dict], new: list[dict]) -> list[str]:
    """Table lines; raises ValueError when kernel paths differ."""
    paths = {r["env"]["kernel_path"] for r in base + new}
    if len(paths) > 1:
        raise ValueError(f"records use different kernel paths {sorted(paths)}; "
                         "they measure different programs")
    lines = []
    b_groups, n_groups = group(base), group(new)
    for key in sorted(set(b_groups) & set(n_groups)):
        b, n = b_groups[key], n_groups[key]
        lines.append(f"== {key[0]} trace={key[1]}  base n={len(b)}  new n={len(n)}")
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name] for r in b if name in r["metrics"]]
            nv = [r["metrics"][name] for r in n if name in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            ratio = f"{nm / bm:8.3f}" if bm else "     n/a"
            unit = b[0]["units"][name][0]
            lines.append(f"  {name:<40} {bm:12.6g} {nm:12.6g} {ratio} {unit}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        lines = compare(load(Path(argv[0])), load(Path(argv[1])))
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
