"""Corpus loading, stratified 8:1:1 splits, bootstrap plans, CWE subsets.

File formats:
  dataset.jsonl  one record per line:
      {"id": str, "code": str, "label": int, "cwe": str|null, "pair_id": str|null}
  splits.json    {"seed": int, "train": [ids], "val": [ids], "test": [ids]}
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ClassTooSmall,
    DuplicateId,
    MalformedRecord,
    UnknownCwe,
    UnknownLabel,
)

log = logging.getLogger(__name__)

SPLIT_RATIOS = (0.8, 0.1, 0.1)
MIN_CLASS_SIZE = 10


@dataclass(frozen=True)
class Sample:
    id: str
    code: str
    label: int
    cwe: str | None = None
    pair_id: str | None = None


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    class_count: int
    name: str
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {s.id: s for s in self.samples})

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def by_id(self, sample_id: str) -> Sample:
        return self._index[sample_id]

    def labels_for(self, ids) -> np.ndarray:
        return np.array([self._index[i].label for i in ids], dtype=np.int64)

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.samples:
            counts[s.label] = counts.get(s.label, 0) + 1
        return counts


@dataclass(frozen=True)
class SplitIndices:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int
    ratios: tuple[float, float, float] = SPLIT_RATIOS

    def for_split(self, split: str) -> tuple[str, ...]:
        return {"train": self.train, "val": self.val, "test": self.test}[split]


@dataclass(frozen=True)
class BootstrapPlan:
    member_count: int
    draws: tuple[tuple[str, ...], ...]
    seed: int


def _atomic_write(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` through a temp file and a rename, creating
    the parent directory; readers never see a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)


def _first_non_utf8_line(path: Path) -> int:
    """Number of the first line of ``path`` that does not decode as UTF-8."""
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return 1


def _utf8_lines(fh, path: Path):
    """Lines of the text file ``fh``; bytes that are not UTF-8 raise
    MalformedRecord naming ``path`` and the first line that holds them."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise MalformedRecord(_first_non_utf8_line(path),
                              f"{path} is not UTF-8 text: {exc}") from exc


def load_dataset(path, schema: str, name: str | None = None) -> Dataset:
    """Load a dataset.jsonl file; K is 2 (binary) or 1 + distinct CWE count."""
    if schema not in ("binary", "multiclass"):
        raise ValueError(f"unknown schema {schema!r}")
    path = Path(path)
    samples: list[Sample] = []
    seen: set[str] = set()
    cwes: list[str] = []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(_utf8_lines(fh, path), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                sid = rec["id"]
                code = rec["code"]
                label = rec["label"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MalformedRecord(line_no, str(exc)) from exc
            if not isinstance(sid, str) or not sid:
                raise MalformedRecord(line_no, "id must be a non-empty string")
            if not isinstance(code, str):
                raise MalformedRecord(line_no, "code must be a string")
            if sid in seen:
                raise DuplicateId(f"duplicate id {sid!r} at line {line_no}")
            seen.add(sid)
            if not isinstance(label, int) or label < 0:
                raise UnknownLabel(f"label {label!r} at line {line_no}")
            cwe = rec.get("cwe")
            if schema == "multiclass" and label >= 1:
                if not cwe:
                    raise MalformedRecord(line_no, "multiclass vulnerable sample without cwe")
                if cwe not in cwes:
                    cwes.append(cwe)
            samples.append(Sample(sid, code, label, cwe, rec.get("pair_id")))
    if schema == "binary":
        k = 2
        for s in samples:
            if s.label >= k:
                raise UnknownLabel(f"label {s.label} out of range for binary schema")
    else:
        k = 1 + len(cwes)
        for s in samples:
            if s.label >= k:
                raise UnknownLabel(f"label {s.label} >= inferred K={k}")
    ds = Dataset(tuple(samples), k, name or path.stem)
    if not samples:
        log.warning("loaded empty dataset from %s", path)
    else:
        counts = ds.class_counts()
        log.info("loaded %s: %d samples, K=%d, per-class %s", ds.name, len(ds), k,
                 {c: counts[c] for c in sorted(counts)})
    return ds


def stratified_split(d: Dataset, seed: int) -> SplitIndices:
    """Per-class shuffled 8:1:1 partition.

    Rounding rule, per class c with n_c samples: train floor(0.8 n_c),
    val floor(0.1 n_c), test the remainder.  Deterministic given seed.
    """
    by_class: dict[int, list[str]] = {}
    for s in d.samples:
        by_class.setdefault(s.label, []).append(s.id)
    for c, ids in sorted(by_class.items()):
        if len(ids) < MIN_CLASS_SIZE:
            raise ClassTooSmall(c, len(ids), MIN_CLASS_SIZE)
    train: list[str] = []
    val: list[str] = []
    test: list[str] = []
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x591]))
    for c in sorted(by_class):
        ids = by_class[c]
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        n = len(ids)
        n_train = int(np.floor(0.8 * n))
        n_val = int(np.floor(0.1 * n))
        train += shuffled[:n_train]
        val += shuffled[n_train:n_train + n_val]
        test += shuffled[n_train + n_val:]
    return SplitIndices(tuple(train), tuple(val), tuple(test), seed)


def bootstrap(d: Dataset, s: SplitIndices, m: int, seed: int) -> BootstrapPlan:
    """Stratified with-replacement draws over the train split.

    Each draw has exactly |train| ids and per-class counts exactly equal
    to the train split's per-class counts.
    """
    if m < 1:
        raise ValueError(f"member count must be >= 1, got {m}")
    by_class: dict[int, list[str]] = {}
    for sid in s.train:
        by_class.setdefault(d.by_id(sid).label, []).append(sid)
    draws: list[tuple[str, ...]] = []
    for member in range(m):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xb007, member]))
        draw: list[str] = []
        for c in sorted(by_class):
            pool = by_class[c]
            picks = rng.integers(0, len(pool), size=len(pool))
            draw += [pool[i] for i in picks]
        draws.append(tuple(draw))
    return BootstrapPlan(m, tuple(draws), seed)


def cwe_subset(d: Dataset, cwe: str) -> Dataset:
    """Binary 1:1 dataset: all samples of ``cwe`` plus their paired fixed versions."""
    vuln = [s for s in d.samples if s.cwe == cwe and s.label >= 1]
    if not vuln:
        raise UnknownCwe(f"no samples with cwe {cwe!r}")
    out: list[Sample] = []
    for s in vuln:
        if s.pair_id is None:
            raise UnknownCwe(f"sample {s.id!r} has no pair_id; paired corpus required")
        pair = d.by_id(s.pair_id)
        out.append(Sample(s.id, s.code, 1, s.cwe, s.pair_id))
        out.append(Sample(pair.id, pair.code, 0, None, s.id))
    return Dataset(tuple(out), 2, f"{d.name}-{cwe}")


def top_cwes(d: Dataset, n: int = 10) -> list[str]:
    """Most frequent CWE tags among vulnerable samples (count desc, tag asc)."""
    counts: dict[str, int] = {}
    for s in d.samples:
        if s.label >= 1 and s.cwe:
            counts[s.cwe] = counts.get(s.cwe, 0) + 1
    return sorted(counts, key=lambda c: (-counts[c], c))[:n]


def save_splits(path, s: SplitIndices) -> None:
    payload = {"seed": s.seed, "train": list(s.train), "val": list(s.val),
               "test": list(s.test)}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_splits(path) -> SplitIndices:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return SplitIndices(tuple(payload["train"]), tuple(payload["val"]),
                        tuple(payload["test"]), int(payload["seed"]))
