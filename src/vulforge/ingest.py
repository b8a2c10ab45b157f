"""Corpus loading, stratified 8:1:1 splits, bootstrap plans, CWE subsets,
and ingest snapshots.

File formats:
  dataset.jsonl  one record per line:
      {"id": str, "code": str, "label": int, "cwe": str|null, "pair_id": str|null}
  splits.json    {"seed": int, "train": [ids], "val": [ids], "test": [ids]}

A ``Snapshots`` directory keeps what a reader parsed from an input file,
named by the sha256 of the file's bytes, so a later command that reads the
same bytes rebuilds the result without parsing them again.  A dataset
snapshot is two files: ``<sha256>.<schema>.code`` holds the code strings
as one UTF-8 blob (lone surrogates kept by ``surrogatepass``), and
``<sha256>.<schema>.json`` holds K, the ids, labels, cwe and pair_id
fields, and each code string's length in bytes, as compact JSON.

numpy is imported inside the functions that use it, so a command that only
reads and writes JSON (``verify``) runs without it.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import (
    ClassTooSmall,
    DuplicateId,
    IoError,
    MalformedRecord,
    UnknownCwe,
    UnknownLabel,
)

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

MIN_CLASS_SIZE = 10


class Sample(NamedTuple):
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
        import numpy as np

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
    # a temp name per process: concurrent writers never share one temp file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)


@dataclass(frozen=True)
class Snapshots:
    """Where readers keep what they parsed: the directory ``root``, one
    snapshot per input file's sha256, each file stored through
    ``write(path, blob)``, by default the atomic writer.

    A reader given a ``Snapshots`` rebuilds its result from a snapshot of
    its input's bytes when it has a usable one.  Otherwise it parses the
    input as it would without one and, once the read has succeeded, stores
    a snapshot.  A snapshot that is missing, unreadable or does not fit the
    read counts as absent, so a read gives the same result or fault either
    way."""

    root: Path
    write: Callable[[Path, bytes], None] = _atomic_write

    def key(self, fh, *tags: str) -> str:
        """The sha256 of the bytes of the binary file ``fh``, read in 1 MiB
        chunks, then ``tags``, joined by dots; ``fh`` is left at its start."""
        h = hashlib.sha256()
        while chunk := fh.read(1 << 20):
            h.update(chunk)
        fh.seek(0)
        return ".".join((h.hexdigest(), *tags))

    def path(self, key: str, suffix: str) -> Path:
        return self.root / f"{key}{suffix}"


def _read_json(path, what: str, check):
    """The JSON value in ``path``, which ``check`` must accept; IoError names
    the file when it is not JSON or does not hold ``what``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise IoError(f"{path} is not JSON: {exc}") from exc
    if not check(payload):
        raise IoError(f"{path} does not hold {what}")
    return payload


def _is_id_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


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


def _parse_dataset(fh, path: Path, schema: str) -> tuple[tuple[Sample, ...], int]:
    """The samples of the dataset text file ``fh``, read from ``path``, and
    their K under ``schema``; a bad record raises naming its line."""
    samples: list[Sample] = []
    seen: set[str] = set()
    cwes: list[str] = []
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
        if type(label) is not int or label < 0:  # true and false are not labels
            raise UnknownLabel(f"label {label!r} at line {line_no}")
        cwe, pair_id = rec.get("cwe"), rec.get("pair_id")
        for name, value in (("cwe", cwe), ("pair_id", pair_id)):
            if value is not None and not isinstance(value, str):
                raise MalformedRecord(line_no, f"{name} must be a string or null")
        if schema == "multiclass" and label >= 1:
            if not cwe:
                raise MalformedRecord(line_no, "multiclass vulnerable sample without cwe")
            if cwe not in cwes:
                cwes.append(cwe)
        samples.append(Sample(sid, code, label, cwe, pair_id))
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
    return tuple(samples), k


def _write_dataset_snapshot(snapshots: Snapshots, key: str,
                            samples: tuple[Sample, ...], k: int) -> None:
    """Store ``samples`` and ``k`` under ``key``: the code blob, then the
    JSON that indexes it, so a reader that finds the JSON finds the blob.
    Each distinct CWE tag is written once; a sample's ``cwe`` is its index
    in ``cwe_tags``."""
    codes = [s.code.encode("utf-8", "surrogatepass") for s in samples]
    snapshots.write(snapshots.path(key, ".code"), b"".join(codes))
    tags: dict[str, int] = {}
    meta = {"k": k, "ids": [s.id for s in samples], "labels": [s.label for s in samples],
            "cwe": [None if s.cwe is None else tags.setdefault(s.cwe, len(tags))
                    for s in samples],
            "cwe_tags": list(tags), "pair_id": [s.pair_id for s in samples],
            "code_bytes": [len(c) for c in codes]}
    snapshots.write(snapshots.path(key, ".json"),
                    json.dumps(meta, separators=(",", ":")).encode("ascii"))


def _read_dataset_snapshot(snapshots: Snapshots,
                           key: str) -> tuple[tuple[Sample, ...], int] | None:
    """The samples and K stored under ``key``, or None when the snapshot is
    missing or is not what ``_write_dataset_snapshot`` writes.  Each code
    string is decoded from its own slice of the blob as it is read, so the
    whole blob is never held next to the strings, and samples of one CWE
    share one tag string."""
    try:
        meta = json.loads(snapshots.path(key, ".json").read_bytes())
        ids, labels, pair_ids, lengths = (meta["ids"], meta["labels"], meta["pair_id"],
                                          meta["code_bytes"])
        tags = meta["cwe_tags"]
        cwes = [None if i is None else tags[i] for i in meta["cwe"]]
        if (type(meta["k"]) is not int or min(lengths, default=0) < 0
                or not len(ids) == len(labels) == len(cwes) == len(pair_ids) == len(lengths)):
            return None
        with snapshots.path(key, ".code").open("rb") as fh:
            if os.fstat(fh.fileno()).st_size != sum(lengths):
                return None
            codes = (fh.read(n).decode("utf-8", "surrogatepass") for n in lengths)
            return tuple(map(Sample, ids, codes, labels, cwes, pair_ids)), meta["k"]
    except (OSError, ValueError, LookupError, TypeError):
        return None


def load_dataset(path, schema: str, *, snapshots: Snapshots | None = None) -> Dataset:
    """Load a dataset.jsonl file; K is 2 (binary) or 1 + distinct CWE count.

    With ``snapshots``, a snapshot of the file's bytes under ``schema``
    stands in for the parse; a parse that succeeds stores one."""
    if schema not in ("binary", "multiclass"):
        raise ValueError(f"unknown schema {schema!r}")
    path = Path(path)
    with path.open("rb") as raw:
        key = None if snapshots is None else snapshots.key(raw, schema)
        loaded = None if key is None else _read_dataset_snapshot(snapshots, key)
        if loaded is None:
            with io.TextIOWrapper(raw, encoding="utf-8") as fh:
                loaded = _parse_dataset(fh, path, schema)
            if key is not None:
                _write_dataset_snapshot(snapshots, key, *loaded)
    samples, k = loaded
    ds = Dataset(samples, k, path.stem)
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
    import numpy as np

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
    import numpy as np

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


def load_splits(path) -> SplitIndices:
    payload = _read_json(path, "an integer seed and train, val and test id lists",
                         lambda p: isinstance(p, dict) and isinstance(p.get("seed"), int)
                         and all(_is_id_list(p.get(k)) for k in ("train", "val", "test")))
    return SplitIndices(tuple(payload["train"]), tuple(payload["val"]),
                        tuple(payload["test"]), int(payload["seed"]))
