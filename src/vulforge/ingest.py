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
fields, and each code string's length in bytes, as compact JSON.  A
dataset read from its snapshot takes its columns from the JSON and leaves
its code in the blob until code is asked for.

numpy is imported inside the functions that use it, so a command that only
reads and writes JSON (``verify``) runs without it.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
import logging
import mmap
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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


class _CodeBlob:
    """The code column of a dataset snapshot: its ``.code`` file, mapped
    read-only, and each string's byte offsets.  Iterating decodes each
    string from its own slice of the map; until then none of the file's
    pages is read into the process."""

    def __init__(self, blob, offsets: np.ndarray):
        self._blob = blob
        self._offsets = offsets

    @classmethod
    def open(cls, path: Path, offsets: np.ndarray) -> _CodeBlob | None:
        """The blob in ``path``, or None unless the file is as long as
        ``offsets`` says, is UTF-8 (lone surrogates allowed) and each string
        starts on a character.  The check reads the file in 64 KiB chunks
        and keeps no decoded text, so it adds little to the peak of a
        label-only read."""
        import numpy as np

        size = int(offsets[-1])
        starts = offsets[:-1][offsets[:-1] < size]
        utf8 = codecs.getincrementaldecoder("utf-8")("surrogatepass")
        with path.open("rb") as fh:
            if os.fstat(fh.fileno()).st_size != size:
                return None
            pos = 0
            while chunk := fh.read(1 << 16):
                lo, hi = np.searchsorted(starts, (pos, pos + len(chunk)))
                lead = np.frombuffer(chunk, np.uint8)[starts[lo:hi] - pos]
                if ((lead & 0xC0) == 0x80).any():  # a string starts mid-character
                    return None
                pos += len(chunk)
                utf8.decode(chunk)  # raises on bytes that are not UTF-8
            utf8.decode(b"", final=True)
            # an empty file cannot be mapped
            return cls(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b"",
                       offsets)

    def __iter__(self):
        blob, bounds = self._blob, self._offsets.tolist()
        return (blob[start:end].decode("utf-8", "surrogatepass")
                for start, end in zip(bounds, bounds[1:]))


class Dataset:
    """A corpus as columns, one entry per sample in file order: ``ids``,
    ``labels``, ``cwes``, ``pair_ids``, and the code.  The code is either
    the strings or a snapshot's code file, decoded when code is first asked
    for (``codes``, ``samples``, ``by_id``), so a command that reads only
    ids and labels never holds the source text.

    ``Dataset(samples, class_count, name)`` builds the columns from
    ``Sample`` rows; ``samples`` gives them back."""

    def __init__(self, samples, class_count: int, name: str):
        self._fill(class_count, name, *(tuple(zip(*samples)) or ((),) * 5))

    @classmethod
    def from_columns(cls, class_count: int, name: str, ids, code, labels, cwes,
                     pair_ids) -> Dataset:
        d = cls.__new__(cls)
        d._fill(class_count, name, ids, code, labels, cwes, pair_ids)
        return d

    def _fill(self, class_count, name, ids, code, labels, cwes, pair_ids) -> None:
        self.class_count, self.name = class_count, name
        self.ids: tuple[str, ...] = tuple(ids)
        self.labels: tuple[int, ...] = tuple(labels)
        self.cwes: tuple[str | None, ...] = tuple(cwes)
        self.pair_ids: tuple[str | None, ...] = tuple(pair_ids)
        self._code = code if isinstance(code, _CodeBlob) else tuple(code)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return ((self.class_count, self.name, self.ids, self.labels, self.cwes,
                 self.pair_ids, self.codes)
                == (other.class_count, other.name, other.ids, other.labels, other.cwes,
                    other.pair_ids, other.codes))

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, {len(self)} samples, K={self.class_count})"

    @cached_property
    def _rows(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    def __contains__(self, sample_id) -> bool:
        return sample_id in self._rows

    @property
    def codes(self) -> tuple[str, ...]:
        if isinstance(self._code, _CodeBlob):
            self._code = tuple(self._code)
        return self._code

    @property
    def samples(self) -> tuple[Sample, ...]:
        return tuple(map(Sample, self.ids, self.codes, self.labels, self.cwes,
                         self.pair_ids))

    def by_id(self, sample_id: str) -> Sample:
        r = self._rows[sample_id]
        return Sample(self.ids[r], self.codes[r], self.labels[r], self.cwes[r],
                      self.pair_ids[r])

    def labels_for(self, ids) -> np.ndarray:
        import numpy as np

        rows, labels = self._rows, self.labels
        return np.array([labels[rows[i]] for i in ids], dtype=np.int64)

    def class_counts(self) -> dict[int, int]:
        return dict(Counter(self.labels))


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
    _atomic_write_chunks(path, (blob,))


def _atomic_write_chunks(path: Path, chunks) -> None:
    """``_atomic_write`` of the bytes-like ``chunks``, written in turn, so
    the file's bytes are never all held at once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp name per process: concurrent writers never share one temp file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with tmp.open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
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


def _parse_dataset(fh, path: Path, schema: str) -> Dataset:
    """The dataset in the text file ``fh``, read from ``path``, with its K
    under ``schema``; a bad record raises naming its line."""
    ids: list[str] = []
    codes: list[str] = []
    labels: list[int] = []
    cwes: list[str | None] = []
    pair_ids: list[str | None] = []
    seen: set[str] = set()
    tags: list[str] = []
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
            if cwe not in tags:
                tags.append(cwe)
        ids.append(sid)
        codes.append(code)
        labels.append(label)
        cwes.append(cwe)
        pair_ids.append(pair_id)
    if schema == "binary":
        k = 2
        for label in labels:
            if label >= k:
                raise UnknownLabel(f"label {label} out of range for binary schema")
    else:
        k = 1 + len(tags)
        for label in labels:
            if label >= k:
                raise UnknownLabel(f"label {label} >= inferred K={k}")
    return Dataset.from_columns(k, path.stem, ids, codes, labels, cwes, pair_ids)


def _write_dataset_snapshot(snapshots: Snapshots, key: str, d: Dataset) -> None:
    """Store ``d`` under ``key``: the code blob, then the JSON that indexes
    it, so a reader that finds the JSON finds the blob.  Each distinct CWE
    tag is written once; a sample's ``cwe`` is its index in ``cwe_tags``."""
    codes = [c.encode("utf-8", "surrogatepass") for c in d.codes]
    snapshots.write(snapshots.path(key, ".code"), b"".join(codes))
    tags: dict[str, int] = {}
    meta = {"k": d.class_count, "ids": d.ids, "labels": d.labels,
            "cwe": [None if c is None else tags.setdefault(c, len(tags)) for c in d.cwes],
            "cwe_tags": list(tags), "pair_id": d.pair_ids,
            "code_bytes": [len(c) for c in codes]}
    snapshots.write(snapshots.path(key, ".json"),
                    json.dumps(meta, separators=(",", ":")).encode("ascii"))


def _read_dataset_snapshot(snapshots: Snapshots, key: str, name: str) -> Dataset | None:
    """The dataset stored under ``key``, named ``name``, or None when the
    snapshot is missing or is not what ``_write_dataset_snapshot`` writes.
    The columns come from the JSON, each built as its list is dropped, so
    no two copies of a column are held; the code file is checked, then
    mapped and decoded only when code is asked for.  Samples of one CWE
    share one tag string."""
    import numpy as np

    try:
        meta = json.loads(snapshots.path(key, ".json").read_bytes())
        lengths = np.array(meta.pop("code_bytes"), dtype=np.int64)
        ids = tuple(meta.pop("ids"))
        labels = tuple(meta.pop("labels"))
        pair_ids = tuple(meta.pop("pair_id"))
        tags = meta["cwe_tags"]
        cwes = tuple([None if i is None else tags[i] for i in meta.pop("cwe")])
        if (type(meta["k"]) is not int or lengths.ndim != 1 or (lengths < 0).any()
                or not len(ids) == len(labels) == len(cwes) == len(pair_ids) == len(lengths)):
            return None
        offsets = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        code = _CodeBlob.open(snapshots.path(key, ".code"), offsets)
        if code is None:
            return None
        return Dataset.from_columns(meta["k"], name, ids, code, labels, cwes, pair_ids)
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            OverflowError):
        return None


def load_dataset(path, schema: str, *, snapshots: Snapshots | None = None) -> Dataset:
    """Load a dataset.jsonl file; K is 2 (binary) or 1 + distinct CWE count.

    With ``snapshots``, a snapshot of the file's bytes under ``schema``
    stands in for the parse, and its code stays in the snapshot until it is
    asked for; a parse that succeeds stores one."""
    if schema not in ("binary", "multiclass"):
        raise ValueError(f"unknown schema {schema!r}")
    path = Path(path)
    with path.open("rb") as raw:
        key = None if snapshots is None else snapshots.key(raw, schema)
        ds = None if key is None else _read_dataset_snapshot(snapshots, key, path.stem)
        if ds is None:
            with io.TextIOWrapper(raw, encoding="utf-8") as fh:
                ds = _parse_dataset(fh, path, schema)
            if key is not None:
                _write_dataset_snapshot(snapshots, key, ds)
    if not len(ds):
        log.warning("loaded empty dataset from %s", path)
    else:
        counts = ds.class_counts()
        log.info("loaded %s: %d samples, K=%d, per-class %s", ds.name, len(ds),
                 ds.class_count, {c: counts[c] for c in sorted(counts)})
    return ds


def stratified_split(d: Dataset, seed: int) -> SplitIndices:
    """Per-class shuffled 8:1:1 partition.

    Rounding rule, per class c with n_c samples: train floor(0.8 n_c),
    val floor(0.1 n_c), test the remainder.  Deterministic given seed.
    """
    by_class: dict[int, list[str]] = {}
    for sid, label in zip(d.ids, d.labels):
        by_class.setdefault(label, []).append(sid)
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
    for sid, label in zip(s.train, d.labels_for(s.train).tolist()):
        by_class.setdefault(label, []).append(sid)
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
    """Binary 1:1 dataset: all samples of ``cwe`` plus their paired fixed
    versions.  A vulnerable sample whose ``pair_id`` is null or names no
    sample raises UnknownCwe."""
    pairs: list[tuple[int, int]] = []
    for r, (label, tag) in enumerate(zip(d.labels, d.cwes)):
        if tag != cwe or label < 1:
            continue
        sid, pair_id = d.ids[r], d.pair_ids[r]
        if pair_id is None:
            raise UnknownCwe(f"sample {sid!r} has no pair_id; paired corpus required")
        if pair_id not in d:
            raise UnknownCwe(f"sample {sid!r} names pair_id {pair_id!r}, which is "
                             "not in the dataset")
        pairs.append((r, d._rows[pair_id]))
    if not pairs:
        raise UnknownCwe(f"no samples with cwe {cwe!r}")
    codes, ids = d.codes, d.ids
    out: list[Sample] = []
    for r, p in pairs:
        out.append(Sample(ids[r], codes[r], 1, cwe, ids[p]))
        out.append(Sample(ids[p], codes[p], 0, None, ids[r]))
    return Dataset(out, 2, f"{d.name}-{cwe}")


def top_cwes(d: Dataset, n: int = 10) -> list[str]:
    """Most frequent CWE tags among vulnerable samples (count desc, tag asc)."""
    counts = Counter(tag for label, tag in zip(d.labels, d.cwes) if label >= 1 and tag)
    return sorted(counts, key=lambda c: (-counts[c], c))[:n]


def load_splits(path) -> SplitIndices:
    payload = _read_json(path, "an integer seed and train, val and test id lists",
                         lambda p: isinstance(p, dict) and isinstance(p.get("seed"), int)
                         and all(_is_id_list(p.get(k)) for k in ("train", "val", "test")))
    seen = {}
    for split in ("train", "val", "test"):
        for sid in payload[split]:
            if sid in seen:
                raise IoError(f"{path}: sample id {sid!r} is in {seen[sid]} "
                              f"and again in {split}")
            seen[sid] = split
    return SplitIndices(tuple(payload["train"]), tuple(payload["val"]),
                        tuple(payload["test"]), int(payload["seed"]))
