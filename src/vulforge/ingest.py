"""Corpus loading, stratified 8:1:1 splits, bootstrap plans, CWE subsets,
and the snapshot store for prediction files.

File formats:
  dataset.jsonl  one record per line:
      {"id": str, "code": str, "label": int, "cwe": str|null, "pair_id": str|null}
  splits.json    {"seed": int, "train": [ids], "val": [ids], "test": [ids],
                  "labels": {"train": [ints], "val": [ints], "test": [ints]},
                  "class_count": int, "schema": "binary"|"multiclass",
                  "dataset_sha256": str}

``splits.json`` carries each split id's label, K, the schema and the
sha256 of the dataset file it was split from, so a command that needs only
ids and labels reads it (``SplitIndices.labelled``) and never the dataset.

A ``Snapshots`` directory keeps the raw probs a reader parsed from a
prediction file, named by the sha256 of the file's bytes, so a later
command that reads the same bytes rebuilds them without parsing again.

numpy is imported inside the functions that use it, so a command that only
reads and writes JSON (``verify``) runs without it.
"""

from __future__ import annotations

import hashlib
import json
import logging
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


class Dataset:
    """A corpus as columns, one entry per sample in file order: ``ids``,
    ``labels``, ``cwes``, ``pair_ids``, and the code.

    ``Dataset(samples, class_count, name)`` builds the columns from
    ``Sample`` rows; ``samples`` gives them back.  ``from_columns`` builds
    them from the columns, and without ``code`` makes a dataset of ids and
    labels alone (cwe and pair_id null), which raises when code is asked
    for (``codes``, ``samples``, ``by_id``)."""

    def __init__(self, samples, class_count: int, name: str):
        ids, code, labels, cwes, pair_ids = tuple(zip(*samples)) or ((),) * 5
        self._fill(class_count, name, ids, labels, code, cwes, pair_ids)

    @classmethod
    def from_columns(cls, class_count: int, name: str, ids, labels, code=None,
                     cwes=None, pair_ids=None) -> Dataset:
        d = cls.__new__(cls)
        d._fill(class_count, name, ids, labels, code, cwes, pair_ids)
        return d

    def _fill(self, class_count, name, ids, labels, code, cwes, pair_ids) -> None:
        self.class_count, self.name = class_count, name
        self.ids: tuple[str, ...] = tuple(ids)
        self.labels: tuple[int, ...] = tuple(labels)
        null = (None,) * len(self.ids)
        self.cwes: tuple[str | None, ...] = null if cwes is None else tuple(cwes)
        self.pair_ids: tuple[str | None, ...] = null if pair_ids is None else tuple(pair_ids)
        self._code: tuple[str, ...] | None = None if code is None else tuple(code)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return ((self.class_count, self.name, self.ids, self.labels, self.cwes,
                 self.pair_ids, self._code)
                == (other.class_count, other.name, other.ids, other.labels, other.cwes,
                    other.pair_ids, other._code))

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, {len(self)} samples, K={self.class_count})"

    @cached_property
    def _rows(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    def __contains__(self, sample_id) -> bool:
        return sample_id in self._rows

    @property
    def codes(self) -> tuple[str, ...]:
        if self._code is None:
            raise ValueError(f"{self!r} holds ids and labels, not code")
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


SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class SplitIndices:
    """The three splits' ids, the seed that drew them, and ``labels``, the
    labels of the train, val and test ids, of ``class_count`` classes."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int
    labels: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    class_count: int

    def for_split(self, split: str) -> tuple[str, ...]:
        return {"train": self.train, "val": self.val, "test": self.test}[split]

    def to_dict(self, schema: str, dataset_sha256: str) -> dict:
        """The splits.json payload of these splits of the dataset file whose
        bytes hash to ``dataset_sha256``, read under ``schema``."""
        return {"seed": self.seed, **{split: list(self.for_split(split)) for split in SPLITS},
                "labels": dict(zip(SPLITS, map(list, self.labels))),
                "class_count": self.class_count, "schema": schema,
                "dataset_sha256": dataset_sha256}

    def labelled(self, name: str) -> Dataset:
        """The split ids and their labels as a Dataset without code."""
        return Dataset.from_columns(self.class_count, name,
                                    self.train + self.val + self.test, sum(self.labels, ()))


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
    snapshot per input file's sha256 (``file_sha256``), each file stored
    through ``write(path, blob)``, by default the atomic writer.

    A reader given a ``Snapshots`` rebuilds its result from a snapshot of
    its input's bytes when it has a usable one.  Otherwise it parses the
    input as it would without one and, once the read has succeeded, stores
    a snapshot.  A snapshot that is missing, unreadable or does not fit the
    read counts as absent, so a read gives the same result or fault either
    way."""

    root: Path
    write: Callable[[Path, bytes], None] = _atomic_write

    def path(self, key: str, suffix: str) -> Path:
        return self.root / f"{key}{suffix}"


def file_sha256(fh) -> str:
    """The sha256 of the bytes of the binary file ``fh``, read in 1 MiB
    chunks; ``fh`` is left at its start."""
    h = hashlib.sha256()
    while chunk := fh.read(1 << 20):
        h.update(chunk)
    fh.seek(0)
    return h.hexdigest()


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
    return Dataset.from_columns(k, path.stem, ids, labels, codes, cwes, pair_ids)


def load_dataset(path, schema: str) -> Dataset:
    """Load a dataset.jsonl file; K is 2 (binary) or 1 + distinct CWE count."""
    if schema not in ("binary", "multiclass"):
        raise ValueError(f"unknown schema {schema!r}")
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        ds = _parse_dataset(fh, path, schema)
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

    splits: dict[str, list[str]] = {s: [] for s in SPLITS}
    labels: dict[str, list[int]] = {s: [] for s in SPLITS}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x591]))
    for c in sorted(by_class):
        ids = by_class[c]
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        n = len(ids)
        n_train = int(np.floor(0.8 * n))
        n_val = int(np.floor(0.1 * n))
        for split, part in zip(SPLITS, (shuffled[:n_train],
                                        shuffled[n_train:n_train + n_val],
                                        shuffled[n_train + n_val:])):
            splits[split] += part
            labels[split] += [c] * len(part)
    return SplitIndices(*map(tuple, splits.values()), seed,
                        tuple(map(tuple, labels.values())), d.class_count)


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


def _is_splits(p) -> bool:
    """True when ``p`` is what ``split`` writes to splits.json."""
    if not (isinstance(p, dict) and isinstance(p.get("seed"), int)
            and all(_is_id_list(p.get(split)) for split in SPLITS)
            and type(p.get("class_count")) is int and isinstance(p.get("labels"), dict)
            and p.get("schema") in ("binary", "multiclass")
            and isinstance(p.get("dataset_sha256"), str)):
        return False
    k = range(p["class_count"])
    return all(isinstance(labels := p["labels"].get(split), list)
               and len(labels) == len(p[split])
               and all(type(c) is int and c in k for c in labels) for split in SPLITS)


def load_splits(path, *, dataset_sha256: str | None = None,
                schema: str | None = None) -> SplitIndices:
    """The splits in ``path``, a splits.json.  Given ``dataset_sha256`` or
    ``schema``, a file that ``split`` wrote for another dataset file or
    schema raises IoError naming it."""
    payload = _read_json(path, "what `vulforge split` writes: a seed, the train, val "
                         "and test ids, their labels in [0, class_count), an integer "
                         "class_count, the schema and the dataset's sha256",
                         _is_splits)
    for key, given in (("dataset_sha256", dataset_sha256), ("schema", schema)):
        if given is not None and payload[key] != given:
            raise IoError(f"{path} was written for {key} {payload[key]!r}, not "
                          f"{given!r}; rerun `vulforge split`")
    seen = {}
    for split in SPLITS:
        for sid in payload[split]:
            if sid in seen:
                raise IoError(f"{path}: sample id {sid!r} is in {seen[sid]} "
                              f"and again in {split}")
            seen[sid] = split
    return SplitIndices(*(tuple(payload[split]) for split in SPLITS), int(payload["seed"]),
                        tuple(tuple(payload["labels"][split]) for split in SPLITS),
                        payload["class_count"])
