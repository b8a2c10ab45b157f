"""Subcommand front-end wiring all modules into reproducible experiments.

Workflow is file-first: every stage reads prior artifacts from the output
directory and writes its own atomically (temp file + rename), so reruns
with identical inputs are byte-identical.  Every JSON/CSV artifact embeds
the hash of the resolved configuration; ``verify`` recomputes hashes and
sidecar digests.

Exit codes:
  0  success
  2  ConfigError   — bad flags, bad config file, failed verification
  3  IoError       — missing or unreadable artifacts
  4  ProtocolOrderError — external boosting round files out of order
  5  other vulforge errors (data validation, coverage, ...)

A process pays only for what its subcommand runs: this module imports the
standard library and ``errors`` at load time, and each ``cmd_*`` imports the
modules it calls when it runs, so ``verify`` loads no numpy and ``split``
no learner.  ``main`` pins OpenBLAS to one thread when it runs before numpy
is loaded.

Every subcommand takes the I/O flags (``--config``, ``--dataset``,
``--out``, ``--seed``, ``--schema``, ``--external``); only the commands that
train a built-in learner (``train-base``, ``bag``, ``boost``, ``stack``)
take its flags.  ``bag --workers`` and the ``workers`` key are checked,
echoed and hashed, but select nothing: members and trees are fit in order.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import logging
import math
import os
import sys
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from . import META_KINDS
from .errors import ConfigError, IoError, ProtocolOrderError, UnsafeName, VulforgeError

if TYPE_CHECKING:
    from .core import PredictionSet
    from .ingest import Dataset, Snapshots, SplitIndices
    from .learners import FeatureMatrix, LearnerConfig

EXIT_CONFIG, EXIT_IO, EXIT_PROTOCOL, EXIT_OTHER = 2, 3, 4, 5

# ---------------------------------------------------------------------------
# config resolution and artifact plumbing
# ---------------------------------------------------------------------------

def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_real(val) -> bool:
    return (_is_int(val) or isinstance(val, float)) and math.isfinite(val)


_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_PATH = ("a path string", lambda v: isinstance(v, str))
_PATH_OR_NULL = ("a path string or null", lambda v: v is None or isinstance(v, str))
# the learners hold dims-wide arrays: at 2^24 a 16 MB mask and a 64 MB lookup
_DIMS = ("a power of two up to 2**24",
         lambda v: _is_int(v) and 1 <= v <= 1 << 24 and not v & (v - 1))

#: config key -> (default, rule, check).  A value from a flag or from the
#: config file must pass ``check`` as given; nothing is coerced, so a valid
#: config hashes to the same bytes it always has.
_CONFIG = {
    "dataset": (None, *_PATH_OR_NULL),
    "schema": ("binary", "binary|multiclass", lambda v: v in ("binary", "multiclass")),
    "seed": (0, "an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "members": (5, *_COUNT),
    "rounds": (10, *_COUNT),
    "meta": ("lr", "|".join(META_KINDS), lambda v: v in META_KINDS),
    "routing": ("hard", "hard|soft", lambda v: v in ("hard", "soft")),
    "dims": (1 << 18, *_DIMS),
    "ngram_orders": ([1, 2], "a non-empty list of integers >= 1",
                     lambda v: isinstance(v, list) and len(v) > 0
                     and all(map(_COUNT[1], v))),
    "learning_rate": (0.5, "a finite number > 0", lambda v: _is_real(v) and v > 0),
    "epochs": (20, *_COUNT),
    "l2": (1e-6, "a finite number >= 0", lambda v: _is_real(v) and v >= 0),
    "batch_size": (32, *_COUNT),
    "external": (None, *_PATH_OR_NULL),
    "out": ("out", *_PATH),
    "workers": (1, *_COUNT),  # selects nothing; kept for the config hash
}
_DEFAULTS = {key: default for key, (default, _, _) in _CONFIG.items()}


def resolve_config(args: argparse.Namespace) -> dict:
    """Config file values overridden by explicit CLI flags, over defaults;
    every value is checked against its rule in ``_CONFIG``."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in _CONFIG:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, (_, rule, check) in _CONFIG.items():
        if not check(cfg[key]):
            raise ConfigError(f"{key} must be {rule}, got {cfg[key]!r}")
    return cfg


_FILE_NAME = "a non-empty file name, not . or .., with no /, \\ or NUL"


def _is_file_name(name) -> bool:
    """True when ``name``, which becomes one path component under --out, is
    a plain file name: ``_FILE_NAME``."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and not any(c in name for c in "/\\\0"))


def _model_id(flag: str, name: str) -> str:
    if not _is_file_name(name):
        raise ConfigError(f"{flag} {name!r} must be {_FILE_NAME}")
    return name


def _model_ids(flag: str, names: str) -> list[str]:
    ids = [_model_id(flag, name) for name in names.split(",")]
    for n, mid in enumerate(ids):
        if mid in ids[:n]:
            raise ConfigError(f"{flag} names {mid!r} twice; each model id may "
                              "appear once")
    return ids


def _is_manifest(m) -> bool:
    return isinstance(m, dict) and all(
        isinstance(r, dict) and isinstance(r.get("sha256"), str) for r in m.values())


def _echo(cfg: dict) -> dict:
    return {k: cfg.get(k) for k in _CONFIG}


def _record_artifact(out: Path, path: Path, config_hash: str,
                     blob: bytes | None = None) -> None:
    """Track an artifact in out/manifest.json for `verify`: the digest of
    ``blob``, the bytes just written to ``path``, or else of the file, under
    ``config_hash``.

    The read-modify-write holds an exclusive lock on out/manifest.lock, so
    concurrent commands on one --out each add their entries."""
    from .ingest import _atomic_write, _read_json

    manifest_path = out / "manifest.json"
    digest = hashlib.sha256(path.read_bytes() if blob is None else blob).hexdigest()
    rel = str(path.relative_to(out)) if path.is_relative_to(out) else str(path)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        manifest = {}
        if manifest_path.exists():
            manifest = _read_json(manifest_path, "artifact records", _is_manifest)
        manifest[rel] = {"sha256": digest, "config_hash": config_hash}
        _atomic_write(manifest_path, (json.dumps(manifest, indent=1, sort_keys=True)
                                      + "\n").encode("utf-8"))


class _Run:
    """One command's run: its config, resolved once; its inputs, loaded on
    first use; and every artifact it writes, each recorded in
    out/manifest.json under the config hash.

    Inputs load in pipeline order (dataset, splits, features), so a missing
    one is reported before any input built from it.  The dataset and the
    prediction files are read through the snapshots in out/ingest/, so each
    file's bytes are parsed once per --out."""

    def __init__(self, args: argparse.Namespace):
        from .store import config_hash

        self.cfg = resolve_config(args)
        self.out = Path(self.cfg["out"])
        self.echo = _echo(self.cfg)
        self.config_hash = config_hash(self.echo)

    @cached_property
    def snapshots(self) -> Snapshots:
        from .ingest import Snapshots

        return Snapshots(self.out / "ingest", write=self.emit)

    @cached_property
    def dataset(self) -> Dataset:
        from .ingest import load_dataset

        if not self.cfg["dataset"]:
            raise ConfigError("no dataset given (--dataset or config file)")
        path = Path(self.cfg["dataset"])
        if not path.exists():
            raise IoError(f"dataset file {path} does not exist")
        return load_dataset(path, self.cfg["schema"], snapshots=self.snapshots)

    @cached_property
    def splits(self) -> SplitIndices:
        from .ingest import load_splits

        _ = self.dataset
        path = self.out / "splits.json"
        if not path.exists():
            raise IoError(f"{path} missing; run `vulforge split` first")
        s = load_splits(path)
        d = self.dataset
        if not all(sid in d for sid in (*s.train, *s.val, *s.test)):
            raise IoError(f"{path} names samples that are not in the dataset")
        return s

    @cached_property
    def features(self) -> FeatureMatrix:
        import numpy as np

        from .ingest import _is_id_list, _read_json
        from .learners import FeatureMatrix

        _ = self.splits
        fdir = self.out / "features"
        meta_path = fdir / "meta.json"
        if not meta_path.exists():
            raise IoError(f"{meta_path} missing; run `vulforge featurize` first")
        meta = _read_json(meta_path, f"the feature ids and dims, {_DIMS[0]}",
                          lambda m: isinstance(m, dict) and _is_id_list(m.get("ids"))
                          and _DIMS[1](m.get("dims")))
        arrays = []
        for name in ("indptr", "indices", "data"):
            try:
                arrays.append(np.load(fdir / f"{name}.npy", allow_pickle=False))
            except (ValueError, EOFError) as exc:
                raise IoError(f"{fdir / name}.npy is not a saved array: {exc}") from exc
        indptr, indices, data = arrays
        if (indptr.shape != (len(meta["ids"]) + 1,) or indices.shape != data.shape
                or indices.shape != (indptr[-1],)):
            raise IoError(f"the arrays in {fdir} do not match {meta_path}")
        # a model gathers its columns by these: a bad one must stop here
        if (indptr.dtype.kind not in "iu" or indptr[0] != 0
                or (indptr[1:] < indptr[:-1]).any()):
            raise IoError(f"{fdir / 'indptr.npy'} is not row offsets rising from 0")
        if indices.dtype.kind not in "iu" or (
                len(indices) and not 0 <= indices.min() <= indices.max() < meta["dims"]):
            raise IoError(f"{fdir / 'indices.npy'} holds indices that are not "
                          f"integers in [0, {meta['dims']})")
        if data.dtype.kind not in "iuf" or not np.isfinite(data).all():
            raise IoError(f"{fdir / 'data.npy'} holds values that are not finite numbers")
        fm = FeatureMatrix(tuple(meta["ids"]), indptr, indices, data, meta["dims"])
        if not {*self.splits.train, *self.splits.val, *self.splits.test} <= set(fm.ids):
            raise IoError(f"{fdir} does not cover the samples of splits.json")
        return fm

    @cached_property
    def learner(self) -> LearnerConfig:
        from .learners import LearnerConfig

        c = self.cfg
        return LearnerConfig(learning_rate=c["learning_rate"], epochs=c["epochs"],
                             l2=c["l2"], batch_size=c["batch_size"], seed=c["seed"])

    def predictions(self, model_ids, split: str) -> list[PredictionSet]:
        """The prediction sets of ``model_ids`` on ``split``, read from
        --external, or else from --out."""
        from .learners import ingest_predictions

        root = Path(self.cfg["external"] or self.out)
        ids = self.splits.for_split(split)
        return [ingest_predictions(root, mid, split, ids, snapshots=self.snapshots)
                for mid in model_ids]

    def emit(self, path: Path, blob: bytes) -> None:
        """Write ``blob`` to ``path`` atomically and record its digest."""
        from .ingest import _atomic_write

        _atomic_write(path, blob)
        _record_artifact(self.out, path, self.config_hash, blob)

    def emit_json(self, path: Path, payload: dict) -> None:
        """Emit ``payload`` as JSON with the schema version and config hash."""
        from .store import SCHEMA_VERSION

        payload = {"schema_version": SCHEMA_VERSION, **payload,
                   "config_hash": self.config_hash}
        self.emit(path, (json.dumps(payload, indent=1, sort_keys=True, default=float)
                         + "\n").encode("utf-8"))

    def emit_csv(self, path: Path, blob: bytes) -> None:
        """Emit a CSV under a ``# config_hash=`` line.  Its line ends and
        bare carriage returns become ``\\n``: the bytes these files have
        always had, a universal-newline read of the csv module's output."""
        self.emit(path, f"# config_hash={self.config_hash}\n".encode("utf-8")
                  + blob.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))

    def report(self, name: str, pred: PredictionSet, ids) -> None:
        """Score ``pred`` on ``ids`` and emit report_<name>.json and .csv."""
        from . import metrics

        d = self.dataset
        labels, truth = pred.reindexed(ids).argmax(axis=1), d.labels_for(ids)
        report = (metrics.binary_metrics(labels, truth) if d.class_count == 2
                  else metrics.weighted_metrics(labels, truth, d.class_count))
        self.emit_json(self.out / f"report_{name}.json", report.to_dict())
        row = {"method": name, **{k: v for k, v in report.to_dict().items()
                                  if not isinstance(v, (list, dict))}}
        metrics.write_report_csv(self.out / f"report_{name}.csv", [row],
                                 write=self.emit_csv)
        print(f"{name}: {report.human()}")

    def finish_ensemble(self, name: str, e, pred: PredictionSet) -> None:
        """An ensemble command's tail: save ``e`` as out/ensembles/<name>,
        write its test-split predictions ``pred`` and report them."""
        from .learners import write_predictions
        from .store import save_ensemble

        save_ensemble(self.out / "ensembles" / name, e, self.echo, write=self.emit)
        write_predictions(self.out, pred, write=self.emit)
        self.report(name, pred, self.splits.test)


def _base_ids(args, needs: str) -> list[str]:
    if not args.base:
        raise ConfigError(f"{needs} needs --base model ids")
    return _model_ids("--base", args.base)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_split(args) -> int:
    from .ingest import stratified_split

    run = _Run(args)
    s = stratified_split(run.dataset, run.cfg["seed"])
    run.emit_json(run.out / "splits.json", {"seed": s.seed, "train": list(s.train),
                                            "val": list(s.val), "test": list(s.test)})
    print(f"split: train={len(s.train)} val={len(s.val)} test={len(s.test)}")
    return 0


def cmd_featurize(args) -> int:
    from .codefeat import FeaturizerConfig
    from .learners import featurize_dataset
    from .store import _npy_bytes

    run = _Run(args)
    fconfig = FeaturizerConfig(run.cfg["dims"], tuple(run.cfg["ngram_orders"]))
    fm = featurize_dataset(run.dataset, fconfig)
    fdir = run.out / "features"
    for name in ("indptr", "indices", "data"):
        run.emit(fdir / f"{name}.npy", _npy_bytes(getattr(fm, name)))
    run.emit_json(fdir / "meta.json", {"ids": list(fm.ids), "dims": fm.dims,
                                       "ngram_orders": list(fconfig.ngram_orders)})
    print(f"featurize: {len(fm.ids)} samples, {len(fm.data)} nonzeros, D={fm.dims}")
    return 0


def cmd_train_base(args) -> int:
    from .core import PredictionSet
    from .learners import (SampleWeights, fit_builtin, predict_builtin_many,
                           write_predictions)

    run = _Run(args)
    model_id = _model_id("--model-id", args.model_id)
    s = run.splits
    model = fit_builtin(run.dataset, s.train, SampleWeights.uniform(s.train),
                        run.learner, run.features)
    for split in ("train", "val", "test"):
        ids = s.for_split(split)
        probs = predict_builtin_many(model, *run.features.rows_for(ids))
        write_predictions(run.out, PredictionSet(model_id, split, tuple(ids), probs),
                          write=run.emit)
    print(f"train-base: {model_id} trained on {len(s.train)} samples")
    return 0


def cmd_bag(args) -> int:
    from . import ensembles
    from .ingest import bootstrap
    from .learners import BaseLearnerSpec

    run = _Run(args)
    name = f"bagging_{args.mode}"
    if run.cfg["external"]:
        base_ids = _base_ids(args, "external bagging")
        e = ensembles.bagging_from_predictions(run.predictions(base_ids, "test"),
                                               args.mode)
        pred = ensembles.bagging_predict_set(e, run.splits.test, None, "test", name)
    else:
        d, s, fm = run.dataset, run.splits, run.features
        plan = bootstrap(d, s, run.cfg["members"], run.cfg["seed"])
        spec = BaseLearnerSpec("builtin_linear", name, run.learner)
        e = ensembles.bagging_fit(spec, plan, d, args.mode, fm)
        pred = ensembles.bagging_predict_set(e, s.test, fm, "test", name)
    run.finish_ensemble(name, e, pred)
    return 0


def cmd_boost(args) -> int:
    from dataclasses import replace

    from . import ensembles, metrics
    from .learners import BaseLearnerSpec, ingest_round_predictions

    run = _Run(args)
    d, s = run.dataset, run.splits
    weight_log: list = []
    if run.cfg["external"]:
        root = Path(run.cfg["external"])
        e = ensembles.adaboost_fit_external(root, d, s.train, run.cfg["rounds"],
                                            args.vote_mode)
        # test-split votes come from each round's preds_test protocol file
        e_test = replace(e, rounds=tuple(
            replace(r, model=ingest_round_predictions(root, r.t, "test", s.test))
            for r in e.rounds))
        pred = ensembles.adaboost_predict_set(e_test, s.test, None, "test")
    else:
        spec = BaseLearnerSpec("builtin_linear", "boosting", run.learner)
        bcfg = ensembles.BoostConfig(run.cfg["rounds"], args.weight_mode, args.vote_mode)
        e = ensembles.adaboost_fit(spec, d, s.train, bcfg, run.features,
                                   weight_log=weight_log)
        pred = ensembles.adaboost_predict_set(e, s.test, run.features, "test")
    labels = d.labels_for(s.train)
    for t, w in weight_log[:len(e.rounds)]:
        metrics.write_boost_weights_csv(run.out / f"boost_weights_round_{t}.csv", t,
                                        s.train, w, labels, write=run.emit_csv)
    run.finish_ensemble("boosting", e, pred)
    print(f"boost: retained {len(e.rounds)} rounds "
          f"(eps={[round(r.epsilon, 4) for r in e.rounds]})")
    return 0


def cmd_stack(args) -> int:
    from dataclasses import replace

    from . import ensembles
    from .learners import BaseLearnerSpec
    from .metamodels import MetaConfig

    run = _Run(args)
    base_ids = _base_ids(args, "stacking")
    d, s = run.dataset, run.splits
    name = f"stacking_{run.cfg['meta']}"
    if args.oof:
        if not 2 <= args.folds <= len(s.train):
            raise ConfigError(f"folds must be an integer in [2, {len(s.train)}], "
                              f"got {args.folds}")
        base_fit, fit_ids = [], s.train
        for i, mid in enumerate(base_ids):
            lcfg = replace(run.learner, seed=ensembles.derive_seed(run.cfg["seed"], 0x57A, i))
            base_fit.append(ensembles.oof_prediction_set(
                BaseLearnerSpec("builtin_linear", mid, lcfg), d, s.train, run.features,
                folds=args.folds, seed=run.cfg["seed"]))
    else:
        base_fit, fit_ids = run.predictions(base_ids, "val"), s.val
    model = ensembles.stacking_fit(base_fit, fit_ids, d.labels_for(fit_ids),
                                   run.cfg["meta"], MetaConfig(), run.cfg["seed"])
    pred = ensembles.stacking_predict_set(model, run.predictions(base_ids, "test"),
                                          s.test, "test", name)
    run.finish_ensemble(name, model, pred)
    return 0


def cmd_dgs(args) -> int:
    from . import ensembles

    run = _Run(args)
    base_ids = _base_ids(args, "dgs")
    d, s, fm = run.dataset, run.splits, run.features
    name = f"dgs_{run.cfg['routing']}"
    gate = ensembles.dgs_fit(
        run.predictions(base_ids, "val"), s.val, d.labels_for(s.val), fm,
        ensembles.DgsConfig(run.cfg["routing"], args.gate), seed=run.cfg["seed"])
    pred = ensembles.dgs_predict_set(gate, run.predictions(base_ids, "test"), s.test,
                                     fm, "test", name)
    run.finish_ensemble(name, gate, pred)
    return 0


def cmd_eval(args) -> int:
    run = _Run(args)
    pred, = run.predictions([_model_id("--preds", args.preds)], args.split)
    run.report(args.preds, pred, run.splits.for_split(args.split))
    return 0


def cmd_rank(args) -> int:
    import csv

    from . import metrics

    run = _Run(args)
    path = Path(args.scores)
    if not path.exists():
        raise IoError(f"scores file {path} does not exist")
    blob = path.read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = blob.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"scores file {path} line {line_no} is not UTF-8") from exc
    reader = csv.DictReader(line for line in text.splitlines()
                            if not line.startswith("#"))
    missing = [c for c in ("method", "instance", "metric", "score")
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"scores file {path} has no column(s) {', '.join(missing)}")
    cells = {}  # (method, instance, metric) -> score
    for i, r in enumerate(reader, start=1):
        if None in r.values():
            raise ConfigError(f"scores row {i} has fewer fields than the header")
        cell = (r["method"], r["instance"], r["metric"])
        row = f"scores row {i} ({','.join(cell)})"
        try:
            score = float(r["score"])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ConfigError(f"{row}: score {r['score']!r} is not a finite number")
        if cell in cells:
            raise ConfigError(f"{row} repeats an earlier row")
        cells[cell] = score
    if not cells:
        raise ConfigError(f"scores file {path} has no data rows")
    methods, instances, mets = (sorted({cell[j] for cell in cells}) for j in range(3))
    if len(cells) != len(methods) * len(instances) * len(mets):
        raise ConfigError("scores file does not cover the full method x "
                          "instance x metric grid")
    table = metrics.average_rank(
        [[[cells[m, i, t] for t in mets] for i in instances] for m in methods],
        methods, instances, mets, tie_rule=args.tie_rule)
    metrics.write_ranks_csv(run.out / "ranks.csv", table, write=run.emit_csv)
    run.emit_json(run.out / "ranks.json", table.to_dict())
    for i, m in enumerate(methods):
        averages = "  ".join(f"{met}={table.averages[i, j]:.2f}"
                             for j, met in enumerate(mets))
        print(f"rank {m}: {averages}")
    return 0


def cmd_overlap(args) -> int:
    from . import metrics

    run = _Run(args)
    ids = run.splits.for_split(args.split)
    truth = run.dataset.labels_for(ids)
    sets = [{sid for sid, ok in zip(ids, p.reindexed(ids).argmax(axis=1) == truth) if ok}
            for p in run.predictions(_model_ids("--preds", args.preds), args.split)]
    regions = metrics.overlap_regions(sets)
    metrics.write_overlap_csv(run.out / "overlap.csv", regions, len(sets),
                              write=run.emit_csv)
    print(f"overlap: {len(regions)} regions over {len(sets)} sets, "
          f"union={sum(regions.values())}")
    return 0


def cmd_divergence(args) -> int:
    from . import metrics

    run = _Run(args)
    ids = run.splits.for_split(args.split)
    preds = run.predictions(_model_ids("--preds", args.preds), args.split)
    truth = {sid: int(lbl) for sid, lbl in zip(ids, run.dataset.labels_for(ids))}
    report = metrics.divergence(preds, truth)
    metrics.write_divergence_csv(run.out / "divergence.csv", report, write=run.emit_csv)
    run.emit_json(run.out / "divergence.json", report.to_dict())
    print(f"divergence: {len(report.divergent_ids)} of {report.total} samples")
    return 0


def cmd_cwe_subsets(args) -> int:
    from .ingest import cwe_subset, top_cwes

    run = _Run(args)
    if run.cfg["schema"] != "multiclass":
        raise ConfigError("cwe-subsets requires --schema multiclass")
    if args.top < 1:
        raise ConfigError(f"top must be an integer >= 1, got {args.top}")
    cwes = top_cwes(run.dataset, args.top)
    unsafe = [cwe for cwe in cwes if not _is_file_name(cwe)]
    if unsafe:  # found before any subset is written
        raise UnsafeName(f"CWE tag {unsafe[0]!r} names a subset file, so it must be "
                         f"{_FILE_NAME}")
    for cwe in cwes:
        sub = cwe_subset(run.dataset, cwe)
        lines = [json.dumps({"id": x.id, "code": x.code, "label": x.label,
                             "cwe": x.cwe, "pair_id": x.pair_id})
                 for x in sub.samples]
        run.emit(run.out / "subsets" / f"{cwe}.jsonl",
                 ("\n".join(lines) + "\n").encode("utf-8"))
        print(f"cwe-subsets: {cwe} -> {len(sub)} samples (1:1)")
    return 0


def cmd_verify(args) -> int:
    from .ingest import _read_json
    from .store import ensemble_fault, schema_fault

    out = _Run(args).out
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise IoError(f"{manifest_path} missing; nothing to verify")
    manifest = _read_json(manifest_path, "artifact records", _is_manifest)
    failures = []
    for rel, rec in sorted(manifest.items()):
        path = out / rel
        if not path.exists():
            failures.append(f"{rel}: missing")
            continue
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != rec["sha256"]:
            failures.append(f"{rel}: content digest mismatch")
        elif rel.endswith(".json") and not rel.startswith(("ingest/", "ensembles/")):
            # ingest snapshots carry no schema; ensemble_fault checks ensembles'
            try:
                payload = json.loads(blob)
            except ValueError:
                payload = None
            fault = (schema_fault(payload.get("schema_version"))
                     if isinstance(payload, dict) else "not a JSON object")
            if fault:
                failures.append(f"{rel}: {fault}")
    for edir in sorted(out.glob("ensembles/*")):
        fault = (edir / "ensemble.json").exists() and ensemble_fault(edir)
        if fault:
            failures.append(f"{edir.name}: {fault}")
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        raise ConfigError(f"{len(failures)} artifact(s) failed verification")
    print(f"verify: {len(manifest)} artifacts OK")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _subcommand(sub, name: str, func, help: str, learner: bool = False):
    """Add subcommand ``name`` with the I/O flags, and with the built-in
    learner's flags when it trains one."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--external", default=None,
                   help="directory with external prediction files")
    p.add_argument("--dataset", default=None)
    p.add_argument("--schema", choices=("binary", "multiclass"), default=None)
    if learner:
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--learning-rate", type=float, default=None,
                       dest="learning_rate")
        p.add_argument("--l2", type=float, default=None)
        p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulforge",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "split", cmd_split, "stratified 8:1:1 split")

    p = _subcommand(sub, "featurize", cmd_featurize, "hashed n-gram features")
    p.add_argument("--dims", type=int, default=None)

    p = _subcommand(sub, "train-base", cmd_train_base, "train a built-in base learner",
                    learner=True)
    p.add_argument("--model-id", required=True)

    p = _subcommand(sub, "bag", cmd_bag, "bagging ensemble (hard/soft voting)",
                    learner=True)
    p.add_argument("--mode", choices=("hard", "soft"), default="soft")
    p.add_argument("--members", type=int, default=None)
    p.add_argument("--base", default=None, help="external member ids (csv)")
    p.add_argument("--workers", type=int, default=None,
                   help="checked and hashed; members are fit one after another")

    p = _subcommand(sub, "boost", cmd_boost, "AdaBoost/SAMME boosting", learner=True)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--weight-mode", choices=("loss", "resample"),
                   default="loss", dest="weight_mode")
    p.add_argument("--vote-mode", choices=("label", "score"),
                   default="label", dest="vote_mode")

    p = _subcommand(sub, "stack", cmd_stack, "stacked generalization", learner=True)
    p.add_argument("--meta", choices=META_KINDS, default=None)
    p.add_argument("--base", default=None, help="base model ids (csv)")
    p.add_argument("--oof", action="store_true",
                   help="train the meta-model on out-of-fold train predictions")
    p.add_argument("--folds", type=int, default=5)

    p = _subcommand(sub, "dgs", cmd_dgs, "dynamic gated stacking")
    p.add_argument("--routing", choices=("hard", "soft"), default=None,
                   dest="routing")
    p.add_argument("--gate", choices=META_KINDS, default="lr")
    p.add_argument("--base", default=None, help="base model ids (csv)")

    p = _subcommand(sub, "eval", cmd_eval, "evaluate one prediction set")
    p.add_argument("--preds", required=True, help="model id to evaluate")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")

    p = _subcommand(sub, "rank", cmd_rank, "average-rank table from a scores CSV")
    p.add_argument("--scores", required=True,
                   help="CSV with columns method,instance,metric,score")
    p.add_argument("--tie-rule", choices=("average", "competition"),
                   default="average", dest="tie_rule")

    p = _subcommand(sub, "overlap", cmd_overlap, "correct-set overlap regions")
    p.add_argument("--preds", required=True, help="model ids (csv)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")

    p = _subcommand(sub, "divergence", cmd_divergence, "divergent-sample analysis")
    p.add_argument("--preds", required=True, help="model ids (csv)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")

    p = _subcommand(sub, "cwe-subsets", cmd_cwe_subsets, "per-CWE 1:1 paired subsets")
    p.add_argument("--top", type=int, default=10)

    _subcommand(sub, "verify", cmd_verify, "recheck artifact hashes in --out")

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS",
                                           "OMP_NUM_THREADS"} & os.environ.keys():
        # Before numpy's first import only: OpenBLAS sizes its thread pool
        # when it loads.  One thread saves the pool's start-up and shutdown
        # in every process.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IoError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ProtocolOrderError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except VulforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


def run() -> None:
    """Run ``main`` as the whole process: the ``vulforge`` script and
    ``python -m vulforge.cli``.  Once it returns, flush the standard streams
    and the logging handlers, then leave through ``os._exit`` without
    tearing the interpreter down; nothing a command writes is left in a
    buffer.  An uncaught exception exits as Python does, with its
    traceback and code 1."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    logging.shutdown()
    os._exit(code)


if __name__ == "__main__":
    run()
