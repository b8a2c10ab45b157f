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
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import ensembles, ingest, metrics, store, synth
from .codefeat import FeaturizerConfig
from .core import PredictionSet
from .errors import ConfigError, IoError, ProtocolOrderError, VulforgeError
from .ingest import _atomic_write
from .learners import (
    BaseLearnerSpec,
    FeatureMatrix,
    LearnerConfig,
    SampleWeights,
    featurize_dataset,
    fit_builtin,
    ingest_predictions,
    write_predictions,
)
from .metamodels import META_KINDS, MetaConfig

log = logging.getLogger("vulforge")

EXIT_CONFIG, EXIT_IO, EXIT_PROTOCOL, EXIT_OTHER = 2, 3, 4, 5

# ---------------------------------------------------------------------------
# config resolution and artifact plumbing
# ---------------------------------------------------------------------------

_CONFIG_KEYS = (
    "dataset", "schema", "seed", "members", "rounds", "meta", "routing",
    "dims", "ngram_orders", "learning_rate", "epochs", "l2", "batch_size",
    "external", "out", "workers",
)

_DEFAULTS = {
    "schema": "binary", "seed": 0, "members": 5, "rounds": 10, "meta": "lr",
    "routing": "hard", "dims": 1 << 18, "ngram_orders": [1, 2],
    "learning_rate": 0.5, "epochs": 20, "l2": 1e-6, "batch_size": 32,
    "external": None, "out": "out", "workers": 1,
}

#: integer settings that must be >= 1 (validated once, in resolve_config)
_POSITIVE_INT_KEYS = ("epochs", "members", "rounds", "batch_size")


def resolve_config(args: argparse.Namespace) -> dict:
    """Config file values overridden by explicit CLI flags, over defaults."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg.get("schema") not in ("binary", "multiclass"):
        raise ConfigError(f"schema must be binary|multiclass, got {cfg.get('schema')!r}")
    for key in _POSITIVE_INT_KEYS:
        if not _is_int(cfg[key]) or cfg[key] < 1:
            raise ConfigError(f"{key} must be an integer >= 1, got {cfg[key]!r}")
    dims = cfg["dims"]
    if not _is_int(dims) or dims < 1 or dims & (dims - 1):
        raise ConfigError(f"dims must be a power of two, got {dims!r}")
    return cfg


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _echo(cfg: dict) -> dict:
    return {k: cfg.get(k) for k in _CONFIG_KEYS}


def _write_json(path: Path, payload: dict, cfg: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", store.SCHEMA_VERSION)
    payload["config_hash"] = store.config_hash(_echo(cfg))
    _atomic_write(path, (json.dumps(payload, indent=1, sort_keys=True,
                                    default=float) + "\n").encode("utf-8"))
    _record_artifact(Path(cfg["out"]), path, cfg)


def _stamp_csv(path: Path, cfg: dict) -> None:
    """Prepend the config-hash comment line to a CSV just written."""
    text = path.read_text(encoding="utf-8")
    _atomic_write(path, (f"# config_hash={store.config_hash(_echo(cfg))}\n"
                         + text).encode("utf-8"))
    _record_artifact(Path(cfg["out"]), path, cfg)


def _record_artifact(out: Path, path: Path, cfg: dict) -> None:
    """Track every artifact in out/manifest.json for `verify`."""
    manifest_path = out / "manifest.json"
    manifest = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    rel = str(path.relative_to(out)) if path.is_relative_to(out) else str(path)
    manifest[rel] = {"sha256": digest,
                     "config_hash": store.config_hash(_echo(cfg))}
    _atomic_write(manifest_path, (json.dumps(manifest, indent=1, sort_keys=True)
                                  + "\n").encode("utf-8"))


def _load_dataset(cfg: dict) -> ingest.Dataset:
    if not cfg.get("dataset"):
        raise ConfigError("no dataset given (--dataset or config file)")
    path = Path(cfg["dataset"])
    if not path.exists():
        raise IoError(f"dataset file {path} does not exist")
    return ingest.load_dataset(path, cfg["schema"])


def _load_splits(cfg: dict) -> ingest.SplitIndices:
    path = Path(cfg["out"]) / "splits.json"
    if not path.exists():
        raise IoError(f"{path} missing; run `vulforge split` first")
    return ingest.load_splits(path)


def _features_dir(cfg: dict) -> Path:
    return Path(cfg["out"]) / "features"


def _load_features(cfg: dict) -> FeatureMatrix:
    fdir = _features_dir(cfg)
    meta_path = fdir / "meta.json"
    if not meta_path.exists():
        raise IoError(f"{meta_path} missing; run `vulforge featurize` first")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return FeatureMatrix(
        tuple(meta["ids"]),
        np.load(fdir / "indptr.npy"),
        np.load(fdir / "indices.npy"),
        np.load(fdir / "data.npy"),
        meta["dims"],
    )


def _preds_root(cfg: dict) -> Path:
    return Path(cfg["external"]) if cfg.get("external") else Path(cfg["out"])


def _learner_cfg(cfg: dict) -> LearnerConfig:
    return LearnerConfig(learning_rate=cfg["learning_rate"], epochs=cfg["epochs"],
                         l2=cfg["l2"], batch_size=cfg["batch_size"],
                         seed=cfg["seed"])


def _evaluate(pred: PredictionSet, d: ingest.Dataset, ids) -> metrics.MetricsReport:
    labels = pred.reindexed(ids).argmax(axis=1)
    truth = d.labels_for(ids)
    if d.class_count == 2:
        return metrics.binary_metrics(labels, truth)
    return metrics.weighted_metrics(labels, truth, d.class_count)


def _emit_report(name: str, report: metrics.MetricsReport, cfg: dict) -> None:
    out = Path(cfg["out"])
    _write_json(out / f"report_{name}.json", report.to_dict(), cfg)
    row = {"method": name, **{k: v for k, v in report.to_dict().items()
                              if not isinstance(v, (list, dict))}}
    metrics.write_report_csv(out / f"report_{name}.csv", [row])
    _stamp_csv(out / f"report_{name}.csv", cfg)
    print(f"{name}: {report.human()}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_split(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = ingest.stratified_split(d, cfg["seed"])
    out = Path(cfg["out"])
    payload = {"seed": s.seed, "train": list(s.train), "val": list(s.val),
               "test": list(s.test)}
    _write_json(out / "splits.json", payload, cfg)
    print(f"split: train={len(s.train)} val={len(s.val)} test={len(s.test)}")
    return 0


def cmd_featurize(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    fconfig = FeaturizerConfig(cfg["dims"], tuple(cfg["ngram_orders"]))
    fm = featurize_dataset(d, fconfig)
    fdir = _features_dir(cfg)
    fdir.mkdir(parents=True, exist_ok=True)
    for name, arr in (("indptr", fm.indptr), ("indices", fm.indices),
                      ("data", fm.data)):
        np.save(fdir / f"{name}.npy", arr)
        _record_artifact(Path(cfg["out"]), fdir / f"{name}.npy", cfg)
    _write_json(fdir / "meta.json",
                {"ids": list(fm.ids), "dims": fm.dims,
                 "ngram_orders": list(fconfig.ngram_orders)}, cfg)
    print(f"featurize: {len(fm.ids)} samples, {len(fm.data)} nonzeros, D={fm.dims}")
    return 0


def cmd_train_base(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    fm = _load_features(cfg)
    lcfg = _learner_cfg(cfg)
    model = fit_builtin(d, s.train, SampleWeights.uniform(s.train), lcfg, fm)
    from .learners import predict_builtin_many

    for split in ("train", "val", "test"):
        ids = s.for_split(split)
        probs = predict_builtin_many(model, *fm.rows_for(ids))
        path = write_predictions(Path(cfg["out"]), PredictionSet(
            args.model_id, split, tuple(ids), probs))
        _record_artifact(Path(cfg["out"]), path, cfg)
    print(f"train-base: {args.model_id} trained on {len(s.train)} samples")
    return 0


def _base_predsets(cfg: dict, base_ids: list[str], split: str,
                   ids) -> list[PredictionSet]:
    root = _preds_root(cfg)
    return [ingest_predictions(root, mid, split, ids) for mid in base_ids]


def cmd_bag(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    name = f"bagging_{args.mode}"
    if cfg.get("external"):
        if not args.base:
            raise ConfigError("external bagging needs --base model ids")
        base_ids = args.base.split(",")
        e = ensembles.bagging_from_predictions(
            _base_predsets(cfg, base_ids, "test", s.test), args.mode)
        pred = ensembles.bagging_predict_set(e, s.test, None, "test", name)
    else:
        fm = _load_features(cfg)
        plan = ingest.bootstrap(d, s, cfg["members"], cfg["seed"])
        spec = BaseLearnerSpec("builtin_linear", name, _learner_cfg(cfg))
        e = ensembles.bagging_fit(spec, plan, d, args.mode, fm,
                                  workers=cfg["workers"])
        pred = ensembles.bagging_predict_set(e, s.test, fm, "test", name)
    store.save_ensemble(Path(cfg["out"]) / "ensembles" / name, e, _echo(cfg))
    path = write_predictions(Path(cfg["out"]), pred)
    _record_artifact(Path(cfg["out"]), path, cfg)
    _emit_report(name, _evaluate(pred, d, s.test), cfg)
    return 0


def cmd_boost(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    out = Path(cfg["out"])
    weight_log: list = []
    if cfg.get("external"):
        from dataclasses import replace as _replace

        from .learners import ingest_round_predictions

        root = Path(cfg["external"])
        e = ensembles.adaboost_fit_external(root, d, s.train, cfg["rounds"],
                                            args.vote_mode)
        # test-split votes come from each round's preds_test protocol file
        test_rounds = tuple(
            _replace(r, model=ingest_round_predictions(root, r.t, "test", s.test))
            for r in e.rounds)
        e_test = ensembles.BoostEnsemble(test_rounds, e.class_count, e.variant,
                                         e.vote_mode)
        pred = ensembles.adaboost_predict_set(e_test, s.test, None, "test")
        weight_log = [(r.t, None) for r in e.rounds]
    else:
        fm = _load_features(cfg)
        spec = BaseLearnerSpec("builtin_linear", "boosting", _learner_cfg(cfg))
        bcfg = ensembles.BoostConfig(cfg["rounds"], args.weight_mode,
                                     args.vote_mode)
        e = ensembles.adaboost_fit(spec, d, s.train, bcfg, fm,
                                   weight_log=weight_log)
        pred = ensembles.adaboost_predict_set(e, s.test, fm, "test")
    labels = d.labels_for(s.train)
    for t, w in weight_log[:len(e.rounds)]:
        if w is None:
            continue
        csv_path = out / f"boost_weights_round_{t}.csv"
        metrics.write_boost_weights_csv(csv_path, t, s.train, w, labels)
        _stamp_csv(csv_path, cfg)
    store.save_ensemble(out / "ensembles" / "boosting", e, _echo(cfg))
    path = write_predictions(out, pred)
    _record_artifact(out, path, cfg)
    _emit_report("boosting", _evaluate(pred, d, s.test), cfg)
    print(f"boost: retained {len(e.rounds)} rounds "
          f"(eps={[round(r.epsilon, 4) for r in e.rounds]})")
    return 0


def cmd_stack(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    if not args.base:
        raise ConfigError("stacking needs --base model ids")
    base_ids = args.base.split(",")
    name = f"stacking_{cfg['meta']}"
    if args.oof:
        fm = _load_features(cfg)
        from dataclasses import replace as _replace

        train_preds = []
        for i, mid in enumerate(base_ids):
            lcfg = _replace(_learner_cfg(cfg),
                            seed=ensembles.derive_seed(cfg["seed"], 0x57A, i))
            spec = BaseLearnerSpec("builtin_linear", mid, lcfg)
            train_preds.append(ensembles.oof_prediction_set(
                spec, d, s.train, fm, folds=args.folds, seed=cfg["seed"]))
        fit_ids, labels = s.train, d.labels_for(s.train)
        base_fit = train_preds
    else:
        base_fit = _base_predsets(cfg, base_ids, "val", s.val)
        fit_ids, labels = s.val, d.labels_for(s.val)
    model = ensembles.stacking_fit(base_fit, fit_ids, labels, cfg["meta"],
                                   MetaConfig(), cfg["seed"])
    base_test = _base_predsets(cfg, base_ids, "test", s.test)
    pred = ensembles.stacking_predict_set(model, base_test, s.test, "test", name)
    store.save_ensemble(Path(cfg["out"]) / "ensembles" / name, model, _echo(cfg))
    path = write_predictions(Path(cfg["out"]), pred)
    _record_artifact(Path(cfg["out"]), path, cfg)
    _emit_report(name, _evaluate(pred, d, s.test), cfg)
    return 0


def cmd_dgs(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    fm = _load_features(cfg)
    if not args.base:
        raise ConfigError("dgs needs --base model ids")
    base_ids = args.base.split(",")
    name = f"dgs_{cfg['routing']}"
    base_val = _base_predsets(cfg, base_ids, "val", s.val)
    gate = ensembles.dgs_fit(
        base_val, s.val, d.labels_for(s.val), fm,
        ensembles.DgsConfig(cfg["routing"], args.gate),
        gate_learner_cfg=_learner_cfg(cfg), seed=cfg["seed"], dataset=d)
    base_test = _base_predsets(cfg, base_ids, "test", s.test)
    pred = ensembles.dgs_predict_set(gate, base_test, s.test, fm, "test", name)
    store.save_ensemble(Path(cfg["out"]) / "ensembles" / name, gate, _echo(cfg))
    path = write_predictions(Path(cfg["out"]), pred)
    _record_artifact(Path(cfg["out"]), path, cfg)
    _emit_report(name, _evaluate(pred, d, s.test), cfg)
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    ids = s.for_split(args.split)
    pred = ingest_predictions(_preds_root(cfg), args.preds, args.split, ids)
    _emit_report(args.preds, _evaluate(pred, d, ids), cfg)
    return 0


def cmd_rank(args) -> int:
    cfg = resolve_config(args)
    path = Path(args.scores)
    if not path.exists():
        raise IoError(f"scores file {path} does not exist")
    reader = csv.DictReader(
        line for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#"))
    missing = [c for c in ("method", "instance", "metric", "score")
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"scores file {path} has no column(s) {', '.join(missing)}")
    rows = list(reader)
    for i, r in enumerate(rows, start=1):
        if None in r.values():
            raise ConfigError(f"scores row {i} has fewer fields than the header")
    methods = sorted({r["method"] for r in rows})
    instances = sorted({r["instance"] for r in rows})
    mets = sorted({r["metric"] for r in rows})
    scores = np.full((len(methods), len(instances), len(mets)), np.nan)
    for i, r in enumerate(rows, start=1):
        try:
            score = float(r["score"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scores row {i} ({r['method']},{r['instance']},"
                              f"{r['metric']}): score {r['score']!r} is not a number") from exc
        scores[methods.index(r["method"]), instances.index(r["instance"]),
               mets.index(r["metric"])] = score
    if np.isnan(scores).any():
        raise ConfigError("scores file does not cover the full method x "
                          "instance x metric grid")
    table = metrics.average_rank(scores, methods, instances, mets,
                                 tie_rule=args.tie_rule)
    out = Path(cfg["out"])
    metrics.write_ranks_csv(out / "ranks.csv", table)
    _stamp_csv(out / "ranks.csv", cfg)
    _write_json(out / "ranks.json", table.to_dict(), cfg)
    for i, m in enumerate(methods):
        cells = "  ".join(f"{met}={table.averages[i, j]:.2f}"
                          for j, met in enumerate(mets))
        print(f"rank {m}: {cells}")
    return 0


def _correct_sets(cfg, d, s, base_ids, split):
    ids = s.for_split(split)
    truth = d.labels_for(ids)
    sets = []
    for mid in base_ids:
        p = ingest_predictions(_preds_root(cfg), mid, split, ids)
        labels = p.reindexed(ids).argmax(axis=1)
        sets.append({sid for sid, ok in zip(ids, labels == truth) if ok})
    return ids, truth, sets


def cmd_overlap(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    base_ids = args.preds.split(",")
    _, _, sets = _correct_sets(cfg, d, s, base_ids, args.split)
    regions = metrics.overlap_regions(sets)
    out = Path(cfg["out"])
    metrics.write_overlap_csv(out / "overlap.csv", regions, len(sets))
    _stamp_csv(out / "overlap.csv", cfg)
    print(f"overlap: {len(regions)} regions over {len(sets)} sets, "
          f"union={sum(regions.values())}")
    return 0


def cmd_divergence(args) -> int:
    cfg = resolve_config(args)
    d = _load_dataset(cfg)
    s = _load_splits(cfg)
    base_ids = args.preds.split(",")
    ids = s.for_split(args.split)
    preds = [ingest_predictions(_preds_root(cfg), mid, args.split, ids)
             for mid in base_ids]
    truth = {sid: int(lbl) for sid, lbl in zip(ids, d.labels_for(ids))}
    report = metrics.divergence(preds, truth)
    out = Path(cfg["out"])
    metrics.write_divergence_csv(out / "divergence.csv", report)
    _stamp_csv(out / "divergence.csv", cfg)
    _write_json(out / "divergence.json", report.to_dict(), cfg)
    print(f"divergence: {len(report.divergent_ids)} of {report.total} samples")
    return 0


def cmd_cwe_subsets(args) -> int:
    cfg = resolve_config(args)
    if cfg["schema"] != "multiclass":
        raise ConfigError("cwe-subsets requires --schema multiclass")
    d = _load_dataset(cfg)
    out = Path(cfg["out"]) / "subsets"
    out.mkdir(parents=True, exist_ok=True)
    for cwe in ingest.top_cwes(d, args.top):
        sub = ingest.cwe_subset(d, cwe)
        lines = [json.dumps({"id": x.id, "code": x.code, "label": x.label,
                             "cwe": x.cwe, "pair_id": x.pair_id})
                 for x in sub.samples]
        path = out / f"{cwe}.jsonl"
        _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
        _record_artifact(Path(cfg["out"]), path, cfg)
        print(f"cwe-subsets: {cwe} -> {len(sub)} samples (1:1)")
    return 0


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    out = Path(cfg["out"])
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise IoError(f"{manifest_path} missing; nothing to verify")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    failures = []
    for rel, rec in sorted(manifest.items()):
        path = out / rel
        if not path.exists():
            failures.append(f"{rel}: missing")
            continue
        if hashlib.sha256(path.read_bytes()).hexdigest() != rec["sha256"]:
            failures.append(f"{rel}: content digest mismatch")
    for edir in sorted(out.glob("ensembles/*")):
        if (edir / "ensemble.json").exists() and not store.verify_ensemble(edir):
            failures.append(f"{edir.name}: ensemble hash mismatch")
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        raise ConfigError(f"{len(failures)} artifact(s) failed verification")
    print(f"verify: {len(manifest)} artifacts OK")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--external", default=None,
                   help="directory with external prediction files")
    p.add_argument("--dataset", default=None)
    p.add_argument("--schema", choices=("binary", "multiclass"), default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None,
                   dest="learning_rate")
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulforge",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="stratified 8:1:1 split")
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("featurize", help="hashed n-gram features")
    _add_common(p)
    p.add_argument("--dims", type=int, default=None)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train-base", help="train a built-in base learner")
    _add_common(p)
    p.add_argument("--model-id", required=True)
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("bag", help="bagging ensemble (hard/soft voting)")
    _add_common(p)
    p.add_argument("--mode", choices=("hard", "soft"), default="soft")
    p.add_argument("--members", type=int, default=None)
    p.add_argument("--base", default=None, help="external member ids (csv)")
    p.set_defaults(func=cmd_bag)

    p = sub.add_parser("boost", help="AdaBoost/SAMME boosting")
    _add_common(p)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--weight-mode", choices=("loss", "resample"),
                   default="loss", dest="weight_mode")
    p.add_argument("--vote-mode", choices=("label", "score"),
                   default="label", dest="vote_mode")
    p.set_defaults(func=cmd_boost)

    p = sub.add_parser("stack", help="stacked generalization")
    _add_common(p)
    p.add_argument("--meta", choices=META_KINDS, default=None)
    p.add_argument("--base", default=None, help="base model ids (csv)")
    p.add_argument("--oof", action="store_true",
                   help="train the meta-model on out-of-fold train predictions")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("dgs", help="dynamic gated stacking")
    _add_common(p)
    p.add_argument("--routing", choices=("hard", "soft"), default=None,
                   dest="routing")
    p.add_argument("--gate", choices=META_KINDS, default="lr")
    p.add_argument("--base", default=None, help="base model ids (csv)")
    p.set_defaults(func=cmd_dgs)

    p = sub.add_parser("eval", help="evaluate one prediction set")
    _add_common(p)
    p.add_argument("--preds", required=True, help="model id to evaluate")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="average-rank table from a scores CSV")
    _add_common(p)
    p.add_argument("--scores", required=True,
                   help="CSV with columns method,instance,metric,score")
    p.add_argument("--tie-rule", choices=("average", "competition"),
                   default="average", dest="tie_rule")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("overlap", help="correct-set overlap regions")
    _add_common(p)
    p.add_argument("--preds", required=True, help="model ids (csv)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("divergence", help="divergent-sample analysis")
    _add_common(p)
    p.add_argument("--preds", required=True, help="model ids (csv)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("cwe-subsets", help="per-CWE 1:1 paired subsets")
    _add_common(p)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_cwe_subsets)

    p = sub.add_parser("verify", help="recheck artifact hashes in --out")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
