"""Ensemble persistence: a versioned ``ensemble.json`` manifest plus
deterministic ``.npy`` sidecars for large parameter arrays.

The manifest records the variant tag, per-member/round records (epsilon,
alpha, Z), base-model order, the config echo and its hash, and sha256
digests of every sidecar so ``verify`` can detect corruption.  All writes
are atomic (temp file + rename) and byte-identical across reruns of the
same inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .core import PredictionSet
from .ensembles import (
    BaggingEnsemble,
    BoostEnsemble,
    BoostRound,
    GateModel,
    StackingModel,
)
from .errors import IoError
from .ingest import _atomic_write
from .learners import LearnerConfig, LinearModel
from .metamodels import MetaConfig, MetaModel

SCHEMA_VERSION = 1


def config_hash(echo: dict) -> str:
    """Stable hash of a config echo (canonical JSON, sorted keys)."""
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _npy_bytes(arr: np.ndarray) -> bytes:
    import io

    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr))
    return buf.getvalue()


class _ArrayStore:
    """Collects named arrays during encoding; flushes them as sidecars."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def put(self, name: str, arr: np.ndarray) -> str:
        self.arrays[name] = np.asarray(arr)
        return name

    def flush(self, params_dir: Path) -> dict[str, dict]:
        params_dir.mkdir(parents=True, exist_ok=True)
        manifest = {}
        for name, arr in sorted(self.arrays.items()):
            blob = _npy_bytes(arr)
            _atomic_write(params_dir / f"{name}.npy", blob)
            manifest[name] = {
                "file": f"params/{name}.npy",
                "sha256": hashlib.sha256(blob).hexdigest(),
            }
        return manifest


# ---------------------------------------------------------------------------
# component encoders/decoders
# ---------------------------------------------------------------------------

def _enc_linear(m: LinearModel, store: _ArrayStore, prefix: str) -> dict:
    return {
        "type": "linear",
        "dims": m.dims,
        "class_count": m.class_count,
        "config": m.config.echo(),
        "W": store.put(f"{prefix}_W", m.W),
        "b": store.put(f"{prefix}_b", m.b),
    }


def _dec_linear(rec: dict, arrays: dict) -> LinearModel:
    return LinearModel(arrays[rec["W"]].copy(), arrays[rec["b"]].copy(),
                       rec["dims"], rec["class_count"],
                       LearnerConfig(**rec["config"]))


def _enc_predset(p: PredictionSet, store: _ArrayStore, prefix: str) -> dict:
    return {
        "type": "predset",
        "model_id": p.model_id,
        "split": p.split,
        "ids": list(p.ids),
        "probs": store.put(f"{prefix}_probs", p.probs),
    }


def _dec_predset(rec: dict, arrays: dict) -> PredictionSet:
    return PredictionSet(rec["model_id"], rec["split"], tuple(rec["ids"]),
                         arrays[rec["probs"]].copy())


def _enc_meta(m: MetaModel, store: _ArrayStore, prefix: str) -> dict:
    rec = {
        "type": "meta",
        "kind": m.kind,
        "input_width": m.input_width,
        "output_width": m.output_width,
        "config": m.config.echo(),
    }
    if m.kind in ("lr", "svm"):
        rec["W"] = store.put(f"{prefix}_W", np.asarray(m.params["W"]))
        rec["b"] = store.put(f"{prefix}_b", np.asarray(m.params["b"]))
    elif m.kind == "rf":
        rec["trees"] = m.params["trees"]
    elif m.kind == "knn":
        rec["rows"] = store.put(f"{prefix}_rows", np.asarray(m.params["rows"]))
        rec["labels"] = store.put(f"{prefix}_labels",
                                  np.asarray(m.params["labels"]))
        rec["k"] = m.params["k"]
    else:
        raise IoError(f"cannot serialize meta kind {m.kind!r}")
    return rec


def _dec_meta(rec: dict, arrays: dict) -> MetaModel:
    cfg = MetaConfig(**rec["config"])
    kind = rec["kind"]
    if kind in ("lr", "svm"):
        params = {"W": arrays[rec["W"]].tolist(), "b": arrays[rec["b"]].tolist()}
    elif kind == "rf":
        params = {"trees": rec["trees"]}
    else:
        params = {"rows": arrays[rec["rows"]].tolist(),
                  "labels": arrays[rec["labels"]].tolist(), "k": rec["k"]}
    return MetaModel(kind, params, rec["input_width"], rec["output_width"], cfg)


def _enc_component(obj, store: _ArrayStore, prefix: str) -> dict:
    if isinstance(obj, LinearModel):
        return _enc_linear(obj, store, prefix)
    if isinstance(obj, PredictionSet):
        return _enc_predset(obj, store, prefix)
    if isinstance(obj, MetaModel):
        return _enc_meta(obj, store, prefix)
    raise IoError(f"cannot serialize component of type {type(obj).__name__}")


def _dec_component(rec: dict, arrays: dict):
    return {"linear": _dec_linear, "predset": _dec_predset,
            "meta": _dec_meta}[rec["type"]](rec, arrays)


# ---------------------------------------------------------------------------
# ensemble encoders/decoders
# ---------------------------------------------------------------------------

def _encode(e, store: _ArrayStore) -> dict:
    if isinstance(e, BaggingEnsemble):
        return {
            "variant": "bagging",
            "mode": e.mode,
            "class_count": e.class_count,
            "external": e.external,
            "members": [_enc_component(m, store, f"member_{i}")
                        for i, m in enumerate(e.members)],
        }
    if isinstance(e, BoostEnsemble):
        return {
            "variant": e.variant,
            "vote_mode": e.vote_mode,
            "class_count": e.class_count,
            "rounds": [
                {"t": r.t, "epsilon": r.epsilon, "alpha": r.alpha, "z": r.z,
                 "model": _enc_component(r.model, store, f"round_{r.t}")}
                for r in e.rounds
            ],
        }
    if isinstance(e, StackingModel):
        return {
            "variant": "stacking",
            "class_count": e.class_count,
            "base_ids": list(e.base_ids),
            "meta": _enc_component(e.meta, store, "meta"),
        }
    if isinstance(e, GateModel):
        return {
            "variant": "dgs",
            "class_count": e.class_count,
            "base_ids": list(e.base_ids),
            "routing": e.routing,
            "dims": e.dims,
            "gate": _enc_component(e.gate, store, "gate"),
        }
    raise IoError(f"cannot serialize ensemble of type {type(e).__name__}")


def _decode(payload: dict, arrays: dict):
    variant = payload["variant"]
    if variant == "bagging":
        members = tuple(_dec_component(m, arrays) for m in payload["members"])
        return BaggingEnsemble(payload["mode"], members, payload["class_count"],
                               external=payload["external"])
    if variant in ("binary_adaboost", "samme"):
        rounds = tuple(
            BoostRound(r["t"], _dec_component(r["model"], arrays),
                       r["epsilon"], r["alpha"], r["z"])
            for r in payload["rounds"]
        )
        return BoostEnsemble(rounds, payload["class_count"], variant,
                             payload["vote_mode"])
    if variant == "stacking":
        return StackingModel(tuple(payload["base_ids"]),
                             _dec_component(payload["meta"], arrays),
                             payload["class_count"])
    if variant == "dgs":
        return GateModel(tuple(payload["base_ids"]),
                         _dec_component(payload["gate"], arrays),
                         payload["routing"], payload["dims"],
                         payload["class_count"])
    raise IoError(f"unknown ensemble variant {variant!r}")


def save_ensemble(out_dir, e, config_echo: dict | None = None) -> Path:
    """Persist an ensemble under ``out_dir`` as ensemble.json + params/."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = _ArrayStore()
    payload = _encode(e, store)
    payload["schema_version"] = SCHEMA_VERSION
    payload["config"] = config_echo or {}
    payload["config_hash"] = config_hash(payload["config"])
    payload["params"] = store.flush(out_dir / "params")
    text = json.dumps(payload, indent=1, sort_keys=True, default=float) + "\n"
    path = out_dir / "ensemble.json"
    _atomic_write(path, text.encode("utf-8"))
    return path


def load_ensemble(out_dir):
    """Load an ensemble saved by save_ensemble, checking sidecar digests."""
    out_dir = Path(out_dir)
    path = out_dir / "ensemble.json"
    if not path.exists():
        raise IoError(f"missing {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise IoError(f"unsupported schema version {payload.get('schema_version')}")
    arrays = {}
    for name, rec in payload.get("params", {}).items():
        blob = (out_dir / rec["file"]).read_bytes()
        if hashlib.sha256(blob).hexdigest() != rec["sha256"]:
            raise IoError(f"sidecar digest mismatch for {rec['file']}")
        import io

        arrays[name] = np.load(io.BytesIO(blob))
    return _decode(payload, arrays)


def verify_ensemble(out_dir) -> bool:
    """Recompute the config hash and sidecar digests; True when intact."""
    out_dir = Path(out_dir)
    payload = json.loads((out_dir / "ensemble.json").read_text(encoding="utf-8"))
    if payload["config_hash"] != config_hash(payload["config"]):
        return False
    for rec in payload.get("params", {}).values():
        blob = (out_dir / rec["file"]).read_bytes()
        if hashlib.sha256(blob).hexdigest() != rec["sha256"]:
            return False
    return True
