"""Ensemble persistence: a versioned ``ensemble.json`` manifest plus
deterministic ``.npy`` sidecars, one per parameter array.

Every ndarray a model holds is a digested sidecar ``{prefix}_{name}.npy``:
meta-model params (lr/svm ``W``/``b``, the rf forest arrays, knn
``rows``/``labels``), prediction-set probabilities, and a built-in linear
model's ``W``, ``b`` and ``columns`` as it holds them (schema 4; a
schema-3 ``W`` was full width).  A DGS gate is a meta-model whose input
columns are the ``gate_columns`` sidecar.  Scalars such as knn ``k`` stay
in the JSON.  ``_column_set`` checks both column sidecars on load, and any
payload that is not the one ``save_ensemble`` writes raises ``IoError``.

The manifest records the variant tag, per-member/round records (epsilon,
alpha, Z), base-model order, the config echo and its hash, and the sha256
of every sidecar, so ``verify`` detects corruption.  A sidecar is written
and digested as its header and then the array's own buffer, with no
encoded copy.  All writes are atomic and byte-identical across reruns.

numpy and the model modules are imported inside the encode and decode
paths, so ``config_hash`` and ``ensemble_fault`` load neither.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import IoError
from .ingest import _atomic_write, _atomic_write_chunks

if TYPE_CHECKING:
    import numpy as np

    from .core import PredictionSet
    from .learners import LinearModel
    from .metamodels import MetaModel

SCHEMA_VERSION = 4


def config_hash(echo: dict) -> str:
    """Stable hash of a config echo (canonical JSON, sorted keys)."""
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _npy_header(shape: tuple, dtype) -> bytes:
    """The header ``np.save`` writes for a C-ordered array."""
    import numpy as np

    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
        "fortran_order": False, "shape": tuple(shape)})
    return head.getvalue()


def _npy_bytes(arr: np.ndarray) -> bytes:
    """The bytes ``np.save`` writes for ``arr`` in C order, built with one
    copy of the data (saving into a ``BytesIO`` holds two at once)."""
    import numpy as np

    arr = np.ascontiguousarray(arr)
    return b"".join((_npy_header(arr.shape, arr.dtype), arr.reshape(-1).view(np.uint8)))


class _ArrayStore:
    """Writes each named array as a sidecar under ``params_dir`` as it is
    encoded, and keeps the sidecars' manifest: file and sha256 by name."""

    def __init__(self, params_dir: Path):
        params_dir.mkdir(parents=True, exist_ok=True)
        self.params_dir = params_dir
        self.manifest: dict[str, dict] = {}

    def put(self, name: str, arr: np.ndarray) -> str:
        """Write and digest ``arr``'s ``np.save`` bytes as the sidecar ``name``."""
        import numpy as np

        arr = np.ascontiguousarray(arr)
        header = _npy_header(arr.shape, arr.dtype)
        digest = hashlib.sha256(header)
        digest.update(arr)
        _atomic_write_chunks(self.params_dir / f"{name}.npy", (header, arr))
        self.manifest[name] = {
            "file": f"params/{name}.npy",
            "sha256": digest.hexdigest(),
        }
        return name


# ---------------------------------------------------------------------------
# component encoders/decoders
# ---------------------------------------------------------------------------

def _enc_linear(m: LinearModel, store: _ArrayStore, prefix: str) -> dict:
    return {
        "type": "linear",
        "dims": m.dims,
        "class_count": m.class_count,
        "config": asdict(m.config),
        "W": store.put(f"{prefix}_W", m.W),
        "b": store.put(f"{prefix}_b", m.b),
        "columns": store.put(f"{prefix}_columns", m.columns),
    }


def _column_set(arrays: dict, name: str, width: int, count: int) -> np.ndarray:
    """The sidecar ``name``: the columns of a linear model's or a gate's
    weights, ``count`` strictly increasing integers in [0, ``width``)."""
    cols = arrays[name]
    if not (cols.ndim == 1 and cols.dtype.kind in "iu" and len(cols) == count
            and (cols[1:] > cols[:-1]).all()
            and (not count or (cols[0] >= 0 and cols[-1] < width))):
        raise IoError(f"sidecar {name} is not {count} strictly increasing "
                      f"integer columns in [0, {width})")
    return cols


def _dec_linear(rec: dict, arrays: dict) -> LinearModel:
    from .learners import LearnerConfig, LinearModel

    W, b, k = arrays[rec["W"]], arrays[rec["b"]], rec["class_count"]
    if W.ndim != 2 or W.shape[0] != k or b.shape != (k,):
        raise IoError(f"sidecars {rec['W']} and {rec['b']} do not hold {k} classes")
    columns = _column_set(arrays, rec["columns"], rec["dims"], W.shape[1])
    return LinearModel(W, b, rec["dims"], k, LearnerConfig(**rec["config"]), columns)


def _enc_predset(p: PredictionSet, store: _ArrayStore, prefix: str) -> dict:
    return {
        "type": "predset",
        "model_id": p.model_id,
        "split": p.split,
        "ids": list(p.ids),
        "probs": store.put(f"{prefix}_probs", p.probs),
    }


def _dec_predset(rec: dict, arrays: dict) -> PredictionSet:
    from .core import PredictionSet

    return PredictionSet(rec["model_id"], rec["split"], tuple(rec["ids"]),
                         arrays[rec["probs"]].copy())


_META_HEADER = ("type", "kind", "input_width", "output_width", "config")


def _enc_meta(m: MetaModel, store: _ArrayStore, prefix: str) -> dict:
    import numpy as np

    rec = {
        "type": "meta",
        "kind": m.kind,
        "input_width": m.input_width,
        "output_width": m.output_width,
        "config": asdict(m.config),
    }
    for name, value in m.params.items():  # arrays become sidecars, scalars stay
        rec[name] = (store.put(f"{prefix}_{name}", value)
                     if isinstance(value, np.ndarray) else value)
    return rec


def _dec_meta(rec: dict, arrays: dict) -> MetaModel:
    from .metamodels import MetaConfig, MetaModel

    params = {name: arrays[value] if isinstance(value, str) else value
              for name, value in rec.items() if name not in _META_HEADER}
    return MetaModel(rec["kind"], params, rec["input_width"], rec["output_width"],
                     MetaConfig(**rec["config"]))


def _enc_component(obj, store: _ArrayStore, prefix: str) -> dict:
    from .core import PredictionSet
    from .learners import LinearModel
    from .metamodels import MetaModel

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
    from .ensembles import BaggingEnsemble, BoostEnsemble, GateModel, StackingModel

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
            "columns": store.put("gate_columns", e.columns),
        }
    raise IoError(f"cannot serialize ensemble of type {type(e).__name__}")


def _decode(payload: dict, arrays: dict):
    from .ensembles import (
        BaggingEnsemble,
        BoostEnsemble,
        BoostRound,
        GateModel,
        StackingModel,
    )

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
        base_ids, k = tuple(payload["base_ids"]), payload["class_count"]
        gate = _dec_meta(payload["gate"], arrays)
        columns = _column_set(arrays, payload["columns"],
                              payload["dims"] + len(base_ids) * k, gate.input_width)
        return GateModel(base_ids, gate, payload["routing"], payload["dims"], k, columns)
    raise IoError(f"unknown ensemble variant {variant!r}")


def save_ensemble(out_dir, e, config_echo: dict | None = None,
                  write=_atomic_write) -> Path:
    """Persist an ensemble under ``out_dir`` as ensemble.json + params/.

    ensemble.json goes through ``write(path, blob)``, by default the atomic
    writer, and the sidecars through the atomic writer.  Sidecars in
    params/ that the new ensemble.json does not list are deleted once it is
    written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = _ArrayStore(out_dir / "params")
    payload = _encode(e, store)
    payload["schema_version"] = SCHEMA_VERSION
    payload["config"] = config_echo or {}
    payload["config_hash"] = config_hash(payload["config"])
    payload["params"] = store.manifest
    text = json.dumps(payload, indent=1, sort_keys=True, default=float) + "\n"
    path = out_dir / "ensemble.json"
    write(path, text.encode("utf-8"))
    # a model saved earlier under this name may have left other sidecars
    listed = {Path(rec["file"]).name for rec in payload["params"].values()}
    for stale in (out_dir / "params").glob("*.npy"):
        if stale.name not in listed:
            stale.unlink()
    return path


_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, IndexError)


def schema_fault(version) -> str | None:
    """Why an artifact that says ``"schema_version": version`` cannot be
    read by this version, or None when it can."""
    if version == SCHEMA_VERSION:
        return None
    return (f"unsupported schema version {version!r}; this version reads "
            f"schema {SCHEMA_VERSION}, so rerun the command that wrote it")


def _read(out_dir: Path) -> tuple[dict, dict]:
    """The payload of ``out_dir``'s ensemble.json and each listed sidecar's
    bytes, by name.  IoError for another schema, a config hash or sidecar
    digest that does not match; OSError for a sidecar it cannot read; one
    of ``_MALFORMED`` for a payload of the wrong shape."""
    payload = json.loads((out_dir / "ensemble.json").read_text(encoding="utf-8"))
    fault = schema_fault(payload.get("schema_version"))
    if fault:
        raise IoError(fault)
    if payload["config_hash"] != config_hash(payload["config"]):
        raise IoError("config hash mismatch")
    blobs = {}
    for name, rec in payload["params"].items():
        blobs[name] = (out_dir / rec["file"]).read_bytes()
        if hashlib.sha256(blobs[name]).hexdigest() != rec["sha256"]:
            raise IoError(f"sidecar digest mismatch for {rec['file']}")
    return payload, blobs


def load_ensemble(out_dir):
    """Load an ensemble saved by save_ensemble.  Anything else, a schema
    other than ``SCHEMA_VERSION`` included, raises IoError."""
    import numpy as np

    path = Path(out_dir) / "ensemble.json"
    try:
        payload, blobs = _read(path.parent)
        return _decode(payload, {name: np.load(io.BytesIO(blob))
                                 for name, blob in blobs.items()})
    except (*_MALFORMED, OSError) as exc:
        raise IoError(f"{path} is not an ensemble save_ensemble writes: "
                      f"{type(exc).__name__}: {exc}") from exc


def ensemble_fault(out_dir) -> str | None:
    """Why the ensemble under ``out_dir`` fails verification, or None when
    it is intact."""
    try:
        _read(Path(out_dir))
    except (IoError, OSError) as exc:
        return str(exc)
    except _MALFORMED:
        return "ensemble.json malformed"
    return None


def verify_ensemble(out_dir) -> bool:
    """True when ``ensemble_fault`` finds nothing wrong."""
    return ensemble_fault(out_dir) is None
