"""Ensemble persistence: a versioned ``ensemble.json`` manifest plus
deterministic ``.npy`` sidecars for the parameter arrays.

Every meta-model param that is an ndarray (lr/svm ``W``/``b``, the rf
forest arrays, knn ``rows``/``labels``) is a digested sidecar named
``{prefix}_{name}.npy``, as are linear-model weights and prediction-set
probabilities; scalars such as knn ``k`` stay in the JSON.  A built-in
linear model holds only its active columns (``LinearModel.columns``), but
its ``W`` sidecar is the full-width (K, dims) array it always was: it is
written and digested in chunks of at most ``_W_CHUNK`` columns of one
class, each a zeroed block holding the active columns in its range, so
no K x dims buffer is ever built; loading compacts ``W`` onto its
columns that are not all +0.0.  Every DGS
gate is a meta-model; its input columns are the ``gate_columns`` sidecar,
and its ``input_width`` is their count (schema 3; a schema-2 gate was full
width).  A dgs payload whose gate is not a meta-model or that has no
columns is refused.

The manifest records the variant tag, per-member/round records (epsilon,
alpha, Z), base-model order, the config echo and its hash, and sha256
digests of every sidecar so ``verify`` can detect corruption.  Each
sidecar is written and digested as it is encoded, its header and then
the array's own buffer, so no encoded copy of an array is held.  All
writes are atomic (temp file + rename) and byte-identical across reruns
of the same inputs.

numpy and the model modules are imported inside the encode and decode
paths, so ``config_hash`` and ``verify_ensemble`` load neither.
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

SCHEMA_VERSION = 3

#: columns per chunk of a streamed ``W`` sidecar: 64 KB, which glibc serves
#: from the heap, so writing one never moves its mmap threshold
_W_CHUNK = 1 << 13


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


def _full_width_chunks(m: LinearModel):
    """The ``np.save`` bytes of ``m``'s full-width (K, dims) weights in
    C order: the header, then each class's row in zeroed blocks of at most
    ``_W_CHUNK`` columns that hold the active columns in their range."""
    import numpy as np

    yield _npy_header((m.class_count, m.dims), np.float64)
    bounds = range(0, m.dims, _W_CHUNK)
    cuts = np.searchsorted(m.columns, [*bounds, m.dims])
    for k in range(m.class_count):
        for i, lo in enumerate(bounds):
            block = np.zeros(min(_W_CHUNK, m.dims - lo))
            a, z = cuts[i], cuts[i + 1]
            block[m.columns[a:z] - lo] = m.W[k, a:z]
            yield block


class _ArrayStore:
    """Writes each named array as a sidecar under ``params_dir`` as it is
    encoded, and keeps the sidecars' manifest: file and sha256 by name."""

    def __init__(self, params_dir: Path):
        params_dir.mkdir(parents=True, exist_ok=True)
        self.params_dir = params_dir
        self.manifest: dict[str, dict] = {}

    def put(self, name: str, arr: np.ndarray) -> str:
        import numpy as np

        arr = np.ascontiguousarray(arr)
        return self.write(name, (_npy_header(arr.shape, arr.dtype), arr))

    def write(self, name: str, chunks) -> str:
        """Write the ``.npy`` bytes ``chunks`` yield, digesting each in
        turn, as the sidecar ``name``."""
        digest = hashlib.sha256()

        def digested():
            for chunk in chunks:
                digest.update(chunk)
                yield chunk

        _atomic_write_chunks(self.params_dir / f"{name}.npy", digested())
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
        "W": store.write(f"{prefix}_W", _full_width_chunks(m)),
        "b": store.put(f"{prefix}_b", m.b),
    }


def _dec_linear(rec: dict, arrays: dict) -> LinearModel:
    """The saved model on the columns whose weights are not all +0.0 (the
    one float64 whose bits are all zero), the columns it can hold."""
    import numpy as np

    from .learners import LearnerConfig, LinearModel

    W = np.ascontiguousarray(arrays[rec["W"]], dtype=np.float64)
    columns = np.flatnonzero(W.view(np.uint64).any(axis=0))
    return LinearModel(W[:, columns], arrays[rec["b"]].copy(),
                       rec["dims"], rec["class_count"],
                       LearnerConfig(**rec["config"]), columns)


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
        if payload["gate"].get("type") != "meta" or "columns" not in payload:
            raise IoError("dgs gate is not a meta-model with input columns; "
                          "it was saved by an older version")
        return GateModel(tuple(payload["base_ids"]),
                         _dec_component(payload["gate"], arrays),
                         payload["routing"], payload["dims"],
                         payload["class_count"], arrays[payload["columns"]])
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


def load_ensemble(out_dir):
    """Load an ensemble saved by save_ensemble, checking sidecar digests."""
    out_dir = Path(out_dir)
    path = out_dir / "ensemble.json"
    if not path.exists():
        raise IoError(f"missing {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise IoError(f"unsupported schema version {payload.get('schema_version')}")
    import numpy as np

    arrays = {}
    for name, rec in payload.get("params", {}).items():
        blob = (out_dir / rec["file"]).read_bytes()
        if hashlib.sha256(blob).hexdigest() != rec["sha256"]:
            raise IoError(f"sidecar digest mismatch for {rec['file']}")
        arrays[name] = np.load(io.BytesIO(blob))
    return _decode(payload, arrays)


def verify_ensemble(out_dir) -> bool:
    """Recompute the config hash and sidecar digests; True when intact.  An
    ensemble.json that is not the object save_ensemble writes is not."""
    out_dir = Path(out_dir)
    try:
        payload = json.loads((out_dir / "ensemble.json").read_text(encoding="utf-8"))
        sidecars = [(out_dir / rec["file"], rec["sha256"])
                    for rec in payload.get("params", {}).values()]
        if payload["config_hash"] != config_hash(payload["config"]):
            return False
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    return all(path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() == digest
               for path, digest in sidecars)
