"""Persistence roundtrips, digest verification, config hashing."""

import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_predset
from vulforge import store, synth
from vulforge.ensembles import (
    BaggingEnsemble,
    BaseLearnerSpec,
    BoostConfig,
    DgsConfig,
    adaboost_fit,
    adaboost_predict_set,
    bagging_fit,
    bagging_from_predictions,
    bagging_predict_set,
    dgs_fit,
    dgs_predict_set,
    stacking_fit,
    stacking_predict_set,
)
from vulforge.errors import IoError
from vulforge.ingest import bootstrap, stratified_split
from vulforge.learners import LearnerConfig, LinearModel, featurize_dataset
from vulforge.metamodels import MetaConfig
from vulforge.store import config_hash, load_ensemble, save_ensemble, verify_ensemble


def _bases(ids, labels):
    rng = np.random.default_rng(4)
    out = []
    for mid in ("a", "b"):
        probs = rng.random((len(ids), 2))
        probs /= probs.sum(1, keepdims=True)
        out.append(make_predset(mid, "val", ids, probs))
    return out


@pytest.mark.parametrize("arr", [
    np.array(5.0), np.arange(12, dtype=np.int64).reshape(3, 4).T,
    np.empty((0, 4)), np.array([True, False]), np.arange(6, dtype=">i4"),
    np.linspace(0, 1, 7)[::2]], ids=lambda a: f"{a.dtype}{a.shape}")
def test_npy_bytes_are_np_save_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr))
    assert store._npy_bytes(arr) == buf.getvalue()


class TestConfigHash:
    def test_key_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestRoundtrips:
    def test_bagging_builtin(self, tmp_path, separable, separable_split):
        d, feats = separable
        s = separable_split
        plan = bootstrap(d, s, 2, seed=0)
        spec = BaseLearnerSpec("builtin_linear", "bag",
                               LearnerConfig(epochs=1, batch_size=64))
        e = bagging_fit(spec, plan, d, "soft", feats)
        save_ensemble(tmp_path, e, {"members": 2})
        e2 = load_ensemble(tmp_path)
        a = bagging_predict_set(e, s.test, feats, "test").probs
        b = bagging_predict_set(e2, s.test, feats, "test").probs
        assert np.array_equal(a, b)

    def test_bagging_external(self, tmp_path):
        bases = _bases([f"s{i}" for i in range(6)], None)
        e = bagging_from_predictions(bases, "hard")
        save_ensemble(tmp_path, e, {})
        e2 = load_ensemble(tmp_path)
        assert e2.external and e2.mode == "hard"
        assert e2.members[0].ids == bases[0].ids

    def test_boosting(self, tmp_path, separable):
        d, feats = separable
        spec = BaseLearnerSpec(
            "builtin_linear", "weak",
            LearnerConfig(epochs=1, learning_rate=2.0, batch_size=len(d)))
        e = adaboost_fit(spec, d, d.ids, BoostConfig(rounds=3), feats)
        save_ensemble(tmp_path, e, {"rounds": 3})
        e2 = load_ensemble(tmp_path)
        assert [r.alpha for r in e2.rounds] == [r.alpha for r in e.rounds]
        a = adaboost_predict_set(e, d.ids[:20], feats, "test").probs
        b = adaboost_predict_set(e2, d.ids[:20], feats, "test").probs
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ("lr", "rf", "svm", "knn"))
    def test_stacking_meta_kinds(self, kind, tmp_path):
        ids = [f"s{i}" for i in range(16)]
        labels = np.array([i % 2 for i in range(16)])
        bases = _bases(ids, labels)
        sm = stacking_fit(bases, ids, labels, kind)
        save_ensemble(tmp_path, sm, {"meta": kind})
        sm2 = load_ensemble(tmp_path)
        assert sm2.meta.params.keys() == sm.meta.params.keys()
        payload = json.loads((tmp_path / "ensemble.json").read_text())
        for name, value in sm.meta.params.items():
            if isinstance(value, np.ndarray):  # every array param is a sidecar
                assert payload["params"][f"meta_{name}"]["file"] == \
                    f"params/meta_{name}.npy"
                assert sm2.meta.params[name].dtype == value.dtype
                assert np.array_equal(sm2.meta.params[name], value)
            else:
                assert sm2.meta.params[name] == value
        a = stacking_predict_set(sm, bases, ids, "val").probs
        b = stacking_predict_set(sm2, bases, ids, "val").probs
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["lr", "svm", "rf", "knn"])
    def test_dgs_dense_gate(self, kind, tmp_path, separable):
        d, feats = separable
        ids, test = d.ids[:20], d.ids[20:40]
        bases = _bases(ids, None)
        g = dgs_fit(bases, ids, d.labels_for(ids), feats, DgsConfig("soft", kind),
                    meta_cfg=MetaConfig(trees=10, epochs=20))
        save_ensemble(tmp_path, g, {})
        payload = json.loads((tmp_path / "ensemble.json").read_text())
        assert payload["columns"] == "gate_columns"
        assert payload["params"]["gate_columns"]["file"] == "params/gate_columns.npy"
        assert payload["gate"]["input_width"] == len(g.columns)
        g2 = load_ensemble(tmp_path)
        assert g2.columns.dtype == g.columns.dtype
        assert np.array_equal(g2.columns, g.columns)
        assert g2.gate.input_width == g.gate.input_width
        for name, value in g.gate.params.items():
            assert np.array_equal(g2.gate.params[name], value), name
        test_bases = _bases(test, None)
        a = dgs_predict_set(g, test_bases, test, feats, "test").probs
        b = dgs_predict_set(g2, test_bases, test, feats, "test").probs
        assert np.array_equal(a, b)

    def test_resave_drops_stale_sidecars(self, tmp_path, separable):
        d, feats = separable
        ids = d.ids[:20]
        bases = _bases(ids, None)
        for kind in ("svm", "rf"):
            g = dgs_fit(bases, ids, d.labels_for(ids), feats, DgsConfig("hard", kind),
                        meta_cfg=MetaConfig(trees=10, epochs=20))
            save_ensemble(tmp_path, g, {"gate": kind})
        listed = json.loads((tmp_path / "ensemble.json").read_text())["params"]
        assert "gate_columns" in listed and "gate_W" not in listed
        assert sorted(p.name for p in (tmp_path / "params").iterdir()) == \
            sorted(f"{name}.npy" for name in listed)
        assert verify_ensemble(tmp_path)
        assert np.array_equal(load_ensemble(tmp_path).gate.params["feature"],
                              g.gate.params["feature"])


class TestVerification:
    def _saved(self, tmp_path):
        bases = _bases([f"s{i}" for i in range(6)], None)
        e = bagging_from_predictions(bases, "soft")
        save_ensemble(tmp_path, e, {"x": 1})
        return tmp_path

    def test_intact(self, tmp_path):
        assert verify_ensemble(self._saved(tmp_path))

    def test_detects_sidecar_corruption(self, tmp_path):
        out = self._saved(tmp_path)
        victim = next((out / "params").glob("*.npy"))
        victim.write_bytes(victim.read_bytes()[:-1] + b"\x00")
        assert not verify_ensemble(out)
        with pytest.raises(IoError):
            load_ensemble(out)

    @pytest.mark.parametrize("name", ("feature", "threshold", "left", "right",
                                      "value", "roots"))
    def test_detects_forest_sidecar_corruption(self, name, tmp_path):
        ids = [f"s{i}" for i in range(16)]
        labels = np.array([i % 2 for i in range(16)])
        save_ensemble(tmp_path, stacking_fit(_bases(ids, labels), ids, labels, "rf"),
                      {})
        assert verify_ensemble(tmp_path)
        victim = tmp_path / "params" / f"meta_{name}.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0x01
        victim.write_bytes(bytes(blob))
        assert not verify_ensemble(tmp_path)
        with pytest.raises(IoError):
            load_ensemble(tmp_path)

    def test_old_schema_rejected(self, tmp_path):
        out = self._saved(tmp_path)
        payload = json.loads((out / "ensemble.json").read_text())
        payload["schema_version"] = 1
        (out / "ensemble.json").write_text(json.dumps(payload))
        with pytest.raises(IoError, match="unsupported schema version 1"):
            load_ensemble(out)

    def test_schema_2_gate_rejected(self, tmp_path, separable):
        # a schema-2 dense gate was full width, with no gate_columns sidecar
        d, feats = separable
        ids = d.ids[:20]
        g = dgs_fit(_bases(ids, None), ids, d.labels_for(ids), feats,
                    DgsConfig("hard", "svm"), meta_cfg=MetaConfig(epochs=5))
        save_ensemble(tmp_path, g, {})
        payload = json.loads((tmp_path / "ensemble.json").read_text())
        payload["schema_version"] = 2
        (tmp_path / "ensemble.json").write_text(json.dumps(payload))
        with pytest.raises(IoError, match="unsupported schema version 2"):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("layout", ["linear-gate", "no-columns"])
    def test_gate_without_columns_rejected(self, layout, tmp_path, separable):
        # the layout of an lr gate that was a full-width linear model with
        # no gate_columns sidecar: not the payload save_ensemble writes
        d, feats = separable
        ids = d.ids[:20]
        g = dgs_fit(_bases(ids, None), ids, d.labels_for(ids), feats,
                    DgsConfig("hard", "lr"), meta_cfg=MetaConfig(epochs=5))
        save_ensemble(tmp_path, g, {})
        payload = json.loads((tmp_path / "ensemble.json").read_text())
        del payload["columns"], payload["params"]["gate_columns"]
        if layout == "linear-gate":
            payload["gate"] = {"type": "linear", "dims": feats.dims + 4,
                               "class_count": 2, "config": {"seed": 0},
                               "W": "gate_W", "b": "gate_b"}
        (tmp_path / "ensemble.json").write_text(json.dumps(payload))
        with pytest.raises(IoError, match="is not an ensemble save_ensemble writes"):
            load_ensemble(tmp_path)

    def test_detects_config_tamper(self, tmp_path):
        out = self._saved(tmp_path)
        payload = json.loads((out / "ensemble.json").read_text())
        payload["config"]["x"] = 999
        (out / "ensemble.json").write_text(json.dumps(payload))
        assert not verify_ensemble(out)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IoError):
            load_ensemble(tmp_path)

    def test_rerun_byte_identical(self, tmp_path):
        bases = _bases([f"s{i}" for i in range(6)], None)
        e = bagging_from_predictions(bases, "soft")
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        save_ensemble(d1, e, {"x": 1})
        save_ensemble(d2, e, {"x": 1})
        assert (d1 / "ensemble.json").read_bytes() == \
            (d2 / "ensemble.json").read_bytes()


# ---------------------------------------------------------------------------
# a built-in model is saved as it is held: W, b and columns
# ---------------------------------------------------------------------------

_DIMS = 24_581


def _model_on(columns, k, dims=_DIMS, seed=0):
    rng = np.random.default_rng(seed)
    columns = np.asarray(columns, dtype=np.int64)
    W = rng.normal(size=(k, len(columns)))
    if W.shape[1] >= 2:
        W[0, 0] = -0.0  # a signed zero keeps its bits
        W[:, 1] = 0.0  # a held column whose weights are all +0.0 stays held
    return LinearModel(W, rng.normal(size=k), dims, k, LearnerConfig(), columns)


_W_CASES = {
    # scattered over the width, with the neighbours 8191 and 8192
    "across_chunks": lambda: np.unique(np.concatenate([
        np.random.default_rng(1).choice(_DIMS, 300, replace=False),
        [8191, 8192, 16384]])),
    "no_columns": lambda: [],
    "first_and_last": lambda: [0, _DIMS - 1],
}


def _npy(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


@pytest.mark.parametrize("k", [2, 9])
@pytest.mark.parametrize("case", sorted(_W_CASES))
def test_w_sidecar_is_np_save_of_the_dense_w(case, k, tmp_path):
    # the held (K, columns) W, b and columns, each as np.save writes it
    m = _model_on(_W_CASES[case](), k)
    save_ensemble(tmp_path, BaggingEnsemble("soft", (m,), k))
    payload = json.loads((tmp_path / "ensemble.json").read_text())
    assert payload["members"][0]["columns"] == "member_0_columns"
    for name, arr in (("W", m.W), ("b", m.b), ("columns", m.columns)):
        blob = (tmp_path / "params" / f"member_0_{name}.npy").read_bytes()
        assert blob == _npy(arr), name
        assert payload["params"][f"member_0_{name}"]["sha256"] == \
            hashlib.sha256(blob).hexdigest()
    assert verify_ensemble(tmp_path)
    loaded, = load_ensemble(tmp_path).members
    for got, want in ((loaded.W, m.W), (loaded.b, m.b), (loaded.columns, m.columns)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (loaded.dims, loaded.class_count) == (_DIMS, k)


def test_saving_a_wide_model_peaks_below_two_mb(tmp_path):
    # a full-width W of K = 9 at 2^18 dims would be 18.9 MB
    dims = 1 << 18
    m = _model_on(np.sort(np.random.default_rng(2).choice(dims, 5000, replace=False)),
                  9, dims=dims)
    tracemalloc.start()
    try:
        save_ensemble(tmp_path, BaggingEnsemble("soft", (m,), 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert (tmp_path / "params" / "member_0_W.npy").stat().st_size == len(_npy(m.W))


# ---------------------------------------------------------------------------
# one refusal for every payload save_ensemble does not write
# ---------------------------------------------------------------------------

def _rewrite(out, edit):
    payload = json.loads((out / "ensemble.json").read_text())
    edit(payload)
    (out / "ensemble.json").write_text(json.dumps(payload))


def _replace_sidecar(out, name, arr):
    """Save ``arr`` as the sidecar ``name`` with its digest recorded, so
    only the array itself is wrong."""
    blob = _npy(arr)
    (out / "params" / f"{name}.npy").write_bytes(blob)
    _rewrite(out, lambda p: p["params"][name].update(sha256=hashlib.sha256(blob).hexdigest()))


def _saved_linear(out):
    m = _model_on([3, 8, 40, 41], 2, dims=64)
    save_ensemble(out, BaggingEnsemble("soft", (m,), 2), {"x": 1})
    return m


def _saved_gate(out, separable):
    d, feats = separable
    ids = d.ids[:20]
    g = dgs_fit(_bases(ids, None), ids, d.labels_for(ids), feats,
                DgsConfig("hard", "svm"), meta_cfg=MetaConfig(epochs=5))
    save_ensemble(out, g, {})
    return g


def test_schema_3_payload_is_refused(tmp_path):
    _saved_linear(tmp_path)
    _rewrite(tmp_path, lambda p: p.update(schema_version=3))
    with pytest.raises(IoError, match="unsupported schema version 3; this version "
                                      "reads schema 4"):
        load_ensemble(tmp_path)
    assert store.ensemble_fault(tmp_path).startswith("unsupported schema version 3")
    assert not verify_ensemble(tmp_path)


# a column set that is not strictly increasing integers in [0, width) with
# one entry per weight column; each case maps the saved columns to a bad one
_BAD_COLUMNS = {
    "unsorted": lambda c, w: c[::-1],
    "repeated": lambda c, w: np.concatenate([c[:1], c[:-1]]),
    "negative": lambda c, w: np.concatenate([[-1], c[1:]]),
    "at_width": lambda c, w: np.concatenate([c[:-1], [w]]),
    "one_short": lambda c, w: c[:-1],
    "float": lambda c, w: c.astype(np.float64),
    "two_dim": lambda c, w: c[None, :],
}


@pytest.mark.parametrize("case", sorted(_BAD_COLUMNS))
@pytest.mark.parametrize("owner", ["linear", "gate"])
def test_malformed_column_sidecar_is_refused(owner, case, tmp_path, separable):
    if owner == "linear":
        m = _saved_linear(tmp_path)
        name, cols, width = "member_0_columns", m.columns, m.dims
    else:
        g = _saved_gate(tmp_path, separable)
        name, cols, width = "gate_columns", g.columns, g.dims + 2 * g.class_count
    _replace_sidecar(tmp_path, name, _BAD_COLUMNS[case](cols, width))
    assert verify_ensemble(tmp_path)  # the digests match; the content is wrong
    with pytest.raises(IoError, match=f"sidecar {name} is not"):
        load_ensemble(tmp_path)


def test_missing_sidecar_is_refused(tmp_path):
    _saved_linear(tmp_path)
    (tmp_path / "params" / "member_0_columns.npy").unlink()
    assert "member_0_columns.npy" in store.ensemble_fault(tmp_path)
    with pytest.raises(IoError, match="FileNotFoundError: .*member_0_columns.npy"):
        load_ensemble(tmp_path)


def _drop(*keys):
    def edit(payload):
        *path, last = keys
        for key in path:
            payload = payload[key]
        del payload[last]
    return edit


# a schema-4 payload with a key missing or of the wrong type
_BAD_PAYLOADS = {
    "no-params": ("linear", _drop("params")),
    "no-variant": ("linear", _drop("variant")),
    "no-member-columns": ("linear", _drop("members", 0, "columns")),
    "no-member-config": ("linear", _drop("members", 0, "config")),
    "unknown-member-type": ("linear", lambda p: p["members"][0].update(type="tree")),
    "members-not-a-list": ("linear", lambda p: p.update(members=7)),
    "sidecar-not-listed": ("linear", lambda p: p["members"][0].update(W="member_9_W")),
    "no-gate-columns": ("gate", _drop("columns")),
    "gate-kind-missing": ("gate", _drop("gate", "kind")),
    "dims-a-string": ("gate", lambda p: p.update(dims="64")),
}


@pytest.mark.parametrize("case", sorted(_BAD_PAYLOADS))
def test_missing_or_mistyped_key_is_one_io_error(case, tmp_path, separable):
    owner, edit = _BAD_PAYLOADS[case]
    if owner == "linear":
        _saved_linear(tmp_path)
    else:
        _saved_gate(tmp_path, separable)
    _rewrite(tmp_path, edit)
    with pytest.raises(IoError, match="is not an ensemble save_ensemble writes"):
        load_ensemble(tmp_path)
