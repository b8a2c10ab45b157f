"""Built-in learner training/prediction and the external file protocol."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import TEST_FEATURIZER, random_feature_matrix
from vulforge import synth
from vulforge.core import PredictionSet
from vulforge.core import (
    INGEST_SUM_TOL,
    make_prediction_set,
    validate_prob_matrix,
    validate_prob_vector,
)
from vulforge.errors import (
    DimensionMismatch,
    DuplicateId,
    InvalidProbVector,
    MalformedProbVector,
    MissingSample,
    NegativeEntry,
    ProtocolOrderError,
    SumOutOfTolerance,
    UnknownSample,
    WeightCoverageMismatch,
)
from vulforge.learners import (
    LearnerConfig,
    SampleWeights,
    emit_round_weights,
    featurize_dataset,
    fit_builtin,
    ingest_predictions,
    ingest_round_predictions,
    predict_builtin,
    predict_builtin_many,
    unit_rows,
    write_predictions,
)


class TestSampleWeights:
    def test_uniform(self):
        w = SampleWeights.uniform(["a", "b", "c", "d"])
        assert np.allclose(w.weights, 0.25)

    def test_normalized(self):
        w = SampleWeights.normalized(["a", "b"], [3.0, 1.0])
        assert np.allclose(w.weights, [0.75, 0.25])

    def test_negative_rejected(self):
        with pytest.raises(WeightCoverageMismatch):
            SampleWeights(("a", "b"), np.array([1.5, -0.5]))

    def test_sum_enforced(self):
        with pytest.raises(WeightCoverageMismatch):
            SampleWeights(("a", "b"), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes both the sign and the sum check; a weights.jsonl line
        # holding it would not be JSON
        with pytest.raises(WeightCoverageMismatch, match="non-finite"):
            SampleWeights(("a", "b"), np.array([bad, 1.0]))

    def test_all_zero_raw_weights_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(WeightCoverageMismatch,
                                                          match="non-finite"):
            SampleWeights.normalized(["a", "b"], [0.0, 0.0])  # 0 / 0 is NaN


class TestUnitRows:
    def test_rows_normalized(self):
        indptr = np.array([0, 2, 3], dtype=np.int64)
        data = np.array([3.0, 4.0, 7.0])
        out = unit_rows(indptr, data)
        assert np.allclose(out, [0.6, 0.8, 1.0])

    def test_zero_row_passthrough(self):
        indptr = np.array([0, 0, 1], dtype=np.int64)
        data = np.array([2.0])
        assert np.allclose(unit_rows(indptr, data), [1.0])


class TestFitBuiltin:
    def test_learns_separable(self, separable):
        d, feats = separable
        cfg = LearnerConfig(epochs=1, learning_rate=2.0, batch_size=len(d), seed=0)
        m = fit_builtin(d, d.ids, SampleWeights.uniform(d.ids), cfg, feats)
        probs = predict_builtin_many(m, *feats.rows_for(d.ids))
        acc = (probs.argmax(1) == d.labels_for(d.ids)).mean()
        assert acc > 0.9

    def test_single_matches_batch(self, separable):
        d, feats = separable
        cfg = LearnerConfig(epochs=2, batch_size=64, seed=1)
        m = fit_builtin(d, d.ids, SampleWeights.uniform(d.ids), cfg, feats)
        many = predict_builtin_many(m, *feats.rows_for(d.ids[:5]))
        for i, sid in enumerate(d.ids[:5]):
            one = predict_builtin(m, feats.vector_for(sid))
            assert np.array_equal(one, many[i])

    def test_deterministic(self, separable):
        d, feats = separable
        cfg = LearnerConfig(epochs=2, batch_size=32, seed=5)
        w = SampleWeights.uniform(d.ids)
        a = fit_builtin(d, d.ids, w, cfg, feats)
        b = fit_builtin(d, d.ids, w, cfg, feats)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)

    def test_weight_coverage_enforced(self, separable):
        d, feats = separable
        w = SampleWeights.uniform(d.ids[:10])
        with pytest.raises(WeightCoverageMismatch):
            fit_builtin(d, d.ids, w, LearnerConfig(), feats)

    def test_epochs_validated(self, separable):
        d, feats = separable
        with pytest.raises(ValueError):
            fit_builtin(d, d.ids, SampleWeights.uniform(d.ids),
                        LearnerConfig(epochs=0), feats)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_validated(self, separable, batch_size):
        d, feats = separable
        with pytest.raises(ValueError):
            fit_builtin(d, d.ids, SampleWeights.uniform(d.ids),
                        LearnerConfig(batch_size=batch_size), feats)

    def test_dims_mismatch_on_predict(self, separable):
        d, feats = separable
        cfg = LearnerConfig(epochs=1, batch_size=len(d))
        m = fit_builtin(d, d.ids, SampleWeights.uniform(d.ids), cfg, feats)
        other = featurize_dataset(synth.separable_corpus(10, seed=0))
        with pytest.raises(DimensionMismatch):
            predict_builtin(m, other.vector_for(other.ids[0]))


def _ref_rows_for(fm, ids):
    """The per-row gather FeatureMatrix.rows_for replaced."""
    rows = [fm._index[s] for s in ids]
    lens = fm.indptr[1:] - fm.indptr[:-1]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(lens[rows])
    if len(rows):
        indices = np.concatenate([fm.indices[fm.indptr[r]:fm.indptr[r + 1]] for r in rows])
        data = np.concatenate([fm.data[fm.indptr[r]:fm.indptr[r + 1]] for r in rows])
    else:
        indices = np.empty(0, np.int64)
        data = np.empty(0)
    return indptr, indices, data


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2**32 - 1), st.data())
def test_rows_for_bit_identical_to_per_row_gather(n_rows, seed, data):
    fm = random_feature_matrix(np.random.default_rng(seed), n_rows)
    # empty id lists, repeated ids and empty feature rows all occur
    picks = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=30))
    ids = [fm.ids[i] for i in picks]
    for got, ref in zip(fm.rows_for(ids), _ref_rows_for(fm, ids)):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


class TestFileProtocol:
    def _predset(self, ids):
        rows = {s: [0.6, 0.4] for s in ids}
        return make_prediction_set("ext", "val", rows)

    def test_write_ingest_roundtrip(self, tmp_path):
        ids = [f"s{i}" for i in range(6)]
        p = self._predset(ids)
        write_predictions(tmp_path, p)
        q = ingest_predictions(tmp_path, "ext", "val", ids)
        assert q.ids == p.ids
        assert np.allclose(q.probs, p.probs)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingSample):
            ingest_predictions(tmp_path, "nope", "val", ["a"])

    def test_missing_sample(self, tmp_path):
        write_predictions(tmp_path, self._predset(["a", "b"]))
        with pytest.raises(MissingSample):
            ingest_predictions(tmp_path, "ext", "val", ["a", "b", "c"])

    def test_unknown_sample(self, tmp_path):
        write_predictions(tmp_path, self._predset(["a", "b"]))
        with pytest.raises(UnknownSample):
            ingest_predictions(tmp_path, "ext", "val", ["a"])

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "preds" / "ext"
        path.mkdir(parents=True)
        line = '{"id": "a", "probs": [0.5, 0.5]}\n'
        (path / "val.jsonl").write_text(line + line)
        with pytest.raises(DuplicateId):
            ingest_predictions(tmp_path, "ext", "val", ["a"])

    def test_malformed_probs(self, tmp_path):
        path = tmp_path / "preds" / "ext"
        path.mkdir(parents=True)
        (path / "val.jsonl").write_text('{"id": "a", "probs": [0.9, 0.9]}\n')
        with pytest.raises(MalformedProbVector):
            ingest_predictions(tmp_path, "ext", "val", ["a"])

    def test_nan_probs(self, tmp_path):
        path = tmp_path / "preds" / "ext"
        path.mkdir(parents=True)
        (path / "val.jsonl").write_text('{"id": "a", "probs": [NaN, NaN]}\n')
        with pytest.raises(MalformedProbVector):
            ingest_predictions(tmp_path, "ext", "val", ["a"])

    def test_round_order_enforced(self, tmp_path):
        w = SampleWeights.uniform(["a", "b"])
        with pytest.raises(ProtocolOrderError):
            emit_round_weights(tmp_path, 2, w)
        emit_round_weights(tmp_path, 1, w)
        emit_round_weights(tmp_path, 2, w)
        with pytest.raises(ProtocolOrderError):
            emit_round_weights(tmp_path, 0, w)

    def test_round_predictions_roundtrip(self, tmp_path):
        ids = ["a", "b"]
        emit_round_weights(tmp_path, 1, SampleWeights.uniform(ids))
        rows = "\n".join(
            f'{{"id": "{s}", "probs": [0.3, 0.7]}}' for s in ids)
        (tmp_path / "boost" / "round_1" / "preds_train.jsonl").write_text(rows)
        p = ingest_round_predictions(tmp_path, 1, "train", ids)
        assert p.model_id == "round_1" and p.ids == ("a", "b")


# ---------------------------------------------------------------------------
# the JSONL writers against json.dumps, the bytes they always wrote
# ---------------------------------------------------------------------------

_JSON_IDS = st.one_of(st.text(max_size=8),
                      st.sampled_from(["\ud800", 'a"b\\c', "\x00\x1f\x7f", "é\u2028",
                                       "\U0001d11e", "/"]))
_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, 0.1, 1 / 3,
                                                     1e16, 1e-7]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.lists(_JSON_IDS, min_size=1, max_size=8, unique=True), st.data())
def test_write_predictions_bytes_are_json_dumps(k, ids, data):
    # NaN and +-inf included: a PredictionSet does not check its values
    probs = np.array(data.draw(st.lists(st.lists(_ANY_FLOAT, min_size=k, max_size=k),
                                        min_size=len(ids), max_size=len(ids))),
                     dtype=np.float64).reshape(len(ids), k)
    p = PredictionSet("m", "test", tuple(ids), probs)
    blobs = []
    write_predictions("root", p, write=lambda path, blob: blobs.append(blob))
    ref = "".join(json.dumps({"id": s, "probs": p.row(s).tolist()}) + "\n" for s in ids)
    assert blobs == [ref.encode("utf-8")]


def _weights_reference(w: SampleWeights) -> bytes:
    return ("\n".join(json.dumps({"id": s, "weight": float(x)})
                       for s, x in zip(w.ids, w.weights)) + "\n").encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_JSON_IDS, st.floats(0.0, 1e300)), min_size=1, max_size=8,
                unique_by=lambda row: row[0]))
def test_round_weights_bytes_are_json_dumps(rows):
    raw = [x for _, x in rows]
    assume(sum(raw) > 0)
    w = SampleWeights.normalized([s for s, _ in rows], raw)
    with tempfile.TemporaryDirectory() as tmp:
        assert emit_round_weights(tmp, 1, w).read_bytes() == _weights_reference(w)


def test_boosting_round_weights_file_is_json_dumps_bytes(tmp_path):
    """A 10,240-row weights file after four SAMME updates at K = 9, the size
    of an external boosting round: the bytes json.dumps gives."""
    from vulforge.ensembles import _boost_step

    rng = np.random.default_rng(1)
    n = 10_240
    w = np.full(n, 1.0 / n)
    ids = tuple(f"s{i:06d}" for i in range(n))
    for t in range(1, 5):
        path = emit_round_weights(tmp_path, t, SampleWeights(ids, w.copy()))
        assert path.read_bytes() == _weights_reference(SampleWeights(ids, w.copy()))
        w = _boost_step(w, rng.random(n) < 0.3, 9)[2]


# ---------------------------------------------------------------------------
# batch ingest against the per-row reader it replaced
# ---------------------------------------------------------------------------

def _ref_validate_prob_vector(raw):
    """The per-row validator, kept as the reference."""
    p = np.asarray(raw, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidProbVector(f"expected non-empty 1-d vector, got shape {p.shape}")
    if np.any(p < 0.0):
        raise NegativeEntry(f"negative entries in {p!r}")
    if np.any(p > 1.0 + INGEST_SUM_TOL):
        raise InvalidProbVector(f"entries above 1 in {p!r}")
    s = float(p.sum())
    if not abs(s - 1.0) <= INGEST_SUM_TOL:
        raise SumOutOfTolerance(f"entries sum to {s}")
    if s != 1.0:
        p = p / s
    return p


def _ref_make_prediction_set(model_id, split, rows):
    ids = tuple(rows)
    widths = {len(rows[s]) for s in ids}
    if len(widths) > 1:
        raise InvalidProbVector(f"inconsistent class counts {sorted(widths)}")
    probs = (np.vstack([_ref_validate_prob_vector(rows[s]) for s in ids])
             if ids else np.zeros((0, 0)))
    return ids, probs


def _ref_ingest(path, expected_ids):
    """The per-row reader: validate each row, then again per row while
    building the set."""
    expected = set(expected_ids)
    rows = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            sid = rec["id"]
            if sid not in expected:
                raise UnknownSample(sid)
            if sid in rows:
                raise DuplicateId(sid)
            try:
                rows[sid] = _ref_validate_prob_vector(rec["probs"])
            except InvalidProbVector as exc:
                raise MalformedProbVector(f"sample {sid!r}: {exc}") from exc
    if expected - set(rows):
        raise MissingSample(path.name)
    return _ref_make_prediction_set("ext", "val", {s: rows[s] for s in expected_ids})


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


@st.composite
def _prob_row(draw, k):
    kind = draw(st.sampled_from(["scaled", "onehot_int", "onehot", "dyadic"]))
    if kind == "onehot_int":
        row = [0] * k
        row[draw(st.integers(0, k - 1))] = 1
        return row
    if kind == "onehot":
        row = [0.0] * k
        row[draw(st.integers(0, k - 1))] = 1.0
        return row
    if kind == "dyadic":  # sums to exactly 1
        row = [0.0] * k
        row[0], row[k - 1] = 0.25, 0.75
        return row
    raw = np.array(draw(st.lists(st.floats(0.001, 1.0), min_size=k, max_size=k)))
    # off by up to 90% of the tolerance, so rounding keeps the row valid
    off = draw(st.floats(-0.9, 0.9)) * INGEST_SUM_TOL
    return (raw / raw.sum() * (1.0 + off)).tolist()


@st.composite
def _pred_files(draw):
    k = draw(st.sampled_from([2, 3, 9]))
    n = draw(st.integers(1, 12))
    ids = [f"s{i}" for i in range(n)]
    rows = {s: draw(_prob_row(k)) for s in ids}
    order = draw(st.permutations(ids))
    blanks = draw(st.lists(st.integers(0, n), max_size=3))
    return ids, order, rows, blanks


def _render(order, rows, blanks, extra=()):
    lines = [json.dumps({"id": s, "probs": rows[s]}) for s in order]
    lines += list(extra)
    for pos in sorted(blanks, reverse=True):
        lines.insert(pos, "   ")
    return "\n".join(lines) + "\n"


def _ingest_both(text, expected_ids):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preds" / "ext" / "val.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        new = _outcome(lambda: ingest_predictions(tmp, "ext", "val", expected_ids))
        ref = _outcome(lambda: _ref_ingest(path, expected_ids))
    return new, ref


@settings(max_examples=200, deadline=None)
@given(_pred_files())
def test_ingest_bit_identical_to_per_row_reader(case):
    ids, order, rows, blanks = case
    new, ref = _ingest_both(_render(order, rows, blanks), ids)
    assert isinstance(ref, tuple), ref
    assert new.ids == ref[0] == tuple(ids)
    assert new.probs.dtype == np.float64
    assert np.array_equal(new.probs, ref[1])


_FAULTS = ("negative", "above_one", "nan", "sum", "empty", "scalar", "ragged",
           "unknown", "duplicate", "missing")


@settings(max_examples=200, deadline=None)
@given(_pred_files(), st.sampled_from(_FAULTS), st.data())
def test_single_fault_raises_like_per_row_reader(case, fault, data):
    ids, order, rows, blanks = case
    assume(fault != "ragged" or len(ids) > 1)  # one row has no width to differ from
    k = len(rows[ids[0]])
    victim = data.draw(st.sampled_from(ids))
    extra = []
    bad = {
        "negative": [-0.25, 1.25] + [0.0] * (k - 2),
        "above_one": [1.5] + [0.0] * (k - 1),
        "nan": [float("nan")] + [1.0 / (k - 1)] * (k - 1),
        "sum": [0.9 / k] * k,
        "empty": [],
        "scalar": 1.0,
        "ragged": [1.0] + [0.0] * k,
    }
    if fault in bad:
        rows = {**rows, victim: bad[fault]}
    elif fault == "unknown":
        extra = [json.dumps({"id": "zz", "probs": rows[victim]})]
    elif fault == "duplicate":
        extra = [json.dumps({"id": victim, "probs": rows[victim]})]
    else:
        order = [s for s in order if s != victim]
    new, ref = _ingest_both(_render(order, rows, blanks, extra), ids)
    assert isinstance(ref, type) and issubclass(ref, Exception), fault
    assert new is ref, (fault, new, ref)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 9]), st.data())
def test_matrix_validator_matches_per_row(k, data):
    rows = data.draw(st.lists(st.one_of(
        _prob_row(k),
        st.lists(st.one_of(st.floats(-0.1, 1.2), st.just(float("nan"))),
                 min_size=k, max_size=k)),
        min_size=1, max_size=8))
    P = np.array(rows, dtype=np.float64)
    expected = [_outcome(lambda r=r: _ref_validate_prob_vector(r)) for r in P]
    first_bad = next((i for i, e in enumerate(expected) if isinstance(e, type)), None)
    got = _outcome(lambda: validate_prob_matrix(P))
    if first_bad is None:
        assert np.array_equal(got, np.vstack(expected))
    else:
        assert got is expected[first_bad]
        with pytest.raises(InvalidProbVector) as exc:
            validate_prob_matrix(P)
        assert exc.value.row == first_bad
    for r, e in zip(P, expected):
        one = _outcome(lambda r=r: validate_prob_vector(r))
        if isinstance(e, type):
            assert one is e
        else:
            assert np.array_equal(one, e)
            assert np.array_equal(one, validate_prob_matrix(r[None])[0])


_PROBS_FAULTS = ("negative", "above_one", "nan", "sum", "empty", "scalar")
_ID_FAULTS = {"unknown": UnknownSample, "duplicate": DuplicateId, "missing": MissingSample,
              "no_probs": MalformedProbVector}


@settings(max_examples=150, deadline=None)
@given(_pred_files(), st.sampled_from(_PROBS_FAULTS), st.sampled_from(sorted(_ID_FAULTS)),
       st.data())
def test_id_fault_anywhere_comes_before_a_probs_fault(case, probs_fault, id_fault, data):
    # The per-row reader raised the fault of the earliest line; the batch
    # reader checks every line's id before it validates any probs.
    ids, order, rows, blanks = case
    assume(len(ids) > 1)
    k = len(rows[ids[0]])
    bad = {"negative": [-0.25, 1.25] + [0.0] * (k - 2), "above_one": [1.5] + [0.0] * (k - 1),
           "nan": [float("nan")] * k, "sum": [0.9 / k] * k, "empty": [], "scalar": 1.0}
    first = order[0]
    rows = {**rows, first: bad[probs_fault]}
    other = data.draw(st.sampled_from([s for s in ids if s != first]))
    lines = [json.dumps({"id": s, "probs": rows[s]}) for s in order]
    if id_fault == "unknown":
        lines.append(json.dumps({"id": "zz", "probs": rows[other]}))
    elif id_fault == "duplicate":
        lines.append(json.dumps({"id": other, "probs": rows[other]}))
    elif id_fault == "missing":
        lines = [ln for s, ln in zip(order, lines) if s != other]
    else:
        lines = [json.dumps({"id": s}) if s == other else ln for s, ln in zip(order, lines)]
    new, ref = _ingest_both("\n".join(lines) + "\n", ids)
    assert new is _ID_FAULTS[id_fault]
    if id_fault != "no_probs":  # the per-row reader had no check for it
        assert ref is MalformedProbVector


def test_probs_fault_precedence(tmp_path):
    """Row shapes first, then differing lengths, then values, the first bad
    row in split order."""
    root = tmp_path / "preds" / "ext"
    root.mkdir(parents=True)

    def ingest(rows):
        (root / "val.jsonl").write_text(
            "".join(json.dumps({"id": s, "probs": p}) + "\n" for s, p in rows.items()),
            encoding="utf-8")
        return ingest_predictions(tmp_path, "ext", "val", ["a", "b", "c"])

    with pytest.raises(MalformedProbVector, match="sample 'c'.*non-empty"):
        ingest({"a": [-1.0, 2.0], "b": [0.2, 0.3, 0.5], "c": []})
    with pytest.raises(InvalidProbVector, match="inconsistent class counts") as exc:
        ingest({"a": [-1.0, 2.0], "b": [0.2, 0.3, 0.5], "c": [0.5, 0.5]})
    assert not isinstance(exc.value, MalformedProbVector)
    with pytest.raises(MalformedProbVector, match="sample 'a'"):
        ingest({"c": [0.9, 0.9], "a": [0.5, 0.6], "b": [0.5, 0.5]})
    # a bool or a string is not a number: a row-shape fault, named by sample
    for bad in ([True, False], ["0.5", "0.5"]):
        with pytest.raises(MalformedProbVector, match="sample 'b'.*non-empty"):
            ingest({"a": [-1.0, 2.0], "b": bad, "c": [0.2, 0.3, 0.5]})
