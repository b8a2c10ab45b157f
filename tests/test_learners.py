"""Built-in learner training/prediction and the external file protocol."""

import numpy as np
import pytest

from conftest import TEST_FEATURIZER
from vulforge import synth
from vulforge.core import make_prediction_set
from vulforge.errors import (
    DimensionMismatch,
    DuplicateId,
    MalformedProbVector,
    MissingSample,
    ProtocolOrderError,
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
            assert np.allclose(one, many[i], atol=1e-12)

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
