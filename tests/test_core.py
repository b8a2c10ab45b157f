"""Probability-vector validation, decision conventions, PredictionSet."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vulforge.core import (
    INGEST_SUM_TOL,
    PredictionSet,
    argmax_label,
    binary_label,
    make_prediction_set,
    validate_prob_vector,
)
from vulforge.errors import (
    CoverageMismatch,
    InvalidProbVector,
    NegativeEntry,
    SumOutOfTolerance,
)


class TestValidateProbVector:
    def test_accepts_and_renormalizes(self):
        p = validate_prob_vector([0.5, 0.5 + 5e-7])
        assert abs(p.sum() - 1.0) < 1e-15

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_prob_vector([-0.1, 1.1])

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance):
            validate_prob_vector([0.6, 0.6])

    @pytest.mark.parametrize("raw", [[np.nan, np.nan], [np.nan, 1.0],
                                     [0.5, np.nan, 0.5]])
    def test_nan_entry(self, raw):
        with pytest.raises(SumOutOfTolerance):
            validate_prob_vector(raw)

    def test_entry_above_one(self):
        with pytest.raises(InvalidProbVector):
            validate_prob_vector([1.5, -0.0, 0.0])

    def test_empty_or_2d(self):
        with pytest.raises(InvalidProbVector):
            validate_prob_vector([])
        with pytest.raises(InvalidProbVector):
            validate_prob_vector([[0.5, 0.5]])

    @given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8))
    def test_renormalized_sum_property(self, raw):
        scaled = np.array(raw) / sum(raw)
        # perturb within the ingest tolerance
        scaled[0] += INGEST_SUM_TOL / 2
        if scaled[0] > 1.0:
            scaled[0] = 1.0
        p = validate_prob_vector(scaled)
        assert abs(float(p.sum()) - 1.0) <= 1e-9


class TestDecisions:
    def test_argmax_tie_lowest_index(self):
        assert argmax_label([0.4, 0.4, 0.2]) == 0
        assert argmax_label([0.2, 0.4, 0.4]) == 1

    def test_binary_threshold(self):
        assert binary_label(0.5) == 1
        assert binary_label(0.4999) == 0


class TestPredictionSet:
    def test_row_and_reindex(self):
        p = make_prediction_set("m", "test",
                                {"a": [0.7, 0.3], "b": [0.2, 0.8]})
        assert np.allclose(p.row("b"), [0.2, 0.8])
        assert "a" in p and "c" not in p
        assert np.allclose(p.reindexed(["b", "a"]),
                           [[0.2, 0.8], [0.7, 0.3]])

    def test_reindex_coverage(self):
        p = make_prediction_set("m", "test", {"a": [1.0, 0.0]})
        with pytest.raises(CoverageMismatch):
            p.reindexed(["a", "zzz"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidProbVector):
            PredictionSet("m", "test", ("a", "a"),
                          np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidProbVector):
            PredictionSet("m", "test", ("a",), np.array([[1.0, 0.0]] * 2))

    def test_probs_immutable(self):
        p = make_prediction_set("m", "val", {"a": [0.5, 0.5]})
        with pytest.raises(ValueError):
            p.probs[0, 0] = 9.0

    @pytest.mark.parametrize("bad", [[True, False], ["0.5", "0.5"], [0.5, None]])
    def test_non_number_probs_rejected(self, bad):
        with pytest.raises(InvalidProbVector, match="not a non-empty list") as exc:
            make_prediction_set("m", "test", {"a": [0.5, 0.5], "b": bad})
        assert exc.value.row == 1

    def test_inconsistent_widths(self):
        with pytest.raises(InvalidProbVector):
            make_prediction_set("m", "val",
                                {"a": [0.5, 0.5], "b": [0.3, 0.3, 0.4]})
