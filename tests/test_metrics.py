"""Confusion metrics, rank tables, divergence, overlap regions, writers."""

import csv

import numpy as np
import pytest

from conftest import make_predset
from vulforge.errors import CoverageMismatch, LengthMismatch, TooManySets
from vulforge.metrics import (
    RankTable,
    average_rank,
    binary_metrics,
    divergence,
    f1_score,
    overlap_regions,
    weighted_metrics,
    write_boost_weights_csv,
    write_divergence_csv,
    write_overlap_csv,
    write_ranks_csv,
    write_report_csv,
)


class TestBinaryMetrics:
    def test_hand_computed(self):
        #           tp fn fp tn
        preds = [1, 1, 0, 1, 0, 0]
        truth = [1, 1, 1, 0, 0, 0]
        r = binary_metrics(preds, truth)
        assert r.tp == 2 and r.fn == 1 and r.fp == 1 and r.tn == 2
        assert r.accuracy == pytest.approx(4 / 6)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)

    def test_zero_denominators(self):
        r = binary_metrics([0, 0], [0, 0])
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        assert f1_score(0.0, 0.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            binary_metrics([1], [1, 0])
        with pytest.raises(LengthMismatch):
            binary_metrics([], [])

    def test_human_percent_format(self):
        r = binary_metrics([1, 0], [1, 1])
        assert "Accuracy 50.00" in r.human()
        assert "F1" in r.human()


class TestWeightedMetrics:
    def test_hand_computed(self):
        preds = [0, 1, 2, 2, 1, 0]
        truth = [0, 1, 1, 2, 2, 0]
        r = weighted_metrics(preds, truth, 3)
        assert r.accuracy == pytest.approx(4 / 6)
        assert r.class_weights == (2, 2, 2)
        # per-class P = (1, 0.5, 0.5), R = (1, 0.5, 0.5), equal supports
        assert r.w_precision == pytest.approx(2 / 3)
        assert r.w_recall == pytest.approx(2 / 3)
        assert r.w_f1 == pytest.approx(2 / 3)

    def test_label_range_checked(self):
        with pytest.raises(LengthMismatch):
            weighted_metrics([3], [0], 3)

    @pytest.mark.parametrize("preds,truth", [([0, 1, -1], [0, 1, 1]),
                                             ([0, 1, 2], [0, 1, 1]),
                                             ([0, 1, 1], [0, -1, 1])],
                             ids=["negative-pred", "pred-past-k", "negative-truth"])
    def test_labels_outside_range_rejected(self, preds, truth):
        # -1 must not wrap around to class K-1, and K must not escape as IndexError
        with pytest.raises(LengthMismatch, match="outside"):
            binary_metrics(preds, truth)
        with pytest.raises(LengthMismatch, match="outside"):
            weighted_metrics(preds, truth, 2)

    def test_weighted_names_read_the_averages(self):
        r = weighted_metrics([0, 1, 2, 2], [0, 1, 1, 2], 3)
        assert (r.w_precision, r.w_recall, r.w_f1) == (r.precision, r.recall, r.f1)
        assert binary_metrics([0, 1], [0, 1]).w_f1 is None

    def test_to_dict_includes_weighted_fields(self):
        r = weighted_metrics([0, 1], [0, 1], 2)
        d = r.to_dict()
        assert "w_f1" in d and "convention" in d


class TestRanking:
    def test_average_tie_rule(self):
        # one instance, one metric, scores 3, 1, 3 -> ranks 1.5, 3, 1.5
        scores = np.array([[[3.0]], [[1.0]], [[3.0]]])
        t = average_rank(scores, ["a", "b", "c"], ["i"], ["m"], "average")
        assert t.ranks[:, 0, 0].tolist() == [1.5, 3.0, 1.5]

    def test_competition_tie_rule(self):
        scores = np.array([[[3.0]], [[1.0]], [[3.0]]])
        t = average_rank(scores, ["a", "b", "c"], ["i"], ["m"], "competition")
        assert t.ranks[:, 0, 0].tolist() == [1.0, 3.0, 1.0]

    def test_averaging_across_instances(self):
        scores = np.array([[[2.0], [1.0]],
                           [[1.0], [2.0]]])
        t = average_rank(scores, ["a", "b"], ["i1", "i2"], ["m"])
        assert t.averages[:, 0].tolist() == [1.5, 1.5]

    def test_unknown_tie_rule(self):
        with pytest.raises(ValueError):
            average_rank(np.ones((2, 1, 1)), ["a", "b"], ["i"], ["m"], "dense")


class TestDivergence:
    def test_divergent_subset_and_proportions(self):
        ids = ["a", "b", "c"]
        truth = {"a": 0, "b": 1, "c": 1}
        p1 = make_predset("m1", "test", ids,
                          [[0.9, 0.1], [0.2, 0.8], [0.9, 0.1]])
        p2 = make_predset("m2", "test", ids,
                          [[0.9, 0.1], [0.2, 0.8], [0.1, 0.9]])
        rep = divergence([p1, p2], truth)
        assert rep.divergent_ids == frozenset({"c"})
        assert rep.correct_proportion == {"m1": 0.0, "m2": 1.0}

    def test_no_divergence(self):
        ids = ["a"]
        p1 = make_predset("m1", "test", ids, [[0.9, 0.1]])
        p2 = make_predset("m2", "test", ids, [[0.8, 0.2]])
        rep = divergence([p1, p2], {"a": 0})
        assert rep.divergent_ids == frozenset()
        assert rep.correct_proportion == {"m1": 0.0, "m2": 0.0}

    def test_needs_two_sets(self):
        p1 = make_predset("m1", "test", ["a"], [[0.9, 0.1]])
        with pytest.raises(CoverageMismatch):
            divergence([p1], {"a": 0})


class TestOverlap:
    def test_three_sets(self):
        regions = overlap_regions([{1, 2}, {2, 3}, {3}])
        assert regions[0b001] == 1      # only set 0: element 1
        assert regions[0b011] == 1      # sets 0 and 1: element 2
        assert regions[0b110] == 1      # sets 1 and 2: element 3
        assert regions[0b111] == 0
        assert sum(regions.values()) == 3

    def test_set_count_limits(self):
        with pytest.raises(TooManySets):
            overlap_regions([])
        with pytest.raises(TooManySets):
            overlap_regions([set()] * 7)


class TestWriters:
    def test_report_csv(self, tmp_path):
        write_report_csv(tmp_path / "r.csv", [{"a": 1, "b": 2}, {"a": 3}])
        rows = list(csv.DictReader((tmp_path / "r.csv").open()))
        assert rows[0]["a"] == "1" and rows[1]["b"] == ""

    def test_ranks_csv(self, tmp_path):
        t = RankTable(("a",), ("i",), ("m",), np.ones((1, 1, 1)),
                      np.ones((1, 1)), "average")
        write_ranks_csv(tmp_path / "ranks.csv", t)
        text = (tmp_path / "ranks.csv").read_text()
        assert "method,m" in text

    def test_overlap_csv_bitmask_padding(self, tmp_path):
        write_overlap_csv(tmp_path / "o.csv", {1: 2, 2: 0, 3: 1}, set_count=2)
        lines = (tmp_path / "o.csv").read_text().splitlines()
        assert lines[1].startswith("01,")

    def test_divergence_and_weights_csv(self, tmp_path):
        p1 = make_predset("m1", "test", ["a"], [[0.9, 0.1]])
        p2 = make_predset("m2", "test", ["a"], [[0.1, 0.9]])
        rep = divergence([p1, p2], {"a": 1})
        write_divergence_csv(tmp_path / "d.csv", rep)
        assert "m1" in (tmp_path / "d.csv").read_text()
        write_boost_weights_csv(tmp_path / "w.csv", 1, ["a"], [1.0], [1])
        assert "id,weight,label" in (tmp_path / "w.csv").read_text()
