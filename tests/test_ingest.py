"""Dataset loading, stratified splits, bootstrap plans, CWE subsets."""

import json

import pytest

from vulforge import synth
from vulforge.errors import (
    ClassTooSmall,
    DuplicateId,
    MalformedRecord,
    UnknownCwe,
    UnknownLabel,
)
from vulforge.ingest import (
    bootstrap,
    cwe_subset,
    load_dataset,
    load_splits,
    save_splits,
    stratified_split,
    top_cwes,
)


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def _records(n=30, k=2):
    return [{"id": f"s{i}", "code": f"int f() {{ return {i}; }}",
             "label": i % k, "cwe": None, "pair_id": None} for i in range(n)]


class TestLoadDataset:
    def test_binary_roundtrip(self, tmp_path):
        p = tmp_path / "d.jsonl"
        _write_jsonl(p, _records())
        d = load_dataset(p, "binary")
        assert len(d) == 30 and d.class_count == 2
        assert d.by_id("s3").label == 1

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": "a", "code": "x", "label": 0}\nnot json\n')
        with pytest.raises(MalformedRecord) as exc:
            load_dataset(p, "binary")
        assert exc.value.line_no == 2

    def test_non_string_code(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": "a", "code": "x", "label": 0}\n'
                     '{"id": "b", "code": 5, "label": 0}\n')
        with pytest.raises(MalformedRecord) as exc:
            load_dataset(p, "binary")
        assert exc.value.line_no == 2

    def test_not_utf8_names_its_line(self, tmp_path):
        # the text reader decodes ahead in chunks; the line is found exactly
        p = tmp_path / "d.jsonl"
        good = b"".join(b'{"id": "s%d", "code": "x", "label": 0}\n' % i
                        for i in range(500))
        p.write_bytes(good + b'{"id": "bad", "code": "\xff", "label": 0}\n' + good)
        with pytest.raises(MalformedRecord, match="is not UTF-8 text") as exc:
            load_dataset(p, "binary")
        assert exc.value.line_no == 501

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "d.jsonl"
        recs = _records(4)
        recs[3]["id"] = recs[0]["id"]
        _write_jsonl(p, recs)
        with pytest.raises(DuplicateId):
            load_dataset(p, "binary")

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "d.jsonl"
        recs = _records(4)
        recs[0]["label"] = 5
        _write_jsonl(p, recs)
        with pytest.raises(UnknownLabel):
            load_dataset(p, "binary")

    def test_multiclass_requires_cwe(self, tmp_path):
        p = tmp_path / "d.jsonl"
        recs = _records(4)
        recs[1]["label"] = 1  # vulnerable but cwe is null
        _write_jsonl(p, recs)
        with pytest.raises(MalformedRecord):
            load_dataset(p, "multiclass")

    def test_multiclass_k_inference(self, tmp_path):
        p = tmp_path / "d.jsonl"
        recs = []
        for i in range(20):
            label = i % 3
            recs.append({"id": f"s{i}", "code": "x", "label": label,
                         "cwe": f"CWE-{100 + label}" if label else None})
        _write_jsonl(p, recs)
        d = load_dataset(p, "multiclass")
        assert d.class_count == 3

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(ValueError):
            load_dataset(tmp_path / "x.jsonl", "ternary")


class TestStratifiedSplit:
    def test_partition_and_determinism(self):
        d = synth.separable_corpus(200, seed=0)
        s1 = stratified_split(d, 7)
        s2 = stratified_split(d, 7)
        assert s1 == s2
        all_ids = list(s1.train) + list(s1.val) + list(s1.test)
        assert sorted(all_ids) == sorted(d.ids)

    def test_per_class_floor_rule(self):
        d = synth.separable_corpus(250, seed=0)  # 125 per class
        s = stratified_split(d, 0)
        per_class = {0: 0, 1: 0}
        for sid in s.train:
            per_class[d.by_id(sid).label] += 1
        # floor(0.8 * 125) = 100 per class
        assert per_class == {0: 100, 1: 100}
        assert len(s.val) == 24 and len(s.test) == 26

    def test_seed_changes_split(self):
        d = synth.separable_corpus(200, seed=0)
        assert stratified_split(d, 0).train != stratified_split(d, 1).train

    def test_class_too_small(self):
        d = synth.imbalanced_corpus(50, pos_fraction=0.1)  # 5 positives
        with pytest.raises(ClassTooSmall):
            stratified_split(d, 0)

    def test_save_load_roundtrip(self, tmp_path):
        d = synth.separable_corpus(100, seed=0)
        s = stratified_split(d, 3)
        save_splits(tmp_path / "splits.json", s)
        assert load_splits(tmp_path / "splits.json") == s


class TestBootstrap:
    def test_exact_class_counts(self):
        d = synth.separable_corpus(300, seed=0)
        s = stratified_split(d, 0)
        plan = bootstrap(d, s, 3, seed=5)
        want = {}
        for sid in s.train:
            want[d.by_id(sid).label] = want.get(d.by_id(sid).label, 0) + 1
        for draw in plan.draws:
            assert len(draw) == len(s.train)
            got = {}
            for sid in draw:
                got[d.by_id(sid).label] = got.get(d.by_id(sid).label, 0) + 1
            assert got == want

    def test_members_independent_of_count(self):
        # draw i is the same whether 2 or 5 members are planned
        d = synth.separable_corpus(100, seed=0)
        s = stratified_split(d, 0)
        small = bootstrap(d, s, 2, seed=1)
        large = bootstrap(d, s, 5, seed=1)
        assert small.draws == large.draws[:2]

    def test_member_count_validation(self):
        d = synth.separable_corpus(100, seed=0)
        s = stratified_split(d, 0)
        with pytest.raises(ValueError):
            bootstrap(d, s, 0, seed=1)


class TestCweSubsets:
    def test_paired_subset(self):
        d = synth.paired_cwe_corpus({"CWE-119": 15, "CWE-787": 12})
        sub = cwe_subset(d, "CWE-119")
        assert len(sub) == 30 and sub.class_count == 2
        labels = [s.label for s in sub.samples]
        assert labels.count(1) == labels.count(0) == 15

    def test_unknown_cwe(self):
        d = synth.paired_cwe_corpus({"CWE-119": 15})
        with pytest.raises(UnknownCwe):
            cwe_subset(d, "CWE-999")

    def test_top_cwes_ordering(self):
        d = synth.paired_cwe_corpus({"CWE-20": 10, "CWE-119": 25, "CWE-787": 25})
        # count desc, then tag asc for equal counts
        assert top_cwes(d, 3) == ["CWE-119", "CWE-787", "CWE-20"]
        assert top_cwes(d, 1) == ["CWE-119"]
