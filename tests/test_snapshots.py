"""Ingest snapshots: a dataset or prediction file read through
``ingest.Snapshots`` gives the result, or the fault, that parsing it gives."""

import json
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulforge import cli, synth
from vulforge.errors import MalformedRecord
from vulforge.ingest import (
    Dataset,
    Snapshots,
    SplitIndices,
    _atomic_write,
    _CodeBlob,
    bootstrap,
    cwe_subset,
    load_dataset,
    stratified_split,
    top_cwes,
)
from vulforge.learners import ingest_predictions


def _recording(written: list):
    """A snapshot writer that records each path it writes."""
    def write(path, blob):
        written.append(path)
        _atomic_write(path, blob)
    return write


def _outcome(fn):
    """``fn()``, or the class and message of the error it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

_ODD_TEXT = ["", "é", " ", "\U0001d11e", "\ud800", "\udfff", "a\udc00b",
             "\x00", "\r\n", '"\\', "\x85"]
_code = st.lists(st.one_of(st.text(max_size=12), st.sampled_from(_ODD_TEXT)),
                 max_size=4).map("".join)
_tag = st.one_of(st.none(), st.sampled_from(["CWE-1", "CWE-79", "CWE-é", "\ud834"]))


@st.composite
def _dataset_files(draw):
    """A schema and the bytes of a dataset file: non-ASCII and empty code,
    lone surrogates, null cwe and pair_id, blank lines; written with
    ``\\u`` escapes or, now and then, as raw UTF-8 (a lone surrogate then
    makes the file not UTF-8, which both readers must report alike).  Now
    and then there are enough records to split, and a pair_id names another
    record."""
    schema = draw(st.sampled_from(["binary", "multiclass"]))
    n = draw(st.one_of(st.integers(0, 12), st.integers(20, 40)))
    ids = [f"s{i}{draw(st.sampled_from(['', 'é', chr(0xD800)]))}" for i in range(n)]
    records = []
    for sid in ids:
        label = int(draw(st.booleans()))
        cwe = draw(_tag)
        if schema == "multiclass" and label and not cwe:
            cwe = "CWE-1"
        records.append({"id": sid, "code": draw(_code), "label": label, "cwe": cwe,
                        "pair_id": draw(st.one_of(_tag, st.sampled_from(ids)))})
    ascii_only = draw(st.booleans()) or draw(st.booleans())
    lines = [json.dumps(r, ensure_ascii=ascii_only) for r in records]
    for pos in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(pos, draw(st.sampled_from(["", "  ", "\t"])))
    return schema, ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


@settings(max_examples=150, deadline=None)
@given(_dataset_files())
def test_dataset_from_snapshot_equals_the_parse(case):
    schema, blob = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(blob)
        written = []
        snaps = Snapshots(Path(tmp) / "ingest", write=_recording(written))
        parsed = _outcome(lambda: load_dataset(path, schema))
        first = _outcome(lambda: load_dataset(path, schema, snapshots=snaps))
        stored = list(written)
        again = _outcome(lambda: load_dataset(path, schema, snapshots=snaps))
    assert first == parsed and again == parsed
    if isinstance(parsed, Dataset):
        assert [p.name.split(".", 1)[1] for p in stored] == [f"{schema}.code",
                                                              f"{schema}.json"]
        assert written == stored  # the second read was a hit
    else:
        assert written == []  # a failed read stores nothing


def _label_views(d: Dataset, seed: int) -> dict:
    """What the readers of ids and labels make of ``d``: each result, or
    the error it raised."""
    split = _outcome(lambda: stratified_split(d, seed))
    return {"ids": d.ids, "len": len(d), "class_count": d.class_count,
            "labels_for": d.labels_for(d.ids[::-1]).tolist(),
            "class_counts": d.class_counts(), "top_cwes": top_cwes(d, 3), "split": split,
            "bootstrap": _outcome(lambda: bootstrap(d, split, 2, seed))
            if isinstance(split, SplitIndices) else None}


@settings(max_examples=150, deadline=None)
@given(_dataset_files(), st.integers(0, 3))
def test_label_readers_see_the_snapshot_as_the_parse(case, seed):
    """Read through a snapshot, a dataset gives every label-only reader what
    the parsed one gives, without decoding its code; ``cwe_subset``, which
    reads code, gives the same subsets and faults."""
    schema, blob = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(blob)
        parsed = _outcome(lambda: load_dataset(path, schema))
        if not isinstance(parsed, Dataset):
            return
        snaps = Snapshots(Path(tmp) / "ingest")
        load_dataset(path, schema, snapshots=snaps)
        hit = load_dataset(path, schema, snapshots=snaps)
    assert isinstance(hit._code, _CodeBlob)
    assert _label_views(hit, seed) == _label_views(parsed, seed)
    assert isinstance(hit._code, _CodeBlob)  # no label reader decoded code
    for cwe in (*top_cwes(parsed), "CWE-1", "CWE-404"):
        assert _outcome(lambda: cwe_subset(hit, cwe)) == _outcome(
            lambda: cwe_subset(parsed, cwe))


def _corpus_file(tmp_path, cwes=("CWE-119", "CWE-787")):
    d = synth.paired_cwe_corpus(dict.fromkeys(cwes, 20), seed=3)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"id": s.id, "code": s.code, "label": s.label,
                                        "cwe": s.cwe, "pair_id": s.pair_id}) + "\n"
                            for s in d.samples), encoding="utf-8")
    return path


def test_schema_is_part_of_the_snapshot_name(tmp_path):
    path = _corpus_file(tmp_path, cwes=("CWE-119",))  # labels 0 and 1 fit both schemas
    snaps = Snapshots(tmp_path / "ingest")
    for schema in ("multiclass", "binary", "multiclass"):
        assert load_dataset(path, schema, snapshots=snaps) == load_dataset(path, schema)
    names = sorted(p.name.split(".", 1)[1] for p in snaps.root.iterdir())
    assert names == ["binary.code", "binary.json", "multiclass.code", "multiclass.json"]


def _edit_json(path, **changes):
    meta = json.loads(path.read_text())
    path.write_text(json.dumps({**meta, **changes}))


_DATASET_TAMPERS = {
    "json_missing": lambda js, code: js.unlink(),
    "code_missing": lambda js, code: code.unlink(),
    "json_garbage": lambda js, code: js.write_bytes(b"\xff{"),
    "json_not_an_object": lambda js, code: js.write_text("[]"),
    "json_a_string": lambda js, code: js.write_text('"ids"'),
    "code_truncated": lambda js, code: code.write_bytes(code.read_bytes()[:-1]),
    "code_longer": lambda js, code: code.write_bytes(code.read_bytes() + b"x"),
    "length_negative": lambda js, code: _edit_json(
        js, code_bytes=[-1, 1 + sum(json.loads(js.read_text())["code_bytes"][:2])]
        + json.loads(js.read_text())["code_bytes"][2:]),
    "lengths_shifted": lambda js, code: _edit_json(
        js, code_bytes=[1] + json.loads(js.read_text())["code_bytes"][:-1]),
    "cwe_tag_missing": lambda js, code: _edit_json(js, cwe_tags=[]),
    "cwe_not_an_index": lambda js, code: _edit_json(
        js, cwe=["CWE-119"] * len(json.loads(js.read_text())["cwe"])),
    "a_list_too_short": lambda js, code: _edit_json(
        js, labels=json.loads(js.read_text())["labels"][1:]),
    "k_not_an_int": lambda js, code: _edit_json(js, k="3"),
    "code_not_utf8": lambda js, code: code.write_bytes(b"\xff" * len(code.read_bytes())),
    "string_starts_mid_character": lambda js, code: code.write_bytes(
        _straddle(code.read_bytes(), json.loads(js.read_text())["code_bytes"][0])),
}


def _straddle(blob: bytes, at: int) -> bytes:
    """``blob`` with a two-byte character over offset ``at``: still UTF-8
    and as long, but the string starting at ``at`` starts mid-character."""
    return blob[:at - 1] + "é".encode("utf-8") + blob[at + 1:]


@pytest.mark.parametrize("tamper", sorted(_DATASET_TAMPERS))
def test_unusable_dataset_snapshot_is_parsed_again(tamper, tmp_path):
    path = _corpus_file(tmp_path)
    snaps = Snapshots(tmp_path / "ingest")
    parsed = load_dataset(path, "multiclass", snapshots=snaps)
    js, = snaps.root.glob("*.json")
    _DATASET_TAMPERS[tamper](js, js.with_suffix(".code"))
    written = []
    again = load_dataset(path, "multiclass",
                         snapshots=Snapshots(snaps.root, write=_recording(written)))
    assert again == parsed
    assert sorted(p.name for p in written) == [js.with_suffix(".code").name, js.name]
    assert load_dataset(path, "multiclass", snapshots=snaps) == parsed


def test_edited_dataset_is_parsed_again_and_its_fault_named(tmp_path):
    path = _corpus_file(tmp_path)
    snaps = Snapshots(tmp_path / "ingest")
    load_dataset(path, "multiclass", snapshots=snaps)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[6])
    lines[6] = json.dumps({**rec, "pair_id": [rec["pair_id"]]})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRecord, match="line 7: pair_id must be a string or null"):
        load_dataset(path, "multiclass", snapshots=snaps)


def test_snapshot_read_peaks_no_higher_than_the_parse(tmp_path):
    """16k samples: the rebuild decodes each code string from its own slice
    of the blob, so it never holds the blob and every string at once."""
    d = synth.paired_cwe_corpus({f"CWE-{100 + i}": 1000 for i in range(8)}, seed=2)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"id": s.id, "code": s.code, "label": s.label,
                                        "cwe": s.cwe, "pair_id": s.pair_id}) + "\n"
                            for s in d.samples), encoding="utf-8")
    snaps = Snapshots(tmp_path / "ingest")
    load_dataset(path, "multiclass", snapshots=snaps)

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    parse_peak, parsed = peak(lambda: load_dataset(path, "multiclass"))
    snap_peak, rebuilt = peak(lambda: load_dataset(path, "multiclass", snapshots=snaps))
    assert len(parsed) == 16000 and rebuilt == parsed
    assert snap_peak <= parse_peak, (snap_peak, parse_peak)


def test_label_only_read_peaks_at_most_72_bytes_a_sample_above_what_it_holds(tmp_path):
    """16k samples of 300 to 396 bytes of code, read through a snapshot.
    Each column is built as its JSON list is dropped, and the code file is
    checked 64 KiB at a time: the read peaks about 57 bytes a sample above
    what it holds.  Holding every list beside its column took it to 88, and
    the 1 MiB check chunks as well to 195."""
    n = 16000
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"id": f"s{i}", "code": "x" * (300 + i % 97),
                                        "label": i % 3,
                                        "cwe": None if i % 3 == 0 else f"CWE-{i % 3}",
                                        "pair_id": f"s{i ^ 1}"}) + "\n"
                            for i in range(n)), encoding="utf-8")
    snaps = Snapshots(tmp_path / "ingest")
    load_dataset(path, "multiclass", snapshots=snaps)
    tracemalloc.start()
    try:
        ds = load_dataset(path, "multiclass", snapshots=snaps)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == n and ds.labels[:4] == (0, 1, 2, 0)
    assert peak - held <= 72 * n, ((peak - held) / n, held / n)


def test_label_only_read_holds_under_half_of_the_full_read(tmp_path):
    """16k samples read through a snapshot: ids and labels without the code
    hold at most half of what the same read holds once ``samples`` has
    decoded it."""
    d = synth.paired_cwe_corpus({f"CWE-{100 + i}": 1000 for i in range(8)}, seed=4)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"id": s.id, "code": s.code, "label": s.label,
                                        "cwe": s.cwe, "pair_id": s.pair_id}) + "\n"
                            for s in d.samples), encoding="utf-8")
    snaps = Snapshots(tmp_path / "ingest")
    load_dataset(path, "multiclass", snapshots=snaps)

    def held(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[0], result
        finally:
            tracemalloc.stop()

    label_only, ds = held(lambda: load_dataset(path, "multiclass", snapshots=snaps))
    assert len(ds) == 16000
    del ds
    full, (ds, samples) = held(lambda: (lambda x: (x, x.samples))(
        load_dataset(path, "multiclass", snapshots=snaps)))
    assert samples == d.samples
    assert label_only <= full / 2, (label_only, full)


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

@st.composite
def _prediction_files(draw):
    """Ids, the file's line order, each id's probs (some sums off by less
    than the tolerance, some integer one-hot rows) and a second order in
    which the ids are asked for."""
    k = draw(st.sampled_from([2, 3, 9]))
    ids = [f"s{i}" for i in range(draw(st.integers(1, 12)))]
    rows = {}
    for s in ids:
        if draw(st.booleans()):
            row = [0] * k
            row[draw(st.integers(0, k - 1))] = 1
        else:
            raw = np.array(draw(st.lists(st.floats(0.001, 1.0), min_size=k, max_size=k)))
            row = (raw / raw.sum() * (1.0 + draw(st.floats(-9e-7, 9e-7)))).tolist()
        rows[s] = row
    return ids, draw(st.permutations(ids)), rows, draw(st.permutations(ids))


def _write_preds(root, model_id, split, order, rows, blank_after=()):
    path = Path(root) / "preds" / model_id / f"{split}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for s in order:
        lines.append(json.dumps({"id": s, "probs": rows[s]}))
        if s in blank_after:
            lines.append("  ")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@settings(max_examples=150, deadline=None)
@given(_prediction_files())
def test_predictions_from_snapshot_equal_the_parse(case):
    ids, order, rows, again = case
    with tempfile.TemporaryDirectory() as tmp:
        _write_preds(tmp, "ext", "val", order, rows, blank_after=order[:1])
        written = []
        snaps = Snapshots(Path(tmp) / "ingest", write=_recording(written))
        first = ingest_predictions(tmp, "ext", "val", ids, snapshots=snaps)
        assert sorted(p.name.split(".", 1)[1] for p in written) == ["ids.json", "probs.npy"]
        hit = ingest_predictions(tmp, "ext", "val", again, snapshots=snaps)
        assert len(written) == 2  # read from the snapshot, in another order
        for got, expected in ((first, ids), (hit, again)):
            ref = ingest_predictions(tmp, "ext", "val", expected)
            assert got.ids == ref.ids == tuple(expected)
            assert got.probs.dtype == np.float64
            assert np.array_equal(got.probs, ref.probs)


def _npy_with(path, arr):
    np.save(path.with_suffix(".tmp.npy"), arr)
    path.with_suffix(".tmp.npy").replace(path)


_PRED_TAMPERS = {
    "ids_missing": lambda ids_js, npy: ids_js.unlink(),
    "probs_missing": lambda ids_js, npy: npy.unlink(),
    "ids_other_split": lambda ids_js, npy: ids_js.write_text('["a", "b", "zz"]'),
    "ids_repeated": lambda ids_js, npy: ids_js.write_text('["a", "a", "c"]'),
    "ids_one_short": lambda ids_js, npy: ids_js.write_text('["a", "b"]'),
    "ids_not_a_list": lambda ids_js, npy: ids_js.write_text('{"a": 0}'),
    "ids_unhashable": lambda ids_js, npy: ids_js.write_text('[["a"], "b", "c"]'),
    "ids_garbage": lambda ids_js, npy: ids_js.write_bytes(b"\xff"),
    "probs_one_row_short": lambda ids_js, npy: _npy_with(npy, np.load(npy)[:2]),
    "probs_float32": lambda ids_js, npy: _npy_with(npy, np.load(npy).astype(np.float32)),
    "probs_flat": lambda ids_js, npy: _npy_with(npy, np.load(npy).ravel()[:3]),
    "probs_no_columns": lambda ids_js, npy: _npy_with(npy, np.zeros((3, 0))),
    "probs_pickled": lambda ids_js, npy: _npy_with(npy, np.array([{}, {}, {}])),
    "probs_garbage": lambda ids_js, npy: npy.write_bytes(b"not an array"),
    "probs_truncated": lambda ids_js, npy: npy.write_bytes(npy.read_bytes()[:-8]),
}


@pytest.mark.parametrize("tamper", sorted(_PRED_TAMPERS))
def test_unusable_prediction_snapshot_is_parsed_again(tamper, tmp_path):
    ids = ["a", "b", "c"]
    rows = {"a": [0.2, 0.8], "b": [0.5, 0.5], "c": [1, 0]}
    _write_preds(tmp_path, "ext", "val", ids, rows)
    snaps = Snapshots(tmp_path / "ingest")
    ingest_predictions(tmp_path, "ext", "val", ids, snapshots=snaps)
    ids_js, = snaps.root.glob("*.ids.json")
    _PRED_TAMPERS[tamper](ids_js, ids_js.with_name(ids_js.name.replace("ids.json",
                                                                       "probs.npy")))
    written = []
    got = ingest_predictions(tmp_path, "ext", "val", ids,
                             snapshots=Snapshots(snaps.root, write=_recording(written)))
    ref = ingest_predictions(tmp_path, "ext", "val", ids)
    assert got.ids == ref.ids and np.array_equal(got.probs, ref.probs)
    assert len(written) == 2  # parsed, and the snapshot stored again


def test_snapshot_of_another_split_does_not_hide_a_fault(tmp_path):
    rows = {"a": [0.2, 0.8], "b": [0.5, 0.5]}
    _write_preds(tmp_path, "ext", "val", ["a", "b"], rows)
    snaps = Snapshots(tmp_path / "ingest")
    ingest_predictions(tmp_path, "ext", "val", ["a", "b"], snapshots=snaps)
    for expected in (["a"], ["a", "b", "c"]):
        with_snap = _outcome(lambda: ingest_predictions(tmp_path, "ext", "val", expected,
                                                        snapshots=snaps))
        assert with_snap == _outcome(
            lambda: ingest_predictions(tmp_path, "ext", "val", expected))
        assert isinstance(with_snap, tuple)


def test_edited_prediction_file_is_parsed_again(tmp_path):
    ids = ["a", "b"]
    _write_preds(tmp_path, "ext", "val", ids, {"a": [0.2, 0.8], "b": [0.5, 0.5]})
    snaps = Snapshots(tmp_path / "ingest")
    ingest_predictions(tmp_path, "ext", "val", ids, snapshots=snaps)
    _write_preds(tmp_path, "ext", "val", ids, {"a": [0.9, 0.1], "b": [0.5, 0.5]})
    got = ingest_predictions(tmp_path, "ext", "val", ids, snapshots=snaps)
    assert got.probs.tolist() == [[0.9, 0.1], [0.5, 0.5]]
    assert len(list(snaps.root.glob("*.ids.json"))) == 2  # the stale one stays


# ---------------------------------------------------------------------------
# through the CLI: README's malformed-prediction table, verify
# ---------------------------------------------------------------------------

def _good_lines(ids):
    return [json.dumps({"id": s, "probs": [0.25, 0.75]}) for s in ids]


def _with_row(ids, victim, probs):
    return [json.dumps({"id": s, "probs": probs if s == victim else [0.25, 0.75]})
            for s in ids]


#: README's table of malformed prediction files, one case per kind of fault:
#: ids -> the file's lines (None: no file)
_TABLE = {
    "file_absent": lambda ids: None,
    "not_json": lambda ids: _good_lines(ids) + ["{not json"],
    "not_an_object": lambda ids: _good_lines(ids) + ["[0.5, 0.5]"],
    "no_string_id": lambda ids: _good_lines(ids) + ['{"id": 7, "probs": [0.5, 0.5]}'],
    "no_probs": lambda ids: _good_lines(ids[1:]) + [json.dumps({"id": ids[0]})],
    "id_not_in_split": lambda ids: _good_lines(ids) + ['{"id": "zz", "probs": [1, 0]}'],
    "id_twice": lambda ids: _good_lines(ids) + _good_lines(ids[2:3]),
    "sample_missing": lambda ids: _good_lines(ids[1:]),
    "probs_not_a_list": lambda ids: _with_row(ids, ids[1], 0.5),
    "probs_empty": lambda ids: _with_row(ids, ids[1], []),
    "probs_negative": lambda ids: _with_row(ids, ids[1], [-0.5, 1.5]),
    "probs_above_one": lambda ids: _with_row(ids, ids[1], [1.5, 0.0]),
    "probs_off_sum": lambda ids: _with_row(ids, ids[1], [0.3, 0.3]),
    "probs_nan": lambda ids: _with_row(ids, ids[1], [float("nan"), 1.0]),
    "probs_bool": lambda ids: _with_row(ids, ids[1], [True, False]),
    "probs_string": lambda ids: _with_row(ids, ids[1], ["0.5", "0.5"]),
    "rows_of_different_lengths": lambda ids: _with_row(ids, ids[1], [0.2, 0.3, 0.5]),
    "not_utf8": lambda ids: _good_lines(ids) + [b'{"id": "\xff"}'.decode("latin-1")],
}


@pytest.fixture(scope="module")
def table_ws(tmp_path_factory):
    """A dataset, an --external directory and an --out that holds only
    splits.json and the dataset's snapshot."""
    ws = tmp_path_factory.mktemp("snaptable")
    data = ws / "data.jsonl"
    d = synth.separable_corpus(60, seed=2)
    data.write_text("".join(json.dumps({"id": s.id, "code": s.code, "label": s.label})
                            + "\n" for s in d.samples), encoding="utf-8")
    assert cli.main(["split", "--dataset", str(data), "--out", str(ws / "out")]) == 0
    val = json.loads((ws / "out" / "splits.json").read_text())["val"]
    return data, ws / "ext", ws / "out", val


def _eval(data, ext, out, model_id, capsys):
    capsys.readouterr()
    rc = cli.main(["eval", "--dataset", str(data), "--out", str(out), "--external",
                   str(ext), "--preds", model_id, "--split", "val"])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(_TABLE))
def test_malformed_prediction_file_fails_alike_with_a_good_snapshot(
        case, table_ws, tmp_path, capsys):
    data, ext, template, val = table_ws
    with_snap, without = tmp_path / "with", tmp_path / "without"
    shutil.copytree(template, with_snap)
    shutil.copytree(template, without)
    path = ext / "preds" / case / "val.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(_good_lines(val)) + "\n", encoding="utf-8")
    assert _eval(data, ext, with_snap, case, capsys)[0] == 0
    assert len(list((with_snap / "ingest").glob("*.probs.npy"))) == 1
    lines = _TABLE[case](val)
    if lines is None:
        path.unlink()
    else:
        path.write_bytes("\n".join(lines).encode("latin-1" if case == "not_utf8"
                                                  else "utf-8") + b"\n")
    rc, err = _eval(data, ext, with_snap, case, capsys)
    assert (rc, err) == _eval(data, ext, without, case, capsys)
    assert rc == 5 and "Traceback" not in err
    assert (path.name if case == "sample_missing" else str(path)) in err


def test_verify_names_a_tampered_snapshot(table_ws, tmp_path, capsys):
    data, ext, template, val = table_ws
    out = tmp_path / "out"
    shutil.copytree(template, out)
    path = ext / "preds" / "verified" / "val.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(_good_lines(val)) + "\n", encoding="utf-8")
    assert _eval(data, ext, out, "verified", capsys)[0] == 0
    assert cli.main(["verify", "--out", str(out)]) == 0
    npy, = out.glob("ingest/*.probs.npy")
    blob = bytearray(npy.read_bytes())
    blob[-1] ^= 1
    npy.write_bytes(bytes(blob))
    capsys.readouterr()
    assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"FAIL ingest/{npy.name}: content digest mismatch" in capsys.readouterr().out
