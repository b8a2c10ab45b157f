"""Ingest snapshots: a prediction file read through ``ingest.Snapshots``
gives the result, or the fault, that parsing it gives.  A dataset has no
snapshot: the commands that need only its ids and labels read them from
splits.json, and give what the parsed dataset gives."""

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
from vulforge.ingest import (
    Dataset,
    Snapshots,
    SplitIndices,
    _atomic_write,
    bootstrap,
    load_dataset,
    load_splits,
    stratified_split,
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


def _label_views(d: Dataset, s: SplitIndices, seed: int) -> dict:
    """What the readers of ids and labels make of ``d`` on the splits ``s``."""
    ids = s.train + s.val + s.test
    return {"class_count": d.class_count, "labels_for": d.labels_for(ids[::-1]).tolist(),
            "bootstrap": bootstrap(d, s, 2, seed)}


@settings(max_examples=150, deadline=None)
@given(_dataset_files(), st.integers(0, 3))
def test_label_readers_see_splits_json_as_the_parse(case, seed):
    """The ids and labels `split` writes to splits.json give every label-only
    reader what the parsed dataset gives, and the dataset they make holds no
    code."""
    schema, blob = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(blob)
        parsed = _outcome(lambda: load_dataset(path, schema))
        if not isinstance(parsed, Dataset) or not isinstance(
                _outcome(lambda: stratified_split(parsed, seed)), SplitIndices):
            return
        out = Path(tmp) / "out"
        assert cli.main(["split", "--dataset", str(path), "--schema", schema,
                         "--out", str(out), "--seed", str(seed)]) == 0
        s = load_splits(out / "splits.json")
    assert s == stratified_split(parsed, seed)
    labelled = s.labelled(path.stem)
    assert _label_views(labelled, s, seed) == _label_views(parsed, s, seed)
    with pytest.raises(ValueError, match="not code"):
        labelled.samples


def _corpus_file(tmp_path, cwes=("CWE-119", "CWE-787")):
    d = synth.paired_cwe_corpus(dict.fromkeys(cwes, 20), seed=3)
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"id": s.id, "code": s.code, "label": s.label,
                                        "cwe": s.cwe, "pair_id": s.pair_id}) + "\n"
                            for s in d.samples), encoding="utf-8")
    return path


def test_edited_dataset_is_parsed_again_and_its_fault_named(tmp_path, capsys):
    """The commands that read code parse the dataset at every run, so an
    edit made after `split` is read and its fault named; a label-only
    command names splits.json, written for the old bytes."""
    path = _corpus_file(tmp_path)
    base = ["--dataset", str(path), "--out", str(tmp_path / "out"),
            "--schema", "multiclass"]
    assert cli.main(["split", *base]) == 0
    assert cli.main(["featurize", *base, "--dims", "1024"]) == 0
    lines = path.read_text().splitlines()
    rec = json.loads(lines[6])
    lines[6] = json.dumps({**rec, "pair_id": [rec["pair_id"]]})
    path.write_text("\n".join(lines) + "\n")
    for command, code, needle in (
            (["featurize", "--dims", "1024"], 5, "line 7: pair_id must be a string or null"),
            (["cwe-subsets"], 5, "line 7: pair_id must be a string or null"),
            (["eval", "--preds", "m1"], 3, "splits.json was written for dataset_sha256")):
        capsys.readouterr()
        assert cli.main([command[0], *base, *command[1:]]) == code
        assert needle in capsys.readouterr().err


def _splits_file(tmp_path, samples: int):
    """A splits.json that `split` wrote for a ``samples``-sample corpus of
    300 to 396 bytes of code a sample, and the corpus file."""
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps({"id": f"s{i}", "code": "x" * (300 + i % 97),
                                        "label": i % 3,
                                        "cwe": None if i % 3 == 0 else f"CWE-{i % 3}",
                                        "pair_id": f"s{i ^ 1}"}) + "\n"
                            for i in range(samples)), encoding="utf-8")
    assert cli.main(["split", "--dataset", str(path), "--schema", "multiclass",
                     "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / "splits.json", path


def _traced(fn):
    """``fn()``, and the bytes its result holds and the call's peak, under
    ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def _label_only_read(splits_path):
    """What a label-only command holds: the splits and their dataset."""
    s = load_splits(splits_path)
    return s, s.labelled("data")


def test_label_only_read_peaks_at_most_72_bytes_a_sample_above_what_it_holds(tmp_path):
    """16k samples: reading splits.json and making its dataset of ids and
    labels peaks about 19 bytes a sample above what the two hold, the
    file's text and JSON lists while the tuples are built."""
    n = 16000
    splits_path, _ = _splits_file(tmp_path, n)
    (s, ds), held, peak = _traced(lambda: _label_only_read(splits_path))
    assert len(ds) == n and ds.labels_for(s.test[:1]).tolist() == [s.labels[2][0]]
    assert peak - held <= 72 * n, ((peak - held) / n, held / n)


def test_label_only_read_holds_under_half_of_the_full_read(tmp_path):
    """16k samples: the label-only read holds at most half of what the
    parsed dataset holds with its code; it holds about a sixth."""
    splits_path, data = _splits_file(tmp_path, 16000)
    (_, ds), label_only, _ = _traced(lambda: _label_only_read(splits_path))
    assert len(ds) == 16000
    del ds
    parsed, full, _ = _traced(lambda: load_dataset(data, "multiclass"))
    assert len(parsed) == 16000
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
    splits.json."""
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
