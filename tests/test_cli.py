"""End-to-end CLI pipeline, artifact integrity, and exit-code mapping."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vulforge import META_KINDS, cli, ensembles, ingest, store, synth
from vulforge.core import PredictionSet
from vulforge.errors import ProtocolOrderError
from vulforge.ingest import SPLITS, load_splits
from vulforge.learners import FeatureMatrix, ingest_predictions, write_predictions
from vulforge.metamodels import meta_fit

LEARN = ["--epochs", "1", "--learning-rate", "2.0", "--batch-size", "160"]


def _write_dataset(path, d):
    lines = [json.dumps({"id": s.id, "code": s.code, "label": s.label,
                         "cwe": s.cwe, "pair_id": s.pair_id})
             for s in d.samples]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A fully-run pipeline: split, featurize, two base models, all four
    ensembles, and the analysis commands."""
    ws = tmp_path_factory.mktemp("cliws")
    data = ws / "dataset.jsonl"
    _write_dataset(data, synth.separable_corpus(200, seed=5))
    out = str(ws / "out")
    base = ["--dataset", str(data), "--out", out, "--seed", "3"]

    assert cli.main(["split", *base]) == 0
    assert cli.main(["featurize", *base, "--dims", "4096"]) == 0
    # one full-batch step from zero is the same model at any seed: m2 takes
    # ten shuffled minibatch steps, so the ensembles combine two models
    assert cli.main(["train-base", *base, *LEARN, "--model-id", "m1"]) == 0
    assert cli.main(["train-base", *base, *LEARN, "--model-id", "m2", "--seed", "4",
                     "--batch-size", "16"]) == 0
    assert cli.main(["bag", *base, *LEARN, "--mode", "soft",
                     "--members", "3"]) == 0
    assert cli.main(["boost", *base, *LEARN, "--rounds", "3"]) == 0
    assert cli.main(["stack", *base, "--meta", "lr", "--base", "m1,m2"]) == 0
    assert cli.main(["dgs", *base, "--routing", "hard", "--gate", "lr",
                     "--base", "m1,m2"]) == 0
    assert cli.main(["eval", *base, "--preds", "m1"]) == 0
    assert cli.main(["overlap", *base, "--preds", "m1,m2"]) == 0
    assert cli.main(["divergence", *base, "--preds", "m1,m2"]) == 0
    return ws


class TestPipeline:
    def test_artifacts_exist(self, workspace):
        out = workspace / "out"
        for rel in ("splits.json", "features/meta.json",
                    "preds/m1/test.jsonl", "preds/bagging_soft/test.jsonl",
                    "ensembles/bagging_soft/ensemble.json",
                    "ensembles/boosting/ensemble.json",
                    "ensembles/stacking_lr/ensemble.json",
                    "report_boosting.json", "boost_weights_round_1.csv",
                    "overlap.csv", "divergence.csv", "manifest.json"):
            assert (out / rel).exists(), rel

    def test_base_models_differ(self, workspace):
        preds = workspace / "out" / "preds"
        for split in ("val", "test"):
            assert ((preds / "m1" / f"{split}.jsonl").read_bytes()
                    != (preds / "m2" / f"{split}.jsonl").read_bytes())

    def test_reports_carry_config_hash(self, workspace):
        out = workspace / "out"
        payload = json.loads((out / "report_boosting.json").read_text())
        assert "config_hash" in payload
        assert payload["schema_version"] == store.SCHEMA_VERSION
        first = (out / "report_boosting.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")

    def test_verify_passes(self, workspace):
        ws = workspace
        base = ["--dataset", str(ws / "dataset.jsonl"), "--out",
                str(ws / "out"), "--seed", "3"]
        assert cli.main(["verify", *base]) == 0

    def test_rerun_byte_identical(self, workspace):
        ws = workspace
        out = ws / "out"
        base = ["--dataset", str(ws / "dataset.jsonl"), "--out", str(out),
                "--seed", "3"]
        target = out / "ensembles" / "boosting" / "ensemble.json"
        before = target.read_bytes()
        assert cli.main(["boost", *base, *LEARN, "--rounds", "3"]) == 0
        assert target.read_bytes() == before

    def test_external_bagging_from_prediction_files(self, workspace):
        ws = workspace
        out = ws / "out"
        base = ["--dataset", str(ws / "dataset.jsonl"), "--out", str(out),
                "--seed", "3", "--external", str(out)]
        assert cli.main(["bag", *base, "--mode", "hard",
                         "--base", "m1,m2"]) == 0
        payload = json.loads(
            (out / "ensembles" / "bagging_hard" / "ensemble.json").read_text())
        assert payload["external"] is True

    def test_rank_command(self, workspace, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "method,instance,metric,score\n"
            "a,i1,acc,60\na,i2,acc,70\nb,i1,acc,62\nb,i2,acc,68\n")
        out = str(workspace / "out")
        assert cli.main(["rank", "--scores", str(scores), "--out", out]) == 0
        text = (workspace / "out" / "ranks.csv").read_text()
        assert "a,1.500000" in text and "b,1.500000" in text

    def test_cwe_subsets(self, tmp_path):
        d = synth.paired_cwe_corpus({"CWE-119": 12, "CWE-787": 11})
        data = tmp_path / "mc.jsonl"
        _write_dataset(data, d)
        out = str(tmp_path / "out")
        assert cli.main(["cwe-subsets", "--dataset", str(data),
                         "--schema", "multiclass", "--out", out,
                         "--top", "2"]) == 0
        assert (tmp_path / "out" / "subsets" / "CWE-119.jsonl").exists()

    def test_every_output_file_is_tracked(self, workspace):
        """Each file under out/ is in manifest.json, or is a params/*.npy
        sidecar that an ensemble.json lists, or is the manifest itself."""
        out = workspace / "out"
        tracked = set(json.loads((out / "manifest.json").read_text()))
        tracked |= {"manifest.json", "manifest.lock"}
        for ens in out.glob("ensembles/*/ensemble.json"):
            tracked |= {str((ens.parent / rec["file"]).relative_to(out))
                        for rec in json.loads(ens.read_text())["params"].values()}
        files = {str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()}
        assert files - tracked == set()

    def test_each_input_file_has_one_snapshot_named_by_its_digest(self, workspace):
        """out/ingest/ holds one snapshot of each prediction file the
        commands read (m1 and m2 on val and test), and nothing else: the
        dataset is not copied.  Files with the same bytes share one
        snapshot."""
        out = workspace / "out"

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        expected = {f"{sha(out / 'preds' / mid / f'{split}.jsonl')}.{ext}"
                    for mid in ("m1", "m2") for split in ("val", "test")
                    for ext in ("ids.json", "probs.npy")}
        assert {p.name for p in (out / "ingest").iterdir()} == expected

    def test_dense_gate_columns_tracked(self, workspace):
        out = workspace / "out"
        base = ["--dataset", str(workspace / "dataset.jsonl"), "--out", str(out),
                "--seed", "3"]
        assert cli.main(["dgs", *base, "--routing", "soft", "--gate", "knn",
                         "--base", "m1,m2"]) == 0
        edir = out / "ensembles" / "dgs_soft"
        assert (edir / "params" / "gate_columns.npy").exists()
        assert store.load_ensemble(edir).columns is not None
        assert cli.main(["verify", *base]) == 0


# Records 40 artifacts of its own on one --out: argv is the out dir and a tag.
_RECORDER = """
import sys
from pathlib import Path
from vulforge import cli, store
out, tag = Path(sys.argv[1]), sys.argv[2]
for i in range(40):
    path = out / tag / f"{i}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{tag} {i}")
    cli._record_artifact(out, path, store.config_hash(cli._echo(cli._DEFAULTS)))
"""


def _features(out) -> FeatureMatrix:
    """The feature matrix `featurize` wrote under ``out``."""
    fdir = Path(out) / "features"
    meta = json.loads((fdir / "meta.json").read_text())
    return FeatureMatrix(tuple(meta["ids"]), *(np.load(fdir / f"{name}.npy")
                                               for name in ("indptr", "indices", "data")),
                         meta["dims"])


def _sentinel_routing(tmp_path, gate_kind):
    """Share of the sentinel corpus's test samples that `vulforge dgs --gate
    gate_kind` at its defaults sends to the one expert that is right on it."""
    from vulforge.ensembles import gate_scores_many

    d, owner = synth.sentinel_corpus(2000, experts=5, seed=1)
    data, out, ext = tmp_path / "dataset.jsonl", tmp_path / "out", tmp_path / "ext"
    _write_dataset(data, d)
    base = ["--dataset", str(data), "--out", str(out), "--seed", "1"]
    assert cli.main(["split", *base]) == 0
    s = load_splits(out / "splits.json")
    test_preds = synth.sentinel_predsets(d, owner, s.test, "test", seed=101)
    for p in (*synth.sentinel_predsets(d, owner, s.val, "val", seed=1), *test_preds):
        write_predictions(ext, p)
    assert cli.main(["featurize", *base]) == 0
    assert cli.main(["dgs", *base, "--external", str(ext), "--gate", gate_kind,
                     "--base", ",".join(p.model_id for p in test_preds)]) == 0

    gate = store.load_ensemble(out / "ensembles" / "dgs_hard")
    scores = gate_scores_many(gate, *_features(out).rows_for(s.test),
                              np.stack([p.probs for p in test_preds]))
    return (scores.argmax(axis=1) == np.array([owner[sid] for sid in s.test])).mean()


def test_default_lr_gate_routes_planted_experts(tmp_path):
    routed = _sentinel_routing(tmp_path, "lr")
    assert routed >= 0.95, f"routing accuracy {routed}"


def test_rf_gate_routes_planted_experts(tmp_path):
    # the forest draws its features from the gate input's own columns
    routed = _sentinel_routing(tmp_path, "rf")
    assert routed >= 0.95, f"routing accuracy {routed}"


def test_concurrent_commands_keep_every_manifest_entry(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    procs = [subprocess.Popen([sys.executable, "-c", _RECORDER, str(tmp_path), f"p{j}"],
                              env={**os.environ, "PYTHONPATH": src},
                              stderr=subprocess.PIPE)
             for j in range(4)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest) == sorted(f"p{j}/{i}.txt" for j in range(4)
                                      for i in range(40))
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0


@pytest.fixture(scope="module")
def external(tmp_path_factory):
    """An external-model pipeline on a paired corpus of K = 3: prediction
    files of models e1 and e2, three boosting rounds' files, and the bag,
    boost and stack ensembles built from them: (--external dir, out dir)."""
    ws = tmp_path_factory.mktemp("extws")
    data, ext, out = ws / "dataset.jsonl", ws / "ext", ws / "out"
    d = synth.paired_cwe_corpus({"CWE-119": 20, "CWE-787": 20}, seed=2)
    _write_dataset(data, d)
    base = ["--dataset", str(data), "--out", str(out), "--schema", "multiclass",
            "--external", str(ext)]
    assert cli.main(["split", *base]) == 0
    s = load_splits(out / "splits.json")
    rng = np.random.default_rng(0)

    def noisy(ids):  # probs that lean to the true label
        logits = rng.normal(size=(len(ids), d.class_count))
        logits[np.arange(len(ids)), d.labels_for(ids)] += 1.5
        return np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)

    for mid in ("e1", "e2"):
        for split in SPLITS:
            ids = s.for_split(split)
            write_predictions(ext, PredictionSet(mid, split, ids, noisy(ids)))
    for t in (1, 2, 3):
        for split in ("train", "test"):
            ids = s.for_split(split)
            path = ext / "boost" / f"round_{t}" / f"preds_{split}.jsonl"
            write_predictions(ext, PredictionSet("round", split, ids, noisy(ids)),
                              write=lambda _, blob, path=path: ingest._atomic_write(path, blob))
    assert cli.main(["bag", *base, "--mode", "soft", "--base", "e1,e2"]) == 0
    assert cli.main(["boost", *base, "--rounds", "3"]) == 0
    assert cli.main(["stack", *base, "--meta", "lr", "--base", "e1,e2"]) == 0
    return ext, out


def _replayed(out, root, name: str, features) -> bytes:
    """The bytes of preds/<name>/test.jsonl as the ensemble saved in
    out/ensembles/<name> predicts them: loaded with ``load_ensemble`` and run
    by its ``*_predict_set`` on the test split, base models read from
    ``root``."""
    e = store.load_ensemble(out / "ensembles" / name)
    ids = load_splits(out / "splits.json").test

    def bases():
        return [ingest_predictions(root, mid, "test", ids) for mid in e.base_ids]

    if isinstance(e, ensembles.BaggingEnsemble):
        pred = ensembles.bagging_predict_set(e, ids, features, "test", name)
    elif isinstance(e, ensembles.BoostEnsemble):
        pred = ensembles.adaboost_predict_set(e, ids, features, "test", name)
    elif isinstance(e, ensembles.StackingModel):
        pred = ensembles.stacking_predict_set(e, bases(), ids, "test", name)
    else:
        pred = ensembles.dgs_predict_set(e, bases(), ids, features, "test", name)
    written = []
    write_predictions(out, pred, write=lambda _, blob: written.append(blob))
    return written[0]


@pytest.mark.parametrize("fixture,names", [
    ("workspace", ("bagging_soft", "boosting", "stacking_lr", "dgs_hard")),
    ("external", ("bagging_soft", "boosting", "stacking_lr")),
], ids=["builtin", "external"])
def test_every_saved_ensemble_reproduces_its_test_predictions(fixture, names, request):
    """Each ensemble a command saves, loaded back, predicts its test split
    bit for bit as the command wrote it to preds/<name>/test.jsonl."""
    if fixture == "workspace":
        out = request.getfixturevalue("workspace") / "out"
        root, features = out, _features(out)
    else:
        root, out = request.getfixturevalue("external")
        features = None
    for name in names:
        assert (_replayed(out, root, name, features)
                == (out / "preds" / name / "test.jsonl").read_bytes()), name


@pytest.fixture(scope="module")
def two_class_files(tmp_path_factory):
    """The flags of a featurized K = 3 multiclass split whose --external
    prediction files of e1 and e2 hold K = 2."""
    ws = tmp_path_factory.mktemp("kws")
    data, ext, out = ws / "dataset.jsonl", ws / "ext", ws / "out"
    _write_dataset(data, synth.paired_cwe_corpus({"CWE-1": 40, "CWE-2": 40}))
    base = ["--dataset", str(data), "--out", str(out), "--schema", "multiclass",
            "--external", str(ext)]
    assert cli.main(["split", *base]) == 0
    assert cli.main(["featurize", *base, "--dims", "4096"]) == 0
    s = load_splits(out / "splits.json")
    assert s.class_count == 3
    for mid in ("e1", "e2"):
        for split in SPLITS:
            ids = s.for_split(split)
            write_predictions(ext, PredictionSet(mid, split, ids,
                                                 np.full((len(ids), 2), 0.5)))
    return base


@pytest.mark.parametrize("argv,split", [
    *((["stack", "--meta", meta, "--base", "e1,e2"], "val") for meta in META_KINDS),
    (["bag", "--mode", "soft", "--base", "e1,e2"], "test"),
    (["dgs", "--gate", "lr", "--base", "e1,e2"], "val"),
    (["eval", "--preds", "e1"], "test"),
    (["overlap", "--preds", "e1,e2"], "test"),
    (["divergence", "--preds", "e1,e2"], "test"),
], ids=[*(f"stack-{meta}" for meta in META_KINDS), "bag", "dgs", "eval", "overlap",
        "divergence"])
def test_prediction_file_of_another_k_is_5(argv, split, two_class_files, capsys):
    # stack used to stop with a traceback; the others scored K = 2 against K = 3
    capsys.readouterr()
    assert cli.main([*argv, *two_class_files]) == 5
    err = capsys.readouterr().err
    assert (f"{Path('e1') / f'{split}.jsonl'} holds K = 2; splits.json has K = 3"
            in err)
    assert "Traceback" not in err


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"no_such_key": 1}')
        assert cli.main(["split", "--config", str(cfgfile)]) == 2

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_bytes(b"\xff\xfe{}")
        assert cli.main(["split", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfgfile}: 'utf-8' codec")
        assert "Traceback" not in err

    def test_missing_dataset_is_3(self, tmp_path):
        assert cli.main(["split", "--dataset", str(tmp_path / "nope.jsonl"),
                         "--out", str(tmp_path / "out")]) == 3

    def test_protocol_error_is_4(self, monkeypatch, tmp_path):
        # build_parser resolves handler names at call time, so patching the
        # module global routes the subcommand through the raising handler
        def boom(args):
            raise ProtocolOrderError("round 3 before round 2")

        monkeypatch.setattr(cli, "cmd_verify", boom)
        assert cli.main(["verify", "--out", str(tmp_path)]) == 4

    def test_non_finite_meta_input_is_5(self, monkeypatch, tmp_path):
        def fit_nan(args):
            meta_fit("knn", np.array([[0.0, np.nan]]), np.array([0]))

        monkeypatch.setattr(cli, "cmd_verify", fit_nan)
        assert cli.main(["verify", "--out", str(tmp_path)]) == 5

    @pytest.mark.parametrize("command", ["split", "cwe-subsets"])
    @pytest.mark.parametrize("field,value", [("cwe", ["CWE-1"]), ("pair_id", 7)])
    def test_cwe_or_pair_id_not_a_string_is_5(self, tmp_path, capsys, command, field, value):
        # 20 vulnerable records and their 20 fixed versions: a list cwe
        # passed split and crashed cwe-subsets in top_cwes with a traceback
        data = tmp_path / "d.jsonl"
        recs = []
        for i in range(20):
            recs += [{"id": f"v{i}", "code": "int v;", "label": 1, "cwe": "CWE-1",
                      "pair_id": f"f{i}", field: value},
                     {"id": f"f{i}", "code": "int f;", "label": 0, "cwe": None,
                      "pair_id": f"v{i}"}]
        data.write_text("".join(json.dumps(r) + "\n" for r in recs))
        capsys.readouterr()
        assert cli.main([command, "--dataset", str(data), "--schema", "multiclass",
                         "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert f"line 1: {field} must be a string or null" in err
        assert "Traceback" not in err

    def test_pair_id_naming_no_record_is_5(self, tmp_path, capsys):
        # split passed; cwe-subsets died in cwe_subset with a KeyError
        data = tmp_path / "d.jsonl"
        recs = []
        for i in range(20):
            recs += [{"id": f"v{i}", "code": "int v;", "label": 1, "cwe": "CWE-1",
                      "pair_id": "missing" if i == 7 else f"f{i}"},
                     {"id": f"f{i}", "code": "int f;", "label": 0, "cwe": None,
                      "pair_id": f"v{i}"}]
        data.write_text("".join(json.dumps(r) + "\n" for r in recs))
        base = ["--dataset", str(data), "--schema", "multiclass",
                "--out", str(tmp_path / "out")]
        assert cli.main(["split", *base]) == 0
        capsys.readouterr()
        assert cli.main(["cwe-subsets", *base]) == 5
        err = capsys.readouterr().err
        assert "sample 'v7' names pair_id 'missing', which is not in the dataset" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "subsets").exists()

    def test_other_vulforge_error_is_5(self, tmp_path):
        # eval with no pipeline artifacts under out: missing prediction file
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = str(tmp_path / "out")
        assert cli.main(["split", "--dataset", str(data), "--out", out]) == 0
        assert cli.main(["eval", "--dataset", str(data), "--out", out,
                         "--preds", "ghost"]) == 5

    @pytest.mark.parametrize("key,argv", [
        ("dims", ["featurize", "--dims", "1000"]),
        ("dims", ["featurize", "--dims", "0"]),
        ("epochs", ["train-base", "--model-id", "m", "--epochs", "0"]),
        ("batch_size", ["train-base", "--model-id", "m", "--batch-size", "0"]),
        ("members", ["bag", "--members", "0"]),
        ("rounds", ["boost", "--rounds", "0"]),
    ])
    def test_bad_numeric_flag_is_2(self, key, argv, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = str(tmp_path / "out")
        assert cli.main(["split", "--dataset", str(data), "--out", out]) == 0
        if argv[0] != "featurize":
            assert cli.main(["featurize", "--dataset", str(data), "--out", out,
                             "--dims", "1024"]) == 0
        capsys.readouterr()
        assert cli.main([*argv, "--dataset", str(data), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be ")
        assert "Traceback" not in err

    def test_rank_incomplete_grid_is_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("method,instance,metric,score\n"
                          "a,i1,acc,60\nb,i2,acc,61\n")
        assert cli.main(["rank", "--scores", str(scores),
                         "--out", str(tmp_path / "out")]) == 2

    def test_rank_non_numeric_score_is_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("method,instance,metric,score\n"
                          "a,i,f1,60\na,i,acc,abc\n")
        assert cli.main(["rank", "--scores", str(scores),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: scores row 2 (a,i,acc)")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,needle", [
        (b"method,instance,metric,score\na,i,f1,60\nb,\xff,f1,61\n",
         "scores.csv line 3 is not UTF-8"),
        ("method,instance,metric,score\na,i1,f1,0.5\na,i1,f1,0.9\n",
         "scores row 2 (a,i1,f1) repeats an earlier row"),
        ("method,instance,metric,score\na,i,f1,60\nb,i,f1,nan\n",
         "scores row 2 (b,i,f1): score 'nan' is not a finite number"),
        ("method,instance,metric,score\na,i,f1,inf\nb,i,f1,60\n",
         "scores row 1 (a,i,f1): score 'inf' is not a finite number"),
        ("method,instance,metric,score\na,i,f1,60\nb,i,f1,-Infinity\n",
         "scores row 2 (b,i,f1): score '-Infinity' is not a finite number"),
        ("meth,instance,metric,score\na,i,f1,60\n",
         "scores.csv has no column(s) method"),
        ("method,instance,metric,score\na,i,f1,60\nb,i\n",
         "scores row 2 has fewer fields than the header"),
        ("method,instance,metric,score\n", "scores.csv has no data rows"),
    ], ids=["not-utf8", "repeated-row", "nan", "inf", "minus-infinity",
            "missing-column", "short-row", "header-only"])
    def test_rank_malformed_csv_is_2(self, text, needle, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        if isinstance(text, bytes):
            scores.write_bytes(text)
        else:
            scores.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["rank", "--scores", str(scores),
                             "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_rank_into_new_directory(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("method,instance,metric,score\n"
                          "a,i1,acc,60\nb,i1,acc,62\n")
        out = tmp_path / "new" / "dir"
        assert cli.main(["rank", "--scores", str(scores), "--out", str(out)]) == 0
        assert "b,1.000000" in (out / "ranks.csv").read_text()
        assert json.loads((out / "ranks.json").read_text())["methods"] == ["a", "b"]

    def test_dataset_not_utf8_is_5(self, tmp_path, capsys):
        data = tmp_path / "d2.jsonl"
        data.write_bytes(b"\xff\xfe\n")
        assert cli.main(["split", "--dataset", str(data),
                         "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert "line 1" in err and "d2.jsonl is not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad_line,needle", [
        (b"not json", "line {n}: not JSON"),
        (b'{"id": "%s"}', "line {n}: sample"),
        (b'["%s", [0.5, 0.5]]', "line {n}: expected an object"),
        (b'{"probs": [0.5, 0.5]}', "line {n}: expected an object"),
        (b'{"id": 7, "probs": [0.5, 0.5]}', "line {n}: expected an object"),
        (b'{"id": "\xff", "probs": [0.5, 0.5]}', "not UTF-8 text"),
        (b'{"id": "%s", "probs": [true, false]}', "not a non-empty list of numbers"),
        (b'{"id": "%s", "probs": ["0.5", "0.5"]}', "not a non-empty list of numbers"),
    ], ids=["not-json", "no-probs", "not-object", "no-id", "non-string-id",
            "not-utf8", "bool-probs", "string-probs"])
    def test_malformed_prediction_file_is_5(self, bad_line, needle, tmp_path,
                                             capsys):
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = tmp_path / "out"
        base = ["--dataset", str(data), "--out", str(out)]
        assert cli.main(["split", *base]) == 0
        test_ids = json.loads((out / "splits.json").read_text())["test"]
        preds = out / "preds" / "m" / "test.jsonl"
        preds.parent.mkdir(parents=True)
        good = [json.dumps({"id": s, "probs": [0.5, 0.5]}).encode()
                for s in test_ids[1:]]
        preds.write_bytes(b"\n".join(
            good + [bad_line.replace(b"%s", test_ids[0].encode())]) + b"\n")
        capsys.readouterr()
        assert cli.main(["eval", *base, "--preds", "m"]) == 5
        err = capsys.readouterr().err
        assert "test.jsonl" in err and needle.format(n=len(test_ids)) in err
        assert "Traceback" not in err

    def test_verify_detects_tamper_is_2(self, tmp_path):
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = tmp_path / "out"
        base = ["--dataset", str(data), "--out", str(out)]
        assert cli.main(["split", *base]) == 0
        (out / "splits.json").write_text(
            (out / "splits.json").read_text() + " ")
        assert cli.main(["verify", *base]) == 2

    def test_verify_detects_ensemble_tamper_is_2(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = tmp_path / "out"
        base = ["--dataset", str(data), "--out", str(out)]
        assert cli.main(["split", *base]) == 0
        assert cli.main(["featurize", *base, "--dims", "1024"]) == 0
        assert cli.main(["boost", *base, *LEARN, "--rounds", "2"]) == 0
        assert cli.main(["verify", *base]) == 0
        path = out / "ensembles" / "boosting" / "ensemble.json"
        payload = json.loads(path.read_text())
        payload["rounds"][0]["alpha"] = 99.0
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", *base]) == 2
        assert "ensembles/boosting/ensemble.json" in capsys.readouterr().out

    def test_verify_fails_a_splits_json_without_labels(self, tmp_path, capsys):
        # splits.json as `split` wrote it before it carried the labels, K,
        # the schema and the dataset digest; its manifest digest intact
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = tmp_path / "out"
        base = ["--dataset", str(data), "--out", str(out)]
        assert cli.main(["split", *base]) == 0
        payload = json.loads((out / "splits.json").read_text())
        for key in ("labels", "class_count", "schema", "dataset_sha256"):
            del payload[key]
        blob = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
        (out / "splits.json").write_bytes(blob)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["splits.json"]["sha256"] = hashlib.sha256(blob).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["verify", *base]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            f"FAIL splits.json: {out / 'splits.json'} does not hold what `vulforge "
            "split` writes: a seed, the train, val and test ids, their labels in "
            "[0, class_count), an integer class_count, the schema and the dataset's "
            "sha256"]
        assert "Traceback" not in captured.err

    def test_verify_names_the_schema_of_an_older_tree(self, tmp_path, capsys):
        # an ensemble written at schema 3, its manifest digest intact
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = tmp_path / "out"
        base = ["--dataset", str(data), "--out", str(out)]
        assert cli.main(["split", *base]) == 0
        assert cli.main(["featurize", *base, "--dims", "1024"]) == 0
        assert cli.main(["bag", *base, *LEARN, "--members", "2"]) == 0
        rel = "ensembles/bagging_soft/ensemble.json"
        payload = json.loads((out / rel).read_text())
        payload["schema_version"] = 3
        blob = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()
        (out / rel).write_bytes(blob)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[rel]["sha256"] = hashlib.sha256(blob).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["verify", *base]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "FAIL bagging_soft: unsupported schema version 3; this version reads "
            "schema 4, so rerun the command that wrote it"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("rel,payload", [
        ("report_bagging_soft.json", 3),
        ("splits.json", 3),
        ("features/meta.json", None),
        ("report_bagging_soft.json", "[4]"),
    ], ids=["report", "splits", "meta-without-schema", "not-an-object"])
    def test_verify_names_the_schema_of_every_json_artifact(self, rel, payload,
                                                             tmp_path, capsys):
        # a JSON artifact at another schema, its manifest digest intact
        data = tmp_path / "d.jsonl"
        _write_dataset(data, synth.separable_corpus(100, seed=0))
        out = tmp_path / "out"
        base = ["--dataset", str(data), "--out", str(out)]
        assert cli.main(["split", *base]) == 0
        assert cli.main(["featurize", *base, "--dims", "1024"]) == 0
        assert cli.main(["bag", *base, *LEARN, "--members", "2"]) == 0
        if isinstance(payload, str):
            blob = payload.encode()
        else:
            loaded = json.loads((out / rel).read_text())
            if payload is None:
                del loaded["schema_version"]
            else:
                loaded["schema_version"] = payload
            blob = (json.dumps(loaded, indent=1, sort_keys=True) + "\n").encode()
        (out / rel).write_bytes(blob)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest[rel]["sha256"] = hashlib.sha256(blob).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["verify", *base]) == 2
        captured = capsys.readouterr()
        fault = ("not a JSON object" if isinstance(payload, str) else
                 f"unsupported schema version {payload!r}; this version reads "
                 "schema 4, so rerun the command that wrote it")
        assert captured.out.splitlines() == [f"FAIL {rel}: {fault}"]
        assert "Traceback" not in captured.err


# Bad values of a setting, each as a flag and as a config-file value where
# both exist: (argv, config, exit code, message).  A config dict is written
# with the dataset and out settings added; a string is the file's text.
_BAD_INPUTS = {
    "seed-flag": (["split", "--seed", "-1"], None, 2, "seed must be an integer >= 0"),
    "seed-config": (["split"], {"seed": -1}, 2, "seed must be an integer >= 0"),
    "seed-config-str": (["split"], {"seed": "x"}, 2, "seed must be an integer >= 0"),
    "ngram-orders-config": (["featurize"], {"ngram_orders": [0]}, 2,
                            "ngram_orders must be a non-empty list"),
    "learning-rate-config-str": (["train-base", "--model-id", "m"],
                                 {"learning_rate": "fast"}, 2, "learning_rate must be"),
    "learning-rate-flag-inf": (["train-base", "--model-id", "m", "--learning-rate",
                                "inf"], None, 2, "learning_rate must be a finite"),
    "learning-rate-config-inf": (["train-base", "--model-id", "m"],
                                 {"learning_rate": float("inf")}, 2,
                                 "learning_rate must be a finite"),
    "l2-flag-nan": (["train-base", "--model-id", "m", "--l2", "nan"], None, 2,
                    "l2 must be a finite number >= 0"),
    "l2-config-nan": (["train-base", "--model-id", "m"], {"l2": float("nan")}, 2,
                      "l2 must be a finite number >= 0"),
    "l2-flag-negative": (["train-base", "--model-id", "m", "--l2", "-5"], None, 2,
                         "l2 must be a finite number >= 0"),
    "l2-config-negative": (["train-base", "--model-id", "m"], {"l2": -5}, 2,
                           "l2 must be a finite number >= 0"),
    "dims-flag-2-25": (["featurize", "--dims", str(1 << 25)], None, 2,
                       "dims must be a power of two up to 2**24, got 33554432"),
    "dims-config-2-25": (["featurize"], {"dims": 1 << 25}, 2,
                         "dims must be a power of two up to 2**24, got 33554432"),
    "dataset-config": (["split"], {"dataset": 5}, 2, "dataset must be a path"),
    "out-config": (["split"], {"out": None}, 2, "out must be a path"),
    "workers-flag": (["bag", "--workers", "0"], None, 2, "workers must be an integer"),
    "workers-config": (["bag"], {"workers": "two"}, 2, "workers must be an integer"),
    "meta-flag": (["stack", "--meta", "xgb"], None, 2, "invalid choice: 'xgb'"),
    "meta-config": (["stack"], {"meta": "xgb"}, 2, "meta must be lr|rf|svm|knn"),
    "routing-flag": (["dgs", "--routing", "diag"], None, 2, "invalid choice: 'diag'"),
    "routing-config": (["dgs"], {"routing": "diag"}, 2, "routing must be hard|soft"),
    "folds-flag": (["stack", "--base", "m1,m2", "--oof", "--folds", "1"], None, 2,
                   "folds must be an integer in [2, 80], got 1"),
    "top-flag": (["cwe-subsets", "--schema", "multiclass", "--top", "-1"], None, 2,
                 "top must be an integer >= 1"),
    "config-string": (["split"], '"str"', 2, "must hold a JSON object"),
    "config-array": (["split"], "[1]", 2, "must hold a JSON object"),
    "config-null": (["split"], "null", 2, "must hold a JSON object"),
    "diverging-flag": (["train-base", "--model-id", "m", "--learning-rate", "1e308"],
                       None, 5, "non-finite model parameters"),
    "diverging-config": (["train-base", "--model-id", "m"], {"learning_rate": 1e308},
                         5, "non-finite model parameters"),
}


@pytest.mark.parametrize("argv,parses", [
    (["dgs", "--epochs", "30"], False),
    (["split", "--l2", "0.1"], False),
    (["verify", "--workers", "2"], False),
    (["bag", "--workers", "2"], True),
    (["train-base", "--model-id", "m", "--epochs", "3"], True),
])
def test_learner_flags_only_on_commands_that_read_them(argv, parses, capsys):
    parser = cli.build_parser()
    if parses:
        parser.parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bag_workers_write_the_same_members_and_predictions(workspace, tmp_path):
    """``--workers`` is checked and hashed, but members are fit in order for
    any value: the weights and predictions are byte-identical."""
    ws = workspace
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        shutil.copy(ws / "out" / "splits.json", out)
        shutil.copytree(ws / "out" / "features", out / "features")
        assert cli.main(["bag", "--dataset", str(ws / "dataset.jsonl"), "--out", str(out),
                         "--seed", "3", *LEARN, "--mode", "soft", "--members", "3",
                         "--workers", workers]) == 0
        params = out / "ensembles" / "bagging_soft" / "params"
        written.append({**{p.name: p.read_bytes() for p in params.glob("*.npy")},
                        "test.jsonl": (out / "preds" / "bagging_soft" / "test.jsonl")
                        .read_bytes()})
    assert len(written[0]) > 3
    assert written[0] == written[1]


@pytest.fixture(scope="module")
def featurized(tmp_path_factory):
    """A split and featurized 100-sample corpus: (dataset path, out dir)."""
    ws = tmp_path_factory.mktemp("badinputs")
    data = ws / "d.jsonl"
    _write_dataset(data, synth.separable_corpus(100, seed=0))
    base = ["--dataset", str(data), "--out", str(ws / "out")]
    assert cli.main(["split", *base]) == 0
    assert cli.main(["featurize", *base, "--dims", "1024"]) == 0
    return data, ws / "out"


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_setting_exits_with_its_code(case, featurized, tmp_path, capsys):
    argv, config, code, needle = _BAD_INPUTS[case]
    data, out = featurized
    argv = [*argv, "--dataset", str(data), "--out", str(out)]
    if config is not None:
        if isinstance(config, dict):  # flags would override the bad value
            config = json.dumps({"dataset": str(data), "out": str(out), **config})
            argv = argv[:-4]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config)
        argv += ["--config", str(cfgfile)]
    capsys.readouterr()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad choice this way
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert needle in err and "Traceback" not in err


def test_valid_config_values_are_kept_as_given(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"learning_rate": 1, "l2": 0, "ngram_orders": [1, 2, 3]}')
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        ["split", "--config", str(cfgfile), "--seed", "4"]))
    assert cfg == {**cli._DEFAULTS, "learning_rate": 1, "l2": 0,
                   "ngram_orders": [1, 2, 3], "seed": 4}
    assert type(cfg["learning_rate"]) is int


# Names that become paths, malformed pipeline artifacts and bases of unequal
# K: (argv, edits, exit code, message).  Each case runs on its own copy of a
# trained workspace in tmp_path; ``edits`` maps a path under --out to the
# text written there first.  Flags in argv come after the workspace's
# --dataset and --out, so they override them; "{tmp}", "{out}" and "{cwe}"
# stand for tmp_path, --out and a multiclass dataset whose second CWE tag
# is "../../cwe_escape".
_UNSAFE_INPUTS = {
    "model-id-absolute": (["train-base", "--model-id", "{tmp}/abs"], {}, 2, "--model-id"),
    "model-id-parent": (["train-base", "--model-id", "../outside"], {}, 2, "--model-id"),
    "model-id-dot": (["train-base", "--model-id", "."], {}, 2, "--model-id"),
    "model-id-empty": (["train-base", "--model-id", ""], {}, 2, "--model-id"),
    "model-id-backslash": (["train-base", "--model-id", "a\\b"], {}, 2, "--model-id"),
    "model-id-nul": (["train-base", "--model-id", "a\0b"], {}, 2, "--model-id"),
    "base-empty-id": (["stack", "--base", "m1,,m2"], {}, 2, "--base"),
    "base-parent": (["dgs", "--base", "m1,../m2"], {}, 2, "--base"),
    "preds-parent": (["eval", "--preds", ".."], {}, 2, "--preds"),
    "preds-dot": (["overlap", "--preds", "m1,."], {}, 2, "--preds"),
    "cwe-tag-parent": (["cwe-subsets", "--dataset", "{cwe}", "--schema", "multiclass",
                        "--top", "2"], {}, 5, "'../../cwe_escape'"),
    "splits-no-keys": (["train-base", "--model-id", "m"], {"splits.json": '{"train": []}'},
                       3, "splits.json"),
    "splits-not-json": (["train-base", "--model-id", "m"], {"splits.json": "{"}, 3,
                        "splits.json"),
    "splits-unknown-id": (["train-base", "--model-id", "m"],
                          {"splits.json": '{"seed": 0, "train": ["ghost"], "val": [], '
                                          '"test": []}'}, 3,
                          "does not hold what `vulforge split` writes"),
    "features-meta-short": (["train-base", "--model-id", "m"],
                            {"features/meta.json": '{"ids": [], "dims": 1024}'}, 3,
                            "do not match"),
    "features-other-ids": (["train-base", "--model-id", "m"],
                           {"features/meta.json": json.dumps(
                               {"ids": [f"x{i}" for i in range(100)], "dims": 1024})},
                           3, "does not cover"),
    "features-meta-too-wide": (["train-base", "--model-id", "m"],
                               {"features/meta.json": json.dumps(
                                   {"ids": [], "dims": 1 << 25})},
                               3, "dims, a power of two up to 2**24"),
    "features-meta-empty": (["train-base", "--model-id", "m"],
                            {"features/meta.json": "{}"}, 3, "meta.json"),
    "features-not-npy": (["train-base", "--model-id", "m"],
                         {"features/indices.npy": "not an array"}, 3, "indices.npy"),
    "manifest-not-json": (["verify"], {"manifest.json": "["}, 3, "manifest.json"),
    "ensemble-no-hash": (["verify"], {"ensembles/e/ensemble.json": '{"config": {}}'},
                         2, "FAIL e: "),
    # each prediction file must hold the K of splits.json
    "bag-unequal-k": (["bag", "--external", "{out}", "--base", "m1,k3"], {}, 5,
                      "k3/test.jsonl holds K = 3; splits.json has K = 2"),
    "stack-unequal-k": (["stack", "--base", "m1,k3"], {}, 5,
                        "k3/val.jsonl holds K = 3; splits.json has K = 2"),
    "dgs-lr-unequal-k": (["dgs", "--gate", "lr", "--base", "m1,k3"], {}, 5,
                         "k3/val.jsonl holds K = 3; splits.json has K = 2"),
    "dgs-svm-unequal-k": (["dgs", "--gate", "svm", "--base", "m1,k3"], {}, 5,
                          "k3/val.jsonl holds K = 3; splits.json has K = 2"),
    "stack-repeated-id": (["stack", "--base", "m1,m1"], {}, 2, "--base names 'm1' twice"),
    "dgs-repeated-id": (["dgs", "--base", "m1,m2,m1"], {}, 2, "--base names 'm1' twice"),
    "bag-repeated-id": (["bag", "--external", "{out}", "--base", "m2,m2"], {}, 2,
                        "--base names 'm2' twice"),
    "overlap-repeated-id": (["overlap", "--preds", "m1,m1"], {}, 2,
                            "--preds names 'm1' twice"),
    "divergence-repeated-id": (["divergence", "--preds", "m2,m1,m2"], {}, 2,
                               "--preds names 'm2' twice"),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A featurized 100-sample binary workspace with base models m1 and m2,
    prediction files of a K = 3 model k3, and a paired multiclass dataset:
    (dataset path, multiclass dataset path, out dir)."""
    ws = tmp_path_factory.mktemp("unsafe")
    data, cwe_data = ws / "d.jsonl", ws / "cwe.jsonl"
    _write_dataset(data, synth.separable_corpus(100, seed=0))
    _write_dataset(cwe_data, synth.paired_cwe_corpus({"CWE-119": 12,
                                                      "../../cwe_escape": 11}))
    base = ["--dataset", str(data), "--out", str(ws / "out")]
    assert cli.main(["split", *base]) == 0
    assert cli.main(["featurize", *base, "--dims", "1024"]) == 0
    for mid in ("m1", "m2"):
        assert cli.main(["train-base", *base, *LEARN, "--model-id", mid]) == 0
    splits = json.loads((ws / "out" / "splits.json").read_text())
    for split in ("val", "test"):
        path = ws / "out" / "preds" / "k3" / f"{split}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps({"id": s, "probs": [0.5, 0.25, 0.25]}) + "\n"
                                for s in splits[split]))
    return data, cwe_data, ws / "out"


@pytest.mark.parametrize("case", sorted(_UNSAFE_INPUTS))
def test_unsafe_input_exits_with_its_code(case, trained, tmp_path, capsys):
    argv, edits, code, needle = _UNSAFE_INPUTS[case]
    data, cwe_data, template = trained
    out = tmp_path / "out"
    shutil.copytree(template, out)
    for rel, text in edits.items():
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_text(text)
    before = {p for p in tmp_path.rglob("*") if p.is_file()}
    fill = {"tmp": tmp_path, "out": out, "cwe": cwe_data}
    argv = [argv[0], "--dataset", str(data), "--out", str(out),
            *(a.format(**fill) for a in argv[1:])]
    capsys.readouterr()
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == code, captured.err
    assert needle in captured.err + captured.out and "Traceback" not in captured.err
    written = {p for p in tmp_path.rglob("*") if p.is_file()} - before
    assert all(p.is_relative_to(out) for p in written), sorted(map(str, written))
    if case.startswith("cwe"):  # stopped before writing any subset
        assert not (out / "subsets").exists()


@pytest.mark.parametrize("edit", ["test-ids-in-train", "repeated-train-id"])
def test_splits_with_a_repeated_id_exit_3(edit, trained, tmp_path, capsys):
    data, _, template = trained
    out = tmp_path / "out"
    shutil.copytree(template, out)
    splits = json.loads((out / "splits.json").read_text())
    source = "test" if edit == "test-ids-in-train" else "train"
    extra = splits[source][:5]
    splits["train"] += extra
    splits["labels"]["train"] += splits["labels"][source][:5]
    (out / "splits.json").write_text(json.dumps(splits))
    capsys.readouterr()
    assert cli.main(["train-base", "--dataset", str(data), "--out", str(out), *LEARN,
                     "--model-id", "m3"]) == 3
    err = capsys.readouterr().err
    assert f"sample id {extra[0]!r} is in" in err and "Traceback" not in err
    assert not (out / "preds" / "m3").exists()


#: Each command that reads ids and labels, not code: its argv after the
#: trained workspace's --dataset and --out.
_LABEL_COMMANDS = {
    "train-base": ["train-base", *LEARN, "--model-id", "m3"],
    "bag": ["bag", *LEARN, "--members", "2"],
    "boost": ["boost", *LEARN, "--rounds", "2"],
    "stack": ["stack", "--base", "m1,m2"],
    "dgs": ["dgs", "--base", "m1,m2"],
    "eval": ["eval", "--preds", "m1"],
    "overlap": ["overlap", "--preds", "m1,m2"],
    "divergence": ["divergence", "--preds", "m1,m2"],
}


def _label_run(argv, data, out, *extra):
    return cli.main([argv[0], "--dataset", str(data), "--out", str(out), *extra,
                     *argv[1:]])


def test_label_commands_never_parse_the_dataset(trained, tmp_path, monkeypatch):
    data, _, template = trained
    out = tmp_path / "out"
    shutil.copytree(template, out)

    def refuse(*args):
        raise AssertionError("the dataset file was parsed")

    monkeypatch.setattr(ingest, "_parse_dataset", refuse)
    for argv in _LABEL_COMMANDS.values():
        assert _label_run(argv, data, out) == 0, argv[0]


@pytest.mark.parametrize("change", ["dataset-byte", "schema"])
@pytest.mark.parametrize("command", sorted(_LABEL_COMMANDS))
def test_dataset_or_schema_changed_since_split_exits_3(command, change, trained,
                                                       tmp_path, capsys):
    """splits.json names the dataset bytes and --schema it was split from; a
    label command given others stops before it writes anything."""
    data, _, template = trained
    out = tmp_path / "out"
    shutil.copytree(template, out)
    extra = []
    if change == "schema":
        extra = ["--schema", "multiclass"]
    else:
        blob = bytearray(data.read_bytes())
        at = blob.index(b'"code": "') + len(b'"code": "')
        blob[at] = ord("Z") if blob[at] != ord("Z") else ord("Y")
        data = tmp_path / data.name
        data.write_bytes(bytes(blob))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert _label_run(_LABEL_COMMANDS[command], data, out, *extra) == 3
    err = capsys.readouterr().err
    assert str(out / "splits.json") in err and "rerun `vulforge split`" in err
    assert "Traceback" not in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def _with(a, i, value):
    """A copy of ``a`` with ``a[i] = value``."""
    a = a.copy()
    a[i] = value
    return a


def _swap_offsets(a):
    i = int(np.flatnonzero(np.diff(a) > 0)[1])  # a nonempty row after the first
    return _with(_with(a, i, a[i + 1]), i + 1, a[i])


# A corrupted features/*.npy: (file, the array to save in place of the one
# featurize wrote).  Each is caught when the features load, before training.
_BAD_FEATURES = {
    "index-at-dims": ("indices", lambda a: _with(a, 0, 1024)),
    "index-negative": ("indices", lambda a: _with(a, 0, -1)),
    "index-float": ("indices", lambda a: a.astype(np.float64)),
    "offsets-not-from-0": ("indptr", lambda a: _with(a, 0, 1)),
    "offsets-decrease": ("indptr", _swap_offsets),
    "data-nan": ("data", lambda a: _with(a, 0, np.nan)),
    "data-inf": ("data", lambda a: _with(a, -1, np.inf)),
}


@pytest.mark.parametrize("case", sorted(_BAD_FEATURES))
def test_bad_feature_array_exits_3(case, trained, tmp_path, capsys):
    name, corrupt = _BAD_FEATURES[case]
    data, _, template = trained
    out = tmp_path / "out"
    shutil.copytree(template, out)
    path = out / "features" / f"{name}.npy"
    np.save(path, corrupt(np.load(path)))
    capsys.readouterr()
    rc = cli.main(["train-base", "--dataset", str(data), "--out", str(out),
                   *LEARN, "--model-id", "m3"])
    captured = capsys.readouterr()
    assert rc == 3, captured.err
    assert f"{name}.npy" in captured.err and "Traceback" not in captured.err
    assert not (out / "preds" / "m3").exists()


def test_import_vulforge_loads_no_submodule():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys, vulforge; "
             "print(sorted(m for m in sys.modules if m.startswith('vulforge.')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


def _imports(*args) -> set[str]:
    """Modules a ``python ARGS`` child imports, read from ``-X importtime``;
    the child must exit 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-X", "importtime", *args],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:")}


def test_import_cli_loads_no_numpy():
    loaded = _imports("-c", "import vulforge.cli")
    assert "vulforge.cli" in loaded and "numpy" not in loaded


def test_verify_process_loads_no_numpy(workspace):
    loaded = _imports("-m", "vulforge.cli", "verify", "--out", str(workspace / "out"))
    assert "vulforge.store" in loaded and "numpy" not in loaded


def test_split_process_loads_no_model_module(tmp_path):
    data = tmp_path / "d.jsonl"
    _write_dataset(data, synth.separable_corpus(100, seed=0))
    loaded = _imports("-m", "vulforge.cli", "split", "--dataset", str(data),
                      "--out", str(tmp_path / "out"))
    assert "vulforge.ingest" in loaded and "numpy" in loaded
    heavy = {"vulforge.ensembles", "vulforge.metamodels", "vulforge.learners",
             "vulforge.codefeat", "vulforge.metrics", "vulforge._kernels"}
    assert not heavy & loaded, sorted(heavy & loaded)


def test_dgs_process_loads_no_masked_arrays(workspace):
    loaded = _imports("-m", "vulforge.cli", "dgs", "--dataset",
                      str(workspace / "dataset.jsonl"), "--out", str(workspace / "out"),
                      "--seed", "3", "--routing", "hard", "--gate", "lr", "--base", "m1,m2")
    assert "vulforge.ensembles" in loaded and "numpy" in loaded
    assert "numpy.ma" not in loaded


def test_eval_process_loads_no_featurizer_or_kernels(workspace):
    loaded = _imports("-m", "vulforge.cli", "eval", "--dataset",
                      str(workspace / "dataset.jsonl"), "--out", str(workspace / "out"),
                      "--seed", "3", "--preds", "m1")
    assert "vulforge.learners" in loaded and "vulforge.metrics" in loaded
    heavy = {"vulforge.codefeat", "vulforge._kernels", "vulforge.ensembles",
             "vulforge.metamodels"}
    assert not heavy & loaded, sorted(heavy & loaded)


def _dangling_pair(d):
    """``d``'s records, with the last CWE-787 sample's pair_id naming no record."""
    recs = [{"id": s.id, "code": s.code, "label": s.label, "cwe": s.cwe,
             "pair_id": s.pair_id} for s in d.samples]
    victim = [r for r in recs if r["cwe"] == "CWE-787"][-1]
    victim["pair_id"] = "missing"
    return recs


@pytest.mark.parametrize("case,code", [("ok", 0), ("verify_fails", 2),
                                       ("no_dataset", 3), ("dangling_pair", 5)])
def test_process_exits_with_its_code_and_every_line(case, code, tmp_path, capsys):
    """``python -m vulforge.cli`` leaves through ``os._exit``: with its output
    piped, and so block-buffered, it keeps the code and every line that
    ``main`` printed, and the log lines."""
    d = synth.paired_cwe_corpus({"CWE-119": 12, "CWE-787": 11})
    data, out = tmp_path / "d.jsonl", tmp_path / "out"
    if case == "dangling_pair":
        data.write_text("".join(json.dumps(r) + "\n" for r in _dangling_pair(d)))
    else:
        _write_dataset(data, d)
    base = ["--dataset", str(data), "--schema", "multiclass", "--out", str(out)]
    argv = ["cwe-subsets", *base, "--top", "2"]
    if case == "verify_fails":
        assert cli.main(argv) == 0
        (out / "subsets" / "CWE-787.jsonl").write_text("{}\n")
        argv = ["verify", "--out", str(out)]
    elif case == "no_dataset":
        argv = ["split", *base[2:], "--dataset", str(tmp_path / "nope.jsonl")]
    capsys.readouterr()
    assert cli.main(argv) == code
    printed = capsys.readouterr()
    assert printed.out or code == 3  # a line on stdout to lose
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "vulforge.cli", *argv],
                          capture_output=True, text=True, env={**env, "PYTHONPATH": src})
    assert proc.returncode == code
    assert proc.stdout == printed.out
    assert set(printed.err.splitlines()) <= set(proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    if case != "no_dataset" and argv[0] != "verify":
        assert "INFO loaded d: 46 samples, K=3" in proc.stderr


# Runs a CLI command in a process that has not loaded numpy, then prints the
# BLAS thread setting the process holds: argv is the --out dir.
_PIN_PROBE = """
import os, sys
from vulforge import cli
cli.main(["verify", "--out", sys.argv[1]])
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def test_cli_pins_blas_to_one_thread_unless_set(workspace):
    src = str(Path(cli.__file__).resolve().parents[1])
    bare = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    pinned = {}
    for name, extra in (("unset", {}), ("openblas", {"OPENBLAS_NUM_THREADS": "3"}),
                        ("omp", {"OMP_NUM_THREADS": "2"})):
        result = subprocess.run(
            [sys.executable, "-c", _PIN_PROBE, str(workspace / "out")],
            capture_output=True, text=True, check=True,
            env={**bare, **extra, "PYTHONPATH": src})
        pinned[name] = result.stdout.split()[-1]
    assert pinned == {"unset": "1", "openblas": "3", "omp": "None"}
