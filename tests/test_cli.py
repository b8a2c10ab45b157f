"""End-to-end CLI pipeline, artifact integrity, and exit-code mapping."""

import json

import pytest

from vulforge import cli, synth
from vulforge.errors import ProtocolOrderError

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
    for mid in ("m1", "m2"):
        assert cli.main(["train-base", *base, *LEARN,
                         "--model-id", mid,
                         "--seed", "3" if mid == "m1" else "4"]) == 0
    assert cli.main(["bag", *base, *LEARN, "--mode", "soft",
                     "--members", "3"]) == 0
    assert cli.main(["boost", *base, *LEARN, "--rounds", "3"]) == 0
    assert cli.main(["stack", *base, "--meta", "lr", "--base", "m1,m2"]) == 0
    assert cli.main(["dgs", *base, "--routing", "hard", "--gate", "lr",
                     "--base", "m1,m2", "--epochs", "30"]) == 0
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

    def test_reports_carry_config_hash(self, workspace):
        out = workspace / "out"
        payload = json.loads((out / "report_boosting.json").read_text())
        assert "config_hash" in payload and payload["schema_version"] == 1
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


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"no_such_key": 1}')
        assert cli.main(["split", "--config", str(cfgfile)]) == 2

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
        ("meth,instance,metric,score\na,i,f1,60\n",
         "scores.csv has no column(s) method"),
        ("method,instance,metric,score\na,i,f1,60\nb,i\n",
         "scores row 2 has fewer fields than the header"),
    ], ids=["missing-column", "short-row"])
    def test_rank_malformed_csv_is_2(self, text, needle, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        assert cli.main(["rank", "--scores", str(scores),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err

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
    ], ids=["not-json", "no-probs", "not-object", "no-id", "non-string-id",
            "not-utf8"])
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
