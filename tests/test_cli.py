"""End-to-end command line tests driving cli.main with real fixture files."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import structsum
from structsum import experiments
from structsum.cli import _auto_split, build_parser, main
from structsum.learner import Model

from conftest import FIXTURE_JSONL, GOLDEN_BASELINE, GOLDEN_SUMMARIES, SMALL_MODEL

DATASET = str(FIXTURE_JSONL)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_module(*argv):
    """``python -m structsum.cli`` in a child process that imports the same
    package this test imported, installed or not."""
    package_root = str(Path(structsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "structsum.cli", *argv], capture_output=True, text=True, env=env,
    )


class TestTrain:
    def test_writes_model_and_log(self, capsys, tmp_path):
        out = tmp_path / "model.json"
        rc, stdout, _ = run(
            capsys, "train", "--dataset", DATASET, "--train-ids", "0,1,2",
            "--out", str(out),
        )
        assert rc == 0
        assert "iter 0:" in stdout
        assert f"saved pairwise model to {out}" in stdout

        model = Model.load(out)
        assert model.model_kind == "pairwise"

        log_lines = (tmp_path / "model.json.log.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in log_lines]
        assert [e["iteration"] for e in entries] == list(range(len(entries)))
        assert {"constraints_total", "dual_objective", "max_violation"} <= set(entries[0])

    def test_log_entries_carry_the_duality_gap(self, capsys, tmp_path):
        out = tmp_path / "model.json"
        rc, stdout, _ = run(
            capsys, "train", "--dataset", DATASET, "--train-ids", "0,1", "--out", str(out),
        )
        assert rc == 0
        log = (tmp_path / "model.json.log.jsonl").read_text()
        entries = [json.loads(line) for line in log.splitlines()]
        for entry in entries:
            assert entry["gap"] == entry["primal"] - entry["dual_objective"]
            assert entry["qp_iters"] >= entry["constraints_added"]
            assert f"gap={entry['gap']:.2e}" in stdout

    @pytest.mark.parametrize("level,entries,warns", [
        ("warning", False, True), ("info", True, True), ("error", False, False),
    ])
    def test_log_level_switch(self, tmp_path, level, entries, warns):
        # a child process: in-process, pytest's own log capture takes the records
        proc = run_module(
            "--log-level", level, "train", "--dataset", DATASET, "--train-ids", "0",
            "--out", str(tmp_path / "m.json"), "--max-iters", "1",
        )
        assert proc.returncode == 0
        assert ('train {"constraints_added"' in proc.stderr) == entries
        assert ("training stopped at max_outer_iters=1" in proc.stderr) == warns

    def test_custom_log_path(self, capsys, tmp_path):
        out, log = tmp_path / "m.json", tmp_path / "trace.jsonl"
        rc, _, _ = run(
            capsys, "train", "--dataset", DATASET, "--train-ids", "0",
            "--out", str(out), "--log", str(log),
        )
        assert rc == 0
        assert log.exists()

    def test_c_grid_needs_validation_ids(self, capsys, tmp_path):
        rc, _, stderr = run(
            capsys, "train", "--dataset", DATASET, "--train-ids", "0,1",
            "--C", "1,10", "--out", str(tmp_path / "m.json"),
        )
        assert rc == 1
        assert stderr.startswith("error:")
        assert "--val-ids" in stderr

    def test_c_grid_selects_and_records(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        rc, stdout, _ = run(
            capsys, "train", "--dataset", DATASET, "--train-ids", "0,1",
            "--val-ids", "2,3", "--C", "10,1", "--out", str(out),
        )
        assert rc == 0
        assert "selected C=1.0" in stdout
        table = json.loads((tmp_path / "m.json.cgrid.json").read_text())
        assert [row["C"] for row in table] == [1.0, 10.0]

    @pytest.mark.parametrize("grid", ["10", "1,10", "1,10,100"])
    def test_trains_once_per_grid_point(self, capsys, tmp_path, monkeypatch, grid):
        trained = []
        real_train = experiments.train

        def counted(sets, model_kind, trainer_cfg, **kwargs):
            trained.append(trainer_cfg.C)
            return real_train(sets, model_kind, trainer_cfg, **kwargs)

        monkeypatch.setattr(experiments, "train", counted)
        val_ids = ["--val-ids", "2,3"] if "," in grid else []
        rc, _, _ = run(
            capsys, "train", "--dataset", DATASET, "--train-ids", "0,1",
            *val_ids, "--C", grid, "--out", str(tmp_path / "m.json"),
        )
        assert rc == 0
        assert sorted(trained) == sorted(float(c) for c in grid.split(","))

    def test_c_grid_log_equals_a_single_c_run(self, capsys, tmp_path, monkeypatch):
        # the grid's validation F is made to rise with C, so that the chosen
        # C=100 is a run that took the C=1 run whole and logged its entries
        # again, with its own primal and gap
        scores = []
        monkeypatch.setattr(experiments, "_f_values",
                            lambda sets, model: scores.append(len(scores)) or scores[-1:])
        common = ["train", "--dataset", DATASET, "--model", "coverage", "--train-ids", "0,1,2",
                  "--max-iters", "2"]
        rc, grid_out, _ = run(capsys, *common, "--C", "0.01,1,100", "--val-ids", "3,4,5",
                              "--out", str(tmp_path / "grid.json"))
        assert rc == 0
        assert "selected C=100.0" in grid_out
        rc, single_out, _ = run(capsys, *common, "--C", "100", "--out", str(tmp_path / "one.json"))
        assert rc == 0
        grid_log = (tmp_path / "grid.json.log.jsonl").read_text()
        assert grid_log == (tmp_path / "one.json.log.jsonl").read_text()
        assert {json.loads(line)["gap"] for line in grid_log.splitlines()} != {0.0}
        assert [line for line in grid_out.splitlines() if line.startswith("iter ")] == \
            [line for line in single_out.splitlines() if line.startswith("iter ")]
        assert (tmp_path / "grid.json").read_bytes() == (tmp_path / "one.json").read_bytes()

    @pytest.mark.parametrize("grid, message", [
        ("10,1,10", "--C repeats [10.0]"),
        ("1,10,1.0", "--C repeats [1.0]"),
        ("1,10,nan", "C must be positive and finite, not nan"),
        ("1,10,inf", "C must be positive and finite, not inf"),
        ("1,10,0", "C must be positive and finite, not 0.0"),
        ("1,-10", "C must be positive and finite, not -10.0"),
    ])
    def test_bad_c_grid_fails_before_training(self, capsys, tmp_path, monkeypatch, grid, message):
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "m.json"
        rc, _, stderr = run(
            capsys, "train", "--dataset", DATASET, "--train-ids", "0,1",
            "--val-ids", "2,3", "--C", grid, "--out", str(out),
        )
        assert rc == 1
        assert stderr.startswith(f"error: {message}")
        assert trained == []
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_is_an_error(self, capsys):
        rc, _, stderr = run(capsys, "train", "--dataset", DATASET, "--train-ids", "0")
        assert rc == 1
        assert "--out" in stderr


class TestSummarize:
    def test_stdout_matches_golden_file(self, capsys):
        rc, stdout, _ = run(
            capsys, "summarize", "--dataset", DATASET, "--model-file", str(SMALL_MODEL)
        )
        assert rc == 0
        assert stdout == GOLDEN_SUMMARIES.read_text(encoding="utf-8")

    def test_baseline_stdout_matches_golden_file(self, capsys):
        rc, stdout, _ = run(capsys, "summarize", "--dataset", DATASET, "--baseline")
        assert rc == 0
        assert stdout == GOLDEN_BASELINE.read_text(encoding="utf-8")

    def test_out_file_is_reproducible(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            rc, _, _ = run(
                capsys, "summarize", "--dataset", DATASET,
                "--model-file", str(SMALL_MODEL), "--out", str(path),
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

        payload = json.loads(paths[0].read_text())
        first = payload["summaries"][0]
        assert first["set_id"] == "set00"
        assert first["sentence_ids"] == [0, 4]
        assert first["total_cost_bytes"] <= 66
        assert len(first["sentences"]) == 2

    def test_sets_filter(self, capsys):
        rc, stdout, _ = run(
            capsys, "summarize", "--dataset", DATASET,
            "--model-file", str(SMALL_MODEL), "--sets", "set00,set05",
        )
        assert rc == 0
        headers = [line for line in stdout.splitlines() if line.startswith("# ")]
        assert headers == ["# set00", "# set05"]

    def test_unknown_set_filter_fails(self, capsys):
        # every name is checked before the first summary is printed
        rc, stdout, stderr = run(
            capsys, "summarize", "--dataset", DATASET,
            "--model-file", str(SMALL_MODEL), "--sets", "set00,setXX",
        )
        assert rc == 1
        assert stderr == "error: dataset has no sets named ['setXX']\n"
        assert stdout == ""

    def test_model_file_and_baseline_are_exclusive(self, capsys):
        rc, _, stderr = run(
            capsys, "summarize", "--dataset", DATASET,
            "--model-file", str(SMALL_MODEL), "--baseline",
        )
        assert rc == 1
        assert "exactly one" in stderr

        rc, _, stderr = run(capsys, "summarize", "--dataset", DATASET)
        assert rc == 1
        assert "exactly one" in stderr

    def test_baseline_respects_budget(self, capsys, tmp_path):
        out = tmp_path / "base.json"
        rc, _, _ = run(
            capsys, "summarize", "--dataset", DATASET, "--baseline",
            "--sets", "set00,set01", "--out", str(out),
        )
        assert rc == 0
        for rec in json.loads(out.read_text())["summaries"]:
            assert rec["sentence_ids"]
            assert rec["total_cost_bytes"] <= 66


class TestEvaluate:
    @pytest.fixture
    def predictions(self, capsys, tmp_path):
        path = tmp_path / "preds.json"
        rc, _, _ = run(
            capsys, "summarize", "--dataset", DATASET,
            "--model-file", str(SMALL_MODEL), "--out", str(path),
        )
        assert rc == 0
        return path

    def test_tsv_report(self, capsys, tmp_path, predictions):
        out = tmp_path / "report.json"
        rc, stdout, _ = run(
            capsys, "evaluate", "--dataset", DATASET,
            "--predictions", str(predictions), "--out", str(out),
        )
        assert rc == 0
        lines = stdout.splitlines()
        assert lines[0] == "set_id\tprecision\trecall\tf"
        assert lines[1] == "set00\t1.00000\t1.00000\t1.00000"
        assert "mean\t1.00000\t1.00000\t1.00000" in lines
        assert "stderr_f\t\t\t0.00000" in lines

        payload = json.loads(out.read_text())
        assert payload["mean"]["f"] == pytest.approx(1.0)
        assert len(payload["per_set"]) == 40

    def test_compare_against_itself_is_all_ties(self, capsys, predictions):
        rc, stdout, _ = run(
            capsys, "evaluate", "--dataset", DATASET,
            "--predictions", str(predictions), "--compare", str(predictions),
        )
        assert rc == 0
        assert "sign_test_p\t\t\t1.00000" in stdout

    def test_out_of_range_sentence_id_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"summaries": [{"set_id": "set00", "sentence_ids": [99]}]}
        ))
        rc, _, stderr = run(
            capsys, "evaluate", "--dataset", DATASET, "--predictions", str(bad)
        )
        assert rc == 1
        assert "out of range" in stderr

    def test_unknown_set_id_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"summaries": [{"set_id": "zzz", "sentence_ids": [0]}]}
        ))
        rc, _, stderr = run(
            capsys, "evaluate", "--dataset", DATASET, "--predictions", str(bad)
        )
        assert rc == 1
        assert "zzz" in stderr


    def test_predictions_without_summaries_fail(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"records": []}))
        rc, _, stderr = run(
            capsys, "evaluate", "--dataset", DATASET, "--predictions", str(bad)
        )
        assert rc == 1
        assert stderr.startswith("error:") and "summaries" in stderr

    @pytest.mark.parametrize("payload", [
        [],
        {"summaries": {"set00": [0]}},
        {"summaries": ["set00"]},
        {"summaries": [{"set_id": "set00"}]},
        {"summaries": [{"set_id": "set00", "sentence_ids": ["0"]}]},
        {"summaries": [{"set_id": 0, "sentence_ids": [0]}]},
    ])
    def test_malformed_prediction_records_fail(self, capsys, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc, _, stderr = run(
            capsys, "evaluate", "--dataset", DATASET, "--predictions", str(bad)
        )
        assert rc == 1
        assert stderr.startswith("error:")

    def test_repeated_prediction_set_id_fails(self, capsys, tmp_path):
        record = {"set_id": "set00", "sentence_ids": [0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"summaries": [record, record]}))
        rc, _, stderr = run(
            capsys, "evaluate", "--dataset", DATASET, "--predictions", str(bad)
        )
        assert rc == 1
        assert stderr.startswith("error:") and "twice" in stderr


class TestInputContract:
    def _dataset(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("field, value", [
        ("budget_bytes", "abc"), ("budget_bytes", -5), ("budget_bytes", 66.5),
        ("budget_bytes", True), ("set_id", 5), ("set_id", ["set01"]),
        ("documents", "Alpha beta. Gamma delta."), ("documents", [5, "Alpha beta."]),
        ("references", [7]),
    ])
    def test_bad_field_names_the_line(self, capsys, tmp_path, field, value):
        first, second = FIXTURE_JSONL.read_text(encoding="utf-8").splitlines()[:2]
        record = json.loads(second)
        record[field] = value
        dataset = self._dataset(tmp_path, [first, json.dumps(record)])
        rc, _, stderr = run(capsys, "summarize", "--dataset", dataset, "--baseline")
        assert rc == 1
        assert stderr.startswith(f"error: line 2: {field}")

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"'])
    def test_record_that_is_not_an_object_fails(self, capsys, tmp_path, line):
        first = FIXTURE_JSONL.read_text(encoding="utf-8").splitlines()[0]
        dataset = self._dataset(tmp_path, [first, line])
        rc, _, stderr = run(capsys, "summarize", "--dataset", dataset, "--baseline")
        assert rc == 1
        assert stderr == "error: line 2: a record must be a JSON object\n"

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--train-ids", "99"), ("train", "--train-ids", "-1"),
        ("train", "--val-ids", "40"), ("bounds", "--test-ids", "77"),
        ("curve", "--test-ids", "55"),
    ])
    def test_out_of_range_set_ids_fail(self, capsys, tmp_path, command, flag, value):
        argv = {
            "train": ["--train-ids", "0,1", "--C", "1,10", "--val-ids", "2",
                      "--out", str(tmp_path / "m.json")],
            "bounds": ["--model-file", str(SMALL_MODEL), "--train-ids", "0", "--test-ids", "1"],
            "curve": ["--sizes", "1", "--train-ids", "0", "--test-ids", "1"],
        }[command]
        argv[argv.index(flag) + 1] = value
        rc, _, stderr = run(capsys, command, "--dataset", DATASET, *argv)
        assert rc == 1
        assert stderr.startswith(f"error: {flag}: set indexes [{value}] out of range")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command, flag, value, repeated", [
        ("train", "--train-ids", "0,0,1", [0]), ("train", "--val-ids", "2,3,2", [2]),
        ("bounds", "--test-ids", "4,4,4,5", [4]), ("train", "--C", "1,10,1.0", [1.0]),
        ("train", "--groups", "basic,minmax,basic", ["basic"]), ("curve", "--sizes", "1,1", [1]),
        ("ablate", "--rows", "none,basic,none", ["none"]),
        ("summarize", "--sets", "set00,set00", ["set00"]),
        ("ablate", "--train-ids", "0,0", [0]), ("curve", "--test-ids", "1,1", [1]),
    ])
    def test_repeated_set_ids_fail(self, capsys, tmp_path, monkeypatch, command, flag, value,
                                   repeated):
        # every comma list flag: a repeated test set once weighed twice in
        # bounds' human and extractive rows, a repeated training set trained
        # as two examples, and a repeated size or row trained twice
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        argv = {
            "train": ["--train-ids", "0,1", "--C", "1,10", "--val-ids", "2", "--groups", "basic",
                      "--out", str(tmp_path / "m.json")],
            "bounds": ["--model-file", str(SMALL_MODEL), "--train-ids", "0", "--test-ids", "1"],
            "curve": ["--train-ids", "0", "--test-ids", "1", "--sizes", "1"],
            "ablate": ["--train-ids", "0", "--test-ids", "1", "--rows", "none"],
            "summarize": ["--baseline", "--sets", "set00"],
        }[command]
        argv[argv.index(flag) + 1] = value
        rc, stdout, stderr = run(capsys, command, "--dataset", DATASET, *argv)
        assert rc == 1
        assert stderr == f"error: {flag} repeats {repeated}\n"
        assert stdout == "" and trained == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, argv, message", [
        ("bounds", ["--model-file", str(SMALL_MODEL), "--train-ids", "0", "--test-ids", "4,x"],
         "--test-ids: 'x' is not an integer"),
        ("curve", ["--train-ids", "0", "--test-ids", "1", "--sizes", "1,y"],
         "--sizes: 'y' is not an integer"),
        ("train", ["--train-ids", "0", "--C", "1,z"], "--C: 'z' is not a number"),
    ])
    def test_list_values_that_are_not_numbers_name_the_flag(self, capsys, tmp_path, monkeypatch,
                                                            command, argv, message):
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "out.json"
        rc, stdout, stderr = run(capsys, command, "--dataset", DATASET, *argv, "--out", str(out))
        assert rc == 1
        assert stderr == f"error: {message}\n"
        assert stdout == "" and trained == []
        assert list(tmp_path.iterdir()) == []

    def test_out_in_a_missing_directory_names_the_path(self, capsys, tmp_path):
        out = tmp_path / "missing" / "m.json"
        rc, _, stderr = run(capsys, "train", "--dataset", DATASET, "--train-ids", "0",
                            "--max-iters", "1", "--out", str(out))
        assert rc == 1
        assert stderr.splitlines()[-1] == f"error: [Errno 2] No such file or directory: '{out}'"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag", [
        ("train", "--out"), ("train", "--log"), ("ablate", "--out"),
    ])
    def test_out_in_a_missing_directory_fails_before_any_work(self, capsys, tmp_path, command,
                                                              flag):
        # no iteration line, no iteration-cap warning: nothing was trained
        out = {"--out": tmp_path / "m.json", "--log": tmp_path / "m.log"}
        out[flag] = tmp_path / "missing" / out[flag].name
        argv = ["--train-ids", "0", "--max-iters", "1", "--out", str(out["--out"])]
        if command == "train":
            argv += ["--log", str(out["--log"])]
        else:
            argv += ["--test-ids", "1", "--rows", "none"]
        rc, stdout, stderr = run(capsys, command, "--dataset", DATASET, *argv)
        assert rc == 1
        assert stdout == ""
        assert stderr == f"error: [Errno 2] No such file or directory: '{out[flag]}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, value", [
        (["train", "--train-ids", "0,1", "--out", "model.json"], "inf"),
        (["summarize", "--baseline"], "nan"),
        (["train", "--train-ids", "0,1", "--out", "model.json"], "-0.5"),
    ])
    def test_non_finite_lambda_fails_before_any_warning(self, tmp_path, argv, value):
        # in a child process, so that numpy's warnings would reach stderr
        argv = [a if a != "model.json" else str(tmp_path / a) for a in argv]
        proc = run_module(*argv, "--dataset", DATASET, "--lambda", value)
        assert proc.returncode == 1
        assert proc.stderr == f"error: lambda must be finite and >= 0, not {value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("documents", [[], ["", "  "], ["!!! ...", "?"]])
    def test_set_without_sentences_names_its_line(self, capsys, tmp_path, documents):
        first, second = FIXTURE_JSONL.read_text(encoding="utf-8").splitlines()[:2]
        record = dict(json.loads(second), documents=documents)
        dataset = self._dataset(tmp_path, [first, json.dumps(record)])
        rc, _, stderr = run(capsys, "summarize", "--dataset", dataset, "--baseline")
        assert rc == 1
        assert stderr == f"error: line 2: set {record['set_id']!r} contains zero sentences\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: [1, 2], "a model file must be a JSON object"),
        (lambda d: "model", "a model file must be a JSON object"),
        (lambda d: dict(d, feature_config=[1]),
         "model file missing or bad field: feature_config must be an object, not [1]"),
        (lambda d: dict(d, weights=[0.5]),
         "model file missing or bad field: weights must be an object, not [0.5]"),
        (lambda d: dict(d, **{"lambda": -1}), "lambda must be finite and >= 0, not -1.0"),
        (lambda d: dict(d, loss_config=dict(d["loss_config"], multi_ref_aggregation="max-f")),
         "model file missing or bad field: multi_ref_aggregation must be mean-f, not 'max-f'"),
    ], ids=["array", "string", "feature_config", "weights", "negative-lambda", "aggregation"])
    def test_malformed_model_file_says_what_is_wrong(self, capsys, tmp_path, edit, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(edit(json.loads(SMALL_MODEL.read_text(encoding="utf-8")))))
        rc, stdout, stderr = run(
            capsys, "summarize", "--dataset", DATASET, "--model-file", str(model)
        )
        assert rc == 1
        assert stdout == ""
        assert stderr == f"error: {message}\n"

    def test_legacy_per_ref_loss_model_summarizes_as_before(self, capsys, tmp_path):
        """"per-ref-loss" names the one loss, which prediction does not read."""
        payload = json.loads(SMALL_MODEL.read_text(encoding="utf-8"))
        payload["loss_config"]["multi_ref_aggregation"] = "per-ref-loss"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        rc, stdout, stderr = run(
            capsys, "summarize", "--dataset", DATASET, "--model-file", str(model)
        )
        assert (rc, stderr) == (0, "")
        assert stdout == GOLDEN_SUMMARIES.read_text(encoding="utf-8")

    def test_predictions_that_are_not_json_name_the_file(self, capsys, tmp_path):
        preds = tmp_path / "preds.json"
        preds.write_text("[\n")
        rc, _, stderr = run(capsys, "evaluate", "--dataset", DATASET, "--predictions", str(preds))
        assert rc == 1
        assert stderr == (f"error: {preds}: malformed JSON "
                          "(Expecting value: line 2 column 1 (char 2))\n")

    def test_validation_ids_need_a_c_grid(self, capsys, tmp_path, monkeypatch):
        # one C leaves nothing to select on the validation sets
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        rc, stdout, stderr = run(capsys, "train", "--dataset", DATASET, "--train-ids", "0,1",
                                 "--val-ids", "2", "--C", "1", "--out", str(tmp_path / "m.json"))
        assert rc == 1
        assert stderr == "error: --val-ids needs a C grid (give --C two or more values)\n"
        assert stdout == ""
        assert trained == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, argv", [
        ("train", ["--train-ids", "0"]),
        ("curve", ["--train-ids", "0", "--test-ids", "1"]),
        ("ablate", ["--train-ids", "0", "--test-ids", "1"]),
    ])
    def test_empty_c_grid_fails(self, capsys, tmp_path, command, argv):
        out = tmp_path / "out.json"
        rc, _, stderr = run(capsys, command, "--dataset", DATASET, *argv, "--C=",
                            "--out", str(out))
        assert rc == 1
        assert stderr.startswith("error: --C needs at least one value")
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, flag", [
        ("summarize", ["--model-file", str(SMALL_MODEL), "--sets="], "--sets"),
        ("ablate", ["--train-ids", "0", "--test-ids", "1", "--rows="], "--rows"),
        ("train", ["--train-ids="], "--train-ids"),
        ("train", ["--train-ids", "0", "--groups="], "--groups"),
        ("curve", ["--train-ids", "0", "--test-ids", "1", "--sizes="], "--sizes"),
        ("curve", ["--train-ids=", "--test-ids", "1", "--sizes", "1"], "--train-ids"),
        ("ablate", ["--train-ids=", "--test-ids", "1"], "--train-ids"),
        ("bounds", ["--model-file", str(SMALL_MODEL), "--train-ids=", "--test-ids", "1"],
         "--train-ids"),
        ("bounds", ["--model-file", str(SMALL_MODEL), "--train-ids", "0", "--test-ids="],
         "--test-ids"),
        ("train", ["--train-ids", "0", "--val-ids="], "--val-ids"),
    ])
    def test_empty_list_flag_fails(self, capsys, tmp_path, monkeypatch, command, argv, flag):
        # an empty list used to mean "all": every set, row or feature group
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "out.json"
        rc, stdout, stderr = run(capsys, command, "--dataset", DATASET, *argv,
                                 "--out", str(out))
        assert rc == 1
        assert stderr == f"error: {flag} needs at least one value\n"
        assert stdout == "" and trained == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, count, message", [
        ("curve", "-1", "--test-count must be at least 1, got -1"),
        ("ablate", "0", "--test-count must be at least 1, got 0"),
        ("curve", "40", "--test-count 40 leaves no training sets (n=40)"),
    ], ids=["curve--1", "ablate-0", "curve-40"])
    def test_test_count_out_of_range_fails_before_training(
        self, capsys, tmp_path, monkeypatch, command, count, message
    ):
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "out.json"
        rc, stdout, stderr = run(capsys, command, "--dataset", DATASET, "--test-count", count,
                                 "--out", str(out))
        assert rc == 1
        assert stderr == f"error: {message}\n"
        assert stdout == "" and trained == []
        assert not out.exists()

    @pytest.mark.parametrize("command, argv", [
        ("curve", ["--sizes", "1", "--test-count", "2"]),
        ("ablate", ["--train-ids", "0", "--test-ids", "1"]),
    ])
    def test_c_grid_fails_where_one_c_is_trained(self, capsys, tmp_path, command, argv):
        # only train selects among a grid; these would train the first C alone
        out = tmp_path / "out.json"
        rc, stdout, stderr = run(capsys, command, "--dataset", DATASET, *argv, "--C", "1,10",
                                 "--max-iters", "1", "--out", str(out))
        assert rc == 1
        assert stderr.startswith(f"error: {command} trains at one C; --C 1,10 is a grid")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--budget", "-5", "budget_bytes must be >= 0"),
        ("--r", "0", "r must be in (0, 1]"),
    ])
    def test_bad_baseline_greedy_config_fails(self, capsys, tmp_path, flag, value, message):
        # every fixture set carries its own budget, which must not hide a bad --budget
        out = tmp_path / "summaries.json"
        rc, stdout, stderr = run(capsys, "summarize", "--dataset", DATASET, "--baseline",
                                 flag, value, "--out", str(out))
        assert rc == 1
        assert stderr == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--budget", "-5", "budget_bytes must be >= 0"),
        ("--r", "0", "r must be in (0, 1]"),
        ("--r", "1.5", "r must be in (0, 1]"),
    ])
    def test_bad_greedy_config_fails_with_model_file(self, capsys, tmp_path, flag, value,
                                                      message):
        # the model's own greedy config decides, which must not hide a bad value
        out = tmp_path / "summaries.json"
        rc, stdout, stderr = run(capsys, "summarize", "--dataset", DATASET, "--model-file",
                                 str(SMALL_MODEL), flag, value, "--out", str(out))
        assert rc == 1
        assert stderr == f"error: {message}\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["curve", "ablate"])
    def test_empty_test_split_fails(self, capsys, tmp_path, monkeypatch, command):
        # rejected before training, not after it with nothing to evaluate
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "out.json"
        rc, _, stderr = run(capsys, command, "--dataset", DATASET, "--train-ids", "0",
                            "--test-ids", "", "--max-iters", "1", "--out", str(out))
        assert rc == 1
        assert stderr == "error: --test-ids needs at least one value\n"
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, message", [
        ("train", ["--max-iters", "0"], "max_outer_iters must be >= 1"),
        ("curve", ["--max-iters", "-2"], "max_outer_iters must be >= 1"),
        ("ablate", ["--max-iters", "-2"], "max_outer_iters must be >= 1"),
        ("train", ["--epsilon", "nan"], "epsilon must be finite and >= 0"),
        ("train", ["--epsilon", "inf"], "epsilon must be finite and >= 0"),
        ("train", ["--C", "inf"], "C must be positive and finite"),
    ])
    def test_trainer_settings_that_break_training_fail(
        self, capsys, tmp_path, command, argv, message
    ):
        out = tmp_path / "out.json"
        ids = ["--train-ids", "0"] + (["--test-ids", "1"] if command != "train" else [])
        rc, _, stderr = run(capsys, command, "--dataset", DATASET, *ids, *argv,
                            "--out", str(out))
        assert rc == 1
        assert stderr.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_set_ids_fail(self, capsys, tmp_path):
        first = FIXTURE_JSONL.read_text(encoding="utf-8").splitlines()[0]
        dataset = self._dataset(tmp_path, [first, "", first])
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps({"summaries": [{"set_id": "set00", "sentence_ids": [0]}]}))
        rc, _, stderr = run(
            capsys, "evaluate", "--dataset", dataset, "--predictions", str(preds)
        )
        assert rc == 1
        assert stderr.startswith("error: line 3: duplicate set_id 'set00' (first on line 1)")

    @pytest.mark.parametrize("section, field, value", [
        ("loss_config", "rouge_stopword_removal", "false"),
        ("greedy_config", "budget_bytes", 66.9),
        ("greedy_config", "r", True),
        ("feature_config", "similarity_bins", 10.5),
        (None, "dimension", "279"),
    ])
    def test_mistyped_model_field_fails(self, capsys, tmp_path, section, field, value):
        # each value would once have been coerced (bool("false") is True)
        payload = json.loads(SMALL_MODEL.read_text(encoding="utf-8"))
        (payload[section] if section else payload)[field] = value
        model = tmp_path / "typed.json"
        model.write_text(json.dumps(payload))
        rc, stdout, stderr = run(
            capsys, "summarize", "--dataset", DATASET, "--model-file", str(model)
        )
        assert rc == 1
        assert stdout == ""
        assert stderr.startswith(f"error: model file missing or bad field: {field} must be ")

    def test_non_finite_model_weight_fails(self, capsys, tmp_path):
        payload = json.loads(SMALL_MODEL.read_text(encoding="utf-8"))
        payload["weights"][next(iter(payload["weights"]))] = float("nan")
        model = tmp_path / "nan.json"
        model.write_text(json.dumps(payload))
        rc, stdout, stderr = run(
            capsys, "summarize", "--dataset", DATASET, "--model-file", str(model)
        )
        assert rc == 1
        assert stdout == ""
        assert stderr.startswith("error:") and "must be a finite number, not nan" in stderr


def sampled_split(n_sets, test_count, seed):
    """The split ``curve`` and ``ablate`` draw without ids: all but
    ``--test-count`` sets, drawn with ``--seed``, train."""
    args = build_parser().parse_args(["curve", "--dataset", DATASET, "--test-count",
                                      str(test_count), "--seed", str(seed)])
    return _auto_split(args, n_sets)


def all_but(*ids):
    return [i for i in range(40) if i not in ids]


class TestAutoSplit:
    @pytest.mark.parametrize("test_count, seed, train, test", [
        (1, 0, all_but(24), [24]),
        (5, 0, all_but(2, 16, 24, 26, 32), [2, 16, 24, 26, 32]),
        (5, 7, all_but(3, 4, 9, 20, 25), [3, 4, 9, 20, 25]),
        (39, 1, [23], all_but(23)),
    ])
    def test_fixture_split_is_pinned(self, test_count, seed, train, test):
        assert sampled_split(40, test_count, seed) == (train, test)

    def test_shapes_and_disjointness(self):
        for n_sets, test_count, seed in [(2, 1, 0), (20, 5, 3), (30, 6, 11), (40, 39, 1)]:
            train, test = sampled_split(n_sets, test_count, seed)
            assert (len(train), len(test)) == (n_sets - test_count, test_count)
            assert not set(train) & set(test)
            assert all(0 <= i < n_sets for i in train + test)
            assert train == sorted(train) and test == sorted(test)

    def test_seed_determines_output(self):
        assert sampled_split(30, 6, 11) == sampled_split(30, 6, 11)
        assert sampled_split(30, 6, 11) != sampled_split(30, 6, 12)

    def test_exact_partition_allowed(self):
        train, test = sampled_split(9, 3, 0)
        assert sorted(train + test) == list(range(9))

    @pytest.mark.parametrize("flag", ["--test-count", "--seed"])
    def test_a_drawn_split_flag_beside_ids_fails(self, capsys, flag):
        # it used to be ignored without a word
        rc, stdout, stderr = run(capsys, "curve", "--dataset", DATASET, "--sizes", "1",
                                 "--train-ids", "0", "--test-ids", "1", flag, "1")
        assert rc == 1 and stdout == ""
        assert stderr == (f"error: {flag} applies only to a drawn split; give it without "
                          "--train-ids and --test-ids\n")


@pytest.mark.parametrize("kind", ["pairwise", "pairwise-split", "coverage"])
def test_train_and_summarize_are_byte_identical_on_rerun(capsys, tmp_path, kind):
    outputs = []
    for attempt in ("a", "b"):
        model = tmp_path / f"model-{attempt}.json"
        summaries = tmp_path / f"summaries-{attempt}.json"
        rc, _, _ = run(
            capsys, "train", "--dataset", DATASET, "--model", kind,
            "--train-ids", "0,1,2,3", "--out", str(model),
        )
        assert rc == 0
        rc, _, _ = run(
            capsys, "summarize", "--dataset", DATASET, "--model-file", str(model),
            "--out", str(summaries),
        )
        assert rc == 0
        log = tmp_path / f"model-{attempt}.json.log.jsonl"
        outputs.append((model.read_bytes(), log.read_bytes(), summaries.read_bytes()))
    assert outputs[0] == outputs[1]


class TestBounds:
    def test_table(self, capsys, tmp_path):
        out = tmp_path / "bounds.json"
        rc, stdout, _ = run(
            capsys, "bounds", "--dataset", DATASET, "--model-file", str(SMALL_MODEL),
            "--train-ids", "0,1,2,3,4,5", "--test-ids", "6,7,8", "--out", str(out),
        )
        assert rc == 0
        lines = stdout.splitlines()
        assert lines[0] == "bound\tmean_f"
        assert [line.split("\t")[0] for line in lines[1:]] == [
            "human", "extractive", "model_fit", "prediction",
        ]
        rows = json.loads(out.read_text())
        assert all(row["mean_f"] == pytest.approx(1.0) for row in rows)

    def test_empty_id_list_fails(self, capsys):
        rc, _, stderr = run(
            capsys, "bounds", "--dataset", DATASET, "--model-file", str(SMALL_MODEL),
            "--train-ids", "", "--test-ids", "6",
        )
        assert rc == 1
        assert "--train-ids" in stderr


def run_curve(*log_level):
    # a child process: in-process, pytest's own log capture takes the warning
    proc = run_module(*log_level, "curve", "--dataset", DATASET, "--sizes", "1,2,50",
                      "--train-ids", "0,1", "--test-ids", "2,3")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "size\tmean_f\tstderr_f", "1\t1.00000\t0.00000", "2\t1.00000\t0.00000",
    ]
    return proc.stderr


class TestCurve:
    def test_explicit_splits(self):
        # the skipped size is logged like every other warning, without a prefix
        assert run_curve() == "curve size 50 exceeds 2 available training sets; skipped\n"

    def test_log_level_error_silences_the_skipped_size(self):
        assert run_curve("--log-level", "error") == ""

    @pytest.mark.parametrize("sizes", ["-1,2", "0"])
    def test_non_positive_size_fails(self, capsys, sizes):
        # a negative size used to slice off the last training sets silently
        rc, stdout, stderr = run(
            capsys, "curve", "--dataset", DATASET, f"--sizes={sizes}",
            "--train-ids", "0,1,2", "--test-ids", "5",
        )
        assert rc == 1 and stdout == ""
        assert stderr.startswith("error: --sizes: training sizes must be positive")

    def test_half_specified_split_fails(self, capsys):
        rc, _, stderr = run(
            capsys, "curve", "--dataset", DATASET, "--sizes", "1", "--train-ids", "0,1"
        )
        assert rc == 1
        assert "both" in stderr


class TestAblate:
    def test_single_row(self, capsys):
        rc, stdout, _ = run(
            capsys, "ablate", "--dataset", DATASET, "--rows", "none",
            "--train-ids", "0,1", "--test-ids", "2",
        )
        assert rc == 0
        assert stdout.splitlines() == ["removed\tmean_f", "none\t1.00000"]

    def test_unknown_row_fails(self, capsys, monkeypatch):
        # every row is checked before the first one trains
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        rc, stdout, stderr = run(
            capsys, "ablate", "--dataset", DATASET, "--rows", "none,bogus",
            "--train-ids", "0", "--test-ids", "1",
        )
        assert rc == 1
        assert "bogus" in stderr and "none" in stderr
        assert stdout == "" and trained == []


DATA = {"--dataset", "--stopwords", "--out"}
GREEDY = {"--budget", "--r"}
LAMBDA = {"--lambda"}
LOSS = {"--rouge-drop-stopwords"}
TRAINING = GREEDY | LAMBDA | LOSS | {"--model", "--groups", "--C", "--epsilon", "--max-iters"}
SPLIT = {"--train-ids", "--test-ids", "--test-count", "--seed"}
COMMAND_FLAGS = {
    "train": DATA | TRAINING | {"--single-reference", "--train-ids", "--val-ids", "--log"},
    "summarize": DATA | GREEDY | LAMBDA | {"--model-file", "--baseline", "--sets"},
    "evaluate": DATA | LOSS | {"--predictions", "--compare"},
    "bounds": DATA | GREEDY | LOSS | {"--model-file", "--train-ids", "--test-ids"},
    "curve": DATA | TRAINING | SPLIT | {"--sizes"},
    "ablate": DATA | TRAINING | SPLIT | {"--rows"},
}


class TestFlagGroups:
    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert flags == COMMAND_FLAGS

    @pytest.mark.parametrize("argv", [
        ["curve", "--single-reference"],
        ["ablate", "--single-reference"],
        ["train", "--seed", "1"],
        ["summarize", "--C", "3"],
        ["evaluate", "--predictions", "p.json", "--budget", "5"],
        ["bounds", "--model-file", "m.json", "--train-ids", "0", "--test-ids", "1",
         "--groups", "basic"],
        # 1 - mean F is the one training loss: no command takes --aggregation
        *([command, "--aggregation", "mean-f"] for command in ("train", "curve", "ablate")),
        ["bounds", "--model-file", "m.json", "--train-ids", "0", "--test-ids", "1",
         "--aggregation", "mean-f"],
        ["evaluate", "--predictions", "p.json", "--aggregation", "mean-f"],
        # a prefix of a flag is not that flag (required flags are given in
        # full, or argparse reports them missing first)
        ["train", "--rouge", "--lam", "-2", "--max", "3", "--single"],
        ["evaluate", "--predictions", "p.json", "--comp", "q"],
        ["evaluate", "--pred", "p.json", "--predictions", "p.json"],
        ["summarize", "--baseline", "--budg", "5"],
        ["curve", "--size", "1"],
        ["ablate", "--row", "none"],
        ["bounds", "--model", "m.json", "--model-file", "m.json", "--train-ids", "0",
         "--test-ids", "1"],
    ])
    def test_a_flag_the_command_ignores_is_rejected(self, capsys, argv):
        command, *rest = argv
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--dataset", DATASET, *rest])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err



class TestErrorsAndEntryPoint:
    def test_missing_dataset_file(self, capsys):
        rc, _, stderr = run(
            capsys, "summarize", "--dataset", "/no/such/file.jsonl", "--baseline"
        )
        assert rc == 1
        assert stderr.startswith("error:")

    def test_module_help_exits_zero(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "structsum" in proc.stdout
        for command in ("train", "summarize", "evaluate", "bounds", "curve", "ablate"):
            assert command in proc.stdout
