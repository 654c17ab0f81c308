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
from structsum.cli import build_parser, main
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

        def counted(sets, model_kind, feature_cfg, loss_cfg, greedy_cfg, trainer_cfg, **kwargs):
            trained.append(trainer_cfg.C)
            return real_train(
                sets, model_kind, feature_cfg, loss_cfg, greedy_cfg, trainer_cfg, **kwargs
            )

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
        ("10,1,10", "C grid repeats a value: [1.0, 10.0, 10.0]"),
        ("1,10,1.0", "C grid repeats a value: [1.0, 1.0, 10.0]"),
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
        rc, _, stderr = run(
            capsys, "summarize", "--dataset", DATASET,
            "--model-file", str(SMALL_MODEL), "--sets", "setXX",
        )
        assert rc == 1
        assert "setXX" in stderr

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

    @pytest.mark.parametrize("command, count", [("curve", "-1"), ("ablate", "0")])
    def test_test_count_below_one_fails_before_training(
        self, capsys, tmp_path, monkeypatch, command, count
    ):
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "out.json"
        rc, stdout, stderr = run(capsys, command, "--dataset", DATASET, "--test-count", count,
                                 "--out", str(out))
        assert rc == 1
        assert stderr == f"error: --test-count must be at least 1, got {count}\n"
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
        assert stderr.startswith("error:") and "not finite" in stderr


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


class TestCurve:
    def test_explicit_splits(self, capsys):
        rc, stdout, stderr = run(
            capsys, "curve", "--dataset", DATASET, "--sizes", "1,2,50",
            "--train-ids", "0,1", "--test-ids", "2,3",
        )
        assert rc == 0
        lines = stdout.splitlines()
        assert lines[0] == "size\tmean_f\tstderr_f"
        assert lines[1] == "1\t1.00000\t0.00000"
        assert lines[2] == "2\t1.00000\t0.00000"
        assert "warning:" in stderr and "50" in stderr

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

    def test_unknown_row_fails(self, capsys):
        rc, _, stderr = run(
            capsys, "ablate", "--dataset", DATASET, "--rows", "bogus",
            "--train-ids", "0", "--test-ids", "1",
        )
        assert rc == 1
        assert "bogus" in stderr and "none" in stderr


DATA = {"--dataset", "--stopwords", "--out"}
GREEDY = {"--budget", "--r"}
LAMBDA = {"--lambda"}
LOSS = {"--aggregation", "--rouge-drop-stopwords"}
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
