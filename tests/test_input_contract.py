"""The CLI's input contract, as a standing check.

``cli.main`` runs in-process on mutated dataset records, model files,
prediction files and flag values. Every case must end in one of three ways:
exit 0 with output that parses, exit 1 with nothing on stdout and exactly
one ``error:`` line of at most 300 characters on stderr, or, for a flag that
argparse itself types (an int, a float or a choice), argparse's usage error
with exit 2. No exception may escape, and
numpy's floating-point warnings count as escaping: a NaN that reaches a
gain is a fault, not an output. The draws are derandomized, so every run
tries the same cases.
"""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from structsum.cli import main

from conftest import FIXTURE_JSONL, SMALL_MODEL

RECORDS = [json.loads(line) for line in FIXTURE_JSONL.read_text("utf-8").splitlines()[:4]]
MODEL = json.loads(SMALL_MODEL.read_text("utf-8"))
PREDICTIONS = {"summaries": [{"set_id": r["set_id"], "sentence_ids": [0, 1]} for r in RECORDS]}

CONTRACT = settings(derandomize=True, max_examples=80, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# JSON values that a field may be retyped to
LONG = "word " * 4000  # an error line may quote only a short part of it
VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 10**30, 1.5, -0.5, math.nan, math.inf, "", " ", "x",
    "!!! ... ?", LONG, "Tok000. " * 300, [], [""], ["!?"], [1], [[0]], {}, {"a": 1},
])


def cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rc = main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_command(tmp: Path, argv, usage_ok: bool = False, blame=()) -> int:
    """Run ``argv`` with ``--out`` in ``tmp`` and check how it ended; an
    error must name everything in ``blame``. Returns the exit code."""
    out = tmp / "out.json"
    rc, stdout, stderr = cli([*argv, "--out", out])
    if rc == 0:
        assert stderr == "", stderr
        json.loads(out.read_text("utf-8"))
        return rc
    assert not out.exists()
    if rc == 1:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr
        assert len(lines[0]) <= 300, f"{len(lines[0])} characters: {lines[0][:300]}"
        assert all(str(b) in lines[0] for b in blame), lines[0]
        assert stdout == "", stdout
    else:
        assert rc == 2 and usage_ok, (rc, stderr)
        assert stderr.startswith("usage: structsum") and ": error: " in stderr, stderr
    return rc


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(r if isinstance(r, str) else json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    return path


def commands(dataset: Path, predictions: Path, model=SMALL_MODEL):
    """Each command's arguments, with flags that keep it cheap."""
    split = ["--train-ids", "0,1", "--test-ids", "2", "--max-iters", "1"]
    return {
        "train": ["train", "--dataset", dataset, "--train-ids", "0,1", "--max-iters", "1"],
        "train-grid": ["train", "--dataset", dataset, "--train-ids", "0,1", "--val-ids", "2",
                       "--C", "1,10", "--max-iters", "1"],
        "summarize": ["summarize", "--dataset", dataset, "--baseline"],
        "summarize-model": ["summarize", "--dataset", dataset, "--model-file", model],
        "evaluate": ["evaluate", "--dataset", dataset, "--predictions", predictions],
        "bounds": ["bounds", "--dataset", dataset, "--model-file", model, "--train-ids", "0",
                   "--test-ids", "1"],
        "curve": ["curve", "--dataset", dataset, *split, "--sizes", "1"],
        "ablate": ["ablate", "--dataset", dataset, *split, "--rows", "none"],
        # a split of --test-count sets sampled with --seed
        "curve-sampled": ["curve", "--dataset", dataset, "--test-count", "1", "--max-iters", "1",
                          "--sizes", "1"],
        "ablate-sampled": ["ablate", "--dataset", dataset, "--test-count", "1",
                           "--max-iters", "1", "--rows", "none"],
    }


def mutate(doc, path, value, drop: bool):
    """A copy of ``doc`` with the item at ``path`` set to ``value`` or dropped."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if drop:
        del node[last]
    else:
        node[last] = value
    return doc


DATASET_PATHS = [(i, key) for i in range(len(RECORDS))
                 for key in ("set_id", "documents", "references", "budget_bytes")]
DATASET_PATHS += [(0, "documents", 0), (0, "references", 0), (2, "documents", 1)]


@CONTRACT
@given(path=st.sampled_from(DATASET_PATHS), value=VALUES, drop=st.booleans(),
       command=st.sampled_from(list(commands(Path(), Path()))))
@example(path=(1, "budget_bytes"), value=LONG, drop=False, command="summarize")
def test_mutated_dataset_records(path, value, drop, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        records = mutate(RECORDS, path, value, drop)
        dataset = write_jsonl(tmp / "data.jsonl", records)
        predictions = write_jsonl(tmp / "p.json", [PREDICTIONS])
        run_command(tmp, commands(dataset, predictions)[command])


@CONTRACT
@given(record=st.sampled_from(["not json\n", "[1, 2]\n", "\"text\"\n", "3\n", "null\n", "\n",
                               "{}\n", json.dumps(RECORDS[0]) + "\n"]),
       position=st.integers(0, len(RECORDS)),
       command=st.sampled_from(["train", "summarize", "evaluate", "curve"]))
def test_malformed_dataset_lines(record, position, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        records = RECORDS[:position] + [record] + RECORDS[position:]
        dataset = write_jsonl(tmp / "data.jsonl", records)
        predictions = write_jsonl(tmp / "p.json", [PREDICTIONS])
        run_command(tmp, commands(dataset, predictions)[command])


# weight keys that to_json never writes: out of range, no integer (among them
# "None"), aliases of index 103 (which the model has) and a key longer than an
# error line
ADDED_WEIGHT_KEYS = ["9999", "x", "None", " 103", "0103", "1_03", "k" * 300]


def _model_paths():
    paths = [(key,) for key in ("model_kind", "lambda", "dimension", "weights", "feature_config",
                                "loss_config", "greedy_config")]
    for section in ("feature_config", "loss_config", "greedy_config"):
        paths += [(section, key) for key in MODEL[section]]
    paths += [("feature_config", "coverage_levels", 0), ("feature_config", "enabled_groups", 0)]
    return paths + [("weights", key) for key in list(MODEL["weights"])[:2] + ADDED_WEIGHT_KEYS]


@CONTRACT
@given(path=st.sampled_from(_model_paths()), value=VALUES, drop=st.booleans(),
       command=st.sampled_from(["summarize-model", "bounds"]))
@example(path=("dimension",), value=LONG, drop=False, command="summarize-model")
@example(path=("weights", " 103"), value=1.5, drop=False, command="summarize-model")
@example(path=("weights", "0103"), value=-5, drop=False, command="bounds")
@example(path=("weights", "k" * 300), value=1.5, drop=False, command="summarize-model")
@example(path=("weights", "None"), value=1.5, drop=False, command="bounds")
def test_mutated_model_files(path, value, drop, command):
    added = len(path) == 2 and path[0] == "weights" and path[1] in ADDED_WEIGHT_KEYS
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        drop = drop and not added  # a weight that does not exist cannot be dropped
        model = write_jsonl(tmp / "m.json", [mutate(MODEL, path, value, drop)])
        rc = run_command(tmp, commands(FIXTURE_JSONL, Path(), model)[command])
        assert rc == 1 or not added, "an added weight key was loaded"


PREDICTION_PATHS = [("summaries",), ("summaries", 0), ("summaries", 0, "set_id"),
                    ("summaries", 0, "sentence_ids"), ("summaries", 0, "sentence_ids", 0),
                    ("summaries", 1, "set_id")]


@CONTRACT
@given(path=st.sampled_from(PREDICTION_PATHS), value=VALUES, drop=st.booleans(),
       compare=st.sampled_from([None, "valid", "mutated"]))
@example(path=("summaries", 1, "set_id"), value=LONG, drop=False, compare="mutated")
@example(path=("summaries",), value=[], drop=False, compare=None)
@example(path=("summaries",), value=[], drop=False, compare="mutated")
def test_mutated_prediction_files(path, value, drop, compare):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dataset = write_jsonl(tmp / "data.jsonl", RECORDS)
        valid = write_jsonl(tmp / "valid.json", [PREDICTIONS])
        mutated = write_jsonl(tmp / "p.json", [mutate(PREDICTIONS, path, value, drop)])
        first, second = (valid, mutated) if compare == "mutated" else (mutated, valid)
        argv = commands(dataset, first)["evaluate"]
        run_command(tmp, argv + (["--compare", second] if compare else []), blame=(mutated,))


# every list and number flag, the commands that read it, and whether argparse
# types it (so that a bad value may end in argparse's usage error)
FLAGS = {
    "--budget": (["train", "summarize", "bounds", "curve"], True),
    "--r": (["train", "summarize", "bounds", "ablate"], True),
    "--lambda": (["train", "summarize", "curve"], True),
    "--C": (["train", "train-grid", "curve", "ablate"], False),
    "--epsilon": (["train", "ablate"], True),
    "--max-iters": (["train", "curve"], True),
    "--groups": (["train", "ablate"], False),
    "--train-ids": (["train", "bounds", "curve"], False),
    "--test-ids": (["bounds", "curve", "ablate"], False),
    "--val-ids": (["train", "train-grid"], False),
    "--test-count": (["curve-sampled", "ablate-sampled"], True),
    "--seed": (["curve-sampled", "ablate-sampled"], True),
    "--sizes": (["curve", "curve-sampled"], False),
    "--rows": (["ablate", "ablate-sampled"], False),
    "--sets": (["summarize", "summarize-model"], False),
    "--model": (["train", "curve"], True),
}
FLAG_VALUES = ["", ",", ",,", " ", "x", "1,x", "-1", "-0", "0", "1", "2", "3", "1.5", "nan",
               "inf", "-inf", "1e309", "1,1", "0,0", "0,1,2", "999", "basic", "basic,basic",
               "none", "none,none", "none,bogus", "set00", "set00,set00", "set00,nope", "coverage",
               "pairwise-split"]


@CONTRACT
@given(flag=st.sampled_from(sorted(FLAGS)), data=st.data(), value=st.sampled_from(FLAG_VALUES))
def test_flag_values(flag, data, value):
    # the flag is given last, as --flag=value, so that it overrides the
    # command's own value and a leading "-" does not read as a flag
    readers, typed = FLAGS[flag]
    command = data.draw(st.sampled_from(readers), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dataset = write_jsonl(tmp / "data.jsonl", RECORDS)
        predictions = write_jsonl(tmp / "p.json", [PREDICTIONS])
        argv = commands(dataset, predictions)[command]
        run_command(tmp, [*argv, f"{flag}={value}"], usage_ok=typed)


# split flags that contradict each other: a set named in two id lists, or a
# flag of a drawn split beside explicit ids; each fails before any work,
# naming both flags
SPLIT_CONFLICTS = {
    "bounds": (["bounds", "--model-file", SMALL_MODEL, "--train-ids", "0,1", "--test-ids", "1"],
               ["--train-ids", "--test-ids"]),
    "curve": (["curve", "--train-ids", "0,1", "--test-ids", "1", "--sizes", "1", "--max-iters",
               "1", "--test-count", "-5", "--seed", "3"], ["--test-count", "--train-ids"]),
    "ablate": (["ablate", "--train-ids", "0,1", "--test-ids", "1", "--rows", "none",
                "--max-iters", "1"], ["--train-ids", "--test-ids"]),
    "train-grid": (["train", "--train-ids", "0,1", "--val-ids", "1", "--C", "1,10",
                    "--max-iters", "1"], ["--train-ids", "--val-ids"]),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CONFLICTS))
def test_contradictory_split_flags(case):
    command, *argv = SPLIT_CONFLICTS[case][0]
    with tempfile.TemporaryDirectory() as tmp:
        rc = run_command(Path(tmp), [command, "--dataset", FIXTURE_JSONL, *argv],
                         blame=SPLIT_CONFLICTS[case][1])
    assert rc == 1
