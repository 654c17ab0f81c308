"""The offline checks of the CI workflow, as tests: the golden summaries and
byte-identical output files under one and four BLAS threads, and the
fixture generator reproducing the committed fixtures; and one dual solve of
a large working set under one and two BLAS threads (ROADMAP item 12)."""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import structsum

from conftest import FIXTURE_DIR, FIXTURE_JSONL, GOLDEN_BASELINE, GOLDEN_SUMMARIES, SMALL_MODEL

DATASET = str(FIXTURE_JSONL)
REPO_ROOT = FIXTURE_DIR.parents[1]
# four small sets from the benchmark's corpus generator, run from the repo root
STUDY_CORPUS = ("import sys; from perfbench.gen import write_corpus; "
                "write_corpus(sys.argv[1], 'small', 4, 3)")
# tests/fixtures/record_working_set.py wrote the state; the solve runs from it
# as WorkingSet.solve would, and the alphas' bytes are printed
LARGE_SOLVE = """
import sys
import numpy as np
from structsum.learner import TrainerConfig, WorkingSet
d = np.load(sys.argv[1])
m = len(d["loss"])
ws = WorkingSet(int(d["n_examples"]), float(d["C"]), 1)
ws.K, ws._loss, ws._example = d["K"], d["loss"], d["example"]
ws._alpha, ws._tight, ws._at_zero = d["alpha"].copy(), d["tight"].copy(), np.zeros(m, bool)
ws._idx, ws._val = [np.zeros(0, np.intp)] * m, [np.zeros(0)] * m
ws.solve(TrainerConfig(C=float(d["C"])))
print(ws.last_iterations, ws._alpha.tobytes().hex())
"""


def _env(**extra) -> dict:
    """This environment, with the package this test imported first on the path."""
    package_root = str(Path(structsum.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _cli(threads: int, *argv) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "structsum.cli", *argv], capture_output=True, text=True,
        env=_env(OPENBLAS_NUM_THREADS=str(threads)), check=True,
    )
    return proc.stdout


def test_cli_outputs_match_the_goldens_and_each_other_across_blas_threads(tmp_path):
    train = ["train", "--dataset", DATASET, "--train-ids", ",".join(map(str, range(30)))]
    outputs = {}
    for threads in (1, 4):
        out = tmp_path / str(threads)
        out.mkdir()
        baseline = _cli(threads, "summarize", "--dataset", DATASET, "--baseline")
        assert baseline == GOLDEN_BASELINE.read_text(encoding="utf-8")
        summaries = _cli(threads, "summarize", "--dataset", DATASET,
                         "--model-file", str(SMALL_MODEL))
        assert summaries == GOLDEN_SUMMARIES.read_text(encoding="utf-8")
        _cli(threads, *train, "--out", str(out / "model.json"))
        _cli(threads, "summarize", "--dataset", DATASET, "--model-file", str(out / "model.json"),
             "--out", str(out / "preds.json"))
        _cli(threads, *train, "--C", "0.1,1,10", "--val-ids", "30,31,32",
             "--out", str(out / "grid.json"))
        outputs[threads] = out
    for name in ("model.json", "preds.json", "grid.json", "grid.json.cgrid.json"):
        assert filecmp.cmp(outputs[1] / name, outputs[4] / name, shallow=False), name


def test_study_outputs_match_across_blas_threads(tmp_path):
    """ablate and curve, which train under non-default feature configs end to
    end, write the same bytes under one and four BLAS threads. The sets are
    generated ones that the models fit only in part, so the tables carry
    distinct F values rather than the fixture's 1.0 everywhere."""
    dataset = str(tmp_path / "study.jsonl")
    subprocess.run([sys.executable, "-c", STUDY_CORPUS, dataset], cwd=REPO_ROOT, check=True)
    split = ["--dataset", dataset, "--train-ids", "0,1", "--test-ids", "2,3", "--max-iters", "2"]
    for threads in (1, 4):
        _cli(threads, "ablate", *split, "--rows", "none,basic,all except basic",
             "--out", str(tmp_path / f"ablate{threads}.json"))
        _cli(threads, "curve", *split, "--sizes", "1,2",
             "--out", str(tmp_path / f"curve{threads}.json"))
    for name in ("ablate", "curve"):
        assert filecmp.cmp(tmp_path / f"{name}1.json", tmp_path / f"{name}4.json",
                           shallow=False), name
        rows = json.loads((tmp_path / f"{name}1.json").read_text(encoding="utf-8"))
        assert len({row["mean_f"] for row in rows}) == len(rows), name


def test_generator_reproduces_the_committed_fixtures(tmp_path):
    subprocess.run([sys.executable, str(FIXTURE_DIR / "generate.py"), str(tmp_path)],
                   capture_output=True, env=_env(), check=True)
    for name in ("fixture.jsonl", "expected_results.json", "golden_summaries.txt",
                 "golden_baseline.txt"):
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name


@pytest.mark.xfail(strict=False, raises=AssertionError, reason=(
    "ROADMAP item 12: on some CPUs LAPACK's eigh of a KKT matrix past about 150 rows "
    "gives other bits under 2 BLAS threads than under 1"))
def test_large_dual_solve_matches_across_blas_threads():
    state = FIXTURE_DIR / "large_working_set.npz"
    out = {}
    for threads in (1, 2):
        out[threads] = subprocess.run(
            [sys.executable, "-c", LARGE_SOLVE, str(state)], capture_output=True, text=True,
            env=_env(OPENBLAS_NUM_THREADS=str(threads)), check=True,
        ).stdout
    assert out[1] == out[2]
