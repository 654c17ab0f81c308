"""The benchmark's workloads, driven through structsum's public API.

Each workload generates its inputs from the seed (``prepare``), loads them
the way a user would (``setup``, which is what ``setup_s`` times) and then
runs numbered operations: ``op`` does the timed work and ``check`` then
checks its outputs, outside any tracing. Operation ``i`` is the same work on
every run with the same seed, so the outputs of the first ``min_ops``
operations give a digest that two runs of the same code must reproduce.

Operation 0 is the evaluation operation. It runs on evaluation sets that
every run generates alike, whatever its seed, in front of the seeded sets,
and its F values give ``heldout_f``: a quality figure that is exact, so its
bound can be tight. Later operations run on the seeded sets.

Library functions are looked up on their modules at call time, so a traced
run sees the patched boundaries.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from structsum import corpus as ss_corpus
from structsum import experiments as ss_experiments
from structsum import greedy as ss_greedy
from structsum import learner as ss_learner
from structsum import scoring as ss_scoring
from structsum.features import FeatureConfig, registry_for
from structsum.greedy import GreedyConfig
from structsum.learner import Model, TrainerConfig
from structsum.rouge import LossConfig

from . import checks
from .gen import SHAPES, write_corpus
from .tracing import OP_LAYER, patch_function, restore

BUDGET = 665
R = 0.3
LAM = 4.0
# seed of the fixed-weight model files duc-summarize loads
MODEL_SEED = 0


@dataclass
class OpOutput:
    """What one operation produced and how long its timed part took.

    ``raw`` holds what the timed part returned, for ``Workload.check``."""

    seconds: float
    raw: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    f_values: list[float] = field(default_factory=list)
    outputs: list[tuple[str, bytes]] = field(default_factory=list)
    timings: dict[str, list[float]] = field(default_factory=dict)
    trainings: list[dict] = field(default_factory=list)

    def timing(self, name: str, value: float) -> None:
        self.timings.setdefault(name, []).append(value)


class TrainRecorder:
    """Keeps every TrainResult that ``experiments.train_on`` returns, with
    the clock reading at each iteration's log entry.

    ``select_c`` calls ``train_on`` without a log callback and drops the
    results, so the recorder patches ``train_on`` itself.
    """

    def __init__(self):
        self.runs: list[dict] = []
        self._undo = patch_function("structsum.experiments:train_on", self._wrap)
        if self._undo is None:
            raise RuntimeError("structsum.experiments.train_on not found")

    def _wrap(self, train_on):
        def recorded(data, ids, *args, log_callback=None, **kwargs):
            stamps = [time.perf_counter()]

            def log(entry):
                stamps.append(time.perf_counter())
                if log_callback is not None:
                    log_callback(entry)

            result = train_on(data, ids, *args, log_callback=log, **kwargs)
            seconds = time.perf_counter() - stamps[0]
            self.runs.append(
                {"result": result, "stamps": stamps, "seconds": seconds, "examples": len(ids)}
            )
            return result

        return recorded

    def take(self) -> list[dict]:
        runs, self.runs = self.runs, []
        return runs

    def close(self) -> None:
        restore(self._undo)


def check_training(label: str, run: dict, out: OpOutput) -> None:
    """Weights finite, dual non-decreasing, train F in [0, 1]; times each
    iteration after the first (the first also builds targets and state)."""
    result = run["result"]
    out.trainings.append(run)
    out.violations += checks.weight_violations(label, result.model.w)
    out.violations += checks.dual_violations(label, result.dual_history)
    for entry in result.iterations:
        if "train_rouge1f" in entry:
            out.violations += checks.f_violations(f"{label} train F", entry["train_rouge1f"])
    stamps = run["stamps"]
    for a, b in zip(stamps[1:], stamps[2:]):
        out.timing("train_iter_ms", (b - a) * 1e3)


def check_summary(label: str, x, summary, out: OpOutput) -> None:
    costs = [s.cost for s in x.sentences]
    budget = x.budget_bytes if x.budget_bytes is not None else BUDGET
    out.violations += checks.summary_violations(
        label, costs, summary.selected, summary.total_cost, budget
    )
    text = ",".join(str(i) for i in summary.selected) + f";{summary.total_cost}"
    out.outputs.append((f"summary {label}", text.encode()))


def evaluate(label: str, data, x, summary, out: OpOutput) -> None:
    """ROUGE-1 F of one summary against the set's references."""
    pair = next(p for p in data if p[0] is x)
    report = ss_experiments.evaluate_predictions([pair], {x.set_id: summary}, LossConfig())
    out.violations += checks.f_violations(label, report.mean_f)
    out.f_values.append(report.mean_f)


def save_model(label: str, model: Model, workdir: Path, out: OpOutput) -> None:
    path = workdir / "models" / f"{label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    model.save(path)
    out.violations += checks.weight_violations(label, model.w)
    out.outputs.append((f"model {label}", path.read_bytes()))


class Workload:
    name = ""
    why = ""
    shape = "duc"
    n_eval = 0  # evaluation sets, at the front of the corpus
    n_sets = 0  # seeded sets, after them
    min_ops = 2

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.corpus_path = workdir / "corpus.jsonl"

    def prepare(self) -> None:
        write_corpus(self.corpus_path, self.shape, self.n_sets, self.seed, self.n_eval)

    def setup(self) -> dict:
        return {"data": ss_corpus.load_dataset(self.corpus_path)}

    def setup_violations(self, state: dict) -> list[str]:
        shape = SHAPES[self.shape]
        data = state["data"]
        out = []
        if len(data) != self.n_eval + self.n_sets:
            out.append(f"loaded {len(data)} sets, generated {self.n_eval + self.n_sets}")
        for x, Y in data:
            if x.num_sentences != shape.sentences or len(Y.references) != shape.references:
                out.append(
                    f"set {x.set_id}: {x.num_sentences} sentences and {len(Y.references)} "
                    f"references, generated {shape.sentences} and {shape.references}"
                )
        return out

    def op(self, state: dict, i: int, span) -> OpOutput:
        """Operation ``i``'s timed work, inside ``span(OP_LAYER)``."""
        raise NotImplementedError

    def check(self, state: dict, i: int, out: OpOutput, recorder: TrainRecorder) -> None:
        """Check operation ``i``'s outputs and record them in ``out``."""
        raise NotImplementedError


class TrainPairwise(Workload):
    name = "duc-train-pairwise"
    why = ("the paper's main model at DUC shape (n=200); the per-set pair-feature build "
           "dominates training and the QP does almost nothing")
    shape = "duc"
    n_eval = 2
    train_sets = 6
    n_sets = 12
    min_ops = 2
    trainer = TrainerConfig(C=10.0, epsilon=1e-3, max_outer_iters=2, track_train_rouge=True)

    def ids(self, i):
        """(training set, held-out set) of operation ``i``."""
        if i == 0:
            return 0, 1
        j = i - 1
        return (self.n_eval + j % self.train_sets,
                self.n_eval + self.train_sets + j % (self.n_sets - self.train_sets))

    def op(self, state, i, span):
        data = state["data"]
        train_id, heldout_id = self.ids(i)
        x_test = data[heldout_id][0]
        with span(OP_LAYER):
            t0 = time.perf_counter()
            result = ss_experiments.train_on(
                data, [train_id], "pairwise", FeatureConfig(), LossConfig(),
                GreedyConfig(budget_bytes=BUDGET, r=R), self.trainer, lam=LAM,
            )
            t1 = time.perf_counter()
            summary = ss_learner.predict(x_test, result.model)
            t2 = time.perf_counter()
        out = OpOutput(seconds=t2 - t0, raw={"model": result.model, "summary": summary})
        out.timing("train_s", t1 - t0)
        out.timing("predict_ms", (t2 - t1) * 1e3)
        return out

    def check(self, state, i, out, recorder):
        data = state["data"]
        x_test = data[self.ids(i)[1]][0]
        summary = out.raw["summary"]
        for k, run in enumerate(recorder.take()):
            check_training(f"op{i} train{k}", run, out)
        save_model(f"op{i}-pairwise", out.raw["model"], self.workdir, out)
        check_summary(f"op{i} {x_test.set_id}", x_test, summary, out)
        evaluate(f"op{i} {x_test.set_id}", data, x_test, summary, out)


class Summarize(Workload):
    name = "duc-summarize"
    why = ("inference as users run it: each held-out DUC-shaped set is summarized once by "
           "three fixed-weight models and the tf-idf baseline; no oracle and no QP")
    shape = "duc"
    n_eval = 1
    n_sets = 12
    min_ops = 4
    kinds = (("pairwise", "pairwise", LAM), ("split", "pairwise-split", None),
             ("coverage", "coverage", None))

    def prepare(self):
        super().prepare()
        rng = np.random.default_rng(MODEL_SEED)
        cfg = FeatureConfig()
        for label, kind, lam in self.kinds:
            w = rng.standard_normal(registry_for(cfg, kind).dimension)
            model = Model(kind, w, cfg, LossConfig(), GreedyConfig(budget_bytes=BUDGET, r=R), lam)
            model.save(self.workdir / f"model-{label}.json")

    def setup(self):
        state = super().setup()
        state["models"] = {
            label: Model.load(self.workdir / f"model-{label}.json") for label, _, _ in self.kinds
        }
        return state

    def _baseline(self, x):
        scorer = ss_scoring.PairwiseScorer.tfidf_baseline(x, lam=LAM)
        budget = x.budget_bytes if x.budget_bytes is not None else BUDGET
        cfg = GreedyConfig(budget_bytes=budget, r=R)
        return ss_greedy.greedy_maximize(x, ss_scoring.gain_state(x, scorer), cost=None, cfg=cfg)

    def set_index(self, i):
        return 0 if i == 0 else self.n_eval + (i - 1) % self.n_sets

    def op(self, state, i, span):
        x = state["data"][self.set_index(i)][0]
        summaries = {}
        with span(OP_LAYER):
            t_start = time.perf_counter()
            times = {}
            for label, _, _ in self.kinds:
                t = time.perf_counter()
                summaries[label] = ss_learner.predict(x, state["models"][label])
                times[label] = time.perf_counter() - t
            t = time.perf_counter()
            summaries["baseline"] = self._baseline(x)
            times["baseline"] = time.perf_counter() - t
            t_end = time.perf_counter()
        out = OpOutput(seconds=t_end - t_start, raw=summaries)
        for label in summaries:
            out.timing(f"summarize_ms.{label}", times[label] * 1e3)
        return out

    def check(self, state, i, out, recorder):
        data = state["data"]
        x = data[self.set_index(i)][0]
        for label, summary in out.raw.items():
            check_summary(f"op{i} {x.set_id} {label}", x, summary, out)
            evaluate(f"op{i} {x.set_id} {label}", data, x, summary, out)


class CGridCoverage(Workload):
    name = "small-cgrid-coverage"
    why = ("the shape of the C-grid, curve and ablation studies: select_c retrains the "
           "coverage model over a C grid on many small sets (n=40), so the dual QP dominates")
    shape = "small"
    # 12 sets x 3 iterations rather than 6 x 6: both end with 36 constraints,
    # so the QP keeps the largest share, but the QP's cost varies a lot
    # between groups of sets and a larger group averages it out
    train_pool = 48
    train_per_op = 12
    val_per_op = 3
    n_eval = train_per_op + val_per_op
    n_sets = 60
    min_ops = 2
    c_grid = (1.0, 10.0, 100.0)
    trainer = TrainerConfig(epsilon=1e-3, max_outer_iters=3, track_train_rouge=True)

    def ids(self, i):
        """(training sets, validation sets) of operation ``i``."""
        if i == 0:
            return list(range(self.train_per_op)), list(range(self.train_per_op, self.n_eval))
        j = i - 1
        val_pool = self.n_sets - self.train_pool
        return ([self.n_eval + (self.train_per_op * j + k) % self.train_pool
                 for k in range(self.train_per_op)],
                [self.n_eval + self.train_pool + (self.val_per_op * j + k) % val_pool
                 for k in range(self.val_per_op)])

    def op(self, state, i, span):
        data = state["data"]
        train_ids, val_ids = self.ids(i)
        with span(OP_LAYER):
            t0 = time.perf_counter()
            best_c, table = ss_experiments.select_c(
                data, train_ids, val_ids, self.c_grid, "coverage", FeatureConfig(),
                LossConfig(), GreedyConfig(budget_bytes=BUDGET, r=R), self.trainer,
            )
            t1 = time.perf_counter()
        return OpOutput(seconds=t1 - t0, raw={"best_c": best_c, "table": table})

    def check(self, state, i, out, recorder):
        best_c, table = out.raw["best_c"], out.raw["table"]
        runs = recorder.take()
        if len(runs) != len(self.c_grid):
            out.violations.append(f"op{i}: {len(runs)} trainings for {len(self.c_grid)} C values")
        for run, row in zip(runs, table):
            label = f"op{i}-C{row['C']:g}"
            check_training(label, run, out)
            out.timing("train_s", run["seconds"])
            save_model(label, run["result"].model, self.workdir, out)
            out.violations += checks.f_violations(f"{label} val F", row["val_f"])
        best = [row["val_f"] for row in table if row["C"] == best_c]
        if not best or best[0] != max(row["val_f"] for row in table):
            out.violations.append(f"op{i}: best C {best_c} does not have the best val F")
        else:
            out.f_values.append(best[0])
        out.outputs.append((f"op{i} table", repr((best_c, table)).encode()))


WORKLOADS = {w.name: w for w in (TrainPairwise, Summarize, CGridCoverage)}


def null_span(layer):
    return contextlib.nullcontext()
