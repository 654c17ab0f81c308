"""Experiment harness: splits, evaluation, bounds, curves, ablations, tests."""

import json
import math
import random
import re
import statistics
from dataclasses import replace

import numpy as np
import pytest

from structsum import experiments, learner
from structsum.corpus import ReferenceSet, build_document_set, tokenize
from structsum.experiments import (
    ABLATION_ROWS,
    ablation_table,
    bounds_table,
    evaluate_predictions,
    extractive_ceiling,
    human_agreement,
    learning_curve,
    mean_f,
    prepare_sets,
    select_c,
    sign_test,
    train_on,
)
from structsum.features import GROUPS, FeatureBank, FeatureConfig
from structsum.greedy import GreedyConfig
from structsum.learner import Model, TrainerConfig, predict, psi
from structsum.rouge import LossConfig, RougeGain, greedy_target
from structsum.scoring import Summary

from conftest import EXPECTED_RESULTS, SMALL_MODEL, random_documents
from oracles import evaluate_reference


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_RESULTS.read_text(encoding="utf-8"))


def predictions(data, ids, model):
    """The model's summary of each set ``data[i] for i in ids``, by set id."""
    return {data[i][0].set_id: predict(data[i][0], model) for i in ids}


class TestPrepareSets:
    def _pair(self, make_docset, stopwords, refs, budget=12):
        x = make_docset(["Alpha beta. Gamma delta."], budget=budget)
        Y = ReferenceSet(
            set_id=x.set_id,
            references=tuple(tuple(tokenize(r, stopwords)) for r in refs),
        )
        return x, Y

    def _prepared(self, pair, budget, single_reference=False):
        (s,) = prepare_sets([pair], [0], FeatureConfig(), LossConfig(),
                            GreedyConfig(budget_bytes=budget, r=1.0), single_reference)
        return s

    def test_attaches_targets_without_touching_input(self, make_docset, stopwords):
        x, Y = self._pair(make_docset, stopwords, ["alpha beta.", "gamma delta."])
        before = replace(Y)
        s = self._prepared((x, Y), 100)
        assert s.target is None and s.raw_target_loss is None  # computed on first use
        assert s.with_target() is s
        assert Y == before
        assert s.target is not None
        assert s.x is x and s.Y is Y
        assert s.raw_target_loss == RougeGain(x, Y, LossConfig()).load(s.target.selected).raw_loss()

    def test_single_reference_uses_first_only(self, make_docset, stopwords):
        # Budget admits one sentence. Two of three references say "alpha
        # beta", so the all-reference target is sentence 0; the first
        # reference alone says "gamma delta" and flips it to sentence 1.
        refs = ["gamma delta.", "alpha beta.", "alpha beta."]
        x, Y = self._pair(make_docset, stopwords, refs)

        multi = self._prepared((x, Y), 100).with_target()
        single = self._prepared((x, Y), 100, single_reference=True).with_target()
        assert multi.target.selected == (0,)
        assert single.target.selected == (1,)
        assert len(single.Y.references) == 1
        assert len(Y.references) == 3

    def test_respects_per_set_budget(self, make_docset, stopwords):
        # cfg allows both sentences but the record's own 12 bytes does not;
        # the set keeps the config and the greedy applies the set's budget
        x, Y = self._pair(make_docset, stopwords, ["alpha beta gamma delta."])
        s = self._prepared((x, Y), 1000)
        assert s.greedy_config == GreedyConfig(budget_bytes=1000, r=1.0)
        assert x.budget_bytes == 12 and x.costs.sum() > 12
        assert 0 < s.with_target().target.total_cost <= 12

    def test_empty_target_warning_names_the_shortest_sentence(self, make_docset, stopwords,
                                                              caplog):
        # the set's own 10 bytes admit neither the 11- nor the 12-byte sentence;
        # the config's 1000 would admit both
        x, Y = self._pair(make_docset, stopwords, ["alpha beta."], budget=10)
        with caplog.at_level("WARNING", logger="structsum.rouge"):
            assert self._prepared((x, Y), 1000).with_target().target == Summary((), 0)
        assert caplog.messages == [
            "target for set set is empty (its budget admits no sentence; the shortest is 11 bytes)"
        ]


class TestEvaluatePredictions:
    def test_unknown_set_id_raises(self, fixture_data):
        preds = {"nope": Summary((), 0)}
        with pytest.raises(ValueError, match="nope"):
            evaluate_predictions(fixture_data[:2], preds, LossConfig())

    def test_empty_predictions_raise(self, fixture_data):
        with pytest.raises(ValueError, match="no predictions"):
            evaluate_predictions(fixture_data[:2], {}, LossConfig())

    def test_rows_sorted_and_means_consistent(self, fixture_data):
        data = fixture_data[:3]
        model = Model.load(SMALL_MODEL)
        report = evaluate_predictions(data, predictions(data, range(3), model), LossConfig())
        assert [r["set_id"] for r in report.rows] == ["set00", "set01", "set02"]
        fs = [r["f"] for r in report.rows]
        assert report.mean_f == pytest.approx(sum(fs) / 3)
        assert report.mean_p == pytest.approx(
            sum(r["precision"] for r in report.rows) / 3
        )
        for row in report.rows:
            assert set(row) == {"set_id", "precision", "recall", "f", "sentences"}

    def test_stderr_matches_sample_formula(self, fixture_data):
        # mix the trained model with empty summaries to get unequal F values
        data = fixture_data[:3]
        model = Model.load(SMALL_MODEL)
        preds = predictions(data, range(3), model)
        preds["set01"] = Summary((), 0)
        report = evaluate_predictions(data, preds, LossConfig())
        fs = [r["f"] for r in report.rows]
        assert report.stderr_f == pytest.approx(statistics.stdev(fs) / math.sqrt(3))

    def test_single_row_has_zero_stderr(self, fixture_data):
        data = fixture_data[:1]
        report = evaluate_predictions(data, {"set00": Summary((), 0)}, LossConfig())
        assert report.stderr_f == 0.0
        assert report.mean_f == 0.0


class TestExtractiveCeiling:
    def test_fixture_targets_are_reachable(self, fixture_data):
        value = extractive_ceiling(
            fixture_data, range(3), GreedyConfig(budget_bytes=66, r=0.3), LossConfig()
        )
        assert value == pytest.approx(1.0)


class TestHumanAgreement:
    def _refs(self, stopwords, texts):
        return ReferenceSet(
            set_id="s", references=tuple(tuple(tokenize(t, stopwords)) for t in texts)
        )

    def test_hand_example(self, make_docset, stopwords):
        # held-out {alpha,beta} vs {alpha,gamma}: overlap 1, F = 2/(2+2)
        x = make_docset(["Alpha beta."])
        Y = self._refs(stopwords, ["alpha beta.", "alpha gamma."])
        assert human_agreement([(x, Y)], [0], LossConfig()) == pytest.approx(0.5)

    def test_none_when_any_set_has_single_reference(self, make_docset, stopwords):
        x = make_docset(["Alpha beta."])
        pair_ok = (x, self._refs(stopwords, ["alpha beta.", "alpha gamma."]))
        pair_single = (x, self._refs(stopwords, ["alpha beta."]))
        assert human_agreement([pair_ok, pair_single], [0, 1], LossConfig()) is None

    def test_permuted_references_agree_perfectly(self, fixture_data):
        # fixture references are orderings of the same eight words
        assert human_agreement(fixture_data, range(4), LossConfig()) == pytest.approx(1.0)


class TestBoundsTable:
    def test_matches_recorded_values(self, fixture_data, expected):
        model = Model.load(SMALL_MODEL)
        small = expected["small_train_ids"]
        rest = [i for i in range(len(fixture_data)) if i not in small]
        rows = bounds_table(
            fixture_data, model, small, rest, LossConfig(),
            GreedyConfig(budget_bytes=expected["budget_bytes"], r=0.3),
        )
        assert [name for name, _ in rows] == ["human", "extractive", "model_fit", "prediction"]
        for (name, got), (want_name, want) in zip(rows, expected["bounds"]):
            assert name == want_name
            assert got == pytest.approx(want, abs=1e-9)
        by_name = dict(rows)
        assert by_name["extractive"] >= by_name["model_fit"] >= by_name["prediction"]

    def test_a_held_out_training_set_fails(self, fixture_data):
        with pytest.raises(ValueError, match=r"^train_ids and test_ids both name set indexes "
                                             r"\[1\]$"):
            bounds_table(fixture_data, Model.load(SMALL_MODEL), [0, 1], [1, 2], LossConfig(),
                         GreedyConfig(budget_bytes=66))


class TestLearningCurve:
    def test_small_prefixes_reach_recorded_quality(self, fixture_data, expected):
        rows = learning_curve(
            fixture_data, [1, 2], expected["train_ids"], expected["test_ids"][:3],
            "pairwise", FeatureConfig(), LossConfig(),
            GreedyConfig(budget_bytes=66, r=0.3), TrainerConfig(), lam=4.0,
        )
        assert [r["size"] for r in rows] == [1, 2]
        for row in rows:
            assert set(row) == {"size", "mean_f", "stderr_f"}
            assert row["mean_f"] == pytest.approx(1.0)
            assert row["stderr_f"] == pytest.approx(0.0)

    def test_oversized_size_is_skipped_with_warning(self, fixture_data, caplog):
        with caplog.at_level("WARNING", logger="structsum.experiments"):
            rows = learning_curve(
                fixture_data, [1, 50], [0, 1], [2],
                "pairwise", FeatureConfig(), LossConfig(),
                GreedyConfig(budget_bytes=66, r=0.3), TrainerConfig(), lam=4.0,
            )
        assert [r["size"] for r in rows] == [1]
        assert caplog.messages == ["curve size 50 exceeds 2 available training sets; skipped"]


class TestAblationTable:
    def test_unknown_row_lists_valid_labels(self, fixture_data, monkeypatch):
        # every row is checked before the first set is prepared
        prepared = []
        monkeypatch.setattr(experiments, "prepare_sets", lambda *args, **kw: prepared.append(args))
        with pytest.raises(ValueError, match="cap\\+stop\\+len"):
            ablation_table(
                fixture_data, [0], [1], "pairwise",
                FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=66),
                TrainerConfig(), lam=4.0, rows=["none", "typo"],
            )
        assert prepared == []

    def test_row_that_removes_every_group_fails_before_any_work(self, fixture_data, monkeypatch):
        # "all except basic" once trained on basic even where --groups left it out
        prepared = []
        monkeypatch.setattr(experiments, "prepare_sets", lambda *args, **kw: prepared.append(args))
        with pytest.raises(ValueError, match="^ablation row 'all except basic' removes every "
                                             "enabled feature group$"):
            ablation_table(
                fixture_data, [0], [1], "pairwise",
                FeatureConfig(enabled_groups=("cap_stop_len",)), LossConfig(),
                GreedyConfig(budget_bytes=66), TrainerConfig(), lam=4.0,
                rows=["none", "all except basic"],
            )
        assert prepared == []

    def test_probe_rows_match_recorded_values(self, fixture_data, expected):
        rows = ablation_table(
            fixture_data, expected["small_train_ids"], expected["test_ids"][:4],
            "pairwise", FeatureConfig(), LossConfig(),
            GreedyConfig(budget_bytes=66, r=0.3), TrainerConfig(), lam=4.0,
            rows=list(expected["ablation_probe"]),
        )
        for row in rows:
            assert row["mean_f"] == pytest.approx(
                expected["ablation_probe"][row["removed"]], abs=1e-6
            )

    def test_row_labels_cover_every_group(self):
        assert list(ABLATION_ROWS)[0] == "none" and ABLATION_ROWS["none"] == ()
        singles = sorted(g for removed in ABLATION_ROWS.values() if len(removed) == 1
                         for g in removed)
        assert singles == sorted(GROUPS)
        assert sorted(ABLATION_ROWS["all except basic"]) == sorted(set(GROUPS) - {"basic"})
        assert len(ABLATION_ROWS) == 7


class TestSelectC:
    def test_requires_validation_split(self, fixture_data):
        with pytest.raises(ValueError, match="validation"):
            select_c(
                fixture_data, [0, 1], [], [1.0, 10.0], "pairwise",
                FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=66, r=0.3),
                TrainerConfig(),
            )

    def test_tie_prefers_smaller_c(self, fixture_data):
        # both grid points separate the fixture perfectly, so F ties at 1.0
        best, table = select_c(
            fixture_data, [0, 1], [2, 3], [10.0, 1.0], "pairwise",
            FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=66, r=0.3),
            TrainerConfig(), lam=4.0,
        )
        assert best == 1.0
        assert [row["C"] for row in table] == [1.0, 10.0]
        assert all(row["val_f"] == pytest.approx(1.0) for row in table)

    def test_repeated_c_fails(self, fixture_data):
        # library callers reach select_c without the CLI's list-flag check
        with pytest.raises(ValueError, match=r"C grid repeats a value: \[1\.0, 10\.0, 10\.0\]"):
            select_c(
                fixture_data, [0, 1], [2], [10.0, 1.0, 10.0], "pairwise",
                FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=66, r=0.3),
                TrainerConfig(), lam=4.0,
            )


class TestTargetsBuiltOncePerDriverCall:
    """Banks, RougeGains and targets depend on the configs only, so each
    study call prepares each of its sets once and trains every C, size or
    row on them, with the results of preparing them every time."""

    KW = dict(feature_config=FeatureConfig(), loss_config=LossConfig(),
              greedy_config=GreedyConfig(budget_bytes=66, r=0.3))

    @pytest.fixture
    def target_calls(self, monkeypatch):
        calls = []

        def counting(x, gain, cfg):
            calls.append(x.set_id)
            return greedy_target(x, gain, cfg)

        monkeypatch.setattr(learner, "greedy_target", counting)
        return calls

    @pytest.fixture
    def bank_builds(self, monkeypatch):
        builds = []
        init = FeatureBank.__init__

        def counting(bank, x, cfg):
            builds.append(x.set_id)
            init(bank, x, cfg)

        monkeypatch.setattr(FeatureBank, "__init__", counting)
        return builds

    @staticmethod
    def _set_ids(data, ids):
        return sorted(data[i][0].set_id for i in ids)

    def test_select_c_trains_through_train_on_once_per_c(
        self, fixture_data, monkeypatch, target_calls, bank_builds
    ):
        # the benchmark's recorder wraps train_on to see each C's training
        seen = []

        def recording(data, ids, kind, features, loss, greedy, trainer, **kwargs):
            seen.append(trainer.C)
            return train_on(data, ids, kind, features, loss, greedy, trainer, **kwargs)

        monkeypatch.setattr(experiments, "train_on", recording)
        train_ids, val_ids = [0, 1], [1, 3, 4]
        _, table = select_c(
            fixture_data, train_ids, val_ids, [10.0, 0.1, 1.0], "coverage",
            trainer_config=TrainerConfig(max_outer_iters=2), **self.KW,
        )
        assert seen == [row["C"] for row in table] == [0.1, 1.0, 10.0]
        # one preparation per training set and per validation set for the
        # whole grid; set 1 is both, the last training set and the first
        # validation set, so the validation set reuses its bank
        assert sorted(target_calls) == self._set_ids(fixture_data, train_ids)
        assert sorted(bank_builds) == self._set_ids(fixture_data, [0, 1, 3, 4])

    def test_learning_curve_builds_the_largest_prefix_once(
        self, fixture_data, target_calls, bank_builds
    ):
        train_ids = [5, 0, 3, 8]
        rows = learning_curve(
            fixture_data, [1, 3, 9], train_ids, [1, 2], "pairwise",
            trainer_config=TrainerConfig(max_outer_iters=2), lam=4.0, **self.KW,
        )
        assert sorted(target_calls) == self._set_ids(fixture_data, train_ids[:3])
        assert sorted(bank_builds) == self._set_ids(fixture_data, train_ids[:3] + [1, 2])
        for row in rows:
            result = train_on(fixture_data, train_ids[:row["size"]], "pairwise",
                              trainer_config=TrainerConfig(max_outer_iters=2), lam=4.0,
                              **self.KW)
            report = evaluate_predictions(
                [fixture_data[i] for i in [1, 2]], predictions(fixture_data, [1, 2], result.model),
                LossConfig(),
            )
            assert (row["mean_f"], row["stderr_f"]) == (report.mean_f, report.stderr_f)

    def test_ablation_table_builds_each_target_once(
        self, fixture_data, target_calls, bank_builds
    ):
        rows = ablation_table(
            fixture_data, [0, 1], [2, 3], "pairwise",
            trainer_config=TrainerConfig(max_outer_iters=2), lam=4.0,
            rows=["none", "location"], **self.KW,
        )
        assert sorted(target_calls) == self._set_ids(fixture_data, [0, 1])
        # "none" keeps the prepared banks; "location" builds one per set
        assert sorted(bank_builds) == self._set_ids(fixture_data, [0, 1, 2, 3] * 2)
        kw = dict(self.KW)
        no_location = FeatureConfig(enabled_groups=("basic", "cap_stop_len", "minmax", "sent_doc"))
        for row, cfg in zip(rows, [kw.pop("feature_config"), no_location]):
            result = train_on(fixture_data, [0, 1], "pairwise", feature_config=cfg,
                              trainer_config=TrainerConfig(max_outer_iters=2), lam=4.0, **kw)
            assert row["mean_f"] == mean_f(fixture_data, [2, 3], result.model, LossConfig())


class TestSelectCMatchesIndependentRuns:
    """select_c's table is == to what a fresh train_on and mean_f give for
    each C, and its models are byte-equal to theirs. Validation set 2 is
    also a training set: in single-reference mode it trains on its first
    reference and must still be scored against all of them."""

    KW = TestTargetsBuiltOncePerDriverCall.KW

    @pytest.fixture(scope="class")
    def data(self, fixture_data):
        # a first reference unlike the others (a noise sentence), so that
        # single-reference targets and F differ from the all-reference ones
        return [(x, ReferenceSet(Y.set_id, (x.sentences[-1].tokens,) + Y.references))
                for x, Y in fixture_data[:6]]

    @pytest.mark.parametrize("single_reference", [False, True])
    @pytest.mark.parametrize("kind, lam", [
        ("pairwise", 4.0), ("pairwise-split", None), ("coverage", None),
    ])
    def test_table_and_models_match(self, data, monkeypatch, kind, lam, single_reference):
        train_ids, val_ids, grid = [0, 1, 2], [2, 4, 5], [10.0, 0.1, 1.0]
        trainer = TrainerConfig(max_outer_iters=3)
        models = []

        def recording(*args, **kwargs):
            result = train_on(*args, **kwargs)
            models.append(result.model.to_json())
            return result

        monkeypatch.setattr(experiments, "train_on", recording)
        best, table = select_c(data, train_ids, val_ids, grid, kind, trainer_config=trainer,
                               lam=lam, single_reference=single_reference, **self.KW)
        monkeypatch.undo()
        want_table, want_models = [], []
        for c in sorted(grid):
            result = train_on(data, train_ids, kind, trainer_config=replace(trainer, C=c),
                              lam=lam, single_reference=single_reference, **self.KW)
            want_models.append(result.model.to_json())
            want_table.append({"C": c, "val_f": mean_f(data, val_ids, result.model, LossConfig())})
        assert table == want_table
        assert models == want_models
        assert best == max(want_table, key=lambda row: row["val_f"])["C"]

    def test_train_on_needs_one_prepared_set_per_id(self, data):
        sets = prepare_sets(data, [0, 1], **self.KW)
        with pytest.raises(ValueError, match="2 prepared sets for 3 training ids"):
            train_on(data, [0, 1, 2], "coverage", trainer_config=TrainerConfig(), sets=sets,
                     **self.KW)

    @pytest.mark.parametrize("other", [
        dict(feature_config=FeatureConfig(
            enabled_groups=("cap_stop_len", "location", "minmax", "sent_doc"))),
        dict(loss_config=LossConfig(rouge_stopword_removal=True)),
        dict(greedy_config=GreedyConfig(budget_bytes=400, r=1.0)),
    ], ids=["features", "loss", "greedy"])
    def test_train_on_refuses_sets_prepared_under_other_configs(self, data, other):
        sets = prepare_sets(data, [0, 1], **self.KW)
        with pytest.raises(ValueError, match="prepared under other configs"):
            train_on(data, [0, 1], "coverage", trainer_config=TrainerConfig(), sets=sets,
                     **{**self.KW, **other})
        assert all(s.target is None for s in sets)  # refused before any training work


class TestSelectCSharesPrefixes:
    """Each C of a grid continues the previous, smaller C's run from where
    that run's cap first acted, or takes it whole; each result must equal,
    bit for bit, a cold ``train`` at its C. The grid spans all three resume
    points: a cap acting at the first solve, one first acting at an outer
    iteration >= 1, and caps that never act."""

    KW = TestTargetsBuiltOncePerDriverCall.KW
    GRID = (0.0001, 0.001, 0.007, 0.01, 1.0, 10.0)
    TRAINER = TrainerConfig(max_outer_iters=5)

    @staticmethod
    def bits(result):
        return (result.model.w.tobytes(), repr(result.iterations),
                [d.hex() for d in result.dual_history], result.converged)

    @pytest.mark.parametrize("kind, lam, train_ids", [
        ("pairwise", 4.0, [0, 1, 2, 3]),
        ("pairwise-split", None, [0, 1, 2]),
        ("coverage", None, [0, 1, 2, 3]),
    ])
    def test_each_c_equals_a_cold_run(self, fixture_data, monkeypatch, caplog,
                                      kind, lam, train_ids):
        results = []

        def recording(*args, **kwargs):
            results.append(train_on(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, "train_on", recording)
        with caplog.at_level("DEBUG", logger="structsum.learner"):
            select_c(fixture_data, train_ids, [4, 5], self.GRID, kind,
                     trainer_config=self.TRAINER, lam=lam, **self.KW)
        monkeypatch.undo()
        starts = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert len(starts) == len(self.GRID)
        assert starts[0] == "C=0.0001 starts from w = 0"
        assert any("at iteration 0, set 0 (0 of" in line for line in starts)
        assert any(re.search(r"at iteration [1-9]", line) for line in starts)
        assert any("run whole" in line for line in starts)
        # the same entries were logged again at info level, for every C
        infos = [r for r in caplog.records if r.levelname == "INFO"]
        assert len(infos) == sum(len(r.iterations) for r in results)
        for c, result in zip(self.GRID, results):
            cold = train_on(fixture_data, train_ids, kind,
                            trainer_config=replace(self.TRAINER, C=c), lam=lam, **self.KW)
            assert self.bits(result) == self.bits(cold), f"C={c}"

    def test_targets_psi_computed_once_per_grid(self, fixture_data, monkeypatch):
        # the run from w = 0 computes them; the runs that continue it read them
        sets = prepare_sets(fixture_data, [0, 1, 2], **self.KW)
        seen = []

        def recording(bank, y, model):
            seen.append(y)
            return psi(bank, y, model)

        monkeypatch.setattr(learner, "psi", recording)
        shared = learner.SharedPrefix()
        for c in (0.01, 1.0, 10.0):
            learner.train(sets, "coverage", replace(self.TRAINER, C=c), shared=shared)
        assert sum(any(y is s.target for s in sets) for y in seen) == len(sets)
        assert len(seen) > len(sets)

    def test_a_holder_continues_only_the_same_training_at_a_larger_c(self, fixture_data):
        sets = prepare_sets(fixture_data, [0, 1], **self.KW)
        shared = learner.SharedPrefix()
        learner.train(sets, "coverage", TrainerConfig(C=1.0), shared=shared)
        for trainer, kind in [(TrainerConfig(C=0.5), "coverage"),
                              (TrainerConfig(C=2.0, epsilon=0.1), "coverage"),
                              (TrainerConfig(C=2.0), "pairwise-split")]:
            with pytest.raises(ValueError, match="same training at a larger C"):
                learner.train(sets, kind, trainer, shared=shared)


class TestSignTest:
    def test_all_wins(self):
        # one-sided tail C(3,0)/8, doubled
        assert sign_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_split_decision(self):
        # wins=1 losses=1: tail 3/4 doubled then clipped to 1
        assert sign_test([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_ties_dropped(self):
        # the tied middle pair vanishes, leaving two wins
        assert sign_test([1.0, 0.5, 2.0], [0.5, 0.5, 1.0]) == pytest.approx(0.5)

    def test_all_ties_is_one(self):
        assert sign_test([0.3, 0.3], [0.3, 0.3]) == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            sign_test([1.0], [1.0, 2.0])


class TestMeanF:
    """mean_f equals, with ==, the dict-path evaluation of the model's
    predictions, each distinct set counted once, and the scores the study
    drivers read off prepared sets."""

    @pytest.mark.parametrize("loss_cfg", [
        LossConfig(),
        LossConfig(rouge_stopword_removal=True),
    ])
    @pytest.mark.parametrize("kind, lam", [
        ("pairwise", 4.0), ("pairwise-split", None), ("coverage", None),
    ])
    def test_equals_dict_path_evaluation(self, fixture_data, kind, lam, loss_cfg):
        rng = np.random.default_rng(11)
        model = Model.zeros(kind, FeatureConfig(), loss_cfg,
                            GreedyConfig(budget_bytes=66, r=0.3), lam=lam)
        model.w = rng.uniform(-1.0, 1.0, size=model.w.shape)
        for ids in ([7, 0, 3, 12], [5, 2, 5, 9], [30, 31, 32, 33, 34]):
            _, _, _, want = evaluate_reference(
                [fixture_data[i] for i in ids], predictions(fixture_data, ids, model), loss_cfg
            )
            assert 0.0 < want < 1.0
            got = mean_f(fixture_data, ids, model, loss_cfg)
            assert got == want
            sets = prepare_sets(fixture_data, ids, FeatureConfig(), loss_cfg, model.greedy_config)
            fs = experiments._f_values(sets, model)
            assert got == sum(fs) / len(fs)


    @pytest.mark.parametrize("kind, lam", [
        ("pairwise", 4.0), ("pairwise-split", None), ("coverage", None),
    ])
    def test_scores_with_the_loss_config_it_is_given(self, stopwords, kind, lam):
        """On sets with stopwords in their sentences and references, dropping
        stopwords changes F, so a mean_f that scored under another loss config
        than its own would fail here (the fixture has no stopwords)."""
        rng = random.Random(5)
        data = []
        for k in range(4):
            x = build_document_set(f"sw{k}", random_documents(rng, 3, 4), stopwords)
            refs = tuple(tuple(tokenize(" ".join(random_documents(rng, 1, 3)), stopwords))
                         for _ in range(2))
            data.append((x, ReferenceSet(x.set_id, refs)))
        ids = [2, 0, 3, 1]
        got = {}
        for drop in (False, True):
            loss_cfg = LossConfig(rouge_stopword_removal=drop)
            model = Model.zeros(kind, FeatureConfig(), loss_cfg,
                                GreedyConfig(budget_bytes=66, r=0.3), lam=lam)
            model.w = np.random.default_rng(11).uniform(-1.0, 1.0, size=model.w.shape)
            _, _, _, want = evaluate_reference(
                [data[i] for i in ids], predictions(data, ids, model), loss_cfg
            )
            got[drop] = mean_f(data, ids, model, loss_cfg)
            assert got[drop] == want
        assert got[False] != got[True]


class TestTrainOnAndMeanF:
    def test_small_training_run_fits_train_split(self, fixture_data):
        result = train_on(
            fixture_data, [0, 1, 2], "pairwise", FeatureConfig(), LossConfig(),
            GreedyConfig(budget_bytes=66, r=0.3), TrainerConfig(), lam=4.0,
        )
        assert result.converged
        assert mean_f(fixture_data, [0, 1, 2], result.model, LossConfig()) == pytest.approx(1.0)
