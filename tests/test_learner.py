import json
import math
import random
import weakref
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from structsum import experiments, learner
from structsum.corpus import (
    ReferenceSet, Sentence, Token, build_document_set, load_dataset, tokenize,
)
from structsum.experiments import prepare_sets
from structsum.features import FeatureConfig, FeatureBank, bank_for, registry_for
from structsum.greedy import GreedyConfig
from structsum.learner import (
    Constraint,
    Model,
    ModelError,
    PreparedSet,
    TrainerConfig,
    WorkingSet,
    _oracle_from_state,
    _predict,
    predict,
    psi,
    train,
)
from structsum.rouge import LossConfig
from structsum.scoring import PairwiseScorer, Summary

from conftest import random_documents
from oracles import (
    coverage_score_brute,
    exhaustive_maximize,
    loss_delta,
    pairwise_score_brute,
    split_score_brute,
    vocabulary_reference,
    word_counts,
)
from qp_reference import solve_dual_reference

# the tf-idf baseline's own bank: tf-idf cosines over all words
BASELINE_CFG = FeatureConfig(enabled_groups=("basic",), weightings=("tfidf",))


def single_constraint_ws(cap, loss=1.0, vec=(1.0, 0.0)):
    ws = WorkingSet(n_examples=1, C=cap, dimension=len(vec))
    ws.add(Constraint(0, Summary((), 0), loss, np.array(vec, dtype=float)))
    return ws


class TestQPAnalytic:
    """Single constraint: alpha = min(C/n, loss / ||dpsi||^2) exactly."""

    @pytest.mark.parametrize(
        "cap,want_alpha,want_w0,want_xi",
        [(10.0, 1.0, 1.0, 0.0), (0.5, 0.5, 0.5, 0.5)],
    )
    def test_unit_vector(self, cap, want_alpha, want_w0, want_xi):
        ws = single_constraint_ws(cap)
        ws.solve(TrainerConfig(C=cap))
        assert abs(ws.alpha[0][0] - want_alpha) < 1e-8
        assert abs(ws.w[0] - want_w0) < 1e-8 and abs(ws.w[1]) < 1e-8
        assert abs(ws.xi(0) - want_xi) < 1e-8

    def test_general_norm(self):
        loss, vec, cap = 0.9, (2.0, 1.0), 100.0
        ws = single_constraint_ws(cap, loss=loss, vec=vec)
        ws.solve(TrainerConfig(C=cap))
        want = min(cap, loss / (2.0**2 + 1.0**2))
        assert abs(ws.alpha[0][0] - want) < 1e-8

    def test_zero_delta_psi_positive_loss(self):
        # degenerate plane: no direction to move, slack takes all of it
        ws = single_constraint_ws(5.0, loss=0.7, vec=(0.0, 0.0))
        ws.solve(TrainerConfig(C=5.0))
        assert np.all(ws.w == 0.0)
        assert ws.xi(0) == pytest.approx(0.7)


class TestQPAgainstDense:
    def test_random_problems(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_ex = int(rng.integers(1, 4))
            d = int(rng.integers(2, 8))
            cap = float(rng.uniform(0.05, 5.0))
            ws = WorkingSet(n_examples=n_ex, C=cap * n_ex, dimension=d)
            dpsis, losses, groups = [], [], []
            for _ in range(int(rng.integers(1, 9))):
                ex = int(rng.integers(0, n_ex))
                vec = rng.normal(size=d)
                if rng.random() < 0.2:
                    vec[:] = 0.0
                loss = float(rng.uniform(0.0, 1.5))
                ws.add(Constraint(ex, Summary((), 0), loss, vec.copy()))
                dpsis.append(vec.copy())
                losses.append(loss)
                groups.append(ex)
            dual = ws.solve(TrainerConfig(C=cap * n_ex, qp_tol=1e-14, qp_max_passes=100_000))
            _, ref_dual, _ = solve_dual_reference(dpsis, losses, groups, cap)
            assert dual == pytest.approx(ref_dual, abs=1e-6, rel=1e-6)

    def test_representer_identity(self):
        rng = np.random.default_rng(9)
        ws = WorkingSet(n_examples=2, C=4.0, dimension=5)
        cons = []
        for c in range(6):
            vec = rng.normal(size=5)
            cons.append(Constraint(c % 2, Summary((), 0), float(rng.uniform(0, 1)), vec))
            ws.add(cons[-1])
        ws.solve(TrainerConfig(C=4.0))
        rebuilt = np.zeros(5)
        for i in range(2):
            for a, con in zip(ws.alpha[i], [con for con in cons if con.example_index == i]):
                rebuilt += a * con.delta_psi
        assert np.allclose(rebuilt, ws.w, atol=1e-8)

    def test_caps_respected_and_duality_gap(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n_ex = 2
            cap = float(rng.uniform(0.1, 2.0))
            ws = WorkingSet(n_examples=n_ex, C=cap * n_ex, dimension=4)
            for c in range(6):
                vec = rng.normal(size=4)
                ws.add(Constraint(c % n_ex, Summary((), 0), float(rng.uniform(0, 1.2)), vec))
            dual = ws.solve(TrainerConfig(C=cap * n_ex, qp_tol=1e-14, qp_max_passes=100_000))
            for i in range(n_ex):
                s = sum(ws.alpha[i])
                assert -1e-12 <= s <= cap + 1e-9
                assert all(a >= -1e-12 for a in ws.alpha[i])
            half, slack = ws.primal_parts()
            primal = half + ws.cap * slack
            assert primal >= dual - 1e-8
            assert primal - dual <= 1e-6 * (1.0 + abs(dual))

    def test_no_stored_constraint_violated_after_solve(self):
        rng = np.random.default_rng(23)
        ws = WorkingSet(n_examples=3, C=6.0, dimension=6)
        cons = []
        for c in range(12):
            vec = rng.normal(size=6)
            cons.append(Constraint(c % 3, Summary((), 0), float(rng.uniform(0, 1)), vec))
            ws.add(cons[-1])
        ws.solve(TrainerConfig(C=6.0, qp_tol=1e-14, qp_max_passes=100_000))
        for con in cons:
            assert con.loss - ws.w @ con.delta_psi - ws.xi(con.example_index) <= 1e-6
            assert ws.violation(con) <= 1e-6


class TestModelIO:
    def _model(self, kind="pairwise"):
        lam = 4.0 if kind == "pairwise" else None
        m = Model.zeros(kind, FeatureConfig(), LossConfig(),
                        GreedyConfig(budget_bytes=100), lam=lam)
        m.w[3] = 1.25
        m.w[7] = -0.5
        return m

    @pytest.mark.parametrize("kind", ["pairwise", "pairwise-split", "coverage"])
    def test_roundtrip(self, kind, tmp_path):
        m = self._model(kind)
        path = tmp_path / "m.json"
        m.save(path)
        got = Model.load(path)
        assert got.model_kind == m.model_kind
        assert np.array_equal(got.w, m.w)
        assert got.feature_config == m.feature_config
        assert got.loss_config == m.loss_config
        assert got.greedy_config == m.greedy_config
        assert got.lam == m.lam

    def test_weights_stored_sparse(self):
        payload = json.loads(self._model().to_json())
        assert set(payload["weights"]) == {"3", "7"}

    def test_malformed_json(self):
        with pytest.raises(ModelError, match="malformed"):
            Model.from_json("{oops")

    def test_missing_field(self):
        with pytest.raises(ModelError, match="missing"):
            Model.from_json("{}")

    def test_dimension_mismatch(self):
        payload = json.loads(self._model().to_json())
        payload["dimension"] = 3
        with pytest.raises(ModelError, match="dimension"):
            Model.from_json(json.dumps(payload))

    def test_weight_index_out_of_range(self):
        payload = json.loads(self._model().to_json())
        payload["weights"] = {str(payload["dimension"]): 1.0}
        with pytest.raises(ModelError, match="out of range"):
            Model.from_json(json.dumps(payload))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        payload = json.loads(self._model().to_json())
        payload["weights"]["3"] = bad
        with pytest.raises(ModelError, match=r"weights\['3'\] must be a finite number"):
            Model.from_json(json.dumps(payload))

    def test_malformed_weights_rejected(self):
        payload = json.loads(self._model().to_json())
        payload["weights"] = {"3": None}
        with pytest.raises(ModelError, match="malformed weights"):
            Model.from_json(json.dumps(payload))

    @pytest.mark.parametrize("bad", [True, "0.5", [1.0]])
    def test_non_numeric_weight_rejected(self, bad):
        # float() once read true as 1.0 and "0.5" as 0.5
        payload = json.loads(self._model().to_json())
        payload["weights"]["3"] = bad
        with pytest.raises(ModelError, match="malformed weights"):
            Model.from_json(json.dumps(payload))

    def test_other_tie_rule_rejected(self):
        payload = json.loads(self._model().to_json())
        assert payload["greedy_config"]["tie_break"] == "lowest-id"
        payload["greedy_config"]["tie_break"] = "random"
        with pytest.raises(ModelError, match="only lowest-id tie breaking"):
            Model.from_json(json.dumps(payload))

    @pytest.mark.parametrize("bad", [[1], "nan", "Infinity", float("nan"), float("inf"), True])
    def test_non_finite_or_non_numeric_lambda_rejected(self, bad):
        payload = json.loads(self._model().to_json())
        payload["lambda"] = bad
        with pytest.raises(ModelError, match="lambda must be a finite number"):
            Model.from_json(json.dumps(payload))

    @pytest.mark.parametrize("bad", [["pairwise"], {"pairwise": 1}, 5])
    def test_non_string_model_kind_rejected(self, bad):
        payload = json.loads(self._model().to_json())
        payload["model_kind"] = bad
        with pytest.raises(ModelError, match="model_kind must be a string"):
            Model.from_json(json.dumps(payload))

    def test_pairwise_requires_lambda(self):
        with pytest.raises(ModelError, match="lambda"):
            Model("pairwise", np.zeros(registry_for(FeatureConfig(), "pairwise").dimension),
                  FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=10), lam=None)

    def test_zeros_and_train_need_a_pairwise_lambda(self, fixture_data):
        configs = (FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=66))
        with pytest.raises(ModelError, match="lambda"):
            Model.zeros("pairwise", *configs)
        sets = prepare_sets(fixture_data, [0], *configs)
        with pytest.raises(ModelError, match="lambda"):
            train(sets, "pairwise", TrainerConfig())
        assert sets[0].target is None  # refused before any training work

    def test_coverage_rejects_lambda(self):
        dim = registry_for(FeatureConfig(), "coverage").dimension
        with pytest.raises(ModelError, match="lambda"):
            Model("coverage", np.zeros(dim), FeatureConfig(), LossConfig(),
                  GreedyConfig(budget_bytes=10), lam=2.0)

    def test_wrong_weight_shape(self):
        with pytest.raises(ModelError, match="shape"):
            Model("pairwise", np.zeros(3), FeatureConfig(), LossConfig(),
                  GreedyConfig(budget_bytes=10), lam=4.0)

    def test_unknown_kind(self):
        with pytest.raises(ModelError, match="kind"):
            Model("linear", np.zeros(3), FeatureConfig(), LossConfig(),
                  GreedyConfig(budget_bytes=10))


def toy_example(stopwords, seed=0, n_docs=2, per_doc=3):
    rng = random.Random(seed)
    docs = random_documents(rng, n_docs, per_doc)
    x = build_document_set(f"toy{seed}", docs, stopwords)
    words = sorted(vocabulary_reference(x))
    refs = []
    for _ in range(2):
        refs.append(tuple(tokenize(" ".join(rng.sample(words, k=min(5, len(words)))))))
    return x, ReferenceSet(x.set_id, tuple(refs))


class TestPsiConsistency:
    """psi() must agree with the brute-force score under the w-derived
    similarities or word values, which is the identity the whole training
    formulation leans on."""

    @pytest.mark.parametrize("kind", ["pairwise", "pairwise-split", "coverage"])
    def test_w_dot_psi_equals_score(self, kind, stopwords):
        rng = random.Random(41)
        cfg = FeatureConfig()
        lam = 3.0 if kind == "pairwise" else None
        for seed in range(8):
            x, _ = toy_example(stopwords, seed=seed)
            model = Model.zeros(kind, cfg, LossConfig(), GreedyConfig(budget_bytes=100), lam=lam)
            model.w = np.array([rng.uniform(-1, 1) for _ in range(model.w.shape[0])])
            bank = FeatureBank(x, cfg)
            n = x.num_sentences
            ids = tuple(rng.sample(range(n), k=rng.randint(0, n)))
            if kind == "coverage":
                words = [set(word_counts(s)) for s in x.sentences]
                want = coverage_score_brute(
                    words, lambda v: bank.word(v) @ model.w, ids
                )
            elif kind == "pairwise-split":
                base = registry_for(cfg, "pairwise-split").base_dimension
                want = split_score_brute(
                    n,
                    lambda i, j: bank.pair(i, j) @ model.w[:base],
                    lambda i, j: bank.pair(i, j) @ model.w[base:],
                    ids,
                )
            else:
                want = pairwise_score_brute(
                    n, lambda i, j: bank.pair(i, j) @ model.w, lam, ids
                )
            y = Summary(ids, 0)
            assert psi(bank, y, model) @ model.w == pytest.approx(want, abs=1e-9)


class TestSeparationOracle:
    def _prep(self, stopwords, seed, kind="pairwise", budget=45):
        """A toy set prepared with its target, as ``train`` prepares it."""
        x, Y = toy_example(stopwords, seed=seed)
        gcfg = GreedyConfig(budget_bytes=budget, r=1.0)
        lam = 2.0 if kind == "pairwise" else None
        model = Model.zeros(kind, FeatureConfig(), LossConfig(), gcfg, lam=lam)
        state = PreparedSet.build(x, Y, FeatureConfig(), LossConfig(), gcfg).with_target()
        return state, model

    @staticmethod
    def _oracle(state, model):
        return _oracle_from_state(state, 0, psi(state.bank, state.target, model), model)

    def test_constraint_internally_consistent(self, stopwords):
        rng = random.Random(43)
        for seed in range(6):
            state, model = self._prep(stopwords, seed)
            x, Y = state.x, state.Y
            model.w = np.array([rng.uniform(-0.5, 0.5) for _ in range(model.w.shape[0])])
            con = self._oracle(state, model)
            assert con.loss == pytest.approx(
                loss_delta(Y, state.target, con.y_hat, x, model.loss_config), abs=1e-12
            )
            want_delta = psi(state.bank, state.target, model) - psi(state.bank, con.y_hat, model)
            assert np.allclose(con.delta_psi, want_delta, atol=1e-12)
            budget = x.budget_bytes if x.budget_bytes is not None else model.greedy_config.budget_bytes
            assert con.y_hat.total_cost <= budget

    def test_constraint_arrays_are_nonzeros_of_dense_delta(self, stopwords):
        """The working set keeps flatnonzero of dpsi = psi(target) - psi(y_hat)
        and its values there; entries equal in both psis, and signed zeros,
        drop out, and no nonzero is too small to keep."""
        ws = WorkingSet(1, 1.0, 6)
        ws.add(Constraint(0, Summary((), 0), 1.0, np.array([0.0, -0.0, 2.5, 0.0, -1.0, 1e-300])))
        assert ws._idx[0].tolist() == [2, 4, 5] and ws._val[0].tolist() == [2.5, -1.0, 1e-300]
        rng = random.Random(53)
        for kind in ("pairwise", "pairwise-split", "coverage"):
            for seed in range(4):
                state, model = self._prep(stopwords, seed, kind=kind)
                model.w = np.array([rng.uniform(-0.5, 0.5) for _ in range(model.w.shape[0])])
                con = self._oracle(state, model)
                want = psi(state.bank, state.target, model) - psi(state.bank, con.y_hat, model)
                assert np.array_equal(con.delta_psi, want)
                ws = WorkingSet(1, 1.0, len(want))
                ws.add(con)
                assert np.array_equal(ws._idx[0], np.flatnonzero(want))
                assert np.array_equal(ws._val[0], want[np.flatnonzero(want)])
                assert np.all(ws._val[0] != 0.0)

    def test_zero_weights_oracle_padded_in_id_order(self, stopwords):
        state, model = self._prep(stopwords, seed=3)
        x = state.x
        pred = predict(x, model)
        chosen, total = [], 0
        for s in x.sentences:
            if total + s.cost <= model.greedy_config.budget_bytes:
                chosen.append(s.id)
                total += s.cost
        assert list(pred.selected) == chosen

    def test_oracle_near_exhaustive_augmented_objective(self, stopwords):
        """Greedy loss-augmented inference tracks the true argmax in aggregate.

        The augmented objective is not monotone, so no worst-case bound
        exists; the cutting plane only needs a good violated constraint, not
        the exact argmax. Thresholds reflect the measured distribution:
        mean above-empty improvement ratio about 0.93, with essentially all
        draws above half of optimal.
        """
        rng = random.Random(47)
        trials = 60
        ratios = []
        for t in range(trials):
            state, model = self._prep(stopwords, seed=100 + t, budget=40)
            x, Y, target = state.x, state.Y, state.target
            model.w = np.array([rng.uniform(0.0, 0.3) for _ in range(model.w.shape[0])])
            gcfg = GreedyConfig(budget_bytes=40, r=1.0)
            con = self._oracle(state, model)

            def augmented(y):
                return (psi(state.bank, y, model) @ model.w
                        + loss_delta(Y, target, y, x, model.loss_config))

            best = exhaustive_maximize(x, augmented, gcfg)
            base = augmented(Summary((), 0))
            got = augmented(con.y_hat) - base
            opt = augmented(best) - base
            ratios.append(1.0 if opt <= 1e-12 else got / opt)
        assert sum(ratios) / trials >= 0.85
        assert sum(r >= 0.5 for r in ratios) >= math.ceil(0.95 * trials)


class TestOracleAudit:
    """What ``converged`` certifies: the margin against the greedy oracle
    only. Each kind is trained to convergence on eight sets small enough for
    exhaustive search (3 documents x 4 sentences, a 60-byte budget, r = 1,
    lambda = 2, C = 10). On each set H(y) = loss(y) - w . dpsi(y) of the
    exhaustive argmax is compared with H of the greedy oracle's summary.
    The largest gap per kind is pinned, so an oracle or QP change that
    moves the true largest violation shows up here."""

    LARGEST_GAP = {
        "pairwise": 0.8454141397463977,
        "pairwise-split": 0.24715620975799363,
        "coverage": 0.19247426948011218,
    }

    @pytest.mark.parametrize("kind", ["pairwise", "pairwise-split", "coverage"])
    def test_largest_gap_to_exhaustive_search_is_pinned(self, stopwords, kind):
        gcfg = GreedyConfig(budget_bytes=60, r=1.0)
        sets = [
            PreparedSet.build(*toy_example(stopwords, seed=seed, n_docs=3, per_doc=4),
                              FeatureConfig(), LossConfig(), gcfg)
            for seed in range(8)
        ]
        assert all(s.x.num_sentences == 12 for s in sets)
        result = train(sets, kind, TrainerConfig(C=10.0), lam=2.0 if kind == "pairwise" else None)
        assert result.converged
        model, gaps = result.model, []
        for i, state in enumerate(sets):
            psi_target = psi(state.bank, state.target, model)

            def h(y):
                loss = loss_delta(state.Y, state.target, y, state.x, model.loss_config)
                return loss - model.w @ (psi_target - psi(state.bank, y, model))

            greedy = _oracle_from_state(state, i, psi_target, model).y_hat
            gaps.append(h(exhaustive_maximize(state.x, h, gcfg)) - h(greedy))
        assert min(gaps) >= 0.0
        assert max(gaps) == pytest.approx(self.LARGEST_GAP[kind], abs=1e-6)


class TestOracleLoss:
    @pytest.mark.parametrize("kind", ["pairwise", "pairwise-split", "coverage"])
    def test_constraint_loss_is_the_normalized_loss_of_y_hat(self, fixture_data, duc_data,
                                                             kind):
        """The constraint loss the oracle reads off its gain state equals,
        with ==, max(0, raw(y_hat) - raw(target)) recomputed on the set's
        ``RougeGain`` and by the dict-path reference, on fixture and
        DUC-shaped sets, with and without stopwords, under zero, small and
        large random weights and under the model trained on the fixture sets,
        scaled up so that its score outweighs the loss: its oracle then finds
        summaries as good as the target, whose loss is +0.0."""
        rng = np.random.default_rng(17)
        data = fixture_data[:8] + duc_data
        gcfg = GreedyConfig(budget_bytes=665)
        lam = 4.0 if kind == "pairwise" else None
        losses = []
        for drop in (False, True):
            loss_cfg = LossConfig(rouge_stopword_removal=drop)
            sets = prepare_sets(data, range(len(data)), FeatureConfig(), loss_cfg, gcfg)
            models = [train(sets[:8], kind, TrainerConfig(max_outer_iters=10), lam=lam).model]
            models[0].w *= 1000.0
            for scale in (0.0, 0.01, 1.0):
                models.append(Model.zeros(kind, FeatureConfig(), loss_cfg, gcfg, lam=lam))
                models[-1].w = scale * rng.uniform(-1.0, 1.0, size=models[-1].w.shape)
            for model in models:
                for i, state in enumerate(sets):
                    state.with_target()
                    con = _oracle_from_state(state, i, psi(state.bank, state.target, model),
                                             model)
                    raw = state.rouge.load(con.y_hat.selected).raw_loss()
                    assert con.loss == max(0.0, raw - state.raw_target_loss)
                    assert con.loss == loss_delta(state.Y, state.target, con.y_hat, state.x,
                                                  loss_cfg)
                    assert math.copysign(1.0, con.loss) == 1.0
                    losses.append(con.loss)
        assert 0.0 in losses and max(losses) > 0.1


class TestViolation:
    def test_formula(self):
        # example 0's stored constraint has zero dpsi, so its slack is its
        # loss 0.25; example 1's larger slack does not count
        ws = WorkingSet(2, 1.0, 4)
        ws.w = np.array([0.0, 0.1, 0.0, 0.0])
        cons = [Constraint(0, Summary((), 0), 0.25, np.zeros(4)),
                Constraint(1, Summary((), 0), 0.9, np.zeros(4))]
        for con in cons:
            ws.add(con)
        assert ws.xi(0) == 0.25 and ws.xi(1) == 0.9
        con = Constraint(0, Summary((), 0), 0.8, np.array([0.0, 2.0, 0.0, 0.0]))
        assert ws.violation(con) == pytest.approx(0.8 - 0.2 - 0.25)
        assert ws.total_constraints == len(cons)


class TestTrain:
    def _mini_corpus(self, stopwords, n=4):
        random.Random(0)
        data = []
        topics = [
            ("Markets Rallied Strongly Today", "markets stocks rallied climbed news today"),
            ("Volcano Erupted Near Town", "volcano lava erupted evacuations town flows"),
            ("Election Results Announced Early", "election voters results leaders announced"),
            ("Scientists Found Ancient Fossils", "scientists fossils dinosaur bones dig found"),
        ]
        for i, (head, ref) in enumerate(topics[:n]):
            docs = [
                f"{head}. The weather was dull and gray. Nothing else happened here.",
                "Filler text sits here quietly. More filler text again now.",
            ]
            x = build_document_set(f"mini{i}", docs, stopwords)
            refs = (tuple(tokenize(ref, stopwords)), tuple(tokenize(ref, stopwords)))
            data.append((x, ReferenceSet(x.set_id, refs)))
        return data

    @staticmethod
    def _sets(data, budget=60):
        """``data`` prepared under the configs the tests train with; each
        set's target is computed when training first uses it."""
        gcfg = GreedyConfig(budget_bytes=budget, r=0.3)
        return prepare_sets(data, range(len(data)), FeatureConfig(), LossConfig(), gcfg)

    def test_requires_targets(self, stopwords):
        # train computes the targets of prepared sets on first use and keeps
        # them on the prepared set; the reference set is left as it was
        x, Y = toy_example(stopwords, seed=5)
        before = replace(Y)
        sets = self._sets([(x, Y)])
        assert sets[0].target is None
        train(sets, "pairwise", TrainerConfig(C=1.0), lam=4.0)
        assert sets[0].target is not None and sets[0].raw_target_loss is not None
        assert Y == before

    def test_rejects_sets_prepared_under_other_configs(self, stopwords):
        # sets of two prepare_sets calls whose feature, loss or greedy configs differ
        data = self._mini_corpus(stopwords, n=2)
        gcfg = GreedyConfig(budget_bytes=60, r=0.3)
        no_location = FeatureConfig(enabled_groups=("basic", "cap_stop_len", "minmax", "sent_doc"))
        for other in [(no_location, LossConfig(), gcfg),
                      (FeatureConfig(), LossConfig(rouge_stopword_removal=True), gcfg),
                      (FeatureConfig(), LossConfig(), replace(gcfg, r=1.0))]:
            sets = self._sets(data[:1]) + prepare_sets(data, [1], *other)
            with pytest.raises(ValueError, match="prepared under different configs"):
                train(sets, "coverage", TrainerConfig())
            assert all(s.target is None for s in sets)  # refused before any training work

    def test_model_records_the_config_its_sets_were_prepared_with(self, fixture_data,
                                                                  monkeypatch):
        """Fixture sets carry a 66-byte budget, which overrides the config's
        665 wherever the greedy runs; the model records the 665 it was given."""
        oracle_costs = []

        def recording(*args):
            con = _oracle_from_state(*args)
            oracle_costs.append(con.y_hat.total_cost)
            return con

        monkeypatch.setattr(learner, "_oracle_from_state", recording)
        gcfg = GreedyConfig(budget_bytes=665)
        sets = prepare_sets(fixture_data, range(4), FeatureConfig(), LossConfig(), gcfg)
        result = train(sets, "coverage", TrainerConfig(max_outer_iters=3))
        assert result.model.greedy_config == gcfg and all(s.greedy_config is gcfg for s in sets)
        assert all(s.x.budget_bytes == 66 for s in sets)
        assert all(0 < s.target.total_cost <= 66 for s in sets)
        assert oracle_costs and max(oracle_costs) <= 66

    def test_converges_and_dual_monotone(self, stopwords):
        data = self._mini_corpus(stopwords)
        result = train(self._sets(data), "pairwise", TrainerConfig(C=10.0, epsilon=1e-3), lam=4.0)
        assert result.converged
        assert result.final_max_violation <= 1e-3
        duals = result.dual_history
        assert all(b >= a - 1e-9 for a, b in zip(duals, duals[1:]))
        entry = result.iterations[-1]
        assert {"iteration", "constraints_total", "constraints_added",
                "dual_objective", "max_violation"} <= set(entry)

    def test_iteration_entries_certify_each_pass(self, stopwords, monkeypatch):
        solves = []
        solve = WorkingSet.solve

        def counting(ws, cfg):
            dual = solve(ws, cfg)
            solves.append(ws.last_iterations)
            return dual

        monkeypatch.setattr(WorkingSet, "solve", counting)
        result = train(self._sets(self._mini_corpus(stopwords)), "coverage", TrainerConfig(C=10.0))
        start = 0
        for entry in result.iterations:
            # deterministic fields only: reruns must write identical logs
            assert set(entry) == {"iteration", "constraints_total", "constraints_added",
                                  "dual_objective", "primal", "gap", "qp_iters",
                                  "max_violation", "train_rouge1f"}
            assert entry["gap"] == entry["primal"] - entry["dual_objective"]
            assert -1e-12 <= entry["gap"] <= 1e-9 * max(1.0, abs(entry["dual_objective"]))
            end = start + entry["constraints_added"]
            assert entry["qp_iters"] == sum(solves[start:end])
            start = end
        assert start == len(solves) == len(result.dual_history)

    def test_iteration_cap_warns_and_keeps_best(self, stopwords, caplog):
        import logging

        data = self._mini_corpus(stopwords)
        with caplog.at_level(logging.WARNING, logger="structsum.learner"):
            result = train(self._sets(data), "pairwise",
                           TrainerConfig(C=10.0, max_outer_iters=1), lam=4.0)
        assert not result.converged
        assert any("max_outer_iters" in m or "truncat" in m for m in caplog.messages)

    def test_log_callback_sees_every_iteration(self, stopwords):
        data = self._mini_corpus(stopwords)
        seen = []
        train(self._sets(data), "pairwise", TrainerConfig(C=10.0), lam=4.0,
              log_callback=seen.append)
        assert [e["iteration"] for e in seen] == list(range(len(seen)))

    @pytest.mark.parametrize("kind", ["pairwise-split", "coverage"])
    def test_other_model_kinds_train(self, kind, stopwords):
        data = self._mini_corpus(stopwords, n=3)
        result = train(self._sets(data), kind, TrainerConfig(C=10.0))
        assert result.converged
        for x, Y in data:
            y = predict(x, result.model)
            assert y.total_cost <= 60

    def test_per_record_budget_respected(self, stopwords):
        data = self._mini_corpus(stopwords, n=2)
        object.__setattr__(data[0][0], "budget_bytes", 30)
        result = train(self._sets(data), "pairwise", TrainerConfig(C=10.0), lam=4.0)
        assert predict(data[0][0], result.model).total_cost <= 30
        assert predict(data[1][0], result.model).total_cost <= 60


class TestFactorizationReuse:
    """``WorkingSet.solve`` keeps its last KKT matrix and that matrix's
    ``eigh`` and reuses them when the next matrix has the same bytes, as at
    the first iteration after every ``add``. On a fixture C grid the reused
    decompositions must be exactly those of the reused matrices, and a run
    with the reuse defeated must give the same bits."""

    GRID = (0.0001, 0.01, 1.0)
    KW = dict(feature_config=FeatureConfig(), loss_config=LossConfig(),
              greedy_config=GreedyConfig(budget_bytes=66, r=0.3))

    def grid_run(self, fixture_data, monkeypatch, kind, lam, reuse: bool):
        """Per solve: the cached matrix bytes before it (None when the reuse
        is defeated), the bytes of every matrix factored during it, its
        iteration count and its alphas and w after it; and per C the bits of
        the model, the log entries and the duals."""
        factored = {}  # id of an eigh result -> bytes of the matrix it factored
        calls = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            out = eigh(a)
            factored[id(out)] = a.tobytes()
            calls.append(a.tobytes())
            return out

        solve = WorkingSet.solve
        solves = []

        def recording_solve(ws, cfg):
            if not reuse:
                ws._kkt = None  # test-only: every iteration factors its matrix
            before = ws._kkt
            if before is not None:
                assert factored[id(ws._eig)] == before
            first = len(calls)
            dual = solve(ws, cfg)
            solves.append((before, calls[first:], ws.last_iterations,
                           ws._alpha.tobytes(), ws.w.tobytes()))
            return dual

        results = []
        train_on = experiments.train_on

        def recording_train_on(*args, **kwargs):
            results.append(train_on(*args, **kwargs))
            return results[-1]

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", recording_eigh)
            m.setattr(WorkingSet, "solve", recording_solve)
            m.setattr(experiments, "train_on", recording_train_on)
            experiments.select_c(fixture_data, list(range(12)), [30, 31], self.GRID, kind,
                                 trainer_config=TrainerConfig(max_outer_iters=6), lam=lam,
                                 **self.KW)
        models = [(r.model.w.tobytes(), json.dumps(r.iterations, sort_keys=True),
                   [d.hex() for d in r.dual_history]) for r in results]
        return solves, models

    @pytest.mark.parametrize("kind, lam", [("coverage", None), ("pairwise", 4.0)])
    def test_reused_decompositions_are_of_the_same_bytes(self, fixture_data, monkeypatch,
                                                         kind, lam):
        cached, cached_models = self.grid_run(fixture_data, monkeypatch, kind, lam, reuse=True)
        fresh, fresh_models = self.grid_run(fixture_data, monkeypatch, kind, lam, reuse=False)
        assert len(cached) == len(fresh) > 20
        reused = 0
        for (before, calls, iters, alpha, w), (_, all_calls, iters_f, alpha_f, w_f) in zip(
                cached, fresh):
            assert (iters, alpha, w) == (iters_f, alpha_f, w_f)
            assert len(all_calls) == iters
            if len(calls) < iters:
                # only the first iteration may reuse, and it reused the
                # decomposition of exactly its own matrix
                assert len(calls) == iters - 1 and calls == all_calls[1:]
                assert all_calls[0] == before
                reused += 1
            else:
                assert calls == all_calls
        assert sum(len(c) for _, c, *_ in cached) == sum(len(c) for _, c, *_ in fresh) - reused
        assert reused > len(cached) // 2
        assert cached_models == fresh_models


class TestBankSlot:
    """``bank_for`` hands back the last bank it built for the same set object
    under an equal config, and keeps no other bank alive."""

    KINDS = (("pairwise", 4.0), ("pairwise-split", None), ("coverage", None))

    @pytest.fixture
    def builds(self, monkeypatch):
        """Set ids of every bank built and of every cosines stack computed."""
        banks, stacks = [], []
        init, cosines = FeatureBank.__init__, FeatureBank.cosines.func

        def counting_init(bank, x, cfg):
            banks.append(x.set_id)
            init(bank, x, cfg)

        def counting_cosines(bank):
            stacks.append(bank.x.set_id)
            return cosines(bank)

        counted = cached_property(counting_cosines)
        counted.__set_name__(FeatureBank, "cosines")
        monkeypatch.setattr(FeatureBank, "__init__", counting_init)
        monkeypatch.setattr(FeatureBank, "cosines", counted)
        return banks, stacks

    def _models(self, seed=0):
        """One model per kind, each with its own equal default config."""
        rng = np.random.default_rng(seed)
        return [
            Model(kind, rng.standard_normal(registry_for(FeatureConfig(), kind).dimension),
                  FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=100, r=0.3), lam)
            for kind, lam in self.KINDS
        ]

    def test_every_kind_of_one_config_shares_one_bank(self, fixture_data, builds):
        x = fixture_data[0][0]
        for model in self._models():
            predict(x, model)
        assert builds == ([x.set_id], [x.set_id])
        # the tf-idf baseline reads its layer off the held stack
        PairwiseScorer.tfidf_baseline(x, 4.0)
        assert builds == ([x.set_id], [x.set_id])

    def test_baseline_builds_its_own_bank_when_the_held_one_has_no_stack(
            self, fixture_data, builds):
        x = fixture_data[0][0]
        coverage = self._models()[2]
        predict(x, coverage)
        held = bank_for(x, coverage.feature_config)
        PairwiseScorer.tfidf_baseline(x, 4.0)
        # one bank and its one-layer stack more; the held bank builds no stack
        assert builds == ([x.set_id] * 2, [x.set_id])
        assert "cosines" not in vars(held)
        assert bank_for(x, BASELINE_CFG).cosines.shape[0] == 1

    @pytest.mark.parametrize("cfg", [
        FeatureConfig(enabled_groups=("cap_stop_len", "location", "minmax", "sent_doc")),
        FeatureConfig(weightings=("raw",)),
    ], ids=["no-basic", "no-tfidf"])
    def test_baseline_builds_its_own_bank_without_the_tfidf_layer(
            self, fixture_data, builds, cfg):
        x = fixture_data[0][0]
        w = np.random.default_rng(0).standard_normal(registry_for(cfg, "pairwise").dimension)
        predict(x, Model("pairwise", w, cfg, LossConfig(), GreedyConfig(budget_bytes=100), 4.0))
        PairwiseScorer.tfidf_baseline(x, 4.0)
        assert builds == ([x.set_id] * 2, [x.set_id] * 2)
        assert bank_for(x, BASELINE_CFG).cosines.shape[0] == 1

    def test_baseline_read_off_a_model_bank_equals_its_own_bank(
            self, fixture_data, tmp_path, monkeypatch):
        """After predict with a default-config model, the baseline is a view
        of that bank's stack, bit for bit its own one-layer bank's matrix."""
        # the benchmark's corpus generator lives at the repository root,
        # outside the package
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.gen import write_corpus

        duc = load_dataset(write_corpus(tmp_path / "duc.jsonl", "duc", 12, 1, eval_sets=1))
        model = self._models()[0]
        for x, _ in fixture_data + duc:
            predict(x, model)
            held = bank_for(x, model.feature_config).cosines
            m = PairwiseScorer.tfidf_baseline(x, 4.0).m
            assert np.shares_memory(m, held)
            assert np.array_equal(m, FeatureBank(x, BASELINE_CFG).cosines[0])

    def test_other_set_or_unequal_config_builds_anew(self, fixture_data, builds):
        (x0, _), (x1, _) = fixture_data[:2]
        first = bank_for(x0, FeatureConfig())
        assert bank_for(x0, FeatureConfig()) is first
        # an equal copy of the set is another set
        copy = bank_for(replace(x0), FeatureConfig())
        other_set = bank_for(x1, FeatureConfig())
        other_cfg = bank_for(
            x1, FeatureConfig(enabled_groups=("basic", "cap_stop_len", "minmax", "sent_doc")))
        assert len({id(first), id(copy), id(other_set), id(other_cfg)}) == 4
        assert builds[0] == [x0.set_id, x0.set_id, x1.set_id, x1.set_id]

    def test_previous_bank_is_released_before_the_next_build(self, fixture_data, monkeypatch):
        (x0, _), (x1, _) = fixture_data[:2]
        previous = weakref.ref(bank_for(x0, FeatureConfig()))
        assert previous() is not None
        alive_at_build = []
        init = FeatureBank.__init__

        def recording(bank, x, cfg):
            alive_at_build.append(previous() is not None)
            init(bank, x, cfg)

        monkeypatch.setattr(FeatureBank, "__init__", recording)
        bank_for(x1, FeatureConfig())
        assert alive_at_build == [False]
        assert previous() is None

    @pytest.mark.parametrize("record, field", [
        (lambda x: x.sentences[0].tokens[0], "normalized"),
        (lambda x: x.sentences[0], "tokens"),
        (lambda x: x, "sentences"),
    ], ids=["token", "sentence", "document-set"])
    def test_document_sets_are_frozen(self, fixture_data, record, field):
        # the slot keys on the set object, which must not change under it
        with pytest.raises(AttributeError):
            setattr(record(fixture_data[0][0]), field, ())

    def test_token_and_sentence_field_order(self):
        # the loader builds both positionally
        assert Token._fields == ("surface", "normalized", "is_stopword", "is_capitalized")
        assert Sentence._fields == ("id", "doc_id", "position_in_doc", "text", "tokens", "cost")

    @pytest.mark.parametrize("step", [1, -1], ids=["forward", "reverse"])
    def test_predict_equals_prediction_from_a_fresh_bank(self, fixture_data, step):
        models = self._models()
        for x, _ in fixture_data[::step]:
            for model in models:
                fresh = FeatureBank(x, model.feature_config)
                assert predict(x, model) == _predict(fresh, model)
