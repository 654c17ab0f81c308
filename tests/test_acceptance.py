"""Acceptance suite: one verdict line per shipping requirement.

Each test checks one contract at its stated tolerance and appends a [PASS]
or [FAIL] line (with the measured numbers) to the terminal summary, so the
run log shows the verdicts in one block. The replication check against DUC
2004 only runs when the data is supplied through STRUCTSUM_DUC04_JSONL;
the data is license-restricted and cannot ship with the repository.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest

from structsum.corpus import build_document_set, load_dataset, load_stopwords
from structsum.experiments import (
    bounds_table,
    evaluate_predictions,
    learning_curve,
    mean_f,
    prepare_sets,
    select_c,
    train_on,
)
from structsum.features import FeatureBank, FeatureConfig, registry_for
from structsum.greedy import GreedyConfig, greedy_maximize
from structsum.learner import (
    Constraint,
    Model,
    TrainerConfig,
    WorkingSet,
    predict,
    train,
)
from structsum.rouge import LossConfig, RougeGain
from structsum.scoring import PairwiseGainState, PairwiseScorer, Summary, gain_state

from conftest import (
    ACCEPTANCE_LINES,
    EXPECTED_RESULTS,
    FIXTURE_JSONL,
    SMALL_MODEL,
    committed,
    coverage_state,
    random_documents,
    random_sigma,
    sigma_matrix,
    with_costs,
    words_set,
)
from oracles import best_coverage_subset, coverage_score_brute, loss_delta, rouge1_f_brute
from qp_reference import solve_dual_reference


def _verdict(ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {text}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _subset_chain(rng, universe):
    """u plus random s subseteq t subseteq universe - {u}."""
    u = rng.choice(universe)
    rest = [v for v in universe if v != u]
    t = tuple(v for v in rest if rng.random() < 0.5)
    s = tuple(v for v in t if rng.random() < 0.5)
    return s, t, u


def test_submodularity_suite(stopwords):
    """1000 random (s subseteq t, u) draws per gain state obey diminishing
    returns within 1e-9, in under ten seconds: s (resp. t) is committed
    into a fresh state, which then gives u's gain."""
    rng = random.Random(11)
    started = time.perf_counter()
    # six set draws that fix the rng state every later draw starts from
    for n in range(4, 10):
        random_documents(rng, 1, n)
    cov_sets = [
        build_document_set(f"c{k}", random_documents(rng, 2, rng.randint(2, 4)), stopwords)
        for k in range(40)
    ]
    banks = {x.set_id: FeatureBank(x, FeatureConfig()) for x in cov_sets}
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(4, 9)
        m, lam = sigma_matrix(n, random_sigma(rng, n)), rng.uniform(0.0, 5.0)
        s, t, u = _subset_chain(rng, list(range(n)))
        g_s = committed(PairwiseGainState(m, lam), s).gains([u])[0]
        g_t = committed(PairwiseGainState(m, lam), t).gains([u])[0]
        worst = max(worst, g_t - g_s)
    for _ in range(1000):
        x = rng.choice(cov_sets)
        # sorted so the draw order is stable under hash randomization
        vocab = sorted({t.normalized for s in x.sentences for t in s.tokens})
        values = {w: rng.random() for w in vocab}
        s, t, u = _subset_chain(rng, list(range(x.num_sentences)))
        g_s = committed(coverage_state(x, values.__getitem__, banks[x.set_id]), s).gains([u])[0]
        g_t = committed(coverage_state(x, values.__getitem__, banks[x.set_id]), t).gains([u])[0]
        worst = max(worst, g_t - g_s)
    elapsed = time.perf_counter() - started
    _verdict(
        worst <= 1e-9 and elapsed < 10.0,
        f"submodularity: worst gain(t,u)-gain(s,u) = {worst:.2e} over 1000 draws "
        f"per scorer (tolerance 1e-9) in {elapsed:.1f}s",
    )


def test_greedy_approximation(stopwords):
    """200 random monotone coverage instances, unit costs, r=1: greedy/OPT
    at least 1-1/e on every instance and at least 0.99 on average."""
    rng = random.Random(13)
    started = time.perf_counter()
    bound = 1.0 - 1.0 / math.e
    ratios = []
    for _ in range(200):
        n = rng.randint(3, 10)
        x = build_document_set("g", random_documents(rng, 1, n), stopwords)
        n = x.num_sentences
        vocab = sorted({t.normalized for s in x.sentences for t in s.tokens})
        values = {w: rng.random() for w in vocab}
        budget = rng.randint(1, n)
        cfg = GreedyConfig(budget_bytes=budget, r=1.0)
        y = greedy_maximize(with_costs(x, [1] * n), coverage_state(x, values.__getitem__),
                            cfg=cfg)
        sentence_words = [sorted({t.normalized for t in s.tokens}) for s in x.sentences]
        got = coverage_score_brute(sentence_words, values.__getitem__, y.selected)
        opt, _ = best_coverage_subset(sentence_words, values.__getitem__, [1] * n, budget)
        ratios.append(1.0 if opt <= 0.0 else got / opt)
    elapsed = time.perf_counter() - started
    mean_ratio = sum(ratios) / len(ratios)
    _verdict(
        min(ratios) >= bound - 1e-12 and mean_ratio >= 0.99 and elapsed < 60.0,
        f"greedy approximation: min ratio {min(ratios):.4f} >= 1-1/e = {bound:.4f}, "
        f"mean {mean_ratio:.4f} >= 0.99 over 200 instances in {elapsed:.1f}s",
    )


def test_unigram_f_oracle():
    """On 500 random candidate/reference multisets, the F that
    ``evaluate_predictions`` reports (read off ``RougeGain``) matches the
    brute-force clipped-overlap F to 1e-12; the 4/7 hand example is
    reproduced exactly."""
    rng = random.Random(17)
    vocab = ["red", "blue", "green", "dog", "cat", "sun", "rain", "tree", "car", "sea"]
    data, predictions, want = [], {}, {}
    for k in range(500):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
        refs = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
            for _ in range(rng.randint(1, 3))
        ]
        x, Y, y = words_set(f"u{k:03d}", cand, refs)
        data.append((x, Y))
        predictions[x.set_id] = y
        want[x.set_id] = rouge1_f_brute(cand, refs)
    report = evaluate_predictions(data, predictions, LossConfig())
    worst = max(abs(row["f"] - want[row["set_id"]]) for row in report.rows)
    x, Y, y = words_set("hand", ["a", "b", "c"], [["a", "b", "d", "e"]])
    hand = RougeGain(x, Y, LossConfig()).load(y.selected).current_f()
    _verdict(
        len(report.rows) == 500 and worst <= 1e-12 and hand == 4.0 / 7.0,
        f"unigram F oracle: max |got-brute| = {worst:.2e} over 500 multisets "
        f"(tolerance 1e-12), hand-computed case = {hand} (wanted {4.0 / 7.0})",
    )


def test_dual_solver():
    """Analytic single-constraint duals match min(C/n, loss/||dpsi||^2) to
    1e-8; random working sets match a dense reference solver to 1e-6."""
    analytic_err = 0.0
    for cap, loss, vec in [(10.0, 1.0, (1.0, 0.0)), (0.5, 1.0, (1.0, 0.0)),
                           (100.0, 0.9, (2.0, 1.0)), (0.1, 1.3, (0.5, 0.5))]:
        d = len(vec)
        ws = WorkingSet(n_examples=1, C=cap, dimension=d)
        ws.add(Constraint(0, Summary((), 0), loss, np.array(vec)))
        ws.solve(TrainerConfig(C=cap))
        want = min(cap, loss / sum(v * v for v in vec))
        analytic_err = max(analytic_err, abs(ws.alpha[0][0] - want))

    rng = np.random.default_rng(23)
    dual_err = 0.0
    for _ in range(25):
        n_ex = int(rng.integers(1, 4))
        d = int(rng.integers(2, 8))
        cap = float(rng.uniform(0.05, 5.0))
        ws = WorkingSet(n_examples=n_ex, C=cap * n_ex, dimension=d)
        dpsis, losses, groups = [], [], []
        for _ in range(int(rng.integers(1, 9))):
            ex = int(rng.integers(0, n_ex))
            vec = rng.normal(size=d)
            loss = float(rng.uniform(0.0, 1.5))
            ws.add(Constraint(ex, Summary((), 0), loss, vec.copy()))
            dpsis.append(vec.copy())
            losses.append(loss)
            groups.append(ex)
        dual = ws.solve(TrainerConfig(C=cap * n_ex, qp_tol=1e-14, qp_max_passes=100_000))
        _, ref_dual, _ = solve_dual_reference(dpsis, losses, groups, cap)
        dual_err = max(dual_err, abs(dual - ref_dual))
    _verdict(
        analytic_err <= 1e-8 and dual_err <= 1e-6,
        f"dual solver: analytic alpha error {analytic_err:.2e} (tolerance 1e-8), "
        f"max dual gap vs dense reference {dual_err:.2e} over 25 problems "
        f"(tolerance 1e-6)",
    )


def test_cutting_plane_contract(stopwords):
    """Training on the 40-set separable fixture terminates under the 1e-3
    violation tolerance with a non-decreasing dual, zero training loss, and
    predictions identical to the targets, all within five minutes."""
    started = time.perf_counter()
    data = load_dataset(FIXTURE_JSONL, stopwords)
    gcfg = GreedyConfig(budget_bytes=66, r=0.3)
    loss_cfg = LossConfig()
    prepared = prepare_sets(data, range(len(data)), FeatureConfig(), loss_cfg, gcfg)
    result = train(
        prepared, "pairwise", trainer_config=TrainerConfig(C=10.0, epsilon=1e-3), lam=4.0,
    )
    duals = [it["dual_objective"] for it in result.iterations]
    monotone = all(b >= a - 1e-12 for a, b in zip(duals, duals[1:]))
    worst_loss = 0.0
    all_match = True
    for s in prepared:
        y = predict(s.x, result.model)
        worst_loss = max(worst_loss, loss_delta(s.Y, s.target, y, s.x, loss_cfg))
        all_match = all_match and frozenset(y.selected) == frozenset(s.target.selected)
    elapsed = time.perf_counter() - started
    _verdict(
        result.converged and result.final_max_violation <= 1e-3 and monotone
        and worst_loss == 0.0 and all_match and elapsed < 300.0,
        f"cutting plane: converged in {len(result.iterations)} rounds, "
        f"max violation {result.final_max_violation:.2e} <= 1e-3, dual "
        f"{'non-decreasing' if monotone else 'DECREASED'}, worst training loss "
        f"{worst_loss}, predictions {'==' if all_match else '!='} targets, "
        f"{elapsed:.1f}s",
    )


def test_learning_effect(stopwords):
    """On the held-out fixture split the trained model beats uniform weights
    by at least the recorded margin, and the learning curve at the largest
    size is no worse than at size one minus 0.01."""
    expected = json.loads(EXPECTED_RESULTS.read_text(encoding="utf-8"))
    data = load_dataset(FIXTURE_JSONL, stopwords)
    train_ids, test_ids = expected["train_ids"], expected["test_ids"]
    gcfg = GreedyConfig(budget_bytes=expected["budget_bytes"], r=0.3)
    loss_cfg = LossConfig()
    result = train_on(
        data, train_ids, "pairwise", FeatureConfig(), loss_cfg, gcfg,
        TrainerConfig(C=10.0, epsilon=1e-3), lam=4.0,
    )
    trained = mean_f(data, test_ids, result.model, loss_cfg)
    uniform = mean_f(
        data, test_ids,
        Model("pairwise", np.ones(registry_for(FeatureConfig(), "pairwise").dimension),
              FeatureConfig(), loss_cfg, gcfg, lam=4.0),
        loss_cfg,
    )
    sizes = [1, max(expected["curve_sizes"])]
    curve = learning_curve(
        data, sizes, train_ids, test_ids, "pairwise",
        FeatureConfig(), loss_cfg, gcfg, TrainerConfig(C=10.0, epsilon=1e-3), lam=4.0,
    )
    curve_ok = curve[-1]["mean_f"] >= curve[0]["mean_f"] - 0.01
    _verdict(
        trained - uniform >= expected["margin"] and curve_ok,
        f"learning effect: trained F {trained:.4f} - uniform F {uniform:.4f} = "
        f"{trained - uniform:.4f} >= recorded margin {expected['margin']}, curve "
        f"F({sizes[1]}) = {curve[-1]['mean_f']:.4f} >= F(1) - 0.01 = "
        f"{curve[0]['mean_f'] - 0.01:.4f}",
    )


def test_bounds_ordering(fixture_data):
    """Extractive ceiling >= training fit >= held-out prediction on the
    fixture, with the committed small model."""
    expected = json.loads(EXPECTED_RESULTS.read_text(encoding="utf-8"))
    small = expected["small_train_ids"]
    rest = [i for i in range(len(fixture_data)) if i not in small]
    rows = dict(bounds_table(
        fixture_data, Model.load(SMALL_MODEL), small, rest, LossConfig(),
        GreedyConfig(budget_bytes=expected["budget_bytes"], r=0.3),
    ))
    ordered = rows["extractive"] >= rows["model_fit"] >= rows["prediction"]
    _verdict(
        ordered,
        f"bounds ordering: extractive {rows['extractive']:.4f} >= model_fit "
        f"{rows['model_fit']:.4f} >= prediction {rows['prediction']:.4f}",
    )


def test_duc04_replication(stopwords):
    """Optional: with user-supplied DUC 2004 data, the trained pairwise model
    lands within 0.02 of mean F 0.4066 and the hand-tuned baseline within
    0.02 of 0.3935."""
    path = os.environ.get("STRUCTSUM_DUC04_JSONL")
    if not path or not os.path.exists(path):
        line = ("[SKIP] replication: DUC 2004 data not supplied; point "
                "STRUCTSUM_DUC04_JSONL at a dataset file to run this check")
        ACCEPTANCE_LINES.append(line)
        pytest.skip(line[7:])
    data = load_dataset(path, stopwords)
    if len(data) < 10:
        pytest.skip(f"need at least 10 document sets, found {len(data)}")
    loss_cfg = LossConfig()
    gcfg = GreedyConfig(budget_bytes=665, r=0.3)
    held = max(2, len(data) // 5)
    order = list(range(len(data)))
    random.Random(0).shuffle(order)
    n_train = len(data) - 2 * held
    tr, va, te = (sorted(ids) for ids in (order[:n_train], order[n_train:-held], order[-held:]))
    best_c, _ = select_c(
        data, tr, va, [0.1, 1.0, 10.0, 100.0], "pairwise",
        FeatureConfig(), loss_cfg, gcfg, TrainerConfig(epsilon=1e-3), lam=4.0,
    )
    result = train_on(
        data, list(tr) + list(va), "pairwise", FeatureConfig(), loss_cfg, gcfg,
        TrainerConfig(C=best_c, epsilon=1e-3), lam=4.0,
    )
    trained = mean_f(data, te, result.model, loss_cfg)
    base_preds = {}
    for i in te:
        x, _ = data[i]
        scorer = PairwiseScorer.tfidf_baseline(x, lam=4.0)
        base_preds[x.set_id] = greedy_maximize(x, gain_state(x, scorer), cfg=gcfg)
    from structsum.experiments import evaluate_predictions

    baseline = evaluate_predictions([data[i] for i in te], base_preds, loss_cfg).mean_f
    _verdict(
        abs(trained - 0.4066) <= 0.02 and abs(baseline - 0.3935) <= 0.02,
        f"replication: trained F {trained:.4f} (want 0.4066 +/- 0.02), "
        f"baseline F {baseline:.4f} (want 0.3935 +/- 0.02) on {len(te)} test sets",
    )
