"""Every gain state's ``gains(ids)`` equals its one-candidate-at-a-time
reference exactly, at every round of greedy runs on fixture sets, and the
greedy's per-candidate path selects what its vectorized path does."""

import random
from dataclasses import replace

import numpy as np
import pytest

from structsum.corpus import ReferenceSet, build_document_set, tokenize
from structsum.features import FeatureBank, FeatureConfig, registry_for
from structsum.greedy import GreedyConfig, greedy_maximize
from structsum.learner import Model, _AugmentedGain, _score_state
from structsum.rouge import LossConfig, RougeGain
from structsum.scoring import CoverageGainState, PairwiseGainState, SplitGainState

from conftest import random_documents
from oracles import (
    AugmentedGainReference,
    CoverageGainReference,
    PairwiseGainReference,
    RougeGainReference,
    greedy_scan_reference,
    word_counts,
)

BUDGETS = (66, 400)


class Checked:
    """Greedy gain that asserts state == reference on every gains call."""

    def __init__(self, state, reference):
        self.state, self.reference = state, reference
        self.rounds = 0

    def gains(self, ids):
        got = self.state.gains(ids)
        assert got.tolist() == [self.reference(k) for k in ids.tolist()]
        self.rounds += 1
        return got

    def commit(self, k):
        self.state.commit(k)
        self.reference.commit(k)


def long_sentences(rng, count):
    """Sentences of 10-30 words over 60 words, so that many have more
    distinct words than numpy's pairwise summation handles in one block."""
    vocab = [f"w{k:02d}" for k in range(60)]
    return " ".join(
        " ".join(rng.choice(vocab) for _ in range(rng.randint(10, 30))).capitalize() + "."
        for _ in range(count)
    )


@pytest.fixture(scope="module")
def sets(fixture_data, stopwords):
    rng = random.Random(5)
    extra = []
    for i in range(3):
        docs = random_documents(rng, 4, 5) + [long_sentences(rng, 6)]
        x = build_document_set(f"r{i}", docs, stopwords)
        refs = random_documents(rng, 3, 2)
        refs[-1] += " " + long_sentences(rng, 1)
        refs = tuple(tuple(tokenize(r, stopwords)) for r in refs)
        extra.append((x, ReferenceSet(x.set_id, refs)))
    return list(fixture_data[:6]) + extra


def run(x, state, reference, budget):
    gain = Checked(state, reference)
    # a copy without its own budget, so that ``budget`` reaches the greedy
    y = greedy_maximize(replace(x, budget_bytes=None), gain, cfg=GreedyConfig(budget_bytes=budget))
    assert gain.rounds <= len(y.selected) + 1
    return len(y.selected)


def weights(rng, dimension):
    return rng.normal(size=dimension) * rng.uniform(0.01, 3.0)


@pytest.mark.parametrize("clamp", [False, True])
def test_pairwise_and_split(sets, clamp):
    rng = np.random.default_rng(3)
    cfg = FeatureConfig()
    dim = registry_for(cfg, "pairwise").dimension
    accepted = 0
    for x, _ in sets:
        bank = FeatureBank(x, cfg)
        m = bank.sigma(weights(rng, dim))
        mr = bank.sigma(weights(rng, dim))
        if clamp:
            m, mr = np.maximum(m, 0.0), np.minimum(mr, 0.0)
        lam = float(rng.uniform(0.0, 5.0))
        for budget in BUDGETS:
            accepted += run(x, PairwiseGainState(m, lam), PairwiseGainReference(m, lam=lam), budget)
            accepted += run(x, SplitGainState(m, mr), PairwiseGainReference(m, mr=mr), budget)
    assert accepted > 4 * len(sets)


def test_coverage(sets):
    rng = np.random.default_rng(4)
    cfg = FeatureConfig()
    dim = registry_for(cfg, "coverage").dimension
    accepted = 0
    for x, _ in sets:
        bank = FeatureBank(x, cfg)
        values = bank.omega(weights(rng, dim))
        words = [[bank.words[v] for v in row if v < len(bank.words)]
                 for row in bank.padded_word_ids]
        for budget in BUDGETS:
            for vals in (values, np.maximum(values, 0.0)):
                reference = CoverageGainReference(words, dict(zip(bank.words, vals)))
                accepted += run(x, CoverageGainState(bank.padded_word_ids, vals),
                                reference, budget)
            # the bank's padded rows hold exactly each sentence's words
            value = dict(zip(bank.words, np.abs(values)))
            reference = CoverageGainReference([word_counts(s) for s in x.sentences], value)
            accepted += run(x, CoverageGainState(bank.padded_word_ids, np.abs(values)),
                            reference, budget)
    assert accepted > 4 * len(sets)


@pytest.mark.parametrize("drop", [False, True])
def test_rouge_and_augmented(sets, drop):
    rng = np.random.default_rng(6)
    cfg = LossConfig(rouge_stopword_removal=drop)
    dim = registry_for(FeatureConfig(), "pairwise").dimension
    accepted = 0
    for x, Y in sets:
        bank = FeatureBank(x, FeatureConfig())
        m = bank.sigma(weights(rng, dim) * 0.05)
        raw_target = float(rng.uniform(0.0, 0.8))
        for budget in BUDGETS:
            accepted += run(x, RougeGain(x, Y, cfg), RougeGainReference(x, Y, cfg), budget)
            state = _AugmentedGain(PairwiseGainState(m, 4.0), RougeGain(x, Y, cfg), raw_target)
            reference = AugmentedGainReference(
                PairwiseGainReference(m, lam=4.0), RougeGainReference(x, Y, cfg), raw_target
            )
            accepted += run(x, state, reference, budget)
    assert accepted > 4 * len(sets)


class OneCandidate:
    """A proxy with only ``__call__`` and ``commit``, as perfbench's tracer
    wraps gains, so the greedy calls it one candidate at a time; records
    the commits."""

    def __init__(self, gain):
        self.gain, self.committed = gain, []

    def __call__(self, summary, k):
        return self.gain(summary, k)

    def commit(self, k):
        self.committed.append(k)
        self.gain.commit(k)


class AllCandidates(OneCandidate):
    def gains(self, ids):
        return self.gain.gains(ids)


@pytest.mark.parametrize("kind", ["pairwise", "pairwise-split", "coverage"])
def test_one_candidate_path_equals_the_vectorized_one(fixture_data, kind):
    """Every built-in gain object selects and commits the same sentences
    whether the greedy calls it per candidate or asks for all gains at once:
    the clamped and unclamped model states, ``RougeGain`` and the oracle's
    ``_AugmentedGain``, on the 40 fixture sets."""
    rng = np.random.default_rng(8)
    fcfg = FeatureConfig()
    lam = 4.0 if kind == "pairwise" else None
    dim = registry_for(fcfg, kind).dimension
    accepted = 0
    for x, Y in fixture_data:
        bank = FeatureBank(x, fcfg)
        unbudgeted = replace(x, budget_bytes=None)  # so that every budget reaches the greedy
        model = Model(kind, weights(rng, dim), fcfg, LossConfig(), GreedyConfig(66), lam)
        raw_target = float(rng.uniform(0.0, 0.8))
        makers = [lambda: _score_state(bank, model, clamp=False),
                  lambda: _score_state(bank, model, clamp=True),
                  lambda: RougeGain(x, Y, LossConfig()),
                  lambda: _AugmentedGain(_score_state(bank, model, clamp=False),
                                         RougeGain(x, Y, LossConfig()), raw_target)]
        for budget in BUDGETS:
            cfg = GreedyConfig(budget_bytes=budget)
            for make in makers:
                one, every = OneCandidate(make()), AllCandidates(make())
                y = greedy_maximize(unbudgeted, every, cfg=cfg)
                assert greedy_maximize(unbudgeted, one, cfg=cfg) == y
                assert one.committed == every.committed == list(y.selected)
                accepted += len(y.selected)
    assert accepted > 8 * len(fixture_data)


def coverage_rows(rows, width):
    """A padded index matrix of ``rows`` (each ascending word ids), padded
    with the vocabulary size ``width``."""
    padded = np.full((len(rows), max(map(len, rows))), width, dtype=np.intp)
    for row, words in zip(padded, rows):
        row[:len(words)] = words
    return padded


def assert_coverage_equal(padded, values, order):
    """Commit ``order`` one sentence at a time; before each commit every
    candidate's gain equals the reference's, as values, and carries no
    sign other than the reference's except on a zero."""
    width = len(values)
    state = CoverageGainState(padded, values)
    words = [[v for v in row if v < width] for row in padded.tolist()]
    reference = CoverageGainReference(words, dict(enumerate(values)))
    ids = np.arange(len(padded))
    for k in list(order) + [None]:
        got = state.gains(ids)
        want = [reference(i) for i in ids.tolist()]
        assert got.tolist() == want
        if k is not None:
            state.commit(k)
            reference.commit(k)


def test_coverage_with_one_candidate():
    padded = coverage_rows([[0, 2, 3]], 4)
    assert_coverage_equal(padded, [0.5, 7.0, -1.25, 0.1], [0])
    assert CoverageGainState(padded, [0.5, 7.0, -1.25, 0.1]).gains(np.array([0])).shape == (1,)


def test_coverage_with_rows_of_width_one():
    padded = coverage_rows([[1], [0], [1], [2]], 3)
    assert padded.shape == (4, 1)
    assert_coverage_equal(padded, [0.25, -3.0, 2.0], [1, 0, 2])


def test_coverage_with_negative_zero_values():
    # a row summed from its first value ends in -0.0 where a loop from +0.0
    # ends in +0.0; only the sign of a zero gain differs, and no comparison
    # of the greedy sees it
    values = [-0.0, -0.0, 1.5, -0.0]
    padded = coverage_rows([[0, 1], [0, 3], [1, 2], [3]], 4)
    assert_coverage_equal(padded, values, [2, 0])
    got = CoverageGainState(padded, values).gains(np.arange(4))
    loop = np.zeros(4)
    for column in padded.T:
        loop += np.append(values, 0.0)[column]
    assert got.tolist() == loop.tolist()
    # row 3 ends in its padding, a +0.0
    assert np.signbit(got).tolist() == [True, True, False, False]
    assert not np.signbit(loop).any()
    x = one_word_sentences(4)
    cfg = GreedyConfig(budget_bytes=100, r=1.0)
    want = greedy_scan_reference(x, CoverageGainState(padded, values), cfg)
    assert greedy_maximize(x, CoverageGainState(padded, values), cfg=cfg) == want
    assert want.selected == (2, 0, 1, 3)


def one_word_sentences(n):
    """A set of ``n`` one-word sentences of equal byte cost."""
    text = " ".join(f"Word{i:02d}." for i in range(n))
    return build_document_set(f"flat{n}", [text], frozenset())


def test_rouge_with_all_stopword_reference_and_sentence(stopwords):
    # under stopword removal the first reference and the first sentence are
    # empty, so F divides by zero for that reference until a sentence with
    # kept words is committed
    x = build_document_set("sw", ["The of and. Harbor signal the copper. Of a meadow."],
                           stopwords)
    refs = ("the and of a", "harbor copper meadow lantern")
    Y = ReferenceSet("sw", tuple(tuple(tokenize(r, stopwords)) for r in refs))
    cfg = LossConfig(rouge_stopword_removal=True)
    gain = RougeGain(x, Y, cfg)
    assert gain.ref_totals[0] == 0 and gain.sentence_totals[0] == 0
    for budget in (0, 20, 400):
        run(x, RougeGain(x, Y, cfg), RougeGainReference(x, Y, cfg), budget)
    assert RougeGain(x, Y, cfg).gains(np.array([0])).tolist() == [0.0]
