import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsum.corpus import build_document_set
from structsum.features import FeatureBank, FeatureConfig
from structsum.greedy import GreedyConfig
from structsum.learner import Model, _score_state, predict
from structsum.rouge import LossConfig
from structsum.scoring import PairwiseGainState, SplitGainState, Summary

from conftest import committed, coverage_state, random_documents, random_sigma, sigma_matrix
from oracles import (
    CoverageGainReference,
    PairwiseGainReference,
    coverage_score_brute,
    pairwise_score_brute,
    split_score_brute,
    vocabulary_reference,
    word_counts,
)


def n_sentence_set(n, stopwords=frozenset()):
    """A set with n sentences, each one distinct word plus a shared filler."""
    text = " ".join(f"Word{i:02d} filler." for i in range(n))
    return build_document_set(f"n{n}", [text], stopwords)


FROZEN_SIGMA = {
    (0, 1): 0.5, (1, 0): 0.5,
    (0, 2): 0.2, (2, 0): 0.2,
    (1, 2): 0.1, (2, 1): 0.1,
}


def frozen_sigma(i, j):
    return FROZEN_SIGMA.get((i, j), 0.0)


def frozen_state(lam=1.0):
    return PairwiseGainState(sigma_matrix(3, frozen_sigma), lam)


def telescoped(state, ids):
    """The objective of ``ids``: the sum of their gains, committed in order."""
    total = 0.0
    for k in ids:
        total += float(state.gains([k])[0])
        state.commit(k)
    return total


def sentence_words(x):
    return [set(word_counts(s)) for s in x.sentences]


def negative_model(kind, lam=None):
    """A model whose similarities (or word values) are all <= 0; split
    models get redundancy similarities >= 0."""
    model = Model.zeros(kind, FeatureConfig(), LossConfig(), GreedyConfig(budget_bytes=100),
                        lam=lam)
    model.w = -np.ones_like(model.w)
    if kind == "pairwise-split":
        model.w[len(model.w) // 2:] = 1.0
    return model


def id_order_padding(x, budget):
    chosen, total = [], 0
    for s in x.sentences:
        if total + s.cost <= budget:
            chosen.append(s.id)
            total += s.cost
    return tuple(chosen)


class TestSummary:
    def test_basic_container(self):
        y = Summary((2, 0), 21)
        assert 2 in y.selected and 1 not in y.selected
        assert len(y.selected) == 2
        assert frozenset(y.selected) == {0, 2}

    def test_empty(self):
        y = Summary((), 0)
        assert len(y.selected) == 0 and y.total_cost == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Summary((1, 1), 10)


class TestPairwiseScore:
    def test_frozen_single(self):
        assert pairwise_score_brute(3, frozen_sigma, 1.0, (0,)) == pytest.approx(0.7)
        assert telescoped(frozen_state(), (0,)) == pytest.approx(0.7)

    def test_frozen_pair(self):
        assert pairwise_score_brute(3, frozen_sigma, 1.0, (0, 1)) == pytest.approx(-0.7)
        assert telescoped(frozen_state(), (0, 1)) == pytest.approx(-0.7)

    def test_frozen_gain(self):
        assert committed(frozen_state(), [0]).gains([1])[0] == pytest.approx(-1.4)

    def test_empty_scores_zero(self):
        assert pairwise_score_brute(3, frozen_sigma, 1.0, ()) == 0.0
        # gains from the empty summary are the singleton scores
        assert frozen_state().gains([0, 1, 2]).tolist() == pytest.approx([0.7, 0.6, 0.3])

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 8)
            sigma = random_sigma(rng, n, low=-0.5, high=1.0)
            lam = rng.uniform(0, 5)
            state = PairwiseGainState(sigma_matrix(n, sigma), lam)
            ids = tuple(rng.sample(range(n), k=rng.randint(0, n)))
            want = pairwise_score_brute(n, sigma, lam, ids)
            assert telescoped(state, ids) == pytest.approx(want, abs=1e-12)

    def test_clamp_zeroes_negative_similarities(self):
        """Inference floors a model's negative similarities at zero, so
        every gain is zero and the greedy pads in id order; the unclamped
        state of the loss-augmented oracle keeps them."""
        x = n_sentence_set(4)
        model = negative_model("pairwise", lam=1.0)
        bank = FeatureBank(x, model.feature_config)
        raw = _score_state(bank, model, clamp=False)
        assert raw.m.min() < 0.0 and raw.m.max() == 0.0
        clamped = _score_state(bank, model, clamp=True)
        assert np.array_equal(clamped.m, np.zeros_like(raw.m))
        assert predict(x, model).selected == id_order_padding(x, 100)


class TestSplitScore:
    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 8)
            cross = random_sigma(rng, n, low=-0.5, high=1.0)
            red = random_sigma(rng, n, low=-1.0, high=.5)
            state = SplitGainState(sigma_matrix(n, cross), sigma_matrix(n, red))
            ids = tuple(rng.sample(range(n), k=rng.randint(0, n)))
            want = split_score_brute(n, cross, red, ids)
            assert telescoped(state, ids) == pytest.approx(want, abs=1e-12)

    def test_asymmetric_clamp(self):
        """Inference clamps cross similarities up to zero and redundancy
        similarities down to zero."""
        x = n_sentence_set(4)
        model = negative_model("pairwise-split")
        bank = FeatureBank(x, model.feature_config)
        raw = _score_state(bank, model, clamp=False)
        assert raw.mc.min() < 0.0 and raw.mr.max() > 0.0
        clamped = _score_state(bank, model, clamp=True)
        assert np.array_equal(clamped.mc, np.zeros_like(raw.mc))
        assert np.array_equal(clamped.mr, np.zeros_like(raw.mr))
        assert predict(x, model).selected == id_order_padding(x, 100)


class TestCoverageScore:
    def test_counts_each_word_once(self, make_docset):
        x = make_docset(["Apple pear. Apple plum."], with_stopwords=False)
        assert telescoped(coverage_state(x, lambda w: 1.0), (0, 1)) == 3.0

    def test_matches_brute_force(self, stopwords):
        rng = random.Random(7)
        for trial in range(30):
            docs = random_documents(rng, 2, 3)
            x = build_document_set(f"b{trial}", docs, stopwords)
            weights = {w: rng.uniform(-1, 2) for w in vocabulary_reference(x)}
            state = coverage_state(x, weights.__getitem__)
            n = x.num_sentences
            ids = tuple(rng.sample(range(n), k=rng.randint(0, n)))
            want = coverage_score_brute(sentence_words(x), weights.__getitem__, ids)
            assert telescoped(state, ids) == pytest.approx(want, abs=1e-12)

    def test_clamp_floors_word_values(self, make_docset):
        x = make_docset(["Bad word."], with_stopwords=False)
        model = negative_model("coverage")
        bank = FeatureBank(x, model.feature_config)
        assert _score_state(bank, model, clamp=False).values.min() < 0.0
        assert _score_state(bank, model, clamp=True).gains([0]).tolist() == [0.0]
        assert predict(x, model).selected == (0,)

    def test_covered_words(self, make_docset):
        """A commit covers exactly the sentence's words."""
        x = make_docset(["Apple pear. Plum fig here."], with_stopwords=False)
        bank = FeatureBank(x, FeatureConfig())
        state = committed(coverage_state(x, lambda w: 1.0, bank), [0])
        covered = {w for w, v in zip(bank.words, state.values) if v == 0.0}
        assert covered == {"apple", "pear"}


class TestMarginalGain:
    @pytest.mark.parametrize("kind", ["pairwise", "split", "coverage"])
    def test_incremental_equals_full(self, kind, stopwords):
        """gains([k]) after committing y == score(y + k) - score(y) across
        200 random draws."""
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            docs = random_documents(rng, 2, 3)
            x = build_document_set(f"i{checked}", docs, stopwords)
            n = x.num_sentences
            if kind == "pairwise":
                sigma, lam = random_sigma(rng, n, -0.3, 1.0), rng.uniform(0, 5)
                state = PairwiseGainState(sigma_matrix(n, sigma), lam)

                def score(ids):
                    return pairwise_score_brute(n, sigma, lam, ids)
            elif kind == "split":
                cross = random_sigma(rng, n, -0.3, 1.0)
                red = random_sigma(rng, n, -1.0, 0.3)
                state = SplitGainState(sigma_matrix(n, cross), sigma_matrix(n, red))

                def score(ids):
                    return split_score_brute(n, cross, red, ids)
            else:
                weights = {w: rng.uniform(-1, 2) for w in vocabulary_reference(x)}
                state = coverage_state(x, weights.__getitem__)

                def score(ids):
                    return coverage_score_brute(sentence_words(x), weights.__getitem__, ids)
            ids = rng.sample(range(n), k=rng.randint(0, n - 1))
            rest = [k for k in range(n) if k not in ids]
            k = rng.choice(rest)
            want = score(tuple(ids) + (k,)) - score(tuple(ids))
            assert committed(state, ids).gains([k])[0] == pytest.approx(want, abs=1e-12)
            checked += 1


class TestGainState:
    @pytest.mark.parametrize("kind", ["pairwise", "split", "coverage"])
    def test_state_tracks_marginal_gain(self, kind, stopwords):
        """Called one candidate at a time, a state equals its one-candidate
        reference along a run of commits."""
        rng = random.Random(13)
        for trial in range(30):
            docs = random_documents(rng, 2, 3)
            x = build_document_set(f"g{trial}", docs, stopwords)
            n = x.num_sentences
            if kind == "pairwise":
                m = sigma_matrix(n, random_sigma(rng, n))
                lam = rng.uniform(0, 5)
                state, reference = PairwiseGainState(m, lam), PairwiseGainReference(m, lam=lam)
            elif kind == "split":
                mc = sigma_matrix(n, random_sigma(rng, n))
                mr = sigma_matrix(n, random_sigma(rng, n, -1.0, 0.0))
                state, reference = SplitGainState(mc, mr), PairwiseGainReference(mc, mr=mr)
            else:
                weights = {w: rng.uniform(0, 2) for w in vocabulary_reference(x)}
                state = coverage_state(x, weights.__getitem__)
                reference = CoverageGainReference(sentence_words(x), weights)
            selected: list[int] = []
            order = rng.sample(range(n), k=n)
            for k in order[: n // 2 + 1]:
                y = Summary(tuple(selected), 0)
                assert state(y, k) == pytest.approx(reference(k), abs=1e-12)
                state.commit(k)
                reference.commit(k)
                selected.append(k)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pairwise_submodular_with_nonnegative_sigma(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    m = sigma_matrix(n, random_sigma(rng, n))
    lam = rng.uniform(0, 5)
    members = data.draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1)
    )
    split_at = data.draw(st.integers(0, len(members)))
    small, large = sorted(members[:split_at]), sorted(members)
    u = data.draw(st.integers(0, n - 1))
    if u in large:
        return
    g_small = committed(PairwiseGainState(m, lam), small).gains([u])[0]
    g_large = committed(PairwiseGainState(m, lam), large).gains([u])[0]
    assert g_small >= g_large - 1e-9


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coverage_submodular_and_monotone_with_nonnegative_omega(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    docs = random_documents(rng, 2, 3)
    x = build_document_set("h", docs, frozenset())
    n = x.num_sentences
    weights = {w: rng.uniform(0, 2) for w in vocabulary_reference(x)}
    bank = FeatureBank(x, FeatureConfig())
    members = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    split_at = data.draw(st.integers(0, len(members)))
    small, large = sorted(members[:split_at]), sorted(members)
    u = data.draw(st.integers(0, n - 1))
    if u in large:
        return
    g_small = committed(coverage_state(x, weights.__getitem__, bank), small).gains([u])[0]
    g_large = committed(coverage_state(x, weights.__getitem__, bank), large).gains([u])[0]
    assert g_small >= g_large - 1e-9
    assert g_large >= -1e-12
