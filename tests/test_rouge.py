import logging
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsum.corpus import ReferenceSet, build_document_set, tokenize
from structsum.experiments import prepare_sets
from structsum.features import FeatureConfig
from structsum.greedy import GreedyConfig, greedy_maximize
from structsum.rouge import LossConfig, RougeGain, f_score, greedy_target
from structsum.scoring import Summary

from conftest import words_set
from oracles import (
    exhaustive_maximize,
    loss_delta,
    reference_counts,
    rouge1_f,
    rouge1_f_brute,
    summary_counts,
)

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]


def multiset(rng, max_len=12):
    return [rng.choice(WORDS) for _ in range(rng.randint(0, max_len))]


def refset(word_lists, set_id="r"):
    return ReferenceSet(
        set_id, tuple(tuple(tokenize(" ".join(ws))) for ws in word_lists)
    )


def loaded(cand_words, ref_word_lists, cfg=LossConfig()):
    """``RougeGain`` of a words-only set with the candidate loaded."""
    x, Y, y = words_set("w", cand_words, ref_word_lists)
    return RougeGain(x, Y, cfg).load(y.selected)


class TestLossConfig:
    def test_roundtrip(self):
        cfg = LossConfig(rouge_stopword_removal=True)
        assert cfg.to_dict() == {"multi_ref_aggregation": "mean-f", "rouge_stopword_removal": True}
        assert LossConfig.from_dict(cfg.to_dict()) == cfg

    def test_legacy_per_ref_loss_reads_as_the_one_loss(self):
        d = {"multi_ref_aggregation": "per-ref-loss", "rouge_stopword_removal": False}
        assert LossConfig.from_dict(d) == LossConfig()

    def test_rejects_unknown_aggregation(self):
        d = {"multi_ref_aggregation": "max-f", "rouge_stopword_removal": False}
        with pytest.raises(ValueError, match="multi_ref_aggregation must be mean-f, not 'max-f'"):
            LossConfig.from_dict(d)


class TestCounts:
    def test_from_words(self):
        gain = loaded(["a", "b", "a"], [["a", "b", "a"]])
        assert gain.ref_counts.tolist() == [[2, 1]]
        assert gain.ref_totals == [3]
        assert gain.sentence_totals.tolist() == [3]
        assert gain.sentence_counts.tolist() == [[2, 1]]

    def test_from_tokens_stopword_removal(self, make_docset):
        x = make_docset(["The cat sat."])
        Y = ReferenceSet("s", (tuple(x.sentences[0].tokens),))
        kept = RougeGain(x, Y, LossConfig())
        assert kept.ref_totals == [3]
        assert kept.sentence_totals.tolist() == [3]
        dropped = RougeGain(x, Y, LossConfig(rouge_stopword_removal=True))
        assert dropped.ref_totals == [2]
        assert dropped.sentence_totals.tolist() == [2]
        # cat, sat: the vocabulary holds only the kept words
        assert dropped.ref_counts.tolist() == [[1, 1]]

    def test_clipped_overlap(self):
        assert loaded(["a", "a", "a", "b"], [["a", "a", "c"]]).overlaps == [2]
        assert loaded(["a", "a", "c"], [["a", "a", "a", "b"]]).overlaps == [2]
        # clipped per reference: the candidate's two a's count once against a
        # reference with one a and twice against one with three
        gain = loaded(["a", "a"], [["a"], ["a", "a", "a"], ["b"]])
        assert gain.overlaps == [1, 2, 0]


class TestFScore:
    def test_hand_computed_example(self):
        assert loaded(["a", "b", "x"], [["a", "b", "c", "d"]]).current_f() == pytest.approx(4 / 7)

    def test_zero_denominator(self):
        assert f_score(0, 0, 0) == 0.0
        # an empty candidate against a reference left empty by stopword
        # removal: every ratio hits its zero guard
        x = build_document_set("z", ["The cat."], frozenset({"the"}))
        Y = ReferenceSet("z", (tuple(tokenize("the the", frozenset({"the"}))),))
        gain = RougeGain(x, Y, LossConfig(rouge_stopword_removal=True)).load(())
        assert (gain.cand_total, gain.ref_totals) == (0, [0])
        assert gain.prf() == (0.0, 0.0, 0.0)
        assert gain.current_f() == 0.0
        assert gain.raw_loss() == 1.0

    def test_perfect_match(self):
        assert loaded(["a", "b"], [["a", "b"]]).current_f() == 1.0

    def test_matches_brute_force_500_multisets(self):
        rng = random.Random(23)
        for _ in range(500):
            cand = multiset(rng)
            refs = [multiset(rng) or ["alpha"] for _ in range(rng.randint(1, 4))]
            gain = loaded(cand, refs)
            want = rouge1_f_brute(cand, refs)
            assert gain.current_f() == pytest.approx(want, abs=1e-12)
            assert gain.prf()[2] == gain.current_f()

    def test_prf_consistent(self):
        p, rec, f = loaded(["a", "b", "x"], [["a", "b", "c", "d"]]).prf()
        assert p == pytest.approx(2 / 3)
        assert rec == pytest.approx(2 / 4)
        assert f == pytest.approx(4 / 7)
        # an empty candidate has zero precision, recall and F
        assert loaded([], [["a", "b"]]).prf() == (0.0, 0.0, 0.0)

    def test_requires_references(self, make_docset):
        x = make_docset(["Alpha."], with_stopwords=False)
        with pytest.raises(ValueError):
            RougeGain(x, ReferenceSet("r", ()), LossConfig())


class TestLoss:
    def _xy(self, make_docset):
        x = make_docset(["Alpha beta gamma. Delta epsilon zeta."], with_stopwords=False)
        Y = refset([["alpha", "beta", "gamma"], ["alpha", "delta", "zeta"]])
        return x, Y

    def test_loss_is_one_minus_f(self, make_docset):
        x, Y = self._xy(make_docset)
        gain = RougeGain(x, Y, LossConfig()).load([0])
        assert gain.raw_loss() == pytest.approx(1.0 - gain.current_f())

    def test_empty_summary_loss_is_one(self, make_docset):
        x, Y = self._xy(make_docset)
        gain = RougeGain(x, Y, LossConfig())
        assert gain.load(()).raw_loss() == 1.0
        assert gain.reset().raw_loss() == 1.0

    def test_perfect_summary_loss_is_positive_zero(self):
        gain = loaded(["a", "b", "a"], [["a", "b", "a"], ["b", "a", "a"]])
        assert gain.current_f() == 1.0
        assert math.copysign(1.0, gain.raw_loss()) == 1.0 and gain.raw_loss() == 0.0

    def test_normalized_loss_needs_target(self, make_docset):
        # the normalized loss is measured from the target's raw loss: a
        # prepared set computes both on first use, on its own RougeGain
        x, Y = self._xy(make_docset)
        gcfg = GreedyConfig(budget_bytes=20, r=1.0)
        (s,) = prepare_sets([(x, Y)], [0], FeatureConfig(), LossConfig(), gcfg)
        assert s.target is None and s.raw_target_loss is None
        s.with_target()
        assert s.target == greedy_target(x, RougeGain(x, Y, LossConfig()), gcfg)
        assert s.raw_target_loss == RougeGain(x, Y, LossConfig()).load(s.target.selected).raw_loss()
        assert loss_delta(Y, s.target, s.target, x, LossConfig()) == 0.0

    def test_normalized_loss_clamps_at_zero(self, make_docset):
        x, Y = self._xy(make_docset)
        target = greedy_target(x, RougeGain(x, Y, LossConfig()),
                               GreedyConfig(budget_bytes=20, r=1.0))
        # the target itself never shows positive normalized loss
        assert loss_delta(Y, target, target, x, LossConfig()) == 0.0
        worse = Summary((), 0)
        assert loss_delta(Y, target, worse, x, LossConfig()) >= 0.0

    def test_stopword_removal_changes_loss(self, make_docset):
        x = make_docset(["The cat sat. A dog ran."])
        Y = ReferenceSet("s", (tuple(tokenize("the cat")),))
        with_sw = RougeGain(x, Y, LossConfig()).load([0]).raw_loss()
        without = RougeGain(x, Y, LossConfig(rouge_stopword_removal=True)).load([0]).raw_loss()
        assert with_sw != pytest.approx(without)


class TestRougeGain:
    def test_incremental_matches_full_recompute(self, stopwords):
        rng = random.Random(29)
        cfg = LossConfig()
        for trial in range(40):
            docs = [
                " ".join(
                    " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 5))).capitalize()
                    + "." for _ in range(3)
                )
                for _ in range(2)
            ]
            x = build_document_set(f"r{trial}", docs, stopwords)
            Y = refset([multiset(rng, 8) or ["alpha"] for _ in range(rng.randint(1, 3))])
            gain = RougeGain(x, Y, cfg)
            selected = []
            order = rng.sample(range(x.num_sentences), k=x.num_sentences)
            for k in order[:4]:
                y = Summary(tuple(selected), 0)
                grown = Summary(tuple(selected) + (k,), 0)
                f_now = rouge1_f(summary_counts(x, y, cfg), reference_counts(Y, cfg))
                f_grown = rouge1_f(summary_counts(x, grown, cfg), reference_counts(Y, cfg))
                assert gain(y, k) == pytest.approx(f_grown - f_now, abs=1e-12)
                assert gain.current_f() == pytest.approx(f_now, abs=1e-12)
                gain.commit(k)
                selected.append(k)

    def test_gain_reflects_duplicate_clipping(self, make_docset):
        x = make_docset(["Alpha beta. Alpha beta."], with_stopwords=False)
        Y = refset([["alpha", "beta"]])
        gain = RougeGain(x, Y, LossConfig())
        first = gain(Summary((), 0), 0)
        assert first == pytest.approx(1.0)
        gain.commit(0)
        second = gain(Summary((0,), 0), 1)
        assert second < 0.0


class TestMakeTarget:
    def test_reaches_exhaustive_quality(self, stopwords):
        """Greedy targets track the best feasible F closely in aggregate.

        The F objective is not monotone (precision punishes length), so the
        classic greedy bound does not apply and worst-case gaps do occur;
        thresholds below are calibrated against this draw distribution.
        """
        rng = random.Random(31)
        cfg = LossConfig()
        ratios = []
        for trial in range(60):
            docs = [
                " ".join(
                    " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 4))).capitalize()
                    + "." for _ in range(3)
                )
                for _ in range(2)
            ]
            x = build_document_set(f"m{trial}", docs, stopwords)
            Y = refset([multiset(rng, 8) or ["alpha"] for _ in range(2)])
            budget = rng.randint(10, 60)
            gcfg = GreedyConfig(budget_bytes=budget, r=1.0)
            target = greedy_target(x, RougeGain(x, Y, cfg), gcfg)
            gain = RougeGain(x, Y, cfg)
            f_target = gain.load(target.selected).current_f()

            def objective(y):
                return gain.load(y.selected).current_f()

            best = exhaustive_maximize(x, objective, gcfg)
            f_best = objective(best)
            if f_best > 0:
                ratios.append(f_target / f_best)
        assert min(ratios) >= 0.7
        assert sum(ratios) / len(ratios) >= 0.95
        assert sum(r > 0.999999 for r in ratios) / len(ratios) >= 0.6

    def test_attaches_target(self, make_docset):
        # the prepared set computes its target once and keeps it
        x = make_docset(["Alpha beta."], with_stopwords=False)
        Y = refset([["alpha", "beta"]])
        (s,) = prepare_sets([(x, Y)], [0], FeatureConfig(), LossConfig(),
                            GreedyConfig(budget_bytes=100))
        got = s.with_target().target
        assert s.with_target().target is got
        assert set(got.selected) == {0}

    def test_warns_on_empty_target(self, make_docset, caplog):
        x = make_docset(["Alpha beta."], with_stopwords=False)
        Y = refset([["alpha", "beta"]])
        with caplog.at_level(logging.WARNING, logger="structsum.rouge"):
            got = greedy_target(x, RougeGain(x, Y, LossConfig()), GreedyConfig(budget_bytes=3))
        assert got.selected == ()
        assert any("empty" in m for m in caplog.messages)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_recall_monotone_in_summary_growth(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    docs = [
        " ".join(
            " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 4))).capitalize() + "."
            for _ in range(3)
        )
    ]
    x = build_document_set("p", docs, frozenset())
    Y = refset([multiset(rng, 6) or ["alpha"]])
    n = x.num_sentences
    members = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    split_at = data.draw(st.integers(0, len(members)))
    small = Summary(tuple(members[:split_at]), 0)
    large = Summary(tuple(members), 0)
    gain = RougeGain(x, Y, LossConfig())
    _, rec_small, _ = gain.load(small.selected).prf()
    _, rec_large, _ = gain.load(large.selected).prf()
    assert rec_large >= rec_small - 1e-12


@pytest.fixture(scope="module")
def loss_gains(fixture_data, duc_data):
    """A set and its ``RougeGain`` per stopword rule: the 40 fixture sets
    and 3 DUC-shaped sets, each with 4 references."""
    return [(x, RougeGain(x, Y, LossConfig(rouge_stopword_removal=drop)))
            for x, Y in fixture_data + duc_data for drop in (False, True)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_raw_loss_is_one_minus_f_and_never_negative(loss_gains, data):
    """F never exceeds 1, under rounding too, so 1 - F needs no clamp at 0.
    Half the selections are greedy ROUGE targets, which reach F = 1 on
    every fixture set under a budget of 66 bytes or more."""
    x, gain = data.draw(st.sampled_from(loss_gains))
    n = x.num_sentences
    if data.draw(st.booleans()):
        budget = data.draw(st.integers(0, 1000))
        # a copy without the set's own budget, so that the drawn one applies
        ids = greedy_maximize(replace(x, budget_bytes=None), gain.reset(),
                              cfg=GreedyConfig(budget_bytes=budget)).selected
    else:
        ids = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 40)))
    gain.load(ids)
    f = gain.current_f()
    assert f <= 1.0
    assert gain.raw_loss() == 1.0 - f >= 0.0
    gain.reset()
    for k in ids:
        gain.commit(k)
    f = gain.current_f()
    assert f <= 1.0
    assert gain.raw_loss() == 1.0 - f >= 0.0
