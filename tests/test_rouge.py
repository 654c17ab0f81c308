import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsum.corpus import ReferenceSet, build_document_set, tokenize
from structsum.greedy import GreedyConfig, exhaustive_maximize
from structsum.rouge import (
    LossConfig,
    RougeGain,
    UnigramCounts,
    clipped_overlap,
    f_score,
    loss_delta,
    loss_delta_r,
    make_target,
    reference_counts,
    rouge1_f,
    rouge1_prf,
    summary_counts,
)
from structsum.scoring import Summary

from oracles import rouge1_f_brute

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]


def multiset(rng, max_len=12):
    return [rng.choice(WORDS) for _ in range(rng.randint(0, max_len))]


def refset(word_lists, set_id="r"):
    return ReferenceSet(
        set_id, tuple(tuple(tokenize(" ".join(ws))) for ws in word_lists)
    )


class TestLossConfig:
    def test_roundtrip(self):
        cfg = LossConfig(multi_ref_aggregation="per-ref-loss", rouge_stopword_removal=True)
        assert LossConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_aggregation(self):
        with pytest.raises(ValueError):
            LossConfig(multi_ref_aggregation="max-f")


class TestCounts:
    def test_from_words(self):
        c = UnigramCounts.from_words(["a", "b", "a"])
        assert c.counts == {"a": 2, "b": 1}
        assert c.total == 3

    def test_from_tokens_stopword_removal(self, stopwords):
        tokens = tokenize("The cat sat", stopwords)
        kept = UnigramCounts.from_tokens(tokens)
        assert kept.total == 3
        dropped = UnigramCounts.from_tokens(tokens, drop_stopwords=True)
        assert dropped.counts == {"cat": 1, "sat": 1}

    def test_clipped_overlap(self):
        c = UnigramCounts.from_words(["a", "a", "a", "b"])
        r = UnigramCounts.from_words(["a", "a", "c"])
        assert clipped_overlap(c, r) == 2
        assert clipped_overlap(r, c) == 2


class TestFScore:
    def test_hand_computed_example(self):
        c = UnigramCounts.from_words(["a", "b", "x"])
        r = UnigramCounts.from_words(["a", "b", "c", "d"])
        assert f_score(clipped_overlap(c, r), c.total, r.total) == pytest.approx(4 / 7)

    def test_zero_denominator(self):
        assert f_score(0, 0, 0) == 0.0

    def test_perfect_match(self):
        c = UnigramCounts.from_words(["a", "b"])
        assert f_score(clipped_overlap(c, c), c.total, c.total) == 1.0

    def test_matches_brute_force_500_multisets(self):
        rng = random.Random(23)
        for _ in range(500):
            cand = multiset(rng)
            refs = [multiset(rng) or ["alpha"] for _ in range(rng.randint(1, 4))]
            got = rouge1_f(
                UnigramCounts.from_words(cand),
                [UnigramCounts.from_words(r) for r in refs],
            )
            want = rouge1_f_brute(cand, refs)
            assert got == pytest.approx(want, abs=1e-12)

    def test_prf_consistent(self):
        c = UnigramCounts.from_words(["a", "b", "x"])
        r = UnigramCounts.from_words(["a", "b", "c", "d"])
        p, rec, f = rouge1_prf(c, [r])
        assert p == pytest.approx(2 / 3)
        assert rec == pytest.approx(2 / 4)
        assert f == pytest.approx(4 / 7)

    def test_requires_references(self):
        with pytest.raises(ValueError):
            rouge1_f(UnigramCounts.from_words(["a"]), [])


class TestLoss:
    def _xy(self, make_docset):
        x = make_docset(["Alpha beta gamma. Delta epsilon zeta."], with_stopwords=False)
        Y = refset([["alpha", "beta", "gamma"], ["alpha", "delta", "zeta"]])
        return x, Y

    def test_aggregation_modes_coincide(self, make_docset):
        """The two multi-reference aggregations agree up to rounding; they
        are not bit-equal (see the next test)."""
        x, Y = self._xy(make_docset)
        for ids in [(), (0,), (1,), (0, 1)]:
            y = Summary(ids, 0)
            a = loss_delta_r(Y, y, x, LossConfig(multi_ref_aggregation="mean-f"))
            b = loss_delta_r(Y, y, x, LossConfig(multi_ref_aggregation="per-ref-loss"))
            assert a == pytest.approx(b, abs=1e-12)

    def test_aggregation_modes_differ_in_the_last_bit(self, make_docset):
        """1 - mean F and the mean of 1 - F round differently: a summary
        matching one of three references gives 1 - 1/3 against 2/3, one
        ulp apart. Both paths, and RougeGain's read-out of each, keep
        their own formula."""
        x = make_docset(["Beta."], with_stopwords=False)
        Y = refset([["alpha"], ["gamma"], ["beta"]])
        mean_f = LossConfig(multi_ref_aggregation="mean-f")
        per_ref = LossConfig(multi_ref_aggregation="per-ref-loss")
        a = loss_delta_r(Y, (0,), x, mean_f)
        b = loss_delta_r(Y, (0,), x, per_ref)
        assert (a, b) == (1.0 - 1.0 / 3.0, 2.0 / 3.0)
        assert a - b == math.ulp(b)
        assert RougeGain(x, Y, mean_f).load([0]).raw_loss() == a
        assert RougeGain(x, Y, per_ref).load([0]).raw_loss() == b

    def test_loss_is_one_minus_f(self, make_docset):
        x, Y = self._xy(make_docset)
        y = Summary((0,), 0)
        f = rouge1_f(summary_counts(x, y), reference_counts(Y))
        assert loss_delta_r(Y, y, x, LossConfig()) == pytest.approx(1.0 - f)

    def test_empty_summary_loss_is_one(self, make_docset):
        x, Y = self._xy(make_docset)
        assert loss_delta_r(Y, Summary.empty(), x, LossConfig()) == 1.0

    def test_normalized_loss_needs_target(self, make_docset):
        x, Y = self._xy(make_docset)
        with pytest.raises(ValueError):
            loss_delta(Y, Summary.empty(), x, LossConfig())

    def test_normalized_loss_clamps_at_zero(self, make_docset):
        x, Y = self._xy(make_docset)
        make_target(x, Y, GreedyConfig(budget_bytes=20, r=1.0), LossConfig())
        assert Y.target is not None
        # the target itself never shows positive normalized loss
        assert loss_delta(Y, Y.target, x, LossConfig()) == 0.0
        worse = Summary.empty()
        assert loss_delta(Y, worse, x, LossConfig()) >= 0.0

    def test_stopword_removal_changes_loss(self, make_docset):
        x = make_docset(["The cat sat. A dog ran."])
        Y = ReferenceSet("s", (tuple(tokenize("the cat")),))
        y = Summary((0,), 0)
        with_sw = loss_delta_r(Y, y, x, LossConfig())
        without = loss_delta_r(Y, y, x, LossConfig(rouge_stopword_removal=True))
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
        first = gain(Summary.empty(), 0)
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
            target = make_target(x, Y, gcfg, cfg)
            f_target = rouge1_f(summary_counts(x, target, cfg), reference_counts(Y, cfg))

            def objective(y):
                return rouge1_f(summary_counts(x, y, cfg), reference_counts(Y, cfg))

            best = exhaustive_maximize(x, objective, gcfg)
            f_best = objective(best)
            if f_best > 0:
                ratios.append(f_target / f_best)
        assert min(ratios) >= 0.7
        assert sum(ratios) / len(ratios) >= 0.95
        assert sum(r > 0.999999 for r in ratios) / len(ratios) >= 0.6

    def test_attaches_target(self, make_docset):
        x = make_docset(["Alpha beta."], with_stopwords=False)
        Y = refset([["alpha", "beta"]])
        got = make_target(x, Y, GreedyConfig(budget_bytes=100), LossConfig())
        assert Y.target is got
        assert set(got.selected) == {0}

    def test_warns_on_empty_target(self, make_docset, caplog):
        x = make_docset(["Alpha beta."], with_stopwords=False)
        Y = refset([["alpha", "beta"]])
        with caplog.at_level(logging.WARNING, logger="structsum.rouge"):
            got = make_target(x, Y, GreedyConfig(budget_bytes=3), LossConfig())
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
    _, rec_small, _ = rouge1_prf(summary_counts(x, small), reference_counts(Y))
    _, rec_large, _ = rouge1_prf(summary_counts(x, large), reference_counts(Y))
    assert rec_large >= rec_small - 1e-12
