import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsum.corpus import build_document_set
from structsum.greedy import GreedyConfig, greedy_maximize
from structsum.scoring import CoverageGainState, Summary

from conftest import coverage_state, with_costs
from oracles import (
    best_coverage_subset,
    coverage_score_brute,
    exhaustive_maximize,
    greedy_scan_reference,
    vocabulary_reference,
    word_counts,
)


def flat_set(n):
    text = " ".join(f"Word{i:02d} extra." for i in range(n))
    return build_document_set(f"n{n}", [text], frozenset())


class TestGreedyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GreedyConfig(budget_bytes=-1)
        with pytest.raises(ValueError):
            GreedyConfig(budget_bytes=10, r=0.0)
        with pytest.raises(ValueError):
            GreedyConfig(budget_bytes=10, r=1.5)
        with pytest.raises(ValueError, match="lowest-id"):
            GreedyConfig.from_dict({"budget_bytes": 10, "r": 0.3, "tie_break": "random"})

    def test_roundtrip(self):
        cfg = GreedyConfig(budget_bytes=100, r=0.5)
        assert GreedyConfig.from_dict(cfg.to_dict()) == cfg

    def test_tie_rule_is_written_not_configured(self):
        cfg = GreedyConfig(budget_bytes=100, r=0.5)
        assert [f.name for f in fields(GreedyConfig)] == ["budget_bytes", "r"]
        assert cfg.to_dict() == {"budget_bytes": 100, "r": 0.5, "tie_break": "lowest-id"}
        assert GreedyConfig.from_dict({"budget_bytes": 100, "r": 0.5}) == cfg

    @pytest.mark.parametrize("field, value", [
        ("budget_bytes", True), ("budget_bytes", 66.9), ("budget_bytes", "66"),
        ("r", True), ("r", "0.3"), ("r", float("inf")), ("r", None),
    ])
    def test_from_dict_checks_json_types(self, field, value):
        d = dict(GreedyConfig(budget_bytes=66).to_dict(), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be "):
            GreedyConfig.from_dict(d)

    def test_default_exponent(self):
        assert GreedyConfig(budget_bytes=1).r == 0.3


class TestSetBudget:
    """A set's own budget, 0 included, beats the config's; a set without one
    is budgeted by the config. Sentence costs are 17, 19 and 15 bytes."""

    cfg = GreedyConfig(budget_bytes=665, r=0.5)

    def summary(self, make_docset, budget):
        x = make_docset(["Alpha beta gamma. Delta epsilon zeta. Eta theta iota."], budget=budget)
        assert x.costs.tolist() == [17, 19, 15]
        return greedy_maximize(x, lambda y, k: 1.0, cfg=self.cfg)

    def test_set_budget_wins(self, make_docset):
        assert self.summary(make_docset, 40) == Summary((2, 0), 32)

    def test_set_zero_budget_wins(self, make_docset):
        assert self.summary(make_docset, 0) == Summary((), 0)

    def test_set_without_budget_uses_config(self, make_docset):
        assert self.summary(make_docset, None) == Summary((2, 0, 1), 51)


class TestWorkedExample:
    """Three word groups, budget 2, unit exponent: the two cheap sentences
    beat the one that covers more words, cheapest-per-cost first."""

    def setup_method(self):
        self.x = with_costs(build_document_set("w", ["One two. One. Three."], frozenset()),
                            [3, 1, 1])
        self.cfg = GreedyConfig(budget_bytes=2, r=1.0)

    def gain(self):
        return coverage_state(self.x, lambda w: 1.0)

    def test_selection_and_order(self):
        y = greedy_maximize(self.x, self.gain(), cfg=self.cfg)
        assert y.selected == (1, 2)
        assert y.total_cost == 2

    def test_exhaustive_agrees(self):
        words = [set(word_counts(s)) for s in self.x.sentences]

        def objective(y):
            return coverage_score_brute(words, lambda w: 1.0, y.selected)

        y = exhaustive_maximize(self.x, objective, self.cfg)
        assert set(y.selected) == {1, 2}

    @pytest.mark.parametrize("cost", [[3, 1, 1], (3, 1, 1), lambda sid: 1])
    def test_explicit_costs_rejected(self, cost):
        with pytest.raises(TypeError, match="cost must be None"):
            greedy_maximize(self.x, self.gain(), cost=cost, cfg=self.cfg)


class TestGreedyMechanics:
    def test_requires_config(self):
        x = flat_set(2)
        with pytest.raises(TypeError):
            greedy_maximize(x, lambda y, k: 1.0)

    def test_zero_gain_still_accepted(self):
        x = with_costs(flat_set(3), [1, 1, 1])
        y = greedy_maximize(x, lambda y, k: 0.0, cfg=GreedyConfig(budget_bytes=2, r=1.0))
        assert y.selected == (0, 1)

    def test_all_negative_yields_empty(self):
        x = with_costs(flat_set(3), [1, 1, 1])
        y = greedy_maximize(x, lambda y, k: -1.0, cfg=GreedyConfig(budget_bytes=10, r=1.0))
        assert y.selected == ()

    def test_rejected_candidate_leaves_pool_for_cheaper_ones(self):
        # best ratio first points at the expensive sentence, which busts the
        # budget; the scan must continue and take the cheap ones
        x = with_costs(flat_set(3), [100, 1, 1])
        gains = {0: 10.0, 1: 1.0, 2: 1.0}
        y = greedy_maximize(x, lambda y, k: gains[k], cfg=GreedyConfig(budget_bytes=2, r=1.0))
        assert y.selected == (1, 2)

    def test_gain_called_once_per_live_candidate_then_stops(self):
        # an all-negative round accepts nothing, so the greedy stops after it
        x = with_costs(flat_set(4), [1] * 4)
        calls = []

        def gain(y, k):
            calls.append(k)
            return -1.0

        greedy_maximize(x, gain, cfg=GreedyConfig(budget_bytes=4, r=1.0))
        assert calls == [0, 1, 2, 3]

    def test_unaffordable_sentences_never_evaluated(self):
        x = with_costs(flat_set(4), [1, 5, 2, 9])
        calls = []

        def gain(y, k):
            calls.append(k)
            return 1.0

        y = greedy_maximize(x, gain, cfg=GreedyConfig(budget_bytes=3, r=1.0))
        assert y.selected == (0, 2)
        assert calls == [0, 2, 2]

    def test_one_gains_call_per_round(self):
        x = with_costs(flat_set(6), [1] * 6)
        calls = []

        class Gain:
            def __init__(self):
                self.taken = 0

            def gains(self, ids):
                calls.append(list(ids))
                return np.array([1.0 - 0.5 * self.taken] * len(ids))

            def commit(self, k):
                self.taken += 1

        y = greedy_maximize(x, Gain(), cfg=GreedyConfig(budget_bytes=6, r=1.0))
        # gains 1, 0.5, 0 are accepted, then -0.5 stops the run
        assert y.selected == (0, 1, 2)
        assert calls == [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [2, 3, 4, 5], [3, 4, 5]]
        assert len(calls) <= len(y.selected) + 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gain_rejected(self, bad):
        x = with_costs(flat_set(3), [1, 1, 1])
        table = [1.0, bad, 2.0]

        class Gain:
            def gains(self, ids):
                return np.array([table[k] for k in ids])

        cfg = GreedyConfig(budget_bytes=3, r=1.0)
        with pytest.raises(ValueError, match="sentence 1 "):
            greedy_maximize(x, lambda y, k: table[k], cfg=cfg)
        with pytest.raises(ValueError, match="sentence 1 "):
            greedy_maximize(x, Gain(), cfg=cfg)

    def test_tie_breaks_to_lowest_id(self):
        x = with_costs(flat_set(4), [1] * 4)
        y = greedy_maximize(x, lambda y, k: 1.0, cfg=GreedyConfig(budget_bytes=1, r=1.0))
        assert y.selected == (0,)

    def test_nonpositive_cost_rejected(self):
        x = with_costs(flat_set(2), [0, 1])
        with pytest.raises(ValueError, match="sentence 0 has non-positive cost 0"):
            greedy_maximize(x, lambda y, k: 1.0, cfg=GreedyConfig(budget_bytes=5, r=1.0))

    def test_cached_byte_costs_equal_explicit_costs(self, fixture_data):
        """The byte costs and their cost**r scales are the set's own arrays,
        built once per (set, r); the summaries equal those of the full scan,
        which reads each sentence's cost and takes Python powers."""
        for x, _ in fixture_data:
            x = replace(x)  # a copy with empty caches
            for r in (0.3, 1.0):
                cfg = GreedyConfig(budget_bytes=200, r=r)

                def gain():
                    return coverage_state(x, lambda w: 1.0 + len(w) % 5)

                # the scan reads the config's budget, so give it the set's own
                want = greedy_scan_reference(x, gain(), replace(cfg, budget_bytes=x.budget_bytes))
                assert greedy_maximize(x, gain(), cfg=cfg) == want
                scales = x.cost_scales(r)
                assert greedy_maximize(x, gain(), cfg=cfg) == want
                assert x.cost_scales(r) is scales
                assert scales.tolist() == [s.cost ** r for s in x.sentences]
                assert not scales.flags.writeable
            assert x.costs.tolist() == [s.cost for s in x.sentences]
            assert not x.costs.flags.writeable

    def test_commit_called_only_on_acceptance(self):
        x = with_costs(flat_set(3), [1, 1, 1])
        committed = []

        class Gain:
            def __call__(self, y, k):
                return {0: 1.0, 1: -1.0, 2: 1.0}[k]

            def commit(self, k):
                committed.append(k)

        greedy_maximize(x, Gain(), cfg=GreedyConfig(budget_bytes=10, r=1.0))
        assert committed == [0, 2]

    def test_cost_exponent_shifts_choice(self):
        x = with_costs(flat_set(2), [9, 1])
        gains = {0: 3.0, 1: 1.0}
        # with r=1 value density favors the cheap one; with tiny budget both fit?
        y_r1 = greedy_maximize(x, lambda y, k: gains[k], cfg=GreedyConfig(budget_bytes=9, r=1.0))
        assert y_r1.selected[0] == 1
        y_r03 = greedy_maximize(x, lambda y, k: gains[k], cfg=GreedyConfig(budget_bytes=9, r=0.3))
        assert y_r03.selected[0] == 0


class TestExhaustive:
    def test_refuses_large_instances(self):
        x = flat_set(21)
        with pytest.raises(ValueError):
            exhaustive_maximize(x, lambda y: 1.0, GreedyConfig(budget_bytes=5))

    def test_ties_prefer_smaller_then_lexicographic(self):
        x = with_costs(flat_set(3), [1, 1, 1])
        y = exhaustive_maximize(x, lambda y: 0.0, GreedyConfig(budget_bytes=100))
        assert y.selected == ()

    def test_callable_objective(self):
        x = with_costs(flat_set(3), [1, 1, 1])
        y = exhaustive_maximize(x, lambda y: len(y.selected), GreedyConfig(budget_bytes=2, r=1.0))
        assert set(y.selected) == {0, 1}

    def test_matches_brute_oracle(self):
        rng = random.Random(17)
        for trial in range(30):
            n = rng.randint(2, 8)
            x = flat_set(n)
            sentence_words = [set(word_counts(s)) for s in x.sentences]
            weights = {w: rng.uniform(0, 2) for w in vocabulary_reference(x)}
            costs = [rng.randint(1, 4) for _ in range(n)]
            x = with_costs(x, costs)
            budget = rng.randint(1, sum(costs))

            def objective(y):
                return coverage_score_brute(sentence_words, weights.__getitem__, y.selected)

            y = exhaustive_maximize(x, objective, GreedyConfig(budget_bytes=budget, r=1.0))
            got = sum(weights[w] for w in set().union(
                *[sentence_words[i] for i in y.selected])) if y.selected else 0.0
            want, _ = best_coverage_subset(sentence_words, weights.__getitem__,
                                           costs, budget)
            assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_budget_never_exceeded_and_deterministic(data):
    n = data.draw(st.integers(1, 8))
    costs = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    x = with_costs(flat_set(n), costs)
    budget = data.draw(st.integers(0, 30))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    table = {k: rng.uniform(-1, 3) for k in range(n)}
    cfg = GreedyConfig(budget_bytes=budget, r=data.draw(st.sampled_from([0.3, 1.0])))
    y1 = greedy_maximize(x, lambda y, k: table[k], cfg=cfg)
    y2 = greedy_maximize(x, lambda y, k: table[k], cfg=cfg)
    assert y1 == y2
    assert y1.total_cost <= budget
    assert y1.total_cost == sum(costs[i] for i in y1.selected)
    assert len(set(y1.selected)) == len(y1.selected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_greedy_never_beats_exhaustive_on_modular_gains(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    values = [rng.uniform(0, 3) for _ in range(n)]
    costs = [rng.randint(1, 5) for _ in range(n)]
    x = with_costs(flat_set(n), costs)
    budget = rng.randint(0, 12)
    cfg = GreedyConfig(budget_bytes=budget, r=1.0)
    y = greedy_maximize(x, lambda y, k: values[k], cfg=cfg)
    best = exhaustive_maximize(x, lambda y: sum(values[i] for i in y.selected), cfg)
    got = sum(values[i] for i in y.selected)
    opt = sum(values[i] for i in best.selected)
    assert got <= opt + 1e-12


class _TableGain:
    """Gains read from a table by the number of commits so far; records the
    commit order."""

    def __init__(self, table):
        self.table = table
        self.committed: list[int] = []

    def __call__(self, y, k):
        return self.table[len(self.committed)][k]

    def commit(self, k):
        self.committed.append(k)


class _VectorTableGain(_TableGain):
    def gains(self, ids):
        row = self.table[len(self.committed)]
        return np.array([row[k] for k in ids])


class _CoverageGain:
    """Stateful coverage-style gains: the values of uncovered words."""

    def __init__(self, words, value):
        self.words, self.value = words, value
        self.covered: set[int] = set()
        self.committed: list[int] = []

    def __call__(self, y, k):
        return sum(self.value[w] for w in self.words[k] if w not in self.covered)

    def commit(self, k):
        self.covered.update(self.words[k])
        self.committed.append(k)


class _VectorCoverageGain(_CoverageGain):
    def gains(self, ids):
        return np.array([self(None, k) for k in ids])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matches_full_scan_reference(data):
    n = data.draw(st.integers(1, 8))
    costs = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    x = with_costs(flat_set(n), costs)
    cfg = GreedyConfig(budget_bytes=data.draw(st.integers(0, 25)),
                       r=data.draw(st.sampled_from([0.3, 1.0])))
    if data.draw(st.booleans()):
        # few distinct values give ties, zeros and negative gains
        values = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        table = data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                   min_size=n + 1, max_size=n + 1))
        make = [lambda: _TableGain(table), lambda: _VectorTableGain(table)]
    else:
        words = data.draw(st.lists(st.sets(st.integers(0, 5), max_size=4),
                                   min_size=n, max_size=n))
        value = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.25, 1.0, 2.0]),
                                   min_size=6, max_size=6))
        make = [lambda: _CoverageGain(words, value), lambda: _VectorCoverageGain(words, value)]
    want_gain = make[0]()
    want = greedy_scan_reference(x, want_gain, cfg=cfg)
    for new in make:
        gain = new()
        assert greedy_maximize(x, gain, cfg=cfg) == want
        assert gain.committed == want_gain.committed


class _OneAtATime:
    """A gain state seen through the one-candidate protocol only."""

    def __init__(self, state):
        self.state = state

    def __call__(self, y, k):
        return self.state(y, k)

    def commit(self, k):
        self.state.commit(k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_coverage_state_matches_full_scan_reference(data):
    """``CoverageGainState`` through both greedy paths selects what the full
    scan selects. The draws give ties (few costs and values), zero and
    negative gains (values 0.0, -0.0 and -1.0), a zero budget and sentences
    that never fit (cost 30 against budgets of at most 25)."""
    n = data.draw(st.integers(1, 8))
    costs = data.draw(st.lists(st.sampled_from([1, 2, 5, 9, 30]), min_size=n, max_size=n))
    x = with_costs(flat_set(n), costs)
    cfg = GreedyConfig(budget_bytes=data.draw(st.sampled_from([0, 3, 7, 12, 25])),
                       r=data.draw(st.sampled_from([0.3, 1.0])))
    rows = data.draw(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4),
                              min_size=n, max_size=n))
    values = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, 2.0]),
                                min_size=6, max_size=6))
    padded = np.full((n, max(map(len, rows))), 6, dtype=np.intp)
    for row, words in zip(padded, rows):
        row[:len(words)] = sorted(words)
    want = greedy_scan_reference(x, CoverageGainState(padded, values), cfg=cfg)
    assert greedy_maximize(x, CoverageGainState(padded, values), cfg=cfg) == want
    assert greedy_maximize(x, _OneAtATime(CoverageGainState(padded, values)), cfg=cfg) == want
