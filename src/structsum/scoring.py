"""Submodular objectives as incremental gain states.

Each state holds the marginal gains of one greedy run over a materialized
objective:

* pairwise: reward similarity between selected and unselected sentences,
  penalize similarity inside the selection (scaled by lambda, over ordered
  pairs). Submodular whenever the similarity is non-negative.
* split pairwise: the same two sums over separate similarity matrices, the
  redundancy sum entering positively.
* coverage: sum a word value over the distinct words the selection covers.
  Monotone submodular whenever the word value is non-negative.

``gains(ids)`` returns the marginal gains of the given candidates as one
array and ``commit(k)`` records an accepted sentence; the ``GainState`` base
also answers the greedy's one-candidate call. Models fill the
states from their ``FeatureBank`` matrices; the hand-tuned baseline is
``gain_state(x, PairwiseScorer.tfidf_baseline(x, lam))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DocumentSet
from .features import tfidf_cosines


@dataclass(frozen=True)
class Summary:
    """Selected sentence ids in insertion order plus their total byte cost."""

    selected: tuple[int, ...]
    total_cost: int

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("summary contains duplicate sentence ids")


class GainState:
    """Base of the gain states: a subclass defines ``gains(ids)``, and
    calling the state as gain(summary, k) gives candidate k's gain alone,
    for callers of the greedy's one-candidate protocol."""

    def __call__(self, summary, k: int) -> float:
        return float(self.gains([k])[0])


class PairwiseGainState(GainState):
    """Incremental pairwise gains for one greedy run.

    Works from a materialized (symmetric, zero-diagonal) similarity matrix;
    ``gains(ids)`` is one array expression over the candidates and each
    commit is O(n). Confine one state object to a single run.
    """

    def __init__(self, m, lam: float):
        self.m = m
        self.lam = lam
        self.total_row = m.sum(axis=0)
        self.sel = np.zeros(m.shape[0])

    def gains(self, ids) -> np.ndarray:
        return self.total_row[ids] - (2.0 + 2.0 * self.lam) * self.sel[ids]

    def commit(self, k: int) -> None:
        self.sel += self.m[k]


class SplitGainState(GainState):
    def __init__(self, mc, mr):
        self.mc = mc
        self.mr = mr
        self.total_row = mc.sum(axis=0)
        self.sel_cross = np.zeros(mc.shape[0])
        self.sel_red = np.zeros(mc.shape[0])

    def gains(self, ids) -> np.ndarray:
        return self.total_row[ids] - 2.0 * self.sel_cross[ids] + 2.0 * self.sel_red[ids]

    def commit(self, k: int) -> None:
        self.sel_cross += self.mc[k]
        self.sel_red += self.mr[k]


class CoverageGainState(GainState):
    """Coverage gains over word indices.

    Row k of ``padded`` holds sentence k's distinct word indices in
    ascending order, left-aligned, then ``len(values)`` (as in
    ``FeatureBank.padded_word_ids``), and ``values[v]`` is word v's value. A gain adds the values of
    the sentence's uncovered words left to right, as one ``np.add.accumulate``
    along its padded row, so every candidate sums in the same order as a
    scalar loop over its words. A loop from +0.0 would differ only where
    every term is -0.0, in the sign of a zero gain. The matrix is shared,
    not copied.
    """

    def __init__(self, padded: np.ndarray, values):
        # the last entry is a zero that padding points at; a commit zeroes
        # the value of every word it covers
        self.values = np.append(np.asarray(values, dtype=float), 0.0)
        self.padded = padded

    def gains(self, ids) -> np.ndarray:
        return np.add.accumulate(self.values[self.padded[ids]], axis=1)[:, -1]

    def commit(self, k: int) -> None:
        self.values[self.padded[k]] = 0.0


@dataclass(frozen=True, eq=False)
class PairwiseScorer:
    """A materialized similarity matrix plus the redundancy trade-off lambda."""

    m: np.ndarray
    lam: float

    @staticmethod
    def tfidf_baseline(x: DocumentSet, lam: float) -> "PairwiseScorer":
        """The hand-tuned baseline: tf-idf cosine over all words."""
        return PairwiseScorer(tfidf_cosines(x), lam)


def gain_state(x: DocumentSet, scorer: PairwiseScorer) -> PairwiseGainState:
    return PairwiseGainState(scorer.m, scorer.lam)
