"""Submodular scoring of candidate summaries.

Two objective families share one interface:

* pairwise: reward similarity between selected and unselected sentences,
  penalize similarity inside the selection (scaled by lambda, over ordered
  pairs). Submodular whenever the similarity is non-negative.
* coverage: sum a word value over the distinct words the selection covers.
  Monotone submodular whenever the word value is non-negative.

``clamp_negative`` floors learned similarities / word values at zero so the
diminishing-returns argument survives arbitrary learned weights. It is on
by default for inference and off inside loss-augmented training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import DocumentSet


@dataclass(frozen=True)
class Summary:
    """Selected sentence ids in insertion order plus their total byte cost."""

    selected: tuple[int, ...]
    total_cost: int

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("summary contains duplicate sentence ids")

    def __contains__(self, sid: int) -> bool:
        return sid in self.selected

    def __len__(self) -> int:
        return len(self.selected)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.selected)

    @staticmethod
    def empty() -> "Summary":
        return Summary((), 0)


@dataclass(frozen=True)
class PairwiseScorer:
    """sigma(i, j) plus the fixed redundancy trade-off lambda."""

    sigma: Callable[[int, int], float]
    lam: float
    clamp_negative: bool = True

    def sig(self, i: int, j: int) -> float:
        v = self.sigma(i, j)
        if self.clamp_negative and v < 0.0:
            return 0.0
        return v

    @staticmethod
    def tfidf_baseline(x: DocumentSet, lam: float = 4.0) -> "PairwiseScorer":
        from .features import tfidf_cosine_fn

        return PairwiseScorer(sigma=tfidf_cosine_fn(x), lam=lam)


@dataclass(frozen=True)
class SplitPairwiseScorer:
    """Separate similarities for the cross and redundancy sums.

    The redundancy term enters the score positively; a trained model drives
    its weights negative. Clamping keeps cross >= 0 and redundancy <= 0.
    """

    sigma_cross: Callable[[int, int], float]
    sigma_red: Callable[[int, int], float]
    clamp_negative: bool = True

    def sig_cross(self, i: int, j: int) -> float:
        v = self.sigma_cross(i, j)
        if self.clamp_negative and v < 0.0:
            return 0.0
        return v

    def sig_red(self, i: int, j: int) -> float:
        v = self.sigma_red(i, j)
        if self.clamp_negative and v > 0.0:
            return 0.0
        return v


@dataclass(frozen=True)
class CoverageScorer:
    """omega(word): value of covering one word."""

    omega: Callable[[str], float]
    clamp_negative: bool = True

    def value(self, word: str) -> float:
        v = self.omega(word)
        if self.clamp_negative and v < 0.0:
            return 0.0
        return v


def _ids(y) -> tuple[int, ...]:
    return y.selected if isinstance(y, Summary) else tuple(y)


def covered_words(x: DocumentSet, y) -> set[str]:
    out: set[str] = set()
    for sid in _ids(y):
        for t in x.sentences[sid].tokens:
            out.add(t.normalized)
    return out


def score_pairwise(x: DocumentSet, y, scorer: PairwiseScorer) -> float:
    """Cross-similarity sum minus lambda times the ordered redundancy sum."""
    inside = set(_ids(y))
    n = x.num_sentences
    cross = 0.0
    red = 0.0
    for j in inside:
        for i in range(n):
            if i == j:
                continue
            s = scorer.sig(i, j)
            if i in inside:
                red += s
            else:
                cross += s
    return cross - scorer.lam * red


def score_split(x: DocumentSet, y, scorer: SplitPairwiseScorer) -> float:
    inside = set(_ids(y))
    n = x.num_sentences
    total = 0.0
    for j in inside:
        for i in range(n):
            if i == j:
                continue
            if i in inside:
                total += scorer.sig_red(i, j)
            else:
                total += scorer.sig_cross(i, j)
    return total


def score_coverage(x: DocumentSet, y, scorer: CoverageScorer) -> float:
    return sum(scorer.value(w) for w in covered_words(x, y))


def score(x: DocumentSet, y, scorer) -> float:
    if isinstance(scorer, PairwiseScorer):
        return score_pairwise(x, y, scorer)
    if isinstance(scorer, SplitPairwiseScorer):
        return score_split(x, y, scorer)
    if isinstance(scorer, CoverageScorer):
        return score_coverage(x, y, scorer)
    if callable(scorer):
        return float(scorer(y))
    raise TypeError(f"cannot score with {type(scorer).__name__}")


def marginal_gain(x: DocumentSet, y, k: int, scorer) -> float:
    """score(y + {k}) - score(y), computed incrementally.

    Pairwise: adding k contributes its similarity row to the cross sum,
    removes its links to the selection from the cross sum, and adds each of
    those links twice (ordered pairs) to the redundancy sum. Coverage: only
    newly covered words contribute.
    """
    inside = set(_ids(y))
    if k in inside:
        raise ValueError(f"sentence {k} already selected")
    n = x.num_sentences
    if not (0 <= k < n):
        raise ValueError(f"sentence id {k} out of range")
    if isinstance(scorer, PairwiseScorer):
        total_row = sum(scorer.sig(i, k) for i in range(n) if i != k)
        sel = sum(scorer.sig(j, k) for j in inside)
        return total_row - (2.0 + 2.0 * scorer.lam) * sel
    if isinstance(scorer, SplitPairwiseScorer):
        total_row = sum(scorer.sig_cross(i, k) for i in range(n) if i != k)
        sel_cross = sum(scorer.sig_cross(j, k) for j in inside)
        sel_red = sum(scorer.sig_red(j, k) for j in inside)
        return total_row - 2.0 * sel_cross + 2.0 * sel_red
    if isinstance(scorer, CoverageScorer):
        seen = covered_words(x, inside)
        gain = 0.0
        for w in {t.normalized for t in x.sentences[k].tokens}:
            if w not in seen:
                gain += scorer.value(w)
        return gain
    raise TypeError(f"cannot compute gains with {type(scorer).__name__}")


def _sigma_matrix(x: DocumentSet, sig: Callable[[int, int], float]) -> np.ndarray:
    n = x.num_sentences
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = sig(i, j)
    return m


class PairwiseGainState:
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

    @classmethod
    def from_scorer(cls, x: DocumentSet, scorer: PairwiseScorer) -> "PairwiseGainState":
        return cls(_sigma_matrix(x, scorer.sig), scorer.lam)

    def gains(self, ids) -> np.ndarray:
        return self.total_row[ids] - (2.0 + 2.0 * self.lam) * self.sel[ids]

    def __call__(self, summary, k: int) -> float:
        return float(self.gains([k])[0])

    def commit(self, k: int) -> None:
        self.sel += self.m[k]


class SplitGainState:
    def __init__(self, mc, mr):
        self.mc = mc
        self.mr = mr
        self.total_row = mc.sum(axis=0)
        self.sel_cross = np.zeros(mc.shape[0])
        self.sel_red = np.zeros(mc.shape[0])

    @classmethod
    def from_scorer(cls, x: DocumentSet, scorer: SplitPairwiseScorer) -> "SplitGainState":
        return cls(_sigma_matrix(x, scorer.sig_cross), _sigma_matrix(x, scorer.sig_red))

    def gains(self, ids) -> np.ndarray:
        return self.total_row[ids] - 2.0 * self.sel_cross[ids] + 2.0 * self.sel_red[ids]

    def __call__(self, summary, k: int) -> float:
        return float(self.gains([k])[0])

    def commit(self, k: int) -> None:
        self.sel_cross += self.mc[k]
        self.sel_red += self.mr[k]


def pad_word_ids(word_ids, pad: int) -> np.ndarray:
    """Matrix whose row k holds ``word_ids[k]`` left-aligned, then ``pad``."""
    width = max((len(ws) for ws in word_ids), default=0)
    padded = np.full((len(word_ids), width), pad, dtype=np.intp)
    for row, ws in zip(padded, word_ids):
        row[: len(ws)] = ws
    return padded


class CoverageGainState:
    """Coverage gains over word indices.

    ``word_ids[k]`` lists sentence k's distinct word indices in ascending
    order and ``values[v]`` is word v's value. A gain adds the values of
    the sentence's uncovered words left to right, one column of a padded
    index matrix at a time, so every candidate sums in the same order as
    a scalar loop over its words. ``word_ids`` may also be that padded
    matrix itself (``pad_word_ids(word_ids, len(values))``), which is then
    shared, not copied: only the values change.
    """

    def __init__(self, word_ids, values):
        # the last entry is a zero that padding points at; a commit zeroes
        # the value of every word it covers
        self.values = np.append(np.asarray(values, dtype=float), 0.0)
        if isinstance(word_ids, np.ndarray):
            self.padded = word_ids
        else:
            self.padded = pad_word_ids(word_ids, len(self.values) - 1)

    @classmethod
    def from_scorer(cls, x: DocumentSet, scorer: CoverageScorer) -> "CoverageGainState":
        words = sorted({t.normalized for s in x.sentences for t in s.tokens})
        index = {w: v for v, w in enumerate(words)}
        word_ids = [sorted({index[t.normalized] for t in s.tokens}) for s in x.sentences]
        return cls(word_ids, [scorer.value(w) for w in words])

    def gains(self, ids) -> np.ndarray:
        out = np.zeros(len(ids))
        for column in self.padded[ids].T:
            out += self.values[column]
        return out

    def __call__(self, summary, k: int) -> float:
        return float(self.gains([k])[0])

    def commit(self, k: int) -> None:
        self.values[self.padded[k]] = 0.0


def gain_state(x: DocumentSet, scorer):
    if isinstance(scorer, PairwiseScorer):
        return PairwiseGainState.from_scorer(x, scorer)
    if isinstance(scorer, SplitPairwiseScorer):
        return SplitGainState.from_scorer(x, scorer)
    if isinstance(scorer, CoverageScorer):
        return CoverageGainState.from_scorer(x, scorer)
    raise TypeError(f"cannot build gain state for {type(scorer).__name__}")
