"""Unigram recall/precision scoring, training losses, target construction.

The score is clipped-unigram F: per reference, overlap is the sum over
words of min(candidate count, reference count); precision and recall
divide by the candidate and reference totals and F is their harmonic mean,
which reduces to 2 * overlap / (candidate_total + reference_total). Multi
reference aggregation defaults to the mean of per-reference F.

The raw training loss of a candidate is max(0, 1 - F). Because no
extractive summary reaches F = 1 in general, the loss used for training is
normalized against the best extractive target found by the greedy
algorithm: loss(y) = max(0, raw(y) - raw(target)), making the target itself
a zero-loss label.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .corpus import DocumentSet, ReferenceSet, Token
from .greedy import GreedyConfig, greedy_maximize
from .scoring import Summary

logger = logging.getLogger(__name__)

AGGREGATIONS = ("mean-f", "per-ref-loss")


@dataclass(frozen=True)
class LossConfig:
    multi_ref_aggregation: str = "mean-f"
    rouge_stopword_removal: bool = False

    def __post_init__(self):
        if self.multi_ref_aggregation not in AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation {self.multi_ref_aggregation!r}; valid: {AGGREGATIONS}"
            )

    def to_dict(self) -> dict:
        return {
            "multi_ref_aggregation": self.multi_ref_aggregation,
            "rouge_stopword_removal": self.rouge_stopword_removal,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LossConfig":
        return cls(
            multi_ref_aggregation=d["multi_ref_aggregation"],
            rouge_stopword_removal=bool(d["rouge_stopword_removal"]),
        )


@dataclass(frozen=True)
class UnigramCounts:
    counts: Mapping[str, int]
    total: int

    @classmethod
    def from_tokens(cls, tokens: Iterable[Token], drop_stopwords: bool = False) -> "UnigramCounts":
        counts: dict[str, int] = {}
        total = 0
        for t in tokens:
            if drop_stopwords and t.is_stopword:
                continue
            counts[t.normalized] = counts.get(t.normalized, 0) + 1
            total += 1
        return cls(counts, total)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "UnigramCounts":
        counts: dict[str, int] = {}
        total = 0
        for w in words:
            counts[w] = counts.get(w, 0) + 1
            total += 1
        return cls(counts, total)


def clipped_overlap(candidate: UnigramCounts, reference: UnigramCounts) -> int:
    # iterate the smaller map
    a, b = candidate.counts, reference.counts
    if len(b) < len(a):
        a, b = b, a
    return sum(min(c, b.get(w, 0)) for w, c in a.items())


def f_score(overlap: int, candidate_total: int, reference_total: int) -> float:
    denom = candidate_total + reference_total
    if denom == 0:
        return 0.0
    return 2.0 * overlap / denom


def precision_recall_f(
    candidate: UnigramCounts, reference: UnigramCounts
) -> tuple[float, float, float]:
    o = clipped_overlap(candidate, reference)
    p = o / candidate.total if candidate.total else 0.0
    r = o / reference.total if reference.total else 0.0
    return p, r, f_score(o, candidate.total, reference.total)


def rouge1_f(
    candidate: UnigramCounts,
    references: list[UnigramCounts],
    cfg: LossConfig = LossConfig(),
) -> float:
    """Mean per-reference F. Empty candidate scores 0 against everything."""
    if not references:
        raise ValueError("rouge1_f needs at least one reference")
    total = 0.0
    for ref in references:
        total += f_score(clipped_overlap(candidate, ref), candidate.total, ref.total)
    return total / len(references)


def rouge1_prf(
    candidate: UnigramCounts,
    references: list[UnigramCounts],
    cfg: LossConfig = LossConfig(),
) -> tuple[float, float, float]:
    if not references:
        raise ValueError("rouge1_prf needs at least one reference")
    ps = rs = fs = 0.0
    for ref in references:
        p, r, f = precision_recall_f(candidate, ref)
        ps += p
        rs += r
        fs += f
    n = len(references)
    return ps / n, rs / n, fs / n


def summary_counts(x: DocumentSet, y, cfg: LossConfig = LossConfig()) -> UnigramCounts:
    ids = y.selected if isinstance(y, Summary) else tuple(y)
    tokens: list[Token] = []
    for sid in ids:
        tokens.extend(x.sentences[sid].tokens)
    return UnigramCounts.from_tokens(tokens, drop_stopwords=cfg.rouge_stopword_removal)


def reference_counts(Y: ReferenceSet, cfg: LossConfig = LossConfig()) -> list[UnigramCounts]:
    return [
        UnigramCounts.from_tokens(r, drop_stopwords=cfg.rouge_stopword_removal)
        for r in Y.references
    ]


def loss_delta_r(
    Y: ReferenceSet, y, x: DocumentSet, cfg: LossConfig = LossConfig()
) -> float:
    """Raw loss max(0, 1 - F), aggregated per the configured mode.

    The two modes coincide numerically because F never exceeds 1, but both
    code paths exist and stay selectable.
    """
    cand = summary_counts(x, y, cfg)
    refs = reference_counts(Y, cfg)
    if cfg.multi_ref_aggregation == "per-ref-loss":
        total = 0.0
        for ref in refs:
            f = f_score(clipped_overlap(cand, ref), cand.total, ref.total)
            total += max(0.0, 1.0 - f)
        return total / len(refs)
    return max(0.0, 1.0 - rouge1_f(cand, refs, cfg))


class RougeGain:
    """Incremental aggregated-F gains for one greedy run.

    Holds int64 term counts of every sentence, of each reference and of the
    growing candidate over the reference vocabulary, plus the per-reference
    clipped overlaps of the candidate. ``gains(ids)`` merges each candidate
    sentence without mutating state; the overlap increments are exact
    integers and F is summed reference by reference, as ``current_f`` does.
    """

    def __init__(self, x: DocumentSet, Y: ReferenceSet, cfg: LossConfig = LossConfig()):
        self.cfg = cfg
        self.refs = reference_counts(Y, cfg)
        vocab = sorted({w for ref in self.refs for w in ref.counts})
        index = {w: v for v, w in enumerate(vocab)}
        self.ref_counts = np.zeros((len(self.refs), len(vocab)), dtype=np.int64)
        for row, ref in zip(self.ref_counts, self.refs):
            for w, c in ref.counts.items():
                row[index[w]] = c
        self.sentence_counts = np.zeros((x.num_sentences, len(vocab)), dtype=np.int64)
        self.sentence_totals = np.zeros(x.num_sentences, dtype=np.int64)
        for k, s in enumerate(x.sentences):
            counts = UnigramCounts.from_tokens(s.tokens, drop_stopwords=cfg.rouge_stopword_removal)
            self.sentence_totals[k] = counts.total
            for w, c in counts.counts.items():
                if w in index:
                    self.sentence_counts[k, index[w]] = c
        self.reset()

    def reset(self) -> "RougeGain":
        """Empty the candidate, keeping the count arrays; returns self."""
        self.cand = np.zeros(self.ref_counts.shape[1], dtype=np.int64)
        self.cand_total = 0
        self.overlaps = [0] * len(self.refs)
        return self

    def current_f(self) -> float:
        total = 0.0
        for o, ref in zip(self.overlaps, self.refs):
            total += f_score(o, self.cand_total, ref.total)
        return total / len(self.refs)

    def _extra(self, add: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Clipped-overlap increment of merging each row of ``add``."""
        return (np.minimum(self.cand + add, ref) - np.minimum(self.cand, ref)).sum(axis=-1)

    def merged_f(self, ids) -> np.ndarray:
        """Aggregated F of the candidate plus each sentence in ``ids``."""
        add = self.sentence_counts[ids]
        new_total = self.cand_total + self.sentence_totals[ids]
        total = np.zeros(len(add))
        for o, ref, ref_row in zip(self.overlaps, self.refs, self.ref_counts):
            denom = new_total + ref.total
            overlap = 2.0 * (o + self._extra(add, ref_row))
            total += np.divide(overlap, denom, out=np.zeros(len(add)), where=denom != 0)
        return total / len(self.refs)

    def gains(self, ids) -> np.ndarray:
        return self.merged_f(ids) - self.current_f()

    def __call__(self, summary, k: int) -> float:
        return float(self.gains([k])[0])

    def commit(self, k: int) -> None:
        add = self.sentence_counts[k]
        for idx, ref_row in enumerate(self.ref_counts):
            self.overlaps[idx] += int(self._extra(add, ref_row))
        self.cand += add
        self.cand_total += int(self.sentence_totals[k])


def make_target(
    x: DocumentSet,
    Y: ReferenceSet,
    greedy_cfg: GreedyConfig,
    loss_cfg: LossConfig = LossConfig(),
) -> Summary:
    """Greedy budgeted maximization of aggregated F; stores Y.target."""
    gain = RougeGain(x, Y, loss_cfg)
    target = greedy_maximize(x, gain, cost=None, cfg=greedy_cfg)
    if not target.selected:
        logger.warning(
            "target for set %s is empty (budget %d bytes admits no sentence)",
            x.set_id,
            greedy_cfg.budget_bytes,
        )
    Y.target = target
    return target


def loss_delta(
    Y: ReferenceSet, y_hat, x: DocumentSet, cfg: LossConfig = LossConfig()
) -> float:
    """Target-normalized loss: max(0, raw(y_hat) - raw(target))."""
    if Y.target is None:
        raise ValueError(f"reference set {Y.set_id!r} has no target; run make_target first")
    raw_hat = loss_delta_r(Y, y_hat, x, cfg)
    raw_target = loss_delta_r(Y, Y.target, x, cfg)
    return max(0.0, raw_hat - raw_target)
