"""Unigram F scoring, training losses and the greedy ROUGE target.

The score is clipped-unigram F: per reference, overlap is the sum over
words of min(candidate count, reference count); precision and recall
divide by the candidate and reference totals and F is their harmonic mean,
which reduces to 2 * overlap / (candidate_total + reference_total). Against
several references the score is the mean of the per-reference F.

``RougeGain`` is the one implementation: int64 count arrays of every
sentence and reference, built once per set, from which the greedy's gains,
the training losses and F and every evaluation number are read.

The raw training loss of a candidate is 1 - F. Because no
extractive summary reaches F = 1 in general, the loss used for training is
normalized against the best extractive target found by the greedy
algorithm (``greedy_target``, which ``PreparedSet.with_target`` calls once
per training set): loss(y) = max(0, raw(y) - raw(target)), making the
target itself a zero-loss label.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .corpus import DocumentSet, ReferenceSet, Token
from .greedy import GreedyConfig, greedy_maximize
from .scoring import GainState, Summary
from .util import json_value, quoted

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossConfig:
    rouge_stopword_removal: bool = False

    def to_dict(self) -> dict:
        # the mean of per-reference F is the one aggregation, written for the record
        return {"multi_ref_aggregation": "mean-f", **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "LossConfig":
        # a legacy "per-ref-loss", the mean of 1 - F_r, is the same loss as 1 - mean F
        mode = json_value(d, "multi_ref_aggregation", str)
        if mode not in ("mean-f", "per-ref-loss"):
            raise ValueError(f"multi_ref_aggregation must be mean-f, not {quoted(mode)}")
        return cls(rouge_stopword_removal=json_value(d, "rouge_stopword_removal", bool))


def f_score(overlap: int, candidate_total: int, reference_total: int) -> float:
    denom = candidate_total + reference_total
    if denom == 0:
        return 0.0
    return 2.0 * overlap / denom


class RougeGain(GainState):
    """Incremental aggregated-F gains for one greedy run, and the F and raw
    loss of a candidate.

    Holds int64 term counts of every sentence and of each reference over
    the reference vocabulary, each reference's ``room`` (its counts minus
    the candidate's clipped counts), the candidate's token total and its
    per-reference clipped overlaps. Merging sentence counts ``a`` adds
    ``sum(min(a, room))`` to a reference's overlap, for all references in
    one array op. ``gains(ids)`` merges each candidate sentence without
    mutating state; the overlap increments are exact integers, and F is
    summed reference by reference by one ``np.add.accumulate``, in the order
    of ``current_f``'s loop.
    """

    def __init__(self, x: DocumentSet, Y: ReferenceSet, cfg: LossConfig):
        if not Y.references:
            raise ValueError(f"reference set {Y.set_id!r} has no references to score against")
        self.cfg = cfg
        refs = [_kept_words(r, cfg) for r in Y.references]
        index = {w: v for v, w in enumerate(sorted({w for ref in refs for w in ref}))}
        sentences = [_kept_words(s.tokens, cfg) for s in x.sentences]
        self.ref_totals = [len(ref) for ref in refs]
        self.ref_counts = _count_rows([[index[w] for w in ref] for ref in refs], len(index))
        self.sentence_totals = np.array([len(s) for s in sentences], dtype=np.int64)
        self.sentence_counts = _count_rows(
            [[index[w] for w in s if w in index] for s in sentences], len(index)
        )
        self.reset()

    def load(self, ids) -> "RougeGain":
        """Make the candidate exactly the sentences ``ids``; returns self."""
        ids = list(ids)
        take = np.minimum(self.sentence_counts[ids].sum(axis=0), self.ref_counts)
        self.room = self.ref_counts - take
        self.overlaps = take.sum(axis=-1).tolist()
        self.cand_total = int(self.sentence_totals[ids].sum())
        return self

    def reset(self) -> "RougeGain":
        """Empty the candidate, keeping the count arrays; returns self."""
        return self.load(())

    def current_f(self) -> float:
        total = 0.0
        for o, ref_total in zip(self.overlaps, self.ref_totals):
            total += f_score(o, self.cand_total, ref_total)
        return total / len(self.ref_totals)

    def prf(self) -> tuple[float, float, float]:
        """Mean per-reference precision, recall and F of the candidate."""
        ps = rs = fs = 0.0
        for o, ref_total in zip(self.overlaps, self.ref_totals):
            ps += o / self.cand_total if self.cand_total else 0.0
            rs += o / ref_total if ref_total else 0.0
            fs += f_score(o, self.cand_total, ref_total)
        n = len(self.ref_totals)
        return ps / n, rs / n, fs / n

    def raw_loss(self) -> float:
        """1 - F, never negative: a clipped overlap exceeds neither token
        total, so each per-reference F, and under rounding their mean, is at
        most 1."""
        return 1.0 - self.current_f()

    def merged_f(self, ids) -> np.ndarray:
        """Aggregated F of the candidate plus each sentence in ``ids``."""
        extra = np.minimum(self.sentence_counts[ids][:, None, :], self.room).sum(axis=-1)
        overlap = 2.0 * (extra + self.overlaps)
        denom = (self.cand_total + self.sentence_totals[ids])[:, None] + self.ref_totals
        f = np.divide(overlap, denom, out=np.zeros(overlap.shape), where=denom != 0)
        # F >= 0, so adding from the first reference is the loop from +0.0
        return np.add.accumulate(f, axis=1)[:, -1] / len(self.ref_totals)

    def gains(self, ids) -> np.ndarray:
        return self.merged_f(ids) - self.current_f()

    def commit(self, k: int) -> None:
        take = np.minimum(self.sentence_counts[k], self.room)
        self.room -= take
        self.overlaps = [o + e for o, e in zip(self.overlaps, take.sum(axis=-1).tolist())]
        self.cand_total += int(self.sentence_totals[k])


def _kept_words(tokens: Iterable[Token], cfg: LossConfig) -> list[str]:
    drop = cfg.rouge_stopword_removal
    return [t.normalized for t in tokens if not (drop and t.is_stopword)]


def _count_rows(rows: list[list[int]], width: int) -> np.ndarray:
    """int64 matrix whose row r counts the ids in ``rows[r]``; one bincount."""
    owner = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    ids = np.fromiter((i for r in rows for i in r), dtype=np.int64, count=len(owner))
    counts = np.bincount(owner * width + ids, minlength=len(rows) * width)
    return counts.astype(np.int64, copy=False).reshape(len(rows), width)


def greedy_target(x: DocumentSet, gain: RougeGain, greedy_cfg: GreedyConfig) -> Summary:
    """The greedy's summary on ``gain`` (which must be empty), warning if it is empty."""
    target = greedy_maximize(x, gain, cfg=greedy_cfg)
    if not target.selected:
        logger.warning("target for set %s is empty (its budget admits no sentence; the "
                       "shortest is %d bytes)", x.set_id, x.costs.min())
    return target
