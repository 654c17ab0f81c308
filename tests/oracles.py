"""Independent brute-force reference implementations.

Everything here is written from the definitions, not from the package code:
direct nested loops, Counter arithmetic, and full subset enumeration. Unit
tests treat these as ground truth and check the optimized implementations
against them. The exceptions are at the end: the full-scan greedy loop and
the one-candidate-at-a-time gain formulas the package used before its gains
became arrays, kept so that the array versions can be held to identical
results; the coordinate-ascent dual solver the package used before its
active-set solver, whose duals the active-set solver must match or beat;
and the per-word and per-sentence loops that built the feature bank and the
ROUGE count arrays before they were built from token-id arrays, which the
array builds must reproduce bit for bit; and, last, the dict-based ROUGE
path the package scored with before ``RougeGain`` became its only ROUGE
implementation (``UnigramCounts`` through ``loss_delta``), kept verbatim as
the slow oracle that every ``RougeGain`` read-out must equal exactly;
and the per-call ``tokenize`` and sentence loop of ``build_document_set``
(``tokenize_reference`` and ``build_document_set_reference``) the corpus
used before it interned its tokens per load, which ``load_dataset`` must
reproduce with ``==``. ``vocabulary_reference`` is the per-token loop that
filled a set's word statistics before ``FeatureBank`` derived them from its
arrays; the bank's statistics must equal it with ``==``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from structsum.corpus import (
    EDGE_PUNCTUATION,
    DatasetError,
    DocumentSet,
    ReferenceSet,
    Sentence,
    Token,
    segment_sentences,
)
from structsum.features import FeatureBank, cosine_groups, registry_for
from structsum.greedy import greedy_maximize
from structsum.rouge import LossConfig, RougeGain, f_score
from structsum.scoring import Summary


def word_counts(sentence: Sentence) -> Counter:
    """Occurrences of each normalized word in one sentence."""
    return Counter(t.normalized for t in sentence.tokens)


def rouge1_f_brute(cand_tokens, ref_token_lists):
    """Mean per-reference ROUGE-1 F via explicit precision/recall."""
    if not ref_token_lists:
        raise ValueError("need at least one reference")
    cand = Counter(cand_tokens)
    total = 0.0
    for ref_tokens in ref_token_lists:
        ref = Counter(ref_tokens)
        overlap = sum(min(cand[w], ref[w]) for w in cand)
        c_len = sum(cand.values())
        r_len = sum(ref.values())
        if overlap == 0 or c_len == 0 or r_len == 0:
            total += 0.0
            continue
        p = overlap / c_len
        r = overlap / r_len
        total += 2.0 * p * r / (p + r)
    return total / len(ref_token_lists)


def pairwise_score_brute(n, sigma_fn, lam, selected):
    """Direct double loop: cross-similarity minus lam times ordered redundancy."""
    sel = set(selected)
    total = 0.0
    for i in range(n):
        if i in sel:
            continue
        for j in sel:
            total += sigma_fn(i, j)
    for i in sel:
        for j in sel:
            if i != j:
                total -= lam * sigma_fn(i, j)
    return total


def split_score_brute(n, sigma_cross_fn, sigma_red_fn, selected):
    sel = set(selected)
    total = 0.0
    for i in range(n):
        if i in sel:
            continue
        for j in sel:
            total += sigma_cross_fn(i, j)
    for i in sel:
        for j in sel:
            if i != j:
                total += sigma_red_fn(i, j)
    return total


def coverage_score_brute(sentence_words, omega_fn, selected):
    covered = set()
    for sid in selected:
        covered.update(sentence_words[sid])
    return sum(omega_fn(w) for w in covered)


def best_coverage_subset(sentence_words, omega_fn, costs, budget):
    """Enumerate every subset within budget; return (best_value, best_subset)."""
    n = len(sentence_words)
    best_value = 0.0
    best_subset = ()
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if sum(costs[i] for i in combo) > budget:
                continue
            value = coverage_score_brute(sentence_words, omega_fn, combo)
            if value > best_value:
                best_value, best_subset = value, combo
    return best_value, best_subset


_MAX_EXHAUSTIVE = 20


def exhaustive_maximize(x, objective, cfg):
    """Score every subset within the budget under the sentences' byte costs
    with ``objective`` (a callable from Summary to float) and return the
    best; a test-time oracle, guarded to small instances. Ties keep the
    first subset in (size, lexicographic) order, so the empty summary wins
    when everything scores zero."""
    n = x.num_sentences
    if n > _MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive search refused for n={n} > {_MAX_EXHAUSTIVE}")
    best = Summary.empty()
    best_score = float(objective(best))
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            c = sum(x.sentences[sid].cost for sid in combo)
            if c > cfg.budget_bytes:
                continue
            y = Summary(combo, c)
            s = float(objective(y))
            if s > best_score:
                best, best_score = y, s
    return best


def _variants(x, cfg, vocab):
    """(group, variant, member words) for every enabled word-group variant."""
    n, d = x.num_sentences, x.num_docs
    out = []
    if "basic" in cfg.enabled_groups:
        out.append(("basic", "all", set(vocab)))
    if "cap_stop_len" in cfg.enabled_groups:
        out.append(("cap_stop_len", "cap", {w for w, s in vocab.items() if s.ever_capitalized}))
        out.append(("cap_stop_len", "nonstop", {w for w, s in vocab.items() if not s.is_stopword}))
        for k in cfg.length_cutoffs:
            out.append(("cap_stop_len", f"len{k:02d}", {w for w in vocab if len(w) >= k}))
    if "minmax" in cfg.enabled_groups:
        ranked = sorted(vocab, key=lambda w: (-vocab[w].total_count, w))
        for k in cfg.minmax_top_ks:
            out.append(("minmax", f"top{k:03d}", set(ranked[:k])))
    if "sent_doc" in cfg.enabled_groups:
        for q in cfg.sent_frac_thresholds:
            members = {w for w, s in vocab.items() if s.sentence_freq / n >= q}
            out.append(("sent_doc", f"sf{q:.2f}", members))
        for q in cfg.doc_frac_thresholds:
            members = {w for w, s in vocab.items() if s.doc_freq / d >= q}
            out.append(("sent_doc", f"df{q:.2f}", members))
    return out


def _position_bin(cfg, p):
    return sum(1 for edge in cfg.position_bin_edges if p >= edge)


def _weighted(x, vocab, k, members, scheme):
    """Sentence k's term counts over the member words, times idf for tf-idf."""
    counts = Counter(t.normalized for t in x.sentences[k].tokens if t.normalized in members)
    if scheme == "raw":
        return {w: float(c) for w, c in counts.items()}
    d = x.num_docs
    idf = {w: math.log((d + 1) / (vocab[w].doc_freq + 1)) + 1.0 for w in counts}
    return {w: c * idf[w] for w, c in counts.items()}


def pair_features_brute(x, i, j, cfg):
    """phi(i, j) as a {feature name: value} dict, straight from the definitions
    in docs/features.md over the set's vocabulary statistics."""
    bins = cfg.similarity_bins
    vocab = vocabulary_reference(x)
    out = {}
    for group, variant, members in _variants(x, cfg, vocab):
        for scheme in cfg.weightings:
            a, b = (_weighted(x, vocab, k, members, scheme) for k in (i, j))
            na, nb = sum(v * v for v in a.values()), sum(v * v for v in b.values())
            dot = sum(v * b.get(w, 0.0) for w, v in a.items())
            cos = dot / math.sqrt(na * nb) if na and nb else 0.0
            if cos > 0.0:
                out[f"pair:cos:{group}:{variant}:{scheme}"] = cos
                b = min(int(cos * bins), bins - 1)
                out[f"pair:bin:{group}:{variant}:{scheme}:{b:02d}"] = 1.0
    if "location" in cfg.enabled_groups:
        b1, b2 = sorted(_position_bin(cfg, x.sentences[k].position_in_doc) for k in (i, j))
        out[f"pair:loc:{b1}:{b2}"] = 1.0
    return out


def word_features_brute(x, v, cfg):
    """phi(v) as a {feature name: value} dict, straight from the definitions
    in docs/features.md over the set's vocabulary statistics."""
    vocab = vocabulary_reference(x)
    st = vocab[v]
    sf = st.sentence_freq / x.num_sentences
    out = {}
    for group, variant, members in _variants(x, cfg, vocab):
        if v in members:
            for a, b in cfg.coverage_levels:
                if st.max_in_sentence >= a and sf >= b:
                    out[f"cov:lvl:{group}:{variant}:a{a}b{b:.2f}"] = 1.0
            q = sum(1 for edge in cfg.importance_bucket_edges if sf >= edge)
            out[f"cov:imp:{group}:{variant}:q{q}"] = 1.0
    if "location" in cfg.enabled_groups:
        out[f"cov:loc:bin{_position_bin(cfg, st.earliest_position)}"] = 1.0
    return out


def greedy_scan_reference(x, gain, cfg):
    """The budgeted greedy as a full scan over the sentences' byte costs:
    every round evaluates the whole pool one candidate at a time and removes
    its best, accepted or not."""
    cost = [s.cost for s in x.sentences]
    pool = list(range(x.num_sentences))
    selected: list[int] = []
    total = 0
    while pool:
        current = Summary(tuple(selected), total)
        best_id = -1
        best_ratio = 0.0
        best_gain = 0.0
        for sid in pool:
            g = gain(current, sid)
            c = cost[sid]
            if c <= 0:
                raise ValueError(f"sentence {sid} has non-positive cost {c}")
            ratio = g / c ** cfg.r
            if best_id < 0 or ratio > best_ratio:
                best_id, best_ratio, best_gain = sid, ratio, g
        if total + cost[best_id] <= cfg.budget_bytes and best_gain >= 0.0:
            selected.append(best_id)
            total += cost[best_id]
            if hasattr(gain, "commit"):
                gain.commit(best_id)
        pool.remove(best_id)
    return Summary(tuple(selected), total)


class RougeGainReference:
    """Aggregated-F gains by dict loops over each sentence's words."""

    def __init__(self, x, Y, cfg):
        self.refs = reference_counts(Y, cfg)
        self.sentence_counts = [
            UnigramCounts.from_tokens(s.tokens, drop_stopwords=cfg.rouge_stopword_removal)
            for s in x.sentences
        ]
        self.cand: dict[str, int] = {}
        self.cand_total = 0
        self.overlaps = [0] * len(self.refs)

    def current_f(self) -> float:
        total = 0.0
        for o, ref in zip(self.overlaps, self.refs):
            total += f_score(o, self.cand_total, ref.total)
        return total / len(self.refs)

    def _merged_f(self, k: int) -> float:
        add = self.sentence_counts[k]
        new_total = self.cand_total + add.total
        total = 0.0
        for o, ref in zip(self.overlaps, self.refs):
            extra = 0
            for w, c in add.counts.items():
                rc = ref.counts.get(w, 0)
                if rc:
                    have = self.cand.get(w, 0)
                    extra += min(have + c, rc) - min(have, rc)
            total += f_score(o + extra, new_total, ref.total)
        return total / len(self.refs)

    def __call__(self, k: int) -> float:
        return self._merged_f(k) - self.current_f()

    def commit(self, k: int) -> None:
        add = self.sentence_counts[k]
        for idx, ref in enumerate(self.refs):
            extra = 0
            for w, c in add.counts.items():
                rc = ref.counts.get(w, 0)
                if rc:
                    have = self.cand.get(w, 0)
                    extra += min(have + c, rc) - min(have, rc)
            self.overlaps[idx] += extra
        for w, c in add.counts.items():
            self.cand[w] = self.cand.get(w, 0) + c
        self.cand_total += add.total


class AugmentedGainReference:
    """Score gain plus the change of the target-normalized loss, one
    candidate at a time, on top of ``RougeGainReference``."""

    def __init__(self, score_gain, rouge: RougeGainReference, raw_target: float):
        self.score_gain = score_gain
        self.rouge = rouge
        self.raw_target = raw_target

    def _delta(self, f: float) -> float:
        return max(0.0, (1.0 - f) - self.raw_target)

    def __call__(self, k: int) -> float:
        sg = self.score_gain(k)
        d_now = self._delta(self.rouge.current_f())
        d_new = self._delta(self.rouge._merged_f(k))
        return sg + (d_new - d_now)

    def commit(self, k: int) -> None:
        self.score_gain.commit(k)
        self.rouge.commit(k)


class PairwiseGainReference:
    """total_row[k] - (2 + 2 lam) sel[k], or the split form
    total_row[k] - 2 sel_cross[k] + 2 sel_red[k], one candidate at a time."""

    def __init__(self, mc, lam=None, mr=None):
        self.mc, self.lam, self.mr = mc, lam, mr
        self.total_row = [float(v) for v in mc.sum(axis=0)]
        self.sel_cross = [0.0] * len(mc)
        self.sel_red = [0.0] * len(mc)

    def __call__(self, k: int) -> float:
        if self.mr is None:
            return self.total_row[k] - (2.0 + 2.0 * self.lam) * self.sel_cross[k]
        return self.total_row[k] - 2.0 * self.sel_cross[k] + 2.0 * self.sel_red[k]

    def commit(self, k: int) -> None:
        for i in range(len(self.mc)):
            self.sel_cross[i] += float(self.mc[k, i])
            if self.mr is not None:
                self.sel_red[i] += float(self.mr[k, i])


class CoverageGainReference:
    """Sum of the values of a sentence's uncovered words, taken over its
    words in sorted order."""

    def __init__(self, sentence_words, value):
        self.words = [sorted(ws) for ws in sentence_words]
        self.value = value
        self.covered: set = set()

    def __call__(self, k: int) -> float:
        return sum(self.value[w] for w in self.words[k] if w not in self.covered)

    def commit(self, k: int) -> None:
        self.covered.update(self.words[k])


class _Plane:
    """A constraint's loss and dense dpsi, with that vector's nonzero
    indices and values, over which every product with it runs."""

    def __init__(self, con):
        self.loss = con.loss
        self.delta_psi = con.delta_psi
        self.idx = np.flatnonzero(con.delta_psi)
        self.val = con.delta_psi[self.idx]

    def w_dot_delta(self, w: np.ndarray) -> float:
        return float(w[self.idx] @ self.val)


class CoordinateAscentWorkingSet:
    """The package's former dual solver: clipped coordinate ascent with
    paired transfer moves between two constraints of a capped example. Same
    alpha layout as ``WorkingSet``; each added constraint is kept as a
    ``_Plane``, and squared norms and cross products of dpsi are computed
    here from its arrays.

    Invariants kept by every update: alphas non-negative, per-example sums
    never exceed C / n, and w equals sum(alpha * dpsi) (re-accumulated after
    each solve to kill float drift).
    """

    def __init__(self, n_examples: int, C: float, dimension: int):
        if n_examples <= 0:
            raise ValueError("need at least one example")
        self.n_examples = n_examples
        self.C = C
        self.cap = C / n_examples
        self.dimension = dimension
        self.constraints: list[list] = [[] for _ in range(n_examples)]
        self.alpha: list[list[float]] = [[] for _ in range(n_examples)]
        self.w = np.zeros(dimension)
        self._cross: dict[tuple[int, int, int], float] = {}

    @property
    def total_constraints(self) -> int:
        return sum(len(c) for c in self.constraints)

    def add(self, con) -> None:
        self.constraints[con.example_index].append(_Plane(con))
        self.alpha[con.example_index].append(0.0)

    def xi(self, i: int) -> float:
        cons = self.constraints[i]
        if not cons:
            return 0.0
        worst = max(c.loss - c.w_dot_delta(self.w) for c in cons)
        return max(0.0, worst)

    def dual_objective(self) -> float:
        lin = sum(
            a * c.loss
            for cons, alphas in zip(self.constraints, self.alpha)
            for c, a in zip(cons, alphas)
        )
        return float(lin - 0.5 * (self.w @ self.w))

    def primal_objective(self) -> float:
        slack = sum(self.xi(i) for i in range(self.n_examples))
        return float(0.5 * (self.w @ self.w) + self.cap * slack)

    def _coord_step(self, i: int, c: int) -> float:
        con = self.constraints[i][c]
        alphas = self.alpha[i]
        g = con.loss - con.w_dot_delta(self.w)
        upper = self.cap - (sum(alphas) - alphas[c])
        if upper < 0.0:
            upper = 0.0
        norm_sq = float(con.val @ con.val)
        if norm_sq > 0.0:
            target = alphas[c] + g / norm_sq
        elif g > 0.0:
            target = upper
        elif g < 0.0:
            target = 0.0
        else:
            return 0.0
        new = min(max(target, 0.0), upper)
        delta = new - alphas[c]
        if delta == 0.0:
            return 0.0
        improve = g * delta - 0.5 * norm_sq * delta * delta
        if improve <= 0.0:
            return 0.0
        alphas[c] = new
        if len(con.idx):
            self.w[con.idx] += delta * con.val
        return improve

    def _cross_dot(self, i: int, c1: int, c2: int) -> float:
        key = (i, c1, c2)
        v = self._cross.get(key)
        if v is None:
            v = float(self.constraints[i][c1].delta_psi @ self.constraints[i][c2].delta_psi)
            self._cross[key] = v
        return v

    def _pair_step(self, i: int, c1: int, c2: int) -> float:
        # transfer mass between two constraints of one example, keeping the
        # per-example sum fixed (needed when the cap is active)
        con1 = self.constraints[i][c1]
        con2 = self.constraints[i][c2]
        alphas = self.alpha[i]
        g = (con1.loss - con2.loss) - (con1.w_dot_delta(self.w) - con2.w_dot_delta(self.w))
        denom = (con1.val @ con1.val) + (con2.val @ con2.val) - 2.0 * self._cross_dot(i, c1, c2)
        lo, hi = -alphas[c1], alphas[c2]
        if denom > 0.0:
            t = g / denom
        elif g > 0.0:
            t = hi
        elif g < 0.0:
            t = lo
        else:
            return 0.0
        t = min(max(t, lo), hi)
        if t == 0.0:
            return 0.0
        improve = g * t - 0.5 * max(denom, 0.0) * t * t
        if improve <= 0.0:
            return 0.0
        alphas[c1] += t
        alphas[c2] -= t
        if len(con1.idx):
            self.w[con1.idx] += t * con1.val
        if len(con2.idx):
            self.w[con2.idx] -= t * con2.val
        return improve

    def _refresh_w(self) -> None:
        self.w = np.zeros(self.dimension)
        for cons, alphas in zip(self.constraints, self.alpha):
            for con, a in zip(cons, alphas):
                if a != 0.0 and len(con.idx):
                    self.w[con.idx] += a * con.val

    def solve(self, cfg) -> float:
        """Coordinate ascent until the best single move improves the dual
        by less than qp_tol. Returns the dual objective."""
        if self.total_constraints == 0:
            raise ValueError("working set is empty")
        for _ in range(cfg.qp_max_passes):
            best = 0.0
            for i in range(self.n_examples):
                cons = self.constraints[i]
                if not cons:
                    continue
                for c in range(len(cons)):
                    best = max(best, self._coord_step(i, c))
                if len(cons) > 1 and sum(self.alpha[i]) >= self.cap * (1.0 - 1e-9):
                    for c1 in range(len(cons)):
                        for c2 in range(c1 + 1, len(cons)):
                            best = max(best, self._pair_step(i, c1, c2))
            if best < cfg.qp_tol:
                break
        self._refresh_w()
        return self.dual_objective()


def top_k_words(vocab, k: int) -> frozenset:
    """The k most frequent words of a vocabulary; ties broken alphabetically."""
    ranked = sorted(vocab.items(), key=lambda kv: (-kv[1].total_count, kv[0]))
    return frozenset(w for w, _ in ranked[:k])


def group_members(g, x, vocab) -> frozenset:
    """The words of word group ``g`` in set ``x`` (whose
    ``vocabulary_reference`` is ``vocab``), one predicate per kind."""
    if g.kind == "all":
        return frozenset(vocab)
    if g.kind == "cap":
        return frozenset(w for w, s in vocab.items() if s.ever_capitalized)
    if g.kind == "nonstop":
        return frozenset(w for w, s in vocab.items() if not s.is_stopword)
    if g.kind == "minlen":
        n = int(g.threshold)
        return frozenset(w for w in vocab if len(w) >= n)
    if g.kind == "topk":
        return top_k_words(vocab, int(g.threshold))
    if g.kind == "sentfrac":
        n = x.num_sentences
        return frozenset(
            w for w, s in vocab.items() if s.sentence_freq / n >= g.threshold
        )
    if g.kind == "docfrac":
        d = x.num_docs
        return frozenset(
            w for w, s in vocab.items() if s.doc_freq / d >= g.threshold
        )
    raise ValueError(f"unknown word group kind {g.kind!r}")


class FeatureBankReference(FeatureBank):
    """``FeatureBank`` with the package's former per-word and per-pair
    loops for the vocabulary arrays, ``codes`` and ``word_features``, and
    its former ``cosines``, one product per layer over the layer's own
    columns; the read-outs are inherited."""

    def __init__(self, x, cfg):
        self.x = x
        self.cfg = cfg
        self.groups = cosine_groups(cfg)
        self.vocab = vocabulary_reference(x)
        self.words = sorted(self.vocab)
        self.word_index = {w: k for k, w in enumerate(self.words)}
        self.counts = np.zeros((x.num_sentences, len(self.words)))
        for i, s in enumerate(x.sentences):
            for w, c in word_counts(s).items():
                self.counts[i, self.word_index[w]] = c
        d = x.num_docs
        self.idf = np.array(
            [math.log((d + 1) / (self.vocab[w].doc_freq + 1)) + 1.0 for w in self.words]
        )
        self.masks = np.zeros((len(self.groups), len(self.words)), dtype=bool)
        for mask, g in zip(self.masks, self.groups):
            members = group_members(g, x, self.vocab)
            mask[:] = [w in members for w in self.words]
        # one cosine layer per (group variant, scheme), in registry order
        self._stems = [
            f"{g.group_id}:{g.variant}:{sc}" for g in self.groups for sc in sorted(cfg.weightings)
        ]

    @cached_property
    def cosines(self) -> np.ndarray:
        n = self.x.num_sentences
        out = np.zeros((len(self._stems), n, n))
        layers = ((mask, scheme) for mask in self.masks for scheme in sorted(self.cfg.weightings))
        for cos, (mask, scheme) in zip(out, layers):
            v = self.counts[:, mask] * (self.idf[mask] if scheme == "tfidf" else 1.0)
            dot = v @ v.T
            norm_sq = np.diag(dot).copy()
            denom = np.sqrt(np.outer(norm_sq, norm_sq))
            np.divide(dot, denom, out=cos, where=denom > 0.0)
            np.fill_diagonal(cos, 0.0)
        return out

    @cached_property
    def codes(self) -> np.ndarray:
        cfg, reg = self.cfg, registry_for(self.cfg, "pairwise")
        n, nbins = self.x.num_sentences, cfg.similarity_bins
        location = "location" in cfg.enabled_groups
        dtype = np.min_scalar_type(reg.dimension)
        out = np.empty((len(self._stems) + location, n, n), dtype=dtype)
        for layer, stem, cos in zip(out, self._stems, self.cosines):
            index = np.array([reg.index[f"pair:bin:{stem}:{b:02d}"] for b in range(nbins)])
            b = np.minimum((cos * nbins).astype(np.intp), nbins - 1)
            layer[:] = np.where(cos > 0.0, index[b], reg.dimension)
        if location:
            nb = range(cfg.num_position_bins)
            index = np.array([[reg.index[f"pair:loc:{min(a, b)}:{max(a, b)}"] for b in nb]
                              for a in nb])
            pb = np.array([_position_bin(cfg, s.position_in_doc) for s in self.x.sentences])
            out[-1] = index[pb[:, None], pb[None, :]]
            np.fill_diagonal(out[-1], reg.dimension)
        return out

    @cached_property
    def word_features(self) -> np.ndarray:
        cfg, reg = self.cfg, registry_for(self.cfg, "coverage")
        stats = [self.vocab[w] for w in self.words]
        max_in = np.array([s.max_in_sentence for s in stats])
        sf = np.array([s.sentence_freq for s in stats]) / self.x.num_sentences
        edges = np.array(cfg.importance_bucket_edges, dtype=float)
        bucket = (sf[:, None] >= edges[None, :]).sum(axis=1)
        f = np.zeros((len(stats), reg.dimension), dtype=bool)
        for g, mask in zip(self.groups, self.masks):
            stem = f"{g.group_id}:{g.variant}"
            for a, b in sorted(cfg.coverage_levels):
                f[:, reg.index[f"cov:lvl:{stem}:a{a}b{b:.2f}"]] |= (
                    mask & (max_in >= a) & (sf >= b)
                )
            for q in range(len(edges) + 1):
                f[:, reg.index[f"cov:imp:{stem}:q{q}"]] |= mask & (bucket == q)
        if "location" in cfg.enabled_groups:
            loc = [reg.index[f"cov:loc:bin{_position_bin(cfg, s.earliest_position)}"]
                   for s in stats]
            f[np.arange(len(stats)), loc] = True
        return f.astype(float)


def rouge_count_arrays_reference(x, Y, cfg):
    """(reference totals, reference counts, sentence counts, sentence totals)
    of ``RougeGain``, built by the former per-sentence dict loop."""
    refs = reference_counts(Y, cfg)
    vocab = sorted({w for ref in refs for w in ref.counts})
    index = {w: v for v, w in enumerate(vocab)}
    ref_counts = np.zeros((len(refs), len(vocab)), dtype=np.int64)
    for row, ref in zip(ref_counts, refs):
        for w, c in ref.counts.items():
            row[index[w]] = c
    sentence_counts = np.zeros((x.num_sentences, len(vocab)), dtype=np.int64)
    sentence_totals = np.zeros(x.num_sentences, dtype=np.int64)
    for k, s in enumerate(x.sentences):
        counts = UnigramCounts.from_tokens(s.tokens, drop_stopwords=cfg.rouge_stopword_removal)
        sentence_totals[k] = counts.total
        for w, c in counts.counts.items():
            if w in index:
                sentence_counts[k, index[w]] = c
    return [ref.total for ref in refs], ref_counts, sentence_counts, sentence_totals


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


def precision_recall_f(
    candidate: UnigramCounts, reference: UnigramCounts
) -> tuple[float, float, float]:
    o = clipped_overlap(candidate, reference)
    p = o / candidate.total if candidate.total else 0.0
    r = o / reference.total if reference.total else 0.0
    return p, r, f_score(o, candidate.total, reference.total)


def rouge1_f(candidate: UnigramCounts, references: list[UnigramCounts]) -> float:
    """Mean per-reference F. Empty candidate scores 0 against everything."""
    if not references:
        raise ValueError("rouge1_f needs at least one reference")
    total = 0.0
    for ref in references:
        total += f_score(clipped_overlap(candidate, ref), candidate.total, ref.total)
    return total / len(references)


def rouge1_prf(
    candidate: UnigramCounts, references: list[UnigramCounts]
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

    ``mean-f`` is one minus the mean per-reference F, ``per-ref-loss`` the
    mean of the per-reference losses 1 - F_r. F never exceeds 1, so the two
    are equal as real numbers, but they round differently and can differ in
    the last bit: a summary matching one of three one-word references loses
    1 - 1/3 under ``mean-f`` and 2/3 under ``per-ref-loss``, one ulp apart.
    Both paths stay selectable, each with its own formula.
    """
    cand = summary_counts(x, y, cfg)
    refs = reference_counts(Y, cfg)
    if cfg.multi_ref_aggregation == "per-ref-loss":
        total = 0.0
        for ref in refs:
            f = f_score(clipped_overlap(cand, ref), cand.total, ref.total)
            total += max(0.0, 1.0 - f)
        return total / len(refs)
    return max(0.0, 1.0 - rouge1_f(cand, refs))


def loss_delta(
    Y: ReferenceSet, target, y_hat, x: DocumentSet, cfg: LossConfig = LossConfig()
) -> float:
    """Target-normalized loss: max(0, raw(y_hat) - raw(target))."""
    raw_hat = loss_delta_r(Y, y_hat, x, cfg)
    raw_target = loss_delta_r(Y, target, x, cfg)
    return max(0.0, raw_hat - raw_target)


def evaluate_reference(data, predictions, loss_cfg):
    """The former ``evaluate_predictions`` loop on the dict path: the rows
    and the mean precision, recall and F."""
    by_id = {x.set_id: (x, Y) for x, Y in data}
    rows = []
    ps, rs, fs = [], [], []
    for set_id in sorted(predictions):
        x, Y = by_id[set_id]
        y = predictions[set_id]
        p, r, f = rouge1_prf(summary_counts(x, y, loss_cfg), reference_counts(Y, loss_cfg))
        rows.append(
            {"set_id": set_id, "precision": p, "recall": r, "f": f, "sentences": list(y.selected)}
        )
        ps.append(p)
        rs.append(r)
        fs.append(f)
    n = len(rows)
    return rows, sum(ps) / n, sum(rs) / n, sum(fs) / n


def extractive_ceiling_reference(data, ids, greedy_cfg, loss_cfg):
    """The former ``extractive_ceiling``: the greedy's summary re-scored on
    the dict path."""
    total = 0.0
    for i in ids:
        x, Y = data[i]
        budget = x.budget_bytes if x.budget_bytes is not None else greedy_cfg.budget_bytes
        cfg = replace(greedy_cfg, budget_bytes=budget)
        gain = RougeGain(x, Y, loss_cfg)
        y = greedy_maximize(x, gain, cfg=cfg)
        _, _, f = rouge1_prf(summary_counts(x, y, loss_cfg), reference_counts(Y, loss_cfg))
        total += f
    return total / len(ids)


def human_agreement_reference(data, ids, loss_cfg):
    """The former ``human_agreement`` on the dict path."""
    values = []
    for i in ids:
        _, Y = data[i]
        if len(Y.references) < 2:
            return None
        refs = reference_counts(Y, loss_cfg)
        per_set = []
        for held_out in range(len(refs)):
            others = [r for j, r in enumerate(refs) if j != held_out]
            total = 0.0
            for other in others:
                total += f_score(
                    clipped_overlap(refs[held_out], other), refs[held_out].total, other.total
                )
            per_set.append(total / len(others))
        values.append(sum(per_set) / len(per_set))
    return sum(values) / len(values)


def tokenize_reference(raw_sentence: str, stopword_list: frozenset[str] = frozenset()) -> list[Token]:
    """Whitespace-split, strip edge punctuation, lowercase. No stemming.

    Chunks whose normalized form is empty (pure punctuation) are dropped.
    ``is_capitalized`` refers to the surface form after edge stripping.
    """
    out: list[Token] = []
    for chunk in raw_sentence.split():
        core = chunk.strip(EDGE_PUNCTUATION)
        normalized = core.lower()
        if not normalized:
            continue
        out.append(
            Token(
                surface=chunk,
                normalized=normalized,
                is_stopword=normalized in stopword_list,
                is_capitalized=core[:1].isupper(),
            )
        )
    return out


def build_document_set_reference(
    set_id: str,
    documents: list[str],
    stopwords: frozenset[str],
    budget_bytes: int | None = None,
) -> DocumentSet:
    """Segment and tokenize raw documents into a DocumentSet.

    Sentences that tokenize to nothing are dropped; ids stay contiguous but
    position_in_doc keeps the pre-drop index so positional features keep
    their meaning.
    """
    sentences: list[Sentence] = []
    num_docs = 0
    for doc_id, raw in enumerate(documents):
        if not raw or not raw.strip():
            continue
        num_docs += 1
        for pos, text in enumerate(segment_sentences(raw)):
            tokens = tokenize_reference(text, stopwords)
            if not tokens:
                continue
            sentences.append(
                Sentence(
                    id=len(sentences),
                    doc_id=doc_id,
                    position_in_doc=pos,
                    text=text,
                    tokens=tuple(tokens),
                    cost=len(text.encode("utf-8")),
                )
            )
    if not sentences:
        raise DatasetError(f"set {set_id!r} contains zero sentences")

    return DocumentSet(
        set_id=set_id,
        sentences=tuple(sentences),
        num_docs=num_docs,
        budget_bytes=budget_bytes,
    )


@dataclass
class VocabStats:
    """Per-word statistics over one document set."""

    sentence_freq: int = 0
    doc_freq: int = 0
    total_count: int = 0
    max_in_sentence: int = 0
    earliest_position: int = 10 ** 9
    ever_capitalized: bool = False
    is_stopword: bool = False


def vocabulary_reference(x: DocumentSet) -> dict[str, VocabStats]:
    """Every word of ``x`` with its statistics, in order of first occurrence,
    from one loop over the tokens of each sentence."""
    vocab: dict[str, VocabStats] = {}
    seen_in_doc: dict[str, set[int]] = {}
    for s in x.sentences:
        for t in s.tokens:
            st = vocab.get(t.normalized)
            if st is None:
                st = vocab[t.normalized] = VocabStats(is_stopword=t.is_stopword)
                seen_in_doc[t.normalized] = set()
            st.total_count += 1
            if t.is_capitalized:
                st.ever_capitalized = True
        for w, c in word_counts(s).items():
            st = vocab[w]
            st.sentence_freq += 1
            st.max_in_sentence = max(st.max_in_sentence, c)
            st.earliest_position = min(st.earliest_position, s.position_in_doc)
            seen_in_doc[w].add(s.doc_id)
    for w, docs in seen_in_doc.items():
        vocab[w].doc_freq = len(docs)
    return vocab
