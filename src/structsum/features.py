"""Features over sentence pairs and covered words.

Feature construction is organized by word groups. A word group is a
predicate on a word's statistics within one document set (never on the
candidate summary):

* ``basic``         every word.
* ``cap_stop_len``  variants: words seen capitalized somewhere in the set
                    (``cap``), non-stopwords (``nonstop``), and words of at
                    least a cutoff length (``lenNN``).
* ``minmax``        words among the top-k most frequent in the set, one
                    variant per configured k.
* ``sent_doc``      words whose sentence-fraction or document-fraction
                    meets a threshold (``sfQ`` / ``dfQ`` variants).
* ``location``      positional information. For pairwise models it attaches
                    to sentences (bin of position_in_doc); for the coverage
                    model it attaches to words (bin of the earliest
                    position_in_doc at which the word occurs).

Pairwise features for a sentence pair are, per (group variant, weighting
scheme), the cosine similarity of the two sentences restricted to the
group's words, plus an indicator for the bin the similarity falls in.
Weighting is raw counts or tf-idf with idf(v) = ln((D+1)/(df(v)+1)) + 1
computed within the document set. Binned indicators only fire for strictly
positive similarities, so a disjoint-vocabulary pair has all-zero features.

Coverage features for a word are indicators per (coverage level, group
containing the word), a bucketed sentence-fraction importance indicator per
group, and the positional bin. A coverage level (a, b) fires when some
sentence of the set contains the word at least a times and the word occurs
in at least fraction b of the sentences.

The registry assigns indices by sorting feature names, so a configuration
always yields the same index layout. ``FeatureBank`` computes all of the
above for one document set as arrays (see docs/features.md),
``bank_for`` shares the last bank built across calls, and ``tfidf_cosines``
reads the tf-idf baseline's matrix off that bank when it can.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .corpus import DocumentSet
from .scoring import Summary
from .util import json_value

GROUPS = ("basic", "cap_stop_len", "location", "minmax", "sent_doc")
WEIGHTINGS = ("raw", "tfidf")


@dataclass(frozen=True)
class FeatureConfig:
    enabled_groups: tuple[str, ...] = GROUPS
    weightings: tuple[str, ...] = WEIGHTINGS
    length_cutoffs: tuple[int, ...] = (4, 7)
    minmax_top_ks: tuple[int, ...] = (10, 50, 100)
    sent_frac_thresholds: tuple[float, ...] = (0.05, 0.1)
    doc_frac_thresholds: tuple[float, ...] = (0.5, 1.0)
    similarity_bins: int = 10
    # position bins {0, 1, 2, 3-5, 6+}: bin(p) = #edges <= p
    position_bin_edges: tuple[int, ...] = (1, 2, 3, 6)
    coverage_levels: tuple[tuple[int, float], ...] = (
        (1, 0.0), (1, 0.05), (1, 0.1), (2, 0.0), (2, 0.05), (2, 0.1),
    )
    importance_bucket_edges: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5)

    def __post_init__(self):
        unknown = set(self.enabled_groups) - set(GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        if not self.enabled_groups:
            raise ValueError("enabled_groups must not be empty")
        bad = set(self.weightings) - set(WEIGHTINGS)
        if bad:
            raise ValueError(f"unknown weighting schemes: {sorted(bad)}")
        for t in self.length_cutoffs + self.minmax_top_ks:
            if t <= 0:
                raise ValueError("thresholds must be strictly positive")
        for t in self.sent_frac_thresholds + self.doc_frac_thresholds:
            if t <= 0:
                raise ValueError("fraction thresholds must be strictly positive")
        if self.similarity_bins < 1:
            raise ValueError("similarity_bins must be >= 1")
        edges = self.position_bin_edges
        if list(edges) != sorted(set(edges)) or (edges and edges[0] <= 0):
            raise ValueError("position_bin_edges must be strictly increasing and positive")
        for a, b in self.coverage_levels:
            if a < 1 or b < 0 or b > 1:
                raise ValueError(f"bad coverage level ({a}, {b})")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureConfig":
        return cls(
            enabled_groups=json_value(d, "enabled_groups", [str]),
            weightings=json_value(d, "weightings", [str]),
            length_cutoffs=json_value(d, "length_cutoffs", [int]),
            minmax_top_ks=json_value(d, "minmax_top_ks", [int]),
            sent_frac_thresholds=json_value(d, "sent_frac_thresholds", [float]),
            doc_frac_thresholds=json_value(d, "doc_frac_thresholds", [float]),
            similarity_bins=json_value(d, "similarity_bins", int),
            position_bin_edges=json_value(d, "position_bin_edges", [int]),
            coverage_levels=json_value(d, "coverage_levels", [(int, float)]),
            importance_bucket_edges=json_value(d, "importance_bucket_edges", [float]),
        )

    def without_group(self, group: str) -> "FeatureConfig":
        if group not in GROUPS:
            raise ValueError(f"unknown feature group {group!r}; valid: {list(GROUPS)}")
        kept = tuple(g for g in self.enabled_groups if g != group)
        return replace(self, enabled_groups=kept)

    @property
    def num_position_bins(self) -> int:
        return len(self.position_bin_edges) + 1


@dataclass(frozen=True)
class WordGroup:
    """One membership predicate; ``variant`` names it inside its group."""

    group_id: str
    variant: str
    kind: str
    threshold: float = 0.0


@lru_cache(maxsize=64)
def cosine_groups(cfg: FeatureConfig) -> tuple[WordGroup, ...]:
    """The word-membership group variants, sorted by (group, variant)."""
    out: list[WordGroup] = []
    if "basic" in cfg.enabled_groups:
        out.append(WordGroup("basic", "all", "all"))
    if "cap_stop_len" in cfg.enabled_groups:
        out.append(WordGroup("cap_stop_len", "cap", "cap"))
        for n in cfg.length_cutoffs:
            out.append(WordGroup("cap_stop_len", f"len{n:02d}", "minlen", n))
        out.append(WordGroup("cap_stop_len", "nonstop", "nonstop"))
    if "minmax" in cfg.enabled_groups:
        for k in cfg.minmax_top_ks:
            out.append(WordGroup("minmax", f"top{k:03d}", "topk", k))
    if "sent_doc" in cfg.enabled_groups:
        for q in cfg.doc_frac_thresholds:
            out.append(WordGroup("sent_doc", f"df{q:.2f}", "docfrac", q))
        for q in cfg.sent_frac_thresholds:
            out.append(WordGroup("sent_doc", f"sf{q:.2f}", "sentfrac", q))
    return tuple(sorted(out, key=lambda g: (g.group_id, g.variant)))


class FeatureRegistry:
    """Deterministic feature-name-to-index assignment for one model kind."""

    def __init__(self, cfg: FeatureConfig, model_kind: str):
        if model_kind not in ("pairwise", "pairwise-split", "coverage"):
            raise ValueError(f"unknown model kind {model_kind!r}")
        self.cfg = cfg
        self.model_kind = model_kind
        if model_kind == "coverage":
            base = _coverage_names(cfg)
        else:
            base = _pairwise_names(cfg)
        self.base_names = tuple(sorted(base))
        self.base_dimension = len(self.base_names)
        if model_kind == "pairwise-split":
            # sorted() keeps the cross block before the redundancy block
            names = [f"cross:{n}" for n in self.base_names]
            names += [f"red:{n}" for n in self.base_names]
        else:
            names = list(self.base_names)
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.dimension = len(self.names)


def _pairwise_names(cfg: FeatureConfig) -> list[str]:
    names: list[str] = []
    for g in cosine_groups(cfg):
        for scheme in sorted(cfg.weightings):
            names.append(f"pair:cos:{g.group_id}:{g.variant}:{scheme}")
            for b in range(cfg.similarity_bins):
                names.append(f"pair:bin:{g.group_id}:{g.variant}:{scheme}:{b:02d}")
    if "location" in cfg.enabled_groups:
        nb = cfg.num_position_bins
        for b1 in range(nb):
            for b2 in range(b1, nb):
                names.append(f"pair:loc:{b1}:{b2}")
    return names


def _coverage_names(cfg: FeatureConfig) -> list[str]:
    names: list[str] = []
    for g in cosine_groups(cfg):
        for a, b in sorted(cfg.coverage_levels):
            names.append(f"cov:lvl:{g.group_id}:{g.variant}:a{a}b{b:.2f}")
        for qi in range(len(cfg.importance_bucket_edges) + 1):
            names.append(f"cov:imp:{g.group_id}:{g.variant}:q{qi}")
    if "location" in cfg.enabled_groups:
        for b in range(cfg.num_position_bins):
            names.append(f"cov:loc:bin{b}")
    return names


def _position_bins(cfg: FeatureConfig, positions) -> np.ndarray:
    """The position bin of every position p: the number of edges <= p."""
    edges = np.array(cfg.position_bin_edges, dtype=np.intp)
    return np.searchsorted(edges, positions, side="right")


@lru_cache(maxsize=64)
def registry_for(cfg: FeatureConfig, model_kind: str) -> FeatureRegistry:
    return FeatureRegistry(cfg, model_kind)


class FeatureBank:
    """Every feature of one document set as arrays, built once per set.

    Holds the sorted vocabulary ``words``, the n x V term-count matrix (one
    bincount over the tokens' word indices), the word statistics that idf,
    the groups and the coverage features read, derived from the two as
    arrays in ``words`` order, idf and one boolean vocabulary mask per group
    variant. The pairwise stacks (``cosines``, ``codes``) and the coverage
    ``word_features`` matrix are built on first use. sigma(w), omega(w),
    psi(y), phi(i, j) and phi(v) are all linear read-outs of these arrays;
    the last three are dense vectors in registry index order.
    """

    def __init__(self, x: DocumentSet, cfg: FeatureConfig):
        self.x = x
        self.cfg = cfg
        self.groups = cosine_groups(cfg)
        normalized = [t.normalized for s in x.sentences for t in s.tokens]
        self.words = sorted(set(normalized))
        self.word_index = dict(zip(self.words, range(len(self.words))))
        n, nv, d = x.num_sentences, len(self.words), x.num_docs
        rows = np.repeat(np.arange(n), [len(s.tokens) for s in x.sentences])
        cols = np.fromiter(map(self.word_index.__getitem__, normalized), np.intp, len(normalized))
        cells = rows * nv + cols
        # float weights make bincount return the float matrix without a copy
        self.counts = np.bincount(
            cells, weights=np.ones(len(cells)), minlength=n * nv
        ).reshape(n, nv)
        # each occupied cell, that is each (sentence, word) pair, once
        # (np.unique, without an overhead that dominates at this size)
        pairs = np.sort(cells)
        pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
        # sorted, so each sentence's words are one ascending run
        self._pairs = pairs
        pair_rows, pair_cols = np.divmod(pairs, nv)
        self.sentence_freq = np.bincount(pair_cols, minlength=nv)
        max_in_sentence = np.zeros(nv)
        np.maximum.at(max_in_sentence, pair_cols, self.counts.ravel()[pairs])
        self.max_in_sentence = max_in_sentence.astype(np.intp)
        position = np.array([s.position_in_doc for s in x.sentences])
        self.earliest_position = np.full(nv, position.max())
        np.minimum.at(self.earliest_position, pair_cols, position[pair_rows])
        doc_id = np.array([s.doc_id for s in x.sentences])
        in_doc = np.zeros((doc_id.max() + 1, nv), dtype=bool)
        in_doc[doc_id[pair_rows], pair_cols] = True
        self.doc_freq = np.count_nonzero(in_doc, axis=0)
        idf_of_df = [math.log((d + 1) / (df + 1)) + 1.0 for df in range(d + 1)]
        self.idf = np.array(idf_of_df)[self.doc_freq]
        # words are sorted, so a stable sort of the counts breaks ties alphabetically
        by_count = np.argsort(-np.bincount(cols, minlength=nv), kind="stable")
        length = np.fromiter(map(len, self.words), np.intp, nv)
        self.masks = np.zeros((len(self.groups), nv), dtype=bool)
        for mask, g in zip(self.masks, self.groups):
            if g.kind == "all":
                mask[:] = True
            elif g.kind == "cap":
                # one capitalized token makes its word capitalized
                capitalized = {
                    t.normalized for s in x.sentences for t in s.tokens if t.is_capitalized
                }
                mask[[self.word_index[w] for w in capitalized]] = True
            elif g.kind == "nonstop":
                stopwords = {t.normalized for s in x.sentences for t in s.tokens if t.is_stopword}
                mask[:] = True
                mask[[self.word_index[w] for w in stopwords]] = False
            elif g.kind == "minlen":
                mask[:] = length >= int(g.threshold)
            elif g.kind == "topk":
                mask[by_count[:int(g.threshold)]] = True
            elif g.kind == "sentfrac":
                mask[:] = self.sentence_freq / n >= g.threshold
            elif g.kind == "docfrac":
                mask[:] = self.doc_freq / d >= g.threshold
        # one cosine layer per (group variant, scheme), in registry order
        self._stems = [
            f"{g.group_id}:{g.variant}:{sc}" for g in self.groups for sc in sorted(cfg.weightings)
        ]

    def _word_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (sentence, word) pairs as sentence and word indices, and each
        sentence's number of distinct words."""
        rows, cols = np.divmod(self._pairs, len(self.words))
        return rows, cols, np.bincount(rows, minlength=self.x.num_sentences)

    @cached_property
    def sentence_word_ids(self) -> list[np.ndarray]:
        """Each sentence's distinct word indices, ascending (so its words sorted)."""
        _, cols, lengths = self._word_runs()
        return np.split(cols, np.cumsum(lengths)[:-1])

    @cached_property
    def padded_word_ids(self) -> np.ndarray:
        """The index matrix every coverage gain state of this set shares:
        row k holds ``sentence_word_ids[k]`` left-aligned, then the
        vocabulary size."""
        rows, cols, lengths = self._word_runs()
        padded = np.full((len(lengths), lengths.max(initial=0)), len(self.words), dtype=np.intp)
        padded[rows, np.arange(len(cols)) - (np.cumsum(lengths) - lengths)[rows]] = cols
        return padded

    @cached_property
    def cosines(self) -> np.ndarray:
        """K x n x n cosines, one layer per stem; the diagonal is zero."""
        n = self.x.num_sentences
        out = np.zeros((len(self._stems), n, n))
        layers = iter(out)
        # raw dot products sum products of word counts, integers that stay
        # exact in float64 in any order while sentences have under 2**26
        # tokens; so a raw layer may take the all-words dot minus that of
        # its complement, the same bits, when the complement is smaller
        exact = max((len(s.tokens) for s in self.x.sentences), default=0) < 2**26
        all_raw = None
        for mask in self.masks:
            counts = self.counts[:, mask]
            for scheme, cos in zip(sorted(self.cfg.weightings), layers):
                if scheme == "tfidf":
                    v = counts * self.idf[mask]
                    dot = v @ v.T
                elif all_raw is not None and 2 * np.count_nonzero(mask) > len(mask):
                    rest = self.counts[:, ~mask]
                    dot = all_raw - rest @ rest.T
                else:
                    dot = counts @ counts.T
                    if exact and mask.all():
                        all_raw = dot
                norm_sq = np.diag(dot).copy()
                # one sqrt of the product keeps rational cosines such as
                # 1/sqrt(2*2) exact at bin edges
                denom = np.sqrt(np.outer(norm_sq, norm_sq))
                np.divide(dot, denom, out=cos, where=denom > 0.0)
                np.fill_diagonal(cos, 0.0)
        return out

    @cached_property
    def _cos_index(self) -> np.ndarray:
        reg = registry_for(self.cfg, "pairwise")
        return np.array([reg.index[f"pair:cos:{stem}"] for stem in self._stems], dtype=np.intp)

    @cached_property
    def codes(self) -> np.ndarray:
        """Indicator layers holding the pairwise-registry index of the feature
        firing at (i, j): the similarity bin of each cosine layer, then the
        location pair. Where none fires (zero cosine, the diagonal) the entry
        is the registry dimension, one past the last feature."""
        cfg, reg = self.cfg, registry_for(self.cfg, "pairwise")
        n, nbins = self.x.num_sentences, cfg.similarity_bins
        location = "location" in cfg.enabled_groups
        dtype = np.min_scalar_type(reg.dimension)
        out = np.empty((len(self._stems) + location, n, n), dtype=dtype)
        for layer, stem, cos in zip(out, self._stems, self.cosines):
            # bin b's feature is the b-th of the stem's contiguous bin block
            base = reg.index[f"pair:bin:{stem}:00"]
            block = [f"pair:bin:{stem}:{b:02d}" for b in range(nbins)]
            if list(reg.names[base:base + nbins]) != block:
                raise ValueError(f"similarity bins of {stem} are not contiguous in the registry")
            b = np.minimum((cos * nbins).astype(np.intp), nbins - 1)
            layer[:] = np.where(cos > 0.0, base + b, reg.dimension)
        if location:
            nb = range(cfg.num_position_bins)
            index = np.array([[reg.index[f"pair:loc:{min(a, b)}:{max(a, b)}"] for b in nb]
                              for a in nb])
            pb = _position_bins(cfg, [s.position_in_doc for s in self.x.sentences])
            out[-1] = index[pb[:, None], pb[None, :]]
            np.fill_diagonal(out[-1], reg.dimension)
        return out

    def sigma(self, w: np.ndarray) -> np.ndarray:
        """n x n learned similarity w . phi(i, j) for pairwise-registry
        weights w; zero diagonal."""
        values = np.append(w, 0.0)
        codes = self.codes
        # one flat take per layer, in order, never a K x n x n gather
        indicators = np.zeros(codes[0].size)
        for layer in codes.reshape(len(codes), -1):
            indicators += values.take(layer)
        m = np.tensordot(w[self._cos_index], self.cosines, axes=1)
        m += indicators.reshape(m.shape)
        return m

    def _block_sum(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense sum of phi(i, j) over i in rows, j in cols, i != j."""
        dim = registry_for(self.cfg, "pairwise").dimension
        codes = self.codes[:, :, cols][:, rows].ravel().astype(np.intp)
        out = np.bincount(codes, minlength=dim + 1)[:dim]
        out = out.astype(float)
        out[self._cos_index] += self.cosines[:, :, cols][:, rows].sum(axis=(1, 2))
        return out

    def pair(self, i: int, j: int) -> np.ndarray:
        """phi(i, j) in the pairwise registry; symmetric in i and j."""
        n = self.x.num_sentences
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"bad sentence pair ({i}, {j}) for n={n}")
        return self._block_sum(np.array([i]), np.array([j]))

    def pair_psi(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Dense pair-feature sums of a selection over (outside, inside)
        pairs and over ordered inside pairs."""
        inside = np.zeros(self.x.num_sentences, dtype=bool)
        inside[list(ids)] = True
        ins = np.flatnonzero(inside)
        return self._block_sum(np.flatnonzero(~inside), ins), self._block_sum(ins, ins)

    @cached_property
    def word_features(self) -> np.ndarray:
        """V x d 0/1 matrix; row k is phi(words[k]) in the coverage registry."""
        cfg, reg = self.cfg, registry_for(self.cfg, "coverage")
        levels = sorted(cfg.coverage_levels)
        sf = self.sentence_freq / self.x.num_sentences
        edges = np.array(cfg.importance_bucket_edges, dtype=float)
        buckets = len(edges) + 1
        times = np.array([a for a, _ in levels], dtype=np.intp)
        frac = np.array([b for _, b in levels], dtype=float)
        level = (self.max_in_sentence[:, None] >= times[None, :]) & (sf[:, None] >= frac[None, :])
        bucket = (sf[:, None] >= edges[None, :]).sum(axis=1)
        importance = bucket[:, None] == np.arange(buckets)[None, :]
        per_group = np.concatenate([level, importance], axis=1)
        f = np.zeros((len(self.words), reg.dimension), dtype=bool)
        for g, mask in zip(self.groups, self.masks):
            stem = f"{g.group_id}:{g.variant}"
            cols = [reg.index[f"cov:lvl:{stem}:a{a}b{b:.2f}"] for a, b in levels]
            cols += [reg.index[f"cov:imp:{stem}:q{q}"] for q in range(buckets)]
            f[:, cols] |= mask[:, None] & per_group
        if "location" in cfg.enabled_groups:
            loc = np.array([reg.index[f"cov:loc:bin{b}"] for b in range(cfg.num_position_bins)])
            f[np.arange(len(self.words)), loc[_position_bins(cfg, self.earliest_position)]] = True
        return f.astype(float)

    def omega(self, w: np.ndarray) -> np.ndarray:
        """Learned value w . phi(v) of every word, in ``words`` order."""
        return self.word_features @ w

    def word(self, v: str) -> np.ndarray:
        """phi(v) in the coverage registry, as a fresh array."""
        if v not in self.word_index:
            raise KeyError(f"word {v!r} not in document set {self.x.set_id!r}")
        return self.word_features[self.word_index[v]].copy()

    def coverage_psi(self, ids) -> np.ndarray:
        """Dense sum of phi(v) over the distinct words the selection covers."""
        return self.word_features[self.counts[list(ids)].any(axis=0)].sum(axis=0)


# the bank bank_for built last; its reference to bank.x keeps that set alive,
# so no other set can take its id while it sits here
_last_bank: FeatureBank | None = None


def bank_for(x: DocumentSet, cfg: FeatureConfig) -> FeatureBank:
    """The bank of ``x`` under ``cfg``, shared across calls: the last bank
    built here when it is of this very set object under an equal config,
    otherwise a new one. The previous bank is let go before the build, so
    this keeps at most one bank alive."""
    global _last_bank
    # one read of the slot, so a caller never returns a bank another
    # thread put there meanwhile
    bank = _last_bank
    if bank is None or bank.x is not x or bank.cfg != cfg:
        _last_bank = bank = None
        bank = _last_bank = FeatureBank(x, cfg)
    return bank


# the baseline's only cosine layer, tf-idf over all words; it depends on the
# set alone, so any bank whose config has it holds the same matrix
_BASELINE_CFG = FeatureConfig(enabled_groups=("basic",), weightings=("tfidf",))
_BASELINE_STEM = "basic:all:tfidf"


def tfidf_cosines(x: DocumentSet) -> np.ndarray:
    """The n x n tf-idf cosines of ``x`` over all its words. When the bank
    ``bank_for`` holds is of this set and has already built a cosine stack
    with that layer, this is a view of the layer; otherwise it is the one
    layer of a bank built through ``bank_for`` for it alone. The view is
    taken only when the baseline follows a pairwise ``predict`` on the same
    set, as when one process compares models with the baseline set by set;
    the CLI's ``summarize --baseline`` always builds the small bank."""
    bank = _last_bank
    # cached_property keeps a built stack in the instance dict
    built = bank is not None and bank.x is x and "cosines" in vars(bank)
    if built and _BASELINE_STEM in bank._stems:
        return bank.cosines[bank._stems.index(_BASELINE_STEM)]
    return bank_for(x, _BASELINE_CFG).cosines[0]


def _summary_ids(y) -> tuple[int, ...]:
    if isinstance(y, Summary):
        return y.selected
    return tuple(y)


def joint_feature_map_pairwise(bank: FeatureBank, y, lam: float, split: bool = False) -> np.ndarray:
    """Map a summary of the bank's set to feature space, in registry index order.

    Fixed-lambda form: sum of phi over (outside, inside) pairs minus lam
    times the sum over ordered inside pairs. Split form: the same two sums
    concatenated into disjoint blocks (cross block first), lam unused.
    """
    cross, red = bank.pair_psi(_summary_ids(y))
    if split:
        return np.concatenate([cross, red])
    return cross - lam * red


def joint_feature_map_coverage(bank: FeatureBank, y) -> np.ndarray:
    """Sum of word features over the distinct words the summary covers."""
    return bank.coverage_psi(_summary_ids(y))
