"""Independent brute-force reference implementations.

Everything here is written from the definitions, not from the package code:
direct nested loops, Counter arithmetic, and full subset enumeration. Unit
tests treat these as ground truth and check the optimized implementations
against them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


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


def _variants(x, cfg):
    """(group, variant, member words) for every enabled word-group variant."""
    vocab, n, d = x.vocabulary, x.num_sentences, x.num_docs
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


def _weighted(x, k, members, scheme):
    """Sentence k's term counts over the member words, times idf for tf-idf."""
    counts = Counter(t.normalized for t in x.sentences[k].tokens if t.normalized in members)
    if scheme == "raw":
        return {w: float(c) for w, c in counts.items()}
    d = x.num_docs
    idf = {w: math.log((d + 1) / (x.vocabulary[w].doc_freq + 1)) + 1.0 for w in counts}
    return {w: c * idf[w] for w, c in counts.items()}


def pair_features_brute(x, i, j, cfg):
    """phi(i, j) as a {feature name: value} dict, straight from the definitions
    in docs/features.md over the set's vocabulary statistics."""
    bins = cfg.similarity_bins
    out = {}
    for group, variant, members in _variants(x, cfg):
        for scheme in cfg.weightings:
            a, b = (_weighted(x, k, members, scheme) for k in (i, j))
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
    st = x.vocabulary[v]
    sf = st.sentence_freq / x.num_sentences
    out = {}
    for group, variant, members in _variants(x, cfg):
        if v in members:
            for a, b in cfg.coverage_levels:
                if st.max_in_sentence >= a and sf >= b:
                    out[f"cov:lvl:{group}:{variant}:a{a}b{b:.2f}"] = 1.0
            q = sum(1 for edge in cfg.importance_bucket_edges if sf >= edge)
            out[f"cov:imp:{group}:{variant}:q{q}"] = 1.0
    if "location" in cfg.enabled_groups:
        out[f"cov:loc:bin{_position_bin(cfg, st.earliest_position)}"] = 1.0
    return out
