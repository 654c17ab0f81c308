import math
import random
from dataclasses import replace

import numpy as np
import pytest

from structsum.corpus import build_document_set
from structsum.features import (
    GROUPS,
    FeatureConfig,
    FeatureBank,
    _position_bins,
    joint_feature_map_coverage,
    joint_feature_map_pairwise,
    registry_for,
)
from structsum.greedy import GreedyConfig, greedy_maximize
from structsum.scoring import PairwiseScorer, Summary, gain_state

from conftest import random_documents
from oracles import (
    PairwiseGainReference,
    coverage_score_brute,
    greedy_scan_reference,
    pair_features_brute,
    pairwise_score_brute,
    split_score_brute,
    vocabulary_reference,
    word_counts,
    word_features_brute,
)


class TestFeatureConfig:
    def test_defaults_roundtrip(self):
        cfg = FeatureConfig()
        assert FeatureConfig.from_dict(cfg.to_dict()) == cfg

    def test_without_group(self):
        cfg = FeatureConfig().without_group("minmax")
        assert "minmax" not in cfg.enabled_groups
        assert set(cfg.enabled_groups) < set(GROUPS)

    def test_without_unknown_group_lists_names(self):
        with pytest.raises(ValueError, match="basic"):
            FeatureConfig().without_group("nope")

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError):
            FeatureConfig(enabled_groups=("basic", "bogus"))

    def test_position_bins(self):
        cfg = FeatureConfig()
        assert _position_bins(cfg, [0, 1, 2, 3, 4, 5, 6, 40]).tolist() == [
            0, 1, 2, 3, 3, 3, 4, 4,
        ]
        assert cfg.num_position_bins == 5


class TestRegistry:
    def test_sorted_and_stable(self):
        cfg = FeatureConfig()
        reg1 = registry_for(cfg, "pairwise")
        reg2 = registry_for(cfg, "pairwise")
        assert reg1 is reg2
        names = reg1.names
        assert list(names) == sorted(names)
        assert reg1.dimension == len(names)
        assert all(reg1.index[n] == i for i, n in enumerate(names))

    def test_split_layout_doubles_base(self):
        cfg = FeatureConfig()
        base = registry_for(cfg, "pairwise")
        split = registry_for(cfg, "pairwise-split")
        assert split.dimension == 2 * base.dimension
        for i, name in enumerate(base.names):
            assert split.index["cross:" + name] == i
            assert split.index["red:" + name] == base.dimension + i

    def test_kinds_have_distinct_vocabularies(self):
        cfg = FeatureConfig()
        pair_names = registry_for(cfg, "pairwise").names
        cov_names = registry_for(cfg, "coverage").names
        assert all(n.startswith("pair:") for n in pair_names)
        assert all(n.startswith("cov:") for n in cov_names)

    def test_group_removal_shrinks(self):
        full = registry_for(FeatureConfig(), "pairwise").dimension
        less = registry_for(FeatureConfig().without_group("minmax"), "pairwise").dimension
        assert less < full


def two_doc_set(stopwords):
    return build_document_set(
        "f",
        [
            "Markets Rallied Today. The traders cheered loudly. 5 markets closed early.",
            "Rally Continued Overnight. The mood stayed bright. Traders rallied again.",
        ],
        stopwords,
    )


class TestPairwiseFeatures:
    def test_cosine_worked_example(self, make_docset):
        x = make_docset(["A b. A c."], with_stopwords=False)
        cfg = FeatureConfig(enabled_groups=("basic",), weightings=("raw",))
        fv = FeatureBank(x, cfg).pair(0, 1)
        reg = registry_for(cfg, "pairwise")
        cos_idx = reg.index["pair:cos:basic:all:raw"]
        assert fv[cos_idx] == pytest.approx(0.5)

    def test_symmetry(self, stopwords):
        x = two_doc_set(stopwords)
        cfg = FeatureConfig()
        bank = FeatureBank(x, cfg)
        for i in range(x.num_sentences):
            for j in range(i + 1, x.num_sentences):
                assert np.array_equal(bank.pair(i, j), bank.pair(j, i))

    def test_bin_fires_only_with_positive_cosine(self, make_docset):
        x = make_docset(["Alpha beta. Gamma delta."], with_stopwords=False)
        cfg = FeatureConfig(enabled_groups=("basic",), weightings=("raw",))
        reg = registry_for(cfg, "pairwise")
        fv = FeatureBank(x, cfg).pair(0, 1)
        fired = {reg.names[i] for i in np.flatnonzero(fv)}
        assert not any(n.startswith("pair:cos") or n.startswith("pair:bin") for n in fired)

    def test_exactly_one_bin_per_positive_cosine(self, make_docset):
        x = make_docset(["A b. A c."], with_stopwords=False)
        cfg = FeatureConfig(enabled_groups=("basic",), weightings=("raw",))
        reg = registry_for(cfg, "pairwise")
        fv = FeatureBank(x, cfg).pair(0, 1)
        bins = [reg.names[i] for i in np.flatnonzero(fv) if reg.names[i].startswith("pair:bin")]
        assert bins == ["pair:bin:basic:all:raw:05"]

    def test_location_indicator_always_fires(self, stopwords):
        x = two_doc_set(stopwords)
        cfg = FeatureConfig(enabled_groups=("location",))
        reg = registry_for(cfg, "pairwise")
        fv = FeatureBank(x, cfg).pair(0, 5)
        # positions 0 and 2 -> unordered bin pair (0, 2)
        want = np.zeros(reg.dimension)
        want[reg.index["pair:loc:0:2"]] = 1.0
        assert np.array_equal(fv, want)

    def test_self_pair_rejected(self, stopwords):
        x = two_doc_set(stopwords)
        bank = FeatureBank(x, FeatureConfig())
        n = x.num_sentences
        for i, j in [(1, 1), (-1, 0), (0, n)]:
            with pytest.raises(ValueError):
                bank.pair(i, j)

    def test_tfidf_uses_idf(self, make_docset):
        x = make_docset(["Same word here. Same word there."], with_stopwords=False)
        bank = FeatureBank(x, FeatureConfig(enabled_groups=("basic",)))
        d = x.num_docs
        for word, stats in vocabulary_reference(x).items():
            expected = math.log((d + 1) / (stats.doc_freq + 1)) + 1.0
            assert bank.idf[bank.word_index[word]] == pytest.approx(expected)


class TestCoverageFeatures:
    def test_summary_independent(self, stopwords):
        x = two_doc_set(stopwords)
        cfg = FeatureConfig()
        fv1 = FeatureBank(x, cfg).word("markets")
        fv2 = FeatureBank(x, cfg).word("markets")
        assert np.array_equal(fv1, fv2)

    def test_word_returns_fresh_array(self, stopwords):
        bank = FeatureBank(two_doc_set(stopwords), FeatureConfig())
        fv = bank.word("markets")
        fv[:] = -1.0
        assert np.array_equal(bank.word("markets"), bank.word_features[bank.word_index["markets"]])
        assert not np.any(bank.word_features == -1.0)

    def test_unknown_word_raises(self, stopwords):
        x = two_doc_set(stopwords)
        with pytest.raises(KeyError):
            FeatureBank(x, FeatureConfig()).word("zzzz")

    def test_coverage_level_gating(self, make_docset):
        # "twice twice" gives max_in_sentence 2; sentence fraction 1/2
        x = make_docset(["Twice twice here. Other words now."], with_stopwords=False)
        cfg = FeatureConfig(enabled_groups=("basic",), weightings=("raw",))
        reg = registry_for(cfg, "coverage")
        bank = FeatureBank(x, cfg)
        fired = {
            reg.names[i]
            for i in np.flatnonzero(bank.word("twice"))
            if reg.names[i].startswith("cov:lvl")
        }
        assert fired == {
            "cov:lvl:basic:all:a1b0.00",
            "cov:lvl:basic:all:a1b0.05",
            "cov:lvl:basic:all:a1b0.10",
            "cov:lvl:basic:all:a2b0.00",
            "cov:lvl:basic:all:a2b0.05",
            "cov:lvl:basic:all:a2b0.10",
        }
        fired_single = {
            reg.names[i]
            for i in np.flatnonzero(bank.word("other"))
            if reg.names[i].startswith("cov:lvl")
        }
        assert fired_single == {
            "cov:lvl:basic:all:a1b0.00",
            "cov:lvl:basic:all:a1b0.05",
            "cov:lvl:basic:all:a1b0.10",
        }

    def test_location_attaches_earliest_position(self, make_docset):
        x = make_docset(["First mention here. Late word kumquat."], with_stopwords=False)
        cfg = FeatureConfig(enabled_groups=("location",))
        reg = registry_for(cfg, "coverage")
        bank = FeatureBank(x, cfg)
        assert bank.word("kumquat")[reg.index["cov:loc:bin1"]] != 0.0
        assert bank.word("first")[reg.index["cov:loc:bin0"]] != 0.0

    def test_importance_bucket_from_tfidf(self, stopwords):
        x = two_doc_set(stopwords)
        cfg = FeatureConfig()
        reg = registry_for(cfg, "coverage")
        fv = FeatureBank(x, cfg).word("markets")
        buckets = [reg.names[i] for i in np.flatnonzero(fv) if ":imp:" in reg.names[i]]
        assert buckets, "expected at least one importance bucket to fire"


class TestTopK:
    def test_orders_by_count_then_word(self, make_docset):
        x = make_docset(["Pea pea pod. Yam pod bean."], with_stopwords=False)
        # counts: pea 2, pod 2, bean 1, yam 1
        bank = FeatureBank(x, FeatureConfig(enabled_groups=("minmax",), minmax_top_ks=(2, 3)))
        top = {g.variant: {w for w, m in zip(bank.words, mask) if m}
               for g, mask in zip(bank.groups, bank.masks)}
        assert top == {"top002": {"pea", "pod"}, "top003": {"pea", "pod", "bean"}}


class TestJointFeatureMap:
    def _random_w(self, rng, dim):
        return np.array([rng.uniform(-1, 1) for _ in range(dim)])

    def test_pairwise_linearity(self, stopwords):
        """w . Psi(x, y) equals the pairwise score under sigma_w."""
        rng = random.Random(7)
        cfg = FeatureConfig()
        for trial in range(20):
            docs = random_documents(rng, n_docs=2, sentences_per_doc=3)
            x = build_document_set(f"t{trial}", docs, stopwords)
            reg = registry_for(cfg, "pairwise")
            w = self._random_w(rng, reg.dimension)
            lam = rng.uniform(0.0, 5.0)
            bank = FeatureBank(x, cfg)

            def sigma(i, j):
                return bank.pair(i, j) @ w

            ids = rng.sample(range(x.num_sentences), k=rng.randint(0, x.num_sentences))
            y = Summary(tuple(ids), 0)
            psi = joint_feature_map_pairwise(bank, y, lam)
            want = pairwise_score_brute(x.num_sentences, sigma, lam, ids)
            assert psi @ w == pytest.approx(want, abs=1e-9)

    def test_split_linearity(self, stopwords):
        rng = random.Random(11)
        cfg = FeatureConfig()
        for trial in range(20):
            docs = random_documents(rng, n_docs=2, sentences_per_doc=3)
            x = build_document_set(f"s{trial}", docs, stopwords)
            base = registry_for(cfg, "pairwise")
            reg = registry_for(cfg, "pairwise-split")
            w = self._random_w(rng, reg.dimension)
            w_cross, w_red = w[: base.dimension], w[base.dimension :]
            bank = FeatureBank(x, cfg)

            def cross(i, j):
                return bank.pair(i, j) @ w_cross

            def red(i, j):
                return bank.pair(i, j) @ w_red

            ids = rng.sample(range(x.num_sentences), k=rng.randint(0, x.num_sentences))
            y = Summary(tuple(ids), 0)
            psi = joint_feature_map_pairwise(bank, y, lam=0.0, split=True)
            want = split_score_brute(x.num_sentences, cross, red, ids)
            assert psi @ w == pytest.approx(want, abs=1e-9)

    def test_coverage_linearity(self, stopwords):
        rng = random.Random(13)
        cfg = FeatureConfig()
        for trial in range(20):
            docs = random_documents(rng, n_docs=2, sentences_per_doc=3)
            x = build_document_set(f"c{trial}", docs, stopwords)
            reg = registry_for(cfg, "coverage")
            w = self._random_w(rng, reg.dimension)
            bank = FeatureBank(x, cfg)

            def omega(v):
                return bank.word(v) @ w

            ids = rng.sample(range(x.num_sentences), k=rng.randint(0, x.num_sentences))
            y = Summary(tuple(ids), 0)
            psi = joint_feature_map_coverage(bank, y)
            words = [set(word_counts(s)) for s in x.sentences]
            assert psi @ w == pytest.approx(coverage_score_brute(words, omega, ids), abs=1e-9)

    def test_empty_summary_maps_to_zero(self, stopwords):
        x = two_doc_set(stopwords)
        cfg = FeatureConfig()
        bank = FeatureBank(x, cfg)
        assert not np.any(joint_feature_map_pairwise(bank, Summary.empty(), 4.0))
        assert not np.any(joint_feature_map_coverage(bank, Summary.empty()))


class _ScanGain:
    """A one-candidate reference gain called as the full scan calls it."""

    def __init__(self, reference):
        self.reference = reference

    def __call__(self, summary, k):
        return self.reference(k)

    def commit(self, k):
        self.reference.commit(k)


def test_greedy_runs_on_feature_scorer(stopwords):
    """End-to-end: features -> scorer -> greedy stays inside the budget."""
    x = two_doc_set(stopwords)
    scorer = PairwiseScorer.tfidf_baseline(x, lam=4.0)
    y = greedy_maximize(x, gain_state(x, scorer), cfg=GreedyConfig(budget_bytes=60))
    assert y.total_cost <= 60


def test_tfidf_cosine_baseline_properties(fixture_data, stopwords):
    """The baseline's similarity matrix is exactly symmetric with a zero
    diagonal, its entries are the brute-force tf-idf cosine feature, and
    its greedy summary is the full scan's over the one-candidate gains; on
    the fixture sets and on seeded sets of 40 or more sentences."""
    rng = random.Random(29)
    big = [build_document_set(f"big{k}", random_documents(rng, 8, 6), stopwords)
           for k in range(3)]
    assert min(x.num_sentences for x in big) >= 40
    cfg = FeatureConfig(enabled_groups=("basic",), weightings=("tfidf",))
    for x in [x for x, _ in fixture_data] + big:
        scorer = PairwiseScorer.tfidf_baseline(x)
        m, n = scorer.m, x.num_sentences
        assert np.array_equal(m, m.T)
        assert not np.diagonal(m).any()
        want = np.array([[pair_features_brute(x, i, j, cfg).get("pair:cos:basic:all:tfidf", 0.0)
                          if i != j else 0.0 for j in range(n)] for i in range(n)])
        assert np.abs(m - want).max() <= 1e-12
        gcfg = GreedyConfig(budget_bytes=x.budget_bytes or 665, r=0.3)
        y = greedy_maximize(x, gain_state(x, scorer), cfg=gcfg)
        reference = _ScanGain(PairwiseGainReference(m, lam=scorer.lam))
        assert y == greedy_scan_reference(x, reference, cfg=gcfg)
        assert y.total_cost <= gcfg.budget_bytes


# every group and scheme; len20 and df1.00 come out empty on these sets, and
# sentence fractions k/n land exactly on the 0.25 and 0.5 levels and edges
BANK_CONFIGS = (
    FeatureConfig(),
    FeatureConfig(
        length_cutoffs=(4, 20), doc_frac_thresholds=(1.0,), similarity_bins=7,
        coverage_levels=((1, 0.25), (1, 0.5), (2, 0.25)), importance_bucket_edges=(0.25, 0.5),
    ),
    FeatureConfig(enabled_groups=("cap_stop_len", "location"), weightings=("tfidf",)),
    FeatureConfig(enabled_groups=("location",)),
)


def _random_bank_sets(stopwords, count, seed):
    rng = random.Random(seed)
    for trial in range(count):
        docs = random_documents(rng, n_docs=rng.randint(1, 3), sentences_per_doc=rng.randint(2, 4))
        # a stopword-only sentence has zero norm in the nonstop variant
        docs[0] += " The of and a."
        yield build_document_set(f"b{trial}", docs, stopwords)


def _oracle_dense(features: dict, reg) -> np.ndarray:
    dense = np.zeros(reg.dimension)
    for name, v in features.items():
        dense[reg.index[name]] += v
    return dense


class TestBankAgainstOracle:
    """The array bank against the brute-force extractor of tests/oracles.py."""

    @pytest.mark.parametrize("cfg", BANK_CONFIGS)
    def test_pair_features(self, cfg, stopwords):
        reg = registry_for(cfg, "pairwise")
        for x in _random_bank_sets(stopwords, 6, seed=17):
            bank = FeatureBank(x, cfg)
            for i in range(x.num_sentences):
                for j in range(i + 1, x.num_sentences):
                    fv = bank.pair(i, j)
                    got = {reg.names[k]: fv[k] for k in np.flatnonzero(fv)}
                    want = pair_features_brute(x, i, j, cfg)
                    assert got.keys() == want.keys()
                    for name, v in want.items():
                        if name.startswith("pair:cos:"):
                            assert abs(got[name] - v) <= 1e-12
                        else:
                            assert got[name] == v == 1.0

    @pytest.mark.parametrize("cfg", BANK_CONFIGS)
    def test_word_features(self, cfg, stopwords):
        reg = registry_for(cfg, "coverage")
        for x in _random_bank_sets(stopwords, 6, seed=19):
            bank = FeatureBank(x, cfg)
            for v in vocabulary_reference(x):
                fv = bank.word(v)
                got = {reg.names[k]: fv[k] for k in np.flatnonzero(fv)}
                assert got == word_features_brute(x, v, cfg)

    @pytest.mark.parametrize("cfg", BANK_CONFIGS)
    def test_sigma_and_pairwise_psi(self, cfg, stopwords):
        rng = random.Random(23)
        reg = registry_for(cfg, "pairwise")
        for x in _random_bank_sets(stopwords, 6, seed=29):
            n = x.num_sentences
            bank = FeatureBank(x, cfg)
            phi = {
                (i, j): _oracle_dense(pair_features_brute(x, i, j, cfg), reg)
                for i in range(n) for j in range(n) if i != j
            }
            w = np.array([rng.uniform(-1, 1) for _ in range(reg.dimension)])
            sigma = bank.sigma(w)
            assert np.all(np.diag(sigma) == 0.0)
            for (i, j), f in phi.items():
                assert abs(sigma[i, j] - f @ w) <= 1e-9
            inside = set(rng.sample(range(n), k=rng.randint(0, n)))
            cross = sum((f for (i, j), f in phi.items() if i not in inside and j in inside),
                        np.zeros(reg.dimension))
            red = sum((f for (i, j), f in phi.items() if i in inside and j in inside),
                      np.zeros(reg.dimension))
            lam = rng.uniform(0.0, 5.0)
            got = joint_feature_map_pairwise(bank, tuple(inside), lam)
            np.testing.assert_allclose(got, cross - lam * red, rtol=0, atol=1e-9)
            got = joint_feature_map_pairwise(bank, tuple(inside), 0.0, split=True)
            want = np.concatenate([cross, red])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cfg", BANK_CONFIGS)
    def test_omega_and_coverage_psi(self, cfg, stopwords):
        rng = random.Random(31)
        reg = registry_for(cfg, "coverage")
        for x in _random_bank_sets(stopwords, 6, seed=37):
            bank = FeatureBank(x, cfg)
            phi = {
                v: _oracle_dense(word_features_brute(x, v, cfg), reg)
                for v in vocabulary_reference(x)
            }
            w = np.array([rng.uniform(-1, 1) for _ in range(reg.dimension)])
            omega = dict(zip(bank.words, bank.omega(w)))
            for v, f in phi.items():
                assert abs(omega[v] - f @ w) <= 1e-9
            ids = rng.sample(range(x.num_sentences), k=rng.randint(0, x.num_sentences))
            covered = {t.normalized for sid in ids for t in x.sentences[sid].tokens}
            want = sum((phi[v] for v in covered), np.zeros(reg.dimension))
            got = joint_feature_map_coverage(bank, tuple(ids))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("cfg", BANK_CONFIGS)
def test_sigma_equals_gather_and_sum(cfg, fixture_data):
    """sigma adds the indicator layers one at a time; the result is bit for
    bit the K x n x n gather summed over layers, added to the cosine part."""
    rng = np.random.default_rng(41)
    reg = registry_for(cfg, "pairwise")
    for x, _ in fixture_data[:8]:
        bank = FeatureBank(x, cfg)
        for _ in range(3):
            w = rng.normal(size=reg.dimension) * 10.0 ** rng.uniform(-3, 3, size=reg.dimension)
            want = np.tensordot(w[bank._cos_index], bank.cosines, axes=1)
            want += np.append(w, 0.0)[bank.codes.astype(np.intp)].sum(axis=0)
            assert np.array_equal(bank.sigma(w), want)


@pytest.mark.parametrize("shared", range(1, 11))
def test_raw_cosine_bins_at_tenths(shared, make_docset):
    """Two ten-word sentences sharing k words have raw cosine k/10 exactly
    and land in bin k (the last bin for k = 10)."""
    words = [f"w{c}" for c in "abcdefghijklmnopqrst"]
    first = " ".join(words[:10])
    second = " ".join(words[10 - shared:20 - shared])
    x = make_docset([f"{first.capitalize()}. {second.capitalize()}."], with_stopwords=False)
    cfg = FeatureConfig(enabled_groups=("basic",), weightings=("raw",))
    reg = registry_for(cfg, "pairwise")
    fv = FeatureBank(x, cfg).pair(0, 1)
    assert fv[reg.index["pair:cos:basic:all:raw"]] == shared / 10
    assert fv[reg.index[f"pair:bin:basic:all:raw:{min(shared, 9):02d}"]] != 0.0


def test_codes_reject_bins_that_do_not_sort_in_order(make_docset):
    """codes reads bin b at the first bin's registry index plus b; past 100
    bins the names stop sorting in bin order and the build says so."""
    x = make_docset(["Alpha beta gamma. Beta gamma delta."], with_stopwords=False)
    cfg = FeatureConfig(enabled_groups=("basic",), weightings=("raw",))
    assert FeatureBank(x, replace(cfg, similarity_bins=100)).codes.shape == (1, 2, 2)
    with pytest.raises(ValueError, match="not contiguous"):
        FeatureBank(x, replace(cfg, similarity_bins=101)).codes
