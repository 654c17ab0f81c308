"""The token-id array builds of ``FeatureBank`` and ``RougeGain``, and every
loss, F and evaluation read-out of ``RougeGain``, against the former loops
and the dict ROUGE path kept in tests/oracles.py: bit for bit, on generated
sets."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structsum.corpus import (
    DatasetError,
    ReferenceSet,
    build_document_set,
    load_stopwords,
    tokenize,
)
from structsum.experiments import evaluate_predictions, extractive_ceiling, human_agreement
from structsum.features import FeatureBank, FeatureConfig
from structsum.greedy import GreedyConfig, greedy_maximize
from structsum.rouge import LossConfig, RougeGain
from structsum.scoring import Summary

from oracles import (
    FeatureBankReference,
    evaluate_reference,
    extractive_ceiling_reference,
    human_agreement_reference,
    loss_delta_r,
    reference_counts,
    rouge1_f,
    rouge_count_arrays_reference,
    summary_counts,
    vocabulary_reference,
)

STOPWORDS = load_stopwords()
# stopwords, words of every length around the cutoffs, few enough that
# counts tie at the top-k cut and fractions land on the thresholds
WORDS = ("the", "of", "and", "a", "ox", "pea", "bean", "maple", "lantern")

# small thresholds that generated sets hit exactly (k/n = 0.25, 0.5, 1)
TIGHT = FeatureConfig(
    length_cutoffs=(3, 5), minmax_top_ks=(1, 2, 3), sent_frac_thresholds=(0.25, 0.5),
    doc_frac_thresholds=(0.5, 1.0), similarity_bins=4, position_bin_edges=(1, 2),
    coverage_levels=((1, 0.0), (1, 0.25), (2, 0.5)), importance_bucket_edges=(0.25, 0.5),
)
CONFIGS = (FeatureConfig(), TIGHT)

word = st.tuples(st.sampled_from(WORDS), st.booleans()).map(
    lambda wc: wc[0].capitalize() if wc[1] else wc[0]
)
sentence = st.one_of(
    st.lists(word, min_size=1, max_size=6),
    st.lists(st.sampled_from(WORDS[:4]), min_size=1, max_size=3),  # stopwords only
    st.tuples(word, st.integers(2, 4)).map(lambda wk: [wk[0]] * wk[1]),  # one word repeated
)
documents = st.lists(st.lists(sentence, min_size=1, max_size=4), min_size=1, max_size=3)
references = st.lists(st.lists(word, min_size=1, max_size=8), min_size=1, max_size=3)
# DUC sets have four references; with three or more others per held-out
# reference, the order of the agreement sum shows in the last bit
many_references = st.lists(st.lists(word, min_size=1, max_size=8), min_size=1, max_size=5)


def sentence_text(words):
    text = " ".join(words)
    return text[:1].upper() + text[1:] + "."


@st.composite
def document_sets(draw, set_id="g", reference_lists=references):
    docs = [" ".join(sentence_text(s) for s in doc) for doc in draw(documents)]
    x = build_document_set(set_id, docs, STOPWORDS)
    refs = tuple(tuple(tokenize(" ".join(r), STOPWORDS)) for r in draw(reference_lists))
    return x, ReferenceSet(set_id, refs)


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(document_sets())
def test_feature_bank_matches_former_loops(xy):
    x, _ = xy
    for cfg in CONFIGS:
        got, want = FeatureBank(x, cfg), FeatureBankReference(x, cfg)
        assert got.words == want.words
        for name in ("counts", "idf", "masks", "cosines", "codes", "word_features"):
            assert same(getattr(got, name), getattr(want, name)), name


def test_feature_bank_matches_former_loops_on_fixture(fixture_data):
    """The fixture's sets are larger than the generated ones, with more
    words per mask for the cosine products to sum."""
    for x, _ in fixture_data:
        got, want = FeatureBank(x, FeatureConfig()), FeatureBankReference(x, FeatureConfig())
        for name in ("cosines", "codes"):
            assert same(getattr(got, name), getattr(want, name)), (x.set_id, name)


def assert_word_ids_are_nonzero_columns(bank):
    want = [np.flatnonzero(row) for row in bank.counts]
    got = [row[row < len(bank.words)] for row in bank.padded_word_ids]
    assert len(got) == len(want)
    assert all(same(g, w) for g, w in zip(got, want))
    padded = np.full((len(want), max(map(len, want), default=0)), len(bank.words), np.intp)
    for row, ids in zip(padded, want):
        row[:len(ids)] = ids
    assert same(bank.padded_word_ids, padded)


@settings(max_examples=150, deadline=None)
@given(document_sets())
def test_sentence_word_ids_are_the_nonzero_count_columns(xy):
    """Read off the sorted (sentence, word) pairs, each sentence's word ids
    equal its count row's nonzero columns, dtype included, and the padded
    matrix holds them left-aligned, then the vocabulary size."""
    assert_word_ids_are_nonzero_columns(FeatureBank(xy[0], FeatureConfig()))


def test_sentence_word_ids_on_fixture(fixture_data):
    for x, _ in fixture_data:
        assert_word_ids_are_nonzero_columns(FeatureBank(x, FeatureConfig()))


# a document is blank (skipped), punctuation only (counted, but without
# sentences, so the document ids of the set skip it) or sentences, some of
# which tokenize to nothing and only shift the positions after them
raw_document = st.one_of(
    st.sampled_from(["", "   ", "$$$ !!"]),
    st.lists(st.one_of(sentence.map(sentence_text), st.just("--.")), min_size=1, max_size=4)
    .map(" ".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(raw_document, min_size=1, max_size=5))
@example(["Ox pea. The ox.", "", "Pea ox bean."])  # a blank document in the middle
@example(["$$$ !!", "Ox ox pea.", "--- !!", "--. Pea bean."])  # doc ids 1 and 3
@example(["The Maple pea. The maple bean. A maple."])  # "maple" capitalized once
@example(["Lantern."])  # one sentence
def test_bank_statistics_equal_vocabulary_reference(raw_documents):
    """The bank's word statistics, derived from its token-id arrays, equal
    the per-token loop of ``vocabulary_reference``."""
    try:
        x = build_document_set("v", raw_documents, STOPWORDS)
    except DatasetError:
        return
    vocab = vocabulary_reference(x)
    for cfg in CONFIGS:
        bank = FeatureBank(x, cfg)
        assert bank.words == sorted(vocab)
        stats = [vocab[w] for w in bank.words]
        for name in ("sentence_freq", "doc_freq", "max_in_sentence", "earliest_position"):
            assert same(getattr(bank, name), np.array([getattr(s, name) for s in stats])), name
        assert same(bank.counts.sum(axis=0), np.array([float(s.total_count) for s in stats]))
        masks = {g.kind: m for g, m in zip(bank.groups, bank.masks)}
        assert list(masks["cap"]) == [s.ever_capitalized for s in stats]
        assert list(masks["nonstop"]) == [not s.is_stopword for s in stats]


@settings(max_examples=150, deadline=None)
@given(document_sets())
def test_rouge_counts_match_former_loop(xy):
    x, Y = xy
    for drop in (False, True):
        gain = RougeGain(x, Y, LossConfig(rouge_stopword_removal=drop))
        ref_totals, ref_counts, sentence_counts, sentence_totals = (
            rouge_count_arrays_reference(x, Y, LossConfig(rouge_stopword_removal=drop))
        )
        assert gain.ref_totals == ref_totals
        assert same(gain.ref_counts, ref_counts)
        assert same(gain.sentence_counts, sentence_counts)
        assert same(gain.sentence_totals, sentence_totals)


def loss_configs():
    return [LossConfig(rouge_stopword_removal=drop) for drop in (False, True)]


@settings(max_examples=150, deadline=None)
@given(document_sets(), st.data())
def test_read_outs_equal_dict_path(xy, data):
    """``load`` then ``raw_loss`` / ``current_f`` equal ``loss_delta_r`` and
    the dict F exactly, with and without stopwords; so do commits in any
    order, and the state a greedy run leaves behind."""
    x, Y = xy
    n = x.num_sentences
    ids = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    budget = data.draw(st.integers(0, 200))
    for cfg in loss_configs():
        f = rouge1_f(summary_counts(x, ids, cfg), reference_counts(Y, cfg))
        gain = RougeGain(x, Y, cfg).load(ids)
        assert gain.raw_loss() == loss_delta_r(Y, ids, x, cfg)
        assert gain.current_f() == f
        gain.reset()
        for k in ids:
            gain.commit(k)
        assert gain.raw_loss() == loss_delta_r(Y, ids, x, cfg)
        assert gain.current_f() == f
        y = greedy_maximize(x, gain.reset(), cfg=GreedyConfig(budget_bytes=budget))
        assert gain.raw_loss() == loss_delta_r(Y, y, x, cfg)


def test_read_outs_on_fixture(fixture_data):
    for x, Y in fixture_data[:10]:
        for cfg in loss_configs():
            gain = RougeGain(x, Y, cfg)
            # a copy without the set's own 66 bytes, so that 665 applies
            y = greedy_maximize(replace(x, budget_bytes=None), gain,
                                cfg=GreedyConfig(budget_bytes=665))
            assert gain.raw_loss() == loss_delta_r(Y, y, x, cfg)
            assert gain.load(y.selected).current_f() == rouge1_f(
                summary_counts(x, y, cfg), reference_counts(Y, cfg)
            )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(document_sets(f"g{i}", many_references) for i in range(n)))
), st.data())
def test_evaluation_read_outs_equal_dict_path(sets, data):
    """``evaluate_predictions`` rows and means, ``human_agreement`` and
    ``extractive_ceiling`` equal the former dict-path loops exactly, with or
    without stopwords: summaries may be empty, references differ in length
    and may hold only stopwords."""
    sets = list(sets)
    predictions = {}
    for x, _ in sets:
        n = x.num_sentences
        ids = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        predictions[x.set_id] = Summary(tuple(ids), sum(x.sentences[i].cost for i in ids))
    ids = list(range(len(sets)))
    # human agreement is None when any set has a single reference
    several = [i for i in ids if len(sets[i][1].references) > 1]
    greedy_cfg = GreedyConfig(budget_bytes=data.draw(st.integers(0, 200)))
    for drop in (False, True):
        cfg = LossConfig(rouge_stopword_removal=drop)
        report = evaluate_predictions(sets, predictions, cfg)
        rows, mean_p, mean_r, mean_f = evaluate_reference(sets, predictions, cfg)
        assert report.rows == rows
        assert (report.mean_p, report.mean_r, report.mean_f) == (mean_p, mean_r, mean_f)
        for subset in (ids, several or ids):
            assert human_agreement(sets, subset, cfg) == (
                human_agreement_reference(sets, subset, cfg)
            )
        assert extractive_ceiling(sets, ids, greedy_cfg, cfg) == (
            extractive_ceiling_reference(sets, ids, greedy_cfg, cfg)
        )
