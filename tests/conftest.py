import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from structsum import features
from structsum.corpus import (
    ReferenceSet, build_document_set, load_dataset, load_stopwords, tokenize,
)
from structsum.features import FeatureBank, FeatureConfig
from structsum.scoring import CoverageGainState, Summary

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURE_JSONL = FIXTURE_DIR / "fixture.jsonl"
EXPECTED_RESULTS = FIXTURE_DIR / "expected_results.json"
SMALL_MODEL = FIXTURE_DIR / "model_small.json"
GOLDEN_SUMMARIES = FIXTURE_DIR / "golden_summaries.txt"
GOLDEN_BASELINE = FIXTURE_DIR / "golden_baseline.txt"


@pytest.fixture(autouse=True)
def empty_bank_slot():
    """Start every test with no shared bank (``features.bank_for``), so bank
    build counts do not depend on which test ran before."""
    features._last_bank = None


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords()


@pytest.fixture
def make_docset(stopwords):
    """Factory for small document sets out of raw document strings."""

    def _make(documents, set_id="set", budget=None, with_stopwords=True):
        sw = stopwords if with_stopwords else frozenset()
        return build_document_set(set_id, documents, sw, budget_bytes=budget)

    return _make


@pytest.fixture(scope="session")
def fixture_data(stopwords):
    return load_dataset(FIXTURE_JSONL, stopwords)


@pytest.fixture(scope="session")
def duc_data(stopwords, tmp_path_factory):
    """Three DUC-shaped sets (10 documents of 20 sentences, 4 references)
    from the benchmark's corpus generator, seed 7."""
    # the generator lives at the repository root, outside the package
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.gen import write_corpus
    return load_dataset(write_corpus(tmp_path_factory.mktemp("duc") / "duc.jsonl", "duc", 3, 7),
                        stopwords)


_WORDS = [
    "harbor", "signal", "velvet", "copper", "meadow", "lantern", "timber",
    "anchor", "ripple", "summit", "gravel", "cinder", "hollow", "marble",
    "the", "a", "of", "and", "in",
]


def random_documents(rng: random.Random, n_docs=2, sentences_per_doc=3, vocab=None):
    """Random plausible document strings; sentences start capitalized so the
    segmenter recovers them."""
    vocab = vocab or _WORDS
    docs = []
    for _ in range(n_docs):
        parts = []
        for _ in range(sentences_per_doc):
            n = rng.randint(2, 6)
            words = [rng.choice(vocab) for _ in range(n)]
            parts.append(" ".join(words).capitalize() + ".")
        docs.append(" ".join(parts))
    return docs


def with_costs(x, costs):
    """``x`` with sentence k's byte cost set to ``costs[k]``, as a new set
    (so its cost arrays are built afresh)."""
    if len(costs) != x.num_sentences:
        raise ValueError(f"{len(costs)} costs for {x.num_sentences} sentences")
    return replace(x, sentences=tuple(s._replace(cost=c) for s, c in zip(x.sentences, costs)))


def words_set(set_id, cand_words, ref_word_lists):
    """(x, Y, summary): a one-sentence set whose summary's tokens are exactly
    ``cand_words`` (an empty list selects nothing from a filler sentence) and
    whose references tokenize to ``ref_word_lists``; no stopwords."""
    x = build_document_set(set_id, [(" ".join(cand_words) or "filler").capitalize() + "."],
                           frozenset())
    refs = tuple(tuple(tokenize(" ".join(words))) for words in ref_word_lists)
    ids = (0,) if cand_words else ()
    return x, ReferenceSet(set_id, refs), Summary(ids, sum(x.sentences[i].cost for i in ids))


def random_sigma(rng: random.Random, n, low=0.0, high=1.0):
    """Symmetric similarity table as a dict keyed by ordered pairs."""
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.uniform(low, high)
            table[(i, j)] = v
            table[(j, i)] = v
    return lambda i, j: table.get((i, j), 0.0)


def sigma_matrix(n, sigma):
    """The n x n matrix of a similarity callable, zero on the diagonal."""
    return np.array([[sigma(i, j) if i != j else 0.0 for j in range(n)] for i in range(n)])


def coverage_state(x, value, bank=None):
    """The coverage gain state a model builds for x, each word w valued
    ``value(w)``."""
    bank = bank or FeatureBank(x, FeatureConfig())
    return CoverageGainState(bank.padded_word_ids, [value(w) for w in bank.words])


def committed(state, ids):
    """``state`` after committing ``ids`` in order."""
    for k in ids:
        state.commit(k)
    return state


# one verdict line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
