"""Corpus ingestion: sentence segmentation, tokenization, document sets.

A dataset is a JSON-lines file. Each line describes one document set:

    {"set_id": "d30001", "documents": ["raw text", ...],
     "references": ["manual summary", ...], "budget_bytes": 665}

``budget_bytes`` is optional; when present, ``greedy_maximize`` budgets that
set with it instead of the configured budget.

``documents`` and ``references`` must be lists of strings, set ids must be
unique within a file, and ``budget_bytes`` must be a non-negative integer.

Segmentation and tokenization are deterministic, rule based and stemming
free. The abbreviation table lives in ``structsum/data``; the rules are
summarized in the README's "Dataset format" section.

Tokens are interned per load: one ``load_dataset`` call tokenizes each
distinct whitespace chunk once, and equal chunks in all of its documents and
references share one ``Token``. Nothing is cached across calls.

``Token`` and ``Sentence`` are immutable, hashable named tuples, because a
load builds one per distinct chunk and one per sentence and a tuple is the
cheapest record to build; ``._replace`` gives a modified copy. They are
built positionally, so their field order is part of their contract.

A ``DocumentSet`` holds sentences and their tokens only, plus read-only
arrays of their byte costs and the greedy's ``cost ** r`` scales, computed
on first use (``costs``, ``cost_scales(r)``). The per-word statistics the
features read (sentence and document frequency, counts, earliest position,
capitalized and stopword flags) are derived from them as arrays by
``features.FeatureBank``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .util import json_value, quoted


class DatasetError(ValueError):
    """A dataset file violates the expected schema."""


def _wordlist(text: str) -> list[str]:
    """The stripped lines of a word list, without blank lines and # comments."""
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _packaged(name: str) -> str:
    return resources.files("structsum.data").joinpath(name).read_text("utf-8")


#: Chunks ending in a period that do not terminate a sentence.
ABBREVIATIONS: frozenset[str] = frozenset(_wordlist(_packaged("abbreviations.txt")))

# Characters stripped from both ends of a whitespace-delimited chunk before
# normalization. Interior punctuation (hyphens, periods in acronyms) stays.
EDGE_PUNCTUATION = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~“”‘’«»–—…¡¿"

_LEADING_QUOTES = "\"'([{«“‘"

# A sentence boundary is terminal punctuation followed by whitespace and an
# uppercase letter or digit.
_BOUNDARY = re.compile(r"([.!?])(\s+)(?=[A-Z0-9])")


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list, lowercased; ``None`` selects the packaged default."""
    text = _packaged("stopwords.txt") if path is None else Path(path).read_text("utf-8")
    return frozenset(w.lower() for w in _wordlist(text))


def _is_abbreviation(text: str, period_end: int) -> bool:
    # The chunk is the maximal run of non-whitespace ending at the period.
    i = period_end - 1
    while i > 0 and not text[i - 1].isspace():
        i -= 1
    chunk = text[i:period_end]
    if chunk in ABBREVIATIONS:
        return True
    return chunk.lstrip(_LEADING_QUOTES) in ABBREVIATIONS


def segment_sentences(raw_document: str) -> list[str]:
    """Split a document into sentences.

    Splits occur on ``.!?`` followed by whitespace and an uppercase letter
    or digit, unless the chunk ending at a period is in the abbreviation
    table. Text without terminal punctuation comes back as one sentence.
    Joining the output with single spaces and collapsing whitespace
    reproduces the whitespace-collapsed input.
    """
    if not raw_document.strip():
        raise ValueError("cannot segment an empty document")
    pieces: list[str] = []
    start = 0
    for m in _BOUNDARY.finditer(raw_document):
        if m.group(1) == "." and _is_abbreviation(raw_document, m.end(1)):
            continue
        pieces.append(raw_document[start:m.end(1)])
        start = m.end(2)
    pieces.append(raw_document[start:])
    return [p for p in map(str.strip, pieces) if p]


class Token(NamedTuple):
    """One whitespace chunk's surface and normalized forms, with its
    stopword and capitalization flags."""

    surface: str
    normalized: str
    is_stopword: bool
    is_capitalized: bool


class _TokenMemo(dict):
    """Chunk → its ``Token``, or ``None`` for a pure-punctuation chunk,
    tokenized on first lookup under one stopword list."""

    def __init__(self, stopwords: frozenset[str]):
        super().__init__()
        self.stopwords = stopwords

    def __missing__(self, chunk: str) -> Token | None:
        core = chunk.strip(EDGE_PUNCTUATION)
        normalized = core.lower()
        token = None
        if normalized:
            token = Token(chunk, normalized, normalized in self.stopwords, core[:1].isupper())
        self[chunk] = token
        return token

    def tokens(self, raw_sentence: str) -> tuple[Token, ...]:
        # a Token is always truthy, so filter(None, ...) drops just the Nones
        return tuple(filter(None, map(self.__getitem__, raw_sentence.split())))


def tokenize(raw_sentence: str, stopword_list: frozenset[str] = frozenset()) -> list[Token]:
    """Whitespace-split, strip edge punctuation, lowercase. No stemming.

    Chunks whose normalized form is empty (pure punctuation) are dropped.
    ``is_capitalized`` refers to the surface form after edge stripping.
    """
    return list(_TokenMemo(stopword_list).tokens(raw_sentence))


class Sentence(NamedTuple):
    """One sentence of one document, with its byte cost."""

    id: int
    doc_id: int
    position_in_doc: int
    text: str
    tokens: tuple[Token, ...]
    cost: int


@dataclass(frozen=True)
class DocumentSet:
    """All sentences of one multi-document cluster. Immutable once built;
    its cost arrays are read-only caches."""

    set_id: str
    sentences: tuple[Sentence, ...]
    num_docs: int
    budget_bytes: int | None = None

    @property
    def num_sentences(self) -> int:
        return len(self.sentences)

    @cached_property
    def costs(self) -> np.ndarray:
        """The sentences' byte costs as a read-only array, built once;
        ValueError if one is not positive."""
        costs = np.array([s.cost for s in self.sentences], dtype=int)
        bad = np.flatnonzero(costs <= 0)
        if len(bad):
            raise ValueError(f"sentence {bad[0]} has non-positive cost {costs[bad[0]]}")
        return _read_only(costs)

    def cost_scales(self, r: float) -> np.ndarray:
        """``costs ** r`` as a read-only array, built once per r with Python
        powers (numpy's may differ by an ulp across CPUs)."""
        scales = self._cost_scales.get(r)
        if scales is None:
            scales = self._cost_scales[r] = _read_only(
                np.array([c ** r for c in self.costs.tolist()], dtype=float))
        return scales

    @cached_property
    def _cost_scales(self) -> dict[float, np.ndarray]:
        # a cache, so not part of the set's value
        return {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class ReferenceSet:
    """Manual summaries for one set; its ROUGE target lives on the
    ``PreparedSet`` (``PreparedSet.with_target``)."""

    set_id: str
    references: tuple[tuple[Token, ...], ...]


def build_document_set(
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
    return _build_document_set(set_id, documents, _TokenMemo(stopwords), budget_bytes)


def _build_document_set(
    set_id: str, documents: list[str], memo: _TokenMemo, budget_bytes: int | None
) -> DocumentSet:
    sentences: list[Sentence] = []
    num_docs = 0
    for doc_id, raw in enumerate(documents):
        if not raw or not raw.strip():
            continue
        num_docs += 1
        for pos, text in enumerate(segment_sentences(raw)):
            tokens = memo.tokens(text)
            if not tokens:
                continue
            sentences.append(Sentence(len(sentences), doc_id, pos, text, tokens,
                                      len(text.encode("utf-8"))))
    if not sentences:
        raise DatasetError(f"set {quoted(set_id)} contains zero sentences")

    return DocumentSet(
        set_id=set_id,
        sentences=tuple(sentences),
        num_docs=num_docs,
        budget_bytes=budget_bytes,
    )


def load_dataset(
    path: str | Path,
    stopwords: frozenset[str] | None = None,
) -> list[tuple[DocumentSet, ReferenceSet]]:
    """Load a JSON-lines dataset. See the module docstring for the schema."""
    if stopwords is None:
        stopwords = load_stopwords()
    memo = _TokenMemo(stopwords)  # shared by every set and reference of this load
    out: list[tuple[DocumentSet, ReferenceSet]] = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise DatasetError(f"line {lineno}: a record must be a JSON object")
            try:
                set_id = json_value(record, "set_id", str)
                documents = json_value(record, "documents", [str])
                references = json_value(record, "references", [str])
                budget = record.get("budget_bytes")
                if budget is not None and json_value(record, "budget_bytes", int) < 0:
                    raise ValueError(f"budget_bytes must be >= 0, not {quoted(budget)}")
            except KeyError as exc:
                raise DatasetError(f"line {lineno}: missing field {exc}") from exc
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: {exc}") from None
            if not references:
                raise DatasetError(f"line {lineno}: no references for set {quoted(set_id)}")
            if set_id in first_line:
                raise DatasetError(f"line {lineno}: duplicate set_id {quoted(set_id)} "
                                   f"(first on line {first_line[set_id]})")
            first_line[set_id] = lineno
            try:
                x = _build_document_set(set_id, documents, memo, budget)
            except DatasetError as exc:
                raise DatasetError(f"line {lineno}: {exc}") from None
            refs = tuple(memo.tokens(r) for r in references)
            if any(not r for r in refs):
                raise DatasetError(f"line {lineno}: empty reference for set {quoted(set_id)}")
            out.append((x, ReferenceSet(set_id=set_id, references=refs)))
    if not out:
        raise DatasetError(f"{path}: dataset is empty")
    return out
