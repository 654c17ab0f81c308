import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structsum.corpus import (
    ABBREVIATIONS,
    DatasetError,
    build_document_set,
    load_dataset,
    load_stopwords,
    segment_sentences,
    tokenize,
)
from structsum.features import FeatureBank, FeatureConfig

from conftest import FIXTURE_JSONL
from oracles import build_document_set_reference, tokenize_reference


def _group_mask(bank, kind):
    """The bank's word mask of the one group variant of ``kind``."""
    (mask,) = [m for m, g in zip(bank.masks, bank.groups) if g.kind == kind]
    return mask


class TestSegmentation:
    def test_plain_split(self):
        assert segment_sentences("The cat sat. The dog ran.") == [
            "The cat sat.",
            "The dog ran.",
        ]

    def test_abbreviation_not_a_boundary(self):
        assert segment_sentences("Dr. Smith left. He returned.") == [
            "Dr. Smith left.",
            "He returned.",
        ]

    def test_digit_starts_new_sentence(self):
        assert segment_sentences("Prices fell. 7 firms closed.") == [
            "Prices fell.",
            "7 firms closed.",
        ]

    def test_lowercase_continuation_not_split(self):
        assert segment_sentences("He said approx. two dozen left.") == [
            "He said approx. two dozen left."
        ]

    def test_question_and_exclamation(self):
        assert segment_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_no_terminal_punctuation(self):
        assert segment_sentences("No period here") == ["No period here"]

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            segment_sentences("   ")

    def test_quoted_abbreviation(self):
        text = 'She cited "Mr. Jones. Then she left.'
        # the period after the quoted abbreviation must not split
        assert segment_sentences(text)[0] == 'She cited "Mr. Jones.' or len(
            segment_sentences(text)
        ) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcZ .!?", min_size=1, max_size=60))
    def test_segments_preserve_non_space_text(self, raw):
        try:
            pieces = segment_sentences(raw)
        except ValueError:
            assert not raw.strip()
            return
        stripped = "".join(raw.split())
        joined = "".join("".join(p.split()) for p in pieces)
        assert joined == stripped


class TestTokenize:
    def test_worked_example(self, stopwords):
        tokens = tokenize("The cat, sat!", stopwords)
        assert [t.normalized for t in tokens] == ["the", "cat", "sat"]
        assert [t.is_stopword for t in tokens] == [True, False, False]

    def test_internal_punctuation_kept(self):
        tokens = tokenize("U.S.-based")
        assert [t.normalized for t in tokens] == ["u.s.-based"]

    def test_capitalization_recorded_before_lowercasing(self):
        tokens = tokenize('"Word" word')
        assert [t.is_capitalized for t in tokens] == [True, False]
        assert [t.normalized for t in tokens] == ["word", "word"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("-- ... !!") == []

    def test_length_counts_normalized_form(self):
        (token,) = tokenize("Hello,")
        assert len(token.normalized) == 5
        assert token.surface == "Hello,"

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="aB.'- ", max_size=30))
    def test_tokens_never_empty_and_lowercase(self, raw):
        for token in tokenize(raw):
            assert token.normalized
            assert token.normalized == token.normalized.lower()


class TestBuildDocumentSet:
    def test_ids_and_positions(self, make_docset):
        x = make_docset(["First one. Second one.", "Third one."])
        assert [s.id for s in x.sentences] == [0, 1, 2]
        assert [s.doc_id for s in x.sentences] == [0, 0, 1]
        assert [s.position_in_doc for s in x.sentences] == [0, 1, 0]
        assert x.num_docs == 2

    def test_cost_is_utf8_bytes(self, make_docset):
        x = make_docset(["The cat sat."])
        assert x.sentences[0].cost == 12
        x2 = make_docset(["A café."])
        assert x2.sentences[0].cost == len("A café.".encode("utf-8")) == 8

    def test_blank_documents_skipped(self, make_docset):
        x = make_docset(["", "Only doc here.", "   "])
        assert x.num_docs == 1
        assert x.num_sentences == 1

    def test_tokenless_sentence_dropped_but_position_kept(self, make_docset):
        x = make_docset(["$$$! 9 lives left."])
        assert [s.text for s in x.sentences] == ["9 lives left."]
        assert [s.position_in_doc for s in x.sentences] == [1]
        assert [s.id for s in x.sentences] == [0]

    def test_degenerate_doc_still_counted(self, make_docset):
        x = make_docset(["$$$", "Real text here."])
        assert x.num_docs == 2
        assert x.num_sentences == 1

    def test_all_empty_raises(self):
        with pytest.raises(DatasetError):
            build_document_set("x", ["", "   "], frozenset())

    def test_vocabulary_stats(self, make_docset):
        x = make_docset(["Apple apple pear. Apple kiwi.", "Pear kiwi. 9 kiwi plum."])
        bank = FeatureBank(x, FeatureConfig())
        capitalized = _group_mask(bank, "cap")
        apple = bank.word_index["apple"]
        assert bank.counts[:, apple].sum() == 3
        assert bank.sentence_freq[apple] == 2
        assert bank.doc_freq[apple] == 1
        assert bank.max_in_sentence[apple] == 2
        assert capitalized[apple]
        kiwi = bank.word_index["kiwi"]
        assert bank.doc_freq[kiwi] == 2
        assert bank.sentence_freq[kiwi] == 3
        assert bank.max_in_sentence[kiwi] == 1
        assert not capitalized[kiwi]

    def test_abbreviation_table_blocks_split(self, make_docset):
        # "fig." reads as the figure abbreviation, so no boundary after it
        x = make_docset(["See fig. 9 for details."])
        assert x.num_sentences == 1

    def test_earliest_position(self, make_docset):
        x = make_docset(["Lead word here. Plum arrived late.", "Plum first here."])
        bank = FeatureBank(x, FeatureConfig())
        earliest = dict(zip(bank.words, bank.earliest_position))
        assert earliest["plum"] == 0
        assert earliest["lead"] == 0
        assert earliest["late"] == 1

    def test_budget_recorded(self, make_docset):
        assert make_docset(["One thing."], budget=123).budget_bytes == 123
        assert make_docset(["One thing."]).budget_bytes is None


class TestLoadDataset:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _record(self, **overrides):
        record = {
            "set_id": "s1",
            "documents": ["A fine day. It went well."],
            "references": ["fine day went well"],
        }
        record.update(overrides)
        return record

    def test_roundtrip(self, tmp_path, stopwords):
        path = self._write(
            tmp_path,
            [json.dumps(self._record()), json.dumps(self._record(set_id="s2", budget_bytes=40))],
        )
        data = load_dataset(path, stopwords)
        assert [x.set_id for x, _ in data] == ["s1", "s2"]
        assert data[1][0].budget_bytes == 40
        assert data[0][1].references[0][0].normalized == "fine"

    def test_malformed_json_reports_line(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(self._record()), "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null", "true"])
    def test_record_that_is_not_an_object(self, tmp_path, line):
        path = self._write(tmp_path, [json.dumps(self._record()), line])
        with pytest.raises(DatasetError, match=r"^line 2: .* must be a JSON object$"):
            load_dataset(path)

    def test_missing_field(self, tmp_path):
        record = self._record()
        del record["references"]
        path = self._write(tmp_path, [json.dumps(record)])
        with pytest.raises(DatasetError, match="missing field"):
            load_dataset(path)

    def test_no_references(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(self._record(references=[]))])
        with pytest.raises(DatasetError, match="^line 1: no references for set 's1'$"):
            load_dataset(path)

    def test_empty_reference_text(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(self._record(references=["..."]))])
        with pytest.raises(DatasetError, match="^line 1: empty reference for set 's1'$"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(tmp_path, ["", json.dumps(self._record()), ""])
        assert len(load_dataset(path)) == 1


def test_stopword_loader_packaged_default():
    stopwords = load_stopwords()
    assert "the" in stopwords and "of" in stopwords
    assert "cat" not in stopwords


def test_stopword_loader_custom(tmp_path):
    path = tmp_path / "sw.txt"
    path.write_text("# comment\nfoo\nbar\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"foo", "bar"})


def test_stopword_loader_strips_skips_and_lowercases(tmp_path):
    # the packaged lists and a user's list are read by the same rules; only
    # the stopwords are lowercased, since abbreviations match case-sensitively
    path = tmp_path / "sw.txt"
    path.write_text("# A Comment\n\n  The  \n\t\n  # indented comment\nOF\r\nand\n#\nfoo#bar\n",
                    encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "of", "and", "foo#bar"})
    assert len(load_stopwords()) == 128
    assert len(ABBREVIATIONS) == 70 and "Mr." in ABBREVIATIONS and "mr." not in ABBREVIATIONS


# Chunks that exercise every tokenizer and segmenter rule: capitalized and
# lowercase forms of one word, edge punctuation, pure punctuation,
# abbreviations, digits, terminal punctuation and stopwords.
_CHUNKS = [
    "The", "the", "of", "and", "A", "a", "It.", "Cat", "cat", "cat.", "cat,", '"Cat',
    "(cat)", "Dog!", "dog?", "'dog'", "U.S.-based", "--", "...", "!!", "$$$", "“", "Dr.",
    "Mr.", "fig.", "approx.", "9", "1998", "7.", "Plum?", "plum", "plum;", "café",
]

_documents = st.lists(
    st.one_of(
        st.sampled_from(["", "   ", "\n"]),
        st.lists(st.sampled_from(_CHUNKS), min_size=1, max_size=30).map(" ".join),
    ),
    max_size=5,
)


def _built(build, documents, stopwords):
    try:
        return build("s", documents, stopwords, 77)
    except DatasetError as exc:
        return f"DatasetError: {exc}"


def _random_record(rng, set_id):
    def text():
        return " ".join(rng.choice(_CHUNKS) for _ in range(rng.randint(1, 25)))

    documents = [text() for _ in range(rng.randint(1, 4))] + ["", "  "][: rng.randint(0, 2)]
    return {"set_id": set_id, "documents": documents,
            "references": [text() + " plum" for _ in range(rng.randint(1, 3))]}


def _oracle_load(path, stopwords):
    """Per-set oracle builds of every line of a dataset file."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        x = build_document_set_reference(
            record["set_id"], record["documents"], stopwords, record.get("budget_bytes")
        )
        refs = tuple(tuple(tokenize_reference(r, stopwords)) for r in record["references"])
        out.append((x, refs))
    return out


def _tokens_of(data):
    for x, Y in data:
        for s in x.sentences:
            yield from s.tokens
        for ref in Y.references:
            yield from ref


class TestMatchesReference:
    """``tokenize``, ``build_document_set`` and ``load_dataset`` against the
    per-call tokenizer and sentence loop they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(documents=_documents, use_stopwords=st.booleans())
    def test_build_document_set(self, stopwords, documents, use_stopwords):
        sw = stopwords if use_stopwords else frozenset()
        x = _built(build_document_set, documents, sw)
        expected = _built(build_document_set_reference, documents, sw)
        assert x == expected
        for raw in documents:
            assert tokenize(raw, sw) == tokenize_reference(raw, sw)

    def _check_load(self, path, stopwords):
        data = load_dataset(path, stopwords)
        expected = _oracle_load(path, stopwords)
        assert len(data) == len(expected)
        for (x, Y), (x_ref, refs) in zip(data, expected):
            assert x == x_ref
            assert (Y.set_id, Y.references) == (x.set_id, refs)

    def test_multi_set_file(self, tmp_path, stopwords):
        rng = random.Random(11)
        path = tmp_path / "data.jsonl"
        path.write_text(
            "".join(json.dumps(_random_record(rng, f"s{i}")) + "\n" for i in range(12)),
            encoding="utf-8",
        )
        self._check_load(path, stopwords)
        self._check_load(path, frozenset({"cat", "plum"}))

    def test_fixture_file(self, stopwords):
        self._check_load(FIXTURE_JSONL, stopwords)


class TestTokenMemoScope:
    """Tokens are interned per ``load_dataset`` call and never beyond it."""

    def _write(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [
            {"set_id": "a", "documents": ["The Cat sat. The cat ran.", "Dog and cat."],
             "references": ["The cat sat.", "A dog ran."]},
            {"set_id": "b", "documents": ["Dog ate the plum. The Cat slept."],
             "references": ["The dog ate.", "Cat slept."]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path

    def test_equal_chunks_share_one_token(self, tmp_path, stopwords):
        tokens = list(_tokens_of(load_dataset(self._write(tmp_path), stopwords)))
        by_surface = {}
        for t in tokens:
            assert by_surface.setdefault(t.surface, t) is t
        assert len({id(t) for t in tokens}) == len(by_surface) < len(tokens)

    def test_each_load_uses_its_own_stopwords(self, tmp_path):
        path = self._write(tmp_path)
        for sw in (frozenset({"the", "cat"}), frozenset({"dog", "and"})):
            data = load_dataset(path, sw)
            for t in _tokens_of(data):
                assert t.is_stopword == (t.normalized in sw)
            for x, _ in data:
                bank = FeatureBank(x, FeatureConfig(enabled_groups=("cap_stop_len",)))
                assert list(_group_mask(bank, "nonstop")) == [w not in sw for w in bank.words]

    def test_loads_share_no_tokens(self, tmp_path, stopwords):
        path = self._write(tmp_path)
        first = load_dataset(path, stopwords)
        second = load_dataset(path, stopwords)
        assert first == second
        assert not {id(t) for t in _tokens_of(first)} & {id(t) for t in _tokens_of(second)}
