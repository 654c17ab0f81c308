"""Seeded generator of DUC-shaped corpora in the structsum JSONL format.

Every set draws its sentences from one Zipfian vocabulary of pseudo-words
(common English function words take the top ranks), mixed with a per-set
topic so that the references share content with some sentences more than
with others. A few vocabulary words are proper-name-like and always appear
capitalized. Sentences start with a capital letter and end with a period,
and every pseudo-word ends in a vowel, so the library's segmenter splits
each document into exactly the generated sentences.

The same seed and shape give a byte-identical file. ``EVAL_SEED`` names the
fixed evaluation sets that every run puts in front of its seeded sets.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

FUNCTION_WORDS = (
    "the of and to a in is that for it as was with be by on not he this are or "
    "his from at which but have an they you were her she there been one all we "
    "their has would when if so what up out about into them can more some could "
    "than other its then two these over also after"
).split()

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    """Size of one generated document set."""

    docs: int
    sentences_per_doc: int
    references: int = 4
    sentences_per_reference: int = 5
    min_words: int = 8
    max_words: int = 30
    budget_bytes: int = 665

    @property
    def sentences(self) -> int:
        return self.docs * self.sentences_per_doc


SHAPES = {
    "duc": Shape(docs=10, sentences_per_doc=20),
    "small": Shape(docs=4, sentences_per_doc=10),
}

VOCAB_SIZE = 3000
ZIPF_EXPONENT = 1.0
TOPIC_WORDS = 40
TOPIC_SHARE_DOCS = 0.2
TOPIC_SHARE_REFS = 0.4
NAME_SHARE = 0.05

# seed of the evaluation sets; a string, so no --seed value can give them
EVAL_SEED = "eval"


def vocabulary(rng: random.Random) -> list[str]:
    """Function words first, then distinct consonant-vowel pseudo-words."""
    words = list(FUNCTION_WORDS)
    seen = set(words)
    while len(words) < VOCAB_SIZE:
        word = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 4))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _sentence(rng, shape, vocab, cum_weights, names, topic, topic_share) -> str:
    words = []
    for _ in range(rng.randint(shape.min_words, shape.max_words)):
        if rng.random() < topic_share:
            word = rng.choice(topic)
        else:
            word = rng.choices(vocab, cum_weights=cum_weights)[0]
        words.append(word.capitalize() if word in names else word)
    if words[-1].lower() in FUNCTION_WORDS:
        # end on a pseudo-word so no abbreviation can block the split
        words[-1] = rng.choice(topic)
    words[0] = words[0][:1].upper() + words[0][1:]
    return " ".join(words) + "."


def generate(shape_name: str, n_sets: int, seed: int | str) -> list[dict]:
    """Records for ``n_sets`` sets of the named shape, from ``seed`` alone."""
    shape = SHAPES[shape_name]
    rng = random.Random(f"{shape_name}:{seed}")
    vocab = vocabulary(rng)
    cum_weights = list(accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(vocab))))
    content = vocab[len(FUNCTION_WORDS):]
    names = frozenset(rng.sample(content, int(NAME_SHARE * len(content))))
    records = []
    for k in range(n_sets):
        topic = rng.sample(content[100:], TOPIC_WORDS)

        def sentences(count, share):
            return [
                _sentence(rng, shape, vocab, cum_weights, names, topic, share)
                for _ in range(count)
            ]

        documents = [
            " ".join(sentences(shape.sentences_per_doc, TOPIC_SHARE_DOCS))
            for _ in range(shape.docs)
        ]
        references = [
            " ".join(sentences(shape.sentences_per_reference, TOPIC_SHARE_REFS))
            for _ in range(shape.references)
        ]
        records.append(
            {
                "set_id": f"{shape_name}{seed}-{k:03d}",
                "documents": documents,
                "references": references,
                "budget_bytes": shape.budget_bytes,
            }
        )
    return records


def write_corpus(
    path: str | Path, shape_name: str, n_sets: int, seed: int, eval_sets: int = 0
) -> Path:
    """Write ``eval_sets`` evaluation sets, then ``n_sets`` sets from
    ``seed``, as JSON lines and return the path."""
    path = Path(path)
    records = generate(shape_name, eval_sets, EVAL_SEED) + generate(shape_name, n_sets, seed)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
