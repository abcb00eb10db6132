"""Seeded synthetic inputs for the benchmark.

Everything here is built locally from a seed: a wide pseudo-word
lexicon, Wikipedia-style paragraphs with a named person, a place,
pronoun-led sentences and planted numeric answers, the SQuAD v1.1 JSON
the program parses, the extractor's training examples and vocabularies,
and generator checkpoints whose weights are drawn by parameter name and
shape. Seeds are namespaced by purpose, so the
extractor fixture's training data never coincides with a workload's
inputs whatever seed the workload is given.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
FUNCTION_WORDS = frozenset(
    """a an the of in on at to for from with by and or but was were is
       how many did what which who when where more than also after before
       during across near under while""".split()
)
PRONOUNS = ("He", "She", "It", "They")
PREPOSITIONS = ("in", "on", "at", "for", "from", "with", "by", "near", "across", "under")
CONJUNCTIONS = ("and", "but", "while", "after", "before")
# the paper-dims generator's vocabulary is the first 20,000 words, so the
# lexicon must be larger; paragraph words past that reach it as unknown
LEXICON_SIZE = 24000


def derive_seed(*parts) -> int:
    """64-bit seed for one purpose, independent of every other purpose."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Lexicon:
    """Pronounceable pseudo-words ranked by a Zipf-like frequency, so a
    paragraph mixes a few common words with a long tail of rare ones."""

    def __init__(self, size: int = LEXICON_SIZE):
        rng = random.Random(derive_seed("lexicon"))
        seen = set(FUNCTION_WORDS) | {p.lower() for p in PRONOUNS}
        words: list[str] = []
        while len(words) < size:
            syllables = rng.randint(2, 4)
            word = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables))
            if rng.random() < 0.4:
                word += rng.choice(CONSONANTS)
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        total = 0.0
        self._cum: list[float] = []
        for rank in range(size):
            total += 1.0 / (rank + 20)
            self._cum.append(total)

    def word(self, rng: random.Random) -> str:
        return self.words[bisect.bisect(self._cum, rng.random() * self._cum[-1])]

    def name(self, rng: random.Random) -> str:
        return self.word(rng).capitalize()


@dataclass(frozen=True)
class Planted:
    """A planted numeric answer: character offsets into the paragraph."""

    char_start: int
    char_end: int
    question: str


@dataclass(frozen=True)
class SynthParagraph:
    title: str
    text: str
    answers: tuple[Planted, ...]


class _Builder:
    """Accumulates sentence tokens into text, tracking answer offsets."""

    def __init__(self):
        self.text = ""
        self.answers: list[Planted] = []

    def sentence(self, tokens: list[str], answer_at: int | None = None, question: str = "") -> int:
        """Append one sentence; returns its token count (punctuation included)."""
        if self.text:
            self.text += " "
        for i, tok in enumerate(tokens):
            if i and tok != ",":
                self.text += " "
            if i == answer_at:
                self.answers.append(Planted(len(self.text), len(self.text) + len(tok), question))
            self.text += tok
        self.text += "."
        return len(tokens) + 1


def _clause(lex: Lexicon, rng: random.Random, words: int) -> list[str]:
    out = [",", rng.choice(CONJUNCTIONS)]
    for _ in range(words):
        out.append(lex.word(rng))
        if rng.random() < 0.25:
            out.append(rng.choice(PREPOSITIONS))
    return out


def make_paragraph(
    lex: Lexicon, rng: random.Random, title: str, answers: int, fillers: int, target_tokens: int
) -> SynthParagraph:
    """One paragraph: an introduction, then `answers` sentences carrying
    a number and `fillers` without, each led by a pronoun, the name or
    the place, padded with clauses of wide-vocabulary words until the
    paragraph has about `target_tokens` tokens."""
    name = f"{lex.name(rng)} {lex.name(rng)}"
    place = lex.name(rng)
    pronoun = rng.choice(PRONOUNS)
    b = _Builder()
    used = b.sentence([name, "was", "a", lex.word(rng), lex.word(rng), "from", place])
    sentences = answers + fillers
    budget = max(target_tokens - used, 8 * sentences)
    per_sentence = budget // sentences
    numeric = set(rng.sample(range(sentences), answers))
    for s in range(sentences):
        subject_kind = rng.randrange(3)
        subject = [pronoun] if subject_kind == 0 else name.split() if subject_kind == 1 else [place]
        resolved = name if subject_kind != 2 else place
        verb = lex.word(rng)
        head = list(subject) + [verb]
        if s in numeric:
            noun = lex.word(rng)
            number = str(rng.randint(2, 9999))
            answer_at = len(head)
            head += [number, noun, rng.choice(PREPOSITIONS), "the", lex.word(rng)]
            question = f"How many {noun} did {resolved} {verb}?"
        else:
            answer_at = None
            question = ""
            head += ["the", lex.word(rng), "of", place if subject_kind != 2 else lex.name(rng)]
        pad = max(per_sentence - len(head) - 1, 0)
        tokens = head + (_clause(lex, rng, max(pad - 2, 1)) if pad >= 4 else [])
        b.sentence(tokens, answer_at, question)
    return SynthParagraph(title, b.text, tuple(b.answers))


def make_corpus(
    lex: Lexicon,
    seed: int,
    purpose: str,
    count: int,
    answers: tuple[int, ...],
    fillers: int,
    tokens: tuple[int, int],
) -> list[SynthParagraph]:
    """`count` paragraphs; paragraph i plants answers[i % len(answers)]
    numbers, so every window of len(answers) paragraphs has the same mix."""
    rng = random.Random(derive_seed(purpose, seed))
    return [
        make_paragraph(lex, rng, f"{purpose}-{seed}-{i}", answers[i % len(answers)], fillers, rng.randint(*tokens))
        for i in range(count)
    ]


def squad_json(paragraphs: list[SynthParagraph], with_questions: bool) -> str:
    """SQuAD v1.1 document, one article per paragraph."""
    data = []
    for p in paragraphs:
        qas = []
        if with_questions:
            for k, a in enumerate(p.answers):
                qas.append(
                    {
                        "id": f"{p.title}-q{k}",
                        "question": a.question,
                        "answers": [{"text": p.text[a.char_start : a.char_end], "answer_start": a.char_start}],
                    }
                )
        data.append({"title": p.title, "paragraphs": [{"context": p.text, "qas": qas}]})
    return json.dumps({"version": "1.1", "data": data}, sort_keys=True)


def write_generator_checkpoint(model, path, seed: int, purpose: str, meta: dict) -> None:
    """Overwrite every generator weight with U(-s, s) draws seeded by
    (purpose, seed, parameter name), then save through the program's
    checkpoint writer. The draws depend on names and shapes only, so a
    change to the program's initialiser order leaves the workload alone."""
    import numpy as np

    scale = model.config.init_scale
    for param in model.store:
        rng = np.random.default_rng(derive_seed(purpose, seed, param.name))
        param.data = rng.uniform(-scale, scale, param.data.shape)
    model.store.save(path, meta=meta)


def extractor_examples(paragraphs, qas) -> list:
    """Extractor training examples: each paragraph with its gold answer
    spans, deduplicated; paragraphs without an answer are left out."""
    from qaharvest.extractor import make_extractor_example

    spans: dict = {p.key(): {} for p in paragraphs}
    for qa in qas:
        a = qa.answer
        spans[qa.paragraph.key()][(a.sentence_index, a.token_start, a.token_end)] = a
    return [make_extractor_example(p, list(spans[p.key()].values())) for p in paragraphs if spans[p.key()]]


def extractor_vocabs(examples, config) -> tuple:
    """The word and char vocabularies of the examples' paragraphs, capped
    at the extractor config's limits."""
    from qaharvest.corpus import build_vocab

    surfaces = [t.surface for ex in examples for s in ex.paragraph.sentences for t in s]
    words = build_vocab(surfaces, config.vocab_limit)
    chars = build_vocab([c for w in surfaces for c in w], config.char_vocab_limit)
    return words, chars
