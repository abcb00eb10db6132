"""Tokenization with character offsets and rule-based sentence splitting.

Tokenizer rules, applied left to right over the original text:

* maximal runs of letters form one token,
* maximal runs of digits form one token,
* whitespace separates tokens and is never part of one,
* any other character forms a token together with immediately repeated
  copies of itself ("--" is one token, "?!" is two).

Surfaces are lowercased; char_start/char_end are half-open offsets into
the original text, so ``text[char_start:char_end].lower() == surface``.
"49-15" tokenizes to [49][-][15] and "Tesla's" to [tesla]['][s].

A sentence ends at a token made only of '.', '?', or '!' when the next
token is separated from it by whitespace and starts, in the original
text, with an uppercase letter or a digit. This keeps abbreviations
like "u.s. troops" inside one sentence while splitting ordinary prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Token", "Paragraph", "tokenize", "split_sentences", "paragraph_from_text"]


@dataclass(frozen=True)
class Token:
    surface: str
    char_start: int
    char_end: int

    def __post_init__(self):
        if not self.surface:
            raise ValueError("empty token")


@dataclass
class Paragraph:
    """One paragraph of one article, split into tokenized sentences."""

    article_id: str
    paragraph_index: int
    text: str
    sentences: list[list[Token]] = field(default_factory=list)

    def key(self) -> tuple[str, int]:
        return (self.article_id, self.paragraph_index)

    def sentence_surfaces(self, i: int) -> list[str]:
        return [t.surface for t in self.sentences[i]]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch.isalpha():
            while i < n and text[i].isalpha():
                i += 1
        elif ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
        else:
            while i < n and text[i] == ch:
                i += 1
        tokens.append(Token(text[start:i].lower(), start, i))
    return tokens


def split_sentences(text: str, tokens: list[Token]) -> list[list[Token]]:
    """Group a paragraph's tokens into sentences; see the module rules."""
    sentences: list[list[Token]] = []
    current: list[Token] = []
    for idx, tok in enumerate(tokens):
        current.append(tok)
        if tok.surface.strip(".?!"):
            continue
        if idx + 1 == len(tokens):
            break
        nxt = tokens[idx + 1]
        gap = text[tok.char_end : nxt.char_start]
        lead = text[nxt.char_start]
        if gap and gap.isspace() and (lead.isupper() or lead.isdigit()):
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


def paragraph_from_text(article_id: str, paragraph_index: int, text: str) -> Paragraph:
    tokens = tokenize(text)
    sentences = split_sentences(text, tokens) if tokens else []
    return Paragraph(article_id, paragraph_index, text, sentences)
