"""Data model and ingestion: tokenization with offsets, sentence
splitting, SQuAD parsing, vocabularies, and BIO answer tagging."""

from .squad import ParseReport, QAExample, parse_squad
from .tagging import (
    ANSWER_TAGS,
    B_ANS,
    CrossSentenceAnswerError,
    I_ANS,
    O_TAG,
    AnswerSpan,
    bio_tag_answer,
    char_to_token_span,
)
from .tokens import Paragraph, Token, paragraph_from_text, split_sentences, tokenize
from .vocab import EOS, EOS_ID, PAD, PAD_ID, SOS, SOS_ID, UNK, UNK_ID, Vocabulary, build_vocab

__all__ = [
    "Token",
    "Paragraph",
    "tokenize",
    "split_sentences",
    "paragraph_from_text",
    "AnswerSpan",
    "CrossSentenceAnswerError",
    "bio_tag_answer",
    "char_to_token_span",
    "O_TAG",
    "B_ANS",
    "I_ANS",
    "ANSWER_TAGS",
    "Vocabulary",
    "build_vocab",
    "PAD",
    "UNK",
    "SOS",
    "EOS",
    "PAD_ID",
    "UNK_ID",
    "SOS_ID",
    "EOS_ID",
    "QAExample",
    "ParseReport",
    "parse_squad",
]
