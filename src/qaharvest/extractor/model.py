"""The BiLSTM-CRF answer-span tagger.

Every paragraph token is embedded as the concatenation of its word
embedding, a character-level representation (final states of a char
BiLSTM over the word), and a coarse NER-tag embedding. A stack of
bidirectional LSTM layers turns these into per-token tag scores, by
default softmax-normalized per token, which a linear-chain CRF scores
jointly with a learned transition matrix. Decoding is Viterbi followed
by BIO span parsing; spans that would cross a sentence boundary are
dropped and counted rather than emitted.

Prediction builds no autodiff tape: ``emission_rows`` computes the
emissions on plain arrays through ``bilstm_rows``, running the char
BiLSTM once per paragraph over all of its unique words, grouped by
length, and equals ``emissions`` bit for bit. The tape methods
(``char_rep``, ``token_inputs``, ``emissions``) serve training only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus.tagging import ANSWER_TAGS, AnswerSpan
from ..corpus.tokens import Paragraph
from ..corpus.vocab import Vocabulary
from ..numerics import (
    LstmCellParams,
    ParameterStore,
    RngState,
    Tensor,
    add,
    apply_dropout,
    bilstm,
    bilstm_rows,
    concat,
    matmul,
    matvec_rows,
    row,
    softmax_rows,
    stable_softmax,
    stack,
)
from .config import ExtractorConfig
from .crf import crf_nll, decode_spans, viterbi
from .data import ExtractorExample, flat_span_to_answer, flatten_tokens
from .ner import NER_TAGS, NerTagger, rule_ner_tags

__all__ = ["ExtractorModel", "ExtractionResult"]

_TAG_ID = {t: i for i, t in enumerate(ANSWER_TAGS)}
_NER_ID = {t: i for i, t in enumerate(NER_TAGS)}


@dataclass
class ExtractionResult:
    """Viterbi output for one paragraph."""

    spans: list[AnswerSpan]
    tags: list[str]
    repaired: bool
    dropped_cross_sentence: int


class ExtractorModel:
    def __init__(
        self,
        config: ExtractorConfig,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
        rng: RngState | None,
        ner_tagger: NerTagger = rule_ner_tags,
    ):
        self.config = config
        self.word_vocab = word_vocab
        self.char_vocab = char_vocab
        self.ner_tagger = ner_tagger
        store = ParameterStore()
        self.store = store
        s = config.init_scale
        self.word_emb = store.create("word_emb", (len(word_vocab), config.word_dim), rng, s)
        self.char_emb = store.create("char_emb", (len(char_vocab), config.char_dim), rng, s)
        self.ner_emb = store.create("ner_emb", (len(NER_TAGS), config.ner_dim), rng, s)
        self.char_fwd = LstmCellParams(store, "char_fwd", config.char_dim, config.char_hidden, rng)
        self.char_bwd = LstmCellParams(store, "char_bwd", config.char_dim, config.char_hidden, rng)
        h = config.hidden_dim
        token_dim = config.word_dim + 2 * config.char_hidden + config.ner_dim
        self.layers: list[tuple[LstmCellParams, LstmCellParams]] = []
        for layer in range(config.depth):
            in_dim = token_dim if layer == 0 else 2 * h
            self.layers.append(
                (
                    LstmCellParams(store, f"bilstm{layer}_fwd", in_dim, h, rng),
                    LstmCellParams(store, f"bilstm{layer}_bwd", in_dim, h, rng),
                )
            )
        k = len(ANSWER_TAGS)
        self.emit_proj = store.create("emit.proj", (k, 2 * h), rng, s)
        self.emit_bias = store.create("emit.bias", (k,), rng, s)
        self.transitions = store.create("crf.transitions", (k + 2, k + 2), rng, s)

    # ---------------------------------------------------------- embedding

    def char_rep(self, word: str) -> Tensor:
        """Final forward and backward char-LSTM states, concatenated."""
        if not word:
            raise ValueError("empty word")
        embs = [row(self.char_emb, self.char_vocab.id_of(c)) for c in word]
        _, _, (fh, _), (bh, _) = bilstm(embs, self.char_fwd, self.char_bwd)
        return concat([fh, bh])

    def token_inputs(
        self, surfaces: list[str], ner_tags: list[str], train: bool = False, rng: RngState | None = None
    ) -> list[Tensor]:
        if len(surfaces) != len(ner_tags):
            raise ValueError("surfaces and NER tags do not align")
        # repeated surfaces share one char subgraph; gradients accumulate
        char_cache: dict[str, Tensor] = {}
        inputs = []
        for surf, ner in zip(surfaces, ner_tags):
            if surf not in char_cache:
                char_cache[surf] = self.char_rep(surf)
            w = row(self.word_emb, self.word_vocab.id_of(surf))
            w = apply_dropout(w, rng, self.config.dropout, train)
            inputs.append(concat([w, char_cache[surf], row(self.ner_emb, _NER_ID[ner])]))
        return inputs

    # ---------------------------------------------------------- emissions

    def emissions(
        self, surfaces: list[str], ner_tags: list[str], train: bool = False, rng: RngState | None = None
    ) -> Tensor:
        """Per-token tag scores, n x k; probability rows by default."""
        if not surfaces:
            raise ValueError("empty sequence")
        seq = self.token_inputs(surfaces, ner_tags, train, rng)
        for fwd_cell, bwd_cell in self.layers:
            fwd, bwd, _, _ = bilstm(seq, fwd_cell, bwd_cell)
            out = [concat([f, b]) for f, b in zip(fwd, bwd)]
            seq = [apply_dropout(r, rng, self.config.dropout, train) for r in out]
        logits = stack([add(matmul(self.emit_proj, z), self.emit_bias) for z in seq])
        return softmax_rows(logits) if self.config.normalize_emissions else logits

    def emission_rows(self, surfaces: list[str], ner_tags: list[str]) -> np.ndarray:
        """``emissions`` with dropout off, on plain arrays and bit for bit.

        The char BiLSTM reads each unique surface once, all surfaces of
        one length as one batch; the word layers read the paragraph as a
        batch of one.
        """
        if not surfaces:
            raise ValueError("empty sequence")
        if len(surfaces) != len(ner_tags):
            raise ValueError("surfaces and NER tags do not align")
        by_length: dict[int, list[str]] = {}
        for surf in dict.fromkeys(surfaces):
            by_length.setdefault(len(surf), []).append(surf)
        char_reps: dict[str, np.ndarray] = {}
        for words in by_length.values():
            ids = [[self.char_vocab.id_of(c) for c in w] for w in words]
            _, _, (fh, _), (bh, _) = bilstm_rows(self.char_emb.data[ids], self.char_fwd, self.char_bwd)
            char_reps.update(zip(words, np.concatenate([fh, bh], axis=1)))
        seq = np.concatenate(
            [
                self.word_emb.data[[self.word_vocab.id_of(s) for s in surfaces]],
                np.stack([char_reps[s] for s in surfaces]),
                self.ner_emb.data[[_NER_ID[t] for t in ner_tags]],
            ],
            axis=1,
        )
        for fwd_cell, bwd_cell in self.layers:
            fwd, bwd, _, _ = bilstm_rows(seq[None], fwd_cell, bwd_cell)
            seq = np.concatenate([fwd[0], bwd[0]], axis=1)
        logits = matvec_rows(self.emit_proj.data, seq) + self.emit_bias.data
        return stable_softmax(logits) if self.config.normalize_emissions else logits

    # ------------------------------------------------------- loss / decode

    def nll(self, ex: ExtractorExample, train: bool = False, rng: RngState | None = None) -> Tensor:
        P = self.emissions(ex.surfaces(), ex.ner_tags, train, rng)
        return crf_nll(P, self.transitions, [_TAG_ID[t] for t in ex.tags])

    def predict(self, paragraph: Paragraph) -> ExtractionResult:
        tokens = flatten_tokens(paragraph)
        if not tokens:
            return ExtractionResult([], [], False, 0)
        ner = self.ner_tagger(paragraph)
        P = self.emission_rows([t.surface for t in tokens], ner)
        ids, _ = viterbi(P, self.transitions)
        tags = [ANSWER_TAGS[i] for i in ids]
        decoded = decode_spans(tags)
        spans: list[AnswerSpan] = []
        dropped = 0
        for a, b in decoded.spans:
            answer = flat_span_to_answer(paragraph, a, b)
            if answer is None:
                dropped += 1
            else:
                spans.append(answer)
        return ExtractionResult(spans, tags, decoded.repaired, dropped)
