"""The coreference-aware question generator.

Encoder side: every source token is embedded as the concatenation of a
gated coreference feature, an answer-position feature, and its word
embedding, then read by a bidirectional LSTM. Decoder side: an LSTM
attends over the encoder states using the PREVIOUS decoder state as the
attention query, mixes a vocabulary softmax with a copy distribution
formed by summing attention mass per source surface, and predicts over
the dynamic vocabulary (target vocabulary plus source surfaces).

Shape conventions, with W = word_dim, H = hidden_dim, F = feature dims:
encoder input is (F_coref + F_ans + W,), encoder states are (H,) per
direction, token vectors h_i and the decoder state are (2H,), and the
output projection maps (4H,) -> vocabulary logits.

Training and the gradient audit encode and decode on the autodiff tape
(``embed_inputs``, ``encode``, ``decode_step``); generation builds no
tape at all. ``encoder_rows`` encodes the sentences through
``bilstm_rows``, sentences of one length as one batch. ``generate_many``
then runs one beam search per sentence, all in lockstep, and each step
scores every live hypothesis of every search with ``decode_rows``, which
stacks their states into (rows x 2H) matrices and reads ``out.proj``
once for the whole batch; a wide ``out.proj`` product is split across
the usable CPUs. Both share the sigmoid, softmax and LSTM formulas with
the tape ops and match ``encode`` and ``decode_step`` bit for bit where
the tape's products run on one BLAS thread. Their own values are the
same at any BLAS thread count and CPU count (see ``matvec_rows``). A
sentence's encoding depends only on that sentence and a hypothesis's
values only on its own search, so a harvest record depends only on its
own paragraph and span.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..coref.transform import COREF_TAGS
from ..corpus.tagging import ANSWER_TAGS
from ..corpus.vocab import EOS_ID, SOS_ID, UNK_ID, Vocabulary
from ..numerics import (
    LstmCellParams,
    ParameterStore,
    RngState,
    Tensor,
    apply_dropout,
    bilstm,
    bilstm_rows,
    clamp_min,
    concat,
    dot,
    log,
    lstm_rows,
    lstm_step,
    matmul,
    matvec_rows,
    pad_to,
    pick,
    relu,
    row,
    scatter_add,
    sigmoid,
    softmax,
    stable_sigmoid,
    stable_softmax,
    stack,
    tsum,
)
from .beam import beam_search_many
from .config import GeneratorConfig
from .data import DynamicVocab, GeneratorExample

__all__ = ["QGModel", "EncoderOutput", "DecodeStep", "gate_coref_features"]

logger = logging.getLogger("qaharvest.generator")

_COREF_TAG_ID = {t: i for i, t in enumerate(COREF_TAGS)}
_ANSWER_TAG_ID = {t: i for i, t in enumerate(ANSWER_TAGS)}


@dataclass
class EncoderOutput:
    """Per-token encoder states (n x 2H) plus the final directional
    states used to seed the decoder."""

    hidden: Tensor
    fwd_final: tuple[Tensor, Tensor]
    bwd_final: tuple[Tensor, Tensor]


@dataclass
class DecodeStep:
    dist: Tensor  # P over the dynamic vocabulary
    copy_gate: Tensor  # scalar in (0, 1)
    state: tuple[Tensor, Tensor]
    attention: Tensor  # alpha over source positions


def gate_coref_features(
    coref_emb: Tensor,
    score: float,
    feature_weight: Tensor,
    score_weight: Tensor,
    bias: Tensor,
    use_gating: bool = True,
    use_score: bool = True,
) -> Tensor:
    """Multiplicative refinement of the coreference feature embedding.

    gate = ReLU(feature_weight @ c + score_weight * score + bias),
    output = gate * c elementwise. With gating off the embedding passes
    through untouched; with scores off the score path contributes an
    exact zero vector.
    """
    if not use_gating:
        return coref_emb
    effective = score if use_score else 0.0
    pre = matmul(feature_weight, coref_emb) + score_weight * float(effective) + bias
    return relu(pre) * coref_emb


class QGModel:
    def __init__(self, config: GeneratorConfig, vocab: Vocabulary, rng: RngState | None):
        self.config = config
        self.vocab = vocab
        store = ParameterStore()
        s = config.init_scale
        self.store = store
        self.word_emb = store.create("word_emb", (len(vocab), config.word_dim), rng, s)
        self.answer_emb = store.create("answer_tag_emb", (len(ANSWER_TAGS), config.answer_feat_dim), rng, s)
        self.coref_emb = store.create("coref_tag_emb", (len(COREF_TAGS), config.coref_feat_dim), rng, s)
        f = config.coref_feat_dim
        self.gate_feature_weight = store.create("gate.feature_weight", (f, f), rng, s)
        self.gate_score_weight = store.create("gate.score_weight", (f,), rng, s)
        self.gate_bias = store.create("gate.bias", (f,), rng, s)
        enc_in = f + config.answer_feat_dim + config.word_dim
        h = config.hidden_dim
        self.enc_fwd = LstmCellParams(store, "enc_fwd", enc_in, h, rng)
        self.enc_bwd = LstmCellParams(store, "enc_bwd", enc_in, h, rng)
        self.dec = LstmCellParams(store, "dec", config.word_dim, 2 * h, rng)
        self.attn_weight = store.create("attn.bilinear", (2 * h, 2 * h), rng, s)
        self.out_proj = store.create("out.proj", (len(vocab), 4 * h), rng, s)
        self.copy_context_weight = store.create("copy.context_weight", (2 * h,), rng, s)
        self.copy_state_weight = store.create("copy.state_weight", (2 * h,), rng, s)

    # ------------------------------------------------------------ encoder

    def embed_inputs(self, ex: GeneratorExample, train: bool = False, rng: RngState | None = None) -> list[Tensor]:
        """Per-token encoder inputs concat(gated coref, answer, word)."""
        inputs = []
        for tok, ctag, score, atag in zip(ex.tokens, ex.coref_tags, ex.scores, ex.answer_tags):
            c = row(self.coref_emb, _COREF_TAG_ID[ctag])
            d = gate_coref_features(
                c,
                score,
                self.gate_feature_weight,
                self.gate_score_weight,
                self.gate_bias,
                use_gating=self.config.use_gating,
                use_score=self.config.use_mention_scores,
            )
            a = row(self.answer_emb, _ANSWER_TAG_ID[atag])
            x = row(self.word_emb, self.vocab.id_of(tok))
            x = apply_dropout(x, rng, self.config.dropout, train)
            inputs.append(concat([d, a, x]))
        return inputs

    def encode(self, inputs: list[Tensor], train: bool = False, rng: RngState | None = None) -> EncoderOutput:
        if not inputs:
            raise ValueError("empty sequence")
        fwd, bwd, fwd_final, bwd_final = bilstm(inputs, self.enc_fwd, self.enc_bwd)
        rows = [concat([f, b]) for f, b in zip(fwd, bwd)]
        rows = [apply_dropout(r, rng, self.config.dropout, train) for r in rows]
        return EncoderOutput(stack(rows), fwd_final, bwd_final)

    def initial_state(self, enc: EncoderOutput) -> tuple[Tensor, Tensor]:
        """Decoder starts from the concatenated final directional states."""
        return (
            concat([enc.fwd_final[0], enc.bwd_final[0]]),
            concat([enc.fwd_final[1], enc.bwd_final[1]]),
        )

    def encoder_rows(self, examples: list[GeneratorExample]) -> list[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]]:
        """``encode(embed_inputs(ex))`` and ``initial_state`` with dropout
        off, on plain arrays and bit for bit: per example, the encoder
        states (n x 2H) and the decoder's initial (h, c). Examples of one
        length run as one batch; each example's values depend only on
        itself."""
        cfg = self.config
        by_length: dict[int, list[int]] = {}
        for i, ex in enumerate(examples):
            by_length.setdefault(len(ex.tokens), []).append(i)
        out: list = [None] * len(examples)
        for idx in by_length.values():
            group = [examples[i] for i in idx]
            coref = self.coref_emb.data[[[_COREF_TAG_ID[t] for t in ex.coref_tags] for ex in group]]
            if cfg.use_gating:
                # gate_coref_features' formula, in its order
                scores = np.array([ex.scores for ex in group], dtype=np.float64)
                if not cfg.use_mention_scores:
                    scores = np.zeros_like(scores)
                pre = matvec_rows(self.gate_feature_weight.data, coref.reshape(-1, coref.shape[2])).reshape(coref.shape)
                pre = pre + self.gate_score_weight.data * scores[:, :, None] + self.gate_bias.data
                coref = np.maximum(pre, 0.0) * coref
            xs = np.concatenate(
                [
                    coref,
                    self.answer_emb.data[[[_ANSWER_TAG_ID[t] for t in ex.answer_tags] for ex in group]],
                    self.word_emb.data[[[self.vocab.id_of(t) for t in ex.tokens] for ex in group]],
                ],
                axis=2,
            )
            fwd, bwd, (fh, fc), (bh, bc) = bilstm_rows(xs, self.enc_fwd, self.enc_bwd)
            hidden = np.concatenate([fwd, bwd], axis=2)
            for b, i in enumerate(idx):
                out[i] = (hidden[b], (np.concatenate([fh[b], bh[b]]), np.concatenate([fc[b], bc[b]])))
        return out

    # ------------------------------------------------------------ decoder

    def prev_embedding(self, dynamic_id: int, train: bool = False, rng: RngState | None = None) -> Tensor:
        """Word embedding of the previously emitted token; copied
        off-vocabulary tokens have no row of their own and fall back to
        the unknown-word embedding."""
        base_id = dynamic_id if dynamic_id < len(self.vocab) else UNK_ID
        x = row(self.word_emb, base_id)
        return apply_dropout(x, rng, self.config.dropout, train)

    def decode_step(
        self,
        prev_emb: Tensor,
        state: tuple[Tensor, Tensor],
        enc: EncoderOutput,
        dyn: DynamicVocab,
        train: bool = False,
        rng: RngState | None = None,
    ) -> DecodeStep:
        h_prev, c_prev = state
        s_h, s_c = lstm_step(prev_emb, h_prev, c_prev, self.dec)
        # attention scores use the previous decoder state as the query
        scores = matmul(enc.hidden, matmul(self.attn_weight, h_prev))
        alpha = softmax(scores)
        context = matmul(alpha, enc.hidden)
        out_h = apply_dropout(s_h, rng, self.config.dropout, train)
        p_vocab = softmax(matmul(self.out_proj, concat([context, out_h])))
        lam = sigmoid(dot(self.copy_context_weight, context) + dot(self.copy_state_weight, out_h))
        p_copy = scatter_add(Tensor(np.zeros(dyn.size)), dyn.copy_ids, alpha)
        dist = lam * p_copy + (1.0 - lam) * pad_to(p_vocab, dyn.size)
        return DecodeStep(dist, lam, (s_h, s_c), alpha)

    # ----------------------------------------------------- loss / metrics

    def nll(self, ex: GeneratorExample, train: bool = False, rng: RngState | None = None) -> tuple[Tensor, int, int]:
        """Teacher-forced negative log-likelihood of the gold question.

        Returns (loss, token count, clamp count); the token count covers
        the end-of-sequence step. Gold tokens outside both the target
        vocabulary and the source sentence train as unknown-word
        targets; zero-probability targets clamp at 1e-12 so the loss
        stays finite, with the clamp counted.
        """
        inputs = self.embed_inputs(ex, train, rng)
        enc = self.encode(inputs, train, rng)
        dyn = DynamicVocab(self.vocab, ex.tokens)
        state = self.initial_state(enc)
        targets = [dyn.id_of(t) for t in ex.question] + [EOS_ID]
        prev_id = SOS_ID
        terms = []
        clamped = 0
        for target in targets:
            step = self.decode_step(self.prev_embedding(prev_id, train, rng), state, enc, dyn, train, rng)
            p = pick(step.dist, target)
            if p.data.item() < 1e-12:
                clamped += 1
            terms.append(log(clamp_min(p, 1e-12)))
            state = step.state
            prev_id = target
        if clamped:
            logger.warning("clamped %d zero-probability gold tokens", clamped)
        loss = -tsum(stack(terms))
        return loss, len(targets), clamped

    def perplexity(self, dataset: list[GeneratorExample]) -> float:
        """exp(total NLL / total gold tokens), dropout off."""
        if not dataset:
            raise ValueError("empty dataset")
        total = 0.0
        count = 0
        for ex in dataset:
            loss, n, _ = self.nll(ex)
            total += loss.item()
            count += n
        return float(np.exp(total / count))

    # ------------------------------------------------------------- search

    def decode_rows(self, sources: list[tuple[np.ndarray, DynamicVocab]], rows: list) -> list:
        """Tape-free ``decode_step`` for a batch of hypotheses.

        ``sources`` holds each search's encoder states (n x 2H) and
        dynamic vocabulary; each row is (search index, previous dynamic
        id, (h, c)). Returns one (log-probability vector over that
        search's dynamic vocabulary, (h, c)) pair per row. Every row's
        values equal those of ``decode_step`` with dropout off and do not
        depend on the other rows: every matrix-vector product goes
        through ``matvec_rows``, which walks ``out.proj`` once for the
        whole batch.
        """
        n_vocab = len(self.vocab)
        prev = [UNK_ID if prev_id >= n_vocab else prev_id for _, prev_id, _ in rows]
        h_prev = np.stack([state[0] for _, _, state in rows])
        c_prev = np.stack([state[1] for _, _, state in rows])
        s_h, s_c = lstm_rows(self.word_emb.data[prev], h_prev, c_prev, self.dec)
        # attention scores use the previous decoder state as the query
        queries = matvec_rows(self.attn_weight.data, h_prev)
        search_of = np.array([s for s, _, _ in rows])
        context = np.empty_like(h_prev)
        alphas = {}
        for s in np.unique(search_of):
            idx = np.flatnonzero(search_of == s)
            hidden = sources[s][0]
            alpha = stable_softmax(matvec_rows(hidden, queries[idx]))
            context[idx] = np.matmul(alpha[:, None, :], hidden)[:, 0, :]
            alphas[s] = (idx, alpha)
        p_vocab = stable_softmax(matvec_rows(self.out_proj.data, np.concatenate([context, s_h], axis=1)))
        ccw, csw = self.copy_context_weight.data, self.copy_state_weight.data
        # one gate per row from two vector inner products, the same calls
        # decode_step makes
        lam = [stable_sigmoid(ccw @ ctx + csw @ out_h) for ctx, out_h in zip(context, s_h)]
        out: list = [None] * len(rows)
        for s, (idx, alpha) in alphas.items():
            dyn = sources[s][1]
            for i, a in zip(idx, alpha):
                p_copy = np.zeros(dyn.size)
                np.add.at(p_copy, dyn.copy_ids, a)
                p_gen = np.zeros(dyn.size)
                p_gen[:n_vocab] = p_vocab[i]
                with np.errstate(divide="ignore"):
                    logp = np.log(lam[i] * p_copy + (1.0 - lam[i]) * p_gen)
                out[i] = (logp, (s_h[i], s_c[i]))
        return out

    def generate_many(self, examples: list[GeneratorExample], beam_size: int, max_len: int) -> list:
        """Beam-search one question per transformed sentence, all of the
        searches in lockstep: each decoder step scores every live
        hypothesis of every search in one ``decode_rows`` call. The beam
        width and the decode length are settings of the run, not of the
        model, so the caller gives both. Returns (question tokens,
        BeamResult) per example, in order."""
        encoded = self.encoder_rows(examples)
        sources = [(hidden, DynamicVocab(self.vocab, ex.tokens)) for (hidden, _), ex in zip(encoded, examples)]
        init_states = [state for _, state in encoded]
        results = beam_search_many(
            lambda rows: self.decode_rows(sources, rows),
            init_states,
            start_id=SOS_ID,
            eos_id=EOS_ID,
            beam_size=beam_size,
            max_len=max_len,
        )
        return [([dyn.token_of(i) for i in r.token_ids], r) for (_, dyn), r in zip(sources, results)]

    def generate(self, ex: GeneratorExample, beam_size: int, max_len: int):
        """Beam-search a question for one transformed sentence."""
        return self.generate_many([ex], beam_size, max_len)[0]
