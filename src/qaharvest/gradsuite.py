"""Finite-difference audit of every backward path the trainers rely on.

Each named check builds a tiny fixed model from one seed, compares
analytic gradients against central differences, and reports the worst
relative error. Dimensions are at most eight so the whole battery runs
in seconds. A healthy build keeps every entry below 1e-4.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import AnswerSpan, build_vocab, paragraph_from_text
from .extractor import ExtractorConfig, ExtractorModel, crf_nll, make_extractor_example
from .generator import DynamicVocab, GeneratorConfig, GeneratorExample, QGModel
from .generator.model import gate_coref_features
from .numerics import Parameter, RngState, clamp_min, grad_check, log, pick, tsum
from .corpus.vocab import SOS_ID

__all__ = ["CHECK_NAMES", "gradient_suite"]

CHECK_NAMES = ("gate", "encode", "decode_step", "nll_loss", "crf", "crf_nll")


def _qg_model(seed: int) -> tuple[QGModel, GeneratorExample]:
    cfg = GeneratorConfig.desk(
        word_dim=4,
        hidden_dim=3,
        coref_feat_dim=2,
        answer_feat_dim=2,
        vocab_limit=30,
        dropout=0.0,
    )
    vocab = build_vocab("they the panthers won the title who ?".split(), 30)
    model = QGModel(cfg, vocab, RngState(seed))
    ex = GeneratorExample(
        tokens=["they", "panthers", "won", "title"],
        coref_tags=["B_PRO", "B_ANT", "O", "O"],
        scores=[0.0, 0.5, 0.0, 0.0],
        answer_tags=["O", "O", "O", "B_ANS"],
        question=["who", "won", "?"],
    )
    return model, ex


def _check_gate(seed: int) -> float:
    rng = RngState(seed)
    f = 3
    c = Parameter("c", rng.uniform(-0.5, 0.5, (f,)))
    weight = Parameter("feature_weight", rng.uniform(-0.5, 0.5, (f, f)))
    score_weight = Parameter("score_weight", rng.uniform(-0.5, 0.5, (f,)))
    bias = Parameter("bias", rng.uniform(-0.5, 0.5, (f,)))
    params = [c, weight, score_weight, bias]

    def loss():
        return tsum(gate_coref_features(c, 0.7, weight, score_weight, bias))

    return grad_check(loss, params)


def _check_encode(seed: int) -> float:
    model, ex = _qg_model(seed)
    cells = [model.enc_fwd, model.enc_bwd]
    params = [
        model.word_emb,
        model.answer_emb,
        model.coref_emb,
        model.gate_feature_weight,
        model.gate_score_weight,
        model.gate_bias,
    ] + [p for cell in cells for p in (cell.w_input, cell.w_hidden, cell.bias)]

    def loss():
        enc = model.encode(model.embed_inputs(ex))
        h0, c0 = model.initial_state(enc)
        return tsum(enc.hidden) + tsum(h0) + tsum(c0)

    return grad_check(loss, params)


def _check_decode_step(seed: int) -> float:
    model, ex = _qg_model(seed)
    dyn = DynamicVocab(model.vocab, ex.tokens)
    target = dyn.id_of("who")
    params = [
        model.dec.w_input,
        model.dec.w_hidden,
        model.dec.bias,
        model.attn_weight,
        model.out_proj,
        model.copy_context_weight,
        model.copy_state_weight,
    ]

    def loss():
        enc = model.encode(model.embed_inputs(ex))
        state = model.initial_state(enc)
        step = model.decode_step(model.prev_embedding(SOS_ID), state, enc, dyn)
        nll = -log(clamp_min(pick(step.dist, target), 1e-12))
        # the cell state feeds no output this step, so pull on it directly
        return nll + tsum(step.state[1])

    return grad_check(loss, params)


def _check_nll_loss(seed: int) -> float:
    model, ex = _qg_model(seed)
    return grad_check(lambda: model.nll(ex)[0], list(model.store))


def _check_crf(seed: int) -> float:
    rng = RngState(seed)
    n, k = 3, 3
    emissions = Parameter("emissions", rng.uniform(-1.0, 1.0, (n, k)))
    transitions = Parameter("transitions", rng.uniform(-1.0, 1.0, (k + 2, k + 2)))
    tags = [rng.next_below(k) for _ in range(n)]
    return grad_check(lambda: crf_nll(emissions, transitions, tags), [emissions, transitions])


def _check_crf_nll(seed: int) -> float:
    cfg = ExtractorConfig.desk(
        word_dim=4,
        char_dim=2,
        char_hidden=2,
        ner_dim=2,
        hidden_dim=3,
        dropout=0.0,
    )
    words = build_vocab("bob won 42 games".split(), 50)
    chars = build_vocab(list("bownga42s."), 50)
    model = ExtractorModel(cfg, words, chars, RngState(seed))
    para = paragraph_from_text("grad", 0, "Bob won 42 games.")
    ex = make_extractor_example(para, [AnswerSpan(0, 2, 2, 8, 10)])
    return grad_check(lambda: model.nll(ex), list(model.store))


_CHECKS = {
    "gate": _check_gate,
    "encode": _check_encode,
    "decode_step": _check_decode_step,
    "nll_loss": _check_nll_loss,
    "crf": _check_crf,
    "crf_nll": _check_crf_nll,
}


def gradient_suite(seed: int = 0, names: Sequence[str] | None = None) -> dict[str, float]:
    """Run the named checks (all of them by default) and return the
    worst relative error per check, keyed by name."""
    if names is None:
        names = CHECK_NAMES
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    return {name: _CHECKS[name](seed) for name in names}
