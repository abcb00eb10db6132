"""Top-level behavioral checks, one test per target property, each with
an explicit tolerance and wall-clock budget: the coreference transform's
feature rows, gradient correctness of every loss, normalization of
decode distributions, CRF and beam search against brute-force
enumeration, memorization capacity of both models at desk scale, the
ablation switches, metric hand oracles, and byte-level determinism of
the harvest pipeline."""

import math
import time

import numpy as np
import pytest
from qaharvest.coref import COREF_TAGS
from qaharvest.corpus import AnswerSpan, build_vocab, paragraph_from_text
from qaharvest.extractor import ExtractorConfig, ExtractorModel, make_extractor_example, train_extractor, viterbi
from qaharvest.extractor.crf import crf_log_partition
from qaharvest.generator import DynamicVocab, GeneratorConfig, GeneratorExample, QGModel, beam_search, train_qg
from qaharvest.metrics import bleu, overlap_metrics
from qaharvest.numerics import RngState, Tensor
from qaharvest.pipeline import harvest, transform_for_generation, write_records
from synth import (
    EOS,
    GARDEN_DEFAULT,
    GARDEN_PATH,
    GREEDY_TRAP,
    SOS_START,
    TRAP_DEFAULT,
    brute_best,
    brute_log_z,
    crf_path_score,
    enumerate_best,
    make_toy,
    number_paragraphs,
    qg_overfit_corpus,
    random_beam_toy,
    random_crf_instance,
    width3_cannot_prune,
)


@pytest.fixture(scope="module")
def trained_generator():
    t0 = time.perf_counter()
    _, examples = qg_overfit_corpus(4)
    tokens = [t for ex in examples for t in ex.tokens + ex.question]
    vocab = build_vocab(tokens, 200)
    config = GeneratorConfig.desk(stop_below_ppl=1.2, seed=0)
    model = QGModel(config, vocab, RngState(0))
    report = train_qg(model, examples, examples, rng=RngState(0))
    return model, report, examples, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_extractor():
    t0 = time.perf_counter()
    data = [make_extractor_example(p, spans) for p, spans in number_paragraphs(10)]
    config = ExtractorConfig.desk(
        word_dim=12, char_dim=6, char_hidden=8, ner_dim=6, hidden_dim=12, stop_at_f1=1.0, seed=0
    )
    surfaces = [t.surface for ex in data for s in ex.paragraph.sentences for t in s]
    words = build_vocab(surfaces, config.vocab_limit)
    chars = build_vocab([c for w in surfaces for c in w], config.char_vocab_limit)
    model = ExtractorModel(config, words, chars, RngState(0))
    report = train_extractor(model, data, data, rng=RngState(0))
    return model, report, time.perf_counter() - t0


def test_transform_feature_rows_championship_sentence():
    t0 = time.perf_counter()
    para = paragraph_from_text(
        "sb50", 0, "The Panthers became champions. They defeated the Arizona Cardinals 49--15"
    )
    sentence = para.sentences[1]
    answer = AnswerSpan(1, 2, 4, sentence[2].char_start, sentence[4].char_end)
    ex = transform_for_generation(para, answer)
    assert ex.tokens == ["they", "the", "panthers", "defeated", "the", "arizona", "cardinals", "49", "--", "15"]
    assert ex.coref_tags == ["B_PRO", "B_ANT", "I_ANT", "O", "O", "O", "O", "O", "O", "O"]
    assert ex.answer_tags == ["O", "O", "O", "O", "B_ANS", "I_ANS", "I_ANS", "O", "O", "O"]
    assert time.perf_counter() - t0 < 1.0


def test_gradient_suite_under_tolerance(gradient_audit):
    errors, seconds = gradient_audit
    assert set(errors) == {"gate", "encode", "decode_step", "nll_loss", "crf", "crf_nll"}
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err:.3e}"
    assert seconds < 30.0


def test_decode_distributions_normalized():
    t0 = time.perf_counter()
    rng = RngState(17)
    _, examples = qg_overfit_corpus(2)
    models = [
        QGModel(
            GeneratorConfig.desk(word_dim=4, hidden_dim=h, coref_feat_dim=2, answer_feat_dim=2),
            build_vocab([t for ex in examples for t in ex.tokens + ex.question], 100),
            RngState(h),
        )
        for h in (3, 4, 5, 6)
    ]
    steps = 0
    for model in models:
        h = model.config.hidden_dim
        for _ in range(250):
            ex = examples[rng.next_below(len(examples))]
            enc = model.encode(model.embed_inputs(ex))
            dyn = DynamicVocab(model.vocab, ex.tokens)
            state = (Tensor(rng.uniform(-1.0, 1.0, (2 * h,))), Tensor(rng.uniform(-1.0, 1.0, (2 * h,))))
            prev = Tensor(rng.uniform(-1.0, 1.0, (model.config.word_dim,)))
            step = model.decode_step(prev, state, enc, dyn)
            assert abs(step.attention.data.sum() - 1.0) < 1e-9
            assert abs(step.dist.data.sum() - 1.0) < 1e-9
            lam = step.copy_gate.data.item()
            assert 0.0 < lam < 1.0
            steps += 1
    assert steps == 1000
    assert time.perf_counter() - t0 < 10.0


def test_crf_forward_and_viterbi_match_enumeration():
    t0 = time.perf_counter()
    rng = RngState(23)
    for _ in range(500):
        n = 1 + rng.next_below(4)
        P, A = random_crf_instance(rng, n, 3)
        log_z = crf_log_partition(Tensor(P), Tensor(A)).item()
        assert log_z == pytest.approx(brute_log_z(P, A), abs=1e-8)
        path, _ = viterbi(P, A)
        best_paths, best_score = brute_best(P, A)
        assert path in best_paths
        assert crf_path_score(P, A, path) == best_score
    assert time.perf_counter() - t0 < 30.0


def test_beam_matches_enumeration_and_greedy_floor():
    t0 = time.perf_counter()
    toys = [
        (GARDEN_PATH, GARDEN_DEFAULT, 3, EOS, 6),
        (GREEDY_TRAP, TRAP_DEFAULT, 3, EOS, 6),
    ]
    rng = RngState(0)
    while len(toys) < 100:
        table, default, vocab, eos = random_beam_toy(rng)
        _, opt_seq = enumerate_best(table, default, vocab, eos, 5)
        if width3_cannot_prune(table, default, vocab, eos, 5, opt_seq):
            toys.append((table, default, vocab, eos, 5))
    for table, default, vocab, eos, max_len in toys:
        step = make_toy(table, default)
        greedy = beam_search(step, (), SOS_START, eos, beam_size=1, max_len=max_len)
        found = beam_search(step, (), SOS_START, eos, beam_size=3, max_len=max_len)
        assert found.logp >= greedy.logp - 1e-12
        opt_logp, opt_seq = enumerate_best(table, default, vocab, eos, max_len)
        assert found.logp == pytest.approx(opt_logp, abs=1e-12)
        assert tuple(found.token_ids) == opt_seq
    assert time.perf_counter() - t0 < 30.0


def test_generator_overfits_eight_example_corpus(trained_generator):
    model, report, examples, seconds = trained_generator
    assert len(examples) == 8
    assert report.best_dev_ppl < 1.2
    assert len(report.curve) <= 300
    hits = sum(model.generate(ex, beam_size=3, max_len=30)[0] == ex.question for ex in examples)
    assert hits >= 7
    assert seconds < 300.0


def test_extractor_overfits_ten_paragraphs(trained_extractor):
    model, report, seconds = trained_extractor
    assert report.best_dev_f1 == 1.0
    predicted = {}
    gold = {}
    for para, spans in number_paragraphs(10):
        result = model.predict(para)
        predicted[para.key()] = [(s.sentence_index, s.token_start, s.token_end) for s in result.spans]
        gold[para.key()] = [(s.sentence_index, s.token_start, s.token_end) for s in spans]
    report_overlap = overlap_metrics(predicted, gold)
    for metric in ("precision", "recall"):
        e = getattr(report_overlap.exact, metric)
        p = getattr(report_overlap.proportional, metric)
        b = getattr(report_overlap.binary, metric)
        assert e <= p + 1e-12
        assert p <= b + 1e-12
    assert report_overlap.exact.f1 == 1.0
    assert seconds < 300.0


def test_gating_ablations_bit_exact():
    _, examples = qg_overfit_corpus(1)
    ex = examples[1]  # has a pronoun, an appended antecedent, and a 0.5 score
    vocab = build_vocab(ex.tokens + ex.question, 50)
    feat = 3

    # gating off: the coref slice of the encoder input is the raw embedding row
    cfg = GeneratorConfig.desk(word_dim=4, hidden_dim=3, coref_feat_dim=feat, answer_feat_dim=2, use_gating=False)
    model = QGModel(cfg, vocab, RngState(5))
    for tag, vec in zip(ex.coref_tags, model.embed_inputs(ex)):
        row = model.coref_emb.data[COREF_TAGS.index(tag)]
        assert np.array_equal(vec.data[:feat], row)

    # score path off: any score values produce bit-identical inputs
    cfg = GeneratorConfig.desk(word_dim=4, hidden_dim=3, coref_feat_dim=feat, answer_feat_dim=2, use_mention_scores=False)
    model = QGModel(cfg, vocab, RngState(5))
    other = GeneratorExample(
        tokens=list(ex.tokens),
        coref_tags=list(ex.coref_tags),
        scores=[0.937] * len(ex.tokens),
        answer_tags=list(ex.answer_tags),
        question=list(ex.question),
    )
    for a, b in zip(model.embed_inputs(ex), model.embed_inputs(other)):
        assert np.array_equal(a.data, b.data)


def test_metric_hand_oracles():
    report = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "e"]], max_order=3)
    assert report.precisions == pytest.approx([3 / 4, 2 / 3, 1 / 2])
    assert report.brevity_penalty == 1.0
    assert report.bleu == pytest.approx(0.25 ** (1 / 3), abs=1e-6)

    overlap = overlap_metrics({"p": [(0, 6, 9)]}, {"p": [(0, 5, 7)]})
    assert overlap.proportional.precision == 0.5
    assert overlap.proportional.recall == 2 / 3
    assert overlap.binary.precision == 1.0
    assert overlap.binary.recall == 1.0
    assert overlap.exact.precision == 0.0


def test_harvest_runs_byte_identical(tmp_path, trained_generator, trained_extractor):
    t0 = time.perf_counter()
    qg_model = trained_generator[0]
    ext_model = trained_extractor[0]
    outputs = []
    for name in ("one.jsonl", "two.jsonl"):
        paragraphs = [p for p, _ in number_paragraphs(4)]
        records, _ = harvest(paragraphs, ext_model, qg_model, beam_size=3)
        path = tmp_path / name
        write_records(records, path)
        outputs.append(path.read_bytes())
        by_key = {p.key(): p for p in paragraphs}
        for rec in records:
            para = by_key[(rec.article_id, rec.paragraph_index)]
            assert para.text[rec.char_start : rec.char_end] == rec.answer_text
    assert outputs[0] == outputs[1]
    assert time.perf_counter() - t0 < 60.0


def test_harvest_recovers_memorized_questions(trained_generator, trained_extractor):
    qg_model, _, examples, _ = trained_generator
    ext_model = trained_extractor[0]
    paragraphs = [p for p, _ in number_paragraphs(4)]
    records, report = harvest(paragraphs, ext_model, qg_model, beam_size=3)
    assert len(records) == 8 == report.records
    gold = [" ".join(ex.question) for ex in examples]
    hits = sum(rec.question == want for rec, want in zip(records, gold))
    assert hits >= 7
