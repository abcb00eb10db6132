"""Plumbing between the two models: building generation inputs through
the coreference transform, the span -> question harvest loop with its
accounting, and checkpoint/config loading."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qaharvest.corpus import AnswerSpan, build_vocab, paragraph_from_text, parse_squad
from qaharvest.corpus.tagging import ANSWER_TAGS, B_ANS
from qaharvest.extractor import ExtractorConfig, ExtractorModel
from qaharvest.extractor.model import ExtractionResult
from qaharvest.generator import GeneratorConfig, QGModel
from qaharvest.generator.beam import BeamResult
from qaharvest.numerics import RngState, Tensor
from qaharvest.pipeline import (
    HarvestRecord,
    PipelineConfig,
    harvest,
    load_extractor,
    load_generator,
    qg_example_from_qa,
    read_span_records,
    span_record,
    transform_for_generation,
    write_records,
    write_span_records,
)
from synth import number_paragraphs, qg_overfit_corpus, squad_json


class StubExtractor:
    def __init__(self, spans_by_key, dropped_cross_sentence=0):
        self.spans_by_key = spans_by_key
        self.dropped = dropped_cross_sentence

    def predict(self, paragraph):
        spans = list(self.spans_by_key.get(paragraph.key(), []))
        return ExtractionResult(spans, [], False, self.dropped)


class StubGenerator:
    """Emits one fixed token list and remembers what it was shown."""

    def __init__(self, tokens, flags=(), logp=-1.5):
        self.tokens = list(tokens)
        self.flags = list(flags)
        self.logp = logp
        self.seen = []

    def generate_many(self, examples, beam_size, max_len):
        self.seen.extend(examples)
        result = BeamResult([], self.logp, "unterminated" not in self.flags, list(self.flags))
        return [(list(self.tokens), result) for _ in examples]


def one_span_setup(question_tokens=("who", "won", "?"), **stub_kwargs):
    para, spans = number_paragraphs(1)[0]
    extractor = StubExtractor({para.key(): [spans[0]]})
    generator = StubGenerator(list(question_tokens), **stub_kwargs)
    return para, spans[0], extractor, generator


# ------------------------------------------------------------ transform


def test_transform_appends_antecedent_after_pronoun():
    para, spans = number_paragraphs(1)[0]
    second = [s for s in spans if s.sentence_index == 1][0]
    ex = transform_for_generation(para, second)
    original = para.sentence_surfaces(1)
    assert ex.tokens[0] == "they"
    assert ex.tokens[1] == "austin"
    assert ex.tokens[2:] == original[1:]
    assert ex.coref_tags[:2] == ["B_PRO", "B_ANT"]
    assert set(ex.coref_tags[2:]) == {"O"}
    assert ex.scores[1] == pytest.approx(0.5)
    # the answer token moved one slot right past the inserted antecedent
    assert ex.answer_tags[second.token_start + 1] == "B_ANS"


def test_transform_without_pronoun_is_identity():
    para, spans = number_paragraphs(1)[0]
    first = [s for s in spans if s.sentence_index == 0][0]
    ex = transform_for_generation(para, first)
    assert ex.tokens == para.sentence_surfaces(0)
    assert set(ex.coref_tags) == {"O"}
    assert all(s == 0.0 for s in ex.scores)
    assert ex.answer_tags[first.token_start] == "B_ANS"


def test_transform_carries_question_through():
    para, spans = number_paragraphs(1)[0]
    ex = transform_for_generation(para, spans[0], question=["who", "?"])
    assert ex.question == ["who", "?"]


def test_squad_ingestion_matches_direct_transform():
    _, qas, _ = parse_squad(squad_json(3))
    _, direct = qg_overfit_corpus(3)
    assert len(qas) == len(direct) == 6
    for qa, want in zip(qas, direct):
        got = qg_example_from_qa(qa)
        assert got.tokens == want.tokens
        assert got.coref_tags == want.coref_tags
        assert got.scores == want.scores
        assert got.answer_tags == want.answer_tags
        assert got.question == want.question


# -------------------------------------------------------------- harvest


def test_single_span_single_record_fields():
    para, span, extractor, generator = one_span_setup()
    records, report = harvest([para], extractor, generator)
    assert len(records) == 1 == report.records
    rec = records[0]
    assert rec.article_id == para.article_id
    assert rec.paragraph_index == para.paragraph_index
    assert rec.sentence_index == span.sentence_index
    assert rec.question == "who won ?"
    assert rec.token_start == span.token_start
    assert rec.token_end == span.token_end
    assert (rec.char_start, rec.char_end) == (span.char_start, span.char_end)
    assert rec.answer_text == para.text[span.char_start : span.char_end]
    assert rec.score == pytest.approx(-1.5)
    assert rec.flags == []
    assert len(generator.seen) == 1


def test_answer_bounds_roundtrip_through_source():
    paras = number_paragraphs(4)
    extractor = StubExtractor({p.key(): spans for p, spans in paras})
    generator = StubGenerator(["what", "?"])
    records, _ = harvest([p for p, _ in paras], extractor, generator)
    by_key = {p.key(): p for p, _ in paras}
    assert records
    for rec in records:
        para = by_key[(rec.article_id, rec.paragraph_index)]
        assert para.text[rec.char_start : rec.char_end] == rec.answer_text


def test_three_spans_three_records_in_span_order():
    para = paragraph_from_text("a", 0, "Bob won 4 then 15 then 16.")
    sentence = para.sentences[0]
    spans = [
        AnswerSpan(0, i, i, sentence[i].char_start, sentence[i].char_end) for i in (2, 4, 6)
    ]
    extractor = StubExtractor({para.key(): spans})
    records, report = harvest([para], extractor, StubGenerator(["what", "?"]))
    assert len(records) == 3 == report.records
    assert [r.token_start for r in records] == [2, 4, 6]


def test_zero_span_paragraph_skipped_and_counted():
    para, _ = number_paragraphs(1)[0]
    records, report = harvest([para], StubExtractor({}), StubGenerator(["x", "?"]))
    assert records == []
    assert report.paragraphs == 1
    assert report.skipped_no_spans == 1


def test_span_cap_limits_records():
    para = paragraph_from_text("a", 0, "Bob won 4 then 15 then 16.")
    sentence = para.sentences[0]
    spans = [
        AnswerSpan(0, i, i, sentence[i].char_start, sentence[i].char_end) for i in (2, 4, 6)
    ]
    extractor = StubExtractor({para.key(): spans})
    records, report = harvest([para], extractor, StubGenerator(["what", "?"]), span_cap=2)
    assert len(records) == 2
    assert report.spans_capped == 1
    assert [r.token_start for r in records] == [2, 4]


def test_missing_question_mark_appended_and_flagged():
    para, _, extractor, generator = one_span_setup(question_tokens=("who", "won"))
    records, report = harvest([para], extractor, generator)
    assert records[0].question == "who won ?"
    assert "question-mark-appended" in records[0].flags
    assert report.question_marks_appended == 1


class OneSpanAtATime:
    """A generator whose searches each decode alone."""

    def __init__(self, model):
        self.model = model

    def generate_many(self, examples, beam_size, max_len):
        return [self.model.generate_many([ex], beam_size, max_len)[0] for ex in examples]


def test_lockstep_decoding_matches_span_at_a_time():
    model, _ = tiny_generator(seed=3)
    paras = number_paragraphs(3)
    extractor = StubExtractor({p.key(): spans for p, spans in paras})
    assert all(len(spans) >= 2 for _, spans in paras)
    together, report = harvest([p for p, _ in paras], extractor, model, max_decode_len=6)
    alone, alone_report = harvest([p for p, _ in paras], extractor, OneSpanAtATime(model), max_decode_len=6)
    assert together
    assert [r.to_json() for r in together] == [r.to_json() for r in alone]
    assert report == alone_report


def test_report_counts_batched_decode_steps():
    model, _ = tiny_generator(seed=3)
    paras = number_paragraphs(2)
    extractor = StubExtractor({p.key(): spans for p, spans in paras})
    _, report = harvest([p for p, _ in paras], extractor, model, max_decode_len=6)
    # every search here runs to the cap, so each paragraph takes 6 steps
    # and scores more than one hypothesis per step from step 2 on
    assert report.unterminated == report.records
    assert report.decode_steps == 6 * len(paras)
    assert report.decode_rows > report.decode_steps * max(len(spans) for _, spans in paras)
    per_step = report.decode_rows / report.decode_steps
    assert f"{per_step:.1f} hypotheses per step" in report.summary()


def test_harvest_builds_no_tape(monkeypatch):
    paras = number_paragraphs(2)
    surfaces = [t.surface for p, _ in paras for s in p.sentences for t in s]
    cfg = ExtractorConfig.desk()
    extractor = ExtractorModel(cfg, build_vocab(surfaces, 100), build_vocab(list("".join(surfaces)), 100), RngState(2))
    # every token tags B_ANS, so every paragraph yields spans to decode
    extractor.emit_bias.data[ANSWER_TAGS.index(B_ANS)] = 100.0
    generator = QGModel(GeneratorConfig.desk(), build_vocab(surfaces, 100), RngState(3))
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    records, _ = harvest([p for p, _ in paras], extractor, generator, span_cap=3, max_decode_len=4)
    assert len(records) == 3 * len(paras)
    assert len(built) == 0


def test_unterminated_flag_propagates():
    para, _, extractor, generator = one_span_setup(flags=["unterminated"])
    records, report = harvest([para], extractor, generator)
    assert "unterminated" in records[0].flags
    assert report.unterminated == 1


def test_cross_sentence_drops_counted():
    para, spans = number_paragraphs(1)[0]
    extractor = StubExtractor({para.key(): spans}, dropped_cross_sentence=2)
    _, report = harvest([para], extractor, StubGenerator(["x", "?"]))
    assert report.cross_sentence_dropped == 2


def test_record_json_roundtrip():
    rec = HarvestRecord("art", 3, 1, "who won ?", "42", 2, 2, 8, 10, -0.25, ["question-mark-appended"])
    back = json.loads(rec.to_json())
    assert back == dataclasses.asdict(rec)


def test_write_records_is_jsonl(tmp_path):
    para, _, extractor, generator = one_span_setup()
    records, _ = harvest([para], extractor, generator)
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["question"] == "who won ?"


def test_repeated_harvest_byte_identical(tmp_path):
    paras = number_paragraphs(3)
    outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        extractor = StubExtractor({p.key(): spans for p, spans in paras})
        records, _ = harvest([p for p, _ in paras], extractor, StubGenerator(["what", "?"]))
        path = tmp_path / name
        write_records(records, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


# --------------------------------------------------------- span records


def test_span_records_roundtrip(tmp_path):
    paras = number_paragraphs(2)
    rows = [span_record(p, s) for p, spans in paras for s in spans]
    path = tmp_path / "spans.jsonl"
    write_span_records(rows, path)
    grouped = read_span_records(path)
    for para, spans in paras:
        assert grouped[para.key()] == [(s.sentence_index, s.token_start, s.token_end) for s in spans]


# ------------------------------------------------------ config, loading


def test_pipeline_config_roundtrip(tmp_path):
    cfg = PipelineConfig("e.ckpt", "q.ckpt", "qv.json", "ew.json", "ec.json", beam_size=5, span_cap=7)
    path = tmp_path / "pipe.json"
    cfg.to_json(path)
    assert PipelineConfig.from_json(path) == cfg


@pytest.mark.parametrize("field", ["beam_size", "max_decode_len", "span_cap"])
def test_pipeline_config_rejects_widths_below_one(field):
    with pytest.raises(ValueError, match=field):
        PipelineConfig("e.ckpt", "q.ckpt", "qv.json", "ew.json", "ec.json", **{field: 0})


def test_pipeline_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps({"extractor_checkpoint": "x", "surprise": 1}))
    with pytest.raises(ValueError, match="surprise"):
        PipelineConfig.from_json(path)


@pytest.mark.parametrize(
    "raw, needle",
    [([], "must be a JSON object"), (3, "must be a JSON object"), ({"extractor_checkpoint": "x"}, "missing")],
)
def test_pipeline_config_rejects_non_configs(tmp_path, raw, needle):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=needle):
        PipelineConfig.from_json(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@pytest.mark.parametrize("cls", [GeneratorConfig, ExtractorConfig, PipelineConfig])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_from_dict_builds_or_raises_value_error(cls, data):
    names = [f.name for f in dataclasses.fields(cls)] + ["stranger"]
    raw = data.draw(st.dictionaries(st.sampled_from(names), JSON_VALUES))
    try:
        config = cls.from_dict(raw)
    except ValueError:
        return
    # no JSON list or object gets into a built config
    assert all(isinstance(getattr(config, f.name), (str, int, float, type(None))) for f in dataclasses.fields(cls))


def tiny_generator(seed=0):
    cfg = GeneratorConfig.desk(word_dim=4, hidden_dim=3, coref_feat_dim=2, answer_feat_dim=2)
    _, examples = qg_overfit_corpus(1)
    tokens = [t for ex in examples for t in ex.tokens + ex.question]
    vocab = build_vocab(tokens, 50)
    return QGModel(cfg, vocab, RngState(seed)), examples


def test_load_generator_restores_model(tmp_path):
    model, examples = tiny_generator()
    ckpt = tmp_path / "qg.ckpt"
    vocab_path = tmp_path / "qg_vocab.json"
    model.store.save(ckpt, meta={"config": dataclasses.asdict(model.config)})
    model.vocab.save(vocab_path)
    loaded = load_generator(ckpt, vocab_path)
    assert loaded.config == model.config
    for p in model.store:
        assert (loaded.store[p.name].data == p.data).all()
    assert loaded.generate(examples[0], 3, 30)[0] == model.generate(examples[0], 3, 30)[0]


def saved_extractor(tmp_path, cfg, meta):
    """An extractor over ``number_paragraphs(2)``, saved with ``meta``
    beside its vocabularies; returns the model and its three paths."""
    surfaces = [t.surface for p, _ in number_paragraphs(2) for s in p.sentences for t in s]
    words = build_vocab(surfaces, 100)
    chars = build_vocab([c for w in surfaces for c in w], 100)
    model = ExtractorModel(cfg, words, chars, RngState(4))
    ckpt = tmp_path / "ext.ckpt"
    model.store.save(ckpt, meta=meta)
    words.save(tmp_path / "w.json")
    chars.save(tmp_path / "c.json")
    return model, (ckpt, tmp_path / "w.json", tmp_path / "c.json")


def test_load_extractor_restores_model(tmp_path):
    cfg = ExtractorConfig.desk(word_dim=4, char_dim=2, char_hidden=2, ner_dim=2, hidden_dim=3)
    model, paths = saved_extractor(tmp_path, cfg, {"config": dataclasses.asdict(cfg)})
    loaded = load_extractor(*paths)
    assert loaded.config == cfg
    para = number_paragraphs(2)[0][0]
    assert loaded.predict(para).tags == model.predict(para).tags


def test_load_extractor_refuses_checkpoint_without_config(tmp_path):
    # desk dims: the desk preset's shapes would fit
    _, paths = saved_extractor(tmp_path, ExtractorConfig.desk(), None)
    with pytest.raises(ValueError, match="no embedded ExtractorConfig"):
        load_extractor(*paths)


def test_load_rejects_vocab_of_wrong_size(tmp_path):
    model, _ = tiny_generator()
    ckpt = tmp_path / "qg.ckpt"
    model.store.save(ckpt, meta={"config": dataclasses.asdict(model.config)})
    other = build_vocab(["just", "these"], 10)
    other.save(tmp_path / "small.json")
    with pytest.raises(ValueError, match="shape mismatch"):
        load_generator(ckpt, tmp_path / "small.json")
