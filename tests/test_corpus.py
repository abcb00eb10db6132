import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaharvest.corpus import (
    AnswerSpan,
    CrossSentenceAnswerError,
    Vocabulary,
    bio_tag_answer,
    build_vocab,
    char_to_token_span,
    paragraph_from_text,
    parse_squad,
    tokenize,
)
from qaharvest.corpus.vocab import EOS_ID, PAD_ID, SOS_ID, UNK_ID


# ----------------------------------------------------------- tokenize


def test_tokenize_basic_sentence():
    toks = tokenize("Tesla died on 7 January 1943.")
    assert [t.surface for t in toks] == ["tesla", "died", "on", "7", "january", "1943", "."]
    text = "Tesla died on 7 January 1943."
    for t in toks:
        assert text[t.char_start : t.char_end].lower() == t.surface


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_number_dash():
    assert [t.surface for t in tokenize("49-15")] == ["49", "-", "15"]


def test_tokenize_repeated_punct_merges():
    assert [t.surface for t in tokenize("49--15")] == ["49", "--", "15"]
    assert [t.surface for t in tokenize("what?!")] == ["what", "?", "!"]


def test_tokenize_apostrophe():
    assert [t.surface for t in tokenize("Tesla's")] == ["tesla", "'", "s"]


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_tokenize_offsets_roundtrip(text):
    prev_end = 0
    for t in tokenize(text):
        assert text[t.char_start : t.char_end].lower() == t.surface
        assert t.char_start >= prev_end
        assert t.char_end > t.char_start
        prev_end = t.char_end


# ----------------------------------------------------- sentence split


def test_sentence_split_two_sentences():
    p = paragraph_from_text("a", 0, "The cat sat. The dog ran.")
    assert len(p.sentences) == 2
    assert p.sentence_surfaces(0) == ["the", "cat", "sat", "."]
    assert p.sentence_surfaces(1) == ["the", "dog", "ran", "."]


def test_sentence_split_needs_capital_or_digit():
    p = paragraph_from_text("a", 0, "He left u.s. troops behind. 7 stayed.")
    # "u.s." periods touch the next word without both gap+capital
    assert len(p.sentences) == 2
    assert p.sentence_surfaces(1) == ["7", "stayed", "."]


def test_sentence_split_question_mark():
    p = paragraph_from_text("a", 0, "Who won? They did.")
    assert len(p.sentences) == 2


def test_sentence_split_no_terminal():
    p = paragraph_from_text("a", 0, "no terminal punctuation here")
    assert len(p.sentences) == 1


def reference_split(text, tokens):
    """The sentence splitter's earlier per-character terminal test."""
    sentences, current = [], []
    for idx, tok in enumerate(tokens):
        current.append(tok)
        if not all(c in ".?!" for c in tok.surface):
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


@given(st.lists(st.sampled_from(list(string.ascii_letters + string.digits + ".?! ") + ["u.s."]), max_size=60))
@settings(max_examples=300, deadline=None)
def test_sentence_split_matches_reference(pieces):
    text = "".join(pieces)
    tokens = tokenize(text)
    p = paragraph_from_text("a", 0, text)
    assert p.sentences == (reference_split(text, tokens) if tokens else [])


# ----------------------------------------------------------- span ops


def make_para(text):
    return paragraph_from_text("art", 0, text)


def test_char_to_token_span_exact():
    p = make_para("the arizona cardinals")
    span, snapped = char_to_token_span(p, 4, "arizona cardinals")
    assert (span.token_start, span.token_end) == (1, 2)
    assert span.sentence_index == 0
    assert not snapped
    assert p.text[span.char_start : span.char_end] == "arizona cardinals"


def test_char_to_token_span_single_token():
    p = make_para("the arizona cardinals")
    span, snapped = char_to_token_span(p, 4, "arizona")
    assert (span.token_start, span.token_end) == (1, 1)
    assert not snapped


def test_char_to_token_span_snaps_mid_token():
    p = make_para("the arizona cardinals")
    span, snapped = char_to_token_span(p, 6, "izona card")
    assert (span.token_start, span.token_end) == (1, 2)
    assert snapped


def test_char_to_token_span_out_of_bounds():
    p = make_para("short text")
    with pytest.raises(ValueError):
        char_to_token_span(p, 1000, "x")


def test_char_to_token_span_cross_sentence():
    p = make_para("First part. Second part.")
    start = p.text.index("part. Second")
    with pytest.raises(CrossSentenceAnswerError):
        char_to_token_span(p, start, "part. Second")


def test_bio_tag_answer_table_layout():
    span = AnswerSpan(0, 4, 6, 0, 0)
    tags = bio_tag_answer(10, span)
    assert tags == ["O", "O", "O", "O", "B_ANS", "I_ANS", "I_ANS", "O", "O", "O"]


def test_bio_tag_answer_edges():
    assert bio_tag_answer(3, AnswerSpan(0, 0, 0, 0, 0)) == ["B_ANS", "O", "O"]
    assert bio_tag_answer(2, AnswerSpan(0, 0, 1, 0, 0)) == ["B_ANS", "I_ANS"]


@given(st.integers(1, 20), st.data())
@settings(max_examples=200, deadline=None)
def test_bio_roundtrip(n, data):
    start = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(start, n - 1))
    tags = bio_tag_answer(n, AnswerSpan(0, start, end, 0, 0))
    # recover the unique span from the tags
    b = tags.index("B_ANS")
    e = b
    while e + 1 < n and tags[e + 1] == "I_ANS":
        e += 1
    assert (b, e) == (start, end)
    assert tags.count("B_ANS") == 1


# -------------------------------------------------------------- vocab


def test_vocab_specials():
    v = build_vocab(["a", "b", "a"])
    assert v.id_of("<pad>") == PAD_ID
    assert v.id_of("<unk>") == UNK_ID
    assert v.id_of("<sos>") == SOS_ID
    assert v.id_of("<eos>") == EOS_ID


def test_vocab_tie_break():
    v = build_vocab(["a", "b", "a", "c"], limit=2)
    assert "a" in v and "b" in v and "c" not in v
    assert v.id_of("c") == UNK_ID


def test_vocab_limit_generous():
    v = build_vocab(["x", "y", "z"], limit=100)
    assert all(t in v for t in ("x", "y", "z"))
    assert len(v) == 7


def test_vocab_order_is_frequency_then_token():
    v = build_vocab(["b", "b", "a", "c", "a", "a"], limit=10)
    assert v.content_tokens() == ["a", "b", "c"]


def test_vocab_roundtrip(tmp_path):
    v = build_vocab(["way", "of", "the", "way", "the", "the"], limit=5)
    path = tmp_path / "vocab.json"
    v.save(path)
    w = Vocabulary.load(path)
    assert w.content_tokens() == v.content_tokens()
    assert w.encode(["the", "missing"]) == [v.id_of("the"), UNK_ID]


@given(st.lists(st.sampled_from("abcdefg"), max_size=60), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_vocab_monotonic_in_limit(stream, limit):
    small = set(build_vocab(stream, limit).content_tokens())
    big = set(build_vocab(stream, limit + 1).content_tokens())
    assert small <= big


# -------------------------------------------------------------- squad


def minimal_squad(context, qas):
    return json.dumps({"data": [{"title": "t", "paragraphs": [{"context": context, "qas": qas}]}]})


def test_parse_squad_minimal():
    raw = minimal_squad(
        "The panthers defeated the cardinals.",
        [{"id": "1", "question": "Who won?", "answers": [{"text": "panthers", "answer_start": 4}]}],
    )
    paragraphs, examples, report = parse_squad(raw)
    assert len(paragraphs) == 1 and len(examples) == 1
    ex = examples[0]
    assert ex.sentence[ex.answer.token_start] == "panthers"
    assert ex.gold_question == ["who", "won", "?"]
    assert ex.answer_bio[ex.answer.token_start] == "B_ANS"
    assert report.examples == 1 and report.skipped_total() == 0


def test_parse_squad_snapped_flagged():
    raw = minimal_squad(
        "The panthers won.",
        [{"id": "1", "question": "Who?", "answers": [{"text": "anthers", "answer_start": 5}]}],
    )
    _, examples, report = parse_squad(raw)
    assert len(examples) == 1
    assert examples[0].snapped
    assert report.snapped == 1


def test_parse_squad_empty_answers_counted():
    raw = minimal_squad("Some context here.", [{"id": "1", "question": "Q?", "answers": []}])
    _, examples, report = parse_squad(raw)
    assert examples == []
    assert report.skipped_no_answers == 1


def test_parse_squad_mismatch_counted():
    raw = minimal_squad(
        "Some context here.",
        [{"id": "1", "question": "Q?", "answers": [{"text": "absent", "answer_start": 0}]}],
    )
    _, examples, report = parse_squad(raw)
    assert examples == []
    assert report.skipped_mismatch == 1


def test_parse_squad_cross_sentence_counted():
    raw = minimal_squad(
        "First part. Second part.",
        [{"id": "1", "question": "Q?", "answers": [{"text": "part. Second", "answer_start": 6}]}],
    )
    _, examples, report = parse_squad(raw)
    assert examples == []
    assert report.skipped_cross_sentence == 1


def test_parse_squad_bad_json():
    with pytest.raises(json.JSONDecodeError):
        parse_squad(b"not json")


def test_parse_squad_missing_data():
    with pytest.raises(ValueError):
        parse_squad(json.dumps({"other": []}))
