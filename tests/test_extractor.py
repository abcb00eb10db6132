import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaharvest.corpus.tagging import ANSWER_TAGS, AnswerSpan, bio_tag_answer
from qaharvest.corpus.tokens import paragraph_from_text
from qaharvest.corpus.vocab import Vocabulary, build_vocab
from qaharvest.extractor import (
    ExtractorConfig,
    ExtractorModel,
    crf_log_partition,
    crf_nll,
    crf_score,
    decode_spans,
    flat_span_to_answer,
    make_extractor_example,
    paragraph_bio,
    rule_ner_tags,
    sentence_bounds,
    train_extractor,
    viterbi,
)
from qaharvest.extractor.train import dev_exact_f1
from qaharvest.numerics import Parameter, RngState, Tensor, grad_check
from synth import brute_best, brute_log_z, crf_all_paths, crf_path_score, number_paragraphs, random_crf_instance

TAG_ID = {t: i for i, t in enumerate(ANSWER_TAGS)}


def tiny_config(**overrides):
    base = dict(
        word_dim=6,
        char_dim=3,
        char_hidden=3,
        ner_dim=3,
        hidden_dim=4,
        depth=2,
        vocab_limit=50,
        char_vocab_limit=50,
        dropout=0.0,
        batch_size=2,
        lr=0.5,
        epochs=3,
    )
    base.update(overrides)
    return ExtractorConfig(**base)


def tiny_model(seed=0, **overrides):
    cfg = tiny_config(**overrides)
    words = build_vocab("alice earned 42 points in austin bob added 17 more . 5".split(), 50)
    chars = build_vocab(list("abcdefghijklmnopqrstuvwxyz0123456789."), 50)
    return ExtractorModel(cfg, words, chars, RngState(seed))


# ------------------------------------------------------------------ ner


def test_ner_tags_align_and_repeat():
    para = paragraph_from_text("a", 0, "Tesla moved to New York in June 1884. He stayed.")
    tags = rule_ner_tags(para)
    assert len(tags) == sum(len(s) for s in para.sentences)
    assert tags == rule_ner_tags(para)


def test_ner_rules():
    para = paragraph_from_text("a", 0, "Tesla won 49 games in June 1884. He lost 3.")
    surfaces = [t.surface for s in para.sentences for t in s]
    tags = dict(zip(surfaces, rule_ner_tags(para)))
    assert tags["tesla"] == "PER"
    assert tags["won"] == "O"
    assert tags["49"] == "NUM"
    assert tags["june"] == "DATE"
    assert tags["1884"] == "DATE"
    assert tags["he"] == "O"  # capitalized pronouns stay O
    assert tags["3"] == "NUM"


def test_ner_year_range():
    para = paragraph_from_text("a", 0, "0999 1000 2100 2101")
    assert rule_ner_tags(para) == ["NUM", "DATE", "DATE", "NUM"]


# ------------------------------------------------------------- char_rep


def test_char_rep_zero_params_zero():
    model = tiny_model()
    for p in model.store:
        p.data[...] = 0.0
    rep = model.char_rep("abc")
    assert rep.data.shape == (2 * model.config.char_hidden,)
    assert np.all(rep.data == 0.0)


def test_char_rep_pure():
    model = tiny_model()
    a = model.char_rep("austin")
    b = model.char_rep("austin")
    assert np.array_equal(a.data, b.data)


def test_char_rep_single_char_compose_oracle():
    from qaharvest.numerics import lstm_step

    model = tiny_model(seed=3)
    ch = model.config.char_hidden
    rep = model.char_rep("q")
    emb = Tensor(model.char_emb.data[model.char_vocab.id_of("q")].copy())
    zeros = lambda: Tensor(np.zeros(ch))
    fh, _ = lstm_step(emb, zeros(), zeros(), model.char_fwd)
    bh, _ = lstm_step(emb, zeros(), zeros(), model.char_bwd)
    assert np.allclose(rep.data, np.concatenate([fh.data, bh.data]), atol=1e-15)


def test_char_rep_empty_word_rejected():
    with pytest.raises(ValueError):
        tiny_model().char_rep("")


# ------------------------------------------------------------ emissions


def test_emissions_zero_params_uniform():
    model = tiny_model()
    for p in model.store:
        p.data[...] = 0.0
    P = model.emissions(["alice", "earned", "42"], ["PER", "O", "NUM"])
    assert P.data.shape == (3, 3)
    assert np.allclose(P.data, 1.0 / 3.0, atol=1e-15)


def test_emissions_rows_are_probabilities():
    model = tiny_model(seed=9)
    P = model.emissions(["alice", "earned", "42", "points"], ["PER", "O", "NUM", "O"])
    assert P.data.shape == (4, 3)
    assert np.allclose(P.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(P.data > 0.0)


def test_emissions_raw_logits_flag():
    model = tiny_model(seed=9, normalize_emissions=False)
    P = model.emissions(["alice", "earned"], ["PER", "O"])
    assert not np.allclose(P.data.sum(axis=1), 1.0, atol=1e-6)


def test_emissions_misaligned_rejected():
    with pytest.raises(ValueError):
        tiny_model().emissions(["a", "b"], ["O"])
    with pytest.raises(ValueError):
        tiny_model().emissions([], [])


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("depth", [1, 2])
def test_emission_rows_match_tape_emissions_bitwise(normalize, depth):
    model = tiny_model(seed=5, normalize_emissions=normalize, depth=depth, init_scale=1.0)
    # repeated surfaces, one-character words, and "%" outside the char vocab
    surfaces = ["alice", "earned", "42", "q", "points", "alice", "%x", ".", "42", "austin"]
    ner = ["PER", "O", "NUM", "O", "O", "PER", "O", "O", "NUM", "LOC"]
    assert model.char_vocab.id_of("%") == model.char_vocab.id_of("<unk>")
    assert np.array_equal(model.emission_rows(surfaces, ner), model.emissions(surfaces, ner).data)


def test_emission_rows_misaligned_rejected():
    with pytest.raises(ValueError):
        tiny_model().emission_rows(["a", "b"], ["O"])
    with pytest.raises(ValueError):
        tiny_model().emission_rows([], [])


# ------------------------------------------------------------------ crf


def zeros_crf(n, k):
    return Tensor(np.zeros((n, k))), Tensor(np.zeros((k + 2, k + 2)))


def test_crf_nll_all_zero_symmetry():
    P, A = zeros_crf(2, 2)
    for tags in [[0, 0], [0, 1], [1, 0], [1, 1]]:
        assert crf_nll(P, A, tags).item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_crf_nll_single_token_hand_oracle():
    P = Tensor(np.array([[1.0, 0.0]]))
    A = Tensor(np.zeros((4, 4)))
    assert crf_log_partition(P, A).item() == pytest.approx(math.log(math.e + 1.0), abs=1e-12)
    assert crf_nll(P, A, [0]).item() == pytest.approx(math.log(math.e + 1.0) - 1.0, abs=1e-12)


def test_crf_score_includes_boundaries():
    P = Tensor(np.array([[0.5, 0.0], [0.0, 0.25]]))
    A = Tensor(np.arange(16, dtype=float).reshape(4, 4))
    # tags (0, 1): START->0 is A[2,0]=8, 0->1 is A[0,1]=1, 1->STOP is A[1,3]=7
    assert crf_score(P, A, [0, 1]).item() == pytest.approx(0.5 + 0.25 + 8 + 1 + 7)


def test_crf_shape_validation():
    P = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="does not fit"):
        crf_nll(P, Tensor(np.zeros((4, 4))), [0, 0])
    with pytest.raises(ValueError, match="length"):
        crf_nll(P, Tensor(np.zeros((5, 5))), [0])
    with pytest.raises(ValueError, match="out of range"):
        crf_nll(P, Tensor(np.zeros((5, 5))), [0, 3])
    with pytest.raises(ValueError, match="empty"):
        crf_nll(Tensor(np.zeros((0, 3))), Tensor(np.zeros((5, 5))), [])


def test_crf_nll_is_one_tape_node():
    P = Parameter("P", np.zeros((3, 3)))
    A = Parameter("A", np.zeros((5, 5)))
    loss = crf_nll(P, A, [0, 1, 2])
    assert loss._parents == (P, A)


def crf_counts(path, n, k):
    """Emission and transition feature counts of one tag path."""
    cp, ca = np.zeros((n, k)), np.zeros((k + 2, k + 2))
    cp[np.arange(n), list(path)] = 1.0
    for a, b in zip((k,) + tuple(path), tuple(path) + (k + 1,)):
        ca[a, b] += 1.0
    return cp, ca


def test_crf_nll_gradient_is_expected_minus_gold_counts():
    rng = RngState(14)
    k = 3
    for n in (1, 2, 3, 4):  # n = 1 has no token-to-token transition
        P_arr, A_arr = random_crf_instance(rng, n, k)
        tags = [rng.next_below(k) for _ in range(n)]
        log_z = brute_log_z(P_arr, A_arr)
        gold_p, gold_a = crf_counts(tags, n, k)
        want_p, want_a = -gold_p, -gold_a
        for path, score in crf_all_paths(P_arr, A_arr):
            cp, ca = crf_counts(path, n, k)
            want_p += math.exp(score - log_z) * cp
            want_a += math.exp(score - log_z) * ca
        P, A = Parameter("P", P_arr), Parameter("A", A_arr)
        crf_nll(P, A, tags).backward()
        assert np.abs(P.grad - want_p).max() <= 1e-12
        assert np.abs(A.grad - want_a).max() <= 1e-12


def test_crf_nll_loss_bits_pinned():
    # float.hex() of the loss, recorded from the tape composition this node replaced
    pinned = {(31, 1): "0x1.619d46b214a1ep+2", (32, 9): "0x1.513cd04bc4cddp+3", (33, 130): "0x1.dafd781232f79p+7"}
    for (seed, n), want in pinned.items():
        rng = RngState(seed)
        P_arr, A_arr = random_crf_instance(rng, n, 3)
        tags = [rng.next_below(3) for _ in range(n)]
        assert crf_nll(Tensor(P_arr), Tensor(A_arr), tags).item().hex() == want


def test_crf_forward_matches_enumeration():
    rng = RngState(11)
    for _ in range(120):
        n = 1 + rng.next_below(4)
        P_arr, A_arr = random_crf_instance(rng, n, 3)
        log_z = crf_log_partition(Tensor(P_arr), Tensor(A_arr)).item()
        assert log_z == pytest.approx(brute_log_z(P_arr, A_arr), abs=1e-8)


def test_crf_path_probabilities_sum_to_one():
    rng = RngState(12)
    for _ in range(40):
        n = 1 + rng.next_below(4)
        P_arr, A_arr = random_crf_instance(rng, n, 3)
        log_z = crf_log_partition(Tensor(P_arr), Tensor(A_arr)).item()
        total = sum(math.exp(s - log_z) for _, s in crf_all_paths(P_arr, A_arr))
        assert total == pytest.approx(1.0, abs=1e-8)
        for path, s in crf_all_paths(P_arr, A_arr):
            assert log_z >= s - 1e-10


def test_crf_nll_nonnegative_and_gold_dominated():
    rng = RngState(13)
    for _ in range(40):
        n = 1 + rng.next_below(4)
        P_arr, A_arr = random_crf_instance(rng, n, 3)
        tags = [rng.next_below(3) for _ in range(n)]
        loss = crf_nll(Tensor(P_arr), Tensor(A_arr), tags).item()
        assert loss >= -1e-10
        assert math.exp(-loss) <= 1.0 + 1e-12


def test_crf_gradients():
    rng = RngState(21)
    P_arr, A_arr = random_crf_instance(rng, 4, 3)
    P = Parameter("P", P_arr)
    A = Parameter("A", A_arr)
    err = grad_check(lambda: crf_nll(P, A, [1, 2, 0, 1]), [P, A])
    assert err < 1e-4


# -------------------------------------------------------------- viterbi


def test_viterbi_hand_oracle():
    P = np.array([[1.0, 0.0], [0.0, 2.0]])
    A = np.zeros((4, 4))
    path, score = viterbi(P, A)
    assert path == [0, 1]
    assert score == pytest.approx(3.0)


def test_viterbi_single_token():
    P = np.array([[0.1, 0.9, 0.3]])
    A = np.zeros((5, 5))
    A[3, 2] = 2.0  # START->tag2 bonus flips the argmax
    path, score = viterbi(P, A)
    assert path == [2]
    assert score == pytest.approx(2.3)


def test_viterbi_empty_sequence():
    A = np.zeros((5, 5))
    A[3, 4] = 0.75
    path, score = viterbi(np.zeros((0, 3)), A)
    assert path == []
    assert score == pytest.approx(0.75)


def test_viterbi_ties_prefer_lowest_tag():
    path, score = viterbi(np.zeros((3, 3)), np.zeros((5, 5)))
    assert path == [0, 0, 0]
    assert score == 0.0


def test_viterbi_matches_enumeration():
    rng = RngState(14)
    for _ in range(120):
        n = 1 + rng.next_below(4)
        P_arr, A_arr = random_crf_instance(rng, n, 3)
        path, score = viterbi(P_arr, A_arr)
        best_paths, best_score = brute_best(P_arr, A_arr)
        # re-scoring the DP path with the oracle's accumulation makes the
        # comparison exact; the DP total itself differs only by float
        # association order
        assert crf_path_score(P_arr, A_arr, path) == best_score
        assert score == pytest.approx(best_score, abs=1e-9)
        assert path in best_paths
        if len(best_paths) == 1:
            assert path == best_paths[0]


def test_viterbi_dominates_gold():
    rng = RngState(15)
    for _ in range(40):
        n = 1 + rng.next_below(4)
        P_arr, A_arr = random_crf_instance(rng, n, 3)
        _, score = viterbi(P_arr, A_arr)
        gold = [rng.next_below(3) for _ in range(n)]
        assert score >= crf_path_score(P_arr, A_arr, gold) - 1e-12


# ---------------------------------------------------------- decode_spans


def test_decode_spans_basic():
    out = decode_spans(["O", "B_ANS", "I_ANS", "O"])
    assert out.spans == ((1, 2),)
    assert not out.repaired


def test_decode_spans_adjacent_b():
    out = decode_spans(["B_ANS", "B_ANS"])
    assert out.spans == ((0, 0), (1, 1))


def test_decode_spans_bare_i_repaired():
    out = decode_spans(["O", "I_ANS", "O"])
    assert out.spans == ((1, 1),)
    assert out.repaired


def test_decode_spans_trailing_open():
    assert decode_spans(["O", "B_ANS", "I_ANS"]).spans == ((1, 2),)


def test_decode_spans_rejects_unknown():
    with pytest.raises(ValueError):
        decode_spans(["O", "B_PRO"])


@given(st.integers(1, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_decode_roundtrip_single_span(n, data):
    start = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(start, n - 1))
    span = AnswerSpan(0, start, end, 0, 1)
    out = decode_spans(bio_tag_answer(n, span))
    assert out.spans == ((start, end),)
    assert not out.repaired


@given(st.lists(st.sampled_from(ANSWER_TAGS), max_size=12))
@settings(max_examples=150, deadline=None)
def test_decode_spans_wellformed(tags):
    out = decode_spans(tags)
    prev_end = -1
    for a, b in out.spans:
        assert 0 <= a <= b < len(tags)
        assert a > prev_end
        prev_end = b
    opens = sum(1 for t in tags if t == "B_ANS")
    bare = sum(1 for i, t in enumerate(tags) if t == "I_ANS" and (i == 0 or tags[i - 1] == "O"))
    assert len(out.spans) == opens + bare
    assert out.repaired == (bare > 0)


# ----------------------------------------------------------------- data


def test_sentence_bounds_and_flat_mapping():
    para = paragraph_from_text("a", 0, "Alice ran fast. Bob sat.")
    bounds = sentence_bounds(para)
    assert bounds == [(0, 4), (4, 7)]
    ans = flat_span_to_answer(para, 4, 5)
    assert ans.sentence_index == 1 and ans.token_range() == (0, 1)
    assert para.text[ans.char_start : ans.char_end] == "Bob sat"
    assert flat_span_to_answer(para, 2, 5) is None  # crosses the boundary
    with pytest.raises(IndexError):
        flat_span_to_answer(para, 99, 99)


def test_paragraph_bio_places_spans():
    para = paragraph_from_text("a", 0, "Alice ran fast. Bob sat.")
    spans = [AnswerSpan(0, 1, 2, 6, 14), AnswerSpan(1, 0, 0, 16, 19)]
    tags, skipped = paragraph_bio(para, spans)
    assert tags == ["O", "B_ANS", "I_ANS", "O", "B_ANS", "O", "O"]
    assert skipped == 0


def test_paragraph_bio_skips_overlaps_longest_first():
    para = paragraph_from_text("a", 0, "Alice ran very fast today.")
    long = AnswerSpan(0, 1, 3, 0, 1)
    short = AnswerSpan(0, 1, 1, 0, 1)
    tags, skipped = paragraph_bio(para, [short, long])
    assert tags[1:4] == ["B_ANS", "I_ANS", "I_ANS"]
    assert skipped == 1


def test_make_extractor_example_aligned():
    para, spans = number_paragraphs(1)[0]
    ex = make_extractor_example(para, spans)
    n = sum(len(s) for s in para.sentences)
    assert len(ex.tags) == len(ex.ner_tags) == n
    assert ex.skipped_overlaps == 0
    assert ex.tags.count("B_ANS") == len(spans)


# ---------------------------------------------------------------- model


def test_predict_deterministic_and_sentence_local():
    model = tiny_model(seed=5)
    para, _ = number_paragraphs(2)[1]
    r1 = model.predict(para)
    r2 = model.predict(para)
    assert [s.token_range() for s in r1.spans] == [s.token_range() for s in r2.spans]
    assert r1.tags == r2.tags
    bounds = sentence_bounds(para)
    for span in r1.spans:
        lo, hi = bounds[span.sentence_index]
        assert lo + span.token_end < hi


def test_model_nll_finite_and_positive():
    model = tiny_model(seed=6)
    para, spans = number_paragraphs(1)[0]
    ex = make_extractor_example(para, spans)
    loss = model.nll(ex)
    assert math.isfinite(loss.item())
    assert loss.item() > 0.0


def test_model_gradients_all_groups():
    cfg = tiny_config(word_dim=4, char_dim=2, char_hidden=2, ner_dim=2, hidden_dim=3)
    words = build_vocab("bob won 42 games".split(), 50)
    chars = build_vocab(list("bownga42s"), 50)
    model = ExtractorModel(cfg, words, chars, RngState(8))
    para = paragraph_from_text("g", 0, "Bob won 42 games.")
    spans = [AnswerSpan(0, 2, 2, 8, 10)]
    ex = make_extractor_example(para, spans)
    err = grad_check(lambda: model.nll(ex), list(model.store))
    assert err < 1e-4


# ---------------------------------------------------------------- train


def overfit_set(count):
    return [make_extractor_example(p, s) for p, s in number_paragraphs(count)]


def test_train_seeded_determinism():
    data = overfit_set(3)
    runs = []
    for _ in range(2):
        model = ExtractorModel(
            tiny_config(epochs=2, batch_size=3),
            build_vocab([w for ex in data for w in ex.surfaces()], 50),
            build_vocab([c for ex in data for w in ex.surfaces() for c in w], 50),
            RngState(4),
        )
        report = train_extractor(model, data, data, rng=RngState(4))
        runs.append([(e.epoch, e.train_nll, e.dev_f1) for e in report.curve])
    assert runs[0] == runs[1]


def test_train_overfits_small_set():
    data = overfit_set(4)
    cfg = ExtractorConfig.desk(
        word_dim=12,
        char_dim=6,
        char_hidden=8,
        ner_dim=6,
        hidden_dim=12,
        epochs=200,
        stop_at_f1=1.0,
        seed=1,
    )
    words = build_vocab([w for ex in data for w in ex.surfaces()], 200)
    chars = build_vocab([c for ex in data for w in ex.surfaces() for c in w], 100)
    model = ExtractorModel(cfg, words, chars, RngState(1))
    report = train_extractor(model, data, data, rng=RngState(1))
    assert not report.aborted
    assert report.best_dev_f1 == 1.0
    assert dev_exact_f1(model, data) == 1.0


def overfit_model(data, cls=ExtractorModel, **overrides):
    return cls(
        tiny_config(**overrides),
        build_vocab([w for ex in data for w in ex.surfaces()], 50),
        build_vocab([c for ex in data for w in ex.surfaces() for c in w], 50),
        RngState(4),
    )


def test_train_aborts_on_nan_and_restores():
    data = overfit_set(3)

    class Sabotaged(ExtractorModel):
        train_calls = 0

        def nll(self, ex, train=False, rng=None):
            if train:
                type(self).train_calls += 1
                # poison epoch 2's last batch, after its first batch stepped
                if type(self).train_calls == 2 * len(data):
                    return Tensor(math.nan)
            return super().nll(ex, train, rng)

    model = overfit_model(data, Sabotaged, epochs=5, batch_size=2)
    report = train_extractor(model, data, data, rng=RngState(5))
    assert report.aborted
    assert len(report.curve) == 1
    # parameters rolled back to the epoch-1 checkpoint
    reference = overfit_model(data, epochs=1, batch_size=2)
    train_extractor(reference, data, data, rng=RngState(5))
    for p in reference.store:
        assert np.array_equal(model.store[p.name].data, p.data), p.name


def test_train_csv_log(tmp_path):
    data = overfit_set(2)
    path = tmp_path / "log.csv"
    train_extractor(overfit_model(data, epochs=2), data, data, rng=RngState(6)).write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_nll,dev_f1"
    assert len(lines) == 3


def test_train_rejects_empty_sets():
    data = overfit_set(1)
    model = tiny_model()
    with pytest.raises(ValueError):
        train_extractor(model, [], data)
    with pytest.raises(ValueError):
        train_extractor(model, data, [])
