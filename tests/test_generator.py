import math

import numpy as np
import pytest

from qaharvest.corpus import build_vocab
from qaharvest.corpus.vocab import EOS_ID, SOS_ID, UNK_ID
from qaharvest.generator import (
    BeamResult,
    DynamicVocab,
    GeneratorConfig,
    GeneratorExample,
    QGModel,
    beam_search,
    beam_search_many,
    gate_coref_features,
    train_qg,
)
from qaharvest.numerics import (
    ParameterStore,
    RngState,
    Tensor,
    grad_check,
    lstm_step,
    scatter_add,
    tsum,
)
from synth import (
    EOS,
    GARDEN_DEFAULT,
    GARDEN_PATH,
    GREEDY_TRAP,
    SOS_START,
    TRAP_DEFAULT,
    enumerate_best,
    make_toy,
    qg_overfit_corpus,
)

WORDS = ["they", "the", "panthers", "defeated", "arizona", "cardinals", "who", "did", "defeat", "?", "49", "win"]


def tiny_config(**over):
    base = dict(
        word_dim=4,
        hidden_dim=3,
        coref_feat_dim=2,
        answer_feat_dim=2,
        vocab_limit=50,
        dropout=0.0,
        batch_size=2,
        lr=0.1,
        epochs=3,
    )
    base.update(over)
    return GeneratorConfig(**base)


def tiny_vocab():
    return build_vocab(WORDS * 3, limit=50)


def tiny_model(seed=0, **over):
    return QGModel(tiny_config(**over), tiny_vocab(), RngState(seed))


def example(tokens=None, question=None, coref=None, scores=None, answer=None):
    tokens = tokens or ["they", "the", "panthers", "defeated", "the", "cardinals"]
    n = len(tokens)
    return GeneratorExample(
        tokens=tokens,
        coref_tags=coref or ["B_PRO", "B_ANT", "I_ANT"] + ["O"] * (n - 3),
        scores=scores or [0.0, 0.5, 0.5] + [0.0] * (n - 3),
        answer_tags=answer or ["O"] * (n - 2) + ["B_ANS", "I_ANS"],
        question=question or ["who", "did", "they", "defeat", "?"],
    )


# ------------------------------------------------------------- gating


def test_gate_zero_params_zero_output():
    store = ParameterStore()
    fw = store.create("fw", (2, 2))
    sw = store.create("sw", (2,))
    b = store.create("b", (2,))
    c = Tensor([3.0, -4.0])
    d = gate_coref_features(c, 0.9, fw, sw, b)
    assert np.array_equal(d.data, [0.0, 0.0])


def test_gate_hand_arithmetic():
    store = ParameterStore()
    fw = store.create("fw", (2, 2))
    fw.data = np.eye(2)
    sw = store.create("sw", (2,))
    b = store.create("b", (2,))
    b.data = np.array([1.0, 1.0])
    c = Tensor([1.0, -1.0])
    d = gate_coref_features(c, 0.0, fw, sw, b)
    # gate = ReLU([2, 0]) = [2, 0]; output = [2, 0] * [1, -1] = [2, 0]
    assert np.array_equal(d.data, [2.0, 0.0])


def test_gate_nonnegative_and_zero_propagation():
    rng = RngState(3)
    store = ParameterStore()
    fw = store.create("fw", (4, 4), rng)
    sw = store.create("sw", (4,), rng)
    b = store.create("b", (4,), rng)
    for trial in range(30):
        c = Tensor(rng.uniform(-2, 2, (4,)))
        score = rng.uniform(0.0, 1.0)
        gate = np.maximum(fw.data @ c.data + sw.data * score + b.data, 0.0)
        d = gate_coref_features(c, score, fw, sw, b)
        assert np.all(d.data[gate == 0.0] == 0.0)
        assert np.array_equal(d.data, gate * c.data)


def test_gate_ablation_no_gating_passthrough():
    store = ParameterStore()
    fw = store.create("fw", (2, 2), RngState(1))
    sw = store.create("sw", (2,), RngState(2))
    b = store.create("b", (2,), RngState(3))
    c = Tensor([0.25, -0.75])
    d = gate_coref_features(c, 0.7, fw, sw, b, use_gating=False)
    assert d is c


def test_gate_ablation_zero_scores_bitwise():
    rng = RngState(9)
    store = ParameterStore()
    fw = store.create("fw", (3, 3), rng)
    sw = store.create("sw", (3,), rng)
    b = store.create("b", (3,), rng)
    for trial in range(20):
        c = Tensor(rng.uniform(-1, 1, (3,)))
        score = rng.uniform(0.1, 1.0)
        ablated = gate_coref_features(c, score, fw, sw, b, use_score=False)
        zeroed = gate_coref_features(c, 0.0, fw, sw, b, use_score=True)
        assert np.array_equal(ablated.data, zeroed.data)


def test_gate_dimension_mismatch():
    store = ParameterStore()
    fw = store.create("fw", (2, 2))
    sw = store.create("sw", (2,))
    b = store.create("b", (2,))
    with pytest.raises(ValueError):
        gate_coref_features(Tensor([1.0, 2.0, 3.0]), 0.0, fw, sw, b)


# ------------------------------------------------------------ encoder


def test_embed_inputs_width():
    m = tiny_model()
    ex = example()
    inputs = m.embed_inputs(ex)
    want = m.config.coref_feat_dim + m.config.answer_feat_dim + m.config.word_dim
    assert len(inputs) == len(ex.tokens)
    assert all(e.data.shape == (want,) for e in inputs)


def test_embed_inputs_answer_tag_changes_vector():
    m = tiny_model()
    a = example(answer=["O"] * 6)
    b = example(answer=["B_ANS"] + ["O"] * 5)
    ea = m.embed_inputs(a)[0]
    eb = m.embed_inputs(b)[0]
    assert not np.array_equal(ea.data, eb.data)


def test_misaligned_features_rejected():
    with pytest.raises(ValueError):
        GeneratorExample(["a", "b"], ["O"], [0.0, 0.0], ["O", "O"], ["q"])


def test_encode_zero_params_zero_states():
    cfg = tiny_config()
    m = QGModel(cfg, tiny_vocab(), RngState(0))
    for p in m.store:
        p.data[:] = 0.0
    ex = example()
    enc = m.encode(m.embed_inputs(ex))
    assert np.array_equal(enc.hidden.data, np.zeros((6, 2 * cfg.hidden_dim)))


def test_encode_length_matches():
    m = tiny_model()
    ex = example()
    enc = m.encode(m.embed_inputs(ex))
    assert enc.hidden.data.shape == (len(ex.tokens), 2 * m.config.hidden_dim)


def test_encode_empty_rejected():
    m = tiny_model()
    with pytest.raises(ValueError):
        m.encode([])


def test_encode_single_token_composes_two_lstm_steps():
    m = tiny_model(seed=5)
    ex = example(tokens=["panthers"], coref=["O"], scores=[0.0], answer=["B_ANS"], question=["who", "?"])
    (e,) = m.embed_inputs(ex)
    enc = m.encode([e])
    h = m.config.hidden_dim
    zero = Tensor(np.zeros(h))
    fh, _ = lstm_step(e, zero, zero, m.enc_fwd)
    bh, _ = lstm_step(e, zero, zero, m.enc_bwd)
    assert np.array_equal(enc.hidden.data[0], np.concatenate([fh.data, bh.data]))


def test_encode_pure():
    m = tiny_model(seed=7)
    ex = example()
    a = m.encode(m.embed_inputs(ex)).hidden.data
    b = m.encode(m.embed_inputs(ex)).hidden.data
    assert np.array_equal(a, b)


@pytest.mark.parametrize("gating", [True, False])
@pytest.mark.parametrize("mention_scores", [True, False])
def test_encoder_rows_match_tape_encoder_bitwise(gating, mention_scores):
    m = tiny_model(seed=6, use_gating=gating, use_mention_scores=mention_scores, coref_feat_dim=5, init_scale=1.0)
    examples = [
        example(),
        example(tokens=["the", "panthers", "win", "zzz", "?", "49"], scores=[0.3, 0.9, 0.1, 0.7, 0.0, 0.2]),
        example(tokens=["win", "49", "did"], coref=["B_PRO", "O", "O"], scores=[0.25, 0.0, 0.0], answer=["B_ANS", "O", "O"]),
    ]
    for ex, (hidden, (h, c)) in zip(examples, m.encoder_rows(examples)):
        enc = m.encode(m.embed_inputs(ex))
        h0, c0 = m.initial_state(enc)
        assert np.array_equal(hidden, enc.hidden.data)
        assert np.array_equal(h, h0.data)
        assert np.array_equal(c, c0.data)


# ------------------------------------------------------- decode steps


def decode_once(m, ex):
    enc = m.encode(m.embed_inputs(ex))
    dyn = DynamicVocab(m.vocab, ex.tokens)
    state = m.initial_state(enc)
    return m.decode_step(m.prev_embedding(SOS_ID), state, enc, dyn), dyn


def test_decode_distribution_normalized():
    m = tiny_model(seed=2)
    step, dyn = decode_once(m, example())
    assert step.dist.data.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(step.dist.data >= 0.0)
    assert step.attention.data.sum() == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < step.copy_gate.data.item() < 1.0


def test_decode_single_source_token_full_attention():
    m = tiny_model(seed=3)
    ex = example(tokens=["panthers"], coref=["O"], scores=[0.0], answer=["B_ANS"], question=["who", "?"])
    step, _ = decode_once(m, ex)
    assert np.allclose(step.attention.data, [1.0])


def test_decode_zero_attn_weight_uniform():
    m = tiny_model(seed=4)
    m.attn_weight.data[:] = 0.0
    step, _ = decode_once(m, example())
    assert np.allclose(step.attention.data, np.full(6, 1.0 / 6.0))


def test_decode_zero_copy_weights_gate_half():
    m = tiny_model(seed=6)
    m.copy_context_weight.data[:] = 0.0
    m.copy_state_weight.data[:] = 0.0
    step, _ = decode_once(m, example())
    assert step.copy_gate.data.item() == 0.5


def test_copy_mass_sums_over_duplicate_surfaces():
    vocab = tiny_vocab()
    dyn = DynamicVocab(vocab, ["the", "cardinals", "the"])
    alpha = Tensor(np.array([0.5, 0.2, 0.3]))
    p_copy = scatter_add(Tensor(np.zeros(dyn.size)), dyn.copy_ids, alpha)
    assert p_copy.data[vocab.id_of("the")] == pytest.approx(0.8)
    assert p_copy.data[vocab.id_of("cardinals")] == pytest.approx(0.2)
    assert p_copy.data.sum() == pytest.approx(1.0)


def test_copy_support_is_source_vocabulary():
    m = tiny_model(seed=8)
    ex = example()
    enc = m.encode(m.embed_inputs(ex))
    dyn = DynamicVocab(m.vocab, ex.tokens)
    state = m.initial_state(enc)
    step = m.decode_step(m.prev_embedding(SOS_ID), state, enc, dyn)
    p_copy = np.zeros(dyn.size)
    np.add.at(p_copy, dyn.copy_ids, step.attention.data)
    support = {i for i in range(dyn.size) if p_copy[i] > 0}
    source_ids = {dyn.id_of(t) for t in ex.tokens}
    assert support <= source_ids


def test_mixture_arithmetic():
    lam = 0.5
    assert lam * 0.8 + (1 - lam) * 0.1 == pytest.approx(0.45)


def test_dynamic_vocab_extends_with_source_oov():
    vocab = build_vocab(["who", "did"], limit=10)
    dyn = DynamicVocab(vocab, ["martians", "who", "martians", "zorp"])
    assert dyn.size == len(vocab) + 2
    assert dyn.id_of("martians") == len(vocab)
    assert dyn.id_of("zorp") == len(vocab) + 1
    assert dyn.token_of(len(vocab)) == "martians"
    assert dyn.id_of("neverseen") == UNK_ID
    assert dyn.copy_ids == [len(vocab), vocab.id_of("who"), len(vocab), len(vocab) + 1]


# ---------------------------------------------------------------- nll


def test_nll_matches_manual_teacher_forcing():
    m = tiny_model(seed=11)
    ex = example()
    loss, n_tok, clamped = m.nll(ex)
    assert n_tok == len(ex.question) + 1
    assert clamped == 0
    enc = m.encode(m.embed_inputs(ex))
    dyn = DynamicVocab(m.vocab, ex.tokens)
    state = m.initial_state(enc)
    prev = SOS_ID
    total = 0.0
    for tok in [dyn.id_of(t) for t in ex.question] + [EOS_ID]:
        step = m.decode_step(m.prev_embedding(prev), state, enc, dyn)
        total -= math.log(step.dist.data[tok])
        state, prev = step.state, tok
    assert loss.item() == pytest.approx(total, rel=1e-12)


def test_nll_gradients_all_param_groups():
    m = tiny_model(seed=12)
    ex = example(
        tokens=["they", "the", "panthers", "win"],
        coref=["B_PRO", "B_ANT", "I_ANT", "O"],
        scores=[0.0, 0.5, 0.5, 0.0],
        answer=["O", "B_ANS", "I_ANS", "O"],
        question=["who", "win", "?"],
    )
    err = grad_check(lambda: m.nll(ex)[0], list(m.store), eps=1e-5)
    assert err < 1e-4


def test_nll_loss_decreases_over_sgd_steps():
    from qaharvest.numerics import sgd_step

    m = tiny_model(seed=13)
    ex = example()
    losses = []
    for _ in range(50):
        m.store.zero_grad()
        loss, _, _ = m.nll(ex)
        losses.append(loss.item())
        loss.backward()
        sgd_step(m.store, lr=0.05)
    assert all(b < a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_perplexity_uniform_is_vocab_size():
    m = tiny_model()

    class Uniform(QGModel):
        def nll(self, ex, train=False, rng=None):
            n = len(ex.question) + 1
            return Tensor(n * math.log(10.0)), n, 0

    u = Uniform(m.config, m.vocab, RngState(0))
    assert u.perplexity([example()]) == pytest.approx(10.0)


def test_perplexity_empty_dataset():
    m = tiny_model()
    with pytest.raises(ValueError):
        m.perplexity([])


def test_perplexity_at_least_one():
    m = tiny_model(seed=21)
    assert m.perplexity([example()]) >= 1.0


# ----------------------------------------------------------- beam core


def test_beam_one_is_greedy_chain():
    step = make_toy(GARDEN_PATH, GARDEN_DEFAULT)
    res = beam_search(step, (), SOS_START, EOS, beam_size=1, max_len=6)
    # greedy chain by hand: 0 (0.50), then 0 (0.34), then eos (0.98)
    assert res.token_ids == [0, 0]
    assert res.terminated
    assert res.logp == pytest.approx(math.log(0.50) + math.log(0.34) + math.log(0.98))


def test_beam_never_worse_than_greedy_on_garden_path():
    step = make_toy(GARDEN_PATH, GARDEN_DEFAULT)
    greedy = beam_search(step, (), SOS_START, EOS, beam_size=1, max_len=6)
    for b in (2, 3, 4):
        res = beam_search(step, (), SOS_START, EOS, beam_size=b, max_len=6)
        assert res.logp >= greedy.logp - 1e-12


def test_beam_finds_enumeration_optimum():
    step = make_toy(GARDEN_PATH, GARDEN_DEFAULT)
    want_logp, want_seq = enumerate_best(GARDEN_PATH, GARDEN_DEFAULT, 3, EOS, 6)
    res = beam_search(step, (), SOS_START, EOS, beam_size=3, max_len=6)
    assert res.logp == pytest.approx(want_logp)
    assert tuple(res.token_ids) == want_seq


def test_beam_beats_greedy_on_trap():
    step = make_toy(GREEDY_TRAP, TRAP_DEFAULT)
    greedy = beam_search(step, (), SOS_START, EOS, beam_size=1, max_len=6)
    res = beam_search(step, (), SOS_START, EOS, beam_size=3, max_len=6)
    want_logp, want_seq = enumerate_best(GREEDY_TRAP, TRAP_DEFAULT, 3, EOS, 6)
    assert greedy.logp < want_logp
    assert res.logp == pytest.approx(want_logp)
    assert tuple(res.token_ids) == want_seq
    assert res.logp > greedy.logp


def test_beam_unterminated_flag():
    table = {}
    default = [0.6, 0.4, 0.0]  # EOS impossible
    step = make_toy(table, default)
    res = beam_search(step, (), SOS_START, EOS, beam_size=3, max_len=4)
    assert not res.terminated
    assert "unterminated" in res.flags
    assert len(res.token_ids) == 4
    assert res.logp == pytest.approx(4 * math.log(0.6))


def test_beam_deterministic():
    step = make_toy(GARDEN_PATH, GARDEN_DEFAULT)
    a = beam_search(step, (), SOS_START, EOS, beam_size=3, max_len=6)
    b = beam_search(step, (), SOS_START, EOS, beam_size=3, max_len=6)
    assert a.token_ids == b.token_ids and a.logp == b.logp


def test_lockstep_searches_match_separate_searches():
    toys = [
        make_toy(GARDEN_PATH, GARDEN_DEFAULT),
        make_toy(GREEDY_TRAP, TRAP_DEFAULT),
        make_toy({}, [0.6, 0.4, 0.0]),  # never terminates
    ]
    batches = []

    def step_rows(rows):
        batches.append([s for s, _, _ in rows])
        return [toys[s](prev, state) for s, prev, state in rows]

    for beam_size in (1, 3):
        batches.clear()
        together = beam_search_many(step_rows, [()] * len(toys), SOS_START, EOS, beam_size=beam_size, max_len=5)
        for step, got in zip(toys, together):
            alone = beam_search(step, (), SOS_START, EOS, beam_size=beam_size, max_len=5)
            assert (got.token_ids, got.logp, got.terminated, got.flags) == (
                alone.token_ids,
                alone.logp,
                alone.terminated,
                alone.flags,
            )
        # one decoder call per step, rows grouped by search in order
        assert len(batches) == max(r.steps for r in together)
        assert all(b == sorted(b) for b in batches)
        assert sum(len(b) for b in batches) == sum(r.rows for r in together)
        if beam_size == 1:
            # greedy garden path: 0, 0, EOS; the capped search steps on
            assert together[0].steps == 3 < together[2].steps == 5


def test_beam_search_many_rejects_bad_widths():
    with pytest.raises(ValueError):
        beam_search_many(lambda rows: [], [()], SOS_START, EOS, beam_size=0)
    with pytest.raises(ValueError):
        beam_search_many(lambda rows: [], [()], SOS_START, EOS, max_len=0)


def test_beam_model_integration_shapes():
    m = tiny_model(seed=30)
    tokens, result = m.generate(example(), beam_size=3, max_len=8)
    assert isinstance(result, BeamResult)
    assert len(tokens) == len(result.token_ids)
    assert all(isinstance(t, str) for t in tokens)


# ------------------------------------------------------------ training


def tiny_corpus():
    data = [
        example(question=["who", "did", "they", "defeat", "?"]),
        example(
            tokens=["the", "panthers", "defeated", "the", "cardinals"],
            coref=["O"] * 5,
            scores=[0.0] * 5,
            answer=["B_ANS", "I_ANS", "O", "O", "O"],
            question=["who", "defeated", "the", "cardinals", "?"],
        ),
    ]
    return data


def test_train_deterministic_curves():
    corpus = tiny_corpus()
    cfg = tiny_config(epochs=3, lr=0.2)
    r1 = train_qg(QGModel(cfg, tiny_vocab(), RngState(42)), corpus, corpus, RngState(7))
    r2 = train_qg(QGModel(cfg, tiny_vocab(), RngState(42)), corpus, corpus, RngState(7))
    assert [(e.train_nll, e.dev_ppl) for e in r1.curve] == [(e.train_nll, e.dev_ppl) for e in r2.curve]


def test_train_keeps_best_dev_checkpoint():
    corpus = tiny_corpus()
    cfg = tiny_config(epochs=4, lr=0.3)
    model = QGModel(cfg, tiny_vocab(), RngState(1))
    report = train_qg(model, corpus, corpus, RngState(2))
    assert report.best_epoch >= 1
    assert model.perplexity(corpus) == pytest.approx(report.best_dev_ppl, rel=1e-9)


def test_train_aborts_on_nan_and_restores():
    corpus = tiny_corpus()
    cfg = tiny_config(epochs=5, lr=0.2)

    class Sabotaged(QGModel):
        train_calls = 0

        def nll(self, ex, train=False, rng=None):
            if train:
                type(self).train_calls += 1
                if type(self).train_calls > len(corpus):  # poison epoch 2
                    return Tensor(math.nan), 1, 0
            return super().nll(ex, train, rng)

    model = Sabotaged(cfg, tiny_vocab(), RngState(3))
    report = train_qg(model, corpus, corpus, RngState(4))
    assert report.aborted
    assert len(report.curve) == 1
    # parameters rolled back to the epoch-1 checkpoint
    assert model.perplexity(corpus) == pytest.approx(report.curve[0].dev_ppl, rel=1e-9)


def test_train_csv_log(tmp_path):
    corpus = tiny_corpus()
    cfg = tiny_config(epochs=2, lr=0.2)
    path = tmp_path / "log.csv"
    train_qg(QGModel(cfg, tiny_vocab(), RngState(5)), corpus, corpus, RngState(6)).write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_nll,dev_ppl"
    assert len(lines) == 3


# ------------------------------------------------- tape-free decoding


def desk_model(seed=3):
    _, examples = qg_overfit_corpus(2)
    # question words only, so source words outside them decode by copying
    words = [t for ex in examples for t in ex.question]
    model = QGModel(GeneratorConfig.desk(), build_vocab(words, 200), RngState(seed))
    return model, examples


def test_decode_rows_match_tape_decode_step():
    m, examples = desk_model()
    rng = RngState(5)
    sources = []
    for ex in examples[:3]:
        enc = m.encode(m.embed_inputs(ex))
        sources.append((enc, DynamicVocab(m.vocab, ex.tokens)))
    rows = []
    for s, (enc, dyn) in enumerate(sources):
        initial = tuple(t.data for t in m.initial_state(enc))
        # the start token, a copied source word outside the target
        # vocabulary (decoded through the unknown-word row), and random
        # states with random previous tokens
        rows.append((s, SOS_ID, initial))
        rows.append((s, dyn.size - 1, initial))
        for _ in range(2):
            h = 2 * m.config.hidden_dim
            state = (rng.uniform(-1.0, 1.0, (h,)), rng.uniform(-1.0, 1.0, (h,)))
            rows.append((s, rng.next_below(dyn.size), state))
    assert all(dyn.size > len(m.vocab) for _, dyn in sources)
    batch = m.decode_rows([(enc.hidden.data, dyn) for enc, dyn in sources], rows)
    assert len(batch) == len(rows)
    for (s, prev, (h, c)), (logp, (next_h, next_c)) in zip(rows, batch):
        enc, dyn = sources[s]
        step = m.decode_step(m.prev_embedding(prev), (Tensor(h), Tensor(c)), enc, dyn)
        assert logp.shape == (dyn.size,)
        np.testing.assert_allclose(logp, np.log(step.dist.data), rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(next_h, step.state[0].data, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(next_c, step.state[1].data, rtol=1e-10, atol=0.0)


def reference_generate(m, ex, beam_size, max_len):
    """The search as it ran before lockstep decoding: one tape
    decode_step per hypothesis through the single-search adapter."""
    enc = m.encode(m.embed_inputs(ex))
    dyn = DynamicVocab(m.vocab, ex.tokens)

    def step(prev_id, state):
        out = m.decode_step(m.prev_embedding(prev_id), state, enc, dyn)
        with np.errstate(divide="ignore"):
            return np.log(out.dist.data), out.state

    result = beam_search(step, m.initial_state(enc), SOS_ID, EOS_ID, beam_size, max_len)
    return [dyn.token_of(i) for i in result.token_ids], result


def test_generate_many_matches_per_hypothesis_tape_search():
    _, examples = qg_overfit_corpus(2)
    cfg = GeneratorConfig.desk(word_dim=8, hidden_dim=8, coref_feat_dim=2, answer_feat_dim=2, epochs=8)
    m = QGModel(cfg, build_vocab([t for ex in examples for t in ex.question], 200), RngState(2))
    # a little training makes the searches end at different steps
    train_qg(m, examples, examples, RngState(2))
    assert len({len(ex.tokens) for ex in examples}) >= 3
    for beam_size in (1, 3):
        got = m.generate_many(examples, beam_size, max_len=10)
        steps = [r.steps for _, r in got]
        if beam_size == 3:
            assert any(r.terminated for _, r in got)
            assert min(steps) < max(steps) == 10
        for ex, (tokens, result) in zip(examples, got):
            want_tokens, want = reference_generate(m, ex, beam_size, max_len=10)
            assert tokens == want_tokens
            assert result.token_ids == want.token_ids
            assert result.logp == want.logp
            assert result.terminated == want.terminated
            assert result.flags == want.flags


def test_generate_many_rejects_zero_beam():
    m, examples = desk_model()
    with pytest.raises(ValueError):
        m.generate_many(examples[:1], beam_size=0, max_len=10)
