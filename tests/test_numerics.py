import json
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaharvest.numerics import (
    LstmCellParams,
    Parameter,
    ParameterStore,
    RngState,
    Tensor,
    apply_dropout,
    bilstm,
    bilstm_rows,
    clamp_min,
    concat,
    dot,
    dropout_mask,
    exp,
    grad_check,
    log,
    lstm_rows,
    lstm_step,
    matvec_rows,
    narrow,
    pad_to,
    pick,
    relu,
    row,
    scatter_add,
    sgd_step,
    sigmoid,
    softmax,
    softmax_rows,
    tanh,
    tsum,
)
from qaharvest.numerics import tensor


# ---------------------------------------------------------------- rng


def test_rng_deterministic():
    a = RngState(42)
    b = RngState(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_rng_seed_changes_stream():
    assert RngState(1).next_u64() != RngState(2).next_u64()


def test_rng_float_in_unit_interval():
    r = RngState(7)
    for _ in range(1000):
        f = r.next_float()
        assert 0.0 <= f < 1.0


def test_rng_vectorized_matches_scalar():
    a = RngState(123)
    b = RngState(123)
    arr = a.uniform(-2.0, 3.0, (5, 7))
    scalars = np.array([b.uniform(-2.0, 3.0) for _ in range(35)]).reshape(5, 7)
    assert np.array_equal(arr, scalars)
    # both generators must land on the same counter afterwards
    assert a.next_u64() == b.next_u64()


def test_rng_next_below_bounds():
    r = RngState(9)
    draws = [r.next_below(10) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 9
    with pytest.raises(ValueError):
        r.next_below(0)


def test_rng_shuffle_is_permutation():
    r = RngState(5)
    items = list(range(50))
    shuffled = list(items)
    r.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_rng_fork_diverges_from_parent():
    r = RngState(11)
    child = r.fork()
    assert child.next_u64() != r.next_u64()


# ------------------------------------------------------------ tensor ops


def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_ln2():
    out = softmax(Tensor([0.0, math.log(2.0)]))
    assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]))
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_empty_raises():
    with pytest.raises(ValueError, match="empty distribution"):
        softmax(Tensor(np.zeros(0)))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-30, 30))
@settings(max_examples=200, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(vals, shift):
    base = softmax(Tensor(vals)).data
    shifted = softmax(Tensor([v + shift for v in vals])).data
    assert abs(base.sum() - 1.0) <= 1e-12
    assert np.all(base >= 0)
    assert np.allclose(base, shifted, atol=1e-12)


def test_softmax_rows_equal_vector_softmax_bitwise():
    rng = RngState(8)
    m = rng.uniform(-30.0, 30.0, (5, 1031))
    rows = softmax_rows(Tensor(m)).data
    for r, want in zip(m, rows):
        assert np.array_equal(softmax(Tensor(r)).data, want)


@pytest.mark.parametrize("n_rows", [1, 3, 64, 65, 129, 200, 513, 1025])
def test_matvec_rows_equal_matrix_vector_bitwise(n_rows, matvec_workers, monkeypatch):
    # every product splits here, into 3, 2 or 1 runs, and batches of 1-8
    # grow the blocks up to 512 rows; 65, 129, 513 and 1025 rows leave a
    # one-row tail
    monkeypatch.setattr(tensor, "_PARALLEL_MIN_FMAS", 0)
    rng = RngState(n_rows)
    w = rng.uniform(-1.0, 1.0, (n_rows, 37))
    for workers in (3, 2, 1):
        matvec_workers(workers)
        for batch in range(1, 9):
            xs = rng.uniform(-1.0, 1.0, (batch, 37))
            got = matvec_rows(w, xs)
            assert got.shape == (batch, n_rows)
            for x, row_ in zip(xs, got):
                assert np.array_equal(w @ x, row_)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("shape", [(6004, 256), (2049, 1024)])
def test_matvec_rows_wide_products_split_without_changing_bits(shape, workers, matvec_workers, monkeypatch):
    # above the threshold a product is split across the pool; a whole
    # w @ x this wide may itself run on several BLAS threads, so the
    # reference is the unsplit product in 64-row blocks
    rng = RngState(workers)
    w = rng.uniform(-1.0, 1.0, shape)
    batches = [rng.uniform(-1.0, 1.0, (batch, shape[1])) for batch in range(1, 9)]
    matvec_workers(1)
    want = [matvec_rows(w, xs) for xs in batches]
    matvec_workers(workers)
    submitted = []
    pool = tensor._matvec_pool()
    monkeypatch.setattr(tensor, "_matvec_pool", lambda: submitted.append(1) or pool)
    for xs, ref in zip(batches, want):
        assert np.array_equal(matvec_rows(w, xs), ref)
    assert submitted


def test_matvec_rows_empty_batch(matvec_workers, monkeypatch):
    matvec_workers(2)
    monkeypatch.setattr(tensor, "_PARALLEL_MIN_FMAS", 0)
    w = RngState(3).uniform(-1.0, 1.0, (130, 8))
    assert matvec_rows(w, np.empty((0, 8))).shape == (0, 130)
    assert matvec_rows(np.empty((0, 8)), np.ones((2, 8))).shape == (2, 0)


def test_matvec_rows_concurrent_callers(matvec_workers, monkeypatch):
    # more runs than cores and callers racing on one pool: every result
    # still lands in its own rows
    matvec_workers(3)
    monkeypatch.setattr(tensor, "_PARALLEL_MIN_FMAS", 0)
    rng = RngState(21)
    w = rng.uniform(-1.0, 1.0, (700, 29))
    inputs = [rng.uniform(-1.0, 1.0, (1 + i % 4, 29)) for i in range(8)]
    want = [np.stack([w @ x for x in xs]) for xs in inputs]
    got: dict[int, list] = {}

    def caller(i):
        got[i] = [matvec_rows(w, inputs[i]) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, ref in enumerate(want):
        assert all(np.array_equal(r, ref) for r in got[i])


def test_broadcast_add_gradient():
    a = Parameter("a", np.ones((3, 4)))
    b = Parameter("b", np.ones(4))
    loss = tsum(a + b)
    loss.backward()
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, 3 * np.ones(4))


def test_diamond_graph_accumulates():
    x = Parameter("x", 3.0)
    y = x * x  # dy/dx = 2x through two paths
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        (Tensor([1.0, 2.0]) + 1.0).backward()


def test_indexing_ops_roundtrip_values():
    m = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(row(m, 1).data, [4.0, 5.0, 6.0, 7.0])
    assert pick(Tensor([5.0, 7.0]), 1).item() == 7.0
    assert np.array_equal(narrow(Tensor([0.0, 1.0, 2.0, 3.0]), 1, 2).data, [1.0, 2.0])
    assert np.array_equal(pad_to(Tensor([1.0, 2.0]), 4).data, [1.0, 2.0, 0.0, 0.0])


def test_scatter_add_accumulates_repeats():
    base = Tensor(np.zeros(3))
    out = scatter_add(base, [0, 1, 0], Tensor([1.0, 2.0, 3.0]))
    assert np.array_equal(out.data, [4.0, 2.0, 0.0])


def test_clamp_min_gradient_gate():
    x = Parameter("x", np.array([-2.0, 5.0]))
    loss = tsum(clamp_min(x, 0.0))
    loss.backward()
    assert np.array_equal(x.grad, [0.0, 1.0])


# --------------------------------------------------------- grad_check


def test_grad_check_quadratic():
    x = Parameter("x", 3.0)
    err = grad_check(lambda: x * x, [x], eps=1e-5)
    assert err < 1e-9


def test_grad_check_flags_wrong_gradient():
    x = Parameter("x", 1.5)

    def loss():
        # forward computes x^2 but the hand-wired backward reports 2*(2x)
        out = Tensor(x.data**2)
        out.requires_grad = True
        out._parents = (x,)

        def bw(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad += g * 4.0 * x.data

        out._backward = bw
        return out

    err = grad_check(loss, [x], eps=1e-5)
    assert err == pytest.approx(0.5, abs=1e-3)


def test_grad_check_sigmoid_layer():
    rng = RngState(3)
    store = ParameterStore()
    w = store.create("w", (4, 3), rng)
    x = Tensor(rng.uniform(-1.0, 1.0, (3,)))
    err = grad_check(lambda: tsum(sigmoid(w @ x)), [w], eps=1e-5)
    assert err < 1e-6


def test_grad_check_eps_bounds():
    x = Parameter("x", 1.0)
    with pytest.raises(ValueError):
        grad_check(lambda: x * x, [x], eps=1e-2)


def test_grad_check_rejects_nonfinite_loss():
    x = Parameter("x", -1.0)
    with pytest.raises(ValueError):
        grad_check(lambda: log(x), [x], eps=1e-5)


def test_grad_check_composite_ops():
    rng = RngState(17)
    store = ParameterStore()
    w = store.create("w", (3, 5), rng)
    v = store.create("v", (5,), rng)

    def loss():
        scores = w @ v
        p = softmax(scores)
        ctx = concat([p, relu(v)])
        return tsum(ctx * ctx)

    err = grad_check(loss, [w, v], eps=1e-5)
    assert err < 1e-6


# --------------------------------------------------------------- lstm


def test_lstm_zero_params_zero_state():
    store = ParameterStore()
    cell = LstmCellParams(store, "cell", 3, 2)
    h, c = lstm_step(Tensor([1.0, -2.0, 0.5]), Tensor(np.zeros(2)), Tensor(np.zeros(2)), cell)
    assert np.array_equal(h.data, [0.0, 0.0])
    assert np.array_equal(c.data, [0.0, 0.0])


def test_lstm_pure():
    rng = RngState(1)
    store = ParameterStore()
    cell = LstmCellParams(store, "cell", 2, 3, rng)
    x = Tensor(rng.uniform(-1, 1, (2,)))
    h0 = Tensor(rng.uniform(-1, 1, (3,)))
    c0 = Tensor(rng.uniform(-1, 1, (3,)))
    h1, c1 = lstm_step(x, h0, c0, cell)
    h2, c2 = lstm_step(x, h0, c0, cell)
    assert np.array_equal(h1.data, h2.data)
    assert np.array_equal(c1.data, c2.data)
    assert np.all(np.abs(h1.data) < 1.0)


def test_lstm_one_dim_matches_scalar_recomputation():
    store = ParameterStore()
    cell = LstmCellParams(store, "cell", 1, 1)
    # order is [input; forget; output; candidate]
    cell.w_input.data = np.array([[0.5], [0.25], [-0.3], [0.8]])
    cell.w_hidden.data = np.array([[0.1], [-0.2], [0.4], [0.6]])
    cell.bias.data = np.array([0.05, -0.1, 0.2, 0.0])
    x, hp, cp = 0.7, -0.4, 0.9

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    gi = sig(0.5 * x + 0.1 * hp + 0.05)
    gf = sig(0.25 * x + -0.2 * hp + -0.1)
    go = sig(-0.3 * x + 0.4 * hp + 0.2)
    cand = math.tanh(0.8 * x + 0.6 * hp + 0.0)
    c_want = gf * cp + gi * cand
    h_want = go * math.tanh(c_want)
    h, c = lstm_step(Tensor([x]), Tensor([hp]), Tensor([cp]), cell)
    assert h.item() == pytest.approx(h_want, abs=1e-12)
    assert c.item() == pytest.approx(c_want, abs=1e-12)


def test_lstm_rows_match_lstm_step_bitwise():
    rng = RngState(4)
    store = ParameterStore()
    cell = LstmCellParams(store, "cell", 5, 6, rng)
    xs, hs, cs = (rng.uniform(-1, 1, (4, n)) for n in (5, 6, 6))
    h_rows, c_rows = lstm_rows(xs, hs, cs, cell)
    for x, h0, c0, h1, c1 in zip(xs, hs, cs, h_rows, c_rows):
        h, c = lstm_step(Tensor(x), Tensor(h0), Tensor(c0), cell)
        assert np.array_equal(h.data, h1)
        assert np.array_equal(c.data, c1)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("steps", [1, 5])
def test_bilstm_rows_match_tape_bilstm_bitwise(batch, steps):
    rng = RngState(6)
    store = ParameterStore()
    fwd_cell = LstmCellParams(store, "fwd", 5, 6, rng)
    bwd_cell = LstmCellParams(store, "bwd", 5, 4, rng)
    xs = rng.uniform(-1, 1, (batch, steps, 5))
    fwd, bwd, (fh, fc), (bh, bc) = bilstm_rows(xs, fwd_cell, bwd_cell)
    assert fwd.shape == (batch, steps, 6) and bwd.shape == (batch, steps, 4)
    for b in range(batch):
        tf, tb, (tfh, tfc), (tbh, tbc) = bilstm([Tensor(x) for x in xs[b]], fwd_cell, bwd_cell)
        assert np.array_equal(np.stack([t.data for t in tf]), fwd[b])
        assert np.array_equal(np.stack([t.data for t in tb]), bwd[b])
        for tape, rows in ((tfh, fh), (tfc, fc), (tbh, bh), (tbc, bc)):
            assert np.array_equal(tape.data, rows[b])


def test_lstm_dimension_mismatch():
    store = ParameterStore()
    cell = LstmCellParams(store, "cell", 3, 2)
    with pytest.raises(ValueError):
        lstm_step(Tensor([1.0]), Tensor(np.zeros(2)), Tensor(np.zeros(2)), cell)


def test_lstm_gradients():
    rng = RngState(8)
    store = ParameterStore()
    cell = LstmCellParams(store, "cell", 2, 2, rng)
    x = Tensor(rng.uniform(-1, 1, (2,)))

    def loss():
        h, c = lstm_step(x, Tensor(np.zeros(2)), Tensor(np.zeros(2)), cell)
        h2, _ = lstm_step(x, h, c, cell)
        return tsum(h2 * h2)

    err = grad_check(loss, list(store), eps=1e-5)
    assert err < 1e-6


# ------------------------------------------------------- sgd / params


def test_sgd_clips_gradient():
    p = Parameter("p", 1.0)
    p.grad = np.asarray(12.0)
    sgd_step([p], lr=0.1)
    assert p.data == pytest.approx(0.5)


def test_sgd_negative_gradient_clips():
    p = Parameter("p", 1.0)
    p.grad = np.asarray(-12.0)
    sgd_step([p], lr=0.1)
    assert p.data == pytest.approx(1.5)


def test_sgd_zero_grad_no_change():
    p = Parameter("p", 2.0)
    p.grad = np.asarray(0.0)
    sgd_step([p], lr=0.5)
    assert p.data == pytest.approx(2.0)


def test_sgd_requires_positive_lr():
    p = Parameter("p", 1.0)
    p.grad = np.asarray(1.0)
    with pytest.raises(ValueError):
        sgd_step([p], lr=0.0)


@given(st.floats(-1000, 1000), st.floats(1e-3, 1.0))
@settings(max_examples=200, deadline=None)
def test_sgd_update_magnitude_bounded(gval, lr):
    p = Parameter("p", 0.0)
    p.grad = np.asarray(gval)
    sgd_step([p], lr=lr)
    assert abs(p.data) <= lr * 5.0 + 1e-12


def test_store_rejects_duplicates():
    store = ParameterStore()
    store.create("w", (2,))
    with pytest.raises(ValueError):
        store.create("w", (3,))


def test_checkpoint_roundtrip(tmp_path):
    rng = RngState(13)
    store = ParameterStore()
    store.create("b.mat", (3, 2), rng)
    store.create("a.vec", (4,), rng)
    store.create("c.scalar", (), rng)
    want = store.state()
    path = tmp_path / "model.ckpt"
    store.save(path, meta={"epoch": 7})

    fresh = ParameterStore()
    fresh.create("b.mat", (3, 2))
    fresh.create("a.vec", (4,))
    fresh.create("c.scalar", ())
    arrays = {name: fresh[name].data for name in want}
    meta = fresh.load(path)
    assert meta == {"epoch": 7}
    for name, arr in want.items():
        assert np.array_equal(fresh[name].data, arr)
        # loaded into the parameter's own array, not a replacement
        assert fresh[name].data is arrays[name]


def test_checkpoint_manifest_sorted_and_little_endian(tmp_path):
    store = ParameterStore()
    store.create("zz", (2,))
    store.create("aa", (1,))
    store["zz"].data[:] = [1.5, -2.5]
    path = tmp_path / "m.ckpt"
    store.save(path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8 : 8 + hlen])
    names = [e["name"] for e in manifest["params"]]
    assert names == sorted(names) == ["aa", "zz"]
    blob = raw[8 + hlen :]
    vals = np.frombuffer(blob, dtype="<f8")
    assert np.array_equal(vals, [0.0, 1.5, -2.5])


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    store = ParameterStore()
    store.create("w", (2, 2))
    path = tmp_path / "m.ckpt"
    store.save(path)
    other = ParameterStore()
    other.create("w", (4,))
    with pytest.raises(ValueError):
        other.load(path)


def _saved_pair(tmp_path):
    store = ParameterStore()
    store.create("a.first", (3, 2), RngState(1))
    store.create("b.second", (4,), RngState(2))
    path = tmp_path / "m.ckpt"
    store.save(path)
    fresh = ParameterStore()
    fresh.create("a.first", (3, 2))
    fresh.create("b.second", (4,))
    return path, fresh


def test_checkpoint_truncated_blob_names_entry(tmp_path):
    path, fresh = _saved_pair(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated in parameter b.second"):
        fresh.load(path)
    # cut inside the first entry: the error names that one
    path.write_bytes(raw[: len(raw) - 4 * 8 - 8])
    with pytest.raises(ValueError, match="truncated in parameter a.first"):
        fresh.load(path)


@pytest.mark.parametrize("keep", [0, 5, 8, 20])
def test_checkpoint_truncated_manifest(tmp_path, keep):
    path, fresh = _saved_pair(tmp_path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="truncated in its manifest"):
        ParameterStore.read_manifest(path)
    with pytest.raises(ValueError, match="truncated in its manifest"):
        fresh.load(path)


@pytest.mark.parametrize(
    "manifest",
    [[], {"params": []}, {"format": "other-v1", "params": []}, {"format": "qaharvest-checkpoint-v1", "params": {}}],
)
def test_checkpoint_manifest_validated(tmp_path, manifest):
    path, fresh = _saved_pair(tmp_path)
    header = json.dumps(manifest).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(header)) + header)
    with pytest.raises(ValueError, match="has no qaharvest-checkpoint-v1 manifest"):
        ParameterStore.read_manifest(path)
    with pytest.raises(ValueError, match="has no qaharvest-checkpoint-v1 manifest"):
        fresh.load(path)


# ------------------------------------------------------------ dropout


def test_dropout_p_zero_all_ones():
    mask = dropout_mask(RngState(1), (10,), 0.0)
    assert np.array_equal(mask, np.ones(10))


def test_dropout_deterministic():
    m1 = dropout_mask(RngState(4), (100,), 0.3)
    m2 = dropout_mask(RngState(4), (100,), 0.3)
    assert np.array_equal(m1, m2)


def test_dropout_keep_rate():
    mask = dropout_mask(RngState(2024), (100000,), 0.3)
    keep = np.count_nonzero(mask) / mask.size
    assert keep == pytest.approx(0.7, abs=0.01)
    kept = mask[mask > 0]
    assert np.allclose(kept, 1.0 / 0.7)


def test_dropout_invalid_p():
    with pytest.raises(ValueError):
        dropout_mask(RngState(1), (3,), 1.0)
    with pytest.raises(ValueError):
        dropout_mask(RngState(1), (3,), -0.1)


def test_apply_dropout_inference_identity():
    x = Tensor([1.0, 2.0, 3.0])
    assert apply_dropout(x, None, 0.3, train=False) is x
