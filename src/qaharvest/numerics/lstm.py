"""LSTM cell with stacked gate weights.

Gate blocks are stacked row-wise in the order [input; forget; output;
candidate], so one matmul per step covers all four gates. With all
parameters zero and c_prev = 0 the cell outputs (0, 0): the gates sit at
sigmoid(0) = 0.5 and the candidate at tanh(0) = 0.

``lstm_step`` builds tape nodes, and ``bilstm`` runs it over a sequence
in both directions; only training and the gradient audit use them.
Inference builds no tape: ``lstm_rows`` is the same step on plain arrays
for a batch of rows at once, and ``bilstm_rows`` runs it over a batch of
equal-length sequences in both directions. Both match the tape ops bit
for bit, and a row's values do not depend on the rest of its batch.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterStore
from .rng import RngState
from .tensor import Tensor, add, matmul, matvec_rows, mul, narrow, sigmoid, stable_sigmoid, tanh

__all__ = ["LstmCellParams", "lstm_step", "bilstm", "lstm_rows", "bilstm_rows"]


class LstmCellParams:
    """Weights for one cell: W_x (4H, I), W_h (4H, H), bias (4H,)."""

    def __init__(self, store: ParameterStore, prefix: str, input_dim: int, hidden_dim: int, rng: RngState | None = None):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = store.create(f"{prefix}.w_input", (4 * hidden_dim, input_dim), rng)
        self.w_hidden = store.create(f"{prefix}.w_hidden", (4 * hidden_dim, hidden_dim), rng)
        self.bias = store.create(f"{prefix}.bias", (4 * hidden_dim,), rng)


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmCellParams) -> tuple[Tensor, Tensor]:
    """One recurrence step; returns (h, c) with |h_j| < 1 elementwise."""
    if x.data.shape != (p.input_dim,):
        raise ValueError(f"input dim {x.data.shape} != ({p.input_dim},)")
    if h_prev.data.shape != (p.hidden_dim,) or c_prev.data.shape != (p.hidden_dim,):
        raise ValueError("state dims do not match cell")
    h = p.hidden_dim
    pre = add(add(matmul(p.w_input, x), matmul(p.w_hidden, h_prev)), p.bias)
    gate_in = sigmoid(narrow(pre, 0, h))
    gate_forget = sigmoid(narrow(pre, h, h))
    gate_out = sigmoid(narrow(pre, 2 * h, h))
    candidate = tanh(narrow(pre, 3 * h, h))
    c = add(mul(gate_forget, c_prev), mul(gate_in, candidate))
    h_new = mul(gate_out, tanh(c))
    return h_new, c


def bilstm(
    seq: list[Tensor], fwd_cell: LstmCellParams, bwd_cell: LstmCellParams
) -> tuple[list[Tensor], list[Tensor], tuple[Tensor, Tensor], tuple[Tensor, Tensor]]:
    """``lstm_step`` over ``seq`` forward, then backward, each direction
    from zero states. Returns both directions' outputs at every position,
    in sequence order, and each direction's final (h, c)."""
    fh, fc = Tensor(np.zeros(fwd_cell.hidden_dim)), Tensor(np.zeros(fwd_cell.hidden_dim))
    fwd = []
    for x in seq:
        fh, fc = lstm_step(x, fh, fc, fwd_cell)
        fwd.append(fh)
    bh, bc = Tensor(np.zeros(bwd_cell.hidden_dim)), Tensor(np.zeros(bwd_cell.hidden_dim))
    bwd: list[Tensor] = [None] * len(seq)
    for i in reversed(range(len(seq))):
        bh, bc = lstm_step(seq[i], bh, bc, bwd_cell)
        bwd[i] = bh
    return fwd, bwd, (fh, fc), (bh, bc)


def lstm_rows(xs: np.ndarray, hs: np.ndarray, cs: np.ndarray, p: LstmCellParams) -> tuple[np.ndarray, np.ndarray]:
    """``lstm_step`` on every row of (xs, hs, cs), without a tape; each
    output row equals that step's result for the same inputs bit for bit
    (the products go through ``matvec_rows``)."""
    return _lstm_rows_projected(matvec_rows(p.w_input.data, xs), hs, cs, p)


def _lstm_rows_projected(x_proj: np.ndarray, hs: np.ndarray, cs: np.ndarray, p: LstmCellParams) -> tuple[np.ndarray, np.ndarray]:
    """``lstm_rows`` given each row's input product ``W_x x``."""
    h = p.hidden_dim
    pre = x_proj + matvec_rows(p.w_hidden.data, hs) + p.bias.data
    # the sigmoid is elementwise, so one call covers the three gates
    gates = stable_sigmoid(pre[:, : 3 * h])
    c = gates[:, h : 2 * h] * cs + gates[:, :h] * np.tanh(pre[:, 3 * h :])
    return gates[:, 2 * h :] * np.tanh(c), c


def bilstm_rows(
    xs: np.ndarray, fwd_cell: LstmCellParams, bwd_cell: LstmCellParams
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``bilstm`` over a batch of equal-length sequences, without a tape.

    ``xs`` is (B, T, I). Returns the forward and the backward outputs,
    each (B, T, H) in sequence order, and each direction's final (h, c),
    each (B, H). Every step is ``lstm_rows`` over the batch, with the
    input products of all steps taken in one ``matvec_rows`` call ahead
    of the recurrence; a row of that call does not depend on the rest of
    its batch, so sequence b's values equal ``bilstm`` on that sequence
    alone, bit for bit.
    """
    batch, steps, width = xs.shape

    def run(cell: LstmCellParams, order) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        x_proj = matvec_rows(cell.w_input.data, xs.reshape(batch * steps, width))
        x_proj = x_proj.reshape(batch, steps, 4 * cell.hidden_dim)
        h = np.zeros((batch, cell.hidden_dim))
        c = np.zeros((batch, cell.hidden_dim))
        out = np.empty((batch, steps, cell.hidden_dim))
        for t in order:
            h, c = _lstm_rows_projected(x_proj[:, t], h, c, cell)
            out[:, t] = h
        return out, (h, c)

    fwd, fwd_final = run(fwd_cell, range(steps))
    bwd, bwd_final = run(bwd_cell, reversed(range(steps)))
    return fwd, bwd, fwd_final, bwd_final
