"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array plus the tape bookkeeping needed for
backpropagation. Only the ops the models in this package need are
provided: elementwise arithmetic with broadcasting, matmul, sigmoid /
tanh / relu, stable softmax, concatenation / stacking, and the indexing
ops used for embeddings and the copy distribution. Gradients accumulate
into ``.grad`` (a plain ndarray) on tensors created with
``requires_grad=True``. A loss with a hand-derived gradient becomes one
tape node through ``node`` and ``accum``.

The sigmoid and softmax formulas and a batched matrix-vector product are
also exposed as plain ndarray functions, which tape-free inference calls
to get the same values the tape ops compute, bit for bit.

Tensors are safe for concurrent read-only use; graph construction and
backward passes belong to a single owner.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "stable_sigmoid",
    "stable_softmax",
    "matvec_rows",
    "Tensor",
    "as_tensor",
    "node",
    "accum",
    "sigmoid",
    "tanh",
    "relu",
    "exp",
    "log",
    "clamp_min",
    "tsum",
    "dot",
    "softmax",
    "concat",
    "stack",
    "row",
    "pick",
    "narrow",
    "scatter_add",
    "pad_to",
]


# ------------------------------------------------ plain ndarray forwards
#
# The formulas below are shared by the tape ops and by tape-free
# inference, so both compute bit-identical values.

# Rows of a matrix handed to one matrix-vector product at a time; a block
# of 64 rows x 1024 float64 columns (512 KiB) stays in cache while every
# vector of a batch is multiplied against it.
_MATVEC_BLOCK_ROWS = 64
# A matrix no larger than one such block is multiplied whole, in one call.
_WHOLE_MATRIX_VALUES = _MATVEC_BLOCK_ROWS * 1024
# numpy's matmul releases the interpreter lock only when its output has
# more values than this, so a block run on another thread must be larger.
_GIL_FREE_OUTPUT = 500
# Blocks grow no larger than this many values (2 MiB): OpenBLAS runs a
# matrix-vector product below 460800 values on one thread whatever its
# thread count, and one split across its threads can round differently.
_BLAS_SERIAL_VALUES = 1 << 18
# Below this many multiply-adds a product stays on the calling thread:
# handing blocks to another thread costs more than it saves. (Measured on
# a 2-vCPU VM with one BLAS thread, two threads broke even between about
# 1M and 5M multiply-adds, depending on the shape.)
_PARALLEL_MIN_FMAS = 4_000_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Contiguous runs of row blocks one product is split into: one per CPU
# this process may run on. The calling thread does the first run and a
# pool, created on the first product that needs it, does the others.
_WORKERS = _usable_cpus()
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _matvec_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_WORKERS - 1, thread_name_prefix="matvec_rows")
        return _pool


def stable_sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so exp never overflows."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def stable_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the maximum first."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def matvec_rows(w: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row i of the result is ``w @ xs[i]``, bit for bit.

    Each row comes from the same matrix-vector BLAS call that ``w @ x``
    makes, so it does not depend on the batch it was computed in; a GEMM
    would sum in another order and differ in the last bits. Walking ``w``
    in row blocks with the whole batch per block reads ``w`` from memory
    once per call instead of once per vector. A matrix of at most
    ``_WHOLE_MATRIX_VALUES`` values is one block, multiplied in one call.

    A product of at least ``_PARALLEL_MIN_FMAS`` multiply-adds is cut
    into contiguous runs of blocks, one per usable CPU, and the runs are
    computed at once on as many threads. Its blocks first grow (64, 128,
    256, ... rows) until numpy releases the interpreter lock for each,
    within ``_BLAS_SERIAL_VALUES``; a product whose blocks cannot grow
    that far stays on one thread. A row's bits depend neither on its
    block's height nor on the run it falls in, so the result is the same
    for any batch and any CPU count. Below 7200 columns no block reaches
    the size at which OpenBLAS splits a product across its own threads,
    so it is also the same at any BLAS thread count (where ``w @ x`` on a
    whole wide matrix is not).
    """
    rows, batch = w.shape[0], xs.shape[0]
    if w.size <= _WHOLE_MATRIX_VALUES:
        return np.matmul(w, xs[:, :, None])[:, :, 0]
    out = np.empty((batch, rows))
    if out.size == 0:
        return out
    parallel = _WORKERS > 1 and rows * w.shape[1] * batch >= _PARALLEL_MIN_FMAS
    height = _MATVEC_BLOCK_ROWS
    while parallel and height * batch <= _GIL_FREE_OUTPUT and 2 * height * w.shape[1] <= _BLAS_SERIAL_VALUES:
        height *= 2
    parallel = parallel and height * batch > _GIL_FREE_OUTPUT
    starts = list(range(0, rows, height))
    if len(starts) > 1 and rows - starts[-1] == 1:
        # numpy turns a one-row product into an inner product, which sums
        # in another order; the last row joins the block before it
        starts.pop()
    blocks = list(zip(starts, starts[1:] + [rows]))
    cols = xs[:, :, None]

    def run(part):
        for r0, r1 in part:
            out[:, r0:r1] = np.matmul(w[r0:r1], cols)[:, :, 0]

    n = min(_WORKERS if parallel else 1, len(blocks))
    parts = [blocks[len(blocks) * i // n : len(blocks) * (i + 1) // n] for i in range(n)]
    futures = [_matvec_pool().submit(run, part) for part in parts[1:]]
    try:
        run(parts[0])
    finally:
        for future in futures:
            future.result()
    return out


# ---------------------------------------------------------------- tensors


class Tensor:
    """Node in the autodiff graph; ``data`` is always a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def backward(self) -> None:
        """Backpropagate from a scalar; accumulates into leaf ``.grad``s."""
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack_ = [(self, False)]
        while stack_:
            t, expanded = stack_.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack_.append((t, True))
            for parent in t._parents:
                if id(parent) not in seen:
                    stack_.append((parent, False))
        accum(self, np.ones((), dtype=np.float64))
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # Operator sugar; scalars and arrays are wrapped automatically.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, allocating it on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Tensor holding ``data`` computed from ``parents``. When any parent
    needs a gradient, backpropagation calls ``backward(g)`` with the
    gradient ``g`` of ``data``, and it must ``accum`` into each parent."""
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(g, b.data.shape))

    return node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        accum(a, _unbroadcast(g * b.data, a.data.shape))
        accum(b, _unbroadcast(g * a.data, b.data.shape))

    return node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data
    an, bn = a.data.ndim, b.data.ndim

    def backward(g):
        if an == 2 and bn == 1:
            accum(a, np.outer(g, b.data))
            accum(b, a.data.T @ g)
        elif an == 1 and bn == 2:
            accum(a, b.data @ g)
            accum(b, np.outer(a.data, g))
        elif an == 2 and bn == 2:
            accum(a, g @ b.data.T)
            accum(b, a.data.T @ g)
        elif an == 1 and bn == 1:
            accum(a, g * b.data)
            accum(b, g * a.data)
        else:
            raise ValueError(f"unsupported matmul ranks ({an}, {bn})")

    return node(data, (a, b), backward)


def dot(a, b) -> Tensor:
    """Inner product of two vectors (scalar result)."""
    return matmul(a, b)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = stable_sigmoid(x.data)

    def backward(g):
        accum(x, g * out * (1.0 - out))

    return node(out, (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def backward(g):
        accum(x, g * (1.0 - out * out))

    return node(out, (x,), backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def backward(g):
        accum(x, g * (x.data > 0.0))

    return node(out, (x,), backward)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)

    def backward(g):
        accum(x, g * out)

    return node(out, (x,), backward)


def log(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(x.data)

    def backward(g):
        accum(x, g / x.data)

    return node(out, (x,), backward)


def clamp_min(x, lo: float) -> Tensor:
    """max(x, lo) elementwise; gradient flows only where x > lo."""
    x = as_tensor(x)
    out = np.maximum(x.data, lo)

    def backward(g):
        accum(x, g * (x.data > lo))

    return node(out, (x,), backward)


def tsum(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return node(out, (x,), backward)


def softmax(x) -> Tensor:
    """Stable softmax of a vector; shift-invariant, sums to one."""
    x = as_tensor(x)
    if x.data.ndim != 1:
        raise ValueError("softmax expects a vector")
    if x.data.size == 0:
        raise ValueError("empty distribution")
    out = stable_softmax(x.data)

    def backward(g):
        accum(x, out * (g - float(g @ out)))

    return node(out, (x,), backward)


def concat(parts) -> Tensor:
    """Concatenate vectors into one vector."""
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.size for p in parts]
    data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            accum(p, g[a:b])

    return node(data, tuple(parts), backward)


def stack(rows_) -> Tensor:
    """Stack equal-length vectors into a matrix (one vector per row)."""
    rows_ = [as_tensor(r) for r in rows_]
    data = np.stack([r.data for r in rows_])

    def backward(g):
        for i, r in enumerate(rows_):
            accum(r, g[i])

    return node(data, tuple(rows_), backward)


def row(x, i: int) -> Tensor:
    """Row ``i`` of a matrix (the embedding-lookup op)."""
    x = as_tensor(x)
    data = x.data[i].copy()

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[i] += g

    return node(data, (x,), backward)


def pick(x, i: int) -> Tensor:
    """Scalar element ``i`` of a vector."""
    x = as_tensor(x)
    data = np.asarray(x.data[i])

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[i] += g

    return node(data, (x,), backward)


def narrow(x, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) of a vector."""
    x = as_tensor(x)
    data = x.data[start : start + length].copy()

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[start : start + length] += g

    return node(data, (x,), backward)






def scatter_add(base, idx, updates) -> Tensor:
    """base with updates[i] added at position idx[i]; repeats accumulate."""
    base, updates = as_tensor(base), as_tensor(updates)
    idx = np.asarray(idx, dtype=np.intp)
    data = base.data.copy()
    np.add.at(data, idx, updates.data)

    def backward(g):
        accum(base, g)
        accum(updates, g[idx])

    return node(data, (base, updates), backward)


def pad_to(x, length: int) -> Tensor:
    """Zero-extend a vector to ``length``."""
    x = as_tensor(x)
    n = x.data.size
    if length < n:
        raise ValueError("pad_to target shorter than input")
    data = np.zeros(length, dtype=np.float64)
    data[:n] = x.data

    def backward(g):
        accum(x, g[:n])

    return node(data, (x,), backward)
