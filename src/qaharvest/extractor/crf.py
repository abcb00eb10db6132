"""Linear-chain CRF: log-space forward algorithm, Viterbi, BIO span parsing.

Conventions for a tag set of size k: emission matrix P is n x k, the
transition matrix A is (k+2) x (k+2) with two virtual tags appended,
START = k and STOP = k+1. A path y_1..y_n scores

    q = sum_t P[t, y_t] + A[START, y_1] + sum_t A[y_t, y_{t+1}] + A[y_n, STOP]

and the training loss is -q(gold) + log Z with Z summed over all k^n
paths by the forward recursion. Emissions are raw scores: adding a
constant to one token's row shifts every path's score by that constant,
so neither the loss nor the Viterbi path needs normalized rows.

The loss is one tape node computed on plain arrays. Its gradient is the
expected feature counts under the model minus the gold path's counts
(Lafferty et al. 2001): the unary and pairwise marginals come from the
forward table and a backward recursion, both in log space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus.tagging import ANSWER_TAGS, B_ANS, I_ANS, O_TAG
from ..numerics.tensor import Tensor, accum, as_tensor, node

__all__ = [
    "crf_score",
    "crf_log_partition",
    "crf_nll",
    "viterbi",
    "DecodedSpans",
    "decode_spans",
]


def _arrays(P, A, allow_empty: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Emissions and transitions as float arrays, checked to fit."""
    P = P.data if isinstance(P, Tensor) else np.asarray(P, dtype=np.float64)
    A = A.data if isinstance(A, Tensor) else np.asarray(A, dtype=np.float64)
    n, k = P.shape
    if A.shape != (k + 2, k + 2):
        raise ValueError(f"transition matrix {A.shape} does not fit k={k} tags")
    if n == 0 and not allow_empty:
        raise ValueError("empty sequence")
    return P, A


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + m.squeeze(axis)


def _forward(P: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """The alpha table (alpha[t, j] is log of the mass of all prefixes
    ending in tag j at t) and log Z."""
    n, k = P.shape
    start, stop = k, k + 1
    alpha = np.empty((n, k))
    alpha[0] = P[0] + A[start, :k]
    for t in range(1, n):
        # lattice[i, j] = alpha[i] + A[i, j], reduced over the source tag i
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + A[:k, :k], axis=0) + P[t]
    return alpha, _logsumexp(alpha[n - 1] + A[:k, stop], axis=0)


def crf_score(P, A, tags: Sequence[int]) -> np.float64:
    """Path score q of one tag sequence, boundary transitions included."""
    P, A = _arrays(P, A)
    n, k = P.shape
    tags = list(tags)
    if len(tags) != n:
        raise ValueError("tag sequence length does not match emissions")
    if any(not 0 <= t < k for t in tags):
        raise ValueError("tag id out of range")
    emit = P[np.arange(n), tags].sum()
    trans = A[[k] + tags, tags + [k + 1]].sum()
    return emit + trans


def crf_log_partition(P, A) -> np.float64:
    """log Z by the forward recursion, stable in log space."""
    return _forward(*_arrays(P, A))[1]


def crf_nll(P: Tensor, A: Tensor, tags: Sequence[int]) -> Tensor:
    """-log p(tags | P, A); nonnegative, differentiable through P and A."""
    P, A = as_tensor(P), as_tensor(A)
    p, a = _arrays(P, A)
    tags = list(tags)
    alpha, log_z = _forward(p, a)
    loss = log_z - crf_score(p, a, tags)

    def backward(g):
        n, k = p.shape
        start, stop = k, k + 1
        inner = a[:k, :k]
        # beta[t, i] is log of the mass of all suffixes after tag i at t
        beta = np.empty((n, k))
        beta[n - 1] = a[:k, stop]
        for t in range(n - 2, -1, -1):
            beta[t] = _logsumexp(inner + (p[t + 1] + beta[t + 1]), axis=1)
        # expected counts: the unary and pairwise marginals ...
        d_p = np.exp(alpha + beta - log_z)
        pairwise = np.exp(alpha[:-1, :, None] + inner + (p[1:] + beta[1:])[:, None, :] - log_z)
        d_a = np.zeros_like(a)
        d_a[:k, :k] = pairwise.sum(axis=0)
        d_a[start, :k] = d_p[0]
        d_a[:k, stop] = d_p[n - 1]
        # ... minus the gold path's counts
        d_p[np.arange(n), tags] -= 1.0
        np.add.at(d_a, ([start] + tags, tags + [stop]), -1.0)
        accum(P, g * d_p)
        accum(A, g * d_a)

    return node(np.asarray(loss), (P, A), backward)


def viterbi(P, A) -> tuple[list[int], float]:
    """Highest-scoring tag sequence and its score.

    Backpointer ties go to the lowest tag index. An empty input decodes
    to the empty sequence, scoring just the START->STOP transition.
    """
    P, A = _arrays(P, A, allow_empty=True)
    n, k = P.shape
    start, stop = k, k + 1
    if n == 0:
        return [], float(A[start, stop])
    delta = P[0] + A[start, :k]
    backptr = np.zeros((n, k), dtype=np.intp)
    for t in range(1, n):
        scores = delta[:, None] + A[:k, :k]
        backptr[t] = scores.argmax(axis=0)  # first max = lowest tag index
        delta = scores.max(axis=0) + P[t]
    final = delta + A[:k, stop]
    best = int(final.argmax())
    path = [best]
    for t in range(n - 1, 0, -1):
        best = int(backptr[t, best])
        path.append(best)
    path.reverse()
    return path, float(final.max())


@dataclass(frozen=True)
class DecodedSpans:
    """Inclusive token ranges parsed from a BIO sequence."""

    spans: tuple[tuple[int, int], ...]
    repaired: bool


def decode_spans(tags: Sequence[str]) -> DecodedSpans:
    """Parse B/I runs into spans; a bare I (nothing open) opens one.

    The repair choice trades precision for recall: a malformed run still
    yields a candidate answer instead of being dropped.
    """
    for t in tags:
        if t not in ANSWER_TAGS:
            raise ValueError(f"unknown tag {t!r}")
    spans: list[tuple[int, int]] = []
    repaired = False
    open_start: int | None = None
    for i, t in enumerate(tags):
        if t == B_ANS:
            if open_start is not None:
                spans.append((open_start, i - 1))
            open_start = i
        elif t == I_ANS:
            if open_start is None:
                open_start = i
                repaired = True
        elif t == O_TAG and open_start is not None:
            spans.append((open_start, i - 1))
            open_start = None
    if open_start is not None:
        spans.append((open_start, len(tags) - 1))
    return DecodedSpans(tuple(spans), repaired)
