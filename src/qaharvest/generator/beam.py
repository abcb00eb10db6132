"""Beam search over summed log-probabilities, decoder-agnostic, run for
many independent searches in lockstep.

``beam_search_many`` advances every unfinished search by one token per
step. All live hypotheses of all searches go to the decoder together as
rows (search index, previous token id, state), and the decoder returns one
(log-probability vector, next state) pair per row, so a batched decoder
can score them all with one pass over its output projection. Selection
then runs per search, exactly as if that search ran alone:

Hypotheses that emit EOS move to a completed pool; the best completed
hypothesis wins (no length normalization), with ties broken by generation
order and then lower token id. If nothing completes within max_len the
best-scoring capped hypothesis is returned flagged "unterminated".

The plain algorithm can prune the greedy argmax chain and end up
returning a worse-scoring sequence than greedy decoding would. To keep
beam-b results never worse than greedy, the greedy lineage is
protected: its next child always survives selection, occupying an extra
slot beyond the beam width if it has to. With beam_size 1 the search
degenerates to exactly greedy decoding.

``beam_search`` is the one-search form over a per-hypothesis decoder
(prev_token_id, state) -> (log-prob vector, next state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["BeamResult", "beam_search", "beam_search_many"]


@dataclass
class BeamResult:
    token_ids: list[int]  # emitted ids, EOS not included
    logp: float  # includes the EOS step when terminated
    terminated: bool
    flags: list[str] = field(default_factory=list)
    steps: int = 0  # decoder steps this search took part in
    rows: int = 0  # hypotheses it had scored over those steps


@dataclass
class _Hyp:
    ids: tuple[int, ...]
    logp: float
    state: object
    prev: int
    greedy: bool


@dataclass
class _Search:
    alive: list[_Hyp]
    completed: list[tuple[float, int, tuple[int, ...]]] = field(default_factory=list)
    generation: int = 0
    done: bool = False
    steps: int = 0
    rows: int = 0

    def advance(self, scored: Sequence[tuple[np.ndarray, object]], beam_size: int, eos_id: int) -> None:
        """One selection step over the decoder output for ``alive``."""
        # candidate tuple: (total logp, parent index, token id, parent, state)
        candidates = []
        greedy_mark: tuple[int, int] | None = None
        for p_idx, (hyp, (logp_vec, new_state)) in enumerate(zip(self.alive, scored)):
            width = min(beam_size, logp_vec.size)
            part = np.argpartition(-logp_vec, width - 1)[:width]
            picked = sorted(part, key=lambda i: (-logp_vec[i], i))
            for tok in picked:
                total = hyp.logp + float(logp_vec[tok])
                # zero-probability tokens are not real hypotheses
                if total == -np.inf:
                    continue
                candidates.append((total, p_idx, int(tok), hyp, new_state))
            if hyp.greedy and np.isfinite(logp_vec[picked[0]]):
                # argmax with ties to the lowest id; always hyp's top pick
                greedy_mark = (p_idx, int(picked[0]))
        if not candidates:
            self.done = True
            return
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        keep = candidates[:beam_size]
        if greedy_mark is not None and not any((c[1], c[2]) == greedy_mark for c in keep):
            keep.append(next(c for c in candidates if (c[1], c[2]) == greedy_mark))
        next_alive = []
        for total, p_idx, tok, hyp, new_state in keep:
            self.generation += 1
            is_greedy = greedy_mark == (p_idx, tok)
            if tok == eos_id:
                self.completed.append((total, self.generation, hyp.ids))
            else:
                next_alive.append(_Hyp(hyp.ids + (tok,), total, new_state, tok, is_greedy))
        self.alive = next_alive
        self.done = not next_alive

    def result(self) -> BeamResult:
        if self.completed:
            best = max(self.completed, key=lambda c: (c[0], -c[1], tuple(-i for i in c[2])))
            return BeamResult(list(best[2]), best[0], True, [], self.steps, self.rows)
        best_hyp = max(self.alive, key=lambda h: (h.logp, len(h.ids)))
        return BeamResult(list(best_hyp.ids), best_hyp.logp, False, ["unterminated"], self.steps, self.rows)


def beam_search_many(
    step_rows: Callable,
    init_states: Sequence,
    start_id: int,
    eos_id: int,
    beam_size: int = 3,
    max_len: int = 30,
) -> list[BeamResult]:
    """One search per initial state, all stepped together.

    ``step_rows`` maps a list of rows (search index, previous token id,
    state) to a list of (log-prob vector, next state), one per row.
    """
    if beam_size < 1:
        raise ValueError("beam size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    searches = [_Search([_Hyp((), 0.0, state, start_id, True)]) for state in init_states]
    for _ in range(max_len):
        live = [(s, search) for s, search in enumerate(searches) if not search.done]
        if not live:
            break
        rows = [(s, hyp.prev, hyp.state) for s, search in live for hyp in search.alive]
        scored = step_rows(rows)
        start = 0
        for _, search in live:
            n = len(search.alive)
            search.steps += 1
            search.rows += n
            search.advance(scored[start : start + n], beam_size, eos_id)
            start += n
    return [search.result() for search in searches]


def beam_search(
    step_fn: Callable,
    init_state,
    start_id: int,
    eos_id: int,
    beam_size: int = 3,
    max_len: int = 30,
) -> BeamResult:
    """A single search over a per-hypothesis decoder."""

    def step_rows(rows):
        return [step_fn(prev, state) for _, prev, state in rows]

    return beam_search_many(step_rows, [init_state], start_id, eos_id, beam_size, max_len)[0]
