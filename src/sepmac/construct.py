"""Code generators and constructions: random ensembles, the alphabet-reduction
construction, and desk-scale maximal-code search."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import Distribution, k_factor
from .core import Code, InvalidParametersError, SizeLimitError
from .channels import ChannelSpec


@dataclass(frozen=True)
class EnsembleSpec:
    """A random code ensemble.

    kind "cr": entries i.i.d. with law p (a tuple of q probabilities);
    kind "fc": each codeword an independent uniform word of the fixed
    composition (N_0, ..., N_{q-1}).
    """

    kind: str
    q: int
    N: int
    t: int
    p: Optional[tuple] = None
    composition: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cr", "fc"):
            raise InvalidParametersError(f"ensemble kind must be 'cr' or 'fc', got {self.kind!r}")
        if self.q < 2 or self.N < 1 or self.t < 1:
            raise InvalidParametersError(f"bad dimensions q={self.q}, N={self.N}, t={self.t}")
        if self.kind == "cr":
            if self.p is None or len(self.p) != self.q:
                raise InvalidParametersError("cr ensemble needs a length-q distribution p")
            Distribution(tuple(self.p))  # raises on a negative entry or a sum off 1
        else:
            c = self.composition
            if c is None or len(c) != self.q or any(x < 0 for x in c) or sum(c) != self.N:
                raise InvalidParametersError(
                    f"fc ensemble needs a length-q composition summing to N, got {c}")


def _entry_rng(seed: int, column: int, extra: int = 0) -> random.Random:
    # counter-based stream: the state depends only on (seed, column, extra),
    # so parallel generation is order-independent
    return random.Random((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15
                         + column * 0x100000001B3 + extra)


def random_code(spec: EnsembleSpec) -> Code:
    """Draw one code from the ensemble, deterministically given the seed."""
    columns = []
    if spec.kind == "cr":
        cum = []
        acc = 0.0
        for x in spec.p:
            acc += x
            cum.append(acc)
        cum[-1] = 1.0
        for j in range(spec.t):
            rng = _entry_rng(spec.seed, j)
            col = []
            for _ in range(spec.N):
                u = rng.random()
                a = 0
                while cum[a] < u:
                    a += 1
                col.append(a)
            columns.append(tuple(col))
    else:
        base = []
        for a, c in enumerate(spec.composition):
            base.extend([a] * c)
        for j in range(spec.t):
            rng = _entry_rng(spec.seed, j)
            col = list(base)
            rng.shuffle(col)
            columns.append(tuple(col))
    return Code.from_columns(spec.q, columns)


def inner_code_word(symbol: int, l: int, q: int) -> tuple[int, ...]:
    """The weight-one word replacing one q'-ary symbol: value symbol//l + 1
    at position symbol % l (position-major, then value enumeration)."""
    word = [0] * l
    word[symbol % l] = symbol // l + 1
    return tuple(word)


def reduce_alphabet(code: Code, q: int) -> Code:
    """Alphabet reduction: map each q'-ary symbol to a length-l q-ary word
    with a single nonzero symbol, l = ceil(q'/(q-1)). Preserves the
    list-decoding property."""
    qprime = code.q
    if not 2 <= q < qprime:
        raise InvalidParametersError(f"need 2 <= q < q', got q={q}, q'={qprime}")
    l = k_factor(q, qprime)
    columns = []
    for col in code.columns():
        new_col: list[int] = []
        for a in col:
            new_col.extend(inner_code_word(a, l, q))
        columns.append(tuple(new_col))
    return Code.from_columns(q, columns)


EXHAUSTIVE_GUARD = 2 ** 20


@dataclass
class SearchResult:
    t_star: int
    code: Code
    nodes: int
    mode: str

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "nodes": self.nodes, "mode": self.mode}


def _extend(channel: ChannelSpec, code: tuple, column: np.ndarray) -> Optional[tuple]:
    """Add ``column`` to a separable code (states, seen), or None when two
    messages would then share an output word. ``states[k]`` holds the kernel
    states of every k-subset of the chosen columns, k < s, and ``seen`` the
    output rows of every s-message."""
    states, seen = code
    rows = channel.out[channel.trans[states[-1], column]]
    new = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    if len(set(new)) < len(new) or not seen.isdisjoint(new):
        return None
    return states[:1] + [np.concatenate([old, channel.trans[shorter, column]])
                         for old, shorter in zip(states[1:], states)], seen.union(new)


def max_code_search(channel: ChannelSpec, N: int, mode: str = "exhaustive",
                    seed: int = 0) -> SearchResult:
    """Find a maximum (exhaustive) or maximal (greedy) s-separable code of
    length N over the channel's alphabet, s being the channel's user count.

    Exhaustive mode runs a branch-and-bound over candidate columns in
    lexicographic order; the returned witness is the lexicographically
    smallest maximum code. Each node carries the output rows of its code's
    messages, so a branch checks only the messages containing its column.
    """
    s, q = channel.s, channel.q
    if N < 1:
        raise InvalidParametersError(f"code length N must be >= 1, got N={N}")
    if q ** N > EXHAUSTIVE_GUARD:
        raise SizeLimitError(
            f"instance too large: q^N = {q ** N} exceeds guard {EXHAUSTIVE_GUARD}")
    candidates = list(itertools.product(range(q), repeat=N))
    columns = np.array(candidates, dtype=np.intp)
    # the empty code: one empty subset, no messages
    code = ([np.zeros((0 if k else 1, N), dtype=np.intp) for k in range(s)], frozenset())

    if mode == "greedy":
        order = list(range(len(candidates)))
        random.Random(seed).shuffle(order)
        chosen: list[tuple[int, ...]] = []
        for idx in order:
            bigger = _extend(channel, code, columns[idx])
            if bigger is not None:
                code, chosen = bigger, chosen + [candidates[idx]]
        return SearchResult(len(chosen), Code.from_columns(q, sorted(chosen)), len(order), "greedy")

    if mode != "exhaustive":
        raise InvalidParametersError(f"unknown search mode {mode!r}")

    n_cand = len(candidates)
    best: list[tuple[int, ...]] = []
    nodes = 0

    def extend(chosen: list[tuple[int, ...]], code: tuple, start: int):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        for idx in range(start, n_cand):
            # bound: even taking every remaining candidate cannot beat best
            if len(chosen) + (n_cand - idx) <= len(best):
                break
            bigger = _extend(channel, code, columns[idx])
            if bigger is not None:
                extend(chosen + [candidates[idx]], bigger, idx + 1)

    extend([], code, 0)
    return SearchResult(len(best), Code.from_columns(q, best), nodes, "exhaustive")
