"""Code generators and constructions: random ensembles, the alphabet-reduction
construction, and desk-scale maximal-code search."""

from __future__ import annotations

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
NODE_GUARD = 2 ** 21  # branch-and-bound nodes an exhaustive search may visit
GATHER_CELLS = 2 ** 16  # kernel cells one block of a node's output gather may hold


@dataclass
class SearchResult:
    t_star: int
    code: Code
    nodes: int
    mode: str

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "nodes": self.nodes, "mode": self.mode}


def _output_keys(channel: ChannelSpec, subsets: np.ndarray, columns: np.ndarray):
    """For each of ``columns``, the list of output rows (one bytes key each)
    of the messages joining it to every (s-1)-subset of the chosen columns,
    whose kernel states are ``subsets``. Gathered in blocks of at most
    GATHER_CELLS cells, one block at a time as the caller iterates."""
    step = max(1, GATHER_CELLS // max(1, subsets.size))
    for lo in range(0, len(columns), step):
        rows = channel.out[channel.trans[subsets[None], columns[lo:lo + step, None]]]
        yield from rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0].tolist()


def _accepts(seen: frozenset, new: list) -> bool:
    """The new messages' output rows differ from each other and from ``seen``."""
    return len(set(new)) == len(new) and seen.isdisjoint(new)


def _grow(channel: ChannelSpec, states: list, column: np.ndarray) -> list:
    """``states[k]`` holds the kernel states of every k-subset of the chosen
    columns, k < s; these are the states once ``column`` joins them."""
    return states[:1] + [np.concatenate([old, channel.trans[shorter, column]])
                         for old, shorter in zip(states[1:], states)]


def max_code_search(channel: ChannelSpec, N: int, mode: str = "exhaustive",
                    seed: int = 0) -> SearchResult:
    """Find a maximum (exhaustive) or maximal (greedy) s-separable code of
    length N over the channel's alphabet, s being the channel's user count.

    Exhaustive mode runs a branch-and-bound over candidate columns in
    lexicographic order; the returned witness is the lexicographically
    smallest maximum code. Each node carries the kernel states of its code's
    (s-1)-subsets and the output rows of its messages, so a branch checks
    only the messages containing its column. A node gathers those rows for
    all the candidates the bound still lets it reach in one numpy gather
    (in blocks for large instances); the candidate loop then only compares
    sets of row keys. A tree of more than NODE_GUARD nodes raises
    SizeLimitError, after the search has started.
    """
    s, q = channel.s, channel.q
    if N < 1:
        raise InvalidParametersError(f"code length N must be >= 1, got N={N}")
    if q ** N > EXHAUSTIVE_GUARD:
        raise SizeLimitError(
            f"instance too large: q^N = {q ** N} exceeds guard {EXHAUSTIVE_GUARD}")
    n_cand = q ** N
    # candidate column i is the base-q digits of i, so index order is lexicographic
    columns = np.empty((n_cand, N), dtype=np.intp)
    index = np.arange(n_cand)
    for j in range(N):
        index, columns[:, N - 1 - j] = np.divmod(index, q)
    # the empty code: one empty subset, no messages
    states = [np.zeros((0 if k else 1, N), dtype=np.intp) for k in range(s)]

    if mode == "greedy":
        order = list(range(n_cand))
        random.Random(seed).shuffle(order)
        chosen: list[int] = []
        seen: frozenset = frozenset()
        for idx in order:
            new = next(_output_keys(channel, states[-1], columns[idx:idx + 1]))
            if _accepts(seen, new):
                states, seen = _grow(channel, states, columns[idx]), seen.union(new)
                chosen.append(idx)
        code = Code.from_columns(q, columns[sorted(chosen)].tolist())
        return SearchResult(len(chosen), code, n_cand, "greedy")

    if mode != "exhaustive":
        raise InvalidParametersError(f"unknown search mode {mode!r}")

    best: list[int] = []
    nodes = 0

    def extend(chosen: list[int], states: list, seen: frozenset, start: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > NODE_GUARD:
            raise SizeLimitError(f"search tree too large: more than {NODE_GUARD} nodes "
                                 f"(q^N = {n_cand}, s = {s})")
        if len(chosen) > len(best):
            best = list(chosen)
        # no candidate from stop on can pass the bound, and best only grows
        stop = n_cand - len(best) + len(chosen)
        keys = _output_keys(channel, states[-1], columns[start:stop])
        for idx, new in zip(range(start, stop), keys):
            # bound: even taking every remaining candidate cannot beat best
            if len(chosen) + (n_cand - idx) <= len(best):
                break
            if _accepts(seen, new):
                extend(chosen + [idx], _grow(channel, states, columns[idx]),
                       seen.union(new), idx + 1)

    extend([], states, frozenset(), 0)
    code = Code.from_columns(q, columns[best].tolist())
    return SearchResult(len(best), code, nodes, "exhaustive")
