"""Code generators and constructions: random ensembles, the alphabet-reduction
construction, and desk-scale maximal-code search."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import Distribution, k_factor
from .core import Code, InvalidParametersError, SizeLimitError, _dtype
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


CODE_GUARD = 10 ** 7  # cells N * t of a code that gen or reduce may write


def _check_cells(N: int, t: int) -> None:
    if N * t > CODE_GUARD:
        raise SizeLimitError(f"instance too large: N*t = {N * t} code cells exceed "
                             f"guard {CODE_GUARD} (N={N}, t={t})")


def _entry_rng(seed: int, column: int, extra: int = 0) -> random.Random:
    # counter-based stream: the state depends only on (seed, column, extra),
    # so parallel generation is order-independent
    return random.Random((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15
                         + column * 0x100000001B3 + extra)


def random_code(spec: EnsembleSpec) -> Code:
    """Draw one code from the ensemble, deterministically given the seed."""
    _check_cells(spec.N, spec.t)
    symbols = np.empty((spec.t, spec.N), dtype=_dtype(spec.q))
    if spec.kind == "cr":
        cum = list(itertools.accumulate(spec.p, initial=0.0))[1:]
        cum[-1] = 1.0
        for j in range(spec.t):
            rng = _entry_rng(spec.seed, j)
            # the first symbol a with cum[a] >= u
            symbols[j] = np.searchsorted(cum, [rng.random() for _ in range(spec.N)])
    else:
        base = [a for a, c in enumerate(spec.composition) for _ in range(c)]
        for j in range(spec.t):
            col = list(base)
            _entry_rng(spec.seed, j).shuffle(col)
            symbols[j] = col
    return Code(spec.q, symbols)


def check_reduce(q: int, qprime: int, N: int, t: int) -> int:
    """The checks that reducing a q'-ary N x t code to q symbols makes before
    it reads a symbol: 2 <= q < q' and the code guard on the reduced code.
    Returns the word length l. A code file's header decides them all."""
    if not 2 <= q < qprime:
        raise InvalidParametersError(f"need 2 <= q < q', got q={q}, q'={qprime}")
    l = k_factor(q, qprime)
    _check_cells(N * l, t)
    return l


def reduce_alphabet(code: Code, q: int) -> Code:
    """Alphabet reduction: map each q'-ary symbol a to the length-l q-ary word
    with the single nonzero symbol a//l + 1 at place a % l, l =
    ceil(q'/(q-1)). Preserves the list-decoding property."""
    qprime = code.q
    l = check_reduce(q, qprime, code.N, code.t)
    x = code.symbols.astype(np.min_scalar_type(qprime), copy=False)[..., None]  # holds l too
    words = np.zeros((code.t, code.N, l), dtype=_dtype(q))
    np.put_along_axis(words, x % l, x // l + 1, axis=2)
    return Code(q, words.reshape(code.t, code.N * l))


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
    columns = np.ascontiguousarray(np.indices((q,) * N, dtype=np.intp).reshape(N, -1).T)
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
        code = Code(q, columns[sorted(chosen)])
        return SearchResult(len(chosen), code, n_cand, "greedy")

    if mode != "exhaustive":
        raise InvalidParametersError(f"unknown search mode {mode!r}")

    best: list[int] = []
    nodes = 0
    # one entry per open node: its code, kernel states, output rows and the
    # candidates it has not tried yet
    stack: list = []

    def visit(chosen: list[int], states: list, seen: frozenset, start: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > NODE_GUARD:
            raise SizeLimitError(f"search tree too large: more than {NODE_GUARD} nodes "
                                 f"(q^N = {n_cand}, s = {s})")
        if len(chosen) > len(best):
            best = chosen
        # no candidate from stop on can pass the bound, and best only grows
        stop = n_cand - len(best) + len(chosen)
        keys = _output_keys(channel, states[-1], columns[start:stop])
        stack.append((chosen, states, seen, zip(range(start, stop), keys)))

    visit([], states, frozenset(), 0)
    while stack:
        chosen, states, seen, untried = stack[-1]
        for idx, new in untried:
            # bound: even taking every remaining candidate cannot beat best
            if len(chosen) + (n_cand - idx) <= len(best):
                stack.pop()
                break
            if _accepts(seen, new):
                visit(chosen + [idx], _grow(channel, states, columns[idx]),
                      seen.union(new), idx + 1)
                break
        else:
            stack.pop()
    code = Code(q, columns[best])
    return SearchResult(len(best), code, nodes, "exhaustive")
