"""Code generators and constructions: random ensembles, the alphabet-reduction
construction, and desk-scale maximal-code search."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .core import Code, InvalidParametersError, Message, SizeLimitError, type_of
from .channels import ChannelSpec, output_word
from .verify import is_separable, split_graph_girth_check


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
            if any(x < 0 for x in self.p) or abs(sum(self.p) - 1) > 1e-9:
                raise InvalidParametersError(f"invalid distribution {self.p}")
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
    l = math.ceil(qprime / (q - 1))
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


def _all_columns(q: int, N: int) -> list[tuple[int, ...]]:
    cols = [()]
    for _ in range(N):
        cols = [c + (a,) for c in cols for a in range(q)]
    return sorted(cols)


def _separable_columns(channel: ChannelSpec, columns: list[tuple[int, ...]], s: int) -> bool:
    if len(columns) <= s:
        return True
    code = Code.from_columns(channel.q, columns)
    return bool(is_separable(code, s, channel))


def _extension_ok(channel: ChannelSpec, columns: list[tuple[int, ...]], s: int) -> bool:
    """Check separability of messages involving the last-added column only;
    earlier messages were verified when their columns were added."""
    t = len(columns)
    if t <= s:
        return True
    code = Code.from_columns(channel.q, columns)
    import itertools

    from .channels import output_word as ow

    new_outputs = {}
    for rest in itertools.combinations(range(1, t), s - 1):
        e = Message(tuple(sorted(rest + (t,))))
        z = ow(channel, code, e)
        if z in new_outputs:
            return False
        new_outputs[z] = e
    for e_idx in itertools.combinations(range(1, t), s):
        e = Message(e_idx)
        if ow(channel, code, e) in new_outputs:
            return False
    return True


def max_code_search(channel: ChannelSpec, s: int, q: int, N: int,
                    mode: str = "exhaustive", seed: int = 0) -> SearchResult:
    """Find a maximum (exhaustive) or maximal (greedy) s-separable code.

    Exhaustive mode runs a branch-and-bound over candidate columns in
    lexicographic order; the returned witness is the lexicographically
    smallest maximum code. The cheap split-graph girth necessary condition
    prunes before the full separability check.
    """
    if channel.q != q or channel.s != s:
        raise InvalidParametersError(
            f"channel (s={channel.s}, q={channel.q}) does not match (s={s}, q={q})")
    if q ** N > EXHAUSTIVE_GUARD:
        raise SizeLimitError(
            f"instance too large: q^N = {q ** N} exceeds guard {EXHAUSTIVE_GUARD}")
    candidates = _all_columns(q, N)

    if mode == "greedy":
        rng = random.Random(seed)
        order = list(candidates)
        rng.shuffle(order)
        chosen: list[tuple[int, ...]] = []
        for col in order:
            trial = sorted(chosen + [col])
            if _separable_columns(channel, trial, s):
                chosen = trial
        chosen.sort()
        return SearchResult(len(chosen), Code.from_columns(q, chosen), len(order), "greedy")

    if mode != "exhaustive":
        raise InvalidParametersError(f"unknown search mode {mode!r}")

    n_cand = len(candidates)
    best: list[tuple[int, ...]] = []
    nodes = 0

    def girth_ok(cols: list[tuple[int, ...]]) -> bool:
        if N < 2 or len(cols) < 2:
            return True
        code = Code.from_columns(q, cols)
        return bool(split_graph_girth_check(code, s, N // 2 if N > 1 else 1))

    def extend(chosen: list[tuple[int, ...]], start: int):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        # bound: even taking every remaining candidate cannot beat best
        if len(chosen) + (n_cand - start) <= len(best):
            return
        for idx in range(start, n_cand):
            if len(chosen) + (n_cand - idx) <= len(best):
                break
            col = candidates[idx]
            trial = chosen + [col]
            # the girth condition is necessary only once the code is large
            # enough that a short cycle forces a separability violation
            if len(trial) >= 2 * s and not girth_ok(trial):
                continue
            if not _extension_ok(channel, trial, s):
                continue
            extend(trial, idx + 1)

    extend([], 0)
    return SearchResult(len(best), Code.from_columns(q, best), nodes, "exhaustive")
