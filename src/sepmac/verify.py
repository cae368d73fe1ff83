"""Exact verification of code properties with counterexample witnesses.

All verifiers are exhaustive over the relevant message/tuple space and
deterministic: a failing verdict carries the lexicographically smallest
witness so that fixtures are stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    Code,
    InvalidParametersError,
    Message,
    enumerate_messages,
    message_count,
)
from .channels import ChannelSpec, OutputWord, output_word


@dataclass(frozen=True)
class Verdict:
    """Result of a property check; a failing verdict carries a witness that
    can be re-checked independently."""

    holds: bool
    witness: Optional[tuple] = None
    colliding_output: Optional[tuple] = None

    def __bool__(self):
        return self.holds

    def to_dict(self) -> dict:
        d: dict = {"holds": self.holds}
        if self.witness is not None:
            d["witness"] = _jsonable(self.witness)
        if self.colliding_output is not None:
            d["colliding_output"] = _jsonable(self.colliding_output)
        return d


def _jsonable(obj):
    if isinstance(obj, OutputWord):
        return obj.labels()
    if isinstance(obj, Message):
        return list(obj.indices)
    if isinstance(obj, (tuple, list)):
        return [_jsonable(x) for x in obj]
    return obj


@dataclass(frozen=True)
class ErrorFractionReport:
    """Count and fraction of bad messages (colliding channel outputs)."""

    bad_count: int
    total: int
    epsilon: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.bad_count, self.total))

    def to_dict(self) -> dict:
        return {
            "bad_count": self.bad_count,
            "total": self.total,
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
        }


def _best_collision_pair(groups: dict) -> Optional[tuple]:
    """Smallest witness among output groups of size >= 2, with the output.

    Each group value is the sorted list of messages mapped to that output.
    The witness is the lexicographically smallest (first, second) message
    pair over all colliding groups.
    """
    best = None
    for out, msgs in groups.items():
        if len(msgs) >= 2:
            cand = (msgs[0], msgs[1], out)
            if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                best = cand
    return best


def is_separable(code: Code, s: int, channel: ChannelSpec) -> Verdict:
    """All channel output words over s-messages are pairwise distinct."""
    if not 1 <= s < code.t:
        raise InvalidParametersError(f"need 1 <= s < t, got s={s}, t={code.t}")
    if channel.s != s or channel.q != code.q:
        raise InvalidParametersError(
            f"channel (s={channel.s}, q={channel.q}) does not match (s={s}, q={code.q})")
    groups: dict = {}
    for e in enumerate_messages(code.t, s):
        z = output_word(channel, code, e)
        groups.setdefault(z, []).append(e.indices)
    bad = _best_collision_pair(groups)
    if bad is None:
        return Verdict(True)
    return Verdict(False, witness=(bad[0], bad[1]), colliding_output=(bad[2],))


def _union_word(code: Code, indices: Sequence[int]) -> tuple:
    cols = [code.column(j) for j in indices]
    return tuple(tuple(sorted({c[i] for c in cols})) for i in range(code.N))


def is_at_most_s_separable(code: Code, s: int) -> Verdict:
    """Coordinate-wise unions distinguish every pair of distinct index sets
    of sizes 1..s (the A-MAC, tuples of unequal size included)."""
    if not 1 <= s < code.t:
        raise InvalidParametersError(f"need 1 <= s < t, got s={s}, t={code.t}")
    groups: dict = {}
    for k in range(1, s + 1):
        for idx in itertools.combinations(range(1, code.t + 1), k):
            groups.setdefault(_union_word(code, idx), []).append(idx)
    for msgs in groups.values():
        msgs.sort(key=lambda m: (len(m), m))
    bad = _best_collision_pair(groups)
    if bad is None:
        return Verdict(True)
    return Verdict(False, witness=(bad[0], bad[1]), colliding_output=(bad[2],))


def _covers(union_word: tuple, column: tuple) -> bool:
    return all(column[i] in union_word[i] for i in range(len(column)))


def is_frameproof(code: Code, s: int) -> Verdict:
    """No codeword outside an s-tuple is covered by the tuple's union.

    Tuples are index sets; a codeword equal (as a column) to a tuple member
    but with a different index is covered and reported as a failure.
    """
    if not 1 <= s < code.t:
        raise InvalidParametersError(f"need 1 <= s < t, got s={s}, t={code.t}")
    for idx in itertools.combinations(range(1, code.t + 1), s):
        uw = _union_word(code, idx)
        chosen = set(idx)
        for j in range(1, code.t + 1):
            if j in chosen:
                continue
            if _covers(uw, code.column(j)):
                return Verdict(False, witness=(idx, j), colliding_output=(uw,))
    return Verdict(True)


def is_hash(code: Code, s: int) -> Verdict:
    """Every s-tuple of codewords has a coordinate with all symbols distinct."""
    if code.q < s:
        raise InvalidParametersError(f"hash property requires q >= s, got q={code.q}, s={s}")
    if not 1 <= s <= code.t:
        raise InvalidParametersError(f"need 1 <= s <= t, got s={s}, t={code.t}")
    for idx in itertools.combinations(range(1, code.t + 1), s):
        cols = [code.column(j) for j in idx]
        if not any(len({c[i] for c in cols}) == s for i in range(code.N)):
            return Verdict(False, witness=(idx,))
    return Verdict(True)


def is_list_decoding(code: Code, s: int, L: int) -> Verdict:
    """Every s-collection's union covers at most L-1 codewords outside it."""
    if s < 1 or L < 1:
        raise InvalidParametersError(f"need s >= 1 and L >= 1, got s={s}, L={L}")
    if s >= code.t:
        raise InvalidParametersError(f"need s < t, got s={s}, t={code.t}")
    for idx in itertools.combinations(range(1, code.t + 1), s):
        uw = _union_word(code, idx)
        chosen = set(idx)
        covered = [j for j in range(1, code.t + 1)
                   if j not in chosen and _covers(uw, code.column(j))]
        if len(covered) > L - 1:
            return Verdict(False, witness=(idx, tuple(covered)), colliding_output=(uw,))
    return Verdict(True)


def factor_decode(code: Code, z: Sequence[Sequence[int]]) -> set[int]:
    """All codeword indices covered by the observed union word ``z``
    (a sequence of N alphabet subsets)."""
    if len(z) != code.N:
        raise InvalidParametersError(f"output word length {len(z)} != code length {code.N}")
    sets = [frozenset(zi) for zi in z]
    result = set()
    for j in range(1, code.t + 1):
        col = code.column(j)
        if all(col[i] in sets[i] for i in range(code.N)):
            result.add(j)
    return result


def error_fraction(code: Code, s: int, channel: ChannelSpec) -> ErrorFractionReport:
    """Fraction of messages whose output word collides with another's."""
    if not 1 <= s < code.t:
        raise InvalidParametersError(f"need 1 <= s < t, got s={s}, t={code.t}")
    groups: dict = {}
    for e in enumerate_messages(code.t, s):
        z = output_word(channel, code, e)
        groups[z] = groups.get(z, 0) + 1
    bad = sum(n for n in groups.values() if n >= 2)
    return ErrorFractionReport(bad, message_count(code.t, s))


def count_L_rare(code: Code, L: int) -> tuple[int, list[bool]]:
    """Count codewords with a cyclic length-L row window whose projection is
    shared by at most L-1 other codewords. Returns (count, per-codeword flags,
    1-based order)."""
    if L < 1:
        raise InvalidParametersError(f"need L >= 1, got L={L}")
    n, t = code.N, code.t
    cols = code.columns()
    flags = [False] * t
    for start in range(n):
        rows = [(start + d) % n for d in range(L)]
        proj_count: dict = {}
        for col in cols:
            proj = tuple(col[r] for r in rows)
            proj_count[proj] = proj_count.get(proj, 0) + 1
        for j, col in enumerate(cols):
            proj = tuple(col[r] for r in rows)
            if proj_count[proj] - 1 <= L - 1:
                flags[j] = True
    return sum(flags), flags


def split_graph_girth_check(code: Code, s: int, split: int) -> Verdict:
    """No simple cycle of length <= 2s in the bipartite prefix/suffix graph.

    Left vertices are distinct prefixes (rows 1..split), right vertices are
    distinct suffixes (rows split+1..N); each codeword is an edge. Two
    codewords sharing both prefix and suffix form a 2-cycle (parallel edges).
    Necessary for s-separability under any symmetric channel when the
    codewords are distinct.
    """
    if not 1 <= split < code.N:
        raise InvalidParametersError(f"split must satisfy 1 <= n1 < N, got {split}")
    cols = code.columns()
    edges = []  # (prefix, suffix, codeword index)
    for j, col in enumerate(cols, start=1):
        edges.append((col[:split], col[split:], j))

    # parallel edges: a 2-cycle
    seen: dict = {}
    for pre, suf, j in edges:
        if (pre, suf) in seen:
            return Verdict(False, witness=((seen[(pre, suf)], j),))
        seen[(pre, suf)] = j

    # adjacency on (side, vertex) nodes; edges labeled by codeword index
    adj: dict = {}
    for pre, suf, j in edges:
        u, v = ("L", pre), ("R", suf)
        adj.setdefault(u, []).append((v, j))
        adj.setdefault(v, []).append((u, j))

    # shortest cycle through each edge: remove the edge, BFS between endpoints.
    # Small desk-scale graphs, so the O(t * V) scan is fine.
    best = None  # (cycle length, sorted edge tuple)
    for pre, suf, j in edges:
        u, v = ("L", pre), ("R", suf)
        dist = {u: 0}
        parent_edge = {u: None}
        queue = [u]
        while queue:
            nxt = []
            for node in queue:
                for other, label in adj[node]:
                    if label == j or other in dist:
                        continue
                    dist[other] = dist[node] + 1
                    parent_edge[other] = (node, label)
                    nxt.append(other)
            queue = nxt
        if v in dist:
            length = dist[v] + 1
            if length <= 2 * s:
                cycle = [j]
                node = v
                while parent_edge[node] is not None:
                    prev, label = parent_edge[node]
                    cycle.append(label)
                    node = prev
                cand = (length, tuple(sorted(cycle)))
                if best is None or cand < best:
                    best = cand
    if best is not None:
        return Verdict(False, witness=(best[1],))
    return Verdict(True)
