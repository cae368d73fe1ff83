"""Pure-Python reference implementations for differential tests.

These are the object-by-object verifiers, the branch-and-bound search and
the output entropy that the integer channel kernel replaced: every message
builds its output word from column multisets, types and channel table
lookups, every search node recomputes the outputs of all messages of its
code, and the output law sums composition probabilities per output symbol.
The list-decoding P_term adds one Fraction per inclusion-exclusion term.
They are slow and simple on purpose; nothing under ``src/`` imports them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, log
from typing import Sequence

from sepmac.bounds import Distribution, multinomial
from sepmac.channels import ChannelSpec, OutputWord, eval_channel
from sepmac.core import (
    Code,
    Composition,
    InvalidParametersError,
    Message,
    column_multiset,
    compositions,
    enumerate_messages,
    message_count,
    type_of,
)
from sepmac.construct import SearchResult
from sepmac.verify import ErrorFractionReport, Verdict, split_graph_girth_check


def output_word(channel: ChannelSpec, code: Code, message: Message) -> OutputWord:
    return OutputWord(tuple(
        eval_channel(channel, type_of(column_multiset(code, message, i), code.q))
        for i in range(1, code.N + 1)))


def _best_collision_pair(groups: dict):
    """Smallest (first, second) message pair over groups of size >= 2, with
    the group's output; each group lists its messages in order."""
    best = None
    for out, msgs in groups.items():
        if len(msgs) >= 2:
            cand = (msgs[0], msgs[1], out)
            if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                best = cand
    return best


def is_separable(code: Code, s: int, channel: ChannelSpec) -> Verdict:
    groups: dict = {}
    for e in enumerate_messages(code.t, s):
        groups.setdefault(output_word(channel, code, e), []).append(e.indices)
    bad = _best_collision_pair(groups)
    if bad is None:
        return Verdict(True)
    return Verdict(False, witness=(bad[0], bad[1]), colliding_output=(bad[2],))


def error_fraction(code: Code, s: int, channel: ChannelSpec) -> ErrorFractionReport:
    groups: dict = {}
    for e in enumerate_messages(code.t, s):
        z = output_word(channel, code, e)
        groups[z] = groups.get(z, 0) + 1
    return ErrorFractionReport(sum(n for n in groups.values() if n >= 2),
                               message_count(code.t, s))


def union_word(code: Code, indices: Sequence[int]) -> tuple:
    cols = [code.column(j) for j in indices]
    return tuple(tuple(sorted({c[i] for c in cols})) for i in range(code.N))


def _covers(union: tuple, column: tuple) -> bool:
    return all(column[i] in union[i] for i in range(len(column)))


def is_at_most_s_separable(code: Code, s: int) -> Verdict:
    groups: dict = {}
    for k in range(1, s + 1):
        for idx in itertools.combinations(range(1, code.t + 1), k):
            groups.setdefault(union_word(code, idx), []).append(idx)
    for msgs in groups.values():
        msgs.sort(key=lambda m: (len(m), m))
    bad = _best_collision_pair(groups)
    if bad is None:
        return Verdict(True)
    return Verdict(False, witness=(bad[0], bad[1]), colliding_output=(bad[2],))


def is_frameproof(code: Code, s: int) -> Verdict:
    for idx in itertools.combinations(range(1, code.t + 1), s):
        uw = union_word(code, idx)
        for j in range(1, code.t + 1):
            if j not in idx and _covers(uw, code.column(j)):
                return Verdict(False, witness=(idx, j), colliding_output=(uw,))
    return Verdict(True)


def is_hash(code: Code, s: int) -> Verdict:
    for idx in itertools.combinations(range(1, code.t + 1), s):
        cols = [code.column(j) for j in idx]
        if not any(len({c[i] for c in cols}) == s for i in range(code.N)):
            return Verdict(False, witness=(idx,))
    return Verdict(True)


def is_list_decoding(code: Code, s: int, L: int) -> Verdict:
    for idx in itertools.combinations(range(1, code.t + 1), s):
        uw = union_word(code, idx)
        covered = [j for j in range(1, code.t + 1)
                   if j not in idx and _covers(uw, code.column(j))]
        if len(covered) > L - 1:
            return Verdict(False, witness=(idx, tuple(covered)), colliding_output=(uw,))
    return Verdict(True)


def factor_decode(code: Code, z: Sequence[Sequence[int]]) -> set[int]:
    sets = [frozenset(zi) for zi in z]
    return {j for j in range(1, code.t + 1)
            if all(a in sets[i] for i, a in enumerate(code.column(j)))}


def _extension_ok(channel: ChannelSpec, columns: list, s: int) -> bool:
    """Separability of the messages containing the last column, against
    each other and against every earlier message."""
    t = len(columns)
    if t <= s:
        return True
    code = Code.from_columns(channel.q, columns)
    new_outputs = set()
    for rest in itertools.combinations(range(1, t), s - 1):
        z = output_word(channel, code, Message(rest + (t,)))
        if z in new_outputs:
            return False
        new_outputs.add(z)
    return not any(output_word(channel, code, Message(e)) in new_outputs
                   for e in itertools.combinations(range(1, t), s))


def max_code_search(channel: ChannelSpec, s: int, q: int, N: int) -> SearchResult:
    """Exhaustive branch-and-bound with split-graph girth pruning before
    each extension check."""
    candidates = sorted(itertools.product(range(q), repeat=N))
    n_cand = len(candidates)
    best: list = []
    nodes = 0

    def girth_ok(cols: list) -> bool:
        if N < 2 or len(cols) < 2:
            return True
        return bool(split_graph_girth_check(Code.from_columns(q, cols), s, N // 2))

    def extend(chosen: list, start: int):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (n_cand - start) <= len(best):
            return
        for idx in range(start, n_cand):
            if len(chosen) + (n_cand - idx) <= len(best):
                break
            trial = chosen + [candidates[idx]]
            if len(trial) >= 2 * s and not girth_ok(trial):
                continue
            if _extension_ok(channel, trial, s):
                extend(trial, idx + 1)

    extend([], 0)
    return SearchResult(len(best), Code.from_columns(q, best), nodes, "exhaustive")


def composition_probability(comp: Composition, p: Distribution) -> Fraction | float:
    """Probability that s i.i.d. symbols with law p realize this type."""
    prob = multinomial(comp.s, comp.counts)
    for a, c in enumerate(comp.counts):
        if c:
            prob *= p.probs[a] ** c
    return prob


def entropy_output(channel: ChannelSpec, p: Distribution) -> float:
    """Shannon entropy (nats) of the channel output for i.i.d. inputs ~ p."""
    if p.q != channel.q:
        raise InvalidParametersError(f"distribution over {p.q} symbols, channel q={channel.q}")
    out_prob: dict = {}
    for comp in compositions(channel.s, channel.q):
        z = eval_channel(channel, comp)
        out_prob[z] = out_prob.get(z, 0) + float(composition_probability(comp, p))
    h = 0.0
    for pr in out_prob.values():
        if pr > 0:
            h -= pr * log(pr)
    return h


def P_term(q: int, s: int, L: int) -> Fraction:
    """The inclusion-exclusion sum for P_term, one Fraction per term."""
    total = Fraction(0)
    for m in range(1, min(q, s) + 1):
        inner = Fraction(0)
        for k in range(m + 1):
            inner += (-1) ** k * comb(m, k) * Fraction((m - k) ** s, q ** s)
        total += comb(q, m) * Fraction(m, q) ** L * inner
    return total
