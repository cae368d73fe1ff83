"""Pure-Python reference implementations for differential tests.

These are the object-by-object verifiers, the branch-and-bound search and
the output entropy that the integer channel kernel replaced: every message
builds its output word from column multisets, types and channel table
lookups, every search node recomputes the outputs of all messages of its
code, and the output law sums composition probabilities per output symbol.
The list-decoding P_term adds one Fraction per inclusion-exclusion term,
and ``builtin_output`` reads each built-in channel's output off the s-word
itself, apart from the composition tables the channels are built from;
``validate_symmetric`` folds a table keyed by s-words into a channel.
The greedy search keeps a column iff the reference separability check
holds on the grown code. The entropy bound's multi-start SLSQP here
takes finite-difference gradients, each step evaluating
``sepmac.bounds.entropy_output`` q + 1 times.
Next to them are the proofs' desk checks (rare rows, the split-graph girth
condition, the random-coding probability estimates and their enumeration
oracle), the quoted asymptotic constants, and the exponent's definitions on
a joint distribution tau, a map (word, output symbol) -> weight.
They are slow and simple on purpose; nothing under ``src/`` imports them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, log
from typing import Iterator, Sequence

import numpy as np
from scipy.optimize import minimize

from sepmac import bounds as bnd
from sepmac.bounds import BoundReport, Distribution, multinomial
from sepmac.channels import ChannelSpec, OutputSymbol
from sepmac.core import (
    Code,
    InvalidParametersError,
    SizeLimitError,
    compositions,
    type_of,
)
from sepmac.construct import SearchResult
from sepmac.verify import ErrorFractionReport, Verdict


@dataclass(frozen=True)
class Message:
    """An s-subset of codeword indices, stored sorted and 1-based."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if not idx:
            raise InvalidParametersError("message must be nonempty")
        if any(i < 1 for i in idx) or list(idx) != sorted(set(idx)):
            raise InvalidParametersError(f"message indices must be distinct, sorted, >= 1: {idx}")

    @property
    def s(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def column_multiset(code: Code, message: Message, row: int) -> tuple[int, ...]:
    """The s-collection of signals at one row: {x_row(e_1), ..., x_row(e_s)},
    canonically sorted. ``row`` is 1-based."""
    if not 1 <= row <= code.N:
        raise InvalidParametersError(f"row {row} outside 1..{code.N}")
    if any(j > code.t for j in message):
        raise InvalidParametersError(f"message {message.indices} outside 1..{code.t}")
    r = code.entries[row - 1]
    return tuple(sorted(r[j - 1] for j in message))


def enumerate_messages(t: int, s: int) -> Iterator[Message]:
    """All C(t,s) messages in lexicographic order."""
    if not 1 <= s <= t:
        raise InvalidParametersError(f"need 1 <= s <= t, got s={s}, t={t}")
    for combo in itertools.combinations(range(1, t + 1), s):
        yield Message(combo)


def builtin_output(name: str, word: tuple[int, ...], q: int):
    """The raw output of a built-in channel on an s-word, read off the word
    as the README's channel table defines it."""
    kind, _, level = name.partition(":")
    if kind == "A":  # the set of distinct input symbols
        return tuple(sorted(set(word)))
    if kind == "B":  # the full composition of the inputs
        return tuple(word.count(a) for a in range(q))
    if kind == "eras":  # the common symbol, or * if the inputs differ
        return word[0] if len(set(word)) == 1 else "*"
    if kind == "thr":  # 1 iff at least L inputs are 1
        return 1 if word.count(1) >= int(level) else 0
    if kind == "disj":  # the logical OR of the inputs
        return 1 if any(word) else 0
    raise ValueError(f"not a built-in channel: {name!r}")


def eval_channel(channel: ChannelSpec, comp: tuple[int, ...]) -> OutputSymbol:
    """Channel output for one composition (count tuple) of weight s."""
    if len(comp) != channel.q:
        raise InvalidParametersError(
            f"composition alphabet {len(comp)} != channel alphabet {channel.q}")
    if sum(comp) != channel.s:
        raise InvalidParametersError(
            f"composition weight {sum(comp)} != channel user count {channel.s}")
    return channel._table[comp]


class NotSymmetricError(ValueError):
    """A raw channel table violates permutation invariance."""

    def __init__(self, word_a, word_b, out_a, out_b):
        self.witness = (word_a, word_b)
        self.outputs = (out_a, out_b)
        super().__init__(
            f"words {word_a} and {word_b} have equal type but outputs {out_a!r} != {out_b!r}"
        )


def validate_symmetric(table: dict, s: int, q: int) -> ChannelSpec:
    """Build a custom ChannelSpec from a raw table keyed by s-words over A_q.

    Words of equal type must share an output; the first violating pair (in
    word order) is reported."""
    if not all(len(w) == s and all(0 <= a < q for a in w) for w in table):
        raise InvalidParametersError(f"table keys must be words of length {s} over 0..{q - 1}")
    comp_table, comp_witness = {}, {}
    for word in sorted(table):
        counts = type_of(word, q)
        if counts not in comp_table:
            comp_table[counts], comp_witness[counts] = table[word], word
        elif comp_table[counts] != table[word]:
            raise NotSymmetricError(comp_witness[counts], word, comp_table[counts], table[word])
    return ChannelSpec("custom", q, s, comp_table)


@dataclass(frozen=True)
class OutputWord:
    """The output symbols of one message, row by row."""

    symbols: tuple[OutputSymbol, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(z.label() for z in self.symbols)


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
    return Verdict(False, witness=(bad[0], bad[1]), colliding_output=(bad[2].labels(),))


def error_fraction(code: Code, s: int, channel: ChannelSpec) -> ErrorFractionReport:
    groups: dict = {}
    for e in enumerate_messages(code.t, s):
        z = output_word(channel, code, e)
        groups[z] = groups.get(z, 0) + 1
    return ErrorFractionReport(sum(n for n in groups.values() if n >= 2), comb(code.t, s))


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


def max_code_search(channel: ChannelSpec, N: int) -> SearchResult:
    """Exhaustive branch-and-bound with split-graph girth pruning before
    each extension check."""
    s, q = channel.s, channel.q
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


def greedy_search(channel: ChannelSpec, N: int, seed: int) -> SearchResult:
    """Greedy search: the candidate columns in ``random.Random(seed)``'s
    shuffled order, each kept iff the grown code is s-separable."""
    s, q = channel.s, channel.q
    candidates = sorted(itertools.product(range(q), repeat=N))
    order = list(range(len(candidates)))
    random.Random(seed).shuffle(order)
    chosen: list = []
    for idx in order:
        trial = chosen + [candidates[idx]]
        if len(trial) < s or is_separable(Code.from_columns(q, trial), s, channel).holds:
            chosen = trial
    return SearchResult(len(chosen), Code.from_columns(q, sorted(chosen)), len(order), "greedy")


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


def composition_probability(comp: tuple[int, ...], p: Distribution) -> Fraction | float:
    """Probability that s i.i.d. symbols with law p realize this type."""
    prob = multinomial(sum(comp), comp)
    for a, c in enumerate(comp):
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


def capacity_entropy_bound(channel: ChannelSpec, seed: int = 0) -> BoundReport:
    """The entropy bound's multi-start SLSQP with finite-difference gradients:
    every step evaluates ``sepmac.bounds.entropy_output`` q + 1 times."""
    q = channel.q
    rng = np.random.default_rng(seed)

    def neg_entropy(x):
        x = np.clip(x, 0.0, None)
        total = x.sum()
        if total <= 0:
            return 0.0
        return -bnd.entropy_output(channel, Distribution(tuple(x / total)))

    starts = [np.full(q, 1.0 / q)] + [rng.dirichlet(np.ones(q)) for _ in range(16)]
    hmax, pstar, converged = -math.inf, None, False
    constraints = [{"type": "eq", "fun": lambda x: x.sum() - 1.0}]
    for x0 in starts:
        res = minimize(neg_entropy, x0, method="SLSQP", bounds=[(0.0, 1.0)] * q,
                       constraints=constraints, options={"maxiter": 500, "ftol": 1e-12})
        x = np.clip(res.x, 0.0, None)
        x /= x.sum()
        val = -neg_entropy(x)
        if val > hmax:
            hmax, pstar = val, Distribution(tuple(float(v) for v in x))
            converged = bool(res.success)
    return BoundReport(
        name="entropy-capacity",
        value=hmax / channel.s,
        params={"channel": channel.name(), "s": channel.s, "q": channel.q},
        witness=pstar,
        approximate=not converged,
    )


def P_term(q: int, s: int, L: int) -> Fraction:
    """The inclusion-exclusion sum for P_term, one Fraction per term."""
    total = Fraction(0)
    for m in range(1, min(q, s) + 1):
        inner = Fraction(0)
        for k in range(m + 1):
            inner += (-1) ** k * comb(m, k) * Fraction((m - k) ** s, q ** s)
        total += comb(q, m) * Fraction(m, q) ** L * inner
    return total


def P_term_enumerate(q: int, s: int, L: int) -> Fraction:
    """Brute-force oracle for P_term over all q^(s+L) symbol tuples."""
    good = 0
    for xs in itertools.product(range(q), repeat=s):
        support = set(xs)
        hits = sum(1 for a in range(q) if a in support)
        good += hits ** L
    return Fraction(good, q ** (s + L))


_ENUM_GUARD = 10 ** 7


def proof_probability_estimates(q: int, m: int, s: int) -> dict:
    """Exact desk-scale probabilities behind the random-coding estimates:
    type collision of two uniform m-tuples vs the m!/q^m bound, and union
    containment (m-support inside s-support) vs the (s/q)^m bound."""
    if m < 1 or s < m:
        raise InvalidParametersError(f"need 1 <= m <= s, got m={m}, s={s}")
    if q ** (2 * m) > _ENUM_GUARD or q ** (m + s) > _ENUM_GUARD:
        raise SizeLimitError(
            f"instance too large for enumeration: q^2m={q ** (2 * m)}, q^(m+s)={q ** (m + s)}")

    # collision of types of two independent uniform m-tuples
    type_counts: dict = {}
    for u in itertools.product(range(q), repeat=m):
        key = tuple(sorted(u))
        type_counts[key] = type_counts.get(key, 0) + 1
    type_hits = sum(c * c for c in type_counts.values())
    type_exact = Fraction(type_hits, q ** (2 * m))

    return {
        "type_collision_exact": type_exact,
        "type_collision_bound": Fraction(factorial(m), q ** m),
        # support of a uniform m-tuple inside the support of a uniform s-tuple
        "union_containment_exact": P_term_enumerate(q, s, m),
        "union_containment_bound": Fraction(s, q) ** m,
    }


def reference_asymptotics() -> dict:
    """Documented reference constants/curves from prior asymptotic results.

    Emitted for plotting and comparison only; nothing here is derived by the
    toolkit. Each entry maps a name to a coefficient function of (s, L).
    """
    return {
        # rate lower bound coefficients of ln q, q -> infinity
        "B_lower_coeff": lambda s: s / (2 * s - 1),
        "A_lower_coeff": lambda s: 2 / (s + 1),
        "A_le_coeff": lambda s: 2 / 3 if s == 2 else 1 / (s - 1),
        "hash_coeff": lambda s: 1 / (s - 1),
        "frameproof_coeff": lambda s: 1 / s,
        "ld_lower_coeff": lambda s, L: L / (s + L - 1),
        # s -> infinity envelopes (coefficients of the displayed expressions)
        "disj_lower": lambda s: 2 * (log(2) ** 2) / s ** 2,
        "disj_upper": lambda s: 4 * log(s) / s ** 2,
    }


def canonical_tau(p: Distribution, channel: ChannelSpec) -> dict:
    """The product-input distribution pushed through the channel:
    tau(x, f(x)) = prod_k p(x_k)."""
    if p.q != channel.q:
        raise InvalidParametersError(f"distribution over {p.q} symbols, channel q={channel.q}")
    words = list(itertools.product(range(channel.q), repeat=channel.s))
    outs = [eval_channel(channel, type_of(w, channel.q)) for w in words]
    tau = {}
    for w, z in zip(words, outs):
        weight = 1.0
        for a in w:
            weight *= float(p.probs[a])
        tau[(w, z)] = weight
    return tau


def eval_H(p: Distribution, tau: dict, channel: ChannelSpec) -> float:
    """Divergence of tau from the canonical product-input distribution.
    Zero exactly at canonical_tau(p); +inf when tau puts mass off the
    channel support or where the input product law vanishes."""
    total = 0.0
    for (w, z), weight in tau.items():
        if weight <= 0:
            continue
        if eval_channel(channel, type_of(w, channel.q)) != z:
            return math.inf
        denom = 1.0
        for a in w:
            denom *= float(p.probs[a])
        if denom <= 0:
            return math.inf
        total += weight * math.log(weight / denom)
    return total


def eval_I(p: Distribution, tau: dict, m: int) -> float:
    """Conditional-information functional: mean log ratio of the conditional
    law of the first m inputs given the rest and the output, to the product
    input law on those m coordinates."""
    some_key = next(iter(tau))
    s = len(some_key[0])
    if not 1 <= m <= s:
        raise InvalidParametersError(f"need 1 <= m <= s, got m={m}, s={s}")
    marg: dict = {}
    for (w, z), weight in tau.items():
        marg_key = (w[m:], z)
        marg[marg_key] = marg.get(marg_key, 0.0) + weight
    total = 0.0
    for (w, z), weight in tau.items():
        if weight <= 0:
            continue
        cond = weight / marg[(w[m:], z)]
        denom = 1.0
        for a in w[:m]:
            denom *= float(p.probs[a])
        if denom <= 0:
            return math.inf
        total += weight * math.log(cond / denom)
    return total
