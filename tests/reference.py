"""Pure-Python reference implementations for differential tests.

These are the object-by-object verifiers, the branch-and-bound search and
the output entropy that the integer channel kernel replaced: every message
builds its output word from column multisets, types and channel table
lookups, every search node recomputes the outputs of all messages of its
code, and the output law sums composition probabilities per output label.
The list-decoding P_term adds one Fraction per inclusion-exclusion term,
``lower_bound_LD`` takes one ``sepmac.bounds.P_term`` Fraction per q',
``builtin_output`` reads each built-in channel's output label off the
s-word itself, apart from the rules the channels are built from, and
``kernel`` builds a channel's kernel cell by cell on count tuples from its
``output`` function; ``validate_symmetric`` folds a table keyed by s-words
into a channel.
The greedy search keeps a column iff the reference separability check
holds on the grown code. The entropy bound's multi-start SLSQP here
takes finite-difference gradients, each step evaluating
``sepmac.bounds.entropy_output`` q + 1 times; ``climb_fixed_factor`` is the
bound's ascent with the fixed step rule (eta times 1.5 or 0.5) that the
Barzilai-Borwein step replaced, and
``capacity_entropy_bound_fixed_factor`` the bound built on it, skipping
SLSQP where ``stops_at_start``, the first-iterate test that folds the law
at the climb's end again, holds. ``climb`` is the Barzilai-Borwein ascent
on the whole batch, each step gathering the rows still climbing from
(K, ...) arrays and scattering their gains back, on ``slope``, which
gathers the output log-law through the last states' rows of ``trans`` in
2-D.
Next to them are the proofs' desk checks (rare rows, the split-graph girth
condition, the random-coding probability estimates and their enumeration
oracle), the quoted asymptotic constants, and the exponent's definitions on
a joint distribution tau, a map (word, output label) -> weight, which
``tau_star`` reads off an exponent report's arrays. ``DenseSplit``
is the exponent's closed-form E0 solver on a one-hot (words x s*q) matrix
and a boolean (groups x words) membership matrix, in word order, and
``maximize_lbfgsb`` the exponent's dual maximiser split by split: each
split alone solves both ends of lam at every rate and runs L-BFGS-B at
every fc point, even where the cr point is already stationary.
``grouped_collision`` is the collision verdicts' grouping of every message
by its exact row, which reads no key.
``column`` and ``type_of`` read one codeword and the type of one word,
and ``error_fraction`` counts the messages whose output word collides.
``parse_code`` reads a code file into tuples of Python ints, cell by cell,
and ``reduce_alphabet`` concatenates one ``inner_code_word`` per symbol.
``full_parser`` is the sepmac parser with every subcommand's options under
the top level, the one parser that once parsed every command.
They are slow and simple on purpose; nothing under ``src/`` imports them.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, log
from typing import Iterator, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from sepmac import bounds as bnd
from sepmac import cli
from sepmac.bounds import BoundReport, Distribution, multinomial
from sepmac.channels import ChannelSpec, _state_laws, _weight
from sepmac.core import (
    Code,
    CodeFileError,
    InvalidParametersError,
    InvalidSymbolError,
    SizeLimitError,
    compositions,
    runs,
)
from sepmac.construct import SearchResult, k_factor
from sepmac.verify import Verdict


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


def column(code: Code, j: int) -> tuple[int, ...]:
    """Codeword j, 1-based."""
    if not 1 <= j <= code.t:
        raise InvalidParametersError(f"codeword index {j} outside 1..{code.t}")
    return tuple(code.symbols[j - 1].tolist())


def type_of(word: Sequence[int], q: int) -> tuple[int, ...]:
    """The type of a word: its composition, the per-symbol occurrence counts."""
    counts = [0] * q
    for a in word:
        if not 0 <= a < q:
            raise InvalidSymbolError(f"symbol {a} outside alphabet of size {q}")
        counts[a] += 1
    return tuple(counts)


def column_multiset(code: Code, message: Message, row: int) -> tuple[int, ...]:
    """The s-collection of signals at one row: {x_row(e_1), ..., x_row(e_s)},
    canonically sorted. ``row`` is 1-based."""
    if not 1 <= row <= code.N:
        raise InvalidParametersError(f"row {row} outside 1..{code.N}")
    if any(j > code.t for j in message):
        raise InvalidParametersError(f"message {message.indices} outside 1..{code.t}")
    r = code.symbols[:, row - 1].tolist()
    return tuple(sorted(r[j - 1] for j in message))


def enumerate_messages(t: int, s: int) -> Iterator[Message]:
    """All C(t,s) messages in lexicographic order."""
    if not 1 <= s <= t:
        raise InvalidParametersError(f"need 1 <= s <= t, got s={s}, t={t}")
    for combo in itertools.combinations(range(1, t + 1), s):
        yield Message(combo)


def builtin_output(name: str, word: tuple[int, ...], q: int) -> str:
    """The output label of a built-in channel on an s-word, read off the
    word as the README's channel table defines it and printed as the README
    prints it."""
    kind, _, level = name.partition(":")
    if kind == "A":  # the set of distinct input symbols, as {0,1}
        return "{" + ",".join(str(a) for a in sorted(set(word))) + "}"
    if kind == "B":  # the full composition of the inputs, as (1,1)
        return "(" + ",".join(str(word.count(a)) for a in range(q)) + ")"
    if kind == "eras":  # the common symbol, or * if the inputs differ
        return str(word[0]) if len(set(word)) == 1 else "*"
    if kind == "thr":  # 1 iff at least L inputs are 1
        return "1" if word.count(1) >= int(level) else "0"
    if kind == "disj":  # the logical OR of the inputs
        return "1" if any(word) else "0"
    raise ValueError(f"not a built-in channel: {name!r}")


def kernel(channel: ChannelSpec) -> tuple[np.ndarray, tuple]:
    """A channel's (trans, outputs) built cell by cell on count tuples, as
    ``sepmac.channels._kernel`` defines them: states are the compositions of
    weight < s by weight and then in count order; a cell adds one symbol,
    giving the next state, or at weight s-1 the output id of the weight-s
    composition reached, ids being numbered as ``eval_channel`` labels the
    weight-s compositions in count order; the table is in the smallest dtype
    that holds every state and output id."""
    q, s = channel.q, channel.s
    states = [c for w in range(s) for c in compositions(w, q)]
    index = {c: i for i, c in enumerate(states)}
    ids: dict = {}
    for c in compositions(s, q):
        ids.setdefault(eval_channel(channel, c), len(ids))

    def cell(c: tuple, a: int) -> int:
        grown = c[:a] + (c[a] + 1,) + c[a + 1:]
        return ids[eval_channel(channel, grown)] if sum(grown) == s else index[grown]

    dtype = np.min_scalar_type(max(len(states), len(ids)) - 1)
    return np.array([[cell(c, a) for a in range(q)] for c in states], dtype=dtype), tuple(ids)


def eval_channel(channel: ChannelSpec, comp: tuple[int, ...]) -> str:
    """Channel output label for one composition (count tuple) of weight s."""
    if len(comp) != channel.q:
        raise InvalidParametersError(
            f"composition alphabet {len(comp)} != channel alphabet {channel.q}")
    if sum(comp) != channel.s:
        raise InvalidParametersError(
            f"composition weight {sum(comp)} != channel user count {channel.s}")
    return str(channel.output(comp))


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
    return ChannelSpec("custom", q, s, comp_table.__getitem__)


def output_word(channel: ChannelSpec, code: Code, message: Message) -> tuple[str, ...]:
    """The output word of one message: its output labels, row by row."""
    return tuple(eval_channel(channel, type_of(column_multiset(code, message, i), code.q))
                 for i in range(1, code.N + 1))


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


def grouped_collision(t: int, n: int, sizes: range, zero: np.ndarray, step, columns,
                      cells: int, word) -> Verdict:
    """``sepmac.verify._collision`` by grouping: every message, a k-subset of
    0..t-2 (k in ``sizes``) folded from ``zero`` by ``step`` one member at a
    time, plus one larger index, gets its set and row; one stable sort of the
    rows groups the messages by their exact rows, and the witness is the first
    two sets of the group whose pair is smallest. It reads no key, so no hash,
    and takes _collision's arguments, so a test can put it in its place."""
    rows, sets = [], []
    for k in sizes:
        prefixes = list(itertools.combinations(range(t - 1), k))
        prefix = np.array(prefixes, np.intp).reshape(len(prefixes), k)
        folds = np.repeat(zero[None], len(prefix), axis=0)
        for column in prefix.T:
            folds = step(folds, column)
        # prefix p's messages add an index b above its last: cells p * t + b
        c = np.flatnonzero(np.arange(t) > (prefix[:, -1:] if k else -1))
        p, b = np.divmod(c, t)
        rows.append(step(folds[p], b))
        sets += [tuple(x + 1 for x in prefixes[i]) + (j + 1,)
                 for i, j in zip(p.tolist(), b.tolist())]
    rows = np.concatenate(rows)
    order, new = runs(rows.view(np.dtype((np.void, rows[0].nbytes))).ravel())
    starts = np.flatnonzero(new[:-1] & ~new[1:])
    if not starts.size:
        return Verdict(True)
    a, b = min(zip(order[starts].tolist(), order[starts + 1].tolist()),
               key=lambda pair: (sets[pair[0]], sets[pair[1]]))
    return Verdict(False, witness=(sets[a], sets[b]), colliding_output=(word(rows[a]),))


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


def error_fraction(code: Code, s: int, channel: ChannelSpec) -> ErrorFractionReport:
    groups: dict = {}
    for e in enumerate_messages(code.t, s):
        z = output_word(channel, code, e)
        groups[z] = groups.get(z, 0) + 1
    return ErrorFractionReport(sum(n for n in groups.values() if n >= 2), comb(code.t, s))


def union_word(code: Code, indices: Sequence[int]) -> tuple:
    cols = [column(code, j) for j in indices]
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
            if j not in idx and _covers(uw, column(code, j)):
                return Verdict(False, witness=(idx, j), colliding_output=(uw,))
    return Verdict(True)


def is_hash(code: Code, s: int) -> Verdict:
    for idx in itertools.combinations(range(1, code.t + 1), s):
        cols = [column(code, j) for j in idx]
        if not any(len({c[i] for c in cols}) == s for i in range(code.N)):
            return Verdict(False, witness=(idx,))
    return Verdict(True)


def is_list_decoding(code: Code, s: int, L: int) -> Verdict:
    for idx in itertools.combinations(range(1, code.t + 1), s):
        uw = union_word(code, idx)
        covered = [j for j in range(1, code.t + 1)
                   if j not in idx and _covers(uw, column(code, j))]
        if len(covered) > L - 1:
            return Verdict(False, witness=(idx, tuple(covered)), colliding_output=(uw,))
    return Verdict(True)


def factor_decode(code: Code, z: Sequence[Sequence[int]]) -> set[int]:
    sets = [frozenset(zi) for zi in z]
    return {j for j in range(1, code.t + 1)
            if all(a in sets[i] for i, a in enumerate(column(code, j)))}


def _extension_ok(channel: ChannelSpec, columns: list, s: int) -> bool:
    """Separability of the messages containing the last column, against
    each other and against every earlier message."""
    t = len(columns)
    if t <= s:
        return True
    code = Code(channel.q, columns)
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
        return bool(split_graph_girth_check(Code(q, cols), s, N // 2))

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
    return SearchResult(len(best), Code(q, best), nodes, "exhaustive")


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
        if len(trial) < s or is_separable(Code(q, trial), s, channel).holds:
            chosen = trial
    return SearchResult(len(chosen), Code(q, sorted(chosen)), len(order), "greedy")


def parse_code(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The code file parser on tuples of Python ints: (q, rows), rows[i][j]
    being the symbol of codeword j+1 at row i+1. It checks every cell in a
    Python loop, then q and the shape as ``Code`` does."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise CodeFileError("empty code file")
    header = lines[0].split()
    if len(header) != 3:
        raise CodeFileError(f"header must be 'q N t', got {lines[0]!r}")
    try:
        q, n, t = (int(x) for x in header)
    except ValueError as exc:
        raise CodeFileError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise CodeFileError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != t:
            raise CodeFileError(f"expected {t} symbols per row, got {len(parts)} in {ln!r}")
        try:
            row = tuple(int(x) for x in parts)
        except ValueError as exc:
            raise CodeFileError(f"non-integer symbol in {ln!r}") from exc
        for a in row:
            if not 0 <= a < q:
                raise CodeFileError(f"symbol {a} outside alphabet of size {q}")
        rows.append(row)
    if q < 2:
        raise InvalidParametersError(f"alphabet size must be >= 2, got {q}")
    if not rows:
        raise InvalidParametersError("code must have N >= 1 rows and t >= 1 columns")
    return q, tuple(rows)


def inner_code_word(symbol: int, l: int, q: int) -> tuple[int, ...]:
    """The weight-one word replacing one q'-ary symbol: value symbol//l + 1
    at position symbol % l (position-major, then value enumeration)."""
    word = [0] * l
    word[symbol % l] = symbol // l + 1
    return tuple(word)


def reduce_alphabet(code: Code, q: int) -> Code:
    """Alphabet reduction symbol by symbol: each codeword's symbols replaced
    by their inner code words, concatenated."""
    l = bnd.k_factor(q, code.q)
    return Code(q, [sum((inner_code_word(a, l, q) for a in col), ())
                    for col in code.symbols.tolist()])


def count_L_rare(code: Code, L: int) -> tuple[int, list[bool]]:
    """Count codewords with a cyclic length-L row window whose projection is
    shared by at most L-1 other codewords. Returns (count, per-codeword flags,
    1-based order)."""
    if L < 1:
        raise InvalidParametersError(f"need L >= 1, got L={L}")
    n, t = code.N, code.t
    cols = [tuple(col) for col in code.symbols.tolist()]
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
    cols = [tuple(col) for col in code.symbols.tolist()]
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


def slope(p: np.ndarray, channel: ChannelSpec):
    """H(output) and dH/dp at each row of p, a (K, q) batch of laws: the law
    of the weight-(s-1) states against the log output law gathered, in 2-D,
    at their rows of ``trans`` (see ``sepmac.bounds._slope``)."""
    *_, before, law = _state_laws(channel, p)
    last = _weight(channel.q, channel.s - 1)
    log = np.log(np.maximum(law, np.finfo(float).tiny))
    dh = -channel.s * (1.0 + np.einsum("rs,rsa->ra", before[:, last], log[:, channel.trans[last]]))
    return -(law * log).sum(1), dh


def climb(channel: ChannelSpec, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entropy bound's Barzilai-Borwein ascent (``sepmac.bounds._climb``)
    on the whole batch: p, H, dH/dp and eta stay (K, ...) arrays, and each
    step gathers the rows still climbing and scatters their gains back.
    Returns the best end and dH/dp there."""
    p = p.copy()
    value, grad = slope(p, channel)
    eta = np.ones(len(p))
    active = np.arange(len(p))
    for _ in range(bnd._CLIMB_STEPS):
        gap = grad[active].max(1) - (p[active] * grad[active]).sum(1)
        active = active[gap >= bnd._SETTLED]
        if not active.size:
            break
        z = eta[active, None] * grad[active]
        trial = p[active] * np.exp(z - z.max(1, keepdims=True))
        trial /= trial.sum(1, keepdims=True)
        v, g = slope(trial, channel)
        up = v > value[active]
        gained = active[up]
        x, u = trial[up], z[up]  # log x - log p is u up to a constant
        u -= (x * u).sum(1, keepdims=True)
        curve = -(x * u * (g[up] - grad[gained])).sum(1)
        bb = (x * u * u).sum(1) / np.where(curve > 0, curve, 1.0)
        old = eta[gained]
        eta[gained] = np.where(curve > 0, np.clip(bb, old / 4, old * 4), old * 4)
        eta[active[~up]] /= 2
        p[gained], value[gained], grad[gained] = x, v[up], g[up]
    best = value.argmax()
    return p[best], grad[best]


def stops_at_start(x: np.ndarray, channel: ChannelSpec) -> bool:
    """Whether SLSQP on -H, started at the law x, would stop there at its
    first iterate (see ``sepmac.bounds._stops_at_start``), its gradient from
    ``sepmac.bounds._neg_entropy`` folding the law at x again."""
    g = bnd._neg_entropy(x, channel)[1]
    v = x - g
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0  # of the k + 1 largest entries over 1
    k = np.flatnonzero(u - excess / np.arange(1, len(u) + 1) > 0)[-1]
    r = -excess[k] / (k + 1)
    d = np.maximum(v + r, 0.0) - x
    c = x.sum() - 1.0
    return abs(g @ d) + abs(r * c) < bnd._FTOL / 10 and abs(c) < bnd._FTOL / 10


def climb_fixed_factor(channel: ChannelSpec, p: np.ndarray) -> np.ndarray:
    """The entropy bound's exponentiated-gradient ascent with a fixed step
    rule: a row steps to p * exp(eta dH/dp), renormalised, eta growing by 1.5
    after a gain and halving after a loss, until its gap max_a dH/dp_a - p .
    dH/dp is below ``sepmac.bounds._SETTLED`` or ``_CLIMB_STEPS`` pass.
    Returns the best end."""
    value, grad = bnd._neg_entropy(p, channel)
    eta = np.ones(len(p))
    active = np.arange(len(p))
    for _ in range(bnd._CLIMB_STEPS):
        active = active[-grad[active].min(1) >= bnd._SETTLED]
        if not active.size:
            break
        z = -eta[active, None] * grad[active]
        trial = p[active] * np.exp(z - z.max(1, keepdims=True))
        trial /= trial.sum(1, keepdims=True)
        v, g = bnd._neg_entropy(trial, channel)
        up = v < value[active]
        eta[active] *= np.where(up, 1.5, 0.5)
        gained = active[up]
        p[gained], value[gained], grad[gained] = trial[up], v[up], g[up]
    return p[value.argmin()]


def capacity_entropy_bound_fixed_factor(channel: ChannelSpec) -> BoundReport:
    """The entropy bound from the same 17 starts climbed by
    ``climb_fixed_factor``, then the same SLSQP polish, skipped where
    ``stops_at_start`` holds, and ``entropy_output``."""
    q = channel.q
    rng = np.random.default_rng(0)
    starts = np.vstack([np.full(q, 1.0 / q)] + [rng.dirichlet(np.ones(q)) for _ in range(16)])
    x, success = climb_fixed_factor(channel, starts), True
    if not stops_at_start(x, channel):
        res = minimize(bnd._neg_entropy, x, args=(channel,), jac=True, method="SLSQP",
                       bounds=[(0.0, 1.0)] * q,
                       constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                                     "jac": lambda x: np.ones(q)}],
                       options={"maxiter": 500, "ftol": bnd._FTOL})
        x, success = np.clip(res.x, 0.0, None), res.success
    p = Distribution(tuple(float(v) for v in x / x.sum()))
    return BoundReport(
        name="entropy-capacity",
        value=bnd.entropy_output(channel, p) / channel.s,
        params={"channel": channel.name(), "s": channel.s, "q": channel.q},
        witness=p,
        approximate=not success,
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


def lower_bound_LD(s: int, L: int, q: int, qprime_max: int = 64) -> BoundReport:
    """The list-decoding lower bound maximized over q' with one P_term
    Fraction per q'; ties break toward the smallest q'."""
    best_val, best_qp, best_p = -math.inf, None, None
    for qp in range(q, qprime_max + 1):
        pr = bnd.P_term(qp, s, L)
        val = (log(pr.denominator) - log(pr.numerator)) / ((s + L - 1) * k_factor(q, qp))
        if val > best_val + 1e-15:
            best_val, best_qp, best_p = val, qp, pr
    return BoundReport(
        name="ld-lower",
        value=best_val,
        params={"s": s, "L": L, "q": q, "qprime_max": qprime_max,
                "at_cap": best_qp == qprime_max},
        witness=best_qp,
        exact=best_p,
    )


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


def tau_star(channel: ChannelSpec, report) -> dict:
    """An exponent report's tau* as a map (word, output label) -> weight."""
    return {(tuple(w), channel.outputs[z]): t for w, z, t in
            zip(report.words.tolist(), report.ids.tolist(), report.tau.tolist())}


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


class DenseSplit:
    """The exponent's E0 at one (lam, mu) on dense matrices: the kept words
    in lexicographic order, X their one-hot (words x s*q) symbol matrix and
    ``members`` the (groups x words) membership of the groups (w[m:], f(w))."""

    def __init__(self, channel: ChannelSpec, p: Distribution, m: int):
        s, q = channel.s, channel.q
        pf = np.array(p.as_floats())
        self.m, self.mq = m, m * q
        self.words = [w for w in itertools.product(range(q), repeat=s)
                      if all(pf[a] > 0 for a in w)]
        W = np.array(self.words)
        log_p = np.log(np.where(pf > 0, pf, 1.0))[W]
        self.lp, self.lp_h = log_p.sum(axis=1), log_p[:, :m].sum(axis=1)
        self.X = np.zeros((len(W), s * q))
        self.X[np.arange(len(W))[:, None], np.arange(s) * q + W] = 1.0
        index: dict = {}
        self.group = np.array([index.setdefault((w[m:], eval_channel(channel, type_of(w, q))),
                                                len(index)) for w in self.words])
        self.members = self.group == np.arange(len(index))[:, None]
        self.first = np.unique(self.group, return_index=True)[1]

    def solve(self, lam: float, mu: np.ndarray) -> tuple[float, dict, float, float, np.ndarray]:
        """(E0, tau keyed by word, H(tau), I_m(tau), input marginals)."""
        mq = self.mq
        a = self.lp_h - self.X[:, :mq] @ mu[:mq] / (1 + lam)
        peak = np.max(np.where(self.members, a, -np.inf), axis=1)
        log_S = peak + np.log(self.members @ np.exp(a - peak[self.group]))
        tail = (self.lp - self.lp_h - self.X[:, mq:] @ mu[mq:])[self.first]
        b = tail + (1 + lam) * log_S
        e0 = -(b.max() + math.log(np.exp(b - b.max()).sum()))
        log_pi = a - log_S[self.group]
        log_tau = b[self.group] + e0 + log_pi
        tau = np.exp(log_tau)
        return (e0, dict(zip(self.words, tau.tolist())), float(tau @ (log_tau - self.lp)),
                float(tau @ (log_pi - self.lp_h)), tau @ self.X)


def maximize_lbfgsb(block, rates, ensemble: str):
    """E_m(R) and its solved point for each split of an exponent ``_Block``
    at each rate, as a method of it (a list per split of one (value, point)
    per rate): each split alone, at each rate, solves lam = 0 and lam = 1
    and root-finds lam at mu = 0 on its own rows, then, under fc, runs
    L-BFGS-B over (lam, mu) from that point, always."""
    out = []
    for m in block.ms:
        one = type(block)(block.table, (m,))
        col = []
        for R in rates:
            mu = np.zeros(len(one.p_flat))

            def dual(pt, lam):
                return pt.e0 - float(mu @ one.p_flat) - lam * m * R

            def solve(lam):
                return one.solve(lam, mu)[0]

            lam, pt = 0.0, solve(0.0)
            if pt.I - m * R > 0:
                lam, pt = 1.0, solve(1.0)
                if pt.I - m * R < 0:
                    lam = brentq(lambda x: solve(x).I - m * R, 0.0, 1.0, xtol=1e-15)
                    pt = solve(lam)
            if ensemble == "fc":
                def neg_dual(x):
                    mu[one.free] = x[1:]
                    pt = one.solve(x[0], mu)[0]
                    grad = np.concatenate(([pt.I - m * R], (pt.marg - one.p_flat)[one.free]))
                    return -dual(pt, x[0]), -grad

                res = minimize(neg_dual, np.r_[lam, np.zeros(len(one.free))], jac=True,
                               method="L-BFGS-B",
                               bounds=[(0.0, 1.0)] + [(None, None)] * len(one.free),
                               options={"maxiter": 500, "ftol": 0.0, "gtol": 1e-11})
                lam = float(res.x[0])
                mu[one.free] = res.x[1:]
                pt = one.solve(res.x[0], mu)[0]
            col.append((dual(pt, lam), pt))
        out.append(col)
    return out


def full_parser() -> argparse.ArgumentParser:
    """The top-level parser with each subcommand's parser as its subparser,
    options, defaults and help included."""
    parser = argparse.ArgumentParser(prog="sepmac", description=cli.build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in cli.SUBCOMMANDS.items():
        sub.add_parser(name, help=text, parents=[cli.subcommand_parser(name)], add_help=False)
    return parser
