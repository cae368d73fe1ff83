"""Code generators and constructions: random ensembles, the alphabet-reduction
construction and its length factor ``k_factor``, and desk-scale maximal-code
search. Built on core and channels alone, so it loads without scipy."""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Code, Distribution, InvalidParametersError, SizeLimitError, _dtype
from .channels import ChannelSpec, output_ids


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


def _entry_rng(seed: int, column: int) -> random.Random:
    # counter-based stream: the state depends only on (seed, column), so
    # parallel generation is order-independent
    return random.Random((seed & 0xFFFFFFFFFFFFFFFF) * 0x9E3779B97F4A7C15
                         + column * 0x100000001B3)


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


def k_factor(q: int, qprime: int) -> int:
    """Length blow-up of the alphabet-reduction construction."""
    if qprime < q or q < 2:
        raise InvalidParametersError(f"need q' >= q >= 2, got q={q}, q'={qprime}")
    if qprime == q:
        return 1
    return -(-qprime // (q - 1))  # integer ceiling: q' may be past a float's range


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
# key cells a greedy search may gather: about 20 s at the 10^8 cells/s of a
# 2-CPU Xeon, so B s=2 q=2 N=17 (1.4·10^9 cells, 14 s) runs and N = 20 is refused
GREEDY_GUARD = 2 ** 31
GATHER_CELLS = 2 ** 12  # kernel cells one block of a subset's output keys may hold
MEMO_CELLS = 2 ** 21  # kernel cells of key blocks one exhaustive search keeps


@dataclass
class SearchResult:
    t_star: int
    code: Code
    nodes: int
    mode: str

    def to_dict(self) -> dict:
        return {"t_star": self.t_star, "nodes": self.nodes, "mode": self.mode}


def _digits(indices, q: int, N: int) -> np.ndarray:
    """The candidate columns of ``indices``, an array or nested sequence of
    them: column i is the N base-q digits of i, most significant first, so
    index order is lexicographic. The digits are a new last axis."""
    return np.asarray(indices, dtype=np.intp)[..., None] // q ** np.arange(N - 1, -1, -1) % q


def _keys(channel: ChannelSpec, states: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """keys[i, j]: the output row, one void item (bytes under ``tolist``),
    of the message joining ``columns[i]`` to the subset whose kernel states
    are ``states[j]``: one gather."""
    rows = channel.trans[states, columns[:, None]]
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]


def _joins(chosen: list, idx: int, s: int) -> list:
    """The (s-1)-subsets, as index tuples, that candidate ``idx`` forms with
    the code ``chosen``: none at s = 1, where the one subset is empty."""
    return [sub + (idx,) for sub in itertools.combinations(chosen, s - 2)] if s > 1 else []


def max_code_search(channel: ChannelSpec, N: int, mode: str = "exhaustive",
                    seed: int = 0) -> SearchResult:
    """Find a maximum (exhaustive) or maximal (greedy) s-separable code of
    length N over the channel's alphabet, s being the channel's user count.

    Candidate column i is the N base-q digits of i, so index order is
    lexicographic; no table of the q^N columns is built, nor q^N itself
    past EXHAUSTIVE_GUARD, where both modes raise SizeLimitError. A
    candidate's new messages join it to each (s-1)-subset of the code, so
    its new output rows are that subset's keys (one bytes object per output
    row) at the candidate.

    Exhaustive mode runs a branch-and-bound over the candidates in index
    order; the returned witness is the lexicographically smallest maximum
    code. The search keeps one path, the code and its messages' keys, grown
    on a push and cut back on a pop, so no node copies its parent's code.
    Each open node holds its surviving candidates in its current block of
    candidates: those whose messages with its code have output keys that
    miss the path's and differ from each other, each stored with those
    keys, one per (s-1)-subset of the code. One routine builds every list.
    A child narrows its parent's survivors after its column and checks only
    what changed: a survivor's stored keys must miss the ones the push
    added, and its keys with the child's new subsets must miss the path's
    and differ from each other and from its stored keys. At s = 2 a push
    passes its column as its one new subset, and a survivor gains one key
    from that subset's row. A node entering a block, the root its first,
    narrows the block's candidates, with no keys stored, by every
    (s-1)-subset of the code. A list ends at a cut that its caller passes
    from its bound and each survivor kept raises by one: no descendant can
    take a candidate past it. The record is copied once, at the deepest
    node of its path. One subset's keys over one block are one numpy gather
    of at most GATHER_CELLS cells, read through a per-search ``lru_cache``
    that keeps at most MEMO_CELLS cells; each block's candidate columns are
    built once and kept for the last few blocks. A child's list is built in
    full when it is pushed, so where every candidate survives (s = 1) or
    the bound ends most nodes early, the lists cost more than the nodes'
    tries. A tree of more than NODE_GUARD nodes raises SizeLimitError,
    after the search has started.

    Greedy mode tries each candidate once, in an order shuffled by
    ``seed``, gathering every subset's keys for a block of that order at a
    time, and the rest of the block anew once a candidate adds subsets; no
    block is read twice, so it keeps no memo. A greedy search that would
    gather more than GREEDY_GUARD key cells raises SizeLimitError before
    that gather.
    """
    s, q = channel.s, channel.q
    if mode not in ("exhaustive", "greedy"):
        raise InvalidParametersError(f"unknown search mode {mode!r}")
    if N < 1:
        raise InvalidParametersError(f"code length N must be >= 1, got N={N}")
    # q >= 2 puts q^k past the guard at its bit length k, so no q^N past it is built
    if (n_cand := q ** min(N, EXHAUSTIVE_GUARD.bit_length())) > EXHAUSTIVE_GUARD:
        raise SizeLimitError(f"instance too large: q^N exceeds guard {EXHAUSTIVE_GUARD} "
                             f"(q={q}, N={N})")

    if mode == "greedy":
        order = list(range(n_cand))
        random.Random(seed).shuffle(order)
        chosen: list[int] = []
        seen: set = set()
        # the kernel states of the (s-1)-subsets of the code: at first the
        # empty subset's at s = 1, else none
        states = np.zeros((int(s == 1), N), dtype=np.intp)
        lo = gathered = 0
        while lo < n_cand:
            # every subset's keys over the next block of the order, of at
            # most GATHER_CELLS cells, in one gather
            block = order[lo:lo + max(1, GATHER_CELLS // (max(1, len(states)) * N))]
            gathered += len(block) * len(states) * N
            if gathered > GREEDY_GUARD:
                raise SizeLimitError(f"greedy search too large: more than {GREEDY_GUARD} key cells "
                                     f"gathered (q^N = {n_cand}, s = {s})")
            keys = _keys(channel, states, _digits(block, q, N))
            for i, idx in enumerate(block):
                new = keys[i].tolist()
                # the new messages' output rows differ from ``seen`` and from each other
                if not (seen.isdisjoint(new) and len(set(new)) == len(new)):
                    continue
                joins = _joins(chosen, idx, s)
                chosen.append(idx)
                seen.update(new)
                if joins:
                    states = np.concatenate(
                        [states, output_ids(channel, _digits(joins, q, N).swapaxes(0, 1))])
                    break  # gather the rest of the block anew
            lo += i + 1
        return SearchResult(len(chosen), Code(q, _digits(sorted(chosen), q, N)), n_cand, "greedy")

    step = max(1, GATHER_CELLS // N)  # candidates per block
    memo_blocks = max(1, MEMO_CELLS // (min(step, n_cand) * N))

    # a node's full check and its children's reads use one block, and a few
    # more serve pops back into earlier blocks
    @functools.lru_cache(maxsize=8)
    def block(lo: int) -> np.ndarray:
        """The candidate columns of the block that starts at ``lo``."""
        return _digits(np.arange(lo, min(lo + step, n_cand)), q, N)

    @functools.lru_cache(maxsize=memo_blocks)
    def row(subset: tuple, lo: int) -> list:
        """The keys of ``subset`` joined to each candidate of the block that
        starts at ``lo``."""
        return _keys(channel, output_ids(channel, _digits(subset, q, N)), block(lo))[:, 0].tolist()

    # the path to the open node: its code and its messages' output keys,
    # grown on a push and cut back on a pop
    chosen: list[int] = []
    seen: set = set()
    best: list[int] = []

    def narrow(rest, joins: list, lo: int, cut: int) -> list:
        """The open node's survivors in the block at ``lo``: the entries
        (i, keys) of ``rest`` before ``cut`` whose stored keys miss ``seen``
        and whose keys with the subsets ``joins`` miss ``seen`` and differ
        from each other and from the stored keys. A push passes its parent's
        survivors after its column and its new subsets; a block entry, the
        block's candidates with no keys and every (s-1)-subset of the code."""
        kept = []
        # a descendant is at most one level deeper for each survivor kept
        # before its candidate, and the bound grows by one a level, so each
        # survivor kept raises the cut by one; a survivor's stored keys
        # missed ``seen`` before the push, so ``seen.isdisjoint(keys)``
        # tests them against the push's keys
        if len(joins) == 1:  # one new message a survivor, every push at s = 2
            r = row(joins[0], lo)
            for i, keys in rest:
                if i >= cut:
                    break
                new = r[i - lo]
                if new not in seen and new not in keys and seen.isdisjoint(keys):
                    kept.append((i, keys + (new,)))
                    cut += 1
            return kept
        rows = [row(sub, lo) for sub in joins]
        for entry in rest:
            i, keys = entry
            if i >= cut:
                break
            if seen.isdisjoint(keys):
                if rows:
                    more = tuple([r[i - lo] for r in rows])
                    if not (seen.isdisjoint(more) and len(fresh := set(more)) == len(more)
                            and fresh.isdisjoint(keys)):
                        continue
                    entry = i, keys + more
                kept.append(entry)
                cut += 1
        return kept

    # one entry per open node: the keys it added to ``seen``, the block it
    # is in, its survivors there and how many of them it has tried; the root
    # starts before the first block, so its first move enters it
    stack = [[(), -step, [], 0]]
    nodes = 1
    while True:
        node = stack[-1]
        _, lo, kept, tried = node
        # bound: from stop on, even taking every remaining candidate cannot
        # beat best; a path deeper than best puts stop past n_cand
        stop = n_cand - len(best) + len(chosen)
        if tried < len(kept):
            idx, new = kept[tried]
        else:
            lo += step
            if lo < n_cand and lo < stop:
                fresh = ((i, ()) for i in range(lo, min(lo + step, n_cand)))
                node[1:] = lo, narrow(fresh, [*itertools.combinations(chosen, s - 1)], lo, stop), 0
                continue
            idx = stop
        if idx >= stop:  # the node is done
            # the first node done on a path deeper than best is its deepest:
            # the record is copied here, once, not on each push past best
            if len(chosen) > len(best):
                best = chosen.copy()
            if not chosen:
                break
            stack.pop()
            chosen.pop()
            seen.difference_update(node[0])
            continue
        node[3] = tried + 1
        nodes += 1
        if nodes > NODE_GUARD:
            raise SizeLimitError(f"search tree too large: more than {NODE_GUARD} nodes "
                                 f"(q^N = {n_cand}, s = {s})")
        rest = itertools.islice(kept, tried + 1, None)
        joins = [(idx,)] if s == 2 else _joins(chosen, idx, s)  # at s = 2, the column
        chosen.append(idx)
        seen.update(new)  # exact to cut back: distinct, and disjoint from ``seen``
        stack.append([new, lo, narrow(rest, joins, lo, stop + 1), 0])
    return SearchResult(len(best), Code(q, _digits(best, q, N)), nodes, "exhaustive")
