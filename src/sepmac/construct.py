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


# candidates q^N, and distinct output rows an exhaustive search numbers: the
# rows' table and masks of 2^20 bits reach about 250 MB (B s=2 q=2 N=14)
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
    its new output rows are that subset's rows at the candidate: bytes keys
    in greedy mode, and in exhaustive mode ids, one per distinct row of a
    search, held as the bits of int masks.

    Exhaustive mode returns the lexicographically smallest maximum code. At
    s = 1, where output rows need only differ, it is every N-word over R,
    the least symbol of each output, in index order: t* = |R|^N, and
    ``nodes`` counts its path, t* + 1. At s >= 2 it runs a branch-and-bound
    over the candidates in index order. It keeps one path, the code and the
    mask of its messages' ids, or-ed in on a push and xor-ed out on a pop,
    and a stack of frames, one per open node: its survivors in its current
    block of candidates, its read position and the block. A survivor's
    messages with the node's code have ids that miss the path's and differ
    from each other; it is stored with their mask, which a pop reads back
    from the parent's survivor before its read position. A child narrows its
    parent's survivors after its column and checks only what changed
    (``narrow``). A child with no survivors that cannot enter a later block
    is a leaf: counted, maybe the record, but given no frame. At s = 2 a
    push's one new subset is its column, whose ids over its own block the
    loop reads from a table keyed by column; s >= 3 pushes, and a node
    entering a block (the root its first) with the block's candidates, empty
    masks and every (s-1)-subset of the code, share one routine. The record
    is copied once, at the deepest node of its path. One subset's ids over
    one block come from one numpy gather of at most GATHER_CELLS cells; the
    s = 2 table and a per-search ``lru_cache`` of other subsets' ids share
    MEMO_CELLS cells, and each block's candidate columns are kept for the
    last few blocks. A mask is as wide as its largest id, so many distinct
    rows make every test slower, and a child's list is built in full on its
    push, so lists can cost more than the tries. A tree of more than
    NODE_GUARD nodes, or that numbers more than EXHAUSTIVE_GUARD rows,
    raises SizeLimitError, after the search has started.

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

    if s == 1:  # R, the smallest symbol of each output; column k runs each |R|^(N-1-k) times
        reps = np.sort(np.unique(channel.trans[0], return_index=True)[1]).astype(_dtype(q))
        words = np.stack([np.tile(np.repeat(reps, len(reps) ** (N - 1 - k)), len(reps) ** k)
                          for k in range(N)], axis=1)
        return SearchResult(len(words), Code(q, words), len(words) + 1, "exhaustive")

    step = max(1, GATHER_CELLS // N)  # candidates per block
    # at s = 2 pushes read their rows from ``cols`` and block entries from
    # ``row``'s cache: the two share the budget, half each
    memo_blocks = max(1, MEMO_CELLS // (min(step, n_cand) * N) // (1 + (s == 2)))

    # a node's full check and its children's reads use one block, and a few
    # more serve pops back into earlier blocks
    @functools.lru_cache(maxsize=8)
    def block(lo: int) -> np.ndarray:
        """The candidate columns of the block that starts at ``lo``."""
        return _digits(np.arange(lo, min(lo + step, n_cand)), q, N)

    ids: dict = {}  # each distinct output row the search reads, numbered in order

    @functools.lru_cache(maxsize=memo_blocks)
    def row(subset: tuple, lo: int) -> list:
        """The ids of the output rows of ``subset`` joined to each candidate
        of the block that starts at ``lo``."""
        keys = _keys(channel, output_ids(channel, _digits(subset, q, N)), block(lo))[:, 0].tolist()
        r = [ids.setdefault(key, len(ids)) for key in keys]
        if len(ids) > EXHAUSTIVE_GUARD:  # each mask would be wider, and each test slower
            raise SizeLimitError(f"search too large: more than {EXHAUSTIVE_GUARD} distinct output "
                                 f"rows (q^N = {n_cand}, s = {s})")
        return r

    # the path to the open node: its code and the mask of its messages'
    # ids, grown on a push and cut back on a pop
    chosen: list[int] = []
    seen = 0
    best: list[int] = []
    cols: dict = {}  # at s = 2, pushed columns' ids over their own blocks, emptied when full

    def narrow(rest, joins: list, lo: int, cut: int, push: int = 0) -> list:
        """The open node's survivors in the block at ``lo``: the entries
        (i, km) of ``rest`` before ``cut`` whose mask km misses ``push``, the
        mask a push added to ``seen``, and whose ids with the subsets
        ``joins`` miss ``seen`` and differ from each other and from km's. A
        push passes its parent's survivors after its column and its new
        subsets; a block entry, the block's candidates with empty masks and
        every (s-1)-subset of the code."""
        kept = []
        rows = [row(sub, lo) for sub in joins]
        # a descendant is at most one level deeper for each survivor kept
        # before its candidate, and the bound grows by one a level, so each
        # survivor kept raises the cut by one; a survivor's km missed
        # ``seen`` before the push, so only the push's ids can meet it
        for entry in rest:
            i, km = entry
            if i >= cut:
                break
            if rows:
                if km & push:
                    continue
                more = km  # each new id must miss ``seen``, km and the ones before it
                for r in rows:
                    b = 1 << r[i - lo]
                    if seen & b or more & b:
                        break
                    more |= b
                else:
                    kept.append((i, more))
                    cut += 1
            else:  # no new subset: the code is shorter than s - 1 and holds no message
                kept.append(entry)
                cut += 1
        return kept

    # the open node's frame, its survivors, how many it has tried and its
    # block (the root's first move enters the first), and its ancestors'
    kept, pos, lo, stack = [], 0, -step, []
    nodes = 1
    while True:
        # bound: from stop on, even taking every remaining candidate cannot
        # beat best; a path deeper than best puts stop past n_cand
        stop = n_cand - len(best) + len(chosen)
        if pos < len(kept):
            idx, new = kept[pos]
            if idx < stop:
                pos += 1
                nodes += 1
                if nodes > NODE_GUARD:
                    raise SizeLimitError(f"search tree too large: more than {NODE_GUARD} nodes "
                                         f"(q^N = {n_cand}, s = {s})")
                seen |= new  # exact to cut back: new misses seen
                if s == 2:  # the push's one new subset is its column: narrow's test, inline
                    if (r := cols.get(idx)) is None:
                        if len(cols) >= memo_blocks:
                            cols.clear()
                        r = cols[idx] = row.__wrapped__((idx,), lo)
                    child, cut = [], stop + 1
                    for i, km in itertools.islice(kept, pos, None):
                        if i >= cut:
                            break
                        b = 1 << r[i - lo]
                        if not (seen & (m := km | b) or km & b):
                            child.append((i, m))
                            cut += 1
                else:
                    child = narrow(itertools.islice(kept, pos, None), _joins(chosen, idx, s),
                                   lo, stop + 1, new)
                # a child with no survivors that cannot enter a later block is
                # a leaf: it is counted and may be the record, but gets no frame
                if child or (nxt := lo + step) <= stop and nxt < n_cand:
                    stack.append((kept, pos, lo))
                    kept, pos = child, 0
                    chosen.append(idx)
                else:
                    seen ^= new
                    if len(chosen) >= len(best):
                        best = [*chosen, idx]
                continue
        elif (lo := lo + step) < n_cand and lo < stop:
            fresh = ((i, 0) for i in range(lo, min(lo + step, n_cand)))
            kept, pos = narrow(fresh, [*itertools.combinations(chosen, s - 1)], lo, stop), 0
            continue
        # the node is done. The first node done on a path deeper than best is
        # its deepest: the record is copied here, once, not on each push past best
        if len(chosen) > len(best):
            best = chosen.copy()
        if not stack:
            break
        kept, pos, lo = stack.pop()
        chosen.pop()
        _, new = kept[pos - 1]  # the mask that the push added
        seen ^= new
    return SearchResult(len(best), Code(q, _digits(best, q, N)), nodes, "exhaustive")
