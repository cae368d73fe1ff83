"""Exact verification of code properties with counterexample witnesses.

All verifiers are exhaustive over the relevant message/tuple space and
deterministic: a failing verdict carries the lexicographically smallest
witness so that fixtures are stable. Channel-free properties test q-bit row
masks 1 << x, in the smallest unsigned dtype; a union is the OR of the rows'.

Every verifier walks the index sets by prefix (``_walk``): a set of size
k + 1 is a set of size k extended by one larger index, so its kernel state
is one gather from its prefix's state, trans[state, x[b]], and its union
one OR with its prefix's union. The sets come in bounded blocks.

The collision verdicts take one path (``_collision``): a message, a prefix
plus one larger index b, gets one uint64 key, equal rows equal keys. Only
candidates for the witness, found from each size's first repeated key, and
their keys' messages get their sets and rows, one more step of the walk.
Separability's prefixes have s-1 codewords: a message's output in column i
is trans[prefix state, x_b[i]], so the output rows of a prefix's messages,
packed a few columns to an integer below 2^32, are one exact float64
product with the one-hot codewords (``_times_onehot``, built once a verdict
while it fits in _BLOCK_CELLS cells).

The other channel-free verdicts but --hash, and factor decoding, lay a
codeword's masks end to end in W uint64 words (``_words``), zero-padded.
Codeword j lies inside a union u when every word of words[j] & ~u is 0
(``_covers``); (<= s)-separability, whose prefixes have 0..s-1 codewords,
keys a union by its words as base-_HASH digits mod 2^64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from typing import Optional, Sequence

import numpy as np

from .core import Code, InvalidParametersError, InvalidSymbolError, SizeLimitError, repeated
from .channels import ChannelSpec


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
    if isinstance(obj, tuple):
        return [_jsonable(x) for x in obj]
    return obj


MESSAGE_GUARD = 10 ** 6  # index sets a verifier may enumerate
_BLOCK_CELLS = 1 << 18   # array cells per block of walked index sets


def check_params(prop: str, t: int, q: int, s: int, L: Optional[int] = None) -> int:
    """The checks that verifying ``prop`` ("separable", "le_separable",
    "frameproof", "hash" or "list" with L) on a q-ary code of size t makes
    before it reads a symbol, in order: s and L in range, q within the row
    masks of the channel-free properties, at most MESSAGE_GUARD index sets.
    Returns the number of index sets. A code file's header decides them all."""
    if prop == "hash":
        if q < s:
            raise InvalidParametersError(f"hash property requires q >= s, got q={q}, s={s}")
        if not 1 <= s <= t:
            raise InvalidParametersError(f"need 1 <= s <= t, got s={s}, t={t}")
    elif prop == "list":
        if s < 1 or L < 1:
            raise InvalidParametersError(f"need s >= 1 and L >= 1, got s={s}, L={L}")
        if s >= t:
            raise InvalidParametersError(f"need s < t, got s={s}, t={t}")
    elif not 1 <= s < t:
        raise InvalidParametersError(f"need 1 <= s < t, got s={s}, t={t}")
    if prop != "separable":
        _check_masks(q)
    n = 0
    for k in range(1, s + 1) if prop == "le_separable" else [s]:
        # C(t, k) is built up as C(t, 1), C(t, 2), ..., which grow up to t/2,
        # so a partial count past the guard refuses without the whole count
        c = 1
        for i in range(min(k, t - k)):
            c = c * (t - i) // (i + 1)
            if n + c > MESSAGE_GUARD:
                raise SizeLimitError(f"instance too large: more than {MESSAGE_GUARD} index sets")
        n += c
    return n


def _walk(t: int, s: int, zero: np.ndarray, step, cells: int):
    """Yield (sets, folds) in blocks of about _BLOCK_CELLS / cells rows: the
    0-based index sets of size s, lexicographically, each with its fold. A set
    is its prefix plus one larger index b, folded as step(prefix folds, b) from
    the empty set's row ``zero``; with s = 0, the empty set alone. Prefixes
    that cannot reach size s are dropped."""
    rows, sets, folds = max(1, _BLOCK_CELLS // cells), np.empty((1, 0), np.intp), zero[None]
    if not s:
        yield sets, folds
    for k in range(1, s + 1):
        ends, first = _children(sets, t - s + k)
        if k < s:
            level = np.empty((ends[-1], k), np.intp), np.empty((ends[-1], len(zero)), zero.dtype)
        for lo in range(0, ends[-1], rows):
            m = np.arange(lo, min(lo + rows, ends[-1]))
            p = np.searchsorted(ends, m, side="right")
            b = first[p] + m
            block = np.column_stack([sets[p], b]), step(folds[p], b)
            if k < s:
                level[0][lo:lo + len(m)], level[1][lo:lo + len(m)] = block
            else:
                yield block
        if k < s:
            sets, folds = level


def _children(prefixes: np.ndarray, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The children of ``prefixes``, each plus a larger index below ``stop``, in
    order: child m is prefix p = searchsorted(ends, m, "right") plus first[p] + m."""
    last = prefixes[:, -1] if prefixes.shape[1] else np.full(len(prefixes), -1)
    counts = stop - 1 - last
    ends = np.cumsum(counts)
    return ends, last + 1 - ends + counts


def _union_walk(code: Code, rows: np.ndarray, s: int, cells: int):
    """_walk whose folds are unions: the OR of the members' rows, masks or words."""
    return _walk(code.t, s, np.zeros(rows.shape[1], rows.dtype), lambda u, b: u | rows[b], cells)


def _as_tuple(index_set: np.ndarray) -> tuple[int, ...]:
    """A 1-based index set, padded with 0 at the end, as a tuple."""
    return tuple(j for j in index_set.tolist() if j)


def _collision(t: int, n: int, sizes: range, zero: np.ndarray, step, key, cells: int,
               word) -> Verdict:
    """Holds when the n messages' rows are distinct. A message is a prefix of
    size k in ``sizes``, from _walk(t - 1, k, zero, step, cells), plus one
    larger index b, and its row is step(prefix's fold, b); key(folds, c) keys
    a block's messages, c being their cells p * t + b, equal rows equal keys.
    The witness is the first two messages, by size and then in order, of the
    group of equal rows whose first is least in tuple order, the order of
    each size's messages: the least candidate (a message whose key repeats,
    unless the key's first message in a smaller size has its row) that is
    its group's first and has a second, so no verdict depends on the hash.
    ``word`` gives the witness's output."""
    keys, levels, done = np.empty(n, np.uint64), [], 0
    for k in sizes:
        lo, held = done, []
        for prefix, folds in _walk(t - 1, k, zero, step, cells):
            # the prefix's messages add a larger index b, in order: cells p * t + b
            c = np.flatnonzero(np.arange(t) > (prefix[:, -1:] if k else -1))
            keys[done:done + len(c)], done = key(folds, c), done + len(c)
            held.append((prefix, folds))
        levels.append((lo, done, k, held))
    if not (repeat := repeated(keys)).size:
        return Verdict(True)
    for i, (lo, hi, k, held) in enumerate(levels):
        prefix, folds = (np.concatenate(h) for h in zip(*held))
        # with the keys of lower sizes, sorted, and the first message of each
        low = np.unique(keys[:lo], return_index=True)
        levels[i] = lo, hi, k, prefix, folds, low, *_children(prefix, t)
    block = max(1, _BLOCK_CELLS // (sizes.stop * zero.nbytes))
    among = lambda values, k: values[np.searchsorted(values[:-1], k)] == k  # values sorted
    # the k-subsets of 1..t before the set x in tuple order: those first less at p, and x[:k]
    rank = lambda x, k: (len(x) > k) + sum(comb(t - a, k - p) - comb(t - v + 1, k - p)
                                           for p, (a, v) in enumerate(zip((0,) + x, x[:k])))

    def build(m):
        """The sets (1-based, padded with 0 at the end: in tuple order) and rows of messages m."""
        sets = np.zeros((len(m), sizes.stop), np.min_scalar_type(t))
        rows = np.empty((len(m), len(zero)), zero.dtype)
        for lo, hi, k, prefix, folds, _, ends, first in levels:
            at = (lo <= m) & (m < hi)
            r = m[at] - lo  # message lo + r is child r of the level's prefixes
            p = np.searchsorted(ends, r, side="right")
            sets[at, :k], sets[at, k] = prefix[p] + 1, first[p] + r + 1
            rows[at] = step(folds[p], first[p] + r)
        return sets, rows

    def candidate(i, lo, stop):
        """Size i's first candidate in lo..stop-1, or stop: one at lo + d in O(d)."""
        (low, first), size = levels[i][5], 1
        while lo < stop:
            m = np.arange(lo, min(lo + size, stop))
            m = m[among(repeat, keys[m])]
            if low.size and (hit := among(low, keys[m])).any():
                j = np.searchsorted(low, keys[m[hit]])
                hit[hit] = (build(m[hit])[1] == build(first[j])[1]).all(axis=1)
                m = m[~hit]
            if m.size:
                return m[0]
            lo, size = lo + size, min(2 * size, block)
        return stop

    heads = [level[0] for level in levels]  # no candidate before heads[i]
    while True:
        best = None  # a size is searched only before the least candidate below it
        for i, (lo, hi, k, *_) in enumerate(levels):
            stop = hi if best is None else min(hi, lo + rank(_as_tuple(best[1]), k + 1))
            if (c := candidate(i, heads[i], stop)) < stop:
                best = i, *(a[0] for a in build(np.array([c])))
            heads[i] = max(heads[i], c)
        if best is None:
            return Verdict(True)
        i, first, row = best
        # the first two messages of the candidate's key that have its row
        same, pair = np.flatnonzero(keys == keys[heads[i]]), []
        for a in range(0, len(same), block):
            sets, rows = build(m := same[a:a + block])
            pair += [(m[j], sets[j]) for j in np.flatnonzero((rows == row).all(axis=1))[:2]]
            if len(pair) > 1:
                break
        if pair[0][0] == heads[i] and len(pair) > 1:
            return Verdict(False, witness=(_as_tuple(first), _as_tuple(pair[1][1])),
                           colliding_output=(word(row),))
        heads[i] += 1


def _times_onehot(code: Code):
    """times(left, lo, hi): the (M, t) float64 product of ``left``, (M, (hi - lo) * q),
    with the codewords' one-hot symbols in columns lo..hi-1, cell (b, (i - lo) * q + a)
    being 1 where x_b[i] = a. The one-hot matrix is built once if it fits in
    _BLOCK_CELLS cells, else for every product, in blocks of codewords within it."""
    symbols, q = np.arange(code.q, dtype=code.symbols.dtype), code.q
    onehot = lambda x: (x[:, :, None] == symbols).reshape(len(x), -1).T.astype(np.float64)
    if code.t * code.N * q <= _BLOCK_CELLS:
        whole = onehot(code.symbols)
        return lambda left, lo, hi: left @ whole[lo * q:hi * q]

    def times(left, lo, hi):
        rows = max(1, _BLOCK_CELLS // left.shape[1])
        parts = [left @ onehot(code.symbols[b:b + rows, lo:hi]) for b in range(0, code.t, rows)]
        return parts[0] if len(parts) == 1 else np.hstack(parts)
    return times


_HASH = np.uint64(0x9E3779B97F4A7C15)  # odd, so rows that differ in one slice get distinct keys


def is_separable(code: Code, s: int, channel: ChannelSpec) -> Verdict:
    """All channel output words over s-messages are pairwise distinct; the
    colliding output is the word's tuple of output labels.

    ``per`` columns of output ids at ``bits`` bits each make a slice below
    2^32, an integer that the float64 product computes exactly."""
    if channel.s != s or channel.q != code.q:
        raise InvalidParametersError(
            f"channel (s={channel.s}, q={channel.q}) does not match (s={s}, q={code.q})")
    n = check_params("separable", code.t, code.q, s)
    t, N, q = code.t, code.N, code.q
    # a step reads trans[state, x[b]]: a state, or after s symbols an output id
    trans = channel.trans.ravel()
    step = lambda u, b: trans[np.multiply(u, q, dtype=np.intp) + code.symbols[b]]
    values = channel.trans.astype(float)
    bits = max(1, (len(channel.outputs) - 1).bit_length())
    per = 32 // bits
    shift = (2.0 ** (bits * np.arange(per)))[:, None]
    slices = [(lo, min(lo + per, N)) for lo in range(0, N, per)]
    times = _times_onehot(code)

    def key(states, cells):
        # a block's products take at most _BLOCK_CELLS multiply-adds each
        key = np.zeros(len(cells), np.uint64)
        for lo, hi in slices:
            key *= _HASH
            packed = np.take(values, states[:, lo:hi], axis=0)
            packed *= shift[:hi - lo]
            key += times(packed.reshape(len(states), -1), lo, hi).ravel().take(cells).astype(
                np.uint64)
        return key
    return _collision(t, n, range(s - 1, s), np.zeros(N, trans.dtype), step, key, t * per * q,
                      lambda row: tuple(channel.outputs[z] for z in row.tolist()))


def _check_masks(q: int) -> np.dtype:
    """The dtype of q-bit row masks, the smallest unsigned one; q > 64 is refused."""
    if q > 64:
        raise SizeLimitError(f"alphabet size {q} exceeds the 64-bit row masks")
    return np.min_scalar_type((1 << q) - 1)


def _masks(code: Code) -> np.ndarray:
    """(t, N) q-bit row masks 1 << x of the code's symbols."""
    dtype = _check_masks(code.q)
    return (np.uint64(1) << np.arange(code.q, dtype=np.uint64)).astype(dtype)[code.symbols]


def _words(masks: np.ndarray) -> np.ndarray:
    """(len(masks), W) uint64: each row's masks end to end, zero-padded to whole words."""
    b = masks.view(np.uint8).reshape(len(masks), -1)
    return np.hstack([b, np.zeros((len(b), -b.shape[1] % 8), np.uint8)]).view(np.uint64)


def _subsets_of(words: np.ndarray, code: Code) -> tuple:
    """The N symbol sets of a union, one row of its words."""
    masks = words.view(np.uint8)[:code.N * (dtype := _check_masks(code.q)).itemsize].view(dtype)
    return tuple(tuple(a for a in range(code.q) if m >> a & 1) for m in masks.tolist())


def _covers(unions: np.ndarray, words: np.ndarray, members: int) -> np.ndarray:
    """(M, t) flags: codeword j lies inside union m, every word of words[j] &
    ~unions[m] being 0; ``words`` holds the codewords' words transposed, (W, t).
    A union's ``members`` lie inside it, so a row down to that many flags is
    settled, and each next word is tested on the unsettled rows only."""
    covered, w = (~unions[:, :1] & words[0]) == 0, 1
    rows = np.flatnonzero(covered.sum(axis=1) > members)
    while rows.size and w < len(words):
        covered[rows] &= (~unions[rows, w:w + 1] & words[w]) == 0
        rows, w = rows[covered[rows].sum(axis=1) > members], w + 1
    return covered


def is_at_most_s_separable(code: Code, s: int) -> Verdict:
    """Coordinate-wise unions distinguish every pair of distinct index sets
    of sizes 1..s (the A-MAC, tuples of unequal size included)."""
    n, words = check_params("le_separable", code.t, code.q, s), _words(_masks(code))
    t, step = code.t, lambda u, b: u | words[b]
    # a union's words u key as sum_w u_w * _HASH^(W-1-w) mod 2^64, by Horner's rule
    key = lambda unions, c: reduce(lambda k, u: k * _HASH + u, step(unions[c // t], c % t).T)
    # a block's messages take about _BLOCK_CELLS / 8 bytes of words
    return _collision(t, n, range(s), np.zeros(words.shape[1], np.uint64), step, key,
                      8 * t * words.shape[1], lambda row: _subsets_of(row, code))


def _cover_verdict(code: Code, s: int, limit: int, pick) -> Verdict:
    """Fails at the lexicographically first s-tuple whose union covers more
    than ``limit`` codewords outside it; ``pick`` turns the tuple of covered
    codewords into the witness's second entry."""
    columns = np.ascontiguousarray((words := _words(_masks(code))).T)
    for block, unions in _union_walk(code, words, s, code.t * len(columns)):
        covered = _covers(unions, columns, s)  # each row's s members among its flags
        if (bad := np.flatnonzero(covered.sum(axis=1) > s + limit)).size:
            i = bad[0]
            js = tuple(j + 1 for j in np.flatnonzero(covered[i]).tolist() if j not in block[i])
            return Verdict(False, witness=(_as_tuple(block[i] + 1), pick(js)),
                           colliding_output=(_subsets_of(unions[i], code),))
    return Verdict(True)


def is_frameproof(code: Code, s: int) -> Verdict:
    """No codeword outside an s-tuple is covered by the tuple's union.

    Tuples are index sets; a codeword equal (as a column) to a tuple member
    but with a different index is covered and reported as a failure.
    """
    check_params("frameproof", code.t, code.q, s)
    return _cover_verdict(code, s, 0, lambda js: js[0])


def is_hash(code: Code, s: int) -> Verdict:
    """Every s-tuple of codewords has a coordinate with all symbols distinct."""
    check_params("hash", code.t, code.q, s)
    masks = _masks(code)
    for block, unions in _union_walk(code, masks, s, s * code.N):
        distinct = np.bitwise_count(unions) == s
        bad = np.flatnonzero(~distinct.any(axis=1))
        if bad.size:
            return Verdict(False, witness=(_as_tuple(block[bad[0]] + 1),))
    return Verdict(True)


def is_list_decoding(code: Code, s: int, L: int) -> Verdict:
    """Every s-collection's union covers at most L-1 codewords outside it."""
    check_params("list", code.t, code.q, s, L)
    return _cover_verdict(code, s, L - 1, lambda js: js)


def factor_decode(code: Code, z: Sequence[Sequence[int]]) -> set[int]:
    """All codeword indices covered by the observed union word ``z``
    (a sequence of N subsets of 0..q-1; any other symbol is an error)."""
    if len(z) != code.N:
        raise InvalidParametersError(f"output word length {len(z)} != code length {code.N}")
    dtype = _check_masks(code.q)
    given = np.array([a for zi in z for a in zi], dtype=object)
    bad = (given < 0) | (given >= code.q)
    if bad.any():
        raise InvalidSymbolError(f"symbol {given[bad.argmax()]} outside alphabet of size {code.q}")
    union = _words(np.array([[sum(1 << a for a in set(zi)) for zi in z]], dtype=dtype))
    covered = ~(_words(_masks(code)) & ~union).any(axis=1)
    return set((np.flatnonzero(covered) + 1).tolist())
