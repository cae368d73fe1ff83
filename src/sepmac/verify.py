"""Exact verification of code properties with counterexample witnesses.

All verifiers are exhaustive over the relevant message/tuple space and
deterministic: a failing verdict carries the lexicographically smallest
witness so that fixtures are stable. Channel-free properties test q-bit row
masks 1 << x, in the smallest unsigned dtype; a union is the OR of the rows'.

Every verifier walks the index sets by prefix (``_walk``), in bounded blocks:
a set of size k + 1 is a set of size k plus one larger index b, so its kernel
state is one gather from its prefix's, trans[state, x[b]], and its union one
OR. A set is its position in tuple order; only a witness is unranked (``_unrank``).

The collision verdicts take one path (``_collision``): a message, a prefix
plus one larger index b, gets one uint64 key, which _collision alone hashes
from the exact uint64 columns of its row that the verdict hands it. Only
candidates for the witness, found from each size's first repeated key, and
their keys' messages get their rows, one more step of the walk.
Separability's prefixes have s-1 codewords: a message's output in column i
is trans[prefix state, x_b[i]], so the output rows of a prefix's messages,
packed a few columns to an integer below 2^32, are one exact float64
product with the one-hot codewords (``_times_onehot``, built once a verdict
while it fits in _BLOCK_CELLS cells), one column a slice of the row.

The other channel-free verdicts but --hash, and factor decoding, lay a
codeword's masks end to end in W uint64 words (``_words``), zero-padded.
Codeword j lies inside a union u when every word of words[j] & ~u is 0
(``_covers``); (<= s)-separability, whose prefixes have 0..s-1 codewords,
hands _collision a union's words as its columns.
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
        """The verdict for a JSON record; `json` writes its tuples as lists."""
        d: dict = {"holds": self.holds}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.colliding_output is not None:
            d["colliding_output"] = self.colliding_output
        return d


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
    """Yield (lo, last, folds) in blocks of about _BLOCK_CELLS / cells rows, row i
    for the (lo + i)-th index set of size s in order (``_unrank``): its largest
    0-based index (-1 for the empty set) and its fold, step(prefix folds, b) for
    its prefix plus one larger index b, from the empty set's row ``zero``. With
    s = 0, the empty set alone; prefixes that cannot reach size s are dropped."""
    rows, last, folds = max(1, _BLOCK_CELLS // cells), np.full(1, -1), zero[None]
    if not s:
        yield 0, last, folds
    for k in range(1, s + 1):
        ends, first = _children(last, t - s + k)
        if k < s:
            level = np.empty(ends[-1], np.intp), np.empty((ends[-1], len(zero)), zero.dtype)
        for lo in range(0, ends[-1], rows):
            m = np.arange(lo, min(lo + rows, ends[-1]))
            p = np.searchsorted(ends, m, side="right")
            b = first[p] + m
            block = b, step(folds[p], b)
            if k < s:
                level[0][lo:lo + len(m)], level[1][lo:lo + len(m)] = block
            else:
                yield lo, *block
        if k < s:
            last, folds = level


def _children(last: np.ndarray, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Child m of the prefixes ending at ``last``, each plus a larger index below
    ``stop``, in order, is prefix p = searchsorted(ends, m, "right") plus first[p] + m."""
    counts = stop - 1 - last
    ends = np.cumsum(counts)
    return ends, last + 1 - ends + counts


def _unrank(t: int, k: int, r) -> tuple[int, ...]:
    """The k-subset of 1..t at position r in tuple order, of Python ints."""
    x, a, r = [], 1, int(r)
    for i in range(k, 1, -1):
        while r >= (c := comb(t - a, i - 1)):
            r, a = r - c, a + 1
        x, a = x + [a], a + 1
    return (*x, a + r)


def _union_walk(code: Code, rows: np.ndarray, s: int, cells: int):
    """_walk whose folds are unions: the OR of the members' rows, masks or words."""
    return _walk(code.t, s, np.zeros(rows.shape[1], rows.dtype), lambda u, b: u | rows[b], cells)


_HASH = np.uint64(0x9E3779B97F4A7C15)  # odd, so rows that differ in one column get distinct keys


def _collision(t: int, n: int, sizes: range, zero: np.ndarray, step, columns, cells: int,
               word) -> Verdict:
    """Holds when the n messages' rows are distinct. A message is a prefix of
    size k in ``sizes``, from _walk(t - 1, k, zero, step, cells), plus one
    larger index b, and its row is step(prefix's fold, b); columns(folds, c)
    gives a block's rows as exact uint64 columns of len(c), c being their
    cells p * t + b, and a key folds them as k * _HASH + u from the first.
    The witness is the first two messages, by size and then in order, of the
    group of equal rows whose first is least in tuple order, the order of
    each size's messages: the least candidate (a message whose key repeats,
    unless the key's first message in a smaller size has its row) that is
    its group's first and has a second, so no verdict depends on the hash.
    ``word`` gives the witness's output."""
    keys, levels, done = np.empty(n, np.uint64), [], 0
    for k in sizes:
        lo, held = done, []
        for _, last, folds in _walk(t - 1, k, zero, step, cells):
            # the prefix's messages add a larger index b, in order: cells p * t + b
            c = np.flatnonzero(np.arange(t) > last[:, None])
            keys[done:done + len(c)] = reduce(lambda k, u: k * _HASH + u, columns(folds, c))
            done += len(c)
            held.append((last, folds))
        levels.append((lo, done, k, held))
    if not (repeat := repeated(keys)).size:
        return Verdict(True)
    for i, (lo, hi, k, held) in enumerate(levels):
        last, folds = (np.concatenate(h) for h in zip(*held))
        # with the keys of lower sizes, sorted, and the first message of each
        low = np.unique(keys[:lo], return_index=True)
        levels[i] = lo, hi, k, folds, low, *_children(last, t)
    block = max(1, _BLOCK_CELLS // (sizes.stop * zero.nbytes))
    among = lambda values, k: values[np.searchsorted(values[:-1], k)] == k  # values sorted
    # the k-subsets of 1..t before a shorter set x in tuple order: those first less at p
    rank = lambda x, k: sum(comb(t - a, k - p) - comb(t - v + 1, k - p)
                            for p, (a, v) in enumerate(zip((0,) + x, x)))
    # a message's set, from its position among its size's messages
    unrank = lambda m: next(_unrank(t, k + 1, m - lo) for lo, hi, k, *_ in levels if m < hi)

    def build(m):
        """The rows of messages m."""
        rows = np.empty((len(m), len(zero)), zero.dtype)
        for lo, hi, k, folds, _, ends, first in levels:
            at = (lo <= m) & (m < hi)
            r = m[at] - lo  # message lo + r is child r of the level's prefixes
            p = np.searchsorted(ends, r, side="right")
            rows[at] = step(folds[p], first[p] + r)
        return rows

    def candidate(i, lo, stop):
        """Size i's first candidate in lo..stop-1, or stop: one at lo + d in O(d)."""
        (low, first), size = levels[i][4], 1
        while lo < stop:
            m = np.arange(lo, min(lo + size, stop))
            m = m[among(repeat, keys[m])]
            if low.size and (hit := among(low, keys[m])).any():
                j = np.searchsorted(low, keys[m[hit]])
                hit[hit] = (build(m[hit]) == build(first[j])).all(axis=1)
                m = m[~hit]
            if m.size:
                return m[0]
            lo, size = lo + size, min(2 * size, block)
        return stop

    heads = [level[0] for level in levels]  # no candidate before heads[i]
    while True:
        best = None  # a size is searched only before the least candidate below it
        for i, (lo, hi, k, *_) in enumerate(levels):
            stop = hi if best is None else min(hi, lo + rank(best[1], k + 1))
            if (c := candidate(i, heads[i], stop)) < stop:
                best = i, unrank(c), build(np.array([c]))[0]
            heads[i] = max(heads[i], c)
        if best is None:
            return Verdict(True)
        i, first, row = best
        # the first two messages of the candidate's key that have its row
        same, pair = np.flatnonzero(keys == keys[heads[i]]), []
        for a in range(0, len(same), block):
            m = same[a:a + block]
            pair += m[np.flatnonzero((build(m) == row).all(axis=1))[:2]].tolist()
            if len(pair) > 1:
                break
        if pair[0] == heads[i] and len(pair) > 1:
            return Verdict(False, witness=(first, unrank(pair[1])),
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

    def columns(states, cells):
        # a block's products take at most _BLOCK_CELLS multiply-adds each
        for lo, hi in slices:
            packed = np.take(values, states[:, lo:hi], axis=0)
            packed *= shift[:hi - lo]
            yield times(packed.reshape(len(states), -1), lo, hi).ravel().take(cells).astype(
                np.uint64)
    return _collision(t, n, range(s - 1, s), np.zeros(N, trans.dtype), step, columns,
                      t * per * q, lambda row: tuple(channel.outputs[z] for z in row.tolist()))


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
    # a block's messages take about _BLOCK_CELLS / 8 bytes of words
    return _collision(t, n, range(s), np.zeros(words.shape[1], np.uint64), step,
                      lambda unions, c: step(unions[c // t], c % t).T,
                      8 * t * words.shape[1], lambda row: _subsets_of(row, code))


def _cover_verdict(code: Code, s: int, limit: int, pick) -> Verdict:
    """Fails at the lexicographically first s-tuple whose union covers more
    than ``limit`` codewords outside it; ``pick`` turns the tuple of covered
    codewords into the witness's second entry."""
    columns = np.ascontiguousarray((words := _words(_masks(code))).T)
    for lo, _, unions in _union_walk(code, words, s, code.t * len(columns)):
        covered = _covers(unions, columns, s)  # each row's s members among its flags
        if (bad := np.flatnonzero(covered.sum(axis=1) > s + limit)).size:
            i, members = bad[0], _unrank(code.t, s, lo + bad[0])
            js = tuple(j for j in (np.flatnonzero(covered[i]) + 1).tolist() if j not in members)
            return Verdict(False, witness=(members, pick(js)),
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
    for lo, _, unions in _union_walk(code, masks, s, s * code.N):
        distinct = np.bitwise_count(unions) == s
        bad = np.flatnonzero(~distinct.any(axis=1))
        if bad.size:
            return Verdict(False, witness=(_unrank(code.t, s, lo + bad[0]),))
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
