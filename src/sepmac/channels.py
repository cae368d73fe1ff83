"""Symmetric multiple-access channel models.

A symmetric MAC is a deterministic function of the multiset of the s input
symbols, so a channel, ``ChannelSpec(name, q, s, output)``, is one function
from the C(q+s-1, s) compositions (count tuples) to outputs. An output is
its printed label, the ``str`` of the function's value: the A-MAC prints
the set of inputs as ``{0,1}``, the B-MAC the composition as ``(1,1)``.
``make_channel`` alone knows the built-in rules. Building the integer
kernel (``_kernel``), one table through which s symbols fold to their output
id, is the one walk over the compositions; ``output_ids`` maps s-words to
output ids and ``output_law`` gives the output law of i.i.d. inputs.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .core import InvalidParametersError, SizeLimitError, _content, _header

KERNEL_GUARD = 2 ** 20  # a channel's compositions of weight <= s, C(q+s, s), times q
_UNPRINTABLE = 10 ** 4300


def _check_shape(q: int, s: int) -> None:
    """Refuse q < 2, s < 1 and an (s, q) whose kernel would exceed
    KERNEL_GUARD cells."""
    if q < 2:
        raise InvalidParametersError(f"alphabet size must be >= 2, got {q}")
    if s < 1:
        raise InvalidParametersError(f"user count must be >= 1, got {s}")
    # q * C(q+s, i) only grows up to i = min(q, s), where it is the count: one
    # too long to print (an int prints at most 4300 digits) is refused unprinted
    cells = q
    for i in range(min(q, s)):
        cells = cells * (q + s - i) // (i + 1)
        if cells >= _UNPRINTABLE:
            raise SizeLimitError(f"channel too large: C(q+s, s)*q kernel cells exceed guard "
                                 f"{KERNEL_GUARD} (q={q}, s={s})")
    if cells > KERNEL_GUARD:
        raise SizeLimitError(f"channel too large: C(q+s, s)*q = {cells} kernel cells "
                             f"exceed guard {KERNEL_GUARD} (q={q}, s={s})")


class ChannelSpec:
    """A symmetric f-MAC named ``name``: ``output(c)`` is the output of each
    weight-s composition c over A_q (a count tuple), and the kernel is built
    from it. An output is the label it prints, ``str(output(c))``, so values
    with equal labels are one output."""

    def __init__(self, name: str, q: int, s: int, output):
        _check_shape(q, s)
        self._name, self.q, self.s, self.output = name, q, s, output
        self.trans, self.outputs = _kernel(q, s, output)
        self._folds: tuple = (0, [])  # _fold_index's batch size and its folds

    def __repr__(self):
        return f"ChannelSpec({self._name}, q={self.q}, s={self.s})"

    def name(self) -> str:
        return self._name


def _kernel(q: int, s: int, output) -> tuple[np.ndarray, tuple]:
    """(trans, outputs) over the compositions of weight < s, by weight and then
    in count order (state 0 is empty): trans[state, a] adds symbol a, giving the
    next state below weight s-1 and at weight s-1 the output id of the weight-s
    composition c reached, so s symbols fold from state 0 to their output id.
    outputs[id] is c's label ``str(output(c))``; equal labels share an id, and
    ``trans`` has the smallest dtype that holds every state and id. A state is
    kept as its sorted word, so adding a symbol is an insertion and its counts
    are a bincount; count order is reverse word order."""
    words = [w for k in range(s + 1)
             for w in reversed(list(itertools.combinations_with_replacement(range(q), k)))]
    index = {w: i for i, w in enumerate(words)}
    n = math.comb(q + s - 1, s - 1)  # the states; the weight-s words follow
    top = np.array(words[n:], dtype=np.intp)
    counts = np.bincount((top + q * np.arange(len(top))[:, None]).ravel(), minlength=len(top) * q)
    ids: dict = {}
    cell = list(range(n)) + [ids.setdefault(str(output(c)), len(ids))
                             for c in map(tuple, counts.reshape(-1, q).tolist())]

    def grown(w: tuple, a: int) -> int:
        k = bisect.bisect_right(w, a)
        return cell[index[w[:k] + (a,) + w[k:]]]

    trans = np.array([[grown(w, a) for a in range(q)] for w in words[:n]],
                     dtype=np.min_scalar_type(max(n, len(ids)) - 1))
    return trans, tuple(ids)


def output_ids(channel: ChannelSpec, words) -> np.ndarray:
    """Output ids of s-words stacked on the first axis: ``words`` yields s
    symbol arrays of one shape, and the ids have that shape."""
    state = 0
    for symbols in words:
        state = channel.trans[state, symbols]
    return state


def _weight(q: int, k: int) -> slice:
    """The states of weight k, C(q+k-1, k) of them after the lighter ones."""
    return slice(math.comb(q + k - 1, k - 1) if k else 0, math.comb(q + k, k))


def _fold_index(channel: ChannelSpec, rows: int) -> list:
    """Per fold step, the states it reads, the size of the law it writes and its
    ``np.bincount`` index for the largest batch seen, at least ``rows`` rows: row
    r's cells are offset by r * size, so a smaller batch reads a prefix."""
    held, folds = channel._folds
    if held < rows:
        n, folds = len(channel.trans), []
        for k in range(channel.s):
            w, size = _weight(channel.q, k), n if k < channel.s - 1 else len(channel.outputs)
            cells = channel.trans[w] + size * np.arange(rows)[:, None, None]
            folds.append((w, size, cells.ravel()))
        channel._folds = rows, folds
    return folds


def _state_laws(channel: ChannelSpec, p):
    """The laws of the kernel state after 0, 1, ..., s-1 inputs i.i.d. with the
    law p (q probabilities, or one a row of a (K, q) batch), then the law of
    the output id after s, each folded through ``trans`` from the last weight's
    states, in one row's order: rows equal."""
    p = np.asarray(p, dtype=float)
    rows, n = p.reshape(-1, channel.q), len(channel.trans)
    law = np.zeros((len(rows), n))
    law[:, 0] = 1.0
    yield law.reshape(p.shape[:-1] + (n,))
    for w, size, cells in _fold_index(channel, len(rows)):
        # each cell's one product, in the order bincount sums it: broadcasting is slower
        weights = np.einsum("rs,ra->rsa", law[:, w], rows).ravel()
        law = np.bincount(cells[:len(weights)], weights, len(rows) * size).reshape(len(rows), size)
        yield law.reshape(p.shape[:-1] + (size,))


def output_law(channel: ChannelSpec, p) -> np.ndarray:
    """The law of the output id when the s inputs are i.i.d. with the law p
    (q probabilities): the state law folded through ``trans`` s times."""
    *_, law = _state_laws(channel, p)
    return law


# the built-in rules: the output label of a composition c, given the level l
# of a threshold channel (disj is thr with l = 1)
_RULES = {
    "A": lambda c, l: "{" + ",".join(str(a) for a, n in enumerate(c) if n > 0) + "}",
    "B": lambda c, l: "(" + ",".join(map(str, c)) + ")",
    "eras": lambda c, l: c.index(max(c)) if max(c) == sum(c) else "*",
    "thr": lambda c, l: int(c[1] >= l),
    "disj": lambda c, l: int(c[1] >= l),
}


def make_channel(name: str, s: int, q: int) -> ChannelSpec:
    """Parse a channel name (A | B | eras | thr:L | disj) and build it from its rule."""
    kind, colon, level = name.partition(":")
    if not (level.isdecimal() if kind == "thr" else kind in _RULES and not colon):
        raise InvalidParametersError(f"unknown channel name {name!r}")
    _check_shape(q, s)
    if kind in ("thr", "disj") and q != 2:
        raise InvalidParametersError(f"{kind} channel requires q=2, got q={q}")
    l = int(level) if kind == "thr" else 1
    if not 1 <= l <= s:
        raise InvalidParametersError(f"threshold must satisfy 1 <= l <= s, got {l}")
    rule = _RULES[kind]
    return ChannelSpec(f"thr:{l}" if kind == "thr" else kind, q, s, lambda c: rule(c, l))


# --- custom channel file format ---------------------------------------------
# line 1: "q s |Z|"; then one line per composition:
#   q count integers, the token "->", an opaque output label.
# Every composition of weight s must appear exactly once.


class ChannelFileError(ValueError):
    """Malformed custom channel file."""


def parse_channel(text: str) -> ChannelSpec:
    lines = list(_content([text]))
    q, s, zsize = _header(lines, "q s |Z|", ChannelFileError, "channel")
    table: dict[tuple[int, ...], str] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != q + 2 or parts[q] != "->":
            raise ChannelFileError(f"expected '{q} counts -> label', got {ln!r}")
        try:
            counts = tuple(int(x) for x in parts[:q])
        except ValueError as exc:
            raise ChannelFileError(f"non-integer count in {ln!r}") from exc
        if sum(counts) != s or any(c < 0 for c in counts):
            raise ChannelFileError(f"counts {counts} are not a weight-{s} composition")
        if counts in table:
            raise ChannelFileError(f"duplicate composition {counts}")
        table[counts] = parts[q + 1]
    try:  # the lines are distinct compositions, so the table can only lack some
        spec = ChannelSpec("custom", q, s, table.__getitem__)
    except KeyError as exc:
        raise ChannelFileError(f"missing composition {exc.args[0]}") from None
    if len(spec.outputs) != zsize:
        raise ChannelFileError(f"header says |Z|={zsize} but table uses {len(spec.outputs)} labels")
    return spec


def load_channel(path) -> ChannelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_channel(fh.read())
