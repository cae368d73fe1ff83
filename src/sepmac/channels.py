"""Symmetric multiple-access channel models.

A symmetric MAC is a deterministic function of the multiset of the s input
symbols, so a channel, ``ChannelSpec(name, q, s, table)``, is one total
table from the C(q+s-1, s) compositions (count tuples) to outputs. Outputs
carry the channel kind as a tag so that outputs of different channels never
compare equal accidentally. ``make_channel`` alone knows the built-in rules.
Each channel also carries an integer kernel (``_kernel``): ``output_ids``
maps s-words to output ids and ``output_law`` gives the output law of
i.i.d. inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import InvalidParametersError, SizeLimitError, compositions

KERNEL_GUARD = 2 ** 20  # transition cells C(q+s, s) * q a channel may build


def _check_shape(q: int, s: int) -> None:
    """Refuse q < 2, s < 1 and an (s, q) whose kernel would exceed
    KERNEL_GUARD cells."""
    if q < 2:
        raise InvalidParametersError(f"alphabet size must be >= 2, got {q}")
    if s < 1:
        raise InvalidParametersError(f"user count must be >= 1, got {s}")
    cells = comb(q + s, s) * q
    if cells > KERNEL_GUARD:
        raise SizeLimitError(f"channel too large: C(q+s, s)*q = {cells} kernel cells "
                             f"exceed guard {KERNEL_GUARD} (q={q}, s={s})")


@dataclass(frozen=True)
class OutputSymbol:
    """A channel output value tagged with the channel kind.

    ``value`` is hashable and canonical: a sorted tuple of symbols for the
    A-MAC, a count tuple for the B-MAC, an int or '*' for the scalar channels,
    an opaque string label for custom channels.
    """

    kind: str
    value: object

    def label(self) -> str:
        if self.kind == "A":
            return "{" + ",".join(str(a) for a in self.value) + "}"
        if self.kind == "B":
            return "(" + ",".join(str(c) for c in self.value) + ")"
        return str(self.value)


class ChannelSpec:
    """A symmetric f-MAC named ``name``: a total table from the weight-s
    compositions over A_q (count tuples) to raw output values, and its
    kernel. The kind is the name up to its first ':'; it tags every output
    value as an OutputSymbol."""

    def __init__(self, name: str, q: int, s: int, table: dict):
        _check_shape(q, s)
        self.kind = name.partition(":")[0]
        need, have = set(compositions(s, q)), set(table)
        if have != need:
            raise InvalidParametersError(f"{self.kind} table not total on compositions: missing "
                                         f"{sorted(need - have)}, extra {sorted(have - need)}")
        self._name, self.q, self.s = name, q, s
        self._table = {c: OutputSymbol(self.kind, v) for c, v in table.items()}
        self.trans, self.out, self.outputs = _kernel(q, s, self._table)

    def __repr__(self):
        return f"ChannelSpec({self._name}, q={self.q}, s={self.s})"

    def name(self) -> str:
        return self._name


def _kernel(q: int, s: int, table: dict) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(trans, out, outputs) over the compositions of weight <= s (state 0 is
    empty): trans[state, a] adds symbol a below weight s, out[state] is the
    output id of a weight-s state, outputs[id] its symbol; equal ones share it."""
    states = [c for w in range(s + 1) for c in compositions(w, q)]
    index = {c: i for i, c in enumerate(states)}
    trans = np.array([[index.get(c[:a] + (c[a] + 1,) + c[a + 1:], 0) for a in range(q)]
                      for c in states], dtype=np.intp)
    ids: dict = {}
    out = [ids.setdefault(table[c], len(ids)) if sum(c) == s else 0 for c in states]
    return trans, np.array(out, dtype=np.min_scalar_type(len(ids) - 1)), tuple(ids)


def output_ids(channel: ChannelSpec, words) -> np.ndarray:
    """Output ids of s-words stacked on the first axis: ``words`` yields s
    symbol arrays of one shape, and the ids have that shape."""
    state = 0
    for symbols in words:
        state = channel.trans[state, symbols]
    return channel.out[state]


def _state_laws(channel: ChannelSpec, p):
    """The laws of the kernel state after 0, 1, ..., s inputs i.i.d. with the
    law p (q probabilities), each folded once more through ``trans``."""
    p = np.asarray(p, dtype=float)
    law = np.zeros(len(channel.trans))
    law[0] = 1.0
    yield law
    for _ in range(channel.s):
        law = np.bincount(channel.trans.ravel(), np.outer(law, p).ravel(), len(law))
        yield law


def output_law(channel: ChannelSpec, p) -> np.ndarray:
    """The law of the output id when the s inputs are i.i.d. with the law p
    (q probabilities): the state law folded through ``trans`` s times."""
    *_, law = _state_laws(channel, p)
    return np.bincount(channel.out, law, len(channel.outputs))


# the built-in rules: the output of a composition c, given the level l of a
# threshold channel (disj is thr with l = 1)
_RULES = {
    "A": lambda c, l: tuple(a for a, n in enumerate(c) if n > 0),
    "B": lambda c, l: c,
    "eras": lambda c, l: c.index(max(c)) if max(c) == sum(c) else "*",
    "thr": lambda c, l: int(c[1] >= l),
    "disj": lambda c, l: int(c[1] >= l),
}


def make_channel(name: str, s: int, q: int) -> ChannelSpec:
    """Parse a channel name (A | B | eras | thr:L | disj) and tabulate its rule."""
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
    return ChannelSpec(f"thr:{l}" if kind == "thr" else kind, q, s,
                       {c: rule(c, l) for c in compositions(s, q)})


# --- custom channel file format ---------------------------------------------
# line 1: "q s |Z|"; then one line per composition:
#   q count integers, the token "->", an opaque output label.
# Every composition of weight s must appear exactly once.


class ChannelFileError(ValueError):
    """Malformed custom channel file."""


def parse_channel(text: str) -> ChannelSpec:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ChannelFileError("empty channel file")
    header = lines[0].split()
    if len(header) != 3:
        raise ChannelFileError(f"header must be 'q s |Z|', got {lines[0]!r}")
    try:
        q, s, zsize = (int(x) for x in header)
    except ValueError as exc:
        raise ChannelFileError(f"non-integer header {lines[0]!r}") from exc
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
    spec = ChannelSpec("custom", q, s, table)
    labels = set(table.values())
    if len(labels) != zsize:
        raise ChannelFileError(f"header says |Z|={zsize} but table uses {len(labels)} labels")
    return spec


def load_channel(path) -> ChannelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_channel(fh.read())
