"""Symmetric multiple-access channel models.

A symmetric MAC is a deterministic function of the multiset of the s input
symbols, so every channel here is keyed by composition: the table needs only
C(q+s-1, s) entries. Output symbols carry the channel kind as a tag so that
outputs of different channels never compare equal accidentally. Each
channel also carries an integer kernel (``_kernel``): ``output_ids`` maps
s-words to output ids and ``output_law`` gives the output law of i.i.d.
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import Composition, InvalidParametersError, SizeLimitError, compositions, type_of

KIND_A = "A"
KIND_B = "B"
KIND_ERASURE = "eras"
KIND_THRESHOLD = "thr"
KIND_DISJUNCTIVE = "disj"
KIND_CUSTOM = "custom"

ERASURE_MARK = "*"

KERNEL_GUARD = 2 ** 20  # transition cells C(q+s, s) * q a channel may build


def _check_kernel_size(q: int, s: int) -> None:
    """Refuse an (s, q) whose kernel would exceed KERNEL_GUARD cells."""
    cells = comb(q + s, s) * q
    if cells > KERNEL_GUARD:
        raise SizeLimitError(f"channel too large: C(q+s, s)*q = {cells} kernel cells "
                             f"exceed guard {KERNEL_GUARD} (q={q}, s={s})")


class NotSymmetricError(ValueError):
    """A raw channel table violates permutation invariance."""

    def __init__(self, word_a, word_b, out_a, out_b):
        self.witness = (word_a, word_b)
        self.outputs = (out_a, out_b)
        super().__init__(
            f"words {word_a} and {word_b} have equal type but outputs {out_a!r} != {out_b!r}"
        )


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
        if self.kind == KIND_A:
            return "{" + ",".join(str(a) for a in self.value) + "}"
        if self.kind == KIND_B:
            return "(" + ",".join(str(c) for c in self.value) + ")"
        return str(self.value)


@dataclass(frozen=True)
class OutputWord:
    symbols: tuple[OutputSymbol, ...]

    @property
    def N(self) -> int:
        return len(self.symbols)

    def labels(self) -> list[str]:
        return [z.label() for z in self.symbols]


class ChannelSpec:
    """A symmetric f-MAC: a map from weight-s compositions over A_q to outputs.

    Built-in kinds are rule-evaluated with a table memoized at construction;
    custom channels are materialized tables validated for totality.
    """

    def __init__(self, kind: str, q: int, s: int, threshold: int | None = None,
                 table: dict[tuple[int, ...], OutputSymbol] | None = None):
        if q < 2:
            raise InvalidParametersError(f"alphabet size must be >= 2, got {q}")
        if s < 1:
            raise InvalidParametersError(f"user count must be >= 1, got {s}")
        _check_kernel_size(q, s)
        if kind in (KIND_THRESHOLD, KIND_DISJUNCTIVE) and q != 2:
            raise InvalidParametersError(f"{kind} channel requires q=2, got q={q}")
        if kind == KIND_THRESHOLD:
            if threshold is None or not 1 <= threshold <= s:
                raise InvalidParametersError(f"threshold must satisfy 1 <= l <= s, got {threshold}")
        elif threshold is not None:
            raise InvalidParametersError("threshold parameter only valid for thr channel")
        if kind == KIND_CUSTOM:
            if table is None:
                raise InvalidParametersError("custom channel requires a table")
            need = {c.counts for c in compositions(s, q)}
            have = set(table)
            if have != need:
                missing = sorted(need - have)
                extra = sorted(have - need)
                raise InvalidParametersError(
                    f"custom table not total on compositions: missing {missing}, extra {extra}"
                )
        elif kind not in (KIND_A, KIND_B, KIND_ERASURE, KIND_THRESHOLD, KIND_DISJUNCTIVE):
            raise InvalidParametersError(f"unknown channel kind {kind!r}")
        self.kind = kind
        self.q = q
        self.s = s
        self.threshold = threshold
        # memoized: compositions at desk scale are few
        if kind == KIND_CUSTOM:
            self._table = dict(table)
        else:
            self._table = {
                c.counts: self._rule(c) for c in compositions(s, q)
            }
        self.trans, self.out, self.outputs = _kernel(q, s, self._table)

    def _rule(self, comp: Composition) -> OutputSymbol:
        counts = comp.counts
        if self.kind == KIND_A:
            return OutputSymbol(KIND_A, comp.support())
        if self.kind == KIND_B:
            return OutputSymbol(KIND_B, counts)
        if self.kind == KIND_ERASURE:
            support = comp.support()
            if len(support) == 1:
                return OutputSymbol(KIND_ERASURE, support[0])
            return OutputSymbol(KIND_ERASURE, ERASURE_MARK)
        if self.kind == KIND_THRESHOLD:
            return OutputSymbol(KIND_THRESHOLD, 1 if counts[1] >= self.threshold else 0)
        if self.kind == KIND_DISJUNCTIVE:
            return OutputSymbol(KIND_DISJUNCTIVE, 0 if counts[1] == 0 else 1)
        raise AssertionError(self.kind)

    def __repr__(self):
        extra = f", l={self.threshold}" if self.threshold is not None else ""
        return f"ChannelSpec({self.kind}, q={self.q}, s={self.s}{extra})"

    def name(self) -> str:
        if self.kind == KIND_THRESHOLD:
            return f"thr:{self.threshold}"
        return self.kind


def _kernel(q: int, s: int, table: dict) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(trans, out, outputs) over the compositions of weight <= s (state 0 is
    empty): trans[state, a] adds symbol a below weight s, out[state] is the
    output id of a weight-s state, outputs[id] its symbol; equal ones share it."""
    states = [c.counts for w in range(s + 1) for c in compositions(w, q)]
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


def output_law(channel: ChannelSpec, p) -> np.ndarray:
    """The law of the output id when the s inputs are i.i.d. with the law p
    (q probabilities): the state law folded through ``trans`` s times."""
    p = np.asarray(p, dtype=float)
    law = np.zeros(len(channel.trans))
    law[0] = 1.0
    for _ in range(channel.s):
        law = np.bincount(channel.trans.ravel(), np.outer(law, p).ravel(), len(law))
    return np.bincount(channel.out, law, len(channel.outputs))


def validate_symmetric(table: dict, s: int, q: int) -> ChannelSpec:
    """Build a custom ChannelSpec from a raw table.

    The table may be keyed by s-words (tuples over A_q) or directly by
    compositions (count tuples of length q summing to s). Word-keyed tables
    are checked for permutation invariance; a violating pair is reported.
    """
    keys = [tuple(k) for k in table]
    is_word_table = all(len(k) == s and all(0 <= a < q for a in k) for k in keys)
    is_comp_table = all(len(k) == q and sum(k) == s and all(c >= 0 for c in k) for k in keys)
    if is_word_table and is_comp_table:
        # ambiguous only when q == s; a total word table has q^s entries,
        # a composition table has C(q+s-1, s) < q^s
        is_word_table = len(keys) > comb(q + s - 1, s)
    if not (is_word_table or is_comp_table):
        raise InvalidParametersError("table keys are neither s-words nor compositions")

    comp_table: dict[tuple[int, ...], OutputSymbol] = {}
    comp_witness: dict[tuple[int, ...], tuple] = {}
    for key in sorted(keys):
        raw = table[key]
        out = raw if isinstance(raw, OutputSymbol) else OutputSymbol(KIND_CUSTOM, raw)
        counts = type_of(key, q).counts if is_word_table else key
        if counts in comp_table:
            if comp_table[counts] != out:
                raise NotSymmetricError(comp_witness[counts], key,
                                        comp_table[counts].value, out.value)
        else:
            comp_table[counts] = out
            comp_witness[counts] = key
    return ChannelSpec(KIND_CUSTOM, q, s, table=comp_table)


def make_channel(name: str, s: int, q: int) -> ChannelSpec:
    """Parse a channel name: A | B | eras | thr:L | disj."""
    if name in (KIND_A, KIND_B, KIND_ERASURE, KIND_DISJUNCTIVE):
        return ChannelSpec(name, q, s)
    kind, _, level = name.partition(":")
    if kind == KIND_THRESHOLD and level.isdecimal():
        return ChannelSpec(KIND_THRESHOLD, q, s, threshold=int(level))
    raise InvalidParametersError(f"unknown channel name {name!r}")


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
    table: dict[tuple[int, ...], OutputSymbol] = {}
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
        table[counts] = OutputSymbol(KIND_CUSTOM, parts[q + 1])
    spec = ChannelSpec(KIND_CUSTOM, q, s, table=table)
    labels = {z.value for z in table.values()}
    if len(labels) != zsize:
        raise ChannelFileError(f"header says |Z|={zsize} but table uses {len(labels)} labels")
    return spec


def load_channel(path) -> ChannelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_channel(fh.read())
