"""Codes and the code file format, input laws on the alphabet, the
compositions that index a channel's table, the grouping of equal keys, and
the toolkit's error types.

A code is one read-only (t, N) symbol array; codeword indices are 1-based
in every external interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np


class InvalidSymbolError(ValueError):
    """A word contains a symbol outside the alphabet 0..q-1."""


class InvalidParametersError(ValueError):
    """Operation parameters are out of their stated range."""


class SizeLimitError(InvalidParametersError):
    """The instance exceeds a size guard set to keep work at desk scale."""


def _dtype(q: int) -> np.dtype:
    """The smallest unsigned dtype that holds the symbols 0..q-1."""
    if q > 2 ** 63:
        raise InvalidParametersError(f"alphabet size must be <= 2^63, got {q}")
    return np.min_scalar_type(max(q - 1, 0))


class Code:
    """A q-ary code of length N and size t: ``symbols`` is a read-only (t, N)
    array, row j-1 being codeword j (1-based externally), in the smallest
    unsigned dtype that holds q-1. Codes are equal when q and the arrays are."""

    def __init__(self, q: int, codewords):
        if q < 2:
            raise InvalidParametersError(f"alphabet size must be >= 2, got {q}")
        try:
            x = np.asarray(codewords)
        except ValueError:
            raise InvalidParametersError("ragged code matrix") from None
        if x.ndim != 2 or not x.size:
            raise InvalidParametersError("code must have N >= 1 rows and t >= 1 columns")
        if x.dtype.kind not in "iu":
            raise InvalidParametersError(f"code symbols must be integers, got {x.dtype}")
        if x.min() < 0 or x.max() >= q:
            bad = (x < 0) | (x >= q)
            raise InvalidSymbolError(f"symbol {x.flat[bad.argmax()]} outside alphabet of size {q}")
        self.q, self.symbols = q, np.ascontiguousarray(x, dtype=_dtype(q)).view()
        self.symbols.flags.writeable = False

    @property
    def t(self) -> int:
        return self.symbols.shape[0]

    @property
    def N(self) -> int:
        return self.symbols.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.symbols, other.symbols)

    def __repr__(self) -> str:
        return f"Code(q={self.q}, symbols={self.symbols!r})"


@dataclass(frozen=True)
class Distribution:
    """A probability distribution on the alphabet A_q."""

    probs: tuple

    def __post_init__(self):
        p = self.probs
        if not all(x >= 0 for x in p):
            raise InvalidParametersError(f"negative or NaN probability in {p}")
        total = sum(p)
        if isinstance(total, Fraction):
            if total != 1:
                raise InvalidParametersError(f"probabilities sum to {total}, not 1")
        elif not abs(total - 1) <= 1e-12:
            raise InvalidParametersError(f"probabilities sum to {total}, not 1")

    @property
    def q(self) -> int:
        return len(self.probs)

    @classmethod
    def uniform(cls, q: int) -> "Distribution":
        return cls(tuple(Fraction(1, q) for _ in range(q)))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.probs)


def compositions(s: int, q: int) -> Iterator[tuple[int, ...]]:
    """All C(q+s-1, s) compositions of weight s over q symbols,
    in lexicographic order of the count vector: stars and bars, the counts
    being the gaps between q-1 bars among s+q-1 places."""
    if s < 0 or q < 1:
        raise InvalidParametersError(f"bad composition parameters s={s}, q={q}")
    for bars in itertools.combinations(range(s + q - 1), q - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (s + q - 1,)))


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of a non-empty 1-D key array, and for each sorted
    key whether it starts a run of equal keys: one sort groups equal keys."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return order, np.r_[True, keys[1:] != keys[:-1]]


def repeated(keys: np.ndarray) -> np.ndarray:
    """The values of a non-empty 1-D key array that occur more than once,
    sorted and each once, from one sort of the keys."""
    ordered = np.sort(keys)
    new = np.r_[True, ordered[1:] != ordered[:-1]]
    return ordered[:-1][new[:-1] & ~new[1:]]  # one key per run of two or more


# --- code matrix file format -------------------------------------------------
# line 1: "q N t"; then N lines of t whitespace-separated symbols.
# Lines starting with '#' are comments. Parsing is strict.


class CodeFileError(ValueError):
    """Malformed code matrix file."""


def _content(texts) -> Iterator[str]:
    """The stripped lines of ``texts`` that are neither blank nor comments:
    the one rule for the code, channel and decode-word file formats."""
    lines = (ln.strip() for text in texts for ln in text.splitlines())
    return (ln for ln in lines if ln and not ln.startswith("#"))


def _header(lines: list[str], form: str = "q N t", error: type = CodeFileError,
            kind: str = "code") -> tuple[int, int, int]:
    """The three integers of a ``kind`` file's header, the first of its
    content ``lines``, named by ``form``; a fault raises ``error``."""
    if not lines:
        raise error(f"empty {kind} file")
    header = lines[0].split()
    if len(header) != 3:
        raise error(f"header must be '{form}', got {lines[0]!r}")
    try:
        q, n, t = (int(x) for x in header)
    except ValueError as exc:
        raise error(f"non-integer header {lines[0]!r}") from exc
    return q, n, t


def parse_code(text: str, check=None) -> Code:
    """``check(q, N, t)``, when given, runs on the header before any row is
    parsed, so a refusal that the header decides comes first. The rows are
    read in one np.loadtxt call; where it refuses them or they are wrong, a
    row-at-a-time parse with int names the first bad row."""
    return _read_code(_content([text]), check)


def _read_code(content: Iterator[str], check) -> Code:
    """`parse_code` of the ``content`` lines of a text or an open file, read
    past the header only after ``check``: a file it refuses is not read on."""
    lines = list(itertools.islice(content, 1))
    q, n, t = _header(lines)
    if check is not None:
        check(q, n, t)
    lines += content
    if len(lines) - 1 != n:
        raise CodeFileError(f"expected {n} rows, found {len(lines) - 1}")
    dtype = _dtype(q)
    try:  # loadtxt warns on no rows; it holds less over a list of lines than over joined text
        fast = np.loadtxt(lines[1:], dtype=dtype, ndmin=2, comments=None) if n else None
    except ValueError:
        fast = None
    if fast is not None and fast.shape == (n, t) and fast.max() < q:
        return Code(q, fast.T)
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != t:
            raise CodeFileError(f"expected {t} symbols per row, got {len(parts)} in {ln!r}")
        try:
            rows.append([int(x) for x in parts])
        except ValueError as exc:
            raise CodeFileError(f"non-integer symbol in {ln!r}") from exc
        for a in rows[-1]:
            if not 0 <= a < q:
                raise CodeFileError(f"symbol {a} outside alphabet of size {q}")
    return Code(q, np.array(rows, dtype).T)


def format_code(code: Code) -> str:
    rows = (" ".join(map(str, row.tolist())) for row in code.symbols.T)
    return "\n".join([f"{code.q} {code.N} {code.t}", *rows]) + "\n"


def load_code(path, check=None) -> Code:
    with open(path, "r", encoding="utf-8") as fh:
        return _read_code(_content(fh), check)


def save_code(code: Code, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code(code))
