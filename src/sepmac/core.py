"""Fundamental value types: codes and compositions.

Conventions used throughout the toolkit:
  * codeword indices are 1-based in every external interface;
  * multisets are canonically represented as sorted tuples;
  * a composition is a length-q tuple of counts summing to s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class InvalidSymbolError(ValueError):
    """A word contains a symbol outside the alphabet 0..q-1."""


class InvalidParametersError(ValueError):
    """Operation parameters are out of their stated range."""


class SizeLimitError(InvalidParametersError):
    """The instance exceeds a size guard set to keep work at desk scale."""


@dataclass(frozen=True)
class Code:
    """A q-ary code of length N and size t.

    ``entries`` is stored row-major: entries[i][j] is the symbol of codeword
    j+1 at row i+1 (both 1-based externally).
    """

    q: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.q < 2:
            raise InvalidParametersError(f"alphabet size must be >= 2, got {self.q}")
        if not self.entries or not self.entries[0]:
            raise InvalidParametersError("code must have N >= 1 rows and t >= 1 columns")
        t = len(self.entries[0])
        for row in self.entries:
            if len(row) != t:
                raise InvalidParametersError("ragged code matrix")
            for a in row:
                if not 0 <= a < self.q:
                    raise InvalidSymbolError(f"symbol {a} outside alphabet of size {self.q}")

    @property
    def N(self) -> int:
        return len(self.entries)

    @property
    def t(self) -> int:
        return len(self.entries[0])

    def columns(self) -> list[tuple[int, ...]]:
        """The codewords, codeword j at place j-1."""
        return list(zip(*self.entries))

    def symbols(self) -> np.ndarray:
        """The (t, N) symbol array: row j-1 is codeword j."""
        return np.ascontiguousarray(np.array(self.entries, dtype=np.intp).T)

    @classmethod
    def from_columns(cls, q: int, columns: Sequence[Sequence[int]]) -> "Code":
        if not columns:
            raise InvalidParametersError("at least one codeword required")
        n = len(columns[0])
        entries = tuple(tuple(col[i] for col in columns) for i in range(n))
        return cls(q, entries)


def _check_word(word: Sequence[int], q: int) -> None:
    for a in word:
        if not 0 <= a < q:
            raise InvalidSymbolError(f"symbol {a} outside alphabet of size {q}")


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


# --- code matrix file format -------------------------------------------------
# line 1: "q N t"; then N lines of t whitespace-separated symbols.
# Lines starting with '#' are comments. Parsing is strict.


class CodeFileError(ValueError):
    """Malformed code matrix file."""


def parse_code(text: str) -> Code:
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
    return Code(q, tuple(rows))


def format_code(code: Code) -> str:
    out = [f"{code.q} {code.N} {code.t}"]
    for row in code.entries:
        out.append(" ".join(str(a) for a in row))
    return "\n".join(out) + "\n"


def load_code(path) -> Code:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code(fh.read())


def save_code(code: Code, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code(code))
