"""Independent answers for the benchmark's correctness checks.

Written from the definitions, not from sepmac's code: channel outputs are
computed from compositions, covers from bit masks of row symbols. Each
function returns the payload the CLI should print, witness included, so a
check is an equality test.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np


def parse_code(text: str) -> tuple[int, np.ndarray]:
    """(q, N x t symbol matrix) of a code file's text."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    q, n, t = (int(x) for x in lines[0])
    x = np.array(lines[1:], dtype=np.int64).reshape(n, t)
    return q, x


def read_code(path) -> tuple[int, np.ndarray]:
    return parse_code(Path(path).read_text())


def read_custom(path) -> dict[tuple[int, ...], str]:
    lines = [ln.split() for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    q = int(lines[0][0])
    return {tuple(int(c) for c in ln[:q]): ln[q + 1] for ln in lines[1:]}


def output_label(channel: str, counts: tuple[int, ...]) -> str:
    """Printed channel output for one composition (symbol counts)."""
    support = [a for a, c in enumerate(counts) if c]
    if channel == "A":
        return "{" + ",".join(map(str, support)) + "}"
    if channel == "B":
        return "(" + ",".join(map(str, counts)) + ")"
    if channel == "eras":
        return str(support[0]) if len(support) == 1 else "*"
    if channel == "disj":
        return "1" if counts[1] else "0"
    if channel.startswith("thr:"):
        return "1" if counts[1] >= int(channel[4:]) else "0"
    if channel.startswith("custom:"):
        return read_custom(channel[7:])[counts]
    raise ValueError(f"unknown channel {channel!r}")


def _messages(t: int, s: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(t), s)), dtype=np.int64).reshape(-1, s)


def separable(q: int, x: np.ndarray, s: int, channel: str) -> dict:
    """Verdict of `verify --separable`: output words of all s-messages are
    distinct; else the lexicographically smallest colliding pair."""
    n, t = x.shape
    msgs = _messages(t, s)
    m = len(msgs)
    counts = np.zeros((m, n, q), dtype=np.int64)
    rows = np.arange(n)[None, :]
    for k in range(s):
        counts[np.arange(m)[:, None], rows, x[:, msgs[:, k]].T] += 1
    comp_ids, inv = np.unique(counts @ (s + 1) ** np.arange(q), return_inverse=True)
    labels = [output_label(channel, tuple(int(cid) // (s + 1) ** a % (s + 1) for a in range(q)))
              for cid in comp_ids]
    label_ids = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
    y = np.array([label_ids[lab] for lab in labels])[inv.reshape(-1)].reshape(m, n)
    _, first, group, size = np.unique(y, axis=0, return_index=True,
                                      return_inverse=True, return_counts=True)
    group = group.reshape(-1)
    payload = {"holds": True, "property": "separable"}
    if size.max() < 2:
        return payload
    g = int(np.argmin(np.where(size >= 2, first, m)))
    a, b = np.flatnonzero(group == g)[:2]
    names = {i: lab for lab, i in label_ids.items()}
    return {"holds": False, "property": "separable",
            "witness": [(msgs[a] + 1).tolist(), (msgs[b] + 1).tolist()],
            "colliding_output": [[names[int(v)] for v in y[a]]]}


def _masks(x: np.ndarray) -> np.ndarray:
    return (1 << x).astype(np.int64)


def _symbols(mask: int, q: int) -> list[int]:
    return [a for a in range(q) if mask >> a & 1]


def _unions(masks: np.ndarray, msgs: np.ndarray) -> np.ndarray:
    return np.bitwise_or.reduce(masks[:, msgs], axis=2).T  # messages x rows


def cover(q: int, x: np.ndarray, s: int, prop: str, L: int = 1) -> dict:
    """Verdict of `verify --frameproof` (prop "frameproof") or `--list L`
    (prop "list"): the first s-tuple, in lexicographic order, whose union
    covers too many codewords outside it."""
    n, t = x.shape
    masks = _masks(x)
    msgs = _messages(t, s)
    for lo in range(0, len(msgs), 512):
        chunk = msgs[lo:lo + 512]
        unions = _unions(masks, chunk)
        covered = ~np.any(masks[None, :, :] & ~unions[:, :, None], axis=1)
        covered[np.arange(len(chunk))[:, None], chunk] = False
        bad = np.flatnonzero(covered.sum(axis=1) > (0 if prop == "frameproof" else L - 1))
        if len(bad):
            i = bad[0]
            idx = (chunk[i] + 1).tolist()
            js = (np.flatnonzero(covered[i]) + 1).tolist()
            uw = [_symbols(int(u), q) for u in unions[i]]
            return {"holds": False, "property": prop,
                    "witness": [idx, js[0] if prop == "frameproof" else js],
                    "colliding_output": [uw]}
    return {"holds": True, "property": prop}


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def hash_(q: int, x: np.ndarray, s: int) -> dict:
    """Verdict of `verify --hash`: every s-tuple has a row where its
    symbols are all distinct."""
    msgs = _messages(x.shape[1], s)
    distinct = _POPCOUNT[_unions(_masks(x), msgs)] == s
    bad = np.flatnonzero(~distinct.any(axis=1))
    if len(bad):
        return {"holds": False, "property": "hash", "witness": [(msgs[bad[0]] + 1).tolist()]}
    return {"holds": True, "property": "hash"}


def le_separable(q: int, x: np.ndarray, s: int) -> dict:
    """Verdict of `verify --le-separable`: union words of all index sets of
    sizes 1..s are distinct; else the smallest colliding pair, sets ordered
    by (size, indices) within a collision and by tuple order across them."""
    masks = _masks(x)
    groups: dict[bytes, list[tuple[int, ...]]] = {}
    for k in range(1, s + 1):
        msgs = _messages(x.shape[1], k)
        for idx, u in zip(msgs, _unions(masks, msgs)):
            groups.setdefault(u.tobytes(), []).append(tuple((idx + 1).tolist()))
    best = None
    for key, members in groups.items():
        if len(members) >= 2:
            members.sort(key=lambda e: (len(e), e))
            if best is None or (members[0], members[1]) < best[:2]:
                best = (members[0], members[1], key)
    if best is None:
        return {"holds": True, "property": "le_separable"}
    uw = [_symbols(int(u), q) for u in np.frombuffer(best[2], dtype=np.int64)]
    return {"holds": False, "property": "le_separable",
            "witness": [list(best[0]), list(best[1])], "colliding_output": [uw]}


def decode(x: np.ndarray, z_rows: list[list[int]]) -> list[int]:
    """Indices of codewords covered by the union word z."""
    z = np.array([sum(1 << a for a in row) for row in z_rows], dtype=np.int64)
    return (np.flatnonzero(~np.any(_masks(x) & ~z[:, None], axis=0)) + 1).tolist()


def reduce_text(qprime: int, x: np.ndarray, q: int) -> str:
    """Code file of the alphabet reduction: symbol a becomes a length-l word
    with value a // l + 1 at position a % l, l = ceil(q' / (q - 1))."""
    l = math.ceil(qprime / (q - 1))
    n, t = x.shape
    rows = [np.where(x[i] % l == p, x[i] // l + 1, 0) for i in range(n) for p in range(l)]
    return f"{q} {n * l} {t}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
