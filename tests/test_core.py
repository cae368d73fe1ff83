import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import Message, column_multiset, enumerate_messages, type_of
from sepmac.core import (
    Code,
    CodeFileError,
    InvalidParametersError,
    InvalidSymbolError,
    compositions,
    format_code,
    parse_code,
    runs,
)
from sepmac.verify import _masks, _subsets_of, _union_walk


def test_type_of_examples():
    assert type_of((0, 0, 1, 1), 3) == (2, 2, 0)
    assert type_of((1, 1, 0, 2), 3) == (1, 2, 1)
    assert type_of((0, 0, 0, 0, 0), 2) == (5, 0)


def test_invalid_symbol_rejected():
    with pytest.raises(InvalidSymbolError):
        type_of((0, 3), 3)


@given(st.integers(2, 5).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=8))))
def test_type_union_permutation_invariant(qw):
    q, word = qw
    rev = list(reversed(word))
    assert type_of(word, q) == type_of(rev, q)

    def union(w):
        # the union word of a one-row code whose codewords are w's symbols:
        # the fold of the walk's one set of all of them
        code = Code.from_columns(q, [(a,) for a in w])
        (_, unions), = _union_walk(code, _masks(code), len(w), 1)
        return _subsets_of(unions[0], q)

    assert union(word) == union(rev)
    comp = type_of(word, q)
    assert sum(comp) == len(word)
    assert union(word) == (tuple(a for a, c in enumerate(comp) if c > 0),)


def test_column_multiset():
    code = Code.from_columns(2, [(0, 0), (0, 1), (1, 0)])
    assert column_multiset(code, Message((1, 2)), 2) == (0, 1)
    assert column_multiset(code, Message((1, 3)), 1) == (0, 1)
    assert column_multiset(code, Message((1, 2, 3)), 1) == (0, 0, 1)
    with pytest.raises(InvalidParametersError):
        column_multiset(code, Message((1, 2)), 3)
    with pytest.raises(InvalidParametersError):
        column_multiset(code, Message((1, 4)), 1)


def test_enumerate_messages():
    msgs = [m.indices for m in enumerate_messages(3, 2)]
    assert msgs == [(1, 2), (1, 3), (2, 3)]
    assert [m.indices for m in enumerate_messages(4, 4)] == [(1, 2, 3, 4)]
    ten = list(enumerate_messages(5, 2))
    assert len(ten) == 10 == math.comb(5, 2)
    assert len(set(m.indices for m in ten)) == 10
    with pytest.raises(InvalidParametersError):
        list(enumerate_messages(2, 3))


@given(st.integers(1, 7), st.integers(1, 7))
def test_enumerate_messages_count(t, s):
    if s > t:
        return
    msgs = list(enumerate_messages(t, s))
    assert len(msgs) == math.comb(t, s)
    assert msgs == sorted(msgs, key=lambda m: m.indices)


def test_compositions_count():
    comps = list(compositions(4, 3))
    assert len(comps) == math.comb(3 + 4 - 1, 4)
    assert all(sum(c) == 4 for c in comps)
    assert len(set(comps)) == len(comps)
    assert comps == sorted(comps)  # lexicographic order of the count vector


def test_message_validation():
    with pytest.raises(InvalidParametersError):
        Message((2, 1))
    with pytest.raises(InvalidParametersError):
        Message((1, 1))
    with pytest.raises(InvalidParametersError):
        Message((0, 1))


def test_code_validation():
    with pytest.raises(InvalidSymbolError):
        Code(2, ((0, 2),))
    with pytest.raises(InvalidParametersError):
        Code(2, ((0, 1), (0,)))


def test_code_file_roundtrip():
    code = Code.from_columns(3, [(0, 1), (2, 0), (1, 1)])
    text = format_code(code)
    assert parse_code(text) == code
    assert parse_code("# comment\n" + text) == code


@pytest.mark.parametrize("bad", [
    "",
    "2 2\n0 0\n0 0",
    "2 2 2\n0 0\n",
    "2 1 2\n0 0 0",
    "2 1 2\n0 2",
    "2 1 2\nx 0",
])
def test_code_file_strict(bad):
    with pytest.raises(CodeFileError):
        parse_code(bad)


@st.composite
def run_keys(draw):
    """A 1-D key array with many ties: int64 keys, or whole uint8 or uint16
    rows as void keys (uint16 symbols that differ in either byte)."""
    dtype = draw(st.sampled_from(["int64", "uint8", "uint16"]))
    symbols = {"int64": [-2 ** 63, -1, 0, 1, 2 ** 63 - 1], "uint8": [0, 1, 255],
               "uint16": [0, 1, 255, 256, 257, 65535]}[dtype]
    width = 1 if dtype == "int64" else draw(st.integers(1, 3))
    rows = np.array(draw(st.lists(st.lists(st.sampled_from(symbols), min_size=width,
                                           max_size=width), min_size=1, max_size=60)), dtype)
    if dtype == "int64":
        return rows.ravel()
    return rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()


@given(run_keys())
def test_runs_match_stable_sort(keys):
    # Python's sort is stable; a void key orders as its bytes
    value = (lambda k: k.tobytes()) if keys.dtype.kind == "V" else int
    want = sorted(range(len(keys)), key=lambda i: value(keys[i]))
    order, new = runs(keys)
    assert order.tolist() == want
    assert new.tolist() == [i == 0 or value(keys[want[i]]) != value(keys[want[i - 1]])
                            for i in range(len(want))]
