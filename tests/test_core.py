import ast
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
import sepmac
from reference import Message, column_multiset, enumerate_messages, type_of
from sepmac.core import (
    Code,
    CodeFileError,
    InvalidParametersError,
    InvalidSymbolError,
    compositions,
    format_code,
    load_code,
    parse_code,
    repeated,
    runs,
)
from sepmac.verify import _masks, _subsets_of, _union_walk, _words


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
        code = Code(q, [(a,) for a in w])
        (_, unions), = _union_walk(code, _words(_masks(code)), len(w), 1)
        return _subsets_of(unions[0], code)

    assert union(word) == union(rev)
    comp = type_of(word, q)
    assert sum(comp) == len(word)
    assert union(word) == (tuple(a for a, c in enumerate(comp) if c > 0),)


def test_column_multiset():
    code = Code(2, [(0, 0), (0, 1), (1, 0)])
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
    with pytest.raises(InvalidSymbolError, match="symbol -1 "):
        Code(3, np.array([[0, -1]]))
    with pytest.raises(InvalidParametersError):
        Code(2, ((0, 1), (0,)))
    with pytest.raises(InvalidParametersError):
        Code(2, [])
    with pytest.raises(InvalidParametersError):
        Code(2, [(0.5, 1)])
    with pytest.raises(InvalidParametersError):
        Code(2 ** 63 + 1, [(0,)])


def test_code_is_one_read_only_array():
    words = np.array([[0, 299], [1, 1]])
    code = Code(300, words)
    assert code.symbols.dtype == np.uint16 and code.symbols.shape == (code.t, code.N) == (2, 2)
    words[0, 0] = 5  # the code keeps its own symbols
    assert code.symbols.tolist() == [[0, 299], [1, 1]]
    with pytest.raises(ValueError):
        code.symbols[0, 0] = 1
    assert Code(2 ** 63, [(2 ** 63 - 1,)]).symbols.dtype == np.uint64
    assert code == Code(300, [(0, 299), (1, 1)]) and code != Code(301, [(0, 299), (1, 1)])
    with pytest.raises(TypeError):
        hash(code)


def test_code_file_roundtrip():
    code = Code(3, [(0, 1), (2, 0), (1, 1)])
    text = format_code(code)
    assert text == "3 2 3\n0 2 1\n1 0 1\n"
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


def test_code_file_refuses_huge_alphabet():
    with pytest.raises(InvalidParametersError, match="<= 2\\^63"):
        parse_code(f"{2 ** 63 + 1} 1 1\n0\n")
    assert parse_code(f"{2 ** 63} 1 1\n{2 ** 63 - 1}\n").symbols.tolist() == [[2 ** 63 - 1]]


# tokens the tuple parser reads with int(): signs, underscores, non-ASCII
# digits and symbols past int64 included
ODD_TOKENS = ["-1", "-0", "+1", "1_0", "0_1", "_1", "\u0661", "\u0663", "\uff10", "1.0", "x", "0x1",
              "12345678901234567890", "-12345678901234567890", "9223372036854775807",
              "9223372036854775808", "256", "255"]


# whitespace that str.split splits tokens on; \x0b and \x1c also end a line
# for str.splitlines
SEPARATORS = ["\t", "\xa0", "\x0b", "\x1c", "\u3000"]


@st.composite
def code_texts(draw):
    """Code files, valid or not: odd headers, symbols and tokens, token
    separators other than a space, ragged, missing and extra rows, comments
    and blank lines."""
    q = draw(st.one_of(st.integers(-1, 12), st.sampled_from([255, 256, 257, 2 ** 63])))
    n, t = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    rows = draw(st.integers(0, 3)) if draw(st.integers(0, 9)) == 0 else max(n, 0)
    symbol = st.integers(0, max(q, 1) - 1).map(str)
    lines = [draw(st.sampled_from([f"{q} {n} {t}"] * 8 + [f"{q} {n}", f"{q} {n} x", ""]))]
    odd = draw(st.sampled_from([" "] + SEPARATORS))
    for _ in range(rows):
        width = max(t, 0) + draw(st.sampled_from([0] * 8 + [-1, 1]))
        sep = st.sampled_from([" ", odd])
        tokens = [draw(st.one_of(symbol, symbol, symbol, st.sampled_from(ODD_TOKENS)))
                  for _ in range(width)]
        lines.append("".join(x + draw(sep) for x in tokens)[:-1] if tokens else "")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# c", "  ", "#0 1"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(code_texts())
def test_parse_code_matches_tuple_parser(text):
    _assert_parses_as_reference(text)


def _assert_parses_as_reference(text):
    want = _outcome(lambda x: (lambda q, rows: (q, [list(r) for r in rows]))(*ref.parse_code(x)),
                    text)
    got = _outcome(lambda x: (lambda c: (c.q, c.symbols.T.tolist()))(parse_code(x)), text)
    assert got == want


@pytest.mark.parametrize("sep", SEPARATORS)
@pytest.mark.parametrize("t", [1, 2])
def test_parse_code_splits_tokens_as_str_split(sep, t):
    # "0", sep, "1": a parse that did not split there would read one symbol, 1
    _assert_parses_as_reference(f"3 1 {t}\n0{sep}1\n")


@settings(max_examples=200, deadline=None)
@given(code_texts(), st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"]))
def test_load_code_check_sees_header(tmp_path_factory, text, newline):
    # the check is called once, on the header the rows are parsed under, and
    # a refusal it makes comes before any fault of the rows
    path = tmp_path_factory.mktemp("code") / "code.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.replace("\n", newline))
    headers = []
    code = _outcome(lambda p: load_code(p, lambda *header: headers.append(header)), path)
    assert code == _outcome(parse_code, text.replace("\n", newline))
    if isinstance(code, Code):
        assert headers == [(code.q, code.N, code.t)]

    class Refused(Exception):
        pass

    def refuse(q, N, t):
        raise Refused

    refused = _outcome(lambda p: load_code(p, refuse), path)
    assert refused == ((Refused, "") if headers else code)


def test_parse_code_peak_memory():
    # the text is 2 bytes a cell; the parse holds its lines and a 1-byte array
    x = np.random.default_rng(0).integers(0, 3, (1000, 1000))
    text = "3 1000 1000\n" + "\n".join(" ".join(map(str, row)) for row in x.T.tolist())
    tracemalloc.start()
    try:
        code = parse_code(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(code.symbols, x)
    assert peak <= 8 * x.size


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


@given(st.lists(st.sampled_from([0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)
                | st.builds(lambda hi, lo: hi << 16 | lo, st.sampled_from([0, 1, 2 ** 47 - 1]),
                            st.integers(0, 3)),
                min_size=1, max_size=60))
def test_repeated_matches_counter(keys):
    # uint64 keys with many ties, the ends of the range among them, and keys
    # hi << 16 | lo from small pools, distinct keys that share their low bits
    got = repeated(np.array(keys, dtype=np.uint64))
    assert got.tolist() == sorted(k for k in set(keys) if keys.count(k) > 1)


@pytest.mark.parametrize("share", [0.001, 0.9])
def test_repeated_matches_unique_counts(share):
    # 10^5 keys, few or most of them repeated, whose low 16 bits take four
    # values
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2 ** 48, 10 ** 5, dtype=np.uint64) << np.uint64(16)
    keys |= rng.integers(0, 4, len(keys), dtype=np.uint64)
    twins = rng.random(len(keys)) < share
    keys[twins] = keys[rng.integers(0, 100, twins.sum())]
    values, counts = np.unique(keys, return_counts=True)
    assert np.array_equal(repeated(keys), values[counts > 1])


# --- package layers ------------------------------------------------------------
# core -> channels -> {verify, construct} -> {bounds, exponent} -> cli: a
# module imports only from layers below its own
LAYERS = {"core": 0, "channels": 1, "verify": 2, "construct": 2, "bounds": 3, "exponent": 3,
          "cli": 4}


def test_imports_follow_the_layer_order():
    src = pathlib.Path(sepmac.__file__).parent
    assert sorted(LAYERS) == sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    for name, rank in LAYERS.items():
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    assert LAYERS.get(target, -1) < rank, f"{name} imports {target}"


def test_library_layers_import_no_scipy():
    # only the optimisers, bounds and exponent, need scipy; the layers below
    # them load without it, in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(sepmac.__file__).parents[1]))
    script = ("import sys, sepmac.core, sepmac.channels, sepmac.verify, sepmac.construct; "
              "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
