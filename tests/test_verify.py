import itertools
import json
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from reference import (
    count_L_rare,
    enumerate_messages,
    error_fraction,
    output_word,
    split_graph_girth_check,
)
from sepmac.core import Code, InvalidParametersError, InvalidSymbolError, SizeLimitError
from sepmac.channels import make_channel
from sepmac.construct import EnsembleSpec, random_code
from sepmac.verify import (
    MESSAGE_GUARD,
    _unrank,
    check_params,
    factor_decode,
    is_at_most_s_separable,
    is_frameproof,
    is_hash,
    is_list_decoding,
    is_separable,
)

B2 = make_channel("B", 2, 2)
A2 = make_channel("A", 2, 2)

C3 = Code(2, [(0, 0), (0, 1), (1, 0)])
C4 = Code(2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def test_is_separable_basic():
    assert is_separable(C3, 2, B2).holds
    v = is_separable(C4, 2, B2)
    assert not v.holds
    assert v.witness == ((1, 4), (2, 3))


def test_is_separable_duplicate_columns():
    code = Code(2, [(0, 1), (0, 1), (1, 0)])
    for ch in (B2, A2):
        v = is_separable(code, 2, ch)
        assert not v.holds
        assert v.witness == ((1, 3), (2, 3))


def test_is_separable_param_checks():
    with pytest.raises(InvalidParametersError):
        is_separable(C3, 3, B2)
    with pytest.raises(InvalidParametersError):
        is_separable(C3, 2, make_channel("B", 3, 2))


def test_separable_oracle_equivalence():
    # independent oracle: all-pairs comparison of stored output words
    for seed in range(40):
        q = 2 + seed % 2
        spec = EnsembleSpec("cr", q, 3, 5, p=tuple(1.0 / q for _ in range(q)), seed=seed)
        code = random_code(spec)
        for s in (2, 3):
            ch = make_channel("B", s, q)
            words = [output_word(ch, code, e) for e in enumerate_messages(code.t, s)]
            brute = all(words[i] != words[j]
                        for i in range(len(words)) for j in range(i + 1, len(words)))
            assert is_separable(code, s, ch).holds == brute


def _separable_peak(code, channel):
    tracemalloc.start()
    try:
        verdict = is_separable(code, 3, channel)
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_separable_peak_memory_per_message():
    # one uint64 key per message is held, with one sorted copy; the blocks of
    # the matrix product and the held prefixes' states add the rest, about
    # 21 bytes per message at N=30 (94 when every message held its output row)
    code = random_code(EnsembleSpec("cr", 3, 30, 80, p=(1 / 3,) * 3, seed=1))
    verdict, peak = _separable_peak(code, make_channel("B", 3, 3))
    assert verdict.holds
    assert peak <= 120 * comb(80, 3), peak / comb(80, 3)


@pytest.mark.parametrize("constant", [16, 30])
def test_separable_peak_memory_on_constant_columns(constant):
    # the key hashes every column, so 16 constant leading columns add no
    # repeated keys (about 22 bytes per message); with all 30 constant every
    # message collides, and only the first rows of the witness's key are
    # built (about 34 bytes per message; 71 when the rows of every message
    # whose key repeats were built and compared)
    x = random_code(EnsembleSpec("cr", 3, 30, 80, p=(1 / 3,) * 3, seed=1)).symbols.copy()
    x[:, :constant] = 0
    verdict, peak = _separable_peak(Code(3, x), make_channel("B", 3, 3))
    assert verdict.holds == (constant < 30)
    assert peak <= 120 * comb(80, 3), peak / comb(80, 3)


@pytest.mark.parametrize("verdict, t, sets, witness, bound", [
    (lambda code: is_separable(code, 3, make_channel("B", 3, 3)), 120, comb(120, 3),
     ((1, 2, 3), (1, 2, 4)), 35),
    (lambda code: is_at_most_s_separable(code, 2), 600, 600 + comb(600, 2), ((1,), (2,)), 30)])
def test_peak_memory_when_every_message_collides(verdict, t, sets, witness, bound):
    # t copies of one codeword: every message has one row and one key, and
    # the witness is the first two sets. The keys, their sorted copy and the
    # messages of the witness's key take about 17 bytes per message, the
    # blocks the rest: about 23 bytes per message for --separable and 20 per
    # set for --le-separable (70 and 69 when the set and row of every message
    # whose key repeats were built and sorted)
    code = Code(3, np.tile(np.random.default_rng(1).integers(0, 3, 30), (t, 1)))
    tracemalloc.start()
    try:
        result = verdict(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.witness == witness
    assert peak <= bound * sets, peak / sets


@pytest.mark.parametrize("check", [lambda code: is_frameproof(code, 2),
                                   lambda code: is_list_decoding(code, 2, 2)])
def test_cover_peak_memory_at_q64(check):
    # 64-bit row masks, one word a column (W = 40): the pairs' unions come in
    # blocks of _BLOCK_CELLS // (t * W) = 109, whose (pairs, t) uint64 AND-NOT
    # and OR temporaries take about 52 KB; the check peaks at about 0.3 MB
    # (2.0 MB with float32 products of one-hot bit sets, 2.3 MB when covers
    # were tested on (sets, t, N) blocks of masks)
    code = Code(64, np.random.default_rng(3).integers(0, 64, (60, 40)))
    tracemalloc.start()
    try:
        assert check(code).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak


@pytest.mark.parametrize("N, t, bound", [(12, 300, 70), (30, 600, 50)])
def test_at_most_s_separable_peak_memory_per_set(N, t, bound):
    # one uint64 key per set of sizes 1 and 2 with one sorted copy, and a
    # block of union words with their keys: about 29 bytes per set at N=12,
    # where the block weighs most, and 19 at N=30 (36 and 19 with a uint64
    # key product over the masks; 54 and 86 when every set held its union row)
    code = random_code(EnsembleSpec("cr", 3, N, t, p=(1 / 3,) * 3, seed=1))
    sets = comb(t, 1) + comb(t, 2)
    tracemalloc.start()
    try:
        is_at_most_s_separable(code, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * sets, peak / sets


def test_at_most_s_separable():
    assert is_at_most_s_separable(Code(2, [(0, 0), (1, 1), (0, 1)]), 2).holds
    v = is_at_most_s_separable(Code(2, [(0, 0), (0, 1), (1, 1), (1, 0)]), 2)
    assert not v.holds
    assert v.witness == ((1, 3), (2, 4))
    assert is_at_most_s_separable(Code(2, [(0, 0), (1, 1)]), 1).holds
    # sets are padded at the end, so (1, 2) comes before (2,), as tuples do
    v = is_at_most_s_separable(Code(2, [(0, 0), (1, 1), (1, 1)]), 2)
    assert v.witness == ((1, 2), (1, 3))


def test_at_most_s_separable_mixed_sizes():
    # a 1-tuple union equal to a 2-tuple union is a violation
    code = Code(2, [(0, 0), (0, 0)])
    v = is_at_most_s_separable(code, 1)
    assert not v.holds


def test_frameproof():
    assert is_frameproof(Code(2, [(0, 0), (1, 1)]), 1).holds
    v = is_frameproof(Code(2, [(0, 0), (0, 1), (1, 1)]), 2)
    assert not v.holds
    assert v.witness == ((1, 3), 2)
    assert is_frameproof(
        Code(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 2).holds


def test_frameproof_repeated_columns_fail():
    code = Code(2, [(0, 1), (0, 1), (1, 0)])
    v = is_frameproof(code, 1)
    assert not v.holds
    assert v.witness == ((1,), 2)


def test_row_masks_refuse_wide_alphabets():
    code = Code(65, [(64,), (0,), (1,)])
    for check in (lambda: is_frameproof(code, 1), lambda: is_hash(code, 1),
                  lambda: factor_decode(code, [(0,)])):
        with pytest.raises(SizeLimitError):
            check()


def test_message_count_and_guard():
    # the exact count up to the guard, in the verifiers' order of sizes
    for t in range(2, 45):
        for s in range(1, t):
            for prop, n in (("frameproof", comb(t, s)),
                            ("le_separable", sum(comb(t, k) for k in range(1, s + 1)))):
                if n <= MESSAGE_GUARD:
                    assert check_params(prop, t, 2, s) == n
                else:
                    with pytest.raises(SizeLimitError):
                        check_params(prop, t, 2, s)
    assert check_params("le_separable", 1413, 3, 2) == 1413 + comb(1413, 2) <= MESSAGE_GUARD
    assert check_params("separable", 182, 3, 3) == comb(182, 3) <= MESSAGE_GUARD
    assert check_params("hash", 20, 20, 20) == 1
    assert check_params("list", 21, 2, 10, 1) == comb(21, 10)
    for prop, t, s in (("le_separable", 1414, 2), ("separable", 183, 3), ("hash", 23, 11)):
        with pytest.raises(SizeLimitError):
            check_params(prop, t, 64, s)
    # C(10^7, 10^6) has millions of digits: a partial count refuses at once
    for prop, s in (("frameproof", 10 ** 6), ("le_separable", 30000), ("list", 5 * 10 ** 6)):
        with pytest.raises(SizeLimitError):
            check_params(prop, 10 ** 7, 2, s, 1)


def test_unrank():
    # every position of every k-subset of 1..t, t <= 8, in tuple order
    for t in range(1, 9):
        for k in range(1, t + 1):
            for r, x in enumerate(itertools.combinations(range(1, t + 1), k)):
                assert _unrank(t, k, r) == x, (t, k, r)
    # the last position where C(t, k) is near the guard, from an int and a numpy int
    for t, k in ((1414, 2), (182, 3), (10 ** 6, 1)):
        for r in (comb(t, k) - 1, np.int64(comb(t, k) - 1)):
            x = _unrank(t, k, r)
            assert x == tuple(range(t - k + 1, t + 1))
            assert all(type(j) is int for j in x) and json.dumps(x)
    assert _unrank(1414, 2, np.int64(1412)) == (1, 1414)


def test_hash():
    assert is_hash(Code(3, [(0,), (1,), (2,)]), 3).holds
    with pytest.raises(InvalidParametersError):
        is_hash(Code(2, [(0,), (1,), (0,)]), 3)
    v = is_hash(Code(3, [(0, 0), (0, 1), (1, 1)]), 3)
    assert not v.holds


def test_list_decoding():
    assert is_list_decoding(Code(2, [(0, 0), (1, 1)]), 1, 1).holds
    code = Code(2, [(0, 0), (1, 1), (0, 1)])
    v = is_list_decoding(code, 2, 1)
    assert not v.holds
    assert v.witness == ((1, 2), (3,))
    assert is_list_decoding(code, 2, 2).holds


def test_factor_decode():
    code = Code(2, [(0, 0), (1, 1), (0, 1)])
    assert factor_decode(code, [(0, 1), (1,)]) == {2, 3}
    assert factor_decode(code, [(0, 1), (0, 1)]) == {1, 2, 3}
    assert factor_decode(code, [(1,), (1,)]) == {2}
    with pytest.raises(InvalidParametersError):
        factor_decode(code, [(0,)])
    for z in ([(0, 7), (1,)], [(0,), (-1,)]):
        with pytest.raises(InvalidSymbolError):
            factor_decode(code, z)


def test_factor_decode_contains_message():
    for seed in range(30):
        spec = EnsembleSpec("cr", 2, 4, 5, p=(0.5, 0.5), seed=seed)
        code = random_code(spec)
        ch = make_channel("A", 2, 2)
        for e in enumerate_messages(code.t, 2):
            z = output_word(ch, code, e)
            # each A-MAC label {a,b} prints the union of the row's symbols
            decoded = factor_decode(code, [tuple(map(int, label[1:-1].split(","))) for label in z])
            assert set(e.indices) <= decoded


def test_error_fraction():
    same = Code(2, [(0, 1)] * 4)
    assert error_fraction(same, 2, B2).epsilon == 1
    assert error_fraction(C3, 2, B2).epsilon == 0
    rep = error_fraction(C4, 2, B2)
    assert rep.bad_count == 2 and rep.total == 6
    assert rep.epsilon == Fraction(2, 6)


def test_error_fraction_iff_separable():
    for seed in range(30):
        spec = EnsembleSpec("cr", 2, 3, 5, p=(0.5, 0.5), seed=seed)
        code = random_code(spec)
        sep = is_separable(code, 2, B2).holds
        eps = error_fraction(code, 2, B2).epsilon
        assert (eps == 0) == sep


def test_count_L_rare():
    r, flags = count_L_rare(Code(2, [(0,), (1,), (1,)]), 1)
    assert r == 1 and flags == [True, False, False]
    same = Code(2, [(0, 1)] * 4)
    r, _ = count_L_rare(same, 2)
    assert r == 0


def test_count_L_rare_counting_bound():
    for seed in range(20):
        spec = EnsembleSpec("cr", 2, 3, 6, p=(0.5, 0.5), seed=seed)
        code = random_code(spec)
        for L in (1, 2):
            r, _ = count_L_rare(code, L)
            assert r <= code.N * L * code.q ** L


def test_split_graph_girth():
    v = split_graph_girth_check(C4, 2, 1)
    assert not v.holds
    assert v.witness == ((1, 2, 3, 4),)
    assert split_graph_girth_check(C3, 2, 1).holds
    single = Code(2, [(0, 1)])
    assert split_graph_girth_check(single, 2, 1).holds
    with pytest.raises(InvalidParametersError):
        split_graph_girth_check(C3, 2, 2)


def test_split_graph_parallel_edges():
    code = Code(2, [(0, 1), (0, 1), (1, 0)])
    v = split_graph_girth_check(code, 2, 1)
    assert not v.holds
    assert v.witness == ((1, 2),)


def test_verdict_json():
    v = is_separable(C4, 2, B2)
    d = v.to_dict()
    assert d["holds"] is False
    assert d["witness"] == [[1, 4], [2, 3]]
