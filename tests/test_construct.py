import functools
import itertools
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import sepmac.construct as cst
import reference as ref
from reference import column, inner_code_word
from sepmac.core import Code, InvalidParametersError, SizeLimitError
from sepmac.channels import make_channel
from sepmac.construct import (
    EnsembleSpec,
    max_code_search,
    random_code,
    reduce_alphabet,
)
from sepmac.verify import is_list_decoding, is_separable


def test_ensemble_spec_validation():
    with pytest.raises(InvalidParametersError):
        EnsembleSpec("xx", 2, 3, 4, p=(0.5, 0.5))
    with pytest.raises(InvalidParametersError):
        EnsembleSpec("cr", 2, 3, 4)
    with pytest.raises(InvalidParametersError):
        EnsembleSpec("cr", 2, 3, 4, p=(0.7, 0.7))
    with pytest.raises(InvalidParametersError):
        EnsembleSpec("fc", 2, 3, 4, composition=(1, 1))


def test_random_code_deterministic():
    spec = EnsembleSpec("cr", 3, 4, 6, p=(0.5, 0.3, 0.2), seed=11)
    assert random_code(spec) == random_code(spec)
    other = EnsembleSpec("cr", 3, 4, 6, p=(0.5, 0.3, 0.2), seed=12)
    assert random_code(spec) != random_code(other)


def test_random_code_column_independent_of_t():
    # counter-based generation: column j is the same whether t=3 or t=6
    short = random_code(EnsembleSpec("cr", 2, 5, 3, p=(0.5, 0.5), seed=7))
    long = random_code(EnsembleSpec("cr", 2, 5, 6, p=(0.5, 0.5), seed=7))
    for j in range(1, 4):
        assert column(short, j) == column(long, j)


def test_fc_columns_have_exact_composition():
    comp = (2, 1, 1)
    spec = EnsembleSpec("fc", 3, 4, 10, composition=comp, seed=3)
    code = random_code(spec)
    for j in range(1, code.t + 1):
        counts = Counter(column(code, j))
        assert tuple(counts.get(a, 0) for a in range(3)) == comp


def test_cr_degenerate_distribution():
    spec = EnsembleSpec("cr", 2, 4, 3, p=(1.0, 0.0), seed=0)
    code = random_code(spec)
    assert all(column(code, j) == (0, 0, 0, 0) for j in range(1, 4))


@given(st.integers(0, 1000))
def test_cr_frequencies_roughly_match(seed):
    # weak sanity only: with p = (0.9, 0.1) zeros should dominate
    spec = EnsembleSpec("cr", 2, 30, 4, p=(0.9, 0.1), seed=seed)
    code = spec and random_code(spec)
    flat = [a for j in range(1, 5) for a in column(code, j)]
    assert flat.count(0) > flat.count(1)


def test_inner_code_word():
    # q' = 4 over q = 3 gives l = 2
    assert inner_code_word(0, 2, 3) == (1, 0)
    assert inner_code_word(1, 2, 3) == (0, 1)
    assert inner_code_word(2, 2, 3) == (2, 0)
    assert inner_code_word(3, 2, 3) == (0, 2)


def test_reduce_alphabet_shapes():
    code = Code(4, [(0, 3), (2, 1)])
    reduced = reduce_alphabet(code, 3)
    assert reduced.q == 3 and reduced.N == 4 and reduced.t == 2
    assert column(reduced, 1) == (1, 0, 0, 2)
    assert column(reduced, 2) == (2, 0, 0, 1)
    with pytest.raises(InvalidParametersError):
        reduce_alphabet(code, 4)
    with pytest.raises(InvalidParametersError):
        reduce_alphabet(code, 1)


def test_reduce_alphabet_distinct_symbols_stay_distinct():
    qprime, q = 5, 2
    code = Code(qprime, [(a,) for a in range(qprime)])
    reduced = reduce_alphabet(code, q)
    cols = [column(reduced, j) for j in range(1, qprime + 1)]
    assert len(set(cols)) == qprime
    # weight-one words: each column has exactly one nonzero entry
    assert all(sum(1 for x in c if x) == 1 for c in cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_reduce_alphabet_matches_reference(qprime, N, t, rnd):
    """The one-scatter reduction equals one inner code word per symbol,
    for every target q < q'."""
    code = Code(qprime, [[rnd.randrange(qprime) for _ in range(N)] for _ in range(t)])
    for q in range(2, qprime):
        assert reduce_alphabet(code, q) == ref.reduce_alphabet(code, q)


def test_reduce_alphabet_preserves_list_decoding():
    checked = 0
    for seed in range(60):
        qprime = 3 + seed % 3
        spec = EnsembleSpec("cr", qprime, 3, 5,
                            p=tuple(1.0 / qprime for _ in range(qprime)), seed=seed)
        code = random_code(spec)
        for q in range(2, qprime):
            for s, L in ((2, 1), (2, 2)):
                if not is_list_decoding(code, s, L).holds:
                    continue
                assert is_list_decoding(reduce_alphabet(code, q), s, L).holds
                checked += 1
    assert checked > 50


DISJ2 = make_channel("disj", 2, 2)


def test_max_code_search_disjunctive_fixtures():
    # frozen values from exhaustive enumeration, cross-checked against a
    # brute-force all-subsets oracle at N = 3, 4
    expected = {1: 2, 2: 3, 3: 4, 4: 5}
    for N, t_star in expected.items():
        res = max_code_search(DISJ2, N)
        assert res.t_star == t_star
        assert res.mode == "exhaustive"
        if res.t_star > 2:
            assert is_separable(res.code, 2, DISJ2).holds


def test_max_code_search_b_mac():
    ch = make_channel("B", 2, 2)
    res = max_code_search(ch, 2)
    assert res.t_star == 3
    assert res.code == Code(2, [(0, 0), (0, 1), (1, 0)])


def test_max_code_search_returns_lex_smallest():
    res = max_code_search(DISJ2, 2)
    cols = [column(res.code, j) for j in range(1, res.t_star + 1)]
    assert cols == sorted(cols)
    assert cols[0] == (0, 0)


def test_max_code_search_matches_brute_force():
    # independent oracle: test every subset of columns
    for (name, s, q, N) in (("disj", 2, 2, 3), ("B", 2, 2, 2), ("A", 2, 2, 2)):
        ch = make_channel(name, s, q)
        res = max_code_search(ch, N)
        all_cols = list(itertools.product(range(q), repeat=N))
        best = 0
        for r in range(1, len(all_cols) + 1):
            found = False
            for subset in itertools.combinations(all_cols, r):
                code = Code(q, list(subset))
                if r <= s or is_separable(code, s, ch).holds:
                    found = True
                    break
            if found:
                best = r
            else:
                break
        assert res.t_star == best


def test_greedy_not_better_than_exhaustive():
    exact = max_code_search(DISJ2, 3).t_star
    for seed in range(5):
        res = max_code_search(DISJ2, 3, mode="greedy", seed=seed)
        assert res.mode == "greedy"
        assert res.t_star <= exact
        assert is_separable(res.code, 2, DISJ2).holds


def test_greedy_is_maximal():
    res = max_code_search(DISJ2, 3, mode="greedy", seed=1)
    chosen = [column(res.code, j) for j in range(1, res.t_star + 1)]
    for col in itertools.product(range(2), repeat=3):
        if col in chosen:
            continue
        bigger = Code(2, sorted(chosen + [col]))
        assert not is_separable(bigger, 2, DISJ2).holds


def test_max_code_search_guards():
    with pytest.raises(InvalidParametersError):
        max_code_search(DISJ2, 25)
    for N in (0, -1):
        with pytest.raises(InvalidParametersError, match=f"N={N}"):
            max_code_search(DISJ2, N)
    with pytest.raises(InvalidParametersError):
        max_code_search(DISJ2, 2, mode="fast")


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_max_code_search_guard_builds_no_huge_count(mode):
    # q^N is built only up to EXHAUSTIVE_GUARD: at N = 10^8 the count alone
    # would take minutes, and one past 4,300 digits cannot be printed
    B23 = make_channel("B", 2, 3)
    for N in (13, 10 ** 4, 10 ** 8):  # 3^12 = 531,441 is inside the guard, 3^13 past it
        started = time.perf_counter()
        with pytest.raises(SizeLimitError, match=rf"q\^N exceeds guard 1048576 \(q=3, N={N}\)"):
            max_code_search(B23, N, mode)
        assert time.perf_counter() - started < 0.1
    # 2^21 is the first power of two past the guard
    with pytest.raises(SizeLimitError, match="N=21"):
        max_code_search(DISJ2, 21, mode)


# (t*, nodes, witness) of exhaustive trees beyond the differential tests'
# N <= 4 or q^N <= 32, keyed by (channel, s, N) at q = 2: the benchmark's
# commands (s = 2) and three s = 3 trees
SEARCH_TREES = {
    ("disj", 2, 4): (5, 331, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                              (1, 0, 0, 0)]),
    ("disj", 2, 5): (6, 6553, [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0),
                               (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]),
    ("thr:2", 2, 5): (6, 4172, [(0, 0, 1, 1, 1), (0, 1, 0, 1, 1), (1, 0, 1, 0, 1),
                                (1, 1, 0, 1, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 1)]),
    ("eras", 2, 4): (7, 2554, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                               (0, 1, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0)]),
    ("B", 3, 4): (6, 3643, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                            (0, 1, 1, 1), (1, 0, 0, 0)]),
    ("disj", 3, 5): (6, 5696, [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0),
                               (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]),
    ("thr:2", 3, 5): (6, 21657, [(0, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 1, 1, 0, 0),
                                 (1, 0, 1, 0, 1), (1, 1, 0, 1, 0), (1, 1, 1, 1, 1)]),
}


@pytest.mark.parametrize("name,s,N", list(SEARCH_TREES))
def test_search_trees_pinned(name, s, N):
    t_star, nodes, witness = SEARCH_TREES[name, s, N]
    res = max_code_search(make_channel(name, s, 2), N)
    assert (res.t_star, res.nodes, res.code) == (t_star, nodes, Code(2, witness))


def test_search_deeper_than_the_recursion_limit():
    # the B-MAC with s = 1 separates every code: the tree is one path
    res = max_code_search(make_channel("B", 1, 2), 10)
    assert (res.t_star, res.nodes) == (1024, 1025)
    assert res.nodes > sys.getrecursionlimit()
    assert res.code == Code(2, list(itertools.product(range(2), repeat=10)))


def test_greedy_key_cell_budget(monkeypatch):
    # greedy disj s=2 N=4 (seed 1) gathers exactly 448 key cells
    monkeypatch.setattr(cst, "GREEDY_GUARD", 448)
    assert max_code_search(DISJ2, 4, "greedy", 1).t_star == 4
    monkeypatch.setattr(cst, "GREEDY_GUARD", 447)
    with pytest.raises(SizeLimitError, match="447 key cells"):
        max_code_search(DISJ2, 4, "greedy", 1)


def test_greedy_guard_admits_the_benchmark_search():
    # the benchmark's greedy B s=2 q=3 N=5 gathers 149,865 key cells at seed 0
    res = max_code_search(make_channel("B", 2, 3), 5, "greedy", 0)
    assert (res.t_star, res.nodes) == (34, 243)


def test_node_budget(monkeypatch):
    # disj s=2 N=4 visits exactly 331 nodes
    monkeypatch.setattr(cst, "NODE_GUARD", 331)
    assert max_code_search(DISJ2, 4).nodes == 331
    monkeypatch.setattr(cst, "NODE_GUARD", 330)
    with pytest.raises(SizeLimitError, match="330 nodes"):
        max_code_search(DISJ2, 4)


# searches whose candidates span several blocks once GATHER_CELLS is small;
# B s=2 q=3 N=2 (52 nodes) pushes at s = 2 across block boundaries at q = 3
GATHER_CASES = [(DISJ2, 4, "exhaustive"), (make_channel("eras", 2, 2), 4, "exhaustive"),
                (make_channel("B", 3, 2), 3, "exhaustive"), (make_channel("A", 1, 3), 2, "exhaustive"),
                (make_channel("B", 2, 3), 2, "exhaustive"), (make_channel("B", 2, 3), 3, "greedy")]


def _searches(cases):
    return [(r.t_star, r.nodes, r.code) for r in
            (max_code_search(ch, N, mode, 1) for ch, N, mode in cases)]


@functools.lru_cache(maxsize=None)
def _reference_searches() -> list:
    """The oracle's (t*, nodes, code) of each of GATHER_CASES."""
    return [(r.t_star, r.nodes, r.code) for r in
            (ref.max_code_search(ch, N) if mode == "exhaustive" else ref.greedy_search(ch, N, 1)
             for ch, N, mode in GATHER_CASES)]


@pytest.mark.parametrize("cells", [1, 7])
def test_gather_blocks_leave_search_unchanged(monkeypatch, cells):
    # blocks of one candidate, and blocks that split a node's candidates
    # unevenly, against the oracle: the path's one seen-key set, grown on a
    # push and cut back on a pop, stays exact across block moves and pops
    # back into an earlier block
    monkeypatch.setattr(cst, "GATHER_CELLS", cells)
    assert _searches(GATHER_CASES) == _reference_searches()


def _counting_gathers(monkeypatch) -> list:
    """A list that gains an item for each key block gathered from now on."""
    calls: list = []
    gather = cst._keys
    monkeypatch.setattr(cst, "_keys", lambda *args: calls.append(None) or gather(*args))
    return calls


@pytest.mark.parametrize("cells", [1, 7])
def test_memo_of_one_block_leaves_search_unchanged(monkeypatch, cells):
    # the memo keeps only the block it read last, so a node reading any
    # other block again rebuilds it
    want = _searches(GATHER_CASES)
    monkeypatch.setattr(cst, "GATHER_CELLS", cells)
    gathers = _counting_gathers(monkeypatch)
    assert _searches(GATHER_CASES) == want
    full = len(gathers)
    monkeypatch.setattr(cst, "MEMO_CELLS", 1)
    assert _searches(GATHER_CASES) == want
    assert len(gathers) - full > full


def test_memo_gathers_each_subset_once(monkeypatch):
    # disj s=2 N=5 visits 6,553 nodes but gathers one block of keys per
    # chosen column
    gathers = _counting_gathers(monkeypatch)
    assert max_code_search(DISJ2, 5).nodes == 6553
    assert len(gathers) <= 2 ** 5


def test_memo_bound_counts_a_blocks_cells(monkeypatch):
    # thr:2 s=3 N=5 has C(32, 2) = 496 pair subsets and one block of 32
    # candidates; a memo of 2^17 cells holds 819 such blocks, so each subset
    # is gathered at most once (a bound counting GATHER_CELLS // N = 819
    # candidates a block would hold 32 blocks and gather about 32k)
    monkeypatch.setattr(cst, "MEMO_CELLS", 2 ** 17)
    gathers = _counting_gathers(monkeypatch)
    t_star, nodes, witness = SEARCH_TREES["thr:2", 3, 5]
    res = max_code_search(make_channel("thr:2", 3, 2), 5)
    assert (res.t_star, res.nodes, res.code) == (t_star, nodes, Code(2, witness))
    assert len(gathers) <= 496


def _refusal_peak(monkeypatch, channel, N: int, guard: int) -> int:
    """The traced peak, in bytes, of an exhaustive search refused after
    ``guard`` nodes."""
    monkeypatch.setattr(cst, "NODE_GUARD", guard)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"{guard} nodes"):
            max_code_search(channel, N)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_without_a_candidate_table(monkeypatch):
    # B s=2 q=2 N=20 is inside EXHAUSTIVE_GUARD; 12 nodes must not cost a
    # table of its 2^20 candidate columns
    assert _refusal_peak(monkeypatch, make_channel("B", 2, 2), 20, 12) <= 32 * 2 ** 20


def test_search_memory_of_a_many_key_refusal(monkeypatch):
    # B s=2 q=2 N=12 refused after 500 nodes holds the path's keys and the
    # memo's bounded blocks, about 30 MB; a table that grows with the
    # distinct keys seen (one bit per key id) reached gigabytes by then
    assert _refusal_peak(monkeypatch, make_channel("B", 2, 2), 12, 500) <= 64 * 2 ** 20


def test_search_memory_of_a_tree_where_every_candidate_survives():
    # B s=1 q=2 N=10 keeps every candidate: each of the 1,025 nodes on the one
    # path holds the survivors left in its block, so lists over all 2^10
    # candidates would grow with the square of the path
    tracemalloc.start()
    try:
        res = max_code_search(make_channel("B", 1, 2), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.t_star, res.nodes) == (1024, 1025)
    assert peak <= 64 * 2 ** 20


def test_search_memory_of_an_s3_refusal(monkeypatch):
    # B s=3 q=2 N=11 refused after 60 nodes: a survivor carries one key per
    # pair subset of the code, so an s=3 node's list is the widest
    assert _refusal_peak(monkeypatch, make_channel("B", 3, 2), 11, 60) <= 64 * 2 ** 20


def test_search_time_per_node_where_every_candidate_survives():
    # B s=1 q=2: one path, each node copying the rest of its block's
    # survivors, so the time per node stays flat from N=10 to N=15 (about
    # 35-60 us); lists over all q^N candidates would make it grow with q^N
    # (about 3.6 times from N=10 to N=12), and copying the record on every
    # push that deepens it with the path's length (1.7-2.8 times from N=10
    # to N=15)
    def per_node(N):
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            res = max_code_search(make_channel("B", 1, 2), N)
            best = min(best, time.perf_counter() - t)
        assert (res.t_star, res.nodes) == (2 ** N, 2 ** N + 1)
        return best / res.nodes
    assert per_node(12) <= 2 * per_node(10)
    assert per_node(15) <= 1.5 * per_node(10)
