"""Differential tests: the integer channel kernel, its output law, the
row-mask cover tests, the incremental exhaustive and greedy search, the
integer P_term and the entropy bound's exact-gradient SLSQP against the
pure-Python reference and the finite-difference solver in ``reference.py``;
and that gradient against central differences."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from sepmac import bounds
from sepmac.bounds import Distribution, P_term, capacity_entropy_bound, entropy_output
from sepmac.channels import ChannelSpec, OutputSymbol, make_channel, output_ids
from sepmac.core import Code, compositions
from sepmac.construct import max_code_search
from sepmac.verify import (
    error_fraction,
    factor_decode,
    is_at_most_s_separable,
    is_frameproof,
    is_hash,
    is_list_decoding,
    is_separable,
)

KINDS = ("A", "B", "eras", "thr", "disj", "custom")


def _channel(kind, s, q, rng):
    if kind == "thr":
        return make_channel(f"thr:{rng.randint(1, s)}", s, q)
    if kind == "custom":
        labels = "uvw"[:rng.randint(1, 3)]
        return ChannelSpec("custom", q, s, {c: rng.choice(labels) for c in compositions(s, q)})
    return make_channel(kind, s, q)


@st.composite
def codes(draw, kinds=KINDS):
    """A small random code, s, and a channel of a drawn kind."""
    kind = draw(st.sampled_from(kinds))
    q = 2 if kind in ("thr", "disj") else draw(st.integers(2, 4))
    t = draw(st.integers(2, 7))
    s = draw(st.integers(1, min(3, t - 1)))
    n = draw(st.integers(1, 4))
    cols = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=t, max_size=t))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return Code.from_columns(q, cols), s, _channel(kind, s, q, rng)


@settings(max_examples=300, deadline=None)
@given(codes())
def test_separable_matches_reference(case):
    code, s, ch = case
    assert is_separable(code, s, ch) == ref.is_separable(code, s, ch)
    assert error_fraction(code, s, ch) == ref.error_fraction(code, s, ch)
    x = code.symbols()
    for e in ref.enumerate_messages(code.t, s):
        ids = output_ids(ch, x[np.array(e.indices) - 1])
        assert [ch.outputs[z] for z in ids.tolist()] == list(ref.output_word(ch, code, e).symbols)


@pytest.mark.parametrize("kind", ["A", "B", "eras", "thr", "disj"])
def test_builtin_rules_match_reference(kind):
    # every s-word, s <= 4 and q <= 4, through the kernel against the rule
    # read off the word
    for s in range(1, 5):
        names = [f"thr:{l}" for l in range(1, s + 1)] if kind == "thr" else [kind]
        for q in [2] if kind in ("thr", "disj") else range(2, 5):
            words = list(itertools.product(range(q), repeat=s))
            for name in names:
                ch = make_channel(name, s, q)
                ids = output_ids(ch, np.array(words).T).tolist()
                assert [ch.outputs[z] for z in ids] == [
                    OutputSymbol(kind, ref.builtin_output(name, w, q)) for w in words], (name, s, q)


@st.composite
def channel_laws(draw):
    """A channel of a drawn kind and an input law, often with zero entries."""
    kind = draw(st.sampled_from(KINDS))
    q = 2 if kind in ("thr", "disj") else draw(st.integers(2, 4))
    s = draw(st.integers(1, 4))
    w = draw(st.lists(st.integers(0, 5), min_size=q, max_size=q).filter(any))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return _channel(kind, s, q, rng), Distribution(tuple(x / sum(w) for x in w))


@settings(max_examples=300, deadline=None)
@given(channel_laws())
def test_entropy_output_matches_reference(case):
    ch, p = case
    assert abs(entropy_output(ch, p) - ref.entropy_output(ch, p)) <= 1e-12


@st.composite
def entropy_channels(draw):
    """A custom channel (q, s <= 4, 2-5 labels), A, B or eras with q <= 5, or
    thr:l with s <= 6."""
    kind = draw(st.sampled_from(("A", "B", "eras", "thr", "custom")))
    if kind == "thr":
        s = draw(st.integers(1, 6))
        return make_channel(f"thr:{draw(st.integers(1, s))}", s, 2)
    if kind == "custom":
        q, s = draw(st.integers(2, 4)), draw(st.integers(1, 4))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        labels = "uvwxy"[:draw(st.integers(2, 5))]
        return ChannelSpec("custom", q, s, {c: rng.choice(labels) for c in compositions(s, q)})
    return make_channel(kind, draw(st.integers(1, 4)), draw(st.integers(2, 5)))


@settings(max_examples=60, deadline=None)
@given(entropy_channels(), st.integers(0, 2 ** 63))
def test_entropy_bound_not_below_reference(ch, seed):
    got, want = capacity_entropy_bound(ch, seed), ref.capacity_entropy_bound(ch, seed)
    assert got.value >= want.value - 1e-9


@pytest.mark.parametrize("name,s,q", [("B", 5, 5), ("A", 4, 4), ("A", 3, 5), ("eras", 3, 4)])
def test_entropy_bound_matches_reference_on_benchmark(name, s, q):
    ch = make_channel(name, s, q)
    assert abs(capacity_entropy_bound(ch).value - ref.capacity_entropy_bound(ch).value) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(entropy_channels(), st.data())
def test_entropy_gradient_matches_central_differences(ch, data):
    x = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=ch.q, max_size=ch.q)))
    value, grad = bounds._neg_entropy(x, ch)
    assert abs(value + entropy_output(ch, Distribution(tuple(x / x.sum())))) <= 1e-12
    h = 1e-6
    for a, step in enumerate(np.eye(ch.q) * h):
        up, down = bounds._neg_entropy(x + step, ch)[0], bounds._neg_entropy(x - step, ch)[0]
        slope = (up - down) / (2 * h)
        assert abs(grad[a] - slope) <= 1e-6 * (1 + abs(slope)), (a, grad, slope)


@settings(max_examples=300, deadline=None)
@given(codes(kinds=("A",)), st.integers(1, 3), st.data())
def test_cover_tests_match_reference(case, L, data):
    code, s, _ = case
    assert is_at_most_s_separable(code, s) == ref.is_at_most_s_separable(code, s)
    assert is_frameproof(code, s) == ref.is_frameproof(code, s)
    assert is_list_decoding(code, s, L) == ref.is_list_decoding(code, s, L)
    if code.q >= s:
        assert is_hash(code, s) == ref.is_hash(code, s)
    # a union word of some codewords, widened by random symbols
    members = data.draw(st.lists(st.integers(1, code.t), min_size=1, max_size=3))
    extra = data.draw(st.lists(st.sets(st.integers(0, code.q - 1), max_size=2),
                               min_size=code.N, max_size=code.N))
    z = [set(u) | e for u, e in zip(ref.union_word(code, sorted(set(members))), extra)]
    assert factor_decode(code, z) == ref.factor_decode(code, z)


def test_P_term_matches_reference():
    # the range table1 evaluates: q' <= 64, s <= 6, L <= 2
    for q in range(2, 65):
        for s in range(1, 7):
            for L in (1, 2):
                assert P_term(q, s, L) == ref.P_term(q, s, L), (q, s, L)


def _search_channel(name, s, q):
    if name == "custom":
        return _channel(name, s, q, random.Random(f"{s}-{q}"))
    return make_channel(name, s, q)


def _search_instances():
    for s in (1, 2, 3):
        for q, n in [(q, 1) for q in range(2, 16)] + [(2, 2), (2, 3), (3, 2), (2, 4)]:
            names = ["disj"] + [f"thr:{l}" for l in range(1, s + 1)] if q == 2 else []
            if n < 4:
                names += ["A", "B", "eras", "custom"]
            for name in names:
                yield s, q, n, name


@pytest.mark.parametrize("s,q,n,name", list(_search_instances()))
def test_search_matches_reference(s, q, n, name):
    ch = _search_channel(name, s, q)
    got, want = max_code_search(ch, n), ref.max_code_search(ch, n)
    assert (got.t_star, got.code, got.nodes) == (want.t_star, want.code, want.nodes)


def _greedy_instances():
    for s in (1, 2, 3):
        for q, n in [(q, n) for q in range(2, 17) for n in range(1, 6) if q ** n <= 32]:
            names = ["disj"] + [f"thr:{l}" for l in range(1, s + 1)] if q == 2 else []
            for name in names + ["A", "B", "eras", "custom"]:
                yield s, q, n, name


@pytest.mark.parametrize("s,q,n,name", list(_greedy_instances()))
def test_greedy_matches_reference(s, q, n, name):
    ch = _search_channel(name, s, q)
    for seed in range(3):
        got, want = max_code_search(ch, n, "greedy", seed), ref.greedy_search(ch, n, seed)
        assert (got.t_star, got.code, got.nodes) == (want.t_star, want.code, want.nodes), seed
