import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import reference as ref
from reference import P_term_enumerate, proof_probability_estimates, reference_asymptotics
from sepmac import bounds
from sepmac.core import InvalidParametersError, SizeLimitError, compositions
from sepmac.channels import make_channel
from sepmac.bounds import (
    ENTROPY_WORK_GUARD,
    BoundReport,
    _neg_entropy,
    Distribution,
    P_term,
    capacity_B_closed_form,
    capacity_entropy_bound,
    comb_upper_bound,
    entropy_output,
    k_factor,
    lower_bound_LD,
    lower_bound_LD_rows,
    upper_bound_A,
    upper_bound_LD,
)
from sepmac.construct import EnsembleSpec

LN2 = math.log(2)


def test_entropy_output_disjunctive():
    ch = make_channel("disj", 2, 2)
    p = Distribution((2 ** -0.5, 1 - 2 ** -0.5))
    assert abs(entropy_output(ch, p) - LN2) < 1e-12
    u = Distribution.uniform(2)
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert abs(entropy_output(ch, u) - expected) < 1e-12


def test_entropy_output_degenerate():
    for name in ("A", "B", "eras"):
        ch = make_channel(name, 3, 3)
        p = Distribution((1, 0, 0))
        h = entropy_output(ch, p)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_entropy_rejects_bad_distribution():
    with pytest.raises(InvalidParametersError):
        Distribution((0.5, 0.6))
    with pytest.raises(InvalidParametersError):
        Distribution((-0.1, 1.1))
    with pytest.raises(InvalidParametersError):
        Distribution((math.nan, 0.5))


def test_disjunctive_capacity():
    for s in range(2, 7):
        ch = make_channel("disj", s, 2)
        rep = capacity_entropy_bound(ch)
        assert abs(rep.value - LN2 / s) < 1e-9
        assert abs(rep.witness.probs[0] - 2 ** (-1 / s)) < 1e-4


def test_entropy_slsqp_from_a_vertex():
    # at e_0 every output that another symbol reaches has probability 0: its
    # log term is finite, so SLSQP neither warns nor stalls on a zero slope
    for name, s, q in (("A", 2, 3), ("B", 3, 3), ("eras", 3, 4)):
        ch = make_channel(name, s, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize(_neg_entropy, np.eye(q)[0], args=(ch,), jac=True, method="SLSQP",
                           bounds=[(0.0, 1.0)] * q,
                           constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
                           options={"maxiter": 500, "ftol": 1e-12})
        assert math.isfinite(res.fun)
        assert -res.fun / s >= capacity_entropy_bound(ch).value - 1e-9, name


@pytest.mark.parametrize("name,s,q", [("B", 5, 5), ("A", 4, 4), ("A", 3, 5), ("eras", 3, 4)]
                         + [("disj", s, 2) for s in range(2, 7)])
def test_entropy_bound_witness(name, s, q):
    # the benchmark's four instances and disj s=2..6: the value is the
    # witness's entropy, the witness a law, and its SLSQP polish succeeded
    ch = make_channel(name, s, q)
    rep = capacity_entropy_bound(ch)
    assert rep.value == entropy_output(ch, rep.witness) / s
    assert abs(math.fsum(rep.witness.probs) - 1) <= 1e-12
    assert not rep.approximate


@pytest.mark.parametrize("name,s,q,passes", [("B", 5, 5, 8), ("A", 4, 4, 11), ("A", 3, 5, 9),
                                              ("eras", 3, 4, 23), ("disj", 6, 2, 21)])
def test_entropy_bound_state_law_passes(name, s, q, passes):
    # state-law folds of the climb (and of the SLSQP polish, where it runs) on
    # the benchmark's four instances and on disj s=6; the first-iterate test
    # reads the climb's gradient and folds nothing. The fixed-factor climb
    # (eta times 1.5 or 0.5) took 25, 30, 23, 40 and 37, disj s=6 with the
    # polish, and a first-iterate test that folded once more
    fold = bounds._state_laws
    with mock.patch.object(bounds, "_state_laws", side_effect=fold) as spy:
        capacity_entropy_bound(make_channel(name, s, q))
    assert spy.call_count == passes


def _largest_admitted_q(name, s):
    """The largest q whose entropy work, q^3 + 10 (s + 1) per composition of
    weight <= s, times q, is within ENTROPY_WORK_GUARD; the next q is refused."""
    def work(q):
        return q ** 3 + 10 * (s + 1) * math.comb(q + s, s) * q

    q = 2
    while work(q + 1) <= ENTROPY_WORK_GUARD:
        q += 1
    with pytest.raises(SizeLimitError, match="work units"):
        capacity_entropy_bound(make_channel(name, s, q + 1))
    return q


@pytest.mark.parametrize("name,s,q", [("A", 3, 29), ("B", 1, 175)])
def test_entropy_bound_memory_at_its_guard(name, s, q):
    # the 17 starts climb as one batch: at the guard's largest A s=3 and
    # B s=1 instances the whole bound stays within 48 MB
    assert _largest_admitted_q(name, s) == q
    ch = make_channel(name, s, q)
    tracemalloc.start()
    try:
        rep = capacity_entropy_bound(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20
    assert not rep.approximate


def test_b_capacity_closed_form():
    assert abs(capacity_B_closed_form(1, 5) - math.log(5)) < 1e-14
    assert abs(capacity_B_closed_form(2, 2) - 0.75 * LN2) < 1e-14
    # tends to ln q from below as q grows (s=3 q=64 is past the kernel guard)
    r16 = capacity_B_closed_form(3, 16) / math.log(16)
    r32 = capacity_B_closed_form(3, 32) / math.log(32)
    assert r16 < r32 < 1


def test_b_capacity_refuses_what_the_kernel_refuses():
    # B s=2 q=128 has 1,073,280 kernel cells, past KERNEL_GUARD, and q=127 is
    # the largest B s=2 inside it; q = 10^6 would walk about 5 * 10^11
    # compositions were it not refused
    for s, q in ((2, 128), (3, 64), (2, 10 ** 6)):
        with pytest.raises(SizeLimitError, match="kernel cells exceed guard"):
            capacity_B_closed_form(s, q)
    assert capacity_B_closed_form(2, 127) == 4.500342422086725


def test_b_capacity_matches_uniform_entropy():
    for s in range(1, 6):
        for q in range(2, 6):
            ch = make_channel("B", s, q)
            cf = capacity_B_closed_form(s, q)
            assert abs(cf - entropy_output(ch, Distribution.uniform(q)) / s) < 1e-12


def test_b_capacity_numerical_maximizer():
    for (s, q) in ((1, 3), (2, 2), (2, 3), (3, 2)):
        ch = make_channel("B", s, q)
        rep = capacity_entropy_bound(ch)
        assert abs(rep.value - capacity_B_closed_form(s, q)) < 1e-9


def test_comb_upper_bound():
    assert abs(comb_upper_bound(3, 4) - (4 / 6) * math.log(4)) < 1e-14
    assert abs(comb_upper_bound(2, 2) - (2 / 3) * LN2) < 1e-14
    # monotone nonincreasing in s, limit (1/2) ln q
    prev = math.inf
    for s in range(2, 40):
        v = comb_upper_bound(s, 3)
        assert v <= prev + 1e-15
        assert v >= 0.5 * math.log(3)
        prev = v


def test_P_term_values():
    assert P_term(2, 1, 1) == Fraction(1, 2)
    assert P_term(2, 2, 1) == Fraction(3, 4)
    assert P_term(3, 2, 1) == Fraction(5, 9)


def test_P_term_matches_enumeration():
    for q in range(2, 6):
        for s in range(1, 5):
            for L in range(1, 4):
                assert P_term(q, s, L) == P_term_enumerate(q, s, L)
                assert 0 < P_term(q, s, L) <= 1


def test_k_factor():
    assert k_factor(3, 3) == 1
    assert k_factor(3, 7) == 4
    assert k_factor(2, 5) == 5
    assert k_factor(3, 10 ** 400 + 1) == 10 ** 400 // 2 + 1
    with pytest.raises(InvalidParametersError):
        k_factor(3, 2)


def test_lower_bound_LD_table_values():
    cases = {
        (2, 1, 2): (0.1438, 2),
        (2, 1, 3): (0.2939, 3),
        (4, 1, 3): (0.0551, 8),
    }
    for (s, L, q), (val, qp) in cases.items():
        rep = lower_bound_LD(s, L, q)
        assert abs(rep.value - val) < 1e-4
        assert rep.witness == qp


def test_lower_bound_LD_empty_range():
    with pytest.raises(InvalidParametersError):
        lower_bound_LD(2, 1, 3, qprime_max=2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.integers(2, 6), st.integers(0, 300))
def test_ld_envelope_bounds_every_later_qprime(s, L, q, extra):
    # U(q') >= the value at q', and U(q' + 1) <= U(q'), from q' = max(q + 1, ceil(e s)) on;
    # at s=2 L=1 q=2 the two are equal, so the scan's cut needs its strict margin
    qp = max(q + 1, math.ceil(math.e * s)) + extra
    pr = P_term(qp, s, L)
    val = (math.log(pr.denominator) - math.log(pr.numerator)) / ((s + L - 1) * k_factor(q, qp))
    envelope = bounds._ld_envelope(s, L, q, qp)
    assert val <= envelope * (1 + 1e-12), (s, L, q, qp)
    assert bounds._ld_envelope(s, L, q, qp + 1) <= envelope, (s, L, q, qp)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 12), st.integers(13, 60)), st.integers(1, 5), st.integers(2, 9),
       st.sampled_from([0, 1, 5, 62, 300, 10 ** 8]))
def test_ld_budget_cap_covers_the_scan(s, L, q, extra):
    # the q' up to which check_ld_work charges a row: the scan, here run
    # unguarded, takes no P_term past it. Large s at L = 1 puts the first
    # value's lower bound within rounding of the value
    qprime_max = q + extra
    with mock.patch.object(bounds, "_hits", wraps=bounds._hits) as spy, \
            mock.patch.object(bounds, "check_ld_work"):
        bounds.lower_bound_LD_rows([(s, L, q)], qprime_max)
    taken = max(qp for (qp, *_), _ in spy.call_args_list)
    assert taken <= bounds._ld_last(s, L, q, qprime_max) <= qprime_max, (s, L, q, qprime_max)


@pytest.mark.parametrize("L", [1, 2, 7])
@pytest.mark.parametrize("q", [2, 3, 5, 9, 1000, 10 ** 6])
def test_ld_floor_is_below_the_first_value(q, L):
    # the scan's value at q' = q, as it rounds it, is at least _ld_floor; at
    # L = 1 the two are equal but for the floor's margin, which a large s
    # at q = 2 tests hardest: there the value is a difference of two close
    # logarithms
    for s in list(range(2, 70)) + [100]:
        hits, total = bounds._hits(q, s, L), q ** (s + L)
        g = math.gcd(hits, total)
        value = (math.log(total // g) - math.log(hits // g)) / (s + L - 1)
        floor = bounds._ld_floor(s, L, q)
        assert floor <= value, (s, L, q)
        if L == 1 and floor > 0:
            assert value - floor <= 1e-11 * value + 2 ** -48 * (s + 1) * math.log(q) / s, (s, q)


def _ld_fields(rep):
    return repr(rep.value), rep.witness, rep.exact, rep.params["at_cap"]


def test_ld_scan_stops_at_the_envelope():
    # table1's 20 rows at q' <= 64 took 650 _hits sums with the full scan
    table = [(s, L, q) for q in (2, 3) for L in (1, 2) for s in range(2, 7)]
    with mock.patch.object(bounds, "_hits", wraps=bounds._hits) as hits:
        reports = lower_bound_LD_rows(table, 64)
    assert hits.call_count <= 120
    for (s, L, q), rep in zip(table, reports):
        assert _ld_fields(rep) == _ld_fields(ref.lower_bound_LD(s, L, q, 64)), (s, L, q)
    # 10^6 - 1 values of q', of which the full scan would sum every one
    with mock.patch.object(bounds, "_hits", wraps=bounds._hits) as hits:
        rep = lower_bound_LD(3, 2, 2, 10 ** 6)
    assert hits.call_count <= 10
    assert _ld_fields(rep) == _ld_fields(ref.lower_bound_LD(3, 2, 2, 256))
    assert (rep.witness, rep.exact) == (6, Fraction(241, 1296))


@pytest.mark.parametrize("call", [
    lambda: capacity_B_closed_form(0, 2),
    lambda: comb_upper_bound(1, 2),
    lambda: P_term(2, 1, 0),
    lambda: lower_bound_LD_rows([(1, 1, 2)]),
    lambda: upper_bound_LD(1, 1, 2),
    lambda: upper_bound_A(1, 2),
    lambda: compositions(-1, 2),  # refused at the call, not at the first item
    lambda: EnsembleSpec("cr", 1, 3, 4, p=(1.0,)),
    lambda: entropy_output(make_channel("B", 2, 2), Distribution((0.2, 0.3, 0.5))),
], ids=["b-capacity", "comb-upper", "P_term", "ld-lower", "ld-upper", "a-upper",
        "compositions", "ensemble", "entropy"])
def test_out_of_range_parameters_refused(call):
    with pytest.raises(InvalidParametersError):
        call()


def test_approximate_report_says_so():
    rep = BoundReport("entropy-capacity", 0.5, {"s": 2}, approximate=True)
    assert rep.to_dict()["approximate"] is True


def test_upper_bound_LD():
    assert abs(upper_bound_LD(2, 1, 2) - 0.5 * LN2) < 1e-12
    assert abs(upper_bound_LD(3, 2, 4) - LN2) < 1e-12
    prev = 0.0
    for L in (1, 10, 100, 10000):
        v = upper_bound_LD(3, L, 2)
        assert v > prev
        prev = v
    assert abs(prev - LN2) < 1e-3


def test_upper_bound_A():
    assert abs(upper_bound_A(2, 2) - LN2) < 1e-12
    assert abs(upper_bound_A(4, 3) - 0.5 * math.log(3)) < 1e-12
    for s in range(3, 11):
        for q in range(2, 6):
            assert abs(upper_bound_A(s, q) - upper_bound_LD(s - 1, 2, q)) < 1e-12


def test_sandwich():
    for q in (2, 3):
        for L in (1, 2):
            for s in range(2, 7):
                assert lower_bound_LD(s, L, q).value <= upper_bound_LD(s, L, q)


def test_proof_probability_estimates():
    est = proof_probability_estimates(2, 2, 2)
    assert est["type_collision_exact"] == Fraction(3, 8)
    assert est["type_collision_bound"] == Fraction(1, 2)
    est1 = proof_probability_estimates(2, 1, 1)
    assert est1["type_collision_exact"] == Fraction(1, 2) == est1["type_collision_bound"]
    est3 = proof_probability_estimates(3, 2, 2)
    assert est3["union_containment_bound"] == Fraction(4, 9)
    assert est3["union_containment_exact"] <= est3["union_containment_bound"]


def test_proof_estimates_exact_below_bound():
    for q in (2, 3, 4):
        for m in (1, 2, 3):
            for s in (m, m + 1):
                est = proof_probability_estimates(q, m, s)
                assert est["type_collision_exact"] <= est["type_collision_bound"]
                assert est["union_containment_exact"] <= est["union_containment_bound"]


def test_proof_estimates_size_guard():
    with pytest.raises(SizeLimitError):
        proof_probability_estimates(10, 8, 8)


def test_reference_asymptotics():
    ref = reference_asymptotics()
    assert abs(ref["B_lower_coeff"](2) - 2 / 3) < 1e-12
    assert abs(ref["A_lower_coeff"](3) - 0.5) < 1e-12
    assert abs(ref["ld_lower_coeff"](2, 1) - 0.5) < 1e-12


def test_bound_report_json():
    rep = lower_bound_LD(2, 1, 3)
    d = rep.to_dict()
    assert d["witness"] == 3
    assert d["exact"] == "5/9"
    assert not d["params"]["at_cap"]
