import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from reference import P_term_enumerate, proof_probability_estimates, reference_asymptotics
from sepmac.core import InvalidParametersError, SizeLimitError
from sepmac.channels import make_channel
from sepmac.bounds import (
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
    upper_bound_A,
    upper_bound_LD,
)

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


def test_b_capacity_closed_form():
    assert abs(capacity_B_closed_form(1, 5) - math.log(5)) < 1e-14
    assert abs(capacity_B_closed_form(2, 2) - 0.75 * LN2) < 1e-14
    # tends to ln q from below as q grows
    r32 = capacity_B_closed_form(3, 32) / math.log(32)
    r64 = capacity_B_closed_form(3, 64) / math.log(64)
    assert r32 < r64 < 1


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
