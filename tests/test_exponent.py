import itertools
import math
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import reference as ref
from reference import canonical_tau, eval_H, eval_I, tau_star
from sepmac import exponent as expm
from sepmac.core import InvalidParametersError, SizeLimitError
from sepmac.channels import make_channel, output_ids
from sepmac.bounds import Distribution, capacity_B_closed_form, entropy_output
from sepmac.exponent import ExponentReport, exponent, rate_lower_bound_general

B22 = make_channel("B", 2, 2)
DISJ2 = make_channel("disj", 2, 2)
UNIF2 = Distribution.uniform(2)


def test_canonical_tau_sums_to_one():
    for name in ("A", "B", "eras", "disj"):
        q = 3 if name == "eras" else 2
        ch = make_channel(name, 2, q)
        tau = canonical_tau(Distribution.uniform(q), ch)
        assert abs(sum(tau.values()) - 1.0) < 1e-12


def test_canonical_identities():
    # H vanishes at the canonical point; I_s there equals the output entropy
    for name in ("B", "disj", "A"):
        ch = make_channel(name, 2, 2)
        for p in (UNIF2, Distribution((0.7, 0.3))):
            tau = canonical_tau(p, ch)
            assert abs(eval_H(p, tau, ch)) < 1e-12
            assert abs(eval_I(p, tau, 2) - entropy_output(ch, p)) < 1e-10


def test_eval_H_off_support_is_infinite():
    tau = canonical_tau(UNIF2, B22)
    wrong_out = next(z for (w, z) in tau if w == (0, 0))
    bad = dict(tau)
    bad[((0, 1), wrong_out)] = bad.pop(((0, 1), next(
        z for (w, z) in tau if w == (0, 1))))
    assert eval_H(UNIF2, bad, B22) == math.inf


def test_eval_H_vanishing_input_law():
    p = Distribution((1.0, 0.0))
    tau = canonical_tau(UNIF2, B22)
    assert eval_H(p, tau, B22) == math.inf


def test_eval_I_bounds_check():
    tau = canonical_tau(UNIF2, B22)
    with pytest.raises(InvalidParametersError):
        eval_I(UNIF2, tau, 0)
    with pytest.raises(InvalidParametersError):
        eval_I(UNIF2, tau, 3)


def test_eval_I_nonnegative_at_canonical():
    for name in ("A", "B", "disj"):
        ch = make_channel(name, 3, 2)
        for pr in ((0.5, 0.5), (0.8, 0.2)):
            tau = canonical_tau(Distribution(pr), ch)
            for m in (1, 2, 3):
                assert eval_I(Distribution(pr), tau, m) > -1e-12


def test_exponent_zero_at_capacity_rate():
    cap = capacity_B_closed_form(2, 2)
    rep, = exponent(B22, UNIF2, [cap])
    assert rep.value < 1e-5
    assert rep.value >= 0.0


def test_exponent_positive_at_zero_rate():
    # hand check: on the output-determined support of this channel, I_1 is
    # constant ln 2, and min (H + I_2) = ln(8/3) > ln 2, so E(0) = ln 2
    rep, = exponent(B22, UNIF2, [0.0])
    assert abs(rep.value - math.log(2)) < 1e-4
    assert rep.ensemble == "cr"
    assert 1 <= rep.m_star <= 2


def test_exponent_monotone_in_rate():
    values = [rep.value for rep in exponent(B22, UNIF2, (0.0, 0.1, 0.2, 0.3, 0.5))]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-6
    assert all(v >= 0 for v in values)


def test_fc_dominates_cr():
    rates = (0.0, 0.1, 0.2)
    for cr, fc in zip(exponent(B22, UNIF2, rates, ensemble="cr"),
                      exponent(B22, UNIF2, rates, ensemble="fc")):
        assert fc.value >= cr.value - 1e-6


def test_fc_at_zero_rate_b_mac():
    # the marginal constraints are inactive at the zero-rate optimum here,
    # so the fixed-composition value coincides with the i.i.d. one
    rep, = exponent(B22, UNIF2, [0.0], ensemble="fc")
    assert abs(rep.value - math.log(2)) < 1e-4


def test_exponent_param_checks():
    for R in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidParametersError):
            exponent(B22, UNIF2, [0.1, R])
    with pytest.raises(InvalidParametersError):
        exponent(B22, UNIF2, [0.1], ensemble="xx")
    # s*q^s = 229,376 and 139,968 word-table cells, past WORD_GUARD
    big = make_channel("disj", 14, 2)
    with pytest.raises(SizeLimitError):
        exponent(big, UNIF2, [0.1])
    bigq = make_channel("B", 3, 36)
    with pytest.raises(SizeLimitError):
        exponent(bigq, Distribution.uniform(36), [0.1])


def test_split_peak_memory():
    # 6,561 words in as many groups at m = 1: a (groups x words) matrix
    # would hold 43 million cells
    ch, p = make_channel("B", 8, 3), Distribution.uniform(3)
    tracemalloc.start()
    try:
        rep, = exponent(ch, p, [0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.value > 0
    assert peak <= 16 * 2 ** 20, peak


def test_stacked_splits_peak_memory():
    # 8,192 words of 13 symbols: a block of all 13 splits would hold 106,496
    # rows (26.8 MB traced); one split a block keeps the peak near 10 MB
    ch, p = make_channel("disj", 13, 2), Distribution.uniform(2)
    tracemalloc.start()
    try:
        reps = exponent(ch, p, [0.0, 0.05, 0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps[0].value > 0
    assert peak <= 16 * 2 ** 20, peak


def test_rate_lower_bound_below_capacity():
    lb = rate_lower_bound_general(B22, UNIF2)
    cap = capacity_B_closed_form(2, 2)
    assert 0 < lb <= cap + 1e-9
    # m = 1 gives ln(2)/2, m = 2 gives ln(8/3)/3, which is smaller
    assert abs(lb - math.log(8 / 3) / 3) < 1e-4


def test_rate_lower_bound_disjunctive():
    lb = rate_lower_bound_general(DISJ2, Distribution((2 ** -0.5, 1 - 2 ** -0.5)))
    assert 0 < lb <= math.log(2) / 2 + 1e-9


def test_report_json():
    rep, = exponent(B22, UNIF2, [0.1])
    d = rep.to_dict()
    assert set(d) == {"value", "ensemble", "R", "m_star", "converged"}
    assert d["ensemble"] == "cr"


ERAS3 = make_channel("eras", 3, 3)


@pytest.mark.parametrize("ensemble", ["cr", "fc"])
@pytest.mark.parametrize("R, m_star", [(0.25, 3), (0.3, 2), (0.5, 1)])
def test_m_star_same_under_symbol_permutations(ensemble, R, m_star):
    # eras is invariant under symbol permutations, so each E_m(R) is too up
    # to rounding; where splits tie at 0 the least of them moved with the
    # order of the symbols (m* 1 for (0.4, 0.6, 0) and 2 for (0.6, 0.4, 0) at
    # R = 0.5) until m* became the smallest m within M_STAR_TIE of the least
    for probs in itertools.permutations((0.6, 0.4, 0.0)):
        rep, = exponent(ERAS3, Distribution(probs), [R], ensemble)
        assert (rep.m_star, rep.value) == (m_star, 0.0), probs


def test_m_star_is_the_smallest_tying_split():
    # at uniform p and R = 0.2, E_1 = 6.0e-4 while E_2 = +2.2e-16 and
    # E_3 = -2.8e-16 tie at 0: the least is E_3, m* the smaller m = 2
    rep, = exponent(ERAS3, Distribution.uniform(3), [0.2])
    assert (rep.m_star, rep.value) == (2, 0.0)


@pytest.mark.parametrize("values, m_star", [
    ((0.0, -0.8e-12, -1.6e-12), 2),  # m = 1 is within the tie of m = 2 but not of the least
    ((1e-13, 0.0, 5e-13), 1),
    ((2e-12, 0.0, 0.0), 2),
    ((0.0, -2e-12, -1.5e-12), 2),
])
def test_m_star_tie_rule(monkeypatch, values, m_star):
    # each split's E_m(R) replaced: m* is the smallest m within M_STAR_TIE of
    # the least, and the value printed is the least, clamped at 0
    maximize = expm._Block.maximize

    def shifted(self, rates, ensemble):
        return [[(values[m - 1], pt) for _, pt in col]
                for m, col in zip(self.ms, maximize(self, rates, ensemble))]

    monkeypatch.setattr(expm._Block, "maximize", shifted)
    rep, = exponent(ERAS3, Distribution.uniform(3), [0.5])
    assert (rep.m_star, rep.value) == (m_star, 0.0)


# values of the multi-start polytope solver this dual replaced
@pytest.mark.parametrize("name, s, q, probs, R, cr, fc", [
    ("disj", 2, 2, (0.7, 0.3), 0.1, 0.248140041, 0.318005933),
    ("thr:2", 3, 2, (0.6, 0.4), 0.05, 0.211884380, 0.217829760),
    ("A", 2, 3, (0.5, 0.3, 0.2), 0.2, 0.767584026, 0.829653014),
])
def test_dual_matches_polytope_values(name, s, q, probs, R, cr, fc):
    ch, p = make_channel(name, s, q), Distribution(probs)
    for ensemble, want in (("cr", cr), ("fc", fc)):
        rep, = exponent(ch, p, [R], ensemble=ensemble)
        assert abs(rep.value - want) <= 1e-7, (ensemble, rep.value)
        assert rep.converged and abs(rep.gap) <= 1e-7


def test_rate_lower_bound_values():
    lb = rate_lower_bound_general(make_channel("disj", 3, 2), Distribution((0.7, 0.3)))
    assert abs(lb - 0.0768066534) <= 1e-7
    lb = rate_lower_bound_general(make_channel("A", 2, 3), Distribution((0.5, 0.3, 0.2)),
                                  ensemble="fc")
    assert abs(lb - 0.5148265070) <= 1e-7


def test_zero_probability_symbol():
    ch, p = make_channel("B", 2, 3), Distribution((0.6, 0.4, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cr, = exponent(ch, p, [0.1], ensemble="cr")
        fc, = exponent(ch, p, [0.1], ensemble="fc")
    assert abs(fc.value - 0.573011667) <= 1e-7
    # the polytope solver reported 0.553927158 here, unconverged
    assert 0.553927158 - 1e-6 <= cr.value <= 0.553927158
    assert cr.converged and fc.converged


def test_degenerate_input_gives_positive_zero():
    p = Distribution((1, 0))
    for value in (exponent(B22, p, [0.1])[0].value, rate_lower_bound_general(B22, p)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_negative_zero_rate_reports_positive_zero():
    rep, = exponent(B22, UNIF2, [-0.0])
    assert rep.R == 0.0 and math.copysign(1.0, rep.R) == 1.0
    assert rep.value == exponent(B22, UNIF2, [0.0])[0].value


def test_exponent_q_mismatch():
    with pytest.raises(InvalidParametersError):
        exponent(make_channel("B", 2, 3), UNIF2, [0.1])
    with pytest.raises(InvalidParametersError):
        rate_lower_bound_general(B22, Distribution.uniform(3))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("A", 3, 2), ("B", 2, 2), ("B", 2, 3), ("eras", 2, 3),
                        ("eras", 3, 2), ("disj", 3, 2), ("thr:2", 3, 2)]),
       st.lists(st.integers(0, 20), min_size=3, max_size=3).filter(lambda w: w[0] + w[1] > 0),
       st.floats(0.0, 1.2),
       st.lists(st.floats(0.01, 1.0), min_size=9, max_size=9))
def test_dual_certificate(channel, raw, R, weights):
    ch = make_channel(*channel)
    p = Distribution(tuple(w / sum(raw[:ch.q]) for w in raw[:ch.q]))
    cr, = exponent(ch, p, [R], ensemble="cr")
    fc, = exponent(ch, p, [R], ensemble="fc")
    # weak duality: the dual value is below the primal at any tau on the support
    words = list(canonical_tau(p, ch))
    total = sum(weights[:len(words)])
    tau = {k: w / total for k, w in zip(words, weights)}
    for m in range(1, ch.s + 1):
        assert cr.value <= eval_H(p, tau, ch) + max(eval_I(p, tau, m) - m * R, 0.0) + 1e-12
    for rep in (cr, fc):
        tau = tau_star(ch, rep)
        primal = eval_H(p, tau, ch) + max(eval_I(p, tau, rep.m_star) - rep.m_star * R, 0.0)
        assert abs(primal - rep.value) <= 1e-7
    assert cr.value <= fc.value + 1e-9


@pytest.mark.parametrize("name,s,q", [("A", 3, 2), ("B", 2, 3), ("eras", 2, 3),
                                      ("thr:2", 3, 2), ("B", 3, 8)])
def test_report_holds_split_arrays(name, s, q):
    # tau* as the solved split's arrays: a law on the words, each with its output id
    ch = make_channel(name, s, q)
    for p in (Distribution.uniform(q), Distribution((0.0,) + (1 / (q - 1),) * (q - 1))):
        for ensemble in ("cr", "fc"):
            for rep in exponent(ch, p, [0.0, 0.2, 0.6], ensemble):
                assert rep.words.shape == (len(rep.tau), s) and len(rep.ids) == len(rep.tau)
                assert np.array_equal(rep.ids, output_ids(ch, rep.words.T))
                assert (rep.tau >= 0).all() and abs(rep.tau.sum() - 1.0) <= 1e-12


RATES = (0.0, 0.1, 0.2, 0.3)


def _count_minimize(monkeypatch):
    """The iteration count of each scipy minimize call the exponent makes."""
    nits, real = [], expm.minimize

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        nits.append(res.nit)
        return res
    monkeypatch.setattr(expm, "minimize", counting)
    return nits


@pytest.mark.parametrize("name,s,q", [("A", 3, 2), ("B", 2, 2), ("eras", 3, 2), ("B", 3, 32)])
def test_fc_at_uniform_p_skips_lbfgsb(monkeypatch, name, s, q):
    # the channel is invariant under symbol permutations, so at uniform p the
    # cr point meets fc's marginals and passes L-BFGS-B's first test
    nits = _count_minimize(monkeypatch)
    ch, p = make_channel(name, s, q), Distribution.uniform(q)
    fc = exponent(ch, p, RATES, "fc")
    lb = rate_lower_bound_general(ch, p, "fc")
    assert nits == []
    assert [rep.value for rep in fc] == [rep.value for rep in exponent(ch, p, RATES, "cr")]
    assert lb == rate_lower_bound_general(ch, p, "cr")


@pytest.mark.parametrize("name,s,q,probs", [("B", 2, 2, (0.3, 0.7)),
                                            ("A", 3, 3, (0.2, 0.3, 0.5))])
def test_fc_off_uniform_p_runs_lbfgsb(monkeypatch, name, s, q, probs):
    # the cr point misses the marginals: L-BFGS-B iterates, and its answer
    # is the one every fc split got before the first-order test
    nits = _count_minimize(monkeypatch)
    ch, p = make_channel(name, s, q), Distribution(probs)
    got = [rep.value for rep in exponent(ch, p, RATES, "fc")]
    assert nits and min(nits) > 0
    monkeypatch.setattr(expm._Block, "maximize", ref.maximize_lbfgsb)
    assert got == [rep.value for rep in exponent(ch, p, RATES, "fc")]


@pytest.mark.parametrize("probs", [(0.3, 0.7), (0.5, 0.5)])
def test_fc_at_a_huge_rate_runs_lbfgsb(monkeypatch, probs):
    # at R = 1e308 the m = 2 split's m·R overflows, so its first-order check
    # meets a non-finite gradient and leaves the point to L-BFGS-B; the
    # exponent there is 0, converged, with no RuntimeWarning (an error here)
    checks, lbfgsb = [], []
    stops, run = expm._Block._stops_at_start, expm._Block._lbfgsb

    def check(self, m, *rest):
        checks.append((m, stops(self, m, *rest)))
        return checks[-1][1]

    def counting(self, j, *rest):
        lbfgsb.append(self.ms[j])
        return run(self, j, *rest)
    monkeypatch.setattr(expm._Block, "_stops_at_start", check)
    monkeypatch.setattr(expm._Block, "_lbfgsb", counting)
    rep, = exponent(B22, Distribution(probs), [1e308], "fc")
    assert (2, False) in checks and 2 in lbfgsb
    assert 0.0 <= rep.value <= 1e-12 and rep.converged


RATES7 = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


def _count_solves(monkeypatch):
    """(the block's splits, its lam) of each solve the exponent makes."""
    calls, real = [], expm._Block.solve

    def counting(self, lam, mu=None):
        calls.append((self.ms, float(lam)))
        return real(self, lam, mu)
    monkeypatch.setattr(expm._Block, "solve", counting)
    return calls


@pytest.mark.parametrize("ensemble", ["cr", "fc"])
def test_one_rate_is_one_stacked_solve(monkeypatch, ensemble):
    # both splits of B s=2 q=2 land at lam* = 1, where one solve finds them
    calls = _count_solves(monkeypatch)
    exponent(B22, UNIF2, [0.1], ensemble)
    assert calls == [((1, 2), 1.0)]


@pytest.mark.parametrize("name,s,q", [("A", 3, 2), ("B", 8, 3), ("disj", 3, 2)])
def test_sweep_solves_each_endpoint_once_per_block(monkeypatch, name, s, q):
    # whatever lam* each rate needs, a block's lam = 1 and lam = 0 solves are
    # made once for the whole sweep; only root finds solve one split alone
    ch, p = make_channel(name, s, q), Distribution.uniform(q)
    blocks = [block.ms for block in expm._blocks(ch, p)]
    assert min(map(len, blocks)) > 1
    calls = _count_solves(monkeypatch)
    exponent(ch, p, RATES7)
    for ms in blocks:
        lams = [lam for b, lam in calls if b == ms]
        assert lams in ([1.0], [1.0, 0.0])
    assert all(len(ms) == 1 for ms, _ in calls if ms not in blocks)
    if name == "A":  # lam* = 0 at the highest rates, and a root find below them
        assert len(calls) > 2 and calls[1] == ((1, 2, 3), 0.0)


def test_root_find_solves_as_the_reference(monkeypatch):
    # A s=3 q=2 from R = 0.15 to 0.3, where every rate root-finds on some
    # split: each split whose slope changes sign in lam makes brentq's solves
    # inside (0, 1), reading both ends from its block's solves, and one at
    # the root on its own rows (6 to 9 here), as the split-by-split reference
    # does after its own lam = 0 and lam = 1 solves and brentq's at both ends.
    # The exponent makes 11, 18, 19 and 8 solves in all (13, 22, 23 and 10
    # when brentq solved the ends again)
    ch = make_channel("A", 3, 2)
    calls = _count_solves(monkeypatch)
    for R, total in ((0.15, 11), (0.2, 18), (0.25, 19), (0.3, 8)):
        calls.clear()
        exponent(ch, UNIF2, [R])
        assert len(calls) == total
        got = {ms[0]: sum(1 for c in calls if c[0] == ms) for ms, _ in calls if len(ms) == 1}
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(expm._Block, "maximize", ref.maximize_lbfgsb)
            exponent(ch, UNIF2, [R])
        want = {ms[0]: sum(1 for c in calls if c[0] == ms) for ms, _ in calls}
        assert got and got == {m: n - 4 for m, n in want.items() if n > 2}


@pytest.mark.parametrize("tol", [None, 1e-11, 0.0])
def test_sweep_converged_is_every_report(monkeypatch, tol):
    # the default tolerance passes every certificate; 1e-11 and 0 fail some
    if tol is not None:
        monkeypatch.setattr(expm, "CERTIFICATE_TOL", tol)
    sweep = exponent(B22, Distribution((0.3, 0.7)), [0, 0.3, 1.0], "fc")
    assert sweep.converged == all(rep.converged for rep in sweep) == (tol is None)
