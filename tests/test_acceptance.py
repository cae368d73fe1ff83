"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
(where applicable) runtime budget, and prints a single PASS line on success.
"""

import itertools
import json
import math
import random
import time

import pytest

from reference import (
    P_term_enumerate,
    canonical_tau,
    count_L_rare,
    eval_H,
    eval_I,
    split_graph_girth_check,
)
from sepmac import bounds as bnd
from sepmac import cli
from sepmac.channels import make_channel
from sepmac.construct import EnsembleSpec, max_code_search, random_code, reduce_alphabet
from sepmac.core import Code
from sepmac.exponent import exponent
from sepmac.verify import (
    is_at_most_s_separable,
    is_frameproof,
    is_hash,
    is_list_decoding,
    is_separable,
)

# best-known list-decoding rate lower bounds computable by the exact
# rational formula, with the maximizing auxiliary alphabet size
LD_TABLE = {
    (2, 1, 2): (0.1438, 2),
    (2, 1, 3): (0.2939, 3),
    (3, 1, 3): (0.1171, 3),
    (4, 1, 3): (0.0551, 8),
    (5, 1, 3): (0.0360, 8),
    (6, 1, 3): (0.0253, 10),
    (2, 2, 3): (0.3662, 3),
    (3, 2, 3): (0.1583, 3),
    (4, 2, 3): (0.0864, 8),
    (5, 2, 3): (0.0585, 10),
    (6, 2, 3): (0.0425, 10),
}


def test_ld_lower_bound_table(capsys):
    started = time.monotonic()
    rc = cli.main(["table1"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - started
    assert rc == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        s, L, q, lo, arg, up = line.split(",")
        rows[(int(s), int(L), int(q))] = (float(lo), int(arg), float(up))
    for key, (val, qp) in LD_TABLE.items():
        lo, arg, up = rows[key]
        assert abs(lo - val) <= 0.0001, (key, lo, val)
        assert arg == qp, (key, arg, qp)
        assert lo <= up + 1e-9
    assert elapsed < 60.0
    print(f"PASS rate-table reproduction ({len(LD_TABLE)} entries, {elapsed:.1f}s)")


def test_surjection_probability_oracle():
    started = time.monotonic()
    checked = 0
    for q in range(2, 6):
        for s in range(1, 5):
            for L in range(1, 4):
                assert bnd.P_term(q, s, L) == P_term_enumerate(q, s, L), (q, s, L)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"PASS exact probability oracle ({checked} cases, {elapsed:.1f}s)")


def test_disjunctive_capacity_witness():
    for s in range(2, 7):
        ch = make_channel("disj", s, 2)
        rep = bnd.capacity_entropy_bound(ch)
        assert abs(rep.value - math.log(2) / s) <= 1e-6, (s, rep.value)
        assert abs(rep.witness.probs[0] - 2 ** (-1 / s)) <= 1e-4, (s, rep.witness)
    print("PASS disjunctive capacity ln2/s with maximizer witness, s = 2..6")


def test_composition_capacity_consistency():
    for s in range(1, 6):
        for q in range(2, 6):
            ch = make_channel("B", s, q)
            cf = bnd.capacity_B_closed_form(s, q)
            he = bnd.entropy_output(ch, bnd.Distribution.uniform(q)) / s
            assert abs(cf - he) <= 1e-12, (s, q, cf, he)
            num = bnd.capacity_entropy_bound(ch).value
            assert abs(num - cf) <= 1e-6, (s, q, num, cf)
    print("PASS composition-channel capacity closed form vs entropy maximizer")


def _sweep_codes(n):
    """Deterministic parameter sweep of seeded random codes."""
    for i in range(n):
        rng = random.Random(1000 + i)
        q = rng.choice((2, 3))
        s = rng.choice((2, 3))
        N = rng.randint(2, 6)
        t = rng.randint(s + 1, 8)
        spec = EnsembleSpec("cr", q, N, t, p=tuple(1.0 / q for _ in range(q)), seed=i)
        yield random_code(spec), s


def test_implication_property_suite():
    fired = {"le_sep": 0, "hash": 0, "sep_a": 0, "sep_b": 0}
    violations = []
    count = 0
    for code, s in _sweep_codes(1000):
        count += 1
        q, N, t = code.q, code.N, code.t
        a_ch = make_channel("A", s, q)
        b_ch = make_channel("B", s, q)

        if is_at_most_s_separable(code, s).holds:
            fired["le_sep"] += 1
            if not is_separable(code, s, a_ch).holds:
                violations.append(("le_sep->sep_a", s, code))
            if not is_frameproof(code, s - 1).holds:
                violations.append(("le_sep->frameproof", s, code))

        if q >= s and is_hash(code, s).holds:
            fired["hash"] += 1
            if not is_frameproof(code, s - 1).holds:
                violations.append(("hash->frameproof", s, code))

        if is_separable(code, s, a_ch).holds:
            fired["sep_a"] += 1
            if not is_list_decoding(code, s - 1, 2).holds:
                violations.append(("sep_a->list", s, code))

        if is_separable(code, s, b_ch).holds:
            fired["sep_b"] += 1
            # a length-2l cycle only forces a collision when there are
            # s - l codewords left to pad with, i.e. l <= t - s
            s_eff = min(s, t - s)
            if s_eff >= 1 and not split_graph_girth_check(code, s_eff, N // 2).holds:
                violations.append(("sep_b->girth", s, code))

        for L in (1, 2):
            r, _ = count_L_rare(code, L)
            if r > N * L * q ** L:
                violations.append(("rare_bound", L, code))

    assert count == 1000
    assert not violations, violations[:3]
    assert all(v > 0 for v in fired.values()), fired
    print(f"PASS implication suite on 1000 codes, antecedent counts {fired}")


def test_alphabet_reduction_preserves_list_decoding():
    verified = 0
    violations = 0
    seed = 0
    while verified < 200 and seed < 600:
        qprime = 3 + seed % 3
        spec = EnsembleSpec("cr", qprime, 3, 4,
                            p=tuple(1.0 / qprime for _ in range(qprime)), seed=seed)
        code = random_code(spec)
        for (s, L) in ((2, 1), (2, 2)):
            if not is_list_decoding(code, s, L).holds:
                continue
            verified += 1
            for q in range(2, qprime):
                if not is_list_decoding(reduce_alphabet(code, q), s, L).holds:
                    violations += 1
        seed += 1
    assert verified >= 200
    assert violations == 0
    print(f"PASS alphabet reduction preserved list decoding on {verified} codes")


def test_exhaustive_search_ground_truth():
    started = time.monotonic()
    disj = make_channel("disj", 2, 2)
    expected_disj = {1: 2, 2: 3, 3: 4, 4: 5}
    for N, t_star in expected_disj.items():
        res = max_code_search(disj, N)
        assert res.t_star == t_star, (N, res.t_star)
        if res.t_star > 2:
            assert is_separable(res.code, 2, disj).holds

    b_ch = make_channel("B", 2, 2)
    res = max_code_search(b_ch, 2)
    assert res.t_star == 3
    assert is_separable(res.code, 2, b_ch).holds
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"PASS exhaustive search fixtures ({elapsed:.1f}s)")


def _random_distribution(rng, q):
    raw = [rng.random() + 0.05 for _ in range(q)]
    total = sum(raw)
    return bnd.Distribution(tuple(x / total for x in raw))


def test_exponent_identities():
    channels = [
        make_channel("A", 2, 2), make_channel("A", 3, 3),
        make_channel("B", 2, 3), make_channel("B", 3, 2),
        make_channel("eras", 3, 3),
        make_channel("disj", 3, 2), make_channel("thr:2", 3, 2),
    ]
    for ch in channels:
        rng = random.Random(f"{ch.name().partition(':')[0]}-{ch.s}-{ch.q}")
        for _ in range(50):
            p = _random_distribution(rng, ch.q)
            tau = canonical_tau(p, ch)
            assert abs(eval_H(p, tau, ch)) <= 1e-10
            assert abs(eval_I(p, tau, ch.s) - bnd.entropy_output(ch, p)) <= 1e-10

    ch = make_channel("B", 2, 2)
    unif = bnd.Distribution.uniform(2)
    cap = bnd.entropy_output(ch, unif) / 2
    grid = [cap * i / 19 for i in range(20)]
    prev = math.inf
    for cr, fc in zip(exponent(ch, unif, grid, ensemble="cr"),
                      exponent(ch, unif, grid, ensemble="fc")):
        R, e_cr, e_fc = cr.R, cr.value, fc.value
        assert e_cr <= e_fc + 1e-6, (R, e_cr, e_fc)
        assert e_cr <= prev + 1e-6, (R, e_cr, prev)
        prev = e_cr
    assert prev <= 1e-5  # E vanishes at R = H/s
    print("PASS exponent identities, ensemble ordering, monotonicity, zero at H/s")
