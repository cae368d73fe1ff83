"""Rate and capacity bound calculators.

All values are in nats. The list-decoding lower bound keeps its probability
term in exact rational arithmetic end-to-end (the inner alternating sum
cancels badly in floats); the logarithm is taken only at the final step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, log
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .core import Distribution, InvalidParametersError, SizeLimitError, compositions
from .channels import ChannelSpec, _check_shape, _state_laws, _weight, output_law
from .construct import k_factor

LD_WORK_GUARD = 10 ** 10  # work units (see _P_term_work) lower_bound_LD may spend, ~10 s
QPRIME_MAX = 64  # the largest auxiliary alphabet size q' lower_bound_LD tries by default
# work units capacity_entropy_bound may spend: q^3 per step of its SLSQP polish, where
# one runs, plus 10 (s + 1) per composition of weight <= s, times q; a unit is
# 0.002-0.14 us on a Xeon core under CPython 3.11 (at most 0.45 s)
ENTROPY_WORK_GUARD = 6 * 10 ** 6
_CLIMB_STEPS = 60  # most steps of the entropy bound's ascent (see _climb)
_SETTLED = 1e-6  # the stationarity gap (nats) of a settled start
_FTOL = 1e-12  # SLSQP's ftol for the entropy bound's polish


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its parameters and optimizer witness."""

    name: str
    value: float
    params: dict
    witness: Optional[object] = None
    exact: Optional[Fraction] = None
    approximate: bool = False

    def to_dict(self) -> dict:
        d = {"name": self.name, "value": self.value, "params": dict(self.params)}
        if self.witness is not None:
            w = self.witness
            if isinstance(w, Distribution):
                w = [float(x) for x in w.probs]
            d["witness"] = w
        if self.exact is not None:
            try:
                d["exact"] = f"{self.exact.numerator}/{self.exact.denominator}"
            except ValueError:  # the interpreter's limit on int-to-str digits
                digits = int(math.log10(self.exact.denominator)) + 1
                raise SizeLimitError(f"exact value too large to print: its denominator has "
                                     f"{digits} decimal digits") from None
        if self.approximate:
            d["approximate"] = True
        return d


def multinomial(s: int, counts) -> int:
    num = factorial(s)
    for c in counts:
        num //= factorial(c)
    return num


def entropy_output(channel: ChannelSpec, p: Distribution) -> float:
    """Shannon entropy (nats) of the channel output for i.i.d. inputs ~ p."""
    if p.q != channel.q:
        raise InvalidParametersError(f"distribution over {p.q} symbols, channel q={channel.q}")
    law = output_law(channel, p.as_floats())
    law = law[law > 0]
    return max(0.0, -float(law @ np.log(law)))  # 0.0 first: a point law gives -0.0


def _neg_entropy(x: np.ndarray, channel: ChannelSpec):
    """-H(output) at p = x+ / sum(x+) (x+ = max(x, 0)), x one point (q,) or a
    (K, q) batch of them, and its gradient in x.

    The output law is homogeneous of degree s in p and symmetric, so
    dP(z)/dp_a = s * sum_state L(state) [trans[state, a] = z], L being the
    state law after s-1 inputs, on the weight-(s-1) states, whose rows are
    output ids; hence dH/dp_a = -s * sum_state L(state) (1 + log
    P(trans[state, a])). An output of probability 0 that symbol a can reach
    (then p_a = 0) has slope +inf into p_a > 0; its log is taken as log of
    the smallest normal float, so the gradient stays finite, still points
    inward, and the value, where 0 log 0 = 0, is unchanged."""
    q, s = channel.q, channel.s
    rows = np.clip(x, 0.0, None).reshape(-1, q)
    total = rows.sum(1, keepdims=True)
    p = rows / np.where(total > 0, total, 1.0)
    *_, before, law = _state_laws(channel, p)
    last = _weight(q, s - 1)
    log = np.log(np.maximum(law, np.finfo(float).tiny))
    dh = -s * (1.0 + np.einsum("rs,rsa->ra", before[:, last], log[:, channel.trans[last]]))
    # through p = x+ / total; a clipped x_a < 0 and an all-zero row have slope 0
    grad = ((p * dh).sum(1, keepdims=True) - dh) * (x >= 0) / np.where(total > 0, total, np.inf)
    value = (law * log).sum(1)
    return (float(value[0]), grad[0]) if np.ndim(x) == 1 else (value, grad)


def _climb(channel: ChannelSpec, p: np.ndarray) -> np.ndarray:
    """Exponentiated-gradient ascent of H from every row of p at once, in place: a
    row steps to p * exp(eta dH/dp), renormalised, and stops once its gap max_a
    dH/dp_a - p . dH/dp is below _SETTLED. Returns the best end, the argmin of -H."""
    value, grad = _neg_entropy(p, channel)
    eta = np.ones(len(p))
    active = np.arange(len(p))
    for _ in range(_CLIMB_STEPS):
        active = active[-grad[active].min(1) >= _SETTLED]
        if not active.size:
            break
        z = -eta[active, None] * grad[active]
        trial = p[active] * np.exp(z - z.max(1, keepdims=True))
        trial /= trial.sum(1, keepdims=True)
        v, g = _neg_entropy(trial, channel)
        up = v < value[active]
        eta[active] *= np.where(up, 1.5, 0.5)  # by 2, eta swings: 300-600 steps, not 20-50
        gained = active[up]
        p[gained], value[gained], grad[gained] = trial[up], v[up], g[up]
    return p[value.argmin()]


def _stops_at_start(x: np.ndarray, channel: ChannelSpec) -> bool:
    """Whether SLSQP on -H, started at the law x, would stop there at its first
    iterate. With B = I its step is d = y - x, y the projection of x - g onto
    the simplex (g the gradient), found exactly from the sorted x - g, and its
    multiplier r the shift onto it; SLSQP stops when |g.d| + |r c| and |c|,
    c = sum x - 1, are below ftol, here tested with a 10x margin."""
    g = _neg_entropy(x, channel)[1]
    v = x - g
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0  # of the k + 1 largest entries over 1
    k = np.flatnonzero(u - excess / np.arange(1, len(u) + 1) > 0)[-1]
    r = -excess[k] / (k + 1)
    d = np.maximum(v + r, 0.0) - x
    c = x.sum() - 1.0
    return abs(g @ d) + abs(r * c) < _FTOL / 10 and abs(c) < _FTOL / 10


def capacity_entropy_bound(channel: ChannelSpec) -> BoundReport:
    """Entropy upper bound on the rate: max_p H(output) / s. The uniform law and
    the 16 Dirichlet draws of numpy's ``default_rng(0)`` climb as one batch
    (``_climb``); SLSQP, with the exact gradient of H, polishes the best end
    unless it would stop there at once (``_stops_at_start``), and
    ``entropy_output`` re-evaluates the result. Approximate when SLSQP did not
    succeed."""
    q = channel.q
    work = q ** 3 + 10 * (channel.s + 1) * comb(q + channel.s, channel.s) * q
    if work > ENTROPY_WORK_GUARD:
        raise SizeLimitError(f"instance too large: the entropy bound's {work} work units "
                             f"exceed the guard of {ENTROPY_WORK_GUARD} work units "
                             f"(s={channel.s}, q={q})")
    rng = np.random.default_rng(0)
    starts = np.vstack([np.full(q, 1.0 / q)] + [rng.dirichlet(np.ones(q)) for _ in range(16)])
    x, success = _climb(channel, starts), True
    if not _stops_at_start(x, channel):
        constraints = [{"type": "eq", "fun": lambda x: x.sum() - 1.0, "jac": lambda x: np.ones(q)}]
        res = minimize(_neg_entropy, x, args=(channel,), jac=True,
                       method="SLSQP", bounds=[(0.0, 1.0)] * q, constraints=constraints,
                       options={"maxiter": 500, "ftol": _FTOL})
        x, success = np.clip(res.x, 0.0, None), res.success
    p = Distribution(tuple(float(v) for v in x / x.sum()))
    return BoundReport(
        name="entropy-capacity",
        value=entropy_output(channel, p) / channel.s,
        params={"channel": channel.name(), "s": channel.s, "q": channel.q},
        witness=p,
        approximate=not success,
    )


def capacity_B_closed_form(s: int, q: int) -> float:
    """Closed-form capacity for the compositional channel: the output-entropy
    maximum is attained at the uniform input distribution. The (s, q) that
    the B channel's kernel refuses is refused too."""
    if s < 1 or q < 2:
        raise InvalidParametersError(f"need s >= 1, q >= 2, got s={s}, q={q}")
    _check_shape(q, s)
    total = 0.0
    qs = q ** s
    for comp in compositions(s, q):
        mult = multinomial(s, comp)
        total += (mult / qs) * log(qs / mult)
    return total / s


def comb_upper_bound(s: int, q: int) -> float:
    """Combinatorial upper bound on the separable-code rate for any
    symmetric channel (via the bipartite split-graph girth argument)."""
    if s < 2 or q < 2:
        raise InvalidParametersError(f"need s >= 2, q >= 2, got s={s}, q={q}")
    if s % 2 == 1:
        coef = Fraction(s + 1, 2 * s)
    else:
        coef = Fraction(s + 2, 2 * (s + 1))
    return float(coef) * log(q)


def P_term(q: int, s: int, L: int) -> Fraction:
    """Exact probability that L uniform symbols all lie in the support of
    s uniform symbols, via the inclusion-exclusion closed form
    sum_m C(q,m) m^L sum_k (-1)^k C(m,k) (m-k)^s / q^(s+L)."""
    if q < 2 or s < 1 or L < 1:
        raise InvalidParametersError(f"need q >= 2, s >= 1, L >= 1, got {(q, s, L)}")
    return Fraction(_hits(q, s, L), q ** (s + L))


def _hits(q: int, s: int, L: int) -> int:
    """P_term's numerator over q^(s+L), unreduced."""
    return sum(comb(q, m) * m ** L * _onto(s, m) for m in range(1, min(q, s) + 1))


@lru_cache(maxsize=2 ** 12)
def _onto(s: int, m: int) -> int:
    """The maps of s inputs onto m symbols, sum_k (-1)^k C(m,k) (m-k)^s:
    P_term's inner sum, which depends on neither q nor L."""
    return sum((-1) ** k * comb(m, k) * (m - k) ** s for k in range(m + 1))


def _P_term_work(q: int, s: int, L: int) -> int:
    """Work units of P_term(q, s, L), weighed by the size of its integers in
    30-bit digits: min(q, s)^2 terms, each 1000 units plus 2 n^1.5 for its
    power (m-k)^s of n digits, and n^2 / 2 for the gcd of the q^(s+L)
    denominator of n digits. A unit is about 1 ns on a Xeon core under
    CPython 3.11. Integer arithmetic, so no s or L overflows it."""
    m = min(q, s)
    power = s * (m - 1).bit_length() // 30  # (m - 1).bit_length() = ceil(log2 m)
    denominator = (s + L) * (q - 1).bit_length() // 30
    return m * m * (1000 + 2 * power * math.isqrt(power)) + denominator ** 2 // 2


def check_ld_work(rows, qprime_max: int) -> None:
    """Refuse lower_bound_LD on the (s, L, q) rows with q' up to qprime_max
    when their P_term work would exceed LD_WORK_GUARD units."""
    work = 0
    for s, L, q in rows:
        for qp in range(q, min(qprime_max, s) + 1):
            work += _P_term_work(qp, s, L)
            if work > LD_WORK_GUARD:
                break
        else:  # past q' = s only the denominator grows: charge those q' as qprime_max
            work += max(0, qprime_max - max(q, s + 1) + 1) * _P_term_work(qprime_max, s, L)
        if work > LD_WORK_GUARD:
            raise SizeLimitError(f"instance too large: the P_term work for q' up to {qprime_max} "
                                 f"exceeds the guard of {LD_WORK_GUARD} work units at "
                                 f"(s, L, q) = {(s, L, q)}")


def lower_bound_LD(s: int, L: int, q: int, qprime_max: int = QPRIME_MAX) -> BoundReport:
    """Random-coding lower bound on the list-decoding rate, maximized over
    the auxiliary alphabet size q'. Ties break toward the smallest q'."""
    return lower_bound_LD_rows([(s, L, q)], qprime_max)[0]


def lower_bound_LD_rows(rows, qprime_max: int = QPRIME_MAX) -> list:
    """lower_bound_LD of each (s, L, q) row, their work checked together before
    the first: rows that share (s, L) share the P_term of each q'."""
    for s, L, q in rows:
        if s < 2 or L < 1 or q < 2:
            raise InvalidParametersError(f"need s >= 2, L >= 1, q >= 2, got {(s, L, q)}")
        if qprime_max < q:
            raise InvalidParametersError(f"empty search range: qprime_max={qprime_max} < q={q}")
    check_ld_work(rows, qprime_max)
    logs, reports = {}, []  # logs[s, L, q'] = log(1 / P_term(q', s, L))
    for s, L, q in rows:
        best_val, best_qp = -math.inf, None
        for qp in range(q, qprime_max + 1):
            if (s, L, qp) not in logs:  # P_term(qp, s, L), reduced by one gcd
                hits, total = _hits(qp, s, L), qp ** (s + L)
                g = math.gcd(hits, total)
                logs[s, L, qp] = log(total // g) - log(hits // g)
            val = logs[s, L, qp] / ((s + L - 1) * k_factor(q, qp))
            if val > best_val + 1e-15:
                best_val, best_qp = val, qp
        params = {"s": s, "L": L, "q": q, "qprime_max": qprime_max, "at_cap": best_qp == qprime_max}
        reports.append(BoundReport("ld-lower", best_val, params, best_qp, P_term(best_qp, s, L)))
    return reports


def upper_bound_LD(s: int, L: int, q: int) -> float:
    """Combinatorial upper bound on the list-decoding rate."""
    if s < 2 or L < 1 or q < 2:
        raise InvalidParametersError(f"need s >= 2, L >= 1, q >= 2, got {(s, L, q)}")
    return (L / (s + L - 1)) * log(q)


def upper_bound_A(s: int, q: int) -> float:
    """Upper bound on the separable-code rate for the union channel,
    (2/s) ln q, equal to the (s-1, 2) list-decoding upper bound."""
    if s < 2 or q < 2:
        raise InvalidParametersError(f"need s >= 2, q >= 2, got s={s}, q={q}")
    return (2 / s) * log(q)

