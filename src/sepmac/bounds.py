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
from .channels import ChannelSpec, _check_shape, _fold_index, _state_laws, output_law
from .construct import k_factor

LD_WORK_GUARD = 10 ** 10  # work units (see _P_term_work) lower_bound_LD may spend, ~10 s
QPRIME_MAX = 64  # the largest auxiliary alphabet size q' lower_bound_LD tries by default
# work units capacity_entropy_bound may spend: q^3 per step of its SLSQP polish, where
# one runs, plus 10 (s + 1) per composition of weight <= s, times q; a unit is
# at most 0.06 us on a Xeon core under CPython 3.11 (at most 0.3 s)
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


def _slope(p: np.ndarray, channel: ChannelSpec):
    """H(output) and dH/dp at each row of p, a (K, q) batch of laws.

    The output law is homogeneous of degree s in p and symmetric, so
    dP(z)/dp_a = s * sum_state L(state) [trans[state, a] = z], L being the
    state law after s-1 inputs, on the weight-(s-1) states, whose rows are
    output ids; hence dH/dp_a = -s * sum_state L(state) (1 + log
    P(trans[state, a])). The last fold's cells are those output ids, offset
    by each row's place in the batch, so one ``take`` of this batch's prefix
    of them gathers every log P(trans[state, a]). An output of probability 0
    that symbol a can reach (then p_a = 0) has slope +inf into p_a > 0; its
    log is taken as log of the smallest normal float, so the slope stays
    finite, still points inward, and the value, where 0 log 0 = 0, is
    unchanged."""
    *_, before, law = _state_laws(channel, p)
    w, _, cells = _fold_index(channel, len(p))[-1]
    log = np.log(np.maximum(law, np.finfo(float).tiny))
    last = before[:, w]
    gather = log.take(cells[:last.size * channel.q]).reshape(last.shape + (-1,))
    dh = -channel.s * (1.0 + np.einsum("rs,rsa->ra", last, gather))
    return -(law * log).sum(1), dh


def _neg_entropy(x: np.ndarray, channel: ChannelSpec):
    """-H(output) at p = x+ / sum(x+) (x+ = max(x, 0)), x one point (q,) or a
    (K, q) batch of them, and its gradient in x (see ``_slope``)."""
    rows = np.clip(x, 0.0, None).reshape(-1, channel.q)
    total = rows.sum(1, keepdims=True)
    p = rows / np.where(total > 0, total, 1.0)
    h, dh = _slope(p, channel)
    # through p = x+ / total; a clipped x_a < 0 and an all-zero row have slope 0
    grad = ((p * dh).sum(1, keepdims=True) - dh) * (x >= 0) / np.where(total > 0, total, np.inf)
    return (-float(h[0]), grad[0]) if np.ndim(x) == 1 else (-h, grad)


def _climb(channel: ChannelSpec, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponentiated-gradient ascent of H from every row of p, a (K, q) batch
    of laws, at once: a row steps to p * exp(eta dH/dp), renormalised, and
    stops once its gap max_a dH/dp_a - p . dH/dp is below _SETTLED. A trial
    that does not raise H halves eta. After a move p -> x the next eta is the
    Barzilai-Borwein step in the entropic metric, sum x u^2 / -sum x u h,
    u = log x - log p and h the change of dH/dp, both centred by their
    x-weighted means, kept within [eta/4, 4 eta]; where the curvature
    -sum x u h is not positive, 4 eta. Only the rows still climbing are
    carried: a step where some settle sets their ends aside, and a step where
    every trial rose takes the trials whole. Returns the best end, the argmax
    of H, and dH/dp there; p is not written."""
    value, grad = _slope(p, channel)
    rows, eta = np.arange(len(p)), np.ones(len(p))
    ends = np.empty(len(p)), np.empty_like(p), np.empty_like(p)  # each row's H, p, dH/dp
    for _ in range(_CLIMB_STEPS):
        live = grad.max(1) - (p * grad).sum(1) >= _SETTLED
        if not live.all():
            for end, now in zip(ends, (value, p, grad)):
                end[rows[~live]] = now[~live]
            rows, p, value, grad, eta = rows[live], p[live], value[live], grad[live], eta[live]
            if not rows.size:
                break
        z = eta[:, None] * grad
        trial = p * np.exp(z - z.max(1, keepdims=True))
        trial /= trial.sum(1, keepdims=True)
        v, g = _slope(trial, channel)
        u = z - (trial * z).sum(1, keepdims=True)  # log trial - log p, centred
        xu = trial * u
        curve = (xu * (grad - g)).sum(1)
        bb = (xu * u).sum(1) / np.where(curve > 0, curve, 1.0)
        bb = np.where(curve > 0, np.clip(bb, eta / 4, eta * 4), eta * 4)
        up = v > value
        if up.all():
            p, value, grad, eta = trial, v, g, bb
        else:
            p, grad = np.where(up[:, None], trial, p), np.where(up[:, None], g, grad)
            value, eta = np.where(up, v, value), np.where(up, bb, eta / 2)
    for end, now in zip(ends, (value, p, grad)):
        end[rows] = now
    best = ends[0].argmax()
    return ends[1][best], ends[2][best]


def _stops_at_start(x: np.ndarray, dh: np.ndarray) -> bool:
    """Whether SLSQP on -H, started at the law x where dH/dp is dh, would stop
    there at its first iterate. Its gradient g of -H is dh taken through
    p = x / sum x, as ``_neg_entropy`` takes it (dh at x rather than at p,
    which differ by rounding only). With B = I SLSQP's step is d = y - x, y
    the projection of x - g onto the simplex, found exactly from the sorted
    x - g, and its multiplier r the shift onto it; SLSQP stops when
    |g.d| + |r c| and |c|, c = sum x - 1, are below ftol, here tested with a
    10x margin."""
    total = x.sum()
    g = ((x / total * dh).sum() - dh) / total
    v = x - g
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0  # of the k + 1 largest entries over 1
    k = np.flatnonzero(u - excess / np.arange(1, len(u) + 1) > 0)[-1]
    r = -excess[k] / (k + 1)
    d = np.maximum(v + r, 0.0) - x
    c = total - 1.0
    return abs(g @ d) + abs(r * c) < _FTOL / 10 and abs(c) < _FTOL / 10


@lru_cache(maxsize=64)
def _starts(q: int) -> np.ndarray:
    """The entropy bound's 17 starts over q symbols, read-only: the uniform
    law and the 16 Dirichlet draws of numpy's ``default_rng(0)``."""
    starts = np.vstack([np.full(q, 1.0 / q), np.random.default_rng(0).dirichlet(np.ones(q), 16)])
    starts.flags.writeable = False
    return starts


def capacity_entropy_bound(channel: ChannelSpec) -> BoundReport:
    """Entropy upper bound on the rate: max_p H(output) / s. The 17 starts
    (``_starts``) climb as one batch with Barzilai-Borwein steps (``_climb``);
    SLSQP, with the exact gradient of H, polishes the best end unless it would
    stop there at once (``_stops_at_start``, from the climb's gradient), and
    ``entropy_output`` re-evaluates the result. Approximate when SLSQP did
    not succeed."""
    q = channel.q
    work = q ** 3 + 10 * (channel.s + 1) * comb(q + channel.s, channel.s) * q
    if work > ENTROPY_WORK_GUARD:
        raise SizeLimitError(f"instance too large: the entropy bound's {work} work units "
                             f"exceed the guard of {ENTROPY_WORK_GUARD} work units "
                             f"(s={channel.s}, q={q})")
    x, dh = _climb(channel, _starts(q))
    success = True
    if not _stops_at_start(x, dh):
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
    when their P_term work would exceed LD_WORK_GUARD units. Each row is
    charged every q' up to the last one its scan can reach (``_ld_last``)."""
    work = 0
    for s, L, q in rows:
        work += _ld_work(s, L, q, _ld_last(s, L, q, qprime_max), LD_WORK_GUARD - work)
        if work > LD_WORK_GUARD:
            break
    else:
        return
    raise SizeLimitError(f"instance too large: the P_term work for q' up to {qprime_max} "
                         f"exceeds the guard of {LD_WORK_GUARD} work units at "
                         f"(s, L, q) = {(s, L, q)}")


def _ld_work(s: int, L: int, q: int, top: int, budget: int) -> int:
    """The P_term work of q' = q..top on the row (s, L, q), or a part of it
    over budget once that is exceeded."""
    work = 0
    for qp in range(q, min(top, s) + 1):
        work += _P_term_work(qp, s, L)
        if work > budget:
            return work
    # past q' = s only the denominator grows: charge those q' as top
    return work + max(0, top - max(q, s + 1) + 1) * _P_term_work(top, s, L)


def _ld_last(s: int, L: int, q: int, qprime_max: int) -> int:
    """The last q' whose P_term lower_bound_LD_rows may take on the row
    (s, L, q): the one before a q* >= max(q + 1, e s) whose envelope
    U(q*) (1 + 1e-9) is below ``_ld_floor``, else qprime_max. The scan's best
    value at q*'s test is at least its value at q' = q, which is at least that
    floor, so the scan stops there. q* is found by bisection up to
    q + LD_WORK_GUARD // 1000 + 1, since a scan that reaches that q' takes
    more than LD_WORK_GUARD units anyway (each P_term takes at least 1000),
    and only where s, L and that q' are below 2^53, so that every float here
    is finite and every int converts exactly."""
    top = min(qprime_max, q + LD_WORK_GUARD // 1000 + 1)
    if max(s, L, top) >= 2 ** 53:
        return qprime_max
    v0 = _ld_floor(s, L, q)

    def stops(qp: int) -> bool:
        return _ld_envelope(s, L, q, qp) * (1 + 1e-9) < v0

    lo = max(q + 1, math.ceil(math.e * s))
    if lo > top or not stops(top):
        return qprime_max
    while lo < top:  # stops(top) holds throughout
        mid = (lo + top) // 2
        lo, top = (lo, mid) if stops(mid) else (mid + 1, top)
    return top - 1


def _ld_floor(s: int, L: int, q: int) -> float:
    """v0, a lower bound on lower_bound_LD's value at q' = q, taken before any
    P_term: P_term(q) <= E|S|/q = 1 - (1 - 1/q)^s, so that value is at least
    -ln(1 - (1 - 1/q)^s) / (s + L - 1), with equality at L = 1. Float margin:
    v0 is that bound taken a relative 1e-12 and an absolute
    2^-50 (s + L) ln q / (s + L - 1) lower, more than its own rounding and
    that of the scan's value, a difference of two logarithms of up to
    (s + L) ln q. For s, L and q below 2^53."""
    x = s * math.log1p(-1 / q)  # ln (1 - 1/q)^s
    # -ln(1 - e^x), by expm1 where e^x is near 1 and by log1p where it is small
    miss = -log(-math.expm1(x)) if x > -math.log(2) else -math.log1p(-math.exp(x))
    return (miss * (1 - 1e-12) - 2 ** -50 * (s + L) * log(q)) / (s + L - 1)


def lower_bound_LD(s: int, L: int, q: int, qprime_max: int = QPRIME_MAX) -> BoundReport:
    """Random-coding lower bound on the list-decoding rate, maximized over
    the auxiliary alphabet size q'. Ties break toward the smallest q'."""
    return lower_bound_LD_rows([(s, L, q)], qprime_max)[0]


def lower_bound_LD_rows(rows, qprime_max: int = QPRIME_MAX) -> list:
    """lower_bound_LD of each (s, L, q) row, their work checked together before
    the first: rows that share (s, L) share the P_term of each q'.

    Each row's scan over q' ends before the first q' > q with q' >= e s whose
    envelope U(q') = (q-1) L [ln(q'/s) - ln(1 - (s-1)/(2q'))] / ((s+L-1) q')
    is below the best value so far by a relative 1e-9. U bounds the value of
    every q' > q: P_term >= (E|S|/q')^L (Jensen), E|S| = q'(1 - (1-1/q')^s)
    >= s (1 - (s-1)/(2q')) (Bonferroni) and k_factor(q, q') >= q'/(q-1). It
    does not increase from q' = e s on, so no later q' can win. The cut
    changes no answer, and check_ld_work charges each row only up to a q'
    where the cut must fall."""
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
            if qp > q and qp >= math.e * s and _ld_envelope(s, L, q, qp) * (1 + 1e-9) < best_val:
                break
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


def _ld_envelope(s: int, L: int, q: int, qp: int) -> float:
    """U(q'), an upper bound on lower_bound_LD's value at any q' > q that does
    not increase from q' = e s on (see lower_bound_LD_rows)."""
    return (q - 1) * L * (log(qp / s) - math.log1p(-(s - 1) / (2 * qp))) / ((s + L - 1) * qp)


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

