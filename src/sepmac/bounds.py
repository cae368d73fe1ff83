"""Rate and capacity bound calculators.

All values are in nats. The list-decoding lower bound keeps its probability
term in exact rational arithmetic end-to-end (the inner alternating sum
cancels badly in floats); the logarithm is taken only at the final step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, log
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .core import InvalidParametersError, SizeLimitError, compositions
from .channels import ChannelSpec, _state_laws, output_law

LD_WORK_GUARD = 10 ** 10  # work units (see _P_term_work) lower_bound_LD may spend, ~10 s


@dataclass(frozen=True)
class Distribution:
    """A probability distribution on the alphabet A_q."""

    probs: tuple

    def __post_init__(self):
        p = self.probs
        if not all(x >= 0 for x in p):
            raise InvalidParametersError(f"negative or NaN probability in {p}")
        total = sum(p)
        if isinstance(total, Fraction):
            if total != 1:
                raise InvalidParametersError(f"probabilities sum to {total}, not 1")
        elif not abs(total - 1) <= 1e-12:
            raise InvalidParametersError(f"probabilities sum to {total}, not 1")

    @property
    def q(self) -> int:
        return len(self.probs)

    @classmethod
    def uniform(cls, q: int) -> "Distribution":
        return cls(tuple(Fraction(1, q) for _ in range(q)))

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.probs)


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


def _neg_entropy(x: np.ndarray, channel: ChannelSpec) -> tuple[float, np.ndarray]:
    """-H(output) at p = x+ / sum(x+) (x+ = max(x, 0)) and its gradient in x.

    The output law is homogeneous of degree s in p and symmetric, so
    dP(z)/dp_a = s * sum_state L(state) [out[trans[state, a]] = z], L being
    the state law after s-1 inputs; hence dH/dp_a = -s * sum_state L(state)
    (1 + log P(out[trans[state, a]])). An output of probability 0 that symbol
    a can reach (then p_a = 0) has slope +inf into p_a > 0; its log is taken
    as log of the smallest normal float, so the gradient stays finite, still
    points inward, and the value, where 0 log 0 = 0, is unchanged."""
    x_plus = np.clip(x, 0.0, None)
    total = x_plus.sum()
    if total <= 0:
        return 0.0, np.zeros_like(x)
    p = x_plus / total
    *_, before, after = _state_laws(channel, p)
    law = np.bincount(channel.out, after, len(channel.outputs))
    log = np.log(np.maximum(law, np.finfo(float).tiny))
    dh = -channel.s * (1.0 + before @ log[channel.out[channel.trans]])
    # through p = x+ / total; an x_a < 0 is clipped, so its slope is 0
    return float(law @ log), -(dh - p @ dh) / total * (x >= 0)


def capacity_entropy_bound(channel: ChannelSpec, seed: int = 0) -> BoundReport:
    """Entropy upper bound on the rate: max_p H(output) / s, by SLSQP over
    the simplex with the exact gradient of H, from the uniform law and 16
    Dirichlet starts drawn from ``seed`` (any integer; it is reduced to 64
    bits, so seeds 0 <= seed < 2^64 draw as numpy's ``default_rng(seed)``).
    Each start's end point is re-evaluated with ``entropy_output``."""
    q = channel.q
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    starts = [np.full(q, 1.0 / q)] + [rng.dirichlet(np.ones(q)) for _ in range(16)]
    hmax, pstar, converged = -math.inf, None, False
    constraints = [{"type": "eq", "fun": lambda x: x.sum() - 1.0, "jac": lambda x: np.ones(q)}]
    for x0 in starts:
        res = minimize(_neg_entropy, x0, args=(channel,), jac=True, method="SLSQP",
                       bounds=[(0.0, 1.0)] * q, constraints=constraints,
                       options={"maxiter": 500, "ftol": 1e-12})
        x = np.clip(res.x, 0.0, None)
        p = Distribution(tuple(float(v) for v in x / x.sum()))
        val = entropy_output(channel, p)
        if val > hmax:
            hmax, pstar = val, p
            converged = bool(res.success)
    return BoundReport(
        name="entropy-capacity",
        value=hmax / channel.s,
        params={"channel": channel.name(), "s": channel.s, "q": channel.q},
        witness=pstar,
        approximate=not converged,
    )


def capacity_B_closed_form(s: int, q: int) -> float:
    """Closed-form capacity for the compositional channel: the output-entropy
    maximum is attained at the uniform input distribution."""
    if s < 1 or q < 2:
        raise InvalidParametersError(f"need s >= 1, q >= 2, got s={s}, q={q}")
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
    hits = sum(comb(q, m) * m ** L * sum((-1) ** k * comb(m, k) * (m - k) ** s
                                         for k in range(m + 1))
               for m in range(1, min(q, s) + 1))
    return Fraction(hits, q ** (s + L))


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


def k_factor(q: int, qprime: int) -> int:
    """Length blow-up of the alphabet-reduction construction."""
    if qprime < q or q < 2:
        raise InvalidParametersError(f"need q' >= q >= 2, got q={q}, q'={qprime}")
    if qprime == q:
        return 1
    return math.ceil(qprime / (q - 1))


def lower_bound_LD(s: int, L: int, q: int, qprime_max: int = 64) -> BoundReport:
    """Random-coding lower bound on the list-decoding rate, maximized over
    the auxiliary alphabet size q'. Ties break toward the smallest q'."""
    if s < 2 or L < 1 or q < 2:
        raise InvalidParametersError(f"need s >= 2, L >= 1, q >= 2, got {(s, L, q)}")
    if qprime_max < q:
        raise InvalidParametersError(f"empty search range: qprime_max={qprime_max} < q={q}")
    check_ld_work([(s, L, q)], qprime_max)
    best_val, best_qp, best_p = -math.inf, None, None
    for qp in range(q, qprime_max + 1):
        pr = P_term(qp, s, L)
        val = (log(pr.denominator) - log(pr.numerator)) / ((s + L - 1) * k_factor(q, qp))
        if val > best_val + 1e-15:
            best_val, best_qp, best_p = val, qp, pr
    return BoundReport(
        name="ld-lower",
        value=best_val,
        params={"s": s, "L": L, "q": q, "qprime_max": qprime_max,
                "at_cap": best_qp == qprime_max},
        witness=best_qp,
        exact=best_p,
    )


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

