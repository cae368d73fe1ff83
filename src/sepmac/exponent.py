"""Random-coding error exponents of almost separable codes.

A joint distribution tau on A_q^s x Z (Z the channel's output labels) is
supported on the channel graph {(x, f(x))}, so it is one weight per input
word. H and I_m are convex in tau, so by Sion's theorem
min_tau H + [I_m - mR]^+ equals the dual max over lam in [0, 1] and mu of
E0(lam, mu, m) - <mu, p> - lam m R. With
w = (h, u) split after its first m symbols, P the product law and
P~(w) = P(w) exp(-sum_k mu[k, w_k]),

    E0 = -ln sum_u P~(u) sum_z [sum_{h: f(h,u)=z} P~(h)^(1/(1+lam)) P(h)^(lam/(1+lam))]^(1+lam)

is the closed-form minimum over tau of H + lam I_m + <mu, input marginals>.
The cr ensemble has mu = 0 (Gallager's E0); fc keeps mu as multipliers on
the fixed input marginals. fc starts L-BFGS-B from the cr point (lam*, 0)
only when that point fails the solver's own first test, the projected
gradient's max-norm against its gtol; where the cr point already meets the
marginals, as at uniform p on a channel invariant under symbol
permutations, it is fc's answer too, the x that L-BFGS-B would return
after 0 iterations. The dimension is q^s: WORD_GUARD caps the s * q^s
cells of the word table.

The input law p is a ``core.Distribution``. This module and ``bounds``, the
two optimisers, are the only ones that import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .core import Distribution, InvalidParametersError, SizeLimitError, runs
from .channels import ChannelSpec, output_ids

WORD_GUARD = 2 ** 17  # word-table cells s * q^s an exponent may build
# A report is converged when the primal value at tau* is this close to the
# dual value and, under fc, tau* meets the input marginals this closely.
CERTIFICATE_TOL = 1e-7
_GTOL = 1e-11  # fc's L-BFGS-B stops where the projected gradient's max-norm is this small


@dataclass(frozen=True, eq=False)
class ExponentReport:
    """`value` is the dual value, a lower bound on the exponent; `primal` is
    H + [I_m - mR]^+ at tau*, the weight `tau[i]` of word `words[i]` with
    output id `ids[i]` (the solved split's arrays, not copies), and `gap` =
    primal - value."""

    value: float
    ensemble: str
    R: float
    m_star: int
    words: np.ndarray
    ids: np.ndarray
    tau: np.ndarray
    converged: bool
    primal: float
    gap: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "ensemble": self.ensemble,
            "R": self.R,
            "m_star": self.m_star,
            "converged": self.converged,
        }


class Sweep(tuple):
    """The ExponentReports of one rate sweep, in the order of its rates; the
    sweep is converged when every report is."""

    __slots__ = ()

    @property
    def converged(self) -> bool:
        return all(rep.converged for rep in self)


def _check_args(channel: ChannelSpec, p: Distribution, ensemble: str) -> str:
    cells = channel.s * channel.q ** channel.s
    if cells > WORD_GUARD:
        raise SizeLimitError(f"instance too large: s*q^s = {cells} word-table cells exceed "
                             f"guard {WORD_GUARD} (s={channel.s}, q={channel.q})")
    if p.q != channel.q:
        raise InvalidParametersError(f"distribution over {p.q} symbols, channel q={channel.q}")
    ensemble = ensemble.lower()
    if ensemble not in ("cr", "fc"):
        raise InvalidParametersError(f"ensemble must be 'cr' or 'fc', got {ensemble!r}")
    return ensemble


class _Point(NamedTuple):
    """E0 at one (lam, mu), the tau attaining it, H(tau), I_m(tau) and the
    per-coordinate input marginals of tau, flattened like mu."""

    e0: float
    tau: np.ndarray
    H: float
    I: float
    marg: np.ndarray


class _Split:
    """The words of one word table, each split at coordinate m into head h
    and tail u, sorted by their group (u, f(w)) so that each group is one
    run from its index in ``starts``; ``ids`` are the output ids f(w).
    mu[k * q + a] is the multiplier of symbol a at coordinate k, and
    ``cols`` holds each word's multiplier indices k * q + w_k."""

    def __init__(self, channel: ChannelSpec, pf: np.ndarray, words: np.ndarray,
                 ids: np.ndarray, log_p: np.ndarray, m: int):
        s, q = channel.s, channel.q
        self.m, self.p_flat = m, np.tile(pf, s)
        order, new = runs((words[:, m:] @ q ** np.arange(s - m - 1, -1, -1))
                          * len(channel.outputs) + ids)
        self.words, self.ids, log_p = words[order], ids[order], log_p[order]
        self.starts, self.group = np.flatnonzero(new), np.cumsum(new) - 1
        self.lp, self.lp_h = log_p.sum(axis=1), log_p[:, :m].sum(axis=1)
        self.cols = np.arange(s) * q + self.words
        # mu is defined up to a shift per coordinate, so the last supported
        # symbol's multiplier is pinned to 0; zero-probability symbols get none
        support = np.flatnonzero(pf > 0)[:-1]
        self.free = (np.arange(s)[:, None] * q + support).ravel()

    def solve(self, lam: float, mu: np.ndarray) -> _Point:
        m, cols, starts, group = self.m, self.cols, self.starts, self.group
        a = self.lp_h - mu[cols[:, :m]].sum(axis=1) / (1 + lam)
        peak = np.maximum.reduceat(a, starts)
        log_S = peak + np.log(np.add.reduceat(np.exp(a - peak[group]), starts))
        tail = (self.lp - self.lp_h)[starts] - mu[cols[starts, m:]].sum(axis=1)
        b = tail + (1 + lam) * log_S
        e0 = -(b.max() + math.log(np.exp(b - b.max()).sum()))
        log_pi = a - log_S[group]
        log_tau = b[group] + e0 + log_pi
        tau = np.exp(log_tau)
        marg = np.bincount(cols.ravel(), np.repeat(tau, cols.shape[1]), len(mu))
        return _Point(e0, tau, float(tau @ (log_tau - self.lp)),
                      float(tau @ (log_pi - self.lp_h)), marg)

    def _grad(self, pt: _Point, R: float) -> np.ndarray:
        """The dual's gradient in (lam, free mu) at a solved point:
        (I_m - mR, marginals - p)."""
        return np.concatenate(([pt.I - self.m * R], (pt.marg - self.p_flat)[self.free]))

    def _stops_at_start(self, R: float, lam: float, pt: _Point) -> bool:
        """Whether L-BFGS-B on -dual, started at (lam, mu = 0) where `pt` was
        solved, stops there after 0 iterations: its first test projects the
        gradient onto the box lam in [0, 1], mu free, and compares its
        max-norm with gtol. A non-finite value is left to the solver."""
        g = -self._grad(pt, R)
        if not (math.isfinite(pt.e0) and np.isfinite(g).all()):
            return False
        g[0] = max(lam - 1.0, g[0]) if g[0] < 0 else min(lam, g[0])
        return float(np.max(np.abs(g))) <= _GTOL

    def maximize(self, R: float, ensemble: str) -> tuple[float, _Point]:
        """E_m(R), the maximum of the dual, with the point solved at its
        (lam, mu). The dual is concave in lam with slope I_m(tau) - mR at the
        tau attaining E0, so at mu = 0 (cr) lam is a root find; fc then
        solves over (lam, mu) from there, unless that cr point already
        passes L-BFGS-B's first test."""
        mu = np.zeros_like(self.p_flat)

        def dual(pt, lam):
            return pt.e0 - float(mu @ self.p_flat) - lam * self.m * R

        def slope(lam):
            return self.solve(lam, mu).I - self.m * R

        lam, pt = 0.0, self.solve(0.0, mu)
        if pt.I - self.m * R > 0:
            lam, pt = 1.0, self.solve(1.0, mu)
            if pt.I - self.m * R < 0:
                lam = brentq(slope, 0.0, 1.0, xtol=1e-15)
                pt = self.solve(lam, mu)
        if ensemble == "fc" and not self._stops_at_start(R, lam, pt):
            def neg_dual(x):
                mu[self.free] = x[1:]
                pt = self.solve(x[0], mu)
                return -dual(pt, x[0]), -self._grad(pt, R)

            res = minimize(neg_dual, np.r_[lam, np.zeros(len(self.free))], jac=True,
                           method="L-BFGS-B", bounds=[(0.0, 1.0)] + [(None, None)] * len(self.free),
                           options={"maxiter": 500, "ftol": 0.0, "gtol": _GTOL})
            lam = float(res.x[0])
            mu[self.free] = res.x[1:]
            pt = self.solve(lam, mu)
        return dual(pt, lam), pt


def _splits(channel: ChannelSpec, p: Distribution) -> Iterator[_Split]:
    """The s splits, one at a time, of one word table: the words of positive
    product probability in lexicographic order, their output ids and log P."""
    pf = np.array(p.as_floats())
    support = np.flatnonzero(pf > 0)
    words = support[np.indices((len(support),) * channel.s).reshape(channel.s, -1).T]
    ids, log_p = output_ids(channel, words.T), np.log(pf[words])  # no kept word has a zero symbol
    return (_Split(channel, pf, words, ids, log_p, m) for m in range(1, channel.s + 1))


def exponent(channel: ChannelSpec, p: Distribution, rates: Sequence[float],
             ensemble: str = "cr") -> Sweep:
    """Random-coding error exponent at each of ``rates``: min over m of the
    minimum over tau of H + [I_m - mR]^+, evaluated as min over m of the
    dual E_m(R). No split depends on R, so each is built once and solved
    at every rate; only each rate's best split so far is kept."""
    ensemble = _check_args(channel, p, ensemble)
    for R in rates:
        if not (math.isfinite(R) and R >= 0):
            raise InvalidParametersError(f"rate must be finite and nonnegative, got {R}")
    best = [None] * len(rates)  # (E_m(R), its point, split) of the least E_m(R) so far
    for split in _splits(channel, p):
        for i, R in enumerate(rates):
            value, pt = split.maximize(R, ensemble)
            if best[i] is None or value < best[i][0]:
                best[i] = value, pt, split
    return Sweep(_report(R, ensemble, *b) for R, b in zip(rates, best))


def _report(R: float, ensemble: str, value: float, pt: _Point, split: _Split) -> ExponentReport:
    value = max(0.0, value)  # 0.0 first: max keeps its first argument on a tie with -0.0
    primal = pt.H + max(pt.I - split.m * R, 0.0)
    residual = float(np.max(np.abs(pt.marg - split.p_flat))) if ensemble == "fc" else 0.0
    gap = primal - value
    return ExponentReport(value=value, ensemble=ensemble, R=R, m_star=split.m,
                          words=split.words, ids=split.ids, tau=pt.tau,
                          converged=abs(gap) <= CERTIFICATE_TOL and residual <= CERTIFICATE_TOL,
                          primal=primal, gap=gap)


def rate_lower_bound_general(channel: ChannelSpec, p: Distribution,
                             ensemble: str = "cr") -> float:
    """General random-coding lower bound on the separable-code rate:
    min over m of min_tau (H + I_m) / (s + m - 1), the inner minimum being
    E_m(0); the dual's slope in lam is I_m >= 0 there, so lam* = 1."""
    ensemble = _check_args(channel, p, ensemble)
    return min(max(0.0, split.maximize(0.0, ensemble)[0]) / (channel.s + split.m - 1)
               for split in _splits(channel, p))
