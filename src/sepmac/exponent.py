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
the fixed input marginals.

The s splits of one word table are stacked in blocks of at most WORD_GUARD
cells, each block's rows sorted once, and one ``solve`` at one lam gives
every split of a block its E0, tau, H, I_m and marginals by segment sums.
Neither endpoint of lam depends on R, so a sweep solves each block at
lam = 1 once and keeps lam* = 1 wherever the slope I_m - mR of the concave
dual is still positive there; it solves lam = 0 once, and only if some
split at some rate needs it, and finds lam* by a root find on the split
solved alone where the slope changes sign. fc starts L-BFGS-B over (lam, mu)
on the split alone, the only solve that takes multipliers, from the cr point
(lam*, 0), and only when that point fails the solver's own first test, the
projected gradient's max-norm against its gtol; where the cr point already
meets the marginals, as at uniform p on a channel invariant under symbol
permutations, it is fc's answer too, the x L-BFGS-B returns after 0 iterations.

The input law p is a ``core.Distribution``. This module and ``bounds``, the
two optimisers, are the only ones that import scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .core import Distribution, InvalidParametersError, SizeLimitError, runs
from .channels import ChannelSpec, output_ids

# word-table cells s * q^s an exponent may build, and stacked cells s * q^s * splits a
# block may hold
WORD_GUARD = 2 ** 17
# A report is converged when the primal value at tau* is this close to the
# dual value and, under fc, tau* meets the input marginals this closely.
CERTIFICATE_TOL = 1e-7
# m* is the smallest m whose E_m(R) is this close to the least, so splits
# that tie up to rounding (those at 0 where the exponent is 0) give the same
# m* under any order of the sums or of the symbols
M_STAR_TIE = 1e-12
_GTOL = 1e-11  # fc's L-BFGS-B stops where the projected gradient's max-norm is this small


@dataclass(frozen=True, eq=False)
class ExponentReport:
    """`value` is the dual value, a lower bound on the exponent, the least
    E_m(R) clamped at 0; `m_star` is the smallest m whose E_m(R) is within
    M_STAR_TIE of the least; `primal` is H + [I_m - mR]^+ at m*'s tau*, the
    weight `tau[i]` of word `words[i]` with output id `ids[i]` (views of the
    solved block's arrays, not copies), and `gap` = primal - value."""

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


def _check_args(channel: ChannelSpec, p: Distribution, ensemble: str) -> None:
    cells = channel.s * channel.q ** channel.s
    if cells > WORD_GUARD:
        raise SizeLimitError(f"instance too large: s*q^s = {cells} word-table cells exceed "
                             f"guard {WORD_GUARD} (s={channel.s}, q={channel.q})")
    if p.q != channel.q:
        raise InvalidParametersError(f"distribution over {p.q} symbols, channel q={channel.q}")
    if ensemble not in ("cr", "fc"):
        raise InvalidParametersError(f"ensemble must be 'cr' or 'fc', got {ensemble!r}")


class _Table(NamedTuple):
    """One word table: the input law, the words of positive product
    probability in lexicographic order, their output ids, the running sums
    of their symbols' log probabilities (``cum_lp[:, m - 1]`` is log P of a
    word's first m symbols) and the number of output labels."""

    pf: np.ndarray
    words: np.ndarray
    ids: np.ndarray
    cum_lp: np.ndarray
    labels: int


class _Point(NamedTuple):
    """One split's E0 at one (lam, mu), the tau attaining it, H(tau),
    I_m(tau) and the per-coordinate input marginals of tau, flattened like
    mu."""

    e0: float
    tau: np.ndarray
    H: float
    I: float
    marg: np.ndarray


class _Block:
    """The splits ``ms`` of one word table, stacked: split j holds every
    word, split at coordinate ms[j] into head h and tail u, in rows
    j * n to (j + 1) * n. One sort orders the rows by (split, u, f(w)), so
    each group (u, f(w)) is one run from its index in ``starts`` and no group
    crosses a split. All splits are solved at one lam, and multipliers only
    on a block of one split: mu[k * q + a] is that of symbol a at coordinate
    k. ``cols`` holds each row's j * s * q + k * q + w_k, the indices of its
    symbols' stacked marginals and, for j = 0, of their multipliers."""

    def __init__(self, table: _Table, ms: Sequence[int]):
        pf, words, ids, cum_lp, labels = table
        (n, s), q, k = words.shape, len(pf), len(ms)
        self.table, self.ms, self.n = table, tuple(ms), n
        self.parts: dict[int, _Block] = {}  # split j alone, for its root find and L-BFGS-B
        self.p_flat = np.concatenate([pf] * s)
        # the base-q number of each word's tail w[m:], first symbol most
        # significant, is its whole number's remainder modulo q^(s - m)
        m = np.array(ms)
        tails = (words @ q ** np.arange(s - 1, -1, -1))[:, None] % q ** (s - m)
        order, new = runs(((np.arange(k) * q ** s + tails) * labels + ids[:, None]).T.ravel())
        row = order % n  # the word of each row: split j's keys sort among themselves
        self.words, self.ids = words[row], ids[row]
        self.starts, self.group = np.flatnonzero(new), np.cumsum(new) - 1
        self.split = order // n  # each row's split
        self.gsplit = self.split[self.starts]  # each group's split
        # each split's first group, and the end of the last
        self.first = np.searchsorted(self.gsplit, np.arange(k + 1))
        self.lp, self.lp_h = cum_lp[row, -1], cum_lp[row, m[self.split] - 1]
        self.tail = (self.lp - self.lp_h)[self.starts]
        self.cols = (self.split * s * q)[:, None] + np.arange(s) * q + self.words

    @functools.cached_property
    def free(self) -> np.ndarray:
        """The indices of fc's free multipliers. mu is defined up to a shift
        per coordinate, so the last supported symbol's multiplier is pinned to
        0; zero-probability symbols get none."""
        pf = self.table.pf
        support = np.flatnonzero(pf > 0)[:-1]
        return (np.arange(self.words.shape[1])[:, None] * len(pf) + support).ravel()

    def solve(self, lam: float, mu: np.ndarray | None = None) -> list[_Point]:
        """Every split's point at one lam; no ``mu`` is mu = 0, the only mu a
        stacked block takes. A split's point depends on its own rows alone: it
        is the same, bit for bit, solved in any block."""
        starts, group, split, k = self.starts, self.group, self.split, len(self.ms)
        a, tail, lam1 = self.lp_h, self.tail, 1 + lam
        if mu is not None:  # the head and tail multipliers of the block's one split
            (m,) = self.ms
            a = a - mu[self.cols[:, :m]].sum(axis=1) / lam1
            tail = tail - mu[self.cols[starts, m:]].sum(axis=1)
        peak = np.maximum.reduceat(a, starts)
        log_S = peak + np.log(np.add.reduceat(np.exp(a - peak[group]), starts))
        b = tail + lam1 * log_S
        top = np.maximum.reduceat(b, self.first[:-1])
        e0 = -(top + np.log(np.add.reduceat(np.exp(b - top[self.gsplit]), self.first[:-1])))
        log_pi = a - log_S[group]
        log_tau = b[group] + e0[split] + log_pi
        tau = np.exp(log_tau)
        ends = np.arange(k) * self.n
        H = np.add.reduceat(tau * (log_tau - self.lp), ends)
        I = np.add.reduceat(tau * (log_pi - self.lp_h), ends)
        sq = len(self.p_flat)
        marg = np.bincount(self.cols.ravel(), np.repeat(tau, self.cols.shape[1]), k * sq)
        return [_Point(*pt) for pt in zip(e0.tolist(), tau.reshape(k, self.n), H.tolist(),
                                          I.tolist(), marg.reshape(k, sq))]

    def rows(self, j: int) -> slice:
        return slice(j * self.n, (j + 1) * self.n)

    def _alone(self, j: int) -> _Block:
        """Split j in a block of its own, built once."""
        if len(self.ms) == 1:
            return self
        if j not in self.parts:
            self.parts[j] = _Block(self.table, self.ms[j:j + 1])
        return self.parts[j]

    def _grad(self, m: int, pt: _Point, R: float) -> np.ndarray:
        """The dual's gradient in (lam, free mu) at a solved point of split
        m: (I_m - mR, marginals - p)."""
        return np.concatenate(([pt.I - m * R], (pt.marg - self.p_flat)[self.free]))

    def _stops_at_start(self, m: int, R: float, lam: float, pt: _Point) -> bool:
        """Whether L-BFGS-B on -dual, started at (lam, mu = 0) where `pt` was
        solved, stops there after 0 iterations: its first test projects the
        gradient onto the box lam in [0, 1], mu free, and compares its
        max-norm with gtol. A non-finite value is left to the solver."""
        g = -self._grad(m, pt, R)
        if not (math.isfinite(pt.e0) and np.isfinite(g).all()):
            return False
        g[0] = max(lam - 1.0, g[0]) if g[0] < 0 else min(lam, g[0])
        return float(np.max(np.abs(g))) <= _GTOL

    def maximize(self, rates: Sequence[float], ensemble: str) -> list[list[tuple[float, _Point]]]:
        """E_m(R), the maximum of the dual, with the point solved at its
        (lam, mu), for each split m of the block (the outer list) at each
        rate. The dual is concave in lam with slope I_m(tau) - mR at the tau
        attaining E0, so at mu = 0 (cr) lam* is 1 where the slope at 1 is
        positive, 0 where the slope at 0 is not, and otherwise a root find on
        the split's rows; both endpoints are solved once for every rate, and
        the root find reads them rather than solving them again. fc then
        solves over (lam, mu) from there, unless that cr point already passes
        L-BFGS-B's first test."""
        top, low = self.solve(1.0), None
        out = []
        for j, m in enumerate(self.ms):
            col = []
            for R in rates:
                lam, pt = 1.0, top[j]
                if not pt.I - m * R > 0:
                    if low is None:
                        low = self.solve(0.0)
                    if not low[j].I - m * R > 0:
                        lam, pt = 0.0, low[j]
                    elif pt.I - m * R < 0:
                        one, ends = self._alone(j), {0.0: low[j], 1.0: top[j]}

                        def slope(x):
                            return (ends[x] if x in ends else one.solve(x)[0]).I - m * R

                        lam = brentq(slope, 0.0, 1.0, xtol=1e-15)
                        pt = one.solve(lam)[0]
                shift = 0.0  # <mu, p>
                if ensemble == "fc" and not self._stops_at_start(m, R, lam, pt):
                    lam, pt, shift = self._lbfgsb(j, R, lam)
                col.append((pt.e0 - shift - lam * m * R, pt))
            out.append(col)
        return out

    def _lbfgsb(self, j: int, R: float, lam: float) -> tuple[float, _Point, float]:
        """fc's lam*, point and <mu*, p> on split j from (lam, mu = 0), by
        L-BFGS-B over (lam, free mu) on the split's rows."""
        one, m, free = self._alone(j), self.ms[j], self.free
        mu = np.zeros(len(self.p_flat))

        def neg_dual(x):
            mu[free] = x[1:]
            pt = one.solve(x[0], mu)[0]
            return -(pt.e0 - float(mu @ self.p_flat) - x[0] * m * R), -self._grad(m, pt, R)

        res = minimize(neg_dual, np.r_[lam, np.zeros(len(free))], jac=True,
                       method="L-BFGS-B", bounds=[(0.0, 1.0)] + [(None, None)] * len(free),
                       options={"maxiter": 500, "ftol": 0.0, "gtol": _GTOL})
        mu[free] = res.x[1:]
        return float(res.x[0]), one.solve(res.x[0], mu)[0], float(mu @ self.p_flat)


def _table(channel: ChannelSpec, p: Distribution) -> _Table:
    pf = np.array(p.as_floats())
    support = np.flatnonzero(pf > 0)
    words = support[np.indices((len(support),) * channel.s).reshape(channel.s, -1).T]
    # no kept word has a zero symbol
    return _Table(pf, words, output_ids(channel, words.T), np.cumsum(np.log(pf[words]), axis=1),
                  len(channel.outputs))


def _blocks(channel: ChannelSpec, p: Distribution) -> Iterator[_Block]:
    """The s splits of one word table, m in order, stacked in blocks of at
    most WORD_GUARD cells (a split's cells are its words' s symbols), one
    block at a time."""
    table = _table(channel, p)
    s = channel.s
    per = max(1, WORD_GUARD // table.words.size)
    return (_Block(table, tuple(range(m, min(m + per, s + 1)))) for m in range(1, s + 1, per))


def exponent(channel: ChannelSpec, p: Distribution, rates: Sequence[float],
             ensemble: str = "cr") -> Sweep:
    """Random-coding error exponent at each of ``rates``: min over m of the
    minimum over tau of H + [I_m - mR]^+, evaluated as min over m of the
    dual E_m(R). No split depends on R, so each block is built once and
    solved for every rate; only the splits that may yet be a rate's m* are
    kept."""
    _check_args(channel, p, ensemble)
    rates = [R + 0.0 for R in rates]  # a rate of -0.0 reports as 0.0
    for R in rates:
        if not (math.isfinite(R) and R >= 0):
            raise InvalidParametersError(f"rate must be finite and nonnegative, got {R}")
    # per rate, the (E_m(R), point, block, split) of each m that lowered the
    # least E_m(R) so far and is still within M_STAR_TIE of it; an m that
    # lowers nothing has a smaller m at or below it, so the first entry is m*
    ties = [[] for _ in rates]
    for block in _blocks(channel, p):
        for j, col in enumerate(block.maximize(rates, ensemble)):
            for i, (value, pt) in enumerate(col):
                if not ties[i] or value < ties[i][-1][0]:
                    ties[i] = [t for t in ties[i] if t[0] <= value + M_STAR_TIE]
                    ties[i].append((value, pt, block, j))
    return Sweep(_report(R, ensemble, t[-1][0], *t[0][1:]) for R, t in zip(rates, ties))


def _report(R: float, ensemble: str, value: float, pt: _Point, block: _Block,
            j: int) -> ExponentReport:
    """The report of the least E_m(R), ``value``, at m*, split j of the
    block, solved at ``pt``."""
    value = max(0.0, value)  # 0.0 first: max keeps its first argument on a tie with -0.0
    m, rows = block.ms[j], block.rows(j)
    primal = pt.H + max(pt.I - m * R, 0.0)
    residual = float(np.max(np.abs(pt.marg - block.p_flat))) if ensemble == "fc" else 0.0
    gap = primal - value
    return ExponentReport(value=value, ensemble=ensemble, R=R, m_star=m,
                          words=block.words[rows], ids=block.ids[rows], tau=pt.tau,
                          converged=abs(gap) <= CERTIFICATE_TOL and residual <= CERTIFICATE_TOL,
                          primal=primal, gap=gap)


def rate_lower_bound_general(channel: ChannelSpec, p: Distribution,
                             ensemble: str = "cr") -> float:
    """General random-coding lower bound on the separable-code rate:
    min over m of min_tau (H + I_m) / (s + m - 1), the inner minimum being
    E_m(0); the dual's slope in lam is I_m >= 0 there, so lam* = 1."""
    _check_args(channel, p, ensemble)
    return min(max(0.0, col[0][0]) / (channel.s + m - 1)
               for block in _blocks(channel, p)
               for m, col in zip(block.ms, block.maximize([0.0], ensemble)))
