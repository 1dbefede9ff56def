"""Critical probabilities and the survival-probability recursion.

p_c = 1 - 1/M where M is the maximum of the kernel mixture G on [0,1];
laws with mass below the threshold get p_c = 1 outright, because pairs of
adjacent low-degree vertices eventually form healthy blocking sets.

The survival sequence starts at q_0 = 1 - p and iterates q_{t+1} =
h_{r,p}(q_t); it decreases to the largest fixed point of h, which is
positive exactly in the subcritical regime p < p_c.  ``q_limit`` brackets
that limit instead of stepping until the step is small: the iterates are
upper bounds, an Aitken extrapolate with h(l) > l is a lower bound, and a
safeguarded secant closes the bracket.  Stepping ends by step 32, where one
scan of G on a grid decides.  On a law that can die, p_c and its err,
formed from the maximum of G by the rule ``pc_exact`` uses, give the limit
0 above p_c + err, within err a 0 only where a bound of G over pieces of
[0, q_t] proves it (that bound may certify 0 sooner) and else the interval
[0, q_t], and below p_c - err a root right of x_star.  With mass below r
the limit is a root right of 0.  Each root is bracketed from G on the grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from .offspring import DistributionSpec, OffspringDistribution, PreconditionError
from . import kernels
from .kernels import GRID_STEP, GEvalContext, make_context

__all__ = [
    "CriticalResult",
    "QTrace",
    "QLimitResult",
    "pc_exact",
    "pc_closed_form",
    "q_iterate",
    "q_limit",
    "pc_regular_asymptotic",
]

@dataclass(frozen=True, slots=True)
class CriticalResult:
    pc: float
    x_star: float
    M: float
    method: str  # "maximization" | "closed-form" | "subcritical-mass"
    err: float
    spec: Optional[DistributionSpec] = None
    r: Optional[int] = None

    def as_dict(self) -> dict:
        """The fields by name, with the spec as its label."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["spec"] = self.spec.label() if self.spec else None
        return out


def pc_exact(d: OffspringDistribution, r: int) -> CriticalResult:
    """Critical probability via maximization of G.

    If support_min < r, then P(xi < r) > 0 (every family's smallest atom has
    positive mass, though the float may underflow), so the tree almost surely
    contains initially healthy blocking pairs for every p < 1 and p_c = 1.
    No law is cut, so err is ``max_G``'s asserted 1e-10 carried to p_c, and
    pc is clamped to [0, 1]: an M a rounding below 1 would otherwise report a
    p_c below 0 (err is left as it is).
    """
    if r < 2:
        raise PreconditionError("pc_exact requires r >= 2")
    if d.support_min < r:
        return CriticalResult(
            pc=1.0, x_star=0.0, M=math.inf, method="subcritical-mass", err=0.0,
            spec=d.spec, r=r,
        )
    res = kernels.max_G(make_context(d, r))
    pc, err = _pc_of_max(res)
    return CriticalResult(
        pc=pc, x_star=res.x_star, M=res.M, method="maximization", err=err,
        spec=d.spec, r=r,
    )


def _pc_of_max(res: kernels.MaxResult) -> tuple[float, float]:
    """(p_c, err) from the maximum of G: p_c = (M-1)/M clamped to [0, 1], formed
    from ``M_minus_1`` so that a p_c far below 1 keeps the bits of G - 1."""
    M = res.M
    return min(max(res.M_minus_1 / M, 0.0), 1.0), (res.err + 1e-14) / M**2 + 1e-15


def _log_series(y: float, coeffs) -> float:
    """sum_{j>=2} c_j y^j for c_2, c_3, ... from ``coeffs``, stopped once a term is
    below 2^-60 of the sum; callers' terms shrink at least geometrically."""
    total, yj = 0.0, y * y
    for c in coeffs:
        term = c * yj
        total += term
        if abs(term) <= 2.0**-60 * abs(total):
            return total
        yj *= y


def _pc_regular_r2(b: int) -> float:
    # 1 - (b-1)^(2b-3) / (b^(b-1) (b-2)^(b-2)), exact rational for small b
    if b <= 60:
        num = Fraction((b - 1) ** (2 * b - 3))
        den = Fraction(b ** (b - 1) * (b - 2) ** (b - 2)) if b > 2 else Fraction(2)
        return float(1 - num / den)
    # with n = b-1 the log of the ratio is -n log1p(1/n) - (n-1) log1p(-1/n), two
    # O(1) terms that cancel to about -1/(2n^2); its series in 1/n has
    # c_j = -1/j for even j and (j-1)/(j(j+1)) for odd j
    coeffs = (-1.0 / j if j % 2 == 0 else (j - 1) / (j * (j + 1)) for j in itertools.count(2))
    return -math.expm1(_log_series(1.0 / (b - 1), coeffs))


def _poisson_log_coeffs():
    """c_j of log(1 - p_c) = sum_{j>=2} c_j y^j, the shifted Poisson law at r = 2.

    With s = sqrt((b+3)(b-1)) and y = 2/(b+1+s), 1 - p_c = (b-2) e^((b+1-s)/2) / (s-2)
    is e^y (1-3y+y^2)/(1-2y-y^2).  The j-th power sums P_j of the roots of
    z^2 - 3z + 1 and Q_j of z^2 - 2z - 1 are integers, so c_j = -(P_j - Q_j)/j;
    the j = 1 term cancels the y.  The roots are at most 1 + sqrt(2) < 2.62 and
    y <= 1/3, so the terms shrink at least like (2.62 y)^j.
    """
    p0, p1, q0, q1 = 2, 3, 2, 2
    for j in itertools.count(2):
        p0, p1 = p1, 3 * p1 - p0
        q0, q1 = q1, 2 * q1 + q0
        yield -(p1 - q1) / j


def pc_closed_form(spec: DistributionSpec, r: int) -> Optional[CriticalResult]:
    """Closed forms where available; None otherwise.

    Covered: regular with r = 2 or r = b; shifted Poisson and geometric at
    r = 2 (above their validity thresholds); the two-point family at r = 2
    when a >= 2b - 1.
    """
    f = spec.family
    if f == "regular":
        b = int(spec.b)
        if r == 2 and b >= 2:
            pc = _pc_regular_r2(b)
            if b == 2:
                xs, M = 0.0, 2.0
            else:
                xs = b * (b - 2) / (b - 1) ** 2
                M = 1.0 / (1.0 - pc)
            return CriticalResult(pc, xs, M, "closed-form", 1e-15, spec, r)
        if r == b:
            return CriticalResult(1.0 - 1.0 / b, 0.0, float(b), "closed-form", 0.0, spec, r)
        return None
    if f == "shifted_poisson" and r == 2 and spec.b >= 7.0 / 3.0:
        b = float(spec.b)
        s = math.sqrt((b + 3) * (b - 1))
        xs = (b - 5 + s) / (2 * (b - 2))
        log_1_pc = _log_series(2.0 / (b + 1 + s), _poisson_log_coeffs())
        pc, M = -math.expm1(log_1_pc), math.exp(-log_1_pc)
        return CriticalResult(pc, xs, M, "closed-form", 1e-14, spec, r)
    if f == "shifted_geometric" and r == 2 and spec.b >= 2.5:
        b = float(spec.b)
        xs = (2 * b - 5) * (b - 1) / ((b - 2) * (2 * b - 3))
        M = (2 * b - 3) ** 2 / (4 * (b - 1) * (b - 2))
        pc = 1.0 / (2 * b - 3) ** 2
        return CriticalResult(pc, xs, M, "closed-form", 1e-15, spec, r)
    if f == "two_point" and r == 2 and spec.a >= 2 * spec.b - 1:
        a, b = spec.a, spec.b
        pc = 1.0 - (a - 2) / (2.0 * (a - b))
        M = 2.0 * (a - b) / (a - 2)
        return CriticalResult(pc, 0.0, M, "closed-form", 1e-15, spec, r)
    return None


def pc_regular_asymptotic(b: int, r: int) -> float:
    """(1 - 1/r) ((r-1)!/b^r)^(1/(r-1)), the large-b critical probability
    of the (b+1)-regular tree."""
    if not b >= r >= 2:
        raise PreconditionError("pc_regular_asymptotic requires b >= r >= 2")
    return (1.0 - 1.0 / r) * (math.factorial(r - 1) / b**r) ** (1.0 / (r - 1))


# ---------------------------------------------------------------------------
# survival recursion


@dataclass
class QTrace:
    p: float
    r: int
    values: list[float]

    @property
    def q_n(self) -> float:
        return self.values[-1]


def _step(ctx: GEvalContext, p: float, q: float) -> float:
    """q_{t+1} = h_{r,p}(q_t), checked to be non-increasing."""
    q_next = kernels.h(ctx, p, q)
    # exact monotonicity can wobble by float rounding only
    if q_next > q + 1e-12:
        raise ArithmeticError(
            f"survival sequence must be non-increasing: q={q!r} -> {q_next!r}"
        )
    return min(q_next, q)


def q_iterate(d: OffspringDistribution, r: int, p: float, n: int) -> QTrace:
    """q_0 = 1-p, q_{t+1} = h_{r,p}(q_t), for n steps."""
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must lie in [0, 1]")
    if n < 0:
        raise PreconditionError("n must be >= 0")
    ctx = make_context(d, r)
    q = 1.0 - p
    values = [q]
    for _ in range(n):
        q = _step(ctx, p, q)
        values.append(q)
    return QTrace(p=p, r=r, values=values)


@dataclass(frozen=True, slots=True)
class QLimitResult:
    """Limit of the survival recursion and a bracket [lower, upper] around it.

    Without a certified bracket ``converged`` is False and the bracket is
    [0, value], value being the last iterate.  ``iterations`` counts
    evaluations of h, F and G; the grid values read from ``kernels._scan``
    are not counted again.
    """

    value: float
    lower: float
    upper: float
    converged: bool
    iterations: int


# 2^-48 (32 ulps) per unit of the terms summed for h(x) - x: the stated
# rounding bound, at least 5 times the largest error of h seen against
# 40-digit sums over the same atoms (20 ulps of h, 4 units of terms)
_H_ROUNDING = 2.0**-48
# the zero certificate cuts [0, q] into this many pieces, splits a piece whose
# bound fails into as many again, and gives up after this many rounds or
# once more pieces fail than it started with
_ZERO_PIECES = 16
_ZERO_ROUNDS = 6
# the step at which every search stops stepping and scans G once
_DECIDE_AT = 32


class _LimitSearch:
    """One ``q_limit`` call: the context, p, tol and the evaluations made so far.

    ``run`` steps from 1 - p and tries Aitken's lower end every third step.
    Stepping ends at step ``_DECIDE_AT``, or at a stall that one probe at
    q - tol/2 does not close, with one ``decide``: by the side of p_c on a law
    that can die, and else by one bracket read off the grid of ``kernels._scan``.
    """

    def __init__(self, ctx: GEvalContext, p: float, tol: float):
        self.ctx, self.p, self.tol = ctx, p, tol
        self.evals = 0
        # |terms| summed for G(x): every weight times g_k^r <= r, and each term of
        # the body, at most its scale, the largest |c| of c D_r(m, x) or ``const`` (D_r <= 1),
        # and at most r (the body's mass, at most 1, times g_k^r <= r).  A shifted law's
        # thinned form counts as mass 1: its O(r^2) terms are non-negative and sum to
        # G <= g_r^r <= r; the largest error of h seen against 50-digit sums (b from 3
        # to 1e4, r = 2..4, x from 1e-300 to 1 - 1e-15) is 0.16 of the bound without them
        scale = max((abs(c) for _, c in ctx.body), default=ctx.const)
        mass = 1.0 if ctx.thin is not None else float(ctx.weights.sum())
        self.terms = min(scale, ctx.r) + ctx.r * mass

    def f(self, x: float) -> float:
        """h(x) - x, counted as one evaluation."""
        self.evals += 1
        return kernels.h(self.ctx, self.p, x) - x

    def F_minus_1(self, x: float) -> float:
        """F(x) - 1 = P(xi < r)/x + G(x) - 1 at x > 0, counted as one evaluation."""
        self.evals += 1
        return self.ctx.prob_below / x + kernels.G_minus_1(self.ctx, x)

    def eps(self, x: float) -> float:
        """Bound on the error of ``f(x)`` against h(x) - x: ``_H_ROUNDING`` per unit
        of x, P(xi < r) and the terms of x G(x)."""
        ctx, p = self.ctx, self.p
        return _H_ROUNDING * (x + (1.0 - p) * (ctx.prob_below + x * self.terms))

    def certified_zero(self) -> QLimitResult:
        return QLimitResult(0.0, 0.0, 0.0, True, self.evals)

    def unconverged(self, q: float) -> QLimitResult:
        return QLimitResult(q, 0.0, q, False, self.evals)

    def run(self) -> QLimitResult:
        ctx, p = self.ctx, self.p
        can_die = ctx.prob_below == 0.0  # with mass below r, h(0) > 0 and the limit too
        q, x1, x0 = 1.0 - p, None, None
        zero_from, t = q, 0
        while True:
            if q == 0.0:
                return self.certified_zero()
            # h(q) + eps(q) >= the exact h(q) >= q*, so every iterate stays an
            # upper bound on q* through rounding
            e = self.eps(q)
            h_q = _step(ctx, p, q)
            self.evals += 1
            if h_q + e >= q:
                # a stall, h(q) - q within eps(q): a lower end tol/2 below q closes
                # the bracket, or else ``decide`` does
                if self.tol / 2 <= GRID_STEP:
                    lower = max(q - self.tol / 2, 0.0)
                    f_lower = self.f(lower)
                    if f_lower > self.eps(lower):
                        return self.close(lower, f_lower, q, h_q - q)
                return self.decide(q)
            x0, x1, q = x1, q, h_q + e
            t += 1
            if t == _DECIDE_AT:
                return self.decide(q)
            if x0 is None:
                continue
            d1, d2 = x0 - x1, x1 - q
            if t % 3 or d2 >= d1:
                continue
            # Aitken's extrapolate q - d2^2/(d1 - d2), moved down by half its
            # distance from q: it errs to either side by a few percent of it
            lower = q - 1.5 * d2 * d2 / (d1 - d2)
            if can_die and lower <= q * 2.0**-10:  # the extrapolate points to 0
                if q <= zero_from:
                    if self.zero_certified(q):
                        return self.certified_zero()
                    zero_from = q / 2
            elif 0.0 < lower and x1 - lower <= GRID_STEP:
                f_lower = self.f(lower)
                if f_lower > self.eps(lower):
                    return self.close(lower, f_lower, x1, -(d2 + e))

    def zero_certified(self, q: float) -> bool:
        """True if (1-p) G < 1 on (0, q], so that h(x) < x there and 0 is the limit."""
        edges = np.linspace(0.0, q, _ZERO_PIECES + 1)
        a, b = edges[:-1], edges[1:]
        for _ in range(_ZERO_ROUNDS):
            a, b = a[b > a], b[b > a]  # pieces that underflow to a point hold no x > 0
            bad = (1.0 - self.p) * kernels.G_upper(self.ctx, a, b) >= 1.0
            n = int(bad.sum())
            if n == 0:
                return True
            if n > _ZERO_PIECES:
                return False
            a, b = a[bad, None], b[bad, None]
            cuts = a + (b - a) * (np.arange(_ZERO_PIECES + 1) / _ZERO_PIECES)
            cuts[:, 0], cuts[:, -1] = a[:, 0], b[:, 0]  # the pieces still cover [a, b]
            a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        return False

    def decide(self, q: float) -> QLimitResult:
        """The limit where the iterate q has stopped, from one scan of G.

        With mass below r, F = P(xi < r)/x + G is infinite at x = 0, so the root
        lies right of 0, bracketed on ``kernels._scan`` alone.  Else one ``max_G``
        gives p's side of p_c by ``pc_exact``'s rule: 0 above p_c + err; within
        err a 0 that ``zero_certified(q)`` proves, else [0, q] unconverged;
        below p_c - err the root right of x_star, where (1-p) M > 1.  Either
        root is ``bracket``'s.
        """
        if self.ctx.prob_below > 0.0:
            grid = kernels._scan(self.ctx)
            return self.bracket(grid, q, 0.0, 1.0 + float(grid[0]))
        res = kernels.max_G(self.ctx)
        pc, err = _pc_of_max(res)
        if self.p > pc + err:
            return self.certified_zero()
        if self.p < pc - err:
            return self.bracket(res.grid, q, res.x_star, res.M)
        return self.certified_zero() if self.zero_certified(q) else self.unconverged(q)

    def bracket(self, scan: np.ndarray, q: float, x0: float, G0: float) -> QLimitResult:
        """q*, the largest root of (1-p) F = 1 on [x0, q], closed from one bracket,
        or [0, q] unconverged.

        The points are x0, where G = G0, the ``_grid()`` points in (x0, q), where
        ``scan`` holds G - 1 (``kernels._scan``), and q, where G is evaluated once.
        The lower end is the last point with f > eps, as f(lo) > eps(lo) proves
        q* >= lo, or else 0, a lower end of any root.  Each grid maximum of F
        right of it, risen to by more than F's rounding (2 ``_H_ROUNDING`` per
        unit of ``terms`` and of P/x), whose bound ``G_upper`` + P/a reaches
        1/(1-p), is refined by ``kernels._refine``: the rightmost peak with
        f > eps becomes the lower end, and one within eps leaves [0, q]
        unconverged.  The upper end is the next point with f < -eps: where G
        has no mode narrower than ``GRID_STEP``, as ``max_G`` assumes,
        (1-p) F = 1 has one root in [lo, hi].  Each end is confirmed by the
        scalar ``f`` that ``close`` goes on with (the grid's G - 1 + 1, and the
        array path of a point mass, a heavy or a pruned law, are a few ulps off it).
        """
        ctx, p, P = self.ctx, self.p, self.ctx.prob_below
        if not x0 < q:
            return self.unconverged(q)
        grid = kernels._grid()[0]
        inner = slice(np.searchsorted(grid, x0, "right"), np.searchsorted(grid, q, "left"))
        self.evals += 1
        xs = np.r_[x0, grid[inner], q]
        Gs = np.r_[G0, 1.0 + scan[inner], kernels.G(ctx, np.array([q]))]
        f, e = (1.0 - p) * (P + xs * Gs) - xs, self.eps(xs)
        above = np.flatnonzero(f > e)
        if not len(above) and x0 > 0.0:
            return self.unconverged(q)
        i = above[-1] if len(above) else 0
        lo, f_lo = float(xs[i]), (float(f[0]) if xs[i] == 0.0 else None)
        P_x = P / xs[1:]
        F = np.r_[np.inf, Gs[1:] + P_x]  # the start is a maximum of F: M, or infinite at 0
        rises = np.flatnonzero(np.diff(F[1:]) > 2.0 * _H_ROUNDING * (self.terms + P_x[:-1])) + 2
        tops = np.flatnonzero((F[1:-1] >= F[:-2]) & (F[1:-1] > F[2:])) + 1
        at = np.searchsorted(tops, rises[rises > i])
        peaks = np.unique(tops[at[at < len(tops)]])
        if len(peaks):
            a = xs[peaks - 1]
            reach = (1.0 - p) * (kernels.G_upper(ctx, a, xs[peaks + 1]) + P / a) >= 1.0
            pt = lambda k: (float(xs[k]), float(F[k] - 1.0))
            for j in peaks[reach][::-1]:
                x = kernels._refine(self.F_minus_1, pt(j - 1), pt(j + 1), pt(j))[0]
                f_x, e_x = self.f(x), self.eps(x)
                if f_x > e_x:
                    lo, f_lo = x, f_x
                    break
                if f_x >= -e_x:
                    return self.unconverged(q)
        right = np.flatnonzero((xs > lo) & (f < -e))
        if not len(right):
            return self.unconverged(q)
        hi = float(xs[right[0]])
        f_hi = self.f(hi)
        if f_lo is None:
            f_lo = self.f(lo)
        if (f_lo > self.eps(lo) or lo == 0.0) and f_hi < -self.eps(hi):
            return self.close(lo, f_lo, hi, f_hi)
        return self.unconverged(q)

    def close(self, lo: float, f_lo: float, hi: float, f_hi: float) -> QLimitResult:
        """Shrink [lo, hi] to width tol: f(lo) > eps(lo) or lo = 0, hi an upper bound on q*.

        Illinois secant steps (the value kept at an end that survives twice is
        halved), kept tol/2 inside the bracket so that a point on the far side
        of the root is tried, with a bisection whenever two steps did not
        halve the width.
        """
        tol = self.tol
        s_lo, s_hi, side, widths = f_lo, f_hi, 0, [hi - lo]
        while hi - lo > tol:
            if len(widths) >= 3 and hi - lo > widths[-3] / 2:
                m = 0.5 * (lo + hi)
            else:
                m = hi - s_hi * (hi - lo) / (s_hi - s_lo)
            m = min(max(m, lo + tol / 2), hi - tol / 2)
            if not lo < m < hi:
                break
            fm, e = self.f(m), self.eps(m)
            if fm > e:
                lo, f_lo, s_lo = m, fm, fm
                s_hi = s_hi / 2 if side == 1 else s_hi
                side = 1
            elif fm < -e:
                hi, f_hi, s_hi = m, fm, fm
                s_lo = s_lo / 2 if side == -1 else s_lo
                side = -1
            else:
                return self.band(lo, f_lo, hi, f_hi, m, e)
            widths.append(hi - lo)
        # the secant point of the final bracket, inside it
        value = min(max(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo), hi)
        return QLimitResult(value, lo, hi, True, self.evals)

    def band(self, lo: float, f_lo: float, hi: float, f_hi: float, m: float,
             e: float) -> QLimitResult:
        """The sign of f(m) is below the rounding bound e: the root lies within
        about 2e/slope of m, so probe m +- max(tol/2, 3e/slope) for new ends."""
        w = max(self.tol / 2, 3.0 * e * (hi - lo) / (f_lo - f_hi))
        if lo < m - w and self.f(m - w) > self.eps(m - w):
            lo = m - w
        if m + w < hi and self.f(m + w) < -self.eps(m + w):
            hi = m + w
        return QLimitResult(m, lo, hi, True, self.evals)


def q_limit(d: OffspringDistribution, r: int, p: float, tol: float = 1e-12) -> QLimitResult:
    """Limit of q_0 = 1-p, q_{t+1} = h_{r,p}(q_t): the largest fixed point q* of h on [0, 1-p].

    h is increasing and below x on (q*, 1-p], so iterates from 1-p are upper
    bounds on q*; each step adds eps(q), a bound on the error of h(q) - q,
    so that they stay upper bounds through rounding.  eps is ``_H_ROUNDING``
    (2^-48) per unit of x, P(xi < r) and the terms of x G(x); a sign of
    h(x) - x counts only where its size exceeds eps(x).

    Every third step the Aitken extrapolate of the last three iterates,
    moved down by half its distance, is proposed as a lower end l and
    accepted when h(l) - l > eps(l), which proves l <= q*.  The bracket
    [l, iterate] is then closed to width tol by Illinois secant steps with a
    bisection safeguard.  Where the sign of h(x) - x is undecided inside it,
    the bracket is about the band |h(x) - x| <= eps(x): at most a few eps
    over the slope |1 - h'| wider than tol.  The upper end assumes that G has
    no mode narrower than ``GRID_STEP``, the assumption ``max_G`` makes, so
    the bracket starts only once iterate - l <= GRID_STEP.  An iterate q_t at
    which h(q_t) - q_t lies within eps(q_t) is a stall: q_t - tol/2 is tried
    once as a lower end if tol/2 <= GRID_STEP, and unless it closes the
    bracket stepping ends as below.

    Stepping ends at step 32 (``_DECIDE_AT``), or at a stall before it, with
    one scan of G on ``max_G``'s grid.  On a law with P(xi < r) = 0, ``max_G``
    gives p_c and its err as in ``pc_exact``: p > p_c + err certifies 0, and for
    p within err of p_c, ``kernels.G_upper`` bounds G over pieces of [0, q_t]
    from the context's tables, where (1-p) G < 1 makes h(x) < x on (0, q_t]
    and the limit 0; where that fails the result is [0, q_t] with converged
    False.  The same bound certifies 0 before step 32 where the extrapolate
    points to 0.  Where P(xi < r) > 0 underflows to 0.0 (``poisson:b=760`` at
    r = 3, p above 4.6e-5), h(0) computes 0, and the limit, below the
    smallest double, comes back as the certified bracket [0, 0].

    Otherwise the limit is the largest root of (1-p) F = 1 on [0, q_t], with
    F = P(xi < r)/x + G, so that h(x) - x = x ((1-p) F - 1): right of x_star,
    where (1-p) M > 1, for p < p_c - err, and right of 0, where F is
    infinite, with mass below r.  G at that start, at the grid points up to
    q_t (read from the scan) and at q_t (evaluated) gives the last point
    with h(x) - x > eps, a lower end, and the next with h(x) - x < -eps, the
    upper end; 0 is a lower end of any root.  Where F rises right of the
    lower end, each grid maximum of F that a bound of G can lift to
    1/(1-p) is refined as ``max_G`` refines G's: a peak with h(x) - x > eps
    becomes the lower end, one within eps leaves [0, q_t] unconverged.  The
    upper end rests on the mode assumption of ``max_G``: G has no mode
    narrower than ``GRID_STEP``.  The bracket is closed as above; where none
    is found the result is [0, q_t] unconverged, and no search steps on.  q*
    jumps at p_c: q* -> x_star as p rises to p_c, and q* = 0 above it.
    ``iterations`` counts the evaluations of h, F and G, not the grid values
    read from the scan.

    At p = 0 no step is taken: h(1) = P(xi < r) + G(1) = 1 on every law, so
    q_t = 1 at every t, and the result is the certified bracket [1, 1], also
    on a law whose p_c is 0 (``heavy:r=2``).
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must lie in [0, 1]")
    if not tol > 0:  # NaN fails too
        raise PreconditionError("tol must be positive")
    ctx = make_context(d, r)
    if p == 0.0:
        return QLimitResult(1.0, 1.0, 1.0, True, 0)
    return _LimitSearch(ctx, p, tol).run()
