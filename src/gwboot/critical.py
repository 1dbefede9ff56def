"""Critical probabilities and the survival-probability recursion.

p_c = 1 - 1/M where M is the maximum of the kernel mixture G on [0,1];
laws with mass below the threshold get p_c = 1 outright, because pairs of
adjacent low-degree vertices eventually form healthy blocking sets.

The survival sequence starts at q_0 = 1 - p and iterates q_{t+1} =
h_{r,p}(q_t); it decreases to the largest fixed point of h, which is
positive exactly in the subcritical regime p < p_c.  ``q_limit`` brackets
that limit instead of stepping until the step is small: the iterates are
upper bounds, an Aitken extrapolate with h(l) > l is a lower bound, and a
safeguarded secant closes the bracket.  A limit of 0 has two certificates,
a bound of G over pieces of [0, q_t] from the kernel tables and, at step 32,
p_c itself, formed from the maximum of G by the rule ``pc_exact`` uses;
within its err of p_c only the bound can certify 0, and else the limit is
left as the interval [0, q_t].  Below p_c - err the same maximum places the
limit right of x_star, where G on the grid, read from the maximum's scan,
brackets it.
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

Q_ITERATION_CAP = 1_000_000


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
    evaluations of h and of G; the grid values read from ``max_G``'s scan
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
# the step at which a search that can still reach 0 asks max_G for the side of p_c
_DECIDE_AT = 32


class _LimitSearch:
    """One ``q_limit`` call: the context, p, tol and the evaluations made so far.

    ``run`` steps from 1 - p and tries Aitken's lower end every third step.  A
    search that can still reach 0 stops at step ``_DECIDE_AT``, or at a stall
    that one probe at q - tol/2 does not close, and asks ``max_G`` once
    (``decide_by_max``): a certified 0 above p_c + err, within err a 0 that
    ``zero_certified`` proves or else [0, q] unconverged, and below p_c - err
    one grid bracket right of x_star (``bracket_right_of``).  Where that
    finds no bracket, and on every law with mass below r, the search steps on
    to the cap.
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

    def eps(self, x: float) -> float:
        """Bound on the error of ``f(x)`` against h(x) - x: ``_H_ROUNDING`` per unit
        of x, P(xi < r) and the terms of x G(x)."""
        ctx, p = self.ctx, self.p
        return _H_ROUNDING * (x + (1.0 - p) * (ctx.prob_below + x * self.terms))

    def certified_zero(self) -> QLimitResult:
        return QLimitResult(0.0, 0.0, 0.0, True, self.evals)

    def run(self) -> QLimitResult:
        ctx, p = self.ctx, self.p
        can_die = ctx.prob_below == 0.0  # with mass below r, h(0) > 0 and the limit too
        q, x1, x0 = 1.0 - p, None, None
        zero_from, t = q, 0
        while self.evals < Q_ITERATION_CAP:
            if q == 0.0:
                return self.certified_zero()
            # h(q) + eps(q) >= the exact h(q) >= q*, so every iterate stays an
            # upper bound on q* through rounding
            e = self.eps(q)
            h_q = _step(ctx, p, q)
            self.evals += 1
            if h_q + e >= q:
                # a stall, h(q) - q within eps(q): a lower end tol/2 below q closes
                # the bracket, or else p lies next to p_c
                if self.tol / 2 <= GRID_STEP:
                    lower = max(q - self.tol / 2, 0.0)
                    f_lower = self.f(lower)
                    if f_lower > self.eps(lower):
                        return self.close(lower, f_lower, q, h_q - q)
                res = self.decide_by_max(q) if can_die else None
                return res or QLimitResult(q, 0.0, q, False, self.evals)
            x0, x1, q = x1, q, h_q + e
            t += 1
            if can_die and t == _DECIDE_AT:
                res = self.decide_by_max(q)
                if res is not None:
                    return res
                can_die = False
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
        return QLimitResult(q, 0.0, q, False, self.evals)

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

    def decide_by_max(self, q: float) -> Optional[QLimitResult]:
        """The side of p_c that p lies on, by ``pc_exact``'s rule: the limit 0 for
        p > p_c + err.  Where p lies within err of p_c the limit is 0 if
        ``zero_certified(q)`` proves it, else [0, q] unconverged.  For
        p < p_c - err the limit is positive: the root right of x_star that
        ``bracket_right_of`` closes, or None (step on) where it finds no bracket."""
        res = kernels.max_G(self.ctx)
        pc, err = _pc_of_max(res)
        if self.p > pc + err:
            return self.certified_zero()
        if self.p < pc - err:
            return self.bracket_right_of(res, q)
        if self.zero_certified(q):
            return self.certified_zero()
        return QLimitResult(q, 0.0, q, False, self.evals)

    def bracket_right_of(self, res: kernels.MaxResult, q: float) -> Optional[QLimitResult]:
        """q* closed from a bracket read off one array of G, or None.

        For p < p_c - err, (1-p) G(x_star) > 1, and q >= q* since q is an
        iterate, so (1-p) G = 1 has a root in [x_star, q].  G at x_star (M)
        and at the grid points in (x_star, q) is read from ``max_G``'s result
        ``res``, and G at q is evaluated, one evaluation (``G_on_grid``).
        If those values never rise (by more than G's rounding, 2 ``_H_ROUNDING``
        per unit of ``terms``), the last point with f > eps is a lower end,
        proven as any: f(lo) > eps(lo) means q* >= lo.  The next point with
        f < -eps is the upper end.  It rests on the assumption ``max_G`` makes,
        that G has no mode narrower than ``GRID_STEP``: then grid values that do
        not rise on [x_star, q] mean that G decreases there, so (1-p) G = 1 has
        one root there, and that root is q*.  Where x_star = 0 and no grid point
        has f > eps, the root lies below the grid, and ``halving`` finds it.  The
        bracket's two ends are evaluated again by the scalar ``f`` that ``close``
        goes on with (G - 1 + 1 on the grid, and the array path of a point mass,
        a heavy or a pruned law, are a few ulps off it).  None where G rises
        (another mode right of x_star), where no bracket is found, or where the
        scalar values do not confirm it.
        """
        if not res.x_star < q:
            return None
        self.evals += 1
        ends = self.ends_on(*kernels.G_on_grid(self.ctx, res, q))
        if ends == (None, None) and res.x_star == 0.0:
            return self.halving(q)
        if ends is None or None in ends:
            return None
        lo, hi = ends
        f_lo, f_hi = self.f(lo), self.f(hi)
        if f_lo > self.eps(lo) and f_hi < -self.eps(hi):
            return self.close(lo, f_lo, hi, f_hi)
        return None

    def halving(self, q: float) -> Optional[QLimitResult]:
        """q* closed below the first grid point, where x_star = 0 and no grid point
        has f > eps, or None.

        The lower end is the first of q/2, q/4, ... with f > eps, the upper end
        the next point back up, doubling toward q, with f < -eps; each is taken
        by the scalar ``f``.  The grid values on [0, q], which do not rise, keep
        the mode assumption ``bracket_right_of`` states.
        """
        fs = []  # f(q 2^-k) for k = 1, 2, ..., none of them above eps
        while True:
            lo = math.ldexp(q, -len(fs) - 1)
            if lo == 0.0:
                return None
            f_lo = self.f(lo)
            if f_lo > self.eps(lo):
                break
            fs.append(f_lo)
        for k in range(len(fs), -1, -1):
            hi = math.ldexp(q, -k)
            f_hi = fs[k - 1] if k else self.f(q)
            if f_hi < -self.eps(hi):
                return self.close(lo, f_lo, hi, f_hi)
        return None

    def ends_on(self, xs: np.ndarray, vals: np.ndarray) -> Optional[tuple]:
        """(lo, hi) among the increasing points xs, where G = vals: lo the last
        point with f > eps, hi the next with f < -eps, each None where there is
        none.  None where the values rise."""
        if (np.diff(vals) > 2.0 * _H_ROUNDING * self.terms).any():
            return None
        f, e = (1.0 - self.p) * (xs * vals) - xs, self.eps(xs)
        above = np.flatnonzero(f > e)
        if not len(above):
            return None, None
        i = above[-1]
        below = np.flatnonzero(f[i + 1:] < -e[i + 1:])
        return float(xs[i]), (float(xs[i + 1 + below[0]]) if len(below) else None)

    def close(self, lo: float, f_lo: float, hi: float, f_hi: float) -> QLimitResult:
        """Shrink [lo, hi] to width tol: f(lo) > eps(lo), hi an upper bound on q*.

        Illinois secant steps (the value kept at an end that survives twice is
        halved), kept tol/2 inside the bracket so that a point on the far side
        of the root is tried, with a bisection whenever two steps did not
        halve the width.
        """
        tol = self.tol
        s_lo, s_hi, side, widths = f_lo, f_hi, 0, [hi - lo]
        while hi - lo > tol and self.evals < Q_ITERATION_CAP:
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
    once as a lower end, and where it fails the search asks ``max_G`` as below
    or, with mass below r, ends at [0, q_t] unconverged.

    Two certificates cover a limit of 0 (with P(xi < r) = 0).  Where the
    extrapolate points to 0, ``kernels.G_upper`` bounds G over pieces of
    [0, q_t] from the context's tables, and (1-p) G < 1 there makes h(x) < x
    on (0, q_t].  A search still open at step 32 (``_DECIDE_AT``), or stalled
    before it, calls ``max_G`` once, and p_c and its err are formed from it
    as in ``pc_exact``: p > p_c + err certifies 0, and for p within err of
    p_c the bound on G above is tried on [0, q_t], and where it fails the
    result is [0, last iterate] with converged False.  Where P(xi < r) > 0
    underflows to 0.0 (``poisson:b=760`` at r = 3, p above 4.6e-5), h(0)
    computes 0, and the limit, below the smallest double, comes back as the
    certified bracket [0, 0].

    For p < p_c - err the limit is the root of (1-p) G = 1 right of x_star,
    the maximum's location: G at x_star (M) and at ``max_G``'s grid points
    in (x_star, q_t) is read from its scan and G at q_t is evaluated, and
    where those values never rise (within G's rounding) the last point with
    h(x) - x > eps and the next with h(x) - x < -eps bracket the limit,
    closed as above.  The upper end rests on the mode assumption of ``max_G``
    again: G has no mode narrower than ``GRID_STEP``.  Where x_star = 0 and
    the root lies below the first grid point, q_t is halved until h(x) - x >
    eps, and the next point back up with h(x) - x < -eps is the upper end.  q* jumps at p_c:
    q* -> x_star as p rises to p_c, and q* = 0 above it.

    Where the values rise (another mode right of x_star), where no bracket
    is found, and on every law with mass below r, the search steps on as
    before, Aitken's lower ends and all.  Every search ends after
    ``Q_ITERATION_CAP`` evaluations, unconverged.  ``iterations`` counts the
    evaluations of h and of G, not the grid values read from ``max_G``.

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
