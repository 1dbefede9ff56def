"""Critical probabilities and the survival-probability recursion.

p_c = 1 - 1/M where M is the maximum of the kernel mixture G on [0,1];
laws with mass below the threshold get p_c = 1 outright, because pairs of
adjacent low-degree vertices eventually form healthy blocking sets.

The survival sequence starts at q_0 = 1 - p and iterates q_{t+1} =
h_{r,p}(q_t); it decreases to the largest fixed point of h, which is
positive exactly in the subcritical regime p < p_c.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .offspring import DistributionSpec, OffspringDistribution, PreconditionError
from . import kernels
from .kernels import GEvalContext, make_context

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


@dataclass(frozen=True)
class CriticalResult:
    pc: float
    x_star: float
    M: float
    method: str  # "maximization" | "closed-form" | "subcritical-mass"
    err: float
    spec: Optional[DistributionSpec] = None
    r: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "pc": self.pc,
            "x_star": self.x_star,
            "M": self.M,
            "method": self.method,
            "err": self.err,
            "spec": self.spec.label() if self.spec else None,
            "r": self.r,
        }


def pc_exact(d: OffspringDistribution, r: int) -> CriticalResult:
    """Critical probability via maximization of G.

    If P(xi < r) > 0 the tree almost surely contains initially healthy
    blocking pairs for every p < 1, so p_c = 1.  Near M = 1 (e.g. the heavy
    tail) the result carries an absolute error of order eps_G rather than a
    claim of exactness, and pc is clamped to [0, 1]: a truncated M just
    below 1 would otherwise report a p_c below 0 (err is left as it is).
    """
    if r < 2:
        raise PreconditionError("pc_exact requires r >= 2")
    if d.prob_below(r) > 0.0:
        return CriticalResult(
            pc=1.0, x_star=0.0, M=math.inf, method="subcritical-mass", err=0.0,
            spec=d.spec, r=r,
        )
    res = kernels.max_G(make_context(d, r))
    pc = min(max(res.M_minus_1 / res.M, 0.0), 1.0)
    err = (res.err + 1e-14) / res.M**2 + 1e-15
    return CriticalResult(
        pc=pc, x_star=res.x_star, M=res.M, method="maximization", err=err,
        spec=d.spec, r=r,
    )


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
    converged: bool

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
    converged = len(values) >= 2 and abs(values[-1] - values[-2]) < 1e-15
    return QTrace(p=p, r=r, values=values, converged=converged)


@dataclass(frozen=True)
class QLimitResult:
    """Limit of the survival recursion; an interval when the cap is hit."""

    value: float
    lower: float
    upper: float
    converged: bool
    iterations: int

    def __float__(self):
        return self.value


def q_limit(d: OffspringDistribution, r: int, p: float, tol: float = 1e-12) -> QLimitResult:
    """Iterate h until successive values differ by less than tol.

    On convergence the value approximates the largest fixed point of
    h_{r,p}, reported with the interval [max(value - tol, 0), value].
    If the iteration cap is reached the true limit is only known
    to lie in [0, last value]; we return that interval instead of a point.
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must lie in [0, 1]")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    ctx = make_context(d, r)
    q = 1.0 - p
    for t in range(1, Q_ITERATION_CAP + 1):
        q_next = _step(ctx, p, q)
        if abs(q - q_next) < tol:
            return QLimitResult(value=q_next, lower=max(q_next - tol, 0.0), upper=q_next,
                                converged=True, iterations=t)
        q = q_next
    return QLimitResult(value=q, lower=0.0, upper=q, converged=False,
                        iterations=Q_ITERATION_CAP)
