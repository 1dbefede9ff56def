"""Analytic lower and upper bounds on the critical probability.

Lower bounds: the branching-moment bound exp(-(E(xi)-1)/(r-1) - E(H_{xi-r}))
and its simplified form c_r e^{-b/(r-1)}/b; the (1+alpha)-moment bound
c_{r,alpha} (E xi^{1+alpha})^{-1/alpha}; and for r = 2 the per-atom
domination bound and the second-factorial-moment bound.

Upper bounds: E(1/((xi-1)(2xi-3))) and the weaker E(4/xi^2) for r = 2;
r/d for the d-regular tree; and 2er(r-1)e^{-b/(r-1)} for the pruned family.

Bounds with infinite moments degrade to the vacuous 0 or 1 with an explicit
flag instead of raising, so a report can always be assembled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .offspring import ENUM_CAP, HeavyTail, OffspringDistribution, PreconditionError, Pruned, pruned_threshold
from .critical import CriticalResult, pc_exact

__all__ = [
    "BoundEntry",
    "BoundsReport",
    "lb_branching_exact",
    "lb_branching_simplified",
    "ub_pruned",
    "lb_fort",
    "bounds_report",
    "sandwich_violations",
]


@dataclass(frozen=True, slots=True)
class BoundEntry:
    name: str
    kind: str  # "lower" | "upper"
    value: float  # clamped to [0, 1]
    raw: float    # as computed, possibly outside [0, 1]
    valid: bool
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class BoundsReport:
    entries: list[BoundEntry]
    pc_ref: Optional[CriticalResult]


def _entry(name: str, raw: float, note: str = "", valid: bool = True) -> BoundEntry:
    """The entry of bound ``name`` (an lb_ name is a lower bound), its value clamped to [0, 1]."""
    kind = "lower" if name.startswith("lb_") else "upper"
    return BoundEntry(name, kind, min(1.0, max(0.0, raw)), raw, valid, note)


def lb_branching_exact(d: OffspringDistribution, r: int) -> float:
    """exp(-(E(xi)-1)/(r-1) - E(H_{xi-r})).  Vacuous 0 for infinite mean."""
    if d.support_min < r:
        raise PreconditionError("lb_branching_exact requires support >= r")
    return _branching_entry(d, d.mean(), r).raw


def _branching_entry(d: OffspringDistribution, b: float, r: int) -> BoundEntry:
    """lb_branching_exact from the mean b; E(H_{xi-r}) is read only when b is finite."""
    if math.isinf(b):
        return _entry("lb_branching_exact", 0.0, "vacuous: infinite mean", False)
    return _entry("lb_branching_exact", math.exp(-(b - 1.0) / (r - 1.0) - d.harmonic_tail_moment(r)))


def lb_branching_simplified(b: float, r: int) -> float:
    """e^{-(r-2)/(r-1)} e^{-b/(r-1)} / b, a function of the mean alone."""
    if not b >= r:
        raise PreconditionError("lb_branching_simplified requires b >= r")
    return math.exp(-(r - 2.0) / (r - 1.0)) * math.exp(-b / (r - 1.0)) / b


def ub_pruned(r: int, b: float) -> tuple[float, bool]:
    """(2er(r-1) e^{-b/(r-1)}, validity); valid once b > (r-1) log(4er)."""
    if r < 2:
        raise PreconditionError("r must be >= 2")
    value = 2.0 * math.e * r * (r - 1) * math.exp(-b / (r - 1.0))
    return value, b > pruned_threshold(r)


def alpha_bound_constant(r: int, alpha: float) -> float:
    """c_{r,alpha} = ((r-1)/r) min(c', c'').

    c' = (h(b*)/(2(1+alpha)))^(1/alpha) with b* the minimizer of
    h(y) = 1 - alpha(y - 2 y^(r-1+alpha)) (h == 1 when r = 2);
    c'' = ((1-alpha)/(4 alpha (1+alpha)))^(1/alpha) for r = 2 and
    (r-2) (h(b*)/(6 alpha (1+alpha)))^(1/alpha) for r >= 3.
    """
    if not 0.0 < alpha < 1.0:
        raise PreconditionError("alpha must lie in (0, 1)")
    if r < 2:
        raise PreconditionError("r must be >= 2")
    if r == 2:
        h_min = 1.0
        c2 = ((1.0 - alpha) / (4.0 * alpha * (1.0 + alpha))) ** (1.0 / alpha)
    else:
        b_star = (1.0 / (2.0 * (r + alpha - 1.0))) ** (1.0 / (r + alpha - 2.0))
        h_min = 1.0 - alpha * (b_star - 2.0 * b_star ** (r - 1 + alpha))
        c2 = (r - 2) * (h_min / (6.0 * alpha * (1.0 + alpha))) ** (1.0 / alpha)
    c1 = (h_min / (2.0 * (1.0 + alpha))) ** (1.0 / alpha)
    return (r - 1.0) / r * min(c1, c2)


def _alpha_entry(m: float, r: int, alpha: float) -> BoundEntry:
    """lb_alpha_moment, c_{r,alpha} m^{-1/alpha} from m = E xi^{1+alpha}; vacuous 0 for infinite m."""
    if math.isinf(m):
        return _entry("lb_alpha_moment", 0.0, f"vacuous: infinite (1+{alpha:g})-moment", False)
    return _entry("lb_alpha_moment", alpha_bound_constant(r, alpha) * m ** (-1.0 / alpha), f"alpha={alpha:g}")


def _fort_terms(ks: np.ndarray, probs: np.ndarray, excess_2: float = 0.0) -> np.ndarray:
    """1 - 1/(p_k max_x g_k^2) for the atoms with positive mass.

    A positive ``excess_2`` is p_2 - 1/2 held apart from the double p_2; the
    k = 2 term 1 - 1/(2 p_2) is then taken as 2 excess_2 / (1 + 2 excess_2),
    which does not cancel when p_2 is close to 1/2.
    """
    pos = probs > 0.0
    ks = np.asarray(ks[pos], dtype=float)
    # log of max_x g_k^2: log 2 at k = 2, else the peak-value formula
    log_maxg = np.where(
        ks == 2,
        math.log(2.0),
        (ks - 1) * np.log(ks) + (ks - 2) * np.log(np.maximum(ks - 2, 1)) - (2 * ks - 3) * np.log(ks - 1),
    )
    # an atom of subnormal mass makes its term -inf, whether or not the quotient overflows
    with np.errstate(over="ignore"):
        terms = 1.0 - np.exp(-log_maxg) / probs[pos]
    if excess_2 > 0.0:
        terms[ks == 2] = 2.0 * excess_2 / (1.0 + 2.0 * excess_2)
    return terms


def _excess_2(d: OffspringDistribution) -> float:
    """p_2 - 1/2 for a heavy-tail body with r = 2 (body mass 1/2 at k = 2): its atom at 2; else 0."""
    if isinstance(d, HeavyTail) and d.r == 2:
        return sum(w for k, w in d.atoms if k == 2)
    return 0.0


def lb_fort(d: OffspringDistribution) -> float:
    """Best per-atom domination lower bound for r = 2; may be negative.

    Per-atom kernel maxima: g_2^2 peaks at 2; g_k^2 peaks at
    k^(k-1) (k-2)^(k-2) / (k-1)^(2k-3) for k >= 3.  Atoms with zero mass
    contribute nothing.  Every peak is at most 2, so an atom k > m
    contributes at most 1 - 1/(2 p_k) <= 1 - 1/(2 tail(m)); the scan over
    the support stops at the first m where that cannot beat the best term,
    or at the ``ENUM_CAP``-th atom, the most a support lists, with the best
    term so far: each term is a lower bound on its own (a heavy law of large
    threshold s would scan toward k ~ 2 s^2).  A pruned law with r = 2 has
    p_2 = 1/2 + a, with a its atom at 2; its k = 2 term is 2a/(1 + 2a), read
    from a rather than from the double p_2.
    """
    if d.support_min < 2:
        raise PreconditionError("lb_fort requires support >= 2")
    top, cap = 2 * d.support_min + 64, d.support_min + ENUM_CAP - 1
    best = -math.inf
    excess_2 = _excess_2(d)
    while True:
        ks, probs = d.support_probs(upto=min(top, cap))
        best = max(best, float(np.max(_fort_terms(ks, probs, excess_2), initial=-math.inf)))
        t = d.tail(int(ks[-1]))
        if t == 0.0 or 1.0 - 0.5 / t <= best or top >= cap:
            return best
        top *= 4


def _second_moment_entry(m2: float) -> BoundEntry:
    """lb_second_moment, the second-factorial-moment lower bound for r = 2, from m2 = E(xi)_2.

    The quadratic minorant of G peaks at x_v = 1 - 1/(m2 - 2); the usual form
    1/(2 m2 - 3) assumes x_v in [0,1], i.e. m2 >= 3.  Below that the maximum
    sits at x = 0 and the bound is 1 - 2/(6 - m2) (the two agree at m2 = 3;
    near-degenerate laws like the point mass at 2 would otherwise receive an
    invalid bound above their true p_c).
    """
    if math.isinf(m2):
        return _entry("lb_second_moment", 0.0, "vacuous: infinite second moment", False)
    return _entry("lb_second_moment", 1.0 / (2.0 * m2 - 3.0) if m2 >= 3.0 else 1.0 - 2.0 / (6.0 - m2))


def _second_moment_weak_entry(m2: float, mu: float) -> BoundEntry:
    """lb_second_moment_weak, 1/(2 E(xi^2)), the looser companion of lb_second_moment,
    from m2 = E(xi)_2 and mu = E(xi); E(xi^2) = m2 + mu."""
    return _entry("lb_second_moment_weak", 1.0 / (2.0 * (m2 + mu)))


def ub_regular_rd(d_reg: int, r: int) -> float:
    """r/d for the (d+1)-regular tree."""
    if d_reg < r:
        raise PreconditionError("ub_regular_rd requires d >= r")
    return r / d_reg


def bounds_report(
    d: OffspringDistribution,
    r: int,
    alpha: float = 0.5,
    with_reference: bool = True,
) -> BoundsReport:
    """Assemble every applicable bound for (d, r) with validity flags, reading each moment once.

    ``alpha`` is the exponent of the (1+alpha)-moment bound and must lie in (0, 1).
    """
    if r < 2:
        raise PreconditionError("bounds_report requires r >= 2")
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise PreconditionError("alpha must lie in (0, 1)")
    entries: list[BoundEntry] = []
    mean_val = d.mean()
    if d.support_min >= r:
        entries.append(_branching_entry(d, mean_val, r))
        if r <= mean_val < math.inf:
            entries.append(_entry("lb_branching_simplified", lb_branching_simplified(mean_val, r)))
    entries.append(_alpha_entry(d.alpha_moment(alpha), r, alpha))
    if r == 2 and d.support_min >= 2:
        v = lb_fort(d)
        entries.append(_entry("lb_fort", v, "negative values are vacuous but correct" if v < 0 else ""))
        m2 = d.second_factorial_moment()
        entries.append(_second_moment_entry(m2))
        if not math.isinf(m2):
            entries.append(_second_moment_weak_entry(m2, mean_val))
        entries.append(_entry("ub_fort", d.fort_upper_moment()))  # E(1/((xi-1)(2xi-3)))
        entries.append(_entry("ub_fort_weak", 4.0 * d.inverse_square_moment()))  # E(4/xi^2)
    if d.spec.family == "regular" and int(d.spec.b) >= r:
        entries.append(_entry("ub_regular_rd", ub_regular_rd(int(d.spec.b), r)))
    if isinstance(d, Pruned) and d.r == r:
        v, valid = ub_pruned(r, d.b)
        entries.append(_entry("ub_pruned", v, "" if valid else "below validity threshold", valid))
    pc_ref = pc_exact(d, r) if with_reference else None
    return BoundsReport(entries=entries, pc_ref=pc_ref)


def sandwich_violations(report: BoundsReport, tol: float = 1e-8) -> list[str]:
    """Valid lower bounds above p_c or uppers below it, within solver error."""
    if report.pc_ref is None:
        return []
    pc = report.pc_ref.pc
    slack = tol + report.pc_ref.err
    problems = []
    for e in report.entries:
        if e.valid and e.kind == "lower" and e.raw > pc + slack:
            problems.append(f"{e.name} = {e.raw!r} exceeds pc = {pc!r}")
        elif e.valid and e.kind == "upper" and e.raw < pc - slack:
            problems.append(f"{e.name} = {e.raw!r} is below pc = {pc!r}")
    return problems
