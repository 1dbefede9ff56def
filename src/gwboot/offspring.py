"""Offspring distributions for Galton-Watson trees.

Every distribution here is an integer law with support contained in
{1, 2, 3, ...}; mass at 0 is rejected because the corresponding tree would
be finite with positive probability.  Each family is declared once, in the
table ``_FAMILIES`` at the end of the module: its spec name, its parameters
in label order and its class.  ``DistributionSpec.label``, ``parse_spec``,
``make_distribution`` and the refusal of a parameter the family does not take
all read that row.  The families, each with its spec name and parameters:

* ``regular`` (``regular:b``)          -- point mass at b (the b-ary tree)
* ``two_point`` (``twopoint:b,a``)     -- mass (a-b)/(a-2) at 2 and (b-2)/(a-2) at a, mean b
* ``shifted_poisson`` (``poisson:b``)  -- 2 + Poisson(b-2), mean b
* ``shifted_geometric`` (``geometric:b``) -- 2 + Geometric_0(1/(b-1)), mean b
* ``heavy_tail`` (``heavy:r``)         -- pmf (r-1)/(k(k-1)) on k >= r, infinite mean
* ``pruned`` (``pruned:r,b``)          -- heavy_tail(r) truncated to {r..k1} with the
  removed mass reassigned to r and 2r+1 so that the mean equals b exactly
* ``explicit_pmf`` (``pmf:k=p,...``)   -- finite list of (k, probability) atoms

PMFs of the rational families (regular, two_point, heavy_tail and the
pruned body) are exposed as ``fractions.Fraction`` values; the shifted
families are floating point.  Moments that diverge are reported as the
distinguished value ``math.inf`` rather than raising.  Each law is held
once, and ``pmf``, ``sample`` and every moment read that holding; each
moment is defined once, as an expectation E f(xi) taken in one array pass:

* the regular, two-point and explicit laws share one finite base: their
  atoms of positive mass with exact pmf values, also as read-only (ks,
  probs) arrays.  A moment is the ``math.fsum`` of f(ks) probs;
* the shifted laws end each sum where the law ends.  The Poisson law reads
  its tail, P(xi < r), moments and atoms from one table of P(X = j), j <= J =
  floor(lam + 15 sqrt(lam)) + 100, divided by its own sum: by Bernstein's
  bound less than e^-112 lies past J.  The geometric law doubles its end until
  its remainder bound is negligible.  Each refuses more than ``ENUM_CAP``
  atoms (``refuse_past_cap``); the kernels evaluate both laws by thinning
  (``thinned``), with O(r^2) closed-form terms and no cut;
* the heavy and pruned laws are one body: ``HeavyTail`` is the pmf
  (r-1)/(k(k-1)) on r <= k <= ``top`` plus a tuple of (k, mass) ``atoms``,
  with no top and no atoms for the heavy law; ``Pruned`` sets top = k1 and
  its two atoms, from k0, K and alpha taken with decimal harmonic numbers
  that keep 50 digits of K, so pruned laws build for every b up to 100 at
  r = 2..4.  A moment sums the body's first 2000 terms and takes the rest in
  closed form (Euler-Maclaurin sums of powers, and summation by parts for
  harmonic numbers), infinite where the series diverges; ``sample`` inverts
  the body's CDF 1 - (r-1)/k between the atoms.

Every other law samples through one ``AliasTable`` on the base class, built
on its first draw in exact integers: the finite laws' atoms, the Poisson
table's entries of nonzero weight, and the geometric atoms up to a
memoryless tail column.  Every law of more than one atom reads one raw
64-bit word per draw (and a geometric draw in its tail column one more).
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = [
    "SpecError",
    "PreconditionError",
    "DistributionSpec",
    "OffspringDistribution",
    "make_distribution",
    "parse_spec",
    "harmonic_number",
]

INF = math.inf

_PMF_MASS_TOL = 1e-12
# the most atoms an enumeration may hold: a finite law's atoms at or above the
# threshold, a heavy body's listed atoms, the Poisson table's entries and the
# geometric law's atoms up to its cut at tail ``_REFUSAL_TAIL``
ENUM_CAP = 2_000_000
# integer parameters (regular b, two-point a, r, pmf support points) stop at
# 2^53, below which a double holds every integer and int64 holds them with room
_INT_PARAM_MAX = 2**53
_INT64_MAX = 2**63 - 1
_TINY = 2.0**-1022  # the smallest normal double


class SpecError(ValueError):
    """A distribution spec violates its invariants or cannot be parsed."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


def too_many_atoms(what: str) -> PreconditionError:
    """The one refusal of an enumeration past ``ENUM_CAP`` atoms."""
    return PreconditionError(f"{what} needs more than {ENUM_CAP} atoms; infeasible")


# ---------------------------------------------------------------------------
# harmonic numbers

_HARMONIC_CACHE_N = 20000
_HARMONIC_TABLE = []  # H_0.._HARMONIC_CACHE_N, read-only, built by the first call


def harmonic_number(n):
    """H_n = sum_{i=1}^n 1/i, with H_0 = 0, at an int or an integer array n >= 0.

    Up to the cache, a compensated cumulative sum within machine epsilon, built
    on first use.  Beyond, the psi series ln n + gamma + 1/(2n) - 1/(12n^2) +
    1/(120n^4): it alternates and envelops, so its first omitted term
    1/(252n^6) < 1e-27 bounds the truncation; ln n's rounding leaves a few ulps.
    """
    if not _HARMONIC_TABLE:
        table, s, c = np.zeros(_HARMONIC_CACHE_N + 1), 0.0, 0.0
        for i in range(1, _HARMONIC_CACHE_N + 1):
            y = 1.0 / i - c
            t = s + y
            c = (t - s) - y
            s = table[i] = t
        table.flags.writeable = False
        _HARMONIC_TABLE.append(table)
    table, array = _HARMONIC_TABLE[0], isinstance(n, np.ndarray)
    if (n.min(initial=0) if array else n) < 0:
        raise ValueError("harmonic_number needs n >= 0")
    if (n.max(initial=0) if array else n) <= _HARMONIC_CACHE_N:
        return table[n] if array else float(table[n])
    x = np.maximum(n, _HARMONIC_CACHE_N).astype(float) if array else float(n)
    inv2 = 1.0 / (x * x)
    series = np.log(x) + np.euler_gamma + 0.5 / x - inv2 * (1.0 / 12 - inv2 / 120)
    if not array:
        return float(series)
    return np.where(n <= _HARMONIC_CACHE_N, table[np.minimum(n, _HARMONIC_CACHE_N)], series)


# Euler's gamma to 120 digits, and B_2k/(2k) for k = 1..14 as (numerator, denominator)
_EULER_GAMMA_DIGITS = 120
_EULER_GAMMA = decimal.Decimal("0.577215664901532860606512090082402431042159335939923598805767"
                               "234884867726777664670936947063291746749514631447249807082481")
_BERNOULLI_OVER_2K = ((1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132), (-691, 32760), (1, 12),
                      (-3617, 8160), (43867, 14364), (-174611, 6600), (77683, 276),
                      (-236364091, 65520), (657931, 12), (-3392780147, 3480))


def _harmonic_decimal(n: int) -> decimal.Decimal:
    """H_n to the context's precision, which may be at most ``_EULER_GAMMA_DIGITS``.

    Below 100 the terms are summed; from 100 on H_n = ln n + gamma + 1/(2n)
    - sum_k B_2k/(2k n^2k) to k = 14, where the first omitted term
    |B_30|/(30 n^30) < 3e-53 (100/n)^30.
    """
    D = decimal.Decimal
    if n < 100:
        return sum((1 / D(i) for i in range(1, n + 1)), D(0))
    dn = D(n)
    total = dn.ln() + _EULER_GAMMA + 1 / (2 * dn)
    power = D(1)
    for num, den in _BERNOULLI_OVER_2K:
        power *= dn * dn
        total -= D(num) / (den * power)
    return total


# ---------------------------------------------------------------------------
# spec objects


@dataclass(frozen=True)
class DistributionSpec:
    """Validated description of an offspring law."""

    family: str
    b: Optional[float] = None
    a: Optional[int] = None
    r: Optional[int] = None
    pmf: Optional[tuple[tuple[int, float], ...]] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise SpecError(f"unknown family {self.family!r}")
        f = self.family
        params = _FAMILIES[f][1]
        extra = [x.name for x in fields(self)[1:]
                 if x.name not in params and getattr(self, x.name) is not None]
        if extra:
            raise SpecError(f"family {f} takes only {', '.join(params)}; got {', '.join(extra)}")
        if self.b is not None and not math.isfinite(self.b):
            raise SpecError(f"b must be finite; got {self.b!r}")
        ints = [self.a, self.r, self.b if f == "regular" else None] + [k for k, _ in self.pmf or ()]
        if any(abs(v) > _INT_PARAM_MAX for v in ints if v is not None):
            raise SpecError(f"integer parameters must lie within 2^53 = {_INT_PARAM_MAX}")
        if self.r is not None and not float(self.r).is_integer():  # NaN fails too
            raise SpecError(f"{f} requires integer r; got {self.r!r}")
        if f == "regular":
            if self.b is None or self.b != int(self.b) or self.b < 1:
                raise SpecError("regular requires integer b >= 1")
        elif f == "two_point":
            if self.a is None or self.b is None:
                raise SpecError("two_point requires parameters b and a")
            if int(self.a) != self.a:
                raise SpecError("two_point requires integer a")
            if not self.a >= self.b:
                raise SpecError("two_point requires a >= b")
            if not self.b > 2:
                raise SpecError("two_point requires b > 2")
        elif f in ("shifted_poisson", "shifted_geometric"):
            if self.b is None or not self.b > 2:
                raise SpecError(f"{f} requires b > 2")
        elif f == "heavy_tail":
            if self.r is None or self.r < 2:
                raise SpecError("heavy_tail requires integer r >= 2")
        elif f == "pruned":
            if self.r is None or self.r < 2:
                raise SpecError("pruned requires integer r >= 2")
            if self.b is None or self.b < pruned_threshold(self.r):
                raise SpecError(f"pruned requires b >= (r-1)*log(4*e*r) = {pruned_threshold(self.r):.6f}")
        elif f == "explicit_pmf":
            if not self.pmf:
                raise SpecError("explicit_pmf requires at least one atom")
            total = 0.0
            seen = set()
            for k, p in self.pmf:
                if int(k) != k or k < 1:
                    raise SpecError("explicit_pmf support points must be integers >= 1 (mass at 0 rejected)")
                if k in seen:
                    raise SpecError(f"duplicate support point {k}")
                seen.add(k)
                if not p >= 0:  # NaN fails too
                    raise SpecError(f"probability at k={k} must be >= 0; got {p!r}")
                total += p
            if not abs(total - 1.0) <= _PMF_MASS_TOL:
                raise SpecError(f"probabilities sum to {total!r}, not 1")

    def label(self) -> str:
        """The spec string: the family's name and its parameters in the table's order."""
        name, params, _ = _FAMILIES[self.family]
        pairs = self.pmf if self.pmf is not None else [(k, getattr(self, k)) for k in params]
        return name + ":" + ",".join(f"{k}={_fmt(v)}" for k, v in pairs)


def _fmt(x) -> str:
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _parse_real(tok: str) -> float:
    tok = tok.strip()
    if "/" in tok:
        num, den = tok.split("/", 1)
        return float(Fraction(int(num), int(den)))
    return float(tok)


def parse_spec(text: str) -> DistributionSpec:
    """Parse a CLI distribution string such as ``regular:b=5`` or ``pmf:2=0.5,4=0.5``.

    Family names are case-insensitive; real parameters accept decimals or
    rationals ``p/q``.
    """
    text = text.strip()
    if ":" not in text:
        raise SpecError(f"malformed distribution spec {text!r} (expected family:params)")
    head, rest = text.split(":", 1)
    family = _SPEC_ALIASES.get(head.strip().lower())
    if family is None:
        raise SpecError(f"unknown family {head!r}")
    pairs = []
    for item in rest.split(","):
        if "=" not in item:
            raise SpecError(f"malformed parameter {item!r} in {text!r} (expected key=value)")
        pairs.append(item.split("=", 1))
    try:
        if family == "explicit_pmf":
            return DistributionSpec(family=family, pmf=tuple((int(k), _parse_real(p)) for k, p in pairs))
        params = {}
        for key, val in pairs:
            key = key.strip().lower()
            if key in params:
                raise SpecError(f"parameter {key} given twice in {text!r}")
            params[key] = val.strip()
        kwargs = {}
        if "b" in params:
            kwargs["b"] = _parse_real(params["b"])
        if "a" in params:
            kwargs["a"] = int(params["a"])
        if "r" in params:
            kwargs["r"] = int(params["r"])
        extra = set(params) - {"b", "a", "r"}
        if extra:
            raise SpecError(f"unknown parameters {sorted(extra)} for family {family}")
        return DistributionSpec(family=family, **kwargs)
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(f"cannot parse {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# distributions


class OffspringDistribution:
    """Common interface: pmf / tail mass / moments / sampling.

    ``support_max`` is None for the genuinely infinite families.  Each moment
    is defined once, as E f(xi) through the law's ``_expect(f, tail)``: f
    maps an integer array of k to f(k), and tail(a, n) is
    sum_{k=a}^{n} f(k)/(k(k-1)) in closed form (n None: to infinity), which
    the heavy-tail bodies use past their head.  A law overrides a moment
    only where it has an exact closed form: the shifted laws' mean b and
    E xi(xi-1).  ``pmf``, ``sample`` and ``_expect`` read one holding of the law.

    Every law whose atoms can be tabulated (all but the heavy body) draws
    through one ``AliasTable`` built from ``_tabulated`` on the first draw
    and kept on the law: one raw 64-bit word per child count.
    """

    spec: DistributionSpec
    support_min: int
    support_max: Optional[int]

    def pmf(self, k: int):
        raise NotImplementedError

    def tail(self, m: int) -> float:
        """P(xi > m)."""
        raise NotImplementedError

    def _expect(self, f, tail) -> float:
        """E f(xi); see the class docstring for f and tail."""
        raise NotImplementedError

    def mean(self) -> float:
        return self._expect(lambda ks: ks, lambda a, n: _power_series(1.0, _ONES, a, n))

    def second_factorial_moment(self) -> float:
        """E(xi(xi-1))."""
        return self._expect(lambda ks: ks * (ks - 1), lambda a, n: INF if n is None else n - a + 1.0)

    def alpha_moment(self, alpha: float) -> float:
        """E(xi^(1+alpha)) for 0 < alpha <= 1."""
        if not 0 < alpha <= 1:
            raise PreconditionError("alpha must lie in (0, 1]")
        return self._expect(lambda ks: ks ** (1.0 + alpha),
                            lambda a, n: _power_series(1.0 - alpha, _ONES, a, n))

    def harmonic_tail_moment(self, r: int) -> float:
        """E(H_{xi-r}); requires P(xi < r) = 0, that is support_min >= r."""
        if self.support_min < r:
            raise PreconditionError("harmonic_tail_moment requires support >= r")
        # an atom below r has no mass here, so its H_{k-r} may read as H_0
        return self._expect(lambda ks: harmonic_number(np.maximum(ks - r, 0)),
                            lambda a, n: _harmonic_tail(r, a, n))

    def fort_upper_moment(self) -> float:
        """E(1/((xi-1)(2xi-3))); requires support >= 2."""
        if self.support_min < 2:
            raise PreconditionError("fort_upper_moment requires support >= 2")
        return self._expect(lambda ks: 1.0 / ((ks - 1) * (2 * ks - 3)),
                            lambda a, n: _power_series(4.0, _FORT_COEFFS, a, n))

    def inverse_square_moment(self) -> float:
        """E(1/xi^2)."""
        return self._expect(lambda ks: 1.0 / ks**2, lambda a, n: _power_series(4.0, _ONES, a, n))

    def prob_below(self, r: int) -> float:
        """P(xi < r)."""
        return 0.0 if r <= self.support_min else 1.0 - self.tail(r - 1)

    def support_probs(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """(ks, probs) arrays for the support truncated at ``upto``."""
        raise NotImplementedError

    def _tabulated(self) -> tuple[list[int], list, int]:
        """(values, masses, step) for ``AliasTable.build``: see there."""
        raise NotImplementedError

    @functools.cached_property
    def _alias(self) -> AliasTable:
        return AliasTable.build(*self._tabulated())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` child counts from the law's alias table (``AliasTable.draw``)."""
        return self._alias.draw(rng, size)

    def label(self) -> str:
        return self.spec.label()

    def __repr__(self):
        return f"<{type(self).__name__} {self.label()}>"


class _Finite(OffspringDistribution):
    """A law on finitely many atoms of positive mass; a zero atom is dropped.

    The atoms map k to its exact pmf value (a ``Fraction`` for the regular and
    two-point laws, the spec's float for an explicit pmf), which ``pmf`` looks
    up (an exact 0 off the support).  The same atoms as read-only (ks, probs)
    arrays give ``support_probs`` (whatever ``upto`` is) and every moment (one
    ``math.fsum``); ``sample`` tabulates the exact values.
    """

    def __init__(self, spec: DistributionSpec, atoms: list):
        self.spec = spec
        self._pmf = {k: p for k, p in sorted(atoms) if p > 0}
        self.ks = np.array(list(self._pmf), dtype=np.int64)
        self.probs = np.array([float(p) for p in self._pmf.values()])
        self.ks.flags.writeable = self.probs.flags.writeable = False
        self.support_min = int(self.ks[0])
        self.support_max = int(self.ks[-1])

    def pmf(self, k):
        return self._pmf.get(k, 0)

    def tail(self, m):
        return float(self.probs[self.ks > m].sum())

    def prob_below(self, r):
        return float(self.probs[self.ks < r].sum())

    def support_probs(self, upto):
        return self.ks, self.probs

    def _expect(self, f, tail):
        return math.fsum((f(self.ks) * self.probs).tolist())

    def _tabulated(self):
        return list(self._pmf), list(self._pmf.values()), 0


class Regular(_Finite):
    """Point mass at b: the b-ary tree."""

    def __init__(self, spec: DistributionSpec):
        self.b = int(spec.b)
        super().__init__(spec, [(self.b, Fraction(1))])


class TwoPoint(_Finite):
    """Mass at 2 and at a, tuned so the mean equals b."""

    def __init__(self, spec: DistributionSpec):
        self.b = spec.b
        self.a = int(spec.a)
        if float(self.b) == int(self.b):
            bq = Fraction(int(self.b))
        else:
            bq = Fraction(self.b).limit_denominator(10**12)
        self.p2 = Fraction(self.a - bq, self.a - 2)
        self.pa = Fraction(bq - 2, self.a - 2)
        super().__init__(spec, [(2, self.p2), (self.a, self.pa)])


class ExplicitPMF(_Finite):
    """The spec's (k, probability) atoms."""

    def __init__(self, spec: DistributionSpec):
        super().__init__(spec, [(k, float(p)) for k, p in spec.pmf])


class _LightTail(OffspringDistribution):
    """The shifted Poisson and geometric laws: support {2, 3, ...} and mean b.

    Each law's ``refuse_past_cap`` refuses it where it would list more than
    ``ENUM_CAP`` atoms; ``make_context`` and every moment sum call it.
    The kernels read neither atoms nor a cut: ``thinned`` and ``thinned_tail``
    give G and its tail in closed form by thinning.  Keep each child with
    probability v: xi = 2 + X keeps Bin(2, v) of its first two children and a
    part M of X, whose law has a closed form for both families.
    """

    def __init__(self, spec: DistributionSpec):
        self.spec = spec
        self.b = float(spec.b)
        self.support_min = 2
        self.support_max = None

    def mean(self):
        return self.b

    def thinned(self, r: int, u, v, w, lu, lv):
        """E[sum_{i<r} C(xi, i) v^i u^(xi-i); xi >= r] at u, v in (0, 1], floats or arrays alike.

        w = 1 - u, lu = log u and lv = log v come from the caller.  At v = 1 - u
        this is P(Bin(xi, v) < r <= xi) = u G(u); with v = 1 - a and u = b it is
        b times ``G_upper``'s bound on [a, b].  With L_m = E[C(X, m) v^m u^(X-m);
        X >= r - 2] (``_thin_low``) and P_k = sum_{m<k} L_m it is
        u^2 P_r + 2uv P_(r-1) + v^2 P_(r-2): a sum of non-negative terms.
        """
        prefix, acc = [0.0], 0.0
        for term in self._thin_low(r, u, v, w, lu, lv):
            acc = acc + term
            prefix.append(acc)
        return u * u * prefix[r] + 2.0 * u * v * prefix[r - 1] + v * v * prefix[r - 2]

    def thinned_tail(self, r: int, x, y, ly):
        """T(y) = P(Bin(xi, y) >= r) at x = 1 - y in (0, 1), floats or arrays alike; ly = log y.

        With U_n = P(M >= n) for the part M of X kept with probability y
        (``_thin_high``), T = x^2 U_r + 2xy U_(r-1) + y^2 U_(r-2).
        """
        up = self._thin_high(r, x, y, ly)
        return x * x * up[r] + 2.0 * x * y * up[r - 1] + y * y * up[r - 2]

    def exp_size(self, r: int) -> float:
        """A bound on the parts of any exp argument in ``thinned`` at threshold r
        where the term does not underflow: 0, as the geometric form takes no exp."""
        return 0.0

    def _thin_low(self, r, u, v, w, lu, lv) -> list:
        raise NotImplementedError

    def _thin_high(self, r, x, y, ly) -> list:
        raise NotImplementedError


class ShiftedPoisson(_LightTail):
    """2 + Poisson(b-2): ``tail``, ``prob_below``, ``support_probs`` and every
    moment read one table of P(X = j) and P(X >= j), X ~ Poisson(lam), j = 0..J.

    J = floor(lam + 15 sqrt(lam)) + 100: by Bernstein's bound
    P(X >= lam + t) <= exp(-t^2/(2(lam + t/3))) at t = 15 sqrt(lam) + 100, less
    than e^-112 lies past J, which the table reads as 0.  From ``pmf`` at the
    mode m = floor(lam), the ratios lam/j above m and j/lam below it fill the
    table, which is divided by its own sum so that the anchor's rounding
    cancels.  Below the mode a product under 2^-1022 is a whole multiple of
    2^-1074 and stalls once a ratio j/lam rounds it back to itself; from the
    highest stall down the table reads 0.  Summing the stalled entries put
    P(xi < r) off by up to 1.3e-11 of max(P(xi < r), 2^-1022) at b = 1e5;
    zeroed, it is off by at most 8.2e-14 of that up to b = 1e6.  P(X >= j) is
    summed from the top and ``prob_below`` from j = 0, each from its small end,
    so a tiny P(xi < r) stays precise; whether it is positive is read from
    ``support_min`` (it underflows from b = 748 at r = 3).  A moment is one
    ``math.fsum`` over the whole table.  A table of more than ``ENUM_CAP``
    entries is refused before it is built, and from J alone
    (``refuse_past_cap``) where no table is asked for.
    """

    def __init__(self, spec: DistributionSpec):
        super().__init__(spec)
        self.lam = self.b - 2.0
        self._log_lam = math.log(self.lam)
        self._J = int(self.lam + 15.0 * math.sqrt(self.lam)) + 100  # the table's last j

    def refuse_past_cap(self):
        """Refuse a pmf table of more than ``ENUM_CAP`` entries (b > 1,978,801), from J alone."""
        if self._J >= ENUM_CAP:
            raise too_many_atoms(f"{self.label()}'s pmf table")

    def _thin_low(self, r, u, v, w, lu, lv):
        """L_m = e^(-lam w) (lam v)^m / m! P(Poisson(lam u) >= r - 2 - m), m < r.

        Thinning splits X into Poisson(lam v) kept and Poisson(lam u) dropped; the
        first factor is one exp of its log, at v = w the Poisson(lam v) pmf at m.
        """
        dropped = _poisson_upper(self.lam * u, lu + self._log_lam, r - 2)
        t, lkeep = -self.lam * w, lv + self._log_lam
        return [_exp(t + m * lkeep - math.lgamma(m + 1.0)) * dropped[max(r - 2 - m, 0)] for m in range(r)]

    def _thin_high(self, r, x, y, ly):
        """P(Poisson(lam y) >= n), n = 0..r."""
        return _poisson_upper(self.lam * y, ly + self._log_lam, r)

    def exp_size(self, r):
        """745 + r log(lam + 1) + log r!: an argument m log(lam v) - lam w - log m!
        (or i log(lam u) - lam u - log i!) at least -745 has no part larger."""
        return 745.0 + r * math.log1p(self.lam) + math.lgamma(r + 1.0)

    def pmf(self, k):
        if k < 2:
            return 0.0
        j = k - 2
        return math.exp(-self.lam + j * math.log(self.lam) - math.lgamma(j + 1))

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (P(X = j), P(X >= j)) for j = 0..J, built on first use."""
        self.refuse_past_cap()
        lam, J = self.lam, self._J
        m = int(lam)
        # p[j] = P(X=j)/P(X=j-1) above m and P(X=j)/P(X=j+1) below it, p[m] = P(X=m)
        j = np.arange(J + 1.0)
        p = np.empty(J + 1)
        np.divide(lam, j[m + 1:], out=p[m + 1:])
        np.divide(j[1:m + 1], lam, out=p[:m])
        p[m] = self.pmf(m + 2)
        np.multiply.accumulate(p[m:], out=p[m:])
        np.multiply.accumulate(p[m::-1], out=p[m::-1])
        # a subnormal product that a ratio j/lam < 1 no longer lowers has stalled
        stalls = np.flatnonzero((p[:m] < _TINY) & (p[:m] >= p[1:m + 1]))
        if len(stalls):
            p[:stalls[-1] + 1] = 0.0
        p /= p.sum()
        above = np.add.accumulate(p[::-1])[::-1]
        p.flags.writeable = above.flags.writeable = False
        return p, above

    def tail(self, m):
        if m < 2:
            return 1.0
        above = self._table[1]
        # the running sum may end a few ulps above 1
        return min(1.0, float(above[m - 1])) if m - 1 < len(above) else 0.0

    def prob_below(self, r):
        return 0.0 if r <= 2 else min(1.0, float(np.add.accumulate(self._table[0][:r - 2])[-1]))

    def second_factorial_moment(self):
        return self.b**2 - 2.0

    def support_probs(self, upto):
        """The table's atoms 2..upto, or 2..J+2 where upto lies past the table."""
        probs = self._table[0][:max(upto - 1, 0)]
        return np.arange(2, len(probs) + 2), probs

    def _expect(self, f, tail):
        ks, probs = self.support_probs(self._J + 2)
        return math.fsum((f(ks) * probs).tolist())

    def _tabulated(self):
        """Every entry of the pmf table; only those of nonzero weight stay atoms,
        which ends the table about 8.7 sd either side of lam at lam = 1e5 (5,541
        of its 104,842 entries).  Past J it leaves out less than e^-112."""
        p = self._table[0]
        return list(range(2, len(p) + 2)), p.tolist(), 0


class ShiftedGeometric(_LightTail):
    """P(xi = k+2) = (1/(b-1)) ((b-2)/(b-1))^k, k >= 0.

    Every moment here has 0 <= f(k) <= k^2 on k >= 2, and tail(m+1)/tail(m) = q = rho,
    so the pmf summed up to K leaves at most
    E(xi^2; xi > K) = K^2 tail(K) + sum_{j>=K} (2j+1) tail(j)
                   <= tail(K) (K^2 + (2K+1)/(1-q) + 2q/(1-q)^2).
    """

    def __init__(self, spec: DistributionSpec):
        super().__init__(spec)
        # log((b-2)/(b-1)), which stays below 0 where the ratio rounds to 1
        self.log_rho = math.log1p(-1.0 / (self.b - 1.0))
        # rho and 1 - rho, neither formed as a difference of the other
        self._rho, self._stop = (self.b - 2.0) / (self.b - 1.0), 1.0 / (self.b - 1.0)

    def _keep(self, u, w):
        """(1 - rho u, rho u), the first as (1 - rho) + rho w: no cancellation near u = 1."""
        return self._stop + self._rho * w, self._rho * u

    def _thin_low(self, r, u, v, w, lu, lv):
        """L_m = (1-rho)/(1-z) theta^m P(Bin(r-2, 1-z) <= m), z = rho u, theta = rho v/(1-z).

        The pair (kept, dropped) of X has P(m, d) = (1-rho) C(m+d, m) (rho v)^m (rho u)^d,
        and sum_{d >= n} C(m+d, m) z^d = (1-z)^-(m+1) P(Bin(m+n, 1-z) <= m).
        """
        keep, z = self._keep(u, w)
        theta, n = self._rho * v / keep, r - 2
        zs, ks = [1.0], [1.0]  # z^i and (1-z)^i, i <= r-2
        for _ in range(n):
            zs.append(zs[-1] * z)
            ks.append(ks[-1] * keep)
        out, below, scale = [], 0.0, self._stop / keep
        for m in range(r):
            if m < n:
                below = below + math.comb(n, m) * ks[m] * zs[n - m]
            out.append(scale * below if m < n else scale)
            scale = scale * theta
        return out

    def _thin_high(self, r, x, y, ly):
        """P(M >= n) = theta^n, n = 0..r: the kept part is geometric, theta = rho y/(1 - rho x)."""
        keep, _ = self._keep(x, y)
        theta, out = self._rho * y / keep, [1.0]
        for _ in range(r):
            out.append(out[-1] * theta)
        return out

    def pmf(self, k):
        if k < 2:
            return 0.0
        return math.exp((k - 2) * self.log_rho) / (self.b - 1.0)

    def tail(self, m):
        if m < 1:
            return 1.0
        return math.exp((m - 1) * self.log_rho)

    def prob_below(self, r):
        """1 - rho^(r-2) as -expm1: 1 - tail(r-1) cancels where rho is near 1."""
        return 0.0 if r <= 2 else -math.expm1((r - 2) * self.log_rho)

    def second_factorial_moment(self):
        return 2.0 * (self.b - 1.0) ** 2

    def _cut(self, t: float) -> int:
        """k = 4 + int(log t / log rho), which has (k-1) log rho < log t + 2 log rho:
        tail(k) = rho^(k-1) <= t, the two spare factors rho covering the rounding
        of the logs up to b of 1e13 (from about 1e15, far past the refusal, they do not)."""
        return 4 + int(math.log(t) / self.log_rho)

    def refuse_past_cap(self):
        """Refuse a law whose cut at tail ``_REFUSAL_TAIL`` passes ``ENUM_CAP`` atoms (b > 66,815)."""
        if self._cut(_REFUSAL_TAIL) > ENUM_CAP:
            raise too_many_atoms(f"{self.label()} truncated at tail {_REFUSAL_TAIL:g}")

    def _expect(self, f, tail):
        self.refuse_past_cap()
        K = self._cut(_LIGHT_TAIL_START)
        while True:
            # one chain of chunks into fsum, which rounds once: only a chunk is boxed at a time
            chunks = (np.arange(lo, min(lo + _SUM_CHUNK, K + 1)) for lo in range(2, K + 1, _SUM_CHUNK))
            total = math.fsum(itertools.chain.from_iterable((f(ks) * self._probs(ks)).tolist() for ks in chunks))
            t = self.tail(K)
            if t == 0.0:
                return total
            q = self.tail(K + 1) / t
            if t * (K * K + (2 * K + 1) / (1 - q) + 2 * q / (1 - q) ** 2) <= _REL_REMAINDER * total:
                return total
            K *= 2

    def _probs(self, ks):
        return np.exp((ks - 2) * self.log_rho) / (self.b - 1.0)

    def support_probs(self, upto):
        ks = np.arange(2, upto + 1)
        return ks, self._probs(ks)

    def _tabulated(self):
        """The atoms 2..L+1 and a tail column of mass rho^L, step L.

        L is the first length with rho^L <= 2^-64, at most ``_TABLE_ATOMS`` - 1.
        By memorylessness xi - L given xi >= L + 2 is xi again, so a draw of the
        tail column is L plus a fresh draw.  A draw reads 1/(1 - rho^L) words
        on average, about (b - 1)/L once L is at its cap; a law whose draw would
        read more than ``_TABLE_ATOMS`` is refused (b above about 1.7e7).
        """
        L = min(_TABLE_ATOMS - 1, math.ceil(-64.0 * math.log(2.0) / self.log_rho))
        if -math.expm1(L * self.log_rho) * _TABLE_ATOMS < 1.0:
            raise PreconditionError(f"sampling {self.label()} would read more than "
                                    f"{_TABLE_ATOMS} words per draw; infeasible")
        return list(range(2, L + 2)) + [0], [self.pmf(k) for k in range(2, L + 2)] + [self.tail(L + 1)], L


class HeavyTail(OffspringDistribution):
    """The heavy-tail body (r-1)/(k(k-1)) on r <= k <= ``top``, plus ``atoms``.

    The heavy law itself has no top (infinite mean, tail (r-1)/m) and no
    atoms; ``Pruned`` cuts the body at k1 and adds two (k, mass) atoms.
    Every moment is the body's sum (``_body_expect``) plus the atoms', and
    is infinite where the closed-form tail of an uncut body diverges.
    ``sample`` reads the same ``top`` and ``atoms``: with neither it is
    ceil((r-1)/(1-u)), clipped below at r.
    """

    top: Optional[int] = None
    atoms: tuple[tuple[int, float], ...] = ()

    def __init__(self, spec: DistributionSpec):
        self.spec = spec
        self.r = int(spec.r)
        self.support_min = self.r
        self.support_max = self.top

    def pmf(self, k):
        in_body = k >= self.r and (self.top is None or k <= self.top)
        body = Fraction(self.r - 1, k * (k - 1)) if in_body else Fraction(0)
        for j, w in self.atoms:
            if k == j:
                return float(body) + w
        return body

    def tail(self, m):
        r = self.r
        if m < r:
            return 1.0
        if self.top is None:
            return (r - 1) / m
        if m >= self.top:
            return 0.0
        # body mass on (m, top], plus the atoms above m
        return (r - 1) / m - (r - 1) / self.top + sum(w for j, w in self.atoms if j > m)

    def _expect(self, f, tail):
        body = _body_expect(self.r, self.top, f, tail)
        if not self.atoms:
            return body
        ks, ws = (np.array(c) for c in zip(*self.atoms))
        return math.fsum([body, *(ws * f(ks)).tolist()])

    def support_probs(self, upto):
        top = upto if self.top is None else min(self.top, upto)
        if top - self.r + 1 > ENUM_CAP:
            raise too_many_atoms(f"{self.label()} up to k = {top}")
        ks = np.arange(self.r, top + 1)
        probs = (self.r - 1.0) / (ks * (ks - 1.0))
        for j, w in self.atoms:
            if j <= top:
                probs[j - self.r] += w
        return ks, probs

    @functools.cached_property
    def _pieces(self) -> tuple[np.ndarray, ...]:
        """(edges, shift, lo, hi): the CDF cut into runs lo..hi of the body and atoms j..j.

        Piece i takes the uniforms in (edges[i-1], edges[i]]; on it
        F(k) = 1 - (r-1)/k + shift, the mass of the atoms up to k.
        """
        r = self.r
        pieces, shift, start = [], 0.0, r
        for j, w in self.atoms:
            if start < j:
                pieces.append((1.0 - (r - 1) / (j - 1) + shift, shift, start, j - 1))
            shift += w
            pieces.append((1.0 - (r - 1) / j + shift, shift, j, j))
            start = j + 1
        # a draw is at most (r-1) 2^53, so a top past int64 bounds nothing
        end = min(self.top or _INT64_MAX, _INT64_MAX)
        if start <= end:
            pieces.append((1.0, shift, start, end))
        edges, shifts, lo, hi = (np.array(c) for c in zip(*pieces))
        return edges[:-1], shifts, lo, hi

    def sample(self, rng, size):
        """The smallest k with F(k) >= u, by the piece of F that u falls in."""
        edges, shift, lo, hi = self._pieces
        u = rng.random(size)
        i = np.searchsorted(edges, u) if len(edges) else 0
        k = np.ceil((self.r - 1) / (1.0 - (u - shift[i]))).astype(np.int64)
        np.maximum(k, lo[i], out=k)
        return np.minimum(k, hi[i], out=k)


class Pruned(HeavyTail):
    """Heavy tail truncated at k1 with the freed mass moved to r and 2r+1.

    k0 is the largest m with (r-1)(H_{m-1} - H_{r-2}) <= b, k1 = k0 - 2r,
    A = (r-1)/k1 is the truncated mass, and alpha in (0,1) solves
    K/A = alpha r + (1-alpha)(2r+1) with K the unallocated part of the mean,
    which makes the mean exactly b.

    k0, K and alpha come from decimal harmonic numbers.  K is b less a body
    mean close to b, about (r-1)/k1 in size, so the working precision is 50
    digits beyond those of k0; alpha, whose formula cancels as alpha goes
    to 0, is rounded to a double only at the end.  With
    T = b/(r-1) + H_{r-2}, k0 is about e^(T - gamma), and since
    H_{m-1} ~ ln(m - 1/2) + gamma the nearest integer to e^(T - gamma) is
    k0 or one off; the search steps from it to H_{k0-1} <= T < H_{k0}.
    """

    def __init__(self, spec: DistributionSpec):
        r, b = int(spec.r), float(spec.b)
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = _EULER_GAMMA_DIGITS
            h_r = _harmonic_decimal(r - 2)
            # k0 has at most int(T/ln 10) + 1 digits and T at most 3 before the point
            prec = 55 + int((b / (r - 1) + float(h_r)) / math.log(10))
            if prec > _EULER_GAMMA_DIGITS:
                raise PreconditionError("pruned construction needs b/(r-1) + H_(r-2) < "
                                        f"{(_EULER_GAMMA_DIGITS - 54) * math.log(10):.2f}")
            ctx.prec = prec
            T = D(b) / (r - 1) + h_r
            k0 = int((T - _EULER_GAMMA).exp() + D("0.5"))
            h = _harmonic_decimal(k0 - 1)  # H_{k0-1} while k0 steps
            while h > T:
                k0 -= 1
                h -= 1 / D(k0)
            while h + 1 / D(k0) <= T:
                h += 1 / D(k0)
                k0 += 1
            if k0 <= 4 * r:
                raise PreconditionError(f"pruned construction needs k0 > 4r; got k0={k0}")
            k1 = k0 - 2 * r
            # K = b - (r-1)(H_{k1-1} - H_{r-2}) = (r-1)(T - H_{k1-1})
            K = (r - 1) * (T - h + sum(1 / D(j) for j in range(k1, k0)))
            alpha = (2 * r + 1 - K * k1 / (r - 1)) / (r + 1)
        self.b, self.k0, self.k1 = b, k0, k1
        self.A = (r - 1) / k1
        self.alpha = float(alpha)
        if not 0.0 < self.alpha < 1.0:
            raise PreconditionError(
                f"pruned construction inconsistent: alpha={self.alpha!r} outside (0,1)"
            )
        self.top = k1
        self.atoms = ((r, self.alpha * self.A), (2 * r + 1, (1.0 - self.alpha) * self.A))
        super().__init__(spec)


def _exp(t):
    """numpy's exp of a float or of each element of an array: the thinned forms'
    one exp, whose error is at most 0.66 ulp (libm's 0.50).

    A float has the bits of the same argument at any place in any array where
    numpy's exp loop is the same for a 0-d and an n-element contiguous input
    (numpy 2.4 on a Xeon: no mismatch over 10^5 arguments, in arrays 1 to 33
    long at any offset and in a strided view);
    ``test_thinned_G_at_a_point_does_not_depend_on_its_array`` checks it.
    Array arguments are cut at 709, where only ``G_upper``'s bound can reach: a
    bound of 8e307 rules nothing out.  A float, from a single x, is the log
    of a probability.
    """
    if isinstance(t, np.ndarray):
        return np.exp(np.minimum(t, 709.0))
    return float(np.exp(t))


@functools.cache
def _series_length(top: int) -> int:
    """The number of terms of ``_poisson_upper``'s series that any s < top needs:
    the first n with prod_{j<=n} top/(top+j) <= 2^-60."""
    n, term = 0, 1.0
    while term > 2.0**-60:
        n += 1
        term = term * top / (top + n)
    return n


def _poisson_upper(s, ls, top: int) -> list:
    """[P(Poisson(s) >= n) for n = 0..top] at s > 0 given ls = log s, floats or arrays alike.

    Each pmf value is one exp of its log.  Where s >= n the value is
    1 - P(X < n), which is above 1/2, so it keeps its digits; where
    s < n it is e^-s sum_{i>=n} s^i/i!: the series from ``top``,
    1 + sum_k prod_{j<=k} s/(top+j), each term the one before times s/(top+j),
    then a pmf value added per step down to n.  A float stops once a term is
    below 2^-60 (of a sum of at least 1); an array takes the terms every
    s < top needs as one running product and one running sum over a block of
    rows, in the float's order, and the terms past the float's last add
    nothing, so it keeps the float's bits.
    """
    if top < 1:
        return [1.0]
    pmf = [_exp(i * ls - s - math.lgamma(i + 1.0)) for i in range(top + 1)]
    out, below = [1.0], 0.0
    for n in range(1, top + 1):
        below = below + pmf[n - 1]
        out.append(1.0 - below)
    array = isinstance(s, np.ndarray)
    if array:
        ks = np.arange(top + 1.0, top + 1.0 + _series_length(top))[:, None]
        terms = np.empty((len(ks) + 1, len(s)))
        terms[0] = 1.0
        # an element with s >= top keeps its complement: its series is never read
        np.divide(np.minimum(s, float(top)), ks, out=terms[1:])
        np.multiply.accumulate(terms, axis=0, out=terms)
        total = np.add.accumulate(terms, axis=0, out=terms)[-1]
    elif s < top:
        term = total = 1.0
        k = top
        while term > 2.0**-60:
            k += 1
            term = term * (s / k)
            total = total + term
    else:
        return out
    tail = pmf[top] * total
    for n in range(top, 0, -1):
        out[n] = np.where(s < n, tail, out[n]) if array else (tail if s < n else out[n])
        tail = tail + pmf[n - 1]
    return out


# ---------------------------------------------------------------------------
# alias tables: one raw 64-bit word per draw

# the most atoms a geometric table holds, its tail column included, and the
# most words one of its draws may read on average
_TABLE_ATOMS = 1 << 12


def _word_weights(masses: list) -> list[int]:
    """Integers summing to 2^64, each within 1 of m 2^64 / S, S the sum of the masses.

    Floats and Fractions alike are taken exactly: every quotient m 2^64 / S is
    rounded down, and the words still short of 2^64 go one each to the largest
    remainders, ties to the first mass.
    """
    weights = [0] * len(masses)
    some = [i for i, m in enumerate(masses) if m]
    pairs = [masses[i].as_integer_ratio() for i in some]
    den = math.lcm(*(d for _, d in pairs))
    nums = [n * (den // d) << 64 for n, d in pairs]
    total = sum(nums) >> 64
    cut = [divmod(n, total) for n in nums]
    for i, (q, _) in zip(some, cut):
        weights[i] = q
    short = (1 << 64) - sum(weights)
    for j in sorted(range(len(cut)), key=lambda j: cut[j][1], reverse=True)[:short]:
        weights[some[j]] += 1
    return weights


@dataclass(frozen=True, eq=False)
class AliasTable:
    """Walker's alias method (Walker 1977; Vose 1991) in exact integers.

    The table holds the ``values`` of nonzero weight (``_word_weights``: they
    sum to 2^64) in n = 2^c >= 2 columns of 2^(64-c) words each.  A draw
    reads one raw 64-bit word W: its top c bits pick the column i, and W
    below ``cuts[i]`` draws the column's atom, else its alias; one gather from
    ``lookup`` (the n atoms, then the n aliases) returns it.  So P(draw = k)
    is exactly its weight / 2^64, within 2^-64 of pmf(k) / S, S the mass the
    law tabulates.  A table of one atom reads no word.

    A ``step`` L > 0 marks a memoryless tail: the atom 0 stands for L plus a
    fresh draw.  ``draw`` reads one word per count, then one word for each
    count that drew the tail, in the order of the counts, until none does.
    """

    values: tuple[int, ...]
    step: int
    shift: np.uint64  # 64 - c
    cuts: np.ndarray  # uint64, one per column
    lookup: np.ndarray  # int64, atoms then aliases

    @classmethod
    def build(cls, values: list[int], masses: list, step: int) -> AliasTable:
        """The table of ``values`` weighted by ``masses`` (Fractions or floats),
        those of weight 0 dropped; Vose's pairing of columns below and above
        their share, in integers, fills each column exactly."""
        kept = [(v, w) for v, w in zip(values, _word_weights(masses)) if w]
        values, left = (list(c) for c in zip(*kept))
        c = max(1, (len(values) - 1).bit_length())
        n, width = 1 << c, 1 << (64 - c)
        left += [0] * (n - len(left))
        own = values + [0] * (n - len(values))
        alias = own.copy()
        below = [i for i in range(n) if left[i] < width]
        above = [i for i in range(n) if left[i] >= width]
        cuts = [i * width for i in range(n)]  # a full column draws its atom as its alias
        while below:  # the weights fill the n columns exactly, so above runs out with below
            i, j = below.pop(), above[-1]
            cuts[i] += left[i]
            alias[i] = own[j]
            left[j] -= width - left[i]
            if left[j] < width:
                below.append(above.pop())
        return cls(tuple(values), step, np.uint64(64 - c), np.array(cuts, dtype=np.uint64),
                   np.array(own + alias, dtype=np.int64))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws as int64, from raw words of ``rng``'s bit generator."""
        if len(self.values) == 1:
            return np.full(size, self.values[0], dtype=np.int64)
        out = self._pick(rng.bit_generator.random_raw(size))
        at = (out == 0).nonzero()[0] if self.step else ()
        while len(at):
            fresh = self._pick(rng.bit_generator.random_raw(len(at)))
            out[at] += fresh + self.step
            at = at[fresh == 0]
        return out

    def _pick(self, words: np.ndarray) -> np.ndarray:
        col = (words >> self.shift).view(np.int64)
        return self.lookup[col + (words >= self.cuts[col]) * len(self.cuts)]


# ---------------------------------------------------------------------------
# moment sums: the geometric law's ends and closed-form tails of the heavy body

# the geometric law's cut (``_cut``) at _REFUSAL_TAIL decides its refusal, and
# its moments double K from the cut at _LIGHT_TAIL_START until the remainder
# bound is below _REL_REMAINDER of the sum
_REFUSAL_TAIL = 1e-13
_LIGHT_TAIL_START = 1e-30
_REL_REMAINDER = 2.0**-56
# its sums take the atoms this many at a time
_SUM_CHUNK = 1 << 16

# body terms k <= _BODY_HEAD are summed one by one; beyond, f(k)/(k(k-1)) is
# a power series in 1/k cut after 8 terms, which leaves (1.5/2000)^8 ~ 1e-25:
# k^a/(k-1) = sum_j k^(a-1-j), 1/(k^3(k-1)) = sum_j k^(-4-j), and
# 1/(k(k-1)^2(2k-3)) = k^-4 (1-1/k)^-2 (1-3/(2k))^-1 / 2
_BODY_HEAD = 2000
# the head k = 2.._BODY_HEAD and k(k-1) (exact in double), read-only: every
# body, whatever its r and top, sums a slice of it
_HEAD_KS = np.arange(2, _BODY_HEAD + 1)
_HEAD_KK1 = _HEAD_KS * (_HEAD_KS - 1.0)
_HEAD_KS.flags.writeable = _HEAD_KK1.flags.writeable = False
_ONES = np.ones(8)
_FORT_COEFFS = np.convolve(np.arange(1.0, 9.0), 1.5 ** np.arange(8.0))[:8] / 2


def _power_sum(s: float, a: int, n: Optional[int]) -> float:
    """sum_{k=a}^{n} k^-s for s >= 0 by Euler-Maclaurin (n None: to infinity, inf for s <= 1).

    The sum is int_a^{n+1} x^-s dx + em(a) - em(n+1) with
    em(x) = x^-s/2 + s x^(-s-1)/12 - s(s+1)(s+2) x^(-s-3)/720.  The
    derivatives of x^-s alternate in sign, so the error is below the first
    omitted term s(s+1)...(s+4) a^(-s-5)/30240: under 1e-17 of the sum for
    a > 2000 and s <= 12.
    """
    def em(x):
        return x**-s / 2 + s * x ** (-s - 1) / 12 - s * (s + 1) * (s + 2) * x ** (-s - 3) / 720

    if n is None:
        return a ** (1 - s) / (s - 1) + em(a) if s > 1 else INF
    e = n + 1
    if s == 1:
        return math.log(e / a) + em(a) - em(e)
    return a ** (1 - s) * math.expm1((1 - s) * math.log(e / a)) / (1 - s) + em(a) - em(e)


def _power_series(s0: float, c: np.ndarray, a: int, n: Optional[int]) -> float:
    """sum_{k=a}^{n} sum_j c_j k^-(s0+j)."""
    return math.fsum(cj * _power_sum(s0 + j, a, n) for j, cj in enumerate(c))


def _harmonic_tail(r: int, a: int, n: Optional[int]) -> float:
    """sum_{k=a}^{n} H_{k-r}/(k(k-1)) for 1 <= r < a, by summation by parts.

    It equals H_{a-r}/(a-1) - H_{n-r}/n + S, with
    S = (sum_{a-r<j<a} 1/j - sum_{n-r<j<n} 1/j)/(r-1) for r >= 2 and
    S = sum_{k=a}^{n-1} 1/k^2 for r = 1; at n = infinity the n terms vanish.
    """
    parts = [harmonic_number(a - r) / (a - 1)]
    if n is not None:
        parts.append(-harmonic_number(n - r) / n)
    if r == 1:
        parts.append(_power_sum(2.0, a, None if n is None else n - 1))
    else:
        parts += [1.0 / ((r - 1) * j) for j in range(a - r + 1, a)]
        if n is not None:
            parts += [-1.0 / ((r - 1) * j) for j in range(n - r + 1, n)]
    return math.fsum(parts)


def _body_expect(rr: int, top: Optional[int], f, tail) -> float:
    """sum_{k=rr}^{top} (rr-1)/(k(k-1)) f(k), the heavy-tail body (top None: infinity)."""
    last = _BODY_HEAD if top is None else min(top, _BODY_HEAD)
    rest = (rr - 1) * tail(max(_BODY_HEAD + 1, rr), top) if top is None or top > _BODY_HEAD else 0.0
    if math.isinf(rest):  # a divergent tail, which no head can offset
        return rest
    head = slice(rr - 2, max(rr - 2, last - 1))  # k = rr..last
    terms = ((rr - 1) / _HEAD_KK1[head] * f(_HEAD_KS[head])).tolist()
    terms.append(rest)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# public constructors


def make_distribution(spec: DistributionSpec | str) -> OffspringDistribution:
    """Build an offspring distribution from a validated spec or CLI string."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    return _FAMILIES[spec.family][2](spec)


def pruned_threshold(r: int) -> float:
    """(r-1) log(4er): the pruned law needs b at least this, and ub_pruned holds above it."""
    return (r - 1) * math.log(4 * math.e * r)


# each family once: its spec name, its parameters in label order, its class
_FAMILIES = {
    "regular": ("regular", ("b",), Regular),
    "two_point": ("twopoint", ("b", "a"), TwoPoint),
    "shifted_poisson": ("poisson", ("b",), ShiftedPoisson),
    "shifted_geometric": ("geometric", ("b",), ShiftedGeometric),
    "heavy_tail": ("heavy", ("r",), HeavyTail),
    "pruned": ("pruned", ("r", "b"), Pruned),
    "explicit_pmf": ("pmf", ("pmf",), ExplicitPMF),
}
_SPEC_ALIASES = {name: family for family, (name, _, _) in _FAMILIES.items()}
_SPEC_ALIASES.update(two_point="two_point", heavytail="heavy_tail")
