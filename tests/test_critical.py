"""Critical probabilities and the survival recursion."""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import gwboot as gw
from gwboot import critical
from gwboot.critical import pc_closed_form, pc_exact, pc_regular_asymptotic, q_iterate, q_limit
from gwboot.kernels import MaxResult, make_context
from gwboot.offspring import PreconditionError, make_distribution, parse_spec


def regular_r2_oracle(b):
    """Exact rational form 1 - (b-1)^(2b-3) / (b^(b-1) (b-2)^(b-2))."""
    return float(1 - Fraction((b - 1) ** (2 * b - 3), b ** (b - 1) * (b - 2) ** (b - 2)))


# ---------------------------------------------------------------------------
# exact values


def test_pc_regular3_r2():
    res = pc_exact(make_distribution("regular:b=3"), 2)
    assert res.pc == pytest.approx(1 / 9, abs=1e-12)
    assert res.M == pytest.approx(9 / 8, abs=1e-12)


def test_pc_exact_clamps_to_unit_interval():
    # a truncated law's M may round just below 1, which would give p_c < 0
    res = MaxResult(x_star=0.0, M_minus_1=-1e-13, err=1e-10, grid=np.zeros(1001))
    pc, err = critical._pc_of_max(res)
    assert pc == 0.0
    assert err >= res.err


def test_pc_regular_diagonal():
    for b in range(2, 8):
        res = pc_exact(make_distribution(f"regular:b={b}"), b)
        assert res.pc == pytest.approx(1 - 1 / b, abs=1e-12)


def test_pc_heavy_tail_vanishes():
    for r in (2, 3):
        res = pc_exact(make_distribution(f"heavy:r={r}"), r)
        assert res.pc == 0.0 and res.M == 1.0  # the body is summed to infinity
        assert res.err > 0  # the rounding of max_G, not a claim of exactness


def test_pc_mass_below_threshold_is_one():
    res = pc_exact(make_distribution("pmf:1=0.5,3=0.5"), 2)
    assert res.pc == 1.0
    assert res.method == "subcritical-mass"


@pytest.mark.parametrize("b, r", [(748, 3), (754, 4), (766, 6)])
def test_pc_mass_below_r_that_underflows_is_one(b, r):
    # the first integer b where P(xi < r) reads 0.0: a float test of that mass
    # maximised G here instead (pc 4.70e-05, 2.10e-04 and 8.61e-04)
    d = make_distribution(f"poisson:b={b}")
    assert d.prob_below(r) == 0.0
    res = pc_exact(d, r)
    assert (res.pc, res.method) == (1.0, "subcritical-mass")


def test_pc_mass_below_r_of_a_law_too_wide_to_tabulate():
    # the support decides: no pmf table of more than ENUM_CAP entries is asked for
    d = make_distribution("poisson:b=3000000")
    t0 = time.perf_counter()
    res = pc_exact(d, 3)
    assert time.perf_counter() - t0 < 0.05
    assert (res.pc, res.method) == (1.0, "subcritical-mass")
    assert "_table" not in d.__dict__


def test_pc_of_a_wide_poisson_law_builds_no_pmf_table():
    # make_context decides the refusal from the table's length in closed form:
    # pc_exact at r = 2 took 66 ms, 50 of them building a table of 1,015,100
    # entries that the thinned form never reads
    d = make_distribution("poisson:b=1e6")
    t0 = time.perf_counter()
    res = pc_exact(d, 2)
    assert time.perf_counter() - t0 < 0.02
    assert "_table" not in d.__dict__
    assert res.pc == pytest.approx(pc_closed_form(d.spec, 2).pc, rel=1e-9, abs=0)


@pytest.mark.parametrize("p, zero", [(4.5e-5, False), (4.7e-5, True), (1e-4, True)])
def test_q_limit_where_mass_below_r_underflows(p, zero):
    # P(xi < 3) reads 0.0 at b = 760, so h(0) computes 0: above the maximum's
    # p_c (4.59e-5) the limit lies below the smallest double and reads [0, 0]
    res = q_limit(make_distribution("poisson:b=760"), 3, p)
    assert res.converged
    assert (res.lower == res.value == res.upper == 0.0) == zero
    assert zero or res.lower > 0.999


def test_pc_rejects_r_below_2():
    with pytest.raises(PreconditionError):
        pc_exact(make_distribution("regular:b=3"), 1)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_q_limit_rejects_tol_that_is_not_positive(tol):
    # a NaN tol used to end the search at once and report convergence
    with pytest.raises(PreconditionError):
        q_limit(make_distribution("regular:b=3"), 2, 0.05, tol=tol)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_geometric():
    res = pc_closed_form(parse_spec("geometric:b=3"), 2)
    assert res.pc == pytest.approx(1 / 9, abs=1e-15)


def test_closed_form_poisson_b4():
    res = pc_closed_form(parse_spec("poisson:b=4"), 2)
    # direct evaluation of 1 - (b-2) e^((b+1-sqrt((b+3)(b-1)))/2) / (sqrt((b+3)(b-1)) - 2)
    assert res.pc == pytest.approx(0.045843809492090326, abs=1e-14)
    assert res.x_star == pytest.approx((math.sqrt(21) - 1) / 4, abs=1e-14)


def test_closed_form_two_point():
    res = pc_closed_form(parse_spec("twopoint:b=4,a=9"), 2)
    assert res.pc == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("family,b", [("regular", b) for b in (61, 100, 10**3, 10**4, 10**5, 10**6)]
                         + [("poisson", b) for b in (7 / 3, 4, 20, 100, 1e3, 1e4)])
def test_closed_form_keeps_relative_precision_as_pc_vanishes(family, b):
    # p_c ~ 1/(2b^2): 1 - (a ratio near 1) would keep only its absolute precision
    with mpmath.workdps(50):
        bm = mpmath.mpf(b)
        if family == "regular":
            log_ratio = (2 * bm - 3) * mpmath.log(bm - 1) - (bm - 1) * mpmath.log(bm) - (bm - 2) * mpmath.log(bm - 2)
            ref = -mpmath.expm1(log_ratio)
        else:
            s = mpmath.sqrt((bm + 3) * (bm - 1))
            ref = 1 - (bm - 2) * mpmath.exp((bm + 1 - s) / 2) / (s - 2)
        ref = float(ref)
    res = pc_closed_form(parse_spec(f"{family}:b={b!r}"), 2)
    assert res.pc == pytest.approx(ref, rel=1e-12, abs=0)
    assert abs(res.pc - ref) <= res.err
    assert res.M == pytest.approx(1 / (1 - ref), rel=1e-15, abs=0)


def test_pc_exact_poisson_b1e4_matches_closed_form():
    # the enumerated pmf summed to 1 - 5.8e-12 and p_c read 1.15e-3 relative low
    res = pc_exact(make_distribution("poisson:b=1e4"), 2)
    closed = pc_closed_form(parse_spec("poisson:b=1e4"), 2)
    assert res.method == "maximization"
    assert res.pc == pytest.approx(closed.pc, rel=1e-6, abs=0)


def test_closed_form_absent_cases():
    assert pc_closed_form(parse_spec("twopoint:b=4,a=6"), 2) is None  # a < 2b-1
    assert pc_closed_form(parse_spec("regular:b=7"), 3) is None
    assert pc_closed_form(parse_spec("heavy:r=2"), 2) is None
    assert pc_closed_form(parse_spec("poisson:b=4"), 3) is None


def test_closed_form_agrees_with_maximization_everywhere():
    cases = (
        [(f"regular:b={b}", 2) for b in range(2, 16)]
        + [(f"regular:b={b}", b) for b in range(2, 9)]
        + [(f"poisson:b={b}", 2) for b in (3, 5, 11)]
        + [(f"geometric:b={b}", 2) for b in (3, 5, 11)]
        + [("twopoint:b=3,a=5", 2), ("twopoint:b=4,a=9", 2), ("twopoint:b=5,a=11", 2)]
    )
    for spec_str, r in cases:
        spec = parse_spec(spec_str)
        closed = pc_closed_form(spec, r)
        assert closed is not None
        numeric = pc_exact(make_distribution(spec), r)
        assert numeric.pc == pytest.approx(closed.pc, abs=1e-8)


def test_pc_regular_asymptotic_values():
    assert pc_regular_asymptotic(10, 2) == pytest.approx(1 / 200, abs=1e-15)
    assert pc_regular_asymptotic(3, 3) == pytest.approx((2 / 3) * math.sqrt(2 / 27), abs=1e-12)


def test_pc_regular_asymptotic_ratio_tends_to_one():
    for b in (50, 100):
        exact = regular_r2_oracle(b)
        ratio = exact / pc_regular_asymptotic(b, 2)
        assert abs(ratio - 1) < 0.05


# ---------------------------------------------------------------------------
# survival recursion


def test_q_iterate_p1_collapses():
    tr = q_iterate(make_distribution("regular:b=4"), 2, 1.0, 4)
    assert tr.values[0] == 0.0
    assert all(v == 0.0 for v in tr.values)


def test_q_iterate_p0_stays_at_one():
    tr = q_iterate(make_distribution("geometric:b=3"), 2, 0.0, 6)
    for v in tr.values:
        assert v == pytest.approx(1.0, abs=1e-12)


def test_q_iterate_matches_rational_oracle():
    # 5-fold composition in exact rational arithmetic
    tr = q_iterate(make_distribution("regular:b=3"), 2, 0.2, 5)
    p = Fraction(1, 5)
    q = 1 - p
    exact = [q]
    for _ in range(5):
        x = exact[-1]
        exact.append((1 - p) * (x**3 + 3 * x**2 * (1 - x)))
    for got, want in zip(tr.values, exact):
        assert got == pytest.approx(float(want), abs=1e-13)


def test_q_iterate_non_increasing():
    for spec, r, p in [("regular:b=3", 2, 0.07), ("poisson:b=4", 2, 0.3),
                       ("twopoint:b=3,a=5", 2, 0.15)]:
        tr = q_iterate(make_distribution(spec), r, p, 40)
        diffs = np.diff(tr.values)
        assert np.all(diffs <= 1e-15)


def test_q_iterate_rejects_increasing_step(monkeypatch):
    # the invariant is checked explicitly, so it holds under python -O too
    import gwboot.critical as critical_mod

    monkeypatch.setattr(critical_mod.kernels, "h", lambda ctx, p, q: q + 1e-6)
    with pytest.raises(ArithmeticError, match="non-increasing"):
        q_iterate(make_distribution("regular:b=3"), 2, 0.2, 3)
    with pytest.raises(ArithmeticError, match="non-increasing"):
        q_limit(make_distribution("regular:b=3"), 2, 0.2)


def test_q_limit_edges():
    d = make_distribution("regular:b=3")
    assert q_limit(d, 2, 0.0).value == pytest.approx(1.0)
    assert q_limit(d, 2, 1.0).value == 0.0
    # at p = 0, q_t = 1 at every t, also on a law whose p_c is 0: the search
    # returned 1 in the bracket [0, 1], unconverged, as p lies within err of p_c
    for spec, r in [("heavy:r=2", 2), ("heavy:r=3", 3)]:
        res = q_limit(make_distribution(spec), r, 0.0)
        assert (res.value, res.lower, res.upper, res.converged) == (1.0, 1.0, 1.0, True), spec


def test_q_limit_supercritical_dies():
    d = make_distribution("regular:b=3")
    res = q_limit(d, 2, 0.2, tol=1e-12)
    assert res.converged and res.value < 1e-12


def test_q_limit_subcritical_matches_root_finding():
    # independent oracle: largest root of h(x) - x via bracketing + brentq
    d = make_distribution("regular:b=3")
    r, p = 2, 0.05
    res = q_limit(d, r, p, tol=1e-13)
    assert res.value > 0
    ctx = make_context(d, r)
    f = lambda x: gw.h(ctx, p, x) - x
    lo, hi = res.value - 0.02, min(1.0, res.value + 0.02)
    assert f(lo) > 0 > f(hi)  # attracting fixed point: h above x below it, below x above it
    root = brentq(f, lo, hi, xtol=1e-14)
    assert res.value == pytest.approx(root, abs=1e-10)


def test_q_limit_is_largest_fixed_point():
    # no sign change of h(x) - x above the limit
    for spec, r, p in [("regular:b=3", 2, 0.05), ("geometric:b=4", 2, 0.01)]:
        d = make_distribution(spec)
        res = q_limit(d, r, p, tol=1e-13)
        ctx = make_context(d, r)
        xs = np.linspace(res.value + 1e-6, 1.0, 2000)
        vals = np.array([gw.h(ctx, p, float(x)) - x for x in xs])
        assert np.all(vals < 0)


def test_fixed_point_consistency_near_pc():
    # 1% either side of p_c: a positive fixed point of h below, the limit 0 above
    for spec, r in [("regular:b=3", 2), ("geometric:b=3", 2), ("regular:b=5", 3)]:
        d = make_distribution(spec)
        crit = pc_exact(d, r)
        delta = 10 * crit.err
        p_low = crit.pc * 0.99 - delta
        p_high = min(1.0, crit.pc * 1.01 + 1e-6 + delta)
        tol = 1e-12
        res_low = q_limit(d, r, p_low, tol=tol)
        assert res_low.value > 1e-6
        ctx = make_context(d, r)
        assert gw.h(ctx, p_low, res_low.value) == pytest.approx(res_low.value, abs=10 * tol)
        res_high = q_limit(d, r, p_high, tol=tol)
        assert res_high.converged and res_high.value == 0.0


def test_q_limit_interval_stays_in_unit_interval():
    # supercritical rows converge to about 0, where value - tol would go negative
    rows = [("regular:b=3", 2, 0.5), ("poisson:b=4", 2, 0.3)]
    for spec, r in [("regular:b=3", 2), ("poisson:b=4", 2), ("geometric:b=5", 2),
                    ("twopoint:b=4,a=9", 2), ("regular:b=5", 3), ("pmf:2=0.5,4=0.5", 2)]:
        pc = pc_exact(make_distribution(spec), r).pc
        rows += [(spec, r, f * pc) for f in (0.5, 0.8, 1.5, 2.0)]
    for spec, r, p in rows:
        res = q_limit(make_distribution(spec), r, p)
        assert res.converged
        assert 0.0 <= res.lower <= res.value <= res.upper <= 1.0, (spec, p, res)


# (spec, r, p, limit, evaluations) next to p_c: the limit is the largest root of
# h(x) - x on [0, 1-p] from a 50-digit mpmath bisection over the full pmf (the
# poisson row lies above p_c), and evaluations bounds the h calls, about 1.5
# times those made when the rows were derived
Q_LIMIT_GOLDEN = [
    ("regular:b=4", 3, 0.274883012674, "0.55047110579115279010790640", 180),
    ("poisson:b=4", 2, 0.045889653302, "0", 200),
    ("geometric:b=5", 2, 0.020387755102, "0.95411183575702066165744350", 120),
    ("twopoint:b=4,a=9", 2, 0.294, "0.016997167140263448719014700", 580),
]


@pytest.mark.parametrize("spec, r, p, limit, evaluations", Q_LIMIT_GOLDEN,
                         ids=[f"{spec}-{r}-{p}" for spec, r, p, _, _ in Q_LIMIT_GOLDEN])
def test_q_limit_golden_next_to_pc(spec, r, p, limit, evaluations):
    res = q_limit(make_distribution(spec), r, p)
    assert res.converged
    with mpmath.workdps(50):
        assert mpmath.mpf(res.lower) <= mpmath.mpf(limit) <= mpmath.mpf(res.upper)
    assert res.value == pytest.approx(float(limit), abs=1e-12)
    assert res.iterations <= evaluations


def _poly_limit(atoms, r, p):
    """Largest root of h(x) - x on [0, 1-p] for a finite law, by mpmath's
    polyroots on the exact polynomial (atoms: (k, Fraction) pairs)."""
    c = [Fraction(0)] * (max(k for k, _ in atoms) + 1)  # c[j] multiplies x^j
    for k, w in atoms:
        if k < r:
            c[0] += w
            continue
        for i in range(r):  # C(k, i) (1-x)^i x^(k-i)
            for j in range(i + 1):
                c[k - i + j] += w * math.comb(k, i) * math.comb(i, j) * (-1) ** j
    c = [(1 - Fraction(p)) * v for v in c]
    c[1] -= 1
    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(v.numerator) / v.denominator for v in reversed(c)]
        while coeffs[0] == 0:
            coeffs.pop(0)
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        top = 1 - mpmath.mpf(Fraction(p).numerator) / Fraction(p).denominator
        real = [mpmath.re(z) for z in roots if abs(mpmath.im(z)) < mpmath.mpf(10) ** -30]
        inside = [x for x in real if -mpmath.mpf(10) ** -40 <= x <= top]
        return max(inside) if inside else mpmath.mpf(0)


@pytest.mark.parametrize("spec, r, atoms", [
    ("regular:b=3", 2, [(3, Fraction(1))]),
    ("regular:b=4", 3, [(4, Fraction(1))]),
    ("twopoint:b=4,a=9", 2, [(2, Fraction(5, 7)), (9, Fraction(2, 7))]),
    ("twopoint:b=3,a=6", 2, [(2, Fraction(3, 4)), (6, Fraction(1, 4))]),
    ("pmf:2=0.5,4=0.5", 2, [(2, Fraction(1, 2)), (4, Fraction(1, 2))]),
    ("pmf:3=0.25,4=0.5,6=0.25", 3, [(3, Fraction(1, 4)), (4, Fraction(1, 2)), (6, Fraction(1, 4))]),
])
def test_q_limit_bracket_contains_50_digit_limit(spec, r, atoms):
    from gwboot.critical import _LimitSearch

    d = make_distribution(spec)
    ctx = make_context(d, r)
    pc, tol = pc_exact(d, r).pc, 1e-12
    for ratio in (0.5, 0.95, 0.999, 1.001, 1.05, 2.0):
        p = ratio * pc
        res = q_limit(d, r, p, tol=tol)
        limit = _poly_limit(atoms, r, p)
        assert res.converged, (spec, ratio)
        with mpmath.workdps(50):
            assert mpmath.mpf(res.lower) <= limit <= mpmath.mpf(res.upper), (spec, ratio, res)
        assert res.lower <= res.value <= res.upper
        # past tol only by the band where the sign of h(x) - x is below its rounding
        # bound: a few eps over the slope |1 - h'| at the limit
        x = float(limit)
        if x > 0:
            slope = abs(1 - (gw.h(ctx, p, x + 1e-7) - gw.h(ctx, p, x - 1e-7)) / 2e-7)
            band = 8 * _LimitSearch(ctx, p, tol).eps(x) / slope
        else:
            band = 0.0
        assert res.upper - res.lower <= tol + band, (spec, ratio, res)


@pytest.mark.parametrize("spec", ["regular:b=3", "poisson:b=4", "twopoint:b=4,a=9"])
def test_q_limit_at_pc_returns_unconverged_interval_fast(spec):
    # within max_G's err of p_c neither certificate exists: [0, last iterate], at once
    d = make_distribution(spec)
    crit = pc_exact(d, 2)
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = q_limit(d, 2, crit.pc)
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 0.05
    assert not res.converged
    assert res.lower == 0.0 and res.upper == res.value
    assert res.lower <= crit.x_star <= res.upper


def test_q_limit_certifies_zero_on_pruned_law_fast():
    # p = 1e-5 is far above p_c ~ 4e-9, but the iterate once crept down for 1e6 steps
    d = make_distribution("pruned:r=2,b=20")
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = q_limit(d, 2, 1e-5)
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 0.05
    assert res.converged
    assert res.value == 0.0 and res.lower == 0.0 and res.upper == 0.0


@pytest.mark.parametrize("spec, r, ratio", [
    ("pruned:r=2,b=17", 2, 2.0), ("pruned:r=3,b=16", 3, 1.1),
])
def test_q_limit_decides_by_max_after_a_fixed_step(spec, r, ratio):
    # G ~ 1 on a pruned law, so the steps never shrink enough for a rule read from
    # their ratio, and zero_certified cannot resolve (1-p) G just below 1: the
    # decision at step _DECIDE_AT certifies 0 (these rows took 328,220 and 2,048)
    from gwboot.critical import _DECIDE_AT

    d = make_distribution(spec)
    res = q_limit(d, r, ratio * pc_exact(d, r).pc)
    assert res.converged
    assert res.value == 0.0 and res.lower == 0.0 and res.upper == 0.0
    assert _DECIDE_AT <= res.iterations <= 200


def test_q_limit_within_err_of_pc_tries_the_zero_certificate():
    # p_c ~ 2.55e-11 lies below its err 1e-10, so 2 p_c is within err of p_c and
    # max_G cannot take a side; G_upper still proves (1-p) G < 1 on (0, q], so the
    # limit is a certified 0 (it was [0, 0.99999999910] unconverged), in 35 evaluations
    d = make_distribution("pruned:r=2,b=25")
    crit = pc_exact(d, 2)
    assert 2 * crit.pc < crit.pc + crit.err
    res = q_limit(d, 2, 2 * crit.pc)
    assert res.converged
    assert res.value == 0.0 and res.lower == 0.0 and res.upper == 0.0
    assert res.iterations <= 40


def test_q_limit_decides_the_side_of_a_tiny_pc_by_pc_exact():
    # p_c ~ 3.8e-9 with err 1e-10: q_limit reads the side of p_c from pc_exact's
    # p_c and err, so at p_c it claims nothing and 2 err away it takes a side
    d = make_distribution("pruned:r=2,b=20")
    crit = pc_exact(d, 2)
    at = q_limit(d, 2, crit.pc)
    assert not at.converged and at.lower == 0.0 and at.upper == at.value
    above = q_limit(d, 2, crit.pc + 2 * crit.err)
    assert above.converged and above.value == 0.0
    below = q_limit(d, 2, crit.pc - 2 * crit.err)
    assert below.converged and below.lower > 0.0


# (spec, delta) at r = 2, p = p_c (1 - delta): rows that stepped toward a saddle-node
# ghost for 12,876 evaluations (regular), 604,062 (pruned b = 12 at 1e-2) or up to the
# 10^6 cap, 5.5-13.8 s, before the decision at step 32 led to one grid bracket
SLOW_ROWS = [
    ("pruned:r=2,b=12", 1e-2), ("pruned:r=2,b=12", 1e-4), ("twopoint:b=4,a=9", 1e-6),
    ("pruned:r=2,b=15", 1e-2), ("pruned:r=2,b=19", 1e-2), ("regular:b=3", 1e-8),
]
SLOW_ROW_ATOMS = {
    "regular:b=3": [(3, Fraction(1))],
    "twopoint:b=4,a=9": [(2, Fraction(5, 7)), (9, Fraction(2, 7))],
}


@pytest.mark.parametrize("spec, delta", SLOW_ROWS, ids=[f"{s}-{d:g}" for s, d in SLOW_ROWS])
def test_q_limit_next_to_pc_brackets_the_root_right_of_x_star_fast(spec, delta):
    from gwboot.critical import _LimitSearch

    d = make_distribution(spec)
    p, tol = pc_exact(d, 2).pc * (1 - delta), 1e-12
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = q_limit(d, 2, p, tol=tol)
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 0.01
    assert res.converged and 0.0 < res.lower <= res.value <= res.upper
    if spec in SLOW_ROW_ATOMS:
        limit = _poly_limit(SLOW_ROW_ATOMS[spec], 2, p)
        with mpmath.workdps(50):
            assert mpmath.mpf(res.lower) <= limit <= mpmath.mpf(res.upper), res
        return
    # a pruned law's G is flat to about 1e-8 near its mode, so |1 - h'| is small and
    # the band where the sign of h(x) - x is below eps is wider than tol
    ctx, x = make_context(d, 2), res.value
    slope = abs(1 - (gw.h(ctx, p, x + 1e-6) - gw.h(ctx, p, x - 1e-6)) / 2e-6)
    assert res.upper - res.lower <= tol + 8 * _LimitSearch(ctx, p, tol).eps(x) / slope
    if (spec, delta) == ("pruned:r=2,b=12", 1e-2):
        # the converged value of the stepping search, after 604,062 evaluations
        assert res.lower <= 0.9698456213911694 <= res.upper
        assert res.value == pytest.approx(0.9698456213911694, abs=res.upper - res.lower)


@pytest.mark.parametrize("spec, delta", SLOW_ROWS, ids=[f"{s}-{d:g}" for s, d in SLOW_ROWS])
def test_q_limit_grid_bracket_reads_max_G_scan(monkeypatch, spec, delta):
    # G on the grid right of x_star is read from max_G's one whole-grid scan: the
    # only other array is G at the last iterate, one point, counted once
    import gwboot.kernels as kernels_mod

    d = make_distribution(spec)
    p = pc_exact(d, 2).pc * (1 - delta)
    before = q_limit(d, 2, p)
    sizes, blocks_of = [], kernels_mod._G_blocks
    monkeypatch.setattr(kernels_mod, "_G_blocks",
                        lambda c, xs, *rest: sizes.append(len(xs)) or blocks_of(c, xs, *rest))
    res = q_limit(d, 2, p)
    assert res == before
    assert sizes == [1001, 1]


X_STAR_0_ATOMS = {
    "twopoint:b=4,a=9": [(2, Fraction(5, 7)), (9, Fraction(2, 7))],
    "twopoint:b=3,a=6": [(2, Fraction(3, 4)), (6, Fraction(1, 4))],
}


@pytest.mark.parametrize("spec, delta", [
    ("twopoint:b=4,a=9", 1e-3), ("twopoint:b=4,a=9", 1e-6), ("twopoint:b=3,a=6", 1e-3),
])
def test_q_limit_halves_down_to_a_root_below_the_grid(spec, delta):
    # x_star = 0 and the root lies below the first grid point, where the iterate was
    # once halved down to it (110 evaluations; 1,182 with the 1,075 points q 2^-k as
    # one array): 0 is the lower end of any root, so the secant closes [0, that point]
    d = make_distribution(spec)
    crit = pc_exact(d, 2)
    assert crit.x_star == 0.0
    p = crit.pc * (1 - delta)
    res = q_limit(d, 2, p)
    assert res.converged and 0.0 < res.lower <= res.value <= res.upper < critical.GRID_STEP
    assert res.iterations < 150
    limit = _poly_limit(X_STAR_0_ATOMS[spec], 2, p)
    with mpmath.workdps(50):
        assert mpmath.mpf(res.lower) <= limit <= mpmath.mpf(res.upper), res


def _G_regular(b, r):
    return lambda x: sum(mpmath.binomial(b, i) * x ** (b - i - 1) * (1 - x) ** i for i in range(r))


def _G_poisson_r2(b):
    # 2 + Poisson(lam): E[x^(xi-1) + xi x^(xi-2) (1-x)] in closed form
    lam = mpmath.mpf(b) - 2
    return lambda x: mpmath.exp(lam * (x - 1)) * (x + (1 - x) * (2 + lam * x))


@pytest.mark.parametrize("spec, r, G", [
    ("regular:b=3", 2, _G_regular(3, 2)), ("regular:b=5", 3, _G_regular(5, 3)),
    ("poisson:b=6", 2, _G_poisson_r2(6)),
], ids=["regular:b=3-2", "regular:b=5-3", "poisson:b=6-2"])
def test_q_limit_jumps_from_x_star_by_the_saddle_node_law(spec, r, G):
    # q*(p) = x_star + sqrt(2 (M - 1/(1-p)) / |G''(x_star)|) + O(delta) at p = p_c (1 - delta);
    # the next term, G''' (M - 1/(1-p)) / (3 G''^2), is at most 0.021 delta on these laws
    d = make_distribution(spec)
    crit = pc_exact(d, r)
    with mpmath.workdps(50):
        x_star = mpmath.findroot(lambda x: mpmath.diff(G, x), crit.x_star)
        M, g2 = G(x_star), mpmath.diff(G, x_star, 2)
        for k in range(4, 9):
            delta = 10.0**-k
            p = crit.pc * (1 - delta)
            res = q_limit(d, r, p)
            jump = x_star + mpmath.sqrt(2 * (M - 1 / (1 - mpmath.mpf(p))) / abs(g2))
            assert res.converged
            assert abs(mpmath.mpf(res.value) - jump) <= 0.1 * delta, (delta, res)


@pytest.mark.parametrize("spec, atoms, p, limit", [
    # x_star = 0, and a second mode G = 1.0278874330688705 at x = 0.93727: p lies 1e-6
    # below the p at which it dips under 1/(1-p), so G rises on [x_star, q]
    ("pmf:2=0.6,8=0.4", [(2, Fraction(3, 5)), (8, Fraction(2, 5))],
     (1 - 1 / 1.0278874330688705) * (1 - 1e-6), 0.9373414),
    # mass below r: F = P(xi < r)/x + G has a second mode, and the grid misses where
    # (1-p) F > 1 next to it
    ("pmf:1=0.02,6=0.98", [(1, Fraction(1, 50)), (6, Fraction(49, 50))],
     0.0192961301651 * (1 - 1e-8), 0.9589979),
], ids=["pmf:2=0.6,8=0.4", "pmf:1=0.02,6=0.98"])
def test_q_limit_refines_a_mode_of_F_right_of_the_grid_bracket(spec, atoms, p, limit):
    # a grid bracket that ignores the rise of F returned 0.2891843 on the first row,
    # and 0.0196141 on the law with mass below r, both converged; the search that
    # stepped on instead took 1,235 and 10,585 evaluations
    res = q_limit(make_distribution(spec), 2, p)
    assert res.converged
    assert res.iterations <= 150
    assert res.value == pytest.approx(limit, abs=1e-7)
    exact = _poly_limit(atoms, 2, p)
    with mpmath.workdps(50):
        assert mpmath.mpf(res.lower) <= exact <= mpmath.mpf(res.upper), res


# p_s = 1 - 1/F(x_s), F = 0.02/x + G at its interior maximum x_s ~ 0.959 (mpmath):
# the saddle-node of pmf:1=0.02,6=0.98 at r = 2, where the upper fixed point is born
P_SADDLE = 0.019296130163826458
SADDLE_ATOMS = [(1, Fraction(1, 50)), (6, Fraction(49, 50))]


@pytest.mark.parametrize("delta", [1e-6, -1e-6, 1e-8, -1e-8, 1e-10, -1e-10, 1e-12, -1e-12])
def test_q_limit_with_mass_below_r_converges_next_to_its_saddle_node(delta):
    # the search that stepped on toward 10^6 evaluations took 1,041 or more here, up
    # to 2.1 s, and left p_s (1 + 1e-12) unconverged
    d = make_distribution("pmf:1=0.02,6=0.98")
    p = P_SADDLE * (1 + delta)
    q_limit(d, 2, p)
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = q_limit(d, 2, p)
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 0.01
    assert res.converged and res.iterations <= 150
    limit = _poly_limit(SADDLE_ATOMS, 2, p)
    assert (limit > 0.9) == (delta < 0)  # the upper root below p_s, the lower above
    with mpmath.workdps(50):
        assert mpmath.mpf(res.lower) <= limit <= mpmath.mpf(res.upper), res


def test_results_hold_python_floats():
    # two-point laws with a >= 2b - 1 peak at the grid end x = 0
    d = make_distribution("twopoint:b=4,a=9")
    crit = pc_exact(d, 2)
    res = q_limit(d, 2, 0.5 * crit.pc)
    assert crit.x_star == 0.0
    for v in (crit.pc, crit.M, crit.x_star, crit.err, res.value, res.lower, res.upper):
        assert type(v) is float


def test_pc_monotone_in_regular_degree():
    for r in (2, 3):
        prev = 1.0
        for b in range(max(2, r), 14):
            cur = pc_exact(make_distribution(f"regular:b={b}"), r).pc
            assert cur <= prev + 1e-12
            prev = cur


@pytest.mark.parametrize("r", [2, 3, 4])
def test_pc_of_pruned_laws_stays_between_the_papers_bounds_to_b_100(r):
    # p_c e^{b/(r-1)} is flat in b (1.84, 1.44 and 1.37): p_c is never rounded to 0
    for b in range(10, 101, 10):
        if b < (r - 1) * math.log(4 * math.e * r):
            continue  # r = 4, b = 10 lies below the law's validity threshold
        pc = pc_exact(make_distribution(f"pruned:r={r},b={b}"), r).pc
        assert gw.lb_branching_simplified(b, r) < pc < gw.ub_pruned(r, b)[0], (r, b)
        assert 1.3 < pc * math.exp(b / (r - 1)) < 1.9, (r, b)


def test_pc_upper_estimate_M_minus_1():
    # p_c <= M - 1 always
    for spec, r in [("regular:b=4", 2), ("poisson:b=5", 2), ("heavy:r=2", 2)]:
        res = pc_exact(make_distribution(spec), r)
        assert res.pc <= (res.M - 1.0) + 1e-12


# ---------------------------------------------------------------------------
# result objects


def _public_results():
    """One result of each type the public calls return."""
    d = make_distribution("poisson:b=7")
    report = gw.bounds_report(d, 2)
    return [
        pc_exact(d, 2),
        q_limit(d, 2, 0.5),
        report,
        report.entries[0],
        gw.estimate_qn(d, 2, 0.5, 3, 8, seed=1),
        gw.max_G(make_context(d, 2)),
    ]


_AS_DICT_KEYS = {
    "CriticalResult": ["pc", "x_star", "M", "method", "err", "spec", "r"],
    "BoundEntry": ["name", "kind", "value", "raw", "valid", "note"],
    "SimEstimate": ["estimate", "se", "replicates", "effective", "truncated", "seed", "p", "n",
                    "r", "stream_version"],
}


def test_result_types_have_slots():
    import dataclasses
    import pickle

    names = []
    for res in _public_results():
        cls = type(res)
        names.append(cls.__name__)
        assert not hasattr(res, "__dict__"), cls
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(res))
        assert pickle.loads(pickle.dumps(res)) == res
        other = dataclasses.replace(res)
        assert other == res and other is not res
        if cls.__name__ in _AS_DICT_KEYS:
            out = res.as_dict()
            assert list(out) == _AS_DICT_KEYS[cls.__name__]
            for key, value in out.items():
                want = getattr(res, key)
                assert value == (want.label() if key == "spec" else want)
    assert names == ["CriticalResult", "QLimitResult", "BoundsReport", "BoundEntry", "SimEstimate",
                     "MaxResult"]


@pytest.mark.parametrize("call", [
    lambda: q_iterate(make_distribution("regular:b=3"), 2, 1.5, 3),
    lambda: q_iterate(make_distribution("regular:b=3"), 2, 0.1, -1),
    lambda: pc_regular_asymptotic(1, 2),
], ids=["q_iterate-p", "q_iterate-n", "pc_regular_asymptotic-b"])
def test_outside_input_is_refused(call):
    with pytest.raises(PreconditionError):
        call()
