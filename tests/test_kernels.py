"""Kernel evaluation, mixtures, the survival map, and maximization."""

import dataclasses
import itertools
import math
import time
import tracemalloc
from math import comb

import mpmath
import numpy as np
import pytest

import gwboot as gw
from gwboot import kernels, offspring
from gwboot.kernels import (
    binom_lte,
    g,
    make_context,
    max_G,
)
from gwboot.offspring import PreconditionError, make_distribution

XGRID = [0.0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]


def g_reference(k, r, x):
    """Direct rational/float evaluation of the defining polynomial."""
    if x == 0.0:
        return float(r) if k == r else 0.0
    return sum(comb(k, i) * x ** (k - i - 1) * (1 - x) ** i for i in range(r))


# ---------------------------------------------------------------------------
# g itself


def test_g_examples():
    assert g(2, 2, 0.5) == pytest.approx(1.5)  # g_2^2(x) = 2 - x
    for x in XGRID:
        assert g(2, 2, x) == pytest.approx(2 - x, abs=1e-14)
    for r in (2, 3, 4, 5):
        assert g(r, r, 0.0) == r
    assert g(3, 2, 0.75) == pytest.approx(9 / 8, abs=1e-15)


def test_g_rejects_bad_arguments():
    with pytest.raises(PreconditionError):
        g(1, 2, 0.5)
    with pytest.raises(PreconditionError):
        g(3, 1, 0.5)
    with pytest.raises(PreconditionError):
        g(3, 2, 1.5)


def test_g_matches_reference_grid():
    for k in (2, 3, 5, 17, 80, 400):
        for r in (2, 3, 4):
            if k < r:
                continue
            for x in XGRID:
                assert g(k, r, x) == pytest.approx(g_reference(k, r, x), abs=1e-13)


def test_g_large_k_log_space():
    # log-space branch agrees with the binomial-cdf definition
    from scipy.stats import binom

    for k in (600, 2000):
        for x in (0.3, 0.9, 0.999):
            want = binom.cdf(1, k, 1 - x) / x
            assert g(k, 2, x) == pytest.approx(want, rel=1e-11)


def test_g_large_k_matches_50_digit_sum():
    # log C(k, i) of the exact integer keeps g to a few ulps where lgamma differences lose digits
    with mpmath.workdps(50):
        for k in (10**4, 10**5, 10**6):
            for x in (1 - 1 / k, 1 - 3 / k):
                xm = mpmath.mpf(x)
                for r in (2, 3, 4):
                    want = mpmath.fsum(comb(k, i) * xm ** (k - i - 1) * (1 - xm) ** i
                                       for i in range(r))
                    assert g(k, r, x) == pytest.approx(float(want), rel=1e-12, abs=0), (k, r, x)


def test_binom_lte_small_cases():
    assert binom_lte(4, 0.5, 4) == 1.0
    assert binom_lte(4, 0.5, -1) == 0.0
    assert binom_lte(2, 0.5, 0) == 0.25
    from scipy.stats import binom

    for n in (10, 100, 700):
        for q in (0.01, 0.4, 0.97):
            for m in (0, 1, 3):
                assert binom_lte(n, q, m) == pytest.approx(
                    float(binom.cdf(m, n, q)), rel=1e-10, abs=1e-300
                )


# ---------------------------------------------------------------------------
# the truncated heavy-tail deficiency (dual route at small cutoffs)


def _deficiency_at(r, m):
    """x -> D_r(m, x) on [0, 1], as -(G - 1) of heavy_tail(r) cut at m: that context
    has no atoms, so G - 1 is exactly -D_r, ``_deficiency`` at an interior x and
    ``_G_block``'s limits at the ends."""
    ctx = dataclasses.replace(make_context(make_distribution(f"heavy:r={r}"), r), body=((m, -1.0),))
    assert len(ctx.ks) == 0 and ctx.const == 1.0
    return lambda x: -gw.G_minus_1(ctx, x)


def _deficiency_of_float(r, m, x):
    """``_deficiency`` at one interior x, from libm's logs."""
    return float(kernels._deficiency(r, m, math.log(x), math.log1p(-x)))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_deficiency_matches_direct_sum(r):
    for m in (r, r + 1, 13, 60, 211):
        D = _deficiency_at(r, m)
        for x in XGRID:
            direct = sum((r - 1) / (k * (k - 1)) * g_reference(k, r, x) for k in range(r, m + 1))
            assert 1.0 - D(x) == pytest.approx(direct, abs=1e-12)


def test_deficiency_bounds():
    for r in (2, 3, 4):
        for m in (100, 10**6, 10**9):
            D = _deficiency_at(r, m)
            for x in XGRID:
                assert -1e-15 <= D(x) <= r * (r - 1) / m + 1e-15
                if 0.0 < x < 1.0:
                    assert D(x) == _deficiency_of_float(r, m, x)
            assert D(1.0) == pytest.approx((r - 1) / m, abs=0)
            assert D(0.0) == 0.0


# ---------------------------------------------------------------------------
# the mixture G


def test_G_regular_is_single_kernel():
    for b, r in [(3, 2), (5, 2), (5, 3), (7, 4)]:
        ctx = make_context(make_distribution(f"regular:b={b}"), r)
        for x in XGRID:
            assert gw.G(ctx, x) == pytest.approx(g(b, r, x), abs=1e-12)


def test_G_keeps_its_bits_where_it_is_small():
    # G was formed as 1 + (G - 1), which read 0.0 here
    ctx = make_context(make_distribution("regular:b=10"), 3)
    want = g(10, 3, 1e-3)
    assert want == pytest.approx(4.492e-20, rel=1e-3)
    assert gw.G(ctx, 1e-3) == pytest.approx(want, rel=1e-14, abs=0)
    assert gw.G(ctx, np.array([1e-3, 0.5]))[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_G_heavy_tail_is_one():
    # the body is summed to infinity: D_r(m, x) -> 0 as m -> infinity
    ctx = make_context(make_distribution("heavy:r=2"), 2)
    for x in XGRID:
        assert gw.G(ctx, x) == 1.0, x


def test_G_shifted_geometric_closed_form():
    for b in (3.0, 4.0, 7.5):
        ctx = make_context(make_distribution(f"geometric:b={b}"), 2)
        for x in XGRID:
            want = (2 * (b - 1) - (2 * b - 3) * x) / ((b - 1) - (b - 2) * x) ** 2
            assert gw.G(ctx, x) == pytest.approx(want, abs=1e-11)
    ctx = make_context(make_distribution("geometric:b=3"), 2)
    assert gw.G(ctx, 0.0) == pytest.approx(1.0, abs=1e-11)


def test_G_shifted_poisson_closed_form():
    for b in (3.0, 4.0, 10.0):
        ctx = make_context(make_distribution(f"poisson:b={b}"), 2)
        for x in XGRID:
            want = math.exp(-(b - 2) * (1 - x)) * (2 + (b - 3) * x - (b - 2) * x**2)
            assert gw.G(ctx, x) == pytest.approx(want, abs=1e-11)


def test_G_pruned_matches_enumeration_small_b():
    eta = make_distribution("pruned:r=2,b=5.0")
    ks, probs = eta.support_probs(eta.top)
    ctx = make_context(eta, 2)
    for x in XGRID:
        direct = float(sum(p * g_reference(int(k), 2, x) for k, p in zip(ks, probs)))
        assert gw.G(ctx, x) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# the survival map h


def test_h_zero_cases():
    ctx = make_context(make_distribution("regular:b=3"), 2)
    for x in XGRID:
        assert gw.h(ctx, 1.0, x) == 0.0
    for p in (0.0, 0.3, 0.99):
        assert gw.h(ctx, p, 0.0) == 0.0


def test_h_positive_iff_x_positive():
    # for p < 1 and any threshold r >= 2, h(x) = 0 iff x = 0
    for spec, r in [("regular:b=4", 2), ("regular:b=4", 3), ("geometric:b=3", 2)]:
        ctx = make_context(make_distribution(spec), r)
        assert gw.h(ctx, 0.7, 0.0) == 0.0
        for x in (1e-9, 0.01, 0.5, 1.0):
            assert gw.h(ctx, 0.7, x) > 0.0, (spec, r, x)


def test_h_at_one():
    ctx = make_context(make_distribution("regular:b=3"), 2)
    assert gw.h(ctx, 0.0, 1.0) == pytest.approx(1.0)


def test_h_equals_xG():
    # the identity needs P(xi < r) = 0, hence r = 2 for the shifted families
    for spec, r in [("regular:b=4", 2), ("regular:b=5", 3), ("geometric:b=3", 2),
                    ("poisson:b=5", 2), ("twopoint:b=4,a=9", 2)]:
        ctx = make_context(make_distribution(spec), r)
        for p in (0.0, 0.2, 0.8):
            for x in XGRID:
                if x == 0.0:
                    continue
                assert gw.h(ctx, p, x) == pytest.approx(
                    x * (1 - p) * gw.G(ctx, x), abs=1e-12
                )


def test_h_includes_subthreshold_mass():
    # a law with mass below r: those vertices are never infected from below
    d = make_distribution("pmf:1=0.5,3=0.5")
    ctx = make_context(d, 2)
    # h(x) = (1-p) [0.5 * 1 + 0.5 * P(Bin(3,1-x) <= 1)]
    for x in (0.0, 0.3, 1.0):
        want = 0.7 * (0.5 + 0.5 * binom_lte(3, 1 - x, 1))
        assert gw.h(ctx, 0.3, x) == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# maximization


def test_max_regular2():
    ctx = make_context(make_distribution("regular:b=2"), 2)
    res = max_G(ctx)
    assert res.x_star == pytest.approx(0.0, abs=1e-9)
    assert res.M == pytest.approx(2.0, abs=1e-12)


def test_max_geometric_closed_form():
    for b in (3.0, 5.0, 12.0):
        ctx = make_context(make_distribution(f"geometric:b={b}"), 2)
        res = max_G(ctx)
        want_x = (2 * b - 5) * (b - 1) / ((b - 2) * (2 * b - 3))
        want_M = (2 * b - 3) ** 2 / (4 * (b - 1) * (b - 2))
        assert res.x_star == pytest.approx(want_x, abs=2e-4)
        assert res.M == pytest.approx(want_M, abs=1e-11)


def test_max_shifted_poisson():
    ctx = make_context(make_distribution("poisson:b=4"), 2)
    res = max_G(ctx)
    assert res.x_star == pytest.approx(0.89564392373896, abs=2e-4)
    want_M = math.exp(-0.5 * (5 - math.sqrt(21))) * ((math.sqrt(21) - 2) / 2)
    assert res.M == pytest.approx(want_M, abs=1e-11)


def test_max_result_invariants():
    for spec, r in [("regular:b=6", 2), ("twopoint:b=4,a=9", 2), ("heavy:r=3", 3),
                    ("poisson:b=8", 2), ("pruned:r=2,b=15", 2)]:
        ctx = make_context(make_distribution(spec), r)
        res = max_G(ctx)
        assert res.M >= 1.0 - 1e-10          # M >= G(1) = 1
        assert res.M <= r + 1e-10            # M <= g_r^r(0) = r
        assert 0.0 <= res.x_star <= 1.0


def test_G_dominated_by_diagonal_kernel():
    # G(x) <= g_r^r(x) within rounding
    for spec, r in [("geometric:b=4", 2), ("poisson:b=5", 2), ("twopoint:b=3,a=7", 2)]:
        ctx = make_context(make_distribution(spec), r)
        for x in XGRID:
            assert gw.G(ctx, x) <= g(r, r, x) + 1e-12


# ---------------------------------------------------------------------------
# array evaluation of G

# every family, at thresholds matching and not matching a heavy or pruned law's own r
ARRAY_CASES = [
    ("regular:b=2", (2,)), ("regular:b=5", (2, 3, 4, 5)), ("regular:b=20", (2, 3, 4)),
    ("poisson:b=4", (2, 3)), ("poisson:b=17", (2,)),
    ("geometric:b=3", (2, 3)), ("geometric:b=19", (2,)),
    ("twopoint:b=4,a=9", (2, 3, 4)), ("pmf:2=0.25,3=0.5,7=0.25", (2, 3)),
    ("heavy:r=2", (2, 3)), ("heavy:r=3", (2, 3)), ("heavy:r=4", (2, 4)),
    ("pruned:r=2,b=20", (2, 3)), ("pruned:r=3,b=8", (2, 3, 4)),
]
ARRAY_X = [0.0, 1e-300, 1e-9, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
           1 - 1e-9, 1 - 1e-13, 1.0]


@pytest.mark.parametrize("spec, rs", ARRAY_CASES)
def test_G_minus_1_array_matches_points(spec, rs):
    for r in rs:
        ctx = make_context(make_distribution(spec), r)
        xs = np.array(ARRAY_X + list(np.linspace(0.0, 1.0, 37)))
        got = gw.G_minus_1(ctx, xs)
        assert got.shape == xs.shape
        for x, v in zip(xs, got):
            assert abs(v - gw.G_minus_1(ctx, float(x))) <= 1e-14, (spec, r, x)
    assert isinstance(gw.G_minus_1(ctx, 0.5), float)
    assert gw.G_minus_1(ctx, np.array([])).shape == (0,)
    with pytest.raises(PreconditionError):
        gw.G_minus_1(ctx, np.array([0.5, 1.5]))
    with pytest.raises(PreconditionError):
        gw.G_minus_1(ctx, np.array([0.5, np.nan]))
    with pytest.raises(PreconditionError):
        gw.G_minus_1(ctx, np.full((2, 2), 0.5))


def test_heavy_tail_deficiency_array_matches_points():
    xs = np.array(ARRAY_X[1:-1])  # _deficiency takes interior x
    for r, m in [(2, 40), (3, 500), (4, 10**6), (3, 2 * 10**13)]:
        got = kernels._deficiency(r, m, *kernels._libm_logs(xs))
        for x, v in zip(xs, got):
            assert v == pytest.approx(_deficiency_of_float(r, m, float(x)), rel=1e-12, abs=1e-300)


DEFICIENCY_X = [1e-300, 1e-9, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-9, 1 - 1e-13]


@pytest.mark.parametrize("r, m", [(2, 40), (3, 500), (3, 501), (4, 10**6), (3, 2 * 10**13), (4, 10**13)])
def test_heavy_tail_deficiency_has_one_definition(r, m):
    # a float and an element of an array take the same operations: the same bits
    got = kernels._deficiency(r, m, *kernels._libm_logs(np.array(DEFICIENCY_X)))
    for x, v in zip(DEFICIENCY_X, got.tolist()):
        assert _deficiency_of_float(r, m, x) == v, (r, m, x)


# G of the heavy law of threshold s at threshold r: (s-1)/(r-1) (D_r(max(r, s) - 1, x)
# - D_r(infinity, x)) with D_2(m, x) = x^(m-1)/m, D_r(r-1, x) = 1 and D_r(infinity, x) = 0
HEAVY_G = {("heavy:r=3", 2): lambda x: x, ("heavy:r=4", 2): lambda x: x * x,
           ("heavy:r=2", 3): lambda x: 1 / 2, ("heavy:r=2", 4): lambda x: 1 / 3,
           ("heavy:r=2", 2): lambda x: 1.0, ("heavy:r=3", 3): lambda x: 1.0}


@pytest.mark.parametrize("spec, r", [("heavy:r=3", 2), ("heavy:r=4", 2), ("heavy:r=2", 3),
                                     ("heavy:r=2", 4), ("pruned:r=3,b=8", 2),
                                     ("pruned:r=2,b=6", 3), ("pruned:r=3,b=8", 4)])
def test_G_mismatched_threshold_matches_direct_sum(spec, r):
    # a pruned law's support ends at its top, so it is summed term by term; the
    # heavy law's infinite sum has the closed form of HEAVY_G
    d = make_distribution(spec)
    ctx = make_context(d, r)
    xs = np.array([0.0, 1e-300, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6, 1.0])
    got = gw.G_minus_1(ctx, xs)
    for x, v in zip(xs, got):
        if d.top is None:
            want = HEAVY_G[spec, r](float(x))
        else:
            assert d.top <= 40_000
            want = math.fsum(float(d.pmf(k)) * g(k, r, float(x)) for k in range(r, d.top + 1))
        assert v == pytest.approx(want - 1.0, abs=1e-15 if d.top is None else 1e-13)


def test_mismatched_threshold_context_is_fixed_and_fast():
    d = make_distribution("heavy:r=3")
    ctx = make_context(d, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.const = 1.0
    with pytest.raises(ValueError):
        ctx.weights[0] = 1.0
    t0 = time.perf_counter()
    res = gw.pc_exact(d, 2)
    assert time.perf_counter() - t0 < 10.0
    # the law has G(x) = x, so M = G(1) = 1 and p_c = 0
    assert res.M == 1.0 and res.pc == 0.0
    assert max_G(ctx).M == res.M
    # h at the context's own threshold goes through the same mixture
    x = 0.4
    assert gw.h(ctx, 0.1, x) == pytest.approx(0.9 * x * gw.G(ctx, x), abs=1e-15)


@pytest.mark.parametrize("spec", ["heavy:r=4", "pruned:r=4,b=60"])
@pytest.mark.parametrize("x", [1e-9, 1e-6])
def test_h_below_a_laws_own_threshold_keeps_relative_precision_near_0(spec, x):
    # h = 0.9 x G(x), about 0.9 x^3: its terms k = 4..63 summed at 50 digits leave
    # less than x^60 of it.  An O(s) constant cancelled down to G read 0.0 at 1e-9
    d = make_distribution(spec)
    got = gw.h(make_context(d, 2), 0.1, x)
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        pmf = {k: mpmath.mpf(3) / (k * (k - 1)) for k in range(4, 64)}
        for k, w in d.atoms:
            pmf[k] += w
        want = mpmath.mpf("0.9") * xm * mpmath.fsum(p * _g_50(k, 2, xm) for k, p in pmf.items())
        assert abs(got / want - 1) <= 1e-12, (got, want)


def test_pc_exact_of_a_heavy_law_far_above_r_is_a_few_evaluations(monkeypatch):
    # G_upper bounds the body through D_r(s-1, x), so max_G drops every piece
    # but the one at x = 1; with the body as negative atoms, which G_upper left
    # out, heavy:r=50 took 4,869 single-x evaluations and heavy:r=400 6.8 s
    calls = []
    minus_1 = kernels.G_minus_1
    monkeypatch.setattr(kernels, "G_minus_1", lambda c, x: calls.append(x) or minus_1(c, x))
    assert gw.pc_exact(make_distribution("heavy:r=50"), 2).pc == 0.0
    assert len(calls) <= 10
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert gw.pc_exact(make_distribution("heavy:r=400"), 2).pc == 0.0
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.05, times


@pytest.mark.parametrize("r", [2, 3, 4])
def test_heavy_law_at_its_own_threshold_is_exact_and_flat(monkeypatch, r):
    # summed to infinity, G - 1 is exactly 0 on the grid, a plateau with no piece
    # to refine; cut at tail 1e-13 it took 42 single-x evaluations and M read
    # 1 - 1e-13 below the law's own threshold
    ctx = make_context(make_distribution(f"heavy:r={r}"), r)
    assert ctx.body == () and ctx.const == 1.0
    calls = []
    minus_1 = kernels.G_minus_1
    monkeypatch.setattr(kernels, "G_minus_1", lambda c, x: calls.append(x) or minus_1(c, x))
    assert max_G(ctx).M_minus_1 == 0.0
    assert calls == []
    for s in range(r + 1, 5):
        assert gw.pc_exact(make_distribution(f"heavy:r={s}"), r).M == 1.0


def test_context_weights_are_masses():
    # a heavy or pruned law keeps only its own atoms; its body is D_r at any r
    for spec, r in ANALYTIC_THRESHOLDS + _criterion_8_laws():
        ctx = make_context(make_distribution(spec), r)
        assert (ctx.weights >= 0.0).all(), (spec, r)


def test_h_with_threshold_below_r_heavy_is_fast_and_exact():
    # h at a threshold below the law's own r = 3
    d = make_distribution("heavy:r=3")
    t0 = time.perf_counter()
    val = gw.h(make_context(d, 2), 0.1, 0.5)
    assert time.perf_counter() - t0 < 0.05  # no enumeration of the infinite support
    assert val == pytest.approx(0.9 * 0.5**2, abs=1e-14)  # E P(Bin(xi, 1-x) <= 1) = x^2 here
    ctx = make_context(d, 2)
    for x in (0.0, 1e-300, 0.1, 0.5, 0.9, 0.999, 1 - 1e-13, 1.0):
        assert abs(gw.h(ctx, 0.0, x) - x * x) <= 1e-14, x
    with pytest.raises(PreconditionError):
        gw.h(make_context(d, 2), 1.5, 0.5)


# (spec, r, x_star, M) from criterion 8's grid, as max_G reported them before
# the grid was evaluated in one array call and while the kernels tabulated
# log C(k, i) by gammaln differences; the ids keep these values.  max_G and
# these recorded values are both held to the 50-digit maximum of each law's G:
# M within 1e-13, and x_star within 8.2e-9, the smallest tolerance the recorded
# rows all meet (G is flat at its maximum; regular:b=3 reads 8.14e-9 from 0.75)
MAX_G_GOLDEN = [
    ("regular:b=3", 2, 0.7499999918553406, 1.125),
    ("regular:b=7", 3, 0.8632143455079044, 1.0907996216143154),
    ("regular:b=12", 4, 0.8875445458920579, 1.0842464983069189),
    ("poisson:b=5", 2, 0.9428090389019756, 1.0267701710974726),
    ("poisson:b=17", 2, 0.9962847927411858, 1.0018217012476254),
    ("geometric:b=4", 2, 0.8999999936592167, 1.041666666666666),
    ("geometric:b=19", 2, 0.9983193274891112, 1.0008169934639843),
    ("twopoint:b=4,a=7", 2, 0.0, 1.2),
    ("twopoint:b=6,a=9", 2, 0.9703355648062786, 1.013943697224278),
    ("pruned:r=2,b=21", 2, 0.9295470744029318, 1.0000000013958623),
]


def _g_50(k, r, x):
    return mpmath.fsum(comb(k, i) * x ** (k - i - 1) * (1 - x) ** i for i in range(r))


def _deficiency_50(r, m, x):
    """D_r(m, x) by the recursion of the kernels' docstring, term by term in mpmath."""
    if x == 0:
        return mpmath.mpf(0)
    d = x ** (m - 1) / m
    for s in range(2, r):
        tail = mpmath.fsum(mpmath.binomial(m - 1, i) * (1 - x) ** i * x ** (m - 1 - i)
                           for i in range(s - 1))
        d = s * d / (s - 1) + (1 - x) / ((s - 1) * x) * tail
    return d


def _G_50(d, r):
    """G of a law of the golden rows as an mpmath function: the exact atoms of a
    finite law; for r = 2 on support >= 2, G(x) = (phi(x) + (1-x) phi'(x))/x with
    phi the pgf, in closed form for the shifted laws; and, for a pruned law of
    threshold s, its body plus its atoms at s and 2s+1, whose alpha is rebuilt
    from harmonic numbers at 50 digits beyond those of k1.  The body is
    1 - D_s(k1, x) at r = s, by the deficiency identity, and at r = 2 the
    telescoped sum_{k=s}^{k1} (s-1) (x^(k-2)/(k-1) - x^(k-1)/k), since
    g_k^2(x) = k x^(k-2) - (k-1) x^(k-1).
    """
    mp = mpmath.mpf
    family = d.spec.family
    if family in ("regular", "two_point"):
        atoms = [(k, mp(d.pmf(k).numerator) / d.pmf(k).denominator) for k in d.ks.tolist() if k >= r]
        return lambda x: mpmath.fsum(p * _g_50(k, r, x) for k, p in atoms)
    if family == "explicit_pmf":  # the weights as the law holds them
        atoms = [(k, mp(p)) for k, p in zip(d.ks.tolist(), d.probs.tolist()) if k >= r]
        return lambda x: mpmath.fsum(p * _g_50(k, r, x) for k, p in atoms)
    if family == "pruned":
        s, k1 = d.r, d.k1
        assert r in (s, 2)
        with mpmath.workdps(mpmath.mp.dps + len(str(k1))):
            b, H = mp(d.b), lambda n: mpmath.harmonic(n) - mpmath.harmonic(s - 2)
            assert (s - 1) * H(d.k0 - 1) <= b < (s - 1) * H(d.k0)
            A = mp(s - 1) / k1
            alpha = (2 * s + 1 - (b - (s - 1) * H(k1 - 1)) / A) / (s + 1)
        body = ((lambda x: 1 - _deficiency_50(r, k1, x)) if r == s
                else (lambda x: x ** (s - 2) - (s - 1) * x ** (k1 - 1) / k1))
        return lambda x: body(x) + A * (alpha * _g_50(s, r, x) + (1 - alpha) * _g_50(2 * s + 1, r, x))
    assert r == 2
    if family == "shifted_poisson":
        lam = mp(d.lam)
        return lambda x: mpmath.exp(lam * (x - 1)) * (x + (1 - x) * (2 + lam * x))
    assert family == "shifted_geometric"
    rho = (mp(d.b) - 2) / (mp(d.b) - 1)
    return lambda x: (1 - rho) / (1 - rho * x) * (x + (1 - x) * (2 + rho * x / (1 - rho * x)))


def _max_G_50(d, r, solver="anderson"):
    """(argmax, max) of G on [0, 1] at 50 digits: the best of 201 grid points,
    refined to the root of G' between its neighbours where G' changes sign."""
    with mpmath.workdps(50):
        G = _G_50(d, r)
        dG = lambda x: mpmath.diff(G, x)
        xs = [mpmath.mpf(i) / 200 for i in range(201)]
        best = max(range(201), key=lambda i: G(xs[i]))
        lo, hi = xs[max(best - 1, 0)], xs[min(best + 1, 200)]
        if dG(lo) > 0 > dG(hi):
            x = mpmath.findroot(dG, (lo, hi), solver=solver)
            return x, G(x)
        return xs[best], G(xs[best])


@pytest.mark.parametrize("spec, r, x_star, M", MAX_G_GOLDEN)
def test_max_G_golden(spec, r, x_star, M):
    d = make_distribution(spec)
    res = max_G(make_context(d, r))
    x_ref, M_ref = _max_G_50(d, r)
    for got_x, got_M in ((res.x_star, res.M), (x_star, M)):
        assert abs(got_x - x_ref) <= 8.2e-9
        assert abs(got_M - M_ref) <= 1e-13


# pruned laws where p_c runs from 4e-9 down to 5e-44: every bit of p_c comes from
# G - 1, none from M = 1 + (G - 1), which would round p_c to a multiple of 2^-52
PRUNED_PC_50 = ([(2, b) for b in (20, 25, 30, 34, 37)] + [(3, b) for b in (30, 60, 80, 100)]
                + [(4, b) for b in (40, 70, 100)])


@pytest.mark.parametrize("r, b", PRUNED_PC_50)
def test_pc_exact_of_pruned_laws_matches_50_digit_maximum(r, b):
    d = make_distribution(f"pruned:r={r},b={b}")
    res = gw.pc_exact(d, r)
    _, M_ref = _max_G_50(d, r)
    with mpmath.workdps(50):
        pc_ref = (M_ref - 1) / M_ref
        assert pc_ref > 0
        assert abs(res.pc - pc_ref) <= 1e-12 * pc_ref, (res.pc, pc_ref)


@pytest.mark.parametrize("spec, pc_digits", [("pruned:r=4,b=60", "1.5487180106e-10"),
                                             ("pruned:r=3,b=40", "4.1440747588e-10")])
def test_pc_exact_of_pruned_laws_at_r_2_lies_within_err_of_50_digit_pc(spec, pc_digits):
    # below the law's own threshold the body is summed through D_2, not as
    # atoms whose O(s) negative weights cancel down to G
    d = make_distribution(spec)
    res = gw.pc_exact(d, 2)
    _, M_ref = _max_G_50(d, 2, "illinois")  # anderson's steps leave [lo, hi] on these
    with mpmath.workdps(50):
        pc_ref = (M_ref - 1) / M_ref
        assert abs(pc_ref / mpmath.mpf(pc_digits) - 1) < 1e-10
        assert abs(res.pc - pc_ref) <= res.err, (res.pc, pc_ref)


def test_pc_exact_of_a_law_with_a_far_atom_matches_50_digit_maximum():
    # two atoms, the larger beyond what was once a cap on the largest atom
    d = make_distribution("pmf:3=0.9,3000000=0.1")
    res = gw.pc_exact(d, 2)
    _, M_ref = _max_G_50(d, 2)
    with mpmath.workdps(50):
        assert abs(res.pc - (M_ref - 1) / M_ref) <= res.err


def test_make_context_caps_the_number_of_atoms(monkeypatch):
    # a finite law's cap is read in kernels, a shifted law's in its own refuse_past_cap
    for module in (offspring, kernels):
        monkeypatch.setattr(module, "ENUM_CAP", 2)
    assert len(make_context(make_distribution("pmf:1=0.5,2=0.25,3000000=0.25"), 2).ks) == 2
    with pytest.raises(gw.PreconditionError):
        make_context(make_distribution("pmf:2=0.5,3=0.25,4=0.25"), 2)
    with pytest.raises(gw.PreconditionError):  # a geometric law: one atom per k up to its cut
        make_context(make_distribution("geometric:b=3"), 2)


def test_moment_sums_refuse_exactly_the_laws_make_context_refuses(monkeypatch):
    # one ENUM_CAP rule, each law's refuse_past_cap; the moments' own,
    # longer enumeration is not capped
    for module in (offspring, kernels):
        monkeypatch.setattr(module, "ENUM_CAP", 200)
    refused = {}
    for spec in [f"geometric:b={b}" for b in (3, 5, 8, 9, 12)] + [f"poisson:b={b}" for b in (3, 20, 40)]:
        try:
            make_context(make_distribution(spec), 2)
        except PreconditionError:
            refused[spec] = True
        else:
            refused[spec] = False
        d = make_distribution(spec)
        if refused[spec]:
            with pytest.raises(PreconditionError):
                d.alpha_moment(0.5)
        else:
            assert d.alpha_moment(0.5) > 0.0
    assert set(refused.values()) == {True, False}


def _grid_pieces(vals):
    """(lo, hi) grid indices of the pieces max_G considers for these grid values
    before ``G_upper`` drops any (its own rule, restated)."""
    n = len(vals) - 1
    pieces = [
        (i - 1, i + 1) for i in range(1, n)
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]
        and (vals[i] > vals[i - 1] or vals[i] > vals[i + 1])
    ]
    return pieces + [(0, 1)] * bool(vals[0] > vals[1]) + [(n - 1, n)] * bool(vals[-1] > vals[-2])


@pytest.mark.parametrize("spec, r", [("regular:b=5", 3), ("poisson:b=8", 2), ("geometric:b=19", 2),
                                     ("twopoint:b=4,a=9", 2), ("heavy:r=3", 2),
                                     ("pruned:r=2,b=20", 2), ("pmf:2=0.25,3=0.5,7=0.25", 3)])
def test_max_G_evaluates_grid_in_blocks(monkeypatch, spec, r):
    ctx = make_context(make_distribution(spec), r)
    max_G(ctx)  # the grid and its logs exist from here on
    blocks, points, log_calls = [], [], []  # rows per block, ndim-0 flags, logs taken
    block, minus_1, logs = kernels._G_block, kernels.G_minus_1, kernels._libm_logs

    def counting_block(c, xs, *rest):
        blocks.append(len(xs))
        return block(c, xs, *rest)

    def counting_logs(xs):
        log_calls.append(len(xs))
        return logs(xs)

    def counting_minus_1(c, x):
        points.append(np.ndim(x) == 0)
        return minus_1(c, x)

    monkeypatch.setattr(kernels, "_G_block", counting_block)
    monkeypatch.setattr(kernels, "G_minus_1", counting_minus_1)
    monkeypatch.setattr(kernels, "_libm_logs", counting_logs)
    max_G(ctx)
    monkeypatch.undo()
    assert all(points)  # G_minus_1 only refines single points
    assert sum(blocks) == 1001  # one pass over the whole grid
    # the grid's logs are computed once per process: a second max_G takes none,
    # also not for the heavy and pruned deficiency
    assert log_calls == []
    terms = r * len(ctx.ks)  # of _g_sum's temporary per row, which a block counts
    assert len(blocks) <= max(1, math.ceil(1001 * terms / 2**16))
    assert max(blocks) * terms <= 2**16 + terms
    assert len(points) < 120 * len(_grid_pieces(minus_1(ctx, np.linspace(0.0, 1.0, 1001))))


# heavy and pruned laws at their own threshold and at mismatched ones
ANALYTIC_THRESHOLDS = [(spec, r) for spec in ("heavy:r=2", "heavy:r=3", "heavy:r=4", "pruned:r=2,b=20",
                                              "pruned:r=3,b=30", "pruned:r=4,b=66") for r in (2, 3, 4)]


def test_max_G_grid_is_G_minus_1_bitwise(monkeypatch):
    # the cached grid logs are a fast path, not a fork: max_G reads the whole grid
    # in one call, and every value is G_minus_1 on np.linspace(0, 1, 1001) at that
    # point; MaxResult.grid holds those values, read-only
    xs = np.linspace(0.0, 1.0, 1001)
    blocks_of, seen = kernels._G_blocks, []

    def recording(c, x, *rest):
        seen.append((np.rint(x * 1000).astype(int), blocks_of(c, x, *rest)))
        return seen[-1][1]

    monkeypatch.setattr(kernels, "_G_blocks", recording)
    for spec, r in _criterion_8_laws() + ROW_EXTRA + ANALYTIC_THRESHOLDS + SCAN_EXTRA:
        ctx = make_context(make_distribution(spec), r)
        want = gw.G_minus_1(ctx, xs)
        seen.clear()
        res = max_G(ctx)
        assert len(seen) == 1, (spec, r)
        assert seen[0][1].tobytes() == want.tobytes(), (spec, r)
        assert res.grid.tobytes() == want.tobytes() and not res.grid.flags.writeable, (spec, r)


def _pmf_spec(ks, weights):
    """An explicit pmf on the integers ks, its weights scaled to sum to 1."""
    w = np.asarray(weights, dtype=float)
    return "pmf:" + ",".join(f"{k}={p!r}" for k, p in zip(ks, (w / w.sum()).tolist()))


# explicit pmfs of a few hundred to a few thousand atoms, where a grid spans
# several blocks: geometric weights on k = 2..527 and 2..1751, and Poisson(998)
# weights on 2 + (850..1150)
WIDE_PMFS = [_pmf_spec(range(2, 528), (17 / 18) ** np.arange(526.0)),
             _pmf_spec(range(2, 1752), (58 / 59) ** np.arange(1750.0)),
             _pmf_spec(range(852, 1153), [math.exp(j * math.log(998) - 998 - math.lgamma(j + 1))
                                           for j in range(850, 1151)])]
# supports of several blocks, whose grid max_G evaluates in several _G_block calls
SCAN_EXTRA = [(WIDE_PMFS[1], 2), (WIDE_PMFS[2], 2), ("pmf:3=0.9,3000000=0.1", 2)]


def test_max_G_pruned_scan_equals_a_whole_grid_scan(monkeypatch):
    # with every grid one block, _G_blocks makes one _G_block call of all 1001
    # points: the pieces max_G refines, and so its result, are the same bit for bit
    laws = _criterion_8_laws() + ROW_EXTRA + ANALYTIC_THRESHOLDS + SCAN_EXTRA + [(WIDE_PMFS[0], 3)]
    got = {law: max_G(make_context(make_distribution(law[0]), law[1])) for law in laws}
    monkeypatch.setattr(kernels, "_BLOCK", 2**40)
    for spec, r in laws:
        whole = max_G(make_context(make_distribution(spec), r))
        for name in ("x_star", "M_minus_1", "err"):
            assert getattr(got[spec, r], name).hex() == getattr(whole, name).hex(), (spec, r, name)


def test_pc_exact_of_a_wide_pmf_scans_its_grid_whole_in_time():
    # 10^4 atoms, weights e^(-j/1000) on k = 2 + j: the whole grid is 10^7 (x, k)
    # terms in about 150 blocks (65-80 ms on a 2-vCPU Xeon); x_star and M are pinned
    # to the bits they had when the scan evaluated only the pieces G_upper kept
    d = make_distribution(_pmf_spec(range(2, 10002), np.exp(-np.arange(10000.0) / 1000)))
    t0 = time.perf_counter()
    res = gw.pc_exact(d, 2)
    assert time.perf_counter() - t0 < 1.0
    assert res.x_star.hex() == "0x1.ffffef2b38395p-1"
    assert res.M.hex() == "0x1.00000434aace8p+0"


# multi-atom laws at r up to 8, whose single x is a row of the tables: a
# single x or a single piece sums over i < r by one scan where r > len(ks)
# (r = 5, 6, 8), else by one op per i as the grid does; blocks of fewer x
# than atoms hold k innermost, larger ones x
TABLE_ROWS = [("twopoint:b=5,a=9", 2), ("pmf:2=0.2,5=0.3,9=0.4,13=0.1", 4), ("pmf:2=0.2,5=0.3,9=0.4,13=0.1", 5),
              ("pmf:3=0.1,8=0.2,9=0.3,12=0.25,20=0.15", 3), ("pmf:3=0.1,8=0.2,9=0.3,12=0.25,20=0.15", 6),
              ("pmf:3=0.1,8=0.2,9=0.3,12=0.25,20=0.15", 8)]


@pytest.mark.parametrize("spec, r", [("geometric:b=19", 2), ("geometric:b=19", 4), ("poisson:b=20", 2),
                                     ("poisson:b=1000", 2), ("poisson:b=8", 4), (WIDE_PMFS[0], 2),
                                     (WIDE_PMFS[2], 3)] + TABLE_ROWS)
def test_G_at_a_point_does_not_depend_on_its_array(spec, r):
    # each row is its own dot product: a matrix-vector product (gemv) gave 2 of
    # 139 grid values of geometric:b=19 another last bit in another block layout
    ctx = make_context(make_distribution(spec), r)
    assert ctx.atoms is None
    xs = np.linspace(0.0, 1.0, 1001)
    grid = gw.G_minus_1(ctx, xs)
    assert gw.G_minus_1(ctx, xs[::7]).tobytes() == grid[::7].tobytes()
    for x, v in zip(xs.tolist(), grid.tolist()):
        assert gw.G_minus_1(ctx, x) == v, (spec, r, x)
    a, b = xs[:-1], xs[1:]
    pieces = kernels.G_upper(ctx, a, b)
    assert kernels.G_upper(ctx, a[::7], b[::7]).tobytes() == pieces[::7].tobytes()
    for j in (0, 1, 500, 998, 999):
        assert kernels.G_upper(ctx, a[j:j + 1], b[j:j + 1])[0] == pieces[j], (spec, r, j)


@pytest.mark.parametrize("spec, r", TABLE_ROWS + [("regular:b=30", 8), (WIDE_PMFS[0], 3)])
def test_G_in_blocks_split_by_r_keeps_its_bits(monkeypatch, spec, r):
    # _row_blocks counts r len(ks) terms per row: a split into blocks of a few
    # rows, and into one row each, moves no bit of G - 1 or G_upper
    ctx = make_context(make_distribution(spec), r)
    xs = np.linspace(0.0, 1.0, 1001)
    whole, upper = gw.G_minus_1(ctx, xs), kernels.G_upper(ctx, xs[:-1], xs[1:])
    for block in (7 * r * len(ctx.ks), 1):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        assert len(kernels._row_blocks(ctx, 1001)) > 100
        assert gw.G_minus_1(ctx, xs).tobytes() == whole.tobytes(), (spec, r, block)
        assert kernels.G_upper(ctx, xs[:-1], xs[1:]).tobytes() == upper.tobytes(), (spec, r, block)


# the thinned Poisson law over b, at x near both ends and on both sides of the
# tail form's switch at x = 1/2
THIN_XS = np.r_[1e-300, 1e-9, 1e-3, np.linspace(0.02, 0.98, 60), 0.5, np.nextafter(0.5, 0.0),
                1 - 1e-3, 1 - 1e-9, 1 - 1e-15]


@pytest.mark.parametrize("b", [3, 7.5, 30, 1000, 100000])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_thinned_G_at_a_point_does_not_depend_on_its_array(b, r):
    # numpy's exp takes a float and an array alike, with the bits of the same
    # argument at any place in any array: a float, arrays 1 to 33 long at four
    # offsets, and a strided view agree bit for bit (libm's exp for a float
    # differed from numpy's array exp in about 1 in 20 arguments)
    ctx = make_context(make_distribution(f"poisson:b={b}"), r)
    xs = THIN_XS
    for f in (gw.G, gw.G_minus_1):
        single = np.array([f(ctx, x) for x in xs.tolist()])
        for n in range(1, 34):
            for lo in (0, 1, 7, len(xs) - n):
                assert f(ctx, xs[lo:lo + n]).tobytes() == single[lo:lo + n].tobytes(), (b, r, n, lo)
        assert f(ctx, xs[::3]).tobytes() == single[::3].tobytes(), (b, r)
        assert f(ctx, xs[::-1]).tobytes() == single[::-1].tobytes(), (b, r)
    for x in xs.tolist():
        assert gw.h(ctx, 0.25, x) == 0.75 * (ctx.prob_below + x * gw.G(ctx, x)), (b, r, x)


def test_max_G_grid_is_read_only():
    xs, lx, l1x = kernels._grid()
    assert np.array_equal(xs, np.linspace(0.0, 1.0, 1001))
    assert kernels._grid()[0] is xs  # built once
    for a in (xs, lx, l1x):
        with pytest.raises(ValueError):
            a[1] = 0.5


def _counted(f):
    """f and a list that records the points it is called at."""
    seen = []

    def counting(x):
        seen.append(x)
        return f(x)

    return counting, seen


@pytest.mark.parametrize("f, c", [(lambda x: -((x - 0.62213) ** 2), 0.62213),
                                  (lambda x: -((x - 0.36364) ** 2) * (1.0 + 5.0 * x), 0.36364),
                                  (lambda x: -((x - 0.9004) ** 4) * (2.0 - x), 0.9004)],
                         ids=["quadratic", "cubic", "quartic"])
def test_refine_finds_an_interior_maximum(f, c):
    # f(c) = 0 and f < 0 around it, so f has its full relative precision near c
    a = round(c, 3) - 1e-3
    g, seen = _counted(f)
    x, fx = kernels._refine(g, (a, f(a)), (a + 2e-3, f(a + 2e-3)), (a + 1e-3, f(a + 1e-3)))
    assert abs(x - c) <= 1e-9
    assert fx == f(x) and fx >= f(a + 1e-3)
    assert len(seen) <= 20
    assert all(a <= u <= a + 2e-3 for u in seen)


@pytest.mark.parametrize("f, lo, hi, end", [(lambda x: 1.0 - x, 0.0, 1e-3, 0.0),
                                            (lambda x: x * x, 0.999, 1.0, 1.0),
                                            (lambda x: -2.0 * x, 0.0, 1e-3, 0.0)],
                         ids=["falls-from-0", "rises-to-1", "steep-from-0"])
def test_refine_settles_a_maximum_at_an_end_with_one_probe(f, lo, hi, end):
    g, seen = _counted(f)
    assert kernels._refine(g, (lo, f(lo)), (hi, f(hi))) == (end, f(end))
    assert len(seen) == 1
    assert abs(seen[0] - end) == pytest.approx(kernels.BRACKET_WIDTH, rel=1e-3)


def test_refine_leaves_an_end_whose_probe_rises():
    # f falls from 0 to 1e-3 on the grid, but its mode lies inside the piece
    f = lambda x: -((x - 3e-4) ** 2)
    g, seen = _counted(f)
    x, _ = kernels._refine(g, (0.0, f(0.0)), (1e-3, f(1e-3)))
    assert abs(x - 3e-4) <= 1e-9
    assert 1 < len(seen) <= 20


def test_brent_max_terminates_on_a_flat_function():
    g, seen = _counted(lambda x: 0.25)
    x, fx = kernels._brent_max(g, 0.4, 0.402, (0.401, 0.25), (0.4, 0.25), (0.402, 0.25))
    assert 0.4 <= x <= 0.402 and fx == 0.25
    # golden sections of a 2e-3 bracket down to BRACKET_WIDTH: about 45 steps
    assert len(seen) <= 60


@pytest.mark.parametrize("spec, r, most", [("poisson:b=8", 2, 20), ("twopoint:b=4,a=9", 2, 3)])
def test_max_G_single_point_evaluations(monkeypatch, spec, r, most):
    # golden sections took 47 on poisson:b=8; twopoint:b=4,a=9 has its maximum at x = 0
    ctx = make_context(make_distribution(spec), r)
    calls = []
    minus_1 = kernels.G_minus_1
    monkeypatch.setattr(kernels, "G_minus_1", lambda c, x: calls.append(x) or minus_1(c, x))
    max_G(ctx)
    assert 0 < len(calls) <= most and all(np.ndim(x) == 0 for x in calls)


@pytest.mark.parametrize("spec, r", [("pruned:r=2,b=25", 2), ("pruned:r=2,b=30", 2), ("pruned:r=2,b=34", 2)])
def test_max_G_x_star_of_pruned_laws_near_their_mode(spec, r):
    # G(0) - 1 is 4.1e-12, 1.4e-14 and 1.5e-15 here: within 1e-10 of M - 1, but
    # not within 1e-10 |M - 1| of it, so x = 0 is no tie
    res = max_G(make_context(make_distribution(spec), r))
    assert 0.85 < res.x_star < 0.97
    assert res.M > 1.0


@pytest.mark.parametrize("spec, r", [("twopoint:b=4,a=7", 2), ("regular:b=2", 2), ("heavy:r=3", 3)])
def test_max_G_x_star_at_zero(spec, r):
    assert max_G(make_context(make_distribution(spec), r)).x_star == 0.0


def test_max_G_dominates_its_neighbourhood():
    # no point within 1e-4 of x_star beats M by more than the rounding of G at
    # its top: the refinement stopped at the top, not short of it.  G - 1 at
    # neighbouring floats of a flat top spreads over +-3 ulps of M by rounding
    # alone (geometric:b=8: 13% of 2001 points within 1e-8 of x* read above M,
    # the highest by 3 ulps), while stopping 1e-7 short costs 1400 ulps there
    for spec, r in _criterion_8_laws() + ROW_EXTRA:
        ctx = make_context(make_distribution(spec), r)
        res = max_G(ctx)
        xs = np.clip(np.linspace(res.x_star - 1e-4, res.x_star + 1e-4, 201), 0.0, 1.0)
        assert gw.G_minus_1(ctx, xs).max() - res.M_minus_1 <= 4 * math.ulp(res.M), (spec, r)


def test_max_G_drops_only_pieces_below_the_tie_floor():
    xs, lx, l1x = kernels._grid()
    dropped_total = 0
    for spec, r in _criterion_8_laws() + ROW_EXTRA + ANALYTIC_THRESHOLDS:
        ctx = make_context(make_distribution(spec), r)
        vals = gw.G_minus_1(ctx, xs)
        kept = kernels._brackets(ctx, xs, vals)
        pieces = _grid_pieces(vals)
        assert set(kept) <= set(pieces), (spec, r)
        dropped = [p for p in pieces if p not in kept]
        dropped_total += len(dropped)
        if not dropped:
            continue
        lo, hi = np.array(dropped).T
        floor = kernels._tie_floor(float(vals.max()))
        assert (kernels.G_upper(ctx, xs[lo], xs[hi]) < 1.0 + floor).all(), (spec, r)
        # and the bound holds: G on each dropped piece stays below the tie floor of M
        top = kernels._tie_floor(max_G(ctx).M_minus_1)
        for a, b in zip(xs[lo], xs[hi]):
            assert gw.G_minus_1(ctx, np.linspace(a, b, 201)).max() < top, (spec, r, a)
    assert dropped_total > 0  # regular:b=18 at r = 2 alone drops 4 plateau edges near x = 0.08


# ---------------------------------------------------------------------------
# one x at a time: the survival map's path


def _criterion_8_laws():
    laws = [(f"regular:b={b}", r) for b in range(2, 21) for r in range(2, min(b, 4) + 1)]
    laws += [(f"{fam}:b={b}", 2) for fam in ("poisson", "geometric") for b in range(3, 21)]
    laws += [(f"twopoint:b={b},a={a}", 2) for b in range(3, 9) for a in range(b + 1, 3 * b + 1)]
    return laws + [(f"pruned:r=2,b={b}", 2) for b in range(15, 26)]


# multi-atom supports at r >= 3, where the row adds i log(1-x) and sums r terms
ROW_EXTRA = [("poisson:b=8", 3), ("geometric:b=5", 3), ("geometric:b=19", 4),
             ("twopoint:b=4,a=9", 3), ("twopoint:b=4,a=9", 4), ("pmf:2=0.25,3=0.5,7=0.25", 3)]


def test_G_minus_1_single_x_bitwise():
    rng = np.random.default_rng(8)
    xs = [1e-300, 1e-5, 1e-2, 1 - 1e-13] + rng.random(40).tolist()
    grid = np.linspace(0.0, 1.0, 1001)[1:-1]
    rows = scalar = 0
    below = [("pruned:r=30,b=170", 2), ("pruned:r=3,b=16", 2)]  # heavy and pruned laws below their r
    for spec, r in _criterion_8_laws() + ROW_EXTRA + ANALYTIC_THRESHOLDS + below:
        ctx = make_context(make_distribution(spec), r)
        for x in (0.0, 1.0):  # the limits at the ends are the one-row block's for every law
            for f in (gw.G, gw.G_minus_1):
                single = f(ctx, x)
                assert type(single) is float
                assert single == f(ctx, np.array([x]))[0], (spec, r, x, f.__name__)
        if ctx.atoms is not None:
            # point masses and heavy or pruned laws sum an interior x in scalar code:
            # within 8 ulps of max(G, 1) of max_G's grid (6.5 at most here, on
            # regular:b=20 at r = 4; G - 1 keeps the absolute rounding of 1 where G < 1)
            scalar += 1
            for x, in_grid in zip(grid, gw.G_minus_1(ctx, grid)):
                single = gw.G_minus_1(ctx, float(x))
                assert abs(single - in_grid) <= 8 * math.ulp(max(1.0 + single, 1.0)), (spec, r, x)
            continue
        rows += 1
        for x in xs:
            single = gw.G_minus_1(ctx, x)
            assert type(single) is float
            assert single == gw.G_minus_1(ctx, np.array([x]))[0], (spec, r, x)
    assert rows >= 100  # the shifted laws, the two-point laws and ROW_EXTRA
    assert scalar >= 80  # the regular laws, ANALYTIC_THRESHOLDS and the two below their r


def test_make_context_keeps_atom_pairs_only_for_the_scalar_sum():
    # a table law sums one x as a row of the tables: no Python pairs for its 20,000 atoms;
    # a shifted law lists no atom at all (it listed 103,181 for poisson:b=100000)
    d = make_distribution(_pmf_spec(range(2, 20002), 0.9995 ** np.arange(20000.0)))
    for law, size in [(d, 20_000), (make_distribution("poisson:b=100000"), 0)]:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            ctx = make_context(law, 2)
            times.append(time.perf_counter() - t0)
        assert ctx.atoms is None and len(ctx.ks) == size
        assert min(times) < 0.025, times
    assert ctx.thin is not None and ctx.log_binom.size == 0
    assert make_context(make_distribution("twopoint:b=4,a=9"), 2).atoms is None
    # a point mass and a heavy or pruned law keep their pairs, in the order of ks
    assert make_context(make_distribution("regular:b=3"), 2).atoms == ((3, 1.0),)
    for spec, r in [("heavy:r=3", 3), ("heavy:r=4", 2), ("pruned:r=3,b=16", 2), ("pruned:r=2,b=20", 3)]:
        ctx = make_context(make_distribution(spec), r)
        assert ctx.atoms == tuple(zip(ctx.ks.tolist(), ctx.weights.tolist())), (spec, r)
        assert list(ctx.ks) == sorted(set(ctx.ks.tolist())), (spec, r)


def _h_oracle(d, r, x, cutoff):
    """sum_k pmf(k) P(Bin(k, 1-x) <= r-1) term by term, the binomials from math.comb."""
    if d.support_max is not None and d.support_max <= offspring.ENUM_CAP:
        ks, ps = d.support_probs(upto=cutoff)
    else:
        ks = np.arange(d.support_min, cutoff + 1)
        ps = [float(d.pmf(int(k))) for k in ks]
    q = 1.0 - x
    terms = []
    for k, pk in zip(ks.tolist(), list(ps)):
        cdf = 1.0 if k < r else math.fsum(comb(k, i) * q**i * x ** (k - i) for i in range(r))
        terms.append(float(pk) * cdf)
    return math.fsum(terms)


# every family, with laws that have mass below the threshold; the third entry
# is the tail mass a heavy law's direct sum leaves out (None: the whole support)
H_CASES = [
    ("regular:b=3", 2, None), ("regular:b=5", 2, None), ("regular:b=5", 3, None),
    ("regular:b=7", 4, None),
    ("poisson:b=4", 2, None), ("poisson:b=6", 2, None), ("poisson:b=6", 3, None),
    ("geometric:b=3", 2, None), ("geometric:b=8", 2, None), ("geometric:b=8", 3, None),
    ("twopoint:b=4,a=9", 2, None), ("twopoint:b=3,a=6", 2, None), ("twopoint:b=3,a=6", 3, None),
    ("twopoint:b=3,a=6", 4, None),
    ("pmf:1=0.5,3=0.5", 2, None), ("pmf:1=0.2,2=0.3,5=0.5", 2, None),
    ("pmf:1=0.2,2=0.3,5=0.5", 3, None), ("pmf:1=0.5,2=0.5", 3, None),
    ("heavy:r=2", 2, 1e-4), ("heavy:r=3", 3, 1e-4), ("heavy:r=2", 3, 1e-4), ("heavy:r=3", 2, 1e-4),
    ("pruned:r=3,b=8", 3, None), ("pruned:r=2,b=6", 2, None), ("pruned:r=2,b=6", 3, None),
]


@pytest.mark.parametrize("spec, r, tail", H_CASES)
def test_h_matches_binomial_sum(spec, r, tail):
    # a heavy law's h is its closed form P(xi < r) + x G(x) (HEAVY_G), which the
    # direct sum up to a tail mass of ``tail`` must fall short of by at most that
    d = make_distribution(spec)
    ctx = make_context(d, r)
    # the whole finite support, a heavy law to tail mass ``tail`` (its tail past K is
    # (r-1)/K), or a shifted law up to the first K of tail at most 1e-16
    if d.support_max is not None:
        cutoff = d.support_max
    elif tail is not None:
        cutoff = math.ceil((d.r - 1) / tail)
    else:
        cutoff = next(k for k in itertools.count(2) if d.tail(k) <= 1e-16)
    assert cutoff <= 40_000
    for x in (0.0, 1e-300, 0.1, 0.3, 0.5, 0.9, 0.999, 1 - 1e-13, 1.0):
        want = _h_oracle(d, r, x, cutoff)
        if tail is not None:
            exact = d.prob_below(r) + x * HEAVY_G[spec, r](x)
            assert exact - tail <= want <= exact + 1e-14, (spec, r, x)
            want = exact
        for p in (0.0, 0.3):
            assert abs(gw.h(ctx, p, x) - (1 - p) * want) <= 1e-14, (spec, r, x, p)


@pytest.mark.parametrize("spec", ["heavy:r=4", "pruned:r=4,b=18"])
def test_h_is_non_negative_below_the_laws_threshold(spec):
    # at r = 2 both laws are G = scale + atoms - scale D_2 with scale 3 and
    # negative atoms, which left -4.0e-25 at x = 1e-9 before x G(x) was clamped;
    # the true x G(x) is about x^3
    ctx = make_context(make_distribution(spec), 2)
    for x in (1e-12, 1e-9, 1e-6):
        assert 0.0 <= gw.h(ctx, 0.1, x) <= 2 * x**3, x


def test_binom_lte_large_n_is_exact():
    # lgamma differences lose about 3 digits at n = 2e13
    assert binom_lte(2 * 10**13, 1e-13, 1) == pytest.approx(0.40600584970982, rel=1e-12)
    assert binom_lte(10**9, 2e-9, 3) == pytest.approx(math.exp(-2) * (1 + 2 + 2 + 4 / 3), rel=1e-8)


@pytest.mark.parametrize("call", [
    lambda ctx: gw.G_minus_1(ctx, 1.5),
    lambda ctx: gw.G(ctx, -0.5),
    lambda ctx: gw.h(ctx, 0.1, 1.5),
    lambda ctx: binom_lte(5, math.nan, 1),
    lambda ctx: binom_lte(600, math.nan, 1),
    lambda ctx: binom_lte(5, 1.5, 1),
    lambda ctx: binom_lte(5, -0.5, 1),
    lambda ctx: binom_lte(-3, 0.5, 1),
], ids=["G_minus_1", "G", "h", "binom_lte-q-nan", "binom_lte-q-nan-large-n", "binom_lte-q-above",
        "binom_lte-q-below", "binom_lte-n"])
def test_outside_input_is_refused(call):
    with pytest.raises(PreconditionError):
        call(make_context(make_distribution("regular:b=3"), 2))


# ---------------------------------------------------------------------------
# the shifted Poisson and geometric laws, evaluated by thinning


def _shifted_50(d, r, x):
    """(G, G - 1, P(xi < r) + x G) of a shifted law at x from its pmf summed in closed
    form: G = sum_{i<r} (1-x)^i (E[C(xi, i) x^(xi-i)] - the atoms below r) / x, each
    expectation a pgf derivative.  The atoms below r cancel all but about x^(r-i) of
    it, so the digits grow with r |log10 x|."""
    dps = 60 + (int(-r * math.log10(x)) if 0.0 < x < 1.0 else 0)
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        if d.spec.family == "shifted_poisson":
            lam = mpmath.mpf(d.spec.b) - 2
            pmf = lambda k: mpmath.exp(-lam) * lam ** (k - 2) / mpmath.factorial(k - 2)
            moment = lambda l: lam ** l / mpmath.factorial(l) * mpmath.exp(-lam * (1 - xm))  # E C(X,l) x^(X-l)
        else:
            rho = (mpmath.mpf(d.spec.b) - 2) / (mpmath.mpf(d.spec.b) - 1)
            pmf = lambda k: (1 - rho) * rho ** (k - 2)
            moment = lambda l: (1 - rho) * rho ** l / (1 - rho * xm) ** (l + 1)
        below = mpmath.fsum(pmf(k) for k in range(2, r))
        if x == 0.0:
            G = r * pmf(r)
        else:
            total = 0
            for i in range(r):
                full = mpmath.fsum(mpmath.binomial(2, i - l) * xm ** (2 - i + l) * moment(l)
                                   for l in range(max(0, i - 2), i + 1))
                full -= mpmath.fsum(pmf(k) * mpmath.binomial(k, i) * xm ** (k - i) for k in range(max(2, i), r))
                total += (1 - xm) ** i * full
            G = total / xm
        return float(G), float(G - 1), float(below + xm * G)


SHIFTED_X = [0.0, 1e-300, 1e-9, 0.01, 0.5, 0.99, 1 - 1e-13, 1.0]
# geometric:b=1e5 stays refused (a cut at tail 1e-13 would need 2.9e6 atoms)
SHIFTED_LAWS = ([f"poisson:b={b}" for b in (3, 8, 20, 1000, 100000)]
                + [f"geometric:b={b}" for b in (3, 8, 20, 1000, 10000)])


@pytest.mark.parametrize("spec", ["poisson:b=3", "poisson:b=8", "geometric:b=3", "geometric:b=8"])
def test_shifted_50_digit_reference_matches_the_pmf_sum(spec):
    # the closed-form sums above against sum_k pmf(k) g_k^r(x) term by term, cut
    # once the mass left is below 1e-50
    d = make_distribution(spec)
    with mpmath.workdps(50):
        b = mpmath.mpf(d.spec.b)
        if d.spec.family == "shifted_poisson":
            pmf = lambda k: mpmath.exp(2 - b) * (b - 2) ** (k - 2) / mpmath.factorial(k - 2)
        else:
            pmf = lambda k: (b - 2) ** (k - 2) / (b - 1) ** (k - 1)
        for r in (2, 3, 4):
            for x in (0.01, 0.5, 0.99):
                xm, total, mass, k = mpmath.mpf(x), 0, mpmath.fsum(pmf(k) for k in range(2, r)), r
                while 1 - mass > 1e-50:
                    total += pmf(k) * _g_50(k, r, xm)
                    mass += pmf(k)
                    k += 1
                assert abs(float(total) - _shifted_50(d, r, x)[0]) <= 1e-15 * float(total), (spec, r, x)


@pytest.mark.parametrize("spec", SHIFTED_LAWS)
def test_shifted_laws_match_50_digit_sums(spec):
    # G and G - 1 within 1e-11 relative (G - 1 also 1e-15 absolute: G(0) - 1 is 0 on
    # geometric:b=3 at r = 2), h within 1e-14; the laws list no atoms and are not cut
    d = make_distribution(spec)
    for r in (2, 3, 4):
        ctx = make_context(d, r)
        assert len(ctx.ks) == 0 and ctx.thin is d
        for x in SHIFTED_X:
            G, G_minus_1, h_0 = _shifted_50(d, r, x)
            assert abs(gw.G(ctx, x) - G) <= 1e-11 * abs(G) + 1e-300, (spec, r, x)
            assert abs(gw.G_minus_1(ctx, x) - G_minus_1) <= 1e-11 * abs(G_minus_1) + 1e-15, (spec, r, x)
            for p in (0.0, 0.3):
                assert abs(gw.h(ctx, p, x) - (1 - p) * h_0) <= 1e-14, (spec, r, x, p)


@pytest.mark.parametrize("spec", SHIFTED_LAWS)
def test_G_upper_bounds_the_shifted_laws(spec):
    # every piece of a 50-piece grid, and narrow pieces at 0 and 1: G_upper >= G at
    # 200 points of each
    d = make_distribution(spec)
    edges = np.linspace(0.0, 1.0, 51)
    a = np.r_[edges[:-1], 0.0, 0.0, 0.999, 1 - 1e-9, 1e-300]
    b = np.r_[edges[1:], 1e-3, 1e-9, 1.0, 1.0, 1e-200]
    for r in (2, 3, 4):
        ctx = make_context(d, r)
        upper = kernels.G_upper(ctx, a, b)
        for lo, hi, bound in zip(a, b, upper.tolist()):
            top = float(gw.G(ctx, np.linspace(lo, hi, 200)).max())
            assert bound >= top, (spec, r, lo, hi, bound, top)


@pytest.mark.parametrize("spec", ["poisson:b=20", "poisson:b=1000", "poisson:b=100000",
                                  "geometric:b=19", "geometric:b=1000", "geometric:b=10000"])
def test_pc_exact_of_shifted_laws_matches_the_closed_form(spec):
    # G - 1 takes the tail form near x = 1, where x_star lies: the table path was
    # 6.6e-6 relative off on poisson:b=100000 and 4.0e-5 on geometric:b=10000
    d = make_distribution(spec)
    res, closed = gw.pc_exact(d, 2), gw.pc_closed_form(d.spec, 2)
    assert abs(res.pc / closed.pc - 1) <= 1e-10, (res.pc, closed.pc)
    assert res.err == pytest.approx(1e-10 / res.M**2, rel=1e-3)


def test_empty_support_costs_nothing():
    # no log-binomial table and no loop over i < r for a context without atoms:
    # heavy:r=100000 at its own threshold took 0.63 s in both
    d = make_distribution("heavy:r=100000")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = gw.pc_exact(d, 100_000)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.05, times
    assert (res.pc, res.x_star, res.M, res.err.hex()) == (0.0, 0.0, 1.0, "0x1.b7da6026391abp-34")


def test_point_mass_at_a_large_threshold_keeps_its_bits():
    # g at k = r = 3000 updates C(k, i) as one exact integer instead of calling
    # math.comb for each i (0.5 s of the 0.7 s pc_exact took)
    d = make_distribution("regular:b=3000")
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = gw.pc_exact(d, 3000)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.1, times
    assert [v.hex() for v in (res.pc, res.x_star, res.M, res.err)] == [
        "0x1.ffd44f3078264p-1", "0x0.0p+0", "0x1.7700000000000p+11", "0x1.236ee9dfe3b4cp-50"]
    # the grid's blocks count r: at most 2^16 terms of 8 bytes in _g_sum's
    # temporary, 1.3 MB at the peak (a 24 MB temporary of all 1001 rows before)
    tracemalloc.start()
    try:
        again = gw.pc_exact(d, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert again == res
