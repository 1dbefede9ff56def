"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import gwboot as gw
from gwboot.bounds import bounds_report, lb_branching_exact, sandwich_violations, ub_pruned
from gwboot.critical import pc_closed_form, pc_exact, q_iterate
from gwboot.kernels import binom_lte, g, make_context
from gwboot.offspring import harmonic_number, make_distribution, parse_spec
from gwboot.simulate import estimate_qn, root_fort_status, run_bootstrap, sample_marks, sample_tree
from gwboot.layered import verify_no_fixed_point


def report(num, text):
    print(f"CRITERION {num:>2}: PASS  {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_regular_tree_closed_form():
    t0 = time.time()
    worst = 0.0
    for b in range(3, 16):
        exact = float(
            1 - Fraction((b - 1) ** (2 * b - 3), b ** (b - 1) * (b - 2) ** (b - 2))
        )
        got = pc_exact(make_distribution(f"regular:b={b}"), 2).pc
        worst = max(worst, abs(got - exact))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, f"regular r=2 closed form, b in 3..15, worst |err| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_regular_diagonal():
    worst = 0.0
    for b in range(2, 11):
        got = pc_exact(make_distribution(f"regular:b={b}"), b).pc
        worst = max(worst, abs(got - (1 - 1 / b)))
    assert worst <= 1e-10
    report(2, f"pc(T_b, b) = 1 - 1/b, b in 2..10, worst |err| = {worst:.2e}")


def test_criterion_3_shifted_geometric():
    worst = 0.0
    for b in (3, 4, 5, 10, 20):
        got = pc_exact(make_distribution(f"geometric:b={b}"), 2).pc
        worst = max(worst, abs(got - 1.0 / (2 * b - 3) ** 2))
    assert worst <= 1e-10
    report(3, f"shifted geometric 1/(2b-3)^2, worst |err| = {worst:.2e}")


def test_criterion_4_shifted_poisson():
    worst = 0.0
    for b in range(3, 21):
        got = pc_exact(make_distribution(f"poisson:b={b}"), 2).pc
        closed = pc_closed_form(parse_spec(f"poisson:b={b}"), 2).pc
        worst = max(worst, abs(got - closed))
    assert worst <= 1e-8
    worst_env = 0.0
    for b in range(10, 101):
        closed = pc_closed_form(parse_spec(f"poisson:b={b}"), 2).pc
        dev = abs(closed - (1.0 / (2 * b * b) + 1.0 / (3 * b**3))) * b**4
        worst_env = max(worst_env, dev)
    assert worst_env <= 5.0
    report(4, f"shifted Poisson closed form (worst {worst:.2e}) and "
              f"|pc - 1/(2b^2) - 1/(3b^3)| <= {worst_env:.2f}/b^4 on 10..100")


def test_criterion_5_two_point():
    worst = 0.0
    for b in range(3, 9):
        for a in range(2 * b - 1, 3 * b + 1):
            got = pc_exact(make_distribution(f"twopoint:b={b},a={a}"), 2).pc
            want = 1.0 - (a - 2) / (2.0 * (a - b))
            worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    report(5, f"two-point 1 - (a-2)/(2(a-b)) for a >= 2b-1, worst |err| = {worst:.2e}")


def test_criterion_6_heavy_tail():
    xs = np.linspace(0.0, 1.0, 1001)
    msgs = []
    for r in (2, 3, 4):
        d = make_distribution(f"heavy:r={r}")
        ctx = make_context(d, r)
        assert ctx.body == () and ctx.const == 1.0  # summed to infinity
        dev = max(abs(gw.G(ctx, float(x)) - 1.0) for x in xs)
        assert dev == 0.0
        pc = pc_exact(d, r).pc
        assert pc == 0.0
        msgs.append(f"r={r}: max|G-1|={dev:.1e}, pc={pc:.1e}")
    report(6, "; ".join(msgs))


def test_criterion_7_pruned_sandwich():
    msgs = []
    for b in (15.0, 20.0, 25.0):
        eta = make_distribution(f"pruned:r=2,b={b!r}")
        assert abs(eta.mean() - b) <= 1e-10
        pc = pc_exact(eta, 2).pc
        lo = lb_branching_exact(eta, 2)
        hi, valid = ub_pruned(2, b)
        assert valid
        assert hi == pytest.approx(4 * math.e * math.exp(-b), rel=1e-12)
        assert lo <= pc <= hi
        msgs.append(f"b={b:g}: {lo:.2e} <= {pc:.2e} <= {hi:.2e}")
    report(7, "; ".join(msgs))


def test_criterion_8_sandwich_suite():
    t0 = time.time()
    dists = []
    for b in range(2, 21):
        for r in range(2, min(b, 4) + 1):
            dists.append((f"regular:b={b}", r))
    for fam in ("poisson", "geometric"):
        dists += [(f"{fam}:b={b}", 2) for b in range(3, 21)]
    for b in range(3, 9):
        dists += [(f"twopoint:b={b},a={a}", 2) for a in range(b + 1, 3 * b + 1)]
    dists += [(f"pruned:r=2,b={b}", 2) for b in range(15, 26)]
    violations = []
    for spec, r in dists:
        rep = bounds_report(make_distribution(spec), r)
        for msg in sandwich_violations(rep, tol=1e-8):
            violations.append(f"{spec} r={r}: {msg}")
    elapsed = time.time() - t0
    assert violations == []
    assert elapsed < 60.0
    report(8, f"{len(dists)} (distribution, r) pairs, 0 sandwich violations, {elapsed:.1f}s")


def test_criterion_9_dual_oracle_equivalence():
    mixed = [
        "regular:b=2", "regular:b=3", "geometric:b=3", "twopoint:b=3,a=5",
        "twopoint:b=4,a=9", "pmf:1=0.3,2=0.4,5=0.3", "pmf:2=0.5,4=0.5", "heavy:r=2",
    ]
    rng = np.random.default_rng(20240814)
    mismatches = 0
    for i in range(10_000):
        d = make_distribution(mixed[i % len(mixed)])
        depth = int(rng.integers(0, 7))
        t = sample_tree(d, depth, budget=2000, seed=int(rng.integers(2**62)))
        marks = sample_marks(t, float(rng.uniform(0.02, 0.8)), rng)
        r = int(rng.integers(2, 4))
        closure_hits_root = bool(run_bootstrap(t, marks, r)[0])
        if closure_hits_root != (not root_fort_status(t, marks, r)):
            mismatches += 1
    assert mismatches == 0
    report(9, "10^4 random (tree, mark, r) instances, 0 oracle mismatches")


def test_criterion_10_monte_carlo_vs_recursion():
    t0 = time.time()
    configs = [
        ("regular:b=3", 2, 0.05, 4), ("regular:b=3", 2, 0.20, 5),
        ("regular:b=3", 2, 0.50, 3), ("regular:b=3", 3, 0.30, 4),
        ("regular:b=3", 3, 0.60, 5), ("regular:b=4", 2, 0.10, 4),
        ("regular:b=4", 4, 0.50, 4), ("geometric:b=3", 2, 0.05, 5),
        ("geometric:b=3", 2, 0.15, 4), ("geometric:b=3", 2, 0.30, 3),
        ("geometric:b=4", 2, 0.10, 4), ("poisson:b=4", 2, 0.05, 4),
        ("poisson:b=4", 2, 0.20, 4), ("poisson:b=4", 3, 0.40, 3),
        ("poisson:b=3", 2, 0.10, 5), ("twopoint:b=3,a=5", 2, 0.20, 4),
        ("twopoint:b=3,a=5", 2, 0.35, 3), ("twopoint:b=4,a=9", 2, 0.25, 4),
        ("pmf:2=0.5,4=0.5", 2, 0.15, 4), ("pmf:3=0.25,4=0.5,6=0.25", 3, 0.20, 4),
    ]
    assert len(configs) == 20
    failures = []
    for idx, (spec, r, p, n) in enumerate(configs):
        d = make_distribution(spec)
        want = q_iterate(d, r, p, n).q_n
        est = estimate_qn(d, r, p, n, 100_000, seed=777_000 + idx)
        se = max(est.se, 1e-12)
        if abs(est.estimate - want) > 3 * se:
            failures.append((spec, r, p, n, est.estimate, want))
    elapsed = time.time() - t0
    assert len(failures) <= 1, failures
    assert elapsed < 300.0
    report(10, f"20 configs at N=1e5: {len(failures)} outside 3*SE, {elapsed:.0f}s")


def test_criterion_11_no_fixed_point_at_r_over_d():
    for d_reg, r in [(4, 2), (10, 2), (9, 3), (30, 3)]:
        assert verify_no_fixed_point(d_reg, r, r / d_reg)
        assert pc_exact(make_distribution(f"regular:b={d_reg}"), r).pc <= r / d_reg
    report(11, "no fixed point at p = r/d and pc <= r/d for (4,2),(10,2),(9,3),(30,3)")


# ---------------------------------------------------------------------------
# criterion 12: identity suite


XGRID = np.linspace(0.0, 1.0, 201)


def _check_diagonal_kernel():
    # g_r^r(x) = sum_{i<r} (1-x)^i
    worst = 0.0
    for r in range(2, 7):
        for x in XGRID:
            want = sum((1 - x) ** i for i in range(r))
            worst = max(worst, abs(g(r, r, float(x)) - want))
    assert worst <= 1e-12
    return worst


def _check_threshold_recursion():
    # g_k^{r+1} - g_k^r = C(k,r) x^(k-r-1) (1-x)^r
    worst = 0.0
    for r in range(2, 6):
        for k in range(r + 1, 51):
            for x in XGRID[1:-1]:
                want = math.comb(k, r) * x ** (k - r - 1) * (1 - x) ** r
                got = g(k, r + 1, float(x)) - g(k, r, float(x))
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12
    return worst


def _check_degree_recursion():
    # g_{k+1}^r - g_k^r = -C(k, r-1) x^(k-r) (1-x)^r
    worst = 0.0
    for r in range(2, 6):
        for k in range(r, 51):
            for x in XGRID[1:-1]:
                want = -math.comb(k, r - 1) * x ** (k - r) * (1 - x) ** r
                got = g(k + 1, r, float(x)) - g(k, r, float(x))
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12
    return worst


def _check_domination():
    # g_k^r <= g_r^r pointwise, and G <= g_r^r within rounding
    for r in range(2, 6):
        for k in range(r, 51):
            for x in XGRID:
                assert g(k, r, float(x)) <= g(r, r, float(x)) + 1e-12
    for spec, r in [("geometric:b=5", 2), ("poisson:b=7", 2), ("heavy:r=3", 3)]:
        ctx = make_context(make_distribution(spec), r)
        for x in XGRID:
            assert gw.G(ctx, float(x)) <= g(r, r, float(x)) + 1e-12


def _check_cdf_derivative():
    # d/dx P(Bin(k, 1-x) <= r-1) = k P(Bin(k-1, 1-x) = r-1)
    worst = 0.0
    eps = 1e-6
    for k in (3, 7, 20, 45):
        for r in (2, 3, 4):
            if k < r:
                continue
            for x in np.linspace(0.05, 0.95, 31):
                num = (binom_lte(k, 1 - (x + eps), r - 1) - binom_lte(k, 1 - (x - eps), r - 1)) / (2 * eps)
                want = k * (binom_lte(k - 1, 1 - x, r - 1) - binom_lte(k - 1, 1 - x, r - 2))
                worst = max(worst, abs(num - want))
    assert worst <= 1e-6
    return worst


def _integrand_gap(k, r, x):
    # (g_r^r - g_k^r)/(1-x)^2 via the telescoped form near x = 1 to avoid
    # catastrophic cancellation of two values close to 1
    if x > 1 - 1e-6:
        return sum(
            math.comb(i, r - 1) * x ** (i - r) * (1 - x) ** (r - 2)
            for i in range(r, k)
        )
    return (g(r, r, x) - g(k, r, x)) / (1 - x) ** 2


def _check_beta_integral():
    # integral_0^1 (g_r^r - g_k^r)/(1-x)^2 dx = (k-r)/(r-1) + H_{k-r}
    worst = 0.0
    for r in (2, 3, 4):
        for k in range(r + 1, 21):
            val, err = quad(lambda x: _integrand_gap(k, r, x), 0.0, 1.0, limit=200)
            want = (k - r) / (r - 1) + harmonic_number(k - r)
            worst = max(worst, abs(val - want))
    assert worst <= 1e-6
    return worst


def _check_gautschi():
    for n in range(1, 51):
        for s in np.arange(0.1, 0.95, 0.1):
            ratio = math.exp(math.lgamma(n + s) - math.lgamma(n + 1))
            assert (1.0 / (n + 1)) ** (1 - s) <= ratio + 1e-14
            assert ratio <= (1.0 / n) ** (1 - s) + 1e-14


def _check_quadratic_minorant():
    # P2(x) = 2 - x - (E(xi(xi-1)) - 2)/2 (1-x)^2 <= G(x) for r = 2
    for spec in ("regular:b=3", "regular:b=6", "poisson:b=4", "geometric:b=4",
                 "twopoint:b=4,a=9", "pmf:2=0.5,4=0.5"):
        d = make_distribution(spec)
        m2 = d.second_factorial_moment()
        ctx = make_context(d, 2)
        for x in XGRID:
            p2 = 2 - x - (m2 - 2) / 2 * (1 - x) ** 2
            assert p2 <= gw.G(ctx, float(x)) + 1e-10


def _check_peak_decay_constant():
    # (max_x g_k^r - 1) k^(r/(r-1)) stays bounded; frozen envelopes from a
    # high-resolution scan: 4.0 for r=2 (at k=2), 2*3^(3/2) for r=3 (at k=3)
    caps = {2: 4.0 + 1e-9, 3: 2 * 3**1.5 + 1e-9}
    for r in (2, 3):
        prev = None
        for k in range(r, 201):
            ctx = make_context(make_distribution(f"regular:b={k}"), r)
            m = gw.max_G(ctx).M
            a_k = (m - 1.0) * k ** (r / (r - 1))
            assert a_k <= caps[r]
            if prev is not None and k > r + 2:
                assert a_k <= prev + 1e-9  # eventually monotone decreasing
            prev = a_k


def test_criterion_12_identity_suite():
    w1 = _check_diagonal_kernel()
    w2 = _check_threshold_recursion()
    w3 = _check_degree_recursion()
    _check_domination()
    w4 = _check_cdf_derivative()
    w5 = _check_beta_integral()
    _check_gautschi()
    _check_quadratic_minorant()
    _check_peak_decay_constant()
    report(12, "identities: diagonal %.1e, threshold-rec %.1e, degree-rec %.1e, "
               "derivative %.1e, beta-integral %.1e; domination, Gautschi, "
               "quadratic minorant, peak-decay all hold" % (w1, w2, w3, w4, w5))
