"""Offspring distribution construction, moments, and the pruned family."""

import decimal
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwboot as gw
from gwboot.offspring import (
    DistributionSpec,
    PreconditionError,
    SpecError,
    _harmonic_decimal,
    _poisson_upper,
    _word_weights,
    harmonic_number,
    harmonic_number as _harmonic_numbers,
    make_distribution,
    parse_spec,
)

ALL_SPECS = [
    "regular:b=3",
    "regular:b=5",
    "twopoint:b=4,a=9",
    "twopoint:b=3,a=5",
    "poisson:b=4",
    "poisson:b=6",
    "geometric:b=3",
    "geometric:b=4",
    "heavy:r=2",
    "heavy:r=3",
    "pmf:2=0.5,4=0.5",
    "pmf:2=0.25,3=0.5,7=0.25",
]


def cutoff(d, tail_target):
    """A K with tail(K) <= tail_target: a finite law's top atom, (r-1)/tail_target for the
    heavy law (its tail past K is (r-1)/K), the first such K of a shifted law."""
    if d.support_max is not None:
        return d.support_max
    if d.spec.family == "heavy_tail":
        return max(d.r, math.ceil((d.r - 1) / tail_target))
    return next(k for k in itertools.count(2) if d.tail(k) <= tail_target)


def brute_force_moment(d, f, tail_target=1e-12, cap=500_000):
    """Independent oracle: direct summation over the truncated support."""
    K = cutoff(d, tail_target)
    assert K <= cap
    ks, probs = d.support_probs(upto=K)
    return float(sum(p * f(int(k)) for k, p in zip(ks, probs)))


# ---------------------------------------------------------------------------
# construction and pmf values


def test_regular_point_mass():
    d = make_distribution("regular:b=3")
    assert d.pmf(3) == 1
    assert d.pmf(2) == 0 and d.pmf(4) == 0


def test_two_point_pmf_values():
    d = make_distribution("twopoint:b=4,a=9")
    assert d.pmf(2) == Fraction(5, 7)
    assert d.pmf(9) == Fraction(2, 7)
    assert d.pmf(3) == 0


@pytest.mark.parametrize("spec, same", [("pmf:1=0,3=1", "regular:b=3"), ("twopoint:b=5,a=5", "regular:b=5"),
                                        ("pmf:2=0,4=0.5,5=0.5", "pmf:4=0.5,5=0.5")])
def test_zero_mass_atoms_are_not_held(spec, same):
    # an atom of zero mass shapes neither the support nor the stream: these laws
    # hold the atoms of the law they equal and replay its draws
    d, e = make_distribution(spec), make_distribution(same)
    assert (d.support_min, d.support_max) == (e.support_min, e.support_max)
    assert ([a.tolist() for a in d.support_probs(d.support_max)]
            == [a.tolist() for a in e.support_probs(e.support_max)])
    assert all(d.pmf(k) == e.pmf(k) for k in range(7))
    rng_d, rng_e = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(d.sample(rng_d, 1000), e.sample(rng_e, 1000))
    assert rng_d.bit_generator.state == rng_e.bit_generator.state


def test_heavy_tail_pmf_values():
    d = make_distribution("heavy:r=2")
    assert d.pmf(2) == Fraction(1, 2)
    assert d.pmf(3) == Fraction(1, 6)
    assert d.pmf(4) == Fraction(1, 12)


def test_heavy_tail_cdf_closed_form():
    # partial masses telescope: P(xi <= m) = 1 - (r-1)/m exactly
    for r in (2, 3, 4):
        d = make_distribution(f"heavy:r={r}")
        for m in (r, r + 1, 10, 97, 1000):
            partial = sum(Fraction(r - 1, k * (k - 1)) for k in range(r, m + 1))
            assert partial == 1 - Fraction(r - 1, m)
            assert d.tail(m) == pytest.approx((r - 1) / m, abs=0)


def test_shifted_poisson_matches_50_digit_reference():
    # pmf, tail and prob_below against 50-digit sums of the pmf: relative error at
    # most 1.8e-13, or 1.8e-13 of 2^-1022 below the normal range.  The scipy.special
    # path the package used before erred in the normal range by up to 1.97e-13 on
    # the pmf (b = 39, k = 153) and 1.81e-13 on the tail (b = 39, m = 156), and by
    # 100% on prob_below, which it took as 1 - tail: P(xi < 3) = e^-38 at b = 40
    # read 0
    tol, tiny = 1.8e-13, 2.0**-1022
    for b in sorted({*np.linspace(2.0, 40.0, 39)[1:], 2.0 + 1e-3, 2.5, 7 / 3, 20.0}):
        d = make_distribution(DistributionSpec(family="shifted_poisson", b=float(b)))
        # 50 past k = lam + 10 sqrt(lam + 1) + 22, where P(xi > k) < e^-40 by Bernstein's bound
        top = int(d.lam + 10 * math.sqrt(d.lam + 1) + 20) + 52
        with mpmath.workdps(50):
            lam = mpmath.mpf(d.lam)
            pmf = [mpmath.exp(-lam)]  # P(xi = j + 2), on until the rest is below 1e-30 of P(xi = top + 2)
            while len(pmf) <= top or pmf[-1] > mpmath.mpf(10) ** -30 * pmf[top]:
                pmf.append(pmf[-1] * lam / len(pmf))
            below = list(itertools.accumulate(pmf))  # below[n] = P(xi <= n + 2)
            above = list(itertools.accumulate(reversed(pmf)))[::-1] + [0]  # above[n] = P(xi >= n + 2)

        def close(got, want):
            return abs(got - want) <= tol * max(want, tiny)

        ks, probs = d.support_probs(upto=top)
        assert ks.tolist() == list(range(2, top + 1)), b
        assert all(close(p, pmf[k - 2]) for k, p in zip(ks.tolist(), probs.tolist())), b
        assert all(close(d.tail(m), above[max(m - 1, 0)]) for m in range(top + 1)), b
        assert d.prob_below(2) == 0.0
        assert all(close(d.prob_below(r), below[r - 3]) for r in range(3, top + 2)), b


@pytest.mark.parametrize("b", [1e3, 1e4, 1e5])
def test_shifted_poisson_support_and_tail_sum_to_one(b):
    # the pmf table is divided by its own sum; built from an unnormalised
    # anchor at the mode, the atoms and tail summed to 1 - 5.7e-13, 1 - 5.8e-12
    # and 1 + 2.1e-10 at these b, the error of the anchor exp(-lam + m log lam - lgamma(m+1))
    d = make_distribution(f"poisson:b={b}")
    K = cutoff(d, 1e-13)
    _, probs = d.support_probs(upto=K)
    assert abs(math.fsum(probs.tolist()) + d.tail(K) - 1.0) <= 4 * math.ulp(1.0)


def test_shifted_poisson_probabilities_stay_at_most_one():
    # the table's running sums of P(X = j) can end a few ulps above 1
    for b in np.arange(2.05, 60.0, 0.25).tolist():
        d = make_distribution(DistributionSpec(family="shifted_poisson", b=b))
        top = d._J + 2 + 200  # past the table's last entry, k = J + 2
        assert max(d.tail(m) for m in range(top)) <= 1.0, b
        assert max(d.prob_below(r) for r in range(top)) <= 1.0, b


@pytest.mark.parametrize("b", [1e4, 1e5])
def test_shifted_poisson_deep_lower_tail_matches_50_digit_reference(b):
    # P(xi < r) within 1.8e-13 of max(P, 2^-1022) from below the mode down to
    # r = b/2, through the subnormal range.  The table's products below the mode
    # stall at a few 2^-1074 once a ratio j/lam no longer lowers them; summed,
    # the stalled entries read 4.94e-320 at b = 1e5, r = 0.6 b, and erred by up
    # to 1.26e-11 of 2^-1022 at b = 1e5 (3.1e-13 at b = 1e4)
    tol, tiny = 1.8e-13, 2.0**-1022
    d = make_distribution(f"poisson:b={b}")
    s = math.sqrt(d.lam)
    ns = sorted({int(d.lam - c * s) for c in np.arange(30.0, 40.0, 0.25)} | {int(0.6 * d.lam), int(d.lam) // 2})
    with mpmath.workdps(50):
        lam = mpmath.mpf(d.lam)

        def below(n):  # P(X <= n), summed down from n until the terms are below 1e-40 of the sum
            term = mpmath.exp(-lam + n * mpmath.log(lam) - mpmath.loggamma(n + 1))
            total = term
            while n > 0 and term > mpmath.mpf(10) ** -40 * total:
                term *= n / lam
                n -= 1
                total += term
            return float(total)

        for n in ns:
            want = below(n)
            assert abs(d.prob_below(n + 3) - want) <= tol * max(want, tiny), (n, d.prob_below(n + 3), want)


@pytest.mark.parametrize("b, r", [(332, 10), (700, 6)])
def test_shifted_poisson_keeps_a_tiny_mass_below_r(b, r):
    # P(xi < r) is 4.16e-130 and 4.15e-296: a table that started nearer the
    # mode than j = 0 would read 0 here, and pc_exact would maximise G instead
    d = make_distribution(f"poisson:b={b}")
    with mpmath.workdps(40):
        lam = mpmath.mpf(b - 2)
        want = mpmath.exp(-lam) * mpmath.fsum(lam**j / mpmath.factorial(j) for j in range(r - 2))
    assert d.prob_below(r) == pytest.approx(float(want), rel=1e-12, abs=0)
    assert gw.pc_exact(d, r).method == "subcritical-mass"


@pytest.mark.parametrize("top", range(9))
def test_poisson_upper_of_an_array_is_that_of_each_float(top):
    # the array's series is one running product and one running sum over a
    # block of rows, in the float loop's order, and its exps are numpy's for
    # both: every element has the bits of the float, s < top or not
    s = np.r_[np.geomspace(1e-8, 1e3, 157), np.arange(1.0, 10.0), np.nextafter(np.arange(1.0, 10.0), 0.0)]
    ls = np.log(s)
    arrays = _poisson_upper(s, ls, top)
    floats = [_poisson_upper(v, lv, top) for v, lv in zip(s.tolist(), ls.tolist())]
    assert len(arrays) == top + 1
    for n in range(top + 1):
        want = np.array([f[n] for f in floats])
        got = np.broadcast_to(arrays[n], s.shape)
        assert got.tobytes() == want.tobytes(), (top, n, s[got != want])
    with mpmath.workdps(40):  # and the values are P(Poisson(s) >= n), the regularised lower gamma P(n, s)
        for v, f in zip(s.tolist()[::13], floats[::13]):
            for n in range(1, top + 1):
                want = mpmath.gammainc(n, 0, v, regularized=True)
                assert f[n] == pytest.approx(float(want), rel=1e-13, abs=0), (top, v, n)


def test_poisson_refusal_needs_no_pmf_table():
    # the pmf table of j <= J = floor(lam + 15 sqrt(lam)) + 100 passes ENUM_CAP
    # from b = 1978802 on; the refusal reads J alone, and a law that answers
    # builds no table at r = 2 (poisson:b=1e6 built one of 1,015,100 entries)
    last, first = make_distribution("poisson:b=1978801"), make_distribution("poisson:b=1978802")
    assert (last._J, first._J) == (1_999_999, 2_000_000)
    last.refuse_past_cap()
    with pytest.raises(PreconditionError, match="pmf table"):
        first.refuse_past_cap()
    with pytest.raises(PreconditionError, match="pmf table"):
        first.alpha_moment(0.5)
    assert "_table" not in last.__dict__ and "_table" not in first.__dict__


def test_geometric_refusal_edge():
    # the cut at tail 1e-13, 4 + int(log(1e-13) / log rho), passes ENUM_CAP from
    # b = 66816 on: make_context and the moment sums refuse that law, and the law
    # just below it answers, within its err of the closed form
    last, first = make_distribution("geometric:b=66815"), make_distribution("geometric:b=66816")
    assert (last._cut(1e-13), first._cut(1e-13)) == (1_999_972, 2_000_002)
    last.refuse_past_cap()
    res = gw.pc_exact(last, 2)
    assert abs(res.pc - gw.pc_closed_form(last.spec, 2).pc) <= res.err
    with pytest.raises(PreconditionError, match="tail 1e-13"):
        gw.make_context(first, 2)
    with pytest.raises(PreconditionError, match="tail 1e-13"):
        first.alpha_moment(0.5)


def test_rejects_mass_at_zero():
    with pytest.raises(SpecError):
        parse_spec("pmf:0=0.5,2=0.5")


def test_rejects_negative_probability():
    with pytest.raises(SpecError):
        DistributionSpec(family="explicit_pmf", pmf=((2, -0.1), (3, 1.1)))


@pytest.mark.parametrize("kwargs", [
    dict(family="explicit_pmf", pmf=((2, math.nan), (3, 1.0))),  # every comparison with NaN is false
    dict(family="shifted_poisson", b=math.inf),
    dict(family="pruned", r=2, b=math.nan),
    dict(family="regular", b=2.0**60),
    dict(family="two_point", b=3.0, a=10**23),
    dict(family="heavy_tail", r=10**23),
    dict(family="explicit_pmf", pmf=((10**23, 1.0),)),
])
def test_rejects_non_finite_and_out_of_range_numbers(kwargs):
    with pytest.raises(SpecError):
        DistributionSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(family="heavy_tail", r=2.5),
    dict(family="pruned", r=2.5, b=20.0),
    dict(family="heavy_tail", r=math.nan),
])
def test_rejects_non_integer_r(kwargs):
    # r = 2.5 labelled itself heavy:r=2.5, which parse_spec refuses, and built the r = 2 law
    with pytest.raises(SpecError, match="integer r"):
        DistributionSpec(**kwargs)


def test_rejects_two_point_a_below_b():
    with pytest.raises(SpecError):
        parse_spec("twopoint:b=9,a=4")


def test_rejects_unnormalized_pmf():
    with pytest.raises(SpecError):
        parse_spec("pmf:2=0.5,4=0.6")


def test_shifted_families_require_b_above_2():
    for fam in ("poisson", "geometric"):
        with pytest.raises(SpecError):
            parse_spec(f"{fam}:b=2")


def test_geometric_tail_where_the_ratio_rounds_to_one():
    # (b-2)/(b-1) is 1.0 in double at b = 1e17; its log is not 0
    b = 1e17
    d = make_distribution(f"geometric:b={b}")
    assert d.tail(10**17 + 1) == pytest.approx(math.exp(-1e17 / (b - 1)), rel=1e-12)
    assert d.pmf(10**17 + 2) == pytest.approx(math.exp(-1e17 / (b - 1)) / (b - 1), rel=1e-12)
    k = d._cut(1e-13)  # the cut that decides the refusal
    assert d.tail(k) <= 1e-13 and k < 31 * b
    with pytest.raises(PreconditionError, match="tail 1e-13"):
        d.refuse_past_cap()


def test_geometric_moment_sum_boxes_one_chunk_at_a_time():
    # the sum over about 1.4e6 atoms boxed every term at once, a 38.7 MB peak; in
    # chunks fed to one fsum the value keeps its bits
    import tracemalloc

    d = make_distribution("geometric:b=1e4")
    tracemalloc.start()
    try:
        m = d.alpha_moment(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert m == 1329240.697657486


@pytest.mark.parametrize("b", [3, 20, 1e4, 1e6, 1e17])
def test_geometric_prob_below_keeps_relative_precision(b):
    # P(xi < r) = 1 - rho^(r-2), which 1 - tail(r-1) formed with 1e-12 relative
    # error at b = 1e4; h adds it, and q_limit's rounding bound counts it in ulps
    d = make_distribution(f"geometric:b={b}")
    with mpmath.workdps(50):
        rho = (mpmath.mpf(b) - 2) / (mpmath.mpf(b) - 1)
        for r in (3, 4, 10):
            want = float(1 - rho ** (r - 2))
            assert d.prob_below(r) == pytest.approx(want, rel=1e-14, abs=0), (b, r)
    assert d.prob_below(2) == 0.0


def test_parse_case_insensitive_and_rational():
    d = make_distribution(parse_spec("GEOMETRIC:B=7/2"))
    assert d.spec.family == "shifted_geometric"
    assert d.spec.b == 3.5


def test_parse_roundtrip_labels():
    for s in ALL_SPECS + ["pruned:r=2,b=20"]:
        spec = parse_spec(s)
        again = parse_spec(spec.label())
        assert again == spec


@pytest.mark.parametrize("text, label", [
    ("regular:b=5", "regular:b=5"),
    ("TwoPoint:a=6,b=3.5", "twopoint:b=3.5,a=6"),
    ("two_point:b=4,a=9", "twopoint:b=4,a=9"),
    ("poisson:b=7/2", "poisson:b=3.5"),
    ("geometric:b=4.25", "geometric:b=4.25"),
    ("heavytail:r=3", "heavy:r=3"),
    ("pruned:r=3,b=30.5", "pruned:r=3,b=30.5"),
    ("pruned:b=20,r=2", "pruned:r=2,b=20"),
    ("pmf:4=1/2,2=0.5", "pmf:4=0.5,2=0.5"),
])
def test_label_bytes_per_family(text, label):
    # each family's name and its parameters in a fixed order, whatever the input order
    assert parse_spec(text).label() == label


@pytest.mark.parametrize("text", ["regular:b=5,r=7,a=3", "heavy:r=2,b=5", "poisson:b=5,a=9",
                                  "geometric:b=4,r=2", "twopoint:b=4,a=9,r=2", "pruned:r=2,b=20,a=3"])
def test_parse_refuses_parameters_the_family_does_not_take(text):
    # these parsed and dropped the extra parameter: regular:b=5,r=7,a=3 read as regular:b=5
    with pytest.raises(SpecError, match="takes only"):
        parse_spec(text)


@pytest.mark.parametrize("kwargs", [
    dict(family="regular", b=5, r=7),
    dict(family="heavy_tail", r=2, b=5.0),
    dict(family="explicit_pmf", pmf=((2, 1.0),), b=2.0),
    dict(family="two_point", b=4.0, a=9, pmf=((2, 1.0),)),
])
def test_spec_refuses_parameters_the_family_does_not_take(kwargs):
    with pytest.raises(SpecError, match="takes only"):
        DistributionSpec(**kwargs)


@pytest.mark.parametrize("text, message", [
    ("regular:b=3,b=4", "parameter b given twice"),
    ("twopoint:b=4,a=9,a=11", "parameter a given twice"),
    ("regular:B=3,b=4", "parameter b given twice"),
    ("poisson:b=6,", "malformed parameter ''"),
    ("pmf:2=0.5,3=0.5,", "malformed parameter ''"),
])
def test_parse_refuses_a_repeated_key_and_an_empty_item(text, message):
    # regular:b=3,b=4 built regular:b=4 and twopoint:b=4,a=9,a=11 built a = 11;
    # an empty item reported "not enough values to unpack"
    with pytest.raises(SpecError, match=message):
        parse_spec(text)


def test_parse_garbage_rejected():
    for bad in ("regular", "regular:b", "wat:b=3", "regular:q=3", "pmf:", "pmf:x=1"):
        with pytest.raises(SpecError):
            parse_spec(bad)


# ---------------------------------------------------------------------------
# moments: worked values


def test_mean_examples():
    assert make_distribution("regular:b=5").mean() == 5
    assert make_distribution("geometric:b=4").mean() == pytest.approx(4.0, abs=1e-12)
    assert make_distribution("heavy:r=2").mean() == math.inf


def test_second_factorial_examples():
    assert make_distribution("regular:b=3").second_factorial_moment() == 6
    for b in (3.0, 4.5, 10.0):
        assert make_distribution(f"poisson:b={b}").second_factorial_moment() == pytest.approx(
            b * b - 2, rel=1e-12
        )
        assert make_distribution(f"geometric:b={b}").second_factorial_moment() == pytest.approx(
            2 * (b - 1) ** 2, rel=1e-12
        )


def test_alpha_moment_examples():
    assert make_distribution("regular:b=4").alpha_moment(1.0) == pytest.approx(16.0)
    assert make_distribution("heavy:r=2").alpha_moment(0.5) == math.inf
    d = make_distribution("pmf:2=0.5,4=0.5")
    assert d.alpha_moment(1.0) == pytest.approx(10.0)
    with pytest.raises(PreconditionError):
        d.alpha_moment(1.5)
    with pytest.raises(PreconditionError):
        d.alpha_moment(0.0)


def test_heavy_alpha_divergence_matches_partial_sums():
    # partial sums of k^(1.5) pmf(k) grow without bound for the heavy tail
    d = make_distribution("heavy:r=2")
    partials = []
    total = 0.0
    for K in (10**2, 10**3, 10**4, 10**5):
        ks = np.arange(2, K + 1, dtype=float)
        total = float(np.sum(ks**1.5 / (ks * (ks - 1))))
        partials.append(total)
    assert partials[1] > 1.5 * partials[0] and partials[3] > 1.5 * partials[2]


def test_harmonic_tail_moment_examples():
    assert make_distribution("regular:b=3").harmonic_tail_moment(2) == pytest.approx(1.0)
    assert make_distribution("regular:b=4").harmonic_tail_moment(4) == 0.0
    d = make_distribution("pmf:2=0.5,4=0.5")
    assert d.harmonic_tail_moment(2) == pytest.approx(0.75)
    with pytest.raises(PreconditionError):
        d.harmonic_tail_moment(3)  # support point 2 below threshold


@pytest.mark.parametrize("spec", [
    "regular:b=3", "twopoint:b=3,a=6", "pmf:1=0,3=0.5,5=0.5", "pmf:2=1e-300,7=1", "poisson:b=20",
    "geometric:b=20", "heavy:r=3", "pruned:r=3,b=30",
])
def test_mass_below_r_is_a_fact_of_the_support(spec):
    # each law's smallest atom has mass, so support_min < r, which pc_exact and
    # the bounds read, agrees with P(xi < r) > 0 wherever that float is not 0
    d = make_distribution(spec)
    assert d.pmf(d.support_min) > 0
    assert all((d.support_min < r) == (d.prob_below(r) > 0) for r in range(2, 12))


def test_fort_upper_moment_examples():
    assert make_distribution("regular:b=2").fort_upper_moment() == pytest.approx(1.0)
    assert make_distribution("regular:b=3").fort_upper_moment() == pytest.approx(1 / 6)
    d = make_distribution("heavy:r=2")
    oracle = sum(
        1.0 / (k * (k - 1)) / ((k - 1) * (2 * k - 3)) for k in range(2, 300_000)
    )
    assert d.fort_upper_moment() == pytest.approx(oracle, rel=1e-9, abs=0)


def test_light_tail_moments_past_a_doubled_cutoff_match_50_digit_closed_forms():
    # geometric:b=5000 and b=10^4 leave too much mass past the first cut K of
    # E(1/xi^2) and of the fort moment (from about b = 1,500 and 2,000 on), so
    # ShiftedGeometric._expect doubles K once; both moments have closed forms in
    # rho = (b-2)/(b-1) (mpmath's nsum reads 4e-8 off here).  E(H_{xi-2}), whose
    # first cut holds, is sum_{m>=1} rho^m / m = ln(b - 1)
    for b in (5000, 10**4):
        d = make_distribution(f"geometric:b={b}")
        uptos = []  # the last atom of each pass, which sums its atoms from k = 2 in chunks
        probs = d._probs

        def counted(ks):
            if ks[0] == 2:
                uptos.append(None)
            uptos[-1] = int(ks[-1])
            return probs(ks)

        d._probs = counted
        with mpmath.workdps(50):
            rho = mpmath.mpf(b - 2) / (b - 1)
            cases = [
                (d.inverse_square_moment, 2, (mpmath.polylog(2, rho) - rho) / (rho**2 * (b - 1))),
                (d.fort_upper_moment, 2,
                 (2 * mpmath.atanh(mpmath.sqrt(rho)) / mpmath.sqrt(rho) + mpmath.log(1 - rho) / rho) / (b - 1)),
                (lambda: d.harmonic_tail_moment(2), 1, mpmath.log(b - 1)),
            ]
            for moment, passes, want in cases:
                uptos.clear()
                got = moment()
                assert len(uptos) == passes and uptos[-1] == 2 ** (passes - 1) * uptos[0], (b, uptos)
                assert abs(got - float(want)) <= 4 * math.ulp(float(want)), (b, got, want)


def test_harmonic_number_values():
    assert harmonic_number(0) == 0.0
    assert harmonic_number(1) == 1.0
    assert harmonic_number(4) == pytest.approx(25 / 12)
    # asymptotic-series regime agrees with the cached prefix sums
    n = 30000
    direct = math.fsum(1.0 / i for i in range(1, n + 1))
    assert harmonic_number(n) == pytest.approx(direct, rel=1e-13)


def test_harmonic_numbers_match_50_digit_reference():
    # the float cache and psi series within 2 ulps; the 50-digit Decimal H_n,
    # summed below 100 and by the psi series from 100 on, within 1e-48
    with mpmath.workdps(60):
        for n in (0, 1, 2, 3, 99, 100, 1000, 20000, 20001, 20002, 10**5, 4989185, 10**9, 10**15):
            want = mpmath.harmonic(n)
            assert abs(harmonic_number(n) - want) <= 2 * 2.0**-52 * want, n
            assert _harmonic_numbers(np.array([n, 3]))[0] == harmonic_number(n), n
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                got = _harmonic_decimal(n)
            assert abs(mpmath.mpf(str(got)) - want) <= mpmath.mpf(10) ** -48, n


# ---------------------------------------------------------------------------
# invariants across families


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_mass_partition_invariant(spec):
    # sum_{k<=m} pmf(k) + tail(m) = 1 for every m in a grid
    d = make_distribution(spec)
    for m in (d.support_min, d.support_min + 1, d.support_min + 7, 40, 173):
        ks, probs = d.support_probs(upto=max(m, d.support_min))
        head = float(np.sum(probs[ks <= m]))
        assert head + d.tail(m) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_moments_match_brute_force(spec):
    d = make_distribution(spec)
    if math.isfinite(d.mean()):
        assert d.mean() == pytest.approx(brute_force_moment(d, lambda k: k), rel=1e-9, abs=0)
        assert d.second_factorial_moment() == pytest.approx(
            brute_force_moment(d, lambda k: k * (k - 1)), rel=1e-9, abs=0
        )
        assert d.alpha_moment(0.5) == pytest.approx(
            brute_force_moment(d, lambda k: k**1.5), rel=1e-9, abs=0
        )
    if d.prob_below(2) == 0:
        if cutoff(d, 1e-12) <= 500_000:
            assert d.harmonic_tail_moment(2) == pytest.approx(
                brute_force_moment(d, lambda k: harmonic_number(k - 2)), rel=1e-9, abs=0
            )
            assert d.fort_upper_moment() == pytest.approx(
                brute_force_moment(d, lambda k: 1 / ((k - 1) * (2 * k - 3))), rel=1e-9, abs=0
            )
        else:
            # heavy tail: capped oracle, remainder below (log K + 2)/K
            ks, probs = d.support_probs(upto=300_000)
            cap_h = float(sum(p * harmonic_number(int(k) - 2) for k, p in zip(ks, probs)))
            assert cap_h <= d.harmonic_tail_moment(2) <= cap_h + 1e-4
            cap_f = float(np.dot(probs, 1.0 / ((ks - 1) * (2 * ks - 3))))
            assert d.fort_upper_moment() == pytest.approx(cap_f, abs=1e-9)


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.01, max_value=1.0),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_explicit_pmf_properties(weights):
    total = sum(weights.values())
    atoms = tuple((k, w / total) for k, w in sorted(weights.items()))
    d = make_distribution(DistributionSpec(family="explicit_pmf", pmf=atoms))
    ks = np.array([k for k, _ in atoms])
    ps = np.array([p for _, p in atoms])
    assert d.mean() == pytest.approx(float(ks @ ps), rel=1e-12)
    for m in (0, 1, 5, 31):
        assert d.tail(m) == pytest.approx(float(ps[ks > m].sum()), abs=1e-12)


# ---------------------------------------------------------------------------
# the pruned family


def test_prune_eta_small_case_brute_force():
    # small enough to enumerate: total mass 1, mean exactly b
    eta = make_distribution("pruned:r=2,b=4.0")
    assert eta.k0 == 31 and eta.k1 == 27
    ks, probs = eta.support_probs(eta.top)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(ks @ probs) == pytest.approx(4.0, abs=1e-10)
    assert 0 < eta.alpha < 1


def test_prune_eta_threshold_3():
    eta = make_distribution("pruned:r=3,b=8.0")
    ks, probs = eta.support_probs(eta.top)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(ks @ probs) == pytest.approx(8.0, abs=1e-10)
    assert eta.support_min == 3
    assert eta.k1 > 2 * 3  # room for the reassigned atom at 2r+1


def test_prune_eta_b15_mean_by_direct_summation():
    # independent of the psi series: harmonic sum by brute force
    eta = make_distribution("pruned:r=2,b=15.0")
    ks = np.arange(2, eta.k1 + 1, dtype=np.float64)
    body_mean = float(np.sum(1.0 / (ks - 1.0)))
    total = body_mean + eta.alpha * eta.A * 2 + (1 - eta.alpha) * eta.A * 5
    assert total == pytest.approx(15.0, abs=1e-9)
    assert eta.mean() == pytest.approx(15.0, abs=1e-10)


def test_prune_eta_b20_facts():
    eta = make_distribution("pruned:r=2,b=20.0")
    assert eta.k0 > math.exp(19.0)
    assert abs(eta.mean() - 20.0) <= 1e-10
    assert 0 < eta.alpha < 1
    # tail identity on a grid spanning the atoms
    for m in (2, 3, 4, 5, 6, 100, eta.k1 - 1, eta.k1):
        head = sum(float(eta.pmf(k)) for k in range(2, min(m, 10) + 1))
        if m > 10:
            head += (1.0 / 10 - 1.0 / m)  # heavy-tail body mass on (10, m]
        assert head + eta.tail(m) == pytest.approx(1.0, abs=1e-10)


PRUNED_FAR = [(2, 32.7), (2, 34.5), (2, 40), (2, 100), (3, 65.2), (3, 100), (4, 92), (4, 99.7)]


@pytest.mark.parametrize("r, b", [(2, 4), (2, 8), (2, 20), (2, 25), (2, 30), (3, 12), (3, 30), (3, 60),
                                  (4, 18), (4, 66), (4, 90)] + PRUNED_FAR)
def test_prune_eta_alpha_matches_50_digit_reference(r, b):
    # K = b - (r-1)(H_(k1-1) - H_(r-2)) is b less a body mean close to b, about
    # (r-1)/k1 in size; from decimal harmonic numbers alpha keeps all but a few
    # ulps even where K is 1e-12 of b (r = 2, b = 30: 0.04339104292617, where
    # double harmonic numbers gave 0.0466). The reference K keeps 50 digits
    # of its own: at r = 2, b = 100 (k0 = 1.5e43) a plain 50-digit K is off by
    # 3.5e-6 of alpha.
    eta = make_distribution(f"pruned:r={r},b={float(b)!r}")
    with mpmath.workdps(50):
        H = mpmath.harmonic
        assert (r - 1) * (H(eta.k0 - 1) - H(r - 2)) <= b < (r - 1) * (H(eta.k0) - H(r - 2))
    with mpmath.workdps(50 + len(str(eta.k0))):
        K = b - (r - 1) * (H(eta.k1 - 1) - H(r - 2))
        alpha = (2 * r + 1 - K * eta.k1 / (r - 1)) / (r + 1)
    assert eta.alpha == pytest.approx(float(alpha), rel=1e-14, abs=0)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_prune_eta_builds_up_to_b_100(r):
    # the 0.1-grid of b from the validity threshold to 100, every third point:
    # k0 brackets b at 50 digits and alpha lies in (0, 1)
    start = math.ceil(10 * (r - 1) * math.log(4 * math.e * r)) / 10
    grid = [round(start + 0.1 * i, 1) for i in range(round(10 * (100 - start)) + 1)]
    with mpmath.workdps(50):
        H = mpmath.harmonic
        for b in grid[::3] + [100.0]:
            eta = make_distribution(f"pruned:r={r},b={b!r}")
            lo, hi = ((r - 1) * (H(m) - H(r - 2)) for m in (eta.k0 - 1, eta.k0))
            assert lo <= b < hi, b
            assert 0.0 < eta.alpha < 1.0 and eta.k1 == eta.k0 - 2 * r, b
            assert eta.mean() == pytest.approx(b, rel=1e-14), b


def test_prune_eta_below_validity_rejected():
    r = 2
    threshold = (r - 1) * math.log(4 * math.e * r)
    with pytest.raises(SpecError):
        make_distribution(f"pruned:r={r},b={threshold - 0.1!r}")


@pytest.mark.parametrize("r, m", [(2, 13), (2, 400), (2, 10**6), (2, 10**12), (3, 60), (4, 200),
                                  (4, 10**12)])
def test_prune_eta_k0_on_both_sides_of_a_step(r, m):
    # k0 steps from m - 1 to m where b reaches (r-1)(H_(m-1) - H_(r-2)): the
    # double at or just above that value gives m, the double below it m - 1
    # (while the steps (r-1)/m are wider than the doubles' spacing)
    with mpmath.workdps(60):
        step = (r - 1) * (mpmath.harmonic(m - 1) - mpmath.harmonic(r - 2))
        at = float(step)
        if at < step:
            at = math.nextafter(at, math.inf)
    assert make_distribution(f"pruned:r={r},b={at!r}").k0 == m
    assert make_distribution(f"pruned:r={r},b={math.nextafter(at, 0.0)!r}").k0 == m - 1


def test_prune_eta_beyond_the_decimal_precision_rejected():
    # gamma is held to 120 digits, which serves k0 up to about 1e65
    assert make_distribution("pruned:r=2,b=151.9").k0 > 10**65
    for b in (152.0, 1000.0):
        with pytest.raises(PreconditionError):
            make_distribution(f"pruned:r=2,b={b!r}")


def test_prune_eta_moment_consistency():
    # moments summed through _expect vs enumeration (small case)
    eta = make_distribution("pruned:r=2,b=4.0")
    ks, probs = eta.support_probs(eta.top)
    ks = ks.astype(float)
    assert eta.second_factorial_moment() == pytest.approx(
        float((ks * (ks - 1)) @ probs), rel=1e-10, abs=0
    )
    assert eta.alpha_moment(0.5) == pytest.approx(float(ks**1.5 @ probs), rel=1e-8, abs=0)
    assert eta.harmonic_tail_moment(2) == pytest.approx(
        float(sum(p * harmonic_number(int(k) - 2) for k, p in zip(ks, probs))), rel=1e-8, abs=0
    )


HEAVY_LAWS = ["heavy:r=2", "heavy:r=3", "heavy:r=4",
              "pruned:r=2,b=4", "pruned:r=2,b=8", "pruned:r=3,b=12", "pruned:r=4,b=18"]
TABLE_LAWS = [
    "regular:b=3", "twopoint:b=4,a=9", "twopoint:b=7/2,a=6", "twopoint:b=5,a=5", "pmf:2=0.5,4=0.5",
    "pmf:3=0.1,5=0.2,6=0.3,10=0.4", "pmf:1=0,3=0.25,4=0.5,6=0.25",
    "poisson:b=4", "poisson:b=100", "poisson:b=10000",
    "geometric:b=3", "geometric:b=4.5", "geometric:b=10000",
]


def _alias_pick(table, w):
    """The alias lookup of one word in pure Python: the top c bits pick column
    i, and the word below cuts[i] draws its atom, else its alias."""
    n = len(table.cuts)
    i = w >> (64 - (n.bit_length() - 1))
    return int(table.lookup[i] if w < int(table.cuts[i]) else table.lookup[n + i])


def _check_heavy_inversion(d):
    # one uniform u per draw, the smallest k with F(k) >= u, F summed from
    # pmf() up to K = 3000; a draw with u > F(K) need only lie past K.  The
    # pruned laws here end below K
    K = 3000
    F = np.array([float(c) for c in itertools.accumulate(d.pmf(k) for k in range(1, K + 1))])
    draws = d.sample(np.random.default_rng(11), 20_000)
    u = np.random.default_rng(11).random(20_000)
    first = np.searchsorted(F, u) + 1  # smallest k with F(k) >= u, K + 1 past the table
    inside = first <= K
    assert inside.mean() > 0.99
    assert np.array_equal(draws[inside], first[inside])
    assert (draws[~inside] > K).all()


def _check_alias_table(d):
    # the weights are the tabulated masses scaled to 2^64 and rounded, each
    # within 1; the columns give every value exactly its weight; draws are the
    # pure-Python lookup of the same raw words, a draw of the tail column (0)
    # reading one more word per round after all the first words, and no more
    values, masses, step = d._tabulated()
    table, weights = d._alias, _word_weights(masses)
    assert sum(weights) == 2**64
    S = sum(Fraction(m) for m in masses)
    for w, m in zip(weights, masses):
        assert abs(w - Fraction(m) * 2**64 / S) < 1
    weight = {v: w for v, w in zip(values, weights) if w}
    assert table.values == tuple(weight)
    if step == 0:  # the finite laws tabulate pmf(), the Poisson law its normalised table
        exact = d.support_max is not None
        for v, m in zip(values, masses):
            assert m == (d.pmf(v) if exact else pytest.approx(d.pmf(v), rel=1e-9, abs=1e-300))
    else:
        assert values == list(range(2, step + 2)) + [0] and masses[-1] == d.tail(step + 1)
    n = len(table.cuts)
    width, got = 2**64 // n, {}
    for i, cut in enumerate(table.cuts.tolist()):
        own, other = int(table.lookup[i]), int(table.lookup[n + i])
        got[own] = got.get(own, 0) + cut - i * width
        got[other] = got.get(other, 0) + (i + 1) * width - cut
    assert {v: w for v, w in got.items() if w} == weight
    size, sampler = 3000, np.random.Generator(np.random.Philox(7))
    draws = d.sample(sampler, size)
    words = iter(np.random.Philox(7).random_raw(20 * size).tolist())
    if len(table.values) == 1:
        assert (draws == table.values[0]).all()
    else:
        want = [_alias_pick(table, next(words)) for _ in range(size)]
        tails = [i for i, v in enumerate(want) if v == 0]
        while tails:
            fresh = {i: _alias_pick(table, next(words)) for i in tails}
            for i, v in fresh.items():
                want[i] += step + v
            tails = [i for i in tails if fresh[i] == 0]
        assert draws.tolist() == want
    assert sampler.bit_generator.random_raw(1)[0] == next(words)  # no word more was read


@pytest.mark.parametrize("spec", HEAVY_LAWS + TABLE_LAWS)
def test_sample_inverts_own_pmf(spec):
    # the heavy body inverts its CDF at one uniform per draw; every other law
    # reads one raw word per draw through its alias table (a point mass none)
    d = make_distribution(spec)
    if spec in HEAVY_LAWS:
        _check_heavy_inversion(d)
    else:
        _check_alias_table(d)


@pytest.mark.parametrize("spec", ["poisson:b=4", "poisson:b=6", "geometric:b=3", "geometric:b=10000"])
def test_table_draws_follow_the_pmf(spec):
    # 10^6 draws: P(xi <= k) within 5 SE at every k where it lies in (1e-4, 1 - 1e-4)
    # for the first three; geometric:b=10000 draws its tail column (L = 4095) with
    # probability 0.66, so its CDF is checked either side of L and 2L and far out
    d, N = make_distribution(spec), 10**6
    draws = np.sort(d.sample(np.random.Generator(np.random.Philox(2024)), N))
    if spec == "geometric:b=10000":
        L = d._alias.step
        assert L == 4095 and draws[-1] > 4 * L
        ks = [100, L, L + 1, L + 2, 2 * L + 1, 2 * L + 2, 10_000, 30_000, 60_000]
    else:
        ks = range(2, int(d.mean() * 10))
    checked = 0
    for k in ks:
        want = 1.0 - d.tail(k)
        if not 1e-4 < want < 1 - 1e-4:
            continue
        got = np.searchsorted(draws, k, side="right") / N
        assert abs(got - want) <= 5 * math.sqrt(want * (1 - want) / N), k
        checked += 1
    assert checked >= 5
    sd = math.sqrt(d.second_factorial_moment() + d.mean() - d.mean() ** 2)
    assert abs(draws.mean() - d.mean()) <= 5 * sd / math.sqrt(N)


def test_geometric_table_refuses_a_draw_of_too_many_words():
    # a draw reads 1/(1 - rho^4095) words on average: 2,442 at b = 1e7, and
    # 2.4e13 at b = 1e17, which numpy's own sampler drew at once
    rng = np.random.Generator(np.random.Philox(1))
    assert make_distribution("geometric:b=1e7").sample(rng, 3).min() >= 2
    for spec in ("geometric:b=2e7", "geometric:b=1e17"):
        with pytest.raises(PreconditionError, match="words per draw"):
            make_distribution(spec).sample(rng, 1)


def test_prune_eta_sampling_matches_pmf():
    eta = make_distribution("pruned:r=2,b=4.0")
    rng = np.random.default_rng(42)
    draws = eta.sample(rng, 200_000)
    assert draws.min() >= 2 and draws.max() <= eta.k1
    for k in (2, 3, 5, 10):
        freq = float(np.mean(draws == k))
        assert freq == pytest.approx(float(eta.pmf(k)), abs=4 * math.sqrt(0.25 / 200_000) + 1e-3)


# ---------------------------------------------------------------------------
# series moments against high-precision references


def _heavy_reference(d, r, alpha=0.5):
    """E xi^(1+alpha), E H_(xi-r), E 1/((xi-1)(2xi-3)), E 1/xi^2 of a heavy or pruned law, 30 digits.

    The body (R-1)/(k(k-1)) on R <= k <= top is summed term by term to k = 64
    and by mpmath.sumem beyond; E H_(xi-r) is taken as sum_{j>=1} P(xi >= r+j)/j,
    whose terms past the atoms are rational in j.
    """
    R, top = d.r, getattr(d, "k1", None)
    atoms = [] if top is None else [(R, d.alpha * d.A), (2 * R + 1, (1 - d.alpha) * d.A)]
    with mpmath.workdps(30):
        inv_top = 0 if top is None else mpmath.mpf(1) / top

        def expect(f):
            w = lambda k: (R - 1) * f(k) / (k * (k - 1))
            total = mpmath.fsum(w(mpmath.mpf(k)) for k in range(R, 65 if top is None else min(top, 64) + 1))
            if top is None or top > 64:
                total += mpmath.sumem(w, [65, mpmath.inf if top is None else top])
            return total + mpmath.fsum(p * f(mpmath.mpf(k)) for k, p in atoms)

        def at_least_over(j):  # P(xi >= r + j) / j
            m = r + j
            body = (R - 1) * (1 / (mpmath.mpf(m - 1) if m > R else mpmath.mpf(R - 1)) - inv_top)
            return (body + mpmath.fsum(p for k, p in atoms if k >= m)) / j

        harmonic = mpmath.fsum(at_least_over(j) for j in range(1, 65))
        harmonic += mpmath.sumem(at_least_over, [65, mpmath.inf if top is None else top - r])
        out = {
            "harmonic_tail": harmonic,
            "fort_upper": expect(lambda k: 1 / ((k - 1) * (2 * k - 3))),
            "inverse_square": expect(lambda k: 1 / k**2),
        }
        if top is not None:
            out["alpha"] = expect(lambda k: k ** (1 + mpmath.mpf(alpha)))
        return {name: float(v) for name, v in out.items()}


def _moments(d, r, alpha=0.5):
    return {
        "alpha": d.alpha_moment(alpha),
        "harmonic_tail": d.harmonic_tail_moment(r),
        "fort_upper": d.fort_upper_moment(),
        "inverse_square": d.inverse_square_moment(),
    }


# pruned b per r puts k1 below 2000, between 2000 and 20000, and above 1e9
HEAVY_AND_PRUNED = [f"heavy:r={r}" for r in (2, 3, 4)] + [
    f"pruned:r={r},b={b}" for r, bs in ((2, (8, 10, 25)), (3, (12, 16, 45)), (4, (18, 24, 66))) for b in bs
]


@pytest.mark.parametrize("spec", HEAVY_AND_PRUNED)
def test_heavy_and_pruned_moments_match_reference(spec):
    d = make_distribution(spec)
    ref = _heavy_reference(d, d.r)
    got = _moments(d, d.r)
    if spec.startswith("heavy"):
        assert got.pop("alpha") == math.inf
    assert got.keys() == ref.keys()
    for name, want in ref.items():
        assert got[name] == pytest.approx(want, rel=1e-13, abs=0), name


@pytest.mark.parametrize("spec", ["heavy:r=1999", "heavy:r=2001", "heavy:r=3000"])
def test_body_above_the_summed_head_matches_direct_sums(spec):
    # the body starts at k = r; its closed-form tail once started at k = 2001
    # whatever r, so heavy:r=3000 counted k = 2001..2999 (inverse_square 1.249e-07
    # against 3.705e-08), and its empty head broke harmonic_tail_moment.
    # k = r..N summed directly, plus the leading term of each remainder past N
    d = make_distribution(spec)
    r, n = d.r, 10**6
    ks = np.arange(r, n + 1, dtype=float)
    w = (r - 1) / (ks * (ks - 1))
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, n - r + 1))])
    direct = {
        "inverse_square": (w / ks**2, (r - 1) / (3 * n**3), 1e-12),
        "fort_upper": (w / ((ks - 1) * (2 * ks - 3)), (r - 1) / (6 * n**3), 1e-12),
        "harmonic_tail": (w * harmonic, (r - 1) * (math.log(n) + np.euler_gamma + 1) / n, 1e-6),
    }
    got = _moments(d, r)
    for name, (terms, rest, rel) in direct.items():
        assert got[name] == pytest.approx(math.fsum(terms.tolist()) + rest, rel=rel), name


@pytest.mark.parametrize("spec,r", [
    ("heavy:r=2", 1), ("heavy:r=4", 1), ("heavy:r=4", 2), ("pruned:r=2,b=8", 1),
    ("pruned:r=2,b=25", 1), ("pruned:r=3,b=30", 2), ("pruned:r=3,b=30", 1), ("pruned:r=4,b=66", 3),
])
def test_harmonic_tail_moment_below_own_threshold(spec, r):
    # r = 1 takes a sum of 1/k^2 in place of the 1/(r-1) identity; r below the
    # law's own r shifts the harmonic index past the atoms
    d = make_distribution(spec)
    want = _heavy_reference(d, r)["harmonic_tail"]
    assert d.harmonic_tail_moment(r) == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("spec", ["heavy:r=2", "heavy:r=4", "pruned:r=2,b=8", "pruned:r=2,b=25",
                                  "pruned:r=3,b=45", "pruned:r=4,b=66", "poisson:b=6", "geometric:b=4"])
def test_closed_form_overrides_match_generic_moments(spec):
    # the shifted laws override the mean and E xi(xi-1) only with exact closed
    # forms; the heavy and pruned laws override neither.  The one generic
    # definition, summed through the law's _expect, and the law's own method
    # agree with the closed forms: inf for heavy; for pruned, b and
    # (r-1)(k1-r+1) + alpha A r(r-1) + (1-alpha) A (2r+1)2r, body plus atoms
    d = make_distribution(spec)
    if d.spec.family == "heavy_tail":
        closed = (math.inf, math.inf)
    elif d.spec.family == "pruned":
        r, A, al = d.r, d.A, d.alpha
        closed = (d.b, (r - 1) * (d.k1 - r + 1) + al * A * r * (r - 1) + (1 - al) * A * (2 * r + 1) * 2 * r)
        assert "mean" not in vars(type(d)) and "second_factorial_moment" not in vars(type(d))
    elif d.spec.family == "shifted_poisson":
        closed = (d.b, d.b**2 - 2.0)
    else:
        closed = (d.b, 2.0 * (d.b - 1.0) ** 2)
    for name, want in zip(("mean", "second_factorial_moment"), closed):
        generic = getattr(gw.OffspringDistribution, name)(d)
        assert generic == pytest.approx(want, rel=1e-14, abs=0), name
        assert getattr(d, name)() == pytest.approx(want, rel=1e-14, abs=0), name


def _light_reference(d, r, alpha=0.5):
    """The four series moments of a shifted Poisson or geometric law at 40 digits."""
    with mpmath.workdps(40):
        b = mpmath.mpf(d.b)
        if d.spec.family == "shifted_poisson":
            lam = b - 2
            p, step = mpmath.exp(-lam), lambda p, j: p * lam / j
        else:
            p, step = 1 / (b - 1), lambda p, j: p * (b - 2) / (b - 1)
        sums = [mpmath.mpf(0)] * 4
        h, k = mpmath.mpf(0), 2  # h = H_(k-r), r <= 2
        while p > mpmath.mpf(10) ** -60 or k < 10 * d.b:
            if k > r:
                h += mpmath.mpf(1) / (k - r)
            terms = (mpmath.mpf(k) ** (1 + mpmath.mpf(alpha)), h, 1 / mpmath.mpf((k - 1) * (2 * k - 3)),
                     1 / mpmath.mpf(k * k))
            sums = [s + p * t for s, t in zip(sums, terms)]
            p, k = step(p, k - 1), k + 1
        return dict(zip(("alpha", "harmonic_tail", "fort_upper", "inverse_square"), map(float, sums)))


@pytest.mark.parametrize("spec", [
    "poisson:b=2.001", "poisson:b=3", "poisson:b=6", "poisson:b=19", "poisson:b=40",
    "geometric:b=2.5", "geometric:b=4", "geometric:b=20", "geometric:b=40",
])
def test_shifted_moments_match_reference(spec):
    # one pmf pass with a derived remainder bound; the ratio-estimate stop rule
    # it replaced left up to 1e-13 of each moment out
    d = make_distribution(spec)
    for r in (1, 2):
        ref = _light_reference(d, r)
        got = _moments(d, r)
        for name, want in ref.items():
            assert got[name] == pytest.approx(want, rel=1e-14, abs=0), (name, r)


def _finite_reference(d, r, alpha=0.5):
    """The six moments of a regular, two-point or explicit law, built from its spec.

    The masses are exact Fractions of the spec's parameters, not the law's
    rounded floats; E xi^(1+alpha) is taken at 40 digits, the rest exactly.
    Atoms of zero mass contribute nothing, whatever f is there.
    """
    spec = d.spec
    if spec.family == "regular":
        atoms = [(int(spec.b), Fraction(1))]
    elif spec.family == "two_point":
        b, a = Fraction(spec.b), spec.a
        atoms = [(2, (a - b) / (a - 2)), (a, (b - 2) / (a - 2))]
    else:
        atoms = [(k, Fraction(p)) for k, p in spec.pmf]
    atoms = [(k, p) for k, p in atoms if p > 0]
    with mpmath.workdps(40):
        alpha_moment = mpmath.fsum(mpmath.mpf(p.numerator) / p.denominator * mpmath.mpf(k) ** (1 + mpmath.mpf(alpha))
                                   for k, p in atoms)
        return {
            "mean": float(sum(p * k for k, p in atoms)),
            "second_factorial": float(sum(p * k * (k - 1) for k, p in atoms)),
            "alpha": float(alpha_moment),
            "harmonic_tail": float(sum(p * sum(Fraction(1, i) for i in range(1, k - r + 1)) for k, p in atoms)),
            "fort_upper": float(sum(p / ((k - 1) * (2 * k - 3)) for k, p in atoms)),
            "inverse_square": float(sum(p / (k * k) for k, p in atoms)),
        }


FINITE_LAWS = (
    [f"regular:b={b}" for b in range(2, 41)]
    + [f"twopoint:b={b},a={a}" for b in range(3, 9) for a in range(b + 1, 3 * b + 1, 2)]
    + [f"twopoint:b=7/2,a={a}" for a in (4, 6, 9)]
    + ["pmf:2=0.5,4=0.5", "pmf:2=0.25,3=0.5,7=0.25", "pmf:3=0.25,4=0.5,6=0.25",
       "pmf:3=0.1,5=0.2,6=0.3,10=0.4", "pmf:2=0,4=0.5,5=0.5"]
)


@pytest.mark.parametrize("spec", FINITE_LAWS)
def test_finite_moments_match_spec_reference(spec):
    # the law's moments read its (ks, probs) arrays; the reference reads only the spec.
    # The last pmf has a zero-mass atom below r = 4, where H_(k-r) is undefined
    d = make_distribution(spec)
    k_min = min(k for k in range(1, d.support_max + 1) if d.pmf(k) > 0)
    for r in sorted({1, 2, k_min}):
        ref = _finite_reference(d, r)
        got = {
            "mean": d.mean(),
            "second_factorial": d.second_factorial_moment(),
            **_moments(d, r),
        }
        assert got.keys() == ref.keys()
        for name, want in ref.items():
            assert got[name] == pytest.approx(want, rel=1e-15, abs=0), (name, r)


@pytest.mark.parametrize("call,error", [
    (lambda: harmonic_number(-1), ValueError),
    (lambda: harmonic_number(np.array([3, -1])), ValueError),
    (lambda: DistributionSpec("binomial", b=3.0), SpecError),
    (lambda: DistributionSpec("two_point", b=4.0, a=9.5), SpecError),
    (lambda: DistributionSpec("explicit_pmf", pmf=()), SpecError),
    (lambda: make_distribution("pmf:1=0.5,3=0.5").fort_upper_moment(), PreconditionError),
], ids=["harmonic_number-n", "harmonic_number-array", "spec-family", "spec-two_point-a", "spec-empty-pmf",
        "fort_upper_moment-support"])
def test_outside_input_is_refused(call, error):
    with pytest.raises(error):
        call()
