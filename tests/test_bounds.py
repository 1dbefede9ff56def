"""Analytic bound values and sandwich consistency."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

import gwboot as gw
from gwboot.bounds import (
    BoundEntry,
    BoundsReport,
    _excess_2,
    _fort_terms,
    alpha_bound_constant,
    bounds_report,
    lb_branching_exact,
    lb_branching_simplified,
    lb_fort,
    sandwich_violations,
    ub_pruned,
    ub_regular_rd,
)
from gwboot.critical import pc_exact
from gwboot.offspring import ENUM_CAP, PreconditionError, make_distribution


def entry(d, r, name, alpha=0.5):
    """The raw value of the report entry ``name`` of (d, r)."""
    entries = bounds_report(d, r, alpha=alpha, with_reference=False).entries
    return {e.name: e.raw for e in entries}[name]


def test_lb_branching_exact_values():
    d = make_distribution("regular:b=3")
    v = lb_branching_exact(d, 2)
    assert v == pytest.approx(math.exp(-3), rel=1e-12)
    assert v <= pc_exact(d, 2).pc
    for r in (2, 3, 4):
        assert lb_branching_exact(make_distribution(f"regular:b={r}"), r) == pytest.approx(
            math.exp(-1), rel=1e-12
        )


def test_lb_branching_exact_pruned_sandwich():
    eta = make_distribution("pruned:r=2,b=20.0")
    v = lb_branching_exact(eta, 2)
    assert 0 < v <= pc_exact(eta, 2).pc


def test_lb_branching_exact_infinite_mean_vacuous():
    assert lb_branching_exact(make_distribution("heavy:r=2"), 2) == 0.0


def test_lb_branching_simplified_values():
    assert lb_branching_simplified(2.0, 2) == pytest.approx(math.exp(-2) / 2, rel=1e-12)
    assert lb_branching_simplified(3.0, 3) == pytest.approx(math.exp(-2) / 3, rel=1e-12)
    with pytest.raises(PreconditionError):
        lb_branching_simplified(2.5, 3)


def test_lb_branching_simplified_dominated_by_exact():
    for b in range(2, 15):
        for r in (2, 3):
            if b < r:
                continue
            d = make_distribution(f"regular:b={b}")
            assert lb_branching_simplified(float(b), r) <= lb_branching_exact(d, r) + 1e-15


def test_ub_pruned_values():
    v, valid = ub_pruned(2, 20.0)
    assert valid
    assert v == pytest.approx(4 * math.e * math.exp(-20), rel=1e-12)
    threshold = (2 - 1) * math.log(4 * math.e * 2)
    _, valid = ub_pruned(2, threshold - 0.1)
    assert not valid


def test_ub_pruned_sandwich():
    for b in (15.0, 20.0, 25.0):
        eta = make_distribution(f"pruned:r=2,b={b!r}")
        assert pc_exact(eta, 2).pc <= ub_pruned(2, b)[0]


def test_alpha_constant_continuity_r3():
    # constants approach a positive limit as alpha -> 1
    c_90 = alpha_bound_constant(3, 0.90)
    c_99 = alpha_bound_constant(3, 0.99)
    assert c_90 > 0 and c_99 > 0
    assert abs(c_99 - c_90) / c_90 < 0.10


def test_lb_alpha_moment_values():
    d = make_distribution("regular:b=4")
    v = entry(d, 2, "lb_alpha_moment", alpha=0.5)
    # E(xi^1.5) = 8, exponent -1/alpha = -2
    assert v == pytest.approx(alpha_bound_constant(2, 0.5) / 64.0, rel=1e-12)
    assert 0 < v <= pc_exact(d, 2).pc
    assert entry(make_distribution("heavy:r=2"), 2, "lb_alpha_moment", alpha=0.5) == 0.0
    with pytest.raises(PreconditionError):
        alpha_bound_constant(2, 1.0)


def test_lb_alpha_sandwich_grid():
    for spec, r in [("regular:b=5", 2), ("regular:b=5", 3), ("geometric:b=4", 2),
                    ("poisson:b=6", 2), ("twopoint:b=4,a=9", 2)]:
        d = make_distribution(spec)
        pc = pc_exact(d, r).pc
        for alpha in (0.25, 0.5, 0.75, 0.9):
            assert entry(d, r, "lb_alpha_moment", alpha=alpha) <= pc + 1e-8


def test_lb_fort_values():
    assert lb_fort(make_distribution("twopoint:b=4,a=9")) == pytest.approx(0.3, abs=1e-12)
    assert lb_fort(make_distribution("regular:b=3")) == pytest.approx(1 / 9, abs=1e-12)
    assert lb_fort(make_distribution("regular:b=2")) == pytest.approx(0.5, abs=1e-15)


def test_lb_fort_may_be_negative():
    # thin mass at a single large atom drives the bound negative; still valid
    d = make_distribution("pmf:2=0.01,50=0.99")
    v = lb_fort(d)
    assert v <= pc_exact(d, 2).pc


def test_ub_fort_values():
    assert entry(make_distribution("regular:b=3"), 2, "ub_fort") == pytest.approx(1 / 6, rel=1e-12)
    assert entry(make_distribution("regular:b=2"), 2, "ub_fort") == pytest.approx(1.0, rel=1e-12)
    d = make_distribution("geometric:b=3")
    assert entry(d, 2, "ub_fort") >= pc_exact(d, 2).pc - 1e-12
    assert entry(d, 2, "ub_fort_weak") >= entry(d, 2, "ub_fort") - 1e-12


def test_lb_second_moment_values():
    def lb_second_moment(spec):
        return entry(make_distribution(spec), 2, "lb_second_moment")

    assert lb_second_moment("regular:b=3") == pytest.approx(1 / 9, rel=1e-12)
    for b in (3.0, 5.0, 9.0):
        assert lb_second_moment(f"poisson:b={b}") == pytest.approx(1.0 / (2 * b * b - 7), rel=1e-12)
        assert lb_second_moment(f"geometric:b={b}") == pytest.approx(
            1.0 / (4 * (b - 1) ** 2 - 3), rel=1e-12
        )
    # degenerate corner: E(xi(xi-1)) = 2 < 3 falls back to the endpoint form
    assert lb_second_moment("regular:b=2") == pytest.approx(0.5, abs=1e-15)
    assert lb_second_moment("heavy:r=2") == 0.0


def test_lb_second_moment_endpoint_regime_is_still_a_lower_bound():
    # laws barely above the point mass at 2
    for eps in (0.01, 0.05, 0.2):
        d = make_distribution(f"pmf:2={1-eps},3={eps}")
        assert entry(d, 2, "lb_second_moment") <= pc_exact(d, 2).pc + 1e-10


def test_ub_regular_rd():
    assert ub_regular_rd(10, 2) == pytest.approx(0.2)
    assert ub_regular_rd(30, 3) == pytest.approx(0.1)
    assert ub_regular_rd(4, 4) == 1.0
    assert pc_exact(make_distribution("regular:b=10"), 2).pc <= 0.2
    with pytest.raises(PreconditionError):
        ub_regular_rd(3, 4)


def test_report_heavy_tail_flags():
    rep = bounds_report(make_distribution("heavy:r=2"), 2)
    by_name = {e.name: e for e in rep.entries}
    assert not by_name["lb_branching_exact"].valid
    assert not by_name["lb_second_moment"].valid
    assert not by_name["lb_alpha_moment"].valid
    assert by_name["ub_fort"].valid
    assert rep.pc_ref.pc <= 1e-6
    assert sandwich_violations(rep) == []


def test_report_regular10_rows_and_sandwich():
    rep = bounds_report(make_distribution("regular:b=10"), 2)
    names = {e.name for e in rep.entries}
    assert {"lb_second_moment", "lb_fort", "lb_branching_exact", "ub_fort",
            "ub_regular_rd"} <= names
    assert sandwich_violations(rep) == []


@pytest.mark.parametrize("spec, same", [("pmf:1=0,3=1", "pmf:3=1"), ("twopoint:b=5,a=5", "pmf:5=1")])
def test_report_ignores_zero_mass_atoms(spec, same):
    # pmf:1=0,3=1 once read support_min 1 from its zero atom, so fort_upper_moment
    # refused it and the report kept 3 of the 8 bounds that pmf:3=1 gets
    got, want = (bounds_report(make_distribution(s), 2) for s in (spec, same))
    assert len(want.entries) == 8
    assert got.entries == want.entries
    assert got.pc_ref == dataclasses.replace(want.pc_ref, spec=got.pc_ref.spec)


def test_report_of_a_law_whose_mass_below_r_underflows():
    # P(xi < 3) reads 0.0 at b = 760, but the law keeps mass at 2: no bound
    # that requires support >= r applies, and p_c is 1
    d = make_distribution("poisson:b=760")
    rep = bounds_report(d, 3)
    assert not [e.name for e in rep.entries if e.name.startswith("lb_branching")]
    assert rep.pc_ref.pc == 1.0
    with pytest.raises(PreconditionError):
        lb_branching_exact(d, 3)
    with pytest.raises(PreconditionError):
        d.harmonic_tail_moment(3)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
def test_report_rejects_alpha_outside_unit_interval(alpha):
    # alpha = 1 used to mark the (1+1)-moment infinite, though E xi^2 = 25 here
    with pytest.raises(PreconditionError):
        bounds_report(make_distribution("regular:b=5"), 2, alpha=alpha)


@pytest.mark.parametrize("r, b", [(2, 32.7), (2, 34.5), (2, 40), (2, 100), (3, 65.2), (3, 100),
                                  (4, 92), (4, 99.7)])
def test_pruned_far_from_threshold_smoke(r, b):
    # laws the double-precision k0 search could not build
    d = make_distribution(f"pruned:r={r},b={b}")
    rep = bounds_report(d, r)
    assert 0.0 <= rep.pc_ref.pc <= 1.0
    assert sandwich_violations(rep) == []
    draws = d.sample(np.random.default_rng(5), 20_000)
    assert draws.min() >= r and draws.max() <= d.k1


def test_report_two_point_fort_equals_pc():
    rep = bounds_report(make_distribution("twopoint:b=4,a=9"), 2)
    by_name = {e.name: e for e in rep.entries}
    assert by_name["lb_fort"].raw == pytest.approx(rep.pc_ref.pc, abs=1e-12)
    assert sandwich_violations(rep) == []


def test_sandwich_violations_reports_valid_bounds_past_the_slack():
    # slack = tol + err = 1e-8 + 1e-9 on either side of p_c = 0.25
    pc_ref = gw.CriticalResult(0.25, 0.5, 4 / 3, "maximization", 1e-9)
    entries = [
        BoundEntry("lb_high", "lower", 0.2500001, 0.2500001, True),
        BoundEntry("ub_low", "upper", 0.2499999, 0.2499999, True),
        BoundEntry("lb_invalid", "lower", 0.9, 0.9, False),
        BoundEntry("ub_invalid", "upper", 0.1, 0.1, False),
        BoundEntry("lb_in_slack", "lower", 0.25 + 1e-8, 0.25 + 1e-8, True),
        BoundEntry("ub_in_slack", "upper", 0.25 - 1e-8, 0.25 - 1e-8, True),
    ]
    assert sandwich_violations(BoundsReport(entries, pc_ref)) == [
        "lb_high = 0.2500001 exceeds pc = 0.25",
        "ub_low = 0.2499999 is below pc = 0.25",
    ]
    assert sandwich_violations(BoundsReport(entries, None)) == []


def test_gautschi_inequality():
    # (1/(n+1))^(1-s) <= Gamma(n+s)/Gamma(n+1) <= (1/n)^(1-s)
    for n in range(1, 51):
        for s in np.arange(0.1, 0.95, 0.1):
            ratio = math.exp(math.lgamma(n + s) - math.lgamma(n + 1))
            assert (1.0 / (n + 1)) ** (1 - s) <= ratio + 1e-14
            assert ratio <= (1.0 / n) ** (1 - s) + 1e-14


# ---------------------------------------------------------------------------
# regression pins and the lb_fort stop rule

# bounds_report entries as the previous implementation computed them (fsum
# heads with mpmath.sumem tails for the heavy body, a ratio-tested series for
# the shifted laws).  Two kinds of entry moved, by derived amounts:
# * ub_fort of a heavy or pruned body with more than K = 20000 atoms: its
#   remainder 2(R-1)/(3K^3) overstated the tail sum_{k>K} (R-1)/(k(k-1)^2(2k-3))
#   = (R-1)/(6K^3) + O(K^-4) by (R-1)/(2K^3);
# * entries built from a series moment of a shifted law: each series stopped
#   once a ratio estimate of its remainder fell below 1e-13 of the sum, which
#   left up to 1e-13 of the moment out, scaled by the entry's sensitivity to it
#   (E H_(xi-r) for lb_branching_exact, 1/alpha = 2 for lb_alpha_moment).
BOUNDS_PINS = {
    ("pruned:r=3,b=30", 2): {
        "lb_branching_exact": 3.4424976280241695e-14, "lb_branching_simplified": 3.1192076562800582e-15,
        "lb_alpha_moment": 1.741192569479862e-10, "lb_fort": -1.66666628484804,
        "lb_second_moment": 5.010841205482546e-08, "lb_second_moment_weak": 5.010825387158842e-08,
        "ub_fort": 0.07358350926187175, "ub_fort_weak": 0.2240722899773171,
    },
    ("pruned:r=3,b=30", 3): {
        "lb_branching_exact": 1.1253585882625847e-07, "lb_branching_simplified": 6.184637875386595e-09,
        "lb_alpha_moment": 3.3238126948750796e-10, "ub_pruned": 9.978344629242815e-06,
    },
    ("heavy:r=2", 2): {
        "lb_branching_exact": 0.0, "lb_alpha_moment": 0.0, "lb_fort": 0.0, "lb_second_moment": 0.0,
        "ub_fort": 0.5367917479783569, "ub_fort_weak": 0.6120361199687171,
    },
    ("poisson:b=6", 2): {
        "lb_branching_exact": 0.0009422034044265054, "lb_branching_simplified": 0.0004131253627777264,
        "lb_alpha_moment": 5.9295974088653855e-05, "lb_fort": -3.9696449452390805,
        "lb_second_moment": 0.015384615384615385, "lb_second_moment_weak": 0.0125,
        "ub_fort": 0.05591929864597436, "ub_fort_weak": 0.16452382345965716,
    },
    ("geometric:b=4", 2): {
        "lb_branching_exact": 0.016595689455956162, "lb_branching_simplified": 0.004578909722183545,
        "lb_alpha_moment": 0.00017137370483201594, "lb_fort": -0.5,
        "lb_second_moment": 0.030303030303030304, "lb_second_moment_weak": 0.022727272727272728,
        "ub_fort": 0.3865751657694841, "ub_fort_weak": 0.49981565943212863,
    },
}


def _pruned_r2_entries_50(d):
    """bounds_report entries of a pruned law with r = 2 at threshold 2, at 50 digits.

    alpha is rebuilt from 50-digit harmonic numbers.  The body (1/(k(k-1)) on
    2 <= k <= k1) is summed to k = 64 and by mpmath.sumem beyond; E H_(xi-2) =
    sum_j P(xi >= 2+j)/j telescopes to 1 - 1/(k1-1) - H_(k1-2)/k1 plus the atom
    at 5.  Atom 2, of mass 1/2 + alpha A and peak 2, gives lb_fort.
    """
    with mpmath.workdps(50):
        b, k1 = mpmath.mpf(d.b), d.k1
        A = 1 / mpmath.mpf(k1)
        alpha = (5 - (b - mpmath.harmonic(k1 - 1)) / A) / 3
        atoms = ((2, alpha * A), (5, (1 - alpha) * A))

        def expect(f):
            w = lambda k: f(k) / (k * (k - 1))
            body = mpmath.fsum(w(mpmath.mpf(k)) for k in range(2, 65)) + mpmath.sumem(w, [65, k1])
            return body + mpmath.fsum(p * f(mpmath.mpf(k)) for k, p in atoms)

        harmonic = 1 - 1 / mpmath.mpf(k1 - 1) - mpmath.harmonic(k1 - 2) / k1 + (1 - alpha) * A * mpmath.mpf(11) / 6
        m2 = k1 - 1 + mpmath.fsum(p * k * (k - 1) for k, p in atoms)
        out = {
            "lb_branching_exact": mpmath.exp(-(b - 1) - harmonic),
            "lb_branching_simplified": mpmath.exp(-b) / b,
            "lb_alpha_moment": expect(lambda k: k**1.5) ** -2 / 72,  # c_{2,1/2} = 1/72
            "lb_fort": 1 - 1 / (2 * (mpmath.mpf(1) / 2 + alpha * A)),
            "lb_second_moment": 1 / (2 * m2 - 3),
            "lb_second_moment_weak": 1 / (2 * (m2 + b)),
            "ub_fort": expect(lambda k: 1 / ((k - 1) * (2 * k - 3))),
            "ub_fort_weak": 4 * expect(lambda k: 1 / k**2),
            "ub_pruned": 4 * mpmath.e * mpmath.exp(-b),
        }
        return {name: float(v) for name, v in out.items()}


# rows checked against _pruned_r2_entries_50 in place of recorded values: their
# entries follow alpha, which moved by 2.3e-6 relative once K = b - (r-1)(H_(k1-1)
# - H_(r-2)) was taken at 50 digits
REFERENCE_ROWS = [("pruned:r=2,b=20", 2), ("pruned:r=2,b=25", 2)]


@pytest.mark.parametrize("spec,r", REFERENCE_ROWS + list(BOUNDS_PINS))
def test_bounds_report_pinned(spec, r):
    d = make_distribution(spec)
    entries = {e.name: e.raw for e in bounds_report(d, r, with_reference=False).entries}
    if (spec, r) in REFERENCE_ROWS:
        want = _pruned_r2_entries_50(d)
        assert entries.keys() == want.keys()
        for name, value in want.items():
            assert entries[name] == pytest.approx(value, rel=1e-13, abs=0), name
        return
    pins = BOUNDS_PINS[spec, r]
    assert entries.keys() == pins.keys()
    shifted = d.spec.family in ("shifted_poisson", "shifted_geometric")
    for name, want in pins.items():
        rel = 1e-13
        if name == "ub_fort" and not shifted:
            want -= (d.r - 1) / (2 * 20000.0**3)
        if shifted:
            rel *= {"lb_branching_exact": max(1.0, d.harmonic_tail_moment(r)), "lb_alpha_moment": 2.0}.get(name, 1.0)
        assert entries[name] == pytest.approx(want, rel=rel, abs=0), name


@pytest.mark.parametrize("spec", [
    "heavy:r=2", "heavy:r=3", "heavy:r=4", "pruned:r=2,b=8", "pruned:r=2,b=20", "pruned:r=2,b=25",
    "pruned:r=3,b=30", "pruned:r=4,b=66", "poisson:b=6", "poisson:b=150", "geometric:b=19",
])
def test_lb_fort_stop_rule_matches_full_scan(spec):
    # poisson:b=150 has its best atom past the first scanned block
    d = make_distribution(spec)
    ks, probs = d.support_probs(upto=200_000)
    full = float(np.max(_fort_terms(ks, probs, _excess_2(d))))
    assert lb_fort(d) == full


@pytest.mark.parametrize("s", [1000, 3000])
def test_lb_fort_of_a_wide_heavy_law_stops_at_enum_cap(s):
    # the stop rule scanned toward k ~ 2 s^2 and refused past ENUM_CAP atoms, so
    # bounds_report raised; the best of the first ENUM_CAP atoms is a lower bound
    d = make_distribution(f"heavy:r={s}")
    ks, probs = d.support_probs(upto=d.support_min + ENUM_CAP - 1)
    assert lb_fort(d) == float(np.max(_fort_terms(ks, probs)))
    entry = {e.name: e for e in gw.bounds_report(d, 2, with_reference=False).entries}["lb_fort"]
    assert entry.valid and entry.raw < -(s - 2)


def test_lb_fort_below_enum_cap_keeps_its_value():
    assert lb_fort(make_distribution("heavy:r=400")) == -398.99874477413459


@pytest.mark.parametrize("b, want", [(1000, -78.19381242745695), (100000, -791.658193019294)])
def test_lb_fort_of_a_large_poisson_law_warns_nothing(b, want):
    # atoms of subnormal mass far out make their terms -inf, whether or not the
    # quotient overflows: no overflow warning reaches the CLI's stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lb_fort(make_distribution(f"poisson:b={b}")) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("b", range(15, 26))
def test_lb_fort_pruned_r2_matches_50_digit_reference(b):
    # the best term is atom 2's 1 - 1/(2 p_2) with p_2 = 1/2 + alpha A: from the
    # double p_2 it cancels (8.8e-8 relative at b = 20), from alpha A it does not
    d = make_distribution(f"pruned:r=2,b={b}")
    with mpmath.workdps(50):
        A = 1 / mpmath.mpf(d.k1)
        alpha = (5 - (mpmath.mpf(d.b) - mpmath.harmonic(d.k1 - 1)) / A) / 3
        want = float(2 * alpha * A / (1 + 2 * alpha * A))
    assert lb_fort(d) == pytest.approx(want, rel=1e-13, abs=0)


def test_fort_peaks_are_at_most_two():
    # lb_fort's stop rule rests on max_x g_k^2 <= 2 for every k >= 2
    peaks = 1.0 / (1.0 - _fort_terms(np.arange(2, 10**6 + 1), np.ones(10**6 - 1)))
    assert peaks[0] == 2.0 and np.all(peaks[1:] < 2.0)
    # the peak formula against a grid maximum of g_k^2(x) = x^(k-1) + k x^(k-2) (1-x)
    xs = np.linspace(0.0, 1.0, 200_001)
    for k in range(2, 51):
        grid_max = float(np.max(xs ** (k - 1) + k * xs ** (k - 2) * (1 - xs)))
        assert grid_max == pytest.approx(peaks[k - 2], rel=1e-8)


@pytest.mark.parametrize("spec, calls", [("regular:b=6", 6), ("poisson:b=6", 4)])
def test_bounds_report_reads_each_moment_once(monkeypatch, spec, calls):
    # regular: six moments by summation; poisson: mean and E xi(xi-1) are closed forms
    d = make_distribution(spec)
    expect, seen = type(d)._expect, []

    def counting(self, f, tail):
        seen.append(f)
        return expect(self, f, tail)

    monkeypatch.setattr(type(d), "_expect", counting)
    bounds_report(d, 2, with_reference=False)
    assert len(seen) == calls


def _criterion_8_pairs():
    pairs = [(f"regular:b={b}", r) for b in range(2, 21) for r in range(2, min(b, 4) + 1)]
    pairs += [(f"{fam}:b={b}", 2) for fam in ("poisson", "geometric") for b in range(3, 21)]
    pairs += [(f"twopoint:b={b},a={a}", 2) for b in range(3, 9) for a in range(b + 1, 3 * b + 1)]
    return pairs + [(f"pruned:r=2,b={b}", 2) for b in range(15, 26)]


@pytest.mark.parametrize("spec, r", _criterion_8_pairs() + [(f"heavy:r={r}", r) for r in (2, 3, 4)]
                         + [("pruned:r=3,b=16", 3), ("pruned:r=4,b=66", 4)])
def test_public_bound_functions_return_their_report_entry(spec, r):
    # each bound is written once: a bound with a function of its own returns the raw
    # of its report entry; the moment bounds are read from the report alone
    d = make_distribution(spec)
    public = {
        "lb_branching_exact": lambda: lb_branching_exact(d, r),
        "lb_branching_simplified": lambda: lb_branching_simplified(d.mean(), r),
        "lb_fort": lambda: lb_fort(d),
        "ub_regular_rd": lambda: ub_regular_rd(int(d.spec.b), r),
        "ub_pruned": lambda: ub_pruned(r, d.b)[0],
    }
    entries = [e for e in bounds_report(d, r, with_reference=False).entries if e.name in public]
    assert entries
    for e in entries:
        assert public[e.name]() == e.raw, e.name


@pytest.mark.parametrize("call", [
    lambda: alpha_bound_constant(1, 0.5),
    lambda: lb_fort(make_distribution("pmf:1=0.5,3=0.5")),
    lambda: ub_pruned(1, 5.0),
], ids=["alpha_bound_constant-r", "lb_fort-support", "ub_pruned-r"])
def test_outside_input_is_refused(call):
    with pytest.raises(PreconditionError):
        call()


@pytest.mark.parametrize("spec,r", [
    ("pruned:r=8,b=990", 8), ("pruned:r=8,b=1000", 8), ("pruned:r=20,b=1000", 20),
    ("pruned:r=100,b=800", 100),
])
def test_pruned_body_past_the_largest_double_binomial(spec, r):
    # C(k1 - 1, i) / (r - 1) in the body's D_r exceeds the largest double (k1 about
    # 10^62 at r = 8, i up to 98 at r = 100): its log is taken of the exact integer
    d = make_distribution(spec)
    assert 0.0 < pc_exact(d, r).pc < 1.0
    rep = bounds_report(d, r)
    assert 0.0 < rep.pc_ref.pc < 1.0
    assert sandwich_violations(rep) == []
