"""Layered-tree constructions, infection curves, and fixed-point certification."""

import math

import pytest

import gwboot as gw
from gwboot import layered
from gwboot.critical import pc_exact, q_limit
from gwboot.kernels import binom_lte
from gwboot.layered import (
    LayeredTreeSpec,
    build_layered_tree,
    depth_for_infection_target,
    level_growth,
    level_sizes,
    root_infection_curve,
    verify_no_fixed_point,
)
from gwboot.offspring import PreconditionError, make_distribution


def closed_form_boundary_sizes(spec, ell):
    """Product formula for |L| at the block boundaries t_1, ..., t_ell."""
    size = 1
    out = []
    for i in range(ell):
        size *= (spec.d + 1) * spec.d ** (spec.n_seq[i] - 1)
        size *= (spec.b + 1) * spec.b ** (spec.m_seq[i] - 1)
        out.append(size)
    return out


def test_build_small_example():
    spec = LayeredTreeSpec(d=3, b=2, n_seq=(1,), m_seq=(1,))
    t = build_layered_tree(spec, 2)
    assert t.level_sizes == [1, 4, 12]
    assert [list(off) for off in t.offsets] == [[0, 4], [0, 3, 6, 9, 12]]
    _, roots = level_growth(spec, 2)
    assert roots[2] == pytest.approx(math.sqrt(12), abs=1e-12)


def test_build_cap_zero():
    spec = LayeredTreeSpec(d=3, b=2, n_seq=(2,), m_seq=(2,))
    t = build_layered_tree(spec, 0)
    assert t.n_vertices == 1


def test_level_sizes_match_product_formula():
    spec = LayeredTreeSpec(d=4, b=2, n_seq=(2, 1, 3), m_seq=(1, 2, 2))
    sizes = level_sizes(spec, 11)
    boundaries = closed_form_boundary_sizes(spec, 3)
    t = 0
    for i in range(3):
        t += spec.n_seq[i] + spec.m_seq[i]
        assert sizes[t] == boundaries[i]


def test_level_sizes_match_built_tree():
    spec = LayeredTreeSpec(d=3, b=2, n_seq=(2, 1), m_seq=(1, 2))
    t = build_layered_tree(spec, 6)
    assert t.level_sizes == level_sizes(spec, 6)


def test_regular_only_level_sizes():
    spec = LayeredTreeSpec(d=5, b=2, n_seq=(8,), m_seq=())
    sizes = level_sizes(spec, 8)
    for n in range(1, 9):
        assert sizes[n] == 6 * 5 ** (n - 1)


def test_growth_rate_pulled_toward_b():
    # lengthening b-blocks drags |L_t|^(1/t) down toward b on the prefix
    spec = LayeredTreeSpec(d=6, b=2, n_seq=(1, 1, 1, 1), m_seq=(1, 4, 9, 16))
    _, roots = level_growth(spec, sum(spec.n_seq) + sum(spec.m_seq))
    boundary_rates = []
    t = 0
    for i in range(4):
        t += spec.n_seq[i] + spec.m_seq[i]
        boundary_rates.append(roots[t])
    assert all(boundary_rates[i + 1] < boundary_rates[i] for i in range(3))
    assert boundary_rates[-1] < 2.8  # well on its way from 6 toward 2


def test_curve_single_level_closed_form():
    d, r, p = 10, 2, 0.25
    got = root_infection_curve(d, r, p, [1])[0]
    want = p + (1 - p) * (1 - binom_lte(d + 1, p, r - 1))
    assert got == pytest.approx(want, abs=1e-14)


def test_curve_edges():
    assert root_infection_curve(5, 2, 1.0, [0, 1, 3]) == [1.0, 1.0, 1.0]
    assert root_infection_curve(5, 2, 0.0, [2])[0] == 0.0


def test_curve_monotone_in_n_and_p():
    ns = list(range(1, 40))
    prev = None
    for p in (0.1, 0.2, 0.3):
        curve = root_infection_curve(10, 2, p, ns)
        assert all(curve[i + 1] >= curve[i] - 1e-14 for i in range(len(ns) - 1))
        if prev is not None:
            assert all(c >= c0 - 1e-14 for c, c0 in zip(curve, prev))
        prev = curve


def test_curve_supercritical_saturates():
    # p = 0.25 > r/d = 0.2: infection takes over
    curve = root_infection_curve(10, 2, 0.25, list(range(1, 60)))
    assert any(c > 0.99 for c in curve)
    assert depth_for_infection_target(10, 2, 0.25, 0.99) is not None


def test_depth_for_infection_target_finds_first_crossing_below_cap():
    # the crossing at 745 is no power of two, and the next one (1024) lies past the cap
    curve = root_infection_curve(10, 2, 0.005963, [744, 745])
    assert curve[0] < 0.99 <= curve[1]
    assert depth_for_infection_target(10, 2, 0.005963, 0.99, n_cap=1000) == 745
    assert depth_for_infection_target(10, 2, 0.005963, 0.99, n_cap=744) is None
    assert depth_for_infection_target(10, 2, 0.25, 0.0) == 1


def test_depth_for_infection_target_stops_at_float_fixed_point(monkeypatch):
    # below the threshold u_t stops changing after a few dozen steps; the
    # search must give up there rather than run all 100,000 default steps
    calls = []

    def counting(*args):
        calls.append(args)
        return binom_lte(*args)

    monkeypatch.setattr(layered, "binom_lte", counting)
    assert depth_for_infection_target(10, 2, 0.003, 0.99) is None
    assert len(calls) < 1000
    assert depth_for_infection_target(10, 2, 0.0059625089967288766, 0.99) == 67395


def test_curve_subcritical_limit_matches_q_limit():
    # below the regular-tree threshold the interior recursion converges to
    # the survival limit of the degree-d law
    d_reg, r, p = 10, 2, 0.003
    assert p < pc_exact(make_distribution(f"regular:b={d_reg}"), r).pc
    q = q_limit(make_distribution(f"regular:b={d_reg}"), r, p, tol=1e-14)
    assert q.value > 0
    healthy_limit = (1 - p) * binom_lte(d_reg + 1, 1 - q.value, r - 1)
    curve = root_infection_curve(d_reg, r, p, [400])
    assert 1.0 - curve[0] == pytest.approx(healthy_limit, abs=1e-10)


def test_verify_no_fixed_point_at_r_over_d():
    for d, r in [(4, 2), (10, 2), (9, 3), (30, 3)]:
        assert verify_no_fixed_point(d, r, r / d)
        assert pc_exact(make_distribution(f"regular:b={d}"), r).pc <= r / d


def test_verify_no_fixed_point_subcritical_is_false():
    # p safely below the regular-tree critical probability
    assert not verify_no_fixed_point(10, 2, 0.003)
    assert not verify_no_fixed_point(4, 2, 0.05)


def test_verify_no_fixed_point_diagonal():
    assert verify_no_fixed_point(3, 3, 0.999)
    assert not verify_no_fixed_point(3, 3, 0.5)  # below 1 - 1/3


def test_verify_matches_pc_on_grid():
    for d_reg, r in [(4, 2), (7, 2), (9, 3)]:
        pc = pc_exact(make_distribution(f"regular:b={d_reg}"), r).pc
        for mult, expect in [(0.5, False), (0.9, False), (1.05, True), (1.5, True)]:
            p = min(pc * mult, 0.999)
            assert verify_no_fixed_point(d_reg, r, p) is expect


def test_spec_validation():
    with pytest.raises(PreconditionError):
        LayeredTreeSpec(d=2, b=3, n_seq=(1,), m_seq=(1,))
    with pytest.raises(PreconditionError):
        LayeredTreeSpec(d=3, b=2, n_seq=(), m_seq=())
    with pytest.raises(PreconditionError):
        LayeredTreeSpec(d=3, b=2, n_seq=(1,), m_seq=(0,))


_SPEC = LayeredTreeSpec(d=3, b=1, n_seq=(2,), m_seq=(1,))


@pytest.mark.parametrize("call", [
    lambda: _SPEC.branching_at(5),
    lambda: build_layered_tree(_SPEC, -1),
    lambda: root_infection_curve(2, 3, 0.1, [1]),
    lambda: root_infection_curve(3, 2, 1.5, [1]),
    lambda: root_infection_curve(3, 2, 0.1, [-1]),
    lambda: verify_no_fixed_point(2, 3, 0.1),
    lambda: verify_no_fixed_point(3, 2, 1.0),
], ids=["branching_at-depth", "build_layered_tree-depth_cap", "root_infection_curve-d",
        "root_infection_curve-p", "root_infection_curve-depth", "verify_no_fixed_point-d",
        "verify_no_fixed_point-p"])
def test_outside_input_is_refused(call):
    with pytest.raises(PreconditionError):
        call()
