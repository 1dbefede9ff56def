"""Layered trees alternating regular blocks of two degrees.

The construction stacks blocks of the (d+1)-regular tree (depths n_1, n_2,
...) with blocks of the (b+1)-regular tree (depths m_1, m_2, ...): the root
has d+1 children, interior vertices of a d-block have d children, and each
vertex opening a new block has one extra child (block roots have degree
d+2 or b+2 inside the tree).  Growing the m_i makes the level-growth rate
|L_t|^{1/t} approach b while the d-blocks keep infection spreading, which
is how small critical probabilities coexist with branching number b.

``root_infection_curve`` gives the exact probability that the root of a
depth-n block eventually becomes infected, via the complement of the
bottom-up survival recursion: u_0 = 1-p, u_{t+1} = (1-p) P(Bin(d, 1-u_t)
<= r-1), root-healthy = (1-p) P(Bin(d+1, 1-u_{n-1}) <= r-1).

``verify_no_fixed_point`` certifies that x = P(Bin(d, (1-x)(1-p)) <= d-r)
has no solution in [0, 1), the fixed-point criterion for infection of the
(d+1)-regular tree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .offspring import PreconditionError
from .kernels import binom_lte
from .simulate import DEFAULT_BUDGET, SampledTree, _grow

__all__ = [
    "LayeredTreeSpec",
    "build_layered_tree",
    "level_sizes",
    "level_growth",
    "root_infection_curve",
    "depth_for_infection_target",
    "verify_no_fixed_point",
]


@dataclass(frozen=True)
class LayeredTreeSpec:
    d: int
    b: int
    n_seq: tuple[int, ...]
    m_seq: tuple[int, ...]

    def __post_init__(self):
        if not self.d > self.b >= 1:
            raise PreconditionError("layered tree requires d > b >= 1")
        if len(self.n_seq) == 0 or len(self.n_seq) < len(self.m_seq):
            raise PreconditionError("need at least as many d-block depths as b-block depths")
        if any(n < 1 for n in self.n_seq) or any(m < 1 for m in self.m_seq):
            raise PreconditionError("block depths must be positive")

    def branching_at(self, t: int) -> int:
        """Number of children of a depth-t vertex (block roots get one extra)."""
        pos = 0
        for i, n in enumerate(self.n_seq):
            if t == pos:
                return self.d + 1
            if t < pos + n:
                return self.d
            pos += n
            if i < len(self.m_seq):
                m = self.m_seq[i]
                if t == pos:
                    return self.b + 1
                if t < pos + m:
                    return self.b
                pos += m
        raise PreconditionError(f"depth {t} beyond the configured block schedule")


def build_layered_tree(
    spec: LayeredTreeSpec, depth_cap: int, budget: int = DEFAULT_BUDGET
) -> SampledTree:
    """Deterministic layered tree down to depth_cap (leaves keep no children)."""
    if depth_cap < 0:
        raise PreconditionError("depth_cap must be >= 0")
    offsets, dropped = _grow(lambda t, w: np.full(w, spec.branching_at(t), dtype=np.int64),
                             depth_cap, budget, 1)
    return SampledTree(offsets, bool(dropped[0]))


def level_sizes(spec: LayeredTreeSpec, up_to: int) -> list[int]:
    """Exact |L_t| for t = 0..up_to (integer arithmetic)."""
    sizes = [1]
    for t in range(up_to):
        sizes.append(sizes[-1] * spec.branching_at(t))
    return sizes


def level_growth(spec: LayeredTreeSpec, up_to: int) -> tuple[list[int], list[float]]:
    """(|L_t|, |L_t|^{1/t}) with the growth rate undefined (nan) at t = 0."""
    sizes = level_sizes(spec, up_to)
    roots = [math.nan] + [
        math.exp(math.log(sizes[t]) / t) for t in range(1, len(sizes))
    ]
    return sizes, roots


def _check_curve(d: int, r: int, p: float) -> None:
    if d < r:
        raise PreconditionError("root_infection_curve requires d >= r")
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must lie in [0, 1]")


def _safety(d: int, r: int, p: float):
    """u_0 = 1-p, u_1, ...: u_t is the safety probability of a depth-t block's root."""
    u = 1.0 - p
    while True:
        yield u
        u = (1.0 - p) * binom_lte(d, 1.0 - u, r - 1)


def _root_infected(d: int, r: int, p: float, u: float) -> float:
    """P(root of the depth-n block is eventually infected), given u = u_{n-1}."""
    return 1.0 - (1.0 - p) * binom_lte(d + 1, 1.0 - u, r - 1)


def root_infection_curve(d: int, r: int, p: float, n_list: Sequence[int]) -> list[float]:
    """P(root of the depth-n block is eventually infected) for each n.

    n = 0 is the bare root: infected iff initially infected.
    """
    _check_curve(d, r, p)
    u_by_depth = list(itertools.islice(_safety(d, r, p), max(1, max(n_list))))
    out = []
    for n in n_list:
        if n < 0:
            raise PreconditionError("depths must be >= 0")
        out.append(p if n == 0 else _root_infected(d, r, p, u_by_depth[n - 1]))
    return out


def depth_for_infection_target(
    d: int, r: int, p: float, target: float, n_cap: int = 100_000
) -> Optional[int]:
    """Smallest block depth n >= 1 whose root-infection probability reaches target.

    One forward pass of the survival recursion, stopping at the first depth
    that reaches the target.  Returns None if the curve has not reached it
    by n_cap (for p below the regular-tree threshold it converges to a
    limit < 1), or once u_t repeats in floating point, after which the
    curve is constant.
    """
    _check_curve(d, r, p)
    prev = None
    for n, u in zip(range(1, n_cap + 1), _safety(d, r, p)):
        if u == prev:
            return None
        if _root_infected(d, r, p, u) >= target:
            return n
        prev = u
    return None


# ---------------------------------------------------------------------------
# fixed-point certification


def _gap(d: int, r: int, p: float, x: float) -> float:
    """(1-x) - P(Bin(d, (1-x)(1-p)) >= d-r+1); positive means no fixed point at x."""
    q = (1.0 - x) * (1.0 - p)
    return (1.0 - x) - (1.0 - binom_lte(d, q, d - r))


# verify_no_fixed_point gives up on an interval narrower than this
_MIN_WIDTH = 1e-11


def verify_no_fixed_point(d: int, r: int, p: float) -> bool:
    """True iff x = P(Bin(d, (1-x)(1-p)) <= d-r) has no solution in [0, 1).

    Strategy: for d = r the gap function is convex and its sign near 1 is
    decided by r(1-p) vs 1 exactly.  For d > r, a union bound
    P(Bin(d,q) >= d-r+1) <= C(d, r-1) q^{d-r+1} certifies everything right
    of a cutoff, and an adaptive subdivision with the Lipschitz constant
    1 + d(1-p) certifies [0, cutoff].  Any midpoint with a non-positive gap
    witnesses a fixed point; intervals too narrow to certify are treated as
    witnesses too.
    """
    if d < r:
        raise PreconditionError("verify_no_fixed_point requires d >= r")
    if not 0.0 < p < 1.0:
        raise PreconditionError("p must lie in (0, 1)")
    if d == r:
        # gap(x) = (1 - q')^r - (1-x) with convex leading term; no root in
        # [0,1) iff the derivative of (x + p - xp)^r - x at 1 is negative
        return r * (1.0 - p) < 1.0

    beta = math.comb(d, r - 1) * (1.0 - p) ** (d - r + 1)
    if beta <= 1.0:
        x_cut = 0.0
    else:
        x_cut = 1.0 - beta ** (-1.0 / (d - r))
    if x_cut <= 0.0:
        return _gap(d, r, p, 0.0) > 0.0

    lip = 1.0 + d * (1.0 - p)
    stack = [(0.0, x_cut)]
    if _gap(d, r, p, 0.0) <= 0.0 or _gap(d, r, p, x_cut) <= 0.0:
        return False
    while stack:
        a, b = stack.pop()
        mid = 0.5 * (a + b)
        val = _gap(d, r, p, mid)
        if val <= 0.0:
            return False
        if val > lip * (b - a) / 2.0:
            continue
        if b - a < _MIN_WIDTH:
            return False  # positive but uncertifiable: treat as a witness
        stack.append((a, mid))
        stack.append((mid, b))
    return True
