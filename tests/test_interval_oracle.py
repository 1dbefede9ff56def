"""An interval-arithmetic oracle for M = max G on laws with listed atoms.

G(x) = sum_k w_k sum_{i<r} C(k, i) x^(k-i-1) (1-x)^i with the context's float
weights, which are exact in binary.  On a box X with midpoint c, G lies in the
mean-value form G(c) + G'(X) (X - c), evaluated in ``mpmath.iv`` at 60 digits.
Branch and bound from 64 boxes: M_lo is the largest lower end of a G(c), the
box of the largest upper end is split in two, and the search stops once that
upper end M_hi lies within 1e-13 (M_lo - 1) of M_lo.  It assumes nothing about
the width of a mode, so [M_lo, M_hi] is certified, and so is p_c = 1 - 1/M.
"""

import heapq
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from gwboot import make_context, make_distribution, pc_exact

_DPS = 60
_BOXES = 64
_REL = 1e-13
_MAX_SPLITS = 2000


def _G(atoms, r, X):
    """G over the interval X."""
    Y = 1 - X
    return sum(iv.mpf(w) * math.comb(k, i) * X ** (k - i - 1) * Y ** i for k, w in atoms for i in range(r))


def _dG(atoms, r, X):
    """G' over the interval X: d/dx x^n (1-x)^i = n x^(n-1) (1-x)^i - i x^n (1-x)^(i-1)."""
    Y, total = 1 - X, iv.mpf(0)
    for k, w in atoms:
        for i in range(r):
            n, term = k - i - 1, iv.mpf(0)
            if n:
                term += n * X ** (n - 1) * Y ** i
            if i:
                term -= i * X ** n * Y ** (i - 1)
            total += iv.mpf(w) * math.comb(k, i) * term
    return total


def certified_max(atoms, r):
    """(M_lo, M_hi, splits): mpf bounds with M_lo <= max_[0,1] G <= M_hi."""
    def box(a, b):
        c = (a + b) / 2
        X = iv.mpf([a, b])
        Gc = _G(atoms, r, iv.mpf(c))
        return mpmath.mpf(Gc.a), mpmath.mpf((Gc + _dG(atoms, r, X) * (X - c)).b)

    iv_dps, iv.dps = iv.dps, _DPS
    try:
        with mpmath.workdps(_DPS):
            heap, M_lo = [], mpmath.mpf("-inf")
            edges = [mpmath.mpf(j) / _BOXES for j in range(_BOXES + 1)]
            for a, b in zip(edges[:-1], edges[1:]):
                lo, hi = box(a, b)
                M_lo = max(M_lo, lo)
                heapq.heappush(heap, (-hi, a, b))
            for splits in range(_MAX_SPLITS):
                neg_hi, a, b = heapq.heappop(heap)
                if -neg_hi - M_lo <= _REL * (M_lo - 1):
                    return M_lo, -neg_hi, splits
                c = (a + b) / 2
                for ends in ((a, c), (c, b)):
                    lo, hi = box(*ends)
                    M_lo = max(M_lo, lo)
                    if hi >= M_lo:
                        heapq.heappush(heap, (-hi, *ends))
    finally:
        iv.dps = iv_dps
    raise AssertionError(f"no certificate after {_MAX_SPLITS} splits")


def _atoms(spec, r):
    ctx = make_context(make_distribution(spec), r)
    return list(zip(ctx.ks.tolist(), ctx.weights.tolist()))


# (spec, r, exact M where a closed form gives it: the regular law at r = 2 and the
# two-point law at r = 2 with a >= 2b - 1)
ORACLE_LAWS = [
    ("regular:b=3", 2, Fraction(9, 8)),
    ("regular:b=20", 4, None),
    ("twopoint:b=8,a=24", 2, Fraction(2 * (24 - 8), 24 - 2)),
    ("twopoint:b=3,a=9", 2, Fraction(2 * (9 - 3), 9 - 2)),
    ("twopoint:b=10,a=11", 2, None),
    ("regular:b=1000", 2, Fraction(1000**999 * 998**998, 999**1997)),
    ("pmf:2=0.5,100000=0.5", 2, None),
]


@pytest.mark.parametrize("spec, r, exact", ORACLE_LAWS, ids=[f"{s}-{r}" for s, r, _ in ORACLE_LAWS])
def test_pc_exact_meets_the_certified_interval(spec, r, exact):
    M_lo, M_hi, splits = certified_max(_atoms(spec, r), r)
    assert splits < 400
    with mpmath.workdps(_DPS):
        if exact is not None:
            # a two-point law's weights are the floats of rationals, its M an ulp or so off
            slack = 0 if spec.startswith("regular") else mpmath.mpf(2) ** -50
            M = mpmath.mpf(exact.numerator) / exact.denominator
            assert M_lo - slack <= M <= M_hi + slack, (spec, M_lo, M, M_hi)
        res = pc_exact(make_distribution(spec), r)
        pc_lo, pc_hi = 1 - 1 / M_lo, 1 - 1 / M_hi
        assert res.pc - res.err <= pc_hi and pc_lo <= res.pc + res.err, (spec, res, pc_lo, pc_hi)
        assert M_lo - res.err <= res.M <= M_hi + res.err, (spec, res.M, M_lo, M_hi)
