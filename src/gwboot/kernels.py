"""Binomial survival kernels of the fort recursion.

The basic object is

    g_k^r(x) = P(Bin(k, 1-x) <= r-1) / x = sum_{i<r} C(k,i) x^(k-i-1) (1-x)^i,

whose mixture over an offspring law xi,

    G(x) = sum_{k >= r} P(xi = k) g_k^r(x),

controls the critical probability through its maximum M on [0,1]:
p_c = 1 - 1/M.  The one-level survival map has one form for every law,

    h_{r,p}(x) = (1-p) E[P(Bin(xi, 1-x) <= r-1)] = (1-p) (P(xi < r) + x G(x)),

with P(xi < r) stored in the evaluation context.  One term loop,
``_g_sum``, reads the context's log-binomial tables for a block of x and for
G(x) at a single x alike, the longer of the atoms and the x of a block
innermost, so each numpy op loops over it in C; each x's sum over the
support is its own dot product (``_row_dots``), so
G at a point has the same bits in any array: one step of the survival
recursion costs about 10 us on a support of a few hundred atoms.  A point
mass or a heavy or pruned law sums its few terms at an interior x in scalar
code instead, in 2-6 us (2-vCPU Xeon, numpy 2.4);
``make_context`` alone decides which laws do, by the (k, weight) pairs it
keeps in the context's ``atoms``.  x = 0 and x = 1 are a one-row block for
every law, so the limits there are written once, in ``_G_block`` (and in
the public ``g``).  ``max_G`` evaluates G - 1 on a grid of x, whole, in one
call, and keeps the values beside the maximum, where ``q_limit`` reads them.

The shifted Poisson and geometric laws list no atom and are not cut: keep
each child with probability y = 1 - x, and the kept count of 2 + X has a
closed form (the law's ``thinned``), so x G(x) = P(Bin(xi, y) < r
<= xi) is a sum of O(r^2) non-negative terms at any b, and G - 1 near x = 1
is (y - P(xi < r) - P(Bin(xi, y) >= r))/x, without cancellation.  One code
takes a float and an array (``_thinned``), its exps numpy's either way
(``offspring._exp``), so G - 1 at a point has the same bits in any array
where numpy's exp does (see there); h costs 2-3 us there at r = 2.

For the heavy-tail law with pmf (r-1)/(k(k-1)) the full mixture is
identically 1, and the deficiency of a truncated mixture,

    D_r(m, x) = 1 - sum_{k=r}^{m} P(xi_r = k) g_k^r(x),

satisfies D_2(m,x) = x^(m-1)/m and

    D_{s+1}(m,x) = s/(s-1) D_s(m,x) + (1-x)/((s-1) x) P(Bin(m-1,1-x) <= s-2),

which lets us evaluate truncations at cutoffs far beyond anything a direct
sum could reach.  One log-space form of it (``_deficiency``) serves a float
and an array of x.  At any threshold r, the body (s-1)/(k(k-1)) of a heavy
or pruned law of threshold s on max(r, s) <= k <= m is (s-1)/(r-1) times
D_r(max(r, s) - 1, x) - D_r(m, x), where D_r(r-1, x) = 1; no k below s is
enumerated.  The pruned law ends the body at m = k1 and adds two atoms; the
heavy law sums it to infinity: D_r(m, x) -> 0 on [0, 1] ((r-1)/m at x = 1).
``make_context`` alone lists these terms, as a constant ``const`` plus the
(m, c) pairs of the terms c D_r(m, x) that vary with x, which kernels only sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .offspring import ENUM_CAP, HeavyTail, OffspringDistribution, PreconditionError, too_many_atoms

__all__ = [
    "g",
    "binom_lte",
    "GEvalContext",
    "make_context",
    "G",
    "G_minus_1",
    "G_upper",
    "h",
    "MaxResult",
    "max_G",
]

_EXACT_COMB_MAX_K = 500

GRID_STEP = 1e-3
BRACKET_WIDTH = 1e-12
_X_REL = 1e-9  # max_G refines to this fraction of the distance to the nearer end
_TIE_REL = 1e-10  # max_G's candidates within this fraction of |M - 1| of the best tie
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # the golden section of a bracket's side


def _log_binom_sum(n: int, m: int, l_i: float, l_rest: float, e: int = 0) -> float:
    """sum_{i<=m} exp(log C(n, i) + i l_i + (n-i-e) l_rest); terms below e^-745 are 0.

    log C(n, i) is the log of the exact integer, updated as c = c (n-i) // (i+1):
    lgamma differences cancel once n is large.
    """
    total, c = 0.0, 1
    for i in range(m + 1):
        lg = math.log(c) + i * l_i + (n - i - e) * l_rest
        total += math.exp(lg) if lg > -745.0 else 0.0
        c = c * (n - i) // (i + 1)
    return total


def binom_lte(n: int, q: float, m: int) -> float:
    """P(Bin(n, q) <= m) for small m; log-space terms once n is large."""
    if not 0.0 <= q <= 1.0:  # NaN fails too
        raise PreconditionError("binom_lte requires q in [0, 1]")
    if n < 0:
        raise PreconditionError("binom_lte requires n >= 0")
    if m >= n:
        return 1.0
    if m < 0:
        return 0.0
    if q <= 0.0:
        return 1.0
    if q >= 1.0:
        return 0.0
    if n <= _EXACT_COMB_MAX_K:
        return min(1.0, math.fsum(math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(m + 1)))
    return min(1.0, _log_binom_sum(n, m, math.log(q), math.log1p(-q)))


def g(k: int, r: int, x: float) -> float:
    """g_k^r(x), with the polynomial limits at the endpoints.

    At x = 0 the removable singularity resolves to r when k = r and to 0
    when k > r; at x = 1 the value is 1 for every k.
    """
    if r < 2:
        raise PreconditionError("g requires r >= 2")
    if k < r:
        raise PreconditionError("g requires k >= r")
    if not 0.0 <= x <= 1.0:
        raise PreconditionError("g requires x in [0, 1]")
    if x == 0.0:
        return float(r) if k == r else 0.0
    if x == 1.0:
        return 1.0
    if k <= _EXACT_COMB_MAX_K:
        return math.fsum(math.comb(k, i) * x ** (k - i - 1) * (1 - x) ** i for i in range(r))
    return _log_binom_sum(k, r - 1, math.log1p(-x), math.log(x), 1)


def _libm_logs(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log x, log(1-x)) taken from libm like ``g``, with x = 1/2 standing in
    outside (0, 1) so that every log is finite.

    numpy's vectorised logs can differ from libm in the last bit; max_G's
    refinement's comparisons at the rounding floor would turn such a bit
    into a shift of x_star, so grid and single-point evaluations share
    libm's logs.
    """
    vals = np.where((xs > 0.0) & (xs < 1.0), xs, 0.5).tolist()
    return np.array([math.log(v) for v in vals]), np.array([math.log1p(-v) for v in vals])


def _deficiency(r: int, m: int, lx: float | np.ndarray, l1x: float | np.ndarray):
    """D_r(m, x) at interior x from log x and log(1-x), floats or arrays alike.

    The recursion's step (1-x)/((s-1) x) P(Bin(m-1, 1-x) <= s-2) is a running
    sum over i <= s-2 of C(m-1, i) (1-x)^(i+1) x^(m-2-i), divided by s-1; each
    term is formed once, as one exp of its log: C(m-1, i) may pass the largest
    double (``pruned:r=8,b=1000``, m about 10^62).
    """
    d, below, c = np.exp((m - 1) * lx) / m, 0.0, 1  # c = C(m-1, s-2)
    for s in range(2, r):
        below = below + np.exp(math.log(c) + (s - 1) * l1x + (m - s) * lx)
        d = s / (s - 1) * d + below / (s - 1)
        c = c * (m - s + 1) // (s - 1)
    return d


# ---------------------------------------------------------------------------
# evaluation contexts

# (i, k, x) elements of ``_g_sum``'s temporary in one block of x, 512 kB
_BLOCK = 1 << 16
# a larger temporary bounds its logs from below first, to skip exp where they
# underflow (``_exp_live``); the bound costs 4 us, 5-10% of a 4k-16k block
# (2-vCPU Xeon, numpy 2.4)
_LIVE_MIN = 1 << 14


@dataclass(frozen=True, eq=False)
class GEvalContext:
    """Ingredients for evaluating G at many points, fixed by ``make_context``.

    Every family is held in one form,

        G(x) = const + sum_j weights_j g_{ks_j}^r(x) + sum_{(m, c) in body} c D_r(m, x),

    with ``log_binom[i, 0, j] = log C(ks_j, i)`` and ``powers[i, 0, j] = ks_j - i - 1``
    tabulated once for i < r, shaped (r, 1, len(ks)) so that a float log x
    and an (n, 1) column of them broadcast alike, k innermost; a block of
    more x than atoms views them as (r, len(ks), 1), x innermost (``_g_sum``).
    Enumerable laws put their support >= r in ``ks`` (``const`` 0, ``body``
    empty); the heavy and pruned laws put their own atoms there, in ascending
    order as every law's, every weight a mass, and their body in
    ``const`` and ``body``: the top's term -c D_r(top, x) first (none for the
    heavy law's infinite top), then at r < s, s the law's threshold, the lower
    cut's c D_r(s-1, x), c = (s-1)/(r-1).  At r >= s that cut is c D_r(r-1, x)
    = c, the constant ``const`` from which G - 1 starts.

    ``atoms`` holds the (k, weight) pairs of ``ks`` and ``weights`` as Python
    numbers for a law whose single interior x ``_mixture`` sums in scalar
    code: one atom, or a body.  It is None for every other law, whose single
    x is one row of the tables.

    ``thin`` is the shifted Poisson or geometric law itself, None for every
    other law.  Such a law lists no atom (``ks`` is empty, ``const`` 0): G is
    its thinned form, ``thin.thinned`` over x, in closed form with O(r^2)
    terms and no cut of the support (see ``_thinned``).  An empty ``ks`` has
    empty tables and costs no loop over i < r.  ``prob_below`` is P(xi < r),
    the mass ``h`` adds to x G(x); laws with such mass (``support_min < r``,
    not this float) never fully infect for p < 1.  A context serves its one
    threshold r: the survival map at another s >= 2 is
    ``h(make_context(dist, s), p, x)``.
    """

    r: int
    prob_below: float
    ks: np.ndarray
    weights: np.ndarray
    log_binom: np.ndarray
    powers: np.ndarray
    body: tuple
    const: float
    atoms: tuple | None
    thin: OffspringDistribution | None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_context(dist: OffspringDistribution, r: int) -> GEvalContext:
    """The context of ``dist`` at threshold r >= 2.  No law is cut: a heavy or pruned
    law is a body in closed form, a shifted Poisson or geometric law its thinned form,
    and a finite law lists its atoms up to ``support_max``.

    A shifted law is still refused where it would list more than ``ENUM_CAP`` atoms,
    the rule its moment sums keep (its ``refuse_past_cap``, which builds no table).
    """
    if r < 2:
        raise PreconditionError("threshold r must be >= 2")
    thin = None
    if isinstance(dist, HeavyTail):
        ks = np.array([k for k, _ in dist.atoms if k >= r], dtype=np.int64)
        w = np.array([p for k, p in dist.atoms if k >= r], dtype=float)
        # the body of threshold s is c (D_r(max(r, s) - 1, x) - D_r(top, x)), c = (s-1)/(r-1):
        # at r >= s its lower cut D_r(r-1, x) = 1 is the constant, and an infinite top adds no term
        c = (dist.r - 1) / (r - 1) if dist.top is None or dist.top >= r else 0.0
        body = tuple((m, cm) for m, cm in ((dist.top, -c), (dist.r - 1, c)) if m is not None and m >= r)
        const = c if dist.r <= r else 0.0
    elif dist.support_max is None:  # the shifted Poisson and geometric laws
        dist.refuse_past_cap()
        thin, ks, w, body, const = dist, np.zeros(0, dtype=np.int64), np.zeros(0), (), 0.0
    else:
        ks_all, w_all = dist.support_probs(dist.support_max)
        mask = ks_all >= r
        ks, w, body, const = ks_all[mask], w_all[mask], (), 0.0
        if len(ks) > ENUM_CAP:
            raise too_many_atoms(f"{dist.label()} at k >= {r}")
    rows = r if len(ks) else 0  # an empty support needs no table
    # log C(k, i) = sum_{j<i} log(k-j) - log i!, a sum of i logs rather than a
    # difference of log-factorials near log k!
    log_binom = np.zeros((rows, 1, len(ks)))
    log_binom[1:] = np.log(ks - np.arange(rows - 1.0)[:, None, None])
    np.add.accumulate(log_binom, axis=0, out=log_binom)  # in order of i, one sum at a time
    log_binom -= np.array([math.lgamma(i + 1.0) for i in range(rows)])[:, None, None]
    return GEvalContext(
        r=r, prob_below=float(dist.prob_below(r)),
        ks=_frozen(ks), weights=_frozen(w), log_binom=_frozen(log_binom),
        powers=_frozen(ks - 1.0 - np.arange(rows, dtype=float)[:, None, None]),
        body=body, const=const,
        atoms=tuple(zip(ks.tolist(), w.tolist())) if body or const or len(ks) == 1 else None,
        thin=thin,
    )


@functools.cache
def _counts(r: int) -> np.ndarray:
    """The read-only (r, 1, 1) column i = 0..r-1 of ``_g_sum``'s terms i log(1-x)."""
    return _frozen(np.arange(r, dtype=float)[:, None, None])


def _exp_live(lg: np.ndarray, lowest: float) -> np.ndarray:
    """exp of lg in place, given a lower bound on its elements.  Where the bound lies
    below -746, a log below -746 is 0 without a call of exp, which is slow there
    (the same 0): 3-8 times faster on blocks of 60k terms where most logs are that
    low, though twice the plain exp where none is."""
    if lowest < -746.0:
        live = lg > -746.0
        np.exp(lg, out=lg, where=live)
        lg[~live] = 0.0
    else:
        np.exp(lg, out=lg)
    return lg


def _g_sum(ctx: GEvalContext, lx: float | np.ndarray, l1x: float | np.ndarray) -> np.ndarray:
    """sum_{i<r} C(k, i) x^(k-i-1) (1-x)^i for each k of ``ctx.ks``, from the logs
    of x and 1-x (or any values in their place), summed in log space term by term.

    A float log x gives one row, shape (1, len(ks)); a 1-D array of n gives a
    block, shape (n, len(ks)).  The (r, ., .) temporary has the longer of its
    two other axes innermost, so each op loops over it in C: k for a single x
    or a block of at most len(ks) x (the tables as held, x a column), x for a
    larger block (the tables viewed as (r, len(ks), 1), x a row; the result
    is turned to one row per x).  Each term is formed in place, (k-i-1) log x,
    + log C(k, i), + i log(1-x), then exp, and the terms are summed in order
    of i: by one op per i on the whole temporary, or where r passes the
    len(ks) n sums (a point mass at a large r, a single piece) by one scan
    over i per sum (``np.add.accumulate``), as r ops cost about r us and n
    scans about 12 n ns; at r = 2 the loop's two ops are fewer than the
    scan's three.  The operations on each element are the same in
    either layout and either sum, so a row and the same x in any block agree
    bit for bit.  An empty support has no table and takes no loop over i < r.
    """
    if not len(ctx.ks):
        return np.zeros((np.size(lx), 0))
    block = isinstance(lx, np.ndarray)
    x_inner = block and len(lx) > len(ctx.ks)
    if x_inner:
        shape = (ctx.r, len(ctx.ks), 1)
        lg = ctx.powers.reshape(shape) * lx
        lg += ctx.log_binom.reshape(shape)
    else:
        if block:
            lx, l1x = lx[:, None], l1x[:, None]
        lg = ctx.powers * lx
        lg += ctx.log_binom
    lowest = 0.0
    if lg.size > _LIVE_MIN:  # no log lies below this: logs <= 0, log C(k, i) >= 0, ks ascend
        lowest = (ctx.ks[-1] - 1.0) * np.min(lx) + (ctx.r - 1.0) * np.min(l1x)
    if 2 < ctx.r and ctx.r * ctx.r > lg.size:  # r > len(ks) n: one scan over i per sum
        lg += _counts(ctx.r) * l1x
        gk = np.add.accumulate(_exp_live(lg, lowest), axis=0, out=lg)[-1]
    else:  # one op per i on the whole block
        for i in range(1, ctx.r):
            lg[i] += l1x * i
        gk = _exp_live(lg, lowest)[0]
        for i in range(1, ctx.r):
            gk += lg[i]
    return np.ascontiguousarray(gk.T) if x_inner else gk


def _row_dots(gk: np.ndarray, w: np.ndarray) -> np.ndarray:
    """gk_j . w for each row j of gk, one dot per row: a row's bits do not depend
    on the rows beside it, as those of a matrix-vector product (gemv) do."""
    return (gk[:, None, :] @ w[:, None])[:, 0, 0]


def _thinned(ctx: GEvalContext, x, lx, l1x, base: float):
    """base + G(x) of a shifted law at interior x, a float or an array, from the logs
    of x and 1 - x: the same operations, so the same bits, for a float and an array.

    G is ``thin.thinned`` at u = x, v = w = 1 - x, over x: a sum of
    non-negative terms, never 1 + (G - 1).  G - 1 (base -1) takes the tail form
    (y - P(xi < r) - T(y))/x, y = 1 - x, from x = 1/2 on, where G is near 1
    and its head less 1 would cancel: T(y) = P(Bin(xi, y) >= r) and y are
    small there, so G - 1 keeps its relative precision where x_star is near 1.
    """
    law, r, y = ctx.thin, ctx.r, 1.0 - x
    if not isinstance(x, np.ndarray):
        if base == -1.0 and x >= 0.5:
            return (y - ctx.prob_below - law.thinned_tail(r, x, y, l1x)) / x
        return law.thinned(r, x, y, y, lx, l1x) / x + base
    out = np.empty(len(x))
    tail = (x >= 0.5) & (base == -1.0)
    head = ~tail
    out[tail] = (y[tail] - ctx.prob_below - law.thinned_tail(r, x[tail], y[tail], l1x[tail])) / x[tail]
    out[head] = law.thinned(r, x[head], y[head], y[head], lx[head], l1x[head]) / x[head] + base
    return out


def _G_block(ctx: GEvalContext, xs: np.ndarray, lx: np.ndarray, l1x: np.ndarray,
             base: float) -> np.ndarray:
    """``_mixture`` from ``base`` on one block of x given ``_libm_logs(xs)``, through
    a (len(xs), len(ctx.ks)) array of g_k^r(x) whose rows ``_row_dots`` sums
    one by one: a value does not depend on the block it is computed in.  A
    shifted law is ``_thinned`` at each interior x.
    """
    # the limits at x = 0 and at x = 1: g_k^r is r when k = r (0 otherwise) and 1,
    # D_r is 0 and (r-1)/m; a shifted law's G is r P(xi = r) and 1 - P(xi < r)
    ends = (xs == 0.0) | (xs == 1.0)
    if ctx.thin is not None:
        out = np.where(xs == 0.0, base + ctx.r * ctx.thin.pmf(ctx.r), (base + 1.0) - ctx.prob_below)
        inner = ~ends
        out[inner] = _thinned(ctx, xs[inner], lx[inner], l1x[inner], base)
        return out
    gk = _g_sum(ctx, lx, l1x)
    gk[ends] = np.where(xs[ends, None] == 0.0, np.where(ctx.ks == ctx.r, float(ctx.r), 0.0), 1.0)
    out = _row_dots(gk, ctx.weights) + base
    for m, c in ctx.body:
        d = _deficiency(ctx.r, m, lx, l1x)
        d[ends] = np.where(xs[ends] == 0.0, 0.0, (ctx.r - 1) / m)
        out += c * d
    return out


def _G_blocks(ctx: GEvalContext, xs: np.ndarray, lx: np.ndarray, l1x: np.ndarray,
              base: float) -> np.ndarray:
    """``_mixture`` from ``base`` on a 1-D array of x given its logs, one ``_G_block``
    per ``_row_blocks`` slice."""
    out = np.empty(len(xs))
    for rows in _row_blocks(ctx, len(xs)):
        out[rows] = _G_block(ctx, xs[rows], lx[rows], l1x[rows], base)
    return out


def _mixture(ctx: GEvalContext, x: float, base: float) -> float:
    """base + G(x) - const, the form of ``GEvalContext`` less its constant, at one x in [0, 1].

    x = 0 and x = 1 are a one-row block, whose ``_G_block`` holds the limits
    there.  At interior x, a shifted law is ``_thinned`` on floats, and a
    context with ``atoms`` sums its few closed-form terms in scalar code, a few
    microseconds where numpy's per-call overhead makes a row of the tables
    cost several times that; any other support is one row of ``_g_sum``, bit
    for bit the same x in any block of an array.
    """
    if not 0.0 < x < 1.0:
        xs = np.array([x])
        return float(_G_block(ctx, xs, *_libm_logs(xs), base)[0])
    if ctx.thin is not None:
        return _thinned(ctx, x, math.log(x), math.log1p(-x), base)
    if ctx.atoms is None:  # one dot, as each row of a block (``_row_dots``)
        return float(_g_sum(ctx, math.log(x), math.log1p(-x))[0] @ ctx.weights + base)
    total = base
    for k, w in ctx.atoms:
        total += w * g(k, ctx.r, x)
    for m, c in ctx.body:
        total += c * float(_deficiency(ctx.r, m, math.log(x), math.log1p(-x)))
    return total


def _mixture_at(ctx: GEvalContext, x: float | np.ndarray, base: float) -> float | np.ndarray:
    """``_mixture`` from ``base`` at a float or a 1-D array of x in [0, 1].

    Arrays are evaluated in blocks of about 2^16 (x, k) elements by
    ``_G_block``; a single x is ``_mixture``.
    """
    if not isinstance(x, (np.ndarray, list, tuple)):
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise PreconditionError("x must lie in [0, 1]")
        return _mixture(ctx, x, base)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1 or not ((xs >= 0.0) & (xs <= 1.0)).all():  # NaN fails both
        raise PreconditionError("x must lie in [0, 1]")
    flat = xs.reshape(-1)
    out = _G_blocks(ctx, flat, *_libm_logs(flat), base)
    return float(out[0]) if xs.ndim == 0 else out


def G_minus_1(ctx: GEvalContext, x: float | np.ndarray) -> float | np.ndarray:
    """G(x) - 1 at a float or a 1-D array of x, from base ``const - 1.0``:
    without cancellation on the analytic path."""
    return _mixture_at(ctx, x, ctx.const - 1.0)


def _row_blocks(ctx: GEvalContext, n: int) -> list[slice]:
    """Slices of n rows, each with about ``_BLOCK`` (i, k, row) elements of ``_g_sum``'s
    temporary or fewer: r len(ks) per row.  Rows are independent (``_row_dots``), so
    the split moves no bit."""
    blocks = max(1, -(-n * ctx.r * len(ctx.ks) // _BLOCK))
    rows = max(1, -(-n // blocks))
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


def G_upper(ctx: GEvalContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Upper bounds on G over the pieces [a_j, b_j], 0 <= a_j < b_j <= 1, in one pass.

    On a piece x^(k-i-1) <= b^(k-i-1) and (1-x)^i <= (1-a)^i, so each weight's
    g_k^r is at most sum_{i<r} C(k,i) b^(k-i-1) (1-a)^i from the context's
    tables.  G is ``const`` plus ``body``: each term c' x^j (1-x)^i of a body
    term c D_r(m, x) with c > 0 is at most c' b^j (1-a)^i, and one with c < 0,
    the top's, only lowers G and is left out.  The bound is raised by 2^-36 for
    the rounding of exp, log, the sum and the tables, and by 4 ulps of log
    (k+1)! at the largest k.  A table entry log C(k, i) is a sum of i < r
    rounded logs of at most log k, so it is off by at most about r^2 ulps of
    log k, below 2^-36 for r < 60 at any k the tables hold; the log-factorial
    term is a margin beyond that.

    A shifted law bounds the same sum, sum_{i<r} (1-a)^i E[C(xi, i) b^(xi-i-1);
    xi >= r] (the i-th pgf derivative at b less the atoms below r), as
    ``thin.thinned`` at u = b, v = 1 - a over b: O(r^2) non-negative terms.
    Each is a product of a few factors, off by a few ulps, but for an exp
    (numpy's, at most 0.66 ulp off), whose argument is off by a few ulps of
    S = ``thin.exp_size(r)``, the size of its parts (0 for the geometric law,
    which takes no exp).  The bound is raised by 2^-36 and by 4 ulps of S, and
    by r 2^-1070 / b for the terms that underflow.
    """
    lb, l1a = np.log(b), np.log1p(-a)
    if ctx.thin is not None:
        out = ctx.thin.thinned(ctx.r, b, 1.0 - a, 1.0 - b, lb, l1a) / b
        return out * (1.0 + 2.0**-36 + 2.0**-51 * ctx.thin.exp_size(ctx.r)) + ctx.r * 2.0**-1070 / b
    out = np.empty(len(b))
    for rows in _row_blocks(ctx, len(b)):
        out[rows] = _row_dots(_g_sum(ctx, lb[rows], l1a[rows]), ctx.weights)
    for m, c in ctx.body:
        if c > 0.0:
            out += c * _deficiency(ctx.r, m, lb, l1a)
    k = float(ctx.ks.max(initial=1)) + 1.0
    rel = 2.0**-36 + 2.0**-51 * math.lgamma(k + 1.0)
    return (out + ctx.const) * (1.0 + rel)


def G(ctx: GEvalContext, x: float | np.ndarray) -> float | np.ndarray:
    """The mixture sum_{k >= r} pmf(k) g_k^r(x) over the context's support, from
    base ``const``: never 1 + (G - 1), which cancels where G is small."""
    return _mixture_at(ctx, x, ctx.const)


def h(ctx: GEvalContext, p: float, x: float) -> float:
    """h_{r,p}(x) = (1-p) E[P(Bin(xi, 1-x) <= r-1)] = (1-p) (P(xi < r) + x G(x)).

    Child counts below the threshold contribute probability one: a vertex
    with fewer than r children in its subtree can never be infected from
    below.  The rest is x G(x), read from the context's tables or a shifted
    law's thinned form; p and x are checked here and nowhere below, so a step
    of the recursion costs one G.
    G is ``const`` plus ``_mixture`` from base 0, never 1 + (G - 1), which
    would cancel where G is small (x near 0 at r >= 3).  Every term is nonnegative
    but the body's negative term, the top's; a negative x G(x) is clamped to 0.
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must lie in [0, 1]")
    if not 0.0 <= x <= 1.0:
        raise PreconditionError("x must lie in [0, 1]")
    xg = x * (ctx.const + _mixture(ctx, x, 0.0))
    return (1.0 - p) * (ctx.prob_below + (0.0 if xg < 0.0 else xg))


# ---------------------------------------------------------------------------
# maximization


@dataclass(frozen=True, slots=True)
class MaxResult:
    """Location of the maximum of G on [0, 1] and its value, held as M - 1.

    M - 1 is the best G - 1 that ``max_G`` evaluated, with every bit it has:
    on the heavy and pruned laws at their own threshold G - 1 carries no O(1)
    offset, so it keeps full relative precision where M rounds to 1.
    ``grid`` is G - 1 at each ``_grid()`` point, read-only, as ``max_G``
    scanned it (``q_limit``'s bracket reads it); it takes no part in ``==`` or repr.
    """

    x_star: float
    M_minus_1: float
    err: float
    grid: np.ndarray = field(compare=False, repr=False)

    @property
    def M(self) -> float:
        return 1.0 + self.M_minus_1


_Point = tuple[float, float]  # (x, f(x))


def _brent_max(f: Callable[[float], float], a: float, b: float, x: _Point, w: _Point, v: _Point) -> _Point:
    """(x, f(x)) at the largest f that Brent's method finds on [a, b], seeded
    with three points (x, f(x)) in [a, b] already evaluated: x the best, w the
    next, v the last.

    Each step takes the vertex of the parabola through x, w and v when it lies
    inside the bracket and moves less than half the step before last (the
    first step less than half the bracket), and a golden section of the larger
    side of x otherwise; no step is shorter than tol = (BRACKET_WIDTH +
    ``_X_REL`` min(x, 1-x)) / 4.  It stops once both ends lie within 2 tol of
    x.  The relative term follows the distance to the nearer end, where the
    modes of G are as narrow as that distance (``pruned:r=4,b=66`` at r = 2
    peaks 5e-11 from x = 1).  A unimodal f is maximized; on any f the result
    is the best point evaluated, so never below the seed x.
    """
    (x, fx), (w, fw), (v, fv) = x, w, v
    d = e = b - a
    while True:
        m = 0.5 * (a + b)
        tol = 0.25 * (BRACKET_WIDTH + _X_REL * min(x, 1.0 - x))
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        p = q = e_prev = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            e_prev, e = e, d
        if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _refine(f: Callable[[float], float], lo: _Point, hi: _Point, mid: _Point | None = None) -> _Point:
    """The best point of f that ``_brent_max`` finds between the grid points lo
    and hi: about the grid point ``mid`` between them, or, without one, next to
    the end of [0, 1] that lo or hi is, where f falls away from that end.

    An end piece is first probed at ``BRACKET_WIDTH`` from its end.  Where f
    there is below f at the end, the mode of a unimodal f lies within
    ``BRACKET_WIDTH`` of the end, which is returned after that one evaluation.
    """
    if mid is not None:
        w, v = sorted((lo, hi), key=lambda q: q[1], reverse=True)
        return _brent_max(f, lo[0], hi[0], mid, w, v)
    end, inner = (lo, hi) if lo[0] == 0.0 else (hi, lo)
    u = BRACKET_WIDTH if end[0] == 0.0 else 1.0 - BRACKET_WIDTH
    probe = (u, f(u))
    if probe[1] < end[1]:
        return end
    return _brent_max(f, lo[0], hi[0], probe, end, inner)


@functools.cache
def _grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``max_G``'s scan points and their ``_libm_logs``, built once per process, read-only."""
    xs = np.linspace(0.0, 1.0, round(1.0 / GRID_STEP) + 1)
    return tuple(_frozen(a) for a in (xs, *_libm_logs(xs)))


def _tie_floor(best: float) -> float:
    """The least G - 1 that ties ``best``: best less ``_TIE_REL`` |best|."""
    return best - _TIE_REL * abs(best)


def _brackets(ctx: GEvalContext, xs: np.ndarray, vals: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) grid indices of the pieces of [0, 1] that may hold the maximum.

    The pieces are the grid neighbours of every interior local maximum of
    ``vals`` and the end pieces where G falls away from x = 0 or x = 1;
    plateaus of exactly equal values spawn pieces only at their strict edges,
    so flat stretches cost nothing.  A piece whose ``G_upper`` bound lies below
    1 plus the tie floor of the best grid value is dropped: no value in it
    could tie the best grid value or any better one.
    """
    mid, left, right = vals[1:-1], vals[:-2], vals[2:]
    peaks = np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right))).tolist()
    pieces = [(i, i + 2) for i in peaks]
    n = len(xs) - 1
    if vals[0] > vals[1]:
        pieces.append((0, 1))
    if vals[n] > vals[n - 1]:
        pieces.append((n - 1, n))
    if not pieces:
        return []
    lo, hi = np.array(pieces).T
    upper = G_upper(ctx, xs[lo], xs[hi])
    floor = 1.0 + _tie_floor(float(vals.max()))
    return [piece for piece, bound in zip(pieces, upper.tolist()) if bound >= floor]


def max_G(ctx: GEvalContext) -> MaxResult:
    """Global maximum of G over [0, 1].

    G - 1 on the whole grid of step ``GRID_STEP``, one ``_G_blocks`` call
    (returned as ``MaxResult.grid``), finds the pieces that may hold the
    maximum (``_brackets``): the grid neighbours of each local maximum and
    the end pieces where G falls away from x = 0 or 1, less those whose
    ``G_upper`` bound, from one vectorised call, cannot reach the best grid
    value.  Each piece left is refined (``_refine``) by Brent's method
    seeded with its three grid points, so its first step is a parabola's
    vertex.  An end piece is first probed at ``BRACKET_WIDTH`` from its end;
    where G there is below G at the end, the mode lies within
    ``BRACKET_WIDTH`` of the end under the unimodality assumed of every
    piece, and the piece takes no further evaluation.  Modes of all supported families are wide relative to the
    grid step.  The grid and its libm logs are computed once per process;
    each value G - 1 on it is ``G_minus_1`` of the grid array at that x, bit
    for bit, and of that x alone too unless the context has ``atoms`` (a
    point mass, a heavy or a pruned law): those sum a single interior x in
    scalar code, a few ulps of max(G, 1) off the grid value.

    Candidates within ``_TIE_REL`` |M - 1| of the best tie, and ties report
    the smallest x.  The refinement stops at brackets of width
    ``BRACKET_WIDTH`` plus ``_X_REL`` times the distance to the nearer end,
    but where G is flat to its rounding floor the comparisons are ties of
    rounding, so x_star is resolved only to the width of that flat top: about
    1e-8 relative on the pruned laws, 1e-7 on ``geometric:b=4`` at r = 4.
    """
    f = lambda x: G_minus_1(ctx, x)
    xs, lx, l1x = _grid()
    vals = _frozen(_G_blocks(ctx, xs, lx, l1x, ctx.const - 1.0))
    pt = lambda i: (float(xs[i]), float(vals[i]))

    candidates = [pt(0), pt(-1)]
    for lo, hi in _brackets(ctx, xs, vals):
        candidates.append(_refine(f, pt(lo), pt(hi), pt(lo + 1) if hi - lo == 2 else None))

    best = max(fb for _, fb in candidates)
    x_star = min(xb for xb, fb in candidates if fb >= _tie_floor(best))
    return MaxResult(x_star=float(x_star), M_minus_1=best, err=1e-10, grid=vals)
