"""Galton-Watson tree sampling and bootstrap dynamics.

Trees are grown breadth-first to a fixed depth n by one level builder,
``_grow``, and kept in the form it builds: per level, the offsets
[0, cumsum(child counts)].  Vertices at depth n keep no children, matching
the truncated-tree semantics of the survival recursion.  A ``SampledTree``
is the offsets of one root; a Monte Carlo block is those of a forest.  Two
independent oracles decide the fate of the root of a ``SampledTree``:

* ``run_bootstrap`` iterates the infection update rule (neighbourhood =
  parent + children) to its fixed point, with the child ranges and parents
  read off the offsets;
* ``root_fort_status`` runs ``_fort_pass``, the bottom-up blocking-set
  recursion that Monte Carlo blocks also use: a vertex is safe iff it is
  initially healthy and at most r-1 of its children are unsafe, leaves
  being safe iff healthy.

On any finite tree the eternally healthy set is exactly the union of
initially healthy blocking sets, so the two must agree on the root.

Monte Carlo replicates are simulated in blocks of B trees grown together as
one forest, marks first (``_grow_marked``): each level's marks are drawn
before its child counts, and only unmarked vertices get children.  A marked
vertex is infected whatever lies below it, so its subtree cannot change the
root's status; growing it would only cost time.  One bottom-up fort pass
then decides every root.  B is a function of the law's mean, p, the depth n
and the node budget only (``block_size``).  Block j draws from the
counter-based Philox stream keyed by (master seed, block index j); the
estimate is an order-insensitive integer sum, so the result is bit-identical
however blocks are scheduled.  The last block holds the remainder, so a run
with fewer replicates is not a prefix of a longer one.

``STREAM_VERSION`` names the layout of a block's stream.  Version 5 is, for
each level i = 0..n in turn: the marks of the level's vertices in
breadth-first order (tree by tree within the level), drawn by
``_draw_marks``, then, for i < n, one raw 64-bit word per unmarked vertex of
the level, in the same order, for its child count (none for a law with one
atom); a shifted geometric count that draws its table's tail column reads
one more word, after the level's words, in the order of the vertices, until
none does.  The marks of a level of N vertices are ceil(N/8) raw words read
as little-endian bytes, one byte U per vertex; then one uniform V per vertex
with U = floor(256 p), in that order.  A vertex is marked iff
U < floor(256 p), or U = floor(256 p) and V < 256 p - floor(256 p).  Growth
stops, and the stream with it, once every tree of the block is over the
budget.  Version 4 drew the child counts of every vertex, level by level,
and then the marks of the whole forest.

A count's word goes through the law's alias table (``offspring.AliasTable``),
built in exact integers: P(count = k) is exactly an integer weight / 2^64,
within 2^-64 of the law's pmf(k) over the mass its table holds.  The heavy
and pruned laws invert their CDF at the uniform (W >> 11) 2^-53 of the word
W.  No count goes through a numpy sampler, whose algorithm numpy may change.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .offspring import OffspringDistribution, PreconditionError

__all__ = [
    "DEFAULT_BUDGET",
    "STREAM_VERSION",
    "SampledTree",
    "sample_tree",
    "sample_marks",
    "run_bootstrap",
    "root_fort_status",
    "SimEstimate",
    "estimate_qn",
    "replicate_rng",
]

DEFAULT_BUDGET = 10_000_000
STREAM_VERSION = 5  # per level: one byte per mark, then one word per unmarked child count
BLOCK_VERTICES = 1 << 16  # expected vertices per Monte Carlo block
_LITTLE_U64 = np.dtype("<u8")


@functools.cache
def _philox_key_type() -> type:
    """A seed sequence that hands a 128-bit Philox key to the bit generator as it is.

    ``Philox(key=...)`` seeds a ``SeedSequence`` from OS entropy before it
    discards it for the key; a seed sequence that returns the key costs
    none of that and gives the same state.  Made on first use, so that
    importing gwboot does not load ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, key: int):
            self.words = np.array([key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return PhiloxKey


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Philox stream for one block: key = master seed, counter = block index.

    The same stream as ``Philox(key=seed, counter=[0, 0, 0, index])``.
    """
    seed = int(seed)
    if not 0 <= seed < 1 << 128:
        raise PreconditionError("seed must lie in [0, 2^128)")
    key = _philox_key_type()(seed)
    return np.random.Generator(np.random.Philox(key, counter=[0, 0, 0, index]))


def _draw_marks(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """``size`` i.i.d. Bernoulli(p) marks from one byte per mark.

    Draws ceil(size/8) raw words, read as little-endian bytes U; with
    t = floor(256 p), mark i is U_i < t, and each tie U_i = t draws a
    uniform V, marked iff V < 256 p - t.  Both 256 p and 256 p - t are
    exact, so P(mark) is p rounded up to a multiple of 2^-61.
    """
    words = rng.bit_generator.random_raw((size + 7) >> 3)
    u = np.frombuffer(words.astype(_LITTLE_U64, copy=False), dtype=np.uint8, count=size)
    scaled = 256.0 * p
    t = int(scaled)
    if t == 256:  # p = 1: every byte is below 256, which a uint8 cannot hold
        return np.ones(size, dtype=bool)
    t8 = np.uint8(t)
    marks = u < t8
    tied = (u == t8).nonzero()[0]
    if len(tied):
        marks[tied] = rng.random(len(tied)) < scaled - t
    return marks


def expected_tree_size(d: OffspringDistribution, n: int, p: float) -> float:
    """Expected vertices grown to depth n when only unmarked vertices have
    children, sum_{i<=n} ((1-p) m)^i (inf if m is); p = 0 is the full tree."""
    m = (1.0 - p) * d.mean() if p < 1.0 else 0.0  # at p = 1 only the root grows
    if math.isinf(m):
        return math.inf
    total, level = 0.0, 1.0
    for _ in range(n + 1):
        total += level
        level *= m
    return total


def block_size(d: OffspringDistribution, n: int, p: float, budget: int) -> int:
    """Trees per Monte Carlo block: about BLOCK_VERTICES expected grown
    vertices, counting each tree at most at the budget."""
    return max(1, int(BLOCK_VERTICES // min(expected_tree_size(d, n, p), budget)))


def _grow(draw: Callable[[int, int], np.ndarray], n: int, budget: int,
          roots: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Levels 0..n of ``roots`` trees, grown breadth-first as one forest.

    Each level's vertices lie tree by tree; ``draw(i, width)`` gives the
    child counts of all ``width`` vertices of level i at once.  Returns
    ``(offsets, dropped)``: ``offsets[i]`` is
    ``[0, cumsum(child counts of level i)]`` and the level after the last
    one holds leaves.  A tree whose vertex total exceeds ``budget`` has the
    counts of the level that did it zeroed and is marked in ``dropped``;
    growth stops once every tree is dropped.
    """
    offsets: list[np.ndarray] = []
    bounds = np.arange(roots + 1)  # tree t spans bounds[t]:bounds[t+1] of a level
    reach = bounds.copy()  # sum of the levels' bounds: tree t has reach[t+1] - reach[t] vertices
    dropped = np.zeros(roots, dtype=bool)
    width = total = roots
    for i in range(n):
        c = draw(i, width)
        off = np.empty(width + 1, dtype=np.int64)
        off[0] = 0
        c.cumsum(out=off[1:])
        offsets.append(off)
        nxt = off[bounds]
        reach += nxt
        width = int(off[-1])
        total += width
        if total > budget:  # no tree can be over budget while the whole forest is not
            over = (reach[1:] - reach[:-1] > budget) & ~dropped
            if over.any():
                c[np.repeat(over, bounds[1:] - bounds[:-1])] = 0
                c.cumsum(out=off[1:])
                dropped |= over
                if dropped.all():
                    break
                # kept trees' widths are unchanged, so reach stays exact for them
                nxt = off[bounds]
                width = int(off[-1])
        bounds = nxt
    return offsets, dropped


def _fort_pass(offsets: list[np.ndarray], marks: np.ndarray, r: int) -> np.ndarray:
    """Safe flags of level 0 by the bottom-up blocking-set recursion.

    ``offsets`` describes the levels as ``_grow`` does and ``marks`` holds
    the initial infection of every vertex in breadth-first order.  A vertex
    is unsafe iff it is infected or at least r of its children are unsafe.
    """
    hi = len(marks)
    width = int(offsets[-1][-1]) if offsets else hi
    unsafe = marks[hi - width:]
    hi -= width
    for off in reversed(offsets):
        below = np.empty(len(unsafe) + 1, dtype=np.int64)
        below[0] = 0
        unsafe.cumsum(out=below[1:])
        width = len(off) - 1
        below = below[off]
        unsafe = marks[hi - width:hi] | (below[1:] - below[:-1] >= r)
        hi -= width
    return ~unsafe


@dataclass
class SampledTree:
    """One tree as ``_grow`` builds it, its vertices numbered breadth-first.

    ``offsets[i]`` is ``[0, cumsum(child counts of level i)]``: the
    children of the j-th vertex of level i are the vertices
    ``offsets[i][j]`` to ``offsets[i][j+1] - 1`` of level i+1.  The level
    after the last one in ``offsets`` holds leaves; a truncated tree's is
    empty.
    """

    offsets: list[np.ndarray]
    truncated: bool

    @property
    def level_sizes(self) -> list[int]:
        return [1] + [int(off[-1]) for off in self.offsets]

    @property
    def n_vertices(self) -> int:
        return sum(self.level_sizes)


def sample_tree(
    d: OffspringDistribution,
    n: int,
    budget: int = DEFAULT_BUDGET,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> SampledTree:
    """First n+1 levels of a Galton-Watson tree, child counts i.i.d. from d.

    Exceeding the vertex budget is not an error: generation stops, the
    vertices of the last generated level become leaves and the result
    carries ``truncated=True``.
    """
    if n < 0:
        raise PreconditionError("depth must be >= 0")
    if budget < 1:
        raise PreconditionError("budget must be >= 1")
    if rng is None:
        rng = replicate_rng(0 if seed is None else seed, 0)
    offsets, dropped = _grow(lambda i, w: d.sample(rng, w), n, budget, 1)
    return SampledTree(offsets, bool(dropped[0]))


def sample_marks(tree: SampledTree, p: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Bernoulli(p) initial-infection marks, one per vertex of the full tree.

    Drawn by ``_draw_marks`` for all N vertices at once: one byte of
    ceil(N/8) raw words per vertex in breadth-first order, then one uniform
    per vertex whose byte equals floor(256 p).  A Monte Carlo block draws
    its marks level by level, before the child counts, and grows only
    unmarked vertices (stream version 5), so it does not take the tree and
    marks that ``sample_tree`` and this function take from the same stream.
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must lie in [0, 1]")
    return _draw_marks(rng, tree.n_vertices, p)


def _check_threshold(r: int) -> None:
    """Raise ``PreconditionError`` unless r >= 1.

    r = 1 is accepted: a vertex with a single unsafe child is unsafe.  At
    r <= 0 every vertex would count as unsafe, so the threshold is refused.
    """
    if r < 1:
        raise PreconditionError("threshold r must be >= 1")


def run_bootstrap(tree: SampledTree, marks: np.ndarray, r: int) -> np.ndarray:
    """Final infected set of the update dynamics on the sampled tree.

    Child ranges and parents are read off ``tree.offsets`` here, not through
    ``_fort_pass``, so that the two oracles share no code past the tree.
    """
    _check_threshold(r)
    n_v = tree.n_vertices
    if len(marks) != n_v:
        raise PreconditionError("marks must cover all vertices")
    sizes = tree.level_sizes
    # first[v] .. first[v+1] - 1 are the children of vertex v; level i+1
    # starts at vertex sum(sizes[:i+1])
    first = np.concatenate([start + off[:-1] for start, off in zip(np.cumsum(sizes), tree.offsets)]
                           + [np.full(sizes[-1] + 1, n_v)])
    parent = [-1] + np.repeat(np.arange(n_v), np.diff(first)).tolist()
    first = first.tolist()
    infected = np.array(marks, dtype=bool)
    cnt = [0] * n_v
    stack = np.flatnonzero(infected).tolist()
    while stack:
        u = stack.pop()
        neigh = list(range(first[u], first[u + 1]))
        if parent[u] >= 0:
            neigh.append(parent[u])
        for v in neigh:
            if not infected[v]:
                cnt[v] += 1
                if cnt[v] >= r:
                    infected[v] = True
                    stack.append(v)
    return infected


def root_fort_status(tree: SampledTree, marks: np.ndarray, r: int) -> bool:
    """True iff the root stays healthy forever (lies in a healthy blocking set)."""
    _check_threshold(r)
    if len(marks) != tree.n_vertices:
        raise PreconditionError("marks must cover all vertices")
    return bool(_fort_pass(tree.offsets, np.asarray(marks, dtype=bool), r)[0])


@dataclass(frozen=True, slots=True)
class SimEstimate:
    """Monte Carlo estimate of the root-survival probability q_n.

    ``truncated`` counts the replicates whose grown vertices (the root and
    the children of unmarked vertices) passed the node budget; they are
    left out of ``effective`` and of the estimate.
    """

    estimate: float
    se: float
    replicates: int
    effective: int
    truncated: int
    seed: int
    p: float
    n: int
    r: int
    stream_version: int = STREAM_VERSION

    def as_dict(self) -> dict:
        return asdict(self)


def _grow_marked(d: OffspringDistribution, p: float, n: int, budget: int, roots: int,
                 rng: np.random.Generator) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """A forest of ``roots`` trees grown marks first, in stream version 5.

    Each level's marks are drawn before its child counts, and only its
    unmarked vertices draw one; a marked vertex keeps no children.  Returns
    ``(offsets, marks, dropped)`` as ``_grow`` builds them, with the marks of
    every grown vertex in breadth-first order; the budget bounds the grown
    vertices of each tree.  Once every tree is dropped nothing more is drawn
    and ``marks`` stops at the last level drawn.
    """
    marks: list[np.ndarray] = []

    def draw(i: int, width: int) -> np.ndarray:
        level = _draw_marks(rng, width, p)
        marks.append(level)
        grown = width - int(np.count_nonzero(level))
        if grown == width:
            return d.sample(rng, width)
        c = np.zeros(width, dtype=np.int64)
        c[~level] = d.sample(rng, grown)
        return c

    offsets, dropped = _grow(draw, n, budget, roots)
    if not dropped.all():  # growth reached depth n: the marks of its leaves
        marks.append(_draw_marks(rng, int(offsets[-1][-1]) if offsets else roots, p))
    return offsets, np.concatenate(marks), dropped


def _simulate_block(d: OffspringDistribution, r: int, p: float, n: int, budget: int,
                    roots: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Root-survival and budget-drop flags of ``roots`` replicates.

    The forest is grown by ``_grow_marked`` and decided by one fort pass.  A
    dropped replicate's survival flag is False.
    """
    offsets, marks, dropped = _grow_marked(d, p, n, budget, roots, rng)
    if dropped.all():
        return np.zeros(roots, dtype=bool), dropped
    return _fort_pass(offsets, marks, r) & ~dropped, dropped


def check_estimate_args(r: int, p: float, n: int, replicates: int, budget: int) -> None:
    """Raise ``PreconditionError`` unless ``estimate_qn`` can take these arguments."""
    _check_threshold(r)
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must lie in [0, 1]")
    if replicates < 1:
        raise PreconditionError("need at least one replicate")
    if n < 0:
        raise PreconditionError("depth must be >= 0")
    if budget < 1:
        raise PreconditionError("budget must be >= 1")


def estimate_qn(
    d: OffspringDistribution,
    r: int,
    p: float,
    n: int,
    replicates: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> SimEstimate:
    """Mean of the root-survival indicator over independent (tree, mark) pairs.

    Deterministic given (seed, replicates): block j of ``block_size``
    replicates consumes only its own Philox stream, and the reduction is a
    sum of integers.  Replicates whose grown vertices pass the budget are
    excluded from the estimate and counted in ``truncated``.
    """
    check_estimate_args(r, p, n, replicates, budget)
    block = block_size(d, n, p, budget)
    safe_count = 0
    truncated = 0
    for j, start in enumerate(range(0, replicates, block)):
        safe, dropped = _simulate_block(d, r, p, n, budget, min(block, replicates - start),
                                        replicate_rng(seed, j))
        safe_count += int(np.count_nonzero(safe))
        truncated += int(np.count_nonzero(dropped))
    effective = replicates - truncated
    if effective == 0:
        raise PreconditionError("every replicate exceeded the node budget")
    qhat = safe_count / effective
    se = math.sqrt(qhat * (1.0 - qhat) / effective)
    return SimEstimate(
        estimate=qhat, se=se, replicates=replicates, effective=effective,
        truncated=truncated, seed=seed, p=p, n=n, r=r,
    )
