"""Tree sampling, bootstrap dynamics, and Monte Carlo estimation."""

import math

import numpy as np
import pytest

import gwboot as gw
from gwboot.critical import q_iterate
from gwboot.offspring import PreconditionError, make_distribution
from gwboot.simulate import (
    STREAM_VERSION,
    SampledTree,
    block_size,
    estimate_qn,
    expected_tree_size,
    replicate_rng,
    root_fort_status,
    run_bootstrap,
    sample_marks,
    sample_tree,
    _draw_marks,
    _grow_marked,
    _simulate_block,
)

MIXED = [
    "regular:b=2",
    "regular:b=3",
    "geometric:b=3",
    "twopoint:b=3,a=5",
    "pmf:1=0.3,2=0.4,5=0.3",
    "heavy:r=2",
]


def test_sample_tree_regular_is_deterministic_shape():
    t = sample_tree(make_distribution("regular:b=3"), 2, seed=5)
    assert t.n_vertices == 13  # 1 + 3 + 9
    assert not t.truncated
    assert t.level_sizes == [1, 3, 9]
    # two levels of offsets: the truncation boundary keeps no children
    assert [list(off) for off in t.offsets] == [[0, 3], [0, 3, 6, 9]]


def test_sample_tree_depth_zero():
    t = sample_tree(make_distribution("geometric:b=4"), 0, seed=1)
    assert t.n_vertices == 1
    assert t.offsets == []


def test_sample_tree_replay_identical():
    d = make_distribution("twopoint:b=4,a=9")
    t1 = sample_tree(d, 3, seed=99)
    t2 = sample_tree(d, 3, seed=99)
    assert all(np.array_equal(a, b) for a, b in zip(t1.offsets, t2.offsets, strict=True))
    t3 = sample_tree(d, 3, seed=100)
    assert not all(np.array_equal(a, b) for a, b in zip(t1.offsets, t3.offsets, strict=True))


def test_sample_tree_budget_flag():
    t = sample_tree(make_distribution("regular:b=3"), 10, budget=50, seed=0)
    assert t.truncated
    assert t.n_vertices <= 50
    assert t.level_sizes == [1, 3, 9, 27, 0]  # the level that went over keeps no children


def test_bootstrap_reads_children_and_parents_from_offsets():
    # vertices 3 and 4 are the children of vertex 1, 5 and 6 of vertex 2
    t = sample_tree(make_distribution("regular:b=2"), 2, seed=0)
    marks = np.zeros(t.n_vertices, dtype=bool)
    marks[[3, 4]] = True
    out = run_bootstrap(t, marks, 2)
    assert out[1]
    assert not out[0] and not out[2]
    assert not out[5:].any()


def test_bootstrap_all_infected_stays():
    t = sample_tree(make_distribution("regular:b=3"), 3, seed=2)
    out = run_bootstrap(t, np.ones(t.n_vertices, dtype=bool), 2)
    assert out.all()


def test_bootstrap_none_infected_stays():
    t = sample_tree(make_distribution("regular:b=3"), 3, seed=2)
    out = run_bootstrap(t, np.zeros(t.n_vertices, dtype=bool), 2)
    assert not out.any()


def test_bootstrap_star_root():
    # root with children only; two infected children infect the root at r=2
    t = sample_tree(make_distribution("regular:b=4"), 1, seed=0)
    marks = np.zeros(t.n_vertices, dtype=bool)
    marks[1] = marks[2] = True
    out = run_bootstrap(t, marks, 2)
    assert out[0]
    assert not out[3] and not out[4]  # leaves with one infected neighbour stay healthy


def test_fort_root_infected_is_unsafe():
    t = sample_tree(make_distribution("regular:b=3"), 2, seed=3)
    marks = np.zeros(t.n_vertices, dtype=bool)
    marks[0] = True
    assert not root_fort_status(t, marks, 2)


def test_fort_all_healthy_is_safe():
    t = sample_tree(make_distribution("geometric:b=3"), 3, seed=3)
    marks = np.zeros(t.n_vertices, dtype=bool)
    assert root_fort_status(t, marks, 2)


def test_dual_oracle_small_batch():
    rng = np.random.default_rng(2024)
    checked = 0
    for i in range(800):
        d = make_distribution(MIXED[i % len(MIXED)])
        t = sample_tree(d, int(rng.integers(0, 6)), budget=2500,
                        seed=int(rng.integers(2**62)))
        p = float(rng.uniform(0.05, 0.7))
        marks = sample_marks(t, p, rng)
        r = int(rng.integers(2, 4))
        closure = run_bootstrap(t, marks, r)
        assert bool(closure[0]) == (not root_fort_status(t, marks, r))
        checked += 1
    assert checked == 800


@pytest.mark.parametrize("spec", MIXED)
def test_single_tree_api_equals_a_one_root_block(spec):
    # the tree and marks a one-root block grew, taken as a SampledTree, give
    # the block's root outcome under run_bootstrap; the block grew no child
    # under a marked vertex, and dropped the tree iff its grown vertices
    # passed the budget
    d = make_distribution(spec)
    seen_truncated = seen_pruned = False
    for seed in (3, 2024, 2**64 + 5):
        for j, n, p, r, budget in ((0, 0, 0.3, 2, 10), (1, 3, 0.2, 2, 10**4), (2, 4, 0.1, 3, 20),
                                   (7, 5, 0.05, 1, 10**4), (9, 2, 0.5, 2, 10**4)):
            law = _Recorder(d)
            offsets, marks, dropped = _grow_marked(law, p, n, budget, 1, replicate_rng(seed, j))
            safe, block_dropped = _simulate_block(d, r, p, n, budget, 1, replicate_rng(seed, j))
            assert list(block_dropped) == list(dropped)
            grown = 1 + sum(int(c.sum()) for c in law.draws)
            assert bool(dropped[0]) == (grown > budget)
            if dropped[0]:
                assert not safe[0]
                seen_truncated = True
                continue
            tree = SampledTree(offsets, False)
            assert len(tree.level_sizes) == n + 1 and len(marks) == tree.n_vertices == grown
            lo = 0
            for off in offsets:
                level = marks[lo:lo + len(off) - 1]
                assert not np.diff(off)[level].any()
                seen_pruned |= bool(level.any() and off[-1])
                lo += len(off) - 1
            assert bool(safe[0]) == (not run_bootstrap(tree, marks, r)[0])
            assert bool(safe[0]) == root_fort_status(tree, marks, r)
    assert seen_truncated and seen_pruned


def test_estimate_qn_edge_probabilities():
    d = make_distribution("regular:b=3")
    est0 = estimate_qn(d, 2, 0.0, 4, 500, seed=7)
    assert est0.estimate == 1.0 and est0.se == 0.0
    est1 = estimate_qn(d, 2, 1.0, 4, 500, seed=7)
    assert est1.estimate == 0.0


def test_estimate_qn_matches_recursion_within_3se():
    d = make_distribution("regular:b=3")
    want = q_iterate(d, 2, 0.2, 5).q_n
    est = estimate_qn(d, 2, 0.2, 5, 30_000, seed=12345)
    assert abs(est.estimate - want) <= 3 * est.se


def test_estimate_qn_deterministic_replay():
    d = make_distribution("geometric:b=3")
    a = estimate_qn(d, 2, 0.15, 4, 3000, seed=99)
    b = estimate_qn(d, 2, 0.15, 4, 3000, seed=99)
    assert a == b
    c = estimate_qn(d, 2, 0.15, 4, 3000, seed=98)
    assert a.estimate != c.estimate or a.seed != c.seed


def test_estimate_order_insensitive():
    # block outcomes depend only on (seed, block index); any scheduling
    # order of the blocks produces the same integer sum
    d = make_distribution("twopoint:b=3,a=5")
    reps, budget = 4500, 10**7
    size = block_size(d, 4, 0.3, budget)
    starts = range(0, reps, size)
    assert len(starts) == 3 and reps % size  # two full blocks and a remainder
    perm = np.random.default_rng(0).permutation(len(starts))
    safe_count = 0
    for j in perm:
        j = int(j)
        roots = min(size, reps - starts[j])
        safe, dropped = _simulate_block(d, 2, 0.3, 4, budget, roots, replicate_rng(4242, j))
        assert len(safe) == roots and not dropped.any()
        safe_count += int(np.count_nonzero(safe))
    est = estimate_qn(d, 2, 0.3, 4, reps, seed=4242, budget=budget)
    assert safe_count == round(est.estimate * reps)
    assert safe_count / reps == est.estimate


class _Recorder:
    """Offspring law that keeps a copy of every draw of child counts."""

    def __init__(self, d):
        self.d = d
        self.draws = []

    def sample(self, rng, size):
        c = self.d.sample(rng, size)
        self.draws.append(c.copy())
        return c


def _tree_alone(level_counts):
    """SampledTree from one tree's child counts per level, leaves last."""
    assert not level_counts[-1].any()
    return SampledTree(offsets=[np.concatenate([[0], np.cumsum(c)]) for c in level_counts[:-1]],
                       truncated=False)


def _replay_marks(stream, size, p):
    """Marks of ``size`` vertices as stream versions 3 to 5 draw them, spelled
    out: ceil(size/8) raw 64-bit words, each cut into bytes from the least
    significant up, one byte U per vertex; with t = floor(256 p) a vertex is
    marked iff U < t, and each vertex with U == t, in order, takes one
    uniform V and is marked iff V < 256 p - t."""
    words = stream.bit_generator.random_raw(-(-size // 8))
    u = [(int(w) >> (8 * i)) & 0xFF for w in words for i in range(8)][:size]
    t = math.floor(256 * p)
    marks = [b < t for b in u]
    ties = [i for i, b in enumerate(u) if b == t]
    for i, v in zip(ties, stream.random(len(ties))):
        marks[i] = bool(v < 256 * p - t)
    return np.array(marks, dtype=bool)


def _replay_block(d, stream, roots, n, p, budget):
    """Per-tree level counts and marks, drop flags and count draws of a block,
    spelled out from stream version 5.

    For each level i = 0..n: the marks of the level's vertices, tree by tree
    (``_replay_marks``); then, for i < n, one child count per unmarked
    vertex in the same order, from one ``d.sample`` of their number; a
    marked vertex has no children.  Tree t's level-i vertices are a
    contiguous run of level i.  A tree whose vertex total passes the budget
    keeps the level that did it as leaves and has no vertices below; a kept
    tree ends in a level of leaves.  Nothing is drawn once every tree is
    dropped.
    """
    counts = [[] for _ in range(roots)]
    marks = [[] for _ in range(roots)]
    dropped = [False] * roots
    totals = [1] * roots
    widths = [1] * roots
    draws = []
    for i in range(n + 1):
        if all(dropped):
            break
        level = _replay_marks(stream, sum(widths), p)
        if i < n:
            draws.append(d.sample(stream, len(level) - int(level.sum())))
            born = iter(draws[-1].tolist())
            level_counts = np.array([0 if mark else next(born) for mark in level], dtype=np.int64)
        lo = 0
        for t in range(roots):
            if dropped[t]:
                continue
            w = widths[t]
            marks[t].append(level[lo:lo + w])
            c = level_counts[lo:lo + w] if i < n else np.zeros(w, dtype=np.int64)
            lo += w
            totals[t] += int(c.sum())
            if totals[t] > budget:
                dropped[t] = True
                c = np.zeros_like(c)
            counts[t].append(c)
            widths[t] = int(c.sum())
    return counts, marks, dropped, draws


@pytest.mark.parametrize("spec", MIXED)
def test_forest_matches_per_tree_oracles(spec):
    # replaying the spelled-out stream version 5, every tree of a block, taken
    # out and built alone, must get the same root outcome from run_bootstrap
    # and the same truncation flag from the per-tree budget rule as the forest
    # gave it, and the block must read the same draws and stop where the
    # replay stops
    d = make_distribution(spec)
    rng = np.random.default_rng(7)
    budget = 60 if spec.startswith("heavy") else 200
    seen = set()
    for n in range(6):
        for p in (0.0, 1.0, float(rng.uniform(0.05, 0.6))):
            r = int(rng.integers(2, 4))
            roots = int(rng.integers(2, 40))
            seed = int(rng.integers(2**62))
            law = _Recorder(d)
            block_rng = replicate_rng(seed, 3)
            safe, dropped = _simulate_block(law, r, p, n, budget, roots, block_rng)
            replay = replicate_rng(seed, 3)
            trees, own, want_dropped, draws = _replay_block(d, replay, roots, n, p, budget)
            assert list(dropped) == want_dropped
            assert len(law.draws) == len(draws)
            assert all(np.array_equal(a, b) for a, b in zip(law.draws, draws))
            assert np.array_equal(block_rng.bit_generator.random_raw(4),
                                  replay.bit_generator.random_raw(4))
            for t, tree in enumerate(trees):
                if want_dropped[t]:
                    assert not safe[t]
                    continue
                alone = _tree_alone(tree)
                assert alone.level_sizes == [len(c) for c in tree] and len(tree) == n + 1
                marks = np.concatenate(own[t])
                closure = run_bootstrap(alone, marks, r)
                assert bool(safe[t]) == (not closure[0])
                seen.add(bool(safe[t]))
                if any(m.any() for m in own[t][:-1]) and n:
                    seen.add("pruned")
    assert {"pruned", True, False} <= seen


def _prune(tree, marks):
    """The tree without the subtrees of its marked vertices, and its marks."""
    keep = np.ones(1, dtype=bool)  # which vertices of the level are in the pruned tree
    lo = 0
    offsets, kept_marks = [], []
    for off in tree.offsets:
        level = marks[lo:lo + len(keep)]
        lo += len(keep)
        c = np.diff(off)
        grows = keep & ~level
        offsets.append(np.concatenate([[0], np.cumsum(c[keep] * grows[keep])]))
        kept_marks.append(level[keep])
        keep = np.repeat(grows, c)
    kept_marks.append(marks[lo:lo + len(keep)][keep])
    assert lo + len(keep) == len(marks)
    return SampledTree(offsets, tree.truncated), np.concatenate(kept_marks)


@pytest.mark.parametrize("spec", MIXED)
def test_pruning_marked_subtrees_keeps_the_root_outcome(spec):
    # a marked vertex is infected whatever lies below it, so dropping its
    # subtree from a full tree changes neither oracle's verdict on the root;
    # this is what lets a Monte Carlo block grow only unmarked vertices
    d = make_distribution(spec)
    rng = np.random.default_rng(36)
    smaller = 0
    for i in range(60):
        tree = sample_tree(d, int(rng.integers(0, 6)), budget=2000, seed=int(rng.integers(2**62)))
        p = (0.0, 1.0, float(rng.uniform(0.05, 0.7)))[i % 3]
        marks = sample_marks(tree, p, rng)
        pruned, pruned_marks = _prune(tree, marks)
        assert len(pruned_marks) == pruned.n_vertices <= tree.n_vertices
        smaller += pruned.n_vertices < tree.n_vertices
        for r in (1, 2, 3):
            full = root_fort_status(tree, marks, r)
            assert root_fort_status(pruned, pruned_marks, r) == full
            assert bool(run_bootstrap(tree, marks, r)[0]) == (not full)
            assert bool(run_bootstrap(pruned, pruned_marks, r)[0]) == (not full)
    assert smaller


@pytest.mark.parametrize("p", [0.0, 1.0, 0.5, 0.1072, 27 / 256, np.nextafter(27 / 256, 0),
                               np.nextafter(0.0, 1), np.nextafter(1.0, 0)])
def test_sample_marks_follows_the_spelled_out_stream(p):
    # same marks and same draws consumed as the spelled-out mark layout of
    # stream versions 3 to 5
    tree = sample_tree(make_distribution("geometric:b=3"), 5, seed=8)
    assert tree.n_vertices % 8  # a part word at the end
    for j in range(4):
        rng, replay = replicate_rng(31, j), replicate_rng(31, j)
        assert np.array_equal(sample_marks(tree, float(p), rng),
                              _replay_marks(replay, tree.n_vertices, p))
        assert np.array_equal(rng.bit_generator.random_raw(3), replay.bit_generator.random_raw(3))


@pytest.mark.parametrize("p", [0.0, 1.0, 1 / 256, np.nextafter(1 / 256, 0), 27 / 256,
                               np.nextafter(27 / 256, 0), np.nextafter(27 / 256, 1), 0.5, 0.1072,
                               np.nextafter(1.0, 0)])
def test_mark_frequency_is_p(p):
    # 2^24 marks: t/256 - 1 ulp is marked 1/256 more often through ties than
    # its byte threshold alone gives, about 40 standard errors
    p = float(p)
    size = 1 << 24
    hits = int(np.count_nonzero(_draw_marks(replicate_rng(2026, 1), size, p)))
    if p in (0.0, 1.0):
        assert hits == p * size
        return
    z = (hits - p * size) / math.sqrt(size * p * (1.0 - p))
    assert abs(z) <= 4.0, (p, hits, z)


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**62 + 7, 2**63, 2**64 - 1, 2**64 + 3, 2**128 - 1])
def test_replicate_rng_is_philox_keyed_by_seed_and_block(seed):
    for j in (0, 1, 3, 2**40):
        want = np.random.Philox(key=seed, counter=[0, 0, 0, j]).random_raw(9)
        assert np.array_equal(replicate_rng(seed, j).bit_generator.random_raw(9), want)
        assert np.array_equal(replicate_rng(np.uint64(seed % 2**64), j).bit_generator.random_raw(9),
                              np.random.Philox(key=seed % 2**64, counter=[0, 0, 0, j]).random_raw(9))


def test_a_uniform_is_the_top_53_bits_of_one_word():
    # stream versions 4 and 5 read one word per child count on every law: the
    # heavy body's uniform, Generator.random, is (W >> 11) 2^-53 of one raw word W
    u = replicate_rng(2024, 3).random(1000)
    w = replicate_rng(2024, 3).bit_generator.random_raw(1000)
    assert np.array_equal(u, (w >> np.uint64(11)).astype(float) * 2.0**-53)


def test_replicate_rng_rejects_seeds_outside_the_key_range():
    for seed in (-1, 2**128):
        with pytest.raises(PreconditionError):
            replicate_rng(seed, 0)


# seeded calls at seed 2024, stream version 5: (spec, r, p, n, replicates, budget,
# block size, surviving roots, truncated replicates).  They cover the alias
# tables of the shifted geometric and Poisson laws and of the finite laws
# (two-point, explicit pmf) and the heavy-body sampler (heavy, under a budget
# that truncates, and pruned).  Version 4 read 676, 102, 333, 744, 54 and 82
# surviving roots and truncated 86 heavy replicates; the block sizes grew
# because a block now counts only the vertices it grows
STREAM_GOLDENS = [
    ("geometric:b=3", 2, 0.15, 4, 1000, 10**7, 950, 688, 0),
    ("poisson:b=4", 2, 0.2, 4, 1000, 10**7, 430, 117, 0),
    ("twopoint:b=4,a=9", 2, 0.25, 4, 1000, 10**7, 541, 320, 0),
    ("pmf:3=0.25,4=0.5,6=0.25", 3, 0.2, 4, 1000, 10**7, 346, 721, 0),
    ("heavy:r=2", 2, 0.3, 4, 300, 2000, 32, 51, 23),
    ("pruned:r=2,b=4", 2, 0.3, 3, 300, 10**7, 1950, 79, 0),
]


@pytest.mark.parametrize("spec, r, p, n, reps, budget, block, safe, truncated", STREAM_GOLDENS,
                         ids=[g[0] for g in STREAM_GOLDENS])
def test_estimate_qn_stream_golden(spec, r, p, n, reps, budget, block, safe, truncated):
    # pins the stream layout: a change to how replicates draw from their
    # streams must fail here until STREAM_VERSION is bumped
    d = make_distribution(spec)
    assert STREAM_VERSION == 5
    assert block_size(d, n, p, budget) == block
    est = estimate_qn(d, r, p, n, reps, seed=2024, budget=budget)
    assert est.stream_version == STREAM_VERSION
    assert est.as_dict()["stream_version"] == STREAM_VERSION
    assert (round(est.estimate * est.effective), est.truncated) == (safe, truncated)


def test_expected_tree_size_and_block_size():
    # the expected grown vertices sum ((1-p) m)^i over levels 0..n; p = 0 is the full tree
    assert expected_tree_size(make_distribution("regular:b=3"), 4, 0.0) == 121.0
    assert expected_tree_size(make_distribution("regular:b=4"), 4, 0.5) == 31.0
    assert expected_tree_size(make_distribution("regular:b=4"), 4, 1.0) == 1.0
    assert expected_tree_size(make_distribution("regular:b=2"), 0, 0.5) == 1.0
    assert expected_tree_size(make_distribution("heavy:r=2"), 3, 0.0) == float("inf")
    assert expected_tree_size(make_distribution("heavy:r=2"), 3, 0.5) == float("inf")
    assert expected_tree_size(make_distribution("heavy:r=2"), 3, 1.0) == 1.0
    assert expected_tree_size(make_distribution("regular:b=9"), 400, 0.0) == float("inf")
    assert block_size(make_distribution("regular:b=3"), 4, 0.0, 10**7) == 2**16 // 121
    assert block_size(make_distribution("regular:b=4"), 4, 0.5, 10**7) == 2**16 // 31
    assert block_size(make_distribution("regular:b=3"), 4, 0.0, 100) == 2**16 // 100
    assert block_size(make_distribution("heavy:r=2"), 3, 0.1, 300) == 2**16 // 300
    assert block_size(make_distribution("heavy:r=2"), 3, 0.1, 10**7) == 1
    assert block_size(make_distribution("regular:b=3"), 10, 0.0, 10**7) == 1
    # mc-large's first row: 29,437 expected grown vertices against 88,573
    assert block_size(make_distribution("regular:b=3"), 10, 0.11, 10**7) == 2


def test_estimate_qn_truncation_reported():
    d = make_distribution("heavy:r=2")
    est = estimate_qn(d, 2, 0.5, 4, 300, seed=11, budget=300)
    assert est.truncated > 0
    assert est.effective == est.replicates - est.truncated
    assert est.effective > 0
    assert 0.0 <= est.estimate <= 1.0


def test_monotone_in_p_with_common_randomness():
    # shared uniforms, thresholded at increasing p: per-tree survival shrinks
    d = make_distribution("geometric:b=3")
    rng = np.random.default_rng(31)
    for _ in range(50):
        t = sample_tree(d, 4, seed=int(rng.integers(2**62)))
        u = rng.random(t.n_vertices)
        prev = True
        for p in (0.05, 0.15, 0.3, 0.5, 0.8):
            cur = root_fort_status(t, u < p, 2)
            assert not (cur and not prev)  # survival can only switch off
            prev = cur


def test_estimate_qn_rejects_bad_input():
    d = make_distribution("regular:b=3")
    with pytest.raises(PreconditionError):
        estimate_qn(d, 2, 1.5, 3, 10, seed=0)
    with pytest.raises(PreconditionError):
        estimate_qn(d, 2, 0.5, 3, 0, seed=0)
    with pytest.raises(PreconditionError):
        estimate_qn(d, 2, 0.5, -1, 10, seed=0)
    with pytest.raises(PreconditionError):
        estimate_qn(d, 2, 0.5, 3, 10, seed=0, budget=0)
    for r in (0, -1):  # every vertex would count as unsafe
        with pytest.raises(PreconditionError):
            estimate_qn(d, r, 0.5, 3, 10, seed=0)
    assert estimate_qn(d, 1, 0.5, 3, 10, seed=0).r == 1


def test_single_tree_oracles_refuse_r_below_one():
    # at r = 0 the fort pass would call every vertex unsafe while the
    # dynamics infect nothing; both refuse it as estimate_qn does
    t = sample_tree(make_distribution("regular:b=3"), 3, seed=0)
    marks = np.zeros(t.n_vertices, dtype=bool)
    for r in (0, -1):
        with pytest.raises(PreconditionError):
            run_bootstrap(t, marks, r)
        with pytest.raises(PreconditionError):
            root_fort_status(t, marks, r)
    marks[4] = True  # a child of vertex 1
    assert list(np.flatnonzero(run_bootstrap(t, marks, 1))) == list(range(t.n_vertices))
    assert not root_fort_status(t, marks, 1)


def _tree():
    return sample_tree(make_distribution("regular:b=2"), 2, seed=1)


@pytest.mark.parametrize("call", [
    lambda: sample_tree(make_distribution("regular:b=2"), -1),
    lambda: sample_tree(make_distribution("regular:b=2"), 2, budget=0),
    lambda: sample_marks(_tree(), 1.5, np.random.default_rng(1)),
    lambda: run_bootstrap(_tree(), np.zeros(3, dtype=bool), 2),
    lambda: root_fort_status(_tree(), np.zeros(3, dtype=bool), 2),
], ids=["sample_tree-n", "sample_tree-budget", "sample_marks-p", "run_bootstrap-marks",
        "root_fort_status-marks"])
def test_outside_input_is_refused(call):
    with pytest.raises(PreconditionError):
        call()
