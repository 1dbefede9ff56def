"""Workload definitions of the gwboot benchmark.

A workload is a list of items, each one public gwboot call (or one CLI
process), built by ``setup`` from the workload seed.  A pass runs every
item once; the harness repeats passes for the measured time and checks
every result afterwards.  Each workload records why it was chosen.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from gwboot import bounds, cli, critical, offspring, simulate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def derive_seed(*keys: int) -> int:
    """63-bit seed for one call, a pure function of the workload seed and keys."""
    state = np.random.SeedSequence([int(k) for k in keys]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def jitter(rng: np.random.Generator, value: float, spread: float) -> float:
    """value * exp(U(-spread, spread)): inputs move with the seed, cost does not."""
    return value * math.exp(rng.uniform(-spread, spread))


@dataclass
class Item:
    label: str
    args: tuple
    ops: int = 1  # operations one call performs (replicates for Monte Carlo)


@dataclass
class Workload:
    name: str
    why: str
    items: list[Item] = field(default_factory=list)

    def setup(self, seed: int) -> None:
        """Build inputs and warm every family up; everything before timing."""
        raise NotImplementedError

    def run(self, i: int, pass_no: int):
        """Call item ``i``; ``pass_no`` only feeds the per-call seeds."""
        raise NotImplementedError

    def failed(self, i: int, results: list) -> int:
        """Number of results of item ``i`` that fail the correctness check."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Monte Carlo

# acceptance criterion 10: (spec, r, p, n), a few hundred vertices per tree
MC_SMALL_CONFIGS = [
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
MC_SMALL_REPS = 100

# (spec, r, p, n, budget): 5e4 to 1e5 vertices per tree; the heavy tail
# exceeds its budget in a few percent of replicates
MC_LARGE_CONFIGS = [
    ("regular:b=3", 2, 0.11, 10, simulate.DEFAULT_BUDGET),
    ("regular:b=4", 2, 0.075, 8, simulate.DEFAULT_BUDGET),
    ("poisson:b=6", 2, 0.03, 6, simulate.DEFAULT_BUDGET),
    ("geometric:b=4", 2, 0.07, 8, simulate.DEFAULT_BUDGET),
    ("heavy:r=2", 2, 0.1, 4, 200_000),
]
MC_LARGE_REPS = 20

Z_FAIL = 5.0


class MonteCarlo(Workload):
    """estimate_qn per config; item args are (dist, r, p, n, budget)."""

    def __init__(self, name, why, configs, reps, p_jitter):
        super().__init__(name, why)
        self.configs = configs
        self.reps = reps
        self.p_jitter = p_jitter
        self.seed = 0

    def setup(self, seed):
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, 1))
        self.items = []
        for spec, r, p, n, *budget in self.configs:
            d = offspring.make_distribution(spec)
            p = jitter(rng, p, self.p_jitter) if self.p_jitter else p
            args = (d, r, p, n, budget[0] if budget else simulate.DEFAULT_BUDGET)
            self.items.append(Item(f"{spec} r={r} p={p:.4g} n={n}", args, ops=self.reps))
        families = set()
        for item in self.items:
            d, r, p, n, budget = item.args
            simulate.estimate_qn(d, r, p, n, 2, seed, budget=budget)
            if d.spec.family not in families:  # the reference path of the checks
                families.add(d.spec.family)
                critical.q_iterate(d, r, p, 1)

    def run(self, i, pass_no):
        d, r, p, n, budget = self.items[i].args
        seed = derive_seed(self.seed, 2, pass_no, i)
        return simulate.estimate_qn(d, r, p, n, self.reps, seed, budget=budget)

    def failed(self, i, results):
        d, r, p, n, _ = self.items[i].args
        want = critical.q_iterate(d, r, p, n).q_n
        bad = 0
        for est in results:
            # the estimate's own SE is 0 when all or no replicates survive,
            # so the SE under the reference value is the floor
            se = max(est.se, math.sqrt(want * (1.0 - want) / est.effective))
            slack = Z_FAIL * se + est.truncated / est.replicates
            bad += abs(est.estimate - want) > slack
        return bad

    def replay_identical(self) -> bool:
        """A seeded call repeated gives bit-identical counts."""
        return self.run(0, 0) == self.run(0, 0)


# ---------------------------------------------------------------------------
# analytic


def analytic_pairs(seed: int) -> list[tuple[str, int]]:
    """101 (law, r) pairs of all seven families, in an order drawn from the seed.

    Criterion 8's grid, thinned to even b for the regular law, odd b for the
    geometric and pruned laws and every other a for the two-point law, plus
    heavy tails at r = 2..4 and four explicit pmfs drawn from the seed.  The
    thinning keeps a pass to a few seconds, so every pair is timed more
    than once per run, and leaves the cheap laws (regular, heavy, pruned) a third of
    the pairs, so the median pair lies well inside the costlier cluster.
    """
    pairs = []
    for b in range(2, 21, 2):
        for r in range(2, min(b, 4) + 1):
            pairs.append((f"regular:b={b}", r))
    pairs += [(f"poisson:b={b}", 2) for b in range(3, 21)]
    pairs += [(f"geometric:b={b}", 2) for b in range(3, 21, 2)]
    for b in range(3, 9):
        pairs += [(f"twopoint:b={b},a={a}", 2) for a in range(b + 1, 3 * b + 1, 2)]
    pairs += [(f"pruned:r=2,b={b}", 2) for b in range(15, 26, 2)]
    pairs += [(f"heavy:r={r}", r) for r in (2, 3, 4)]
    rng = np.random.default_rng(derive_seed(seed, 3))
    for r in (2, 2, 3, 3):
        ks = np.sort(rng.choice(np.arange(r, r + 8), size=3, replace=False))
        w = rng.integers(1, 10, size=3)
        ps = [float(x) for x in w / w.sum()]
        pairs.append(("pmf:" + ",".join(f"{k}={q!r}" for k, q in zip(ks, ps)), r))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def _warm_families(pairs) -> None:
    """One pc_exact per family: pays lazy imports and first-call costs."""
    seen = set()
    for spec, r in pairs:
        d = offspring.make_distribution(spec)
        if d.spec.family not in seen:
            seen.add(d.spec.family)
            critical.pc_exact(d, r)


class AnalyticPc(Workload):
    """make_distribution + pc_exact per (law, r); item args are (spec, r)."""

    def setup(self, seed):
        pairs = analytic_pairs(seed)
        _warm_families(pairs)
        self.items = [Item(f"{s} r={r}", (s, r)) for s, r in pairs]

    def run(self, i, pass_no):
        spec, r = self.items[i].args
        return critical.pc_exact(offspring.make_distribution(spec), r)

    def failed(self, i, results):
        spec, r = self.items[i].args
        closed = critical.pc_closed_form(offspring.parse_spec(spec), r)
        bad = 0
        for res in results:
            out_of_range = not 0.0 <= res.pc <= 1.0
            off_closed = closed is not None and abs(res.pc - closed.pc) > res.err + cli.CONSISTENCY_TOL
            bad += out_of_range or off_closed
        return bad


class AnalyticBounds(Workload):
    """bounds_report per (law, r); item args are (dist, r)."""

    def setup(self, seed):
        pairs = analytic_pairs(seed)
        _warm_families(pairs)
        self.items = [Item(f"{s} r={r}", (offspring.make_distribution(s), r)) for s, r in pairs]

    def run(self, i, pass_no):
        d, r = self.items[i].args
        return bounds.bounds_report(d, r)

    def failed(self, i, results):
        return sum(bool(bounds.sandwich_violations(rep)) for rep in results)


QLIMIT_LAWS = [
    ("regular:b=3", 2), ("regular:b=4", 3), ("regular:b=8", 2),
    ("poisson:b=4", 2), ("poisson:b=8", 2),
    ("geometric:b=3", 2), ("geometric:b=5", 2), ("geometric:b=8", 2),
]
# p / p_c; 0.999 and 1.001 are kept exact, the others move with the seed
QLIMIT_RATIOS = [0.5, 0.7, 0.85, 0.95, 0.999, 1.001, 1.05, 1.2, 1.5, 2.0]
# two-point laws with a >= 2b - 1 have x* = 0: p stays >= 1% away from p_c
QLIMIT_TWOPOINT = ["twopoint:b=4,a=9", "twopoint:b=3,a=6"]
QLIMIT_TWOPOINT_RATIOS = [0.5, 0.8, 0.95, 0.98, 1.02, 1.05, 1.25, 2.0]
# pruned:r=2,b=20 has p_c ~ 4e-9: every p in [0.005, 0.2] is supercritical
QLIMIT_PRUNED = "pruned:r=2,b=20"
QLIMIT_PRUNED_PS = list(np.geomspace(0.005, 0.2, 10))
# known defect: q_limit runs into its iteration cap here (traced runs only)
QLIMIT_CAPPED_P = 1e-5
QLIMIT_CAPPED_ROW = f"{QLIMIT_PRUNED} r=2 p={QLIMIT_CAPPED_P}"
QLIMIT_SMALL = 1e-6


class AnalyticQlimit(Workload):
    """q_limit per (law, r, p); item args are (dist, r, p, p_c)."""

    def setup(self, seed):
        rng = np.random.default_rng(derive_seed(seed, 4))
        rows = []
        for spec, r in QLIMIT_LAWS:
            rows += [(spec, r, ratio) for ratio in QLIMIT_RATIOS]
        rows += [(spec, 2, ratio) for spec in QLIMIT_TWOPOINT for ratio in QLIMIT_TWOPOINT_RATIOS]
        self.items = []
        pcs = {}
        for spec, r, ratio in rows:
            if (spec, r) not in pcs:
                d = offspring.make_distribution(spec)
                pcs[spec, r] = (d, critical.pc_exact(d, r).pc)
            d, pc = pcs[spec, r]
            if ratio not in (0.999, 1.001):
                ratio = 1.0 + jitter(rng, ratio - 1.0, 0.1)
            self.items.append(Item(f"{spec} r={r} p/pc={ratio:.4g}", (d, r, ratio * pc, pc)))
        d = offspring.make_distribution(QLIMIT_PRUNED)
        pc = critical.pc_exact(d, 2).pc
        for p in QLIMIT_PRUNED_PS:
            p = min(max(jitter(rng, float(p), 0.1), 0.005), 0.2)
            self.items.append(Item(f"{QLIMIT_PRUNED} r=2 p={p:.4g}", (d, 2, p, pc)))
        for (_, r), (d, pc) in pcs.items():
            critical.q_limit(d, r, 2.0 * pc)

    def run(self, i, pass_no):
        d, r, p, _ = self.items[i].args
        return critical.q_limit(d, r, p)

    def failed(self, i, results):
        _, _, p, pc = self.items[i].args
        bad = 0
        for res in results:
            right_side = res.value > QLIMIT_SMALL if p < pc else res.value < QLIMIT_SMALL
            bad += not (res.converged and right_side)
        return bad

    def capped_row(self) -> tuple[int, float]:
        """(cap hits, seconds) for the known-defect row; not a workload item."""
        d = offspring.make_distribution(QLIMIT_PRUNED)
        t0 = time.perf_counter()
        res = critical.q_limit(d, 2, QLIMIT_CAPPED_P)
        return int(not res.converged), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# cold CLI


@dataclass
class CliResult:
    returncode: int
    stdout: str
    maxrss_kb: int
    probe: dict | None  # timings reported by probe.py in traced runs


class CliCold(Workload):
    """One fresh interpreter per call; item args are the CLI argv."""

    def __init__(self, name, why):
        super().__init__(name, why)
        self.probe = False  # traced runs go through probe.py
        self.env = dict(os.environ)  # run.py put the checkout's src/ first on PYTHONPATH
        self.env.pop(cli.BUDGET_ENV, None)  # the in-process reference uses the default budget

    def setup(self, seed):
        rng = np.random.default_rng(derive_seed(seed, 5))
        b_reg = int(rng.integers(3, 7))
        b_poi = int(rng.integers(4, 9))
        p_sim = round(float(rng.uniform(0.05, 0.15)), 4)
        critical.pc_exact(offspring.make_distribution(f"regular:b={b_reg}"), 2)
        pc_poi = critical.pc_exact(offspring.make_distribution(f"poisson:b={b_poi}"), 2).pc
        # p / p_c = 0.5, 1.1, 1.7, 2.3: q_limit slows down sharply next to p_c
        lo, hi = round(0.5 * pc_poi, 6), round(2.3 * pc_poi, 6)
        argvs = [
            ["pc", "--dist", f"regular:b={b_reg}", "--r", "2"],
            ["bounds", "--dist", f"poisson:b={b_poi}", "--r", "2"],
            ["simulate", "--dist", f"regular:b={b_reg}", "--r", "2", "--p", repr(p_sim),
             "--n", "4", "--reps", "200", "--seed", str(derive_seed(seed, 6))],
            ["sweep", "--dist", f"poisson:b={b_poi}", "--r", "2",
             "--p-grid", f"{lo!r}:{hi!r}:{round((hi - lo) / 3, 6)!r}"],
        ]
        self.items = [Item(" ".join(a[:3]), tuple(a + ["--format", "json"])) for a in argvs]

    def run(self, i, pass_no):
        argv = self.items[i].args
        if self.probe:
            cmd = [sys.executable, os.path.join(HERE, "probe.py"), "cli", *argv]
        else:
            cmd = [sys.executable, "-m", "gwboot.cli", *argv]
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        # outputs are a few kB, far below the pipe buffer, so reading one
        # stream to its end cannot block the other
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        probe = None
        if self.probe and proc.returncode == 0:
            probe = json.loads(err.strip().splitlines()[-1])
            probe["interp_s"] = probe.pop("t_start") - launched
        return CliResult(proc.returncode, out, usage.ru_maxrss, probe)

    def failed(self, i, results):
        argv = list(self.items[i].args)
        verdicts = {}  # the output is deterministic: ask the API once per distinct output
        bad = 0
        for res in results:
            if res.returncode != 0:
                bad += 1
                continue
            if res.stdout not in verdicts:
                verdicts[res.stdout] = matches_api(argv, json.loads(res.stdout))
            bad += not verdicts[res.stdout]
        return bad


def matches_api(argv: list[str], payload) -> bool:
    """True iff the CLI's JSON agrees with the same command answered in-process."""
    cmd, spec, r = argv[0], argv[2], int(argv[4])
    opt = dict(zip(argv[5::2], argv[6::2]))
    d = offspring.make_distribution(spec)
    if cmd == "pc":
        res = critical.pc_exact(d, r)
        closed = critical.pc_closed_form(d.spec, r)
        if closed is not None:
            res = critical.CriticalResult(closed.pc, closed.x_star, closed.M, "closed-form",
                                          closed.err, d.spec, r)
        return payload == res.as_dict()
    if cmd == "bounds":
        rep = bounds.bounds_report(d, r)
        return payload == {"spec": d.spec.label(), "r": r, "pc": rep.pc_ref.as_dict(),
                           "bounds": [e.as_dict() for e in rep.entries]}
    if cmd == "simulate":
        p, n, reps, seed = float(opt["--p"]), int(opt["--n"]), int(opt["--reps"]), int(opt["--seed"])
        est = simulate.estimate_qn(d, r, p, n, reps, seed)
        want = {"qhat": est.estimate, "se": est.se, "truncated": est.truncated, "seed": seed,
                "q_exact": critical.q_iterate(d, r, p, n).q_n}
        return all(payload[k] == v for k, v in want.items())
    # sweep over a p-grid: every row carries its own p
    rows_ok = []
    for row in payload:
        q = critical.q_limit(d, r, row["p"])
        rows_ok.append(row["qlimit"] == q.value and row["converged"] == q.converged)
    return bool(rows_ok) and all(rows_ok)


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        MonteCarlo(
            "mc-small",
            "criterion 10's 20 configs, a few hundred vertices per tree: per-call numpy and "
            "Python overhead dominates, so forest batching shows here",
            MC_SMALL_CONFIGS, MC_SMALL_REPS, 0.0,
        ),
        MonteCarlo(
            "mc-large",
            "trees of 5e4 to 1e5 vertices plus a budget-truncated heavy tail: per-vertex array "
            "work dominates, so batching is bypassed and per-vertex cost shows",
            MC_LARGE_CONFIGS, MC_LARGE_REPS, 0.05,
        ),
        AnalyticPc(
            "analytic-pc",
            "make_distribution + pc_exact on 101 (law, r) pairs of all seven families: G is "
            "evaluated on a grid by the kernels and simulate does nothing",
        ),
        AnalyticBounds(
            "analytic-bounds",
            "bounds_report on the same 101 pairs: offspring moments and the reference pc_exact "
            "do the work",
        ),
        AnalyticQlimit(
            "analytic-qlimit",
            "q_limit on 106 (law, r, p) rows from 0.5 to 2 p_c: the scalar h is called "
            "repeatedly, slowest next to p_c",
        ),
        CliCold(
            "cli-cold",
            "python -m gwboot.cli in a fresh interpreter per call, numpy-only and scipy.stats "
            "families: import and start-up dominate",
        ),
    )
}
