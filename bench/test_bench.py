"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs tiny traced inputs in-process and checks the span counts of every
wrapped function, seeded Monte Carlo replay, and that BENCHMARK.json and
the harness agree on workloads and metric names.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gwboot  # noqa: E402
from gwboot import bounds, critical, offspring  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def traced(fn):
    """Run fn() as item 0 under a fresh tracer; return (result, layer metrics)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        res = fn()
    finally:
        tracer.uninstall()
    return res, tracing.layer_metrics(tracer.spans, {0: 1})


def test_install_patches_every_alias_and_uninstall_restores():
    originals = (critical.pc_exact, bounds.pc_exact, gwboot.pc_exact, critical.make_context,
                 offspring.Regular.sample, offspring.OffspringDistribution.alpha_moment)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bounds.pc_exact is critical.pc_exact is gwboot.pc_exact
        assert critical.pc_exact is not originals[0]
        assert critical.make_context is not originals[3]
        assert offspring.Regular.sample is not originals[4]
    finally:
        tracer.uninstall()
    assert (critical.pc_exact, bounds.pc_exact, gwboot.pc_exact, critical.make_context,
            offspring.Regular.sample, offspring.OffspringDistribution.alpha_moment) == originals


def test_monte_carlo_counts_and_replay():
    # regular:b=3 to depth 3: levels of 1, 3, 9 and 27 vertices
    w = workloads.MonteCarlo("tiny", "", [("regular:b=3", 2, 0.2, 3)], 5, 0.0)
    w.setup(7)
    est, m = traced(lambda: w.run(0, 0))
    assert m["simulate.estimate_qn.calls"] == 1
    assert m["offspring.sample.calls"] == 5 * 3
    assert m["offspring.sample.draws"] == 5 * (1 + 3 + 9)
    assert m["simulate.vertices"] == 5 * 40
    assert m["simulate.replicates"] == 5 and m["simulate.truncated"] == 0
    assert m["simulate.effective_frac"] == 1.0
    assert m["simulate.estimate_qn.self_ms"] > 0 and m["simulate.ns_per_vertex"] > 0
    assert w.run(0, 0) == est  # untraced replay of the same seed
    assert w.replay_identical()
    assert w.failed(0, [est]) == 0


def test_analytic_counts():
    d = offspring.make_distribution("regular:b=3")
    _, m = traced(lambda: critical.pc_exact(offspring.make_distribution("regular:b=3"), 2))
    assert m["offspring.make_distribution.self_ms"] > 0
    assert m["critical.pc_exact.calls"] == 1
    assert m["kernels.make_context.calls"] == 1
    assert m["kernels.max_G.calls"] == 1
    # every G evaluation of pc_exact happens inside max_G: a 1e-3 grid plus refinement
    assert m["kernels.G_minus_1.calls"] == m["kernels.max_G.evals_per_call"] > 1001

    _, m = traced(lambda: bounds.bounds_report(d, 2))
    assert m["bounds.bounds_report.calls"] == 1 and m["critical.pc_exact.calls"] == 1
    assert 0.0 < m["bounds.pc_ref_share"] < 1.0
    assert m["offspring.moments.calls"] >= 4

    q, m = traced(lambda: critical.q_limit(d, 2, 0.05))
    assert q.converged
    assert m["critical.q_limit.calls"] == 1
    assert m["kernels.h.calls"] == m["critical.q_limit.iterations"] == q.iterations
    assert m["critical.q_limit.converged_frac"] == 1.0
    assert m["kernels.make_context.calls"] == 1

    _, m = traced(lambda: critical.q_iterate(d, 2, 0.05, 4))
    assert m["critical.q_iterate.calls"] == 1 and m["kernels.h.calls"] == 4


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_the_metrics_benchmark_json_names(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mc-small",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
