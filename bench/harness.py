"""Measurement of one workload inside the measuring interpreter.

``run`` times passes over the workload's items, checks every result, and in
traced runs adds the per-layer metrics; ``probe.py measure`` adds
``setup_s``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPLIT_REPS = 100  # replicates per mc-small config in the cost-split probe
CAL_REF_S = 2e-3
CAL_RUNS = 3
CAL_EVERY_S = 0.1
_CAL_TINY = np.arange(100.0)
_CAL_SMALL = np.arange(1000.0)
_CAL_BIG = np.arange(131072.0)  # 1 MB in, 1 MB out: beyond a 1 MB L2
_CAL_DOC = {"a": [1, 2, 3.5, "x"] * 20, "b": {"c": list(range(50))}}
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s_ref": "1/s", "op_ms_p50_ref": "ms"}


def _kernel() -> None:
    """Fixed work of the kinds the workloads do: calls on small numpy arrays,
    pure-Python loops and JSON, and one pass over arrays beyond the L2."""
    tiny, small = _CAL_TINY, _CAL_SMALL
    for _ in range(150):
        float(np.dot(small, small))
        np.cumsum(tiny)
        np.concatenate([tiny, tiny])
    s = 0
    for i in range(3000):
        s += (i * i) % 7
    json.loads(json.dumps(_CAL_DOC))
    np.cumsum(_CAL_BIG)


def calibrate() -> float:
    """Fastest of CAL_RUNS runs of ``_kernel``, in seconds.

    The kernel takes about CAL_REF_S on a 2-vCPU Xeon VM at 2 GHz.  On a
    shared host the speed of a vCPU can swing by tens of percent within
    seconds, moving this kernel and the program alike, so each call's time
    is divided by the latest calibration, taken at most CAL_EVERY_S before
    the call, and scaled by CAL_REF_S (``*_ref`` metrics).  Taking the
    fastest run drops the slow runs right after the process was blocked on
    a CLI child and the odd preempted run.
    """
    best = float("inf")
    for _ in range(CAL_RUNS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(w, seconds: float, first_pass: int, tracer=None):
    """Passes over ``w.items`` for ``seconds``; the first pass always completes.

    Returns per-item call times, calibration times and results, and the next
    pass number.
    """
    n = len(w.items)
    times = [[] for _ in range(n)]
    cals = [[] for _ in range(n)]
    results = [[] for _ in range(n)]
    clock = time.perf_counter
    deadline = clock() + seconds
    pass_no = first_pass
    cal_at = -CAL_EVERY_S
    while True:
        for i in range(n):
            if tracer is not None:
                tracer.op = i
            if clock() - cal_at >= CAL_EVERY_S:
                cal, cal_at = calibrate(), clock()
            cals[i].append(cal)
            t0 = clock()
            res = w.run(i, pass_no)
            t1 = clock()
            times[i].append(t1 - t0)
            results[i].append(res)
            if pass_no > first_pass and t1 >= deadline:
                return times, cals, results, pass_no + 1
        pass_no += 1
        if clock() >= deadline:
            return times, cals, results, pass_no


def pass_seconds(times, cals=None) -> list[float]:
    """Each item's median call time, in CAL_REF_S units of the calibration
    kernel timed next to it when ``cals`` is given."""
    if cals is None:
        return [statistics.median(t) for t in times]
    return [CAL_REF_S * statistics.median(x / c for x, c in zip(t, cs))
            for t, cs in zip(times, cals)]


def throughput(w, item_s: list[float]) -> tuple[float, float]:
    """(ops per second of one pass, median over items of ms per operation)."""
    ops_per_s = sum(item.ops for item in w.items) / sum(item_s)
    op_ms_p50 = statistics.median(1e3 * s / item.ops for s, item in zip(item_s, w.items))
    return ops_per_s, op_ms_p50


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def split_probe(seed: int) -> dict:
    """Per-replicate cost of sample_tree, sample_marks and root_fort_status."""
    from gwboot import offspring, simulate

    spent = [0.0, 0.0, 0.0]
    reps = 0
    clock = time.perf_counter
    for idx, (spec, r, p, n) in enumerate(workloads.MC_SMALL_CONFIGS):
        d = offspring.make_distribution(spec)
        base = workloads.derive_seed(seed, 7, idx)
        for j in range(SPLIT_REPS):
            rng = simulate.replicate_rng(base, j)
            t0 = clock()
            tree = simulate.sample_tree(d, n, rng=rng)
            t1 = clock()
            marks = simulate.sample_marks(tree, p, rng)
            t2 = clock()
            simulate.root_fort_status(tree, marks, r)
            t3 = clock()
            spent[0] += t1 - t0
            spent[1] += t2 - t1
            spent[2] += t3 - t2
            reps += 1
    return {
        "simulate.probe.sample_tree_us": 1e6 * spent[0] / reps,
        "simulate.probe.sample_marks_us": 1e6 * spent[1] / reps,
        "simulate.probe.root_fort_status_us": 1e6 * spent[2] / reps,
    }


def cli_timings(groups: list[list[dict]]) -> dict:
    """Start-up split of fresh interpreters: the median within each group
    (one CLI item, or all set-ups), averaged over the groups."""
    groups = [g for g in groups if g]

    def ms(key):
        if not groups or key not in groups[0][0]:
            return 0.0
        return 1e3 * statistics.fmean(statistics.median(r[key] for r in g) for g in groups)

    return {
        "cli.interp_ms": ms("interp_s"),
        "cli.import_ms": ms("import_s"),
        "cli.lazy_import_ms": ms("lazy_import_s"),
        "cli.main_ms": ms("main_s"),
    }


def with_units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": E2E_UNITS.get(k) or tracing.unit_of(k)}
            for k, v in metrics.items()}


def run(w, seed: int, seconds: float, traced: bool) -> dict:
    """Measure the set-up workload ``w``; returns detail, result and metrics."""
    phase = seconds / 2 if traced else seconds
    times, cals, results, next_pass = measure(w, phase, 0)
    if isinstance(w, workloads.CliCold):
        peak_kb = max(r.maxrss_kb for res in results for r in res)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        tracer = tracing.Tracer()
        w.probe = True  # cli-cold: CLI calls go through probe.py
        tracer.install()
        try:
            times_b, cals_b, results_b, _ = measure(w, phase, next_pass, tracer)
            tracer.op = tracing.CHECK_OP
            results = [a + b for a, b in zip(results, results_b)]
            failed = sum(w.failed(i, res) for i, res in enumerate(results))
        finally:
            tracer.uninstall()
    else:
        failed = sum(w.failed(i, res) for i, res in enumerate(results))
    failed = int(failed)
    attempted = sum(len(res) for res in results)
    replay_ok = w.replay_identical() if isinstance(w, workloads.MonteCarlo) else True

    ops_per_s, op_ms_p50 = throughput(w, pass_seconds(times))
    detail = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "env": environment(),
        "items": len(w.items),
        "samples_per_item": [min(len(t) for t in times), max(len(t) for t in times)],
        "fail_frac": failed / attempted,
        "replay_identical": replay_ok,
        "wall": {"ops_per_s": ops_per_s, "op_ms_p50": op_ms_p50,
                 "calibration_ms_p50": 1e3 * statistics.median(c for cs in cals for c in cs)},
    }
    if traced:
        metrics = tracing.layer_metrics(tracer.spans, {i: len(t) for i, t in enumerate(times_b)})
        tracer.write(os.path.join(HERE, "out", f"trace-{w.name}-seed{seed}.csv.gz"),
                     [item.label for item in w.items])
        metrics.update(split_probe(seed))
        capped = (0, 0.0)
        if isinstance(w, workloads.AnalyticQlimit):
            capped = w.capped_row()
            detail["known_defect"] = {"row": workloads.QLIMIT_CAPPED_ROW, "capped": capped[0],
                                      "seconds": capped[1]}
        metrics["critical.q_limit.capped_rows"] = capped[0]
        if isinstance(w, workloads.CliCold):
            metrics.update(cli_timings([[r.probe for r in res if r.probe] for res in results_b]))
        untraced = sum(pass_seconds(times, cals))
        traced_s = sum(pass_seconds(times_b, cals_b))
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced - 1.0)
    else:
        ops_ref, op_ms_ref = throughput(w, pass_seconds(times, cals))
        metrics = {"peak_rss_mb": peak_kb / 1024.0, "ops_per_s_ref": ops_ref,
                   "op_ms_p50_ref": op_ms_ref}
    return {"detail": detail, "correct": failed == 0 and replay_ok, "attempted": attempted,
            "failed": failed, "metrics": with_units(metrics)}
