"""Fresh-interpreter entry points of the gwboot benchmark, started by run.py.

    probe.py setup   --workload W --seed N [--imports]
    probe.py measure --workload W --seed N --seconds S --trace 0|1
                     --launched T --setups JSON
    probe.py cli     <gwboot CLI arguments>

``setup`` imports gwboot, sets the workload up and prints its monotonic
start and ready times.  ``measure`` does the same, then measures the
workload (harness.py) and prints the benchmark's result; ``--launched`` is
the parent's monotonic clock just before launching it and ``--setups`` the
records of the ``setup`` runs, so ``setup_s`` is a median over all of them.
``cli`` runs ``gwboot.cli.main`` as ``python -m gwboot.cli`` would and
reports its start-up, import and main timings as the last stderr line.
Lazy imports (modules first loaded after ``import gwboot``) are timed by a
hook on ``builtins.__import__``, installed for set-up only in traced runs.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import builtins  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class ImportTimer:
    """Accumulates wall time of top-level imports that load new modules."""

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0
        self._orig = builtins.__import__

    def __call__(self, *args, **kwargs):
        if self._depth:
            return self._orig(*args, **kwargs)
        before = len(sys.modules)
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return self._orig(*args, **kwargs)
        finally:
            self._depth -= 1
            if len(sys.modules) != before:
                self.seconds += time.perf_counter() - t0

    def __enter__(self):
        builtins.__import__ = self
        return self

    def __exit__(self, *exc):
        builtins.__import__ = self._orig


def set_up(name: str, seed: int, hook_imports: bool):
    """Import gwboot and set workload ``name`` up; returns (workload, record)."""
    t0 = time.perf_counter()
    import gwboot  # noqa: F401

    import_s = time.perf_counter() - t0
    timer = ImportTimer()
    with timer if hook_imports else contextlib.nullcontext():
        import workloads

        w = workloads.WORKLOADS[name]
        w.setup(seed)
        t_ready = time.monotonic()
    return w, {"t_start": T_START, "t_ready": t_ready, "import_s": import_s,
               "lazy_import_s": timer.seconds}


def probe_setup(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="probe.py setup")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--imports", action="store_true")
    args = ap.parse_args(argv)
    _, record = set_up(args.workload, args.seed, args.imports)
    print(json.dumps(record))
    return 0


def probe_measure(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="probe.py measure")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setups", required=True)
    args = ap.parse_args(argv)
    w, record = set_up(args.workload, args.seed, bool(args.trace))
    record["launched"] = args.launched
    setups = json.loads(args.setups) + [record]
    for rec in setups:
        rec["setup_s"] = rec["t_ready"] - rec["launched"]
        rec["interp_s"] = rec["t_start"] - rec["launched"]

    import harness
    import workloads

    # one vCPU for this process and the CLI children it starts, so that the
    # calibration and the measured work see the same vCPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = harness.run(w, args.seed, args.seconds, bool(args.trace))
    out["detail"]["setup_probes_s"] = [rec["setup_s"] for rec in setups]
    metrics = out["metrics"]
    if not args.trace:
        setup_s = statistics.median(r["setup_s"] for r in setups)
        metrics.update(harness.with_units({"setup_s": setup_s}))
    elif not isinstance(w, workloads.CliCold):
        # no CLI process here: the start-up split comes from the set-ups
        metrics.update(harness.with_units(harness.cli_timings([setups])))
    print(json.dumps(out.pop("detail")))
    print(json.dumps(out))
    return 0


def probe_cli(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import gwboot.cli

    import_s = time.perf_counter() - t0
    with ImportTimer() as timer:
        t1 = time.perf_counter()
        code = gwboot.cli.main(argv)
        main_s = time.perf_counter() - t1
    sys.stdout.flush()
    print(json.dumps({"t_start": T_START, "import_s": import_s,
                      "lazy_import_s": timer.seconds, "main_s": main_s - timer.seconds}),
          file=sys.stderr)
    return code


MODES = {"setup": probe_setup, "measure": probe_measure, "cli": probe_cli}

if __name__ == "__main__":
    sys.exit(MODES[sys.argv[1]](sys.argv[2:]))
