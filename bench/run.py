"""gwboot benchmark: one workload, checked results, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` beside this directory; without it
the run fails with exit code 2.  The workload is built from the seed and
set up in three fresh interpreters started one after another (probe.py):
two only set up, the third then runs passes over the workload's items for
S seconds, one call at a time in one thread pinned to one vCPU, and checks
every result.  BLAS and OpenMP pools are pinned to one thread.

The last stdout line is one JSON object with ``correct``, ``attempted`` and
``failed`` (calls) and ``metrics``.  With ``--trace 0`` the metrics are

* ``setup_s``: median over the three interpreters of launch-to-ready time;
* ``peak_rss_mb``: peak resident memory of the measuring interpreter (of
  the CLI processes on ``cli-cold``);
* ``ops_per_s_ref``: operations per second of one pass at each item's
  median call time, an operation being a replicate on ``mc-*`` and a call
  elsewhere;
* ``op_ms_p50_ref``: median over items of the median time per operation.

``_ref`` times are calibrated: each call's wall time is divided by the
time of a fixed kernel run just before it on the same vCPU and multiplied
by the kernel's nominal time (harness.calibrate), which cancels the swings
in host speed.  The raw wall-clock values are on the line before.

With ``--trace 1`` half the time runs untraced and half with every public
gwboot call wrapped in a span (tracing.py).  The metrics are per-layer
counts and self times for one pass, the ``simulate.probe.*`` cost split of
one replicate, the ``cli.*`` start-up split and ``trace.overhead_pct``; the
spans are written to ``bench/out/``.  The line before the result records
the environment, per-item sample counts, ``fail_frac`` and the raw values.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_ONLY = 2  # set-up interpreters besides the measuring one
TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    launched = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "probe.py")] + args
    if args[0] == "measure":
        cmd += ["--launched", repr(launched)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    return launched, proc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gwboot", "__init__.py")):
        print(f"error: gwboot sources not found under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_ONLY):
        launched, proc = launch(["setup"] + common + (["--imports"] if args.trace else []), env)
        if proc.returncode != 0:
            print(f"error: set-up of {args.workload} failed", file=sys.stderr)
            return 1
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["launched"] = launched
        setups.append(record)
    _, proc = launch(["measure"] + common + ["--seconds", str(args.seconds), "--trace",
                                              str(args.trace), "--setups", json.dumps(setups)], env)
    if proc.returncode != 0:
        print(f"error: measuring {args.workload} failed", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
