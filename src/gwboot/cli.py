"""Command-line front end.

Subcommands: ``pc`` (critical probability), ``bounds`` (analytic bound
table), ``simulate`` (Monte Carlo estimate of the survival probability),
``sweep`` (CSV over a p- or b-grid).  Distribution specs use the grammar
``regular:b=5``, ``twopoint:b=4,a=9``, ``poisson:b=6``, ``geometric:b=4``,
``heavy:r=2``, ``pruned:r=2,b=20``, ``pmf:2=0.5,4=0.5``.

Exit codes: 0 success, 2 parse error, 3 violated precondition or an --out
that cannot be written, 4 internal inconsistency (a bound or closed form
contradicting the exact value).
Reals in CSV output carry 17 significant digits so doubles round-trip;
a CSV field with a comma (a spec label, an error status) is quoted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import secrets
import stat
import sys
import tempfile

from . import bounds as bounds_mod
from . import critical, simulate
from .offspring import (
    OffspringDistribution,
    PreconditionError,
    SpecError,
    make_distribution,
    parse_spec,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4

BUDGET_ENV = "GWBOOT_BUDGET"
CONSISTENCY_TOL = 1e-6
GRID_MAX_POINTS = 100_000


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return simulate.DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise SpecError(f"{BUDGET_ENV} must be an integer; got {raw!r}") from None


def _csv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _plain_mode(path: str) -> int:
    """The mode a plain write leaves at ``path``: a file's own, else 0666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write(args, payload, rows: list[dict], columns: list[str],
           table: list[str] | None = None) -> None:
    """Write ``payload`` as JSON, ``rows`` as CSV under ``columns``, or the table
    lines, as ``--format`` asks; a command without a table writes CSV.  With
    ``--out`` the text replaces that file atomically, with the mode a plain
    write would leave; a path that cannot be written is refused with exit 3
    and leaves no temporary file.  JSON (RFC 8259) has no Infinity or NaN, so
    a non-finite float is written there as null; CSV and the table keep inf."""
    if args.format == "json":
        strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        text = json.dumps(strict, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif args.format == "table" and table is not None:
        text = "\n".join(table) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_value(row.get(c, "")) for c in columns] for row in rows)
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.out))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gwboot-")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), _plain_mode(args.out))
            fh.write(text)
        os.replace(tmp, args.out)
    except OSError as exc:
        raise PreconditionError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):  # gone once replaced
            os.unlink(tmp)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _parse_grid(text: str) -> list[float]:
    try:
        a, b, step = (float(t) for t in text.split(":"))
    except Exception:
        raise SpecError(f"malformed grid {text!r}; expected start:stop:step")
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise SpecError(f"grid {text!r} needs a finite start, stop and step")
    if step <= 0:
        raise SpecError("grid step must be positive")
    span = (b - a) / step + 1e-9  # keeps b where (b - a) / step rounds to just below an integer
    if span >= GRID_MAX_POINTS:
        raise SpecError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
    if span < 0:
        return []
    # 12 decimals, or 9 digits below the step's leading one where that is finer
    digits = max(12, 9 - math.floor(math.log10(step)))
    return [round(a + i * step, digits) for i in range(math.floor(span) + 1)]


# ---------------------------------------------------------------------------
# subcommands


def _pc_result(d: OffspringDistribution, r: int) -> tuple[critical.CriticalResult, str | None]:
    """The closed form where one exists, else ``pc_exact``; with a message when
    a closed form contradicts the maximization, whose result is returned then."""
    res = critical.pc_exact(d, r)
    closed = critical.pc_closed_form(d.spec, r)
    if closed is None:
        return res, None
    if abs(closed.pc - res.pc) > CONSISTENCY_TOL + res.err:
        return res, f"closed form pc={closed.pc!r} contradicts maximization pc={res.pc!r}"
    return closed, None


def cmd_pc(args) -> int:
    d = make_distribution(parse_spec(args.dist))
    res, problem = _pc_result(d, args.r)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INCONSISTENT
    payload = res.as_dict()
    columns = ["spec", "r", "pc", "x_star", "M", "method", "err"]
    _write(args, payload, [payload], columns,
           [f"{c + ':':<9}{_csv_value(payload[c])}" for c in columns])
    return EXIT_OK


def cmd_bounds(args) -> int:
    d = make_distribution(parse_spec(args.dist))
    report = bounds_mod.bounds_report(d, args.r, alpha=args.alpha)
    problems = bounds_mod.sandwich_violations(report)
    spec = d.spec.label()
    entries = [e.as_dict() for e in report.entries]
    payload = {
        "spec": spec,
        "r": args.r,
        "pc": report.pc_ref.as_dict() if report.pc_ref else None,
        "bounds": entries,
    }
    table = [f"spec: {spec}   r: {args.r}"]
    if report.pc_ref:
        table.append(f"pc:   {_fmt_float(report.pc_ref.pc)}  (err {report.pc_ref.err:.2e})")
    table.append(f"{'name':<26} {'kind':<6} {'value':<24} valid  note")
    for e in report.entries:
        table.append(
            f"{e.name:<26} {e.kind:<6} {_fmt_float(e.value):<24} {str(e.valid).lower():<6} {e.note}"
        )
    _write(args, payload, [{"spec": spec, "r": args.r, **e} for e in entries],
           ["spec", "r", "name", "kind", "value", "raw", "valid", "note"], table)
    if problems:
        for msg in problems:
            print(f"error: sandwich violation: {msg}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _warn_budget(d: OffspringDistribution, n: int, p: float, budget: int) -> None:
    expected = simulate.expected_tree_size(d, n, p)
    if expected > budget / 2:
        print(
            f"warning: expected tree size ~{expected:.3g} exceeds half the node budget {budget}",
            file=sys.stderr,
        )


# the CSV columns of a Monte Carlo row; JSON and the table add ``truncated``
# and ``stream_version``
_MC_COLUMNS = ["spec", "r", "p", "n", "N", "seed", "qhat", "se", "q_exact", "z"]


def _mc_row(d: OffspringDistribution, r: int, p: float, n: int, reps: int, seed: int,
            budget: int) -> dict:
    """The estimate of q_n beside the exact recursion and its z-score.

    q_exact and z are empty when the recursion rejects the threshold or the
    estimate has zero standard error.
    """
    est = simulate.estimate_qn(d, r, p, n, reps, seed, budget=budget)
    try:
        q_exact = critical.q_iterate(d, r, p, n).q_n
    except PreconditionError:
        q_exact = ""
    z = (est.estimate - q_exact) / est.se if q_exact != "" and est.se > 0 else ""
    return {"spec": d.spec.label(), "r": r, "p": p, "n": n, "N": reps, "seed": seed,
            "qhat": est.estimate, "se": est.se, "q_exact": q_exact, "z": z,
            "truncated": est.truncated, "stream_version": est.stream_version}


def cmd_simulate(args) -> int:
    d = make_distribution(parse_spec(args.dist))
    seed = _resolve_seed(args)
    budget = _budget(args)
    simulate.check_estimate_args(args.r, args.p, args.n, args.reps, budget)
    _warn_budget(d, args.n, args.p, budget)
    row = _mc_row(d, args.r, args.p, args.n, args.reps, seed, budget)
    _write(args, row, [row], _MC_COLUMNS, [f"{k}: {_csv_value(v)}" for k, v in row.items()])
    return EXIT_OK


def cmd_sweep(args) -> int:
    if (args.p_grid is None) == (args.b_grid is None):
        raise SpecError("sweep needs exactly one of --p-grid or --b-grid")
    if args.r < 2:  # every row's q_limit or p_c needs it: refused once, before a seed is drawn
        raise PreconditionError("threshold r must be >= 2")
    rows: list[dict] = []
    problems: list[str] = []
    if args.b_grid is not None:
        grid = _parse_grid(args.b_grid)
        base = parse_spec(args.dist)
        if base.b is None:  # a family that takes b always has one
            raise SpecError(f"family {base.family} has no b parameter to sweep")
        columns = ["spec", "r", "b", "pc", "x_star", "M", "err", "method", "status"]
        if args.r == 2:
            columns.insert(7, "pc_times_2b2")
        for b in grid:
            row = {"b": b, "r": args.r, "status": "ok"}
            try:
                spec = dataclasses.replace(base, b=b)
                d = make_distribution(spec)
                row["spec"] = spec.label()
                res, problem = _pc_result(d, args.r)
                row.update(pc=res.pc, x_star=res.x_star, M=res.M, err=res.err,
                           method=res.method)
                if args.r == 2:
                    row["pc_times_2b2"] = res.pc * 2.0 * b * b
                if problem is not None:
                    row["status"] = f"error: {problem}"
                    problems.append(f"{spec.label()}: {problem}")
            except (SpecError, PreconditionError) as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    else:
        grid = _parse_grid(args.p_grid)
        d = make_distribution(parse_spec(args.dist))
        budget = _budget(args)
        if args.reps:  # the Monte Carlo arguments once, before a seed is drawn; p is each row's own
            simulate.check_estimate_args(args.r, 0.0, args.n, args.reps, budget)
        seed = _resolve_seed(args) if args.reps else None
        columns = (_MC_COLUMNS if args.reps else ["spec", "r", "p"]) + [
            "qlimit", "converged", "status"]
        for p in grid:
            row = {"spec": d.spec.label(), "r": args.r, "p": p, "status": "ok"}
            try:
                ql = critical.q_limit(d, args.r, p)
                row.update(qlimit=ql.value, converged=ql.converged)
                if args.reps:
                    mc = _mc_row(d, args.r, p, args.n, args.reps, seed, budget)
                    row.update((k, mc[k]) for k in _MC_COLUMNS)  # sweep rows carry the CSV columns only
            except (SpecError, PreconditionError) as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    _write(args, rows, rows, columns)
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    return EXIT_INCONSISTENT if problems else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, help="distribution spec, e.g. regular:b=5")
    p.add_argument("--r", type=int, required=True, help="infection threshold r >= 2")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", default=None, help="write output atomically to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gwboot",
        description="Bootstrap percolation on Galton-Watson trees: exact critical "
        "probabilities, analytic bounds, Monte Carlo simulation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pc", help="critical probability")
    _add_common(p)
    p.set_defaults(func=cmd_pc)

    p = sub.add_parser("bounds", help="analytic bound table")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.5, help="alpha for the moment bound")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of q_n")
    _add_common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="tree depth")
    p.add_argument("--reps", type=int, required=True, help="number of replicates")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help=f"node budget (default {simulate.DEFAULT_BUDGET} or ${BUDGET_ENV})")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="CSV sweep over a p- or b-grid")
    _add_common(p)
    p.add_argument("--p-grid", default=None, help="start:stop:step")
    p.add_argument("--b-grid", default=None, help="start:stop:step")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--reps", type=int, default=0,
                   help="if > 0, adds Monte Carlo columns to a p-sweep")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
