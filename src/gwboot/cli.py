"""Command-line front end.

Subcommands: ``pc`` (critical probability), ``bounds`` (analytic bound
table), ``simulate`` (Monte Carlo estimate of the survival probability),
``sweep`` (CSV over a p- or b-grid).  Distribution specs use the grammar
``regular:b=5``, ``twopoint:b=4,a=9``, ``poisson:b=6``, ``geometric:b=4``,
``heavy:r=2``, ``pruned:r=2,b=20``, ``pmf:2=0.5,4=0.5``.

Exit codes: 0 success, 2 parse error, 3 violated precondition, 4 internal
inconsistency (a bound or closed form contradicting the exact value).
Reals in CSV output carry 17 significant digits so doubles round-trip.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import secrets
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


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw:
        return int(raw)
    return simulate.DEFAULT_BUDGET


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gwboot-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_csv_value(row.get(c, "")) for c in columns) + "\n")
    return buf.getvalue()


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
    if step <= 0:
        raise SpecError("grid step must be positive")
    out = []
    v = a
    i = 0
    while v <= b + 1e-9:
        out.append(round(v, 12))
        i += 1
        v = a + i * step
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_pc(args) -> int:
    d = make_distribution(parse_spec(args.dist))
    res = critical.pc_exact(d, args.r)
    closed = critical.pc_closed_form(d.spec, args.r)
    if closed is not None:
        if abs(closed.pc - res.pc) > CONSISTENCY_TOL + res.err:
            print(
                f"error: closed form pc={closed.pc!r} contradicts maximization pc={res.pc!r}",
                file=sys.stderr,
            )
            return EXIT_INCONSISTENT
        res = critical.CriticalResult(
            pc=closed.pc, x_star=closed.x_star, M=closed.M, method="closed-form",
            err=closed.err, spec=d.spec, r=args.r,
        )
    payload = res.as_dict()
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    elif args.format == "csv":
        cols = ["spec", "r", "pc", "x_star", "M", "method", "err"]
        _emit(_csv([payload], cols), args.out)
    else:
        lines = [
            f"spec:    {payload['spec']}",
            f"r:       {payload['r']}",
            f"pc:      {_fmt_float(payload['pc'])}",
            f"x_star:  {_fmt_float(payload['x_star'])}",
            f"M:       {_fmt_float(payload['M'])}",
            f"method:  {payload['method']}",
            f"err:     {_fmt_float(payload['err'])}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    d = make_distribution(parse_spec(args.dist))
    report = bounds_mod.bounds_report(d, args.r, alpha=args.alpha)
    problems = bounds_mod.sandwich_violations(report)
    payload = {
        "spec": d.spec.label(),
        "r": args.r,
        "pc": report.pc_ref.as_dict() if report.pc_ref else None,
        "bounds": [e.as_dict() for e in report.entries],
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    elif args.format == "csv":
        rows = [
            {"spec": payload["spec"], "r": args.r, **e.as_dict()} for e in report.entries
        ]
        _emit(_csv(rows, ["spec", "r", "name", "kind", "value", "raw", "valid", "note"]), args.out)
    else:
        lines = [f"spec: {payload['spec']}   r: {args.r}"]
        if report.pc_ref:
            lines.append(f"pc:   {_fmt_float(report.pc_ref.pc)}  (err {report.pc_ref.err:.2e})")
        lines.append(f"{'name':<26} {'kind':<6} {'value':<24} valid  note")
        for e in report.entries:
            lines.append(
                f"{e.name:<26} {e.kind:<6} {_fmt_float(e.value):<24} {str(e.valid).lower():<6} {e.note}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    if problems:
        for msg in problems:
            print(f"error: sandwich violation: {msg}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _warn_budget(d: OffspringDistribution, n: int, budget: int) -> None:
    expected = simulate.expected_tree_size(d, n)
    if expected > budget / 2:
        print(
            f"warning: expected tree size ~{expected:.3g} exceeds half the node budget {budget}",
            file=sys.stderr,
        )


def cmd_simulate(args) -> int:
    d = make_distribution(parse_spec(args.dist))
    seed = _resolve_seed(args)
    budget = args.budget if args.budget is not None else _default_budget()
    _warn_budget(d, args.n, budget)
    est = simulate.estimate_qn(d, args.r, args.p, args.n, args.reps, seed, budget=budget)
    q_exact = None
    try:
        q_exact = critical.q_iterate(d, args.r, args.p, args.n).q_n
    except PreconditionError:
        pass
    z = None
    if q_exact is not None and est.se > 0:
        z = (est.estimate - q_exact) / est.se
    row = {
        "spec": d.spec.label(),
        "r": args.r,
        "p": args.p,
        "n": args.n,
        "N": args.reps,
        "seed": seed,
        "qhat": est.estimate,
        "se": est.se,
        "q_exact": q_exact if q_exact is not None else "",
        "z": z if z is not None else "",
        "truncated": est.truncated,
    }
    if args.format == "json":
        _emit(_json_dumps(row), args.out)
    elif args.format == "csv":
        _emit(_csv([row], ["spec", "r", "p", "n", "N", "seed", "qhat", "se", "q_exact", "z"]), args.out)
    else:
        lines = [f"{k}: {_csv_value(v)}" for k, v in row.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_B_SWEEP_FAMILIES = {"regular", "shifted_poisson", "shifted_geometric", "pruned"}


def cmd_sweep(args) -> int:
    if (args.p_grid is None) == (args.b_grid is None):
        raise SpecError("sweep needs exactly one of --p-grid or --b-grid")
    rows: list[dict] = []
    if args.b_grid is not None:
        grid = _parse_grid(args.b_grid)
        base = parse_spec(args.dist)
        if base.family not in _B_SWEEP_FAMILIES:
            raise SpecError(f"family {base.family} has no b parameter to sweep")
        columns = ["spec", "r", "b", "pc", "x_star", "M", "err", "method", "status"]
        if args.r == 2:
            columns.insert(7, "pc_times_2b2")
        for b in grid:
            row = {"b": b, "r": args.r, "status": "ok"}
            try:
                spec = type(base)(family=base.family, b=b, a=base.a, r=base.r)
                d = make_distribution(spec)
                row["spec"] = spec.label()
                res = critical.pc_exact(d, args.r)
                row.update(pc=res.pc, x_star=res.x_star, M=res.M, err=res.err,
                           method=res.method)
                if args.r == 2:
                    row["pc_times_2b2"] = res.pc * 2.0 * b * b
            except (SpecError, PreconditionError) as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    else:
        grid = _parse_grid(args.p_grid)
        d = make_distribution(parse_spec(args.dist))
        seed = _resolve_seed(args) if args.reps else None
        budget = args.budget if args.budget is not None else _default_budget()
        columns = ["spec", "r", "p", "qlimit", "converged", "status"]
        if args.reps:
            columns = ["spec", "r", "p", "n", "N", "seed", "qhat", "se", "q_exact", "z",
                       "qlimit", "converged", "status"]
        for p in grid:
            row = {"spec": d.spec.label(), "r": args.r, "p": p, "status": "ok"}
            try:
                ql = critical.q_limit(d, args.r, p)
                row.update(qlimit=ql.value, converged=ql.converged)
                if args.reps:
                    est = simulate.estimate_qn(d, args.r, p, args.n, args.reps, seed,
                                               budget=budget)
                    q_exact = critical.q_iterate(d, args.r, p, args.n).q_n
                    z = (est.estimate - q_exact) / est.se if est.se > 0 else ""
                    row.update(n=args.n, N=args.reps, seed=seed, qhat=est.estimate,
                               se=est.se, q_exact=q_exact, z=z)
            except (SpecError, PreconditionError) as exc:
                row["status"] = f"error: {exc}"
            rows.append(row)
    if args.format == "json":
        _emit(_json_dumps(rows), args.out)
    else:
        _emit(_csv(rows, columns), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, *, need_r: bool = True) -> None:
    p.add_argument("--dist", required=True, help="distribution spec, e.g. regular:b=5")
    if need_r:
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
