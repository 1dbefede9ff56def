"""Command-line interface: formats, exit codes, determinism, sweeps."""

import ast
import csv
import glob
import io
import json
import os
import stat
import subprocess
import sys
import time

import pytest

import gwboot
from gwboot.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pc_json_regular(capsys):
    code, out, _ = run_cli(capsys, "pc", "--dist", "regular:b=3", "--r", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pc"] == pytest.approx(1 / 9, abs=1e-12)
    assert payload["r"] == 2
    assert payload["spec"] == "regular:b=3"
    assert payload["method"] == "closed-form"


def test_pc_json_roundtrip_bytes(capsys):
    code, out, _ = run_cli(capsys, "pc", "--dist", "geometric:b=3", "--r", "2", "--format", "json")
    assert code == 0
    again = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert again == out


def test_pc_mass_below_threshold(capsys):
    code, out, _ = run_cli(capsys, "pc", "--dist", "pmf:1=0.5,3=0.5", "--r", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["pc"] == 1.0


def test_pc_mismatched_heavy_threshold(capsys):
    # heavy:r=3 summed at threshold 2 is G(x) = x: the context is built once and
    # evaluated in ms, and its body is summed to infinity, so M = G(1) = 1
    code, out, _ = run_cli(capsys, "pc", "--dist", "heavy:r=3", "--r", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "maximization"
    assert payload["pc"] == 0.0 and payload["M"] == 1.0


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("argv", [
    ["pc", "--dist", "poisson:b=760", "--r", "3"],
    ["bounds", "--dist", "poisson:b=760", "--r", "3"],
    ["sweep", "--dist", "poisson:b=740", "--r", "3", "--b-grid", "740:760:10"],
    ["pc", "--dist", "pmf:1=0.5,3=0.5", "--r", "2"],
])
def test_json_of_a_subcritical_mass_result_is_strict(capsys, argv):
    # M is infinite here; it was written as Infinity, which a strict parser refuses
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_constant=_refuse_constant)
    rows = payload if argv[0] == "sweep" else [payload["pc"] if argv[0] == "bounds" else payload]
    assert [row["M"] for row in rows] == [None] * len(rows)
    assert all(row["method"] == "subcritical-mass" for row in rows)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and (",inf," in out) == (argv[0] != "bounds")  # CSV keeps inf


def test_pc_table_output(capsys):
    code, out, _ = run_cli(capsys, "pc", "--dist", "regular:b=3", "--r", "2")
    assert code == 0
    assert "pc:" in out and "0.1111111111111" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "pc", "--dist", "nonsense:q=1", "--r", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["pc", "--dist", "regular:b=5,r=7,a=3", "--r", "2"],
    ["pc", "--dist", "heavy:r=2,b=5", "--r", "2"],
    ["bounds", "--dist", "poisson:b=5,a=9", "--r", "2"],
    ["sweep", "--dist", "geometric:b=3,r=2", "--r", "2", "--b-grid", "3:5:1"],
])
def test_parameters_the_family_does_not_take_exit_2(capsys, argv):
    # these exited 0 and dropped the parameter: pc printed spec: regular:b=5
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and "takes only" in err


@pytest.mark.parametrize("spec", ["regular:b=3,b=4", "twopoint:b=4,a=9,a=11", "poisson:b=6,"])
def test_a_repeated_key_or_an_empty_item_exits_2(capsys, spec):
    # regular:b=3,b=4 exited 0 and printed p_c of regular:b=4
    code, out, err = run_cli(capsys, "pc", "--dist", spec, "--r", "2")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_precondition_exit_code(capsys):
    code, _, err = run_cli(capsys, "pc", "--dist", "regular:b=3", "--r", "1")
    assert code == 3
    assert "error" in err


def test_a_poisson_law_past_the_table_cap_exits_3(capsys):
    # the pmf table of poisson:b=1978802 would hold ENUM_CAP entries: refused
    # from its length alone, as the moment sums refuse it; b = 1978801 answers
    code, out, err = run_cli(capsys, "pc", "--dist", "poisson:b=1978802", "--r", "2")
    assert code == 3
    assert out == "" and err.startswith("error: ") and "pmf table" in err
    code, out, _ = run_cli(capsys, "pc", "--dist", "poisson:b=1978801", "--r", "2")
    assert code == 0 and "pc:" in out


def test_bounds_threshold_below_2_exit_code(capsys):
    # refused before the branching bound, which divides by r - 1
    code, out, err = run_cli(capsys, "bounds", "--dist", "regular:b=3", "--r", "1")
    assert code == 3
    assert out == "" and err.splitlines() == ["error: bounds_report requires r >= 2"]


@pytest.mark.parametrize("r", ["0", "-1"])
def test_simulate_threshold_below_1_exit_code(capsys, r):
    # at r <= 0 every vertex would count as unsafe, whatever its marks
    code, out, err = run_cli(capsys, "simulate", "--dist", "regular:b=3", "--r", r, "--p", "0.2",
                             "--n", "3", "--reps", "5", "--seed", "1")
    assert code == 3
    assert out == "" and err.splitlines() == ["error: threshold r must be >= 1"]


def test_simulate_validates_before_it_warns(capsys):
    # a budget of 0 is refused before the budget warning is printed
    code, out, err = run_cli(capsys, "simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0.2",
                             "--n", "3", "--reps", "5", "--seed", "1", "--budget", "0")
    assert code == 3
    assert out == "" and err.splitlines() == ["error: budget must be >= 1"]


@pytest.mark.parametrize("extra, message", [
    (["--reps", "-5"], "need at least one replicate"),
    (["--reps", "5", "--n", "-1"], "depth must be >= 0"),
    (["--reps", "5", "--budget", "0"], "budget must be >= 1"),
])
def test_sweep_validates_monte_carlo_arguments_once(capsys, extra, message):
    # refused as simulate refuses them, before a seed is drawn: these printed a
    # generated seed and one error status per row, and exited 0
    code, out, err = run_cli(capsys, "sweep", "--dist", "regular:b=3", "--r", "2",
                             "--p-grid", "0:1:0.5", *extra)
    assert code == 3
    assert out == "" and err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("grid", [
    ["--p-grid", "0:1:0.5"], ["--p-grid", "0:1:0.5", "--reps", "5"], ["--b-grid", "3:4:1"],
], ids=["p-grid", "p-grid-reps", "b-grid"])
def test_sweep_refuses_r_below_2_once(capsys, grid):
    # as pc and bounds refuse it: these printed an error status on every row (and a
    # generated seed with --reps), and exited 0
    code, out, err = run_cli(capsys, "sweep", "--dist", "regular:b=3", "--r", "1", *grid)
    assert code == 3
    assert out == "" and err.splitlines() == ["error: threshold r must be >= 2"]


@pytest.mark.parametrize("alpha", ["1", "0", "nan"])
def test_bounds_alpha_outside_unit_interval_exit_code(capsys, alpha):
    code, out, err = run_cli(capsys, "bounds", "--dist", "regular:b=5", "--r", "2", "--alpha", alpha)
    assert code == 3
    assert out == "" and "alpha" in err


_BIG = str(10**23)


@pytest.mark.parametrize("argv", [
    # a grid without end or with a NaN never returned, or returned one row or none
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "0:inf:0.5"],
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--b-grid", "3:inf:1"],
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "0:1:nan"],
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "nan:1:0.1"],
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "0:1e300:1e-300"],
    # infinite b, a NaN probability, integers past 2^53
    ["pc", "--dist", "poisson:b=inf", "--r", "2"],
    ["pc", "--dist", "geometric:b=inf", "--r", "2"],
    ["pc", "--dist", "pruned:r=2,b=inf", "--r", "2"],
    ["pc", "--dist", "pmf:2=nan,3=1", "--r", "2"],
    ["pc", "--dist", "regular:b=9223372036854775807", "--r", "2"],
    ["pc", "--dist", f"twopoint:b=3,a={_BIG}", "--r", "2"],
    ["pc", "--dist", f"pmf:{_BIG}=1", "--r", "2"],
    ["pc", "--dist", f"heavy:r={_BIG}", "--r", "2"],
])
def test_malformed_numbers_exit_with_one_error_line(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code in (2, 3)
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "1:2"],
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "0:1:0"],
    ["sweep", "--dist", "heavy:r=2", "--r", "2", "--b-grid", "3:5:1"],
    ["pc", "--dist", "regular:b=2.5", "--r", "2"],
    ["pc", "--dist", "twopoint:b=4", "--r", "2"],
    ["pc", "--dist", "twopoint:b=2,a=5", "--r", "2"],
    ["pc", "--dist", "heavy:r=1", "--r", "2"],
    ["pc", "--dist", "pruned:r=1,b=5", "--r", "2"],
    ["pc", "--dist", "pmf:2=0.5,2=0.5", "--r", "2"],
])
def test_outside_input_is_refused_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_sweep_p_grid_past_1_ends_in_an_error_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--dist", "regular:b=3", "--r", "2",
                           "--p-grid", "0.9:1.1:0.1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["status"] for row in rows] == ["ok", "ok", "error: p must lie in [0, 1]"]


def test_simulate_below_threshold_2_has_no_exact_q(capsys):
    # h is defined for r >= 2: at r = 1 there is no q_exact and so no z
    code, out, _ = run_cli(capsys, "simulate", "--dist", "regular:b=3", "--r", "1", "--p", "0.2",
                           "--n", "3", "--reps", "20", "--seed", "1", "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["q_exact"] == "" and row["z"] == ""


def test_a_heavy_law_far_above_r_answers_pc_0_within_1s(capsys):
    # its body above r is D_r(s-1, x), summed in closed form at any s: no atom
    # per k between r and s
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "pc", "--dist", "heavy:r=1000000000000", "--r", "2", "--format", "json")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and err == ""
    assert json.loads(out)["pc"] == 0.0


@pytest.mark.parametrize("spec", ["geometric:b=1e17", "poisson:b=1e17"])
def test_shifted_laws_too_wide_to_enumerate_fail_fast(capsys, spec):
    # (b-2)/(b-1) rounds to 1 and the Poisson tail sums O(sqrt(b)) terms:
    # these raised a ZeroDivisionError and never returned
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "pc", "--dist", spec, "--r", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("spec", ["geometric:b=1e17", "geometric:b=1e6", "poisson:b=1e17"])
def test_bounds_on_laws_too_wide_to_enumerate_fail_fast(capsys, spec):
    # the moment sums refuse the laws pc refuses; geometric:b=1e17 raised a
    # numpy ValueError traceback and geometric:b=1e6 enumerated for over 10 s
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--dist", spec, "--r", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_seed_outside_the_philox_key_range(capsys, seed):
    code, out, err = run_cli(capsys, "simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0.2",
                             "--n", "3", "--reps", "5", "--seed", seed)
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_budget_env_variable_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("GWBOOT_BUDGET", "abc")
    code, out, err = run_cli(
        capsys, "simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0.2",
        "--n", "3", "--reps", "5", "--seed", "1",
    )
    assert code == 2
    assert out == "" and err == "error: GWBOOT_BUDGET must be an integer; got 'abc'\n"


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--dist", "regular:b=10", "--r", "2")
    assert code == 0
    for name in ("lb_second_moment", "lb_fort", "lb_branching_exact", "ub_fort", "ub_regular_rd"):
        assert name in out


def test_bounds_heavy_vacuous_flags(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--dist", "heavy:r=2", "--r", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    flags = {e["name"]: e["valid"] for e in payload["bounds"]}
    assert flags["lb_branching_exact"] is False
    assert payload["pc"]["pc"] <= 1e-6


def test_simulate_p0(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0",
        "--n", "3", "--reps", "200", "--seed", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["qhat"] == 1.0 and payload["se"] == 0.0


def test_simulate_replay_identical_bytes(capsys):
    args = ("simulate", "--dist", "geometric:b=3", "--r", "2", "--p", "0.2",
            "--n", "4", "--reps", "500", "--seed", "42", "--format", "csv")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "spec,r,p,n,N,seed,qhat,se,q_exact,z"


def test_simulate_generates_and_prints_seed(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0.1",
        "--n", "2", "--reps", "50", "--format", "json",
    )
    assert code == 0
    assert "seed:" in err
    assert json.loads(out)["seed"] >= 0


def test_sweep_b_grid_scaled_column(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--dist", "regular:b=3", "--r", "2",
        "--b-grid", "3:30:1", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index("pc_times_2b2")
    vals = [float(row.split(",")[idx]) for row in lines[1:]]
    # pc(T_b,2) * 2b^2 -> 1 from above as b grows
    assert vals[-1] < vals[0]
    assert abs(vals[-1] - 1.0) < 0.15


@pytest.mark.parametrize("argv, columns, spec", [
    (["pc", "--dist", "pruned:r=2,b=20", "--r", "2"], 7, "pruned:r=2,b=20"),
    (["pc", "--dist", "twopoint:b=4,a=9", "--r", "2"], 7, "twopoint:b=4,a=9"),
    (["sweep", "--dist", "pruned:r=2,b=20", "--r", "2", "--b-grid", "30:40:5"], 10,
     "pruned:r=2,b=30"),
])
def test_csv_quotes_fields_with_commas(capsys, argv, columns, spec):
    # spec labels and error statuses may hold commas; every row parses back whole
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows[0]) == columns
    assert all(len(row) == columns for row in rows[1:])
    assert rows[1][rows[0].index("spec")] == spec


def test_sweep_b_grid_prefers_closed_form_like_pc(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--dist", "regular:b=3", "--r", "2",
                           "--b-grid", "3:5:1", "--format", "json")
    assert code == 0
    for row in json.loads(out):
        code, pc_out, _ = run_cli(capsys, "pc", "--dist", row["spec"], "--r", "2", "--format", "json")
        assert code == 0
        pc = json.loads(pc_out)
        assert row["method"] == pc["method"] == "closed-form"
        assert [row[k] for k in ("pc", "x_star", "M", "err")] == [pc[k] for k in ("pc", "x_star", "M", "err")]
    assert json.loads(out)[0]["x_star"] == 0.75


def test_sweep_b_grid_across_the_underflow_of_mass_below_r(capsys):
    # P(xi < 3) reads 0.0 from b = 748 on; every row keeps its mass at 2
    code, out, _ = run_cli(capsys, "sweep", "--dist", "poisson:b=740", "--r", "3",
                           "--b-grid", "740:760:1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 21
    assert all((row["pc"], row["method"]) == (1.0, "subcritical-mass") for row in rows)


def test_sweep_b_grid_of_a_two_point_law(capsys):
    # any family with b sweeps it, keeping its other parameters; b = 11 > a is refused in its row
    code, out, _ = run_cli(capsys, "sweep", "--dist", "twopoint:b=4,a=9", "--r", "2",
                           "--b-grid", "3:11:1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["spec"] for row in rows[:3]] == ["twopoint:b=3,a=9", "twopoint:b=4,a=9", "twopoint:b=5,a=9"]
    assert [row["pc"] for row in rows[:3]] == pytest.approx([5 / 12, 0.3, 0.125], rel=1e-14)
    assert [row["method"] for row in rows[:3]] == ["closed-form"] * 3
    assert [row["status"] for row in rows] == ["ok"] * 7 + ["error: two_point requires a >= b"] * 2


def test_sweep_b_grid_flags_contradicting_closed_form(capsys, monkeypatch):
    import gwboot.critical as critical

    real = critical.pc_closed_form

    def shifted(spec, r):
        res = real(spec, r)
        return None if res is None else critical.CriticalResult(
            res.pc + 0.01, res.x_star, res.M, res.method, res.err, spec, r)

    monkeypatch.setattr(critical, "pc_closed_form", shifted)
    code, out, err = run_cli(capsys, "sweep", "--dist", "regular:b=3", "--r", "2",
                             "--b-grid", "3:4:1", "--format", "json")
    assert code == 4
    rows = json.loads(out)
    assert all(row["status"].startswith("error: closed form") for row in rows)
    assert all(row["method"] == "maximization" for row in rows)
    assert err.count("contradicts maximization") == 2
    code, _, err = run_cli(capsys, "pc", "--dist", "regular:b=3", "--r", "2")
    assert code == 4 and "contradicts maximization" in err


def test_sweep_empty_grid_header_only(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--dist", "regular:b=3", "--r", "2", "--b-grid", "5:4:1",
    )
    assert code == 0
    assert out.strip() == "spec,r,b,pc,x_star,M,err,pc_times_2b2,method,status"


def test_sweep_p_grid_qlimit_drops(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "0:0.3:0.02",
    )
    assert code == 0
    lines = out.splitlines()
    cols = lines[0].split(",")
    qi = cols.index("qlimit")
    qlims = [float(r.split(",")[qi]) for r in lines[1:]]
    assert all(qlims[i + 1] <= qlims[i] + 1e-12 for i in range(len(qlims) - 1))
    assert qlims[0] == pytest.approx(1.0)
    assert qlims[-1] < 1e-6  # p = 0.3 is far above pc = 1/9


@pytest.mark.parametrize("text, points", [
    ("1e-13:5e-13:1e-13", [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]),
    ("0:1e-14:1e-15", [float(f"{i}e-15") for i in range(11)]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
])
def test_grid_of_small_steps_has_its_own_points(text, points):
    # an absolute end slack of 1e-9 and rounding to 12 decimals once gave 10,005
    # and 1,000,011 points for the first two, starting with p = 0.0 five times
    from gwboot.cli import _parse_grid

    assert _parse_grid(text) == points


def test_sweep_p_grid_of_small_p(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--dist", "pruned:r=2,b=30", "--r", "2", "--p-grid", "1e-13:5e-13:1e-13",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(row["p"]) for row in rows] == [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]


def test_sweep_rejects_double_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--dist", "regular:b=3", "--r", "2",
        "--p-grid", "0:1:0.5", "--b-grid", "3:4:1",
    )
    assert code == 2
    assert "error" in err


def test_sweep_row_failure_recorded_not_fatal(capsys):
    # b = 2 is invalid for the geometric family; the row reports the error
    code, out, _ = run_cli(
        capsys, "sweep", "--dist", "geometric:b=3", "--r", "2", "--b-grid", "2:4:1",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "error" in lines[1]
    assert lines[2].endswith("ok") and lines[3].endswith("ok")


def test_out_file_atomic_write(capsys, tmp_path):
    target = tmp_path / "res.json"
    code, _, _ = run_cli(
        capsys, "pc", "--dist", "regular:b=4", "--r", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["pc"] == pytest.approx(
        1 - (3 ** 5) / (4 ** 3 * 2 ** 2), abs=1e-12
    )
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".gwboot-")]
    assert leftovers == []


@pytest.mark.parametrize("where", ["missing/res.json", "a_directory"])
def test_out_that_cannot_be_written_exits_3(capsys, tmp_path, where):
    # a missing directory raised FileNotFoundError from mkstemp and a directory
    # IsADirectoryError from os.replace: a traceback and exit 1
    (tmp_path / "a_directory").mkdir()
    target = tmp_path / where
    code, out, err = run_cli(capsys, "pc", "--dist", "regular:b=3", "--r", "2", "--out", str(target))
    assert code == 3
    assert out == "" and err.startswith(f"error: cannot write {target}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["a_directory"]
    assert os.listdir(tmp_path / "a_directory") == []


@pytest.mark.parametrize("umask, before, after", [(0o022, None, 0o644), (0o077, None, 0o600),
                                                  (0o022, 0o640, 0o640), (0o077, 0o664, 0o664)],
                         ids=["new-022", "new-077", "kept-640", "kept-664"])
def test_out_has_the_mode_of_a_plain_write(capsys, tmp_path, umask, before, after):
    # a new file is 0666 less the umask and a replaced one keeps its mode; the
    # temporary file's 0600 once stood in both cases
    target = tmp_path / "res.json"
    if before is not None:
        target.write_text("old\n")
        target.chmod(before)
    old = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "pc", "--dist", "regular:b=3", "--r", "2", "--out", str(target))
    finally:
        os.umask(old)
    assert code == 0 and target.read_text().startswith("spec:")
    assert stat.S_IMODE(target.stat().st_mode) == after


def test_sweep_p_grid_with_replicates(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--dist", "regular:b=3", "--r", "2",
        "--p-grid", "0.1:0.3:0.1", "--n", "3", "--reps", "400", "--seed", "5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    cols = lines[0].split(",")
    for name in ("qhat", "se", "q_exact", "z", "qlimit"):
        assert name in cols
    assert len(lines) == 4
    qi, qe = cols.index("qhat"), cols.index("q_exact")
    for row in lines[1:]:
        parts = row.split(",")
        assert abs(float(parts[qi]) - float(parts[qe])) < 0.12


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("GWBOOT_BUDGET", "10")
    code, _, err = run_cli(
        capsys, "simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0.2",
        "--n", "3", "--reps", "5", "--seed", "1",
    )
    # budget of 10 vertices cannot hold the 40-vertex tree: every replicate
    # is truncated, which is a precondition failure
    assert code == 3
    assert "budget" in err


def test_bounds_json_roundtrip_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--dist", "geometric:b=4", "--r", "2", "--format", "json",
    )
    assert code == 0
    again = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert again == out


def test_inconsistency_exit_code(capsys, monkeypatch):
    import gwboot.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.bounds_mod, "sandwich_violations", lambda rep, tol=1e-8: ["forced"]
    )
    code, _, err = run_cli(capsys, "bounds", "--dist", "regular:b=5", "--r", "2")
    assert code == 4
    assert "sandwich violation" in err


def test_budget_warning(capsys):
    # the expected size counts the vertices a block grows, the children of
    # unmarked vertices: sum ((1-p) 4)^i over levels 0..4 at p = 0.3 is 95.1,
    # past half the budget of 150, so the warning fires
    code, _, err = run_cli(
        capsys, "simulate", "--dist", "regular:b=4", "--r", "2", "--p", "0.3",
        "--n", "4", "--reps", "10", "--seed", "1", "--budget", "150",
    )
    assert code == 0
    assert "warning" in err
    assert "expected tree size ~95.1 " in err
    # under a budget of 400 it stays silent, though the full tree of
    # 1 + 4 + 16 + 64 + 256 = 341 vertices would pass half of it
    code, _, err = run_cli(
        capsys, "simulate", "--dist", "regular:b=4", "--r", "2", "--p", "0.3",
        "--n", "4", "--reps", "10", "--seed", "1", "--budget", "400",
    )
    assert code == 0
    assert err == ""
    # at p = 0 every vertex grows: 1 + 3 + 9 + 27 + 81 = 121
    code, _, err = run_cli(
        capsys, "simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0",
        "--n", "4", "--reps", "10", "--seed", "1", "--budget", "200",
    )
    assert code == 0
    assert "expected tree size ~121 " in err



# the documented CSV columns; JSON and table carry the same keys, and
# simulate's JSON and table add ``truncated`` and ``stream_version``
_PC_KEYS = ["spec", "r", "pc", "x_star", "M", "method", "err"]
_BOUND_KEYS = ["spec", "r", "name", "kind", "value", "raw", "valid", "note"]
_MC_KEYS = ["spec", "r", "p", "n", "N", "seed", "qhat", "se", "q_exact", "z"]


def test_result_dicts_keep_their_json_keys():
    # the JSON keys of pc, of each bounds row and of an estimate, in field order
    d = gwboot.make_distribution("poisson:b=6")
    res = gwboot.pc_exact(d, 2)
    assert list(res.as_dict()) == ["pc", "x_star", "M", "method", "err", "spec", "r"]
    assert res.as_dict()["spec"] == "poisson:b=6"
    entry = gwboot.bounds.bounds_report(d, 2).entries[0]
    assert list(entry.as_dict()) == ["name", "kind", "value", "raw", "valid", "note"]
    est = gwboot.simulate.estimate_qn(d, 2, 0.2, 2, 10, 1)
    assert list(est.as_dict()) == ["estimate", "se", "replicates", "effective", "truncated", "seed",
                                   "p", "n", "r", "stream_version"]


def _carries(text, value):
    """True iff a CSV or table field shows the JSON value; reals carry 17 digits."""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, float):
        return float(text) == value
    return text == str(value)


def _check_csv(text, rows, keys):
    lines = text.splitlines()
    assert lines[0].split(",") == keys
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == len(keys)
        assert all(_carries(f, row[k]) for f, k in zip(fields, keys)), (line, row)


def _check_key_lines(text, payload, keys):
    """A table of ``key: value`` lines, one per key in order."""
    pairs = [line.split(":", 1) for line in text.splitlines()]
    assert [k for k, _ in pairs] == keys
    assert all(_carries(v.strip(), payload[k]) for k, v in pairs)


@pytest.mark.parametrize("argv", [
    ["pc", "--dist", "poisson:b=6", "--r", "2"],
    ["pc", "--dist", "heavy:r=3", "--r", "2"],
    ["bounds", "--dist", "poisson:b=6", "--r", "2"],
    ["simulate", "--dist", "regular:b=3", "--r", "2", "--p", "0.2", "--n", "4",
     "--reps", "300", "--seed", "7"],
    ["simulate", "--dist", "geometric:b=3", "--r", "2", "--p", "0", "--n", "3",
     "--reps", "50", "--seed", "1"],
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--p-grid", "0.1:0.3:0.1", "--n", "3",
     "--reps", "200", "--seed", "5"],
    ["sweep", "--dist", "regular:b=3", "--r", "2", "--b-grid", "3:8:1"],
])
def test_formats_carry_the_same_values(capsys, argv):
    out = {}
    for fmt in ("table", "csv", "json"):
        code, out[fmt], _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
    payload = json.loads(out["json"])
    cmd = argv[0]
    if cmd == "pc":
        assert sorted(payload) == sorted(_PC_KEYS)
        _check_csv(out["csv"], [payload], _PC_KEYS)
        _check_key_lines(out["table"], payload, _PC_KEYS)
    elif cmd == "bounds":
        assert sorted(payload) == ["bounds", "pc", "r", "spec"]
        rows = [{"spec": payload["spec"], "r": payload["r"], **e} for e in payload["bounds"]]
        assert all(sorted(e) == sorted(_BOUND_KEYS[2:]) for e in payload["bounds"])
        _check_csv(out["csv"], rows, _BOUND_KEYS)
        lines = out["table"].splitlines()
        assert lines[0] == f"spec: {payload['spec']}   r: {payload['r']}"
        assert _carries(lines[1].split()[1], payload["pc"]["pc"])
        assert lines[2].split() == ["name", "kind", "value", "valid", "note"]
        assert len(lines) == 3 + len(rows)
        for line, e in zip(lines[3:], payload["bounds"]):
            name, kind, value, valid, *note = line.split(None, 4)
            assert [name, kind, valid] == [e["name"], e["kind"], str(e["valid"]).lower()]
            assert _carries(value, e["value"]) and " ".join(note) == e["note"]
    elif cmd == "simulate":
        assert sorted(payload) == sorted(_MC_KEYS + ["truncated", "stream_version"])
        assert payload["stream_version"] == gwboot.simulate.STREAM_VERSION == 5
        _check_csv(out["csv"], [payload], _MC_KEYS)
        _check_key_lines(out["table"], payload, _MC_KEYS + ["truncated", "stream_version"])
    else:
        keys = (_MC_KEYS + ["qlimit", "converged", "status"] if "--p-grid" in argv else
                ["spec", "r", "b", "pc", "x_star", "M", "err", "pc_times_2b2", "method", "status"])
        assert all(sorted(row) == sorted(keys) for row in payload)
        _check_csv(out["csv"], payload, keys)
        assert out["table"] == out["csv"]  # sweep has no table of its own


# Runs CLI commands in one fresh interpreter and prints which modules of the
# test-only packages mpmath and scipy they imported.
_COLD_SCRIPT = """
import contextlib, io, json, sys
from gwboot.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("mpmath", "scipy"))))
"""


def _modules_loaded_by(commands):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwboot.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_commands_skip_scipy_stats_and_mpmath():
    commands = []
    for spec in ("regular:b=4", "poisson:b=6"):
        commands += [
            ["pc", "--dist", spec, "--r", "2"],
            ["bounds", "--dist", spec, "--r", "2"],
            ["simulate", "--dist", spec, "--r", "2", "--p", "0.1", "--n", "3",
             "--reps", "50", "--seed", "1"],
            ["sweep", "--dist", spec, "--r", "2", "--p-grid", "0.05:0.3:0.05"],
        ]
    assert _modules_loaded_by(commands) == []
    # the heavy and pruned laws sum their moment tails in closed form, and read
    # G at thresholds other than their own through the same telescoped sum
    commands = [["bounds", "--dist", "heavy:r=2", "--r", "2"],
                ["bounds", "--dist", "pruned:r=2,b=20", "--r", "2"]]
    for spec, r in (("heavy:r=3", "2"), ("pruned:r=3,b=16", "3")):
        commands += [["pc", "--dist", spec, "--r", r],
                     ["sweep", "--dist", spec, "--r", r, "--p-grid", "0.05:0.3:0.05"]]
    assert _modules_loaded_by(commands) == []


def test_package_never_imports_mpmath_or_scipy():
    # mpmath and scipy are test dependencies only; pyproject.toml does not declare them for the package
    package = os.path.dirname(os.path.abspath(gwboot.__file__))
    for name in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        with open(name) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] in ("mpmath", "scipy") for m in mods), (name, node.lineno)
