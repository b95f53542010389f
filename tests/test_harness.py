"""Suites, reports, CLI behavior, and determinism guarantees."""

import dataclasses
import json
import os
import random
import re
import shlex
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from rcgeom import CATALOG_NAMES, GeometryError, catalog_get, cli, engine, harness
from rcgeom.catalog import FIXTURE_NAMES, parse_spacetime_text
from rcgeom.cli import main
from rcgeom.checks import suite_of
from rcgeom.harness import (
    _RNG_SALT,
    CHECK_DEFS,
    SUITES,
    SuiteContext,
    canonical_json,
    resolve_model,
    run_suite,
    run_worldline,
)

RN_FILE = """
name = rn-from-file
coords = t, r, theta, phi
param M = 1.0
param q = 0.3
g[0][0] = "1 - 2*G*M/(c^2*r) + G*q^2/(c^4*r^2)"
g[1][1] = "-1/(1 - 2*G*M/(c^2*r) + G*q^2/(c^4*r^2))"
g[2][2] = "-r^2"
g[3][3] = "-r^2*sin(theta)^2"
A[0] = "q/r"
domain = "(r - 2*G*M/c^2) * sin(theta)"
grid.t = 0:0.5:2
grid.r = 3:10:4
grid.theta = 0.3:2.8416:3
grid.phi = 0.1:2:2
"""


def test_minkowski_all_suite_is_exact():
    rep = run_suite("all", resolve_model("minkowski"))
    assert rep.passed
    for c in rep.checks:
        assert c.max_residual is not None
        assert c.max_residual <= 1e-12, c.check_id


def test_einstein_suite_rn():
    rep = run_suite(
        "einstein",
        resolve_model("reissner-nordstrom"),
        grid_overrides={"t": [0.0], "phi": [0.1]},
    )
    assert rep.passed
    (check,) = rep.checks
    assert check.check_id == "einstein.residual"
    assert check.grid_points == 32
    assert check.max_residual <= 1e-8


def test_rc_suite_uncharged_reduces_to_lc():
    rep = run_suite("rc", resolve_model("schwarzschild"))
    assert rep.passed
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["rc.additivity"].max_residual == 0.0
    assert by_id["rc.decomposition"].max_residual <= 1e-8


def test_charge_ball_source_density_check():
    rep = run_suite("maxwell", resolve_model("charge-ball"))
    assert rep.passed
    by_id = {c.check_id: c for c in rep.checks}
    assert "em.source_density" in by_id
    assert by_id["em.source_density"].max_residual <= 1e-8


def test_every_check_id_has_a_definition():
    for suite in ("metric", "lc", "rc", "maxwell", "einstein", "dynamics", "gauge"):
        rep = run_suite(suite, resolve_model("minkowski"))
        for c in rep.checks:
            assert c.check_id in CHECK_DEFS


def test_report_schema_fields(tmp_path):
    rep = run_suite("metric", resolve_model("minkowski"))
    body = json.loads(rep.to_json())
    assert body["schema"] == 1
    assert body["spacetime"] == "minkowski"
    assert set(body["constants"]) == {"G", "c", "C"}
    assert body["diff_mode"] == "dual"
    assert "wall_ms" not in body
    for check in body["checks"]:
        assert {"id", "paper_anchor", "grid_points", "max_residual",
                "tolerance", "pass"} <= set(check)


def test_report_timing_opt_in():
    rep = run_suite("metric", resolve_model("minkowski"), include_timing=True)
    body = json.loads(rep.to_json())
    assert body["wall_ms"] >= 0.0


def test_tolerance_override_can_force_failure():
    # a zero tolerance fails any residual above 0 (here 1.1e-16)
    rep = run_suite(
        "metric", resolve_model("schwarzschild"), tol_overrides={"metric.inverse": 0.0}
    )
    assert not rep.passed


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_negative_or_non_finite_tolerance_is_bad_input(tol, tmp_path, capsys):
    """No residual can meet a negative tolerance: a usage error naming the
    check, exit 2, not a failed check; 0 stays a valid tolerance."""
    out = tmp_path / "r.json"
    argv = ["run", "--spacetime", "schwarzschild", "--suite", "metric", "--out", str(out)]
    assert main(argv + ["--tol", f"metric.inverse={tol!r}"]) == 2
    err = capsys.readouterr().err
    assert "must be finite and non-negative" in err and "metric.inverse" in err
    assert not out.exists()
    assert main(argv + ["--tol", "metric.signature=0"]) == 0


def test_fd_mode_within_ten_times_fd_tier():
    model = resolve_model("reissner-nordstrom")
    grid = {"t": [0.0], "phi": [0.1]}
    dual = run_suite("rc", model, mode="dual", grid_overrides=grid)
    fd = run_suite("rc", model, mode="fd", grid_overrides=grid)
    fd_by_id = {c.check_id: c for c in fd.checks}
    for c in dual.checks:
        other = fd_by_id[c.check_id]
        tier = CHECK_DEFS[c.check_id][2]
        if tier is None:
            continue
        assert abs(c.max_residual - other.max_residual) <= 10.0 * tier, c.check_id


def test_canonical_json_formatting():
    s = canonical_json({"a": 1.0, "b": 0.1, "c": [True, None, 3]})
    assert s == '{"a":1,"b":0.10000000000000001,"c":[true,null,3]}'
    assert canonical_json(float("nan")) == "null"


def test_cli_run_pass_and_report(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "run", "--spacetime", "reissner-nordstrom", "--suite", "einstein",
        "--grid", "t=0:0:1", "--grid", "phi=0.1:0.1:1",
        "--out", str(out),
    ])
    assert code == 0
    body = json.loads(out.read_text())
    assert body["checks"][0]["pass"] is True


def test_cli_determinism_across_jobs(tmp_path):
    args = ["run", "--spacetime", "reissner-nordstrom", "--suite", "rc",
            "--grid", "t=0:0:1", "--grid", "phi=0.1:0.1:1"]
    out1, out8 = tmp_path / "r1.json", tmp_path / "r8.json"
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "no-such-model", "--suite", "metric",
                 "--out", str(out)]) == 2
    assert main(["run", "--spacetime", "minkowski", "--suite", "metric",
                 "--tol", "metric.inverse=-1", "--out", str(out)]) == 2
    assert main(["run", "--spacetime", "schwarzschild", "--suite", "metric",
                 "--tol", "metric.inverse=0", "--out", str(out)]) == 1
    assert main(["run", "--spacetime", "minkowski", "--suite", "metric",
                 "--param", "badvalue", "--out", str(out)]) == 2


def test_cli_file_spacetime(tmp_path):
    path = tmp_path / "rn.spacetime"
    path.write_text(RN_FILE)
    out = tmp_path / "report.json"
    code = main(["run", "--spacetime", str(path), "--suite", "einstein",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["spacetime"] == "rn-from-file"


def test_cli_worldline_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main([
        "worldline", "--spacetime", "minkowski-constant-e",
        "--x0", "0,0,0,0", "--v0", "1,0,0,0", "--charge-ratio", "0.5",
        "--ds", "0.001", "--steps", "100", "--save-every", "20",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,x0,x1,x2,x3,V0,V1,V2,V3,norm_residual"
    assert len(lines) == 2 + 100 // 20  # header + sampled rows + final row
    summary = json.loads(capsys.readouterr().out)
    assert summary["oracle"]["name"] == "uniform-acceleration"
    assert summary["oracle"]["max_error"] <= 1e-10
    assert summary["max_norm_drift"] <= 1e-12


def test_worldline_summary_reports_rejected_steps():
    model = resolve_model("minkowski-constant-e")
    common = dict(x0=[0.0, 0.0, 0.0, 0.0], v0=[1.0, 0.0, 0.0, 0.0], charge_ratio=0.5,
                  steps=4)
    # a first step of 0.5 is far above the adaptive error tolerance
    adaptive, traj = run_worldline(model, ds=0.5, method="rk45-adaptive", **common)
    assert adaptive["rejected_steps"] == traj.rejected_steps > 0
    fixed, _ = run_worldline(model, ds=0.5, method="rk4", **common)
    assert fixed["rejected_steps"] == 0
    assert list(fixed)[:5] == ["spacetime", "charge_ratio", "method", "steps_taken",
                               "rejected_steps"]


def test_error_notes_print_points_as_plain_floats():
    # the grid starts inside the horizon of Reissner-Nordstrom
    rep = run_suite("all", resolve_model("reissner-nordstrom"),
                    grid_overrides={"r": np.linspace(0.5, 4.0, 6)})
    notes = {c.check_id: c.note for c in rep.checks if c.note}
    gauge = [cid for cid in CHECK_DEFS if cid.startswith("gauge.")]
    for cid in gauge:
        assert "point (0.0, 0.5, " in notes[cid], cid
    assert not [n for n in notes.values() if "np.float64" in n]


def test_cli_worldline_domain_exit(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main([
        "worldline", "--spacetime", "schwarzschild",
        "--x0", "0,3,1.5707963,0", "--v0", "1,-0.3,0,0",
        "--ds", "0.05", "--steps", "2000", "--out", str(out),
    ])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["domain_exit"] is True
    assert out.read_text().count("\n") > 2  # partial trajectory written


# Minkowski with two large oscillating off-diagonal terms, on a one-point grid:
# a start that the adaptive controller cannot finish in its budget.
BUDGET_FILE = """
name = fuzzed
coords = t, x, y, z
g[0][0] = "1"
g[0][2] = "0 + 40.0*(0.0473*cos(y + t))"
g[1][1] = "-1"
g[1][2] = "0 + 40.0*(-0.0786*cos(y + t))"
g[2][2] = "-1"
g[3][3] = "-1"
grid.t = 0:0:1
grid.x = 0:0:1
grid.y = 1.5707963267948966:1.5707963267948966:1
grid.z = 0:0:1
"""


@pytest.mark.parametrize("diff", ["dual", "fd"])
def test_cli_worldline_budget_is_a_result(diff, tmp_path, capsys):
    """An exhausted adaptive step budget ends the trajectory at its last
    accepted state, which the CSV and the summary hold, and exits 1."""
    path, out = tmp_path / "budget.spacetime", tmp_path / "traj.csv"
    path.write_text(BUDGET_FILE)
    code = main(["worldline", "--spacetime", str(path), "--diff", diff,
                 "--x0=0,-3,-4.305649518008166,-0.15697994736246018",
                 "--v0=1,0.1049442214013186,0.01855347262206547,1e-08",
                 "--method", "rk45-adaptive", "--charge-ratio=-0.3", "--ds", "0.01",
                 "--steps", "1", "--out", str(out)])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    s = summary["final_state"]["s"]
    assert 0.0 < s < 0.01
    assert summary["domain_exit"] is False and summary["budget_exhausted"] is True
    assert summary["exit_message"] == (
        f"adaptive integrator exceeded its budget of 20 attempts at s = {s!r}")
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == summary["steps_taken"] + 1 and rows[-1, 0] == s


@pytest.mark.parametrize("x0, v0", [("0,5,0,0", "1,0,0,0"), ("0,1,1,0", "1,1,0,0")],
                         ids=["on-the-axis", "inside-the-horizon"])
def test_cli_worldline_start_outside_the_domain_is_a_usage_error(x0, v0, tmp_path, capsys):
    """The start is tested before its velocity is normalised, which reads
    the metric there and tests no domain."""
    code = main(["worldline", "--spacetime", "schwarzschild", "--x0", x0, "--v0", v0,
                 "--ds", "0.1", "--steps", "2", "--out", str(tmp_path / "traj.csv")])
    assert code == 2
    point = ", ".join(str(float(v)) for v in x0.split(","))
    assert capsys.readouterr().err == (
        f"error: point ({point}) is outside the domain of 'schwarzschild'\n")


@pytest.mark.parametrize("command, option, value", [
    ("worldline", "--x0", "-0.1,0,0,0"),
    ("worldline", "--charge-ratio", "-1e-05"),
    ("gauge", "--phi", "-0.1*x"),
    ("worldline", "--charge", "-1e-05"),
], ids=["x0", "charge-ratio", "phi", "charge-ratio-abbreviated"])
def test_cli_values_that_start_with_a_dash_are_values(command, option, value, tmp_path, capsys):
    """``--opt -value`` is read as ``--opt=-value``, also where ``--opt`` is a
    unique prefix of the option: the same run, byte for byte."""
    argv = {"worldline": ["--spacetime", "minkowski", "--x0", "0,0,0,0", "--v0", "1,0,0,0",
                          "--ds", "0.1", "--steps", "3"],
            "gauge": ["--spacetime", "minkowski-constant-e"]}[command]
    runs = []
    for spelling in ([option, value], [f"{option}={value}"]):
        out = tmp_path / f"out-{len(runs)}"
        assert main([command, *argv, *spelling, "--out", str(out)]) == 0
        runs.append((out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ["--x0", "--v0", "1,0,0,0"],
    ["--x0", "-h", "--v0", "1,0,0,0"],
], ids=["next-is-an-option", "next-is-help"])
def test_cli_an_option_after_an_option_is_still_a_usage_error(argv, tmp_path, capsys):
    code = main(["worldline", "--spacetime", "minkowski", *argv, "--ds", "0.1",
                 "--steps", "3", "--out", str(tmp_path / "traj.csv")])
    assert code == 2
    assert "argument --x0: expected one argument" in capsys.readouterr().err


def test_cli_an_ambiguous_prefix_is_still_a_usage_error(tmp_path, capsys):
    code = main(["worldline", "--spacetime", "minkowski", "--x0", "0,0,0,0", "--v0", "1,0,0,0",
                 "--s", "-1", "--ds", "0.1", "--steps", "3", "--out", str(tmp_path / "traj.csv")])
    assert code == 2
    assert "ambiguous option: --s could match" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    ["--x0", "0,0,zero,0"],
    ["--save-every", "0"],
    ["--renormalize-every", "-1"],
    ["--ds", "nan"],
    ["--charge-ratio", "inf"],
    ["--x0", "0,0,nan,0"],
    ["--method", "rk45-adaptive", "--renormalize-every", "2"],
], ids=["x0-not-a-number", "save-every-0", "renormalize-every-negative", "ds-nan",
        "charge-ratio-inf", "x0-nan", "renormalize-every-adaptive"])
def test_cli_worldline_bad_input_is_a_usage_error(bad, tmp_path, capsys):
    argv = {"--x0": "0,0,0,0", "--v0": "1,0,0,0", "--charge-ratio": "0.5", "--ds": "0.01",
            "--save-every": "1", "--renormalize-every": "0"}
    argv.update(zip(bad[::2], bad[1::2]))
    code = main(["worldline", "--spacetime", "minkowski-constant-e", "--steps", "5",
                 "--out", str(tmp_path / "traj.csv"), *(f"{k}={v}" for k, v in argv.items())])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_gauge(tmp_path):
    out = tmp_path / "g.json"
    code = main(["gauge", "--spacetime", "charge-ball", "--phi", "0.5*t",
                 "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    ids = {c["id"] for c in body["checks"]}
    assert "gauge.scalar_shift" in ids
    assert "gauge.contorsion_delta" in ids
    assert "gauge.orbit" not in ids  # one gauge function has nothing to compose


def test_cli_gauge_with_two_phis_checks_the_orbit(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gauge", "--spacetime", "charge-ball", "--phi", "0.5*t", "--phi", "0.1*t*x",
                 "--out", str(out)]) == 0
    checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["gauge.orbit"]["pass"] is True
    assert checks["gauge.scalar_shift"]["grid_points"] == 2 * 8  # per gauge function


def test_cli_list(capsys):
    """Every catalog entry and fixture is listed, on one line with every
    parameter it declares and accepts as --param."""
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in CATALOG_NAMES + FIXTURE_NAMES:
        [line] = [ln for ln in lines if ln.split()[:1] == [name]]
        for key, value in catalog_get(name).params.items():
            assert f"{key}={value}" in line, (name, key)
    assert "pi=3.141592653589793" in lines[lines.index("fixtures:") + 1]


def test_resolve_model_variants(tmp_path):
    assert resolve_model("minkowski").name == "minkowski"
    assert resolve_model("charge-ball").name == "charge-ball"
    path = tmp_path / "rn.spacetime"
    path.write_text(RN_FILE)
    assert resolve_model(str(path)).name == "rn-from-file"
    with pytest.raises(Exception):
        resolve_model("not-a-thing")


def test_informational_checks_never_gate():
    rep = run_suite("dynamics", resolve_model("minkowski-constant-e"))
    by_id = {c.check_id: c for c in rep.checks}
    info = by_id["dyn.exchange_mass_flux"]
    assert info.tolerance is None
    assert info.passed
    assert info.max_residual > 0.0  # the documented gap is visible


def _with_dust(model, rho0):
    """The model with its comoving dust's proper density replaced."""
    return dataclasses.replace(model, meta={**model.meta, "dust": (rho0, *model.meta["dust"][1:])})


def test_dust_that_is_not_conserved_fails_the_conservation_row():
    """Negative control of dyn.exchange_conservation: comoving dust whose
    density grows in time is not conserved, and no other row notices."""
    ball = resolve_model("charge-ball")
    assert run_suite("dynamics", ball).passed
    rep = run_suite("dynamics", _with_dust(ball, "0.05*(1 + t)"))
    assert [c.check_id for c in rep.checks if not c.passed] == ["dyn.exchange_conservation"]
    row = {c.check_id: c for c in rep.checks}["dyn.exchange_conservation"]
    assert row.max_residual == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize("mode", ["dual", "fd"])
def test_dust_that_fails_at_a_point_fails_its_own_rows(mode):
    """The dust rows fail with a note naming the first point where the dust
    cannot be evaluated; every other row still runs."""
    rep = run_suite("all", _with_dust(resolve_model("charge-ball"), "log(t)"), mode=mode)
    failed = {c.check_id: c.note for c in rep.checks if not c.passed}
    assert sorted(failed) == ["dyn.exchange_conservation", "dyn.exchange_mass_flux"]
    for note in failed.values():
        assert note.startswith("EvalError: dust field 'rho0' at (0.0, -0.4, -0.4, -0.4): log of")


def test_check_table_rows_are_complete():
    """Every row has a point group and a residual; a gauge row reads a gauge
    pair (group "gauge" or "orbit"); a worldline row reads no field jets and
    needs a closed-form scenario; a row is informational exactly when it
    carries a note; every id's prefix names a suite."""
    groups = {"grid", "small", "random", "grid+random", "gauge", "orbit", "worldline"}
    for cid, row in CHECK_DEFS.items():
        assert suite_of(cid) in SUITES, cid
        assert row.group in groups and callable(row.residual), cid
        assert (row.dual is None) == (row.fd is None) == (row.note is not None), cid
        assert (suite_of(cid) == "gauge") == (row.group in ("gauge", "orbit")), cid
    assert {cid: (row.order, row.claim) for cid, row in CHECK_DEFS.items()
            if row.group == "worldline"} == {"dyn.closed_form": (0, "scenario"),
                                             "dyn.norm_drift": (0, "scenario")}


def _note_rule_holds(checks):
    """A report row carries a note exactly when it is informational or
    failed with an error."""
    for c in checks:
        informational = CHECK_DEFS[c["id"]].dual is None
        errored = c["max_residual"] is None and not c["pass"]
        assert ("note" in c) == (informational or errored), c["id"]


@pytest.mark.parametrize("name", CATALOG_NAMES + ("charge-ball",))
def test_a_row_carries_a_note_exactly_when_informational_or_errored(name, tmp_path,
                                                                    monkeypatch):
    """Over suite all, whose closed-form worldline, if the model has one, is
    integrated exactly once."""
    calls = []

    def counting(model, *args, **kwargs):
        calls.append(model.name)
        return integrate(model, *args, **kwargs)

    integrate = harness.integrate_worldline
    monkeypatch.setattr(harness, "integrate_worldline", counting)
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", name, "--suite", "all", "--out", str(out)]) == 0
    _note_rule_holds(json.loads(out.read_text())["checks"])
    assert calls == ([name] if "scenario" in catalog_get(name).meta else [])


# Starts that have no closed-form worldline, and the parameter each names.
BAD_STARTS = [("schwarzschild", "M=0", "got M = 0.0"), ("schwarzschild", "M=-1", "got M = -1.0"),
              ("minkowski-constant-e", "E=0", "got E = 0.0")]


@pytest.mark.parametrize("suite", ["all", "dynamics"])
@pytest.mark.parametrize("name,param,named", BAD_STARTS, ids=[p for _n, p, _m in BAD_STARTS])
def test_a_start_without_a_closed_form_fails_the_worldline_rows(name, param, named, suite,
                                                                 tmp_path):
    """Both worldline rows fail with the start's error, which names the
    parameter; every other row still runs and passes; the exit code is 1."""
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", name, "--param", param, "--suite", suite,
                 "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    _note_rule_holds(checks)
    failed = {c["id"]: c for c in checks if not c["pass"]}
    assert sorted(failed) == ["dyn.closed_form", "dyn.norm_drift"]
    for c in failed.values():
        assert c["note"].startswith("GeometryError: ") and c["note"].endswith(named)
    assert len(checks) > 2


def test_only_the_einstein_suite_ignores_the_exact_solution_claim():
    ball = resolve_model("charge-ball")  # not an exact solution
    assert not ball.meta.get("einstein_exact")
    assert [c.check_id for c in run_suite("einstein", ball).checks] == ["einstein.residual"]
    assert "einstein.residual" not in {c.check_id for c in run_suite("all", ball).checks}


def test_cli_suite_all_on_every_model_writes_json(tmp_path, capsys):
    """Every catalog entry and fixture runs --suite all to a loadable
    report, and together the reports cover exactly the check table."""
    seen = set()
    for name in CATALOG_NAMES + ("charge-ball",):
        out = tmp_path / f"{name}.json"
        assert main(["run", "--spacetime", name, "--suite", "all", "--out", str(out)]) == 0, name
        body = json.loads(out.read_text())
        assert all(c["pass"] is True for c in body["checks"]), name
        seen |= {c["id"] for c in body["checks"]}
    assert seen == set(CHECK_DEFS)


def test_empty_grid_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "minkowski", "--suite", "metric",
                 "--grid", "x=0:1:0", "--out", str(out)]) == 2
    assert "no points" in capsys.readouterr().err
    with pytest.raises(GeometryError):
        SuiteContext(catalog_get("minkowski"), grid_overrides={"t": []})


@pytest.mark.parametrize("args", [
    ["--param", "c=inf"],
    ["--param", "G=nan"],
    ["--tol", "metric.inverse=nan"],
    ["--tol", "metric.inverse=inf"],
    ["--grid", "r=nan:5:3"],
    ["--grid", "r=3:inf:3"],
    ["--param", "M=nan"],
    ["--param", "M=inf"],
], ids=["c-inf", "G-nan", "tol-nan", "tol-inf", "grid-nan", "grid-inf", "M-nan", "M-inf"])
def test_non_finite_input_is_a_usage_error(args, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "schwarzschild", "--suite", "metric", *args,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert args[1].split("=")[0] in err  # the message names the input
    assert not out.exists()


def test_a_grid_range_whose_distance_overflows_is_a_usage_error(tmp_path, capsys):
    """Finite bounds 3.4e308 apart: the range is rejected before np.linspace,
    which would warn of an overflow (an error under the test settings), so
    stderr holds the error line alone."""
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "minkowski", "--grid", "x=-1.7e308:1.7e308:3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bad --grid 'x=-1.7e308:1.7e308:3': grid bounds and their distance must be "
        "finite: -1.7e+308:1.7e+308\n")
    assert not out.exists()


@pytest.mark.parametrize("args,error", [
    (["--param", "M"], "bad --param 'M', expected NAME=VALUE"),
    (["--param", "M=heavy"], "bad --param value 'heavy'"),
    (["--tol", "metric.inverse"], "bad --tol 'metric.inverse', expected check=value"),
    (["--tol", "metric.inverse=tight"], "bad --tol value 'tight'"),
], ids=["param-form", "param-value", "tol-form", "tol-value"])
def test_a_malformed_name_value_option_is_a_usage_error(args, error, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "schwarzschild", "--suite", "metric", *args,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_non_finite_constant_in_a_definition_file_is_a_usage_error(tmp_path, capsys):
    """The error names the file; a catalog entry's names none."""
    path = tmp_path / "rn.spacetime"
    path.write_text(RN_FILE.replace("param q = 0.3", "param q = 0.3\nG = nan"))
    assert main(["run", "--spacetime", str(path), "--suite", "metric",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: constants must be finite and positive: G=nan, c=1.0\n")
    assert main(["run", "--spacetime", "schwarzschild", "--param", "G=nan", "--suite", "metric",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: constants must be finite and positive: G=nan, c=1.0\n"


def test_non_finite_parameter_in_a_definition_file_is_a_usage_error(tmp_path, capsys):
    """The error names the file, for a value in it or given by --param; a
    catalog entry's names none."""
    path = tmp_path / "rn.spacetime"
    for value in ("inf", "nan"):
        path.write_text(RN_FILE.replace("param q = 0.3", f"param q = {value}"))
        assert main(["run", "--spacetime", str(path), "--suite", "metric",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {path}: parameters must be finite: q={value}\n"
    path.write_text(RN_FILE)
    assert main(["run", "--spacetime", str(path), "--param", "M=nan", "--suite", "metric",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}: parameters must be finite: M=nan\n"
    assert main(["run", "--spacetime", "schwarzschild", "--param", "M=nan", "--suite", "metric",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: parameters must be finite: M=nan\n"


FLAT_FILE = """
name = flat-strong-field
coords = t, x, y, z
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "0.1*x"
grid.t = 0:1:2
grid.x = -1:1:3
grid.y = 0:1:2
grid.z = 0:1:2
"""


@pytest.mark.parametrize("constants", ["c = 1e200", "c = 1e-200", "G = 1e300\nc = 1e-3"],
                         ids=["c-overflows", "c-underflows", "coupling-overflows"])
def test_a_coupling_that_is_not_finite_and_nonzero_is_a_usage_error(constants, tmp_path, capsys):
    """c**4 overflows, c**4 is 0.0 (G / c**4 divides by zero), or G / c**4
    is inf: a load error that names the file, not a traceback or a coupling
    of inf."""
    path = tmp_path / "flat.spacetime"
    path.write_text(FLAT_FILE + constants + "\n")
    assert main(["run", "--spacetime", str(path), "--suite", "all",
                 "--out", str(tmp_path / "r.json")]) == 2
    G, c = (dict(line.split(" = ") for line in constants.split("\n")).get(n, "1")
            for n in ("G", "c"))
    assert capsys.readouterr().err == (f"error: {path}: the coupling G/c^4 must be finite and "
                                       f"nonzero: G={float(G)}, c={float(c)}\n")


NON_FINITE = "non-finite residual at ("


def _failed_notes(args, tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", *args, "--suite", "all", "--out", str(out)]) == 1
    return {c["id"]: c["note"] for c in json.loads(out.read_text())["checks"] if not c["pass"]}


def test_a_non_finite_residual_fails_its_row_with_a_note(tmp_path):
    """At E = 1e160 the stress tensor overflows, and inf - inf leaves NaN
    residuals that no error explains: each such row fails, naming the first
    point, where it used to pass at 0.  The dust rows, which raise, keep
    their error notes."""
    failed = _failed_notes(["--spacetime", "minkowski-constant-e", "--param", "E=1e160"],
                           tmp_path)
    rows = [cid for cid in CHECK_DEFS if cid.startswith("rc.")] + [
        "em.stress_trace", "em.stress_symmetry", "em.stress_conservation",
        "em.divergence_rc_lc", "em.energy_density"]
    for cid in rows:
        assert failed[cid] == NON_FINITE + "-0.5, -0.5, -0.5, -0.5)", cid
    for cid in ("dyn.exchange_mass_flux", "dyn.exchange_conservation"):
        assert failed[cid].startswith("EvalError: dust field 'rho0'"), cid


@pytest.mark.parametrize("args,line", [
    (["--spacetime", "schwarzschild", "--suite", "metric", "--grid", "r=1000:1000:1"],
     "FAIL  metric.inverse                   max_residual=n/a  MetricError: metric is "
     "numerically degenerate (det=-8.733e+10) at (0.0, 1000.0, 0.3, 0.1)"),
    (["--spacetime", "minkowski-constant-e", "--param", "E=1e160", "--suite", "all"],
     "FAIL  em.stress_trace                  max_residual=n/a  " + NON_FINITE
     + "-0.5, -0.5, -0.5, -0.5)"),
], ids=["degenerate-metric", "overflowing-stress"])
def test_stdout_names_the_note_of_a_failed_row_without_a_reading(args, line, tmp_path, capsys):
    """A row without a reading prints ``n/a`` and its note; a row with one
    prints its reading alone."""
    out = tmp_path / "r.json"
    assert main(["run", *args, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert line in lines
    checks = json.loads(out.read_text())["checks"]
    assert len(lines) == len(checks)
    for got, c in zip(lines, checks):
        status = "pass" if c["pass"] else "FAIL"
        res = (f"n/a  {c['note']}" if c["max_residual"] is None
               else format(c["max_residual"], ".3e"))
        assert got == f"{status}  {c['id']:32s} max_residual={res}"


def test_a_flat_metric_with_an_overflowing_field_fails(tmp_path):
    path = tmp_path / "flat.spacetime"
    path.write_text(FLAT_FILE.replace('"0.1*x"', '"1e160*x"'))
    failed = _failed_notes(["--spacetime", str(path)], tmp_path)
    assert all(note.startswith(NON_FINITE) for note in failed.values()), failed
    assert {cid for cid in CHECK_DEFS if cid.startswith("rc.")} <= failed.keys()


NEGATIVE_G00_FILE = """
name = negative-g00
coords = t, x, y, z
g[0][0] = "x"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
grid.t = 0:1:2
grid.x = 1:2:2
grid.y = 0:1:2
grid.z = 0:1:2
"""


def test_metric_checks_fail_and_name_the_point(tmp_path, capsys):
    """Negative control of metric.inverse and metric.signature: where g_00 < 0
    both fail, with a note naming the first point at fault."""
    path = tmp_path / "neg.spacetime"
    path.write_text(NEGATIVE_G00_FILE)
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", str(path), "--suite", "metric",
                 "--grid", "x=-2:-1:2", "--out", str(out)]) == 1
    checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
    note = ("SignatureError: metric determinant must be negative, got 2.000e+00 "
            "at (0.0, -2.0, 0.0, 0.0)")
    for cid in ("metric.inverse", "metric.signature"):
        assert checks[cid]["pass"] is False and checks[cid]["note"] == note, cid
    # at load time the same fault is a load error that names the grid point
    path.write_text(NEGATIVE_G00_FILE.replace("grid.x = 1:2:2", "grid.x = -2:-1:2"))
    assert main(["run", "--spacetime", str(path), "--suite", "metric",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: metric determinant must be negative, got 2.000e+00 "
        "at grid point (0.0, -2.0, 0.0, 0.0)\n")


# Flat but for g_00 and g_33, loaded at x = 1, where both are Lorentzian.
ONE_FAULT_FILE = """
name = one-fault
coords = t, x, y, z
g[0][0] = "{g00}"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "{g33}"
A[0] = "0.1*x"
grid.t = 0:0:1
grid.x = 1:1:1
grid.y = 0:0:1
grid.z = 0:0:1
"""


@pytest.mark.parametrize("g00, g33, grid, note", [
    ("1", "-x^2", "x=0:0:1",
     "MetricError: metric is numerically degenerate (det=0.000e+00) at (0.0, 0.0, 0.0, 0.0)"),
    ("x", "-1", "x=-2:-1:2",
     "SignatureError: metric determinant must be negative, got 2.000e+00 "
     "at (0.0, -2.0, 0.0, 0.0)"),
], ids=["degenerate-g33", "positive-det-g00"])
def test_one_metric_fault_reads_one_note_on_every_row(g00, g33, grid, note, tmp_path):
    """A metric fault at one point fails every row that reads the metric
    with one note, whichever member met it first: ``ginv``, ``sqrt_g`` or
    the assembled ``metric``.  Where no timelike vector exists, the probe
    velocity's own fault is the only other note."""
    path = tmp_path / "one-fault.spacetime"
    path.write_text(ONE_FAULT_FILE.format(g00=g00, g33=g33))
    failed = _failed_notes(["--spacetime", str(path), "--grid", grid], tmp_path)
    metric_notes = [n for n in failed.values() if n.startswith(("MetricError", "SignatureError"))]
    assert len(metric_notes) >= 9 and set(metric_notes) == {note}, failed
    assert set(failed.values()) - {note} <= {
        "ConsistencyError: could not build a timelike test velocity at (0.0, -2.0, 0.0, 0.0)"}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_worldline_example(tmp_path, capsys):
    """README's ``verify worldline`` example prints the summary line README
    shows, byte for byte."""
    text = README.read_text(encoding="utf-8")
    command = re.search(r"```\n(verify worldline .*?)\n```", text, re.S).group(1)
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "traj.csv")
    summary = re.search(r'```\n(\{"spacetime":.*)\n```', text).group(1)
    assert main(argv) == 0
    assert capsys.readouterr().out == summary + "\n"


def test_unknown_tolerance_id_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "minkowski", "--suite", "metric",
                 "--tol", "no.such.check=1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no.such.check" in err and "metric.inverse" in err
    assert main(["gauge", "--spacetime", "minkowski", "--phi", "t",
                 "--tol", "gauge.typo=1", "--out", str(out)]) == 2
    assert "gauge.orbit" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["(" * 500 + "r" + ")" * 500, " + ".join(["r"] * 3000)],
                         ids=["nested-parentheses", "long-sum"])
def test_deep_expression_file_is_a_usage_error(tmp_path, capsys, expr):
    path = tmp_path / "deep.spacetime"
    path.write_text(RN_FILE.replace('A[0] = "q/r"', f'A[0] = "{expr}"'))
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", str(path), "--suite", "metric", "--out", str(out)]) == 2
    assert "deeper than" in capsys.readouterr().err


def test_internal_error_exit_status(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_suite", broken)
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "minkowski", "--out", str(out)]) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_gauge_scenario_shares_one_snapshot_pair_per_point(monkeypatch):
    """One unshifted batch shared by the three gauge functions, one shifted
    batch per function, and one batch per model of the composition check."""
    built = []
    init = engine.GeometrySnapshot.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.GeometrySnapshot, "__init__", counting)
    rep = run_suite("gauge", resolve_model("minkowski-constant-e"))
    assert rep.passed
    assert len(built) == 1 + 3 + 2


CHARGED_BOX_FILE = """
name = charged-box
coords = t, x, y, z
param E = 0.5
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "-(E*x)"
grid.t = 0:0.5:2
grid.x = -0.5:0.5:2
grid.y = -0.5:0.5:2
grid.z = -0.5:0.5:2
"""


def test_cli_constants_reach_a_definition_file(tmp_path):
    path = tmp_path / "box.spacetime"
    path.write_text(CHARGED_BOX_FILE)
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", str(path), "--suite", "metric",
                 "--param", "G=2", "--param", "c=0.5", "--param", "E=0.25",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert '"constants":{"G":2,"c":0.5,"C":32}' in text
    assert resolve_model(str(path), {"E": 0.25}, G=2.0).constants.G == 2.0


KN_FILE = str(Path(__file__).resolve().parents[1] / "bench" / "kerr_newman.spacetime")


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("spec", CATALOG_NAMES + ("charge-ball", KN_FILE))
def test_every_row_passes_at_non_unit_constants(tmp_path, spec, mode):
    """At G = 0.7 and c = 1.3 every power of G and c in the engine differs
    from 1 (the coupling G/c^4, the current's c, the split's 8 pi C / c,
    the exchange's 1/c): every row of --suite all passes on every shipped
    model, at the default tolerances."""
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", spec, "--suite", "all", "--diff", mode,
                 "--param", "G=0.7", "--param", "c=1.3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["constants"]["G"] == 0.7 and report["constants"]["c"] == 1.3
    assert [c["id"] for c in report["checks"] if not c["pass"]] == []


def test_gauge_orbit_counts_the_points_it_composes():
    one_point = {"t": [0.1], "x": [0.2], "y": [0.0], "z": [-0.1]}
    rep = run_suite("gauge", resolve_model("minkowski-constant-e"), grid_overrides=one_point)
    orbit = {c.check_id: c for c in rep.checks}["gauge.orbit"]
    assert orbit.grid_points == 1
    rep = run_suite("gauge", resolve_model("minkowski-constant-e"))
    assert {c.check_id: c for c in rep.checks}["gauge.orbit"].grid_points == 2


@pytest.mark.parametrize("phi", ["q*t", "t^"])
def test_bad_gauge_function_is_a_usage_error(phi, tmp_path, capsys):
    """An unknown identifier or a parse error in a gauge function is bad
    input (exit 2), not a failed check."""
    model = resolve_model("schwarzschild")
    with pytest.raises(GeometryError):
        run_suite("gauge", model, phis=[phi])
    with pytest.raises(GeometryError):
        run_suite("all", model, phis=["0.2*t", phi])
    out = tmp_path / "g.json"
    assert main(["gauge", "--spacetime", "schwarzschild", "--phi", phi, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("phi, error", [
    ("1e400", "non-finite value for field 'phi:1e400': inf"),
    ("log(0)", "log of non-positive argument 0.0"),
], ids=["inf", "log-zero"])
def test_constant_gauge_function_that_fails_is_a_usage_error(phi, error, tmp_path, capsys):
    """A gauge function that reads no coordinate is evaluated once, when it
    is parsed: a failure, or a value that is not finite, exits 2 naming the
    model and the function."""
    out = tmp_path / "g.json"
    assert main(["gauge", "--spacetime", "minkowski", "--phi", phi, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: minkowski: phi:{phi} cannot be evaluated: {error}\n"
    assert not out.exists()


def test_gauge_function_failing_at_a_point_is_a_failed_check(tmp_path):
    """Each gauge row fails with its own note, naming the gauge function and
    the point.  The rows that read only the unshifted side and phi's exact
    jet name the grid point; in fd mode the shifted side's stencils meet the
    function first at t = -1e-4."""
    out = tmp_path / "g.json"
    gauge = [cid for cid, row in CHECK_DEFS.items() if row.group == "gauge"]
    for mode in ("dual", "fd"):
        assert main(["gauge", "--spacetime", "schwarzschild", "--phi", "log(t)",
                     "--diff", mode, "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["id"] for c in checks] == gauge
        for c in checks:
            exact = mode == "dual" or c["id"] in ("gauge.contorsion_shift", "gauge.scalar_shift")
            t, arg = ("0.0", "0.0") if exact else ("-0.0001", "-0.0001")
            assert c["pass"] is False and c["max_residual"] is None
            assert c["note"] == (f"EvalError: gauge function 'phi:log(t)' at ({t}, 3.0, 0.3, 0.1): "
                                 f"log of non-positive argument {arg}"), c["id"]


def _random_points_one_at_a_time(model, n=100):
    """The draw as one sample and one domain test at a time."""
    rng = random.Random(zlib.crc32(model.name.encode()) ^ _RNG_SALT)
    box = model.sample_box()
    lo = np.array([box[c][0] for c in model.chart.names])
    hi = np.array([box[c][1] for c in model.chart.names])
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 100 * n:
        p = lo + (hi - lo) * np.array([rng.random() for _ in range(4)])
        attempts += 1
        if model.in_domain(p):
            pts.append(p)
    return np.array(pts)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("charge-ball",))
def test_random_points_match_a_one_at_a_time_draw(name):
    model = catalog_get(name)
    drawn = SuiteContext(model).random_points()
    reference = _random_points_one_at_a_time(model)
    assert drawn.shape == reference.shape == (100, 4)
    assert drawn.tobytes() == reference.tobytes()


ANNULUS_FILE = """
name = annulus
coords = t, x, y, z
domain = "x^2 + y^2 - {r2}"
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
grid.t = 0:1:2
grid.x = -1:1:2
grid.y = -1:1:2
grid.z = -1:1:2
"""


def test_random_points_keep_draw_order_and_the_attempt_cap():
    # the domain keeps about one draw in 26 of the sample box: many blocks,
    # and the kept points in draw order
    model = parse_spacetime_text(ANNULUS_FILE.format(r2=1.5))
    drawn = SuiteContext(model).random_points(n=20)
    assert drawn.tobytes() == _random_points_one_at_a_time(model, n=20).tobytes()
    # a domain hardly any draw meets: the cap of 100 * n attempts, then an error
    model = parse_spacetime_text(ANNULUS_FILE.format(r2=1.999))
    with pytest.raises(GeometryError, match="could not sample 5 points"):
        SuiteContext(model).random_points(n=5)


_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs the command line on its arguments and prints, last, whether numpy
# loaded numpy.random on its own import, how many random samples were
# drawn, and whether numpy.random was loaded after the command.
_LOADS_NUMPY_RANDOM = """
import sys
import numpy
on_import = "numpy.random" in sys.modules
from rcgeom import harness
from rcgeom.cli import main
draws = []
draw = harness.SuiteContext.random_points
harness.SuiteContext.random_points = lambda self, *a: draws.append(1) or draw(self, *a)
code = main(sys.argv[1:])
print(code, on_import, len(draws), "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("argv, draws", [
    (["run", "--spacetime", "reissner-nordstrom", "--suite", "all"], True),
    (["gauge", "--spacetime", "charge-ball", "--phi", "0.2*t"], False),
    (["worldline", "--spacetime", "schwarzschild", "--x0", "0,8,1.5707963267948966,0",
      "--v0", "1.224744871391589,0,0,0.054126587736527", "--ds", "0.1", "--steps", "20"], False),
])
def test_a_verdict_never_loads_numpy_random(tmp_path, argv, draws):
    """The random sample comes from the standard library's generator, so no
    command loads ``numpy.random`` (about 6 MiB of resident memory)."""
    out = tmp_path / ("out.csv" if argv[0] == "worldline" else "out.json")
    proc = subprocess.run([sys.executable, "-c", _LOADS_NUMPY_RANDOM, *argv, "--out", str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC}, check=True)
    code, on_import, drawn, loaded = proc.stdout.splitlines()[-1].split()
    if on_import == "True":
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert (code, loaded) == ("0", "False")
    assert (int(drawn) > 0) == draws


# -- orbits of the coordinates no field reads --------------------------------------

_KN = str(Path(__file__).parent.parent / "bench" / "kerr_newman.spacetime")

ORBIT_RUNS = {
    # the 512-point Kerr-Newman grid of the benchmark, seed 0: 128 orbits of 4
    "kn-512-all": ["run", "--spacetime", _KN, "--param", "a=0.5955909499238541",
                   "--param", "q=0.3295498368901768", "--suite", "all",
                   "--grid", "r=3.2573502729668338:10.257350272966834:32",
                   "--grid", "theta=0.38203233975752837:2.7595603138322646:4"],
    # t is read: by the potential, by the dust's velocity, or by the gauge function
    "em-plane-wave": ["run", "--spacetime", "em-plane-wave", "--suite", "all"],
    "minkowski-constant-e": ["run", "--spacetime", "minkowski-constant-e", "--suite", "all"],
    "gauge-0.2t": ["gauge", "--spacetime", "schwarzschild", "--phi", "0.2*t"],
    "gauge-0.2t-fd": ["gauge", "--spacetime", "charge-ball", "--phi", "0.2*t", "--diff", "fd"],
    # a single orbit: every point set is one representative
    "minkowski": ["run", "--spacetime", "minkowski", "--suite", "all"],
    "schwarzschild-one-orbit": ["run", "--spacetime", "schwarzschild",
                                "--grid", "r=5:5:1", "--grid", "theta=1:1:1"],
    # 41 orbits: the last chunk of representatives holds one
    "rn-41-orbits": ["run", "--spacetime", "reissner-nordstrom", "--diff", "fd",
                     "--grid", "r=3:10:41", "--grid", "theta=1:1:1"],
    "schwarzschild-domain-error": ["run", "--spacetime", "schwarzschild", "--grid", "r=-3:3:2"],
}


def _every_point(pts, axes):
    """The identity reduction: each point is its own orbit."""
    return np.arange(len(pts)), np.ones(len(pts), dtype=int)


def _report_and_points(argv, out, monkeypatch, reduce=None):
    """The report bytes of argv, and the number of points the snapshots took."""
    taken = []
    init = engine.GeometrySnapshot.__init__

    def counting(self, model, x, mode="dual"):
        taken.append(len(np.atleast_2d(x)))
        init(self, model, x, mode)

    with monkeypatch.context() as m:
        m.setattr(engine.GeometrySnapshot, "__init__", counting)
        if reduce is not None:
            m.setattr(harness, "_orbits", reduce)
        main(argv + ["--out", str(out)])
    return out.read_bytes(), sum(taken)


@pytest.mark.parametrize("name", ORBIT_RUNS)
def test_orbits_give_the_reports_of_every_point(name, tmp_path, monkeypatch):
    """Each orbit runs once and counts for all of its points: the report is
    the one every point gives, byte for byte, error notes included."""
    argv = ORBIT_RUNS[name]
    every, every_taken = _report_and_points(argv, tmp_path / "every.json", monkeypatch,
                                            _every_point)
    orbits, taken = _report_and_points(argv, tmp_path / "orbits.json", monkeypatch)
    assert orbits == every
    # the eight gauge points differ in (r, theta) or (x, y, z): no orbit repeats
    assert taken == every_taken if name.startswith("gauge") else taken < every_taken


def test_grid_points_count_every_point_of_an_orbit(tmp_path):
    out = tmp_path / "r.json"
    assert main(ORBIT_RUNS["kn-512-all"] + ["--out", str(out)]) == 0
    counts = {c["id"]: c["grid_points"] for c in json.loads(out.read_text())["checks"]}
    assert counts["metric.inverse"] == counts["rc.scalar_split"] == 512
    assert counts["rc.k_f_pair"] == 512 + 100
    assert counts["lc.bianchi"] == 12 and counts["gauge.scalar_shift"] == 3 * 8


def test_a_domain_error_names_the_first_grid_point(tmp_path):
    out = tmp_path / "r.json"
    assert main(ORBIT_RUNS["schwarzschild-domain-error"] + ["--out", str(out)]) == 1
    notes = {c["note"] for c in json.loads(out.read_text())["checks"] if "note" in c}
    assert {n.replace("+gauge", "") for n in notes} == {
        "DomainError: point (0.0, -3.0, 0.3, 0.1) is outside the domain of 'schwarzschild'"}


@pytest.mark.parametrize("name, phis, point_set, read", [
    ("schwarzschild", None, "grid", [1, 2]),
    ("schwarzschild", None, "gauge", [0, 1, 2]),  # the default gauge functions read t and r
    ("schwarzschild", ["0.2*t"], "gauge", [0, 1, 2]),
    ("charge-ball", ["0.2*t", "0.1*t*x"], "orbit", [0, 1, 2, 3]),
    ("charge-ball", ["0.2*t"], "small", [1, 2, 3]),
    ("em-plane-wave", None, "grid", [0, 1]),
    ("minkowski-constant-e", None, "grid", [0, 1]),  # the dust's V^1 reads t
    ("minkowski", None, "grid", []),
])
def test_read_axes_cover_every_field_the_model_holds(name, phis, point_set, read):
    ctx = SuiteContext(resolve_model(name), phis=phis)
    assert harness._read_axes(ctx, point_set) == read


_KN_MISCHARGED = _KN.replace("kerr_newman", "kerr_newman_mischarged")

# the axes each catalog entry, fixture and bench file reads
MODEL_READ_AXES = {
    "minkowski": (), "minkowski-constant-e": (1,), "schwarzschild": (1, 2),
    "reissner-nordstrom": (1, 2), "em-plane-wave": (0, 1), "charge-ball": (1, 2, 3),
    _KN: (1, 2), _KN_MISCHARGED: (1, 2),
}


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *FIXTURE_NAMES, _KN, _KN_MISCHARGED],
                         ids=lambda name: Path(name).name)
def test_model_read_axes_are_the_union_the_harness_and_the_loader_take(name):
    """``read_axes`` is the union of the axes of the metric, the potential
    and the domain; the grid rows add the dust's."""
    model, read = resolve_model(name), MODEL_READ_AXES[name]
    held = [*(f for row in model.g_fields for f in row), *model.A_fields, model.domain]
    assert model.read_axes == read == tuple(
        sorted(frozenset().union(*(f.axes for f in held if f is not None))))
    dust = model.dust
    dust_axes = set() if dust is None else set().union(
        *(f.axes for f in (dust.rho0, dust.rhoq, *dust.V_fields)))
    assert harness._read_axes(SuiteContext(model), "grid") == sorted({*read, *dust_axes})


def test_each_representative_runs_once():
    """On a single (r, theta) a set's points are one orbit, or two on the
    gauge points, whose gauge functions read t: a lone representative runs
    as a batch of one."""
    ctx = SuiteContext(resolve_model("schwarzschild"),
                       grid_overrides={"r": [5.0], "theta": [1.0]})
    chunks = {point_set: [(idx.tolist(), count) for idx, count
                          in harness._chunks(ctx, point_set, ctx.points(point_set))]
              for point_set in ("grid", "small", "gauge", "orbit")}
    assert chunks == {"grid": [([0], 4)], "small": [([0], 4)], "gauge": [([0, 2], 4)],
                      "orbit": [([0], 2)]}


def test_orbits_are_kept_in_grid_order_by_their_first_point():
    pts = np.array([[0.0, 2.0, 0, 0], [1.0, 1.0, 0, 0], [2.0, 2.0, 0, 0],
                    [3.0, -0.0, 0, 0], [4.0, 0.0, 0, 0], [5.0, 1.0, 0, 0]])
    first, counts = harness._orbits(pts, [1, 2, 3])
    assert first.tolist() == [0, 1, 3, 4]  # -0.0 and 0.0 are different bits
    assert counts.tolist() == [2, 2, 1, 1]
    first, counts = harness._orbits(pts, [1])
    assert first.tolist() == [0, 1, 3, 4] and counts.tolist() == [2, 2, 1, 1]
    first, counts = harness._orbits(pts, [0, 1])  # every row differs in x0
    assert first.tolist() == list(range(6)) and counts.tolist() == [1] * 6
    # no axes: one orbit of every point, or none of no point
    first, counts = harness._orbits(pts, [])
    assert first.tolist() == [0] and counts.tolist() == [6]
    first, counts = harness._orbits(pts[:0], [])
    assert first.tolist() == [] and counts.tolist() == []
    # a zero's sign bit alone tells two rows apart, in any column of the key
    signed = np.array([[0.0, 1.0, -0.0, 0], [0.0, 1.0, 0.0, 0], [0.0, 1.0, -0.0, 0]])
    first, counts = harness._orbits(signed, [1, 2])
    assert first.tolist() == [0, 1] and counts.tolist() == [2, 1]


# -- the command-line parser ------------------------------------------------------


def test_successive_cli_calls_share_no_parsed_options(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; nothing one call parses reaches
    the next, a usage error included."""
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", {**cli._COMMANDS,
                                           "run": lambda args: seen.append(args) or 0,
                                           "gauge": lambda args: seen.append(args) or 0})
    out = str(tmp_path / "r.json")
    assert main(["run", "--spacetime", "minkowski", "--grid", "t=0:1:2",
                 "--tol", "metric.inverse=1", "--out", out]) == 0
    assert main(["gauge", "--spacetime", "minkowski", "--phi", "0.2*t", "--out", out]) == 0
    assert main(["run", "--spacetime", "minkowski", "--suite", "nope", "--out", out]) == 2
    assert main(["gauge", "--spacetime", "minkowski", "--phi", "t", "--out", out]) == 0
    assert main(["run", "--spacetime", "minkowski", "--out", out]) == 0
    assert "invalid choice" in capsys.readouterr().err
    first, phi1, phi2, last = seen
    assert (first.grid, first.tol) == (["t=0:1:2"], ["metric.inverse=1"])
    assert phi1.phi == ["0.2*t"] and phi2.phi == ["t"]
    assert (last.grid, last.tol, last.suite) == (None, None, "all")
