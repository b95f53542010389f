"""Suites, reports, CLI behavior, and determinism guarantees."""

import json
import zlib

import numpy as np
import pytest

from rcgeom import CATALOG_NAMES, GeometryError, catalog_get, cli, engine
from rcgeom.catalog import parse_spacetime_text
from rcgeom.cli import main
from rcgeom.harness import (
    _RNG_SALT,
    CHECK_DEFS,
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
    rep = run_suite(
        "metric", resolve_model("minkowski"), tol_overrides={"metric.inverse": -1.0}
    )
    assert not rep.passed


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
                 "--tol", "metric.inverse=-1", "--out", str(out)]) == 1
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
    assert "point (0.0, 0.5, " in notes["scenario.error"]
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


def test_cli_gauge(tmp_path):
    out = tmp_path / "g.json"
    code = main(["gauge", "--spacetime", "charge-ball", "--phi", "0.5*t",
                 "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())
    ids = {c["id"] for c in body["checks"]}
    assert "gauge.scalar_shift" in ids
    assert "gauge.contorsion_delta" in ids


def test_cli_list(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    for name in ("minkowski", "reissner-nordstrom", "charge-ball"):
        assert name in text


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
    batch per function, and four one-point snapshots for the composition
    check."""
    built = []
    init = engine.GeometrySnapshot.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.GeometrySnapshot, "__init__", counting)
    rep = run_suite("gauge", resolve_model("minkowski-constant-e"))
    assert rep.passed
    assert len(built) == 1 + 3 + 4


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


def test_gauge_function_failing_at_a_point_is_a_failed_check(tmp_path):
    out = tmp_path / "g.json"
    for mode in ("dual", "fd"):
        assert main(["gauge", "--spacetime", "schwarzschild", "--phi", "log(t)",
                     "--diff", mode, "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["id"] for c in checks] == ["scenario.error"]
        assert checks[0]["note"].startswith("EvalError: log of non-positive argument")


def _random_points_one_at_a_time(model, n=100):
    """The draw as one sample and one domain test at a time."""
    rng = np.random.default_rng(zlib.crc32(model.name.encode()) ^ _RNG_SALT)
    box = model.sample_box()
    lo = np.array([box[c][0] for c in model.chart.names])
    hi = np.array([box[c][1] for c in model.chart.names])
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 100 * n:
        p = lo + (hi - lo) * rng.random(4)
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
