"""Catalog entries and the spacetime definition-file loader."""

import json
import math

import numpy as np
import pytest

from rcgeom import (
    CATALOG_NAMES,
    GeometryError,
    SignatureError,
    SpacetimeFormatError,
    catalog_get,
    parse_spacetime_text,
)
from rcgeom.cli import main
from rcgeom.engine import GeometrySnapshot

RN_FILE = """
# charged static solution, declared through expressions
name = rn-from-file
coords = t, r, theta, phi
param M = 1.0
param q = 0.3
G = 1.0
c = 1.0
g[0][0] = "1 - 2*G*M/(c^2*r) + G*q^2/(c^4*r^2)"
g[1][1] = "-1/(1 - 2*G*M/(c^2*r) + G*q^2/(c^4*r^2))"
g[2][2] = "-r^2"
g[3][3] = "-r^2*sin(theta)^2"
A[0] = "q/r"
domain = "(r - 2*G*M/c^2) * sin(theta)"
grid.t = 0:0.5:2
grid.r = 3:10:8
grid.theta = 0.3:2.8416:4
grid.phi = 0.1:2:2
"""


def test_catalog_names_complete():
    for name in CATALOG_NAMES:
        model = catalog_get(name)
        assert model.name == name
    with pytest.raises(GeometryError):
        catalog_get("kerr")


def test_default_constants_are_geometrized():
    m = catalog_get("reissner-nordstrom")
    assert m.constants.G == 1.0
    assert m.constants.c == 1.0
    assert m.constants.coupling == 1.0


def test_constants_override():
    m = catalog_get("schwarzschild", G=2.0, c=2.0)
    assert m.constants.coupling == pytest.approx(2.0 / 16.0)


def test_metric_invariants_hold_on_all_default_grids():
    for name in CATALOG_NAMES:
        model = catalog_get(name)
        for p in model.default_grid:
            model.metric_at(p)  # raises on any violation


def test_schwarzschild_is_uncharged_limit():
    rn = catalog_get("reissner-nordstrom", params={"q": 0.0})
    schw = catalog_get("schwarzschild")
    for p in schw.default_grid[::16]:
        assert np.abs(rn.metric_values(p[None]) - schw.metric_values(p[None])).max() <= 1e-14


def test_param_override():
    m = catalog_get("schwarzschild", params={"M": 1.2})
    # horizon moves to r = 2.4
    assert m.in_domain([0.0, 5.0, 1.0, 0.0])
    assert not m.in_domain([0.0, 2.3, 1.0, 0.0])
    # a parameter that pushes the horizon past the default grid is rejected
    with pytest.raises(SpacetimeFormatError):
        catalog_get("schwarzschild", params={"M": 2.0})


def test_undeclared_param_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(GeometryError, match=r"undeclared parameter 'Q'.*declared: M, q"):
        catalog_get("reissner-nordstrom", params={"Q": 5.0})
    assert catalog_get("reissner-nordstrom", params={"q": 0.5}).params["q"] == 0.5
    out = str(tmp_path / "r.json")
    assert main(["run", "--spacetime", "reissner-nordstrom", "--suite", "metric",
                 "--param", "Q=5", "--out", out]) == 2
    assert "undeclared parameter 'Q'" in capsys.readouterr().err
    # the constants stay settable on every entry
    assert main(["run", "--spacetime", "reissner-nordstrom", "--suite", "metric",
                 "--param", "q=0.5", "--param", "G=0.5", "--out", out]) == 0


def test_domain_excludes_axis_and_horizon():
    m = catalog_get("schwarzschild")
    assert not m.in_domain([0.0, 5.0, 0.0, 0.0])
    assert not m.in_domain([0.0, 1.5, 1.0, 0.0])
    assert m.in_domain([0.0, 5.0, 1.0, 0.0])


def test_minkowski_file_matches_catalog():
    text = """
name = flat
coords = t, x, y, z
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
grid.t = -0.5:0.5:2
grid.x = -0.5:0.5:2
grid.y = -0.5:0.5:2
grid.z = -0.5:0.5:2
"""
    loaded = parse_spacetime_text(text)
    ref = catalog_get("minkowski")
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.abs(loaded.metric_values(p[None]) - ref.metric_values(p[None])).max() == 0.0
    s1 = GeometrySnapshot(loaded, p)
    s2 = GeometrySnapshot(ref, p)
    assert np.abs(s1.gamma_lc - s2.gamma_lc).max() == 0.0
    assert np.abs(s1.riemann_lc - s2.riemann_lc).max() == 0.0


def test_wrong_signature_file_names_the_point():
    text = """
name = broken
coords = t, x, y, z
g[0][0] = "-1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
grid.t = 0:1:2
grid.x = 0:1:2
grid.y = 0:1:2
grid.z = 0:1:2
"""
    with pytest.raises(SignatureError) as err:
        parse_spacetime_text(text)
    assert "grid point" in str(err.value)


OVERFLOW_FILE = """
name = overflow
coords = t, x, y, z
g[0][0] = "1"
g[1][1] = "{g11}"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "{A0}"
grid.t = 0:0:1
grid.x = {x}
grid.y = 0:0:1
grid.z = 0:0:1
"""


# the failing expression -> its error at x = 1
OVERFLOW_MESSAGES = {
    "exp(1000*x)": "exp overflow at argument 1000.0",
    "-exp(1000*x)": "exp overflow at argument 1000.0",
    "sinh(1000*x)": "sinh overflow at argument 1000.0",
    "cosh(-1000*x)": "cosh overflow at argument -1000.0",
    "(10*x)^400": "power overflow at base 10.0",
    "sin(10*exp(709*x))": "sin of infinite argument inf",
    "tan(10*exp(709*x))": "tan of infinite argument inf",
}


@pytest.mark.parametrize("g11, A0, field", [
    ("-1", "exp(1000*x)", "A[0]"),
    ("-exp(1000*x)", "x", "g[1][1]"),
    ("-1", "sinh(1000*x)", "A[0]"),
    ("-1", "cosh(-1000*x)", "A[0]"),
    ("-1", "(10*x)^400", "A[0]"),
    ("-1", "sin(10*exp(709*x))", "A[0]"),
    ("-1", "tan(10*exp(709*x))", "A[0]"),
])
def test_field_that_overflows_on_the_grid_names_file_field_and_point(
        tmp_path, capsys, g11, A0, field):
    message = OVERFLOW_MESSAGES[A0 if field == "A[0]" else g11]
    path = tmp_path / "overflow.spacetime"
    path.write_text(OVERFLOW_FILE.format(g11=g11, A0=A0, x="0:1:2"))
    # 10*exp(709) overflows in numpy's product, which must not warn: a
    # RuntimeWarning fails the test
    assert main(["run", "--spacetime", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: {field} cannot be evaluated at grid point (0.0, 1.0, 0.0, 0.0): "
        f"{message}\n"
    )


@pytest.mark.parametrize("A0, x, grid, note", [
    ("sinh(1000*x)", "0:0:1", "x=1:2:3", "sinh overflow at argument 1000.0"),
    ("cosh(-1000*x)", "0:0:1", "x=1:2:3", "cosh overflow at argument -1000.0"),
    ("(10*x)^400", "0:0:1", "x=1:2:3", "power overflow at base 10.0"),
    ("0.1*log(x)", "0.5:1:2", "x=-1:1:3", "log of non-positive argument -1.0"),
    # exp(420)*exp(420) overflows in the jets' product, and 1/x at the
    # smallest subnormal x in the log's derivatives; neither may warn
    ("exp(1400*x)*exp(1400*x)", "-1:-0.5:2", "x=-0.5:0.3:2",
     "non-finite result for field 'A[0]' at (0.0, 0.3, 0.0, 0.0)"),
    ("0.1*log(x)", "0.5:1:2", "x=5e-324:1:2",
     "non-finite result for field 'A[0]' at (0.0, 5e-324, 0.0, 0.0)"),
])
def test_grid_override_where_a_field_fails_is_a_failed_check(tmp_path, A0, x, grid, note):
    """Over a batch, a field that cannot be evaluated raises the error the
    one-point route raises, naming the first bad value or point."""
    path = tmp_path / "f.spacetime"
    path.write_text(OVERFLOW_FILE.format(g11="-1", A0=A0, x=x))
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", str(path), "--suite", "metric", "--grid", grid,
                 "--out", str(out)]) == 1
    checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["fields.dual_vs_fd"]["note"] == f"EvalError: {note}"


def test_rn_file_matches_catalog_entry():
    loaded = parse_spacetime_text(RN_FILE)
    ref = catalog_get("reissner-nordstrom")
    for p in ([0.0, 4.0, 1.2, 0.5], [0.25, 7.0, 2.0, 1.5]):
        p = np.array(p)
        s1 = GeometrySnapshot(loaded, p)
        s2 = GeometrySnapshot(ref, p)
        assert np.abs(s1.K_mix - s2.K_mix).max() <= 1e-12
        assert abs(s1.scalar_rc - s2.scalar_rc) <= 1e-12
        r1 = s1.einstein_lc_dd - 8 * math.pi * s2.T_em_dd
        r2 = s2.einstein_lc_dd - 8 * math.pi * s2.T_em_dd
        assert np.abs(r1 - r2).max() <= 1e-12


def test_loader_symmetric_completion():
    text = """
name = offdiag
coords = t, x, y, z
g[0][0] = "1"
g[0][1] = "0.1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
grid.t = 0:1:2
grid.x = 0:1:2
grid.y = 0:1:2
grid.z = 0:1:2
"""
    m = parse_spacetime_text(text)
    g = m.metric_values([[0.0, 0.0, 0.0, 0.0]])[0]
    assert g[0, 1] == pytest.approx(0.1)
    assert g[1, 0] == pytest.approx(0.1)


def test_loader_conflicting_mirror_rejected():
    text = """
name = bad
coords = t, x, y, z
g[0][1] = "0.1"
g[1][0] = "0.2"
grid.t = 0:1:2
grid.x = 0:1:2
grid.y = 0:1:2
grid.z = 0:1:2
"""
    with pytest.raises(SpacetimeFormatError):
        parse_spacetime_text(text)


def test_loader_missing_keys():
    with pytest.raises(SpacetimeFormatError) as err:
        parse_spacetime_text("coords = t, x, y, z")
    assert "name" in str(err.value)
    with pytest.raises(SpacetimeFormatError) as err:
        parse_spacetime_text(
            "name = m\ncoords = t, x, y, z\ng[0][0] = \"1\"\n"
            "g[1][1] = \"-1\"\ng[2][2] = \"-1\"\ng[3][3] = \"-1\"\n"
            "grid.t = 0:1:2\ngrid.x = 0:1:2\ngrid.y = 0:1:2"
        )
    assert "grid.z" in str(err.value)


def test_loader_unrecognized_line_reports_location():
    with pytest.raises(SpacetimeFormatError) as err:
        parse_spacetime_text("name = m\nwat is this\n", origin="f.spacetime")
    assert err.value.line == 2
    assert "f.spacetime" in str(err.value)


def test_loader_expression_error_reported():
    text = """
name = m
coords = t, x, y, z
g[0][0] = "1 + unknown_thing"
grid.t = 0:1:2
grid.x = 0:1:2
grid.y = 0:1:2
grid.z = 0:1:2
"""
    with pytest.raises(SpacetimeFormatError):
        parse_spacetime_text(text)


def test_loader_param_overrides():
    m = parse_spacetime_text(RN_FILE, param_overrides={"q": 0.0})
    assert m.params["q"] == 0.0
    with pytest.raises(SpacetimeFormatError):
        parse_spacetime_text(RN_FILE, param_overrides={"nope": 1.0})


def test_plane_wave_is_null_and_source_free():
    m = catalog_get("em-plane-wave")
    for p in m.default_grid[::7]:
        s = GeometrySnapshot(m, p)
        assert abs(s.F2) <= 1e-12
        assert np.abs(s.J_up).max() <= 1e-12
