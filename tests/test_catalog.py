"""Catalog entries and the spacetime definition-file loader."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

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
from rcgeom import catalog
from rcgeom.catalog import build_model, load_spacetime_file
from rcgeom.cli import main
from rcgeom.engine import GeometrySnapshot
from rcgeom.harness import run_suite

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
FLAT_SOURCES = {(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"}
FLAT_GRID = {n: (0.0,) for n in ("t", "x", "y", "z")}


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


@pytest.mark.parametrize("g11, A0, field, error", [
    ("-1", "1e400", "A[0]", "non-finite value for field 'A[0]': inf"),
    ("-1", "1e200*1e200", "A[0]", "non-finite value for field 'A[0]': inf"),
    ("-1", "0*1e400", "A[0]", "non-finite value for field 'A[0]': nan"),
    ("-1e400", "x", "g[1][1]", "non-finite value for field 'g[1][1]': -inf"),
    ("-1", "log(0)", "A[0]", "log of non-positive argument 0.0"),
], ids=["inf", "overflow", "nan", "metric-inf", "log-zero"])
def test_constant_field_that_fails_is_a_load_error(tmp_path, capsys, g11, A0, field, error):
    """A field that reads no coordinate is evaluated once, when the file is
    loaded: a failure, or a value that is not finite, names the file and the
    field."""
    path = tmp_path / "const.spacetime"
    path.write_text(OVERFLOW_FILE.format(g11=g11, A0=A0, x="0:1:2"))
    assert main(["run", "--spacetime", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {field} cannot be evaluated: {error}\n"


def test_a_file_that_is_not_utf8_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "binary.spacetime"
    path.write_bytes(b"name = m\n\xff\xfe\n")
    assert main(["run", "--spacetime", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: invalid start byte at byte 9\n")


@pytest.mark.parametrize("first", [True, False], ids=["before-coords", "last"])
def test_a_grid_line_that_names_no_coordinate_is_a_load_error(tmp_path, capsys, first):
    """As with --grid q=..., the error names the line; it is found once every
    line is read, since the coords line may come after the grid lines."""
    line = "grid.q = 0:1:2"
    base = OVERFLOW_FILE.format(g11="-1", A0="x", x="0:1:2")
    text = f"{line}\n{base}" if first else f"{base}{line}\n"
    path = tmp_path / "q.spacetime"
    path.write_text(text)
    assert main(["run", "--spacetime", str(path), "--out", str(tmp_path / "r.json")]) == 2
    lineno = text.splitlines().index(line) + 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: unknown grid coordinate 'q'\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, bounds", [
    ("0:1e400:2", "0.0:inf"),
    ("nan:1:2", "nan:1.0"),
    ("-inf:inf:1", "-inf:inf"),
    ("-1e308:1e308:3", "-1e+308:1e+308"),  # finite bounds whose distance overflows
], ids=["inf-stop", "nan-start", "inf-both", "overflowing-distance"])
def test_a_grid_range_that_is_not_finite_is_a_load_error_at_its_line(tmp_path, capsys, x, bounds):
    """The bounds are rejected before np.linspace, which would warn and
    leave NaN grid points behind."""
    path = tmp_path / "grid.spacetime"
    path.write_text(OVERFLOW_FILE.format(g11="-1", A0="x", x=x))
    assert main(["run", "--spacetime", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:10: grid bounds and their distance must be finite: {bounds}\n")


@pytest.mark.parametrize("A0, x, grid, note", [
    ("sinh(1000*x)", "0:0:1", "x=1:2:3", "sinh overflow at argument 1000.0"),
    ("cosh(-1000*x)", "0:0:1", "x=1:2:3", "cosh overflow at argument -1000.0"),
    ("(10*x)^400", "0:0:1", "x=1:2:3", "power overflow at base 10.0"),
    ("0.1*log(x)", "0.5:1:2", "x=-1:1:3", "log of non-positive argument -1.0"),
    # exp(420)*exp(420) overflows in the jets' product, and 1/x at the
    # smallest subnormal x in the log's derivatives; neither may warn
    ("exp(1400*x)*exp(1400*x)", "-1:-0.5:2", "x=-0.5:0.3:2",
     "non-finite field derivatives for 'overflow' at (0.0, 0.3, 0.0, 0.0)"),
    ("0.1*log(x)", "0.5:1:2", "x=5e-324:1:2",
     "non-finite field derivatives for 'overflow' at (0.0, 5e-324, 0.0, 0.0)"),
])
def test_grid_override_where_a_field_fails_is_a_failed_check(tmp_path, A0, x, grid, note):
    """Over a batch, a field that cannot be evaluated raises the error the
    one-point route raises, naming the first bad value or point, and
    fields.dual_vs_fd carries the note of the metric rows."""
    path = tmp_path / "f.spacetime"
    path.write_text(OVERFLOW_FILE.format(g11="-1", A0=A0, x=x))
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", str(path), "--suite", "metric", "--grid", grid,
                 "--out", str(out)]) == 1
    checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["fields.dual_vs_fd"]["note"] == checks["metric.inverse"]["note"] == (
        f"EvalError: {note}")


# The metric reads x, the potential y and the domain z: no field reads t, so
# the 3 x 5 x 4 x 3 grid has 60 orbits of 3 points.  Each fault sits at
# x = 0.5 or z = 1, in the middle of its axis, of the grid and of its orbits.
ORBIT_FILE = """
name = orbit-faults
coords = t, x, y, z
g[0][0] = "{g00}"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "{A0}"
domain = "{domain}"
grid.t = 0:1:3
grid.x = -1:1:5
grid.y = 0:3:4
grid.z = 0:2:3
"""
ORBIT_FAULTS = {
    "domain": {"domain": "(z - 1)^2"},
    "non-finite": {"A0": "1e308*(2 - (x - 0.5)^2) + y"},
    "evaluation": {"A0": "y/(x - 0.5)"},
    "degenerate": {"g00": "(x - 0.5)^2"},
}


def _orbit_file(**faults):
    return ORBIT_FILE.format(**{"g00": "1 + x^2", "A0": "y", "domain": "z + 1", **faults})


@pytest.mark.parametrize("fault", sorted(ORBIT_FAULTS))
def test_grid_validation_per_orbit_raises_the_point_by_point_error(fault, monkeypatch):
    """The load error of a fault in the middle of the grid, met on the
    orbits' first points, is the one a point-by-point validation of every
    grid point raises first."""
    text = _orbit_file(**ORBIT_FAULTS[fault])
    with pytest.raises(GeometryError) as info:
        parse_spacetime_text(text)
    monkeypatch.setattr(catalog, "validate_on_grid", lambda model, origin=None: None)
    model = parse_spacetime_text(text)
    with pytest.raises(GeometryError) as want:
        with np.errstate(over="ignore", invalid="ignore"):
            for p in model.default_grid:
                catalog._validate_point(model, p, "<string>")
    assert (type(info.value), str(info.value)) == (type(want.value), str(want.value))


def test_grid_validation_checks_the_first_point_of_each_orbit(monkeypatch):
    """A valid file is validated on the first points of its 60 orbits, the
    t = 0 points, with one metric evaluation."""
    seen = []
    metric_values = catalog.SpacetimeModel.metric_values
    monkeypatch.setattr(catalog.SpacetimeModel, "metric_values",
                        lambda self, X: seen.append(X.copy()) or metric_values(self, X))
    model = parse_spacetime_text(_orbit_file())
    assert len(model.default_grid) == 180 and len(seen) == 1
    assert seen[0].tobytes() == model.default_grid[:60].tobytes()


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


@pytest.mark.parametrize("order", [((0, 1), (1, 0)), ((1, 0), (0, 1))],
                         ids=["01-first", "10-first"])
def test_build_model_rejects_conflicting_mirror_sources(order):
    """A library caller's mirror conflict is an error in either key order."""
    (i, j), (k, l) = order
    sources = {**FLAT_SOURCES, (i, j): "0.1", (k, l): "0.2"}
    with pytest.raises(SpacetimeFormatError,
                       match=rf"conflicting sources for g\[{i}\]\[{j}\] and g\[{j}\]\[{i}\]"):
        build_model("mirror", ("t", "x", "y", "z"), sources, grid_axes=FLAT_GRID)
    same = build_model("mirror", ("t", "x", "y", "z"),
                       {**FLAT_SOURCES, (0, 1): "0.1", (1, 0): "0.1"}, grid_axes=FLAT_GRID)
    assert same.metric_values([[0.0, 0.0, 0.0, 0.0]])[0][1, 0] == 0.1
    with pytest.raises(SpacetimeFormatError, match=r"metric index out of range: g\[0\]\[4\]"):
        build_model("mirror", ("t", "x", "y", "z"), {**FLAT_SOURCES, (0, 4): "0"},
                    grid_axes=FLAT_GRID)


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


DUPLICATE_BASE = """\
name = m
coords = t, x, y, z
param E = 1
G = 1
c = 1
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "-E*x"
domain = "x + 2"
grid.t = 0:1:2
grid.x = 0:1:2
grid.y = 0:1:2
grid.z = 0:1:2
"""

# key -> (a second line with a different value, the error, a second line with the same value)
DUPLICATES = {
    "name": ("name = other", "name with a different value", "name = m"),
    "coords": ("coords = t, x, y, w", "coords with a different value", "coords = t,x,y,z"),
    "param": ("param E = 2", "param E with a different value", "param E = 1.0"),
    "G": ("G = 2", "G with a different value", "G = 1.0"),
    "c": ("c = 2", "c with a different value", "c = 1e0"),
    "g": ('g[0][0] = "2"', "g[0][0] with a different expression", 'g[0][0] = "1"'),
    "A": ('A[0] = "2*x"', "A[0] with a different expression", 'A[0] = "-E*x"'),
    "domain": ('domain = "x + 3"', "domain with a different expression", 'domain = "x + 2"'),
    "grid": ("grid.x = 0:1:3", "grid.x with a different range", "grid.x = 0:1.0:2"),
}


@pytest.mark.parametrize("key", sorted(DUPLICATES))
def test_a_key_given_twice_with_different_values_is_a_load_error(tmp_path, capsys, key):
    """Every key of a definition file: a second line with a different value
    exits 2 with an error that names the line; one with the same value loads."""
    second, error, same = DUPLICATES[key]
    path = tmp_path / "dup.spacetime"
    path.write_text(DUPLICATE_BASE + second + "\n")
    assert main(["run", "--spacetime", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}:16: duplicate {error}\n"
    model = parse_spacetime_text(DUPLICATE_BASE + same + "\n")
    assert model.params == {"E": 1.0} and model.A_fields[0].name == "A[0]"
    assert [len(model.grid_axes[n]) for n in model.chart.names] == [2, 2, 2, 2]


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


SCHWARZSCHILD_FILE = """\
name = schwarzschild-from-file
param M = 1.0
coords = t, r, theta, phi
g[0][0] = "1 - 2*G*M/(c^2*r)"
g[1][1] = "-1/(1 - 2*G*M/(c^2*r))"
g[2][2] = "-r^2"
g[3][3] = "-r^2*sin(theta)^2"
domain = "(r - 2*G*M/c^2) * sin(theta)"
grid.t = 0:0.5:2
grid.r = 3:10:8
grid.theta = 0.3:2.8416:4
grid.phi = 0.1:2:2
"""


@pytest.mark.parametrize("name", ["G", "c"])
def test_a_param_named_like_a_constant_is_a_load_error(tmp_path, capsys, name):
    """Expressions read the constants G and c, so a param of that name would
    be ignored; it names its line, and the constant stays settable."""
    path = tmp_path / "schw.spacetime"
    path.write_text(SCHWARZSCHILD_FILE.replace("param M = 1.0",
                                               f"param M = 1.0\nparam {name} = 1.25"))
    assert main(["run", "--spacetime", str(path), "--suite", "einstein",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:3: param {name} names a constant; set it with a '{name} = ...' line\n")
    path.write_text(SCHWARZSCHILD_FILE.replace("param M = 1.0", f"param M = 1.0\n{name} = 1.25"))
    assert getattr(load_spacetime_file(path).constants, name) == 1.25


def test_a_param_named_like_a_coordinate_is_a_load_error(tmp_path, capsys):
    """A coordinate shadows a param of its name; the error names the param's
    line, which may come before the coords line."""
    path = tmp_path / "schw.spacetime"
    path.write_text(SCHWARZSCHILD_FILE.replace("param M = 1.0", "param M = 1.0\nparam r = 5.0"))
    assert main(["run", "--spacetime", str(path), "--suite", "einstein",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: param r names a chart coordinate\n"
    assert parse_spacetime_text(SCHWARZSCHILD_FILE).params == {"M": 1.0}


@pytest.mark.parametrize("name", ["G", "c"])
def test_a_coordinate_named_like_a_constant_is_a_load_error(tmp_path, capsys, name):
    """Expressions would read such a coordinate in place of the constant,
    which the model (and the contorsion coupling G/c^4) keeps: a file names
    its coords line, and build_model refuses the chart."""
    coords = ("t", name, "y", "z")
    path = tmp_path / "shadow.spacetime"
    path.write_text(f"name = shadow\ncoords = {', '.join(coords)}\n"
                    f'g[0][0] = "{name}^2"\ng[1][1] = "-1"\ng[2][2] = "-1"\ng[3][3] = "-1"\n'
                    + "".join(f"grid.{n} = 1:2:2\n" for n in coords))
    assert main(["run", "--spacetime", str(path), "--suite", "metric",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}:2: coordinate {name} names a constant\n"
    with pytest.raises(SpacetimeFormatError, match=f"coordinate {name} names a constant"):
        build_model("shadow", coords, {(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"},
                    grid_axes={n: (1.0,) for n in coords})


RN_DEFINITION = Path(__file__).with_name("reissner_nordstrom.spacetime")
KN_DEFINITION = Path(__file__).resolve().parents[1] / "bench" / "kerr_newman.spacetime"
RN_UNDECLARED = "undeclared parameter 'Q' for 'reissner-nordstrom'; declared: M, q; constants: G, c"


@pytest.mark.parametrize("spacetime, note", [
    ("reissner-nordstrom", RN_UNDECLARED),
    (RN_DEFINITION, f"{RN_DEFINITION}: {RN_UNDECLARED}"),
    (KN_DEFINITION,
     f"{KN_DEFINITION}: undeclared parameter 'Q' for 'kerr-newman'; declared: M, a, q; "
     "constants: G, c"),
], ids=["catalog", "file", "kerr-newman-file"])
def test_an_undeclared_parameter_reads_one_note_on_both_front_ends(spacetime, note, tmp_path,
                                                                  capsys):
    """A catalog entry and a definition file check overrides by one rule; a
    file's note starts with its path."""
    assert main(["run", "--spacetime", str(spacetime), "--suite", "metric",
                 "--param", "Q=1", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: {note}\n"


def test_the_catalog_entry_as_a_definition_file_is_the_same_model():
    """The file of the catalog's sources folds to the same interned trees,
    with the same parameters, constants and grid; only the claims, which a
    file cannot state, differ, and with the catalog's claims its report
    has the catalog's bytes."""
    entry, loaded = catalog_get("reissner-nordstrom"), load_spacetime_file(RN_DEFINITION)

    def fields(m):
        return [*itertools.chain.from_iterable(m.g_fields), *m.A_fields, m.domain]

    assert all(a.tree is b.tree for a, b in zip(fields(entry), fields(loaded), strict=True))
    assert (loaded.params, loaded.constants) == (entry.params, entry.constants)
    assert loaded.grid_axes == entry.grid_axes and loaded.meta == {}
    assert loaded.default_grid.tobytes() == entry.default_grid.tobytes()
    want = run_suite("maxwell", entry).to_json()
    assert run_suite("maxwell", dataclasses.replace(loaded, meta=entry.meta)).to_json() == want
    claimed = {"em.source_free", "em.energy_density"}
    want = json.loads(want)
    want["checks"] = [c for c in want["checks"] if c["id"] not in claimed]
    assert json.loads(run_suite("maxwell", loaded).to_json()) == want


@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_grid_count_below_one_reads_one_note_on_both_front_ends(count, tmp_path, capsys):
    """``--grid`` and a file's ``grid.<c>`` line read ``start:stop:count``
    with one reader; each frames its note with its own prefix."""
    _one_grid_note_on_both_front_ends(count, "grid count must be >= 1", tmp_path, capsys)


# 10**20 is past numpy's array size limit, and 2**63 - 1 meets an IndexError
# in np.linspace: neither allocates
@pytest.mark.parametrize("count", ["100000000000000000000", "9223372036854775807"])
def test_a_grid_count_numpy_refuses_reads_one_note_on_both_front_ends(count, tmp_path, capsys):
    _one_grid_note_on_both_front_ends(count, f"grid count is too large: {count}", tmp_path, capsys)


def _one_grid_note_on_both_front_ends(count, note, tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert main(["run", "--spacetime", "minkowski", "--grid", f"x=0:1:{count}",
                 "--out", out]) == 2
    assert capsys.readouterr().err == f"error: bad --grid 'x=0:1:{count}': {note}\n"
    path = tmp_path / "count.spacetime"
    path.write_text(OVERFLOW_FILE.format(g11="-1", A0="x", x=f"0:1:{count}"))
    assert main(["run", "--spacetime", str(path), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {path}:10: {note}\n"


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
