"""Batched snapshots against one-point snapshots, and chunked suites against
point-by-point ones."""

from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from rcgeom import GeometryError, catalog_get, harness, load_spacetime_file
from rcgeom.catalog import parse_spacetime_text
from rcgeom.engine import GeometrySnapshot
from rcgeom.harness import run_suite

KN_FILE = Path(__file__).resolve().parents[1] / "bench" / "kerr_newman.spacetime"

# Off-diagonal metric, time-dependent potential: no symmetry makes a
# divergence identity vanish term by term.
GENERIC = """
name = generic
coords = t, x, y, z
param a = 0.1
param b = 0.05
g[0][0] = "1 + a*sin(x)*cos(y)"
g[0][1] = "b*x*y"
g[0][3] = "0.5*b*sin(t + z)"
g[1][1] = "-(1 + a*x^2)"
g[1][2] = "b*sin(z)"
g[2][2] = "-(1 + a*cos(x)*y^2)"
g[2][3] = "b*t*z"
g[3][3] = "-(1 + a*exp(-z^2))"
A[0] = "0.3*sin(x + t)"
A[1] = "0.2*y*cos(t)"
A[2] = "0.1*t*z^2 + 0.2*x"
A[3] = "0.2*x*y*exp(-t^2)"
grid.t = -0.3:0.3:2
grid.x = -0.4:0.4:3
grid.y = -0.4:0.4:2
grid.z = -0.3:0.3:2
"""


def _models():
    return {
        "reissner-nordstrom": catalog_get("reissner-nordstrom"),
        "em-plane-wave": catalog_get("em-plane-wave"),
        "kerr-newman": load_spacetime_file(KN_FILE),
        "generic": parse_spacetime_text(GENERIC),
    }


MODELS = _models()

MEMBERS = sorted(
    name for name, v in vars(GeometrySnapshot).items() if isinstance(v, cached_property)
)

# residual method -> members whose magnitudes set the scale of its terms
RESIDUALS = {
    "bianchi_residual": ("d_einstein_lc_uu",),
    "homogeneous_residual": ("dF_dd",),
    "current_conservation_residual": ("dJ_up", "dsqrt_g"),
    "stress_exchange_residual": ("dT_em_uu",),
    "decomposition_residual": ("riemann_rc",),
    "quadratic_pair_residual": ("quadratic_pair",),
    "pair_residual_F": ("K_mix", "F_uu"),
    "pair_residual_T": ("K_mix", "T_em_uu"),
    "metric_compatibility_residual": ("dg",),
    "scalar_split": ("ricci_rc", "F_uu"),
}


def _points(model, n=5):
    grid = model.default_grid
    return grid[:: max(1, len(grid) // n)][:n]


def _value(snap, name):
    v = getattr(snap, name)
    if name == "metric":
        lead = (len(snap.x),) if snap.batched else ()
        parts = (v.matrix, v.inverse, v.det_g, v.sqrt_neg_det)
        return np.concatenate([np.reshape(p, lead + (-1,)) for p in parts], axis=-1)
    if callable(v):
        v = v()
    if isinstance(v, tuple):  # scalar_split: one tuple entry per term
        return np.stack(v, axis=-1)
    return np.asarray(v, dtype=float)


def _stack(singles, name):
    """Per-point values of a member, or None when one-point evaluation raises."""
    try:
        return np.stack([_value(s, name) for s in singles])
    except GeometryError:
        return None


def _close(batch, single, scale):
    # Members that cancel to roundoff (a null F^2, a vacuum curvature) carry
    # no relative precision, so the scale is floored at the unit of g.
    tol = 1e-12 * max(scale, 1.0)
    assert batch.shape == single.shape
    assert np.abs(batch - single).max() <= tol


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_batch_members_match_one_point_snapshots(name, mode):
    model = MODELS[name]
    X = _points(model)
    batch = GeometrySnapshot(model, X, mode)
    singles = [GeometrySnapshot(model, x, mode) for x in X]
    assert batch.batched and not singles[0].batched

    compared = 0
    for member in MEMBERS:
        single = _stack(singles, member)
        if single is None:
            # fd mode carries no third jets: the batch must refuse as well
            with pytest.raises(GeometryError):
                _value(batch, member)
            continue
        _close(_value(batch, member), single, np.abs(single).max())
        compared += 1
    assert compared >= len(MEMBERS) - 4

    for method, scale_members in RESIDUALS.items():
        single = _stack(singles, method)
        if single is None:
            continue
        scale = max(np.abs(_stack(singles, m)).max() for m in scale_members)
        _close(_value(batch, method), single, scale)
    for connection in ("lc", "rc"):
        single = np.stack([s.div_T_em(connection) for s in singles])
        _close(batch.div_T_em(connection), single, np.abs(single).max())

    # scalar members are per-point arrays over a batch, floats at one point
    for member in ("det_g", "sqrt_g", "scalar_lc", "F2", "scalar_rc"):
        assert getattr(batch, member).shape == (len(X),)
        assert isinstance(getattr(singles[0], member), float)


def _verdicts(report):
    return [(c.check_id, c.grid_points, c.passed, c.max_residual is None, c.note)
            for c in report.checks]


DEGENERATE = """
name = degenerate-at-origin
coords = t, x, y, z
domain = "1.5 - x"
g[0][0] = "1"
g[1][1] = "-(x^2 + 0.01*y^2)"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "0.1*x*y"
grid.t = 0:0:1
grid.x = 0.5:1:2
grid.y = 0.5:1:2
grid.z = 0:0:1
"""


@pytest.mark.parametrize("case", ["horizon-and-axis", "degenerate-metric"])
def test_chunked_errors_match_point_by_point(case, monkeypatch):
    if case == "horizon-and-axis":
        # r = 1.5 lies inside the horizon, theta = 0 on the axis
        model = catalog_get("reissner-nordstrom")
        grid = {"r": [1.5, 3.0, 4.5], "theta": [0.0, 1.0], "phi": [0.1], "t": [0.0, 0.2]}
    else:
        # g_11 vanishes at x = y = 0 (a MetricError late in the pipeline) and
        # x = 2 lies outside the domain (a DomainError first thing): the
        # batch meets the later point's error first, a point-by-point run
        # the earlier point's
        model = parse_spacetime_text(DEGENERATE)
        grid = {"x": [-0.5, 0.0, 0.5, 2.0], "y": [0.0, 0.5], "z": [0.0], "t": [0.0, 0.1]}

    def run():
        return run_suite("all", model, grid_overrides=grid)

    chunked = run()
    assert any(c.note for c in chunked.checks)  # the grid does exercise errors
    monkeypatch.setattr(harness, "CHUNK", 1)
    pointwise = run()
    assert _verdicts(chunked) == _verdicts(pointwise)
    for a, b in zip(chunked.checks, pointwise.checks):
        if a.max_residual is not None and a.tolerance is not None:
            assert abs(a.max_residual - b.max_residual) <= 0.01 * a.tolerance


def test_generic_model_current_is_not_vacuous():
    model = MODELS["generic"]
    rep = run_suite("maxwell", model)
    assert rep.passed
    check = {c.check_id: c for c in rep.checks}["em.current_conservation"]
    small = harness.SuiteContext(model).points("small")
    snap = GeometrySnapshot(model, small)
    assert np.abs(snap.J_up).max() > 1e-3
    assert np.abs(snap.dJ_up).max() > 1e-3
    assert check.max_residual <= 1e-12
