"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see the summary lines.
"""

import json
import math
import time

import numpy as np
import pytest

from rcgeom import (
    CATALOG_NAMES,
    IntegratorConfig,
    WorldlineState,
    catalog_get,
    integrate_worldline,
)
from rcgeom.cli import main
from rcgeom.engine import GeometrySnapshot
from rcgeom.fields import finite_difference_derivatives
from rcgeom.checks import CHECK_DEFS, GaugePair, default_tolerance
from rcgeom.gauge import as_phi_field, peak, transform_potential
from rcgeom.harness import SuiteContext, run_suite


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description}  {detail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


@pytest.fixture(scope="module")
def models():
    return {name: catalog_get(name) for name in CATALOG_NAMES}


@pytest.fixture(scope="module")
def ball():
    return catalog_get("charge-ball")


def test_criterion_1_einstein_maxwell_residual(models):
    model = models["reissner-nordstrom"]
    grid = {"t": [0.0], "phi": [0.1]}
    t0 = time.monotonic()
    rep = run_suite("einstein", model, grid_overrides=grid)
    elapsed = time.monotonic() - t0
    (check,) = rep.checks
    ok = (
        check.grid_points == 32
        and check.max_residual <= 1e-8
        and elapsed < 5.0
    )
    _report(1, "Einstein residual on the charged static solution",
            ok, f"max={check.max_residual:.3e} over 32 points in {elapsed:.2f}s")
    rep_fd = run_suite("einstein", model, grid_overrides=grid, mode="fd")
    assert rep_fd.checks[0].max_residual <= 1e-5


def test_criterion_2_scalar_curvature_split(models):
    worst = 0.0
    for model in models.values():
        for p in model.default_grid:
            s = GeometrySnapshot(model, p)
            R, R_bar, em, coupling, R_traced = s.scalar_split()
            target = R_bar + em + coupling
            worst = max(worst, abs(R - target)[0], abs(R_traced - target)[0])
    s = GeometrySnapshot(models["reissner-nordstrom"], [0.0, 4.0, 1.3, 0.2])
    hand_gap = abs(s.scalar_rc[0] - (-7.03125e-4))
    ok = worst <= 1e-8 and hand_gap <= 1e-8
    _report(2, "scalar-curvature split on every catalog grid",
            ok, f"max split residual={worst:.3e}, hand-value gap={hand_gap:.3e}")


def test_criterion_3_cancellation_identities(models):
    worst = {"divergence pair": 0.0, "quadratic pair": 0.0, "stress pair": 0.0}
    for model in models.values():
        ctx = SuiteContext(model)
        for p in ctx.random_points(100):
            s = GeometrySnapshot(model, p)
            worst["divergence pair"] = max(worst["divergence pair"], s.pair_residual_F()[0])
            worst["quadratic pair"] = max(worst["quadratic pair"], s.quadratic_pair_residual()[0])
            worst["stress pair"] = max(worst["stress pair"], s.pair_residual_T()[0])
    ok = all(v <= 1e-12 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(3, "algebraic cancellation pairs at 100 random points per entry", ok, detail)


def test_criterion_4_curvature_decomposition(models):
    worst = 0.0
    for model in models.values():
        for p in model.default_grid:
            worst = max(worst, GeometrySnapshot(model, p).decomposition_residual()[0])
    ok = worst <= 1e-8
    _report(4, "direct curvature equals its decomposition across the catalog",
            ok, f"max={worst:.3e}")


def test_criterion_5_maxwell_structure(models, ball):
    homogeneous = 0.0
    for model in list(models.values()) + [ball]:
        for p in model.default_grid:
            homogeneous = max(homogeneous, GeometrySnapshot(model, p).homogeneous_residual()[0])
    exterior = max(
        float(np.abs(GeometrySnapshot(models["reissner-nordstrom"], p).J_up).max())
        for p in models["reissner-nordstrom"].default_grid
    )
    density = 0.0
    conservation = 0.0
    for p in ball.default_grid:
        s = GeometrySnapshot(ball, p)
        density = max(density, abs(float(s.J_up[0][0]) - 0.02), float(np.abs(s.J_up[0][1:]).max()))
        conservation = max(conservation, s.current_conservation_residual()[0])
    for p in models["reissner-nordstrom"].default_grid[::8]:
        s = GeometrySnapshot(models["reissner-nordstrom"], p)
        conservation = max(conservation, s.current_conservation_residual()[0])
    ok = (
        homogeneous <= 1e-10
        and exterior <= 1e-8
        and density <= 1e-8
        and conservation <= 1e-6
    )
    _report(5, "Maxwell structure: identity, exterior, source recovery, conservation",
            ok, f"hom={homogeneous:.2e} ext={exterior:.2e} rho={density:.2e} cons={conservation:.2e}")


def test_criterion_6_lorentz_force(models):
    m = models["minkowski-constant-e"]
    init = WorldlineState(np.zeros(4), np.array([1.0, 0, 0, 0]), 0.0)
    t0 = time.monotonic()
    traj = integrate_worldline(m, init, 0.5, IntegratorConfig(ds=1e-3, steps=2000))
    t_flat = time.monotonic() - t0
    cosh_err = abs(traj.final().V[0] - math.cosh(1.0))
    drift = traj.max_drift

    ms = models["schwarzschild"]
    r = 8.0
    vt = 1.0 / math.sqrt(1.0 - 3.0 / r)
    vphi = math.sqrt(1.0 / r**3) * vt
    period = 2.0 * math.pi / vphi
    init = WorldlineState(np.array([0.0, r, math.pi / 2, 0.0]),
                          np.array([vt, 0.0, 0.0, vphi]), 0.0)
    t0 = time.monotonic()
    orbit = integrate_worldline(ms, init, 0.0,
                                IntegratorConfig(ds=period / 1500, steps=1500))
    t_orbit = time.monotonic() - t0
    radial = float(np.abs(orbit.x[:, 1] - r).max())

    ok = (
        cosh_err <= 1e-6
        and drift <= 1e-8
        and radial <= 1e-6
        and t_flat < 2.0
        and t_orbit < 2.0
    )
    _report(6, "force-law worldlines match closed forms",
            ok, f"cosh err={cosh_err:.2e} drift={drift:.2e} radial={radial:.2e} "
                f"times {t_flat:.2f}s/{t_orbit:.2f}s")


def test_criterion_7_gauge_suite(models, ball):
    """Each gauge row's reading over the (unshifted, shifted) pair on every
    16th default-grid point: the scalar shift, the gating invariance rows at
    their tolerances, and the contorsion delta."""
    shift_worst = 0.0
    delta_k_min = math.inf
    invariants_ok = True
    shifts = ("gauge.contorsion_shift", "gauge.scalar_shift")
    invariants = [cid for cid, row in CHECK_DEFS.items()
                  if row.group == "gauge" and row.dual is not None and cid not in shifts]
    for model in (models["reissner-nordstrom"], ball):
        c0, c1 = model.chart.names[0], model.chart.names[1]
        points = model.default_grid[::16]
        old = GeometrySnapshot(model, points)
        for src in (f"0.2*{c0}", f"0.1*{c0}*{c1}", f"sin({c0})"):
            phi = as_phi_field(model, src)
            pair = GaugePair(old, GeometrySnapshot(transform_potential(model, phi), points), phi)
            reading = {cid: peak(CHECK_DEFS[cid].residual(pair)) for cid in
                       [*invariants, "gauge.scalar_shift", "gauge.contorsion_delta"]}
            shift_worst = max(shift_worst, reading["gauge.scalar_shift"])
            invariants_ok = invariants_ok and all(
                reading[cid] <= default_tolerance(cid, "dual") for cid in invariants)
            delta_k_min = min(delta_k_min, reading["gauge.contorsion_delta"])
    ok = shift_worst <= 1e-8 and invariants_ok and delta_k_min > 0.0
    _report(7, "gauge shifts: divergence law, invariants, shifted contorsion",
            ok, f"shift residual={shift_worst:.2e} min dK={delta_k_min:.2e}")


def test_criterion_8_energy_exchange(ball):
    worst = 0.0
    for p in ball.default_grid:
        s = GeometrySnapshot(ball, p)
        rhs = np.einsum("mn,m->n", s.F_uu[0], s.J_down[0]) / s.c_light
        worst = max(worst, float(np.abs(s.div_T_em("rc")[0] - rhs).max()))
    ok = worst <= 1e-7
    _report(8, "stress-energy transfer to the current on the source fixture",
            ok, f"max={worst:.3e}")


def test_criterion_9_differentiation_engine(models):
    worst = 0.0
    for model in models.values():
        ctx = SuiteContext(model)
        fields = [model.g_fields[i][j] for i in range(4) for j in range(i, 4)]
        fields += list(model.A_fields)
        for p in ctx.random_points(100):
            for f in fields:
                jv = f.jet(p, 2)
                grad, hess = finite_difference_derivatives(f, p)
                scale = 1.0 + abs(jv.value)
                worst = max(
                    worst,
                    float(np.abs(grad - jv.grad).max()) / scale,
                    float(np.abs(hess - jv.hess).max()) / scale,
                )
    ok = worst <= 1e-6
    _report(9, "dual and finite-difference derivatives agree on catalog fields",
            ok, f"max relative gap={worst:.3e}")


def test_criterion_10_determinism(tmp_path):
    args = ["run", "--spacetime", "reissner-nordstrom", "--suite", "all"]
    out1, out8 = tmp_path / "jobs1.json", tmp_path / "jobs8.json"
    code1 = main(args + ["--jobs", "1", "--out", str(out1)])
    code8 = main(args + ["--jobs", "8", "--out", str(out8)])
    b1, b8 = out1.read_bytes(), out8.read_bytes()
    ok = code1 == 0 and code8 == 0 and b1 == b8
    _report(10, "reports are byte-identical across parallelism degrees",
            ok, f"{len(b1)} bytes")
    # sanity: the report is valid JSON with the full check list
    assert json.loads(b1.decode())["checks"]
