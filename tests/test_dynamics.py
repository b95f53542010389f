"""Worldline integration, transport identity, and dust exchange relations."""

import ast
import collections
import dataclasses
import functools
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcgeom import (
    CATALOG_NAMES,
    GeometryError,
    IntegratorConfig,
    WorldlineState,
    catalog,
    catalog_get,
    codegen,
    dynamics,
    integrate_worldline,
    load_spacetime_file,
    normalize_velocity,
)
from rcgeom.catalog import build_model
from rcgeom.checks import CHECK_DEFS, Worldline
from rcgeom.cli import main
from rcgeom.dynamics import Trajectory, _rhs, acceleration, probe_velocity, transport_residual
from rcgeom.engine import GeometrySnapshot
from rcgeom.errors import DomainError, EvalError, MetricError, point_text
from rcgeom.gauge import peak


def residual(check_id, model, x):
    """The residual of a pointwise check row at the point x."""
    return float(CHECK_DEFS[check_id].residual(GeometrySnapshot(model, x))[0])


def transport(model, state, charge_ratio):
    """The transport residual at the point and velocity of a worldline state."""
    snap = GeometrySnapshot(model, state.x)
    return float(transport_residual(snap, state.V[None], charge_ratio)[0])


def dust_velocity(model, x):
    return np.array([f.value(x) for f in model.dust.V_fields])


def test_straight_worldline_in_flat_space():
    m = catalog_get("minkowski")
    init = WorldlineState(np.zeros(4), np.array([1.0, 0, 0, 0]), 0.0)
    traj = integrate_worldline(m, init, 0.0, IntegratorConfig(ds=0.01, steps=100))
    final = traj.final()
    assert np.abs(final.x - np.array([1.0, 0, 0, 0])).max() <= 1e-14
    assert traj.max_drift == 0.0


def test_uniform_acceleration_closed_form():
    """V^0(s) = cosh(a s), V^1(s) = -sinh(a s) for the rest-start worldline."""
    m = catalog_get("minkowski-constant-e")
    a = 0.5
    init = WorldlineState(np.zeros(4), np.array([1.0, 0, 0, 0]), 0.0)
    traj = integrate_worldline(m, init, a, IntegratorConfig(ds=1e-3, steps=500))
    final = traj.final()
    s = final.s
    assert abs(final.V[0] - math.cosh(a * s)) <= 1e-10
    assert abs(final.V[1] + math.sinh(a * s)) <= 1e-10
    assert traj.max_drift <= 1e-12


def test_normalization_drift_over_long_run():
    """Ten thousand fixed steps keep |g(V,V) - 1| below 1e-8."""
    m = catalog_get("minkowski-constant-e")
    init = WorldlineState(np.zeros(4), np.array([1.0, 0, 0, 0]), 0.0)
    traj = integrate_worldline(m, init, 0.5, IntegratorConfig(ds=1e-3, steps=10_000))
    assert traj.max_drift <= 1e-8


def _independent_geodesic_rk4(model, x, V, ds, steps):
    """Reference integrator written directly against the connection, kept
    separate from the production path on purpose."""
    x = np.array(x, dtype=float)
    V = np.array(V, dtype=float)

    def rhs(xc, vc):
        gamma = GeometrySnapshot(model, xc).gamma_lc[0]
        acc = -np.einsum("mdn,m,d->n", gamma, vc, vc)
        return vc, acc

    for _ in range(steps):
        k1x, k1v = rhs(x, V)
        k2x, k2v = rhs(x + 0.5 * ds * k1x, V + 0.5 * ds * k1v)
        k3x, k3v = rhs(x + 0.5 * ds * k2x, V + 0.5 * ds * k2v)
        k4x, k4v = rhs(x + ds * k3x, V + ds * k3v)
        x = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        V = V + ds / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return x, V


def test_uncharged_worldline_matches_reference_geodesic():
    m = catalog_get("schwarzschild")
    x0 = np.array([0.0, 6.0, math.pi / 2, 0.0])
    V0 = normalize_velocity(m, x0, np.array([1.0, -0.05, 0.0, 0.02]))
    cfg = IntegratorConfig(ds=0.01, steps=150)
    traj = integrate_worldline(m, WorldlineState(x0, V0, 0.0), 0.0, cfg)
    xr, vr = _independent_geodesic_rk4(m, x0, V0, 0.01, 150)
    assert np.abs(traj.final().x - xr).max() <= 1e-10
    assert np.abs(traj.final().V - vr).max() <= 1e-10


def test_circular_orbit_stays_circular():
    m = catalog_get("schwarzschild")
    r = 8.0
    vt = 1.0 / math.sqrt(1.0 - 3.0 / r)
    vphi = math.sqrt(1.0 / r**3) * vt
    init = WorldlineState(
        np.array([0.0, r, math.pi / 2, 0.0]), np.array([vt, 0, 0, vphi]), 0.0
    )
    traj = integrate_worldline(m, init, 0.0, IntegratorConfig(ds=0.05, steps=400))
    assert np.abs(traj.x[:, 1] - r).max() <= 1e-8


def test_rk45_matches_closed_form():
    m = catalog_get("minkowski-constant-e")
    init = WorldlineState(np.zeros(4), np.array([1.0, 0, 0, 0]), 0.0)
    cfg = IntegratorConfig(ds=0.05, steps=20, method="rk45-adaptive")
    traj = integrate_worldline(m, init, 0.5, cfg)
    final = traj.final()
    assert final.s == pytest.approx(1.0, abs=1e-12)
    assert abs(final.V[0] - math.cosh(0.5)) <= 1e-8


def test_renormalization_option():
    m = catalog_get("minkowski-constant-e")
    init = WorldlineState(np.zeros(4), np.array([1.0, 0, 0, 0]), 0.0)
    cfg = IntegratorConfig(ds=1e-2, steps=100, renormalize_every=10)
    traj = integrate_worldline(m, init, 0.5, cfg)
    assert traj.max_drift <= 1e-10


def test_domain_exit_reports_partial_trajectory():
    m = catalog_get("schwarzschild")
    x0 = np.array([0.0, 3.0, math.pi / 2, 0.0])
    V0 = normalize_velocity(m, x0, np.array([1.0, -0.3, 0.0, 0.0]))
    traj = integrate_worldline(
        m, WorldlineState(x0, V0, 0.0), 0.0, IntegratorConfig(ds=0.05, steps=2000)
    )
    assert traj.exited
    assert traj.exit_message
    assert 1 < len(traj.s) < 2001
    assert traj.x[-1, 1] > 2.0



# -- the integrator against the two hand-written steppers it replaced -----------

def _ref_norm_squared(model, x, V):
    g = model.metric_values(np.asarray(x, dtype=float)[None])[0]
    return float(V @ g @ V)


def _ref_normalize(V, n2, x):
    if n2 <= 0:
        raise GeometryError(f"velocity {point_text(V)} is not timelike at {point_text(x)}")
    return V / np.sqrt(n2)


def _ref_derivative(model, y, k, mode, law):
    """dy/ds at y, an (8,) array.  Dual mode reads the integrator's
    right-hand side on the model's generated force law ``law`` (a failed
    force law comes as its error, raised here); fd mode keeps a snapshot."""
    if mode == "dual":
        dy = _rhs(model, y.tolist(), k, law)[0]
        if isinstance(dy, Exception):
            raise dy
        return np.array(dy)
    snap = GeometrySnapshot(model, y[:4][None], mode)
    return np.concatenate([y[4:], acceleration(snap, y[4:][None], k)[0]])


def _ref_norm(model, y, k, mode, law):
    """g(V, V) at y: the generated force law's in dual mode, the metric's
    plain values in fd mode."""
    if mode == "dual":
        return _rhs(model, y.tolist(), k, law)[1]
    return _ref_norm_squared(model, y[:4], y[4:])


def _ref_rk4_step(f, y, ds):
    k1 = f(y)
    k2 = f(y + 0.5 * ds * k1)
    k3 = f(y + 0.5 * ds * k2)
    k4 = f(y + ds * k3)
    return y + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _ref_dp54_step(f, y, k1, ds):
    """The fifth-order solution is the last stage's point (its row is the
    fifth-order weights), so its derivative is the next step's first."""
    ks = [k1]
    for i in range(1, 7):
        yi = y.copy()
        for j, a in enumerate(_DP_A[i]):
            yi = yi + ds * a * ks[j]
        ks.append(f(yi))
    y4 = y + ds * sum(b * ki for b, ki in zip(_DP_B4, ks))
    return yi, float(np.abs(yi - y4).max()), ks[-1]


def _reference_worldline(model, init, charge_ratio, config, mode="dual"):
    """The integrator as two hand-written steppers, each step testing the
    domain at the accepted point on its own."""
    y = np.concatenate([init.x, init.V]).astype(float)
    s = float(init.s)
    k = float(charge_ratio)
    law = dynamics._generate_rhs(model) if mode == "dual" else None

    def f(y):
        return _ref_derivative(model, y, k, mode, law)

    def left(y):
        return DomainError(f"worldline left the domain of {model.name!r} near {point_text(y[:4])}")

    ss, ys = [s], [y]
    residuals = [abs(_ref_norm_squared(model, y[:4], y[4:]) - 1.0)]
    traj = Trajectory(ss, ys, residuals)

    try:
        if config.method == "rk4":
            for step in range(config.steps):
                y = _ref_rk4_step(f, y, config.ds)
                s += config.ds
                if not model.in_domain(y[:4]):
                    raise left(y)
                if config.renormalize_every and (step + 1) % config.renormalize_every == 0:
                    y[4:] = _ref_normalize(y[4:], _ref_norm(model, y, k, mode, law), y[:4])
                ss.append(s)
                ys.append(y)
                residuals.append(abs(_ref_norm(model, y, k, mode, law) - 1.0))
        else:
            span = config.ds * config.steps
            s_end = s + span
            ds = config.ds
            atol, rtol = 1e-12, 1e-10
            max_attempts = 20 * config.steps
            attempts = 0
            k1 = f(y)
            while s < s_end - 1e-15 * min(1.0, span):
                ds = min(ds, s_end - s)
                y5, err, k7 = _ref_dp54_step(f, y, k1, ds)
                tol = atol + rtol * float(np.abs(y).max())
                if err <= tol:
                    if not model.in_domain(y5[:4]):
                        raise left(y5)
                    y, k1 = y5, k7
                    s += ds
                    ss.append(s)
                    ys.append(y)
                    residuals.append(abs(_ref_norm(model, y, k, mode, law) - 1.0))
                else:
                    traj.rejected_steps += 1
                safety = 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
                ds = ds * min(4.0, max(0.2, safety))
                attempts += 1
                if attempts > max_attempts and s < s_end - 1e-15 * min(1.0, span):
                    traj.budget_exhausted = True
                    traj.exit_message = (f"adaptive integrator exceeded its budget of "
                                         f"{max_attempts} attempts at s = {s!r}")
                    break
    except (DomainError, EvalError, MetricError) as err:
        traj.exited = True
        traj.exit_message = str(err)
    traj.s, traj.y = np.array(ss), np.array(ys)
    return traj


def _circular(r):
    vt = 1.0 / math.sqrt(1.0 - 3.0 / r)
    return [0.0, r, math.pi / 2, 0.0], [vt, 0.0, 0.0, math.sqrt(1.0 / r**3) * vt]


def _rn_orbit():
    # the benchmark's bound charged orbit (seed 0) over 80 of its 300 units
    # of proper time, started at eight times its step so that the error
    # control rejects a step
    q, r = 0.36420911491257435, 10.978428133253583
    v0 = [1.1712637600760631, -0.019881697386153786, 0.0, 0.03200403760260694]
    return q, [0.0, r, math.pi / 2, 0.0], v0


_INFALL = ([0.0, 3.0, math.pi / 2, 0.0], [1.0, -0.3, 0.0, 0.0])

REFERENCE_RUNS = {
    # name: (entry, params, x0, v0 (normalized first), k, config, the start
    # of the exit message or None)
    "schwarzschild-circular-rk4": (
        "schwarzschild", {}, *_circular(8.0), 0.0,
        IntegratorConfig(ds=2.0 * math.pi * 8.0**1.5 * math.sqrt(1 - 3 / 8.0) / 1500, steps=300),
        None),
    "constant-e-charged-rk4": (
        "minkowski-constant-e", {}, [0.1, -0.2, 0.3, 0.05], [1.0, 0.1, 0.0, 0.0], 0.6,
        IntegratorConfig(ds=0.002, steps=300), None),
    "constant-e-charged-rk4-renormalized": (
        "minkowski-constant-e", {}, [0.1, -0.2, 0.3, 0.05], [1.0, 0.1, 0.0, 0.0], 0.6,
        IntegratorConfig(ds=0.002, steps=300, renormalize_every=10), None),
    "rn-charged-rk45": (
        "reissner-nordstrom", {"q": _rn_orbit()[0]}, *_rn_orbit()[1:], 0.04204902155293286,
        IntegratorConfig(ds=4.0, steps=20, method="rk45-adaptive"), None),
    "schwarzschild-infall-rk4": (
        "schwarzschild", {}, *_INFALL, 0.0, IntegratorConfig(ds=0.05, steps=2000),
        "worldline left the domain of 'schwarzschild' near ("),
    "schwarzschild-infall-rk45": (
        "schwarzschild", {}, *_INFALL, 0.0,
        IntegratorConfig(ds=0.05, steps=2000, method="rk45-adaptive"),
        "metric is numerically degenerate (det="),
    # the last accepted state is at the degeneracy bound: it keeps its norm,
    # and the next step ends the worldline before its first stage
    "schwarzschild-infall-rk4-degenerate": (
        "schwarzschild", {}, *_INFALL, 0.0, IntegratorConfig(ds=0.002, steps=1000),
        "metric is numerically degenerate (det="),
    # a span of 10 that the controller cannot cover in 20 attempts
    "constant-e-charged-rk45-budget": (
        "minkowski-constant-e", {}, [0.1, -0.2, 0.3, 0.05], [1.0, 0.1, 0.0, 0.0], 0.6,
        IntegratorConfig(ds=10.0, steps=1, method="rk45-adaptive"),
        "adaptive integrator exceeded its budget of 20 attempts at s = "),
    "start-outside-domain": (
        "schwarzschild", {}, [0.0, 1.5, math.pi / 2, 0.0], None, 0.0,
        IntegratorConfig(ds=0.05, steps=20),
        "point (0.0, 1.5, 1.5707963267948966, 0.0) is outside the domain of 'schwarzschild'"),
}
# fd mode takes a snapshot at every stage
REFERENCE_RUNS.update({f"{name}-fd": REFERENCE_RUNS[name] for name in (
    "constant-e-charged-rk4", "rn-charged-rk45", "schwarzschild-infall-rk4",
    "schwarzschild-infall-rk45")})
# the generated force law returns None on a band of points the trajectory
# crosses (phi on the circular orbit, r on the charged one), so the stages
# there take the snapshot route
DECLINES = {
    "schwarzschild-circular-rk4-declining": lambda y: 0.3 < y[3] < 0.35,
    "rn-charged-rk45-declining": lambda y: 10.3 < y[1] < 10.5,
}
REFERENCE_RUNS.update({name: REFERENCE_RUNS[name.removesuffix("-declining")] for name in DECLINES})


def _declining(monkeypatch, model, decline):
    """Resolve the model's generated force law to one that returns None
    where ``decline(point)`` holds; returns the list of those points."""
    declined, generate = [], dynamics._generate_rhs
    law = generate(model)

    def rhs(*args):
        if decline(args):
            declined.append(args)
            return None
        return law(*args)

    monkeypatch.setattr(dynamics, "_generate_rhs", lambda m: rhs if m is model else generate(m))
    return declined


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_integrator_matches_reference_steppers(monkeypatch, fallbacks, name):
    entry, params, x0, v0, k, config, exit_message = REFERENCE_RUNS[name]
    mode = "fd" if name.endswith("-fd") else "dual"
    m = catalog_get(entry, params=params)
    declined = _declining(monkeypatch, m, DECLINES[name]) if name in DECLINES else None
    x0 = np.array(x0)
    # the start outside the domain keeps a unit, spacelike there, velocity
    V0 = np.array([1.0, 0.0, 0.0, 0.0]) if v0 is None else normalize_velocity(m, x0, np.array(v0))
    init = WorldlineState(x0, V0, 0.0)
    traj = integrate_worldline(m, init, k, config, mode)
    if declined is not None:  # each declined stage is offered to the law once
        assert declined and len(declined) == len(fallbacks)
    ref = _reference_worldline(m, init, k, config, mode)

    assert traj.y.shape == ref.y.shape
    assert np.array_equal(traj.s, ref.s) and np.array_equal(traj.y, ref.y)
    assert traj.rejected_steps == ref.rejected_steps
    assert ((traj.exited, traj.budget_exhausted, traj.exit_message)
            == (ref.exited, ref.budget_exhausted, ref.exit_message))
    # residuals |g(V,V) - 1| to 1e-12 of g(V,V): the metric comes from field
    # jets now, whose quotients may differ from plain values in the last bit
    for got, want in zip(traj.norm_residuals, ref.norm_residuals):
        assert abs(got - want) <= 1e-12 * (1.0 + want)

    assert (ref.exited or ref.budget_exhausted) == (exit_message is not None)
    assert ref.exit_message.startswith(exit_message or "")
    if config.method == "rk45-adaptive" and exit_message is None:
        assert ref.rejected_steps > 0

def test_acceleration_flat_no_field():
    m = catalog_get("minkowski")
    V = np.array([[1.0, 0, 0, 0], [1.25, 0.6, 0.3, 0.0]])
    dv = acceleration(GeometrySnapshot(m, np.zeros((2, 4))), V, 0.7)
    assert dv.shape == (2, 4)
    assert np.abs(dv).max() == 0.0


def test_normalize_velocity_rejects_spacelike():
    m = catalog_get("minkowski")
    with pytest.raises(GeometryError):
        normalize_velocity(m, np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))


def test_integrator_config_validation():
    with pytest.raises(GeometryError):
        IntegratorConfig(ds=-1.0, steps=10)
    with pytest.raises(GeometryError):
        IntegratorConfig(ds=0.1, steps=0)
    with pytest.raises(GeometryError):
        IntegratorConfig(ds=0.1, steps=10, method="euler")
    # the adaptive method never renormalizes, so asking it to is bad input
    with pytest.raises(GeometryError, match="needs rk4"):
        IntegratorConfig(ds=0.1, steps=10, method="rk45-adaptive", renormalize_every=2)
    IntegratorConfig(ds=0.1, steps=10, method="rk45-adaptive", renormalize_every=0)


def test_gauge_shift_leaves_rhs_unchanged():
    from rcgeom import transform_potential

    m = catalog_get("minkowski-constant-e")
    shifted = transform_potential(m, "0.3*t*x + sin(t)")
    x = np.array([0.4, 0.2, 0.1, 0.0])
    V = normalize_velocity(m, x, np.array([1.0, 0.1, 0.05, 0.0]))[None]
    dv0 = acceleration(GeometrySnapshot(m, x), V, 0.7)
    dv1 = acceleration(GeometrySnapshot(shifted, x), V, 0.7)
    assert np.abs(dv0).max() > 0.1  # the field accelerates the charge
    assert np.abs(dv1 - dv0).max() <= 1e-15


def test_transport_residual_geodesic_case():
    m = catalog_get("schwarzschild")
    x = np.array([0.0, 5.0, 1.2, 0.4])
    V = normalize_velocity(m, x, np.array([1.0, 0.02, 0.0, 0.01]))
    st = WorldlineState(x, V, 0.0)
    assert transport(m, st, 0.0) <= 1e-14


def test_transport_residual_constant_field_dust():
    m = catalog_get("minkowski-constant-e")
    k = 0.5
    for t in (0.0, 0.7, 1.5):
        x = np.array([t, 0.3, 0.0, 0.0])
        V = dust_velocity(m, x)
        st = WorldlineState(x, V, 0.0)
        assert transport(m, st, k) <= 1e-8


def test_transport_residual_rn_radial_infall():
    m = catalog_get("reissner-nordstrom")
    x = np.array([0.0, 6.0, math.pi / 2, 0.0])
    V = normalize_velocity(m, x, np.array([1.0, -0.2, 0.0, 0.0]))
    st = WorldlineState(x, V, 0.0)
    assert transport(m, st, 0.05) <= 1e-7


def test_exchange_identities_free_dust():
    """No field at all: every exchange residual is exactly zero."""
    m = catalog_get("minkowski")
    x = np.array([0.2, 0.1, 0.0, 0.3])
    for cid in ("rc.stress_pair", "em.stress_conservation",
                "dyn.exchange_mass_flux", "dyn.exchange_conservation"):
        assert residual(cid, m, x) == 0.0, cid


def test_exchange_pair_cancellation_on_rn():
    m = catalog_get("reissner-nordstrom")
    for p in m.default_grid[::16]:
        s = GeometrySnapshot(m, p)
        assert s.pair_residual_T() <= 1e-10


def test_exchange_identities_accelerated_dust():
    m = catalog_get("minkowski-constant-e")
    for t in (0.0, 0.5, 1.2):
        x = np.array([t, 0.2, 0.1, 0.0])
        V, g = dust_velocity(m, x), GeometrySnapshot(m, x).g[0]
        assert abs(float(V @ g @ V) - 1.0) <= 1e-10
        assert residual("dyn.exchange_conservation", m, x) <= 1e-6
        assert residual("rc.stress_pair", m, x) <= 1e-12
        assert residual("em.stress_conservation", m, x) <= 1e-7


def test_exchange_identities_charge_ball():
    m = catalog_get("charge-ball")
    for p in m.default_grid[::5]:
        assert residual("dyn.exchange_conservation", m, p) <= 1e-8
        assert residual("em.stress_conservation", m, p) <= 1e-7
        assert residual("rc.stress_pair", m, p) <= 1e-12


def test_mass_flux_residual_documents_printed_sign():
    """With the definitional contorsion sign the printed relation is off by
    exactly twice the coupling source; the residual reports that gap."""
    m = catalog_get("charge-ball")
    x = np.array([0.0, 0.3, 0.1, -0.2])
    s = GeometrySnapshot(m, x)
    V = dust_velocity(m, x)
    rho0 = m.dust.rho0.value(x)
    expected = 2.0 * s.C * rho0 * abs(
        float(np.einsum("m,nm,n->", s.A[0], s.F_mix[0], V))
    )
    assert residual("dyn.exchange_mass_flux", m, x) == pytest.approx(expected, abs=1e-12)


def test_dust_is_parsed_once_per_model():
    m = catalog_get("charge-ball")
    assert m.dust is m.dust
    assert m.dust.rho0.value(np.zeros(4)) == 0.05
    assert catalog_get("schwarzschild").dust is None


# -- negative controls of the worldline rows -----------------------------------

SCENARIO_MODELS = ("minkowski", "minkowski-constant-e", "schwarzschild")


def _scenario_trajectory(model, V0=None, k=None):
    """The trajectory from the model's closed-form start, with its velocity
    or its charge ratio replaced."""
    x0, V, k0, ds, steps = model.meta["scenario"].start(model)
    init = WorldlineState(np.array(x0), np.array(V if V0 is None else V0), 0.0)
    return integrate_worldline(model, init, k0 if k is None else k,
                               IntegratorConfig(ds=ds, steps=steps))


@functools.cache
def _scenario(name):
    """A scenario model's own worldline subject."""
    model = catalog_get(name)
    k = model.meta["scenario"].start(model)[2]
    return Worldline(model, _scenario_trajectory(model), k)


def _failing_worldline_rows(worldline):
    """The worldline rows whose reading on the subject exceeds the dual tolerance."""
    rows = [cid for cid, row in CHECK_DEFS.items() if row.group == "worldline"]
    assert rows == ["dyn.closed_form", "dyn.norm_drift"]
    return [cid for cid in rows
            if not peak(CHECK_DEFS[cid].residual(worldline)) <= CHECK_DEFS[cid].dual]


@pytest.mark.parametrize("name", SCENARIO_MODELS)
def test_scenario_worldline_passes_both_rows(name):
    w = _scenario(name)
    assert _failing_worldline_rows(w) == []
    # one value per state
    for cid in ("dyn.closed_form", "dyn.norm_drift"):
        assert len(CHECK_DEFS[cid].residual(w)) == len(w.traj.states), cid


def test_off_circular_start_fails_the_closed_form_row():
    """A Schwarzschild circular start with V^phi off by 1e-4, rescaled to
    unit norm: the radius drifts, while the norm holds."""
    model = catalog_get("schwarzschild")
    x0, V0, k, _ds, _steps = model.meta["scenario"].start(model)
    V = np.array(V0) + np.array([0.0, 0.0, 0.0, 1e-4])
    w = Worldline(model, _scenario_trajectory(model, V0=normalize_velocity(model, x0, V)), k)
    assert _failing_worldline_rows(w) == ["dyn.closed_form"]
    row = CHECK_DEFS["dyn.closed_form"]
    assert peak(row.residual(w)) > 1e3 * row.dual


def test_mis_scaled_charge_fails_the_closed_form_row():
    """The uniform-acceleration trajectory integrated with the charge ratio
    1e-4 too large, read with the scenario's own."""
    model = catalog_get("minkowski-constant-e")
    k = _scenario("minkowski-constant-e").k
    w = Worldline(model, _scenario_trajectory(model, k=k * (1.0 + 1e-4)), k)
    assert _failing_worldline_rows(w) == ["dyn.closed_form"]


def test_flipped_charge_sign_fails_the_closed_form_row():
    """The uniform-acceleration trajectory integrated with the charge
    ratio's sign flipped, read with the scenario's own: V^0 = cosh(k E s)
    is even in k, V^1 = -sinh(k E s) is not."""
    model = catalog_get("minkowski-constant-e")
    k = _scenario("minkowski-constant-e").k
    w = Worldline(model, _scenario_trajectory(model, k=-k), k)
    assert _failing_worldline_rows(w) == ["dyn.closed_form"]
    assert peak(CHECK_DEFS["dyn.closed_form"].residual(w)) > 1.0


@pytest.mark.parametrize("param", ["c=2", "G=0.5"])
def test_circular_start_uses_the_mass_the_metric_reads(param, tmp_path):
    """The Schwarzschild circular start reads the mass as G M / c^2, as the
    metric does: with M alone, c = 2 failed dyn.closed_form (33.0) and
    dyn.norm_drift (0.30) on a correct model, G = 0.5 at 22.7 and 0.20."""
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", "schwarzschild", "--param", param,
                 "--suite", "dynamics", "--out", str(out)]) == 0
    rows = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
    assert rows["dyn.closed_form"]["pass"] and rows["dyn.norm_drift"]["pass"]
    assert rows["dyn.closed_form"]["grid_points"] == 1501


@pytest.mark.parametrize("name", SCENARIO_MODELS)
def test_drifting_norm_fails_the_norm_drift_row(name):
    """The scenario's own states, with a norm residual of 1e-7 at each."""
    w = _scenario(name)
    drifting = dataclasses.replace(w.traj, norm_residuals=[1e-7] * len(w.traj.states))
    assert _failing_worldline_rows(w._replace(traj=drifting)) == ["dyn.norm_drift"]


# -- trajectories as columns -------------------------------------------------------

# The closed forms as loops over per-state objects, the form their column
# expressions replaced, kept as the reference they must match bit for bit.

def _ref_straight_line(model, traj, charge_ratio):
    x0, V0 = traj.states[0].x, traj.states[0].V
    return [float(np.abs(st.x - (x0 + st.s * V0)).max()) for st in traj.states]


def _ref_uniform_acceleration(model, traj, charge_ratio):
    a = charge_ratio * model.params["E"]
    return [max(abs(st.V[0] - math.cosh(a * st.s)), abs(st.V[1] + math.sinh(a * st.s)))
            for st in traj.states]


def _ref_circular_radius(model, traj, charge_ratio):
    r = traj.states[0].x[1]
    return [abs(st.x[1] - r) for st in traj.states]


CLOSED_FORMS = {
    "straight-line": (catalog.straight_line_error, _ref_straight_line),
    "uniform-acceleration": (catalog.uniform_acceleration_error, _ref_uniform_acceleration),
    "circular-radius": (catalog.circular_radius_error, _ref_circular_radius),
}


@pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("name", SCENARIO_MODELS)
def test_closed_forms_match_the_per_state_loop(form, name):
    """Every closed form on every scenario worldline, read with the uniform
    field's E = 1.3 and charge ratio 0.45, so that cosh and sinh of k E s
    grow along every worldline, not only the accelerated one."""
    closed_form, reference = CLOSED_FORMS[form]
    model, traj = catalog_get("minkowski-constant-e", params={"E": 1.3}), _scenario(name).traj
    got, want = closed_form(model, traj, 0.45), reference(model, traj, 0.45)
    assert len(want) == len(traj.s) > 200
    assert _bits(got.tolist()) == _bits(want)


@pytest.mark.parametrize("steps, exited", [(10, False), (2000, True)], ids=["full", "exited"])
def test_states_final_and_columns_agree(steps, exited):
    m = catalog_get("schwarzschild")
    x0 = np.array(_INFALL[0])
    init = WorldlineState(x0, normalize_velocity(m, x0, np.array(_INFALL[1])), 0.0)
    traj = integrate_worldline(m, init, 0.0, IntegratorConfig(ds=0.05, steps=steps))
    n = len(traj.states)
    assert traj.exited == exited and (n == steps + 1) != exited
    assert traj.s.shape == (n,) and traj.y.shape == (n, 8) and len(traj.norm_residuals) == n
    assert traj.x.shape == traj.V.shape == (n, 4)
    assert np.shares_memory(traj.x, traj.y) and np.shares_memory(traj.V, traj.y)
    final = traj.final()
    assert type(final.s) is float and final.s == traj.s[-1]
    assert np.array_equal(final.x, traj.x[-1]) and np.array_equal(final.V, traj.V[-1])
    assert [st.s for st in traj.states] == traj.s.tolist()
    assert np.array_equal(traj.states[0].x, x0) and np.array_equal(traj.states[0].V, init.V)


def test_an_overflowing_closed_form_is_an_infinite_error(tmp_path, capsys):
    """cosh(k E s) overflows from s = 2000 on this rest start: the oracle's
    error is infinite, which the summary prints as null, and the exit status
    follows the trajectory, which stays in the domain."""
    out = tmp_path / "w.csv"
    assert main(["worldline", "--spacetime", "minkowski-constant-e", "--x0", "0,0,0,0",
                 "--v0", "1,0,0,0", "--charge-ratio", "0.5", "--ds", "1e3", "--steps", "3",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = json.loads(captured.out)
    assert summary["oracle"] == {"name": "uniform-acceleration", "max_error": None}
    assert summary["steps_taken"] == 3 and not summary["domain_exit"]

    model = catalog_get("minkowski-constant-e")
    init = WorldlineState(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    traj = integrate_worldline(model, init, 0.5, IntegratorConfig(ds=1e3, steps=3))
    errors = catalog.uniform_acceleration_error(model, traj, 0.5)
    assert np.isfinite(errors[:2]).all() and errors[2:].tolist() == [math.inf] * 2


@pytest.mark.parametrize("span, k", [(100.0, 0.45), (2000.0, 0.45), (2000.0, -0.45)],
                         ids=["finite", "overflow", "overflow-negative"])
def test_the_uniform_acceleration_oracle_has_the_bits_of_the_per_state_loop(span, k):
    """cosh and sinh of k E s at every state, through math entry by entry,
    give the bits of one call per state, infinite where they overflow (past
    s = 1213 at k E = 0.585)."""
    model = catalog_get("minkowski-constant-e", params={"E": 1.3})
    rng = np.random.default_rng(3)
    traj = Trajectory(np.linspace(0.0, span, 501), rng.uniform(-3.0, 3.0, (501, 8)), [])
    a = k * model.params["E"]
    want = []
    for st in traj.states:
        cosh, sinh = catalog._cosh_sinh(a * st.s)
        want.append(max(abs(st.V[0] - cosh), abs(st.V[1] + sinh)))
    got = catalog.uniform_acceleration_error(model, traj, k)
    assert _bits(got.tolist()) == _bits(want)
    assert np.isinf(got).any() == (span > 1213.0)


# -- the generated right-hand side ----------------------------------------------

KN_FILE = Path(__file__).resolve().parents[1] / "bench" / "kerr_newman.spacetime"
RHS_MODELS = {name: catalog_get(name) for name in CATALOG_NAMES + ("charge-ball",)}
RHS_MODELS["kerr-newman"] = load_spacetime_file(KN_FILE)
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny
_COMPONENT = st.floats(-2.0, 2.0)


@pytest.mark.parametrize("name", sorted(RHS_MODELS))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       st.lists(_COMPONENT, min_size=4, max_size=4), _COMPONENT)
def test_generated_rhs_agrees_with_the_snapshot(name, where, V, k):
    """At a point of the default grid's box inside the domain, with any
    velocity and charge ratio: dV^n/ds within 8 ulps of the sum of the
    absolute terms g^{nl} (|Gamma_{l,md} V^m V^d| + |k F_{ml} V^m|), and
    g(V, V) within 8 ulps of the sum of |g_ab V^a V^b|; the velocity part
    of dy/ds is V itself."""
    model = RHS_MODELS[name]
    axes = [model.grid_axes[c] for c in model.chart.names]
    x = [min(a) + w * (max(a) - min(a)) for a, w in zip(axes, where)]
    assume(model.in_domain(np.array(x)))
    y = x + V
    got = dynamics._generate_rhs(model)(*y, k)
    assert got is not None
    want = dynamics._snapshot_rhs(model, y, k, "dual")
    assert got[0][:4] == want[0][:4] == tuple(V)

    snap = GeometrySnapshot(model, np.array(x))
    dg, aV = np.abs(snap.dg[0]), np.abs(V)
    first = 0.5 * (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) + dg)  # |Gamma_{l,md}| terms
    terms = np.abs(snap.ginv[0]) @ (np.einsum("lmd,m,d->l", first, aV, aV)
                                    + abs(k) * np.abs(snap.F_dd[0]).T @ aV)
    # TINY: below the normal range the spacing of the floats is absolute
    assert np.all(np.abs(np.subtract(got[0][4:], want[0][4:])) <= 8 * EPS * terms + TINY)
    norm_terms = (np.abs(snap.g[0]) * np.outer(aV, aV)).sum()
    assert abs(got[1] - want[1]) <= 8 * EPS * norm_terms + TINY


def _kn_trajectory(k=0.5, mode="dual"):
    """The Kerr-Newman worldline of the CI comparison."""
    model = RHS_MODELS["kerr-newman"]
    x0 = np.array([0.0, 7.0, 1.2, 0.3])
    init = WorldlineState(x0, normalize_velocity(model, x0, np.array([1.0, 0.0, 0.0, 0.05])), 0.0)
    return integrate_worldline(model, init, k, IntegratorConfig(ds=0.02, steps=500), mode)


@pytest.fixture
def fallbacks(monkeypatch):
    """The points at which ``_rhs`` took the snapshot route."""
    seen, snapshot_rhs = [], dynamics._snapshot_rhs

    def counted(model, y, k, mode):
        seen.append(y)
        return snapshot_rhs(model, y, k, mode)

    monkeypatch.setattr(dynamics, "_snapshot_rhs", counted)
    return seen


def test_worldlines_take_the_generated_path(fallbacks):
    """Every stage of the scenario worldlines, of their failing controls and
    of the Kerr-Newman worldline runs the generated force law: a silent
    fallback to snapshots would pass every other test."""
    trajs = [_scenario_trajectory(catalog_get(name)) for name in SCENARIO_MODELS]
    schwarzschild, constant_e = catalog_get("schwarzschild"), catalog_get("minkowski-constant-e")
    x0, V0, _, _, _ = schwarzschild.meta["scenario"].start(schwarzschild)
    off = normalize_velocity(schwarzschild, x0, np.array(V0) + np.array([0.0, 0.0, 0.0, 1e-4]))
    trajs.append(_scenario_trajectory(schwarzschild, V0=off))
    trajs.append(_scenario_trajectory(constant_e, k=-_scenario("minkowski-constant-e").k))
    trajs.append(_kn_trajectory())
    assert sum(t.rhs_evals for t in trajs) > 10_000
    assert not any(t.exited for t in trajs)
    assert fallbacks == []
    # fd mode takes a snapshot at every stage
    assert _kn_trajectory(mode="fd").rhs_evals == len(fallbacks) == 1 + 4 * 500


@pytest.mark.parametrize("method, ds, renormalize_every", [
    ("rk4", 0.05, 0), ("rk4", 0.05, 3), ("rk45-adaptive", 0.5, 0)])
def test_rhs_evaluations_per_step(monkeypatch, fallbacks, method, ds, renormalize_every):
    """rk4: 1 + 4 per step, plus 1 per renormalization; DP54: 1 + 6 per
    attempt, the last stage of an accepted step being the next one's first.
    ``rhs_evals`` counts the calls of the model's generated force law and
    of the snapshot route; this model never takes the latter."""
    model = catalog_get("minkowski-constant-e")
    calls, law = [], dynamics._generate_rhs(model)
    monkeypatch.setattr(dynamics, "_generate_rhs", lambda m: lambda *a: calls.append(a) or law(*a))
    init = WorldlineState(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    cfg = IntegratorConfig(ds=ds, steps=10, method=method, renormalize_every=renormalize_every)
    traj = integrate_worldline(model, init, 0.5, cfg)
    steps = len(traj.states) - 1
    if method == "rk4":
        assert traj.rhs_evals == 1 + 4 * steps + (renormalize_every and steps // renormalize_every)
    else:
        assert traj.rejected_steps > 0
        assert traj.rhs_evals == 1 + 6 * (steps + traj.rejected_steps)
    assert traj.rhs_evals == len(calls) + len(fallbacks)
    assert fallbacks == []


def test_an_rk4_step_that_leaves_the_domain_at_an_inner_stage():
    """Every accepted state of this infall lies outside the horizon, but the
    second stage of the fifth step, y + (ds/2) k1, lies inside: the worldline
    ends with the snapshot's note for that point, after 1 + 4 * 4 + 1 calls
    of ``_rhs``, holding the start and four accepted states."""
    m = catalog_get("schwarzschild")
    x0 = np.array([0.0, 2.5, math.pi / 2, 0.0])
    V0 = normalize_velocity(m, x0, np.array([1.0, -0.1, 0.0, 0.0]))
    traj = integrate_worldline(m, WorldlineState(x0, V0, 0.0), 0.0,
                               IntegratorConfig(ds=0.3, steps=100))
    assert traj.exited
    assert traj.exit_message == ("point (8.43502670145681, 1.9928007325726869, 1.5707963267948966,"
                                 " 0.0) is outside the domain of 'schwarzschild'")
    assert traj.rhs_evals == 1 + 4 * 4 + 1
    assert len(traj.s) == 5
    assert traj.x[:, 1].min() > 2.0


def _list_rk_step(tableau, law, fall, ds, y, k1, k):
    """The generated step's arithmetic as elementwise list sums: the
    reference it must match bit for bit.  Stage j is the law's pair, or
    where the law declines or raises, ``fall(j, *point)``."""
    ks = [k1]

    def stage(j, point):
        try:
            pair = law(*point, k)
        except (ArithmeticError, ValueError):
            pair = None
        return fall(j, *point) if pair is None else pair

    for j, row in enumerate(tableau.a, start=1):
        yi = y
        for a, i in row:
            c = ds * a
            yi = [u + c * v for u, v in zip(yi, ks[i])]
        last = stage(j, yi)
        ks.append(last[0])

    def weigh(pairs):
        # a unit weight takes its stage as is: 1.0 * k is k, bit for bit
        total = None
        for w, j in pairs:
            term = ks[j] if w == 1.0 else [w * v for v in ks[j]]
            total = term if total is None else [a + b for a, b in zip(total, term)]
        return total

    if tableau.fsal:
        y_new = yi
    else:
        c = ds / tableau.denom
        y_new = [u + c * v for u, v in zip(y, weigh(tableau.b))]
        last = stage(len(tableau.a) + 1, y_new)
    if tableau.b_low is None:
        return y_new, 0.0, last
    low = weigh(tableau.b_low)
    return y_new, max(abs(a - (u + ds * v)) for a, u, v in zip(y_new, y, low)), last


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


# any finite float, with signed zeros, subnormals and magnitudes near the
# largest float drawn often
_STEP_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1.7e308]))
_STATES = st.lists(_STEP_FLOATS, min_size=8, max_size=8)


@pytest.mark.parametrize("method", sorted(dynamics._TABLEAUX))
@settings(max_examples=150, deadline=None)
@given(y=_STATES, ks=st.lists(_STATES, min_size=7, max_size=7),
       ds=st.floats(min_value=5e-324, max_value=1e300))
def test_generated_kernels_match_the_list_arithmetic(method, y, ks, ds):
    """The generated step's stage points, new y, error estimate and pair at
    the new state are the list arithmetic's, bit for bit (overflow to inf
    and NaN included); call i of the law returns the pair (ks[i], i).  A law
    that declines at call i (returns None, or raises) hands stage i to
    ``fall(i, *point)``, whose pair (-ks[i], -i) the step then uses; the
    law is offered every stage once either way."""
    tableau = dynamics._TABLEAUX[method]
    calls = len(tableau.a) + (not tableau.fsal)

    def run(step, points, falls, declines_at=None):
        def law(*args):
            assert args[8] == 0.25  # the charge ratio, passed on
            points.append(args[:8])
            i = len(points)
            if i == declines_at:
                if i % 2:
                    return None
                raise ZeroDivisionError("float division by zero")
            return tuple(ks[i]), float(i)

        def fall(j, *point):
            falls.append(j)
            assert point == points[-1]
            return tuple(-v for v in ks[j]), -float(j)

        return step(law, fall, ds, y, tuple(ks[0]), 0.25)

    for declines_at in (None, *range(1, calls + 1)):
        got_points, want_points, got_falls, want_falls = [], [], [], []
        got = run(dynamics._step(tableau), got_points, got_falls, declines_at)
        want = run(functools.partial(_list_rk_step, tableau), want_points, want_falls,
                   declines_at)
        assert list(map(_bits, got_points)) == list(map(_bits, want_points))
        assert len(got_points) == calls
        assert got_falls == want_falls == ([] if declines_at is None else [declines_at])
        assert _bits(got[0]) == _bits(want[0])
        assert _bits([got[1]]) == _bits([want[1]])
        assert got[2] == want[2]
        if declines_at != calls:
            assert got[2] == (tuple(ks[calls]), float(calls))


@pytest.mark.parametrize("method", sorted(dynamics._TABLEAUX))
def test_generated_step_source_holds_only_its_own_names(method):
    """The generated step holds only its arguments, its locals, finite float
    literals, the stage numbers it hands to ``fall``, abs, max, the errors
    of a law that raises and the None of one that declines."""
    tableau = dynamics._TABLEAUX[method]
    tree = ast.parse(dynamics._step(tableau).source)
    (func,) = tree.body
    arguments = [a.arg for a in func.args.args]
    assert func.name == "step" and arguments == ["law", "fall", "ds", "y", "dy", "k"]
    stored = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    builtins = {"abs", "max", "ArithmeticError", "ValueError"}
    assert not stored & {"law", "fall", *builtins}
    stages = range(1, len(tableau.a) + 2 - tableau.fsal)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            assert node.id in {*arguments, *stored, *builtins}
        elif isinstance(node, ast.Constant):
            assert node.value is None or (type(node.value) is float and math.isfinite(node.value)
                                          or type(node.value) is int and node.value in stages)
        elif isinstance(node, ast.Call):
            assert isinstance(node.func, ast.Name) and node.func.id in {"law", "fall", "abs", "max"}
        else:
            assert not isinstance(node, (ast.Attribute, ast.Subscript, ast.Lambda))


def test_probe_velocity_inside_the_ergoregion(tmp_path):
    """Kerr-Newman at r = 1.79, theta = 1.5 lies outside the horizon and
    inside the ergoregion (g_tt < 0), where no candidate of the fixed probe
    is timelike: the probe is the unit normal to t = const there."""
    model = RHS_MODELS["kerr-newman"]
    snap = GeometrySnapshot(model, np.array([0.0, 1.79, 1.5, 0.1]))
    g = snap.g[0]
    assert g[0, 0] < 0.0
    V = probe_velocity(snap)[0]
    assert abs(V @ g @ V - 1.0) <= 1e-12
    assert np.allclose(V, snap.ginv[0][:, 0] / math.sqrt(snap.ginv[0][0, 0]), rtol=1e-12)
    out = tmp_path / "r.json"
    grid = ["--grid", "r=1.79:1.79:1", "--grid", "theta=1.5:1.5:1"]
    for suite, row in (("dynamics", "dyn.transport_identity"), ("gauge", "gauge.lorentz_invariance")):
        assert main(["run", "--spacetime", str(KN_FILE), "--suite", suite, *grid,
                     "--out", str(out)]) == 0
        rows = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
        assert rows[row]["pass"] and rows[row]["max_residual"] <= 1e-12, rows[row]


def test_a_non_finite_entry_the_force_law_does_not_read_ends_the_worldline():
    """A[0] = t*1e300*1e300 and its t-derivative overflow at t = 1, and the
    force law reads neither (F_00 = 0): the generated code still returns
    None there, so the worldline ends with the engine's note."""
    model = build_model("overflowing-potential", ("t", "x", "y", "z"),
                        {(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"},
                        {0: "t*1e300*1e300"}, grid_axes={n: (0.0,) for n in "txyz"},
                        validate=False)
    init = WorldlineState(np.array([1.0, 0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    traj = integrate_worldline(model, init, 0.5, IntegratorConfig(ds=0.1, steps=3))
    assert traj.exited and len(traj.states) == 1
    assert traj.exit_message.startswith("non-finite field derivatives for 'overflowing-potential'")


def test_a_force_law_at_the_parser_depth_limit_compiles(fallbacks):
    """g_tt = 1 - x*(1 - x*(...)), nested to the parser's depth limit, is a
    chain of temporaries each read once.  Written inline without a cap, its
    gradient nests deeper than the 200 parentheses Python's tokenizer
    accepts; the force law generates and compiles, and the worldline runs
    it at every stage and is the reference steppers'."""
    src = "1"
    for _ in range(99):
        src = f"(1 - x*{src})"
    with pytest.raises(GeometryError, match="deeper than"):
        build_model("deeper", ("t", "x", "y", "z"), {(0, 0): f"(1 - x*{src})"}, {})
    model = build_model("deep", ("t", "x", "y", "z"),
                        {(0, 0): src, (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"}, {0: "0.2*x"},
                        grid_axes={n: (0.0,) for n in "txyz"}, validate=False)
    x0 = np.array([0.0, 0.1, 0.0, 0.0])
    init = WorldlineState(x0, normalize_velocity(model, x0, np.array([1.0, 0.1, 0.0, 0.0])), 0.0)
    config = IntegratorConfig(ds=0.01, steps=50)
    traj = integrate_worldline(model, init, 0.5, config)
    assert dynamics._generate_rhs(model) is not None and fallbacks == []
    ref = _reference_worldline(model, init, 0.5, config)
    assert not traj.exited and traj.y.shape == ref.y.shape == (51, 8)
    assert _bits([*traj.y.ravel(), *traj.s]) == _bits([*ref.y.ravel(), *ref.s])


# -- one generated force law per process ------------------------------------------


def _variant(g01="0", a=1.0, domain=None):
    """A model with one coordinate-dependent metric component and potential;
    ``g01`` is the constant g_tx of the layout's template."""
    return build_model("variant", ("t", "x", "y", "z"),
                       {(0, 0): "1 + a*x*x", (0, 1): g01, (1, 1): "-1", (2, 2): "-1",
                        (3, 3): "-1"}, {0: "0.2*x"}, params={"a": a}, domain_src=domain,
                       grid_axes={n: (0.0,) for n in "txyz"}, validate=False)


@pytest.fixture
def generations(monkeypatch):
    """An empty memo of generated code; counts the functions generated."""
    made, generate = [], codegen._generate

    def counted(*args):
        made.append(generate(*args))
        return made[-1]

    monkeypatch.setattr(codegen, "_GENERATED", collections.OrderedDict())
    monkeypatch.setattr(codegen, "_generate", counted)
    return made


@pytest.mark.parametrize("name", ["schwarzschild", "reissner-nordstrom", "kerr-newman"])
def test_models_from_the_same_sources_share_one_force_law(generations, name):
    def model():
        return load_spacetime_file(KN_FILE) if name == "kerr-newman" else catalog_get(name)

    law, *others = [dynamics._generate_rhs(model()) for _ in range(3)]
    assert law is not None and all(f is law for f in others) and generations == [law]


@pytest.mark.parametrize("name", ["schwarzschild", "reissner-nordstrom", "kerr-newman"])
def test_a_model_built_again_records_nothing(monkeypatch, generations, name):
    """The memo is keyed by the folded trees, and a model built again from
    the same sources holds the same tree objects, the domain's included: its
    law is found before anything is recorded, so no tape is made for it."""
    def model():
        return load_spacetime_file(KN_FILE) if name == "kerr-newman" else catalog_get(name)

    def trees(m):
        return [f.tree for f in [*itertools.chain(*m.g_fields), *m.A_fields, m.domain] if f]

    first = model()
    law, tapes, tape = dynamics._generate_rhs(first), [], codegen._Tape
    second = model()
    assert all(a is b for a, b in zip(trees(first), trees(second), strict=True))
    monkeypatch.setattr(codegen, "_Tape", lambda: tapes.append(tape()) or tapes[-1])
    assert dynamics._generate_rhs(second) is law and tapes == []


def test_a_parameter_a_domain_or_a_signed_zero_gives_another_force_law(generations):
    """Equal keys give one function; a different parameter, domain or
    constant template, -0.0 against 0.0 included, each give their own."""
    law = dynamics._generate_rhs(_variant())
    assert dynamics._generate_rhs(_variant()) is law
    variants = [_variant(a=2.0), _variant(domain="2 - x"), _variant(g01="-0")]
    assert variants[2].layout.g.tobytes() != _variant().layout.g.tobytes()
    laws = [dynamics._generate_rhs(m) for m in variants]
    assert len({id(f) for f in [law, *laws]}) == 4 and generations == [law, *laws]
    assert laws[2].source == law.source  # a constant zero term is left out either way


WL_ARGV = ["worldline", "--spacetime", "reissner-nordstrom", "--x0", "0,11,1.5707963267948966,0",
           "--v0", "1.17,-0.02,0,0.032", "--charge-ratio", "0.05", "--method", "rk45-adaptive",
           "--ds", "4", "--steps", "40"]


def test_a_warm_force_law_gives_the_cold_worldline(generations, tmp_path, capsys):
    """The second call in a process takes the kept law, and its CSV and
    summary are the first call's byte for byte."""
    outputs = []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.csv"
        assert main([*WL_ARGV, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert len(generations) == 1
    assert outputs[0] == outputs[1]


def test_a_dp54_span_below_the_end_margin_is_stepped():
    """ds = 1e-16 over 10 steps spans 1e-15, the old absolute end margin:
    the margin scales with a span below 1, so the steps are taken, as the
    reference steppers take them."""
    model = catalog_get("minkowski")
    init = WorldlineState(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    config = IntegratorConfig(ds=1e-16, steps=10, method="rk45-adaptive")
    traj = integrate_worldline(model, init, 0.0, config)
    ref = _reference_worldline(model, init, 0.0, config)
    assert len(traj.states) > 1 and traj.s[-1] == pytest.approx(1e-15, rel=1e-12)
    assert np.array_equal(traj.s, ref.s) and np.array_equal(traj.y, ref.y)
