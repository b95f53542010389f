"""Worldline integration, transport identity, and dust exchange relations."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from rcgeom import (
    GeometryError,
    IntegratorConfig,
    WorldlineState,
    catalog_get,
    integrate_worldline,
    normalize_velocity,
)
from rcgeom.checks import CHECK_DEFS, Worldline
from rcgeom.cli import main
from rcgeom.dynamics import Trajectory, acceleration, transport_residual
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
    assert max(abs(st.x[1] - r) for st in traj.states) <= 1e-8


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
    assert 1 < len(traj.states) < 2001
    assert traj.states[-1].x[1] > 2.0



# -- the integrator against the two hand-written steppers it replaced -----------

def _ref_norm_squared(model, x, V):
    g = model.metric_values(np.asarray(x, dtype=float)[None])[0]
    return float(V @ g @ V)


def _ref_normalize_velocity(model, x, V):
    V = np.asarray(V, dtype=float)
    n2 = _ref_norm_squared(model, x, V)
    if n2 <= 0:
        raise GeometryError(f"velocity {point_text(V)} is not timelike at {point_text(x)}")
    return V / np.sqrt(n2)


def _ref_rhs(model, x, V, k, mode):
    return V, acceleration(GeometrySnapshot(model, x[None], mode), V[None], k)[0]


def _ref_rk4_step(model, x, V, k, ds, mode):
    k1x, k1v = _ref_rhs(model, x, V, k, mode)
    k2x, k2v = _ref_rhs(model, x + 0.5 * ds * k1x, V + 0.5 * ds * k1v, k, mode)
    k3x, k3v = _ref_rhs(model, x + 0.5 * ds * k2x, V + 0.5 * ds * k2v, k, mode)
    k4x, k4v = _ref_rhs(model, x + ds * k3x, V + ds * k3v, k, mode)
    xn = x + (ds / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    Vn = V + (ds / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return xn, Vn


_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _ref_dp54_step(model, y, k, ds, mode):
    def f(yv):
        dx, dv = _ref_rhs(model, yv[:4], yv[4:], k, mode)
        return np.concatenate([dx, dv])

    ks = []
    for i in range(7):
        yi = y.copy()
        for j, a in enumerate(_DP_A[i]):
            yi = yi + ds * a * ks[j]
        ks.append(f(yi))
    y5 = y + ds * sum(b * ki for b, ki in zip(_DP_B5, ks))
    y4 = y + ds * sum(b * ki for b, ki in zip(_DP_B4, ks))
    return y5, float(np.abs(y5 - y4).max())


def _reference_worldline(model, init, charge_ratio, config, mode="dual"):
    """The integrator as two hand-written steppers, each step testing the
    domain and evaluating the metric at the accepted point on its own."""
    x = np.asarray(init.x, dtype=float)
    V = np.asarray(init.V, dtype=float)
    s = float(init.s)
    k = float(charge_ratio)

    states = [WorldlineState(x, V, s)]
    residuals = [abs(_ref_norm_squared(model, x, V) - 1.0)]
    traj = Trajectory(states=states, norm_residuals=residuals)

    try:
        if config.method == "rk4":
            for step in range(config.steps):
                x, V = _ref_rk4_step(model, x, V, k, config.ds, mode)
                s += config.ds
                if not model.in_domain(x):
                    raise DomainError(
                        f"worldline left the domain of {model.name!r} near {point_text(x)}"
                    )
                if config.renormalize_every and (step + 1) % config.renormalize_every == 0:
                    V = _ref_normalize_velocity(model, x, V)
                states.append(WorldlineState(x, V, s))
                residuals.append(abs(_ref_norm_squared(model, x, V) - 1.0))
        else:
            s_end = s + config.ds * config.steps
            ds = config.ds
            atol, rtol = 1e-12, 1e-10
            y = np.concatenate([x, V])
            max_attempts = 20 * config.steps
            attempts = 0
            while s < s_end - 1e-15:
                ds = min(ds, s_end - s)
                y5, err = _ref_dp54_step(model, y, k, ds, mode)
                tol = atol + rtol * float(np.abs(y).max())
                if err <= tol:
                    if not model.in_domain(y5[:4]):
                        raise DomainError(
                            f"worldline left the domain of {model.name!r} near "
                            f"{point_text(y5[:4])}"
                        )
                    y = y5
                    s += ds
                    states.append(WorldlineState(y[:4], y[4:], s))
                    residuals.append(abs(_ref_norm_squared(model, y[:4], y[4:]) - 1.0))
                else:
                    traj.rejected_steps += 1
                safety = 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
                ds = ds * min(4.0, max(0.2, safety))
                attempts += 1
                if attempts > max_attempts:
                    raise GeometryError("adaptive integrator exceeded its step budget")
    except (DomainError, EvalError, MetricError) as err:
        traj.exited = True
        traj.exit_message = str(err)
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
        "metric is numerically degenerate at ("),
    "start-outside-domain": (
        "schwarzschild", {}, [0.0, 1.5, math.pi / 2, 0.0], None, 0.0,
        IntegratorConfig(ds=0.05, steps=20),
        "point (0.0, 1.5, 1.5707963267948966, 0.0) is outside the domain of 'schwarzschild'"),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_integrator_matches_reference_steppers(name):
    entry, params, x0, v0, k, config, exit_message = REFERENCE_RUNS[name]
    m = catalog_get(entry, params=params)
    x0 = np.array(x0)
    # the start outside the domain keeps a unit, spacelike there, velocity
    V0 = np.array([1.0, 0.0, 0.0, 0.0]) if v0 is None else normalize_velocity(m, x0, np.array(v0))
    init = WorldlineState(x0, V0, 0.0)
    ref = _reference_worldline(m, init, k, config)
    traj = integrate_worldline(m, init, k, config)

    assert len(traj.states) == len(ref.states)
    for got, want in zip(traj.states, ref.states):
        assert got.s == want.s
        assert np.array_equal(got.x, want.x) and np.array_equal(got.V, want.V)
    assert traj.rejected_steps == ref.rejected_steps
    assert (traj.exited, traj.exit_message) == (ref.exited, ref.exit_message)
    # residuals |g(V,V) - 1| to 1e-12 of g(V,V): the metric comes from field
    # jets now, whose quotients may differ from plain values in the last bit
    for got, want in zip(traj.norm_residuals, ref.norm_residuals):
        assert abs(got - want) <= 1e-12 * (1.0 + want)

    assert ref.exited == (exit_message is not None)
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
