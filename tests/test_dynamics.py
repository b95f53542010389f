"""Worldline integration, transport identity, and dust exchange relations."""

import math

import numpy as np
import pytest

from rcgeom import (
    GeometryError,
    IntegratorConfig,
    WorldlineState,
    catalog_get,
    exchange_identities,
    integrate_worldline,
    lorentz_rhs,
    normalize_velocity,
    rc_transport_residual,
)
from rcgeom.dynamics import dust_from_sources, dust_normalization_residual
from rcgeom.engine import GeometrySnapshot


def matched_dust(model):
    """The dust the catalog entry pairs with its model."""
    return dust_from_sources(model, *model.meta["dust"])


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


def test_lorentz_rhs_requires_on_shell_state():
    m = catalog_get("minkowski")
    bad = WorldlineState(np.zeros(4), np.array([2.0, 0, 0, 0]), 0.0)
    with pytest.raises(GeometryError):
        lorentz_rhs(m, bad, 0.0)


def test_lorentz_rhs_flat_no_field():
    m = catalog_get("minkowski")
    st = WorldlineState(np.zeros(4), np.array([1.0, 0, 0, 0]), 0.0)
    dx, dv = lorentz_rhs(m, st, 0.7)
    assert np.abs(dx - st.V).max() == 0.0
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


def test_gauge_shift_leaves_rhs_unchanged():
    from rcgeom import transform_potential

    m = catalog_get("minkowski-constant-e")
    shifted = transform_potential(m, "0.3*t*x + sin(t)")
    x = np.array([0.4, 0.2, 0.1, 0.0])
    V = normalize_velocity(m, x, np.array([1.0, 0.1, 0.05, 0.0]))
    st = WorldlineState(x, V, 0.0)
    _, dv0 = lorentz_rhs(m, st, 0.7)
    _, dv1 = lorentz_rhs(shifted, st, 0.7)
    assert np.abs(dv1 - dv0).max() <= 1e-15


def test_transport_residual_geodesic_case():
    m = catalog_get("schwarzschild")
    x = np.array([0.0, 5.0, 1.2, 0.4])
    V = normalize_velocity(m, x, np.array([1.0, 0.02, 0.0, 0.01]))
    st = WorldlineState(x, V, 0.0)
    assert rc_transport_residual(m, st, 0.0) <= 1e-14


def test_transport_residual_constant_field_dust():
    m = catalog_get("minkowski-constant-e")
    dust, k = matched_dust(m), 0.5
    for t in (0.0, 0.7, 1.5):
        x = np.array([t, 0.3, 0.0, 0.0])
        V = np.array([f.value(x) for f in dust.V_fields])
        st = WorldlineState(x, V, 0.0)
        assert rc_transport_residual(m, st, k) <= 1e-8


def test_transport_residual_rn_radial_infall():
    m = catalog_get("reissner-nordstrom")
    x = np.array([0.0, 6.0, math.pi / 2, 0.0])
    V = normalize_velocity(m, x, np.array([1.0, -0.2, 0.0, 0.0]))
    st = WorldlineState(x, V, 0.0)
    assert rc_transport_residual(m, st, 0.05) <= 1e-7


def test_exchange_identities_free_dust():
    """No field at all: every exchange residual is exactly zero."""
    m = catalog_get("minkowski")
    dust = matched_dust(m)
    res = exchange_identities(m, np.array([0.2, 0.1, 0.0, 0.3]), dust)
    assert res.pair_cancellation == 0.0
    assert res.energy_transfer == 0.0
    assert res.rc_mass_flux == 0.0
    assert res.matter_conservation == 0.0


def test_exchange_pair_cancellation_on_rn():
    m = catalog_get("reissner-nordstrom")
    for p in m.default_grid[::16]:
        s = GeometrySnapshot(m, p)
        assert s.pair_residual_T() <= 1e-10


def test_exchange_identities_accelerated_dust():
    m = catalog_get("minkowski-constant-e")
    dust, k = matched_dust(m), 0.5
    for t in (0.0, 0.5, 1.2):
        x = np.array([t, 0.2, 0.1, 0.0])
        assert dust_normalization_residual(m, dust, x) <= 1e-10
        res = exchange_identities(m, x, dust)
        assert res.matter_conservation <= 1e-6
        assert res.pair_cancellation <= 1e-12
        assert res.energy_transfer <= 1e-7


def test_exchange_identities_charge_ball():
    m = catalog_get("charge-ball")
    dust = matched_dust(m)
    for p in m.default_grid[::5]:
        res = exchange_identities(m, p, dust)
        assert res.matter_conservation <= 1e-8
        assert res.energy_transfer <= 1e-7
        assert res.pair_cancellation <= 1e-12


def test_mass_flux_residual_documents_printed_sign():
    """With the definitional contorsion sign the printed relation is off by
    exactly twice the coupling source; the residual reports that gap."""
    m = catalog_get("charge-ball")
    dust = matched_dust(m)
    x = np.array([0.0, 0.3, 0.1, -0.2])
    res = exchange_identities(m, x, dust)
    s = GeometrySnapshot(m, x)
    V = np.array([f.value(x) for f in dust.V_fields])
    rho0 = dust.rho0.value(x)
    expected = 2.0 * s.C * rho0 * abs(
        float(np.einsum("m,nm,n->", s.A[0], s.F_mix[0], V))
    )
    assert res.rc_mass_flux == pytest.approx(expected, abs=1e-12)
