"""Field strength, Maxwell structure, current, stress-energy, wedge form."""

import math

import numpy as np
import pytest

from rcgeom import catalog_get, parse_spacetime_text
from rcgeom.engine import GeometrySnapshot, cyclic_gradient_residual


def charge_ball_model(**params):
    return catalog_get("charge-ball", params)

CROSSED_FIELDS = """
# flat space with aligned electric and magnetic components
name = crossed
coords = t, x, y, z
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-1"
g[3][3] = "-1"
A[0] = "z"
A[2] = "x"
grid.t = 0:1:2
grid.x = -1:1:2
grid.y = -1:1:2
grid.z = -1:1:2
"""


def test_no_potential_no_field():
    m = catalog_get("schwarzschild")
    em = GeometrySnapshot(m, np.array([0.0, 4.0, 1.2, 0.3]))
    assert np.abs(em.F_dd).max() == 0.0
    assert em.F2 == 0.0


def test_constant_field_components():
    m = catalog_get("minkowski-constant-e")
    F = GeometrySnapshot(m, np.array([0.1, 0.2, 0.3, 0.4])).F_dd[0]
    assert F[1, 0] == pytest.approx(-1.0)
    assert F[0, 1] == pytest.approx(1.0)
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 1] = mask[1, 0] = False
    assert np.abs(F[mask]).max() == 0.0


def test_rn_radial_field_hand_value():
    m = catalog_get("reissner-nordstrom")
    em = GeometrySnapshot(m, np.array([0.0, 2.5, 1.2, 0.3]))
    # F_rt = d_r (q/r) = -q/r^2
    q, r = 0.3, 2.5
    assert em.F_dd[0][1, 0] == pytest.approx(-q / r**2, abs=1e-14)


def test_field_layouts_consistent():
    m = catalog_get("reissner-nordstrom")
    x = np.array([0.0, 4.0, 1.2, 0.3])
    em = GeometrySnapshot(m, x)
    g = m.metric_at(x)
    uu = np.einsum("ma,nb,ab->mn", g.inverse[0], g.inverse[0], em.F_dd[0])
    assert np.abs(uu - em.F_uu[0]).max() <= 1e-12
    mixed = np.einsum("la,na->nl", g.inverse[0], em.F_dd[0])
    assert np.abs(mixed - em.F_mix[0]).max() <= 1e-12
    f2 = float(np.einsum("mn,mn->", em.F_dd[0], em.F_uu[0]))
    assert em.F2[0] == pytest.approx(f2)


def test_homogeneous_identity_across_catalog():
    for name in ("minkowski", "minkowski-constant-e", "schwarzschild",
                 "reissner-nordstrom", "em-plane-wave"):
        m = catalog_get(name)
        for p in m.default_grid[:: max(1, len(m.default_grid) // 8)]:
            assert GeometrySnapshot(m, p).homogeneous_residual() <= 1e-10


def test_homogeneous_identity_plane_wave_random():
    m = catalog_get("em-plane-wave")
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.uniform(-1, 1, size=4)
        assert GeometrySnapshot(m, p).homogeneous_residual() <= 1e-10


def test_corrupted_field_detected():
    """Gradient data not derived from a potential: F_12 = x^0 gives a unit
    cyclic residual at the (0,1,2) triple."""
    dF = np.zeros((4, 4, 4))
    dF[0, 1, 2] = 1.0
    dF[0, 2, 1] = -1.0
    assert cyclic_gradient_residual(dF[None])[0] == pytest.approx(1.0)


def test_current_vanishes_on_vacuum_and_exterior():
    schw = catalog_get("schwarzschild")
    j = GeometrySnapshot(schw, np.array([0.0, 5.0, 1.0, 0.3]))
    assert np.abs(j.J_up).max() <= 1e-12
    rn = catalog_get("reissner-nordstrom")
    for p in rn.default_grid[::16]:
        assert np.abs(GeometrySnapshot(rn, p).J_up).max() <= 1e-8


def test_charge_ball_recovers_uniform_density():
    """The quadratic potential solves the static source equation for a
    uniform charge density, so J^0 = c rho_q everywhere inside."""
    m = charge_ball_model(rho_q=0.02)
    for p in m.default_grid[::5]:
        j = GeometrySnapshot(m, p)
        assert j.J_up[0][0] == pytest.approx(0.02, abs=1e-8)
        assert np.abs(j.J_up[0][1:]).max() <= 1e-12
        # the torsionful divergence of F carries the same current
        assert np.abs(j.rc_div_F - j.lc_div_F_det).max() <= 1e-12


def test_current_conservation_residuals():
    rn = catalog_get("reissner-nordstrom")
    ball = charge_ball_model()
    for m in (rn, ball):
        for p in m.default_grid[::16]:
            s = GeometrySnapshot(m, p)
            assert s.current_conservation_residual() <= 1e-6


def test_current_down_layout():
    m = charge_ball_model()
    x = np.array([0.0, 0.2, 0.1, -0.1])
    j = GeometrySnapshot(m, x)
    g = m.metric_at(x)
    assert np.abs(j.J_down[0] - g.matrix[0] @ j.J_up[0]).max() <= 1e-14


def test_rc_and_lc_divergences_of_f_agree():
    for name in ("reissner-nordstrom", "minkowski-constant-e", "em-plane-wave"):
        m = catalog_get(name)
        for p in m.default_grid[::16]:
            s = GeometrySnapshot(m, p)
            assert np.abs(s.rc_div_F - s.lc_div_F_det).max() <= 1e-8


def test_stress_energy_zero_without_field():
    m = catalog_get("minkowski")
    t = GeometrySnapshot(m, np.zeros(4))
    assert np.abs(t.T_em_dd).max() == 0.0


def test_stress_energy_symmetric_traceless():
    for name in ("reissner-nordstrom", "minkowski-constant-e", "em-plane-wave"):
        m = catalog_get(name)
        for p in m.default_grid[::16]:
            s = GeometrySnapshot(m, p)
            T = s.T_em_dd[0]
            assert np.abs(T - T.T).max() <= 1e-12
            assert abs(np.einsum("mn,mn->", s.ginv[0], T)) <= 1e-10


def test_stress_energy_sources_einstein_on_rn():
    """T_tt must be exactly what the Einstein tensor demands."""
    m = catalog_get("reissner-nordstrom")
    s = GeometrySnapshot(m, np.array([0.0, 4.0, 1.2, 0.3]))
    res = s.einstein_lc_dd - 8.0 * math.pi * s.T_em_dd
    assert np.abs(res).max() <= 1e-10


def test_weak_energy_in_static_orthonormal_frame():
    for name in ("reissner-nordstrom", "minkowski-constant-e", "em-plane-wave"):
        m = catalog_get(name)
        for p in m.default_grid[::16]:
            s = GeometrySnapshot(m, p)
            assert s.T_em_dd[0][0, 0] / s.g[0][0, 0] >= -1e-12


def test_stress_conservation_identity():
    ball = charge_ball_model()
    for p in ball.default_grid[::5]:
        assert GeometrySnapshot(ball, p).stress_exchange_residual() <= 1e-7
    rn = catalog_get("reissner-nordstrom")
    for p in rn.default_grid[::32]:
        assert GeometrySnapshot(rn, p).stress_exchange_residual() <= 1e-7


def test_chern_simons_zero_cases():
    m = catalog_get("schwarzschild")
    cs = GeometrySnapshot(m, np.array([0.0, 4.0, 1.2, 0.3])).chern_simons
    assert np.abs(cs).max() == 0.0
    # potential parallel to the plane of its own field: wedge vanishes
    m = catalog_get("minkowski-constant-e")
    cs = GeometrySnapshot(m, np.array([0.1, 2.0, 0.3, 0.4])).chern_simons
    assert np.abs(cs).max() <= 1e-14
    # plane wave: single-component transverse potential, wedge vanishes
    m = catalog_get("em-plane-wave")
    cs = GeometrySnapshot(m, np.array([0.3, 0.1, 0.0, 0.0])).chern_simons
    assert np.abs(cs).max() <= 1e-14


def test_chern_simons_crossed_fields_hand_value():
    """A = (z, 0, x, 0): F_30 = 1, F_12 = 1, and the (0,1,2) component of
    the wedge is A_0 F_12 / 3! = z/6."""
    m = parse_spacetime_text(CROSSED_FIELDS)
    x = np.array([0.0, 0.5, 0.2, 2.0])
    cs = GeometrySnapshot(m, x).chern_simons[0]
    assert cs[0, 1, 2] == pytest.approx(2.0 / 6.0, abs=1e-14)
    # total antisymmetry
    assert np.abs(cs + cs.transpose(1, 0, 2)).max() <= 1e-12
    assert np.abs(cs + cs.transpose(0, 2, 1)).max() <= 1e-12
    assert np.abs(cs - cs.transpose(1, 2, 0)).max() <= 1e-12


def test_homogeneous_residual_fd_mode():
    m = catalog_get("reissner-nordstrom")
    s = GeometrySnapshot(m, np.array([0.0, 4.0, 1.2, 0.3]), mode="fd")
    assert s.homogeneous_residual() <= 1e-10
