"""Torsion-free geometry: connection, curvature, divergences, derivative."""

import math

import numpy as np
import pytest

from rcgeom import ExprField, catalog_get, parse_spacetime_text
from rcgeom.engine import GeometrySnapshot

FLAT_SPHERICAL = """
name = flat-spherical
coords = t, r, theta, phi
g[0][0] = "1"
g[1][1] = "-1"
g[2][2] = "-r^2"
g[3][3] = "-r^2*sin(theta)^2"
domain = "r * sin(theta)"
grid.t = 0:1:2
grid.r = 2:5:3
grid.theta = 0.4:2.7:3
grid.phi = 0.1:3:2
"""


@pytest.fixture(scope="module")
def rn():
    return catalog_get("reissner-nordstrom")


@pytest.fixture(scope="module")
def schw():
    return catalog_get("schwarzschild")


def _covd_up(gamma, comps, grad):
    """Reference covariant derivative of a vector field, derivative slot first:
    nabla_k V^n = d_k V^n + G_{kr}^n V^r."""
    return grad + np.einsum("krn,r->kn", gamma, comps)


def _covd_uu(gamma, comps, grad):
    """Same for a (up, up) field."""
    return (grad + np.einsum("kra,rb->kab", gamma, comps)
            + np.einsum("krb,ar->kab", gamma, comps))


def test_minkowski_connection_and_curvature_vanish():
    m = catalog_get("minkowski")
    s = GeometrySnapshot(m, np.array([0.3, -0.2, 0.5, 0.1]))
    assert np.abs(s.gamma_lc).max() == 0.0
    assert np.abs(s.riemann_lc).max() == 0.0
    assert s.scalar_lc == 0.0


def test_schwarzschild_christoffel_hand_value(schw):
    """Gamma^r_tt = f f'/2 with f = 1 - 2/r: at r = 4 this is 0.03125."""
    gamma = GeometrySnapshot(schw, np.array([0.0, 4.0, 1.3, 0.2])).gamma_lc[0]
    assert gamma[0, 0, 1] == pytest.approx(0.03125, abs=1e-12)
    assert np.abs(gamma - gamma.transpose(1, 0, 2)).max() <= 1e-12


def test_flat_spherical_christoffel_hand_value():
    m = parse_spacetime_text(FLAT_SPHERICAL)
    s = GeometrySnapshot(m, np.array([0.0, 2.5, 1.1, 0.3]))
    # Gamma^r_{theta,theta} = -r
    assert s.gamma_lc[0][2, 2, 1] == pytest.approx(-2.5, abs=1e-12)
    assert np.abs(s.riemann_lc).max() <= 1e-12


def test_schwarzschild_is_vacuum(schw):
    s = GeometrySnapshot(schw, np.array([0.0, 4.0, 1.3, 0.2]))
    assert np.abs(s.ricci_lc).max() <= 1e-10
    assert abs(s.scalar_lc) <= 1e-10
    assert np.abs(s.einstein_lc_dd).max() <= 1e-10


def test_rn_scalar_curvature_vanishes(rn):
    """The charged solution has a traceless source, so R must vanish."""
    for p in rn.default_grid[::16]:
        assert abs(GeometrySnapshot(rn, p).scalar_lc) <= 1e-10


def test_riemann_antisymmetry_and_einstein_identity(rn):
    x = np.array([0.0, 5.0, 1.0, 0.7])
    s = GeometrySnapshot(rn, x)
    R = s.riemann_lc[0]
    assert np.abs(R + R.transpose(1, 0, 2, 3)).max() <= 1e-10
    g = rn.metric_values(x[None])[0]
    expected = s.ricci_lc[0] - 0.5 * g * s.scalar_lc[0]
    assert np.abs(s.einstein_lc_dd[0] - expected).max() <= 1e-12


def test_metric_compatibility_everywhere():
    for name in ("minkowski", "schwarzschild", "reissner-nordstrom", "em-plane-wave"):
        m = catalog_get(name)
        for p in m.default_grid[:: max(1, len(m.default_grid) // 6)]:
            s = GeometrySnapshot(m, p)
            assert s.metric_compatibility_residual("lc") <= 1e-10


def test_divergence_constant_field_vanishes():
    m = catalog_get("minkowski-constant-e")
    div = GeometrySnapshot(m, np.array([0.1, 0.2, 0.3, 0.4])).lc_div_F_det
    assert np.abs(div).max() <= 1e-14


def test_rn_exterior_is_source_free(rn):
    for p in rn.default_grid[::16]:
        assert np.abs(GeometrySnapshot(rn, p).lc_div_F_det).max() <= 1e-8


def test_divergence_two_formulas_agree(rn):
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = np.array([rng.uniform(0, 1), rng.uniform(3, 10),
                      rng.uniform(0.3, math.pi - 0.3), rng.uniform(0, 6.2)])
        s = GeometrySnapshot(rn, p)
        assert np.abs(s.lc_div_F_det - s.lc_div_F_gamma).max() <= 1e-8


def test_divergence_of_custom_field(rn):
    """Contracting the reference covariant derivative of F^{mn} must
    reproduce the built-in volume-factor divergence."""
    s = GeometrySnapshot(rn, np.array([0.0, 4.0, 1.2, 0.5]))
    div = np.einsum("mmn->n", _covd_uu(s.gamma_lc[0], s.F_uu[0], s.dF_uu[0]))
    assert np.abs(div - s.lc_div_F_det[0]).max() <= 1e-12


def test_covariant_derivative_of_metric_vanishes(rn):
    s = GeometrySnapshot(rn, np.array([0.0, 6.0, 0.9, 1.1]))
    assert s.metric_compatibility_residual("lc") <= 1e-10


def test_covariant_derivative_constant_vector_flat():
    s = GeometrySnapshot(catalog_get("minkowski"), np.zeros(4))
    grad = _covd_up(s.gamma_lc[0], np.array([1.0, 2.0, 3.0, 4.0]), np.zeros((4, 4)))
    assert np.abs(grad).max() == 0.0


def test_covariant_derivative_expr_field():
    m = catalog_get("minkowski")
    x = np.array([0.5, 0.2, 0, 0])
    fields = [ExprField(src, m.chart) for src in ("t", "x", "0", "0")]
    comps = np.array([f.value(x) for f in fields])
    grad = np.stack([f.jet(x, 1).grad for f in fields], axis=1)
    nabla = _covd_up(GeometrySnapshot(m, x).gamma_lc[0], comps, grad)
    assert nabla[0, 0] == pytest.approx(1.0)
    assert nabla[1, 1] == pytest.approx(1.0)
    assert nabla[0, 1] == pytest.approx(0.0)


def test_contracted_bianchi_via_generic_interface(rn):
    """Divergence of the Einstein tensor through the reference derivative."""
    s = GeometrySnapshot(rn, np.array([0.0, 4.0, 1.2, 0.5]))
    grad = _covd_uu(s.gamma_lc[0], s.einstein_lc_uu[0], s.d_einstein_lc_uu[0])
    assert np.abs(np.einsum("mmn->n", grad)).max() <= 1e-7
    assert s.bianchi_residual() <= 1e-7


def test_contracted_bianchi_on_grids(rn, schw):
    for m in (rn, schw):
        for p in m.default_grid[::32]:
            assert GeometrySnapshot(m, p).bianchi_residual() <= 1e-7


def test_christoffel_dual_vs_fd(rn):
    x = np.array([0.0, 5.5, 1.4, 0.4])
    dual = GeometrySnapshot(rn, x, mode="dual").gamma_lc
    fd = GeometrySnapshot(rn, x, mode="fd").gamma_lc
    assert np.abs(dual - fd).max() <= 1e-7


def test_curvature_dual_vs_fd(rn):
    x = np.array([0.0, 5.5, 1.4, 0.4])
    dual = GeometrySnapshot(rn, x, mode="dual").riemann_lc
    fd = GeometrySnapshot(rn, x, mode="fd").riemann_lc
    assert np.abs(dual - fd).max() <= 1e-5
