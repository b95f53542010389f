"""Contorsion, torsion, the full connection, and its curvature split."""

from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from rcgeom import MetricAtPoint, catalog_get
from rcgeom.engine import GeometrySnapshot
from rcgeom.checks import CHECK_DEFS
from rcgeom.harness import run_suite

_torsion_roundtrip = CHECK_DEFS["rc.torsion_roundtrip"].residual

ALL_ENTRIES = (
    "minkowski",
    "minkowski-constant-e",
    "schwarzschild",
    "reissner-nordstrom",
    "em-plane-wave",
)


def _random_point(model, rng):
    box = model.sample_box()
    names = model.chart.names
    while True:
        p = np.array([rng.uniform(*box[n]) for n in names])
        if model.in_domain(p):
            return p


def test_uncharged_model_has_no_contorsion():
    m = catalog_get("schwarzschild")
    s = GeometrySnapshot(m, np.array([0.0, 4.0, 1.2, 0.3]))
    assert np.abs(s.K_mix).max() == 0.0


def test_constant_field_contorsion_hand_value():
    """At x = 2 with unit coupling: A = (-2,0,0,0), F_1^{.0} = -1, so
    K_{01}^{..0} = -C A_0 F_1^{.0} = -2."""
    m = catalog_get("minkowski-constant-e")
    s = GeometrySnapshot(m, np.array([0.0, 2.0, 0.0, 0.0]))
    assert s.K_mix[0][0, 1, 0] == pytest.approx(-2.0, abs=1e-14)
    assert s.K_down[0][0, 1, 0] == pytest.approx(-2.0, abs=1e-14)
    assert s.K_mix[0][1, 0, 0] == 0.0


def test_contorsion_antisymmetry_on_random_data():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rng.standard_normal(4)
        f = rng.standard_normal((4, 4))
        f = f - f.T
        k_down = -np.einsum("m,nl->mnl", a, f)
        assert np.abs(k_down + k_down.transpose(0, 2, 1)).max() <= 1e-12


def test_torsion_hand_value():
    m = catalog_get("minkowski-constant-e")
    s = GeometrySnapshot(m, np.array([0.0, 2.0, 0.0, 0.0]))
    assert s.torsion_mix[0][0, 1, 0] == pytest.approx(-2.0, abs=1e-14)
    assert s.torsion_mix[0][1, 0, 0] == pytest.approx(2.0, abs=1e-14)
    assert _torsion_roundtrip(s)[0] <= 1e-14


def test_torsion_contorsion_roundtrip_random():
    rng = np.random.default_rng(23)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(50):
        pert = rng.standard_normal((4, 4))
        g = eta + 0.05 * (pert + pert.T)
        try:
            m = MetricAtPoint.from_components(g)
        except Exception:
            continue
        a = rng.standard_normal(4)
        f = rng.standard_normal((4, 4))
        f = f - f.T
        f_mix = np.einsum("la,na->nl", m.inverse[0], f)
        # any object with the snapshot's K_mix, torsion_mix, g and ginv feeds the check
        K = -np.einsum("m,nl->mnl", a, f_mix)[None]
        point = SimpleNamespace(K_mix=K, torsion_mix=K - K.swapaxes(-3, -2),
                                g=m.matrix, ginv=m.inverse)
        assert _torsion_roundtrip(point)[0] <= 1e-12


def _torsion_roundtrip_passes(name, mode):
    rows = {r.check_id: r for r in run_suite("rc", catalog_get(name), mode).checks}
    return rows["rc.torsion_roundtrip"].passed


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", ["charge-ball", "reissner-nordstrom"])
def test_scaled_torsion_fails_the_roundtrip_row(monkeypatch, name, mode):
    """Negative control of rc.torsion_roundtrip: the engine's torsion, 1.01
    times too large, no longer rebuilds the contorsion."""
    assert _torsion_roundtrip_passes(name, mode)
    original = GeometrySnapshot.torsion_mix
    mutant = cached_property(lambda snap: 1.01 * original.func(snap))
    mutant.__set_name__(GeometrySnapshot, "torsion_mix")
    monkeypatch.setattr(GeometrySnapshot, "torsion_mix", mutant)
    assert not _torsion_roundtrip_passes(name, mode)


def test_full_connection_reduces_without_charge():
    m = catalog_get("schwarzschild")
    s = GeometrySnapshot(m, np.array([0.0, 5.0, 1.0, 0.2]))
    assert np.abs(s.torsion_mix).max() == 0.0
    assert np.abs(s.gamma_full - s.gamma_lc).max() == 0.0


def test_full_connection_antisymmetric_part_is_torsion():
    m = catalog_get("reissner-nordstrom")
    s = GeometrySnapshot(m, np.array([0.0, 4.0, 1.2, 0.5]))
    assert np.abs(s.torsion_mix).max() > 0.0
    anti = s.gamma_full[0] - s.gamma_full[0].transpose(1, 0, 2)
    assert np.abs(anti - s.torsion_mix[0]).max() <= 1e-12


def test_full_connection_metric_compatibility():
    for name in ALL_ENTRIES:
        m = catalog_get(name)
        for p in m.default_grid[:: max(1, len(m.default_grid) // 5)]:
            s = GeometrySnapshot(m, p)
            assert s.metric_compatibility_residual("rc") <= 1e-10


def test_rc_curvature_equals_lc_without_charge():
    m = catalog_get("schwarzschild")
    s = GeometrySnapshot(m, np.array([0.0, 4.5, 0.8, 0.1]))
    assert np.abs(s.riemann_rc - s.riemann_lc).max() == 0.0
    assert s.decomposition_residual() <= 1e-12
    assert s.quadratic_pair_residual() == 0.0


def test_rc_curvature_constant_field_hand_values():
    """In the flat constant-field model the curvature is the coordinate
    derivative of the contorsion: R_{10l}^{.c} = C E F_l^{.c}."""
    m = catalog_get("minkowski-constant-e")
    x = np.array([0.0, 2.0, 0.0, 0.0])
    s = GeometrySnapshot(m, x)
    R = s.riemann_rc[0]
    assert np.abs(R[1, 0] - s.F_mix[0]).max() <= 1e-14
    assert np.abs(R[0, 1] + s.F_mix[0]).max() <= 1e-14
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 0] = mask[0, 1] = False
    assert np.abs(R[mask]).max() <= 1e-14
    # explicit entries: F_0^{.1} = F_1^{.0} = -E = -1
    assert R[1, 0, 0, 1] == pytest.approx(-1.0)
    assert R[1, 0, 1, 0] == pytest.approx(-1.0)
    assert R[0, 1, 0, 1] == pytest.approx(1.0)


def test_quadratic_terms_cancel_at_random_points():
    rng = np.random.default_rng(31)
    for name in ALL_ENTRIES:
        m = catalog_get(name)
        for _ in range(20):
            s = GeometrySnapshot(m, _random_point(m, rng))
            assert s.quadratic_pair_residual() <= 1e-12


def test_decomposition_across_catalog():
    for name in ALL_ENTRIES:
        m = catalog_get(name)
        for p in m.default_grid[:: max(1, len(m.default_grid) // 6)]:
            assert GeometrySnapshot(m, p).decomposition_residual() <= 1e-8


def test_scalar_split_uncharged():
    m = catalog_get("schwarzschild")
    s = GeometrySnapshot(m, np.array([0.0, 4.0, 1.3, 0.2]))
    R, R_bar, em, coupling, _ = s.scalar_split()
    assert abs(R) <= 1e-10
    assert abs(R_bar) <= 1e-10
    assert em == 0.0
    assert coupling == 0.0


def test_scalar_split_rn_hand_value():
    """R = C F.F = -2 q^2 / r^4; at r = 4 with q = 0.3 this is -7.03125e-4."""
    m = catalog_get("reissner-nordstrom")
    s = GeometrySnapshot(m, np.array([0.0, 4.0, 1.3, 0.2]))
    R, R_bar, em, coupling, R_traced = s.scalar_split()
    assert abs(R - (R_bar + em + coupling)) <= 1e-8
    assert abs(R_traced - (R_bar + em + coupling)) <= 1e-8
    assert R == pytest.approx(-7.03125e-4, abs=1e-8)
    assert em == pytest.approx(-7.03125e-4, abs=1e-12)
    assert abs(R_bar) <= 1e-10
    assert abs(coupling) <= 1e-12


def test_scalar_split_plane_wave_vanishes():
    m = catalog_get("em-plane-wave")
    for p in m.default_grid[::7]:
        R, R_bar, em, coupling, _ = GeometrySnapshot(m, p).scalar_split()
        assert abs(R) <= 1e-12
        assert abs(em) <= 1e-12


def test_contorsion_trace_matches_pinned_definition():
    """The closed-form trace vector equals g^{na} g^{ml} K_{anl}."""
    m = catalog_get("reissner-nordstrom")
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = GeometrySnapshot(m, _random_point(m, rng))
        pinned = np.einsum("na,ml,anl->m", s.ginv[0], s.ginv[0], s.K_down[0])
        assert np.abs(pinned - s.contorsion_trace_vector[0]).max() <= 1e-14


def test_scalar_split_agrees_with_direct_trace():
    for name in ALL_ENTRIES:
        m = catalog_get(name)
        p = m.default_grid[len(m.default_grid) // 2]
        s = GeometrySnapshot(m, p)
        R, R_bar, em, coupling, R_traced = s.scalar_split()
        assert abs(R - (R_bar + em + coupling)) <= 1e-8
        assert abs(R_traced - (R_bar + em + coupling)) <= 1e-8
