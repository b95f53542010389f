"""Gauge shifts: invariant observables, shifted geometry, divergence law."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rcgeom import (
    EvalError,
    catalog_get,
    load_spacetime_file,
    transform_potential,
)
from rcgeom.checks import CHECK_DEFS, GaugePair, default_tolerance
from rcgeom.engine import GeometrySnapshot
from rcgeom.fields import ShiftedPotentialField
from rcgeom.gauge import (
    as_phi_field,
    contorsion_shift,
    divergence_term,
    peak,
    scalar_shift,
)
from rcgeom.harness import SuiteContext, run_suite


def charge_ball_model(**params):
    return catalog_get("charge-ball", params)


def _pair(model, phi, x, mode="dual"):
    """(unshifted, shifted) snapshots at x."""
    return (GeometrySnapshot(model, x, mode),
            GeometrySnapshot(transform_potential(model, phi), x, mode))


def _reading(cid, pair, mode):
    """A gauge row's reading on a pair, and its tolerance."""
    return peak(CHECK_DEFS[cid].residual(pair)), default_tolerance(cid, mode)


def _shift_reading(model, phi, x, mode="dual"):
    """gauge.scalar_shift's largest residual over the pair at x, one point or
    an (N, 4) batch, and its tolerance. NaN at any point makes the reading
    NaN, so it fails every bound."""
    phi = as_phi_field(model, phi)
    pair = GaugePair(*_pair(model, phi, x, mode), phi)
    value = float(np.max(CHECK_DEFS["gauge.scalar_shift"].residual(pair)))
    return value, default_tolerance("gauge.scalar_shift", mode)


def _gauge_suite(model, phi):
    """The gauge suite's report on one gauge function, its checks by id."""
    report = run_suite("gauge", model, phis=[phi])
    return report, {c.check_id: c for c in report.checks}


def test_constant_phi_is_identity():
    m = catalog_get("reissner-nordstrom")
    shifted = transform_potential(m, "3.7")
    x = np.array([0.0, 4.0, 1.2, 0.5])
    assert np.abs(shifted.potential_values(x[None]) - m.potential_values(x[None])).max() == 0.0
    old, new = _pair(m, "3.7", x)
    assert np.abs(new.K_mix - old.K_mix).max() == 0.0
    assert contorsion_shift(old, new, as_phi_field(m, "3.7")) == 0.0


def test_zero_field_means_zero_contorsion_any_phi():
    m = catalog_get("schwarzschild")
    _old, new = _pair(m, "0.3*t*r", np.array([0.0, 5.0, 1.0, 0.2]))
    assert np.abs(new.K_mix).max() == 0.0


def test_time_linear_phi_shifts_potential_not_field():
    m = catalog_get("reissner-nordstrom")
    lam = 0.25
    shifted = transform_potential(m, f"{lam}*t")
    x = np.array([0.0, 4.0, 1.2, 0.5])
    a_new = shifted.potential_values(x[None])[0]
    assert a_new[0] == pytest.approx(0.3 / 4.0 + lam, abs=1e-14)
    old, new = _pair(m, f"{lam}*t", x)
    assert np.abs(new.F_dd - old.F_dd).max() <= 1e-12


def test_bilinear_phi_on_constant_field():
    m = catalog_get("minkowski-constant-e")
    shifted = transform_potential(m, "t*x")
    x = np.array([0.7, 0.4, 0.0, 0.0])
    a_new = shifted.potential_values(x[None])[0]
    # gains (x, t, 0, 0)
    assert a_new[0] == pytest.approx(-0.4 + 0.4)
    assert a_new[1] == pytest.approx(0.7)
    old, new = _pair(m, "t*x", x)
    assert np.abs(new.F_dd - old.F_dd).max() <= 1e-12


def test_transformed_contorsion_two_routes_agree():
    m = catalog_get("minkowski-constant-e")
    x = np.array([0.3, 0.8, 0.1, 0.0])
    old, new = _pair(m, "x", x)
    assert contorsion_shift(old, new, as_phi_field(m, "x")) <= 1e-13
    # the shift acts only on the slot fed by grad(phi) = e_1
    delta = new.K_mix[0] - old.K_mix[0]
    expected = -old.C * old.F_mix[0]
    assert np.abs(delta[1] - expected).max() <= 1e-13
    assert np.abs(delta[0]).max() <= 1e-13
    assert np.abs(delta[2:]).max() <= 1e-13


def test_curvature_shift_source_free_is_identity():
    """Without a current the scalar curvature cannot move, whatever phi."""
    for phi in ("0.2*t", "sin(t)*r", "0.05*t*r^2"):
        m = catalog_get("reissner-nordstrom")
        x = np.array([0.0, 5.0, 1.1, 0.4])
        old, new = _pair(m, phi, x)
        assert abs(new.scalar_rc - old.scalar_rc) <= 1e-12
        assert _shift_reading(m, phi, x)[0] <= 1e-12


def test_curvature_shift_constant_phi():
    m = charge_ball_model()
    x = np.array([0.1, 0.2, 0.1, -0.1])
    old, new = _pair(m, "2.5", x)
    assert abs(new.scalar_rc - old.scalar_rc) <= 1e-12
    assert _shift_reading(m, "2.5", x)[0] <= 1e-12


def test_curvature_shift_with_source_hand_value():
    """phi = t on the charge ball: the shift equals 8 pi C rho_q."""
    m = charge_ball_model(rho_q=0.02)
    x = np.array([0.1, 0.3, -0.2, 0.1])
    old, new = _pair(m, "t", x)
    div = divergence_term(old, as_phi_field(m, "t"))
    expected = 8.0 * math.pi * 0.02
    assert div == pytest.approx(expected, rel=1e-10)
    assert new.scalar_rc - old.scalar_rc == pytest.approx(expected, rel=1e-7)
    assert abs(new.scalar_rc - old.scalar_rc - div) <= 1e-8


def test_scalar_shift_small_everywhere():
    for model in (catalog_get("reissner-nordstrom"), charge_ball_model()):
        for phi in ("0.2*t", f"0.1*t*{model.chart.names[1]}"):
            value, tol = _shift_reading(model, phi, model.default_grid[::16])
            assert value <= tol


def test_invariance_suite_rn():
    m = catalog_get("reissner-nordstrom")
    report, checks = _gauge_suite(m, "0.1*t*r")
    assert report.passed
    assert checks["gauge.f_invariance"].max_residual <= 1e-12
    assert checks["gauge.lorentz_invariance"].max_residual <= 1e-12
    assert checks["gauge.contorsion_delta"].max_residual > 1e-6
    assert checks["gauge.curvature_delta"].max_residual > 1e-6
    n = len(SuiteContext(m).points("gauge"))
    assert {c.grid_points for c in report.checks} == {n}


def test_invariance_suite_constant_field():
    report, checks = _gauge_suite(catalog_get("minkowski-constant-e"), "sin(t)")
    assert report.passed
    assert checks["gauge.contorsion_delta"].max_residual > 1e-6


def test_invariance_suite_trivial_phi():
    report, checks = _gauge_suite(catalog_get("reissner-nordstrom"), "0")
    assert report.passed
    assert checks["gauge.contorsion_delta"].max_residual == 0.0
    assert checks["gauge.curvature_delta"].max_residual == 0.0


def test_gauge_orbit_compose_equals_sum():
    m = catalog_get("reissner-nordstrom")
    phi1, phi2 = "0.2*t", "0.05*t*r"
    twice = transform_potential(transform_potential(m, phi1), phi2)
    once = transform_potential(m, f"({phi1}) + ({phi2})")
    for p in (np.array([0.0, 4.0, 1.2, 0.5]), np.array([0.3, 7.0, 2.0, 1.0])):
        s2 = GeometrySnapshot(twice, p)
        s1 = GeometrySnapshot(once, p)
        assert np.abs(s2.K_mix - s1.K_mix).max() <= 1e-12
        assert np.abs(s2.F_dd - s1.F_dd).max() <= 1e-12
        assert abs(s2.scalar_rc - s1.scalar_rc) <= 1e-12


def test_fd_mode_curvature_shift():
    m = charge_ball_model()
    value, tol = _shift_reading(m, "t", np.array([0.1, 0.3, -0.2, 0.1]), "fd")
    assert value <= tol


KN_FILE = Path(__file__).resolve().parents[1] / "bench" / "kerr_newman.spacetime"


@pytest.mark.parametrize("name", ["reissner-nordstrom", "em-plane-wave", "kerr-newman"])
def test_fd_shifted_batch_rows_equal_one_point_snapshots(name):
    """Stencils of a shifted potential take every value from one batched phi
    jet; each row of a batched fd snapshot has the bits of a one-point one."""
    model = load_spacetime_file(KN_FILE) if name == "kerr-newman" else catalog_get(name)
    c1 = model.chart.names[1]
    shifted = transform_potential(model, f"0.1*sin(t)*exp(0.1*{c1}) + 0.05*t*{c1}^2")
    X = model.default_grid[::7][:6]
    batch = GeometrySnapshot(shifted, X, "fd")
    for i, x in enumerate(X):
        one = GeometrySnapshot(shifted, x, "fd")
        for member in ("g", "dg", "ddg", "A", "dA", "ddA"):
            assert getattr(one.jets(2), member).tobytes() == getattr(batch.jets(2), member)[i].tobytes()
        for member in ("F_dd", "dF_dd", "K_down"):
            assert getattr(one, member).tobytes() == getattr(batch, member)[i].tobytes()


def test_shifted_values_match_value_and_name_the_first_bad_row():
    m = catalog_get("reissner-nordstrom")
    field = transform_potential(m, "0.1*log(t)*r").A_fields[0]
    X = np.array([[0.5, 4.0, 1.0, 0.1], [1.5, 6.0, 2.0, 0.3]])
    assert np.abs(field.values(X) - [field.value(x) for x in X]).max() <= 1e-15
    bad = np.array([[0.5, 4.0, 1.0, 0.1], [0.0, 5.0, 1.0, 0.1], [-1.0, 5.0, 1.0, 0.1]])
    with pytest.raises(EvalError) as one:
        field.value(bad[1])
    with pytest.raises(EvalError) as batch:
        field.values(bad)
    assert str(batch.value) == str(one.value)


@pytest.mark.parametrize("mode", ["dual", "fd"])
def test_shift_functions_give_one_value_per_point(mode):
    m = charge_ball_model()
    phi = as_phi_field(m, "0.3*t + 0.1*t*x + 0.05*sin(t)*y")
    X = m.default_grid[::5][:6]
    old, new = _pair(m, phi, X, mode)
    contorsion = contorsion_shift(old, new, phi)
    div = divergence_term(old, phi)
    scalar = scalar_shift(old, new, phi)
    assert contorsion.shape == div.shape == scalar.shape == (len(X),)
    assert np.abs(div).min() > 1e-3  # the charge makes the divergence term nonzero
    for i, x in enumerate(X):
        o, n = _pair(m, phi, x, mode)
        assert contorsion[i] == pytest.approx(contorsion_shift(o, n, phi), abs=1e-16)
        assert div[i] == pytest.approx(divergence_term(o, phi), rel=1e-12)
        assert scalar[i] == pytest.approx(scalar_shift(o, n, phi), abs=1e-15)


# -- negative controls: every gating gauge row fails on a corrupted pair --------

NEGATIVE_MODELS = {
    "charge-ball": charge_ball_model(),
    "reissner-nordstrom": catalog_get("reissner-nordstrom"),
    "kerr-newman": load_spacetime_file(KN_FILE),
    "minkowski-constant-e": catalog_get("minkowski-constant-e"),
    "em-plane-wave": catalog_get("em-plane-wave"),
}
SHIFT_MODELS = ("charge-ball", "reissner-nordstrom", "kerr-newman")
INVARIANCE_ROWS = ("gauge.f_invariance", "gauge.current_invariance", "gauge.stress_invariance",
                   "gauge.einstein_invariance", "gauge.lorentz_invariance")


def _gauge_setup(name, mode, group="gauge"):
    model = NEGATIVE_MODELS[name]
    c0, c1 = model.chart.names[:2]
    return model, c0, c1, SuiteContext(model, mode).points(group)


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", SHIFT_MODELS)
def test_mismatched_shift_fails_the_shift_rows(name, mode):
    """The shifted side is built with 1.1 phi, and the pair carries phi."""
    model, c0, c1, X = _gauge_setup(name, mode)
    src = f"0.1*{c0}*{c1}"
    pair = GaugePair(GeometrySnapshot(model, X, mode),
                     GeometrySnapshot(transform_potential(model, f"1.1*({src})"), X, mode),
                     as_phi_field(model, src))
    value, tol = _reading("gauge.contorsion_shift", pair, mode)
    assert value > 1e3 * tol
    # Without a current the divergence term is zero, and so is the mismatch
    # of the scalar shift: it can fail only on a model with a charge.
    value, tol = _reading("gauge.scalar_shift", pair, mode)
    assert value > 100.0 * tol if name == "charge-ball" else value <= tol


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", SHIFT_MODELS)
def test_non_gradient_potential_fails_every_invariance_row(name, mode):
    """The "shifted" side adds 0.01 t c1^2 to A[1] alone: d_1 of
    0.01 t c1^3 / 3, with no matching change of A[0], is no gradient."""
    model, c0, c1, X = _gauge_setup(name, mode)
    A = list(model.A_fields)
    A[1] = ShiftedPotentialField(A[1], model.scalar_field(f"0.01*{c0}*{c1}^3/3"), 1)
    pair = GaugePair(GeometrySnapshot(model, X, mode),
                     GeometrySnapshot(replace(model, name="curl", A_fields=tuple(A)), X, mode),
                     as_phi_field(model, "0"))
    for cid in INVARIANCE_ROWS:
        value, tol = _reading(cid, pair, mode)
        assert value > 10.0 * tol, cid


@pytest.mark.parametrize("mode", ["dual", "fd"])
@pytest.mark.parametrize("name", sorted(NEGATIVE_MODELS))
def test_wrong_orbit_fails_the_orbit_row(name, mode):
    """The "once" side is built from phi1 + 1.1 phi2."""
    model, c0, c1, X = _gauge_setup(name, mode, "orbit")
    phi1, phi2 = f"0.2*{c0}", f"0.1*{c0}*{c1}"
    twice = transform_potential(transform_potential(model, phi1), phi2)
    once = transform_potential(model, f"({phi1}) + 1.1*({phi2})")
    pair = GaugePair(GeometrySnapshot(twice, X, mode), GeometrySnapshot(once, X, mode),
                     as_phi_field(model, f"({phi1}) + ({phi2})"))
    value, tol = _reading("gauge.orbit", pair, mode)
    assert value > 1e3 * tol
