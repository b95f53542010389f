"""Gauge transformations of the potential and their geometric footprint.

Shifting the potential by an exact gradient leaves the field strength,
current, stress-energy, and worldline dynamics untouched while shifting
the contorsion and the full-connection curvature in a controlled way; the
scalar-curvature change is a pure divergence.  Every quantity is compared
on one (unshifted, shifted) snapshot pair over a batch of points: each side
is one snapshot, and each comparison one array reduction with a value per
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import default_tolerance
from .dynamics import acceleration, probe_velocity
from .engine import GeometrySnapshot, batched_einsum, max_abs
from .fields import ShiftedPotentialField


def as_phi_field(model, phi):
    if isinstance(phi, str):
        return model.scalar_field(phi, f"phi:{phi}")
    return phi


def transform_potential(model, phi):
    """New model with the potential shifted by the gradient of phi."""
    phi = as_phi_field(model, phi)
    shifted = tuple(
        ShiftedPotentialField(model.A_fields[n], phi, n, name=f"A'[{n}]")
        for n in range(4)
    )
    return model.with_potential(shifted, f"{model.name}+gauge")


def _phi_jet(phi, snap):
    """phi and its gradient at the snapshot's points, point axis first."""
    pj = phi.jet(snap.x, 1)
    n = len(snap.x)
    return np.broadcast_to(pj.value, (n,)), np.broadcast_to(pj.grad.T, (n, 4))


def contorsion_shift(old, new, phi):
    """Mismatch between the recomputed and the closed-form-shifted contorsion,
    normalized by 1 + |K_new|, at every point of the snapshot pair."""
    _, dphi = _phi_jet(phi, old)
    route_shift = old.K_mix - old.C * batched_einsum("m,nl->mnl", dphi, old.F_mix)
    return max_abs(new.K_mix - route_shift) / (1.0 + max_abs(new.K_mix))


def divergence_term(old, phi):
    """8 pi G / (c^5 sqrt(-g)) d_m(sqrt(-g) phi J^m) at every point of the
    snapshot, with the current differentiated exactly (dual mode) or by
    stencils (fd mode): the shift of the RC scalar curvature under
    A -> A + d phi."""
    value, grad = _phi_jet(phi, old)
    s, ds = old.sqrt_g, old.dsqrt_g
    J, dJ = old.J_up, old.dJ_up
    div = (
        batched_einsum("m,m->", ds, value[:, None] * J)
        + s * batched_einsum("m,m->", grad, J)
        + s * value * batched_einsum("mm->", dJ)
    )
    return 8.0 * np.pi * old.C / (old.c_light * s) * div


def scalar_shift(old, new, phi):
    """|R_new - R_old - divergence term| normalized by 1 + |R_old|, at every
    point of the snapshot pair."""
    div_term = divergence_term(old, phi)
    return np.abs(new.scalar_rc - old.scalar_rc - div_term) / (1.0 + np.abs(old.scalar_rc))


def scalar_shift_residual(model, phi, x, mode="dual"):
    """``scalar_shift`` at every point of x, an (N, 4) batch or one point, for
    a model and a gauge function."""
    phi = as_phi_field(model, phi)
    old = GeometrySnapshot(model, x, mode)
    new = GeometrySnapshot(transform_potential(model, phi), x, mode)
    return scalar_shift(old, new, phi)


def peak(values):
    """Largest of per-point values, and 0.0 for none; NaN is skipped, as a
    running max(worst, value) skips it."""
    return float(np.fmax.reduce(np.ravel(values), initial=0.0))


@dataclass
class GaugeInvarianceReport:
    deltas: dict  # check id -> max delta over the points
    passed: bool  # every gating delta within its tolerance
    pair: tuple  # (unshifted, shifted) snapshot over all the points


def gauge_invariance_suite(model, phi, points=None, charge_ratio=0.7, mode="dual", old=None):
    """Check the gauge-invariant observables and report what shifted.

    The field strength, current, stress-energy, Einstein-equation residual,
    and force-law right-hand side must not move; the contorsion and the
    full-connection curvature are expected to move and their maximum deltas
    are reported as evidence: their rows in ``CHECK_DEFS`` are
    informational.  Both sides are evaluated as one snapshot each over all
    the points (an (N, 4) batch; one point is a batch of one); ``old``, an
    unshifted snapshot over the same points, is reused when given, so
    several gauge functions can share it.
    """
    phi = as_phi_field(model, phi)
    if points is None:
        points = model.default_grid
    if old is None:
        old = GeometrySnapshot(model, points, mode)
    new = GeometrySnapshot(transform_potential(model, phi), points, mode)
    new.preload(2)  # the curvature deltas read second derivatives

    eight_pi_c = 8.0 * np.pi * model.constants.coupling
    V = probe_velocity(old)
    deltas = {
        "gauge.f_invariance": new.F_dd - old.F_dd,
        "gauge.current_invariance": new.J_up - old.J_up,
        "gauge.stress_invariance": new.T_em_dd - old.T_em_dd,
        "gauge.einstein_invariance": (new.einstein_lc_dd - eight_pi_c * new.T_em_dd)
        - (old.einstein_lc_dd - eight_pi_c * old.T_em_dd),
        "gauge.lorentz_invariance":
            acceleration(new, V, charge_ratio) - acceleration(old, V, charge_ratio),
        "gauge.contorsion_delta": new.K_mix - old.K_mix,
        "gauge.curvature_delta": new.riemann_rc - old.riemann_rc,
    }
    # per point first: a point whose delta holds a NaN is skipped whole
    worst = {cid: peak(max_abs(delta)) for cid, delta in deltas.items()}
    tols = {cid: default_tolerance(cid, mode) for cid in worst}
    return GaugeInvarianceReport(
        deltas=worst,
        passed=all(tol is None or worst[cid] <= tol for cid, tol in tols.items()),
        pair=(old, new),
    )
