"""Gauge transformations of the potential and their geometric footprint.

Shifting the potential by an exact gradient leaves the field strength,
current, stress-energy, and worldline dynamics untouched while shifting
the contorsion and the full-connection curvature in a controlled way; the
scalar-curvature change is a pure divergence.  Every quantity is compared
on one (unshifted, shifted) snapshot pair over a batch of points: each side
is one snapshot, and each comparison one array reduction with a value per
point.  The comparisons are the residuals of the ``gauge.*`` rows of
``checks.CHECK_DEFS``, which read a ``checks.GaugePair``; the closed-form
shifts they compare with (``contorsion_shift``, ``scalar_shift`` and its
``divergence_term``) are here.
"""

from __future__ import annotations

import numpy as np

from .engine import GeometrySnapshot, batched_einsum, max_abs
from .fields import ShiftedPotentialField, gauge_function_jet


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
    pj = gauge_function_jet(phi, snap.x, 1, check=True)
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
