"""The check table: every identity the suites verify, each defined once.

A row of ``CHECK_DEFS`` holds the check's paper anchor, its tolerance in the
dual and the fd derivative mode (None: informational), its point group, the
order of the field jets it reads (0: none, the residual evaluates the fields
itself), its residual, a function that gives one value per point, and the
model claim (a ``model.meta`` key) without which it does not run.  A
residual reads a snapshot; a gauge row's (groups "gauge" and "orbit") reads
a ``GaugePair``, and its order is the one it reads from the pair's
unshifted side; a worldline row's reads a ``Worldline``, one value per
state.  An informational row holds the note its report entry carries.  A
check belongs to the suite its id's prefix names (``suite_of``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import fields
from .dynamics import _dust_jets, acceleration, probe_velocity, transport_residual
from .engine import GeometrySnapshot, batched_einsum, max_abs
from .gauge import as_phi_field, contorsion_shift, peak, scalar_shift, transform_potential


class Check(NamedTuple):
    anchor: str
    dual: float | None
    fd: float | None
    # "grid", "small", "random", "grid+random", "gauge", "orbit" or "worldline"
    group: str
    order: int
    residual: Callable
    claim: str | None = None
    note: str | None = None


# id prefix -> suite
_SUITE_OF_PREFIX = {"metric": "metric", "fields": "metric", "lc": "lc", "em": "maxwell",
                    "rc": "rc", "einstein": "einstein", "dyn": "dynamics", "gauge": "gauge"}


def suite_of(check_id):
    return _SUITE_OF_PREFIX[check_id.split(".", 1)[0]]


# -- pointwise residuals -------------------------------------------------------


def _signature(snap):
    """0 at every point: building the metric raises, naming the first point,
    where it is not Lorentzian."""
    snap.metric
    return np.zeros(len(snap.x))


def _iter_fields(model):
    for i in range(4):
        for j in range(i, 4):
            yield model.g_fields[i][j]
    yield from model.A_fields


def _dual_vs_fd(snap):
    worst = 0.0
    for f in _iter_fields(snap.model):
        jv = f.jet(snap.x, 2)
        grad, hess = fields.finite_difference_derivatives(f, snap.x)
        scale = 1.0 + np.abs(jv.value)
        worst = np.maximum(
            worst,
            np.maximum(
                np.abs(grad - jv.grad).max(axis=0) / scale,
                np.abs(hess - jv.hess).max(axis=(0, 1)) / scale,
            ),
        )
    return worst


def _torsion_roundtrip(snap):
    K = snap.K_mix
    T = K - np.swapaxes(K, -3, -2)
    gi, g = snap.ginv, snap.g
    rebuilt = 0.5 * (
        T
        - batched_einsum("lb,nr,mlr->mnb", gi, g, T)
        - batched_einsum("lb,mr,nlr->mnb", gi, g, T)
    )
    return max_abs(rebuilt - K)


def _scalar_split(snap):
    R, R_bar, em, coupling, R_traced = snap.scalar_split()
    target = R_bar + em + coupling
    return np.maximum(np.abs(R - target), np.abs(R_traced - target))


def _einstein_gap(snap):
    """G_mn - 8 pi (G / c^4) T_mn, with the Levi-Civita Einstein tensor."""
    return snap.einstein_lc_dd - 8.0 * np.pi * snap.C * snap.T_em_dd


def _source_density(snap):
    model = snap.model
    expected = snap.c_light * model.params[model.meta["charge_density_param"]]
    J = snap.J_up
    return np.maximum(np.abs(J[..., 0] - expected), np.abs(J[..., 1:]).max(axis=-1))


def _energy_density(snap):
    t00 = snap.T_em_dd[..., 0, 0] / snap.g[..., 0, 0]
    return np.maximum(0.0, -t00)


def _matter_flux(snap):
    """rho0 and V of the model's dust, c^2, its matter flux P^m = rho0 c^2 V^m
    and the coordinate divergence d_m(sqrt(-g) P^m), at every point."""
    c = snap.c_light
    c2 = c * c
    r0, dr0, V, dV = _dust_jets(snap)
    P = (r0 * c2)[:, None] * V
    dP = c2 * (dr0[:, :, None] * V[:, None, :] + r0[:, None, None] * dV)
    return r0, V, c2, P, snap.density_div(P, dP)


def _mass_flux(snap):
    """The torsionful divergence of the matter flux against the coupling
    source term, with the source sign as printed in the derivation."""
    r0, V, c2, P, div = _matter_flux(snap)
    div_rc = div / snap.sqrt_g + batched_einsum("d,d->", snap.K_first_trace, P)
    afv = batched_einsum("m,nm,n->", snap.A, snap.F_mix, V)
    return np.abs(div_rc - snap.C * r0 * c2 * afv)


# -- gauge residuals -----------------------------------------------------------


# What a gauge row reads over a batch of points: the unshifted snapshot, the
# snapshot of the model shifted by the gradient of phi, and phi.  The orbit's
# pair is (shifted by phi1 then by phi2, shifted by phi1 + phi2, their sum).
GaugePair = namedtuple("GaugePair", "old new phi")


def _delta(member):
    """|new - old| of a snapshot member, its largest entry at every point."""
    return lambda p: max_abs(getattr(p.new, member) - getattr(p.old, member))


def _lorentz_delta(p):
    """The change of the force law at a probe velocity, charge ratio 0.7."""
    V = probe_velocity(p.old)
    return max_abs(acceleration(p.new, V, 0.7) - acceleration(p.old, V, 0.7))


def _orbit(p):
    """Composing two shifts against the one combined shift: contorsion, field
    strength and RC scalar curvature, the largest mismatch at every point."""
    twice, once = p.old, p.new
    return np.fmax(np.fmax(max_abs(twice.K_mix - once.K_mix), max_abs(twice.F_dd - once.F_dd)),
                   np.abs(twice.scalar_rc - once.scalar_rc))


# What a worldline row reads: a scenario model, a trajectory and its charge ratio k.
Worldline = namedtuple("Worldline", "model traj k")

_INFORMATIONAL_SHIFT = "informational: nonzero evidences the expected non-invariance"

# check id -> Check, in report order
CHECK_DEFS = {
    "metric.inverse": Check(
        "Eq.rec", 1e-12, 1e-12, "grid", 1,
        lambda s: max_abs(s.metric.inverse @ s.metric.matrix - np.eye(4))),
    "metric.signature": Check("Sec.2", 0.5, 0.5, "grid", 1, _signature),
    "fields.dual_vs_fd": Check("n/a", 1e-6, 1e-6, "small", 0, _dual_vs_fd),
    "lc.metric_compatibility": Check(
        "Eq.2", 1e-10, 1e-8, "grid", 1, lambda s: s.metric_compatibility_residual("lc")),
    "lc.riemann_antisymmetry": Check(
        "Eq.17", 1e-10, 1e-10, "grid", 2,
        lambda s: max_abs(s.riemann_lc + np.swapaxes(s.riemann_lc, -4, -3))),
    "lc.ricci_symmetry": Check(
        "Eq.18", 1e-10, 1e-7, "grid", 2,
        lambda s: max_abs(s.ricci_lc - np.swapaxes(s.ricci_lc, -2, -1))),
    "lc.bianchi": Check("Eq.36", 1e-7, 1e-3, "small", 3, lambda s: s.bianchi_residual()),
    "lc.divergence_forms": Check(
        "Eq.15", 1e-8, 1e-8, "grid", 2, lambda s: max_abs(s.lc_div_F_det - s.lc_div_F_gamma)),
    "em.homogeneous": Check("Eq.12", 1e-10, 1e-10, "grid", 2, lambda s: s.homogeneous_residual()),
    "em.source_free": Check(
        "Eq.15", 1e-8, 1e-5, "grid", 2, lambda s: max_abs(s.J_up), claim="source_free"),
    "em.source_density": Check(
        "Eq.15", 1e-8, 1e-5, "grid", 2, _source_density, claim="charge_density_param"),
    "em.current_conservation": Check(
        "Eq.16", 1e-6, 1e-4, "small", 3, lambda s: s.current_conservation_residual()),
    "em.divergence_rc_lc": Check(
        "Eq.6", 1e-8, 1e-8, "grid", 2, lambda s: max_abs(s.rc_div_F - s.lc_div_F_det)),
    "em.stress_trace": Check(
        "Eq.20Z", 1e-10, 1e-8, "grid", 1,
        lambda s: np.abs(batched_einsum("mn,mn->", s.ginv, s.T_em_dd))),
    "em.stress_symmetry": Check(
        "Eq.20Z", 1e-12, 1e-12, "grid", 1,
        lambda s: max_abs(s.T_em_dd - np.swapaxes(s.T_em_dd, -2, -1))),
    "em.stress_conservation": Check(
        "Eq.40", 1e-7, 1e-5, "grid", 2, lambda s: s.stress_exchange_residual()),
    "em.energy_density": Check(
        "Eq.20Z", 1e-12, 1e-10, "grid", 1, _energy_density, claim="diag_static"),
    "rc.additivity": Check(
        "Eq.1", 1e-14, 1e-14, "grid", 1, lambda s: max_abs(s.gamma_full - s.gamma_lc - s.K_mix)),
    "rc.torsion_roundtrip": Check("Eq.cont", 1e-10, 1e-10, "grid", 1, _torsion_roundtrip),
    "rc.metric_compatibility": Check(
        "Eq.1", 1e-10, 1e-8, "grid", 1, lambda s: s.metric_compatibility_residual("rc")),
    "rc.k_f_pair": Check("Eq.6", 1e-12, 1e-12, "grid+random", 1, lambda s: s.pair_residual_F()),
    "rc.quadratic_pair": Check(
        "Eq.17", 1e-12, 1e-12, "grid+random", 1, lambda s: s.quadratic_pair_residual()),
    "rc.stress_pair": Check(
        "Eq.38", 1e-12, 1e-12, "grid+random", 1, lambda s: s.pair_residual_T()),
    "rc.decomposition": Check("Eq.17", 1e-8, 1e-5, "grid", 2, lambda s: s.decomposition_residual()),
    "rc.scalar_split": Check("Eq.19", 1e-8, 1e-5, "grid", 2, _scalar_split),
    "einstein.residual": Check(
        "Eq.31", 1e-8, 1e-5, "grid", 2,
        lambda s: max_abs(_einstein_gap(s)), claim="einstein_exact"),
    "dyn.transport_identity": Check(
        "Eq.43", 1e-8, 1e-8, "small", 1,
        lambda s: transport_residual(s, probe_velocity(s), 0.7)),
    "dyn.exchange_mass_flux": Check(
        "Eq.42", None, None, "small", 1, _mass_flux, "dust",
        "informational: reported with the source sign as printed"),
    "dyn.exchange_conservation": Check(
        "Eq.46", 1e-6, 1e-5, "small", 1, lambda s: np.abs(_matter_flux(s)[-1]), "dust"),
    "dyn.closed_form": Check(
        "Eq.45", 1e-6, 1e-6, "worldline", 0,
        lambda w: w.model.meta["scenario"].closed_form(w.model, w.traj, w.k), "scenario"),
    "dyn.norm_drift": Check(
        "Eq.45", 1e-8, 1e-8, "worldline", 0, lambda w: w.traj.norm_residuals, "scenario"),
    "gauge.contorsion_shift": Check(
        "Eq.47", 1e-12, 1e-8, "gauge", 1, lambda p: contorsion_shift(*p)),
    "gauge.scalar_shift": Check("Eq.49", 1e-8, 1e-5, "gauge", 3, lambda p: scalar_shift(*p)),
    "gauge.f_invariance": Check("Eq.13", 1e-12, 1e-8, "gauge", 1, _delta("F_dd")),
    "gauge.current_invariance": Check("Eq.15", 1e-10, 1e-6, "gauge", 2, _delta("J_up")),
    "gauge.stress_invariance": Check("Eq.31", 1e-10, 1e-8, "gauge", 1, _delta("T_em_dd")),
    "gauge.einstein_invariance": Check(
        "Eq.31", 1e-10, 1e-8, "gauge", 2,
        lambda p: max_abs(_einstein_gap(p.new) - _einstein_gap(p.old))),
    "gauge.lorentz_invariance": Check("Eq.45", 1e-12, 1e-8, "gauge", 1, _lorentz_delta),
    "gauge.contorsion_delta": Check(
        "Eq.47", None, None, "gauge", 1, _delta("K_mix"), note=_INFORMATIONAL_SHIFT),
    "gauge.curvature_delta": Check(
        "Eq.48", None, None, "gauge", 2, _delta("riemann_rc"), note=_INFORMATIONAL_SHIFT),
    "gauge.orbit": Check("Sec.5", 1e-12, 1e-7, "orbit", 2, _orbit),
}


def default_tolerance(check_id, mode):
    """Tolerance of a check in the given derivative mode (None: informational)."""
    row = CHECK_DEFS[check_id]
    return row.dual if mode == "dual" else row.fd


@dataclass
class GaugeInvarianceReport:
    deltas: dict  # check id -> max delta over the points
    passed: bool  # every gating delta within its tolerance
    pair: tuple  # (unshifted, shifted) snapshot over all the points


def gauge_invariance_suite(model, phi, points=None, mode="dual"):
    """Check the gauge-invariant observables and report what shifted.

    The field strength, current, stress-energy, Einstein-equation residual,
    and force-law right-hand side must not move; the contorsion and the
    full-connection curvature are expected to move and their maximum deltas
    are reported as evidence: their rows in ``CHECK_DEFS`` are
    informational.  Each delta is its row's residual, read from one
    (unshifted, shifted) snapshot pair over all the points (an (N, 4) batch;
    one point is a batch of one).
    """
    phi = as_phi_field(model, phi)
    if points is None:
        points = model.default_grid
    old = GeometrySnapshot(model, points, mode)
    new = GeometrySnapshot(transform_potential(model, phi), points, mode)
    new.preload(2)  # the curvature deltas read second derivatives
    pair = GaugePair(old, new, phi)
    # the "gauge" rows but the two that compare with a closed-form shift; per
    # point first: a point whose delta holds a NaN is skipped whole
    shifts = ("gauge.contorsion_shift", "gauge.scalar_shift")
    worst = {cid: peak(row.residual(pair)) for cid, row in CHECK_DEFS.items()
             if row.group == "gauge" and cid not in shifts}
    tols = {cid: default_tolerance(cid, mode) for cid in worst}
    passed = all(tol is None or worst[cid] <= tol for cid, tol in tols.items())
    return GaugeInvarianceReport(worst, passed, (old, new))
