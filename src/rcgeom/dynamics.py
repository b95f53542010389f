"""Charged test-matter worldlines and the dust exchange identities.

The worldline equation integrated here is

    dV^n/ds = -G_{md}^{..n} V^m V^d + k F_m^{.n} V^m,    k = rho_q / (rho_0 c^2)

with the metric (torsion-free) connection coefficients G and the mixed
field strength; only the charge-to-inertia ratio k enters, so test-particle
runs are decoupled from dust density fields.  Skew symmetry of F makes the
equation preserve g(V, V) exactly in the continuum, which turns measured
normalization drift into a pure integrator-quality metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import GeometrySnapshot
from .errors import (
    ConsistencyError,
    DomainError,
    EvalError,
    GeometryError,
    MetricError,
    point_text,
)

_ONSHELL_TOL = 1e-6


@dataclass(frozen=True)
class DustModel:
    rho0: object  # proper mass density field
    rhoq: object  # proper charge density field
    V_fields: tuple  # four scalar fields for V^m


def dust_from_sources(model, rho0, rhoq, V):
    """Dust whose densities and velocity are expressions over the model's chart."""
    return DustModel(
        rho0=model.scalar_field(rho0, "rho0"),
        rhoq=model.scalar_field(rhoq, "rhoq"),
        V_fields=tuple(model.scalar_field(src, f"V[{i}]") for i, src in enumerate(V)),
    )


@dataclass(frozen=True)
class WorldlineState:
    x: np.ndarray
    V: np.ndarray
    s: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "V", np.asarray(self.V, dtype=float))


@dataclass(frozen=True)
class IntegratorConfig:
    ds: float
    steps: int
    method: str = "rk4"
    renormalize_every: int = 0

    def __post_init__(self):
        if self.ds <= 0:
            raise GeometryError("integrator step must be positive")
        if self.steps < 1:
            raise GeometryError("integrator needs at least one step")
        if self.method not in ("rk4", "rk45-adaptive"):
            raise GeometryError(f"unknown integrator method {self.method!r}")


@dataclass
class Trajectory:
    states: list
    norm_residuals: list
    exited: bool = False
    exit_message: str = ""
    config: IntegratorConfig = None
    rejected_steps: int = 0

    @property
    def max_drift(self):
        return max(self.norm_residuals) if self.norm_residuals else 0.0

    def final(self):
        return self.states[-1]


def norm_squared(model, x, V):
    g = model.metric_values(x)
    return float(V @ g @ V)


def normalize_velocity(model, x, V):
    """Rescale V to unit norm; the vector must be timelike."""
    V = np.asarray(V, dtype=float)
    n2 = norm_squared(model, x, V)
    if n2 <= 0:
        raise GeometryError(f"velocity {point_text(V)} is not timelike at {point_text(x)}")
    return V / np.sqrt(n2)


def probe_velocity(snap):
    """A fixed unit timelike velocity at the snapshot point (one per point
    over a batch), for identities that hold for any velocity."""
    if snap.batched:
        return np.array([_probe_velocity(g, x) for g, x in zip(snap.g, snap.x)])
    return _probe_velocity(snap.g, snap.x)


def _probe_velocity(g, x):
    w = np.array([1.0, 0.05, 0.03, 0.02])
    for _ in range(8):
        n2 = float(w @ g @ w)
        if n2 > 1e-6:
            return w / np.sqrt(n2)
        w[1:] *= 0.25
    raise ConsistencyError(f"could not build a timelike test velocity at {point_text(x)}")


# (one point, batch) subscripts of the force law.  The batch is summed
# without a contraction path, as one point is, so each row has the
# one-point bits.
_GEODESIC = ("mdn,m,d->n", "...mdn,...m,...d->...n")
_LORENTZ = ("mn,m->n", "...mn,...m->...n")


def acceleration(snap, V, k):
    """dV/ds of the force law at the snapshot point, or at every point of a
    batched snapshot with one velocity per point."""
    dV = -np.einsum(_GEODESIC[snap.batched], snap.gamma_lc, V, V)
    if k != 0.0:
        dV = dV + k * np.einsum(_LORENTZ[snap.batched], snap.F_mix, V)
    return dV


def _rhs(model, x, V, k, mode):
    return V, acceleration(GeometrySnapshot(model, x, mode), V, k)


def lorentz_rhs(model, state, charge_ratio, mode="dual"):
    """(dx/ds, dV/ds) for an on-shell state."""
    n2 = norm_squared(model, state.x, state.V)
    if abs(n2 - 1.0) > _ONSHELL_TOL:
        raise GeometryError(f"state is off shell: g(V,V) = {n2!r}")
    return _rhs(model, state.x, state.V, charge_ratio, mode)


def _rk4_step(model, x, V, k, ds, mode):
    k1x, k1v = _rhs(model, x, V, k, mode)
    k2x, k2v = _rhs(model, x + 0.5 * ds * k1x, V + 0.5 * ds * k1v, k, mode)
    k3x, k3v = _rhs(model, x + 0.5 * ds * k2x, V + 0.5 * ds * k2v, k, mode)
    k4x, k4v = _rhs(model, x + ds * k3x, V + ds * k3v, k, mode)
    xn = x + (ds / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    Vn = V + (ds / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return xn, Vn


# Dormand-Prince 5(4) coefficients.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
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
_DP_B4 = (
    5179 / 57600,
    0.0,
    7571 / 16695,
    393 / 640,
    -92097 / 339200,
    187 / 2100,
    1 / 40,
)


def _dp54_step(model, y, k, ds, mode):
    def f(yv):
        dx, dv = _rhs(model, yv[:4], yv[4:], k, mode)
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


def integrate_worldline(model, init, charge_ratio, config, mode="dual"):
    """Integrate the worldline equation; returns the sampled trajectory."""
    x = np.asarray(init.x, dtype=float)
    V = np.asarray(init.V, dtype=float)
    s = float(init.s)
    k = float(charge_ratio)

    states = [WorldlineState(x, V, s)]
    residuals = [abs(norm_squared(model, x, V) - 1.0)]
    traj = Trajectory(states=states, norm_residuals=residuals, config=config)

    try:
        if config.method == "rk4":
            for step in range(config.steps):
                x, V = _rk4_step(model, x, V, k, config.ds, mode)
                s += config.ds
                if not model.in_domain(x):
                    raise DomainError(
                        f"worldline left the domain of {model.name!r} near {point_text(x)}"
                    )
                if config.renormalize_every and (step + 1) % config.renormalize_every == 0:
                    V = normalize_velocity(model, x, V)
                states.append(WorldlineState(x, V, s))
                residuals.append(abs(norm_squared(model, x, V) - 1.0))
        else:
            s_end = s + config.ds * config.steps
            ds = config.ds
            atol, rtol = 1e-12, 1e-10
            y = np.concatenate([x, V])
            max_attempts = 20 * config.steps
            attempts = 0
            while s < s_end - 1e-15:
                ds = min(ds, s_end - s)
                y5, err = _dp54_step(model, y, k, ds, mode)
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
                    residuals.append(abs(norm_squared(model, y[:4], y[4:]) - 1.0))
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


def rc_transport_residual(model, state, charge_ratio, mode="dual"):
    """Residual, per unit rest energy density, of the transport identity
    along a worldline of the force law: the full-connection acceleration
    must equal the current force term minus the potential-coupling term.

    The combination vanishes identically when the trajectory satisfies the
    integrated force law; it is reported to expose convention breakage.
    """
    snap = GeometrySnapshot(model, state.x, mode)
    V = np.asarray(state.V, dtype=float)
    accel = acceleration(snap, V, charge_ratio) + np.einsum("mdn,m,d->n", snap.gamma_full, V, V)
    force = charge_ratio * np.einsum("mn,m->n", snap.F_mix, V)
    a_dot_v = float(np.einsum("m,m->", snap.A, V))
    coupling = snap.C * a_dot_v * np.einsum("dn,d->n", snap.F_mix, V)
    return float(np.abs(accel - force + coupling).max())


@dataclass(frozen=True)
class ExchangeResiduals:
    """Max-abs residuals of the four stress-exchange relations: the
    contorsion/stress contraction pair, stress-energy transfer to the
    current, the torsionful mass-flux relation (as printed, see notes),
    and coordinate matter conservation."""

    pair_cancellation: float  # K-contraction pair against the EM stress
    energy_transfer: float  # div T = F.J / c
    rc_mass_flux: float  # torsionful divergence of rho0 c^2 V vs coupling
    matter_conservation: float  # d_m(sqrt(-g) rho0 c^2 V^m) = 0


def _dust_jets(dust, x, mode):
    from .fields import fd_jet

    def one(f):
        return f.jet(x, 1) if mode == "dual" else fd_jet(f, x, 1)

    r0 = one(dust.rho0)
    V = np.empty(4)
    dV = np.empty((4, 4))
    for m, f in enumerate(dust.V_fields):
        jv = one(f)
        V[m] = jv.value
        dV[:, m] = jv.grad
    return r0, V, dV


def dust_normalization_residual(model, dust, x, mode="dual"):
    snap = GeometrySnapshot(model, x, mode)
    V = np.array([f.value(x) for f in dust.V_fields])
    return abs(float(V @ snap.g @ V) - 1.0)


def exchange_identities(model, x, dust, mode="dual"):
    """Evaluate the four exchange residuals at a point inside the dust."""
    snap = GeometrySnapshot(model, x, mode)
    c = snap.c_light
    c2 = c * c
    r0, V, dV = _dust_jets(dust, x, mode)

    # matter flux P^m = rho0 c^2 V^m and its coordinate divergence
    P = r0.value * c2 * V
    dP = c2 * (np.multiply.outer(r0.grad, V) + r0.value * dV)
    div_sqrtg_P = float(np.einsum("m,m->", snap.dsqrt_g, P) + snap.sqrt_g * np.einsum("mm->", dP))
    matter_conservation = abs(div_sqrtg_P)

    # torsionful divergence of the mass flux vs the coupling source term,
    # with the source sign as printed in the derivation being checked
    div_bar_P = div_sqrtg_P / snap.sqrt_g
    div_rc_P = div_bar_P + float(np.einsum("d,d->", snap.K_first_trace, P))
    afv = float(np.einsum("m,nm,n->", snap.A, snap.F_mix, V))
    rc_mass_flux = abs(div_rc_P - snap.C * r0.value * c2 * afv)

    return ExchangeResiduals(
        pair_cancellation=snap.pair_residual_T(),
        energy_transfer=snap.stress_exchange_residual(),
        rc_mass_flux=rc_mass_flux,
        matter_conservation=matter_conservation,
    )
