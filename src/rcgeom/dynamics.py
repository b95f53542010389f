"""Charged test-matter worldlines, the transport identity, and dust jets.

The worldline equation integrated here is

    dV^n/ds = -G_{md}^{..n} V^m V^d + k F_m^{.n} V^m,    k = rho_q / (rho_0 c^2)

with the metric (torsion-free) connection coefficients G and the mixed
field strength; only the charge-to-inertia ratio k enters, so test-particle
runs are decoupled from dust density fields.  Skew symmetry of F makes the
equation preserve g(V, V) exactly in the continuum, which turns measured
normalization drift into a pure integrator-quality metric.

One Runge-Kutta step takes the method as a Butcher tableau: RK4, or
Dormand-Prince 5(4) with error control.  Each accepted state has one snapshot
over a batch of one point: its first read tests the domain, its metric gives
the norm residual (and any rescale of V), and it is stage 1 of every step
from that state.  Identities take a batch of points, one velocity per point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .engine import GeometrySnapshot, batched_einsum, max_abs
from .errors import (
    ConsistencyError,
    DomainError,
    EvalError,
    GeometryError,
    MetricError,
    _quiet_float_errors,
    point_text,
)
from .fields import fd_jet


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
        if not (math.isfinite(self.ds) and self.ds > 0):
            raise GeometryError(f"integrator step must be finite and positive, got {self.ds!r}")
        if self.steps < 1:
            raise GeometryError("integrator needs at least one step")
        if self.method not in _TABLEAUX:
            raise GeometryError(f"unknown integrator method {self.method!r}")
        if self.renormalize_every < 0:
            raise GeometryError("renormalize_every must be at least 0 (0: never)")
        if self.renormalize_every and self.method != "rk4":
            raise GeometryError(f"renormalize_every needs rk4; {self.method} never renormalizes")


@dataclass
class Trajectory:
    states: list
    norm_residuals: list
    exited: bool = False
    exit_message: str = ""
    rejected_steps: int = 0

    @property
    def max_drift(self):
        return max(self.norm_residuals) if self.norm_residuals else 0.0

    def final(self):
        return self.states[-1]


def norm_squared(model, x, V):
    g = model.metric_values(np.asarray(x, dtype=float)[None])[0]
    return float(V @ g @ V)


def normalize_velocity(model, x, V):
    """Rescale V to unit norm; the vector must be timelike."""
    V = np.asarray(V, dtype=float)
    return _unit(V, norm_squared(model, x, V), x)


def _unit(V, n2, x):
    if n2 <= 0:
        raise GeometryError(f"velocity {point_text(V)} is not timelike at {point_text(x)}")
    return V / np.sqrt(n2)


def probe_velocity(snap):
    """A fixed unit timelike velocity at every point of the snapshot, shape
    (N, 4), for identities that hold for any velocity."""
    return np.array([_probe_velocity(g, x) for g, x in zip(snap.g, snap.x)])


def _probe_velocity(g, x):
    w = np.array([1.0, 0.05, 0.03, 0.02])
    for _ in range(8):
        n2 = float(w @ g @ w)
        if n2 > 1e-6:
            return w / np.sqrt(n2)
        w[1:] *= 0.25
    raise ConsistencyError(f"could not build a timelike test velocity at {point_text(x)}")


# The force law's contractions are summed directly, without the contraction
# path batched_einsum takes for three operands: every row then has the bits
# of the direct one-point sum, which the worldline integrator compounds.
_GEODESIC = "...mdn,...m,...d->...n"
_LORENTZ = "...mn,...m->...n"


def acceleration(snap, V, k):
    """dV/ds of the force law at every point of the snapshot, with one
    velocity per point (V has shape (N, 4))."""
    geodesic = np.einsum(_GEODESIC, snap.gamma_lc, V, V)
    if k != 0.0:
        return k * np.einsum(_LORENTZ, snap.F_mix, V) - geodesic
    return -geodesic


def _rhs(snap, V, k):
    """d(x, V)/ds, shape (8,), at the one point of the snapshot."""
    return np.concatenate([V, acceleration(snap, V[None], k)[0]])


# Row i of ``a`` builds stage i + 2, ``b`` weighs the stages over ``denom``,
# and ``b_low`` is a pair's embedded solution; 5(4): Dormand & Prince (1980).
# Each row is kept as its nonzero (coefficient, stage index) pairs.
_Tableau = namedtuple("_Tableau", "a b denom b_low")


def _pairs(row):
    return tuple((w, j) for j, w in enumerate(row) if w)


def _tableau(a, b, denom, b_low=None):
    return _Tableau(tuple(map(_pairs, a)), _pairs(b), denom, b_low and _pairs(b_low))


_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_TABLEAUX = {
    "rk4": _tableau(((1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0)), (1.0, 2.0, 2.0, 1.0), 6.0),
    "rk45-adaptive": _tableau(_DP_A, _DP_A[-1], 1.0, (
        5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)),
}


def _rk_step(tableau, stage, y, k1, ds):
    """One step of size ds from y, whose derivative is k1; ``stage(y)``
    gives the derivative at a new point.  Returns the new y and the
    largest difference from the embedded solution (0.0 without one)."""
    ks = [k1]
    for row in tableau.a:
        yi = y
        for a, j in row:
            yi = yi + (ds * a) * ks[j]
        ks.append(stage(yi))

    def weigh(pairs):
        # a unit weight takes its stage as is: 1.0 * k is k, bit for bit
        total = None
        for w, j in pairs:
            term = ks[j] if w == 1.0 else w * ks[j]
            total = term if total is None else total + term
        return total

    y_new = y + (ds / tableau.denom) * weigh(tableau.b)
    if tableau.b_low is None:
        return y_new, 0.0
    return y_new, float(np.abs(y_new - (y + ds * weigh(tableau.b_low))).max())


@_quiet_float_errors
def integrate_worldline(model, init, charge_ratio, config, mode="dual"):
    """Integrate the worldline equation; returns the sampled trajectory."""
    y = np.concatenate([init.x, init.V], dtype=float)
    s = float(init.s)
    k = float(charge_ratio)
    tableau = _TABLEAUX[config.method]
    traj = Trajectory(states=[WorldlineState(y[:4], y[4:], s)],
                      norm_residuals=[abs(norm_squared(model, y[:4], y[4:]) - 1.0)])

    def stage(y):
        return _rhs(GeometrySnapshot(model, y[:4], mode), y[4:], k)

    def accept(y, s, renormalize=False):
        """Record an accepted state; returns it (rescaled if asked) and its snapshot."""
        snap = GeometrySnapshot(model, y[:4], mode)
        try:
            g = snap.g[0]
        except DomainError:
            raise DomainError(
                f"worldline left the domain of {model.name!r} near {point_text(y[:4])}"
            ) from None
        if renormalize:
            y = np.concatenate([y[:4], _unit(y[4:], float(y[4:] @ g @ y[4:]), y[:4])])
        # copies: views would keep y alive, and cost more memory per state
        traj.states.append(WorldlineState(y[:4].copy(), y[4:].copy(), s))
        traj.norm_residuals.append(abs(float(y[4:] @ g @ y[4:]) - 1.0))
        return y, snap

    snap = GeometrySnapshot(model, y[:4], mode)
    try:
        if config.method == "rk4":
            every = config.renormalize_every
            for step in range(config.steps):
                y, _ = _rk_step(tableau, stage, y, _rhs(snap, y[4:], k), config.ds)
                s += config.ds
                y, snap = accept(y, s, every and (step + 1) % every == 0)
        else:
            s_end = s + config.ds * config.steps
            ds = config.ds
            atol, rtol = 1e-12, 1e-10
            attempts = 0
            while s < s_end - 1e-15:
                ds = min(ds, s_end - s)
                y_new, err = _rk_step(tableau, stage, y, _rhs(snap, y[4:], k), ds)
                tol = atol + rtol * float(np.abs(y).max())
                if err <= tol:
                    s += ds
                    y, snap = accept(y_new, s)
                else:
                    traj.rejected_steps += 1
                safety = 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
                ds = ds * min(4.0, max(0.2, safety))
                attempts += 1
                if attempts > 20 * config.steps:
                    raise GeometryError("adaptive integrator exceeded its step budget")
    except (DomainError, EvalError, MetricError) as err:
        traj.exited = True
        traj.exit_message = str(err)
    return traj


def transport_residual(snap, V, charge_ratio):
    """Residual, per unit rest energy density, of the transport identity
    along a worldline of the force law, at every point of the snapshot with
    one velocity per point: the full-connection acceleration must equal the
    current force term minus the potential-coupling term.

    The combination vanishes identically when the trajectory satisfies the
    integrated force law; it is reported to expose convention breakage.
    """
    accel = acceleration(snap, V, charge_ratio) + np.einsum(_GEODESIC, snap.gamma_full, V, V)
    force = charge_ratio * batched_einsum("mn,m->n", snap.F_mix, V)
    a_dot_v = batched_einsum("m,m->", snap.A, V)
    coupling = snap.C * a_dot_v[:, None] * batched_einsum("dn,d->n", snap.F_mix, V)
    return max_abs(accel - force + coupling)


def _dust_jets(snap):
    """rho0 of the model's dust, its gradient, V and its gradient at every
    point of the snapshot, point axis first: (N,), (N, 4), (N, 4) and
    (N, 4, 4) (derivative, component).  An evaluation error names the
    field, and the point when the snapshot has one."""
    X, dust = snap.x, snap.model.dust

    def one(f):
        try:
            return f.jet(X, 1) if snap.mode == "dual" else fd_jet(f, X, 1)
        except EvalError as err:
            where = point_text(X[0]) if len(X) == 1 else f"one of {len(X)} points"
            raise EvalError(f"dust field {f.name!r} at {where}: {err}") from None

    n = len(X)
    r0 = one(dust.rho0)
    V = np.empty((n, 4))
    dV = np.empty((n, 4, 4))
    for m, f in enumerate(dust.V_fields):
        jv = one(f)
        V[:, m] = jv.value
        dV[:, :, m] = jv.grad.T
    return np.broadcast_to(r0.value, (n,)), np.broadcast_to(r0.grad.T, (n, 4)), V, dV
