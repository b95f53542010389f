"""Charged test-matter worldlines, the transport identity, and dust jets.

The worldline equation integrated here is

    dV^n/ds = -G_{md}^{..n} V^m V^d + k F_m^{.n} V^m,    k = rho_q / (rho_0 c^2)

with the metric (torsion-free) connection coefficients G and the mixed
field strength; only the charge-to-inertia ratio k enters, so test-particle
runs are decoupled from dust density fields.  Skew symmetry of F makes the
equation preserve g(V, V) exactly in the continuum, which turns measured
normalization drift into a pure integrator-quality metric.

The state is eight floats, y = (x, V).  One Runge-Kutta step takes the
method as a Butcher tableau: RK4, or Dormand-Prince 5(4) with error control,
whose last stage is taken at the new state and so is the next step's first
("first same as last").  The tableau stays data; each step is one call of a
function generated from it on first use (``_step``), unrolled over the eight
floats, which computes every stage point, the new state and the error
estimate with the float operations of elementwise list sums in their order,
so a trajectory is the list arithmetic's bit for bit.  At each stage point
it calls the model's force law, one generated straight-line function
(``_generate_rhs``, once per process for equal fields and templates), so a
step builds no snapshot.  The law is recorded from the fields' order-1
jets with the zero rule of ``expr`` (a term with a constant 0.0 operand is
left out), the one rule for the jets and the law alike.  Where the law
declines (returns None), raises ``ArithmeticError`` or ``ValueError``, that
stage alone takes the snapshot route, whose error notes are the engine's
own; fd mode's law declines everywhere.  ``_rhs`` gives dy/ds and the norm g(V, V) at the start and at
a renormalized state.  An accepted state takes its norm, and its domain
test, from the stage at that state, which is also the next step's first.
A ``Trajectory`` keeps the accepted states as columns, built once, after
the loop.  Identities take a batch of points, one velocity per point.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .engine import DIM, GeometrySnapshot
from .errors import (
    ConsistencyError,
    DomainError,
    EvalError,
    GeometryError,
    MetricError,
    _quiet_float_errors,
    point_text,
    points_text,
)
from .codegen import _dot, _mul, _signed, compile_one_point
from .fields import ExprField, fd_jet
from .tensor import DEGENERACY_TOL, batched_einsum, max_abs


# A worldline's start, or one state of a trajectory as views of its columns.
WorldlineState = namedtuple("WorldlineState", "x V s")


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
    """The accepted states, the start first, as columns: ``s`` (n,) and
    ``y`` = (x, V) (n, 8), with views ``x`` and ``V``.  ``integrate_worldline``
    appends each state's floats to ``array("d")`` buffers and views them as
    arrays after the loop; it keeps no object per state.  It is its own
    ``states``: a sequence of ``WorldlineState`` views of rows."""

    s: np.ndarray
    y: np.ndarray
    norm_residuals: list  # |g(V, V) - 1| at each state
    exited: bool = False  # left the domain, or met an evaluation or metric error
    budget_exhausted: bool = False  # the adaptive controller ran out of attempts
    exit_message: str = ""
    rejected_steps: int = 0
    rhs_evals: int = 0  # right-hand-side evaluations of the steps taken and rejected

    x = property(lambda self: self.y[:, :4])
    V = property(lambda self: self.y[:, 4:])
    states = property(lambda self: self)

    def __len__(self):
        return len(self.s)

    def __getitem__(self, i):
        return WorldlineState(self.x[i], self.V[i], float(self.s[i]))

    @property
    def max_drift(self):
        return max(self.norm_residuals) if self.norm_residuals else 0.0

    def final(self):
        return self[-1]


def norm_squared(model, x, V):
    g = model.metric_values(np.asarray(x, dtype=float)[None])[0]
    return float(V @ g @ V)


def normalize_velocity(model, x, V):
    """Rescale V to unit norm; the vector must be timelike."""
    V = np.asarray(V, dtype=float)
    return np.array(_unit(V, norm_squared(model, x, V), x))


def _unit(V, n2, x):
    """V / sqrt(n2), a list of floats; V must be timelike (n2 > 0)."""
    if n2 <= 0:
        raise GeometryError(f"velocity {point_text(V)} is not timelike at {point_text(x)}")
    r = math.sqrt(n2)
    return [v / r for v in V]


def probe_velocity(snap):
    """A fixed unit timelike velocity at every point of the snapshot, shape
    (N, 4), for identities that hold for any velocity."""
    return np.array([_probe_velocity(snap, i) for i in range(len(snap.x))])


def _probe_velocity(snap, i):
    g, w = snap.g[i], np.array([1.0, 0.05, 0.03, 0.02])
    for _ in range(8):
        n2 = float(w @ g @ w)
        if n2 > 1e-6:
            return w / np.sqrt(n2)
        w[1:] *= 0.25
    # No candidate is timelike where g_tt <= 0, inside an ergoregion; the
    # normal to t = const, V^m = g^{m0} / sqrt(g^{00}), is where g^{00} > 0.
    w = snap.ginv[i][:, 0]
    if (n2 := float(w @ g @ w)) > 0.0:
        return w / np.sqrt(n2)
    raise ConsistencyError(f"could not build a timelike test velocity at {point_text(snap.x[i])}")


# The force law's contractions are each one direct np.einsum, not
# batched_einsum's pairwise plan: an fd worldline takes a one-point snapshot
# at every stage, and its states keep the bits of the direct sum.
_GEODESIC = "...mdn,...m,...d->...n"
_LORENTZ = "...mn,...m->...n"


def acceleration(snap, V, k):
    """dV/ds of the force law at every point of the snapshot, with one
    velocity per point (V has shape (N, 4))."""
    geodesic = np.einsum(_GEODESIC, snap.gamma_lc, V, V)
    if k != 0.0:
        return k * np.einsum(_LORENTZ, snap.F_mix, V) - geodesic
    return -geodesic


# -- the right-hand side of the integrator -------------------------------------


def _rhs(model, y, k, law, mode="dual"):
    """(dy/ds, g(V, V)) at y = (x, V), eight floats: dy/ds is eight floats,
    (V, dV/ds).

    ``law`` is the model's generated force law (``_generate_rhs``), or None
    (fd mode).  Without a law, and where it declines (returns None) or
    raises ``ArithmeticError`` or ``ValueError``, ``_snapshot_rhs`` decides.
    """
    if law is not None:
        try:
            out = law(*y, k)
        except (ArithmeticError, ValueError):
            out = None
        if out is not None:
            return out
    return _snapshot_rhs(model, y, k, mode)


def _snapshot_rhs(model, y, k, mode):
    """``_rhs`` from a snapshot of the point, with the engine's error notes:
    the field jets' (the domain, an evaluation, a non-finite entry) raise,
    and where only the force law fails (a degenerate metric) the derivative
    is that ``MetricError``, raised where the derivative is used, so that an
    accepted state still gets its norm."""
    snap = GeometrySnapshot(model, y[:4], mode)
    V = np.array(y[4:], dtype=float)
    n2 = float(V @ snap.g[0] @ V)
    try:
        a = acceleration(snap, V[None], k)[0]
    except MetricError as err:
        return err, n2
    return (*V.tolist(), *a.tolist()), n2


def _generate_rhs(model):
    """The model's force law as one generated function
    ``rhs(x0, x1, x2, x3, v0, v1, v2, v3, k)`` (``codegen.compile_one_point``
    of the folded trees of the coordinate-dependent components, continued
    by ``_force_law``), or None where a component is not an expression (a
    gauge-shifted potential) or the generator declines.  A model whose
    fields have the same folded trees, over the same constant template,
    gets the function generated for the first such model in the process: a
    later call records and generates nothing.

    ``rhs`` returns ``_rhs``'s pair, or None where the snapshot route must
    decide: outside the domain, within a factor 2 of the degeneracy bound
    (the snapshot applies the bound itself, to numpy's determinant), or
    where an input, an output or a field entry the outputs do not read
    (the potential's value, the diagonal of its gradient) is not finite.
    """
    layout = model.layout
    fields = [f for *_, f in layout.g_live + layout.A_live]
    if not all(isinstance(f, ExprField) for f in fields):
        return None
    domain = None if model.domain is None else model.domain.tree
    # what _force_law reads beyond the jets; bytes, so that signed zeros count
    key = (_force_law, layout.g.tobytes(), layout.A.tobytes(),
           tuple((i, j) for i, j, _ in layout.g_live), tuple(n for n, _ in layout.A_live))
    return compile_one_point([f.tree for f in fields], domain, ("v0", "v1", "v2", "v3", "k"),
                             functools.partial(_force_law, layout), key)


def _order1_lists(layout, jets):
    """g, dg, A and dA (derivative index first) as nested lists: the
    layout's constant template, with the value and gradient of each
    coordinate-dependent component from its jet, in the order of
    ``g_live`` and then ``A_live``."""
    g, A = layout.g.tolist(), layout.A.tolist()
    dg = [[[0.0] * DIM for _ in range(DIM)] for _ in range(DIM)]
    dA = [[0.0] * DIM for _ in range(DIM)]
    jets = iter(jets)
    for (i, j, _), jet in zip(layout.g_live, jets):
        g[i][j] = g[j][i] = jet.f
        for a, d in enumerate(jet.g):
            dg[a][i][j] = dg[a][j][i] = d
    for (n, _), jet in zip(layout.A_live, jets):
        A[n] = jet.f
        for a, d in enumerate(jet.g):
            dA[a][n] = d
    return g, dg, A, dA


def _force_law(layout, tape, jets, x0, x1, x2, x3, v0, v1, v2, v3, k):
    """``compile_one_point``'s continuation for ``_generate_rhs``: the force
    law from the recorded order-1 jets of the layout's components.

    It inverts g by cofactors, lowers the geodesic term to
    w_l = Gamma_{l,md} V^m V^d, adds the Lorentz term u_l = F_{ml} V^m, and
    raises their sum with the inverse once: dV^n/ds = g^{nl} (k u_l - w_l).
    Every term with a constant 0.0 operand is left out, by the zero rule
    the jets are recorded with (``codegen._mul``, ``_signed`` and ``_dot``),
    so a metric's constant zeros, and the jets' constant 0.0 gradient
    entries (those along the axes a component does not read among them),
    cost nothing.  The law returns None where an input, an output, the
    potential or the diagonal of its gradient is not finite.
    """
    x, V = (x0, x1, x2, x3), (v0, v1, v2, v3)
    g, dg, A, dA = _order1_lists(layout, jets)
    upper = [(a, b) for a in range(DIM) for b in range(a, DIM)]

    det, adj = _adjugate(g)
    # tensor._nondegenerate's bound, doubled: a point near it takes the
    # snapshot route, which applies the bound to numpy's det
    entries = [g[a][b] for a, b in upper]
    scale = max([1.0] + [abs(e) for e in entries if isinstance(e, float)])
    live = [e for e in entries if not isinstance(e, float)]
    if live:
        scale = tape.op("max({}" + ", abs({})" * len(live) + ")", scale, *live)
    bound = 2.0 * DEGENERACY_TOL * scale**4
    if live:
        tape.guard("abs({}) < {}", det, bound)
    elif abs(det) < bound:  # a constant metric, near the bound everywhere
        return None
    neg_inv_det = -1.0 / det

    VV = [_mul(V[a], V[b]) for a, b in upper]
    norm = _dot([g[a][b] if a == b else _mul(2.0, g[a][b]) for a, b in upper], VV)

    def first_kind(l, m, d):
        # the factor of V^m V^d (m <= d) in w_l: Gamma_{l,mm}, or 2 Gamma_{l,md}
        if m == d:
            return _signed([(1, dg[m][l][m]), (-1, _mul(0.5, dg[l][m][m]))])
        return _signed([(1, dg[m][l][d]), (1, dg[d][l][m]), (-1, dg[l][m][d])])

    w = [_dot([first_kind(l, m, d) for m, d in upper], VV) for l in range(DIM)]
    F = {(m, l): _signed([(1, dA[m][l]), (-1, dA[l][m])]) for m, l in upper if m < l}
    u = [_signed([(1, _mul(F[m, l], V[m])) for m in range(l)]
                 + [(-1, _mul(F[l, m], V[m])) for m in range(l + 1, DIM)])
         for l in range(DIM)]
    force = [_signed([(1, w[l]), (-1, _mul(k, u[l]))]) for l in range(DIM)]
    accel = [_mul(neg_inv_det, _dot(adj[n], force)) for n in range(DIM)]

    checked = [*x, *V, k, *accel, norm, *A, *(dA[a][a] for a in range(DIM))]
    checked = [c for c in checked if not isinstance(c, float)]
    tape.guard("not math.isfinite(" + " + ".join(["{}"] * len(checked)) + ")", *checked)
    return (*V, *accel), norm


def _adjugate(g):
    """det g and the adjugate of the symmetric 4x4 g (nested lists), by
    Laplace expansion, without the terms that have a constant 0.0 operand;
    each shared minor is expanded once."""
    @functools.cache
    def det(rows, cols):
        if len(rows) == 1:
            return g[rows[0]][cols[0]]
        return _signed([((-1) ** i, _mul(g[rows[0]][c], det(rows[1:], _without(cols, i))))
                        for i, c in enumerate(cols)])

    axes = tuple(range(DIM))
    # adj_ab is the cofactor of g_ba
    upper = {(a, b): _signed([((-1) ** (a + b), det(_without(axes, b), _without(axes, a)))])
             for a in axes for b in axes[a:]}
    return det(axes, axes), [[upper[min(a, b), max(a, b)] for b in axes] for a in axes]


def _without(seq, i):
    return seq[:i] + seq[i + 1:]


# -- Runge-Kutta steps -----------------------------------------------------------

# Row i of ``a`` builds stage i + 2, ``b`` weighs the stages over ``denom``,
# and ``b_low`` is a pair's embedded solution; 5(4): Dormand & Prince (1980).
# Each row is kept as its nonzero (coefficient, stage index) pairs.  ``fsal``:
# the last row is ``b`` over 1, so the last stage is taken at the new state.
_Tableau = namedtuple("_Tableau", "method a b denom b_low fsal")


def _pairs(row):
    return tuple((w, j) for j, w in enumerate(row) if w)


def _tableau(method, a, b, denom, b_low=None):
    a, b = tuple(map(_pairs, a)), _pairs(b)
    return _Tableau(method, a, b, denom, b_low and _pairs(b_low), a[-1] == b and denom == 1.0)


_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_TABLEAUX = {t.method: t for t in (
    _tableau("rk4", ((1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0)), (1.0, 2.0, 2.0, 1.0), 6.0),
    _tableau("rk45-adaptive", _DP_A, _DP_A[-1], 1.0, (
        5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)),
)}

# method -> the generated step of its tableau; filled on first use, bounded
# by _TABLEAUX.  Keyed by name: hashing the DP54 tableau takes about 1 us.
_STEPS = {}


def _step(tableau):
    """The tableau's Runge-Kutta step as one generated straight-line
    function ``step(law, fall, ds, y, dy, k)`` (``step.source``), made on
    first use, over the eight floats of y and of its derivative dy.

    Stage j (from 1) is ``law(*point, k)``, the ``_rhs`` pair at its point,
    or ``fall(j, *point)`` where the law returns None or raises
    ``ArithmeticError`` or ``ValueError``.  The point of stage i + 2 is y,
    then + c * k_j for each pair of row i in turn, with c = ds * a.  The new
    y is the last stage's point with ``fsal``, else y + (ds / denom) * (the
    stages weighted by ``b``, left to right); the error is max |y_new - (y +
    ds * (the stages weighted by ``b_low``))|, or 0.0 without ``b_low``.  A
    unit weight takes its stage as is (1.0 * k is k, bit for bit): the
    float operations of elementwise list sums, in their order.

    Returns ``(y_new, err, pair)``, where pair is the stage at y_new: the
    last one with ``fsal``, else one more stage.
    """
    step = _STEPS.get(tableau.method)
    if step is not None:
        return step
    body = [f"{_names('y')} = y", f"{_names('k0_')} = dy"]

    read = {j for pairs in (*tableau.a, tableau.b, tableau.b_low or ()) for _, j in pairs}

    def call(point, j):
        """Stage j at the point, named z, naming its derivative k_j if read."""
        body.extend(f"z{n} = {component}" for n, component in enumerate(point))
        body.extend(["try:", f"    s = law({_names('z')}, k)",
                     "except (ArithmeticError, ValueError):", "    s = None",
                     "if s is None:", f"    s = fall({j}, {_names('z')})"])
        if j in read:
            body.append(f"({_names(f'k{j}_')}), _ = s")

    for i, row in enumerate(tableau.a, start=1):
        body += [f"c{i}_{p} = ds * {a!r}" for p, (a, _) in enumerate(row)]
        call([f"y{n}" + "".join(f" + c{i}_{p} * k{j}_{n}" for p, (_, j) in enumerate(row))
              for n in range(8)], i)
    if not tableau.fsal:
        body.append(f"c = ds / {tableau.denom!r}")
        call([f"y{n} + c * ({_weighted(tableau.b, n)})" for n in range(8)], len(tableau.a) + 1)
    err = "0.0"
    if tableau.b_low is not None:
        err = "max({})".format(", ".join(
            f"abs(z{n} - (y{n} + ds * ({_weighted(tableau.b_low, n)})))" for n in range(8)))
    body.append(f"return [{_names('z')}], {err}, s")
    source = "def step(law, fall, ds, y, dy, k):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {}
    exec(compile(source, "<rcgeom generated Runge-Kutta step>", "exec"), namespace)
    step = _STEPS[tableau.method] = namespace["step"]
    step.source = source
    return step


def _weighted(pairs, n):
    """Component n of the stages' weighted sum, left to right."""
    return " + ".join(f"k{j}_{n}" if w == 1.0 else f"{w!r} * k{j}_{n}" for w, j in pairs)


def _names(prefix):
    return ", ".join(f"{prefix}{n}" for n in range(8))


def _derivative(dy):
    """dy/ds of an ``_rhs`` pair, raising the force law's error if it is one."""
    if isinstance(dy, Exception):
        raise dy
    return dy


@_quiet_float_errors
def integrate_worldline(model, init, charge_ratio, config, mode="dual"):
    """Integrate the worldline equation; returns the sampled trajectory."""
    x0, V0 = np.asarray(init.x, dtype=float), np.asarray(init.V, dtype=float)
    y = x0.tolist() + V0.tolist()
    s, k = float(init.s), float(charge_ratio)
    tableau = _TABLEAUX[config.method]
    step, calls = _step(tableau), len(tableau.a) + (not tableau.fsal)
    traj = Trajectory(array("d", [s]), array("d", y), [abs(norm_squared(model, x0, V0) - 1.0)])

    def rhs(y):
        traj.rhs_evals += 1
        return _rhs(model, y, k, law, mode)

    def fall(j, *point):
        """Stage j where the law declines or raises: a snapshot.  An interior
        stage raises its error, a deferred ``MetricError`` too; a new state
        without fsal keeps that one, to be accepted with its norm.  A stage
        that raises counts the j stages its step took."""
        try:
            pair = _snapshot_rhs(model, list(point), k, mode)
            if j <= len(tableau.a):
                _derivative(pair[0])
            return pair
        except GeometryError as err:
            traj.rhs_evals += j
            if j <= len(tableau.a) or not isinstance(err, DomainError):
                raise
            raise DomainError(f"worldline left the domain of {model.name!r} near "
                              f"{point_text(point[:4])}") from None

    def advance(y, dy, ds):
        """One step from y, whose derivative is dy."""
        _derivative(dy)  # a deferred error raises before the step
        out = step(law, fall, ds, y, dy, k)
        traj.rhs_evals += calls
        return out

    def accept(y, s, pair, renormalize=False):
        """Record an accepted state from its ``_rhs`` pair; returns the state
        (rescaled if asked) and its derivative."""
        dy, n2 = pair
        if renormalize:
            y = y[:4] + _unit(y[4:], n2, y[:4])
            dy, n2 = rhs(y)
        traj.s.append(s)
        traj.y.extend(y)
        traj.norm_residuals.append(abs(n2 - 1.0))
        return y, dy

    try:
        # fd mode, or a model without a generated law: a law that always declines
        law = (_generate_rhs(model) if mode == "dual" else None) or (lambda *point: None)
        dy = _derivative(rhs(y)[0])
        if config.method == "rk4":
            every = config.renormalize_every
            for n in range(config.steps):
                y, _, pair = advance(y, dy, config.ds)
                s += config.ds
                y, dy = accept(y, s, pair, every and (n + 1) % every == 0)
        else:
            span = config.ds * config.steps
            s_end = s + span
            ds = config.ds
            atol, rtol = 1e-12, 1e-10
            attempts = 0
            # the end margin scales with a span below 1, so a short one is stepped
            while s < s_end - 1e-15 * min(1.0, span):
                if attempts > 20 * config.steps:  # a result: the trajectory ends here
                    traj.budget_exhausted, traj.exit_message = True, (
                        f"adaptive integrator exceeded its budget of {20 * config.steps} "
                        f"attempts at s = {s!r}")
                    break
                ds = min(ds, s_end - s)
                y_new, err, last = advance(y, dy, ds)
                tol = atol + rtol * max(map(abs, y))
                if err <= tol:
                    s += ds
                    y, dy = accept(y_new, s, last)
                else:
                    traj.rejected_steps += 1
                safety = 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
                ds = ds * min(4.0, max(0.2, safety))
                attempts += 1
    except (DomainError, EvalError, MetricError) as err:
        traj.exited, traj.exit_message = True, str(err)
    traj.s, traj.y = np.frombuffer(traj.s), np.frombuffer(traj.y).reshape(-1, 8)
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
            raise EvalError(f"dust field {f.name!r} at {points_text(X)}: {err}") from None

    n = len(X)
    r0 = one(dust.rho0)
    V = np.empty((n, 4))
    dV = np.empty((n, 4, 4))
    for m, f in enumerate(dust.V_fields):
        jv = one(f)
        V[:, m] = jv.value
        dV[:, :, m] = jv.grad.T
    return np.broadcast_to(r0.value, (n,)), np.broadcast_to(r0.grad.T, (n, 4)), V, dV
