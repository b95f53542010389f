"""Verification suites, residual aggregation, and machine-readable reports.

A suite is a named bundle of checks.  Pointwise checks share one batched
geometry snapshot per chunk of points and reduce to a deterministic maximum
residual.  Scenario checks run once: worldlines and the dust exchange one
point at a time, the gauge sweep as one (unshifted, shifted) batched
snapshot pair per gauge function.  The JSON report uses fixed float
formatting so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import __version__
from .catalog import CATALOG_NAMES, FIXTURE_NAMES, catalog_get, load_spacetime_file
from .checks import CHECK_DEFS, default_tolerance
from .dynamics import (
    IntegratorConfig,
    WorldlineState,
    dust_from_sources,
    exchange_identities,
    integrate_worldline,
    normalize_velocity,
    probe_velocity,
    rc_transport_residual,
)
from .engine import GeometrySnapshot, batched_einsum, max_abs
from .errors import GeometryError
from .fields import finite_difference_derivatives
from .gauge import (
    CHANGED_CHECKS,
    INVARIANT_CHECKS,
    as_phi_field,
    contorsion_shift,
    gauge_invariance_suite,
    peak,
    scalar_shift,
    transform_potential,
)

SUITES = ("metric", "lc", "rc", "maxwell", "einstein", "dynamics", "gauge", "all")

_RNG_SALT = 20250808


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    grid_points: int
    max_residual: float | None
    tolerance: float | None
    passed: bool
    note: str | None = None


@dataclass
class VerificationReport:
    spacetime: str
    suite: str
    constants: dict
    diff_mode: str
    checks: list
    wall_ms: float | None = None
    schema: int = 1
    artifact_version: str = __version__

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        body = {
            "schema": self.schema,
            "artifact_version": self.artifact_version,
            "spacetime": self.spacetime,
            "suite": self.suite,
            "constants": self.constants,
            "diff_mode": self.diff_mode,
            "checks": [
                {
                    "id": c.check_id,
                    "paper_anchor": c.anchor,
                    "grid_points": c.grid_points,
                    "max_residual": c.max_residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    **({"note": c.note} if c.note else {}),
                }
                for c in self.checks
            ],
        }
        if self.wall_ms is not None:
            body["wall_ms"] = self.wall_ms
        return canonical_json(body)


def canonical_json(obj):
    """Deterministic JSON: insertion order, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            return "null"
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# -- models and suite machinery ------------------------------------------------


def resolve_model(spec, params=None, G=None, c=None):
    """Model from a catalog or fixture name, or a definition file."""
    params = dict(params or {})
    if spec in CATALOG_NAMES + FIXTURE_NAMES:
        return catalog_get(spec, params, G=1.0 if G is None else G, c=1.0 if c is None else c)
    if os.path.exists(spec):
        consts = {k: v for k, v in (("G", G), ("c", c)) if v is not None}
        return load_spacetime_file(spec, param_overrides={**params, **consts})
    raise GeometryError(
        f"unknown spacetime {spec!r}: not a catalog name, not a file"
    )


class SuiteContext:
    def __init__(self, model, mode="dual", grid_overrides=None,
                 tol_overrides=None, phis=None):
        self.model = model
        self.mode = mode
        self.tol_overrides = dict(tol_overrides or {})
        unknown = sorted(set(self.tol_overrides) - set(CHECK_DEFS))
        if unknown:
            raise GeometryError(
                f"unknown check id in tolerance overrides: {', '.join(unknown)}; "
                f"valid ids: {', '.join(CHECK_DEFS)}"
            )
        axes = dict(model.grid_axes)
        for name, values in (grid_overrides or {}).items():
            if name not in axes:
                raise GeometryError(f"unknown grid coordinate {name!r}")
            axes[name] = tuple(float(v) for v in values)
        ordered = [axes[n] for n in model.chart.names]
        self.grid = np.array(list(itertools.product(*ordered)), dtype=float)
        if len(self.grid) == 0:
            raise GeometryError("the grid has no points; every axis needs at least one value")
        # Gauge functions are parsed once, here, so a bad one is a usage
        # error rather than a failed check; the orbit check composes the
        # first two and compares with their sum.
        if phis:
            sources = list(phis)
        else:
            c0, c1 = model.chart.names[0], model.chart.names[1]
            sources = [f"0.2*{c0}", f"0.1*{c0}*{c1}", f"sin({c0})"]
        self.phi_fields = [as_phi_field(model, src) for src in sources]
        self.orbit_phi = (
            as_phi_field(model, f"({sources[0]}) + ({sources[1]})") if len(sources) >= 2 else None
        )
        self._random = None

    def points(self, group):
        if group == "grid":
            return self.grid
        if group == "small":
            n = len(self.grid)
            stride = max(1, n // 12)
            return self.grid[::stride][:12]
        if group == "random":
            return self.random_points()
        if group == "grid+random":
            return np.concatenate([self.grid, self.random_points()], axis=0)
        raise ValueError(f"unknown point group {group!r}")

    def random_points(self, n=100):
        """The first n draws inside the domain, out of at most 100 * n.

        Candidates are drawn in blocks, ``rng.random((k, 4))`` being the
        stream of k successive ``rng.random(4)`` draws, and each block is
        domain-tested in one batch.
        """
        if self._random is None:
            seed = zlib.crc32(self.model.name.encode()) ^ _RNG_SALT
            rng = np.random.default_rng(seed)
            box = self.model.sample_box()
            lo = np.array([box[c][0] for c in self.model.chart.names])
            hi = np.array([box[c][1] for c in self.model.chart.names])
            pts = []
            attempts = 0
            while len(pts) < n and attempts < 100 * n:
                k = min(n, 100 * n - attempts)
                block = lo + (hi - lo) * rng.random((k, 4))
                attempts += k
                pts.extend(block[np.array(self.model._in_domain_rows(block), dtype=bool)])
            if len(pts) < n:
                raise GeometryError(
                    f"could not sample {n} points inside the domain of {self.model.name!r}"
                )
            self._random = np.array(pts[:n])
        return self._random

    def tolerance(self, check_id):
        if check_id in self.tol_overrides:
            return self.tol_overrides[check_id]
        return default_tolerance(check_id, self.mode)


def _make_result(ctx, check_id, residual, npoints, note=None):
    anchor = CHECK_DEFS[check_id][0]
    tol = ctx.tolerance(check_id)
    if residual is None:
        passed = False
    else:
        residual = float(residual)
        passed = tol is None or residual <= tol
    return CheckResult(check_id, anchor, int(npoints), residual, tol, passed, note)


# Points per batched snapshot.  A chunk's snapshot holds every member it has
# computed, about two dozen 4-index arrays of CHUNK * 4**4 doubles, until its
# last check ran: at 40 points the peak RSS of a catalog-sweep pass matched
# the one-point engine, at 60 it rose by 0.5 MiB and at 64 by more, while the
# median verdict time was the same at 40 as at 60 (32 points and fewer cost
# 10-30% more time per point on the 512-point grids).
CHUNK = 40

# point group -> the point sets it covers, in report order
_POINT_SETS = {
    "grid": ("grid",),
    "small": ("small",),
    "random": ("random",),
    "grid+random": ("grid", "random"),
}


class _Worst:
    """Running maximum of one check's per-point residuals, and its first error."""

    __slots__ = ("value", "note")

    def __init__(self):
        self.value = 0.0
        self.note = None

    def add(self, residuals):
        # NaN residuals are skipped, as a running max(worst, value) skips them
        self.value = max(self.value, float(np.fmax.reduce(np.ravel(residuals))))

    def fail(self, err):
        self.note = self.note or f"{type(err).__name__}: {err}"


def _run_pointwise(ctx, plans):
    """plans: ordered list of (check_id, point group, jet order, fn), where
    fn(snapshot) gives the residual at every point of the snapshot.

    Each point set is evaluated in chunks of CHUNK points, one batched
    snapshot per chunk, whose field jets are computed once at the highest
    order its checks need.  A check that raises on a chunk is re-run point
    by point on that chunk, so every error is attributed to the first point
    that meets it, exactly as a one-point evaluation would.
    """
    worst = {cid: _Worst() for cid, _g, _o, _f in plans}
    for point_set in ("grid", "random", "small"):
        checks = [(cid, order, fn) for cid, grp, order, fn in plans
                  if point_set in _POINT_SETS[grp]]
        if not checks:
            continue
        pts = ctx.points(point_set)
        top = max(order for _c, order, _f in checks)
        for start in range(0, len(pts), CHUNK):
            _run_chunk(ctx, pts[start:start + CHUNK], checks, top, worst)
    return [(cid, None if worst[cid].note else worst[cid].value,
             len(ctx.points(grp)), worst[cid].note) for cid, grp, _o, _f in plans]


def _run_chunk(ctx, chunk, checks, order, worst):
    snap = GeometrySnapshot(ctx.model, chunk, ctx.mode)
    if order:
        snap.preload(order)
    singles = None
    for cid, _order, fn in checks:
        try:
            worst[cid].add(fn(snap))
            continue
        except GeometryError:
            pass
        if singles is None:
            singles = [GeometrySnapshot(ctx.model, p, ctx.mode) for p in chunk]
        for one in singles:
            try:
                worst[cid].add(fn(one))
            except GeometryError as err:
                worst[cid].fail(err)


# -- pointwise check functions -------------------------------------------------
# Each takes a snapshot and returns its residual at every point: a float at
# one point, an (N,) array over a batch.


def _iter_fields(model):
    for i in range(4):
        for j in range(i, 4):
            yield model.g_fields[i][j]
    yield from model.A_fields


def _dual_vs_fd(snap):
    worst = 0.0
    for f in _iter_fields(snap.model):
        jv = f.jet(snap.x, 2)
        grad, hess = finite_difference_derivatives(f, snap.x)
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
    batched = K.ndim == 4
    ein = batched_einsum if batched else np.einsum
    T = K - np.swapaxes(K, -3, -2)
    gi, g = snap.ginv, snap.g
    rebuilt = 0.5 * (
        T
        - ein("lb,nr,mlr->mnb", gi, g, T)
        - ein("lb,mr,nlr->mnb", gi, g, T)
    )
    return max_abs(rebuilt - K, batched)


def _scalar_split_residual(snap):
    R, R_bar, em, coupling, R_traced = snap.scalar_split()
    target = R_bar + em + coupling
    return np.maximum(np.abs(R - target), np.abs(R_traced - target))


def _source_density_residual(snap):
    model = snap.model
    expected = snap.c_light * model.params[model.meta["charge_density_param"]]
    J = snap.J_up
    return np.maximum(np.abs(J[..., 0] - expected), np.abs(J[..., 1:]).max(axis=-1))


def _energy_density_residual(snap):
    t00 = snap.T_em_dd[..., 0, 0] / snap.g[..., 0, 0]
    return np.maximum(0.0, -t00)


def _transport_identity(snap):
    """Residual of the transport identity with a probe velocity, evaluated
    with one-point snapshots (the worldline path) at every point."""
    if snap.batched:
        return np.array([_transport_identity(GeometrySnapshot(snap.model, x, snap.mode))
                         for x in snap.x])
    state = WorldlineState(snap.x, probe_velocity(snap), 0.0)
    return rc_transport_residual(snap.model, state, 0.7, snap.mode)


def _suite_plans(ctx, suite):
    """(check id, point group, jet order, fn) for every pointwise check of a
    suite; the order is what fn reads from the snapshot's own field jets
    (0: none, fn evaluates the fields itself)."""
    model = ctx.model
    meta = model.meta
    plans = []
    if suite in ("metric", "all"):
        plans += [
            ("metric.inverse", "grid", 1,
             lambda s: s.max_abs(s.metric.inverse @ s.metric.matrix - np.eye(4))),
            ("metric.signature", "grid", 1, lambda s: 0.0 if s.metric else 1.0),
            ("fields.dual_vs_fd", "small", 0, _dual_vs_fd),
        ]
    if suite in ("lc", "all"):
        plans += [
            ("lc.christoffel_symmetry", "grid", 1,
             lambda s: s.max_abs(s.gamma_lc - np.swapaxes(s.gamma_lc, -3, -2))),
            ("lc.metric_compatibility", "grid", 1,
             lambda s: s.metric_compatibility_residual("lc")),
            ("lc.riemann_antisymmetry", "grid", 2,
             lambda s: s.max_abs(s.riemann_lc + np.swapaxes(s.riemann_lc, -4, -3))),
            ("lc.ricci_symmetry", "grid", 2,
             lambda s: s.max_abs(s.ricci_lc - np.swapaxes(s.ricci_lc, -2, -1))),
            ("lc.bianchi", "small", 3, lambda s: s.bianchi_residual()),
            ("lc.divergence_forms", "grid", 2,
             lambda s: s.max_abs(s.lc_div_F_det - s.lc_div_F_gamma)),
        ]
    if suite in ("maxwell", "all"):
        plans += [
            ("em.homogeneous", "grid", 2, lambda s: s.homogeneous_residual()),
        ]
        if meta.get("source_free"):
            plans.append(("em.source_free", "grid", 2, lambda s: s.max_abs(s.J_up)))
        if "charge_density_param" in meta:
            plans.append(("em.source_density", "grid", 2, _source_density_residual))
        plans += [
            ("em.current_conservation", "small", 3,
             lambda s: s.current_conservation_residual()),
            ("em.divergence_rc_lc", "grid", 2,
             lambda s: s.max_abs(s.rc_div_F - s.lc_div_F_det)),
            ("em.stress_trace", "grid", 1,
             lambda s: np.abs(s.einsum("mn,mn->", s.ginv, s.T_em_dd))),
            ("em.stress_symmetry", "grid", 1,
             lambda s: s.max_abs(s.T_em_dd - np.swapaxes(s.T_em_dd, -2, -1))),
            ("em.stress_conservation", "grid", 2, lambda s: s.stress_exchange_residual()),
        ]
        if meta.get("diag_static"):
            plans.append(("em.energy_density", "grid", 1, _energy_density_residual))
    if suite in ("rc", "all"):
        plans += [
            ("rc.additivity", "grid", 1,
             lambda s: s.max_abs(s.gamma_full - s.gamma_lc - s.K_mix)),
            ("rc.contorsion_antisymmetry", "grid", 1,
             lambda s: s.max_abs(s.K_down + np.swapaxes(s.K_down, -2, -1))),
            ("rc.torsion_roundtrip", "grid", 1, _torsion_roundtrip),
            ("rc.metric_compatibility", "grid", 1,
             lambda s: s.metric_compatibility_residual("rc")),
            ("rc.k_f_pair", "grid+random", 1, lambda s: s.pair_residual_F()),
            ("rc.quadratic_pair", "grid+random", 1, lambda s: s.quadratic_pair_residual()),
            ("rc.stress_pair", "grid+random", 1, lambda s: s.pair_residual_T()),
            ("rc.decomposition", "grid", 2, lambda s: s.decomposition_residual()),
            ("rc.scalar_split", "grid", 2, _scalar_split_residual),
        ]
    if suite == "einstein" or (suite == "all" and meta.get("einstein_exact")):
        eight_pi_c = 8.0 * np.pi * model.constants.coupling
        plans.append(
            ("einstein.residual", "grid", 2,
             lambda s: s.max_abs(s.einstein_lc_dd - eight_pi_c * s.T_em_dd))
        )
    if suite in ("dynamics", "all"):
        plans.append(("dyn.transport_identity", "small", 0, _transport_identity))
    return plans


# -- scenario checks -----------------------------------------------------------


def _scenario_dynamics(ctx):
    model, meta = ctx.model, ctx.model.meta
    out = []

    scenario = meta.get("scenario")
    if scenario is not None:
        x0, V0, k, ds, steps = scenario.start(model.params)
        init = WorldlineState(np.array(x0), np.array(V0), 0.0)
        cfg = IntegratorConfig(ds=ds, steps=steps)
        traj = integrate_worldline(model, init, k, cfg, ctx.mode)
        n = len(traj.states)
        out.append(("dyn.closed_form", scenario.closed_form(model, traj, k), n, scenario.note))
        out.append(("dyn.norm_drift", traj.max_drift, n, None))

    if "dust" in meta:
        dust = dust_from_sources(model, *meta["dust"])
        pts = ctx.points("small")
        worst = {"pair": 0.0, "energy": 0.0, "flux": 0.0, "cons": 0.0}
        for p in pts:
            res = exchange_identities(model, p, dust, ctx.mode)
            worst["pair"] = max(worst["pair"], res.pair_cancellation)
            worst["energy"] = max(worst["energy"], res.energy_transfer)
            worst["flux"] = max(worst["flux"], res.rc_mass_flux)
            worst["cons"] = max(worst["cons"], res.matter_conservation)
        out.append(("dyn.exchange_pair", worst["pair"], len(pts), None))
        out.append(("dyn.exchange_energy", worst["energy"], len(pts), None))
        out.append(("dyn.exchange_mass_flux", worst["flux"], len(pts),
                    "informational: reported with the source sign as printed"))
        out.append(("dyn.exchange_conservation", worst["cons"], len(pts), None))
    return out


def _scenario_gauge(ctx):
    """Gauge rows over the first 8 small points, evaluated as one batch.

    A batch meets the errors of all its points at once, and its stencils
    visit them in another order; so on an error the scenario is re-run one
    point at a time, and fails (or passes) as a point-by-point run does.
    """
    pts = ctx.points("small")[:8]
    try:
        return _gauge_rows(ctx, pts, lambda X: [X])
    except GeometryError:
        return _gauge_rows(ctx, pts, list)


def _gauge_rows(ctx, pts, split):
    """split(points) -> the point sets evaluated together: [points], one
    batch, or list(points), one point at a time."""
    model, mode = ctx.model, ctx.mode
    n_shift = min(4, len(pts))
    # The unshifted side does not depend on phi: one snapshot per set, its
    # jets at order 3 for the scalar shift's current derivative.
    olds = [GeometrySnapshot(model, X, mode) for X in split(pts)]
    for old in olds:
        old.preload(3)

    worst = {"gauge.contorsion_shift": 0.0, "gauge.scalar_shift": 0.0}
    for phi in ctx.phi_fields:
        pairs = []
        for old in olds:
            rep = gauge_invariance_suite(model, phi, points=old.x, mode=mode, old=old)
            pairs.append(rep.pair)
            deltas = {**rep.invariant_deltas, **rep.changed_deltas}
            for key, cid in {**INVARIANT_CHECKS, **CHANGED_CHECKS}.items():
                worst[cid] = max(worst.get(cid, 0.0), deltas[key])
        for old, new in pairs:
            worst["gauge.contorsion_shift"] = max(
                worst["gauge.contorsion_shift"], peak(contorsion_shift(old, new, phi)))
        # the first n_shift points: the first n_shift one-point pairs, or
        # the first n_shift rows of the batch
        for old, new in pairs[:n_shift]:
            shift = np.ravel(scalar_shift(old, new, phi))[:n_shift]
            worst["gauge.scalar_shift"] = max(worst["gauge.scalar_shift"], peak(shift))

    # Composing two shifts must match the single combined shift.  The check
    # compares two curvatures equal up to roundoff, so its value is the
    # roundoff; batch rows of the curvature round differently from one-point
    # snapshots (on the Kerr-Newman models its dual value moved by 7e-18, over
    # 1e-6 of its 1e-12 tolerance), so it keeps one-point snapshots.
    orbit = None
    if ctx.orbit_phi is not None:
        phi1, phi2 = ctx.phi_fields[:2]
        twice = transform_potential(transform_potential(model, phi1), phi2)
        once = transform_potential(model, ctx.orbit_phi)
        orbit = 0.0
        for p in pts[:2]:
            s2 = GeometrySnapshot(twice, p, mode)
            s1 = GeometrySnapshot(once, p, mode)
            s2.preload(2)
            s1.preload(2)
            orbit = max(
                orbit,
                float(np.abs(s2.K_mix - s1.K_mix).max()),
                float(np.abs(s2.F_dd - s1.F_dd).max()),
                abs(s2.scalar_rc - s1.scalar_rc),
            )

    out = []
    n_phis = len(ctx.phi_fields)
    for cid, value in worst.items():
        n = n_shift if cid == "gauge.scalar_shift" else len(pts)
        note = None if CHECK_DEFS[cid][1] is not None else (
            "informational: nonzero evidences the expected non-invariance")
        out.append((cid, value, n * n_phis, note))
    if orbit is not None:
        out.append(("gauge.orbit", orbit, len(pts[:2]), None))
    return out


def run_suite(suite, model, mode="dual", grid_overrides=None,
              tol_overrides=None, phis=None, include_timing=False):
    """Execute a named suite and assemble the verification report."""
    if suite not in SUITES:
        raise GeometryError(f"unknown suite {suite!r}; available: {', '.join(SUITES)}")
    t0 = time.monotonic()
    ctx = SuiteContext(model, mode=mode, grid_overrides=grid_overrides,
                       tol_overrides=tol_overrides, phis=phis)

    checks = []
    plans = _suite_plans(ctx, suite)
    for cid, residual, npts, note in _run_pointwise(ctx, plans):
        checks.append(_make_result(ctx, cid, residual, npts, note))

    scenario_rows = []
    try:
        if suite in ("dynamics", "all"):
            scenario_rows += _scenario_dynamics(ctx)
        if suite in ("gauge", "all"):
            scenario_rows += _scenario_gauge(ctx)
    except GeometryError as err:
        checks.append(CheckResult(
            "scenario.error", "n/a", 0, None, None, False,
            f"{type(err).__name__}: {err}"))
    for cid, residual, npts, note in scenario_rows:
        checks.append(_make_result(ctx, cid, residual, npts, note))

    wall = (time.monotonic() - t0) * 1000.0 if include_timing else None
    consts = {
        "G": model.constants.G,
        "c": model.constants.c,
        "C": model.constants.coupling,
    }
    return VerificationReport(
        spacetime=model.name,
        suite=suite,
        constants=consts,
        diff_mode=mode,
        checks=checks,
        wall_ms=wall,
    )


# -- worldline runner -----------------------------------------------------------


def run_worldline(model, x0, v0, charge_ratio, ds, steps, method="rk4",
                  renormalize_every=0, save_every=1, mode="dual", out_csv=None):
    """Integrate one worldline, write the CSV, and return a summary dict."""
    x0 = np.asarray(x0, dtype=float)
    v_raw = np.asarray(v0, dtype=float)
    V0 = normalize_velocity(model, x0, v_raw)
    rescale = float(np.linalg.norm(V0) / max(np.linalg.norm(v_raw), 1e-300))

    cfg = IntegratorConfig(ds=ds, steps=steps, method=method,
                           renormalize_every=renormalize_every)
    init = WorldlineState(x0, V0, 0.0)
    traj = integrate_worldline(model, init, charge_ratio, cfg, mode)

    if out_csv is not None:
        with open(out_csv, "w", encoding="utf-8") as fh:
            fh.write("s,x0,x1,x2,x3,V0,V1,V2,V3,norm_residual\n")
            for i, st in enumerate(traj.states):
                if i % save_every and i != len(traj.states) - 1:
                    continue
                row = [st.s, *st.x, *st.V, traj.norm_residuals[i]]
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")

    final = traj.final()
    summary = {
        "spacetime": model.name,
        "charge_ratio": charge_ratio,
        "method": method,
        "steps_taken": len(traj.states) - 1,
        "rejected_steps": traj.rejected_steps,
        "initial_rescale_factor": rescale,
        "final_state": {
            "s": final.s,
            "x": list(final.x),
            "V": list(final.V),
        },
        "max_norm_drift": traj.max_drift,
        "domain_exit": traj.exited,
        **({"exit_message": traj.exit_message} if traj.exited else {}),
    }
    oracle = model.meta.get("oracle")
    summary["oracle"] = oracle and oracle.report(model, traj, charge_ratio)
    return summary, traj
