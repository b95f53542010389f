"""Verification suites, residual aggregation, and machine-readable reports.

A suite is a named bundle of checks.  Pointwise checks share one geometry
snapshot per grid point and reduce to a deterministic maximum residual;
scenario checks (worldline runs, gauge sweeps) run once.  The JSON report
uses fixed float formatting so repeated runs are byte-identical.
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
from .engine import GeometrySnapshot
from .errors import GeometryError
from .fields import finite_difference_derivatives
from .gauge import (
    CHANGED_CHECKS,
    INVARIANT_CHECKS,
    as_phi_field,
    contorsion_shift,
    gauge_invariance_suite,
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
    G = 1.0 if G is None else G
    c = 1.0 if c is None else c
    if spec in CATALOG_NAMES + FIXTURE_NAMES:
        return catalog_get(spec, params, G=G, c=c)
    if os.path.exists(spec):
        return load_spacetime_file(spec, param_overrides=params)
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
        self.phis = phis
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
        if self._random is None:
            seed = zlib.crc32(self.model.name.encode()) ^ _RNG_SALT
            rng = np.random.default_rng(seed)
            box = self.model.sample_box()
            lo = np.array([box[c][0] for c in self.model.chart.names])
            hi = np.array([box[c][1] for c in self.model.chart.names])
            pts = []
            attempts = 0
            while len(pts) < n and attempts < 100 * n:
                p = lo + (hi - lo) * rng.random(4)
                attempts += 1
                if self.model.in_domain(p):
                    pts.append(p)
            if len(pts) < n:
                raise GeometryError(
                    f"could not sample {n} points inside the domain of {self.model.name!r}"
                )
            self._random = np.array(pts)
        return self._random

    def tolerance(self, check_id):
        if check_id in self.tol_overrides:
            return self.tol_overrides[check_id]
        return default_tolerance(check_id, self.mode)

    def default_phis(self):
        if self.phis:
            return list(self.phis)
        c0, c1 = self.model.chart.names[0], self.model.chart.names[1]
        return [f"0.2*{c0}", f"0.1*{c0}*{c1}", f"sin({c0})"]


def _make_result(ctx, check_id, residual, npoints, note=None):
    anchor = CHECK_DEFS[check_id][0]
    tol = ctx.tolerance(check_id)
    if residual is None:
        passed = False
    else:
        residual = float(residual)
        passed = tol is None or residual <= tol
    return CheckResult(check_id, anchor, int(npoints), residual, tol, passed, note)


def _run_pointwise(ctx, plans):
    """plans: ordered list of (check_id, point group, fn(snapshot) -> float)."""
    by_group = {}
    for cid, grp, fn in plans:
        by_group.setdefault(grp, []).append((cid, fn))

    results = {}
    for grp, checks in by_group.items():
        pts = ctx.points(grp)
        rows = []
        for p in pts:
            row = {}
            snap = GeometrySnapshot(ctx.model, p, ctx.mode)
            for cid, fn in checks:
                try:
                    row[cid] = (float(fn(snap)), None)
                except GeometryError as err:
                    row[cid] = (None, f"{type(err).__name__}: {err}")
            rows.append(row)
        for cid, _fn in checks:
            worst, note, failed = 0.0, None, False
            for row in rows:
                value, err = row[cid]
                if err is not None:
                    failed = True
                    note = note or err
                else:
                    worst = max(worst, value)
            results[cid] = (None if failed else worst, len(pts), note)
    return [(cid, *results[cid]) for cid, _g, _f in plans]


# -- pointwise check functions -------------------------------------------------


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
        scale = 1.0 + abs(jv.value)
        worst = max(
            worst,
            float(np.abs(grad - jv.grad).max()) / scale,
            float(np.abs(hess - jv.hess).max()) / scale,
        )
    return worst


def _torsion_roundtrip(snap):
    K = snap.K_mix
    T = K - K.transpose(1, 0, 2)
    gi, g = snap.ginv, snap.g
    rebuilt = 0.5 * (
        T
        - np.einsum("lb,nr,mlr->mnb", gi, g, T)
        - np.einsum("lb,mr,nlr->mnb", gi, g, T)
    )
    return float(np.abs(rebuilt - K).max())


def _scalar_split_residual(snap):
    R, R_bar, em, coupling, R_traced = snap.scalar_split()
    target = R_bar + em + coupling
    return max(abs(R - target), abs(R_traced - target))


def _source_density_residual(snap):
    model = snap.model
    expected = snap.c_light * model.params[model.meta["charge_density_param"]]
    J = snap.J_up
    return max(abs(float(J[0]) - expected), float(np.abs(J[1:]).max()))


def _energy_density_residual(snap):
    t00 = float(snap.T_em_dd[0, 0]) / float(snap.g[0, 0])
    return max(0.0, -t00)


def _suite_plans(ctx, suite):
    model = ctx.model
    meta = model.meta
    plans = []
    if suite in ("metric", "all"):
        plans += [
            ("metric.inverse", "grid",
             lambda s: float(np.abs(s.metric.inverse @ s.metric.matrix - np.eye(4)).max())),
            ("metric.signature", "grid", lambda s: 0.0 if s.metric else 1.0),
            ("fields.dual_vs_fd", "small", _dual_vs_fd),
        ]
    if suite in ("lc", "all"):
        plans += [
            ("lc.christoffel_symmetry", "grid",
             lambda s: float(np.abs(s.gamma_lc - s.gamma_lc.transpose(1, 0, 2)).max())),
            ("lc.metric_compatibility", "grid",
             lambda s: s.metric_compatibility_residual("lc")),
            ("lc.riemann_antisymmetry", "grid",
             lambda s: float(np.abs(s.riemann_lc + s.riemann_lc.transpose(1, 0, 2, 3)).max())),
            ("lc.ricci_symmetry", "grid",
             lambda s: float(np.abs(s.ricci_lc - s.ricci_lc.T).max())),
            ("lc.bianchi", "small", lambda s: s.bianchi_residual()),
            ("lc.divergence_forms", "grid",
             lambda s: float(np.abs(s.lc_div_F_det - s.lc_div_F_gamma).max())),
        ]
    if suite in ("maxwell", "all"):
        plans += [
            ("em.homogeneous", "grid", lambda s: s.homogeneous_residual()),
        ]
        if meta.get("source_free"):
            plans.append(("em.source_free", "grid",
                          lambda s: float(np.abs(s.J_up).max())))
        if "charge_density_param" in meta:
            plans.append(("em.source_density", "grid", _source_density_residual))
        plans += [
            ("em.current_conservation", "small",
             lambda s: s.current_conservation_residual()),
            ("em.divergence_rc_lc", "grid",
             lambda s: float(np.abs(s.rc_div_F - s.lc_div_F_det).max())),
            ("em.stress_trace", "grid",
             lambda s: abs(float(np.einsum("mn,mn->", s.ginv, s.T_em_dd)))),
            ("em.stress_symmetry", "grid",
             lambda s: float(np.abs(s.T_em_dd - s.T_em_dd.T).max())),
            ("em.stress_conservation", "grid", lambda s: s.stress_exchange_residual()),
        ]
        if meta.get("diag_static"):
            plans.append(("em.energy_density", "grid", _energy_density_residual))
    if suite in ("rc", "all"):
        plans += [
            ("rc.additivity", "grid",
             lambda s: float(np.abs(s.gamma_full - s.gamma_lc - s.K_mix).max())),
            ("rc.contorsion_antisymmetry", "grid",
             lambda s: float(np.abs(s.K_down + s.K_down.transpose(0, 2, 1)).max())),
            ("rc.torsion_roundtrip", "grid", _torsion_roundtrip),
            ("rc.metric_compatibility", "grid",
             lambda s: s.metric_compatibility_residual("rc")),
            ("rc.k_f_pair", "grid+random", lambda s: s.pair_residual_F()),
            ("rc.quadratic_pair", "grid+random", lambda s: s.quadratic_pair_residual()),
            ("rc.stress_pair", "grid+random", lambda s: s.pair_residual_T()),
            ("rc.decomposition", "grid", lambda s: s.decomposition_residual()),
            ("rc.scalar_split", "grid", _scalar_split_residual),
        ]
    if suite == "einstein" or (suite == "all" and meta.get("einstein_exact")):
        eight_pi_c = 8.0 * np.pi * model.constants.coupling
        plans.append(
            ("einstein.residual", "grid",
             lambda s: float(np.abs(s.einstein_lc_dd - eight_pi_c * s.T_em_dd).max()))
        )
    if suite in ("dynamics", "all"):
        plans.append(("dyn.transport_identity", "small", _transport_identity))
    return plans


def _transport_identity(snap):
    state = WorldlineState(snap.x, probe_velocity(snap), 0.0)
    return rc_transport_residual(snap.model, state, 0.7, snap.mode)


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
    model = ctx.model
    phis = ctx.default_phis()
    pts = ctx.points("small")[:8]
    n_shift = min(4, len(pts))

    worst = {"gauge.contorsion_shift": 0.0, "gauge.scalar_shift": 0.0}
    for phi_src in phis:
        phi = as_phi_field(model, phi_src)
        rep = gauge_invariance_suite(model, phi, points=pts, mode=ctx.mode)
        deltas = {**rep.invariant_deltas, **rep.changed_deltas}
        for key, cid in {**INVARIANT_CHECKS, **CHANGED_CHECKS}.items():
            worst[cid] = max(worst.get(cid, 0.0), deltas[key])
        for i, (old, new) in enumerate(rep.pairs):
            worst["gauge.contorsion_shift"] = max(
                worst["gauge.contorsion_shift"], contorsion_shift(old, new, phi))
            if i < n_shift:
                worst["gauge.scalar_shift"] = max(
                    worst["gauge.scalar_shift"], scalar_shift(old, new, phi))

    # composing two shifts must match the single combined shift
    orbit = None
    if len(phis) >= 2:
        phi1, phi2 = phis[0], phis[1]
        combined = f"({phi1}) + ({phi2})"
        orbit = 0.0
        twice = transform_potential(transform_potential(model, phi1), phi2)
        once = transform_potential(model, combined)
        for p in pts[:2]:
            s2 = GeometrySnapshot(twice, p, ctx.mode)
            s1 = GeometrySnapshot(once, p, ctx.mode)
            orbit = max(
                orbit,
                float(np.abs(s2.K_mix - s1.K_mix).max()),
                float(np.abs(s2.F_dd - s1.F_dd).max()),
                abs(s2.scalar_rc - s1.scalar_rc),
            )

    out = []
    for cid, value in worst.items():
        n = n_shift if cid == "gauge.scalar_shift" else len(pts)
        note = None if CHECK_DEFS[cid][1] is not None else (
            "informational: nonzero evidences the expected non-invariance")
        out.append((cid, value, n * len(phis), note))
    if orbit is not None:
        out.append(("gauge.orbit", orbit, 2, None))
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
