"""Verification suites, residual aggregation, and machine-readable reports.

A suite is a named bundle of checks.  Every row of the check table runs on
one runner: its point set is evaluated in chunks, each chunk as one
geometry snapshot (the dust exchange among them), or, for the gauge rows,
as one (unshifted, shifted) snapshot pair per gauge function sharing one
unshifted snapshot, or, for the worldline rows, as the model's closed-form
worldline, integrated once; the residuals, one per point or per worldline
state, reduce to a deterministic maximum.  The rows are pointwise in the
fields, so points of a set that agree on every coordinate those fields read
(an orbit) give the same residuals: each orbit is evaluated once, at its
first point, and counts for all of its points.  A row that raises on a
chunk is re-run on each of its points as a batch of one, so its note names
the point a point-by-point run names, and the other rows still run.  The
JSON report uses fixed float formatting so repeated runs are byte-identical.
"""

from __future__ import annotations

import functools
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
from .checks import CHECK_DEFS, GaugePair, default_tolerance, suite_of
from .dynamics import IntegratorConfig, WorldlineState, integrate_worldline, normalize_velocity
from .engine import GeometrySnapshot
from .errors import GeometryError, _quiet_float_errors, batch_then_rows, point_text
from .fields import axes_of
from .gauge import as_phi_field, peak, transform_potential

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
        # no residual meets a negative tolerance; 0 stays valid
        bad = {cid: tol for cid, tol in self.tol_overrides.items()
               if not (math.isfinite(tol) and tol >= 0.0)}
        if bad:
            raise GeometryError(f"tolerance overrides must be finite and non-negative: {bad}")
        axes = dict(model.grid_axes)
        for name, values in (grid_overrides or {}).items():
            if name not in axes:
                raise GeometryError(f"unknown grid coordinate {name!r}")
            axes[name] = tuple(float(v) for v in values)
            if not all(map(math.isfinite, axes[name])):
                raise GeometryError(f"grid values of {name!r} must be finite: {axes[name]}")
        ordered = [axes[n] for n in model.chart.names]
        self.grid = np.array(list(itertools.product(*ordered)), dtype=float)
        if len(self.grid) == 0:
            raise GeometryError("the grid has no points; every axis needs at least one value")
        # Gauge functions are parsed once, here, so a bad one is a usage
        # error rather than a failed check; the orbit check composes the
        # first two and compares with their sum.
        c0, c1 = model.chart.names[:2]
        sources = list(phis or (f"0.2*{c0}", f"0.1*{c0}*{c1}", f"sin({c0})"))
        self.phi_fields = [as_phi_field(model, src) for src in sources]
        self.orbit_phi = (as_phi_field(model, f"({sources[0]}) + ({sources[1]})")
                          if len(sources) >= 2 else None)
        self._random = None

    def points(self, group):
        if group == "grid":
            return self.grid
        if group == "small":
            n = len(self.grid)
            stride = max(1, n // 12)
            return self.grid[::stride][:12]
        if group == "gauge":
            return self.points("small")[:8]
        if group == "orbit":
            return self.points("small")[:2]
        if group == "worldline":  # one subject: the worldline, whose rows count its states
            return self.grid[:1]
        if group == "random":
            return self.random_points()
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
                pts.extend(block[self.model._in_domain_rows(block)])
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
    """A report row; an informational check carries its table note."""
    row = CHECK_DEFS[check_id]
    note = note or row.note
    tol = ctx.tolerance(check_id)
    passed = residual is not None and (tol is None or residual <= tol)
    return CheckResult(check_id, row.anchor, int(npoints), residual, tol, passed, note)


# Points per chunk snapshot.  A chunk's snapshot holds every member it has
# computed, about two dozen 4-index arrays of CHUNK * 4**4 doubles, until its
# last check ran: at 40 points the peak RSS of a catalog-sweep pass matched
# a point-by-point run, at 60 it rose by 0.5 MiB and at 64 by more, while the
# median verdict time was the same at 40 as at 60 (32 points and fewer cost
# 10-30% more time per point on the 512-point grids).
CHUNK = 40


class _Worst:
    """One check's running maximum residual, residual count and first error."""

    __slots__ = ("value", "points", "note")

    def __init__(self):
        self.value = 0.0
        self.points = 0
        self.note = None

    def add(self, residuals):
        self.value = max(self.value, peak(residuals))  # skipping NaN

    def fail(self, err):
        self.note = self.note or f"{type(err).__name__}: {err}"


def _pointwise_rows(ctx, suite):
    """(check id, row) for every check that a suite runs on the context's
    model, in table order.  A row with a claim runs only on a model that
    sets it, but ``--suite einstein`` runs ``einstein.residual`` on any
    model; the orbit runs only with two gauge functions to compose."""
    meta = ctx.model.meta
    return [(cid, row) for cid, row in CHECK_DEFS.items()
            if suite in ("all", suite_of(cid))
            and (row.claim is None or meta.get(row.claim) or suite == "einstein")
            and (row.group != "orbit" or ctx.orbit_phi is not None)]


def _run_pointwise(ctx, rows):
    """rows: ordered (check id, CHECK_DEFS row) pairs.

    Each point set is evaluated in chunks of at most CHUNK points
    (``_chunks``), one set of subjects (``_subjects``) per chunk, whose
    field jets are computed once at the highest order its checks need.  A
    check that raises on a subject is re-run on each of its points as a
    batch of one, so every error is attributed to the first point that meets
    it, exactly as a point-by-point evaluation would.  A row's point count
    is one per point of the set and subject (a gauge row has one subject
    per gauge function), or one per state of a worldline.
    """
    worst = {cid: _Worst() for cid, _row in rows}
    for point_set in ("grid", "random", "small", "worldline", "gauge", "orbit"):
        # a point group is a point set, or two joined by "+"
        checks = [(cid, row) for cid, row in rows if point_set in row.group.split("+")]
        if not checks:
            continue
        pts = ctx.points(point_set)
        top = max(row.order for _cid, row in checks)
        for idx, count in _chunks(ctx, point_set, pts):
            _run_chunk(ctx, point_set, pts[idx], count, checks, top, worst)
    return [(cid, None if w.note else w.value, w.points, w.note) for cid, w in worst.items()]


def _read_axes(ctx, point_set):
    """The chart indices that the subjects of a point set read: those of
    every field the model holds (metric, potential, domain and dust), and,
    for the gauge rows, of the gauge functions."""
    model, dust = ctx.model, ctx.model.dust
    held = [*itertools.chain.from_iterable(model.g_fields), *model.A_fields, model.domain]
    if dust is not None:
        held += [dust.rho0, dust.rhoq, *dust.V_fields]
    if point_set in ("gauge", "orbit"):
        held += [*ctx.phi_fields, ctx.orbit_phi]
    return sorted(frozenset().union(*(axes_of(f) for f in held if f is not None)))


def _orbits(pts, axes):
    """The index of the first point of each orbit of pts, in order, and the
    orbit's size.  An orbit holds the points with the same bits on every
    axis in ``axes``."""
    if len(axes) == pts.shape[1]:
        return np.arange(len(pts)), np.ones(len(pts), dtype=int)
    key = np.ascontiguousarray(pts[:, axes]).view(np.int64)
    _, first, counts = np.unique(key, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order]


def _chunks(ctx, point_set, pts):
    """(indices into pts, points counted) for each chunk of a point set.

    The rows are pointwise in what the subjects read, so points that agree
    on those axes (``_read_axes``) give the same residual bits: each orbit
    runs at its first point and counts for all of them.  The random points
    and the worldline run as they are; a worldline counts its states.
    """
    if point_set in ("random", "worldline"):
        for start in range(0, len(pts), CHUNK):
            yield slice(start, start + CHUNK), None
        return
    first, counts = _orbits(pts, _read_axes(ctx, point_set))
    for start in range(0, len(first), CHUNK):
        yield first[start:start + CHUNK], int(counts[start:start + CHUNK].sum())


def _subjects(ctx, point_set, pts, order):
    """What the rows of a point set read over the points pts, with the field
    jets evaluated at ``order``: one snapshot, or, for the gauge rows, one
    ``GaugePair`` per gauge function, all sharing one unshifted snapshot, or
    the orbit's one pair, or the model's closed-form worldline."""

    def snap(model, top=order):
        s = GeometrySnapshot(model, pts, ctx.mode)
        if top:
            s.preload(top)
        return s

    if point_set == "gauge":
        old = snap(ctx.model)
        # a shifted potential's jets stop at order 2: its n-th derivatives
        # read phi's derivatives of order n + 1
        return [GaugePair(old, snap(transform_potential(ctx.model, phi), min(order, 2)), phi)
                for phi in ctx.phi_fields]
    if point_set == "orbit":
        twice = functools.reduce(transform_potential, ctx.phi_fields[:2], ctx.model)
        once = transform_potential(ctx.model, ctx.orbit_phi)
        return [GaugePair(snap(twice), snap(once), ctx.orbit_phi)]
    if point_set == "worldline":
        return [_ScenarioWorldline(ctx.model, ctx.mode)]
    return [snap(ctx.model)]


class _ScenarioWorldline:
    """The model's closed-form worldline as a ``checks.Worldline``, integrated on the
    first read of ``traj`` or ``k``, so that a raising start fails the rows that read it."""

    def __init__(self, model, mode):
        self.model, self.mode = model, mode

    @functools.cached_property
    def _run(self):
        x0, V0, k, ds, steps = self.model.meta["scenario"].start(self.model)
        init, cfg = WorldlineState(x0, V0, 0.0), IntegratorConfig(ds=ds, steps=steps)
        return integrate_worldline(self.model, init, k, cfg, self.mode), k

    traj = property(lambda self: self._run[0])
    k = property(lambda self: self._run[1])


def _run_chunk(ctx, point_set, chunk, count, checks, order, worst):
    """Every check on the chunk's subjects; each adds ``count`` points, or
    one per residual when ``count`` is None."""
    subjects = _subjects(ctx, point_set, chunk, order)

    @functools.cache
    def row(i):  # the subjects at point i as batches of one, built on first use
        return _subjects(ctx, point_set, chunk[i:i + 1], 0)

    def on_row(fn, k, i, w):
        try:
            return fn(row(i)[k])
        except GeometryError as err:
            w.fail(err)
            return np.nan

    for cid, check in checks:
        fn, w = check.residual, worst[cid]
        for k, subject in enumerate(subjects):
            results = batch_then_rows(lambda: [fn(subject)], range(len(chunk)),
                                      lambda i: on_row(fn, k, i, w))
            for residuals in results:
                w.add(residuals)
            w.points += sum(map(np.size, results)) if count is None else count


@_quiet_float_errors
def run_suite(suite, model, mode="dual", grid_overrides=None,
              tol_overrides=None, phis=None, include_timing=False):
    """Execute a named suite and assemble the verification report."""
    if suite not in SUITES:
        raise GeometryError(f"unknown suite {suite!r}; available: {', '.join(SUITES)}")
    t0 = time.monotonic()
    ctx = SuiteContext(model, mode=mode, grid_overrides=grid_overrides,
                       tol_overrides=tol_overrides, phis=phis)
    checks = [_make_result(ctx, *r) for r in _run_pointwise(ctx, _pointwise_rows(ctx, suite))]

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
    if save_every < 1:
        raise GeometryError(f"save_every must be at least 1, got {save_every!r}")
    if not np.isfinite([*x0, *v_raw, charge_ratio]).all():
        raise GeometryError(f"worldline start is not finite: x0 {point_text(x0)}, "
                            f"v0 {point_text(v_raw)}, charge ratio {float(charge_ratio)!r}")
    model.require_in_domain(x0[None])  # normalize_velocity tests no domain
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
        "rhs_evals": traj.rhs_evals,
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
