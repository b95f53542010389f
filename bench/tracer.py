"""In-memory tracer that attributes ``verify`` time and work to rcgeom's layers.

Nothing under ``src/`` is edited: ``Tracer.installed()`` replaces module
attributes and class members of the imported package with wrappers, and
puts the originals back on exit.  A name that another module imported with
``from .x import name`` is patched in both places.  An attribute that does
not exist (a later refactor removed it) is skipped, so the tracer never
breaks a run; its metrics then read 0.

Every wrapped call is a span.  A span's self time is its duration minus the
durations of the spans nested in it on the same thread, and is added to the
span's bucket (one bucket per per-layer time metric).  Time in helpers that
are not wrapped therefore counts toward the nearest wrapped caller.  Spans of
the coarse layers (cli, harness, catalog, gauge, dynamics, ``field_jets``,
``_fd_pipeline``) are also recorded as (id, parent id, verdict id, name,
start, end); the high-frequency ones (expression nodes, jet operators,
snapshot stages) are only summed, to keep memory bounded.

``harness._pmap`` may hand points to a thread pool (``--jobs``).  Each thread
keeps its own span stack and counters, merged when the run ends, so counts
stay exact.  The caller's wait for the pool goes to ``harness.pool_wait_s``;
span durations inside pool threads are wall time and include time spent
waiting for the interpreter lock, so with ``--jobs 2`` the per-layer times
of a run can add up to more than its wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

pc = time.perf_counter

# GeometrySnapshot members grouped into the engine stages.  Members not
# listed here are left unwrapped and count toward their caller.
ENGINE_STAGES = {
    "metric": "g metric det_g ginv sqrt_g dg ddg dginv ddginv dsqrt_g ddsqrt_g",
    "lc": "_sym_dg gamma_lc _dsym_dg dgamma_lc gamma_lc_trace riemann_lc ricci_lc "
          "scalar_lc einstein_lc_dd einstein_lc_uu metric_compatibility_residual",
    "lc3": "ddgamma_lc d_riemann_lc d_einstein_lc_uu bianchi_residual",
    "contorsion": "K_mix K_down dK_mix covd_K torsion_mix gamma_full gamma_full_trace "
                  "dgamma_full K_first_trace contorsion_trace_vector "
                  "d_contorsion_trace_vector pair_residual_F pair_residual_T",
    "rc_curvature": "riemann_rc quadratic_pair riemann_rc_decomposed ricci_rc scalar_rc "
                    "decomposition_residual quadratic_pair_residual",
    "em": "A dA F_dd dF_dd F_mix dF_mix F_uu dF_uu F2 dF2 lc_div_F_det lc_div_F_gamma "
          "rc_div_F J_up J_down T_em_dd dT_em_dd T_em_uu dT_em_uu chern_simons "
          "homogeneous_residual div_T_em",
    "em3": "ddF_dd ddF_uu dJ_up current_conservation_residual",
    "scalar_split": "scalar_rc_traced scalar_split",
}

JET_OPERATORS = (
    "__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "compose", "_reciprocal",
)

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "catalog.build_s": "s",
    "catalog.in_domain_calls": "count",
    "catalog.metric_values_calls": "count",
    "expr.parse_calls": "count",
    "expr.parse_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_nodes": "count",
    "expr.eval_s": "s",
    "jets.ops.o1": "count",
    "jets.ops.o2": "count",
    "jets.ops.o3": "count",
    "jets.s": "s",
    "fields.jet_calls.o1": "count",
    "fields.jet_calls.o2": "count",
    "fields.jet_calls.o3": "count",
    "fields.jet_s": "s",
    "fields.value_calls": "count",
    "fields.fd_s": "s",
    "fields.shifted_jet_calls": "count",
    "engine.snapshots": "count",
    "engine.snapshots_per_point": "ratio",
    "engine.field_jets_calls.o1": "count",
    "engine.field_jets_calls.o2": "count",
    "engine.field_jets_calls.o3": "count",
    "engine.field_jets_per_point": "ratio",
    "engine.field_jets_s": "s",
    **{f"engine.{stage}_s": "s" for stage in ENGINE_STAGES},
    "engine.fd_pipeline_s": "s",
    "engine.fd_pipeline_snapshots": "count",
    "dynamics.integrate_s": "s",
    "dynamics.steps": "count",
    "dynamics.rejected_steps": "count",
    "dynamics.rhs_evals": "count",
    "dynamics.rhs_per_step": "ratio",
    "dynamics.exchange_s": "s",
    "gauge.invariance_s": "s",
    "gauge.shift_s": "s",
    "gauge.transform_calls": "count",
    "gauge.snapshots_per_pair": "ratio",
    "harness.self_s": "s",
    "harness.report_s": "s",
    "harness.pool_wait_s": "s",
    "cli.self_s": "s",
}

# self-time bucket -> per-layer metric
_BUCKET_METRIC = {
    "catalog": "catalog.build_s",
    "expr.parse": "expr.parse_s",
    "expr.eval": "expr.eval_s",
    "jets": "jets.s",
    "fields.jet": "fields.jet_s",
    "fields.fd": "fields.fd_s",
    "engine.field_jets": "engine.field_jets_s",
    **{f"engine.{stage}": f"engine.{stage}_s" for stage in ENGINE_STAGES},
    "engine.fd_pipeline": "engine.fd_pipeline_s",
    "dynamics.integrate": "dynamics.integrate_s",
    "dynamics.exchange": "dynamics.exchange_s",
    "gauge.invariance": "gauge.invariance_s",
    "gauge.shift": "gauge.shift_s",
    "harness": "harness.self_s",
    "harness.report": "harness.report_s",
    "harness.pool_wait": "harness.pool_wait_s",
    "cli": "cli.self_s",
}

_RECORDED = {"cli", "harness", "harness.report", "harness.pool_wait", "catalog",
             "engine.field_jets", "engine.fd_pipeline", "dynamics.integrate",
             "dynamics.exchange", "gauge.invariance", "gauge.shift"}


class _ThreadState:
    """Span stack and counters of one thread; merged when the run ends."""

    def __init__(self):
        self.stack = []  # frames: [child seconds, span id]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.eval_depth = 0
        self.jet_depth = 0
        self.nodes = 0
        self.jet_ops = [0, 0, 0, 0]  # by order
        self.in_fd_pipeline = 0
        self.in_gauge = 0
        self.in_integrate = 0


def _jet_order(j):
    return 3 if j.t is not None else (2 if j.h is not None else 1)


def _order_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs.get("order", 2)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo = []
        self.t0 = pc()
        self.verdict = -1
        self.pool_parent = None
        self._points = set()
        self.points = 0  # distinct pointwise points plus accepted integrator steps

    # -- per-thread state ------------------------------------------------------

    def _st(self):
        try:
            return self._local.s
        except AttributeError:
            s = self._local.s = _ThreadState()
            with self._lock:
                self._states.append(s)
            return s

    # -- verdict boundaries (called by the benchmark loop) ---------------------

    def begin_verdict(self, index):
        self.verdict = index
        self._points = set()

    def end_verdict(self):
        self.points += len(self._points)

    # -- wrappers --------------------------------------------------------------

    def _span(self, bucket, fn, before=None, after=None):
        """Wrap ``fn`` as a span whose self time goes to ``bucket``."""
        st_of, ids, record = self._st, self._ids, bucket in _RECORDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = st_of()
            parent = st.stack[-1][1] if st.stack else self.pool_parent
            frame = [0.0, next(ids)]
            if before is not None:
                before(st, args, kwargs, frame)
            st.stack.append(frame)
            t0 = pc()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = pc()
                st.stack.pop()
                dt = t1 - t0
                st.self_s[bucket] += dt - frame[0]
                if st.stack:
                    st.stack[-1][0] += dt
                if record:
                    st.spans.append((frame[1], parent, self.verdict, bucket,
                                     t0 - self.t0, t1 - self.t0))
                if after is not None:
                    after(st, args, kwargs, result)

        return wrapper

    def _count(self, key, fn, before=None):
        """Wrap ``fn`` to count calls only; its time stays with the caller."""
        st_of = self._st

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = st_of()
            st.counts[key] += 1
            if before is not None:
                before(st, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _jet_op(self, fn, operand):
        """Jet operators are leaves: time and count the outermost call only."""
        st_of = self._st
        from rcgeom.jets import Jet

        @functools.wraps(fn)
        def wrapper(*args):
            j = operand(args, Jet)
            if j is None:
                return fn(*args)
            st = st_of()
            if st.jet_depth:
                return fn(*args)
            st.jet_depth = 1
            t0 = pc()
            try:
                return fn(*args)
            finally:
                dt = pc() - t0
                st.jet_depth = 0
                st.self_s["jets"] += dt
                if st.stack:
                    st.stack[-1][0] += dt
                st.jet_ops[_jet_order(j)] += 1

        return wrapper

    def _evaluate(self, fn):
        """Every recursive call is a node; only the outermost call is timed."""
        st_of = self._st
        outer = self._span("expr.eval", fn)

        @functools.wraps(fn)
        def wrapper(node, coords, params):
            st = st_of()
            st.nodes += 1
            if st.eval_depth:
                return fn(node, coords, params)
            st.counts["expr.eval_calls"] += 1
            st.eval_depth = 1
            try:
                return outer(node, coords, params)
            finally:
                st.eval_depth = 0

        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, name, make):
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            return
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def _patch_dict(self, table, name, make):
        original = table[name]
        self._undo.append((table, name, original))
        table[name] = make(original)

    def _patch_cached(self, cls, name, bucket):
        from functools import cached_property

        original = cls.__dict__.get(name)
        if original is None:
            return
        if isinstance(original, cached_property):
            wrapped = cached_property(self._span(bucket, original.func))
            wrapped.__set_name__(cls, name)
        else:
            wrapped = self._span(bucket, original)
        self._undo.append((cls, name, original))
        setattr(cls, name, wrapped)

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the package on exit."""
        self._install()
        try:
            yield self
        finally:
            for owner, name, original in reversed(self._undo):
                if isinstance(owner, dict):
                    owner[name] = original
                else:
                    setattr(owner, name, original)
            self._undo.clear()

    def _install(self):
        from rcgeom import catalog, cli, dynamics, engine, expr, fields, gauge, harness, jets

        span, count, P = self._span, self._count, self._patch

        # cli and harness
        P(cli, "main", lambda f: span("cli", f))
        P(cli, "run_suite", lambda f: span("harness", f))
        P(cli, "run_worldline", lambda f: span("harness", f))
        P(cli, "canonical_json", lambda f: span("harness.report", f))
        P(harness.VerificationReport, "to_json", lambda f: span("harness.report", f))
        P(harness, "_pmap", self._pool)
        P(harness, "_scenario_gauge", lambda f: span("harness", f,
                                                     before=_enter("in_gauge"),
                                                     after=_leave("in_gauge")))
        P(harness.SuiteContext, "points", lambda f: self._points_of(f))

        # catalog
        for owner in (catalog, harness):
            P(owner, "build_model", lambda f: span("catalog", f))
        P(catalog, "parse_spacetime_text", lambda f: span("catalog", f))
        P(catalog.SpacetimeModel, "in_domain", lambda f: count("catalog.in_domain_calls", f))
        P(catalog.SpacetimeModel, "metric_values",
          lambda f: count("catalog.metric_values_calls", f))

        # expr and jets
        P(expr, "parse", lambda f: span("expr.parse", f, before=_bump("expr.parse_calls")))
        P(expr, "evaluate", self._evaluate)
        self_operand = lambda args, Jet: args[0]  # noqa: E731
        for name in JET_OPERATORS:
            P(jets.Jet, name, lambda f: self._jet_op(f, self_operand))
        any_jet = lambda args, Jet: next((a for a in args if isinstance(a, Jet)), None)  # noqa: E731
        for name in list(jets.FUNCTIONS):
            self._patch_dict(jets.FUNCTIONS, name, lambda f: self._jet_op(f, any_jet))
        for owner in (jets, expr):
            P(owner, "jet_pow", lambda f: self._jet_op(f, any_jet))

        # fields
        P(fields.ExprField, "jet_unchecked",
          lambda f: span("fields.jet", f, before=_by_order("fields.jet_calls", 2)))
        P(fields.ShiftedPotentialField, "jet_unchecked",
          lambda f: span("fields.jet", f, before=_bump("fields.shifted_jet_calls")))
        P(fields.ExprField, "value", lambda f: count("fields.value_calls", f))
        for owner in (fields, engine):
            P(owner, "fd_jet", lambda f: span("fields.fd", f))
        for owner in (fields, harness):
            P(owner, "finite_difference_derivatives", lambda f: span("fields.fd", f))

        # engine
        P(engine, "field_jets",
          lambda f: span("engine.field_jets", f, before=_by_order("engine.field_jets_calls", 2)))
        P(engine, "_fd_pipeline", lambda f: span("engine.fd_pipeline", f,
                                                 before=_enter("in_fd_pipeline"),
                                                 after=_leave("in_fd_pipeline")))
        P(engine.GeometrySnapshot, "__init__", lambda f: count("engine.snapshots", f,
                                                               before=_snapshot_contexts))
        for stage, names in ENGINE_STAGES.items():
            for name in names.split():
                self._patch_cached(engine.GeometrySnapshot, name, f"engine.{stage}")

        # dynamics
        for owner in (dynamics, harness):
            P(owner, "integrate_worldline", lambda f: span(
                "dynamics.integrate", f, before=_enter("in_integrate"), after=_integrated))
            P(owner, "exchange_identities", lambda f: span("dynamics.exchange", f))
        for owner in (dynamics, gauge):
            P(owner, "_rhs", lambda f: count("dynamics.rhs_evals", f, before=_rhs_context))

        # gauge
        for owner in (gauge, harness):
            P(owner, "gauge_invariance_suite", lambda f: span(
                "gauge.invariance", f, before=_pairs))
            P(owner, "contorsion_shift_residual", lambda f: span("gauge.shift", f))
            P(owner, "scalar_shift_residual", lambda f: span("gauge.shift", f))
            P(owner, "transform_potential", lambda f: count("gauge.transform_calls", f))

    def _pool(self, fn):
        """``_pmap(work, items, jobs)``: inline below two jobs or two items,
        otherwise a thread pool whose per-item calls are harness spans."""
        inline = self._span("harness", fn)
        pooled = self._span("harness.pool_wait", fn,
                            before=self._enter_pool, after=self._leave_pool)

        @functools.wraps(fn)
        def wrapper(work, items, jobs, *args, **kwargs):
            items = list(items)
            if jobs <= 1 or len(items) <= 1:
                return inline(work, items, jobs, *args, **kwargs)
            return pooled(self._span("harness", work), items, jobs, *args, **kwargs)

        return wrapper

    def _enter_pool(self, st, args, kwargs, frame):
        self.pool_parent = frame[1]

    def _leave_pool(self, st, args, kwargs, result):
        self.pool_parent = None

    def _points_of(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pts = fn(*args, **kwargs)
            with self._lock:
                self._points.update(map(tuple, pts.tolist()))
            return pts

        return wrapper

    # -- results ---------------------------------------------------------------

    def totals(self):
        self_s, counts = defaultdict(float), Counter()
        nodes, jet_ops = 0, [0, 0, 0, 0]
        for s in self._states:
            for k, v in s.self_s.items():
                self_s[k] += v
            counts.update(s.counts)
            nodes += s.nodes
            jet_ops = [a + b for a, b in zip(jet_ops, s.jet_ops)]
        counts["expr.eval_nodes"] = nodes
        for order in (1, 2, 3):
            counts[f"jets.ops.o{order}"] = jet_ops[order]
        return self_s, counts

    def spans(self):
        return sorted((sp for s in self._states for sp in s.spans), key=lambda sp: sp[4])

    def metrics(self):
        """Every per-layer metric of the traced run, as name -> value."""
        self_s, counts = self.totals()
        steps = counts["dynamics.steps"]
        points = self.points + steps
        out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
        for bucket, seconds in self_s.items():
            out[_BUCKET_METRIC[bucket]] = seconds
        for name in out:
            if PER_LAYER[name] == "count":
                out[name] = counts[name]
        out["engine.snapshots_per_point"] = _ratio(counts["engine.snapshots"], points)
        field_jets = sum(counts[f"engine.field_jets_calls.o{o}"] for o in (1, 2, 3))
        out["engine.field_jets_per_point"] = _ratio(field_jets, points)
        out["dynamics.rhs_per_step"] = _ratio(counts["dynamics.rhs_in_integration"], steps)
        out["gauge.snapshots_per_pair"] = _ratio(counts["gauge.snapshots"], counts["gauge.pairs"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _bump(key):
    def before(st, args, kwargs, frame=None):
        st.counts[key] += 1
    return before


def _by_order(prefix, index):
    def before(st, args, kwargs, frame=None):
        st.counts[f"{prefix}.o{_order_arg(args, kwargs, index)}"] += 1
    return before


def _enter(flag):
    def before(st, args, kwargs, frame=None):
        setattr(st, flag, getattr(st, flag) + 1)
    return before


def _leave(flag):
    def after(st, args, kwargs, result):
        setattr(st, flag, getattr(st, flag) - 1)
    return after


def _snapshot_contexts(st, args, kwargs):
    if st.in_fd_pipeline:
        st.counts["engine.fd_pipeline_snapshots"] += 1
    if st.in_gauge:
        st.counts["gauge.snapshots"] += 1


def _rhs_context(st, args, kwargs):
    if st.in_integrate:
        st.counts["dynamics.rhs_in_integration"] += 1


def _integrated(st, args, kwargs, result):
    st.in_integrate -= 1
    if result is not None:
        st.counts["dynamics.steps"] += len(result.states) - 1
        st.counts["dynamics.rejected_steps"] += result.rejected_steps


def _pairs(st, args, kwargs, frame=None):
    points = args[2] if len(args) > 2 else kwargs.get("points")
    if points is not None:
        st.counts["gauge.pairs"] += len(points)
