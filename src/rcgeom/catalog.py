"""Built-in exact Einstein-Maxwell configurations and a file loader.

Every model bundles a chart, ten metric component fields, four potential
component fields, physical constants, and a default sample grid.  The
``G`` and ``c`` constants are also exposed to expressions as named
parameters so horizons and unit factors can be written symbolically.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EvalError,
    DomainError,
    GeometryError,
    MetricError,
    ParseError,
    SpacetimeFormatError,
    _quiet_float_errors,
    batch_then_rows,
    point_text,
    raise_at,
)
from .expr import ChartSpec
from .fields import ExprField, _orbits
from .jets import _each
from .tensor import MetricAtPoint

CATALOG_NAMES = (
    "minkowski",
    "minkowski-constant-e",
    "schwarzschild",
    "reissner-nordstrom",
    "em-plane-wave",
)


@dataclass(frozen=True)
class PhysicalConstants:
    G: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.G, self.c)):
            raise GeometryError(f"constants must be finite and positive: G={self.G}, c={self.c}")
        try:
            coupling = self.coupling  # c**4 overflows, or G / c**4 divides by 0.0
        except ArithmeticError:
            coupling = math.nan
        if not (math.isfinite(coupling) and coupling > 0.0):
            raise GeometryError(f"the coupling G/c^4 must be finite and nonzero: "
                                f"G={self.G}, c={self.c}")

    @property
    def coupling(self):
        """The contorsion coupling G / c^4, recomputed on access; checked
        finite and nonzero at construction."""
        return self.G / self.c**4


@dataclass(frozen=True)
class FieldLayout:
    """Which of a model's 14 component fields depend on the coordinates.

    ``g`` and ``A`` hold the constant components, with 0 at the
    coordinate-dependent ones; every derivative of a constant component is
    0.  ``g_live`` lists ``(i, j, field)`` for the coordinate-dependent
    metric components with i <= j, ``A_live`` lists ``(n, field)`` for the
    potential.  Evaluation fills arrays from the constant template and
    evaluates only the listed fields.

    It keeps nothing else: the engine keys a constant metric's rows by the
    bytes of ``g``, and ``dynamics._generate_rhs`` its law by the template.
    """

    g: np.ndarray
    A: np.ndarray
    g_live: tuple
    A_live: tuple

    @classmethod
    def of(cls, model):
        g, A = np.zeros((4, 4)), np.zeros(4)
        g_live, A_live = [], []
        for i in range(4):
            for j in range(i, 4):
                f = model.g_fields[i][j]
                if f.const is None:
                    g_live.append((i, j, f))
                else:
                    g[i, j] = g[j, i] = f.const
        for n, f in enumerate(model.A_fields):
            if f.const is None:
                A_live.append((n, f))
            else:
                A[n] = f.const
        g.flags.writeable = A.flags.writeable = False
        return cls(g, A, tuple(g_live), tuple(A_live))


@dataclass(frozen=True)
class DustModel:
    """Charged dust over a model's chart: proper mass and charge density
    fields and the four fields of its velocity V^m."""

    rho0: object
    rhoq: object
    V_fields: tuple


@dataclass(frozen=True)
class SpacetimeModel:
    name: str
    chart: ChartSpec
    g_fields: tuple  # 4x4 nested tuple, symmetric by shared references
    A_fields: tuple  # 4 scalar fields
    constants: PhysicalConstants
    params: dict
    grid_axes: dict  # coordinate name -> tuple of sample values
    domain: object = None  # scalar field, positive inside the domain
    meta: dict = field(default_factory=dict)

    @cached_property
    def layout(self):
        """The constant template and the coordinate-dependent components of
        the fields, built on first use (a ``dataclasses.replace`` copy
        builds its own)."""
        return FieldLayout.of(self)

    @cached_property
    def dust(self):
        """The dust matched to the model (``meta["dust"]``: the sources of
        rho0, rhoq and V), parsed on first use; None without one."""
        sources = self.meta.get("dust")
        if sources is None:
            return None
        rho0, rhoq, V = sources
        return DustModel(
            rho0=self.scalar_field(rho0, "rho0"),
            rhoq=self.scalar_field(rhoq, "rhoq"),
            V_fields=tuple(self.scalar_field(src, f"V[{i}]") for i, src in enumerate(V)),
        )

    @cached_property
    def read_axes(self):
        """The chart indices, in order, that the metric, potential or domain read."""
        held = [*itertools.chain.from_iterable(self.g_fields), *self.A_fields, self.domain]
        return tuple(sorted(frozenset().union(*(f.axes for f in held if f is not None))))

    @property
    def default_grid(self):
        axes = [self.grid_axes[n] for n in self.chart.names]
        return np.array(list(itertools.product(*axes)), dtype=float)

    def in_domain(self, x):
        x = np.asarray(x, dtype=float)
        if np.count_nonzero(np.isfinite(x)) < x.size:
            return False
        if self.domain is None:
            return True
        try:
            return self.domain.value(x) > 0.0
        except EvalError:
            return False

    def require_in_domain(self, X):
        """Raise DomainError for the first row of X, shape (N, 4), that lies
        outside the domain."""
        raise_at(~self._in_domain_rows(X), X, DomainError,
                 lambda at: f"point {at} is outside the domain of {self.name!r}")

    def _in_domain_rows(self, X):
        """in_domain of every row, an (N,) bool array, with one batched
        domain evaluation when every row is finite and the predicate
        evaluates at all of them."""
        if self.domain is None:
            return np.isfinite(X).all(axis=1)
        if np.count_nonzero(np.isfinite(X)) < X.size:
            return np.array([self.in_domain(p) for p in X], dtype=bool)
        return np.asarray(
            batch_then_rows(lambda: self.domain.values(X) > 0.0, X, self.in_domain), dtype=bool
        )

    def metric_values(self, X):
        """Metric components at every row of an (N, 4) batch."""
        X = np.asarray(X, dtype=float)
        g = np.empty((len(X), 4, 4))
        g[:] = self.layout.g
        for i, j, f in self.layout.g_live:
            g[:, i, j] = g[:, j, i] = f.values(X)
        return g

    def metric_at(self, x):
        x = np.asarray(x, dtype=float)[None]
        self.require_in_domain(x)
        return MetricAtPoint.from_components(self.metric_values(x))

    def potential_values(self, X):
        """Potential components at every row of an (N, 4) batch."""
        X = np.asarray(X, dtype=float)
        return np.stack([f.values(X) for f in self.A_fields], axis=-1)

    def scalar_field(self, src, name=""):
        """Scalar field over the chart with the parameters, G and c in scope;
        a constant one that fails is an error naming the model (``_field``)."""
        env = dict(self.params, G=self.constants.G, c=self.constants.c)
        return _field(src, self.chart, env, name or src, self.name)

    def sample_box(self):
        box = self.meta.get("sample_box")
        if box is not None:
            return box
        return {n: (min(v), max(v)) for n, v in self.grid_axes.items()}


def _field(src, chart, env, name, origin):
    """The field of an expression source.  One that reads no coordinate is
    evaluated once, at construction; if that fails, or gives a value that is
    not finite, it is a load error naming the file or model and the field."""
    try:
        return ExprField(src, chart, env, name=name)
    except EvalError as err:
        raise SpacetimeFormatError(f"{name} cannot be evaluated: {err}", origin) from None


def build_model(
    name,
    coord_names,
    g_sources,
    A_sources=None,
    params=None,
    G=1.0,
    c=1.0,
    domain_src=None,
    grid_axes=None,
    meta=None,
    validate=True,
    origin=None,
):
    """Assemble a model from expression sources with symmetric completion."""
    params = dict(params or {})
    try:
        constants = PhysicalConstants(float(G), float(c))
        if bad := [f"{k}={v}" for k, v in params.items() if not math.isfinite(v)]:
            raise GeometryError(f"parameters must be finite: {', '.join(bad)}")
    except GeometryError as err:  # a definition file's names the file
        if origin is None:
            raise
        raise SpacetimeFormatError(str(err), origin) from None
    chart = ChartSpec(tuple(coord_names))
    for n in ("G", "c"):
        if n in chart.names:
            raise SpacetimeFormatError(f"coordinate {n} names a constant", origin or name)
    env = dict(params, G=constants.G, c=constants.c)

    g_sources = dict(g_sources or {})
    for (i, j), src in g_sources.items():
        if not (0 <= i <= 3 and 0 <= j <= 3):
            raise SpacetimeFormatError(f"metric index out of range: g[{i}][{j}]", origin or name)
        if g_sources.get((j, i), src) != src:
            raise SpacetimeFormatError(
                f"conflicting sources for g[{i}][{j}] and g[{j}][{i}]", origin or name
            )

    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            if j < i:
                row.append(rows[j][i])
                continue
            src = g_sources.get((i, j), g_sources.get((j, i), "0"))
            row.append(_field(src, chart, env, f"g[{i}][{j}]", origin or name))
        rows.append(tuple(row))
    g_fields = tuple(rows)

    A_list = []
    for i in range(4):
        src = (A_sources or {}).get(i, "0")
        A_list.append(_field(src, chart, env, f"A[{i}]", origin or name))

    domain = _field(domain_src, chart, env, "domain", origin or name) if domain_src else None

    if grid_axes is None:
        raise SpacetimeFormatError("missing required key: grid", origin or name)
    axes = {}
    for n in coord_names:
        if n not in grid_axes:
            raise SpacetimeFormatError(f"missing required key: grid.{n}", origin or name)
        axes[n] = tuple(float(v) for v in grid_axes[n])

    model = SpacetimeModel(
        name=name,
        chart=chart,
        g_fields=g_fields,
        A_fields=tuple(A_list),
        constants=constants,
        params=params,
        grid_axes=axes,
        domain=domain,
        meta=dict(meta or {}),
    )
    if validate:
        validate_on_grid(model, origin=origin)
    return model


@_quiet_float_errors
def validate_on_grid(model, origin=None):
    """Check metric and potential invariants at every default-grid point.

    The checks are pointwise in the fields, so the points that agree on
    every coordinate the model reads (``read_axes``; an orbit,
    ``fields._orbits``) pass or fail together: only the first point of
    each orbit is checked, and the first point at fault is the first of
    its orbit.  One batched pass covers those points; only when it meets a
    fault does the point-by-point pass run (``batch_then_rows``), which
    names the first point at fault.
    """
    grid = model.default_grid
    # a non-finite coordinate is outside the domain, read or not
    read = {*model.read_axes, *(i for i in range(4) if not np.isfinite(grid[:, i]).all())}
    grid = grid[_orbits(grid, sorted(read))[0]]

    def batch():
        model.require_in_domain(grid)
        model.potential_values(grid)  # raises on a non-finite value
        MetricAtPoint.from_components(model.metric_values(grid))

    batch_then_rows(batch, grid, lambda p: _validate_point(model, p, origin))


def _validate_point(model, p, origin):
    pt = point_text(p)
    origin = origin or model.name
    if not model.in_domain(p):
        raise SpacetimeFormatError(f"grid point {pt} violates the domain predicate", origin)
    _evaluate_at([model.g_fields[i][j] for i in range(4) for j in range(i, 4)], p, pt, origin)
    try:
        model.metric_at(p)
    except MetricError as err:
        raise type(err)(f"{err} at grid point {pt}") from err
    _evaluate_at(model.A_fields, p, pt, origin)


def _evaluate_at(fields, p, pt, origin):
    """Evaluate each field at the grid point p; an evaluation error names
    the field, the model or file and the point."""
    for f in fields:
        try:
            f.value(p)
        except EvalError as err:
            raise SpacetimeFormatError(
                f"{f.name} cannot be evaluated at grid point {pt}: {err}", origin
            ) from err


# -- built-in catalog ---------------------------------------------------------

_CARTESIAN = ("t", "x", "y", "z")
_SPHERICAL = ("t", "r", "theta", "phi")
_FLAT = {(0, 0): "1", (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"}
_CARTESIAN_BOX = {"t": (-1.0, 1.0), "x": (-1.0, 1.0), "y": (-1.0, 1.0), "z": (-1.0, 1.0)}
_SPHERICAL_BOX = {
    "t": (0.0, 1.0),
    "r": (3.0, 10.0),
    "theta": (0.3, math.pi - 0.3),
    "phi": (0.0, 2.0 * math.pi),
}
_BOX_GRID = {"t": (-0.5, 0.5), "x": (-0.5, 0.5), "y": (-0.5, 0.5), "z": (-0.5, 0.5)}
_STATIC_SPHERICAL_GRID = {
    "t": (0.0, 0.5),
    "r": tuple(np.linspace(3.0, 10.0, 8)),
    "theta": tuple(np.linspace(0.3, math.pi - 0.3, 4)),
    "phi": (0.1, 2.0),
}
_FLAT_META = {"source_free": True, "einstein_exact": False, "diag_static": True,
              "sample_box": _CARTESIAN_BOX}
_STATIC_META = {"source_free": True, "einstein_exact": True, "diag_static": True,
                "sample_box": _SPHERICAL_BOX}
_ORIGIN, _AT_REST = (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)
_COMOVING = ("1", "0", "0", "0")
# Rest start at charge ratio 0.5: V^0 = cosh(0.5 E s), hence this dust flow.
_ACCEL_GAMMA = "sqrt(1 + (0.5*E*t)^2)"


def _static_spherical_metric(f):
    return {(0, 0): f, (1, 1): f"-1/({f})", (2, 2): "-r^2", (3, 3): "-r^2*sin(theta)^2"}


# -- closed forms: (model, trajectory, charge ratio) -> error at every state ---


def straight_line_error(model, traj, charge_ratio):
    """Free motion in flat space: x(s) = x(0) + s V(0)."""
    x = traj.x
    return np.abs(x - (x[0] + traj.s[:, None] * traj.V[0])).max(axis=1)


def uniform_acceleration_error(model, traj, charge_ratio):
    """Rest start in the uniform field E: V^0(s) = cosh(k E s) and
    V^1(s) = -sinh(k E s), which is odd in k and so fixes the charge sign."""
    t = charge_ratio * model.params["E"] * traj.s
    # math's cosh and sinh, entry by entry: numpy's differ in the last bit
    try:
        cosh, sinh = _each(math.cosh, t), _each(math.sinh, t)
    except OverflowError:
        cosh, sinh = np.array([_cosh_sinh(v) for v in t.tolist()]).T
    e0, e1 = np.abs(traj.V[:, 0] - cosh), np.abs(traj.V[:, 1] + sinh)
    return np.where(e1 > e0, e1, e0)  # max(e0, e1) per state


def _cosh_sinh(t):
    """cosh(t) and sinh(t), infinite where they overflow."""
    try:
        return math.cosh(t), math.sinh(t)
    except OverflowError:
        return math.inf, math.copysign(math.inf, t)


def circular_radius_error(model, traj, charge_ratio):
    """A circular orbit keeps its starting radius."""
    r = traj.x[:, 1]
    return np.abs(r - r[0])


@dataclass(frozen=True)
class ClosedFormScenario:
    """A worldline with a known solution, run by the dynamics suite: its
    start, model -> (x0, V0, charge ratio, ds, steps), and its closed form.
    With a premise, charged (charge ratio nonzero) or neutral (``charged``)
    and optionally a rest start, the closed form holds for every worldline
    run that meets it, and ``report`` gives its error, under ``name``."""

    name: str
    start: object
    closed_form: object
    charged: bool | None = None  # None: no premise, the dynamics suite's start only
    from_rest: bool = False

    def report(self, model, traj, charge_ratio):
        if self.charged is None or traj.exited or (charge_ratio != 0.0) != self.charged:
            return None
        if self.from_rest and not np.allclose(traj.V[0], [1.0, 0.0, 0.0, 0.0]):
            return None
        return {"name": self.name,
                "max_error": float(np.max(self.closed_form(model, traj, charge_ratio)))}


def _accelerated_start(model):
    """A rest start at charge ratio 0.5 / E, for 2000 steps of 1e-3."""
    E = model.params["E"]
    if E == 0.0:
        raise GeometryError(f"the uniform acceleration scenario needs E != 0, got E = {E!r}")
    return _ORIGIN, _AT_REST, 0.5 / E, 1e-3, 2000


def _circular_orbit(model, r=8.0, steps=1500):
    """One period of the circular geodesic of radius r around the mass
    m = G M / c^2, which the metric reads (0 < m < r/3)."""
    M, G, c = model.params["M"], model.constants.G, model.constants.c
    m = G * M / c**2
    if not 0.0 < m < r / 3.0:
        raise GeometryError(f"the circular orbit at r = {r} needs 0 < G*M/c^2 < r/3 "
                            f"(G = {G!r}, c = {c!r}), got M = {M!r}")
    vt = 1.0 / math.sqrt(1.0 - 3.0 * m / r)
    vphi = math.sqrt(m / r**3) * vt
    period = 2.0 * math.pi / vphi
    return (0.0, r, math.pi / 2, 0.0), (vt, 0.0, 0.0, vphi), 0.0, period / steps, steps


@dataclass(frozen=True)
class _Entry:
    coords: tuple
    g: dict
    A: dict
    defaults: dict
    grid: dict
    meta: dict
    domain: str | None = None


# meta keys read by the suites: source_free, einstein_exact, diag_static,
# sample_box, charge_density_param (the parameter holding a uniform proper
# charge density), scenario (ClosedFormScenario, the worldline rows' claim and
# the oracle of user worldlines) and dust (sources of a matched dust: rho0, rhoq, V).
_ENTRIES = {
    "minkowski": _Entry(
        _CARTESIAN, _FLAT, {}, {}, _BOX_GRID,
        {**_FLAT_META, "einstein_exact": True,
         "scenario": ClosedFormScenario(
             "straight-line", lambda model: (_ORIGIN, _AT_REST, 0.0, 0.01, 200),
             straight_line_error, charged=False),
         "dust": ("0.05", "0", _COMOVING)},
    ),
    "minkowski-constant-e": _Entry(
        _CARTESIAN, _FLAT, {0: "-(E*x)"}, {"E": 1.0}, _BOX_GRID,
        {**_FLAT_META,
         "scenario": ClosedFormScenario("uniform-acceleration", _accelerated_start,
                                        uniform_acceleration_error, charged=True,
                                        from_rest=True),
         "dust": (f"0.05/{_ACCEL_GAMMA}", f"0.025*c^2/{_ACCEL_GAMMA}",
                  (_ACCEL_GAMMA, "-(0.5*E*t)", "0", "0"))},
    ),
    "schwarzschild": _Entry(
        _SPHERICAL, _static_spherical_metric("1 - 2*G*M/(c^2*r)"), {}, {"M": 1.0},
        _STATIC_SPHERICAL_GRID,
        {**_STATIC_META,
         "scenario": ClosedFormScenario("circular-orbit", _circular_orbit,
                                        circular_radius_error)},
        domain="(r - 2*G*M/c^2) * sin(theta)",
    ),
    "reissner-nordstrom": _Entry(
        _SPHERICAL, _static_spherical_metric("1 - 2*G*M/(c^2*r) + G*q^2/(c^4*r^2)"),
        {0: "q/r"}, {"M": 1.0, "q": 0.3}, _STATIC_SPHERICAL_GRID, _STATIC_META,
        domain="(r - 2*G*M/c^2) * sin(theta)",
    ),
    # Transverse polarization; the field is null (F.F = 0) and source free.
    "em-plane-wave": _Entry(
        _CARTESIAN, _FLAT, {2: "a*cos(k*(t - x))"}, {"a": 0.5, "k": 1.0},
        {"t": (0.0, 0.35, 0.8), "x": (-0.5, 0.2, 0.9), "y": (-0.3, 0.4), "z": (-0.2, 0.5)},
        _FLAT_META,
    ),
    # Fixture, not a catalog entry: a quadratic potential whose Laplacian
    # yields a uniform charge density, carried by comoving dust.
    "charge-ball": _Entry(
        _CARTESIAN, _FLAT, {0: "-(2*pi/3)*rho_q*(x^2 + y^2 + z^2)"},
        {"rho_q": 0.02, "rho0": 0.05, "pi": math.pi},
        {"t": (0.0, 0.4), "x": (-0.4, 0.1, 0.4), "y": (-0.4, 0.1, 0.4), "z": (-0.4, 0.1, 0.4)},
        {"source_free": False, "einstein_exact": False, "diag_static": True,
         "charge_density_param": "rho_q",
         "sample_box": {"t": (0.0, 1.0), "x": (-0.5, 0.5), "y": (-0.5, 0.5), "z": (-0.5, 0.5)},
         "dust": ("rho0", "rho_q", _COMOVING)},
    ),
}
FIXTURE_NAMES = ("charge-ball",)


def catalog_get(name, params=None, G=1.0, c=1.0):
    """Return a built-in model or fixture; parameter overrides are merged
    over the defaults and must name declared parameters (the constants G
    and c are set by their own arguments)."""
    entry = _ENTRIES.get(name)
    if entry is None:
        raise GeometryError(
            f"unknown catalog entry {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    unknown = sorted(set(params or {}) - set(entry.defaults))
    if unknown:
        declared = ", ".join(sorted(entry.defaults)) or "none"
        raise GeometryError(
            f"undeclared parameter {', '.join(map(repr, unknown))} for {name!r}; "
            f"declared: {declared}; constants: G, c"
        )
    return build_model(
        name,
        entry.coords,
        entry.g,
        entry.A,
        params={**entry.defaults, **(params or {})},
        G=G,
        c=c,
        domain_src=entry.domain,
        grid_axes=entry.grid,
        meta=entry.meta,
    )


# -- definition-file loader ---------------------------------------------------

_LINE_RES = {
    "name": re.compile(r"^name\s*=\s*([A-Za-z_][\w.-]*)\s*$"),
    "coords": re.compile(r"^coords\s*=\s*(.+)$"),
    "param": re.compile(r"^param\s+([A-Za-z_]\w*)\s*=\s*(\S+)\s*$"),
    "const": re.compile(r"^(G|c)\s*=\s*(\S+)\s*$"),
    "g": re.compile(r"^g\[(\d+)\]\[(\d+)\]\s*=\s*\"(.*)\"\s*$"),
    "A": re.compile(r"^A\[(\d+)\]\s*=\s*\"(.*)\"\s*$"),
    "domain": re.compile(r"^domain\s*=\s*\"(.*)\"\s*$"),
    "grid": re.compile(r"^grid\.([A-Za-z_]\w*)\s*=\s*([^:]+):([^:]+):(\d+)\s*$"),
}


def grid_axis(start, stop, count):
    """``np.linspace(start, stop, count)`` once the bounds and their
    distance are finite; linspace would warn and leave NaN points."""
    if not math.isfinite(stop - start):  # inf or NaN also when a bound is
        raise GeometryError(f"grid bounds and their distance must be finite: {start!r}:{stop!r}")
    return np.linspace(start, stop, count)


def parse_spacetime_text(text, origin="<string>", param_overrides=None):
    """Parse the line-oriented definition format into a model.  A key may
    be given again only with the same value."""
    name = None
    coords = None
    params = {}
    consts = {"G": 1.0, "c": 1.0}
    g_sources = {}
    A_sources = {}
    domain_src = None
    grid_axes = {}
    seen = {}  # key -> the value its first line gave
    param_lines = {}  # param -> the line that declared it
    grid_lines = {}  # grid coordinate -> the line that gave its range

    def once(key, value, lineno, what="value"):
        first = seen.setdefault(key, value)
        if first is not value and first != value:  # a NaN equals no value, itself included
            raise SpacetimeFormatError(f"duplicate {key} with a different {what}", origin, lineno)
        return value

    def number(text, lineno):
        try:
            return float(text)
        except ValueError:
            raise SpacetimeFormatError(f"bad number {text!r}", origin, lineno) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _LINE_RES["name"].match(line):
            name = once("name", m.group(1), lineno)
        elif m := _LINE_RES["coords"].match(line):
            coords = once("coords", tuple(s.strip() for s in m.group(1).split(",")), lineno)
            for key in consts:
                if key in coords:
                    raise SpacetimeFormatError(f"coordinate {key} names a constant", origin, lineno)
        elif m := _LINE_RES["param"].match(line):
            key = m.group(1)
            if key in consts:
                raise SpacetimeFormatError(
                    f"param {key} names a constant; set it with a '{key} = ...' line",
                    origin, lineno)
            params[key] = once(f"param {key}", number(m.group(2), lineno), lineno)
            param_lines.setdefault(key, lineno)
        elif m := _LINE_RES["const"].match(line):
            consts[m.group(1)] = once(m.group(1), number(m.group(2), lineno), lineno)
        elif m := _LINE_RES["g"].match(line):
            i, j = int(m.group(1)), int(m.group(2))
            if i > 3 or j > 3:
                raise SpacetimeFormatError(f"metric index out of range: g[{i}][{j}]", origin, lineno)
            once(f"g[{i}][{j}]", m.group(3), lineno, "expression")
            mirror = g_sources.get((j, i))
            if mirror is not None and mirror != m.group(3):
                raise SpacetimeFormatError(
                    f"g[{i}][{j}] conflicts with g[{j}][{i}]", origin, lineno)
            g_sources[(i, j)] = m.group(3)
        elif m := _LINE_RES["A"].match(line):
            i = int(m.group(1))
            if i > 3:
                raise SpacetimeFormatError(f"potential index out of range: A[{i}]", origin, lineno)
            A_sources[i] = once(f"A[{i}]", m.group(2), lineno, "expression")
        elif m := _LINE_RES["domain"].match(line):
            domain_src = once("domain", m.group(1), lineno, "expression")
        elif m := _LINE_RES["grid"].match(line):
            try:
                start, stop, count = float(m.group(2)), float(m.group(3)), int(m.group(4))
            except ValueError:
                raise SpacetimeFormatError("bad grid range", origin, lineno) from None
            if count < 1:
                raise SpacetimeFormatError("grid count must be >= 1", origin, lineno)
            try:
                axis = grid_axis(start, stop, count)
            except GeometryError as err:
                raise SpacetimeFormatError(str(err), origin, lineno) from None
            once(f"grid.{m.group(1)}", (start, stop, count), lineno, "range")
            grid_axes[m.group(1)] = tuple(axis)
            grid_lines.setdefault(m.group(1), lineno)
        else:
            raise SpacetimeFormatError(f"unrecognized line: {line!r}", origin, lineno)

    if name is None:
        raise SpacetimeFormatError("missing required key: name", origin)
    if coords is None:
        raise SpacetimeFormatError("missing required key: coords", origin)
    for key, lineno in param_lines.items():
        if key in coords:
            raise SpacetimeFormatError(f"param {key} names a chart coordinate", origin, lineno)
    for key, lineno in grid_lines.items():
        if key not in coords:
            raise SpacetimeFormatError(f"unknown grid coordinate {key!r}", origin, lineno)

    for key, value in (param_overrides or {}).items():
        if key in ("G", "c"):
            consts[key] = float(value)
        elif key in params:
            params[key] = float(value)
        else:
            raise SpacetimeFormatError(f"override for undeclared parameter {key!r}", origin)

    try:
        return build_model(
            name, coords, g_sources, A_sources, params=params, G=consts["G"], c=consts["c"],
            domain_src=domain_src, grid_axes=grid_axes,
            meta={"source_free": False, "einstein_exact": False, "diag_static": False},
            origin=origin)
    except ParseError as err:
        raise SpacetimeFormatError(f"expression error: {err}", origin) from err


def load_spacetime_file(path, param_overrides=None):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise SpacetimeFormatError(
            f"not UTF-8 text: {err.reason} at byte {err.start}", str(path)) from None
    return parse_spacetime_text(text, origin=str(path), param_overrides=param_overrides)
