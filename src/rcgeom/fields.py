"""Differentiable scalar fields over a chart.

An ``ExprField`` folds its expression once, at construction
(``expr.fold``): parameter-only subtrees become numbers, and a field with
no coordinate left in it is a constant (``const``), whose derivatives are
zero; one that cannot be evaluated, or is not finite, raises at
construction.  Every evaluation runs the folded tree through
``expr.evaluate``; the default path pushes truncated Taylor carriers (jets)
through it, giving exact gradients and Hessians (and third derivatives on
request).  A central finite-difference fallback exists for cross-validation
of the dual-number engine; its one stencil (``central_differences``) also
differences the engine's computed quantities.  Every field class has
``axes``, the chart indices it reads, and the points that agree on those
axes (an orbit, ``_orbits``) give the same evaluations.

Every evaluation accepts a batch, shape (N, 4), or one point, shape (4,).
Batched jets keep the batch axis last (value (N,), gradient (4, N), Hessian
(4, 4, N)), as in ``jets``; one point gives plain one-point jets (a float
value, a (4,) gradient), the reference that ``codegen.compile_one_point``
mirrors.  The batched jets are the reference that the generated column code
of ``engine.field_jets`` (``codegen.compile_columns``) mirrors for every batch,
a batch of one included; ``jet_unchecked`` is its error route, and the
route of a gauge-shifted potential, whose gauge function's jet one
``field_jets`` call shares among its components.  ``values`` evaluates a
batch of one on floats (``math``), with the bits of the array route.
Stencils evaluate every stencil point of every point in one ``values``
call, the value's centres included, whose values equal the one-point
``value`` bit for bit, so a stencil over a batch gives what it gives point
by point.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from . import expr
from .errors import EvalError, batch_then_rows, point_text, points_text, raise_at
from .jets import DIM, ZERO_G, ZERO_G_B, ZERO_H, ZERO_H_B, ZERO_T, ZERO_T_B, Jet

JetValue = namedtuple("JetValue", "value grad hess third")

FD_STEP_SCALE = 1e-4


_ZEROS = (ZERO_G, ZERO_H, ZERO_T)
_ZEROS_B = (ZERO_G_B, ZERO_H_B, ZERO_T_B)


def _expand(result, order, zeros=_ZEROS):
    """Promote a constant (plain float) evaluation result to jet arrays.

    The zero arrays (``_ZEROS_B``, with a batch axis of length 1, for a
    batch) are shared and read-only; callers copy out of them.
    """
    if isinstance(result, Jet):
        hess = result.h if order >= 2 else None
        third = result.t if order >= 3 else None
        return JetValue(result.f, result.g, hess, third)
    zg, zh, zt = zeros
    return JetValue(
        float(result),
        zg,
        zh if order >= 2 else None,
        zt if order >= 3 else None,
    )


def _orbits(pts, axes):
    """The index of the first point of each orbit of pts, in order, and the
    orbit's size.  An orbit holds the points with the same bits on every
    axis in ``axes``."""
    if len(axes) == pts.shape[1]:
        return np.arange(len(pts)), np.ones(len(pts), dtype=int)
    if not len(axes):  # one orbit; a void view of itemsize 0 cannot say so
        n = min(1, len(pts))
        return np.zeros(n, dtype=int), np.full(n, len(pts))
    # each row's bytes as one void scalar: a 1-D unique, not a 2-D one
    key = np.ascontiguousarray(pts[:, axes]).view(np.dtype((np.void, 8 * len(axes))))
    _, first, counts = np.unique(key.ravel(), return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order]


def make_seeds(x, order):
    """Coordinate jets (``Jet.seed``) for one point, of its floats, or for a
    batch of points, of its columns; shareable across fields."""
    x = np.asarray(x, dtype=float)
    coords = np.ascontiguousarray(x.T) if x.ndim == 2 else x.tolist()
    return [Jet.seed(c, i, order) for i, c in enumerate(coords)]


def _check_finite(jv, name, x, fault="non-finite result for field {!r}"):
    """jv if every part is finite; else the fault of ``name`` at the point x,
    or at the first point of a batch x where a part, which carries the batch
    axis last (of length N, or 1 for a template part), is not finite."""
    parts = [p for p in jv if p is not None]
    if all(np.isfinite(p).all() for p in parts):
        return jv
    bad = [True]
    if np.ndim(x) == 2:
        finite = [np.isfinite(p).reshape(-1, np.shape(p)[-1]).all(axis=0) for p in parts]
        bad = ~np.logical_and.reduce(np.broadcast_arrays(*finite))
    raise_at(bad, np.reshape(x, (-1, DIM)), EvalError, fault.format(name))


class ExprField:
    """Scalar field defined by an expression with bound parameters.

    ``tree`` is the folded expression (``expr.fold``), which ``value``,
    ``values`` and ``jet_unchecked`` evaluate; ``axes`` holds the chart
    indices it reads (the tree's own ``axes``), and ``const`` is the
    field's value when it reads none, else None.
    """

    __slots__ = ("ast", "tree", "chart", "params", "name", "axes", "const")

    def __init__(self, src, chart, params=None, name=""):
        self.ast = expr.parse(src, chart, params or {}) if isinstance(src, str) else src
        self.chart = chart
        self.params = dict(params or {})
        self.name = name or (src if isinstance(src, str) else expr.to_source(src))
        self.tree = expr.fold(self.ast, self.params)
        self.axes = self.tree.axes
        self.const = None
        if not self.axes:  # a value, or a subtree that did not fold raises
            self.const = float(expr.evaluate(self.tree, (), self.params))
            if not math.isfinite(self.const):
                raise EvalError(f"non-finite value for field {self.name!r}: {self.const!r}")

    def __repr__(self):
        return f"ExprField({self.name!r})"

    def value(self, x):
        if self.const is not None:
            return self.const
        v = expr.evaluate(self.tree, np.asarray(x, dtype=float).tolist(), self.params)
        if not math.isfinite(v):
            raise EvalError(f"non-finite value for field {self.name!r} at {point_text(x)}")
        return float(v)

    def values(self, X):
        """Values at the N rows of an (N, 4) array, as an (N,) array, equal
        bit for bit to ``value`` at each row; an error names the first row
        that ``value`` fails at.  A batch of one runs on floats."""
        X = np.asarray(X, dtype=float)
        if self.const is not None:
            return np.full(len(X), self.const)
        if len(X) == 1:
            return np.array([self.value(X[0])])
        def batch():
            v = expr.evaluate(self.tree, list(np.ascontiguousarray(X.T)), self.params)
            raise_at(~np.isfinite(v), X, EvalError, f"non-finite value for field {self.name!r}")
            return v

        return np.asarray(batch_then_rows(batch, X, self.value))

    def jet_unchecked(self, x, order=2, seeds=None):
        """Jet evaluation without the finiteness sweep (the caller checks)."""
        if self.const is not None:
            batched = isinstance(x, np.ndarray) and x.ndim == 2
            return _expand(self.const, order, _ZEROS_B if batched else _ZEROS)
        if seeds is None:
            seeds = make_seeds(x, order)
        return _expand(expr.evaluate(self.tree, seeds, self.params), order)

    def jet(self, x, order=2):
        return _check_finite(self.jet_unchecked(x, order), self.name, x)


def gauge_function_jet(phi, x, order, check=False):
    """The jet of a gauge function at a point or a batch, checked for
    finiteness when ``check``; an evaluation error names the gauge function
    and the point (over a batch, the number of points)."""
    try:
        jv = phi.jet_unchecked(x, order)
    except EvalError as err:
        raise EvalError(f"gauge function {phi.name!r} at {points_text(x)}: {err}") from None
    return _check_finite(jv, phi.name, x) if check else jv


class ShiftedPotentialField:
    """Potential component after a gauge shift: base + d(phi)/dx_axis.

    Derivatives of order n require phi to order n+1, which the expression
    backend supplies up to n = 2.  It reads the axes of base and of phi.
    """

    __slots__ = ("base", "phi", "axis", "name")
    const = None  # evaluated at every point, like a coordinate-dependent field

    def __init__(self, base, phi, axis, name=""):
        self.base = base
        self.phi = phi
        self.axis = axis
        self.name = name or f"{getattr(base, 'name', 'A')}+grad(phi)[{axis}]"

    def __repr__(self):
        return f"ShiftedPotentialField({self.name!r})"

    @property
    def axes(self):
        return self.base.axes | self.phi.axes

    def value(self, x):
        return self.base.value(x) + gauge_function_jet(self.phi, x, 1, check=True).grad[self.axis]

    def values(self, X):
        """Values at the N rows of an (N, 4) array from one batched phi jet.

        Each row's value depends on that row alone (numpy's vectorised
        functions give every entry the same bits whatever the array length),
        so a stencil gives the same bits over a batch as at one point, both
        coming through here; it agrees with ``value`` to roundoff.  An
        evaluation error or a non-finite phi jet re-evaluates row by row, so
        the error is the one ``value`` meets at the first bad row.
        """
        X = np.asarray(X, dtype=float)

        def batch():
            p = gauge_function_jet(self.phi, X, 1, check=True)
            return self.base.values(X) + p.grad[self.axis]

        return np.asarray(batch_then_rows(batch, X, self.value))

    def jet_unchecked(self, x, order=2, seeds=None, phi_jets=None):
        """The shifted jets from the base's at ``order`` and phi's at
        ``order + 1``.  ``phi_jets``, a dict, shares each gauge function's
        jet among the shifted components of one batch, keyed by the gauge
        function and order."""
        if order > 2:
            raise EvalError(
                "gauge-shifted potentials carry derivatives only to 2nd order"
            )
        base = self.base
        if isinstance(base, ShiftedPotentialField):
            b = base.jet_unchecked(x, order, seeds, phi_jets)
        else:
            b = base.jet_unchecked(x, order, seeds)
        key = (self.phi, order + 1)
        p = None if phi_jets is None else phi_jets.get(key)
        if p is None:
            p = gauge_function_jet(self.phi, x, order + 1)
            if phi_jets is not None:
                phi_jets[key] = p
        a = self.axis
        value = b.value + p.grad[a]
        grad = b.grad + p.hess[a]
        hess = None if b.hess is None else b.hess + p.third[a]
        return JetValue(value, grad, hess, None)

    def jet(self, x, order=2):
        return _check_finite(self.jet_unchecked(x, order), self.name, x)


def central_differences(values, X, axes, steps, order, value=False):
    """Central-difference gradient, and at order 2 value and Hessian, of a
    pointwise function at every row of X, shape (N, 4).

    ``values`` maps stacked points, shape (M, 4), to an array whose leading
    axis is the points; ``steps`` holds each row's step along each axis,
    shape (N, 4).  Only ``axes`` are differenced: every entry along another
    axis is exactly 0, as in a jet, where a mixed difference across it
    would leave roundoff.  All stencil points of all rows go through one
    ``values`` call, in the order the one-point difference quotients visit
    them (at order 2 the centre first), so the first bad stencil point is
    the one reported.  At order 1 the centres are evaluated, after the
    stencil points, only when ``value`` asks for the value, which is None
    otherwise; without it, at least one axis must be differenced.  The
    parts carry the derivative axes first, then the point axis, then the
    value's own axes: a scalar function gets the batch-last layout of the
    jets.
    """
    axes = sorted(axes)
    pairs = list(itertools.combinations(axes, 2)) if order >= 2 else []
    e = {m: np.where(np.arange(DIM) == m, steps, 0.0) for m in axes}  # the steps along m
    axial = [p for m in axes for p in (X + e[m], X - e[m])]
    mixed = [X + a + b for m, n in pairs for a in (e[m], -e[m]) for b in (e[n], -e[n])]
    lead = [X] if order >= 2 else []  # the centre blocks before and after the stencil
    tail = [X] if order < 2 and value else []
    pts = lead + axial + mixed + tail
    f = np.asarray(values(np.concatenate(pts)))
    f = f.reshape((len(pts), len(X)) + f.shape[1:])
    f0 = f[0] if lead else f[-1] if tail else None
    f_axial = f[len(lead):len(lead) + len(axial)]
    f_mixed = f[len(lead) + len(axial):len(pts) - len(tail)]

    h = steps.T.reshape((DIM, len(X)) + (1,) * (f.ndim - 2))  # broadcast over the value
    grad = np.zeros((DIM,) + f.shape[1:])
    hess = np.zeros((DIM, DIM) + f.shape[1:]) if order >= 2 else None
    for k, m in enumerate(axes):
        fp, fm = f_axial[2 * k], f_axial[2 * k + 1]
        grad[m] = (fp - fm) / (2.0 * h[m])
        if hess is not None:
            hess[m, m] = (fp - 2.0 * f0 + fm) / h[m] ** 2
    for k, (m, n) in enumerate(pairs):
        pp, pm, mp, mm = f_mixed[4 * k: 4 * k + 4]
        hess[m, n] = hess[n, m] = (pp - pm - mp + mm) / (4.0 * h[m] * h[n])
    return JetValue(f0, grad, hess, None)


def finite_difference_derivatives(field, x):
    """Central-difference gradient and Hessian of a scalar field, at a point
    (4,) or at every row of an (N, 4) batch (batch axis last)."""
    jv = fd_jet(field, x, 2)
    return jv.grad, jv.hess


def check_fd_order(order):
    """The one order limit of ``fd_jet`` and ``engine.field_jets``."""
    if order > 2:
        raise EvalError("finite-difference mode does not carry third derivatives")


def fd_jet(field, x, order=2):
    """JetValue built from finite differences (orders 1 and 2 only), with
    the value and the stencil from one ``values`` call."""
    check_fd_order(order)
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    steps = FD_STEP_SCALE * np.maximum(1.0, np.abs(X))  # per point and axis
    jv = central_differences(field.values, X, field.axes, steps, order, value=True)
    if x.ndim == 2:
        return jv
    return JetValue(float(jv.value[0]), *(None if p is None else p[..., 0] for p in jv[1:]))
