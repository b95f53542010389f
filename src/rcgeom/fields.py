"""Differentiable scalar fields over a chart.

An ``ExprField`` folds its expression once, at construction
(``expr.fold``): parameter-only subtrees become numbers, and a field with
no coordinate left in it is a constant (``const``), whose derivatives are
zero.  Every evaluation runs the folded tree through ``expr.evaluate``; the
default path pushes truncated Taylor carriers (jets) through it, giving
exact gradients and Hessians (and third derivatives on request).  A central
finite-difference fallback exists for cross-validation of the dual-number
engine.

Every evaluation accepts a batch, shape (N, 4), or one point, shape (4,).
Batched jets keep the batch axis last (value (N,), gradient (4, N), Hessian
(4, 4, N)), as in ``jets``; one point gives plain one-point jets (a float
value, a (4,) gradient), the reference that ``expr.compile_one_point``
mirrors.  ``engine.field_jets`` runs the batched jets for every batch, a
batch of one included.  ``values`` evaluates a batch of one on floats
(``math``), with the bits of the array route.  Stencils evaluate every
stencil point of every point in one ``values`` call, whose values equal
the one-point ``value`` bit for bit, so a stencil over a batch gives what
it gives point by point.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from . import expr
from .errors import EvalError, batch_then_rows, point_text
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


def make_seeds(x, order):
    """Coordinate jets (``Jet.seed``) for one point, of its floats, or for a
    batch of points, of its columns; shareable across fields."""
    x = np.asarray(x, dtype=float)
    coords = np.ascontiguousarray(x.T) if x.ndim == 2 else x.tolist()
    return [Jet.seed(c, i, order) for i, c in enumerate(coords)]


def _check_finite(jv, name, x):
    """jv if every part of it is finite; else an EvalError naming the point,
    or the first point of a batch where some part is not finite."""
    parts = [p for p in jv if p is not None]
    if all(np.isfinite(p).all() for p in parts):
        return jv
    if np.ndim(x) == 2:
        # a part carries the batch axis last, of length N or (a template) 1
        finite = [np.isfinite(p).reshape(-1, np.shape(p)[-1]).all(axis=0) for p in parts]
        x = x[np.argmin(np.logical_and.reduce(np.broadcast_arrays(*finite)))]
    raise EvalError(f"non-finite result for field {name!r} at {point_text(x)}")


def _check_values(v, name, X):
    bad = ~np.isfinite(v)
    if bad.any():
        raise EvalError(f"non-finite value for field {name!r} at {point_text(X[bad][0])}")
    return v


class ExprField:
    """Scalar field defined by an expression with bound parameters.

    ``tree`` is the folded expression (``expr.fold``), which ``value``,
    ``values`` and ``jet_unchecked`` evaluate; ``axes`` holds the chart
    indices it reads (``expr.axes``), and ``const`` is the field's value
    when it reads none, else None.
    """

    __slots__ = ("ast", "tree", "chart", "params", "name", "axes", "const")

    def __init__(self, src, chart, params=None, name=""):
        self.ast = expr.parse(src, chart, params or {}) if isinstance(src, str) else src
        self.chart = chart
        self.params = dict(params or {})
        self.name = name or (src if isinstance(src, str) else expr.to_source(src))
        self.tree = expr.fold(self.ast, self.params)
        self.axes = expr.axes(self.tree)
        self.const = None
        if not self.axes:  # a value, or a subtree that did not fold raises
            self.const = float(expr.evaluate(self.tree, (), self.params))

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
        return np.asarray(batch_then_rows(
            lambda: _check_values(
                expr.evaluate(self.tree, list(np.ascontiguousarray(X.T)), self.params), self.name, X),
            X, self.value))

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
        where = point_text(np.ravel(x)) if np.size(x) == DIM else f"one of {len(x)} points"
        raise EvalError(f"gauge function {phi.name!r} at {where}: {err}") from None
    return _check_finite(jv, phi.name, x) if check else jv


def axes_of(field):
    """The chart indices a field reads; all four for a field without a tree."""
    return getattr(field, "axes", frozenset(range(DIM)))


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
        return axes_of(self.base) | axes_of(self.phi)

    def value(self, x):
        return self.base.value(x) + gauge_function_jet(self.phi, x, 1, check=True).grad[self.axis]

    def values(self, X):
        """Values at the N rows of an (N, 4) array from one batched phi jet.

        Each row's value depends on that row alone (numpy's vectorised
        functions give every entry the same bits whatever the array length),
        so a stencil gives the same bits over a batch as at one point, both
        coming through here; it agrees with ``value`` to roundoff.  An
        evaluation error or a non-finite result re-evaluates row by row, so
        the error is the one ``value`` meets at the first bad row.
        """
        X = np.asarray(X, dtype=float)

        def batch():
            p = gauge_function_jet(self.phi, X, 1)
            if not (np.isfinite(p.value).all() and np.isfinite(p.grad).all()):
                raise EvalError(f"non-finite gauge function jet for field {self.name!r}")
            return self.base.values(X) + p.grad[self.axis]

        return np.asarray(batch_then_rows(batch, X, self.value))

    def jet_unchecked(self, x, order=2, seeds=None):
        if order > 2:
            raise EvalError(
                "gauge-shifted potentials carry derivatives only to 2nd order"
            )
        b = self.base.jet_unchecked(x, order)
        p = gauge_function_jet(self.phi, x, order + 1)
        a = self.axis
        value = b.value + p.grad[a]
        grad = b.grad + p.hess[a]
        hess = None if b.hess is None else b.hess + p.third[a]
        return JetValue(value, grad, hess, None)

    def jet(self, x, order=2):
        return _check_finite(self.jet_unchecked(x, order), self.name, x)


def _fd_batch(field, X, order):
    """Stencil value, gradient and (order 2) Hessian at every row of X,
    batch axis last as in jets.

    Only the axes the field reads (``axes_of``) are differenced: every
    entry along another axis is exactly 0, as in a jet, where a mixed
    difference across it would leave roundoff.  All stencil points of all
    rows go through one ``values`` call, in the order the one-point
    difference quotients visit them (the centre first at order 2, last at
    order 1), so the first bad stencil point is the one reported.
    """
    axes = sorted(axes_of(field))
    steps = FD_STEP_SCALE * np.maximum(1.0, np.abs(X))  # per axis and point
    shift = {m: np.zeros_like(X) for m in axes}
    for m, e in shift.items():
        e[:, m] = steps[:, m]
    axial = []
    for m in axes:
        axial += [X + shift[m], X - shift[m]]
    pairs = list(itertools.combinations(axes, 2)) if order >= 2 else []
    mixed = []
    for m, n in pairs:
        em, en = shift[m], shift[n]
        mixed += [X + em + en, X + em - en, X - em + en, X - em - en]
    pts = [X] + axial + mixed if order >= 2 else axial + [X]
    f = field.values(np.concatenate(pts)).reshape(len(pts), len(X))
    if order >= 2:
        f0, f_axial, f_mixed = f[0], f[1:1 + len(axial)], f[1 + len(axial):]
    else:
        f0, f_axial = f[-1], f[:-1]

    grad = np.zeros((DIM, len(X)))
    hess = np.zeros((DIM, DIM, len(X))) if order >= 2 else None
    for k, m in enumerate(axes):
        fp, fm = f_axial[2 * k], f_axial[2 * k + 1]
        grad[m] = (fp - fm) / (2.0 * steps[:, m])
        if hess is not None:
            hess[m, m] = (fp - 2.0 * f0 + fm) / steps[:, m] ** 2
    for k, (m, n) in enumerate(pairs):
        pp, pm, mp, mm = f_mixed[4 * k: 4 * k + 4]
        hess[m, n] = hess[n, m] = (pp - pm - mp + mm) / (4.0 * steps[:, m] * steps[:, n])
    return JetValue(f0, grad, hess, None)


def _one_point(jv):
    return JetValue(float(jv.value[0]), jv.grad[:, 0],
                    None if jv.hess is None else jv.hess[:, :, 0], None)


def finite_difference_derivatives(field, x):
    """Central-difference gradient and Hessian of a scalar field, at a point
    (4,) or at every row of an (N, 4) batch (batch axis last)."""
    jv = fd_jet(field, x, 2)
    return jv.grad, jv.hess


def fd_jet(field, x, order=2):
    """JetValue built from finite differences (orders 1 and 2 only)."""
    if order > 2:
        raise EvalError("finite-difference mode carries derivatives only to 2nd order")
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return _fd_batch(field, x, order)
    return _one_point(_fd_batch(field, x[None], order))
