"""Differentiable scalar fields over a chart.

The default evaluation path pushes truncated Taylor carriers (jets) through
the expression tree, giving exact gradients and Hessians (and third
derivatives on request).  A central finite-difference fallback exists for
cross-validation of the dual-number engine.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import expr
from .errors import EvalError
from .jets import DIM, ZERO_G, ZERO_H, ZERO_T, Jet

JetValue = namedtuple("JetValue", "value grad hess third")

FD_STEP_SCALE = 1e-4


def _expand(result, order):
    """Promote a constant (plain float) evaluation result to jet arrays.

    The zero arrays are shared and read-only; callers copy out of them.
    """
    if isinstance(result, Jet):
        hess = result.h if order >= 2 else None
        third = result.t if order >= 3 else None
        return JetValue(result.f, result.g, hess, third)
    return JetValue(
        float(result),
        ZERO_G,
        ZERO_H if order >= 2 else None,
        ZERO_T if order >= 3 else None,
    )


def make_seeds(x, order):
    """Coordinate jets for one evaluation point, shareable across fields."""
    return [Jet.seed(x[i], i, order) for i in range(DIM)]


def _check_finite(jv, name, x):
    ok = np.isfinite(jv.value) and np.all(np.isfinite(jv.grad))
    if ok and jv.hess is not None:
        ok = bool(np.all(np.isfinite(jv.hess)))
    if ok and jv.third is not None:
        ok = bool(np.all(np.isfinite(jv.third)))
    if not ok:
        raise EvalError(f"non-finite result for field {name!r} at {tuple(x)}")
    return jv


class ExprField:
    """Scalar field defined by an expression with bound parameters."""

    __slots__ = ("ast", "chart", "params", "name", "_const_value")

    def __init__(self, src, chart, params=None, name=""):
        self.ast = expr.parse(src, chart, params or {}) if isinstance(src, str) else src
        self.chart = chart
        self.params = dict(params or {})
        self.name = name or (src if isinstance(src, str) else expr.to_source(src))
        self._const_value = None
        if not expr.references_coordinates(self.ast):
            self._const_value = float(expr.evaluate(self.ast, (0.0,) * DIM, self.params))

    def __repr__(self):
        return f"ExprField({self.name!r})"

    def value(self, x):
        if self._const_value is not None:
            return self._const_value
        v = expr.evaluate(self.ast, [float(c) for c in x], self.params)
        if not np.isfinite(v):
            raise EvalError(f"non-finite value for field {self.name!r} at {tuple(x)}")
        return float(v)

    def jet_unchecked(self, x, order=2, seeds=None):
        """Jet evaluation without the finiteness sweep (the caller checks)."""
        if self._const_value is not None:
            return _expand(self._const_value, order)
        if seeds is None:
            seeds = make_seeds(x, order)
        return _expand(expr.evaluate(self.ast, seeds, self.params), order)

    def jet(self, x, order=2):
        return _check_finite(self.jet_unchecked(x, order), self.name, x)

    def eval_with_derivatives(self, x):
        jv = self.jet(x, order=2)
        return jv.value, jv.grad, jv.hess


class ShiftedPotentialField:
    """Potential component after a gauge shift: base + d(phi)/dx_axis.

    Derivatives of order n require phi to order n+1, which the expression
    backend supplies up to n = 2.
    """

    __slots__ = ("base", "phi", "axis", "name")

    def __init__(self, base, phi, axis, name=""):
        self.base = base
        self.phi = phi
        self.axis = axis
        self.name = name or f"{getattr(base, 'name', 'A')}+grad(phi)[{axis}]"

    def __repr__(self):
        return f"ShiftedPotentialField({self.name!r})"

    def value(self, x):
        return self.base.value(x) + self.phi.jet(x, order=1).grad[self.axis]

    def jet_unchecked(self, x, order=2, seeds=None):
        if order > 2:
            raise EvalError(
                "gauge-shifted potentials carry derivatives only to 2nd order"
            )
        b = self.base.jet_unchecked(x, order)
        p = self.phi.jet_unchecked(x, order + 1)
        a = self.axis
        value = b.value + p.grad[a]
        grad = b.grad + p.hess[a]
        hess = None if b.hess is None else b.hess + p.third[a]
        return JetValue(value, grad, hess, None)

    def jet(self, x, order=2):
        return _check_finite(self.jet_unchecked(x, order), self.name, x)


def fd_steps(x, h=None):
    """Per-axis step: h or the default 1e-4 * max(1, |x_mu|)."""
    if h is not None:
        return np.full(DIM, float(h))
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))


def finite_difference_derivatives(field, x, h=None):
    """Central-difference gradient and Hessian of a scalar field."""
    x = np.asarray(x, dtype=float)
    steps = fd_steps(x, h)
    f = field.value

    grad = np.zeros(DIM)
    hess = np.zeros((DIM, DIM))
    f0 = f(x)
    for m in range(DIM):
        e = np.zeros(DIM)
        e[m] = steps[m]
        fp, fm = f(x + e), f(x - e)
        grad[m] = (fp - fm) / (2.0 * steps[m])
        hess[m, m] = (fp - 2.0 * f0 + fm) / steps[m] ** 2
    for m in range(DIM):
        for n in range(m + 1, DIM):
            em = np.zeros(DIM)
            en = np.zeros(DIM)
            em[m] = steps[m]
            en[n] = steps[n]
            val = (
                f(x + em + en) - f(x + em - en) - f(x - em + en) + f(x - em - en)
            ) / (4.0 * steps[m] * steps[n])
            hess[m, n] = hess[n, m] = val
    return grad, hess


def fd_jet(field, x, order=2, h=None):
    """JetValue built from finite differences (orders 1 and 2 only)."""
    if order > 2:
        raise EvalError("finite-difference mode carries derivatives only to 2nd order")
    x = np.asarray(x, dtype=float)
    if order == 1:
        steps = fd_steps(x, h)
        grad = np.zeros(DIM)
        for m in range(DIM):
            e = np.zeros(DIM)
            e[m] = steps[m]
            grad[m] = (field.value(x + e) - field.value(x - e)) / (2.0 * steps[m])
        return JetValue(field.value(x), grad, None, None)
    grad, hess = finite_difference_derivatives(field, x, h)
    return JetValue(field.value(x), grad, hess, None)
