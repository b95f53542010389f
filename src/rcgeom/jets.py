"""Truncated Taylor scalars carrying exact derivatives, up to third order.

A Jet holds the value of a scalar together with its gradient, Hessian, and
optionally third-derivative tensor with respect to the four chart
coordinates, at one point or at a batch of N points.  The derivative axes
come first and the batch axis last: at one point the value is a float and
the gradient has shape (4,); over a batch the value has shape (N,), the
gradient (4, N), the Hessian (4, 4, N), so plain broadcasting serves both.
Arithmetic and the supported elementary functions propagate every carried
order exactly, so results are correct to roundoff with no step size
anywhere.  Order 2 is the workhorse; order 3 exists for the few pipelines
that differentiate a computed field (current divergence, contracted Bianchi
identity).

At one point the elementary functions use ``math``.  Over a batch they check
the domain at every point first, so a bad point raises ``EvalError``
instead of leaving an inf or nan behind a numpy warning; batched jets then
use numpy, and plain value arrays apply ``math`` entry by entry.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import EvalError

DIM = 4

# Largest argument whose exponential is finite.
_EXP_MAX = math.log(sys.float_info.max)


def _outer(a, b):
    # a_i b_j, batch axes (if any) trailing
    return a[:, None] * b[None]


def _sym3(h, v):
    # h_ij v_k + h_ik v_j + h_jk v_i
    a = h[:, :, None] * v[None, None]
    batch = range(3, a.ndim)
    return a + a.transpose(0, 2, 1, *batch) + a.transpose(2, 0, 1, *batch)


def _readonly(arr):
    arr.flags.writeable = False
    return arr


# Shared seed templates, for one point and (with a trailing batch axis of
# length 1) for a batch.  Every arithmetic operation allocates fresh output
# arrays, so these are never written to.
_UNIT = _readonly(np.eye(DIM))
UNIT_ROWS = tuple(_UNIT)
ZERO_G = _readonly(np.zeros(DIM))
ZERO_H = _readonly(np.zeros((DIM, DIM)))
ZERO_T = _readonly(np.zeros((DIM, DIM, DIM)))
_UNIT_B = _readonly(np.eye(DIM)[:, :, None])
ZERO_G_B = _readonly(np.zeros((DIM, 1)))
ZERO_H_B = _readonly(np.zeros((DIM, DIM, 1)))
ZERO_T_B = _readonly(np.zeros((DIM, DIM, DIM, 1)))


def any_point(cond):
    """Truth of a per-point condition: the bool itself at one point, any()
    over a batch."""
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _first(v, bad):
    """The offending value: v itself at one point, the first bad entry of a batch."""
    return v[bad][0] if isinstance(v, np.ndarray) else v


def _each(fn, *args):
    """A math function at every entry of plain-value arrays.

    Plain arrays come from value-only batch evaluation (``ExprField.values``:
    stencils, domain predicates).  Entry by entry, those values match
    one-point evaluation bit for bit, which numpy's vectorised
    transcendental functions do not promise; the jets of a batch, whose
    values are not differenced, use numpy.
    """
    return np.frompyfunc(fn, len(args), 1)(*args).astype(float)


class Jet:
    """Scalar value plus derivatives along the 4 chart axes."""

    __slots__ = ("f", "g", "h", "t")

    def __init__(self, f, g, h=None, t=None):
        self.f = f
        self.g = g
        self.h = h
        self.t = t

    @property
    def order(self):
        if self.t is not None:
            return 3
        return 2 if self.h is not None else 1

    @staticmethod
    def seed(value, axis, order=2):
        """Jet representing the coordinate x_axis itself, at one point
        (a float value) or over a batch (an (N,) array of values)."""
        if isinstance(value, np.ndarray) and value.ndim:
            return Jet(
                value,
                _UNIT_B[axis],
                ZERO_H_B if order >= 2 else None,
                ZERO_T_B if order >= 3 else None,
            )
        return Jet(
            float(value),
            UNIT_ROWS[axis],
            ZERO_H if order >= 2 else None,
            ZERO_T if order >= 3 else None,
        )

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return Jet(
            -self.f,
            -self.g,
            None if self.h is None else -self.h,
            None if self.t is None else -self.t,
        )

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(
                self.f + o.f,
                self.g + o.g,
                None if self.h is None else self.h + o.h,
                None if self.t is None else self.t + o.t,
            )
        return Jet(self.f + o, self.g, self.h, self.t)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet):
            return Jet(
                self.f - o.f,
                self.g - o.g,
                None if self.h is None else self.h - o.h,
                None if self.t is None else self.t - o.t,
            )
        return Jet(self.f - o, self.g, self.h, self.t)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Jet):
            f = self.f * o.f
            g = self.g * o.f + o.g * self.f
            h = t = None
            if self.h is not None:
                h = (
                    self.h * o.f
                    + o.h * self.f
                    + _outer(self.g, o.g)
                    + _outer(o.g, self.g)
                )
            if self.t is not None:
                t = (
                    self.t * o.f
                    + o.t * self.f
                    + _sym3(self.h, o.g)
                    + _sym3(o.h, self.g)
                )
            return Jet(f, g, h, t)
        return Jet(
            self.f * o,
            self.g * o,
            None if self.h is None else self.h * o,
            None if self.t is None else self.t * o,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            return self * o._reciprocal()
        if o == 0.0:
            raise EvalError("division by zero")
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def __pow__(self, p):
        return jet_pow(self, p)

    def __rpow__(self, base):
        return jet_pow(base, self)

    def __repr__(self):
        return f"Jet({self.f!r}, order={self.order})"

    # -- composition with a smooth scalar function --------------------------

    def compose(self, d0, d1, d2=0.0, d3=0.0):
        """Chain rule for f = phi(u) given phi and its derivatives at u."""
        g = d1 * self.g
        h = t = None
        if self.h is not None:
            h = d1 * self.h + d2 * _outer(self.g, self.g)
        if self.t is not None:
            ggg = _outer(self.g, self.g)[:, :, None] * self.g[None, None]
            t = d1 * self.t + d2 * _sym3(self.h, self.g) + d3 * ggg
        return Jet(d0, g, h, t)

    def _reciprocal(self):
        v = self.f
        if (v == 0.0).any() if isinstance(v, np.ndarray) else v == 0.0:
            raise EvalError("division by zero")
        iv = 1.0 / v
        return self.compose(iv, -iv * iv, 2.0 * iv**3, -6.0 * iv**4)


# -- elementary functions, generic over float | array | Jet ------------------


def jet_sin(u):
    if isinstance(u, Jet):
        m = np if isinstance(u.f, np.ndarray) else math
        s, c = m.sin(u.f), m.cos(u.f)
        return u.compose(s, c, -s, -c)
    return _each(math.sin, u) if isinstance(u, np.ndarray) else math.sin(u)


def jet_cos(u):
    if isinstance(u, Jet):
        m = np if isinstance(u.f, np.ndarray) else math
        s, c = m.sin(u.f), m.cos(u.f)
        return u.compose(c, -s, -c, s)
    return _each(math.cos, u) if isinstance(u, np.ndarray) else math.cos(u)


def jet_tan(u):
    if isinstance(u, Jet):
        f = (np if isinstance(u.f, np.ndarray) else math).tan(u.f)
        s = 1.0 + f * f
        return u.compose(f, s, 2.0 * f * s, 2.0 * s * (s + 2.0 * f * f))
    return _each(math.tan, u) if isinstance(u, np.ndarray) else math.tan(u)


def jet_sinh(u):
    if isinstance(u, Jet):
        m = np if isinstance(u.f, np.ndarray) else math
        s, c = m.sinh(u.f), m.cosh(u.f)
        return u.compose(s, c, s, c)
    return _each(math.sinh, u) if isinstance(u, np.ndarray) else math.sinh(u)


def jet_cosh(u):
    if isinstance(u, Jet):
        m = np if isinstance(u.f, np.ndarray) else math
        s, c = m.sinh(u.f), m.cosh(u.f)
        return u.compose(c, s, c, s)
    return _each(math.cosh, u) if isinstance(u, np.ndarray) else math.cosh(u)


def jet_tanh(u):
    if isinstance(u, Jet):
        f = (np if isinstance(u.f, np.ndarray) else math).tanh(u.f)
        s = 1.0 - f * f
        return u.compose(f, s, -2.0 * f * s, -2.0 * s * (s - 2.0 * f * f))
    return _each(math.tanh, u) if isinstance(u, np.ndarray) else math.tanh(u)


def jet_exp(u):
    v = u.f if isinstance(u, Jet) else u
    if isinstance(v, np.ndarray):
        over = v > _EXP_MAX
        if over.any():
            raise EvalError(f"exp overflow at argument {_first(v, over)!r}")
        e = np.exp(v) if isinstance(u, Jet) else _each(math.exp, v)
    else:
        try:
            e = math.exp(v)
        except OverflowError as err:
            raise EvalError(f"exp overflow at argument {v!r}") from err
    if isinstance(u, Jet):
        return u.compose(e, e, e, e)
    return e


def jet_log(u):
    v = u.f if isinstance(u, Jet) else u
    bad = v <= 0.0
    if any_point(bad):
        raise EvalError(f"log of non-positive argument {_first(v, bad)!r}")
    if isinstance(u, Jet):
        log = (np if isinstance(v, np.ndarray) else math).log(v)
        iv = 1.0 / v
        return u.compose(log, iv, -iv * iv, 2.0 * iv**3)
    return _each(math.log, v) if isinstance(v, np.ndarray) else math.log(v)


def jet_sqrt(u):
    v = u.f if isinstance(u, Jet) else u
    bad = v < 0.0
    if any_point(bad):
        raise EvalError(f"sqrt of negative argument {_first(v, bad)!r}")
    if isinstance(u, Jet):
        if any_point(v == 0.0):
            raise EvalError("sqrt derivative singular at zero")
        r = (np if isinstance(v, np.ndarray) else math).sqrt(v)
        return u.compose(r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v))
    return _each(math.sqrt, v) if isinstance(v, np.ndarray) else math.sqrt(v)


def jet_pow(u, p):
    """u ** p for float, array or Jet operands."""
    if isinstance(p, Jet):
        return jet_exp(p * jet_log(u))
    if not isinstance(u, Jet):
        if isinstance(u, np.ndarray) or isinstance(p, np.ndarray):
            return _pow_batch(u, u, p)
        p = float(p)
        if u == 0.0 and p < 0.0:
            raise EvalError("zero raised to a negative power")
        if u < 0.0 and not p.is_integer():
            raise EvalError(f"fractional power of negative base {u!r}")
        return math.pow(u, p)

    v = u.f
    if isinstance(v, np.ndarray):
        return _pow_batch(u, v, p)
    p = float(p)
    if v == 0.0:
        if p == 0.0:
            return u.compose(1.0, 0.0)
        if p < 0.0:
            raise EvalError("zero raised to a negative power")
        if not p.is_integer():
            raise EvalError("fractional power of zero has singular derivatives")
        n = int(p)
        d = [0.0, 0.0, 0.0, 0.0]
        if n <= 3:
            d[n] = float(math.factorial(n))
        return u.compose(*d)
    if v < 0.0 and not p.is_integer():
        raise EvalError(f"fractional power of negative base {v!r}")

    c1 = p
    c2 = p * (p - 1.0)
    c3 = c2 * (p - 2.0)
    d0 = v**p
    d1 = 0.0 if c1 == 0.0 else c1 * v ** (p - 1.0)
    d2 = 0.0 if c2 == 0.0 else c2 * v ** (p - 2.0)
    d3 = 0.0 if c3 == 0.0 else c3 * v ** (p - 3.0)
    return u.compose(d0, d1, d2, d3)


def _pow_batch(u, v, p):
    """jet_pow over a batch: the one-point domain rules at every point.

    A Jet base comes with a constant exponent (a coordinate-dependent one is
    a Jet itself); a plain array base or exponent comes from value-only
    evaluation.  At a zero base with a non-negative integer exponent the
    general derivative formula reproduces n! in slot n, because each power
    it raises zero to is non-negative.
    """
    fractional = np.floor(p) != p
    if any_point((v == 0.0) & (p < 0.0)):
        raise EvalError("zero raised to a negative power")
    bad = (v < 0.0) & fractional
    if any_point(bad):
        raise EvalError(f"fractional power of negative base {_first(v, bad)!r}")
    if not isinstance(u, Jet):
        return _each(math.pow, v, p)
    if any_point((v == 0.0) & fractional):
        raise EvalError("fractional power of zero has singular derivatives")
    p = float(p)
    c1 = p
    c2 = p * (p - 1.0)
    c3 = c2 * (p - 2.0)
    d0 = np.power(v, p)
    d1 = 0.0 if c1 == 0.0 else c1 * np.power(v, p - 1.0)
    d2 = 0.0 if c2 == 0.0 else c2 * np.power(v, p - 2.0)
    d3 = 0.0 if c3 == 0.0 else c3 * np.power(v, p - 3.0)
    return u.compose(d0, d1, d2, d3)


FUNCTIONS = {
    "sin": jet_sin,
    "cos": jet_cos,
    "tan": jet_tan,
    "sinh": jet_sinh,
    "cosh": jet_cosh,
    "tanh": jet_tanh,
    "exp": jet_exp,
    "log": jet_log,
    "sqrt": jet_sqrt,
}
