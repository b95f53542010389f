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

Each elementary function is one entry of ``_TABLE``: a derivative rule,
written once for ``math`` and numpy, and a domain rule, the tests and
messages that explain a failed evaluation.  One dispatcher (``_apply``)
serves four routes: a Jet of a float runs the rule with ``math``, a Jet of an
array with numpy, a plain float takes the ``math`` function and a plain array
applies it entry by entry (``_each``), since value-only evaluation (stencils,
domain predicates) must match one-point values bit for bit, which numpy does
not promise.  Every route raises where it fails, numpy too, and a failed array
is evaluated again entry by entry, so it raises the ``EvalError`` of its first
bad entry.  ``jet_pow`` takes the same dispatcher for ``^``, after its domain
rules.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvalError, raise_at

DIM = 4


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
        if self.h is None:  # order 1: the higher derivatives are not used
            return self.compose(iv, -iv * iv)
        return self.compose(iv, -iv * iv, 2.0 * _power(iv, 3),
                            0.0 if self.t is None else -6.0 * _power(iv, 4))


def _power(x, k):
    """x ** k for an integer k.  A float that overflows gives +-inf, as an
    array entry does, for the caller's finiteness check to report."""
    try:
        return x**k
    except OverflowError:
        return math.copysign(math.inf, x) ** k


# -- elementary functions: one rule each, one dispatcher ----------------------

# What a failed evaluation raises: math's errors, and numpy's under _RAISE.
_MATH_ERRORS = (ArithmeticError, ValueError)
_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}


def _entries(f, message, *args):
    """[f(*entry) for each entry of the broadcast args], on plain floats; the
    first entry at which f fails raises ``EvalError(message(*entry))``.

    A failed evaluation takes this route: an array raises the error of its
    first bad entry, or, where numpy failed only in an intermediate product
    (which overflows quietly on floats), gets its entries' values.
    """
    out = []
    for entry in zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*args))):
        try:
            out.append(f(*entry))
        except _MATH_ERRORS:
            raise EvalError(message(*entry)) from None
    return out


def _apply(plain, rule, message, u, *args):
    """A function over a float, an array of values or a Jet of either, with
    constant further arguments ``args``: ``plain(u, *args)`` on floats,
    entry by entry over arrays; a Jet composes with ``rule(m, v, n, *args)``,
    its value and derivatives at v for m = math or numpy and n the Jet's
    order.  A failed evaluation is evaluated again entry by entry, and the
    first bad entry raises ``EvalError(message(*entry))``."""
    if not isinstance(u, Jet):
        try:
            if isinstance(u, np.ndarray) or args and isinstance(args[0], np.ndarray):
                return _each(plain, u, *args)
            return plain(u, *args) if args else plain(u)  # a call with * is slower
        except _MATH_ERRORS:
            return np.array(_entries(plain, message, u, *args))
    v = u.f
    n = u.order
    try:
        if isinstance(v, np.ndarray):
            with np.errstate(**_RAISE):
                d = rule(np, v, n, *args)
        else:
            d = rule(math, v, n, *args)
    except _MATH_ERRORS:
        d = np.array(_entries(lambda x: rule(math, x, n, *args), message, v)).T
    d0, d1, d2, d3 = d  # compose(*d) costs a slower call
    return u.compose(d0, d1, d2, d3)


def _elementary(name, rule, domain):
    """The elementary function ``name`` over a float, an array of values or a
    Jet of either, from its ``_TABLE`` entry.  A failure is explained by the
    first domain rule that holds at the bad value, else as an overflow."""
    plain = getattr(math, name)
    overflow = f"{name} overflow at argument {{!r}}"

    def message(x):
        return next((m for bad, m in domain if bad(x)), overflow).format(x)

    def apply(u):
        return _apply(plain, rule, message, u)

    return apply


# Each entry: name, derivative rule (m, v, n) -> (f, f', f'', f''') with m =
# math or numpy and n the jet's order, domain rule as (test, message) pairs.
# A derivative above order n is 0.0, never computed, so that an unused term
# cannot fail.  The cos and cosh rules call sin and sinh first, as the sin and
# sinh rules do.  Overflow needs no rule: it is the failure that no rule
# explains.
_TABLE = (
    ("sin", lambda m, v, n: (s := m.sin(v), c := m.cos(v), -s, -c),
     ((np.isinf, "sin of infinite argument {!r}"),)),
    ("cos", lambda m, v, n: (s := m.sin(v), c := m.cos(v)) and (c, -s, -c, s),
     ((np.isinf, "cos of infinite argument {!r}"),)),
    ("tan", lambda m, v, n: (f := m.tan(v), s := 1.0 + f * f,
                             2.0 * f * s if n > 1 else 0.0,
                             2.0 * s * (s + 2.0 * f * f) if n > 2 else 0.0),
     ((np.isinf, "tan of infinite argument {!r}"),)),
    ("sinh", lambda m, v, n: (s := m.sinh(v), c := m.cosh(v), s, c), ()),
    ("cosh", lambda m, v, n: (s := m.sinh(v), c := m.cosh(v)) and (c, s, c, s), ()),
    ("tanh", lambda m, v, n: (f := m.tanh(v), s := 1.0 - f * f,
                              -2.0 * f * s if n > 1 else 0.0,
                              -2.0 * s * (s - 2.0 * f * f) if n > 2 else 0.0), ()),
    ("exp", lambda m, v, n: (e := m.exp(v), e, e, e), ()),
    ("log", lambda m, v, n: (m.log(v), iv := 1.0 / v, -iv * iv if n > 1 else 0.0,
                             2.0 * iv**3 if n > 2 else 0.0),
     ((lambda v: v <= 0.0, "log of non-positive argument {!r}"),)),
    ("sqrt", lambda m, v, n: (r := m.sqrt(v), 0.5 / r, -0.25 / (r * v) if n > 1 else 0.0,
                              0.375 / (r * v * v) if n > 2 else 0.0),
     ((lambda v: v < 0.0, "sqrt of negative argument {!r}"),
      (lambda v: v == 0.0, "sqrt derivative singular at zero"))),
)
FUNCTIONS = {name: _elementary(name, rule, domain) for name, rule, domain in _TABLE}


# u ** p, tested in this order, the last for a Jet's derivatives only; what
# fails after them overflowed.
_POW_DOMAIN = (
    (lambda v, p: (v == 0.0) & (p < 0.0), "zero raised to a negative power"),
    (lambda v, p: (v < 0.0) & (np.floor(p) != p), "fractional power of negative base {!r}"),
    (lambda v, p: (v == 0.0) & (np.floor(p) != p),
     "fractional power of zero has singular derivatives"),
)
_POW_OVERFLOW = "power overflow at base {!r}".format


def _pow_terms(m, v, order, p):
    """v ** p and its derivatives up to ``order`` (0.0 above it, never
    computed), the ``_apply`` rule of ``jet_pow``, with ``m.pow`` (numpy's
    ``power``) for m = math, numpy or the recording's tape.  At a zero base
    with a non-negative integer exponent this gives n! in slot n, because
    each power of zero it takes is non-negative."""
    power = m.power if m is np else m.pow
    c1 = p
    c2 = p * (p - 1.0)
    c3 = c2 * (p - 2.0)
    return (
        power(v, p),
        0.0 if c1 == 0.0 else c1 * power(v, p - 1.0),
        0.0 if order < 2 or c2 == 0.0 else c2 * power(v, p - 2.0),
        0.0 if order < 3 or c3 == 0.0 else c3 * power(v, p - 3.0),
    )


def jet_pow(u, p):
    """u ** p for float, array or Jet operands.

    A Jet base comes with a constant exponent; a coordinate-dependent one is
    a Jet itself, raised as exp(p log u).  A plain array base or exponent
    comes from value-only evaluation.  Every domain rule concerns a base
    <= 0, so a positive base skips them.
    """
    if isinstance(p, Jet):
        return FUNCTIONS["exp"](p * FUNCTIONS["log"](u))
    jet = isinstance(u, Jet)
    v = u.f if jet else u
    if np.any(v <= 0.0) if isinstance(v, np.ndarray) or isinstance(p, np.ndarray) else v <= 0.0:
        for bad, message in _POW_DOMAIN if jet else _POW_DOMAIN[:2]:
            b = np.ravel(bad(v, p))
            if b.any():  # the note gives the value as a plain float
                raise_at(b, None, EvalError, message, np.broadcast_to(v, b.shape).tolist())
    return _apply(math.pow, _pow_terms, _POW_OVERFLOW, u, p)
