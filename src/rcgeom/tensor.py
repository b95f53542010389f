"""The metric at every point of a batch, validated on construction, and the
contractions of per-point tensors over a leading point axis.

``batched_einsum`` takes subscripts written as at one point ("la,na->nl").
On first use each subscripts string gets a plan, kept in ``_PLANS``: the
operands are contracted pairwise, and a pairwise step that is a matrix
product at each point is one stacked ``np.matmul`` over the point axis, its
operands transposed and reshaped into (point, batch, left, summed) and
(point, batch, summed, right) matrices.  A step that sums nothing, a dot or
matrix-vector product and a single-operand trace stay ``np.einsum``; an
operand of several that repeats an index, or sums one that no other reads,
raises ``ValueError``.  Each point's matrices have the shapes and strides
they have in a batch of one, so a row of a batch has the bits of that point
taken as a batch of one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, SignatureError, raise_at

DIM = 4

_SYMMETRY_TOL = 1e-12
_INVERSE_TOL = 1e-12
DEGENERACY_TOL = 1e-10


# The metric's faults, each worded once, checked in the order symmetry, degeneracy,
# determinant sign, eigenvalue signs, inverse; each names the first point of x at fault.

def _nondegenerate(g, det, x):
    # |det g| < DEGENERACY_TOL * max(1, max|g|)^4, the max over each 4x4 of g
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
    raise_at(np.abs(det) < DEGENERACY_TOL * scale**4, x, MetricError,
             "metric is numerically degenerate (det={:.3e})", det)


def metric_inverse(g, det, x=None):
    """g^{-1} at every point, where g is not numerically degenerate."""
    _nondegenerate(g, det, x)
    return np.linalg.inv(g)


def volume_factor(g, det, x=None):
    """sqrt(-det g) at every point, where g is not degenerate and det g < 0."""
    _nondegenerate(g, det, x)
    raise_at(det >= 0.0, x, SignatureError, "metric determinant must be negative, got {:.3e}", det)
    return np.sqrt(-det)


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric, inverse, determinant and volume factor at every point of a
    batch: a leading point axis, and one determinant per point.  A single
    4x4 metric is read as a batch of one."""

    matrix: np.ndarray
    inverse: np.ndarray
    det_g: np.ndarray
    sqrt_neg_det: np.ndarray

    @classmethod
    def from_components(cls, g):
        g = np.asarray(g, dtype=float)
        if g.shape[-2:] != (DIM, DIM) or g.ndim not in (2, 3):
            raise MetricError(f"metric must be 4x4, got shape {g.shape}")
        g = g.reshape(-1, DIM, DIM)
        bound = _SYMMETRY_TOL * np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
        asym = np.abs(g - np.swapaxes(g, -1, -2)).max(axis=(-2, -1))
        raise_at(asym > bound, None, MetricError, "metric components are not symmetric")
        det = np.linalg.det(g)
        return cls.assemble(g, metric_inverse(g, det), det, volume_factor(g, det))

    @classmethod
    def assemble(cls, g, inv, det, sqrt_neg_det, x=None):
        """The metric from symmetric g and its checked parts, once eigenvalues and inverse hold."""
        eig = np.linalg.eigvalsh(g)
        wrong = ((eig > 0).sum(axis=-1) != 1) | ((eig < 0).sum(axis=-1) != 3)
        raise_at(wrong, x, SignatureError, "metric eigenvalue signs are not (+,-,-,-): {}", eig)
        err = np.abs(inv @ g - np.eye(DIM)).max(axis=(-2, -1))
        raise_at(err > _INVERSE_TOL, x, MetricError, "inverse metric failed the identity check")
        return cls(matrix=g, inverse=inv, det_g=det, sqrt_neg_det=sqrt_neg_det)


# subscripts -> the plan that contracts them over a leading point axis;
# filled on first use, bounded by the subscripts written in the package.
_PLANS = {}


def batched_einsum(subscripts, *operands):
    """np.einsum of per-point tensors, written as at one point ("ma,ab->mb"),
    over a leading point axis.

    Three or more operands are contracted pairwise along the greedy path
    that ``np.einsum_path`` picks once per subscripts from the tensors of the
    first point: the point axis scales every pairwise cost alike, so the
    path, and with it every result, does not depend on the batch size or on
    which batch came first.  A matmul step keeps the index sizes of the
    first call and raises on others.
    """
    plan = _PLANS.get(subscripts)
    if plan is None:
        plan = _PLANS[subscripts] = _plan(subscripts, operands)
    return plan(*operands)


def _plan(subscripts, operands):
    ins, out = subscripts.split("->")
    ins = ins.split(",")
    if len(ins) == 1:
        return functools.partial(np.einsum, f"...{ins[0]}->...{out}")
    size = {c: n for s, op in zip(ins, operands) for c, n in zip(s, op.shape[1:])}
    for k, s in enumerate(ins):
        rest = out + "".join(ins[:k] + ins[k + 1:])
        if len(set(s)) < len(s) or not set(s) <= set(rest):
            raise ValueError(f"{subscripts}: operand {s!r} repeats an index or sums one "
                             "that no other operand reads")
    path = [(0, 1)]
    if len(ins) > 2:
        path = np.einsum_path(subscripts, *(op[0] for op in operands), optimize="greedy")[0][1:]
    steps = []
    for pos in path:
        # the pair leaves the operand list and its product joins the end
        i, j = sorted(pos)
        b, a = ins.pop(j), ins.pop(i)
        step, res = _pair(a, b, out + "".join(ins), size, None if ins else out)
        steps.append((i, j, step))
        ins.append(res)
    if len(steps) == 1:
        return step

    def run(*ops):
        ops = list(ops)
        for i, j, step in steps:
            b, a = ops.pop(j), ops.pop(i)
            ops.append(step(a, b))
        return ops[0]

    return run


def _pair(a, b, keep, size, out):
    """The step that contracts operands with indices ``a`` and ``b``, keeping
    the indices in ``keep``, and the indices of its result: ``out`` when it
    is given, else the shared kept ones, then a's own, then b's own."""
    batch = [c for c in a if c in b and c in keep]
    summed = [c for c in a if c in b and c not in keep]
    left = [c for c in a if c not in b]
    right = [c for c in b if c not in a]
    res = "".join(batch + left + right)
    if not (summed and left and right):
        # A step that sums nothing has one product per entry, whatever the
        # route.  A dot or a matrix-vector product would pay a BLAS call per
        # point for a few products; einsum's own loop is quicker there.
        res = res if out is None else out
        return functools.partial(np.einsum, f"...{a},...{b}->...{res}"), res

    nb, nl, ns, nr = (math.prod(size[c] for c in cs) for cs in (batch, left, summed, right))
    ta, tb = _axes(a, batch + left + summed), _axes(b, batch + summed + right)
    dims = tuple(size[c] for c in res)
    back = None if out is None else _axes(res, out)
    shapes = (tuple(size[c] for c in a), tuple(size[c] for c in b))

    def step(x, y):
        if (x.shape[1:], y.shape[1:]) != shapes:
            raise ValueError(f"{a},{b} was planned for shapes {shapes}, "
                             f"got {x.shape[1:]} and {y.shape[1:]}")
        if ta is not None:
            x = x.transpose(ta)
        if tb is not None:
            y = y.transpose(tb)
        z = np.matmul(x.reshape(len(x), nb, nl, ns), y.reshape(len(y), nb, ns, nr))
        z = z.reshape((len(z),) + dims)
        return z if back is None else z.transpose(back)

    return step, res if out is None else out


def _axes(s, order):
    """The axes that take a point's indices ``s`` to ``order``, after the
    point axis; None when that is no move."""
    axes = [0] + [1 + s.index(c) for c in order]
    return None if axes == sorted(axes) else axes


# (subscripts, letters) -> the Leibniz terms of that derivative, each as
# (subscripts, derivative order of every operand); filled on first use.
_LEIBNIZ = {}


def _leibniz(subscripts, jets, letters):
    """The Leibniz terms of d_{letters} of batched_einsum(subscripts, *values).

    ``jets`` holds each operand's (value, d, dd, ...), a derivative's index in
    front, as the ``letters`` lead the terms' indices.  Each letter, the last
    first, differentiates every term in each operand in turn: d_j d_k of
    "a,b" gives a_jk b, a_k b_j, a_j b_k, a b_jk, in that order.
    """
    terms = _LEIBNIZ.get((subscripts, letters))
    if terms is None:
        ins, out = subscripts.split("->")
        base = ins.split(",")
        subs = [base]
        for c in reversed(letters):
            subs = [t[:i] + [c + t[i]] + t[i + 1:] for t in subs for i in range(len(t))]
        # an operand's derivative order is the number of letters put in front of it
        terms = _LEIBNIZ[subscripts, letters] = [
            (",".join(t) + "->" + letters + out, [len(a) - len(b) for a, b in zip(t, base)])
            for t in subs
        ]
    for term, orders in terms:
        yield batched_einsum(term, *map(operator.getitem, jets, orders))


def _total(terms):
    # a + b + c, left to right; sum() would add a 0 first, turning -0.0 into 0.0
    return functools.reduce(operator.add, terms)


def max_abs(a):
    """max |a| over the tensor axes: one value per point."""
    return np.abs(a).reshape(len(a), -1).max(axis=1)


def _outer(a, b):
    # a_i b_j at every point
    return a[..., :, None] * b[..., None, :]
