"""The metric at every point of a batch, validated on construction, and the
contractions of per-point tensors over a leading point axis.

``batched_einsum`` takes subscripts written as at one point ("la,na->nl").
On first use each subscripts string gets a plan, kept in ``_PLANS``: the
operands are contracted pairwise, and a pairwise step that is a matrix
product at each point is one stacked ``np.matmul`` over the point axis, its
operands transposed and reshaped into (point, batch, left, summed) and
(point, batch, summed, right) matrices.  A step that sums nothing, a dot or
matrix-vector product, a single-operand trace, and an index summed or
repeated within one operand stay ``np.einsum``.  Each point's matrices have
the shapes and strides they have in a batch of one, so a row of a batch has
the bits of that point taken as a batch of one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, SignatureError

DIM = 4

_SYMMETRY_TOL = 1e-12
_INVERSE_TOL = 1e-12
DEGENERACY_TOL = 1e-10


def first_bad(bad, *values):
    """None when no point of the (N,) bool array ``bad`` is bad; else the
    values at the first bad point."""
    if not np.count_nonzero(bad):
        return None
    i = int(np.argmax(bad))
    return tuple(v[i] for v in values)


def degenerate(det, g):
    """Where a metric is numerically degenerate: |det g| < DEGENERACY_TOL *
    max(1, max|g|)^4, with the max over each 4x4 of g (..., 4, 4) and det
    of the shape before them; a bool array of that shape."""
    scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
    return np.abs(det) < DEGENERACY_TOL * scale**4


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
        scale = np.maximum(1.0, np.abs(g).max(axis=(-2, -1)))
        asym = np.abs(g - np.swapaxes(g, -1, -2)).max(axis=(-2, -1))
        if first_bad(asym > _SYMMETRY_TOL * scale, asym):
            raise MetricError("metric components are not symmetric")
        det = np.linalg.det(g)
        if hit := first_bad(degenerate(det, g), det):
            raise MetricError(f"metric is numerically degenerate (det={hit[0]:.3e})")
        if hit := first_bad(det >= 0.0, det):
            raise SignatureError(f"metric determinant must be negative, got {hit[0]:.3e}")
        eig = np.linalg.eigvalsh(g)
        wrong = ((eig > 0).sum(axis=-1) != 1) | ((eig < 0).sum(axis=-1) != 3)
        if hit := first_bad(wrong, eig):
            raise SignatureError(
                f"metric eigenvalue signs are not (+,-,-,-): {hit[0]}"
            )
        inv = np.linalg.inv(g)
        err = np.abs(inv @ g - np.eye(DIM)).max(axis=(-2, -1))
        if first_bad(err > _INVERSE_TOL, err):
            raise MetricError("inverse metric failed the identity check")
        return cls(
            matrix=g,
            inverse=inv,
            det_g=det,
            sqrt_neg_det=np.sqrt(-det),
        )


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
    # An index that neither another operand nor the output reads is summed
    # within its operand first, and a repeated one reduced to its diagonal.
    first = []
    for k, s in enumerate(ins):
        rest = out + "".join(ins[:k] + ins[k + 1:])
        ins[k] = "".join(dict.fromkeys(c for c in s if c in rest))
        first.append(None if ins[k] == s else f"...{s}->...{ins[k]}")
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
    if len(steps) == 1 and first == [None, None]:
        return step

    def run(*ops):
        ops = [op if f is None else np.einsum(f, op) for f, op in zip(first, ops)]
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
