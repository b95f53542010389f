"""The metric at every point of a batch, validated on construction."""

from __future__ import annotations

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
        if hit := first_bad(np.abs(det) < DEGENERACY_TOL * scale**4, det):
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
