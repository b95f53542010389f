"""The metric at one point, validated on construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError, SignatureError

DIM = 4

_SYMMETRY_TOL = 1e-12
_INVERSE_TOL = 1e-12
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric, inverse, determinant and volume factor at a single point."""

    matrix: np.ndarray
    inverse: np.ndarray
    det_g: float
    sqrt_neg_det: float

    @classmethod
    def from_components(cls, g):
        g = np.asarray(g, dtype=float)
        if g.shape != (DIM, DIM):
            raise MetricError(f"metric must be 4x4, got shape {g.shape}")
        scale = max(1.0, np.abs(g).max())
        if np.abs(g - g.T).max() > _SYMMETRY_TOL * scale:
            raise MetricError("metric components are not symmetric")
        det = float(np.linalg.det(g))
        if abs(det) < DEGENERACY_TOL * scale**4:
            raise MetricError(f"metric is numerically degenerate (det={det:.3e})")
        if det >= 0.0:
            raise SignatureError(f"metric determinant must be negative, got {det:.3e}")
        eig = np.linalg.eigvalsh(g)
        if int((eig > 0).sum()) != 1 or int((eig < 0).sum()) != 3:
            raise SignatureError(
                f"metric eigenvalue signs are not (+,-,-,-): {eig}"
            )
        inv = np.linalg.inv(g)
        if np.abs(inv @ g - np.eye(DIM)).max() > _INVERSE_TOL:
            raise MetricError("inverse metric failed the identity check")
        return cls(
            matrix=g,
            inverse=inv,
            det_g=det,
            sqrt_neg_det=float(np.sqrt(-det)),
        )
