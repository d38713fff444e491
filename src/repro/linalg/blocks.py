"""Spectral-radius and geometric-sum helpers for matrix-geometric solutions."""

from __future__ import annotations

import numpy as np


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def geometric_block_sum(R: np.ndarray, terms: np.ndarray | None = None) -> np.ndarray:
    """Return ``(I - R)^{-1}`` or ``(I - R)^{-1} @ terms``.

    Requires the spectral radius of ``R`` to be strictly below one, which for
    a QBD is equivalent to positive recurrence.
    """
    R = np.asarray(R, dtype=float)
    radius = spectral_radius(R)
    if radius >= 1.0 - 1e-12:
        raise ValueError(f"geometric sum diverges: spectral radius of R is {radius:.6f} >= 1")
    inverse = np.linalg.inv(np.eye(R.shape[0]) - R)
    if terms is None:
        return inverse
    return inverse @ np.asarray(terms, dtype=float)
