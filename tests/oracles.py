"""Reference implementations the package is tested against.

The package computes every distance through one mapped matrix-product
kernel and every spline fit through one spectral selection engine. These
are the direct forms of the same quantities: pairwise distances from
differences, the dense solve of the penalized normal equations and the
effective dimension of the smoother. Tests import them as they import
``conftest``.
"""

from dataclasses import dataclass

import numpy as np

from tsboost.distance import _centered, periodogram
from tsboost.errors import LengthMismatch, SingularSystem
from tsboost.pspline import SplineBasis, _spectrum


# -- distances -------------------------------------------------------------------

def _pair(y, c):
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    if y.shape != c.shape or y.ndim != 1:
        raise LengthMismatch(f"series lengths differ: {y.shape} vs {c.shape}")
    return y, c


def euclidean(y, c):
    y, c = _pair(y, c)
    return float(np.sqrt(np.sum((y - c) ** 2)))


def penrose_shape(y, c):
    """sqrt(n/(n-1) * (dbar^2 - q^2)), insensitive to a common level shift."""
    y, c = _pair(y, c)
    return euclidean(_centered(y), _centered(c))


def periodogram_distance(y, c):
    y, c = _pair(y, c)
    return float(np.sqrt(np.sum((periodogram(y) - periodogram(c)) ** 2)))


# -- P-spline smoothing ------------------------------------------------------------

@dataclass(frozen=True)
class SplineFit:
    basis: SplineBasis
    penalty: np.ndarray  # (m - order, m) difference penalty
    lam: float
    coef: np.ndarray
    fitted: np.ndarray


def fit_pspline(y, basis, penalty, lam, weights=None):
    """Penalized weighted least-squares spline fit at a fixed lambda (dense solve).

    The reference for the spectral path of ``select_rows``; ``weights``
    (nonnegative, one per point) give a weighted fit, e.g. a leave-one-out
    refit with one zero weight.
    """
    y = np.asarray(y, dtype=float)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (y.shape[0],):
            raise ValueError(f"weights must have length {y.shape[0]}")
        if np.any(weights < 0) or not np.any(weights > 0):
            raise ValueError("weights must be nonnegative and not all zero")
    B = basis.matrix
    Bw = B if weights is None else B * weights[:, None]
    BtWy = Bw.T @ y
    A = Bw.T @ B + lam * (penalty.T @ penalty)
    try:
        coef = np.linalg.solve(A, BtWy)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    rel = np.linalg.norm(A @ coef - BtWy) / max(np.linalg.norm(BtWy), 1e-300)
    if not np.all(np.isfinite(coef)) or rel > 1e-6:
        raise SingularSystem("normal equations are numerically singular")
    return SplineFit(basis=basis, penalty=penalty, lam=float(lam), coef=coef, fitted=B @ coef)


def effective_dimension(basis, penalty, lam):
    """trace[(B'B + lambda D'D)^{-1} B'B] = sum mu / d, d = mu + lambda (1 - mu): the
    degrees of freedom of the smoother. lambda = 0 needs B'B nonsingular."""
    mu, _, _, _ = _spectrum(basis, penalty)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0 and mu[0] <= mu.shape[0] * np.finfo(float).eps:
        raise SingularSystem("B'B is numerically singular at lambda = 0")
    return float(np.sum(mu / (mu + lam * (1.0 - mu))))
