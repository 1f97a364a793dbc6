"""Reference implementations the package is tested against.

The package computes every distance through one mapped matrix-product
kernel, every membership through cluster-first (K, N) cores and every
spline fit through one spectral selection engine. These are the direct
forms of the same quantities: pairwise distances from differences, PD
probabilities and the boosting loss on series-first (N, K) arrays, as
the paper writes them, the dense solve of the penalized normal equations
and the effective dimension of the smoother. Tests import them as they
import ``conftest``.
"""

import math
from dataclasses import dataclass

import numpy as np

from tsboost.distance import _centered, periodogram
from tsboost.errors import SingularSystem
from tsboost.pspline import _spectrum


# -- distances -------------------------------------------------------------------

def _pair(y, c):
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    if y.shape != c.shape or y.ndim != 1:
        raise ValueError(f"series lengths differ: {y.shape} vs {c.shape}")
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


# -- PD probabilities and the boosting loss --------------------------------------

def nk_probabilities(D):
    """PD probabilities of (..., N, K) distances, reducing over the last axis."""
    zero = D == 0.0
    coincident = zero.any(axis=-1, keepdims=True)
    logw = -np.log(np.where(coincident, 1.0, D))
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    split = zero / np.maximum(zero.sum(axis=-1, keepdims=True), 1)
    return np.where(coincident, split, w / w.sum(axis=-1, keepdims=True))


def nk_loss(P):
    """Boosting loss of (..., N, K) probabilities, one per leading index."""
    K = P.shape[-1]
    with np.errstate(divide="ignore"):
        logs = np.log(P).sum(axis=-1) + K * math.log(K)
    return np.sum(np.minimum(np.exp(logs), 1.0), axis=-1)


# -- P-spline smoothing ------------------------------------------------------------

@dataclass(frozen=True)
class SplineFit:
    B: np.ndarray        # (n, m) basis matrix
    penalty: np.ndarray  # (m - order, m) difference penalty
    lam: float
    coef: np.ndarray
    fitted: np.ndarray


def fit_pspline(y, B, penalty, lam, weights=None):
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
    return SplineFit(B=B, penalty=penalty, lam=float(lam), coef=coef, fitted=B @ coef)


def effective_dimension(B, penalty, lam):
    """trace[(B'B + lambda D'D)^{-1} B'B] = sum mu / d, d = mu + lambda (1 - mu): the
    degrees of freedom of the smoother. lambda = 0 needs B'B nonsingular."""
    mu, _, _, _ = _spectrum(B, penalty)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0 and mu[0] <= mu.shape[0] * np.finfo(float).eps:
        raise SingularSystem("B'B is numerically singular at lambda = 0")
    return float(np.sum(mu / (mu + lam * (1.0 - mu))))
