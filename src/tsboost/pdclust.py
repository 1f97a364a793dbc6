"""Probabilistic-distance clustering primitives.

Membership probabilities are tied to distances by the PD principle
P_{i,k} * d_{i,k} = constant per series, which yields

    P_{i,k} = prod_{h != k} d_{i,h} / sum_m prod_{h != m} d_{i,h}.

The row-wise products are evaluated in log space when all distances are
positive; exact zero distances short-circuit (probability mass splits
uniformly over the coinciding centers). The BC index is the K^K-scaled
mean row product of probabilities, evaluated in log space; beta is its
un-normalized sum and the boosting loss.
"""

import math

import numpy as np

from .errors import NegativeDistance


def pd_probabilities(distances):
    """Membership probability matrix from an (N, K) distance matrix.

    A stack of distance matrices (..., N, K) gives a stack of probability
    matrices; each row is computed on its own.
    """
    D = np.atleast_2d(np.asarray(distances, dtype=float))
    if np.any(D < 0) or not np.all(np.isfinite(D)):
        raise NegativeDistance("distances must be finite and nonnegative")
    if D.shape[-1] < 2:
        raise ValueError("need at least 2 clusters")
    # prod_{h != k} d_h = exp(sum_h log d_h - log d_k); the row-wise
    # constant cancels in the normalization. A row with a zero distance
    # takes log 1 here and is replaced by its uniform split below.
    zero = D == 0.0
    coincident = zero.any(axis=-1, keepdims=True)
    logw = -np.log(np.where(coincident, 1.0, D))
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    split = zero / np.maximum(zero.sum(axis=-1, keepdims=True), 1)
    return np.where(coincident, split, w / w.sum(axis=-1, keepdims=True))


def bc_index(P):
    """Uncertainty of a partition: 0 for one-hot rows, 1 for uniform rows."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return float(loss_beta(P)) / P.shape[0]


def loss_beta(P):
    """Boosting loss: sum_i (prod_k P_{i,k}) K^K, in [0, N].

    A stack of (N, K) matrices gives an array with one loss per matrix. Each
    row term is exp(sum_k log P_{i,k} + K log K), so K^K never overflows;
    a zero entry contributes log 0 = -inf and hence a zero term. A term is
    capped at 1, its AM-GM bound for a probability row, which round-off on
    near-uniform rows would otherwise exceed.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    K = P.shape[-1]
    with np.errstate(divide="ignore"):
        logs = np.log(P).sum(axis=-1) + K * math.log(K)
    total = np.sum(np.minimum(np.exp(logs), 1.0), axis=-1)
    return float(total) if P.ndim == 2 else total
