"""Probabilistic-distance clustering primitives.

Membership probabilities are tied to distances by the PD principle
P_{k,i} * d_{k,i} = constant per series i, which yields

    P_{k,i} = prod_{h != k} d_{h,i} / sum_m prod_{h != m} d_{h,i}.

The kernels are cluster-first: ``_probabilities`` and ``_loss`` take
(..., K, N) arrays, any leading axes being a stack such as the boosted
loop's R restarts, and reduce over the cluster axis -2. The products are
evaluated in log space when all distances are positive; exact zero
distances short-circuit (probability mass splits uniformly over the
coinciding centers). Fuzzy c-means' membership update is the same rule on
squared distances with the power 1 / (m - 1), so at m = 3 it gives the PD
memberships of its centers. beta, the boosting loss, is the K^K-scaled sum
of each series' product of probabilities; the BC index is its mean, and
``bc_index`` takes a series-first (N, K) membership, as results are held.
"""

import math

import numpy as np

from .distance import _check_distances


def _probabilities(D, power=1):
    """Membership probabilities (..., K, N) from distances (..., K, N), cluster axis first.

    Each series (a column) is computed on its own, as p_k proportional to
    D_k ** -power: power 1 is the PD rule, and fuzzy c-means passes its
    squared distances with power 1 / (m - 1).
    """
    _check_distances(D)
    if D.shape[-2] < 2:
        raise ValueError("need at least 2 clusters")
    # prod_{h != k} d_h = exp(sum_h log d_h - log d_k); the per-series
    # constant cancels in the normalization. A series with a zero distance
    # takes log 1 here and is replaced by its uniform split below. Every
    # fuzzifier that FcmConfig accepts gives a power of at most 2**52, so
    # the scaled logs stay finite, and after the max subtraction every
    # weight is in [0, 1], one of them 1.
    zero = D == 0.0
    coincident = zero.any(axis=-2, keepdims=True)
    logw = np.log(np.where(coincident, 1.0, D))
    logw *= -power
    logw -= logw.max(axis=-2, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=-2, keepdims=True)
    if not coincident.any():
        return w
    split = zero / np.maximum(zero.sum(axis=-2, keepdims=True), 1)
    return np.where(coincident, split, w)


def bc_index(P):
    """Uncertainty of an (N, K) partition: 0 for one-hot rows, 1 for uniform rows."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return float(_loss(P.T)) / P.shape[0]


def _loss(P):
    """Boosting loss sum_i (prod_k P_{k,i}) K^K, in [0, N], of (..., K, N) probabilities.

    Each series term is exp(sum_k log P_{k,i} + K log K), so K^K never
    overflows; a zero entry contributes log 0 = -inf and hence a zero term.
    A term is capped at 1, its AM-GM bound for a probability vector, which
    round-off on near-uniform memberships would otherwise exceed.
    """
    K = P.shape[-2]
    with np.errstate(divide="ignore"):
        logs = np.log(P).sum(axis=-2) + K * math.log(K)
    return np.sum(np.minimum(np.exp(logs), 1.0), axis=-1)
