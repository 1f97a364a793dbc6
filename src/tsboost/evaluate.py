"""Partition quality metrics.

The fuzzy Rand index compares two fuzzy partitions through their pairwise
equivalence degrees E(i, j) = 1 - 0.5 * L1(p_i, p_j): the index is one
minus the mean absolute disagreement of E over the N(N-1)/2 unordered
pairs. On crisp partitions it reduces to the classic Rand index. The
reference partition rebuilds the "true" fuzzy solution the same way the
clustering does: per-label pooled P-spline centers, then PD probabilities
against them.
"""

import numpy as np

from .core import Dataset, validate_dataset
from .distance import distance_matrix
from .errors import DimensionMismatch, SizeMismatch
from .pdclust import pd_probabilities
from . import pspline


def fuzzy_equivalence(p, q):
    """Degree of equivalence of two membership vectors, in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"membership vectors differ: {p.shape} vs {q.shape}")
    return float(1.0 - 0.5 * np.sum(np.abs(p - q)))


def _pairwise_equivalence(P):
    # E[i, j] = 1 - 0.5 * L1 distance of rows i and j
    P = np.asarray(P, dtype=float)
    return 1.0 - 0.5 * np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)


def fuzzy_rand(P, Q):
    """Generalized Rand index of two fuzzy partitions."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.shape[0] != Q.shape[0]:
        raise SizeMismatch(f"partitions cover {P.shape[0]} vs {Q.shape[0]} objects")
    n = P.shape[0]
    iu = np.triu_indices(n, k=1)
    ep = _pairwise_equivalence(P)[iu]
    eq = _pairwise_equivalence(Q)[iu]
    return float(1.0 - np.abs(ep - eq).sum() / (n * (n - 1) / 2))


def classic_rand(a, b):
    """Fraction of object pairs on whose co-membership both labelings agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise SizeMismatch(f"label vectors differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    iu = np.triu_indices(n, k=1)
    same_a = (a[:, None] == a[None, :])[iu]
    same_b = (b[:, None] == b[None, :])[iu]
    return float(np.mean(same_a == same_b))


def confusion_matrix(truth, predicted):
    """Counts table; returns (matrix, truth_labels, predicted_labels)."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape:
        raise SizeMismatch(f"label vectors differ: {truth.shape} vs {predicted.shape}")
    t_labels = np.unique(truth)
    p_labels = np.unique(predicted)
    table = np.zeros((t_labels.size, p_labels.size), dtype=int)
    t_idx = np.searchsorted(t_labels, truth)
    p_idx = np.searchsorted(p_labels, predicted)
    np.add.at(table, (t_idx, p_idx), 1)
    return table, t_labels, p_labels


def reference_partition(data: Dataset, true_labels, kind, degree=pspline.DEFAULT_DEGREE,
                        penalty_order=pspline.DEFAULT_PENALTY_ORDER, criterion="vcurve",
                        interior_knots=None):
    """True fuzzy partition: pooled P-spline centers per label, then PD probabilities.

    Returns (membership, centers) with clusters ordered by sorted label value.
    """
    validate_dataset(data)
    labels = np.asarray(true_labels)
    if labels.shape[0] != data.n_series:
        raise SizeMismatch(
            f"{labels.shape[0]} labels for {data.n_series} series"
        )
    values = data.values()
    basis = pspline.build_basis(data.domain, degree=degree, interior_knots=interior_knots)
    penalty = pspline.difference_penalty(basis.n_bases, penalty_order)
    crit = pspline.LambdaCriterion(criterion)
    centers = []
    for label in np.unique(labels):
        pooled = values[labels == label].mean(axis=0)
        centers.append(pspline.smooth_series(pooled, basis, penalty, crit)[0].fitted)
    centers = np.vstack(centers)
    membership = pd_probabilities(distance_matrix(values, centers, kind))
    return membership, centers
