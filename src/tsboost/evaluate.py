"""Partition quality metrics.

The fuzzy Rand index compares two fuzzy partitions through their pairwise
equivalence degrees E(i, j) = 1 - 0.5 * L1(p_i, p_j): the index is one
minus the mean absolute disagreement of E over the N(N-1)/2 unordered
pairs, accumulated over blocks of rows so memory stays linear in N. On
crisp partitions it reduces to the classic Rand index. The reference
partition rebuilds the "true" fuzzy solution the same way the clustering
does: per-label pooled P-spline centers, smoothed one row at a time from
one spline factorisation per call, then PD probabilities against them.
"""

import numpy as np

from .core import Dataset
from .distance import distance_matrix
from .errors import SizeMismatch, TooFewLabels, TooFewObjects
from .pdclust import pd_probabilities
from . import pspline

# rows per block in the pairwise indices; bounds their memory to O(block * N)
PAIR_BLOCK = 64


def _pairwise_equivalence(rows, cols):
    # E[i, j] = 1 - 0.5 * L1 distance of rows[:, i] and cols[:, j], from
    # cluster-major (K, rows) and (K, cols) memberships. The L1 sum runs one
    # cluster at a time from the first cluster's term, which is the order of
    # sum(axis=2) for K <= 7 (numpy sums 8 or more terms pairwise), and it
    # never allocates the (rows, cols, K) difference tensor
    if not len(rows):
        return np.ones((rows.shape[1], cols.shape[1]))
    l1 = np.subtract(rows[0, :, None], cols[0])
    np.abs(l1, out=l1)
    diff = np.empty_like(l1)
    for row, col in zip(rows[1:], cols[1:]):
        np.subtract(row[:, None], col, out=diff)
        l1 += np.abs(diff, out=diff)
    l1 *= -0.5
    l1 += 1.0
    return l1


def _upper_blocks(n):
    """Row blocks of the pairs j > i: yields (start, stop, mask).

    The mask has shape (stop - start, n - start) and selects, for rows
    start..stop-1, the columns j > i among columns start..n-1, so each block
    holds O(PAIR_BLOCK * n) pairs instead of all N^2.
    """
    for start in range(0, n, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, n)
        yield start, stop, np.arange(start, n) > np.arange(start, stop)[:, None]


def fuzzy_rand(P, Q):
    """Generalized Rand index of two fuzzy partitions of at least 2 objects."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.shape[0] != Q.shape[0]:
        raise SizeMismatch(f"partitions cover {P.shape[0]} vs {Q.shape[0]} objects")
    n = P.shape[0]
    if n < 2:
        raise TooFewObjects(f"the fuzzy Rand index needs at least 2 objects, got {n}")
    P = np.ascontiguousarray(P.T)
    Q = np.ascontiguousarray(Q.T)
    disagreement = 0.0
    for start, stop, upper in _upper_blocks(n):
        ep = _pairwise_equivalence(P[:, start:stop], P[:, start:])
        eq = _pairwise_equivalence(Q[:, start:stop], Q[:, start:])
        ep -= eq
        disagreement += np.abs(ep, out=ep)[upper].sum()
    return float(1.0 - disagreement / (n * (n - 1) / 2))


def _pairs(counts):
    """Number of unordered pairs within each count, summed; an exact integer."""
    counts = np.asarray(counts, dtype=np.int64)
    return int(np.sum(counts * (counts - 1) // 2))


def classic_rand(a, b):
    """Fraction of object pairs on whose co-membership both labelings agree.

    From the contingency table n_ij: the pairs together in both labelings,
    sum_ij C(n_ij, 2), and apart in both, C(n, 2) - sum_i C(a_i, 2) -
    sum_j C(b_j, 2) + sum_ij C(n_ij, 2), counted exactly.
    """
    table, _, _ = confusion_matrix(a, b)
    n = int(table.sum())
    total = n * (n - 1) // 2
    agree = total - _pairs(table.sum(axis=1)) - _pairs(table.sum(axis=0)) + 2 * _pairs(table)
    # one object leaves no pairs, so the index is undefined
    return agree / total if total else float("nan")


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


def reference_partition(data: Dataset, true_labels, kind, criterion="vcurve"):
    """True fuzzy partition: pooled P-spline centers per label, then PD probabilities.

    The centers use the same default basis and penalty as ``run_boost``.

    Returns (membership, centers) with clusters ordered by sorted label value.
    """
    values = data.values
    labels = np.asarray(true_labels)
    if labels.shape[0] != data.n_series:
        raise SizeMismatch(
            f"{labels.shape[0]} labels for {data.n_series} series"
        )
    unique = np.unique(labels)
    if unique.size < 2:
        raise TooFewLabels(f"reference labels hold {unique.size} distinct label; need at least 2")
    crit = pspline.LambdaCriterion(criterion)
    basis = pspline.build_basis(data.domain)
    spectrum = pspline._spectrum(basis, pspline.difference_penalty(basis.n_bases))
    # one row per call, each center the product B a of one coefficient vector:
    # the round-off of a batched product depends on its row count
    coefs = [pspline.select_rows(values[labels == label].mean(axis=0), spectrum, crit).coef[0]
             for label in unique]
    centers = np.vstack([basis.matrix @ coef for coef in coefs])
    membership = pd_probabilities(distance_matrix(values, centers, kind))
    return membership, centers
