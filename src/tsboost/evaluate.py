"""Partition quality metrics.

The fuzzy Rand index compares two fuzzy partitions through their pairwise
equivalence degrees E(i, j) = 1 - 0.5 * L1(p_i, p_j): the index is one
minus the mean absolute disagreement of E over the N(N-1)/2 unordered
pairs. As |a - b| = a + b - 2 min(a, b), E(i, j) = c_i + c_j + sum_k
min(p_ki, p_kj) with c = (1 - row sum) / 2. The index builds it one
cluster at a time over slabs of objects against at most COLS later ones,
in three ROWS x COLS buffers (384 KiB) that every slab reuses, so its
working memory stays fixed whatever N and K are. A slab holds ROWS
objects, or as many as fill the buffers when fewer than COLS objects
follow them, so that a small N takes few slabs. On crisp partitions
it reduces to the classic Rand index. The reference partition rebuilds
the "true" fuzzy solution the same way the clustering does: per-label
pooled P-spline centers, smoothed one row at a time from one spline
factorisation per call, then PD probabilities against them.
"""

import numpy as np

from .core import Dataset
from .distance import _sq_distances, distance_space
from .errors import SizeMismatch, TooFewLabels, TooFewObjects
from .pdclust import _probabilities
from . import pspline

# a slab pairs at least ROWS objects with at most COLS later ones; its
# three ROWS x COLS buffers bound the working memory for any N and K
ROWS = 4
COLS = 4096


def fuzzy_rand(P, Q):
    """Generalized Rand index of two fuzzy partitions of at least 2 objects."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.shape[0] != Q.shape[0]:
        raise SizeMismatch(f"partitions cover {P.shape[0]} vs {Q.shape[0]} objects")
    n = P.shape[0]
    if n < 2:
        raise TooFewObjects(f"the fuzzy Rand index needs at least 2 objects, got {n}")
    # cluster-major copies, and c = (1 - row sum) / 2 per object
    parts = [np.ascontiguousarray(X.T) for X in (P, Q)]
    halves = [(1.0 - X.sum(axis=0)) / 2 for X in parts]
    buffers = np.empty((3, ROWS * COLS))
    disagreement = 0.0
    height = max(ROWS, ROWS * COLS // (n - 1))
    for start in range(0, n - 1, height):
        rows = slice(start, min(start + height, n - 1))
        for col in range(start + 1, n, COLS):
            cols = slice(col, min(col + COLS, n))
            # contiguous views of the buffers' fronts, so that each slab
            # sums in the order of a fresh (rows, cols) array
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            ep, eq, low = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
            for X, half, e in zip(parts, halves, (ep, eq)):
                np.add(half[rows, None], half[cols], out=e)
                for p in X:
                    e += np.minimum(p[rows, None], p[cols], out=low)
            ep -= eq
            np.abs(ep, out=ep)
            if col == start + 1:
                # the slab reaches the diagonal: keep j > i only
                ep[:, : shape[0]] = np.triu(ep[:, : shape[0]])
            disagreement += ep.sum()
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
    B = pspline.build_basis(data.domain)
    spectrum = pspline._spectrum(B, pspline.difference_penalty(B.shape[1]))
    # one row per call, each center the product B a of one coefficient vector:
    # the round-off of a batched product depends on its row count
    coefs = [pspline.select_rows(values[labels == label].mean(axis=0), spectrum, crit).coef[0]
             for label in unique]
    centers = np.vstack([B @ coef for coef in coefs])
    d2 = _sq_distances(distance_space(values, kind), distance_space(centers, kind))
    return np.ascontiguousarray(_probabilities(np.sqrt(d2, out=d2)).T), centers
