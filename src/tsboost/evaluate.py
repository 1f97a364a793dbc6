"""Partition quality metrics.

The fuzzy Rand index compares two fuzzy partitions through their pairwise
equivalence degrees E(i, j) = 1 - 0.5 * L1(p_i, p_j): the index is one
minus the mean absolute disagreement of E over the N(N-1)/2 unordered
pairs, accumulated over square tiles of TILE x TILE pairs in reused
buffers, so its working memory stays O(TILE^2) whatever N and K are. On
crisp partitions it reduces to the classic Rand index. The reference
partition rebuilds the "true" fuzzy solution the same way the clustering
does: per-label pooled P-spline centers, smoothed one row at a time from
one spline factorisation per call, then PD probabilities against them.
"""

import numpy as np

from .core import Dataset
from .distance import _sq_distances, distance_space
from .errors import SizeMismatch, TooFewLabels, TooFewObjects
from .pdclust import _probabilities
from . import pspline

# side of the square tiles of pairs in the fuzzy Rand index; bounds its
# working memory to a few TILE x TILE arrays for any N and K
TILE = 128


def _pairwise_equivalence(rows, cols, out, diff):
    """E[i, j] = 1 - 0.5 * L1 distance of rows[:, i] and cols[:, j], into ``out``.

    The inputs are cluster-major (K, rows) and (K, cols) memberships, and
    ``out`` and ``diff`` are (rows, cols) buffers. The L1 sum runs one
    cluster at a time from the first cluster's term, which is the order of
    sum(axis=2) for K <= 7 (numpy sums 8 or more terms pairwise), and it
    never allocates the (rows, cols, K) difference tensor.
    """
    if not len(rows):
        out.fill(1.0)
        return out
    np.subtract(rows[0, :, None], cols[0], out=out)
    np.abs(out, out=out)
    for row, col in zip(rows[1:], cols[1:]):
        np.subtract(row[:, None], col, out=diff)
        out += np.abs(diff, out=diff)
    out *= -0.5
    out += 1.0
    return out


def _tiles(n):
    """The tiles that cover the pairs j > i of n objects, in a fixed order.

    Yields (rows, cols) slices of at most TILE objects each, row tile by row
    tile, with cols.start >= rows.start; a tile with cols.start ==
    rows.start lies on the diagonal, and only its pairs j > i count.
    """
    for start in range(0, n, TILE):
        rows = slice(start, min(start + TILE, n))
        for col in range(start, n, TILE):
            yield rows, slice(col, min(col + TILE, n))


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
    # each tile takes a contiguous (rows, cols) view of the front of a flat
    # buffer, so its sum runs in the order of a fresh (rows, cols) array's
    buffers = np.empty((3, TILE * TILE))
    upper = np.triu(np.ones((TILE, TILE), dtype=bool), 1)
    disagreement = 0.0
    for rows, cols in _tiles(n):
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        ep, eq, diff = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
        _pairwise_equivalence(P[:, rows], P[:, cols], ep, diff)
        _pairwise_equivalence(Q[:, rows], Q[:, cols], eq, diff)
        ep -= eq
        np.abs(ep, out=ep)
        if rows.start == cols.start:
            ep = ep[upper[: shape[0], : shape[1]]]
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
