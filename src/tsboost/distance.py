"""Distances between series and center curves.

Every measure is the Euclidean distance between mapped series
(``distance_space``), so one kernel serves all three. Euclidean maps
nothing. The Penrose shape distance sqrt(n/(n-1) * (dbar^2 - q^2))
(Penrose 1952, "Distance, size and shape") ignores levels: it maps a
series to (y - mean(y)) / sqrt(n - 1), which, unlike the radicand, never
cancels two nearly equal numbers at high levels. The periodogram distance
maps a series to its DFT modulus squared over n at f_j = 2*pi*j/n,
j = 1..n//2 (by FFT); the DC term is excluded, so adding a constant to a
series changes nothing.
"""

import enum

import numpy as np

from .errors import LengthMismatch, SeriesTooShort


class DistanceKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    PENROSE_SHAPE = "penrose"
    PERIODOGRAM = "periodogram"


def _pair(y, c):
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    if y.shape != c.shape or y.ndim != 1:
        raise LengthMismatch(f"series lengths differ: {y.shape} vs {c.shape}")
    return y, c


def _center_distances(points, centers):
    """(..., K, N) Euclidean distances from centers (..., K, m) to points (N, m).

    Clusters come first, as the boosted loop reduces over them. Each leading
    index, such as a restart, gets its own (K, N, m) difference tensor.
    """
    if centers.ndim > 2:
        return np.stack([_center_distances(points, c) for c in centers])
    diff = centers[:, None, :] - points
    return np.sqrt(np.einsum("kij,kij->ki", diff, diff))


def euclidean(y, c):
    y, c = _pair(y, c)
    return float(np.sqrt(np.sum((y - c) ** 2)))


def penrose_shape(y, c):
    """sqrt(n/(n-1) * (dbar^2 - q^2)), insensitive to a common level shift."""
    y, c = _pair(y, c)
    return euclidean(_centered(y), _centered(c))


def _centered(values):
    """(y - mean(y)) / sqrt(n - 1) along the last axis: the Penrose space."""
    n = values.shape[-1]
    if n < 2:
        raise SeriesTooShort("Penrose shape distance needs n >= 2")
    return (values - values.mean(axis=-1, keepdims=True)) / np.sqrt(n - 1)


def periodogram(y):
    """Periodogram ordinates at f_j = 2*pi*j/n, j = 1..n//2, along the last axis."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if n < 4:
        raise SeriesTooShort("periodogram needs n >= 4")
    # numpy's FFT indexes from t = 0; the series index starts at t = 1, which
    # only rotates the phase and leaves the modulus unchanged
    spectrum = np.fft.rfft(y, axis=-1)[..., 1 : n // 2 + 1]
    return (spectrum.real**2 + spectrum.imag**2) / n


def periodogram_distance(y, c):
    y, c = _pair(y, c)
    return float(np.sqrt(np.sum((periodogram(y) - periodogram(c)) ** 2)))


def distance_space(values, kind):
    """(points, kind') such that the kind-distance of two series is the
    kind'-distance of their points: EUCLIDEAN for every kind. A caller that
    compares the same series against many centers maps the series once.
    """
    if kind == DistanceKind.PERIODOGRAM:
        return periodogram(values), DistanceKind.EUCLIDEAN
    if kind == DistanceKind.PENROSE_SHAPE:
        return _centered(values), DistanceKind.EUCLIDEAN
    if kind == DistanceKind.EUCLIDEAN:
        return values, kind
    raise ValueError(f"unknown distance kind {kind!r}")


def distance_matrix(values, centers, kind):
    """(N, K) matrix of distances between series rows and center rows.

    Centers with leading axes, such as (R, K, n) for R restarts, give one
    matrix per leading index: (R, N, K).
    """
    Y = np.atleast_2d(np.asarray(values, dtype=float))
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    if Y.shape[1] != C.shape[-1]:
        raise LengthMismatch(f"series length {Y.shape[1]} vs center length {C.shape[-1]}")
    Y, _ = distance_space(Y, kind)
    C, _ = distance_space(C, kind)
    return np.ascontiguousarray(_center_distances(Y, C).swapaxes(-1, -2))
