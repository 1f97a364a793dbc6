"""Distances between series and center curves.

Three measures sit behind one dispatch: plain Euclidean, the Penrose shape
distance (level-insensitive) and the Euclidean distance between periodogram
ordinates (spectral shape). The periodogram is the DFT modulus squared over
n at the positive Fourier frequencies f_j = 2*pi*j/n, j = 1..n//2, computed
by FFT; the DC term is excluded, which makes the spectral distance invariant
to adding a constant.
"""

import enum

import numpy as np

from .errors import LengthMismatch, NegativeRadicand, SeriesTooShort

_RADICAND_CLAMP = -1e-12


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


def _cdist_euclidean(Y, C):
    diff = Y[:, None, :] - C[None, :, :]
    return np.sqrt(np.einsum("ikj,ikj->ik", diff, diff))


def _penrose_radicand(Y, C):
    """Matrix of (dbar^2 - q^2) values, before the n/(n-1) scale and sqrt."""
    n = Y.shape[1]
    diff = Y[:, None, :] - C[None, :, :]
    dbar2 = np.einsum("ikj,ikj->ik", diff, diff) / n
    q2 = np.subtract.outer(Y.sum(axis=1), C.sum(axis=1)) ** 2 / (n * n)
    return dbar2 - q2


def euclidean(y, c):
    y, c = _pair(y, c)
    return float(np.sqrt(np.sum((y - c) ** 2)))


def penrose_shape(y, c):
    """sqrt(n/(n-1) * (dbar^2 - q^2)), insensitive to a common level shift."""
    y, c = _pair(y, c)
    n = y.shape[0]
    if n < 2:
        raise SeriesTooShort("Penrose shape distance needs n >= 2")
    rad = float(_penrose_radicand(y[None, :], c[None, :])[0, 0])
    return float(np.sqrt(_clamp_radicand(rad) * n / (n - 1)))


def _clamp_radicand(rad):
    # dbar^2 - q^2 is a variance; anything below round-off noise is a bug
    if rad < _RADICAND_CLAMP:
        raise NegativeRadicand(f"radicand {rad} below clamp threshold")
    return max(rad, 0.0)


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
    kind'-distance of their points.

    The periodogram distance is the Euclidean distance between periodograms,
    so PERIODOGRAM maps series to their periodograms and the Euclidean kind;
    every other kind leaves the series and the kind as they are. A caller
    that compares the same series against many centers maps the series once.
    """
    if kind == DistanceKind.PERIODOGRAM:
        return periodogram(values), DistanceKind.EUCLIDEAN
    return values, kind


def distance_matrix(values, centers, kind):
    """(N, K) matrix of distances between series rows and center rows.

    Centers with leading axes, such as (R, K, n) for R restarts, give one
    matrix per leading index: (R, N, K).
    """
    Y = np.atleast_2d(np.asarray(values, dtype=float))
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    if Y.shape[1] != C.shape[-1]:
        raise LengthMismatch(
            f"series length {Y.shape[1]} vs center length {C.shape[-1]}"
        )
    Y, space = distance_space(Y, kind)
    C, _ = distance_space(C, kind)
    if C.ndim > 2:
        # one leading index at a time: the (N, K, n) difference tensor then
        # stays as large as in an unstacked call, not R times larger
        return np.stack([_distances(Y, c, space) for c in C])
    return _distances(Y, C, space)


def _distances(Y, C, kind):
    if kind == DistanceKind.EUCLIDEAN:
        return _cdist_euclidean(Y, C)
    if kind == DistanceKind.PENROSE_SHAPE:
        n = Y.shape[1]
        if n < 2:
            raise SeriesTooShort("Penrose shape distance needs n >= 2")
        rad = _penrose_radicand(Y, C)
        if np.any(rad < _RADICAND_CLAMP):
            raise NegativeRadicand("negative radicand beyond round-off")
        return np.sqrt(np.maximum(rad, 0.0) * n / (n - 1))
    raise ValueError(f"unknown distance kind {kind!r}")
