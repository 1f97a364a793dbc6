"""Distances between series and center curves.

Every measure is the Euclidean distance between mapped series
(``distance_space``), so one kernel serves all three, and FCM too:
``_sq_distances``, one guarded matrix product per (K, m) slice of a
stack of centers, whose (..., K, N) result is cluster-first like every
kernel of the package; a caller that returns distances or memberships per
series transposes it. Euclidean maps nothing. The Penrose shape distance
sqrt(n/(n-1) * (dbar^2 - q^2)) (Penrose 1952, "Distance, size and shape")
ignores levels: it maps a series to (y - mean(y)) / sqrt(n - 1), which,
unlike the radicand, never cancels two nearly equal numbers at high
levels. The periodogram distance maps a series to its DFT modulus squared
over n at f_j = 2*pi*j/n, j = 1..n//2 (by FFT); the DC term is excluded,
so adding a constant to a series changes nothing.
"""

import enum

import numpy as np

from .errors import NegativeDistance, SeriesTooShort


# a matrix-product entry is kept only above this share of its scale
# ||y||^2 + ||c||^2; below it, cancellation could cost more than the bound
# that _sq_distances states, and the entry is recomputed from differences
_GUARD = 2.0**-6


class DistanceKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    PENROSE_SHAPE = "penrose"
    PERIODOGRAM = "periodogram"


def _sq_norms(values):
    return np.einsum("...j,...j->...", values, values)


def _check_distances(d):
    """Raise NegativeDistance unless every (squared) distance in d is finite and nonnegative."""
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise NegativeDistance("distances must be finite and nonnegative")


def _sq_distances(points, centers, norms=None):
    """(..., K, N) squared Euclidean distances from centers (..., K, m) to points (N, m).

    Centers come first, as the boosted loop reduces over them; FCM takes the
    transpose. A stack of centers, such as the boosted loop's (R, K, m)
    restarts, takes one matrix product per (K, m) slice, so no slice's
    distances depend on the rest of the stack. Each product gives
    d2 = s - 2 c.y with s = ||c||^2 + ||y||^2; ``norms`` holds the ||y||^2
    of the points when the caller has them. Each of the three terms carries
    an error of at most m*2^-53*s, so an entry that passes the guard
    d2 > 2^-6 * s has a relative error of at most about (m + 2) * 2^-46
    (7e-13 at m = 50). Every other entry, including those whose norms
    overflow to inf or NaN, is recomputed exactly from its differences, so
    a center equal to a point gives exactly 0. The recomputed entries go in
    chunks of at most N, so their differences never take more memory than
    the points.
    """
    if norms is None:
        norms = _sq_norms(points)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = _sq_norms(centers)[..., None] + norms
        d2 = centers @ points.T
        d2 *= -2.0
        d2 += scale
        scale *= _GUARD
        redo = ~(d2 > scale)
    if redo.any():
        # flat indices of the (rows, N) view, in row-major order as np.nonzero gives them
        step = points.shape[0]
        rows, cols = np.divmod(np.flatnonzero(redo), step)
        flat, centers = d2.reshape(-1, step), centers.reshape(-1, centers.shape[-1])
        for start in range(0, rows.size, step):
            r, c = rows[start : start + step], cols[start : start + step]
            diff = points[c]
            diff -= centers[r]
            flat[r, c] = np.einsum("ij,ij->i", diff, diff)
    return d2


def _centered(values):
    """(y - mean(y)) / sqrt(n - 1) along the last axis: the Penrose space."""
    n = values.shape[-1]
    if n < 2:
        raise SeriesTooShort("Penrose shape distance needs n >= 2")
    centered = values - values.mean(axis=-1, keepdims=True)
    centered /= np.sqrt(n - 1)
    return centered


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


def distance_space(values, kind):
    """Points whose Euclidean distance is the kind-distance of their series; a
    caller that compares the same series against many centers maps them once."""
    if kind == DistanceKind.PERIODOGRAM:
        return periodogram(values)
    if kind == DistanceKind.PENROSE_SHAPE:
        return _centered(values)
    if kind == DistanceKind.EUCLIDEAN:
        return values
    raise ValueError(f"unknown distance kind {kind!r}")
