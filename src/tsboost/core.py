"""Shared domain types: datasets, membership matrices and hard assignments.

A ``Dataset`` is N series observed on one shared time domain, held as one
read-only float (N, n) array with a list of N ids. It checks every invariant
once, on construction, and copies its arrays, so a caller's later change to
its input cannot reach it and instances can be shared freely across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteValue,
    NonIncreasingDomain,
    RaggedLengths,
    TooFewSeries,
)

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Dataset:
    """N >= 2 finite series observed on one strictly increasing time domain.

    ``values`` is the read-only (N, n) array whose row i is the series
    ``ids[i]``; the ids default to s0001, s0002, ...
    """

    domain: np.ndarray
    values: np.ndarray
    ids: list = None

    def __post_init__(self):
        domain = np.array(self.domain, dtype=float)
        n = domain.shape[0]
        if n < 2:
            raise NonIncreasingDomain("domain must contain at least 2 points")
        if not np.all(np.isfinite(domain)):
            raise NonFiniteValue("domain contains non-finite values")
        if not np.all(np.diff(domain) > 0):
            raise NonIncreasingDomain("domain must be strictly increasing")
        n_series = len(self.values)
        if n_series < 2:
            raise TooFewSeries(f"need at least 2 series, got {n_series}")
        ids = ([f"s{i + 1:04d}" for i in range(n_series)] if self.ids is None
               else [str(sid) for sid in self.ids])
        if len(ids) != n_series:
            raise ValueError(f"{len(ids)} ids for {n_series} series")
        values = _matrix(self.values, ids, n)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise NonFiniteValue(f"series {ids[int(np.argmin(finite))]!r} contains NaN or Inf")
        domain.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", ids)

    @property
    def n_series(self):
        return self.values.shape[0]

    @property
    def n_points(self):
        return self.domain.shape[0]


def _matrix(rows, ids, n):
    """A float (N, n) copy of ``rows``; RaggedLengths names the first row of another length."""
    try:
        values = np.array(rows, dtype=float)
        if values.shape[1:] == (n,):
            return values
    except ValueError:  # rows of unequal lengths, or a value that is not a number
        if all(np.shape(row) == (n,) for row in rows):
            raise
    sid, row = next((sid, row) for sid, row in zip(ids, rows) if np.shape(row) != (n,))
    raise RaggedLengths(f"series {sid!r} has length {np.size(row)}, expected {n}")


def validate_membership(P) -> np.ndarray:
    """Check Ruspini conditions on a membership matrix and return it as float."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2:
        raise ValueError("membership matrix must be 2-dimensional")
    # written as negated in-range tests so that NaN entries fail them too
    if not np.all((P >= 0) & (P <= 1)):
        raise ValueError("membership entries must lie in [0, 1]")
    if not np.all(np.abs(P.sum(axis=1) - 1.0) <= ROW_SUM_TOL):
        raise ValueError("membership rows must sum to 1")
    return P


def harden(P) -> np.ndarray:
    """Row-wise argmax labels in 1..K; ties go to the lowest cluster index."""
    P = np.asarray(P, dtype=float)
    return np.argmax(P, axis=1) + 1
