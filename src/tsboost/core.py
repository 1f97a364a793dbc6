"""Shared domain types: datasets, membership matrices and hard assignments.

All containers are plain frozen dataclasses over numpy arrays. Arrays are
copied on construction and never mutated afterwards, so instances can be
shared freely across threads.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteValue,
    NonIncreasingDomain,
    RaggedLengths,
    TooFewSeries,
)

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TimeSeriesRecord:
    """One observed series on the shared time domain."""

    id: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self.values.setflags(write=False)


@dataclass(frozen=True)
class Dataset:
    """N series observed on one strictly increasing time domain."""

    domain: np.ndarray
    series: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "domain", np.array(self.domain, dtype=float))
        object.__setattr__(self, "series", tuple(self.series))
        self.domain.setflags(write=False)

    @classmethod
    def from_values(cls, domain, values, ids=None):
        """Build a dataset from an (N, n) value matrix."""
        values = np.asarray(values, dtype=float)
        if ids is None:
            ids = [f"s{i+1:04d}" for i in range(values.shape[0])]
        series = tuple(TimeSeriesRecord(str(sid), row) for sid, row in zip(ids, values))
        return cls(domain=domain, series=series)

    @property
    def n_series(self):
        return len(self.series)

    @property
    def n_points(self):
        return self.domain.shape[0]

    @property
    def ids(self):
        return [rec.id for rec in self.series]

    def values(self):
        """(N, n) matrix of series values."""
        return np.vstack([rec.values for rec in self.series])


def checked_values(data: Dataset) -> np.ndarray:
    """Check all dataset invariants and return the (N, n) matrix of series values."""
    n = data.n_points
    if n < 2:
        raise NonIncreasingDomain("domain must contain at least 2 points")
    if not np.all(np.isfinite(data.domain)):
        raise NonFiniteValue("domain contains non-finite values")
    if not np.all(np.diff(data.domain) > 0):
        raise NonIncreasingDomain("domain must be strictly increasing")
    if data.n_series < 2:
        raise TooFewSeries(f"need at least 2 series, got {data.n_series}")
    # the first bad series is named; of a ragged and a non-finite series,
    # the earlier one is reported
    ragged = next((j for j, rec in enumerate(data.series) if rec.values.shape != (n,)),
                  data.n_series)
    if ragged:
        values = np.stack([rec.values for rec in data.series[:ragged]])
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            bad = data.series[int(np.argmin(finite))]
            raise NonFiniteValue(f"series {bad.id!r} contains NaN or Inf")
    if ragged < data.n_series:
        rec = data.series[ragged]
        raise RaggedLengths(
            f"series {rec.id!r} has length {rec.values.shape[0]}, expected {n}"
        )
    return values


def validate_dataset(data: Dataset) -> Dataset:
    """Check all dataset invariants; returns the dataset unchanged if valid."""
    checked_values(data)
    return data


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
