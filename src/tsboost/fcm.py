"""Fuzzy c-means baseline.

Classic alternating minimization of J_m with squared Euclidean distances:
centers are mu^m-weighted means, memberships follow the inverse-distance
update, and the sweep loop stops when no membership moves by more than
epsilon. Kept as a comparison point; its behavior depends on the fuzzifier
m, which the boosted algorithm avoids.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset, validate_dataset
from .errors import ConfigError, EmptyCluster


@dataclass(frozen=True)
class FcmConfig:
    n_clusters: int
    fuzzifier: float = 2.0
    epsilon: float = 1e-6
    max_sweeps: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 2:
            raise ConfigError("need at least 2 clusters")
        # negated in-range tests, so that NaN fails them too
        if not 1.0 < self.fuzzifier < np.inf:
            raise ConfigError("fuzzifier must be finite and > 1")
        if not 0.0 < self.epsilon < np.inf or self.max_sweeps < 1:
            raise ConfigError("epsilon must be finite and > 0, and max_sweeps >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FcmResult:
    membership: np.ndarray   # (N, K)
    centers: np.ndarray      # (K, n)
    objective_trace: np.ndarray
    sweeps: int
    config: FcmConfig


def _sq_distances(values, centers):
    diff = values[:, None, :] - centers[None, :, :]
    return np.einsum("ikj,ikj->ik", diff, diff)


def fcm_centers(values, U, m):
    """mu^m-weighted cluster means."""
    um = np.asarray(U, dtype=float) ** m
    colsum = um.sum(axis=0)
    if np.any(colsum < 1e-300):
        raise EmptyCluster("a cluster has vanishing total membership weight")
    return (um.T @ values) / colsum[:, None]


def fcm_memberships(values, centers, m):
    """Inverse-distance membership update; coincident points get a one-hot row."""
    d2 = _sq_distances(values, centers)
    U = np.zeros_like(d2)
    zero = d2 == 0.0
    coincident = zero.any(axis=1)
    if coincident.any():
        U[coincident, np.argmax(zero[coincident], axis=1)] = 1.0
    regular = ~coincident
    if regular.any():
        inv = d2[regular] ** (-1.0 / (m - 1.0))
        U[regular] = inv / inv.sum(axis=1, keepdims=True)
    return U


def _objective(values, U, centers, m):
    return float(np.sum(U**m * _sq_distances(values, centers)))


def _initial_membership(n_series, n_clusters, rng):
    # uniform on the simplex, row by row
    return rng.dirichlet(np.ones(n_clusters), size=n_series)


def run_fcm(data: Dataset, config: FcmConfig) -> FcmResult:
    validate_dataset(data)
    values = data.values()
    if not config.n_clusters < data.n_series:
        raise ConfigError(f"need K < N, got K={config.n_clusters}, N={data.n_series}")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed,)))
    U = _initial_membership(data.n_series, config.n_clusters, rng)
    m = config.fuzzifier
    trace = []
    centers = None
    for sweep in range(1, config.max_sweeps + 1):
        centers = fcm_centers(values, U, m)
        U_new = fcm_memberships(values, centers, m)
        trace.append(_objective(values, U_new, centers, m))
        delta = float(np.max(np.abs(U_new - U)))
        U = U_new
        if delta < config.epsilon:
            break
    return FcmResult(
        membership=U,
        centers=centers,
        objective_trace=np.asarray(trace),
        sweeps=len(trace),
        config=config,
    )
