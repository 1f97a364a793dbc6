"""Fuzzy c-means baseline.

Classic alternating minimization of J_m with squared Euclidean distances:
centers are mu^m-weighted means, memberships follow the inverse-distance
update, and the sweep loop stops when no membership moves by more than
epsilon. The squared distances come from the guarded matrix-product kernel
that the boosted loop shares (``distance._sq_distances``), and a sweep
whose squared distances overflow raises the boosted loop's error
(``distance._check_distances``) rather than writing NaN memberships. Kept
as a comparison point; its behavior depends on the fuzzifier m, which the
boosted algorithm avoids.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .distance import _check_distances, _sq_distances, _sq_norms
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
    converged: bool          # the last sweep moved no membership by epsilon
    config: FcmConfig


def _weighted_means(values, um):
    """Cluster means (K, n) weighted by um = mu^m (N, K)."""
    colsum = um.sum(axis=0)
    if np.any(colsum < 1e-300):
        raise EmptyCluster("a cluster has vanishing total membership weight")
    return (um.T @ values) / colsum[:, None]


def _memberships(d2, m):
    """Inverse-distance membership update from (N, K) squared distances;
    a point that coincides with a center gets a one-hot row."""
    zero = d2 == 0.0
    coincident = zero.any(axis=1)
    if not coincident.any():
        power = -1.0 / (m - 1.0)
        with np.errstate(over="ignore"):
            inv = d2**power
            total = inv.sum(axis=1, keepdims=True)
        # near m = 1 the powers can overflow, or underflow to 0 for every
        # cluster; such a series is recomputed from distances over its
        # smallest, so that its nearest center's term is exactly 1
        bad = ~((total > 0.0) & (total < np.inf))[:, 0]
        if bad.any():
            with np.errstate(over="ignore"):
                inv[bad] = (d2[bad] / d2[bad].min(axis=1, keepdims=True)) ** power
            total[bad] = inv[bad].sum(axis=1, keepdims=True)
        return inv / total
    U = np.zeros_like(d2)
    U[coincident, np.argmax(zero[coincident], axis=1)] = 1.0
    regular = ~coincident
    U[regular] = _memberships(d2[regular], m)
    return U


def _initial_membership(n_series, n_clusters, rng):
    # uniform on the simplex, row by row
    return rng.dirichlet(np.ones(n_clusters), size=n_series)


def run_fcm(data: Dataset, config: FcmConfig) -> FcmResult:
    values = data.values
    if not config.n_clusters < data.n_series:
        raise ConfigError(f"need K < N, got K={config.n_clusters}, N={data.n_series}")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed,)))
    U = _initial_membership(data.n_series, config.n_clusters, rng)
    m = config.fuzzifier
    trace = []
    centers = None
    converged = False
    norms = _sq_norms(values)
    # one distance matrix per sweep gives the membership update and the
    # objective J_m = sum(U^m * d2); U^m then weights the next sweep's centers
    um = U**m
    for sweep in range(1, config.max_sweeps + 1):
        centers = _weighted_means(values, um)
        # a contiguous (N, K) copy, not a transposed view: the membership
        # row sums and J_m's total depend on the memory order they add in
        d2 = np.ascontiguousarray(_sq_distances(values, centers, norms).T)
        _check_distances(d2)
        U_new = _memberships(d2, m)
        um = U_new**m
        trace.append(float(np.sum(um * d2)))
        delta = float(np.max(np.abs(U_new - U)))
        U = U_new
        converged = delta < config.epsilon
        if converged:
            break
    return FcmResult(
        membership=U,
        centers=centers,
        objective_trace=np.asarray(trace),
        sweeps=len(trace),
        converged=converged,
        config=config,
    )
