"""Fuzzy c-means baseline.

Classic alternating minimization of J_m with squared Euclidean distances:
centers are mu^m-weighted means, and the sweep loop stops when no
membership moves by more than epsilon. The squared distances come from the
guarded matrix-product kernel that the boosted loop shares
(``distance._sq_distances``). The membership update, u_k proportional to
d2_k ** (-1 / (m - 1)), is the PD kernel's rule with that power
(``pdclust._probabilities``), so memberships are held cluster-first (K, N)
until the result, and at m = 3 they are the PD memberships of the centers.
The kernel works in log space, so no fuzzifier overflows the update; it
splits a series at distance 0 from several centers equally among them, and
it rejects overflowing squared distances with the boosted loop's error
(``distance._check_distances``) rather than writing NaN memberships. Kept
as a comparison point; its behavior depends on the fuzzifier m, which the
boosted algorithm avoids.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .distance import _sq_distances, _sq_norms
from .errors import ConfigError, EmptyCluster
from .pdclust import _probabilities


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
    """Cluster means (K, n) weighted by um = mu^m (K, N)."""
    total = um.sum(axis=1)
    if np.any(total < 1e-300):
        raise EmptyCluster("a cluster has vanishing total membership weight")
    return (um @ values) / total[:, None]


def run_fcm(data: Dataset, config: FcmConfig) -> FcmResult:
    values = data.values
    if not config.n_clusters < data.n_series:
        raise ConfigError(f"need K < N, got K={config.n_clusters}, N={data.n_series}")
    rng = np.random.default_rng(np.random.SeedSequence((config.seed,)))
    # memberships are cluster-first (K, N), as the kernels are; the initial
    # ones are uniform on the simplex, series by series
    U = rng.dirichlet(np.ones(config.n_clusters), size=data.n_series).T
    m = config.fuzzifier
    trace = []
    centers = None
    converged = False
    norms = _sq_norms(values)
    # one distance matrix per sweep gives the membership update and the
    # objective J_m = sum(U^m * d2); U^m then weights the next sweep's centers
    um = U**m
    for _ in range(config.max_sweeps):
        centers = _weighted_means(values, um)
        d2 = _sq_distances(values, centers, norms)
        U_new = _probabilities(d2, 1.0 / (m - 1.0))
        um = U_new**m
        trace.append(float(np.sum(um * d2)))
        delta = float(np.max(np.abs(U_new - U)))
        U = U_new
        converged = delta < config.epsilon
        if converged:
            break
    return FcmResult(
        membership=np.ascontiguousarray(U.T),
        centers=centers,
        objective_trace=np.asarray(trace),
        sweeps=len(trace),
        converged=converged,
        config=config,
    )
