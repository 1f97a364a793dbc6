"""Boosted-oriented probabilistic clustering.

One restart alternates, for a fixed number of iterations: distance matrix
against the current centers -> PD membership probabilities -> loss beta ->
boosting weight matrix -> per-cluster weighted resampling with replacement
-> P-spline center fit on the resampled pool -> center update. Each center
is the running mean of its per-iteration P-spline fits; those fits share one
basis, so the mean is itself a spline in that basis and needs no further
smoothing. Several independent restarts are run and the one with the
smallest final BC index wins.

Randomness is split into dedicated streams keyed by (seed, restart) for the
initial centers and (seed, restart, iteration, cluster) for the resampling
draws, so results are bit-identical regardless of execution schedule. The
``TSBOOST_THREADS`` environment variable caps restart-level parallelism
(unset or 1 = sequential, 0 = one thread per CPU).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Dataset, validate_dataset
from .distance import DistanceKind, distance_matrix
from .errors import ConfigError, DegenerateBeta
from .pdclust import loss_beta, pd_probabilities
from . import pspline

PERFECT_PARTITION_TOL = 1e-12


@dataclass(frozen=True)
class BoostConfig:
    n_clusters: int
    maxiter: int = 100
    restarts: int = 10
    distance: DistanceKind = DistanceKind.EUCLIDEAN
    seed: int = 0
    criterion: str = "vcurve"

    def __post_init__(self):
        if self.n_clusters < 2:
            raise ConfigError("need at least 2 clusters")
        if self.maxiter < 1 or self.restarts < 1:
            raise ConfigError("maxiter and restarts must be >= 1")


@dataclass(frozen=True)
class RestartTrace:
    beta: np.ndarray
    bc: np.ndarray


@dataclass(frozen=True)
class ClusterResult:
    centers: np.ndarray       # (K, n) final center curves on the domain
    membership: np.ndarray    # (N, K) final PD probabilities
    bc_final: float
    beta_trace: np.ndarray    # winning restart
    bc_trace: np.ndarray
    restart_index: int
    restart_final_bc: np.ndarray
    traces: tuple             # RestartTrace per restart
    config: BoostConfig


def thread_count():
    raw = os.environ.get("TSBOOST_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError(f"TSBOOST_THREADS must be an integer, got {raw!r}") from None
    if count == 0:
        return os.cpu_count() or 1
    return max(count, 1)


def raw_weights(D, P, beta):
    """Un-normalized boosting weights beta^(gamma * Gamma).

    gamma_{i,k} = d_{i,k} / max_h d_{i,h}; Gamma is +1 at the row's
    highest-probability cluster (lowest index on ties) and -1 elsewhere.
    """
    D = np.asarray(D, dtype=float)
    P = np.asarray(P, dtype=float)
    if beta <= 0:
        raise DegenerateBeta("beta must be positive; a zero loss means a perfect partition")
    rowmax = D.max(axis=1)
    gamma = np.where(rowmax[:, None] > 0, D / np.where(rowmax > 0, rowmax, 1.0)[:, None], 1.0)
    indicator = np.full(D.shape, -1.0)
    indicator[np.arange(D.shape[0]), np.argmax(P, axis=1)] = 1.0
    return float(beta) ** (gamma * indicator)


def compute_weights(D, P, beta):
    """Resampling weight matrix: raw weights row- then column-normalized.

    Every returned column sums to 1, so each column is a sampling
    distribution over the series for one cluster.
    """
    w = raw_weights(D, P, beta)
    w /= w.sum(axis=1, keepdims=True)
    return w / w.sum(axis=0, keepdims=True)


def draw_cluster_sample(column_weights, sample_size, rng):
    """Indices drawn with replacement, index i with probability column_weights[i]."""
    w = np.asarray(column_weights, dtype=float)
    return rng.choice(w.shape[0], size=sample_size, replace=True, p=w / w.sum())


def estimate_center(values, sample, basis, penalty, criterion):
    """Center fit from a resampled multiset of series indices.

    All points of the sampled series are pooled, a series drawn r times
    counting r-fold; on a shared domain this collapses to smoothing the
    multiplicity-weighted mean series (multiplicities normalized so the fit
    does not depend on the total draw count).
    """
    sample = np.asarray(sample, dtype=int)
    if sample.size == 0:
        raise ValueError("sample must be nonempty")
    counts = np.bincount(sample, minlength=values.shape[0]).astype(float)
    pooled = (counts @ values) / counts.sum()
    return pspline.smooth_series(pooled, basis, penalty, criterion)[0]


@dataclass(frozen=True)
class _RestartOutcome:
    centers: np.ndarray
    membership: np.ndarray
    bc_final: float
    trace: RestartTrace


def _run_restart(values, basis, penalty, criterion, config, restart):
    n_series = values.shape[0]
    k = config.n_clusters
    init_rng = np.random.default_rng(np.random.SeedSequence((config.seed, restart)))
    centers = values[init_rng.choice(n_series, size=k, replace=False)]
    sums = np.zeros_like(centers)
    beta_trace, bc_trace = [], []
    for iteration in range(1, config.maxiter + 1):
        D = distance_matrix(values, centers, config.distance)
        P = pd_probabilities(D)
        beta = loss_beta(P)
        beta_trace.append(beta)
        bc_trace.append(beta / n_series)
        if beta < PERFECT_PARTITION_TOL:
            break
        W = compute_weights(D, P, beta)
        for cluster in range(k):
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, restart, iteration, cluster))
            )
            sample = draw_cluster_sample(W[:, cluster], n_series, rng)
            sums[cluster] += estimate_center(values, sample, basis, penalty, criterion).fitted
        centers = sums / iteration
    D = distance_matrix(values, centers, config.distance)
    P = pd_probabilities(D)
    return _RestartOutcome(
        centers=centers,
        membership=P,
        bc_final=loss_beta(P) / n_series,
        trace=RestartTrace(beta=np.asarray(beta_trace), bc=np.asarray(bc_trace)),
    )


def run_boost(data: Dataset, config: BoostConfig) -> ClusterResult:
    """Run the full multi-restart algorithm and keep the best-BC restart."""
    validate_dataset(data)
    values = data.values()
    if not config.n_clusters < data.n_series:
        raise ConfigError(
            f"need K < N, got K={config.n_clusters}, N={data.n_series}"
        )
    basis = pspline.build_basis(data.domain)
    penalty = pspline.difference_penalty(basis.n_bases)
    criterion = pspline.LambdaCriterion(config.criterion)

    def job(restart):
        return _run_restart(values, basis, penalty, criterion, config, restart)

    workers = min(thread_count(), config.restarts)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(job, range(config.restarts)))
    else:
        outcomes = [job(r) for r in range(config.restarts)]

    finals = np.array([o.bc_final for o in outcomes])
    best = int(np.argmin(finals))
    winner = outcomes[best]
    return ClusterResult(
        centers=winner.centers,
        membership=winner.membership,
        bc_final=winner.bc_final,
        beta_trace=winner.trace.beta,
        bc_trace=winner.trace.bc,
        restart_index=best,
        restart_final_bc=finals,
        traces=tuple(o.trace for o in outcomes),
        config=config,
    )
