"""Boosted-oriented probabilistic clustering.

The R restarts run in lockstep for a fixed number of iterations. Each
iteration takes every restart at once through: distance matrix against the
current centers -> PD membership probabilities -> loss beta -> boosting
weight matrix, as (R, N, K) arrays; then weighted resampling with
replacement of each of the R*K (restart, cluster) columns
(``resample_counts``) -> one batched P-spline center fit of the R*K pooled
means (``estimate_centers``) -> center update. The spline spectrum is
factored once per run. Each center is the running mean of its
per-iteration P-spline fits; those fits share one basis, so the mean is
itself a spline in that basis and needs no further smoothing. The restart
with the smallest final BC index wins.

A restart whose loss falls below PERFECT_PARTITION_TOL stops; its rows are
still carried through the batched steps and discarded. Every batched call
therefore has R*K rows in every iteration: the round-off of a batched
matrix product depends on its row count, and this way no restart's result
depends on when another one stopped.

Randomness is split into dedicated streams keyed by (seed, restart) for the
initial centers and (seed, restart, iteration, cluster) for the resampling
draws.

Work that does not change within a run is done once per run: the spline
spectrum, the series' side of the distance (their periodograms, for the
periodogram distance) and the seed's part of every stream key.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset, checked_values
from .distance import DistanceKind, distance_matrix, distance_space
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


def raw_weights(D, P, beta):
    """Un-normalized boosting weights beta^(gamma * Gamma).

    gamma_{i,k} = d_{i,k} / max_h d_{i,h}; Gamma is +1 at the row's
    highest-probability cluster (lowest index on ties) and -1 elsewhere.
    D and P are (..., N, K) and beta holds one value per leading index.
    """
    D = np.asarray(D, dtype=float)
    P = np.asarray(P, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise DegenerateBeta("beta must be positive; a zero loss means a perfect partition")
    rowmax = D.max(axis=-1, keepdims=True)
    gamma = np.where(rowmax > 0, D / np.where(rowmax > 0, rowmax, 1.0), 1.0)
    own = np.arange(D.shape[-1]) == np.argmax(P, axis=-1)[..., None]
    return beta[..., None, None] ** np.where(own, gamma, -gamma)


def compute_weights(D, P, beta):
    """Resampling weight matrix: raw weights row- then column-normalized.

    Every returned column sums to 1, so each column is a sampling
    distribution over the series for one cluster.
    """
    w = raw_weights(D, P, beta)
    w /= w.sum(axis=-1, keepdims=True)
    return w / w.sum(axis=-2, keepdims=True)


def resample_counts(weights, rngs):
    """(rows, N) counts of N draws with replacement, one row per weight row.

    Row j draws index i with probability weights[j, i] / sum(weights[j]) on
    stream rngs[j], by the inverse CDF of N uniforms: the same arithmetic as
    ``Generator.choice(N, N, p=weights[j] / weights[j].sum())``, so the
    counts equal that call's on the same stream. The counts do not depend on
    the order of the uniforms, which are sorted before the search: a search
    for ascending keys takes predictable branches.
    """
    w = np.asarray(weights, dtype=float)
    rows, n = w.shape
    total = w.sum(axis=1, keepdims=True)
    if not (np.all(w >= 0) and np.all((total > 0) & (total < np.inf))):
        raise ValueError("weights must be nonnegative with a positive finite sum per row")
    cdf = (w / total).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    uniforms = np.empty((rows, n))
    for row, rng in enumerate(rngs):
        rng.random(out=uniforms[row])
    uniforms.sort(axis=1)
    draws = np.empty((rows, n), dtype=np.intp)
    for row in range(rows):
        draws[row] = cdf[row].searchsorted(uniforms[row], side="right")
    draws += n * np.arange(rows)[:, None]
    return np.bincount(draws.ravel(), minlength=rows * n).reshape(rows, n)


def estimate_centers(values, counts, basis, spectrum, criterion):
    """Center fits (rows, n) from resampled multisets of series, one per row of counts.

    All points of the sampled series are pooled, a series drawn r times
    counting r-fold; on a shared domain this collapses to smoothing the
    multiplicity-weighted mean series (multiplicities normalized so the fit
    does not depend on the total draw count). All rows select their lambda
    in one batch from ``spectrum``, the factorisation of basis and penalty.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=1, keepdims=True)
    if not np.all(total > 0):
        raise ValueError("every sample must be nonempty")
    pooled = (counts @ values) / total
    return pspline.select_rows(pooled, spectrum, criterion).coef @ basis.matrix.T


def _seed_words(seed):
    """The seed's little-endian 32-bit words ([0] for 0), as ``SeedSequence`` splits an int."""
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


def _stream(seed_words, *key):
    """Generator keyed by (seed, *key): equal to ``SeedSequence((seed, *key))``'s.

    A uint32 key skips the per-int conversion of a tuple key; every key
    entry after the seed is below 2**32.
    """
    entropy = np.array((*seed_words, *key), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def run_boost(data: Dataset, config: BoostConfig) -> ClusterResult:
    """Run the full multi-restart algorithm and keep the best-BC restart."""
    values = checked_values(data)
    n_series = data.n_series
    k, restarts, seed = config.n_clusters, config.restarts, config.seed
    if not k < n_series:
        raise ConfigError(f"need K < N, got K={k}, N={n_series}")
    basis = pspline.build_basis(data.domain)
    penalty = pspline.difference_penalty(basis.n_bases)
    spectrum = pspline._spectrum(basis, penalty)
    criterion = pspline.LambdaCriterion(config.criterion)
    words = _seed_words(seed)
    points, kind = distance_space(values, config.distance)

    def distances(centers):
        return distance_matrix(points, distance_space(centers, config.distance)[0], kind)

    centers = np.stack([
        values[_stream(words, r).choice(n_series, size=k, replace=False)]
        for r in range(restarts)
    ])
    sums = np.zeros_like(centers)
    active = np.ones(restarts, dtype=bool)
    betas = [[] for _ in range(restarts)]
    for iteration in range(1, config.maxiter + 1):
        D = distances(centers)
        P = pd_probabilities(D)
        beta = loss_beta(P)
        for r in np.flatnonzero(active):
            betas[r].append(beta[r])
        active &= ~(beta < PERFECT_PARTITION_TOL)
        if not active.any():
            break
        # stopped restarts take beta 1 and all-ones counts; their fits are discarded
        W = compute_weights(D, P, np.where(active, beta, 1.0))
        columns = W.transpose(0, 2, 1).reshape(restarts * k, n_series)
        drawn = np.repeat(active, k)
        counts = np.ones_like(columns)
        counts[drawn] = resample_counts(columns[drawn], [
            _stream(words, r, iteration, cluster)
            for r in np.flatnonzero(active) for cluster in range(k)
        ])
        fitted = estimate_centers(values, counts, basis, spectrum, criterion)
        live = active[:, None, None]
        np.add(sums, fitted.reshape(centers.shape), out=sums, where=live)
        np.divide(sums, iteration, out=centers, where=live)

    P = pd_probabilities(distances(centers))
    finals = loss_beta(P) / n_series
    best = int(np.argmin(finals))
    traces = tuple(RestartTrace(beta=np.asarray(b), bc=np.asarray(b) / n_series) for b in betas)
    return ClusterResult(
        centers=centers[best],
        membership=P[best],
        bc_final=float(finals[best]),
        beta_trace=traces[best].beta,
        bc_trace=traces[best].bc,
        restart_index=best,
        restart_final_bc=finals,
        traces=traces,
        config=config,
    )
