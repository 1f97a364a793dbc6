"""Boosted-oriented probabilistic clustering.

The R restarts run in lockstep for a fixed number of iterations. Each
iteration takes the R' running restarts at once through: distance matrix
against the current centers -> PD membership probabilities -> loss beta ->
boosting weight matrix, as (R', K, N) stacks with the cluster axis first;
then weighted resampling with replacement of each of their (restart,
cluster) rows (``resample_counts``) -> one batched P-spline center fit of
the pooled means (``estimate_centers``) -> center update. A restart whose
loss falls below PERFECT_PARTITION_TOL stops: it goes through no further
iteration. Every matrix product of the loop takes the stack one (K, .)
restart slice at a time, and every other step works per restart, so a
restart's numbers depend only on its own key, not on R or on which
restarts stopped. Each center is the running mean of its per-iteration
P-spline fits; those fits share one basis, so the mean is itself a spline
in that basis and needs no further smoothing. The restart with the
smallest final BC index wins.

Randomness comes from dedicated streams (``streams.keyed_streams``) keyed
by (seed, restart) for the initial centers and (seed, restart, iteration,
cluster) for the resampling draws; the R initial-center keys, and the
running restarts' resampling keys of an iteration, are hashed in one batch.

Work that does not change within a run is done once per run: the spline
spectrum, and the series' side of the distance (their centered copies or
periodograms, for the Penrose and periodogram distances) and its squared
norms.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .distance import DistanceKind, _sq_distances, _sq_norms, distance_space
from .errors import ConfigError, DegenerateBeta
from .pdclust import _loss, _probabilities
from .streams import keyed_streams
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
        if not isinstance(self.distance, DistanceKind):
            raise ConfigError(f"distance must be a DistanceKind, got {self.distance!r}")
        try:
            pspline.LambdaCriterion(self.criterion)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RestartTrace:
    beta: np.ndarray
    bc: np.ndarray


@dataclass(frozen=True)
class ClusterResult:
    centers: np.ndarray       # (K, n) final center curves on the domain
    membership: np.ndarray    # (N, K) final PD probabilities
    bc_final: float
    restart_index: int
    restart_final_bc: np.ndarray
    traces: tuple             # RestartTrace per restart; the winner's is traces[restart_index]
    config: BoostConfig


def _raw_weights(D, P, beta):
    """Un-normalized boosting weights beta^(gamma * Gamma), cluster axis first.

    D and P are (..., K, N) distances and probabilities and beta holds one
    value per leading index. gamma_{k,i} = d_{k,i} / max_h d_{h,i}; Gamma is
    +1 at the series' highest-probability cluster (lowest index on ties)
    and -1 elsewhere.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise DegenerateBeta("beta must be positive; a zero loss means a perfect partition")
    rowmax = D.max(axis=-2, keepdims=True)
    gamma = np.where(rowmax > 0, D / np.where(rowmax > 0, rowmax, 1.0), 1.0)
    own = np.arange(D.shape[-2])[:, None] == np.argmax(P, axis=-2)[..., None, :]
    return beta[..., None, None] ** np.where(own, gamma, -gamma)


def _weights(D, P, beta):
    """Resampling weights (..., K, N): raw weights normalized per series, then per
    cluster, so that each cluster row is a sampling distribution over the series.
    The total over the series is a running sum, the order of ``sum(axis=-2)`` on
    (..., N, K)."""
    w = _raw_weights(D, P, beta)
    w /= w.sum(axis=-2, keepdims=True)
    return w / w.cumsum(axis=-1)[..., -1:]


def resample_counts(weights, streams):
    """(rows, N) counts of N draws with replacement, one row per weight row.

    Row j draws index i with probability weights[j, i] / sum(weights[j]) on
    the j-th Generator of streams, an iterable of exactly one per row, with
    the counts of ``Generator.choice(N, N, p=weights[j] / weights[j].sum())``
    on that stream. That call sends u to ``cdf.searchsorted(u, side="right")``
    (a u equal to a CDF value goes to the next series), so count_i = #{u :
    cdf_{i-1} <= u < cdf_i}: the uniforms below cdf_i less those below
    cdf_{i-1}, read off the sorted uniforms; the last CDF value is exactly
    1, above every uniform. Each stream is drawn from before the next.
    """
    w = np.asarray(weights, dtype=float)
    rows, n = w.shape
    total = w.sum(axis=1, keepdims=True)
    if not (np.all(w >= 0) and np.all((total > 0) & (total < np.inf))):
        raise ValueError("weights must be nonnegative with a positive finite sum per row")
    cdf = (w / total).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    below = np.empty((rows, n), dtype=np.intp)
    u = np.empty(n)
    # strict: a row without a stream would keep uninitialized counts
    for out, cdf_row, rng in zip(below, cdf, streams, strict=True):
        rng.random(out=u)
        u.sort()
        out[:] = u.searchsorted(cdf_row)
    return np.diff(below, axis=1, prepend=0)


def estimate_centers(values, counts, B, spectrum, criterion):
    """Center fits (..., n) from resampled multisets of series, one per row of counts (..., N).

    All points of the sampled series are pooled, a series drawn r times
    counting r-fold; on a shared domain this collapses to smoothing the
    multiplicity-weighted mean series (multiplicities normalized so the fit
    does not depend on the total draw count). All rows select their lambda
    in one batch from ``spectrum``, the factorisation of basis and penalty;
    a stack of counts takes one product per (K, N) slice.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=-1, keepdims=True)
    if not np.all(total > 0):
        raise ValueError("every sample must be nonempty")
    pooled = (counts @ values) / total
    return pspline.select_rows(pooled, spectrum, criterion).coef @ B.T


def run_boost(data: Dataset, config: BoostConfig) -> ClusterResult:
    """Run the full multi-restart algorithm and keep the best-BC restart."""
    values = data.values
    n_series = data.n_series
    k, restarts = config.n_clusters, config.restarts
    if not k < n_series:
        raise ConfigError(f"need K < N, got K={k}, N={n_series}")
    B = pspline.build_basis(data.domain)
    spectrum = pspline._spectrum(B, pspline.difference_penalty(B.shape[1]))
    criterion = pspline.LambdaCriterion(config.criterion)
    # resampling keys (restart, iteration, cluster) of each row; each iteration sets its own
    keys = np.zeros((restarts, k, 3), dtype=np.uint32)
    keys[..., 0], keys[..., 2] = np.arange(restarts)[:, None], np.arange(k)
    points = distance_space(values, config.distance)
    norms = _sq_norms(points)
    # column-major: points.T is then C-contiguous, and the distance product about twice as fast
    points = np.asfortranarray(points)

    def distances(centers):
        d2 = _sq_distances(points, distance_space(centers, config.distance), norms)
        return np.sqrt(d2, out=d2)

    starts = keyed_streams(config.seed, np.arange(restarts)[:, None])
    centers = np.stack([values[rng.choice(n_series, size=k, replace=False)] for rng in starts])
    sums = np.zeros_like(centers)
    run = np.arange(restarts)  # the running restarts
    betas = [[] for _ in range(restarts)]
    for iteration in range(1, config.maxiter + 1):
        D = distances(centers[run])
        P = _probabilities(D)
        beta = _loss(P)
        for r, b in zip(run, beta):
            betas[r].append(b)
        going = ~(beta < PERFECT_PARTITION_TOL)
        run, D, P, beta = run[going], D[going], P[going], beta[going]
        if not run.size:
            break
        weights = _weights(D, P, beta).reshape(-1, n_series)
        keys[..., 1] = iteration
        counts = resample_counts(weights, keyed_streams(config.seed, keys[run].reshape(-1, 3)))
        sums[run] += estimate_centers(values, counts.reshape(D.shape), B, spectrum, criterion)
        centers[run] = sums[run] / iteration

    P = _probabilities(distances(centers))
    finals = _loss(P) / n_series
    best = int(np.argmin(finals))
    traces = tuple(RestartTrace(beta=np.asarray(b), bc=np.asarray(b) / n_series) for b in betas)
    return ClusterResult(
        centers=centers[best],
        membership=np.ascontiguousarray(P[best].T),
        bc_final=float(finals[best]),
        restart_index=best,
        restart_final_bc=finals,
        traces=traces,
        config=config,
    )
