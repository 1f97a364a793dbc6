"""The boosted loop's cluster-first cores against the (N, K) arithmetic.

The loop holds distances, probabilities and weights as C-contiguous
(R, K, N) stacks and reduces over the cluster axis -2. The ``nk_*``
functions below are the same arithmetic on (..., N, K) arrays, reducing
over the last axis, as the public ``pd_probabilities``, ``loss_beta`` and
``compute_weights`` compute it. numpy sums a contiguous axis of fewer than
8 terms in order, so up to K = 7 both layouts give every bit; from K = 8 it
sums the contiguous (N, K) rows pairwise, and the results differ by
round-off. A transposed view reduces in its memory order, so each core is
checked on a C-contiguous K-major copy, as the loop holds it.
"""

import math

import numpy as np
import pytest

from tsboost import BoostConfig, DistanceKind, boost, pspline, run_boost, simgen
from tsboost.boost import _weights, compute_weights, estimate_centers, resample_counts
from tsboost.distance import distance_space
from tsboost.pdclust import _loss, _probabilities, loss_beta, pd_probabilities


def nk_probabilities(D):
    zero = D == 0.0
    coincident = zero.any(axis=-1, keepdims=True)
    logw = -np.log(np.where(coincident, 1.0, D))
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    split = zero / np.maximum(zero.sum(axis=-1, keepdims=True), 1)
    return np.where(coincident, split, w / w.sum(axis=-1, keepdims=True))


def nk_loss(P):
    K = P.shape[-1]
    with np.errstate(divide="ignore"):
        logs = np.log(P).sum(axis=-1) + K * math.log(K)
    return np.sum(np.minimum(np.exp(logs), 1.0), axis=-1)


def nk_weights(D, P, beta):
    rowmax = D.max(axis=-1, keepdims=True)
    gamma = np.where(rowmax > 0, D / np.where(rowmax > 0, rowmax, 1.0), 1.0)
    own = np.arange(D.shape[-1]) == np.argmax(P, axis=-1)[..., None]
    w = beta[..., None, None] ** np.where(own, gamma, -gamma)
    w /= w.sum(axis=-1, keepdims=True)
    return w / w.sum(axis=-2, keepdims=True)


def nk_distances(points, centers):
    def one(C):
        diff = points[:, None, :] - C[None, :, :]
        return np.sqrt(np.einsum("ikj,ikj->ik", diff, diff))
    return np.stack([one(C) for C in centers])


def kmajor(a):
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def ulps(a, b):
    return np.max(np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b))))


def stacks(k, rng):
    """(R, N, K) distances with zeros, their probabilities and losses."""
    D = rng.uniform(0.05, 5.0, size=(4, 360, k))
    D *= rng.choice([1e-3, 1.0, 1e3], size=(4, 360, 1))
    D[0, 3, 1] = 0.0
    D[1, 5, :2] = 0.0
    D[2, 7] = 0.0
    P = nk_probabilities(D)
    return D, P, nk_loss(P)


@pytest.mark.parametrize("k", range(2, 13))
def test_cores_equal_nk_arithmetic(k):
    rng = np.random.default_rng(k)
    D, P, beta = stacks(k, rng)
    W = nk_weights(D, P, beta)
    cores = (kmajor(_probabilities(kmajor(D))), _loss(kmajor(P)),
             kmajor(_weights(kmajor(D), kmajor(P), beta)))
    if k <= 7:
        for core, oracle in zip(cores, (P, beta, W)):
            assert np.array_equal(core, oracle)
    else:
        # the cluster sums run in order rather than pairwise; measured
        # worst cases at K = 8..12 are 4 ulp (P), 6 ulp (beta), 8 ulp (W)
        for core, oracle in zip(cores, (P, beta, W)):
            assert ulps(core, oracle) <= 16


@pytest.mark.parametrize("k", range(2, 13))
def test_public_functions_keep_the_nk_contract(k):
    rng = np.random.default_rng(100 + k)
    D, P, beta = stacks(k, rng)
    results = (pd_probabilities(D), loss_beta(P), compute_weights(D, P, beta))
    for result in (results[0], results[2]):
        assert result.shape == D.shape and result.flags.c_contiguous
    assert np.array_equal(results[0], P) and np.array_equal(results[1], beta)
    if k <= 7:
        assert np.array_equal(results[2], nk_weights(D, P, beta))
    else:
        assert ulps(results[2], nk_weights(D, P, beta)) <= 16


def nk_run_boost(data, config):
    """``run_boost``'s loop on (R, N, K) stacks with the nk arithmetic."""
    values = data.values()
    n_series, k, restarts = values.shape[0], config.n_clusters, config.restarts
    basis = pspline.build_basis(data.domain)
    spectrum = pspline._spectrum(basis, pspline.difference_penalty(basis.n_bases))
    criterion = pspline.LambdaCriterion(config.criterion)
    words = boost._seed_words(config.seed)
    points, _ = distance_space(values, config.distance)
    centers = np.stack([
        values[boost._stream(words, r).choice(n_series, size=k, replace=False)]
        for r in range(restarts)
    ])
    sums = np.zeros_like(centers)
    active = np.ones(restarts, dtype=bool)
    for iteration in range(1, config.maxiter + 1):
        D = nk_distances(points, distance_space(centers, config.distance)[0])
        P = nk_probabilities(D)
        beta = nk_loss(P)
        active &= ~(beta < boost.PERFECT_PARTITION_TOL)
        if not active.any():
            break
        W = nk_weights(D, P, np.where(active, beta, 1.0))
        columns = W.transpose(0, 2, 1).reshape(restarts * k, n_series)
        drawn = np.repeat(active, k)
        counts = np.ones_like(columns)
        counts[drawn] = resample_counts(columns[drawn], [
            boost._stream(words, r, iteration, cluster)
            for r in np.flatnonzero(active) for cluster in range(k)
        ])
        fitted = estimate_centers(values, counts, basis, spectrum, criterion)
        live = active[:, None, None]
        np.add(sums, fitted.reshape(centers.shape), out=sums, where=live)
        np.divide(sums, iteration, out=centers, where=live)
    P = nk_probabilities(nk_distances(points, distance_space(centers, config.distance)[0]))
    return centers, P, nk_loss(P) / n_series


@pytest.mark.parametrize("kind, n_points", [(DistanceKind.EUCLIDEAN, 10),
                                            (DistanceKind.PERIODOGRAM, 24)],
                         ids=["euclidean", "periodogram"])
@pytest.mark.parametrize("k", [3, 6])
@pytest.mark.parametrize("seed", [0, 5])
def test_run_boost_equals_nk_loop(kind, n_points, k, seed):
    data, _ = simgen.generate(simgen.SimConfig(seed=seed, n_points=n_points))
    config = BoostConfig(n_clusters=k, maxiter=15, restarts=3, distance=kind, seed=seed)
    result = run_boost(data, config)
    centers, P, finals = nk_run_boost(data, config)
    best = int(np.argmin(finals))
    assert result.restart_index == best
    assert np.array_equal(result.restart_final_bc, finals)
    assert np.array_equal(result.centers, centers[best])
    assert np.array_equal(result.membership, P[best])
    assert result.membership.flags.c_contiguous
