"""The boosted loop's cluster-first cores against the (N, K) arithmetic.

The loop holds distances, probabilities and weights as C-contiguous
(R, K, N) stacks and reduces over the cluster axis -2, and so does the
reference partition on its (K, N) distances. The ``nk_*`` oracles are the
same arithmetic on (..., N, K) arrays, reducing over the last axis, as the
paper writes it. numpy sums a contiguous axis of fewer than
8 terms in order, so up to K = 7 both layouts give every bit; from K = 8 it
sums the contiguous (N, K) rows pairwise, and the results differ by
round-off. A transposed view reduces in its memory order, so each core is
checked on a C-contiguous K-major copy, as the loop holds it. The loop
oracle takes its distances from the loop's own matrix-product kernel, so
that it tests the K-major arithmetic; a second oracle with distances from
differences bounds what the kernel's round-off moves.
"""

import numpy as np
import pytest

from tsboost import (
    BoostConfig, DistanceKind, bc_index, boost, pspline, reference_partition, run_boost, simgen,
)
from tsboost.boost import _weights, estimate_centers, resample_counts
from tsboost.distance import _sq_distances, distance_space
from tsboost.pdclust import _loss, _probabilities

from oracles import nk_loss, nk_probabilities


def nk_weights(D, P, beta):
    rowmax = D.max(axis=-1, keepdims=True)
    gamma = np.where(rowmax > 0, D / np.where(rowmax > 0, rowmax, 1.0), 1.0)
    own = np.arange(D.shape[-1]) == np.argmax(P, axis=-1)[..., None]
    w = beta[..., None, None] ** np.where(own, gamma, -gamma)
    w /= w.sum(axis=-1, keepdims=True)
    return w / w.sum(axis=-2, keepdims=True)


def kernel_distances(points, centers):
    """(R, N, K) distances from the shared kernel, one call on the (R, K, m) stack of centers."""
    return np.ascontiguousarray(np.sqrt(_sq_distances(points, centers)).swapaxes(-1, -2))


def exact_distances(points, centers):
    """(R, N, K) distances from each entry's own differences."""
    diff = points[:, None, :] - centers[:, None, :, :]
    return np.sqrt(np.einsum("rikj,rikj->rik", diff, diff))


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
    # bc_index takes a series-first (N, K) membership; it reduces the
    # transposed view, whose cluster axis is contiguous as in the (N, K)
    # arithmetic, so it gives that arithmetic's bits at every K
    rng = np.random.default_rng(100 + k)
    D, P, beta = stacks(k, rng)
    for r in range(P.shape[0]):
        assert bc_index(P[r]) == float(beta[r]) / P.shape[1]


@pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("k", range(2, 13))
def test_reference_partition_equals_nk_oracle(kind, k):
    # the reference memberships come from the cluster-first cores, so they
    # move from the (N, K) arithmetic's bits only where the cores do;
    # measured worst case at K = 8..12 is 4 ulp
    data, _ = simgen.generate(simgen.SimConfig(seed=k, n_points=10))
    labels = np.random.default_rng(k).permutation(np.arange(data.n_series) % k)
    membership, centers = reference_partition(data, labels, kind)
    points = distance_space(data.values, kind)
    oracle = nk_probabilities(kernel_distances(points, distance_space(centers, kind)[None])[0])
    assert membership.shape == oracle.shape and membership.flags.c_contiguous
    if k <= 7:
        assert np.array_equal(membership, oracle)
    else:
        assert ulps(membership, oracle) <= 16


def nk_run_boost(data, config, distances=kernel_distances):
    """``run_boost``'s loop on (R, N, K) stacks with the nk arithmetic.

    Only the running restarts go through an iteration, and every product
    takes them one restart at a time. Returns the final centers,
    memberships and BC indices of every restart and the number of
    iterations each one ran.
    """
    values = data.values
    n_series, k, restarts = values.shape[0], config.n_clusters, config.restarts
    B = pspline.build_basis(data.domain)
    spectrum = pspline._spectrum(B, pspline.difference_penalty(B.shape[1]))
    criterion = pspline.LambdaCriterion(config.criterion)
    points = distance_space(values, config.distance)
    centers = np.stack([
        values[np.random.default_rng(np.random.SeedSequence((config.seed, r)))
               .choice(n_series, size=k, replace=False)]
        for r in range(restarts)
    ])
    sums = np.zeros_like(centers)
    run = np.arange(restarts)
    iterations = np.zeros(restarts, dtype=int)
    for iteration in range(1, config.maxiter + 1):
        D = distances(points, distance_space(centers[run], config.distance))
        P = nk_probabilities(D)
        beta = nk_loss(P)
        iterations[run] += 1
        going = ~(beta < boost.PERFECT_PARTITION_TOL)
        run, D, P, beta = run[going], D[going], P[going], beta[going]
        if not run.size:
            break
        W = nk_weights(D, P, beta)
        counts = resample_counts(W.transpose(0, 2, 1).reshape(-1, n_series), [
            np.random.default_rng(np.random.SeedSequence((config.seed, r, iteration, cluster)))
            for r in run for cluster in range(k)
        ])
        fitted = estimate_centers(values, counts.reshape(run.size, k, n_series), B, spectrum, criterion)
        sums[run] += fitted
        centers[run] = sums[run] / iteration
    P = nk_probabilities(distances(points, distance_space(centers, config.distance)))
    return centers, P, nk_loss(P) / n_series, iterations


@pytest.mark.parametrize("kind, n_points", [(DistanceKind.EUCLIDEAN, 10),
                                            (DistanceKind.PERIODOGRAM, 24)],
                         ids=["euclidean", "periodogram"])
@pytest.mark.parametrize("k", [3, 6])
@pytest.mark.parametrize("seed", [0, 5])
def test_run_boost_equals_nk_loop(kind, n_points, k, seed):
    data, _ = simgen.generate(simgen.SimConfig(seed=seed, n_points=n_points))
    config = BoostConfig(n_clusters=k, maxiter=15, restarts=3, distance=kind, seed=seed)
    result = run_boost(data, config)
    centers, P, finals, _ = nk_run_boost(data, config)
    best = int(np.argmin(finals))
    assert result.restart_index == best
    assert np.array_equal(result.restart_final_bc, finals)
    assert np.array_equal(result.centers, centers[best])
    assert np.array_equal(result.membership, P[best])
    assert result.membership.flags.c_contiguous


@pytest.mark.parametrize("kind, n_points", [(DistanceKind.EUCLIDEAN, 10),
                                            (DistanceKind.PENROSE_SHAPE, 10),
                                            (DistanceKind.PERIODOGRAM, 24)],
                         ids=["euclidean", "penrose", "periodogram"])
@pytest.mark.parametrize("seed", [0, 5])
def test_run_boost_equals_exact_distance_loop(kind, n_points, seed):
    # the matrix-product distances differ from the difference form by
    # round-off only: the same draws, the same restart and iteration counts
    data, _ = simgen.generate(simgen.SimConfig(seed=seed, n_points=n_points))
    config = BoostConfig(n_clusters=6, maxiter=15, restarts=3, distance=kind, seed=seed)
    result = run_boost(data, config)
    centers, P, finals, iterations = nk_run_boost(data, config, exact_distances)
    assert result.restart_index == int(np.argmin(finals))
    assert [trace.beta.shape[0] for trace in result.traces] == list(iterations)
    assert np.max(np.abs(result.centers - centers[result.restart_index])) <= 1e-12
    assert np.max(np.abs(result.membership - P[result.restart_index])) <= 1e-12
