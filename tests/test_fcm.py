import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsboost import Dataset, FcmConfig, fcm, harden, run_fcm
from tsboost.errors import ConfigError, EmptyCluster, NegativeDistance
from tsboost.distance import _sq_distances
from tsboost.fcm import _weighted_means
from tsboost.pdclust import _probabilities

from conftest import two_level_dataset


class TestConfig:
    def test_fuzzifier_must_exceed_one(self):
        with pytest.raises(ConfigError):
            FcmConfig(n_clusters=2, fuzzifier=1.0)
        with pytest.raises(ConfigError):
            FcmConfig(n_clusters=1)
        with pytest.raises(ConfigError):
            FcmConfig(n_clusters=2, epsilon=0.0)

    @pytest.mark.parametrize("field", ["fuzzifier", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError):
            FcmConfig(n_clusters=2, **{field: value})


class TestCenters:
    def test_one_hot_gives_plain_means(self, rng):
        values = rng.normal(size=(6, 4))
        U = np.zeros((6, 2))
        U[:3, 0] = 1.0
        U[3:, 1] = 1.0
        centers = _weighted_means(values, (U**2.0).T)
        assert np.max(np.abs(centers[0] - values[:3].mean(axis=0))) < 1e-12
        assert np.max(np.abs(centers[1] - values[3:].mean(axis=0))) < 1e-12

    def test_all_ones_single_cluster_gives_global_mean(self, rng):
        values = rng.normal(size=(5, 3))
        centers = _weighted_means(values, np.ones((1, 5)))
        assert np.max(np.abs(centers[0] - values.mean(axis=0))) < 1e-12

    def test_direct_summation_oracle(self, rng):
        values = rng.normal(size=(7, 5))
        U = rng.dirichlet(np.ones(3), size=7)
        centers = _weighted_means(values, (U**2.0).T)
        for k in range(3):
            weights = U[:, k] ** 2
            oracle = sum(w * y for w, y in zip(weights, values)) / weights.sum()
            assert np.max(np.abs(centers[k] - oracle)) < 1e-12

    def test_empty_cluster(self, rng):
        values = rng.normal(size=(4, 3))
        U = np.zeros((4, 2))
        U[:, 0] = 1.0
        with pytest.raises(EmptyCluster):
            _weighted_means(values, (U**2.0).T)


def sq_distances(values, centers):
    """(N, K) squared distances, as ``run_fcm`` takes them from the shared kernel."""
    return np.ascontiguousarray(_sq_distances(values, centers).T)


def _memberships(d2, m):
    """FCM memberships (N, K) from (N, K) squared distances, through the PD kernel."""
    return _probabilities(d2.T, 1.0 / (m - 1.0)).T


class TestMemberships:
    def test_equidistant_point(self):
        values = np.array([[0.0, 0.0]])
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        U = _memberships(sq_distances(values, centers), m=2.0)
        assert np.max(np.abs(U - 0.5)) < 1e-12

    def test_coincident_point_one_hot(self, rng):
        centers = rng.normal(size=(3, 4))
        U = _memberships(sq_distances(centers[1][None, :], centers), m=2.0)
        assert np.array_equal(U, [[0.0, 1.0, 0.0]])

    def test_two_coincident_centers_split_equally(self, rng):
        centers = rng.normal(size=(3, 4))
        centers[2] = centers[0]
        U = _memberships(sq_distances(centers[0][None, :], centers), m=2.0)
        assert np.array_equal(U, [[0.5, 0.0, 0.5]])

    def test_direct_summation_oracle(self, rng):
        values = rng.normal(size=(6, 4))
        centers = rng.normal(size=(3, 4))
        U = _memberships(sq_distances(values, centers), m=2.0)
        for i in range(6):
            d2 = np.array([np.sum((values[i] - c) ** 2) for c in centers])
            for k in range(3):
                oracle = 1.0 / np.sum((d2[k] / d2) ** (1.0 / (2.0 - 1.0)))
                assert abs(U[i, k] - oracle) < 1e-12

    def test_rows_stochastic(self, rng):
        values, centers = rng.normal(size=(20, 5)), rng.normal(size=(4, 5))
        U = _memberships(sq_distances(values, centers), m=3.0)
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("m", [1.01, 1.001])
    def test_fuzzifier_near_one(self, m):
        # d2 ** (-1 / (m - 1)) overflows on the first row and underflows to 0
        # for every cluster on the second
        d2 = np.array([[1e-4, 2e-4, 5e-4], [1e4, 2e4, 3e4]])
        U = _memberships(d2, m)
        with np.errstate(over="ignore"):
            oracle = 1.0 / np.sum((d2[:, :, None] / d2[:, None, :]) ** (1.0 / (m - 1.0)), axis=2)
        assert np.all(np.abs(U - oracle) < 1e-12)
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) < 1e-12


def exact_sq_distances(values, centers):
    # each entry from its own differences: the reference for the kernel
    diff = values[:, None, :] - centers[None, :, :]
    return np.einsum("ikj,ikj->ik", diff, diff)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), n_series=st.integers(1, 40), k=st.integers(1, 8),
       level=st.floats(-1e4, 1e4), spread=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_sq_distances_within_documented_bound(n, n_series, k, level, spread, seed):
    # high levels and small spreads cancel most digits of ||y||^2 - 2 y.c +
    # ||c||^2; the guard must keep every entry within (n + 2) * 2^-46
    rng = np.random.default_rng(seed)
    values = level + spread * rng.normal(size=(n_series, n))
    centers = level + spread * rng.normal(size=(k, n))
    centers[0] = values[0]
    exact = exact_sq_distances(values, centers)
    d2 = sq_distances(values, centers)
    assert np.all(np.abs(d2 - exact) <= (n + 2) * 2.0**-46 * exact)


class TestSqDistances:
    def test_center_equal_to_a_series_is_exactly_zero(self, rng):
        values = 100.0 + rng.normal(size=(9, 50))
        centers = np.vstack([values[2], rng.normal(size=50) + 100.0, values[5]])
        d2 = sq_distances(values, centers)
        assert d2[2, 0] == 0.0 and d2[5, 2] == 0.0
        assert np.count_nonzero(d2 == 0.0) == 2

    @pytest.mark.parametrize("level", [1e160, 1e200])
    def test_overflowing_norms_give_the_exact_kernel(self, rng, level):
        # ||y||^2 overflows to inf at these levels, so every entry is
        # recomputed from its differences (which overflow too at 1e200)
        values = level * (1.0 + 1e-10 * rng.normal(size=(6, 50)))
        centers = np.vstack([values[1], values[4], level * np.ones(50)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d2 = sq_distances(values, centers)
        assert np.array_equal(d2, exact_sq_distances(values, centers))
        assert d2[1, 0] == 0.0 and d2[4, 1] == 0.0


class TestRunFcm:
    def test_separated_groups_recovered(self):
        data = two_level_dataset()
        result = run_fcm(data, FcmConfig(n_clusters=2, seed=0))
        labels = harden(result.membership)
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_huge_epsilon_stops_after_one_sweep(self):
        data = two_level_dataset()
        result = run_fcm(data, FcmConfig(n_clusters=2, epsilon=1e9, seed=0))
        assert result.sweeps == 1

    def test_objective_non_increasing(self, rng):
        values = rng.normal(size=(30, 8))
        data = Dataset(np.linspace(0, 1, 8), values)
        for seed in range(5):
            result = run_fcm(data, FcmConfig(n_clusters=3, seed=seed))
            assert np.all(np.diff(result.objective_trace) <= 1e-9)

    def test_membership_valid_after_run(self, rng):
        values = rng.normal(size=(15, 6))
        data = Dataset(np.linspace(0, 1, 6), values)
        result = run_fcm(data, FcmConfig(n_clusters=4, seed=2))
        assert np.all(result.membership >= 0)
        assert np.max(np.abs(result.membership.sum(axis=1) - 1.0)) < 1e-9

    def test_softness_grows_with_fuzzifier(self, rng):
        values = rng.normal(size=(24, 6)) + np.repeat([0.0, 3.0, 6.0], 8)[:, None]
        data = Dataset(np.linspace(0, 1, 6), values)
        entropies = []
        for m in (1.5, 2.0, 4.0, 10.0):
            result = run_fcm(data, FcmConfig(n_clusters=3, fuzzifier=m, seed=0))
            U = np.clip(result.membership, 1e-300, 1.0)
            entropies.append(float(np.mean(-np.sum(U * np.log(U), axis=1))))
        assert np.all(np.diff(entropies) >= -1e-9)

    def test_k_must_be_below_n(self):
        data = two_level_dataset(n_per_group=1)
        with pytest.raises(ConfigError):
            run_fcm(data, FcmConfig(n_clusters=2))

    @pytest.mark.parametrize("level", [1e154, 1e200])
    def test_overflowing_distances_rejected(self, rng, level):
        # the first series' squared distances overflow to inf; the sweep
        # must raise the boosted loop's error, not write NaN memberships
        pattern = np.array([1.0, -1.0, 1.0, -1.0])
        values = rng.normal(size=(4, 4))
        values[0] = level * pattern
        with pytest.raises(NegativeDistance, match="finite and nonnegative"):
            run_fcm(Dataset(np.linspace(0, 1, 4), values), FcmConfig(n_clusters=2))
        values[0] = 1e153 * pattern  # every squared distance is finite
        result = run_fcm(Dataset(np.linspace(0, 1, 4), values), FcmConfig(n_clusters=2))
        assert np.all(np.isfinite(result.membership)) and result.converged

    def test_identical_series_split_equally(self):
        # both centers land on the common series, whose membership splits
        # equally between them, so no cluster loses its weight
        values = np.tile([0.5, 1.0, -2.0, 3.0], (3, 1))
        result = run_fcm(Dataset(np.linspace(0, 1, 4), values), FcmConfig(n_clusters=2))
        assert np.array_equal(result.membership, np.full((3, 2), 0.5))
        assert result.converged


def full_tensor_fcm(values, config):
    """The sweep loop with an (N, K, n) difference tensor for each distance
    matrix, rebuilt for the objective, and U^m recomputed for the centers.
    The memberships are cluster-first (K, N) and follow the run's rule, in
    log space with the max subtracted. Near a coincident center FCM
    converges super-linearly, so any other arithmetic for the memberships
    or the center sums would drift from the run's by far more than the
    distances' round-off.

    Returns (membership (N, K), centers, objective trace, sweeps).
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed,)))
    U = rng.dirichlet(np.ones(config.n_clusters), size=values.shape[0]).T
    m = config.fuzzifier
    trace = []
    for _ in range(config.max_sweeps):
        um = U**m
        centers = (um @ values) / um.sum(axis=1)[:, None]
        d2 = np.ascontiguousarray(exact_sq_distances(values, centers).T)
        zero = d2 == 0.0
        coincident = zero.any(axis=0)
        logw = np.log(np.where(coincident, 1.0, d2)) * (-1.0 / (m - 1.0))
        w = np.exp(logw - logw.max(axis=0))
        U_new = np.where(coincident, zero / np.maximum(zero.sum(axis=0), 1), w / w.sum(axis=0))
        trace.append(float(np.sum(U_new**m * exact_sq_distances(values, centers).T)))
        delta = float(np.max(np.abs(U_new - U)))
        U = U_new
        if delta < config.epsilon:
            break
    return U.T, centers, np.asarray(trace), len(trace)


def _assert_within_round_off(got, oracle):
    # exact zeros stay exact; every other entry within 1e-12 of the oracle
    assert np.array_equal(got == 0.0, oracle == 0.0)
    assert np.all(np.abs(got - oracle) <= 1e-12 * np.abs(oracle))


def _assert_run_matches_full_tensor_loop(data, config):
    result = run_fcm(data, config)
    U, centers, trace, sweeps = full_tensor_fcm(data.values, config)
    assert result.sweeps == sweeps
    _assert_within_round_off(result.membership, U)
    _assert_within_round_off(result.centers, centers)
    _assert_within_round_off(result.objective_trace, trace)


@pytest.mark.parametrize("k", [2, 3, 6])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_run_matches_full_tensor_loop(k, m, seed):
    # one matrix-product distance matrix per sweep gives the memberships,
    # centers and objective of the full-tensor loop up to round-off
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(40, 7)) + np.repeat(np.arange(4.0), 10)[:, None]
    data = Dataset(np.linspace(0, 1, 7), values)
    _assert_run_matches_full_tensor_loop(
        data, FcmConfig(n_clusters=k, fuzzifier=m, seed=seed, max_sweeps=60))


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_run_matches_full_tensor_loop_at_a_coincident_center(monkeypatch, m):
    # two groups of identical constant series: once a far group's weights
    # underflow, each center lands exactly on its group, the guard recomputes
    # those distances as exact zeros and the coincident branch of the
    # membership update runs
    coincident = []
    probabilities = fcm._probabilities

    def spy(d2, power):
        coincident.append(bool((d2 == 0.0).any()))
        return probabilities(d2, power)

    monkeypatch.setattr(fcm, "_probabilities", spy)
    config = FcmConfig(n_clusters=2, fuzzifier=m, epsilon=1e-300, max_sweeps=60, seed=0)
    _assert_run_matches_full_tensor_loop(two_level_dataset(), config)
    assert any(coincident)
