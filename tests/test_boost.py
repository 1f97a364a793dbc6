import numpy as np
import pytest

from tsboost import BoostConfig, Dataset, harden, run_boost
from tsboost.boost import (
    compute_weights,
    draw_cluster_sample,
    estimate_center,
    raw_weights,
    thread_count,
)
from tsboost.errors import ConfigError, DegenerateBeta
from tsboost import boost, pspline

from conftest import two_level_dataset


def small_spline_setup(n=10):
    domain = np.linspace(0, 1, n)
    basis = pspline.build_basis(domain)
    penalty = pspline.difference_penalty(basis.n_bases, 2)
    return domain, basis, penalty, pspline.LambdaCriterion("vcurve")


class TestThreadCount:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("TSBOOST_THREADS", raising=False)
        assert thread_count() == 1

    def test_explicit(self, monkeypatch):
        monkeypatch.setenv("TSBOOST_THREADS", "4")
        assert thread_count() == 4

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.setenv("TSBOOST_THREADS", "0")
        assert thread_count() >= 1


class TestWeights:
    def test_raw_exponent_rule_hand_case(self):
        D = np.array([[2.0, 1.0]])   # gamma = (1, 0.5)
        P = np.array([[0.9, 0.1]])   # indicator (+1, -1)
        w = raw_weights(D, P, beta=4.0)
        assert np.max(np.abs(w - np.array([[4.0, 0.5]]))) < 1e-12

    def test_beta_one_gives_uniform(self, rng):
        D = rng.uniform(0.1, 5.0, size=(8, 3))
        P = rng.dirichlet(np.ones(3), size=8)
        W = compute_weights(D, P, beta=1.0)
        assert np.max(np.abs(W - 1.0 / 8)) < 1e-12

    def test_columns_sum_to_one(self, rng):
        for beta in (0.3, 1.7, 5.0):
            D = rng.uniform(0.1, 5.0, size=(12, 4))
            P = rng.dirichlet(np.ones(4), size=12)
            W = compute_weights(D, P, beta)
            assert np.max(np.abs(W.sum(axis=0) - 1.0)) < 1e-9
            assert np.all(W >= 0)

    def test_degenerate_beta(self, rng):
        D = rng.uniform(0.1, 5.0, size=(3, 2))
        P = rng.dirichlet(np.ones(2), size=3)
        with pytest.raises(DegenerateBeta):
            raw_weights(D, P, beta=0.0)

    def test_weight_direction_above_one(self, rng):
        # with beta > 1 the raw weight peaks at the series' own cluster
        for _ in range(20):
            D = rng.uniform(0.1, 5.0, size=(10, 4))
            P = rng.dirichlet(np.ones(4), size=10)
            w = raw_weights(D, P, beta=3.0)
            own = np.argmax(P, axis=1)
            rows = np.arange(10)
            assert np.all(w[rows, own] >= 1.0)
            mask = np.ones_like(w, dtype=bool)
            mask[rows, own] = False
            assert np.all(w[mask] <= 1.0)


class TestSampling:
    def test_one_hot_column(self):
        w = np.zeros(6)
        w[3] = 1.0
        sample = draw_cluster_sample(w, 50, np.random.default_rng(0))
        assert np.all(sample == 3)

    def test_deterministic_given_stream(self):
        w = np.full(10, 0.1)
        a = draw_cluster_sample(w, 100, np.random.default_rng(7))
        b = draw_cluster_sample(w, 100, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_uniform_frequencies(self):
        n, draws = 8, 100_000
        w = np.full(n, 1.0 / n)
        sample = draw_cluster_sample(w, draws, np.random.default_rng(1))
        counts = np.bincount(sample, minlength=n)
        sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.max(np.abs(counts - draws / n)) < 5 * sigma


class TestCenterEstimation:
    def test_invariant_to_total_draw_count(self, rng):
        _, basis, penalty, crit = small_spline_setup()
        values = rng.normal(size=(5, 10))
        once = estimate_center(values, [1, 2, 2], basis, penalty, crit)
        twice = estimate_center(values, [1, 1, 2, 2, 2, 2], basis, penalty, crit)
        assert np.max(np.abs(once.fitted - twice.fitted)) < 1e-12

    def test_duplicate_sample_matches_singleton(self, rng):
        _, basis, penalty, crit = small_spline_setup()
        values = rng.normal(size=(4, 10))
        single = estimate_center(values, [2], basis, penalty, crit)
        repeated = estimate_center(values, [2, 2, 2], basis, penalty, crit)
        assert np.max(np.abs(single.fitted - repeated.fitted)) < 1e-12

    def test_empty_sample_rejected(self, rng):
        _, basis, penalty, crit = small_spline_setup()
        with pytest.raises(ValueError):
            estimate_center(rng.normal(size=(4, 10)), [], basis, penalty, crit)


class TestRunningMeanCenters:
    @pytest.mark.parametrize("n, maxiter, repeated", [
        (10, 8, False), (5, 8, False), (10, 1, False), (10, 8, True),
    ], ids=["n10", "n5-more-bases-than-points", "first-iteration", "repeated-fit"])
    def test_center_is_mean_of_its_fits(self, rng, monkeypatch, n, maxiter, repeated):
        # every fit lies in one spline basis, so their mean needs no smoothing;
        # at n=5 the default basis has more functions than points
        k = 3
        if repeated:
            # identical series: every resampled pool, hence every fit, is the same
            values = np.tile(rng.normal(size=n), (12, 1))
        else:
            values = rng.normal(size=(12, n)) + np.repeat([0.0, 3.0, 6.0], 4)[:, None]
        data = Dataset.from_values(np.linspace(0, 1, n), values)
        fits = []

        def recording(*args):
            fit = estimate_center(*args)
            fits.append(fit.fitted)
            return fit

        monkeypatch.setattr(boost, "estimate_center", recording)
        result = run_boost(data, BoostConfig(n_clusters=k, maxiter=maxiter, restarts=1, seed=3))
        assert len(fits) == k * result.beta_trace.shape[0] == k * maxiter
        for cluster in range(k):
            assert np.array_equal(result.centers[cluster], np.mean(fits[cluster::k], axis=0))
        if maxiter == 1:
            assert np.array_equal(result.centers, np.vstack(fits))
        if repeated:
            assert np.max(np.abs(result.centers - fits[0])) < 1e-12


class TestRunBoost:
    def test_separated_groups_recovered(self):
        data = two_level_dataset()
        result = run_boost(data, BoostConfig(n_clusters=2, maxiter=50, restarts=5, seed=0))
        labels = harden(result.membership)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]
        assert result.bc_final < 0.05

    def test_k_must_be_below_n(self):
        data = two_level_dataset(n_per_group=2)
        with pytest.raises(ConfigError):
            run_boost(data, BoostConfig(n_clusters=4, maxiter=5, restarts=1))
        with pytest.raises(ConfigError):
            BoostConfig(n_clusters=1)

    def test_deterministic_reruns(self, rng):
        values = rng.normal(size=(12, 10)) + np.repeat([0.0, 4.0, 8.0], 4)[:, None]
        data = Dataset.from_values(np.linspace(0, 1, 10), values)
        config = BoostConfig(n_clusters=3, maxiter=8, restarts=3, seed=11)
        a = run_boost(data, config)
        b = run_boost(data, config)
        assert np.array_equal(a.membership, b.membership)
        assert np.array_equal(a.centers, b.centers)
        assert a.bc_final == b.bc_final
        assert a.restart_index == b.restart_index

    def test_thread_schedule_does_not_change_results(self, rng, monkeypatch):
        values = rng.normal(size=(10, 10)) + np.repeat([0.0, 5.0], 5)[:, None]
        data = Dataset.from_values(np.linspace(0, 1, 10), values)
        config = BoostConfig(n_clusters=2, maxiter=6, restarts=4, seed=3)
        monkeypatch.delenv("TSBOOST_THREADS", raising=False)
        sequential = run_boost(data, config)
        monkeypatch.setenv("TSBOOST_THREADS", "4")
        threaded = run_boost(data, config)
        assert np.array_equal(sequential.membership, threaded.membership)
        assert np.array_equal(sequential.centers, threaded.centers)

    def test_restart_selection_and_traces(self, rng):
        values = rng.normal(size=(9, 12))
        data = Dataset.from_values(np.linspace(0, 1, 12), values)
        config = BoostConfig(n_clusters=3, maxiter=7, restarts=4, seed=5)
        result = run_boost(data, config)
        assert result.restart_final_bc.shape == (4,)
        assert result.bc_final == result.restart_final_bc.min()
        assert result.bc_final == result.restart_final_bc[result.restart_index]
        assert len(result.traces) == 4
        for trace in result.traces:
            assert trace.beta.shape[0] <= 7
            assert np.all(trace.beta >= 0) and np.all(trace.beta <= 9)
            assert np.all(trace.bc >= 0) and np.all(trace.bc <= 1)
        assert np.max(np.abs(result.membership.sum(axis=1) - 1.0)) < 1e-9
