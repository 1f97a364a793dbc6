import numpy as np
import pytest

from tsboost import BoostConfig, Dataset, DistanceKind, bc_index, harden, run_boost, simgen
from tsboost.boost import _raw_weights, _weights, estimate_centers, resample_counts
from tsboost.distance import _sq_distances, distance_space
from tsboost.errors import ConfigError
from tsboost.pdclust import _loss, _probabilities
from tsboost.streams import keyed_streams
from tsboost import boost, pspline

from conftest import two_level_dataset


def small_spline_setup(n=10):
    domain = np.linspace(0, 1, n)
    B = pspline.build_basis(domain)
    penalty = pspline.difference_penalty(B.shape[1], 2)
    return B, pspline._spectrum(B, penalty), pspline.LambdaCriterion("vcurve")


def per_restart_oracle(data, config):
    """The boosted loop one restart and one cluster at a time.

    Each (restart, iteration, cluster) draws with ``rng.choice`` on its own
    stream and fits its pooled mean alone with ``select_rows``; returns
    (centers, (N, K) membership, beta trace) per restart.
    """
    values = data.values
    n_series, k = values.shape[0], config.n_clusters
    B = pspline.build_basis(data.domain)
    spectrum = pspline._spectrum(B, pspline.difference_penalty(B.shape[1]))
    criterion = pspline.LambdaCriterion(config.criterion)
    points = distance_space(values, config.distance)

    def distances(centers):
        return np.sqrt(_sq_distances(points, distance_space(centers, config.distance)))

    outcomes = []
    for restart in range(config.restarts):
        init = np.random.default_rng(np.random.SeedSequence((config.seed, restart)))
        centers = values[init.choice(n_series, size=k, replace=False)]
        sums = np.zeros_like(centers)
        betas = []
        for iteration in range(1, config.maxiter + 1):
            D = distances(centers)
            P = _probabilities(D)
            beta = float(_loss(P))
            betas.append(beta)
            if beta < boost.PERFECT_PARTITION_TOL:
                break
            W = _weights(D, P, beta)
            for cluster in range(k):
                rng = np.random.default_rng(
                    np.random.SeedSequence((config.seed, restart, iteration, cluster)))
                w = W[cluster]
                sample = rng.choice(n_series, size=n_series, replace=True, p=w / w.sum())
                counts = np.bincount(sample, minlength=n_series).astype(float)
                pooled = (counts @ values) / counts.sum()
                coef = pspline.select_rows(pooled, spectrum, criterion).coef[0]
                sums[cluster] += B @ coef
            centers = sums / iteration
        P = _probabilities(distances(centers))
        outcomes.append((centers, P.T, np.array(betas)))
    return outcomes


class TestWeights:
    # the weight cores take (K, N) arrays, the cluster axis first
    def test_raw_exponent_rule_hand_case(self):
        D = np.array([[2.0, 1.0]]).T   # gamma = (1, 0.5)
        P = np.array([[0.9, 0.1]]).T   # indicator (+1, -1)
        w = _raw_weights(D, P, beta=4.0)
        assert np.max(np.abs(w - np.array([[4.0], [0.5]]))) < 1e-12

    def test_beta_one_gives_uniform(self, rng):
        D = rng.uniform(0.1, 5.0, size=(8, 3)).T
        P = rng.dirichlet(np.ones(3), size=8).T
        W = _weights(D, P, beta=1.0)
        assert np.max(np.abs(W - 1.0 / 8)) < 1e-12

    def test_columns_sum_to_one(self, rng):
        # each cluster's weights, a column of the paper's N x K matrix, sum to 1
        for beta in (0.3, 1.7, 5.0):
            D = rng.uniform(0.1, 5.0, size=(12, 4)).T
            P = rng.dirichlet(np.ones(4), size=12).T
            W = _weights(D, P, beta)
            assert np.max(np.abs(W.sum(axis=1) - 1.0)) < 1e-9
            assert np.all(W >= 0)

    def test_weight_direction_above_one(self, rng):
        # with beta > 1 the raw weight peaks at the series' own cluster
        for _ in range(20):
            D = rng.uniform(0.1, 5.0, size=(10, 4)).T
            P = rng.dirichlet(np.ones(4), size=10).T
            w = _raw_weights(D, P, beta=3.0)
            own = np.argmax(P, axis=0)
            series = np.arange(10)
            assert np.all(w[own, series] >= 1.0)
            mask = np.ones_like(w, dtype=bool)
            mask[own, series] = False
            assert np.all(w[mask] <= 1.0)


@pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
def test_layers_take_a_restart_axis(rng, kind):
    # (R, K, n) centers, in one kernel call as the loop makes it, give
    # (R, K, N) distances, probabilities and weights and R losses, each slice
    # equal to its own unstacked call
    values = rng.normal(size=(9, 8))
    centers = rng.normal(size=(3, 4, 8))
    centers[1, 2] = values[5]  # a zero distance takes the coincident branch
    points = distance_space(values, kind)
    mapped = distance_space(centers, kind)
    D = np.sqrt(_sq_distances(points, mapped))
    P = _probabilities(D)
    beta = _loss(P)
    W = _weights(D, P, beta)
    assert D.shape == P.shape == W.shape == (3, 4, 9) and beta.shape == (3,)
    for r in range(3):
        D_r = np.sqrt(_sq_distances(points, mapped[r]))
        P_r = _probabilities(D_r)
        assert np.array_equal(D[r], D_r)
        assert np.array_equal(P[r], P_r)
        assert beta[r] == _loss(P_r)
        assert np.array_equal(W[r], _weights(D_r, P_r, _loss(P_r)))


def generators(*seeds):
    return [np.random.default_rng(seed) for seed in seeds]


class TestSampling:
    def test_one_hot_column(self):
        w = np.zeros((2, 6))
        w[0, 3] = 1.0
        w[1, 5] = 7.0
        counts = resample_counts(w, generators(0, 1))
        assert np.array_equal(counts, [[0, 0, 0, 6, 0, 0], [0, 0, 0, 0, 0, 6]])

    def test_deterministic_given_stream(self):
        w = np.full((3, 10), 0.1)
        a = resample_counts(w, generators(7, 8, 9))
        b = resample_counts(w, generators(7, 8, 9))
        assert np.array_equal(a, b)
        assert np.all(a.sum(axis=1) == 10)
        assert not np.array_equal(a[0], a[1])

    def test_uniform_frequencies(self):
        # 12,500 rows of 8 draws, each row on its own stream: 100,000 draws
        n, rows = 8, 12_500
        keys = np.arange(rows)[:, None]
        counts = resample_counts(np.full((rows, n), 1.0 / n), keyed_streams(0, keys)).sum(axis=0)
        draws = n * rows
        sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.max(np.abs(counts - draws / n)) < 5 * sigma

    @pytest.mark.parametrize("row", [[0.5, np.nan, 0.5], [0.5, -0.1, 0.6], [0.0, 0.0, 0.0],
                                     [1.0, np.inf, 0.0], [1e308, 1e308, 1e308]],
                             ids=["nan", "negative", "all-zero", "inf", "sum-overflows"])
    def test_invalid_weights_rejected(self, row):
        w = np.array([[1.0, 1.0, 1.0], row])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            resample_counts(w, generators(0, 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_cdf_ties_follow_choice(self, seed):
        # the CDF values are three of the row's own uniforms: multiples of
        # 2**-53, so the CDF is exact and three draws land on a CDF value,
        # which Generator.choice sends to the next series
        u = np.sort(np.random.default_rng(seed).random(8)[:3])
        w = np.zeros(8)
        w[:4] = np.diff([0.0, *u, 1.0])
        counts = resample_counts(w[None, :], generators(seed))[0]
        expected = np.bincount(np.random.default_rng(seed).choice(8, 8, p=w), minlength=8)
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("streams", [1, 3], ids=["too-few", "too-many"])
    def test_stream_count_must_equal_rows(self, streams):
        # a row without a stream would draw from uninitialized uniforms
        w = np.full((2, 4), 0.25)
        with pytest.raises(ValueError):
            resample_counts(w, generators(*range(streams)))


class TestCenterEstimation:
    def test_invariant_to_total_draw_count(self, rng):
        B, spectrum, crit = small_spline_setup()
        values = rng.normal(size=(5, 10))
        once, twice = estimate_centers(values, [[0, 1, 2, 0, 0], [0, 2, 4, 0, 0]],
                                       B, spectrum, crit)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_duplicate_sample_matches_singleton(self, rng):
        B, spectrum, crit = small_spline_setup()
        values = rng.normal(size=(4, 10))
        single, repeated = estimate_centers(values, [[0, 0, 1, 0], [0, 0, 3, 0]],
                                            B, spectrum, crit)
        assert np.max(np.abs(single - repeated)) < 1e-12


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
        data = Dataset(np.linspace(0, 1, n), values)
        fits = []

        def recording(*args):
            fitted = estimate_centers(*args)
            # the loop fits a (restarts, K, n) stack; this run has one restart
            fits.append(fitted[0])
            return fitted

        monkeypatch.setattr(boost, "estimate_centers", recording)
        result = run_boost(data, BoostConfig(n_clusters=k, maxiter=maxiter, restarts=1, seed=3))
        assert len(fits) == result.traces[result.restart_index].beta.shape[0] == maxiter
        for cluster in range(k):
            own = np.array([fitted[cluster] for fitted in fits])
            assert np.array_equal(result.centers[cluster], np.mean(own, axis=0))
        if maxiter == 1:
            assert np.array_equal(result.centers, fits[0])
        if repeated:
            assert np.max(np.abs(result.centers - fits[0][0])) < 1e-12


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

    def test_negative_seed_rejected(self):
        # a negative seed has no stream key; it is a configuration error
        with pytest.raises(ConfigError):
            BoostConfig(n_clusters=2, seed=-1)

    def test_unknown_criterion_and_distance_rejected(self):
        # rejected by the config, before run_boost builds anything
        for bad in ({"criterion": "bogus"}, {"criterion": None},
                    {"distance": "penrose"}, {"distance": None}):
            with pytest.raises(ConfigError):
                BoostConfig(n_clusters=2, **bad)
        # criterion names are case-insensitive, as LambdaCriterion's are
        data = two_level_dataset()
        upper = run_boost(data, BoostConfig(n_clusters=2, maxiter=3, restarts=2, criterion="GCV"))
        lower = run_boost(data, BoostConfig(n_clusters=2, maxiter=3, restarts=2, criterion="gcv"))
        assert np.array_equal(upper.membership, lower.membership)

    @pytest.mark.parametrize("criterion", [None, 3, b"gcv"], ids=repr)
    def test_non_string_criterion_rejected(self, criterion):
        # the config reports LambdaCriterion's own message as a ConfigError
        with pytest.raises(ValueError) as expected:
            pspline.LambdaCriterion(criterion)
        with pytest.raises(ConfigError) as raised:
            BoostConfig(n_clusters=2, criterion=criterion)
        assert str(raised.value) == str(expected.value)

    def test_deterministic_reruns(self, rng):
        values = rng.normal(size=(12, 10)) + np.repeat([0.0, 4.0, 8.0], 4)[:, None]
        data = Dataset(np.linspace(0, 1, 10), values)
        config = BoostConfig(n_clusters=3, maxiter=8, restarts=3, seed=11)
        a = run_boost(data, config)
        b = run_boost(data, config)
        assert np.array_equal(a.membership, b.membership)
        assert np.array_equal(a.centers, b.centers)
        assert a.bc_final == b.bc_final
        assert a.restart_index == b.restart_index

    def test_spectrum_factored_once_per_run(self, rng, monkeypatch):
        calls = []
        factor = pspline._spectrum

        def counting(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(pspline, "_spectrum", counting)
        values = rng.normal(size=(12, 10)) + np.repeat([0.0, 4.0, 8.0], 4)[:, None]
        data = Dataset(np.linspace(0, 1, 10), values)
        run_boost(data, BoostConfig(n_clusters=3, maxiter=5, restarts=3, seed=1))
        assert len(calls) == 1

    def test_restart_selection_and_traces(self, rng):
        values = rng.normal(size=(9, 12))
        data = Dataset(np.linspace(0, 1, 12), values)
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


def _early_stop_dataset():
    # two tight groups of constant series: a restart whose centers settle on
    # the two levels reaches a zero loss and stops before maxiter
    return two_level_dataset(n_per_group=6)


@pytest.mark.parametrize("make_data, kind, k, restarts", [
    (lambda rng: rng.normal(size=(15, 10)) + np.repeat([0.0, 3.0, 6.0], 5)[:, None],
     DistanceKind.EUCLIDEAN, 3, 4),
    (lambda rng: rng.normal(size=(18, 12)) + np.linspace(0, 2, 12) * np.repeat([-1.0, 0.0, 1.0], 6)[:, None],
     DistanceKind.PENROSE_SHAPE, 3, 5),
    (lambda rng: _early_stop_dataset().values, DistanceKind.EUCLIDEAN, 2, 6),
    (lambda rng: np.sin(np.outer(np.repeat([1.0, 2.5, 4.0], 5), np.arange(16)))
     + rng.normal(0, 0.3, size=(15, 16)), DistanceKind.PERIODOGRAM, 3, 4),
], ids=["euclidean", "penrose", "early-stop", "periodogram"])
def test_lockstep_matches_per_restart_oracle(rng, monkeypatch, make_data, kind, k, restarts):
    values = make_data(rng)
    data = Dataset(np.linspace(0, 1, values.shape[1]), values)
    config = BoostConfig(n_clusters=k, maxiter=12, restarts=restarts, distance=kind, seed=4)
    batch_rows, sampled_rows = [], []

    def recording(values, counts, *args):
        batch_rows.append(np.size(counts) // len(values))
        return estimate_centers(values, counts, *args)

    def sampling(weights, streams):
        sampled_rows.append(len(weights))
        return resample_counts(weights, streams)

    monkeypatch.setattr(boost, "estimate_centers", recording)
    monkeypatch.setattr(boost, "resample_counts", sampling)
    result = run_boost(data, config)
    oracle = per_restart_oracle(data, config)
    for trace, (_, _, betas) in zip(result.traces, oracle, strict=True):
        assert trace.beta.shape == betas.shape
        assert np.max(np.abs(trace.beta - betas)) <= 1e-12
    finals = np.array([bc_index(P) for _, P, _ in oracle])
    assert np.max(np.abs(result.restart_final_bc - finals)) <= 1e-12
    assert result.restart_index == int(np.argmin(finals))
    centers, membership, _ = oracle[result.restart_index]
    assert np.max(np.abs(result.centers - centers)) <= 1e-12
    assert np.max(np.abs(result.membership - membership)) <= 1e-12
    # only the running restarts go through an iteration: the sampler and
    # the center fit both take the K rows of each restart still running
    running = [sum(len(t.beta) >= it and t.beta[it - 1] >= boost.PERFECT_PARTITION_TOL
                   for t in result.traces) for it in range(1, len(batch_rows) + 1)]
    assert batch_rows == sampled_rows == [k * r for r in running]
    if kind == DistanceKind.EUCLIDEAN and k == 2:
        lengths = {trace.beta.shape[0] for trace in result.traces}
        assert min(lengths) < config.maxiter and len(lengths) > 1


@pytest.mark.parametrize("criterion", pspline.CRITERIA)
@pytest.mark.parametrize("kind, n_points, maxiter", [
    (DistanceKind.PENROSE_SHAPE, 10, 15), (DistanceKind.PERIODOGRAM, 24, 10),
    (DistanceKind.EUCLIDEAN, 10, 15), (DistanceKind.EUCLIDEAN, None, 12),
], ids=["penrose", "periodogram", "euclidean", "early-stop"])
def test_restart_depends_only_on_its_key(kind, n_points, maxiter, criterion):
    # restarts 0..R'-1 of an R'-restart run are those of an R = 10 run, bit
    # for bit: every product takes one restart's (K, .) slice, and a stopped
    # restart goes through no further iteration. In the early-stop case most
    # restarts stop at iteration 1 and two run on
    if n_points is None:
        data, k = _early_stop_dataset(), 2
    else:
        data, k = simgen.generate(simgen.SimConfig(seed=1, n_points=n_points))[0], 6

    def run(restarts):
        return run_boost(data, BoostConfig(n_clusters=k, maxiter=maxiter, restarts=restarts,
                                           distance=kind, seed=1, criterion=criterion))

    full = run(10)
    for fewer in (1, 3):
        part = run(fewer)
        for r in range(fewer):
            assert np.array_equal(part.traces[r].beta, full.traces[r].beta), (fewer, r)
        assert np.array_equal(part.restart_final_bc, full.restart_final_bc[:fewer]), fewer


def test_loop_ends_when_every_restart_has_stopped(monkeypatch):
    # three all-0 and three all-5 series: at seed 2 every restart starts with
    # one center on each level, reaches a zero loss at iteration 1 and stops,
    # so the loop ends there without drawing or fitting a sample
    data = two_level_dataset(n_per_group=3, levels=(0.0, 5.0))
    config = BoostConfig(n_clusters=2, restarts=3, seed=2)

    def unreachable(*args):
        raise AssertionError("a stopped run sampled")

    monkeypatch.setattr(boost, "resample_counts", unreachable)
    monkeypatch.setattr(boost, "estimate_centers", unreachable)
    result = run_boost(data, config)
    assert [trace.beta.shape for trace in result.traces] == [(1,)] * config.restarts
    assert result.bc_final == 0.0
    assert np.array_equal(np.sort(result.membership, axis=1), [[0.0, 1.0]] * data.n_series)
    oracle = per_restart_oracle(data, config)
    for trace, (_, _, betas) in zip(result.traces, oracle, strict=True):
        assert np.max(np.abs(trace.beta - betas)) <= 1e-12
    finals = np.array([bc_index(P) for _, P, _ in oracle])
    assert np.max(np.abs(result.restart_final_bc - finals)) <= 1e-12
    assert result.restart_index == int(np.argmin(finals))
    centers, membership, _ = oracle[result.restart_index]
    assert np.max(np.abs(result.centers - centers)) <= 1e-12
    assert np.max(np.abs(result.membership - membership)) <= 1e-12
