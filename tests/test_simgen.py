import numpy as np
import pytest

from tsboost import SimConfig, generate, simgen
from tsboost.errors import ConfigError

TINY = 1e-30


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.sizes == (90, 50, 100, 25, 60, 35)
        assert cfg.n_points == 10

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(sizes=(1, 2, 3))
        with pytest.raises(ConfigError):
            SimConfig(sizes=(1, 1, 1, 1, 1, 0))
        with pytest.raises(ConfigError):
            SimConfig(ar_coef=1.0)
        with pytest.raises(ConfigError):
            SimConfig(sigma2_u=-0.1)
        with pytest.raises(ConfigError):
            SimConfig(n_points=3)  # below what the default basis and the periodogram need
        assert SimConfig(n_points=4).n_points == 4

    @pytest.mark.parametrize("field", ["sigma2_e", "sigma2_v", "sigma2_u", "ar_var"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_variance_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SimConfig(**{field: value})


class TestGenerate:
    def test_default_shape(self):
        data, labels = generate(SimConfig(seed=0))
        assert data.n_series == 360
        assert data.n_points == 10
        assert labels.shape == (360,)
        counts = np.bincount(labels)[1:]
        assert counts.tolist() == [90, 50, 100, 25, 60, 35]

    def test_deterministic(self):
        a, la = generate(SimConfig(seed=123))
        b, lb = generate(SimConfig(seed=123))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(la, lb)
        c, _ = generate(SimConfig(seed=124))
        assert not np.array_equal(a.values, c.values)

    def test_linear_decline_model_noiseless(self):
        # the sixth model has no random coefficients; with vanishing level
        # and disturbance variances its series are exactly -3(x - 0.5)
        cfg = SimConfig(sizes=(1, 1, 1, 1, 1, 5), sigma2_u=TINY, ar_var=TINY, seed=7)
        data, labels = generate(cfg)
        x = np.linspace(0, 1, cfg.n_points)
        expected = -3.0 * (x - 0.5)
        for row in data.values[labels == 6]:
            assert np.max(np.abs(row - expected)) < 1e-12

    def test_constant_model_noiseless(self):
        cfg = SimConfig(sizes=(1, 1, 5, 1, 1, 1), sigma2_u=TINY, ar_var=TINY, seed=3)
        data, labels = generate(cfg)
        for row in data.values[labels == 3]:
            assert np.max(np.abs(row - row[0])) < 1e-9

    def test_constant_model_level_is_centered(self):
        # the constant model's level is mean-zero; check the empirical mean
        # of many series means against a 5-sigma band
        n_draws = 10_000
        cfg = SimConfig(sizes=(1, 1, n_draws, 1, 1, 1), seed=11)
        data, labels = generate(cfg)
        means = data.values[labels == 3].mean(axis=1)
        # per-series variance: coefficient 0.08 + level 0.3 + AR noise
        bound = 5 * np.sqrt((cfg.sigma2_e + cfg.sigma2_u + cfg.ar_var) / n_draws)
        assert abs(means.mean()) < bound

    def test_inverse_cube_term_bounded(self):
        # the bilinear-power model must never blow up despite the delta^-3 term
        cfg = SimConfig(sizes=(1, 2000, 1, 1, 1, 1), seed=19)
        data, labels = generate(cfg)
        rows = data.values[labels == 2]
        assert np.all(np.isfinite(rows))
        assert np.max(np.abs(rows)) < 1e5

    def test_custom_sizes_and_points(self):
        data, labels = generate(SimConfig(sizes=(2, 2, 2, 2, 2, 2), n_points=25, seed=0))
        assert data.n_series == 12
        assert data.n_points == 25
        assert np.array_equal(np.unique(labels), np.arange(1, 7))


def per_point_generate(config):
    """The generator series by series, with one ``rng.normal`` call per AR(1) point."""
    x = np.linspace(0.0, 1.0, config.n_points)
    labels = np.repeat(np.arange(1, 7), config.sizes)
    rows = np.empty((labels.shape[0], config.n_points))
    phi, var = config.ar_coef, config.ar_var
    for i, cluster in enumerate(labels):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
        mean = simgen._mean_curve(int(cluster), x, rng, config)
        level = rng.normal(0.0, np.sqrt(config.sigma2_u))
        e = np.empty(config.n_points)
        e[0] = rng.normal(0.0, np.sqrt(var / (1.0 - phi * phi)))
        for j in range(1, config.n_points):
            e[j] = phi * e[j - 1] + rng.normal(0.0, np.sqrt(var))
        rows[i] = mean + level + e
    return rows, labels


@pytest.mark.parametrize("n_points", [4, 10, 50, 200])
@pytest.mark.parametrize("seed", [0, 7])
def test_generate_matches_per_point_draws(n_points, seed):
    # one vectorised innovation draw per series and one AR(1) recursion over
    # all series give every value, and keep every stream, as per-point draws
    config = SimConfig(sizes=(3, 2, 3, 2, 3, 2), n_points=n_points, seed=seed)
    data, labels = generate(config)
    expected, expected_labels = per_point_generate(config)
    assert np.array_equal(data.values, expected)
    assert np.array_equal(labels, expected_labels)
