"""Simulated benchmark generator: six cluster-specific functional models.

Each series draws its own random coefficients, a per-series random level
and an AR(1) disturbance path, on n equally spaced time points in [0, 1].
Every series owns a dedicated random stream keyed by (seed, series index)
(``streams.keyed_streams``), so generation is bit-reproducible regardless
of evaluation order; the N keys are hashed in one batch.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import ConfigError
from .streams import keyed_streams

DEFAULT_SIZES = (90, 50, 100, 25, 60, 35)


@dataclass(frozen=True)
class SimConfig:
    sizes: tuple = DEFAULT_SIZES
    n_points: int = 10
    sigma2_e: float = 0.08    # coefficient noise for most models
    sigma2_v: float = 0.85    # wider coefficient noise (saturation model)
    sigma2_u: float = 0.3     # per-series random level variance
    ar_coef: float = 0.5
    ar_var: float = 0.005     # AR(1) innovation variance
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) != 6 or any(s < 1 for s in self.sizes):
            raise ConfigError("need 6 positive cluster sizes")
        # negated in-range test, so that NaN fails it too
        variances = (self.sigma2_e, self.sigma2_v, self.sigma2_u, self.ar_var)
        if not all(0.0 < v < np.inf for v in variances):
            raise ConfigError("variances must be finite and positive")
        if not abs(self.ar_coef) < 1:
            raise ConfigError("AR(1) coefficient must satisfy |phi| < 1")
        # the default cubic P-spline basis and the periodogram both need n >= 4
        if self.n_points < 4:
            raise ConfigError("need at least 4 time points")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _mean_curve(cluster, x, rng, cfg):
    se = np.sqrt(cfg.sigma2_e)
    sv = np.sqrt(cfg.sigma2_v)
    if cluster == 1:
        alpha = rng.normal(np.sqrt(2.0), se)
        beta = rng.normal(4.0 * np.pi, se)
        return alpha + np.sin(beta * np.pi * x)
    if cluster == 2:
        delta = rng.normal(0.75, se)
        # keep the inverse-cube term away from the pole at 0
        while abs(delta) < 0.05:
            delta = rng.normal(0.75, se)
        iota = rng.normal(1.0, se)
        return x + delta**-3 + iota
    if cluster == 3:
        nu = rng.normal(0.0, se)
        return np.full_like(x, nu)
    if cluster == 4:
        zeta = rng.normal(2.0, se)
        return zeta + np.cos(zeta * np.pi * x)
    if cluster == 5:
        xi = rng.normal(2.0, sv)
        eta = rng.normal(4.0, sv)
        theta = rng.normal(6.0, se)
        return xi - eta * np.exp(-theta * x)
    if cluster == 6:
        return -3.0 * (x - 0.5)
    raise ValueError(f"unknown cluster model {cluster}")


def generate(config: SimConfig):
    """Generate the benchmark dataset; returns (Dataset, labels in 1..6)."""
    n, phi, var = config.n_points, config.ar_coef, config.ar_var
    x = np.linspace(0.0, 1.0, n)
    labels = np.repeat(np.arange(1, 7), config.sizes)
    rows = np.empty((labels.shape[0], n))
    noise = np.empty_like(rows)
    streams = keyed_streams(config.seed, np.arange(labels.shape[0])[:, None])
    for i, (cluster, rng) in enumerate(zip(labels.tolist(), streams)):
        mean = _mean_curve(cluster, x, rng, config)
        level = rng.normal(0.0, np.sqrt(config.sigma2_u))
        rows[i] = mean + level
        # AR(1) start from the stationary distribution, then the innovations
        noise[i, 0] = rng.normal(0.0, np.sqrt(var / (1.0 - phi * phi)))
        noise[i, 1:] = rng.normal(0.0, np.sqrt(var), size=n - 1)
    # e_j = phi * e_{j-1} + innovation_j, for all series at once
    for j in range(1, n):
        noise[:, j] += phi * noise[:, j - 1]
    rows += noise
    del noise  # freed before the dataset copies the rows
    return Dataset(x, rows), labels
