import numpy as np
import pytest

from tsboost import Dataset


def random_membership(rng, n, k):
    """Row-stochastic matrix with rows drawn uniformly from the simplex."""
    return rng.dirichlet(np.ones(k), size=n)


def two_level_dataset(n_per_group=5, n_points=10, levels=(0.0, 10.0)):
    """Two well-separated groups of constant series."""
    rows = np.vstack([np.full((n_per_group, n_points), lev) for lev in levels])
    return Dataset(np.linspace(0.0, 1.0, n_points), rows)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
