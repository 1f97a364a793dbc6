import warnings

import numpy as np
import pytest

from tsboost import bc_index
from tsboost.errors import NegativeDistance
from tsboost.pdclust import _loss, _probabilities


def core_probabilities(D):
    """The cluster-first core on (..., N, K) distances, through a transposed view."""
    D = np.asarray(D, dtype=float)
    return _probabilities(D.swapaxes(-1, -2)).swapaxes(-1, -2)


def product_formula_oracle(D):
    """Row-wise product formula evaluated directly, no log-space tricks."""
    N, K = D.shape
    P = np.zeros((N, K))
    for i in range(N):
        prods = np.array([np.prod(np.delete(D[i], k)) for k in range(K)])
        P[i] = prods / prods.sum()
    return P


def per_row_oracle(D):
    """One row at a time: zero distances split the row uniformly, otherwise
    the normalized exp(-log d) shifted by its row maximum."""
    P = np.empty_like(D)
    for index in np.ndindex(D.shape[:-1]):
        d = D[index]
        zero = d == 0.0
        if zero.any():
            P[index] = zero / zero.sum()
        else:
            logw = -np.log(d)
            logw -= logw.max()
            w = np.exp(logw)
            P[index] = w / w.sum()
    return P


class TestPdProbabilities:
    def test_symmetric_row(self):
        assert np.array_equal(core_probabilities([[1.0, 1.0]]), [[0.5, 0.5]])

    def test_single_zero_distance(self):
        assert np.array_equal(core_probabilities([[0.0, 5.0]]), [[1.0, 0.0]])

    def test_hand_case(self):
        P = core_probabilities([[1.0, 2.0, 4.0]])
        assert np.max(np.abs(P - np.array([[8 / 14, 4 / 14, 2 / 14]]))) < 1e-15

    def test_multiple_zero_distances_split_uniformly(self):
        P = core_probabilities([[0.0, 1.0, 0.0, 0.0]])
        assert np.array_equal(P, [[1 / 3, 0.0, 1 / 3, 1 / 3]])

    def test_matches_product_oracle(self, rng):
        for _ in range(200):
            D = rng.uniform(0.01, 10.0, size=(20, 4))
            assert np.max(np.abs(core_probabilities(D) - product_formula_oracle(D))) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 6, 9, 17])
    def test_stack_equals_per_row_formula(self, rng, k):
        # a whole (R, N, K) stack at once gives each row's own result bit for bit
        D = rng.uniform(0.0, 5.0, size=(3, 11, k)) * rng.choice([1e-200, 1.0, 1e200], size=(3, 11, 1))
        D[0, 2, 1] = 0.0
        D[1, 4, :2] = 0.0
        D[2, 7] = 0.0
        assert np.array_equal(core_probabilities(D), per_row_oracle(D))

    def test_probability_distance_product_constant(self, rng):
        D = rng.uniform(0.1, 5.0, size=(50, 4))
        prod = core_probabilities(D) * D
        spread = prod.max(axis=1) - prod.min(axis=1)
        assert np.max(spread / prod.mean(axis=1)) < 1e-9

    def test_row_scale_invariance(self, rng):
        D = rng.uniform(0.1, 5.0, size=(10, 3))
        P = core_probabilities(D)
        for c in (1e-6, 3.0, 1e8):
            assert np.max(np.abs(core_probabilities(D * c) - P)) < 1e-12

    def test_ordering_inverse_to_distances(self, rng):
        D = rng.uniform(0.1, 5.0, size=(30, 5))
        P = core_probabilities(D)
        assert np.array_equal(np.argsort(-P, axis=1), np.argsort(D, axis=1))

    @pytest.mark.parametrize("spread", [1.0, 5.0, 25.0])
    def test_power_half_on_squares_is_the_pd_rule(self, rng, spread):
        # FCM at m = 3 (power 1/2 on squared distances) against the PD rule
        # on the distances: within 4 epsilons, relative, where |log d2| <= 1.
        # Each weight is exp of a log, so its error grows with |log d2|
        d2 = np.exp(rng.uniform(-spread, spread, size=(4, 50)))
        d2[:, 0] = [0.0, 2.0, 0.0, 3.0]
        P = _probabilities(np.sqrt(d2))
        bound = 4 * np.finfo(float).eps * spread * P
        assert np.all(np.abs(_probabilities(d2, 0.5) - P) <= bound)

    def test_negative_distance_rejected(self):
        with pytest.raises(NegativeDistance):
            core_probabilities([[1.0, -0.1]])
        with pytest.raises(NegativeDistance):
            core_probabilities([[1.0, np.nan]])

    def test_extreme_magnitudes_stay_normalized(self):
        # distances spanning many orders of magnitude must not overflow
        D = np.array([[1e-150, 1e150, 1.0, 1e-100]])
        P = core_probabilities(D)
        assert abs(P.sum() - 1.0) < 1e-12
        assert np.argmax(P) == 0


class TestBcIndex:
    def test_one_hot_is_zero(self):
        P = np.eye(4)[[0, 1, 2, 3, 0]]
        assert bc_index(P) == 0.0

    def test_uniform_is_one(self):
        for k in (2, 3, 6):
            P = np.full((7, k), 1.0 / k)
            assert abs(bc_index(P) - 1.0) < 1e-12

    @pytest.mark.parametrize("k", [6, 10])
    def test_uniform_rows_do_not_exceed_one(self, k):
        # the log-space row product of 1/K entries rounds above 1 at these K
        P = np.full((7, k), 1.0 / k)
        assert 1.0 - 1e-12 <= bc_index(P) <= 1.0
        assert _loss(P.T) <= 7.0

    def test_hand_case(self):
        P = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert abs(bc_index(P) - 0.5) < 1e-15

    def test_beta_is_n_times_bc(self, rng):
        for _ in range(100):
            P = rng.dirichlet(np.ones(4), size=11)
            assert abs(_loss(P.T) - 11 * bc_index(P)) < 1e-12

    def test_uniform_beta_equals_n(self):
        P = np.full((5, 3), 1.0 / 3.0)
        assert abs(_loss(P.T) - 5.0) < 1e-12

    def test_bounds(self, rng):
        for _ in range(50):
            P = rng.dirichlet(np.ones(3), size=9)
            assert 0.0 <= bc_index(P) <= 1.0

    @pytest.mark.parametrize("k", [144, 400])
    def test_many_clusters_do_not_overflow(self, k):
        # K^K overflows a float from K = 144 on; the log-space sum does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(bc_index(np.full((3, k), 1.0 / k)) - 1.0) < 1e-9
            assert bc_index(np.eye(k)[[0, 5, k - 1]]) == 0.0
