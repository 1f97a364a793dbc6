import numpy as np
import pytest

from tsboost import (
    DistanceKind,
    distance_matrix,
    euclidean,
    penrose_shape,
    periodogram,
    periodogram_distance,
)
from tsboost.distance import _center_distances
from tsboost.errors import LengthMismatch, SeriesTooShort


class TestEuclidean:
    def test_three_four_five(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_identity(self, rng):
        y = rng.normal(size=20)
        assert euclidean(y, y) == 0.0

    def test_loop_oracle(self, rng):
        for _ in range(100):
            y = rng.normal(size=15)
            c = rng.normal(size=15)
            oracle = np.sqrt(sum((a - b) ** 2 for a, b in zip(y, c)))
            assert abs(euclidean(y, c) - oracle) < 1e-12
            assert abs(euclidean(y, c) - euclidean(c, y)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            euclidean(np.zeros(3), np.zeros(4))


class TestPenroseShape:
    def test_constant_offset_is_zero(self, rng):
        y = rng.normal(size=12)
        assert penrose_shape(y + 5.5, y) < 1e-7

    def test_hand_case(self):
        # dbar^2 = 2, q^2 = 1, n = 2 -> sqrt(2 * (2 - 1)) = sqrt(2)
        d = penrose_shape(np.array([0.0, 0.0]), np.array([0.0, 2.0]))
        assert abs(d - np.sqrt(2.0)) < 1e-12

    def test_identity(self, rng):
        y = rng.normal(size=10)
        assert penrose_shape(y, y) == 0.0

    def test_translation_invariance(self, rng):
        for _ in range(50):
            y = rng.normal(size=10)
            z = rng.normal(size=10)
            c = rng.normal()
            assert abs(penrose_shape(y + c, z) - penrose_shape(y, z)) < 1e-9

    def test_level_shift_of_a_thousand_is_zero(self, rng):
        # the radicand form dbar^2 - q^2 cancels two numbers of size 1e6 here
        for _ in range(20):
            y = rng.normal(size=10)
            assert penrose_shape(y + 1e3, y) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 10, 57])
    def test_equals_the_1952_radicand_form(self, rng, n):
        # sqrt(n/(n-1) * (dbar^2 - q^2)) evaluated in long double
        for _ in range(20):
            y = rng.normal(size=n)
            c = rng.normal(size=n)
            d = (y - c).astype(np.longdouble)
            rad = np.mean(d**2) - np.mean(d) ** 2
            oracle = float(np.sqrt(rad * n / (n - 1)))
            assert abs(penrose_shape(y, c) - oracle) <= 1e-14 * max(oracle, 1.0)

    def test_symmetry_nonnegativity(self, rng):
        for _ in range(100):
            y = rng.normal(size=8)
            z = rng.normal(size=8)
            d = penrose_shape(y, z)
            assert d >= 0.0
            assert abs(d - penrose_shape(z, y)) < 1e-12


class TestPeriodogram:
    def test_constant_series_all_zero(self):
        ords = periodogram(np.full(12, 3.7))
        assert ords.shape == (6,)
        assert np.max(np.abs(ords)) < 1e-10

    def test_single_tone_dominant(self):
        n = 16
        t = np.arange(1, n + 1)
        y = np.cos(2 * np.pi * t / n)
        ords = periodogram(y)
        assert np.argmax(ords) == 0  # frequency index j = 1
        others = np.delete(ords, 0)
        assert np.max(others) < 1e-10 * ords[0]

    def test_direct_summation_oracle(self, rng):
        # odd n checks that the FFT slice stops at floor(n/2)
        for n in (8, 20, 32, 33):
            y = rng.normal(size=n)
            ords = periodogram(y)
            assert ords.shape == (n // 2,)
            for j in range(1, n // 2 + 1):
                f = 2 * np.pi * j / n
                acc = sum(y[t - 1] * np.exp(-1j * t * f) for t in range(1, n + 1))
                assert abs(ords[j - 1] - abs(acc) ** 2 / n) < 1e-10

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            periodogram(np.zeros(3))

    def test_parseval(self, rng):
        # sum of squared deviations equals twice the interior ordinates plus
        # the Nyquist ordinate (even n), fixing the DFT normalization
        for n in (8, 16, 30):
            y = rng.normal(size=n)
            ords = periodogram(y)
            total = 2 * np.sum(ords[:-1]) + ords[-1]
            assert abs(total - np.sum((y - y.mean()) ** 2)) < 1e-8


class TestPeriodogramDistance:
    def test_identity(self, rng):
        y = rng.normal(size=16)
        assert periodogram_distance(y, y) == 0.0

    def test_level_shift_invariance(self, rng):
        y = rng.normal(size=16)
        assert periodogram_distance(y, y + 4.2) < 1e-9

    def test_two_tones_closed_form(self):
        n = 16
        t = np.arange(1, n + 1)
        y = np.sin(2 * np.pi * 2 * t / n)
        z = np.sin(2 * np.pi * 5 * t / n)
        # each tone puts n/4 at its own frequency and 0 elsewhere
        assert abs(periodogram_distance(y, z) - np.sqrt(2.0) * n / 4) < 1e-9

    def test_circular_shift_invariance(self, rng):
        y = rng.normal(size=20)
        z = rng.normal(size=20)
        base = periodogram_distance(y, z)
        for shift in (1, 3, 7):
            assert abs(periodogram_distance(np.roll(y, shift), z) - base) < 1e-9


class TestDistanceMatrix:
    def test_matches_elementwise_calls(self, rng):
        Y = rng.normal(size=(5, 12))
        C = rng.normal(size=(3, 12))
        pairwise = {
            DistanceKind.EUCLIDEAN: euclidean,
            DistanceKind.PENROSE_SHAPE: penrose_shape,
            DistanceKind.PERIODOGRAM: periodogram_distance,
        }
        for kind, func in pairwise.items():
            D = distance_matrix(Y, C, kind)
            assert D.shape == (5, 3)
            for i in range(5):
                for k in range(3):
                    assert abs(D[i, k] - func(Y[i], C[k])) < 1e-10

    def test_zero_entry_for_coincident_series(self, rng):
        c = rng.normal(size=10)
        other = rng.normal(size=10)
        D = distance_matrix(c[None, :], np.vstack([c, other]), DistanceKind.EUCLIDEAN)
        assert D[0, 0] == 0.0
        assert D[0, 1] > 0.0

    def test_hand_checkable_orthonormal(self):
        Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        C = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        D = distance_matrix(Y, C, DistanceKind.EUCLIDEAN)
        assert np.max(np.abs(D - np.array([[np.sqrt(2), 1.0], [np.sqrt(2), 1.0]]))) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            distance_matrix(np.zeros((2, 5)), np.zeros((2, 4)), DistanceKind.EUCLIDEAN)

    def test_penrose_level_shifted_copies_are_at_zero(self, rng):
        # centering rounds, so the diagonal is near 0 rather than exactly 0
        Y = rng.normal(size=(6, 10))
        D = distance_matrix(Y, Y + 100, DistanceKind.PENROSE_SHAPE)
        assert np.max(np.diag(D)) <= 1e-12
        assert np.min(D + np.eye(6)) > 0.1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix(np.zeros((2, 5)), np.zeros((2, 5)), "penrose")

    def test_penrose_too_short(self):
        with pytest.raises(SeriesTooShort):
            distance_matrix(np.zeros((2, 1)), np.zeros((2, 1)), DistanceKind.PENROSE_SHAPE)
        with pytest.raises(SeriesTooShort):
            penrose_shape(np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    def test_result_is_c_contiguous_n_by_k(self, rng, kind):
        D = distance_matrix(rng.normal(size=(7, 12)), rng.normal(size=(2, 3, 12)), kind)
        assert D.shape == (2, 7, 3) and D.flags.c_contiguous


@pytest.mark.parametrize("n_series, m, restarts, k", [
    (360, 10, 10, 6), (360, 100, 2, 6), (360, 10, 10, 12), (3600, 200, 2, 6),
])
def test_center_kernel_equals_series_major_tensor(n_series, m, restarts, k):
    # one (K, N, m) difference per restart, reduced over m, gives every bit
    # of the (N, K, m) tensor reduced over m
    rng = np.random.default_rng(m + k)
    points = rng.normal(size=(n_series, m))
    centers = rng.normal(size=(restarts, k, m))
    centers[0, 1] = points[3]
    stacked = _center_distances(points, centers)
    assert stacked.shape == (restarts, k, n_series)
    for r in range(restarts):
        diff = points[:, None, :] - centers[r][None, :, :]
        oracle = np.sqrt(np.einsum("ikj,ikj->ik", diff, diff))
        assert np.array_equal(stacked[r].T, oracle)
        assert np.array_equal(_center_distances(points, centers[r]).T, oracle)
    assert stacked[0, 1, 3] == 0.0
