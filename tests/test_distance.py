import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsboost import Dataset, DistanceKind, periodogram, reference_partition
from tsboost.distance import _sq_distances, _sq_norms, distance_space
from tsboost.errors import SeriesTooShort

from oracles import euclidean, penrose_shape, periodogram_distance


def mapped_distances(values, centers, kind):
    """(K, N) distances as the program takes them: the kernel on mapped rows."""
    return np.sqrt(_sq_distances(distance_space(values, kind), distance_space(centers, kind)))


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
        with pytest.raises(ValueError):
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
    """The distance matrix as the program computes it: the kernel on mapped rows."""

    def test_matches_elementwise_calls(self, rng):
        Y = rng.normal(size=(5, 12))
        C = rng.normal(size=(3, 12))
        pairwise = {
            DistanceKind.EUCLIDEAN: euclidean,
            DistanceKind.PENROSE_SHAPE: penrose_shape,
            DistanceKind.PERIODOGRAM: periodogram_distance,
        }
        for kind, func in pairwise.items():
            D = mapped_distances(Y, C, kind)
            assert D.shape == (3, 5)
            for i in range(5):
                for k in range(3):
                    assert abs(D[k, i] - func(Y[i], C[k])) < 1e-10

    def test_zero_entry_for_coincident_series(self, rng):
        c = rng.normal(size=10)
        other = rng.normal(size=10)
        D = mapped_distances(c[None, :], np.vstack([c, other]), DistanceKind.EUCLIDEAN)
        assert D[0, 0] == 0.0
        assert D[1, 0] > 0.0

    def test_hand_checkable_orthonormal(self):
        Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        C = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        D = mapped_distances(Y, C, DistanceKind.EUCLIDEAN)
        assert np.max(np.abs(D - np.array([[np.sqrt(2), np.sqrt(2)], [1.0, 1.0]]))) < 1e-12

    def test_penrose_level_shifted_copies_are_at_zero(self, rng):
        # centering rounds, so the diagonal is near 0 rather than exactly 0
        Y = rng.normal(size=(6, 10))
        D = mapped_distances(Y, Y + 100, DistanceKind.PENROSE_SHAPE)
        assert np.max(np.diag(D)) <= 1e-12
        assert np.min(D + np.eye(6)) > 0.1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            distance_space(np.zeros((2, 5)), "penrose")

    def test_penrose_too_short(self):
        with pytest.raises(SeriesTooShort):
            distance_space(np.zeros((2, 1)), DistanceKind.PENROSE_SHAPE)
        with pytest.raises(SeriesTooShort):
            penrose_shape(np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
    def test_result_is_c_contiguous_n_by_k(self, rng, kind):
        # the kernel's result is cluster-first; a result that leaves the
        # package, such as the reference memberships, is series-first
        data = Dataset(np.linspace(0, 1, 12), rng.normal(size=(7, 12)))
        membership, _ = reference_partition(data, [1, 1, 2, 2, 3, 3, 3], kind)
        assert membership.shape == (7, 3) and membership.flags.c_contiguous


def exact_distances(points, centers):
    """(K, N) distances from each entry's own differences: the kernel's reference."""
    diff = points[None, :, :] - centers[:, None, :]
    return np.sqrt(np.einsum("kij,kij->ki", diff, diff))


def kernel_bound(m):
    # the kernel's relative bound (m + 2) * 2^-46 on squared distances, which
    # the square root halves, holds for distances with room to spare
    return (m + 2) * 2.0**-46


@pytest.mark.parametrize("n_series, m, restarts, k", [
    (360, 10, 10, 6), (360, 100, 2, 6), (360, 10, 10, 12), (3600, 200, 2, 6),
])
def test_batched_kernel_within_bound_of_exact_tensor(n_series, m, restarts, k):
    # the boosted loop's call: the (R, K, m) stack of centers in one kernel
    # call, one matrix product per restart, giving the cluster-first
    # (R, K, N) stack
    rng = np.random.default_rng(m + k)
    points = rng.normal(size=(n_series, m))
    centers = rng.normal(size=(restarts, k, m))
    centers[0, 1] = points[3]
    stacked = np.sqrt(_sq_distances(points, centers, _sq_norms(points)))
    assert stacked.shape == (restarts, k, n_series)
    exact = exact_distances(points, centers.reshape(restarts * k, m)).reshape(stacked.shape)
    assert np.all(np.abs(stacked - exact) <= kernel_bound(m) * exact)
    assert stacked[0, 1, 3] == 0.0 and np.count_nonzero(stacked == 0.0) == 1


@pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("center_shape", [(6,), (3, 4)])
def test_row_blocks_equal_one_unblocked_tensor(kind, center_shape):
    # the kernel on blocks of rows, and on all rows at once, stays within the
    # kernel's bound of one (K, N) difference tensor over all rows; a stack
    # of centers goes in as its rows. At this level the Euclidean entries
    # fail the guard, so they go through the chunked recomputation from
    # differences
    rng = np.random.default_rng(7)
    block = 17
    values = rng.normal(size=(2 * block + 3, 12)) + 50.0
    centers = (rng.normal(size=center_shape + (12,)) + 50.0).reshape(-1, 12)
    whole = mapped_distances(values, centers, kind)
    blocked = np.concatenate(
        [mapped_distances(values[s : s + block], centers, kind) for s in range(0, len(values), block)],
        axis=-1,
    )
    points = distance_space(values, kind)
    mapped = distance_space(centers, kind)
    exact = exact_distances(points, mapped)
    bound = kernel_bound(points.shape[1]) * exact
    assert whole.shape == blocked.shape == exact.shape
    assert np.all(np.abs(whole - exact) <= bound)
    assert np.all(np.abs(blocked - exact) <= bound)


@pytest.mark.parametrize("kind", list(DistanceKind), ids=lambda kind: kind.value)
def test_stack_slices_equal_their_own_calls(kind):
    # each (K, N) slice of an (R, K, m) stack's distances has the bits of its
    # own 2-D call, guarded entries included. At level 50 the Euclidean
    # entries fail the guard; in every space a center within 1e-9 of a
    # series fails it, and a center equal to a series is at exactly 0
    rng = np.random.default_rng(11)
    values = rng.normal(size=(40, 12)) + 50.0
    centers = rng.normal(size=(5, 3, 12)) + 50.0
    centers[0, 0] = values[3] + 1e-9
    centers[2, 1] = values[7]
    points = distance_space(values, kind)
    mapped = distance_space(centers, kind)
    stacked = _sq_distances(points, mapped, _sq_norms(points))
    assert stacked.shape == (5, 3, 40)
    for r in range(5):
        assert np.array_equal(stacked[r], _sq_distances(points, mapped[r])), r
    assert stacked[2, 1, 7] == 0.0


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(DistanceKind)), n=st.integers(4, 40),
       n_series=st.integers(1, 30), k=st.integers(1, 7), restarts=st.sampled_from([None, 1, 3]),
       level=st.floats(-1e4, 1e4), spread=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_distance_matrix_within_kernel_bound(kind, n, n_series, k, restarts, level, spread, seed):
    # every distance is within the kernel's bound of the difference form in
    # the mapped space, and a center equal to a series is at exactly 0; a
    # stack of centers goes in as a stack, as the boosted loop's does
    rng = np.random.default_rng(seed)
    values = level + spread * rng.normal(size=(n_series, n))
    shape = (k, n) if restarts is None else (restarts, k, n)
    centers = level + spread * rng.normal(size=shape)
    centers[..., 0, :] = values[0]
    D = mapped_distances(values, centers, kind)
    assert D.shape == shape[:-1] + (n_series,)
    D, centers = D.reshape(-1, n_series), centers.reshape(-1, n)
    points = distance_space(values, kind)
    mapped = distance_space(centers, kind)
    exact = exact_distances(points, mapped)
    assert D.shape == exact.shape and D.flags.c_contiguous
    assert np.all(np.abs(D - exact) <= kernel_bound(points.shape[1]) * exact)
    assert np.all(D[::k, 0] == 0.0)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_level_shifted_penrose_pairs_are_at_exactly_zero(rng, n):
    # quarter-integer series of a power-of-two length center without
    # rounding, so a copy shifted by an integer maps to the same point; the
    # matrix product alone would leave round-off where the guard gives 0
    values = rng.integers(-40, 40, size=(12, n)) / 4.0
    shifts = rng.integers(-1000, 1000, size=(5, 1)).astype(float)
    D = mapped_distances(values, values[:5] + shifts, DistanceKind.PENROSE_SHAPE)
    assert np.all(np.diag(D) == 0.0)
    assert np.count_nonzero(D == 0.0) == 5


def test_all_fallback_call_holds_the_points_bound():
    # norms overflow at this level, so every entry is recomputed from its
    # differences; that goes in chunks, each no larger than the points
    rng = np.random.default_rng(3)
    n_series, m, rows = 300, 100, 60
    points = 1e160 * (1.0 + 1e-10 * rng.normal(size=(n_series, m)))
    centers = 1e160 * (1.0 + 1e-10 * rng.normal(size=(rows, m)))
    result_bytes = rows * n_series * 8
    tracemalloc.start()
    try:
        d2 = _sq_distances(points, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(d2))
    diff = points[:7, None, :] - centers[None, :5, :]
    assert np.array_equal(d2[:5, :7], np.einsum("ikj,ikj->ki", diff, diff))
    # the (rows * N, m) difference array would take 14.4 MB here
    assert peak <= 3 * points.nbytes + 8 * result_bytes
