import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsboost import (
    Dataset,
    DistanceKind,
    classic_rand,
    confusion_matrix,
    fuzzy_rand,
    reference_partition,
)
from tsboost import pspline
from tsboost.distance import _sq_distances
from tsboost.errors import SizeMismatch, TooFewLabels, TooFewObjects
from tsboost.evaluate import COLS, ROWS

from oracles import nk_probabilities


def crisp(labels, k):
    P = np.zeros((len(labels), k))
    P[np.arange(len(labels)), np.asarray(labels) - 1] = 1.0
    return P


def rand_by_enumeration(a, b):
    n = len(a)
    agree = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            agree += (a[i] == a[j]) == (b[i] == b[j])
            total += 1
    return agree / total


def rand_indices_by_full_matrices(P, Q, a, b):
    # every N x N pair at once, the unblocked definition
    n = len(P)
    iu = np.triu_indices(n, k=1)
    ep = 1.0 - 0.5 * np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
    eq = 1.0 - 0.5 * np.abs(Q[:, None, :] - Q[None, :, :]).sum(axis=2)
    fuzzy = 1.0 - np.abs(ep[iu] - eq[iu]).mean()
    classic = ((a[:, None] == a[None, :]) == (b[:, None] == b[None, :]))[iu].mean()
    return fuzzy, classic


class TestBlockedPairs:
    # from one pair to 278 objects, over row slabs that end in a partial one
    @pytest.mark.parametrize("n", [2, 65, 150, 127, 129, 278])
    def test_matches_full_matrix_oracle(self, rng, n):
        P = rng.dirichlet(np.ones(3), size=n)
        Q = rng.dirichlet(np.ones(5), size=n)
        a = rng.integers(1, 4, size=n)
        b = rng.integers(1, 3, size=n)
        fuzzy, classic = rand_indices_by_full_matrices(P, Q, a, b)
        assert abs(fuzzy_rand(P, Q) - fuzzy) < 1e-12
        assert abs(classic_rand(a, b) - classic) < 1e-12


def summed_tensor_equivalence(X, rows):
    """E of the objects ``rows`` against all N objects: c_i + c_j with c =
    (1 - row sum) / 2, then the (rows, N, K) tensor of pairwise minimums
    added one cluster at a time."""
    total = np.zeros(len(X))
    for column in X.T:
        total += column
    half = (1.0 - total) / 2
    e = half[rows, None] + half[None, :]
    minimums = np.minimum(X[rows, None, :], X[None, :, :])
    for k in range(X.shape[1]):
        e += minimums[:, :, k]
    return e


def summed_tensor_fuzzy_rand(P, Q):
    """fuzzy_rand from whole rows of E_P and E_Q, summed slab by slab: the
    larger of ROWS and ROWS * COLS // (N - 1) objects against at most COLS
    later ones, the pairs j > i only."""
    n = P.shape[0]
    disagreement = 0.0
    height = max(ROWS, ROWS * COLS // (n - 1))
    for start in range(0, n - 1, height):
        rows = slice(start, min(start + height, n - 1))
        ep = summed_tensor_equivalence(P, rows)
        eq = summed_tensor_equivalence(Q, rows)
        for col in range(start + 1, n, COLS):
            slab = np.abs(ep[:, col : col + COLS] - eq[:, col : col + COLS])
            if col == start + 1:
                slab = np.triu(slab)  # column c is object start + 1 + c
            disagreement += slab.sum()
    return float(1.0 - disagreement / (n * (n - 1) / 2))


def memberships_with_k(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n) if k else np.empty((n, 0))


class TestClusterByClusterSum:
    # each pair's E adds c_i + c_j and then one minimum per cluster, in
    # cluster order, and each slab sums in the order of a fresh array, so
    # the index must give the oracle's bits

    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("rows", [1, 7, 64, 128])
    def test_equivalence_matches_summed_tensor(self, rng, k, rows):
        P = memberships_with_k(rng, rows + 40, k)
        Q = memberships_with_k(rng, rows + 40, k)
        assert fuzzy_rand(P, Q) == summed_tensor_fuzzy_rand(P, Q)

    @pytest.mark.parametrize("k", range(8))
    def test_fuzzy_rand_matches_summed_tensor(self, rng, k):
        n = 278
        P = memberships_with_k(rng, n, k)
        for q_clusters in (k, 3):
            Q = memberships_with_k(rng, n, q_clusters)
            assert fuzzy_rand(P, Q) == summed_tensor_fuzzy_rand(P, Q)
        assert fuzzy_rand(P, P) == 1.0

    # one pair, either side of a slab's row count and of its column count,
    # slabs whose later objects span two column chunks, and either side of
    # where one slab becomes two (129, 130) and the slab height falls from
    # 5 to ROWS (3277, 3278)
    @pytest.mark.parametrize("n", [2, ROWS - 1, ROWS + 1, COLS - 1, COLS + 1, COLS + ROWS + 3,
                                   129, 130, 3277, 3278])
    def test_fuzzy_rand_matches_summed_tensor_at_slab_edges(self, rng, n):
        P = memberships_with_k(rng, n, 6)
        Q = memberships_with_k(rng, n, 4)
        got = fuzzy_rand(P, Q)
        assert got == summed_tensor_fuzzy_rand(P, Q)
        assert got == fuzzy_rand(Q, P)

    def test_many_clusters_within_round_off(self, rng):
        for k in range(8, 41):
            P = memberships_with_k(rng, 137, k)
            Q = memberships_with_k(rng, 137, k)
            assert abs(fuzzy_rand(P, Q) - summed_tensor_fuzzy_rand(P, Q)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzy_rand_matches_summed_tensor_on_any_shape(data):
    n = data.draw(st.integers(2, 384))
    P, Q = (data.draw(arrays(float, (n, data.draw(st.integers(0, 7))),
                             elements=st.floats(0.0, 1.0)))
            for _ in range(2))
    assert fuzzy_rand(P, Q) == summed_tensor_fuzzy_rand(P, Q)


def fuzzy_rand_peak(rng, n):
    """tracemalloc peak of one fuzzy_rand call beyond its inputs, at K = 6."""
    P = rng.dirichlet(np.ones(6), size=n)
    Q = rng.dirichlet(np.ones(6), size=n)
    tracemalloc.start()
    try:
        fuzzy_rand(P, Q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fuzzy_rand_memory_does_not_grow_with_n(rng):
    # the slabs' buffers are ROWS x COLS whatever N is, also when a slab's
    # later objects span two column chunks; only the cluster-major copies
    # of the inputs grow with N
    assert fuzzy_rand_peak(rng, 2 * COLS) < fuzzy_rand_peak(rng, COLS // 4) + 2**20


class TestFuzzyRand:
    def test_self_comparison(self, rng):
        P = rng.dirichlet(np.ones(3), size=10)
        assert fuzzy_rand(P, P) == 1.0

    def test_hand_case_three_objects(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert abs(fuzzy_rand(P, Q) - 1.0 / 3.0) < 1e-15

    def test_symmetry(self, rng):
        P = rng.dirichlet(np.ones(3), size=8)
        Q = rng.dirichlet(np.ones(4), size=8)
        assert fuzzy_rand(P, Q) == fuzzy_rand(Q, P)

    def test_crisp_reduction(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 13))
            a = rng.integers(1, 4, size=n)
            b = rng.integers(1, 4, size=n)
            fr = fuzzy_rand(crisp(a, 3), crisp(b, 3))
            assert abs(fr - rand_by_enumeration(a, b)) < 1e-12
            assert abs(fr - classic_rand(a, b)) < 1e-12

    def test_different_cluster_counts_allowed(self, rng):
        P = rng.dirichlet(np.ones(2), size=6)
        Q = rng.dirichlet(np.ones(5), size=6)
        assert 0.0 <= fuzzy_rand(P, Q) <= 1.0

    def test_size_mismatch(self, rng):
        with pytest.raises(SizeMismatch):
            fuzzy_rand(rng.dirichlet(np.ones(2), size=5),
                       rng.dirichlet(np.ones(2), size=6))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_objects(self, n):
        # no pair to compare, so the index is undefined
        P = np.full((n, 2), 0.5)
        with pytest.raises(TooFewObjects, match=f"got {n}"):
            fuzzy_rand(P, P)


class TestClassicRand:
    def test_identical_labelings(self):
        assert classic_rand([1, 2, 2, 3], [1, 2, 2, 3]) == 1.0

    def test_hand_case(self):
        assert abs(classic_rand([1, 1, 2], [1, 2, 2]) - 1.0 / 3.0) < 1e-15

    def test_label_permutation_invariance(self, rng):
        a = rng.integers(1, 4, size=20)
        b = rng.integers(1, 4, size=20)
        remap = {1: 7, 2: 5, 3: 9}
        b_renamed = np.array([remap[x] for x in b])
        assert classic_rand(a, b) == classic_rand(a, b_renamed)

    @pytest.mark.parametrize("kind", ["int", "str"])
    def test_matches_pair_count(self, rng, kind):
        # the contingency-table count equals counting every pair, to the bit;
        # a labeling with one label puts every pair together
        names = np.array(["a", "b", "c", "d"]) if kind == "str" else np.array([3, -1, 7, 0])
        for n in (2, 3, 17, 40):
            for k_a, k_b in ((1, 3), (4, 1), (1, 1), (2, 4)):
                a = names[rng.integers(0, k_a, size=n)]
                b = names[rng.integers(0, k_b, size=n)]
                assert classic_rand(a, b) == rand_by_enumeration(a, b), (n, k_a, k_b)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            classic_rand([1, 2], [1, 2, 3])

    def test_one_object_is_undefined(self):
        assert np.isnan(classic_rand([1], [2]))


class TestConfusionMatrix:
    def test_perfect_prediction_is_diagonal(self):
        truth = np.array([1, 1, 2, 3, 3, 3])
        table, t_labels, p_labels = confusion_matrix(truth, truth)
        assert np.array_equal(table, np.diag([2, 1, 3]))
        assert np.array_equal(t_labels, [1, 2, 3])
        assert np.array_equal(p_labels, [1, 2, 3])

    def test_counts_sum_to_n(self, rng):
        truth = rng.integers(1, 5, size=40)
        pred = rng.integers(1, 4, size=40)
        table, _, _ = confusion_matrix(truth, pred)
        assert table.sum() == 40

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            confusion_matrix([1, 2], [1, 2, 3])


class TestReferencePartition:
    def test_singleton_clusters_near_one_hot(self):
        # constant series sit in every penalty null space, so each pooled
        # center reproduces its own series exactly
        x = np.linspace(0, 1, 10)
        values = np.vstack([np.full(10, 0.0), np.full(10, 5.0), np.full(10, 10.0)])
        data = Dataset(x, values)
        membership, centers = reference_partition(data, [1, 2, 3], DistanceKind.EUCLIDEAN)
        assert np.max(np.abs(np.eye(3) - membership)) < 1e-6
        assert np.max(np.abs(centers - values)) < 1e-6

    def test_matches_compositional_oracle(self, rng):
        x = np.linspace(0, 1, 12)
        values = rng.normal(size=(9, 12)) + np.repeat([0.0, 3.0, 6.0], 3)[:, None]
        data = Dataset(x, values)
        labels = np.repeat([1, 2, 3], 3)
        membership, centers = reference_partition(data, labels, DistanceKind.EUCLIDEAN)
        oracle = nk_probabilities(np.sqrt(_sq_distances(values, centers)).T)
        assert np.max(np.abs(membership - oracle)) < 1e-12

    def test_single_label(self, rng):
        data = Dataset(np.linspace(0, 1, 8), rng.normal(size=(4, 8)))
        with pytest.raises(TooFewLabels, match="1 distinct label"):
            reference_partition(data, [2, 2, 2, 2], DistanceKind.EUCLIDEAN)

    def test_label_count_mismatch(self, rng):
        data = Dataset(np.linspace(0, 1, 8), rng.normal(size=(4, 8)))
        with pytest.raises(SizeMismatch):
            reference_partition(data, [1, 2, 3], DistanceKind.EUCLIDEAN)

    @pytest.mark.parametrize("criterion", [None, 3, b"gcv"], ids=repr)
    def test_non_string_criterion_rejected(self, rng, criterion):
        data = Dataset(np.linspace(0, 1, 8), rng.normal(size=(4, 8)))
        with pytest.raises(ValueError, match="unknown criterion"):
            reference_partition(data, [1, 1, 2, 2], DistanceKind.EUCLIDEAN, criterion=criterion)

    def test_spectrum_factored_once_per_call(self, rng, monkeypatch):
        calls = []
        factor = pspline._spectrum

        def counting(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(pspline, "_spectrum", counting)
        data = Dataset(np.linspace(0, 1, 10), rng.normal(size=(12, 10)))
        reference_partition(data, np.repeat(np.arange(6), 2), DistanceKind.EUCLIDEAN)
        assert len(calls) == 1
