import numpy as np
import pytest

from tsboost import (
    BoostConfig,
    Dataset,
    DistanceKind,
    FcmConfig,
    harden,
    reference_partition,
    run_boost,
    run_fcm,
    validate_dataset,
    validate_membership,
)
from tsboost.core import checked_values
from tsboost.errors import (
    NonFiniteValue,
    NonIncreasingDomain,
    RaggedLengths,
    TooFewSeries,
)

from conftest import two_level_dataset


def make(domain, rows, ids=None):
    return Dataset.from_values(domain, rows, ids)


class TestValidateDataset:
    def test_well_formed(self):
        data = make(np.linspace(0, 1, 10), np.random.default_rng(0).normal(size=(3, 10)))
        assert validate_dataset(data) is data

    def test_checked_values_is_the_stacked_series(self):
        data = make(np.linspace(0, 1, 10), np.random.default_rng(0).normal(size=(3, 10)))
        assert np.array_equal(checked_values(data), data.values())

    def test_runs_stack_the_series_once(self, monkeypatch):
        # the runs and the reference partition take checked_values' stack
        # instead of stacking the series a second time
        data = two_level_dataset()

        def second_stack(self):
            raise AssertionError("Dataset.values() called after checked_values")

        monkeypatch.setattr(Dataset, "values", second_stack)
        run_fcm(data, FcmConfig(n_clusters=2))
        run_boost(data, BoostConfig(n_clusters=2, maxiter=2, restarts=1))
        reference_partition(data, np.repeat([1, 2], 5), DistanceKind.EUCLIDEAN)

    def test_ragged_lengths(self):
        from tsboost import TimeSeriesRecord

        data = Dataset(
            domain=np.linspace(0, 1, 10),
            series=(
                TimeSeriesRecord("a", np.zeros(10)),
                TimeSeriesRecord("b", np.zeros(9)),
            ),
        )
        with pytest.raises(RaggedLengths):
            validate_dataset(data)

    def test_nan_rejected(self):
        rows = np.zeros((2, 10))
        rows[1, 3] = np.nan
        with pytest.raises(NonFiniteValue):
            validate_dataset(make(np.linspace(0, 1, 10), rows))

    @pytest.mark.parametrize("column", [0, -1], ids=["first-point", "last-point"])
    def test_non_finite_at_either_end_rejected(self, column):
        rows = np.zeros((3, 6))
        rows[2, column] = np.nan
        with pytest.raises(NonFiniteValue, match="'s0003'"):
            validate_dataset(make(np.linspace(0, 1, 6), rows))

    def test_inf_rejected(self):
        rows = np.zeros((2, 5))
        rows[0, 0] = np.inf
        with pytest.raises(NonFiniteValue):
            validate_dataset(make(np.linspace(0, 1, 5), rows))

    def test_first_non_finite_series_named(self):
        rows = np.zeros((5, 4))
        rows[1, 2] = np.nan
        rows[4, 1] = np.inf
        with pytest.raises(NonFiniteValue, match="'b'"):
            validate_dataset(make(np.linspace(0, 1, 4), rows, ids="abcde"))

    @pytest.mark.parametrize("bad, error", [(1, NonFiniteValue), (3, RaggedLengths)])
    def test_earlier_of_ragged_and_non_finite_reported(self, bad, error):
        from tsboost import TimeSeriesRecord

        series = [TimeSeriesRecord(sid, np.zeros(4)) for sid in "abcde"]
        series[bad] = TimeSeriesRecord(series[bad].id, [0.0, np.nan, 0.0, 0.0])
        series[4 - bad] = TimeSeriesRecord(series[4 - bad].id, np.zeros(3))
        data = Dataset(domain=np.linspace(0, 1, 4), series=tuple(series))
        with pytest.raises(error, match=f"'{'abcde'[min(bad, 4 - bad)]}'"):
            validate_dataset(data)

    def test_non_increasing_domain(self):
        with pytest.raises(NonIncreasingDomain):
            validate_dataset(make(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((2, 4))))

    def test_too_few_series(self):
        with pytest.raises(TooFewSeries):
            validate_dataset(make(np.linspace(0, 1, 5), np.zeros((1, 5))))

    def test_immutability(self):
        data = make(np.linspace(0, 1, 5), np.ones((2, 5)))
        with pytest.raises(ValueError):
            data.domain[0] = 99.0
        with pytest.raises(ValueError):
            data.series[0].values[0] = 99.0


class TestHarden:
    def test_simple_argmax(self):
        assert harden(np.array([[0.7, 0.3]])).tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        assert harden(np.array([[0.5, 0.5]])).tolist() == [1]

    def test_one_hot_rows(self):
        assert harden(np.eye(3)).tolist() == [1, 2, 3]

    def test_invariant_under_increasing_transform(self, rng):
        P = rng.dirichlet(np.ones(4), size=20)
        base = harden(P)
        for transform in (np.sqrt, np.log1p, lambda v: 3 * v + 7):
            assert np.array_equal(harden(transform(P)), base)


class TestValidateMembership:
    def test_valid(self, rng):
        P = rng.dirichlet(np.ones(3), size=10)
        assert validate_membership(P).shape == (10, 3)

    def test_row_sum_tolerance(self):
        P = np.array([[0.5, 0.5 + 5e-10]])
        validate_membership(P)  # within 1e-9
        with pytest.raises(ValueError):
            validate_membership(np.array([[0.5, 0.51]]))

    def test_range_check(self):
        # NaN fails every comparison, so it must not slip through the range check
        for bad in ([[1.2, -0.2]], [[0.5, 0.5], [np.nan, 1.0]]):
            with pytest.raises(ValueError):
                validate_membership(np.array(bad))
