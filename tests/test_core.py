import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsboost import Dataset, harden, validate_membership
from tsboost.errors import (
    NonFiniteValue,
    NonIncreasingDomain,
    RaggedLengths,
    TooFewSeries,
)


def make(domain, rows, ids=None):
    return Dataset(domain, rows, ids)


class TestValidateDataset:
    def test_well_formed(self):
        rows = np.random.default_rng(0).normal(size=(3, 10))
        data = make(np.linspace(0, 1, 10), rows)
        assert np.array_equal(data.values, rows)
        assert data.ids == ["s0001", "s0002", "s0003"]
        assert (data.n_series, data.n_points) == (3, 10)

    def test_one_id_per_series(self):
        with pytest.raises(ValueError, match="2 ids for 3 series"):
            make(np.linspace(0, 1, 4), np.zeros((3, 4)), ids=["a", "b"])

    def test_ragged_lengths(self):
        with pytest.raises(RaggedLengths, match="'s0001' has length 9, expected 10"):
            make(np.linspace(0, 1, 10), np.zeros((2, 9)))
        with pytest.raises(RaggedLengths, match="'b' has length 9, expected 10"):
            make(np.linspace(0, 1, 10), [[0.0] * 10, [0.0] * 9], ids=["a", "b"])

    def test_nan_rejected(self):
        rows = np.zeros((2, 10))
        rows[1, 3] = np.nan
        with pytest.raises(NonFiniteValue):
            make(np.linspace(0, 1, 10), rows)

    @pytest.mark.parametrize("column", [0, -1], ids=["first-point", "last-point"])
    def test_non_finite_at_either_end_rejected(self, column):
        rows = np.zeros((3, 6))
        rows[2, column] = np.nan
        with pytest.raises(NonFiniteValue, match="'s0003'"):
            make(np.linspace(0, 1, 6), rows)

    def test_inf_rejected(self):
        rows = np.zeros((2, 5))
        rows[0, 0] = np.inf
        with pytest.raises(NonFiniteValue):
            make(np.linspace(0, 1, 5), rows)

    def test_first_non_finite_series_named(self):
        rows = np.zeros((5, 4))
        rows[1, 2] = np.nan
        rows[4, 1] = np.inf
        with pytest.raises(NonFiniteValue, match="'b'"):
            make(np.linspace(0, 1, 4), rows, ids="abcde")

    def test_non_increasing_domain(self):
        with pytest.raises(NonIncreasingDomain):
            make(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros((2, 4)))

    @pytest.mark.parametrize("point", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_domain(self, point):
        with pytest.raises(NonFiniteValue, match="domain contains non-finite values"):
            make(np.array([0.0, 0.5, point]), np.zeros((2, 3)))

    def test_too_few_series(self):
        with pytest.raises(TooFewSeries):
            make(np.linspace(0, 1, 5), np.zeros((1, 5)))

    def test_immutability(self):
        domain, rows = np.linspace(0, 1, 5), np.ones((2, 5))
        data = make(domain, rows)
        with pytest.raises(ValueError):
            data.domain[0] = 99.0
        with pytest.raises(ValueError):
            data.values[0, 0] = 99.0
        # the dataset holds copies: the caller's arrays stay its own
        domain[0], rows[0, 0] = -1.0, 99.0
        assert data.domain[0] == 0.0 and data.values[0, 0] == 1.0


@st.composite
def dataset_inputs(draw):
    """(domain, rows): N, n in 1..5, maybe a repeated domain point, maybe non-finite cells."""
    n_series, n_points = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    domain = np.arange(n_points, dtype=float)
    if n_points > 1 and draw(st.booleans()):
        j = draw(st.integers(1, n_points - 1))
        domain[j] = domain[j - 1]
    cell = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.nan, np.inf, -np.inf]))
    rows = np.array(draw(st.lists(st.lists(cell, min_size=n_points, max_size=n_points),
                                  min_size=n_series, max_size=n_series)))
    return domain, rows


@settings(max_examples=40, deadline=None)
@given(dataset_inputs())
def test_construction_checks_in_order(case):
    # a bad domain first, then too few series, then the first non-finite row
    domain, rows = case
    ids = [f"id{i}" for i in range(rows.shape[0])]
    finite = np.isfinite(rows).all(axis=1)
    if domain.shape[0] < 2 or not np.all(np.diff(domain) > 0):
        error, match = NonIncreasingDomain, "domain"
    elif rows.shape[0] < 2:
        error, match = TooFewSeries, "need at least 2 series"
    elif not finite.all():
        error, match = NonFiniteValue, f"series 'id{np.argmin(finite)}' contains NaN or Inf"
    else:
        data = make(domain, rows, ids)
        assert data.values.tobytes() == rows.tobytes() and data.ids == ids
        return
    with pytest.raises(error, match=match):
        make(domain, rows, ids)


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


def test_exports_resolve():
    import tsboost

    assert len(set(tsboost.__all__)) == len(tsboost.__all__)
    for name in tsboost.__all__:
        assert getattr(tsboost, name) is not None, name
    # names deleted from the package are not exported
    deleted = (
        "select_lambda", "TimeSeriesRecord", "validate_dataset",
        "smooth_series", "LambdaSelection", "SplineFit", "fit_pspline", "effective_dimension",
        "euclidean", "penrose_shape", "periodogram_distance", "fuzzy_equivalence",
        "DimensionMismatch", "PenaltyMatrix",
        "distance_matrix", "pd_probabilities", "loss_beta", "LengthMismatch", "SplineBasis",
        "_sq_distance_matrix",
    )
    for name in deleted:
        assert name not in tsboost.__all__ and not hasattr(tsboost, name), name
    # nor are they left in the modules that defined them
    from tsboost import distance, errors, evaluate, fcm, pdclust, pspline

    for module in (distance, errors, evaluate, fcm, pdclust, pspline):
        for name in deleted + ("_pair",):
            assert not hasattr(module, name), (module.__name__, name)
    # the keyed streams live in streams alone: boost and simgen hold none of
    # the hash's former names, and simgen uses nothing from boost
    from tsboost import boost, simgen

    stream_names = ("_seed_words", "_seed_states", "_hashmix", "_mix", "_running_constants",
                    "_mix_constants", "_pcg64_state", "_keyed_streams", "_stream_keys")
    for module in (boost, simgen):
        for name in stream_names:
            assert not hasattr(module, name), (module.__name__, name)
    assert not any(getattr(value, "__module__", None) == boost.__name__
                   for value in vars(simgen).values())
