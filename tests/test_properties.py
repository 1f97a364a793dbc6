"""Property tests for the invariants of PD clustering, the indices, the smoother and CSV I/O."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsboost import bc_index, fuzzy_rand, pd_probabilities, penrose_shape
from tsboost.boost import _seed_words, _stream, resample_counts
from tsboost.cli import _fmt, _write_csv, _write_matrix, read_membership, read_wide
from tsboost.errors import FlatCriterion
from tsboost.pspline import (
    CRITERIA,
    LambdaCriterion,
    _corner_argmin,
    _spectrum,
    build_basis,
    difference_penalty,
    effective_dimension,
    fit_pspline,
    select_lambda,
    select_rows,
    smooth_series,
)

SETTINGS = settings(max_examples=60, deadline=None)

shapes = st.tuples(st.integers(1, 12), st.integers(2, 6))


def distance_matrices():
    """Nonnegative (N, K) distances; exact zeros exercise the coincident-center branch."""
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    return shapes.flatmap(lambda s: arrays(float, s, elements=entry))


def memberships(shape=shapes):
    """Row-stochastic matrices, built by normalizing nonnegative rows."""
    def normalize(raw):
        raw = raw + (raw.sum(axis=1, keepdims=True) == 0)
        return raw / raw.sum(axis=1, keepdims=True)

    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    return shape.flatmap(lambda s: arrays(float, s, elements=entry)).map(normalize)


@SETTINGS
@given(distance_matrices())
def test_pd_rows_are_stochastic_and_balance_distances(D):
    P = pd_probabilities(D)
    assert np.all(P >= 0)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
    # PD principle: P_ik d_ik is the same for every cluster of row i
    PD = P * D
    spread = PD.max(axis=1) - PD.min(axis=1)
    assert np.all(spread <= 1e-10 * PD.max(axis=1))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-10, 10)),
    arrays(float, n, elements=st.floats(-10, 10)))),
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
@example((np.arange(10.0), np.arange(10.0)), 1e3, 0.0)
def test_penrose_ignores_levels(pair, a, b):
    y, c = pair
    assert abs(penrose_shape(y + a, c + b) - penrose_shape(y, c)) <= 1e-11


@SETTINGS
@given(memberships())
def test_bc_lies_in_unit_interval(P):
    assert 0.0 <= bc_index(P) <= 1.0


@SETTINGS
@given(st.data())
def test_fuzzy_rand_symmetric_and_one_on_identity(data):
    n = data.draw(st.integers(2, 10))
    P = data.draw(memberships(st.tuples(st.just(n), st.integers(2, 5))))
    Q = data.draw(memberships(st.tuples(st.just(n), st.integers(2, 5))))
    assert fuzzy_rand(P, Q) == fuzzy_rand(Q, P)
    assert fuzzy_rand(P, P) == 1.0


@SETTINGS
@given(n=st.integers(5, 40), degree=st.integers(0, 3), interior=st.integers(1, 12),
       order=st.integers(1, 3))
def test_effective_dimension_monotone_and_bounded(n, degree, interior, order):
    basis = build_basis(np.linspace(0, 1, n), degree=degree, interior_knots=interior)
    m = basis.n_bases
    if order >= m:
        order = m - 1
    pen = difference_penalty(m, order)
    eds = np.array([effective_dimension(basis, pen, lam) for lam in np.logspace(-6, 6, 25)])
    assert np.all(np.diff(eds) <= 1e-9)
    assert np.all(eds >= order - 1e-8)
    assert np.all(eds <= np.linalg.matrix_rank(basis.matrix) + 1e-8)


@SETTINGS
@given(n=st.integers(5, 40), degree=st.integers(0, 3), interior=st.integers(1, 12),
       order=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_spectral_fit_matches_dense_solve(n, degree, interior, order, seed):
    # the fit smooth_series takes from the selection's spectrum equals the
    # dense normal-equation solve at the selected lambda, also for m > n
    basis = build_basis(np.linspace(0, 1, n), degree=degree, interior_knots=interior)
    m = basis.n_bases
    pen = difference_penalty(m, min(order, m - 1))
    rng = np.random.default_rng(seed)
    y = np.sin(5 * basis.domain) + rng.normal(0, 0.3, size=n)
    for name in CRITERIA:
        fit, selection = smooth_series(y, basis, pen, name)
        dense = fit_pspline(y, basis, pen, selection.lam)
        for got, want in ((fit.fitted, dense.fitted), (fit.coef, dense.coef)):
            assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want)), name


def weight_columns():
    """Resampling weights: one-hot, uniform, or with zero and near-zero entries."""
    near_zero = st.sampled_from([0.0, 5e-324, 1e-300, 1e-200, 1e-12])
    mixed = st.one_of(near_zero, st.floats(1e-3, 1.0))
    n = st.integers(1, 40)
    one_hot = n.flatmap(lambda k: st.integers(0, k - 1).map(lambda i: np.eye(k)[i]))
    uniform = n.map(lambda k: np.full(k, 1.0 / k))
    small = n.flatmap(lambda k: arrays(float, k, elements=mixed)).filter(lambda w: w.sum() > 0)
    return st.one_of(one_hot, uniform, small)


@SETTINGS
@given(weight_columns(), st.integers(0, 2**32 - 1))
def test_resampling_equals_rng_choice(w, seed):
    # the inverse-CDF draw is rng.choice's own arithmetic: same counts and
    # the stream left in the same state
    n = w.shape[0]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = resample_counts(w[None, :], [ours])[0]
    sample = theirs.choice(n, size=n, replace=True, p=w / w.sum())
    assert np.array_equal(counts, np.bincount(sample, minlength=n))
    assert ours.random() == theirs.random()


@SETTINGS
@given(st.integers(0, 2**100), st.integers(0, 50), st.integers(1, 10**6), st.integers(0, 50))
@example(0, 0, 1, 0)
@example(2**32 - 1, 3, 100, 5)
@example(2**32, 3, 100, 5)
@example(2**64 + 3, 0, 7, 1)
@example(2**100, 9, 100, 5)
def test_uint32_stream_key_equals_tuple_key(seed, restart, iteration, cluster):
    # the seed's 32-bit words followed by the key as one uint32 array give
    # SeedSequence the same entropy as the tuple of Python ints
    key = (restart, iteration, cluster)
    words = np.array((*_seed_words(seed), *key), dtype=np.uint32)
    expected = np.random.SeedSequence((seed, *key))
    assert np.array_equal(np.random.SeedSequence(words).generate_state(4, np.uint64),
                          expected.generate_state(4, np.uint64))
    ours = _stream(_seed_words(seed), *key)
    assert ours.random() == np.random.default_rng(expected).random()


def corner_argmin_oracle(v):
    """Scalar L-curve corner rule of one speed profile, the reference of ``_corner_argmin``."""
    if float(np.max(v) - np.min(v)) < 1e-14:
        raise FlatCriterion("speed profile is flat across the grid")
    dips = []
    for i in range(1, v.shape[0] - 1):
        if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
            flank = min(np.max(v[:i]), np.max(v[i + 1:]))
            if v[i] <= 0.5 * flank:
                dips.append(i)
    if dips:
        return min(dips, key=lambda i: v[i])
    return int(np.argmin(v))


@SETTINGS
@given(st.integers(3, 12).flatmap(lambda g: arrays(
    float, st.tuples(st.integers(1, 6), st.just(g)),
    elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0)))))
@example(np.array([[0.0, 2.0, 1.0, 2.0, 0.0], [0.0, 2.0, 1.01, 2.0, 0.0]]))
def test_corner_argmin_matches_scalar_rule(V):
    # small repeated values make ties, plateaus and dips at exactly half a
    # flank; a lambda grid has at least 10 points, so a profile at least 9
    picks = _corner_argmin(V)
    for v, pick in zip(V, picks):
        try:
            assert pick == corner_argmin_oracle(v)
        except FlatCriterion:
            continue


@SETTINGS
@given(n=st.integers(5, 30), rows=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_batched_rows_match_one_row_selection(n, rows, seed):
    # every row of the batch picks what select_lambda picks for it alone, and
    # its coefficients agree; row 0 is zero, whose profile is flat for every
    # criterion, and row 1 a nonzero constant, which lies in the penalty null
    # space: every lambda fits it exactly, so it is flagged flat as well
    basis = build_basis(np.linspace(0, 1, n))
    pen = difference_penalty(basis.n_bases)
    rng = np.random.default_rng(seed)
    Y = np.sin(5 * basis.domain) * rng.normal(size=(rows, 1)) + rng.normal(0, 0.3, size=(rows, n))
    Y[0] = 0.0
    Y[1] = rng.normal()
    spectrum = _spectrum(basis, pen)
    for name in CRITERIA:
        criterion = LambdaCriterion(name)
        batch = select_rows(Y, spectrum, criterion)
        for row in (0, 1):
            assert batch.flat[row] and batch.lam[row] == criterion.grid[-1], name
            with pytest.raises(FlatCriterion):
                select_lambda(Y[row], basis, pen, criterion)
        for row, y in enumerate(Y):
            one = smooth_series(y, basis, pen, criterion)[1]
            assert batch.lam[row] == one.lam, name
            assert bool(batch.flat[row]) == (one.scores.size == 0), name
            scale = max(np.max(np.abs(one.coef)), 1e-300)
            assert np.max(np.abs(batch.coef[row] - one.coef)) <= 1e-12 * scale, name


def _write_table(path, header, ids, matrix):
    _write_csv(path, header, ([sid] + [_fmt(x) for x in row] for sid, row in zip(ids, matrix)))


@SETTINGS
@given(arrays(float, st.tuples(st.integers(2, 8), st.integers(2, 8)),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       memberships())
def test_csv_round_trip_is_exact(values, P):
    # shortest round-trip decimals: rereading an emitted CSV gives the same bits
    with tempfile.TemporaryDirectory() as tmp:
        series_ids = [f"s{i + 1}" for i in range(values.shape[0])]
        series = Path(tmp) / "series.csv"
        _write_table(series, ["id"] + [f"t{j + 1}" for j in range(values.shape[1])],
                     series_ids, values)
        data = read_wide(series)
        assert data.ids == series_ids
        assert data.values().tobytes() == values.tobytes()

        member_ids = [f"m{i + 1}" for i in range(P.shape[0])]
        membership = Path(tmp) / "membership.csv"
        _write_table(membership, ["id"] + [f"p{j + 1}" for j in range(P.shape[1])],
                     member_ids, P)
        ids, read_back = read_membership(membership)
        assert ids == member_ids
        assert read_back.tobytes() == P.tobytes()


@SETTINGS
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(np.array([[-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1e16, 2**53 + 1]]))
def test_write_matrix_bytes_equal_fmt_writer(matrix):
    # the csv module writes a float as its repr, the text _fmt gives it
    with tempfile.TemporaryDirectory() as tmp:
        ids = [f"s{i + 1}" for i in range(matrix.shape[0])]
        header = ["id"] + [f"t{j + 1}" for j in range(matrix.shape[1])]
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        _write_matrix(got, "id", ids, "t", matrix)
        _write_table(want, header, ids, matrix)
        assert got.read_bytes() == want.read_bytes()
