"""Property tests for the invariants of PD clustering, the indices, the smoother and CSV I/O."""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsboost import bc_index, fuzzy_rand
from tsboost.boost import resample_counts
from tsboost.cli import (
    _fmt,
    _read_csv_matrix,
    _read_matrix,
    _read_plain_matrix,
    _write_csv,
    _write_matrix,
    read_membership,
    read_wide,
)
from tsboost.errors import ParseError
from tsboost.pdclust import _probabilities
from tsboost.streams import _seed_states, keyed_streams
from tsboost.pspline import (
    CRITERIA,
    LambdaCriterion,
    _corner_argmin,
    _spectral_pen,
    _spectral_rss,
    _spectrum,
    build_basis,
    difference_penalty,
    select_rows,
)

from oracles import effective_dimension, fit_pspline, penrose_shape

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
    P = _probabilities(D.T).T
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
    B = build_basis(np.linspace(0, 1, n), degree=degree, interior_knots=interior)
    m = B.shape[1]
    if order >= m:
        order = m - 1
    pen = difference_penalty(m, order)
    eds = np.array([effective_dimension(B, pen, lam) for lam in np.logspace(-6, 6, 25)])
    assert np.all(np.diff(eds) <= 1e-9)
    assert np.all(eds >= order - 1e-8)
    assert np.all(eds <= np.linalg.matrix_rank(B) + 1e-8)


@SETTINGS
@given(n=st.integers(5, 40), degree=st.integers(0, 3), interior=st.integers(1, 12),
       order=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_spectral_fit_matches_dense_solve(n, degree, interior, order, seed):
    # the fit select_rows takes from the selection's spectrum equals the
    # dense normal-equation solve at the selected lambda, also for m > n
    x = np.linspace(0, 1, n)
    B = build_basis(x, degree=degree, interior_knots=interior)
    m = B.shape[1]
    pen = difference_penalty(m, min(order, m - 1))
    rng = np.random.default_rng(seed)
    y = np.sin(5 * x) + rng.normal(0, 0.3, size=n)
    spectrum = _spectrum(B, pen)
    for name in CRITERIA:
        rows = select_rows(y, spectrum, LambdaCriterion(name))
        dense = fit_pspline(y, B, pen, rows.lam[0])
        fitted = B @ rows.coef[0]
        for got, want in ((fitted, dense.fitted), (rows.coef[0], dense.coef)):
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


def seed_words(seed):
    """The seed's little-endian 32-bit words ([0] for 0), as ``SeedSequence`` splits an int."""
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


def stream_key(length):
    """A (seed, *entries) key of ``length`` uint32 words; a seed >= 2**32 takes 2 or 3."""
    def key(seed_words):
        low = 0 if seed_words == 1 else 2 ** (32 * (seed_words - 1))
        entries = length - seed_words
        return st.tuples(st.integers(low, 2 ** (32 * seed_words) - 1),
                         st.lists(st.integers(0, 2**32 - 1), min_size=entries, max_size=entries))
    return st.integers(1, min(3, length)).flatmap(key).map(lambda t: (t[0], *t[1]))


@SETTINGS
@given(weight_columns(), st.integers(1, 6).flatmap(stream_key))
def test_resampling_equals_rng_choice(w, key):
    # the inverse-CDF draw on the keyed stream is rng.choice's own
    # arithmetic on default_rng(SeedSequence(key)): the same counts
    n = w.shape[0]
    counts = resample_counts(w[None, :], keyed_streams(key[0], [key[1:]]))[0]
    theirs = np.random.default_rng(np.random.SeedSequence(key))
    sample = theirs.choice(n, size=n, replace=True, p=w / w.sum())
    assert np.array_equal(counts, np.bincount(sample, minlength=n))


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda length: st.lists(stream_key(length), min_size=1, max_size=6)))
@example([(0,)])
@example([(2**32 - 1, 0, 0, 0), (2**32, 0, 0), (0, 1, 2, 3)])
@example([(2**96 - 1, 9, 100, 5), (2**64, 2**32 - 1, 0, 7)])
def test_batched_hash_equals_seed_sequence(keys):
    # one batch of equal-length entropy rows hashes to every key's own
    # SeedSequence state, and each key's stream is the PCG64 seeded from
    # that sequence
    words = np.array([(*seed_words(key[0]), *key[1:]) for key in keys], dtype=np.uint32)
    states = _seed_states(words)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    for key, state in zip(keys, states):
        sequence = np.random.SeedSequence(key)
        assert np.array_equal(state, sequence.generate_state(4, np.uint64))
        ours = next(keyed_streams(key[0], [key[1:]]))
        assert ours.bit_generator.state == np.random.PCG64(sequence).state


@SETTINGS
@given(st.integers(0, 2**100), st.integers(0, 50), st.integers(1, 10**6), st.integers(0, 50))
@example(0, 0, 1, 0)
@example(2**32 - 1, 3, 100, 5)
@example(2**32, 3, 100, 5)
@example(2**64 + 3, 0, 7, 1)
@example(2**100, 9, 100, 5)
def test_uint32_stream_key_equals_tuple_key(seed, restart, iteration, cluster):
    # the seed's 32-bit words followed by the key as one uint32 array give
    # SeedSequence the same entropy as the tuple of Python ints, for the
    # initial-center keys (seed, restart) and the resampling keys
    for key in ((restart,), (restart, iteration, cluster)):
        words = np.array((*seed_words(seed), *key), dtype=np.uint32)
        expected = np.random.SeedSequence((seed, *key))
        assert np.array_equal(np.random.SeedSequence(words).generate_state(4, np.uint64),
                              expected.generate_state(4, np.uint64))
        ours = next(keyed_streams(seed, [key]))
        assert ours.random() == np.random.default_rng(expected).random()


def corner_argmin_oracle(v):
    """Scalar L-curve corner rule of one speed profile, the reference of ``_corner_argmin``;
    None for a flat profile."""
    if float(np.max(v) - np.min(v)) < 1e-14:
        return None
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
        expected = corner_argmin_oracle(v)
        assert expected is None or pick == expected


@SETTINGS
@given(n=st.integers(5, 30), rows=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_batched_rows_match_one_row_selection(n, rows, seed):
    # every row of the batch picks what select_rows picks for it alone, and
    # its coefficients agree; row 0 is zero, whose profile is flat for every
    # criterion, and row 1 a nonzero constant, which lies in the penalty null
    # space: every lambda fits it exactly, so it is flagged flat as well
    x = np.linspace(0, 1, n)
    B = build_basis(x)
    pen = difference_penalty(B.shape[1])
    rng = np.random.default_rng(seed)
    Y = np.sin(5 * x) * rng.normal(size=(rows, 1)) + rng.normal(0, 0.3, size=(rows, n))
    Y[0] = 0.0
    Y[1] = rng.normal()
    spectrum = _spectrum(B, pen)
    for name in CRITERIA:
        criterion = LambdaCriterion(name)
        batch = select_rows(Y, spectrum, criterion)
        for row in (0, 1):
            assert batch.flat[row] and batch.lam[row] == criterion.grid[-1], name
        for row, y in enumerate(Y):
            one = select_rows(y, spectrum, criterion)
            assert batch.lam[row] == one.lam[0], name
            assert batch.flat[row] == one.flat[0], name
            scale = max(np.max(np.abs(one.coef)), 1e-300)
            assert np.max(np.abs(batch.coef[row] - one.coef[0])) <= 1e-12 * scale, name


def tensor_profiles(Y, spectrum, grid):
    """rss and penalty SS (rows, G) from the (rows, G, n) residual and (rows, G, m - order) penalty tensors."""
    mu, _, Q, DV = spectrum
    c = (Y @ Q)[:, None, :] / (mu + grid[:, None] * (1.0 - mu))
    rss = np.sum((Y[:, None, :] - c @ Q.T) ** 2, axis=-1)
    pen = np.sum((c @ DV.T) ** 2, axis=-1)
    return rss, pen


def curve_scores(name, rss, pen, grid):
    """V-curve speeds or L-curve curvatures of the (log rss, log pen) path."""
    psi, phi, u = np.log(rss), np.log(pen), np.log(grid)
    if name == "vcurve":
        return np.hypot(np.diff(psi, axis=-1), np.diff(phi, axis=-1)) / np.diff(u)
    dpsi, dphi = np.gradient(psi, u, axis=-1), np.gradient(phi, u, axis=-1)
    d2psi, d2phi = np.gradient(dpsi, u, axis=-1), np.gradient(dphi, u, axis=-1)
    return (dpsi * d2phi - d2psi * dphi) / (dpsi**2 + dphi**2) ** 1.5


@SETTINGS
@given(n=st.integers(5, 80), rows=st.integers(3, 6), seed=st.integers(0, 2**32 - 1))
def test_spectral_scores_match_residual_tensor(n, rows, seed):
    # every criterion but LOO-CV scores the grid from spectral sums; they
    # agree with the residual and penalty tensors on the default basis, also
    # at n = 5, where m = 6 leaves B'B singular. Row 0 is zero and row 1 a
    # constant: both are flat, and their scores are round-off, so only the
    # other rows' profiles and scores count
    x = np.linspace(0, 1, n)
    B = build_basis(x)
    spectrum = _spectrum(B, difference_penalty(B.shape[1]))
    mu, _, Q, DV = spectrum
    rng = np.random.default_rng(seed)
    Y = np.sin(5 * x) * rng.normal(size=(rows, 1)) + rng.normal(0, 0.3, size=(rows, n))
    Y[0] = 0.0
    Y[1] = rng.normal()
    grid = LambdaCriterion("aic").grid
    d = mu + grid[:, None] * (1.0 - mu)
    Qty = Y @ Q
    rss, pen = tensor_profiles(Y, spectrum, grid)
    spectral = _spectral_rss(Y, Qty, mu, Q, grid, d)[2:], _spectral_pen(Qty, DV, d)[2:]
    rss, pen = rss[2:], pen[2:]
    # forming D a near lambda = 1e6 cancels up to 6e-8 of the tensor's
    # penalty SS (against 50-digit solves; the spectral sum stays within
    # 1e-13), so each profile is compared normwise per row, and elementwise
    # only to 1e-6, which still catches a sum that floors or drops a term
    for got, want in zip(spectral, (rss, pen)):
        assert np.all(np.abs(got - want) <= 1e-8 * np.max(want, axis=1, keepdims=True))
        assert np.all(np.abs(got - want) <= 1e-6 * want)
    ed = np.sum(mu / d, axis=1)
    for name in ("aic", "gcv", "vcurve", "lcurve"):
        got = select_rows(Y, spectrum, LambdaCriterion(name))
        if name in ("vcurve", "lcurve"):
            # the curve of select_rows is the curve of the spectral profiles,
            # and it picks what the tensors' curve picks
            want = curve_scores(name, *spectral, grid)
            assert np.max(np.abs(got.scores[2:] - want)) <= 1e-12 * np.max(np.abs(want)), name
            tensor = curve_scores(name, rss, pen, grid)
            picks = _corner_argmin(tensor) if name == "vcurve" else np.argmax(tensor, axis=-1)
        else:
            with np.errstate(divide="ignore"):
                want = (2.0 * ed + n * np.log(rss / n) if name == "aic"
                        else np.where(ed < n - 1e-9, rss / (n - ed) ** 2, np.inf))
            picks = np.argmin(want, axis=-1)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got.scores[2:]), finite), name
            err = np.max(np.abs(got.scores[2:][finite] - want[finite]))
            assert err <= 1e-8 * np.max(np.abs(want[finite])), name
        assert got.flat.tolist() == [True, True] + [False] * (rows - 2), name
        assert np.all(got.lam[:2] == grid[-1]), name
        assert np.array_equal(got.lam[2:], got.lambdas[picks]), name


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
        assert data.values.tobytes() == values.tobytes()

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


# tokens that float() reads and np.loadtxt does not, that either pads or
# spells differently, or that neither reads
ODD_TOKENS = (
    "1_0", "\uff11", "\u0661.5", " 1.5", "1.5 ", "\t2", "1.5\xa0", "inf", "-Infinity",
    "nan", "+NaN", "1e400", "", " ", "x", "0x10", "\x1c1", "1.5\x1f", '"1.5"', '"2,5"',
)
# file-wide changes that the csv module may read differently than a split
# at commas: the fast reader must hand such a file on, or agree
CHANGES = (
    "crlf", "bom", "no-final-newline", "blank-line", "nul-in-header", "nul-in-id",
    "quoted-id", "quoted-id-with-comma", "extra-field", "missing-field",
    "oversized-field", "non-utf8", "bad-header", "header-only",
)


def _matrix_file(table, change=None, row=1):
    """Bytes of a wide table (cell lists, header first) with one of CHANGES at a data row."""
    table = [list(cells) for cells in table]
    if change == "nul-in-header":
        table[0][1] = "\0" + table[0][1]
    elif change == "nul-in-id":
        table[row][0] += "\0"
    elif change == "quoted-id":
        table[row][0] = '"a""b"'
    elif change == "quoted-id-with-comma":
        table[row][0] = '"a,b"'
    elif change == "extra-field":
        table[row].append("1.0")
    elif change == "missing-field":
        del table[row][-1]
    elif change == "oversized-field":
        table[row][1] = "1" * (csv.field_size_limit() + 1)
    elif change == "bad-header":
        table[0][0] = "series"
    elif change == "header-only":
        del table[1:]
    lines = [",".join(cells) for cells in table]
    if change == "blank-line":
        lines.insert(row, "")
    end = "\r\n" if change == "crlf" else "\n"
    text = end.join(lines) + ("" if change == "no-final-newline" else end)
    data = (("\ufeff" if change == "bom" else "") + text).encode()
    if change == "non-utf8":
        data = data.replace(b"\n", b"\xe9\n", 1)
    return data


def _read_outcome(read, path):
    try:
        ids, values = read(path, "id,t1,...,tn")
    except ParseError as exc:
        return str(exc)
    return ids, values.shape, values.tobytes()


def _check_readers_agree(data, clean):
    # the same ids and bits, or the same ParseError text, as the csv-module
    # reader; a table of plain lines is read by the fast path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(data)
        assert _read_outcome(_read_matrix, path) == _read_outcome(_read_csv_matrix, path)
        if clean:
            assert _read_plain_matrix(path, "id,t1,...,tn") is not None


PLAIN_TABLE = (("id", "t1", "t2"), ("s1", "0.5", "-1.25e-3"), ("\u03bb 2", "7", "1e16"))


@pytest.mark.parametrize("change", (None,) + CHANGES)
@pytest.mark.parametrize("row", [1, 2])
def test_fast_reader_agrees_on_every_change(change, row):
    _check_readers_agree(_matrix_file(PLAIN_TABLE, change, row), change is None)


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_fast_reader_agrees_on_odd_tokens(token):
    table = [list(cells) for cells in PLAIN_TABLE]
    table[2][1] = token
    _check_readers_agree(_matrix_file(table), False)


@st.composite
def matrix_files(draw):
    """(file bytes, clean): a random wide table, clean when every line is plain."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    number = st.one_of(
        st.floats().map(repr),
        st.from_regex(r"[+-]?[0-9]{1,25}(\.[0-9]{0,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    )
    sid = st.text(st.sampled_from("ab01 -\xe9\u03bb"), max_size=4)
    table = [["id"] + [f"t{j + 1}" for j in range(cols)]]
    table += [[draw(sid)] + [draw(number) for _ in range(cols)] for _ in range(rows)]
    row = draw(st.integers(1, rows))
    odd = draw(st.one_of(st.none(), st.sampled_from(ODD_TOKENS)))
    if odd is not None:
        table[row][draw(st.integers(1, cols))] = odd
    change = draw(st.one_of(st.none(), st.sampled_from(CHANGES)))
    return _matrix_file(table, change, row), odd is None and change is None


@settings(max_examples=60, deadline=None)
@given(matrix_files())
def test_fast_reader_agrees_with_csv_module(case):
    _check_readers_agree(*case)


SPECIAL_VALUES = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 0.1)


# ids of the characters the csv module may quote, and rows of odd floats
matrix_rows = st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.tuples(st.text(st.sampled_from('ab,"\r\n \xe9\u03bb'), max_size=3),
              st.lists(st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats()),
                       min_size=cols, max_size=cols)),
    min_size=1, max_size=5))


def _csv_line(fields):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()


@settings(max_examples=60, deadline=None)
@given(matrix_rows, st.booleans())
@example([("a,b", [0.1]), ('"q"', [-0.0]), ("", [5e-324]), ("x\ry", [1e16]), ("z\n", [0.1])],
         False)
@example([("\u03bb", list(SPECIAL_VALUES))], True)
def test_write_matrix_bytes_equal_csv_writer(rows, centers):
    # the bytes of csv.writer(lineterminator="\n") for the same rows, for the
    # two tables the CLI writes: ids x p memberships and cluster numbers x t centers;
    # only an id holding a carriage return is quoted, as one holding \n is
    matrix = np.array([values for _, values in rows])
    if centers:
        key, ids, prefix = "cluster", range(1, len(rows) + 1), "t"
    else:
        key, ids, prefix = "id", [sid for sid, _ in rows], "p"
    lines = [_csv_line([key] + [f"{prefix}{j + 1}" for j in range(matrix.shape[1])])]
    for sid, row in zip(ids, matrix.tolist()):
        if "\r" in str(sid):
            lines.append('"' + sid.replace('"', '""') + '",' + _csv_line(row))
        else:
            lines.append(_csv_line([sid] + row))
    with tempfile.TemporaryDirectory() as tmp:
        got = Path(tmp) / "got.csv"
        _write_matrix(got, key, ids, prefix, matrix)
        assert got.read_bytes() == "".join(lines).encode()


@settings(max_examples=60, deadline=None)
@given(matrix_rows)
@example([("x\ry", [1e16]), ("\r", [0.1]), ("\r\n", [-0.0])])
def test_written_matrix_reads_back(rows):
    # the CLI reads back every id and the repr of every value it wrote
    ids = [sid for sid, _ in rows]
    matrix = np.array([values for _, values in rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "membership.csv"
        _write_matrix(path, "id", ids, "p", matrix)
        read_ids, values = _read_matrix(path, "id,p1,...,pK")
    assert read_ids == ids
    assert [list(map(repr, row)) for row in values.tolist()] == \
        [list(map(repr, row)) for row in matrix.tolist()]
