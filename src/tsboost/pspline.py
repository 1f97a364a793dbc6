"""Penalized B-spline smoothing.

A rich equidistant-knot B-spline basis is combined with a d-th order
difference penalty on the coefficients; the penalized least-squares
coefficients are

    a = (B' B + lambda * D' D)^{-1} B' y.

Five smoothing parameter selectors are provided: AIC, leave-one-out CV,
GCV, the L-curve corner and the V-curve. ``_spectrum`` factors a (basis,
penalty) pair once (Demmler-Reinsch), which turns every grid quantity into
a diagonal scaling. ``select_rows`` is the one selection engine and the
only way into the smoother: it scores the whole lambda grid for a batch of
series at once and takes each row's coefficients at its chosen lambda from
the same factorisation. The boosted loop factors one spectrum per run and
smooths all cluster centers of an iteration in one call; the ``smooth``
command and the reference partition factor one per call and smooth one
row at a time.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainTooShort, NonFiniteValue, SingularSystem

DEFAULT_DEGREE = 3
DEFAULT_PENALTY_ORDER = 2
MAX_INTERIOR_KNOTS = 40

CRITERIA = ("aic", "loocv", "gcv", "lcurve", "vcurve")


def default_interior_knots(n):
    """Knot-count rule for a domain of length n: min(ceil(n/4), 40)."""
    return min(math.ceil(n / 4), MAX_INTERIOR_KNOTS)


def default_lambda_grid(num=50, low=1e-6, high=1e6):
    return np.logspace(math.log10(low), math.log10(high), num)


def bspline_design(x, knots, degree):
    """Design matrix B with B[r, j] = B_j(x[r]) for the padded knot vector.

    Cox-de Boor recursion, run for all evaluation points at once; the knot
    vector is padded so every x lies strictly inside the full-support region.
    """
    nb = knots.shape[0] - degree - 1
    # interval index i with knots[i] <= x < knots[i+1], clamped so the right
    # domain endpoint falls in the last proper interval
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, degree, nb - 1)
    left = np.empty((degree + 1, x.shape[0]))
    right = np.empty((degree + 1, x.shape[0]))
    vals = np.empty((degree + 1, x.shape[0]))
    vals[0] = 1.0
    for j in range(1, degree + 1):
        left[j] = x - knots[i + 1 - j]
        right[j] = knots[i + j] - x
        saved = 0.0
        for k in range(j):
            tmp = vals[k] / (right[k + 1] + left[j - k])
            vals[k] = saved + right[k + 1] * tmp
            saved = left[j - k] * tmp
        vals[j] = saved
    out = np.zeros((x.shape[0], nb))
    out[np.arange(x.shape[0])[:, None], i[:, None] - degree + np.arange(degree + 1)] = vals.T
    return out


@dataclass(frozen=True)
class LambdaCriterion:
    name: str
    grid: np.ndarray = field(default_factory=default_lambda_grid)

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name.lower() in CRITERIA):
            raise ValueError(f"unknown criterion {self.name!r}; expected one of {CRITERIA}")
        object.__setattr__(self, "name", self.name.lower())
        grid = np.asarray(self.grid, dtype=float)
        # negated in-range tests, so that NaN fails them too
        in_range = np.all((grid > 0) & (grid < np.inf)) and np.all(np.diff(grid) > 0)
        if grid.size < 10 or not in_range:
            raise ValueError("lambda grid must be finite, positive, increasing, >= 10 points")
        object.__setattr__(self, "grid", grid)


def build_basis(domain, degree=DEFAULT_DEGREE, interior_knots=None):
    """Equidistant-knot B-spline basis B (n, m) evaluated on the given time domain.

    The knot vector spans [domain[0], domain[-1]] with ``interior_knots``
    equidistant interior knots and ``degree`` padding knots on each side,
    giving m = interior_knots + degree + 1 basis functions. When
    ``interior_knots`` is omitted the min(ceil(n/4), 40) rule is applied.
    """
    domain = np.asarray(domain, dtype=float)
    n = domain.shape[0]
    if interior_knots is None:
        interior_knots = default_interior_knots(n)
    if interior_knots < 1 or degree < 0:
        raise ValueError("need interior_knots >= 1 and degree >= 0")
    if n < degree + 1:
        raise DomainTooShort(f"domain of length {n} cannot support degree {degree}")
    lo, hi = domain[0], domain[-1]
    h = (hi - lo) / (interior_knots + 1)
    knots = lo + h * np.arange(-degree, interior_knots + degree + 2)
    return bspline_design(domain, knots, degree)


def difference_penalty(n_bases, order=DEFAULT_PENALTY_ORDER):
    """d-th order difference penalty matrix D (m - d, m) for a coefficient vector of length m."""
    if not 1 <= order < n_bases:
        raise ValueError(f"penalty order must be in [1, {n_bases - 1}]")
    return np.diff(np.eye(n_bases), order, axis=0)


def _spectrum(B, penalty):
    """Demmler-Reinsch diagonalisation of B'B and D'D on a normalised pencil.

    With C = B'B + D'D = LL' and eigh(L^-1 B'B L^-T) = U diag(mu) U', the
    basis V = L^-T U gives V'B'BV = diag(mu) and V'D'DV = diag(1 - mu), so
    (B'B + lambda D'D)^{-1} = V diag(1 / d) V' with d = mu + lambda (1 - mu).
    C stays positive definite when B'B is singular (m > n). Returns mu
    (ascending, clipped to [0, 1]), V, Q = BV and DV.
    """
    BtB = B.T @ B
    try:
        L = np.linalg.cholesky(BtB + penalty.T @ penalty)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    Linv = np.linalg.inv(L)
    mu, U = np.linalg.eigh(Linv @ BtB @ Linv.T)
    V = Linv.T @ U
    return np.clip(mu, 0.0, 1.0), V, B @ V, penalty @ V


# select_rows scores a row whose largest magnitude reaches this on a copy
# scaled by a power of two: its squares and their sums would overflow
_HUGE = 2.0**400


class RowSelection(NamedTuple):
    """Lambda selection for a batch of series; see ``select_rows``."""

    lam: np.ndarray      # (...) selected lambda; the largest grid lambda on flat rows
    coef: np.ndarray     # (..., m) spline coefficients at lam
    flat: np.ndarray     # (...) True where the criterion profile is flat
    lambdas: np.ndarray  # points at which scores are attributed
    scores: np.ndarray   # (..., len(lambdas)); a huge row's are its scaled copy's


def select_rows(Y, spectrum, criterion):
    """Pick the smoothing parameter of every row of Y (..., n) from the criterion's grid.

    AIC, LOO-CV and GCV return the grid point minimizing the score. The
    V-curve differences the L-curve coordinates psi = log ||y - B a||^2 and
    phi = log ||D a||^2 along the log-lambda grid and returns the interval
    midpoint (geometric mean) with the smallest speed; the L-curve returns
    the grid point of maximum discrete curvature of (psi, phi).

    Every profile and the coefficients at the chosen lambda come from
    ``spectrum``, the ``_spectrum`` (mu, V, Q, DV) of the basis and penalty:
    at grid point g, a = V c with c = Q'y / d[g]. A row whose profile is flat
    (an all-zero series, for example) or that every lambda fits exactly (a
    row in the penalty null space, such as a constant, or a line at order 2)
    is flagged and takes its coefficients at the largest grid lambda.

    The residual and penalty sums of squares are sums over the spectrum,
    two (..., m) x (m, G) products (``_spectral_rss`` and ``_spectral_pen``);
    only LOO-CV forms (rows, G, n) residuals, for a few rows at a time
    (``_loocv_scores``). A stack such as the boosted loop's (R, K, n) goes
    through every product one (K, n) slice at a time, so no slice's
    selection depends on the rest of the stack. A row whose largest
    magnitude reaches ``_HUGE`` is scored as its copy scaled by 2**-e, with
    e the binary exponent of that magnitude, and its coefficients are
    multiplied by 2**e, so such a row and its multiples by powers of two
    select alike; a row whose coefficients would overflow there raises
    ``NonFiniteValue``.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    shift = None
    if Y.max() >= _HUGE or Y.min() <= -_HUGE:
        magnitude = np.abs(Y).max(axis=-1)
        shift = np.where(magnitude >= _HUGE, np.frexp(magnitude)[1], 0)
        Y = np.ldexp(Y, -shift[..., None])
    grid = criterion.grid
    n = Y.shape[-1]
    mu, V, Q, DV = spectrum
    Qty = Y @ Q
    d = mu + grid[:, None] * (1.0 - mu)
    name = criterion.name
    rss = _spectral_rss(Y, Qty, mu, Q, grid, d)
    lambdas = grid
    if name in ("aic", "loocv", "gcv"):
        with np.errstate(divide="ignore", invalid="ignore"):
            if name == "loocv":
                scores = _loocv_scores(Y, Qty, Q, d)
            elif name == "aic":
                ed = np.sum(mu / d, axis=1)
                scores = np.where(rss / n > 1e-300, 2.0 * ed + n * np.log(rss / n), np.inf)
            else:
                ed = np.sum(mu / d, axis=1)
                scores = np.where(ed < n - 1e-9, rss / (n - ed) ** 2, np.inf)
        # only finite scores count; a row without any is flat
        finite = np.isfinite(scores)
        top = np.max(scores, axis=-1, where=finite, initial=-np.inf)
        spread = top - np.min(scores, axis=-1, where=finite, initial=np.inf)
        if name == "aic":
            flat = spread < 1e-14
        else:
            # GCV and LOO-CV scale with y**2, so their spread is measured
            # against the largest score; an all-zero profile is flat
            flat = ~(spread > 1e-14 * top)
        pick = np.argmin(np.where(finite, scores, np.inf), axis=-1)
    else:
        pen = _spectral_pen(Qty, DV, d)
        psi = np.log(np.maximum(rss, 1e-300))
        phi = np.log(np.maximum(pen, 1e-300))
        u = np.log(grid)
        if name == "vcurve":
            du = np.diff(u)
            scores = np.hypot(np.diff(psi, axis=-1) / du, np.diff(phi, axis=-1) / du)
            lambdas = np.exp((u[:-1] + u[1:]) / 2.0)
            pick = _corner_argmin(scores)
        else:
            # lcurve: signed curvature of the (psi, phi) path; the corner of
            # the "L" is the maximum-curvature point with this orientation
            dpsi = np.gradient(psi, u, axis=-1)
            dphi = np.gradient(phi, u, axis=-1)
            d2psi = np.gradient(dpsi, u, axis=-1)
            d2phi = np.gradient(dphi, u, axis=-1)
            denom = np.maximum((dpsi**2 + dphi**2) ** 1.5, 1e-300)
            scores = (dpsi * d2phi - d2psi * dphi) / denom
            pick = np.argmax(scores, axis=-1)
        flat = np.max(scores, axis=-1) - np.min(scores, axis=-1) < 1e-14
    # every lambda fits a row in the penalty null space exactly, so its
    # profile is round-off however it scores: an rss at round-off level flags it
    flat |= rss.max(axis=-1) <= n * np.finfo(float).eps * np.sum(Y**2, axis=-1)
    lam = np.where(flat, grid[-1], lambdas[pick])
    coef = (Qty / (mu + lam[..., None] * (1.0 - mu))) @ V.T
    if shift is not None:
        # a fit near the float limit can need coefficients beyond it
        if np.any(np.frexp(np.abs(coef).max(axis=-1))[1] + shift > np.finfo(float).maxexp):
            raise NonFiniteValue("the series' spline coefficients overflow the float range")
        coef = np.ldexp(coef, shift[..., None])
    return RowSelection(lam, coef, flat, lambdas, scores)


# bytes of LOO-CV residuals formed at a time: the rows of a chunk hold
# G x n residuals each
_LOOCV_BYTES = 1 << 21


def _loocv_scores(Y, Qty, Q, d):
    """Leave-one-out CV scores (..., G): each point's residual over 1 - its leverage.

    The leverage diagonal (G, n) is computed once, and a grid point where a
    leverage reaches 1 - 1e-12 scores inf. The (rows, G, n) residuals are
    formed for chunks of the flattened rows of at most ``_LOOCV_BYTES``;
    every row's residuals are the same (G, m) x (m, n) product whatever the
    chunk, so the scores do not depend on it.
    """
    hdiag = (1.0 / d) @ (Q**2).T
    bad = np.any(hdiag >= 1.0 - 1e-12, axis=1)
    denom = 1.0 - np.minimum(hdiag, 1.0 - 1e-12)
    step = max(1, _LOOCV_BYTES // hdiag.nbytes)
    cv = np.empty(Y.shape[:-1] + bad.shape)
    rows = cv.reshape(-1, bad.size)
    Y, Qty = Y.reshape(rows.shape[0], -1), Qty.reshape(rows.shape[0], -1)
    for start in range(0, Y.shape[0], step):
        chunk = slice(start, start + step)
        resid = (Qty[chunk, None, :] / d) @ Q.T
        np.subtract(Y[chunk, None, :], resid, out=resid)
        resid /= denom
        np.square(resid, out=resid)
        np.sum(resid, axis=-1, out=rows[chunk])
    return np.where(bad, np.inf, cv)


def _spectral_rss(Y, Qty, mu, Q, grid, d):
    """Residual sums of squares (..., G) of the fits at every grid lambda, from the spectrum.

    Q'Q = diag(mu), so over the columns J with mu > m eps (a smaller mu is
    round-off of a zero) the fit splits into the lambda-0 residual e = y - Q_J (Q'y / mu)_J
    and a shrinkage orthogonal to it:
    rss = ||e||^2 + sum_J (Q'y)^2 / mu * (lambda (1 - mu) / d)^2, a sum of
    nonnegative terms that never forms the (..., G, n) residuals.
    """
    inv_mu = np.divide(1.0, mu, out=np.zeros_like(mu), where=mu > mu.shape[0] * np.finfo(float).eps)
    e = Y - (Qty * inv_mu) @ Q.T
    shrink = grid[:, None] * (1.0 - mu) / d
    return np.sum(e**2, axis=-1)[..., None] + (Qty**2 * inv_mu) @ (shrink**2).T


def _spectral_pen(Qty, DV, d):
    """Penalty sums of squares ||D a||^2 (..., G) at every grid lambda, from the spectrum.

    The columns of DV are orthogonal, so ||D V c||^2 = sum ||DV_j||^2 c_j^2
    with c = Q'y / d. The weights are the column norms, not 1 - mu: on the
    penalty null space 1 - mu is round-off, which would floor the penalty SS
    at large lambda. A sum of nonnegative terms, it also escapes the
    cancellation of forming D a, which near lambda = 1e6 can leave ||D a||^2
    only about 7 correct digits.
    """
    return Qty**2 @ (np.sum(DV**2, axis=0) / d**2).T


def _corner_argmin(v):
    """Row-wise index of the L-curve corner in speed profiles v (..., G).

    On wide grids the speed collapses toward zero on the flat plateaus at
    both ends, so a plain argmin lands on a plateau edge whenever the grid
    overshoots the transition region. A pronounced dip between the two
    transition humps (local minimum at most half the smaller of the maxima
    before and after it) marks the corner, and the lowest such dip takes
    precedence; without one, the global minimum is used.
    """
    before = np.maximum.accumulate(v, axis=-1)[..., :-2]
    after = np.maximum.accumulate(v[..., ::-1], axis=-1)[..., ::-1][..., 2:]
    mid = v[..., 1:-1]
    dip = (mid <= v[..., :-2]) & (mid <= v[..., 2:]) & (mid <= 0.5 * np.minimum(before, after))
    lowest_dip = np.argmin(np.where(dip, mid, np.inf), axis=-1) + 1
    return np.where(dip.any(axis=-1), lowest_dip, np.argmin(v, axis=-1))

