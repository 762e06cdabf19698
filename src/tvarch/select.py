"""Data-driven tuning: cross-validated bandwidths and the lag-order criterion.

Both cross-validation objectives are leave-(p+1)-out: predicting x_t^2
excludes the contemporaneous index t and the p indices t+1..t+p whose
regressors contain x_t^2, so the held-out point never scores itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import AllSingularError, InputError, SingularDesignError, SingularMomentError
from .estimate import _certify, _cholesky_solve, _solve_design, _solve_gated, level_weights, local_wls
from .model import CoefficientPartition, ReturnSeries, canonical_matrix, regressor_matrices

__all__ = [
    "BandwidthGrid",
    "CvResult",
    "cv_bandwidth_tvarch",
    "cv_bandwidth_semiparametric",
    "OrderSelection",
    "select_lag_order",
]

@dataclass(frozen=True)
class BandwidthGrid:
    """Candidate bandwidths multiplier * T^(-1/3), clipped to (0, 1]."""

    multipliers: tuple = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

    def __post_init__(self):
        mult = tuple(sorted(float(c) for c in self.multipliers))
        if not mult or mult[0] <= 0.0:
            raise InputError("grid multipliers must be positive")
        object.__setattr__(self, "multipliers", mult)

    def bandwidths(self, T: int) -> np.ndarray:
        base = T ** (-1.0 / 3.0)
        return np.minimum(np.asarray(self.multipliers) * base, 1.0)


@dataclass(frozen=True)
class CvResult:
    bandwidth: float
    bandwidths: np.ndarray
    scores: np.ndarray
    beta: np.ndarray | None = None


def _all_singular(what: str, last: Exception | None) -> AllSingularError:
    """AllSingularError for ``what``, naming the last singularity caught (center and rcond)."""
    return AllSingularError(what if last is None else f"{what}; last: {last}")


def _cv_score_tvarch(series, X, W, x2t, b, p) -> float:
    win = kernels.kernel_window(series.T, b)
    gram, cross = local_wls(X, x2t[:, None], W, win, leave_out=p)
    a_loo = _solve_gated(gram, cross, p + 1)[..., 0]
    resid = x2t - np.einsum("tk,tk->t", X, a_loo)
    return float(np.sum(W * resid**2))


def cv_bandwidth_tvarch(
    series: ReturnSeries,
    p: int,
    grid: BandwidthGrid | None = None,
) -> CvResult:
    """Leave-(p+1)-out cross-validation for the fully nonparametric fit, level-weighted."""
    series.require_length(p)
    grid = grid or BandwidthGrid()
    X = canonical_matrix(series, p)
    W = level_weights(series, p)
    x2t = series.values[p:] ** 2
    bs = grid.bandwidths(series.T)
    scores = np.full(bs.shape[0], np.inf)
    last = None
    for i, b in enumerate(bs):
        try:
            scores[i] = _cv_score_tvarch(series, X, W, x2t, b, p)
        except SingularMomentError as err:
            last = err
    if not np.any(np.isfinite(scores)):
        raise _all_singular("every grid bandwidth failed cross-validation", last) from last
    best = int(np.nanargmin(scores))
    return CvResult(bandwidth=float(bs[best]), bandwidths=bs, scores=scores)


def cv_bandwidth_semiparametric(
    series: ReturnSeries,
    p: int,
    grid: BandwidthGrid | None = None,
) -> CvResult:
    """Joint (beta, b) cross-validation for the constant-lags model.

    The partition is fixed to a time-varying intercept with constant lags;
    for each b the inner beta-minimizer is the closed-form WLS solution and
    the outer minimization runs over the grid.
    """
    if p < 1:
        raise InputError("semiparametric cross-validation needs p >= 1")
    series.require_length(p)
    grid = grid or BandwidthGrid()
    partition = CoefficientPartition.semiparametric(p)
    _, N = regressor_matrices(series, partition)
    W = level_weights(series, p)
    x2t = series.values[p:] ** 2
    bs = grid.bandwidths(series.T)

    # The smoothed columns [W | W x^2 | W N], as rows of one (2 + n, n_t) block.
    g = np.concatenate([W[None, :], (W * x2t)[None, :], W * N.T])

    scores = np.full(bs.shape[0], np.inf)
    betas = [None] * bs.shape[0]
    last = None
    for i, b in enumerate(bs):
        s = kernels.local_sums(g.T, kernels.leave_out_window(kernels.kernel_window(series.T, b), p))
        s3, s1, s2 = s[:, 0], s[:, 1], s[:, 2:]
        empty = s3 <= 0.0
        if np.any(empty):
            last = SingularMomentError(t=p + 1 + int(np.argmax(empty)), rcond=0.0)
            continue
        y = x2t - s1 / s3
        Z = N - s2 / s3[:, None]
        gram = np.einsum("t,tm,tn->mn", W, Z, Z)
        try:
            beta = _solve_design(gram, np.einsum("t,tm,t->m", W, Z, y), "residual design")
        except SingularDesignError as err:
            last = err
            continue
        resid = y - Z @ beta
        scores[i] = float(np.sum(W * resid**2))
        betas[i] = beta
    if not np.any(np.isfinite(scores)):
        raise _all_singular("every grid bandwidth failed cross-validation", last) from last
    best = int(np.nanargmin(scores))
    return CvResult(bandwidth=float(bs[best]), bandwidths=bs, scores=scores, beta=betas[best])


@dataclass(frozen=True)
class OrderSelection:
    p_hat: int
    criteria: np.ndarray  # C(p) for p = 0..q_max
    rss: np.ndarray
    bandwidth: float
    zeta: float
    q_max: int


def select_lag_order(
    series: ReturnSeries,
    q_max: int = 10,
    grid: BandwidthGrid | None = None,
) -> OrderSelection:
    """Information criterion C(p) = log(weighted RSS) + zeta_T (p+1).

    The bandwidth comes from cross-validation at the maximal order, the
    weights are the level weights with q_max lags for every candidate, and
    zeta_T = log(log T) / (T b).  All candidate fits run over the common rows
    t = q_max+1..T so their residual sums are comparable.
    """
    if q_max < 0:
        raise InputError("q_max must be >= 0")
    series.require_length(q_max)
    T = series.T
    cv = cv_bandwidth_tvarch(series, q_max, grid=grid)
    b = cv.bandwidth
    zeta = float(np.log(np.log(T)) / (T * b))

    Wq = level_weights(series, q_max)
    x2t = series.values[q_max:] ** 2
    win = kernels.kernel_window(T, b)
    # Every candidate's design is a leading column block of the q_max design
    # over the same rows, weights and window: smooth once, slice per order.
    X = canonical_matrix(series, q_max)
    gram, cross = local_wls(X, x2t[:, None], Wq, win)
    # A certified Gram certifies every leading block (tr G_kk <= tr G and
    # tr G_kk^-1 <= tr G^-1), and their factors are leading blocks of its
    # factor: one certificate serves every order.  Otherwise each order takes
    # the eigenvalue gate on its own.
    factor = _certify(gram)
    rss = np.empty(q_max + 1)
    last = None
    for p in range(q_max + 1):
        k = p + 1
        try:
            if factor is None:
                a_fit = _solve_gated(gram[:, :k, :k], cross[:, :k], q_max + 1)[..., 0]
            else:
                a_fit = _cholesky_solve(factor[:k, :k], cross[:, :k])[..., 0]
        except SingularMomentError as err:
            rss[p] = np.inf
            last = err
            continue
        resid = x2t - np.einsum("tk,tk->t", X[:, :k], a_fit)
        rss[p] = float(np.sum(Wq * resid**2))

    if not np.any(np.isfinite(rss)):
        raise _all_singular("every candidate order failed", last) from last
    criteria = np.log(rss) + zeta * (np.arange(q_max + 1) + 1.0)
    p_hat = int(np.nanargmin(criteria))
    return OrderSelection(
        p_hat=p_hat, criteria=criteria, rss=rss, bandwidth=b, zeta=zeta, q_max=q_max
    )
