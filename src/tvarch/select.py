"""Data-driven tuning: cross-validated bandwidths and the lag-order criterion.

Both cross-validation objectives are leave-(p+1)-out: predicting x_t^2
excludes the contemporaneous index t and the p indices t+1..t+p whose
regressors contain x_t^2, so the held-out point never scores itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import AllSingularError, InputError, SingularMomentError
from .estimate import _RCOND_GATE, LEVEL, _leaveout_sums, _psd_rcond, _solve_gated, local_wls, resolve_weights
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


def _cv_score_tvarch(series, X, W, x2t, b, p, kernel) -> float:
    win = kernels.kernel_window(series.T, b, kernel)
    gram, cross, rcond = local_wls(X, x2t[:, None], W, win, leave_out=p)
    try:
        a_loo = _solve_gated(gram, cross, rcond, p + 1)[..., 0]
    except SingularMomentError:
        return np.inf
    resid = x2t - np.einsum("tk,tk->t", X, a_loo)
    return float(np.sum(W * resid**2))


def cv_bandwidth_tvarch(
    series: ReturnSeries,
    p: int,
    grid: BandwidthGrid | None = None,
    weights=LEVEL,
    kernel=kernels.epanechnikov,
) -> CvResult:
    """Leave-(p+1)-out cross-validation for the fully nonparametric fit."""
    series.require_length(p)
    grid = grid or BandwidthGrid()
    X = canonical_matrix(series, p)
    W, _ = resolve_weights(series, p, weights)
    x2t = series.values[p:] ** 2
    bs = grid.bandwidths(series.T)
    scores = np.array([_cv_score_tvarch(series, X, W, x2t, b, p, kernel) for b in bs])
    if not np.any(np.isfinite(scores)):
        raise AllSingularError("every grid bandwidth failed cross-validation")
    best = int(np.nanargmin(scores))
    return CvResult(bandwidth=float(bs[best]), bandwidths=bs, scores=scores)


def cv_bandwidth_semiparametric(
    series: ReturnSeries,
    p: int,
    grid: BandwidthGrid | None = None,
    kernel=kernels.epanechnikov,
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
    W, _ = resolve_weights(series, p, LEVEL)
    x2t = series.values[p:] ** 2
    bs = grid.bandwidths(series.T)

    scores = np.full(bs.shape[0], np.inf)
    betas = [None] * bs.shape[0]
    for i, b in enumerate(bs):
        win = kernels.kernel_window(series.T, b, kernel)
        s3 = _leaveout_sums(kernels.local_sums(W, win), W, win, p)
        s1 = _leaveout_sums(kernels.local_sums(W * x2t, win), W * x2t, win, p)
        g2 = W[:, None] * N
        s2 = _leaveout_sums(kernels.local_sums(g2, win), g2, win, p)
        if np.any(s3 <= 0.0):
            continue
        y = x2t - s1 / s3
        Z = N - s2 / s3[:, None]
        gram = np.einsum("t,tm,tn->mn", W, Z, Z)
        if _psd_rcond(gram[None, ...])[0] < _RCOND_GATE:
            continue
        beta = np.linalg.solve(gram, np.einsum("t,tm,t->m", W, Z, y))
        resid = y - Z @ beta
        scores[i] = float(np.sum(W * resid**2))
        betas[i] = beta
    if not np.any(np.isfinite(scores)):
        raise AllSingularError("every grid bandwidth failed cross-validation")
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
    kernel=kernels.epanechnikov,
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
    cv = cv_bandwidth_tvarch(series, q_max, grid=grid, kernel=kernel)
    b = cv.bandwidth
    zeta = float(np.log(np.log(T)) / (T * b))

    Wq, _ = resolve_weights(series, q_max, LEVEL)
    x2t = series.values[q_max:] ** 2
    win = kernels.kernel_window(T, b, kernel)
    # Every candidate's design is a leading column block of the q_max design
    # over the same rows, weights and window: smooth once, slice per order.
    X = canonical_matrix(series, q_max)
    gram, cross, rcond = local_wls(X, x2t[:, None], Wq, win)
    rconds = [_psd_rcond(gram[:, :k, :k]) for k in range(1, q_max + 1)] + [rcond]
    rss = np.empty(q_max + 1)
    for p in range(q_max + 1):
        k = p + 1
        try:
            a_fit = _solve_gated(gram[:, :k, :k], cross[:, :k], rconds[p], q_max + 1)[..., 0]
        except SingularMomentError:
            rss[p] = np.inf
            continue
        resid = x2t - np.einsum("tk,tk->t", X[:, :k], a_fit)
        rss[p] = float(np.sum(Wq * resid**2))

    if not np.any(np.isfinite(rss)):
        raise AllSingularError("every candidate order failed")
    criteria = np.log(rss) + zeta * (np.arange(q_max + 1) + 1.0)
    p_hat = int(np.nanargmin(criteria))
    return OrderSelection(
        p_hat=p_hat, criteria=criteria, rss=rss, bandwidth=b, zeta=zeta, q_max=q_max
    )
