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
from .estimate import (
    _STACK_CENTERS,
    _certify,
    _cholesky_solve,
    _level_weights,
    _solve_design,
    _solve_gated,
    level_weights,
    local_wls,
)
from .model import ReturnSeries, canonical_matrix

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
        mult = tuple(float(c) for c in self.multipliers)
        if not mult or not all(c > 0.0 for c in mult):  # NaN too: it has no sort order
            raise InputError(f"grid multipliers must be positive, got {self.multipliers!r}")
        object.__setattr__(self, "multipliers", tuple(sorted(mult)))

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
    return _cv_semiparametric([series], p, grid)[0]


def _cv_semiparametric(chunk, p: int, grid: BandwidthGrid | None = None) -> list:
    """:func:`cv_bandwidth_semiparametric` of every series of ``chunk`` (equal lengths), stacked.

    Per bandwidth, one local_sums call smooths every member's columns [W | W
    x^2 | W N] as rows of one (R (2 + p), n_t) block.  The bandwidths go in
    groups of at most _STACK_CENTERS centers (all of one T = 500 series, one
    at a time for a chunk of 16), and the (bandwidth, member) pairs of a
    group are scored as one stack under one rcond gate of their (p, p)
    residual designs.  A group whose stack raises (an empty leave-out window,
    a singular design) re-smooths and scores each of its pairs alone, so a
    failure skips only its own pair.  The lowest-index member whose
    bandwidths all fail raises AllSingularError naming its last failure in
    grid order.
    """
    grid = grid or BandwidthGrid()
    chunk[0].require_length(p)
    T = chunk[0].T
    R = len(chunk)
    n_t = T - p
    x_sq = np.stack([s.values for s in chunk]) ** 2
    x2t = x_sq[:, p:]
    # N[r, j - 1] = x^2_{t-j} over t = p+1..T, a view of x_sq.
    N = np.lib.stride_tricks.sliding_window_view(x_sq, n_t, axis=1)[:, p - 1 :: -1]
    W = _level_weights(x_sq, p)
    g = np.empty((R, 2 + p, n_t))
    g[:, 0] = W
    np.multiply(W, x2t, out=g[:, 1])
    np.multiply(W[:, None], N, out=g[:, 2:])
    bs = grid.bandwidths(T)
    nb = bs.shape[0]

    def score(s, rows):
        """Scores and betas of the smoothed sums s (pairs, 2 + p, n_t) of members ``rows``; raises the first failure."""
        empty = np.argwhere(s[:, 0] <= 0.0)
        if empty.size:
            raise SingularMomentError(t=p + 1 + int(empty[0, 1]), rcond=0.0)
        # In place: s[:, 1] becomes y = x^2 - s1 / s3 and s[:, 2:] becomes Z = N - s2 / s3.
        s[:, 1:] /= s[:, :1]
        y = np.subtract(x2t[rows], s[:, 1], out=s[:, 1])
        Z = np.subtract(N[rows], s[:, 2:], out=s[:, 2:])  # (pairs, p, n_t)
        Wl = W[rows]
        WZ = Wl[:, None] * Z
        beta = _solve_design(WZ @ Z.transpose(0, 2, 1), WZ @ y[..., None], "residual design")[..., 0]
        del WZ
        resid = np.subtract(y, np.einsum("rm,rmt->rt", beta, Z), out=y)
        return np.sum(Wl * resid**2, axis=1), beta

    scores = np.full((R, nb), np.inf)
    betas = np.zeros((R, nb, p))
    last = [None] * R  # each member's last failure in grid order
    per = max(1, _STACK_CENTERS // (R * n_t))
    for g0 in range(0, nb, per):
        g1 = min(g0 + per, nb)
        group = range(g0, g1)
        wins = [kernels.leave_out_window(kernels.kernel_window(T, bs[i]), p) for i in group]
        parts = [kernels.local_sums(g.reshape(-1, n_t).T, win).T.reshape(R, 2 + p, n_t) for win in wins]
        s = parts[0] if len(parts) == 1 else np.concatenate(parts)
        del parts
        rows = slice(None) if len(group) == 1 else np.tile(np.arange(R), len(group))  # a slice copies nothing
        try:
            sc, beta = score(s, rows)
        except (SingularMomentError, SingularDesignError):
            del s
            for i, win in zip(group, wins):
                for r in range(R):
                    s = kernels.local_sums(g[r].T, win).T[None]
                    try:
                        scores[r, i : i + 1], betas[r, i : i + 1] = score(s, slice(r, r + 1))
                    except (SingularMomentError, SingularDesignError) as err:
                        last[r] = err
            continue
        scores[:, g0:g1] = sc.reshape(len(group), R).T
        betas[:, g0:g1] = beta.reshape(len(group), R, p).transpose(1, 0, 2)
    out = []
    for r in range(R):
        if not np.any(np.isfinite(scores[r])):
            raise _all_singular("every grid bandwidth failed cross-validation", last[r]) from last[r]
        best = int(np.nanargmin(scores[r]))
        out.append(CvResult(bandwidth=float(bs[best]), bandwidths=bs, scores=scores[r], beta=betas[r, best]))
    return out


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
