"""Semiparametric estimation for time-varying ARCH models.

The constant block beta of a partitioned model is estimated by a partial
regression: kernel-smoothed local moments project the squared process and the
constant-block regressors onto the time-varying block, and weighted least
squares on the residualized quantities yields beta at the parametric rate.
The time-varying block alpha(u) then comes from plugging beta back into the
local moment ratios.  Plug-in variants re-run both steps with weights
1/sigma^4 estimated from a first pass, which attains the optimal asymptotic
variance.

Shapes follow the estimation rows r = 0..T-p-1 for time indices t = p+1..T:
M is (T-p, m), N is (T-p, n), all per-center grids are over the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import (
    DegenerateSeriesError,
    InputError,
    NonPositiveVolatilityError,
    SingularDesignError,
    SingularMomentError,
)
from .model import CoefficientPartition, ReturnSeries, regressor_matrices

__all__ = [
    "UNIT",
    "LEVEL",
    "level_weights",
    "resolve_weights",
    "SmoothedMoments",
    "smoothed_moments",
    "projection_ratios",
    "BetaFit",
    "estimate_beta",
    "fitted_sigma_sq",
    "CovarianceBeta",
    "covariance_beta",
    "AlphaFit",
    "estimate_alpha",
    "alpha_standard_errors",
    "estimate_beta_plugin",
    "estimate_alpha_plugin",
    "SemiparametricFit",
    "fit_semiparametric",
]

UNIT = "unit"
LEVEL = "level"

_RCOND_GATE = 1e-12
_FLOOR_REL = 1e-12


def level_weights(series: ReturnSeries, p: int) -> np.ndarray:
    """Scale-free weights W_t = (v_hat + sum_j x^2_{t-j})^-2 over t = p+1..T."""
    series.require_length(p)
    x_sq = series.values**2
    v_hat = float(x_sq.mean())
    if v_hat <= 0.0:
        raise DegenerateSeriesError("series is identically zero")
    total = np.full(series.T - p, v_hat)
    for j in range(1, p + 1):
        total += x_sq[p - j : series.T - j]
    return total**-2.0


def resolve_weights(series: ReturnSeries, p: int, weights) -> tuple[np.ndarray, str]:
    """Accept a scheme name ('unit' | 'level') or an explicit weight array."""
    if isinstance(weights, str):
        if weights == UNIT:
            return np.ones(series.T - p), UNIT
        if weights == LEVEL:
            return level_weights(series, p), LEVEL
        raise InputError(f"unknown weight scheme {weights!r}")
    W = np.asarray(weights, dtype=float)
    if W.shape != (series.T - p,):
        raise InputError(f"weight array must have length T-p={series.T - p}")
    if not np.all(np.isfinite(W)) or np.any(W <= 0.0):
        raise InputError("weights must be strictly positive and finite")
    return W, "custom"


def _psd_rcond(stack: np.ndarray) -> np.ndarray:
    """Reciprocal condition numbers of a stack of symmetric PSD matrices.

    A matrix with a non-finite entry gets 0, so it fails every gate.
    """
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(-2, -1))
        stack = np.where(finite[..., None, None], stack, 0.0)
    lam = np.linalg.eigvalsh(stack)
    lmin = lam[..., 0]
    lmax = lam[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = np.where(lmax > 0.0, lmin / lmax, 0.0)
    return np.clip(rc, 0.0, None)


def _outer(w: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-row weighted outer products w_i A_i B_i', shape (n, a, b)."""
    return w[:, None, None] * A[:, :, None] * B[:, None, :]


def _local_mean(values: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Kernel-weighted local means along axis 0: local sums over the window's mass."""
    den = kernels.window_counts(values.shape[0], window)
    return kernels.local_sums(values, window) / den.reshape((-1,) + (1,) * (values.ndim - 1))


def _leaveout_sums(full: np.ndarray, per_index: np.ndarray, win: np.ndarray, p: int) -> np.ndarray:
    """Subtract the k = t..t+p window terms from every center's full sums."""
    half = (win.shape[0] - 1) // 2
    out = full.copy()
    for j in range(0, min(p, half) + 1):
        # Weight the center t places on excluded index k = t + j.
        w = win[half - j]
        if w == 0.0:
            continue
        if j == 0:
            out -= w * per_index
        else:
            out[:-j] -= w * per_index[j:]
    return out


def local_wls(
    X: np.ndarray, Y: np.ndarray, W: np.ndarray, window: np.ndarray, leave_out: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local weighted least-squares moments of Y on X at every center.

    Returns ``(gram, cross, rcond)``: gram[r] smooths W_i X_i X_i' (k, k),
    cross[r] smooths W_i X_i Y_i' (k, c), and rcond gates gram.  By default
    the smoother is the kernel-weighted local mean.  With ``leave_out=p`` the
    indices t..t+p are dropped from center t's sums (the leave-(p+1)-out
    cross-validation fit) and the sums stay unnormalized, which changes no
    solution.
    """
    k = X.shape[1]
    g = _outer(W, X, np.concatenate([X, Y], axis=1))
    if leave_out is None:
        s = _local_mean(g, window)
    else:
        s = _leaveout_sums(kernels.local_sums(g, window), g, window, leave_out)
    return s[..., :k], s[..., k:], _psd_rcond(s[..., :k])


def _solve_gated(gram: np.ndarray, rhs: np.ndarray, rcond: np.ndarray, first_t: int) -> np.ndarray:
    """Batched gram^-1 rhs; raises SingularMomentError at the first center failing the gate."""
    bad = rcond < _RCOND_GATE
    if np.any(bad):
        r = int(np.argmax(bad))
        raise SingularMomentError(t=first_t + r, rcond=float(rcond[r]))
    return np.linalg.solve(gram, rhs)


def _local_sandwich(gram: np.ndarray, X: np.ndarray, w_mid: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Per-center sandwich G^-1 S G^-1, S the local mean of w_mid X X'."""
    inv = np.linalg.inv(gram)
    return inv @ _local_mean(_outer(w_mid, X, X), window) @ inv


@dataclass(frozen=True)
class SmoothedMoments:
    """Kernel-smoothed local moments per center t = p+1..T.

    s1[r] estimates E(W M x^2), s2[r] estimates E(W M N'), s3[r] estimates
    E(W M M') at u = t/T; cross holds [s1 | s2]; rcond flags near-singular
    s3 matrices.
    """

    s3: np.ndarray  # (n_t, m, m)
    cross: np.ndarray  # (n_t, m, 1 + n)
    bandwidth: float
    weights_kind: str
    rcond: np.ndarray  # (n_t,)
    first_t: int

    @property
    def s1(self) -> np.ndarray:  # (n_t, m)
        return self.cross[..., 0]

    @property
    def s2(self) -> np.ndarray:  # (n_t, m, n)
        return self.cross[..., 1:]

    @property
    def n_centers(self) -> int:
        return self.s3.shape[0]


def smoothed_moments(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    b: float,
    kernel=kernels.epanechnikov,
) -> SmoothedMoments:
    """All-centers smoothed moments of the regression of [x^2, N] on M."""
    p = partition.p
    M, N = regressor_matrices(series, partition)
    W, kind = resolve_weights(series, p, weights)
    Y = np.concatenate([series.values[p:, None] ** 2, N], axis=1)
    win = kernels.kernel_window(series.T, b, kernel)
    s3, cross, rcond = local_wls(M, Y, W, win)
    return SmoothedMoments(s3=s3, cross=cross, bandwidth=b, weights_kind=kind, rcond=rcond, first_t=p + 1)


def projection_ratios(moments: SmoothedMoments) -> tuple[np.ndarray, np.ndarray]:
    """q1 = s3^-1 s1 and q2 = s3^-1 s2 for every center, from one batched solve."""
    q = _solve_gated(moments.s3, moments.cross, moments.rcond, moments.first_t)
    return q[..., 0], q[..., 1:]


@dataclass(frozen=True)
class BetaFit:
    """Constant-block estimate with the residualized quantities it was built from."""

    beta: np.ndarray  # (n,)
    o_resid: np.ndarray  # (n_t, n): N_t residualized on the M block
    v_resid: np.ndarray  # (n_t,): x_t^2 residualized on the M block
    weights: np.ndarray  # (n_t,)
    weights_kind: str
    q1: np.ndarray  # (n_t, m)
    q2: np.ndarray  # (n_t, m, n)
    x_sq: np.ndarray  # (n_t,)
    gram: np.ndarray  # (n, n): sum_t W_t O_t O_t'
    bandwidth: float
    partition: CoefficientPartition
    rcond_min: float
    nu: float = 0.0


def estimate_beta(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    b: float,
    kernel=kernels.epanechnikov,
) -> BetaFit:
    """Weighted least squares on the residualized regression, eq. of the two-step fit."""
    if partition.n == 0:
        raise InputError("estimate_beta needs a nonempty constant block")
    M, N = regressor_matrices(series, partition)
    moments = smoothed_moments(series, partition, weights, b, kernel)
    q1, q2 = projection_ratios(moments)
    W, kind = resolve_weights(series, partition.p, weights)
    x2t = series.values[partition.p :] ** 2

    v_resid = x2t - np.einsum("tm,tm->t", M, q1)
    o_resid = N - np.einsum("tmn,tm->tn", q2, M)
    gram = np.einsum("t,tm,tn->mn", W, o_resid, o_resid)
    rhs = np.einsum("t,tm,t->m", W, o_resid, v_resid)

    rc = _psd_rcond(gram[None, ...])[0]
    if rc < _RCOND_GATE:
        raise SingularDesignError(f"residual design is singular (rcond={rc:.3e})")
    beta = np.linalg.solve(gram, rhs)

    return BetaFit(
        beta=beta,
        o_resid=o_resid,
        v_resid=v_resid,
        weights=W,
        weights_kind=kind,
        q1=q1,
        q2=q2,
        x_sq=x2t,
        gram=gram,
        bandwidth=b,
        partition=partition,
        rcond_min=float(moments.rcond.min()),
        nu=0.0,
    )


def fitted_sigma_sq(
    series: ReturnSeries,
    partition: CoefficientPartition,
    fit: BetaFit,
    floor_rel: float = _FLOOR_REL,
) -> tuple[np.ndarray, int]:
    """Fitted volatility sigma_t^2 = M_t'(q1 - q2 beta) + N_t'beta, floored.

    Values below floor_rel * mean(x^2) are clipped there; the count of
    floored entries is returned for diagnostics.
    """
    M, N = regressor_matrices(series, partition)
    alpha_like = fit.q1 - np.einsum("tmn,n->tm", fit.q2, fit.beta)
    sig = np.einsum("tm,tm->t", M, alpha_like)
    if partition.n:
        sig = sig + N @ fit.beta
    v_hat = float((series.values**2).mean())
    if v_hat <= 0.0:
        raise DegenerateSeriesError("series is identically zero")
    floor = floor_rel * v_hat
    floored = int(np.sum(sig < floor))
    if floored:
        sig = np.maximum(sig, floor)
    return sig, floored


@dataclass(frozen=True)
class CovarianceBeta:
    sigma1: np.ndarray  # (n, n)
    sigma2: np.ndarray  # (n, n)
    v_hat: np.ndarray  # (n, n): sandwich sigma1^-1 sigma2 sigma1^-1
    se: np.ndarray  # (n,): sqrt(diag(v_hat)/T)


def covariance_beta(series: ReturnSeries, fit: BetaFit, sigma_sq: np.ndarray) -> CovarianceBeta:
    """Sandwich covariance of sqrt(T)(beta_hat - beta) from empirical counterparts."""
    T = series.T
    resid_sq = (fit.x_sq - sigma_sq) ** 2
    sigma1 = fit.gram / T
    sigma2 = np.einsum("t,tm,tn->mn", fit.weights**2 * resid_sq, fit.o_resid, fit.o_resid) / T
    v_hat = np.linalg.solve(sigma1, np.linalg.solve(sigma1, sigma2).T)
    v_hat = 0.5 * (v_hat + v_hat.T)
    se = np.sqrt(np.clip(np.diag(v_hat), 0.0, None) / T)
    return CovarianceBeta(sigma1=sigma1, sigma2=sigma2, v_hat=v_hat, se=se)


@dataclass(frozen=True)
class AlphaFit:
    u: np.ndarray  # (n_t,): grid t/T
    alpha: np.ndarray  # (n_t, m)
    bandwidth: float
    gram: np.ndarray  # (n_t, m, m): smoothed W M M' at the bandwidth


def estimate_alpha(
    series: ReturnSeries,
    partition: CoefficientPartition,
    beta: np.ndarray,
    weights,
    b_prime: float,
    kernel=kernels.epanechnikov,
) -> AlphaFit:
    """Time-varying block on the grid u_t = t/T: alpha_t = q1 - q2 beta."""
    moments = smoothed_moments(series, partition, weights, b_prime, kernel)
    q1, q2 = projection_ratios(moments)
    beta = np.asarray(beta, dtype=float)
    alpha = q1 - np.einsum("tmn,n->tm", q2, beta) if partition.n else q1
    u = np.arange(partition.p + 1, series.T + 1) / series.T
    return AlphaFit(u=u, alpha=alpha, bandwidth=b_prime, gram=moments.s3)


def _var_xi_sq(x_sq: np.ndarray, sigma_sq: np.ndarray) -> float:
    """Sample variance of xi_hat^2 = x^2 / sigma_hat^2."""
    ratio = x_sq / sigma_sq
    return float(np.var(ratio, ddof=1))


def alpha_standard_errors(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    fit: AlphaFit,
    sigma_sq: np.ndarray,
    var_xi_sq: float,
    kernel=kernels.epanechnikov,
) -> np.ndarray:
    """Pointwise standard errors of alpha_hat from its asymptotic variance.

    V(u) = Var(xi^2) ||K||_2^2 E^-1(WMM') E(W^2 sigma^4 MM') E^-1(WMM'),
    with kernel-smoothed empirical counterparts; SE = sqrt(diag(V)/(T b')).
    E(WMM') is the gram ``fit`` was solved with.
    """
    M, _ = regressor_matrices(series, partition)
    W, _ = resolve_weights(series, partition.p, weights)
    win = kernels.kernel_window(series.T, fit.bandwidth, kernel)
    v_u = var_xi_sq * kernels.k_l2_norm_sq(kernel) * _local_sandwich(fit.gram, M, W**2 * sigma_sq**2, win)
    diag = np.clip(np.diagonal(v_u, axis1=1, axis2=2), 0.0, None)
    return np.sqrt(diag / (series.T * fit.bandwidth))


def estimate_beta_plugin(
    series: ReturnSeries,
    partition: CoefficientPartition,
    b: float,
    nu: float = 0.0,
    weights=LEVEL,
    base: BetaFit | None = None,
    kernel=kernels.epanechnikov,
) -> tuple[BetaFit, np.ndarray, int]:
    """Efficiency-improving second pass with weights 1/(sigma_hat^4 + nu).

    Returns the plug-in fit, the realized weights, and the flooring count of
    the first-pass volatility.
    """
    if nu < 0.0:
        raise InputError("nu must be >= 0")
    if base is None:
        base = estimate_beta(series, partition, weights, b, kernel)
    sigma_sq, floored = fitted_sigma_sq(series, partition, base)
    sig4 = sigma_sq**2
    if nu == 0.0 and np.any(sig4 == 0.0):
        raise NonPositiveVolatilityError("fitted volatility vanished with nu=0")
    w_star = 1.0 / (sig4 + nu)
    fit = replace(estimate_beta(series, partition, w_star, b, kernel), nu=float(nu))
    return fit, w_star, floored


# Centers per chunk of the plug-in sweep times the window length: bounds the
# sweep's (centers, m, window) temporaries to a few MB at any T and b'.
_SWEEP_CELLS = 1 << 16


def estimate_alpha_plugin(
    series: ReturnSeries,
    partition: CoefficientPartition,
    beta: np.ndarray,
    b_prime: float,
    alpha_init: np.ndarray,
    var_xi_sq: float,
    mu: float = 0.0,
    kernel=kernels.epanechnikov,
    floor_rel: float = _FLOOR_REL,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Plug-in time-varying block with per-center weights 1/(sigma_{t,i}^4 + mu).

    sigma_{t,i}^2 = M_i'alpha_t + N_i'beta couples the window index i to the
    center t, so this pass cannot be written as one convolution.  Instead a
    sliding-window sweep gathers each center's window rows, a chunk of
    centers at a time, and solves the local moments of every center in the
    chunk at once.  Volatilities with |sigma_{t,i}^2| below floor_rel *
    mean(x^2) are counted; with mu = 0 their sigma^4 is floored there.
    Standard errors use the optimal asymptotic variance
    Var(xi^2) ||K||_2^2 E^-1(MM'/sigma^4) / (T b').

    Returns alpha (n_t, m), its standard errors (n_t, m) and the floored count.
    """
    if mu < 0.0:
        raise InputError("mu must be >= 0")
    p = partition.p
    M, N = regressor_matrices(series, partition)
    beta = np.asarray(beta, dtype=float)
    x2t = series.values[p:] ** 2
    n_t, m = M.shape
    win = kernels.kernel_window(series.T, b_prime, kernel)
    half = (win.shape[0] - 1) // 2

    n_beta = N @ beta if partition.n else np.zeros(n_t)
    floor = floor_rel * float((series.values**2).mean())
    se_scale = var_xi_sq * kernels.k_l2_norm_sq(kernel) / (series.T * b_prime)

    # Window views (m + 3, n_t, 2*half+1) of the rows [M', N'beta, x^2 - N'beta, 1]:
    # entry [:, r, j] is index r - half + j, zero off range, so the last row
    # marks the in-range indices.
    cols = np.vstack([M.T, n_beta, x2t - n_beta, np.ones(n_t)])
    padded = np.pad(cols, [(0, 0), (half, half)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, win.shape[0], axis=1)
    eye = np.broadcast_to(np.eye(m), (n_t, m, m))

    alpha_star = np.empty((n_t, m))
    se = np.empty((n_t, m))
    floored = 0
    chunk = max(1, _SWEEP_CELLS // win.shape[0])
    for lo in range(0, n_t, chunk):
        rows = slice(lo, min(lo + chunk, n_t))
        Mc, nb, y, inside = windows[:m, rows], windows[m, rows], windows[m + 1, rows], windows[m + 2, rows]
        sig2 = np.einsum("mcl,cm->cl", Mc, alpha_init[rows]) + nb
        floored += int(np.count_nonzero((inside > 0.0) & (np.abs(sig2) < floor)))
        sig4 = np.maximum(sig2 * sig2, floor * floor) if mu == 0.0 else sig2 * sig2
        kw = win * inside
        w = kw / (sig4 + mu) / kw.sum(axis=1, keepdims=True)
        A = Mc.transpose(1, 0, 2) * w[:, None, :]
        s3 = A @ Mc.transpose(1, 2, 0)
        rhs = A @ y[..., None]
        # One gated solve yields alpha and the inverse behind its standard errors.
        sol = _solve_gated(s3, np.concatenate([rhs, eye[rows]], axis=2), _psd_rcond(s3), p + 1 + lo)
        alpha_star[rows] = sol[..., 0]
        se[rows] = np.sqrt(np.clip(np.diagonal(sol[..., 1:], axis1=1, axis2=2), 0.0, None) * se_scale)
    return alpha_star, se, floored


@dataclass(frozen=True)
class SemiparametricFit:
    """Complete two-step fit: beta, its covariance, and the alpha grid."""

    partition: CoefficientPartition
    beta: np.ndarray
    beta_se: np.ndarray
    beta_cov: np.ndarray
    u: np.ndarray
    alpha: np.ndarray  # (n_t, m)
    alpha_se: np.ndarray  # (n_t, m)
    sigma_sq: np.ndarray  # (n_t,)
    bandwidth: float
    bandwidth_prime: float
    plugin: bool
    weights_kind: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "partition": {
                "p": self.partition.p,
                "varying": list(self.partition.varying),
                "constant": list(self.partition.constant),
            },
            "beta": [float(v) for v in self.beta],
            "beta_se": [float(v) for v in self.beta_se],
            "beta_cov": [[float(v) for v in row] for row in self.beta_cov],
            "alpha": [
                {
                    "u": float(self.u[r]),
                    "value": [float(v) for v in self.alpha[r]],
                    "se": [float(v) for v in self.alpha_se[r]],
                }
                for r in range(self.u.shape[0])
            ],
            "sigma_sq": [float(v) for v in self.sigma_sq],
            "bandwidths": {"b": self.bandwidth, "b_prime": self.bandwidth_prime},
            "plugin": self.plugin,
            "weights": self.weights_kind,
            "diagnostics": self.diagnostics,
        }


def fit_semiparametric(
    series: ReturnSeries,
    partition: CoefficientPartition,
    b: float,
    b_prime: float | None = None,
    weights=LEVEL,
    plugin: bool = False,
    nu: float = 0.0,
    mu: float = 0.0,
    kernel=kernels.epanechnikov,
) -> SemiparametricFit:
    """One-stop semiparametric fit (optionally the plug-in efficient variant)."""
    if b_prime is None:
        b_prime = b
    M, N = regressor_matrices(series, partition)
    base = estimate_beta(series, partition, weights, b, kernel)
    floored_beta = 0

    if plugin:
        fit, w_star, floored_beta = estimate_beta_plugin(
            series, partition, b, nu=nu, weights=weights, base=base, kernel=kernel
        )
    else:
        fit = base

    alpha0 = estimate_alpha(series, partition, fit.beta, weights, b_prime, kernel)
    sigma_final = np.einsum("tm,tm->t", M, alpha0.alpha)
    if partition.n:
        sigma_final = sigma_final + N @ fit.beta
    v_hat = float((series.values**2).mean())
    floor = _FLOOR_REL * v_hat
    floored_alpha = int(np.sum(sigma_final < floor))
    sigma_final = np.maximum(sigma_final, floor)
    var_xi = _var_xi_sq(fit.x_sq, sigma_final)

    if plugin:
        alpha, alpha_se, floored_mu = estimate_alpha_plugin(
            series,
            partition,
            fit.beta,
            b_prime,
            alpha_init=alpha0.alpha,
            mu=mu,
            var_xi_sq=var_xi,
            kernel=kernel,
        )
        sigma_final = np.einsum("tm,tm->t", M, alpha)
        if partition.n:
            sigma_final = sigma_final + N @ fit.beta
        sigma_final = np.maximum(sigma_final, floor)
    else:
        alpha = alpha0.alpha
        alpha_se = alpha_standard_errors(series, partition, weights, alpha0, sigma_final, var_xi, kernel)
        floored_mu = 0

    sigma_for_cov, floored_cov = fitted_sigma_sq(series, partition, fit)
    cov = covariance_beta(series, fit, sigma_for_cov)

    return SemiparametricFit(
        partition=partition,
        beta=fit.beta,
        beta_se=cov.se,
        beta_cov=cov.v_hat,
        u=alpha0.u,
        alpha=alpha,
        alpha_se=alpha_se,
        sigma_sq=sigma_final,
        bandwidth=b,
        bandwidth_prime=b_prime,
        plugin=plugin,
        weights_kind=base.weights_kind,
        diagnostics={
            "rcond_min": fit.rcond_min,
            "floored_sigma": floored_beta + floored_alpha + floored_cov,
            "floored_plugin_windows": floored_mu,
            "var_xi_sq": var_xi,
            "nu": nu,
            "mu": mu,
            "initial_beta": [float(v) for v in base.beta],
        },
    )
