"""Hypothesis tests: coefficient constancy, zero coefficients, second-order dynamics.

All three statistics are asymptotically pivotal, so critical values are
simulated: draw B samples of T i.i.d. standard Gaussians, run the identical
statistic pipeline on each (bandwidth fixed in advance, never re-selected),
and read quantiles off the replicate sample.  Observed p-values use the
standard Monte-Carlo convention (1 + #{replicates >= observed}) / (B + 1).
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.stats

from . import kernels
from .errors import (
    DegenerateSeriesError,
    InputError,
    NumericalError,
    SingularCovarianceError,
    SingularDesignError,
)
from .estimate import (
    _RCOND_GATE,
    LEVEL,
    _local_sandwich,
    _psd_rcond,
    _solve_gated,
    covariance_beta,
    estimate_beta,
    fitted_sigma_sq,
    local_wls,
    resolve_weights,
)
from .model import CoefficientPartition, ReturnSeries, canonical_matrix
from .simulate import derive_seed, generator

__all__ = [
    "NonparametricFit",
    "nonparametric_fit",
    "ConstancyStatistic",
    "constancy_statistic",
    "SecondOrderStatistic",
    "second_order_statistic",
    "McCalibration",
    "mc_pivotal_quantiles",
    "mc_quantile",
    "mc_p_value",
    "TestReport",
    "test_constancy",
    "test_zero_wald",
    "test_second_order",
    "asymptotic_psi_quantile",
]

@dataclass(frozen=True)
class NonparametricFit:
    """Full kernel estimate of all p+1 coefficients on the grid u_t = t/T."""

    u: np.ndarray  # (n_t,)
    a_tilde: np.ndarray  # (n_t, p+1), canonical coefficient order
    gram: np.ndarray  # (n_t, p+1, p+1): smoothed W X X' (kappa_u estimates)
    rcond: np.ndarray  # (n_t,)
    bandwidth: float


def nonparametric_fit(
    series: ReturnSeries, p: int, weights, b: float, kernel=kernels.epanechnikov
) -> NonparametricFit:
    """Local weighted least squares fit of the full coefficient vector."""
    series.require_length(p)
    X = canonical_matrix(series, p)
    W, _ = resolve_weights(series, p, weights)
    win = kernels.kernel_window(series.T, b, kernel)
    gram, cross, rcond = local_wls(X, series.values[p:, None] ** 2, W, win)
    a_tilde = _solve_gated(gram, cross, rcond, p + 1)[..., 0]
    u = np.arange(p + 1, series.T + 1) / series.T
    return NonparametricFit(u=u, a_tilde=a_tilde, gram=gram, rcond=rcond, bandwidth=b)


def _gamma_sqrt(gamma: np.ndarray) -> np.ndarray:
    lam, U = np.linalg.eigh(gamma)
    if lam.min() <= 0.0:
        raise InputError("gamma must be positive definite")
    return U @ np.diag(np.sqrt(lam)) @ U.T


@dataclass(frozen=True)
class ConstancyStatistic:
    s_t: float
    varpi1: float
    varpi2: float
    e_t: float
    beta_hat: np.ndarray
    beta_tilde: np.ndarray  # (n_t, n)
    u: np.ndarray


def constancy_statistic(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    b: float,
    gamma=None,
    kernel=kernels.epanechnikov,
) -> ConstancyStatistic:
    """L2 distance statistic between the full kernel fit and the constant fit.

    Computes S_T, the empirical bias/variance functionals, and the pivotal
    standardization E_T.  ``gamma`` can be None (identity), a constant
    positive definite n x n matrix, or the experimental string
    "fit-variance" (per-center inverse of the estimated fit variance).
    """
    if partition.n == 0:
        raise InputError("constancy test needs a nonempty constant block")
    p = partition.p
    T = series.T
    const_idx = np.asarray(partition.constant, dtype=int)

    npfit = nonparametric_fit(series, p, weights, b, kernel)
    bfit = estimate_beta(series, partition, weights, b, kernel)

    beta_tilde = npfit.a_tilde[:, const_idx]
    diff = beta_tilde - bfit.beta[None, :]

    # Empirical counterpart of the fit covariance kernel O(u).
    X = canonical_matrix(series, p)
    W, _ = resolve_weights(series, p, weights)
    x2t = series.values[p:] ** 2
    sig_tilde = np.einsum("tk,tk->t", X, npfit.a_tilde)
    win = kernels.kernel_window(T, b, kernel)
    o_hat = _local_sandwich(npfit.gram, X, W**2 * (x2t - sig_tilde) ** 2, win)
    o_cc = o_hat[:, const_idx, :][:, :, const_idx]

    if gamma is None:
        g_mat = o_cc
        quad = np.einsum("tn,tn->t", diff, diff)
    elif isinstance(gamma, str) and gamma == "fit-variance":
        # Experimental: per-center inverse of the estimated variance kernel.
        gam = np.linalg.pinv(o_cc)
        quad = np.einsum("tn,tnk,tk->t", diff, gam, diff)
        half = _batch_sqrt(gam)
        g_mat = half @ o_cc @ half
    else:
        gam = np.asarray(gamma, dtype=float)
        if gam.shape != (partition.n, partition.n):
            raise InputError(f"gamma must be {partition.n}x{partition.n}")
        half = _gamma_sqrt(gam)
        quad = np.einsum("tn,nk,tk->t", diff, gam, diff)
        g_mat = half[None, :, :] @ o_cc @ half[None, :, :]

    s_t = float(quad.sum() / T)
    varpi1 = float(np.trace(g_mat, axis1=1, axis2=2).sum() / T)
    varpi2 = float((g_mat * g_mat.transpose(0, 2, 1)).sum() / T)
    if varpi2 <= 0.0:
        raise DegenerateSeriesError("variance functional of the constancy statistic vanished")

    k2 = kernels.k_l2_norm_sq(kernel)
    kstar = np.sqrt(kernels.k_star_l2_norm_sq(kernel))
    e_t = T * np.sqrt(b) * (s_t - k2 * varpi1 / (T * b)) / (2.0 * kstar * np.sqrt(varpi2))
    return ConstancyStatistic(
        s_t=s_t,
        varpi1=varpi1,
        varpi2=varpi2,
        e_t=float(e_t),
        beta_hat=bfit.beta,
        beta_tilde=beta_tilde,
        u=npfit.u,
    )


def _batch_sqrt(stack: np.ndarray) -> np.ndarray:
    lam, U = np.linalg.eigh(stack)
    lam = np.clip(lam, 0.0, None)
    return U @ (np.sqrt(lam)[..., None] * U.transpose(0, 2, 1))


def _wald_statistic(series, partition, weights, b, kernel):
    fit = estimate_beta(series, partition, weights, b, kernel)
    sigma_sq, _ = fitted_sigma_sq(series, partition, fit)
    cov = covariance_beta(series, fit, sigma_sq)
    lam, U = np.linalg.eigh(cov.v_hat)
    if lam.max() <= 0.0 or lam.min() / lam.max() < _RCOND_GATE:
        raise SingularCovarianceError(f"estimated covariance is singular (eigs {lam})")
    v_inv_half = U @ np.diag(lam**-0.5) @ U.T
    z = v_inv_half @ fit.beta
    return float(series.T * (z @ z)), cov, fit


@dataclass(frozen=True)
class SecondOrderStatistic:
    a_hat: np.ndarray  # (p,): truncatable lag estimates
    psi: float
    sigma_sq_hat: float  # variance-drift correction factor
    d_hat: np.ndarray  # (T,): smoothed squares


def second_order_statistic(
    series: ReturnSeries, p: int, b: float, kernel=kernels.epanechnikov
) -> SecondOrderStatistic:
    """Truncated least squares statistic for the second-order dynamic.

    Centers the squared process at the kernel-smoothed level d_hat, regresses
    the centered squares on their own lags, and standardizes the truncated
    sum of squares by the variance-drift correction factor.
    """
    if p < 1:
        raise InputError("second-order test needs p >= 1")
    series.require_length(p)
    T = series.T
    x_sq = series.values**2

    # d_hat over all centers 1..T, averaging the in-range indices i >= p+1.
    win = kernels.kernel_window(T, b, kernel)
    mask = np.ones(T)
    mask[:p] = 0.0
    den = kernels.local_sums(mask, win)
    if np.any(den <= 0.0):
        raise SingularDesignError("kernel window misses the estimation range; enlarge b")
    d_hat = kernels.local_sums(x_sq * mask, win) / den

    h_resid = x_sq - d_hat
    y = h_resid[p:]
    X = np.column_stack([h_resid[p - j : T - j] for j in range(1, p + 1)])
    gram = X.T @ X
    rc = _psd_rcond(gram[None, ...])[0]
    if rc < _RCOND_GATE:
        raise SingularDesignError(f"lag design singular (rcond={rc:.3e})")
    a_hat = np.linalg.solve(gram, X.T @ y)

    denom = float((d_hat**2).sum())
    if denom <= 0.0:
        raise DegenerateSeriesError("smoothed squares are identically zero")
    sigma_sq_hat = float(T * (d_hat**4).sum() / denom**2)
    psi = float(T * np.sum(np.maximum(a_hat, 0.0) ** 2) / sigma_sq_hat)
    return SecondOrderStatistic(a_hat=a_hat, psi=psi, sigma_sq_hat=sigma_sq_hat, d_hat=d_hat)


# ---------------------------------------------------------------------------
# Monte-Carlo calibration.


def _pivotal_statistic(name, series, p, partition, weights, b, gamma, kernel) -> float:
    if name == "constancy":
        return constancy_statistic(series, partition, weights, b, gamma, kernel).e_t
    if name == "wald-zero":
        return _wald_statistic(series, partition, weights, b, kernel)[0]
    if name == "second-order":
        return second_order_statistic(series, p, b, kernel).psi
    raise InputError(f"unknown pivotal statistic {name!r}")


def _map_ordered(fn, n: int, workers: int) -> list:
    """[fn(0), ..., fn(n-1)], on a pool of ``workers`` threads when workers > 1.

    Results keep index order, so the output does not depend on ``workers``.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(r) for r in range(n)]


def mc_quantile(sorted_sample: np.ndarray, alpha: float) -> float:
    """Order-(1-alpha) Monte-Carlo quantile, consistent with the p-value rule."""
    B = sorted_sample.shape[0]
    c = int(np.floor(alpha * (B + 1)))
    if c < 1:
        return float("inf")
    k = B - c + 1
    if k < 1:
        return float("-inf")
    return float(sorted_sample[k - 1])


def mc_p_value(sample: np.ndarray, observed: float) -> float:
    B = sample.shape[0]
    return float((1 + np.sum(sample >= observed)) / (B + 1))


@dataclass(frozen=True)
class McCalibration:
    statistic: str
    sample: np.ndarray  # sorted ascending
    quantiles: dict
    B: int
    seed: int
    retried: int

    def p_value(self, observed: float) -> float:
        return mc_p_value(self.sample, observed)


def mc_pivotal_quantiles(
    T: int,
    p: int,
    partition: CoefficientPartition | None,
    weights_kind: str,
    b: float,
    B: int,
    levels,
    seed: int,
    statistic: str,
    gamma=None,
    kernel=kernels.epanechnikov,
    workers: int = 1,
    max_retries: int = 5,
) -> McCalibration:
    """Simulate the null distribution of a pivotal statistic.

    Each replicate draws T i.i.d. standard Gaussians and runs the full
    statistic pipeline at the pre-selected bandwidth.  Replicates hitting a
    numerical degeneracy are redrawn (up to ``max_retries``) so the quantile
    sample size stays exactly B.
    """
    if B < 100:
        raise InputError("Monte-Carlo calibration needs B >= 100")
    if not isinstance(weights_kind, str):
        raise InputError("replicates need a weight scheme name, not a realized array")
    retried = 0

    def one(r: int) -> tuple[float, int]:
        for attempt in range(max_retries):
            s = derive_seed(seed, r, attempt)
            series = ReturnSeries(generator(s).standard_normal(T))
            try:
                return _pivotal_statistic(statistic, series, p, partition, weights_kind, b, gamma, kernel), attempt
            except NumericalError:
                continue
        raise NumericalError(f"MC replicate {r} failed after {max_retries} redraws")

    results = _map_ordered(one, B, workers)
    values = np.array([v for v, _ in results])
    retried = int(sum(a for _, a in results))
    sample = np.sort(values)
    quantiles = {float(lvl): mc_quantile(sample, float(lvl)) for lvl in levels}
    return McCalibration(
        statistic=statistic, sample=sample, quantiles=quantiles, B=B, seed=seed, retried=retried
    )


# ---------------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class TestReport:
    name: str
    statistic: float
    pivotal: bool
    mc_quantiles: dict
    p_value: float
    B: int
    seed: int
    bandwidth: float
    decision: dict
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "pivotal": self.pivotal,
            "mc_quantiles": {f"{lvl:g}": q for lvl, q in self.mc_quantiles.items()},
            "p_value": self.p_value,
            "B": self.B,
            "seed": self.seed,
            "bandwidth": self.bandwidth,
            "decision": {f"{lvl:g}": d for lvl, d in self.decision.items()},
            "extra": self.extra,
        }


def _decisions(stat: float, quantiles: dict) -> dict:
    return {lvl: ("reject" if stat > q else "accept") for lvl, q in quantiles.items()}


def test_constancy(
    series: ReturnSeries,
    partition: CoefficientPartition,
    b: float,
    B: int = 2000,
    levels=(0.05, 0.10),
    seed: int = 0,
    weights: str = LEVEL,
    gamma=None,
    kernel=kernels.epanechnikov,
    workers: int = 1,
) -> TestReport:
    """Test that the constant-block coefficients are non time-varying."""
    stat = constancy_statistic(series, partition, weights, b, gamma, kernel)
    cal = mc_pivotal_quantiles(
        series.T, partition.p, partition, weights, b, B, levels, seed, "constancy", gamma, kernel, workers
    )
    return TestReport(
        name=f"constancy(constant={list(partition.constant)})",
        statistic=stat.e_t,
        pivotal=True,
        mc_quantiles=cal.quantiles,
        p_value=cal.p_value(stat.e_t),
        B=B,
        seed=seed,
        bandwidth=b,
        decision=_decisions(stat.e_t, cal.quantiles),
        extra={
            "s_t": stat.s_t,
            "varpi1": stat.varpi1,
            "varpi2": stat.varpi2,
            "beta_hat": [float(v) for v in stat.beta_hat],
            "mc_retried": cal.retried,
        },
    )


def test_zero_wald(
    series: ReturnSeries,
    partition: CoefficientPartition,
    b: float,
    B: int = 2000,
    levels=(0.05, 0.10),
    seed: int = 0,
    weights: str = LEVEL,
    kernel=kernels.epanechnikov,
    workers: int = 1,
) -> TestReport:
    """Wald test of H0: constant block equals zero, Monte-Carlo calibrated."""
    stat, cov, fit = _wald_statistic(series, partition, weights, b, kernel)
    cal = mc_pivotal_quantiles(
        series.T, partition.p, partition, weights, b, B, levels, seed, "wald-zero", None, kernel, workers
    )
    n = partition.n
    return TestReport(
        name=f"zero-wald(constant={list(partition.constant)})",
        statistic=stat,
        pivotal=True,
        mc_quantiles=cal.quantiles,
        p_value=cal.p_value(stat),
        B=B,
        seed=seed,
        bandwidth=b,
        decision=_decisions(stat, cal.quantiles),
        extra={
            "beta_hat": [float(v) for v in fit.beta],
            "beta_se": [float(v) for v in cov.se],
            "chi2_p_value": float(scipy.stats.chi2.sf(stat, df=n)),
            "df": n,
            "mc_retried": cal.retried,
        },
    )


def _psi_upper_tail(p: int, c: float) -> float:
    """P(Psi >= c) for the limit Psi = sum_j max(Z_j, 0)^2 of p Gaussians.

    Psi is the chi-bar-squared mixture sum_k C(p,k) 2^-p chi2_k, with chi2_0
    the point mass at zero (Kudo 1963; Shapiro 1988).
    """
    if c <= 0.0:
        return 1.0
    k = np.arange(1, p + 1)
    return float(np.dot(scipy.stats.binom.pmf(k, p, 0.5), scipy.stats.chi2.sf(c, k)))


@functools.lru_cache(maxsize=64)
def asymptotic_psi_quantile(p: int, level: float) -> float:
    """(1-level)-quantile of the limiting law sum_j max(Z_j, 0)^2, by root-finding."""
    if _psi_upper_tail(p, np.nextafter(0.0, 1.0)) <= level:
        return 0.0
    # P(Psi >= c) <= P(chi2_p >= c), so the chi2_p quantile bounds the root.
    hi = float(scipy.stats.chi2.isf(level, p))
    return float(scipy.optimize.brentq(lambda c: _psi_upper_tail(p, c) - level, 0.0, hi, xtol=1e-14))


def test_second_order(
    series: ReturnSeries,
    p: int,
    b: float,
    B: int = 2000,
    levels=(0.05, 0.10),
    seed: int = 0,
    calibration: str = "monte-carlo",
    kernel=kernels.epanechnikov,
    workers: int = 1,
) -> TestReport:
    """Test H0: no second-order dynamic (all lag coefficients zero)."""
    stat = second_order_statistic(series, p, b, kernel)
    if calibration == "asymptotic":
        quantiles = {float(lvl): asymptotic_psi_quantile(p, float(lvl)) for lvl in levels}
        p_value = _psi_upper_tail(p, stat.psi)
        B_used = 0
        retried = 0
    elif calibration == "monte-carlo":
        cal = mc_pivotal_quantiles(
            series.T, p, None, LEVEL, b, B, levels, seed, "second-order", None, kernel, workers
        )
        quantiles = cal.quantiles
        p_value = cal.p_value(stat.psi)
        B_used = B
        retried = cal.retried
    else:
        raise InputError(f"unknown calibration {calibration!r}")
    return TestReport(
        name=f"second-order(p={p})",
        statistic=stat.psi,
        pivotal=True,
        mc_quantiles=quantiles,
        p_value=p_value,
        B=B_used,
        seed=seed,
        bandwidth=b,
        decision=_decisions(stat.psi, quantiles),
        extra={
            "a_hat": [float(v) for v in stat.a_hat],
            "sigma_sq_hat": stat.sigma_sq_hat,
            "calibration": calibration,
            "mc_retried": retried,
        },
    )
