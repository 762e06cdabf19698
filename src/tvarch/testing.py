"""Hypothesis tests: coefficient constancy, zero coefficients, second-order dynamics.

All three statistics are asymptotically pivotal, so critical values are
simulated: draw B samples of T i.i.d. standard Gaussians, run the identical
statistic pipeline on each (bandwidth fixed in advance, never re-selected),
and read quantiles off the replicate sample.  Observed p-values use the
standard Monte-Carlo convention (1 + #{replicates >= observed}) / (B + 1).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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
    SmoothedMoments,
    _local_sandwich,
    _solve_design,
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
    cross: np.ndarray  # (n_t, p+1, 1): smoothed W X x^2
    gram_inv: np.ndarray  # (n_t, p+1, p+1): G^-1, from the same solve as a_tilde
    bandwidth: float


def nonparametric_fit(series: ReturnSeries, p: int, weights, b: float) -> NonparametricFit:
    """Local weighted least squares fit of the full coefficient vector.

    One gated solve against [cross | I] gives a_tilde and G^-1, so G is factored once.
    """
    series.require_length(p)
    X = canonical_matrix(series, p)
    W = resolve_weights(series, p, weights)
    win = kernels.kernel_window(series.T, b)
    gram, cross = local_wls(X, series.values[p:, None] ** 2, W, win)
    eye = np.broadcast_to(np.eye(p + 1), gram.shape)
    sol = _solve_gated(gram, np.concatenate([cross, eye], axis=2), p + 1)
    u = np.arange(p + 1, series.T + 1) / series.T
    return NonparametricFit(u=u, a_tilde=sol[..., 0], gram=gram, cross=cross, gram_inv=sol[..., 1:], bandwidth=b)


@dataclass(frozen=True)
class ConstancyStatistic:
    s_t: float
    varpi1: float
    varpi2: float
    e_t: float
    beta_hat: np.ndarray


def constancy_statistic(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    b: float,
    gamma=None,
) -> ConstancyStatistic:
    """L2 distance statistic between the full kernel fit and the constant fit.

    S_T, the bias/variance functionals and the pivotal E_T come in two steps.
    The partition-free local fit (:func:`nonparametric_fit`) smooths the full
    design once and yields a_tilde and G^-1.  The per-partition beta step
    (:func:`estimate_beta`) reads its local moments off that fit, s3 = G[v, v],
    s2 = G[v, c] and s1 = cross[v], and gates G[v, v] itself.  Whenever G
    passed the trace-bound certificate, so does G[v, v]: tr G_vv <= tr G, and
    tr G_vv^-1 <= tr (G^-1)_vv <= tr G^-1 (a Schur complement).
    One more smoothing gives the fit covariance block O_cc = Z' S Z, Z =
    G^-1[:, c].  ``gamma`` is None (identity) or a positive definite n x n matrix.
    """
    if partition.n == 0:
        raise InputError("constancy test needs a nonempty constant block")
    p = partition.p
    T = series.T
    v = np.asarray(partition.varying, dtype=int)
    c = np.asarray(partition.constant, dtype=int)

    npfit = nonparametric_fit(series, p, weights, b)
    cross = np.concatenate([npfit.cross[:, v], npfit.gram[:, v[:, None], c]], axis=2)  # [s1 | s2]
    moments = SmoothedMoments(s3=npfit.gram[:, v[:, None], v], cross=cross, first_t=p + 1)
    bfit = estimate_beta(series, partition, weights, b, moments=moments)
    X = canonical_matrix(series, p)
    W = bfit.weights
    x2t = bfit.x_sq

    diff = npfit.a_tilde[:, c] - bfit.beta[None, :]

    # Empirical counterpart of the fit covariance kernel O(u), constant block.
    sig_tilde = np.einsum("tk,tk->t", X, npfit.a_tilde)
    win = kernels.kernel_window(T, b)
    o_cc = _local_sandwich(npfit.gram_inv[:, :, c], X, W**2 * (x2t - sig_tilde) ** 2, win)

    if gamma is None:
        g_mat = o_cc
        quad = np.einsum("tn,tn->t", diff, diff)
    else:
        try:
            gam = np.asarray(gamma, dtype=float)
        except (TypeError, ValueError):
            raise InputError("gamma must be None or a positive definite matrix") from None
        if gam.shape != (partition.n, partition.n) or not np.linalg.eigvalsh(gam)[0] > 0.0:
            raise InputError(f"gamma must be a positive definite {partition.n}x{partition.n} matrix")
        quad = np.einsum("tn,nk,tk->t", diff, gam, diff)
        # Gamma O_cc has the traces of its first two powers in common with
        # Gamma^1/2 O_cc Gamma^1/2, and they are all varpi1 and varpi2 read.
        g_mat = gam @ o_cc

    s_t = float(quad.sum() / T)
    varpi1 = float(np.trace(g_mat, axis1=1, axis2=2).sum() / T)
    varpi2 = float((g_mat * g_mat.transpose(0, 2, 1)).sum() / T)
    if varpi2 <= 0.0:
        raise DegenerateSeriesError("variance functional of the constancy statistic vanished")

    k2 = kernels.k_l2_norm_sq()
    kstar = np.sqrt(kernels.k_star_l2_norm_sq())
    e_t = T * np.sqrt(b) * (s_t - k2 * varpi1 / (T * b)) / (2.0 * kstar * np.sqrt(varpi2))
    return ConstancyStatistic(
        s_t=s_t,
        varpi1=varpi1,
        varpi2=varpi2,
        e_t=float(e_t),
        beta_hat=bfit.beta,
    )


def _wald_statistic(series, partition, b):
    fit = estimate_beta(series, partition, LEVEL, b)
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


def second_order_statistic(series: ReturnSeries, p: int, b: float) -> SecondOrderStatistic:
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
    win = kernels.kernel_window(T, b)
    g = np.ones((2, T))  # the smoothed columns [mask | x^2 mask], as rows
    g[:, :p] = 0.0
    g[1] *= x_sq
    s = kernels.local_sums(g.T, win)
    den = s[:, 0]
    if np.any(den <= 0.0):
        raise SingularDesignError("kernel window misses the estimation range; enlarge b")
    d_hat = s[:, 1] / den

    h_resid = x_sq - d_hat
    y = h_resid[p:]
    X = np.column_stack([h_resid[p - j : T - j] for j in range(1, p + 1)])
    a_hat = _solve_design(X.T @ X, X.T @ y, "lag design")

    d_max = float(d_hat.max())
    if d_max <= 0.0:
        raise DegenerateSeriesError("smoothed squares are identically zero")
    # sigma^2 is scale-free in d_hat: d_hat / max(d_hat) keeps its powers finite.
    d_rel = d_hat / d_max
    sigma_sq_hat = float(T * (d_rel**4).sum() / (d_rel**2).sum() ** 2)
    psi = float(T * np.sum(np.maximum(a_hat, 0.0) ** 2) / sigma_sq_hat)
    if not (np.isfinite(psi) and np.isfinite(sigma_sq_hat)):
        raise NumericalError(f"second-order statistic is not finite (psi={psi}, sigma^2={sigma_sq_hat})")
    return SecondOrderStatistic(a_hat=a_hat, psi=psi, sigma_sq_hat=sigma_sq_hat)


# ---------------------------------------------------------------------------
# Monte-Carlo calibration.

# Draws per replicate before a numerical degeneracy fails the calibration.
_MAX_RETRIES = 5


def _pivotal_statistic(name, series, p, partition, b, gamma) -> float:
    if name == "constancy":
        return constancy_statistic(series, partition, LEVEL, b, gamma).e_t
    if name == "wald-zero":
        return _wald_statistic(series, partition, b)[0]
    if name == "second-order":
        return second_order_statistic(series, p, b).psi
    raise InputError(f"unknown pivotal statistic {name!r}")


def _require_replicates(B: int) -> None:
    """Raise InputError unless a Monte-Carlo calibration has at least 100 replicates."""
    if B < 100:
        raise InputError(f"Monte-Carlo calibration needs B >= 100, got {B}")


def _require_workers(workers: int) -> None:
    """Raise InputError unless the Monte-Carlo thread count is at least 1."""
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")


def _require_levels(levels, what: str = "levels") -> tuple:
    """The test levels as floats; InputError unless there is one or more and each lies in (0, 1)."""
    try:
        out = tuple(float(lvl) for lvl in levels)
    except (TypeError, ValueError):
        out = ()
    if not out or not all(0.0 < lvl < 1.0 for lvl in out):
        raise InputError(f"{what} must be nonempty and lie in (0, 1), got {levels!r}")
    return out


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
    b: float,
    B: int,
    levels,
    seed: int,
    statistic: str,
    gamma=None,
    workers: int = 1,
) -> McCalibration:
    """Simulate the null distribution of a pivotal statistic.

    Each replicate draws T i.i.d. standard Gaussians and runs the full
    statistic pipeline, level-weighted, at the pre-selected bandwidth.
    Replicates hitting a numerical degeneracy are redrawn (up to
    ``_MAX_RETRIES`` draws in all) so the quantile sample size stays exactly B.
    """
    _require_replicates(B)
    _require_workers(workers)
    _require_levels(levels)

    def one(r: int) -> tuple[float, int]:
        for attempt in range(_MAX_RETRIES):
            s = derive_seed(seed, r, attempt)
            series = ReturnSeries(generator(s).standard_normal(T))
            try:
                return _pivotal_statistic(statistic, series, p, partition, b, gamma), attempt
            except NumericalError:
                continue
        raise NumericalError(f"MC replicate {r} failed after {_MAX_RETRIES} redraws")

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
    mc_quantiles: dict
    p_value: float
    B: int
    seed: int
    bandwidth: float
    extra: dict = field(default_factory=dict)

    @property
    def decision(self) -> dict:
        """'reject' at every level whose critical value the statistic exceeds, else 'accept'."""
        return {lvl: ("reject" if self.statistic > q else "accept") for lvl, q in self.mc_quantiles.items()}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "pivotal": True,
            "mc_quantiles": {f"{lvl:g}": q for lvl, q in self.mc_quantiles.items()},
            "p_value": self.p_value,
            "B": self.B,
            "seed": self.seed,
            "bandwidth": self.bandwidth,
            "decision": {f"{lvl:g}": d for lvl, d in self.decision.items()},
            "extra": self.extra,
        }


def test_constancy(
    series: ReturnSeries,
    partition: CoefficientPartition,
    b: float,
    B: int = 2000,
    levels=(0.05, 0.10),
    seed: int = 0,
    gamma=None,
    workers: int = 1,
) -> TestReport:
    """Test that the constant-block coefficients are non time-varying (level-weighted)."""
    stat = constancy_statistic(series, partition, LEVEL, b, gamma)
    cal = mc_pivotal_quantiles(series.T, partition.p, partition, b, B, levels, seed, "constancy", gamma, workers)
    return TestReport(
        name=f"constancy(constant={list(partition.constant)})",
        statistic=stat.e_t,
        mc_quantiles=cal.quantiles,
        p_value=cal.p_value(stat.e_t),
        B=B,
        seed=seed,
        bandwidth=b,
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
    workers: int = 1,
) -> TestReport:
    """Wald test of H0: constant block equals zero, level-weighted and Monte-Carlo calibrated."""
    stat, cov, fit = _wald_statistic(series, partition, b)
    cal = mc_pivotal_quantiles(series.T, partition.p, partition, b, B, levels, seed, "wald-zero", None, workers)
    n = partition.n
    return TestReport(
        name=f"zero-wald(constant={list(partition.constant)})",
        statistic=stat,
        mc_quantiles=cal.quantiles,
        p_value=cal.p_value(stat),
        B=B,
        seed=seed,
        bandwidth=b,
        extra={
            "beta_hat": [float(v) for v in fit.beta],
            "beta_se": [float(v) for v in cov.se],
            "chi2_p_value": _chi2_sf(stat, n),
            "df": n,
            "mc_retried": cal.retried,
        },
    )


def _chi2_sf(c: float, k: int) -> float:
    """P(chi2_k >= c) for an integer k >= 1: the regularized gamma tail Q(k/2, c/2).

    Starts from Q(1/2, h) = erfc(sqrt h) or Q(1, h) = exp(-h) and steps up by
    Q(s+1, h) = Q(s, h) + h^s e^-h / Gamma(s+1), each term taken through its
    logarithm so that no power overflows.
    """
    h = 0.5 * c
    if h <= 0.0:
        return 1.0
    s, q = (0.5, math.erfc(math.sqrt(h))) if k % 2 else (1.0, math.exp(-h))
    log_h = math.log(h)
    while s < 0.5 * k:
        q += math.exp(s * log_h - h - math.lgamma(s + 1.0))
        s += 1.0
    return q


def _psi_upper_tail(p: int, c: float) -> float:
    """P(Psi >= c) for the limit Psi = sum_j max(Z_j, 0)^2 of p Gaussians.

    Psi is the chi-bar-squared mixture sum_k C(p,k) 2^-p chi2_k, with chi2_0
    the point mass at zero (Kudo 1963; Shapiro 1988).
    """
    if c <= 0.0:
        return 1.0
    return sum(math.comb(p, k) * _chi2_sf(c, k) for k in range(1, p + 1)) / 2.0**p


@functools.lru_cache(maxsize=64)
def asymptotic_psi_quantile(p: int, level: float) -> float:
    """(1-level)-quantile of the limiting law sum_j max(Z_j, 0)^2, by bisection."""
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level}")
    if _psi_upper_tail(p, np.nextafter(0.0, 1.0)) <= level:
        return 0.0
    lo, hi = 0.0, 1.0
    while _psi_upper_tail(p, hi) > level:
        lo, hi = hi, 2.0 * hi
    # The tail falls strictly in c: halve [lo, hi] until no float lies between.
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _psi_upper_tail(p, mid) > level else (lo, mid)
    return hi


def test_second_order(
    series: ReturnSeries,
    p: int,
    b: float,
    B: int = 2000,
    levels=(0.05, 0.10),
    seed: int = 0,
    calibration: str = "monte-carlo",
    workers: int = 1,
) -> TestReport:
    """Test H0: no second-order dynamic (all lag coefficients zero)."""
    _require_workers(workers)
    _require_levels(levels)
    stat = second_order_statistic(series, p, b)
    if calibration == "asymptotic":
        quantiles = {float(lvl): asymptotic_psi_quantile(p, float(lvl)) for lvl in levels}
        p_value = _psi_upper_tail(p, stat.psi)
        B_used = 0
        retried = 0
    elif calibration == "monte-carlo":
        cal = mc_pivotal_quantiles(series.T, p, None, b, B, levels, seed, "second-order", None, workers)
        quantiles = cal.quantiles
        p_value = cal.p_value(stat.psi)
        B_used = B
        retried = cal.retried
    else:
        raise InputError(f"unknown calibration {calibration!r}")
    return TestReport(
        name=f"second-order(p={p})",
        statistic=stat.psi,
        mc_quantiles=quantiles,
        p_value=p_value,
        B=B_used,
        seed=seed,
        bandwidth=b,
        extra={
            "a_hat": [float(v) for v in stat.a_hat],
            "sigma_sq_hat": stat.sigma_sq_hat,
            "calibration": calibration,
            "mc_retried": retried,
        },
    )
