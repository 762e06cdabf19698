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
    _STACK_CENTERS,
    LEVEL,
    _level_weights,
    _local_sandwich,
    _residual_design,
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
) -> ConstancyStatistic:
    """L2 distance statistic between the full kernel fit and the constant fit.

    S_T, the bias/variance functionals and the pivotal E_T come from the
    full local fit (:func:`nonparametric_fit`: a_tilde and G^-1) and the
    constant fit (:func:`estimate_beta`: beta).  One more smoothing gives the
    fit covariance block O_cc = Z' S Z, Z = G^-1[:, c].
    """
    _require_constant_block(partition)
    p = partition.p
    T = series.T
    c = np.asarray(partition.constant, dtype=int)

    npfit = nonparametric_fit(series, p, weights, b)
    bfit = estimate_beta(series, partition, weights, b)
    X = canonical_matrix(series, p)
    W = bfit.weights
    x2t = bfit.x_sq

    diff = npfit.a_tilde[:, c] - bfit.beta[None, :]

    # Empirical counterpart of the fit covariance kernel O(u), constant block.
    sig_tilde = np.einsum("tk,tk->t", X, npfit.a_tilde)
    win = kernels.kernel_window(T, b)
    o_cc = _local_sandwich(npfit.gram_inv[:, :, c], X, W**2 * (x2t - sig_tilde) ** 2, win)
    s_t, varpi1, varpi2, e_t = map(float, _pivotal_e_t(diff, o_cc, T, b))
    return ConstancyStatistic(s_t=s_t, varpi1=varpi1, varpi2=varpi2, e_t=e_t, beta_hat=bfit.beta)


def _require_constant_block(partition: CoefficientPartition) -> None:
    """Raise InputError unless the partition has a nonempty constant block."""
    if partition.n == 0:
        raise InputError("constancy test needs a nonempty constant block")


def _pivotal_e_t(diff: np.ndarray, o_cc: np.ndarray, T: int, b: float):
    """(S_T, varpi1, varpi2, E_T) of a_tilde_c - beta (..., n_t, n) and O_cc (..., n_t, n, n); raises at varpi2 <= 0."""
    s_t = np.einsum("...tn,...tn->...t", diff, diff).sum(axis=-1) / T
    varpi1 = np.trace(o_cc, axis1=-2, axis2=-1).sum(axis=-1) / T
    varpi2 = (o_cc * np.swapaxes(o_cc, -1, -2)).sum(axis=(-3, -2, -1)) / T
    if np.any(varpi2 <= 0.0):
        raise DegenerateSeriesError("variance functional of the constancy statistic vanished")
    k2 = kernels.k_l2_norm_sq()
    kstar = np.sqrt(kernels.k_star_l2_norm_sq())
    e_t = T * np.sqrt(b) * (s_t - k2 * varpi1 / (T * b)) / (2.0 * kstar * np.sqrt(varpi2))
    return s_t, varpi1, varpi2, e_t


def _constancy_e_t(values: np.ndarray, partition: CoefficientPartition, b: float) -> np.ndarray:
    """E_T of :func:`constancy_statistic`, level-weighted, for every row of a (R, T) array, stacked.

    One local_sums call smooths the R full-fit designs; one gated solve over
    all R n_t centers against [cross | e_c] gives a_tilde and Z = G^-1[:, c]
    (no other column of G^-1), one of G[v, v] gives q1 and q2, one gate the
    residual designs, and one more local_sums call the sandwich.  Raises the
    first error of the stack: a zero row's DegenerateSeriesError, the
    SingularMomentError of the first failing center (its t counts the R n_t
    centers of the flattened stack), the first residual design's
    SingularDesignError, or a varpi2 <= 0.
    """
    R, T = values.shape
    p = partition.p
    k, n_t, n = p + 1, T - p, partition.n
    ReturnSeries(values[0]).require_length(p)
    x_sq = values**2
    W = _level_weights(x_sq, p)
    lags = [x_sq[:, p - j : T - j] for j in range(1, k)]
    X = np.moveaxis(np.stack([np.ones((R, n_t)), *lags]), 0, -1)  # (R, n_t, k) over a (k, R, n_t) block
    x2t = x_sq[:, p:]
    win = kernels.kernel_window(T, b)

    gram, cross = local_wls(X, x2t[..., None], W, win)
    # The (k, k, R, n_t) block local_wls wrote: every entry a column over all R n_t centers.
    G = np.moveaxis(gram, (-2, -1), (0, 1)).reshape(k, k, R * n_t)
    c = np.asarray(partition.constant, dtype=int)
    v = np.asarray(partition.varying, dtype=int)
    rhs = np.zeros((k, 1 + n, R * n_t))
    rhs[:, 0] = np.moveaxis(cross, (-2, -1), (0, 1)).reshape(k, R * n_t)
    rhs[c, np.arange(1, 1 + n)] = 1.0
    del gram, cross  # cross keeps the whole smoothed block alive (page faults: see _STACK_CENTERS)
    sol = _solve_gated(G.transpose(2, 0, 1), rhs.transpose(2, 0, 1), p + 1).reshape(R, n_t, k, 1 + n)
    a_tilde = sol.transpose(2, 3, 0, 1)[:, 0]  # (k, R, n_t), of the solve buffer itself when certified

    q_rhs = np.concatenate([rhs[v, :1], G[v[:, None], c]], axis=1)
    q = _solve_gated(G[v[:, None], v].transpose(2, 0, 1), q_rhs.transpose(2, 0, 1), p + 1)
    q = q.reshape(R, n_t, v.shape[0], 1 + n)
    _, _, design, beta_rhs = _residual_design(X[..., v], X[..., c], x2t, W, q[..., 0], q[..., 1:])
    beta, errors = _solve_design(design, beta_rhs[..., None], "residual design")
    if any(errors):
        raise next(err for err in errors if err)
    del G, rhs, q_rhs, q  # the full fit's buffers go before the sandwich's are made

    sig_tilde = np.einsum("krt,krt->rt", X.transpose(2, 0, 1), a_tilde)
    o_cc = _local_sandwich(sol[..., 1:], X, W**2 * (x2t - sig_tilde) ** 2, win)
    return _pivotal_e_t(np.moveaxis(a_tilde[c] - beta.transpose(1, 0, 2), 0, -1), o_cc, T, b)[3]


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
    a_hat, psi, sigma_sq_hat, errors = _second_order_psi(series.values[None], p, b)
    if errors[0] is not None:
        raise errors[0]
    return SecondOrderStatistic(a_hat=a_hat[0], psi=float(psi[0]), sigma_sq_hat=float(sigma_sq_hat[0]))


def _second_order_psi(values: np.ndarray, p: int, b: float):
    """:func:`second_order_statistic` of every row of a (R, T) array, stacked.

    One local_sums call smooths the mask row (zero on the first p indices)
    with the R rows of x^2 mask, and one rcond gate covers the (R, p, p)
    stack of lag designs.  Returns (a_hat, psi, sigma_sq_hat, errors):
    errors[r] is the NumericalError row r raises, or None, and the other
    outputs are 0 for such a row.
    """
    if p < 1:
        raise InputError("second-order test needs p >= 1")
    ReturnSeries(values[0]).require_length(p)
    R, T = values.shape
    x_sq = values**2
    a_hat = np.zeros((R, p))
    psi = np.zeros(R)
    sigma_sq_hat = np.zeros(R)

    # d_hat over all centers 1..T, averaging the in-range indices i >= p+1.
    g = np.empty((R + 1, T))  # the smoothed columns [mask | x^2 mask], as rows
    g[0] = 1.0
    g[1:] = x_sq
    g[:, :p] = 0.0
    s = kernels.local_sums(g.T, kernels.kernel_window(T, b)).T
    den = s[0]
    if np.any(den <= 0.0):
        err = SingularDesignError("kernel window misses the estimation range; enlarge b")
        return a_hat, psi, sigma_sq_hat, [err] * R
    d_hat = s[1:] / den

    h_resid = x_sq - d_hat
    X = np.stack([h_resid[:, p - j : T - j] for j in range(1, p + 1)], axis=1)  # (R, p, T - p)
    sol, errors = _solve_design(X @ X.transpose(0, 2, 1), X @ h_resid[:, p:, None], "lag design")
    d_max = d_hat.max(axis=1)
    for r in np.flatnonzero(d_max <= 0.0):
        errors[r] = errors[r] or DegenerateSeriesError("smoothed squares are identically zero")
    live = np.flatnonzero([err is None for err in errors])
    if not live.size:
        return a_hat, psi, sigma_sq_hat, errors
    rows = live if live.size < R else slice(None)  # a slice copies nothing
    a_hat[rows] = sol[rows, :, 0]
    # sigma^2 is scale-free in d_hat: d_hat / max(d_hat) keeps its powers finite.
    d_rel = d_hat[rows] / d_max[rows, None]
    sigma_sq_hat[rows] = T * (d_rel**4).sum(axis=1) / (d_rel**2).sum(axis=1) ** 2
    psi[rows] = T * np.sum(np.maximum(a_hat[rows], 0.0) ** 2, axis=1) / sigma_sq_hat[rows]
    for r in live[~(np.isfinite(psi[live]) & np.isfinite(sigma_sq_hat[live]))]:
        errors[r] = NumericalError(
            f"second-order statistic is not finite (psi={psi[r]}, sigma^2={sigma_sq_hat[r]})"
        )
    return a_hat, psi, sigma_sq_hat, errors


# ---------------------------------------------------------------------------
# Monte-Carlo calibration.

# Draws per replicate before a numerical degeneracy fails the calibration.
_MAX_RETRIES = 5


def _each(fn, draws) -> list:
    """fn(ReturnSeries(draw)) for every draw, or the NumericalError it raised."""
    out = []
    for draw in draws:
        try:
            out.append(fn(ReturnSeries(draw)))
        except NumericalError as err:
            out.append(err)
    return out


def _pivotal_values(name, draws, p, partition, b) -> list:
    """The statistic of every draw, or the NumericalError it raised.

    Second-order draws run stacked through :func:`_second_order_psi`;
    constancy draws through :func:`_constancy_e_t` in stacks of
    _STACK_CENTERS centers.  A stack that raises never passes its error on:
    each of its draws reruns alone through the same core, and so gets its
    own value or raises its own error.  Wald draws run one at a time.
    """
    if name == "second-order":
        _, psi, _, errors = _second_order_psi(np.stack(draws), p, b)
        return [float(v) if err is None else err for v, err in zip(psi, errors)]
    if name == "wald-zero":
        return _each(lambda s: _wald_statistic(s, partition, b)[0], draws)

    per = max(1, _STACK_CENTERS // (draws[0].shape[0] - p))
    out = []
    for lo in range(0, len(draws), per):
        stack = draws[lo : lo + per]
        try:
            out += [float(v) for v in _constancy_e_t(np.stack(stack), partition, b)]
        except NumericalError:
            out += _each(lambda s: float(_constancy_e_t(s.values[None], partition, b)[0]), stack)
    return out


def _require_replicates(B: int) -> None:
    """Raise InputError unless a Monte-Carlo calibration has at least 100 replicates."""
    if B < 100:
        raise InputError(f"Monte-Carlo calibration needs B >= 100, got {B}")


def _require_psi_calibration(calibration: str, B: int) -> None:
    """Raise InputError unless ``calibration`` is known and, under Monte-Carlo, B >= 100."""
    if calibration == "monte-carlo":
        _require_replicates(B)
    elif calibration != "asymptotic":
        raise InputError(f"unknown calibration {calibration!r}")


def _require_calibration(B: int, levels, workers: int) -> None:
    """Raise InputError unless B, ``levels`` and ``workers`` suit a Monte-Carlo calibration."""
    _require_replicates(B)
    _require_workers(workers)
    _require_levels(levels)


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


# Replicates per stacked evaluation.  Fixed, so that which replicates share a
# stack, and hence every output bit, never depends on ``workers``.
_CHUNK = 16


def _map_chunks(fn, n: int, workers: int) -> list:
    """The lists fn(range) returns for the consecutive chunks of _CHUNK indices of 0..n-1, concatenated."""
    starts = range(0, n, _CHUNK)
    parts = _map_ordered(lambda c: fn(range(starts[c], min(starts[c] + _CHUNK, n))), len(starts), workers)
    return [v for part in parts for v in part]


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
    workers: int = 1,
) -> McCalibration:
    """Simulate the null distribution of a pivotal statistic.

    Each replicate draws T i.i.d. standard Gaussians and runs the full
    statistic pipeline, level-weighted, at the pre-selected bandwidth.
    Replicates hitting a numerical degeneracy are redrawn (up to
    ``_MAX_RETRIES`` draws in all) so the quantile sample size stays exactly B.
    Replicates run in fixed chunks of _CHUNK; second-order and constancy
    ones are stacked.  Every input is checked before the first draw.
    """
    _require_calibration(B, levels, workers)
    if statistic not in ("constancy", "wald-zero", "second-order"):
        raise InputError(f"unknown pivotal statistic {statistic!r}")
    if statistic != "second-order" and partition is None:
        raise InputError(f"the {statistic} statistic needs a coefficient partition")
    if partition is not None and partition.p != p:
        raise InputError(f"partition has p={partition.p}, but the calibration has p={p}")
    if statistic == "constancy":
        _require_constant_block(partition)

    def chunk(rs: range) -> list:
        # Each replicate keeps its own generator per attempt; only the ones
        # that raised at attempt a are redrawn, at a + 1.
        done = {}
        pending = list(rs)
        for attempt in range(_MAX_RETRIES):
            draws = [generator(derive_seed(seed, r, attempt)).standard_normal(T) for r in pending]
            values = _pivotal_values(statistic, draws, p, partition, b)
            done.update((r, (v, attempt)) for r, v in zip(pending, values) if not isinstance(v, NumericalError))
            pending = [r for r in pending if r not in done]
            if not pending:
                return [done[r] for r in rs]
        raise NumericalError(f"MC replicate {pending[0]} failed after {_MAX_RETRIES} redraws")

    results = _map_chunks(chunk, B, workers)
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
    workers: int = 1,
) -> TestReport:
    """Test that the constant-block coefficients are non time-varying (level-weighted)."""
    _require_calibration(B, levels, workers)
    stat = constancy_statistic(series, partition, LEVEL, b)
    cal = mc_pivotal_quantiles(series.T, partition.p, partition, b, B, levels, seed, "constancy", workers)
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
    _require_calibration(B, levels, workers)
    stat, cov, fit = _wald_statistic(series, partition, b)
    cal = mc_pivotal_quantiles(series.T, partition.p, partition, b, B, levels, seed, "wald-zero", workers)
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
    _require_psi_calibration(calibration, B)
    stat = second_order_statistic(series, p, b)
    if calibration == "asymptotic":
        quantiles = {float(lvl): asymptotic_psi_quantile(p, float(lvl)) for lvl in levels}
        p_value = _psi_upper_tail(p, stat.psi)
        B_used = 0
        retried = 0
    else:
        cal = mc_pivotal_quantiles(series.T, p, None, b, B, levels, seed, "second-order", workers)
        quantiles = cal.quantiles
        p_value = cal.p_value(stat.psi)
        B_used = B
        retried = cal.retried
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
