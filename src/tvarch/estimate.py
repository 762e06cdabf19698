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

from dataclasses import dataclass, field

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

LEVEL = "level"

_RCOND_GATE = 1e-12
_FLOOR_REL = 1e-12


def level_weights(series: ReturnSeries, p: int) -> np.ndarray:
    """Scale-free weights W_t = (v_hat + sum_j x^2_{t-j})^-2 over t = p+1..T."""
    series.require_length(p)
    return _level_weights(series.values**2, p)


def _level_weights(x_sq: np.ndarray, p: int) -> np.ndarray:
    """:func:`level_weights` of the squares x_sq (..., T), each row on its own; leading axes stack series.

    A row of zeros raises DegenerateSeriesError.
    """
    T = x_sq.shape[-1]
    v_hat = x_sq.mean(axis=-1, keepdims=True)
    if np.any(v_hat <= 0.0):
        raise DegenerateSeriesError("series is identically zero")
    total = np.repeat(v_hat, T - p, axis=-1)
    for j in range(1, p + 1):
        total += x_sq[..., p - j : T - j]
    return total**-2.0


def resolve_weights(series: ReturnSeries, p: int, weights) -> np.ndarray:
    """The weights over t = p+1..T of the scheme 'level' or an explicit weight array."""
    if isinstance(weights, str):
        if weights == LEVEL:
            return level_weights(series, p)
        raise InputError(f"unknown weight scheme {weights!r}")
    W = np.asarray(weights, dtype=float)
    if W.shape != (series.T - p,):
        raise InputError(f"weight array must have length T-p={series.T - p}")
    if not np.all(np.isfinite(W)) or np.any(W <= 0.0):
        raise InputError("weights must be strictly positive and finite")
    return W


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
    if ((lmax > 0.0) & (lmax < np.inf)).all():  # the usual case: no 0/0 or inf/inf to mask
        return np.maximum(lmin / lmax, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = np.where(lmax > 0.0, lmin / lmax, 0.0)
    return np.clip(rc, 0.0, None)


def local_wls(
    X: np.ndarray, Y: np.ndarray, W: np.ndarray, window: np.ndarray, leave_out: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Local weighted least-squares moments of Y on X at every center.

    Returns ``(gram, cross)``: gram[r] smooths W_i X_i X_i' (k, k) and
    cross[r] smooths W_i X_i Y_i' (k, c); :func:`_solve_gated` solves them.
    The gram is symmetric, so only its k(k+1)/2 upper-triangle columns
    (W_i X_ia) X_ib, a <= b, are smoothed and then mirrored.  By default the
    smoother is the kernel-weighted local mean.  With ``leave_out=p`` it
    smooths with the holed window :func:`kernels.leave_out_window`, which
    drops the indices t..t+p from center t's sums (the leave-(p+1)-out
    cross-validation fit); the sums stay unnormalized, which changes no
    solution, and a center with no index left gets exact zeros.

    The smoothed columns are rows of one C-contiguous (columns, n) block, so
    :func:`kernels.local_sums` reads them in place, and the gram is written
    into the (k, k, n) layout :func:`_cholesky` factors; both results are
    (n, ...) views of those arrays.  Leading axes of X, Y and W stack series
    into the same block and call, with the gram laid out (k, k, ..., n).
    """
    *lead, n, k = X.shape
    c = Y.shape[-1]
    a, b = np.triu_indices(k)
    last = len(lead) + 1
    XT = X.transpose(last, *range(last))
    WXT = W * XT
    g = np.empty((a.shape[0] + k * c, *lead, n))
    row = 0
    for i in range(k):  # the triangle row by row: columns (i, i..k-1)
        np.multiply(WXT[i], XT[i:], out=g[row : row + k - i])
        row += k - i
    np.multiply(WXT[:, None], Y.transpose(last, *range(last))[None], out=g[row:].reshape(k, c, *lead, n))
    if leave_out is None:
        s = kernels.local_sums(g.reshape(-1, n).T, window)
        s /= kernels.window_counts(n, window)[:, None]
    else:
        s = kernels.local_sums(g.reshape(-1, n).T, kernels.leave_out_window(window, leave_out))
    sT = s.T.reshape(g.shape)
    gram = np.empty((k, k, *lead, n))
    gram[a, b] = gram[b, a] = sT[:row]
    centers_first = (*range(2, last + 2), 0, 1)
    return gram.transpose(centers_first), sT[row:].reshape(k, c, *lead, n).transpose(centers_first)


# lambda_max <= tr G and lambda_min >= 1 / tr G^-1, so rcond >= 1 / (tr G tr G^-1).
# The certificate asks that bound to clear ten times the gate: the bound is
# loose by at most k^2, and the margin dwarfs the rounding of the factor, whose
# tr G^-1 is relatively accurate to about k eps / rcond.
_CERTIFY_SHIFT = 10.0 * _RCOND_GATE
# Traces with _CERTIFY_SHIFT * tr G below this are left to the eigenvalues:
# near the subnormals rounding is no longer relative, and the margin fails.
_CERTIFY_MIN_SHIFT = np.finfo(float).tiny / np.finfo(float).eps


def _columns(stack: np.ndarray) -> np.ndarray:
    """(n_t, a, b) -> (a, b, n_t) with every entry a contiguous column over the centers.

    A view when the entries already are, as in :func:`local_wls`'s gram and
    its leading blocks; otherwise a copy.
    """
    cols = stack.transpose(1, 2, 0)
    return cols if cols.strides[-1] == cols.itemsize else np.ascontiguousarray(cols)


def _cholesky(G: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a (k, k, n_t) stack of symmetric matrices, or None.

    Column-vector numpy ops over the centers, one pass per column of L, so
    LAPACK's per-matrix cost is not paid; only the lower triangle is read.
    None when a pivot is not positive (or is NaN) at some center.
    """
    k = G.shape[0]
    L = np.zeros(G.shape)
    for j in range(k):
        d = G[j, j] - np.einsum("pn,pn->n", L[j, :j], L[j, :j])
        if not (d > 0.0).all():
            return None
        L[j, j] = np.sqrt(d)
        L[j + 1 :, j] = (G[j + 1 :, j] - np.einsum("ipn,pn->in", L[j + 1 :, :j], L[j, :j])) / L[j, j]
    return L


def _certify(gram: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor of a (n_t, k, k) stack if every matrix provably passes the gate, else None.

    The stack is certified when every pivot is positive and tr G tr G^-1 <=
    1 / _CERTIFY_SHIFT at every center, with tr G^-1 = ||L^-1||_F^2 summed
    one column of L^-1 at a time.  Non-finite stacks, and traces too small
    for relative rounding (_CERTIFY_MIN_SHIFT), are never certified.  The
    factor is in :func:`_cholesky`'s layout, the one :func:`_cholesky_solve`
    takes.
    """
    if not np.isfinite(gram).all():
        return None
    shift = _CERTIFY_SHIFT * np.einsum("nii->n", gram)
    if not np.all((shift >= _CERTIFY_MIN_SHIFT) & (shift < np.inf)):
        return None
    L = _cholesky(_columns(gram))
    if L is None:
        return None
    k = L.shape[0]
    tr_inv = np.zeros_like(shift)
    for q in range(k):
        # Column q of L^-1, from row q down, by forward substitution.
        y = np.empty((k - q,) + shift.shape)
        y[0] = 1.0 / L[q, q]
        for i in range(1, k - q):
            y[i] = np.einsum("pn,pn->n", L[q + i, q : q + i], y[:i]) / -L[q + i, q + i]
        tr_inv += np.einsum("in,in->n", y, y)
    return L if np.all(shift * tr_inv <= 1.0) else None


def _cholesky_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(n_t, k, c) solutions of L L' x = rhs: two substitutions over all columns at once, returned
    as the transposed view of the (k, c, n_t) buffer they overwrite (no copy back to (n_t, k, c))."""
    y = np.array(rhs.transpose(1, 2, 0), order="C")  # a copy, overwritten in place
    for i in range(L.shape[0]):
        y[i] = (y[i] - np.einsum("pn,pcn->cn", L[i, :i], y[:i])) / L[i, i]
    for i in reversed(range(L.shape[0])):
        y[i] = (y[i] - np.einsum("pn,pcn->cn", L[i + 1 :, i], y[i + 1 :])) / L[i, i]
    return y.transpose(2, 0, 1)


def _solve_gated(gram: np.ndarray, rhs: np.ndarray, first_t: int) -> np.ndarray:
    """Batched gram^-1 rhs; raises SingularMomentError at the first center failing the gate.

    The gate is rcond < _RCOND_GATE by eigenvalues (:func:`_psd_rcond`).  It
    runs only when the trace-bound certificate (:func:`_certify`) fails, and
    then the solve is LAPACK's, so every decision, center and rcond reported
    is the eigenvalue gate's.  A certified stack is solved with the
    certificate's own Cholesky factor; rhs columns of the identity give G^-1.
    The layout depends on the branch (a certified solve's view of a (k, c,
    n_t) buffer, LAPACK's (n_t, k, c) array), so no caller may assume either.
    """
    factor = _certify(gram)
    if factor is not None:
        return _cholesky_solve(factor, rhs)
    rcond = _psd_rcond(gram)
    bad = rcond < _RCOND_GATE
    if np.any(bad):
        r = int(np.argmax(bad))
        raise SingularMomentError(t=first_t + r, rcond=float(rcond[r]))
    return np.linalg.solve(gram, rhs)


# Centers per stacked evaluation: the constancy draws of a stack (4 at T =
# 2000) and the (bandwidth, member) pairs of one semiparametric CV gate, never
# sized by ``workers``.  A stack's arrays peak near 3 MB at any T; larger peaks
# cost page faults: 7.1k minor faults per T = 2000 pipeline op here, 88k at
# twice the size, 29k with the full fit's smoothed block kept through the solves.
_STACK_CENTERS = 8192


def _solve_design(gram: np.ndarray, rhs: np.ndarray, what: str) -> tuple[np.ndarray, list]:
    """gram^-1 rhs for an (R, k, k) stack of symmetric designs, and per member None or the
    SingularDesignError of an rcond below the gate; only passing members are solved, the rest get 0."""
    rc = _psd_rcond(gram)
    ok = rc >= _RCOND_GATE
    if ok.all():
        return np.linalg.solve(gram, rhs), [None] * rc.shape[0]
    errors = [None if c >= _RCOND_GATE else SingularDesignError(f"{what} is singular (rcond={c:.3e})") for c in rc]
    sol = np.zeros(rhs.shape)
    sol[ok] = np.linalg.solve(gram[ok], rhs[ok])
    return sol, errors


def _local_sandwich(Z: np.ndarray, X: np.ndarray, w_mid: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Per-center Z' S Z, S the local mean of w_mid X X': with Z = G^-1[:, c], block cc of G^-1 S G^-1.

    One einsum over views with the centers last: S's (k, k, ..., n) block and Z as (k, c, ..., n), a
    certified solve's own buffer.  Leading axes stack series; the result is a view of (c, c, ..., n)."""
    S = np.moveaxis(local_wls(X, X[..., :0], w_mid, window)[0], (-2, -1), (0, 1))
    ZT = np.moveaxis(Z, (-2, -1), (0, 1))
    return np.moveaxis(np.einsum("ac...,ab...,bd...->cd...", ZT, S, ZT), (0, 1), (-2, -1))


@dataclass(frozen=True)
class SmoothedMoments:
    """Kernel-smoothed local moments per center t = p+1..T.

    s1[r] estimates E(W M x^2), s2[r] estimates E(W M N'), s3[r] estimates
    E(W M M') at u = t/T; cross holds [s1 | s2].  :func:`projection_ratios`
    gates s3 when it solves it.
    """

    s3: np.ndarray  # (n_t, m, m)
    cross: np.ndarray  # (n_t, m, 1 + n)
    first_t: int
    weights: np.ndarray  # (n_t,): the W smoothed with

    @property
    def s1(self) -> np.ndarray:  # (n_t, m)
        return self.cross[..., 0]

    @property
    def s2(self) -> np.ndarray:  # (n_t, m, n)
        return self.cross[..., 1:]


def smoothed_moments(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    b: float,
) -> SmoothedMoments:
    """All-centers smoothed moments of the regression of [x^2, N] on M."""
    p = partition.p
    M, N = regressor_matrices(series, partition)
    W = resolve_weights(series, p, weights)
    Y = np.concatenate([series.values[p:, None] ** 2, N], axis=1)
    win = kernels.kernel_window(series.T, b)
    s3, cross = local_wls(M, Y, W, win)
    return SmoothedMoments(s3=s3, cross=cross, first_t=p + 1, weights=W)


def projection_ratios(moments: SmoothedMoments) -> tuple[np.ndarray, np.ndarray]:
    """q1 = s3^-1 s1 and q2 = s3^-1 s2 for every center, from one batched solve."""
    q = _solve_gated(moments.s3, moments.cross, moments.first_t)
    return q[..., 0], q[..., 1:]


@dataclass(frozen=True)
class BetaFit:
    """Constant-block estimate with the residualized quantities it was built from."""

    beta: np.ndarray  # (n,)
    o_resid: np.ndarray  # (n_t, n): N_t residualized on the M block
    v_resid: np.ndarray  # (n_t,): x_t^2 residualized on the M block
    weights: np.ndarray  # (n_t,)
    q1: np.ndarray  # (n_t, m)
    q2: np.ndarray  # (n_t, m, n)
    x_sq: np.ndarray  # (n_t,)
    gram: np.ndarray  # (n, n): sum_t W_t O_t O_t'
    local_gram: np.ndarray  # (n_t, m, m): the smoothed W M M' behind q1 and q2

    @property
    def rcond_min(self) -> float:
        """Smallest reciprocal condition number of the local grams, computed when read."""
        return float(_psd_rcond(self.local_gram).min())


def _residual_design(M, N, x2t, W, q1, q2):
    """(v_resid, o_resid, gram, rhs): x^2 and N residualized on the M block, beta's design sum_t W o o'
    and sum_t W o v_resid; leading axes stack series."""
    v_resid = x2t - np.einsum("...tm,...tm->...t", M, q1)
    o_resid = N - np.einsum("...tmn,...tm->...tn", q2, M)
    w_o = W[..., None] * o_resid
    gram = np.swapaxes(w_o, -1, -2) @ o_resid
    rhs = np.einsum("...tm,...t->...m", w_o, v_resid)
    return v_resid, o_resid, gram, rhs


def estimate_beta(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    b: float,
) -> BetaFit:
    """Weighted least squares on the residualized regression, eq. of the two-step fit."""
    if partition.n == 0:
        raise InputError("estimate_beta needs a nonempty constant block")
    M, N = regressor_matrices(series, partition)
    moments = smoothed_moments(series, partition, weights, b)
    q1, q2 = projection_ratios(moments)
    W = moments.weights
    x2t = series.values[partition.p :] ** 2

    v_resid, o_resid, gram, rhs = _residual_design(M, N, x2t, W, q1, q2)
    beta, errors = _solve_design(gram[None], rhs[None, :, None], "residual design")
    if errors[0] is not None:
        raise errors[0]

    return BetaFit(
        beta=beta[0, :, 0],
        o_resid=o_resid,
        v_resid=v_resid,
        weights=W,
        q1=q1,
        q2=q2,
        x_sq=x2t,
        gram=gram,
        local_gram=moments.s3,
    )


def _plug_back(q1: np.ndarray, q2: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Time-varying block alpha_t = q1 - q2 beta given the constant block."""
    return q1 - np.einsum("tmn,n->tm", q2, beta)


def _require_beta(beta, partition: CoefficientPartition) -> np.ndarray:
    """beta as a float array; InputError unless it holds the partition's n finite values."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (partition.n,) or not np.isfinite(beta).all():
        raise InputError(f"beta must hold n={partition.n} finite values, got shape {beta.shape}")
    return beta


def _floored_sigma_sq(
    series: ReturnSeries, M: np.ndarray, N: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, int]:
    """sigma_t^2 = M_t'alpha_t + N_t'beta clipped at _FLOOR_REL * mean(x^2), and the clipped count."""
    v_hat = float((series.values**2).mean())
    if v_hat <= 0.0:
        raise DegenerateSeriesError("series is identically zero")
    floor = _FLOOR_REL * v_hat
    sig = np.einsum("tm,tm->t", M, alpha) + N @ beta
    return np.maximum(sig, floor), int(np.sum(sig < floor))


def fitted_sigma_sq(
    series: ReturnSeries, partition: CoefficientPartition, fit: BetaFit
) -> tuple[np.ndarray, int]:
    """Fitted volatility sigma_t^2 = M_t'(q1 - q2 beta) + N_t'beta, floored.

    Values below 1e-12 * mean(x^2) are clipped there; the count of floored
    entries is returned for diagnostics.
    """
    M, N = regressor_matrices(series, partition)
    return _floored_sigma_sq(series, M, N, _plug_back(fit.q1, fit.q2, fit.beta), fit.beta)


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
    gram_inv: np.ndarray  # (n_t, m, m): the smoothed W M M' at the bandwidth, inverted
    weights: np.ndarray  # (n_t,): the level weights W


def estimate_alpha(
    series: ReturnSeries,
    partition: CoefficientPartition,
    beta: np.ndarray,
    b_prime: float,
) -> AlphaFit:
    """Time-varying block on the grid u_t = t/T: alpha_t = q1 - q2 beta, level-weighted.

    One gated solve against [s1 | s2 | I] also gives the s3^-1 of its standard errors."""
    beta = _require_beta(beta, partition)
    moments = smoothed_moments(series, partition, LEVEL, b_prime)
    eye = np.broadcast_to(np.eye(partition.m), moments.s3.shape)
    sol = _solve_gated(moments.s3, np.concatenate([moments.cross, eye], axis=2), moments.first_t)
    q1, q2, gram_inv = sol[..., 0], sol[..., 1 : 1 + partition.n], sol[..., 1 + partition.n :]
    alpha = _plug_back(q1, q2, beta) if partition.n else q1
    u = np.arange(partition.p + 1, series.T + 1) / series.T
    return AlphaFit(u=u, alpha=alpha, bandwidth=b_prime, gram_inv=gram_inv, weights=moments.weights)


def _var_xi_sq(x_sq: np.ndarray, sigma_sq: np.ndarray) -> float:
    """Sample variance of xi_hat^2 = x^2 / sigma_hat^2."""
    ratio = x_sq / sigma_sq
    return float(np.var(ratio, ddof=1))


def alpha_standard_errors(
    series: ReturnSeries,
    partition: CoefficientPartition,
    fit: AlphaFit,
    sigma_sq: np.ndarray,
    var_xi_sq: float,
) -> np.ndarray:
    """Pointwise standard errors of alpha_hat from its asymptotic variance.

    V(u) = Var(xi^2) ||K||_2^2 E^-1(WMM') E(W^2 sigma^4 MM') E^-1(WMM'),
    with kernel-smoothed empirical counterparts and the level weights W;
    SE = sqrt(diag(V)/(T b')).  E^-1(WMM') and W are the ones ``fit`` was solved with.
    """
    M, _ = regressor_matrices(series, partition)
    win = kernels.kernel_window(series.T, fit.bandwidth)
    sandwich = _local_sandwich(fit.gram_inv, M, fit.weights**2 * sigma_sq**2, win)
    v_u = var_xi_sq * kernels.k_l2_norm_sq() * sandwich
    diag = np.clip(np.diagonal(v_u, axis1=1, axis2=2), 0.0, None)
    return np.sqrt(diag / (series.T * fit.bandwidth))


def estimate_beta_plugin(
    series: ReturnSeries,
    partition: CoefficientPartition,
    b: float,
    nu: float = 0.0,
    base: BetaFit | None = None,
) -> tuple[BetaFit, int]:
    """Efficiency-improving second pass with weights 1/(sigma_hat^4 + nu).

    ``base`` is the level-weighted first pass, fitted here unless given.
    Returns the plug-in fit and the flooring count of the first-pass
    volatility.
    """
    if not 0.0 <= nu < np.inf:
        raise InputError(f"nu must be finite and >= 0, got {nu}")
    if base is None:
        base = estimate_beta(series, partition, LEVEL, b)
    sigma_sq, floored = fitted_sigma_sq(series, partition, base)
    sig4 = sigma_sq**2
    if nu == 0.0 and np.any(sig4 == 0.0):
        raise NonPositiveVolatilityError("fitted volatility vanished with nu=0")
    return estimate_beta(series, partition, 1.0 / (sig4 + nu), b), floored


# Centers per chunk of the plug-in moment pass times the window length: bounds
# its one (centers, window) buffer to half a MB at any T and b'.  Only the
# (n_t, q) moments outlive the pass.
_SWEEP_CELLS = 1 << 16


def _plugin_moments(M, n_beta, x2t, win, alpha_init, mu: float, floor: float) -> tuple[np.ndarray, int]:
    """Unnormalized (n_t, q) plug-in moments of every center, and the floored count.

    Off the series the zero-padded products are exactly 0 and sigma^2 = 0 gets
    a finite weight (floor > 0, or mu > 0), so those terms are exact zeros.
    """
    n_t, m = M.shape
    L = win.shape[0]
    half = (L - 1) // 2
    # Window views (rows, n_t, L) of [M', N'beta, 1, products]: entry [:, r, j]
    # is index r - half + j, zero off range, so row m + 1 marks the in-range
    # indices.
    a, b = np.triu_indices(m)
    cols = np.vstack([M.T, n_beta, np.ones(n_t), M.T[a] * M.T[b], M.T * (x2t - n_beta)])
    padded = np.pad(cols, [(0, 0), (half, half)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, L, axis=1)
    inside, prods = windows[m + 1], windows[m + 2 :].transpose(1, 0, 2)
    # sigma^2 of center r's window is [alpha_init[r], 1] times the rows [M', N'beta].
    coef = np.hstack([alpha_init, np.ones((n_t, 1))])[:, None, :]
    design = windows[: m + 1].transpose(1, 0, 2)

    def sigma_sq(rows, out):
        np.matmul(coef[rows], design[rows], out=out[:, None])
        return out

    s = np.empty((n_t, prods.shape[1]))
    floored = 0
    floor_sq = floor * floor
    chunk = max(1, _SWEEP_CELLS // L)
    sig_buf = np.empty((min(chunk, n_t), L))
    for lo in range(0, n_t, chunk):
        hi = min(lo + chunk, n_t)
        rows = slice(lo, hi)
        sig = sigma_sq(rows, sig_buf[: hi - lo])
        if lo < half or hi > n_t - half:
            # An edge chunk: its off-range cells (sigma^2 exactly 0) are masked
            # out of the count.
            floored += int(np.count_nonzero((np.abs(sig) < floor) & (inside[rows] > 0.0)))
            np.square(sig, out=sig)
            can_floor = True
        else:
            # An interior chunk: |sigma^2| < floor implies fl(sigma^4) <=
            # fl(floor^2), so the exact count is taken only when its least
            # sigma^4 is that small.
            np.square(sig, out=sig)
            can_floor = sig.min() <= floor_sq
            if can_floor:
                floored += int(np.count_nonzero(np.abs(sigma_sq(rows, np.empty_like(sig))) < floor))
        if mu != 0.0:
            sig += mu
        elif can_floor:
            np.maximum(sig, floor_sq, out=sig)
        np.divide(win, sig, out=sig)
        np.matmul(prods[rows], sig[:, :, None], out=s[rows, :, None])
    return s, floored


def estimate_alpha_plugin(
    series: ReturnSeries,
    partition: CoefficientPartition,
    beta: np.ndarray,
    b_prime: float,
    alpha_init: np.ndarray,
    var_xi_sq: float,
    mu: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Plug-in time-varying block with per-center weights 1/(sigma_{t,i}^4 + mu).

    sigma_{t,i}^2 = M_i'alpha_init[t] + N_i'beta couples the window index i
    to the center t, so this pass cannot be written as one convolution.
    Instead a sliding-window sweep over chunks of centers takes the q =
    m(m+1)/2 + m local moments [M_a M_b, a <= b | M_a (x^2 - N'beta)] of
    every center against the weights K / (sigma^4 + mu), as one (n_t, q)
    array; one gated solve of all of them yields alpha and the inverse
    behind its standard errors.  Each chunk makes one buffer of its
    windows' sigma^2 with one batched matmul, squares it in place, adds mu
    or floors it, divides K by it, and takes its moments with a second
    batched matmul.  Volatilities with |sigma_{t,i}^2| below 1e-12 *
    mean(x^2) are counted; with mu = 0 their sigma^4 is floored there.  A
    chunk whose windows all lie inside the series is counted, and floored,
    only when its least sigma^4 reaches the squared floor.  Standard errors
    use the optimal asymptotic variance Var(xi^2) ||K||_2^2
    E^-1(MM'/sigma^4) / (T b').

    Returns alpha (n_t, m), its standard errors (n_t, m) and the floored count.
    """
    if not 0.0 <= mu < np.inf:
        raise InputError(f"mu must be finite and >= 0, got {mu}")
    if not 0.0 <= var_xi_sq < np.inf:
        raise InputError(f"var_xi_sq must be finite and >= 0, got {var_xi_sq}")
    p = partition.p
    M, N = regressor_matrices(series, partition)
    beta = _require_beta(beta, partition)
    n_t, m = M.shape
    alpha_init = np.asarray(alpha_init, dtype=float)
    if alpha_init.shape != (n_t, m) or not np.isfinite(alpha_init).all():
        raise InputError(f"alpha_init must be a finite (T-p, m) = {(n_t, m)} array, got shape {alpha_init.shape}")
    v_hat = float((series.values**2).mean())
    if v_hat <= 0.0:
        raise DegenerateSeriesError("series is identically zero")
    win = kernels.kernel_window(series.T, b_prime)

    s, floored = _plugin_moments(M, N @ beta, series.values[p:] ** 2, win, alpha_init, mu, _FLOOR_REL * v_hat)
    s /= kernels.window_counts(n_t, win)[:, None]
    a, b = np.triu_indices(m)
    s3 = np.empty((m, m, n_t))
    s3[a, b] = s3[b, a] = s[:, : a.shape[0]].T
    eye = np.broadcast_to(np.eye(m), (n_t, m, m))
    sol = _solve_gated(s3.transpose(2, 0, 1), np.concatenate([s[:, a.shape[0] :, None], eye], axis=2), p + 1)
    se_scale = var_xi_sq * kernels.k_l2_norm_sq() / (series.T * b_prime)
    se = np.sqrt(np.clip(np.diagonal(sol[..., 1:], axis1=1, axis2=2), 0.0, None) * se_scale)
    return sol[..., 0], se, floored


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
            "weights": LEVEL,
            "diagnostics": self.diagnostics,
        }


def fit_semiparametric(
    series: ReturnSeries,
    partition: CoefficientPartition,
    b: float,
    b_prime: float | None = None,
    plugin: bool = False,
    nu: float = 0.0,
    mu: float = 0.0,
) -> SemiparametricFit:
    """One-stop semiparametric fit (optionally the plug-in efficient variant).

    The first step uses the level weights; the plug-in variant re-weights
    by the fitted volatility.
    """
    if b_prime is None:
        b_prime = b
    M, N = regressor_matrices(series, partition)
    base = estimate_beta(series, partition, LEVEL, b)
    floored_beta = 0

    if plugin:
        fit, floored_beta = estimate_beta_plugin(series, partition, b, nu=nu, base=base)
    else:
        fit = base

    alpha0 = estimate_alpha(series, partition, fit.beta, b_prime)
    u, alpha = alpha0.u, alpha0.alpha
    sigma_final, floored_alpha = _floored_sigma_sq(series, M, N, alpha, fit.beta)
    var_xi = _var_xi_sq(fit.x_sq, sigma_final)

    if plugin:
        del alpha0  # its gram_inv would keep the alpha step's whole solve buffer through the sweep
        alpha, alpha_se, floored_mu = estimate_alpha_plugin(
            series,
            partition,
            fit.beta,
            b_prime,
            alpha_init=alpha,
            mu=mu,
            var_xi_sq=var_xi,
        )
        sigma_final, _ = _floored_sigma_sq(series, M, N, alpha, fit.beta)
    else:
        alpha_se = alpha_standard_errors(series, partition, alpha0, sigma_final, var_xi)
        floored_mu = 0

    sigma_for_cov, floored_cov = fitted_sigma_sq(series, partition, fit)
    cov = covariance_beta(series, fit, sigma_for_cov)

    return SemiparametricFit(
        partition=partition,
        beta=fit.beta,
        beta_se=cov.se,
        beta_cov=cov.v_hat,
        u=u,
        alpha=alpha,
        alpha_se=alpha_se,
        sigma_sq=sigma_final,
        bandwidth=b,
        bandwidth_prime=b_prime,
        plugin=plugin,
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
