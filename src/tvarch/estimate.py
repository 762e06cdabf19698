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


def resolve_weights(series: ReturnSeries, p: int, weights) -> np.ndarray:
    """The weights over t = p+1..T of a scheme name ('unit' | 'level') or an explicit weight array."""
    if isinstance(weights, str):
        if weights == UNIT:
            return np.ones(series.T - p)
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
    (n, ...) views of those arrays.
    """
    n, k = X.shape
    c = Y.shape[1]
    a, b = np.triu_indices(k)
    XT = X.T
    WXT = W * XT
    g = np.empty((a.shape[0] + k * c, n))
    row = 0
    for i in range(k):  # the triangle row by row: columns (i, i..k-1)
        np.multiply(WXT[i], XT[i:], out=g[row : row + k - i])
        row += k - i
    np.multiply(WXT[:, None, :], Y.T[None, :, :], out=g[row:].reshape(k, c, n))
    if leave_out is None:
        s = kernels.local_sums(g.T, window)
        s /= kernels.window_counts(n, window)[:, None]
    else:
        s = kernels.local_sums(g.T, kernels.leave_out_window(window, leave_out))
    sT = s.T
    gram = np.empty((k, k, n))
    gram[a, b] = gram[b, a] = sT[:row]
    return gram.transpose(2, 0, 1), sT[row:].reshape(k, c, n).transpose(2, 0, 1)


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
    """(n_t, k, c) solutions of L L' x = rhs: two substitutions over all columns at once."""
    y = np.array(rhs.transpose(1, 2, 0), order="C")  # a copy, overwritten in place
    for i in range(L.shape[0]):
        y[i] = (y[i] - np.einsum("pn,pcn->cn", L[i, :i], y[:i])) / L[i, i]
    for i in reversed(range(L.shape[0])):
        y[i] = (y[i] - np.einsum("pn,pcn->cn", L[i + 1 :, i], y[i + 1 :])) / L[i, i]
    return np.ascontiguousarray(y.transpose(2, 0, 1))


def _solve_gated(gram: np.ndarray, rhs: np.ndarray, first_t: int) -> np.ndarray:
    """Batched gram^-1 rhs; raises SingularMomentError at the first center failing the gate.

    The gate is rcond < _RCOND_GATE by eigenvalues (:func:`_psd_rcond`).  It
    runs only when the trace-bound certificate (:func:`_certify`) fails, and
    then the solve is LAPACK's, so every decision, center and rcond reported
    is the eigenvalue gate's.  A certified stack is solved with the
    certificate's own Cholesky factor; rhs columns of the identity give G^-1.
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


def _solve_design(gram: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """gram^-1 rhs for one symmetric design; raises SingularDesignError below the rcond gate."""
    rc = _psd_rcond(gram[None, ...])[0]
    if rc < _RCOND_GATE:
        raise SingularDesignError(f"{what} is singular (rcond={rc:.3e})")
    return np.linalg.solve(gram, rhs)


def _local_sandwich(Z: np.ndarray, X: np.ndarray, w_mid: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Per-center Z' S Z, S the local mean of w_mid X X': with Z = G^-1[:, c], block cc of G^-1 S G^-1."""
    return Z.transpose(0, 2, 1) @ local_wls(X, X[:, :0], w_mid, window)[0] @ Z


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
    return SmoothedMoments(s3=s3, cross=cross, first_t=p + 1)


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


def estimate_beta(
    series: ReturnSeries,
    partition: CoefficientPartition,
    weights,
    b: float,
    moments: SmoothedMoments | None = None,
) -> BetaFit:
    """Weighted least squares on the residualized regression, eq. of the two-step fit.

    ``moments`` are the partition's smoothed moments when the caller has them
    already (the constancy statistic reads them off the full fit's Gram);
    by default they are smoothed here.
    """
    if partition.n == 0:
        raise InputError("estimate_beta needs a nonempty constant block")
    M, N = regressor_matrices(series, partition)
    if moments is None:
        moments = smoothed_moments(series, partition, weights, b)
    q1, q2 = projection_ratios(moments)
    W = resolve_weights(series, partition.p, weights)
    x2t = series.values[partition.p :] ** 2

    v_resid = x2t - np.einsum("tm,tm->t", M, q1)
    o_resid = N - np.einsum("tmn,tm->tn", q2, M)
    gram = np.einsum("t,tm,tn->mn", W, o_resid, o_resid)
    rhs = np.einsum("t,tm,t->m", W, o_resid, v_resid)

    beta = _solve_design(gram, rhs, "residual design")

    return BetaFit(
        beta=beta,
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
    gram: np.ndarray  # (n_t, m, m): smoothed W M M' at the bandwidth


def estimate_alpha(
    series: ReturnSeries,
    partition: CoefficientPartition,
    beta: np.ndarray,
    weights,
    b_prime: float,
) -> AlphaFit:
    """Time-varying block on the grid u_t = t/T: alpha_t = q1 - q2 beta."""
    beta = _require_beta(beta, partition)
    moments = smoothed_moments(series, partition, weights, b_prime)
    q1, q2 = projection_ratios(moments)
    alpha = _plug_back(q1, q2, beta) if partition.n else q1
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
) -> np.ndarray:
    """Pointwise standard errors of alpha_hat from its asymptotic variance.

    V(u) = Var(xi^2) ||K||_2^2 E^-1(WMM') E(W^2 sigma^4 MM') E^-1(WMM'),
    with kernel-smoothed empirical counterparts; SE = sqrt(diag(V)/(T b')).
    E(WMM') is the gram ``fit`` was solved with.
    """
    M, _ = regressor_matrices(series, partition)
    W = resolve_weights(series, partition.p, weights)
    win = kernels.kernel_window(series.T, fit.bandwidth)
    eye = np.broadcast_to(np.eye(partition.m), fit.gram.shape)
    sandwich = _local_sandwich(_solve_gated(fit.gram, eye, partition.p + 1), M, W**2 * sigma_sq**2, win)
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
# its (centers, window) buffers to half a MB each at any T and b'.  Only the
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
    Mw, nbw, inside, prods = windows[:m], windows[m], windows[m + 1], windows[m + 2 :]

    s = np.empty((n_t, prods.shape[0]))
    floored = 0
    chunk = max(1, _SWEEP_CELLS // L)
    sig_buf = np.empty((min(chunk, n_t), L))
    tmp_buf = np.empty_like(sig_buf)
    for lo in range(0, n_t, chunk):
        hi = min(lo + chunk, n_t)
        rows = slice(lo, hi)
        sig, tmp = sig_buf[: hi - lo], tmp_buf[: hi - lo]
        np.copyto(sig, nbw[rows])
        for j in range(m):
            np.multiply(Mw[j, rows], alpha_init[rows, j, None], out=tmp)
            sig += tmp
        floored += int(np.count_nonzero((np.abs(sig, out=tmp) < floor) & (inside[rows] > 0.0)))
        np.square(sig, out=sig)
        if mu == 0.0:
            np.maximum(sig, floor * floor, out=sig)
        else:
            sig += mu
        np.einsum("cl,qcl->cq", np.divide(win, sig, out=sig), prods[:, rows], out=s[rows])
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
    behind its standard errors.  Volatilities with |sigma_{t,i}^2| below
    1e-12 * mean(x^2) are counted; with mu = 0 their sigma^4 is floored
    there.  Standard errors use the optimal asymptotic variance
    Var(xi^2) ||K||_2^2 E^-1(MM'/sigma^4) / (T b').

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

    alpha0 = estimate_alpha(series, partition, fit.beta, LEVEL, b_prime)
    sigma_final, floored_alpha = _floored_sigma_sq(series, M, N, alpha0.alpha, fit.beta)
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
        )
        sigma_final, _ = _floored_sigma_sq(series, M, N, alpha, fit.beta)
    else:
        alpha = alpha0.alpha
        alpha_se = alpha_standard_errors(series, partition, LEVEL, alpha0, sigma_final, var_xi)
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
