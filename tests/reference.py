"""Independent dense reference implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
Python loops, explicit matrix inverses, and its own kernel evaluation, so
agreement with the package is evidence and not tautology.
"""

import math

import numpy as np


def epan(x: float) -> float:
    return 0.75 * (1.0 - x * x) if abs(x) <= 1.0 else 0.0


def epan_array(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) <= 1.0, 0.75 * (1.0 - v * v), 0.0)


def box_array(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) <= 1.0, 0.5, 0.0)


def _simpson(y: np.ndarray, h) -> np.ndarray:
    """Composite Simpson rule along the last axis of samples y at an odd node count, spacing h."""
    odd, even = y[..., 1:-1:2].sum(axis=-1), y[..., 2:-1:2].sum(axis=-1)
    return h / 3.0 * (y[..., 0] + y[..., -1] + 4.0 * odd + 2.0 * even)


def simpson_l2_norm_sq(kernel, nodes: int = 4097) -> float:
    """int_{-1}^{1} K(v)^2 dv by Simpson's rule on ``nodes`` (odd) points."""
    y = kernel(np.linspace(-1.0, 1.0, nodes)) ** 2
    return float(_simpson(y, 2.0 / (nodes - 1)))


def simpson_k_star(x, kernel, nodes: int = 4097) -> np.ndarray:
    """K*(x) = int_{-1}^{1-2|x|} K(v) K(v + 2|x|) dv by Simpson's rule, per point of x.

    Points go 256 at a time, which bounds the (points, nodes) temporaries.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    for lo in range(0, xs.shape[0], 256):
        a = 2.0 * np.abs(xs[lo : lo + 256])
        hi = 1.0 - a
        h = (hi + 1.0) / (nodes - 1)
        # np.linspace(-1, hi, nodes) for each row: the last node is exactly hi,
        # so v + a ends exactly at the kernel's edge.
        v = np.arange(nodes) * h[:, None] - 1.0
        v[:, -1] = hi
        y = kernel(v) * kernel(v + a[:, None])
        out[lo : lo + 256] = np.where(hi > -1.0, _simpson(y, h), 0.0)
    return out


def simpson_k_star_l2_norm_sq(kernel, nodes: int = 4097) -> float:
    """int_{-1}^{1} K*(x)^2 dx, with K* even: twice the Simpson integral over [0, 1]."""
    y = simpson_k_star(np.linspace(0.0, 1.0, nodes), kernel, nodes) ** 2
    return float(2.0 * _simpson(y, 1.0 / (nodes - 1)))


def norm_weights(t: int, b: float, T: int, p: int) -> np.ndarray:
    """k(t, i; b) over i = p+1..T by direct summation."""
    raw = np.array([epan((t - i) / (T * b)) for i in range(p + 1, T + 1)])
    return raw / raw.sum()


def level_weights(x: np.ndarray, p: int) -> np.ndarray:
    T = x.shape[0]
    x2 = x**2
    v_hat = x2.mean()
    return np.array(
        [(v_hat + sum(x2[t - 1 - j] for j in range(1, p + 1))) ** -2 for t in range(p + 1, T + 1)]
    )


def blocks(x: np.ndarray, varying, constant, p: int):
    """(M, N) regressor matrices over t = p+1..T."""
    T = x.shape[0]
    x2 = x**2

    def entry(t, j):
        return 1.0 if j == 0 else x2[t - 1 - j]

    M = np.array([[entry(t, j) for j in varying] for t in range(p + 1, T + 1)])
    N = np.array([[entry(t, j) for j in constant] for t in range(p + 1, T + 1)])
    if N.size == 0:
        N = N.reshape(T - p, 0)
    return M, N


def dense_semiparametric(x: np.ndarray, varying, constant, W: np.ndarray, b: float):
    """q ratios, residualized WLS beta, and alpha grid by direct evaluation."""
    p = len(varying) + len(constant) - 1
    T = x.shape[0]
    x2 = x**2
    M, N = blocks(x, varying, constant, p)
    n_t = T - p

    q1 = np.empty((n_t, M.shape[1]))
    q2 = np.empty((n_t, M.shape[1], N.shape[1]))
    for r, t in enumerate(range(p + 1, T + 1)):
        k = norm_weights(t, b, T, p)
        s3 = sum(k[i] * W[i] * np.outer(M[i], M[i]) for i in range(n_t))
        s1 = sum(k[i] * W[i] * M[i] * x2[p + i] for i in range(n_t))
        s2 = sum(k[i] * W[i] * np.outer(M[i], N[i]) for i in range(n_t))
        inv = np.linalg.inv(s3)
        q1[r] = inv @ s1
        q2[r] = inv @ s2

    V = np.array([x2[p + i] - M[i] @ q1[i] for i in range(n_t)])
    O = np.array([N[i] - q2[i].T @ M[i] for i in range(n_t)])
    gram = sum(W[i] * np.outer(O[i], O[i]) for i in range(n_t))
    rhs = sum(W[i] * O[i] * V[i] for i in range(n_t))
    beta = np.linalg.inv(gram) @ rhs
    alpha = np.array([q1[i] - q2[i] @ beta for i in range(n_t)])
    return {"q1": q1, "q2": q2, "V": V, "O": O, "beta": beta, "alpha": alpha, "gram": gram}


def dense_nonparametric(x: np.ndarray, p: int, W: np.ndarray, b: float) -> np.ndarray:
    """Full kernel fit of (a_0, ..., a_p) on the grid t = p+1..T."""
    T = x.shape[0]
    x2 = x**2
    X = np.array(
        [[1.0] + [x2[t - 1 - j] for j in range(1, p + 1)] for t in range(p + 1, T + 1)]
    )
    n_t = T - p
    out = np.empty((n_t, p + 1))
    for r, t in enumerate(range(p + 1, T + 1)):
        k = norm_weights(t, b, T, p)
        S = sum(k[i] * W[i] * np.outer(X[i], X[i]) for i in range(n_t))
        R = sum(k[i] * W[i] * x2[p + i] * X[i] for i in range(n_t))
        out[r] = np.linalg.inv(S) @ R
    return out


def dense_second_order(x: np.ndarray, p: int, b: float):
    """Centered-lag OLS, correction factor, and the truncated statistic."""
    T = x.shape[0]
    x2 = x**2
    d = np.empty(T)
    for t in range(1, T + 1):
        raw = np.array([epan((t - i) / (T * b)) for i in range(p + 1, T + 1)])
        d[t - 1] = (raw * x2[p:]).sum() / raw.sum()
    H = x2 - d
    y = H[p:]
    X = np.column_stack([H[p - j : T - j] for j in range(1, p + 1)])
    a_hat = np.linalg.inv(X.T @ X) @ (X.T @ y)
    sigma_sq = T * np.sum(d**4) / np.sum(d**2) ** 2
    psi = T * np.sum(np.maximum(a_hat, 0.0) ** 2) / sigma_sq
    return a_hat, psi, sigma_sq


def dense_cv_tvarch_score(x: np.ndarray, p: int, W: np.ndarray, b: float) -> float:
    """Leave-(p+1)-out cross-validation score by direct summation."""
    T = x.shape[0]
    x2 = x**2
    X = np.array(
        [[1.0] + [x2[t - 1 - j] for j in range(1, p + 1)] for t in range(p + 1, T + 1)]
    )
    n_t = T - p
    score = 0.0
    for r, t in enumerate(range(p + 1, T + 1)):
        S = np.zeros((p + 1, p + 1))
        R = np.zeros(p + 1)
        for i, k_idx in enumerate(range(p + 1, T + 1)):
            if t <= k_idx <= t + p:
                continue
            w = epan((t - k_idx) / (T * b))
            S += w * W[i] * np.outer(X[i], X[i])
            R += w * W[i] * x2[p + i] * X[i]
        a_loo = np.linalg.inv(S) @ R
        score += W[r] * (x2[p + r] - X[r] @ a_loo) ** 2
    return score


def dense_cv_semiparametric(x: np.ndarray, p: int, b: float):
    """Leave-out ratio estimates and the inner WLS beta for the constant-lags model."""
    T = x.shape[0]
    x2 = x**2
    W = level_weights(x, p)
    N = np.array([[x2[t - 1 - j] for j in range(1, p + 1)] for t in range(p + 1, T + 1)])
    n_t = T - p
    q1 = np.empty(n_t)
    q2 = np.empty((n_t, p))
    for r, t in enumerate(range(p + 1, T + 1)):
        s3 = s1 = 0.0
        s2 = np.zeros(p)
        for i, k_idx in enumerate(range(p + 1, T + 1)):
            if t <= k_idx <= t + p:
                continue
            w = epan((t - k_idx) / (T * b))
            s3 += w * W[i]
            s1 += w * W[i] * x2[p + i]
            s2 += w * W[i] * N[i]
        q1[r] = s1 / s3
        q2[r] = s2 / s3
    y = x2[p:] - q1
    Z = N - q2
    gram = sum(W[i] * np.outer(Z[i], Z[i]) for i in range(n_t))
    rhs = sum(W[i] * Z[i] * y[i] for i in range(n_t))
    beta = np.linalg.inv(gram) @ rhs
    score = float(sum(W[i] * (y[i] - Z[i] @ beta) ** 2 for i in range(n_t)))
    return beta, score


def dense_sandwich(X: np.ndarray, W: np.ndarray, w_mid: np.ndarray, b: float, T: int, p: int) -> np.ndarray:
    """Per-center S^-1 S_mid S^-1 with S = sum_i k W_i X_i X_i' and S_mid = sum_i k w_mid_i X_i X_i'."""
    n_t = T - p
    out = np.empty((n_t, X.shape[1], X.shape[1]))
    for r, t in enumerate(range(p + 1, T + 1)):
        k = norm_weights(t, b, T, p)
        S = sum(k[i] * W[i] * np.outer(X[i], X[i]) for i in range(n_t))
        S_mid = sum(k[i] * w_mid[i] * np.outer(X[i], X[i]) for i in range(n_t))
        inv = np.linalg.inv(S)
        out[r] = inv @ S_mid @ inv
    return out


# Squared L2 norms of the Epanechnikov kernel K and of its overlap function
# K*(x) = (K conv K)(2x); the autoconvolution is (3/160)(2-u)^3(u^2+6u+4) on
# [0, 2], and int_{-1}^{1} K*(x)^2 dx = int_0^2 (K conv K)(u)^2 du = 167/770.
K_L2_SQ = 0.6
K_STAR_L2_SQ = 167.0 / 770.0


def dense_constancy(x: np.ndarray, varying, constant, W: np.ndarray, b: float) -> dict:
    """The constancy statistic with Gamma = I, from the dense full fit, beta and sandwich.

    S_T = sum_t |a_tilde_c(t) - beta|^2 / T, and varpi1, varpi2 are the traces
    of O_cc and O_cc^2 averaged over t, O = S^-1 S_mid S^-1 with S_mid the
    smoothed W^2 (x^2 - X'a_tilde)^2 X X'.
    """
    p = len(varying) + len(constant) - 1
    T = x.shape[0]
    c = list(constant)
    X = blocks(x, range(p + 1), (), p)[0]
    a_tilde = dense_nonparametric(x, p, W, b)
    beta = dense_semiparametric(x, varying, constant, W, b)["beta"]
    resid = np.array([x[p + i] ** 2 - X[i] @ a_tilde[i] for i in range(T - p)])
    o_cc = dense_sandwich(X, W, W**2 * resid**2, b, T, p)[:, c][:, :, c]
    s_t = sum(float((a_tilde[i, c] - beta) @ (a_tilde[i, c] - beta)) for i in range(T - p)) / T
    varpi1 = sum(np.trace(o) for o in o_cc) / T
    varpi2 = sum(np.trace(o @ o) for o in o_cc) / T
    e_t = T * math.sqrt(b) * (s_t - K_L2_SQ * varpi1 / (T * b)) / (2.0 * math.sqrt(K_STAR_L2_SQ * varpi2))
    return {"s_t": s_t, "varpi1": varpi1, "varpi2": varpi2, "e_t": e_t, "beta": beta}


def dense_plugin_moments(
    x: np.ndarray, varying, constant, beta, b: float, alpha_init, mu: float = 0.0, floor_rel: float = 1e-12
):
    """Plug-in local moments with weights K / (sigma_{t,i}^4 + mu), one center and one index at a time.

    sigma_{t,i}^2 = M_i'alpha_init[t] + N_i'beta over the window rows |t - i| <= T b;
    entries with |sigma^2| < floor_rel * mean(x^2) are counted and, with mu = 0,
    their sigma^4 is floored there.  Returns the normalized (n_t, m, m) local
    mean of M M' / sigma^4, the (n_t, m) one of M (x^2 - N'beta) / sigma^4,
    and the floored count.
    """
    p = len(varying) + len(constant) - 1
    T = x.shape[0]
    x2 = x**2
    M, N = blocks(x, varying, constant, p)
    m = M.shape[1]
    n_t = T - p
    nb = N @ np.asarray(beta, dtype=float) if N.shape[1] else np.zeros(n_t)
    floor = floor_rel * x2.mean()
    gram = np.empty((n_t, m, m))
    cross = np.empty((n_t, m))
    floored = 0
    for r, t in enumerate(range(p + 1, T + 1)):
        S = np.zeros((m, m))
        R = np.zeros(m)
        mass = 0.0
        for i, s in enumerate(range(p + 1, T + 1)):
            if abs(t - s) > T * b:
                continue
            sig2 = M[i] @ alpha_init[r] + nb[i]
            if abs(sig2) < floor:
                floored += 1
            sig4 = max(sig2 * sig2, floor * floor) if mu == 0.0 else sig2 * sig2
            k = epan((t - s) / (T * b))
            mass += k
            S += k / (sig4 + mu) * np.outer(M[i], M[i])
            R += k / (sig4 + mu) * M[i] * (x2[p + i] - nb[i])
        gram[r] = S / mass
        cross[r] = R / mass
    return gram, cross, floored


def dense_alpha_plugin(
    x: np.ndarray, varying, constant, beta, b: float, alpha_init, var_xi_sq: float, mu: float = 0.0,
    floor_rel: float = 1e-12,
):
    """Plug-in alpha and its standard errors from :func:`dense_plugin_moments`, one center at a time.

    Returns (alpha, se, floored count).
    """
    gram, cross, floored = dense_plugin_moments(x, varying, constant, beta, b, alpha_init, mu, floor_rel)
    k2 = 0.6  # squared L2 norm of the Epanechnikov kernel
    T = x.shape[0]
    alpha = np.empty(cross.shape)
    se = np.empty(cross.shape)
    for r in range(cross.shape[0]):
        inv = np.linalg.inv(gram[r])
        alpha[r] = inv @ cross[r]
        se[r] = np.sqrt(np.diag(inv) * var_xi_sq * k2 / (T * b))
    return alpha, se, floored


def dense_local_sums(values: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Per center t = 0..n-1 along axis 0, sum_i window[half + t - i] * values[i] over in-range i."""
    v = np.asarray(values, dtype=float)
    half = (len(window) - 1) // 2
    out = np.zeros(v.shape)
    for t in range(v.shape[0]):
        for i in range(v.shape[0]):
            if 0 <= half + t - i < len(window):
                out[t] += window[half + t - i] * v[i]
    return out


def dense_window_counts(n: int, window: np.ndarray) -> np.ndarray:
    """Per center t = 0..n-1, the window mass sum_i window[half + t - i] over in-range i."""
    half = (len(window) - 1) // 2
    return np.array(
        [sum(window[half + t - i] for i in range(n) if 0 <= half + t - i < len(window)) for t in range(n)]
    )


def dense_local_moments(X: np.ndarray, Y: np.ndarray, W: np.ndarray, b: float, T: int, p: int, leave_out=None):
    """Per-center sums of k W_i X_i X_i' and k W_i X_i Y_i' over rows i of t = p+1..T.

    k is the normalized weight, or with ``leave_out=q`` the raw kernel weight
    with rows r..r+q of center r dropped (the leave-(q+1)-out sums).
    """
    n_t = T - p
    gram = np.empty((n_t, X.shape[1], X.shape[1]))
    cross = np.empty((n_t, X.shape[1], Y.shape[1]))
    for r, t in enumerate(range(p + 1, T + 1)):
        if leave_out is None:
            k = norm_weights(t, b, T, p)
        else:
            k = np.array([0.0 if r <= i <= r + leave_out else epan((r - i) / (T * b)) for i in range(n_t)])
        gram[r] = sum(k[i] * W[i] * np.outer(X[i], X[i]) for i in range(n_t))
        cross[r] = sum(k[i] * W[i] * np.outer(X[i], Y[i]) for i in range(n_t))
    return gram, cross


def eigvalsh_gate_solve(gram: np.ndarray, rhs: np.ndarray, first_t: int):
    """The rcond gate by eigenvalues alone, then the batched solve.

    Returns ("solve", solution), or ("raise", t, rcond) for the first center
    whose rcond = lambda_min / lambda_max falls below 1e-12; a matrix with a
    non-finite entry, or with lambda_max <= 0, has rcond 0.
    """
    rconds = []
    for G in gram:
        if not np.isfinite(G).all():
            rconds.append(0.0)
            continue
        lam = np.linalg.eigvalsh(G)
        rconds.append(max(lam[0] / lam[-1], 0.0) if lam[-1] > 0.0 else 0.0)
    for r, rc in enumerate(rconds):
        if rc < 1e-12:
            return ("raise", first_t + r, rc)
    return ("solve", np.linalg.solve(gram, rhs))


def simulate_recursion(coeffs, T: int, seed: int, burn_in: int = 500, df=None) -> np.ndarray:
    """x_1..x_T of sigma_t^2 = a_0(t/T) + sum_j a_j(t/T) x_{t-j}^2, x_t = xi_t sigma_t, by plain loops.

    ``coeffs`` are the p+1 coefficient curves, evaluated on the grid t/T.  The
    burn_in + p steps before t = 1 run at the frozen a_j(0), started from the
    stationary mean a_0(0) / (1 - sum_j a_j(0)) of x^2.  xi is drawn from
    Philox(key=seed): standard normal, or Student-t(df) scaled to unit variance.
    """
    p = len(coeffs) - 1
    n_pre = burn_in + p
    rng = np.random.Generator(np.random.Philox(key=seed))
    if df is None:
        xi = rng.standard_normal(n_pre + T)
    else:
        xi = rng.standard_t(df, size=n_pre + T) * np.sqrt((df - 2.0) / df)
    frozen = [float(c(0.0)) for c in coeffs]
    grid = np.arange(1, T + 1) / T
    curves = [np.broadcast_to(c(grid), (T,)) for c in coeffs]
    lag_total = 0.0
    for a in frozen[1:]:
        lag_total += a
    x_sq = [frozen[0] / (1.0 - lag_total)] * p
    x = []
    for s in range(n_pre + T):
        a = frozen if s < n_pre else [float(curve[s - n_pre]) for curve in curves]
        sigma_sq = a[0]
        for j in range(1, p + 1):
            sigma_sq += a[j] * x_sq[-j]
        x.append(float(xi[s]) * math.sqrt(sigma_sq))
        x_sq.append(x[-1] ** 2)
    return np.array(x[n_pre:])
