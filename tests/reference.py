"""Independent dense reference implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
Python loops, explicit matrix inverses, and its own kernel evaluation, so
agreement with the package is evidence and not tautology.
"""

import numpy as np


def epan(x: float) -> float:
    return 0.75 * (1.0 - x * x) if abs(x) <= 1.0 else 0.0


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


def dense_alpha_plugin(
    x: np.ndarray, varying, constant, beta, b: float, alpha_init, var_xi_sq: float, mu: float = 0.0,
    floor_rel: float = 1e-12,
):
    """Plug-in alpha with weights K / (sigma_{t,i}^4 + mu), one center and one index at a time.

    sigma_{t,i}^2 = M_i'alpha_init[t] + N_i'beta over the window rows |t - i| <= T b;
    entries with |sigma^2| < floor_rel * mean(x^2) are counted and, with mu = 0,
    their sigma^4 is floored there.  Returns (alpha, se, floored count).
    """
    p = len(varying) + len(constant) - 1
    T = x.shape[0]
    x2 = x**2
    M, N = blocks(x, varying, constant, p)
    m = M.shape[1]
    n_t = T - p
    nb = N @ np.asarray(beta, dtype=float) if N.shape[1] else np.zeros(n_t)
    floor = floor_rel * x2.mean()
    k2 = 0.6  # squared L2 norm of the Epanechnikov kernel
    alpha = np.empty((n_t, m))
    se = np.empty((n_t, m))
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
        inv = np.linalg.inv(S / mass)
        alpha[r] = inv @ (R / mass)
        se[r] = np.sqrt(np.diag(inv) * var_xi_sq * k2 / (T * b))
    return alpha, se, floored
