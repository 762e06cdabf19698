import dataclasses

import numpy as np
import pytest

from tvarch import (
    CoefficientFunction,
    CoefficientPartition,
    ReturnSeries,
    SimulationConfig,
    TvArchModel,
    estimate_alpha,
    estimate_alpha_plugin,
    estimate_beta,
    estimate_beta_plugin,
    covariance_beta,
    fit_semiparametric,
    level_weights,
    projection_ratios,
    simulate_path,
    smoothed_moments,
)
from tvarch.errors import DegenerateSeriesError, InputError, SingularDesignError, SingularMomentError
from tvarch.estimate import _certify, _local_sandwich, _solve_gated, fitted_sigma_sq, local_wls
from tvarch.kernels import kernel_window
from tvarch.model import canonical_matrix, regressor_matrices
from tvarch.simulate import derive_seed

import reference


def test_level_weights_constant_series():
    s = ReturnSeries(np.ones(50))
    W = level_weights(s, 1)
    np.testing.assert_allclose(W, 0.25)


def test_level_weights_p0():
    s = ReturnSeries(np.full(20, 2.0))
    np.testing.assert_allclose(level_weights(s, 0), 1.0 / 16.0)


def test_level_weights_scaling_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    c = 7.0
    W1 = level_weights(ReturnSeries(x), 2)
    W2 = level_weights(ReturnSeries(c * x), 2)
    np.testing.assert_allclose(W2, W1 / c**4, rtol=1e-12)


def test_level_weights_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=35)
    W = level_weights(ReturnSeries(x), 2)
    np.testing.assert_allclose(W, reference.level_weights(x, 2), rtol=1e-15)


def test_level_weights_degenerate():
    with pytest.raises(DegenerateSeriesError):
        level_weights(ReturnSeries(np.zeros(30)), 1)


def test_smoothed_moments_unit_intercept():
    rng = np.random.default_rng(2)
    s = ReturnSeries(rng.normal(size=40))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    mom = smoothed_moments(s, part, "unit", 0.2)
    np.testing.assert_allclose(mom.s3[:, 0, 0], 1.0, atol=1e-12)


def test_smoothed_moments_nadaraya_watson_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    s = ReturnSeries(x)
    part = CoefficientPartition(p=0, varying=(0,), constant=())
    mom = smoothed_moments(s, part, "unit", 0.25)
    x2 = x**2
    for r, t in enumerate(range(1, 41)):
        k = reference.norm_weights(t, 0.25, 40, 0)
        assert mom.s1[r, 0] == pytest.approx(float(k @ x2), abs=1e-12)


def test_smoothed_moments_box_global_window():
    rng = np.random.default_rng(4)
    s = ReturnSeries(rng.normal(size=30))
    part = CoefficientPartition(p=1, varying=(0, 1), constant=())
    # The moments of smoothed_moments, smoothed with a box window over all of [0, 1].
    M, N = regressor_matrices(s, part)
    Y = np.concatenate([s.values[1:, None] ** 2, N], axis=1)
    s3, _ = local_wls(M, Y, level_weights(s, 1), reference.box_array(np.arange(-s.T, s.T + 1) / s.T))
    np.testing.assert_allclose(s3, np.broadcast_to(s3[0], s3.shape), rtol=1e-12)


def test_projection_ratios_scalar_division():
    rng = np.random.default_rng(5)
    s = ReturnSeries(rng.normal(size=50))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    mom = smoothed_moments(s, part, "level", 0.2)
    q1, q2 = projection_ratios(mom)
    np.testing.assert_allclose(q1[:, 0], mom.s1[:, 0] / mom.s3[:, 0, 0], rtol=1e-12)
    np.testing.assert_allclose(q2[:, 0, 0], mom.s2[:, 0, 0] / mom.s3[:, 0, 0], rtol=1e-12)


def test_projection_ratios_no_constant_block():
    rng = np.random.default_rng(6)
    s = ReturnSeries(rng.normal(size=50))
    part = CoefficientPartition.fully_varying(1)
    q1, q2 = projection_ratios(smoothed_moments(s, part, "level", 0.3))
    assert q2.shape == (49, 2, 0)
    assert np.all(np.isfinite(q1))


def test_projection_ratios_explicit_inverse_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=30) * np.sqrt(1.5)
    s = ReturnSeries(x)
    part = CoefficientPartition(p=2, varying=(0, 1), constant=(2,))
    W = level_weights(s, 2)
    mom = smoothed_moments(s, part, "level", 0.3)
    q1, q2 = projection_ratios(mom)
    ref = reference.dense_semiparametric(x, (0, 1), (2,), W, 0.3)
    np.testing.assert_allclose(q1, ref["q1"], atol=1e-10)
    np.testing.assert_allclose(q2, ref["q2"], atol=1e-10)


def test_projection_singular_mass_at_zero():
    # A lag regressor that is identically zero makes s3 singular.
    x = np.zeros(30)
    x[::7] = 1.0  # sparse spikes; most lag products vanish
    s = ReturnSeries(np.concatenate([np.zeros(15), np.ones(15)]))
    part = CoefficientPartition(p=1, varying=(0, 1), constant=())
    with pytest.raises(SingularMomentError):
        projection_ratios(smoothed_moments(s, part, "unit", 0.05))


def test_estimate_beta_dense_oracle(series_small):
    part = CoefficientPartition.semiparametric(2)
    fit = estimate_beta(series_small, part, "level", 0.25)
    W = reference.level_weights(series_small.values, 2)
    ref = reference.dense_semiparametric(series_small.values, (0,), (1, 2), W, 0.25)
    np.testing.assert_allclose(fit.beta, ref["beta"], atol=1e-10)


def test_estimate_beta_requires_constant_block(series_small):
    with pytest.raises(InputError):
        estimate_beta(series_small, CoefficientPartition.fully_varying(1), "level", 0.2)


def test_estimate_beta_singular_residual_design():
    # x^2 = 1 everywhere: the lag regressor equals the local intercept, so its
    # residual on the M block, and with it the residual design, is exactly 0.
    s = ReturnSeries(np.where(np.arange(80) % 2, 1.0, -1.0))
    with pytest.raises(SingularDesignError, match="residual design"):
        estimate_beta(s, CoefficientPartition.semiparametric(2), "level", 0.3)


def test_estimate_beta_scale_invariance(series_mid):
    part = CoefficientPartition.semiparametric(2)
    b = 0.15
    base = estimate_beta(series_mid, part, "level", b)
    scaled = estimate_beta(ReturnSeries(100.0 * series_mid.values), part, "level", b)
    np.testing.assert_allclose(base.beta, scaled.beta, atol=1e-8)


def test_estimate_beta_residual_orthogonality(series_mid):
    part = CoefficientPartition.semiparametric(2)
    fit = estimate_beta(series_mid, part, "level", 0.15)
    resid = fit.v_resid - fit.o_resid @ fit.beta
    score = np.einsum("t,tn,t->n", fit.weights, fit.o_resid, resid)
    scale = np.abs(np.einsum("t,tn,t->n", fit.weights, fit.o_resid, fit.v_resid)).max()
    assert np.abs(score).max() <= 1e-8 * max(scale, 1e-30)


def test_estimate_alpha_pure_nonparametric(series_small):
    part = CoefficientPartition.fully_varying(1)
    af = estimate_alpha(series_small, part, np.empty(0), "level", 0.3)
    q1, _ = projection_ratios(smoothed_moments(series_small, part, "level", 0.3))
    np.testing.assert_allclose(af.alpha, q1, atol=1e-12)


def test_estimate_alpha_constant_truth_recovery():
    # Constant intercept: the mean of alpha_hat over the grid matches it.
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.constant(1.5), CoefficientFunction.constant(0.3))
    )
    part = CoefficientPartition.semiparametric(1)
    means = []
    for r in range(200):
        s = simulate_path(m, SimulationConfig(T=300, seed=derive_seed(71, r)))
        fit = estimate_beta(s, part, "level", 0.2)
        af = estimate_alpha(s, part, fit.beta, "level", 0.2)
        means.append(af.alpha[:, 0].mean())
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(means.shape[0])
    assert abs(means.mean() - 1.5) < 3.0 * se


def test_alpha_tracks_sinusoidal_intercept(sptv2_model):
    # Qualitative reproduction of the intercept-curve estimation: on the
    # median replication the fitted curve follows the sine (high pointwise
    # correlation, most interior points inside a +-0.5 band) and its grid
    # RMSE is consistent with the benchmark value ~0.33 at T=1500.
    from tvarch import cv_bandwidth_semiparametric

    stats = []
    part = CoefficientPartition.semiparametric(2)
    for r in range(5):
        s = simulate_path(sptv2_model, SimulationConfig(T=1500, seed=derive_seed(81, r)))
        b = cv_bandwidth_semiparametric(s, 2).bandwidth
        fit = estimate_beta(s, part, "level", b)
        af = estimate_alpha(s, part, fit.beta, "level", b)
        interior = (af.u >= 0.1) & (af.u <= 0.9)
        truth = sptv2_model.coeffs[0](af.u[interior])
        est = af.alpha[interior, 0]
        stats.append(
            (
                float(np.sqrt(np.mean((est - truth) ** 2))),
                float(np.corrcoef(est, truth)[0, 1]),
                float(np.mean(np.abs(est - truth) <= 0.5)),
            )
        )
    rmse = sorted(v[0] for v in stats)[2]
    corr = sorted(v[1] for v in stats)[2]
    cover = sorted(v[2] for v in stats)[2]
    assert rmse <= 0.5
    assert corr >= 0.8
    assert cover >= 0.7


def test_covariance_scalar_oracle(tv1_model):
    s = simulate_path(tv1_model, SimulationConfig(T=300, seed=23))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    fit = estimate_beta(s, part, "level", 0.2)
    sigma_sq, _ = fitted_sigma_sq(s, part, fit)
    cov = covariance_beta(s, fit, sigma_sq)
    T = s.T
    s1 = float(np.sum(fit.weights * fit.o_resid[:, 0] ** 2)) / T
    s2 = float(np.sum(fit.weights**2 * (fit.x_sq - sigma_sq) ** 2 * fit.o_resid[:, 0] ** 2)) / T
    assert cov.v_hat[0, 0] == pytest.approx(s2 / s1**2, rel=1e-10)
    assert cov.se[0] == pytest.approx(np.sqrt(cov.v_hat[0, 0] / T), rel=1e-12)


def test_covariance_psd(series_mid):
    part = CoefficientPartition.semiparametric(2)
    fit = estimate_beta(series_mid, part, "level", 0.15)
    sigma_sq, _ = fitted_sigma_sq(series_mid, part, fit)
    cov = covariance_beta(series_mid, fit, sigma_sq)
    assert np.linalg.eigvalsh(cov.sigma1).min() >= -1e-12
    assert np.linalg.eigvalsh(cov.sigma2).min() >= -1e-12


def test_fitted_sigma_sq_floor(series_mid):
    # sigma^2 = M'(q1 - q2 beta) + N'beta from the fit's own ratios.  Lowering
    # the intercept ratio by the median of sigma^2 pushes about half of it
    # below the floor 1e-12 * mean(x^2), where it is clipped and counted.
    part = CoefficientPartition(p=2, varying=(0, 1), constant=(2,))
    fit = estimate_beta(series_mid, part, "level", 0.2)
    x = series_mid.values
    M, N = reference.blocks(x, part.varying, part.constant, 2)
    raw = np.einsum("tm,tm->t", M, fit.q1 - fit.q2 @ fit.beta) + N @ fit.beta
    fit = dataclasses.replace(fit, q1=fit.q1 - np.array([np.median(raw), 0.0]))
    raw = np.einsum("tm,tm->t", M, fit.q1 - fit.q2 @ fit.beta) + N @ fit.beta
    floor = 1e-12 * float(np.mean(x**2))
    sig, floored = fitted_sigma_sq(series_mid, part, fit)
    assert 0 < floored == int(np.sum(raw < floor)) < raw.size
    np.testing.assert_allclose(sig, np.maximum(raw, floor), rtol=1e-13, atol=1e-13 * np.abs(raw).max())


def test_plugin_weight_injection_equivalence(series_mid):
    # Constant weights cancel from every step, so injecting the oracle
    # 1/sigma^4 weights for constant-volatility data reproduces the unit fit.
    part = CoefficientPartition.semiparametric(2)
    n_t = series_mid.T - 2
    w_oracle = np.full(n_t, 1.0 / 2.3**4)
    a = estimate_beta(series_mid, part, w_oracle, 0.2)
    b = estimate_beta(series_mid, part, "unit", 0.2)
    np.testing.assert_allclose(a.beta, b.beta, atol=1e-10)


def test_plugin_nu_insensitivity(sptv2_model):
    s = simulate_path(sptv2_model, SimulationConfig(T=1500, seed=99))
    part = CoefficientPartition.semiparametric(2)
    b = 0.12
    base = estimate_beta(s, part, "level", b)
    beta0, _ = estimate_beta_plugin(s, part, b, nu=0.0, base=base)
    beta1, _ = estimate_beta_plugin(s, part, b, nu=1500.0**-0.6, base=base)
    assert np.abs(beta0.beta - beta1.beta).max() < 1e-3


def test_plugin_alpha_constant_volatility_limit():
    # Nearly constant volatility: plug-in weights are nearly constant, so
    # alpha_star stays close to the initial estimate.
    m = TvArchModel(p=0, coeffs=(CoefficientFunction.constant(2.0),))
    s = simulate_path(m, SimulationConfig(T=600, seed=13))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    fit = estimate_beta(s, part, "level", 0.2)
    af = estimate_alpha(s, part, fit.beta, "level", 0.2)
    alpha_star, se, _ = estimate_alpha_plugin(
        s, part, fit.beta, 0.2, alpha_init=af.alpha, var_xi_sq=2.0
    )
    assert np.abs(alpha_star - af.alpha).max() < 0.25
    assert np.all(se > 0.0)


def test_plugin_alpha_scalar_variance_formula():
    # m = 1: the optimal variance reduces to Var(xi^2) ||K||^2 / E(1/sigma^4).
    m = TvArchModel(p=0, coeffs=(CoefficientFunction.constant(2.0),))
    s = simulate_path(m, SimulationConfig(T=400, seed=29))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    fit = estimate_beta(s, part, "level", 0.25)
    af = estimate_alpha(s, part, fit.beta, "level", 0.25)
    var_xi = 1.7
    alpha_star, se, _ = estimate_alpha_plugin(
        s, part, fit.beta, 0.25, alpha_init=af.alpha, var_xi_sq=var_xi
    )
    # Direct per-center reference, including both boundaries.
    from tvarch import k_l2_norm_sq

    T, p, b = s.T, 1, 0.25
    x2 = s.values**2
    M, N = regressor_matrices(s, part)
    n_beta = N @ fit.beta
    for r in (0, 3, 150, 200, T - p - 2, T - p - 1):
        k = reference.norm_weights(p + 1 + r, b, T, p)
        sig2 = af.alpha[r, 0] + n_beta
        w = k * (1.0 / sig2**2)
        s3 = w.sum()
        s1 = float(w @ x2[p:])
        s2b = float(w @ n_beta)
        assert alpha_star[r, 0] == pytest.approx((s1 - s2b) / s3, rel=1e-10)
        assert se[r, 0] == pytest.approx(
            np.sqrt(var_xi * k_l2_norm_sq() / s3 / (T * b)), rel=1e-10
        )


def test_plugin_alpha_general_block_oracle(series_mid):
    # m = 2: the sweep solves a 2x2 local system per center.
    part = CoefficientPartition(p=2, varying=(0, 1), constant=(2,))
    b = 0.2
    fit = estimate_beta(series_mid, part, "level", b)
    af = estimate_alpha(series_mid, part, fit.beta, "level", b)
    alpha_star, se, _ = estimate_alpha_plugin(
        series_mid, part, fit.beta, b, alpha_init=af.alpha, var_xi_sq=2.0
    )
    T, p = series_mid.T, 2
    x2 = series_mid.values**2
    M, N = regressor_matrices(series_mid, part)
    for r in (0, 17, 200, T - p - 1):
        k = reference.norm_weights(p + 1 + r, b, T, p)
        sig2 = M @ af.alpha[r] + N @ fit.beta
        w = k / sig2**2
        s3 = sum(w[i] * np.outer(M[i], M[i]) for i in range(T - p))
        s1 = sum(w[i] * M[i] * x2[p + i] for i in range(T - p))
        s2 = sum(w[i] * np.outer(M[i], N[i]) for i in range(T - p))
        w_norm_total = 1.0  # normalized reference weights already sum to one
        want = np.linalg.inv(s3 / w_norm_total) @ (s1 - s2 @ fit.beta)
        np.testing.assert_allclose(alpha_star[r], want, rtol=1e-8)
        from tvarch import k_l2_norm_sq

        var_diag = np.diag(np.linalg.inv(s3)) * 2.0 * k_l2_norm_sq() / (T * b)
        np.testing.assert_allclose(se[r], np.sqrt(var_diag), rtol=1e-8)


def _max_rel(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize(
    "varying,constant", [((0,), (1, 2)), ((0, 1), (2,)), ((0, 1, 3), (2,))], ids=["m1", "m2", "m3"]
)
def test_plugin_alpha_dense_oracle_every_center(varying, constant, mu):
    p = len(varying) + len(constant) - 1
    x = np.random.default_rng(31 + p).normal(size=70)
    s = ReturnSeries(x)
    part = CoefficientPartition(p=p, varying=varying, constant=constant)
    b = 0.3
    fit = estimate_beta(s, part, "level", b)
    af = estimate_alpha(s, part, fit.beta, "level", b)
    alpha, se, floored = estimate_alpha_plugin(
        s, part, fit.beta, b, alpha_init=af.alpha, var_xi_sq=1.7, mu=mu
    )
    ref_alpha, ref_se, ref_floored = reference.dense_alpha_plugin(
        x, varying, constant, fit.beta, b, af.alpha, 1.7, mu
    )
    assert floored == ref_floored
    assert _max_rel(alpha, ref_alpha) <= 1e-10
    assert _max_rel(se, ref_se) <= 1e-10


@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_plugin_alpha_dense_oracle_floors(mu):
    # sigma^2 = alpha_init vanishes on the first centers' whole windows.
    x = np.random.default_rng(37).normal(size=60)
    s = ReturnSeries(x)
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    beta = np.zeros(1)
    alpha_init = np.ones((59, 1))
    alpha_init[:12] = 0.0
    alpha, se, floored = estimate_alpha_plugin(
        s, part, beta, 0.2, alpha_init=alpha_init, var_xi_sq=2.0, mu=mu
    )
    ref_alpha, ref_se, ref_floored = reference.dense_alpha_plugin(
        x, (0,), (1,), beta, 0.2, alpha_init, 2.0, mu
    )
    assert floored == ref_floored > 0
    assert _max_rel(alpha, ref_alpha) <= 1e-10
    assert _max_rel(se, ref_se) <= 1e-10


def test_alpha_standard_errors_dense_sandwich():
    x = np.random.default_rng(41).normal(size=60)
    varying, constant, p, b = (0, 1), (2,), 2, 0.3
    part = CoefficientPartition(p=p, varying=varying, constant=constant)
    fit = fit_semiparametric(ReturnSeries(x), part, b)
    M, _ = reference.blocks(x, varying, constant, p)
    W = reference.level_weights(x, p)
    sandwich = reference.dense_sandwich(M, W, W**2 * fit.sigma_sq**2, b, 60, p)
    V = fit.diagnostics["var_xi_sq"] * 0.6 * sandwich
    want = np.sqrt(np.clip(np.diagonal(V, axis1=1, axis2=2), 0.0, None) / (60 * b))
    assert _max_rel(fit.alpha_se, want) <= 1e-10
    # The triangle-smoothed sandwich itself, on the k = 3 canonical design.
    X = reference.blocks(x, (0, 1, 2), (), p)[0]
    w_mid = np.random.default_rng(42).uniform(0.5, 2.0, size=60 - p)
    win = kernel_window(60, b)
    inv = np.linalg.inv(local_wls(X, X[:, :0], W, win)[0])
    want = reference.dense_sandwich(X, W, w_mid, b, 60, p)
    assert _max_rel(_local_sandwich(inv, X, w_mid, win), want) <= 1e-10
    # Some columns Z = G^-1[:, c] give the (c, c) block.
    assert _max_rel(_local_sandwich(inv[:, :, 1:], X, w_mid, win), want[:, 1:, 1:]) <= 1e-10


@pytest.mark.parametrize("k", [1, 3, 11])
@pytest.mark.parametrize("leave_out", [None, "p"])
def test_local_wls_symmetric_and_matches_dense(k, leave_out):
    rng = np.random.default_rng(7 + k)
    T, p, b = 40, 2, 0.3
    X = rng.uniform(0.5, 2.0, size=(T - p, k))
    Y = rng.normal(size=(T - p, 2))
    W = rng.uniform(0.5, 2.0, size=T - p)
    lo = p if leave_out == "p" else None
    gram, cross = local_wls(X, Y, W, kernel_window(T, b), leave_out=lo)
    np.testing.assert_array_equal(gram, gram.transpose(0, 2, 1))
    want_gram, want_cross = reference.dense_local_moments(X, Y, W, b, T, p, leave_out=lo)
    assert _max_rel(gram, want_gram) <= 1e-10
    assert _max_rel(cross, want_cross) <= 1e-10


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_plugin_nu_and_mu_must_be_finite_and_nonnegative(value):
    s = ReturnSeries(np.random.default_rng(0).standard_normal(200))
    part = CoefficientPartition.semiparametric(1)
    with pytest.raises(InputError, match="nu must be finite"):
        estimate_beta_plugin(s, part, 0.3, nu=value)
    with pytest.raises(InputError, match="mu must be finite"):
        estimate_alpha_plugin(s, part, np.array([0.3]), 0.3, alpha_init=np.ones((199, 1)), var_xi_sq=2.0, mu=value)


@pytest.fixture(scope="module")
def alpha_stage(sptv2_model):
    """A T=300 sptv(2) path with its beta and first-pass alpha at b=0.2."""
    s = simulate_path(sptv2_model, SimulationConfig(T=300, seed=2))
    part = CoefficientPartition.semiparametric(2)
    beta = estimate_beta(s, part, "level", 0.2).beta
    return s, part, beta, estimate_alpha(s, part, beta, "level", 0.2).alpha


def test_alpha_stage_rejects_a_beta_of_the_wrong_length(alpha_stage):
    s, part, beta, alpha = alpha_stage
    with pytest.raises(InputError, match="beta must hold n=2"):
        estimate_alpha(s, part, beta[:1], "level", 0.2)
    with pytest.raises(InputError, match="beta must hold n=2"):
        estimate_alpha_plugin(s, part, beta[:1], 0.2, alpha_init=alpha, var_xi_sq=1.7)


@pytest.mark.parametrize("kind", ["short", "wide", "non-finite"])
def test_plugin_alpha_rejects_a_malformed_alpha_init(alpha_stage, kind):
    s, part, beta, alpha = alpha_stage
    bad = {"short": alpha[1:], "wide": np.hstack([alpha, alpha]), "non-finite": alpha.copy()}[kind]
    if kind == "non-finite":
        bad[7, 0] = np.nan
    with pytest.raises(InputError, match="alpha_init"):
        estimate_alpha_plugin(s, part, beta, 0.2, alpha_init=bad, var_xi_sq=1.7)


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_plugin_alpha_rejects_a_negative_or_non_finite_var_xi_sq(alpha_stage, value):
    s, part, beta, alpha = alpha_stage
    with pytest.raises(InputError, match="var_xi_sq"):
        estimate_alpha_plugin(s, part, beta, 0.2, alpha_init=alpha, var_xi_sq=value)


def test_plugin_alpha_rejects_an_identically_zero_series():
    # Its floor would be 0, and the weights K / floor^2 off the series infinite.
    part = CoefficientPartition.semiparametric(1)
    with pytest.raises(DegenerateSeriesError):
        estimate_alpha_plugin(ReturnSeries(np.zeros(100)), part, np.array([0.3]), 0.2, np.ones((99, 1)), 1.7)


@pytest.mark.parametrize("b", [0.04, 0.06, 1.0], ids=["half-below-p", "half-equal-p", "longer-than-series"])
def test_local_wls_leave_out_matches_dense_at_any_window_length(b):
    rng = np.random.default_rng(11)
    T, p = 40, 2
    X = rng.uniform(0.5, 2.0, size=(T - p, 3))
    Y = rng.normal(size=(T - p, 2))
    W = rng.uniform(0.5, 2.0, size=T - p)
    gram, cross = local_wls(X, Y, W, kernel_window(T, b), leave_out=p)
    want_gram, want_cross = reference.dense_local_moments(X, Y, W, b, T, p, leave_out=p)
    assert _max_rel(gram, want_gram) <= 1e-10
    assert _max_rel(cross, want_cross) <= 1e-10


@pytest.mark.parametrize("b", [0.05, 0.073, 0.1])
def test_local_wls_leave_out_exact_zero_where_nothing_is_left(b):
    # At T=40, p=3 the first center keeps no index of positive weight: the
    # window's nonzero entries past the hole lie before it or at K(+-1) = 0.
    T, p = 40, 3
    s = ReturnSeries(np.random.default_rng(5).standard_normal(T))
    X = canonical_matrix(s, p)
    W = level_weights(s, p)
    gram, cross = local_wls(X, (s.values[p:] ** 2)[:, None], W, kernel_window(T, b), leave_out=p)
    n = T - p
    kept = np.array(
        [any(not r <= i <= r + p and reference.epan((r - i) / (T * b)) > 0.0 for i in range(n)) for r in range(n)]
    )
    assert not kept.all() and kept.any()
    np.testing.assert_array_equal(gram[~kept], 0.0)
    np.testing.assert_array_equal(cross[~kept], 0.0)
    assert np.all(np.einsum("tii->t", gram[kept]) > 0.0)


def test_solve_gated_certificate_margin():
    # rcond 1e-9 is certified by Cholesky; 10^-11.5 lies inside the margin, so
    # only the eigenvalue gate passes it; 10^-12.5 fails the gate.
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    stack = np.stack([(Q * 10.0 ** np.linspace(0.0, e, 3)) @ Q.T for e in (-9.0, -11.5, -12.5)])
    stack = 0.5 * (stack + stack.transpose(0, 2, 1))
    assert _certify(stack[:1]) is not None and _certify(stack[:2]) is None
    rhs = np.ones((3, 3, 1))
    np.testing.assert_array_equal(_solve_gated(stack[:2], rhs[:2], 1), np.linalg.solve(stack[:2], rhs[:2]))
    # Near the subnormals only the eigenvalues decide.
    tiny = 1e-300 * stack[:1]
    assert _certify(tiny) is None
    np.testing.assert_array_equal(_solve_gated(tiny, rhs[:1], 1), np.linalg.solve(tiny, rhs[:1]))
    with pytest.raises(SingularMomentError) as err:
        _solve_gated(stack, rhs, 1)
    assert err.value.t == 3 and err.value.rcond == pytest.approx(10.0**-12.5, rel=1e-3)


def test_certificate_leaves_near_subnormal_traces_to_the_eigenvalues():
    # A well-conditioned stack whose trace is too small for relative rounding
    # is not certified; the eigenvalue gate passes it and LAPACK solves it.
    rhs = np.ones((2, 3, 1))
    for scale in (1e-290, 1e-300):
        stack = scale * np.broadcast_to(np.diag([1.0, 2.0, 3.0]), (2, 3, 3))
        assert _certify(stack) is None
        np.testing.assert_array_equal(_solve_gated(stack, rhs, 1), np.linalg.solve(stack, rhs))


@pytest.mark.parametrize("k", [1, 2, 3, 11])
def test_certified_solve_and_inverse_match_dense(k):
    # Well-conditioned stacks take the certified route: its Cholesky solutions
    # and the G^-1 read off identity columns match per-matrix dense solves.
    rng = np.random.default_rng(17 + k)
    n_t = 40
    A = rng.normal(size=(n_t, k, 3 * k))
    gram = 10.0 ** rng.uniform(-3.0, 3.0, (n_t, 1, 1)) * (A @ A.transpose(0, 2, 1)) / (3 * k)
    rhs = rng.normal(size=(n_t, k, 2))
    assert _certify(gram) is not None
    sol = _solve_gated(gram, np.concatenate([rhs, np.broadcast_to(np.eye(k), gram.shape)], axis=2), 1)
    want_x = np.stack([np.linalg.solve(G, b) for G, b in zip(gram, rhs)])
    want_inv = np.stack([np.linalg.inv(G) for G in gram])
    for r in range(n_t):
        assert _max_rel(sol[r, :, :2], want_x[r]) <= 1e-10
        assert _max_rel(sol[r, :, 2:], want_inv[r]) <= 1e-10


def test_plugin_no_flooring_on_healthy_run(sptv2_model):
    s = simulate_path(sptv2_model, SimulationConfig(T=1500, seed=101))
    part = CoefficientPartition.semiparametric(2)
    fit = fit_semiparametric(s, part, 0.12, plugin=True)
    assert fit.diagnostics["floored_plugin_windows"] == 0
    assert fit.diagnostics["floored_sigma"] == 0


def test_fit_semiparametric_serialization(series_mid):
    import json

    part = CoefficientPartition.semiparametric(2)
    fit = fit_semiparametric(series_mid, part, 0.2)
    payload = json.dumps(fit.to_dict(), sort_keys=True)
    assert "beta" in payload and "alpha" in payload
    assert len(fit.to_dict()["alpha"]) == series_mid.T - 2


def test_oracle_equivalence_random_instances():
    # Mini version of the acceptance sweep: random partitions, T <= 80.
    rng = np.random.default_rng(55)
    for trial in range(8):
        T = int(rng.integers(40, 81))
        p = int(rng.integers(1, 3))
        idx = list(range(p + 1))
        rng.shuffle(idx)
        n = int(rng.integers(1, p + 1))
        constant = tuple(sorted(idx[:n]))
        varying = tuple(sorted(idx[n:]))
        if 0 not in varying:
            varying, constant = tuple(sorted(varying + (0,))), tuple(
                sorted(set(constant) - {0})
            )
            if not constant:
                continue
        x = rng.normal(size=T) * rng.uniform(0.5, 2.0)
        s = ReturnSeries(x)
        b = float(rng.uniform(0.15, 0.4))
        part = CoefficientPartition(p=p, varying=varying, constant=constant)
        W = reference.level_weights(x, p)
        ref = reference.dense_semiparametric(x, varying, constant, W, b)
        fit = estimate_beta(s, part, "level", b)
        np.testing.assert_allclose(fit.beta, ref["beta"], atol=1e-10)
        af = estimate_alpha(s, part, fit.beta, "level", b)
        np.testing.assert_allclose(af.alpha, ref["alpha"], atol=1e-10)
