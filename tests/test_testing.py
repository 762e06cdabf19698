import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from tvarch import (
    CoefficientFunction,
    CoefficientPartition,
    ReturnSeries,
    SimulationConfig,
    TvArchModel,
    constancy_statistic,
    mc_pivotal_quantiles,
    nonparametric_fit,
    second_order_statistic,
    simulate_path,
)
from tvarch import test_constancy as run_constancy_test
from tvarch import test_second_order as run_second_order_test
from tvarch import test_zero_wald as run_zero_wald_test
from tvarch import estimate
from tvarch.errors import InputError, NumericalError, SingularDesignError, SingularMomentError
from tvarch.estimate import _certify, _solve_gated, estimate_beta, local_wls, resolve_weights
from tvarch.kernels import k_l2_norm_sq, k_star_l2_norm_sq, kernel_window
from tvarch.model import canonical_matrix
from tvarch.simulate import derive_seed
from tvarch.testing import _chi2_sf, _wald_statistic, asymptotic_psi_quantile, mc_p_value, mc_quantile

import reference


# ---------------------------------------------------------------------------
# Nonparametric full fit.


def test_nonparametric_p0_scalar_formula():
    rng = np.random.default_rng(0)
    x = rng.normal(size=60)
    s = ReturnSeries(x)
    W = np.full(60, (x**2).mean() ** -2)
    fit = nonparametric_fit(s, 0, "level", 0.2)
    x2 = x**2
    for r, t in enumerate(range(1, 61)):
        k = reference.norm_weights(t, 0.2, 60, 0)
        want = float((k * W * x2).sum() / (k * W).sum())
        assert fit.a_tilde[r, 0] == pytest.approx(want, rel=1e-10)


def test_nonparametric_box_global_equals_stationary_fit():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50) * 1.3
    s = ReturnSeries(x)
    # The local fit of nonparametric_fit, smoothed with a box window over all of [0, 1].
    X = canonical_matrix(s, 1)
    W = reference.level_weights(x, 1)
    x2t = x[1:] ** 2
    local_gram, cross = local_wls(X, x2t[:, None], W, reference.box_array(np.arange(-s.T, s.T + 1) / s.T))
    a_tilde = _solve_gated(local_gram, cross, 2)[..., 0]
    # constant in u
    np.testing.assert_allclose(a_tilde, np.broadcast_to(a_tilde[0], a_tilde.shape), rtol=1e-10)
    # equals the global weighted least squares fit
    gram = (W[:, None, None] * X[:, :, None] * X[:, None, :]).sum(0)
    rhs = (W * x2t)[:, None] * X
    want = np.linalg.solve(gram, rhs.sum(0))
    np.testing.assert_allclose(a_tilde[0], want, rtol=1e-10)


def test_nonparametric_dense_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=50)
    s = ReturnSeries(x)
    W = reference.level_weights(x, 2)
    fit = nonparametric_fit(s, 2, "level", 0.3)
    want = reference.dense_nonparametric(x, 2, W, 0.3)
    np.testing.assert_allclose(fit.a_tilde, want, atol=1e-10)


def test_constancy_variance_functionals_dense_sandwich():
    # varpi1 and varpi2 are built from the sandwich G^-1 O G^-1 of the full fit.
    x = np.random.default_rng(43).normal(size=60)
    p, T, b = 2, 60, 0.35
    part = CoefficientPartition(p=p, varying=(0, 1), constant=(2,))
    stat = constancy_statistic(ReturnSeries(x), part, "level", b)
    X, _ = reference.blocks(x, (0, 1, 2), (), p)
    W = reference.level_weights(x, p)
    a_tilde = reference.dense_nonparametric(x, p, W, b)
    resid = x[p:] ** 2 - np.einsum("tk,tk->t", X, a_tilde)
    o_cc = reference.dense_sandwich(X, W, W**2 * resid**2, b, T, p)[:, 2:, 2:]
    varpi1 = np.trace(o_cc, axis1=1, axis2=2).sum() / T
    varpi2 = (o_cc * o_cc.transpose(0, 2, 1)).sum() / T
    assert stat.varpi1 == pytest.approx(varpi1, rel=1e-10)
    assert stat.varpi2 == pytest.approx(varpi2, rel=1e-10)


# ---------------------------------------------------------------------------
# Constancy statistic.


def test_constancy_statistic_formula_decomposition(tv1_model):
    s = simulate_path(tv1_model, SimulationConfig(T=300, seed=3))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    b = 0.15
    st = constancy_statistic(s, part, "level", b)
    T = s.T
    expected = (
        T
        * np.sqrt(b)
        * (st.s_t - k_l2_norm_sq() * st.varpi1 / (T * b))
        / (2.0 * np.sqrt(k_star_l2_norm_sq()) * np.sqrt(st.varpi2))
    )
    assert st.e_t == pytest.approx(expected, rel=1e-12)
    # Zero distance implies a strictly negative statistic (pure bias term).
    zero_dist = (
        T
        * np.sqrt(b)
        * (0.0 - k_l2_norm_sq() * st.varpi1 / (T * b))
        / (2.0 * np.sqrt(k_star_l2_norm_sq()) * np.sqrt(st.varpi2))
    )
    assert zero_dist < 0.0


def test_constancy_statistic_scalar_oracle(tv1_model):
    # n = 1, Gamma = I: S_T and the trace functionals reduce to scalars.
    s = simulate_path(tv1_model, SimulationConfig(T=120, seed=4))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    b = 0.25
    st = constancy_statistic(s, part, "level", b)

    x = s.values
    T, p = s.T, 1
    x2 = x**2
    W = reference.level_weights(x, p)
    a_tilde = reference.dense_nonparametric(x, p, W, b)
    ref = reference.dense_semiparametric(x, (0,), (1,), W, b)
    beta = ref["beta"][0]
    diff = a_tilde[:, 1] - beta
    s_t = float((diff**2).sum() / T)
    assert st.s_t == pytest.approx(s_t, rel=1e-8)

    # O(u) middle term via direct sums.
    X = np.column_stack([np.ones(T - p), x2[:-1]])
    sig_tilde = (X * a_tilde).sum(axis=1)
    varpi1_terms = []
    varpi2_terms = []
    for r, t in enumerate(range(p + 1, T + 1)):
        k = reference.norm_weights(t, b, T, p)
        S = sum(k[i] * W[i] * np.outer(X[i], X[i]) for i in range(T - p))
        mid = sum(
            k[i] * W[i] ** 2 * (x2[p + i] - sig_tilde[i]) ** 2 * np.outer(X[i], X[i])
            for i in range(T - p)
        )
        inv = np.linalg.inv(S)
        o_hat = inv @ mid @ inv
        g = o_hat[1, 1]
        varpi1_terms.append(g)
        varpi2_terms.append(g * g)
    assert st.varpi1 == pytest.approx(np.sum(varpi1_terms) / T, rel=1e-8)
    assert st.varpi2 == pytest.approx(np.sum(varpi2_terms) / T, rel=1e-8)


def _quiet_stretch(scale: float, constant: tuple):
    """A T=200 series whose returns 80..139 are scaled by ``scale``, and a p=2 partition."""
    x = np.random.default_rng(44).normal(size=200)
    x[80:140] *= scale
    part = CoefficientPartition(p=2, varying=tuple(k for k in range(3) if k not in constant), constant=constant)
    return ReturnSeries(x), part


@pytest.mark.parametrize("constant", [(0,), (1,), (2,), (1, 2)])
def test_constancy_singular_gram_reports_the_eigenvalue_gate(constant):
    # A quiet stretch of tiny returns makes the full fit's local Gram G nearly
    # singular there.  Every partition reports the eigenvalue gate's first
    # failing center of G and its rcond.
    s, part = _quiet_stretch(1e-5, constant)
    with pytest.raises(SingularMomentError) as err:
        constancy_statistic(s, part, "level", 0.1)
    W = resolve_weights(s, 2, "level")
    gram, cross = local_wls(canonical_matrix(s, 2), s.values[2:, None] ** 2, W, kernel_window(200, 0.1))
    want = reference.eigvalsh_gate_solve(gram, cross, 3)
    assert want[0] == "raise" and 0.0 < want[2] < 1e-12
    assert (err.value.t, err.value.rcond) == want[1:]


@pytest.mark.parametrize("scale", [1.0, 1e-3])
@pytest.mark.parametrize("constant", [(2,), (1, 2)])
def test_constancy_beta_step_reads_the_moments_estimate_beta_smooths(scale, constant):
    # With every varying index before every constant one, G[v, v], G[v, c] and
    # cross[v] are bit for bit the moments estimate_beta smooths, so beta_hat
    # agrees exactly.  At scale 1e-3 G is near the gate (rcond ~1e-12): the
    # certificate fails and G[v, v] passes the eigenvalue gate on its own.
    s, part = _quiet_stretch(scale, constant)
    assert (_certify(nonparametric_fit(s, 2, "level", 0.1).gram) is not None) == (scale == 1.0)
    stat = constancy_statistic(s, part, "level", 0.1)
    np.testing.assert_array_equal(stat.beta_hat, estimate_beta(s, part, "level", 0.1).beta)


def test_nonparametric_fit_factors_its_gram_once(series_mid, monkeypatch):
    # The certificate's Cholesky factor is the one the solve uses: one factor,
    # and neither LAPACK's solve, its Cholesky nor the eigenvalues run.
    factored = []

    def spy(G):
        factored.append(G.shape)
        return cholesky(G)

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK ran on a certified Gram")

    cholesky = estimate._cholesky
    monkeypatch.setattr(estimate, "_cholesky", spy)
    for name in ("solve", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    fit = nonparametric_fit(series_mid, 2, "level", 0.2)
    assert factored == [(3, 3, series_mid.T - 2)]
    monkeypatch.undo()
    want = np.linalg.inv(fit.gram)
    assert np.all(np.abs(fit.gram_inv - want).max(axis=(1, 2)) <= 1e-10 * np.abs(want).max(axis=(1, 2)))


def test_constancy_rejects_a_gamma_that_is_not_a_matrix(series_mid):
    with pytest.raises(InputError, match="gamma"):
        constancy_statistic(series_mid, CoefficientPartition.semiparametric(2), "level", 0.2, gamma="fit-variance")


def test_constancy_needs_constant_block(series_small):
    with pytest.raises(InputError):
        constancy_statistic(series_small, CoefficientPartition.fully_varying(2), "level", 0.3)


def test_constancy_gamma_matrix(series_mid):
    part = CoefficientPartition.semiparametric(2)
    st_id = constancy_statistic(series_mid, part, "level", 0.2, gamma=np.eye(2))
    st_none = constancy_statistic(series_mid, part, "level", 0.2)
    assert st_id.e_t == pytest.approx(st_none.e_t, rel=1e-12)
    st_scaled = constancy_statistic(series_mid, part, "level", 0.2, gamma=4.0 * np.eye(2))
    assert st_scaled.s_t == pytest.approx(4.0 * st_id.s_t, rel=1e-10)
    # E_T is invariant to rescaling Gamma (scale cancels between moments).
    assert st_scaled.e_t == pytest.approx(st_id.e_t, rel=1e-8)


# ---------------------------------------------------------------------------
# Monte-Carlo calibration machinery.


def test_mc_quantile_matches_p_value_rule():
    rng = np.random.default_rng(5)
    sample = np.sort(rng.normal(size=499))
    for alpha in (0.05, 0.10, 0.25):
        q = mc_quantile(sample, alpha)
        # statistic just above q rejects, i.e. its p-value is <= alpha
        assert mc_p_value(sample, q + 1e-12) <= alpha
        # statistic just below q accepts
        assert mc_p_value(sample, q - 1e-9) > alpha


def test_mc_p_value_bounds():
    sample = np.arange(200.0)
    assert mc_p_value(sample, 1e9) == pytest.approx(1.0 / 201.0)
    assert mc_p_value(sample, -1e9) == 1.0


def test_mc_calibration_deterministic(tv1_model):
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    a = mc_pivotal_quantiles(200, 1, part, 0.2, 100, (0.10,), 42, "constancy")
    b = mc_pivotal_quantiles(200, 1, part, 0.2, 100, (0.10,), 42, "constancy")
    np.testing.assert_array_equal(a.sample, b.sample)
    assert a.quantiles == b.quantiles
    c = mc_pivotal_quantiles(200, 1, part, 0.2, 100, (0.10,), 43, "constancy")
    assert not np.array_equal(a.sample, c.sample)


def test_mc_calibration_workers_identical(tv1_model):
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    a = mc_pivotal_quantiles(150, 1, part, 0.25, 100, (0.10,), 7, "second-order")
    b = mc_pivotal_quantiles(150, 1, part, 0.25, 100, (0.10,), 7, "second-order", workers=4)
    np.testing.assert_array_equal(a.sample, b.sample)


@pytest.mark.parametrize("workers", [0, -3])
def test_mc_calibration_rejects_workers_below_one(workers):
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    with pytest.raises(InputError, match="workers"):
        mc_pivotal_quantiles(150, 1, part, 0.25, 100, (0.10,), 7, "second-order", workers=workers)


@pytest.mark.parametrize("calibration", ["monte-carlo", "asymptotic"])
def test_second_order_rejects_workers_below_one(calibration):
    # The asymptotic calibration runs no pool, but workers=0 is still rejected.
    s = ReturnSeries(np.random.default_rng(2).normal(size=300))
    with pytest.raises(InputError, match="workers"):
        run_second_order_test(s, 1, 0.2, B=100, calibration=calibration, workers=0)


@pytest.mark.parametrize("levels", [(2.0,), (0.05, 0.0), (1.0,), (float("nan"),), (), 0.05])
def test_mc_entry_points_reject_levels_outside_the_unit_interval(levels):
    s = ReturnSeries(np.random.default_rng(2).normal(size=150))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    with pytest.raises(InputError, match="levels"):
        mc_pivotal_quantiles(150, 1, part, 0.25, 100, levels, 7, "second-order")
    with pytest.raises(InputError, match="levels"):
        run_constancy_test(s, part, 0.25, B=100, levels=levels)
    for calibration in ("monte-carlo", "asymptotic"):
        with pytest.raises(InputError, match="levels"):
            run_second_order_test(s, 1, 0.25, B=100, levels=levels, calibration=calibration)


def test_mc_requires_b_at_least_100():
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    with pytest.raises(InputError):
        mc_pivotal_quantiles(100, 1, part, 0.2, 50, (0.10,), 1, "constancy")


def test_mc_gives_up_after_retries():
    # T*b < 1 collapses every window to its center, so the 2x2 local Gram of
    # the full fit is singular in every replicate and redraws cannot help.
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    with pytest.raises(NumericalError):
        mc_pivotal_quantiles(30, 1, part, 0.03, 100, (0.10,), 1, "constancy")


# ---------------------------------------------------------------------------
# Test reports.


def test_constancy_report_deterministic(tv1_model):
    s = simulate_path(tv1_model, SimulationConfig(T=250, seed=8))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    a = run_constancy_test(s, part, 0.2, B=100, seed=5)
    b = run_constancy_test(s, part, 0.2, B=100, seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict()["pivotal"]
    assert 0.0 < a.p_value <= 1.0
    for lvl, q in a.mc_quantiles.items():
        assert a.decision[lvl] == ("reject" if a.statistic > q else "accept")


def test_wald_scalar_statistic(tv1_model):
    s = simulate_path(tv1_model, SimulationConfig(T=300, seed=9))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    stat, cov, fit = _wald_statistic(s, part, 0.2)
    assert stat == pytest.approx(s.T * fit.beta[0] ** 2 / cov.v_hat[0, 0], rel=1e-10)


def test_wald_inverse_sqrt_property(series_mid):
    part = CoefficientPartition.semiparametric(2)
    from tvarch.estimate import covariance_beta, fitted_sigma_sq

    fit = estimate_beta(series_mid, part, "level", 0.15)
    sigma_sq, _ = fitted_sigma_sq(series_mid, part, fit)
    cov = covariance_beta(series_mid, fit, sigma_sq)
    lam, U = np.linalg.eigh(cov.v_hat)
    v_inv_half = U @ np.diag(lam**-0.5) @ U.T
    np.testing.assert_allclose(v_inv_half @ v_inv_half @ cov.v_hat, np.eye(2), atol=1e-8)


def test_wald_report_includes_chi2(tv1_model):
    s = simulate_path(tv1_model, SimulationConfig(T=250, seed=10))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    rep = run_zero_wald_test(s, part, 0.2, B=100, seed=2)
    assert rep.extra["df"] == 1
    assert rep.extra["chi2_p_value"] == pytest.approx(
        float(scipy.stats.chi2.sf(rep.statistic, df=1)), rel=1e-12
    )


def test_wald_size_on_null_data():
    # Under the null the data distribution equals the replicate distribution,
    # so the rejection frequency stays near the level.
    flat = TvArchModel(p=0, coeffs=(CoefficientFunction.constant(1.0),))
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    b = 0.15
    cal = mc_pivotal_quantiles(400, 1, part, b, 300, (0.10,), 77, "wald-zero")
    rej = 0
    R = 300
    for r in range(R):
        s = simulate_path(flat, SimulationConfig(T=400, seed=derive_seed(88, r)))
        stat, _, _ = _wald_statistic(s, part, b)
        rej += stat > cal.quantiles[0.10]
    assert 0.06 <= rej / R <= 0.14


# ---------------------------------------------------------------------------
# Second-order dynamics.


def test_second_order_dense_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=40)
    s = ReturnSeries(x)
    st = second_order_statistic(s, 2, 0.3)
    a_ref, psi_ref, sig_ref = reference.dense_second_order(x, 2, 0.3)
    np.testing.assert_allclose(st.a_hat, a_ref, atol=1e-10)
    assert st.sigma_sq_hat == pytest.approx(sig_ref, rel=1e-10)
    assert st.psi == pytest.approx(psi_ref, rel=1e-10)


@pytest.mark.parametrize("c", [1e-60, 1e-50, 1e40, 1e60])
def test_second_order_statistic_is_scale_free(c):
    # At these scales the fourth powers of the smoothed squares under- or
    # overflow; psi and the correction factor must not move.
    x = np.random.default_rng(1).normal(size=1000)
    base = second_order_statistic(ReturnSeries(x), 2, 0.2)
    assert base.psi > 0.0
    st = second_order_statistic(ReturnSeries(c * x), 2, 0.2)
    assert st.psi == pytest.approx(base.psi, rel=1e-9)
    assert st.sigma_sq_hat == pytest.approx(base.sigma_sq_hat, rel=1e-9)


def test_second_order_needs_lags(series_small):
    with pytest.raises(InputError):
        second_order_statistic(series_small, 0, 0.2)


def test_second_order_singular_lag_design():
    # x^2 = 1 everywhere equals its smoothed level, so every centered lag is 0.
    s = ReturnSeries(np.where(np.arange(80) % 2, 1.0, -1.0))
    with pytest.raises(SingularDesignError, match="lag design"):
        second_order_statistic(s, 2, 0.3)


def test_second_order_correction_above_one_with_drift():
    # Piecewise variance drift makes the correction factor strictly > 1.
    a0 = CoefficientFunction.piecewise_linear(
        [(0.0, 1e-4), (0.25, 4e-4), (0.5, 1e-4), (0.75, 4e-4), (1.0, 1e-4)]
    )
    m = TvArchModel(p=0, coeffs=(a0,))
    s = simulate_path(m, SimulationConfig(T=2000, seed=12))
    st = second_order_statistic(s, 2, 0.1)
    assert st.sigma_sq_hat > 1.0


def test_second_order_truncation():
    # A spiky alternating pattern produces a negative lag-one estimate, which
    # the truncation removes from the statistic.
    base = np.tile([2.0, 0.1], 40)
    rng = np.random.default_rng(13)
    x = base + 0.01 * rng.normal(size=80)
    st = second_order_statistic(ReturnSeries(x), 1, 0.3)
    assert st.a_hat[0] < 0.0
    assert st.psi == 0.0
    # And the statistic always equals its truncated reassembly.
    s2 = simulate_path(
        TvArchModel(p=0, coeffs=(CoefficientFunction.constant(1.0),)),
        SimulationConfig(T=300, seed=14),
    )
    st2 = second_order_statistic(s2, 2, 0.2)
    want = 300 * np.sum(np.maximum(st2.a_hat, 0.0) ** 2) / st2.sigma_sq_hat
    assert st2.psi == pytest.approx(want, rel=1e-12)


def test_asymptotic_quantile_p1():
    # Half of the mass sits at zero, so the 95% point equals the chi2(1)
    # quantile at 90%.
    q = asymptotic_psi_quantile(1, 0.05)
    assert q == pytest.approx(float(scipy.stats.chi2.ppf(0.90, 1)), abs=0.01)


def test_asymptotic_quantile_p2_mixture_oracle():
    # Mixture CDF: P(sum <= x) = sum_k C(p,k) 2^-p F_chi2(k)(x).
    q = asymptotic_psi_quantile(2, 0.05)

    def cdf(x):
        return 0.25 * (1.0 + 2.0 * scipy.stats.chi2.cdf(x, 1) + scipy.stats.chi2.cdf(x, 2))

    want = scipy.optimize.brentq(lambda x: cdf(x) - 0.95, 0.0, 20.0)
    assert q == pytest.approx(want, abs=0.01)


def test_chi2_tail_matches_scipy():
    cs = np.concatenate([[0.0], np.logspace(-6, 3, 91)])
    for k in range(1, 13):
        got = [_chi2_sf(float(c), k) for c in cs]
        np.testing.assert_allclose(got, scipy.stats.chi2.sf(cs, k), rtol=1e-12, atol=0.0)


def _brentq_psi_quantile(p, level):
    """The mixture quantile by scipy's binomial weights, chi2 tails and brentq."""
    k = np.arange(1, p + 1)

    def tail(c):
        return float(np.dot(scipy.stats.binom.pmf(k, p, 0.5), scipy.stats.chi2.sf(c, k)))

    if tail(np.nextafter(0.0, 1.0)) <= level:
        return 0.0
    # P(Psi >= c) <= P(chi2_p >= c), so the chi2_p quantile bounds the root.
    hi = float(scipy.stats.chi2.isf(level, p))
    return scipy.optimize.brentq(lambda c: tail(c) - level, 0.0, hi, xtol=1e-14)


def test_asymptotic_quantile_matches_brentq_reference():
    for p in range(1, 11):
        for level in (0.01, 0.05, 0.10, 0.25, 0.5):
            want = _brentq_psi_quantile(p, level)
            assert asymptotic_psi_quantile(p, level) == pytest.approx(want, rel=1e-12, abs=0.0), (p, level)


@pytest.mark.parametrize("level", [0.0, -0.1, 1.0, float("nan")])
def test_asymptotic_quantile_rejects_a_level_outside_the_unit_interval(level):
    with pytest.raises(InputError, match="level"):
        asymptotic_psi_quantile(2, level)


def test_second_order_report_modes(tv1_model):
    s = simulate_path(tv1_model, SimulationConfig(T=300, seed=15))
    rep_a = run_second_order_test(s, 1, 0.2, calibration="asymptotic")
    assert rep_a.extra["calibration"] == "asymptotic"
    rep_m = run_second_order_test(s, 1, 0.2, B=150, seed=3, calibration="monte-carlo")
    assert rep_m.B == 150
    for rep in (rep_a, rep_m):
        for lvl, q in rep.mc_quantiles.items():
            assert rep.decision[lvl] == ("reject" if rep.statistic > q else "accept")
    with pytest.raises(InputError):
        run_second_order_test(s, 1, 0.2, calibration="bootstrap")


# ---------------------------------------------------------------------------
# Scale invariance of the pivotal statistics.


def test_statistics_scale_invariance(tv1_model):
    s = simulate_path(tv1_model, SimulationConfig(T=400, seed=16))
    scaled = ReturnSeries(100.0 * s.values)
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    e1 = constancy_statistic(s, part, "level", 0.15).e_t
    e2 = constancy_statistic(scaled, part, "level", 0.15).e_t
    assert e2 == pytest.approx(e1, rel=1e-6)
    p1v = second_order_statistic(s, 1, 0.15).psi
    p2v = second_order_statistic(scaled, 1, 0.15).psi
    assert p2v == pytest.approx(p1v, rel=1e-8)
