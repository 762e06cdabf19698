from unittest import mock

import numpy as np
import pytest

from tvarch import (
    BandwidthGrid,
    CoefficientFunction,
    CoefficientPartition,
    ReturnSeries,
    SimulationConfig,
    TvArchModel,
    cv_bandwidth_semiparametric,
    cv_bandwidth_tvarch,
    estimate_beta,
    select_lag_order,
    simulate_path,
)
from tvarch import kernels, select
from tvarch.errors import AllSingularError, InputError, SingularDesignError, SingularMomentError
from tvarch.estimate import LEVEL, _certify, _solve_gated, local_wls, resolve_weights
from tvarch.model import canonical_matrix
from tvarch.simulate import derive_seed

import reference


def test_grid_validation():
    with pytest.raises(InputError):
        BandwidthGrid(multipliers=())
    with pytest.raises(InputError):
        BandwidthGrid(multipliers=(-0.5, 1.0))
    g = BandwidthGrid(multipliers=(2.0, 0.5))
    assert g.multipliers == (0.5, 2.0)
    np.testing.assert_allclose(g.bandwidths(1000), [0.5 * 0.1, 2.0 * 0.1])
    assert g.bandwidths(2).max() <= 1.0  # clipped into (0, 1]


def test_cv_flat_curve_on_iid_data():
    # p = 0 truth, p = 0 fit: the CV curve is flat within a few percent.
    m = TvArchModel(p=0, coeffs=(CoefficientFunction.constant(1.0),))
    s = simulate_path(m, SimulationConfig(T=800, seed=1))
    cv = cv_bandwidth_tvarch(s, 0)
    spread = (cv.scores.max() - cv.scores.min()) / cv.scores.mean()
    assert spread < 0.05


def test_cv_tvarch_leaveout_dense_oracle():
    rng = np.random.default_rng(2)
    x = np.abs(rng.normal(size=40)) + 0.5
    s = ReturnSeries(x)
    W = reference.level_weights(x, 1)
    grid = BandwidthGrid(multipliers=(0.8, 1.2))
    cv = cv_bandwidth_tvarch(s, 1, grid=grid)
    for b, score in zip(cv.bandwidths, cv.scores):
        want = reference.dense_cv_tvarch_score(x, 1, W, float(b))
        assert score == pytest.approx(want, rel=1e-10)


def test_cv_semiparametric_leaveout_dense_oracle():
    rng = np.random.default_rng(3)
    x = np.abs(rng.normal(size=40)) + 0.5
    s = ReturnSeries(x)
    grid = BandwidthGrid(multipliers=(1.0,))
    cv = cv_bandwidth_semiparametric(s, 2, grid=grid)
    beta_ref, score_ref = reference.dense_cv_semiparametric(x, 2, float(cv.bandwidths[0]))
    assert cv.scores[0] == pytest.approx(score_ref, rel=1e-10)
    np.testing.assert_allclose(cv.beta, beta_ref, atol=1e-10)


def test_cv_semiparametric_skips_a_bandwidth_that_leaves_a_center_empty():
    # At b = 0.25 * 40^(-1/3) the first center has no index outside its
    # left-out run t..t+3, so its local moments are exactly zero and the
    # bandwidth cannot be scored.
    s = ReturnSeries(np.random.default_rng(3).standard_normal(40))
    cv = cv_bandwidth_semiparametric(s, 3, grid=BandwidthGrid((0.25, 2.0)))
    assert cv.scores[0] == np.inf
    assert np.isfinite(cv.scores[1]) and cv.bandwidth == cv.bandwidths[1]


def test_cv_semiparametric_names_the_center_a_bandwidth_leaves_empty():
    # Only the one empty-center bandwidth is on the grid, so every bandwidth
    # fails; the error names its first empty center as cv_bandwidth_tvarch does.
    s = ReturnSeries(np.random.default_rng(0).standard_normal(40))
    with pytest.raises(
        AllSingularError,
        match=r"every grid bandwidth failed cross-validation; last: smoothed moment matrix singular at t=3 \(rcond=0\.000e\+00\)",
    ) as err:
        cv_bandwidth_semiparametric(s, 2, grid=BandwidthGrid((0.25,)))
    assert isinstance(err.value.__cause__, SingularMomentError) and err.value.__cause__.t == 3
    with pytest.raises(AllSingularError, match=r"; last: smoothed moment matrix singular at t=3 "):
        cv_bandwidth_tvarch(s, 2, grid=BandwidthGrid((0.25,)))


def test_cv_semiparametric_skips_singular_residual_design(monkeypatch):
    # x^2 = 1 everywhere: each lag equals its leave-out local mean, so at every
    # bandwidth the residual design is exactly 0 and fails the design gate.
    raised = []

    def spy(*args):
        try:
            return solve_design(*args)
        except SingularDesignError as exc:
            raised.append(exc)
            raise

    solve_design = select._solve_design
    monkeypatch.setattr(select, "_solve_design", spy)
    s = ReturnSeries(np.where(np.arange(80) % 2, 1.0, -1.0))
    with pytest.raises(AllSingularError) as err:
        cv_bandwidth_semiparametric(s, 2, grid=BandwidthGrid(multipliers=(1.0, 1.5)))
    assert len(raised) == 2
    # The error names the last singular design and chains it.
    assert err.value.__cause__ is raised[-1]
    assert str(raised[-1]) in str(err.value) and "rcond=" in str(err.value)


def test_cv_semiparametric_inner_beta_close_to_estimator(sptv2_model):
    s = simulate_path(sptv2_model, SimulationConfig(T=1500, seed=4))
    cv = cv_bandwidth_semiparametric(s, 2)
    part = CoefficientPartition.semiparametric(2)
    fit = estimate_beta(s, part, "level", cv.bandwidth)
    assert np.linalg.norm(cv.beta - fit.beta) < 0.02


def test_cv_deterministic(series_mid):
    a = cv_bandwidth_semiparametric(series_mid, 2)
    b = cv_bandwidth_semiparametric(series_mid, 2)
    assert a.bandwidth == b.bandwidth
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.beta, b.beta)


def test_cv_ties_break_to_smaller_bandwidth():
    # scores are compared with argmin, which picks the first (smallest b).
    from tvarch.select import CvResult

    r = CvResult(bandwidth=0.1, bandwidths=np.array([0.1, 0.2]), scores=np.array([1.0, 1.0]))
    assert int(np.nanargmin(r.scores)) == 0


def test_select_order_zeta_formula(series_mid):
    sel = select_lag_order(series_mid, q_max=4)
    T = series_mid.T
    assert sel.zeta == pytest.approx(np.log(np.log(T)) / (T * sel.bandwidth), rel=1e-12)
    assert sel.criteria.shape == (5,)
    np.testing.assert_allclose(
        sel.criteria, np.log(sel.rss) + sel.zeta * (np.arange(5) + 1.0), rtol=1e-12
    )
    assert sel.p_hat == int(np.argmin(sel.criteria))


def test_zeta_direct_arithmetic():
    # log(log 1000) / (1000 * 0.1) = 0.019326...
    assert np.log(np.log(1000.0)) / 100.0 == pytest.approx(0.019326, abs=1e-6)


def test_consistency_condition_growth(tv1_model):
    # T^(2/3) * zeta_T grows along T for the CV-selected bandwidth.
    vals = []
    for T in (500, 1000, 2000):
        s = simulate_path(tv1_model, SimulationConfig(T=T, seed=derive_seed(5, T)))
        sel = select_lag_order(s, q_max=3)
        vals.append(T ** (2.0 / 3.0) * sel.zeta)
    assert vals[0] < vals[1] < vals[2]


def test_select_order_all_singular_names_the_last_center(monkeypatch, series_mid):
    # The 1 x 1 order-0 Gram passes any finite gate, so every order failing is
    # staged here: the bandwidth is fixed and each gated solve fails.
    def singular(gram, rhs, first_t):
        raise SingularMomentError(t=first_t + gram.shape[-1], rcond=1e-13)

    monkeypatch.setattr(select, "_certify", lambda gram: None)
    monkeypatch.setattr(select, "_solve_gated", singular)
    monkeypatch.setattr(select, "cv_bandwidth_tvarch", lambda *a, **k: select.CvResult(0.2, np.array([0.2]), np.ones(1)))
    with pytest.raises(AllSingularError, match=r"every candidate order failed; last: .* at t=6 \(rcond=1\.000e-13\)") as err:
        select_lag_order(series_mid, q_max=2)
    assert isinstance(err.value.__cause__, SingularMomentError)


def _per_order_gate(series, q_max, b):
    """Each candidate order solved by its own gated solve, as rss (inf where it fails) and the errors raised."""
    X = canonical_matrix(series, q_max)
    W = resolve_weights(series, q_max, LEVEL)
    x2t = series.values[q_max:] ** 2
    gram, cross = local_wls(X, x2t[:, None], W, kernels.kernel_window(series.T, b))
    rss, errors = np.full(q_max + 1, np.inf), {}
    for p in range(q_max + 1):
        try:
            a_fit = _solve_gated(gram[:, : p + 1, : p + 1], cross[:, : p + 1], q_max + 1)[..., 0]
        except SingularMomentError as err:
            errors[p + 1] = str(err)
            continue
        rss[p] = float(np.sum(W * (x2t - np.einsum("tk,tk->t", X[:, : p + 1], a_fit)) ** 2))
    return gram, rss, errors


def test_select_order_one_certificate_equals_per_order_gate(series_mid):
    # The leading blocks of the certified q_max factor solve every order
    # exactly as each order's own gated solve does.
    sel = select_lag_order(series_mid, q_max=4)
    gram, rss, errors = _per_order_gate(series_mid, 4, sel.bandwidth)
    assert _certify(gram) is not None and not errors
    np.testing.assert_array_equal(sel.rss, rss)


def test_select_order_uncertified_gram_keeps_per_order_gate():
    # Exact zeros before t=10 leave the high lags of the first centers'
    # windows empty: orders 0-3 pass, 4-6 fail the eigenvalue gate.  The
    # bandwidth is fixed, since cross-validation, which fails at it, picks a
    # wider one at which every order passes.
    x = np.random.default_rng(4).normal(size=300)
    x[:10] = 0.0
    series = ReturnSeries(x)
    gram, rss, errors = _per_order_gate(series, 6, 0.03)
    assert _certify(gram) is None and sorted(errors) == [5, 6, 7]
    raised = {}

    def spy(gram, rhs, first_t):
        try:
            return _solve_gated(gram, rhs, first_t)
        except SingularMomentError as err:
            raised[gram.shape[-1]] = str(err)
            raise

    cv = select.CvResult(0.03, np.array([0.03]), np.ones(1))
    with mock.patch.object(select, "cv_bandwidth_tvarch", return_value=cv), mock.patch.object(select, "_solve_gated", spy):
        sel = select_lag_order(series, q_max=6)
    np.testing.assert_array_equal(sel.rss, rss)
    assert raised == errors


def test_select_order_recovers_truth_easy_case():
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.sine(2.0, 0.8), CoefficientFunction.constant(0.3))
    )
    hits = 0
    for r in range(10):
        s = simulate_path(m, SimulationConfig(T=2000, seed=derive_seed(6, r)))
        sel = select_lag_order(s, q_max=4)
        hits += sel.p_hat in (1, 2)
    assert hits >= 9


def test_select_order_p0_candidate():
    m = TvArchModel(p=0, coeffs=(CoefficientFunction.sine(2.0, 0.8),))
    s = simulate_path(m, SimulationConfig(T=1500, seed=7))
    sel = select_lag_order(s, q_max=3)
    assert sel.p_hat == 0


def test_select_order_p0_rate():
    # Variance-only data: the criterion picks p = 0 most of the time
    # (benchmark correct-fit rates are 93% around these sample sizes).
    m = TvArchModel(p=0, coeffs=(CoefficientFunction.sine(2.0, 0.8),))
    hits = 0
    for r in range(25):
        s = simulate_path(m, SimulationConfig(T=1000, seed=derive_seed(8, r)))
        hits += select_lag_order(s, q_max=10).p_hat == 0
    assert hits >= 20


def test_cv_bandwidth_financial_magnitude():
    # On a long financial-looking series the selected bandwidth sits in the
    # usual T^(-1/3) range (real-data selections are of order 0.03 - 0.07).
    m = TvArchModel(
        p=1,
        coeffs=(
            CoefficientFunction.piecewise_linear(
                [(0.0, 2e-5), (0.3, 2e-4), (0.55, 4e-5), (0.8, 3e-4), (1.0, 8e-5)]
            ),
            CoefficientFunction.constant(0.15),
        ),
    )
    s = simulate_path(m, SimulationConfig(T=2300, seed=9))
    b_tv = cv_bandwidth_tvarch(s, 1).bandwidth
    b_sp = cv_bandwidth_semiparametric(s, 1).bandwidth
    for b in (b_tv, b_sp):
        assert 0.01 <= b <= 0.2
