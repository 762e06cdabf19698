import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvarch import (
    CoefficientFunction,
    NoiseSpec,
    SimulationConfig,
    TvArchModel,
    draw_noise,
    simulate_path,
)
from tvarch.errors import NonPositiveVolatilityError
from tvarch.simulate import derive_seed, generator

import reference


def test_draw_noise_gaussian_variance():
    x = draw_noise(NoiseSpec.gaussian(), 1_000_000, seed=1)
    assert 0.995 <= x.var() <= 1.005
    assert abs(x.mean()) < 0.005


def test_draw_noise_student_variance():
    x = draw_noise(NoiseSpec.student_t(9), 1_000_000, seed=2)
    assert 0.99 <= x.var() <= 1.01


def test_draw_noise_empty():
    assert draw_noise(NoiseSpec.gaussian(), 0, seed=3).shape == (0,)


def test_draw_noise_deterministic():
    a = draw_noise(NoiseSpec.student_t(5), 1000, seed=11)
    b = draw_noise(NoiseSpec.student_t(5), 1000, seed=11)
    np.testing.assert_array_equal(a, b)
    c = draw_noise(NoiseSpec.student_t(5), 1000, seed=12)
    assert not np.array_equal(a, c)


def test_derive_seed_disjoint_and_stable():
    s = derive_seed(42, 1)
    assert s == derive_seed(42, 1)
    assert derive_seed(42, 1) != derive_seed(42, 2)
    assert derive_seed(42, 1, 0) != derive_seed(42, 1, 1)
    assert derive_seed(42, "calibration") == derive_seed(42, "calibration")
    assert derive_seed(42, "a") != derive_seed(42, "b")


def test_variance_model_closed_form():
    # p = 0 with constant intercept c: x_t = xi_t * sqrt(c).
    c = 2.5
    m = TvArchModel(p=0, coeffs=(CoefficientFunction.constant(c),))
    s = simulate_path(m, SimulationConfig(T=100_000, seed=5))
    assert abs(s.values.var() / c - 1.0) < 0.03


def test_seasonal_variance_profile():
    # Intercept 2(1 + 0.4 sin(2 pi u)) peaks near u = 0.25 and dips near u = 0.75.
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.sine(2.0, 0.8), CoefficientFunction.constant(0.3))
    )
    T = 4000
    s = simulate_path(m, SimulationConfig(T=T, seed=6))
    x2 = s.values**2
    lo, hi = int(0.2 * T), int(0.3 * T)
    peak = x2[lo:hi].mean()
    lo, hi = int(0.7 * T), int(0.8 * T)
    trough = x2[lo:hi].mean()
    assert peak > trough


def test_simulation_deterministic():
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.constant(1.0), CoefficientFunction.constant(0.5))
    )
    a = simulate_path(m, SimulationConfig(T=500, seed=9))
    b = simulate_path(m, SimulationConfig(T=500, seed=9))
    np.testing.assert_array_equal(a.values, b.values)


def test_burn_in_warning_for_strong_contraction():
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.constant(1.0), CoefficientFunction.constant(0.95))
    )
    with pytest.warns(UserWarning):
        simulate_path(m, SimulationConfig(T=50, seed=1, burn_in=10))


def test_one_check_grid_evaluation_per_path(monkeypatch):
    # Validation's grid serves both the model checks and the burn-in warning;
    # only the path's own grid t/T is evaluated besides.
    m = TvArchModel(
        p=2,
        coeffs=(
            CoefficientFunction.sine(2.0, 1.0),
            CoefficientFunction.constant(0.3),
            CoefficientFunction.constant(0.2),
        ),
    )
    shapes = []
    evaluate = TvArchModel.coefficient_values

    def counted(self, u):
        shapes.append(np.shape(u))
        return evaluate(self, u)

    monkeypatch.setattr(TvArchModel, "coefficient_values", counted)
    simulate_path(m, SimulationConfig(T=500, seed=3))
    assert shapes == [(1024,), (500,)]


def test_local_stationarity_window_mean():
    # Windowed mean of x^2 around t = uT matches the frozen-coefficient
    # stationary mean a0(u) / (1 - a1(u)) within 3 standard errors.
    m = TvArchModel(
        p=1, coeffs=(CoefficientFunction.sine(2.0, 1.0), CoefficientFunction.constant(0.4))
    )
    T, b, u = 600, 0.1, 0.5
    center = int(u * T)
    half = int(T * b)
    target = m.coeffs[0](u) / (1.0 - m.coeffs[1](u))
    means = []
    for r in range(200):
        s = simulate_path(m, SimulationConfig(T=T, seed=derive_seed(31, r)))
        means.append(s.values[center - half : center + half + 1].__pow__(2).mean())
    means = np.asarray(means)
    se = means.std(ddof=1) / np.sqrt(means.shape[0])
    assert abs(means.mean() - target) < 3.0 * se + 0.05 * target


def test_nonpositive_volatility_between_check_points():
    # The intercept is negative only at u = 1/7, which validation's grid misses.
    spike = CoefficientFunction(lambda u: np.where(np.abs(u - 1 / 7) < 1e-12, -1.0, 1.0))
    model = TvArchModel(p=0, coeffs=(spike,))
    with pytest.raises(NonPositiveVolatilityError, match="t=1$"):
        simulate_path(model, SimulationConfig(T=7, seed=1))


def test_generator_is_philox():
    g = generator(7)
    assert type(g.bit_generator).__name__ == "Philox"


_lag_weights = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)


@given(
    p=st.integers(0, 3),
    df=st.sampled_from([None, 5, 9]),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 300),
    burn_in=st.integers(0, 60),
    offset=st.floats(0.5, 3.0),
    amplitude=st.floats(0.0, 0.45),
    lags=_lag_weights,
    varying_lag=st.booleans(),
)
def test_simulate_path_matches_recursion(p, df, seed, T, burn_in, offset, amplitude, lags, varying_lag):
    # Lag coefficients sum to at most 0.9, so the recursion contracts; with a
    # varying first lag its amplitude stays below its level.
    scale = 0.9 / max(1.0, sum(lags[:p]))
    lag_values = [scale * v for v in lags[:p]]
    coeffs = [CoefficientFunction.sine(offset, amplitude * offset)]
    coeffs += [CoefficientFunction.constant(v) for v in lag_values]
    if varying_lag and p:
        coeffs[1] = CoefficientFunction.cosine(lag_values[0] / 2, lag_values[0] / 2)
    noise = NoiseSpec.gaussian() if df is None else NoiseSpec.student_t(df)
    model = TvArchModel(p=p, coeffs=tuple(coeffs), noise=noise)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the short-burn-in warning
        got = simulate_path(model, SimulationConfig(T=T, seed=seed, burn_in=burn_in)).values
    # Both sum a_0 + a_1 x^2_{t-1} + ... + a_p x^2_{t-p} in the same order.
    np.testing.assert_array_equal(got, reference.simulate_recursion(coeffs, T, seed, burn_in=burn_in, df=df))


def test_simulate_path_long_paths_match_recursion():
    # About a quarter of these paths would change if x^2 were rounded as x * x
    # instead of x ** 2, so the loop also pins how the square rounds.
    coeffs = [CoefficientFunction.sine(2.0, 0.8), CoefficientFunction.constant(0.5)]
    model = TvArchModel(p=1, coeffs=tuple(coeffs))
    for seed in range(12):
        got = simulate_path(model, SimulationConfig(T=3000, seed=seed)).values
        np.testing.assert_array_equal(got, reference.simulate_recursion(coeffs, 3000, seed))
