import numpy as np
import pytest
import scipy.integrate

from tvarch import epanechnikov, k_l2_norm_sq, k_star, k_star_l2_norm_sq
from tvarch.errors import EmptyWindowError, InputError
from tvarch.kernels import kernel_window, local_sums, window_counts

import reference


def test_epanechnikov_values():
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov(-1.0) == 0.0
    assert epanechnikov(0.5) == pytest.approx(0.5625, abs=0)
    assert epanechnikov(1.2) == 0.0
    np.testing.assert_allclose(epanechnikov(np.array([0.0, 0.5])), [0.75, 0.5625])


def test_l2_norm_against_quadrature_oracle():
    oracle, err = scipy.integrate.quad(lambda x: (0.75 * (1 - x * x)) ** 2, -1.0, 1.0)
    assert err < 1e-10
    assert k_l2_norm_sq() == pytest.approx(oracle, rel=1e-12)
    assert k_l2_norm_sq() == 0.6


def test_l2_norm_node_doubling():
    # The Simpson oracle converges, to the Epanechnikov closed form and to the box kernel's 1/2.
    for want, oracle_kernel in ((k_l2_norm_sq(), reference.epan_array), (0.5, reference.box_array)):
        coarse = reference.simpson_l2_norm_sq(oracle_kernel, 10_001)
        assert coarse == pytest.approx(reference.simpson_l2_norm_sq(oracle_kernel, 1_000_001), abs=1e-8)
        assert want == pytest.approx(coarse, rel=1e-12)


def test_box_kernel_norm():
    # The Simpson oracle's box kernel against quadrature and the exact 1/2.
    oracle, _ = scipy.integrate.quad(lambda x: reference.box_array(x) ** 2, -1.0, 1.0)
    assert oracle == pytest.approx(0.5, rel=1e-12)
    assert reference.simpson_l2_norm_sq(reference.box_array) == pytest.approx(0.5, rel=1e-12)


def test_k_star_at_zero_equals_l2_norm():
    assert k_star(0.0) == pytest.approx(k_l2_norm_sq(), abs=1e-15)


def test_k_star_boundary():
    assert k_star(1.0) == 0.0
    assert k_star(-1.0) == 0.0
    assert k_star(float("nan")) == 0.0


def test_k_star_closed_form():
    # Analytic overlap polynomial: 3/5 - 3a^2/4 + 3a^3/8 - 3a^5/160 with a = 2|x|.
    def closed(x):
        a = 2 * abs(x)
        return 3 / 5 - 3 * a**2 / 4 + 3 * a**3 / 8 - 3 * a**5 / 160

    for x in (0.1, 0.25, 0.5, 0.75, -0.3):
        assert k_star(x) == pytest.approx(closed(x), abs=1e-14)
    assert k_star(0.25) == pytest.approx(0.4587890625, abs=1e-15)
    assert k_star(0.5) == pytest.approx(0.20625, abs=1e-15)


def _quad_k_star(x, kernel):
    a = 2.0 * abs(x)
    if a >= 2.0 - 1e-9:
        # An overlap shorter than 1e-9 holds less than 1e-18; quad warns on it.
        return 0.0
    return scipy.integrate.quad(lambda v: kernel(v) * kernel(v + a), -1.0, 1.0 - a)[0]


@pytest.mark.parametrize(
    "kernel, oracle_kernel",
    [(epanechnikov, reference.epan_array)],
    ids=["epanechnikov"],
)
def test_k_star_closed_forms_match_quadrature(kernel, oracle_kernel):
    xs = np.linspace(-1.2, 1.2, 97)
    got = k_star(xs)
    np.testing.assert_allclose(got, reference.simpson_k_star(xs, oracle_kernel), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, [_quad_k_star(x, kernel) for x in xs], rtol=0, atol=1e-12)

    norm_sq = k_star_l2_norm_sq()
    assert norm_sq == pytest.approx(reference.simpson_k_star_l2_norm_sq(oracle_kernel), rel=1e-12)
    quad, _ = scipy.integrate.quad(lambda x: _quad_k_star(x, kernel) ** 2, 0.0, 1.0)
    assert norm_sq == pytest.approx(2.0 * quad, rel=1e-12)


def test_k_star_l2_norm():
    # Analytic value 167/770 for the Epanechnikov overlap function.
    assert k_star_l2_norm_sq() == 167.0 / 770.0
    assert k_star_l2_norm_sq(epanechnikov) == 167.0 / 770.0


def test_box_k_star_exact():
    # K*(x) = (1 - |x|) / 2 and ||K*||^2 = 1/6 for the box kernel.  Its
    # integrand is constant on every inner grid that ends exactly at 1 - 2|x|,
    # where the kernel's edge is, so the Simpson oracle is exact at any node count.
    xs = np.linspace(-1.2, 1.2, 97)
    want = np.clip(1.0 - np.abs(xs), 0.0, None) / 2
    for nodes in (101, 1001, 4097):
        np.testing.assert_allclose(reference.simpson_k_star(xs, reference.box_array, nodes), want, rtol=0, atol=1e-14)
        assert reference.simpson_k_star_l2_norm_sq(reference.box_array, nodes) == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_k_star_shape_properties():
    xs = np.linspace(0.0, 1.0, 101)
    vals = k_star(xs)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-12)  # non-increasing in |x|
    np.testing.assert_allclose(k_star(-xs), vals, atol=1e-12)  # even


def test_constants_reject_an_unknown_kernel():
    def triangle(x):
        return np.maximum(1.0 - np.abs(x), 0.0)

    for call in (k_l2_norm_sq, k_star_l2_norm_sq):
        assert call(epanechnikov) == call()
        for kernel in (triangle, reference.box_array):
            with pytest.raises(InputError):
                call(kernel)


def test_constants_are_pure():
    a = (k_l2_norm_sq(), k_star_l2_norm_sq(), k_star(0.3))
    b = (k_l2_norm_sq(), k_star_l2_norm_sq(), k_star(0.3))
    assert a == b


def smoother_weights(t: int, b: float, T: int, p: int) -> np.ndarray:
    """Weights the package's smoother puts on i = p+1..T at center t.

    Read off the window and the normalizer that every estimator divides by.
    """
    win = kernel_window(T, b)
    half = (win.shape[0] - 1) // 2
    d = t - np.arange(p + 1, T + 1)
    raw = np.where(np.abs(d) <= half, win[np.clip(half + d, 0, 2 * half)], 0.0)
    return raw / window_counts(T - p, win)[t - p - 1]


def test_weights_sum_to_one_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        T = int(rng.integers(10, 400))
        p = int(rng.integers(0, min(4, T - 3)))
        b = float(rng.uniform(0.01, 1.0))
        t = int(rng.integers(p + 1, T + 1))
        w = smoother_weights(t, b, T, p)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0.0)


def test_weights_zero_outside_support():
    # support |t-i| <= T*b = 10 around t = 50
    w = smoother_weights(50, 0.1, 100, 0)
    assert w[39 - 1] == 0.0
    assert w[61 - 1] == 0.0
    assert w[50 - 1] > 0.0
    assert np.all(w[np.abs(50 - np.arange(1, 101)) >= 10] == 0.0)


def test_weights_symmetric_interior():
    w = smoother_weights(50, 0.1, 100, 0)
    for j in range(1, 10):
        assert w[50 - j - 1] == pytest.approx(w[50 + j - 1], abs=1e-15)
    win = kernel_window(100, 0.1)
    np.testing.assert_array_equal(win, win[::-1])


def test_weights_boundary_still_normalized():
    assert smoother_weights(1, 0.2, 50, 0).sum() == pytest.approx(1.0, abs=1e-12)
    assert smoother_weights(3, 0.2, 50, 2).sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_direct_oracle():
    for t, b, T, p in ((1, 0.3, 10, 0), (5, 0.3, 10, 0), (10, 0.3, 10, 0), (4, 0.25, 30, 2)):
        np.testing.assert_allclose(smoother_weights(t, b, T, p), reference.norm_weights(t, b, T, p), atol=1e-15)


def test_weights_max_bound():
    rng = np.random.default_rng(1)
    for _ in range(100):
        T = int(rng.integers(50, 500))
        b = float(rng.uniform(10.0 / T, 1.0))  # ensure T*b >= 10
        t = int(rng.integers(1, T + 1))
        assert smoother_weights(t, b, T, 0).max() * T * b <= 2.0


def test_weights_validation():
    with pytest.raises(InputError):
        kernel_window(100, 1.5)
    with pytest.raises(InputError):
        kernel_window(100, 0.0)


def test_local_sums_match_direct():
    rng = np.random.default_rng(2)
    vals = rng.uniform(size=30)
    T, b, p = 30, 0.2, 0
    win = kernel_window(T, b)
    den = window_counts(30, win)
    sm = local_sums(vals, win) / den
    for r, t in enumerate(range(1, 31)):
        k = reference.norm_weights(t, b, T, p)
        assert sm[r] == pytest.approx(float(k @ vals), abs=1e-12)


def test_local_sums_keep_a_non_finite_value_inside_its_window():
    # A NaN or inf must reach only the centers whose window covers it, as in
    # a convolution, not every center of its GEMM block.
    win = kernel_window(400, 0.05)
    h = (win.shape[0] - 1) // 2
    vals = np.ones((400, 6))
    vals[200, 1] = np.nan
    vals[300, 4] = np.inf
    out = local_sums(vals, win)
    assert np.array_equal(np.flatnonzero(np.isnan(out[:, 1])), np.arange(200 - h, 200 + h + 1))
    assert np.array_equal(np.flatnonzero(~np.isfinite(out[:, 4])), np.arange(300 - h, 300 + h + 1))
    assert np.isfinite(np.delete(out, [1, 4], axis=1)).all()


def test_window_counts_match_convolution():
    for T, b in ((10, 0.3), (60, 0.05), (60, 0.9), (500, 0.1), (2000, 0.07), (8000, 0.05)):
        win = kernel_window(T, b)
        for n in (T, T - 3, min(T, 2 * ((win.shape[0] - 1) // 2)), 5, 1):  # and trimmed windows, n < 2h+1
            want = np.convolve(np.ones(n), win)[(win.shape[0] - 1) // 2 :][:n]
            assert np.max(np.abs(window_counts(n, win) - want) / want) <= 1e-14


def test_window_counts_empty_exactly_where_mass_is_zero():
    rng = np.random.default_rng(4)
    for _ in range(300):
        half = int(rng.integers(0, 4))
        win = rng.choice([0.0, 0.0, 0.1, 0.3, 0.7], size=2 * half + 1)
        n = int(rng.integers(1, 9))
        want = reference.dense_window_counts(n, win)
        if np.any(want <= 0.0):
            with pytest.raises(EmptyWindowError):
                window_counts(n, win)
        else:
            np.testing.assert_allclose(window_counts(n, win), want, rtol=1e-14, atol=0.0)
