from unittest import mock

import numpy as np
import pytest
import scipy.integrate

from tvarch import BandwidthGrid, epanechnikov, k_l2_norm_sq, k_star, k_star_l2_norm_sq, kernels
from tvarch.errors import EmptyWindowError, InputError, NumericalError
from tvarch.kernels import kernel_window, leave_out_window, local_sums, window_counts

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
    for T in (0, -5, 2.5):
        with pytest.raises(InputError):
            kernel_window(T, 0.5)


def test_kernel_window_returns_a_fresh_writable_copy():
    # Windows are cached per (T, b); a caller that edits its window in place,
    # as test_local_sums_keep_the_gemm_for_a_long_window_off_the_quadratic
    # does, must not change the next caller's.
    first = kernel_window(704, 0.9)
    want = first.copy()
    assert first.flags.writeable and first.flags.owndata
    first[:] = -1.0
    second = kernel_window(704, 0.9)
    assert second is not first and second.flags.writeable
    np.testing.assert_array_equal(second, want)
    # Equal (T, b) in numpy types give the same window; a different b does not.
    np.testing.assert_array_equal(kernel_window(np.int64(704), np.float64(0.9)), want)
    assert kernel_window(704, 0.45).shape[0] < want.shape[0]
    # The window is [K(d / (T b))] for |d| <= floor(T b).
    x = np.arange(-633, 634) / (704 * 0.9)
    np.testing.assert_array_equal(want, 0.75 * (1.0 - x * x))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_local_sums_reject_non_finite_input(bad):
    # Squares or weights that overflowed fail with the cause named.
    vals = np.ones((400, 6))
    vals[200, 1] = bad
    with pytest.raises(NumericalError, match="overflowed; rescale the series"):
        local_sums(vals, kernel_window(400, 0.05))


def _smooth_counting_paths(values, window):
    """local_sums(values, window) and the calls it made to each smoother and to the O(L) quadratic check."""
    with (
        mock.patch.object(kernels, "_gemm_sums", wraps=kernels._gemm_sums) as gemm,
        mock.patch.object(kernels, "_chunk_sums", wraps=kernels._chunk_sums) as chunk,
        mock.patch.object(kernels, "_quadratic", wraps=kernels._quadratic) as check,
    ):
        out = local_sums(values, window)
    return out, {"gemm": gemm.call_count, "chunk": chunk.call_count, "check": check.call_count}


def _assert_matches_dense(got, values, window):
    want = reference.dense_local_sums(values, window)
    assert np.all(np.abs(got - want) <= 1e-13 * reference.dense_local_sums(np.abs(values), window))


@pytest.mark.parametrize("defect", ["one tap moved by 1e-9", "a zero run off the center"])
def test_local_sums_keep_the_gemm_for_a_long_window_off_the_quadratic(defect):
    # At n = 704 the kernel window for b = 0.9 takes the chunk path; a window
    # that is not a + c d^2 to a few ulps off its hole must not.
    n = 704
    window = kernel_window(n, 0.9)
    half = (window.shape[0] - 1) // 2
    values = np.random.default_rng(6).normal(size=n)
    assert _smooth_counting_paths(values, window)[1] == {"gemm": 0, "chunk": 1, "check": 1}
    if defect == "one tap moved by 1e-9":
        window[half + 200] += 1e-9
    else:
        window[half + 100 : half + 110] = 0.0
    got, calls = _smooth_counting_paths(values, window)
    assert calls == {"gemm": 1, "chunk": 0, "check": 1}
    _assert_matches_dense(got, values, window)


def test_local_sums_rejects_an_even_length_window():
    # Every smoother centers the window at index half of 2 half + 1 taps; an
    # even length has no center tap, so it is refused rather than weighted
    # one tap off the dense convention.
    n = 704
    values = np.random.default_rng(6).normal(size=n)
    with pytest.raises(InputError, match="odd length, got 1266"):
        local_sums(values, kernel_window(n, 0.9)[:-1])
    with pytest.raises(InputError, match="odd length, got 2"):
        local_sums(values[:5], np.ones(2))


def test_local_sums_keep_the_gemm_on_study_sized_windows_without_the_quadratic_check():
    # T = 500, every grid bandwidth, plain and holed as for p = 2: the O(1)
    # test sends these to the GEMM before any O(L) work.
    T, p = 500, 2
    values = np.random.default_rng(7).normal(size=T - p)
    for b in BandwidthGrid().bandwidths(T):
        for window in (kernel_window(T, b), leave_out_window(kernel_window(T, b), p)):
            got, calls = _smooth_counting_paths(values, window)
            assert calls == {"gemm": 1, "chunk": 0, "check": 0}
            _assert_matches_dense(got, values, window)


def test_local_sums_take_the_chunk_path_on_the_benchmark_windows():
    # The pipeline's T = 2000 window at b = 0.159 and the T = 8000 grid from
    # its second bandwidth up, plain and holed for every order to q_max = 10.
    grid = [(8000, b) for b in BandwidthGrid().bandwidths(8000)[1:]]
    for T, b in [(2000, 0.159), *grid]:
        for p in range(-1, 11):
            window = kernel_window(T, b) if p < 0 else leave_out_window(kernel_window(T, b), p)
            values = np.random.default_rng(p + 1).normal(size=T - max(p, 0))
            assert _smooth_counting_paths(values, window)[1] == {"gemm": 0, "chunk": 1, "check": 1}, (T, b, p)


@pytest.mark.parametrize("T, b", [(2000, 0.159), (500, 0.1)], ids=["chunk", "gemm"])
@pytest.mark.parametrize("shape", [(1998, 0), (1998, 0, 3), (0,), (0, 4), (0, 2, 2)])
def test_local_sums_of_empty_input_are_empty(T, b, shape):
    # No columns, or no centers, on a window that takes either path with a
    # column: an empty array of the input's shape, as window_counts(0, w).
    out = local_sums(np.zeros(shape), kernel_window(T, b))
    assert out.shape == shape and out.dtype == float


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
