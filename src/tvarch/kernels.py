"""Kernel functions, the smoothing window, and kernel norm constants.

The package smooths with one kernel, the Epanechnikov kernel 3/4 (1 - x^2) on
[-1, 1]: the estimators, tests and tuning routines take no kernel argument and
call :func:`kernel_window`, :func:`k_l2_norm_sq` and :func:`k_star_l2_norm_sq`
with their defaults.  Those three keep a ``kernel`` argument so the test suite
can check the window and the quadrature on the :func:`box` kernel, whose
constants are known in closed form.

The smoothing weight placed on observation i by a window centered at t is

    k(t, i; b) = K((t - i) / (T * b)) / sum_j K((t - j) / (T * b)),

with the sums running over the estimation range ``p+1 .. T``.  Boundary
centers are handled purely by this self-normalization.  Every smoother in the
package is a discrete convolution with the window returned by
:func:`kernel_window`: :func:`local_sums` gives the numerators for all
centers at once and :func:`window_counts` the denominators, from the window's
prefix sums; the local sums set the total cost of smoothing every center,
O(T^2 b).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import EmptyWindowError, InputError

__all__ = [
    "epanechnikov",
    "box",
    "k_l2_norm_sq",
    "k_star",
    "k_star_l2_norm_sq",
    "kernel_window",
    "local_sums",
    "window_counts",
]


def epanechnikov(x):
    """Epanechnikov kernel 0.75*(1 - x^2) on [-1, 1], zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - x * x), 0.0)
    return out if out.ndim else float(out)


def box(x):
    """Box kernel 0.5 on [-1, 1]; the test suite's closed-form check of the quadrature."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, 0.5, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Quadrature: composite Simpson, validated in the test suite by node doubling.

_SIMPSON_NODES = 4097
# Outer points of K* per chunk: bounds its (points, nodes) temporaries.
_K_STAR_CHUNK = 256


def _simpson(y: np.ndarray, h) -> np.ndarray:
    """Composite Simpson rule along the last axis of samples y at an odd node count, spacing h."""
    odd, even = y[..., 1:-1:2].sum(axis=-1), y[..., 2:-1:2].sum(axis=-1)
    return h / 3.0 * (y[..., 0] + y[..., -1] + 4.0 * odd + 2.0 * even)


def _odd(nodes: int) -> int:
    return nodes + 1 - nodes % 2


def _kernel_constant(fn):
    """Cache ``fn(kernel, nodes)`` under the bound arguments, so every call form
    of the same (kernel, nodes), positional, keyword or default, shares one entry."""
    cached = functools.lru_cache(maxsize=8)(fn)

    @functools.wraps(fn)
    def constant(kernel=epanechnikov, nodes: int = _SIMPSON_NODES) -> float:
        return cached(kernel, nodes)

    constant.cache_info = cached.cache_info
    constant.cache_clear = cached.cache_clear
    return constant


@_kernel_constant
def k_l2_norm_sq(kernel=epanechnikov, nodes: int = _SIMPSON_NODES) -> float:
    """Squared L2 norm of the kernel over [-1, 1] (3/5 for Epanechnikov)."""
    nodes = _odd(nodes)
    y = np.asarray(kernel(np.linspace(-1.0, 1.0, nodes)), dtype=float) ** 2
    return float(_simpson(y, 2.0 / (nodes - 1)))


def k_star(x, kernel=epanechnikov, nodes: int = _SIMPSON_NODES):
    """Overlap function K*(x) = int_{-1}^{1-2|x|} K(v) K(v + 2|x|) dv."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = _odd(nodes)
    out = np.empty_like(xs)
    for lo in range(0, xs.shape[0], _K_STAR_CHUNK):
        a = 2.0 * np.abs(xs[lo : lo + _K_STAR_CHUNK])
        hi = 1.0 - a
        h = (hi + 1.0) / (nodes - 1)
        # np.linspace(-1, hi, nodes) for each row: the last node is exactly hi,
        # so v + a ends exactly at the kernel's edge.
        v = np.arange(nodes) * h[:, None] - 1.0
        v[:, -1] = hi
        y = np.asarray(kernel(v)) * np.asarray(kernel(v + a[:, None]))
        out[lo : lo + _K_STAR_CHUNK] = np.where(hi > -1.0, _simpson(y, h), 0.0)
    return float(out[0]) if scalar else out


@_kernel_constant
def k_star_l2_norm_sq(kernel=epanechnikov, nodes: int = _SIMPSON_NODES) -> float:
    """Squared L2 norm of K* over [-1, 1]."""
    nodes = _odd(nodes)
    # K* is even; integrate on [0, 1] and double.
    y = k_star(np.linspace(0.0, 1.0, nodes), kernel, nodes) ** 2
    return float(2.0 * _simpson(y, 1.0 / (nodes - 1)))


# ---------------------------------------------------------------------------
# Streaming smoothing core shared by every estimator.


def kernel_window(T: int, b: float, kernel=epanechnikov) -> np.ndarray:
    """Un-normalized window [K(d/(T b))] for integer offsets |d| <= floor(T b)."""
    if not (0.0 < b <= 1.0):
        raise InputError(f"bandwidth must lie in (0, 1], got {b}")
    halfwidth = int(np.floor(T * b))
    d = np.arange(-halfwidth, halfwidth + 1)
    return np.asarray(kernel(d / (T * b)), dtype=float)


def _trim_window(window: np.ndarray, n: int) -> np.ndarray:
    """Drop window offsets beyond +-(n-1); they never pair with an index."""
    half = (window.shape[0] - 1) // 2
    if half <= n - 1:
        return window
    return window[half - (n - 1) : half + n]


def _conv_centered(a: np.ndarray, window: np.ndarray) -> np.ndarray:
    # out[t] = sum_j a[j] * window[half + t - j], valid for any window length.
    half = (window.shape[0] - 1) // 2
    return np.convolve(a, window, mode="full")[half : half + a.shape[0]]


def local_sums(values: np.ndarray, window: np.ndarray) -> np.ndarray:
    """sum_i K((t-i)/(Tb)) * values[i] for every center t, along axis 0."""
    v = np.asarray(values, dtype=float)
    window = _trim_window(window, v.shape[0])
    if v.ndim == 1:
        return _conv_centered(v, window)
    flat = v.reshape(v.shape[0], -1)
    out = np.empty_like(flat)
    for j in range(flat.shape[1]):
        out[:, j] = _conv_centered(flat[:, j], window)
    return out.reshape(v.shape)


def window_counts(n: int, window: np.ndarray) -> np.ndarray:
    """Normalizing sums sum_i K((t-i)/(Tb)) over the n in-range indices.

    Center t weights index i by window[half + t - i], so its in-range mass is
    the window slice [max(0, half+t-n+1), min(L, half+t+1)): a difference of
    the window's prefix sums, O(n + L) for all centers.
    """
    window = _trim_window(window, n)
    half = (window.shape[0] - 1) // 2
    t = np.arange(n)
    lo = np.maximum(half + t - n + 1, 0)
    hi = np.minimum(half + t + 1, window.shape[0])
    # Adding 0.0 leaves a prefix sum unchanged, so a slice of zero weights
    # has mass exactly 0, as in the convolution.
    head = np.concatenate([[0.0], np.cumsum(window)])
    den = head[hi] - head[lo]
    if np.any(den <= 0.0):
        raise EmptyWindowError("kernel window has no mass at some center")
    return den
