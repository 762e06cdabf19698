"""Kernel functions, the smoothing window, and kernel norm constants.

The smoothing weight placed on observation i by a window centered at t is

    k(t, i; b) = K((t - i) / (T * b)) / sum_j K((t - j) / (T * b)),

with the sums running over the estimation range ``p+1 .. T``.  Boundary
centers are handled purely by this self-normalization.  Every smoother in the
package is a discrete convolution with the window returned by
:func:`kernel_window`: :func:`local_sums` gives the numerators for all
centers at once and :func:`window_counts` the denominators, so the total cost
of smoothing every center is O(T^2 b).
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
    """Box kernel 0.5 on [-1, 1]; used in tests as an alternative kernel."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, 0.5, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Quadrature: composite Simpson, validated in the test suite by node doubling.

_SIMPSON_NODES = 4097


def _simpson(f, lo: float, hi: float, nodes: int = _SIMPSON_NODES) -> float:
    if hi <= lo:
        return 0.0
    if nodes % 2 == 0:
        nodes += 1
    x = np.linspace(lo, hi, nodes)
    y = np.asarray(f(x), dtype=float)
    h = (hi - lo) / (nodes - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


@functools.lru_cache(maxsize=8)
def k_l2_norm_sq(kernel=epanechnikov, nodes: int = _SIMPSON_NODES) -> float:
    """Squared L2 norm of the kernel over [-1, 1] (3/5 for Epanechnikov)."""
    return _simpson(lambda x: np.asarray(kernel(x)) ** 2, -1.0, 1.0, nodes)


def k_star(x, kernel=epanechnikov, nodes: int = _SIMPSON_NODES):
    """Overlap function K*(x) = int_{-1}^{1-2|x|} K(v) K(v + 2|x|) dv."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if nodes % 2 == 0:
        nodes += 1
    out = np.zeros_like(xs)
    for idx, xi in enumerate(xs):
        a = 2.0 * abs(xi)
        hi = 1.0 - a
        if hi <= -1.0:
            continue
        v = np.linspace(-1.0, hi, nodes)
        y = np.asarray(kernel(v)) * np.asarray(kernel(v + a))
        h = (hi + 1.0) / (nodes - 1)
        out[idx] = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=8)
def k_star_l2_norm_sq(kernel=epanechnikov, nodes: int = _SIMPSON_NODES) -> float:
    """Squared L2 norm of K* over [-1, 1]."""
    if nodes % 2 == 0:
        nodes += 1
    # K* is even; integrate on [0, 1] and double.
    x = np.linspace(0.0, 1.0, nodes)
    y = np.empty_like(x)
    chunk = 256
    for start in range(0, nodes, chunk):
        xs = x[start : start + chunk]
        a = 2.0 * xs[:, None]
        # Inner Simpson grid per outer node, ranges [-1, 1-2x].
        hi = 1.0 - a
        s = np.linspace(0.0, 1.0, nodes)[None, :]
        v = -1.0 + (hi + 1.0) * s
        integrand = np.asarray(kernel(v)) * np.asarray(kernel(v + a))
        h = (hi[:, 0] + 1.0) / (nodes - 1)
        simp = (
            integrand[:, 0]
            + integrand[:, -1]
            + 4.0 * integrand[:, 1:-1:2].sum(axis=1)
            + 2.0 * integrand[:, 2:-1:2].sum(axis=1)
        )
        vals = np.where(hi[:, 0] > -1.0, h / 3.0 * simp, 0.0)
        y[start : start + chunk] = vals**2
    h = 1.0 / (nodes - 1)
    return float(2.0 * h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


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
    """Normalizing sums sum_i K((t-i)/(Tb)) over the n in-range indices."""
    den = _conv_centered(np.ones(n), _trim_window(window, n))
    if np.any(den <= 0.0):
        raise EmptyWindowError("kernel window has no mass at some center")
    return den
