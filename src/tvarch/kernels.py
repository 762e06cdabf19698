"""Kernel functions, the smoothing window, and kernel norm constants.

The package smooths with one kernel, the Epanechnikov kernel 3/4 (1 - x^2) on
[-1, 1]: the estimators, tests and tuning routines take no kernel argument and
call :func:`kernel_window`, :func:`k_l2_norm_sq` and :func:`k_star_l2_norm_sq`
with their defaults.

The norm constants are exact: ||K||^2, the overlap function K* and ||K*||^2
come from a table of closed forms for the two kernels the module defines,
Epanechnikov (3/5, a degree-5 polynomial, 167/770) and :func:`box` (1/2,
(1 - |x|)/2, 1/6); any other kernel raises :class:`InputError`.  The three
functions keep their ``kernel`` argument because the benchmark harness passes
the kernel positionally and the test suite checks the box entries against
quadrature.

The smoothing weight placed on observation i by a window centered at t is

    k(t, i; b) = K((t - i) / (T * b)) / sum_j K((t - j) / (T * b)),

with the sums running over the estimation range ``p+1 .. T``.  Boundary
centers are handled purely by this self-normalization.  Every smoother in the
package is a discrete convolution with the window returned by
:func:`kernel_window`: :func:`local_sums` gives the numerators for all
centers at once and :func:`window_counts` the denominators, from the window's
prefix sums; the local sums set the total cost of smoothing every center,
O(T^2 b).  The leave-(p+1)-out cross-validation sums are the same
convolution with a holed window, :func:`leave_out_window`, whose entries
for indices t..t+p are zero, so they are exact and cost no second pass.

:func:`local_sums` computes the convolution as a blocked GEMM.  The centers
go _BLOCK at a time; each block is one matmul of its input rows, read in
place from a (columns, n) array, with a (_BLOCK + L - 1, _BLOCK) Toeplitz
slab of the length-L window, built once per call.  An input with a
non-finite value takes one np.convolve per column.  A GEMM sum is a dot product
of the same terms in BLAS's order, so it can differ from the convolution,
and between BLAS thread counts, in the last bits: outputs are byte-identical
at a fixed BLAS thread setting, whatever the package's own ``workers``.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyWindowError, InputError

__all__ = [
    "epanechnikov",
    "box",
    "k_l2_norm_sq",
    "k_star",
    "k_star_l2_norm_sq",
    "kernel_window",
    "leave_out_window",
    "local_sums",
    "window_counts",
]


def epanechnikov(x):
    """Epanechnikov kernel 0.75*(1 - x^2) on [-1, 1], zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - x * x), 0.0)
    return out if out.ndim else float(out)


def box(x):
    """Box kernel 0.5 on [-1, 1]."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= 1.0, 0.5, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Kernel constants in closed form.
#
# For a kernel K on [-1, 1], K*(x) = int K(v) K(v + 2|x|) dv is a function of
# a = 2|x| alone and vanishes for a >= 2.  Each entry is (||K||^2, K* as a
# function of a on [0, 2), ||K*||^2).  The Epanechnikov overlap
# 3/5 - 3a^2/4 + 3a^3/8 - 3a^5/160 is written factored, so that it is exactly
# 0 at the edge and loses no digits near it.
_CLOSED_FORMS = {
    epanechnikov: (3.0 / 5.0, lambda a: 3.0 / 160.0 * (2.0 - a) ** 3 * (a * a + 6.0 * a + 4.0), 167.0 / 770.0),
    box: (1.0 / 2.0, lambda a: (2.0 - a) / 4.0, 1.0 / 6.0),
}


def _closed_form(kernel):
    try:
        return _CLOSED_FORMS[kernel]
    except (KeyError, TypeError):
        raise InputError(f"no closed-form constants for kernel {kernel!r}") from None


def k_l2_norm_sq(kernel=epanechnikov) -> float:
    """Squared L2 norm of the kernel over [-1, 1] (3/5 for Epanechnikov)."""
    return _closed_form(kernel)[0]


def k_star(x, kernel=epanechnikov):
    """Overlap function K*(x) = int_{-1}^{1-2|x|} K(v) K(v + 2|x|) dv."""
    overlap = _closed_form(kernel)[1]
    a = 2.0 * np.abs(np.asarray(x, dtype=float))
    out = np.where(a < 2.0, overlap(np.minimum(a, 2.0)), 0.0)
    return out if out.ndim else float(out)


def k_star_l2_norm_sq(kernel=epanechnikov) -> float:
    """Squared L2 norm of K* over [-1, 1] (167/770 for Epanechnikov)."""
    return _closed_form(kernel)[2]


# ---------------------------------------------------------------------------
# Streaming smoothing core shared by every estimator.


def kernel_window(T: int, b: float, kernel=epanechnikov) -> np.ndarray:
    """Un-normalized window [K(d/(T b))] for integer offsets |d| <= floor(T b)."""
    if not (0.0 < b <= 1.0):
        raise InputError(f"bandwidth must lie in (0, 1], got {b}")
    halfwidth = int(np.floor(T * b))
    d = np.arange(-halfwidth, halfwidth + 1)
    return np.asarray(kernel(d / (T * b)), dtype=float)


def leave_out_window(window: np.ndarray, p: int) -> np.ndarray:
    """``window`` with entries half-p..half, the weights center t puts on indices t..t+p, set to zero."""
    half = (window.shape[0] - 1) // 2
    holed = window.copy()
    holed[max(half - p, 0) : half + 1] = 0.0
    return holed


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


# Centers per block of the GEMM smoother.
_BLOCK = 64


def _slab(window: np.ndarray, block: int) -> np.ndarray:
    """(block + L - 1, block) Toeplitz slab with slab[r, s] = window[L - 1 + s - r], zero off the window.

    Row r of a block's slab weights input index t0 - half + r for the
    block's center t0 + s.  Row r is padded[top - r : top - r + block]: a
    view with a negative row stride, copied once so BLAS can read it.
    """
    L = window.shape[0]
    padded = np.zeros(L + 2 * (block - 1))
    padded[block - 1 : block - 1 + L] = window
    top = block + L - 2
    step = padded.itemsize
    return np.ndarray((block + L - 1, block), buffer=padded, offset=step * top, strides=(-step, step)).copy()


def _gemm_sums(columns: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Local sums of every row of a C-contiguous (c, n) array, one matmul per block of centers.

    Each product reads the block's input rows in place.  Near either end a
    block's window runs past 0..n-1; those rows are not padded in, their slab
    rows are skipped instead.
    """
    c, n = columns.shape
    block = min(_BLOCK, n)
    slab = _slab(window, block)
    out = np.empty((c, n))
    half = (window.shape[0] - 1) // 2
    for t0 in range(0, n, block):
        t1 = min(t0 + block, n)
        lo, hi = max(t0 - half, 0), min(t1 + half, n)
        first = lo - (t0 - half)
        np.matmul(columns[:, lo:hi], slab[first : first + hi - lo, : t1 - t0], out=out[:, t0:t1])
    return out


def local_sums(values: np.ndarray, window: np.ndarray) -> np.ndarray:
    """sum_i K((t-i)/(Tb)) * values[i] for every center t, along axis 0.

    The sums are a blocked GEMM over the columns (the entries of values[i])
    as rows of a (c, n) array: an input that is the transpose of such an
    array, as the package's callers build it, is read without a copy, and
    the result is laid out the same way.  An input with any non-finite value
    takes one np.convolve per column instead, so a non-finite value reaches
    only the centers its window covers.
    """
    v = np.asarray(values, dtype=float)
    window = _trim_window(window, v.shape[0])
    flat = v.reshape(v.shape[0], -1)
    if np.isfinite(flat).all():
        return _gemm_sums(np.ascontiguousarray(flat.T), window).T.reshape(v.shape)
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
