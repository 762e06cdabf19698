"""Kernel functions, the smoothing window, and kernel norm constants.

The package smooths with one kernel, the Epanechnikov kernel 3/4 (1 - x^2) on
[-1, 1]: the estimators, tests and tuning routines take no kernel argument.
Its norm constants are exact closed forms: ||K||^2 = 3/5, the overlap
function K* a degree-5 polynomial, and ||K*||^2 = 167/770.

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
Each window is built once per (T, b) and cached; :func:`kernel_window`
hands every caller its own copy.

:func:`local_sums` has two paths for finite input.  Neither keeps a running
sum across the series, which loses digits: no sum spans more than one window,
or one chunk.

- The blocked GEMM.  The centers go _BLOCK at a time; each block is one
  matmul of its input rows, read in place from a (columns, n) array, with a
  (_BLOCK + L - 1, _BLOCK) Toeplitz slab of the length-L window, built once
  per call.  It serves any window.
- The chunk-moment smoother, for long windows that are a quadratic a + c d^2
  in the tap offset d off a zeroed run at the center: every
  :func:`kernel_window` and :func:`leave_out_window`.  The centers go
  _CHUNK at a time; each chunk of _CHUNK inputs lying _CHUNK taps or more
  inside every window of such a block enters through three moments, sum v,
  sum u v and sum u^2 v about its midpoint, so it costs three rows instead
  of _CHUNK; only the ragged edges and the hole's chunks keep slab rows.  It
  costs O(n (L / _CHUNK + _CHUNK)) in place of O(n L).

:func:`local_sums` decides in O(1), from L, the hole's length and n, whether
the chunk path would save a third of the slab's rows and enough work to
repay its fixed cost; the short windows of T = 500 series never get past this
test.  Only then does an O(L) check confirm the quadratic to a few ulps; a
window that fails it keeps the GEMM.  Both paths take finite input only: in
a GEMM block one NaN or inf would reach every center of the block, so a
non-finite value raises NumericalError.  A GEMM sum is a dot product of the
same terms in BLAS's order, so it can differ between BLAS thread counts in
the last bits: outputs are byte-identical at a fixed BLAS thread setting,
whatever the package's own ``workers``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import EmptyWindowError, InputError, NumericalError

__all__ = [
    "epanechnikov",
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


def _require_epanechnikov(kernel) -> None:
    if kernel is not epanechnikov:
        raise InputError(f"the package smooths with the Epanechnikov kernel only, got {kernel!r}")


def k_l2_norm_sq(kernel=epanechnikov) -> float:
    """Squared L2 norm 3/5 of the kernel over [-1, 1].

    ``kernel`` takes only :func:`epanechnikov`; any other value raises
    InputError.  It stays because ``bench/workloads.py`` passes the kernel
    positionally, and goes with ROADMAP items 4(a) and 4(c).
    """
    _require_epanechnikov(kernel)
    return 3.0 / 5.0


def k_star(x):
    """Overlap function K*(x) = int_{-1}^{1-2|x|} K(v) K(v + 2|x|) dv.

    With a = 2|x| it is 3/5 - 3a^2/4 + 3a^3/8 - 3a^5/160 on [0, 2), zero
    beyond, written factored so that it is exactly 0 at the edge and loses no
    digits near it; a NaN gives 0.
    """
    a = 2.0 * np.abs(np.asarray(x, dtype=float))
    inside = np.minimum(a, 2.0)
    out = np.where(a < 2.0, 3.0 / 160.0 * (2.0 - inside) ** 3 * (inside * inside + 6.0 * inside + 4.0), 0.0)
    return out if out.ndim else float(out)


def k_star_l2_norm_sq(kernel=epanechnikov) -> float:
    """Squared L2 norm 167/770 of K* over [-1, 1]; ``kernel`` as in :func:`k_l2_norm_sq`."""
    _require_epanechnikov(kernel)
    return 167.0 / 770.0


# ---------------------------------------------------------------------------
# Streaming smoothing core shared by every estimator.


def kernel_window(T: int, b: float) -> np.ndarray:
    """Un-normalized window [K(d/(T b))] for integer offsets |d| <= floor(T b).

    Each (T, b) window is built once and cached; every call returns a fresh,
    writable copy, so a caller may change its window in place.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise InputError(f"series length must be an integer >= 1, got {T!r}")
    if not (0.0 < b <= 1.0):
        raise InputError(f"bandwidth must lie in (0, 1], got {b}")
    return _built_window(int(T), float(b)).copy()


@functools.lru_cache(maxsize=64)
def _built_window(T: int, b: float) -> np.ndarray:
    halfwidth = int(np.floor(T * b))
    d = np.arange(-halfwidth, halfwidth + 1)
    window = np.asarray(epanechnikov(d / (T * b)), dtype=float)
    window.flags.writeable = False
    return window


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


# Centers per block of the GEMM smoother.
_BLOCK = 64
# Inputs per chunk of the chunk-moment smoother, and its centers per block:
# every block meets the chunks at the same offsets from its first center.
_CHUNK = 32
# [1, u, u^2] for the offsets u of a chunk's inputs from its midpoint.
_MOMENT_BASIS = np.vander(np.arange(_CHUNK) - (_CHUNK - 1) / 2.0, 3, increasing=True)
# Output entries (columns x centers) per group of blocks, 512 KiB.
_GROUP_ENTRIES = 1 << 16
# Slab rows, at a block of _CHUNK centers, times centers the chunk path must
# save to repay its fixed cost (about 0.1 ms at 1 to 77 columns, one core).
_CHUNK_MIN_SAVED = 1 << 19


def _view(a: np.ndarray, start: int, shape: tuple, strides: tuple) -> np.ndarray:
    """View of the C-contiguous ``a`` from flat element ``start``, with strides counted in elements."""
    step = a.itemsize
    return np.ndarray(shape, buffer=a, offset=step * start, strides=tuple(step * s for s in strides))


def _slab(window: np.ndarray, block: int) -> np.ndarray:
    """(block + L - 1, block) Toeplitz slab with slab[r, s] = window[L - 1 + s - r], zero off the window.

    Row r of a block's slab weights input index t0 - half + r for the
    block's center t0 + s.  Row r is padded[top - r : top - r + block], top
    = block + L - 2: a view with a negative row stride, so callers copy the
    rows they multiply by, for BLAS.
    """
    L = window.shape[0]
    padded = np.zeros(L + 2 * (block - 1))
    padded[block - 1 : block - 1 + L] = window
    return _view(padded, block + L - 2, (block + L - 1, block), (-1, 1))


def _gemm_sums(columns: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Local sums of every row of a C-contiguous (c, n) array, one matmul per block of centers.

    Each product reads the block's input rows in place.  Near either end a
    block's window runs past 0..n-1; those rows are not padded in, their slab
    rows are skipped instead.
    """
    c, n = columns.shape
    block = min(_BLOCK, n)
    slab = _slab(window, block).copy()
    out = np.empty((c, n))
    half = (window.shape[0] - 1) // 2
    for t0 in range(0, n, block):
        t1 = min(t0 + block, n)
        lo, hi = max(t0 - half, 0), min(t1 + half, n)
        first = lo - (t0 - half)
        np.matmul(columns[:, lo:hi], slab[first : first + hi - lo, : t1 - t0], out=out[:, t0:t1])
    return out


def _chunk_layout(n: int, half: int, hole: int):
    """Chunks (qlo, qend, qhole) of the chunk-moment smoother, or None where it would not pay.

    Offsets are from the first of a block of _CHUNK centers, in chunks of
    _CHUNK inputs.  Chunks qlo..qend-1 lie _CHUNK taps or more inside the
    window of every center of the block (the guard chunk); of those, chunks
    0..qhole-1 meet the zeroed run of some center's holed window.  The
    inputs outside those chunks, and inside the hole's chunks, are the slab
    bands.  O(1): the bands plus three rows per chunk must save a third of
    the slab's rows, and _CHUNK_MIN_SAVED rows times centers.
    """
    C = _CHUNK
    qlo = -((half + 1 - 2 * C) // C)
    qend = (half + 1 - C) // C
    qhole = (C + hole - 2) // C + 1 if hole else 0
    rows = (C * qlo + half) + (C + half - C * qend) + C * qhole + 3 * (qend - qlo)
    slab = C + 2 * half
    if qlo > 0 or qhole > qend or 3 * rows > 2 * slab or n * (slab - rows) < _CHUNK_MIN_SAVED:
        return None
    return qlo, qend, qhole


def _hole(window: np.ndarray) -> int:
    """Length of the run of zero taps ending at the window's center: p + 1 for a leave_out_window, else 0."""
    half = (window.shape[0] - 1) // 2
    hole = 0
    while hole <= half and window[half - hole] == 0.0:
        hole += 1
    return hole


def _quadratic(window: np.ndarray, hole: int):
    """(a, c) with window[half + d] = a + c d^2, |d| <= half, to 4 ulps of a at every tap off the hole, else None.

    a and c are read from the taps d = 1 and d = half, far apart: an
    adjacent difference would cancel.  The quadratic must also be positive
    on every tap a chunk can cover, |d| <= half - _CHUNK, so that no chunk
    weight is a near-zero difference of its moment terms.
    """
    half = (window.shape[0] - 1) // 2
    c = (window[-1] - window[half + 1]) / (half * half - 1.0)
    a = window[half + 1] - c
    if not (a > 0.0 and a + c * (half - _CHUNK) ** 2 > 0.0):
        return None
    d = np.arange(-half, half + 1, dtype=float)
    miss = np.abs(window - (a + c * d * d))
    miss[half - hole + 1 : half + 1] = 0.0
    return (a, c) if miss.max() <= 4.0 * np.finfo(float).eps * a else None


def _add_band(blocks: np.ndarray, columns: np.ndarray, rows: np.ndarray, r0: int) -> None:
    """blocks[j] += columns[:, B j + r0 : B j + r0 + len(rows)] @ rows for every block j, zero past 0..n-1.

    The blocks whose band lies inside 0..n-1 go in one batched matmul over a
    strided view; the few that cross an end are clipped one at a time.
    """
    nb, c, B = blocks.shape
    n = columns.shape[1]
    width = rows.shape[0]
    first = min(nb, max(0, -(r0 // B)))
    stop = max(first, min(nb, (n - r0 - width) // B + 1))
    if stop > first:
        blocks[first:stop] += np.matmul(_view(columns, B * first + r0, (stop - first, c, width), (B, n, 1)), rows)
    for j in (*range(max(0, (-r0 - width) // B + 1), first), *range(stop, min(nb, -((r0 - n) // B)))):
        lo, hi = max(B * j + r0, 0), min(B * j + r0 + width, n)
        blocks[j] += columns[:, lo:hi] @ rows[lo - B * j - r0 : hi - B * j - r0]


def _chunk_sums(columns: np.ndarray, window: np.ndarray, layout: tuple, a: float, c: float) -> np.ndarray:
    """Local sums of every row of a C-contiguous (k, n) array for a window a + c d^2 off its hole.

    Chunk q of _CHUNK inputs has the moments M0 = sum v, M1 = sum u v and
    M2 = sum u^2 v, u the offset from its midpoint m, one matmul against the
    basis [1, u, u^2].  Where the chunk lies inside every window of a block
    (_CHUNK centers) it adds (a + c delta^2) M0 - 2 c delta M1 + c M2 to t,
    delta = t - m: one batched matmul of each block's moments, a strided
    view, with a (3 chunks, _CHUNK) coefficient matrix all blocks share.
    The bands (the two ragged edges, widened by the guard chunk, and the
    hole's chunks) add their rows of the Toeplitz slab, in window order.
    """
    C = _CHUNK
    qlo, qend, qhole = layout
    k, n = columns.shape
    half = (window.shape[0] - 1) // 2
    nb = -(-n // C)
    out = np.empty((k, nb * C))
    blocks = _view(out, 0, (nb, k, C), (C, nb * C, 1))

    # Block j reads chunks j + qlo .. j + qend - 1; chunks outside 0..n-1 are zero.
    chunks = nb - 1 + qend - qlo
    moments = np.zeros((k, chunks, 3))
    full = n // C
    np.matmul(columns[:, : C * full].reshape(k, full, C), _MOMENT_BASIS, out=moments[:, -qlo : full - qlo])
    if n > C * full:
        moments[:, full - qlo] = columns[:, C * full :] @ _MOMENT_BASIS[: n - C * full]
    delta = np.arange(C) - (C * np.arange(qlo, qend)[:, None] + (C - 1) / 2.0)
    coef = np.stack([a + c * delta * delta, -2.0 * c * delta, np.full_like(delta, c)], axis=1)
    coef[-qlo : qhole - qlo] = 0.0
    per_block = _view(moments, 0, (nb, k, 3 * (qend - qlo)), (3, 3 * chunks, 1))
    coef = coef.reshape(-1, C)

    slab = _slab(window, C)
    bands = [(-half, C * qlo), (C * qend, C + half)] + ([(0, C * qhole)] if qhole else [])
    bands = [(r0, np.ascontiguousarray(slab[half + r0 : half + r1])) for r0, r1 in bands]
    # Groups of blocks small enough that each band's product and the sum it
    # is added to stay in cache.
    group = max(1, _GROUP_ENTRIES // (k * C))
    for g0 in range(0, nb, group):
        g = blocks[g0 : g0 + group]
        np.matmul(per_block[g0 : g0 + group], coef, out=g)
        for r0, rows in bands:
            _add_band(g, columns, rows, r0 + C * g0)
    return out[:, :n]


def local_sums(values: np.ndarray, window: np.ndarray) -> np.ndarray:
    """sum_i K((t-i)/(Tb)) * values[i] for every center t, along axis 0.

    The sums run over the columns (the entries of values[i]) as rows of a
    C-contiguous (c, n) array: an input that is the transpose of such an
    array, as the package's callers build it, is read without a copy, and
    the result is laid out the same way.  A long window that is a quadratic
    off its hole, as every :func:`kernel_window` and
    :func:`leave_out_window` is, takes the chunk-moment smoother; any other
    input the blocked GEMM.  A non-finite input value, as from squares or
    weights that overflowed, raises NumericalError.  The window has odd
    length 2 half + 1, its center at index half; an even length raises
    InputError.
    """
    if window.shape[0] % 2 == 0:
        raise InputError(f"smoothing window must have odd length, got {window.shape[0]}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return np.empty(v.shape)
    n = v.shape[0]
    window = _trim_window(window, n)
    flat = v.reshape(n, -1)
    if not np.isfinite(flat).all():
        raise NumericalError("smoothing input is not finite: the squares or weights overflowed; rescale the series")
    columns = np.ascontiguousarray(flat.T)
    half = (window.shape[0] - 1) // 2
    # A hole only adds slab rows: a window too short for the chunk path
    # without one skips the hole's scan and the O(L) check.
    if _chunk_layout(n, half, 0) is not None:
        hole = _hole(window)
        layout = _chunk_layout(n, half, hole)
        fit = None if layout is None else _quadratic(window, hole)
        if fit is not None:
            return _chunk_sums(columns, window, layout, *fit).T.reshape(v.shape)
    return _gemm_sums(columns, window).T.reshape(v.shape)


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
