"""Path simulation for time-varying ARCH models.

Paths are initialized with a long burn-in of the stationary ARCH recursion at
frozen coefficients a_j(0), then the time-varying recursion

    sigma_t^2 = a_0(t/T) + sum_j a_j(t/T) x_{t-j}^2,   x_t = xi_t sigma_t

runs for t = 1..T, indices t <= 0 being supplied by the burn-in tail.  The
generator is Philox (counter-based, platform-stable); replication r of a
Monte-Carlo run uses :func:`derive_seed` so parallel streams never overlap.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonPositiveVolatilityError
from .model import NoiseSpec, ReturnSeries, TvArchModel

__all__ = ["SimulationConfig", "derive_seed", "generator", "draw_noise", "simulate_path"]

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path) -> int:
    """Derive a child seed from a base seed and a path of ints/strings.

    Pure integer arithmetic (splitmix64 chain), so derived streams are
    reproducible across platforms and disjoint for distinct paths.
    """
    h = seed & _MASK64
    for part in path:
        if isinstance(part, str):
            part = zlib.crc32(part.encode())
        h = _splitmix64(h ^ _splitmix64(int(part) & _MASK64))
    return h


def generator(seed: int) -> np.random.Generator:
    """Counter-based Philox generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True)
class SimulationConfig:
    T: int
    seed: int
    burn_in: int = 500

    def __post_init__(self):
        if self.T < 1:
            raise InputError("T must be >= 1")
        if self.burn_in < 0:
            raise InputError("burn_in must be >= 0")


def _draws(spec: NoiseSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    if spec.law == "gaussian":
        return rng.standard_normal(n)
    # Student-t standardized to unit variance.
    scale = np.sqrt((spec.df - 2.0) / spec.df)
    return rng.standard_t(spec.df, size=n) * scale


def draw_noise(spec: NoiseSpec, n: int, seed: int) -> np.ndarray:
    """n i.i.d. unit-variance draws; identical seeds give identical streams."""
    if n < 0:
        raise InputError("n must be >= 0")
    if n == 0:
        return np.empty(0)
    return _draws(spec, generator(seed), n)


def simulate_path(model: TvArchModel, config: SimulationConfig) -> ReturnSeries:
    """Simulate x_1..x_T from the model under the given config."""
    contraction = model.validate()
    p = model.p
    T = config.T
    if contraction > 0.9 and config.burn_in < 50:
        warnings.warn(
            f"burn_in={config.burn_in} is short for contraction constant {contraction:.3f};"
            " initialization bias may be visible",
            stacklevel=2,
        )

    n_pre = config.burn_in + p
    xi = _draws(model.noise, generator(config.seed), n_pre + T)

    frozen = np.array([c(0.0) for c in model.coeffs])
    # validate() guarantees sum_j a_j(0) < 1.
    mean_sq0 = float(frozen[0] / (1.0 - frozen[1:].sum()))

    # One coefficient row per step: the stationary prefix at frozen rescaled
    # time 0, then a_j(t/T) for t = 1..T.
    u = np.arange(1, T + 1) / T
    table = np.concatenate([np.broadcast_to(frozen, (n_pre, p + 1)), model.coefficient_values(u).T])
    if p == 0:
        # No lags, no feedback: sigma_t^2 = a_0 at every step, one vector op.
        a0 = table[:, 0]
        bad = np.flatnonzero(a0 <= 0.0)
        if bad.size:
            s = int(bad[0])
            raise NonPositiveVolatilityError(f"sigma_t^2 = {a0[s]:.3g} at t={s - n_pre + 1}")
        return ReturnSeries(xi[n_pre:] * np.sqrt(a0[n_pre:]))
    table = table.tolist()

    lags = range(1, p + 1)
    x = []
    x_sq = [mean_sq0] * p  # x_sq[-j] is the j-th lag of x^2
    for xi_s, row in zip(xi.tolist(), table):
        sig_sq = row[0]
        for j in lags:
            sig_sq += row[j] * x_sq[-j]
        if sig_sq <= 0.0:
            raise NonPositiveVolatilityError(f"sigma_t^2 = {sig_sq:.3g} at t={len(x) - n_pre + 1}")
        x_s = xi_s * math.sqrt(sig_sq)
        x.append(x_s)
        x_sq.append(x_s**2)

    return ReturnSeries(np.array(x[n_pre:]))
