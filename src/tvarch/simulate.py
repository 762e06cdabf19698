"""Path simulation for time-varying ARCH models.

Paths are initialized with a long burn-in of the stationary ARCH recursion at
frozen coefficients a_j(0), then the time-varying recursion

    sigma_t^2 = a_0(t/T) + sum_j a_j(t/T) x_{t-j}^2,   x_t = xi_t sigma_t

runs for t = 1..T, indices t <= 0 being supplied by the burn-in tail.
:func:`simulate_path` runs it for one seed, :func:`simulate_paths` for many
seeds at once, path for path the same bits.  The generator is Philox
(counter-based, platform-stable); replication r of a Monte-Carlo run uses
:func:`derive_seed` so parallel streams never overlap.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonPositiveVolatilityError
from .model import NoiseSpec, ReturnSeries, TvArchModel

__all__ = ["SimulationConfig", "derive_seed", "generator", "draw_noise", "simulate_path", "simulate_paths"]

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


def _require_lengths(T: int, burn_in: int) -> None:
    if T < 1:
        raise InputError("T must be >= 1")
    if burn_in < 0:
        raise InputError("burn_in must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    T: int
    seed: int
    burn_in: int = 500

    def __post_init__(self):
        _require_lengths(self.T, self.burn_in)


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


def _nonpositive(sig_sq: float, s: int, n_pre: int) -> NonPositiveVolatilityError:
    return NonPositiveVolatilityError(f"sigma_t^2 = {sig_sq:.3g} at t={s - n_pre + 1}")


def _coefficient_table(model: TvArchModel, T: int, burn_in: int):
    """Validate the model and give (table, n_pre, mean_sq0) for a path of length T.

    ``table`` has one row (a_0, ..., a_p) per step: the stationary prefix of
    n_pre = burn_in + p steps at frozen rescaled time 0, then a_j(t/T) for
    t = 1..T.  ``mean_sq0`` = a_0(0) / (1 - sum_j a_j(0)) starts the lags of x^2.
    """
    contraction = model.validate()
    if contraction > 0.9 and burn_in < 50:
        warnings.warn(
            f"burn_in={burn_in} is short for contraction constant {contraction:.3f};"
            " initialization bias may be visible",
            stacklevel=3,
        )
    n_pre = burn_in + model.p
    frozen = np.array([c(0.0) for c in model.coeffs])
    # validate() guarantees sum_j a_j(0) < 1.
    mean_sq0 = float(frozen[0] / (1.0 - frozen[1:].sum()))
    u = np.arange(1, T + 1) / T
    table = np.concatenate([np.broadcast_to(frozen, (n_pre, model.p + 1)), model.coefficient_values(u).T])
    if model.p == 0:
        # No lags: sigma_t^2 = a_0 at every step, so every path fails at the same step.
        bad = np.flatnonzero(table[:, 0] <= 0.0)
        if bad.size:
            raise _nonpositive(table[bad[0], 0], int(bad[0]), n_pre)
    return table, n_pre, mean_sq0


def simulate_path(model: TvArchModel, config: SimulationConfig) -> ReturnSeries:
    """Simulate x_1..x_T from the model under the given config."""
    table, n_pre, mean_sq0 = _coefficient_table(model, config.T, config.burn_in)
    xi = _draws(model.noise, generator(config.seed), table.shape[0])
    if model.p == 0:
        # No lags, no feedback: one vector op.
        return ReturnSeries(xi[n_pre:] * np.sqrt(table[n_pre:, 0]))

    lags = range(1, model.p + 1)
    x = []
    x_sq = [mean_sq0] * model.p  # x_sq[-j] is the j-th lag of x^2
    for xi_s, row in zip(xi.tolist(), table.tolist()):
        sig_sq = row[0]
        for j in lags:
            sig_sq += row[j] * x_sq[-j]
        if sig_sq <= 0.0:
            raise _nonpositive(sig_sq, len(x), n_pre)
        x_s = xi_s * math.sqrt(sig_sq)
        x.append(x_s)
        x_sq.append(x_s**2)

    return ReturnSeries(np.array(x[n_pre:]))


# Replicates per vector recursion.  Each lane is computed elementwise, so the
# block size changes no bit; it bounds the (steps, lanes) buffer.
_LANES = 128


def _recurse_lanes(x: np.ndarray, table: np.ndarray, n_pre: int, mean_sq0: float) -> None:
    """Run the recursion in place over the lanes of x, which holds xi with shape (steps, R).

    The operations are those of :func:`simulate_path`'s step loop in the same
    order, so every lane is that loop's path bit for bit; the square is
    ``np.float_power(x, 2.0)``, libm's pow as in Python's ``x**2``.  Raises at
    the first step where some lane's sigma^2 falls to or below 0, with the
    lowest such lane's error; for one lane that is the error simulate_path
    raises.
    """
    R = x.shape[1]
    p = table.shape[1] - 1
    ring = np.full((p, R), mean_sq0)  # ring[s % p] holds x^2_s; rows start as the lags of s = 0
    slots = list(ring)
    sig = np.empty(R)
    term = np.empty(R)
    # With a_0 > 0 and every a_j >= 0, sigma^2 >= a_0 > 0 in floating point
    # too, so only the other steps are checked.
    risky = (~((table[:, 0] > 0.0) & (table[:, 1:] >= 0.0).all(axis=1))).tolist()
    for s, (x_s, row, check) in enumerate(zip(x, table.tolist(), risky)):
        np.multiply(slots[(s - 1) % p], row[1], out=term)
        np.add(term, row[0], out=sig)
        for j in range(2, p + 1):
            np.multiply(slots[(s - j) % p], row[j], out=term)
            np.add(sig, term, out=sig)
        if check:
            bad = sig <= 0.0
            if bad.any():
                raise _nonpositive(float(sig[np.argmax(bad)]), s, n_pre)
        np.sqrt(sig, out=sig)
        np.multiply(x_s, sig, out=x_s)
        np.float_power(x_s, 2.0, out=slots[s % p])


def simulate_paths(model: TvArchModel, T: int, seeds, burn_in: int = 500) -> list:
    """One path per seed, each bit-identical to ``simulate_path(model, SimulationConfig(T, seed, burn_in))``.

    Each seed's xi comes from its own generator; the recursion then runs once
    per step as vector ops across blocks of up to ``_LANES`` replicates.  A
    block whose recursion raises reruns its seeds one at a time, with the
    model validated once per call, so the NonPositiveVolatilityError is the
    one that the lowest-index failing seed raises alone.
    """
    _require_lengths(T, burn_in)
    table, n_pre, mean_sq0 = _coefficient_table(model, T, burn_in)
    seeds = list(seeds)
    paths = []
    for start in range(0, len(seeds), _LANES):
        block = seeds[start : start + _LANES]
        x = np.empty((table.shape[0], len(block)))
        for i, seed in enumerate(block):
            x[:, i] = _draws(model.noise, generator(seed), table.shape[0])
        if model.p == 0:
            x[n_pre:] *= np.sqrt(table[n_pre:, :1])
        else:
            try:
                _recurse_lanes(x, table, n_pre, mean_sq0)
            except NonPositiveVolatilityError:
                for seed in block:
                    _recurse_lanes(_draws(model.noise, generator(seed), x.shape[0])[:, None], table, n_pre, mean_sq0)
                raise
        # Lane by lane: one transposed (R, T) copy read 0.5 MB more peak RSS over a study op.
        paths.extend(ReturnSeries(x[n_pre:, i].copy()) for i in range(len(block)))
    return paths
