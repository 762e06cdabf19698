"""Model types: coefficient curves, noise laws, partitions, and regressors.

A time-varying ARCH model of order p carries p+1 coefficient functions
a_0, ..., a_p on rescaled time u in [0, 1].  A :class:`CoefficientPartition`
splits the index set {0, ..., p} into a time-varying block (smoothed
nonparametrically) and a constant block (estimated at the parametric rate).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractionError,
    InputError,
    ModelValidationError,
    NonPositiveInterceptError,
)

__all__ = [
    "CoefficientFunction",
    "NoiseSpec",
    "TvArchModel",
    "CoefficientPartition",
    "ReturnSeries",
    "regressor_matrices",
    "canonical_matrix",
    "validate_model",
]

_CHECK_GRID = np.linspace(0.0, 1.0, 1024)


@contextlib.contextmanager
def _config_fields(what: str):
    """Report a missing or malformed field of a JSON-style config as an InputError."""
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{what} lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} has a malformed field: {exc}") from exc


class CoefficientFunction:
    """A coefficient curve u -> a(u) on [0, 1].

    Wraps an arbitrary vectorized callable; the named constructors cover the
    shapes used in practice (constants, sinusoids, piecewise-linear curves)
    and are also what the JSON model configs map onto.
    """

    def __init__(self, fn, name: str = "custom"):
        self._fn = fn
        self.name = name

    def __call__(self, u):
        u_arr = np.asarray(u, dtype=float)
        out = np.asarray(self._fn(u_arr), dtype=float)
        if out.shape != u_arr.shape:
            out = np.broadcast_to(out, u_arr.shape).astype(float)
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"CoefficientFunction({self.name})"

    @classmethod
    def constant(cls, value: float) -> "CoefficientFunction":
        value = float(value)
        return cls(lambda u: np.full_like(u, value), name=f"constant({value})")

    @classmethod
    def sine(cls, offset: float, amplitude: float, frequency: float = 1.0) -> "CoefficientFunction":
        offset, amplitude, frequency = float(offset), float(amplitude), float(frequency)
        return cls(
            lambda u: offset + amplitude * np.sin(2.0 * np.pi * frequency * u),
            name=f"sine({offset}, {amplitude}, {frequency})",
        )

    @classmethod
    def cosine(cls, offset: float, amplitude: float, frequency: float = 1.0) -> "CoefficientFunction":
        offset, amplitude, frequency = float(offset), float(amplitude), float(frequency)
        return cls(
            lambda u: offset + amplitude * np.cos(2.0 * np.pi * frequency * u),
            name=f"cosine({offset}, {amplitude}, {frequency})",
        )

    @classmethod
    def piecewise_linear(cls, knots) -> "CoefficientFunction":
        pts = sorted((float(u), float(v)) for u, v in knots)
        if len(pts) < 2:
            raise InputError("piecewise_linear needs at least two knots")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        if xs[0] > 0.0 or xs[-1] < 1.0:
            raise InputError("piecewise_linear knots must span [0, 1]")
        return cls(lambda u: np.interp(u, xs, ys), name="piecewise_linear")

    @classmethod
    def from_config(cls, cfg: dict) -> "CoefficientFunction":
        """Build from a JSON-style dict, e.g. {"kind": "sine", "offset": 2, "amplitude": 1}."""
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise InputError(f"coefficient config must be a dict with a 'kind': {cfg!r}")
        kind = cfg["kind"]
        with _config_fields(f"{kind!r} coefficient config"):
            if kind == "constant":
                return cls.constant(cfg["value"])
            if kind == "sine":
                return cls.sine(cfg.get("offset", 0.0), cfg.get("amplitude", 1.0), cfg.get("frequency", 1.0))
            if kind == "cosine":
                return cls.cosine(cfg.get("offset", 0.0), cfg.get("amplitude", 1.0), cfg.get("frequency", 1.0))
            if kind == "piecewise_linear":
                return cls.piecewise_linear(cfg["knots"])
        raise InputError(f"unknown coefficient kind {kind!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Unit-variance noise law: standard Gaussian or standardized Student-t."""

    law: str = "gaussian"
    df: int | None = None

    def __post_init__(self):
        if self.law == "gaussian":
            if self.df is not None:
                raise InputError("gaussian noise takes no df")
        elif self.law == "student_t":
            if not isinstance(self.df, int) or self.df <= 4:
                raise InputError("student_t requires an integer df > 4 (finite fourth moment)")
        else:
            raise InputError(f"unknown noise law {self.law!r}")

    @classmethod
    def gaussian(cls) -> "NoiseSpec":
        return cls(law="gaussian")

    @classmethod
    def student_t(cls, df: int) -> "NoiseSpec":
        return cls(law="student_t", df=df)

    @classmethod
    def from_config(cls, cfg) -> "NoiseSpec":
        if isinstance(cfg, str):
            cfg = {"law": cfg}
        if not isinstance(cfg, dict):
            raise InputError(f"noise config must be a law name or a dict: {cfg!r}")
        law = cfg.get("law", "gaussian")
        if law in ("gaussian", "normal"):
            return cls.gaussian()
        if law in ("student_t", "student", "t"):
            with _config_fields("student_t noise config"):
                return cls.student_t(int(cfg["df"]))
        raise InputError(f"unknown noise law {law!r}")


@dataclass(frozen=True)
class TvArchModel:
    """Generative spec: lag order p, coefficient functions, and a noise law."""

    p: int
    coeffs: tuple
    noise: NoiseSpec = field(default_factory=NoiseSpec.gaussian)

    def __post_init__(self):
        if self.p < 0:
            raise InputError("lag order p must be >= 0")
        if len(self.coeffs) != self.p + 1:
            raise InputError(f"need p+1={self.p + 1} coefficient functions, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def coefficient_values(self, u) -> np.ndarray:
        """Stack a_j(u) into shape (p+1,) + shape(u)."""
        u = np.asarray(u, dtype=float)
        return np.stack([np.atleast_1d(c(u)) for c in self.coeffs])

    def validate(self) -> float:
        return validate_model(self)

    @classmethod
    def from_config(cls, cfg: dict) -> "TvArchModel":
        with _config_fields("model config"):
            coeffs = tuple(CoefficientFunction.from_config(c) for c in cfg["coeffs"])
            p = int(cfg.get("p", len(coeffs) - 1))
            noise = NoiseSpec.from_config(cfg.get("noise", "gaussian"))
        return cls(p=p, coeffs=coeffs, noise=noise)


def validate_model(model: TvArchModel) -> float:
    """Grid-check positivity of a_0, non-negativity of lags, and contraction.

    Returns the contraction constant max_u sum_j a_j(u) on the grid (0.0 when p = 0).
    """
    vals = model.coefficient_values(_CHECK_GRID)
    if vals[0].min() <= 0.0:
        u_bad = float(_CHECK_GRID[int(np.argmin(vals[0]))])
        raise NonPositiveInterceptError(
            f"intercept function must be strictly positive; min {vals[0].min():.6g} at u={u_bad:.4g}"
        )
    if model.p > 0:
        lag_vals = vals[1:]
        if lag_vals.min() < 0.0:
            j, k = np.unravel_index(int(np.argmin(lag_vals)), lag_vals.shape)
            raise ModelValidationError(
                f"lag coefficient a_{j + 1} is negative at u={_CHECK_GRID[k]:.4g}"
            )
        totals = lag_vals.sum(axis=0)
        k = int(np.argmax(totals))
        if totals[k] >= 1.0:
            raise ContractionError(float(_CHECK_GRID[k]), float(totals[k]))
        return float(totals[k])
    return 0.0


@dataclass(frozen=True)
class CoefficientPartition:
    """Bipartition of coefficient indices {0..p} into varying and constant blocks."""

    p: int
    varying: tuple
    constant: tuple = ()

    def __post_init__(self):
        if self.p < 0:
            raise InputError("lag order p must be >= 0")
        varying = tuple(sorted(int(i) for i in self.varying))
        constant = tuple(sorted(int(i) for i in self.constant))
        object.__setattr__(self, "varying", varying)
        object.__setattr__(self, "constant", constant)
        full = set(range(self.p + 1))
        if set(varying) & set(constant):
            raise InputError("varying and constant index sets overlap")
        if set(varying) | set(constant) != full:
            raise InputError(f"partition must cover all indices 0..{self.p}")
        if len(varying) + len(constant) != self.p + 1:
            raise InputError("duplicate indices in partition")
        if len(varying) == 0:
            raise InputError("the time-varying block must be nonempty")

    @property
    def m(self) -> int:
        return len(self.varying)

    @property
    def n(self) -> int:
        return len(self.constant)

    @classmethod
    def semiparametric(cls, p: int) -> "CoefficientPartition":
        """Time-varying intercept, constant lag coefficients."""
        return cls(p=p, varying=(0,), constant=tuple(range(1, p + 1)))

    @classmethod
    def fully_varying(cls, p: int) -> "CoefficientPartition":
        return cls(p=p, varying=tuple(range(p + 1)), constant=())


@dataclass(frozen=True)
class ReturnSeries:
    """Observed or simulated series x_1..x_T (1-based time convention)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise InputError("series must be one-dimensional")
        if arr.size == 0:
            raise InputError("series is empty")
        if not np.all(np.isfinite(arr)):
            raise InputError("series contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    def require_length(self, p: int) -> None:
        _require_length(self.T, p)


def _require_length(T: int, p: int) -> None:
    """Raise InputError unless p >= 0 and a series of length T has the p+2 observations a lag-p fit needs."""
    if p < 0:
        raise InputError("lag order p must be >= 0")
    if T < p + 2:
        raise InputError(f"need T >= p+2 = {p + 2} observations, got {T}")


def _lag_column(x_sq: np.ndarray, p: int, j: int) -> np.ndarray:
    """x^2_{t-j} for t = p+1..T as an array over the estimation rows."""
    T = x_sq.shape[0]
    if j == 0:
        return np.ones(T - p)
    return x_sq[p - j : T - j]


def regressor_matrices(series: ReturnSeries, partition: CoefficientPartition):
    """M and N regressor matrices over t = p+1..T, shapes (T-p, m) and (T-p, n).

    Index 0 maps to the constant regressor 1, index j >= 1 to x^2_{t-j};
    columns follow the sorted index lists of the partition.
    """
    p = partition.p
    series.require_length(p)
    x_sq = series.values**2
    M = np.column_stack([_lag_column(x_sq, p, j) for j in partition.varying])
    if partition.n:
        N = np.column_stack([_lag_column(x_sq, p, j) for j in partition.constant])
    else:
        N = np.empty((series.T - p, 0))
    return M, N


def canonical_matrix(series: ReturnSeries, p: int) -> np.ndarray:
    """Canonical regressors (1, x^2_{t-1}, ..., x^2_{t-p}) over t = p+1..T."""
    series.require_length(p)
    x_sq = series.values**2
    return np.column_stack([_lag_column(x_sq, p, j) for j in range(p + 1)])
