"""Analysis pipeline and the simulation-study harness.

:func:`run_pipeline` chains the full workflow on one series: lag-order
selection, constancy tests per coefficient and jointly, the model fit the
tests point to, and the second-order test when the constant-lags model was
retained.

:func:`run_experiment` reproduces the simulation designs behind the reported
tables at configurable scale (replication count, sample sizes, noise law),
attaching a Monte-Carlo standard error to every reported cell so reduced-size
runs can be compared against reference values with principled tolerances.
Calibration replicate samples are cached per (statistic, T, p, partition, b,
B) with seeds derived from the design seed, so identical configurations share
identical critical values.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, TvArchError
from .estimate import (
    LEVEL,
    _plug_back,
    estimate_alpha_plugin,
    estimate_beta,
    estimate_beta_plugin,
    fit_semiparametric,
)
from .model import CoefficientFunction, CoefficientPartition, NoiseSpec, ReturnSeries, TvArchModel
from .select import BandwidthGrid, cv_bandwidth_semiparametric, cv_bandwidth_tvarch, select_lag_order
from .simulate import SimulationConfig, derive_seed, simulate_path
from .testing import (
    _map_ordered,
    _require_levels,
    _require_replicates,
    _require_workers,
    asymptotic_psi_quantile,
    constancy_statistic,
    mc_pivotal_quantiles,
    nonparametric_fit,
    second_order_statistic,
    test_constancy,
    test_second_order,
)

__all__ = ["SCHEMA_VERSION", "run_pipeline", "DESIGNS", "ExperimentSpec", "run_experiment"]

SCHEMA_VERSION = 1

# run_pipeline's lag-constancy gate and its lag count when p_hat = 0.
ALPHA_GATE = 0.05
P_CONFIRM = 2


# ---------------------------------------------------------------------------
# Pipeline.


def run_pipeline(
    series: ReturnSeries,
    q_max: int = 10,
    B: int = 2000,
    levels=(0.05, 0.10),
    seed: int = 0,
    grid: BandwidthGrid | None = None,
    workers: int = 1,
) -> dict:
    """Order selection, constancy tests, fit, and dynamics test on one series.

    When the criterion selects p_hat = 0 the constancy tests still run at
    ``P_CONFIRM`` lags to corroborate the choice.  The fit keeps the lags
    constant when their constancy p-value exceeds ``ALPHA_GATE``, and only
    then runs the second-order test.  On a failure in a late
    stage the bundle is returned with the stages completed so far plus an
    ``error`` entry; ``B < 100``, ``workers < 1`` and ``levels`` outside
    (0, 1) fail at stage ``input``, before any stage runs.
    """
    bundle: dict = {"schema_version": SCHEMA_VERSION, "seed": seed, "B": B, "levels": None}
    stage = "input"
    try:
        bundle["levels"] = list(_require_levels(levels))
        _require_replicates(B)
        _require_workers(workers)
        stage = "order-selection"
        sel = select_lag_order(series, q_max=q_max, grid=grid)
        bundle["order"] = {
            "p_hat": sel.p_hat,
            "criteria": [float(c) for c in sel.criteria],
            "bandwidth": sel.bandwidth,
            "q_max": q_max,
        }
        p_test = sel.p_hat if sel.p_hat >= 1 else P_CONFIRM
        bundle["p_test"] = p_test

        stage = "constancy-tests"
        cv_tv = cv_bandwidth_tvarch(series, p_test, grid=grid)
        b_tv = cv_tv.bandwidth
        constancy = {}
        for j in range(p_test + 1):
            part = CoefficientPartition(
                p=p_test, varying=tuple(k for k in range(p_test + 1) if k != j), constant=(j,)
            )
            rep = test_constancy(
                series, part, b_tv, B=B, levels=levels,
                seed=derive_seed(seed, "constancy", j), workers=workers,
            )
            constancy[f"a{j}"] = rep.to_dict()
        if p_test >= 2:
            part = CoefficientPartition.semiparametric(p_test)
            rep = test_constancy(
                series, part, b_tv, B=B, levels=levels,
                seed=derive_seed(seed, "constancy", "lags"), workers=workers,
            )
            constancy["lags_joint"] = rep.to_dict()
            lags_p = rep.p_value
        else:
            lags_p = constancy["a1"]["p_value"]
        bundle["constancy"] = {"bandwidth": b_tv, "tests": constancy}

        stage = "fit"
        if sel.p_hat == 0:
            cv0 = cv_bandwidth_tvarch(series, 0, grid=grid)
            npfit = nonparametric_fit(series, 0, LEVEL, cv0.bandwidth)
            bundle["fit"] = {
                "model": "tv(0)",
                "bandwidth": cv0.bandwidth,
                "variance_curve": [
                    {"u": float(u), "value": float(v)}
                    for u, v in zip(npfit.u, npfit.a_tilde[:, 0])
                ],
            }
            lags_constant = False
        else:
            lags_constant = lags_p > ALPHA_GATE
            if lags_constant:
                cv_sp = cv_bandwidth_semiparametric(series, p_test, grid=grid)
                fit = fit_semiparametric(
                    series, CoefficientPartition.semiparametric(p_test), cv_sp.bandwidth
                )
                bundle["fit"] = {"model": f"sptv({p_test})", **fit.to_dict()}
            else:
                npfit = nonparametric_fit(series, p_test, LEVEL, b_tv)
                bundle["fit"] = {
                    "model": f"tv({p_test})",
                    "bandwidth": b_tv,
                    "coefficients": [
                        {"u": float(u), "value": [float(v) for v in row]}
                        for u, row in zip(npfit.u, npfit.a_tilde)
                    ],
                }

        stage = "second-order-test"
        if sel.p_hat >= 1 and lags_constant:
            rep = test_second_order(
                series, p_test, bundle["fit"]["bandwidths"]["b"], B=B, levels=levels,
                seed=derive_seed(seed, "dynamic"), workers=workers,
            )
            bundle["second_order"] = rep.to_dict()
    except TvArchError as exc:
        bundle["error"] = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
    return bundle


# ---------------------------------------------------------------------------
# Experiment designs.


@dataclass(frozen=True)
class ExperimentSpec:
    design: str
    T_list: tuple = ()
    replications: int = 200
    noise: NoiseSpec = field(default_factory=NoiseSpec.gaussian)
    seed: int = 0
    B: int = 500
    levels: tuple = (0.05, 0.10)
    q_max: int = 10
    calibration: str = "monte-carlo"
    workers: int = 1

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise InputError(f"unknown design {self.design!r}; pick one of {tuple(DESIGNS)}")
        if self.replications < 30:
            raise InputError("statistical acceptance runs need at least 30 replications")
        if self.calibration not in ("monte-carlo", "asymptotic"):
            raise InputError(f"unknown calibration {self.calibration!r}; pick monte-carlo or asymptotic")
        _require_levels(self.levels)
        _require_workers(self.workers)
        T_list = tuple(int(t) for t in self.T_list) or DESIGNS[self.design][1]
        object.__setattr__(self, "T_list", T_list)


def _freq_cell(count: int, total: int) -> dict:
    f = count / total
    return {"value": f, "mc_se": float(np.sqrt(max(f * (1 - f), 1e-12) / total))}


def _rmse_cell(sq_errors: np.ndarray) -> dict:
    mse = float(np.mean(sq_errors))
    rmse = float(np.sqrt(mse))
    se_mse = float(np.std(sq_errors, ddof=1) / np.sqrt(sq_errors.shape[0]))
    se_rmse = se_mse / (2.0 * rmse) if rmse > 0 else float("nan")
    return {"value": rmse, "mc_se": se_rmse}


class _QuantileCache:
    """Shared Monte-Carlo critical values per calibration configuration, each key calibrated once.

    Under ``workers > 1`` a thread asking for a key another thread is calibrating waits on the
    key's lock; ``dict.setdefault`` hands every thread the same lock.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self._store: dict = {}
        self._locks: dict = {}

    def get(self, statistic: str, T: int, p: int, partition, b: float):
        key = (
            statistic,
            T,
            p,
            None if partition is None else (partition.varying, partition.constant),
            round(float(b), 12),
        )
        with self._locks.setdefault(key, threading.Lock()):
            if key not in self._store:
                seed = derive_seed(self.spec.seed, "calibration", statistic, T, p, int(round(b * 1e9)))
                self._store[key] = mc_pivotal_quantiles(
                    T, p, partition, b, self.spec.B, self.spec.levels, seed, statistic, workers=self.spec.workers
                )
        return self._store[key]


def _rmse_design(spec: ExperimentSpec) -> list:
    model = TvArchModel(
        p=2,
        coeffs=(
            CoefficientFunction.sine(2.0, 1.0),
            CoefficientFunction.constant(0.3),
            CoefficientFunction.constant(0.2),
        ),
        noise=spec.noise,
    )
    truth_beta = np.array([0.3, 0.2])
    partition = CoefficientPartition.semiparametric(2)
    rows = []
    for T in spec.T_list:
        def one(r: int):
            s = simulate_path(model, SimulationConfig(T=T, seed=derive_seed(spec.seed, "rmse", T, r)))
            b = cv_bandwidth_semiparametric(s, 2).bandwidth
            base = estimate_beta(s, partition, LEVEL, b)
            plug, _ = estimate_beta_plugin(s, partition, b, base=base)
            # Both alpha variants share the projection ratios at bandwidth b.
            alpha0 = _plug_back(base.q1, base.q2, base.beta)[:, 0]
            alpha_star, _, _ = estimate_alpha_plugin(
                s, partition, plug.beta, b, alpha_init=_plug_back(base.q1, base.q2, plug.beta), var_xi_sq=1.0
            )
            u = np.arange(3, T + 1) / T
            a0_true = model.coeffs[0](u)
            return (
                (base.beta - truth_beta) ** 2,
                (plug.beta - truth_beta) ** 2,
                np.mean((alpha0 - a0_true) ** 2),
                np.mean((alpha_star[:, 0] - a0_true) ** 2),
                b,
            )

        res = _map_ordered(one, spec.replications, spec.workers)
        sq = np.array([r[0] for r in res])
        sq_star = np.array([r[1] for r in res])
        a0_sq = np.array([r[2] for r in res])
        a0_sq_star = np.array([r[3] for r in res])
        rows.append(
            {
                "T": T,
                "noise": _noise_name(spec.noise),
                "a0": _rmse_cell(a0_sq),
                "a1": _rmse_cell(sq[:, 0]),
                "a2": _rmse_cell(sq[:, 1]),
                "a0_star": _rmse_cell(a0_sq_star),
                "a1_star": _rmse_cell(sq_star[:, 0]),
                "a2_star": _rmse_cell(sq_star[:, 1]),
                "mean_bandwidth": float(np.mean([r[4] for r in res])),
            }
        )
    return rows


_CONSTANCY_SETUPS = {
    1: lambda noise: TvArchModel(
        p=1,
        coeffs=(CoefficientFunction.sine(2.0, 1.0), CoefficientFunction.constant(0.5)),
        noise=noise,
    ),
    2: lambda noise: TvArchModel(
        p=1,
        coeffs=(CoefficientFunction.constant(1.0), CoefficientFunction.cosine(0.5, 0.25)),
        noise=noise,
    ),
}


def _constancy_design(spec: ExperimentSpec) -> list:
    cache = _QuantileCache(spec)
    rows = []
    for setup, make in _CONSTANCY_SETUPS.items():
        model = make(spec.noise)
        for T in spec.T_list:
            def one(r: int):
                s = simulate_path(
                    model, SimulationConfig(T=T, seed=derive_seed(spec.seed, "const", setup, T, r))
                )
                b = cv_bandwidth_tvarch(s, 1).bandwidth
                out = {}
                for label, const in (("a0", (0,)), ("a1", (1,))):
                    part = CoefficientPartition(
                        p=1, varying=tuple(k for k in (0, 1) if k not in const), constant=const
                    )
                    cal = cache.get("constancy", T, 1, part, b)
                    e_t = constancy_statistic(s, part, LEVEL, b).e_t
                    out[label] = {lvl: e_t > cal.quantiles[lvl] for lvl in spec.levels}
                return out

            res = _map_ordered(one, spec.replications, spec.workers)
            for label in ("a0", "a1"):
                row = {
                    "setup": setup,
                    "T": T,
                    "noise": _noise_name(spec.noise),
                    "hypothesis": f"{label} constant",
                }
                for lvl in spec.levels:
                    count = sum(r[label][lvl] for r in res)
                    row[f"reject_at_{lvl:g}"] = _freq_cell(count, spec.replications)
                rows.append(row)
    return rows


_COVERAGE_SETUPS = {
    1: CoefficientFunction.constant(1e-4),
    2: CoefficientFunction.piecewise_linear(
        [(0.0, 1e-4), (0.25, 4e-4), (0.5, 1e-4), (0.75, 4e-4), (1.0, 1e-4)]
    ),
}


def _coverage_design(spec: ExperimentSpec) -> list:
    cache = _QuantileCache(spec)
    p = 2
    rows = []
    for setup, a0 in _COVERAGE_SETUPS.items():
        model = TvArchModel(p=0, coeffs=(a0,), noise=spec.noise)
        for T in spec.T_list:
            def one(r: int):
                s = simulate_path(
                    model, SimulationConfig(T=T, seed=derive_seed(spec.seed, "cover", setup, T, r))
                )
                b = cv_bandwidth_semiparametric(s, p).bandwidth
                psi = second_order_statistic(s, p, b).psi
                if spec.calibration == "asymptotic":
                    return {lvl: psi <= asymptotic_psi_quantile(p, lvl) for lvl in spec.levels}
                cal = cache.get("second-order", T, p, None, b)
                return {lvl: psi <= cal.quantiles[lvl] for lvl in spec.levels}

            res = _map_ordered(one, spec.replications, spec.workers)
            row = {"setup": setup, "T": T, "noise": _noise_name(spec.noise)}
            for lvl in spec.levels:
                count = sum(r[lvl] for r in res)
                row[f"accept_at_{lvl:g}"] = _freq_cell(count, spec.replications)
            rows.append(row)
    return rows


def _order_setups(noise: NoiseSpec) -> dict:
    a0 = CoefficientFunction.sine(2.0, 0.8)
    return {
        (1, 1): TvArchModel(p=1, coeffs=(a0, CoefficientFunction.constant(0.3)), noise=noise),
        (2, 0): TvArchModel(p=0, coeffs=(a0,), noise=noise),
        (2, 1): TvArchModel(
            p=1, coeffs=(a0, CoefficientFunction.sine(0.2, 0.2)), noise=noise
        ),
        (2, 2): TvArchModel(
            p=2,
            coeffs=(a0, CoefficientFunction.sine(0.2, 0.2), CoefficientFunction.cosine(0.2, 0.2)),
            noise=noise,
        ),
    }


def _order_design(spec: ExperimentSpec) -> list:
    rows = []
    for (setup, p_true), model in _order_setups(spec.noise).items():
        for T in spec.T_list:
            def one(r: int):
                s = simulate_path(
                    model,
                    SimulationConfig(T=T, seed=derive_seed(spec.seed, "order", setup, p_true, T, r)),
                )
                return select_lag_order(s, q_max=spec.q_max).p_hat

            p_hats = np.array(_map_ordered(one, spec.replications, spec.workers))
            rows.append(
                {
                    "setup": setup,
                    "p_true": p_true,
                    "T": T,
                    "noise": _noise_name(spec.noise),
                    "correct": _freq_cell(int(np.sum(p_hats == p_true)), spec.replications),
                    "underfit": _freq_cell(int(np.sum(p_hats < p_true)), spec.replications),
                    "overfit": _freq_cell(int(np.sum(p_hats > p_true)), spec.replications),
                }
            )
    return rows


def _noise_name(noise: NoiseSpec) -> str:
    return noise.law if noise.law == "gaussian" else f"t({noise.df})"


# Each design's runner and its default sample sizes.
DESIGNS = {
    "rmse": (_rmse_design, (500, 1500)),
    "constancy-power": (_constancy_design, (1000, 2000)),
    "dynamic-coverage": (_coverage_design, (500, 1000)),
    "order-selection": (_order_design, (500, 1000, 2000)),
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run one simulation design and return its result table with MC errors."""
    rows = DESIGNS[spec.design][0](spec)
    return {
        "schema_version": SCHEMA_VERSION,
        "design": spec.design,
        "config": {
            "T_list": list(spec.T_list),
            "replications": spec.replications,
            "noise": _noise_name(spec.noise),
            "seed": spec.seed,
            "B": spec.B,
            "levels": list(spec.levels),
            "q_max": spec.q_max,
            "calibration": spec.calibration,
        },
        "rows": rows,
    }
