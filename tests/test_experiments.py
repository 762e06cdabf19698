import collections
import json
import threading
import time

import numpy as np
import pytest

import tvarch.experiments
import tvarch.testing
from tvarch import (
    CoefficientFunction,
    ReturnSeries,
    SimulationConfig,
    TvArchModel,
    simulate_path,
)
from tvarch.errors import InputError
from tvarch.experiments import ExperimentSpec, run_experiment, run_pipeline


def test_experiment_spec_validation():
    with pytest.raises(InputError):
        ExperimentSpec(design="unknown")
    with pytest.raises(InputError):
        ExperimentSpec(design="rmse", replications=10)
    spec = ExperimentSpec(design="rmse", replications=40)
    assert spec.T_list == (500, 1500)


def test_experiment_spec_rejects_an_unknown_calibration():
    # A misspelt calibration must not fall back to Monte-Carlo and echo the typo.
    with pytest.raises(InputError, match="asymptotc"):
        ExperimentSpec(design="dynamic-coverage", calibration="asymptotc")


@pytest.mark.parametrize("levels", [(1.5,), (0.05, 0.0), (-0.1,), (1.0,), ()])
def test_experiment_spec_rejects_levels_outside_the_unit_interval(levels):
    with pytest.raises(InputError, match="levels"):
        ExperimentSpec(design="rmse", levels=levels)


@pytest.mark.parametrize("workers", [0, -3])
def test_experiment_spec_rejects_workers_below_one(workers):
    with pytest.raises(InputError, match="workers"):
        ExperimentSpec(design="rmse", workers=workers)


@pytest.mark.parametrize("design", ["constancy-power", "dynamic-coverage"])
def test_experiment_spec_rejects_fewer_than_100_replicates_before_any_work(monkeypatch, design):
    def cv(*args, **kwargs):
        raise AssertionError("cross-validation ran")

    for name in ("cv_bandwidth_tvarch", "_cv_semiparametric"):
        monkeypatch.setattr(tvarch.experiments, name, cv)
    with pytest.raises(InputError, match="B >= 100"):
        run_experiment(ExperimentSpec(design=design, T_list=(200,), replications=30, B=50))


@pytest.mark.parametrize(
    "spec, match",
    [
        ({"design": "rmse", "T_list": (300, 0)}, r"need T >= p\+2 = 4 observations, got 0"),
        ({"design": "rmse", "T_list": (300, 2)}, r"need T >= p\+2 = 4 observations, got 2"),
        ({"design": "constancy-power", "T_list": (300, 2)}, r"need T >= p\+2 = 3 observations, got 2"),
        ({"design": "dynamic-coverage", "T_list": (3,)}, r"need T >= p\+2 = 4 observations, got 3"),
        ({"design": "order-selection", "T_list": (300, 6), "q_max": 5}, r"need T >= p\+2 = 7 observations, got 6"),
        ({"design": "order-selection", "T_list": (300,), "q_max": -1}, "q_max must be >= 0"),
    ],
)
def test_experiment_spec_rejects_a_short_series_or_negative_q_max_before_any_work(monkeypatch, spec, match):
    def simulate(*args, **kwargs):
        raise AssertionError("a design cell was simulated")

    for name in ("simulate_path", "simulate_paths"):
        monkeypatch.setattr(tvarch.experiments, name, simulate)
    with pytest.raises(InputError, match=match):
        run_experiment(ExperimentSpec(**spec, replications=30, B=100))


@pytest.mark.parametrize("design, calibration", [("rmse", "monte-carlo"), ("order-selection", "monte-carlo"),
                                                 ("dynamic-coverage", "asymptotic")])
def test_experiment_spec_takes_any_B_without_a_monte_carlo_calibration(design, calibration):
    assert ExperimentSpec(design=design, calibration=calibration, B=50).B == 50


def test_pipeline_rejects_workers_below_one_before_any_stage(monkeypatch):
    def order_selection(*args, **kwargs):
        raise AssertionError("order selection ran")

    monkeypatch.setattr(tvarch.experiments, "select_lag_order", order_selection)
    bundle = run_pipeline(ReturnSeries(np.random.default_rng(2).normal(size=300)), workers=0)
    assert bundle["error"]["stage"] == "input" and bundle["error"]["type"] == "InputError"
    assert "workers" in bundle["error"]["message"] and "order" not in bundle


@pytest.mark.parametrize("levels", [(2.0,), (0.0,), (), 0.05])
def test_pipeline_rejects_levels_outside_the_unit_interval_before_any_stage(monkeypatch, levels):
    def order_selection(*args, **kwargs):
        raise AssertionError("order selection ran")

    monkeypatch.setattr(tvarch.experiments, "select_lag_order", order_selection)
    bundle = run_pipeline(ReturnSeries(np.random.default_rng(2).normal(size=300)), levels=levels)
    assert bundle["error"]["stage"] == "input" and bundle["error"]["type"] == "InputError"
    assert "levels" in bundle["error"]["message"] and "order" not in bundle


def test_pipeline_rejects_a_negative_q_max_before_any_stage(monkeypatch):
    def order_selection(*args, **kwargs):
        raise AssertionError("order selection ran")

    monkeypatch.setattr(tvarch.experiments, "select_lag_order", order_selection)
    bundle = run_pipeline(ReturnSeries(np.random.default_rng(2).normal(size=300)), q_max=-1)
    assert bundle["error"]["stage"] == "input" and bundle["error"]["type"] == "InputError"
    assert "q_max" in bundle["error"]["message"] and "order" not in bundle


@pytest.mark.parametrize("B", [50, 99])
def test_pipeline_rejects_fewer_than_100_replicates_before_any_stage(monkeypatch, B):
    def order_selection(*args, **kwargs):
        raise AssertionError("order selection ran")

    monkeypatch.setattr(tvarch.experiments, "select_lag_order", order_selection)
    bundle = run_pipeline(ReturnSeries(np.random.default_rng(2).normal(size=500)), q_max=3, B=B)
    assert bundle["error"]["stage"] == "input" and bundle["error"]["type"] == "InputError"
    assert "B >= 100" in bundle["error"]["message"] and "order" not in bundle


def test_rmse_design_small():
    spec = ExperimentSpec(design="rmse", T_list=(300,), replications=30, seed=1)
    out = run_experiment(spec)
    row = out["rows"][0]
    assert row["T"] == 300
    for cell in ("a0", "a1", "a2", "a0_star", "a1_star", "a2_star"):
        assert row[cell]["value"] > 0.0
        assert row[cell]["mc_se"] > 0.0
    # lag RMSE at T=300 lands in a plausible range around the benchmark scale
    assert row["a1"]["value"] < 0.5
    json.dumps(out, sort_keys=True)  # serializable


def test_order_design_small():
    spec = ExperimentSpec(design="order-selection", T_list=(400,), replications=30, seed=2, q_max=3)
    out = run_experiment(spec)
    setups = {(r["setup"], r["p_true"]) for r in out["rows"]}
    assert setups == {(1, 1), (2, 0), (2, 1), (2, 2)}
    for r in out["rows"]:
        total = r["correct"]["value"] + r["underfit"]["value"] + r["overfit"]["value"]
        assert total == pytest.approx(1.0, abs=1e-12)


def test_experiment_deterministic():
    spec = ExperimentSpec(
        design="dynamic-coverage", T_list=(200,), replications=30, seed=3, B=100
    )
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a == b


def test_quantile_cache_calibrates_each_key_once_under_threads(monkeypatch):
    spec = dict(design="constancy-power", T_list=(200,), replications=30, seed=4, B=100)
    serial = run_experiment(ExperimentSpec(**spec))
    original = tvarch.experiments.mc_pivotal_quantiles
    calls = collections.Counter()
    lock = threading.Lock()

    def counted(T, p, partition, b, *args, **kwargs):
        with lock:
            calls[(T, p, partition, b)] += 1
        time.sleep(0.05)  # widens the window in which two threads could ask for one key
        return original(T, p, partition, b, *args, **kwargs)

    monkeypatch.setattr(tvarch.experiments, "mc_pivotal_quantiles", counted)
    threaded = run_experiment(ExperimentSpec(**spec, workers=2))
    assert calls and set(calls.values()) == {1}
    assert sum(calls.values()) < 2 * 2 * spec["replications"]  # keys repeat, so the cache is exercised
    assert json.dumps(threaded, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_pipeline_bundle_on_sptv_data():
    model = TvArchModel(
        p=1,
        coeffs=(CoefficientFunction.sine(2.0, 1.0), CoefficientFunction.constant(0.4)),
    )
    series = simulate_path(model, SimulationConfig(T=500, seed=4))
    bundle = run_pipeline(series, q_max=3, B=100, seed=5)
    assert bundle["schema_version"] == 1
    assert "order" in bundle and "constancy" in bundle and "fit" in bundle
    assert "error" not in bundle
    # reproducible end to end
    again = run_pipeline(series, q_max=3, B=100, seed=5)
    assert bundle == again


def test_pipeline_json_identical_across_workers_on_both_smoothers(sptv2_model, monkeypatch):
    # At T=2000 the long windows of the CV grids take the chunk-moment
    # smoother and the short ones the blocked GEMM; two worker threads must
    # give the same bytes as one.
    calls = collections.Counter()

    def counted(name):
        smoother = getattr(tvarch.kernels, name)
        return lambda *args: calls.update([name]) or smoother(*args)

    for name in ("_gemm_sums", "_chunk_sums"):
        monkeypatch.setattr(tvarch.kernels, name, counted(name))
    series = simulate_path(sptv2_model, SimulationConfig(T=2000, seed=11))
    one = run_pipeline(series, q_max=4, B=100, seed=3, workers=1)
    assert "error" not in one and calls["_gemm_sums"] and calls["_chunk_sums"]
    two = run_pipeline(series, q_max=4, B=100, seed=3, workers=2)
    assert json.dumps(two, sort_keys=True) == json.dumps(one, sort_keys=True)


@pytest.mark.parametrize("calibration", ["monte-carlo", "asymptotic"])
def test_coverage_json_identical_across_workers(calibration):
    # 37 replicates are two full chunks and a partial one; the chunks are
    # fixed, so two worker threads must give the same bytes as one.
    assert 37 % tvarch.testing._CHUNK
    spec = dict(design="dynamic-coverage", T_list=(200,), replications=37, seed=6, B=100, calibration=calibration)
    one = run_experiment(ExperimentSpec(**spec, workers=1))
    two = run_experiment(ExperimentSpec(**spec, workers=2))
    assert json.dumps(two, sort_keys=True) == json.dumps(one, sort_keys=True)


def test_pipeline_variance_only_data():
    model = TvArchModel(p=0, coeffs=(CoefficientFunction.sine(2.0, 1.0),))
    series = simulate_path(model, SimulationConfig(T=600, seed=6))
    bundle = run_pipeline(series, q_max=2, B=100, seed=7)
    if bundle["order"]["p_hat"] == 0:
        assert bundle["fit"]["model"] == "tv(0)"
        assert "variance_curve" in bundle["fit"]
    assert "error" not in bundle


def test_pipeline_singular_grid_names_the_failing_center():
    # At scale 1e-4 the raw rcond of every local Gram falls below the gate,
    # so order selection fails; the error names a failing center and its rcond.
    x = np.random.default_rng(3).normal(size=500)
    bundle = run_pipeline(ReturnSeries(1e-4 * x), q_max=3, B=100, seed=1)
    assert bundle["error"]["stage"] == "order-selection"
    assert bundle["error"]["type"] == "AllSingularError"
    assert "every grid bandwidth failed" in bundle["error"]["message"]
    assert "at t=" in bundle["error"]["message"] and "rcond=" in bundle["error"]["message"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_pipeline_extreme_scale_fails_as_tvarch_error(sptv2_model, scale):
    # x^2 or the level weights overflow here; the bundle names the overflow.
    s = simulate_path(sptv2_model, SimulationConfig(T=500, seed=5))
    bundle = run_pipeline(ReturnSeries(scale * s.values), q_max=3, B=100, seed=1)
    assert bundle["error"]["stage"] == "order-selection"
    assert bundle["error"]["type"] == "NumericalError"
    assert "overflowed; rescale the series" in bundle["error"]["message"]
