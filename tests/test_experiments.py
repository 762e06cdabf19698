import json

import pytest

import tvarch.errors
from tvarch import (
    CoefficientFunction,
    ReturnSeries,
    SimulationConfig,
    TvArchModel,
    simulate_path,
)
from tvarch.errors import InputError, TvArchError
from tvarch.experiments import ExperimentSpec, run_experiment, run_pipeline


def test_experiment_spec_validation():
    with pytest.raises(InputError):
        ExperimentSpec(design="unknown")
    with pytest.raises(InputError):
        ExperimentSpec(design="rmse", replications=10)
    spec = ExperimentSpec(design="rmse", replications=40)
    assert spec.T_list == (500, 1500)


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


def test_pipeline_variance_only_data():
    model = TvArchModel(p=0, coeffs=(CoefficientFunction.sine(2.0, 1.0),))
    series = simulate_path(model, SimulationConfig(T=600, seed=6))
    bundle = run_pipeline(series, q_max=2, B=100, seed=7)
    if bundle["order"]["p_hat"] == 0:
        assert bundle["fit"]["model"] == "tv(0)"
        assert "variance_curve" in bundle["fit"]
    assert "error" not in bundle


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_pipeline_extreme_scale_fails_as_tvarch_error(sptv2_model, scale):
    # x^2 under- or overflows here, so the local Grams are non-finite or zero.
    s = simulate_path(sptv2_model, SimulationConfig(T=500, seed=5))
    bundle = run_pipeline(ReturnSeries(scale * s.values), q_max=3, B=100, seed=1)
    if "error" in bundle:
        assert issubclass(getattr(tvarch.errors, bundle["error"]["type"]), TvArchError)
