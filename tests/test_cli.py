import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tvarch
from tvarch.cli import main

MODEL_CFG = {
    "p": 1,
    "coeffs": [
        {"kind": "sine", "offset": 2.0, "amplitude": 1.0},
        {"kind": "constant", "value": 0.4},
    ],
    "noise": {"law": "gaussian"},
}


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    model = tmp / "model.json"
    model.write_text(json.dumps(MODEL_CFG))
    csv_path = tmp / "sim.csv"
    rc = main(
        [
            "simulate",
            "--model",
            str(model),
            "--T",
            "400",
            "--seed",
            "21",
            "--out-csv",
            str(csv_path),
        ]
    )
    assert rc == 0
    return csv_path


def test_import_loads_no_scipy():
    # scipy is a test extra only: the package and its CLI run on numpy alone.
    src = str(Path(tvarch.__file__).resolve().parents[1])
    code = "import sys, tvarch, tvarch.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_simulate_deterministic(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL_CFG))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["simulate", "--model", str(model), "--T", "200", "--seed", "3",
                   "--out-csv", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_fit_json_deterministic(sim_csv, capsys):
    argv = ["fit", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.15", "--json"]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema_version"] == 1
    assert len(payload["beta"]) == 1


def test_fit_curves_out(sim_csv, tmp_path, capsys):
    curves = tmp_path / "alpha.csv"
    rc, _ = _run(
        capsys,
        ["fit", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.15",
         "--curves-out", str(curves)],
    )
    assert rc == 0
    rows = curves.read_text().strip().splitlines()
    assert rows[0] == "u,alpha0,se0"
    assert len(rows) == 400  # header + T - p points
    u, val, se = map(float, rows[1].split(","))
    assert 0.0 < u <= 1.0 and np.isfinite(val) and se > 0.0


def test_constancy_cli_deterministic(sim_csv, capsys):
    argv = [
        "test-constancy", "--input", str(sim_csv), "--p", "1",
        "--partition", "varying=0", "constant=1",
        "--bandwidth", "0.2", "--B", "100", "--seed", "5", "--json",
    ]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["command"] == "test-constancy"
    assert set(payload["decision"]) == {"0.05", "0.1"}


def test_zero_cli(sim_csv, capsys):
    rc, out = _run(
        capsys,
        ["test-zero", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.2",
         "--B", "100", "--seed", "6", "--json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["extra"]["df"] == 1


def test_dynamic_cli_asymptotic(sim_csv, capsys):
    rc, out = _run(
        capsys,
        ["test-dynamic", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.2",
         "--calibration", "asymptotic", "--json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["extra"]["calibration"] == "asymptotic"
    # strong dynamics in the simulated model: clear rejection
    assert payload["p_value"] < 0.05


def test_select_order_cli(sim_csv, capsys):
    rc, out = _run(
        capsys, ["select-order", "--input", str(sim_csv), "--q", "3", "--json"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["p_hat"] in (1, 2)
    assert len(payload["criteria"]) == 4


def test_select_bandwidth_cli(sim_csv, tmp_path, capsys):
    curve = tmp_path / "cv.csv"
    rc, out = _run(
        capsys,
        ["select-bandwidth", "--input", str(sim_csv), "--p", "1", "--model-kind", "sptv",
         "--curve-out", str(curve), "--json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert 0.0 < payload["bandwidth"] <= 1.0
    assert curve.read_text().splitlines()[0] == "b,score"


@pytest.mark.parametrize(
    "argv",
    [
        ["select-bandwidth", "--input", "{csv}", "--p", "1", "--model-kind", "sptv"],
        ["select-order", "--input", "{csv}", "--q", "2"],
    ],
    ids=["select-bandwidth", "select-order"],
)
def test_out_writes_the_json_report(sim_csv, tmp_path, capsys, argv):
    argv = [a.format(csv=sim_csv) for a in argv]
    out = tmp_path / "report.json"
    rc1, printed = _run(capsys, argv + ["--json"])
    rc2, _ = _run(capsys, argv + ["--out", str(out)])
    assert rc1 == rc2 == 0
    assert out.read_text() == printed


def test_pipeline_cli(sim_csv, capsys):
    argv = ["pipeline", "--input", str(sim_csv), "--q", "3", "--B", "100",
            "--seed", "8", "--json"]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert "order" in payload and "constancy" in payload and "fit" in payload


def test_experiment_cli_workers_identical(tmp_path, capsys):
    base = [
        "experiment", "--design", "dynamic-coverage", "--T", "200", "--R", "30",
        "--B", "100", "--seed", "4", "--json",
    ]
    rc1, out1 = _run(capsys, base + ["--workers", "1"])
    rc2, out2 = _run(capsys, base + ["--workers", "3"])
    assert rc1 == rc2 == 0
    # worker count is config metadata only; results must be byte-identical
    a, b = json.loads(out1), json.loads(out2)
    assert a == b
    out_prefix = tmp_path / "cov"
    rc3 = main(base[:-1] + ["--out", str(out_prefix)])
    assert rc3 == 0
    assert (tmp_path / "cov.json").exists() and (tmp_path / "cov.csv").exists()


def test_exit_code_input_error(capsys):
    rc = main(["fit", "--input", "/missing/file.csv", "--p", "1", "--bandwidth", "0.2"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_exit_code_numerical_error(sim_csv, capsys):
    rc = main(
        ["test-constancy", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.002",
         "--B", "100", "--seed", "1"]
    )
    assert rc == 3
    assert "numerical" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["test-constancy", "test-zero", "test-dynamic"])
def test_too_few_replicates_exit_2_before_the_bandwidth_grid(sim_csv, capsys, monkeypatch, command):
    def no_cv(*args, **kwargs):
        raise AssertionError("the CV grid ran before the B check")

    monkeypatch.setattr(tvarch.cli, "cv_bandwidth_tvarch", no_cv)
    monkeypatch.setattr(tvarch.cli, "cv_bandwidth_semiparametric", no_cv)
    assert main([command, "--input", str(sim_csv), "--p", "1", "--B", "50"]) == 2
    assert "B >= 100" in capsys.readouterr().err


def test_invalid_partition(sim_csv, capsys):
    rc = main(
        ["fit", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.2",
         "--partition", "varying=0,1", "constant=1"]
    )
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--bandwidth", "0.2"],
        ["test-constancy", "--bandwidth", "0.2"],
        ["select-bandwidth", "--model-kind", "tv"],
    ],
    ids=["fit", "test-constancy", "select-bandwidth"],
)
def test_negative_lag_order_reported(sim_csv, capsys, argv):
    rc = main(argv + ["--input", str(sim_csv), "--p", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "input error: lag order p must be >= 0\n"


_MODEL_ARGS = ["simulate", "--model", "{model}", "--T", "50", "--out-csv", "{out}"]


@pytest.mark.parametrize(
    "argv, model",
    [
        (["fit", "--input", "{csv}", "--p", "1", "--bandwidth", "0.2", "--partition", "varying=a"], None),
        (["select-order", "--input", "{csv}", "--q", "1", "--grid", "abc"], None),
        (["experiment", "--design", "rmse", "--T", "5x0"], None),
        (["test-zero", "--input", "{csv}", "--p", "1", "--bandwidth", "0.2", "--alpha", "0.05,1.5"], None),
        (_MODEL_ARGS, {"p": 1}),
        (_MODEL_ARGS, {"coeffs": [{"kind": "constant"}, {"kind": "constant", "value": 0.4}]}),
        (_MODEL_ARGS, {"coeffs": [{"kind": "constant", "value": 1.0}], "noise": {"law": "t"}}),
        (_MODEL_ARGS, {"coeffs": [{"kind": "constant", "value": "high"}]}),
        (_MODEL_ARGS, {"coeffs": [{"kind": "piecewise_linear"}]}),
        (_MODEL_ARGS, [1.0, 0.4]),
        (_MODEL_ARGS, {"coeffs": [{"kind": "constant", "value": 1.0}], "noise": 5}),
    ],
    ids=[
        "partition-index", "grid", "experiment-T", "alpha-level", "no-coeffs", "constant-no-value", "t-no-df",
        "constant-not-number", "knots-missing", "model-not-dict", "noise-not-dict",
    ],
)
def test_malformed_input_exits_2(sim_csv, tmp_path, capsys, argv, model):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    argv = [a.format(csv=sim_csv, model=model_path, out=tmp_path / "x.csv") for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_pipeline_rejects_a_nan_grid_multiplier_before_any_smoothing(sim_csv, capsys):
    # A NaN multiplier is an input error, not an order-selection failure.
    argv = ["pipeline", "--input", str(sim_csv), "--q", "2", "--B", "100", "--grid", "0.5,nan"]
    with mock.patch.object(tvarch.kernels, "local_sums", wraps=tvarch.kernels.local_sums) as sums:
        assert main(argv) == 2
    assert sums.call_count == 0
    assert capsys.readouterr().err == "input error: grid multipliers must be positive, got (0.5, nan)\n"


def test_prices_mode_cli(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    rng = np.random.default_rng(2)
    p = np.exp(np.cumsum(0.01 * rng.normal(size=300)))
    prices.write_text("price\n" + "\n".join(repr(float(v)) for v in p) + "\n")
    rc, out = _run(
        capsys,
        ["select-order", "--input", str(prices), "--mode", "prices", "--column", "price",
         "--q", "2", "--json"],
    )
    assert rc == 0
    assert json.loads(out)["p_hat"] in (0, 1, 2)


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["select-bandwidth", "--p", "1"], {"p": 1, "model": "tv"}),
        (["select-order", "--q", "2"], {"q_max": 2}),
    ],
    ids=["select-bandwidth", "select-order"],
)
def test_select_commands_echo_how_the_input_was_read(tmp_path, capsys, argv, extra):
    # The config must reproduce the report: column, mode and scale change the series.
    prices = tmp_path / "prices.csv"
    p = np.exp(np.cumsum(0.01 * np.random.default_rng(3).normal(size=(300, 2)), axis=0))
    prices.write_text("a,b\n" + "".join(f"{float(u)!r},{float(v)!r}\n" for u, v in p))
    argv = argv + ["--input", str(prices), "--column", "b", "--mode", "prices", "--scale", "100", "--json"]
    rc, out = _run(capsys, argv)
    assert rc == 0
    want = {"input": str(prices), "column": "b", "mode": "prices", "scale": 100.0, **extra}
    assert json.loads(out)["config"] == want


def test_dynamic_test_at_extreme_scale_exits_cleanly(sim_csv, capsys):
    # The fourth powers of the smoothed squares overflow at scale 1e40; psi is
    # scale-free, so the report must match the unscaled one.
    argv = ["test-dynamic", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.2",
            "--calibration", "asymptotic", "--json"]
    rc, out = _run(capsys, argv)
    rc_big, out_big = _run(capsys, argv + ["--scale", "1e40"])
    assert rc == rc_big == 0
    report, big = json.loads(out), json.loads(out_big)
    assert big["statistic"] == pytest.approx(report["statistic"], rel=1e-9)
    assert big["decision"] == report["decision"]


@pytest.mark.parametrize("flag", ["--nu", "--mu"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_fit_plugin_rejects_a_non_finite_or_negative_nu_and_mu(sim_csv, capsys, flag, value):
    rc = main(["fit", "--input", str(sim_csv), "--p", "1", "--bandwidth", "0.2", "--plugin", flag, value])
    assert rc == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["test-constancy", "--p", "1", "--bandwidth", "0.2"],
        ["test-zero", "--p", "1", "--bandwidth", "0.2"],
        ["test-dynamic", "--p", "1", "--bandwidth", "0.2"],
        ["pipeline", "--q", "2"],
    ],
    ids=["test-constancy", "test-zero", "test-dynamic", "pipeline"],
)
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(sim_csv, capsys, argv, workers):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(sim_csv), "--B", "100", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--B", "50"], ["--q", "-1"]], ids=["B-below-100", "negative-q"])
def test_pipeline_input_error_in_the_bundle_exits_2(sim_csv, capsys, flags):
    rc = main(["pipeline", "--input", str(sim_csv), "--json", *(["--B", "100", "--q", "3"] + flags)])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "InputError"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_experiment_workers_below_one_exits_2(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--design", "rmse", "--R", "30", "--T", "300", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
