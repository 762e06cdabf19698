"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Reference values are Monte-Carlo estimates from large-replication runs, so
frequency and RMSE cells are checked against bands wide enough for the
desk-scale replication counts used here (R in [200, 500], B in [200, 500]).
"""

import json
import time

import numpy as np
import pytest
import scipy.stats

from tvarch import (
    CoefficientFunction,
    CoefficientPartition,
    ReturnSeries,
    SimulationConfig,
    TvArchModel,
    cv_bandwidth_tvarch,
    estimate_alpha,
    estimate_beta,
    estimate_beta_plugin,
    k_l2_norm_sq,
    k_star,
    mc_pivotal_quantiles,
    nonparametric_fit,
    second_order_statistic,
    select_lag_order,
    simulate_path,
    constancy_statistic,
)
from tvarch.cli import main as cli_main
from tvarch.experiments import ExperimentSpec, run_experiment
from tvarch.kernels import kernel_window, window_counts
from tvarch.simulate import derive_seed
from tvarch.testing import asymptotic_psi_quantile

import reference


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared heavy runs.


@pytest.fixture(scope="module")
def rmse_result():
    spec = ExperimentSpec(
        design="rmse", T_list=(500, 1500), replications=300, seed=20260801, workers=2
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def constancy_result():
    spec = ExperimentSpec(
        design="constancy-power",
        T_list=(1000, 2000),
        replications=200,
        B=500,
        levels=(0.05, 0.10),
        seed=20260802,
        workers=2,
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def coverage_result():
    spec = ExperimentSpec(
        design="dynamic-coverage",
        T_list=(500,),
        replications=200,
        B=500,
        levels=(0.05, 0.10),
        seed=20260803,
        workers=2,
    )
    return run_experiment(spec)


def _row(result, **match):
    for row in result["rows"]:
        if all(row[k] == v for k, v in match.items()):
            return row
    raise AssertionError(f"no row matching {match}")


# ---------------------------------------------------------------------------
# Criteria.


def test_criterion_01_kernel_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(20, 600))
        p = int(rng.integers(0, 4))
        b = float(rng.uniform(0.02, 1.0))
        t = int(rng.integers(p + 1, T + 1))
        # The smoother's weights at center t: window entries over the in-range
        # indices i = p+1..T, divided by the normalizer every estimator uses.
        win = kernel_window(T, b)
        half = (win.shape[0] - 1) // 2
        d = t - np.arange(p + 1, T + 1)
        raw = np.where(np.abs(d) <= half, win[np.clip(half + d, 0, 2 * half)], 0.0)
        weights = raw / window_counts(T - p, win)[t - p - 1]
        worst = max(worst, abs(weights.sum() - 1.0))
    k2_err = abs(k_l2_norm_sq() - 0.6)
    kstar_err = abs(k_star(0.0) - k_l2_norm_sq())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and k2_err <= 1e-6 and kstar_err <= 1e-8 and elapsed < 1.0
    _verdict(
        1,
        "kernel exactness",
        ok,
        f"max |sum-1|={worst:.2e}, |K2-0.6|={k2_err:.2e}, |K*(0)-K2|={kstar_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        T = int(rng.integers(40, 81))
        p = int(rng.integers(1, 4))
        b = float(rng.uniform(0.15, 0.4))
        x = rng.normal(size=T) * float(rng.uniform(0.5, 2.0))
        s = ReturnSeries(x)
        # random partition with a nonempty constant block and 0 kept varying
        lags = list(range(1, p + 1))
        rng.shuffle(lags)
        n = int(rng.integers(1, p + 1))
        constant = tuple(sorted(lags[:n]))
        varying = tuple(sorted([0] + lags[n:]))
        part = CoefficientPartition(p=p, varying=varying, constant=constant)
        W = reference.level_weights(x, p)

        ref = reference.dense_semiparametric(x, varying, constant, W, b)
        fit = estimate_beta(s, part, "level", b)
        worst = max(worst, float(np.abs(fit.beta - ref["beta"]).max()))
        af = estimate_alpha(s, part, fit.beta, b)
        worst = max(worst, float(np.abs(af.alpha - ref["alpha"]).max()))

        npfit = nonparametric_fit(s, p, "level", b)
        worst = max(
            worst, float(np.abs(npfit.a_tilde - reference.dense_nonparametric(x, p, W, b)).max())
        )

        st = second_order_statistic(s, p, b)
        a_ref, psi_ref, sig_ref = reference.dense_second_order(x, p, b)
        worst = max(worst, float(np.abs(st.a_hat - a_ref).max()))
        worst = max(worst, abs(st.psi - psi_ref), abs(st.sigma_sq_hat - sig_ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(2, "oracle equivalence", ok, f"max |diff|={worst:.2e} over 50 instances, {elapsed:.1f}s")


def test_criterion_03_scale_invariance():
    start = time.perf_counter()
    model = TvArchModel(
        p=1, coeffs=(CoefficientFunction.sine(2.0, 1.0), CoefficientFunction.constant(0.4))
    )
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    b = 0.2
    worst = 0.0
    for r in range(20):
        s = simulate_path(model, SimulationConfig(T=250, seed=derive_seed(3, r)))
        scaled = ReturnSeries(100.0 * s.values)

        f1 = estimate_beta(s, part, "level", b)
        f2 = estimate_beta(scaled, part, "level", b)
        worst = max(worst, float(np.abs(f2.beta - f1.beta).max() / max(np.abs(f1.beta).max(), 1e-12)))

        p1, _ = estimate_beta_plugin(s, part, b, base=f1)
        p2, _ = estimate_beta_plugin(scaled, part, b, base=f2)
        worst = max(worst, float(np.abs(p2.beta - p1.beta).max() / max(np.abs(p1.beta).max(), 1e-12)))

        e1 = constancy_statistic(s, part, "level", b).e_t
        e2 = constancy_statistic(scaled, part, "level", b).e_t
        worst = max(worst, abs(e2 - e1) / max(abs(e1), 1e-12))

        q1 = second_order_statistic(s, 1, b).psi
        q2 = second_order_statistic(scaled, 1, b).psi
        worst = max(worst, abs(q2 - q1) / max(abs(q1), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(3, "scale invariance", ok, f"max rel diff={worst:.2e} over 20 series, {elapsed:.1f}s")


def test_criterion_04_rmse_reproduction(rmse_result):
    row = _row(rmse_result, T=1500)
    a1 = row["a1"]["value"]
    a1_star = row["a1_star"]["value"]
    ok = 0.037 <= a1 <= 0.058 and a1_star <= 1.05 * a1
    _verdict(
        4,
        "RMSE reproduction",
        ok,
        f"RMSE(a1)={a1:.4f} (band [0.037, 0.058], ref 0.0473), "
        f"RMSE(a1*)={a1_star:.4f} (<= 1.05x, ref 0.0433), R=300",
    )


def test_criterion_05_consistency_trend(rmse_result):
    a1_500 = _row(rmse_result, T=500)["a1"]["value"]
    a1_1500 = _row(rmse_result, T=1500)["a1"]["value"]
    ok = a1_1500 < a1_500
    _verdict(
        5,
        "consistency trend",
        ok,
        f"RMSE(a1): T=1500 {a1_1500:.4f} < T=500 {a1_500:.4f} (ref 0.0473 < 0.0859)",
    )


def test_criterion_06_constancy_size(constancy_result):
    row = _row(constancy_result, setup=1, T=1000, hypothesis="a1 constant")
    rate = row["reject_at_0.1"]["value"]
    ok = 0.06 <= rate <= 0.18
    _verdict(
        6,
        "constancy test size",
        ok,
        f"rejection at 10% = {rate:.3f} (band [0.06, 0.18], ref 0.12; R=200, B=500)",
    )


def test_criterion_07_constancy_power(constancy_result):
    row = _row(constancy_result, setup=2, T=2000, hypothesis="a1 constant")
    rate = row["reject_at_0.1"]["value"]
    ok = rate >= 0.85
    _verdict(
        7, "constancy test power", ok, f"rejection at 10% = {rate:.3f} (>= 0.85, ref 0.96)"
    )


def test_criterion_08_second_order_coverage(coverage_result):
    row = _row(coverage_result, setup=1, T=500)
    rate = row["accept_at_0.05"]["value"]
    cov_ok = 0.91 <= rate <= 0.98

    # Correction factor on stationary data at T=2000 with the CV bandwidth.
    flat = TvArchModel(p=0, coeffs=(CoefficientFunction.constant(1.0),))
    vals = []
    for r in range(20):
        s = simulate_path(flat, SimulationConfig(T=2000, seed=derive_seed(8, r)))
        b = cv_bandwidth_tvarch(s, 0).bandwidth
        vals.append(second_order_statistic(s, 2, b).sigma_sq_hat)
    sig = float(np.mean(vals))
    sig_ok = 0.97 <= sig <= 1.03
    _verdict(
        8,
        "second-order coverage",
        cov_ok and sig_ok,
        f"acceptance at 5% = {rate:.3f} (band [0.91, 0.98], ref 0.95); "
        f"stationary sigma^2 = {sig:.4f} (band [0.97, 1.03])",
    )


def test_criterion_09_asymptotic_critical_value():
    q = asymptotic_psi_quantile(1, 0.05)
    want = float(scipy.stats.chi2.ppf(0.90, 1))
    ok = abs(q - want) <= 0.01
    _verdict(
        9,
        "second-order asymptotic critical value",
        ok,
        f"q(95%, p=1) = {q:.4f} vs 2.70554 (exact chi-bar-squared quantile, tol 0.01)",
    )


def test_criterion_10_order_selection():
    model = TvArchModel(
        p=1, coeffs=(CoefficientFunction.sine(2.0, 0.8), CoefficientFunction.constant(0.3))
    )
    R = 200
    hits = 0
    for r in range(R):
        s = simulate_path(model, SimulationConfig(T=1000, seed=derive_seed(10, r)))
        hits += select_lag_order(s, q_max=10).p_hat == 1
    rate = hits / R
    ok = rate >= 0.88
    _verdict(
        10, "order selection", ok, f"correct-fit = {rate:.3f} at T=1000, R=200 (>= 0.88, ref 0.97)"
    )


def test_criterion_11_pivotal_asymptotics():
    part = CoefficientPartition(p=1, varying=(0,), constant=(1,))
    b = 2000.0 ** (-1.0 / 3.0)
    cal = mc_pivotal_quantiles(2000, 1, part, b, 500, (0.05, 0.10), 11, "constancy")
    mean = float(cal.sample.mean())
    var = float(cal.sample.var(ddof=1))
    ok = -0.3 <= mean <= 0.3 and 0.6 <= var <= 1.6
    _verdict(
        11,
        "pivotal statistic asymptotics",
        ok,
        f"replicate mean = {mean:.3f} (band [-0.3, 0.3]), variance = {var:.3f} (band [0.6, 1.6])",
    )


def test_criterion_12_cli_determinism(tmp_path, capsys):
    model_cfg = {
        "p": 1,
        "coeffs": [
            {"kind": "sine", "offset": 2.0, "amplitude": 1.0},
            {"kind": "constant", "value": 0.4},
        ],
    }
    model = tmp_path / "model.json"
    model.write_text(json.dumps(model_cfg))
    csv_path = tmp_path / "x.csv"

    def run(argv):
        rc = cli_main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        return out.encode()

    sim = ["simulate", "--model", str(model), "--T", "300", "--seed", "12",
           "--out-csv", str(csv_path)]
    run(sim)
    first_csv = csv_path.read_bytes()
    run(sim)
    csv_same = csv_path.read_bytes() == first_csv

    commands = [
        ["fit", "--input", str(csv_path), "--p", "1", "--bandwidth", "0.2", "--json"],
        ["test-constancy", "--input", str(csv_path), "--p", "1", "--bandwidth", "0.2",
         "--B", "200", "--seed", "1", "--json"],
        ["pipeline", "--input", str(csv_path), "--q", "2", "--B", "100", "--seed", "2", "--json"],
    ]
    cmd_same = all(run(argv) == run(argv) for argv in commands)

    exp = ["experiment", "--design", "dynamic-coverage", "--T", "200", "--R", "30",
           "--B", "100", "--seed", "3", "--json"]
    thread_same = run(exp + ["--workers", "1"]) == run(exp + ["--workers", "3"])

    ok = csv_same and cmd_same and thread_same
    _verdict(
        12,
        "CLI determinism",
        ok,
        f"csv repeat identical={csv_same}, json repeats identical={cmd_same}, "
        f"across workers identical={thread_same}",
    )
