"""Tests of the benchmark's own machinery: tracer, layer guard, output check.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tvarch  # noqa: E402
import tvarch.testing  # noqa: E402

from layers import CATALOGUE, TARGETS, MissingLayerError, layer_metrics  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import PARENT, StaleBindingError, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, compare, digest  # noqa: E402


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.work")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n"
        "def outer():\n    time.sleep(0.03)\n    inner()\n    inner()\n",
        mod.__dict__,
    )
    pkg.outer = mod.outer  # re-exported, as tvarch/__init__ does
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.work", mod)
    return pkg, mod


def test_tracer_spans_parents_and_self_time(fake_package):
    pkg, mod = fake_package
    tracer = Tracer({"work.outer": None, "work.inner": None}, package="fakepkg")
    tracer.install()
    try:
        pkg.outer()  # through the package's binding
        mod.outer()  # through the defining module's binding
    finally:
        tracer.uninstall()
    spans = tracer.take()
    assert [s[0] for s in spans] == ["work.outer", "work.inner", "work.inner"] * 2
    assert [s[1] for s in spans[::3]] == ["fakepkg", "work"]
    assert [s[PARENT] for s in spans] == [-1, 0, 0, -1, 3, 3]
    summary = summarize(spans)
    assert summary["work.inner"]["calls"] == 4
    outer = summary["work.outer"]
    assert outer["total_s"] - outer["self_s"] == pytest.approx(summary["work.inner"]["total_s"])
    assert 0.055 <= outer["self_s"] < 0.5  # two 0.03 s sleeps of outer's own; loose above for busy hosts
    # uninstall restores the original objects everywhere
    assert pkg.outer is mod.outer and not hasattr(mod.outer, "__wrapped__")


def test_install_fails_for_a_function_that_no_longer_exists():
    with pytest.raises(StaleBindingError, match="estimate.no_such_function"):
        Tracer({"estimate.no_such_function": None}).install()


def test_every_target_exists_and_is_rebound():
    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        assert hasattr(tvarch.testing.estimate_beta, "__wrapped__")
        assert hasattr(tvarch.kernels.local_sums, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(tvarch.testing.estimate_beta, "__wrapped__")


def _traced_constancy_run() -> list:
    model = tvarch.TvArchModel(
        p=1, coeffs=(tvarch.CoefficientFunction.constant(1.0), tvarch.CoefficientFunction.constant(0.3))
    )
    series = tvarch.simulate_path(model, tvarch.SimulationConfig(T=300, seed=5))
    partition = tvarch.CoefficientPartition(p=1, varying=(0,), constant=(1,))
    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        tvarch.testing.constancy_statistic(series, partition, "level", 0.2)
    finally:
        tracer.uninstall()
    return tracer.take()


def _missing(spans: list) -> str:
    with pytest.raises(MissingLayerError) as info:
        layer_metrics("pipeline", [], [spans], 0.0)
    return str(info.value)


def test_guard_fails_loudly_when_a_binding_goes_stale(monkeypatch):
    # constancy_statistic calls estimate_beta through testing's binding.
    assert "estimate.estimate_beta.calls" not in _missing(_traced_constancy_run())
    # A later refactor binds something else there (moved or renamed function):
    # the tracer no longer sees those calls, and the guard must say so.
    original = tvarch.testing.estimate_beta
    monkeypatch.setattr(tvarch.testing, "estimate_beta", lambda *a, **k: original(*a, **k))
    assert "estimate.estimate_beta.calls" in _missing(_traced_constancy_run())


def test_compare_exact_and_tolerant_fields():
    ref = digest({"p_hat": 2, "p_value": 0.25, "beta": [0.3, 0.2], "sigma_sq": list(np.linspace(1.0, 2.0, 40))})
    ref = json.loads(json.dumps(ref))  # as stored in reference.json
    same = digest({"p_hat": 2, "p_value": 0.25, "beta": [0.3 * (1 + 1e-13), 0.2], "sigma_sq": list(np.linspace(1.0, 2.0, 40))})
    assert compare(ref, same) == []
    assert compare(ref, {**same, "p_value": 0.25 * (1 + 1e-13)})  # MC p-values match exactly
    assert compare(ref, {**same, "beta": [0.3 * (1 + 1e-6), 0.2]})
    assert compare(ref, {**same, "p_hat": 3})
    moved = digest({"sigma_sq": list(np.linspace(1.0, 2.0, 40) + np.eye(40)[7] * 1e-6)})
    assert compare({"sigma_sq": ref["sigma_sq"]}, moved)


def test_catalogue_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in CATALOGUE
    ]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    for metric in CATALOGUE:
        assert set(metric.runs_on) <= set(WORKLOADS)
        assert metric.span == "op" or metric.span in TARGETS


def test_speed_sampler_samples_inside_the_region_only():
    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.35:  # busy: Python runs the handler between bytecodes
        pass
    probe_s, scale = sampler.stop()
    assert 0.0 < probe_s < time.perf_counter() - t0
    assert len(sampler._probe_s) >= 2 and scale > 0.0
    sampler.start()  # shorter than one interval: no sample inside, one right after
    assert sampler.stop()[0] == 0.0 and len(sampler._probe_s) == 1
