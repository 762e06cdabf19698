"""Per-layer metric catalogue: what the traced run measures and where it must run.

Each :class:`LayerMetric` names the end-to-end metric and workloads it
should move (``moves``) and the workloads on which the span it is read from
must record calls (``runs_on``).  A span that records no call on such a
workload means the tracer no longer reaches that layer, typically because a
refactor moved or renamed the function, and the traced run fails rather
than report zero time.  Metrics of phase ``setup`` are read from the spans
recorded while the workload set itself up; all others are per-op means over
the traced ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tracer import NAME, PARENT, summarize

ALL = ("pipeline", "long-series", "study")


def _columns(args, kwargs, out):
    v = args[0]
    return 1 if v.ndim <= 1 else v.size // v.shape[0]


def _window_key(args, kwargs, out):
    return (args, tuple(sorted(kwargs.items())))


def _matrices(args, kwargs, out):
    return math.prod(args[0].shape[:-2])


def _calibration(args, kwargs, out):
    return (out.B, out.retried)


def _cv_failed(args, kwargs, out):
    scores = np.asarray(out.scores)
    return (int(np.sum(~np.isfinite(scores))), int(scores.size))


def _rss_failed(args, kwargs, out):
    rss = np.asarray(out.rss)
    return (int(np.sum(~np.isfinite(rss))), int(rss.size))


# Functions the tracer wraps, by defining module, with the probe that fills
# the span's extra field.
TARGETS = {
    "kernels.local_sums": _columns,
    "kernels.kernel_window": _window_key,
    "kernels.window_counts": None,
    "kernels.k_star_l2_norm_sq": None,
    "estimate._psd_rcond": _matrices,
    "estimate.projection_ratios": None,
    "estimate.smoothed_moments": None,
    "estimate.estimate_beta": None,
    "estimate.estimate_alpha_plugin": None,
    "estimate.fit_semiparametric": None,
    "testing.mc_pivotal_quantiles": _calibration,
    "testing.constancy_statistic": None,
    "testing.nonparametric_fit": None,
    "testing.second_order_statistic": None,
    "testing.asymptotic_psi_quantile": None,
    "testing.test_constancy": None,
    "testing.test_second_order": None,
    "select.select_lag_order": _rss_failed,
    "select.cv_bandwidth_tvarch": _cv_failed,
    "select.cv_bandwidth_semiparametric": _cv_failed,
    "simulate.simulate_path": None,
    "simulate.generator": None,
    "experiments._QuantileCache.get": None,
    "data.load_series": None,
}

# The calls experiments makes into these are the pipeline's stages.
STAGES = (
    "select.select_lag_order",
    "select.cv_bandwidth_tvarch",
    "testing.test_constancy",
    "estimate.fit_semiparametric",
    "testing.nonparametric_fit",
    "testing.test_second_order",
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    span: str  # span the value is read from; its calls are checked on runs_on
    runs_on: tuple
    moves: str
    phase: str = "op"


def _m(name, unit, better, runs_on, moves, span=None, phase="op"):
    if span is None:
        span = name.rpartition(".")[0]
    return LayerMetric(name, unit, better, span, tuple(runs_on), moves, phase)


_LONG_PIPE = "op_s on long-series and pipeline"
CATALOGUE = (
    _m("kernels.local_sums.calls", "count", "lower", ALL, _LONG_PIPE + "; per-call overhead on study"),
    _m("kernels.local_sums.self_s", "s", "lower", ALL, _LONG_PIPE + "; per-call overhead on study"),
    _m("kernels.local_sums.columns", "count", "lower", ALL, _LONG_PIPE),
    _m("kernels.kernel_window.calls", "count", "lower", ALL, "op_s on pipeline and study"),
    _m("kernels.kernel_window.distinct_ratio", "ratio", "higher", ALL, "op_s on pipeline and study"),
    _m("kernels.window_counts.self_s", "s", "lower", ALL, "op_s on pipeline"),
    _m("kernels.k_star_l2_norm_sq.total_s", "s", "lower", ("pipeline",), "setup_s on pipeline", phase="setup"),
    _m("estimate._psd_rcond.calls", "count", "lower", ALL, "op_s on pipeline and long-series"),
    _m("estimate._psd_rcond.matrices", "count", "lower", ALL, "op_s on pipeline and long-series"),
    _m("estimate._psd_rcond.self_s", "s", "lower", ALL, "op_s on pipeline and long-series"),
    _m("estimate.projection_ratios.self_s", "s", "lower", ALL, "op_s on pipeline"),
    _m("estimate.smoothed_moments.self_s", "s", "lower", ALL, "op_s on pipeline"),
    _m("estimate.estimate_beta.calls", "count", "lower", ALL, "op_s on pipeline"),
    _m("estimate.estimate_beta.self_s", "s", "lower", ALL, "op_s on pipeline"),
    _m(
        "estimate.estimate_alpha_plugin.self_s", "s", "lower", ("long-series", "study"),
        "op_s and peak_rss_mb on long-series; zero on pipeline",
    ),
    _m("estimate.fit_semiparametric.total_s", "s", "lower", ("pipeline", "long-series"), "op_s on long-series"),
    _m("testing.mc_pivotal_quantiles.calls", "count", "lower", ("pipeline", "study"), "op_s on pipeline; zero on long-series"),
    _m("testing.mc_pivotal_quantiles.total_s", "s", "lower", ("pipeline", "study"), "op_s on pipeline; zero on long-series"),
    _m("testing.mc.replicates", "count", "lower", ("pipeline", "study"), "op_s on pipeline; zero on long-series", span="testing.mc_pivotal_quantiles"),
    _m("testing.mc.retried", "count", "lower", (), "op_s on pipeline", span="testing.mc_pivotal_quantiles"),
    _m("testing.mc.useful_ratio", "ratio", "higher", ("pipeline", "study"), "op_s on pipeline", span="testing.mc_pivotal_quantiles"),
    _m("testing.mc.replicate_s", "s", "lower", ("pipeline", "study"), "op_s on pipeline and study", span="testing.mc_pivotal_quantiles"),
    _m("testing.constancy_statistic.self_s", "s", "lower", ("pipeline",), "op_s on pipeline"),
    _m("testing.nonparametric_fit.self_s", "s", "lower", ("pipeline",), "op_s on pipeline"),
    _m("testing.second_order_statistic.self_s", "s", "lower", ("pipeline", "study"), "op_s on pipeline and study"),
    _m(
        "testing.asymptotic_psi_quantile.total_s", "s", "lower", ("study",),
        "setup_s and peak_rss_mb on study", phase="setup",
    ),
    *(
        _m(f"{fn}.{measure}", unit, "lower", ("pipeline", "long-series") if "semi" not in fn else ALL,
           "op_s on long-series and study")
        for fn in ("select.select_lag_order", "select.cv_bandwidth_tvarch", "select.cv_bandwidth_semiparametric")
        for measure, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
    ),
    _m("select.cv.failed_ratio", "ratio", "lower", ALL, "op_s on long-series and study", span="select.cv_bandwidth_semiparametric"),
    _m("simulate.simulate_path.calls", "count", "lower", ("study",), "op_s on study; zero inside the op elsewhere"),
    _m("simulate.simulate_path.self_s", "s", "lower", ("study",), "op_s on study; zero inside the op elsewhere"),
    _m("simulate.generator.calls", "count", "lower", ("pipeline", "study"), "op_s on study; one per MC replicate on pipeline"),
    *(
        _m(f"experiments.{fn.rpartition('.')[2]}.total_s", "s", "lower",
           () if fn == "testing.nonparametric_fit" else ("pipeline",), "op_s on pipeline", span=fn)
        for fn in STAGES
    ),
    _m("experiments.quantile_cache.gets", "count", "lower", ("study",), "op_s on study", span="experiments._QuantileCache.get"),
    _m("experiments.quantile_cache.hit_ratio", "ratio", "higher", ("study",), "op_s on study", span="experiments._QuantileCache.get"),
    _m("data.load_series.self_s", "s", "lower", ("pipeline",), "setup_s on pipeline", phase="setup"),
    _m("trace.overhead_ratio", "ratio", "lower", (), "none: traced op_s / untraced op_s - 1", span="op"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_hits(spans: list) -> tuple[int, int]:
    """(gets, hits): a get is a hit when it ran no calibration underneath."""
    calibrated = set()
    for rec in spans:
        if rec[NAME] == "testing.mc_pivotal_quantiles" and rec[PARENT] >= 0:
            if spans[rec[PARENT]][NAME] == "experiments._QuantileCache.get":
                calibrated.add(rec[PARENT])
    gets = [i for i, rec in enumerate(spans) if rec[NAME] == "experiments._QuantileCache.get"]
    return len(gets), sum(1 for i in gets if i not in calibrated)


def _value(metric: LayerMetric, summary: dict, spans: list) -> float:
    name = metric.name
    s = summary.get(metric.span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": [], "via": {}})
    measure = name.rpartition(".")[2]
    if name == "kernels.local_sums.columns" or name == "estimate._psd_rcond.matrices":
        return float(sum(s["extra"]))
    if name == "kernels.kernel_window.distinct_ratio":
        return _ratio(len(set(s["extra"])), s["calls"])
    if name.startswith("testing.mc."):
        replicates = sum(b for b, _ in s["extra"])
        retried = sum(r for _, r in s["extra"])
        return float(
            {
                "replicates": replicates,
                "retried": retried,
                "useful_ratio": _ratio(replicates, replicates + retried),
                "replicate_s": _ratio(s["total_s"], replicates),
            }[measure]
        )
    if name == "select.cv.failed_ratio":
        pairs = [
            pair
            for fn in ("select.select_lag_order", "select.cv_bandwidth_tvarch", "select.cv_bandwidth_semiparametric")
            for pair in summary.get(fn, {"extra": []})["extra"]
        ]
        return _ratio(sum(f for f, _ in pairs), sum(n for _, n in pairs))
    if name.startswith("experiments.quantile_cache."):
        gets, hits = _cache_hits(spans)
        return float(gets) if measure == "gets" else _ratio(hits, gets)
    if name.startswith("experiments."):
        return s["via"].get("experiments", {"total_s": 0.0})["total_s"]
    return float(s[measure])


def calls_of(metric: LayerMetric, summary: dict) -> int:
    """Calls of the span a metric is read from; stage spans count only calls via experiments."""
    s = summary.get(metric.span)
    if s is None:
        return 0
    if metric.name.startswith("experiments.") and not metric.name.startswith("experiments.quantile_cache."):
        return s["via"].get("experiments", {"calls": 0})["calls"]
    return s["calls"]


class MissingLayerError(RuntimeError):
    """A layer the catalogue says runs on this workload recorded no call."""


def layer_metrics(workload: str, setup_spans: list, op_spans: list, overhead_ratio: float) -> dict:
    """Every catalogue metric for one traced run; raises MissingLayerError."""
    setup_summary = summarize(setup_spans)
    op_summaries = [summarize(spans) for spans in op_spans]
    values: dict = {}
    missing = []
    for metric in CATALOGUE:
        if metric.name == "trace.overhead_ratio":
            values[metric.name] = overhead_ratio
            continue
        if metric.phase == "setup":
            per_phase = [(setup_summary, setup_spans)]
        else:
            per_phase = list(zip(op_summaries, op_spans))
        if workload in metric.runs_on and any(calls_of(metric, s) == 0 for s, _ in per_phase):
            missing.append(f"{metric.name} (span {metric.span})")
        values[metric.name] = float(np.mean([_value(metric, s, sp) for s, sp in per_phase]))
    if missing:
        raise MissingLayerError(
            f"no calls recorded on {workload} for: " + ", ".join(missing)
            + "; the traced function moved or is no longer bound where the tracer looks"
        )
    return values
