"""The three benchmark workloads and the check of their outputs.

Every workload is a closed loop with one caller: the next op starts when the
previous one returned.  ``setup`` builds the op's inputs from a case of
``reference.json`` and fills the lazily built constants the op would
otherwise pay for on first use; ``op`` is the timed unit of work; ``record``
turns an op's result into plain JSON for the reference check, outside the
timed region.  Ops call the package through module attributes
(``tvarch.select_lag_order``), never through names bound here, so the
tracer's rebinding sees them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tvarch
import tvarch.experiments
import tvarch.testing

LEVELS = (0.05, 0.10)
# Relative tolerance for continuous outputs.  The package's dense oracles
# hold at 1e-10; rewrites of the smoothing core may move last bits, and a
# change of a discrete result always exceeds this by orders of magnitude.
RTOL = 1e-9
# Floats that are discrete by construction (grid bandwidths, Monte-Carlo
# p-values): these must match exactly.
EXACT_KEYS = frozenset({"p_value", "bandwidth", "b", "b_prime", "mean_bandwidth"})
# Lists longer than this are stored as a summary rather than element-wise.
_LIST_LIMIT = 16


def sptv2_model():
    """sptv(2): sine intercept 2 + sin(2 pi u), constant lags 0.3 and 0.2."""
    C = tvarch.CoefficientFunction
    return tvarch.TvArchModel(
        p=2, coeffs=(C.sine(2.0, 1.0), C.constant(0.3), C.constant(0.2)), noise=tvarch.NoiseSpec.gaussian()
    )


def _warm_kernel_constants(*constants) -> None:
    """Fill the lru_caches of kernel constants as the package fills them.

    The caches key on the call's argument form, so ``k_l2_norm_sq()`` does not
    fill the entry that ``k_l2_norm_sq(kernel)`` reads; call them the way
    ``estimate`` and ``testing`` do, with the kernel passed positionally."""
    for constant in constants:
        constant(tvarch.kernels.epanechnikov)


def _simulate(T: int, seed: int):
    return tvarch.simulate_path(sptv2_model(), tvarch.SimulationConfig(T=T, seed=seed))


# ---------------------------------------------------------------------------
# pipeline: run_pipeline on one CSV-loaded T=2000 series.

PIPELINE = {"T": 2000, "q_max": 10, "B": 100}


def _pipeline_setup(seed: int, scratch: Path) -> dict:
    series = _simulate(PIPELINE["T"], seed)
    path = scratch / f"pipeline-{os.getpid()}.csv"
    try:
        path.write_text("x\n" + "".join(f"{v!r}\n" for v in series.values.tolist()))
        loaded = tvarch.load_series(tvarch.IngestSpec(str(path)))
    finally:
        path.unlink(missing_ok=True)
    if not np.array_equal(loaded.values, series.values):
        raise RuntimeError("CSV round trip changed the series")
    _warm_kernel_constants(tvarch.k_star_l2_norm_sq, tvarch.k_l2_norm_sq)
    return {"series": loaded, "seed": seed}


def _pipeline_op(state: dict):
    return tvarch.experiments.run_pipeline(
        state["series"], q_max=PIPELINE["q_max"], B=PIPELINE["B"], levels=LEVELS, seed=state["seed"], workers=1
    )


def _pipeline_record(bundle: dict) -> dict:
    return bundle


# ---------------------------------------------------------------------------
# long-series: order selection, semiparametric CV and two plug-in fits at T=8000.

LONG = {"T": 8000, "q_max": 10, "p": 2}


def _long_setup(seed: int, scratch: Path) -> dict:
    _warm_kernel_constants(tvarch.k_l2_norm_sq)
    return {"series": _simulate(LONG["T"], seed)}


def _long_op(state: dict):
    x = state["series"]
    p = LONG["p"]
    sel = tvarch.select_lag_order(x, q_max=LONG["q_max"])
    cv = tvarch.cv_bandwidth_semiparametric(x, p)
    m1 = tvarch.CoefficientPartition(p=p, varying=(0,), constant=(1, 2))
    m2 = tvarch.CoefficientPartition(p=p, varying=(0, 1), constant=(2,))
    fit1 = tvarch.fit_semiparametric(x, m1, cv.bandwidth, plugin=True)
    fit2 = tvarch.fit_semiparametric(x, m2, cv.bandwidth, plugin=True)
    return sel, cv, fit1, fit2


def _long_record(out) -> dict:
    sel, cv, fit1, fit2 = out
    return {
        "order": {
            "p_hat": sel.p_hat,
            "criteria": sel.criteria.tolist(),
            "rss": sel.rss.tolist(),
            "bandwidth": sel.bandwidth,
            "zeta": sel.zeta,
        },
        "cv": {"bandwidth": cv.bandwidth, "scores": cv.scores.tolist(), "beta": cv.beta.tolist()},
        "fit_m1": fit1.to_dict(),
        "fit_m2": fit2.to_dict(),
    }


# ---------------------------------------------------------------------------
# study: three small simulation designs at T=500.

STUDY = {"T": 500, "R": 100, "B": 200}


def _study_setup(seed: int, scratch: Path) -> dict:
    _warm_kernel_constants(tvarch.k_l2_norm_sq)
    for level in LEVELS:
        tvarch.testing.asymptotic_psi_quantile(2, level)
    return {"seed": seed}


def _study_op(state: dict):
    spec = tvarch.experiments.ExperimentSpec
    common = {"T_list": (STUDY["T"],), "replications": STUDY["R"], "seed": state["seed"], "levels": LEVELS}
    run = tvarch.experiments.run_experiment
    return (
        run(spec(design="rmse", **common)),
        run(spec(design="dynamic-coverage", B=STUDY["B"], **common)),
        run(spec(design="dynamic-coverage", calibration="asymptotic", **common)),
    )


def _study_record(out) -> dict:
    rmse, mc, asymptotic = out
    return {"rmse": rmse, "coverage_mc": mc, "coverage_asymptotic": asymptotic}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    op: object
    record: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline",
            "the paper's one-series workflow; Monte-Carlo calibration is most of each op",
            _pipeline_setup,
            _pipeline_op,
            _pipeline_record,
        ),
        Workload(
            "long-series",
            "T=8000 without Monte-Carlo: O(T^2 b) smoothing, the eigvalsh gate and the plug-in sweep dominate",
            _long_setup,
            _long_op,
            _long_record,
        ),
        Workload(
            "study",
            "many short series: simulate_path, the per-replicate CV grid and the calibration cache",
            _study_setup,
            _study_op,
            _study_record,
        ),
    )
}


# ---------------------------------------------------------------------------
# Output digests and their comparison.


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _flatten(values: list) -> list | None:
    """Numbers of a (nested) list of numbers, or None if anything else is in it."""
    out = []
    for v in values:
        if _is_number(v):
            out.append(v)
        elif isinstance(v, list):
            inner = _flatten(v)
            if inner is None:
                return None
            out.extend(inner)
        else:
            return None
    return out


def _summary(values: list) -> dict:
    """Size, sum, sum of squares, extremes and eight evenly spaced elements."""
    arr = np.asarray(values, dtype=float)
    step = max(1, arr.size // 8)
    return {
        "n": int(arr.size),
        "sum": float(arr.sum()),
        "sumsq": float((arr * arr).sum()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "sample": arr[::step][:8].tolist(),
    }


def digest(obj):
    """JSON-ready fingerprint: scalars kept, long numeric lists summarized."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {str(k): digest(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        obj = list(obj)
        if obj and all(isinstance(e, dict) for e in obj) and len({tuple(e) for e in obj}) == 1:
            # Columns of a list of records, e.g. the per-center alpha grid.
            return {"[]": {k: digest([e[k] for e in obj]) for k in obj[0]}}
        flat = _flatten(obj)
        if flat is not None and len(flat) > _LIST_LIMIT:
            return {"[n]": _summary(flat)}
        return [digest(e) for e in obj]
    return obj


def _close(a: float, b: float, scale: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def compare(ref, got, path: str = "", key: str = "", scale: float = 0.0) -> list:
    """Mismatches between a reference digest and a fresh one, as messages."""
    where = path or "<root>"
    if _is_number(ref) and _is_number(got) and (isinstance(ref, float) or isinstance(got, float)):
        ok = ref == got if key in EXACT_KEYS else _close(float(ref), float(got), scale)
        return [] if ok else [f"{where}: {got!r} != reference {ref!r}"]
    if type(ref) is not type(got):
        return [f"{where}: type {type(got).__name__} != reference {type(ref).__name__}"]
    if isinstance(ref, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(got)} != reference {sorted(ref)}"]
        if set(ref) == {"n", "sum", "sumsq", "min", "max", "sample"}:
            # A summary: element checks relative to the larger of the element and the
            # list's RMS; the sum relative to sqrt(n * sumsq), which bounds sum |x|.
            n = ref["n"]
            rms = math.sqrt(ref["sumsq"] / n) if n else 0.0
            out = []
            for k in ("n", "sumsq", "min", "max"):
                out += compare(ref[k], got[k], f"{path}.{k}", k, rms)
            out += compare(ref["sum"], got["sum"], f"{path}.sum", "sum", math.sqrt(n * ref["sumsq"]))
            out += compare(ref["sample"], got["sample"], f"{path}.sample", key, rms)
            return out
        out = []
        for k in ref:
            out += compare(ref[k], got[k], f"{path}.{k}" if path else k, k if k not in ("[]", "[n]") else key, scale)
        return out
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != reference {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, f"{path}[{i}]", key, scale)
        return out
    return [] if ref == got else [f"{where}: {got!r} != reference {ref!r}"]
