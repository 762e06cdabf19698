"""One fresh benchmark process: set a workload up, then optionally run its ops.

Started by ``run.py``; not meant to be run by hand.  Writes one JSON object
per line to stdout: ``{"event": "ready", ...}`` as soon as set-up is done
(the parent times set-up from process start to that line), then, unless the
mode is ``setup``, ``{"event": "result", ...}``.  Modes:

- ``setup``: set up and exit.
- ``measure``: run ops untraced in a closed loop for ``--seconds``.
- ``trace``: trace set-up, then alternate untraced and traced ops for
  ``--seconds``, and derive the per-layer metrics.
- ``record``: run one traced op and report its output digest and call
  counts; used by ``make_reference.py``.

Set-up (from the import of tvarch on) and every op run under a
``speed.SpeedSampler``; each reports its wall time less the probes' time and
the same at the reference host speed (see ``speed.py``).  In the traced run
the spans open while a probe ran include it, about 1% of their time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler

SAMPLER = SpeedSampler()
SAMPLER.start()  # samples the host speed through set-up, up to the "ready" line

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tvarch  # noqa: E402

if not Path(tvarch.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"tvarch was imported from {tvarch.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import CATALOGUE, TARGETS, layer_metrics  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, compare, digest  # noqa: E402


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def check(workload, out, reference) -> list:
    """Reasons the op's output is wrong; empty when it matches the reference."""
    if isinstance(out, dict) and "error" in out:
        return [f"bundle carries an error entry: {out['error']}"]
    return compare(reference, digest(workload.record(out)))


def run_ops(workload, state, seconds: float, reference, tracer=None):
    """Closed loop: op after op until ``seconds`` have passed (at least one op).

    Returns the ops' wall times and their times at the reference speed, both
    less the speed probes' time, the problems found and the traced spans."""
    times, scaled, problems, spans = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        SAMPLER.start()
        t0 = perf_counter()
        try:
            out = workload.op(state)
        except Exception:  # an op that raises is a failed op; keep measuring
            out = None
            problems.append(traceback.format_exc(limit=3))
        probe_s, scale = SAMPLER.stop()
        t1 = perf_counter()
        times.append(t1 - t0 - probe_s)
        scaled.append(times[-1] * scale)
        if tracer is not None:
            spans.append(tracer.take())
        if out is not None and reference is not None:
            mismatches = check(workload, out, reference)
            if mismatches:
                problems.append(f"{len(mismatches)} mismatches, first: " + "; ".join(mismatches[:3]))
        if t1 >= deadline:
            return times, scaled, problems, spans


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--case-seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "record"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--reference", default=None, help="reference.json holding the case's expected output")
    ap.add_argument("--spans-out", default=None, help="trace mode: write the last op's spans here")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    reference = None
    if args.reference:
        cases = json.loads(Path(args.reference).read_text())["workloads"][args.workload]["cases"]
        matches = [c["digest"] for c in cases if c["seed"] == args.case_seed]
        if not matches:
            sys.exit(f"no reference output for {args.workload} case seed {args.case_seed}")
        reference = matches[0]
    tracer = Tracer(TARGETS) if args.mode in ("trace", "record") else None
    if tracer is not None:
        tracer.install()
    state = workload.setup(args.case_seed, Path(args.scratch))
    probe_s, scale = SAMPLER.stop()
    emit({"event": "ready", "probe_s": probe_s, "scale": scale})
    if args.mode == "setup":
        return 0

    result = {"event": "result", "versions": versions()}
    if args.mode == "record":
        tracer.take()
        out = workload.op(state)
        counts = {name: s["calls"] for name, s in sorted(summarize(tracer.take()).items())}
        tracer.uninstall()
        result.update(digest=digest(workload.record(out)), calls=counts)
        emit(result)
        return 0

    if args.mode == "measure":
        times, scaled, problems, _ = run_ops(workload, state, args.seconds, reference)
        result.update(
            op_times=times,
            op_scaled=scaled,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        # Untraced and traced ops alternate, so host drift cancels in the
        # overhead ratio, which compares each traced op with the one before.
        setup_spans = tracer.take()
        tracer.uninstall()
        times, scaled, problems, op_spans = [], [], [], []
        deadline = perf_counter() + args.seconds
        while not times or perf_counter() < deadline:
            t, s, p, _ = run_ops(workload, state, 0.0, reference)
            tracer.install()
            try:
                traced_t, traced_s, traced_p, spans = run_ops(workload, state, 0.0, reference, tracer)
            finally:
                tracer.uninstall()
            times += t + traced_t
            scaled += s + traced_s
            problems += p + traced_p
            op_spans += spans
        overhead = float(np.median([b / a for a, b in zip(scaled[::2], scaled[1::2])]) - 1.0)
        values = layer_metrics(args.workload, setup_spans, op_spans, overhead)
        result.update(
            op_times=times[::2],
            traced_op_times=times[1::2],
            op_scaled=scaled[::2],
            layers={m.name: {"value": values[m.name], "unit": m.unit} for m in CATALOGUE},
        )
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for rec in op_spans[-1]:
                    fh.write(json.dumps(dict(zip(("name", "via", "parent", "start", "end"), rec[:5]))) + "\n")
    result["problems"] = problems
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
