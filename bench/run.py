"""tvarch benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--workload`` is one of pipeline, long-series, study, or ``all`` (each in
turn).  ``--seed`` picks the input case: case ``seed mod n`` of the
workload's cases in ``bench/reference.json``, whose stored outputs every op
is checked against.  Each workload runs in fresh worker processes with one
BLAS thread and one caller (closed loop, ``workers=1``).

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median over
three fresh processes of the time from process start to ready (import,
inputs, lazily built constants); ``op_s``, the median time of one op over a
closed loop of ``--seconds``; and ``peak_rss_mb`` of that process.  Both
times are wall times scaled by the host speed sampled while they ran (see
``speed.py``), so they read in seconds at a fixed reference host speed; the
unscaled wall-time medians are printed too.
``--trace 1`` makes the separate traced run, which reports the per-layer
metrics of ``bench/layers.py``.  Failed ops (raised, an ``error`` entry in a
pipeline bundle, or output off the reference) count in ``failed``, so
error_rate = failed / attempted.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric by name
and unit and the environment record.  The full record of each run is also
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
WORKLOAD_NAMES = ("pipeline", "long-series", "study")
SETUP_SAMPLES = 3  # fresh processes whose set-up time is measured per run
RUN_LIMIT_S = 170.0  # every worker of one run is killed after this long
# One BLAS thread: the box is small and shared, and the ops' matrices are
# tiny, so extra threads add spread and no speed.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(WORKER_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, deadline: float) -> tuple[float, float, dict | None]:
    """Run one worker; return (seconds from start to ready, the same at the
    reference host speed, the worker's result or None).  Both exclude the
    speed probes' own time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    ready_s, scale, result = None, None, None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if msg["event"] == "ready":
                ready_s = perf_counter() - t0 - msg["probe_s"]
                scale = msg["scale"]
            elif msg["event"] == "result":
                result = msg
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or scale is None:
        raise BenchError(f"worker {' '.join(args[:2])} ... exited with code {code}")
    return ready_s, ready_s * scale, result


def case_seed(workload: str, seed: int) -> int:
    cases = json.loads(REFERENCE.read_text())["workloads"][workload]["cases"]
    return cases[seed % len(cases)]["seed"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> dict:
    """One run: the end-to-end metrics, or with ``trace`` the per-layer ones."""
    deadline = perf_counter() + RUN_LIMIT_S
    cseed = case_seed(workload, seed)
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    base = ["--workload", workload, "--case-seed", str(cseed), "--scratch", str(scratch)]
    checked = base + ["--reference", str(REFERENCE), "--seconds", str(seconds)]
    try:
        if trace:
            spans_out = out_dir / f"{stem}-spans.jsonl"
            res = spawn(checked + ["--mode", "trace", "--spans-out", str(spans_out)], deadline)[2]
            metrics = res["layers"]
            setups = []
        else:
            setups = [spawn(base + ["--mode", "setup"], deadline)[:2] for _ in range(SETUP_SAMPLES - 1)]
            ready_s, ready_scaled, res = spawn(checked + ["--mode", "measure"], deadline)
            setups.append((ready_s, ready_scaled))
            metrics = {
                "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
                "op_s": {"value": statistics.median(res["op_scaled"]), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = len(res["op_times"]) + len(res.get("traced_op_times", []))
    failed = len(res["problems"])
    env = {
        "workload": workload,
        "seed": seed,
        "case_seed": cseed,
        "trace": int(trace),
        "run_seconds": seconds,
        "samples": {
            "setup": len(setups),
            "op": len(res["op_times"]),
            "traced_op": len(res.get("traced_op_times", [])),
        },
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_end": os.getloadavg()[0],
        "python": platform.python_version(),
        **res["versions"],
        "blas_threads": int(WORKER_ENV["OPENBLAS_NUM_THREADS"]),
        "settings": "closed loop, one caller, workers=1, fresh process per workload, " + ", ".join(
            f"{k}={v}" for k, v in WORKER_ENV.items()
        ),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }
    wall = {} if trace else {
        "setup_s": statistics.median(w for w, _ in setups),
        "op_s": statistics.median(res["op_times"]),
    }
    record = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "wall_medians_s": wall,
        "setup_wall_s": [w for w, _ in setups],
        "setup_scaled_s": [s for _, s in setups],
        "op_wall_s": res["op_times"],
        "op_scaled_s": res.get("op_scaled", []),
        "traced_op_wall_s": res.get("traced_op_times", []),
        "problems": res["problems"],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    env = record["env"]
    print(f"== {env['workload']} (seed {env['seed']}, case {env['case_seed']}, trace {env['trace']})")
    for problem in record["problems"]:
        print(f"FAILED OP: {problem}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in record["wall_medians_s"].items():
        print(f"{name} unscaled wall time = {value:.6g} s")
    print(f"error_rate = {record['error_rate']:.6g} ({record['failed']}/{record['attempted']} ops)")
    print("env " + json.dumps(env))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tvarch" / "__init__.py").is_file():
        print(f"error: no tvarch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    if args.workload == "all":
        runs = [(w, False) for w in WORKLOAD_NAMES]
        if args.trace:
            runs += [(w, True) for w in WORKLOAD_NAMES]
    else:
        runs = [(args.workload, bool(args.trace))]
    try:
        records = [run_workload(w, args.seed, args.seconds, t, out_dir) for w, t in runs]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)

    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['env']['workload']}/"
        metrics.update({prefix + k: v for k, v in rec["metrics"].items()})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
