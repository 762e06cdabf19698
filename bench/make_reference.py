"""Choose each workload's input cases and store their reference outputs.

    python3 bench/make_reference.py --candidates 24 --keep 10 [--workload pipeline]

For every candidate input seed 0..candidates-1 a fresh worker runs one
traced op and returns the op's output digest and call counts.  Candidates
are grouped by the shape of the work the op did (selected order and
bandwidths, number of Monte-Carlo calibrations): the op's cost depends on
that shape, so mixing shapes would make ``op_s`` depend on the seed rather
than on the code.  The largest group, up to ``--keep`` cases in seed order,
becomes the workload's case list in ``reference.json``; the benchmark's
``--seed`` picks case ``seed mod len(cases)``.

Rerun only when a change of results is intended (never to make a failing
check pass), and say so in the change that commits the new file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from run import REFERENCE, ROOT, WORKLOAD_NAMES, spawn


def shape(workload: str, res: dict) -> tuple:
    d, calls = res["digest"], res["calls"]
    calibrations = calls.get("testing.mc_pivotal_quantiles", 0)
    if workload == "pipeline":
        # The constancy bandwidth sets the cost of four of the five calibrations.
        return (d["order"]["p_hat"], d["constancy"]["bandwidth"], d["fit"]["model"], calibrations)
    if workload == "long-series":
        return (d["order"]["p_hat"], d["order"]["bandwidth"], d["cv"]["bandwidth"])
    return (calibrations,)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--candidates", type=int, default=24)
    ap.add_argument("--keep", type=int, default=10)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = ap.parse_args()

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    scratch = ROOT / ".bench_out" / "tmp-reference"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        choose_cases(ref, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def choose_cases(ref: dict, args, scratch: Path) -> None:
    for workload in args.workload or WORKLOAD_NAMES:
        groups = defaultdict(list)
        for seed in range(args.candidates):
            t0 = perf_counter()
            res = spawn(
                ["--workload", workload, "--case-seed", str(seed), "--scratch", str(scratch), "--mode", "record"],
                perf_counter() + 600.0,
            )[2]
            key = shape(workload, res)
            groups[key].append({"seed": seed, "digest": res["digest"]})
            print(f"{workload} seed {seed}: shape {key} ({perf_counter() - t0:.1f} s)", file=sys.stderr)
        key, cases = max(groups.items(), key=lambda kv: (len(kv[1]), -kv[1][0]["seed"]))
        ref["workloads"][workload] = {
            "shape": list(key),
            "shapes_seen": {json.dumps(list(k)): len(v) for k, v in groups.items()},
            "candidates": args.candidates,
            "cases": cases[: args.keep],
        }


if __name__ == "__main__":
    sys.exit(main())
