"""Command-line interface.

Subcommands mirror the analysis workflow: ``simulate``, ``fit``,
``test-constancy``, ``test-zero``, ``test-dynamic``, ``select-bandwidth``,
``select-order``, ``pipeline``, and ``experiment``.  Every command echoes a
config block and is reproducible from it plus the seed; ``--json`` switches
the stdout report to machine-readable JSON.  Exit codes: 0 success, 2 input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import errors
from .data import IngestSpec, load_series
from .errors import InputError, NumericalError, TvArchError
from .estimate import fit_semiparametric
from .experiments import DESIGNS, SCHEMA_VERSION, ExperimentSpec, run_experiment, run_pipeline
from .model import CoefficientPartition, NoiseSpec, TvArchModel
from .select import BandwidthGrid, cv_bandwidth_semiparametric, cv_bandwidth_tvarch, select_lag_order
from .simulate import SimulationConfig, simulate_path
from .testing import _require_levels, test_constancy, test_second_order, test_zero_wald

__all__ = ["main"]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_out(args, obj) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(_dump(obj))


def _emit(args, obj, human) -> None:
    if args.json:
        sys.stdout.write(_dump(obj))
    else:
        sys.stdout.write(human)
    _write_out(args, obj)


def _parse_list(text: str, convert, flag: str) -> tuple:
    """Comma-separated values, each read by ``convert``; empty items are skipped."""
    try:
        return tuple(convert(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError(f"cannot parse {flag} {text!r}") from exc


def _parse_levels(text: str) -> tuple:
    return _require_levels(_parse_list(text, float, "--alpha"), "--alpha levels")


def _workers(text: str) -> int:
    """argparse type of ``--workers``: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _parse_partition(tokens, p: int) -> CoefficientPartition:
    if not tokens:
        return CoefficientPartition.semiparametric(p)
    blocks = {"varying": (), "constant": ()}
    for tok in tokens:
        if "=" not in tok:
            raise InputError(f"--partition expects key=indices tokens, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in blocks:
            raise InputError(f"--partition keys are 'varying' and 'constant', got {key!r}")
        blocks[key] = _parse_list(val, int, "--partition")
    return CoefficientPartition(p=p, varying=blocks["varying"], constant=blocks["constant"])


def _parse_grid(text: str | None) -> BandwidthGrid | None:
    if text is None:
        return None
    return BandwidthGrid(multipliers=_parse_list(text, float, "--grid"))


def _parse_noise(text: str) -> NoiseSpec:
    if text in ("gaussian", "normal"):
        return NoiseSpec.gaussian()
    if text.startswith("t") and text[1:].isdigit():
        return NoiseSpec.student_t(int(text[1:]))
    raise InputError(f"--noise must be 'gaussian' or 't<df>' (e.g. t9), got {text!r}")


def _load_input(args) -> tuple:
    """The series, and the config block that reproduces how it was read."""
    if not args.input:
        raise InputError("this command needs --input")
    column = args.column
    if column is not None and column.lstrip("-").isdigit():
        column = int(column)
    spec = IngestSpec(path=args.input, column=column, mode=args.mode, scale=args.scale)
    return load_series(spec), {"input": spec.path, "column": spec.column, "mode": spec.mode, "scale": spec.scale}


def _bandwidth_for(args, series, p: int, kind: str) -> float:
    if args.bandwidth is not None:
        if not (0.0 < args.bandwidth <= 1.0):
            raise InputError("--bandwidth must lie in (0, 1]")
        return args.bandwidth
    grid = _parse_grid(args.grid)
    if kind == "sptv":
        return cv_bandwidth_semiparametric(series, p, grid=grid).bandwidth
    return cv_bandwidth_tvarch(series, p, grid=grid).bandwidth


def _add_input_flags(sp) -> None:
    sp.add_argument("--input", help="CSV file with the series")
    sp.add_argument("--column", default=None, help="value column name or index")
    sp.add_argument("--mode", choices=("prices", "returns"), default="returns")
    sp.add_argument("--scale", type=float, default=1.0, help="multiplier applied to the returns")


def _add_common_flags(sp, bandwidth: bool = True) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true", help="machine-readable stdout")
    sp.add_argument("--out", default=None, help="write the JSON report to this path")
    if bandwidth:
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--bandwidth", type=float, default=None)
        group.add_argument("--cv", action="store_true", help="select b by cross-validation (default)")
        sp.add_argument("--grid", default=None, help="comma-separated grid multipliers of T^(-1/3)")


def _add_test_flags(sp) -> None:
    sp.add_argument("--B", type=int, default=2000, help="Monte-Carlo calibration replicates")
    sp.add_argument("--alpha", default="0.05,0.10", help="comma-separated test levels")
    sp.add_argument("--workers", type=_workers, default=1)


def _report_table(report: dict) -> str:
    lines = [
        f"{report['name']}",
        f"  statistic   {report['statistic']:.6g}",
        f"  p-value     {report['p_value']:.4g}",
        f"  bandwidth   {report['bandwidth']:.4g}   B={report['B']}  seed={report['seed']}",
    ]
    for lvl, q in sorted(report["mc_quantiles"].items()):
        lines.append(
            f"  level {lvl:>5}: critical {q:10.4f}  -> {report['decision'][lvl]}"
        )
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    with open(args.model) as fh:
        cfg = json.load(fh)
    model = TvArchModel.from_config(cfg)
    config = SimulationConfig(T=args.T, seed=args.seed, burn_in=args.burn_in)
    series = simulate_path(model, config)
    with open(args.out_csv, "w") as fh:
        fh.write("x\n")
        fh.writelines(f"{float(v)!r}\n" for v in series.values)
    echo = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "model": cfg,
        "T": args.T,
        "seed": args.seed,
        "burn_in": args.burn_in,
        "out": args.out_csv,
    }
    sys.stdout.write(_dump(echo))
    _write_out(args, echo)
    return 0


def _cmd_fit(args) -> int:
    series, config = _load_input(args)
    partition = _parse_partition(args.partition, args.p)
    b = _bandwidth_for(args, series, args.p, "sptv" if partition.n == args.p else "tv")
    fit = fit_semiparametric(
        series,
        partition,
        b,
        b_prime=args.b_prime,
        plugin=args.plugin,
        nu=args.nu,
        mu=args.mu,
    )
    result = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "config": {**config, "p": args.p},
        **fit.to_dict(),
    }
    if args.curves_out:
        header = "u," + ",".join(f"alpha{j}" for j in partition.varying)
        header += "," + ",".join(f"se{j}" for j in partition.varying)
        rows = [header]
        for r in range(fit.u.shape[0]):
            vals = ",".join(repr(float(v)) for v in fit.alpha[r])
            ses = ",".join(repr(float(v)) for v in fit.alpha_se[r])
            rows.append(f"{float(fit.u[r])!r},{vals},{ses}")
        with open(args.curves_out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    beta_txt = "\n".join(
        f"  a{j}: {v:.6g} (s.e. {s:.4g})"
        for j, v, s in zip(partition.constant, fit.beta, fit.beta_se)
    )
    human = (
        f"semiparametric fit (p={args.p}, b={b:.4g}, b'={fit.bandwidth_prime:.4g},"
        f" plugin={fit.plugin})\nconstant coefficients:\n{beta_txt}\n"
    )
    _emit(args, result, human)
    return 0


def _test_command(args, runner, name: str) -> int:
    series, config = _load_input(args)
    levels = _parse_levels(args.alpha)
    report = runner(series, levels)
    result = {
        "schema_version": SCHEMA_VERSION,
        "command": name,
        "config": {**config, "p": args.p},
        **report.to_dict(),
    }
    _emit(args, result, _report_table(result))
    return 0


def _cmd_test_constancy(args) -> int:
    def runner(series, levels):
        partition = _parse_partition(args.partition, args.p)
        b = _bandwidth_for(args, series, args.p, "tv")
        return test_constancy(
            series, partition, b, B=args.B, levels=levels, seed=args.seed, workers=args.workers
        )

    return _test_command(args, runner, "test-constancy")


def _cmd_test_zero(args) -> int:
    def runner(series, levels):
        partition = _parse_partition(args.partition, args.p)
        b = _bandwidth_for(args, series, args.p, "sptv" if partition.n == args.p else "tv")
        return test_zero_wald(
            series, partition, b, B=args.B, levels=levels, seed=args.seed, workers=args.workers
        )

    return _test_command(args, runner, "test-zero")


def _cmd_test_dynamic(args) -> int:
    def runner(series, levels):
        b = _bandwidth_for(args, series, args.p, "sptv")
        return test_second_order(
            series,
            args.p,
            b,
            B=args.B,
            levels=levels,
            seed=args.seed,
            calibration=args.calibration,
            workers=args.workers,
        )

    return _test_command(args, runner, "test-dynamic")


def _cmd_select_bandwidth(args) -> int:
    series, config = _load_input(args)
    grid = _parse_grid(args.grid)
    if args.model_kind == "sptv":
        cv = cv_bandwidth_semiparametric(series, args.p, grid=grid)
    else:
        cv = cv_bandwidth_tvarch(series, args.p, grid=grid)
    result = {
        "schema_version": SCHEMA_VERSION,
        "command": "select-bandwidth",
        "config": {**config, "p": args.p, "model": args.model_kind},
        "bandwidth": cv.bandwidth,
        "curve": [
            {"b": float(b), "score": (None if not np.isfinite(s) else float(s))}
            for b, s in zip(cv.bandwidths, cv.scores)
        ],
    }
    if cv.beta is not None:
        result["beta_inner"] = [float(v) for v in cv.beta]
    if args.curve_out:
        with open(args.curve_out, "w") as fh:
            fh.write("b,score\n")
            for b, s in zip(cv.bandwidths, cv.scores):
                fh.write(f"{float(b)!r},{float(s)!r}\n")
    human = [f"selected bandwidth: {cv.bandwidth:.6g}  ({args.model_kind}, p={args.p})"]
    for b, s in zip(cv.bandwidths, cv.scores):
        human.append(f"  b={b:.4f}  cv={s:.6g}")
    _emit(args, result, "\n".join(human) + "\n")
    return 0


def _cmd_select_order(args) -> int:
    series, config = _load_input(args)
    sel = select_lag_order(series, q_max=args.q, grid=_parse_grid(args.grid))
    result = {
        "schema_version": SCHEMA_VERSION,
        "command": "select-order",
        "config": {**config, "q_max": args.q},
        "p_hat": sel.p_hat,
        "bandwidth": sel.bandwidth,
        "zeta": sel.zeta,
        "criteria": [float(c) for c in sel.criteria],
    }
    human = [f"selected order p = {sel.p_hat}  (b={sel.bandwidth:.4g}, zeta={sel.zeta:.5g})"]
    human += [f"  C({p}) = {c:.6f}" for p, c in enumerate(sel.criteria)]
    _emit(args, result, "\n".join(human) + "\n")
    return 0


def _cmd_pipeline(args) -> int:
    series, config = _load_input(args)
    bundle = run_pipeline(
        series,
        q_max=args.q,
        B=args.B,
        levels=_parse_levels(args.alpha),
        seed=args.seed,
        grid=_parse_grid(args.grid),
        workers=args.workers,
    )
    bundle["config"] = {**config, "q_max": args.q}
    human = [f"pipeline summary (T={series.T})"]
    if "order" in bundle:
        human.append(f"  selected order: p = {bundle['order']['p_hat']}")
    if "constancy" in bundle:
        for name, rep in bundle["constancy"]["tests"].items():
            human.append(f"  constancy {name:>10}: p-value {rep['p_value']:.4g}")
    if "fit" in bundle:
        human.append(f"  fitted model: {bundle['fit']['model']}")
        if "beta" in bundle["fit"]:
            for j, (v, s) in enumerate(zip(bundle["fit"]["beta"], bundle["fit"]["beta_se"])):
                human.append(f"    lag {j + 1}: {v:.6g} (s.e. {s:.4g})")
    if "second_order" in bundle:
        human.append(f"  second-order test p-value: {bundle['second_order']['p_value']:.4g}")
    if "error" in bundle:
        human.append(f"  ERROR in {bundle['error']['stage']}: {bundle['error']['message']}")
    _emit(args, bundle, "\n".join(human) + "\n")
    if "error" not in bundle:
        return 0
    # Every tvarch error class lives in ``errors``; the bundle names it.
    return 2 if issubclass(getattr(errors, bundle["error"]["type"]), InputError) else 3


def _flatten_cells(row: dict) -> dict:
    flat = {}
    for key, val in row.items():
        if isinstance(val, dict) and set(val) == {"value", "mc_se"}:
            flat[key] = val["value"]
            flat[f"{key}_se"] = val["mc_se"]
        else:
            flat[key] = val
    return flat


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        design=args.design,
        T_list=_parse_list(args.T, int, "--T") if args.T else (),
        replications=args.R,
        noise=_parse_noise(args.noise),
        seed=args.seed,
        B=args.B,
        levels=_parse_levels(args.alpha),
        q_max=args.q,
        calibration=args.calibration,
        workers=args.workers,
    )
    result = run_experiment(spec)
    if args.out:
        with open(args.out + ".json", "w") as fh:
            fh.write(_dump(result))
        flat_rows = [_flatten_cells(r) for r in result["rows"]]
        cols = sorted({k for r in flat_rows for k in r})
        def cell(v) -> str:
            return repr(float(v)) if isinstance(v, float) else str(v)

        with open(args.out + ".csv", "w") as fh:
            fh.write(",".join(cols) + "\n")
            for r in flat_rows:
                fh.write(",".join(cell(r[c]) if c in r else "" for c in cols) + "\n")
    human = [f"experiment {spec.design}: R={spec.replications}, noise={result['config']['noise']}"]
    for row in result["rows"]:
        flat = _flatten_cells(row)
        parts = [f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in flat.items()]
        human.append("  " + "  ".join(parts))
    if args.json:
        sys.stdout.write(_dump(result))
    else:
        sys.stdout.write("\n".join(human) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvarch",
        description="Semiparametric estimation and testing for time-varying ARCH models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate a model given as a JSON config")
    sp.add_argument("--model", required=True, help="JSON model config")
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--burn-in", type=int, default=500)
    sp.add_argument("--out-csv", required=True, help="CSV output path (one column x)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit", help="semiparametric fit")
    _add_input_flags(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--partition", nargs="*", default=None, metavar="KEY=IDX,IDX")
    sp.add_argument("--plugin", action="store_true", help="plug-in efficient estimators")
    sp.add_argument("--b-prime", type=float, default=None)
    sp.add_argument("--nu", type=float, default=0.0)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--curves-out", default=None, help="CSV path for the (u, alpha, se) grid")
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_fit)

    for name, func, extra in (
        ("test-constancy", _cmd_test_constancy, True),
        ("test-zero", _cmd_test_zero, True),
        ("test-dynamic", _cmd_test_dynamic, False),
    ):
        sp = sub.add_parser(name, help=f"{name.replace('-', ' ')} with MC calibration")
        _add_input_flags(sp)
        sp.add_argument("--p", type=int, required=True)
        if extra:
            sp.add_argument("--partition", nargs="*", default=None, metavar="KEY=IDX,IDX")
        else:
            sp.add_argument(
                "--calibration", choices=("monte-carlo", "asymptotic"), default="monte-carlo"
            )
        _add_test_flags(sp)
        _add_common_flags(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("select-bandwidth", help="cross-validation bandwidth selection")
    _add_input_flags(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--model-kind", choices=("tv", "sptv"), default="tv")
    sp.add_argument("--grid", default=None)
    sp.add_argument("--curve-out", default=None, help="CSV path for the CV curve")
    _add_common_flags(sp, bandwidth=False)
    sp.set_defaults(func=_cmd_select_bandwidth)

    sp = sub.add_parser("select-order", help="information-criterion lag order selection")
    _add_input_flags(sp)
    sp.add_argument("--q", type=int, default=10, help="maximal candidate order")
    sp.add_argument("--grid", default=None)
    _add_common_flags(sp, bandwidth=False)
    sp.set_defaults(func=_cmd_select_order)

    sp = sub.add_parser("pipeline", help="order selection, tests, fit, and dynamics check")
    _add_input_flags(sp)
    sp.add_argument("--q", type=int, default=10)
    sp.add_argument("--grid", default=None)
    _add_test_flags(sp)
    _add_common_flags(sp, bandwidth=False)
    sp.set_defaults(func=_cmd_pipeline)

    sp = sub.add_parser("experiment", help="reproduce a simulation design at desk scale")
    sp.add_argument("--design", required=True, choices=tuple(DESIGNS))
    sp.add_argument("--T", default=None, help="comma-separated sample sizes")
    sp.add_argument("--R", type=int, default=200, help="replications")
    sp.add_argument("--noise", default="gaussian", help="gaussian or t<df> (e.g. t9)")
    sp.add_argument("--B", type=int, default=500)
    sp.add_argument("--alpha", default="0.05,0.10")
    sp.add_argument("--q", type=int, default=10)
    sp.add_argument("--calibration", choices=("monte-carlo", "asymptotic"), default="monte-carlo")
    sp.add_argument("--workers", type=_workers, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None, help="prefix for .json and .csv outputs")
    sp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except TvArchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
