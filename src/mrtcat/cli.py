"""Command line entry points: estimate, samplesize, simulate.

Thin adapters over the library: parse arguments and files, call the
corresponding functions, serialize results.  Exit codes: 0 success,
2 invalid input or configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .data import NumeratorPolicy, _read_columns, load_csv
from .design import (
    SEARCH_CAP_DEFAULT,
    _CONFIG_STEPS,
    _inputs_from_sweep,
    _size_stack,
    inputs_from_config,
    required_sample_size,
)
from .errors import DataValidationError, NumericalError
from .inference import CiRow, build_contrast, confidence_intervals, parse_contrast_text, wald_test
from .simulate import THREADS_ENV, run_monte_carlo, scenario_from_config
from .wcls import ModelSpec, _check_columns, fit_wcls
from ._kvconfig import parse_kv_file, parse_rows

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

CI_COLUMNS = ("term", "estimate", "se", "ci_lower", "ci_upper", "p_value")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _dump_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv_rows(path: str, header: list[str], rows: list[list]) -> None:
    def emit(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    if path == "-":
        emit(sys.stdout)
    else:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            emit(handle)


def _parse_columns(raw: str) -> tuple[str, ...]:
    """The feature columns a --f-cols/--g-cols value lists.  Every basis
    starts with an intercept, so an 'intercept' entry adds nothing."""
    names = (name.strip() for name in raw.split(","))
    return tuple(name for name in names if name and name != "intercept")


def _read_rows(path: str, what: str) -> np.ndarray:
    """The numeric rows of a CSV file (see parse_rows) as a 2-D array."""
    with open(path, encoding="utf-8") as handle:
        return np.array(parse_rows(handle, f"{what} {path!r}"), dtype=float, ndmin=2)


def _load_contrast(raw: str, k_arms: int) -> np.ndarray:
    if os.path.exists(raw):
        mat = _read_rows(raw, "contrast file")
        if mat.shape[1] != k_arms:
            raise DataValidationError(
                f"contrast file {raw!r} must have {k_arms} columns, got {mat.shape[1]}"
            )
        return mat
    return parse_contrast_text(raw, k_arms)


def _ci_row(term: str, ci: CiRow) -> dict:
    """One row of the estimate output: the term and its interval."""
    return dict(zip(CI_COLUMNS, (term, ci.estimate, ci.se, ci.lower, ci.upper, ci.p_value)))


def _csv_cells(row: dict) -> list[str]:
    """A _ci_row as CSV cells: the term, then repr() of each number."""
    term, *numbers = row.values()
    return [term, *map(repr, numbers)]


def cmd_estimate(args: argparse.Namespace) -> int:
    # checked before the panel is read, so that a bad level or numerator fails fast
    if not 0.0 < args.alpha < 1.0:
        raise DataValidationError(f"--alpha must lie in (0, 1), got {args.alpha!r}")
    if 1.0 - args.alpha == 1.0:
        raise DataValidationError(f"--alpha {args.alpha!r} is too small: 1 - alpha rounds to 1")
    user_supplied = args.numerator == "user_supplied"
    if user_supplied and not args.numerator_table:
        raise DataValidationError("--numerator user_supplied requires --numerator-table")
    if args.numerator_table is not None and not user_supplied:
        raise DataValidationError(
            "--numerator-table is read only with --numerator user_supplied, "
            f"not with --numerator {args.numerator}"
        )
    # the header names the features and K, so that a misspelled column or a
    # bad contrast fails before the rows are parsed
    columns = _read_columns(args.data)
    f_columns, g_columns = _parse_columns(args.f_cols), _parse_columns(args.g_cols)
    _check_columns(columns.features, f_columns, g_columns)
    if args.contrast:
        l_matrix = _load_contrast(args.contrast, len(columns.prob) - 1)
    data = load_csv(args.data)
    if user_supplied:
        table = _read_rows(args.numerator_table, "numerator table")
        policy = NumeratorPolicy(kind="user_supplied", table=table)
    else:
        policy = NumeratorPolicy(kind=args.numerator)
    spec = ModelSpec(
        f_columns=f_columns,
        g_columns=g_columns,
        delta=args.delta,
        numerator=policy,
        correction=args.correction,
    )
    fit = fit_wcls(data, spec)
    level = 1.0 - args.alpha
    cis = confidence_intervals(fit, np.eye(len(fit.beta_hat)), level)

    rows = [_ci_row(name, ci) for name, ci in zip(fit.beta_names, cis)]
    payload: dict = {
        "n": fit.n,
        "t_points": fit.t_points,
        "k_arms": fit.k_arms,
        "p": fit.p,
        "q": fit.q,
        "delta": fit.delta,
        "correction": fit.correction,
        "md_fallbacks": fit.md_fallbacks,
        "confidence_level": level,
        "alpha_terms": [
            {"term": name, "estimate": float(est)}
            for name, est in zip(fit.g_names, fit.alpha_hat)
        ],
        "beta_terms": rows,
        "contrast": None,
    }

    if args.contrast:
        contrast = build_contrast(l_matrix, fit.p)
        test = wald_test(fit, contrast, args.alpha)
        contrast_rows = [
            _ci_row(f"contrast[{i + 1}]", ci)
            for i, ci in enumerate(confidence_intervals(fit, contrast.l_tilde, level))
        ]
        payload["contrast"] = {
            "l_matrix": l_matrix.tolist(),
            "rows": contrast_rows,
            "test": {
                "statistic": test.statistic,
                "scaled_statistic": test.scaled_statistic,
                "df1": test.df1,
                "df2": test.df2,
                "critical_value": test.critical_value,
                "p_value": test.p_value,
                "reject": test.reject,
            },
        }
        rows = rows + contrast_rows

    if args.format == "json":
        _dump_json(args.out, payload)
    else:
        alpha_rows = [
            [name, repr(float(est)), "", "", "", ""]
            for name, est in zip(fit.g_names, fit.alpha_hat)
        ]
        _write_csv_rows(
            args.out, list(CI_COLUMNS), alpha_rows + [_csv_cells(row) for row in rows]
        )
    return EXIT_OK


#: The most points a sweep grid may have: far more than a design study
#: plots, few enough that a mistyped step fails at once instead of
#: building a grid until memory runs out.
_SWEEP_MAX_POINTS = 100_000


def _parse_sweep(raw: str) -> tuple[str, list[float]]:
    """The key and grid of a key=lo:hi:step sweep.  Grid values are
    lo + k * step rounded to 12 decimals, so the bounds must be finite,
    the step must not round to 0 and the grid must have at most
    _SWEEP_MAX_POINTS points."""
    if "=" not in raw:
        raise DataValidationError("--sweep must look like key=lo:hi:step")
    key, spec = raw.split("=", 1)
    parts = spec.split(":")
    if len(parts) != 3:
        raise DataValidationError("--sweep must look like key=lo:hi:step")
    try:
        lo, hi, step = (float(x) for x in parts)
    except ValueError as exc:
        raise DataValidationError(f"bad sweep bounds {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DataValidationError(f"bad sweep bounds {spec!r}: they must be finite")
    if not (round(step, 12) > 0 and hi >= lo):
        raise DataValidationError("sweep requires step > 0 (at 12 decimals) and hi >= lo")
    # the grid has floor(steps) + 1 points, up to the rounding below;
    # steps is inf when hi - lo overflows
    steps = (hi - lo) / step
    if steps >= _SWEEP_MAX_POINTS:
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise DataValidationError(
            f"sweep grid {spec!r} has {count:.6g} points; the limit is {_SWEEP_MAX_POINTS}"
        )
    values = []
    k = 0
    while True:
        value = round(lo + k * step, 12)
        if value > hi + 1e-12:
            break
        values.append(value)
        k += 1
    return key.strip(), values


#: Sweep points built and sized as one stack: a block holds every
#: point's arrays until its search has run.
_SWEEP_BLOCK = 256


def _sweep_key(value: float) -> str:
    """A grid value as its sweep CSV cell: 12 significant digits where
    they read back as the value, else repr(value).  Six digits (the :g
    format) merged neighbouring points such as 0.9500001 and 0.9500002,
    and wrote 1e+06 for a T that the config reader rejects."""
    key = format(value, ".12g")
    return key if float(key) == value else repr(value)


def cmd_samplesize(args: argparse.Namespace) -> int:
    cfg = parse_kv_file(args.config)
    if args.sweep:
        key, values = _parse_sweep(args.sweep)
        design_keys = dict.fromkeys(name for keys, _ in _CONFIG_STEPS for name in keys)
        if key not in design_keys:
            raise DataValidationError(
                f"--sweep key {key!r} is not a design key; the design keys are "
                + ", ".join(design_keys)
            )
        rows = []
        for start in range(0, len(values), _SWEEP_BLOCK):
            block = values[start : start + _SWEEP_BLOCK]
            points = _inputs_from_sweep(cfg, key, [repr(value) for value in block])
            for value, result in zip(block, _size_stack(points, args.cap)):
                if isinstance(result, Exception):
                    raise result
                rows.append([_sweep_key(value), result.n])
        _write_csv_rows(args.out, [key, "n"], rows)
        return EXIT_OK
    result = required_sample_size(inputs_from_config(cfg), cap=args.cap)
    payload = {
        "n": result.n,
        "achieved_power": result.achieved_power,
        "lambda_per_n": result.lambda_per_n,
        "v_matrix": result.v_matrix.tolist(),
    }
    if args.format == "json":
        _dump_json(args.out, payload)
    else:
        _write_csv_rows(
            args.out,
            ["n", "achieved_power", "lambda_per_n"],
            [[result.n, repr(result.achieved_power), repr(result.lambda_per_n)]],
        )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_kv_file(args.scenario)
    scenario = scenario_from_config(cfg)
    replicates = args.replicates if args.replicates is not None else scenario.replicates
    seed = args.seed if args.seed is not None else scenario.seed
    summary = run_monte_carlo(
        scenario.config,
        scenario.n,
        replicates,
        scenario.model_spec,
        build_contrast(scenario.l_matrix, scenario.model_spec.p),
        scenario.eta,
        seed,
        true_beta=scenario.true_beta,
        threads=args.threads,
        collect_replicates=bool(args.per_replicate),
    )
    payload = summary.to_dict()
    payload["n"] = scenario.n

    if args.per_replicate:
        header = ["replicate", "seed", "ok", "reject"]
        header += [f"beta[{name}]" for name in summary.param_names]
        header += [f"se[{name}]" for name in summary.param_names]
        rows = []
        for rec in summary.records or ():
            row: list = [rec["replicate"], rec["seed"], int(rec["ok"])]
            if rec["ok"]:
                row.append(int(rec["reject"]))
                row += [repr(b) for b in rec["beta"]]
                row += [repr(s) for s in rec["se"]]
            else:
                row.append("")
                row += [""] * (2 * len(summary.param_names))
            rows.append(row)
        _write_csv_rows(args.per_replicate, header, rows)

    if args.format == "json":
        _dump_json(args.out, payload)
    else:
        keys = ["n", "replicates", "completed", "failures", "seed", "rejection_rate"]
        header = keys + [f"bias[{p}]" for p in summary.param_names]
        header += [f"coverage[{p}]" for p in summary.param_names]
        row = [payload[k] for k in keys]
        row += ["" if b is None else repr(b) for b in payload["bias"]]
        row += ["" if c is None else repr(c) for c in payload["coverage"]]
        _write_csv_rows(args.out, header, [row])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the three subcommands, built on the first
    call and shared by every later call in the process.

    Building it walks the whole argparse tree and looks up the locale of
    every help string, which costs more than a design sweep's power
    searches; so in-process callers of main (scripts, tests) parse with
    one parser.  parse_args leaves the parser as it was, so one call
    cannot change what the next one parses; a caller must not change the
    returned parser either.  A shell invocation of mrtcat parses once and
    builds the parser once either way.
    """
    parser = argparse.ArgumentParser(
        prog="mrtcat",
        description=(
            "Estimation, testing, sample sizing, and simulation for "
            "micro-randomized trials with categorical treatments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit the weighted-centered model to a CSV panel")
    est.add_argument("--data", required=True, help="input CSV (id,t,avail,trt,prob_*,outcome,...)")
    est.add_argument("--f-cols", required=True, help="moderator columns, or 'intercept'")
    est.add_argument("--g-cols", required=True, help="control columns, or 'intercept'")
    est.add_argument("--delta", type=int, default=1, help="excursion window length")
    est.add_argument(
        "--numerator",
        default="match_randomization",
        choices=["match_randomization", "empirical_per_t", "empirical_pooled", "user_supplied"],
    )
    est.add_argument("--numerator-table", default=None, help="CSV table for user_supplied")
    est.add_argument("--contrast", default=None, help="preset, rows, or CSV path")
    est.add_argument("--alpha", type=float, default=0.05, help="test level / CI complement")
    est.add_argument("--correction", default="mancl_derouen", choices=["none", "mancl_derouen"])
    est.add_argument("--out", default="-")
    est.add_argument("--format", default="json", choices=["json", "csv"])
    est.set_defaults(func=cmd_estimate)

    size = sub.add_parser("samplesize", help="required sample size from a design config")
    size.add_argument("--config", required=True, help="key=value design file")
    size.add_argument("--sweep", default=None, help="key=lo:hi:step grid; emits CSV of (value, n)")
    size.add_argument("--cap", type=int, default=SEARCH_CAP_DEFAULT, help="search cap")
    size.add_argument("--out", default="-")
    size.add_argument("--format", default="json", choices=["json", "csv"])
    size.set_defaults(func=cmd_samplesize)

    sim = sub.add_parser("simulate", help="Monte Carlo run from a scenario config")
    sim.add_argument("--scenario", required=True, help="key=value scenario file")
    sim.add_argument("--replicates", type=int, default=None, help="override scenario replicates")
    sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sim.add_argument(
        "--threads", type=int, default=None, help=f"worker count (default ${THREADS_ENV} or 1)"
    )
    sim.add_argument("--per-replicate", default=None, help="also write per-replicate CSV here")
    sim.add_argument("--out", default="-")
    sim.add_argument("--format", default="json", choices=["json", "csv"])
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
