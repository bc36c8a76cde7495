"""mrtcat benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick

Run from the root of a source checkout; mrtcat is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the machine metadata, raw timings and the outcome of every output check.
`--out PATH` also writes both, with the raw samples, to PATH.  A traced
run writes its spans to `.bench_out/spans_<workload>_seed<N>.json`.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it alternates untraced and traced units for `--seconds`
and reports the per-layer metrics.  `--quick` runs every workload at a
tiny size, checks that its outputs pass, then feeds one deliberately
wrong output through each check and exits non-zero unless every check
rejects it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: timings then do not depend on how BLAS splits small
# matrix products across cores.  Must precede numpy's import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread settings)

SETUP_REPEATS = 5

# Machine speed on a shared VM drifts by +-20% over tens of seconds,
# which is wider than any useful regression bound.  Each timed unit is
# therefore bracketed by CALIBRATION_REPEATS runs of a fixed calibration
# kernel (interpreter arithmetic plus small LAPACK solves, like mrtcat's
# own mix) on each side, and rescaled to the speed at which that kernel
# takes CALIBRATION_NOMINAL_S.  Raw wall times go to the metadata line.
CALIBRATION_NOMINAL_S = 0.025
CALIBRATION_REPEATS = 3
#: Reference duration of `import numpy` in a fresh interpreter, used the
#: same way for setup_s.
NUMPY_IMPORT_NOMINAL_S = 0.22
_CAL_MATRIX = np.eye(48) * 48.0 + np.random.default_rng(0).standard_normal((48, 48))
_CAL_MATRIX = _CAL_MATRIX @ _CAL_MATRIX.T
_CAL_RHS = np.ones(48)


def calibrate() -> list[float]:
    """Wall seconds of CALIBRATION_REPEATS runs of fixed interpreter and LAPACK work."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0.0
        for i in range(60000):
            total += (i * 0.5) % 7.0
        for _ in range(300):
            np.linalg.solve(_CAL_MATRIX, _CAL_RHS)
        samples.append(time.perf_counter() - start)
    return samples


def rescale(walls: list[float], calibrations: list[list[float]]) -> list[float]:
    """Scale sample i by the median of the calibrations just before and after it."""
    return [
        wall * CALIBRATION_NOMINAL_S / statistics.median(before + after)
        for wall, before, after in zip(walls, calibrations, calibrations[1:])
    ]


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of `import mrtcat.cli` and, alternately, `import numpy`.

    Each runs in a fresh interpreter.  The numpy import is the machine-speed
    control for this kind of work (interpreter start, unmarshalling,
    loading shared libraries), which the calibration kernel does not track.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    program = [sys.executable, "-c", "import mrtcat.cli"]
    control = [sys.executable, "-c", "import numpy"]
    subprocess.run(program, env=env, cwd=ROOT, check=True)  # compile bytecode once
    walls, controls = [], []
    for _ in range(SETUP_REPEATS):
        for command, samples in ((control, controls), (program, walls)):
            start = time.perf_counter()
            subprocess.run(command, env=env, cwd=ROOT, check=True)
            samples.append(time.perf_counter() - start)
    return walls, controls


def metadata(args: argparse.Namespace) -> dict:
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        },
    }


def timed_unit(workload, index: int) -> tuple[float, int]:
    """Run one unit; return its wall seconds and how many operations failed.

    An exception ends only its own unit: its operations count as failed.
    """
    start = time.perf_counter()
    try:
        failed = workload.run_unit(index)
    except Exception:  # a crash inside mrtcat is a failed operation, not a benchmark error
        workload.outputs["errors"].append(traceback.format_exc())
        traceback.print_exc(file=sys.stderr)
        failed = workload.unit_ops
    return time.perf_counter() - start, failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float) -> tuple[dict, dict, int, int]:
    setup_walls, setup_controls = measure_setup()
    workload.prepare()
    walls = []
    calibrations = [calibrate()]
    failed = 0
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < seconds:
        wall, bad = timed_unit(workload, len(walls))
        walls.append(wall / workload.unit_ops)
        calibrations.append(calibrate())
        failed += bad
    attempted = len(walls) * workload.unit_ops
    workload.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(
            NUMPY_IMPORT_NOMINAL_S
            * statistics.median(w / c for w, c in zip(setup_walls, setup_controls)),
            "s",
        ),
        "op_s": metric(statistics.median(rescale(walls, calibrations)), "s"),
        "peak_rss_MB": metric(peak_rss_mb, "MB"),
    }
    samples = {
        "raw_setup_s": statistics.median(setup_walls),
        "raw_op_s": statistics.median(walls),
        "calibration_s": statistics.median(c for group in calibrations for c in group),
        "numpy_import_s": statistics.median(setup_controls),
        "setup_walls_s": setup_walls,
        "numpy_import_walls_s": setup_controls,
        "op_walls_s": walls,
        "op_calibrations_s": calibrations,
    }
    return metrics, samples, attempted, failed


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, dict, int, int]:
    from spans import Span, Tracer, installed, summarize

    workload.prepare()
    untraced: list[float] = []
    traced: list[float] = []
    unit_stats = []
    all_spans = []
    failed = index = 0
    began = time.perf_counter()
    # Alternate untraced and traced units so drift in machine speed
    # affects both sides of trace.overhead_ratio alike.
    while index < 2 or time.perf_counter() - began < seconds:
        if index % 2:
            tracer = Tracer()
            with installed(tracer):
                wall, bad = timed_unit(workload, index)
            traced.append(wall)
            unit_stats.append(summarize(tracer.spans))
            all_spans.append([list(s) for s in tracer.spans])
        else:
            wall, bad = timed_unit(workload, index)
            untraced.append(wall)
        failed += bad
        index += 1
    attempted = index * workload.unit_ops
    md_correction_s = workload.md_correction_s()
    workload.finish()

    def med(field: str, name: str) -> float:
        return statistics.median(getattr(s, field).get(name, 0) for s in unit_stats)

    metrics: dict = {}
    fields = (("inclusive_s", "s", "s"), ("self_s", "self_s", "s"), ("calls", "calls", "count"))
    for field, suffix, unit in fields:
        for name in LAYER_FIELDS[field]:
            metrics[f"{name}.{suffix}"] = metric(med(field, name), unit)

    load_s = metrics["data.load_csv.s"]["value"]
    rows = getattr(workload, "rows", 0) * metrics["data.load_csv.calls"]["value"]
    csv_bytes = workload.csv_path.stat().st_size if rows else 0
    metrics["data.load_csv.MB_per_s"] = metric(
        csv_bytes / 1e6 / load_s if load_s else 0.0, "MB/s"
    )
    metrics["data.rows"] = metric(rows, "count")

    fit_ms = sorted(1e3 * d for s in unit_stats for d in s.durations.get("wcls.fit_wcls", []))
    for label, q in (("p50", 0.50), ("p95", 0.95)):
        value = fit_ms[min(len(fit_ms) - 1, int(q * len(fit_ms)))] if fit_ms else 0.0
        metrics[f"wcls.fit_wcls.ms.{label}"] = metric(value, "ms")
    metrics["wcls.md_correction_s"] = metric(md_correction_s, "s")

    replicates = workload.unit_ops if workload.name == "mc_power" else 0
    quantiles = metrics["numerics.f_quantile.calls"]["value"]
    metrics["numerics.f_quantile.calls_per_replicate"] = metric(
        quantiles / replicates if replicates else 0.0, "count"
    )
    sizings = metrics["design.required_sample_size.calls"]["value"]
    power_evals = statistics.median(s.power_evals for s in unit_stats)
    metrics["design.power_evals_per_sizing"] = metric(
        power_evals / sizings if sizings else 0.0, "count"
    )
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )

    OUT_DIR.mkdir(exist_ok=True)
    spans_path.write_text(
        json.dumps({"fields": list(Span._fields), "units": all_spans}),
        encoding="utf-8",
    )
    samples = {"untraced_unit_s": untraced, "traced_unit_s": traced}
    return metrics, samples, attempted, failed


#: Per-layer metrics read straight off the spans: inclusive seconds,
#: self seconds and call counts per traced unit (median over units).
LAYER_FIELDS = {
    "inclusive_s": (
        "kvconfig.parse_kv_file", "data.load_csv", "data.validate",
        "data.fit_numerator_probs", "wcls.fit_wcls", "numerics.solve_spd",
        "numerics.f_quantile", "numerics.f_cdf", "numerics.noncentral_f_cdf",
        "inference.wald_test", "design.build_v", "simulate.simulate_trial",
    ),
    "self_s": (
        "cli.main", "wcls.fit_wcls", "inference.confidence_intervals",
        "design.required_sample_size", "simulate.run_monte_carlo",
    ),
    "calls": (
        "data.load_csv", "data.validate", "data.fit_numerator_probs", "wcls.fit_wcls",
        "numerics.solve_spd", "numerics.f_quantile", "numerics.f_cdf",
        "numerics.noncentral_f_cdf", "design.required_sample_size",
        "simulate.simulate_trial",
    ),
}


def quick() -> int:
    """Tiny run of every workload, then one wrong output through each check."""
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    problems = []
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workload = workloads.WORKLOADS[name](Path(tmp), seed=1, quick=True)
            workload.prepare()
            _, failed = timed_unit(workload, 0)
            workload.finish()
            for check, ok in workload.evaluate(workload.outputs).items():
                print(f"{name}: {check} on real output: {'pass' if ok else 'FAIL'}")
                if not ok:
                    problems.append(f"{name}: {check} failed on real output")
            for check, wrong in workload.wrong_outputs().items():
                rejected = not workload.evaluate(wrong)[check]
                print(f"{name}: {check} on wrong output: {'rejected' if rejected else 'ACCEPTED'}")
                if not rejected:
                    problems.append(f"{name}: {check} accepted a wrong output")
            if failed:
                problems.append(f"{name}: {failed} operations failed")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write metadata, result and samples here")
    parser.add_argument("--quick", action="store_true", help="self-test every check")
    args = parser.parse_args()

    if not (SRC / "mrtcat" / "__init__.py").is_file():
        fail(f"no mrtcat sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    if args.quick:
        return quick()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not 0 <= args.seed < 2**40:
        fail("--seed must lie in [0, 2**40)")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, quick=False)
        if args.trace:
            spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
            metrics, samples, attempted, failed = per_layer(workload, args.seconds, spans_path)
        else:
            metrics, samples, attempted, failed = end_to_end(workload, args.seconds)
        checks = workload.evaluate(workload.outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        metrics["checks_passed"] = metric(sum(checks.values()), "count")
    result = {
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    meta = metadata(args)
    meta["checks"] = checks
    meta.update((k, v) for k, v in samples.items() if not isinstance(v, list))
    if args.out:
        record = {"metadata": meta, "result": result, "samples": samples}
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
