"""The benchmark's workloads, their generated inputs and output checks.

Every workload repeats one *unit* of work:

    estimate_panel  one `mrtcat estimate` call on a generated panel;
    mc_power        one single-threaded `run_monte_carlo` batch of BATCH
                    replicates;
    design_sweep    one `samplesize` pass: the golden config plus an
                    8-point AA sweep, 9 sizings.

A unit counts `unit_ops` operations (estimate calls, replicates or
sizings).  Outputs are kept in `self.outputs`; `evaluate(outputs)` turns
them into named pass/fail checks and is a pure function of them, so the
quick mode can feed it deliberately wrong outputs.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import mrtcat
import mrtcat.cli
from mrtcat._kvconfig import parse_kv_text

BATCH = 50
QUICK_BATCH = 20

#: README worked example; its required sample size is 93.
GOLDEN_CONFIG = """\
K = 2
T = 210
p = 0.4, 0.3, 0.3
tau_kind = constant
AA = 1.0
f_kind = constant
sate1 = 0.053
sate2 = 0.0
q = 1
L = pairwise(1,2)
eta = 0.05
power = 0.8
"""
GOLDEN_N = 93
SWEEP = "AA=0.3:1.0:0.1"
SWEEP_POINTS = 8

#: Allowance for the gap between the design (asymptotic) power and the
#: finite-sample rejection rate, added to the binomial half-width.
POWER_MODEL_SLACK = 0.03
BAND_Z = 4.0


class Workload:
    name = ""
    unit_ops = 1

    def __init__(self, workdir: Path, seed: int, quick: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        self.quick = quick
        self.outputs: dict = {"errors": []}

    def prepare(self) -> None:
        """Build inputs and run one warm-up unit; none of it is timed."""

    def run_unit(self, index: int) -> int:
        """Run one unit; return how many of its operations failed."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work the checks need after the measured units."""

    def md_correction_s(self) -> float:
        """Seconds of one unit spent in the Mancl-DeRouen correction."""
        return 0.0

    def evaluate(self, outputs: dict) -> dict[str, bool]:
        raise NotImplementedError

    def wrong_outputs(self) -> dict[str, dict]:
        """One deliberately wrong copy of the outputs per check name."""
        raise NotImplementedError


def _read_if(path: Path, code: int) -> str | None:
    return path.read_text(encoding="utf-8") if code == 0 else None


def _parse_json(text: str | None) -> dict | None:
    if text is None:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# --------------------------------------------------------------------------
# estimate_panel


def write_panel(path: Path, seed: int, n: int, t_points: int) -> tuple[np.ndarray, int]:
    """Write an n x T two-arm panel with feature `mood`; return the reference beta.

    Probabilities vary over t but not across subjects, as the default
    match_randomization numerator requires.  Every float is written with
    17 significant digits so the file reads back to the same values.  The
    reference is an independent weighted least-squares solve by
    `np.linalg.lstsq` of outcome on (1, mood, C_1, C_2), C_k the centered
    arm indicators; its last two coefficients are the arm effects.
    """
    rng = np.random.default_rng(seed)
    active = rng.uniform(0.2, 0.35, size=(t_points, 2))
    probs = np.column_stack([1.0 - active.sum(axis=1), active])
    avail = (rng.random((n, t_points)) < 0.8).astype(np.int64)
    draw = rng.random((n, t_points))
    arm = (draw[:, :, None] >= np.cumsum(probs, axis=1)[None, :, :2]).sum(axis=2)
    trt = np.where(avail == 1, arm, 0)
    mood = rng.standard_normal((n, t_points))
    outcome = (
        0.2 + 0.5 * mood + 0.3 * (trt == 1) + 0.1 * (trt == 2)
        + rng.standard_normal((n, t_points))
    )
    ids = np.repeat(np.arange(1, n + 1), t_points)
    t_col = np.tile(np.arange(1, t_points + 1), n)
    table = np.column_stack(
        [
            ids, t_col, avail.ravel(), trt.ravel(),
            np.tile(probs, (n, 1)), outcome.ravel(), mood.ravel(),
        ]
    )
    np.savetxt(
        path, table, delimiter=",", comments="",
        header="id,t,avail,trt,prob_0,prob_1,prob_2,outcome,mood",
        fmt=["%d"] * 4 + ["%.17g"] * 5,
    )

    centered = (trt[:, :, None] == np.arange(1, 3)).astype(float) - probs[None, :, 1:]
    design = np.column_stack(
        [np.ones(n * t_points), mood.ravel(), centered.reshape(-1, 2)]
    )
    root_w = np.sqrt(avail.ravel().astype(float))
    coef, *_ = np.linalg.lstsq(design * root_w[:, None], outcome.ravel() * root_w, rcond=None)
    return coef[2:], n * t_points


def beta_matches(payload: dict, reference: np.ndarray) -> bool:
    beta = np.array([term["estimate"] for term in payload["beta_terms"]])
    if beta.shape != reference.shape:
        return False
    return bool(np.max(np.abs(beta - reference)) <= 1e-10 * np.max(np.abs(reference)))


def ses_finite_positive(payload: dict) -> bool:
    rows = payload["beta_terms"] + (payload["contrast"] or {}).get("rows", [])
    return bool(rows) and all(
        isinstance(r["se"], float) and math.isfinite(r["se"]) and r["se"] > 0 for r in rows
    )


class EstimatePanel(Workload):
    name = "estimate_panel"

    def prepare(self) -> None:
        self.n, self.t_points = (40, 20) if self.quick else (1000, 210)
        self.csv_path = self.workdir / "panel.csv"
        self.out_path = self.workdir / "fit.json"
        reference, self.rows = write_panel(self.csv_path, self.seed, self.n, self.t_points)
        self.outputs.update(reference=reference.tolist(), codes=[], texts=[])
        self.argv = [
            "estimate", "--data", str(self.csv_path), "--f-cols", "intercept",
            "--g-cols", "mood", "--contrast", "pairwise(1,2)", "--out", str(self.out_path),
        ]
        self.run_unit(-1)

    def run_unit(self, index: int) -> int:
        code = mrtcat.cli.main(self.argv)
        if index >= 0:
            self.outputs["codes"].append(code)
            self.outputs["texts"].append(_read_if(self.out_path, code))
        return int(code != 0)

    def md_correction_s(self) -> float:
        data = mrtcat.load_csv(str(self.csv_path))
        times = {}
        for correction in ("mancl_derouen", "none"):
            spec = mrtcat.ModelSpec(g_columns=("mood",), correction=correction)
            start = time.perf_counter()
            mrtcat.fit_wcls(data, spec)
            times[correction] = time.perf_counter() - start
        return times["mancl_derouen"] - times["none"]

    def evaluate(self, outputs: dict) -> dict[str, bool]:
        payloads = [_parse_json(t) for t in outputs["texts"]]
        parsed = [p for p in payloads if p is not None]
        reference = np.array(outputs["reference"])
        return {
            "estimate.no_failures": not outputs["errors"]
            and bool(outputs["codes"]) and all(c == 0 for c in outputs["codes"]),
            "estimate.json_parses": bool(payloads) and len(parsed) == len(payloads),
            "estimate.beta_matches_lstsq": bool(parsed)
            and all(beta_matches(p, reference) for p in parsed),
            "estimate.se_finite_positive": bool(parsed)
            and all(ses_finite_positive(p) for p in parsed),
        }

    def wrong_outputs(self) -> dict[str, dict]:
        good = self.outputs
        payload = json.loads(good["texts"][0])

        def with_payload(mutate) -> dict:
            bad = copy.deepcopy(payload)
            mutate(bad)
            return {**good, "texts": [json.dumps(bad)]}

        def nudge_beta(p: dict) -> None:
            p["beta_terms"][0]["estimate"] *= 1.0 + 1e-8

        def nan_se(p: dict) -> None:
            p["contrast"]["rows"][0]["se"] = float("nan")

        return {
            "estimate.no_failures": {**good, "codes": [0, 3]},
            "estimate.json_parses": {**good, "texts": [good["texts"][0][:-20]]},
            "estimate.beta_matches_lstsq": with_payload(nudge_beta),
            "estimate.se_finite_positive": with_payload(nan_se),
        }


# --------------------------------------------------------------------------
# mc_power


class MonteCarlo(Workload):
    """Acceptance check 5, setting 4: gm0, T=30, p=(0.3,0.3), tau=0.8,
    gamma=(0.12,0.06), L=I_2, n from required_sample_size.

    Timed batches run on one thread.  The thread-pool path is exercised
    (untimed) by the check that a 2-thread rerun of the first batch gives
    a bitwise identical summary.
    """

    name = "mc_power"

    def __init__(self, workdir: Path, seed: int, quick: bool) -> None:
        super().__init__(workdir, seed, quick)
        self.unit_ops = QUICK_BATCH if quick else BATCH

    def prepare(self) -> None:
        t_points = 30
        probs = np.array([0.3, 0.3])
        gamma = np.array([0.12, 0.06])
        tau = np.full(t_points, 0.8)
        inputs = mrtcat.DesignInputs(
            k_arms=2, t_points=t_points, rand_probs=probs, tau=tau,
            f=np.ones((t_points, 1)), gamma=gamma, q=1, l_matrix=np.eye(2),
        )
        self.n = mrtcat.required_sample_size(inputs).n
        self.config = mrtcat.GenerativeConfig(
            family="gm0", t_points=t_points, rand_probs=probs, tau_curve=tau,
            eo_basis="constant", eo_coeffs=(0.2,),
            mee_basis="constant", mee_coeffs=((gamma[0],), (gamma[1],)),
        )
        self.true_beta = gamma
        self.outputs.update(design_power=mrtcat.power_at_n(inputs, self.n), batches=[])
        self._batch(self.batch_seed(-1), 1, mrtcat.ModelSpec())

    def batch_seed(self, index: int) -> int:
        return (self.seed << 20) + index + 1

    def _batch(self, seed: int, threads: int, spec) -> dict:
        summary = mrtcat.run_monte_carlo(
            self.config, self.n, self.unit_ops, spec, np.eye(2), 0.05, seed,
            true_beta=self.true_beta, threads=threads,
        )
        return summary.to_dict()

    def run_unit(self, index: int) -> int:
        summary = self._batch(self.batch_seed(index), 1, mrtcat.ModelSpec())
        self.outputs["batches"].append(summary)
        return summary["failures"]

    def finish(self) -> None:
        if self.outputs["batches"]:
            self.outputs["rerun"] = self._batch(self.batch_seed(0), 2, mrtcat.ModelSpec())

    def md_correction_s(self) -> float:
        times = {}
        for correction in ("mancl_derouen", "none"):
            start = time.perf_counter()
            self._batch(self.batch_seed(0), 1, mrtcat.ModelSpec(correction=correction))
            times[correction] = time.perf_counter() - start
        return times["mancl_derouen"] - times["none"]

    def evaluate(self, outputs: dict) -> dict[str, bool]:
        batches = outputs["batches"]
        completed = sum(b["completed"] for b in batches)
        rejected = sum(b["rejection_rate"] * b["completed"] for b in batches)
        power = outputs["design_power"]
        in_band = False
        if completed:
            half_width = POWER_MODEL_SLACK + BAND_Z * math.sqrt(power * (1 - power) / completed)
            in_band = abs(rejected / completed - power) <= half_width
        return {
            "mc.no_failures": not outputs["errors"]
            and bool(batches) and all(b["failures"] == 0 for b in batches),
            "mc.threads_bitwise_equal": bool(batches)
            and json.dumps(outputs.get("rerun")) == json.dumps(batches[0]),
            "mc.rejection_in_binomial_band": in_band,
        }

    def wrong_outputs(self) -> dict[str, dict]:
        good = self.outputs
        failed = {**good["batches"][0], "failures": 1}
        shifted = copy.deepcopy(good["rerun"])
        shifted["bias"][0] = math.nextafter(shifted["bias"][0], math.inf)
        weak = [{**b, "rejection_rate": 0.2} for b in good["batches"]]
        return {
            "mc.no_failures": {**good, "batches": [failed] + good["batches"][1:]},
            "mc.threads_bitwise_equal": {**good, "rerun": shifted},
            "mc.rejection_in_binomial_band": {**good, "batches": weak},
        }


# --------------------------------------------------------------------------
# design_sweep


def sweep_nonincreasing(text: str | None) -> bool:
    if text is None:
        return False
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["AA", "n"]] or len(rows) != SWEEP_POINTS + 1:
        return False
    sizes = [int(n) for _, n in rows[1:]]
    return all(a >= b for a, b in zip(sizes, sizes[1:]))


class DesignSweep(Workload):
    """The README golden config, then the same config swept over AA.

    Deterministic: the seed is recorded but unused.
    """

    name = "design_sweep"
    unit_ops = 1 + SWEEP_POINTS

    def prepare(self) -> None:
        self.config_path = self.workdir / "design.cfg"
        self.config_path.write_text(GOLDEN_CONFIG, encoding="utf-8")
        self.json_path = self.workdir / "size.json"
        self.csv_path = self.workdir / "sweep.csv"
        self.outputs.update(codes=[], sizes=[], sweeps=[])
        self.run_unit(-1)

    def run_unit(self, index: int) -> int:
        config = ["samplesize", "--config", str(self.config_path)]
        code = mrtcat.cli.main(config + ["--out", str(self.json_path)])
        sweep_code = mrtcat.cli.main(config + ["--sweep", SWEEP, "--out", str(self.csv_path)])
        if index >= 0:
            self.outputs["codes"] += [code, sweep_code]
            self.outputs["sizes"].append(_read_if(self.json_path, code))
            self.outputs["sweeps"].append(_read_if(self.csv_path, sweep_code))
        return int(code != 0) + SWEEP_POINTS * int(sweep_code != 0)

    def finish(self) -> None:
        inputs = mrtcat.inputs_from_config(parse_kv_text(GOLDEN_CONFIG))
        self.outputs["power"] = {
            str(n): mrtcat.power_at_n(inputs, n) for n in (GOLDEN_N - 1, GOLDEN_N)
        }

    def evaluate(self, outputs: dict) -> dict[str, bool]:
        sizes = [_parse_json(t) for t in outputs["sizes"]]
        power = outputs["power"]
        return {
            "design.no_failures": not outputs["errors"]
            and bool(outputs["codes"]) and all(c == 0 for c in outputs["codes"]),
            "design.golden_n_93": bool(sizes)
            and all(s is not None and s.get("n") == GOLDEN_N for s in sizes),
            "design.power_boundary": power[str(GOLDEN_N)] >= 0.8 > power[str(GOLDEN_N - 1)],
            "design.n_nonincreasing_in_AA": bool(outputs["sweeps"])
            and all(sweep_nonincreasing(t) for t in outputs["sweeps"]),
        }

    def wrong_outputs(self) -> dict[str, dict]:
        good = self.outputs
        off_by_one = json.dumps({**json.loads(good["sizes"][0]), "n": GOLDEN_N + 1})
        rows = good["sweeps"][0].splitlines()
        rows[1], rows[-1] = rows[1].split(",")[0] + ",1", rows[-1].split(",")[0] + ",5000"
        return {
            "design.no_failures": {**good, "errors": ["ValueError: injected"]},
            "design.golden_n_93": {**good, "sizes": [off_by_one]},
            "design.power_boundary": {
                **good, "power": {str(GOLDEN_N - 1): 0.8, str(GOLDEN_N): 0.81}
            },
            "design.n_nonincreasing_in_AA": {**good, "sweeps": ["\n".join(rows) + "\n"]},
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (EstimatePanel, MonteCarlo, DesignSweep)
}
