import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrtcat
from mrtcat.cli import main

from _factories import write_toy_csv


TOY_K1_ROWS = [
    ["a", 1, 1, 1, 0.5, 0.5, 2.0],
    ["b", 1, 1, 0, 0.5, 0.5, 1.0],
    ["c", 1, 1, 1, 0.5, 0.5, 4.0],
    ["d", 1, 1, 0, 0.5, 0.5, 3.0],
]


def write_k1_csv(path):
    write_toy_csv(path, TOY_K1_ROWS, header="id,t,avail,trt,prob_0,prob_1,outcome")


def write_k2_csv(path, n=12, t_points=6, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        for t in range(1, t_points + 1):
            trt = int(rng.integers(0, 3))
            y = 0.5 * (trt == 1) + 0.2 * (trt == 2) + float(rng.normal())
            rows.append([f"s{i}", t, 1, trt, 0.4, 0.3, 0.3, round(y, 6)])
    write_toy_csv(path, rows)


GOLDEN_CFG_TEXT = """\
# two active arms against a reference arm
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

NULL_SCENARIO_TEXT = """\
family = gm0
n = 40
T = 20
p = 0.4, 0.3, 0.3
tau_kind = constant
AA = 0.8
eo_kind = linear
theta_g = 0.3
AEO = 0.4
f_kind = constant
sate1 = 0.1
sate2 = 0.1
fit_f = constant
fit_g = linear
replicates = 1000
seed = 42
"""


class TestEstimate:
    def test_toy_fit_json(self, tmp_path):
        data = tmp_path / "toy.csv"
        out = tmp_path / "fit.json"
        write_k1_csv(data)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--numerator", "empirical_per_t",
                "--correction", "none",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 4
        assert payload["beta_terms"][0]["term"] == "arm1:intercept"
        assert payload["beta_terms"][0]["estimate"] == pytest.approx(1.0, abs=1e-10)
        assert payload["alpha_terms"][0]["estimate"] == pytest.approx(2.5, abs=1e-10)
        assert payload["contrast"] is None

    def test_simulated_trial_round_trip(self, tmp_path):
        config = mrtcat.GenerativeConfig(
            family="gm0", t_points=10, rand_probs=np.array([0.3, 0.3]),
            tau_curve=np.full(10, 0.8), eo_basis="linear", eo_coeffs=(0.2, 0.01),
            mee_basis="constant", mee_coeffs=((0.25,), (0.1,)),
        )
        data = tmp_path / "sim.csv"
        out = tmp_path / "fit.json"
        mrtcat.write_csv(mrtcat.simulate_trial(config, n=30, seed=4), str(data))
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "time",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [t["term"] for t in payload["alpha_terms"]] == ["intercept", "time"]

    def test_intercept_listed_with_other_columns(self, tmp_path):
        config = mrtcat.GenerativeConfig(
            family="gm0", t_points=8, rand_probs=np.array([0.4, 0.3]),
            tau_curve=np.full(8, 0.8),
        )
        data = tmp_path / "sim.csv"
        mrtcat.write_csv(mrtcat.simulate_trial(config, n=25, seed=6), str(data))
        texts = []
        for f_cols in ("intercept,time", "time"):
            out = tmp_path / f"fit_{len(texts)}.json"
            argv = ["estimate", "--data", str(data), "--f-cols", f_cols,
                    "--g-cols", "intercept, time", "--out", str(out)]
            assert main(argv) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        payload = json.loads(texts[0])
        assert [t["term"] for t in payload["beta_terms"]][:2] == ["arm1:intercept", "arm1:time"]

    def test_missing_required_flag_exits_two(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        write_k1_csv(data)
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--data", str(data), "--f-cols", "intercept"])
        assert err.value.code == 2
        assert "--g-cols" in capsys.readouterr().err

    def test_contrast_preset_included(self, tmp_path):
        data = tmp_path / "panel.csv"
        out = tmp_path / "fit.json"
        write_k2_csv(data)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--contrast", "pairwise(1,2)",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        block = payload["contrast"]
        assert block["l_matrix"] == [[1.0, -1.0]]
        assert len(block["rows"]) == 1
        row = block["rows"][0]
        diff = payload["beta_terms"][0]["estimate"] - payload["beta_terms"][1]["estimate"]
        assert row["estimate"] == pytest.approx(diff, rel=1e-12)
        assert set(block["test"]) == {
            "statistic", "scaled_statistic", "df1", "df2",
            "critical_value", "p_value", "reject",
        }

    def test_contrast_from_file(self, tmp_path):
        data = tmp_path / "panel.csv"
        cmat = tmp_path / "contrast.csv"
        out = tmp_path / "fit.json"
        write_k2_csv(data)
        cmat.write_text("1.0,-1.0\n")
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--contrast", str(cmat),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["contrast"]["l_matrix"] == [[1.0, -1.0]]

    def test_csv_format(self, tmp_path):
        data = tmp_path / "toy.csv"
        out = tmp_path / "fit.csv"
        write_k1_csv(data)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--numerator", "empirical_per_t",
                "--correction", "none",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["term", "estimate", "se", "ci_lower", "ci_upper", "p_value"]
        by_term = {r[0]: r for r in rows[1:]}
        assert float(by_term["arm1:intercept"][1]) == pytest.approx(1.0, abs=1e-10)

    def test_csv_cells_are_plain_numbers(self, tmp_path):
        data = tmp_path / "panel.csv"
        out = tmp_path / "fit.csv"
        write_k2_csv(data)
        code = main(
            [
                "estimate", "--data", str(data), "--f-cols", "intercept",
                "--g-cols", "intercept", "--contrast", "pairwise(1,2)",
                "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 1 + 1 + 2 + 1  # header, alpha, two arms, one contrast row
        for row in rows[1:]:
            cells = [cell for cell in row[1:] if cell]
            assert len(cells) in (1, 5)
            for cell in cells:
                float(cell)  # raises on e.g. 'np.float64(-0.66)'

    def test_invalid_data_exits_two(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        rows = [list(r) for r in TOY_K1_ROWS]
        rows[0][2] = 0  # unavailable but treated
        write_toy_csv(data, rows, header="id,t,avail,trt,prob_0,prob_1,outcome")
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "unavailable" in capsys.readouterr().err

    def test_unobserved_arm_exits_two(self, tmp_path, capsys):
        # declared arm 2 never occurs among available decision points
        data = tmp_path / "gap.csv"
        rows = []
        for i, (trt, y) in enumerate([(1, 2.0), (0, 1.0), (1, 4.0), (0, 3.0)] * 2):
            rows.append([f"s{i}", 1, 1, trt, 0.4, 0.3, 0.3, y])
        write_toy_csv(data, rows)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "never observed" in capsys.readouterr().err

    def test_singular_design_exits_three(self, tmp_path, capsys):
        # a control column identical to the intercept makes the normal
        # equations singular
        data = tmp_path / "sing.csv"
        rows = [list(r) + [1.0] for r in TOY_K1_ROWS]
        write_toy_csv(data, rows, header="id,t,avail,trt,prob_0,prob_1,outcome,one")
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "one",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical error")


class TestSamplesize:
    def test_golden_config(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        out = tmp_path / "size.json"
        cfg.write_text(GOLDEN_CFG_TEXT)
        code = main(["samplesize", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert sorted(payload) == ["achieved_power", "lambda_per_n", "n", "v_matrix"]
        assert payload["n"] == 93
        assert payload["achieved_power"] >= 0.8
        assert payload["lambda_per_n"] == pytest.approx(0.0884835, abs=1e-9)
        np.testing.assert_allclose(
            payload["v_matrix"], [[44.1, -18.9], [-18.9, 44.1]], atol=1e-9
        )

    def test_sweep_availability(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        out = tmp_path / "sweep.csv"
        cfg.write_text(GOLDEN_CFG_TEXT)
        code = main(
            ["samplesize", "--config", str(cfg), "--sweep", "AA=0.3:1.0:0.1", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["AA", "n"]
        values = [float(r[0]) for r in rows[1:]]
        ns = [int(r[1]) for r in rows[1:]]
        assert values == pytest.approx([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        assert all(b <= a for a, b in zip(ns, ns[1:]))
        assert ns[-1] == 93

    def test_null_target_contrast_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(GOLDEN_CFG_TEXT.replace("sate1 = 0.053", "sate1 = 0.0"))
        code = main(["samplesize", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "null" in capsys.readouterr().err

    def test_cap_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(GOLDEN_CFG_TEXT.replace("sate1 = 0.053", "sate1 = 0.0001"))
        code = main(
            ["samplesize", "--config", str(cfg), "--cap", "1000", "--out", str(tmp_path / "x.json")]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_bad_sweep_syntax(self, tmp_path, capsys):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(GOLDEN_CFG_TEXT)
        code = main(
            ["samplesize", "--config", str(cfg), "--sweep", "AA:0.3:1.0", "--out", "-"]
        )
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["samplesize", "--config", str(tmp_path / "nope.cfg"), "--out", "-"])
        assert code == 2


class TestSimulate:
    def test_null_scenario_type_one_error(self, tmp_path):
        scn = tmp_path / "scenario.cfg"
        out = tmp_path / "mc.json"
        scn.write_text(NULL_SCENARIO_TEXT)
        code = main(["simulate", "--scenario", str(scn), "--threads", "4", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["replicates"] == 1000
        assert payload["failures"] == 0
        assert 0.03 <= payload["rejection_rate"] <= 0.07

    def test_repeat_runs_byte_identical(self, tmp_path):
        scn = tmp_path / "scenario.cfg"
        scn.write_text(NULL_SCENARIO_TEXT)
        outs = []
        for name, threads in (("a.json", "1"), ("b.json", "1"), ("c.json", "3")):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--scenario", str(scn),
                    "--replicates", "25",
                    "--threads", threads,
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_per_replicate_csv(self, tmp_path):
        scn = tmp_path / "scenario.cfg"
        out = tmp_path / "mc.json"
        per = tmp_path / "reps.csv"
        scn.write_text(NULL_SCENARIO_TEXT)
        code = main(
            [
                "simulate",
                "--scenario", str(scn),
                "--replicates", "8",
                "--per-replicate", str(per),
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(per.read_text().splitlines()))
        assert rows[0][:4] == ["replicate", "seed", "ok", "reject"]
        assert len(rows) == 9
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(8)]

    def test_csv_summary_format(self, tmp_path):
        scn = tmp_path / "scenario.cfg"
        out = tmp_path / "mc.csv"
        scn.write_text(NULL_SCENARIO_TEXT)
        code = main(
            [
                "simulate",
                "--scenario", str(scn),
                "--replicates", "10",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][:6] == ["n", "replicates", "completed", "failures", "seed", "rejection_rate"]
        assert len(rows) == 2
        assert rows[1][0] == "40"

    def test_invalid_scenario_exits_two(self, tmp_path, capsys):
        scn = tmp_path / "scenario.cfg"
        scn.write_text(NULL_SCENARIO_TEXT.replace("family = gm0", "family = gm9"))
        code = main(["simulate", "--scenario", str(scn), "--out", "-"])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_failure_budget_exits_three(self, tmp_path, capsys):
        scn = tmp_path / "scenario.cfg"
        scn.write_text(NULL_SCENARIO_TEXT.replace("n = 40", "n = 3"))
        code = main(
            ["simulate", "--scenario", str(scn), "--replicates", "5", "--out", "-"]
        )
        assert code == 3
        assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, text, named",
    [
        ("contrast", "1,0;1", "contrast '1,0;1': row 2 has 1 entries, expected 2"),
        # the row of a file is its line, comments and blank lines included
        ("contrast_file", "# arm 1 vs arm 2\n\n1,-1\n1,x\n", "row 4: could not convert"),
        ("numerator_table", "0.4,0.3,0.3\n1,x\n", "row 2: could not convert"),
        ("scenario", NULL_SCENARIO_TEXT + "mee_coeffs = 0.1, x; 0.2, 0.3\n",
         "config key 'mee_coeffs': row 1: could not convert"),
        ("scenario", NULL_SCENARIO_TEXT + "mee_coeffs = 0.1; 0.2, 0.3\n",
         "config key 'mee_coeffs': row 2 has 2 entries, expected 1"),
        ("scenario", NULL_SCENARIO_TEXT.replace("n = 40", "n = inf"),
         "config key 'n' must be an integer, got 'inf'"),
        ("scenario", NULL_SCENARIO_TEXT.replace("replicates = 1000", "replicates = nan"),
         "config key 'replicates' must be an integer"),
        ("scenario", NULL_SCENARIO_TEXT.replace("T = 20", "T = 1e400"),
         "config key 'T' must be an integer"),
    ],
    ids=["inline-ragged", "contrast-file-cell", "numerator-table-cell", "mee-cell", "mee-ragged",
         "n-inf", "replicates-nan", "T-overflow"],
)
def test_malformed_rows_and_integers_exit_two(tmp_path, capsys, kind, text, named):
    if kind == "scenario":
        scn = tmp_path / "scenario.cfg"
        scn.write_text(text)
        argv = ["simulate", "--scenario", str(scn), "--out", "-"]
    else:
        data = tmp_path / "panel.csv"
        write_k2_csv(data)
        argv = ["estimate", "--data", str(data), "--f-cols", "intercept",
                "--g-cols", "intercept", "--out", "-"]
        if kind == "contrast":
            argv += ["--contrast", text]
        else:
            path = tmp_path / f"{kind}.csv"
            path.write_text(text)
            if kind == "contrast_file":
                argv += ["--contrast", str(path)]
            else:
                argv += ["--numerator", "user_supplied", "--numerator-table", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def test_cli_import_loads_only_scipy_special():
    # Start-up time and memory of every command grow with each scipy
    # subpackage the import pulls in; only the F kernels are needed.
    src = str(Path(mrtcat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, mrtcat.cli; "
        "print(sorted(m for m in ('scipy.special', 'scipy.linalg', 'scipy.stats') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['scipy.special']"
