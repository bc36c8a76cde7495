import argparse
import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mrtcat
from mrtcat.cli import build_parser, main

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

    @pytest.mark.parametrize("alpha", ["2", "0", "nan", "1e-17"])
    def test_invalid_alpha_exits_two_before_reading_the_panel(
        self, tmp_path, capsys, monkeypatch, alpha
    ):
        loads = []

        def counted(*args, **kwargs):
            loads.append(args)
            return mrtcat.data.load_csv(*args, **kwargs)

        monkeypatch.setattr(mrtcat.cli, "load_csv", counted)
        data = tmp_path / "toy.csv"
        write_k1_csv(data)
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--alpha", alpha,
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --alpha ")
        assert loads == []
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "numerator", [None, "match_randomization", "empirical_per_t", "empirical_pooled"]
    )
    @pytest.mark.parametrize("table", ["missing.csv", "table.csv"])
    def test_numerator_table_without_user_supplied_exits_two_before_reading_the_panel(
        self, tmp_path, capsys, monkeypatch, numerator, table
    ):
        loads = []

        def counted(*args, **kwargs):
            loads.append(args)
            return mrtcat.data.load_csv(*args, **kwargs)

        monkeypatch.setattr(mrtcat.cli, "load_csv", counted)
        data = tmp_path / "toy.csv"
        write_k1_csv(data)
        (tmp_path / "table.csv").write_text("0.5,0.5\n0.5,0.5\n")
        argv = [
            "estimate",
            "--data", str(data),
            "--f-cols", "intercept",
            "--g-cols", "intercept",
            "--numerator-table", str(tmp_path / table),
            "--out", str(tmp_path / "x.json"),
        ]
        if numerator is not None:
            argv += ["--numerator", numerator]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --numerator-table ")
        assert "--numerator user_supplied" in err
        assert loads == []
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (
                ["--g-cols", "moood"],
                "control column 'moood' not in dataset features ['mood']",
            ),
            (
                ["--f-cols", "mood, intercept,stress"],
                "moderator column 'stress' not in dataset features ['mood']",
            ),
            (["--contrast", "1,0;1"], "contrast '1,0;1': row 2 has 1 entries, expected 2"),
            (
                ["--contrast", "{dir}/contrast.csv"],
                "contrast file '{dir}/contrast.csv' must have 2 columns, got 3",
            ),
        ],
        ids=["control", "moderator", "contrast_text", "contrast_file"],
    )
    def test_names_and_contrast_exit_two_before_the_rows_are_parsed(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # The rows hold a bad cell too: the header decides first.
        reads = []
        loadtxt = mrtcat.data._loadtxt

        def counted(*args, **kwargs):
            reads.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(mrtcat.data, "_loadtxt", counted)
        data = tmp_path / "toy.csv"
        write_k2_csv(data)
        text = data.read_text().splitlines()
        header = text[0] + ",mood"
        rows = [line + ",0.5" for line in text[1:]]
        rows[3] = rows[3][: -len("0.5")] + "oops"
        data.write_text("\n".join([header, *rows]) + "\n")
        (tmp_path / "contrast.csv").write_text("1,0,0\n")
        argv = ["estimate", "--data", str(data), "--f-cols", "intercept", "--g-cols", "mood"]
        argv += ["--out", str(tmp_path / "x.json")]
        argv += [flag.replace("{dir}", str(tmp_path)) for flag in flags]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.replace('{dir}', str(tmp_path))}\n"
        assert reads == []
        assert not (tmp_path / "x.json").exists()

    def test_user_supplied_without_table_exits_two_before_reading_the_panel(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(mrtcat.cli, "load_csv", None)  # a call would raise TypeError
        code = main(
            [
                "estimate",
                "--data", str(tmp_path / "missing.csv"),
                "--f-cols", "intercept",
                "--g-cols", "intercept",
                "--numerator", "user_supplied",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --numerator user_supplied requires --numerator-table\n"
        )


#: Every option of estimate, with invalid values: (option, value, the
#: error line, whether its check needs the rows, other flags).  "{dir}"
#: stands for the directory of the inputs that invalid_inputs writes.
USER = ["--numerator", "user_supplied"]
INVALID_ESTIMATE = [
    ("--data", "", "error: [Errno 2] No such file or directory: ''", False, []),
    ("--data", "{dir}/missing.csv",
     "error: [Errno 2] No such file or directory: '{dir}/missing.csv'", False, []),
    ("--data", "{dir}",
     "error: {dir}: not a regular file; the input must be written to a file first", False, []),
    ("--data", "{dir}/text.csv", "error: {dir}/text.csv: missing required column 'id'", False, []),
    ("--data", "{dir}/latin1_header.csv",
     "error: {dir}/latin1_header.csv: not UTF-8 text (invalid continuation byte)", False, []),
    ("--data", "{dir}/latin1_row.csv",
     "error: {dir}/latin1_row.csv: not UTF-8 text (invalid continuation byte)", True, []),
    ("--data", "{dir}/bad_cell.csv",
     "error: {dir}/bad_cell.csv: line 299: non-numeric value 'oops' in column 'outcome'", True, []),
    ("--f-cols", "zzz",
     "error: moderator column 'zzz' not in dataset features ['time', 'time2']", False, []),
    ("--f-cols", "nan",
     "error: moderator column 'nan' not in dataset features ['time', 'time2']", False, []),
    ("--f-cols", "-1",
     "error: moderator column '-1' not in dataset features ['time', 'time2']", False, []),
    ("--f-cols", "time, 0",
     "error: moderator column '0' not in dataset features ['time', 'time2']", False, []),
    ("--g-cols", "zzz",
     "error: control column 'zzz' not in dataset features ['time', 'time2']", False, []),
    ("--g-cols", "inf",
     "error: control column 'inf' not in dataset features ['time', 'time2']", False, []),
    ("--delta", "x", "mrtcat estimate: error: argument --delta: invalid int value: 'x'", False, []),
    ("--delta", "nan", "mrtcat estimate: error: argument --delta: invalid int value: 'nan'", False,
     []),
    ("--delta", "inf", "mrtcat estimate: error: argument --delta: invalid int value: 'inf'", False,
     []),
    ("--delta", "1.5", "mrtcat estimate: error: argument --delta: invalid int value: '1.5'", False,
     []),
    ("--delta", "", "mrtcat estimate: error: argument --delta: invalid int value: ''", False, []),
    ("--delta", "-1", "error: delta must be >= 1", False, []),
    ("--delta", "0", "error: delta must be >= 1", False, []),
    ("--delta", str(10**20),
     f"error: delta={10**20} leaves no usable decision points in a panel with T=10", True, []),
    ("--numerator", "x", "mrtcat estimate: error: argument --numerator: invalid choice: 'x' "
     "(choose from 'match_randomization', 'empirical_per_t', 'empirical_pooled', "
     "'user_supplied')", False, []),
    ("--numerator", "", "mrtcat estimate: error: argument --numerator: invalid choice: '' "
     "(choose from 'match_randomization', 'empirical_per_t', 'empirical_pooled', "
     "'user_supplied')", False, []),
    ("--numerator-table", "", "error: --numerator user_supplied requires --numerator-table",
     False, USER),
    ("--numerator-table", "{dir}/table.csv",
     "error: --numerator-table is read only with --numerator user_supplied, "
     "not with --numerator match_randomization", False, []),
    ("--numerator-table", "{dir}/missing.csv",
     "error: numerator table '{dir}/missing.csv': No such file or directory", False, USER),
    ("--numerator-table", "{dir}", "error: numerator table '{dir}': Is a directory", False, USER),
    ("--numerator-table", "{dir}/latin1_header.csv",
     "error: numerator table '{dir}/latin1_header.csv': not UTF-8 text (invalid continuation "
     "byte)", False, USER),
    ("--numerator-table", "{dir}/text.csv",
     "error: numerator table '{dir}/text.csv': row 1: could not convert string to float: "
     "'hello\\n'",
     False, USER),
    *[
        ("--numerator-table", f"{{dir}}/{name}_table.csv",
         "error: numerator table entries must be finite and positive", False, USER)
        for name in ("nan", "inf", "negative", "zero")
    ],
    ("--numerator-table", "{dir}/short_table.csv",
     "error: numerator table shape (1, 3) does not match (T, K+1) = (10, 3)", True, USER),
    ("--contrast", "x", "error: contrast 'x': row 1: could not convert string to float: 'x'",
     False, []),
    ("--contrast", "nan", "error: contrast rows must have 2 entries, got shape (1, 1)", False, []),
    ("--contrast", "1,nan", "error: contrast matrix must be finite", False, []),
    ("--contrast", "1,inf", "error: contrast matrix must be finite", False, []),
    ("--contrast", "-inf,1", "mrtcat estimate: error: argument --contrast: expected one argument",
     False, []),
    ("--contrast", "0,0", "error: contrast matrix is zero", False, []),
    ("--contrast", "1,0;1", "error: contrast '1,0;1': row 2 has 1 entries, expected 2", False, []),
    ("--contrast", "{dir}/table.csv",
     "error: contrast file '{dir}/table.csv' must have 2 columns, got 3", False, []),
    ("--contrast", "{dir}", "error: contrast file '{dir}': Is a directory", False, []),
    ("--contrast", "1e308,1e308",
     "error: --contrast '1e308,1e308' is too large: L cov(beta) L' overflows", True, []),
    ("--alpha", "x", "mrtcat estimate: error: argument --alpha: invalid float value: 'x'", False,
     []),
    ("--alpha", "", "mrtcat estimate: error: argument --alpha: invalid float value: ''", False, []),
    ("--alpha", "-inf", "mrtcat estimate: error: argument --alpha: expected one argument", False,
     []),
    *[
        ("--alpha", value, f"error: --alpha must lie in (0, 1), got {shown}", False, [])
        for value, shown in [("nan", "nan"), ("inf", "inf"), ("-0.1", "-0.1"), ("0", "0.0"),
                             ("1", "1.0"), ("2", "2.0"), ("1e308", "1e+308")]
    ],
    ("--alpha", "1e-17", "error: --alpha 1e-17 is too small: 1 - alpha rounds to 1", False, []),
    ("--correction", "x", "mrtcat estimate: error: argument --correction: invalid choice: 'x' "
     "(choose from 'none', 'mancl_derouen')", False, []),
    ("--correction", "", "mrtcat estimate: error: argument --correction: invalid choice: '' "
     "(choose from 'none', 'mancl_derouen')", False, []),
    ("--out", "", "error: --out '' is not a file path in an existing directory", False, []),
    ("--out", "{dir}", "error: --out '{dir}' is not a file path in an existing directory", False,
     []),
    ("--out", "{dir}/missing/fit.json",
     "error: --out '{dir}/missing/fit.json' is not a file path in an existing directory", False,
     []),
    ("--format", "x", "mrtcat estimate: error: argument --format: invalid choice: 'x' "
     "(choose from 'json', 'csv')", False, []),
    ("--format", "", "mrtcat estimate: error: argument --format: invalid choice: '' "
     "(choose from 'json', 'csv')", False, []),
]


@pytest.fixture(scope="module")
def invalid_inputs(tmp_path_factory):
    """The directory of a valid 30 x 10 panel, with features time and
    time2, and of the invalid files INVALID_ESTIMATE names."""
    directory = tmp_path_factory.mktemp("invalid")
    config = mrtcat.GenerativeConfig(
        family="gm0", t_points=10, rand_probs=np.array([0.3, 0.3]), tau_curve=np.full(10, 0.8)
    )
    mrtcat.write_csv(mrtcat.simulate_trial(config, n=30, seed=4), str(directory / "panel.csv"))
    lines = (directory / "panel.csv").read_bytes().splitlines(keepends=True)
    (directory / "text.csv").write_text("hello\n")
    (directory / "latin1_header.csv").write_bytes(lines[0].replace(b"time2", b"t\xe9") + b"".join(lines[1:]))
    (directory / "latin1_row.csv").write_bytes(b"".join(lines[:-1]) + b"\xe9" + lines[-1])
    cells = lines[298].split(b",")
    cells[7] = b"oops"
    (directory / "bad_cell.csv").write_bytes(b"".join(lines[:298]) + b",".join(cells) + b"".join(lines[299:]))
    (directory / "table.csv").write_text("0.4,0.3,0.3\n" * 10)
    for name, cell in [("nan", "nan"), ("inf", "inf"), ("negative", "-0.3"), ("zero", "0")]:
        (directory / f"{name}_table.csv").write_text(f"0.4,{cell},0.3\n" * 10)
    (directory / "short_table.csv").write_text("0.4,0.3,0.3\n")
    return directory


def estimate_options() -> set[str]:
    """The options of estimate in build_parser(), apart from --help."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.option_strings[-1]
        for action in commands.choices["estimate"]._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def test_every_estimate_option_has_invalid_values():
    assert {case[0] for case in INVALID_ESTIMATE} == estimate_options()


@pytest.mark.parametrize(
    "option,value,message,needs_rows,flags",
    INVALID_ESTIMATE,
    ids=[f"{case[0]}={case[1]}" for case in INVALID_ESTIMATE],
)
def test_invalid_estimate_input_exits_two_naming_it(
    invalid_inputs, capsys, monkeypatch, option, value, message, needs_rows, flags
):
    # np.loadtxt reads the rows only for a check that needs them; the
    # header is read with csv, without it.
    reads = []
    loadtxt = mrtcat.data._loadtxt

    def counted(*args, **kwargs):
        reads.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(mrtcat.data, "_loadtxt", counted)
    directory = str(invalid_inputs)
    out = invalid_inputs / "fit.json"
    argv = {"--data": f"{directory}/panel.csv", "--f-cols": "intercept", "--g-cols": "time",
            "--out": str(out)}
    argv[option] = value.replace("{dir}", directory)
    args = ["estimate", *flags, *(cell for pair in argv.items() for cell in pair)]
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert lines[-1] == message.replace("{dir}", directory)
    # one line, after argparse's usage lines for an error argparse finds
    assert len(lines) == 1 or (lines[0].startswith("usage: mrtcat estimate ")
                               and lines[-1].startswith("mrtcat estimate: error: "))
    assert bool(reads) == needs_rows
    assert not out.exists()


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

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "sate1=1e153:2e153:1e153"]])
    def test_infinite_noncentrality_exits_three(self, tmp_path, capsys, monkeypatch, sweep):
        # (n - q - l) * lambda_rate overflows to inf at the search start:
        # the point fails before any power is computed, naming that n.
        calls = []
        monkeypatch.setattr(mrtcat.design, "ncfdtr", lambda *args: calls.append(args))
        cfg = tmp_path / "design.cfg"
        cfg.write_text(GOLDEN_CFG_TEXT.replace("sate1 = 0.053", "sate1 = 1e153"))
        assert main(["samplesize", "--config", str(cfg), *sweep, "--out", "-"]) == 3
        assert capsys.readouterr().err == (
            "numerical error: effect too large to size: the noncentrality at the search "
            "start n=10 is not finite\n"
        )
        assert calls == []

    @pytest.mark.parametrize("power, cap", [("0", "3"), ("0.1", "9"), ("0.8", "0"), ("0.8", "-5")])
    def test_cap_below_search_start_exits_two(self, tmp_path, capsys, power, cap):
        # these once exited 0 with n = 10 past the cap, or 3 quoting a power
        # at the cap that was never computed
        cfg = tmp_path / "design.cfg"
        out = tmp_path / "x.json"
        cfg.write_text(GOLDEN_CFG_TEXT.replace("power = 0.8", f"power = {power}"))
        code = main(["samplesize", "--config", str(cfg), f"--cap={cap}", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: search cap {cap} is below the search start 10 = max(10, q + l + 2) "
            "(q=1, l=1)\n"
        )

    def test_cap_message_names_the_evaluated_n(self, tmp_path, capsys):
        # the doubling evaluates 10, 20, 40 and then the cap + 1, 51
        cfg = tmp_path / "design.cfg"
        cfg.write_text(GOLDEN_CFG_TEXT)
        assert main(["samplesize", "--config", str(cfg), "--cap", "50", "--out", "-"]) == 3
        assert capsys.readouterr().err == (
            "numerical error: effect too small: sample size exceeds cap 50 "
            "(power at 51 still below 0.8)\n"
        )

    def test_cap_equal_to_search_start_sizes(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        out = tmp_path / "size.json"
        cfg.write_text(GOLDEN_CFG_TEXT.replace("power = 0.8", "power = 0"))
        assert main(["samplesize", "--config", str(cfg), "--cap", "10", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 10

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


def one_parser_argvs(inputs, out_dir):
    """The argument lists of a fixed sequence of main calls on the design
    config and the panel in inputs, writing into out_dir: every option a
    later call leaves at its default is set by an earlier call of the same
    subcommand."""
    cfg, panel = inputs / "design.cfg", inputs / "panel.csv"
    size = ["samplesize", "--config", str(cfg)]
    fit = ["estimate", "--data", str(panel), "--f-cols", "intercept", "--g-cols", "intercept"]
    return {
        "size.json": size + ["--out", str(out_dir / "size.json")],
        "sweep.csv": size + ["--sweep", "AA=0.3:1.0:0.1", "--out", str(out_dir / "sweep.csv")],
        "size.csv": size + ["--format", "csv", "--out", str(out_dir / "size.csv")],
        "usage.err": ["samplesize", "--out", str(out_dir / "usage.json")],
        "fit.csv": fit + ["--alpha", "0.1", "--correction", "none", "--format", "csv",
                          "--out", str(out_dir / "fit.csv")],
        "fit.json": fit + ["--out", str(out_dir / "fit.json")],
    }


def run_alone(argvs):
    """Each argument list run in its own `python -m mrtcat.cli` process:
    {name: (exit code, stdout, stderr)}.  argparse wraps its usage lines
    to $COLUMNS, which is set to 80 here as in the caller."""
    src = str(Path(mrtcat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    procs = {
        name: subprocess.Popen([sys.executable, "-m", "mrtcat.cli", *argv], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for name, argv in argvs.items()
    }
    results = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        results[name] = (proc.returncode, stdout, stderr)
    return results


class TestOneParser:
    """main builds its parser once per process; no call changes what a
    later call parses or writes."""

    @pytest.fixture(scope="class")
    def alone(self, tmp_path_factory):
        """The outputs of every command of one_parser_argvs, each run alone."""
        inputs = tmp_path_factory.mktemp("one_parser")
        (inputs / "design.cfg").write_text(GOLDEN_CFG_TEXT)
        write_k2_csv(inputs / "panel.csv")
        out_dir = inputs / "alone"
        out_dir.mkdir()
        argvs = one_parser_argvs(inputs, out_dir)
        results = run_alone(argvs)
        for name, (code, stdout, stderr) in results.items():
            assert stdout == b""
            if name == "usage.err":
                assert code == 2
                assert b"the following arguments are required: --config" in stderr
            else:
                assert (code, stderr) == (0, b""), name
        files = {name: (out_dir / name).read_bytes() for name in argvs if name != "usage.err"}
        return inputs, files, results["usage.err"][2]

    def test_parser_built_once(self):
        assert mrtcat.cli.build_parser() is mrtcat.cli.build_parser()

    def test_call_sequence_matches_each_command_alone(self, alone, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        inputs, files, usage = alone
        for name, argv in one_parser_argvs(inputs, tmp_path).items():
            if name == "usage.err":
                with pytest.raises(SystemExit) as err:
                    main(argv)
                assert err.value.code == 2
                assert capsys.readouterr().err.encode() == usage
            else:
                assert main(argv) == 0
                assert (tmp_path / name).read_bytes() == files[name], name
        assert capsys.readouterr() == ("", "")

    def test_threads_write_the_files_of_each_command_alone(self, alone, tmp_path):
        inputs, files, _ = alone
        failures = []

        def work(index):
            try:
                for round_ in range(3):
                    out_dir = tmp_path / f"{index}_{round_}"
                    out_dir.mkdir()
                    for name, argv in one_parser_argvs(inputs, out_dir).items():
                        if name in files:
                            assert main(argv) == 0
                            assert (out_dir / name).read_bytes() == files[name], name
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


LINEAR_CFG_TEXT = (
    GOLDEN_CFG_TEXT.replace("T = 210", "T = 30")
    .replace("AA = 1.0", "AA = 0.7")
    .replace("f_kind = constant", "f_kind = linear\ntheta_f1 = 0.2\ntheta_f2 = 0.1")
    .replace("sate1 = 0.053", "sate1 = 0.15")
    .replace("sate2 = 0.0", "sate2 = 0.05")
)


def run_sweep(tmp_path, text, sweep, *extra):
    cfg = tmp_path / "design.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text(text)
    code = main(["samplesize", "--config", str(cfg), "--sweep", sweep, *extra, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


class TestSweepStack:
    """A sweep builds its points as one stack and walks them in grid
    order; the CSV and the errors are those of a point-by-point loop."""

    @pytest.mark.parametrize("text", [GOLDEN_CFG_TEXT, LINEAR_CFG_TEXT], ids=["constant", "linear"])
    @pytest.mark.parametrize(
        "sweep",
        ["AA=0.3:0.9:0.2", "T=10:40:10", "sate1=0.1:0.35:0.125", "theta_tau=0:0.2:0.1",
         "q=1:3:2", "eta=0.01:0.11:0.05", "power=0.5:0.9:0.2"],
    )
    def test_csv_matches_point_by_point_loop(self, tmp_path, text, sweep):
        if sweep.startswith("theta_tau"):
            text = text.replace("tau_kind = constant", "tau_kind = linear")
            text = text.replace("AA = 1.0", "AA = 0.7")
        code, csv_text = run_sweep(tmp_path, text, sweep)
        assert code == 0
        cfg = mrtcat._kvconfig.parse_kv_file(str(tmp_path / "design.cfg"))
        key, values = mrtcat.cli._parse_sweep(sweep)
        lines = [f"{key},n"]
        for value in values:
            inputs = mrtcat.inputs_from_config(dict(cfg, **{key: repr(value)}))
            lines.append(f"{value:.12g},{mrtcat.required_sample_size(inputs).n}")
        assert csv_text == "\n".join(lines) + "\n"

    def test_keys_keep_the_digits_of_the_grid(self, tmp_path):
        # six significant digits once wrote these four points as 0.95
        code, csv_text = run_sweep(tmp_path, GOLDEN_CFG_TEXT, "AA=0.9500001:0.9500004:0.0000001")
        assert code == 0
        keys = [line.split(",")[0] for line in csv_text.splitlines()[1:]]
        assert keys == ["0.9500001", "0.9500002", "0.9500003", "0.9500004"]

    @pytest.mark.parametrize(
        "value, key",
        [(1e6, "1000000"), (100.0, "100"), (0.3, "0.3"), (123456.1234567, "123456.1234567")],
    )
    def test_key_reads_back_as_the_value(self, value, key):
        # :g wrote 1e+06 for T = 10^6, which get_int rejects; 13 significant
        # digits do not fit in 12, so that key is repr(value)
        assert mrtcat.cli._sweep_key(value) == key
        assert float(key) == value
        if value == int(value):
            assert mrtcat._kvconfig.get_int({"T": key}, "T") == value

    def test_middle_point_out_of_range_exits_two(self, tmp_path, capsys):
        # AA = 1.1 is the first point outside (0, 1]; 1.2 fails too
        code, csv_text = run_sweep(tmp_path, GOLDEN_CFG_TEXT, "AA=0.8:1.2:0.1")
        assert code == 2
        assert csv_text is None
        assert capsys.readouterr().err == "error: tau pattern leaves (0, 1]: range [1.1, 1.1]\n"

    def test_middle_point_past_cap_exits_three(self, tmp_path, capsys):
        # sate2 = 0.05 leaves an arm gap of 0.003, which 1000 subjects cannot power
        code, _ = run_sweep(tmp_path, GOLDEN_CFG_TEXT, "sate2=0:0.1:0.05", "--cap", "1000")
        assert code == 3
        assert "cap 1000" in capsys.readouterr().err

    def test_earlier_search_failure_beats_later_build_failure(self, tmp_path, capsys):
        # AA = 0.1 needs more than 500 subjects; AA = 1.1 fails its build
        code, _ = run_sweep(tmp_path, GOLDEN_CFG_TEXT, "AA=0.1:1.1:0.5", "--cap", "500")
        assert code == 3
        assert "cap 500" in capsys.readouterr().err

    def test_earlier_build_failure_beats_later_search_failure(self, tmp_path, capsys):
        # sate2 = 0.053 makes the contrast null; 0.056 cannot be powered by 1000
        code, _ = run_sweep(tmp_path, GOLDEN_CFG_TEXT, "sate2=0.053:0.056:0.003", "--cap", "1000")
        assert code == 2
        assert capsys.readouterr().err == "error: contrast of target alternative is null\n"

    @pytest.mark.parametrize("key", ["AAA", "aa", "notes"])
    def test_key_that_no_step_reads_exits_two(self, tmp_path, capsys, monkeypatch, key):
        # such a key once wrote a flat CSV of the base n; it is now
        # rejected before any point is built
        monkeypatch.setattr(mrtcat.cli, "_inputs_from_sweep", None)
        code, csv_text = run_sweep(tmp_path, GOLDEN_CFG_TEXT, f"{key}=0.3:0.6:0.1")
        assert (code, csv_text) == (2, None)
        assert capsys.readouterr().err == (
            f"error: --sweep key {key!r} is not a design key; the design keys are "
            "K, T, p, tau_kind, AA, theta_tau, f_kind, theta_f1, theta_f2, sate1, sate2, L, q, "
            "eta, power\n"
        )

    def test_blocks_keep_grid_order(self, tmp_path, monkeypatch):
        code, whole = run_sweep(tmp_path, GOLDEN_CFG_TEXT, "AA=0.3:1.0:0.1")
        assert code == 0
        monkeypatch.setattr(mrtcat.cli, "_SWEEP_BLOCK", 3)
        assert run_sweep(tmp_path, GOLDEN_CFG_TEXT, "AA=0.3:1.0:0.1") == (0, whole)

    def test_one_contrast_and_two_stacked_solves(self, tmp_path, monkeypatch):
        calls = []
        for name in ("build_contrast", "solve_spd_stack"):
            fn = getattr(mrtcat.design, name)
            monkeypatch.setattr(
                mrtcat.design, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a)
            )
        code, _ = run_sweep(tmp_path, GOLDEN_CFG_TEXT, "AA=0.3:1.0:0.1")
        assert code == 0
        assert sorted(calls) == ["build_contrast", "solve_spd_stack", "solve_spd_stack"]

    @pytest.mark.parametrize(
        "text, sweep, count, rows",
        [
            (GOLDEN_CFG_TEXT, "AA=0.3:1.0:0.1", 1, 8),
            (LINEAR_CFG_TEXT, "T=10:60:10", 6, 1),
            (GOLDEN_CFG_TEXT, "sate1=0.03:0.3:0.001", 2, 1),
        ],
        ids=["AA", "T", "sate1"],
    )
    def test_one_range_check_and_one_v_per_t(
        self, tmp_path, monkeypatch, text, sweep, count, rows
    ):
        # a block's range checks and V run once per number of decision
        # points, not once per point, and V once per distinct availability
        # curve: each AA point has its own, and the 256 points of a sate1
        # block share one
        calls = []
        for name in ("_range_errors", "_v_matrix"):
            fn = getattr(mrtcat.design, name)
            monkeypatch.setattr(
                mrtcat.design, name,
                lambda *a, name=name, fn=fn: calls.append((name, len(a[0]))) or fn(*a),
            )
        code, _ = run_sweep(tmp_path, text, sweep)
        assert code == 0
        assert sorted(name for name, _ in calls) == ["_range_errors"] * count + ["_v_matrix"] * count
        assert [size for name, size in calls if name == "_v_matrix"] == [rows] * count

    @pytest.mark.parametrize(
        "replace, named",
        [
            (("AA = 1.0", "AA = nan"), "tau pattern"),
            (("sate1 = 0.053", "sate1 = nan"), "gamma"),
            (("sate1 = 0.053", "sate1 = inf"), "gamma"),
            (("p = 0.4, 0.3, 0.3", "p = nan, 0.3, 0.3"), "key 'p'"),
        ],
    )
    def test_nonfinite_input_exits_two_naming_it(self, tmp_path, capsys, replace, named):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(GOLDEN_CFG_TEXT.replace(*replace))
        assert main(["samplesize", "--config", str(cfg), "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err


def probe_sweeps(tmp_path, sweeps):
    """Run each sweep on the golden config in a child whose address space
    is capped, so a grid that grows without bound fails fast; the child
    prints one exit code per sweep."""
    cfg = tmp_path / "design.cfg"
    cfg.write_text(GOLDEN_CFG_TEXT)
    probe = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from mrtcat.cli import main\n"
        "for sweep in sys.argv[2:]:\n"
        "    print(main(['samplesize', '--config', sys.argv[1], '--sweep', sweep, '--out', '-']))\n"
    )
    src = str(Path(mrtcat.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", probe, str(cfg), *sweeps], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )


def test_unbounded_sweeps_exit_two(tmp_path):
    # Each of these once made the grid loop run forever.
    sweeps = ["AA=0:nan:0.1", "AA=nan:1:0.1", "AA=0:1:nan", "AA=0:inf:0.1", "AA=-inf:1:0.1",
              "AA=0.5:0.6:1e-13", "AA=0:1:inf"]
    result = probe_sweeps(tmp_path, sweeps)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["2"] * len(sweeps)
    errors = result.stderr.splitlines()
    assert len(errors) == len(sweeps)
    assert all("bad sweep bounds" in line or "step > 0" in line for line in errors)


def test_oversized_sweep_grids_exit_two(tmp_path):
    # Finite grids of 1e11 points and more once ran until memory ran out;
    # the point count is now checked before any point is built.
    sweeps = ["AA=0.5:0.6:6e-13", "AA=0:1e300:1", "AA=-1e308:1e308:1"]
    result = probe_sweeps(tmp_path, sweeps)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["2"] * len(sweeps)
    assert result.stderr.splitlines() == [
        "error: sweep grid '0.5:0.6:6e-13' has 1.66667e+11 points; the limit is 100000",
        "error: sweep grid '0:1e300:1' has 1e+300 points; the limit is 100000",
        "error: sweep grid '-1e308:1e308:1' has inf points; the limit is 100000",
    ]


def test_sweep_grid_of_the_limit_parses_and_one_more_point_is_rejected():
    limit = mrtcat.cli._SWEEP_MAX_POINTS
    key, values = mrtcat.cli._parse_sweep(f"AA=0:{limit - 1}:1")
    assert (key, len(values), values[-1]) == ("AA", limit, limit - 1)
    with pytest.raises(mrtcat.DataValidationError) as err:
        mrtcat.cli._parse_sweep(f"AA=0:{limit}:1")
    assert str(err.value) == f"sweep grid '0:{limit}:1' has {limit + 1} points; the limit is {limit}"


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

    def test_failed_replicate_row(self, tmp_path):
        # test_failure_budget_aborts's case: replicate 12 alone never observes
        # an arm at some t, one failure within the 1% budget of 100
        scn = tmp_path / "scenario.cfg"
        scn.write_text(
            "family = gm0\nn = 30\nT = 2\np = 0.7, 0.15, 0.15\nAA = 1.0\nsate1 = 0.0\n"
            "sate2 = 0.0\nnumerator = empirical_per_t\nreplicates = 100\nseed = 6\n"
        )
        outputs = []
        for threads in ("1", "2", "3"):
            out, per = tmp_path / f"mc{threads}.json", tmp_path / f"reps{threads}.csv"
            code = main(
                [
                    "simulate",
                    "--scenario", str(scn),
                    "--threads", threads,
                    "--per-replicate", str(per),
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append((out.read_bytes(), per.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0][0])
        assert (payload["replicates"], payload["completed"], payload["failures"]) == (100, 99, 1)
        lines = outputs[0][1].decode().splitlines()
        assert len(lines) == 101
        assert lines[13] == "12,9187981958480619105,0,,,,,"
        assert [line.split(",")[2] for line in lines[1:]].count("0") == 1

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
        # every treated point's outcome 1e308 + 1e308 overflows, so each
        # replicate fails on its own draws
        scn = tmp_path / "scenario.cfg"
        scn.write_text(NULL_SCENARIO_TEXT + "eo_coeffs = 1e308, 0\nmee_coeffs = 1e308; 1e308\n")
        code = main(
            ["simulate", "--scenario", str(scn), "--replicates", "5", "--out", "-"]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical error: 5/5 replicates failed (budget 1%): DataValidationError×5; "
            "first error: missing or non-finite outcome value\n"
        )


@pytest.mark.parametrize(
    "kind, text, named",
    [
        ("contrast", "1,0;1", "contrast '1,0;1': row 2 has 1 entries, expected 2"),
        # finite entries, but the norm overflows: too large, not a zero contrast
        ("contrast", "1.5e308,-1.5e308", "contrast matrix entries are too large"),
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
        ("design", GOLDEN_CFG_TEXT.replace("p = 0.4, 0.3, 0.3", "p = 0.4,0.3,,0.3"),
         "config key 'p': cell 3 is empty"),
        ("scenario", NULL_SCENARIO_TEXT.replace("p = 0.4, 0.3, 0.3", "p = 0.4, 0.3, 0.3,"),
         "config key 'p': cell 4 is empty"),
        ("scenario", NULL_SCENARIO_TEXT + "eo_coeffs = 0.2,, 0.01\n",
         "config key 'eo_coeffs': cell 2 is empty"),
        ("scenario", NULL_SCENARIO_TEXT + "true_beta = , 0.1\n",
         "config key 'true_beta': cell 1 is empty"),
    ],
    ids=["inline-ragged", "inline-overflow", "contrast-file-cell", "numerator-table-cell", "mee-cell", "mee-ragged",
         "n-inf", "replicates-nan", "T-overflow", "design-p-empty", "p-trailing-comma",
         "eo-empty", "true-beta-empty"],
)
def test_malformed_rows_and_integers_exit_two(tmp_path, capsys, kind, text, named):
    if kind == "scenario":
        scn = tmp_path / "scenario.cfg"
        scn.write_text(text)
        argv = ["simulate", "--scenario", str(scn), "--out", "-"]
    elif kind == "design":
        cfg = tmp_path / "design.cfg"
        cfg.write_text(text)
        argv = ["samplesize", "--config", str(cfg), "--out", "-"]
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
