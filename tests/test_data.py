import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrtcat.data
from mrtcat import (
    CsvSchema,
    DataValidationError,
    DegenerateArmError,
    MrtDataset,
    NumeratorPolicy,
    PositivityError,
    fit_numerator_probs,
    load_csv,
    simulate_trial,
    validate,
    write_csv,
)
from mrtcat.simulate import GenerativeConfig

from _factories import make_dataset, write_toy_csv
from _oracles import numerator_table_loops


TOY_ROWS = [
    ["a", 1, 1, 1, 0.4, 0.3, 0.3, 1.5],
    ["a", 2, 1, 0, 0.4, 0.3, 0.3, -0.2],
    ["a", 3, 0, 0, 0.4, 0.3, 0.3, 0.7],
    ["b", 1, 1, 2, 0.4, 0.3, 0.3, 2.25],
    ["b", 2, 1, 1, 0.4, 0.3, 0.3, 0.0],
    ["b", 3, 1, 0, 0.4, 0.3, 0.3, -1.0],
]


class TestLoadCsv:
    def test_toy_panel(self, tmp_path):
        path = tmp_path / "toy.csv"
        write_toy_csv(path, TOY_ROWS)
        data = load_csv(str(path))
        assert (data.n, data.t_points, data.k_arms) == (2, 3, 2)
        assert data.subject_ids == ("a", "b")
        np.testing.assert_array_equal(data.trt, [[1, 0, 0], [2, 1, 0]])
        np.testing.assert_array_equal(data.avail, [[1, 1, 0], [1, 1, 1]])
        np.testing.assert_allclose(data.probs[1, 2], [0.4, 0.3, 0.3])
        assert data.outcome[0, 0] == 1.5
        assert data.feature_names == ()

    def test_feature_columns_default_to_remainder(self, tmp_path):
        path = tmp_path / "f.csv"
        rows = [row + [float(i)] for i, row in enumerate(TOY_ROWS)]
        write_toy_csv(path, rows, header="id,t,avail,trt,prob_0,prob_1,prob_2,outcome,mood")
        data = load_csv(str(path))
        assert data.feature_names == ("mood",)
        assert data.features["mood"][0, 1] == 1.0

    def test_const_probs_schema(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = [[r[0], r[1], r[2], r[3], r[7]] for r in TOY_ROWS]
        write_toy_csv(path, rows, header="id,t,avail,trt,outcome")
        data = load_csv(str(path), CsvSchema(const_probs=(0.4, 0.3, 0.3)))
        assert data.k_arms == 2
        np.testing.assert_allclose(data.probs[0, 0], [0.4, 0.3, 0.3])

    def test_active_treatment_while_unavailable_rejected(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[2][3] = 1  # avail = 0 but trt = 1
        path = tmp_path / "bad.csv"
        write_toy_csv(path, rows)
        with pytest.raises(DataValidationError, match="unavailable"):
            load_csv(str(path))

    def test_probabilities_must_sum_to_one(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[0][4] = 0.5  # now sums to 1.1
        path = tmp_path / "bad.csv"
        write_toy_csv(path, rows)
        with pytest.raises(DataValidationError, match="sum to 1"):
            load_csv(str(path))

    def test_duplicate_point_rejected(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS] + [list(TOY_ROWS[0])]
        path = tmp_path / "dup.csv"
        write_toy_csv(path, rows)
        with pytest.raises(DataValidationError, match="duplicate"):
            load_csv(str(path))

    def test_ragged_panel_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        write_toy_csv(path, TOY_ROWS[:5])
        with pytest.raises(DataValidationError, match="ragged"):
            load_csv(str(path))

    def test_gapped_points_rejected(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[2][1] = 4  # subject a has t = 1, 2, 4
        path = tmp_path / "gap.csv"
        write_toy_csv(path, rows)
        with pytest.raises(DataValidationError, match="1..T"):
            load_csv(str(path))

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = [r[:3] + r[4:] for r in TOY_ROWS]
        write_toy_csv(path, rows, header="id,t,avail,prob_0,prob_1,prob_2,outcome")
        with pytest.raises(DataValidationError, match="trt"):
            load_csv(str(path))

    def test_non_numeric_cell(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[1][7] = "oops"
        path = tmp_path / "nn.csv"
        write_toy_csv(path, rows)
        with pytest.raises(DataValidationError, match="non-numeric"):
            load_csv(str(path))

    def test_bad_cell_reports_its_file_line(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[1][7] = "oops"
        path = tmp_path / "nn.csv"
        write_toy_csv(path, rows)
        with pytest.raises(DataValidationError, match="line 3:"):
            load_csv(str(path))
        # a skipped blank line above the bad row still counts
        path.write_text(path.read_text().replace("\n", "\n\n", 1))
        with pytest.raises(DataValidationError, match="line 4:"):
            load_csv(str(path))

    def test_out_of_order_probability_columns(self, tmp_path):
        rows = [[r[0], r[1], r[2], r[3], r[5], r[4], r[6], r[7]] for r in TOY_ROWS]
        path = tmp_path / "p.csv"
        write_toy_csv(path, rows, header="id,t,avail,trt,prob_1,prob_0,prob_2,outcome")
        with pytest.raises(DataValidationError, match="prob_0"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError, match="empty"):
            load_csv(str(path))

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        data = make_dataset(
            trt=rng.integers(0, 3, size=(4, 6)),
            outcome=rng.normal(size=(4, 6)),
            probs=(1 / 3, 1 / 3, 1 / 3),
            features={"z": rng.normal(size=(4, 6))},
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(data, str(first))
        back = load_csv(str(first))
        np.testing.assert_array_equal(back.outcome, data.outcome)
        np.testing.assert_array_equal(back.probs, data.probs)
        np.testing.assert_array_equal(back.features["z"], data.features["z"])
        write_csv(back, str(second))
        assert first.read_bytes() == second.read_bytes()


def load_error(path) -> str:
    with pytest.raises(DataValidationError) as err:
        load_csv(str(path))
    return str(err.value)


class TestLoadCsvMessages:
    """Exact messages and line numbers for malformed files."""

    @pytest.mark.parametrize(
        "row,col,raw,message",
        [
            (1, 7, "", "line 3: empty value in column 'outcome'"),
            (1, 7, "  ", "line 3: empty value in column 'outcome'"),
            (1, 7, "oops", "line 3: non-numeric value 'oops' in column 'outcome'"),
            (4, 5, " 0.3x ", "line 6: non-numeric value '0.3x' in column 'prob_1'"),
            (1, 1, "2.5", "line 3: column 't' must be an integer"),
            (1, 1, "two", "line 3: non-numeric value 'two' in column 't'"),
            (0, 2, "0.5", "line 2: column 'avail' must be an integer"),
            (3, 3, "1.5", "line 5: column 'trt' must be an integer"),
        ],
    )
    def test_bad_cell(self, tmp_path, row, col, raw, message):
        rows = [list(r) for r in TOY_ROWS]
        rows[row][col] = raw
        path = tmp_path / "bad.csv"
        write_toy_csv(path, rows)
        assert load_error(path) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "row,col,raw,message",
        [
            (1, 3, "1e300", "line 3: integer value '1e300' in column 'trt' is out of range"),
            (0, 2, "-1e19", "line 2: integer value '-1e19' in column 'avail' is out of range"),
            (2, 3, "9223372036854775808", "line 4: integer value "
             "'9223372036854775808' in column 'trt' is out of range"),
            (1, 3, "inf", "line 3: column 'trt' must be an integer"),
        ],
    )
    def test_integer_beyond_int64_names_its_cell(self, tmp_path, row, col, raw, message):
        # Warnings are errors here: the value must never reach an int64 cast.
        rows = [list(r) for r in TOY_ROWS]
        rows[row][col] = raw
        path = tmp_path / "huge.csv"
        write_toy_csv(path, rows)
        assert load_error(path) == message

    def test_short_row(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[2] = rows[2][:-1]
        path = tmp_path / "short.csv"
        write_toy_csv(path, rows)
        assert load_error(path) == f"{path}: line 4 has 7 cells, header has 8"

    def test_duplicate_point(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_toy_csv(path, [list(r) for r in TOY_ROWS] + [list(TOY_ROWS[0])])
        assert load_error(path) == f"{path}: duplicate (id, t) = ('a', 1)"

    def test_ragged_panel(self, tmp_path):
        path = tmp_path / "ragged.csv"
        write_toy_csv(path, TOY_ROWS[:5])
        assert load_error(path) == (
            f"{path}: ragged panel; subject 'b' has 2 points, subject 'a' has 3"
        )

    def test_gap_in_t(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[2][1] = 4
        path = tmp_path / "gap.csv"
        write_toy_csv(path, rows)
        assert load_error(path) == (
            f"{path}: subject 'a' decision points are not 1..T (got [1, 2, 4]...)"
        )

    def test_earliest_failing_row_decides(self, tmp_path):
        # a bad t on line 3 comes before the short row on line 5
        rows = [list(r) for r in TOY_ROWS]
        rows[1][1] = "x"
        rows[3] = rows[3][:-1]
        path = tmp_path / "two.csv"
        write_toy_csv(path, rows)
        assert load_error(path) == "line 3: non-numeric value 'x' in column 't'"
        # values are read in panel order (subject, then t, then column),
        # whatever the file order of the rows
        rows = [list(r) for r in TOY_ROWS]
        rows[2][7] = "late"
        rows[0][4] = "early"
        write_toy_csv(path, [rows[2], rows[0], rows[1]] + rows[3:])
        assert load_error(path) == "line 3: non-numeric value 'early' in column 'prob_0'"

    def test_quoted_id_with_comma(self, tmp_path):
        path = tmp_path / "quoted.csv"
        rows = [[f'"{r[0]},x"'] + list(r[1:]) for r in TOY_ROWS]
        write_toy_csv(path, rows)
        data = load_csv(str(path))
        assert data.subject_ids == ("a,x", "b,x")
        np.testing.assert_array_equal(data.trt, [[1, 0, 0], [2, 1, 0]])

    def test_crlf_line_endings(self, tmp_path):
        lf = tmp_path / "lf.csv"
        crlf = tmp_path / "crlf.csv"
        write_toy_csv(lf, TOY_ROWS)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = load_csv(str(lf)), load_csv(str(crlf))
        np.testing.assert_array_equal(a.outcome, b.outcome)
        np.testing.assert_array_equal(a.probs, b.probs)
        rows = [list(r) for r in TOY_ROWS]
        rows[2][7] = "oops"
        write_toy_csv(lf, rows)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_error(crlf) == "line 4: non-numeric value 'oops' in column 'outcome'"

    def test_whitespace_only_line_counts(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[1][7] = "oops"
        path = tmp_path / "ws.csv"
        write_toy_csv(path, rows)
        head, rest = path.read_text().split("\n", 1)
        path.write_text(f"{head}\n   \n , \n{rest}")
        assert load_error(path) == "line 5: non-numeric value 'oops' in column 'outcome'"

    def test_row_order_is_free(self, tmp_path):
        rows = [r + [float(i)] for i, r in enumerate(TOY_ROWS)]
        header = "id,t,avail,trt,prob_0,prob_1,prob_2,outcome,mood"
        ordered = tmp_path / "ordered.csv"
        shuffled = tmp_path / "shuffled.csv"
        write_toy_csv(ordered, rows, header=header)
        write_toy_csv(shuffled, [rows[i] for i in (4, 2, 0, 5, 1, 3)], header=header)
        a, b = load_csv(str(ordered)), load_csv(str(shuffled))
        # subjects keep their order of first appearance: b, then a
        assert b.subject_ids == ("b", "a")
        for name in ("avail", "trt", "probs", "outcome"):
            np.testing.assert_array_equal(getattr(b, name)[::-1], getattr(a, name))
        np.testing.assert_array_equal(b.features["mood"][::-1], a.features["mood"])


def load_result(loader, path, schema=None):
    """What loader makes of path: its DataValidationError message, or the
    dataset's ids and the bytes of every array."""
    try:
        data = loader(str(path), schema or CsvSchema())
    except DataValidationError as exc:
        return str(exc)
    arrays = [data.avail, data.trt, data.probs, data.outcome, *data.features.values()]
    return (
        data.subject_ids,
        data.feature_names,
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
    )


scan_csv = mrtcat.data._scan_csv  # load_csv's fallback, a complete loader


def agree(path, schema=None):
    """load_csv's result on path, after checking that the scanner's is the same."""
    result = load_result(load_csv, path, schema)
    assert result == load_result(scan_csv, path, schema)
    return result


@pytest.fixture
def scans(monkeypatch):
    """The paths load_csv hands to its fallback scanner during a test."""
    calls = []

    def spy(path, schema):
        calls.append(path)
        return scan_csv(path, schema)

    monkeypatch.setattr(mrtcat.data, "_scan_csv", spy)
    return calls


TOY_HEADER = "id,t,avail,trt,prob_0,prob_1,prob_2,outcome"


def toy_text(rows=TOY_ROWS, eol="\n", header=TOY_HEADER) -> str:
    return eol.join([header] + [",".join(str(c) for c in row) for row in rows]) + eol


class TestFastPath:
    """load_csv reads regular files with np.loadtxt and agrees with its
    csv.reader scanner on every file, loaded or rejected."""

    def test_regular_file_skips_the_scanner(self, tmp_path, scans):
        path = tmp_path / "toy.csv"
        path.write_text(toy_text())
        assert agree(path)[0] == ("a", "b")
        assert scans == []

    @pytest.mark.filterwarnings("error")
    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        for text in (TOY_HEADER + "\n", TOY_HEADER + "\r\n\r\n  \n", TOY_HEADER):
            path.write_text(text, newline="")
            assert agree(path) == f"{path}: no data rows"

    @pytest.mark.parametrize("blank", ["", "   ", "\t", " , ,"])
    def test_blank_and_whitespace_lines(self, tmp_path, blank):
        plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
        plain.write_text(toy_text())
        lines = toy_text().splitlines()
        gappy.write_text("\n".join(lines[:3] + [blank, blank] + lines[3:] + [blank]) + "\n")
        assert agree(gappy) == agree(plain)

    @pytest.mark.parametrize("tail", ["", "\r\n\r\n"])
    def test_crlf_line_endings(self, tmp_path, scans, tail):
        plain, crlf = tmp_path / "plain.csv", tmp_path / "crlf.csv"
        plain.write_text(toy_text())
        crlf.write_bytes(toy_text(eol="\r\n").encode() + tail.encode())
        assert agree(crlf) == agree(plain)
        assert scans == []

    @pytest.mark.parametrize(
        "cell,sid",
        [
            ('"a,1"', "a,1"),
            ('"a""1"', 'a"1'),
            ('"a\n1"', "a\n1"),
            ('"a\r\n1"', "a\r\n1"),
            (" a ", "a"),
            ('" a "', "a"),
        ],
    )
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_quoted_and_padded_ids(self, tmp_path, scans, cell, sid, eol):
        rows = [[cell if r[0] == "a" else r[0]] + list(r[1:]) for r in TOY_ROWS]
        path = tmp_path / "ids.csv"
        path.write_bytes(toy_text(rows, eol=eol).encode())
        assert agree(path)[0] == (sid, "b")
        assert scans == []

    def test_digit_separator_loads_through_the_scanner(self, tmp_path, scans):
        rows = [list(r) for r in TOY_ROWS]
        rows[4][7] = "1_0"
        path = tmp_path / "underscore.csv"
        path.write_text(toy_text(rows))
        data = load_csv(str(path))
        assert scans == [str(path)]
        assert data.outcome[1, 1] == 10.0
        agree(path)

    @pytest.mark.parametrize(
        "col,raw,message",
        [
            (7, "+Infinity", "missing or non-finite outcome value"),
            (7, "nan", "missing or non-finite outcome value"),
            (5, "NaN", "non-finite randomization probability"),
            (6, "-inf", "non-finite randomization probability"),
        ],
    )
    def test_non_finite_cells(self, tmp_path, scans, col, raw, message):
        rows = [list(r) for r in TOY_ROWS]
        rows[3][col] = raw
        path = tmp_path / "nonfinite.csv"
        path.write_text(toy_text(rows))
        assert agree(path) == f"{path}: {message}"
        assert scans == []

    def test_id_column_read_as_a_feature_too(self, tmp_path, scans):
        rows = [[1 if r[0] == "a" else 2] + list(r[1:]) for r in TOY_ROWS]
        path = tmp_path / "numeric_ids.csv"
        path.write_text(toy_text(rows))
        schema = CsvSchema(feature_columns=("id",))
        ids, names, arrays = agree(path, schema)
        assert (ids, names) == (("1", "2"), ("id",))
        assert arrays[-1][2] == np.array([[1.0] * 3, [2.0] * 3]).tobytes()
        assert scans == [str(path)]

    def test_simulated_panel_round_trip(self, tmp_path, scans):
        config = GenerativeConfig(
            family="gm0", t_points=6, rand_probs=np.array([0.4, 0.3]),
            tau_curve=np.full(6, 0.7),
        )
        data = simulate_trial(config, 9, seed=21)
        path = tmp_path / "sim.csv"
        write_csv(data, str(path))
        ids, names, arrays = agree(path)
        assert scans == []
        assert (ids, names) == (data.subject_ids, data.feature_names)
        expected = [data.avail, data.trt, data.probs, data.outcome, *data.features.values()]
        assert arrays == [(a.dtype.str, a.shape, a.tobytes()) for a in expected]


ID_CHARS = "ab ,\"\n\r\t"
ODD_CELLS = (
    "", "  ", "oops", "1_0", "+Infinity", "nan", "-inf", "1e300", "2.5", " 0.5 ",
    "-0", "1e0", "\u0661", "\xa01", '"1"', "0x1",
)


def quote_id(sid: str, style: str) -> str:
    """sid as a CSV cell: raw, quoted, padded, or (plain) quoted only if it must be."""
    quoted = '"' + sid.replace('"', '""') + '"'
    if style == "plain":
        style = "quoted" if set(sid) & set(',"\r\n') else "raw"
    return {"raw": sid, "quoted": quoted, "padded": f" {quoted} "}[style]


@st.composite
def csv_texts(draw):
    """A small panel file, with awkward ids and a few of the irregularities
    that make a file load differently or fail."""
    n, t_points = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sid = st.text(ID_CHARS, min_size=1, max_size=3)
    ids = draw(st.lists(sid, min_size=n, max_size=n, unique_by=str.strip))
    style = st.sampled_from(["plain", "plain", "plain", "quoted", "padded", "raw"])
    styles = draw(st.lists(style, min_size=n, max_size=n))
    value = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    rows = []
    for i in range(n):
        for t in range(1, t_points + 1):
            avail = draw(st.integers(0, 1))
            trt = avail * draw(st.integers(0, 2))
            rows.append(
                [quote_id(ids[i], styles[i]), str(t), str(avail), str(trt),
                 "0.5", "0.25", "0.25", draw(value), draw(value)]
            )
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(1, 8))
        kind = draw(st.sampled_from(["odd", "short", "long", "duplicate", "gap", "t", "trt"]))
        if kind == "odd":
            rows[row][col] = draw(st.sampled_from(ODD_CELLS))
        elif kind == "short":
            rows[row] = rows[row][:-1]
        elif kind == "long":
            rows[row] = rows[row] + ["0"]
        elif kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[row]))
        elif kind == "gap":
            rows[row][1] = str(t_points + 1)
        else:
            cell = draw(st.sampled_from(["1.5", "0.5", "2.0", "1e0"]))
            rows[row][1 if kind == "t" else 3] = cell
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t", " , "])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", "", eol, eol * 2]))
    return eol.join([TOY_HEADER + ",x"] + lines) + eol + tail


class TestLoaderDifferential:
    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_load_csv_agrees_with_scanner(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            path.write_bytes(text.encode())
            agree(path)


class TestValidationMessages:
    """Every dataset-invariant message a CSV can reach, in full, through
    load_csv: the file path, then the violations joined by '; '."""

    @pytest.mark.parametrize(
        "cells,message",
        [
            ({(4, 2): 2}, "availability must be 0 or 1 (subject 'b', t=2)"),
            ({(4, 3): 3}, "treatment 3 outside 0..2 (subject 'b', t=2)"),
            ({(2, 3): 1}, "unavailable point carries active treatment (subject 'a', t=3)"),
            ({(3, 6): "nan"}, "non-finite randomization probability"),
            ({(2, 4): -0.2, (2, 5): 0.3, (2, 6): 0.9}, "negative randomization probability"),
            (
                {(0, 4): 0.5},
                "probabilities do not sum to 1 (subject 'a', t=1, sum=1.1)",
            ),
            (
                {(0, 4): 0.7, (0, 5): 0.0},
                "realized arm has zero probability (subject 'a', t=1, arm 1)",
            ),
            ({(5, 7): "inf"}, "missing or non-finite outcome value"),
            ({(1, 8): "nan"}, "non-finite value in feature 'mood'"),
            (
                {(4, 2): 2, (5, 7): "nan"},
                "availability must be 0 or 1 (subject 'b', t=2); "
                "missing or non-finite outcome value",
            ),
        ],
    )
    def test_full_message(self, tmp_path, cells, message):
        rows = [list(r) + [0.0] for r in TOY_ROWS]
        for (row, col), raw in cells.items():
            rows[row][col] = raw
        path = tmp_path / "invalid.csv"
        write_toy_csv(path, rows, header="id,t,avail,trt,prob_0,prob_1,prob_2,outcome,mood")
        assert load_error(path) == f"{path}: {message}"


def exactly(message: str) -> str:
    """A pytest.raises match pattern for the whole of message."""
    return f"^{re.escape(message)}$"


class TestValidate:
    """A dataset validates itself on construction, so only valid ones exist."""

    def test_clean_dataset(self):
        data = make_dataset(trt=[[0, 1], [2, 0]], outcome=[[0.0, 1.0], [2.0, 3.0]])
        assert validate(data).ok

    def test_zero_probability_realized_arm(self):
        probs = np.broadcast_to([0.5, 0.5, 0.0], (2, 2, 3)).copy()
        message = "realized arm has zero probability (subject 's1', t=2, arm 2)"
        with pytest.raises(DataValidationError, match=exactly(message)):
            make_dataset(trt=[[0, 2], [1, 0]], outcome=np.zeros((2, 2)), probs=probs)

    def test_treatment_outside_declared_range(self):
        message = "treatment 3 outside 0..2 (subject 's1', t=2)"
        with pytest.raises(DataValidationError, match=exactly(message)):
            make_dataset(trt=[[0, 3], [1, 0]], outcome=np.zeros((2, 2)))

    def test_non_finite_outcome(self):
        message = "missing or non-finite outcome value"
        with pytest.raises(DataValidationError, match=exactly(message)):
            make_dataset(trt=[[0, 0]], outcome=[[np.nan, 0.0]])

    def test_non_binary_availability(self):
        message = "availability must be 0 or 1 (subject 's1', t=1)"
        with pytest.raises(DataValidationError, match=exactly(message)):
            make_dataset(trt=[[0, 0]], outcome=[[0.0, 0.0]], avail=[[2, 1]])


class TestDatasetArrays:
    def test_arrays_are_frozen(self):
        data = make_dataset(trt=[[0, 1]], outcome=[[0.0, 1.0]])
        with pytest.raises(ValueError):
            data.trt[0, 0] = 1

    def test_features_are_read_only(self):
        data = make_dataset(trt=[[0, 1]], outcome=[[0.0, 1.0]], features={"z": [[1.0, 2.0]]})
        with pytest.raises(TypeError):
            data.features["z"] = np.array([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            data.features["z"][0, 0] = np.nan

    def test_callers_arrays_stay_writable(self):
        trt = np.array([[0, 1]], dtype=np.int64)
        outcome = np.array([[0.0, 1.0]])
        data = MrtDataset(
            subject_ids=("s1",),
            avail=np.ones((1, 2), dtype=np.int64),
            trt=trt,
            probs=np.full((1, 2, 2), 0.5),
            outcome=outcome,
            features={},
            k_arms=1,
        )
        trt[0, 0] = 1
        outcome[0, 0] = 5.0
        assert data.trt[0, 0] == 0
        assert data.outcome[0, 0] == 0.0


class TestNumeratorProbs:
    def test_match_randomization_copies_constant_probs(self):
        data = make_dataset(trt=[[0, 1], [2, 0]], outcome=np.zeros((2, 2)), probs=(0.4, 0.3, 0.3))
        table = fit_numerator_probs(data, NumeratorPolicy("match_randomization"))
        np.testing.assert_allclose(table, [[0.4, 0.3, 0.3], [0.4, 0.3, 0.3]], atol=1e-12)

    def test_match_randomization_rejects_varying_probs(self):
        probs = np.broadcast_to([0.4, 0.3, 0.3], (2, 2, 3)).copy()
        probs[1, 0] = [0.2, 0.4, 0.4]
        data = make_dataset(trt=np.zeros((2, 2), dtype=int), outcome=np.zeros((2, 2)), probs=probs)
        with pytest.raises(DataValidationError, match="vary"):
            fit_numerator_probs(data, NumeratorPolicy("match_randomization"))

    @pytest.mark.parametrize("t,gap", [(0, 0.1), (1, 0.1), (1, 2e-9)])
    def test_match_randomization_names_first_varying_t(self, t, gap):
        probs = np.broadcast_to([0.4, 0.3, 0.3], (3, 2, 3)).copy()
        probs[2, t] = [0.4 - gap, 0.3 + gap, 0.3]
        data = make_dataset(trt=np.zeros((3, 2), dtype=int), outcome=np.zeros((3, 2)), probs=probs)
        with pytest.raises(DataValidationError) as err:
            fit_numerator_probs(data, NumeratorPolicy("match_randomization"))
        assert str(err.value) == (
            "match_randomization requires probabilities constant across subjects; "
            f"they vary at t={t + 1}"
        )

    def test_match_randomization_tolerates_rounding(self):
        probs = np.broadcast_to([0.4, 0.3, 0.3], (3, 2, 3)).copy()
        probs[2, 1] = [0.4 - 5e-10, 0.3 + 5e-10, 0.3]
        data = make_dataset(trt=np.zeros((3, 2), dtype=int), outcome=np.zeros((3, 2)), probs=probs)
        table = fit_numerator_probs(data, NumeratorPolicy("match_randomization"))
        np.testing.assert_allclose(table, probs[0], atol=1e-12)

    def test_empirical_per_t_counts(self):
        trt = [[0, 1], [1, 2], [1, 0], [2, 1]]
        data = make_dataset(trt=trt, outcome=np.zeros((4, 2)))
        table = fit_numerator_probs(data, NumeratorPolicy("empirical_per_t"))
        np.testing.assert_allclose(table[0], [0.25, 0.5, 0.25], atol=1e-12)
        np.testing.assert_allclose(table[1], [0.25, 0.5, 0.25], atol=1e-12)

    def test_empirical_per_t_skips_unavailable(self):
        trt = [[1, 0], [2, 0], [0, 1], [0, 2]]
        avail = [[1, 0], [1, 1], [1, 1], [1, 1]]
        data = make_dataset(trt=trt, outcome=np.zeros((4, 2)), avail=avail)
        table = fit_numerator_probs(data, NumeratorPolicy("empirical_per_t"))
        np.testing.assert_allclose(table[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_empirical_pooled_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        trt = rng.integers(0, 3, size=(6, 5))
        avail = rng.integers(0, 2, size=(6, 5))
        trt = trt * avail
        data = make_dataset(trt=trt, outcome=np.zeros((6, 5)), avail=avail)
        for kind in ("empirical_per_t", "empirical_pooled"):
            try:
                table = fit_numerator_probs(data, NumeratorPolicy(kind))
            except DegenerateArmError:
                continue
            np.testing.assert_allclose(table, numerator_table_loops(data, kind), atol=1e-12)

    def test_degenerate_arm_raises(self):
        data = make_dataset(trt=[[0, 0], [1, 1]], outcome=np.zeros((2, 2)))
        with pytest.raises(DegenerateArmError, match="arm 2"):
            fit_numerator_probs(data, NumeratorPolicy("empirical_per_t"))

    @pytest.mark.parametrize(
        "kind,trt,avail,message",
        [
            ("empirical_per_t", [[0, 0], [1, 0], [2, 0]], [[1, 0], [1, 0], [1, 0]],
             "no available records at t=2"),
            ("empirical_per_t", [[1, 0], [0, 0], [0, 0]], [[1, 1], [1, 1], [1, 1]],
             "arm 2 never observed among available records at t=1"),
            ("empirical_pooled", [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
             "no available records in the dataset"),
            ("empirical_pooled", [[0, 2], [0, 0], [0, 0]], [[1, 1], [1, 1], [1, 1]],
             "arm 1 never observed among available records"),
        ],
    )
    def test_degenerate_messages(self, kind, trt, avail, message):
        data = make_dataset(trt=trt, outcome=np.zeros((3, 2)), avail=avail)
        with pytest.raises(DegenerateArmError) as err:
            fit_numerator_probs(data, NumeratorPolicy(kind))
        assert str(err.value) == message

    def test_user_supplied_table_checked(self):
        data = make_dataset(trt=[[0, 1], [2, 0]], outcome=np.zeros((2, 2)))
        good = np.broadcast_to([0.5, 0.25, 0.25], (2, 3)).copy()
        table = fit_numerator_probs(data, NumeratorPolicy("user_supplied", table=good))
        np.testing.assert_allclose(table, good, atol=1e-9)
        with pytest.raises(DataValidationError, match="shape"):
            fit_numerator_probs(data, NumeratorPolicy("user_supplied", table=good[:1]))
        bad = good.copy()
        bad[0, 1] = 0.0
        with pytest.raises(PositivityError):
            fit_numerator_probs(data, NumeratorPolicy("user_supplied", table=bad))

    def test_unknown_policy_kind(self):
        with pytest.raises(DataValidationError, match="unknown numerator"):
            NumeratorPolicy("marginal")

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_rows_always_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.01, 1.0, size=(3, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        data = make_dataset(trt=np.zeros((2, 3), dtype=int), outcome=np.zeros((2, 3)))
        table = fit_numerator_probs(data, NumeratorPolicy("user_supplied", table=raw))
        np.testing.assert_allclose(table.sum(axis=1), np.ones(3), atol=1e-12)
