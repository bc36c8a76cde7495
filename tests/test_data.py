import csv
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrtcat.data
from mrtcat import (
    DataValidationError,
    DegenerateArmError,
    ModelSpec,
    MrtDataset,
    NumeratorPolicy,
    PositivityError,
    fit_numerator_probs,
    load_csv,
    simulate_trial,
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_is_rejected_before_it_is_opened(self, tmp_path):
        # open() would block on a FIFO that no process writes to
        path = tmp_path / "panel.csv"
        os.mkfifo(path)
        with mock.patch("builtins.open", side_effect=AssertionError("opened")):
            message = load_error(path)
        assert message == f"{path}: not a regular file; the input must be written to a file first"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
    def test_pipe_is_rejected(self):
        # what a shell passes for --data /dev/stdin or <(...) on a pipe
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "w") as writer:
                writer.write(toy_text())
            assert load_error(f"/dev/fd/{read_end}").endswith(
                ": not a regular file; the input must be written to a file first"
            )
        finally:
            os.close(read_end)

    def test_directory_is_rejected(self, tmp_path):
        assert load_error(tmp_path) == (
            f"{tmp_path}: not a regular file; the input must be written to a file first"
        )

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
        assert load_error(path) == f"{path}: {message}"

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
        assert load_error(path) == f"{path}: {message}"

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
        assert load_error(path) == f"{path}: line 3: non-numeric value 'x' in column 't'"
        # values are read in panel order (subject, then t, then column),
        # whatever the file order of the rows
        rows = [list(r) for r in TOY_ROWS]
        rows[2][7] = "late"
        rows[0][4] = "early"
        write_toy_csv(path, [rows[2], rows[0], rows[1]] + rows[3:])
        assert load_error(path) == (
            f"{path}: line 3: non-numeric value 'early' in column 'prob_0'"
        )

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
        assert load_error(crlf) == f"{crlf}: line 4: non-numeric value 'oops' in column 'outcome'"

    def test_whitespace_only_line_counts(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[1][7] = "oops"
        path = tmp_path / "ws.csv"
        write_toy_csv(path, rows)
        head, rest = path.read_text().split("\n", 1)
        path.write_text(f"{head}\n   \n , \n{rest}")
        assert load_error(path) == f"{path}: line 5: non-numeric value 'oops' in column 'outcome'"

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


def load_result(loader, path):
    """What loader makes of path: its DataValidationError message, or the
    dataset's ids and the bytes of every array."""
    try:
        data = loader(str(path))
    except DataValidationError as exc:
        return str(exc)
    arrays = [data.avail, data.trt, data.probs, data.outcome, *data.features.values()]
    return (
        data.subject_ids,
        data.feature_names,
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
    )


scan_csv = mrtcat.data._scan_csv  # load_csv's fallback, a complete loader


def agree(path):
    """load_csv's result on path, after checking that the scanner's is the same."""
    result = load_result(load_csv, path)
    assert result == load_result(scan_csv, path)
    return result


def sorted_result(path):
    """agree(path) with the check for rows in panel order turned off, so
    that every file's rows are grouped by the sort."""
    with mock.patch.object(mrtcat.data, "_ordered_subjects", lambda *args: None):
        return agree(path)


@pytest.fixture
def scans(monkeypatch):
    """The paths load_csv hands to its fallback scanner during a test."""
    calls = []

    def spy(path):
        calls.append(path)
        return scan_csv(path)

    monkeypatch.setattr(mrtcat.data, "_scan_csv", spy)
    return calls


@pytest.fixture
def reads(monkeypatch):
    """The full reads load_csv makes during a test, not its sample reads:
    what np.loadtxt is given ("path" or "handle"), the lines it skips,
    the columns it reads as bytes and the columns it reads as int64."""
    calls = []
    loadtxt = mrtcat.data._loadtxt

    def spy(source, columns, dtypes, skiprows=0):
        if not isinstance(source, list):
            kind = "path" if isinstance(source, str) else "handle"
            as_bytes = sorted(name for name, dtype in dtypes.items() if dtype.startswith("S"))
            ints = sorted(name for name, dtype in dtypes.items() if dtype == "i8")
            calls.append((kind, skiprows, as_bytes, ints))
        return loadtxt(source, columns, dtypes, skiprows)

    monkeypatch.setattr(mrtcat.data, "_loadtxt", spy)
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
            ('"a\r1"', "a\r1"),
            (" a ", "a"),
            ('" a "', "a"),
        ],
    )
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_quoted_and_padded_ids(self, tmp_path, scans, reads, cell, sid, eol):
        rows = [[cell if r[0] == "a" else r[0]] + list(r[1:]) for r in TOY_ROWS]
        path = tmp_path / "ids.csv"
        path.write_bytes(toy_text(rows, eol=eol).encode())
        assert agree(path)[0] == (sid, "b")
        assert scans == []
        # numpy opens a path with universal newlines, which would read a
        # quoted "a\r\n1" as "a\n1": a file with a quote and a CR is
        # handed to it open
        route = "handle" if '"' in cell and "\r" in cell + eol else "path"
        assert {kind for kind, *_ in reads} == {route}

    def test_digit_separator_loads_through_the_scanner(self, tmp_path, scans):
        rows = [list(r) for r in TOY_ROWS]
        rows[4][7] = "1_0"
        path = tmp_path / "underscore.csv"
        path.write_text(toy_text(rows))
        data = load_csv(str(path))
        assert scans == [str(path)]
        assert data.outcome[1, 1] == 10.0
        agree(path)

    @pytest.mark.parametrize("cell", ["\x1c1.5", "1.5\x1d", " \x1e1.5", "1.5\x1f "])
    def test_cell_padded_with_a_separator_control(self, tmp_path, scans, cell):
        # numpy's parser strips U+001C..U+001F around a number, and so must
        # the scanner, which the 1_0 (read by float() alone) makes decide.
        rows = [list(r) for r in TOY_ROWS]
        rows[0][7] = cell
        rows[4][7] = "1_0"
        path = tmp_path / "control.csv"
        path.write_text(toy_text(rows))
        data = load_csv(str(path))
        assert scans == [str(path)]
        assert (data.outcome[0, 0], data.outcome[1, 1]) == (1.5, 10.0)
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

    @pytest.mark.parametrize(
        "points,ordered,message",
        [
            ("a1 a2 a3 b1 b2 b3", True, None),
            ("a1 b2 a3 b1 a2 b3", False, None),  # t in panel order, ids not
            ("a1 a2 a3 b1 b2 b3 a1 a2 a3", False, "duplicate (id, t) = ('a', 1)"),
            ("a1 a2 a3 b1 b2", False, "ragged panel; subject 'b' has 2 points, subject 'a' has 3"),
            ("a1 a2 b1 b2 b3", False, "ragged panel; subject 'b' has 3 points, subject 'a' has 2"),
            ("a1 a2 a3 a4 b1 b2", False, "ragged panel; subject 'b' has 2 points, subject 'a' has 4"),
            ("a1 a2 a4 b1 b2 b3", False, "subject 'a' decision points are not 1..T (got [1, 2, 4]...)"),
            ("a1 a2 a3 b1 b2 b3 short", True, "line 8 has 7 cells, header has 8"),
        ],
    )
    def test_rows_in_panel_order(self, tmp_path, monkeypatch, points, ordered, message):
        # Rows in panel order skip the sort; every file gets the sort's result.
        cells = [1, 0, 0.4, 0.3, 0.3, 0.5]  # avail, trt, prob_0..prob_2, outcome
        lines = [
            ["c", 1, *cells[:-1]] if point == "short" else [point[0], int(point[1:]), *cells]
            for point in points.split()
        ]
        path = tmp_path / "order.csv"
        path.write_text(toy_text(lines))
        check, seen = mrtcat.data._ordered_subjects, []

        def spy(*args):
            seen.append(check(*args))
            return seen[-1]

        monkeypatch.setattr(mrtcat.data, "_ordered_subjects", spy)
        result = agree(path)
        assert seen and all((ids is not None) == ordered for ids in seen)
        if message is None:
            assert result[0] == ("a", "b")
        else:
            assert result == f"{path}: {message}"
        assert result == sorted_result(path)

    @pytest.fixture
    def conversions(self, monkeypatch):
        """The lengths of the bytes columns load_csv converts with float()."""
        lengths = []
        floats = mrtcat.data._floats

        def spy(cells):
            lengths.append(len(cells))
            return floats(cells)

        monkeypatch.setattr(mrtcat.data, "_floats", spy)
        return lengths

    def test_repeated_probability_cells_are_converted_once(self, tmp_path, scans, conversions):
        path = tmp_path / "toy.csv"
        path.write_text(toy_text())
        agree(path)
        assert scans == []
        assert conversions == [3, 3, 3]  # T cells per probability column

    def test_per_subject_probabilities(self, tmp_path, scans):
        rows = [list(r) for r in TOY_ROWS]
        rows[4][4:7] = ["0.5", "0.25", "0.25"]
        path = tmp_path / "varying.csv"
        path.write_text(toy_text(rows))
        assert agree(path)[0] == ("a", "b")
        assert scans == []
        np.testing.assert_array_equal(load_csv(str(path)).probs[1, 1], [0.5, 0.25, 0.25])

    @pytest.mark.parametrize(
        "spell",
        [
            lambda x: f"{x:.18e}",  # numpy's default savetxt format, 24 characters
            lambda x: f"{x:.40f}",  # longer than the bytes field
            lambda x: f" {x!r} ",
            lambda x: f'"{x!r}"',
        ],
        ids=["e18", "longer_than_the_field", "padded", "quoted"],
    )
    def test_probability_spellings(self, tmp_path, scans, spell):
        rows = [r[:4] + [spell(x) for x in r[4:7]] + r[7:] for r in TOY_ROWS]
        path, plain = tmp_path / "spelled.csv", tmp_path / "plain.csv"
        path.write_text(toy_text(rows))
        plain.write_text(toy_text())
        assert agree(path) == agree(plain)
        assert scans == []

    def test_shuffled_rows(self, tmp_path, scans):
        order = (4, 2, 0, 5, 1, 3)
        path, plain = tmp_path / "shuffled.csv", tmp_path / "plain.csv"
        path.write_text(toy_text([TOY_ROWS[i] for i in order]))
        plain.write_text(toy_text([TOY_ROWS[i] for i in (3, 4, 5, 0, 1, 2)]))
        assert agree(path) == agree(plain)
        assert scans == []

    @staticmethod
    def long_panel(cell=None) -> list[list]:
        """A panel with more rows than load_csv samples, probabilities repeated
        at each t; cell=(subject, t, column, text) replaces one cell."""
        t_points = 100
        n = mrtcat.data._SAMPLE_ROWS // t_points + 2
        rows = [
            [f"s{i}", t, 1, (i + t) % 3, "0.4", "0.3", "0.3", repr(0.01 * t - i)]
            for i in range(n)
            for t in range(1, t_points + 1)
        ]
        if cell is not None:
            i, t, col, text = cell
            rows[i * t_points + t - 1][col] = text
        return rows

    @pytest.mark.parametrize(
        "text,converted",
        [
            ("0.30", ["T", "all", "T"]),
            ("3e-1", ["T", "all", "T"]),
            ("0.3" + "0" * 30, ["T"]),
            ("0.3\xa0", ["T", "all"]),
        ],
        ids=["respelled", "exponent", "longer_than_the_field", "nbsp_padded"],
    )
    def test_cell_past_the_sample(self, tmp_path, scans, conversions, text, converted):
        # The sample says that prob_1 repeats; the rest of the file decides.
        # prob_1 is converted cell by cell, unless a cell fills the field;
        # when that or float() fails, the rows are read again, all as f8.
        rows = self.long_panel()
        path, plain = tmp_path / "late.csv", tmp_path / "plain.csv"
        path.write_text(toy_text(self.long_panel((len(rows) // 100 - 1, 7, 5, text))))
        plain.write_text(toy_text(rows))
        expected = agree(plain)
        conversions.clear()
        assert agree(path) == expected
        assert conversions == [{"T": 100, "all": len(rows)}[c] for c in converted]
        assert scans == []

    def test_probability_varying_past_the_sample(self, tmp_path, scans):
        n = len(self.long_panel()) // 100
        path = tmp_path / "late.csv"
        path.write_text(toy_text(self.long_panel((n - 1, 7, 5, "0.35"))))
        with pytest.raises(DataValidationError, match="do not sum to 1"):
            load_csv(str(path))
        agree(path)
        assert scans == []

    @pytest.mark.parametrize("respelled", [False, True], ids=["shared", "respelled"])
    def test_probabilities_repeat_in_and_out_of_panel_order(
        self, tmp_path, scans, conversions, respelled
    ):
        # In panel order, each probability column is compared subject
        # block by subject block with the first subject's cells; only a
        # column that changes bytes past the sample is converted cell by
        # cell.  Rows out of panel order are compared through a gather,
        # to the same dataset.
        rows = self.long_panel()
        cell = (len(rows) // 100 - 1, 7, 5, "0.30") if respelled else None
        ordered, shuffled = tmp_path / "ordered.csv", tmp_path / "shuffled.csv"
        ordered.write_text(toy_text(self.long_panel(cell)))
        swapped = self.long_panel(cell)
        swapped[:2] = swapped[1::-1]  # the first subject's t = 2 before its t = 1
        shuffled.write_text(toy_text(swapped))
        expected = ["T", "all", "T"] if respelled else ["T", "T", "T"]
        for path in (ordered, shuffled):
            conversions.clear()
            result = load_result(load_csv, path)
            assert conversions == [{"T": 100, "all": len(rows)}[c] for c in expected]
        assert result == agree(ordered)
        assert scans == []

    def test_probability_that_differs_late_in_the_last_subject(self, tmp_path, scans):
        # The last cell of a column apart from the others differs from its
        # 19th byte on: the last, partial chunk of subjects is compared too.
        rows = [r[:6] + [repr(float(r[1]))] + r[6:] for r in self.long_panel()]
        for row in rows:
            row[7] = "0.30000000000000000"
        rows[-1][7] = "0.30000000000000004"
        path = tmp_path / "apart.csv"
        path.write_text(toy_text(rows, header="id,t,avail,trt,prob_0,prob_1,x,prob_2,outcome"))
        agree(path)
        assert load_csv(str(path)).probs[-1, -1, 2] == 0.30000000000000004
        assert scans == []

    @pytest.mark.parametrize("text", ["0.3\x00", "0.3\u2003", "\u2003"])
    def test_cells_bytes_cannot_hold(self, tmp_path, scans, text):
        # A NUL would be lost at the end of a bytes cell, and a character
        # past U+00FF does not fit one; numpy's parser or the scanner decides.
        rows = [list(r) for r in TOY_ROWS]
        rows[4][5] = text
        path = tmp_path / "odd.csv"
        path.write_text(toy_text(rows))
        agree(path)
        assert scans == ([] if text == "0.3\u2003" else [str(path)])

    # csv.reader refuses a cell over csv.field_size_limit() characters;
    # numpy's parser has no such limit.
    HUGE_ID = "a" * 140_000

    def test_cell_over_csv_field_limit_loads(self, tmp_path, scans):
        limit = csv.field_size_limit()
        rows = [[self.HUGE_ID if r[0] == "a" else r[0]] + list(r[1:]) for r in TOY_ROWS]
        path, plain = tmp_path / "huge_id.csv", tmp_path / "plain.csv"
        path.write_text(toy_text(rows))
        plain.write_text(toy_text())
        ids, names, arrays = load_result(load_csv, path)
        assert ids == (self.HUGE_ID, "b")
        assert (names, arrays) == load_result(load_csv, plain)[1:]
        assert scans == []
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("row", [0, 4], ids=["first_data_row", "after_a_bad_cell"])
    def test_cell_over_csv_field_limit_in_a_bad_file(self, tmp_path, scans, row):
        # The scanner reads past such a cell (the subject of `row`, whose
        # first row is line 2 or 5) to the bad cell on line 3.
        limit = csv.field_size_limit()
        rows = [list(r) for r in TOY_ROWS]
        rows[1][7] = "oops"
        renamed = rows[row][0]
        for r in rows:
            if r[0] == renamed:
                r[0] = self.HUGE_ID
        path = tmp_path / "huge_bad.csv"
        path.write_text(toy_text(rows))
        with pytest.raises(DataValidationError) as err:
            load_csv(str(path))
        assert str(err.value) == f"{path}: line 3: non-numeric value 'oops' in column 'outcome'"
        assert scans == [str(path)]
        assert csv.field_size_limit() == limit

    def test_header_cell_over_csv_field_limit(self, tmp_path):
        path = tmp_path / "huge_header.csv"
        path.write_text(toy_text(header=TOY_HEADER + "," + self.HUGE_ID))
        with pytest.raises(DataValidationError) as err:
            load_csv(str(path))
        assert str(err.value) == (
            f"{path}: line 1: field larger than field limit ({csv.field_size_limit()})"
        )


ALL_BYTES = ["id", "prob_0", "prob_1", "prob_2"]
INTS = ["avail", "t", "trt"]
BOM = b"\xef\xbb\xbf"


def bench_like_rows(n: int = 25, t_points: int = 210) -> list[list[str]]:
    """A panel's rows as the benchmark writes them: integer ids, t, avail
    and trt, every float with 17 significant digits, probabilities that
    vary over t but not across subjects, and more rows than load_csv
    samples."""
    rng = np.random.default_rng(7)
    active = rng.uniform(0.2, 0.35, size=(t_points, 2))
    probs = [[f"{x:.17g}" for x in (1.0 - a.sum(), *a)] for a in active]
    rows = []
    for i in range(1, n + 1):
        for t in range(1, t_points + 1):
            avail = int(rng.random() < 0.8)
            trt = avail * int(rng.integers(0, 3))
            noise = [f"{x:.17g}" for x in rng.standard_normal(2)]
            rows.append([str(i), str(t), str(avail), str(trt), *probs[t - 1], *noise])
    return rows


def bench_like_text(rows=None) -> str:
    rows = bench_like_rows() if rows is None else rows
    return toy_text(rows, header=TOY_HEADER + ",mood")


def with_id(sid: str, rows=TOY_ROWS, subject: str = "a") -> list[list]:
    """rows with the id cell of subject replaced by sid."""
    return [[sid if r[0] == subject else r[0]] + list(r[1:]) for r in rows]


class TestReadRoutes:
    """np.loadtxt is given the path of a regular file and reads its ids
    as bytes; other files take the open handle or the plain read, with
    the same result."""

    def test_plain_file_takes_the_path(self, tmp_path, reads):
        path = tmp_path / "toy.csv"
        path.write_text(toy_text())
        assert agree(path)[0] == ("a", "b")
        assert reads == [("path", 1, ALL_BYTES, INTS)]

    def test_header_over_two_lines(self, tmp_path, reads):
        rows = [list(r) + [float(i)] for i, r in enumerate(TOY_ROWS)]
        path = tmp_path / "header.csv"
        path.write_text(toy_text(rows, header=TOY_HEADER + ',"mo\nod"'))
        ids, names, _ = agree(path)
        assert (ids, names) == (("a", "b"), ("mo\nod",))
        assert reads == [("path", 2, ALL_BYTES, INTS)]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_read_as_it_is(self, tmp_path, reads, suffix):
        # numpy's opener would decompress a path with this suffix
        plain = tmp_path / "panel.csv"
        plain.write_text(toy_text())
        named = tmp_path / f"panel.csv{suffix}"
        named.write_bytes(plain.read_bytes())
        assert agree(named) == load_result(load_csv, plain)
        assert reads[0] == ("handle", 0, ALL_BYTES, INTS)

    def test_relative_path_shaped_like_a_url_is_a_file(self, tmp_path, monkeypatch, reads):
        # numpy's opener downloads a path it takes for a URL
        def urlopen(*args, **kwargs):
            raise AssertionError("load_csv tried to fetch a URL")

        monkeypatch.setattr("urllib.request.urlopen", urlopen)
        monkeypatch.chdir(tmp_path)
        local = tmp_path / "http:" / "host" / "panel.csv"
        local.parent.mkdir(parents=True)
        local.write_text(toy_text())
        assert agree("http://host/panel.csv")[0] == ("a", "b")
        assert reads == [("path", 1, ALL_BYTES, INTS)]

    @pytest.mark.parametrize("sid", ["é", "a\xa0é ", "0b3c9f1e-6a5d-4c2b-9e8f-7a6b5c4d3e2f"])
    def test_latin1_ids_are_read_as_bytes(self, tmp_path, reads, sid):
        path = tmp_path / "latin1.csv"
        path.write_text(toy_text(with_id(sid)), encoding="utf-8")
        assert agree(path)[0] == (sid.strip(), "b")
        assert reads == [("path", 1, ALL_BYTES, INTS)]

    @pytest.mark.parametrize("sample_rows", [mrtcat.data._SAMPLE_ROWS, 3])
    def test_id_outside_latin1(self, tmp_path, reads, sample_rows):
        # In the first rows, the id is not read as bytes; past them, the
        # bytes read fails and the plain read decides.
        path = tmp_path / "wide.csv"
        path.write_text(toy_text(with_id("Ā", subject="b")), encoding="utf-8")
        with mock.patch.object(mrtcat.data, "_SAMPLE_ROWS", sample_rows):
            assert agree(path)[0] == ("a", "Ā")
        if sample_rows > len(TOY_ROWS):
            assert reads == [("path", 1, ALL_BYTES[1:], INTS)]
        else:
            assert reads == [("path", 1, ALL_BYTES, INTS), ("path", 1, [], [])]

    @pytest.mark.parametrize("extra,fallback", [(0, False), (1, True)])
    def test_id_that_fills_the_field_past_the_sample(self, tmp_path, reads, extra, fallback):
        # The first 3 rows hold only the id "a", so the field is 2 + 8 wide.
        sid = "b" * (2 * 1 + 8 - 1 + extra)
        path = tmp_path / "long.csv"
        path.write_text(toy_text(with_id(sid, subject="b")))
        with mock.patch.object(mrtcat.data, "_SAMPLE_ROWS", 3):
            assert agree(path)[0] == ("a", sid)
        assert reads[0] == ("path", 1, ALL_BYTES, INTS)
        assert reads[1:] == ([("path", 1, [], [])] if fallback else [])

    @pytest.mark.parametrize("extra,fallback", [(0, False), (1, True)])
    def test_probability_that_fills_the_field_past_the_sample(
        self, tmp_path, reads, extra, fallback
    ):
        # A cell one byte short of the field loads in the one read; a cell
        # that fills it may have been cut, so the rows are read again.
        rows = [list(r) for r in TOY_ROWS]
        rows[-1][5] = "0.3".ljust(mrtcat.data._PROB_WIDTH - 1 + extra, "0")
        path = tmp_path / "long_prob.csv"
        path.write_text(toy_text(rows))
        with mock.patch.object(mrtcat.data, "_SAMPLE_ROWS", 3):
            assert agree(path)[0] == ("a", "b")
        assert reads[0] == ("path", 1, ALL_BYTES, INTS)
        assert reads[1:] == ([("path", 1, [], [])] if fallback else [])

    def test_bench_like_panel_is_one_int64_read(self, tmp_path, reads):
        path = tmp_path / "panel.csv"
        path.write_text(bench_like_text())
        ids, names, arrays = agree(path)
        assert (len(ids), names) == (25, ("mood",))
        assert reads == [("path", 1, ALL_BYTES, INTS)]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1.0", None),
            ("+1", None),
            ("01", None),
            ("9007199254740992", "treatment 9007199254740992 outside 0..2"),
            # beyond 2**53, so read again as f8, which words it as f8 rounds it
            ("9007199254740993", "treatment 9007199254740992 outside 0..2"),
        ],
    )
    def test_integer_cell_past_the_sample(self, tmp_path, reads, text, message):
        rows = bench_like_rows()
        row = next(r for r in reversed(rows) if r[3] == "1")  # the last subject's
        plain, path = tmp_path / "plain.csv", tmp_path / "late.csv"
        plain.write_text(bench_like_text(rows))
        row[3] = text
        path.write_text(bench_like_text(rows))
        expected = load_result(load_csv, plain)
        reads.clear()
        result = agree(path)
        if message is None:
            assert result == expected
        else:
            assert result == f"{path}: {message} (subject {row[0]!r}, t={row[1]})"
        # numpy's integer parser takes +1, 01 and 2**53 in the one read
        fallback = text in ("1.0", "9007199254740993")
        assert reads[0] == ("path", 1, ALL_BYTES, INTS)
        assert reads[1:] == ([("path", 1, [], [])] if fallback else [])

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("past_the_sample", [False, True], ids=["sample", "past"])
    @pytest.mark.parametrize("column,text", [(3, "1.5"), (2, "0.5"), (1, "2.5"), (3, "nan")])
    def test_decimal_integer_cell_with_deprecations_ignored(
        self, tmp_path, reads, past_the_sample, column, text
    ):
        # With Python's default warning filters an integer parser that
        # truncates 1.5 with a DeprecationWarning would load the file;
        # load_csv rejects the cell as the scanner does.
        rows = bench_like_rows()
        rows[-1 if past_the_sample else 0][column] = text
        path = tmp_path / "decimal.csv"
        path.write_text(bench_like_text(rows))
        line = len(rows) + 1 if past_the_sample else 2
        name = ["t", "avail", "trt"][column - 1]
        assert agree(path) == f"{path}: line {line}: column {name!r} must be an integer"
        assert reads[0][3] == (INTS if past_the_sample else [])

    def test_decimal_integer_cell_from_the_command_line(self, tmp_path):
        # A child process runs with Python's default warning filters, not
        # with the test run's.
        rows = bench_like_rows()
        rows[-1][3] = "1.5"
        path = tmp_path / "decimal.csv"
        path.write_text(bench_like_text(rows))
        src = str(Path(mrtcat.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        argv = ["estimate", "--data", str(path), "--f-cols", "intercept", "--g-cols", "mood"]
        result = subprocess.run(
            [sys.executable, "-m", "mrtcat.cli", *argv, "--out", str(tmp_path / "x.json")],
            capture_output=True, text=True, env=dict(env, PYTHONPATH=src), timeout=120,
        )
        assert result.returncode == 2
        message = f"{path}: line {len(rows) + 1}: column 'trt' must be an integer"
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "x.json").exists()

    def test_integer_parser_that_truncates_decimals_is_not_used(self, tmp_path, reads, monkeypatch):
        # numpy versions whose integer parser reads 1.5 as 1, with a
        # DeprecationWarning, leave every file's t, avail and trt to f8.
        loadtxt = np.loadtxt

        def truncating(lines, dtype):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                          DeprecationWarning, stacklevel=2)
            return np.array([int(float(lines[0]))], dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", truncating)
        assert not mrtcat.data._rejects_decimal_integers()
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert mrtcat.data._rejects_decimal_integers() == mrtcat.data._INT64_READS
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            for text in ("1.5", "1.0", "nan", "1e0") if mrtcat.data._INT64_READS else ():
                with pytest.raises(ValueError):
                    np.loadtxt([text], dtype="i8")
        path = tmp_path / "panel.csv"
        path.write_text(bench_like_text())
        expected = agree(path)
        monkeypatch.setattr(mrtcat.data, "_INT64_READS", False)
        reads.clear()
        assert agree(path) == expected
        assert reads == [("path", 1, ALL_BYTES, [])]

    def test_ids_that_differ_in_padding_alone_are_one_subject(self, tmp_path, reads):
        path = tmp_path / "padded.csv"
        path.write_text(toy_text(with_id(" a ", subject="b")))
        assert agree(path) == f"{path}: duplicate (id, t) = ('a', 1)"
        assert reads == [("path", 1, ALL_BYTES, INTS)]

    @pytest.mark.parametrize(
        "cell,eol", [("a", "\n"), ('"a"', "\r\n")], ids=["path", "handle"]
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, reads, cell, eol):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        text = toy_text(with_id(cell), eol=eol).encode()
        plain.write_bytes(text)
        marked.write_bytes(BOM + text)
        assert agree(marked) == agree(plain)
        assert reads[0][0] == reads[-1][0] == ("path" if eol == "\n" else "handle")

    def test_byte_order_mark_elsewhere_is_text(self, tmp_path):
        rows = [list(r) for r in TOY_ROWS]
        rows[1][7] = "\ufeff-0.2"
        path = tmp_path / "cell.csv"
        for head in (b"", BOM):
            path.write_bytes(head + toy_text(rows).encode())
            assert agree(path) == (
                f"{path}: line 3: non-numeric value '\\ufeff-0.2' in column 'outcome'"
            )
        path.write_bytes(BOM + BOM + toy_text().encode())
        assert agree(path) == f"{path}: missing required column 'id'"


ID_CHARS = "ab ,\"\n\r\téĀ"
# Cells numpy's integer parser takes or rejects, and integers at the
# edges of the range f8 holds exactly and of int64.
INTEGER_SPELLINGS = (
    "+1", "01", "1.0", "9007199254740993", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808",
)
ODD_CELLS = (
    "", "  ", "oops", "1_0", "+Infinity", "nan", "-inf", "1e300", "2.5", " 0.5 ",
    "-0", "1e0", "\u0661", "\xa01", '"1"', "0x1", "\x1c1", "0\x1d", " \x1e0.5", "1e0\x1f",
    *INTEGER_SPELLINGS,
)


def quote_id(sid: str, style: str) -> str:
    """sid as a CSV cell: raw, quoted, padded, or (plain) quoted only if it must be."""
    quoted = '"' + sid.replace('"', '""') + '"'
    if style == "plain":
        style = "quoted" if set(sid) & set(',"\r\n') else "raw"
    return {"raw": sid, "quoted": quoted, "padded": f" {quoted} "}[style]


PROB_VECTORS = (("0.5", "0.25", "0.25"), ("0.4", "0.3", "0.3"))


def spellings(value: str) -> list[str]:
    """CSV cells for the probability value: as given, with a trailing
    zero, padded, in exponent form, quoted, in numpy's default %.18e (24
    characters) and too long for load_csv's bytes field."""
    x = float(value)
    return [
        value, value + "0", f" {value} ", f"{x * 10:g}e-1", f'"{value}"', f"{x:.18e}",
        value + "0" * 30,
    ]


@st.composite
def prob_cells(draw, vector: tuple[str, ...]) -> list[str]:
    return [draw(st.sampled_from(spellings(value))) for value in vector]


@st.composite
def csv_texts(draw):
    """A small panel file, with awkward ids (some outside Latin-1, some
    long), probabilities spelled alike or
    not (and varying across subjects or not) at each t, rows in panel
    order or shuffled, and a few of the irregularities that make a file
    load differently or fail."""
    n, t_points = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    short = st.text(ID_CHARS, min_size=1, max_size=3)
    # longer than load_csv's bytes field for the short ids, or than any
    # id it reads as bytes
    long = st.text(ID_CHARS, min_size=15, max_size=70)
    sid = st.one_of(short, short, short, long)
    ids = draw(st.lists(sid, min_size=n, max_size=n, unique_by=str.strip))
    style = st.sampled_from(["plain", "plain", "plain", "quoted", "padded", "raw"])
    styles = draw(st.lists(style, min_size=n, max_size=n))
    value = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    vectors = [draw(st.sampled_from(PROB_VECTORS)) for _ in range(t_points)]
    shared = [draw(prob_cells(vector)) for vector in vectors]
    vary = draw(st.sampled_from(["none", "spelling", "value"]))
    rows = []
    for i in range(n):
        for t in range(1, t_points + 1):
            avail = draw(st.integers(0, 1))
            trt = avail * draw(st.integers(0, 2))
            probs = shared[t - 1]
            if vary != "none" and draw(st.booleans()):
                vector = draw(st.sampled_from(PROB_VECTORS)) if vary == "value" else vectors[t - 1]
                probs = draw(prob_cells(vector))
            rows.append(
                [quote_id(ids[i], styles[i]), str(t), str(avail), str(trt),
                 *probs, draw(value), draw(value)]
            )
    if draw(st.booleans()):  # else the rows stay in (subject, t) order
        rows = draw(st.permutations(rows))
    # One odd cell alone, so that no other irregularity decides the result
    # first, or up to two irregularities of any kind.
    kinds = ["odd"] if draw(st.integers(0, 3)) == 0 else [
        draw(st.sampled_from(["odd", "short", "long", "duplicate", "gap", "t", "trt"]))
        for _ in range(draw(st.integers(0, 2)))
    ]
    for kind in kinds:
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(1, len(rows[row]) - 1))
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
            cell = draw(st.sampled_from(["1.5", "0.5", "2.0", "1e0", *INTEGER_SPELLINGS]))
            rows[row][1 if kind == "t" else 3] = cell
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t", " , "])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", "", eol, eol * 2]))
    return eol.join([TOY_HEADER + ",x"] + lines) + eol + tail


class TestLoaderDifferential:
    @settings(max_examples=300, deadline=None)
    @given(csv_texts(), st.sampled_from([1, 2, 5, mrtcat.data._SAMPLE_ROWS]))
    def test_load_csv_agrees_with_scanner(self, text, sample_rows):
        # A short sample leaves rows past it for the full read to decide.
        with (
            tempfile.TemporaryDirectory() as tmp,
            mock.patch.object(mrtcat.data, "_SAMPLE_ROWS", sample_rows),
        ):
            path = Path(tmp) / "panel.csv"
            path.write_bytes(text.encode())
            agree(path)

    @settings(max_examples=150, deadline=None)
    @given(csv_texts())
    def test_rows_in_panel_order_load_as_sorted(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            path.write_bytes(text.encode())
            assert agree(path) == sorted_result(path)


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
        assert mrtcat.data.validate(data) == ()

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

    @pytest.mark.parametrize(
        "name, shape, message",
        [
            ("trt", (1, 3), "treatment array shape mismatch"),
            ("outcome", (2, 2), "outcome array shape mismatch"),
            ("probs", (1, 2, 3), "probability array shape mismatch"),
            ("features", (1, 3), "feature 'z' shape mismatch"),
        ],
    )
    def test_shape_mismatch_rejected(self, name, shape, message):
        arrays = dict(
            avail=np.ones((1, 2)), trt=np.zeros((1, 2)), probs=np.full((1, 2, 2), 0.5),
            outcome=np.zeros((1, 2)), features={"z": np.zeros((1, 2))},
        )
        if name == "features":
            arrays["features"] = {"z": np.zeros(shape)}
        else:
            arrays[name] = np.zeros(shape)
        with pytest.raises(DataValidationError, match=exactly(message)):
            MrtDataset(subject_ids=("s1",), k_arms=1, **arrays)

    @pytest.mark.parametrize("shape", [(), (2,), (1, 2, 1)], ids=["0-D", "1-D", "3-D"])
    def test_availability_of_wrong_rank_rejected(self, shape):
        # checked before its shape is unpacked into n and T
        arrays = dict(
            avail=np.ones(shape), trt=np.zeros((1, 2)), probs=np.full((1, 2, 2), 0.5),
            outcome=np.zeros((1, 2)), features={},
        )
        message = f"availability array shape mismatch: expected (n, T), got {shape}"
        with pytest.raises(DataValidationError, match=exactly(message)):
            MrtDataset(subject_ids=("s1",), k_arms=1, **arrays)

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


def shared_storage(probs) -> bool:
    """Whether a dataset's probs are one table broadcast over the subjects."""
    return probs.strides[0] == 0


class TestStoredProbs:
    """Probabilities every subject shares bitwise are stored once, as a
    read-only (n, T, K+1) broadcast of the dataset's own table; others
    are stored in full.  Both hold the caller's values, byte for byte."""

    TABLE = np.array([[0.5, 0.25, 0.25], [0.4, 0.3, 0.3], [0.7, 0.2, 0.1]])

    @staticmethod
    def dataset(probs) -> MrtDataset:
        n = len(probs)
        return MrtDataset(
            subject_ids=tuple(f"s{i}" for i in range(n)),
            avail=np.ones((n, 3), dtype=np.int64),
            trt=np.tile([0, 1, 2], (n, 1)),
            probs=probs,
            outcome=np.zeros((n, 3)),
            features={},
            k_arms=2,
        )

    @pytest.mark.parametrize("source", ["broadcast", "copy", "list"])
    def test_shared_table_is_stored_once(self, source):
        probs = np.broadcast_to(self.TABLE, (4, 3, 3))
        given = {"broadcast": probs, "copy": probs.copy(), "list": probs.tolist()}[source]
        data = self.dataset(given)
        assert shared_storage(data.probs)
        assert (data.probs.shape, data.probs.dtype) == ((4, 3, 3), np.dtype(float))
        assert data.probs.tobytes() == probs.tobytes()
        assert not np.shares_memory(data.probs, self.TABLE)

    @pytest.mark.parametrize("change", ["ulp", "negative_zero"])
    def test_subject_that_differs_bitwise_keeps_full_storage(self, change):
        table = self.TABLE.copy()
        table[1] = [0.5, 0.5, 0.0]
        probs = np.broadcast_to(table, (4, 3, 3)).copy()
        if change == "ulp":
            probs[2, 0, 1] = np.nextafter(0.25, 1.0)
        else:
            probs[3, 1, 2] = -0.0
        data = self.dataset(probs)
        assert not shared_storage(data.probs)
        assert data.probs.tobytes() == probs.tobytes()
        negative = [False, False, False, change == "negative_zero"]
        assert np.signbit(data.probs[:, 1, 2]).tolist() == negative

    @pytest.mark.parametrize("source", ["broadcast", "copy", "varying"])
    def test_callers_array_change_leaves_probs_alone(self, source):
        table = self.TABLE.copy()
        if source == "broadcast":
            given, caller = np.broadcast_to(table, (4, 3, 3)), table
        else:
            given = caller = np.broadcast_to(table, (4, 3, 3)).copy()
            if source == "varying":
                caller[3, 2] = [0.6, 0.3, 0.1]
        data = self.dataset(given)
        before = data.probs.tobytes()
        caller[...] = 0.0
        assert data.probs.tobytes() == before
        assert not data.probs.flags.writeable
        with pytest.raises(ValueError):
            data.probs[0, 0, 0] = 1.0
        # freezing the dataset's arrays leaves the caller's array writable
        assert given.flags.writeable == (source != "broadcast")

    def test_validate_checks_a_shared_table_once(self):
        table = self.TABLE.copy()
        table[2] = [0.7, 0.3, 0.0]
        message = "realized arm has zero probability (subject 's0', t=3, arm 2)"
        with pytest.raises(DataValidationError, match=exactly(message)):
            self.dataset(np.broadcast_to(table, (4, 3, 3)))
        table = self.TABLE.copy()
        table[1] = [0.4, 0.3, 0.4]
        message = "probabilities do not sum to 1 (subject 's0', t=2, sum=1.1)"
        with pytest.raises(DataValidationError, match=exactly(message)):
            self.dataset(np.broadcast_to(table, (4, 3, 3)))

    @staticmethod
    def panel_file(path, respell=None):
        """A simulated panel written by write_csv, with respell applied to
        the probability cells of the fourth subject at t = 2."""
        config = GenerativeConfig(
            family="gm0", t_points=5, rand_probs=np.array([0.4, 0.3]), tau_curve=np.ones(5)
        )
        write_csv(simulate_trial(config, 7, seed=3), str(path))
        header, *rows = path.read_text().splitlines()
        if respell is not None:
            fields = rows[3 * 5 + 1].split(",")
            assert fields[:2] == ["4", "2"]
            fields[4:7] = respell(fields[4:7])
            rows[3 * 5 + 1] = ",".join(fields)
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    @pytest.mark.parametrize(
        "respell,passed,stored",
        [
            (None, True, True),
            # the same floats in other bytes: found by value
            (lambda cells: [f"{float(c):.18e}" for c in cells], False, True),
            # prob_1 one ulp up: kept in full
            (lambda cells: [cells[0], repr(np.nextafter(float(cells[1]), 1.0).item()), cells[2]],
             False, False),
        ],
        ids=["repeated", "respelled", "one_ulp_off"],
    )
    def test_load_csv_passes_a_repeated_table_as_a_broadcast(
        self, tmp_path, monkeypatch, respell, passed, stored
    ):
        plain = load_csv(str(self.panel_file(tmp_path / "plain.csv")))
        path = self.panel_file(tmp_path / "panel.csv", respell)
        given = []
        copy_probs = mrtcat.data._copy_probs

        def spy(probs):
            given.append(shared_storage(probs))
            return copy_probs(probs)

        monkeypatch.setattr(mrtcat.data, "_copy_probs", spy)
        data = load_csv(str(path))
        assert given == [passed]
        assert shared_storage(data.probs) == stored
        assert agree(path)[2] == [
            (a.dtype.str, a.shape, a.tobytes())
            for a in (data.avail, data.trt, data.probs, data.outcome, *data.features.values())
        ]
        assert (data.probs.tobytes() == plain.probs.tobytes()) == stored


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

    def test_table_policy_compares_and_hashes_by_value(self):
        table = np.array([[0.5, 0.25, 0.25], [0.4, 0.3, 0.3]])
        policy = NumeratorPolicy("user_supplied", table=table)
        same = NumeratorPolicy("user_supplied", table=table.tolist())
        assert policy == same and hash(policy) == hash(same)
        assert policy != NumeratorPolicy("user_supplied", table=table[::-1])
        spec = ModelSpec(numerator=policy)
        assert spec == ModelSpec(numerator=same) and hash(spec) == hash(ModelSpec(numerator=same))
        assert ModelSpec() == ModelSpec()
        table[0] = [0.2, 0.4, 0.4]  # the policy keeps its own copy
        assert policy == same
        data = make_dataset(trt=[[0, 1], [2, 0]], outcome=np.zeros((2, 2)))
        np.testing.assert_allclose(
            fit_numerator_probs(data, policy), [[0.5, 0.25, 0.25], [0.4, 0.3, 0.3]], atol=1e-9
        )

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
