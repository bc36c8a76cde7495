"""Committed outputs of the command line, rerun through mrtcat.cli.main.

Each directory under tests/golden holds a manifest.json of invocations and
the files they wrote when the manifest was last regenerated.  A case runs
main(argv + ["--out", path]) and must exit with the recorded code; a
successful case must write its recorded output and nothing to stderr, a
failing one must write its recorded stderr and no output file.  A case's
"also" maps further output options (such as simulate's --per-replicate)
to the files they write next to the --out file.

Outputs are compared field by field: JSON structure, keys, integers,
strings and every CSV cell that is not a float exactly, and floats within
the manifest's max_ulps, because another CPU or library build need not
reproduce the last bit.  A rejected input's stderr is compared the same
way: its text exactly, the decimal floats in it within max_ulps.  Where
numpy, scipy and their BLAS builds match the versions the manifest
records, the bytes must match as well.

After an intended change of output, regenerate the files and the recorded
versions from a source checkout with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from mrtcat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = sorted(GOLDEN.glob("*/manifest.json"))


def versions() -> dict[str, str]:
    """The library builds that decide an output's last bits."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version", ""),
        "scipy_blas": scipy.__config__.CONFIG["Build Dependencies"]["blas"].get("version", ""),
    }


def output_names(case: dict) -> list[str]:
    """The files a case writes: its --out file first, then its "also" files."""
    return [case.get("out") or "out", *case.get("also", {}).values()]


def case_argv(case: dict, folder: Path, out_dir: Path) -> list[str]:
    """A case's command line, with every output file in out_dir."""
    argv = [arg.replace("{dir}", str(folder)) for arg in case["argv"]]
    options = ["--out", *case.get("also", {})]
    for option, name in zip(options, output_names(case)):
        argv += [option, str(out_dir / name)]
    return argv


def run_case(case: dict, folder: Path, out_dir: Path) -> tuple[int, str]:
    """Run one manifest case through main: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(case_argv(case, folder, out_dir))
    return code, err.getvalue()


def check_case(
    folder: Path, manifest: dict, case: dict, code: int, err: str, out_dir: Path
) -> None:
    """Assert that a run of case, which wrote into out_dir, gave the
    committed exit code, files and stderr: every byte where the library
    versions are the manifest's, else within its max_ulps."""
    names = output_names(case)
    assert code == case["exit"], err
    exact = versions() == manifest["versions"]
    if "out" in case:
        assert err == ""
        for name in names:
            got = (out_dir / name).read_text(encoding="utf-8")
            want = (folder / name).read_text(encoding="utf-8")
            assert_output_close(got, want, name, manifest["max_ulps"])
            assert got == want or not exact, f"{name} differs from the committed bytes"
    else:
        assert not any((out_dir / name).exists() for name in names)
        want = (folder / case["stderr"]).read_text(encoding="utf-8")
        assert_message_close(err, want, manifest["max_ulps"], case["stderr"])
        assert err == want or not exact, f"{case['stderr']} differs from the committed bytes"


def same_float(a: float, b: float, max_ulps: int) -> bool:
    return a == b or abs(a - b) <= max_ulps * math.ulp(max(abs(a), abs(b)))


def is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def assert_cells_close(got: str, want: str, max_ulps: int, where: str) -> None:
    if got == want:
        return
    assert not (is_int(got) or is_int(want)), f"{where}: {got!r} != {want!r}"
    assert same_float(float(got), float(want), max_ulps), f"{where}: {got!r} != {want!r}"


#: A decimal float as repr writes it: digits with a point or an exponent.
FLOAT_TOKEN = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


def assert_message_close(got: str, want: str, max_ulps: int, where: str) -> None:
    """The text around the floats exactly, each float within max_ulps."""
    assert FLOAT_TOKEN.split(got) == FLOAT_TOKEN.split(want), f"{where}: {got!r} != {want!r}"
    for a, b in zip(FLOAT_TOKEN.findall(got), FLOAT_TOKEN.findall(want)):
        assert same_float(float(a), float(b), max_ulps), f"{where}: {got!r} != {want!r}"


def assert_json_close(got, want, max_ulps: int, where: str = "$") -> None:
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_json_close(got[key], want[key], max_ulps, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_json_close(a, b, max_ulps, f"{where}[{i}]")
    elif isinstance(want, float):
        assert same_float(got, want, max_ulps), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_output_close(got: str, want: str, name: str, max_ulps: int) -> None:
    if name.endswith(".json"):
        assert_json_close(json.loads(got), json.loads(want), max_ulps, name)
        return
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert len(got_rows) == len(want_rows), name
    for i, (a, b) in enumerate(zip(got_rows, want_rows)):
        assert len(a) == len(b), f"{name} row {i}"
        for j, (x, y) in enumerate(zip(a, b)):
            assert_cells_close(x, y, max_ulps, f"{name} row {i} column {j}")


def cases():
    for path in MANIFESTS:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for case in manifest["cases"]:
            name = case.get("out") or case["stderr"]
            yield pytest.param(path.parent, manifest, case, id=f"{path.parent.name}/{name}")


@pytest.mark.parametrize("folder, manifest, case", cases())
def test_output_matches_golden_file(folder, manifest, case, tmp_path):
    code, err = run_case(case, folder, tmp_path)
    check_case(folder, manifest, case, code, err, tmp_path)


def test_float_comparison_is_bounded_in_ulps():
    assert same_float(0.1, 0.1 + 2 * math.ulp(0.1), 4)
    assert not same_float(0.1, 0.1 + 8 * math.ulp(0.1), 4)
    with pytest.raises(AssertionError):
        assert_cells_close("93", "94", 4, "n")
    with pytest.raises(AssertionError):
        assert_json_close({"n": 93}, {"n": 93.0}, 4)


def test_stderr_text_is_compared_on_every_build(tmp_path):
    # a manifest from other library builds: a float of the message may
    # move by a few ulps, any other change of its text still fails
    want = "numerical error: ncfdtr(1.0, 8.0, inf, 5.317655071578713) returned nan\n"
    (tmp_path / "case.err").write_text(want, encoding="utf-8")
    manifest = {"max_ulps": 4, "versions": {"numpy": "0"}}
    case = {"argv": [], "exit": 3, "stderr": "case.err"}
    nudged = want.replace("5.317655071578713", repr(5.317655071578713 + 2 * math.ulp(5.3)))
    check_case(tmp_path, manifest, case, 3, nudged, tmp_path)
    for got in (
        want.replace("returned", "gave"),
        want.replace("5.317655071578713", "5.3176550715787"),
        want.replace("1.0, 8.0", "1.0, 9.0"),
        want.replace("5.317655071578713)", "5.317655071578713, 1.0)"),
    ):
        with pytest.raises(AssertionError):
            check_case(tmp_path, manifest, case, 3, got, tmp_path)


def regenerate() -> None:
    """Rewrite every golden file and the versions its manifest records."""
    for path in MANIFESTS:
        folder = path.parent
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for case in manifest["cases"]:
            code, err = run_case(case, folder, folder)
            if code != case["exit"]:
                raise SystemExit(f"{case['argv']} exited {code}, not {case['exit']}: {err}")
            if "stderr" in case:
                (folder / case["stderr"]).write_text(err, encoding="utf-8")
        manifest["versions"] = versions()
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(f"regenerated {folder}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
