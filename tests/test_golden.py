"""Committed outputs of the command line, rerun through mrtcat.cli.main.

Each directory under tests/golden holds a manifest.json of invocations and
the files they wrote when the manifest was last regenerated.  A case runs
main(argv + ["--out", path]) and must exit with the recorded code; a
successful case must write its recorded output and nothing to stderr, a
failing one must write its recorded stderr and no output file.

Outputs are compared field by field: JSON structure, keys, integers,
strings and every CSV cell that is not a float exactly, and floats within
the manifest's max_ulps, because another CPU or library build need not
reproduce the last bit.  Where numpy, scipy and their BLAS builds match
the versions the manifest records, the bytes must match as well.

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


def run_case(case: dict, folder: Path, out: Path) -> tuple[int, str]:
    """Run one manifest case, writing to out: (exit code, stderr)."""
    argv = [arg.replace("{dir}", str(folder)) for arg in case["argv"]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    return code, err.getvalue()


def same_float(a: float, b: float, max_ulps: int) -> bool:
    return a == b or abs(a - b) <= max_ulps * math.ulp(max(abs(a), abs(b)))


def is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def assert_cells_close(got: str, want: str, max_ulps: int, where: str) -> None:
    if got == want:
        return
    assert not (is_int(got) or is_int(want)), f"{where}: {got!r} != {want!r}"
    assert same_float(float(got), float(want), max_ulps), f"{where}: {got!r} != {want!r}"


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
    out = tmp_path / (case.get("out") or "out")
    code, err = run_case(case, folder, out)
    assert code == case["exit"], err
    if "out" in case:
        assert err == ""
        got = out.read_text(encoding="utf-8")
        want = (folder / case["out"]).read_text(encoding="utf-8")
        assert_output_close(got, want, case["out"], manifest["max_ulps"])
    else:
        assert not out.exists()
        got, want = err, (folder / case["stderr"]).read_text(encoding="utf-8")
    if versions() == manifest["versions"]:
        assert got == want


def test_float_comparison_is_bounded_in_ulps():
    assert same_float(0.1, 0.1 + 2 * math.ulp(0.1), 4)
    assert not same_float(0.1, 0.1 + 8 * math.ulp(0.1), 4)
    with pytest.raises(AssertionError):
        assert_cells_close("93", "94", 4, "n")
    with pytest.raises(AssertionError):
        assert_json_close({"n": 93}, {"n": 93.0}, 4)


def regenerate() -> None:
    """Rewrite every golden file and the versions its manifest records."""
    for path in MANIFESTS:
        folder = path.parent
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for case in manifest["cases"]:
            out = folder / (case.get("out") or "unused.out")
            code, err = run_case(case, folder, out)
            if code != case["exit"]:
                raise SystemExit(f"{case['argv']} exited {code}, not {case['exit']}: {err}")
            if "stderr" in case:
                (folder / case["stderr"]).write_text(err, encoding="utf-8")
        manifest["versions"] = versions()
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(f"regenerated {folder}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
