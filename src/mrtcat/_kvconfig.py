"""Flat key=value config files used by the samplesize and simulate commands,
and the numeric rows of contrasts, numerator tables and mee_coeffs."""

from __future__ import annotations

from collections.abc import Iterable

from .errors import DataValidationError

__all__ = ["parse_kv_file", "parse_kv_text", "get_float", "get_int", "get_floats", "parse_rows"]


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataValidationError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataValidationError(f"{source}:{lineno}: empty key")
        if key in out:
            raise DataValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_kv_file(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return parse_kv_text(handle.read(), source=path)


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise DataValidationError(f"config is missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise DataValidationError(f"config key {key!r} must be a number, got {cfg[key]!r}") from exc


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    value = get_float(cfg, key, default if default is None else float(default))
    if not value.is_integer():
        raise DataValidationError(f"config key {key!r} must be an integer, got {cfg[key]!r}")
    return int(value)


def get_floats(cfg: dict[str, str], key: str) -> list[float]:
    if key not in cfg:
        raise DataValidationError(f"config is missing required key {key!r}")
    try:
        return [float(cell) for cell in cfg[key].split(",") if cell.strip()]
    except ValueError as exc:
        raise DataValidationError(f"config key {key!r} must be a comma list of numbers") from exc


def parse_rows(lines: Iterable[str], what: str) -> list[list[float]]:
    """Comma-separated numeric rows, one per line; '#' starts a comment and
    blank rows are skipped.  A bad cell or a row whose length differs from
    the first row's raises DataValidationError naming `what` and the
    1-based row (the line of a file)."""
    rows: list[list[float]] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            values = [float(cell) for cell in line.split(",")]
        except ValueError as exc:
            raise DataValidationError(f"{what}: row {number}: {exc}") from None
        if rows and len(values) != len(rows[0]):
            raise DataValidationError(
                f"{what}: row {number} has {len(values)} entries, expected {len(rows[0])}"
            )
        rows.append(values)
    return rows
