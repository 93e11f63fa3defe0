"""Output checks for every ``bellepr`` invocation the benchmark makes.

A ``correlate`` CSV is read by header name and only ``epr_value`` (with
``err_estimate`` for its bound) is checked: the numerator/denominator scale
and the ``bell_residual_max`` column may legitimately change.  Reference
values, recorded for the default seed, are compared at a relative tolerance
near roundoff, never bytewise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: Relative tolerance against the recorded values; the floor keeps a value
#: that is itself close to zero from demanding a tighter absolute match than
#: the summation order of an O(1) correlation allows.
RTOL = 1e-9
ABS_FLOOR = 1e-6

ORACLE_PASS = "RESULT PASS (18/18 checks)"
DIAGNOSE_PASS = "RESULT PASS"


def load_reference() -> dict[str, list[float]]:
    """Recorded ``epr_value`` lists keyed by the config text's sha256."""
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())["values"]


def read_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of a ``correlate`` CSV, skipping ``#`` metadata lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def epr_values(text: str) -> list[float]:
    _, rows = read_csv(text)
    return [float(r["epr_value"]) for r in rows]


def check_correlate(
    text: str, expected_rows: int, reference: list[float] | None = None
) -> list[str]:
    """Problems with a ``correlate`` CSV; empty when it passes."""
    header, rows = read_csv(text)
    missing = {"epr_value", "err_estimate"} - set(header)
    if missing:
        return [f"CSV header lacks {sorted(missing)}"]
    if len(rows) != expected_rows:
        return [f"{len(rows)} rows, expected {expected_rows}"]
    problems = []
    for i, row in enumerate(rows):
        try:
            value = float(row["epr_value"])
            err = float(row["err_estimate"])
        except (TypeError, ValueError):
            problems.append(f"row {i}: unreadable epr_value/err_estimate")
            continue
        if not (math.isfinite(value) and math.isfinite(err) and err >= 0.0):
            problems.append(f"row {i}: non-finite value {value!r} or error {err!r}")
        elif abs(value) > 1.0 + err:
            problems.append(f"row {i}: |E|={abs(value):.6g} exceeds 1 + err_estimate")
        if reference is not None:
            ref = reference[i]
            if not abs(value - ref) <= RTOL * max(abs(ref), ABS_FLOOR):
                problems.append(f"row {i}: epr_value {value!r} differs from reference {ref!r}")
    return problems


def check_result_line(stdout: str, expected: str) -> list[str]:
    """The report's ``RESULT`` line must start with ``expected``."""
    results = [ln for ln in stdout.splitlines() if ln.startswith("RESULT")]
    if not results:
        return ["no RESULT line in the report"]
    if not results[-1].startswith(expected):
        return [f"report ends {results[-1]!r}, expected {expected!r}"]
    return []


def check_version(stdout: str) -> list[str]:
    return [] if stdout.startswith("bellepr ") else [f"unexpected --version output {stdout!r}"]
