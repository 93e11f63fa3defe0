"""The four demo sweeps and their diagnose reports against the recorded files
in tests/golden/.

A change that is meant to leave the numbers alone must reproduce these
files.  For the CSVs: the header lines byte for byte (except the version
line), the sweep values exactly, numerator, denominator, epr_value and
bell_residual_max to 1e-12 relative, and err_estimate to its own roundoff
floor 64 eps (1 + |E|) absolute (it is a difference of two sums of order
1e-9, so a relative bound fails on the last bits of those sums).  For the
diagnose reports: every line except the version line as printed, except
the roundoff-level values, which only have to stay at roundoff level: a
CHECK residual at or below its threshold, an INFO value of at most 1e-12
at or below 1e-12.  The tolerances keep the check stable across BLAS
builds.  A deliberate change to the numbers records new files here and
says so in CHANGES.md.
"""

from pathlib import Path

import numpy as np
import pytest

from bellepr.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["bell11_n_sweep", "bell21_rest_sweep", "case1_joint_boost", "case2_single_arm_boost"]
RTOL = 1e-12
ERR_FLOOR = 64.0 * np.finfo(np.float64).eps


def split(text: str) -> tuple[list[str], list[list[str]]]:
    """Header lines (comments and the column line) and the data fields."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#") or line.startswith("sweep_value")]
    rows = [line.split(",") for line in lines[len(header):]]
    return header, rows


def column(rows: list[list[str]], index: int) -> np.ndarray:
    return np.array([float(row[index]) if row[index] else np.nan for row in rows])


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_csv_matches_golden(demo, tmp_path):
    out = tmp_path / f"{demo}.csv"
    assert main(["correlate", str(ROOT / "demos" / f"{demo}.yaml"), "--out", str(out)]) == EXIT_OK
    header, rows = split(out.read_text(encoding="utf-8"))
    golden = ROOT / "tests" / "golden" / f"{demo}.csv"
    gold_header, gold_rows = split(golden.read_text(encoding="utf-8"))

    assert header[0].startswith("# bellepr correlate ")
    assert header[1:] == gold_header[1:]
    names = header[-1].split(",")
    assert len(rows) == len(gold_rows)
    assert [row[0] for row in rows] == [row[0] for row in gold_rows]
    for name in ("numerator", "denominator", "epr_value", "bell_residual_max"):
        i = names.index(name)
        np.testing.assert_allclose(
            column(rows, i), column(gold_rows, i), rtol=RTOL, atol=0.0, err_msg=name
        )
    value = column(gold_rows, names.index("epr_value"))
    i = names.index("err_estimate")
    gap = np.abs(column(rows, i) - column(gold_rows, i))
    assert np.all(gap <= ERR_FLOOR * (1.0 + np.abs(value))), gap


#: An INFO value at or below this is roundoff and compared as such.
INFO_ROUNDOFF = 1e-12


def report_fields(line: str) -> list[str]:
    """A diagnose line as its whitespace-separated fields (CHECK: kind, name,
    status, residual, "(<=", threshold; INFO: kind, name, value)."""
    return line.replace(")", "").split()


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_diagnose_matches_golden(demo, tmp_path):
    out = tmp_path / f"{demo}.diagnose.txt"
    assert main(["diagnose", str(ROOT / "demos" / f"{demo}.yaml"), "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    golden = ROOT / "tests" / "golden" / f"{demo}.diagnose.txt"
    gold_lines = golden.read_text(encoding="utf-8").splitlines()

    assert lines[0].startswith("# bellepr diagnose ")
    assert len(lines) == len(gold_lines)
    for line, gold in zip(lines[1:], gold_lines[1:]):
        fields, gold_fields = report_fields(line), report_fields(gold)
        if gold_fields[0] == "CHECK":
            # the residual is roundoff; PASS keeps it at or below the threshold
            assert fields[:3] + fields[5:] == gold_fields[:3] + gold_fields[5:], line
        elif gold_fields[0] == "INFO" and float(gold_fields[2]) <= INFO_ROUNDOFF:
            assert fields[:2] == gold_fields[:2], line
            assert float(fields[2]) <= INFO_ROUNDOFF, line
        else:
            assert line == gold
