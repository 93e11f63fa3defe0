"""The demo sweeps, their diagnose reports, the oracle-verify reports and the
frame-asymmetry witness against the recorded files in tests/golden/.

A change that is meant to leave the numbers alone must reproduce these
files.  For the CSVs: the header lines byte for byte (except the version
line), the sweep values exactly, numerator, denominator, epr_value and
bell_residual_max to 1e-12 relative, and err_estimate to its own roundoff
floor 64 eps (1 + |E|) absolute (it is a difference of two sums of order
1e-9, so a relative bound fails on the last bits of those sums).  For the
check reports (diagnose on the four demos; oracle-verify on
demos/oracle_default.yaml at n_osc 1, 2 and 3 and with fault_scale 2.0,
which exits 1): every line except the version line as printed, except the
roundoff-level values, which only have to stay at roundoff level: a PASS
CHECK keeps its name, order, status and threshold and its residual at or
below that threshold, and an INFO value of at most 1e-12 stays at or below
1e-12; FAIL lines and the RESULT line match as printed.  The oracle
variants are made by text substitution on the demo file, so their
config-sha256 lines are reproducible.  The witness's stdout must match as
printed.  The tolerances keep the check stable across BLAS builds.  A
deliberate change to the numbers records new files here and says so in
CHANGES.md.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

from bellepr.cli import EXIT_CHECK_FAILED, EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
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
    golden = GOLDEN / f"{demo}.csv"
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
    """A report line as its whitespace-separated fields (CHECK: kind, name,
    status, residual, "(<=", threshold; INFO: kind, name, value)."""
    return line.replace(")", "").split()


def assert_report_matches(text: str, golden: str) -> None:
    """A check report against its golden, by the rules in the module docstring."""
    lines, gold_lines = text.splitlines(), golden.splitlines()
    assert lines[0].split()[:3] == gold_lines[0].split()[:3]
    assert len(lines) == len(gold_lines)
    for line, gold in zip(lines[1:], gold_lines[1:]):
        fields, gold_fields = report_fields(line), report_fields(gold)
        if gold_fields[0] == "CHECK" and gold_fields[2] == "PASS":
            # the residual is roundoff; PASS keeps it at or below the threshold
            assert fields[:3] + fields[5:] == gold_fields[:3] + gold_fields[5:], line
            assert float(fields[3]) <= float(fields[5]), line
        elif gold_fields[0] == "INFO" and float(gold_fields[2]) <= INFO_ROUNDOFF:
            assert fields[:2] == gold_fields[:2], line
            assert float(fields[2]) <= INFO_ROUNDOFF, line
        else:
            assert line == gold


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_diagnose_matches_golden(demo, tmp_path):
    out = tmp_path / f"{demo}.diagnose.txt"
    assert main(["diagnose", str(ROOT / "demos" / f"{demo}.yaml"), "--out", str(out)]) == EXIT_OK
    assert_report_matches(
        out.read_text(encoding="utf-8"),
        (GOLDEN / f"{demo}.diagnose.txt").read_text(encoding="utf-8"),
    )


@pytest.mark.parametrize(
    "variant, old, new, code",
    [
        ("n_osc1", "n_osc: 2", "n_osc: 1", EXIT_OK),
        ("n_osc2", "n_osc: 2", "n_osc: 2", EXIT_OK),
        ("n_osc3", "n_osc: 2", "n_osc: 3", EXIT_OK),
        ("fault_scale2", "fault_scale: 1.0", "fault_scale: 2.0", EXIT_CHECK_FAILED),
    ],
)
def test_oracle_verify_matches_golden(variant, old, new, code, tmp_path):
    raw = (ROOT / "demos" / "oracle_default.yaml").read_bytes()
    assert old.encode() in raw
    config = tmp_path / f"oracle_{variant}.yaml"
    config.write_bytes(raw.replace(old.encode(), new.encode()))
    out = tmp_path / f"oracle_{variant}.txt"
    assert main(["oracle-verify", str(config), "--out", str(out)]) == code
    assert_report_matches(
        out.read_text(encoding="utf-8"),
        (GOLDEN / f"oracle_default.{variant}.oracle-verify.txt").read_text(encoding="utf-8"),
    )


def test_frame_asymmetry_witness_matches_golden(capsys):
    runpy.run_path(str(ROOT / "demos" / "frame_asymmetry_witness.py"), run_name="__main__")
    golden = (GOLDEN / "frame_asymmetry_witness.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
