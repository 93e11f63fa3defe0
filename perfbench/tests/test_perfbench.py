"""Tests of the benchmark itself: generator, output checks, tracer, BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import jsonschema
import pytest
import yaml

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bellepr.cli import CONFIG_SCHEMA  # noqa: E402


def _all_jobs(seed: int) -> list:
    out = []
    for name in workloads.WORKLOADS:
        out += list(workloads.jobs(name, seed, cycles=2))
    return out + workloads.probe_jobs(seed)


def test_generator_is_deterministic_per_seed():
    first = [(j.command, j.text) for j in _all_jobs(7)]
    again = [(j.command, j.text) for j in _all_jobs(7)]
    other = [(j.command, j.text) for j in _all_jobs(8)]
    assert first == again
    assert first != other
    # a seed changes parameters, never the shape that sets a cycle's cost
    assert [j.command for j in _all_jobs(7)] == [j.command for j in _all_jobs(8)]
    assert [j.rows for j in _all_jobs(7)] == [j.rows for j in _all_jobs(8)]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generated_configs_pass_the_schema(seed):
    for job in _all_jobs(seed):
        doc = yaml.safe_load(job.text)
        jsonschema.validate(doc, CONFIG_SCHEMA)
        if job.command == "correlate":
            assert doc["sweep"]["count"] == job.rows


def test_cycles_draw_fresh_parameters():
    texts = [j.text for j in workloads.jobs("sweep-lo-res", 0, cycles=3)]
    assert len(set(texts)) == len(texts)


def _csv(values, errs=None, swap=False):
    errs = errs or [1e-9] * len(values)
    cols = ["sweep_value", "numerator", "denominator", "epr_value", "err_estimate",
            "bell_residual_max"]
    if swap:
        cols[3], cols[4] = cols[4], cols[3]
    lines = ["# bellepr correlate 0.1.0", ",".join(cols)]
    for i, (v, e) in enumerate(zip(values, errs)):
        row = {"sweep_value": str(i), "numerator": "1.0", "denominator": "2.0",
               "epr_value": repr(v), "err_estimate": repr(e), "bell_residual_max": ""}
        lines.append(",".join(row[c] for c in cols))
    return "\n".join(lines) + "\n"


def test_checker_accepts_roundoff_and_flags_a_perturbed_value():
    ref = [-0.9731, 0.25, 1e-8]
    assert checks.check_correlate(_csv(ref), 3, ref) == []
    near = [v * (1 + 1e-13) for v in ref]
    assert checks.check_correlate(_csv(near), 3, ref) == []
    perturbed = list(ref)
    perturbed[1] += 1e-6
    problems = checks.check_correlate(_csv(perturbed), 3, ref)
    assert len(problems) == 1 and "row 1" in problems[0]


def test_checker_reads_columns_by_name():
    assert checks.check_correlate(_csv([0.5], swap=True), 1, [0.5]) == []
    assert checks.check_correlate(_csv([0.5], swap=True), 1, [0.6]) != []


def test_checker_flags_bound_rows_and_header():
    assert checks.check_correlate(_csv([1.2], [0.1]), 1) != []
    assert checks.check_correlate(_csv([1.05], [0.1]), 1) == []
    assert checks.check_correlate(_csv([0.1, 0.2]), 3) != []
    assert checks.check_correlate("a,b\n1,2\n", 1) != []


def test_checker_flags_a_missing_or_failed_result_line():
    passed = "CHECK x PASS 0 (<= 1e-12)\nRESULT PASS (18/18 checks)\n"
    assert checks.check_result_line(passed, checks.ORACLE_PASS) == []
    assert checks.check_result_line("CHECK x PASS 0 (<= 1e-12)\n", checks.ORACLE_PASS) != []
    assert checks.check_result_line("RESULT FAIL (17/18 checks)\n", checks.ORACLE_PASS) != []
    assert checks.check_result_line("RESULT PASS (17/17 checks)\n", checks.ORACLE_PASS) != []
    assert checks.check_result_line("RESULT PASS (0 failed checks)\n", checks.DIAGNOSE_PASS) == []


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, "p67 of 3 samples (21 or fewer: the median rank)")
    # one call more or fewer moves the rank by at most one
    assert [run.tail([float(i) for i in range(1, n + 1)])[0] for n in range(18, 24)] == [
        9.0, 10.0, 10.0, 11.0, 12.0, 13.0]
    value, label = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and label == "p75 of 40 samples"


def test_tracer_spans_self_time_and_restores_functions():
    import bellepr.cli
    import bellepr.states as states

    original = states.amplitude_pair_tables
    original_fit = states.fit_theta
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bellepr.cli.fit_theta.__wrapped__ is original_fit
        from bellepr.measure import DetectorRegion, QuadratureSpec
        import numpy as np

        a = DetectorRegion(axis=np.array([0.0, 0.0, 1.0]), half_angle=0.1, freq_lo=0.5, freq_hi=2.0)
        b = DetectorRegion(axis=np.array([1.0, 0.0, 0.0]), half_angle=0.1, freq_lo=0.5, freq_hi=2.0)
        bellepr.cli.fit_theta(states.TwoPhotonAmplitude(kind="bell21"), 21, a, b,
                              spec=QuadratureSpec(n_freq=2, n_polar=2, n_azimuth=2))
    finally:
        tracer.uninstall()
    assert states.amplitude_pair_tables is original
    assert bellepr.cli.fit_theta is original_fit
    names = [s[0] for s in tracer.spans]
    assert names[0] == "states.fit_theta"
    assert "states.pair_tables" in names and "measure.node_sets" in names
    layers = tracing.layer_metrics([tracer.record()], 0.0, 1.0)
    assert layers["states.pair_tables.calls"] == 1
    assert layers["states.pair_tables.elements"] == 2 * 8 * 8
    assert layers["states.pair_tables.bytes"] == 16 * 2 * 8 * 8
    fit = tracer.spans[0]
    assert 0.0 <= layers["states.fit_theta.self_s"] <= fit[2] - fit[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
