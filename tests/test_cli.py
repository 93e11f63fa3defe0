"""Command-line runner: config validation, sweep output, determinism,
oracle report, and diagnosis report."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellepr import cli, correlators, measure
from bellepr.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    CONFIG_SCHEMA,
    main,
)
from bellepr.errors import ChartError, ConsistencyError, InputError, PreconditionError
from bellepr.spinor_tetrad import NullMomentum, minkowski_dot, null_tetrad

BASE_SCENARIO = """\
scenario:
  state:
    kind: bell21
    theta:
      kind: fitted
  vacuum:
    family: power-exponential
    params: {{exponent: 2.0, scale: 1.0}}
  n_osc: "inf"
  bob:
    axis: [0.0, 0.0, 1.0]
    half_angle: 0.0349
    freq_lo: 0.5
    freq_hi: 2.0
    angle: {beta}
  alice:
    axis: [1.0, 0.0, 0.0]
    half_angle: 0.0349
    freq_lo: 0.5
    freq_hi: 2.0
    angle: 0.3
  transform:
    {transform}
"""

REST = "case: rest"
SWEEP_BETA = """\
sweep:
  variable: beta
  start: 0.0
  stop: 3.141592653589793
  count: 9
"""


def assert_one_error_line(err, prefix):
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(prefix)


def demo_text(name):
    from pathlib import Path

    return (Path(__file__).resolve().parents[1] / "demos" / f"{name}.yaml").read_text(
        encoding="utf-8"
    )


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("sweep_value"):
                continue
            parts = line.strip().split(",")
            rows.append(
                [float(p) if p else math.nan for p in parts]
            )
    return np.asarray(rows)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(beta="0.0", transform=REST)
            + SWEEP_BETA
            + "mystery: 1\n",
        )
        assert main(["correlate", cfg]) == EXIT_CONFIG
        assert "mystery" in capsys.readouterr().err

    def test_bad_enum_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(beta="0.0", transform=REST).replace(
                "bell21", "bell99"
            )
            + SWEEP_BETA,
        )
        assert main(["correlate", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario/state/kind" in err

    def test_not_yaml(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scenario: [unclosed\n")
        assert main(["correlate", cfg]) == EXIT_CONFIG

    def test_configs_parse_with_libyaml_to_the_same_documents(self):
        if yaml.__with_libyaml__:
            assert issubclass(cli._YAML_LOADER, yaml.CSafeLoader)
        for name in DEMOS + ["oracle_default"]:
            text = demo_text(name)
            loaded = [yaml.load(text, Loader=ld) for ld in (cli._YAML_LOADER, yaml.SafeLoader)]
            assert repr(loaded[0]) == repr(loaded[1])  # equal values of equal types

    def test_dotless_exponent_floats_read_as_numbers(self, tmp_path):
        # YAML 1.1 reads 1e-4 and 1e5 as strings; the loader reads them as YAML 1.2 does
        csvs = []
        for small, large in (("1e-4", "1e5"), ("1.0e-4", "1.0e+5")):
            text = demo_text("bell21_rest_sweep").replace("start: 0.0", f"start: {small}")
            cfg = write_config(tmp_path, text.replace("angle: 0.3", f"angle: {large}"))
            doc, _ = cli._load_config(cfg)
            assert doc["sweep"]["start"] == 1.0e-4 and doc["scenario"]["alice"]["angle"] == 1.0e5
            out = tmp_path / f"{small}.csv"
            assert main(["correlate", cfg, "--out", str(out)]) == EXIT_OK
            csvs.append([ln for ln in out.read_text().splitlines() if "sha256" not in ln])
        assert csvs[0] == csvs[1]

    def test_dotless_exponent_floats_in_an_oracle_cell(self, tmp_path, capsys):
        cells = (
            "oracle:\n  n_osc: 1\n  cells:\n"
            "    - {{freq: {freq}, dir: [0.0, 0.0, 1.0], weight: {weight}}}\n"
            "    - {{freq: 1.3, dir: [1.0, 0.0, 0.0], weight: 0.65}}\n"
        )
        reports = []
        for freq, weight in (("1e5", "1e-4"), ("1.0e+5", "1.0e-4")):
            cfg = write_config(tmp_path, cells.format(freq=freq, weight=weight))
            code = main(["oracle-verify", cfg])
            captured = capsys.readouterr()
            assert code != EXIT_CONFIG and captured.err == ""
            reports.append([ln for ln in captured.out.splitlines() if "sha256" not in ln])
        assert reports[0] == reports[1] and len(reports[0]) == 21

    @pytest.mark.parametrize(
        "command, edit",
        [
            ("correlate", ("count: 13", "count: 1e3")),
            ("correlate", ("n_freq: 6", "n_freq: 1e3")),
            ("diagnose", ("n_polar: 4", "n_polar: 1e3")),
            ("diagnose", ("output:", "diagnose:\n  momentum_samples: 1e3\noutput:")),
        ],
        ids=["sweep-count", "n_freq", "n_polar", "momentum_samples"],
    )
    def test_exponent_float_in_an_integer_field_exits_two(self, command, edit, tmp_path, capsys):
        # draft 7 would count 1000.0 as an integer; the loader does not
        cfg = write_config(tmp_path, demo_text("bell21_rest_sweep").replace(*edit))
        assert main([command, cfg, "--out", str(tmp_path / "out.txt")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert_one_error_line(err, "config error:")
        assert "1000.0 is not of type 'integer'" in err

    def test_missing_file(self, capsys):
        assert main(["correlate", "/nonexistent/x.yaml"]) == EXIT_CONFIG

    def test_missing_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, BASE_SCENARIO.format(beta="0.0", transform=REST)
        )
        assert main(["correlate", cfg]) == EXIT_CONFIG
        assert "sweep" in capsys.readouterr().err

    def test_rapidity_sweep_needs_boost(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(beta="0.0", transform=REST)
            + SWEEP_BETA.replace("variable: beta", "variable: rapidity"),
        )
        assert main(["correlate", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["correlate", "diagnose"])
    def test_overflowing_rapidity_is_a_config_error(self, command, tmp_path, capsys):
        # cosh(1000) is beyond double range
        transform = "case: joint\n    map: {kind: boost, rapidity: 1000, axis: [0.0, 1.0, 0.0]}"
        text = BASE_SCENARIO.format(beta="0.0", transform=transform) + SWEEP_BETA
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out.txt"
        assert main([command, cfg, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error:")
        assert not out.exists()

    def test_rapidity_sweep_beyond_double_range_is_a_config_error(self, tmp_path, capsys):
        text = demo_text("case1_joint_boost").replace("stop: 1.0", "stop: 800")
        assert "stop: 800" in text
        out = tmp_path / "sweep.csv"
        assert main(["correlate", write_config(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error:")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["product", "mc"])
    @pytest.mark.parametrize("command", ["correlate", "diagnose"])
    def test_window_whose_square_overflows_is_a_config_error(self, command, mode, tmp_path, capsys):
        text = demo_with(
            ("    freq_hi: 2.0\n    angle: 0.0\n", "    freq_hi: 1.0e+200\n    angle: 0.0\n"),
            ("  n_azimuth: 8\n", f"  n_azimuth: 8\n  mode: {mode}\n"),
        )
        out = tmp_path / "out.txt"
        assert main([command, write_config(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error: freq_hi 1e+200 is beyond")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, case", [("correlate", "joint"), ("diagnose", "joint"), ("diagnose", "alice_only")]
    )
    def test_pre_image_beyond_double_range_is_a_precondition(self, command, case, tmp_path, capsys):
        # Bob's window squares to a finite number, but a rapidity-8 boost pulls
        # its top frequency back to about 3e157, whose square is not
        doc = edited_demo(
            "case2_single_arm_boost",
            sweep=BETA_2,
            bob={"freq_hi": 1.0e154},
            transform={"case": case, "map": BOOST_8},
        )
        cfg, out = write_config(tmp_path, yaml.safe_dump(doc)), tmp_path / "out.txt"
        assert main([command, cfg, "--out", str(out)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert_one_error_line(err, "precondition violated: the Wigner phase is beyond double")
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correlate", "diagnose"])
    def test_angle_field_whose_double_overflows_is_a_config_error(self, command, tmp_path, capsys):
        doc = edited_demo("bell21_rest_sweep", state={"theta": THETA_1E308})
        cfg, out = write_config(tmp_path, yaml.safe_dump(doc)), tmp_path / "out.txt"
        assert main([command, cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert_one_error_line(err, "config error: polarization angle must be finite")
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correlate", "diagnose"])
    def test_angle_far_from_the_field_is_evaluated(self, command, tmp_path, capsys):
        # each is twice finite, their difference is not; no sum reads the
        # difference, so both commands run it, diagnose over the sweep's
        # scenarios too
        cfg, out = write_config(tmp_path, yaml.safe_dump(ANGLE_FAR_FROM_FIELD)), tmp_path / "o.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, cfg, "--out", str(out)]) == EXIT_OK
        assert "Warning" not in capsys.readouterr().err
        assert out.read_text(encoding="utf-8").startswith(f"# bellepr {command} ")

    @pytest.mark.parametrize(
        "quadrature",
        [{"n_polar": 2}, {"n_freq": 2, "n_polar": 8}, {"mode": "mc", "n_samples": 2}],
        ids=["polar-2", "freq-2", "mc-2"],
    )
    @pytest.mark.parametrize("command", ["correlate", "diagnose"])
    def test_count_the_halved_rule_keeps_is_a_config_error(
        self, command, quadrature, tmp_path, capsys
    ):
        # halving keeps a count of 2, so err_estimate would miss that axis
        doc = edited_demo("bell11_n_sweep", sweep={"count": 2}, quadrature=quadrature)
        cfg, out = write_config(tmp_path, yaml.safe_dump(doc)), tmp_path / "o.txt"
        assert main([command, cfg, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error: quadrature n_")
        assert not out.exists()

    def test_single_arm_overlap_is_refused_by_correlate_only(self, tmp_path, capsys, monkeypatch):
        # a quarter turn about y pulls Alice's cone (+x) back onto Bob's (+z):
        # diagnose reports on the config, correlate refuses it before evaluating
        text = demo_text("case2_single_arm_boost").replace(
            "      kind: boost\n      rapidity: 1.0\n      axis: [1.0, 0.0, 0.0]\n",
            "      kind: rotation\n      angle: 1.5707963267948966\n      axis: [0.0, 1.0, 0.0]\n",
        ).replace("variable: rapidity", "variable: beta")
        assert "kind: rotation" in text and "variable: beta" in text
        cfg, out = write_config(tmp_path, text), tmp_path / "out.csv"
        assert main(["diagnose", cfg]) == EXIT_OK
        capsys.readouterr()

        def fail(scn, spec):
            raise AssertionError("evaluated a point of an overlapping single-arm scenario")

        monkeypatch.setattr(correlators, "_prepare_rule", fail)
        assert main(["correlate", cfg, "--out", str(out)]) == EXIT_PRECONDITION
        assert_one_error_line(
            capsys.readouterr().err,
            "precondition violated: Bob's cone overlaps the pulled-back image of Alice's cone",
        )
        assert not out.exists()

    def test_overlapping_cones_precondition(self, tmp_path, capsys):
        text = BASE_SCENARIO.format(beta="0.0", transform=REST).replace(
            "axis: [1.0, 0.0, 0.0]", "axis: [0.0, 0.0, 1.0]"
        )
        cfg = write_config(tmp_path, text + SWEEP_BETA)
        assert main(["correlate", cfg]) == EXIT_PRECONDITION
        assert "precondition" in capsys.readouterr().err

    def test_joint_denominator_underflow_is_a_precondition(self, tmp_path, capsys):
        from pathlib import Path

        demo = Path(__file__).resolve().parents[1] / "demos" / "case1_joint_boost.yaml"
        text = demo.read_text(encoding="utf-8").replace(
            "  start: 0.0\n  stop: 1.0\n  count: 5\n",
            "  start: 8.0\n  stop: 8.0\n  count: 1\n",
        )
        assert "start: 8.0" in text
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "joint.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("precondition violated")
        assert "underflow" in lines[0]

    @pytest.mark.parametrize("rapidity", [18, 40, 300, 700])
    @pytest.mark.parametrize("command", ["correlate", "diagnose"])
    def test_rapidity_beyond_double_precision_is_a_precondition(
        self, command, rapidity, tmp_path, capsys
    ):
        # the Wigner phase check cannot hold its 1e-8 tolerance through a map
        # this large (from rapidity 18), and at 700 the pre-images overflow
        text = demo_text("case1_joint_boost").replace("rapidity: 0.5", f"rapidity: {rapidity}")
        text = text.replace("variable: rapidity", "variable: beta")
        assert f"rapidity: {rapidity}" in text and "variable: beta" in text
        cfg, out = write_config(tmp_path, text), tmp_path / "out.txt"
        assert main([command, cfg, "--out", str(out)]) == EXIT_PRECONDITION
        assert_one_error_line(capsys.readouterr().err, "precondition violated: ")
        assert not out.exists()

    def test_chart_cut_cone_is_a_precondition(self, tmp_path, capsys):
        # Bob's cone collapses onto -z, the cut of the spinor chart
        text = BASE_SCENARIO.format(beta="0.0", transform=REST).replace(
            "axis: [0.0, 0.0, 1.0]\n    half_angle: 0.0349",
            "axis: [0.0, 0.0, -1.0]\n    half_angle: 1.0e-12",
        )
        assert "half_angle: 1.0e-12" in text
        cfg = write_config(tmp_path, text + SWEEP_BETA)
        out = str(tmp_path / "cut.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_PRECONDITION
        assert_one_error_line(capsys.readouterr().err, "precondition violated")
        # a chart cut is one kind of violated precondition: exit 3 has one exception
        assert issubclass(ChartError, PreconditionError)

    def test_demo_cone_on_the_chart_cut_is_a_precondition(self, tmp_path, capsys):
        # a real-width laboratory cone around -z: no quadrature node lands on
        # the cut itself, so only the scenario's own check can refuse it
        from pathlib import Path

        demo = Path(__file__).resolve().parents[1] / "demos" / "case2_single_arm_boost.yaml"
        text = demo.read_text(encoding="utf-8").replace(
            "  bob:\n    axis: [0.0, 0.0, 1.0]", "  bob:\n    axis: [0.0, 0.0, -1.0]"
        )
        assert "axis: [0.0, 0.0, -1.0]" in text
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "cut.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert_one_error_line(err, "precondition violated")
        assert "chart cut" in err

    def test_overflowing_vacuum_norm_is_a_config_error(self, tmp_path, capsys):
        text = BASE_SCENARIO.format(beta="0.0", transform=REST).replace(
            "exponent: 2.0", "exponent: 400.0"
        )
        assert "exponent: 400.0" in text
        cfg = write_config(tmp_path, text + SWEEP_BETA)
        out = str(tmp_path / "overflow.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error")

    def test_numerical_failures_exit_one(self, tmp_path, capsys, monkeypatch):
        def fail(args):
            raise ConsistencyError("identity violated")

        monkeypatch.setattr(cli, "cmd_correlate", fail)
        assert main(["correlate", str(tmp_path / "unused.yaml")]) == EXIT_CHECK_FAILED
        assert_one_error_line(capsys.readouterr().err, "evaluation failed")

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, BASE_SCENARIO.format(beta="0.0", transform=REST) + SWEEP_BETA
        )
        out = str(tmp_path / "missing" / "x.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert_one_error_line(err, "config error: cannot write")
        assert "missing" in err

    def test_unwritable_out_is_refused_before_evaluation(self, tmp_path, capsys, monkeypatch):
        def fail(scn):
            raise AssertionError("evaluated a sweep point before checking --out")

        monkeypatch.setattr(cli, "correlate", fail)
        monkeypatch.setattr(cli, "prepare", fail)
        cfg = write_config(
            tmp_path, BASE_SCENARIO.format(beta="0.0", transform=REST) + SWEEP_BETA
        )
        out = tmp_path / "missing" / "x.csv"
        assert main(["correlate", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error: cannot write")
        assert not out.parent.exists()

    def test_empty_tabulated_theta_is_a_config_error(self, tmp_path, capsys):
        text = demo_text("bell21_rest_sweep").replace(
            "    theta:\n      kind: fitted\n",
            "    theta: {kind: tabulated, axes: [], values: []}\n",
        )
        assert "axes: []" in text
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "empty.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error")

    def test_vacuum_beyond_double_range_is_a_config_error(self, tmp_path, capsys):
        text = demo_text("bell21_rest_sweep").replace(
            "family: power-exponential\n    params: {exponent: 2.0, scale: 1.0}",
            "family: log-normal-isotropic\n    params: {scale: 1.0, width: 20.0}",
        )
        assert "width: 20.0" in text
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "wide.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_CONFIG
        assert_one_error_line(capsys.readouterr().err, "config error")

    def test_overflowing_denominator_is_a_precondition(self, tmp_path, capsys):
        text = demo_text("bell21_rest_sweep").replace(
            "    theta:\n", "    envelope: {kind: frequency-power, power: 800}\n    theta:\n"
        )
        assert "power: 800" in text
        cfg = write_config(tmp_path, text)
        out = tmp_path / "overflow.csv"
        assert main(["correlate", cfg, "--out", str(out)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert_one_error_line(err, "precondition violated")
        assert "overflow" in err
        assert not out.exists()

    def test_missing_quadrature_block_builds_the_default(self):
        from dataclasses import replace

        from bellepr.correlators import DEFAULT_QUADRATURE

        assert cli._build_quadrature({}, None) == DEFAULT_QUADRATURE
        doc = {"quadrature": {"n_freq": 10, "seed": 3}}
        assert cli._build_quadrature(doc, 7) == replace(
            DEFAULT_QUADRATURE, n_freq=10, seed=7
        )

    def test_schema_document_in_sync(self):
        import json
        from pathlib import Path

        shipped = json.loads(
            (Path(__file__).resolve().parents[1] / "docs" / "config-schema.json")
            .read_text(encoding="utf-8")
        )
        assert shipped == CONFIG_SCHEMA


DEMO_THETA = "    kind: bell21\n    theta:\n      kind: fitted\n"
DEMO_REST = "  transform:\n    case: rest\n"
DEMO_SWEEP = "  variable: beta\n  start: 0.0\n  stop: 3.141592653589793\n  count: 13\n"


def demo_with(*edits):
    """bell21_rest_sweep with each (old, new) edit applied once."""
    text = demo_text("bell21_rest_sweep")
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


def rapidity_sweep(start):
    return (DEMO_SWEEP, f"  variable: rapidity\n  start: {start}\n  stop: 1.0\n  count: 3\n")


#: Gaussian envelopes whose 2 width^2 overflows to inf and underflows to 0.
GAUSSIAN_WIDE = {"kind": "frequency-gaussian", "center": 1.0, "width": 1.0e200}
GAUSSIAN_NARROW = {"kind": "frequency-gaussian", "center": 1.0, "width": 1.0e-300}

#: name -> (config text, extra argv, a fragment of the message);
#: each input reaches a different owner of a validity rule
CONFIG_ERRORS = {
    "top-level-list": ("[1, 2]\n", [], "at <root>: [1, 2] is not of type 'object'"),
    "empty-file": ("", [], "at <root>: None is not of type 'object'"),
    "general-without-coefficients": (
        demo_with((DEMO_THETA, "    kind: general\n")), [], "'coefficients'"
    ),
    "boost-without-rapidity": (
        demo_with((DEMO_REST, "  transform:\n    case: joint\n    map: {kind: boost}\n")),
        [], "boost map needs a 'rapidity'",
    ),
    "rotation-without-angle": (
        demo_with((DEMO_REST, "  transform:\n    case: joint\n    map: {kind: rotation}\n")),
        [], "rotation map needs an 'angle'",
    ),
    "rest-with-map": (
        demo_with((DEMO_REST, "  transform:\n    case: rest\n    map: {kind: identity}\n")),
        [], "rest case carries no Lorentz map",
    ),
    "joint-without-map": (
        demo_with((DEMO_REST, "  transform:\n    case: joint\n")),
        [], "joint case requires a Lorentz map",
    ),
    "tabulated-theta-without-axes": (
        demo_with((DEMO_THETA, "    kind: bell21\n    theta: {kind: tabulated, values: [0.1]}\n")),
        [], "tabulated field needs axes and values",
    ),
    "fitted-theta-on-general": (
        demo_with(
            (DEMO_THETA, DEMO_THETA.replace("bell21", "general")
             + "    coefficients: {'++': [1.0, 0.0]}\n")
        ),
        [], "fitted theta requires a Bell state kind",
    ),
    "no-scenario-block": (
        demo_text("bell21_rest_sweep").split("scenario:")[0] + "sweep:\n" + DEMO_SWEEP,
        [], "requires a 'scenario' block",
    ),
    "n_osc-sweep-from-1": (
        demo_with((DEMO_SWEEP, "  variable: n_osc\n  start: 1\n  stop: 3\n  count: 3\n")),
        [], "(N-1)",
    ),
    "n_osc-sweep-from-0.2": (
        demo_with((DEMO_SWEEP, "  variable: n_osc\n  start: 0.2\n  stop: 3\n  count: 3\n")),
        [], "n_osc must be a positive integer or inf, got 0",
    ),
    "rapidity-sweep-at-rest": (
        demo_with(rapidity_sweep(0.0)), [], "needs a non-rest transform case"
    ),
    "rapidity-sweep-on-rotation": (
        demo_with(
            rapidity_sweep(0.0),
            (DEMO_REST, "  transform:\n    case: joint\n    map: {kind: rotation, angle: 0.3}\n"),
        ),
        [], "rapidity sweep needs a boost map",
    ),
    "threads-0": (demo_text("bell21_rest_sweep"), ["--threads", "0"], "--threads must be >= 1"),
    "gaussian-width-squared-overflows": (
        demo_with(
            (DEMO_THETA, DEMO_THETA + "    envelope: {kind: frequency-gaussian, width: 1.0e+200}\n")
        ),
        [], "envelope width 1e+200: twice its square is beyond double range",
    ),
    "gaussian-width-squared-underflows": (
        demo_with(
            (DEMO_THETA, DEMO_THETA + "    envelope: {kind: frequency-gaussian, width: 1.0e-300}\n")
        ),
        [], "envelope width 1e-300: twice its square is beyond double range",
    ),
    "beta-sweep-to-inf": (
        demo_with((DEMO_SWEEP, DEMO_SWEEP.replace("3.141592653589793", ".inf"))),
        [], "sweep stop must be finite, got inf",
    ),
    "n_osc-sweep-to-inf": (
        demo_text("bell11_n_sweep").replace("stop: 50", "stop: .inf"), [],
        "sweep stop must be finite, got inf",
    ),
    "rapidity-sweep-from-minus-inf": (
        demo_text("case1_joint_boost").replace("start: 0.0", "start: -.inf"), [],
        "sweep start must be finite, got -inf",
    ),
    "sweep-span-beyond-double-range": (
        demo_with(
            (DEMO_SWEEP, "  variable: beta\n  start: -1.0e+308\n  stop: 1.0e+308\n  count: 3\n")
        ),
        [], "sweep span from -1e+308 to 1e+308 is beyond double range",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_config_error_exits_two_with_one_line(name, tmp_path, capsys):
    text, argv, fragment = CONFIG_ERRORS[name]
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main(["correlate", cfg, "--out", str(out), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert_one_error_line(err, "config error: ")
    assert fragment in err
    assert not out.exists()


#: command -> config: a negative --seed ended each in numpy's "expected
#: non-negative integer" traceback
NEGATIVE_SEED_CONFIGS = {
    "correlate": demo_with(("  n_azimuth: 8\n", "  n_azimuth: 8\n  mode: mc\n")),
    "diagnose": demo_text("bell21_rest_sweep"),
    "oracle-verify": demo_text("oracle_default"),
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_CONFIGS))
def test_negative_seed_exits_two_on_every_command(command, tmp_path, capsys):
    cfg = write_config(tmp_path, NEGATIVE_SEED_CONFIGS[command])
    out = tmp_path / "out.txt"
    assert main([command, cfg, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
    assert_one_error_line(capsys.readouterr().err, "config error: --seed must be >= 0")
    assert not out.exists()


class TestSchemaInvariants:
    """The packaged schema is checked here once, not on every config load."""

    def test_schema_is_a_valid_draft7_schema(self):
        import jsonschema

        jsonschema.Draft7Validator.check_schema(CONFIG_SCHEMA)

    def test_declared_dialect_is_the_validator_used(self):
        import jsonschema

        assert jsonschema.validators.validator_for(CONFIG_SCHEMA) is jsonschema.Draft7Validator

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": 3},
            {"sweep": {"variable": "beta", "start": 0.0, "stop": 1.0}},
            {"sweep": {"variable": "gamma", "start": 0.0, "stop": 1.0, "count": 2}},
            {"sweep": {"variable": "beta", "start": 0.0, "stop": 1.0, "count": 0}},
            {"mystery": 1},
            {"scenario": {"state": {"kind": "bell21"}}},
        ],
        ids=["wrong-type", "missing-key", "bad-enum", "below-minimum", "extra-key", "nested"],
    )
    def test_load_message_equals_validate(self, doc, tmp_path):
        import json

        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        where = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        path = write_config(tmp_path, json.dumps(doc))
        with pytest.raises(InputError) as got:
            cli._load_config(path)
        assert str(got.value) == f"config {path!r}: at {where}: {expected.value.message}"

    def test_load_makes_no_metaschema_pass(self, tmp_path, monkeypatch):
        import jsonschema

        def refuse(*args, **kwargs):
            raise AssertionError("the packaged schema was checked on load")

        monkeypatch.setattr(jsonschema.Draft7Validator, "check_schema", refuse)
        doc, digest = cli._load_config(write_config(tmp_path, demo_text("bell21_rest_sweep")))
        assert doc["sweep"]["variable"] == "beta" and len(digest) == 64


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write_config(
        tmp, BASE_SCENARIO.format(beta="0.0", transform=REST) + SWEEP_BETA
    )
    out = str(tmp / "out.csv")
    code = main(["correlate", cfg, "--out", out])
    return code, cfg, out


class TestCorrelate:
    def test_exit_and_shape(self, sweep_csv):
        code, _, out = sweep_csv
        assert code == EXIT_OK
        rows = read_rows(out)
        assert rows.shape == (9, 6)
        assert np.all(np.isfinite(rows[:, :5]))

    def test_header_metadata(self, sweep_csv):
        _, _, out = sweep_csv
        with open(out, "r", encoding="utf-8") as fh:
            head = [next(fh) for _ in range(5)]
        assert head[0].startswith("# bellepr correlate ")
        assert head[1].startswith("# config-sha256: ") and len(head[1].split()[-1]) == 64
        assert head[2].startswith("# seed: ")
        assert head[3].startswith("# sweep: variable=beta")
        assert head[4].startswith("sweep_value,numerator,denominator,epr_value")

    def test_cosine_structure_and_matched_minimum(self, sweep_csv):
        # the swept value must be a pure cosine in 2*beta, reaching -1 at
        # the matched setting beta + alpha = fitted angle sum
        _, _, out = sweep_csv
        rows = read_rows(out)
        beta, value = rows[:, 0], rows[:, 3]
        basis = np.column_stack(
            [np.ones_like(beta), np.cos(2.0 * beta), np.sin(2.0 * beta)]
        )
        coef, *_ = np.linalg.lstsq(basis, value, rcond=None)
        resid = float(np.max(np.abs(basis @ coef - value)))
        assert resid <= 1e-6
        matched = math.pi / 2.0 - 0.3
        predicted = coef[0] + coef[1] * math.cos(2 * matched) + coef[2] * math.sin(
            2 * matched
        )
        assert predicted == pytest.approx(-1.0, abs=5e-3)

    def test_bound_column(self, sweep_csv):
        _, _, out = sweep_csv
        rows = read_rows(out)
        assert np.all(np.abs(rows[:, 3]) <= 1.0 + rows[:, 4])

    def test_determinism_and_thread_independence(self, sweep_csv):
        _, cfg, out = sweep_csv
        with open(out, "rb") as fh:
            first = fh.read()
        again = out + ".again"
        assert main(["correlate", cfg, "--out", again, "--threads", "3"]) == EXIT_OK
        with open(again, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_one_thread_sweep_runs_in_the_calling_thread(self, tmp_path, monkeypatch):
        # a beta sweep's rows are finished from one prepared scenario
        cfg = write_config(tmp_path, BASE_SCENARIO.format(beta="0.0", transform=REST) + SWEEP_BETA)
        out, threads_before, callers = str(tmp_path / "out.csv"), set(threading.enumerate()), []
        finish = correlators.PreparedScenario.finish

        def recording(prepared, scn):
            callers.append((threading.get_ident(), set(threading.enumerate())))
            return finish(prepared, scn)

        monkeypatch.setattr(correlators.PreparedScenario, "finish", recording)
        assert main(["correlate", cfg, "--out", out, "--threads", "1"]) == EXIT_OK
        assert len(callers) == 9
        assert all(ident == threading.get_ident() for ident, _ in callers)
        assert all(alive == threads_before for _, alive in callers)
        assert set(threading.enumerate()) == threads_before

    def test_identity_joint_matches_rest(self, tmp_path):
        rest_cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(beta="0.0", transform=REST) + SWEEP_BETA,
            "rest.yaml",
        )
        ident_cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(
                beta="0.0",
                transform="case: joint\n    map:\n      kind: identity",
            )
            + SWEEP_BETA,
            "ident.yaml",
        )
        out_rest = str(tmp_path / "rest.csv")
        out_ident = str(tmp_path / "ident.csv")
        assert main(["correlate", rest_cfg, "--out", out_rest]) == EXIT_OK
        assert main(["correlate", ident_cfg, "--out", out_ident]) == EXIT_OK
        a, b = read_rows(out_rest), read_rows(out_ident)
        np.testing.assert_allclose(a[:, 3], b[:, 3], rtol=0, atol=1e-12)

    def test_general_state_from_coefficients(self, tmp_path):
        text = (
            BASE_SCENARIO.format(beta="0.4", transform=REST)
            .replace("kind: bell21", "kind: general")
            .replace(
                "theta:\n      kind: fitted",
                'coefficients:\n      "++": [1.0, 0.0]\n      "--": [0.5, 0.2]',
            )
        )
        cfg = write_config(tmp_path, text + SWEEP_BETA.replace("count: 9", "count: 3"))
        out = str(tmp_path / "gen.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_OK
        with open(out, "r", encoding="utf-8") as fh:
            data_lines = [
                l for l in fh if not l.startswith("#") and not l.startswith("sweep")
            ]
        # no Bell-condition residual for a general state: trailing field empty
        assert all(l.rstrip("\n").endswith(",") for l in data_lines)
        rows = read_rows(out)
        assert np.all(np.isfinite(rows[:, 3]))

    def test_asymmetric_general_coefficients_rejected(self, tmp_path, capsys):
        text = (
            BASE_SCENARIO.format(beta="0.4", transform=REST)
            .replace("kind: bell21", "kind: general")
            .replace(
                "theta:\n      kind: fitted",
                'coefficients:\n      "+-": [1.0, 0.0]\n      "-+": [0.3, 0.0]',
            )
        )
        cfg = write_config(tmp_path, text + SWEEP_BETA)
        assert main(["correlate", cfg]) == EXIT_CONFIG
        assert "symmetric" in capsys.readouterr().err

    def test_seed_recorded(self, tmp_path):
        cfg = write_config(
            tmp_path, BASE_SCENARIO.format(beta="0.0", transform=REST) + SWEEP_BETA
        )
        out = str(tmp_path / "seeded.csv")
        assert main(["correlate", cfg, "--out", out, "--seed", "7"]) == EXIT_OK
        with open(out, "r", encoding="utf-8") as fh:
            content = fh.read()
        assert "# seed: 7" in content


SWEEP_BETA_3 = SWEEP_BETA.replace("count: 9", "count: 3")

#: route name -> (transform block, theta block, sweep block); each three rows
ROUTES = {
    "joint-rotation": (
        "case: joint\n    map:\n      kind: rotation\n      angle: 0.4\n      axis: [0.0, 1.0, 0.0]",
        "theta:\n      kind: fitted",
        SWEEP_BETA_3,
    ),
    "alice-only-identity": (
        "case: alice_only\n    map:\n      kind: identity",
        "theta:\n      kind: fitted",
        SWEEP_BETA_3,
    ),
    "alice-only-boost": (
        "case: alice_only\n    map:\n      kind: boost\n      rapidity: 0.3\n      axis: [1.0, 0.0, 0.0]",
        "theta:\n      kind: fitted",
        SWEEP_BETA_3,
    ),
    "constant-theta": (REST, "theta: {kind: constant, theta0: 0.2}", SWEEP_BETA_3),
    "azimuthal-theta": (REST, "theta: {kind: azimuthal, theta0: 0.1, coeff: 1.0}", SWEEP_BETA_3),
    "tabulated-theta": (
        REST,
        "theta: {kind: tabulated, axes: [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], values: [0.5, 0.0]}",
        SWEEP_BETA_3,
    ),
    "alpha-sweep": (
        REST,
        "theta:\n      kind: fitted",
        SWEEP_BETA_3.replace("variable: beta", "variable: alpha"),
    ),
    "n-osc-sweep": (
        REST,
        "theta:\n      kind: fitted",
        "sweep:\n  variable: n_osc\n  start: 2\n  stop: 4\n  count: 3\n",
    ),
}

#: envelope block -> the same envelope as a library callable
ENVELOPES = {
    "{kind: frequency-power, power: 1.5}": lambda freqs, dirs: freqs**1.5,
    "{kind: frequency-gaussian, center: 1.2, width: 0.4}": lambda freqs, dirs: np.exp(
        -((freqs - 1.2) ** 2) / (2.0 * 0.4**2)
    ),
}


class TestCorrelateRoutes:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_route_writes_bounded_rows(self, tmp_path, route):
        transform, theta, sweep = ROUTES[route]
        text = BASE_SCENARIO.format(beta="0.0", transform=transform).replace(
            "theta:\n      kind: fitted", theta
        )
        assert theta in text
        cfg = write_config(tmp_path, text + sweep)
        out = str(tmp_path / "route.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert rows.shape == (3, 6)
        assert np.all(np.abs(rows[:, 3]) <= 1.0 + rows[:, 4])

    @pytest.mark.parametrize("block", sorted(ENVELOPES))
    def test_envelope_matches_the_library(self, tmp_path, block):
        from bellepr.correlators import DetectorSetting, Scenario, correlate
        from bellepr.measure import DetectorRegion
        from bellepr.states import TwoPhotonAmplitude
        from bellepr.vacuum import normalize

        text = BASE_SCENARIO.format(beta="0.0", transform=REST).replace(
            "    theta:\n", f"    envelope: {block}\n    theta:\n"
        )
        assert "envelope" in text
        cfg = write_config(tmp_path, text + SWEEP_BETA_3)
        out = str(tmp_path / "envelope.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_OK
        rows = read_rows(out)
        assert rows.shape == (3, 6)
        assert np.all(np.abs(rows[:, 3]) <= 1.0 + rows[:, 4])

        amp = TwoPhotonAmplitude(kind="bell21", envelope=ENVELOPES[block])
        vac = normalize("power-exponential", {"exponent": 2.0, "scale": 1.0})
        bob = DetectorRegion(np.array([0.0, 0.0, 1.0]), 0.0349, 0.5, 2.0)
        alice = DetectorRegion(np.array([1.0, 0.0, 0.0]), 0.0349, 0.5, 2.0)
        for beta, value in rows[:, [0, 3]]:
            scn = Scenario(amp, vac, DetectorSetting(bob, beta), DetectorSetting(alice, 0.3))
            assert correlate(scn).value == pytest.approx(value, rel=1e-12, abs=1e-15)

    def test_bound_violation_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "bound_check", lambda result: False)
        cfg = write_config(
            tmp_path, BASE_SCENARIO.format(beta="0.0", transform=REST) + SWEEP_BETA_3
        )
        out = str(tmp_path / "violated.csv")
        assert main(["correlate", cfg, "--out", out]) == EXIT_CHECK_FAILED
        assert_one_error_line(capsys.readouterr().err, "BOUND VIOLATION at sweep values: ")
        assert read_rows(out).shape == (3, 6)


JOINT_BOOST = (
    "case: joint\n    map:\n      kind: boost\n      rapidity: 0.5\n      axis: [0.0, 1.0, 0.0]"
)
QUAD_1536 = "quadrature: {n_freq: 12, n_polar: 8, n_azimuth: 16}\n"


def sweep_block(variable, count, start=0.0, stop=1.0):
    return f"sweep:\n  variable: {variable}\n  start: {start}\n  stop: {stop}\n  count: {count}\n"


class TestPreparedSweep:
    @pytest.mark.parametrize(
        "quadrature, node_sets", [("", 4), (QUAD_1536, 4)], ids=["6x4x8", "12x8x16"]
    )
    def test_beta_sweep_builds_its_node_sets_and_residual_sample_once(
        self, tmp_path, monkeypatch, quadrature, node_sets
    ):
        # the full and halved rules' node sets, whose 6x4x8 rule is the
        # residual sample's, for all 13 rows together
        text = BASE_SCENARIO.format(beta="0.0", transform=REST) + sweep_block("beta", 13)
        cfg, out, calls = write_config(tmp_path, text + quadrature), str(tmp_path / "o.csv"), []
        for name in ("invariant_node_set", "condition_residuals"):

            def spy(*args, name=name, real=getattr(correlators, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(correlators, name, spy)
        assert main(["correlate", cfg, "--out", out]) == EXIT_OK
        assert read_rows(out).shape == (13, 6)
        assert calls.count("invariant_node_set") == node_sets
        assert calls.count("condition_residuals") == 1

    @pytest.mark.parametrize("rows", [2, 7])
    @pytest.mark.parametrize("case", ["joint", "alice_only"])
    def test_rapidity_sweep_meshes_each_cone_once_per_rule(self, tmp_path, monkeypatch, case, rows):
        # the rows share the laboratory cones, so the fit and both rules of
        # every row mesh each cone once, however many rows there are
        transform = JOINT_BOOST.replace("joint", case)
        text = BASE_SCENARIO.format(beta="0.0", transform=transform)
        cfg = write_config(tmp_path, text + sweep_block("rapidity", rows))
        out, built, build = str(tmp_path / "o.csv"), [], measure._build_node_set

        def spy(region, spec):
            built.append((region, spec))
            return build(region, spec)

        monkeypatch.setattr(measure, "_build_node_set", spy)
        assert main(["correlate", cfg, "--out", out]) == EXIT_OK
        assert read_rows(out).shape == (rows, 6)
        # the vacuum's normalization meshes the full sphere, not a cone
        meshed = [(id(region), spec) for region, spec in built if region.half_angle < math.pi]
        assert len(meshed) == len(set(meshed)) == 4
        rule = correlators.DEFAULT_QUADRATURE
        assert {spec for _, spec in meshed} == {rule, rule.halved()}

    @pytest.mark.parametrize(
        "variable, prepares", [("beta", 1), ("alpha", 1), ("n_osc", 1), ("rapidity", 5)]
    )
    def test_a_sweep_prepares_once_unless_its_rows_move_the_arms(
        self, tmp_path, monkeypatch, variable, prepares
    ):
        start, stop = (2, 12) if variable == "n_osc" else (0.0, 1.0)
        text = BASE_SCENARIO.format(beta="0.0", transform=JOINT_BOOST)
        cfg = write_config(tmp_path, text + sweep_block(variable, 5, start, stop))
        out, maps, real = str(tmp_path / "o.csv"), [], correlators.prepare

        def spy(scn):
            maps.append(scn.transform.lorentz_map)
            return real(scn)

        monkeypatch.setattr(correlators, "prepare", spy)
        monkeypatch.setattr(cli, "prepare", spy)
        assert main(["correlate", cfg, "--out", out]) == EXIT_OK
        assert read_rows(out).shape == (5, 6)
        assert len(maps) == prepares and len({id(m) for m in maps}) == prepares

    @pytest.mark.parametrize("variable", ["beta", "alpha", "n_osc", "rapidity"])
    def test_two_threads_write_the_bytes_of_one(self, tmp_path, variable):
        start, stop = (2, 12) if variable == "n_osc" else (0.0, 1.0)
        text = BASE_SCENARIO.format(beta="0.0", transform=JOINT_BOOST)
        cfg = write_config(tmp_path, text + sweep_block(variable, 5, start, stop))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            assert main(["correlate", cfg, "--out", str(out), "--threads", threads]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 5 + 5


class TestOracleVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "oracle:\n  n_osc: 2\n")
        assert main(["oracle-verify", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RESULT PASS (18/18 checks)" in out
        assert out.count("CHECK ") == 18
        assert "FAIL" not in out

    def test_fault_injection_detected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "oracle:\n  n_osc: 2\n  fault_scale: 1.01\n"
        )
        assert main(["oracle-verify", cfg]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "ladder-pair-commutator-central           FAIL" in out
        assert "RESULT FAIL" in out

    def test_custom_grid_and_out_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "oracle:\n"
            "  n_osc: 1\n"
            "  cells:\n"
            "    - {freq: 1.0, dir: [0.0, 0.0, 1.0], weight: 0.5}\n"
            "    - {freq: 2.0, dir: [1.0, 0.0, 0.0], weight: 1.5}\n",
        )
        report = str(tmp_path / "report.txt")
        assert main(["oracle-verify", cfg, "--out", report]) == EXIT_OK
        with open(report, "r", encoding="utf-8") as fh:
            content = fh.read()
        assert "RESULT PASS" in content
        assert "# grid: 2 cells, n_osc=1" in content


    def test_huge_n_osc_is_refused_at_once(self, tmp_path):
        # the dimension 27^n_osc is never formed as an integer
        cfg = write_config(tmp_path, "oracle:\n  n_osc: 100000000\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bellepr.cli", "oracle-verify", cfg],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == EXIT_CONFIG
        assert_one_error_line(proc.stderr, "config error: oracle dimension")

    @pytest.mark.parametrize(
        "weight", ["1.0e-320", "1.0e-300", "1.0e-200", "1.0e-160", "1.0e-154", "1.0e+300"]
    )
    def test_weight_outside_double_range_is_a_config_error(self, weight, tmp_path, capsys):
        # 1/w or w*w leaves double range, or w*w is 0 or subnormal so that
        # the operator checks overflow on 1/(w*w): refused before any
        # operator is built, without a warning
        cfg = write_config(
            tmp_path,
            "oracle:\n  n_osc: 2\n  cells:\n"
            f"    - {{freq: 1.0, dir: [0.0, 0.0, 1.0], weight: {weight}}}\n"
            "    - {freq: 1.3, dir: [1.0, 0.0, 0.0], weight: 0.65}\n",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["oracle-verify", cfg]) == EXIT_CONFIG
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "config error: grid cell weight")

    def test_weight_whose_square_is_normal_is_accepted(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "oracle:\n  n_osc: 2\n  cells:\n"
            "    - {freq: 1.0, dir: [0.0, 0.0, 1.0], weight: 1.0e-150}\n"
            "    - {freq: 1.3, dir: [1.0, 0.0, 0.0], weight: 0.65}\n",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["oracle-verify", cfg])
        assert caught == []
        # the checks run; their absolute thresholds may still fail at this scale
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        captured = capsys.readouterr()
        assert "RESULT " in captured.out
        assert captured.err == ""

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "oracle:\n  n_osc: 1\n")
        report = str(tmp_path / "missing" / "report.txt")
        assert main(["oracle-verify", cfg, "--out", report]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "RESULT PASS" in captured.out
        assert_one_error_line(captured.err, "config error: cannot write")


class TestDiagnose:
    def test_rest_scenario_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(beta="0.0", transform=REST)
            + "diagnose:\n  momentum_samples: 60\n  map_samples: 8\n  pair_samples: 8\n",
        )
        assert main(["diagnose", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tetrad-null-contractions" in out
        assert "wigner-phase-cocycle" in out
        assert "RESULT PASS" in out

    def test_identity_transform_residuals_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(
                beta="0.0",
                transform="case: joint\n    map:\n      kind: identity",
            )
            + "diagnose:\n  momentum_samples: 40 \n  map_samples: 6\n  pair_samples: 6\n",
        )
        assert main(["diagnose", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        shift = [l for l in out.splitlines() if "theta-wigner-shift" in l]
        assert shift and float(shift[0].split()[-1]) <= 1e-12
        cov = [l for l in out.splitlines() if "amplitude-covariance-defect" in l]
        assert cov and float(cov[0].split()[-1]) <= 1e-12

    def test_boost_reports_shift_nonfatal(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(
                beta="0.0",
                transform=(
                    "case: joint\n    map:\n      kind: boost\n"
                    "      rapidity: 0.7\n      axis: [0.0, 1.0, 0.0]"
                ),
            )
            + "diagnose:\n  momentum_samples: 40\n  map_samples: 6\n  pair_samples: 6\n",
        )
        assert main(["diagnose", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        shift = [l for l in out.splitlines() if "theta-wigner-shift" in l]
        assert shift and float(shift[0].split()[-1]) > 1e-3
        assert "RESULT PASS" in out


    def test_overflowing_amplitude_sample_is_a_precondition(self, tmp_path, capsys):
        # frequency^-400 overflows on the sampled momenta; correlate refuses the
        # same config for its overflowing denominator
        envelope = "    envelope: {kind: frequency-power, power: -400}\n"
        text = demo_with((DEMO_THETA, DEMO_THETA.replace("bell21\n", "bell21\n" + envelope)))
        cfg, out = write_config(tmp_path, text), tmp_path / "report.txt"
        assert main(["diagnose", cfg, "--out", str(out)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert_one_error_line(err, "precondition violated: the amplitude is not finite")
        assert "Warning" not in err
        assert not out.exists()

    def test_tetrad_residual_is_the_per_momentum_maximum(self):
        freqs, dirs = cli._random_momenta(np.random.default_rng(0), 200)
        worst = 0.0
        for f, d in zip(freqs, dirs):
            t, md = null_tetrad(NullMomentum(float(f), d)), minkowski_dot
            worst = max(
                worst,
                abs(md(t.k_vec, t.k_vec)),
                abs(md(t.k_vec, t.q_vec) - 1.0),
                abs(md(t.m_vec, t.mbar_vec) + 1.0),
                abs(md(t.m_vec, t.m_vec)),
                abs(md(t.k_vec, t.m_vec)),
            )
        # numpy's array loops may fuse a complex product's multiply-add,
        # which scalar arithmetic rounds twice: equal up to that rounding
        assert cli._tetrad_residual(freqs, dirs) == pytest.approx(worst, rel=1e-3)

    @pytest.mark.parametrize("transform", ["joint", "alice_only", "rest"])
    def test_realized_transport_gap_is_reported_for_joint_only(self, transform, tmp_path, capsys):
        block = f"case: {transform}"
        if transform != "rest":
            block += "\n    map: {kind: identity}"
        cfg = write_config(
            tmp_path,
            BASE_SCENARIO.format(beta="0.0", transform=block)
            + "diagnose:\n  momentum_samples: 40\n  map_samples: 6\n  pair_samples: 6\n",
        )
        assert main(["diagnose", cfg]) == EXIT_OK
        info = [l.split() for l in capsys.readouterr().out.splitlines() if l.startswith("INFO")]
        names = [fields[1] for fields in info]
        if transform != "joint":
            assert "realized-transport-gap" not in names
            return
        # the last INFO line, after amplitude-covariance-defect; an identity
        # map realizes the rest state exactly
        assert names[-2:] == ["amplitude-covariance-defect", "realized-transport-gap"]
        assert float(info[-1][2]) <= 1e-12


#: Edge values a schema-valid config may carry; each strategy below draws
#: from them.
EDGE_BOUNDS = [
    0.0, 1.0, 3.0, 50.0, -2.0, 1e300, -1e300, 8e307, -8e307, 1.7e308, math.inf, -math.inf, math.nan
]
EDGE_FREQ_HI = [2.0, 1e100, 1e154, 1e200, 1e300, math.inf]
EDGE_ENVELOPES = [
    {"kind": "frequency-power", "power": -400.0},
    {"kind": "frequency-power", "power": 400.0},
    {"kind": "frequency-gaussian", "center": 1e300, "width": 1e-300},
    GAUSSIAN_WIDE,
    GAUSSIAN_NARROW,
]
EDGE_TRANSFORMS = [{"case": "rest"}] + [
    {"case": case, "map": lorentz_map}
    for case in ("joint", "alice_only")
    for lorentz_map in (
        {"kind": "identity"},
        {"kind": "boost", "rapidity": 8.0, "axis": [0.0, 1.0, 0.0]},
        {"kind": "boost", "rapidity": 700.0, "axis": [1.0, 0.0, 0.0]},
        {"kind": "rotation", "angle": math.pi / 2, "axis": [0.0, 1.0, 0.0]},
        {"kind": "rotation", "angle": 1e300, "axis": [0.0, 0.0, 1.0]},
    )
]
DEMOS = ["bell11_n_sweep", "bell21_rest_sweep", "case1_joint_boost", "case2_single_arm_boost"]
#: Angle-field values: every field value and twice it must be finite, which
#: 1e308 (and the azimuthal extreme theta0 + pi*coeff of 1e300 and 1e308) breaks.
EDGE_ANGLES = [0.0, 0.3, -2.0, 1e300, -1e300, 8.9e307, -9e307, 1e308, -1e308]


@st.composite
def edge_theta(draw):
    """A constant, azimuthal or tabulated angle field with edge values."""
    angle = st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(-1e308, 1e308))
    kind = draw(st.sampled_from(["constant", "azimuthal", "tabulated"]))
    if kind == "tabulated":
        axes = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        return {"kind": kind, "axes": axes, "values": [draw(angle), draw(angle)]}
    field = {"kind": kind, "theta0": draw(angle)}
    if kind == "azimuthal":
        field["coeff"] = draw(angle)
    return field


def edge_or_demo(values):
    """One of ``values``, or None (keep the demo's own value) half the time."""
    return st.one_of(st.none(), st.sampled_from(values))


@st.composite
def edge_configs(draw):
    """(command, config document): a demo with small node counts and a short
    sweep, carrying edge values in its sweep bounds, frequency windows,
    envelope, angle field, quadrature mode and transform."""
    doc = yaml.safe_load(demo_text(draw(st.sampled_from(DEMOS))))
    scenario, sweep = doc["scenario"], doc["sweep"]
    quad = {axis: draw(st.integers(2, 4)) for axis in ("n_freq", "n_polar", "n_azimuth")}
    if draw(st.booleans()):
        quad.update(mode="mc", n_samples=draw(st.integers(2, 16)))
    doc["quadrature"] = quad
    sweep["count"] = draw(st.integers(1, 3))
    edges = [
        (sweep, "variable", ["beta", "alpha", "rapidity", "n_osc"]),
        (sweep, "start", EDGE_BOUNDS),
        (sweep, "stop", EDGE_BOUNDS),
        (scenario["bob"], "freq_hi", EDGE_FREQ_HI),
        (scenario["alice"], "freq_hi", EDGE_FREQ_HI),
        (scenario["state"], "envelope", EDGE_ENVELOPES),
        (scenario, "transform", EDGE_TRANSFORMS),
    ]
    for block, key, values in edges:
        value = draw(edge_or_demo(values))
        if value is not None:
            block[key] = value
    if draw(st.booleans()):  # else keep the demo's fitted field
        scenario["state"]["theta"] = draw(edge_theta())
    doc["diagnose"] = {"momentum_samples": 8, "map_samples": 2, "pair_samples": 4}
    return draw(st.sampled_from(["correlate", "diagnose"])), doc


def edited_demo(name, sweep=None, quadrature=None, **arm_and_state):
    """A demo document with its sweep and quadrature blocks updated, and
    ``bob``/``alice``/``state`` keys merged into the scenario."""
    doc = yaml.safe_load(demo_text(name))
    doc["sweep"].update(sweep or {})
    doc.setdefault("quadrature", {}).update(quadrature or {})
    for key, block in arm_and_state.items():
        doc["scenario"][key].update(block)
    return doc


MC, HUGE_WINDOW = {"mode": "mc"}, {"freq_hi": 1e200}
BETA_2 = {"variable": "beta", "start": 0.0, "stop": 1.0, "count": 2}
BOOST_8 = {"kind": "boost", "rapidity": 8.0, "axis": [1.0, 0.0, 0.0]}
THETA_1E308 = {"kind": "constant", "theta0": 1.0e308}
#: An analyzer angle and a field value, each twice finite, whose difference is not.
ANGLE_FAR_FROM_FIELD = edited_demo(
    "bell21_rest_sweep",
    sweep={"start": 8.0e307, "stop": 8.0e307, "count": 1},
    state={"theta": {"kind": "constant", "theta0": -8.0e307}},
)
#: A pre-image beyond double range, under a joint boost.
PULLBACK_OVERFLOW = edited_demo(
    "case2_single_arm_boost",
    sweep=BETA_2,
    bob={"freq_hi": 1.0e154},
    transform={"case": "joint", "map": BOOST_8},
)

#: An n_osc sweep whose envelope overflows the norm's sums: refused before
#: the Bell diagnostics contract the overflowing tables.
ENVELOPE_OVERFLOW_N_SWEEP = edited_demo(
    "bell11_n_sweep",
    quadrature={"n_freq": 3, "n_polar": 3, "n_azimuth": 3},
    state={"envelope": EDGE_ENVELOPES[1], "theta": {"kind": "constant", "theta0": 0.3}},
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edge_configs())
@example(("correlate", edited_demo("bell11_n_sweep", sweep={"stop": math.inf})))
@example(("correlate", edited_demo("bell21_rest_sweep", quadrature=MC, bob=HUGE_WINDOW)))
@example(("diagnose", edited_demo("bell21_rest_sweep", quadrature=MC, bob=HUGE_WINDOW)))
@example(("diagnose", edited_demo("bell21_rest_sweep", bob={"freq_hi": 1e300})))
@example(("diagnose", edited_demo("bell21_rest_sweep", state={"envelope": EDGE_ENVELOPES[0]})))
@example(("correlate", PULLBACK_OVERFLOW))
@example(("diagnose", PULLBACK_OVERFLOW))
@example(("correlate", edited_demo("bell21_rest_sweep", state={"theta": THETA_1E308})))
@example(("diagnose", edited_demo("bell21_rest_sweep", state={"theta": THETA_1E308})))
@example(("correlate", ANGLE_FAR_FROM_FIELD))
@example(("diagnose", ANGLE_FAR_FROM_FIELD))
@example(("correlate", ENVELOPE_OVERFLOW_N_SWEEP))
@example(("diagnose", edited_demo("bell21_rest_sweep", state={"envelope": GAUSSIAN_WIDE})))
@example(("diagnose", edited_demo("bell21_rest_sweep", state={"envelope": GAUSSIAN_NARROW})))
def test_schema_valid_edge_configs_end_in_a_documented_exit(case):
    # a leaked numpy warning is an error under the test suite's filters
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "edge.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, cfg, "--out", os.path.join(tmp, "out.txt")])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_PRECONDITION)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellepr.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "bellepr" in proc.stdout

    @pytest.mark.parametrize(
        "argv, scipy_loaded",
        [
            (["--version"], False),
            (["correlate", "case1_joint_boost"], False),
            (["diagnose", "case1_joint_boost"], False),
            (["oracle-verify", "oracle_default"], True),
        ],
        ids=["version", "correlate", "diagnose", "oracle-verify"],
    )
    def test_only_the_oracle_loads_scipy(self, argv, scipy_loaded, tmp_path):
        # a child process: pytest's own filterwarnings setting imports scipy here
        from pathlib import Path

        demos = Path(__file__).resolve().parents[1] / "demos"
        argv = [argv[0]] + [str(demos / f"{name}.yaml") for name in argv[1:]]
        child = (
            "import sys\n"
            "from bellepr.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        if argv[0] == "correlate":
            argv += ["--out", str(tmp_path / "out.csv")]
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        scipy_seen, futures_seen = proc.stdout.splitlines()[-1].split()
        assert scipy_seen == str(scipy_loaded)
        if argv[0] == "correlate":
            assert futures_seen == "False"  # a one-thread sweep builds no thread pool
        if scipy_loaded:
            assert "RESULT PASS (18/18 checks)" in proc.stdout

    def test_cli_import_defers_jsonschema(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, bellepr.cli; print('jsonschema' in sys.modules)",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
