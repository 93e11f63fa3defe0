"""Scenario runner: one structured configuration document drives correlation
sweeps, the brute-force oracle regression, and residual diagnosis.

Commands
--------
``correlate <config>``
    Evaluate the configured correlation over a sweep grid and write one CSV
    row per sweep point, with ``#``-prefixed metadata header lines.
``oracle-verify <config>``
    Run the discrete-grid oracle suite and print one pass/fail line per
    named check.
``diagnose <config>``
    Print max residuals of the structural identities (tetrad contractions,
    phase cocycle, amplitude exchange symmetry) with pass thresholds, plus
    informational model-quality residuals (Bell condition fit, polarization
    transport, amplitude covariance).

Exit codes: 0 success; 1 failed checks or violated output bounds;
2 configuration/schema errors; 3 violated mathematical preconditions.

Determinism: identical configuration and seed produce byte-identical
output files; the thread count never changes results or bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import jsonschema
import numpy as np
import yaml

from . import __version__
from .correlators import (
    DetectorSetting,
    Scenario,
    TransformCase,
    alice_only_case,
    bound_check,
    epr_bell_rest,
    epr_case1,
    epr_case2,
    epr_general_rest,
    joint_case,
    rest_case,
)
from .errors import ChartError, InputError, PreconditionError
from .fock_oracle import DiscreteGrid, OscillatorTruncation, verify_suite
from .measure import DetectorRegion, QuadratureSpec, invariant_node_set
from .spinor_tetrad import (
    LorentzMap,
    NullMomentum,
    apply,
    boost,
    compose,
    identity_map,
    inverse,
    minkowski_dot,
    null_tetrad,
    rotation,
    wigner_phase,
    wrap_angle,
)
from .states import (
    PolarizationAngleField,
    TwoPhotonAmplitude,
    amplitude_eval,
    azimuthal_field,
    bell_condition_residual,
    constant_field,
    covariance_residual,
    fit_theta,
    symmetry_residual,
    tabulated_field,
    theta_wigner_residual,
)
from .vacuum import normalize

__all__ = ["CONFIG_SCHEMA", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3

_SLOT_KEYS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}

_VEC3 = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 3,
    "maxItems": 3,
}

_DETECTOR = {
    "type": "object",
    "additionalProperties": False,
    "required": ["axis", "half_angle", "freq_lo", "freq_hi", "angle"],
    "properties": {
        "axis": _VEC3,
        "half_angle": {"type": "number", "exclusiveMinimum": 0},
        "freq_lo": {"type": "number", "minimum": 0},
        "freq_hi": {"type": "number", "exclusiveMinimum": 0},
        "angle": {"type": "number"},
    },
}

_MAP = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["boost", "rotation", "identity"]},
        "rapidity": {"type": "number"},
        "angle": {"type": "number"},
        "axis": _VEC3,
    },
}

#: Published configuration schema (also shipped as docs/config-schema.json).
CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "bellepr run configuration",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "required": ["state", "vacuum", "bob", "alice"],
            "properties": {
                "state": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {
                            "enum": [
                                "bell11",
                                "bell12",
                                "bell21",
                                "bell22",
                                "general",
                            ]
                        },
                        "envelope": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["kind"],
                            "properties": {
                                "kind": {
                                    "enum": [
                                        "frequency-power",
                                        "frequency-gaussian",
                                    ]
                                },
                                "power": {"type": "number"},
                                "center": {"type": "number"},
                                "width": {"type": "number", "exclusiveMinimum": 0},
                            },
                        },
                        "theta": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["kind"],
                            "properties": {
                                "kind": {
                                    "enum": [
                                        "constant",
                                        "azimuthal",
                                        "tabulated",
                                        "fitted",
                                    ]
                                },
                                "theta0": {"type": "number"},
                                "coeff": {"type": "number"},
                                "axes": {"type": "array", "items": _VEC3},
                                "values": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                },
                            },
                        },
                        "coefficients": {
                            "type": "object",
                            "additionalProperties": False,
                            "patternProperties": {
                                r"^(\+\+|\+-|-\+|--)$": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                    "minItems": 2,
                                    "maxItems": 2,
                                }
                            },
                        },
                    },
                },
                "vacuum": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["family", "params"],
                    "properties": {
                        "family": {
                            "enum": [
                                "power-exponential",
                                "log-normal-isotropic",
                            ]
                        },
                        "params": {
                            "type": "object",
                            "additionalProperties": {"type": "number"},
                        },
                    },
                },
                "n_osc": {
                    "oneOf": [
                        {"type": "integer", "minimum": 2},
                        {"const": "inf"},
                    ]
                },
                "bob": _DETECTOR,
                "alice": _DETECTOR,
                "transform": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["case"],
                    "properties": {
                        "case": {"enum": ["rest", "joint", "alice_only"]},
                        "map": _MAP,
                    },
                },
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variable", "start", "stop", "count"],
            "properties": {
                "variable": {"enum": ["beta", "alpha", "rapidity", "n_osc"]},
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "count": {"type": "integer", "minimum": 1},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_freq": {"type": "integer", "minimum": 2},
                "n_polar": {"type": "integer", "minimum": 2},
                "n_azimuth": {"type": "integer", "minimum": 2},
                "mode": {"enum": ["product", "mc"]},
                "seed": {"type": "integer", "minimum": 0},
                "n_samples": {"type": "integer", "minimum": 2},
                "radial_scale": {"type": "number", "exclusiveMinimum": 0},
                "radial_map": {"enum": ["linear", "log"]},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv"]},
            },
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "cells": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["freq", "dir", "weight"],
                        "properties": {
                            "freq": {"type": "number", "exclusiveMinimum": 0},
                            "dir": _VEC3,
                            "weight": {"type": "number", "exclusiveMinimum": 0},
                        },
                    },
                },
                "n_osc": {"type": "integer", "minimum": 1},
                "max_occupation": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer", "minimum": 0},
                "fault_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "diagnose": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "momentum_samples": {"type": "integer", "minimum": 1},
                "map_samples": {"type": "integer", "minimum": 1},
                "pair_samples": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}


class ConfigError(Exception):
    """Configuration loading or validation failure (exit code 2)."""


# --------------------------------------------------------------------------
# config loading and scenario construction


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path!r} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path!r} must be a mapping at top level")
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config {path!r}: at {where}: {exc.message}") from exc
    return doc, digest


def _build_quadrature(doc: dict, seed_override: int | None) -> QuadratureSpec:
    q = doc.get("quadrature", {})
    seed = seed_override if seed_override is not None else q.get("seed", 0)
    return QuadratureSpec(
        n_freq=q.get("n_freq", 6),
        n_polar=q.get("n_polar", 4),
        n_azimuth=q.get("n_azimuth", 8),
        mode=q.get("mode", "product"),
        seed=seed,
        n_samples=q.get("n_samples", 20000),
        radial_scale=q.get("radial_scale", 1.0),
        radial_map=q.get("radial_map", "linear"),
    )


def _build_envelope(spec: dict | None):
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "frequency-power":
        power = spec.get("power", 1.0)
        return lambda freqs, dirs: np.asarray(freqs, dtype=float) ** power
    center = spec.get("center", 1.0)
    width = spec.get("width", 0.5)
    return lambda freqs, dirs: np.exp(
        -((np.asarray(freqs, dtype=float) - center) ** 2) / (2.0 * width**2)
    )


def _build_amplitude(state: dict) -> TwoPhotonAmplitude:
    kind = state["kind"]
    envelope = _build_envelope(state.get("envelope"))
    if kind != "general":
        return TwoPhotonAmplitude(kind=kind, envelope=envelope)
    coeffs = state.get("coefficients")
    if not coeffs:
        raise ConfigError(
            "state kind 'general' needs a 'coefficients' block with per-slot [re, im]"
        )
    table = {}
    values = {}
    for key, slot in _SLOT_KEYS.items():
        if key in coeffs:
            re, im = coeffs[key]
            values[slot] = complex(re, im)
    for slot, c in values.items():
        mirror = values.get((slot[1], slot[0]))
        if mirror is None or abs(c - mirror) > 1e-12 * max(1.0, abs(c)):
            raise ConfigError(
                "general coefficients must be exchange-symmetric: "
                f"slot {slot} needs a matching transposed entry"
            )
        table[slot] = (lambda f1, d1, f2, d2, c=c: c)
    return TwoPhotonAmplitude(kind="general", envelope=envelope, table=table)


def _build_region(block: dict) -> DetectorRegion:
    return DetectorRegion(
        axis=np.asarray(block["axis"], dtype=float),
        half_angle=float(block["half_angle"]),
        freq_lo=float(block["freq_lo"]),
        freq_hi=float(block["freq_hi"]),
    )


def _build_map(block: dict) -> LorentzMap:
    kind = block["kind"]
    if kind == "identity":
        return identity_map()
    axis = np.asarray(block.get("axis", [0.0, 0.0, 1.0]), dtype=float)
    if kind == "boost":
        if "rapidity" not in block:
            raise ConfigError("boost map needs a 'rapidity'")
        return boost(float(block["rapidity"]), axis)
    if "angle" not in block:
        raise ConfigError("rotation map needs an 'angle'")
    return rotation(float(block["angle"]), axis)


def _build_transform(block: dict | None) -> TransformCase:
    if block is None or block["case"] == "rest":
        if block is not None and "map" in block:
            raise ConfigError("rest transform carries no map")
        return rest_case()
    if "map" not in block:
        raise ConfigError(f"transform case {block['case']!r} needs a 'map'")
    built = _build_map(block["map"])
    if block["case"] == "joint":
        return joint_case(built)
    return alice_only_case(built)


def _build_theta(
    state: dict,
    amp: TwoPhotonAmplitude,
    bob_region: DetectorRegion,
    alice_region: DetectorRegion,
    quad: QuadratureSpec,
) -> PolarizationAngleField | None:
    block = state.get("theta")
    if block is None:
        return None
    kind = block["kind"]
    if kind == "constant":
        return constant_field(float(block.get("theta0", 0.0)))
    if kind == "azimuthal":
        return azimuthal_field(
            float(block.get("theta0", 0.0)), float(block.get("coeff", 1.0))
        )
    if kind == "tabulated":
        if "axes" not in block or "values" not in block:
            raise ConfigError("tabulated theta needs 'axes' and 'values'")
        return tabulated_field(
            np.asarray(block["axes"], dtype=float),
            np.asarray(block["values"], dtype=float),
        )
    # fitted: least-squares constant-per-cone angle for the state's own
    # maximal-correlation condition
    if amp.kind == "general":
        raise ConfigError("fitted theta requires a Bell state kind")
    condition = int(amp.kind[-2:])
    fit = fit_theta(amp, condition, bob_region, alice_region, spec=quad)
    return fit.field


def _build_scenario(doc: dict, quad: QuadratureSpec) -> Scenario:
    if "scenario" not in doc:
        raise ConfigError("this command requires a 'scenario' block")
    sc = doc["scenario"]
    amp = _build_amplitude(sc["state"])
    vac = normalize(sc["vacuum"]["family"], dict(sc["vacuum"]["params"]))
    bob_region = _build_region(sc["bob"])
    alice_region = _build_region(sc["alice"])
    n_osc = sc.get("n_osc", "inf")
    n_osc = math.inf if n_osc == "inf" else int(n_osc)
    theta = _build_theta(sc["state"], amp, bob_region, alice_region, quad)
    return Scenario(
        amplitude=amp,
        vacuum=vac,
        bob=DetectorSetting(region=bob_region, angle=float(sc["bob"]["angle"])),
        alice=DetectorSetting(
            region=alice_region, angle=float(sc["alice"]["angle"])
        ),
        n_osc=n_osc,
        theta_field=theta,
        transform=_build_transform(sc.get("transform")),
        quadrature=quad,
    )


# --------------------------------------------------------------------------
# correlate


def _sweep_values(sweep: dict) -> list[float]:
    values = np.linspace(
        float(sweep["start"]), float(sweep["stop"]), int(sweep["count"])
    )
    if sweep["variable"] == "n_osc":
        ints = [int(round(v)) for v in values]
        if any(v < 2 for v in ints):
            raise ConfigError("n_osc sweep values must round to integers >= 2")
        return ints
    return [float(v) for v in values]


def _scenario_at(base: Scenario, doc: dict, variable: str, value) -> Scenario:
    if variable == "beta":
        return dataclasses.replace(
            base, bob=dataclasses.replace(base.bob, angle=float(value))
        )
    if variable == "alpha":
        return dataclasses.replace(
            base, alice=dataclasses.replace(base.alice, angle=float(value))
        )
    if variable == "n_osc":
        return dataclasses.replace(base, n_osc=int(value))
    # rapidity: rebuild the transform's boost with the swept rapidity
    block = doc["scenario"].get("transform")
    if block is None or block["case"] == "rest":
        raise ConfigError("rapidity sweep needs a non-rest transform case")
    if block["map"]["kind"] != "boost":
        raise ConfigError("rapidity sweep needs a boost map")
    axis = np.asarray(block["map"].get("axis", [0.0, 0.0, 1.0]), dtype=float)
    new_map = boost(float(value), axis)
    case = joint_case(new_map) if block["case"] == "joint" else alice_only_case(new_map)
    return dataclasses.replace(base, transform=case)


def _evaluate_scenario(scn: Scenario):
    if scn.transform.kind == "joint":
        return epr_case1(scn)
    if scn.transform.kind == "alice_only":
        return epr_case2(scn)
    if scn.amplitude.kind == "general":
        return epr_general_rest(scn)
    return epr_bell_rest(scn)


def _format_float(x: float) -> str:
    return format(float(x), ".17e")


def cmd_correlate(args) -> int:
    doc, digest = _load_config(args.config)
    if "sweep" not in doc:
        raise ConfigError("correlate requires a 'sweep' block")
    quad = _build_quadrature(doc, args.seed)
    base = _build_scenario(doc, quad)
    sweep = doc["sweep"]
    values = _sweep_values(sweep)
    scenarios = [_scenario_at(base, doc, sweep["variable"], v) for v in values]

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        results = list(pool.map(_evaluate_scenario, scenarios))

    out_path = args.out or doc.get("output", {}).get("path", "correlate.csv")
    lines = [
        f"# bellepr correlate {__version__}",
        f"# config-sha256: {digest}",
        f"# seed: {quad.seed}",
        "# sweep: variable={} start={} stop={} count={}".format(
            sweep["variable"],
            _format_float(sweep["start"]),
            _format_float(sweep["stop"]),
            int(sweep["count"]),
        ),
        "sweep_value,numerator,denominator,epr_value,err_estimate,bell_residual_max",
    ]
    violations = []
    for value, res in zip(values, results):
        bell_res = res.diagnostics.get("bell_residual_max")
        lines.append(
            ",".join(
                [
                    _format_float(value),
                    _format_float(res.numerator),
                    _format_float(res.denominator),
                    _format_float(res.value),
                    _format_float(res.err_estimate),
                    "" if bell_res is None else _format_float(bell_res),
                ]
            )
        )
        if not bound_check(res):
            violations.append(value)
    payload = "\n".join(lines) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    print(f"wrote {len(values)} rows to {out_path}")
    if violations:
        print(
            "BOUND VIOLATION at sweep values: "
            + ", ".join(_format_float(v) for v in violations),
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


# --------------------------------------------------------------------------
# oracle-verify


_DEFAULT_ORACLE_CELLS = (
    {"freq": 1.0, "dir": [0.0, 0.0, 1.0], "weight": 0.4},
    {"freq": 1.3, "dir": [1.0, 0.0, 0.0], "weight": 0.65},
    {"freq": 1.6, "dir": [0.0, 1.0, 0.0], "weight": 0.9},
)


def cmd_oracle_verify(args) -> int:
    doc, digest = _load_config(args.config)
    block = doc.get("oracle", {})
    cells = block.get("cells", list(_DEFAULT_ORACLE_CELLS))
    grid = DiscreteGrid(
        [
            (
                NullMomentum(float(c["freq"]), np.asarray(c["dir"], dtype=float)),
                float(c["weight"]),
            )
            for c in cells
        ]
    )
    n_osc = block.get("n_osc", 2)
    trunc = OscillatorTruncation(block.get("max_occupation", 2))
    seed = args.seed if args.seed is not None else block.get("seed", 0)
    fault = block.get("fault_scale", 1.0)
    checks = verify_suite(
        grid, n_osc=n_osc, trunc=trunc, seed=seed, fault_scale=fault
    )
    lines = [
        f"# bellepr oracle-verify {__version__}",
        f"# config-sha256: {digest}",
        f"# grid: {grid.size} cells, n_osc={n_osc}, cutoff={trunc.max_occupation}, seed={seed}",
    ]
    n_pass = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        n_pass += check.passed
        lines.append(
            f"CHECK {check.name:<40s} {status} {check.residual:.3e} (<= {check.threshold:.1e})"
        )
    ok = n_pass == len(checks)
    lines.append(f"RESULT {'PASS' if ok else 'FAIL'} ({n_pass}/{len(checks)} checks)")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# diagnose


def _random_momenta(rng: np.random.Generator, n: int) -> list[NullMomentum]:
    u = rng.uniform(-0.999, 0.999, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    sin_t = np.sqrt(1.0 - u**2)
    freqs = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=n))
    return [
        NullMomentum(
            float(freqs[i]),
            np.array(
                [sin_t[i] * math.cos(phi[i]), sin_t[i] * math.sin(phi[i]), u[i]]
            ),
        )
        for i in range(n)
    ]


def _random_map(rng: np.random.Generator) -> LorentzMap:
    def unit(v):
        return v / np.linalg.norm(v)

    b = boost(float(rng.uniform(0.1, 1.5)), unit(rng.normal(size=3)))
    r = rotation(float(rng.uniform(-math.pi, math.pi)), unit(rng.normal(size=3)))
    return compose(b, r)


def _tetrad_residual(k: NullMomentum) -> float:
    t = null_tetrad(k)
    return max(
        abs(minkowski_dot(t.k_vec, t.k_vec)),
        abs(minkowski_dot(t.k_vec, t.q_vec) - 1.0),
        abs(minkowski_dot(t.m_vec, t.mbar_vec) + 1.0),
        abs(minkowski_dot(t.m_vec, t.m_vec)),
        abs(minkowski_dot(t.k_vec, t.m_vec)),
    )


def cmd_diagnose(args) -> int:
    doc, digest = _load_config(args.config)
    block = doc.get("diagnose", {})
    n_momenta = block.get("momentum_samples", 200)
    n_maps = block.get("map_samples", 30)
    n_pairs = block.get("pair_samples", 24)
    seed = args.seed if args.seed is not None else block.get("seed", 0)
    rng = np.random.default_rng(seed)
    quad = _build_quadrature(doc, None)
    scn = _build_scenario(doc, quad)

    lines = [
        f"# bellepr diagnose {__version__}",
        f"# config-sha256: {digest}",
        f"# samples: momenta={n_momenta} maps={n_maps} pairs={n_pairs} seed={seed}",
    ]
    failures = 0

    def check(name: str, residual: float, threshold: float) -> None:
        nonlocal failures
        ok = residual <= threshold
        failures += 0 if ok else 1
        lines.append(
            f"CHECK {name:<36s} {'PASS' if ok else 'FAIL'} {residual:.3e} (<= {threshold:.1e})"
        )

    def info(name: str, residual: float) -> None:
        lines.append(f"INFO  {name:<36s}      {residual:.3e}")

    # structural geometry identities
    momenta = _random_momenta(rng, n_momenta)
    check(
        "tetrad-null-contractions",
        max(_tetrad_residual(k) for k in momenta),
        1e-10,
    )
    worst_cocycle = 0.0
    worst_freq = 0.0
    probe = momenta[: max(1, n_momenta // 4)]
    for _ in range(n_maps):
        a, b = _random_map(rng), _random_map(rng)
        ab = compose(a, b)
        for k in probe:
            try:
                lhs = wigner_phase(ab, k)
                rhs = wigner_phase(a, k) + wigner_phase(b, apply(inverse(a), k))
            except ChartError:
                continue
            worst_cocycle = max(worst_cocycle, abs(wrap_angle(lhs - rhs)))
        k0 = probe[0]
        try:
            base = wigner_phase(a, k0)
            for scale in (0.25, 4.0):
                other = NullMomentum(k0.freq * scale, k0.dir)
                worst_freq = max(
                    worst_freq, abs(wrap_angle(wigner_phase(a, other) - base))
                )
        except ChartError:
            pass
    check("wigner-phase-cocycle", worst_cocycle, 1e-8)
    check("wigner-frequency-independence", worst_freq, 1e-8)

    # amplitude exchange symmetry on sampled pairs
    pair_pool = _random_momenta(rng, 2 * n_pairs)
    worst_sym = max(
        symmetry_residual(scn.amplitude, pair_pool[2 * i], pair_pool[2 * i + 1])
        for i in range(n_pairs)
    )
    check("amplitude-exchange-symmetry", worst_sym, 1e-10)

    # model-quality diagnostics (reported, non-fatal)
    nodes_b = invariant_node_set(scn.bob.region, quad)
    nodes_a = invariant_node_set(scn.alice.region, quad)
    kb = [
        NullMomentum(float(nodes_b.freqs[i]), nodes_b.dirs[i])
        for i in range(0, len(nodes_b.freqs), max(1, len(nodes_b.freqs) // 8))
    ]
    ka = [
        NullMomentum(float(nodes_a.freqs[i]), nodes_a.dirs[i])
        for i in range(0, len(nodes_a.freqs), max(1, len(nodes_a.freqs) // 8))
    ]
    if scn.amplitude.kind != "general" and scn.theta_field is not None:
        condition = int(scn.amplitude.kind[-2:])
        worst_bell = max(
            bell_condition_residual(condition, scn.amplitude, scn.theta_field, x, y)
            for x in kb
            for y in ka
        )
        scale = max(
            max(
                abs(amplitude_eval(scn.amplitude, x, y, s, spp))
                for s in (1, -1)
                for spp in (1, -1)
            )
            for x in kb
            for y in ka
        )
        info("bell-condition-defect-relative", worst_bell / max(scale, 1e-300))
    lmap = scn.transform.lorentz_map
    if lmap is not None:
        if scn.theta_field is not None:
            worst_shift = max(
                theta_wigner_residual(scn.theta_field, lmap, k) for k in kb + ka
            )
            info("theta-wigner-shift", worst_shift)
        worst_cov = max(
            covariance_residual(scn.amplitude, lmap, x, y)
            for x, y in zip(kb, ka)
        )
        info("amplitude-covariance-defect", worst_cov)

    ok = failures == 0
    lines.append(f"RESULT {'PASS' if ok else 'FAIL'} ({failures} failed checks)")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# entry point


def _default_threads() -> int:
    env = os.environ.get("BELLEPR_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"BELLEPR_THREADS must be an integer, got {env!r}") from exc
        if n < 1:
            raise ConfigError("BELLEPR_THREADS must be >= 1")
        return n
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellepr",
        description="Photon-pair correlation scenarios: sweeps, oracle checks, diagnostics.",
    )
    parser.add_argument(
        "--version", action="version", version=f"bellepr {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("correlate", cmd_correlate, "run a correlation sweep and write CSV"),
        ("oracle-verify", cmd_oracle_verify, "run the discrete-grid oracle suite"),
        ("diagnose", cmd_diagnose, "report structural and model residuals"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the YAML configuration document")
        p.add_argument("--out", help="output file path (overrides the config)")
        p.add_argument(
            "--seed", type=int, default=None, help="seed override (recorded in output)"
        )
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads for sweep evaluation (default: BELLEPR_THREADS or 1)",
        )
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads is None:
            args.threads = _default_threads()
        elif args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
