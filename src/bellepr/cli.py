"""Scenario runner: one structured configuration document drives correlation
sweeps, the brute-force oracle regression, and residual diagnosis.

Commands
--------
``correlate <config>``
    Evaluate the configured correlation over a sweep grid and write one CSV
    row per sweep point, with ``#``-prefixed metadata header lines.  A
    beta, alpha or n_osc sweep prepares its scenario once and finishes each
    row from it; a rapidity sweep, whose rows move the arms, prepares each row
    on the shared laboratory cones, which keep their node sets, so the sweep
    meshes each cone once per rule.
``oracle-verify <config>``
    Run the discrete-grid oracle suite and print one pass/fail line per
    named check.
``diagnose <config>``
    Print max residuals of the structural identities (tetrad contractions,
    phase cocycle, amplitude exchange symmetry) with pass thresholds, plus
    informational model-quality residuals (Bell condition fit, polarization
    transport, amplitude covariance and, for a joint transform, the gap to
    the state realized at the laboratory momenta).

Exit codes: 0 success; 1 failed checks or violated output bounds;
2 configuration/schema errors; 3 violated mathematical preconditions.

Determinism: identical configuration and seed produce byte-identical
output files; the thread count never changes results or bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib.resources
import json
import math
import os
import re
import sys

import numpy as np
import yaml

from . import __version__
from .correlators import (
    DEFAULT_QUADRATURE,
    DetectorSetting,
    Scenario,
    TransformCase,
    bound_check,
    check_regions,
    correlate,
    prepare,
)
from .errors import ConsistencyError, InputError, PreconditionError
from .fock_oracle import DiscreteGrid, OscillatorTruncation, verify_suite
from .measure import DetectorRegion, QuadratureSpec, invariant_node_set
from .spinor_tetrad import (
    LorentzMap,
    NullMomentum,
    batch_null_tetrads,
    boost,
    compose,
    identity_map,
    minkowski_dot,
    rotation,
    wigner_defined,
    wigner_pullback,
    wrap_angle,
)
from .states import (
    BELL_KINDS,
    PolarizationAngleField,
    TwoPhotonAmplitude,
    azimuthal_field,
    condition_residuals,
    constant_field,
    covariance_residuals,
    field_values,
    fit_theta,
    pair_factors,
    symmetry_residuals,
    tabulated_field,
    theta_wigner_residuals,
)
from .vacuum import normalize, with_transform

__all__ = ["CONFIG_SCHEMA", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3

_SLOT_KEYS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}

#: Configuration schema (JSON Schema draft-07), shipped as package data;
#: docs/config-schema.json links to the same file.
CONFIG_SCHEMA = json.loads(
    importlib.resources.files(__package__)
    .joinpath("config-schema.json")
    .read_text(encoding="utf-8")
)


# --------------------------------------------------------------------------
# config loading and scenario construction


class _YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser when PyYAML was built with it (both
    build the same documents), that also reads YAML 1.2's dot-less exponent
    floats: YAML 1.1 reads ``1e-4`` and ``1e5`` as strings."""


_YAML_LOADER.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9]+[eE][-+]?[0-9]+$"), list("-+0123456789")
)


@functools.cache
def _config_validator():
    """The packaged schema's draft-7 validator, built on first use, in which an
    integer is a Python int: draft 7 also counts 1000.0 (or 1e3) as one, but
    the counts and seeds that the schema types so are used as ints."""
    import jsonschema  # deferred: only commands that read a config pay its import

    integer = jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    )
    # the packaged schema is checked against its metaschema by the tests, not per load
    return jsonschema.validators.extend(jsonschema.Draft7Validator, type_checker=integer)(
        CONFIG_SCHEMA
    )


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = yaml.load(raw, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise InputError(f"config {path!r} is not valid YAML: {exc}") from exc
    import jsonschema

    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise InputError(f"config {path!r}: at {where}: {error.message}")
    return doc, digest


def _build_quadrature(doc: dict, seed_override: int | None) -> QuadratureSpec:
    spec = dataclasses.replace(DEFAULT_QUADRATURE, **doc.get("quadrature", {}))
    if seed_override is not None:
        spec = dataclasses.replace(spec, seed=seed_override)
    return spec


def _build_envelope(spec: dict | None):
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "frequency-power":
        power = spec.get("power", 1.0)
        return lambda freqs, dirs: np.asarray(freqs, dtype=float) ** power
    center = spec.get("center", 1.0)
    width = spec.get("width", 0.5)
    try:
        two_var = 2.0 * width**2
    except OverflowError:
        two_var = math.inf
    if not 0.0 < two_var < math.inf:
        raise InputError(f"envelope width {width!r}: twice its square is beyond double range")
    return lambda freqs, dirs: np.exp(-((np.asarray(freqs, dtype=float) - center) ** 2) / two_var)


def _build_amplitude(state: dict) -> TwoPhotonAmplitude:
    kind = state["kind"]
    envelope = _build_envelope(state.get("envelope"))
    if kind != "general":
        return TwoPhotonAmplitude(kind=kind, envelope=envelope)
    coeffs = state.get("coefficients")
    if not coeffs:
        raise InputError(
            "state kind 'general' needs a 'coefficients' block with per-slot [re, im]"
        )
    table = {}
    for key, slot in _SLOT_KEYS.items():
        if key in coeffs:
            re, im = coeffs[key]
            table[slot] = complex(re, im)
    for slot, c in table.items():
        mirror = table.get((slot[1], slot[0]))
        if mirror is None or abs(c - mirror) > 1e-12 * max(1.0, abs(c)):
            raise InputError(
                "general coefficients must be exchange-symmetric: "
                f"slot {slot} needs a matching transposed entry"
            )
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
            raise InputError("boost map needs a 'rapidity'")
        return boost(float(block["rapidity"]), axis)
    if "angle" not in block:
        raise InputError("rotation map needs an 'angle'")
    return rotation(float(block["angle"]), axis)


def _build_transform(block: dict | None) -> TransformCase:
    block = block or {"case": "rest"}
    return TransformCase(
        kind=block["case"],
        lorentz_map=_build_map(block["map"]) if "map" in block else None,
    )


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
        return tabulated_field(block.get("axes"), block.get("values"))
    # fitted: least-squares constant-per-cone angle for the state's own
    # maximal-correlation condition
    condition = BELL_KINDS.get(amp.kind)
    if condition is None:
        raise InputError("fitted theta requires a Bell state kind")
    fit = fit_theta(amp, condition, bob_region, alice_region, spec=quad)
    return fit.field


def _build_scenario(doc: dict, quad: QuadratureSpec) -> Scenario:
    if "scenario" not in doc:
        raise InputError("this command requires a 'scenario' block")
    sc = doc["scenario"]
    amp = _build_amplitude(sc["state"])
    vac = normalize(sc["vacuum"]["family"], dict(sc["vacuum"]["params"]))
    bob_region = _build_region(sc["bob"])
    alice_region = _build_region(sc["alice"])
    n_osc = sc.get("n_osc", "inf")
    n_osc = math.inf if n_osc == "inf" else int(n_osc)
    # a fit on overlapping cones is degenerate: refuse the cones first
    check_regions(bob_region, alice_region)
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


def _sweep_rows(base: Scenario, doc: dict) -> tuple[list, list[Scenario]]:
    """The sweep's values and the scenario of each row."""
    sweep = doc["sweep"]
    variable, start, stop = sweep["variable"], float(sweep["start"]), float(sweep["stop"])
    for name, bound in (("start", start), ("stop", stop)):
        if not math.isfinite(bound):
            raise InputError(f"sweep {name} must be finite, got {bound!r}")
    if not math.isfinite(stop - start):
        raise InputError(f"sweep span from {start!r} to {stop!r} is beyond double range")
    block = doc["scenario"].get("transform") or {"case": "rest"}
    if variable == "rapidity" and block["case"] == "rest":
        raise InputError("rapidity sweep needs a non-rest transform case")
    if variable == "rapidity" and block["map"]["kind"] != "boost":
        raise InputError("rapidity sweep needs a boost map")

    def row(value) -> Scenario:
        if variable == "beta":
            return dataclasses.replace(base, bob=dataclasses.replace(base.bob, angle=value))
        if variable == "alpha":
            return dataclasses.replace(base, alice=dataclasses.replace(base.alice, angle=value))
        if variable == "n_osc":
            return dataclasses.replace(base, n_osc=value)
        swept = {**block, "map": {**block["map"], "rapidity": value}}
        return dataclasses.replace(base, transform=_build_transform(swept))

    cast = (lambda v: int(round(v))) if variable == "n_osc" else float
    values = [cast(v) for v in np.linspace(start, stop, int(sweep["count"]))]
    return values, [row(v) for v in values]


def _format_float(x: float) -> str:
    return format(float(x), ".17e")


def cmd_correlate(args) -> int:
    doc, digest = _load_config(args.config)
    if "sweep" not in doc:
        raise InputError("correlate requires a 'sweep' block")
    out_path = args.out or doc.get("output", {}).get("path", "correlate.csv")
    _check_writable(out_path)
    quad = _build_quadrature(doc, args.seed)
    sweep = doc["sweep"]
    values, scenarios = _sweep_rows(_build_scenario(doc, quad), doc)
    point = prepare(scenarios[0]).finish

    if args.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # deferred: one thread needs no pool

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(point, scenarios))
    else:
        results = list(map(point, scenarios))

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
    _write_text(out_path, "\n".join(lines) + "\n")
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
    return _write_report(args, lines, ok)


def _write_report(args, lines: list[str], ok: bool) -> int:
    """Write a check report to stdout and to ``--out``; the exit code."""
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        _write_text(args.out, report)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _check_writable(path: str) -> None:
    """Refuse an output path outside a writable directory; creates nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise InputError(f"cannot write {path!r}: {parent!r} is not a writable directory")


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


# --------------------------------------------------------------------------
# diagnose


def _random_momenta(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (n,) and unit directions (n, 3) of random momenta."""
    u = rng.uniform(-0.999, 0.999, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    sin_t = np.sqrt(1.0 - u**2)
    freqs = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=n))
    dirs = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), u], axis=-1)
    return freqs, dirs


def _random_map(rng: np.random.Generator) -> LorentzMap:
    def unit(v):
        return v / np.linalg.norm(v)

    b = boost(float(rng.uniform(0.1, 1.5)), unit(rng.normal(size=3)))
    r = rotation(float(rng.uniform(-math.pi, math.pi)), unit(rng.normal(size=3)))
    return compose(b, r)


def _tetrad_residual(freqs: np.ndarray, dirs: np.ndarray) -> float:
    """max over the momenta of the five null-tetrad contraction defects."""
    t = batch_null_tetrads(freqs, dirs)
    defects = [
        minkowski_dot(t.k_vec, t.k_vec),
        minkowski_dot(t.k_vec, t.q_vec) - 1.0,
        minkowski_dot(t.m_vec, t.mbar_vec) + 1.0,
        minkowski_dot(t.m_vec, t.m_vec),
        minkowski_dot(t.k_vec, t.m_vec),
    ]
    return float(np.abs(defects).max())


def _cocycle_defect(a: LorentzMap, b: LorentzMap, freqs: np.ndarray, dirs: np.ndarray) -> float:
    """max |wrap(2 Theta(ab, k) - 2 Theta(a, k) - 2 Theta(b, a^-1 k))| over the
    momenta at which all three phases are defined."""
    ab = compose(a, b)
    keep = wigner_defined(ab, freqs, dirs) & wigner_defined(a, freqs, dirs)
    freqs, dirs = freqs[keep], dirs[keep]
    pre_f, pre_d, two_theta_a = wigner_pullback(a, freqs, dirs)
    keep = wigner_defined(b, pre_f, pre_d)
    lhs = wigner_pullback(ab, freqs[keep], dirs[keep])[2]
    rhs = two_theta_a[keep] + wigner_pullback(b, pre_f[keep], pre_d[keep])[2]
    return float(np.abs(wrap_angle(lhs - rhs)).max(initial=0.0))


def _frequency_defect(a: LorentzMap, freq: float, direction: np.ndarray) -> float:
    """max |wrap(2 Theta(a, s k) - 2 Theta(a, k))| over s in (0.25, 4), taken
    up to the first scaled momentum at which the phase is undefined."""
    freqs = freq * np.array([1.0, 0.25, 4.0])
    dirs = np.broadcast_to(direction, (3, 3))
    keep = np.logical_and.accumulate(wigner_defined(a, freqs, dirs))
    if not keep[0]:
        return 0.0
    phases = wigner_pullback(a, freqs[keep], dirs[keep])[2]
    return float(np.abs(wrap_angle(phases[1:] - phases[0])).max(initial=0.0))


def _finite_sample(fn, *args):
    """``fn(*args)``, a grid of residuals on sampled momenta; an amplitude
    that overflows there leaves a non-finite entry, refused here rather than
    reported as a residual."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = fn(*args)
    if not np.isfinite(out).all():
        raise PreconditionError(
            "the amplitude is not finite on diagnose's sampled momenta: it overflows there"
        )
    return out


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
    if "sweep" in doc:
        _sweep_rows(scn, doc)  # refuse what correlate refuses

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
    freqs, dirs = _random_momenta(rng, n_momenta)
    check("tetrad-null-contractions", _tetrad_residual(freqs, dirs), 1e-10)
    worst_cocycle = 0.0
    worst_freq = 0.0
    n_probe = max(1, n_momenta // 4)
    for _ in range(n_maps):
        a, b = _random_map(rng), _random_map(rng)
        worst_cocycle = max(worst_cocycle, _cocycle_defect(a, b, freqs[:n_probe], dirs[:n_probe]))
        worst_freq = max(worst_freq, _frequency_defect(a, float(freqs[0]), dirs[0]))
    check("wigner-phase-cocycle", worst_cocycle, 1e-8)
    check("wigner-frequency-independence", worst_freq, 1e-8)

    # amplitude exchange symmetry over the pair grid of two sampled batches
    pool_f, pool_d = _random_momenta(rng, 2 * n_pairs)
    sym = _finite_sample(
        symmetry_residuals, scn.amplitude, pool_f[::2], pool_d[::2], pool_f[1::2], pool_d[1::2]
    )
    check("amplitude-exchange-symmetry", float(sym.max()), 1e-10)

    # model-quality diagnostics (reported, non-fatal), over the Bob x Alice
    # pair grid of every (n // 8)-th node
    nodes_b = invariant_node_set(scn.bob.region, quad)
    nodes_a = invariant_node_set(scn.alice.region, quad)
    fb, db = (x[:: max(1, len(nodes_b) // 8)] for x in (nodes_b.freqs, nodes_b.dirs))
    fa, da = (x[:: max(1, len(nodes_a) // 8)] for x in (nodes_a.freqs, nodes_a.dirs))
    condition = BELL_KINDS.get(scn.amplitude.kind)
    if condition is not None and scn.theta_field is not None:
        # factors that overflow leave a non-finite residual, refused there
        with np.errstate(over="ignore", invalid="ignore"):
            tables = pair_factors(scn.amplitude, fb, db, fa, da)
        thetas = (field_values(scn.theta_field, f, d) for f, d in ((fb, db), (fa, da)))
        worst_bell = float(_finite_sample(condition_residuals, condition, tables, *thetas).max())
        scale = max(float(np.abs(t.a @ t.b.T).max()) for t in tables.values())
        info("bell-condition-defect-relative", worst_bell / max(scale, 1e-300))
    lmap = scn.transform.lorentz_map
    if lmap is not None:
        if scn.theta_field is not None:
            shift = theta_wigner_residuals(
                scn.theta_field, lmap, np.concatenate([fb, fa]), np.concatenate([db, da])
            )
            info("theta-wigner-shift", float(shift.max()))
        cov = _finite_sample(covariance_residuals, scn.amplitude, lmap, fb, db, fa, da)
        info("amplitude-covariance-defect", float(cov.max()))
    if scn.transform.kind == "joint":
        # the gap to the rest value of the state read at laboratory momenta,
        # vacuum composed with the map: the amplitude's phase transport defect
        realized = dataclasses.replace(
            scn, transform=TransformCase(kind="rest"), vacuum=with_transform(scn.vacuum, lmap)
        )
        gap = abs(correlate(scn).value - correlate(realized).value)
        info("realized-transport-gap", gap)

    ok = failures == 0
    lines.append(f"RESULT {'PASS' if ok else 'FAIL'} ({failures} failed checks)")
    return _write_report(args, lines, ok)


# --------------------------------------------------------------------------
# entry point


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
            default=1,
            help=(
                "threads that finish sweep rows (default: 1, the calling thread); "
                "measured on 2 vCPUs, 2 threads were no faster except in a rapidity "
                "sweep at 12288 nodes per cone (see the README)"
            ),
        )
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise InputError("--threads must be >= 1")
        if args.seed is not None and args.seed < 0:
            raise InputError("--seed must be >= 0")
        return args.func(args)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConsistencyError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
