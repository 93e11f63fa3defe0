"""Seeded generators for the benchmark's YAML configs.

The program under test only ever sees the YAML text produced here.  Every
workload is an endless stream of *cycles*; a cycle has a fixed shape (node
count, transform case, sweep variable and length, and which cost class of
Bell kind sits in which slot) and fresh parameters drawn from
``random.Random`` seeded by ``(seed, workload, cycle)``.  The shape is what
sets the cost of a cycle, so two seeds cost the same to run; the parameters
are what the seed varies.

Parameter ranges follow the demos: cone half-angles 0.03-0.35 rad, cone axes
in the upper hemisphere at least 1.2 rad apart, rapidities at most 2, boost
axes horizontal for joint motion and close to minus Alice's axis for
single-arm motion (so her pulled-back cone narrows and stays clear of Bob's),
log-normal widths at least 0.5.  Inside these ranges no config is expected to
end in exit 3; one that does is counted as a failure, never redrawn.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass

import yaml

BELL_KINDS = ("bell11", "bell12", "bell21", "bell22")
#: Bell kinds whose dense tables cost about the same (11/12 build one 4-vector
#: contraction, 21/22 square a spinor pairing).
DIFF_KINDS = ("bell11", "bell12")
SUM_KINDS = ("bell21", "bell22")

QUAD_1536 = {"n_freq": 12, "n_polar": 8, "n_azimuth": 16}
QUAD_192 = {"n_freq": 6, "n_polar": 4, "n_azimuth": 8}

#: Cells of the oracle grid: the same count as the CLI default (3), so every
#: draw builds spaces of the same dimension.
ORACLE_CELLS = 3


@dataclass(frozen=True)
class Job:
    """One ``bellepr`` invocation: subcommand, config text, expected rows."""

    command: str
    label: str
    text: str
    rows: int = 0
    n_osc: int = 0

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)


def _rng(seed: int, workload: str, cycle: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{cycle}")


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _upper_axis(rng: random.Random) -> list[float]:
    """Unit vector with polar angle at most 70 degrees from +z."""
    cos_t = rng.uniform(math.cos(math.radians(70.0)), 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    sin_t = math.sqrt(1.0 - cos_t * cos_t)
    return [sin_t * math.cos(phi), sin_t * math.sin(phi), cos_t]


def _cone_axes(rng: random.Random) -> tuple[list[float], list[float]]:
    bob = _upper_axis(rng)
    while True:
        alice = _upper_axis(rng)
        dot = sum(a * b for a, b in zip(bob, alice))
        if math.acos(max(-1.0, min(1.0, dot))) >= 1.2:
            return bob, alice


def _detector(rng: random.Random, axis: list[float]) -> dict:
    return {
        "axis": [round(x, 12) for x in axis],
        "half_angle": round(rng.uniform(0.03, 0.35), 6),
        "freq_lo": round(rng.uniform(0.3, 0.7), 6),
        "freq_hi": round(rng.uniform(1.5, 3.0), 6),
        "angle": round(rng.uniform(-math.pi, math.pi), 12),
    }


def _vacuum(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {
            "family": "power-exponential",
            "params": {
                "exponent": round(rng.uniform(1.0, 3.0), 6),
                "scale": round(rng.uniform(0.7, 1.5), 6),
            },
        }
    return {
        "family": "log-normal-isotropic",
        "params": {
            "scale": round(rng.uniform(0.7, 1.5), 6),
            "width": round(rng.uniform(0.5, 1.0), 6),
        },
    }


def _transform(rng: random.Random, case: str, alice_axis: list[float]) -> dict:
    if case == "rest":
        return {"case": "rest"}
    if case == "joint":
        phi = rng.uniform(0.0, 2.0 * math.pi)
        axis = [math.cos(phi), math.sin(phi), 0.0]
    else:
        tilt = [rng.gauss(0.0, 0.1) for _ in range(3)]
        axis = _unit([-a + t for a, t in zip(alice_axis, tilt)])
    return {
        "case": case,
        "map": {
            "kind": "boost",
            "rapidity": round(rng.uniform(0.2, 2.0), 6),
            "axis": [round(x, 12) for x in axis],
        },
    }


def _sweep(rng: random.Random, variable: str, count: int) -> dict:
    if variable in ("beta", "alpha"):
        start = rng.uniform(-math.pi, math.pi)
        stop = start + rng.uniform(0.5, math.pi)
    elif variable == "n_osc":
        start, stop = 2, rng.randint(max(3, count + 1), 60)
    else:
        start, stop = rng.uniform(0.0, 0.5), rng.uniform(1.0, 2.0)
    if isinstance(start, float):
        start, stop = round(start, 12), round(stop, 12)
    return {"variable": variable, "start": start, "stop": stop, "count": count}


def _n_osc(rng: random.Random):
    return "inf" if rng.random() < 0.5 else rng.randint(2, 50)


def bell_config(
    rng: random.Random, kind: str, case: str, variable: str, count: int, quad: dict
) -> str:
    """A ``correlate`` config for a Bell kind with a fitted angle field."""
    bob_axis, alice_axis = _cone_axes(rng)
    doc = {
        "scenario": {
            "state": {"kind": kind, "theta": {"kind": "fitted"}},
            "vacuum": _vacuum(rng),
            "n_osc": _n_osc(rng),
            "bob": _detector(rng, bob_axis),
            "alice": _detector(rng, alice_axis),
            "transform": _transform(rng, case, alice_axis),
        },
        "sweep": _sweep(rng, variable, count),
        "quadrature": dict(quad),
    }
    return _dump(doc)


def oracle_config(rng: random.Random, n_osc: int) -> str:
    cells = [
        {
            "freq": round(rng.uniform(0.5, 2.0), 6),
            "dir": [round(x, 12) for x in _unit([rng.gauss(0.0, 1.0) for _ in range(3)])],
            "weight": round(rng.uniform(0.3, 1.0), 6),
        }
        for _ in range(ORACLE_CELLS)
    ]
    doc = {
        "oracle": {
            "cells": cells,
            "n_osc": n_osc,
            "max_occupation": 2,
            "seed": rng.randint(0, 2**31 - 1),
            "fault_scale": 1.0,
        }
    }
    return _dump(doc)


def diagnose_config(rng: random.Random, kind: str) -> str:
    """A joint-boost scenario for ``diagnose``, with half the default map
    samples so that a cold ``diagnose`` costs about what a cold 192-node
    ``correlate`` sweep costs."""
    text = bell_config(rng, kind, "joint", "rapidity", 2, QUAD_192)
    doc = yaml.safe_load(text)
    del doc["sweep"]
    doc["diagnose"] = {"map_samples": 15, "seed": rng.randint(0, 2**31 - 1)}
    return _dump(doc)


def _corr(label: str, text: str, count: int) -> Job:
    return Job("correlate", label, text, rows=count)


def _dense_cycle(rng: random.Random) -> list[Job]:
    # Rest slots take the four kinds in a drawn order; each moving case gets
    # one kind of each cost class, so every cycle costs the same.  Sweep
    # lengths make every call cost about the same (a joint point costs about
    # two rest points), so the median call is not a boundary between groups.
    rest = rng.sample(BELL_KINDS, 4)
    joint = (rng.choice(DIFF_KINDS), rng.choice(SUM_KINDS))
    single = (rng.choice(SUM_KINDS), rng.choice(DIFF_KINDS))
    slots = [
        (rest[0], "rest", "beta", 2),
        (joint[0], "joint", "rapidity", 1),
        (rest[1], "rest", "alpha", 2),
        (single[0], "alice_only", "rapidity", 2),
        (rest[2], "rest", "n_osc", 2),
        (joint[1], "joint", "rapidity", 1),
        (rest[3], "rest", "beta", 2),
        (single[1], "alice_only", "rapidity", 2),
    ]
    return [
        _corr(f"{case}-{var}-{kind}", bell_config(rng, kind, case, var, n, QUAD_1536), n)
        for kind, case, var, n in slots
    ]


def _sweep_cycle(rng: random.Random) -> list[Job]:
    # Three rest sweeps of five, and moving sweeps shortened to cost what a
    # 13-point rest sweep costs, keep the call-time quantiles inside one group.
    kinds = rng.sample(BELL_KINDS, 4) + [rng.choice(BELL_KINDS)]
    slots = [
        ("rest", "beta", 13),
        ("rest", "n_osc", 13),
        ("joint", "rapidity", 6),
        ("rest", "alpha", 13),
        ("alice_only", "rapidity", 11),
    ]
    return [
        _corr(f"{case}-{var}-{kind}", bell_config(rng, kind, case, var, n, QUAD_192), n)
        for kind, (case, var, n) in zip(kinds, slots)
    ]


def _cli_cold_cycle(rng: random.Random) -> list[Job]:
    # Each cold child costs about the same; the oracle rounds come from the
    # probe every run makes (PROBE_ROUNDS).
    kinds = rng.sample(BELL_KINDS, 4)
    slots = [("rest", "beta", 13), ("joint", "rapidity", 5), ("alice_only", "rapidity", 13)]
    return [
        _corr(f"{case}-{var}-{kind}", bell_config(rng, kind, case, var, n, QUAD_192), n)
        for kind, (case, var, n) in zip(kinds, slots)
    ] + [Job("diagnose", f"diagnose-{kinds[3]}", diagnose_config(rng, kinds[3]))]


def oracle_round(rng: random.Random) -> list[Job]:
    """``oracle-verify`` at N=2 then N=3 on one drawn three-cell grid each."""
    return [
        Job("oracle-verify", f"oracle-n{n}", oracle_config(rng, n), n_osc=n)
        for n in (2, 3)
    ]


#: Oracle rounds every run spreads over its time, so that each run
#: has more than one sample of ``oracle_run_s_p50``.
PROBE_ROUNDS = 6


def probe_jobs(seed: int) -> list[Job]:
    """The cold ``oracle-verify`` children every run makes."""
    return [job for r in range(PROBE_ROUNDS) for job in oracle_round(_rng(seed, "probe", r))]


WORKLOADS = {
    "dense-hi-res": _dense_cycle,
    "sweep-lo-res": _sweep_cycle,
    "cli-cold": _cli_cold_cycle,
}

#: Workloads whose ``correlate`` calls run inside the benchmark process.
IN_PROCESS = ("dense-hi-res", "sweep-lo-res")


def jobs(workload: str, seed: int, cycles: int | None = None):
    """The workload's jobs for ``seed``, cycle by cycle; endless by default."""
    make = WORKLOADS[workload]
    counter = itertools.count() if cycles is None else range(cycles)
    for cycle in counter:
        yield from make(_rng(seed, workload, cycle))
