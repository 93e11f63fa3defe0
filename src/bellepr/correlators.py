"""Normalized EPR correlation values for two-photon states seen by a pair of
cone detectors.

The correlation of two fixed-angle circular/linear analyzer outcomes is a
ratio ``numerator / denominator``:

* numerator — the unnormalized average.  For disjoint detector cones it is a
  double sum over the two cones of the two helicity-slot products
  ``conj(psi_++) psi_--`` (weighted by the analyzer-angle sum) and
  ``conj(psi_+-) psi_-+`` (weighted by the angle difference), carrying the
  oscillator-count factor 8(N-1)/N and one vacuum density factor per slot.
* denominator — the squared norm of the state restricted to the detector
  cones: a same-momentum (coincidence) term with factor 2/N over each cone
  plus all ordered cone-pair blocks with factor 2(N-1)/N.

Both are sums of ``states`` (``four_term``, ``norm_sum``), over the per-arm
nodes, weights and angles built here.

Detector transforms are handled by one rule per transformed arm: mesh the
laboratory acceptance cone, pull each node back through the map, and shift
the arm's analyzer angle per node by minus twice the Wigner phase of the map
at the acceptance node.  The amplitude and the vacuum density are then read
at the pulled-back momenta.  Applying the rule to both arms gives the
joint-transform case; to one arm, the single-moving-detector case.

For the joint case the module also evaluates the equivalent vacuum-side
bookkeeping — plain angles over the laboratory cones with the transported
state and the composed vacuum density — from the same evaluation's tables.

A correlation point evaluates its scenario at two rules, the full one and
the halved one, and nothing else.  Checks that need another scenario (the
state rebuilt at laboratory momenta, the angle field's transport rule) are
``diagnose``'s, not every row's.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ChartError, InputError, PreconditionError
from .measure import (
    DetectorRegion,
    QuadratureSpec,
    invariant_node_set,
    mapped_bounding_region,
    regions_disjoint,
)
from .spinor_tetrad import LorentzMap, inverse, wigner_pullback
from .states import (
    BELL_CONDITIONS,
    BELL_KINDS,
    PairTable,
    PolarizationAngleField,
    TwoPhotonAmplitude,
    amplitude_pair_tables,
    condition_residual_rel,
    condition_residuals,
    field_values,
    four_term,
    norm_sum,
    oscillator_factors,
)
from .vacuum import VacuumDensity, evaluate_batch

__all__ = [
    "DEFAULT_QUADRATURE",
    "TransformCase",
    "rest_case",
    "joint_case",
    "alice_only_case",
    "DetectorSetting",
    "Scenario",
    "CorrelationResult",
    "swap_roles",
    "epr_general_rest",
    "epr_bell_rest",
    "epr_case1",
    "epr_case2",
    "bound_check",
    "check_regions",
]

#: Default per-cone product rule: 6 frequency x 4 polar x 8 azimuth nodes.
DEFAULT_QUADRATURE = QuadratureSpec(n_freq=6, n_polar=4, n_azimuth=8)

#: A 1e-9 cone around -z, the cut of the spinor chart.  A laboratory cone that
#: contains it holds one fixed analyzer angle against the chart's phase, which
#: winds around -z.  A pulled-back cone may contain it: there the per-node
#: Wigner phase cancels the winding.
_CHART_CUT = DetectorRegion(np.array([0.0, 0.0, -1.0]), 1e-9, 0.0, math.inf)


# --------------------------------------------------------------------------
# scenario types


@dataclass(frozen=True)
class TransformCase:
    """Which detectors move: nobody, both jointly, or Alice's side only."""

    kind: str
    lorentz_map: LorentzMap | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("rest", "joint", "alice_only"):
            raise InputError(
                f"transform kind must be 'rest', 'joint' or 'alice_only', got {self.kind!r}"
            )
        if self.kind == "rest" and self.lorentz_map is not None:
            raise InputError("rest case carries no Lorentz map")
        if self.kind != "rest" and self.lorentz_map is None:
            raise InputError(f"{self.kind} case requires a Lorentz map")


def rest_case() -> TransformCase:
    return TransformCase(kind="rest")


def joint_case(lorentz_map: LorentzMap) -> TransformCase:
    return TransformCase(kind="joint", lorentz_map=lorentz_map)


def alice_only_case(lorentz_map: LorentzMap) -> TransformCase:
    return TransformCase(kind="alice_only", lorentz_map=lorentz_map)


def check_regions(bob: DetectorRegion, alice: DetectorRegion) -> None:
    """The scenario preconditions on the two laboratory cones: they are
    directionally disjoint (else PreconditionError) and clear of the spinor
    chart cut (else ChartError)."""
    if not regions_disjoint(bob, alice):
        raise PreconditionError(
            "detector cones must be directionally disjoint; overlapping "
            "acceptance adds a same-momentum coincidence term that only "
            "the discrete-grid oracle evaluates"
        )
    for name, region in (("Bob", bob), ("Alice", alice)):
        if not regions_disjoint(region, _CHART_CUT):
            raise ChartError(
                f"{name}'s cone contains the spinor chart cut at -z; "
                "rotate the whole scene away from it"
            )


@dataclass(frozen=True)
class DetectorSetting:
    """One detector: acceptance cone plus a single fixed analyzer angle."""

    region: DetectorRegion
    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise InputError(f"analyzer angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class Scenario:
    """A complete correlation experiment.

    ``n_osc`` is the oscillator count N: an integer >= 2 or ``math.inf``.
    N = 1 is rejected because every disjoint-detector numerator carries an
    (N-1) factor and would vanish identically.  ``theta_field`` is the
    state's linear-polarization angle field; optional for general
    amplitudes, required for Bell-kind diagnostics.
    """

    amplitude: TwoPhotonAmplitude
    vacuum: VacuumDensity
    bob: DetectorSetting
    alice: DetectorSetting
    n_osc: float = math.inf
    theta_field: PolarizationAngleField | None = None
    transform: TransformCase = TransformCase(kind="rest")
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE

    def __post_init__(self) -> None:
        if oscillator_factors(self.n_osc)[2] == 0.0:
            raise InputError(
                "n_osc = 1 is rejected: the disjoint-detector correlation "
                "numerator carries an (N-1) factor and vanishes identically"
            )
        check_regions(self.bob.region, self.alice.region)


@dataclass(frozen=True)
class CorrelationResult:
    """numerator/denominator of one correlation average with an error
    estimate (full-rule vs halved-rule difference plus a roundoff floor)
    and scalar diagnostics."""

    numerator: float
    denominator: float
    value: float
    err_estimate: float
    diagnostics: dict[str, float]


def swap_roles(scenario: Scenario) -> Scenario:
    """Exchange the two detectors (regions and angles).

    Rest values are invariant under the swap by the symmetry of the
    two-photon amplitude; with a transform attached, the swap moves the
    transformed side from Alice's arm to Bob's.
    """
    return dataclasses.replace(scenario, bob=scenario.alice, alice=scenario.bob)


# --------------------------------------------------------------------------
# arm descriptors and the two sums over them


class _Arm(NamedTuple):
    """Per-node data for one detector arm.

    ``freqs/dirs`` are the momenta at which amplitude tables and the vacuum
    density are read (pulled back through the arm's map when one is set),
    ``u`` the invariant-measure weights of the acceptance mesh times the
    vacuum density at the table momenta, ``angles`` the per-node effective
    analyzer angle (the scalar setting, shifted by minus twice the map's
    Wigner phase at each acceptance node) and ``wigner`` that phase."""

    freqs: np.ndarray
    dirs: np.ndarray
    u: np.ndarray
    angles: np.ndarray
    wigner: np.ndarray


def _arm(
    setting: DetectorSetting,
    arm_map: LorentzMap | None,
    z: VacuumDensity,
    spec: QuadratureSpec,
) -> _Arm:
    nodes = invariant_node_set(setting.region, spec)
    if arm_map is None:
        freqs, dirs, wig = nodes.freqs, nodes.dirs, np.zeros(len(nodes))
    else:
        freqs, dirs, wig = wigner_pullback(arm_map, nodes.freqs, nodes.dirs)
    u = nodes.weights * evaluate_batch(z, freqs, dirs)
    return _Arm(freqs=freqs, dirs=dirs, u=u, angles=setting.angle - wig, wigner=wig)


def _transported_numerator(
    scn: Scenario, bob: _Arm, alice: _Arm, tables: dict[tuple[int, int], PairTable]
) -> float:
    """Numerator of the joint case's vacuum-side bookkeeping: plain analyzer
    angles over the laboratory cones and the slot tables transported by the
    phase rule (each slot picks e^{-2i s Theta} per arm), with the vacuum
    density read through the inverse map as the arms already hold it.
    Equals the detector-side numerator when the phase bookkeeping is
    consistent."""
    transported = {
        (s, sp): vals.scaled(np.exp(-1.0j * s * bob.wigner), np.exp(-1.0j * sp * alice.wigner))
        for (s, sp), vals in tables.items()
    }
    return four_term(transported, bob.u, alice.u, scn.bob.angle, scn.alice.angle, scn.n_osc)


# --------------------------------------------------------------------------
# diagnostics


def _bell_diagnostics(scn: Scenario, full: _Evaluation, value: float) -> dict[str, float]:
    """Residual of the polarization-angle condition over the node pairs, and
    the reduced single-cosine value it implies, compared against the
    four-term value."""
    condition = BELL_KINDS.get(scn.amplitude.kind)
    field = scn.theta_field
    if condition is None or field is None:
        return {}
    cond = BELL_CONDITIONS[condition]
    bob, alice, tables = full.bob, full.alice, full.tables
    th_b = field_values(field, bob.freqs, bob.dirs)
    th_a = field_values(field, alice.freqs, alice.dirs)
    rel = condition_residual_rel(condition, tables, th_b, th_a, bob.u, alice.u)
    # On the condition conj(psi_plus) psi_minus = -branch e^{2ix} |psi_minus|^2,
    # so the reduced value is the four-term sum of |psi_minus|^2 with the
    # field angles taken off the analyzer angles.
    moduli = dict.fromkeys(cond.slots, tables[cond.slots[1]])
    spec_num = four_term(moduli, bob.u, alice.u, bob.angles - th_b, alice.angles - th_a, scn.n_osc)
    spec_value = -cond.branch * spec_num / full.den
    # a max over pairs does not factor: take it on the fixed DEFAULT_QUADRATURE
    # sample of the same cones and maps, which is the full rule's own arms
    # when the scenario uses the default rule
    if dataclasses.replace(scn.quadrature, seed=DEFAULT_QUADRATURE.seed) != DEFAULT_QUADRATURE:
        bob, alice = _route_arms(scn, DEFAULT_QUADRATURE)
        th_b = field_values(field, bob.freqs, bob.dirs)
        th_a = field_values(field, alice.freqs, alice.dirs)
    sample = amplitude_pair_tables(scn.amplitude, bob.freqs, bob.dirs, alice.freqs, alice.dirs)
    res = condition_residuals(condition, sample, th_b, th_a)
    return {
        "bell_residual_max": float(res.max(initial=0.0)),
        "bell_residual_rel": rel,
        "specialized_value": spec_value,
        "specialized_gap": abs(value - spec_value),
    }


# --------------------------------------------------------------------------
# evaluation routes


def _route_arms(scn: Scenario, spec: QuadratureSpec) -> tuple[_Arm, _Arm]:
    """Arms for the defining (detector-side) evaluation of the scenario."""
    m = scn.transform.lorentz_map
    kind = scn.transform.kind
    bob_map = m if kind == "joint" else None
    alice_map = m if kind in ("joint", "alice_only") else None
    return (
        _arm(scn.bob, bob_map, scn.vacuum, spec),
        _arm(scn.alice, alice_map, scn.vacuum, spec),
    )


class _Evaluation(NamedTuple):
    """One evaluation of a scenario at one quadrature spec: ``den`` and
    ``tables`` are norm_sum's total and Bob x Alice slot tables,
    ``swap_residual`` the relative mismatch of its two cross-cone blocks (equal
    up to quadrature by the symmetry of |psi|^2 Z Z'), ``vacuum_num`` the
    vacuum-side numerator, set for the joint case only."""

    num: float
    den: float
    bob: _Arm
    alice: _Arm
    tables: dict[tuple[int, int], PairTable]
    swap_residual: float
    vacuum_num: float | None


def _evaluate(scn: Scenario, spec: QuadratureSpec) -> _Evaluation:
    bob, alice = _route_arms(scn, spec)
    # an amplitude that overflows leaves a non-finite denominator, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        den, blocks, tables = norm_sum(
            scn.amplitude, [(arm.freqs, arm.dirs, arm.u) for arm in (bob, alice)], scn.n_osc
        )
    if not 0.0 < den < math.inf:
        raise PreconditionError(
            "denominator is not a positive finite number: it underflowed or "
            "overflowed, or the state has no weight on the detector cones"
        )
    b01, b10 = blocks[0, 1], blocks[1, 0]
    swap_res = abs(b01 - b10) / max(abs(b01), abs(b10), 1e-300)
    num = four_term(tables, bob.u, alice.u, bob.angles, alice.angles, scn.n_osc)
    vacuum_num = None
    if scn.transform.kind == "joint":
        vacuum_num = _transported_numerator(scn, bob, alice, tables)
    return _Evaluation(num, den, bob, alice, tables, swap_res, vacuum_num)


_ERR_FLOOR = 64.0 * np.finfo(np.float64).eps


def _halving_err(full: float, half: float) -> float:
    """Full-rule vs halved-rule difference plus a roundoff floor."""
    return abs(full - half) + _ERR_FLOOR * (1.0 + abs(full))


def _finish(scn: Scenario) -> CorrelationResult:
    spec = scn.quadrature
    full = _evaluate(scn, spec)
    half = _evaluate(scn, spec.halved())
    value = full.num / full.den
    diagnostics: dict[str, float] = {"den_swap_block_residual": full.swap_residual}
    diagnostics.update(_bell_diagnostics(scn, full, value))
    if full.vacuum_num is not None:
        vac = full.vacuum_num / full.den
        diagnostics["vacuum_picture_value"] = vac
        diagnostics["vacuum_picture_err"] = _halving_err(vac, half.vacuum_num / half.den)
        diagnostics["picture_gap"] = abs(value - vac)
    return CorrelationResult(
        numerator=full.num,
        denominator=full.den,
        value=value,
        err_estimate=_halving_err(value, half.num / half.den),
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------------
# public operations


def _require_case(scn: Scenario, kind: str, op: str) -> None:
    if scn.transform.kind != kind:
        raise InputError(
            f"{op} requires a scenario with the {kind!r} transform case, "
            f"got {scn.transform.kind!r}"
        )


def epr_general_rest(scenario: Scenario) -> CorrelationResult:
    """Normalized correlation of the two analyzer outcomes, both detectors
    at rest, for an arbitrary two-photon amplitude."""
    _require_case(scenario, "rest", "epr_general_rest")
    return _finish(scenario)


def epr_bell_rest(scenario: Scenario) -> CorrelationResult:
    """Rest-frame correlation for a Bell-kind amplitude.

    The value comes from the four-term formula; the diagnostics carry the
    reduced single-cosine value implied by the polarization-angle condition
    together with the condition residual over the sampled nodes.
    """
    _require_case(scenario, "rest", "epr_bell_rest")
    if scenario.amplitude.kind not in BELL_KINDS:
        raise InputError(
            f"epr_bell_rest requires a Bell-kind amplitude, got {scenario.amplitude.kind!r}"
        )
    return _finish(scenario)


def epr_case1(scenario: Scenario) -> CorrelationResult:
    """Correlation with both detectors transformed by the same map.

    The value uses the detector-side form (pulled-back momenta,
    Wigner-shifted per-node angles).  Diagnostics add the vacuum-side form
    (``vacuum_picture_value`` with its own error estimate and the gap to the
    detector-side value), read off the same two evaluations.  The transport
    defect of the constructed amplitude family (this value against the rest
    value of the state at laboratory momenta with the vacuum composed with
    the map) is ``bellepr diagnose``'s ``realized-transport-gap``.
    """
    _require_case(scenario, "joint", "epr_case1")
    return _finish(scenario)


def epr_case2(scenario: Scenario) -> CorrelationResult:
    """Correlation with only Alice's detector transformed.

    Alice's acceptance cone is meshed in the laboratory, each node pulled
    back through the map, and her analyzer angle shifted per node by minus
    twice the map's Wigner phase; Bob's arm is untouched.  Requires Bob's
    cone to stay directionally disjoint from the pulled-back Alice cone.
    """
    _require_case(scenario, "alice_only", "epr_case2")
    m = scenario.transform.lorentz_map
    assert m is not None
    pulled = mapped_bounding_region(scenario.alice.region, inverse(m))
    if not regions_disjoint(scenario.bob.region, pulled):
        raise PreconditionError(
            "Bob's cone overlaps the pulled-back image of Alice's cone; "
            "the same-momentum coincidence term is out of scope here"
        )
    return _finish(scenario)


#: Largest accepted gap between the two ordered cross-cone denominator blocks.
_BLOCK_TOL = 1e-8


def bound_check(result: CorrelationResult) -> bool:
    """True iff |value| <= 1 + err_estimate and the two ordered cross-cone
    denominator blocks agree (the symmetry that folds both orderings into
    twice a single block)."""
    if abs(result.value) > 1.0 + result.err_estimate:
        return False
    swap = result.diagnostics.get("den_swap_block_residual", 0.0)
    return swap <= _BLOCK_TOL
