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

Both are sums of ``states`` (``slot_moments`` phased by ``four_term``, and
``norm_blocks`` added up by ``norm_total``), over the per-arm nodes, weights
and Wigner phases built here.

Detector transforms are handled by one rule per transformed arm: mesh the
laboratory acceptance cone, pull each node back through the map, and shift
the arm's analyzer angle per node by minus twice the Wigner phase of the map
at the acceptance node.  The amplitude and the vacuum density are then read
at the pulled-back momenta.  Applying the rule to both arms gives the
joint-transform case; to one arm, the single-moving-detector case.

A correlation point is prepared, then finished.  A row reads its analyzer
angles only as the phases e^{-2i beta} e^{-2ic alpha} of slot-pair moments,
and N only as prefactors, so ``prepare`` reduces the full and the halved
rule to scalars, the norm blocks and moments, from pair_factors: no node
array outlives it but the laboratory node sets, which the cones keep
(invariant_node_set), so rows that share their cones mesh them once per
rule.  A Bell-kind point with an angle field takes its ``bell_residual_max``
sample from the 6x4x8 rule's Bob x Alice factors, the full or the halved
rule's own when either is that rule.  ``finish`` is arithmetic on the
scalars for a row that changes only the analyzer angles and N, so a sweep
over them prepares once; it prepares any other row.
Checks that need another scenario (the state rebuilt at laboratory momenta,
the angle field's transport rule) are ``diagnose``'s, not every row's.
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
    PolarizationAngleField,
    TwoPhotonAmplitude,
    condition_residual_rel,
    condition_residuals,
    field_values,
    four_term,
    norm_blocks,
    norm_total,
    oscillator_factors,
    pair_factors,
    slot_moments,
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
    "PreparedScenario",
    "prepare",
    "correlate",
    "bound_check",
    "check_regions",
]

#: Default per-cone product rule, QuadratureSpec's defaults: 6 frequency x
#: 4 polar x 8 azimuth nodes.
DEFAULT_QUADRATURE = QuadratureSpec()

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
        # the correlation reads e^{2i angle}
        if not math.isfinite(2.0 * self.angle):
            raise InputError(
                f"analyzer angle must be finite, and twice it too, got {self.angle!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """A complete correlation experiment.

    ``n_osc`` is the oscillator count N: an integer >= 2 or ``math.inf``.
    N = 1 is rejected because every disjoint-detector numerator carries an
    (N-1) factor and would vanish identically.  ``theta_field`` is the
    state's linear-polarization angle field; optional for general
    amplitudes, required for Bell-kind diagnostics.  Every node count the
    quadrature mode reads must be at least 3, so that the halved rule behind
    ``err_estimate`` differs from the full rule on every axis.
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
        quad, half = self.quadrature, self.quadrature.halved()
        counts = ("n_freq", "n_polar", "n_azimuth") if quad.mode == "product" else ("n_samples",)
        for name in counts:  # a count the halving keeps hides its axis from err_estimate
            if getattr(half, name) == getattr(quad, name):
                raise InputError(
                    f"quadrature {name} = {getattr(quad, name)} is kept by the halved rule, "
                    "so err_estimate cannot see its error: give it at least 3 nodes"
                )


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
# arm descriptors


class _Arm(NamedTuple):
    """Per-node data for one detector arm.

    ``freqs/dirs`` are the momenta at which amplitude tables and the vacuum
    density are read (pulled back through the arm's map when one is set),
    ``u`` the invariant-measure weights of the acceptance mesh times the
    vacuum density at the table momenta and ``wigner`` the map's Wigner
    phase at each acceptance node: a row's per-node analyzer angle is its
    scalar setting minus it."""

    freqs: np.ndarray
    dirs: np.ndarray
    u: np.ndarray
    wigner: np.ndarray


def _arm(
    region: DetectorRegion,
    arm_map: LorentzMap | None,
    z: VacuumDensity,
    spec: QuadratureSpec,
) -> _Arm:
    nodes = invariant_node_set(region, spec)
    if arm_map is None:
        freqs, dirs, wig = nodes.freqs, nodes.dirs, np.zeros(len(nodes))
    else:
        freqs, dirs, wig = wigner_pullback(arm_map, nodes.freqs, nodes.dirs)
    u = nodes.weights * evaluate_batch(z, freqs, dirs)
    return _Arm(freqs=freqs, dirs=dirs, u=u, wigner=wig)


def _route_arms(scn: Scenario, spec: QuadratureSpec) -> tuple[_Arm, _Arm]:
    """Arms for the defining (detector-side) evaluation of the scenario."""
    m = scn.transform.lorentz_map
    kind = scn.transform.kind
    bob_map = m if kind == "joint" else None
    alice_map = m if kind in ("joint", "alice_only") else None
    return (
        _arm(scn.bob.region, bob_map, scn.vacuum, spec),
        _arm(scn.alice.region, alice_map, scn.vacuum, spec),
    )


# --------------------------------------------------------------------------
# prepare: what a scenario's rows share


class _Rule(NamedTuple):
    """A scenario's sums at one quadrature rule that read no analyzer angle
    and no oscillator count: norm_blocks' ``diag`` and ``blocks``, and the
    Bob x Alice slot_moments with the arms' Wigner phases folded in."""

    diag: float
    blocks: np.ndarray
    moments: dict[int, complex]


_BAD_DENOMINATOR = (
    "denominator is not a positive finite number: it underflowed or "
    "overflowed, or the state has no weight on the detector cones"
)


def _prepare_rule(scn: Scenario, spec: QuadratureSpec) -> tuple[_Rule, tuple]:
    """The rule's _Rule, and its arms and Bob x Alice tables for _bell_sample."""
    bob, alice = _route_arms(scn, spec)
    # an amplitude that overflows leaves a non-finite sum, refused here,
    # before anything else contracts the tables
    with np.errstate(over="ignore", invalid="ignore"):
        diag, blocks, tables = norm_blocks(
            scn.amplitude, [(arm.freqs, arm.dirs, arm.u) for arm in (bob, alice)]
        )
    if not (math.isfinite(diag) and np.isfinite(blocks).all()):
        raise PreconditionError(_BAD_DENOMINATOR)
    # a row's per-node angle is its setting minus W: e^{-2i(angle - W)} = e^{-2i angle} e^{2iW}
    moments = slot_moments(tables, bob.u, alice.u, -bob.wigner, -alice.wigner)
    return _Rule(diag, blocks, moments), (bob, alice, tables)


def _places_default_nodes(spec: QuadratureSpec) -> bool:
    """True iff ``spec`` places DEFAULT_QUADRATURE's nodes: in product mode
    neither the seed nor n_samples places a node."""
    defaults = {"seed": DEFAULT_QUADRATURE.seed, "n_samples": DEFAULT_QUADRATURE.n_samples}
    return dataclasses.replace(spec, **defaults) == DEFAULT_QUADRATURE


def _bell_sample(scn: Scenario, scale: float, full: tuple, half: tuple) -> tuple:
    """The Bell diagnostics that read no analyzer angle and no oscillator
    count, and the reduced value's moments (None without a Bell kind and an
    angle field), from the full and the halved rule's arms and Bob x Alice
    tables: the relative residual of the polarization-angle condition over
    the full rule's node pairs, whose S is their norm block ``scale``, and
    the residual's maximum over the DEFAULT_QUADRATURE sample."""
    condition = BELL_KINDS.get(scn.amplitude.kind)
    field = scn.theta_field
    if condition is None or field is None:
        return {}, None
    cond = BELL_CONDITIONS[condition]
    bob, alice, tables = full
    th_b, th_a = (field_values(field, arm.freqs, arm.dirs) for arm in (bob, alice))
    rel = condition_residual_rel(condition, tables, th_b, th_a, bob.u, alice.u, scale)
    # on the condition conj(psi_plus) psi_minus = -branch e^{2ix} |psi_minus|^2, so the
    # reduced value's moments are -branch |psi_minus|^2's with the field angles folded in
    moduli = dict.fromkeys(cond.slots, tables[cond.slots[1]])
    folded = -bob.wigner - th_b, -alice.wigner - th_a
    reduced = slot_moments(moduli, -cond.branch * bob.u, alice.u, *folded)
    # a max over pairs does not factor: take it on the fixed DEFAULT_QUADRATURE
    # sample of the same cones and maps, which is the full or the halved
    # rule's own arms and factors when that rule places its nodes
    if not _places_default_nodes(scn.quadrature):
        if _places_default_nodes(scn.quadrature.halved()):
            bob, alice, tables = half
        else:
            bob, alice = _route_arms(scn, DEFAULT_QUADRATURE)
            tables = pair_factors(scn.amplitude, bob.freqs, bob.dirs, alice.freqs, alice.dirs)
        th_b, th_a = (field_values(field, arm.freqs, arm.dirs) for arm in (bob, alice))
    res = condition_residuals(condition, tables, th_b, th_a)
    return {"bell_residual_max": float(res.max(initial=0.0)), "bell_residual_rel": rel}, reduced


_ERR_FLOOR = 64.0 * np.finfo(np.float64).eps


def _halving_err(full: float, half: float) -> float:
    """Full-rule vs halved-rule difference plus a roundoff floor."""
    return abs(full - half) + _ERR_FLOOR * (1.0 + abs(full))


#: The Scenario fields a row may change and still share its preparation.
_ROW_FIELDS = ("bob", "alice", "n_osc")


@dataclass(frozen=True, eq=False)
class PreparedScenario:
    """A scenario evaluated up to its analyzer angles and oscillator count:
    both rules' scalar sums, the reduced value's moments (``reduced``) and the
    diagnostics that read neither (``fixed``).  ``finish`` completes one row."""

    scenario: Scenario
    full: _Rule
    half: _Rule
    fixed: dict[str, float]
    reduced: dict[int, complex] | None

    def finish(self, row: Scenario) -> CorrelationResult:
        """The correlation of ``row``, equal to ``correlate(row)`` bit for bit:
        from this preparation when every field but ``bob.angle``,
        ``alice.angle`` and ``n_osc`` is the prepared scenario's own object,
        else ``correlate(row)``, which prepares the row."""
        p = self.scenario
        same = all(
            getattr(row, f.name) is getattr(p, f.name)
            for f in dataclasses.fields(Scenario)
            if f.name not in _ROW_FIELDS
        )
        if not (same and row.bob.region is p.bob.region and row.alice.region is p.alice.region):
            return correlate(row)
        setting = row.bob.angle, row.alice.angle, row.n_osc
        (num, den), (half_num, half_den) = (self._sums(r, *setting) for r in (self.full, self.half))
        value = num / den
        diagnostics: dict[str, float] = dict(self.fixed)
        if self.reduced is not None:
            spec_value = four_term(self.reduced, *setting) / den
            diagnostics["specialized_value"] = spec_value
            diagnostics["specialized_gap"] = abs(value - spec_value)
        return CorrelationResult(
            numerator=num,
            denominator=den,
            value=value,
            err_estimate=_halving_err(value, half_num / half_den),
            diagnostics=diagnostics,
        )

    @staticmethod
    def _sums(rule: _Rule, beta: float, alpha: float, n_osc) -> tuple[float, float]:
        """(numerator, denominator) at one rule for one row's angles and N."""
        den = norm_total(rule.diag, rule.blocks, n_osc)
        if not 0.0 < den < math.inf:
            raise PreconditionError(_BAD_DENOMINATOR)
        return four_term(rule.moments, beta, alpha, n_osc), den


def prepare(scenario: Scenario) -> PreparedScenario:
    """What ``correlate(scenario)`` computes before it reads an analyzer angle
    or the oscillator count.  Raises PreconditionError for an ``alice_only``
    scenario whose pulled-back Alice cone overlaps Bob's, before any rule is
    evaluated, and for an amplitude that overflows the norm's sums."""
    if scenario.transform.kind == "alice_only":
        m = scenario.transform.lorentz_map
        pulled = mapped_bounding_region(scenario.alice.region, inverse(m))
        if not regions_disjoint(scenario.bob.region, pulled):
            raise PreconditionError(
                "Bob's cone overlaps the pulled-back image of Alice's cone; "
                "the same-momentum coincidence term is out of scope here"
            )
    spec = scenario.quadrature
    full, full_arms = _prepare_rule(scenario, spec)
    half, half_arms = _prepare_rule(scenario, spec.halved())
    # the two ordered cross-cone blocks agree up to quadrature by the
    # symmetry of |psi|^2 Z Z'
    b01, b10 = full.blocks[0, 1], full.blocks[1, 0]
    fixed = {"den_swap_block_residual": abs(b01 - b10) / max(abs(b01), abs(b10), 1e-300)}
    bell, reduced = _bell_sample(scenario, b01, full_arms, half_arms)
    fixed.update(bell)
    return PreparedScenario(scenario, full, half, fixed, reduced)


# --------------------------------------------------------------------------
# the correlation


def correlate(scenario: Scenario) -> CorrelationResult:
    """Normalized correlation of the two analyzer outcomes, for any
    amplitude and transform case: ``prepare(scenario).finish(scenario)``.

    The value uses the detector-side form (pulled-back momenta,
    Wigner-shifted per-node angles on each transformed arm).  For a
    Bell-kind amplitude with an angle field, the diagnostics carry the
    reduced single-cosine value implied by the polarization-angle condition
    and the condition residual over the sampled nodes.  The transport
    defect of the constructed amplitude family is ``bellepr diagnose``'s
    ``realized-transport-gap``.  The ``alice_only`` case requires Bob's cone
    to stay directionally disjoint from the pulled-back Alice cone.
    """
    return prepare(scenario).finish(scenario)


#: Old names of correlate; nothing in bellepr calls them, and their only
#: reader is the benchmark tracer (perfbench/tracing.py), which looks them up
#: by name.
epr_general_rest = epr_bell_rest = epr_case1 = epr_case2 = correlate


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
