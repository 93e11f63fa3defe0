"""The factored contraction engine against dense pair tables.

Every Bell-kind sum of a correlation point runs on per-node factors
(``states.pair_factors`` / ``states.PairTable``).  Here each one is recomputed
from scratch on the dense outer ``amplitude_pair_tables`` tables over the same
arms, for the four kinds x the three transform cases x N in {2, 3, inf},
with and without an envelope, at 192 nodes per cone, and for joint points
at 1536.  A general amplitude is held by its slots' own factors: a
momentum-dependent one is checked against its dense tables, and constant
slots (as a config builds them) against the same constants as rank-1
factor pairs.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import bellepr as bp
from bellepr import cli, correlators, states
from bellepr.correlators import (
    DetectorSetting,
    Scenario,
    alice_only_case,
    correlate,
    joint_case,
    rest_case,
)
from bellepr.measure import DetectorRegion, QuadratureSpec, invariant_node_set
from bellepr.spinor_tetrad import wigner_pullback
from bellepr.states import (
    BELL_CONDITIONS,
    BELL_KINDS,
    TwoPhotonAmplitude,
    amplitude_pair_tables,
    azimuthal_field,
    condition_residual_rel,
    condition_residuals,
    field_values,
    fit_theta,
    norm_blocks,
    oscillator_factors,
    symmetry_residuals,
    tabulated_field,
)
from bellepr.vacuum import evaluate_batch, normalize
from two_pictures import vacuum_side_sums

DEG = math.pi / 180.0
SPEC = QuadratureSpec(n_freq=6, n_polar=4, n_azimuth=8)
SPEC_1536 = QuadratureSpec(n_freq=12, n_polar=8, n_azimuth=16)
BOB = DetectorRegion(np.array([0.0, 0.0, 1.0]), 2.0 * DEG, 0.5, 2.0)
ALICE = DetectorRegion(np.array([1.0, 0.0, 0.0]), 2.0 * DEG, 0.5, 2.0)
BOOST = bp.boost(0.7, np.array([0.0, 1.0, 0.0]))
CASES = {"rest": rest_case(), "joint": joint_case(BOOST), "alice_only": alice_only_case(BOOST)}
RTOL = 1e-12


def gaussian_envelope(freqs, dirs):
    return np.exp(-((np.asarray(freqs) - 1.0) ** 2) / 0.5)


@pytest.fixture(scope="module")
def vacuum():
    return normalize("power-exponential", {"exponent": 2.0, "scale": 1.0})


_FITS: dict = {}


def scenario(vacuum, kind, case, n_osc, envelope, spec=SPEC) -> Scenario:
    amp = TwoPhotonAmplitude(kind=kind, envelope=gaussian_envelope if envelope else None)
    if (kind, envelope) not in _FITS:
        # the fitted per-cone angles, both shifted so that neither is 0
        fit = fit_theta(amp, BELL_KINDS[kind], BOB, ALICE, spec=SPEC).field
        _FITS[kind, envelope] = tabulated_field(fit.axes, fit.values + 0.3)
    return Scenario(
        amplitude=amp,
        vacuum=vacuum,
        bob=DetectorSetting(BOB, 0.4),
        alice=DetectorSetting(ALICE, -0.3),
        n_osc=n_osc,
        theta_field=_FITS[kind, envelope],
        transform=CASES[case],
        quadrature=spec,
    )


def dense_arms(scn: Scenario):
    """(freqs, dirs, u, Wigner phase) of Bob's and Alice's arms, rebuilt from
    the node sets, the pull-back and the vacuum."""
    kind = scn.transform.kind
    arms = []
    for setting, moves in ((scn.bob, kind == "joint"), (scn.alice, kind != "rest")):
        nodes = invariant_node_set(setting.region, scn.quadrature)
        if moves:
            f, d, wig = wigner_pullback(scn.transform.lorentz_map, nodes.freqs, nodes.dirs)
        else:
            f, d, wig = nodes.freqs, nodes.dirs, np.zeros(len(nodes))
        arms.append((f, d, nodes.weights * evaluate_batch(scn.vacuum, f, d), wig))
    return arms


def dense_numerator(scn, tables, ub, ua, beta, alpha) -> float:
    """8(N-1)/N Re sum of the two slot products with analyzer phases."""
    total = 0.0 + 0.0j
    for cond in (BELL_CONDITIONS[21], BELL_CONDITIONS[11]):
        plus, minus = cond.slots
        if plus in tables:
            product = np.conj(tables[plus]) * tables[minus]
            alice_phase = np.exp(-2.0j * cond.coupling * alpha)
            total += (ub * np.exp(-2.0j * beta)) @ product @ (ua * alice_phase)
    return oscillator_factors(scn.n_osc)[2] * total.real


def check_dense_denominator(result, amp, arms, n_osc) -> None:
    """The norm's blocks and the point's denominator against dense tables."""
    dense_blocks = np.array(
        [
            [
                sum(float(ua @ np.abs(t) ** 2 @ ub) for t in
                    amplitude_pair_tables(amp, fa, da, fb, db).values())
                for fb, db, ub, _ in arms
            ]
            for fa, da, ua, _ in arms
        ]
    )
    _, blocks, _ = norm_blocks(amp, [arm[:3] for arm in arms])
    np.testing.assert_allclose(blocks, dense_blocks, rtol=RTOL, atol=0.0)
    first_fac, cross_fac, _ = oscillator_factors(n_osc)
    diag = sum(
        float(np.sum(np.abs(np.diagonal(t)) ** 2 * u))
        for f, d, u, _ in arms
        for t in amplitude_pair_tables(amp, f, d, f, d).values()
    )
    den = first_fac * diag + cross_fac * dense_blocks.sum()
    assert result.denominator == pytest.approx(den, rel=RTOL, abs=0.0)


def dense_condition_residuals(condition, tables, th1, th2) -> np.ndarray:
    """|e^{ix} psi_plus + branch e^{-ix} psi_minus| on dense pair tables."""
    cond = BELL_CONDITIONS[condition]
    plus, minus = (tables[slot] for slot in cond.slots)
    phase = np.exp(1j * th1)[:, None] * np.exp(1j * cond.coupling * th2)[None, :]
    return np.abs(phase * plus + cond.branch * np.conj(phase) * minus)


def check_vacuum_side(scn: Scenario, result) -> None:
    """The joint point's sums against the vacuum-side picture's, summed on
    dense tables with plain angles and tetrad-read transport phases."""
    num, den = vacuum_side_sums(scn)
    assert result.numerator == pytest.approx(num, rel=RTOL, abs=0.0)
    assert result.denominator == pytest.approx(den, rel=RTOL, abs=0.0)


def check_against_dense(scn: Scenario) -> None:
    amp, n_osc = scn.amplitude, scn.n_osc
    case = scn.transform.kind
    result = correlate(scn)
    arms = dense_arms(scn)
    check_dense_denominator(result, amp, arms, n_osc)

    # numerator: per-node analyzer angles shifted by minus the Wigner phase
    (fb, db, ub, wb), (fa, da, ua, wa) = arms
    tables = amplitude_pair_tables(amp, fb, db, fa, da)
    beta, alpha = scn.bob.angle - wb, scn.alice.angle - wa
    num = dense_numerator(scn, tables, ub, ua, beta, alpha)
    assert result.numerator == pytest.approx(num, rel=RTOL, abs=0.0)

    if case == "joint":
        check_vacuum_side(scn, result)

    # Bell condition residuals: the weighted RMS in its expanded form, whose
    # error is a roundoff of the weighted scale, so its square is compared
    # on that scale
    condition = BELL_KINDS[amp.kind]
    th_b, th_a = (field_values(scn.theta_field, f, d) for f, d, _, _ in arms)
    res = dense_condition_residuals(condition, tables, th_b, th_a)
    a, b = (tables[slot] for slot in BELL_CONDITIONS[condition].slots)
    scale = float(ub @ (np.abs(a) ** 2 + np.abs(b) ** 2) @ ua)
    rel = math.sqrt(float(ub @ res**2 @ ua) / scale)
    assert result.diagnostics["bell_residual_rel"] ** 2 == pytest.approx(rel**2, abs=RTOL)

    # the max over pairs on the 192-node arms of the same cones and maps
    (fb, db, _, _), (fa, da, _, _) = dense_arms(dataclasses.replace(scn, quadrature=SPEC))
    sample = amplitude_pair_tables(amp, fb, db, fa, da)
    th_b, th_a = (field_values(scn.theta_field, f, d) for f, d in ((fb, db), (fa, da)))
    res = dense_condition_residuals(condition, sample, th_b, th_a)
    assert result.diagnostics["bell_residual_max"] == pytest.approx(res.max(), rel=RTOL, abs=0.0)


@pytest.mark.parametrize("envelope", [False, True], ids=["plain", "envelope"])
@pytest.mark.parametrize("n_osc", [2, 3, math.inf], ids=["N2", "N3", "Ninf"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_factored_point_matches_dense_tables(vacuum, kind, case, n_osc, envelope):
    check_against_dense(scenario(vacuum, kind, case, n_osc, envelope))


@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_factored_joint_point_at_1536_nodes_matches_dense_tables(vacuum, kind):
    check_against_dense(scenario(vacuum, kind, "joint", 3, True, spec=SPEC_1536))


@pytest.mark.parametrize("spec", [SPEC, SPEC_1536], ids=["192", "1536"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_point_builds_no_dense_table(vacuum, kind, case, spec, monkeypatch):
    scn = scenario(vacuum, kind, case, 3, False, spec=spec)
    build = states.amplitude_pair_tables
    calls = []

    def spy(amp, f1, d1, f2, d2):
        calls.append(np.size(f1) * np.size(f2))
        return build(amp, f1, d1, f2, d2)

    monkeypatch.setattr(states, "amplitude_pair_tables", spy)
    correlate(scn)
    # every sum, the norm's same-momentum term and the bell_residual_max
    # sample read pair_factors; the dense tables are the tests' reference
    assert calls == []
    assert not hasattr(correlators, "amplitude_pair_tables")


@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_joint_point_at_1536_nodes_stays_small(vacuum, kind):
    scn = scenario(vacuum, kind, "joint", 3, False, spec=SPEC_1536)
    tracemalloc.start()
    try:
        correlate(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 1536 x 1536 float64 table alone is 18.9 MB
    assert peak <= 8e6


def general_amplitude() -> TwoPhotonAmplitude:
    """An exchange-symmetric, momentum-dependent amplitude with all four slots,
    given by its factors:

        psi_++ = psi_-- = f1 + f2 + 0.5i f1 f2 d1x d2x       (rank 3),
        psi_+- = psi_-+ = (0.4 - 0.2i) (f1 d1z + f2 d2z)     (rank 2).
    """
    same = (
        lambda f, d: np.stack([f, np.ones_like(f), 0.5j * f * d[:, 0]], axis=1),
        lambda f, d: np.stack([np.ones_like(f), f, f * d[:, 0]], axis=1),
    )
    mixed = (
        lambda f, d: (0.4 - 0.2j) * np.stack([f * d[:, 2], np.ones_like(f)], axis=1),
        lambda f, d: np.stack([np.ones_like(f), f * d[:, 2]], axis=1),
    )
    return TwoPhotonAmplitude(
        kind="general",
        table={(1, 1): same, (-1, -1): same, (1, -1): mixed, (-1, 1): mixed},
    )


def general_joint_scenario(vacuum, spec) -> Scenario:
    return Scenario(
        amplitude=general_amplitude(),
        vacuum=vacuum,
        bob=DetectorSetting(BOB, 0.4),
        alice=DetectorSetting(ALICE, -0.3),
        n_osc=3,
        transform=CASES["joint"],
        quadrature=spec,
    )


def test_general_joint_point_matches_dense_tables(vacuum):
    scn = general_joint_scenario(vacuum, SPEC)
    result = correlate(scn)
    arms = dense_arms(scn)
    (fb, db, ub, wb), (fa, da, ua, wa) = arms
    assert symmetry_residuals(scn.amplitude, fb, db, fa, da).max() <= 1e-12
    check_dense_denominator(result, scn.amplitude, arms, scn.n_osc)
    tables = amplitude_pair_tables(scn.amplitude, fb, db, fa, da)
    assert len(tables) == 4
    num = dense_numerator(scn, tables, ub, ua, scn.bob.angle - wb, scn.alice.angle - wa)
    assert result.numerator == pytest.approx(num, rel=RTOL, abs=0.0)
    check_vacuum_side(scn, result)


def test_general_joint_point_at_12288_nodes_stays_small(vacuum):
    scn = general_joint_scenario(vacuum, QuadratureSpec(n_freq=24, n_polar=16, n_azimuth=32))
    tracemalloc.start()
    try:
        correlate(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 12 288 x 12 288 complex table alone is 2.4 GB
    assert peak <= 32e6


#: A config's general state: constant slots with a Gaussian envelope.
GENERAL_STATE = {
    "kind": "general",
    "envelope": {"kind": "frequency-gaussian", "center": 1.0, "width": 0.5},
    "coefficients": {"++": [1.0, 0.0], "--": [0.5, 0.2], "+-": [0.3, -0.1], "-+": [0.3, -0.1]},
}


def general_scenario(vacuum, amp, case, spec) -> Scenario:
    return Scenario(
        amplitude=amp,
        vacuum=vacuum,
        bob=DetectorSetting(BOB, 0.4),
        alice=DetectorSetting(ALICE, -0.3),
        n_osc=3,
        transform=CASES[case],
        quadrature=spec,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_constant_general_slots_match_the_same_slots_as_evaluators(vacuum, case):
    amp = cli._build_amplitude(GENERAL_STATE)
    assert not any(callable(value) for value in amp.table.values())
    # each constant c as the rank-1 factor pair (c, 1)
    evaluators = dataclasses.replace(
        amp,
        table={
            slot: (lambda f, d, c=c: np.full((f.size, 1), c), lambda f, d: np.ones((f.size, 1)))
            for slot, c in amp.table.items()
        },
    )
    factored = correlate(general_scenario(vacuum, amp, case, SPEC))
    dense = correlate(general_scenario(vacuum, evaluators, case, SPEC))
    for name in ("numerator", "denominator", "value"):
        assert getattr(factored, name) == pytest.approx(getattr(dense, name), rel=RTOL, abs=0.0)
    if case == "joint":
        check_vacuum_side(general_scenario(vacuum, amp, case, SPEC), factored)


def test_config_general_point_at_1536_nodes_stays_small(vacuum):
    scn = general_scenario(vacuum, cli._build_amplitude(GENERAL_STATE), "rest", SPEC_1536)
    tracemalloc.start()
    try:
        correlate(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 1536 x 1536 complex table alone is 37.7 MB
    assert peak <= 32e6


@pytest.mark.parametrize("half_angle", [2.0 * DEG, 0.6], ids=["narrow", "wide"])
@pytest.mark.parametrize("envelope", [False, True], ids=["plain", "envelope"])
@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_fit_residual_is_the_condition_residual_of_the_fitted_field(kind, envelope, half_angle):
    # the fit reports the minimum it solved for; recompute it from the field.
    # Alice's axis off the x-z plane gives the 21/22 cross term a generic phase.
    amp = TwoPhotonAmplitude(kind=kind, envelope=gaussian_envelope if envelope else None)
    bob = dataclasses.replace(BOB, half_angle=half_angle)
    alice = DetectorRegion(np.array([0.8, 0.6, 0.0]), half_angle, 0.5, 2.0)
    condition = BELL_KINDS[kind]
    fit = fit_theta(amp, condition, bob, alice, spec=SPEC)
    nb, na = invariant_node_set(bob, SPEC), invariant_node_set(alice, SPEC)
    tables = states.pair_factors(amp, nb.freqs, nb.dirs, na.freqs, na.dirs)
    th_b, th_a = (field_values(fit.field, n.freqs, n.dirs) for n in (nb, na))
    rel = condition_residual_rel(condition, tables, th_b, th_a, nb.weights, na.weights)
    assert fit.residual_rel**2 == pytest.approx(rel**2, abs=RTOL)


@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_fit_on_a_condition_the_amplitude_lacks_is_degenerate(kind):
    # a 21/22 condition reads the equal-helicity slots, an 11/12 kind has none
    # (and the other way round)
    other = {11: 21, 12: 22, 21: 11, 22: 12}[BELL_KINDS[kind]]
    with pytest.raises(bp.InputError, match="degenerate"):
        fit_theta(TwoPhotonAmplitude(kind=kind), other, BOB, ALICE, spec=SPEC)


def test_condition_sums_on_slots_the_amplitude_lacks():
    # a missing slot adds 0 to the slot sum S and makes the cross term 0
    nb, na = invariant_node_set(BOB, SPEC), invariant_node_set(ALICE, SPEC)
    th_b, th_a = np.full(len(nb), 0.3), np.full(len(na), -0.2)

    def residual(amp):
        tables = states.pair_factors(amp, nb.freqs, nb.dirs, na.freqs, na.dirs)
        return condition_residual_rel(21, tables, th_b, th_a, nb.weights, na.weights)

    # bell11 has neither equal-helicity slot: S = 0
    assert residual(TwoPhotonAmplitude(kind="bell11")) == 0.0
    one_slot = TwoPhotonAmplitude(
        kind="general",
        table={(1, 1): (lambda f, d: ((1.0 + 0.5j) * f)[:, None], lambda f, d: f[:, None])},
    )
    assert residual(one_slot) == 1.0
    with pytest.raises(bp.InputError, match="degenerate"):
        fit_theta(one_slot, 21, BOB, ALICE, spec=SPEC)


@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_condition_sums_contract_only_through_the_two_slot_sums(kind, monkeypatch):
    # a Bell condition's S and C are modulus_sum and slot_moments, the sums a
    # correlation point runs: neither the fit nor the residual contracts by a
    # route of its own
    routes = {states.modulus_sum.__code__, states.slot_moments.__code__}
    contract, callers = states.PairTable.contract, []

    def spy(table, *args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in routes:
            frame = frame.f_back
        callers.append(None if frame is None else frame.f_code.co_name)
        return contract(table, *args)

    monkeypatch.setattr(states.PairTable, "contract", spy)
    amp, condition = TwoPhotonAmplitude(kind=kind), BELL_KINDS[kind]
    fit = fit_theta(amp, condition, BOB, ALICE, spec=SPEC)
    nb, na = invariant_node_set(BOB, SPEC), invariant_node_set(ALICE, SPEC)
    tables = states.pair_factors(amp, nb.freqs, nb.dirs, na.freqs, na.dirs)
    th_b, th_a = (field_values(fit.field, n.freqs, n.dirs) for n in (nb, na))
    condition_residual_rel(condition, tables, th_b, th_a, nb.weights, na.weights)
    # each of the two condition sums: two squared moduli and one moment
    assert sorted(map(str, callers)) == ["modulus_sum"] * 4 + ["slot_moments"] * 2


def test_condition_residuals_on_slots_the_amplitude_lacks():
    # a missing slot adds 0: one slot of the condition leaves |phased slot|,
    # none leaves a zero grid
    nb, na = invariant_node_set(BOB, SPEC), invariant_node_set(ALICE, SPEC)
    th_b, th_a = np.full(len(nb), 0.3), np.full(len(na), -0.2)
    one_slot = TwoPhotonAmplitude(
        kind="general",
        table={(1, 1): (lambda f, d: ((1.0 + 0.5j) * f)[:, None], lambda f, d: f[:, None])},
    )
    tables = states.pair_factors(one_slot, nb.freqs, nb.dirs, na.freqs, na.dirs)
    dense = amplitude_pair_tables(one_slot, nb.freqs, nb.dirs, na.freqs, na.dirs)[(1, 1)]
    res = condition_residuals(21, tables, th_b, th_a)
    np.testing.assert_allclose(res, np.abs(dense), rtol=RTOL, atol=0.0)
    res = condition_residuals(11, tables, th_b, th_a)
    assert res.shape == (len(nb), len(na))
    assert not res.any()


@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_condition_residuals_broadcast_single_angles(kind):
    # a single angle, shape (1,), holds on every row or column
    amp = TwoPhotonAmplitude(kind=kind, envelope=gaussian_envelope)
    condition = BELL_KINDS[kind]
    nb, na = invariant_node_set(BOB, SPEC), invariant_node_set(ALICE, SPEC)
    tables = states.pair_factors(amp, nb.freqs, nb.dirs, na.freqs, na.dirs)
    dense = amplitude_pair_tables(amp, nb.freqs, nb.dirs, na.freqs, na.dirs)
    scale = max(np.abs(t).max() for t in dense.values())
    th_b = field_values(azimuthal_field(0.4, 1.0), nb.freqs, nb.dirs)
    th_a = field_values(azimuthal_field(-0.2, 1.0), na.freqs, na.dirs)
    one_b, one_a = np.array([0.3]), np.array([-0.7])
    for th1, th2 in ((one_b, th_a), (th_b, one_a), (one_b, one_a)):
        res = condition_residuals(condition, tables, th1, th2)
        assert res.shape == (len(nb), len(na))
        expected = dense_condition_residuals(condition, dense, th1, th2)
        np.testing.assert_allclose(res, expected, rtol=0.0, atol=RTOL * scale)


def test_contract_is_the_weighted_inner_product():
    rng = np.random.default_rng(17)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    n1, n2 = 7, 5
    # ranks 3 and 4, as a Bell kind's r x r' products meet them
    t1 = states.PairTable(cplx(n1, 3), cplx(n2, 3))
    t2 = states.PairTable(cplx(n1, 4), cplx(n2, 4))
    dense1, dense2 = t1.a @ t1.b.T, t2.a @ t2.b.T
    u, v = cplx(n1), cplx(n2)
    expected = u @ (np.conj(dense1) * dense2) @ v
    assert abs(t1.contract(t2, u, v) - expected) <= RTOL * abs(expected)


@pytest.mark.parametrize("envelope", [False, True], ids=["plain", "envelope"])
@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_pair_factors_on_a_batch_whose_directions_sum_to_zero(kind, envelope):
    # no mean direction to turn to a pole: the chart stays as it is
    amp = TwoPhotonAmplitude(kind=kind, envelope=gaussian_envelope if envelope else None)
    f1 = np.array([1.0, 2.0, 1.5, 0.7])
    d1 = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    assert not np.any(d1.sum(axis=0))
    rng = np.random.default_rng(3)
    d2 = rng.normal(size=(5, 3)) + np.array([0.0, 0.0, 2.0])
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    f2 = rng.uniform(0.5, 2.0, size=5)
    dense = amplitude_pair_tables(amp, f1, d1, f2, d2)
    factored = states.pair_factors(amp, f1, d1, f2, d2)
    assert factored.keys() == dense.keys()
    for slot, table in dense.items():
        built = factored[slot].a @ factored[slot].b.T
        np.testing.assert_allclose(built, table, rtol=0.0, atol=RTOL * np.abs(table).max())
