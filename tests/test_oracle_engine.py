"""The matrix oracle against the engine: the factored Bell tables of
``states.pair_factors`` summed by ``states.modulus_sum`` and
``states.four_term`` reproduce the brute-force pair vector; the oracle's
cell-subset rule; the verification suite's pinned check list; and a fault
in the engine's norm sum failing the suite's norm check."""

import numpy as np
import pytest

from bellepr import states
from bellepr.errors import InputError
from bellepr.fock_oracle import (
    DiscreteGrid,
    OracleSpace,
    OscillatorTruncation,
    coincident_term,
    epr_oracle,
    epr_unnormalized,
    four_term_reference,
    two_photon_vector,
    verify_suite,
    yes_no_op,
)
from bellepr.spinor_tetrad import NullMomentum
from bellepr.states import (
    BELL_KINDS,
    TwoPhotonAmplitude,
    amplitude_pair_tables,
    four_term,
    modulus_sum,
    oscillator_factors,
    pair_factors,
    slot_moments,
)

_DIRS = [
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
]

SUITE_CHECKS = [
    "ladder-pair-commutator-central",
    "lowering-number-commutator",
    "raising-number-commutator",
    "center-commutes-with-ladders",
    "center-resolution-of-identity",
    "single-oscillator-ladder-form",
    "quadratic-number-coincidence-scale",
    "circular-linear-basis-change",
    "linear-ladder-commutator-central",
    "yesno-construction-equality",
    "yesno-aligned-eigenvalue-plus-one",
    "yesno-crossed-eigenvalue-minus-one",
    "vacuum-normalized-and-annihilated",
    "energy-eigenvalues-half-integer",
    "whole-spectrum-count-integer",
    "pair-norm-closed-form",
    "correlation-disjoint-four-term",
    "correlation-coincident-isolation",
]


def mk_grid3():
    return DiscreteGrid(
        [(NullMomentum(1.0 + 0.3 * i, _DIRS[i]), 0.4 + 0.25 * i) for i in range(3)]
    )


def grid_arrays(grid):
    return grid.freqs, np.array([k.dir for k, _ in grid.cells])


@pytest.mark.parametrize("n_osc", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(BELL_KINDS))
def test_factored_engine_matches_brute_force(kind, n_osc):
    grid = mk_grid3()
    space = OracleSpace(grid, OscillatorTruncation(), n_osc)
    amp = TwoPhotonAmplitude(kind=kind)
    freqs, dirs = grid_arrays(grid)
    rng = np.random.default_rng(60 + n_osc)
    o = rng.normal(size=3) + 0.4
    u = grid.weights * np.abs(o) ** 2 / float(np.sum(grid.weights * np.abs(o) ** 2))

    # the brute-force side builds its vector from the dense tables
    dense = amplitude_pair_tables(amp, freqs, dirs, freqs, dirs)
    vec = two_photon_vector(space, dense, o)
    brute = float(np.vdot(vec, vec).real)
    factored = pair_factors(amp, freqs, dirs, freqs, dirs)
    first_fac, cross_fac, _ = oscillator_factors(n_osc)
    diag = sum(float(np.sum(np.abs(t.diagonal()) ** 2 * u)) for t in factored.values())
    cross = modulus_sum(factored.values(), u, u)
    norm = first_fac * diag + cross_fac * cross
    # relative to the two sums themselves: at N = 1 an equal-helicity norm is
    # its vanishing diagonal alone, 0 by the matrices and roundoff here
    assert abs(norm - brute) <= 1e-10 * (diag + cross)

    beta, alpha = 0.55, -0.3
    ib, ia = [0, 1], [2]
    raw = epr_unnormalized(space, dense, o, ib, ia, beta, alpha)
    block = pair_factors(amp, freqs[ib], dirs[ib], freqs[ia], dirs[ia])
    num = four_term(slot_moments(block, u[ib], u[ia]), beta, alpha, n_osc)
    assert abs(num - raw.real) <= 1e-8 * max(1.0, abs(raw))


def _tables():
    rng = np.random.default_rng(0)
    return {(1, 1): rng.normal(size=(3, 3)), (-1, -1): rng.normal(size=(3, 3))}


_O = [1.0, 0.5, 0.8]
_Z = [0.5, 0.3, 0.2]

SUBSET_CALLS = {
    "yes_no_op": lambda space, bad: yes_no_op(space, bad, 0.3),
    "epr_unnormalized": lambda space, bad: epr_unnormalized(
        space, _tables(), _O, bad, [1], 0.3, 0.1
    ),
    "epr_oracle": lambda space, bad: epr_oracle(space, _tables(), _O, [1], bad, 0.3, 0.1),
    "four_term_reference": lambda space, bad: four_term_reference(
        space, _tables(), _Z, bad, [0], 0.3, 0.1
    ),
    "coincident_term": lambda space, bad: coincident_term(
        space, _tables(), _Z, [0], bad, 0.3, 0.1
    ),
}


@pytest.mark.parametrize(
    "bad", [[-1], [7], [1.5], [], [0, 0]], ids=["neg", "past", "float", "empty", "dup"]
)
@pytest.mark.parametrize("call", sorted(SUBSET_CALLS))
def test_bad_cell_subset_is_an_input_error(call, bad):
    space = OracleSpace(mk_grid3(), OscillatorTruncation(), 2)
    with pytest.raises(InputError, match="detector cell subset|outside grid"):
        SUBSET_CALLS[call](space, bad)


@pytest.mark.parametrize("n_osc", [1, 2, 3])
def test_suite_runs_the_pinned_checks_in_order(n_osc):
    suite = verify_suite(mk_grid3(), n_osc=n_osc)
    assert [check.name for check in suite] == SUITE_CHECKS
    assert all(check.passed for check in suite)


def test_fault_scale_fails_only_the_ladder_pair_check():
    suite = verify_suite(mk_grid3(), n_osc=2, fault_scale=2.0)
    assert [check.name for check in suite] == SUITE_CHECKS
    assert [check.name for check in suite if not check.passed] == [
        "ladder-pair-commutator-central"
    ]


@pytest.mark.parametrize("n_osc", [1, 2, 3])
def test_a_fault_in_the_engine_norm_fails_only_the_norm_check(n_osc, monkeypatch):
    # the closed-form norm is states.norm_sum, so a wrong same-momentum
    # factor there reaches the pair-norm check
    true_factors = states.oscillator_factors

    def doubled_same(n):
        same, cross, numerator = true_factors(n)
        return 2.0 * same, cross, numerator

    monkeypatch.setattr(states, "oscillator_factors", doubled_same)
    suite = verify_suite(mk_grid3(), n_osc=n_osc)
    assert [check.name for check in suite] == SUITE_CHECKS
    assert [check.name for check in suite if not check.passed] == ["pair-norm-closed-form"]
