"""Brute-force oracle: algebra, states, observables, and correlation
identities on small grids."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from bellepr.errors import InputError
from bellepr.fock_oracle import (
    DiscreteGrid,
    OracleSpace,
    OscillatorTruncation,
    center_op,
    circular_ladder,
    coincidence_scale,
    coincident_term,
    commutator,
    cutoff_safe_projector,
    epr_oracle,
    epr_unnormalized,
    four_term_reference,
    hamiltonian_single_polarization,
    ladder,
    linear_ladder,
    norm_reference,
    number_op,
    number_op_quadratic,
    two_photon_vector,
    vacuum_vector,
    verify_suite,
    whole_spectrum_number,
    yes_no_op,
)
from bellepr.spinor_tetrad import NullMomentum
from bellepr.states import TwoPhotonAmplitude, amplitude_pair_tables

_DIRS = [
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, -1.0]),
]


def mk_grid(m):
    return DiscreteGrid(
        [(NullMomentum(1.0 + 0.3 * i, _DIRS[i]), 0.4 + 0.25 * i) for i in range(m)]
    )


def sym_tables(rng, m):
    raw = {
        (s, spp): rng.normal(size=(m, m)) + 1.0j * rng.normal(size=(m, m))
        for s in (1, -1)
        for spp in (1, -1)
    }
    return {
        (s, spp): 0.5 * (tab + raw[(spp, s)].T) for (s, spp), tab in raw.items()
    }


def grid_z(grid, o_values):
    o = np.asarray(o_values, dtype=complex)
    return np.abs(o) ** 2 / float(np.sum(grid.weights * np.abs(o) ** 2))


@pytest.fixture(scope="module")
def grid3():
    return mk_grid(3)


@pytest.fixture(scope="module")
def space2(grid3):
    return OracleSpace(grid3, OscillatorTruncation(), 2)


class TestValidation:
    def test_weights_positive(self):
        with pytest.raises(InputError):
            DiscreteGrid([(NullMomentum(1.0, _DIRS[0]), 0.0)])

    @pytest.mark.parametrize("weight", [1.0e-320, 1.0e-300, 1.0e-154, 1.0e300])
    def test_weight_reciprocal_and_square_finite(self, weight):
        # 1/1e-320 and 1e300**2 overflow, 1e-300**2 underflows to 0 and
        # 1e-154**2 to a subnormal; the nearest decades inside still build
        with pytest.raises(InputError, match="square that neither underflows nor overflows"):
            DiscreteGrid([(NullMomentum(1.0, _DIRS[0]), weight)])
        inside = 1.0e-153 if weight < 1.0 else 1.0e150
        assert DiscreteGrid([(NullMomentum(1.0, _DIRS[0]), inside)]).weights[0] == inside

    def test_distinct_momenta(self):
        cell = (NullMomentum(1.0, _DIRS[0]), 0.5)
        with pytest.raises(InputError, match="distinct"):
            DiscreteGrid([cell, cell])

    def test_cutoff_floor(self):
        with pytest.raises(InputError):
            OscillatorTruncation(1)

    def test_n_osc_integer(self, grid3):
        for bad in (0, -1, True, 2.0):
            with pytest.raises(InputError):
                OracleSpace(grid3, OscillatorTruncation(), bad)

    def test_dimension_guard(self, grid3):
        with pytest.raises(InputError, match="dimension"):
            OracleSpace(grid3, OscillatorTruncation(6), 4)

    def test_mode_and_kind(self, space2):
        with pytest.raises(InputError):
            ladder(space2, 0, 3)
        with pytest.raises(InputError):
            ladder(space2, 0, 1, "sideways")
        with pytest.raises(InputError):
            circular_ladder(space2, 0, 2)
        with pytest.raises(InputError):
            ladder(space2, 7, 1)

    def test_subsets(self, space2):
        with pytest.raises(InputError, match="empty"):
            yes_no_op(space2, [], 0.0)
        with pytest.raises(InputError, match="duplicate"):
            yes_no_op(space2, [0, 0], 0.0)
        with pytest.raises(InputError):
            yes_no_op(space2, [0], 0.0, construction="other")

    def test_state_inputs(self, space2):
        with pytest.raises(InputError):
            vacuum_vector(space2, [0.0, 0.0, 0.0])
        with pytest.raises(InputError):
            vacuum_vector(space2, [1.0, 1.0])
        rng = np.random.default_rng(0)
        bad = {(1, 1): rng.normal(size=(2, 2))}
        with pytest.raises(InputError):
            two_photon_vector(space2, bad, [1.0, 1.0, 1.0])
        with pytest.raises(InputError):
            two_photon_vector(space2, {(2, 1): np.zeros((3, 3))}, [1.0, 1.0, 1.0])


class TestAlgebra:
    def test_verify_suite_all_pass(self, grid3):
        for n_osc in (1, 2):
            for check in verify_suite(grid3, n_osc=n_osc):
                assert check.passed, f"{check.name}: {check.residual:.3e}"

    @pytest.mark.parametrize("n_osc", [2, 3])
    def test_ladder_is_the_normalized_slot_sum(self, grid3, n_osc):
        # (1/sqrt N) sum_n I x ... x A x ... x I, with A the one-oscillator
        # ladder in slot n, written out with explicit Kronecker products
        space1 = OracleSpace(grid3, OscillatorTruncation(), 1)
        space = OracleSpace(grid3, OscillatorTruncation(), n_osc)
        eye = sp.identity(space1.dim_single, format="csr")
        for cell in range(grid3.size):
            for mode in (1, 2):
                a = ladder(space1, cell, mode)
                if n_osc == 2:
                    slot_sum = sp.kron(a, eye) + sp.kron(eye, a)
                else:
                    slot_sum = (
                        sp.kron(sp.kron(a, eye), eye)
                        + sp.kron(sp.kron(eye, a), eye)
                        + sp.kron(sp.kron(eye, eye), a)
                    )
                expected = slot_sum / math.sqrt(n_osc)
                low = ladder(space, cell, mode, "lower")
                rai = ladder(space, cell, mode, "raise")
                assert abs(low - expected).max() <= 1e-15
                assert abs(rai - expected.conjugate().transpose()).max() <= 1e-15
                assert abs(ladder(space, cell, mode, "lower") - low).max() == 0.0
                assert abs(ladder(space, cell, mode, "raise") - rai).max() == 0.0

    def test_ladder_ccr_needs_cutoff_guard(self, space2):
        # the truncation artifact lives exactly at top occupation: without
        # the safe-domain projector the pair commutator misses the central
        # element by an order-one amount, with it the identity is exact
        low = ladder(space2, 1, 1, "lower")
        rai = ladder(space2, 1, 1, "raise")
        target = (1.0 / space2.grid.weights[1]) * center_op(space2, 1)
        defect = commutator(low, rai) - target
        unguarded = np.max(np.abs(defect.tocoo().data))
        guarded = (defect @ cutoff_safe_projector(space2)).tocoo()
        guarded_norm = np.max(np.abs(guarded.data)) if guarded.nnz else 0.0
        assert unguarded > 0.1
        assert guarded_norm <= 1e-12

    def test_number_commutators_exact_without_guard(self, space2):
        low = ladder(space2, 2, 1, "lower")
        num = number_op(space2, 2, 1)
        scale = 1.0 / space2.grid.weights[2]
        d1 = commutator(low, num) - scale * low
        rai = ladder(space2, 2, 1, "raise")
        d2 = commutator(rai, num) + scale * rai
        for d in (d1, d2):
            coo = d.tocoo()
            assert (np.max(np.abs(coo.data)) if coo.nnz else 0.0) <= 1e-12

    def test_quadratic_number_scale(self, grid3):
        space1 = OracleSpace(grid3, OscillatorTruncation(), 1)
        alt = number_op_quadratic(space1, 1, 2)
        scaled = coincidence_scale(space1, 1) * number_op(space1, 1, 2)
        assert abs((alt - scaled).tocoo()).max() <= 1e-12
        assert coincidence_scale(space1, 1) == pytest.approx(
            1.0 / grid3.weights[1]
        )

    def test_center_resolution(self, space2):
        total = sum(
            space2.grid.weights[i] * center_op(space2, i)
            for i in range(space2.grid.size)
        )
        defect = (total - sp.identity(space2.dim)).tocoo()
        assert (np.max(np.abs(defect.data)) if defect.nnz else 0.0) <= 1e-12


class TestBasisChange:
    def test_linear_is_mode_rotation(self, space2):
        for theta in (0.0, 0.3, 2.1, -0.9):
            lin = linear_ladder(space2, 0, theta)
            rot = math.cos(theta) * ladder(space2, 0, 1) + math.sin(theta) * ladder(
                space2, 0, 2
            )
            assert abs((lin - rot).tocoo()).max() <= 1e-12

    def test_zero_and_right_angle_match_modes(self, space2):
        d0 = (linear_ladder(space2, 0, 0.0) - ladder(space2, 0, 1)).tocoo()
        d1 = (linear_ladder(space2, 0, math.pi / 2.0) - ladder(space2, 0, 2)).tocoo()
        for d in (d0, d1):
            assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12

    def test_circular_roundtrip(self, space2):
        theta = 0.77
        lin = linear_ladder(space2, 1, theta)
        lin_perp = linear_ladder(space2, 1, theta + math.pi / 2.0)
        for s in (1, -1):
            back = (
                np.exp(-1.0j * s * theta) / math.sqrt(2.0) * (lin - 1.0j * s * lin_perp)
            )
            d = (circular_ladder(space2, 1, s) - back).tocoo()
            assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12


class TestStates:
    def test_vacuum_normalized_annihilated(self, space2):
        rng = np.random.default_rng(1)
        o = rng.normal(size=3) + 1.0j * rng.normal(size=3)
        vac = vacuum_vector(space2, o)
        assert np.vdot(vac, vac).real == pytest.approx(1.0, abs=1e-14)
        for i in range(3):
            for mode in (1, 2):
                assert np.max(np.abs(ladder(space2, i, mode) @ vac)) <= 1e-14

    @pytest.mark.parametrize("n_osc", [1, 2, 3])
    def test_pair_norm_closed_form(self, grid3, n_osc):
        rng = np.random.default_rng(10 + n_osc)
        space = OracleSpace(grid3, OscillatorTruncation(), n_osc)
        tables = sym_tables(rng, 3)
        o = rng.normal(size=3) + 0.4
        vec = two_photon_vector(space, tables, o)
        brute = float(np.vdot(vec, vec).real)
        closed = norm_reference(space, tables, grid_z(grid3, o))
        assert brute == pytest.approx(closed, rel=1e-12)

    def test_cutoff_two_is_exact_for_pairs(self, grid3):
        rng = np.random.default_rng(3)
        tables = sym_tables(rng, 3)
        o = rng.normal(size=3) + 0.4
        norms = []
        for cutoff in (2, 3):
            space = OracleSpace(grid3, OscillatorTruncation(cutoff), 2)
            vec = two_photon_vector(space, tables, o)
            norms.append(float(np.vdot(vec, vec).real))
        assert norms[0] == pytest.approx(norms[1], rel=1e-14)

    def test_bell_diagonal_drops_out(self, grid3):
        # opposite-helicity-pair tables vanish at coincident momenta, so the
        # diagonal (1/N) part of the squared norm is absent: the brute-force
        # norm must agree with the cross part alone
        freqs = grid3.freqs
        dirs = np.array([k.dir for k, _ in grid3.cells])
        tables = amplitude_pair_tables(
            TwoPhotonAmplitude(kind="bell21"), freqs, dirs, freqs, dirs
        )
        for slot, tab in tables.items():
            assert np.max(np.abs(np.diag(tab))) <= 1e-12
        rng = np.random.default_rng(4)
        o = rng.normal(size=3) + 0.5
        z = grid_z(grid3, o)
        space = OracleSpace(grid3, OscillatorTruncation(), 2)
        vec = two_photon_vector(space, tables, o)
        brute = float(np.vdot(vec, vec).real)
        w = grid3.weights
        cross = sum(
            float((w * z) @ (np.abs(tab) ** 2) @ (w * z))
            for tab in tables.values()
        )
        assert brute == pytest.approx(cross, rel=1e-12)

    def test_factor_four_bell_form(self, grid3):
        # with only one opposite-helicity slot pair populated the closed-form
        # norm collapses to the factor-4 expression in that single table
        freqs = grid3.freqs
        dirs = np.array([k.dir for k, _ in grid3.cells])
        tables = amplitude_pair_tables(
            TwoPhotonAmplitude(kind="bell11"), freqs, dirs, freqs, dirs
        )
        rng = np.random.default_rng(5)
        o = rng.normal(size=3) + 0.5
        z = grid_z(grid3, o)
        w = grid3.weights
        for n_osc in (1, 2, 3):
            space = OracleSpace(grid3, OscillatorTruncation(), n_osc)
            vec = two_photon_vector(space, tables, o)
            brute = float(np.vdot(vec, vec).real)
            tab = tables[(1, -1)]
            four_form = (4.0 / n_osc) * float(
                np.sum(w * np.abs(np.diag(tab)) ** 2 * z)
            ) + (4.0 * (n_osc - 1) / n_osc) * float(
                (w * z) @ (np.abs(tab) ** 2) @ (w * z)
            )
            assert brute == pytest.approx(four_form, rel=1e-12)


class TestYesNo:
    def test_constructions_agree(self, space2):
        for angle in (0.0, 0.4, -1.3):
            d = (
                yes_no_op(space2, [0, 2], angle, "number")
                - yes_no_op(space2, [0, 2], angle, "circular")
            ).tocoo()
            assert (np.max(np.abs(d.data)) if d.nnz else 0.0) <= 1e-12

    def test_eigenvalues_on_polarized_photons(self, space2):
        rng = np.random.default_rng(6)
        angle = 0.93
        vac = vacuum_vector(space2, rng.normal(size=3) + 0.4)
        w = space2.grid.weights
        aligned = sum(
            w[i]
            * (linear_ladder(space2, i, angle).conjugate().transpose().tocsr() @ vac)
            for i in range(3)
        )
        crossed = sum(
            w[i]
            * (
                linear_ladder(space2, i, angle + math.pi / 2.0)
                .conjugate()
                .transpose()
                .tocsr()
                @ vac
            )
            for i in range(3)
        )
        y = yes_no_op(space2, range(3), angle)
        assert np.max(np.abs(y @ aligned - aligned)) <= 1e-12 * np.max(
            np.abs(aligned)
        )
        assert np.max(np.abs(y @ crossed + crossed)) <= 1e-12 * np.max(
            np.abs(crossed)
        )

    def test_subset_ignores_outside_photons(self, space2):
        rng = np.random.default_rng(7)
        vac = vacuum_vector(space2, rng.normal(size=3) + 0.4)
        outside = linear_ladder(space2, 1, 0.3).conjugate().transpose().tocsr() @ vac
        y = yes_no_op(space2, [0, 2], 0.8)
        assert np.max(np.abs(y @ outside)) <= 1e-13


class TestCorrelation:
    @pytest.mark.parametrize("n_osc", [2, 3])
    def test_disjoint_matches_four_term(self, grid3, n_osc):
        rng = np.random.default_rng(20 + n_osc)
        space = OracleSpace(grid3, OscillatorTruncation(), n_osc)
        tables = sym_tables(rng, 3)
        o = rng.normal(size=3) + 0.4
        beta, alpha = 0.55, -0.3
        raw = epr_unnormalized(space, tables, o, [0], [2], beta, alpha)
        ref = four_term_reference(
            space, tables, grid_z(grid3, o), [0], [2], beta, alpha
        )
        assert abs(raw.imag) <= 1e-12 * max(1.0, abs(raw.real))
        assert raw.real == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_single_oscillator_disjoint_vanishes(self, grid3):
        rng = np.random.default_rng(30)
        space = OracleSpace(grid3, OscillatorTruncation(), 1)
        tables = sym_tables(rng, 3)
        o = rng.normal(size=3) + 0.4
        raw = epr_unnormalized(space, tables, o, [0], [2], 0.9, 0.1)
        assert abs(raw) <= 1e-12

    @pytest.mark.parametrize("n_osc", [1, 2, 3])
    def test_overlap_residual_is_coincident_term(self, grid3, n_osc):
        rng = np.random.default_rng(40 + n_osc)
        space = OracleSpace(grid3, OscillatorTruncation(), n_osc)
        tables = sym_tables(rng, 3)
        o = rng.normal(size=3) + 0.4
        z = grid_z(grid3, o)
        beta, alpha = 0.55, -0.3
        sb, sa = [0, 1, 2], [0, 1]
        raw = epr_unnormalized(space, tables, o, sb, sa, beta, alpha)
        ref = four_term_reference(space, tables, z, sb, sa, beta, alpha)
        coin = coincident_term(space, tables, z, sb, sa, beta, alpha)
        assert abs(raw - ref - coin) <= 1e-10 * max(1.0, abs(raw))

    def test_normalized_value(self, grid3):
        rng = np.random.default_rng(50)
        space = OracleSpace(grid3, OscillatorTruncation(), 2)
        tables = sym_tables(rng, 3)
        o = rng.normal(size=3) + 0.4
        val = epr_oracle(space, tables, o, [0], [2], 0.55, -0.3)
        vec = two_photon_vector(space, tables, o)
        nrm2 = float(np.vdot(vec, vec).real)
        ref = four_term_reference(
            space, tables, grid_z(grid3, o), [0], [2], 0.55, -0.3
        )
        assert val == pytest.approx(ref / nrm2, rel=1e-10)


class TestSpectra:
    def test_energy_eigenvalues(self, grid3):
        space = OracleSpace(grid3, OscillatorTruncation(), 1)
        ham = hamiltonian_single_polarization(space)
        stride = space.levels * space.levels
        for i in range(3):
            for occ in range(space.levels):
                basis = np.zeros(space.dim)
                basis[i * stride + occ * space.levels] = 1.0
                got = ham @ basis
                expect = grid3.freqs[i] * (occ + 0.5)
                assert np.max(np.abs(got - expect * basis)) <= 1e-12

    def test_whole_spectrum_integer(self, space2):
        nsum = whole_spectrum_number(space2, 1)
        diag = nsum.diagonal().real
        off = (nsum - sp.diags(nsum.diagonal())).tocoo()
        assert (np.max(np.abs(off.data)) if off.nnz else 0.0) <= 1e-12
        assert np.max(np.abs(diag - np.round(diag))) <= 1e-12
        assert set(np.round(diag).astype(int)) == set(
            range(int(np.max(np.round(diag))) + 1)
        )
