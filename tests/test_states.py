from __future__ import annotations

import math

import numpy as np
import pytest

import bellepr as bp
from bellepr.measure import DetectorRegion, QuadratureSpec, invariant_node_set
from bellepr.states import (
    TwoPhotonAmplitude,
    amplitude_eval,
    amplitude_pair_tables,
    azimuthal_field,
    bell_amplitude,
    bell_condition_residual,
    constant_field,
    covariance_residual,
    field_value,
    field_values,
    fit_theta,
    oscillator_factors,
    symmetry_residual,
    tabulated_field,
    theta_wigner_residual,
    two_photon_norm,
    with_transform_field,
)
from bellepr.vacuum import normalize

DEG = math.pi / 180.0
Z_HAT = np.array([0.0, 0.0, 1.0])
X_HAT = np.array([1.0, 0.0, 0.0])


def rand_momenta(rng, n, freq_lo=0.3, freq_hi=3.0):
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    flip = d[:, 2] < -0.97
    d[flip] = -d[flip]
    f = rng.uniform(freq_lo, freq_hi, size=n)
    return f, d


def rand_map(rng, rap=1.0):
    ax1 = rng.normal(size=3)
    ax1 /= np.linalg.norm(ax1)
    ax2 = rng.normal(size=3)
    ax2 /= np.linalg.norm(ax2)
    return bp.compose(
        bp.rotation(rng.uniform(-math.pi, math.pi), ax1),
        bp.boost(rng.uniform(-rap, rap), ax2),
    )


class TestBellAmplitudeValues:
    def test_opposite_helicity_diagonal_is_minus_one(self):
        rng = np.random.default_rng(31)
        f, d = rand_momenta(rng, 20)
        for i in range(20):
            k = bp.NullMomentum(f[i], d[i])
            assert bell_amplitude("bell11", k, k, 1, -1) == pytest.approx(
                -1.0, abs=1e-12
            )
            assert bell_amplitude("bell11", k, k, -1, 1) == pytest.approx(
                -1.0, abs=1e-12
            )

    def test_equal_helicity_diagonal_vanishes(self):
        k = bp.NullMomentum(1.4, np.array([0.6, 0.0, 0.8]))
        assert bell_amplitude("bell21", k, k, 1, 1) == 0.0
        assert bell_amplitude("bell21", k, k, -1, -1) == 0.0

    def test_frozen_z_x_values(self):
        # hand-derived from the chart closed forms at omega = omega' = 1
        kz = bp.NullMomentum(1.0, Z_HAT)
        kx = bp.NullMomentum(1.0, X_HAT)
        assert bell_amplitude("bell11", kz, kx, 1, -1) == pytest.approx(
            -0.5, abs=1e-14
        )
        assert bell_amplitude("bell21", kz, kx, 1, 1) == pytest.approx(
            2.0, abs=1e-13
        )

    def test_magnitude_laws(self):
        rng = np.random.default_rng(32)
        f, d = rand_momenta(rng, 200)
        f2, d2 = rand_momenta(rng, 200)
        t11 = amplitude_pair_tables(
            TwoPhotonAmplitude(kind="bell11"), f, d, f2, d2, outer=False
        )
        t21 = amplitude_pair_tables(
            TwoPhotonAmplitude(kind="bell21"), f, d, f2, d2, outer=False
        )
        cosg = np.sum(d * d2, axis=1)
        assert np.max(np.abs(np.abs(t11[(1, -1)]) - (1 + cosg) / 2)) < 1e-12
        two_kk = 2 * f * f2 * (1 - cosg)
        assert np.max(np.abs(np.abs(t21[(1, 1)]) - two_kk)) < 1e-11

    def test_inactive_slots_exactly_zero(self):
        k = bp.NullMomentum(1.0, Z_HAT)
        kp = bp.NullMomentum(1.0, X_HAT)
        assert bell_amplitude("bell11", k, kp, 1, 1) == 0.0
        assert bell_amplitude("bell11", k, kp, -1, -1) == 0.0
        assert bell_amplitude("bell21", k, kp, 1, -1) == 0.0
        assert bell_amplitude("bell21", k, kp, -1, 1) == 0.0

    def test_envelope_multiplies_product_form(self):
        env = lambda freqs, dirs: freqs**2
        k = bp.NullMomentum(1.3, Z_HAT)
        kp = bp.NullMomentum(0.7, X_HAT)
        bare = bell_amplitude("bell11", k, kp, 1, -1)
        dressed = bell_amplitude("bell11", k, kp, 1, -1, envelope=env)
        assert dressed == pytest.approx(bare * (1.3**2) * (0.7**2), rel=1e-13)

    def test_condition_variants_share_tables(self):
        # Each kind pair carries one table; the variants differ only in which
        # phase condition their angle field satisfies, not in the amplitudes.
        k = bp.NullMomentum(1.1, np.array([0.0, 0.6, 0.8]))
        kp = bp.NullMomentum(0.9, np.array([0.8, 0.0, 0.6]))
        for s, sp in ((1, -1), (-1, 1)):
            assert bell_amplitude("bell12", k, kp, s, sp) == bell_amplitude(
                "bell11", k, kp, s, sp
            )
        for s, sp in ((1, 1), (-1, -1)):
            assert bell_amplitude("bell22", k, kp, s, sp) == bell_amplitude(
                "bell21", k, kp, s, sp
            )

    def test_conjugate_slot_structure(self):
        rng = np.random.default_rng(33)
        f, d = rand_momenta(rng, 50)
        f2, d2 = rand_momenta(rng, 50)
        t11 = amplitude_pair_tables(
            TwoPhotonAmplitude(kind="bell11"), f, d, f2, d2, outer=False
        )
        t21 = amplitude_pair_tables(
            TwoPhotonAmplitude(kind="bell21"), f, d, f2, d2, outer=False
        )
        assert np.max(np.abs(t11[(-1, 1)] - np.conj(t11[(1, -1)]))) < 1e-12
        assert np.max(np.abs(t21[(-1, -1)] - np.conj(t21[(1, 1)]))) < 1e-11


class TestGeneralBatchEvaluators:
    def test_momentum_dependent_evaluators_match_per_pair_values(self):
        rng = np.random.default_rng(38)
        f1, d1 = rand_momenta(rng, 6)
        f2, d2 = rand_momenta(rng, 6)
        amp = TwoPhotonAmplitude(
            kind="general",
            table={
                (1, 1): lambda f1, d1, f2, d2: f1 * f2 * (1 + 0.5j),
                (1, -1): lambda f1, d1, f2, d2: d1[..., 2] - 2.0j * d2[..., 0],
            },
            envelope=lambda freqs, dirs: np.exp(-freqs) * (1.0 + dirs[:, 1]),
        )
        outer = amplitude_pair_tables(amp, f1, d1, f2, d2, outer=True)
        paired = amplitude_pair_tables(amp, f1, d1, f2, d2, outer=False)
        assert set(outer) == set(paired) == {(1, 1), (1, -1)}
        for (s, sp), table in outer.items():
            assert table.shape == (6, 6)
            for i in range(6):
                ki = bp.NullMomentum(f1[i], d1[i])
                for j in range(6):
                    kj = bp.NullMomentum(f2[j], d2[j])
                    assert table[i, j] == amplitude_eval(amp, ki, kj, s, sp)
            np.testing.assert_array_equal(np.diag(table), paired[(s, sp)])


class TestSymmetry:
    @pytest.mark.parametrize("kind", ["bell11", "bell12", "bell21", "bell22"])
    def test_bell_kinds_symmetric_1000_pairs(self, kind):
        rng = np.random.default_rng(34)
        f1, d1 = rand_momenta(rng, 1000)
        f2, d2 = rand_momenta(rng, 1000)
        amp = TwoPhotonAmplitude(kind=kind)
        fwd = amplitude_pair_tables(amp, f1, d1, f2, d2, outer=False)
        rev = amplitude_pair_tables(amp, f2, d2, f1, d1, outer=False)
        worst = 0.0
        for (s, sp), vals in fwd.items():
            worst = max(worst, float(np.max(np.abs(vals - rev[(sp, s)]))))
        assert worst < 1e-10

    def test_scalar_symmetry_residual_small(self):
        rng = np.random.default_rng(35)
        f, d = rand_momenta(rng, 2)
        k, kp = bp.NullMomentum(f[0], d[0]), bp.NullMomentum(f[1], d[1])
        for kind in ("bell11", "bell21"):
            assert symmetry_residual(TwoPhotonAmplitude(kind=kind), k, kp) < 1e-10

    def test_injected_asymmetry_reported(self):
        eps = 0.37

        def psi_pm(f1, d1, f2, d2):
            return 1.0 + 0.0j

        def psi_mp(f1, d1, f2, d2):
            return 1.0 + eps  # breaks psi_mp(k,k') == psi_pm(k',k)

        amp = TwoPhotonAmplitude(
            kind="general", table={(1, -1): psi_pm, (-1, 1): psi_mp}
        )
        k = bp.NullMomentum(1.0, Z_HAT)
        kp = bp.NullMomentum(2.0, X_HAT)
        assert symmetry_residual(amp, k, kp) == pytest.approx(eps, rel=1e-12)

    def test_diagonal_pair_symmetric(self):
        k = bp.NullMomentum(1.2, np.array([0.6, 0.0, 0.8]))
        for kind in ("bell11", "bell21"):
            assert symmetry_residual(TwoPhotonAmplitude(kind=kind), k, k) < 1e-12


class TestCovariance:
    def test_identity_map_zero(self):
        k = bp.NullMomentum(1.0, Z_HAT)
        kp = bp.NullMomentum(1.5, X_HAT)
        for kind in ("bell11", "bell12", "bell21", "bell22"):
            amp = TwoPhotonAmplitude(kind=kind)
            assert covariance_residual(amp, bp.identity_map(), k, kp) < 1e-12

    @pytest.mark.parametrize("kind", ["bell11", "bell12", "bell21", "bell22"])
    def test_rotations_all_kinds(self, kind):
        rng = np.random.default_rng(36)
        amp = TwoPhotonAmplitude(kind=kind)
        done = 0
        while done < 100:
            ax = rng.normal(size=3)
            ax /= np.linalg.norm(ax)
            r = bp.rotation(rng.uniform(-math.pi, math.pi), ax)
            f, d = rand_momenta(rng, 2)
            try:
                res = covariance_residual(
                    amp, r, bp.NullMomentum(f[0], d[0]), bp.NullMomentum(f[1], d[1])
                )
            except bp.ChartError:
                continue
            assert res < 1e-8
            done += 1

    @pytest.mark.parametrize("kind", ["bell21", "bell22"])
    def test_equal_helicity_exact_under_boosts(self, kind):
        rng = np.random.default_rng(37)
        amp = TwoPhotonAmplitude(kind=kind)
        done = 0
        while done < 100:
            a = rand_map(rng, rap=1.0)
            f, d = rand_momenta(rng, 2)
            try:
                res = covariance_residual(
                    amp, a, bp.NullMomentum(f[0], d[0]), bp.NullMomentum(f[1], d[1])
                )
            except bp.ChartError:
                continue
            assert res < 1e-8
            done += 1

    def test_boost_rapidity_half_equal_helicity(self):
        amp = TwoPhotonAmplitude(kind="bell21")
        b = bp.boost(0.5, np.array([0.0, 0.6, 0.8]))
        k = bp.NullMomentum(1.2, X_HAT)
        kp = bp.NullMomentum(0.8, np.array([0.0, 1.0, 0.0]))
        assert covariance_residual(amp, b, k, kp) < 1e-8

    def test_opposite_helicity_boost_defect_documented(self):
        # the chart's m leg carries a k-collinear gauge defect under boosts,
        # so the opposite-helicity amplitudes transform exactly only under
        # rotations; a generic boost leaves a finite residual
        amp = TwoPhotonAmplitude(kind="bell11")
        b = bp.boost(0.7, Z_HAT)
        k = bp.NullMomentum(1.0, X_HAT)
        kp = bp.NullMomentum(1.0, np.array([0.0, 1.0, 0.0]))
        assert covariance_residual(amp, b, k, kp) > 1e-3


class TestBellConditions:
    def test_fitted_small_cone_pair(self):
        # two cones of 5-degree full opening with coplanar axes; the fitted
        # constant-per-cone angle keeps the condition defect under 1% of the
        # amplitude, pointwise and in rms
        ax_a = np.array([math.sin(2 * DEG), 0.0, math.cos(2 * DEG)])
        ax_b = np.array([math.sin(8.5 * DEG), 0.0, math.cos(8.5 * DEG)])
        ra = DetectorRegion(ax_a, 2.5 * DEG, 0.8, 1.2)
        rb = DetectorRegion(ax_b, 2.5 * DEG, 0.8, 1.2)
        amp = TwoPhotonAmplitude(kind="bell11")
        fit = fit_theta(amp, 11, ra, rb)
        assert fit.residual_rel < 0.01
        quad = QuadratureSpec(3, 3, 8)
        na, nb = invariant_node_set(ra, quad), invariant_node_set(rb, quad)
        tables = amplitude_pair_tables(amp, na.freqs, na.dirs, nb.freqs, nb.dirs)
        ta = field_values(fit.field, na.freqs, na.dirs)
        tb = field_values(fit.field, nb.freqs, nb.dirs)
        ang = ta[:, None] - tb[None, :]
        resid = np.abs(
            np.exp(1j * ang) * tables[(1, -1)] + np.exp(-1j * ang) * tables[(-1, 1)]
        )
        assert np.max(resid / np.abs(tables[(1, -1)])) < 0.01

    def test_fit_is_the_exact_minimizer(self):
        ax_a = np.array([math.sin(2 * DEG), 0.0, math.cos(2 * DEG)])
        ax_b = np.array([math.sin(8.5 * DEG), 0.0, math.cos(8.5 * DEG)])
        ra = DetectorRegion(ax_a, 2.5 * DEG, 0.8, 1.2)
        rb = DetectorRegion(ax_b, 2.5 * DEG, 0.8, 1.2)
        amp = TwoPhotonAmplitude(kind="bell11")
        fit = fit_theta(amp, 11, ra, rb)
        base = fit.field.values[0]
        for shift in (-0.05, 0.05):
            shifted = tabulated_field(fit.field.axes, np.array([base + shift, 0.0]))
            quad = QuadratureSpec(3, 3, 8)
            na, nb = invariant_node_set(ra, quad), invariant_node_set(rb, quad)
            tables = amplitude_pair_tables(amp, na.freqs, na.dirs, nb.freqs, nb.dirs)
            w = na.weights[:, None] * nb.weights[None, :]

            def objective(field):
                ta = field_values(field, na.freqs, na.dirs)
                tb = field_values(field, nb.freqs, nb.dirs)
                ang = ta[:, None] - tb[None, :]
                r = np.abs(
                    np.exp(1j * ang) * tables[(1, -1)]
                    + np.exp(-1j * ang) * tables[(-1, 1)]
                )
                return float(np.sum(w * r * r))

            assert objective(fit.field) <= objective(shifted)

    def test_condition_12_from_11_quarter_turn_identity(self):
        # a field solving the plus branch solves the minus branch once the
        # arm-to-arm angle difference shifts by pi/2: with one-cell-per-arm
        # pairs the residuals agree at machine level
        rng = np.random.default_rng(38)
        amp11 = TwoPhotonAmplitude(kind="bell11")
        amp12 = TwoPhotonAmplitude(kind="bell12")
        axes = np.stack([Z_HAT, X_HAT])
        th11 = tabulated_field(axes, np.array([0.3, -0.2]))
        th12 = tabulated_field(
            axes, np.array([0.3 - math.pi / 4, -0.2 + math.pi / 4])
        )
        for _ in range(20):
            pol_a, az_a = rng.uniform(0, 0.3), rng.uniform(0, 2 * math.pi)
            pol_b, az_b = rng.uniform(0, 0.3), rng.uniform(0, 2 * math.pi)
            k = bp.NullMomentum(
                rng.uniform(0.5, 2.0),
                np.array(
                    [
                        math.sin(pol_a) * math.cos(az_a),
                        math.sin(pol_a) * math.sin(az_a),
                        math.cos(pol_a),
                    ]
                ),
            )
            kp = bp.NullMomentum(
                rng.uniform(0.5, 2.0),
                np.array(
                    [
                        math.cos(pol_b),
                        math.sin(pol_b) * math.cos(az_b),
                        math.sin(pol_b) * math.sin(az_b),
                    ]
                ),
            )
            r11 = bell_condition_residual(11, amp11, th11, k, kp)
            r12 = bell_condition_residual(12, amp12, th12, k, kp)
            assert r12 == pytest.approx(r11, abs=1e-12)

    def test_condition_22_from_21_quarter_turn_identity(self):
        # sum-coupled analogue: a global shift of -pi/4 moves the angle sum by
        # -pi/2 and swaps the plus branch for the minus branch exactly
        rng = np.random.default_rng(39)
        amp21 = TwoPhotonAmplitude(kind="bell21")
        amp22 = TwoPhotonAmplitude(kind="bell22")
        th21 = constant_field(0.45)
        th22 = constant_field(0.45 - math.pi / 4)
        f, d = rand_momenta(rng, 20)
        f2, d2 = rand_momenta(rng, 20)
        for i in range(20):
            k = bp.NullMomentum(f[i], d[i])
            kp = bp.NullMomentum(f2[i], d2[i])
            r21 = bell_condition_residual(21, amp21, th21, k, kp)
            r22 = bell_condition_residual(22, amp22, th22, k, kp)
            assert r22 == pytest.approx(r21, abs=1e-12)

    def test_mismatched_theta_order_psi(self):
        k = bp.NullMomentum(1.0, np.array([math.sin(0.05), 0.0, math.cos(0.05)]))
        kp = bp.NullMomentum(1.0, np.array([-math.sin(0.05), 0.0, math.cos(0.05)]))
        amp = TwoPhotonAmplitude(kind="bell11")
        # theta difference 0 leaves the two terms adding in phase: defect ~ 2|psi|
        bad = constant_field(0.0)
        psi = abs(bell_amplitude("bell11", k, kp, 1, -1))
        assert bell_condition_residual(11, amp, bad, k, kp) > 1.9 * psi

    def test_diagonal_inconsistency_of_condition_11(self):
        # at k = k' both slots equal -1, so no angle assignment can cancel
        # them: the defect is exactly 2 whenever theta is a single field value
        k = bp.NullMomentum(1.0, np.array([0.6, 0.0, 0.8]))
        amp = TwoPhotonAmplitude(kind="bell11")
        assert bell_condition_residual(11, amp, constant_field(0.7), k, k) == (
            pytest.approx(2.0, abs=1e-12)
        )

    def test_fitted_equal_helicity_perpendicular_cones(self):
        # the equal-helicity pair phase drifts linearly with cone width, so a
        # per-cone constant fit has a first-order residual; at 2 deg and a
        # 90 deg separation it sits near 0.055 and halves with the width
        amp = TwoPhotonAmplitude(kind="bell21")
        ra = DetectorRegion(Z_HAT, 2.0 * DEG, 0.8, 1.2)
        rb = DetectorRegion(X_HAT, 2.0 * DEG, 0.8, 1.2)
        fit = fit_theta(amp, 21, ra, rb)
        assert fit.residual_rel < 0.06
        assert fit.field.values[0] == pytest.approx(math.pi / 2, abs=0.02)
        assert fit.field.values[1] == pytest.approx(0.0, abs=0.02)
        half = fit_theta(
            amp,
            21,
            DetectorRegion(Z_HAT, 1.0 * DEG, 0.8, 1.2),
            DetectorRegion(X_HAT, 1.0 * DEG, 0.8, 1.2),
        )
        assert 0.4 < half.residual_rel / fit.residual_rel < 0.6

    def test_fitted_equal_helicity_near_antipodal_degenerate(self):
        # toward the chart antipode the pair phase winds with azimuth, so no
        # per-cone constant can track it and the fit residual becomes O(1)
        ax_b = np.array([math.sin(178.0 * DEG), 0.0, math.cos(178.0 * DEG)])
        ra = DetectorRegion(Z_HAT, 2.0 * DEG, 0.8, 1.2)
        rb = DetectorRegion(ax_b, 2.0 * DEG, 0.8, 1.2)
        fit = fit_theta(TwoPhotonAmplitude(kind="bell21"), 21, ra, rb)
        assert fit.residual_rel > 0.3

    @pytest.mark.parametrize("kind", ["bell21", "bell22"])
    def test_same_cone_equal_helicity_fit_is_degenerate(self, kind):
        # psi_++ conj(psi_--) = conj(P)^4 sums to roundoff over one cone with
        # itself (about 6e-17 of the slot scale): its angle is noise
        region = DetectorRegion(Z_HAT, 2.0 * DEG, 0.5, 2.0)
        amp = TwoPhotonAmplitude(kind=kind)
        with pytest.raises(bp.InputError, match="degenerate"):
            fit_theta(amp, bp.states.BELL_KINDS[kind], region, region)

    @pytest.mark.parametrize("kind", ["bell11", "bell12"])
    def test_same_cone_opposite_helicity_fit_succeeds(self, kind):
        region = DetectorRegion(Z_HAT, 2.0 * DEG, 0.5, 2.0)
        fit = fit_theta(TwoPhotonAmplitude(kind=kind), bp.states.BELL_KINDS[kind], region, region)
        assert fit.field.kind == "constant"
        assert 0.0 <= fit.residual_rel < 1e-3


class TestThetaWignerResidual:
    def test_identity_zero(self):
        th = azimuthal_field(0.3, 1.0)
        k = bp.NullMomentum(1.0, np.array([0.6, 0.0, 0.8]))
        assert theta_wigner_residual(th, bp.identity_map(), k) < 1e-14

    def test_azimuthal_unit_coeff_invariant_under_z_rotation(self):
        # rotating about z shifts the chart azimuth by chi and the Wigner
        # phase 2 Theta equals chi, so the residual cancels identically
        rng = np.random.default_rng(40)
        th = azimuthal_field(0.0, 1.0)
        f, d = rand_momenta(rng, 20)
        for i in range(20):
            chi = rng.uniform(-math.pi, math.pi)
            r = bp.rotation(chi, Z_HAT)
            assert theta_wigner_residual(th, r, bp.NullMomentum(f[i], d[i])) < 1e-10

    def test_constant_field_measures_wigner_phase(self):
        th = constant_field(1.1)
        a = bp.compose(bp.rotation(0.8, X_HAT), bp.boost(0.5, Z_HAT))
        k = bp.NullMomentum(1.3, np.array([0.0, 0.6, 0.8]))
        expected = abs(bp.wrap_angle(bp.wigner_phase(a, k)))
        assert theta_wigner_residual(th, a, k) == pytest.approx(expected, abs=1e-12)

    def test_transformed_field_zero_by_construction(self):
        rng = np.random.default_rng(41)
        base = azimuthal_field(0.2, 0.7)
        a = rand_map(rng)
        th = with_transform_field(base, a)
        f, d = rand_momenta(rng, 20)
        for i in range(20):
            assert (
                theta_wigner_residual(th, a, bp.NullMomentum(f[i], d[i])) < 1e-10
            )

    def test_transform_composition(self):
        rng = np.random.default_rng(42)
        base = constant_field(0.4)
        a, b = rand_map(rng), rand_map(rng)
        stacked = with_transform_field(with_transform_field(base, b), a)
        composed = with_transform_field(base, bp.compose(a, b))
        f, d = rand_momenta(rng, 10)
        vals_s = field_values(stacked, f, d)
        vals_c = field_values(composed, f, d)
        assert np.max(np.abs(bp.wrap_angle(vals_s - vals_c))) < 1e-8


class TestTwoPhotonNorm:
    def test_opposite_helicity_first_term(self):
        # diagonal amplitude is exactly -1, so the single integral is the
        # vacuum norm and the first term contributes 4/N
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind="bell11")
        for n in (1, 2, 3):
            val = two_photon_norm(amp, z, n)
            expected = 4.0 / n + (4.0 * (n - 1) / n) * (1.0 / 3.0)
            assert val == pytest.approx(expected, rel=1e-8)

    def test_cross_term_third_is_family_independent(self):
        # the double integral of cos^4(gamma/2) against any two isotropic
        # normalized densities is exactly 1/3
        amp = TwoPhotonAmplitude(kind="bell11")
        for fam, params in [
            ("power-exponential", {"exponent": 2.0, "scale": 0.5}),
            ("log-normal-isotropic", {"scale": 1.0, "width": 0.4}),
        ]:
            z = normalize(fam, params)
            val = two_photon_norm(amp, z, math.inf)
            assert val == pytest.approx(4.0 / 3.0, rel=1e-7)

    def test_equal_helicity_norm_closed_form(self):
        # |psi_++|^2 = (2 k.k')^2 integrates to (16/3) M2^2 per slot with
        # M2 the second frequency moment of Z; for exponent 1, scale 1,
        # M2 = 12 and the N -> infinity norm is 4*(16/3)*144 = 3072
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind="bell21")
        val_inf = two_photon_norm(amp, z, math.inf)
        assert val_inf == pytest.approx(3072.0, rel=1e-8)
        val_2 = two_photon_norm(amp, z, 2)
        assert val_2 == pytest.approx(3072.0 / 2.0, rel=1e-8)
        val_5 = two_photon_norm(amp, z, 5)
        assert val_5 == pytest.approx(3072.0 * 4.0 / 5.0, rel=1e-8)

    def test_equal_helicity_norm_has_no_first_term(self):
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind="bell21")
        # N = 1 keeps only the (vanishing) diagonal term
        assert two_photon_norm(amp, z, 1) == pytest.approx(0.0, abs=1e-10)

    def test_frequency_window_beyond_double_range_is_an_input_error(self):
        # width 13 normalizes, but its norm window ends at exp(4w^2 + 8w) > 1e308
        z = normalize("log-normal-isotropic", {"scale": 1.0, "width": 13.0})
        with pytest.raises(bp.InputError, match="beyond double range"):
            two_photon_norm(TwoPhotonAmplitude(kind="bell21"), z, 2)

    @pytest.mark.parametrize("kind", ["bell11", "bell21"])
    @pytest.mark.parametrize("width", [2.0, 3.0, 5.0, 8.0])
    def test_unresolved_wide_log_normal_is_an_input_error(self, width, kind):
        # the norm rule's vacuum mass is off by 2.3e-3 at width 2 and by
        # 1.7 at width 8; bell11 at N = 2 would return 2.66-10.5, not 8/3
        z = normalize("log-normal-isotropic", {"scale": 1.0, "width": width})
        with pytest.raises(bp.InputError, match="does not resolve the vacuum"):
            two_photon_norm(TwoPhotonAmplitude(kind=kind), z, 2)

    def test_resolved_log_normal_keeps_the_cross_term_third(self):
        z = normalize("log-normal-isotropic", {"scale": 1.0, "width": 1.0})
        val = two_photon_norm(TwoPhotonAmplitude(kind="bell11"), z, 2)
        assert val == pytest.approx(2.0 + 2.0 / 3.0, rel=1e-4)

    def test_invalid_oscillator_count(self):
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind="bell11")
        with pytest.raises(bp.InputError):
            two_photon_norm(amp, z, 0)
        with pytest.raises(bp.InputError):
            two_photon_norm(amp, z, -3)
        with pytest.raises(bp.InputError):
            two_photon_norm(amp, z, 1.5)

    def test_boolean_oscillator_count_rejected(self):
        # True == 1 in Python; the N-factor helper must not read it as N = 1
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        with pytest.raises(bp.InputError):
            oscillator_factors(True)
        with pytest.raises(bp.InputError):
            two_photon_norm(TwoPhotonAmplitude(kind="bell11"), z, True)


class TestFieldKinds:
    def test_constant(self):
        th = constant_field(0.8)
        assert field_value(th, bp.NullMomentum(2.0, X_HAT)) == 0.8

    def test_azimuthal(self):
        th = azimuthal_field(0.1, 2.0)
        k = bp.NullMomentum(1.0, np.array([0.0, 1.0, 0.0]))  # phi = pi/2
        assert field_value(th, k) == pytest.approx(0.1 + 2.0 * math.pi / 2, rel=1e-14)

    def test_tabulated_nearest_axis(self):
        th = tabulated_field(np.stack([Z_HAT, X_HAT]), np.array([0.5, -0.5]))
        near_z = bp.NullMomentum(1.0, np.array([0.1, 0.0, math.sqrt(0.99)]))
        near_x = bp.NullMomentum(1.0, np.array([math.sqrt(0.99), 0.0, 0.1]))
        assert field_value(th, near_z) == 0.5
        assert field_value(th, near_x) == -0.5

    def test_bad_kind_rejected(self):
        with pytest.raises(bp.InputError):
            bp.PolarizationAngleField(kind="quadratic")

    def test_tabulated_validation(self):
        with pytest.raises(bp.InputError):
            tabulated_field(np.array([[0.0, 0.0, 2.0]]), np.array([0.1]))

    def test_tabulated_field_needs_an_axis(self):
        with pytest.raises(bp.InputError, match="at least one axis"):
            tabulated_field(np.zeros((0, 3)), np.zeros(0))
