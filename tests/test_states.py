from __future__ import annotations

import math

import numpy as np
import pytest

import bellepr as bp
from bellepr.measure import DetectorRegion, QuadratureSpec, full_sphere_region, invariant_node_set
from bellepr.states import (
    TwoPhotonAmplitude,
    amplitude_pair_tables,
    azimuthal_field,
    condition_residuals,
    constant_field,
    covariance_residuals,
    field_values,
    fit_theta,
    norm_blocks,
    norm_total,
    oscillator_factors,
    pair_factors,
    symmetry_residuals,
    tabulated_field,
    theta_wigner_residual,
    with_transform_field,
)
from bellepr.vacuum import evaluate_batch, normalize

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


def paired_tables(amp, f1, d1, f2, d2):
    """Slot values at the pairs (k_i, k'_i): the diagonals of the pair tables."""
    tables = amplitude_pair_tables(amp, f1, d1, f2, d2)
    return {slot: np.diagonal(table) for slot, table in tables.items()}


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
        diag = paired_tables(TwoPhotonAmplitude(kind="bell11"), f, d, f, d)
        assert diag[(1, -1)] == pytest.approx(-1.0, abs=1e-12)
        assert diag[(-1, 1)] == pytest.approx(-1.0, abs=1e-12)

    def test_equal_helicity_diagonal_vanishes(self):
        k = bp.NullMomentum(1.4, np.array([0.6, 0.0, 0.8]))
        tables = amplitude_pair_tables(TwoPhotonAmplitude(kind="bell21"), *k.as_batch, *k.as_batch)
        assert tables[(1, 1)][0, 0] == 0.0
        assert tables[(-1, -1)][0, 0] == 0.0

    def test_frozen_z_x_values(self):
        # hand-derived from the chart closed forms at omega = omega' = 1
        zx = (*bp.NullMomentum(1.0, Z_HAT).as_batch, *bp.NullMomentum(1.0, X_HAT).as_batch)
        t11 = amplitude_pair_tables(TwoPhotonAmplitude(kind="bell11"), *zx)
        t21 = amplitude_pair_tables(TwoPhotonAmplitude(kind="bell21"), *zx)
        assert t11[(1, -1)][0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert t21[(1, 1)][0, 0] == pytest.approx(2.0, abs=1e-13)

    def test_magnitude_laws(self):
        rng = np.random.default_rng(32)
        f, d = rand_momenta(rng, 200)
        f2, d2 = rand_momenta(rng, 200)
        t11 = paired_tables(TwoPhotonAmplitude(kind="bell11"), f, d, f2, d2)
        t21 = paired_tables(TwoPhotonAmplitude(kind="bell21"), f, d, f2, d2)
        cosg = np.sum(d * d2, axis=1)
        assert np.max(np.abs(np.abs(t11[(1, -1)]) - (1 + cosg) / 2)) < 1e-12
        two_kk = 2 * f * f2 * (1 - cosg)
        assert np.max(np.abs(np.abs(t21[(1, 1)]) - two_kk)) < 1e-11

    def test_inactive_slots_exactly_zero(self):
        # a slot outside the kind's support is absent from the tables, which
        # every consumer reads as an exact zero
        zx = (*bp.NullMomentum(1.0, Z_HAT).as_batch, *bp.NullMomentum(1.0, X_HAT).as_batch)
        assert set(amplitude_pair_tables(TwoPhotonAmplitude(kind="bell11"), *zx)) == {
            (1, -1),
            (-1, 1),
        }
        assert set(amplitude_pair_tables(TwoPhotonAmplitude(kind="bell21"), *zx)) == {
            (1, 1),
            (-1, -1),
        }

    def test_envelope_multiplies_product_form(self):
        env = lambda freqs, dirs: freqs**2
        pair = (*bp.NullMomentum(1.3, Z_HAT).as_batch, *bp.NullMomentum(0.7, X_HAT).as_batch)
        bare = amplitude_pair_tables(TwoPhotonAmplitude(kind="bell11"), *pair)[(1, -1)][0, 0]
        dressed = amplitude_pair_tables(
            TwoPhotonAmplitude(kind="bell11", envelope=env), *pair
        )[(1, -1)][0, 0]
        assert dressed == pytest.approx(bare * (1.3**2) * (0.7**2), rel=1e-13)

    def test_condition_variants_share_tables(self):
        # Each kind pair carries one table; the variants differ only in which
        # phase condition their angle field satisfies, not in the amplitudes.
        pair = (
            *bp.NullMomentum(1.1, np.array([0.0, 0.6, 0.8])).as_batch,
            *bp.NullMomentum(0.9, np.array([0.8, 0.0, 0.6])).as_batch,
        )
        tables = {
            kind: amplitude_pair_tables(TwoPhotonAmplitude(kind=kind), *pair)
            for kind in ("bell11", "bell12", "bell21", "bell22")
        }
        for s, sp in ((1, -1), (-1, 1)):
            assert tables["bell12"][(s, sp)][0, 0] == tables["bell11"][(s, sp)][0, 0]
        for s, sp in ((1, 1), (-1, -1)):
            assert tables["bell22"][(s, sp)][0, 0] == tables["bell21"][(s, sp)][0, 0]

    def test_conjugate_slot_structure(self):
        rng = np.random.default_rng(33)
        f, d = rand_momenta(rng, 50)
        f2, d2 = rand_momenta(rng, 50)
        t11 = paired_tables(TwoPhotonAmplitude(kind="bell11"), f, d, f2, d2)
        t21 = paired_tables(TwoPhotonAmplitude(kind="bell21"), f, d, f2, d2)
        assert np.max(np.abs(t11[(-1, 1)] - np.conj(t11[(1, -1)]))) < 1e-12
        assert np.max(np.abs(t21[(-1, -1)] - np.conj(t21[(1, 1)]))) < 1e-11


class TestGeneralBatchEvaluators:
    def test_momentum_dependent_evaluators_match_per_pair_values(self):
        rng = np.random.default_rng(38)
        f1, d1 = rand_momenta(rng, 6)
        f2, d2 = rand_momenta(rng, 6)
        shapes = []

        def factor(fn):
            def call(freqs, dirs):
                shapes.append((freqs.shape, dirs.shape))
                return fn(freqs, dirs)

            return call

        # f1 f2 (1 + 0.5i) at rank 1 and d1z - 2i d2x at rank 2
        amp = TwoPhotonAmplitude(
            kind="general",
            table={
                (1, 1): (
                    factor(lambda f, d: (f * (1 + 0.5j))[:, None]),
                    factor(lambda f, d: f[:, None]),
                ),
                (1, -1): (
                    factor(lambda f, d: np.stack([d[:, 2], np.ones_like(f)], axis=1)),
                    factor(lambda f, d: np.stack([np.ones_like(f), -2.0j * d[:, 0]], axis=1)),
                ),
            },
            envelope=lambda freqs, dirs: np.exp(-freqs) * (1.0 + dirs[:, 1]),
        )
        outer = amplitude_pair_tables(amp, f1, d1, f2, d2)
        # each factor function is called once per batch, like the envelope
        assert shapes == [((6,), (6, 3))] * 4
        assert set(outer) == {(1, 1), (1, -1)}
        for (s, sp), table in outer.items():
            assert table.shape == (6, 6)
            for i in range(6):
                for j in range(6):
                    single = amplitude_pair_tables(
                        amp, f1[i : i + 1], d1[i : i + 1], f2[j : j + 1], d2[j : j + 1]
                    )
                    assert table[i, j] == single[(s, sp)][0, 0]


class TestSymmetry:
    @pytest.mark.parametrize("kind", ["bell11", "bell12", "bell21", "bell22"])
    def test_bell_kinds_symmetric_1000_pairs(self, kind):
        rng = np.random.default_rng(34)
        f1, d1 = rand_momenta(rng, 1000)
        f2, d2 = rand_momenta(rng, 1000)
        amp = TwoPhotonAmplitude(kind=kind)
        fwd = paired_tables(amp, f1, d1, f2, d2)
        rev = paired_tables(amp, f2, d2, f1, d1)
        worst = 0.0
        for (s, sp), vals in fwd.items():
            worst = max(worst, float(np.max(np.abs(vals - rev[(sp, s)]))))
        assert worst < 1e-10

    def test_scalar_symmetry_residual_small(self):
        rng = np.random.default_rng(35)
        f, d = rand_momenta(rng, 2)
        for kind in ("bell11", "bell21"):
            amp = TwoPhotonAmplitude(kind=kind)
            assert symmetry_residuals(amp, f[:1], d[:1], f[1:], d[1:])[0, 0] < 1e-10

    def test_injected_asymmetry_reported(self):
        eps = 0.37

        # psi_-+ = 1 + eps breaks psi_mp(k,k') == psi_pm(k',k)
        amp = TwoPhotonAmplitude(kind="general", table={(1, -1): 1.0 + 0.0j, (-1, 1): 1.0 + eps})
        pair = (*bp.NullMomentum(1.0, Z_HAT).as_batch, *bp.NullMomentum(2.0, X_HAT).as_batch)
        assert symmetry_residuals(amp, *pair)[0, 0] == pytest.approx(eps, rel=1e-12)

    def test_diagonal_pair_symmetric(self):
        k = bp.NullMomentum(1.2, np.array([0.6, 0.0, 0.8]))
        for kind in ("bell11", "bell21"):
            res = symmetry_residuals(TwoPhotonAmplitude(kind=kind), *k.as_batch, *k.as_batch)
            assert res[0, 0] < 1e-12


class TestCovariance:
    def test_identity_map_zero(self):
        pair = (*bp.NullMomentum(1.0, Z_HAT).as_batch, *bp.NullMomentum(1.5, X_HAT).as_batch)
        for kind in ("bell11", "bell12", "bell21", "bell22"):
            amp = TwoPhotonAmplitude(kind=kind)
            assert covariance_residuals(amp, bp.identity_map(), *pair)[0, 0] < 1e-12

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
                res = covariance_residuals(amp, r, f[:1], d[:1], f[1:], d[1:])
            except bp.ChartError:
                continue
            assert res[0, 0] < 1e-8
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
                res = covariance_residuals(amp, a, f[:1], d[:1], f[1:], d[1:])
            except bp.ChartError:
                continue
            assert res[0, 0] < 1e-8
            done += 1

    def test_boost_rapidity_half_equal_helicity(self):
        amp = TwoPhotonAmplitude(kind="bell21")
        b = bp.boost(0.5, np.array([0.0, 0.6, 0.8]))
        pair = (
            *bp.NullMomentum(1.2, X_HAT).as_batch,
            *bp.NullMomentum(0.8, np.array([0.0, 1.0, 0.0])).as_batch,
        )
        assert covariance_residuals(amp, b, *pair)[0, 0] < 1e-8

    def test_opposite_helicity_boost_defect_documented(self):
        # the chart's m leg carries a k-collinear gauge defect under boosts,
        # so the opposite-helicity amplitudes transform exactly only under
        # rotations; a generic boost leaves a finite residual
        amp = TwoPhotonAmplitude(kind="bell11")
        b = bp.boost(0.7, Z_HAT)
        pair = (
            *bp.NullMomentum(1.0, X_HAT).as_batch,
            *bp.NullMomentum(1.0, np.array([0.0, 1.0, 0.0])).as_batch,
        )
        assert covariance_residuals(amp, b, *pair)[0, 0] > 1e-3


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
        pol_a, az_a = rng.uniform(0, 0.3, 20), rng.uniform(0, 2 * math.pi, 20)
        pol_b, az_b = rng.uniform(0, 0.3, 20), rng.uniform(0, 2 * math.pi, 20)
        f, f2 = rng.uniform(0.5, 2.0, 20), rng.uniform(0.5, 2.0, 20)
        d = np.stack(
            [np.sin(pol_a) * np.cos(az_a), np.sin(pol_a) * np.sin(az_a), np.cos(pol_a)], axis=1
        )
        d2 = np.stack(
            [np.cos(pol_b), np.sin(pol_b) * np.cos(az_b), np.sin(pol_b) * np.sin(az_b)], axis=1
        )
        r11, r12 = (
            condition_residuals(
                condition,
                pair_factors(amp, f, d, f2, d2),
                field_values(theta, f, d),
                field_values(theta, f2, d2),
            )
            for condition, amp, theta in ((11, amp11, th11), (12, amp12, th12))
        )
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
        r21, r22 = (
            condition_residuals(
                condition,
                pair_factors(amp, f, d, f2, d2),
                field_values(theta, f, d),
                field_values(theta, f2, d2),
            )
            for condition, amp, theta in ((21, amp21, th21), (22, amp22, th22))
        )
        assert r22 == pytest.approx(r21, abs=1e-12)

    def test_mismatched_theta_order_psi(self):
        k = bp.NullMomentum(1.0, np.array([math.sin(0.05), 0.0, math.cos(0.05)]))
        kp = bp.NullMomentum(1.0, np.array([-math.sin(0.05), 0.0, math.cos(0.05)]))
        amp = TwoPhotonAmplitude(kind="bell11")
        tables = pair_factors(amp, *k.as_batch, *kp.as_batch)
        # theta difference 0 leaves the two terms adding in phase: defect ~ 2|psi|
        bad = np.zeros(1)
        plus = tables[(1, -1)]
        psi = abs((plus.a @ plus.b.T)[0, 0])
        assert condition_residuals(11, tables, bad, bad)[0, 0] > 1.9 * psi

    def test_diagonal_inconsistency_of_condition_11(self):
        # at k = k' both slots equal -1, so no angle assignment can cancel
        # them: the defect is exactly 2 whenever theta is a single field value
        k = bp.NullMomentum(1.0, np.array([0.6, 0.0, 0.8]))
        amp = TwoPhotonAmplitude(kind="bell11")
        tables = pair_factors(amp, *k.as_batch, *k.as_batch)
        theta = field_values(constant_field(0.7), *k.as_batch)
        assert condition_residuals(11, tables, theta, theta)[0, 0] == pytest.approx(2.0, abs=1e-12)

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

    def test_overflowing_amplitude_is_a_precondition_not_a_perfect_fit(self):
        # f**400 overflows the weighted slot sums: the fitted angle would be
        # NaN, which no angle field takes; f**200 stays finite and fits normally
        ra = DetectorRegion(Z_HAT, 0.1, 0.5, 2.0)
        rb = DetectorRegion(X_HAT, 0.1, 0.5, 2.0)
        spec = QuadratureSpec(n_freq=4, n_polar=2, n_azimuth=4)

        def fit(p):
            return fit_theta(TwoPhotonAmplitude("bell21", lambda f, d: f**p), 21, ra, rb, spec)

        assert fit(200).residual_rel == pytest.approx(0.157, abs=1e-3)
        with pytest.raises(bp.PreconditionError, match="not finite on the fit's nodes"):
            fit(400)


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


def full_sphere_norm(amp, z, n_osc):
    """The squared norm over all momenta: norm_blocks and norm_total on one
    full-sphere arm, frequency-capped where the vacuum weight has decayed to
    double-precision zero, with log-spaced frequencies for log-normal vacua."""
    params = dict(z.params)
    if z.family == "power-exponential":
        region = full_sphere_region(0.0, params["scale"] * (60.0 + 10.0 * params["exponent"]))
        radial_map = "linear"
    else:
        w = params["width"]
        region = full_sphere_region(
            params["scale"] * math.exp(-8.0 * w * w - 8.0 * w),
            params["scale"] * math.exp(4.0 * w * w + 8.0 * w),
        )
        radial_map = "log"
    spec = QuadratureSpec(n_freq=32, n_polar=8, n_azimuth=8, radial_map=radial_map)
    nodes = invariant_node_set(region, spec)
    u = nodes.weights * evaluate_batch(z, nodes.freqs, nodes.dirs)
    diag, blocks, _ = norm_blocks(amp, [(nodes.freqs, nodes.dirs, u)])
    return norm_total(diag, blocks, n_osc)


class TestTwoPhotonNorm:
    def test_opposite_helicity_first_term(self):
        # diagonal amplitude is exactly -1, so the single integral is the
        # vacuum norm and the first term contributes 4/N
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind="bell11")
        for n in (1, 2, 3):
            val = full_sphere_norm(amp, z, n)
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
            val = full_sphere_norm(amp, z, math.inf)
            assert val == pytest.approx(4.0 / 3.0, rel=1e-7)

    def test_equal_helicity_norm_closed_form(self):
        # |psi_++|^2 = (2 k.k')^2 integrates to (16/3) M2^2 per slot with
        # M2 the second frequency moment of Z; for exponent 1, scale 1,
        # M2 = 12 and the N -> infinity norm is 4*(16/3)*144 = 3072
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind="bell21")
        val_inf = full_sphere_norm(amp, z, math.inf)
        assert val_inf == pytest.approx(3072.0, rel=1e-8)
        val_2 = full_sphere_norm(amp, z, 2)
        assert val_2 == pytest.approx(3072.0 / 2.0, rel=1e-8)
        val_5 = full_sphere_norm(amp, z, 5)
        assert val_5 == pytest.approx(3072.0 * 4.0 / 5.0, rel=1e-8)

    def test_equal_helicity_norm_has_no_first_term(self):
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind="bell21")
        # N = 1 keeps only the (vanishing) diagonal term
        assert full_sphere_norm(amp, z, 1) == pytest.approx(0.0, abs=1e-10)

    def test_resolved_log_normal_keeps_the_cross_term_third(self):
        z = normalize("log-normal-isotropic", {"scale": 1.0, "width": 1.0})
        val = full_sphere_norm(TwoPhotonAmplitude(kind="bell11"), z, 2)
        assert val == pytest.approx(2.0 + 2.0 / 3.0, rel=1e-4)

    def test_invalid_oscillator_count(self):
        blocks = np.ones((1, 1))
        for n_osc in (0, -3, 1.5):
            with pytest.raises(bp.InputError):
                oscillator_factors(n_osc)
            with pytest.raises(bp.InputError):
                norm_total(1.0, blocks, n_osc)

    def test_boolean_oscillator_count_rejected(self):
        # True == 1 in Python; the N-factor helper must not read it as N = 1
        with pytest.raises(bp.InputError):
            oscillator_factors(True)
        with pytest.raises(bp.InputError):
            norm_total(1.0, np.ones((1, 1)), True)

    @pytest.mark.parametrize("kind", ["bell11", "bell12", "bell21", "bell22"])
    def test_arms_that_partition_the_sphere_give_the_full_sphere_norm(self, kind):
        # the +x and -x hemispheres on the full-sphere rule's frequency nodes:
        # their self blocks, both cross blocks and both diagonals add up to
        # the one-arm norm over all momenta (bell21/22 at N = 1 is zero)
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        amp = TwoPhotonAmplitude(kind=kind)
        spec = QuadratureSpec(n_freq=32, n_polar=8, n_azimuth=8)
        arms = []
        for axis in ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]):
            nodes = invariant_node_set(DetectorRegion(np.array(axis), math.pi / 2, 0.0, 70.0), spec)
            u = nodes.weights * evaluate_batch(z, nodes.freqs, nodes.dirs)
            arms.append((nodes.freqs, nodes.dirs, u))
        diag, blocks, _ = norm_blocks(amp, arms)
        assert blocks.shape == (2, 2)
        for n_osc in (1, 2, 3, math.inf):
            assert norm_total(diag, blocks, n_osc) == pytest.approx(
                full_sphere_norm(amp, z, n_osc), rel=1e-12, abs=1e-10
            )


class TestFieldKinds:
    def test_constant(self):
        th = constant_field(0.8)
        assert field_values(th, *bp.NullMomentum(2.0, X_HAT).as_batch)[0] == 0.8

    def test_azimuthal(self):
        th = azimuthal_field(0.1, 2.0)
        k = bp.NullMomentum(1.0, np.array([0.0, 1.0, 0.0]))  # phi = pi/2
        assert field_values(th, *k.as_batch)[0] == pytest.approx(
            0.1 + 2.0 * math.pi / 2, rel=1e-14
        )

    def test_tabulated_nearest_axis(self):
        th = tabulated_field(np.stack([Z_HAT, X_HAT]), np.array([0.5, -0.5]))
        near_z_x = np.array([[0.1, 0.0, math.sqrt(0.99)], [math.sqrt(0.99), 0.0, 0.1]])
        assert field_values(th, np.ones(2), near_z_x).tolist() == [0.5, -0.5]

    def test_bad_kind_rejected(self):
        with pytest.raises(bp.InputError):
            bp.PolarizationAngleField(kind="quadratic")

    def test_tabulated_validation(self):
        with pytest.raises(bp.InputError):
            tabulated_field(np.array([[0.0, 0.0, 2.0]]), np.array([0.1]))

    def test_tabulated_field_needs_an_axis(self):
        with pytest.raises(bp.InputError, match="at least one axis"):
            tabulated_field(np.zeros((0, 3)), np.zeros(0))
