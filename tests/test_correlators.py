from __future__ import annotations

import copy
import dataclasses
import gc
import math
import re
import types
import warnings

import numpy as np
import pytest

import bellepr as bp
from bellepr.correlators import (
    DetectorSetting,
    Scenario,
    alice_only_case,
    bound_check,
    correlate,
    joint_case,
    prepare,
    rest_case,
    swap_roles,
)
from bellepr.errors import ChartError, InputError, PreconditionError
from bellepr.measure import DetectorRegion, QuadratureSpec, invariant_node_set
from bellepr.spinor_tetrad import map_momenta
from bellepr.states import (
    BELL_KINDS,
    PairTable,
    TwoPhotonAmplitude,
    constant_field,
    fit_theta,
    tabulated_field,
    theta_wigner_residuals,
    with_transform_field,
)
from bellepr.vacuum import evaluate_batch, normalize
from two_pictures import pictures_agree, realized_gap, vacuum_side_value

DEG = math.pi / 180.0
Z_HAT = np.array([0.0, 0.0, 1.0])
X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])

SPEC = QuadratureSpec(n_freq=6, n_polar=4, n_azimuth=8)
REGION_B = DetectorRegion(axis=Z_HAT, half_angle=2.0 * DEG, freq_lo=0.5, freq_hi=2.0)
REGION_A = DetectorRegion(axis=X_HAT, half_angle=2.0 * DEG, freq_lo=0.5, freq_hi=2.0)

AMP21 = TwoPhotonAmplitude(kind="bell21")
AMP22 = TwoPhotonAmplitude(kind="bell22")
AMP11 = TwoPhotonAmplitude(kind="bell11")
AMP12 = TwoPhotonAmplitude(kind="bell12")


@pytest.fixture(scope="module")
def z_mid():
    return normalize("power-exponential", {"exponent": 2.0, "scale": 1.0})


@pytest.fixture(scope="module")
def fit21():
    return fit_theta(AMP21, 21, REGION_B, REGION_A, spec=SPEC)


@pytest.fixture(scope="module")
def fit11():
    return fit_theta(AMP11, 11, REGION_B, REGION_A, spec=SPEC)


def make_scn(amp, z, beta, alpha, *, field=None, n_osc=math.inf, transform=None, rb=REGION_B, ra=REGION_A):
    kwargs = dict(
        amplitude=amp,
        vacuum=z,
        bob=DetectorSetting(region=rb, angle=beta),
        alice=DetectorSetting(region=ra, angle=alpha),
        n_osc=n_osc,
        theta_field=field,
        quadrature=SPEC,
    )
    if transform is not None:
        kwargs["transform"] = transform
    return Scenario(**kwargs)


def fitted_sum(fit):
    return float(fit.field.values[0] + fit.field.values[1])


def fitted_diff(fit):
    return float(fit.field.values[0] - fit.field.values[1])


# --------------------------------------------------------------------------
# input validation and operation dispatch


class TestValidation:
    def test_single_oscillator_rejected_with_vanishing_factor_message(self, z_mid):
        with pytest.raises(InputError, match=r"\(N-1\)"):
            make_scn(AMP21, z_mid, 0.1, 0.2, n_osc=1)

    def test_non_integer_oscillator_counts_rejected(self, z_mid):
        for bad in (2.5, True, "3", 0, -4):
            with pytest.raises(InputError):
                make_scn(AMP21, z_mid, 0.1, 0.2, n_osc=bad)

    def test_minimal_and_infinite_oscillator_counts_accepted(self, z_mid):
        make_scn(AMP21, z_mid, 0.1, 0.2, n_osc=2)
        make_scn(AMP21, z_mid, 0.1, 0.2, n_osc=math.inf)

    def test_overlapping_cones_rejected_pointing_to_discrete_oracle(self, z_mid):
        close = DetectorRegion(
            axis=np.array([0.05, 0.0, 1.0]) / math.sqrt(1.0025),
            half_angle=5.0 * DEG,
            freq_lo=0.5,
            freq_hi=2.0,
        )
        wide_b = DetectorRegion(axis=Z_HAT, half_angle=5.0 * DEG, freq_lo=0.5, freq_hi=2.0)
        with pytest.raises(PreconditionError, match="oracle"):
            make_scn(AMP21, z_mid, 0.1, 0.2, rb=wide_b, ra=close)

    def test_laboratory_cone_on_the_chart_cut_rejected(self, z_mid):
        on_cut = DetectorRegion(axis=-Z_HAT, half_angle=2.0 * DEG, freq_lo=0.5, freq_hi=2.0)
        with pytest.raises(ChartError, match="Bob's cone"):
            make_scn(AMP21, z_mid, 0.1, 0.2, rb=on_cut)
        with pytest.raises(ChartError, match="Alice's cone"):
            make_scn(AMP21, z_mid, 0.1, 0.2, ra=on_cut)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, 1e308])
    def test_non_finite_analyzer_angle_rejected(self, angle):
        # the correlation reads e^{2i angle}: twice the angle must be finite too
        with pytest.raises(InputError):
            DetectorSetting(region=REGION_B, angle=angle)

    @pytest.mark.parametrize("case", ["rest", "joint"])
    @pytest.mark.parametrize("arm", ["bob", "alice"])
    def test_angle_whose_difference_from_the_field_overflows_is_evaluated(self, z_mid, arm, case):
        # each is twice finite, twice their difference is not; no sum reads the
        # difference (finish reads e^{-2i angle}, prepare e^{2i(theta + W)}), so
        # the point is finite, and no warning is raised
        far = constant_field(-8e307)
        angles = {"bob": (8e307, 0.2), "alice": (0.1, 8e307)}[arm]
        transform = joint_case(bp.boost(0.5, Y_HAT)) if case == "joint" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = correlate(make_scn(AMP21, z_mid, *angles, field=far, transform=transform))
        assert math.isfinite(res.value) and math.isfinite(res.err_estimate)
        assert abs(res.value) <= 1.0 + res.err_estimate
        assert all(math.isfinite(v) for v in res.diagnostics.values())

    @pytest.mark.parametrize(
        "quad",
        [
            dataclasses.replace(SPEC, n_freq=2),
            dataclasses.replace(SPEC, n_azimuth=2),
            QuadratureSpec(mode="mc", n_samples=2),
        ],
        ids=["n_freq", "n_azimuth", "mc"],
    )
    def test_count_the_halved_rule_keeps_rejected(self, z_mid, quad):
        # err_estimate is the full-minus-halved difference: a count of 2 halves
        # to itself, so that axis's error would not reach it
        scn = make_scn(AMP21, z_mid, 0.1, 0.2)
        with pytest.raises(InputError, match="halved rule"):
            dataclasses.replace(scn, quadrature=quad)
        three = dataclasses.replace(quad, n_freq=3, n_azimuth=3, n_samples=3)
        dataclasses.replace(scn, quadrature=three)  # 3 halves to 2: accepted

    def test_transform_case_construction_guards(self):
        with pytest.raises(InputError):
            bp.TransformCase(kind="joint")
        with pytest.raises(InputError):
            bp.TransformCase(kind="rest", lorentz_map=bp.boost(0.1, Z_HAT))
        with pytest.raises(InputError):
            bp.TransformCase(kind="sideways")

    def test_swap_roles_exchanges_regions_and_angles(self, z_mid):
        scn = make_scn(AMP21, z_mid, 0.1, 0.2)
        sw = swap_roles(scn)
        assert sw.bob.angle == scn.alice.angle
        assert sw.alice.angle == scn.bob.angle
        assert np.allclose(sw.bob.region.axis, scn.alice.region.axis)


# --------------------------------------------------------------------------
# general-amplitude rest frame


class TestGeneralRest:
    def test_opposite_helicity_only_amplitude_depends_on_angle_difference(self, z_mid):
        gen = TwoPhotonAmplitude(
            kind="general",
            table={(1, -1): 0.8 + 0.1j, (-1, 1): 0.8 - 0.1j},
        )
        base = correlate(make_scn(gen, z_mid, 0.4, 0.1)).value
        for delta in (0.3, -1.1, 2.0):
            shifted = correlate(make_scn(gen, z_mid, 0.4 + delta, 0.1 + delta)).value
            assert abs(shifted - base) <= 1e-12

    def test_equal_helicity_only_amplitude_depends_on_angle_sum(self, z_mid):
        gen = TwoPhotonAmplitude(
            kind="general",
            table={(1, 1): 0.5 - 0.2j, (-1, -1): 0.5 + 0.2j},
        )
        base = correlate(make_scn(gen, z_mid, 0.4, 0.1)).value
        for delta in (0.3, -1.1, 2.0):
            shifted = correlate(
                make_scn(gen, z_mid, 0.4 + delta, 0.1 - delta)
            ).value
            assert abs(shifted - base) <= 1e-12
        moved = correlate(make_scn(gen, z_mid, 0.4 + 0.3, 0.1)).value
        assert abs(moved - base) > 1e-6

    def test_evaluation_is_deterministic(self, z_mid, fit21):
        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field)
        r1 = correlate(scn)
        r2 = correlate(scn)
        assert r1.value == r2.value
        assert r1.numerator == r2.numerator
        assert r1.denominator == r2.denominator

    def test_result_identity_and_error_estimate(self, z_mid, fit21):
        r = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field))
        assert r.value == r.numerator / r.denominator
        assert 0.0 < r.err_estimate < 0.1


# --------------------------------------------------------------------------
# Bell-kind rest frame


class TestBellRest:
    def test_matched_narrow_cones_reach_minus_one(self, z_mid, fit21):
        sigma = fitted_sum(fit21)
        scn = make_scn(AMP21, z_mid, sigma - 0.3, 0.3, field=fit21.field)
        r = correlate(scn)
        assert abs(r.value - (-1.0)) <= 5e-3
        assert bound_check(r)

    def test_angle_sum_sweep_is_a_pure_sinusoid(self, z_mid, fit21):
        sigmas = np.linspace(0.0, math.pi, 13, endpoint=False)
        vals = []
        for s in sigmas:
            r = correlate(make_scn(AMP21, z_mid, s - 0.2, 0.2, field=fit21.field))
            vals.append(r.value)
        vals = np.asarray(vals)
        basis = np.stack(
            [np.ones_like(sigmas), np.cos(2.0 * sigmas), np.sin(2.0 * sigmas)], axis=1
        )
        coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        resid = np.max(np.abs(vals - basis @ coef))
        assert resid <= 1e-4
        amp = math.hypot(coef[1], coef[2])
        assert amp > 0.9

    def test_angle_difference_sweep_is_a_pure_sinusoid(self, z_mid, fit11):
        deltas = np.linspace(0.0, math.pi, 13, endpoint=False)
        vals = []
        for d in deltas:
            r = correlate(
                make_scn(AMP11, z_mid, d + 0.2, 0.2, field=fit11.field, n_osc=5)
            )
            vals.append(r.value)
        vals = np.asarray(vals)
        basis = np.stack(
            [np.ones_like(deltas), np.cos(2.0 * deltas), np.sin(2.0 * deltas)], axis=1
        )
        coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        resid = np.max(np.abs(vals - basis @ coef))
        assert resid <= 1e-4

    def test_sum_kind_invariant_under_opposite_angle_shifts(self, z_mid, fit21):
        base = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field)).value
        for delta in (0.4, -0.9):
            moved = correlate(
                make_scn(AMP21, z_mid, 0.7 - delta, 0.2 + delta, field=fit21.field)
            ).value
            assert abs(moved - base) <= 1e-12

    def test_difference_kind_invariant_under_common_angle_shifts(self, z_mid, fit11):
        base = correlate(
            make_scn(AMP11, z_mid, 0.7, 0.2, field=fit11.field, n_osc=5)
        ).value
        for delta in (0.4, -0.9):
            moved = correlate(
                make_scn(
                    AMP11, z_mid, 0.7 + delta, 0.2 + delta, field=fit11.field, n_osc=5
                )
            ).value
            assert abs(moved - base) <= 1e-12

    def test_quarter_turn_off_the_matched_sum_crosses_zero(self, z_mid, fit21):
        sigma = fitted_sum(fit21) + math.pi / 4.0
        r = correlate(make_scn(AMP21, z_mid, sigma - 0.3, 0.3, field=fit21.field))
        assert abs(r.value) <= 2e-2

    def test_sum_kinds_share_values_with_quarter_shifted_angle_fields(self, z_mid, fit21):
        r21 = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field))
        shifted = tabulated_field(fit21.field.axes, fit21.field.values - math.pi / 4.0)
        r22 = correlate(make_scn(AMP22, z_mid, 0.7, 0.2, field=shifted))
        assert abs(r22.value - r21.value) <= 1e-12
        gap = abs(
            r22.diagnostics["specialized_value"] - r21.diagnostics["specialized_value"]
        )
        assert gap <= 1e-12

    def test_condition_residual_reported_and_moderate(self, z_mid, fit21, fit11):
        r21 = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field))
        r11 = correlate(
            make_scn(AMP11, z_mid, 0.7, 0.2, field=fit11.field, n_osc=5)
        )
        for r in (r21, r11):
            assert 0.0 < r.diagnostics["bell_residual_rel"] < 0.2
            assert r.diagnostics["bell_residual_max"] >= 0.0
            assert "specialized_gap" in r.diagnostics


# --------------------------------------------------------------------------
# oscillator-count structure


class TestOscillatorCount:
    def test_sum_kind_values_do_not_depend_on_oscillator_count(self, z_mid, fit21):
        ref = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field)).value
        for n in (2, 5, 50):
            v = correlate(
                make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, n_osc=n)
            ).value
            assert abs(v - ref) <= 1e-12

    def test_difference_kind_follows_rational_count_law(self, z_mid, fit11):
        counts = [2, 3, 5, 10, 50]
        vals = np.array(
            [
                correlate(
                    make_scn(AMP11, z_mid, 0.8, 0.1, field=fit11.field, n_osc=n)
                ).value
                for n in counts
            ]
        )
        assert np.all(vals != 0.0)
        # v(N) = -(N-1) A / (B + (N-1) C)  <=>  1/v linear in 1/(N-1)
        x = 1.0 / (np.array(counts, dtype=float) - 1.0)
        y = 1.0 / vals
        design = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = np.max(np.abs(y - design @ coef)) / np.max(np.abs(y))
        assert resid <= 1e-8
        v_inf = correlate(
            make_scn(AMP11, z_mid, 0.8, 0.1, field=fit11.field, n_osc=math.inf)
        ).value
        assert abs(1.0 / coef[1] - v_inf) <= 1e-8 * abs(v_inf)

    def test_difference_kind_magnitude_grows_with_count(self, z_mid, fit11):
        vals = [
            abs(
                correlate(
                    make_scn(AMP11, z_mid, 0.8, 0.1, field=fit11.field, n_osc=n)
                ).value
            )
            for n in (2, 3, 5, 10, 50)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestRestInvariance:
    """At rest and at N = inf, a Bell kind's frequency dependence factors out of
    the numerator and the denominator alike, so the value depends on neither
    the vacuum nor the frequency window nor the frequency rule.  At finite N
    the same-momentum term is a single sum and does not cancel."""

    VACUA = [
        ("power-exponential", {"exponent": 2.0, "scale": 1.0}),
        ("power-exponential", {"exponent": 1.0, "scale": 0.4}),
        ("log-normal-isotropic", {"scale": 1.0, "width": 0.5}),
    ]
    WINDOWS = [(0.5, 2.0), (0.1, 7.0)]

    @staticmethod
    def value(kind, z, window, n_freq, n_osc):
        bob, alice = (
            dataclasses.replace(r, freq_lo=window[0], freq_hi=window[1])
            for r in (REGION_B, REGION_A)
        )
        scn = make_scn(
            TwoPhotonAmplitude(kind=kind), z, 0.7, 0.2,
            field=constant_field(0.3), n_osc=n_osc, rb=bob, ra=alice,
        )
        scn = dataclasses.replace(scn, quadrature=dataclasses.replace(SPEC, n_freq=n_freq))
        return correlate(scn).value

    @pytest.mark.parametrize("kind", ["bell11", "bell12", "bell21", "bell22"])
    def test_value_at_infinite_count_depends_on_no_frequency_content(self, kind):
        values = [
            self.value(kind, normalize(family, params), window, n_freq, math.inf)
            for family, params in self.VACUA
            for window in self.WINDOWS
            for n_freq in (3, 6, 17)
        ]
        assert max(values) - min(values) <= 1e-14

    def test_same_momentum_term_moves_the_value_with_the_window(self):
        z = normalize(*self.VACUA[0])
        narrow, wide = (self.value("bell11", z, w, 6, 3) for w in self.WINDOWS)
        assert abs(narrow - wide) > 0.5 * abs(narrow)


# --------------------------------------------------------------------------
# both detectors transformed (case 1)


class TestJointTransform:
    def test_identity_map_matches_rest_row_for_row(self, z_mid, fit21):
        rest = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field))
        scn = make_scn(
            AMP21,
            z_mid,
            0.7,
            0.2,
            field=fit21.field,
            transform=joint_case(bp.boost(0.0, Z_HAT)),
        )
        ident = correlate(scn)
        assert abs(ident.value - rest.value) <= 4.0 * np.finfo(float).eps
        assert abs(ident.value - vacuum_side_value(scn)[0]) <= 1e-12
        assert realized_gap(scn) <= 1e-12

    @pytest.mark.parametrize("rapidity", [0.25, 1.0])
    def test_detector_and_vacuum_pictures_agree(self, z_mid, fit21, fit11, rapidity):
        m = bp.boost(rapidity, Y_HAT)
        for amp, fit, n in ((AMP21, fit21, math.inf), (AMP11, fit11, 5)):
            scn = make_scn(amp, z_mid, 0.7, 0.2, field=fit.field, n_osc=n, transform=joint_case(m))
            assert pictures_agree(scn)
            assert bound_check(correlate(scn))

    @pytest.mark.parametrize("kind", [*sorted(BELL_KINDS), "general"])
    def test_joint_row_finishes_like_a_rest_row(self, z_mid, kind, monkeypatch):
        # a row is a phase: every case's finish is arithmetic on the prepared
        # moments, contracts no table and reports the same diagnostics
        contract = PairTable.contract
        calls = []

        def spy(table, *args):
            calls.append(1)
            return contract(table, *args)

        monkeypatch.setattr(PairTable, "contract", spy)
        if kind == "general":  # both slot pairs, so both couplings' moments
            table = {(1, 1): 0.8, (-1, -1): 0.3 - 0.2j, (1, -1): 0.5j, (-1, 1): -0.4}
            amp, field = TwoPhotonAmplitude(kind="general", table=table), None
        else:
            amp, field = TwoPhotonAmplitude(kind=kind), constant_field(0.3)
        keys = []
        for transform in TRANSFORMS.values():
            scn = make_scn(amp, z_mid, 0.7, 0.2, field=field, n_osc=3, transform=transform)
            prepared = prepare(scn)
            calls.clear()
            keys.append(set(prepared.finish(scn).diagnostics))
            assert not calls, transform.kind
        assert keys[0] == keys[1] == keys[2]

    def test_invariant_pairing_kind_realizes_the_vacuum_form_exactly(self, z_mid, fit21):
        m = bp.boost(1.0, Y_HAT)
        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=joint_case(m))
        assert realized_gap(scn) <= 1e-12

    def test_chart_built_kind_reports_its_transport_defect(self, z_mid, fit11):
        m = bp.boost(1.0, Y_HAT)
        scn = make_scn(
            AMP11, z_mid, 0.7, 0.2, field=fit11.field, n_osc=5, transform=joint_case(m)
        )
        assert realized_gap(scn) > 10.0 * correlate(scn).err_estimate

    def test_rotation_onto_the_chart_cut_keeps_the_rest_value(self, z_mid, fit21):
        # the half-turn about x pulls Bob's +z cone back onto -z; the per-node
        # Wigner phase cancels the chart's winding there, so pulled-back cones
        # on the cut stay allowed
        rest = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field))
        m = bp.rotation(math.pi, X_HAT)
        joint = correlate(
            make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=joint_case(m))
        )
        assert joint.value == pytest.approx(rest.value, abs=1e-12)

    def test_axis_rotation_transports_difference_kind_values_exactly(self, z_mid, fit11):
        # rotation about the first cone's axis: the phase shift is uniform,
        # so difference-kind values at unchanged settings reproduce the rest
        # value on co-rotated cones
        phi = math.pi / 4.0
        rot = bp.rotation(phi, Z_HAT)
        ra_rot = DetectorRegion(
            axis=np.array([math.cos(phi), math.sin(phi), 0.0]),
            half_angle=2.0 * DEG,
            freq_lo=0.5,
            freq_hi=2.0,
        )
        rest = correlate(
            make_scn(AMP11, z_mid, 0.7, 0.2, field=fit11.field, n_osc=5)
        )
        moved = correlate(
            make_scn(
                AMP11,
                z_mid,
                0.7,
                0.2,
                field=fit11.field,
                n_osc=5,
                ra=ra_rot,
                transform=joint_case(rot),
            )
        )
        tol = rest.err_estimate + moved.err_estimate + 1e-7
        assert abs(moved.value - rest.value) <= tol

    def test_axis_rotation_shifts_sum_kind_settings_by_the_phase(self, z_mid, fit21):
        phi = math.pi / 4.0
        rot = bp.rotation(phi, Z_HAT)
        ra_rot = DetectorRegion(
            axis=np.array([math.cos(phi), math.sin(phi), 0.0]),
            half_angle=2.0 * DEG,
            freq_lo=0.5,
            freq_hi=2.0,
        )
        rest = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field))
        moved = correlate(
            make_scn(
                AMP21,
                z_mid,
                0.7 + phi,
                0.2 + phi,
                field=fit21.field,
                ra=ra_rot,
                transform=joint_case(rot),
            )
        )
        tol = rest.err_estimate + moved.err_estimate + 1e-7
        assert abs(moved.value - rest.value) <= tol

    def test_comoving_angle_field_satisfies_the_transport_rule(self, fit21):
        m = bp.boost(0.5, Y_HAT)
        nodes = [invariant_node_set(region, SPEC) for region in (REGION_B, REGION_A)]

        def worst(field):
            return max(theta_wigner_residuals(field, m, n.freqs, n.dirs).max() for n in nodes)

        assert worst(with_transform_field(fit21.field, m)) <= 1e-8
        assert worst(fit21.field) > 1e-3


# --------------------------------------------------------------------------
# one detector transformed (case 2)


class TestSingleArmTransform:
    def test_identity_map_matches_rest(self, z_mid, fit21):
        rest = correlate(make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field))
        ident = correlate(
            make_scn(
                AMP21,
                z_mid,
                0.7,
                0.2,
                field=fit21.field,
                transform=alice_only_case(bp.boost(0.0, Z_HAT)),
            )
        )
        assert abs(ident.value - rest.value) <= 4.0 * np.finfo(float).eps

    def test_sloped_vacuum_discriminates_which_arm_is_transformed(self, z_mid, fit11):
        # boost along the second cone's axis so one ordering reads the
        # density red-shifted and the other blue-shifted
        m = bp.boost(1.0, X_HAT)
        scn = make_scn(AMP11, z_mid, 0.7, 0.2, field=fit11.field)
        a_side = correlate(dataclasses.replace(scn, transform=alice_only_case(m)))
        b_side = correlate(
            dataclasses.replace(swap_roles(scn), transform=alice_only_case(bp.inverse(m)))
        )
        diff = abs(a_side.value - b_side.value)
        combined = a_side.err_estimate + b_side.err_estimate
        assert diff > 10.0 * combined
        assert bound_check(a_side) and bound_check(b_side)

    def test_orderings_agree_as_the_vacuum_flattens(self, fit21):
        m = bp.boost(1.0, X_HAT)
        probe_f = np.geomspace(0.18, 3.1, 64)
        probe_d = np.tile(Z_HAT, (64, 1))
        diffs, variations = [], []
        for width in (1.0, 2.0, 4.0, 8.0):
            z = normalize(
                "log-normal-isotropic", {"scale": 0.75, "width": width}
            )
            zv = evaluate_batch(z, probe_f, probe_d)
            variations.append(float(np.max(zv) / np.min(zv) - 1.0))
            scn = make_scn(AMP21, z, 0.7, 0.2, field=fit21.field)
            a_side = correlate(dataclasses.replace(scn, transform=alice_only_case(m)))
            b_side = correlate(
                dataclasses.replace(
                    swap_roles(scn), transform=alice_only_case(bp.inverse(m))
                )
            )
            diffs.append(abs(a_side.value - b_side.value))
        for d, lam in zip(diffs, variations):
            assert d <= 1e-5 * lam
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] <= 3.0 * diffs[0] * (variations[-1] / variations[0])

    def test_pulled_back_cone_overlap_rejected(self, z_mid, fit21):
        for angle in (math.pi / 2.0, -math.pi / 2.0):
            rot = bp.rotation(angle, Y_HAT)
            pulled_axis = map_momenta(bp.inverse(rot), np.ones(1), X_HAT[None])[1][0]
            if np.allclose(pulled_axis, Z_HAT, atol=1e-9):
                scn = make_scn(
                    AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=alice_only_case(rot)
                )
                for point in (correlate, prepare):  # correlate refuses it in prepare
                    with pytest.raises(PreconditionError, match="coincidence"):
                        point(scn)
                return
        raise AssertionError("no rotation sign pulled the second cone onto the first")


# --------------------------------------------------------------------------
# bound and symmetry checks


class TestBoundAndSymmetry:
    def test_bound_holds_across_kinds_counts_and_settings(self, z_mid, fit21, fit11):
        rng = np.random.default_rng(7)
        for amp, fit in ((AMP21, fit21), (AMP11, fit11), (AMP12, fit11), (AMP22, fit21)):
            for n in (2, 7, math.inf):
                beta, alpha = rng.uniform(-math.pi, math.pi, size=2)
                r = correlate(
                    make_scn(amp, z_mid, beta, alpha, field=fit.field, n_osc=n)
                )
                assert bound_check(r)
                assert r.diagnostics["den_swap_block_residual"] <= 1e-8

    def test_bound_check_rejects_synthetic_overshoot(self):
        fake = bp.CorrelationResult(
            numerator=1.5, denominator=1.0, value=1.5, err_estimate=1e-6, diagnostics={}
        )
        assert not bound_check(fake)

    def test_rest_value_invariant_under_role_swap(self, z_mid, fit21, fit11):
        for amp, fit, n in ((AMP21, fit21, math.inf), (AMP11, fit11, 4)):
            scn = make_scn(amp, z_mid, 0.7, 0.2, field=fit.field, n_osc=n)
            direct = correlate(scn).value
            swapped = correlate(swap_roles(scn)).value
            assert abs(direct - swapped) <= 1e-12


class TestTableReuse:
    def test_rest_evaluation_builds_the_bob_alice_tables_once(self, z_mid, fit21, monkeypatch):
        # each rule's Bob x Alice factors feed its sums and, at the default
        # rule, the bell_residual_max sample too; every factor table, in
        # norm_blocks and in pair_factors alike, is built by states._factors
        from bellepr import states

        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field)
        build = states._factors
        blocks = []

        def spy(amp, first, second):
            blocks.append((first.freqs, first.dirs, second.freqs, second.dirs))
            return build(amp, first, second)

        monkeypatch.setattr(states, "_factors", spy)
        result = correlate(scn)
        for spec in (SPEC, SPEC.halved()):
            bob = bp.invariant_node_set(REGION_B, spec)
            alice = bp.invariant_node_set(REGION_A, spec)
            bob_alice = [
                np.array_equal(f1, bob.freqs)
                and np.array_equal(d1, bob.dirs)
                and np.array_equal(f2, alice.freqs)
                and np.array_equal(d2, alice.dirs)
                for f1, d1, f2, d2 in blocks
            ]
            assert sum(bob_alice) == 1
        assert result.value == correlate(scn).value


class TestPointCost:
    def test_default_rule_is_the_spec_defaults(self):
        # configs, Scenario and the Bell sample all use QuadratureSpec()'s rule
        assert bp.DEFAULT_QUADRATURE == QuadratureSpec() == QuadratureSpec(6, 4, 8)

    @pytest.mark.parametrize("case", ["rest", "joint", "alice_only"])
    def test_point_builds_four_node_sets_and_evaluates_two_rules(
        self, z_mid, fit21, monkeypatch, case
    ):
        # at the default rule a point evaluates its full and halved rules,
        # each on one node set per cone, and nothing else
        from bellepr import correlators

        m = bp.boost(0.5, Y_HAT)
        transform = {"rest": rest_case(), "joint": joint_case(m), "alice_only": alice_only_case(m)}
        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=transform[case])
        assert scn.quadrature == correlators.DEFAULT_QUADRATURE
        assert self.node_sets_and_rules(scn, monkeypatch) == (4, 2)

    @pytest.mark.parametrize(
        "counts, node_sets", [((12, 8, 16), 4), ((10, 6, 12), 6)], ids=["12x8x16", "10x6x12"]
    )
    def test_point_at_another_rule_takes_the_default_rule_sample(
        self, z_mid, fit21, monkeypatch, counts, node_sets
    ):
        # the 192 x 192 bell_residual_max sample is the halved rule's own when
        # that rule is 6x4x8; any other rule adds the default rule's two node sets
        joint = joint_case(bp.boost(0.5, Y_HAT))
        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=joint)
        spec = QuadratureSpec(**dict(zip(("n_freq", "n_polar", "n_azimuth"), counts)))
        scn = dataclasses.replace(scn, quadrature=spec)
        assert self.node_sets_and_rules(scn, monkeypatch) == (node_sets, 2)

    @pytest.mark.parametrize("amp", [AMP11, AMP21])
    def test_point_builds_each_arms_spin_frames_once(self, z_mid, fit21, monkeypatch, amp):
        # norm_blocks reads one arm's frames in all its blocks, so the full
        # and halved rules build four, whose factors the residual sample reuses
        from bellepr import states

        frames, build = [], states.batch_spin_frames
        monkeypatch.setattr(
            states, "batch_spin_frames", lambda f, d: frames.append(f) or build(f, d)
        )
        joint = joint_case(bp.boost(0.5, Y_HAT))
        correlate(make_scn(amp, z_mid, 0.7, 0.2, field=fit21.field, transform=joint))
        assert len(frames) == 4

    @staticmethod
    def node_sets_and_rules(scn, monkeypatch):
        from bellepr import correlators

        node_sets, rules = [], []

        def spy(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)

            return wrapper

        node_set, evaluate = correlators.invariant_node_set, correlators._prepare_rule
        monkeypatch.setattr(correlators, "invariant_node_set", spy(node_sets, node_set))
        monkeypatch.setattr(correlators, "_prepare_rule", spy(rules, evaluate))
        correlate(scn)
        return len(node_sets), len(rules)


def result_bits(result):
    """A correlation result with every float as its exact hex form."""
    scalars = (result.numerator, result.denominator, result.value, result.err_estimate)
    diagnostics = {k: float(v).hex() for k, v in result.diagnostics.items()}
    return [float(x).hex() for x in scalars], diagnostics


def sweep_rows(scn, variable):
    """Three rows of a ``variable`` sweep from ``scn``."""
    bob, alice = scn.bob.region, scn.alice.region
    if variable == "beta":
        return [dataclasses.replace(scn, bob=DetectorSetting(bob, b)) for b in (0.0, 0.4, 1.9)]
    if variable == "alpha":
        return [dataclasses.replace(scn, alice=DetectorSetting(alice, a)) for a in (-0.3, 2.5, 0.2)]
    return [dataclasses.replace(scn, n_osc=n) for n in (2, 7, math.inf)]


BOOST = bp.boost(0.5, Y_HAT)
TRANSFORMS = {"rest": rest_case(), "joint": joint_case(BOOST), "alice_only": alice_only_case(BOOST)}


class TestPreparedSweep:
    @pytest.mark.parametrize("variable", ["beta", "alpha", "n_osc"])
    @pytest.mark.parametrize("case", ["rest", "joint", "alice_only"])
    @pytest.mark.parametrize(
        "amp, fit", [(AMP11, "fit11"), (AMP12, "fit11"), (AMP21, "fit21"), (AMP22, "fit21")]
    )
    def test_prepared_rows_equal_correlate_bit_for_bit(
        self, request, z_mid, amp, fit, case, variable
    ):
        field = request.getfixturevalue(fit).field
        scn = make_scn(amp, z_mid, 0.7, 0.2, field=field, n_osc=3, transform=TRANSFORMS[case])
        self.check(scn, variable)

    @pytest.mark.parametrize("variable", ["beta", "n_osc"])
    def test_enveloped_rows_equal_correlate_bit_for_bit(self, z_mid, fit11, variable):
        amp = TwoPhotonAmplitude(kind="bell11", envelope=lambda f, d: np.exp(-((f - 1.0) ** 2)))
        scn = make_scn(amp, z_mid, 0.7, 0.2, field=fit11.field, transform=TRANSFORMS["joint"])
        self.check(scn, variable)

    def test_rows_at_another_rule_equal_correlate_bit_for_bit(self, z_mid, fit21):
        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=TRANSFORMS["joint"])
        rule = QuadratureSpec(n_freq=12, n_polar=8, n_azimuth=16)
        self.check(dataclasses.replace(scn, quadrature=rule), "alpha")

    @pytest.mark.parametrize("counts", [(6, 4, 8), (12, 8, 16)], ids=["6x4x8", "12x8x16"])
    @pytest.mark.parametrize("case", [joint_case, alice_only_case], ids=["joint", "alice_only"])
    @pytest.mark.parametrize(
        "amp, fit", [(AMP11, "fit11"), (AMP12, "fit11"), (AMP21, "fit21"), (AMP22, "fit21")]
    )
    def test_rapidity_rows_equal_correlate_on_cold_copies_bit_for_bit(
        self, request, z_mid, amp, fit, case, counts
    ):
        # the rows of a rapidity sweep share their cones and so the node sets
        # kept on them; a deep copy of each row, made before any is evaluated,
        # meshes its own cones from scratch
        field = request.getfixturevalue(fit).field
        cones = {"rb": dataclasses.replace(REGION_B), "ra": dataclasses.replace(REGION_A)}
        scn = make_scn(amp, z_mid, 0.7, 0.2, field=field, **cones)
        spec = QuadratureSpec(**dict(zip(("n_freq", "n_polar", "n_azimuth"), counts)))
        rows = [
            dataclasses.replace(scn, quadrature=spec, transform=case(bp.boost(r, Y_HAT)))
            for r in (0.2, 0.5, 0.8)
        ]
        cold = [copy.deepcopy(row) for row in rows]
        assert not any(row.bob.region._node_sets or row.alice.region._node_sets for row in cold)
        warm = [result_bits(correlate(row)) for row in rows]
        assert warm == [result_bits(correlate(row)) for row in cold]

    @staticmethod
    def check(scn, variable):
        prepared = prepare(scn)
        for row in sweep_rows(scn, variable):
            assert result_bits(prepared.finish(row)) == result_bits(correlate(row))

    def test_any_row_is_finished_as_correlate_finishes_it(self, z_mid, fit21, monkeypatch):
        # a row that changes only the angles and N is finished from the
        # preparation; any other row is prepared once more, and refused where
        # correlate refuses it
        from bellepr import correlators

        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=TRANSFORMS["joint"])
        prepared, prepares, real = prepare(scn), [], correlators.prepare
        monkeypatch.setattr(correlators, "prepare", lambda s: prepares.append(s) or real(s))

        def finish(row):
            """prepared.finish(row) as bits, and the prepares it ran."""
            before = len(prepares)
            return result_bits(prepared.finish(row)), len(prepares) - before

        row = dataclasses.replace(
            scn, bob=DetectorSetting(REGION_B, 1.1), alice=DetectorSetting(REGION_A, -0.4), n_osc=5
        )
        assert finish(row) == (result_bits(correlate(row)), 0)
        longer = dataclasses.replace(REGION_B, freq_hi=3.0)
        wider = dataclasses.replace(REGION_A, half_angle=3.0 * DEG)
        others = {
            "amplitude": dict(amplitude=AMP22),
            "vacuum": dict(vacuum=normalize("power-exponential", {"exponent": 3.0, "scale": 1.0})),
            "bob region": dict(bob=DetectorSetting(longer, 0.7)),
            "alice region": dict(alice=DetectorSetting(wider, 0.2)),
            "map": dict(transform=joint_case(bp.boost(0.6, Y_HAT))),
            "case": dict(transform=alice_only_case(BOOST)),
            "rule": dict(quadrature=QuadratureSpec(n_freq=4, n_polar=4, n_azimuth=8)),
            "field": dict(theta_field=constant_field(0.1)),
        }
        for name, change in others.items():
            other = dataclasses.replace(row, **change)
            assert finish(other) == (result_bits(correlate(other)), 1), name
        # this rotation pulls Alice's cone onto Bob's: prepare refuses the row
        overlap = alice_only_case(bp.rotation(math.pi / 2, Y_HAT))
        overlap = dataclasses.replace(row, transform=overlap)
        with pytest.raises(PreconditionError, match="pulled-back") as refused:
            correlate(overlap)
        before = len(prepares)
        with pytest.raises(PreconditionError, match=re.escape(str(refused.value))):
            prepared.finish(overlap)
        assert len(prepares) == before + 1

    def test_angles_whose_sum_overflows_keep_the_value(self, z_mid):
        # twice each angle is finite and twice their sum is not: the phase
        # e^{-2i beta} e^{-2i alpha} is taken apart, so no exp sees inf.  The
        # cones are bell21_rest_sweep's; 0.9713031202473711 is the value of
        # bellepr 0.17.0, whose weights carried the per-node phases
        rb, ra = (dataclasses.replace(r, half_angle=0.0349) for r in (REGION_B, REGION_A))
        scn = make_scn(AMP21, z_mid, 8e307, 8e307, rb=rb, ra=ra)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = correlate(scn)
        assert math.isfinite(result.value) and math.isfinite(result.err_estimate)
        assert result.value == pytest.approx(0.9713031202473711, rel=1e-12)

    @pytest.mark.parametrize("case", sorted(TRANSFORMS))
    def test_preparation_holds_no_node_sized_array(self, z_mid, fit21, case):
        # a preparation keeps scalar moments and the 2 x 2 norm blocks; the
        # scenario's own objects are the caller's, held by reference
        scn = make_scn(AMP21, z_mid, 0.7, 0.2, field=fit21.field, transform=TRANSFORMS[case])
        rule = QuadratureSpec(n_freq=12, n_polar=8, n_azimuth=16)
        prepared = prepare(dataclasses.replace(scn, quadrature=rule))
        seen = set()
        reachable_arrays(prepared.scenario, seen)
        held = reachable_arrays(prepared, seen)
        assert any(a.shape == (2, 2) for a in held)
        assert max(a.size for a in held) <= 4


def reachable_arrays(root, seen):
    """The numpy arrays reachable from ``root`` through object references,
    leaving out classes, modules, functions and the objects in ``seen``,
    which the walk extends with everything it visits."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    stack, found = [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found
