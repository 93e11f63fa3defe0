from __future__ import annotations

import math

import numpy as np
import pytest

import bellepr as bp
from bellepr.measure import QuadratureSpec, full_sphere_region, invariant_node_set
from bellepr.vacuum import (
    evaluate,
    evaluate_batch,
    normalize,
    with_transform,
)

Z_HAT = np.array([0.0, 0.0, 1.0])


def closed_form_norm_power_exp(p: float, scale: float) -> float:
    return 4.0 * math.pi**2 / (math.gamma(p + 2) * scale ** (p + 2))


def closed_form_norm_log_normal(scale: float, width: float) -> float:
    return 4.0 * math.pi**2 / (
        scale**2 * math.sqrt(2.0 * math.pi) * width * math.exp(2.0 * width**2)
    )


class TestNormalization:
    def test_power_exp_unit_params(self):
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        assert z.norm_const == pytest.approx(2.0 * math.pi**2, rel=1e-8)

    def test_power_exp_p2_half_scale(self):
        z = normalize("power-exponential", {"exponent": 2.0, "scale": 0.5})
        expected = 4.0 * math.pi**2 / (math.gamma(4.0) * 0.5**4)
        assert z.norm_const == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "p,scale", [(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 2.0)]
    )
    def test_power_exp_closed_form_family(self, p, scale):
        z = normalize("power-exponential", {"exponent": p, "scale": scale})
        assert z.norm_const == pytest.approx(
            closed_form_norm_power_exp(p, scale), rel=1e-8
        )

    @pytest.mark.parametrize("scale,width", [(1.0, 0.5), (0.8, 0.3), (2.0, 0.6)])
    def test_log_normal_closed_form_family(self, scale, width):
        z = normalize("log-normal-isotropic", {"scale": scale, "width": width})
        assert z.norm_const == pytest.approx(
            closed_form_norm_log_normal(scale, width), rel=1e-8
        )

    def test_unit_norm_by_quadrature(self):
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        nodes = invariant_node_set(
            full_sphere_region(), QuadratureSpec(n_freq=20, n_polar=2, n_azimuth=2)
        )
        mass = float(np.sum(nodes.weights * evaluate_batch(z, nodes.freqs, nodes.dirs)))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_invalid_params_rejected(self):
        with pytest.raises(bp.InputError):
            normalize("power-exponential", {"exponent": 0.5, "scale": 1.0})
        with pytest.raises(bp.InputError):
            normalize("power-exponential", {"exponent": 1.0, "scale": -1.0})
        with pytest.raises(bp.InputError):
            normalize("log-normal-isotropic", {"scale": 1.0, "width": 0.0})
        with pytest.raises(bp.InputError):
            normalize("unknown-family", {})
        with pytest.raises(bp.InputError):
            normalize("power-exponential", {"exponent": 1.0})


class TestEvaluate:
    def test_family_formula_value(self):
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        k = bp.NullMomentum(1.3, Z_HAT)
        assert evaluate(z, k) == pytest.approx(
            z.norm_const * 1.3 * math.exp(-1.3), rel=1e-12
        )

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        for fam, params in [
            ("power-exponential", {"exponent": 2.0, "scale": 0.8}),
            ("log-normal-isotropic", {"scale": 1.0, "width": 0.4}),
        ]:
            z = normalize(fam, params)
            freqs = rng.uniform(0.01, 20.0, size=500)
            dirs = rng.normal(size=(500, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            assert np.all(evaluate_batch(z, freqs, dirs) >= 0.0)

    def test_isotropy(self):
        z = normalize("log-normal-isotropic", {"scale": 1.0, "width": 0.5})
        k1 = bp.NullMomentum(0.9, Z_HAT)
        k2 = bp.NullMomentum(0.9, np.array([1.0, 0.0, 0.0]))
        assert evaluate(z, k1) == pytest.approx(evaluate(z, k2), rel=1e-14)

    def test_zero_limit_p2(self):
        # with exponent >= 2 the origin suppression beats 1e-6 of the peak
        # for frequencies below scale*1e-4
        scale = 1.0
        z = normalize("power-exponential", {"exponent": 2.0, "scale": scale})
        zmax = z.norm_const * (2.0 * scale) ** 2 * math.exp(-2.0)
        eps = scale * 1e-4
        assert evaluate(z, bp.NullMomentum(eps, Z_HAT)) < 1e-6 * zmax

    def test_zero_limit_p1_qualitative(self):
        # exponent 1 still vanishes linearly at the origin (ratio ~ e*eps)
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        zmax = z.norm_const * math.exp(-1.0)
        v4 = evaluate(z, bp.NullMomentum(1e-4, Z_HAT))
        v5 = evaluate(z, bp.NullMomentum(1e-5, Z_HAT))
        assert v4 < 1e-3 * zmax
        assert v5 == pytest.approx(v4 / 10.0, rel=1e-3)

    def test_decay_at_infinity(self):
        for fam, params in [
            ("power-exponential", {"exponent": 1.0, "scale": 1.0}),
            ("log-normal-isotropic", {"scale": 1.0, "width": 0.4}),
        ]:
            z = normalize(fam, params)
            peak = max(
                evaluate(z, bp.NullMomentum(w, Z_HAT)) for w in np.linspace(0.1, 5, 50)
            )
            assert evaluate(z, bp.NullMomentum(60.0, Z_HAT)) < 1e-10 * peak


class TestWithTransform:
    def test_identity_map_identical(self):
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        zt = with_transform(z, bp.identity_map())
        k = bp.NullMomentum(0.7, np.array([0.6, 0.0, 0.8]))
        assert evaluate(zt, k) == pytest.approx(evaluate(z, k), rel=1e-14)

    def test_boost_along_axis_doppler(self):
        eta = 0.6
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        zt = with_transform(z, bp.boost(eta, Z_HAT))
        w = 1.1
        expected = evaluate(z, bp.NullMomentum(math.exp(-eta) * w, Z_HAT))
        assert evaluate(zt, bp.NullMomentum(w, Z_HAT)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_inverse_composition_restores(self):
        z = normalize("log-normal-isotropic", {"scale": 1.0, "width": 0.5})
        lam = bp.compose(bp.boost(0.8, [1, 0, 0]), bp.rotation(0.9, [0, 1, 0]))
        zt = with_transform(with_transform(z, lam), bp.inverse(lam))
        rng = np.random.default_rng(6)
        freqs = rng.uniform(0.2, 3.0, size=50)
        dirs = rng.normal(size=(50, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        a = evaluate_batch(z, freqs, dirs)
        b = evaluate_batch(zt, freqs, dirs)
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(a)

    def test_rotation_leaves_isotropic_unchanged(self):
        z = normalize("power-exponential", {"exponent": 2.0, "scale": 0.7})
        zt = with_transform(z, bp.rotation(1.3, [1, 1, 1] / np.sqrt(3)))
        k = bp.NullMomentum(0.9, np.array([0.0, 0.8, 0.6]))
        assert evaluate(zt, k) == pytest.approx(evaluate(z, k), rel=1e-12)

    def test_transformed_norm_still_unity(self):
        # the slowest decay direction has Doppler-stretched scale e^eta, so
        # the radial map scale must cover it
        z = normalize("power-exponential", {"exponent": 1.0, "scale": 1.0})
        zt = with_transform(z, bp.boost(1.0, Z_HAT))
        nodes = invariant_node_set(
            full_sphere_region(),
            QuadratureSpec(n_freq=24, n_polar=40, n_azimuth=4, radial_scale=math.e),
        )
        mass = float(np.sum(nodes.weights * evaluate_batch(zt, nodes.freqs, nodes.dirs)))
        assert mass == pytest.approx(1.0, abs=1e-6)
