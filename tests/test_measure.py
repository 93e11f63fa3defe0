from __future__ import annotations

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellepr as bp
from bellepr import measure
from bellepr.measure import (
    DetectorRegion,
    QuadratureSpec,
    full_sphere_region,
    invariant_node_set,
    map_nodes,
    mapped_bounding_region,
    region_measure,
    regions_disjoint,
)

Z_AXIS = np.array([0.0, 0.0, 1.0])


def integrate(f, nodes) -> complex:
    """Sum of f over a node set, weighted by its invariant-measure weights."""
    return complex(np.sum(f(nodes.freqs, nodes.dirs) * nodes.weights))


class TestRegionValidation:
    def test_rejects_non_unit_axis(self):
        with pytest.raises(bp.InputError):
            DetectorRegion(np.array([0.0, 0.0, 2.0]), 0.1, 1.0, 2.0)

    def test_rejects_bad_window(self):
        with pytest.raises(bp.InputError):
            DetectorRegion(Z_AXIS, 0.1, 2.0, 1.0)

    def test_rejects_bad_angle(self):
        with pytest.raises(bp.InputError):
            DetectorRegion(Z_AXIS, 0.0, 1.0, 2.0)
        with pytest.raises(bp.InputError):
            DetectorRegion(Z_AXIS, 3.2, 1.0, 2.0)

    def test_semi_infinite_requires_zero_lo(self):
        with pytest.raises(bp.InputError):
            DetectorRegion(Z_AXIS, 0.1, 1.0, math.inf)

    def test_rejects_a_window_whose_square_overflows(self):
        # the node rules square the window's ends
        edge = math.sqrt(np.finfo(np.float64).max)
        assert DetectorRegion(Z_AXIS, 0.1, 1.0, edge).freq_hi ** 2 < math.inf
        with pytest.raises(bp.InputError, match="beyond double range"):
            DetectorRegion(Z_AXIS, 0.1, 1.0, np.nextafter(edge, math.inf))


class TestRegionMeasure:
    def test_full_sphere_unit_window(self):
        # closed form: [(4-1)/2] * 4*pi / (2*(2*pi)^3) = 3/(8*pi^2)
        r = full_sphere_region(1.0, 2.0)
        assert region_measure(r) == pytest.approx(3.0 / (8.0 * math.pi**2), rel=1e-14)

    def test_weights_sum_to_measure(self):
        r = DetectorRegion(np.array([0.6, 0.0, 0.8]), 0.3, 0.5, 1.5)
        nodes = invariant_node_set(r, QuadratureSpec(8, 8, 8))
        assert float(np.sum(nodes.weights)) == pytest.approx(
            region_measure(r), abs=1e-10
        )

    def test_shrinking_cone_measure_monotone_to_zero(self):
        vals = [
            region_measure(DetectorRegion(Z_AXIS, h, 1.0, 2.0))
            for h in (0.5, 0.25, 0.125, 0.0625, 0.03125)
        ]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_hemispheres_sum_to_sphere(self):
        up = DetectorRegion(Z_AXIS, math.pi / 2, 1.0, 2.0)
        down = DetectorRegion(-Z_AXIS, math.pi / 2, 1.0, 2.0)
        total = region_measure(up) + region_measure(down)
        assert total == pytest.approx(region_measure(full_sphere_region(1.0, 2.0)), abs=1e-10)
        ns_up = invariant_node_set(up, QuadratureSpec(6, 6, 6))
        ns_down = invariant_node_set(down, QuadratureSpec(6, 6, 6))
        assert float(np.sum(ns_up.weights) + np.sum(ns_down.weights)) == pytest.approx(
            total, abs=1e-10
        )

    @settings(deadline=None, max_examples=50)
    @given(
        h=st.floats(1e-3, math.pi),
        lo=st.floats(0.0, 5.0),
        width=st.floats(1e-3, 5.0),
    )
    def test_measure_positive_and_bounded(self, h, lo, width):
        r = DetectorRegion(Z_AXIS, h, lo, lo + width)
        m = region_measure(r)
        full = region_measure(full_sphere_region(lo, lo + width))
        assert 0.0 < m <= full * (1 + 1e-12)

    def test_semi_infinite_measure_raises(self):
        with pytest.raises(bp.PreconditionError):
            region_measure(full_sphere_region())


class TestIntegrateRegion:
    def test_constant_integrand(self):
        r = DetectorRegion(np.array([0.0, 1.0, 0.0]), 0.7, 0.2, 3.0)
        value = integrate(
            lambda freqs, dirs: np.ones_like(freqs), invariant_node_set(r, QuadratureSpec(6, 6, 6))
        )
        assert value.real == pytest.approx(region_measure(r), rel=1e-12)

    def test_gamma_function_radial_rule(self):
        # integral of omega^2 e^{-omega} dGamma over all momenta
        #   = (4*pi/(2*(2*pi)^3)) * integral omega^3 e^{-omega} d omega
        #   = Gamma(4) / (4*pi^2)
        r = full_sphere_region()
        f = lambda freqs, dirs: freqs**2 * np.exp(-freqs)
        value = integrate(f, invariant_node_set(r, QuadratureSpec(12, 4, 4)))
        assert value.real == pytest.approx(6.0 / (4.0 * math.pi**2), rel=1e-12)

    def test_gamma_function_scaled(self):
        # scale covariance: integrand omega^2 e^{-omega/s} integrates to
        # Gamma(4) s^4 / (4*pi^2)
        s = 1.7
        r = full_sphere_region()
        f = lambda freqs, dirs: freqs**2 * np.exp(-freqs / s)
        value = integrate(f, invariant_node_set(r, QuadratureSpec(12, 4, 4, radial_scale=s)))
        assert value.real == pytest.approx(
            6.0 * s**4 / (4.0 * math.pi**2), rel=1e-12
        )

    def test_product_vs_mc_agreement(self):
        r = DetectorRegion(Z_AXIS, 0.8, 0.5, 2.0)
        f = lambda freqs, dirs: freqs * (1.0 + dirs[:, 2]) ** 2
        spec = QuadratureSpec(10, 10, 10)
        nodes = invariant_node_set(r, spec)
        prod = integrate(f, nodes)
        # the halved-rule difference plus a roundoff floor
        floor = 64.0 * np.finfo(np.float64).eps * integrate(lambda *k: np.abs(f(*k)), nodes).real
        err_prod = abs(prod - integrate(f, invariant_node_set(r, spec.halved()))) + floor
        samples = invariant_node_set(r, QuadratureSpec(mode="mc", seed=314, n_samples=200000))
        mc = integrate(f, samples)
        # the standard error of the sample mean
        spread = float(np.std(f(samples.freqs, samples.dirs)))
        err_mc = region_measure(r) * spread / math.sqrt(len(samples))
        assert abs(prod - mc) < 3.0 * (err_prod + err_mc)

    def test_mc_rejects_semi_infinite(self):
        with pytest.raises(bp.PreconditionError):
            invariant_node_set(full_sphere_region(), QuadratureSpec(mode="mc", seed=1))


class TestBoostedRegion:
    def test_identity_map_matches_plain(self):
        r = DetectorRegion(np.array([0.0, 0.6, 0.8]), 0.6, 0.5, 2.5)
        spec = QuadratureSpec(6, 6, 6)
        f = lambda freqs, dirs: freqs**2 * dirs[:, 1]
        nodes = invariant_node_set(r, spec)
        plain = integrate(f, nodes)
        mapped = integrate(f, map_nodes(bp.identity_map(), nodes))
        assert mapped == pytest.approx(plain, rel=1e-12)

    def test_rotation_with_symmetric_integrand(self):
        r = full_sphere_region(0.5, 2.0)
        spec = QuadratureSpec(6, 8, 8)
        f = lambda freqs, dirs: np.exp(-freqs)  # isotropic
        nodes = invariant_node_set(r, spec)
        plain = integrate(f, nodes)
        rot = integrate(f, map_nodes(bp.rotation(1.2, [1.0, 1.0, 0.0] / np.sqrt(2)), nodes))
        assert rot == pytest.approx(plain, rel=1e-12)

    def test_change_of_variables_identity(self):
        # f o Lambda^-1 summed over the nodes pushed through Lambda equals f
        # summed over the nodes: the measure is invariant.
        r = DetectorRegion(np.array([1.0, 0.0, 0.0]), 0.7, 0.5, 2.0)
        spec = QuadratureSpec(8, 8, 8)
        lam = bp.compose(bp.rotation(0.9, [0, 0, 1]), bp.boost(0.6, [0, 1, 0]))
        inv = bp.inverse(lam)

        def f(freqs, dirs):
            return freqs * np.exp(dirs[:, 0] - 0.3 * freqs)

        def f_pulled(freqs, dirs):
            four = np.empty((freqs.size, 4))
            four[:, 0] = freqs
            four[:, 1:] = freqs[:, None] * dirs
            img = four @ inv.matrix.T
            w = np.linalg.norm(img[:, 1:], axis=1)
            return f(w, img[:, 1:] / w[:, None])

        nodes = invariant_node_set(r, spec)
        lhs = integrate(f_pulled, map_nodes(lam, nodes))
        rhs = integrate(f, nodes)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mapped_nodes_keep_weights_and_nullity(self):
        r = DetectorRegion(Z_AXIS, 0.5, 1.0, 2.0)
        nodes = invariant_node_set(r, QuadratureSpec(4, 4, 4))
        moved = map_nodes(bp.boost(0.8, [1, 0, 0]), nodes)
        assert np.array_equal(moved.weights, nodes.weights)
        norms = np.linalg.norm(moved.dirs, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.all(moved.freqs > 0)


class TestMappedBoundingRegion:
    def test_cone_is_the_exact_image_of_the_rim(self):
        # the image of a cone under a Lorentz map is a cone: every image of a
        # dense rim lies inside the returned cone, which is no wider than the
        # farthest rim image beyond rounding
        rng = np.random.default_rng(2024)
        phi = np.linspace(0.0, 2.0 * math.pi, 20000, endpoint=False)
        for _ in range(40):
            half = math.exp(rng.uniform(math.log(1e-3), math.log(3.0)))
            axis = _unit(rng)
            lam = bp.compose(
                bp.boost(rng.uniform(0.0, 3.0), _unit(rng)),
                bp.rotation(rng.uniform(-math.pi, math.pi), _unit(rng)),
            )
            e1 = np.cross(axis, _unit(rng))
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(axis, e1)
            rim = math.cos(half) * axis + math.sin(half) * (
                np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
            )
            four = np.concatenate([np.ones((phi.size, 1)), rim], axis=1) @ lam.matrix.T
            img = four[:, 1:] / np.linalg.norm(four[:, 1:], axis=1)[:, None]
            cone = mapped_bounding_region(DetectorRegion(axis, half, 1.0, 2.0), lam)
            angles = np.arctan2(
                np.linalg.norm(np.cross(img, cone.axis), axis=1), img @ cone.axis
            )
            assert angles.max() <= cone.half_angle
            assert cone.half_angle <= angles.max() * (1.0 + 1e-7)

    def test_map_near_double_range(self):
        # the image's axis is normalized without squaring its components, and
        # a bounding vector that overflows is a precondition
        alice = DetectorRegion(np.array([1.0, 0.0, 0.0]), 0.0349, 0.5, 2.0)
        cone = mapped_bounding_region(alice, bp.boost(700.0, [1.0, 0.0, 0.0]))
        assert np.array_equal(cone.axis, [1.0, 0.0, 0.0]) and cone.half_angle == 1e-9
        with pytest.raises(bp.PreconditionError, match="beyond double range"):
            mapped_bounding_region(alice, bp.boost(710.3, [1.0, 0.0, 0.0]))


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestDeterminism:
    def test_product_nodes_byte_identical(self):
        r = DetectorRegion(np.array([0.3, 0.4, np.sqrt(0.75)]), 0.4, 0.7, 1.9)
        spec = QuadratureSpec(7, 5, 9)
        a = invariant_node_set(r, spec)
        b = invariant_node_set(r, spec)
        assert a.freqs.tobytes() == b.freqs.tobytes()
        assert a.dirs.tobytes() == b.dirs.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_legendre_rule_built_once_per_order_and_read_only(self):
        from bellepr.measure import _legendre_rule

        x, w = _legendre_rule(7)
        assert _legendre_rule(7)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(7)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_mc_seed_reproducible(self):
        r = DetectorRegion(Z_AXIS, 0.5, 1.0, 2.0)
        spec = QuadratureSpec(mode="mc", seed=987, n_samples=500)
        a = invariant_node_set(r, spec)
        b = invariant_node_set(r, spec)
        assert a.freqs.tobytes() == b.freqs.tobytes()
        assert a.dirs.tobytes() == b.dirs.tobytes()

    def test_mc_different_seed_differs(self):
        r = DetectorRegion(Z_AXIS, 0.5, 1.0, 2.0)
        a = invariant_node_set(r, QuadratureSpec(mode="mc", seed=1, n_samples=100))
        b = invariant_node_set(r, QuadratureSpec(mode="mc", seed=2, n_samples=100))
        assert a.freqs.tobytes() != b.freqs.tobytes()


class TestDisjointness:
    def test_antipodal_small_cones(self):
        a = DetectorRegion(Z_AXIS, 0.05, 1.0, 2.0)
        b = DetectorRegion(-Z_AXIS, 0.05, 1.0, 2.0)
        assert regions_disjoint(a, b)

    def test_identical_regions_not_disjoint(self):
        a = DetectorRegion(Z_AXIS, 0.05, 1.0, 2.0)
        assert not regions_disjoint(a, a)

    def test_thirty_degree_separation(self):
        ax = np.array([math.sin(math.radians(30)), 0.0, math.cos(math.radians(30))])
        a10 = DetectorRegion(Z_AXIS, math.radians(10), 1.0, 2.0)
        b10 = DetectorRegion(ax, math.radians(10), 1.0, 2.0)
        assert regions_disjoint(a10, b10)
        a20 = DetectorRegion(Z_AXIS, math.radians(20), 1.0, 2.0)
        b20 = DetectorRegion(ax, math.radians(20), 1.0, 2.0)
        assert not regions_disjoint(a20, b20)

    @settings(deadline=None, max_examples=50)
    @given(
        h1=st.floats(0.01, 1.0),
        h2=st.floats(0.01, 1.0),
        tilt=st.floats(0.0, math.pi),
    )
    def test_disjointness_symmetric(self, h1, h2, tilt):
        ax = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
        a = DetectorRegion(Z_AXIS, h1, 1.0, 2.0)
        b = DetectorRegion(ax, h2, 1.0, 2.0)
        assert regions_disjoint(a, b) == regions_disjoint(b, a)


class TestKeptNodeSets:
    @pytest.mark.parametrize(
        "spec",
        [QuadratureSpec(n_freq=4, n_polar=3, n_azimuth=8), QuadratureSpec(mode="mc", n_samples=50)],
        ids=["product", "mc"],
    )
    def test_node_sets_are_kept_read_only(self, spec):
        region = DetectorRegion(Z_AXIS, 0.3, 0.5, 2.0)
        nodes = invariant_node_set(region, spec)
        assert invariant_node_set(region, spec) is nodes
        for array in (nodes.freqs, nodes.dirs, nodes.weights, region.axis):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_replace_starts_with_no_node_set(self):
        spec = QuadratureSpec(n_freq=4, n_polar=3, n_azimuth=8)
        region = DetectorRegion(Z_AXIS, 0.3, 0.5, 2.0)
        invariant_node_set(region, spec)  # what a shared memo would carry over
        wider = dataclasses.replace(region, half_angle=0.6)
        assert wider._node_sets == {}
        fresh = invariant_node_set(DetectorRegion(Z_AXIS, 0.6, 0.5, 2.0), spec)
        for name in ("freqs", "dirs", "weights"):
            kept = getattr(invariant_node_set(wider, spec), name)
            assert kept.tobytes() == getattr(fresh, name).tobytes()

    def test_threads_filling_one_region_get_the_nodes_of_a_cold_build(self):
        # two threads may both build a missing set; each gets the same nodes
        specs = [QuadratureSpec(n_freq=n, n_polar=3, n_azimuth=8) for n in range(3, 9)]
        region = DetectorRegion(Z_AXIS, 0.3, 0.5, 2.0)
        cold = {s: invariant_node_set(DetectorRegion(Z_AXIS, 0.3, 0.5, 2.0), s) for s in specs}
        calls = [s for _ in range(8) for s in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(invariant_node_set, region, s) for s in calls]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for spec, nodes in zip(calls, got):
            for name in ("freqs", "dirs", "weights"):
                assert getattr(nodes, name).tobytes() == getattr(cold[spec], name).tobytes()
        assert set(region._node_sets) == set(specs)

    def test_axis_frame_is_np_cross_bit_for_bit(self):
        rng = np.random.default_rng(11)
        axes = rng.normal(size=(300, 3))
        axes[:100, :2] *= 0.1  # near the poles: the branch about x
        axes = np.vstack([axes, np.eye(3), -np.eye(3)])
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        polar = np.abs(axes[:, 2]) >= 0.9
        assert polar.sum() > 50 and (~polar).sum() > 50
        for axis in axes:
            ref = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
            e1 = np.cross(ref, axis)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(axis, e1)
            got = measure._axis_frame(axis)
            assert got[0].tobytes() == e1.tobytes() and got[1].tobytes() == e2.tobytes()
