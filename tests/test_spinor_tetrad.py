from __future__ import annotations

import numpy as np
import pytest

import bellepr as bp
from bellepr.spinor_tetrad import batch_spin_frames, batch_spinors, map_momenta, wigner_pullback


def rand_momentum(rng, freq_lo=0.3, freq_hi=3.0):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    if d[2] < -0.97:
        d = -d
    return bp.NullMomentum(rng.uniform(freq_lo, freq_hi), d)


def batch_of(ks):
    """Momenta as one batch: frequencies (n,) and unit directions (n, 3)."""
    return np.array([k.freq for k in ks]), np.stack([k.dir for k in ks])


def rand_map(rng, rap=1.0):
    ax1 = rng.normal(size=3)
    ax1 /= np.linalg.norm(ax1)
    ax2 = rng.normal(size=3)
    ax2 /= np.linalg.norm(ax2)
    return bp.compose(
        bp.rotation(rng.uniform(-np.pi, np.pi), ax1),
        bp.boost(rng.uniform(-rap, rap), ax2),
    )


class TestNullMomentum:
    def test_four_vec_is_null(self):
        k = bp.NullMomentum(2.5, [0.6, 0.0, 0.8])
        assert bp.minkowski_dot(k.four_vec, k.four_vec) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(bp.InputError):
            bp.NullMomentum(-1.0, [0, 0, 1])
        with pytest.raises(bp.InputError):
            bp.NullMomentum(1.0, [0, 0, 2.0])


class TestLorentzMaps:
    def test_boost_zero_is_identity(self):
        b = bp.boost(0.0, [0, 0, 1])
        assert np.allclose(b.matrix, np.eye(4))
        assert np.allclose(b.sl2c, np.eye(2))

    def test_overflowing_rapidity_is_an_input_error(self):
        for rapidity in (1000.0, -1000.0):
            with pytest.raises(bp.InputError, match="beyond double range"):
                bp.boost(rapidity, [0, 0, 1])

    def test_boost_inverse_symmetry(self):
        b = bp.compose(bp.boost(0.8, [0, 0, 1]), bp.boost(-0.8, [0, 0, 1]))
        assert np.max(np.abs(b.matrix - np.eye(4))) < 1e-12

    def test_boost_scales_parallel_momentum(self):
        # Direct 4x4 matrix multiplication oracle.
        eta, w = 0.63, 1.7
        b = bp.boost(eta, [0, 0, 1])
        k = bp.NullMomentum(w, [0, 0, 1])
        img = b.matrix @ k.four_vec
        assert img[0] == pytest.approx(np.exp(eta) * w, rel=1e-14)
        freqs, dirs = map_momenta(b, *k.as_batch)
        assert freqs[0] == pytest.approx(np.exp(eta) * w, rel=1e-13)
        assert np.allclose(dirs[0], [0, 0, 1])

    def test_rotation_zero_is_identity(self):
        r = bp.rotation(0.0, [1, 0, 0])
        assert np.allclose(r.matrix, np.eye(4))

    def test_rotation_double_cover(self):
        r = bp.rotation(2 * np.pi, [0, 0, 1])
        assert np.max(np.abs(r.sl2c + np.eye(2))) < 1e-12
        assert np.max(np.abs(r.matrix - np.eye(4))) < 1e-12

    def test_rotation_quarter_turn(self):
        r = bp.rotation(np.pi / 2, [0, 0, 1])
        k = bp.NullMomentum(1.0, [1, 0, 0])
        assert np.allclose(map_momenta(r, *k.as_batch)[1][0], [0, 1, 0], atol=1e-15)

    def test_compose_inverse_identity(self):
        rng = np.random.default_rng(11)
        a = rand_map(rng)
        ident = bp.compose(a, bp.inverse(a))
        assert np.max(np.abs(ident.matrix - np.eye(4))) < 1e-12
        assert np.max(np.abs(ident.sl2c - np.eye(2))) < 1e-12

    def test_compose_associativity(self):
        rng = np.random.default_rng(12)
        a, b, c = (rand_map(rng) for _ in range(3))
        lhs = bp.compose(bp.compose(a, b), c)
        rhs = bp.compose(a, bp.compose(b, c))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-12

    def test_inverse_boost_is_negated_rapidity(self):
        b = bp.boost(0.4, [0, 1, 0])
        binv = bp.inverse(b)
        bneg = bp.boost(-0.4, [0, 1, 0])
        assert np.max(np.abs(binv.matrix - bneg.matrix)) < 1e-14
        assert np.max(np.abs(binv.sl2c - bneg.sl2c)) < 1e-14

    def test_metric_preservation_and_sl2c_consistency(self):
        rng = np.random.default_rng(13)
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        sig = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for _ in range(50):
            a = rand_map(rng)
            assert np.max(np.abs(a.matrix.T @ eta @ a.matrix - eta)) < 1e-12
            v = rng.normal(size=4)
            kmap = v[0] * np.eye(2) + sum(v[i + 1] * sig[i] for i in range(3))
            lhs = a.sl2c @ kmap @ a.sl2c.conj().T
            w = a.matrix @ v
            rhs = w[0] * np.eye(2) + sum(w[i + 1] * sig[i] for i in range(3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            assert a.matrix[0, 0] >= 1.0 - 1e-12

    def test_apply_rotation_preserves_freq(self):
        rng = np.random.default_rng(14)
        k = rand_momentum(rng)
        r = bp.rotation(1.1, [0, 1, 0])
        assert map_momenta(r, *k.as_batch)[0][0] == pytest.approx(k.freq, rel=1e-14)


class TestSpinorChart:
    def test_pole_spinor(self):
        w = 1.3
        p0, p1 = batch_spinors(*bp.NullMomentum(w, [0, 0, 1]).as_batch)
        assert p0[0] == pytest.approx(np.sqrt(2 * w), rel=1e-15)
        assert p1[0] == 0.0

    def test_flagpole_identity_random(self):
        rng = np.random.default_rng(15)
        ks = [rand_momentum(rng) for _ in range(200)]
        p = np.stack(batch_spinors(*batch_of(ks)), axis=1)
        flag = p[:, :, None] * p.conj()[:, None, :]
        kv = np.stack([k.four_vec for k in ks])
        pauli = np.stack(
            [
                [kv[:, 0] + kv[:, 3], kv[:, 1] - 1j * kv[:, 2]],
                [kv[:, 1] + 1j * kv[:, 2], kv[:, 0] - kv[:, 3]],
            ]
        ).transpose(2, 0, 1)
        assert np.max(np.abs(flag - pauli)) < 1e-10

    def test_chart_cut_raises(self):
        with pytest.raises(bp.ChartError):
            batch_spinors(*bp.NullMomentum(1.0, [0, 0, -1.0]).as_batch)

    def test_spin_frame_pairing(self):
        rng = np.random.default_rng(16)
        ks = [rand_momentum(rng) for _ in range(1000)]
        p0, p1, o0, o1 = batch_spin_frames(*batch_of(ks))
        assert np.max(np.abs(p0 * o1 - p1 * o0 - 1.0)) < 1e-12

    def test_pole_omic(self):
        w = 0.9
        _, _, o0, o1 = batch_spin_frames(*bp.NullMomentum(w, [0, 0, 1]).as_batch)
        assert o0[0] == 0.0
        assert o1[0] == pytest.approx(1 / np.sqrt(2 * w), rel=1e-15)

    def test_freq_scaling_homogeneity(self):
        rng = np.random.default_rng(17)
        k = rand_momentum(rng)
        lam = 3.7
        p0, p1, o0, o1 = batch_spin_frames(*batch_of([k, bp.NullMomentum(lam * k.freq, k.dir)]))
        pi, omic = np.stack([p0, p1], axis=1), np.stack([o0, o1], axis=1)
        assert np.allclose(pi[1], np.sqrt(lam) * pi[0], rtol=1e-13)
        assert np.allclose(omic[1], omic[0] / np.sqrt(lam), rtol=1e-13)


class TestNullTetrad:
    def test_pole_m_vector(self):
        t = bp.null_tetrad(bp.NullMomentum(2.0, [0, 0, 1]))
        ref = np.array([0, 1, -1j, 0]) / np.sqrt(2)
        # equal up to a global phase
        i = int(np.argmax(np.abs(ref)))
        phase = t.m_vec[i] / ref[i]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.max(np.abs(t.m_vec - phase * ref)) < 1e-12

    def test_invariants_1000_random(self):
        rng = np.random.default_rng(18)
        md = bp.minkowski_dot
        for _ in range(1000):
            t = bp.null_tetrad(rand_momentum(rng))
            assert abs(md(t.k_vec, t.k_vec)) < 1e-10
            assert abs(md(t.q_vec, t.q_vec)) < 1e-10
            assert abs(md(t.m_vec, t.m_vec)) < 1e-10
            assert abs(md(t.k_vec, t.m_vec)) < 1e-10
            assert abs(md(t.q_vec, t.m_vec)) < 1e-10
            assert abs(md(t.k_vec, t.q_vec) - 1.0) < 1e-10
            assert abs(md(t.m_vec, t.mbar_vec) + 1.0) < 1e-10
            assert np.array_equal(t.mbar_vec, np.conj(t.m_vec))

    def test_k_vec_matches_four_vec(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = rand_momentum(rng)
            t = bp.null_tetrad(k)
            assert np.max(np.abs(t.k_vec - k.four_vec)) < 1e-10


class TestWignerPhase:
    def test_identity_map_zero(self):
        k = bp.NullMomentum(1.0, [0.3, 0.4, np.sqrt(1 - 0.25)])
        assert bp.wigner_phase(bp.identity_map(), k) == 0.0

    def test_z_rotation_at_pole(self):
        chi = 0.73
        k = bp.NullMomentum(1.0, [0, 0, 1])
        ph = bp.wigner_phase(bp.rotation(chi, [0, 0, 1]), k)
        assert float(bp.wrap_angle(ph - chi)) == pytest.approx(0.0, abs=1e-12)

    def test_frequency_independence(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            a = rand_map(rng)
            k = rand_momentum(rng)
            base = bp.wigner_phase(a, k)
            for lam in (0.5, 2.0, 10.0):
                kl = bp.NullMomentum(lam * k.freq, k.dir)
                d = bp.wrap_angle(bp.wigner_phase(a, kl) - base)
                assert abs(float(d)) < 1e-8

    def test_cocycle(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 100:
            a, b = rand_map(rng), rand_map(rng)
            k = rand_momentum(rng)
            try:
                lhs = wigner_pullback(bp.compose(a, b), *k.as_batch)[2]
                pre_f, pre_d, phase_a = wigner_pullback(a, *k.as_batch)
                rhs = phase_a + wigner_pullback(b, pre_f, pre_d)[2]
            except bp.ChartError:
                continue
            assert abs(float(bp.wrap_angle(lhs - rhs)[0])) < 1e-8
            done += 1

    def test_inconsistent_map_is_a_failed_identity(self):
        # the 4x4 matrix boosts along y, the SL(2,C) representative along x
        y_hat, x_hat = np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])
        bad = bp.LorentzMap(bp.boost(0.5, y_hat).matrix, bp.boost(0.5, x_hat).sl2c)
        k = bp.NullMomentum(1.0, [0.6, 0.0, 0.8])
        with pytest.raises(bp.ConsistencyError, match="not proportional"):
            wigner_pullback(bad, *k.as_batch)

    @pytest.mark.parametrize(
        "rapidity, axis",
        [
            (18.0, [0.0, 1.0, 0.0]),  # the map's entries round at 1.5e-8
            (700.0, [0.0, 1.0, 0.0]),  # the pre-images overflow to NaN
            (10.0, [0.0, 0.0, 1.0]),  # pre-images within 4e-9 of 1 + dz = 0
        ],
    )
    def test_phase_beyond_double_precision_is_a_precondition(self, rapidity, axis):
        # a demo cone around x: below rapidity 18 along y every node passes
        cone = bp.DetectorRegion(np.array([1.0, 0.0, 0.0]), 0.0349, 0.5, 2.0)
        nodes = bp.invariant_node_set(cone, bp.QuadratureSpec(n_freq=6, n_polar=4, n_azimuth=8))
        wigner_pullback(bp.boost(17.0, np.array([0.0, 1.0, 0.0])), nodes.freqs, nodes.dirs)
        with pytest.raises(bp.PreconditionError, match="beyond double precision"):
            wigner_pullback(bp.boost(rapidity, np.array(axis)), nodes.freqs, nodes.dirs)


    def test_pre_image_beyond_double_range_is_a_precondition(self):
        # the pre-image's frequency, about 3e157, squares to inf in its norm;
        # a NaN residual there is not a failed identity
        with pytest.raises(bp.PreconditionError, match=r"L\^-1 k overflows"):
            wigner_pullback(bp.boost(8.0, np.array([1.0, 0.0, 0.0])), [1e154], [[-0.6, 0.0, 0.8]])


class TestTetradCovariance:
    def test_identity_zero(self):
        k = bp.NullMomentum(1.0, [0.1, -0.2, np.sqrt(1 - 0.05)])
        assert bp.tetrad_covariance_residual(bp.identity_map(), k) < 1e-14
        raw, coeff = bp.tetrad_gauge_defect(bp.identity_map(), k)
        assert raw < 1e-14 and coeff < 1e-14

    def test_rotations_raw_residual(self):
        # Under rotations the chart m transforms exactly, with no gauge part.
        rng = np.random.default_rng(22)
        for _ in range(100):
            k = rand_momentum(rng)
            ax = rng.normal(size=3)
            ax /= np.linalg.norm(ax)
            r = bp.rotation(rng.uniform(-np.pi, np.pi), ax)
            try:
                raw, coeff = bp.tetrad_gauge_defect(r, k)
            except bp.ChartError:
                continue
            assert raw < 1e-8
            assert coeff < 1e-8

    def test_projected_residual_all_maps(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = rand_momentum(rng)
            a = rand_map(rng)
            try:
                res = bp.tetrad_covariance_residual(a, k)
            except bp.ChartError:
                continue
            assert res < 1e-8

    def test_boost_defect_is_collinear_with_k(self):
        # The raw boost defect is nonzero but purely a multiple of k:
        # the transverse part vanishes while the raw norm does not.
        k = bp.NullMomentum(1.7, [1.0, 0.0, 0.0])
        b = bp.boost(0.7, [0, 0, 1])
        raw, coeff = bp.tetrad_gauge_defect(b, k)
        assert raw > 1e-3  # genuinely large: the chart is not boost-covariant
        assert bp.tetrad_covariance_residual(b, k) < 1e-10
        # closed form of the gauge coefficient for this configuration
        lam = np.tanh(0.7) / (2 * 1.7)
        assert coeff == pytest.approx(np.sqrt(2) * lam, rel=1e-10)
