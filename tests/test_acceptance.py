"""Release acceptance gate: one test per numbered criterion.

Each ``test_criterion_NN_*`` function exercises one acceptance criterion
end to end with its tolerance stated inline; the terminal summary hook in
``conftest.py`` prints one PASS/FAIL line per criterion after the run.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import bellepr as bp
from bellepr.cli import main as cli_main
from bellepr.correlators import (
    DetectorSetting,
    Scenario,
    alice_only_case,
    bound_check,
    correlate,
    joint_case,
    swap_roles,
)
from bellepr.fock_oracle import (
    DiscreteGrid,
    OracleSpace,
    OscillatorTruncation,
    coincident_term,
    epr_unnormalized,
    four_term_reference,
    norm_reference,
    two_photon_vector,
    verify_suite,
)
from bellepr.measure import DetectorRegion, QuadratureSpec, invariant_node_set
from bellepr.spinor_tetrad import wigner_pullback
from bellepr.states import TwoPhotonAmplitude, amplitude_pair_tables, fit_theta
from bellepr.vacuum import evaluate_batch, normalize

DEG = math.pi / 180.0
Z_HAT = np.array([0.0, 0.0, 1.0])
X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])

SPEC = QuadratureSpec(n_freq=6, n_polar=4, n_azimuth=8)
REGION_B = DetectorRegion(axis=Z_HAT, half_angle=2.0 * DEG, freq_lo=0.5, freq_hi=2.0)
REGION_A = DetectorRegion(axis=X_HAT, half_angle=2.0 * DEG, freq_lo=0.5, freq_hi=2.0)

AMP11 = TwoPhotonAmplitude(kind="bell11")
AMP21 = TwoPhotonAmplitude(kind="bell21")
AMP22 = TwoPhotonAmplitude(kind="bell22")

# grid directions for the discrete oracle; the fourth entry stays off the
# spinor chart cut so tetrad-built amplitude tables are well defined
_GRID_DIRS = [
    Z_HAT,
    X_HAT,
    Y_HAT,
    np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
]


def mk_grid(m):
    return DiscreteGrid(
        [(bp.NullMomentum(1.0 + 0.3 * i, _GRID_DIRS[i]), 0.4 + 0.25 * i) for i in range(m)]
    )


def sym_tables(rng, m):
    raw = {
        (s, spp): rng.normal(size=(m, m)) + 1.0j * rng.normal(size=(m, m))
        for s in (1, -1)
        for spp in (1, -1)
    }
    return {(s, spp): 0.5 * (tab + raw[(spp, s)].T) for (s, spp), tab in raw.items()}


def grid_z(grid, o_values):
    o = np.asarray(o_values, dtype=complex)
    return np.abs(o) ** 2 / float(np.sum(grid.weights * np.abs(o) ** 2))


def rand_momentum(rng, freq_lo=0.3, freq_hi=3.0):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    if d[2] < -0.97:
        d = -d
    return bp.NullMomentum(rng.uniform(freq_lo, freq_hi), d)


def rand_map(rng, rap=1.0):
    ax1 = rng.normal(size=3)
    ax1 /= np.linalg.norm(ax1)
    ax2 = rng.normal(size=3)
    ax2 /= np.linalg.norm(ax2)
    return bp.compose(
        bp.rotation(rng.uniform(-np.pi, np.pi), ax1),
        bp.boost(rng.uniform(-rap, rap), ax2),
    )


def make_scn(amp, z, beta, alpha, *, field=None, n_osc=math.inf, transform=None):
    kwargs = dict(
        amplitude=amp,
        vacuum=z,
        bob=DetectorSetting(region=REGION_B, angle=beta),
        alice=DetectorSetting(region=REGION_A, angle=alpha),
        n_osc=n_osc,
        theta_field=field,
        quadrature=SPEC,
    )
    if transform is not None:
        kwargs["transform"] = transform
    return Scenario(**kwargs)


def fitted_sum(fit):
    return float(fit.field.values[0] + fit.field.values[1])


@pytest.fixture(scope="module")
def z_mid():
    return normalize("power-exponential", {"exponent": 2.0, "scale": 1.0})


@pytest.fixture(scope="module")
def fit21():
    return fit_theta(AMP21, 21, REGION_B, REGION_A, spec=SPEC)


@pytest.fixture(scope="module")
def fit11():
    return fit_theta(AMP11, 11, REGION_B, REGION_A, spec=SPEC)


# --------------------------------------------------------------------------
# 1. discrete oracle algebra suite


def test_criterion_01_oscillator_algebra_oracle_suite():
    # every named identity of the verification suite on 2-4 cell grids with
    # 1-3 oscillators at occupation cutoff 2; the exact-identity subset
    # (commutators, center, basis change, eigenvalues) must sit at <= 1e-12,
    # and the whole matrix must run in under 30 seconds
    start = time.perf_counter()
    for m in (2, 3, 4):
        grid = mk_grid(m)
        for n_osc in (1, 2, 3):
            suite = verify_suite(grid, n_osc=n_osc)
            assert len(suite) >= 18
            for check in suite:
                assert check.passed, (
                    f"{check.name} failed on m={m} N={n_osc}: "
                    f"residual {check.residual:.3e} > {check.threshold:.1e}"
                )
                if check.threshold <= 1e-12:
                    assert check.residual <= 1e-12, (m, n_osc, check)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s (budget 30s)"


# --------------------------------------------------------------------------
# 2. pair-state squared-norm formulas


def test_criterion_02_pair_state_norm_formulas():
    grid = mk_grid(3)
    freqs = grid.freqs
    dirs = np.array([k.dir for k, _ in grid.cells])
    w = grid.weights
    rng = np.random.default_rng(2)
    o = rng.normal(size=3) + 0.4
    z = grid_z(grid, o)
    u = w * z

    for n_osc in (1, 2, 3):
        space = OracleSpace(grid, OscillatorTruncation(), n_osc)

        # generic slot-sum formula with its 2/N and 2(N-1)/N coefficients,
        # against the brute-force vector norm
        tables = sym_tables(rng, 3)
        vec = two_photon_vector(space, tables, o)
        brute = float(np.vdot(vec, vec).real)
        closed = norm_reference(space, tables, z)
        assert abs(brute - closed) <= 1e-10 * max(1.0, abs(closed))

        # opposite-helicity pair: both active slots are conjugates, so the
        # slot sum collapses to factor-4 coefficients on a single slot
        t11 = amplitude_pair_tables(AMP11, freqs, dirs, freqs, dirs)
        vec11 = two_photon_vector(space, t11, o)
        brute11 = float(np.vdot(vec11, vec11).real)
        tab = t11[(1, -1)]
        explicit11 = (4.0 / n_osc) * float(
            np.sum(w * np.abs(np.diag(tab)) ** 2 * z)
        ) + (4.0 * (n_osc - 1) / n_osc) * float(u @ (np.abs(tab) ** 2) @ u)
        assert abs(brute11 - explicit11) <= 1e-10 * max(1.0, abs(explicit11))
        assert abs(brute11 - norm_reference(space, t11, z)) <= 1e-10 * max(
            1.0, abs(brute11)
        )

        # equal-helicity pair: the antisymmetric pairing kills the diagonal
        # coincidence part, leaving the factor-4 double sum alone
        t21 = amplitude_pair_tables(AMP21, freqs, dirs, freqs, dirs)
        vec21 = two_photon_vector(space, t21, o)
        brute21 = float(np.vdot(vec21, vec21).real)
        tab21 = t21[(1, 1)]
        assert float(np.max(np.abs(np.diag(tab21)))) <= 1e-14
        explicit21 = (4.0 * (n_osc - 1) / n_osc) * float(
            u @ (np.abs(tab21) ** 2) @ u
        )
        assert abs(brute21 - explicit21) <= 1e-10 * max(1.0, abs(explicit21))
        assert abs(brute21 - norm_reference(space, t21, z)) <= 1e-10 * max(
            1.0, abs(brute21)
        )


# --------------------------------------------------------------------------
# 3. correlation oracle equivalence


def test_criterion_03_correlation_oracle_equivalence():
    grid = mk_grid(3)
    rng = np.random.default_rng(3)
    beta, alpha = 0.55, -0.3

    for n_osc in (1, 2, 3):
        space = OracleSpace(grid, OscillatorTruncation(), n_osc)
        tables = sym_tables(rng, 3)
        o = rng.normal(size=3) + 0.4
        z = grid_z(grid, o)

        # disjoint cell subsets: matrix expectation vs the closed four-term
        # discretization; the ordered product must also come out real
        raw = epr_unnormalized(space, tables, o, [0, 1], [2], beta, alpha)
        ref = four_term_reference(space, tables, z, [0, 1], [2], beta, alpha)
        scale = max(1.0, abs(raw))
        assert abs(raw.imag) <= 1e-10 * scale
        assert abs(raw.real - ref) <= 1e-8 * scale

        # overlapping subsets: the mismatch against the same four-term
        # formula must be exactly the discretized coincident term
        raw_ov = epr_unnormalized(space, tables, o, [0, 1, 2], [0, 1], beta, alpha)
        ref_ov = four_term_reference(space, tables, z, [0, 1, 2], [0, 1], beta, alpha)
        coin = coincident_term(space, tables, z, [0, 1, 2], [0, 1], beta, alpha)
        assert abs(raw_ov - ref_ov - coin) <= 1e-8 * max(1.0, abs(raw_ov))


# --------------------------------------------------------------------------
# 4. tetrad and Wigner-phase geometry


def test_criterion_04_tetrad_and_wigner_geometry():
    rng = np.random.default_rng(4)

    # tetrad contractions on 1000 random momenta
    worst = 0.0
    for _ in range(1000):
        k = rand_momentum(rng)
        t = bp.null_tetrad(k)
        worst = max(
            worst,
            abs(bp.minkowski_dot(t.k_vec, t.k_vec)),
            abs(bp.minkowski_dot(t.k_vec, t.q_vec) - 1.0),
            abs(bp.minkowski_dot(t.m_vec, t.mbar_vec) + 1.0),
            abs(bp.minkowski_dot(t.m_vec, t.m_vec)),
            abs(bp.minkowski_dot(t.k_vec, t.m_vec)),
        )
    assert worst <= 1e-10

    # phase composition, frequency independence, and the transformation law
    # of the circular-polarization leg on 100 random maps
    done = 0
    worst_co, worst_freq, worst_cov = 0.0, 0.0, 0.0
    while done < 100:
        a, b = rand_map(rng), rand_map(rng)
        k = rand_momentum(rng)
        try:
            lhs = bp.wigner_phase(bp.compose(a, b), k)
            pre_f, pre_d, phase_a = wigner_pullback(a, *k.as_batch)
            rhs = phase_a[0] + wigner_pullback(b, pre_f, pre_d)[2][0]
            base = bp.wigner_phase(a, k)
            for lam in (0.5, 3.0):
                shifted = bp.wigner_phase(a, bp.NullMomentum(lam * k.freq, k.dir))
                worst_freq = max(
                    worst_freq, abs(float(bp.wrap_angle(shifted - base)))
                )
            cov = bp.tetrad_covariance_residual(a, k)
        except bp.ChartError:
            continue
        worst_co = max(worst_co, abs(float(bp.wrap_angle(lhs - rhs))))
        worst_cov = max(worst_cov, cov)
        done += 1
    assert worst_co <= 1e-8
    assert worst_freq <= 1e-8
    assert worst_cov <= 1e-8


# --------------------------------------------------------------------------
# 5. rest-frame correlator structure


def test_criterion_05_rest_frame_correlator_structure(z_mid, fit21):
    results = []

    # matched analyzer sum reaches maximal anticorrelation
    sigma = fitted_sum(fit21)
    alpha = 0.3
    matched = correlate(
        make_scn(AMP21, z_mid, sigma - alpha, alpha, field=fit21.field)
    )
    results.append(matched)
    assert abs(matched.value - (-1.0)) <= 5e-3

    # the sweep traces a single cosine of 2(beta + alpha) with the fitted
    # angle sum as its phase offset
    betas = np.linspace(0.0, math.pi, 13, endpoint=False)
    vals = []
    for beta in betas:
        r = correlate(make_scn(AMP21, z_mid, beta, alpha, field=fit21.field))
        results.append(r)
        vals.append(r.value)
    vals = np.asarray(vals)
    basis = np.stack(
        [np.ones_like(betas), np.cos(2.0 * betas), np.sin(2.0 * betas)], axis=1
    )
    coef, _, _, _ = np.linalg.lstsq(basis, vals, rcond=None)
    assert float(np.max(np.abs(basis @ coef - vals))) <= 1e-4
    e_cos = -math.cos(2.0 * (alpha - sigma))
    e_sin = math.sin(2.0 * (alpha - sigma))
    assert abs(coef[0]) <= 5e-3
    assert abs(coef[1] - e_cos) <= 5e-3
    assert abs(coef[2] - e_sin) <= 5e-3

    # the opposite-helicity pair depends on the settings only through the
    # analyzer-angle difference
    for n_osc in (5, math.inf):
        base = correlate(make_scn(AMP11, z_mid, 0.8, 0.25, n_osc=n_osc))
        results.append(base)
        for delta in (0.4, 1.13):
            moved = correlate(
                make_scn(AMP11, z_mid, 0.8 + delta, 0.25 + delta, n_osc=n_osc)
            )
            results.append(moved)
            assert abs(moved.value - base.value) <= 1e-12

    # every value emitted above satisfies the bound check
    for r in results:
        assert bound_check(r)


# --------------------------------------------------------------------------
# 6. oscillator-number dependence


def test_criterion_06_oscillator_number_dependence(z_mid):
    beta, alpha = 0.7, 0.2

    # equal-helicity pairs: the (N-1)/N weights cancel between numerator
    # and denominator, so the value is independent of the oscillator count
    for amp in (AMP21, AMP22):
        ref = correlate(make_scn(amp, z_mid, beta, alpha)).value
        for n_osc in (2, 5, 50):
            v = correlate(make_scn(amp, z_mid, beta, alpha, n_osc=n_osc)).value
            assert abs(v - ref) <= 1e-12

    # opposite-helicity pair: recompute the three building-block integrals
    # with raw sums over the quadrature meshes, independent of the engine's
    # numerator/denominator code, and match v(N) = -(N-1)A / (B + (N-1)C)
    nb = invariant_node_set(REGION_B, SPEC)
    na = invariant_node_set(REGION_A, SPEC)
    ub = nb.weights * evaluate_batch(z_mid, nb.freqs, nb.dirs)
    ua = na.weights * evaluate_batch(z_mid, na.freqs, na.dirs)
    cross = amplitude_pair_tables(AMP11, nb.freqs, nb.dirs, na.freqs, na.dirs)
    s_cross = complex(ub @ (np.conj(cross[(1, -1)]) * cross[(-1, 1)]) @ ua)
    t_int = (
        math.cos(2.0 * (beta - alpha)) * s_cross.real
        + math.sin(2.0 * (beta - alpha)) * s_cross.imag
    )

    d_int = 0.0
    c_int = 0.0
    arms = ((nb, ub), (na, ua))
    for nodes, u in arms:
        diag = amplitude_pair_tables(AMP11, nodes.freqs, nodes.dirs, nodes.freqs, nodes.dirs)
        for vals in diag.values():
            d_int += float(np.sum(np.abs(np.diagonal(vals)) ** 2 * u))
    for n1, u1 in arms:
        for n2, u2 in arms:
            block = amplitude_pair_tables(AMP11, n1.freqs, n1.dirs, n2.freqs, n2.dirs)
            for vals in block.values():
                c_int += float(u1 @ (np.abs(vals) ** 2) @ u2)

    a_coef, b_coef, c_coef = -4.0 * t_int, d_int, c_int
    for n_osc in (2, 3, 5, 10, 50):
        model = -(n_osc - 1) * a_coef / (b_coef + (n_osc - 1) * c_coef)
        engine = correlate(
            make_scn(AMP11, z_mid, beta, alpha, n_osc=n_osc)
        ).value
        assert abs(model - engine) <= 1e-8 * max(1.0, abs(engine))

    # and the N -> infinity limit drops the same-momentum integral entirely
    limit = -a_coef / c_coef
    engine_inf = correlate(make_scn(AMP11, z_mid, beta, alpha)).value
    assert abs(limit - engine_inf) <= 1e-8 * max(1.0, abs(engine_inf))


# --------------------------------------------------------------------------
# 7. both detectors moving: two evaluation pictures


def test_criterion_07_joint_motion_two_pictures(z_mid):
    # identity map reproduces the rest rows exactly
    for beta in (0.2, 0.9, 2.0):
        rest = correlate(make_scn(AMP21, z_mid, beta, 0.3))
        moved = correlate(
            make_scn(AMP21, z_mid, beta, 0.3, transform=joint_case(bp.identity_map()))
        )
        assert abs(moved.value - rest.value) <= 1e-12
        assert abs(moved.numerator - rest.numerator) <= 1e-12 * max(
            1.0, abs(rest.numerator)
        )
        assert abs(moved.denominator - rest.denominator) <= 1e-12 * max(
            1.0, abs(rest.denominator)
        )

    # detector-side and vacuum-side evaluations agree within their combined
    # quadrature error for boosts up to rapidity 1
    for rapidity in (0.25, 1.0):
        mv = joint_case(bp.boost(rapidity, Y_HAT))
        for amp, n_osc in ((AMP21, math.inf), (AMP11, 5)):
            r = correlate(make_scn(amp, z_mid, 0.9, 0.3, n_osc=n_osc, transform=mv))
            combined = r.err_estimate + r.diagnostics["vacuum_picture_err"]
            assert r.diagnostics["picture_gap"] <= combined
            assert bound_check(r)


# --------------------------------------------------------------------------
# 8. one detector moving: frame asymmetry witness


def test_criterion_08_single_arm_motion_asymmetry(z_mid, fit11):
    # identity map reproduces the rest value
    rest = correlate(make_scn(AMP21, z_mid, 0.9, 0.3))
    ident = correlate(
        make_scn(AMP21, z_mid, 0.9, 0.3, transform=alice_only_case(bp.identity_map()))
    )
    assert abs(ident.value - rest.value) <= 1e-12

    def both_sides(amp, vac, beta, alpha, lorentz_map):
        """The map on Alice's arm vs its inverse moved onto Bob's arm."""
        side_a = correlate(
            make_scn(amp, vac, beta, alpha, transform=alice_only_case(lorentz_map))
        )
        side_b = correlate(
            swap_roles(
                make_scn(
                    amp,
                    vac,
                    beta,
                    alpha,
                    transform=alice_only_case(bp.inverse(lorentz_map)),
                )
            )
        )
        return side_a, side_b

    rapid = bp.boost(1.0, X_HAT)
    beta = fitted_sum(fit11) + 1.2
    alpha = 0.25

    # stressed scenario: strongly sloped vacuum density, rapidity-1 boost
    # along Alice's acceptance axis - the two assignments must differ far
    # beyond the quadrature error
    a, b_side = both_sides(AMP11, z_mid, beta, alpha, rapid)
    gap = abs(a.value - b_side.value)
    assert gap > 10.0 * (a.err_estimate + b_side.err_estimate)

    # near-flat densities: the gap shrinks in proportion to the density
    # variation across the probed band
    probe_f = np.geomspace(0.18, 3.1, 64)
    probe_d = np.tile(Z_HAT, (64, 1))
    variations, gaps = [], []
    for width in (1.0, 2.0, 4.0):
        flat = normalize("log-normal-isotropic", {"scale": 0.75, "width": width})
        zvals = evaluate_batch(flat, probe_f, probe_d)
        variations.append(float(np.max(zvals) / np.min(zvals) - 1.0))
        fa, fb = both_sides(AMP21, flat, beta, alpha, rapid)
        gaps.append(abs(fa.value - fb.value))
    assert variations[0] > 10.0 * variations[-1]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] > 5.0 * gaps[2]
    ratios = [g / v for g, v in zip(gaps, variations)]
    assert max(ratios) <= 3.0 * min(ratios)


# --------------------------------------------------------------------------
# 9. deterministic output


_SWEEP_CONFIG = """\
scenario:
  state:
    kind: bell21
    theta:
      kind: fitted
  vacuum:
    family: power-exponential
    params: {exponent: 2.0, scale: 1.0}
  n_osc: "inf"
  bob:
    axis: [0.0, 0.0, 1.0]
    half_angle: 0.0349
    freq_lo: 0.5
    freq_hi: 2.0
    angle: 0.0
  alice:
    axis: [1.0, 0.0, 0.0]
    half_angle: 0.0349
    freq_lo: 0.5
    freq_hi: 2.0
    angle: 0.3
  transform:
    case: rest
sweep:
  variable: beta
  start: 0.0
  stop: 3.141592653589793
  count: 5
quadrature:
  n_freq: 4
  n_polar: 4
  n_azimuth: 6
"""


def test_criterion_09_byte_deterministic_output(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(_SWEEP_CONFIG)
    outputs = []
    for name, extra in (
        ("a.csv", []),
        ("b.csv", []),
        ("c.csv", ["--threads", "3"]),
    ):
        out = tmp_path / name
        rc = cli_main(
            ["correlate", str(cfg), "--out", str(out), "--seed", "7", *extra]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
