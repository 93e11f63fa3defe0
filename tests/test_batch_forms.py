"""Batch forms against their values at one momentum or one pair.

The pull-back pair, the Bell-condition residual, the theta-transport
residual, the covariance residual and the symmetry residual are each
computed once, over momentum batches.  The two-batch residuals are tables
over the 50 x 50 pair grid of two random momentum batches; each sampled
entry equals the 1 x 1 table of its own pair, so the grid's orientation is
fixed and no entry depends on the other momenta in its batch.  The
single-momentum forms that remain (wigner_phase, theta_wigner_residual) are
compared with their batch forms the same way.  With 5 random
boost-after-rotation maps, for the four Bell kinds and one
momentum-dependent general amplitude, both agree per momentum or pair within
1e-13 * max(1, |value|).
"""

import math

import numpy as np
import pytest

from bellepr.measure import DetectorRegion, QuadratureSpec, invariant_node_set
from bellepr.spinor_tetrad import (
    NullMomentum,
    boost,
    compose,
    inverse,
    map_momenta,
    rotation,
    wigner_phase,
    wigner_pullback,
    wrap_angle,
)
from bellepr.states import (
    BELL_CONDITIONS,
    TwoPhotonAmplitude,
    amplitude_pair_tables,
    azimuthal_field,
    condition_residuals,
    constant_field,
    covariance_residuals,
    field_values,
    symmetry_residuals,
    tabulated_field,
    theta_wigner_residual,
    theta_wigner_residuals,
    with_transform_field,
)

N_PAIRS = 50


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _momenta(rng, n):
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dirs[dirs[:, 2] < -0.9] *= -1.0  # stay clear of the chart cut at -z
    return rng.uniform(0.3, 3.0, size=n), dirs


def _ks(freqs, dirs):
    return [NullMomentum(float(f), d) for f, d in zip(freqs, dirs)]


RNG = np.random.default_rng(4242)
F1, D1 = _momenta(RNG, N_PAIRS)
F2, D2 = _momenta(RNG, N_PAIRS)
K1, K2 = _ks(F1, D1), _ks(F2, D2)
MAPS = [
    compose(
        boost(RNG.uniform(0.1, 1.5), _unit(RNG)),
        rotation(RNG.uniform(-math.pi, math.pi), _unit(RNG)),
    )
    for _ in range(5)
]

# momentum dependent and deliberately not exchange symmetric
GENERAL = TwoPhotonAmplitude(
    kind="general",
    table={
        (1, 1): lambda f1, d1, f2, d2: f1 * np.exp(1j * d2[..., 2]),
        (1, -1): lambda f1, d1, f2, d2: (f1 + 2.0 * f2) * d1[..., 0],
        (-1, 1): lambda f1, d1, f2, d2: np.sqrt(f1 * f2) * (1.0 + 0.5j * d2[..., 1]),
        (-1, -1): lambda f1, d1, f2, d2: 0.3 - 0.2j * d1[..., 2] * d2[..., 0],
    },
)
AMPLITUDES = [TwoPhotonAmplitude(kind=k) for k in ("bell11", "bell12", "bell21", "bell22")]
AMPLITUDES.append(GENERAL)
AMP_IDS = ["bell11", "bell12", "bell21", "bell22", "general"]

FIELDS = [
    constant_field(0.3),
    azimuthal_field(0.1, 1.0),
    tabulated_field(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.array([0.2, -0.4])),
    with_transform_field(azimuthal_field(-0.2, 0.5), MAPS[0]),
]


def assert_close(batch, scalar):
    assert abs(batch - scalar) <= 1e-13 * max(1.0, abs(scalar))


def grid_pairs():
    """(i, j) for each row i: the diagonal pair and an off-diagonal one, which
    fixes the grid's orientation."""
    for i in range(N_PAIRS):
        yield from ((i, i), (i, (7 * i + 3) % N_PAIRS))


def one_pair(i, j):
    """The pair (k_i, k'_j) as two batches of one: (f1, d1, f2, d2)."""
    return F1[i : i + 1], D1[i : i + 1], F2[j : j + 1], D2[j : j + 1]


def test_pullback_pair_matches_scalar_forms():
    for lam in MAPS:
        pre_f, pre_d, two_theta = wigner_pullback(lam, F1, D1)
        for i, k in enumerate(K1):
            img_f, img_d = map_momenta(inverse(lam), *k.as_batch)
            assert_close(pre_f[i], img_f[0])
            for c in range(3):
                assert_close(pre_d[i, c], img_d[0, c])
            assert_close(float(wrap_angle(two_theta[i] - wigner_phase(lam, k))), 0.0)


@pytest.mark.parametrize("amp", AMPLITUDES, ids=AMP_IDS)
def test_condition_residual_table_matches_scalar_form(amp):
    field = azimuthal_field(0.4, 1.0)
    tables = amplitude_pair_tables(amp, F1, D1, F2, D2)
    th1, th2 = field_values(field, F1, D1), field_values(field, F2, D2)
    for condition in BELL_CONDITIONS:
        res = condition_residuals(condition, tables, th1, th2)
        assert res.shape == (N_PAIRS, N_PAIRS)
        for i, j in grid_pairs():
            f1, d1, f2, d2 = one_pair(i, j)
            pair_tables = amplitude_pair_tables(amp, f1, d1, f2, d2)
            single = condition_residuals(
                condition, pair_tables, field_values(field, f1, d1), field_values(field, f2, d2)
            )
            assert_close(res[i, j], single[0, 0])


@pytest.mark.parametrize("field", FIELDS, ids=["constant", "azimuthal", "tabulated", "mapped"])
def test_theta_transport_residuals_match_scalar_form(field):
    freqs, dirs = np.concatenate([F1, F2]), np.concatenate([D1, D2])
    for lam in MAPS:
        res = theta_wigner_residuals(field, lam, freqs, dirs)
        for i, k in enumerate(K1 + K2):
            assert_close(res[i], theta_wigner_residual(field, lam, k))


@pytest.mark.parametrize("amp", AMPLITUDES, ids=AMP_IDS)
def test_covariance_residuals_match_scalar_form(amp):
    for lam in MAPS:
        res = covariance_residuals(amp, lam, F1, D1, F2, D2)
        assert res.shape == (N_PAIRS, N_PAIRS)
        for i, j in grid_pairs():
            assert_close(res[i, j], covariance_residuals(amp, lam, *one_pair(i, j))[0, 0])


@pytest.mark.parametrize("amp", AMPLITUDES, ids=AMP_IDS)
def test_symmetry_residuals_match_scalar_form(amp):
    res = symmetry_residuals(amp, F1, D1, F2, D2)
    assert res.shape == (N_PAIRS, N_PAIRS)
    for i, j in grid_pairs():
        assert_close(res[i, j], symmetry_residuals(amp, *one_pair(i, j))[0, 0])
    if amp is GENERAL:
        assert res.max() > 0.1  # the asymmetry is seen, not only roundoff


def test_theta_shift_diagnostic_is_the_scalar_maximum():
    # diagnose's theta-wigner-shift line is the batch residual's maximum over
    # the cones' node sets
    bob = DetectorRegion(np.array([0.0, 0.0, 1.0]), 0.2, 0.5, 2.0)
    alice = DetectorRegion(np.array([1.0, 0.0, 0.0]), 0.2, 0.5, 2.0)
    field = azimuthal_field(0.1, 1.0)
    nodes = [
        invariant_node_set(region, QuadratureSpec(n_freq=2, n_polar=2, n_azimuth=2))
        for region in (bob, alice)
    ]
    for lam in MAPS:
        worst = 0.0
        for n in nodes:
            assert len(n) == 8
            for f, d in zip(n.freqs, n.dirs):
                worst = max(worst, theta_wigner_residual(field, lam, NullMomentum(float(f), d)))
        batch = max(theta_wigner_residuals(field, lam, n.freqs, n.dirs).max() for n in nodes)
        assert_close(batch, worst)
