"""Value rules of the library's constructors and argument checks: each bad
argument raises its documented exception with its own message."""

import math

import numpy as np
import pytest

from bellepr.errors import InputError, PreconditionError
from bellepr.fock_oracle import (
    DiscreteGrid,
    OracleSpace,
    OscillatorTruncation,
    epr_unnormalized,
    norm_reference,
    two_photon_vector,
)
from bellepr.measure import DetectorRegion, QuadratureSpec, invariant_node_set
from bellepr.spinor_tetrad import NullMomentum, boost, rotation
from bellepr.states import (
    TwoPhotonAmplitude,
    condition_residuals,
    pair_factors,
    tabulated_field,
)
from bellepr.vacuum import normalize

Z_HAT = np.array([0.0, 0.0, 1.0])
X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])


def _space():
    """Three-cell, two-oscillator oracle space (dimension 27^2)."""
    grid = DiscreteGrid([(NullMomentum(1.0, d), 0.5) for d in (Z_HAT, X_HAT, Y_HAT)])
    return OracleSpace(grid, OscillatorTruncation(), 2)


TABLES = {(1, -1): np.ones((3, 3)), (-1, 1): np.ones((3, 3))}
O_VALUES = [1.0, 1.0, 1.0]


def _general_slot(value):
    """pair_factors of a general amplitude with one slot, on batches of 3 and 2."""
    amp = TwoPhotonAmplitude(kind="general", table={(1, 1): value})
    f1, f2 = np.ones(3), np.ones(2)
    return pair_factors(amp, f1, np.tile(Z_HAT, (3, 1)), f2, np.tile(X_HAT, (2, 1)))


def _ones(r):
    return lambda freqs, dirs: np.ones((freqs.size, r))

#: name -> (call, exception, a fragment of the message)
VALUE_RULES = {
    "quadrature-mode": (lambda: QuadratureSpec(mode="grid"), InputError, "mode must be"),
    "quadrature-node-count": (lambda: QuadratureSpec(n_freq=1), InputError, "node counts"),
    "quadrature-mc-samples": (
        lambda: QuadratureSpec(mode="mc", n_samples=1), InputError, "n_samples must be >= 2"
    ),
    "quadrature-radial-scale": (
        lambda: QuadratureSpec(radial_scale=0.0), InputError, "radial_scale must be positive"
    ),
    "quadrature-radial-map": (
        lambda: QuadratureSpec(radial_map="cubic"), InputError, "radial_map must be"
    ),
    "quadrature-mc-log-map": (
        lambda: QuadratureSpec(mode="mc", radial_map="log"), InputError, "only the linear"
    ),
    "log-map-from-zero-frequency": (
        lambda: invariant_node_set(
            DetectorRegion(Z_HAT, 0.1, 0.0, 2.0), QuadratureSpec(radial_map="log")
        ),
        PreconditionError,
        "positive freq_lo",
    ),
    "log-map-on-semi-infinite-window": (
        lambda: invariant_node_set(
            DetectorRegion(Z_HAT, 0.1, 0.0, math.inf), QuadratureSpec(radial_map="log")
        ),
        PreconditionError,
        "positive freq_lo",
    ),
    "amplitude-kind": (
        lambda: TwoPhotonAmplitude(kind="bell33"), InputError, "unknown amplitude kind"
    ),
    "general-slot-pair-function": (
        lambda: _general_slot(lambda f1, d1, f2, d2: f1 * f2),
        InputError,
        r"a number or a pair \(rows, cols\) of batch functions, not <function",
    ),
    "general-slot-factor-shape": (
        lambda: _general_slot((lambda freqs, dirs: freqs, _ones(1))),
        InputError,
        r"arrays of one width r for n = \(3, 2\), got \(3,\) and \(2, 1\)",
    ),
    "general-slot-factor-width": (
        lambda: _general_slot((_ones(2), _ones(3))),
        InputError,
        r"arrays of one width r for n = \(3, 2\), got \(3, 2\) and \(2, 3\)",
    ),
    "general-without-table": (
        lambda: TwoPhotonAmplitude(kind="general"), InputError, "needs a table of slots"
    ),
    "tabulated-length-mismatch": (
        lambda: tabulated_field(np.stack([Z_HAT, X_HAT]), np.array([0.1])),
        InputError,
        "axes/values length mismatch",
    ),
    "condition-number": (
        lambda: condition_residuals(13, {}, np.zeros(1), np.zeros(1)),
        InputError,
        "condition must be one of",
    ),
    "log-normal-params": (
        lambda: normalize("log-normal-isotropic", {"scale": 1.0}),
        InputError,
        "log-normal-isotropic takes params",
    ),
    "boost-axis-not-unit": (lambda: boost(0.5, [0.0, 0.0, 2.0]), InputError, "unit 3-vector"),
    "boost-axis-nan": (lambda: boost(0.5, [math.nan, 0.0, 1.0]), InputError, "unit 3-vector"),
    "boost-rapidity": (lambda: boost(math.inf, Z_HAT), InputError, "rapidity must be finite"),
    "rotation-axis-not-unit": (lambda: rotation(0.3, [0.0, 0.5, 0.0]), InputError, "unit 3"),
    "rotation-angle": (lambda: rotation(math.nan, Z_HAT), InputError, "angle must be finite"),
    "grid-cell-momentum": (
        lambda: DiscreteGrid([((1.0, Z_HAT), 0.5)]), InputError, "must be a NullMomentum"
    ),
    "grid-empty": (lambda: DiscreteGrid([]), InputError, "at least one cell"),
    "cutoff-not-integer": (
        lambda: OscillatorTruncation(2.0), InputError, "max_occupation must be an integer"
    ),
    "oracle-tables-empty": (
        lambda: two_photon_vector(_space(), {}, O_VALUES), InputError, "tables are empty"
    ),
    "oracle-density-count": (
        lambda: norm_reference(_space(), TABLES, [1.0, 1.0]), InputError, "one density value"
    ),
    "oracle-density-negative": (
        lambda: norm_reference(_space(), TABLES, [1.0, -1.0, 1.0]),
        InputError,
        "density values must be nonnegative",
    ),
    "oracle-subset-empty": (
        lambda: epr_unnormalized(_space(), TABLES, O_VALUES, [], [1], 0.0, 0.0),
        InputError,
        "detector cell subset is empty",
    ),
    "oracle-subset-duplicates": (
        lambda: epr_unnormalized(_space(), TABLES, O_VALUES, [0, 0], [1], 0.0, 0.0),
        InputError,
        "detector cell subset contains duplicates",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_RULES))
def test_value_rule_raises_its_error(name):
    call, error, fragment = VALUE_RULES[name]
    with pytest.raises(error, match=fragment):
        call()
