"""Single-moving-detector asymmetry witness.

Boosting Alice's detector by a map and boosting Bob's by its inverse are
physically different experiments, and with an anisotropic vacuum density
they give different correlation values.  This script evaluates both sides
for a rapidity-1 boost along Alice's acceptance axis under a strongly
sloped density, then repeats the comparison for the circularly-correlated
pair under progressively flatter densities to show the gap closing.

Run: python3 demos/frame_asymmetry_witness.py
"""

import math

import numpy as np

from bellepr.correlators import (
    DetectorSetting,
    Scenario,
    alice_only_case,
    correlate,
    swap_roles,
)
from bellepr.measure import DetectorRegion, QuadratureSpec
from bellepr.spinor_tetrad import boost, inverse
from bellepr.states import TwoPhotonAmplitude, fit_theta
from bellepr.vacuum import evaluate_batch, normalize

QUAD = QuadratureSpec(n_freq=6, n_polar=4, n_azimuth=8)
BOB = DetectorRegion(
    axis=np.array([0.0, 0.0, 1.0]), half_angle=0.0349, freq_lo=0.5, freq_hi=2.0
)
ALICE = DetectorRegion(
    axis=np.array([1.0, 0.0, 0.0]), half_angle=0.0349, freq_lo=0.5, freq_hi=2.0
)


def both_sides(amp, vac, beta, alpha, lorentz_map):
    """The single-arm case with the map on Alice vs the inverse map on Bob's side."""
    base = Scenario(
        amplitude=amp,
        vacuum=vac,
        bob=DetectorSetting(region=BOB, angle=beta),
        alice=DetectorSetting(region=ALICE, angle=alpha),
        n_osc=math.inf,
        theta_field=None,
        transform=alice_only_case(lorentz_map),
        quadrature=QUAD,
    )
    side_a = correlate(base)
    swapped = swap_roles(
        Scenario(
            amplitude=amp,
            vacuum=vac,
            bob=DetectorSetting(region=BOB, angle=beta),
            alice=DetectorSetting(region=ALICE, angle=alpha),
            n_osc=math.inf,
            theta_field=None,
            transform=alice_only_case(inverse(lorentz_map)),
            quadrature=QUAD,
        )
    )
    side_b = correlate(swapped)
    return side_a, side_b


def main():
    rapid = boost(1.0, np.array([1.0, 0.0, 0.0]))

    amp11 = TwoPhotonAmplitude(kind="bell11")
    fit = fit_theta(amp11, 11, BOB, ALICE, spec=QUAD)
    theta_sum = sum(fit.field.values)
    beta, alpha = float(theta_sum) + 1.2, 0.25

    sloped = normalize("power-exponential", {"exponent": 2.0, "scale": 1.0})
    a, b = both_sides(amp11, sloped, beta, alpha, rapid)
    err = a.err_estimate + b.err_estimate
    print("stressed witness (linearly-sensitive pair, sloped density):")
    print(f"  map on Alice : {a.value:+.6f}")
    print(f"  inverse on Bob: {b.value:+.6f}")
    print(f"  |difference| = {abs(a.value - b.value):.4e}  ({abs(a.value - b.value) / err:.0f}x combined error)")

    print("\nflat-density limit (circularly-correlated pair):")
    amp21 = TwoPhotonAmplitude(kind="bell21")
    probe_f = np.geomspace(0.18, 3.1, 64)
    probe_d = np.tile(np.array([0.0, 0.0, 1.0]), (64, 1))
    for width in (1.0, 2.0, 4.0):
        flat = normalize(
            "log-normal-isotropic", {"scale": 0.75, "width": width}
        )
        zvals = evaluate_batch(flat, probe_f, probe_d)
        variation = float(np.max(zvals) / np.min(zvals) - 1.0)
        a, b = both_sides(amp21, flat, beta, alpha, rapid)
        print(
            f"  width {width:>3.0f}: density variation {variation:9.3e}  "
            f"|difference| {abs(a.value - b.value):9.3e}"
        )


if __name__ == "__main__":
    main()
