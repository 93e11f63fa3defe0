"""Criterion 7's second picture of a joint scenario, summed on dense tables.

The engine evaluates a joint scenario on the detector side: the state and
the vacuum read at the pulled-back momenta L^-1 k, and each arm's analyzer
angle shifted per node by minus the Wigner phase 2 Theta(L, k) that
``wigner_pullback`` reads off the spinors.  Here the same correlation is
summed on the vacuum side, on a route that shares neither ``pair_factors``
nor ``wigner_pullback`` with the engine:

* the pre-images come from ``map_momenta`` under the inverse map, and the
  slot tables are the dense closed form ``amplitude_pair_tables`` there;
* each slot (s, s') is transported by e^{-2is Theta(L,k)} e^{-2is' Theta(L,k')},
  with e^{2i Theta} read off the transformed null tetrad,
  (L m(L^-1 k)).mbar(k) / (m(k).mbar(k));
* the analyzer angles are the plain settings and the vacuum is
  ``with_transform(z, L)`` at the laboratory nodes;
* numerator and denominator are summed over the dense pair grid.

Dense tables keep this to a few thousand nodes per cone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from bellepr.correlators import correlate, rest_case
from bellepr.measure import invariant_node_set
from bellepr.spinor_tetrad import batch_null_tetrads, inverse, map_momenta, minkowski_dot
from bellepr.states import BELL_CONDITIONS, amplitude_pair_tables, oscillator_factors
from bellepr.vacuum import evaluate_batch, with_transform

#: Roundoff floor of a halved-rule error bar, as the engine's err_estimate has it.
ERR_FLOOR = 64.0 * np.finfo(np.float64).eps


def tetrad_phases(lorentz_map, freqs, dirs) -> np.ndarray:
    """e^{2i Theta(L, k)} at momenta k from the transformed tetrad:
    (L m(L^-1 k)).mbar(k) / (m(k).mbar(k)); the k-collinear gauge part of
    L m(L^-1 k) drops out because k.mbar(k) = 0."""
    pre = map_momenta(inverse(lorentz_map), freqs, dirs)
    moved = batch_null_tetrads(*pre).m_vec @ lorentz_map.matrix.T
    lab = batch_null_tetrads(freqs, dirs)
    return minkowski_dot(moved, lab.mbar_vec) / minkowski_dot(lab.m_vec, lab.mbar_vec)


def vacuum_side_sums(scn, spec=None) -> tuple[float, float]:
    """(numerator, denominator) of a joint scenario in the vacuum-side
    picture at the quadrature rule ``spec`` (the scenario's own by default)."""
    m = scn.transform.lorentz_map
    spec = scn.quadrature if spec is None else spec
    z = with_transform(scn.vacuum, m)
    arms = []
    for region in (scn.bob.region, scn.alice.region):
        nodes = invariant_node_set(region, spec)
        pre = map_momenta(inverse(m), nodes.freqs, nodes.dirs)
        u = nodes.weights * evaluate_batch(z, nodes.freqs, nodes.dirs)
        arms.append((pre, u, tetrad_phases(m, nodes.freqs, nodes.dirs)))
    first_fac, cross_fac, num_fac = oscillator_factors(scn.n_osc)

    (pre_b, ub, ph_b), (pre_a, ua, ph_a) = arms
    transported = {
        (s, sp): ph_b[:, None] ** -s * ph_a[None, :] ** -sp * table
        for (s, sp), table in amplitude_pair_tables(scn.amplitude, *pre_b, *pre_a).items()
    }
    total = 0.0 + 0.0j
    for cond in (BELL_CONDITIONS[21], BELL_CONDITIONS[11]):
        plus, minus = cond.slots
        if plus in transported and minus in transported:
            product = np.conj(transported[plus]) * transported[minus]
            bob_phase = np.exp(-2.0j * scn.bob.angle)
            alice_phase = np.exp(-2.0j * cond.coupling * scn.alice.angle)
            total += (ub * bob_phase) @ product @ (ua * alice_phase)
    num = num_fac * total.real

    # |psi|^2 carries no transport phase: the same-momentum term over each
    # cone and every ordered cone pair
    den = 0.0
    for i, (pre_i, u_i, _) in enumerate(arms):
        for j, (pre_j, u_j, _) in enumerate(arms):
            for table in amplitude_pair_tables(scn.amplitude, *pre_i, *pre_j).values():
                den += cross_fac * float(u_i @ np.abs(table) ** 2 @ u_j)
                if i == j:
                    den += first_fac * float(np.sum(np.abs(np.diagonal(table)) ** 2 * u_i))
    return num, den


def vacuum_side_value(scn) -> tuple[float, float]:
    """The vacuum-side correlation of a joint scenario and its error bar:
    the full-rule vs halved-rule difference plus the roundoff floor."""
    num, den = vacuum_side_sums(scn)
    half_num, half_den = vacuum_side_sums(scn, scn.quadrature.halved())
    value = num / den
    return value, abs(value - half_num / half_den) + ERR_FLOOR * (1.0 + abs(value))


def pictures_agree(scn) -> bool:
    """Criterion 7: the engine's detector-side value and the vacuum-side
    value agree within their combined quadrature error."""
    result = correlate(scn)
    value, err = vacuum_side_value(scn)
    return abs(result.value - value) <= result.err_estimate + err


def realized_gap(scn) -> float:
    """|E - E'| for a joint scenario: E its value, E' the rest value of the
    same state read at the laboratory momenta with the vacuum composed with
    the map (the amplitude family's transport defect)."""
    rest = dataclasses.replace(
        scn, transform=rest_case(), vacuum=with_transform(scn.vacuum, scn.transform.lorentz_map)
    )
    return abs(correlate(scn).value - correlate(rest).value)
