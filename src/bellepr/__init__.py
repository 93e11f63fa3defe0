"""Relativistic EPR correlators for two-photon Bell states.

Library layout:

- spinor_tetrad: Lorentz maps with SL(2,C) representatives, spin-frames,
  null tetrads, numerical Wigner phases.
- measure: Lorentz-invariant momentum measure, detector cone regions,
  deterministic quadrature (product rule or seeded Monte Carlo).
- vacuum: normalized vacuum probability densities Z(k) with Doppler-composed
  evaluation under Lorentz maps.
- states: two-photon helicity amplitudes, the four Bell-state constructors,
  polarization-angle fields, residual diagnostics.
- correlators: normalized EPR averages in the rest frame and in the two
  relativistic detector configurations.
- fock_oracle: brute-force finite-dimensional realization of the reducible
  N-oscillator representation on a small momentum grid.
- cli: scenario runner (`bellepr correlate|oracle-verify|diagnose`).
"""
from .measure import (
    DetectorRegion,
    NodeSet,
    QuadratureSpec,
    full_sphere_region,
    invariant_node_set,
    map_nodes,
    region_measure,
    regions_disjoint,
)

from .vacuum import (
    VacuumDensity,
    evaluate_batch,
    normalize,
    with_transform,
)

from .states import (
    FitResult,
    PolarizationAngleField,
    TwoPhotonAmplitude,
    amplitude_pair_tables,
    azimuthal_field,
    constant_field,
    field_values,
    fit_theta,
    tabulated_field,
    theta_wigner_residual,
    with_transform_field,
)

from .correlators import (
    DEFAULT_QUADRATURE,
    CorrelationResult,
    DetectorSetting,
    PreparedScenario,
    Scenario,
    TransformCase,
    alice_only_case,
    bound_check,
    correlate,
    joint_case,
    prepare,
    rest_case,
    swap_roles,
)

__version__ = "0.21.0"

from .errors import (
    ChartError,
    ConsistencyError,
    InputError,
    PreconditionError,
)
from .spinor_tetrad import (
    LorentzMap,
    NullMomentum,
    NullTetrad,
    boost,
    compose,
    identity_map,
    inverse,
    minkowski_dot,
    null_tetrad,
    rotation,
    tetrad_covariance_residual,
    tetrad_gauge_defect,
    wigner_phase,
    wrap_angle,
)

__all__ = [
    "__version__",
    # measure
    "DetectorRegion",
    "NodeSet",
    "QuadratureSpec",
    "full_sphere_region",
    "invariant_node_set",
    "map_nodes",
    "region_measure",
    "regions_disjoint",
    # vacuum
    "VacuumDensity",
    "evaluate_batch",
    "normalize",
    "with_transform",
    # states
    "FitResult",
    "PolarizationAngleField",
    "TwoPhotonAmplitude",
    "amplitude_pair_tables",
    "azimuthal_field",
    "constant_field",
    "field_values",
    "fit_theta",
    "tabulated_field",
    "theta_wigner_residual",
    "with_transform_field",
    # correlators
    "DEFAULT_QUADRATURE",
    "CorrelationResult",
    "DetectorSetting",
    "PreparedScenario",
    "Scenario",
    "TransformCase",
    "alice_only_case",
    "bound_check",
    "correlate",
    "joint_case",
    "prepare",
    "rest_case",
    "swap_roles",
    # errors
    "ChartError",
    "ConsistencyError",
    "InputError",
    "PreconditionError",
    # spinor_tetrad
    "LorentzMap",
    "NullMomentum",
    "NullTetrad",
    "boost",
    "compose",
    "identity_map",
    "inverse",
    "minkowski_dot",
    "null_tetrad",
    "rotation",
    "tetrad_covariance_residual",
    "tetrad_gauge_defect",
    "wigner_phase",
    "wrap_angle",
]
