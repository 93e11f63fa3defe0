"""Vacuum probability densities Z(k) on the light cone.

Two isotropic families are provided, both vanishing at zero frequency and
decaying at infinity:

* ``power-exponential``: Z(k) = c * omega^p * exp(-omega/scale), p >= 1
* ``log-normal-isotropic``: Z(k) = c * exp(-ln(omega/scale)^2 / (2*width^2))

The constant c (``norm_const``) is fixed by the invariant-measure
normalization integral(dGamma(k) Z(k)) = 1, computed with the semi-infinite
radial rule of the measure module.  Closed forms exist for both families and
are used as independent oracles in the test suite:

* power-exponential: c = 4*pi^2 / (Gamma(p+2) * scale^(p+2))
* log-normal-isotropic: c = 4*pi^2 / (scale^2 * sqrt(2*pi) * width * exp(2*width^2))

A density may carry a composed Lorentz map: evaluation then returns
Z(Lambda^-1 k), the Doppler-deformed density of a transformed vacuum.
Normalization is automatically preserved under composition because the
measure is invariant.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .measure import QuadratureSpec, full_sphere_region, invariant_node_set
from .spinor_tetrad import LorentzMap, NullMomentum, compose, inverse, map_momenta

__all__ = [
    "VacuumDensity",
    "normalize",
    "evaluate",
    "evaluate_batch",
    "with_transform",
]

_FAMILIES = ("power-exponential", "log-normal-isotropic")

#: Default node counts of the normalization integral.
_NORM_SPEC = QuadratureSpec(n_freq=20, n_polar=2, n_azimuth=2)


@dataclass(frozen=True)
class VacuumDensity:
    """Normalized vacuum density; immutable and freely shareable.

    ``params`` is a tuple of (name, value) pairs; ``lorentz_map`` (optional)
    composes the density with an inverse map on evaluation.
    """

    family: str
    params: tuple[tuple[str, float], ...]
    norm_const: float
    lorentz_map: LorentzMap | None = None


def _radial_profile(family: str, params: dict[str, float], omega: np.ndarray) -> np.ndarray:
    """Unnormalized radial profile of the family at frequencies ``omega``."""
    if family == "power-exponential":
        p, scale = params["exponent"], params["scale"]
        return omega**p * np.exp(-omega / scale)
    if family == "log-normal-isotropic":
        scale, width = params["scale"], params["width"]
        out = np.zeros_like(omega)
        pos = omega > 0
        out[pos] = np.exp(-np.log(omega[pos] / scale) ** 2 / (2.0 * width**2))
        return out
    raise InputError(f"unknown vacuum family {family!r}")


def _default_radial_scale(family: str, params: dict[str, float]) -> float:
    if family == "power-exponential":
        return params["scale"]
    # log-normal mass concentrates around scale*exp(2*width^2) against the
    # omega-weighted measure; pad the map scale accordingly
    return params["scale"] * math.exp(2.0 * params["width"] ** 2 + params["width"])


def _validate_params(family: str, params: dict[str, float]) -> None:
    if family == "power-exponential":
        if set(params) != {"exponent", "scale"}:
            raise InputError(
                "power-exponential takes params {'exponent', 'scale'}, got "
                f"{sorted(params)}"
            )
        if not (params["exponent"] >= 1.0):
            raise InputError("exponent must be >= 1 (zero limit at the origin)")
        if not (params["scale"] > 0.0):
            raise InputError("scale must be positive")
    elif family == "log-normal-isotropic":
        if set(params) != {"scale", "width"}:
            raise InputError(
                "log-normal-isotropic takes params {'scale', 'width'}, got "
                f"{sorted(params)}"
            )
        if not (params["scale"] > 0.0 and params["width"] > 0.0):
            raise InputError("scale and width must be positive")
    else:
        raise InputError(
            f"unknown vacuum family {family!r}; choose one of {_FAMILIES}"
        )


def normalize(family: str, params: dict[str, float]) -> VacuumDensity:
    """Construct a density with norm_const fixed so integral(dGamma Z) = 1.

    The normalization integral is evaluated with the semi-infinite radial
    product rule of ``_NORM_SPEC`` at a family-appropriate decay scale.
    """
    _validate_params(family, params)
    no_norm = InputError(f"family {family!r} with params {params} has no finite positive norm")
    try:
        radial_scale = _default_radial_scale(family, params)
    except OverflowError as exc:  # the mass sits beyond the double range
        raise no_norm from exc
    quad = dataclasses.replace(_NORM_SPEC, radial_scale=radial_scale)
    # a profile that overflows at some node makes the total non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = invariant_node_set(full_sphere_region(), quad)
        total = float(np.sum(_radial_profile(family, params, nodes.freqs) * nodes.weights))
    if not (total > 0.0) or not np.isfinite(total):
        raise no_norm
    return VacuumDensity(
        family=family,
        params=tuple(sorted(params.items())),
        norm_const=1.0 / total,
    )


def evaluate_batch(z: VacuumDensity, freqs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Z at a batch of momenta (frequency array + unit-direction array).

    With a composed map attached this is Z(Lambda^-1 k): the momenta are
    pulled back through the inverse map before the radial profile is read.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    if z.lorentz_map is not None:
        freqs, _ = map_momenta(inverse(z.lorentz_map), freqs, dirs)
    params = dict(z.params)
    return z.norm_const * _radial_profile(z.family, params, freqs)


def evaluate(z: VacuumDensity, k: NullMomentum) -> float:
    """Z at a single momentum (Z(Lambda^-1 k) when a map is attached)."""
    val = evaluate_batch(z, *k.as_batch)
    return float(val[0])


def with_transform(z: VacuumDensity, lorentz_map: LorentzMap) -> VacuumDensity:
    """Density of the transformed vacuum: evaluates as Z(Lambda^-1 k).

    Composes with any previously attached map; normalization is preserved
    because the measure is Lorentz invariant.
    """
    new_map = (
        lorentz_map
        if z.lorentz_map is None
        else compose(lorentz_map, z.lorentz_map)
    )
    return VacuumDensity(
        family=z.family,
        params=z.params,
        norm_const=z.norm_const,
        lorentz_map=new_map,
    )
