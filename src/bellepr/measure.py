"""Lorentz-invariant momentum measure, detector cones, and quadrature.

The invariant measure on the forward light cone is

    dGamma(k) = d^3k / ((2*pi)^3 * 2*|k|)
              = omega * d(omega) * d(Omega_sph) / (2*(2*pi)^3)

in spherical parametrization (omega = frequency, Omega_sph = solid angle).
Detector acceptance regions are cones: an axis, an angular half-opening,
and a frequency window.  Product quadrature uses Gauss-Legendre nodes in
cos(polar) and in omega (about the region axis) and a uniform periodic rule
in azimuth, which is spectrally accurate for smooth integrands.  A seeded
Monte Carlo mode provides an independent cross-check.

Boosted regions are never meshed: the correlators mesh the laboratory cone
and pull each node back with wigner_pullback (no Jacobian: the measure is
invariant); map_nodes, pushing nodes forward, serves only the benchmark tracer.

A region keeps the node sets meshed on it, one per QuadratureSpec, as
read-only arrays for as long as the region lives: scenarios and sweep rows
that share a region object mesh it once per rule.  A region built anew, or
by ``dataclasses.replace``, starts with none.

Semi-infinite frequency windows (freq_hi = inf) are supported for
normalization integrals via the substitution u = exp(-omega/scale), i.e.
omega = -scale*ln(u), with composite Gauss-Legendre panels on (0, 1].
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, PreconditionError
from .spinor_tetrad import LorentzMap, map_momenta

__all__ = [
    "DetectorRegion",
    "QuadratureSpec",
    "NodeSet",
    "invariant_node_set",
    "region_measure",
    "regions_disjoint",
    "map_nodes",
    "mapped_bounding_region",
    "full_sphere_region",
]

#: 1 / (2*(2*pi)^3): the constant prefactor of the invariant measure.
_MEASURE_CONST = 1.0 / (2.0 * (2.0 * math.pi) ** 3)

#: Largest finite freq_hi: the node rules square the window's ends.
_FREQ_MAX = math.sqrt(sys.float_info.max)

#: Number of dyadic Gauss-Legendre panels for semi-infinite radial rules.
#: Panel j covers u in [2^-(j+1), 2^-j]; the final panel covers the stub
#: [0, 2^-J].  48 panels put the effective truncation near omega = 33*scale.
_RADIAL_PANELS = 48


@dataclass(frozen=True)
class DetectorRegion:
    """Conical acceptance region: axis, angular half-opening, frequency window.

    ``half_angle`` may range up to pi (full sphere) so that the same type
    also describes hemispheres and all of momentum space; ``freq_hi`` may be
    ``inf`` for normalization integrals over all frequencies (in which case
    ``freq_lo`` must be 0 and only decaying integrands make sense).  The
    region keeps the node sets invariant_node_set builds on it.
    """

    axis: np.ndarray
    half_angle: float
    freq_lo: float
    freq_hi: float
    _node_sets: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ax = np.asarray(self.axis, dtype=np.float64).reshape(3)
        n = float(np.linalg.norm(ax))
        if not np.isfinite(n) or abs(n - 1.0) > 1e-9:
            raise InputError(f"region axis must be a unit 3-vector, got norm {n!r}")
        ax = ax / n
        ax.flags.writeable = False  # the kept node sets are meshed about it
        object.__setattr__(self, "axis", ax)
        if not (0.0 < self.half_angle <= math.pi):
            raise InputError(
                f"half_angle must lie in (0, pi], got {self.half_angle!r}"
            )
        if math.isinf(self.freq_hi):
            if self.freq_lo != 0.0:
                raise InputError(
                    "semi-infinite frequency window requires freq_lo = 0"
                )
        else:
            if not (0.0 <= self.freq_lo < self.freq_hi):
                raise InputError(
                    f"need 0 <= freq_lo < freq_hi, got [{self.freq_lo}, {self.freq_hi}]"
                )
            if self.freq_hi > _FREQ_MAX:
                raise InputError(
                    f"freq_hi {self.freq_hi!r} is beyond double range: its square overflows"
                )

    @property
    def is_semi_infinite(self) -> bool:
        return math.isinf(self.freq_hi)


def full_sphere_region(freq_lo: float = 0.0, freq_hi: float = math.inf) -> DetectorRegion:
    """All directions with the given frequency window (default: all momenta)."""
    return DetectorRegion(np.array([0.0, 0.0, 1.0]), math.pi, freq_lo, freq_hi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and mode for region quadrature.

    ``mode`` is "product" (deterministic Gauss-Legendre/uniform product rule)
    or "mc" (seeded Monte Carlo; requires a finite frequency window).
    ``radial_scale`` sets the decay scale of the omega = -scale*ln(u)
    substitution used for semi-infinite windows.  ``radial_map`` selects the
    finite-window frequency rule: "linear" (Gauss-Legendre in omega) or
    "log" (Gauss-Legendre in ln omega; requires freq_lo > 0), the latter
    suited to integrands spread over decades such as log-normal weights.
    """

    n_freq: int = 6
    n_polar: int = 4
    n_azimuth: int = 8
    mode: str = "product"
    seed: int = 0
    n_samples: int = 20000
    radial_scale: float = 1.0
    radial_map: str = "linear"

    def __post_init__(self) -> None:
        if self.mode not in ("product", "mc"):
            raise InputError(f"mode must be 'product' or 'mc', got {self.mode!r}")
        if min(self.n_freq, self.n_polar, self.n_azimuth) < 2:
            raise InputError("node counts must be >= 2")
        if self.mode == "mc" and self.n_samples < 2:
            raise InputError("n_samples must be >= 2")
        if not (self.radial_scale > 0.0):
            raise InputError("radial_scale must be positive")
        if self.radial_map not in ("linear", "log"):
            raise InputError(
                f"radial_map must be 'linear' or 'log', got {self.radial_map!r}"
            )
        if self.mode == "mc" and self.radial_map != "linear":
            raise InputError("mc mode supports only the linear radial map")

    def halved(self) -> "QuadratureSpec":
        """Spec with all node counts halved (floor 2); used for error estimates."""
        return replace(
            self,
            n_freq=max(2, self.n_freq // 2),
            n_polar=max(2, self.n_polar // 2),
            n_azimuth=max(2, self.n_azimuth // 2),
            n_samples=max(2, self.n_samples // 2),
        )


@dataclass(frozen=True)
class NodeSet:
    """Batch of quadrature nodes on the forward light cone, stored as arrays
    for vectorized evaluation.  Weights realize the invariant measure dGamma,
    so ``weights.sum()`` equals the region measure for finite product rules.
    """

    freqs: np.ndarray
    dirs: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.freqs.shape[0]


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per order
    and returned as read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(n: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]; interval ends
    given as (m, 1) arrays give one row of n nodes per interval."""
    x, w = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _radial_rule(
    freq_lo: float,
    freq_hi: float,
    n_freq: int,
    radial_scale: float,
    radial_map: str = "linear",
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights realizing integral( . d omega) over the frequency window.

    Finite windows use Gauss-Legendre in omega, or in ln(omega) when
    ``radial_map`` is "log" (freq_lo must then be positive, which no
    semi-infinite window has).  Semi-infinite windows use the substitution
    omega = -scale*ln(u) with composite Gauss-Legendre panels on dyadic
    subdivisions of (0, 1], which is near-exact for integrands with
    exponential (or faster-decaying-in-log) tails.
    """
    if radial_map == "log" and freq_lo <= 0.0:
        raise PreconditionError("log radial map requires a positive freq_lo")
    if not math.isinf(freq_hi):
        if radial_map == "log":
            t, wt = _gauss_legendre(n_freq, math.log(freq_lo), math.log(freq_hi))
            om = np.exp(t)
            return om, wt * om
        return _gauss_legendre(n_freq, freq_lo, freq_hi)
    hi = 2.0 ** -np.arange(_RADIAL_PANELS, dtype=np.float64)
    lo = hi / 2.0
    lo[-1] = 0.0
    u, wu = _gauss_legendre(n_freq, lo[:, None], hi[:, None])
    om = (-radial_scale * np.log(u)).ravel()
    wt = (radial_scale * wu / u).ravel()
    order = np.argsort(om, kind="stable")
    return om[order], wt[order]


def _axis_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing ``axis`` to a right-handed orthonormal frame."""
    x, y, z = axis.tolist()
    # ref x axis, then axis x e1, each in np.cross's operation order
    rx, ry, rz = (0.0, 0.0, 1.0) if abs(z) < 0.9 else (1.0, 0.0, 0.0)
    e1 = np.array([ry * z - rz * y, rz * x - rx * z, rx * y - ry * x])
    e1 /= np.linalg.norm(e1)
    a, b, c = e1.tolist()
    e2 = np.array([y * c - z * b, z * a - x * c, x * b - y * a])
    return e1, e2


def _cone_dirs(axis: np.ndarray, cosines: np.ndarray, azimuths: np.ndarray) -> np.ndarray:
    """Unit directions at polar cosines and azimuths about ``axis``.

    ``cosines`` and ``azimuths`` broadcast against each other; the result has
    their broadcast shape plus a trailing axis of length 3.
    """
    e1, e2 = _axis_frame(axis)
    sin_t = np.sqrt(np.clip(1.0 - cosines**2, 0.0, None))
    ca, sa = np.cos(azimuths), np.sin(azimuths)
    transverse = ca[..., None] * e1 + sa[..., None] * e2
    return sin_t[..., None] * transverse + cosines[..., None] * axis


def invariant_node_set(region: DetectorRegion, spec: QuadratureSpec) -> NodeSet:
    """Quadrature nodes and weights realizing dGamma over the region.

    Product mode: Gauss-Legendre in omega and cos(polar), uniform periodic
    rule in azimuth.  MC mode: seeded samples drawn from the measure itself
    (density proportional to omega * d omega * d cos * d phi), each carrying
    weight region_measure / n_samples.

    The set is built on the first call for a region and spec, kept on the
    region for its lifetime and returned as read-only arrays.  Two threads
    may both build it; they build the same arrays.
    """
    nodes = region._node_sets.get(spec)
    if nodes is None:
        nodes = _build_node_set(region, spec)
        for array in (nodes.freqs, nodes.dirs, nodes.weights):
            array.flags.writeable = False
        region._node_sets[spec] = nodes
    return nodes


def _build_node_set(region: DetectorRegion, spec: QuadratureSpec) -> NodeSet:
    if spec.mode == "mc":
        return _mc_node_set(region, spec)
    om, w_om = _radial_rule(
        region.freq_lo,
        region.freq_hi,
        spec.n_freq,
        spec.radial_scale,
        spec.radial_map,
    )
    cos_lo = math.cos(region.half_angle)
    cosines, w_cos = _gauss_legendre(spec.n_polar, cos_lo, 1.0)
    azimuths = 2.0 * math.pi * np.arange(spec.n_azimuth) / spec.n_azimuth
    w_az = 2.0 * math.pi / spec.n_azimuth

    dirs_grid = _cone_dirs(region.axis, cosines[:, None], azimuths[None, :])  # (nc, na, 3)
    nf, nc, na = om.size, cosines.size, azimuths.size
    freqs = np.repeat(om, nc * na)
    dirs = np.tile(dirs_grid.reshape(nc * na, 3), (nf, 1))
    w_grid = (om * w_om)[:, None, None] * w_cos[None, :, None] * w_az * _MEASURE_CONST
    weights = np.broadcast_to(w_grid, (nf, nc, na)).reshape(-1).copy()
    return NodeSet(freqs=freqs, dirs=dirs, weights=weights)


def _mc_node_set(region: DetectorRegion, spec: QuadratureSpec) -> NodeSet:
    if region.is_semi_infinite:
        raise PreconditionError(
            "Monte Carlo mode requires a finite frequency window"
        )
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    u = rng.random(n)
    freqs = np.sqrt(region.freq_lo**2 + u * (region.freq_hi**2 - region.freq_lo**2))
    cosines = math.cos(region.half_angle) + rng.random(n) * (
        1.0 - math.cos(region.half_angle)
    )
    azimuths = 2.0 * math.pi * rng.random(n)
    dirs = _cone_dirs(region.axis, cosines, azimuths)
    w = np.full(n, region_measure(region) / n)
    return NodeSet(freqs=freqs, dirs=dirs, weights=w)


def region_measure(region: DetectorRegion) -> float:
    """Closed-form invariant measure of a conical region.

    integral(dGamma) = [(freq_hi^2 - freq_lo^2)/2] * [2*pi*(1 - cos(half_angle))]
                       / (2*(2*pi)^3).
    """
    if region.is_semi_infinite:
        raise PreconditionError("region measure diverges for a semi-infinite window")
    radial = 0.5 * (region.freq_hi**2 - region.freq_lo**2)
    angular = 2.0 * math.pi * (1.0 - math.cos(region.half_angle))
    return radial * angular * _MEASURE_CONST


def map_nodes(lorentz_map: LorentzMap, nodes: NodeSet) -> NodeSet:
    """Push nodes forward through a Lorentz map; weights are unchanged.

    The frequency of each image node is recomputed as the norm of its spatial
    part, so image momenta are exactly null.
    """
    freqs, dirs = map_momenta(lorentz_map, nodes.freqs, nodes.dirs)
    return NodeSet(freqs=freqs, dirs=dirs, weights=nodes.weights)


def mapped_bounding_region(
    region: DetectorRegion, lorentz_map: LorentzMap
) -> DetectorRegion:
    """Cone of the image of ``region``'s directions under the map.

    Aberration maps circles on the sky to circles, so the image is exactly a
    cone.  The cone's directions d are the null momenta k = (1, d) with
    V.k <= 0 for the spacelike V = (cos(half_angle), axis); the map preserves
    the Minkowski product, so the image cone is V'.k' <= 0 with V' = L V: its
    axis is V'_space / |V'_space| and, as V'.V' = V.V = -sin^2(half_angle),
    its half-angle is atan2(sin(half_angle), V'_0).  The half-angle is grown
    by 1e-9 relative to cover rounding (floor 1e-9).  Only the directions of
    the returned region are meaningful (its frequency window is a
    placeholder)."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = lorentz_map.matrix @ np.concatenate(([math.cos(region.half_angle)], region.axis))
    if not np.isfinite(v).all():
        raise PreconditionError("the map takes a cone's bounding vector beyond double range")
    half = math.atan2(math.sin(region.half_angle), float(v[0])) * (1.0 + 1e-9)
    half = min(max(half, 1e-9), math.pi)
    # hypot, unlike a sum of squares, does not overflow for a finite vector
    return DetectorRegion(
        axis=v[1:] / math.hypot(*v[1:]), half_angle=half, freq_lo=0.5, freq_hi=2.0
    )


def regions_disjoint(a: DetectorRegion, b: DetectorRegion) -> bool:
    """True iff the angular cones are separated: angle between the axes
    exceeds the sum of the half-openings (sufficient for all coincident
    same-momentum contributions between the two regions to vanish)."""
    cosang = float(np.clip(np.dot(a.axis, b.axis), -1.0, 1.0))
    return math.acos(cosang) > a.half_angle + b.half_angle
