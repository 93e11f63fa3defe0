"""Four-vector algebra, SL(2,C) Lorentz maps, spin-frames, null tetrads, Wigner phases.

Metric signature is (+,-,-,-). A null momentum k = omega*(1, dir) is represented
by its frequency and unit direction. Lorentz maps carry a 4x4 matrix together
with an SL(2,C) representative built from the same generator parameters, so the
pair is consistent by construction.

The spinor chart is the half-angle chart with its cut at dir = -z:

    pi(k)   = sqrt(2 omega) * (cos(t/2), sin(t/2) e^{i phi})
    omic(k) = (-sin(t/2) e^{-i phi}, cos(t/2)) / sqrt(2 omega)

with (t, phi) the polar coordinates of dir. The pair (pi, omic) has unit
symplectic pairing det2(pi, omic) = 1, and pi's flagpole reproduces k:
pi pi^dag = K(k) = k0*I + k.sigma.

The null tetrad (k, q, m, mbar) is built from spinor outer products:
k ~ pi pi^dag, q ~ omic omic^dag, m ~ omic (x) conj(pi). It satisfies
k.k = q.q = m.m = k.m = q.m = 0, k.q = 1, m.mbar = -1.

The Wigner phase 2*Theta(L, k) is extracted numerically from
A pi(L^-1 k) = e^{-i Theta(L,k)} pi(k); only 2*Theta mod 2pi is exposed
because the +/-A double-cover ambiguity shifts Theta by pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartError, ConsistencyError, InputError, PreconditionError

__all__ = [
    "NullMomentum",
    "LorentzMap",
    "NullTetrad",
    "minkowski_dot",
    "identity_map",
    "boost",
    "rotation",
    "compose",
    "inverse",
    "map_momenta",
    "null_tetrad",
    "wigner_phase",
    "batch_spinors",
    "batch_spin_frames",
    "batch_m_vectors",
    "wigner_pullback",
    "wigner_defined",
    "wrap_angle",
    "tetrad_covariance_residual",
    "tetrad_gauge_defect",
]

_CHART_TOL = 1e-9

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=np.complex128,
)


def wrap_angle(x):
    """Reduce an angle (or array of angles) to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


def minkowski_dot(u, v) -> complex:
    """Signature (+,-,-,-) inner product of two four-vectors (complex allowed)."""
    u = np.asarray(u)
    v = np.asarray(v)
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]


def _unit3(axis) -> np.ndarray:
    a = np.asarray(axis, dtype=np.float64).reshape(3)
    n = math.sqrt(float(a @ a))
    if not math.isfinite(n) or abs(n - 1.0) > 1e-10:
        raise InputError(f"axis must be a unit 3-vector, got |axis| = {n!r}")
    return a / n


@dataclass(frozen=True)
class NullMomentum:
    """Forward null four-vector: freq > 0 and a unit direction."""

    freq: float
    dir: np.ndarray

    def __post_init__(self):
        f = float(self.freq)
        if not (math.isfinite(f) and f > 0.0):
            raise InputError(f"freq must be positive and finite, got {self.freq!r}")
        d = np.asarray(self.dir, dtype=np.float64).reshape(3)
        n = math.sqrt(float(d @ d))
        if abs(n - 1.0) > 1e-12:
            raise InputError(f"|dir| must be 1 within 1e-12, got {n!r}")
        object.__setattr__(self, "freq", f)
        object.__setattr__(self, "dir", d)
        self.dir.setflags(write=False)

    @property
    def four_vec(self) -> np.ndarray:
        """k = freq*(1, dir); satisfies k.k = 0 exactly by construction."""
        return np.concatenate(([self.freq], self.freq * self.dir))

    @property
    def as_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """The momentum as a batch of one: frequencies (1,), directions (1, 3)."""
        return np.array([self.freq]), self.dir.reshape(1, 3)


@dataclass(frozen=True)
class LorentzMap:
    """Proper orthochronous transformation: 4x4 matrix + SL(2,C) representative."""

    matrix: np.ndarray
    sl2c: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64).reshape(4, 4)
        a = np.asarray(self.sl2c, dtype=np.complex128).reshape(2, 2)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sl2c", a)
        self.matrix.setflags(write=False)
        self.sl2c.setflags(write=False)


def identity_map() -> LorentzMap:
    return LorentzMap(np.eye(4), np.eye(2, dtype=np.complex128))


def boost(rapidity: float, axis) -> LorentzMap:
    """Pure boost with the given rapidity along a unit axis.

    Acting on momenta: a momentum parallel to the axis has its frequency scaled
    by e^rapidity.
    """
    eta = float(rapidity)
    if not math.isfinite(eta):
        raise InputError(f"rapidity must be finite, got {rapidity!r}")
    n = _unit3(axis)
    try:
        ch, sh = math.cosh(eta), math.sinh(eta)
    except OverflowError as exc:
        raise InputError(f"rapidity {eta!r} puts cosh and sinh beyond double range") from exc
    mat = np.eye(4)
    mat[0, 0] = ch
    mat[0, 1:] = sh * n
    mat[1:, 0] = sh * n
    mat[1:, 1:] += (ch - 1.0) * np.outer(n, n)
    nsig = n[0] * _SIGMA[0] + n[1] * _SIGMA[1] + n[2] * _SIGMA[2]
    a = math.cosh(eta / 2.0) * np.eye(2, dtype=np.complex128) + math.sinh(eta / 2.0) * nsig
    return LorentzMap(mat, a)


def rotation(angle: float, axis) -> LorentzMap:
    """Active right-handed rotation by `angle` about a unit axis."""
    chi = float(angle)
    if not math.isfinite(chi):
        raise InputError(f"angle must be finite, got {angle!r}")
    n = _unit3(axis)
    c, s = math.cos(chi), math.sin(chi)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    r3 = c * np.eye(3) + s * cross + (1.0 - c) * np.outer(n, n)
    mat = np.eye(4)
    mat[1:, 1:] = r3
    nsig = n[0] * _SIGMA[0] + n[1] * _SIGMA[1] + n[2] * _SIGMA[2]
    a = math.cos(chi / 2.0) * np.eye(2, dtype=np.complex128) - 1.0j * math.sin(chi / 2.0) * nsig
    return LorentzMap(mat, a)


def compose(a: LorentzMap, b: LorentzMap) -> LorentzMap:
    """Map that applies b first, then a (matrix product a.b)."""
    return LorentzMap(a.matrix @ b.matrix, a.sl2c @ b.sl2c)


def inverse(a: LorentzMap) -> LorentzMap:
    """Exact inverse: eta L^T eta for the matrix, adjugate for the unit-det sl2c."""
    minv = _ETA @ a.matrix.T @ _ETA
    s = a.sl2c
    sinv = np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]], dtype=np.complex128)
    return LorentzMap(minv, sinv)


def map_momenta(
    a: LorentzMap, freqs: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Image momenta L k for arrays of momenta: frequencies (...,) and unit
    directions (..., 3).

    The image frequency is recomputed as the norm of the spatial part, so the
    image momenta are exactly null; it stays positive for orthochronous maps.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    four = np.empty(freqs.shape + (4,))
    four[..., 0] = freqs
    four[..., 1:] = freqs[..., None] * dirs
    img = four @ a.matrix.T
    img_freqs = np.linalg.norm(img[..., 1:], axis=-1)
    return img_freqs, img[..., 1:] / img_freqs[..., None]


@dataclass(frozen=True)
class NullTetrad:
    """Null tetrad (k, q, m, mbar) derived from the spin-frame at k."""

    k_vec: np.ndarray
    q_vec: np.ndarray
    m_vec: np.ndarray
    mbar_vec: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.mbar_vec is None:
            object.__setattr__(self, "mbar_vec", np.conj(self.m_vec))


def _on_cut(dirs: np.ndarray) -> np.ndarray:
    """True where a unit direction lies within 1e-9 of the chart cut at -z."""
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    return dx * dx + dy * dy + (dz + 1.0) ** 2 < _CHART_TOL * _CHART_TOL


def batch_spinors(freqs: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart spinor components (p0, p1) for arrays of momenta.

    freqs: (...,), dirs: (..., 3).  Uses the closed forms
    p0 = sqrt(omega (1+dz)), p1 = sqrt(omega/(1+dz)) (dx + i dy),
    which satisfy the flagpole identity exactly.  Raises ChartError when a
    direction lies within 1e-9 of the chart cut at -z.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    if np.any(_on_cut(dirs)):
        raise ChartError(
            "a momentum direction lies on the spinor chart cut (within 1e-9 of -z); "
            "rotate the scene away from the excluded direction"
        )
    opz = 1.0 + dz
    p0 = np.sqrt(freqs * opz).astype(np.complex128)
    p1 = np.sqrt(freqs / opz) * (dx + 1.0j * dy)
    return p0, p1


def batch_spin_frames(
    freqs: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spin-frame components (p0, p1, o0, o1) for arrays of momenta.

    The pairing p0*o1 - p1*o0 = 1 holds exactly for every entry.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    p0, p1 = batch_spinors(freqs, dirs)
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    opz = 1.0 + dz
    # omic = (-sin(t/2) e^{-i phi}, cos(t/2)) / sqrt(2 w), written smoothly
    o0 = -(dx - 1.0j * dy) / (2.0 * np.sqrt(freqs * opz))
    o1 = (np.sqrt(opz / freqs) / 2.0).astype(np.complex128)
    return p0, p1, o0, o1


def _vector_of_matrix(m00, m01, m10, m11, c) -> np.ndarray:
    """Four-vectors (..., 4) of 2x2 matrices under the Pauli map K(v) = v0 I + v.sigma."""
    return np.stack(
        [
            c * (m00 + m11),
            c * (m01 + m10),
            1.0j * c * (m01 - m10),
            c * (m00 - m11),
        ],
        axis=-1,
    )


def _m_legs(p0, p1, o0, o1) -> np.ndarray:
    """Tetrad leg m ~ omic (x) conj(pi) of spin-frame components."""
    pc0, pc1 = np.conj(p0), np.conj(p1)
    return _vector_of_matrix(o0 * pc0, o0 * pc1, o1 * pc0, o1 * pc1, 0.5 * math.sqrt(2.0))


def batch_m_vectors(freqs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Tetrad legs m(k_i) as an (n, 4) complex array."""
    return _m_legs(*batch_spin_frames(freqs, dirs))


def null_tetrad(k: NullMomentum) -> NullTetrad:
    """Null tetrad at k, all four legs built from the spin-frame."""
    p0, p1, o0, o1 = batch_spin_frames(*k.as_batch)
    pc0, pc1, oc0, oc1 = np.conj(p0), np.conj(p1), np.conj(o0), np.conj(o1)
    k_vec = _vector_of_matrix(p0 * pc0, p0 * pc1, p1 * pc0, p1 * pc1, 0.5).real
    q_vec = _vector_of_matrix(o0 * oc0, o0 * oc1, o1 * oc0, o1 * oc1, 1.0).real
    m_vec = _m_legs(p0, p1, o0, o1)
    return NullTetrad(k_vec=k_vec[0], q_vec=q_vec[0], m_vec=m_vec[0])


def wigner_pullback(
    a: LorentzMap, freqs: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-images L^-1 k_i (the map_momenta image under the inverse map) and
    Wigner phases 2*Theta(L, k_i) in (-pi, pi] for frequencies (...,) and unit
    directions (..., 3): returns (pre freqs, pre dirs, phases).  The phase is
    read off s = A pi(L^-1 k) = e^{-i Theta} pi(k).  Raises ChartError when k
    or L^-1 k lies on the chart cut (see wigner_defined), PreconditionError
    when L^-1 k overflows.  When s misses pi(k) by 1e-8 relative or more (or
    by NaN), raises PreconditionError where the check's own rounding reaches
    1e-8, ConsistencyError elsewhere."""
    freqs = np.asarray(freqs, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    with np.errstate(all="ignore"):  # a map beyond double range overflows to NaN
        pre_freqs, pre_dirs = map_momenta(inverse(a), freqs, dirs)
        if not (np.isfinite(pre_freqs).all() and np.isfinite(pre_dirs).all()):
            raise PreconditionError("the Wigner phase is beyond double precision: L^-1 k overflows")
        q0, q1 = batch_spinors(pre_freqs, pre_dirs)
        s0 = a.sl2c[0, 0] * q0 + a.sl2c[0, 1] * q1
        s1 = a.sl2c[1, 0] * q0 + a.sl2c[1, 1] * q1
        p0, p1 = batch_spinors(freqs, dirs)
        use0 = np.abs(p0) >= np.abs(p1)
        ratio = np.where(use0, s0 / np.where(use0, p0, 1.0), s1 / np.where(use0, 1.0, p1))
        scale = np.maximum(np.abs(p0), np.abs(p1))
        resid = np.maximum(np.abs(s0 - ratio * p0), np.abs(s1 - ratio * p1)) / scale
        # 64 x the check's rounding per node: eps |A|_F^2 (2 cosh(rapidity) for
        # a boost) and eps / (1 + dz) of the chart's spinor near its cut
        bound = np.sum(np.abs(a.sl2c) ** 2) + 1.0 / (1.0 + pre_dirs[..., 2])
        failed = ~(resid < 1e-8)
        resolved = failed & (64.0 * np.finfo(np.float64).eps * bound < 1e-8)
        phases = wrap_angle(-2.0 * np.angle(ratio))
    if np.any(failed):
        worst = float(np.max(resid[failed]))
        if np.any(resolved):
            raise ConsistencyError(
                f"A pi(L^-1 k) is not proportional to pi(k): relative residual {worst:.3e}"
            )
        raise PreconditionError(
            f"the Wigner phase is beyond double precision: relative residual {worst:.3e}, "
            "within the rounding of a map this large or of the chart next to its cut at -z"
        )
    return pre_freqs, pre_dirs, phases


#: Old names of wigner_pullback; nothing in bellepr calls them, and their
#: only reader is the benchmark tracer (perfbench/tracing.py), which looks
#: them up by name.
_batch_wigner = batch_wigner_phases = wigner_pullback


def wigner_phase(a: LorentzMap, k: NullMomentum) -> float:
    """Value of 2*Theta(L, k), reduced to (-pi, pi] (single-momentum form of
    wigner_pullback)."""
    return float(wigner_pullback(a, *k.as_batch)[2][0])


def wigner_defined(a: LorentzMap, freqs: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Boolean mask of the momenta at which 2*Theta(L, k) is defined: neither
    k nor L^-1 k lies on the chart cut, so wigner_pullback does not raise
    ChartError for them."""
    _, pre_dirs = map_momenta(inverse(a), freqs, dirs)
    return ~(_on_cut(np.asarray(dirs, dtype=np.float64)) | _on_cut(pre_dirs))


def _m_defects(a: LorentzMap, k: NullMomentum) -> tuple[NullTetrad, np.ndarray, np.ndarray]:
    """Tetrad at k and the defects of m and mbar under the map a:
    L m(L^-1 k) - e^{2i Theta} m(k) and L mbar(L^-1 k) - e^{-2i Theta} mbar(k)."""
    pre_freqs, pre_dirs, two_theta = wigner_pullback(a, *k.as_batch)
    t, tpre = null_tetrad(k), null_tetrad(NullMomentum(float(pre_freqs[0]), pre_dirs[0]))
    d_m = a.matrix @ tpre.m_vec - np.exp(1.0j * float(two_theta[0])) * t.m_vec
    d_mbar = a.matrix @ tpre.mbar_vec - np.exp(-1.0j * float(two_theta[0])) * t.mbar_vec
    return t, d_m, d_mbar


def tetrad_covariance_residual(a: LorentzMap, k: NullMomentum) -> float:
    """Gauge-invariant covariance residual of the tetrad leg m under the map a.

    The transformation rule compared is L m(L^-1 k) = e^{+2i Theta(L,k)} m(k)
    (and the conjugate rule for mbar). The defect of the chart's m is always a
    complex multiple of k itself -- the spin-frame is fixed only up to
    omic -> omic + lambda*pi, which shifts m by lambda*k while preserving every
    spin-frame and tetrad invariant. This function therefore removes the
    k-collinear (gauge) component before taking the norm; the raw defect is
    available from tetrad_gauge_defect.
    """
    t, d_m, d_mbar = _m_defects(a, k)
    # k.q = 1, so the q-contraction is the k-component
    return max(
        float(np.linalg.norm(d - minkowski_dot(d, t.q_vec) * t.k_vec)) for d in (d_m, d_mbar)
    )


def tetrad_gauge_defect(a: LorentzMap, k: NullMomentum) -> tuple[float, float]:
    """Raw (unprojected) m-covariance defect and the modulus of its gauge coefficient.

    Returns (|| L m(L^-1 k) - e^{2i Theta} m(k) ||, |c|) where c is the
    coefficient of the k-collinear part of the defect. For rotations both
    numbers vanish to machine precision; for boosts the defect is nonzero but
    k-collinear, so the first number equals |c| * ||k|| up to rounding.
    """
    t, d, _ = _m_defects(a, k)
    return float(np.linalg.norm(d)), float(abs(minkowski_dot(d, t.q_vec)))
