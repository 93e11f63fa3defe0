"""Two-photon amplitudes, Bell-state constructors, polarization-angle fields.

Helicity amplitudes psi_ss'(k, k') are built from the spin-frame chart:

* ``bell11`` / ``bell12``: psi_+-(k,k') = m(k).mbar(k'), psi_-+ = conj of
  the tetrad part; the diagonal value is psi_+-(k,k) = -1 and
  |psi_+-| = cos^2(gamma/2) where gamma is the angle between the two
  directions.  Opposite-helicity pairs only.
* ``bell21`` / ``bell22``: psi_++(k,k') = conj(D(pi(k), pi(k')))^2 with D the
  symplectic spinor pairing, psi_-- its conjugate; |psi_++| = 2 k.k' (Lorentz
  invariant) and the diagonal vanishes.  Equal-helicity pairs only.
* ``general``: an explicit table for any of the four slots, each a number
  ``c`` (the rank-1 pair (c, 1)) or a pair ``(rows, cols)`` of batch
  functions, called like the envelope on ``freqs`` (n,) and ``dirs`` (n, 3)
  and returning (n, r) arrays: the slot's table is rows(k) @ cols(k')^T.  A
  kernel that does not factor is a finite sum of products, of rank r.

The two kinds in each pair share one amplitude table; they differ in which
phase condition (difference- or sum-coupled, plus or minus branch) their
polarization-angle field satisfies.  A field solving the plus-branch
condition solves the minus branch after a quarter-turn shift: subtracting
pi/4 from one arm of a difference-coupled field (condition 11 <-> 12), or
pi/4 overall for a sum-coupled one (condition 21 <-> 22).

Each slot is multiplied by a product envelope g(k) g(k') when one is given.
Every function of two momentum batches works on their (n1, n2) pair grid (one
pair is a 1 x 1 grid): pair_factors holds a slot as per-node factors, which
the sums and the condition residual read, and amplitude_pair_tables builds
the dense closed-form reference table that the symmetry and covariance
residuals compare against.

Every weighted slot sum is the inner product PairTable.contract,
u1 @ (conj(T) * T') @ u2, by one of two routes: modulus_sum
(u1 @ sum |psi|^2 @ u2) and slot_moments (the correlation numerator's
moments, which four_term phases).  A Bell condition's sums (_condition_sums)
and the norm's N-free half norm_blocks read them; norm_total adds N.

Equal-helicity bell amplitudes transform exactly under
psi(L^-1 k, L^-1 k') = e^{2is Theta(L,k)} e^{2is' Theta(L,k')} psi(k, k');
opposite-helicity ones obey the same rule under rotations, while boosts add
a defect tied to the k-collinear gauge freedom of the chart's m leg (see
spinor_tetrad).

Polarization-angle fields theta(k) come in constant, azimuthal
(theta0 + c*phi(k)) and tabulated (nearest-axis cone constants) kinds; a
field may carry a composed Lorentz map, evaluating as
theta(L^-1 k) + 2*Theta(L, k), the Wigner-shifted transform of the base
field.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import InputError, PreconditionError
from .measure import DetectorRegion, QuadratureSpec, full_sphere_region, invariant_node_set
from .spinor_tetrad import (
    LorentzMap,
    NullMomentum,
    batch_null_tetrads,
    batch_spin_frames,
    batch_spinors,
    compose,
    wigner_pullback,
    wrap_angle,
)
from .vacuum import VacuumDensity, evaluate_batch

__all__ = [
    "BellCondition",
    "BELL_CONDITIONS",
    "BELL_KINDS",
    "PolarizationAngleField",
    "TwoPhotonAmplitude",
    "FitResult",
    "constant_field",
    "azimuthal_field",
    "tabulated_field",
    "with_transform_field",
    "field_values",
    "amplitude_pair_tables",
    "PairTable",
    "pair_factors",
    "modulus_sum",
    "slot_moments",
    "four_term",
    "symmetry_residuals",
    "condition_residuals",
    "condition_residual_rel",
    "theta_wigner_residual",
    "theta_wigner_residuals",
    "covariance_residuals",
    "oscillator_factors",
    "norm_blocks",
    "norm_total",
    "two_photon_norm",
    "fit_theta",
]

_ALL_SLOTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_MINK_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


class BellCondition(NamedTuple):
    """Maximal-correlation condition e^{ix} psi_plus + branch e^{-ix} psi_minus = 0
    at (k, k'), x = theta(k) + coupling theta(k'), with ``slots`` = (plus slot,
    minus slot); the two analyzer angles couple the same way."""

    slots: tuple[tuple[int, int], tuple[int, int]]
    coupling: int
    branch: float


#: 11/12 couple the angle difference through the opposite-helicity slots,
#: 21/22 the sum through the equal-helicity slots; 12 and 22 are minus branches.
BELL_CONDITIONS = {
    11: BellCondition(((1, -1), (-1, 1)), -1, 1.0),
    12: BellCondition(((1, -1), (-1, 1)), -1, -1.0),
    21: BellCondition(((1, 1), (-1, -1)), 1, 1.0),
    22: BellCondition(((1, 1), (-1, -1)), 1, -1.0),
}

#: Bell amplitude kind -> number of the condition its angle field satisfies.
BELL_KINDS = {f"bell{number}": number for number in BELL_CONDITIONS}


def _condition(condition: int) -> BellCondition:
    if condition not in BELL_CONDITIONS:
        raise InputError(f"condition must be one of 11, 12, 21, 22; got {condition}")
    return BELL_CONDITIONS[condition]


# --------------------------------------------------------------------------
# polarization-angle fields


@dataclass(frozen=True)
class PolarizationAngleField:
    """Momentum-dependent polarization angle theta(k).

    kinds: "constant" (theta0), "azimuthal" (theta0 + coeff*phi(k) with phi
    the chart azimuth), "tabulated" (value of the nearest axis).  When
    ``lorentz_map`` is set the field evaluates as the Wigner-shifted
    transform of its base parameters: theta_base(L^-1 k) + 2*Theta(L, k).
    Every base value must be finite, and twice it too.
    """

    kind: str
    theta0: float = 0.0
    coeff: float = 0.0
    axes: np.ndarray | None = None
    values: np.ndarray | None = None
    lorentz_map: LorentzMap | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "azimuthal", "tabulated"):
            raise InputError(f"unknown polarization field kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.axes is None or self.values is None:
                raise InputError("tabulated field needs axes and values")
            axes = np.asarray(self.axes, dtype=np.float64).reshape(-1, 3)
            if axes.shape[0] == 0:
                raise InputError("tabulated field needs at least one axis")
            norms = np.linalg.norm(axes, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise InputError("tabulated axes must be unit vectors")
            vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
            if vals.size != axes.shape[0]:
                raise InputError("tabulated axes/values length mismatch")
            object.__setattr__(self, "axes", axes)
            object.__setattr__(self, "values", vals)
            peak = float(np.max(np.abs(vals)))
        else:  # |theta| peaks at |theta0| + pi |coeff|
            peak = abs(self.theta0) + (math.pi * abs(self.coeff) if self.kind == "azimuthal" else 0)
        if not math.isfinite(2.0 * peak):  # the correlation reads e^{2i theta}
            raise InputError(f"polarization angle must be finite, and twice it too: |theta| {peak}")


def constant_field(theta0: float) -> PolarizationAngleField:
    return PolarizationAngleField(kind="constant", theta0=float(theta0))


def azimuthal_field(theta0: float, coeff: float) -> PolarizationAngleField:
    return PolarizationAngleField(kind="azimuthal", theta0=float(theta0), coeff=float(coeff))


def tabulated_field(axes, values) -> PolarizationAngleField:
    return PolarizationAngleField(kind="tabulated", axes=axes, values=values)


def with_transform_field(
    field: PolarizationAngleField, lorentz_map: LorentzMap
) -> PolarizationAngleField:
    """Wigner-shifted transform: evaluates as theta(L^-1 k) + 2*Theta(L, k).

    Composes with a previously attached map (the shift composes through the
    phase cocycle, so stacking maps equals attaching their composition).
    """
    new_map = (
        lorentz_map
        if field.lorentz_map is None
        else compose(lorentz_map, field.lorentz_map)
    )
    return dataclasses.replace(field, lorentz_map=new_map)


def field_values(
    field: PolarizationAngleField, freqs: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """theta at a batch of momenta (frequency + unit-direction arrays)."""
    freqs = np.asarray(freqs, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if field.lorentz_map is not None:
        pre_f, pre_d, shift = wigner_pullback(field.lorentz_map, freqs, dirs)
        base = dataclasses.replace(field, lorentz_map=None)
        return field_values(base, pre_f, pre_d) + shift
    if field.kind == "constant":
        return np.full(freqs.shape, field.theta0)
    if field.kind == "azimuthal":
        return field.theta0 + field.coeff * np.arctan2(dirs[:, 1], dirs[:, 0])
    # tabulated: value of the nearest axis
    idx = np.argmax(dirs @ field.axes.T, axis=1)
    return field.values[idx]


def theta_wigner_residuals(
    field: PolarizationAngleField, lorentz_map: LorentzMap, freqs: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Violation of the Wigner-shift rule theta'(k) = theta(L^-1 k) + 2 Theta(L,k)
    at a batch of momenta (frequency + unit-direction arrays).

    It compares the field against the Wigner-shifted transform of its base
    field (the field without its map): for a plain field this measures its
    own failure to be invariant, |wrap(theta(L^-1 k) + 2 Theta(L, k) -
    theta(k))|, and it is exactly zero for a field whose attached map equals
    the queried one.
    """
    shifted = with_transform_field(dataclasses.replace(field, lorentz_map=None), lorentz_map)
    return np.abs(wrap_angle(field_values(shifted, freqs, dirs) - field_values(field, freqs, dirs)))


def theta_wigner_residual(
    field: PolarizationAngleField, lorentz_map: LorentzMap, k: NullMomentum
) -> float:
    """Single-momentum form of theta_wigner_residuals."""
    return float(theta_wigner_residuals(field, lorentz_map, *k.as_batch)[0])


# --------------------------------------------------------------------------
# two-photon amplitudes


@dataclass(frozen=True)
class TwoPhotonAmplitude:
    """Two-photon helicity amplitude psi_ss'(k, k').

    ``kind`` selects one of the four Bell constructions (tetrad-built) or
    "general" (explicit ``table`` mapping (s, s') to a number or a pair
    ``(rows, cols)`` of batch factor functions, as in the module docstring).
    ``envelope`` is an optional per-momentum factor applied as g(k) g(k'); it
    takes batch arrays (freqs, dirs) and returns an array, real for a Bell kind.
    """

    kind: str
    envelope: Callable | None = None
    table: Mapping[tuple[int, int], tuple[Callable, Callable] | complex] | None = None

    def __post_init__(self) -> None:
        if self.kind not in BELL_KINDS and self.kind != "general":
            raise InputError(f"unknown amplitude kind {self.kind!r}")
        if self.kind == "general" and self.table is None:
            raise InputError("general amplitude needs a table of slots")


def amplitude_pair_tables(
    amp: TwoPhotonAmplitude, f1: np.ndarray, d1: np.ndarray, f2: np.ndarray, d2: np.ndarray
) -> dict[tuple[int, int], np.ndarray]:
    """Active helicity slots as (n1, n2) tables over the Cartesian product of
    two momentum batches.

    Slots outside the kind's support are omitted (exactly zero).  A general
    slot's table is the product of its factors.
    """
    f1, d1, f2, d2 = (np.asarray(x, dtype=np.float64) for x in (f1, d1, f2, d2))
    if amp.kind not in BELL_KINDS:
        return {slot: t.a @ t.b.T for slot, t in pair_factors(amp, f1, d1, f2, d2).items()}
    env = 1.0
    if amp.envelope is not None:
        e1, e2 = (np.asarray(amp.envelope(f, d)) for f, d in ((f1, d1), (f2, d2)))
        env = e1[:, None] * e2[None, :]
    cond = BELL_CONDITIONS[BELL_KINDS[amp.kind]]
    plus, minus = cond.slots
    if cond.coupling > 0:  # equal helicity: squared spinor pairing over the broadcast pair grid
        p0, p1 = batch_spinors(f1[:, None], d1[:, None])
        q0, q1 = batch_spinors(f2[None, :], d2[None, :])
        pairing = p0 * q1 - p1 * q0
        return {plus: np.conj(pairing) ** 2 * env, minus: pairing**2 * env}
    # opposite helicity: tetrad contraction m(k).mbar(k')
    m1 = batch_null_tetrads(f1, d1).m_vec * _MINK_SIGNS
    core = m1 @ batch_null_tetrads(f2, d2).mbar_vec.T
    return {plus: core * env, minus: np.conj(core) * env}


def _pole_turn(dirs: np.ndarray) -> np.ndarray:
    """SU(2) matrix that turns the spinor chart so that the batch's mean
    direction (or its antipode, whichever is in the upper hemisphere) sits
    at a pole: it maps that direction's unit spinor (s0, s1) to (1, 0)."""
    mean = dirs.sum(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return np.eye(2)
    x, y, z = mean * (math.copysign(1.0, mean[2]) / norm)
    s0 = math.sqrt((1.0 + z) / 2.0)
    s1 = complex(x, y) / (2.0 * s0)
    return np.array([[s0, s1.conjugate()], [-s1, s0]])


@dataclass(frozen=True, eq=False)
class PairTable:
    """An n1 x n2 complex table over the pairs of two node batches, held as
    per-node factors, table = a @ b.T with ``a`` (n1, r) and ``b`` (n2, r):
    conjugates, per-node phases and weighted inner products act on the
    factors, so a table costs O((n1 + n2) r) and is never built at n1 x n2."""

    a: np.ndarray
    b: np.ndarray
    #: the table this one is the conjugate of, when conj() made it
    mirror: PairTable | None = None

    def conj(self) -> PairTable:
        """The conjugate table (a Bell kind's conjugate slot)."""
        return PairTable(np.conj(self.a), np.conj(self.b), self)

    def scaled(self, rows: np.ndarray, cols: np.ndarray) -> PairTable:
        """diag(rows) @ table @ diag(cols), for per-node factors rows (n1,) and cols (n2,)."""
        return PairTable(rows[:, None] * self.a, cols[:, None] * self.b)

    def diagonal(self) -> np.ndarray:
        """The table's diagonal, for a table over one batch paired with itself."""
        return np.sum(self.a * self.b, axis=1)

    def contract(self, other: PairTable, u: np.ndarray, v: np.ndarray) -> complex:
        """u @ (conj(table) * other) @ v, the weighted inner product of the
        two tables; ``self`` is the conjugated operand.

        The product's factors are the row-wise Kronecker products of the two
        tables' factors, and its sum regroups into the entrywise product of
        the r x r' matrices a^H diag(u) a' and b^H diag(v) b', so neither the
        product nor a conjugated copy of a table is formed."""
        rows = (np.conj(self.a) * u[:, None]).T @ other.a
        cols = (np.conj(self.b) * v[:, None]).T @ other.b
        return complex(np.sum(rows * cols))


def _slot_table(value, f1, d1, f2, d2) -> PairTable:
    """A general slot as its factors (n1, r) and (n2, r)."""
    n = (np.size(f1), np.size(f2))
    if isinstance(value, numbers.Number):
        return PairTable(np.full((n[0], 1), complex(value)), np.ones((n[1], 1)))
    if not (isinstance(value, tuple) and len(value) == 2 and all(map(callable, value))):
        raise InputError(
            f"a general slot is a number or a pair (rows, cols) of batch functions, not {value!r}"
        )
    rows, cols = (np.asarray(fn(f, d)) for fn, f, d in zip(value, (f1, f2), (d1, d2)))
    one_width = rows.ndim == cols.ndim == 2 and rows.shape[1] == cols.shape[1]
    if not one_width or (len(rows), len(cols)) != n:
        raise InputError(
            f"a general slot's factors must be (n, r) arrays of one width r for n = {n}, "
            f"got {rows.shape} and {cols.shape}"
        )
    return PairTable(rows, cols)


class _Batch(NamedTuple):
    """One momentum batch as the pair factors read it: its momenta, envelope
    values and, for a Bell kind, raw spin frames (2, 2, n) and pole turn."""

    freqs: np.ndarray
    dirs: np.ndarray
    env: np.ndarray | None
    frames: np.ndarray | None
    turn: np.ndarray | None


def _batch(amp: TwoPhotonAmplitude, freqs: np.ndarray, dirs: np.ndarray) -> _Batch:
    env = None if amp.envelope is None else np.asarray(amp.envelope(freqs, dirs))
    if amp.kind not in BELL_KINDS:
        return _Batch(freqs, dirs, env, None, None)
    if np.iscomplexobj(env):
        raise InputError(f"a {amp.kind} envelope must be real: the kind's two slots are conjugates")
    frames = np.reshape(batch_spin_frames(freqs, dirs), (2, 2, -1))
    return _Batch(freqs, dirs, env, frames, _pole_turn(dirs))


def _factors(
    amp: TwoPhotonAmplitude, first: _Batch, second: _Batch
) -> dict[tuple[int, int], PairTable]:
    """pair_factors of two batches, each built once by _batch."""
    if amp.kind not in BELL_KINDS:
        f1, d1, f2, d2 = first.freqs, first.dirs, second.freqs, second.dirs
        tables = {slot: _slot_table(value, f1, d1, f2, d2) for slot, value in amp.table.items()}
        if amp.envelope is not None:
            tables = {slot: t.scaled(first.env, second.env) for slot, t in tables.items()}
        return tables
    cond = BELL_CONDITIONS[BELL_KINDS[amp.kind]]
    # Both kinds are products of spinor pairings D(x, y) = x0 y1 - x1 y0 of
    # the spin frames (p, o), and D(U x, U y) = D(x, y) for U in SL(2, C).
    # Turned so that the first batch sits at a pole, each term of a pairing
    # between nearby momenta is as small as the pairing itself, so the
    # expanded sums of a narrow cone with itself do not cancel.
    p0, p1, o0, o1 = (first.turn @ first.frames).reshape(4, -1)
    q0, q1, r0, r1 = (first.turn @ second.frames).reshape(4, -1)
    if cond.coupling > 0:  # psi_-- = D(p, q)^2 = p0^2 q1^2 - 2 p0 p1 q0 q1 + p1^2 q0^2
        table = PairTable(
            np.stack([p0 * p0, -2.0 * p0 * p1, p1 * p1], axis=1),
            np.stack([q1 * q1, q0 * q1, q0 * q0], axis=1),
        )
    else:  # psi_+- = m(k).mbar(k') = D(o, q) conj(D(p, r))
        pc0, pc1 = np.conj([p0, p1])
        rc0, rc1 = np.conj([r0, r1])
        table = PairTable(
            np.stack([o0 * pc0, -o0 * pc1, -o1 * pc0, o1 * pc1], axis=1),
            np.stack([q1 * rc1, q1 * rc0, q0 * rc1, q0 * rc0], axis=1),
        )
    # the other slot is the conjugate of the enveloped table: the envelope is real
    if amp.envelope is not None:
        table = table.scaled(first.env, second.env)
    pair = (table.conj(), table) if cond.coupling > 0 else (table, table.conj())
    return dict(zip(cond.slots, pair))


def pair_factors(
    amp: TwoPhotonAmplitude, f1: np.ndarray, d1: np.ndarray, f2: np.ndarray, d2: np.ndarray
) -> dict[tuple[int, int], PairTable]:
    """Active helicity slots over the Cartesian product of two batches, as
    PairTables.

    A Bell kind factors exactly: the square of the spinor pairing
    p0 q1' - p1 q0' has rank 3 (21/22), and the tetrad contraction
    sum_mu eta_mu m_mu conj(m'_mu), a product of two pairings, rank 4
    (11/12); a general slot is its own factors.  An envelope scales them.
    """
    return _factors(amp, _batch(amp, f1, d1), _batch(amp, f2, d2))


#: Slot pair (plus, minus) -> how the second batch's analyzer angle couples in
#: the product conj(psi_plus) psi_minus: +1 with the sum, -1 with the difference.
_SLOT_COUPLINGS = {cond.slots: cond.coupling for cond in BELL_CONDITIONS.values()}


def modulus_sum(tables: Iterable[PairTable], u1: np.ndarray, u2: np.ndarray) -> float:
    """u1 @ (sum over ``tables`` of |psi|^2) @ u2, the weighted two-momentum
    sum of the slots' squared moduli.  A table that is the conj() of another
    in ``tables`` (a Bell kind's second slot) has its squared modulus, so the
    pair adds twice one contraction."""
    tables = list(tables)
    twice = [t.mirror for t in tables if t.mirror in tables]
    return sum(
        (2.0 if t in twice else 1.0) * t.contract(t, u1, u2).real
        for t in tables
        if t.mirror not in tables
    )


def slot_moments(tables: Mapping, u1: np.ndarray, u2: np.ndarray, beta=0.0, alpha=0.0) -> dict:
    """Per slot pair present in ``tables``, keyed by its coupling c (+1 for
    (++, --), -1 for (+-, -+)), the moment
    M_c = sum_ij u1_i u2_j e^{-2i beta_i} e^{-2ic alpha_j} conj(psi_plus) psi_minus,
    with the per-node angles (arrays, or scalars) folded into the weights."""
    ub = u1 * np.exp(-2.0j * beta)
    return {
        c: tables[plus].contract(tables[minus], ub, u2 * np.exp(-2.0j * c * alpha))
        for (plus, minus), c in _SLOT_COUPLINGS.items()
        if plus in tables and minus in tables
    }


def four_term(moments: Mapping[int, complex], beta: float, alpha: float, n_osc) -> float:
    """Four-term unnormalized correlation average at analyzer angles beta, alpha,
    8(N-1)/N Re sum_c e^{-2i beta} e^{-2ic alpha} M_c over the slot_moments M_c:
    the products conj(psi_++) psi_-- and conj(psi_+-) psi_-+ weighted by
    e^{-2i(beta+alpha)} and e^{-2i(beta-alpha)}.  Twice each angle is finite,
    their sum need not be, so the phase is taken apart."""
    total = sum(np.exp(-2.0j * beta) * np.exp(-2.0j * c * alpha) * m for c, m in moments.items())
    return oscillator_factors(n_osc)[2] * float(np.real(total))


def symmetry_residuals(
    amp: TwoPhotonAmplitude, f1: np.ndarray, d1: np.ndarray, f2: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """max over s, s' of |psi_ss'(k_i, k'_j) - psi_s's(k'_j, k_i)| over the
    n1 x n2 pair grid."""
    fwd = amplitude_pair_tables(amp, f1, d1, f2, d2)
    bwd = amplitude_pair_tables(amp, f2, d2, f1, d1)
    worst = np.zeros((np.size(f1), np.size(f2)))
    for s, sp in _ALL_SLOTS:
        back = np.transpose(bwd.get((sp, s), 0.0))  # the backward grid is (n2, n1)
        worst = np.maximum(worst, np.abs(fwd.get((s, sp), 0.0) - back))
    return worst


def condition_residuals(
    condition: int, tables: Mapping, theta1: np.ndarray, theta2: np.ndarray
) -> np.ndarray:
    """Maximal-correlation condition defect over an n1 x n2 pair grid,

        |e^{ix} psi_plus + branch e^{-ix} psi_minus|,  x_ij = theta1_i + coupling theta2_j,

    with the slots, coupling and branch of ``BELL_CONDITIONS[condition]``,
    ``tables`` the pair_factors of the two batches and ``theta1``/``theta2``
    the polarization angles at them (or single angles, shape (1,), that hold
    on every row or column).  The phase splits into per-node factors, so the
    two phased slots stack into one table of rank r_plus + r_minus, whose
    modulus is the only n1 x n2 array formed; a slot the amplitude lacks
    adds 0."""
    cond = _condition(condition)
    rows, cols = np.exp(1j * theta1), np.exp(1j * cond.coupling * theta2)
    phases = ((rows, cols), (cond.branch * np.conj(rows), np.conj(cols)))
    phased = [tables[s].scaled(*ph) for s, ph in zip(cond.slots, phases) if s in tables]
    if not phased:
        shape = next(((len(t.a), len(t.b)) for t in tables.values()), (rows.size, cols.size))
        return np.zeros(shape)
    a = np.concatenate([t.a for t in phased], axis=1)
    b = np.concatenate([t.b for t in phased], axis=1)
    return np.abs(a @ b.T)


def _condition_sums(
    condition: int, tables: Mapping, u1, u2, theta1=0.0, theta2=0.0, scale=None
) -> tuple:
    """(BELL_CONDITIONS[condition], S, C) over the pair_factors ``tables``:

        S = u1 @ (|psi_plus|^2 + |psi_minus|^2) @ u2,
        C = sum_ij u1_i u2_j e^{2i x_ij} psi_plus conj(psi_minus),

    x_ij = theta1_i + coupling theta2_j: the slots' modulus_sum (or ``scale``,
    when the caller has summed it) and, for real weights, the conjugate of
    their slot_moments.  A missing slot adds 0 to S and makes C = 0."""
    cond = _condition(condition)
    present = {slot: tables[slot] for slot in cond.slots if slot in tables}
    moment = slot_moments(present, u1, u2, theta1, theta2).get(cond.coupling, 0j)
    if scale is None:
        scale = modulus_sum(present.values(), u1, u2)
    return cond, scale, moment.conjugate()


def condition_residual_rel(
    condition: int,
    tables: Mapping[tuple[int, int], PairTable],
    theta1: np.ndarray,
    theta2: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    scale: float | None = None,
) -> float:
    """Weighted relative RMS of the condition_residuals table of the pair_factors
    ``tables`` at angles theta1, theta2 (or single angles, shape (1,)) with
    per-node weights u1, u2:

        sqrt(u1 @ res^2 @ u2 / S),   S = u1 @ (|psi_plus|^2 + |psi_minus|^2) @ u2,

    S summed here unless ``scale`` gives it (for a Bell kind's tables, S is
    their norm_blocks block).
    0 when S vanishes and 1 when S does not and a slot is missing.  The
    squared residual is summed in the expanded form
    |a + b|^2 = |a|^2 + |b|^2 + 2 Re(a conj(b)), which factors, so no pair table
    is built; the expansion cancels where the residual is small, so the sum is
    clamped at 0 and the result has an absolute floor of about 1e-8
    (sqrt of the double-precision epsilon)."""
    cond, scale, cross = _condition_sums(condition, tables, u1, u2, theta1, theta2, scale)
    squared = scale + 2.0 * cond.branch * cross.real
    return math.sqrt(max(squared, 0.0) / scale) if scale > 0.0 else 0.0


def covariance_residuals(
    amp: TwoPhotonAmplitude,
    lorentz_map: LorentzMap,
    f1: np.ndarray,
    d1: np.ndarray,
    f2: np.ndarray,
    d2: np.ndarray,
) -> np.ndarray:
    """Defect of the helicity transformation rule over the n1 x n2 pair grid,
    maximized over the kind's active slots:

    |psi_ss'(L^-1 k, L^-1 k') - e^{2is Theta(L,k)} e^{2is' Theta(L,k')} psi_ss'(k, k')|
    """
    pre_f1, pre_d1, two_th1 = wigner_pullback(lorentz_map, f1, d1)
    pre_f2, pre_d2, two_th2 = wigner_pullback(lorentz_map, f2, d2)
    lhs = amplitude_pair_tables(amp, pre_f1, pre_d1, pre_f2, pre_d2)
    worst = np.zeros((two_th1.size, two_th2.size))
    for (s, sp), vals in amplitude_pair_tables(amp, f1, d1, f2, d2).items():
        phase = np.exp(1.0j * s * two_th1)[:, None] * np.exp(1.0j * sp * two_th2)[None, :]
        worst = np.maximum(worst, np.abs(lhs[(s, sp)] - phase * vals))
    return worst


# --------------------------------------------------------------------------
# norms


def _norm_region(z: VacuumDensity) -> DetectorRegion:
    """Full-sphere region with a frequency window outside which the
    vacuum-weighted norm integrands are negligible at double precision."""
    params = dict(z.params)
    if z.family == "power-exponential":
        cap = params["scale"] * (60.0 + 10.0 * params["exponent"])
        return full_sphere_region(0.0, cap)
    w = params["width"]
    lo = params["scale"] * math.exp(-8.0 * w * w - 8.0 * w)
    try:
        hi = params["scale"] * math.exp(4.0 * w * w + 8.0 * w)
    except OverflowError as exc:
        raise InputError(f"log-normal width {w} puts the norm window beyond double range") from exc
    return full_sphere_region(lo, hi)


def _norm_spec(z: VacuumDensity) -> QuadratureSpec:
    """Default norm quadrature: log-spaced frequency nodes for log-normal
    weights (content spread over decades), linear otherwise."""
    radial_map = "log" if z.family == "log-normal-isotropic" else "linear"
    return QuadratureSpec(n_freq=32, n_polar=8, n_azimuth=8, radial_map=radial_map)


def oscillator_factors(n_osc) -> tuple[float, float, float]:
    """Oscillator-count prefactors (2/N, 2(N-1)/N, 8(N-1)/N).

    The first two weigh the same-momentum and the two-momentum terms of a
    squared norm, the third the disjoint-cone correlation numerator.
    ``n_osc`` is an integer >= 1 or math.inf (limits 0, 2 and 8).
    """
    if n_osc == math.inf:
        return 0.0, 2.0, 8.0
    if not isinstance(n_osc, (int, np.integer)) or isinstance(n_osc, bool) or n_osc < 1:
        raise InputError(f"n_osc must be a positive integer or inf, got {n_osc!r}")
    return 2.0 / n_osc, 2.0 * (n_osc - 1) / n_osc, 8.0 * (n_osc - 1) / n_osc


def norm_blocks(
    amp: TwoPhotonAmplitude, arms: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[float, np.ndarray, dict[tuple[int, int], PairTable]]:
    """The N-free sums of the squared norm over the (freqs, dirs, u) node sets
    ``arms`` (u: quadrature weights times vacuum density), which norm_total
    weighs by 2/N and 2(N-1)/N: diag = sum_a sum_ss' sum_i u_i |psi_ss'(k_i, k_i)|^2,
    blocks[a, b] = sum_ss' sum_ij u_i |psi_ss'(k_i, k'_j)|^2 u'_j over arms a, b,
    and the pair_factors tables of block (first arm, last arm), for callers
    that contract them further.  Each arm's spin frames are built once."""
    batches, us = [_batch(amp, f, d) for f, d, _ in arms], [u for _, _, u in arms]
    diag = 0.0
    blocks = np.zeros((len(arms), len(arms)))
    for a, ua in enumerate(us):
        for b, ub in enumerate(us):
            tabs = _factors(amp, batches[a], batches[b])
            blocks[a, b] = modulus_sum(tabs.values(), ua, ub)
            if a == b:
                for t in tabs.values():
                    diag += float(np.sum(np.abs(t.diagonal()) ** 2 * ua))
            if (a, b) == (0, len(arms) - 1):
                first_last = tabs
    return diag, blocks, first_last


def norm_total(diag: float, blocks: np.ndarray, n_osc) -> float:
    """The squared norm from norm_blocks' same-momentum total and blocks:
    (2/N) diag + (2(N-1)/N) sum(blocks).  At N = inf the same-momentum term
    is left out, not multiplied by 0."""
    first_fac, cross_fac, _ = oscillator_factors(n_osc)
    cross = cross_fac * float(blocks.sum())
    return cross if first_fac == 0.0 else first_fac * diag + cross


#: Largest accepted deviation from 1 of the vacuum's mass on the norm's nodes.
_NORM_MASS_TOL = 1e-4


def two_photon_norm(amp: TwoPhotonAmplitude, z: VacuumDensity, n_osc) -> float:
    """Squared norm of the two-photon state over N oscillators:

        (2/N)   * sum_ss' integral dGamma |psi_ss'(k,k)|^2 Z(k)
      + (2(N-1)/N) * sum_ss' double integral |psi_ss'(k,k')|^2 Z(k) Z(k')

    ``n_osc`` is an integer >= 1 or math.inf (limit factors 0 and 2).  The
    integrals run over all momenta (frequency-capped where the vacuum weight
    has decayed to double-precision zero).  Raises InputError when the rule
    does not resolve the vacuum: its mass on the nodes differs from 1 by
    more than 1e-4 (wide log-normal vacua).
    """
    nodes = invariant_node_set(_norm_region(z), _norm_spec(z))
    u = nodes.weights * evaluate_batch(z, nodes.freqs, nodes.dirs)
    mass = float(np.sum(u))
    if not abs(mass - 1.0) <= _NORM_MASS_TOL:
        raise InputError(
            f"the norm rule does not resolve the vacuum: its mass on the nodes is "
            f"{mass:.6g}, not 1 within {_NORM_MASS_TOL:g}"
        )
    diag, blocks, _ = norm_blocks(amp, [(nodes.freqs, nodes.dirs, u)])
    return norm_total(diag, blocks, n_osc)


# --------------------------------------------------------------------------
# theta fitting


#: Largest |cross term| / (sum w w' (|psi_plus|^2 + |psi_minus|^2) / 2) that
#: fit_theta treats as roundoff: a genuine fit has a ratio of order 1.
_FIT_ROUNDOFF = 1e-12


class FitResult(NamedTuple):
    field: PolarizationAngleField
    residual_rel: float


def fit_theta(
    amp: TwoPhotonAmplitude,
    condition: int,
    region_a: DetectorRegion,
    region_b: DetectorRegion,
    spec: QuadratureSpec | None = None,
) -> FitResult:
    """Least-squares constant-per-cone polarization angle for a Bell condition.

    Minimizes the measure-weighted squared condition residual over pairs
    (k in region_a, k' in region_b).  For conditions 11/12 only the angle
    difference theta_a - theta_b enters; for 21/22 the sum does.  The closed
    forms are

        11: 2*delta = pi - arg S,   12: 2*delta = -arg S,
        21: 2*sigma = pi - arg T,   22: 2*sigma = -arg T,

    with S = sum w w' psi_+- conj(psi_-+) and T = sum w w' psi_++ conj(psi_--);
    these are the exact minimizers of the quadratic objective.  Returns a
    tabulated two-cone field (value on region_a's axis, 0 on region_b's) and
    the relative root-mean-square residual after the fit.  Raises InputError
    when the cross term is at roundoff level, |S| or |T| <= 1e-12 *
    sum w w' (|psi_plus|^2 + |psi_minus|^2) / 2, where its angle is noise,
    and PreconditionError when the amplitude overflows the sums.
    """
    quad = spec or QuadratureSpec(n_freq=4, n_polar=4, n_azimuth=8)
    na = invariant_node_set(region_a, quad)
    nb = invariant_node_set(region_b, quad)
    wa, wb = na.weights, nb.weights
    # an amplitude that overflows fits NaN, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        tables = pair_factors(amp, na.freqs, na.dirs, nb.freqs, nb.dirs)
        cond, scale, cross = _condition_sums(condition, tables, wa, wb)
        # a cross term at roundoff level has no angle (e.g. equal-helicity
        # slots on two identical cones)
        if abs(cross) <= _FIT_ROUNDOFF * 0.5 * scale:
            raise InputError("condition cross term vanishes; the fit is degenerate")
        # minimize sum w |e^{i x} a + branch e^{-i x} b|^2 over x
        two_x = (math.pi if cond.branch > 0 else 0.0) - float(np.angle(cross))
        fitted = float(wrap_angle(two_x)) / 2.0
        # the objective is scale + 2 branch Re(e^{2ix} cross), at its minimum
        # scale - 2 |cross|; scale > 0 here unless it is NaN, which passes on
        rel = math.sqrt(max(scale - 2.0 * abs(cross), 0.0) / scale)
    if math.isnan(fitted):
        raise PreconditionError("the amplitude is not finite on the fit's nodes: it overflows")

    axis_gap = float(np.linalg.norm(region_a.axis - region_b.axis))
    if axis_gap < 1e-6:
        theta0 = 0.0 if cond.coupling < 0 else fitted / 2.0
        field = constant_field(theta0)
    else:
        field = tabulated_field(
            np.stack([region_a.axis, region_b.axis]), np.array([fitted, 0.0])
        )
    return FitResult(field=field, residual_rel=rel)
