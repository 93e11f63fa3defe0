"""Brute-force finite-dimensional oracle for the reducible N-oscillator
representation on a small momentum grid.

The brute force is literal linear algebra: sparse operators on ``grid x
two truncated oscillator modes`` tensored N times, state vectors built by
applying creation operators to an explicit vacuum, and expectations as
matrix products.  It is exact up to the occupation cutoff, and a cutoff of
at least 2 is exact for the two-photon sector.  ``scipy.sparse`` loads on
first use, when the first operator is built, so importing this module (as
the CLI does for every command) does not import scipy.

Every operator is cell-diagonal, built by ``_one_body`` as scale * (sum over
slots of diag(coeffs) tensor a two-mode operator): the ladders (once per
space), ``number_op`` and ``center_op`` with the projector coefficient 1/w_i
at one cell, ``yes_no_op`` with 1 on its subset, the energy operator as
diag(freqs) on slot 0.  Number, center and yes/no operators do not read the
ladders, so the checks comparing them stay independent; the whole-spectrum
count and the center resolution sum w_i times the 1/w_i operators, so they
test that cancellation.

The closed forms are the engine's sums from ``states``: ``norm_reference``
runs ``norm_sum`` on the grid, as one arm paired with itself, and
``four_term_reference`` runs ``four_term``, as a correlator row does, on the
grid tables' ``slot_moments``.  Only ``coincident_term``, which disjoint
cones never meet, is written here, with ``oscillator_factors``.  A detector
cell subset must be nonempty, without duplicates and on the grid (``_cells``).

Conventions
-----------
A grid cell (k_i, w_i) stands for a cell of the invariant measure with
weight w_i, so the distributional normalization of momentum kets becomes
``<k_i|k_j> = delta_ij / w_i``.  The stored basis vector for cell i is the
unit vector e_i, i.e. it represents sqrt(w_i)|k_i>; with that choice the
numpy inner product equals the physical one, the projector |k_i><k_i|
becomes (1/w_i) e_i e_i^T, and integrals over the grid are plain weighted
sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError, PreconditionError
from .spinor_tetrad import NullMomentum
from .states import (
    PairTable, TwoPhotonAmplitude, four_term, norm_sum, oscillator_factors, slot_moments
)

__all__ = [
    "CheckResult",
    "DiscreteGrid",
    "OracleSpace",
    "OscillatorTruncation",
    "center_op",
    "circular_ladder",
    "coincidence_scale",
    "coincident_term",
    "commutator",
    "cutoff_safe_projector",
    "epr_oracle",
    "epr_unnormalized",
    "four_term_reference",
    "hamiltonian_single_polarization",
    "ladder",
    "linear_ladder",
    "norm_reference",
    "number_op",
    "number_op_quadratic",
    "two_photon_vector",
    "vacuum_vector",
    "verify_suite",
    "whole_spectrum_number",
    "yes_no_op",
]

_MAX_DIMENSION = 200_000


class _DeferredSparse:
    """``scipy.sparse``, imported at the first attribute lookup, which also
    rebinds the module global ``sp`` to the real module."""

    def __getattr__(self, name: str):
        global sp
        import scipy.sparse

        sp = scipy.sparse
        return getattr(sp, name)


sp = _DeferredSparse()


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class DiscreteGrid:
    """Finite stand-in for the invariant measure: cells (k_i, w_i > 0)."""

    cells: tuple[tuple[NullMomentum, float], ...]

    def __init__(self, cells: Sequence[tuple[NullMomentum, float]]):
        entries = []
        for k, w in cells:
            if not isinstance(k, NullMomentum):
                raise InputError(f"grid cell momentum must be a NullMomentum, got {k!r}")
            w = float(w)
            # the operators hold 1/w and the checks 1/(w*w): w*w must be a normal double
            if not (w > 0.0 and np.finfo(np.float64).tiny <= w * w < math.inf):
                raise InputError(
                    f"grid cell weight must be positive with a square that neither "
                    f"underflows nor overflows, got {w!r}"
                )
            entries.append((k, w))
        if not entries:
            raise InputError("grid needs at least one cell")
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                ka, kb = entries[a][0], entries[b][0]
                gap = abs(ka.freq - kb.freq) + float(np.max(np.abs(ka.dir - kb.dir)))
                if gap <= 1e-12:
                    raise InputError(
                        f"grid cells {a} and {b} carry the same momentum; "
                        "cells must be distinct"
                    )
        object.__setattr__(self, "cells", tuple(entries))

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.cells])

    @property
    def freqs(self) -> np.ndarray:
        return np.array([k.freq for k, _ in self.cells])


@dataclass(frozen=True)
class OscillatorTruncation:
    """Occupation cutoff per polarization mode.

    At least 2, so that two creation operators applied to the vacuum stay
    inside the truncated space exactly.
    """

    max_occupation: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.max_occupation, int) or isinstance(
            self.max_occupation, bool
        ):
            raise InputError("max_occupation must be an integer")
        if self.max_occupation < 2:
            raise InputError(
                "max_occupation must be >= 2: two-photon states put occupation "
                "2 on a single mode"
            )


@dataclass(frozen=True)
class OracleSpace:
    """Tensor-power workspace: (grid x mode1 x mode2)^n_osc.

    ``dim_single`` is the one-oscillator dimension ``cells * (cutoff+1)^2``
    and ``dim`` the full ``dim_single ** n_osc``.
    """

    grid: DiscreteGrid
    trunc: OscillatorTruncation
    n_osc: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_osc, int) or isinstance(self.n_osc, bool):
            raise InputError("n_osc must be a positive integer")
        if self.n_osc < 1:
            raise InputError("n_osc must be a positive integer")
        # dim_single >= 2, so capping the power at the limit's bit length
        # decides the comparison without forming a huge integer
        if self.dim_single ** min(self.n_osc, _MAX_DIMENSION.bit_length()) > _MAX_DIMENSION:
            raise InputError(
                f"oracle dimension {self.dim_single}^{self.n_osc} exceeds the supported limit "
                f"{_MAX_DIMENSION}; use fewer cells, lower cutoff, or smaller n_osc"
            )

    @property
    def levels(self) -> int:
        return self.trunc.max_occupation + 1

    @property
    def dim_single(self) -> int:
        return self.grid.size * self.levels * self.levels

    @property
    def dim(self) -> int:
        return self.dim_single**self.n_osc

    @functools.cached_property
    def _lowering(self) -> dict[tuple[int, int], sp.csr_matrix]:
        """Every lowering operator a(k_i, mode), built on first use; read
        through ``ladder``."""
        a = _lowering_matrix(self.levels)
        return {
            (cell, mode): _one_body(
                self, _at_cell(self, cell), _two_mode(self, a, mode), 1.0 / math.sqrt(self.n_osc)
            )
            for cell in range(self.grid.size)
            for mode in (1, 2)
        }


class CheckResult(NamedTuple):
    """One named verification: residual against its pass threshold."""

    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


# --------------------------------------------------------------------------
# single-oscillator building blocks


def _lowering_matrix(levels: int) -> sp.csr_matrix:
    data = np.sqrt(np.arange(1, levels))
    return sp.diags(data, offsets=1, format="csr")


def _check_mode(mode: int) -> None:
    if mode not in (1, 2):
        raise InputError(f"mode must be 1 or 2, got {mode!r}")


def _check_cell(space: OracleSpace, cell: int) -> None:
    if not (isinstance(cell, (int, np.integer)) and 0 <= cell < space.grid.size):
        raise InputError(f"cell index {cell} outside grid of size {space.grid.size}")


def _two_mode(space: OracleSpace, x: sp.spmatrix, mode: int) -> sp.csr_matrix:
    """``x`` acting on polarization mode 1 or 2 of a cell's (cutoff+1)^2
    block, the identity on the other mode."""
    _check_mode(mode)
    eye = sp.identity(space.levels, format="csr")
    return sp.kron(x, eye, format="csr") if mode == 1 else sp.kron(eye, x, format="csr")


def _cells(space: OracleSpace, subset: Sequence[int]) -> list[int]:
    """A detector cell subset as a list: nonempty, without duplicates, on the grid."""
    cells = list(subset)
    if not cells:
        raise InputError("detector cell subset is empty")
    if len(set(cells)) != len(cells):
        raise InputError("detector cell subset contains duplicates")
    for i in cells:
        _check_cell(space, i)
    return cells


def _at_cell(space: OracleSpace, cell: int) -> np.ndarray:
    """Cell coefficients of the projector |k_i><k_i| = (1/w_i) e_i e_i^T."""
    _check_cell(space, cell)
    return np.where(np.arange(space.grid.size) == cell, 1.0 / space.grid.weights[cell], 0.0)


def _slot_embed(space: OracleSpace, op1: sp.spmatrix, slot: int) -> sp.csr_matrix:
    eye = sp.identity(space.dim_single, format="csr")
    factors = (op1 if n == slot else eye for n in range(space.n_osc))
    return functools.reduce(functools.partial(sp.kron, format="csr"), factors)


def _one_body(
    space: OracleSpace, coeffs: np.ndarray, pair: sp.spmatrix, scale: float
) -> sp.csr_matrix:
    """scale * sum over the N slots of diag(coeffs) tensor ``pair``, with one
    coefficient per cell and ``pair`` a two-mode operator."""
    nz = np.flatnonzero(coeffs)
    diag = sp.csr_matrix((coeffs[nz], (nz, nz)), shape=(space.grid.size, space.grid.size))
    op1 = sp.kron(diag, pair, format="csr")
    total = sum(_slot_embed(space, op1, n) for n in range(space.n_osc))
    return (scale * total).tocsr()


# --------------------------------------------------------------------------
# operators


def ladder(space: OracleSpace, cell: int, mode: int, kind: str = "lower") -> sp.csr_matrix:
    """Cell-local ladder operator in the n_osc representation: the slot sum
    of |k_i><k_i| tensor a_mode with the 1/sqrt(n_osc) normalization.

    The lowering operators are built once per space and shared between
    calls (``kind="raise"`` returns a fresh adjoint of the shared one):
    callers must not modify a returned matrix in place.
    """
    if kind not in ("lower", "raise"):
        raise InputError(f"kind must be 'lower' or 'raise', got {kind!r}")
    _check_mode(mode)
    _check_cell(space, cell)
    low = space._lowering[(cell, mode)]
    return low.conjugate().transpose().tocsr() if kind == "raise" else low


def number_op(space: OracleSpace, cell: int, mode: int) -> sp.csr_matrix:
    """Cell-local number operator: plain slot sum (no 1/n_osc) of
    |k_i><k_i| tensor a_mode^dag a_mode."""
    a = _lowering_matrix(space.levels)
    n_m = (a.conjugate().transpose() @ a).tocsr()
    return _one_body(space, _at_cell(space, cell), _two_mode(space, n_m, mode), 1.0)


def number_op_quadratic(space: OracleSpace, cell: int, mode: int) -> sp.csr_matrix:
    """The raise-then-lower alternative a^dag(k_i) a(k_i).

    For a single oscillator this equals ``coincidence_scale`` times
    ``number_op`` — the two definitions are inequivalent by exactly the
    coincidence factor of the discrete measure.
    """
    low = ladder(space, cell, mode, "lower")
    return (ladder(space, cell, mode, "raise") @ low).tocsr()


def coincidence_scale(space: OracleSpace, cell: int) -> float:
    """The discrete stand-in for the measure delta at coincident momenta."""
    return 1.0 / space.grid.weights[cell]


def center_op(space: OracleSpace, cell: int) -> sp.csr_matrix:
    """Central element of the commutation algebra: (1/n_osc) slot sum of
    |k_i><k_i| tensor identity."""
    pair = sp.identity(space.levels * space.levels, format="csr")
    return _one_body(space, _at_cell(space, cell), pair, 1.0 / space.n_osc)


def circular_ladder(space: OracleSpace, cell: int, s: int) -> sp.csr_matrix:
    """Circular-basis lowering operator: (a_1 - i s a_2)/sqrt(2) at one cell."""
    if s not in (1, -1):
        raise InputError(f"s must be +1 or -1, got {s!r}")
    a1 = ladder(space, cell, 1, "lower")
    a2 = ladder(space, cell, 2, "lower")
    return ((a1 - 1.0j * s * a2) / math.sqrt(2.0)).tocsr()


def linear_ladder(space: OracleSpace, cell: int, theta: float) -> sp.csr_matrix:
    """Linear-basis lowering operator at polarization angle theta, built
    from the circular pair as (1/sqrt(2)) sum_s a_s e^{i s theta}."""
    return sum(
        circular_ladder(space, cell, s) * (np.exp(1.0j * s * theta) / math.sqrt(2.0))
        for s in (1, -1)
    ).tocsr()


def cutoff_safe_projector(space: OracleSpace) -> sp.csr_matrix:
    """Projector onto states with every mode occupation strictly below the
    cutoff — the domain on which truncated ladder commutators are exact."""
    keep_mode = np.ones(space.levels)
    keep_mode[-1] = 0.0
    diag1 = np.kron(
        np.ones(space.grid.size), np.kron(keep_mode, keep_mode)
    )
    return sp.diags(functools.reduce(np.kron, [diag1] * space.n_osc), format="csr")


def commutator(a: sp.spmatrix, b: sp.spmatrix) -> sp.csr_matrix:
    return (a @ b - b @ a).tocsr()


def whole_spectrum_number(space: OracleSpace, mode: int) -> sp.csr_matrix:
    """Weighted cell sum of the number operators — the photon count for one
    polarization over the whole grid; integer spectrum."""
    return sum(
        space.grid.weights[i] * number_op(space, i, mode) for i in range(space.grid.size)
    ).tocsr()


def hamiltonian_single_polarization(space: OracleSpace) -> sp.csr_matrix:
    """Single-mode energy operator on one oscillator slot: weighted cell sum
    of freq * |k_i><k_i| tensor (a^dag a + 1/2), i.e. diag(freqs) on slot 0;
    basis kets |k_i, n, .> are eigenvectors with eigenvalue freq_i (n + 1/2)."""
    a = _lowering_matrix(space.levels)
    n_m = (a.conjugate().transpose() @ a).tocsr()
    half = n_m + 0.5 * sp.identity(space.levels, format="csr")
    one = sp.kron(sp.diags(space.grid.freqs), _two_mode(space, half, 1), format="csr")
    return _slot_embed(space, one, 0)


def yes_no_op(
    space: OracleSpace,
    cells: Sequence[int],
    angle: float,
    construction: str = "number",
) -> sp.csr_matrix:
    """Polarization yes/no observable over a cell subset at one analyzer
    angle: +1 on photons linearly polarized along the angle, -1 on the
    perpendicular ones.

    ``construction`` selects the build route: "number" subtracts the two
    perpendicular linear-mode number operators; "circular" uses the
    equivalent circular-basis combination e^{2 i s angle} a_{-s}^dag a_s.
    Both produce the same matrix.  Its cell sum of w_i |k_i><k_i| is 1 on
    the subset.
    """
    cells = _cells(space, cells)
    if construction not in ("number", "circular"):
        raise InputError(
            f"construction must be 'number' or 'circular', got {construction!r}"
        )
    a = _lowering_matrix(space.levels)
    a1 = _two_mode(space, a, 1)
    a2 = _two_mode(space, a, 2)
    if construction == "number":
        b_par = math.cos(angle) * a1 + math.sin(angle) * a2
        b_perp = -math.sin(angle) * a1 + math.cos(angle) * a2
        pair = (
            b_par.conjugate().transpose() @ b_par
            - b_perp.conjugate().transpose() @ b_perp
        ).tocsr()
    else:
        a_circ = {s: ((a1 - 1.0j * s * a2) / math.sqrt(2.0)).tocsr() for s in (1, -1)}
        pair = sum(
            np.exp(2.0j * s * angle) * (a_circ[-s].conjugate().transpose() @ a_circ[s])
            for s in (1, -1)
        ).tocsr()
    return _one_body(space, np.isin(np.arange(space.grid.size), cells) * 1.0, pair, 1.0)


# --------------------------------------------------------------------------
# state vectors


def _normalized_o(space: OracleSpace, o_values: Sequence[complex]) -> np.ndarray:
    o = np.asarray(o_values, dtype=np.complex128).reshape(-1)
    if o.size != space.grid.size:
        raise InputError(
            f"need one vacuum amplitude per cell ({space.grid.size}), got {o.size}"
        )
    nrm2 = float(np.sum(space.grid.weights * np.abs(o) ** 2))
    if nrm2 <= 0.0:
        raise InputError("vacuum amplitudes must not all vanish")
    return o / math.sqrt(nrm2)


def vacuum_vector(space: OracleSpace, o_values: Sequence[complex]) -> np.ndarray:
    """Product vacuum with per-cell amplitudes, unit-normalized so the
    weighted square sum of the amplitudes is one; annihilated by every
    lowering operator."""
    o = _normalized_o(space, o_values)
    single = np.zeros(space.dim_single, dtype=np.complex128)
    stride = space.levels * space.levels
    for i in range(space.grid.size):
        single[i * stride] = math.sqrt(space.grid.weights[i]) * o[i]
    return functools.reduce(np.kron, [single] * space.n_osc)


def _check_tables(space: OracleSpace, tables: Mapping[tuple[int, int], np.ndarray]):
    out = {}
    m = space.grid.size
    for slot, tab in tables.items():
        s, spp = slot
        if s not in (1, -1) or spp not in (1, -1):
            raise InputError(f"amplitude slot must use helicities +-1, got {slot!r}")
        arr = np.asarray(tab, dtype=np.complex128)
        if arr.shape != (m, m):
            raise InputError(
                f"amplitude table for slot {slot} must be {m}x{m}, got {arr.shape}"
            )
        out[slot] = arr
    if not out:
        raise InputError("amplitude tables are empty")
    return out


def two_photon_vector(
    space: OracleSpace,
    tables: Mapping[tuple[int, int], np.ndarray],
    o_values: Sequence[complex],
) -> np.ndarray:
    """Pair state: weighted double cell sum of psi_ss'(k_i, k_j) times two
    circular creation operators applied to the vacuum (not normalized)."""
    tables = _check_tables(space, tables)
    vac = vacuum_vector(space, o_values)
    w = space.grid.weights
    create = {
        (s, i): circular_ladder(space, i, s).conjugate().transpose().tocsr()
        for s in (1, -1)
        for i in range(space.grid.size)
    }
    raised = {key: op @ vac for key, op in create.items()}
    out = np.zeros_like(vac)
    for (s, spp), tab in tables.items():
        for i in range(space.grid.size):
            inner = np.zeros_like(vac)
            for j in range(space.grid.size):
                coef = w[i] * w[j] * tab[i, j]
                if coef != 0.0:
                    inner += coef * raised[(spp, j)]
            out += create[(s, i)] @ inner
    return out


# --------------------------------------------------------------------------
# closed-form references: the engine's sums on the grid tables


def _z_values(space: OracleSpace, z_values: Sequence[float]) -> np.ndarray:
    z = np.asarray(z_values, dtype=np.float64).reshape(-1)
    if z.size != space.grid.size:
        raise InputError(
            f"need one density value per cell ({space.grid.size}), got {z.size}"
        )
    if np.any(z < 0.0):
        raise InputError("density values must be nonnegative")
    return z


def norm_reference(
    space: OracleSpace,
    tables: Mapping[tuple[int, int], np.ndarray],
    z_values: Sequence[float],
) -> float:
    """Closed-form squared norm of the pair state: ``states.norm_sum`` over the
    grid as one arm, each stored slot table T as the general slot (T, I)."""
    slots = _check_tables(space, tables).items()
    table = {s: (lambda *_, t=t: t, lambda *_, t=t: np.eye(len(t))) for s, t in slots}
    amp = TwoPhotonAmplitude(kind="general", table=table)
    u = space.grid.weights * _z_values(space, z_values)
    dirs = np.array([k.dir for k, _ in space.grid.cells])
    return norm_sum(amp, [(space.grid.freqs, dirs, u)], space.n_osc)


def four_term_reference(
    space: OracleSpace,
    tables: Mapping[tuple[int, int], np.ndarray],
    z_values: Sequence[float],
    subset_b: Sequence[int],
    subset_a: Sequence[int],
    beta: float,
    alpha: float,
) -> float:
    """Disjoint-detector correlation numerator, discretized: ``states.four_term``
    (8(N-1)/N times the four e^{-2i(beta +- alpha)} slot products) of the
    ``slot_moments`` over the two cell subsets, slot table T as factors (T[ib], I[ia])."""
    ib, ia = _cells(space, subset_b), _cells(space, subset_a)
    eye = np.eye(space.grid.size)
    pairs = {s: PairTable(tab[ib], eye[ia]) for s, tab in _check_tables(space, tables).items()}
    u = space.grid.weights * _z_values(space, z_values)
    return four_term(slot_moments(pairs, u[ib], u[ia]), beta, alpha, space.n_osc)


def coincident_term(
    space: OracleSpace,
    tables: Mapping[tuple[int, int], np.ndarray],
    z_values: Sequence[float],
    subset_b: Sequence[int],
    subset_a: Sequence[int],
    beta: float,
    alpha: float,
) -> complex:
    """Every contribution to the unnormalized correlation that fires only
    where the two subsets share cells: the same-cell part of the two-point
    vacuum factor in the ordinary term, plus the explicitly coincident term
    with its whole-grid inner sum.  Complex in general — the two analyzer
    observables do not commute on shared cells."""
    tables = _check_tables(space, tables)
    z = _z_values(space, z_values)
    w = space.grid.weights
    same, cross, _ = oscillator_factors(space.n_osc)
    shared = sorted(set(_cells(space, subset_b)) & set(_cells(space, subset_a)))
    total = 0.0 + 0.0j
    for i in shared:
        # same-cell piece of the two-point vacuum factor in the ordinary term
        for (s, spp), tab in tables.items():
            partner = tables.get((-spp, -s))
            if partner is None:
                continue
            phase = np.exp(-2.0j * (s * beta + spp * alpha))
            total += 2.0 * same * w[i] * phase * np.conj(tab[i, i]) * partner[i, i] * z[i]
        # explicitly coincident term: inner momentum sum over the whole grid
        for (s, spp), tab in tables.items():
            phase = np.exp(-2.0j * s * (beta - alpha))
            row = tab[i, :]
            inner = np.conj(row) * row * w * (
                same * (np.arange(space.grid.size) == i) / w * z[i] + cross * z * z[i]
            )
            total += 2.0 * w[i] * phase * np.sum(inner)
    return complex(total)


# --------------------------------------------------------------------------
# oracle correlation


def _correlation(
    space: OracleSpace,
    vec: np.ndarray,
    subset_b: Sequence[int],
    subset_a: Sequence[int],
    beta: float,
    alpha: float,
) -> complex:
    """<vec| Y_beta Y_alpha |vec> for a pair vector that is already built."""
    y_b = yes_no_op(space, subset_b, beta)
    y_a = yes_no_op(space, subset_a, alpha)
    return complex(np.vdot(vec, y_b @ (y_a @ vec)))


def epr_unnormalized(
    space: OracleSpace,
    tables: Mapping[tuple[int, int], np.ndarray],
    o_values: Sequence[complex],
    subset_b: Sequence[int],
    subset_a: Sequence[int],
    beta: float,
    alpha: float,
) -> complex:
    """<pair| Y_beta Y_alpha |pair> by explicit matrices; handles subsets
    that share cells (the closed-form module refuses those).

    Real for disjoint subsets; on shared cells the two analyzer
    observables do not commute, so the ordered product picks up an
    imaginary part and the real part is the symmetrized average."""
    subset_b, subset_a = _cells(space, subset_b), _cells(space, subset_a)
    vec = two_photon_vector(space, tables, o_values)
    return _correlation(space, vec, subset_b, subset_a, beta, alpha)


def epr_oracle(
    space: OracleSpace,
    tables: Mapping[tuple[int, int], np.ndarray],
    o_values: Sequence[complex],
    subset_b: Sequence[int],
    subset_a: Sequence[int],
    beta: float,
    alpha: float,
) -> float:
    """Normalized correlation: the symmetrized (real-part) expectation
    divided by the squared norm of the pair state."""
    subset_b, subset_a = _cells(space, subset_b), _cells(space, subset_a)
    vec = two_photon_vector(space, tables, o_values)
    nrm2 = float(np.vdot(vec, vec).real)
    if nrm2 <= 0.0:
        raise PreconditionError("pair state has zero norm on this grid")
    return _correlation(space, vec, subset_b, subset_a, beta, alpha).real / nrm2


# --------------------------------------------------------------------------
# verification suite


def _opnorm(m: sp.spmatrix) -> float:
    m = m.tocoo()
    if m.nnz == 0:
        return 0.0
    return float(np.max(np.abs(m.data)))


def _sym_random_tables(rng, m: int) -> dict:
    """Random tables of all four slots with the exchange symmetry
    psi_ss'(k, k') = psi_s's(k', k)."""
    slots = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    raw = {slot: rng.normal(size=(m, m)) + 1.0j * rng.normal(size=(m, m)) for slot in slots}
    return {(s, spp): 0.5 * (tab + raw[(spp, s)].T) for (s, spp), tab in raw.items()}


def verify_suite(
    grid: DiscreteGrid,
    n_osc: int = 2,
    trunc: OscillatorTruncation | None = None,
    seed: int = 0,
    fault_scale: float = 1.0,
) -> list[CheckResult]:
    """Full oracle regression on one grid: commutation algebra, center,
    basis change, eigenvalues, spectra, norm formula, and correlation
    agreement, each as a named residual with its pass threshold.

    ``fault_scale`` multiplies the expected central element in the
    ladder-pair check; any value other than 1 is a deliberate fault that
    must make that check fail — a self-test that the harness can detect
    violations."""
    trunc = trunc or OscillatorTruncation()
    space = OracleSpace(grid, trunc, n_osc)
    rng = np.random.default_rng(seed)
    m = space.grid.size
    w = space.grid.weights
    guard = cutoff_safe_projector(space)
    tight, loose = 1e-12, 1e-8
    checks: list[CheckResult] = []

    zero = sp.csr_matrix((space.dim, space.dim))
    centers = [center_op(space, i) for i in range(m)]

    # ladder commutation with central right-hand side
    worst = 0.0
    for i in range(m):
        for j in range(m):
            for mo, mo2 in ((1, 1), (1, 2)):
                lhs = commutator(
                    ladder(space, i, mo, "lower"), ladder(space, j, mo2, "raise")
                )
                rhs = (fault_scale / w[i]) * centers[i] if (i == j and mo == mo2) else zero
                worst = max(worst, _opnorm((lhs - rhs) @ guard))
    checks.append(CheckResult("ladder-pair-commutator-central", worst, tight))

    # number-operator commutators (exact on the full truncated space)
    numbers = [number_op(space, j, 1) for j in range(m)]
    worst_low, worst_raise = 0.0, 0.0
    for i in range(m):
        low, rai = ladder(space, i, 1, "lower"), ladder(space, i, 1, "raise")
        for j, num in enumerate(numbers):
            rhs = (1.0 / w[i]) * low if i == j else zero
            worst_low = max(worst_low, _opnorm(commutator(low, num) - rhs))
            rhs2 = (-1.0 / w[i]) * rai if i == j else zero
            worst_raise = max(worst_raise, _opnorm(commutator(rai, num) - rhs2))
        worst_low = max(worst_low, _opnorm(commutator(low, number_op(space, i, 2))))
    checks.append(CheckResult("lowering-number-commutator", worst_low, tight))
    checks.append(CheckResult("raising-number-commutator", worst_raise, tight))

    # center: commutes with ladders and resolves the identity
    worst = max(
        _opnorm(commutator(ladder(space, j, mo, kind), cen))
        for cen in centers
        for j in range(m)
        for mo, kind in ((1, "lower"), (2, "raise"))
    )
    checks.append(CheckResult("center-commutes-with-ladders", worst, tight))
    resolution = sum(w[i] * centers[i] for i in range(m))
    checks.append(
        CheckResult(
            "center-resolution-of-identity",
            _opnorm(resolution - sp.identity(space.dim, format="csr")),
            tight,
        )
    )

    # single-oscillator ladder matches the cell-projector tensor form
    space1 = OracleSpace(grid, trunc, 1)
    a = _lowering_matrix(space1.levels)
    eye = sp.identity(space1.levels, format="csr")
    proj = sp.csr_matrix(([1.0 / w[0]], ([0], [0])), shape=(m, m))
    direct = sp.kron(proj, sp.kron(a, eye, format="csr"), format="csr")
    checks.append(
        CheckResult(
            "single-oscillator-ladder-form",
            _opnorm(ladder(space1, 0, 1, "lower") - direct),
            tight,
        )
    )

    # raise-then-lower number alternative: coincidence scale at n_osc = 1
    alt = number_op_quadratic(space1, 0, 1)
    scaled = coincidence_scale(space1, 0) * number_op(space1, 0, 1)
    checks.append(
        CheckResult("quadratic-number-coincidence-scale", _opnorm(alt - scaled), tight)
    )

    # basis change: linear ladder from circular pair equals mode rotation
    worst = 0.0
    for theta in (0.0, 0.37, -1.2):
        lin = linear_ladder(space, 0, theta)
        rot = math.cos(theta) * ladder(space, 0, 1, "lower") + math.sin(
            theta
        ) * ladder(space, 0, 2, "lower")
        worst = max(worst, _opnorm(lin - rot))
        # and back: circular from the two perpendicular linear modes
        lin_perp = linear_ladder(space, 0, theta + math.pi / 2.0)
        for s in (1, -1):
            back = (
                np.exp(-1.0j * s * theta)
                / math.sqrt(2.0)
                * (lin - 1.0j * s * lin_perp)
            )
            worst = max(worst, _opnorm(circular_ladder(space, 0, s) - back))
    checks.append(CheckResult("circular-linear-basis-change", worst, tight))

    # circular/linear ladders keep the central commutator
    worst = 0.0
    for i in range(m):
        lin = linear_ladder(space, i, 0.4)
        lhs = commutator(lin, lin.conjugate().transpose().tocsr())
        worst = max(worst, _opnorm((lhs - (1.0 / w[i]) * centers[i]) @ guard))
    checks.append(CheckResult("linear-ladder-commutator-central", worst, tight))

    # yes/no observable: two constructions agree; eigenvalues +-1
    worst = 0.0
    for ang in (0.0, 0.7):
        y_num = yes_no_op(space, range(m), ang, "number")
        y_cir = yes_no_op(space, range(m), ang, "circular")
        worst = max(worst, _opnorm(y_num - y_cir))
    checks.append(CheckResult("yesno-construction-equality", worst, tight))

    ang = 0.61
    o_vals = rng.normal(size=m) + 0.2
    vac = vacuum_vector(space, o_vals)
    y_full = yes_no_op(space, range(m), ang)
    for name, offset, eigenvalue in (
        ("yesno-aligned-eigenvalue-plus-one", 0.0, 1.0),
        ("yesno-crossed-eigenvalue-minus-one", math.pi / 2.0, -1.0),
    ):
        photon = sum(
            w[i]
            * math.sqrt(w[i])
            * (linear_ladder(space, i, ang + offset).conjugate().transpose().tocsr() @ vac)
            for i in range(m)
        )
        residual = float(
            np.max(np.abs(y_full @ photon - eigenvalue * photon))
            / max(np.max(np.abs(photon)), 1e-300)
        )
        checks.append(CheckResult(name, residual, tight))

    # vacuum: unit norm, annihilated by all lowering operators
    worst = abs(float(np.vdot(vac, vac).real) - 1.0)
    for i in range(m):
        for mo in (1, 2):
            worst = max(
                worst, float(np.max(np.abs(ladder(space, i, mo, "lower") @ vac)))
            )
    checks.append(CheckResult("vacuum-normalized-and-annihilated", worst, tight))

    # energy operator: basis kets are eigenvectors with freq*(n + 1/2)
    ham = hamiltonian_single_polarization(space)
    worst = 0.0
    stride = space.levels * space.levels
    for i in range(m):
        for occ in range(space.levels):
            idx = (i * stride + occ * space.levels) * (space.dim_single ** (space.n_osc - 1))
            basis = np.zeros(space.dim)
            basis[idx] = 1.0
            expect = space.grid.freqs[i] * (occ + 0.5)
            worst = max(worst, float(np.max(np.abs(ham @ basis - expect * basis))))
    checks.append(CheckResult("energy-eigenvalues-half-integer", worst, tight))

    # whole-spectrum photon count: diagonal with integer spectrum
    nsum = whole_spectrum_number(space, 1)
    diag = nsum.diagonal()
    off = nsum - sp.diags(diag)
    worst = max(
        _opnorm(off), float(np.max(np.abs(diag - np.round(diag.real))))
    )
    checks.append(CheckResult("whole-spectrum-count-integer", worst, tight))

    # pair-state norm against the closed form
    z_vals = np.abs(_normalized_o(space, o_vals)) ** 2
    tables = _sym_random_tables(rng, m)
    vec = two_photon_vector(space, tables, o_vals)
    nrm2 = float(np.vdot(vec, vec).real)
    ref = norm_reference(space, tables, z_vals)
    checks.append(
        CheckResult(
            "pair-norm-closed-form",
            abs(nrm2 - ref) / max(abs(ref), 1e-300),
            1e-10,
        )
    )

    # correlation: disjoint subsets match the four-term formula
    if m >= 2:
        sb, sa = [0], [m - 1]
        beta, alpha = 0.55, -0.3
        oracle_num = _correlation(space, vec, sb, sa, beta, alpha)
        ref_num = four_term_reference(space, tables, z_vals, sb, sa, beta, alpha)
        checks.append(
            CheckResult(
                "correlation-disjoint-four-term",
                abs(oracle_num - ref_num) / max(abs(ref_num), 1.0),
                loose,
            )
        )
        # overlapping subsets: the excess over the four-term formula is the
        # coincident contribution
        sb2, sa2 = [0, 1], [0]
        oracle2 = _correlation(space, vec, sb2, sa2, beta, alpha)
        ref2 = four_term_reference(space, tables, z_vals, sb2, sa2, beta, alpha)
        coin = coincident_term(space, tables, z_vals, sb2, sa2, beta, alpha)
        checks.append(
            CheckResult(
                "correlation-coincident-isolation",
                abs(oracle2 - ref2 - coin) / max(abs(oracle2), 1.0),
                loose,
            )
        )
    return checks
