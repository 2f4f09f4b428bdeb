"""Operator-based calculation of cavity-modified vacuum fluctuations.

An axially symmetric cavity conserves the azimuthal index m, so all
operators are block matrices over l at fixed m:

* the angular-spreading propagator between far field and the mirror shell
  is diagonal with unit-modulus entries exp(-i l(l+1)/(2 kR));
* the parity operator (focusing through the center) is diagonal with
  entries (-1)^l;
* mirror reflection/transmission are multiplication operators by the
  profiles rho(theta), tau(theta), whose matrix elements are integrals of
  normalized Legendre products against the profile, evaluated exactly by
  per-segment Gauss rules split at the mirror edges (operator_grid, the
  one grid every operator set uses). The profiles are constant on each
  segment, so one real Legendre Gram matrix per segment gives every
  operator of a block as a linear combination; only a profile that varies
  within a segment (the defocus phase) has a product of its own.

A mirror-symmetric cavity (equal caps, equal reflectivities, no defocus)
has profiles even in cos(theta). Since P_lm(-x) = (-1)^(l-m) P_lm(x), its
operators couple no l of opposite l - m parity, and every block splits into
an even and an odd parity sector. Each sector is assembled, solved,
decomposed and stored on its own, at half the dimension; any other cavity
keeps one sector holding all l. A sector's products are even in
cos(theta), so it is assembled on the half cos(theta) >= 0 of the mirrored
operator_grid at doubled weights (_Segments). A sector that a point's input
does not reach, its right-hand side exactly zero, has exact zero as its
solution and costs nothing: at the centre the input is the l = 0 harmonic
alone, so only the even sector of the m = 0 block is ever solved there.

The vacuum-fluctuation ratio at a point follows from a closure relation
over incoming far fields: expand the focused-wave kernel at the point,
apply the resolvent of one round trip, and take the squared norm weighted
by the transmitted-flux profile. Only the fractional part of the huge
round-trip phase 2kR matters for resonance, so it is supplied separately
as a detuning phase while kR itself only scales the diagonal phases.

The point enters through the real input v of specfun._focused_input, free
of its azimuth: the kernel's coefficient of Y_{l,+-m} is (-i)^l v[|m|, l]
times a unit phase of the block. The +m and -m blocks share one matrix,
and a unit phase does not change a block's value, so each |m| is solved
for the one column (-i)^l v and a +-m pair counts it twice. The value at a
point depends on kr and theta_r alone, to the last bit.

A sector that is solved again and again, for a detuning or position scan,
is answered from its modal (Fox-Li) decomposition: with rho = B D^T of
its numerical rank r and the r x r core D^T U^-2 P B of the round trip
U^-2 P rho diagonalised once, every later phase and right-hand side costs
two n x r matrix-vector products instead of a factorisation.
CavityOperatorSet decides when a sector is worth decomposing.

A scan of many points at one detuning phase (a position scan) is answered
from each block's form instead: with Y = A^-1 diag(u (-i)^l) the resolvent
applied to the propagator and the phases, the value of a block at a point
is v^T S v, S = w Re(Y^H tau^2 Y) with w = 2 for a +-m pair (1 for m = 0),
where v is the point's real input on the block and S, real and
symmetric, is the same for every point at that phase. S is formed once per
block, sector and phase from one checked n-column solve, and written
straight into its slot of a real 3-D stack: the forms of one phase sit in
a few stacks ordered by |m|, each over a range of |m| whose sectors are
zero-padded to the largest of them. A point then reads a prefix of each
stack, each slot up to the point's reach in l, and every formed block it
needs costs one gather of v, one batched real matrix-vector product and
one dot product per stack.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .quadrature import AngularGrid, cap_edges, polar_rule
from .ray_model import _SINGULAR_FLOOR, _cap_masks, defocus_profile
from .specfun import (  # noqa: F401 (perfbench/tracing.py wraps legendre_table, plane_wave_coeffs and radial_bessel_table here)
    TAIL_TOL,
    _SKIP_FLOOR,
    _focused_input,
    _legendre,
    _phases,
    _warn_tail,
    legendre_table,
    plane_wave_coeffs,
    radial_bessel_table,
)
from .structures import (
    CavityGeometry,
    EnhancementResult,
    FieldPoint,
    HarmonicBasis,
    SolverError,
    ValidityWarning,
)

__all__ = [
    "OperatorBlock",
    "ParitySector",
    "CavityOperatorSet",
    "operator_grid",
    "build_operators",
    "enhancement_full",
    "propagator_phases",
]

_RESIDUAL_LIMIT = 1e-8
# rent-or-buy: the first _MODAL_AFTER - 1 solves of a parity sector are
# direct, the next one decomposes it (_decompose: the SVD of rho, then eig
# and inv of the rank-r core). That costs 19-26 checked direct solves of the
# sector on a 2-core Xeon VM (best of 7 and of 51, one or two columns:
# 2.2-2.5 ms against 0.11-0.12 ms at dim 76, 9.8-11.5 against 0.43-0.52 ms
# at dim 151, 18-22 against 0.76-0.96 ms at dim 201), against 33-54 for eig
# and inv of the whole n x n round trip in the same session. Buying once the
# rent paid reaches the price keeps any run of solves within about 2.3 times
# the cost of the better of the two routes for it.
_MODAL_AFTER = 25
# rent-or-buy: the first _FORM_AFTER - 1 points that a block answers at one
# detuning phase are solved, the next one forms the block's real symmetric
# S at that phase (_hermitian_form). The n-column solve, its guard and S
# cost 3.6-4.8 one-column solves of the same block at dim 151, 6.4-6.6 at
# dim 201 and 8.2-8.6 at dim 401 on a 2-core Xeon VM, and an answer from the stacked forms 0.005 ms a block
# over the 44 blocks of an off-axis point at l_max 150 (0.011-0.012 ms for
# a block at dim 151 alone, 0.11 ms at dim 401) against 0.4-5 ms for a
# solve. Buying at the third point keeps any run of points at one phase
# within about 2-3 times the cost of the better route up to dim 201.
_FORM_AFTER = 3
# a stack of forms pads each sector to the largest in its |m| range; a range
# ends before a sector whose padded square would exceed this many times its
# own, which bounds the bytes of the stacks by the same factor
_FORM_PADDING = 1.25
# bytes of the Legendre table of one chunk of consecutive |m|, built by one
# recurrence. At l_max 150 (249 folded nodes) a 2 MB cap takes 13 recurrences
# for the 151 blocks, and a warm build_operators 0.040-0.064 s against
# 0.096-0.143 s with one per block on a 2-core Xeon VM; 16 MB takes 3, saves
# about 5% more and lifts the traced peak from 12.0 to 26.5 MB (10.3 per block)
_LEGENDRE_CHUNK = 2 * 2**20


def propagator_phases(ls: np.ndarray, k_radius: float) -> np.ndarray:
    """One-way angular-spreading phases exp(-i l(l+1)/(2 kR))."""
    return np.exp(-1j * ls * (ls + 1) / (2.0 * k_radius))


@dataclass(frozen=True)
class ParitySector:
    """The operators of one block restricted to the l at positions index of
    the block: the even or the odd l - m of a mirror-symmetric cavity, or
    every l of any other."""

    index: slice
    rho: np.ndarray        # reflection multiplication operator
    tau_sq: np.ndarray     # multiplication by tau(theta)^2, exactly integrated


@dataclass(frozen=True)
class OperatorBlock:
    """Operators restricted to fixed m (l runs from |m| to l_max), stored
    per parity sector: two sectors of about dim/2 for a mirror-symmetric
    cavity, whose operators couple no l of opposite l - m parity, and one
    holding every l otherwise. The couplings between sectors are never
    formed. rho is real (float64) when every reflection profile value is
    real, that is k_delta = 0, and complex otherwise; tau^2 is always real.
    The transmission operator tau is not stored: the value needs only the
    quadratic form of tau^2 in the solved coefficients."""

    m: int
    ls: np.ndarray
    sectors: tuple[ParitySector, ...]
    u_half: np.ndarray     # diagonal one-way propagator phases
    parity: np.ndarray     # diagonal (-1)^l
    flux_residual: float   # max |sum of segment Grams - I|: quadrature error

    @property
    def dim(self) -> int:
        return self.ls.size


@dataclass(frozen=True)
class _ModalFactors:
    """Modal factors of one sector of a block through the rank-r core of
    its rho = B D^T (_decompose): C = D^T U^-2 P B = W diag(eigenvalues)
    W^-1, kept as L = U^-2 P B W (n x r) and R = W^-1 D^T U^-2 (r x n), so
    that by (I - zBD)^-1 = I + zB(I - zDB)^-1 D the resolvent solution of
    (U^2 - z P rho) x = b is U^-2 b + z L [(R b) / (1 - z lambda)] for any
    z = e^{2i phi0} and any b: project takes (U^-2 b, R b), which do not
    depend on z, and solve the rest. condition is ||W||_1 ||W^-1||_1."""

    eigenvalues: np.ndarray
    left: np.ndarray       # L = U^-2 P B W
    right: np.ndarray      # R = W^-1 D^T U^-2
    inv_u_sq: np.ndarray   # the diagonal of U^-2
    condition: float

    def project(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.inv_u_sq[:, None] * rhs, self.right @ rhs

    def solve(self, z: complex, projected: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        scaled, right = projected
        return scaled + self.left @ (right * (z / (1.0 - z * self.eigenvalues))[:, None])


@dataclass
class _PhaseForms:
    """The forms held at one detuning phase (_hermitian_form). Every point
    asks the blocks |m| up to its own top, so the blocks asked _FORM_AFTER
    times or more are those up to the _FORM_AFTER-th highest top asked at
    this phase (formed_top); tops keeps the highest _FORM_AFTER tops, in
    descending order. Those blocks are formed, except the ones in failed, whose guard
    failed and which are solved. stacks[b] holds the slots of band b of
    _form_bands for the blocks |m| <= formed_top of that band, one
    zero-padded real symmetric matrix per sector; a failed block's slots
    are zero."""

    tops: list[int] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    stacks: list[np.ndarray] = field(default_factory=list)

    @property
    def formed_top(self) -> int:
        return self.tops[-1] if len(self.tops) == _FORM_AFTER else -1


@dataclass
class _HeldPoint:
    """What enhancement_full computes once per point kvec: the input v of
    _focused_input with its tail, reach, the last l where v is not zero, the
    input norm scale, top of _solved_magnitudes, the bound of the cut and
    the skipped pairs, and per modal sector, keyed as solve_counts, the
    factors and the projections (_ModalFactors.project) of the point's
    right-hand side on them."""

    kvec: tuple[float, float, float]
    v: np.ndarray
    tail: float
    reach: int
    scale: float
    top: int
    skipped: float
    projections: dict = field(default_factory=dict)


@dataclass
class CavityOperatorSet:
    """Per-m operator blocks for one geometry/basis, on the polar grid
    operator_grid(geometry, basis.l_max); blocks are immutable once built.
    The +m and -m blocks are identical, so only |m| is keyed.

    The set also counts the resolvent solves of each parity sector,
    keyed (|m|, sector position in OperatorBlock.sectors) in solve_counts; a
    sector whose input is exactly zero is not solved and not counted. The
    25th solve of a sector (_MODAL_AFTER) decomposes it once through the
    r x r core of its rho's numerical rank r (modes, one _ModalFactors under
    the same key, 32 n r bytes for a sector of n l), and that and every
    later solve of the sector are answered from its modal factors; a sector
    whose factors fail the residual check, or cannot be computed, keeps
    None in modes and is solved directly from then on, while the other
    sector of its block keeps its own factors.

    forms maps the one detuning phase held to its _PhaseForms: how often
    the points at that phase have asked each block, and the forms of the
    blocks asked _FORM_AFTER times or more, one real symmetric n x n matrix
    per sector (8 n^2 bytes, at most _FORM_PADDING times that with its
    padding), stacked by |m|. A point at another phase frees them and
    restarts every count. Answers from a form do not count towards
    _MODAL_AFTER: a phase sweep still goes modal. lossless, set once, says
    that a mirror reflects within the singular floor of 1; otherwise |rho|
    <= max rho < 1 and no block can be singular. A lossless cavity is always
    solved directly and never formed. gain = 1 / (1 - max rho)^2, infinite
    when lossless, is the most that an input of unit energy gives any block,
    as U and P are unitary, |rho| <= max rho and |tau^2| <= 1. A set answers
    only for the geometry and basis it was built for: enhancement_full
    rejects any other with ValueError. The set holds the last point asked
    (_HeldPoint), which a call at another point frees and replaces."""

    geometry: CavityGeometry
    basis: HarmonicBasis
    grid: AngularGrid = field(init=False, repr=False)
    segments: _Segments = field(init=False, repr=False)
    lossless: bool = field(init=False)
    gain: float = field(init=False)
    blocks: dict[int, OperatorBlock] = field(init=False, default_factory=dict)
    solve_counts: dict[int, int] = field(init=False, default_factory=dict)
    modes: dict[int, tuple[_ModalFactors, ...] | None] = field(
        init=False, default_factory=dict)
    forms: dict[float, _PhaseForms] = field(init=False, default_factory=dict)
    flux_residual: float = field(init=False, default=0.0)
    _held: _HeldPoint | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.grid = operator_grid(self.geometry, self.basis.l_max)
        self.segments = _segments(self.geometry, self.grid)
        rho = max(self.geometry.rho1, self.geometry.rho2)
        self.lossless = rho >= 1.0 - _SINGULAR_FLOOR
        self.gain = math.inf if self.lossless else 1.0 / (1.0 - rho) ** 2

    def block(self, m: int) -> OperatorBlock:
        key = abs(m)
        if key not in self.blocks:
            self._add(_build_blocks(self.geometry, self.basis, self.segments, (key,)))
        return self.blocks[key]

    def _add(self, blocks: dict[int, OperatorBlock]):
        self.blocks.update(blocks)
        self.flux_residual = max([self.flux_residual, *(b.flux_residual for b in blocks.values())])


def operator_grid(geom: CavityGeometry, l_max: int) -> AngularGrid:
    """Polar grid split at the mirror edges, with enough Gauss nodes per
    segment to integrate products of two degree-l_max Legendre functions
    exactly (plus margin for the defocus phase factor)."""
    order = l_max + 16 + int(2.0 * abs(geom.k_delta))
    return polar_rule(cap_edges(geom.theta_m1, geom.theta_m2), order)


def mirror_profiles(geom: CavityGeometry, theta: np.ndarray):
    """Reflection and transmission profiles sampled on polar nodes.

    Mirror 1 is the cap around theta = 0, mirror 2 the cap around theta = pi.
    An axial mispositioning k_delta of mirror 2 adds the direction-dependent
    reflection phase of defocus_profile, written in that mirror's local polar
    angle pi - theta.
    """
    rho_vals = np.zeros(theta.shape, dtype=complex)
    tau_sq = np.ones(theta.shape)
    cap1, cap2 = _cap_masks(theta, geom.theta_m1, geom.theta_m2)
    rho_vals[cap1] = geom.rho1
    rho_vals[cap2] = defocus_profile(geom.rho2, geom.k_delta, math.pi - theta[cap2])
    tau_sq[cap1] = geom.transmittivity1
    tau_sq[cap2] = geom.transmittivity2
    return rho_vals, tau_sq


def _parity_sectors(geom: CavityGeometry, dim: int) -> tuple[slice, ...]:
    """Positions in a block of dim l that couple only among themselves: the
    even and the odd l - m of a mirror-symmetric cavity, whose profiles are
    even in cos(theta), and every l together for any other cavity (or a
    block of one l)."""
    if dim > 1 and geom.is_symmetric and geom.k_delta == 0.0:
        return (slice(0, None, 2), slice(1, None, 2))
    return (slice(None),)


def _legendre_chunks(l_max: int, n_points: int, ms) -> list[tuple[int, int]]:
    """Ranges m_lo..m_hi of consecutive values of the ascending distinct ms,
    each as long as its Legendre table of l = m_lo..l_max at n_points
    stays within _LEGENDRE_CHUNK bytes, and at least one m."""
    chunks = []
    for m in ms:
        if chunks and m == chunks[-1][1] + 1 and (
                (l_max + 1 - chunks[-1][0]) * (m + 1 - chunks[-1][0]) * n_points * 8
                <= _LEGENDRE_CHUNK):
            chunks[-1] = (chunks[-1][0], m)
        else:
            chunks.append((m, m))
    return chunks


@dataclass(frozen=True)
class _Segments:
    """What every block of one cavity on one grid shares: the polar nodes mu
    that the blocks run on and, per segment, (node indices into mu, weight
    column, profiles), where profiles holds rho and tau^2 each as its value
    where it is constant on the segment, or its node values where it is not
    (the defocus phase). A segment is a contiguous run of polar_rule's
    nodes, which ascend in cos(theta); the runs are listed by ascending
    theta, the last run first. rho is real when every reflection profile
    value is.

    For a cavity with two parity sectors, whose products are all even in
    mu, mu keeps the upper half of the mirrored rule (node i pairs with
    N - 1 - i) at doubled weights, the middle node of an odd N, its own
    mirror, at its own. That is exact for an even integrand, as a Gauss
    rule of half the order on [0, cos(theta_m)] would not be."""

    mu: np.ndarray
    parts: tuple


def _segments(geom: CavityGeometry, grid: AngularGrid) -> _Segments:
    n = grid.mu.size
    # the first fold nodes are dropped; their mirrors double their weights
    fold = n // 2 if len(_parity_sectors(geom, 2)) == 2 else 0
    w = grid.w_theta.copy()
    w[n - fold:] *= 2.0
    rho_vals, tau_sq_vals = mirror_profiles(geom, grid.theta)
    if not np.any(rho_vals.imag):
        rho_vals = rho_vals.real
    run = n // (len(grid.edges) + 1)
    parts = []
    for start in range(n - run, fold - run, -run):
        idx = np.arange(max(start, fold), start + run)
        profiles = tuple(f[0] if np.all(f == f[0]) else f
                         for f in (rho_vals[idx], tau_sq_vals[idx]))
        parts.append((idx - fold, w[idx, None], profiles))
    return _Segments(grid.mu[fold:], tuple(parts))


def _build_blocks(geom, basis, segments: _Segments, ms) -> dict[int, OperatorBlock]:
    """The blocks |m| for the m in ms, on the grid of segments. The
    Legendre tables of each chunk of consecutive |m| (_legendre_chunks)
    come from one recurrence, and each block reads its slice."""
    ms = [abs(m) for m in ms]
    bad = next((m for m in ms if m > basis.l_max), None)
    if bad is not None:
        raise ValueError(f"l_max={basis.l_max} smaller than m={bad}")
    mu = segments.mu
    blocks = {}
    for m_lo, m_hi in _legendre_chunks(basis.l_max, mu.size, sorted(set(ms))):
        table = _legendre(basis.l_max, m_lo, m_hi, mu)
        for m in range(m_lo, m_hi + 1):
            v = table[m - m_lo:, m - m_lo]
            if m == m_hi:
                # a copy, not a view, so that the table is not held while the
                # chunk's last block is assembled
                v = v.copy()
                del table
            blocks[m] = _build_block(geom, basis, segments, m, v.T)
    return blocks


def _build_block(geom, basis, segments: _Segments, m: int, v: np.ndarray) -> OperatorBlock:
    """Block m from its Legendre table v, P_lm at node i and l = m + j in
    v[i, j], in one sweep over the segments of each parity sector. The real
    Gram v_s^T diag(w_s) v_s of each segment adds to the flux identity, and
    to rho and tau^2 times the profile's value where the profile is constant
    on the segment; where it is not, the operator gets the segment's own
    weighted product. Real profile values give a real operator. No Gram
    couples two sectors."""
    ls = basis.block_ls(m)
    sectors = []
    flux_residual = 0.0
    for index in _parity_sectors(geom, ls.size):
        columns = v[:, index]
        ident, operators = 0.0, [0.0, 0.0]
        for idx, w, profiles in segments.parts:
            v_s = columns[idx]
            wv = w * v_s
            gram = v_s.T @ wv
            ident += gram
            for i, f in enumerate(profiles):
                operators[i] += f * gram if np.ndim(f) == 0 else v_s.T @ (f[:, None] * wv)
        # |rho|^2 + tau^2 = 1 holds pointwise, so the flux identity's Gram is
        # the sum of the segment Grams and must come out as the identity; any
        # deviation is pure quadrature error (the operator-product form
        # rho'rho + tau'tau carries an additional truncation tail near l_max
        # and is not used as the diagnostic)
        ident[np.diag_indices(ident.shape[0])] -= 1.0
        flux_residual = max(flux_residual, float(np.max(np.abs(ident))))
        sectors.append(ParitySector(index, rho=operators[0], tau_sq=operators[1]))
    return OperatorBlock(
        m=m,
        ls=ls,
        sectors=tuple(sectors),
        u_half=propagator_phases(ls, geom.k_radius),
        parity=(-1.0) ** ls,
        flux_residual=flux_residual,
    )


def build_operators(
    geom: CavityGeometry,
    basis: HarmonicBasis,
    m_values=None,
) -> CavityOperatorSet:
    """Assemble per-m cavity operators on operator_grid(geom, basis.l_max),
    the polar grid split at the mirror edges.

    m_values defaults to every m in the basis; pass (0,) for on-axis work.
    The blocks are built together (_build_blocks): one Legendre recurrence
    per chunk of consecutive |m|, each chunk's table capped at
    _LEGENDRE_CHUNK bytes, and each block reads its slice. Each block
    stores rho (real when k_delta = 0) and tau^2 per parity sector (two for
    a mirror-symmetric cavity, one otherwise), both assembled in one sweep
    over the polar segments (_build_block). The grid resolves Legendre
    products up to degree 2*l_max per segment. Each block reports
    flux_residual: the largest entry of the sum of the segment Grams minus
    the identity, over the sectors, which is the Gram of |rho|^2 + tau^2 =
    1 (an identity that holds pointwise), so it measures quadrature error
    alone. An |m| above l_max raises ValueError.
    """
    ops = CavityOperatorSet(geometry=geom, basis=basis)
    if m_values is None:
        m_values = range(basis.l_max + 1)
    ops._add(_build_blocks(geom, basis, ops.segments, m_values))
    return ops


def _resolvent_matrix(block: OperatorBlock, sector: ParitySector, z: complex):
    """Round-trip resolvent matrix diag(u^2) - z P.rho, z = e^{2i phi0}, on
    one sector of a block, with the parity P applied after the mirror
    multiplication, in one allocation."""
    a = np.multiply(block.parity[sector.index, None], sector.rho, dtype=complex)
    a *= -z
    a.reshape(-1)[:: a.shape[0] + 1] += block.u_half[sector.index] ** 2
    return a


def _condition(matrices) -> float:
    """2-norm condition number of the block-diagonal matrix with the given
    diagonal blocks: its singular values are theirs together, so it is the
    largest over the smallest across all of them; NaN when an entry is not
    finite."""
    if not all(np.all(np.isfinite(a)) for a in matrices):
        return math.nan
    values = [np.linalg.svd(a, compute_uv=False) for a in matrices]
    with np.errstate(divide="ignore"):
        return float(max(s[0] for s in values) / min(s[-1] for s in values))


def _block_condition(block: OperatorBlock, z: complex) -> float:
    """2-norm condition number of the resolvent of the whole block, over
    all its sectors (_condition)."""
    return _condition([_resolvent_matrix(block, s, z) for s in block.sectors])


def _solve_block(ops: CavityOperatorSet, m: int, z: complex, rhs: np.ndarray,
                 scale: float, projections: dict | None = None):
    """Solve (U^2 - z P rho) x = rhs, z = e^{2i phi0}, for block |m|, for the
    columns of rhs, sector by sector; returns x, the sectors that were
    solved and the condition ||W||_1 ||W^-1||_1 of the modal factors of each
    sector that was answered from them, in a tuple (None when none was).

    A sector whose right-hand side is exactly zero is not solved, counted
    or decomposed: its part of x is exact zero, the solution of a regular
    system. The solves of every other sector are counted per (|m|, sector):
    its first _MODAL_AFTER - 1 are direct (_checked_solve), the next one
    decomposes it once (_decompose), and from then on it is answered from
    its modal factors, each answer checked by its residual against the
    original operator at the same limit as a direct solve. If the check
    fails, that sector is solved directly instead, which raises SolverError
    if it fails too, and its factors are dropped for good. A lossless
    cavity is always solved directly, and its block is first checked for
    singularity as a whole, the sectors without input included: the check
    costs as much as a solve on every call.

    A modal answer takes the projections of rhs from projections (the held
    point's, for its own rhs) where they come from the same factors, and
    keeps new ones there; without it, rhs is projected on every call."""
    key = abs(m)
    block = ops.block(key)
    label = f"m=+-{key}" if key else "m=0"
    if ops.lossless:
        _singular_guard(block, z, label)
    x = np.zeros(rhs.shape, dtype=complex)
    solved, conditions = [], []
    projections = {} if projections is None else projections
    for s, sector in enumerate(block.sectors):
        b = rhs[sector.index]
        if not np.any(b):
            continue
        solved.append(sector)
        sector_key = (key, s)
        factors = None
        if not ops.lossless:
            count = ops.solve_counts.get(sector_key, 0) + 1
            ops.solve_counts[sector_key] = count
            if count == _MODAL_AFTER:
                ops.modes[sector_key] = _decompose(block, sector)
            factors = ops.modes.get(sector_key)
        xs = None
        if factors is not None:
            projected = projections.get(sector_key)
            if projected is None or projected[0] is not factors:
                projected = projections[sector_key] = (factors, factors.project(b))
            xs = _modal_solve(block, sector, factors, z, b, scale, projected[1])
            if xs is None:
                ops.modes[sector_key] = None
            else:
                conditions.append(factors.condition)
        if xs is None:
            xs = _checked_solve(block, sector, z, b, scale, label)
        x[sector.index] = xs
    return x, tuple(solved), tuple(conditions) or None


def _apply(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """op @ x for complex columns x, without casting a real op to complex: a
    real op takes one real product over x viewed as float (n, 2k)."""
    if np.isrealobj(op):
        return (op @ np.ascontiguousarray(x).view(np.float64)).view(complex)
    return op @ x


def _residual(block: OperatorBlock, sector: ParitySector, z: complex,
              x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A x - b on one sector, A = diag(u^2) - z P rho, for the columns of x
    and b, without forming A: a real rho takes half the flops of A @ x."""
    resid = _apply(sector.rho, x)
    resid *= -z * block.parity[sector.index, None]
    resid += (block.u_half[sector.index] ** 2)[:, None] * x
    resid -= b
    return resid


def _modal_solve(block: OperatorBlock, sector: ParitySector, factors: _ModalFactors,
                 z: complex, b: np.ndarray, scale: float, projected) -> np.ndarray | None:
    """The solution on one sector from its modal factors and the
    projections of b on them, or None when it fails the residual check."""
    xs = factors.solve(z, projected)
    resid = float(np.max(np.abs(_residual(block, sector, z, xs, b))))
    return xs if resid <= _RESIDUAL_LIMIT * scale else None


def _decompose(block: OperatorBlock, sector: ParitySector) -> _ModalFactors | None:
    """Modal factors of one sector of a block, or None when a decomposition
    fails or is not finite. The SVD rho = U_s S V_s^H, cut to its numerical
    rank r (the singular values above S_max n eps, np.linalg.matrix_rank's
    rule), gives B = U_s S^1/2 and D^T = S^1/2 V_s^H; a rank-0 core (no
    mirror) leaves U^-2 b alone."""
    inv_u_sq = 1.0 / block.u_half[sector.index] ** 2
    try:
        u_s, s, v_sh = np.linalg.svd(sector.rho)
        r = int(np.count_nonzero(s > s[0] * s.size * np.finfo(float).eps))
        root = np.sqrt(s[:r])
        b = (inv_u_sq * block.parity[sector.index])[:, None] * (u_s[:, :r] * root)  # U^-2 P B
        d_t = root[:, None] * v_sh[:r]
        del u_s, v_sh  # not held while eig and inv work on the core
        eigenvalues, w = np.linalg.eig(d_t @ b)
        w_inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None
    left, right = b @ w, (w_inv @ d_t) * inv_u_sq
    if not all(np.all(np.isfinite(a)) for a in (eigenvalues, left, right)):
        return None
    condition = float(np.linalg.norm(w, 1) * np.linalg.norm(w_inv, 1))
    return _ModalFactors(eigenvalues, left, right, inv_u_sq, condition)


def _singular_guard(block: OperatorBlock, z: complex, label: str):
    """Raise SolverError when the resolvent of a lossless cavity's block is
    singular to working precision: its condition number reaches
    1/(dim * eps). On resonance such a block is singular, but rounding in
    its quadrature-built entries decides whether a solve fails, returns a
    meaningless finite answer or one with a large residual. The condition
    number is that of the whole block, over all its sectors, and dim is the
    block's: a sector whose entries are all small can have a modest
    condition number of its own while the block is singular. A block with
    an entry that is not finite, condition NaN, is left to the solve."""
    cond = _block_condition(block, z)
    if cond * block.dim * np.finfo(float).eps >= 1.0:
        raise SolverError(
            f"resolvent of {label} block is singular to working precision "
            f"(condition estimate {cond:.2e}): lossless mirror on a cavity resonance"
        )


def _checked_solve(block, sector, z, b, scale, label):
    """Solve one sector of a block directly for the columns of b, and check
    its largest residual against scale, the norm of the whole input: a
    sector whose right-hand side has underflowed towards the subnormal
    range has no meaningful residual relative to itself. A NaN residual
    fails the check."""
    try:
        xs = np.linalg.solve(_resolvent_matrix(block, sector, z), b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"resolvent solve failed in {label} block: {exc}") from exc
    resid = float(np.max(np.abs(_residual(block, sector, z, xs, b))))
    if not resid <= _RESIDUAL_LIMIT * scale:
        raise SolverError(
            f"resolvent solve in {label} block has residual {resid:.2e} against "
            f"input norm {scale:.2e} (condition estimate {_block_condition(block, z):.2e}); "
            "reflectivity too close to 1 at a degenerate phase, or non-finite input"
        )
    return xs


@dataclass(frozen=True)
class _FormBand:
    """The slots of the blocks |m| = first..last of a basis in a stack of
    forms: each block's sectors in turn, every one padded to size, the
    largest of them; ends[|m| - first] counts the slots up to and including
    |m|."""

    geometry: CavityGeometry
    l_max: int
    first: int
    last: int
    size: int
    ends: np.ndarray

    @functools.cached_property
    def index(self) -> np.ndarray:
        """Row j lists the entries of a point's flattened input v
        (_focused_input, [|m|, l]) that slot j reads: entry j of block m,
        l = m + j, is m (l_max + 2) + j. Its padding reads entry 0 against
        zero rows and columns of the form. Built when a stack of the band is
        first allocated."""
        index = np.zeros((self.ends[-1], self.size), dtype=np.intp)
        j = 0
        for m in range(self.first, self.last + 1):
            dim = self.l_max + 1 - m
            for sector in _parity_sectors(self.geometry, dim):
                rows = m * (self.l_max + 2) + np.arange(dim)[sector]
                index[j, : rows.size] = rows
                j += 1
        index.flags.writeable = False
        return index


@functools.lru_cache(maxsize=4)
def _form_bands(geom: CavityGeometry, l_max: int) -> tuple[_FormBand, ...]:
    """The bands of the stacks of forms over every |m| of a basis, in order.
    Sector sizes do not grow with |m|, the first sector of a block being the
    larger; a band ends before a block whose last sector, padded to the
    band's size, would hold more than _FORM_PADDING times its own bytes."""
    sizes = [[len(range(dim)[s]) for s in _parity_sectors(geom, dim)]
             for dim in range(l_max + 1, 0, -1)]
    starts = [0]
    for m in range(1, l_max + 1):
        if _FORM_PADDING * sizes[m][-1] ** 2 < sizes[starts[-1]][0] ** 2:
            starts.append(m)
    bands = []
    for first, end in zip(starts, starts[1:] + [l_max + 1]):
        ends = np.cumsum([len(s) for s in sizes[first:end]])
        ends.flags.writeable = False
        bands.append(_FormBand(geom, l_max, first, end - 1, sizes[first][0], ends))
    return tuple(bands)


def _phase_forms(ops: CavityOperatorSet, top: int, detuning_phase: float, z: complex):
    """The _PhaseForms of detuning_phase after counting a point that asks
    the blocks |m| <= top, a new phase freeing the old forms; the blocks
    asked for the _FORM_AFTER-th time, which follow the formed ones, are
    formed now. None for a lossless cavity, which is never formed."""
    if ops.lossless:
        return None
    state = ops.forms.get(detuning_phase)
    if state is None:
        ops.forms.clear()  # the old stacks are not held while new ones are built
        state = ops.forms[detuning_phase] = _PhaseForms()
    formed_top = state.formed_top
    state.tops = sorted(state.tops + [top], reverse=True)[:_FORM_AFTER]
    if state.formed_top > formed_top:
        _form_blocks(ops, state, formed_top + 1, state.formed_top, z)
    return state


def _form_blocks(ops: CavityOperatorSet, state: _PhaseForms, lo: int, hi: int, z: complex):
    """Form the blocks lo..hi, which follow the formed ones, straight into
    their slots. Each band up to hi first gets a stack of its slots of
    |m| <= hi; a band that has one already is copied once into a larger."""
    bands = _form_bands(ops.geometry, ops.basis.l_max)
    phase = _phases(ops.basis.l_max)
    for b, band in enumerate(bands):
        if band.first > hi:
            break
        need = band.ends[min(hi, band.last) - band.first]
        shape = (need, band.size, band.size)
        if b == len(state.stacks):
            state.stacks.append(np.zeros(shape))
        elif state.stacks[b].shape[0] < need:
            grown = np.zeros(shape)
            grown[: state.stacks[b].shape[0]] = state.stacks[b]
            state.stacks[b] = grown
        stack = state.stacks[b]
        for m in range(max(lo, band.first), min(hi, band.last) + 1):
            start = band.ends[m - band.first - 1] if m > band.first else 0
            block = ops.block(m)
            slots = stack[start: start + len(block.sectors)]
            if not _hermitian_form(block, z, slots, phase[m:]):
                slots[...] = 0.0
                state.failed.add(m)


def _hermitian_form(block: OperatorBlock, z: complex, slots, phase: np.ndarray) -> bool:
    """Write, per sector, S = w Re(D^H K D) of K = X^H tau^2 X, with X =
    A^-1 diag(u) the resolvent A of the sector applied to the propagator,
    D = diag(phase) = diag((-i)^l) over the block's l and w = 2 for a +-m
    pair (1 for m = 0), into the leading n x n of its slot; False when a
    solve fails or the guard does.

    A point's input on the block is D v up to a unit phase, v real (row |m|
    of _focused_input), and each of the +m and -m columns adds v^T Re(D^H K
    D) v, so the block's value is v^T S v. With Y = X D = A^-1 diag(u
    phase), from one n-column solve, Y^H tau^2 Y = D^H K D, and its real
    part is P^T tau^2 P + Q^T tau^2 Q for Y = P + iQ: a real symmetric S.
    The guard keeps the forms only if every row r_i of A Y - diag(u phase)
    has ||r_i||_2 <= _RESIDUAL_LIMIT (a NaN fails). A point's solution Y v
    then has the residual (A Y - diag(u phase)) v, whose entries are at
    most ||r_i||_2 ||v_s||_2 <= _RESIDUAL_LIMIT * scale, as the point's
    input on the sector has ||v_s||_2 <= scale, the norm of its whole
    input: the guard implies the residual check of _checked_solve for every
    later point."""
    for sector, slot in zip(block.sectors, slots):
        rhs = np.diag(block.u_half[sector.index] * phase[sector.index])
        try:
            y = np.linalg.solve(_resolvent_matrix(block, sector, z), rhs)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.linalg.norm(_residual(block, sector, z, y, rhs), axis=1)
                      <= _RESIDUAL_LIMIT):
            return False
        n = rhs.shape[0]
        del rhs
        p, q = np.ascontiguousarray(y.real), np.ascontiguousarray(y.imag)
        del y
        out = slot[:n, :n]
        np.matmul(p.T, sector.tau_sq @ p, out=out)
        out += q.T @ (sector.tau_sq @ q)
        if block.m:
            out *= 2.0
    return True


def _stacked_value(ops: CavityOperatorSet, state: _PhaseForms, v: np.ndarray,
                   top: int, reach: int) -> float:
    """The sum of v^T S v over the blocks |m| <= top, top <= formed_top, of
    the point's real input v (_focused_input, [|m|, l]), zero for l above
    reach, read from the prefix of each stack: one gather of the flattened
    v, one batched real matrix-vector product and one dot per stack. Each
    slot is read up to n, the positions of the band's first sector with l
    <= reach: no slot of the band holds a lower l at the same position. The
    zero slots of a failed block add nothing."""
    value, v = 0.0, v.reshape(-1)
    if top < 0:
        return value
    l_max = ops.basis.l_max
    for band, stack in zip(_form_bands(ops.geometry, l_max), state.stacks):
        if band.first > top:
            break
        k = band.ends[min(top, band.last) - band.first]
        first = _parity_sectors(ops.geometry, l_max + 1 - band.first)[0]
        n = min(band.size, len(range(reach + 1 - band.first)[first]))
        c = v[band.index[:k, :n]]
        value += float(np.vdot(c, np.matmul(stack[:k, :n, :n], c[:, :, None])))
    return value


def _tau_sq_form(sectors, x: np.ndarray) -> float:
    """Re x^H tau^2 x of the solution x of one column, summed over the
    given sectors of its block, those where x is not exact zero. tau^2 is
    real, so the form is a^T tau^2 a + b^T tau^2 b for x = a + ib: near a
    lossless resonance it cancels to a few parts in 1e3 of its terms, and
    another summation order alone moves it by several 1e-14."""
    form = 0.0
    for sector in sectors:
        xs = x[sector.index]
        form += float(xs.real @ (sector.tau_sq @ xs.real)
                      + xs.imag @ (sector.tau_sq @ xs.imag))
    return form


def enhancement_full(
    geom: CavityGeometry,
    basis: HarmonicBasis,
    point: FieldPoint,
    detuning_phase: float,
    *,
    ops: CavityOperatorSet | None = None,
    tail_tol: float = TAIL_TOL,
    collect_condition: bool = False,
) -> EnhancementResult:
    """Vacuum-fluctuation ratio at a point from the full operator calculation.

    Expands the focused-wave kernel at the point over harmonics, applies the
    round-trip resolvent per m block, and accumulates the transmitted-flux
    weighted squared norm. The final norm uses the exactly integrated
    multiplication operator for tau^2 (a quadratic form in the solved
    coefficients), which avoids one truncation stage.

    The input is the real [|m|, l] array v of specfun._focused_input, row
    |m| the input of block |m|, so the value depends on the point through
    kr and theta_r alone; each |m| is solved for one column, counted twice
    for a +-m pair. Only the input that can matter is solved: an input of
    energy e gives a block at most e ops.gain, so off the axis v stops at
    its reach in l and in |m|, and the +-m pairs are skipped from the
    highest |m| down while the sum of their bounds stays within 1e-16 of
    the input energy. A lossless cavity has no such bound: there every l
    is kept and every listed block is solved and checked. detail reports the listed blocks
    (m_blocks), the |m| systems solved (blocks_solved) and the bound of all
    input left unsolved, the cut and the skipped pairs (skipped_bound). The
    condition estimate covers the solved systems, each as a whole block,
    also where a mirror-symmetric cavity solves it as its two parity sectors
    (see OperatorBlock). A sector whose input is exactly zero, such as the
    odd sector of the m = 0 block at the centre, is not solved and adds no
    tau^2 form; detail counts those sectors over the solved systems
    (zero_sectors).

    With a prebuilt ops, a sector solved often enough (a scan) is answered
    from the modal factors of its rank-r core, see CavityOperatorSet; the
    answer passes the same residual check, and may differ from the direct
    solve in its last digits. detail reports how many of the solved |m|
    systems had a sector answered that way (modal_solves), how many sectors
    were (modal_sectors: a system whose other sector was solved directly
    counts one) and the worst ||W||_1 ||W^-1||_1 of the core eigenvectors
    used (modal_condition, None when none was used; 0 for a rank-0 core).

    A call at the point ops holds, such as the next phase of a detuning
    sweep, reuses its input, skip bound and modal projections (_HeldPoint);
    the tail is judged against each call's tail_tol.

    From the third point at one detuning phase on (a position scan with a
    prebuilt ops), a block is answered from its form at that phase, v^T S v,
    without a solve (_stacked_value); the form's guard implies the same
    residual check for every point, see _hermitian_form. The blocks above
    the highest formed one, and any whose guard failed, are solved as
    before. The value may differ from the solved one in its last digits.
    detail reports how many of the solved |m| systems were answered from a
    form (form_solves); blocks_solved counts the |m| systems answered by
    any route.

    The mirror edge entering the operators is the geometric aperture;
    diffraction losses emerge from the calculation itself. Without ops the
    blocks are built on demand on operator_grid, the skipped ones never. An
    ops built for another geometry or basis raises ValueError, as does a
    non-finite detuning_phase; every later step reads the cavity from ops.
    """
    if not math.isfinite(detuning_phase):
        raise ValueError(f"detuning_phase must be finite, got {detuning_phase}")
    if ops is None:
        ops = CavityOperatorSet(geometry=geom, basis=basis)
    elif (ops.geometry, ops.basis) != (geom, basis):
        raise ValueError(f"operator set built for {ops.geometry} and {ops.basis}, "
                         f"not for {geom} and {basis}")
    kr = point.kr
    if kr > 0.0 and kr > basis.l_max - 30:
        warnings.warn(
            f"kr={kr:.3g} close to or beyond l_max-30={basis.l_max - 30}; "
            "the harmonic expansion may be truncated",
            ValidityWarning,
            stacklevel=2,
        )
    l_max = basis.l_max
    held = ops._held
    if held is None or held.kvec != point.kvec:
        held = ops._held = None  # the old point is not held while the new one is built
        v, tail, cut = _focused_input(point, l_max, math.inf, ops.gain)
        # the input holds m = 0 alone on the axis, the |m| up to its reach off it
        input_top = v.shape[0] - 1
        energies = np.zeros(l_max + 1)
        energies[: input_top + 1] = np.sum(v * v, axis=1)
        energies[1:] *= 2.0  # the +m and -m columns of a pair
        norm_sq = float(np.sum(energies))
        top, skipped = _solved_magnitudes(ops, input_top, energies, norm_sq)
        reach = int(np.flatnonzero(np.any(v, axis=0))[-1])
        # the focused-wave input has unit norm up to its truncation tail
        held = ops._held = _HeldPoint(point.kvec, v, tail, reach, math.sqrt(norm_sq), top,
                                      skipped + cut)
    _warn_tail(held.tail, tail_tol, kr, l_max, stacklevel=3)
    v, top, scale = held.v, held.top, held.scale
    z = np.exp(2j * detuning_phase)
    state = _phase_forms(ops, top, detuning_phase, z)
    formed_top, failed, value = -1, [], 0.0
    if state is not None:
        formed_top = min(top, state.formed_top)
        failed = sorted(m for m in state.failed if m <= formed_top)
        value = _stacked_value(ops, state, v, formed_top, held.reach)
    phase = _phases(l_max)
    modal_conditions, modal_solves, zero_sectors = [], 0, 0
    for mag in failed + list(range(formed_top + 1, top + 1)):
        block = ops.block(mag)
        # the -m column is the +m column (-i)^l v times a unit phase, and
        # gives the same value: one column, counted twice for a pair
        rhs = block.u_half * (phase[mag:] * v[mag, mag:])
        x, solved, modal = _solve_block(ops, mag, z, rhs[:, None], scale, held.projections)
        value += (2.0 if mag else 1.0) * _tau_sq_form(solved, x[:, 0])
        zero_sectors += len(block.sectors) - len(solved)
        if modal is not None:
            modal_conditions.extend(modal)
            modal_solves += 1
    conditions = ([_block_condition(ops.block(mag), z) for mag in range(top + 1)]
                  if collect_condition else [])
    return EnhancementResult(
        value=float(value),
        method="full",
        l_max=l_max,
        truncation_tail=held.tail,
        condition=max(conditions) if conditions else None,
        detail={"flux_residual": ops.flux_residual,
                "m_blocks": 1 if point.on_axis else 2 * l_max + 1,
                "blocks_solved": top + 1, "skipped_bound": held.skipped,
                "modal_solves": modal_solves, "modal_sectors": len(modal_conditions),
                "modal_condition": max(modal_conditions, default=None),
                "form_solves": formed_top + 1 - len(failed),
                "zero_sectors": zero_sectors},
    )


def _solved_magnitudes(ops: CavityOperatorSet, top, energies, norm_sq):
    """Highest |m| to solve, at most top, the highest the input holds, and
    the summed bound on what the skipped |m| pairs above it could add to the
    value; energies[|m|] is the input energy of the pair, which adds at most
    that times ops.gain. The pairs are skipped from the top down while the
    summed bound stays within _SKIP_FLOOR of the input energy; a lossless
    cavity skips none."""
    if ops.lossless:
        return top, 0.0
    # summed bounds of the pairs |m| = top, top - 1, ..., 1, nondecreasing
    bounds = np.cumsum(ops.gain * energies[top:0:-1])
    skip = int(np.count_nonzero(bounds <= _SKIP_FLOOR * norm_sq))
    return top - skip, float(bounds[skip - 1]) if skip else 0.0
