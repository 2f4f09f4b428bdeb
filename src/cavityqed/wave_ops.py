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
  per-segment Gauss rules split at the mirror edges.

The vacuum-fluctuation ratio at a point follows from a closure relation
over incoming far fields: expand the focused-wave kernel at the point,
apply the resolvent of one round trip, and take the squared norm weighted
by the transmitted-flux profile. Only the fractional part of the huge
round-trip phase 2kR matters for resonance, so it is supplied separately
as a detuning phase while kR itself only scales the diagonal phases.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .quadrature import AngularGrid, build_grid
from .ray_model import defocus_profile
from .specfun import legendre_table, plane_wave_coeffs, radial_bessel_table
from .structures import (
    AngularFunction,
    CavityGeometry,
    EnhancementResult,
    FieldPoint,
    HarmonicBasis,
    SolverError,
    ValidityWarning,
)

__all__ = [
    "OperatorBlock",
    "CavityOperatorSet",
    "operator_grid",
    "build_operators",
    "intracavity_field_coeffs",
    "enhancement_full",
    "perfect_sphere_frequency",
    "closed_cavity_mode_sum",
    "propagator_phases",
]

_RESIDUAL_LIMIT = 1e-8


def propagator_phases(ls: np.ndarray, k_radius: float) -> np.ndarray:
    """One-way angular-spreading phases exp(-i l(l+1)/(2 kR))."""
    return np.exp(-1j * ls * (ls + 1) / (2.0 * k_radius))


@dataclass(frozen=True)
class OperatorBlock:
    """Dense operators restricted to fixed m (l runs from |m| to l_max)."""

    m: int
    ls: np.ndarray
    rho: np.ndarray        # reflection multiplication operator (complex)
    tau: np.ndarray        # transmission multiplication operator (real profile)
    tau_sq: np.ndarray     # multiplication by tau(theta)^2, exactly integrated
    u_half: np.ndarray     # diagonal one-way propagator phases
    parity: np.ndarray     # diagonal (-1)^l
    flux_residual: float   # quadrature error of the |rho|^2 + tau^2 = 1 identity

    @property
    def dim(self) -> int:
        return self.ls.size


@dataclass
class CavityOperatorSet:
    """Per-m operator blocks for one geometry/basis; blocks are immutable
    once built. The +m and -m blocks are identical, so only |m| is keyed."""

    geometry: CavityGeometry
    basis: HarmonicBasis
    grid: AngularGrid
    blocks: dict[int, OperatorBlock] = field(default_factory=dict)

    def block(self, m: int) -> OperatorBlock:
        key = abs(m)
        if key not in self.blocks:
            self.blocks[key] = _build_block(self.geometry, self.basis, self.grid, key)
        return self.blocks[key]

    @property
    def flux_residual(self) -> float:
        return max((b.flux_residual for b in self.blocks.values()), default=0.0)


def operator_grid(geom: CavityGeometry, l_max: int) -> AngularGrid:
    """Polar grid split at the mirror edges, with enough Gauss nodes per
    segment to integrate products of two degree-l_max Legendre functions
    exactly (plus margin for the defocus phase factor)."""
    edges = []
    if geom.theta_m1 > 0.0:
        edges.append(geom.theta_m1)
    if geom.theta_m2 > 0.0:
        edges.append(math.pi - geom.theta_m2)
    edges = sorted(set(edges))
    order = l_max + 16 + int(2.0 * abs(geom.k_delta))
    return build_grid(edges, order_polar=order, order_azimuthal=2)


def mirror_profiles(geom: CavityGeometry, theta: np.ndarray):
    """Reflection and transmission profiles sampled on polar nodes.

    Mirror 1 is the cap around theta = 0, mirror 2 the cap around theta = pi.
    An axial mispositioning k_delta of mirror 2 adds the direction-dependent
    reflection phase of defocus_profile, written in that mirror's local polar
    angle pi - theta.
    """
    rho_vals = np.zeros(theta.shape, dtype=complex)
    tau_sq = np.ones(theta.shape)
    cap1 = theta <= geom.theta_m1 + 1e-14 if geom.theta_m1 > 0 else np.zeros(theta.shape, bool)
    cap2 = theta >= math.pi - geom.theta_m2 - 1e-14 if geom.theta_m2 > 0 else np.zeros(theta.shape, bool)
    rho_vals[cap1] = geom.rho1
    rho_vals[cap2] = defocus_profile(geom.rho2, geom.k_delta, math.pi - theta[cap2])
    tau_sq[cap1] = geom.transmittivity1
    tau_sq[cap2] = geom.transmittivity2
    return rho_vals, tau_sq


def _build_block(geom, basis, grid, m) -> OperatorBlock:
    rho_vals, tau_sq_vals = mirror_profiles(geom, grid.theta)
    tau_vals = np.sqrt(tau_sq_vals)
    v = legendre_table(basis.l_max, m, grid.mu)
    wv = grid.w_theta[:, None] * v
    rho_m = v.T @ (rho_vals[:, None] * wv)
    tau_m = v.T @ (tau_vals[:, None] * wv)
    tau_sq_m = v.T @ (tau_sq_vals[:, None] * wv)
    ls = basis.block_ls(m)
    # flux identity |rho|^2 + tau^2 = 1 holds pointwise, so its Gram matrix
    # must come out as the identity; any deviation is pure quadrature error
    # (the operator-product form rho'rho + tau'tau carries an additional
    # truncation tail near l_max and is not used as the diagnostic)
    ident = v.T @ ((np.abs(rho_vals) ** 2 + tau_sq_vals)[:, None] * wv)
    ident[np.diag_indices(ls.size)] -= 1.0
    residual = float(np.max(np.abs(ident)))
    return OperatorBlock(
        m=m,
        ls=ls,
        rho=rho_m,
        tau=tau_m,
        tau_sq=tau_sq_m,
        u_half=propagator_phases(ls, geom.k_radius),
        parity=(-1.0) ** ls,
        flux_residual=residual,
    )


def build_operators(
    geom: CavityGeometry,
    basis: HarmonicBasis,
    grid: AngularGrid | None = None,
    m_values=None,
) -> CavityOperatorSet:
    """Assemble per-m cavity operators on a grid split at the mirror edges.

    m_values defaults to every m in the basis; pass (0,) for on-axis work.
    The grid must resolve Legendre products up to degree 2*l_max per
    segment; operator_grid(geom, l_max) does. An insufficient grid shows up
    as a large flux_residual (the profiles satisfy |rho|^2 + tau^2 = 1
    pointwise, so the operator identity holds within quadrature and
    truncation error).
    """
    if grid is None:
        grid = operator_grid(geom, basis.l_max)
    ops = CavityOperatorSet(geometry=geom, basis=basis, grid=grid)
    if m_values is None:
        m_values = range(basis.l_max + 1)
    for m in m_values:
        ops.block(m)
    return ops


def _resolvent_matrix(block: OperatorBlock, detuning_phase: float):
    """Round-trip resolvent matrix diag(u^2) - e^{2i phi0} P.rho, with the
    parity P applied after the mirror multiplication."""
    a = np.diag(block.u_half**2).astype(complex)
    a -= np.exp(2j * detuning_phase) * (block.parity[:, None] * block.rho)
    return a


def intracavity_field_coeffs(
    ops: CavityOperatorSet, detuning_phase: float, f_in: AngularFunction
) -> AngularFunction:
    """Extended-field coefficients induced by incoming radiation f_in.

    Solves, per m block, (U^2 - e^{2i phi0} rho P) x = tau U f_in and
    returns U x. The system is solved in its conjugated form
    (U^2 - e^{2i phi0} P rho)(P x) = P b, since P is diagonal with P^2 = 1
    and commutes with U. With no mirrors this returns f_in unchanged (free
    propagation through the focus), preserving the norm exactly.
    """
    out: dict[int, np.ndarray] = {}
    scale = math.sqrt(f_in.norm_sq())
    for m, c in sorted(f_in.blocks.items()):
        block = ops.block(m)
        a = _resolvent_matrix(block, detuning_phase)
        rhs = block.tau @ (block.u_half * c)
        x = block.parity * _checked_solve(a, block.parity * rhs, m, scale)
        out[m] = block.u_half * x
    return AngularFunction(l_max=f_in.l_max, blocks=out,
                           truncation_tail=f_in.truncation_tail)


def _checked_solve(a, rhs, m, scale):
    """Solve one m block and check its residual against scale, the norm of
    the whole input: a block whose right-hand side has underflowed towards
    the subnormal range has no meaningful residual relative to itself. A
    NaN residual fails the check."""
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"resolvent solve failed in m={m} block: {exc}") from exc
    resid = float(np.max(np.abs(a @ x - rhs)))
    if not resid <= _RESIDUAL_LIMIT * scale:
        cond = float(np.linalg.cond(a)) if np.all(np.isfinite(a)) else math.nan
        raise SolverError(
            f"resolvent solve in m={m} block has residual {resid:.2e} against "
            f"input norm {scale:.2e} (condition estimate {cond:.2e}); "
            "reflectivity too close to 1 at a degenerate phase, or non-finite input"
        )
    return x


def enhancement_full(
    geom: CavityGeometry,
    basis: HarmonicBasis,
    point: FieldPoint,
    detuning_phase: float,
    *,
    ops: CavityOperatorSet | None = None,
    tail_tol: float = 1e-8,
    collect_condition: bool = False,
) -> EnhancementResult:
    """Vacuum-fluctuation ratio at a point from the full operator calculation.

    Expands the focused-wave kernel at the point over harmonics, applies the
    round-trip resolvent per m block, and accumulates the transmitted-flux
    weighted squared norm. The final norm uses the exactly integrated
    multiplication operator for tau^2 (a quadratic form in the solved
    coefficients), which avoids one truncation stage.

    The mirror edge entering the operators is the geometric aperture;
    diffraction losses emerge from the calculation itself. Without ops the
    blocks are built on demand on operator_grid. A non-finite
    detuning_phase raises ValueError.
    """
    if not math.isfinite(detuning_phase):
        raise ValueError(f"detuning_phase must be finite, got {detuning_phase}")
    kr = point.kr
    if kr > 0.0 and kr > basis.l_max - 30:
        warnings.warn(
            f"kr={kr:.3g} close to or beyond l_max-30={basis.l_max - 30}; "
            "the harmonic expansion may be truncated",
            ValidityWarning,
            stacklevel=2,
        )
    coeffs = plane_wave_coeffs(point, basis.l_max, tail_tol=tail_tol)
    if ops is None:
        ops = CavityOperatorSet(geometry=geom, basis=basis,
                                grid=operator_grid(geom, basis.l_max))
    per_m = np.zeros(2 * basis.l_max + 1)
    conditions = []
    # the focused-wave input has unit norm up to its truncation tail
    scale = math.sqrt(coeffs.norm_sq())
    for m, c in sorted(coeffs.blocks.items()):
        block = ops.block(m)
        a = _resolvent_matrix(block, detuning_phase)
        x = _checked_solve(a, block.u_half * c, m, scale)
        per_m[m + basis.l_max] = float(np.real(np.conj(x) @ (block.tau_sq @ x)))
        if collect_condition:
            conditions.append(float(np.linalg.cond(a)))
    value = float(np.sum(per_m))
    return EnhancementResult(
        value=value,
        method="full",
        l_max=basis.l_max,
        truncation_tail=coeffs.truncation_tail,
        condition=max(conditions) if conditions else None,
        detail={"flux_residual": ops.flux_residual, "m_blocks": len(coeffs.blocks)},
    )


def perfect_sphere_frequency(l: int, n: int, k_radius: float) -> float:
    """Eigenfrequency of a perfectly reflecting sphere in units of c/2R:
    n + l/2 - l(l+1)/(2 pi kR), n the number of radial nodes."""
    if n < 1:
        raise ValueError(f"radial node count must be >= 1, got {n}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    if k_radius <= 0:
        raise ValueError(f"k_radius must be positive, got {k_radius}")
    return n + l / 2.0 - l * (l + 1) / (2.0 * math.pi * k_radius)


def closed_cavity_mode_sum(
    rho: float,
    kr: float,
    *,
    k_radius: float,
    detuning_phase: float,
    l_max: int,
) -> float:
    """Vacuum-fluctuation ratio inside a uniformly coated closed sphere.

    Sum over l of the per-mode resonance factor
    T / |e^{-i l(l+1)/kR} - (-1)^l rho e^{2i phi0}|^2 times the radial weight
    (pi/2)(2l+1) [J_{l+1/2}(kr)/sqrt(kr)]^2. Averaged over one free spectral
    range of the detuning phase this returns 1 (vacuum is redistributed,
    not created).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    ls = np.arange(l_max + 1)
    u = radial_bessel_table(l_max, kr)
    weights = (math.pi / 2.0) * (2 * ls + 1) * u**2
    denom = np.abs(
        np.exp(-1j * ls * (ls + 1) / k_radius)
        - (-1.0) ** ls * rho * np.exp(2j * detuning_phase)
    ) ** 2
    t = 1.0 - rho * rho
    return float(np.sum(t / denom * weights))
