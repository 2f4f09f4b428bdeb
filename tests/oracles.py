"""Reference routines that the tests compare library routines against.

None of these is on a production path: each restates a quantity by a
different route than the library takes (an asymptotic form, a closed-sphere
mode sum, the resolvent applied to the whole intracavity field, a reader of
the JSON tables the library writes, the exact center values of a symmetric
cavity, a single-bounce mirror, the harmonic coefficients block by block),
so that a test can check one against the other.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cavityqed.dipole_response import orientation_weight
from cavityqed.io_formats import Column, ResultTable
from cavityqed.quadrature import polar_rule
from cavityqed.ray_model import (
    _auto_azimuthal_order,
    _ray_kernels,
    ray_direction_phases,
    ray_integration_nodes,
)
from cavityqed.specfun import SQRT_2_OVER_PI, legendre_table, radial_bessel_table
from cavityqed.structures import (
    AngularFunction,
    DipoleOrientation,
    FieldPoint,
    ResponseResult,
)
from cavityqed.wave_ops import (
    CavityOperatorSet,
    _Segments,
    _solve_block,
    mirror_profiles,
)


def asymptotic_radial_bessel(l: int, kr: float) -> float:
    """Large-kr form sqrt(2/pi)/kr * sin(kr - pi*l/2 + l(l+1)/2kr) of the
    radial solution J_{l+1/2}(kr)/sqrt(kr); three-term phase asymptotic,
    valid for kr >> l."""
    if kr <= 0:
        raise ValueError(f"kr must be positive, got {kr}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    phase = kr - math.pi * l / 2.0 + l * (l + 1) / (2.0 * kr)
    return SQRT_2_OVER_PI * math.sin(phase) / kr


def bessel_weights(l_max: int, kr: float) -> np.ndarray:
    """Per-l weights (pi/2)(2l+1) * [J_{l+1/2}(kr)/sqrt(kr)]^2.

    They sum to 1 as l_max -> infinity (completeness of the regular radial
    solutions) and give the l-distribution of a unit-amplitude wave focused
    through the origin, evaluated at radius kr.
    """
    u = radial_bessel_table(l_max, kr)
    ls = np.arange(l_max + 1)
    return (math.pi / 2.0) * (2 * ls + 1) * u**2


def scalar_legendre(l_max: int, m: int, x: float) -> list[float]:
    """P_lm(x) for l = m..l_max by the three-term recurrence in l, one point
    and one m at a time on Python floats, in the order of operations that
    specfun states: P_mm = (-u s_m) P_{m-1,m-1} with u = sqrt(1 - x^2) and
    s_k = sqrt((2k+1)/2k), P_{m+1,m} = (sqrt(2m+3) x) P_mm, and
    P_lm = a (x P_{l-1,m} - b P_{l-2,m})."""
    u = math.sqrt(max(0.0, 1.0 - x * x))
    pmm = 1.0
    for k in range(1, m + 1):
        pmm = -u * math.sqrt((2 * k + 1) / (2 * k)) * pmm
    out = [pmm]
    if l_max > m:
        out.append(math.sqrt(2 * m + 3) * x * pmm)
    for l in range(m + 2, l_max + 1):
        a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
        b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
        out.append(a * (x * out[-1] - b * out[-2]))
    return out


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
    denom = np.abs(
        np.exp(-1j * ls * (ls + 1) / k_radius)
        - (-1.0) ** ls * rho * np.exp(2j * detuning_phase)
    ) ** 2
    t = 1.0 - rho * rho
    return float(np.sum(t / denom * bessel_weights(l_max, kr)))


def transmission_operator(geom, grid, l_max: int, block) -> tuple[np.ndarray, ...]:
    """Multiplication operator by tau(theta) for an operator block built on
    grid, one matrix per parity sector; blocks do not store it. It is summed
    segment by segment of the grid, each a run of equally many nodes: tau's
    value times the segment's Legendre Gram where tau is constant there, the
    segment's own tau-weighted product where it is not."""
    _, tau_sq_vals = mirror_profiles(geom, grid.theta)
    tau = np.sqrt(tau_sq_vals)
    v = legendre_table(l_max, block.m, grid.mu)
    run = grid.mu.size // (len(grid.edges) + 1)
    operators = []
    for sector in block.sectors:
        total = 0.0
        for start in range(0, grid.mu.size, run):
            nodes = slice(start, start + run)
            v_s, w_s, tau_s = v[nodes, sector.index], grid.w_theta[nodes], tau[nodes]
            if np.all(tau_s == tau_s[0]):
                total = total + tau_s[0] * (v_s.T @ (w_s[:, None] * v_s))
            else:
                total = total + v_s.T @ ((tau_s * w_s)[:, None] * v_s)
        operators.append(total)
    return tuple(operators)


def coefficient_blocks(f: AngularFunction) -> dict[int, np.ndarray]:
    """The coefficients of f per m held, blocks[m][i] that of Y_{l,m} for
    l = |m| + i, cut from row |m| of the +m and -m planes of f.coeffs."""
    blocks = {}
    for m in range(f.top + 1):
        blocks[m] = f.coeffs[0, m, m:]
        if m:
            blocks[-m] = f.coeffs[1, m, m:]
    return blocks


def block_energies(f: AngularFunction) -> np.ndarray:
    """Squared coefficient norm of each |m| of f, at index |m|, from one
    np.vdot per m block."""
    energies = np.zeros(f.l_max + 1)
    for m, v in coefficient_blocks(f).items():
        energies[abs(m)] += np.vdot(v, v).real
    return energies


def intracavity_field_coeffs(
    ops: CavityOperatorSet, detuning_phase: float, f_in: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Extended-field coefficients induced by incoming radiation whose
    coefficients per m block are f_in (see coefficient_blocks), per m block.

    Solves, per m block, (U^2 - e^{2i phi0} rho P) x = tau U f_in and
    returns U x. The system is solved in its conjugated form
    (U^2 - e^{2i phi0} P rho)(P x) = P b, since P is diagonal with P^2 = 1
    and commutes with U, through the library's checked block solve. With no
    mirrors this returns f_in unchanged (free propagation through the
    focus), preserving the norm exactly.
    """
    out: dict[int, np.ndarray] = {}
    scale = math.sqrt(sum(np.vdot(c, c).real for c in f_in.values()))
    taus: dict[int, tuple] = {}  # tau per |m| of this call: +m and -m share it
    for m, c in sorted(f_in.items()):
        block = ops.block(m)
        if abs(m) not in taus:
            taus[abs(m)] = transmission_operator(ops.geometry, ops.grid, ops.basis.l_max, block)
        uc = block.u_half * c
        rhs = np.empty(block.dim, dtype=complex)
        for sector, tau in zip(block.sectors, taus[abs(m)]):
            rhs[sector.index] = tau @ uc[sector.index]
        x = _solve_block(ops, m, np.exp(2j * detuning_phase),
                         (block.parity * rhs)[:, None], scale)[0]
        out[m] = block.u_half * (block.parity * x[:, 0])
    return out


def read_table_json(data: bytes) -> ResultTable:
    """The table that io_formats.write_table(table, "json") wrote."""
    doc = json.loads(data.decode("utf-8"))
    if doc.get("schema") != "cavityqed/result-table-v1":
        raise ValueError(f"unexpected schema {doc.get('schema')!r}")
    return ResultTable(
        columns=tuple(Column(c["name"], c.get("unit", "")) for c in doc["columns"]),
        rows=[tuple(row) for row in doc["rows"]],
        provenance=doc["provenance"],
    )


def center_closed_forms(
    orientation: DipoleOrientation, theta_m: float, rho: float, phi0: float
) -> ResponseResult:
    """Exact closed forms at the center of a symmetric cavity.

    The solid-angle fractions are those of the two caps; the resonance and
    dispersive factors are evaluated at the detuning phi0. The three tags
    satisfy (parallel + 2*perpendicular)/3 = isotropic identically. The
    resonance denominator |1 - rho e^{2i phi0}|^2 is written as
    (1 - rho)^2 + 4 rho sin^2(phi0) and the transmission 1 - rho^2 as
    (1 - rho)(1 + rho), so that neither loses digits to cancellation near
    a resonance.
    """
    if orientation.tag is None:
        raise ValueError("center closed forms are defined for orientation tags")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    c = math.cos(theta_m)
    s2 = math.sin(theta_m) ** 2
    t = (1.0 - rho) * (1.0 + rho)
    d_minus = (1.0 - rho) ** 2 + 4.0 * rho * math.sin(phi0) ** 2
    airy = t / d_minus
    disp = rho * math.sin(2.0 * phi0) / d_minus
    cav = 1.0 - c
    if orientation.tag == "parallel":
        w_vac = c * (1.0 + s2 / 2.0)
        w_cav = cav * (1.0 - c * (1.0 + c) / 2.0)
    elif orientation.tag == "perpendicular":
        w_vac = c * (1.0 - s2 / 4.0)
        w_cav = cav * (1.0 + c * (1.0 + c) / 4.0)
    else:
        w_vac = c
        w_cav = cav
    return ResponseResult(
        gamma_ratio=w_vac + w_cav * airy,
        shift_ratio=w_cav * disp,
        method="center-closed-form",
        detail={"orientation": orientation.tag},
    )


def one_mirror_response(
    point: FieldPoint,
    orientation: DipoleOrientation,
    rho: float,
    phi: float,
    theta_m: float,
    *,
    polar_order: int | None = None,
    azimuthal_order: int | None = None,
) -> ResponseResult:
    """Response in front of a single spherical mirror cap (no resonator).

    Gamma/Gamma_vac = 1 + rho * <pol * cos(2(k Omega.r + phi))> over the cap,
    Delta'/Gamma_vac = (rho/2) * <pol * sin(2(k Omega.r + phi))> over the cap,
    with phi the mirror distance phase; both vanish into (1, 0) for rho = 0.
    Spherical aberrations are not included in this single-bounce picture.

    The average weighs only the directions toward the cap, not the opposite
    ends of the same lines, so the modulation is half that of the cavity
    routes with one mirror: on CavityGeometry(kR, acos 0.7, 0, 0.8, 0) at
    the centre, phi = 0, this gives 1.1200 = 1 + (1 - cos theta_m) rho/2,
    where the ray quadrature with both corrections off gives 1.2400 and
    enhancement_full 1.2395. Acceptance criterion 10 checks this
    single-bounce form in its small-angle limit.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not 0.0 < theta_m <= math.pi / 2:
        raise ValueError(f"theta_m must lie in (0, pi/2], got {theta_m}")
    order = max(polar_order or 48, 24 + int(1.2 * point.kr * theta_m))
    # the cap mu in [cos(theta_m), 1] is the last segment of the split rule
    grid = polar_rule([theta_m], order)
    theta, w = grid.theta[-order:], grid.w_theta[-order:]
    axisym = point.on_axis and orientation.is_axisymmetric
    if axisym:
        phi_az = np.zeros(1)
    else:
        n_az = _auto_azimuthal_order(point.kr_perp, azimuthal_order)
        phi_az = 2.0 * math.pi * (np.arange(n_az) + 0.5) / n_az
    th2, ph2 = theta[:, None], phi_az[None, :]
    kx, ky, kz = point.kvec
    x = kz * np.cos(th2) + np.sin(th2) * (kx * np.cos(ph2) + ky * np.sin(ph2))
    pol = orientation_weight(orientation, th2, ph2)
    gamma = 1.0 + rho * float(np.dot(w, (pol * np.cos(2.0 * (x + phi))).mean(axis=1)))
    shift = 0.5 * rho * float(np.dot(w, (pol * np.sin(2.0 * (x + phi))).mean(axis=1)))
    return ResponseResult(
        gamma_ratio=gamma,
        shift_ratio=shift,
        method="one-mirror",
        detail={"theta_m": theta_m, "orientation": orientation.label()},
    )


def full_rule_segments(geom, grid) -> _Segments:
    """The segments of wave_ops._segments without the mirror fold: every
    node of the grid at its own weight, for any cavity. Blocks built on them
    are the reference for the folded assembly of a cavity with two parity
    sectors, and equal the library's bit for bit on any other cavity."""
    rho_vals, tau_sq_vals = mirror_profiles(geom, grid.theta)
    if not np.any(rho_vals.imag):
        rho_vals = rho_vals.real
    run = grid.mu.size // (len(grid.edges) + 1)
    parts = []
    for start in range(grid.mu.size - run, -1, -run):
        idx = np.arange(start, start + run)
        profiles = tuple(f[0] if np.all(f == f[0]) else f
                         for f in (rho_vals[idx], tau_sq_vals[idx]))
        parts.append((idx, grid.w_theta[idx, None], profiles))
    return _Segments(grid.mu, tuple(parts))


def unfolded_ray_response(point, orientation, geom, phi0, *, polar_order=None,
                          azimuthal_order=None) -> tuple[float, float]:
    """Damping and shift ratios of the corrected ray route with every
    direction of its node set evaluated: each polar row's mean over all n
    azimuths, where dipole_response._ray_scan folds a ky = 0 point to n/2.
    The kernels are exactly 1 and 0 on a row that meets no mirror, whose
    damping row is the weight's own mean, so the arithmetic is the unfolded
    scan's, bit for bit."""
    axisym = point.on_axis and orientation.is_axisymmetric
    theta, w, phi_az, rho_f, rho_b = ray_integration_nodes(
        geom, point, True, polar_order, azimuthal_order, axisym)
    th, ph = theta[:, None], phi_az[None, :]
    phi_eff, x_eff = ray_direction_phases(geom, point, phi0, th, ph, aberration=True)
    kernels = _ray_kernels(phi_eff, x_eff, rho_f[:, None], rho_b[:, None])
    pol = orientation_weight(orientation, th, ph)
    gamma, shift = ((pol * k).mean(axis=1) for k in kernels)
    gamma = np.where((rho_f != 0.0) | (rho_b != 0.0), gamma, pol.mean(axis=1))
    return float(np.dot(w, gamma)), float(np.dot(w, shift))
