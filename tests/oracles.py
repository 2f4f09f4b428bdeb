"""Reference routines that the tests compare library routines against.

None of these is on a production path: each restates a quantity by a
different route than the library takes (an asymptotic form, a closed-sphere
mode sum, the resolvent applied to the whole intracavity field, a reader of
the JSON tables the library writes), so that a test can check one against
the other.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cavityqed.io_formats import Column, ResultTable
from cavityqed.specfun import SQRT_2_OVER_PI, radial_bessel_table
from cavityqed.structures import AngularFunction
from cavityqed.wave_ops import (
    CavityOperatorSet,
    _profile_operator,
    _segment_grams,
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


def transmission_operator(ops: CavityOperatorSet, m: int) -> tuple[np.ndarray, ...]:
    """Multiplication operator by tau(theta) for block |m|, one matrix per
    parity sector, assembled from the segment Grams as the library assembles
    rho and tau^2; blocks do not store it."""
    _, tau_sq_vals = mirror_profiles(ops.geometry, ops.grid.theta)
    index = [s.index for s in ops.block(m).sectors]
    return tuple(_profile_operator(parts, np.sqrt(tau_sq_vals))
                 for parts in _segment_grams(ops.grid, ops.basis.l_max, abs(m), index))


def intracavity_field_coeffs(
    ops: CavityOperatorSet, detuning_phase: float, f_in: AngularFunction
) -> AngularFunction:
    """Extended-field coefficients induced by incoming radiation f_in.

    Solves, per m block, (U^2 - e^{2i phi0} rho P) x = tau U f_in and
    returns U x. The system is solved in its conjugated form
    (U^2 - e^{2i phi0} P rho)(P x) = P b, since P is diagonal with P^2 = 1
    and commutes with U, through the library's checked block solve. With no
    mirrors this returns f_in unchanged (free propagation through the
    focus), preserving the norm exactly.
    """
    out: dict[int, np.ndarray] = {}
    scale = math.sqrt(f_in.norm_sq())
    taus: dict[int, tuple] = {}  # tau per |m| of this call: +m and -m share it
    for m, c in sorted(f_in.blocks.items()):
        block = ops.block(m)
        if abs(m) not in taus:
            taus[abs(m)] = transmission_operator(ops, m)
        uc = block.u_half * c
        rhs = np.empty(block.dim, dtype=complex)
        for sector, tau in zip(block.sectors, taus[abs(m)]):
            rhs[sector.index] = tau @ uc[sector.index]
        x, _ = _solve_block(ops, m, detuning_phase, block.parity * rhs, f"m={m}", scale)
        out[m] = block.u_half * (block.parity * x)
    return AngularFunction(l_max=f_in.l_max, blocks=out,
                           truncation_tail=f_in.truncation_tail)


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
