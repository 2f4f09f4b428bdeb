"""Physical observables: normalized damping rate and radiative level shift.

A transverse dipole couples to each ray direction with the weight
(3/2)(1 - (d.Omega)^2). The damping rate samples the per-ray resonance
factor of ray_model; the level shift samples the dispersive kernels
(in-phase, out-of-phase and imbalance terms) that follow from the
principal-value frequency transform of the resonance line. Directions
missing the mirrors contribute free vacuum to the damping and nothing to
the shift, so both results reduce to (1, 0) without mirrors.

response is the one angular quadrature of the ray route. It forms both
kernels in one pass (ray_model._ray_kernels) and only on the polar rows
whose rays meet a mirror, in blocks of a bounded number of directions.
The ray-model vacuum-fluctuation ratio, enhancement_ray, is its damping
ratio for an isotropic dipole, whose weight is 1 in every direction.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .quadrature import polar_rule
from .ray_model import (  # noqa: F401 (airy_resonance_factor: perfbench/tracing.py wraps it here)
    RAY_VALIDITY_KR,
    _auto_azimuthal_order,
    _ray_kernels,
    _ray_reflectivities,
    airy_resonance_factor,
    ray_direction_phases,
    ray_integration_nodes,
)
from .structures import (
    CavityGeometry,
    DipoleOrientation,
    EnhancementResult,
    FieldPoint,
    ResponseResult,
    ValidityWarning,
)

__all__ = [
    "polarization_factor",
    "orientation_weight",
    "shift_kernel",
    "response",
    "enhancement_ray",
    "center_closed_forms",
    "one_mirror_response",
]

# directions per block of polar rows: the ray kernel's temporaries stay a few
# MB whatever the quadrature orders, and every preset point fits in one block
_BLOCK_DIRECTIONS = 1 << 17


def polarization_factor(d_hat, omega_hat):
    """Transverse-coupling weight (3/2)(1 - (d.Omega)^2) for unit vectors.

    Zero along the dipole axis, 3/2 across it, unit average over directions.
    """
    d = np.asarray(d_hat, dtype=float)
    o = np.asarray(omega_hat, dtype=float)
    if abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError("d_hat must be a unit vector")
    norms = np.linalg.norm(o, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("omega_hat must be unit vectors")
    dot = np.tensordot(o, d, axes=([-1], [0]))
    return 1.5 * (1.0 - dot**2)


def orientation_weight(orientation: DipoleOrientation, theta, phi_az):
    """Polarization weight on the direction grid for a tagged or explicit
    dipole orientation; perpendicular averages the dipole azimuth.

    A tag's weight depends on theta alone and has theta's shape; an
    explicit vector's has the broadcast shape of theta and phi_az. Either
    broadcasts against the grid."""
    theta = np.asarray(theta, dtype=float)
    phi_az = np.asarray(phi_az, dtype=float)
    if orientation.tag == "parallel":
        return 1.5 * np.sin(theta) ** 2
    if orientation.tag == "perpendicular":
        return 1.5 * (1.0 - 0.5 * np.sin(theta) ** 2)
    if orientation.tag == "isotropic":
        return np.ones(theta.shape)
    dx, dy, dz = orientation.vector
    st = np.sin(theta)
    dot = st * (dx * np.cos(phi_az) + dy * np.sin(phi_az)) + dz * np.cos(theta)
    return 1.5 * (1.0 - dot**2)


def shift_kernel(phi, x, rho1, rho2):
    """General two-mirror shift kernel with antinode, node and imbalance
    terms over the round-trip resonance denominator |1 - rho1 rho2 e^{4i phi}|^2;
    for rho1 = rho2 = rho it reduces to the equal-mirror form
    rho sin(2 phi) [cos^2(x)/|1 - rho e^{2i phi}|^2 - sin^2(x)/|1 + rho e^{2i phi}|^2],
    and it vanishes without mirrors. This is the shift half of
    ray_model._ray_kernels, which rejects the inputs that
    airy_resonance_factor rejects."""
    return _ray_kernels(phi, x, rho1, rho2)[1]


def response(
    point: FieldPoint,
    orientation: DipoleOrientation,
    geom: CavityGeometry,
    phi0: float,
    *,
    aberration: bool = True,
    diffraction: bool = True,
    polar_order: int | None = None,
    azimuthal_order: int | None = None,
) -> ResponseResult:
    """Damping-rate and level-shift ratios by angular quadrature of the
    polarization weight times the ray kernels.

    The damping samples airy_resonance_factor and the shift samples
    shift_kernel. Both are the general two-mirror kernels, so unequal
    mirrors, unequal apertures and defocus are handled. With both
    corrections off the ray kernels are the naive geometric-ray ones. The
    model is validated for kr up to RAY_VALIDITY_KR; beyond that a
    ValidityWarning is issued. A non-finite phi0 raises ValueError.

    Both kernels come from one evaluation per direction, made only on the
    polar rows whose rays meet a mirror; every other row adds its mean
    weight to the damping and nothing to the shift, which is what the
    kernels give there exactly. The rows are taken in blocks of at most
    2**17 directions, so the peak memory does not grow with the
    quadrature orders, and the result does not depend on the block size.
    """
    return _response(point, orientation, geom, phi0, aberration, diffraction,
                     polar_order, azimuthal_order)


def _response(point, orientation, geom, phi0, aberration, diffraction,
              polar_order, azimuthal_order) -> ResponseResult:
    # called only from response and enhancement_ray, so stacklevel 3 names
    # the line that called either of them
    if not math.isfinite(phi0):
        raise ValueError(f"phi0 must be finite, got {phi0}")
    if point.kr > RAY_VALIDITY_KR:
        warnings.warn(
            f"kr={point.kr:.3g} beyond the validated ray-model range "
            f"(kr <= {RAY_VALIDITY_KR:g})",
            ValidityWarning,
            stacklevel=3,
        )
    axisym = point.on_axis and orientation.is_axisymmetric
    theta, w, phi_az = ray_integration_nodes(
        geom, point, diffraction, polar_order, azimuthal_order, axisym
    )
    rho_f, rho_b = _ray_reflectivities(geom, theta, diffraction)
    meets_mirror = (rho_f != 0.0) | (rho_b != 0.0)
    # weight x damping and weight x shift, averaged over each polar row; a
    # row that meets no mirror has damping exactly 1 and shift exactly 0
    rows = np.zeros((2, theta.size))
    step = max(1, _BLOCK_DIRECTIONS // phi_az.size)
    for start in range(0, theta.size, step):
        block = np.arange(start, min(start + step, theta.size))
        pol = orientation_weight(orientation, theta[block, None], phi_az[None, :])
        rows[0, block] = pol.mean(axis=1)
        hit = meets_mirror[block]
        if not hit.any():
            continue
        idx = block[hit]
        phi_eff, x_eff, _, _ = ray_direction_phases(
            geom, point, phi0, theta[idx, None], phi_az[None, :],
            aberration=aberration, diffraction=diffraction,
        )
        kernels = _ray_kernels(phi_eff, x_eff, rho_f[idx, None], rho_b[idx, None])
        pol = pol[hit]
        for row, kernel in zip(rows, kernels):
            row[idx] = (pol * kernel).mean(axis=1)
    gamma = float(np.dot(w, rows[0]))
    shift = float(np.dot(w, rows[1]))
    return ResponseResult(
        gamma_ratio=gamma,
        shift_ratio=shift,
        method="ray",
        detail={
            "aberration": aberration,
            "diffraction": diffraction,
            "polar_nodes": theta.size,
            "azimuthal_nodes": phi_az.size,
            "orientation": orientation.label(),
        },
    )


def enhancement_ray(
    geom: CavityGeometry,
    point: FieldPoint,
    phi0: float,
    *,
    aberration: bool = True,
    diffraction: bool = True,
    polar_order: int | None = None,
    azimuthal_order: int | None = None,
) -> EnhancementResult:
    """Vacuum-fluctuation ratio from the ray picture: the damping ratio of
    an isotropic dipole, i.e. the plain angular average of the per-ray
    resonance factor.

    With both corrections off this is the naive geometric-ray value (method
    "ray-naive"), which coincides with the operator calculation when all
    angular-spreading phases are neglected.
    """
    r = _response(point, DipoleOrientation.isotropic(), geom, phi0,
                  aberration, diffraction, polar_order, azimuthal_order)
    tag = "ray" if (aberration or diffraction) else "ray-naive"
    return EnhancementResult(value=r.gamma_ratio, method=tag, detail=r.detail)


def center_closed_forms(
    orientation: DipoleOrientation, theta_m: float, rho: float, phi0: float
) -> ResponseResult:
    """Exact closed forms at the center of a symmetric cavity.

    The solid-angle fractions are those of the two caps; the resonance and
    dispersive factors are evaluated at the detuning phi0. The three tags
    satisfy (parallel + 2*perpendicular)/3 = isotropic identically.
    """
    if orientation.tag is None:
        raise ValueError("center closed forms are defined for orientation tags")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    c = math.cos(theta_m)
    s2 = math.sin(theta_m) ** 2
    t = 1.0 - rho * rho
    d_minus = 1.0 + rho * rho - 2.0 * rho * math.cos(2.0 * phi0)
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
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not 0.0 < theta_m <= math.pi / 2:
        raise ValueError(f"theta_m must lie in (0, pi/2], got {theta_m}")
    order = max(polar_order or 48, 24 + int(1.2 * point.kr * theta_m))
    # the cap mu in [cos(theta_m), 1] is the last segment of the split rule
    mu, w = (part[-order:] for part in polar_rule([theta_m], order))
    theta = np.arccos(np.clip(mu, -1.0, 1.0))
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
