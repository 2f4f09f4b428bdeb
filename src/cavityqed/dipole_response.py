"""Physical observables: normalized damping rate and radiative level shift.

A transverse dipole couples to each ray direction with the weight
(3/2)(1 - (d.Omega)^2). The damping rate samples the per-ray resonance
factor of ray_model; the level shift samples the dispersive kernels
(in-phase, out-of-phase and imbalance terms) that follow from the
principal-value frequency transform of the resonance line. Directions
missing the mirrors contribute free vacuum to the damping and nothing to
the shift, so both results reduce to (1, 0) without mirrors.

response is the one angular quadrature of the ray route, and it always
applies both ray corrections (aberration phase and diffraction-shrunk
apertures). It forms both kernels in one pass (ray_model._ray_kernels) and
only on the polar rows whose rays meet a mirror, in blocks of a bounded
number of directions. The ray-model vacuum-fluctuation ratio,
enhancement_ray, is its damping ratio for an isotropic dipole, whose weight
is 1 in every direction; only enhancement_ray can switch the corrections
off, for the naive geometric-ray value.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .ray_model import (  # noqa: F401 (airy_resonance_factor: perfbench/tracing.py wraps it here)
    RAY_VALIDITY_KR,
    _ray_kernels,
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
    "orientation_weight",
    "shift_kernel",
    "response",
    "enhancement_ray",
]

# directions per block of polar rows: the ray kernel's temporaries stay a few
# MB whatever the quadrature orders, and every preset point fits in one block
_BLOCK_DIRECTIONS = 1 << 17


def orientation_weight(orientation: DipoleOrientation, theta, phi_az):
    """Polarization weight on the direction grid for a tagged or explicit
    dipole orientation; perpendicular averages the dipole azimuth.

    For a dipole along the unit vector d the weight of the direction Omega
    is (3/2)(1 - (d.Omega)^2): zero along the dipole axis, 3/2 across it,
    and of unit average over the sphere.

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
    polar_order: int | None = None,
    azimuthal_order: int | None = None,
) -> ResponseResult:
    """Damping-rate and level-shift ratios by angular quadrature of the
    polarization weight times the ray kernels, with both corrections of
    the ray route applied: the spherical-aberration phase and the apertures
    shrunk by the diffraction losses at the mirror edges (see ray_model).
    Only enhancement_ray can switch them off, both together.

    The damping samples airy_resonance_factor and the shift samples
    shift_kernel. Both are the general two-mirror kernels, so unequal
    mirrors, unequal apertures and defocus are handled. The model is
    validated for kr up to RAY_VALIDITY_KR; beyond that a
    ValidityWarning is issued. A non-finite phi0 raises ValueError.

    Both kernels come from one evaluation per direction, made only on the
    polar rows whose rays meet a mirror; every other row adds its mean
    weight to the damping and nothing to the shift, which is what the
    kernels give there exactly. The rows are taken in blocks of at most
    2**17 directions, so the peak memory does not grow with the
    quadrature orders, and the result does not depend on the block size.
    """
    return _response(point, orientation, geom, phi0, True, polar_order, azimuthal_order)


def _response(point, orientation, geom, phi0, corrections, polar_order,
              azimuthal_order) -> ResponseResult:
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
    theta, w, phi_az, rho_f, rho_b = ray_integration_nodes(
        geom, point, corrections, polar_order, azimuthal_order, axisym
    )
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
        phi_eff, x_eff = ray_direction_phases(
            geom, point, phi0, theta[idx, None], phi_az[None, :], aberration=corrections
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
            "corrections": corrections,
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
    corrections: bool = True,
    polar_order: int | None = None,
    azimuthal_order: int | None = None,
) -> EnhancementResult:
    """Vacuum-fluctuation ratio from the ray picture: the damping ratio of
    an isotropic dipole, i.e. the plain angular average of the per-ray
    resonance factor.

    corrections=False switches off both the aberration phase and the
    diffraction-shrunk apertures, giving the naive geometric-ray value
    (method "ray-naive"), which coincides with the operator calculation
    when all angular-spreading phases are neglected.
    """
    r = _response(point, DipoleOrientation.isotropic(), geom, phi0,
                  corrections, polar_order, azimuthal_order)
    tag = "ray" if corrections else "ray-naive"
    return EnhancementResult(value=r.gamma_ratio, method=tag, detail=r.detail)
