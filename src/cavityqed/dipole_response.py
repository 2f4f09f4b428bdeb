"""Physical observables: normalized damping rate and radiative level shift.

A transverse dipole couples to each ray direction with the weight
(3/2)(1 - (d.Omega)^2). The damping rate samples the per-ray resonance
factor of ray_model; the level shift samples the dispersive kernels
(in-phase, out-of-phase and imbalance terms) that follow from the
principal-value frequency transform of the resonance line. Directions
missing the mirrors contribute free vacuum to the damping and nothing to
the shift, so both results reduce to (1, 0) without mirrors.

_ray_scan is the one angular quadrature of the ray route: over a scan's
points, phases and dipole orientations, it forms both kernels
(ray_model._ray_kernels) once per point and phase, only on the polar rows
whose rays meet a mirror, in blocks of a bounded number of directions.
response, with both ray corrections (aberration phase, diffraction-shrunk
apertures), and enhancement_ray, the isotropic damping ratio (weight 1 in
every direction), are its one-point cases; only enhancement_ray can switch
the corrections off, for the naive geometric-ray value.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .ray_model import (  # noqa: F401 (airy_resonance_factor: perfbench/tracing.py wraps it here)
    RAY_VALIDITY_KR,
    _ray_kernels,
    _ray_orders,
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
) -> ResponseResult:
    """Damping-rate and level-shift ratios at one point: the one-point case
    of _ray_scan, with both ray corrections applied (the spherical-aberration
    phase and the diffraction-shrunk apertures, see ray_model); only
    enhancement_ray can switch them off, both together.

    The damping samples airy_resonance_factor and the shift samples
    shift_kernel, the general two-mirror kernels, so unequal mirrors,
    unequal apertures and defocus are handled. Beyond RAY_VALIDITY_KR, the
    validated range, a ValidityWarning is issued; a non-finite phi0 raises
    ValueError.
    """
    values, nodes = _ray_scan(geom, [point], [phi0], [orientation], True)
    return ResponseResult(*values[:, 0, 0, 0].tolist(), "ray",
                          {"corrections": True, **nodes[0], "orientation": orientation.label()})


def _ray_scan(geom, points, phases, orientations, corrections):
    """Damping and shift ratios of every (point, phase, orientation) of a
    scan, as an array indexed [ratio, point, phase, orientation], and each
    point's node counts ({"polar_nodes": ..., "azimuthal_nodes": ...}).

    Each value is bit for bit the one-point call's. Each point's orders are
    computed once (ray_model._ray_orders); points whose orders match share
    one node set, and each (point, phase) evaluates its direction phases
    and kernels once for all orientations. The azimuth collapses to one
    column only where the point is on the axis and every orientation of
    the call is axisymmetric, so a vector orientation among tags moves the
    tags' values by rounding. A point with ky = 0 whose orientations all
    weigh the azimuth evenly (the tags, a vector with d_y = 0) evaluates
    only the first n/2 of its n columns (every order is even), the mirrors
    of the rest, which moves values by rounding; the counts report n. One
    phase's rows and one block's orientation weights are held at a
    time, in blocks of at most _BLOCK_DIRECTIONS directions: the peak memory
    grows with neither the phase count nor the orders, the values do not
    depend on the block size, and a point in one block is weighed once for
    all its phases. With corrections, each point beyond RAY_VALIDITY_KR
    warns once; the naive, uncorrected route does not.
    """
    for phi0 in phases:
        if not math.isfinite(phi0):
            raise ValueError(f"phi0 must be finite, got {phi0}")
    axisym_weights = all(o.is_axisymmetric for o in orientations)
    even_weights = all(o.vector is None or o.vector[1] == 0.0 for o in orientations)
    values = np.zeros((2, len(points), len(phases), len(orientations)))
    node_sets, counts = {}, []
    for i, point in enumerate(points):
        if corrections and point.kr > RAY_VALIDITY_KR:
            # stacklevel 3 names the line that called response or
            # enhancement_ray, or the caller of a cli executor
            warnings.warn(f"kr={point.kr:.3g} beyond the validated ray-model range "
                          f"(kr <= {RAY_VALIDITY_KR:g})", ValidityWarning, stacklevel=3)
        axisym = point.on_axis and axisym_weights
        orders = _ray_orders(geom, point, corrections, axisym)
        if orders not in node_sets:
            node_sets[orders] = ray_integration_nodes(geom, corrections, orders)
        theta, w, phi_az, rho_f, rho_b = node_sets[orders]
        counts.append({"polar_nodes": theta.size, "azimuthal_nodes": phi_az.size})
        if not axisym and point.kvec[1] == 0.0 and even_weights:
            phi_az = phi_az[:phi_az.size // 2]  # the mirrors of the other half
        meets_mirror = (rho_f != 0.0) | (rho_b != 0.0)
        step = max(1, _BLOCK_DIRECTIONS // phi_az.size)
        blocks = [np.arange(s, min(s + step, theta.size)) for s in range(0, theta.size, step)]
        weighed = None  # the block whose row means and mirror-row weights are held
        for j, phi0 in enumerate(phases):
            # weight x damping and weight x shift of each orientation,
            # averaged over each polar row; a row that meets no mirror has
            # damping exactly 1 and shift exactly 0
            rows = np.zeros((len(orientations), 2, theta.size))
            for block in blocks:
                hit = meets_mirror[block]
                if block is not weighed:
                    pols = [orientation_weight(o, theta[block, None], phi_az[None, :])
                            for o in orientations]
                    means, pols = [p.mean(axis=1) for p in pols], [p[hit] for p in pols]
                    weighed = block
                rows[:, 0, block] = means
                if not hit.any():
                    continue
                idx = block[hit]
                phi_eff, x_eff = ray_direction_phases(geom, point, phi0, theta[idx, None],
                                                      phi_az[None, :], aberration=corrections)
                kernels = _ray_kernels(phi_eff, x_eff, rho_f[idx, None], rho_b[idx, None])
                for pol, o_rows in zip(pols, rows):
                    for row, kernel in zip(o_rows, kernels):
                        row[idx] = (pol * kernel).mean(axis=1)
            for k, (gamma_row, shift_row) in enumerate(rows):
                values[:, i, j, k] = np.dot(w, gamma_row), np.dot(w, shift_row)
    return values, counts


def enhancement_ray(
    geom: CavityGeometry,
    point: FieldPoint,
    phi0: float,
    *,
    corrections: bool = True,
) -> EnhancementResult:
    """Vacuum-fluctuation ratio from the ray picture: the damping ratio of
    an isotropic dipole, i.e. the plain angular average of the per-ray
    resonance factor.

    corrections=False switches off both the aberration phase and the
    diffraction-shrunk apertures, giving the naive geometric-ray value
    (method "ray-naive"), which coincides with the operator calculation
    when all angular-spreading phases are neglected.
    """
    values, nodes = _ray_scan(geom, [point], [phi0], [DipoleOrientation.isotropic()],
                              corrections)
    return EnhancementResult(float(values[0, 0, 0, 0]), "ray" if corrections else "ray-naive",
                             detail={"corrections": corrections, **nodes[0],
                                     "orientation": "isotropic"})
