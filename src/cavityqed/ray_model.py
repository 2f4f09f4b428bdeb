"""Corrected ray-optics model: the per-ray kernels, phases and direction nodes.

Every direction on the sphere defines a ray through the evaluation point.
If the ray meets the mirrors it carries a Fabry-Perot buildup factor with
standing-wave weights set by the phase k Omega.r at the point; otherwise it
contributes plain vacuum. Three corrections make the picture quantitative
near (but not at) the center:

* a spherical-aberration phase k(r^2 - (Omega.r)^2)/(2R) added to the
  one-way cavity phase, which dephases off-center rays;
* diffraction losses of rays hitting the mirror edge, absorbed by shrinking
  the aperture to theta_m - 1/sqrt(kR(1-rho_av^2)), the exposed annulus
  counting as free vacuum;
* an axial mispositioning of mirror 2, entering as a direction-dependent
  reflection phase (defocus_profile) that shifts and degrades the resonance.

A ray's damping factor (airy_resonance_factor) and its shift kernel
(dipole_response.shift_kernel) are the two halves of one evaluation,
_ray_kernels, which takes both from cos 2phi, sin 2phi, cos 2x and sin 2x.
The angular quadrature over these ray factors is dipole_response._ray_scan,
whose one-point cases are response and enhancement_ray.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import cap_edges, polar_rule
from .structures import CavityGeometry, FieldPoint

__all__ = [
    "standing_wave_weights",
    "airy_resonance_factor",
    "effective_aperture",
    "defocus_profile",
    "aberration_phase",
    "ray_direction_phases",
    "ray_integration_nodes",
    "cavity_linewidth",
    "ApertureCollapseError",
    "ResonanceSingularityError",
    "RAY_VALIDITY_KR",
]

RAY_VALIDITY_KR = 100.0
# rho1*rho2 closer to 1 than this is a lossless line; a resonant phase on it
# raises ResonanceSingularityError instead of dividing by zero
_SINGULAR_FLOOR = 1e-9
# least ray-quadrature orders
_POLAR_ORDER_FLOOR = 64
_AZIMUTHAL_ORDER_FLOOR = 32


class ApertureCollapseError(ValueError):
    """Diffraction correction larger than the mirror aperture itself."""


class ResonanceSingularityError(ValueError):
    """Lossless resonance requested exactly on a cavity line."""


def standing_wave_weights(x):
    """Standing-wave pattern weights (cos^2 x, sin^2 x, sin 2x) at phase
    x = k Omega.r: antinode-series weight, node-series weight, and the
    interference cross term."""
    x = np.asarray(x, dtype=float)
    return np.cos(x) ** 2, np.sin(x) ** 2, np.sin(2.0 * x)


def airy_resonance_factor(phi, x, rho1, rho2):
    """Per-ray vacuum-fluctuation factor for two mirrors of amplitude
    reflectivities rho1 (toward +Omega) and rho2 (toward -Omega).

    phi is the one-way cavity phase, x = k Omega.r the standing-wave phase
    at the point. The three terms weight the antinode series, the node
    series, and the forward/backward imbalance cross term; the cross term
    vanishes for rho1 = rho2 and the whole factor reduces to
    T cos^2(x)/|1 - rho e^{2i phi}|^2 + T sin^2(x)/|1 + rho e^{2i phi}|^2.
    Directions missing both mirrors (rho1 = rho2 = 0) give exactly 1.
    Averaged over a free spectral range in phi the factor is 1 for any x.
    This is the damping half of _ray_kernels.
    """
    return _ray_kernels(phi, x, rho1, rho2)[0]


def _ray_kernels(phi, x, rho1, rho2):
    """Damping and shift kernels of one ray, airy_resonance_factor and
    dipole_response.shift_kernel, from one set of trig values.

    Both are fractions over the round-trip resonance denominator
    |1 - rho1 rho2 e^{4i phi}|^2 = (1 - rho1 rho2)^2 + 4 rho1 rho2 sin^2(2 phi),
    written without cos(4 phi) so that it loses no digits to cancellation
    near a resonance. The standing-wave weights cos^2 x, sin^2 x enter the
    numerators only through cos^2 x - sin^2 x = cos 2x and their unit sum,
    so cos 2phi, sin 2phi, cos 2x and sin 2x are all the trigonometry.
    With rho1 = rho2 = 0 the kernels are exactly 1 and 0.

    Raises ValueError for a reflectivity outside [0, 1] and
    ResonanceSingularityError for a lossless pair (rho1 rho2 within the
    singular floor of 1) at a resonant phase.
    """
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    if np.any(rho1 < 0) or np.any(rho1 > 1) or np.any(rho2 < 0) or np.any(rho2 > 1):
        raise ValueError("reflectivities must lie in [0, 1]")
    rr = rho1 * rho2
    cos2phi = np.cos(2.0 * phi)
    sin2phi = np.sin(2.0 * phi)
    lossless = 1.0 - rr < _SINGULAR_FLOOR
    if np.any(lossless) and np.any(lossless & (np.abs(sin2phi) < 1e-6)):
        raise ResonanceSingularityError(
            "rho1*rho2 within the singular floor of 1 at a resonant phase"
        )
    cos2x = np.cos(2.0 * x)
    sin2x = np.sin(2.0 * x)
    loss = 1.0 - rr
    gain = 1.0 + rr
    total = rho1 + rho2
    imbalance = rho2 - rho1
    denom = loss * loss + 4.0 * rr * sin2phi * sin2phi
    damping = (loss * gain + loss * total * cos2phi * cos2x
               + gain * imbalance * sin2phi * sin2x) / denom
    shift = (sin2phi * (2.0 * rr * cos2phi + 0.5 * total * gain * cos2x)
             - 0.5 * loss * imbalance * cos2phi * sin2x) / denom
    return damping, shift


def effective_aperture(theta_m: float, k_radius: float, rho1: float, rho2: float) -> float:
    """Mirror half-aperture shrunk by the diffraction-loss correction
    delta_theta = 1/sqrt(kR (1 - rho_av^2)), rho_av = (rho1 + rho2)/2.
    For equal mirrors 1 - rho_av^2 is the intensity transmittivity T; a
    lossless pair (rho_av = 1) has an unbounded correction, which collapses
    every aperture."""
    if k_radius <= 0:
        raise ValueError(f"k_radius must be positive, got {k_radius}")
    rho_av = 0.5 * (rho1 + rho2)
    loss = 1.0 - rho_av * rho_av
    if loss <= 0:
        raise ApertureCollapseError(
            "diffraction correction is unbounded for a lossless mirror pair; "
            "the ray correction needs loss"
        )
    d_theta = 1.0 / math.sqrt(k_radius * loss)
    if d_theta >= theta_m:
        raise ApertureCollapseError(
            f"diffraction correction {d_theta:.4g} exceeds aperture {theta_m:.4g}; "
            "cavity too lossy or too small for the ray correction"
        )
    return theta_m - d_theta


def defocus_profile(rho0: float, k_delta: float, theta):
    """Complex reflectivity rho0 * exp(2i k_delta cos(theta)) of a mirror
    mispositioned axially by delta, theta being the mirror's local polar
    angle. Modulus is unchanged; only the reflection phase varies."""
    if abs(rho0) > 1.0:
        raise ValueError(f"|rho0| must not exceed 1, got {rho0}")
    return rho0 * np.exp(2j * k_delta * np.cos(np.asarray(theta, dtype=float)))


def aberration_phase(point: FieldPoint, omega_dot_r, k_radius: float):
    """Extra one-way phase k(r^2 - (Omega.r)^2)/(2R) of a ray through the
    point along Omega; nonnegative, zero at the center."""
    kr2 = point.kr**2
    return (kr2 - np.asarray(omega_dot_r, dtype=float) ** 2) / (2.0 * k_radius)


def _effective_edges(geom: CavityGeometry, diffraction: bool):
    th1, th2 = geom.theta_m1, geom.theta_m2
    if diffraction:
        if th1 > 0.0:
            th1 = effective_aperture(th1, geom.k_radius, geom.rho1, geom.rho2)
        if th2 > 0.0:
            th2 = effective_aperture(th2, geom.k_radius, geom.rho1, geom.rho2)
    return th1, th2


def _cap_masks(theta, theta_0: float, theta_pi: float):
    """Masks of the polar angles theta that lie on a cap of half-aperture
    theta_0 around theta = 0 and on one of half-aperture theta_pi around
    theta = pi. A node within 1e-14 rad outside an edge counts as on the
    cap; a zero half-aperture is no cap. The mirror profiles of the
    operator route and the ray reflectivities both use this one rule."""
    on_0 = theta <= theta_0 + 1e-14 if theta_0 > 0 else np.zeros(theta.shape, bool)
    on_pi = theta >= math.pi - theta_pi - 1e-14 if theta_pi > 0 else np.zeros(theta.shape, bool)
    return on_0, on_pi


def ray_direction_phases(
    geom: CavityGeometry,
    point: FieldPoint,
    phi0: float,
    theta,
    phi_az,
    *,
    aberration: bool = True,
):
    """Per-direction arguments of the ray factors.

    Returns (phi_eff, x_eff): the corrected one-way phase and the corrected
    standing-wave phase. Shapes follow numpy broadcasting of theta and
    phi_az. The reflectivities at the ends of each ray come with the nodes,
    from ray_integration_nodes.

    The mispositioning phase of mirror 2 (2 k_delta |cos theta| per
    reflection) is split between phi_eff and x_eff; for a ray hitting only
    one mirror this reduces exactly to adding that mirror's reflection
    phase to its interference term.
    """
    theta = np.asarray(theta, dtype=float)
    phi_az = np.asarray(phi_az, dtype=float)
    mu = np.cos(theta)
    sin_th = np.sin(theta)
    kx, ky, kz = point.kvec
    x = kz * mu + sin_th * (kx * np.cos(phi_az) + ky * np.sin(phi_az))
    phi_eff = phi0 + (aberration_phase(point, x, geom.k_radius) if aberration else 0.0)
    x_eff = x
    if geom.k_delta != 0.0:
        # a quarter of the phase each. Reflection phases a_f at the +Omega end
        # and a_b at the -Omega end move the standing wave as a shift of x by
        # -(a_f - a_b)/4, so x_eff gains -alpha/4 where the +Omega end
        # (theta >= pi/2) meets mirror 2 and +alpha/4 where the -Omega end does
        alpha = 2.0 * geom.k_delta * np.abs(mu)
        phi_eff = phi_eff + 0.25 * alpha
        x_eff = x + 0.25 * np.where(theta >= math.pi / 2, -alpha, alpha)
    phi_eff = np.broadcast_to(phi_eff, x.shape) if np.shape(phi_eff) != x.shape else phi_eff
    return phi_eff, x_eff


def _auto_polar_order(kr: float) -> int:
    # the designed order 48 + int(1.2 kr) is rounded up to a multiple of 16,
    # so a scan to kr 100 needs 8 Gauss rules rather than 105. The values
    # are converged at the designed order: the rounding moves the presets'
    # enhancement and ratio values by at most 2.4e-15 relative, a radial
    # map's shift_ratio by 1.5e-13 and a compare scan's rel_deviation by
    # 2.4e-12, and gives the axial-profile scan 6% more polar nodes
    auto = -(-(48 + int(1.2 * kr)) // 16) * 16
    return max(_POLAR_ORDER_FLOOR, auto)


def _auto_azimuthal_order(kr_perp: float, sin_theta: float) -> int:
    # a row's kernels carry cos 2x, x = kr_perp sin(theta) cos(phi) + const,
    # and n uniform columns alias its Bessel term J_n(z), z = 2 kr_perp
    # sin(theta), of Debye exponent n(alpha - tanh alpha), cosh alpha = n/z
    # (DLMF 10.19.3). The order is the least even n from 16 + 2 ceil(kr_perp)
    # up whose exponent reaches 24 at the widest cap's sin_theta: 16 + 2
    # ceil(kr_perp) on the benchmark's diffraction-shrunk caps, and within
    # 1e-13 of 4n up to theta_m = pi/2 (tests)
    n = max(_AZIMUTHAL_ORDER_FLOOR, 16 + 2 * math.ceil(kr_perp))
    z = 2.0 * kr_perp * sin_theta
    while z > 0.0 and (n <= z or n * math.acosh(n / z) - math.sqrt(n * n - z * z) < 24.0):
        n += 2
    return n


def _ray_orders(geom: CavityGeometry, point: FieldPoint, diffraction: bool, axisym: bool):
    """(polar, azimuthal) orders of a point's ray quadrature; the azimuthal
    order is None (one column) where the integrand is axisymmetric."""
    widest = max(_effective_edges(geom, diffraction))
    return (_auto_polar_order(point.kr),
            None if axisym else _auto_azimuthal_order(point.kr_perp, math.sin(widest)))


def ray_integration_nodes(geom, diffraction, orders):
    """Direction nodes and weights for ray-model integrals at the given
    (polar, azimuthal) orders (_ray_orders), with the reflectivities met at
    the +Omega and -Omega ends of each polar row's rays: (theta, w, phi_az,
    rho_fwd, rho_back), a reflectivity being 0 where the ray meets no
    mirror within the (effective) apertures.

    The reflectivities jump at both caps' edges and at their antipodes, so
    the polar Gauss rule is split at all four (two for a mirror-symmetric
    cavity). The azimuth is uniform, or a single column where the
    azimuthal order is None (axisymmetric integrands)."""
    polar_order, azimuthal_order = orders
    th1, th2 = _effective_edges(geom, diffraction)
    edges = sorted(set(cap_edges(th1, th2)) | set(cap_edges(th2, th1)))
    grid = polar_rule(edges, polar_order)
    on1_fwd, on2_fwd = _cap_masks(grid.theta, th1, th2)
    on2_back, on1_back = _cap_masks(grid.theta, th2, th1)
    rho_fwd = np.where(on1_fwd, geom.rho1, 0.0) + np.where(on2_fwd, geom.rho2, 0.0)
    rho_back = np.where(on1_back, geom.rho1, 0.0) + np.where(on2_back, geom.rho2, 0.0)
    if azimuthal_order is None:
        phi = np.zeros(1)
    else:
        phi = 2.0 * math.pi * (np.arange(azimuthal_order) + 0.5) / azimuthal_order
    return grid.theta, grid.w_theta, phi, rho_fwd, rho_back


def cavity_linewidth(rho1: float, rho2: float) -> float:
    """Full width at half maximum of the round-trip resonance line,
    2*arcsin((1 - rho1 rho2)/(2 sqrt(rho1 rho2))), used to normalize
    detuning axes. Returns pi (a full free spectral range) when the line
    is broader than the spectral range."""
    rr = rho1 * rho2
    if rr <= 0.0:
        return math.pi
    arg = (1.0 - rr) / (2.0 * math.sqrt(rr))
    if arg >= 1.0:
        return math.pi
    return 2.0 * math.asin(arg)
