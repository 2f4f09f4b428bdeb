"""Self-contained invariant checks behind the `validate` CLI command.

Each check re-verifies one structural identity of the library (sum rules,
oracle agreements, symmetry identities) at reduced size so the whole suite
runs in seconds. The pytest suite covers the same ground, and more, at full
size; this command exists for installed-environment sanity checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import airy_shift, dipole_response, quadrature, ray_model, specfun, wave_ops
from .cli import pv_oracle_errors
from .structures import CavityGeometry, DipoleOrientation, FieldPoint, HarmonicBasis

__all__ = ["CHECKS", "run_checks"]


def _bessel_sum_rule():
    worst = 0.0
    for kr in (1.0, 20.0, 100.0):
        weights = specfun.bessel_weights(int(kr) + 50, kr)
        worst = max(worst, abs(float(np.sum(weights)) - 1.0))
    return worst < 1e-8, f"max deviation {worst:.2e} (tol 1e-8)"


def _bessel_odd_even():
    worst = 0.0
    for kr in (0.7, 20.0, 100.0):
        weights = specfun.bessel_weights(int(kr) + 50, kr)
        even = float(np.sum(weights[::2]))
        expect = 0.5 + math.sin(2 * kr) / (4 * kr)
        worst = max(worst, abs(even - expect))
    return worst < 1e-8, f"max deviation {worst:.2e} (tol 1e-8)"


def _bessel_asymptotic():
    # agreement bound 1e-4 relative in the regime kr >= 100*l
    worst = 0.0
    for l, kr in ((0, 100.0), (10, 1e5), (40, 2e4), (100, 1e4)):
        a = specfun.asymptotic_radial_bessel(l, kr)
        b = specfun.radial_bessel(l, kr)
        worst = max(worst, abs(a - b) / abs(b))
    return worst < 1e-4, f"max relative deviation {worst:.2e} (tol 1e-4)"


def _harmonic_orthonormality():
    grid = quadrature.build_grid([0.9], order_polar=32, order_azimuthal=8)
    worst = 0.0
    for m in (0, 1, 3):
        v = specfun.legendre_table(20, m, grid.mu)
        gram = v.T @ (grid.w_theta[:, None] * v)
        gram[np.diag_indices(gram.shape[0])] -= 1.0
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst < 1e-10, f"max Gram deviation {worst:.2e} (tol 1e-10)"


def _grid_exactness():
    grid = quadrature.build_grid([0.6, 2.2], order_polar=16, order_azimuthal=4)
    worst = 0.0
    for n in range(0, 12):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        vals = np.polynomial.legendre.legval(grid.mu, coeffs)
        got = grid.integrate_polar(vals)
        worst = max(worst, abs(got - (1.0 if n == 0 else 0.0)))
    return worst < 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def _polarization_isotropy():
    rng = np.random.default_rng(7)
    grid = quadrature.build_grid([1.0], order_polar=24, order_azimuthal=24)
    worst = 0.0
    for _ in range(3):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        th, ph = grid.theta[:, None], grid.phi_az[None, :]
        omega = np.stack(
            [np.sin(th) * np.cos(ph) + 0 * ph, np.sin(th) * np.sin(ph),
             np.cos(th) + 0 * ph], axis=-1)
        pol = dipole_response.polarization_factor(d, omega)
        worst = max(worst, abs(grid.integrate(pol) - 1.0))
    return worst < 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def _airy_forms():
    phis = np.linspace(-1.5, 1.5, 301)
    worst = 0.0
    for rho in (0.1, 0.5, 0.9, 0.98):
        a = airy_shift.airy_lorentzian(phis, rho)
        b = (1 - rho**2) / np.abs(1 - rho * np.exp(2j * phis)) ** 2
        worst = max(worst, float(np.max(np.abs(a / b - 1.0))))
    return worst < 1e-13, f"max relative deviation {worst:.2e} (tol 1e-13)"


def _pv_oracle():
    worst = 0.0
    for rho, phi in ((0.9, 0.1), (0.5, 0.7)):
        for _, err in pv_oracle_errors(rho, phi, 1024):
            worst = max(worst, err)
    return worst < 1e-6, f"max relative deviation {worst:.2e} (tol 1e-6)"


def _ray_nonnegative():
    rng = np.random.default_rng(11)
    phis = rng.uniform(-math.pi, math.pi, 4000)
    xs = rng.uniform(-50, 50, 4000)
    r1 = rng.uniform(0, 0.999, 4000)
    r2 = rng.uniform(0, 0.999, 4000)
    m = ray_model.airy_resonance_factor(phis, xs, r1, r2)
    return bool(np.all(m >= -1e-12)), f"min value {float(np.min(m)):.2e}"


def _gamma_kernel_symmetric(phi, x, rho):
    """Equal-mirror damping kernel, the oracle of airy_resonance_factor:
    T cos^2(x)/|1 - rho e^{2i phi}|^2 + T sin^2(x)/|1 + rho e^{2i phi}|^2."""
    t = 1.0 - rho * rho
    cos2phi = np.cos(2.0 * phi)
    d_minus = 1.0 + rho * rho - 2.0 * rho * cos2phi
    d_plus = 1.0 + rho * rho + 2.0 * rho * cos2phi
    return t * np.cos(x) ** 2 / d_minus + t * np.sin(x) ** 2 / d_plus


def _shift_kernel_symmetric(phi, x, rho):
    """Equal-mirror shift kernel, the oracle of dipole_response.shift_kernel:
    rho sin(2 phi) [cos^2(x)/|1 - rho e^{2i phi}|^2 - sin^2(x)/|1 + rho e^{2i phi}|^2]."""
    cos2phi = np.cos(2.0 * phi)
    d_minus = 1.0 + rho * rho - 2.0 * rho * cos2phi
    d_plus = 1.0 + rho * rho + 2.0 * rho * cos2phi
    return rho * np.sin(2.0 * phi) * (np.cos(x) ** 2 / d_minus - np.sin(x) ** 2 / d_plus)


def _ray_symmetric_reduction():
    rng = np.random.default_rng(12)
    phis = rng.uniform(-math.pi, math.pi, 2000)
    xs = rng.uniform(-30, 30, 2000)
    rho = rng.uniform(0, 0.995, 2000)
    worst = 0.0
    for a, b in ((ray_model.airy_resonance_factor(phis, xs, rho, rho),
                  _gamma_kernel_symmetric(phis, xs, rho)),
                 (dipole_response.shift_kernel(phis, xs, rho, rho),
                  _shift_kernel_symmetric(phis, xs, rho))):
        # deviation normalized to the kernel's own scale (resonant values
        # reach T/(1-rho)^2, where an absolute float64 comparison is meaningless)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
    return worst < 1e-12, f"max normalized deviation {worst:.2e} (tol 1e-12)"


def _ray_frequency_average():
    phis = math.pi * (np.arange(4096) + 0.5) / 4096
    worst = 0.0
    for x, r1, r2 in ((0.0, 0.9, 0.9), (7.3, 0.98, 0.5), (22.0, 0.7, 0.0)):
        avg = float(np.mean(ray_model.airy_resonance_factor(phis, x, r1, r2)))
        worst = max(worst, abs(avg - 1.0))
    return worst < 1e-6, f"max deviation from 1: {worst:.2e} (tol 1e-6)"


def _orientation_sum_rule():
    geom = CavityGeometry.symmetric(1e5, math.acos(0.7), 0.98)
    worst = 0.0
    for point, phi0 in ((FieldPoint.axial(12.0), 0.004), (FieldPoint((3.0, 2.0, 5.0)), -0.01)):
        rs = {tag: dipole_response.response(point, DipoleOrientation(tag=tag), geom, phi0)
              for tag in ("parallel", "perpendicular", "isotropic")}
        g = (rs["parallel"].gamma_ratio + 2 * rs["perpendicular"].gamma_ratio) / 3
        s = (rs["parallel"].shift_ratio + 2 * rs["perpendicular"].shift_ratio) / 3
        worst = max(worst, abs(g - rs["isotropic"].gamma_ratio),
                    abs(s - rs["isotropic"].shift_ratio))
    return worst < 1e-8, f"max deviation {worst:.2e} (tol 1e-8)"


def _free_space_recovery():
    geom = CavityGeometry.symmetric(1e5, 0.8, 0.0)
    worst = 0.0
    for point in (FieldPoint.origin(), FieldPoint.axial(9.0), FieldPoint((2.0, 1.0, 3.0))):
        r = dipole_response.response(point, DipoleOrientation.isotropic(), geom, 0.17)
        worst = max(worst, abs(r.gamma_ratio - 1.0), abs(r.shift_ratio))
    return worst < 1e-12, f"max deviation {worst:.2e} (tol 1e-12)"


def _shift_antisymmetry():
    geom = CavityGeometry.symmetric(1e5, math.acos(0.7), 0.98)
    worst = 0.0
    for phi0 in (0.003, 0.011, 0.03):
        plus = dipole_response.response(FieldPoint.origin(), DipoleOrientation.isotropic(),
                                        geom, phi0).shift_ratio
        minus = dipole_response.response(FieldPoint.origin(), DipoleOrientation.isotropic(),
                                         geom, -phi0).shift_ratio
        worst = max(worst, abs(plus + minus))
    return worst < 1e-14, f"max |odd-part violation| {worst:.2e} (tol 1e-14)"


def _operator_flux_identity():
    geom = CavityGeometry.symmetric(1e5, math.acos(0.7), 0.98)
    basis = HarmonicBasis(60)
    ops = wave_ops.build_operators(geom, basis, m_values=(0, 3))
    r = ops.flux_residual
    return r < 1e-8, f"flux-identity residual {r:.2e} (tol 1e-8)"


def _closed_sphere_modes():
    rho, k_radius, phi0 = 0.9, 1e5, 0.05
    geom = CavityGeometry.symmetric(k_radius, math.pi / 2, rho)
    basis = HarmonicBasis(30)
    ops = wave_ops.build_operators(geom, basis, m_values=(0,))
    import numpy.linalg as la
    block = ops.block(0)
    a = np.diag(block.u_half**2) - np.exp(2j * phi0) * (block.parity[:, None] * block.dense_rho())
    worst = 0.0
    for l in range(31):
        e = np.zeros(31, dtype=complex)
        e[l] = 1.0
        x = la.solve(a, block.u_half * e)
        scalar = np.exp(-1j * l * (l + 1) / (2 * k_radius)) / (
            np.exp(-1j * l * (l + 1) / k_radius)
            - (-1.0) ** l * rho * np.exp(2j * phi0)
        )
        worst = max(worst, float(np.max(np.abs(x - scalar * e))))
    return worst < 1e-10, f"max deviation {worst:.2e} (tol 1e-10)"


def _full_frequency_average():
    geom = CavityGeometry.symmetric(1e5, math.acos(0.7), 0.9)
    basis = HarmonicBasis(40)
    ops = wave_ops.build_operators(geom, basis, m_values=(0,))
    point = FieldPoint.axial(8.0)
    phis = math.pi * (np.arange(128) + 0.5) / 128
    vals = [wave_ops.enhancement_full(geom, basis, point, p, ops=ops).value for p in phis]
    avg = float(np.mean(vals))
    return abs(avg - 1.0) < 1e-2, f"spectral average {avg:.5f} (tol 1e-2 around 1)"


def _center_closed_forms():
    geom = CavityGeometry.symmetric(1e5, math.acos(0.7), 0.98)
    worst = 0.0
    for tag in ("parallel", "perpendicular", "isotropic"):
        for phi0 in (0.0, 0.01):
            orientation = DipoleOrientation(tag=tag)
            closed = dipole_response.center_closed_forms(orientation, geom.theta_m1,
                                                         geom.rho1, phi0)
            quad = dipole_response.response(FieldPoint.origin(), orientation, geom, phi0,
                                            aberration=False, diffraction=False)
            worst = max(worst, abs(closed.gamma_ratio - quad.gamma_ratio),
                        abs(closed.shift_ratio - quad.shift_ratio))
    return worst < 1e-10, f"max deviation {worst:.2e} (tol 1e-10)"


CHECKS = {
    "bessel-sum-rule": _bessel_sum_rule,
    "bessel-odd-even-split": _bessel_odd_even,
    "bessel-asymptotic": _bessel_asymptotic,
    "harmonic-orthonormality": _harmonic_orthonormality,
    "grid-legendre-exactness": _grid_exactness,
    "polarization-isotropy": _polarization_isotropy,
    "airy-forms-equivalence": _airy_forms,
    "pv-oracle-agreement": _pv_oracle,
    "ray-factor-nonnegative": _ray_nonnegative,
    "ray-symmetric-reduction": _ray_symmetric_reduction,
    "ray-frequency-average": _ray_frequency_average,
    "orientation-sum-rule": _orientation_sum_rule,
    "free-space-recovery": _free_space_recovery,
    "shift-antisymmetry": _shift_antisymmetry,
    "operator-flux-identity": _operator_flux_identity,
    "closed-sphere-modes": _closed_sphere_modes,
    "full-frequency-average": _full_frequency_average,
    "center-closed-forms": _center_closed_forms,
}


def run_checks(name_filter: str | None = None, emit=print) -> bool:
    """Run the invariant suite, printing one PASS/FAIL line per check.
    Returns True when every selected check passed."""
    selected = {n: f for n, f in CHECKS.items()
                if name_filter is None or name_filter in n}
    if not selected:
        emit(f"no checks match filter {name_filter!r}")
        return False
    all_ok = True
    for name, func in selected.items():
        ok, detail = func()
        all_ok &= ok
        emit(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
