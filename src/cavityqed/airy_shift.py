"""Closed-form dispersive kernels paired with the Fabry-Perot resonance line.

The damping response of a dipole samples the resonance line itself; the level
shift samples its principal-value frequency transform. For the normalized
resonance line these transforms have closed forms, which the `airy-check`
scan kind of the command line tabulates against the numerical
principal-value engine quadrature.pv_integrate; the test suite asserts the
agreement. The ray route's shift does not read them: its per-ray kernel is
ray_model._ray_kernels.

The kernels are written in the line-shape coefficient F = 4 rho/(1 - rho)^2
of a round-trip amplitude rho in [0, 1); for two different mirrors rho is
their product rho1 rho2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "airy_lorentzian",
    "pv_shift",
    "pv_shift_cos",
    "pv_shift_sin",
]


def _check_rho(rho: float):
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"reflectivity must lie in [0, 1), got {rho}")


def _finesse(rho: float) -> float:
    """Line-shape coefficient F = 4 rho/(1 - rho)^2 of a round-trip
    amplitude rho in [0, 1)."""
    _check_rho(rho)
    return 4.0 * rho / (1.0 - rho) ** 2


def airy_lorentzian(phi, rho: float):
    """Normalized resonance line sqrt(1+F)/(1 + F sin^2 phi).

    Equals (1 - rho^2)/|1 - rho e^{2i phi}|^2; unit average over a period.
    """
    f = _finesse(rho)
    return math.sqrt(1.0 + f) / (1.0 + f * np.sin(phi) ** 2)


def pv_shift(phi, rho: float):
    """Dispersive partner of the resonance line:
    2*pi*rho*sin(2 phi)/|1 - rho e^{2i phi}|^2. Odd and pi-periodic in phi."""
    _check_rho(rho)
    denom = 1.0 + rho * rho - 2.0 * rho * np.cos(2.0 * np.asarray(phi, dtype=float))
    return 2.0 * math.pi * rho * np.sin(2.0 * np.asarray(phi, dtype=float)) / denom


def pv_shift_cos(phi, rho_eff: float):
    """Dispersive kernel weighted by the in-phase (cosine) quadrature:
    pi*(1+F')*sin(phi)/(1 + F' sin^2 phi), F' built from rho_eff = rho1*rho2."""
    f = _finesse(rho_eff)
    phi = np.asarray(phi, dtype=float)
    return math.pi * (1.0 + f) * np.sin(phi) / (1.0 + f * np.sin(phi) ** 2)


def pv_shift_sin(phi, rho_eff: float):
    """Dispersive kernel weighted by the out-of-phase (sine) quadrature:
    -pi*cos(phi)/(1 + F' sin^2 phi)."""
    f = _finesse(rho_eff)
    phi = np.asarray(phi, dtype=float)
    return -math.pi * np.cos(phi) / (1.0 + f * np.sin(phi) ** 2)
