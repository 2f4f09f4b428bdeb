"""Shared data structures: geometry, field points, dipole orientations, bases.

All lengths are stored pre-multiplied by the wavenumber k, so every quantity
in the library is a dimensionless optical phase. Angles are radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "CavityGeometry",
    "FieldPoint",
    "DipoleOrientation",
    "HarmonicBasis",
    "AngularFunction",
    "EnhancementResult",
    "ResponseResult",
    "TruncationWarning",
    "ValidityWarning",
    "SolverError",
]


class TruncationWarning(UserWarning):
    """Harmonic expansion truncated too early for the requested radius."""


class ValidityWarning(UserWarning):
    """Input outside the validated regime of an approximation."""


class SolverError(RuntimeError):
    """Linear solve failed or is too ill-conditioned to trust."""


@dataclass(frozen=True)
class CavityGeometry:
    """Concentric two-mirror cavity.

    Attributes
    ----------
    k_radius : float
        Mirror radius as an optical phase k*R (dimensionless, finite, > 0).
    theta_m1, theta_m2 : float
        Half-aperture of the caps around theta = 0 and theta = pi.
        A zero half-aperture removes that mirror.
    rho1, rho2 : float
        Amplitude reflectivities in [0, 1]. Mirrors are lossless, so the
        amplitude transmittivity is always sqrt(1 - rho**2).
    k_delta : float
        Axial mispositioning of mirror 2 as an optical phase k*delta (finite).
        Enters as a direction-dependent reflection phase; see
        ray_model.defocus_profile.
    """

    k_radius: float
    theta_m1: float
    theta_m2: float
    rho1: float
    rho2: float
    k_delta: float = 0.0

    def __post_init__(self):
        if not 0 < self.k_radius < math.inf:
            raise ValueError(f"k_radius must be positive and finite, got {self.k_radius}")
        if not math.isfinite(self.k_delta):
            raise ValueError(f"k_delta must be finite, got {self.k_delta}")
        for name in ("theta_m1", "theta_m2"):
            v = getattr(self, name)
            if not 0.0 <= v <= math.pi / 2:
                raise ValueError(f"{name} must lie in [0, pi/2], got {v}")
        for name in ("rho1", "rho2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @classmethod
    def symmetric(cls, k_radius, theta_m, rho, k_delta=0.0):
        return cls(k_radius, theta_m, theta_m, rho, rho, k_delta)

    @property
    def is_symmetric(self) -> bool:
        return self.theta_m1 == self.theta_m2 and self.rho1 == self.rho2

    @property
    def transmittivity1(self) -> float:
        return 1.0 - self.rho1**2

    @property
    def transmittivity2(self) -> float:
        return 1.0 - self.rho2**2


@dataclass(frozen=True)
class FieldPoint:
    """Evaluation/dipole position, stored as the phase vector k*r."""

    kvec: tuple[float, float, float]

    def __post_init__(self):
        v = tuple(float(c) for c in self.kvec)
        if len(v) != 3 or not all(math.isfinite(c) for c in v):
            raise ValueError(f"kvec must be three finite components, got {self.kvec}")
        object.__setattr__(self, "kvec", v)

    @classmethod
    def origin(cls):
        return cls((0.0, 0.0, 0.0))

    @classmethod
    def axial(cls, kz):
        return cls((0.0, 0.0, float(kz)))

    @classmethod
    def transverse(cls, kx):
        return cls((float(kx), 0.0, 0.0))

    @property
    def kr(self) -> float:
        return math.hypot(*self.kvec)

    @property
    def kr_perp(self) -> float:
        return math.hypot(self.kvec[0], self.kvec[1])

    @property
    def on_axis(self) -> bool:
        return self.kvec[0] == 0.0 and self.kvec[1] == 0.0


_ORIENTATION_TAGS = ("parallel", "perpendicular", "isotropic")


@dataclass(frozen=True)
class DipoleOrientation:
    """Dipole direction: a symmetry tag relative to the cavity axis, or a
    unit vector.

    The ``perpendicular`` tag averages over the azimuth of the dipole in the
    transverse plane; ``isotropic`` averages over all orientations.
    """

    tag: Optional[str] = None
    vector: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        if (self.tag is None) == (self.vector is None):
            raise ValueError("provide exactly one of tag or vector")
        if self.tag is not None and self.tag not in _ORIENTATION_TAGS:
            raise ValueError(f"unknown orientation tag {self.tag!r}")
        if self.vector is not None:
            v = np.asarray(self.vector, dtype=float)
            n = np.linalg.norm(v)
            if v.shape != (3,) or not np.isfinite(n) or n == 0:
                raise ValueError("orientation vector must be a nonzero 3-vector")
            # a vector already unit to rounding keeps its bits, so that
            # normalising twice gives the same vector as normalising once
            if abs(n - 1.0) > 1e-14:
                v = v / n
            object.__setattr__(self, "vector", tuple(v))

    @classmethod
    def parallel(cls):
        return cls(tag="parallel")

    @classmethod
    def perpendicular(cls):
        return cls(tag="perpendicular")

    @classmethod
    def isotropic(cls):
        return cls(tag="isotropic")

    @classmethod
    def along(cls, vector):
        return cls(vector=tuple(vector))

    @property
    def is_axisymmetric(self) -> bool:
        """True when the transverse-emission weight does not depend on azimuth."""
        if self.tag is not None:
            return True
        return abs(self.vector[2]) == 1.0

    def label(self) -> str:
        if self.tag is not None:
            return self.tag
        return "vector(%g,%g,%g)" % self.vector


@dataclass(frozen=True)
class HarmonicBasis:
    """Truncated spherical-harmonic basis: all (l, m) with l <= l_max."""

    l_max: int

    def __post_init__(self):
        if self.l_max < 0:
            raise ValueError(f"l_max must be nonnegative, got {self.l_max}")

    def block_ls(self, m: int) -> np.ndarray:
        return np.arange(abs(m), self.l_max + 1)


@dataclass
class AngularFunction:
    """Coefficients of a function on the sphere over normalized harmonics.

    coeffs[0, |m|, l] is the coefficient of Y_{l,+|m|} and coeffs[1, |m|, l]
    that of Y_{l,-|m|}, zero for l < |m| and in the row |m| = 0 of
    coeffs[1]. The rows run over |m| = 0..top: top is l_max, or 0 for a
    function on the axis, which has m = 0 only. Normalization follows the
    unit-mean-square harmonics, so norm_sq() equals the mean of |f|^2 over
    the sphere.
    """

    l_max: int
    coeffs: np.ndarray
    truncation_tail: float = 0.0

    @property
    def top(self) -> int:
        """Highest |m| held."""
        return self.coeffs.shape[1] - 1

    def m_energies(self) -> np.ndarray:
        """Squared coefficient norm of each |m|, the +m and -m planes
        together, at index |m| = 0..l_max."""
        energies = np.zeros(self.l_max + 1)
        c = self.coeffs
        energies[: self.top + 1] = np.sum(c.real * c.real + c.imag * c.imag, axis=(0, 2))
        return energies

    def norm_sq(self) -> float:
        return float(np.sum(self.m_energies()))


@dataclass(frozen=True)
class EnhancementResult:
    """Scalar vacuum-fluctuation ratio at a point, with method metadata."""

    value: float
    method: str
    l_max: Optional[int] = None
    truncation_tail: Optional[float] = None
    condition: Optional[float] = None
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ResponseResult:
    """Normalized damping rate and radiative level shift of a dipole."""

    gamma_ratio: float
    shift_ratio: float
    method: str
    detail: dict = field(default_factory=dict)
