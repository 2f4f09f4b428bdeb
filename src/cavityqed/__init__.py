"""Cavity-modified vacuum fluctuations near the center of a wide-aperture
concentric spherical resonator: spontaneous-emission damping rates and
radiative level shifts from a full spherical-harmonic operator calculation
cross-validated against a corrected ray-optics model."""

__version__ = "0.1.0"

from .structures import (  # noqa: E402,F401
    AngularFunction,
    CavityGeometry,
    DipoleOrientation,
    EnhancementResult,
    FieldPoint,
    HarmonicBasis,
    ResponseResult,
    SolverError,
    TruncationWarning,
    ValidityWarning,
)
from .specfun import (  # noqa: E402,F401
    asymptotic_radial_bessel,
    plane_wave_coeffs,
    radial_bessel,
    radial_bessel_table,
    ylm,
)
from .quadrature import (  # noqa: E402,F401
    AngularGrid,
    PVConvergenceError,
    PVResult,
    build_grid,
    pv_integrate,
    solid_angle_fraction,
)
from .airy_shift import (  # noqa: E402,F401
    airy_lorentzian,
    finesse_param,
    pv_shift,
    pv_shift_cos,
    pv_shift_sin,
)
from .ray_model import (  # noqa: E402,F401
    ApertureCollapseError,
    airy_resonance_factor,
    cavity_linewidth,
    defocus_profile,
    effective_aperture,
)
from .wave_ops import (  # noqa: E402,F401
    CavityOperatorSet,
    build_operators,
    closed_cavity_mode_sum,
    enhancement_full,
    intracavity_field_coeffs,
    operator_grid,
    perfect_sphere_frequency,
)
from .dipole_response import (  # noqa: E402,F401
    center_closed_forms,
    enhancement_ray,
    one_mirror_response,
    polarization_factor,
    response,
)
