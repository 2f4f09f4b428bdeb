import math

import pytest

from cavityqed.dipole_response import enhancement_ray, response
from cavityqed.structures import CavityGeometry, DipoleOrientation, FieldPoint

THETA_30PCT = math.acos(0.7)


class TestGeometryFiniteness:
    @pytest.mark.parametrize("k_radius", [math.inf, math.nan, 0.0, -1.0])
    def test_k_radius_rejected(self, k_radius):
        with pytest.raises(ValueError, match="k_radius"):
            CavityGeometry.symmetric(k_radius, THETA_30PCT, 0.98)

    @pytest.mark.parametrize("k_delta", [math.inf, -math.inf, math.nan])
    def test_k_delta_rejected(self, k_delta):
        with pytest.raises(ValueError, match="k_delta"):
            CavityGeometry.symmetric(1e5, THETA_30PCT, 0.98, k_delta=k_delta)


class TestDetuningFiniteness:
    @pytest.mark.parametrize("phi0", [math.inf, math.nan])
    def test_ray_entries_reject_non_finite_phi0(self, phi0):
        geom = CavityGeometry.symmetric(1e5, THETA_30PCT, 0.98)
        with pytest.raises(ValueError, match="phi0"):
            response(FieldPoint.origin(), DipoleOrientation.parallel(), geom, phi0)
        with pytest.raises(ValueError, match="phi0"):
            enhancement_ray(geom, FieldPoint.origin(), phi0)
