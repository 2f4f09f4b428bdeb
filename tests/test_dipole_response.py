import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cavityqed import dipole_response
from cavityqed.checks import _shift_kernel_symmetric
from cavityqed.dipole_response import (
    center_closed_forms,
    enhancement_ray,
    one_mirror_response,
    orientation_weight,
    polarization_factor,
    response,
    shift_kernel,
)
from cavityqed.ray_model import (
    ResonanceSingularityError,
    airy_resonance_factor,
    ray_direction_phases,
    ray_integration_nodes,
)
from cavityqed.structures import CavityGeometry, DipoleOrientation, FieldPoint, ValidityWarning

KR = 1.0e5
THETA_30PCT = math.acos(0.7)


@pytest.fixture(scope="module")
def benchmark_geom():
    return CavityGeometry.symmetric(KR, THETA_30PCT, 0.98)


class TestPolarizationFactor:
    def test_along_dipole_axis(self):
        assert polarization_factor((0, 0, 1), np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_across_dipole_axis(self):
        assert polarization_factor((0, 0, 1), np.array([1.0, 0.0, 0.0])) == pytest.approx(1.5, rel=1e-15)

    def test_sphere_average_is_unity(self):
        from cavityqed.quadrature import build_grid

        grid = build_grid([1.1], order_polar=20, order_azimuthal=16)
        th, ph = grid.theta[:, None], grid.phi_az[None, :]
        omega = np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th) * np.ones_like(ph)],
            axis=-1,
        )
        d = np.array([0.36, -0.48, 0.8])
        vals = polarization_factor(d, omega)
        assert grid.integrate(vals) == pytest.approx(1.0, abs=1e-13)

    def test_unit_vector_required(self):
        with pytest.raises(ValueError):
            polarization_factor((0, 0, 2), np.array([1.0, 0.0, 0.0]))


class TestOrientationIdentities:
    def test_sum_rule_on_and_off_axis(self, benchmark_geom):
        rng = np.random.default_rng(21)
        for _ in range(6):
            if rng.uniform() < 0.5:
                point = FieldPoint.axial(float(rng.uniform(0, 40)))
            else:
                v = rng.uniform(-15, 15, size=3)
                point = FieldPoint(tuple(v))
            phi0 = float(rng.uniform(-0.05, 0.05))
            res = {tag: response(point, DipoleOrientation(tag=tag), benchmark_geom, phi0)
                   for tag in ("parallel", "perpendicular", "isotropic")}
            g = (res["parallel"].gamma_ratio + 2 * res["perpendicular"].gamma_ratio) / 3
            s = (res["parallel"].shift_ratio + 2 * res["perpendicular"].shift_ratio) / 3
            assert g == pytest.approx(res["isotropic"].gamma_ratio, abs=1e-8)
            assert s == pytest.approx(res["isotropic"].shift_ratio, abs=1e-8)

    def test_gamma_nonnegative(self, benchmark_geom):
        rng = np.random.default_rng(8)
        for _ in range(5):
            point = FieldPoint.axial(float(rng.uniform(0, 60)))
            for tag in ("parallel", "perpendicular"):
                g = response(point, DipoleOrientation(tag=tag), benchmark_geom,
                             float(rng.uniform(-1.5, 1.5))).gamma_ratio
                assert g >= 0.0

    def test_explicit_vector_matches_parallel_tag(self, benchmark_geom):
        point = FieldPoint.axial(7.0)
        a = response(point, DipoleOrientation.parallel(), benchmark_geom, 0.01)
        b = response(point, DipoleOrientation.along((0.0, 0.0, 1.0)), benchmark_geom, 0.01)
        assert a.gamma_ratio == pytest.approx(b.gamma_ratio, rel=1e-12)
        assert a.shift_ratio == pytest.approx(b.shift_ratio, rel=1e-12)


class TestMethods:
    def test_symmetric_and_asymmetric_agree_for_equal_mirrors(self):
        # the general shift kernel reduces to the equal-mirror two-series form
        rng = np.random.default_rng(4)
        phis = rng.uniform(-math.pi, math.pi, 3000)
        xs = rng.uniform(-30, 30, 3000)
        rho = rng.uniform(0.0, 0.98, 3000)
        general = shift_kernel(phis, xs, rho, rho)
        symmetric = _shift_kernel_symmetric(phis, xs, rho)
        assert general == pytest.approx(symmetric, rel=1e-9, abs=1e-12)

    def test_scalar_consistency_with_ray_enhancement(self, benchmark_geom):
        # an isotropic dipole reproduces the scalar vacuum-fluctuation ratio
        for kz, phi0 in ((0.0, 0.0), (23.0, 0.01)):
            point = FieldPoint.axial(kz)
            iso = response(point, DipoleOrientation.isotropic(), benchmark_geom, phi0).gamma_ratio
            scalar = enhancement_ray(benchmark_geom, point, phi0).value
            assert iso == pytest.approx(scalar, rel=1e-13)


class TestShiftKernelValidation:
    # the shift kernel shares the damping kernel's input checks
    def test_lossless_resonance_raises(self):
        with pytest.raises(ResonanceSingularityError):
            shift_kernel(0.0, 0.0, 1.0, 1.0)

    def test_reflectivity_out_of_range_raises(self):
        with pytest.raises(ValueError):
            shift_kernel(0.1, 0.0, 1.2, 0.5)


def _two_kernel_response(point, orientation, geom, phi0):
    """Oracle: the ray quadrature with the damping and shift kernels written
    out separately (cos 4phi denominator, cos^2 x / sin^2 x weights) and
    evaluated on every direction, with the 2-D polarization weight."""
    axisym = point.on_axis and orientation.is_axisymmetric
    theta, w, phi_az = ray_integration_nodes(geom, point, True, None, None, axisym)
    th2, ph2 = theta[:, None], phi_az[None, :]
    phi, x, rho1, rho2 = ray_direction_phases(geom, point, phi0, th2, ph2)
    pol = orientation_weight(orientation, th2, ph2)
    rr = rho1 * rho2
    c2, s2 = np.cos(x) ** 2, np.sin(x) ** 2
    denom = 1.0 + rr * rr - 2.0 * rr * np.cos(4.0 * phi)
    damping = (
        (1.0 - rr) * (1.0 + rr + (rho1 + rho2) * np.cos(2.0 * phi)) * c2
        + (1.0 - rr) * (1.0 + rr - (rho1 + rho2) * np.cos(2.0 * phi)) * s2
        + (1.0 + rr) * (rho2 - rho1) * np.sin(2.0 * phi) * np.sin(2.0 * x)
    ) / denom
    balanced = 0.5 * (rho1 + rho2) * (1.0 + rr) * np.sin(2.0 * phi)
    shift = (
        (rr * np.sin(4.0 * phi) + balanced) * c2
        + (rr * np.sin(4.0 * phi) - balanced) * s2
        + 0.5 * (1.0 - rr) * (rho1 - rho2) * np.cos(2.0 * phi) * np.sin(2.0 * x)
    ) / denom
    return (float(np.dot(w, (pol * damping).mean(axis=1))),
            float(np.dot(w, (pol * shift).mean(axis=1))))


class TestTwoKernelOracle:
    GEOMETRIES = {
        "benchmark": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
        "unequal-defocused": CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, 0.3),
        "one-mirror": CavityGeometry(KR, THETA_30PCT, 0.0, 0.98, 0.0),
    }
    DIPOLES = {
        "parallel": DipoleOrientation.parallel(),
        "perpendicular": DipoleOrientation.perpendicular(),
        "isotropic": DipoleOrientation.isotropic(),
        "vector": DipoleOrientation.along((0.6, 0.0, 0.8)),
    }

    @pytest.mark.parametrize("dipole", DIPOLES)
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_fused_pass_matches_two_kernel_quadrature(self, geometry, dipole):
        geom, orientation = self.GEOMETRIES[geometry], self.DIPOLES[dipole]
        rng = np.random.default_rng(sorted(self.GEOMETRIES).index(geometry) * 4
                                    + sorted(self.DIPOLES).index(dipole))
        for n in range(6):
            # two of the six points on the axis, four anywhere with kr <= 40
            v = rng.normal(size=3) if n > 1 else np.array([0.0, 0.0, rng.choice((-1, 1))])
            point = FieldPoint(tuple(v * rng.uniform(0.0, 40.0) / np.linalg.norm(v)))
            phi0 = float(rng.uniform(-0.05, 0.05))
            got = response(point, orientation, geom, phi0)
            gamma, shift = _two_kernel_response(point, orientation, geom, phi0)
            assert abs(got.gamma_ratio - gamma) <= 1e-12 * abs(gamma)
            assert abs(got.shift_ratio - shift) <= 1e-12 * max(1.0, abs(shift))


class TestBlockedPass:
    def test_memory_is_bounded_at_large_orders(self, benchmark_geom):
        # 3072 polar rows x 1024 azimuths: about 3.1 million directions
        point = FieldPoint((30.0, 20.0, 33.0))
        tracemalloc.start()
        try:
            r = response(point, DipoleOrientation.along((0.6, 0.0, 0.8)), benchmark_geom,
                         0.01, polar_order=1024, azimuthal_order=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.detail["polar_nodes"] * r.detail["azimuthal_nodes"] > 3_000_000
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("orientation", [DipoleOrientation.perpendicular(),
                                             DipoleOrientation.along((0.6, 0.0, 0.8))])
    def test_result_does_not_depend_on_the_block_size(self, monkeypatch, orientation):
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, 0.3)
        point = FieldPoint((7.0, -3.0, 11.0))
        whole = response(point, orientation, geom, 0.02)
        # three polar rows per block
        monkeypatch.setattr(dipole_response, "_BLOCK_DIRECTIONS",
                            3 * whole.detail["azimuthal_nodes"] + 1)
        blocked = response(point, orientation, geom, 0.02)
        assert (blocked.gamma_ratio, blocked.shift_ratio) == (whole.gamma_ratio,
                                                              whole.shift_ratio)


class TestValidityWarning:
    def test_warning_names_the_callers_line(self, benchmark_geom):
        point = FieldPoint.axial(120.0)
        calls = {
            "response": lambda: response(point, DipoleOrientation.isotropic(),
                                         benchmark_geom, 0.0),
            "enhancement_ray": lambda: enhancement_ray(benchmark_geom, point, 0.0),
        }
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ValidityWarning)
                call()
            assert [w.filename for w in caught] == [__file__], name


class TestFreeSpaceAndAverages:
    def test_free_space_recovery(self):
        geom = CavityGeometry.symmetric(KR, 0.8, 0.0)
        rng = np.random.default_rng(2)
        for _ in range(3):
            point = FieldPoint(tuple(rng.uniform(-20, 20, 3)))
            r = response(point, DipoleOrientation.isotropic(), geom, float(rng.uniform(-1, 1)))
            assert r.gamma_ratio == pytest.approx(1.0, abs=1e-12)
            assert r.shift_ratio == pytest.approx(0.0, abs=1e-14)

    def test_frequency_average_of_damping(self, benchmark_geom):
        phis = math.pi * (np.arange(512) + 0.5) / 512
        for point in (FieldPoint.origin(), FieldPoint.axial(14.0)):
            vals = [response(point, DipoleOrientation.perpendicular(), benchmark_geom,
                             float(p)).gamma_ratio
                    for p in phis]
            assert abs(float(np.mean(vals)) - 1.0) < 1e-3


class TestCenterClosedForms:
    def test_isotropic_resonant_value(self):
        r = center_closed_forms(DipoleOrientation.isotropic(), THETA_30PCT, 0.98, 0.0)
        assert r.gamma_ratio == pytest.approx(0.7 + 0.3 * 99.0, rel=1e-12)
        assert r.shift_ratio == 0.0

    def test_orientation_average_identity(self):
        for phi0 in (0.0, 0.007, -0.02):
            par = center_closed_forms(DipoleOrientation.parallel(), THETA_30PCT, 0.98, phi0)
            perp = center_closed_forms(DipoleOrientation.perpendicular(), THETA_30PCT, 0.98, phi0)
            iso = center_closed_forms(DipoleOrientation.isotropic(), THETA_30PCT, 0.98, phi0)
            assert (par.gamma_ratio + 2 * perp.gamma_ratio) / 3 == pytest.approx(iso.gamma_ratio, rel=1e-14)
            assert (par.shift_ratio + 2 * perp.shift_ratio) / 3 == pytest.approx(iso.shift_ratio, rel=1e-14, abs=1e-16)

    def test_perpendicular_exceeds_thirty(self):
        r = center_closed_forms(DipoleOrientation.perpendicular(), THETA_30PCT, 0.98, 0.0)
        assert r.gamma_ratio > 30.0

    def test_free_space(self):
        r = center_closed_forms(DipoleOrientation.parallel(), THETA_30PCT, 0.0, 0.4)
        assert r.gamma_ratio == pytest.approx(1.0, rel=1e-14)
        assert r.shift_ratio == 0.0

    def test_matches_quadrature_at_center(self, benchmark_geom):
        for tag in ("parallel", "perpendicular", "isotropic"):
            o = DipoleOrientation(tag=tag)
            for phi0 in (0.0, 0.013):
                closed = center_closed_forms(o, THETA_30PCT, 0.98, phi0)
                quad = response(FieldPoint.origin(), o, benchmark_geom, phi0,
                                aberration=False, diffraction=False)
                assert quad.gamma_ratio == pytest.approx(closed.gamma_ratio, rel=1e-12)
                assert quad.shift_ratio == pytest.approx(closed.shift_ratio, rel=1e-12, abs=1e-15)

    def test_vector_orientation_rejected(self):
        with pytest.raises(ValueError):
            center_closed_forms(DipoleOrientation.along((1, 0, 0)), 0.7, 0.9, 0.0)


class TestShiftSymmetry:
    def test_center_shift_vanishes_at_resonance(self, benchmark_geom):
        for tag in ("parallel", "perpendicular", "isotropic"):
            s = response(FieldPoint.origin(), DipoleOrientation(tag=tag), benchmark_geom,
                         0.0).shift_ratio
            assert s == 0.0

    def test_center_shift_odd_in_detuning(self, benchmark_geom):
        for phi0 in (0.005, 0.02):
            plus = response(FieldPoint.origin(), DipoleOrientation.isotropic(), benchmark_geom,
                            phi0).shift_ratio
            minus = response(FieldPoint.origin(), DipoleOrientation.isotropic(), benchmark_geom,
                             -phi0).shift_ratio
            assert plus == -minus


class TestDispersionRelation:
    # mirror pairs: the unequal benchmark pair, a sharp pair, one mirror on
    # either side, and six pairs drawn from [0, 0.99]. The FFT conjugate on
    # N samples aliases at about (rho1 rho2)^(N/4), which at N = 4096 stays
    # below rounding for rho1 rho2 up to about 0.97.
    PAIRS = [(0.98, 0.9), (0.99, 0.95), (0.99, 0.0), (0.0, 0.99)] + [
        tuple(p) for p in np.random.default_rng(11).uniform(0.0, 0.99, (6, 2))]

    @pytest.mark.parametrize("rho1, rho2", PAIRS)
    def test_shift_kernel_is_half_the_conjugate_of_the_airy_factor(self, rho1, rho2):
        # the level shift is half the periodic conjugate (Hilbert transform)
        # of the damping in the one-way phase, ray by ray
        n = 4096
        phi = math.pi * np.arange(n) / n
        sign = np.sign(np.fft.fftfreq(n))
        for x in np.random.default_rng(12).uniform(-30.0, 30.0, 4):
            gamma = airy_resonance_factor(phi, x, rho1, rho2)
            conjugate = 0.5 * np.fft.ifft(-1j * sign * np.fft.fft(gamma))
            shift = shift_kernel(phi, x, rho1, rho2)
            assert np.max(np.abs(conjugate - shift)) < 1e-11


class TestOneMirror:
    def test_free_space(self):
        r = one_mirror_response(FieldPoint.axial(5.0), DipoleOrientation.perpendicular(),
                                0.0, 0.3, 0.6)
        assert r.gamma_ratio == pytest.approx(1.0, abs=1e-15)
        assert r.shift_ratio == pytest.approx(0.0, abs=1e-16)

    def test_small_cap_linear_expansion(self):
        # cap of fractional solid angle eps: modulation amplitudes
        # (3 eps rho / 2) for damping and (3 eps rho / 4) for the shift
        eps, rho, phi = 0.01, 0.8, 0.3
        theta_m = math.acos(1 - 2 * eps)
        for kz in (0.0, 0.4, 1.1):
            r = one_mirror_response(FieldPoint.axial(kz), DipoleOrientation.perpendicular(),
                                    rho, phi, theta_m)
            g_lin = 1 + 1.5 * eps * rho * math.cos(2 * (kz + phi))
            s_lin = 0.75 * eps * rho * math.sin(2 * (kz + phi))
            assert abs(r.gamma_ratio - g_lin) < 10 * eps**2
            assert abs(r.shift_ratio - s_lin) < 10 * eps**2

    def test_vector_character_enhances_by_three_halves(self):
        # perpendicular-dipole modulation exceeds the scalar (isotropic)
        # modulation by 3/2 in the small-cap limit
        eps, rho, phi = 0.01, 0.8, 0.3
        theta_m = math.acos(1 - 2 * eps)
        kzs = math.pi * np.arange(16) / 16

        def mod_coeff(tag):
            sig = np.array([
                one_mirror_response(FieldPoint.axial(float(kz)), DipoleOrientation(tag=tag),
                                    rho, phi, theta_m).gamma_ratio - 1.0
                for kz in kzs
            ])
            return 2.0 * float(np.mean(sig * np.cos(2 * (kzs + phi))))

        ratio = mod_coeff("perpendicular") / mod_coeff("isotropic")
        assert ratio == pytest.approx(1.5, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            one_mirror_response(FieldPoint.origin(), DipoleOrientation.isotropic(), 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            one_mirror_response(FieldPoint.origin(), DipoleOrientation.isotropic(), 0.5, 0.0, 0.0)
