import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavityqed.dipole_response import enhancement_ray
from cavityqed.ray_model import (
    ApertureCollapseError,
    _auto_polar_order,
    _cap_masks,
    _ray_kernels,
    airy_resonance_factor,
    aberration_phase,
    cavity_linewidth,
    defocus_profile,
    effective_aperture,
    standing_wave_weights,
)
from cavityqed.structures import CavityGeometry, FieldPoint, ValidityWarning

KR = 1.0e5
THETA_30PCT = math.acos(0.7)


def _gamma_kernel_symmetric(phi, x, rho):
    """Equal-mirror damping kernel, the oracle of airy_resonance_factor:
    T cos^2(x)/|1 - rho e^{2i phi}|^2 + T sin^2(x)/|1 + rho e^{2i phi}|^2."""
    t = 1.0 - rho * rho
    cos2phi = np.cos(2.0 * phi)
    d_minus = 1.0 + rho * rho - 2.0 * rho * cos2phi
    d_plus = 1.0 + rho * rho + 2.0 * rho * cos2phi
    return t * np.cos(x) ** 2 / d_minus + t * np.sin(x) ** 2 / d_plus


@pytest.fixture(scope="module")
def benchmark_geom():
    return CavityGeometry.symmetric(KR, THETA_30PCT, 0.98)


class TestStandingWaveWeights:
    def test_partition_and_cross_term(self):
        xs = np.linspace(-40, 40, 400)
        c2, s2, cross = standing_wave_weights(xs)
        assert np.max(np.abs(c2 + s2 - 1.0)) < 1e-15
        assert np.max(np.abs(cross**2 - 4 * c2 * s2)) < 1e-12


class TestAiryResonanceFactor:
    def test_no_mirrors_gives_unity(self):
        rng = np.random.default_rng(0)
        phis = rng.uniform(-3, 3, 200)
        xs = rng.uniform(-30, 30, 200)
        m = airy_resonance_factor(phis, xs, 0.0, 0.0)
        assert np.max(np.abs(m - 1.0)) < 1e-15

    @pytest.mark.parametrize("seed,count,x_max", [(4, 5000, 60), (11, 4000, 50)])
    def test_nonnegative_everywhere(self, seed, count, x_max):
        rng = np.random.default_rng(seed)
        m = airy_resonance_factor(
            rng.uniform(-math.pi, math.pi, count),
            rng.uniform(-x_max, x_max, count),
            rng.uniform(0, 0.999, count),
            rng.uniform(0, 0.999, count),
        )
        assert np.all(m >= -1e-12)

    def test_symmetric_resonant_peak(self):
        rho = 0.98
        t = 1 - rho * rho
        m = airy_resonance_factor(0.0, 0.0, rho, rho)
        assert m == pytest.approx(t / (1 - rho) ** 2, rel=1e-12)
        assert m == pytest.approx(99.0, rel=1e-12)

    @pytest.mark.parametrize("seed,count,rho_max", [(9, 3000, 0.98), (12, 2000, 0.995)])
    def test_reduces_to_two_series_form(self, seed, count, rho_max):
        # deviation normalized to the kernel's own scale: resonant values
        # reach T/(1 - rho)^2
        rng = np.random.default_rng(seed)
        phis = rng.uniform(-math.pi, math.pi, count)
        xs = rng.uniform(-30, 30, count)
        rho = rng.uniform(0.0, rho_max, count)
        a = airy_resonance_factor(phis, xs, rho, rho)
        b = _gamma_kernel_symmetric(phis, xs, rho)
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) < 1e-12

    def test_cross_term_vanishes_for_equal_mirrors(self):
        phis = np.full(64, 0.31)
        xs = np.linspace(-3, 3, 64)
        m_fwd = airy_resonance_factor(phis, xs, 0.7, 0.7)
        m_bwd = airy_resonance_factor(phis, -xs, 0.7, 0.7)
        assert np.max(np.abs(m_fwd - m_bwd)) < 1e-14

    def test_one_mirror_limit(self):
        rng = np.random.default_rng(13)
        phis = rng.uniform(-2, 2, 500)
        xs = rng.uniform(-20, 20, 500)
        rho = 0.85
        m = airy_resonance_factor(phis, xs, rho, 0.0)
        expected = 1.0 + rho * np.cos(2.0 * (phis + xs))
        assert np.max(np.abs(m - expected)) < 1e-13

    @pytest.mark.parametrize("x,r1,r2", [(0.0, 0.98, 0.98), (5.3, 0.9, 0.4), (17.0, 0.6, 0.0),
                                         (0.0, 0.9, 0.9), (7.3, 0.98, 0.5), (22.0, 0.7, 0.0)])
    def test_frequency_average_is_unity_per_ray(self, x, r1, r2):
        phis = math.pi * (np.arange(8192) + 0.5) / 8192
        avg = float(np.mean(airy_resonance_factor(phis, x, r1, r2)))
        assert abs(avg - 1.0) < 1e-6

    def test_high_finesse_form_deviation_scales_as_tau_fourth(self):
        def high_finesse(phi, x, t1, t2):
            half = (t1 * t1 + t2 * t2) / 2
            den = np.abs(np.exp(4j * phi) - 1 + half) ** 2
            return 2 * (t1**2 * np.cos(phi - x) ** 2 + t2**2 * np.cos(phi + x) ** 2) / den

        rng = np.random.default_rng(5)
        phis = rng.uniform(0.3, 1.2, 300)
        xs = rng.uniform(-5, 5, 300)
        devs = []
        for tau in (0.2, 0.1, 0.05):
            r1 = math.sqrt(1 - tau**2)
            r2 = math.sqrt(1 - (0.7 * tau) ** 2)
            exact = airy_resonance_factor(phis, xs, r1, r2)
            approx = high_finesse(phis, xs, tau, 0.7 * tau)
            devs.append(float(np.max(np.abs(exact - approx))))
        for d_big, d_small in zip(devs, devs[1:]):
            assert 10.0 < d_big / d_small < 24.0

    def test_singular_configuration_raises(self):
        from cavityqed.ray_model import ResonanceSingularityError

        with pytest.raises(ResonanceSingularityError):
            airy_resonance_factor(0.0, 0.0, 1.0, 1.0)

    def test_reflectivity_validation(self):
        with pytest.raises(ValueError):
            airy_resonance_factor(0.1, 0.0, 1.2, 0.5)


class TestFusedKernels:
    def test_no_mirrors_give_exactly_one_and_zero(self):
        rng = np.random.default_rng(1)
        damping, shift = _ray_kernels(rng.uniform(-3, 3, 500), rng.uniform(-60, 60, 500),
                                      0.0, 0.0)
        assert np.all(damping == 1.0)
        assert np.all(shift == 0.0)

    @pytest.mark.parametrize("rho1, rho2", [(0.98, 0.98), (0.98, 0.9), (0.999, 0.999)])
    def test_match_a_forty_digit_evaluation_near_resonance(self, rho1, rho2):
        # phases within a few linewidths of a resonance, where the
        # cos(4 phi) form of the denominator cancels to (1 - rho1 rho2)^2
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(2)
        phis = rng.normal(0.0, 0.02, 200) + rng.integers(-3, 3, 200) * math.pi / 2
        xs = rng.uniform(-40.0, 40.0, 200)
        damping, shift = _ray_kernels(phis, xs, rho1, rho2)
        r1, r2 = mp.mpf(rho1), mp.mpf(rho2)
        rr = r1 * r2
        for phi, x, g, s in zip(phis, xs, damping, shift):
            phi, x = mp.mpf(phi), mp.mpf(x)
            denom = (1 - rr) ** 2 + 4 * rr * mp.sin(2 * phi) ** 2
            g_ref = ((1 - rr) * (1 + rr + (r1 + r2) * mp.cos(2 * phi) * mp.cos(2 * x))
                     + (1 + rr) * (r2 - r1) * mp.sin(2 * phi) * mp.sin(2 * x)) / denom
            s_ref = (rr * mp.sin(4 * phi) + (r1 + r2) * (1 + rr) / 2 * mp.sin(2 * phi)
                     * mp.cos(2 * x)
                     + (1 - rr) * (r1 - r2) / 2 * mp.cos(2 * phi) * mp.sin(2 * x)) / denom
            assert abs(g - float(g_ref)) <= 1e-13 * max(1.0, abs(float(g_ref)))
            assert abs(s - float(s_ref)) <= 1e-13 * max(1.0, abs(float(s_ref)))


class TestCapMasks:
    def test_edge_slop_and_absent_caps(self):
        # a node up to 1e-14 rad outside an edge is on the cap
        theta = np.array([0.0, 0.5, 0.5 + 5e-15, 0.5 + 1e-13, 1.5,
                          math.pi - 0.3 - 5e-15, math.pi - 0.3 - 1e-13, math.pi])
        on_0, on_pi = _cap_masks(theta, 0.5, 0.3)
        assert np.flatnonzero(on_0).tolist() == [0, 1, 2]
        assert np.flatnonzero(on_pi).tolist() == [5, 7]
        assert not any(mask.any() for mask in _cap_masks(theta, 0.0, 0.0))


class TestEffectiveAperture:
    def test_benchmark_correction_magnitude(self):
        rho = 0.98
        t = 1 - rho * rho
        theta_eff = effective_aperture(math.pi / 4, KR, rho, rho)
        d_theta = math.pi / 4 - theta_eff
        assert d_theta == pytest.approx(1.0 / math.sqrt(KR * t), rel=1e-12)
        assert d_theta == pytest.approx(0.0159, abs=2e-4)
        # first-order loss estimate stays near the benchmark value 1.2
        correction = d_theta * math.sin(math.pi / 4) * (t / (1 - rho) ** 2 - 1.0)
        assert correction == pytest.approx(1.2, rel=0.10)

    def test_asymmetric_uses_average_reflectivity(self):
        rho1, rho2 = 0.99, 0.93
        loss = 1 - ((rho1 + rho2) / 2) ** 2
        theta_eff = effective_aperture(0.8, KR, rho1, rho2)
        assert 0.8 - theta_eff == pytest.approx(1.0 / math.sqrt(KR * loss), rel=1e-12)

    def test_negligible_without_mirrors(self):
        theta_eff = effective_aperture(0.8, KR, 0.0, 0.0)
        assert 0.8 - theta_eff == pytest.approx(1.0 / math.sqrt(KR), rel=1e-12)

    def test_collapse_error(self):
        with pytest.raises(ApertureCollapseError):
            effective_aperture(0.01, 1e3, 0.98, 0.98)
        # a lossless pair has an unbounded correction
        with pytest.raises(ApertureCollapseError):
            effective_aperture(math.pi / 2, KR, 1.0, 1.0)


class TestDefocusProfile:
    def test_zero_defocus_is_real(self):
        assert defocus_profile(0.9, 0.0, 0.4) == pytest.approx(0.9, abs=0)

    def test_modulus_preserved(self):
        thetas = np.linspace(0, math.pi, 64)
        vals = defocus_profile(0.8, 0.37, thetas)
        assert np.max(np.abs(np.abs(vals) - 0.8)) < 1e-15

    def test_phase_value(self):
        v = defocus_profile(1.0, 0.3, 0.5)
        assert np.angle(v) == pytest.approx(2 * 0.3 * math.cos(0.5), rel=1e-12)

    def test_overunit_rejected(self):
        with pytest.raises(ValueError):
            defocus_profile(1.1, 0.0, 0.1)


class TestAberrationPhase:
    def test_zero_at_center_and_nonnegative(self):
        p = FieldPoint.axial(30.0)
        thetas = np.linspace(0, math.pi, 100)
        ab = aberration_phase(p, 30.0 * np.cos(thetas), KR)
        assert np.all(ab >= -1e-16)
        assert aberration_phase(FieldPoint.origin(), 0.0, KR) == 0.0

    def test_magnitude(self):
        # transverse ray through an axial point: full r^2/(2R)
        p = FieldPoint.axial(50.0)
        assert aberration_phase(p, 0.0, KR) == pytest.approx(2500.0 / (2 * KR), rel=1e-14)


class TestEnhancementRay:
    def test_center_naive_value(self, benchmark_geom):
        r = enhancement_ray(benchmark_geom, FieldPoint.origin(), 0.0, corrections=False)
        assert r.value == pytest.approx(30.4, rel=1e-10)
        assert r.method == "ray-naive"

    def test_center_corrected_value(self, benchmark_geom):
        r = enhancement_ray(benchmark_geom, FieldPoint.origin(), 0.0)
        expected = math.cos(THETA_30PCT - 1 / math.sqrt(KR * 0.0396)) * 1.0
        # closed form: vacuum part + resonant part over the shrunk caps
        te = THETA_30PCT - 1 / math.sqrt(KR * (1 - 0.98**2))
        expected = math.cos(te) + (1 - math.cos(te)) * (1 - 0.98**2) / (1 - 0.98) ** 2
        assert r.value == pytest.approx(expected, rel=1e-10)
        assert r.value == pytest.approx(29.2, rel=0.02)

    def test_no_mirrors_unity_everywhere(self):
        geom = CavityGeometry.symmetric(KR, 0.9, 0.0)
        for point in (FieldPoint.origin(), FieldPoint.axial(40.0), FieldPoint((8.0, 3.0, 1.0))):
            r = enhancement_ray(geom, point, 0.23)
            assert r.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta_m", [1e-9, 1e-300])
    def test_vanishing_aperture_is_free_space(self, theta_m):
        # a cap whose edge cosine rounds to 1 covers no solid angle
        geom = CavityGeometry.symmetric(KR, theta_m, 0.9)
        r = enhancement_ray(geom, FieldPoint((2.0, 1.0, 3.0)), 0.1, corrections=False)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_defocus_shifts_and_halves_resonance(self, benchmark_geom):
        geom_d = CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3)
        phis = np.linspace(-0.3, 0.1, 161)
        aligned = [enhancement_ray(benchmark_geom, FieldPoint.origin(), float(p)).value for p in phis]
        defocused = [enhancement_ray(geom_d, FieldPoint.origin(), float(p)).value for p in phis]
        i0, i1 = int(np.argmax(aligned)), int(np.argmax(defocused))
        assert abs(phis[i1] - phis[i0]) > 0.05  # resonance moved
        assert 0.35 < defocused[i1] / aligned[i0] < 0.65

    def test_validity_warning_beyond_kr100(self, benchmark_geom):
        with pytest.warns(ValidityWarning):
            enhancement_ray(benchmark_geom, FieldPoint.axial(140.0), 0.0)

    def test_off_axis_azimuthal_invariance(self, benchmark_geom):
        a = enhancement_ray(benchmark_geom, FieldPoint((6.0, 0.0, 2.0)), 0.0)
        b = enhancement_ray(benchmark_geom, FieldPoint((0.0, 6.0, 2.0)), 0.0)
        assert a.value == pytest.approx(b.value, rel=1e-12)


@given(kr=st.floats(0.0, 2040.0), base=st.none() | st.integers(2, 4096))
def test_polar_order_ladder_adds_less_than_16(kr, base):
    # the designed order is the larger of the floor and 48 + int(1.2 kr)
    designed = max(base or 64, 48 + int(1.2 * kr))
    order = _auto_polar_order(kr, base)
    assert designed <= order < designed + 16
    assert order == (base or 64) or order % 16 == 0


class TestCavityLinewidth:
    def test_benchmark_value(self):
        w = cavity_linewidth(0.98, 0.98)
        assert w == pytest.approx(2 * math.asin((1 - 0.98**2) / (2 * 0.98)), rel=1e-14)

    def test_open_limit(self):
        assert cavity_linewidth(0.0, 0.5) == math.pi
        assert cavity_linewidth(0.05, 0.05) == math.pi
