import math

import numpy as np
import pytest

from cavityqed.airy_shift import (
    airy_lorentzian,
    pv_shift,
    pv_shift_cos,
    pv_shift_sin,
)
from cavityqed.quadrature import pv_integrate


def _refine(phi, period, with_trig):
    if with_trig:
        return [phi % period, (phi + math.pi) % period,
                (-phi) % period, (math.pi - phi) % period]
    return [phi % period, (-phi) % period]


class TestAiryLorentzian:
    def test_free_space(self):
        phis = np.linspace(-2, 2, 41)
        assert np.allclose(airy_lorentzian(phis, 0.0), 1.0, atol=0)

    def test_resonant_peak(self):
        # the peak sqrt(1 + F) is 99 for F = 4 rho/(1 - rho)^2 = 9800
        rho = 0.98
        assert airy_lorentzian(0.0, rho) == pytest.approx((1 + rho) / (1 - rho), rel=1e-13)
        assert airy_lorentzian(0.0, rho) == pytest.approx(99.0, rel=1e-12)

    def test_antiresonance(self):
        rho = 0.98
        assert airy_lorentzian(math.pi / 2, rho) == pytest.approx((1 - rho) / (1 + rho), rel=1e-12)

    def test_two_algebraic_forms_agree(self):
        phis = np.concatenate([np.linspace(-1.6, 1.6, 801), np.linspace(-1.5, 1.5, 301)])
        for rho in (0.1, 0.5, 0.9, 0.98):
            a = airy_lorentzian(phis, rho)
            b = (1 - rho**2) / np.abs(1 - rho * np.exp(2j * phis)) ** 2
            assert np.max(np.abs(a / b - 1.0)) < 1e-14

    def test_unit_average(self):
        phis = math.pi * (np.arange(4096) + 0.5) / 4096
        for rho in (0.5, 0.9):
            assert float(np.mean(airy_lorentzian(phis, rho))) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kernel", [airy_lorentzian, pv_shift, pv_shift_cos, pv_shift_sin])
@pytest.mark.parametrize("rho", [1.0, -0.1, 1.5])
def test_reflectivity_outside_the_unit_interval_rejected(kernel, rho):
    with pytest.raises(ValueError, match="reflectivity"):
        kernel(0.3, rho)


class TestShiftKernels:
    def test_zeros_of_pv_shift(self):
        assert pv_shift(0.0, 0.9) == 0.0
        assert abs(pv_shift(math.pi / 2, 0.9)) < 1e-15

    def test_special_values_cos_sin(self):
        assert pv_shift_cos(0.0, 0.5) == 0.0
        assert pv_shift_sin(0.0, 0.5) == pytest.approx(-math.pi, rel=1e-14)

    def test_no_cavity_limits(self):
        phis = np.linspace(-3, 3, 31)
        assert np.allclose(pv_shift(phis, 0.0), 0.0, atol=0)
        assert np.allclose(pv_shift_cos(phis, 0.0), math.pi * np.sin(phis), rtol=1e-14)
        assert np.allclose(pv_shift_sin(phis, 0.0), -math.pi * np.cos(phis), rtol=1e-14)

    def test_parity(self):
        phis = np.linspace(0.05, 1.5, 20)
        assert np.allclose(pv_shift(phis, 0.7), -pv_shift(-phis, 0.7), rtol=1e-13)
        assert np.allclose(pv_shift_cos(phis, 0.7), -pv_shift_cos(-phis, 0.7), rtol=1e-13)
        assert np.allclose(pv_shift_sin(phis, 0.7), pv_shift_sin(-phis, 0.7), rtol=1e-13)

    def test_periodicity(self):
        phis = np.linspace(-1.2, 1.2, 17)
        assert np.allclose(pv_shift(phis + math.pi, 0.8), pv_shift(phis, 0.8), rtol=1e-12)
        # the quadrature-weighted kernels flip sign over half a turn and
        # close only over a full one
        assert np.allclose(pv_shift_cos(phis + math.pi, 0.6), -pv_shift_cos(phis, 0.6), rtol=1e-12)
        assert np.allclose(pv_shift_sin(phis + math.pi, 0.6), -pv_shift_sin(phis, 0.6), rtol=1e-12)
        assert np.allclose(pv_shift_cos(phis + 2 * math.pi, 0.6), pv_shift_cos(phis, 0.6), rtol=1e-12)

    def test_matches_pv_oracle_spot_checks(self):
        for rho, phi in ((0.9, 0.1), (0.5, 0.6), (0.98, 0.015)):
            got = pv_integrate(lambda d: airy_lorentzian(phi - d, rho), period=math.pi,
                               refine_points=_refine(phi, math.pi, False)).value
            ref = float(pv_shift(phi, rho))
            assert abs(got - ref) / abs(ref) < 1e-6
        for rho_eff, phi in ((0.25, 0.2), (0.9, 0.4)):
            got = pv_integrate(
                lambda d: airy_lorentzian(phi - d, rho_eff) * np.cos(phi - d),
                period=2 * math.pi, refine_points=_refine(phi, 2 * math.pi, True)).value
            assert abs(got - float(pv_shift_cos(phi, rho_eff))) < 1e-6 * abs(pv_shift_cos(phi, rho_eff))
            got = pv_integrate(
                lambda d: airy_lorentzian(phi - d, rho_eff) * np.sin(phi - d),
                period=2 * math.pi, refine_points=_refine(phi, 2 * math.pi, True)).value
            assert abs(got - float(pv_shift_sin(phi, rho_eff))) < 1e-6 * abs(pv_shift_sin(phi, rho_eff))

    def test_extremum_sits_near_half_maximum_detuning(self):
        # the largest shift occurs where the resonance line has fallen to
        # roughly half its peak; exact location from a dense scan
        for rho in (0.5, 0.9, 0.98):
            phis = np.linspace(1e-4, math.pi / 2, 100001)
            i = int(np.argmax(np.abs(pv_shift(phis, rho))))
            level = airy_lorentzian(phis[i], rho) / airy_lorentzian(0.0, rho)
            assert 0.40 < level < 0.65
