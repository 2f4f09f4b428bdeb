"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Benchmark cavity throughout: kR = 1e5, rho = 0.98 on both mirrors, caps
covering 30% of 4pi (half-aperture arccos(0.7)), resonance at phi0 = 0.
Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
passing runs).
"""

import math
import time

import numpy as np
import pytest

from cavityqed.airy_shift import airy_lorentzian, pv_shift, pv_shift_cos, pv_shift_sin
from cavityqed.dipole_response import enhancement_ray, one_mirror_response, response
from cavityqed.quadrature import pv_integrate
from cavityqed.specfun import bessel_weights
from cavityqed.structures import CavityGeometry, DipoleOrientation, FieldPoint, HarmonicBasis
from cavityqed.wave_ops import build_operators, closed_cavity_mode_sum, enhancement_full

KR = 1.0e5
RHO = 0.98
THETA_M = math.acos(0.7)  # two caps covering 30% of 4pi
T = 1.0 - RHO * RHO


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def geom():
    return CavityGeometry.symmetric(KR, THETA_M, RHO)


@pytest.fixture(scope="module")
def basis150():
    return HarmonicBasis(150)


@pytest.fixture(scope="module")
def ops150(geom, basis150):
    return build_operators(geom, basis150, m_values=(0,))


@pytest.fixture(scope="module")
def axial_profile(geom, basis150, ops150):
    """Full, corrected-ray and naive-ray on-axis profiles over kr in [0, 100]."""
    kzs = np.linspace(0.0, 100.0, 201)
    full = np.array([
        enhancement_full(geom, basis150, FieldPoint.axial(float(kz)), 0.0, ops=ops150).value
        for kz in kzs
    ])
    ray = np.array([
        enhancement_ray(geom, FieldPoint.axial(float(kz)), 0.0).value for kz in kzs
    ])
    naive = np.array([
        enhancement_ray(geom, FieldPoint.axial(float(kz)), 0.0,
                        aberration=False, diffraction=False).value
        for kz in kzs
    ])
    return kzs, full, ray, naive


def test_criterion_01_center_enhancement(geom, basis150, ops150):
    t0 = time.monotonic()
    full = enhancement_full(geom, basis150, FieldPoint.origin(), 0.0, ops=ops150).value
    elapsed = time.monotonic() - t0
    naive = enhancement_ray(geom, FieldPoint.origin(), 0.0,
                            aberration=False, diffraction=False).value
    corrected = enhancement_ray(geom, FieldPoint.origin(), 0.0).value
    correction = naive - corrected
    ok = (
        abs(full - 29.2) / 29.2 < 0.02
        and abs(naive - 30.4) / 30.4 < 0.02
        and abs(corrected - 29.2) / 29.2 < 0.02
        and abs(correction - 1.2) / 1.2 < 0.10
        and elapsed < 60.0
    )
    _report(1, "center enhancement", ok,
            f"full={full:.4f}, naive={naive:.4f}, corrected={corrected:.4f}, "
            f"correction={correction:.4f}, solve time {elapsed:.2f}s")


def test_criterion_02_rough_estimate(geom, basis150, ops150):
    full = enhancement_full(geom, basis150, FieldPoint.origin(), 0.0, ops=ops150).value
    rough = 4.0 / T * 0.3
    ok = abs(full - rough) / rough < 0.15
    _report(2, "rough-estimate consistency", ok,
            f"full={full:.3f} vs 4/T x coverage = {rough:.3f}, "
            f"deviation {abs(full - rough) / rough:.1%}")


def test_criterion_03_off_center_halving(axial_profile):
    kzs, full, _, _ = axial_profile
    center = full[0]
    plateau = float(np.mean(full[(kzs >= 30.0) & (kzs <= 60.0)]))
    ratio = plateau / center
    windows = [(30.0, 47.5), (47.5, 65.0), (65.0, 82.5), (82.5, 100.0)]
    maxima = [float(np.max(full[(kzs >= a) & (kzs <= b)])) for a, b in windows]
    monotone = all(a > b for a, b in zip(maxima, maxima[1:]))
    ok = abs(ratio - 0.5) <= 0.15 and monotone
    _report(3, "off-center halving and decay", ok,
            f"plateau/center = {ratio:.3f}, window maxima "
            + " > ".join(f"{m:.2f}" for m in maxima))


def test_criterion_04_ray_vs_full_agreement(axial_profile):
    kzs, full, ray, naive = axial_profile
    rel = np.abs(full - ray) / full
    max_dev = float(np.max(rel))
    rel_naive = np.abs(full - naive) / full
    bins = [(0.0, 30.0), (30.0, 65.0), (65.0, 100.0)]
    means = [float(np.mean(rel_naive[(kzs >= a) & (kzs <= b)])) for a, b in bins]
    growing = means[0] < means[1] < means[2]
    ok = max_dev < 0.05 and growing
    _report(4, "ray-vs-full agreement", ok,
            f"max |full-ray|/full = {max_dev:.2%}; naive deviation by range "
            + " -> ".join(f"{m:.1%}" for m in means))


def _refine(phi, period, with_trig):
    if with_trig:
        return [phi % period, (phi + math.pi) % period,
                (-phi) % period, (math.pi - phi) % period]
    return [phi % period, (-phi) % period]


def test_criterion_05_pv_oracle_equivalence():
    t0 = time.monotonic()
    rhos = (0.1, 0.5, 0.9, 0.98)
    half = np.linspace(0.05, 1.35, 16)
    phis = np.concatenate([half, -half])
    worst = 0.0
    for rho in rhos:
        for phi in phis:
            phi = float(phi)
            got = pv_integrate(lambda d: airy_lorentzian(phi - d, rho),
                               period=math.pi,
                               refine_points=_refine(phi, math.pi, False)).value
            worst = max(worst, abs(got - float(pv_shift(phi, rho))) / abs(float(pv_shift(phi, rho))))
            got = pv_integrate(lambda d: airy_lorentzian(phi - d, rho) * np.cos(phi - d),
                               period=2 * math.pi,
                               refine_points=_refine(phi, 2 * math.pi, True)).value
            ref = float(pv_shift_cos(phi, rho))
            worst = max(worst, abs(got - ref) / abs(ref))
            got = pv_integrate(lambda d: airy_lorentzian(phi - d, rho) * np.sin(phi - d),
                               period=2 * math.pi,
                               refine_points=_refine(phi, 2 * math.pi, True)).value
            ref = float(pv_shift_sin(phi, rho))
            worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5
    _report(5, "dispersive closed forms vs quadrature oracle", ok,
            f"max relative error {worst:.2e} over {len(rhos)} reflectivities x "
            f"{phis.size} phases in {elapsed:.1f}s")


def test_criterion_06_sum_rules(geom):
    devs = []
    for kr in (1.0, 5.7, 20.0, 63.2, 100.0):
        weights = bessel_weights(int(kr) + 50, kr)
        devs.append(abs(float(np.sum(weights)) - 1.0))
        even = float(np.sum(weights[::2]))
        devs.append(abs(even - (0.5 + math.sin(2 * kr) / (4 * kr))))
    sum_rule_dev = max(devs)

    phis = math.pi * (np.arange(512) + 0.5) / 512
    ray_devs = []
    for kz in (0.0, 3.7, 11.0, 26.0, 55.0):
        point = FieldPoint.axial(kz)
        vals = [enhancement_ray(geom, point, float(p)).value for p in phis]
        ray_devs.append(abs(float(np.mean(vals)) - 1.0))
    ray_dev = max(ray_devs)

    phis2 = math.pi * (np.arange(2048) + 0.5) / 2048
    mode_devs = []
    for kr in (0.5, 2.0, 6.0, 12.0, 20.0):
        vals = [closed_cavity_mode_sum(RHO, kr, k_radius=KR, detuning_phase=float(p), l_max=80)
                for p in phis2]
        mode_devs.append(abs(float(np.mean(vals)) - 1.0))
    mode_dev = max(mode_devs)

    ok = sum_rule_dev < 1e-8 and ray_dev < 1e-3 and mode_dev < 1e-3
    _report(6, "sum rules and spectral averages", ok,
            f"completeness/split {sum_rule_dev:.2e} (tol 1e-8); ray spectral "
            f"average {ray_dev:.2e}, mode-sum average {mode_dev:.2e} (tol 1e-3)")


def test_criterion_07_orientation_identities(geom):
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(20):
        if i % 2 == 0:
            point = FieldPoint.axial(float(rng.uniform(0.0, 35.0)))
        else:
            v = rng.uniform(-12.0, 12.0, size=3)
            point = FieldPoint(tuple(v))
        phi0 = float(rng.uniform(-0.05, 0.05))
        res = {tag: response(point, DipoleOrientation(tag=tag), geom, phi0)
               for tag in ("parallel", "perpendicular", "isotropic")}
        g = (res["parallel"].gamma_ratio + 2 * res["perpendicular"].gamma_ratio) / 3
        s = (res["parallel"].shift_ratio + 2 * res["perpendicular"].shift_ratio) / 3
        worst = max(worst, abs(g - res["isotropic"].gamma_ratio),
                    abs(s - res["isotropic"].shift_ratio))
    zero = response(FieldPoint.origin(), DipoleOrientation.isotropic(), geom, 0.0).shift_ratio
    ok = worst < 1e-8 and zero == 0.0
    _report(7, "orientation identities", ok,
            f"max |(par + 2 perp)/3 - iso| = {worst:.2e} over 20 samples; "
            f"shift(center, resonance) = {zero}")


def test_criterion_08_defocus_study(geom):
    geom_d = CavityGeometry.symmetric(KR, THETA_M, RHO, k_delta=0.3)
    phis = np.linspace(-0.30, 0.06, 181)
    step = phis[1] - phis[0]
    aligned = np.array([enhancement_ray(geom, FieldPoint.origin(), float(p)).value
                        for p in phis])
    defocused = np.array([enhancement_ray(geom_d, FieldPoint.origin(), float(p)).value
                          for p in phis])
    i0, i1 = int(np.argmax(aligned)), int(np.argmax(defocused))
    shift = phis[i1] - phis[i0]
    ratio = defocused[i1] / aligned[i0]
    ok = abs(shift) > 3 * step and abs(ratio - 0.5) <= 0.15
    _report(8, "defocus resonance shift and halving", ok,
            f"peak moved by {shift:+.4f} rad, re-centered peak ratio {ratio:.3f}")


def test_criterion_09_truncation_stability(geom):
    values = {}
    for l_max in (100, 300):
        basis = HarmonicBasis(l_max)
        values[l_max] = enhancement_full(geom, basis, FieldPoint.origin(), 0.0).value
    change = abs(values[300] - values[100]) / values[100]
    ok = change < 0.01
    _report(9, "truncation stability", ok,
            f"l_max 100 -> 300: {values[100]:.4f} -> {values[300]:.4f}, "
            f"change {change:.3%} (tol 1%)")


def test_criterion_10_small_angle_one_mirror():
    rho, phi = 0.8, 0.3
    kzs = math.pi * np.arange(16) / 16

    def signals(eps, tag):
        theta_m = math.acos(1 - 2 * eps)
        return np.array([
            one_mirror_response(FieldPoint.axial(float(kz)), DipoleOrientation(tag=tag),
                                rho, phi, theta_m).gamma_ratio - 1.0
            for kz in kzs
        ])

    def residual(eps):
        sig = signals(eps, "perpendicular")
        lin = 1.5 * eps * rho * np.cos(2 * (kzs + phi))
        return float(np.max(np.abs(sig - lin)))

    r1, r2 = residual(0.01), residual(0.02)
    scaling_ok = r1 < 10 * 0.01**2 and (r2 / r1) < 5.5

    def cos_coeff(eps, tag):
        return 2.0 * float(np.mean(signals(eps, tag) * np.cos(2 * (kzs + phi))))

    ratio = cos_coeff(0.01, "perpendicular") / cos_coeff(0.01, "isotropic")
    ratio_ok = abs(ratio - 1.5) < 0.02
    ok = scaling_ok and ratio_ok
    _report(10, "small-aperture single-mirror limit", ok,
            f"linear-term residual {r1:.2e} at eps=0.01 (quadratic growth x{r2 / r1:.2f}); "
            f"transverse/scalar modulation ratio {ratio:.4f} (expect 1.5)")
