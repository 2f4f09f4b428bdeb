import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from cavityqed import quadrature
from cavityqed.airy_shift import airy_lorentzian, pv_shift, pv_shift_cos
from cavityqed.cli import run_scenario
from cavityqed.presets import preset_config
from cavityqed.quadrature import (
    PVConvergenceError,
    _gauss_legendre,
    polar_rule,
    pv_integrate,
)
from cavityqed.ray_model import ray_integration_nodes
from cavityqed.structures import CavityGeometry


def _ray_nodes(geom, polar_order, azimuthal_order):
    """The product rule that the ray route integrates on, at the centre."""
    theta, w, phi, _, _ = ray_integration_nodes(geom, False, (polar_order, azimuthal_order))
    return theta[:, None], w, phi[None, :]


def _sphere_mean(w, values):
    return float(np.dot(w, values.mean(axis=1)))


class TestGrid:
    def test_weights_normalized(self):
        grid = polar_rule([math.pi / 4, 3 * math.pi / 4], 16)
        assert abs(float(np.sum(grid.w_theta)) - 1.0) < 1e-14

    def test_constant_integrates_to_one(self):
        th, w, ph = _ray_nodes(CavityGeometry.symmetric(1e5, math.pi / 4, 0.98), 16, 8)
        assert _sphere_mean(w, np.ones((th.size, ph.size))) == pytest.approx(1.0, abs=1e-14)

    def test_cos_squared_at_origin(self):
        th, w, ph = _ray_nodes(CavityGeometry(1e5, 0.9, 0.0, 0.98, 0.0), 12, 6)
        vals = np.cos(np.zeros((th.size, ph.size))) ** 2
        assert _sphere_mean(w, vals) == pytest.approx(1.0, abs=1e-14)

    def test_sphere_moments_up_to_degree_six(self):
        # the sphere average of x^a y^b z^c (a, b, c even) is
        # (a-1)!!(b-1)!!(c-1)!!/(a+b+c+1)!!, and every odd moment vanishes;
        # on unequal caps the polar rule has four edges, 48 nodes per
        # segment, and 24 azimuths, exact far beyond degree 6
        th, w, ph = _ray_nodes(CavityGeometry(1e5, 0.7, math.pi - 2.0, 0.98, 0.9), 24, 24)
        x, y, z = np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th) + 0 * ph

        def dfact(n):
            return math.prod(range(n, 0, -2))

        for a in range(7):
            for b in range(7 - a):
                for c in range(7 - a - b):
                    exact = 0.0
                    if a % 2 == b % 2 == c % 2 == 0:
                        exact = (dfact(a - 1) * dfact(b - 1) * dfact(c - 1)
                                 / dfact(a + b + c + 1))
                    got = _sphere_mean(w, x**a * y**b * z**c)
                    assert got == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("edges", [[0.6, 2.1], [0.6, 2.2]])
    def test_legendre_exactness(self, edges):
        grid = polar_rule(edges, order=16)
        for n in range(0, 14):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            got = float(np.dot(grid.w_theta, np.polynomial.legendre.legval(grid.mu, coeffs)))
            assert abs(got - (1.0 if n == 0 else 0.0)) < 1e-12

    def test_no_node_on_segment_boundary(self):
        edge = 0.9
        grid = polar_rule([edge], 16)
        assert np.min(np.abs(grid.theta - edge)) > 1e-6

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            polar_rule([0.5, 0.5], 8)

    def test_edges_outside_range_rejected(self):
        with pytest.raises(ValueError):
            polar_rule([0.0, 1.0], 8)

    def test_low_orders_rejected(self):
        with pytest.raises(ValueError):
            polar_rule([1.0], 1)


RULE_ORDERS = list(range(2, 61)) + [64, 151, 166, 416, 816, 1000]


class TestGaussLegendreRule:
    @pytest.mark.parametrize("order", RULE_ORDERS)
    def test_nodes_match_scipy(self, order):
        x, _ = _gauss_legendre(order)
        x_ref, _ = roots_legendre(order)
        assert np.max(np.abs(x - x_ref)) <= 1e-15

    @pytest.mark.parametrize("order", RULE_ORDERS)
    def test_weights_integrate_squared_legendre_polynomials(self, order):
        # sum w P_j^2 = 2/(2j+1) holds exactly for j <= n - 1 (degree 2n - 2)
        x, w = _gauss_legendre(order)
        p_prev, p = np.zeros_like(x), np.ones_like(x)
        for j in range(order):
            exact = 2.0 / (2 * j + 1)
            assert abs(float(np.dot(w, p * p)) - exact) <= 1e-13 * exact, j
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)

    def test_outermost_weight_matches_mpmath(self):
        # 40-digit Newton on the recurrence; mpmath.legendre loses digits here
        n = 416

        def legendre_and_derivative(t):
            p_prev, p = mpmath.mpf(1), t
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * t * p - k * p_prev) / (k + 1)
            return p, n * (p_prev - t * p) / (1 - t * t)

        x, w = _gauss_legendre(n)
        with mpmath.workdps(40):
            root = mpmath.mpf(x[-1])
            for _ in range(3):
                p, dp = legendre_and_derivative(root)
                root -= p / dp
            _, dp = legendre_and_derivative(root)
            weight = 2 / ((1 - root**2) * dp**2)
            assert abs(x[-1] - root) <= 2e-16
            assert abs(w[-1] - weight) <= 5e-12 * weight

    def test_rule_is_symmetric_and_normalized(self):
        for order in (7, 64, 151):
            x, w = _gauss_legendre(order)
            assert np.all(np.diff(x) > 0.0)
            assert np.array_equal(x, -x[::-1])
            assert np.array_equal(w, w[::-1])
            assert abs(float(np.sum(w)) - 2.0) <= 4e-16

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            polar_rule([1.0], 16.5)

    def test_cached_rule_is_read_only(self):
        x, w = _gauss_legendre(24)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_mutating_returned_arrays_leaves_later_calls_unchanged(self):
        grid = polar_rule([0.6, 2.1], order=20)
        ref_mu, ref_w = grid.mu.copy(), grid.w_theta.copy()
        grid.mu[:] = 0.0
        grid.w_theta[:] = 0.0
        again = polar_rule([0.6, 2.1], order=20)
        assert np.array_equal(again.mu, ref_mu)
        assert np.array_equal(again.w_theta, ref_w)

    def test_cache_holds_256_rules_and_drops_the_least_recently_used(self):
        _gauss_legendre.cache_clear()
        for n in range(2, 2 + 256 + 40):
            _gauss_legendre(n)
        assert _gauss_legendre.cache_info()[2:] == (256, 256)  # maxsize, currsize
        oldest = _gauss_legendre(42)  # the 40 first rules are gone
        assert _gauss_legendre(42) is oldest
        _gauss_legendre(1000)  # drops 43, now the least recently used
        hits, misses = _gauss_legendre.cache_info()[:2]
        for n in (42, 1000, 297):
            _gauss_legendre(n)
        assert _gauss_legendre.cache_info()[:2] == (hits + 3, misses)
        for n in (43, 41):
            _gauss_legendre(n)
        assert _gauss_legendre.cache_info()[:2] == (hits + 3, misses + 2)

    def test_axial_profile_builds_its_eight_ladder_rules(self, monkeypatch, tmp_path):
        # the preset's points, kz 0..100, need polar orders 64..168; on the
        # ladder of multiples of 16 that is 8 Gauss rules, each built once
        asked = set()
        original = quadrature._gauss_legendre

        def spy(order):
            asked.add(order)
            return original(order)

        monkeypatch.setattr(quadrature, "_gauss_legendre", spy)
        original.cache_clear()
        run_scenario(preset_config("axial-profile"), tmp_path)
        assert sorted(asked) == list(range(64, 177, 16))
        assert original.cache_info().misses == 8

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, cavityqed.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


def _shift_refine_points(phi, period, with_trig):
    if with_trig:
        return [phi % period, (phi + math.pi) % period,
                (-phi) % period, (math.pi - phi) % period]
    return [phi % period, (-phi) % period]


class TestPVIntegrate:
    def test_even_kernel_gives_zero(self):
        res = pv_integrate(lambda d: airy_lorentzian(d, 0.9), period=math.pi,
                           refine_points=[0.0])
        assert res.value == 0.0

    def test_matches_closed_form_shift(self):
        phi, rho = 0.1, 0.9
        res = pv_integrate(lambda d: airy_lorentzian(phi - d, rho), period=math.pi,
                           refine_points=_shift_refine_points(phi, math.pi, False))
        ref = float(pv_shift(phi, rho))
        assert abs(res.value - ref) / abs(ref) < 1e-6
        assert res.error < 1e-6 * abs(ref)

    def test_matches_closed_form_cos_weight(self):
        phi, rho_eff = 0.2, 0.25
        res = pv_integrate(
            lambda d: airy_lorentzian(phi - d, rho_eff) * np.cos(phi - d),
            period=2 * math.pi,
            refine_points=_shift_refine_points(phi, 2 * math.pi, True),
        )
        ref = float(pv_shift_cos(phi, rho_eff))
        assert abs(res.value - ref) / abs(ref) < 1e-6

    def test_antisymmetry_in_phase(self):
        rho = 0.8
        vals = []
        for phi in (0.37, -0.37):
            res = pv_integrate(lambda d: airy_lorentzian(phi - d, rho), period=math.pi,
                               refine_points=_shift_refine_points(phi, math.pi, False))
            vals.append(res.value)
        assert vals[0] == pytest.approx(-vals[1], rel=1e-9)

    def test_error_estimate_is_honest(self):
        phi, rho = 0.3, 0.5
        res = pv_integrate(lambda d: airy_lorentzian(phi - d, rho), period=math.pi,
                           refine_points=_shift_refine_points(phi, math.pi, False))
        ref = float(pv_shift(phi, rho))
        assert abs(res.value - ref) <= max(10 * res.error, 1e-11)

    def test_nonconvergence_raises(self):
        # a kernel that is not periodic breaks the precondition: the period
        # sums of kernel(d)/d = 1 grow without bound, and the extrapolated
        # estimate (about 33) keeps an error of about 2
        with pytest.raises(PVConvergenceError, match="after 2048 periods"):
            pv_integrate(lambda d: d)
