import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqed.quadrature import polar_rule
from cavityqed.specfun import (
    SQRT_2_OVER_PI,
    _focused_input,
    _legendre,
    legendre_table,
    plane_wave_coeffs,
    radial_bessel_table,
)
from cavityqed.structures import CavityGeometry, FieldPoint, HarmonicBasis, TruncationWarning
from cavityqed.wave_ops import enhancement_full
from oracles import (
    asymptotic_radial_bessel,
    bessel_weights,
    block_energies,
    coefficient_blocks,
    scalar_legendre,
)

# High-precision oracle values, frozen from 40-digit arithmetic:
#   import mpmath as mp; mp.mp.dps = 40
#   mp.sqrt(2/mp.pi) * mp.sqrt(mp.pi/(2*x)) * mp.besselj(l + mp.mpf(1)/2, x)
ORACLE_VALUES = {
    (100, 50.0): 8.1305415186147170333e-23,
    (37, 200.0): 3.1345856381368516684e-3,
    (400, 350.0): 2.4187905693626039512e-11,
    (250, 1000.0): -7.2263438029912961842e-4,
}


def _numpy_radial_bessel_table(l_max, kr):
    """radial_bessel_table with its recurrences run on numpy float64
    elements: the reference the Python-float recurrences must equal bitwise."""
    from cavityqed.specfun import _RESCALE, _ratio_cf

    out = np.zeros(l_max + 1)
    x = float(kr)
    if x < 1e-8:
        out[0] = 1.0
        for l in range(1, l_max + 1):
            out[l] = out[l - 1] * x / (2 * l + 1)
        return SQRT_2_OVER_PI * out
    j0 = math.sin(x) / x
    if l_max == 0:
        out[0] = j0
        return SQRT_2_OVER_PI * out
    j1 = j0 / x - math.cos(x) / x
    if x > l_max:
        out[0], out[1] = j0, j1
        for l in range(1, l_max):
            out[l + 1] = (2 * l + 1) / x * out[l] - out[l - 1]
        return SQRT_2_OVER_PI * out
    ratio = _ratio_cf(l_max, x)
    out[l_max] = 1.0
    out[l_max - 1] = 1.0 / ratio if ratio != 0.0 else 1.0 / 1e-300
    for l in range(l_max - 1, 0, -1):
        out[l - 1] = (2 * l + 1) / x * out[l] - out[l + 1]
        if abs(out[l - 1]) > _RESCALE:
            out[l - 1 :] *= 1.0 / _RESCALE
    scale = j0 / out[0] if abs(j0) >= abs(j1) else j1 / out[1]
    out *= scale
    return SQRT_2_OVER_PI * out


class TestRadialBessel:
    @pytest.mark.parametrize("l_max,kr", [
        (0, 0.0), (0, 2.5), (5, 0.0), (150, 1e-9), (150, 1e-300),    # series, l_max 0
        (400, 0.0), (400, 5e-9),                                      # series to underflow
        (60, 100.0), (400, 1000.0), (1, 1.5),                         # upward
        (400, 25.0), (400, 100.0), (150, 17.0), (150, math.pi),       # downward; j0 = 0
        (2, 0.5), (1000, 0.01), (400, 1e-8),                          # 0, 19, 16 rescales
    ])
    def test_table_equals_numpy_recurrence_bitwise(self, l_max, kr):
        got = radial_bessel_table(l_max, kr)
        assert got.dtype == np.float64 and got.shape == (l_max + 1,)
        assert np.array_equal(got, _numpy_radial_bessel_table(l_max, kr))

    def test_l0_closed_form(self):
        for kr in (0.3, 1.0, 7.7, 153.2):
            assert radial_bessel_table(0, kr)[0] == pytest.approx(
                SQRT_2_OVER_PI * math.sin(kr) / kr, rel=1e-14
            )

    def test_origin_limit(self):
        tab = radial_bessel_table(5, 0.0)
        assert tab[0] == pytest.approx(SQRT_2_OVER_PI, rel=1e-15)
        assert np.all(tab[1:] == 0.0)

    @pytest.mark.parametrize("lkr,expected", sorted(ORACLE_VALUES.items()))
    def test_against_high_precision_oracle(self, lkr, expected):
        l, kr = lkr
        assert radial_bessel_table(l, kr)[l] == pytest.approx(expected, rel=1e-12)

    def test_table_consistent_with_scalar(self):
        # different l_max may pick a different (upward/downward) branch,
        # so agreement is to rounding, not bitwise
        tab = radial_bessel_table(60, 17.0)
        for l in (0, 3, 31, 60):
            assert tab[l] == pytest.approx(radial_bessel_table(l, 17.0)[l], rel=1e-13)

    def test_negative_kr_rejected(self):
        with pytest.raises(ValueError):
            radial_bessel_table(2, -1.0)

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError):
            radial_bessel_table(-1, 1.0)

    @pytest.mark.parametrize("kr", [1e-9, 1e-100, 1e-300, 1e-308])
    def test_tiny_argument_is_the_leading_series_term(self, kr):
        # the downward recurrence overflows here; x^l/(2l+1)!! is exact
        tab = radial_bessel_table(150, kr)
        assert np.all(np.isfinite(tab))
        assert tab[0] == SQRT_2_OVER_PI
        assert tab[1] == pytest.approx(SQRT_2_OVER_PI * kr / 3.0, rel=1e-15)
        f = plane_wave_coeffs(FieldPoint.axial(kr), 150)
        assert f.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_deep_evanescent_underflows_to_zero(self):
        # true value far below the double floor
        assert radial_bessel_table(300, 10.0)[300] == 0.0


class TestAsymptoticForm:
    def test_l0_is_exact(self):
        assert asymptotic_radial_bessel(0, 100.0) == pytest.approx(
            SQRT_2_OVER_PI * math.sin(100.0) / 100.0, abs=1e-300
        )

    def test_large_argument_agreement(self):
        a = asymptotic_radial_bessel(10, 1e5)
        b = radial_bessel_table(10, 1e5)[10]
        assert abs(a - b) / abs(b) < 1e-6

    def test_l100_regime_bound(self):
        a = asymptotic_radial_bessel(100, 1e4)
        b = radial_bessel_table(100, 1e4)[100]
        assert abs(a - b) / abs(b) < 1e-4

    def test_agreement_regime_kr_over_l_100(self):
        for l, kr in ((0, 100.0), (3, 300.0), (20, 2000.0), (40, 2e4), (55, 5500.0)):
            a = asymptotic_radial_bessel(l, kr)
            b = radial_bessel_table(l, kr)[l]
            assert abs(a - b) / abs(b) < 1e-4

    def test_nonpositive_kr_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_radial_bessel(3, 0.0)


class TestSumRules:
    @pytest.mark.parametrize("kr", [0.5, 1.0, 12.3, 20.0, 47.0, 100.0])
    def test_completeness(self, kr):
        total = float(np.sum(bessel_weights(int(kr) + 50, kr)))
        assert abs(total - 1.0) < 1e-8

    @pytest.mark.parametrize("kr", [0.5, 0.7, 4.4, 20.0, 21.0, 100.0])
    def test_even_odd_split(self, kr):
        weights = bessel_weights(int(kr) + 50, kr)
        even = float(np.sum(weights[::2]))
        odd = float(np.sum(weights[1::2]))
        s = math.sin(2 * kr) / (4 * kr)
        assert abs(even - (0.5 + s)) < 1e-8
        assert abs(odd - (0.5 - s)) < 1e-8

    def test_even_branch_sign_fixed_by_small_kr(self):
        # as kr -> 0 only l = 0 survives, so the even sum must carry +
        weights = bessel_weights(40, 1e-3)
        assert float(np.sum(weights[::2])) > 0.99


class TestSphericalHarmonics:
    # Y_lm = P_lm(cos theta) e^{i m phi} for m >= 0, with P_lm from
    # legendre_table, and Y_{l,-m} = (-1)^m conj(Y_lm), as plane_wave_coeffs
    # forms them
    def test_monopole_is_one(self):
        assert np.all(legendre_table(0, 0, np.cos([0.3, 2.2])) == 1.0)

    def test_dipole_value(self):
        th = np.array([0.0, 0.7, 2.1, math.pi])
        assert np.allclose(legendre_table(1, 0, np.cos(th))[:, 1],
                           math.sqrt(3.0) * np.cos(th), rtol=0, atol=1e-14)

    def test_unit_mean_square_y53(self):
        # |Y_53|^2 = P_53(mu)^2 does not depend on the azimuth
        grid = polar_rule([1.0], 32)
        p = legendre_table(5, 3, grid.mu)[:, 2]
        mean_sq = float(np.dot(grid.w_theta, p**2))
        assert abs(mean_sq - 1.0) < 1e-10

    @pytest.mark.parametrize("edge,order", [(0.8, 40), (0.9, 32)])
    def test_orthonormality_up_to_l20(self, edge, order):
        grid = polar_rule([edge], order)
        for m in (0, 1, 2, 3, 7):
            v = legendre_table(20, m, grid.mu)
            gram = v.T @ (grid.w_theta[:, None] * v)
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_against_scipy_normalization(self):
        # normalization and Condon-Shortley sign, and for m < 0 the
        # conjugation rule, against scipy's orthonormal harmonics
        from scipy.special import sph_harm_y

        rng = np.random.default_rng(3)
        for l, m in ((4, 0), (9, -5), (60, 13), (200, 199), (6, 4), (6, -4)):
            th = float(rng.uniform(0.1, math.pi - 0.1))
            ph = float(rng.uniform(0, 2 * math.pi))
            ref = complex(sph_harm_y(l, m, th, ph)) * math.sqrt(4 * math.pi)
            ma = abs(m)
            y = legendre_table(l, ma, [math.cos(th)])[0, l - ma] * np.exp(1j * ma * ph)
            if m < 0:
                y = (-1) ** ma * np.conj(y)
            assert y == pytest.approx(ref, rel=1e-10)

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            legendre_table(2, 3, [0.5])
        with pytest.raises(ValueError):
            legendre_table(2, -1, [0.5])


# the poles x = +-1, where u = 0, included
LEGENDRE_POINTS = np.array([-1.0, -0.999999, -0.7, 0.0, 1e-9, 0.31, 0.93, 1.0 - 1e-12, 1.0])


class TestLegendreRecurrence:
    @pytest.mark.parametrize("l_max, ms", [(0, None), (1, None), (2, None), (60, None),
                                           (150, None), (400, range(0, 401, 19)),
                                           (1000, (0, 1, 2, 499, 998, 999, 1000))])
    def test_table_equals_the_scalar_recurrence_bitwise(self, l_max, ms):
        for m in range(l_max + 1) if ms is None else ms:
            table = legendre_table(l_max, m, LEGENDRE_POINTS)
            assert table.shape == (LEGENDRE_POINTS.size, l_max - m + 1)
            for row, x in zip(table, LEGENDRE_POINTS):
                assert row.tobytes() == np.array(scalar_legendre(l_max, m, x)).tobytes()

    @pytest.mark.parametrize("l_max, m_lo, m_hi", [(0, 0, 0), (2, 0, 2), (40, 0, 40),
                                                   (40, 7, 19), (40, 33, 40)])
    def test_a_range_of_m_equals_each_m_bitwise(self, l_max, m_lo, m_hi):
        p = _legendre(l_max, m_lo, m_hi, LEGENDRE_POINTS)
        assert p.shape == (l_max - m_lo + 1, m_hi - m_lo + 1, LEGENDRE_POINTS.size)
        for m in range(m_lo, m_hi + 1):
            column = p[:, m - m_lo].T
            assert column[:, m - m_lo:].tobytes() == legendre_table(
                l_max, m, LEGENDRE_POINTS).tobytes()
            assert not np.any(column[:, : m - m_lo])

    @pytest.mark.parametrize("l_max", [0, 1, 2, 7, 150, 400])
    @pytest.mark.parametrize("x", [-1.0, -0.3, 0.0, 1e-9, 0.7, 1.0])
    def test_single_point_equals_the_batched_recurrence_bitwise(self, l_max, x):
        p = _legendre(l_max, 0, l_max, x)
        assert p.shape == (l_max + 1, l_max + 1)
        assert p.tobytes() == _legendre(l_max, 0, l_max, np.array([x]))[:, :, 0].tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=st.floats(-1.0, 1.0))
    def test_single_point_equals_the_batched_recurrence_anywhere(self, x):
        assert (_legendre(60, 0, 60, x).tobytes()
                == _legendre(60, 0, 60, np.array([x]))[:, :, 0].tobytes())


class TestPlaneWaveCoeffs:
    def test_origin_single_coefficient(self):
        f = plane_wave_coeffs(FieldPoint.origin(), 40)
        assert f.top == 0 and f.coeffs.shape == (2, 1, 41)
        assert f.coeffs[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(f.coeffs[0, 0, 1:])) == 0.0
        # the -0 plane of the m = 0 row is zero
        assert not np.any(f.coeffs[1])
        assert f.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_parseval_on_axis(self):
        f = plane_wave_coeffs(FieldPoint.axial(50.0), 300)
        assert abs(f.norm_sq() - 1.0) < 1e-8

    def test_parseval_off_axis(self):
        f = plane_wave_coeffs(FieldPoint((20.0, 10.0, 30.0)), 120)
        assert abs(f.norm_sq() - 1.0) < 1e-8

    def test_truncation_warning_when_lmax_too_small(self):
        with pytest.warns(TruncationWarning):
            plane_wave_coeffs(FieldPoint.axial(100.0), 100)

    def test_no_warning_with_margin(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            plane_wave_coeffs(FieldPoint.axial(50.0), 120)

    def test_off_axis_blocks_match_per_m_tables(self):
        # the per-m legendre_table loop the Legendre table replaced:
        # (-i)^l sqrt(pi/2) u_l P_lm e^{-+i m phi}, (-1)^m on the -m plane
        point = FieldPoint((4.0, -3.0, 2.0))
        l_max = 40
        f = plane_wave_coeffs(point, l_max)
        kx, ky, kz = point.kvec
        theta_r, phi_r = math.acos(kz / point.kr), math.atan2(ky, kx)
        ls = np.arange(l_max + 1)
        weights = math.sqrt(math.pi / 2) * radial_bessel_table(l_max, point.kr)
        blocks = coefficient_blocks(f)
        assert f.top == l_max and f.coeffs.shape == (2, l_max + 1, l_max + 1)
        assert set(blocks) == set(range(-l_max, l_max + 1))
        assert not np.any(f.coeffs[1, 0])
        for m in range(l_max + 1):
            c = (-1j) ** (ls[m:] % 4) * (legendre_table(l_max, m, [math.cos(theta_r)])[0]
                                          * weights[m:])
            assert np.array_equal(blocks[m], c * np.exp(-1j * m * phi_r))
            if m > 0:
                assert np.array_equal(blocks[-m], c * ((-1) ** m * np.exp(1j * m * phi_r)))
            assert not np.any(f.coeffs[:, m, :m])

    @pytest.mark.parametrize("kvec", [(0.0, 0.0, 12.0), (4.0, -3.0, 2.0)])
    def test_radial_table_built_once(self, kvec, monkeypatch):
        from cavityqed import specfun

        calls = []

        def spy(l_max, kr):
            calls.append((l_max, kr))
            return radial_bessel_table(l_max, kr)

        monkeypatch.setattr(specfun, "radial_bessel_table", spy)
        point = FieldPoint(kvec)
        f = plane_wave_coeffs(point, 40)
        assert calls == [(40, point.kr)]
        assert f.truncation_tail == float(np.sum(bessel_weights(40, point.kr)[36:]))

    @pytest.mark.parametrize("kvec", [(0.0, 0.0, 6.0), (0.0, 0.0, -40.0), (0.0, 0.0, 0.0),
                                      (4.0, -3.0, 2.0), (30.0, 20.0, -50.0)])
    @pytest.mark.parametrize("l_max", [0, 1, 40, 150])
    def test_m_energies_match_the_per_block_vdots(self, kvec, l_max):
        f = plane_wave_coeffs(FieldPoint(kvec), l_max, tail_tol=math.inf)
        energies = f.m_energies()
        ref = block_energies(f)
        assert energies.shape == ref.shape == (l_max + 1,)
        assert np.all(np.abs(energies - ref) <= 1e-15 * ref)
        assert f.norm_sq() == pytest.approx(float(np.sum(energies)), rel=1e-15)
        if f.top == 0:
            assert energies[0] > 0.0 and not np.any(energies[1:])

    @pytest.mark.parametrize("kvec", [(0.0, 0.0, 6.0), (0.0, 0.0, -40.0), (0.0, 0.0, 0.0),
                                      (4.0, -3.0, 2.0), (-7.0, 0.5, -3.0), (30.0, 20.0, -50.0)])
    @pytest.mark.parametrize("l_max", [0, 1, 40, 150])
    def test_coefficients_are_the_real_input_with_its_phases(self, kvec, l_max):
        # Y_{l,+-m} takes (-i)^l v[|m|, l] e^{-+i m phi}, v real and free of
        # the azimuth, exactly: plane_wave_coeffs is the complex view of v
        point = FieldPoint(kvec)
        f = plane_wave_coeffs(point, l_max, tail_tol=math.inf)
        v, tail, _ = _focused_input(point, l_max, tail_tol=math.inf)
        assert v.dtype == np.float64 and v.shape == f.coeffs.shape[1:]
        assert tail == f.truncation_tail
        ls = np.arange(l_max + 1)
        m = np.arange(f.top + 1)[:, None]
        turn = np.exp(-1j * m * math.atan2(kvec[1], kvec[0]))
        c = (-1j) ** (ls % 4) * v
        assert np.array_equal(f.coeffs[0], c * turn)
        assert np.array_equal(f.coeffs[1, 1:], (c * ((-1) ** m * np.conj(turn)))[1:])
        assert not np.any(f.coeffs[1, 0])

    @pytest.mark.parametrize("kvec", [(0.0, 0.0, 6.0), (0.0, 0.0, -40.0), (0.0, 0.0, 0.0),
                                      (4.0, -3.0, 2.0), (-7.0, 0.5, -3.0), (1e-11, 0.0, 12.0)])
    @pytest.mark.parametrize("l_max", [0, 1, 40, 150])
    def test_focused_input_has_one_row_per_magnitude(self, kvec, l_max):
        # row |m| is block |m| over l = 0..l_max, exactly zero for l < |m|;
        # on the axis the input has the row m = 0 alone
        point = FieldPoint(kvec)
        v, _, _ = _focused_input(point, l_max, tail_tol=math.inf)
        rows = 1 if point.on_axis else l_max + 1
        assert v.shape == (rows, l_max + 1) and v.flags.c_contiguous
        assert not np.any(np.tril(np.ones((rows, l_max + 1), dtype=bool), -1) & (v != 0.0))

    def test_off_axis_input_runs_the_recurrence_to_its_reach(self, monkeypatch):
        # at kr 5 the input energy beyond l ~ 30 can move a value of the
        # benchmark cavity (gain 1/(1 - 0.98)^2) by less than 1e-16 of the
        # input energy: one Legendre table up to there, and v zero above it
        from cavityqed import specfun

        calls = []

        def spy(l_max, m_lo, m_hi, x):
            calls.append((l_max, m_lo, m_hi, np.shape(x)))
            return _legendre(l_max, m_lo, m_hi, x)

        monkeypatch.setattr(specfun, "_legendre", spy)
        point, l_max, gain = FieldPoint((3.0, 0.0, 4.0)), 150, 1.0 / (1.0 - 0.98) ** 2
        v, _, cut = _focused_input(point, l_max, gain=gain)
        (reach, *rest), = calls
        assert rest == [0, reach, ()] and 20 < reach < 40
        whole, _, none = _focused_input(point, l_max)
        assert calls[1] == (l_max, 0, l_max, ()) and none == 0.0
        n = reach + 1
        assert v.shape == (n, l_max + 1) and whole.shape == (l_max + 1, l_max + 1)
        assert v[:n, :n].tobytes() == whole[:n, :n].tobytes()
        assert not np.any(v[:, n:]) and np.any(whole[:, n:])
        # the first l whose energy beyond, e_d, keeps gain (2 sqrt(e e_d) +
        # e_d) within the floor of the input energy e
        energy = bessel_weights(l_max, point.kr)
        total = float(np.sum(energy))

        def bound(l):
            beyond = float(np.sum(energy[l + 1:]))
            return gain * (2.0 * math.sqrt(total * beyond) + beyond)

        assert cut == pytest.approx(bound(reach), rel=1e-12)
        assert 0.0 < cut <= specfun._SKIP_FLOOR * total < bound(reach - 1)

    def test_truncation_warning_names_the_caller(self):
        for call in (lambda: plane_wave_coeffs(FieldPoint.axial(100.0), 100),
                     lambda: enhancement_full(CavityGeometry.symmetric(1e5, 0.5, 0.9),
                                              HarmonicBasis(100), FieldPoint.axial(100.0),
                                              0.0)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.filename for w in caught if w.category is TruncationWarning] == [__file__]

    def test_axis_matches_general_path(self):
        # the m = 0 fast path must agree with the generic expansion
        f_axis = plane_wave_coeffs(FieldPoint.axial(12.0), 60)
        f_gen = plane_wave_coeffs(FieldPoint((1e-11, 0.0, 12.0)), 60)
        assert np.allclose(f_axis.coeffs[0, 0], f_gen.coeffs[0, 0], rtol=0, atol=1e-10)
