import math

import numpy as np
import pytest

from cavityqed.quadrature import build_grid
from cavityqed.specfun import plane_wave_coeffs
from cavityqed.structures import (
    CavityGeometry,
    FieldPoint,
    HarmonicBasis,
    SolverError,
    ValidityWarning,
)
from cavityqed.wave_ops import (
    build_operators,
    closed_cavity_mode_sum,
    enhancement_full,
    intracavity_field_coeffs,
    operator_grid,
    perfect_sphere_frequency,
    propagator_phases,
)

KR = 1.0e5
THETA_30PCT = math.acos(0.7)


@pytest.fixture(scope="module")
def benchmark_geom():
    return CavityGeometry.symmetric(KR, THETA_30PCT, 0.98)


@pytest.fixture(scope="module")
def small_ops(benchmark_geom):
    basis = HarmonicBasis(60)
    return build_operators(benchmark_geom, basis, m_values=(0, 1, 5))


class TestOperators:
    def test_propagator_unit_modulus(self):
        u = propagator_phases(np.arange(301), KR)
        assert np.max(np.abs(np.abs(u) - 1.0)) < 1e-15

    def test_parity_squares_to_identity(self, small_ops):
        b = small_ops.block(0)
        assert np.all(b.parity**2 == 1.0)

    def test_uniform_sphere_is_scalar_multiple_of_identity(self):
        geom = CavityGeometry.symmetric(KR, math.pi / 2, 0.9)
        ops = build_operators(geom, HarmonicBasis(25), m_values=(0, 3))
        for m in (0, 3):
            b = ops.block(m)
            assert np.max(np.abs(b.rho - 0.9 * np.eye(b.dim))) < 1e-12

    def test_monopole_element_of_step_profile(self):
        # 45-degree caps against the constant harmonic: rho * (1 - cos 45)
        geom = CavityGeometry.symmetric(KR, math.pi / 4, 0.98)
        ops = build_operators(geom, HarmonicBasis(40), m_values=(0,))
        got = ops.block(0).rho[0, 0]
        assert got == pytest.approx(0.98 * (1 - math.cos(math.pi / 4)), rel=1e-12)
        assert got == pytest.approx(0.287, abs=5e-4)

    def test_reflection_operator_hermitian_with_bounded_spectrum(self, small_ops):
        b = small_ops.block(0)
        assert np.max(np.abs(b.rho - b.rho.T.conj())) < 1e-12
        eigs = np.linalg.eigvalsh(b.rho.real)
        assert eigs.min() > -1e-10
        assert eigs.max() < 0.98 + 1e-10

    def test_defocus_breaks_hermiticity_but_keeps_norm_bound(self):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3)
        ops = build_operators(geom, HarmonicBasis(50), m_values=(0,))
        rho = ops.block(0).rho
        assert np.max(np.abs(rho - rho.T.conj())) > 1e-3
        assert np.linalg.svd(rho, compute_uv=False)[0] <= 0.98 + 1e-10

    def test_parity_commutes_for_symmetric_cavity(self, small_ops):
        b = small_ops.block(0)
        p = np.diag(b.parity)
        comm = p @ b.rho - b.rho @ p
        assert np.max(np.abs(comm)) < 1e-12

    def test_flux_identity_residual_small_on_adequate_grid(self, small_ops):
        assert small_ops.flux_residual < 1e-10

    def test_flux_identity_detects_insufficient_quadrature(self, benchmark_geom):
        basis = HarmonicBasis(100)
        coarse = build_grid([THETA_30PCT, math.pi - THETA_30PCT],
                            order_polar=24, order_azimuthal=2)
        ops = build_operators(benchmark_geom, basis, coarse, m_values=(0,))
        assert ops.flux_residual > 1e-3


class TestIntracavityField:
    def test_no_mirror_returns_input(self):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.0)
        basis = HarmonicBasis(80)
        ops = build_operators(geom, basis, m_values=(0,))
        f_in = plane_wave_coeffs(FieldPoint.axial(20.0), 80)
        g = intracavity_field_coeffs(ops, 0.13, f_in)
        assert np.max(np.abs(g.blocks[0] - f_in.blocks[0])) < 1e-12
        assert g.norm_sq() == pytest.approx(f_in.norm_sq(), rel=1e-13)

    def test_closed_sphere_recovers_per_mode_scalars(self):
        rho, phi0 = 0.9, 0.07
        geom = CavityGeometry.symmetric(KR, math.pi / 2, rho)
        basis = HarmonicBasis(30)
        ops = build_operators(geom, basis, m_values=(0, 2))
        for m in (0, 2):
            dim = basis.block_dim(m)
            for i, l in enumerate(basis.block_ls(m)):
                e = np.zeros(dim, dtype=complex)
                e[i] = 1.0
                from cavityqed.structures import AngularFunction
                g = intracavity_field_coeffs(ops, phi0, AngularFunction(30, {m: e}))
                u2 = np.exp(-1j * l * (l + 1) / KR)
                u1 = np.exp(-1j * l * (l + 1) / (2 * KR))
                scalar = u1 / (u2 - (-1.0) ** l * rho * np.exp(2j * phi0)) * u1
                # g = U x with x the resolvent solution of U^2 x = ... tau=sqrt(1-rho^2)
                tau = math.sqrt(1 - rho * rho)
                expected = tau * u1 * u1 / (u2 - (-1.0) ** l * rho * np.exp(2j * phi0))
                assert g.blocks[m][i] == pytest.approx(expected, rel=1e-11)
                others = np.delete(g.blocks[m], i)
                # rounding noise amplified by the resolvent condition ~1/(1-rho)
                assert np.max(np.abs(others)) < 1e-11

    def test_nan_solve_raises(self, small_ops):
        # a NaN residual must fail the solve guard, not pass it
        f_in = plane_wave_coeffs(FieldPoint.axial(3.0), 60)
        with pytest.raises(SolverError):
            intracavity_field_coeffs(small_ops, math.nan, f_in)


class TestEnhancementFull:
    def test_free_space_is_unity(self):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.0)
        basis = HarmonicBasis(70)
        for point in (FieldPoint.origin(), FieldPoint.axial(15.0)):
            r = enhancement_full(geom, basis, point, 0.2)
            assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_center_benchmark_value(self, benchmark_geom):
        basis = HarmonicBasis(150)
        r = enhancement_full(benchmark_geom, basis, FieldPoint.origin(), 0.0)
        assert r.value == pytest.approx(29.2, rel=0.02)

    def test_off_axis_equals_rotated_axis_point(self, benchmark_geom):
        # axial symmetry: a transverse point must match any azimuthal rotation
        basis = HarmonicBasis(60)
        ops = build_operators(benchmark_geom, basis, m_values=range(0, 61))
        a = enhancement_full(benchmark_geom, basis, FieldPoint((8.0, 0.0, 0.0)), 0.0, ops=ops)
        b = enhancement_full(benchmark_geom, basis, FieldPoint((8.0 / math.sqrt(2), 8.0 / math.sqrt(2), 0.0)), 0.0, ops=ops)
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_block_order_does_not_change_value(self, benchmark_geom):
        basis = HarmonicBasis(40)
        point = FieldPoint((5.0, 0.0, 3.0))
        ops_fwd = build_operators(benchmark_geom, basis, m_values=range(0, 41))
        ops_rev = build_operators(benchmark_geom, basis, m_values=list(range(40, -1, -1)))
        a = enhancement_full(benchmark_geom, basis, point, 0.01, ops=ops_fwd)
        b = enhancement_full(benchmark_geom, basis, point, 0.01, ops=ops_rev)
        assert a.value == b.value  # bitwise: fixed reduction order

    def test_frequency_average_redistributes_vacuum(self):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.9)
        basis = HarmonicBasis(48)
        ops = build_operators(geom, basis, m_values=(0,))
        point = FieldPoint.axial(10.0)
        phis = math.pi * (np.arange(160) + 0.5) / 160
        vals = [enhancement_full(geom, basis, point, float(p), ops=ops).value for p in phis]
        assert abs(float(np.mean(vals)) - 1.0) < 1e-2

    def test_validity_warning_near_truncation(self, benchmark_geom):
        import warnings

        basis = HarmonicBasis(60)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            enhancement_full(benchmark_geom, basis, FieldPoint.axial(45.0), 0.0)
        assert any(issubclass(w.category, ValidityWarning) for w in caught)

    def test_singular_resonance_raises(self):
        geom = CavityGeometry.symmetric(KR, math.pi / 2, 1.0)
        basis = HarmonicBasis(20)
        with pytest.raises((SolverError, np.linalg.LinAlgError)):
            enhancement_full(geom, basis, FieldPoint.origin(), 0.0)

    def test_underflowed_block_is_no_solver_error(self, benchmark_geom):
        # near the center the highest-m right-hand sides underflow into the
        # subnormal range; their residual relative to themselves is noise
        point = FieldPoint((0.2, 0.0, 0.1))
        coarse = enhancement_full(benchmark_geom, HarmonicBasis(100), point, 0.0).value
        fine = enhancement_full(benchmark_geom, HarmonicBasis(120), point, 0.0).value
        assert math.isfinite(fine)
        assert fine == pytest.approx(coarse, rel=1e-2)

    def test_non_finite_detuning_rejected(self, benchmark_geom):
        for phi0 in (math.nan, math.inf):
            with pytest.raises(ValueError):
                enhancement_full(benchmark_geom, HarmonicBasis(20), FieldPoint.origin(), phi0)

    def test_condition_estimate_collected_on_request(self, benchmark_geom):
        basis = HarmonicBasis(40)
        r = enhancement_full(benchmark_geom, basis, FieldPoint.origin(), 0.0,
                             collect_condition=True)
        assert r.condition is not None and r.condition > 1.0


class TestPerfectSphere:
    def test_l0_ladder(self):
        for n in (1, 2, 7):
            assert perfect_sphere_frequency(0, n, KR) == float(n)

    def test_l_shift_magnitude(self):
        # shift term l(l+1)/(2 pi kR); per unit l about 1.6e-4 at l = 100
        v = perfect_sphere_frequency(100, 1, KR)
        shift = (1 + 50) - v
        assert shift == pytest.approx(100 * 101 / (2 * math.pi * KR), rel=1e-12)
        assert shift / 100 == pytest.approx(1.6e-4, rel=0.05)

    def test_near_degeneracy_spacing(self):
        l, n = 30, 5
        gap = perfect_sphere_frequency(l, n, KR) - perfect_sphere_frequency(l + 2, n - 1, KR)
        assert gap == pytest.approx((4 * l + 6) / (2 * math.pi * KR), rel=1e-9)
        assert abs(gap) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            perfect_sphere_frequency(0, 0, KR)
        with pytest.raises(ValueError):
            perfect_sphere_frequency(-1, 1, KR)


class TestClosedCavityModeSum:
    def test_no_mirror_limit(self):
        v = closed_cavity_mode_sum(0.0, 12.0, k_radius=KR, detuning_phase=0.3, l_max=70)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_frequency_average_is_unity(self):
        phis = math.pi * (np.arange(2000) + 0.5) / 2000
        vals = [closed_cavity_mode_sum(0.9, 6.0, k_radius=KR, detuning_phase=float(p), l_max=60)
                for p in phis]
        assert abs(float(np.mean(vals)) - 1.0) < 1e-3

    def test_two_line_degenerate_form_at_small_kr(self):
        # with a huge sphere the l-dependence of the resonances is negligible
        # and the sum collapses onto two lines weighted 1/2 +- sin(2kr)/(4kr)
        rho, kr, phi0 = 0.9, 3.0, 0.11
        big_kr = 1.0e9
        got = closed_cavity_mode_sum(rho, kr, k_radius=big_kr, detuning_phase=phi0, l_max=60)
        t = 1 - rho * rho
        a_minus = t / abs(1 - rho * np.exp(2j * phi0)) ** 2
        a_plus = t / abs(1 + rho * np.exp(2j * phi0)) ** 2
        s = math.sin(2 * kr) / (4 * kr)
        expected = a_minus * (0.5 + s) + a_plus * (0.5 - s)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            closed_cavity_mode_sum(1.0, 1.0, k_radius=KR, detuning_phase=0.0, l_max=10)
