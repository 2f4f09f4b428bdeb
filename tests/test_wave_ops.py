import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqed.dipole_response import enhancement_ray
from cavityqed.quadrature import polar_rule
from cavityqed.specfun import _focused_input, _phases, legendre_table, plane_wave_coeffs
from cavityqed.structures import (
    CavityGeometry,
    FieldPoint,
    HarmonicBasis,
    SolverError,
    TruncationWarning,
    ValidityWarning,
)
from cavityqed import wave_ops
from cavityqed.wave_ops import (
    _MODAL_AFTER,
    _build_blocks,
    _segments,
    CavityOperatorSet,
    _solve_block,
    build_operators,
    enhancement_full,
    mirror_profiles,
    operator_grid,
    propagator_phases,
)
from oracles import (
    closed_cavity_mode_sum,
    coefficient_blocks,
    full_rule_segments,
    intracavity_field_coeffs,
    transmission_operator,
)

KR = 1.0e5
THETA_30PCT = math.acos(0.7)


def _dense(block, parts="rho"):
    """The dense dim x dim matrix of a block with parts[i] on its parity
    sector i and zeros between sectors; a string names the sector operator,
    "rho" or "tau_sq", whose per-sector matrices are the parts."""
    if isinstance(parts, str):
        parts = [getattr(s, parts) for s in block.sectors]
    out = np.zeros((block.dim, block.dim), dtype=np.result_type(*parts))
    for sector, part in zip(block.sectors, parts):
        out[sector.index, sector.index] = part
    return out


def _dense_resolvent(b, phi0, rho=None):
    """The whole block's resolvent diag(u^2) - e^{2i phi0} P rho, unsplit,
    with the block's own rho unless another is given."""
    rho = _dense(b) if rho is None else rho
    return np.diag(b.u_half**2) - np.exp(2j * phi0) * (b.parity[:, None] * rho)


def _all_blocks_value(ops, point, phi0, dense=False):
    """The enhancement with every listed m block solved on its own: the
    reference that enhancement_full may depart from only by its skipped
    bound.

    Each parity sector of a block is solved as one system of its stored
    operators, and its tau^2 form taken as enhancement_full does: the +m
    column (-i)^l v of the real input v (_focused_input) once, doubled for a
    +-m pair, so that only the skip separates the two. Near a lossless
    resonance the form cancels, and a different solve or summation order
    alone, or the unit phase e^{-i m phi} of plane_wave_coeffs' column,
    moves the value by a few 1e-14. dense=True solves every block as one
    unsplit system instead."""
    l_max = ops.basis.l_max
    v, _, _ = _focused_input(point, l_max)
    per_m = []
    for m in range(1 if point.on_axis else l_max + 1):
        b = ops.block(m)
        c = (-1j) ** (b.ls % 4) * v[m, m:]
        if dense:
            x = np.linalg.solve(_dense_resolvent(b, phi0), b.u_half * c)
            value = float(np.real(np.conj(x) @ (_dense(b, "tau_sq") @ x)))
        else:
            value = 0.0
            for s in b.sectors:
                a = np.diag(b.u_half[s.index] ** 2) - np.exp(2j * phi0) * (
                    b.parity[s.index, None] * s.rho)
                x = np.linalg.solve(a, (b.u_half * c)[s.index])
                value += float(x.real @ (s.tau_sq @ x.real) + x.imag @ (s.tau_sq @ x.imag))
        per_m.append(2.0 * value if m else value)
    return float(np.sum(per_m))


def _direct_operators(geom, l_max, grid, m):
    """rho, tau, tau^2 and the flux residual of block m as direct weighted
    products over every polar node, v^T diag(f w) v: the reference for the
    segment-Gram assembly."""
    rho_vals, tau_sq_vals = mirror_profiles(geom, grid.theta)
    v = legendre_table(l_max, m, grid.mu)
    wv = grid.w_theta[:, None] * v

    def product(f):
        return v.T @ (f[:, None] * wv)

    ident = product(np.abs(rho_vals) ** 2 + tau_sq_vals) - np.eye(v.shape[1])
    return (product(rho_vals), product(np.sqrt(tau_sq_vals)), product(tau_sq_vals),
            float(np.max(np.abs(ident))))


def _block_on(geom, basis, grid, m):
    """Block m of the cavity built on the given polar grid."""
    return _build_blocks(geom, basis, _segments(geom, grid), (m,))[m]


def _unsplit_grid(l_max):
    """A hand-built grid split at 1.2 rad, away from both mirror edges of
    the unequal cavity."""
    return polar_rule([1.2], l_max + 30)


@pytest.fixture(scope="module")
def benchmark_geom():
    return CavityGeometry.symmetric(KR, THETA_30PCT, 0.98)


@pytest.fixture(scope="module")
def small_ops(benchmark_geom):
    basis = HarmonicBasis(60)
    return build_operators(benchmark_geom, basis, m_values=(0, 1, 3, 5))


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
            assert np.max(np.abs(_dense(b) - 0.9 * np.eye(b.dim))) < 1e-12

    def test_monopole_element_of_step_profile(self):
        # 45-degree caps against the constant harmonic: rho * (1 - cos 45)
        geom = CavityGeometry.symmetric(KR, math.pi / 4, 0.98)
        ops = build_operators(geom, HarmonicBasis(40), m_values=(0,))
        got = _dense(ops.block(0))[0, 0]
        assert got == pytest.approx(0.98 * (1 - math.cos(math.pi / 4)), rel=1e-12)
        assert got == pytest.approx(0.287, abs=5e-4)

    def test_reflection_operator_hermitian_with_bounded_spectrum(self, small_ops):
        b = small_ops.block(0)
        assert np.max(np.abs(_dense(b) - _dense(b).T.conj())) < 1e-12
        eigs = np.linalg.eigvalsh(_dense(b).real)
        assert eigs.min() > -1e-10
        assert eigs.max() < 0.98 + 1e-10

    def test_defocus_breaks_hermiticity_but_keeps_norm_bound(self):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3)
        ops = build_operators(geom, HarmonicBasis(50), m_values=(0,))
        rho = _dense(ops.block(0))
        assert np.max(np.abs(rho - rho.T.conj())) > 1e-3
        assert np.linalg.svd(rho, compute_uv=False)[0] <= 0.98 + 1e-10

    def test_parity_commutes_for_symmetric_cavity(self, small_ops):
        b = small_ops.block(0)
        p = np.diag(b.parity)
        comm = p @ _dense(b) - _dense(b) @ p
        assert np.max(np.abs(comm)) < 1e-12

    def test_flux_identity_residual_small_on_adequate_grid(self, small_ops):
        assert small_ops.flux_residual < 1e-10

    def test_set_flux_residual_is_the_largest_of_its_blocks(self, benchmark_geom):
        # kept as blocks are added, by build_operators and by block()
        ops = build_operators(benchmark_geom, HarmonicBasis(60), m_values=(40,))
        assert ops.flux_residual == ops.block(40).flux_residual
        for m in (0, 7, 60):
            ops.block(m)
            assert ops.flux_residual == max(b.flux_residual for b in ops.blocks.values())
        assert CavityOperatorSet(geometry=benchmark_geom,
                                 basis=HarmonicBasis(60)).flux_residual == 0.0

    def test_flux_identity_detects_insufficient_quadrature(self, benchmark_geom):
        basis = HarmonicBasis(100)
        coarse = polar_rule([THETA_30PCT, math.pi - THETA_30PCT], 24)
        assert _block_on(benchmark_geom, basis, coarse, 0).flux_residual > 1e-3


class TestSegmentAssembly:
    L_MAX = 60

    @pytest.mark.parametrize("split", [True, False], ids=["operator-grid", "unsplit-grid"])
    @pytest.mark.parametrize("m", [0, 3, 40])
    @pytest.mark.parametrize("k_delta", [0.0, 0.3])
    def test_matches_direct_weighted_products(self, k_delta, m, split):
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, k_delta=k_delta)
        basis = HarmonicBasis(self.L_MAX)
        grid = operator_grid(geom, self.L_MAX) if split else _unsplit_grid(self.L_MAX)
        b = _block_on(geom, basis, grid, m)
        rho, tau, tau_sq, flux = _direct_operators(geom, self.L_MAX, grid, m)
        assert np.max(np.abs(_dense(b) - rho)) < 1e-13
        assert np.max(np.abs(_dense(b, "tau_sq") - tau_sq)) < 1e-13
        assert abs(b.flux_residual - flux) < 1e-13
        assert np.max(np.abs(transmission_operator(geom, grid, self.L_MAX, b) - tau)) < 1e-13
        assert _dense(b).dtype == (np.float64 if k_delta == 0.0 else np.complex128)

    def test_blocks_store_one_real_rho_and_tau_sq(self, benchmark_geom):
        # per block at most a real rho and tau^2 on each parity sector of the
        # mirror-symmetric cavity (2 * 8 bytes times ceil(dim/2)^2 +
        # floor(dim/2)^2) plus the O(dim) diagonals; a stored tau, a complex
        # rho or a dense block breaks the bound
        ops = build_operators(benchmark_geom, HarmonicBasis(150))
        assert len(ops.blocks) == 151
        stored = bound = 0
        for b in ops.blocks.values():
            fields = [getattr(b, f.name) for f in dataclasses.fields(b)]
            fields += [getattr(s, f.name) for s in b.sectors for f in dataclasses.fields(s)]
            stored += sum(v.nbytes for v in fields if isinstance(v, np.ndarray))
            bound += 2 * 8 * (((b.dim + 1) // 2) ** 2 + (b.dim // 2) ** 2) + 64 * b.dim
        assert stored <= bound


CHUNK_CAVITIES = {
    "benchmark": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
    "unequal": CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9),
    "defocused": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3),
}
CHUNK_M_VALUES = (None, (0,), (0, 2, 3, 7, 8, 9, 40), (-3, -2, 5, -1, 59), (4, 4, -4, 1, 0, 1))
CHUNK_CASES = [(cavity, l_max, ms) for cavity in CHUNK_CAVITIES for l_max in (0, 1, 60, 150)
               for ms in CHUNK_M_VALUES
               if ms is None or (l_max >= 60 and max(map(abs, ms)) <= l_max) or ms == (0,)]


class TestChunkedAssembly:
    """build_operators builds the blocks of each chunk of consecutive |m|
    from one Legendre table; every bit equals the block built alone."""

    @pytest.mark.parametrize("cavity,l_max,m_values", CHUNK_CASES)
    def test_chunk_built_blocks_equal_blocks_built_alone(self, cavity, l_max, m_values):
        geom, basis = CHUNK_CAVITIES[cavity], HarmonicBasis(l_max)
        chunked = build_operators(geom, basis, m_values=m_values)
        expected = range(l_max + 1) if m_values is None else {abs(m) for m in m_values}
        assert sorted(chunked.blocks) == sorted(expected)
        alone = CavityOperatorSet(geometry=geom, basis=basis)
        for m, b in chunked.blocks.items():
            ref = alone.block(-m if m % 2 else m)
            assert b.flux_residual == ref.flux_residual
            assert np.array_equal(b.ls, ref.ls) and b.u_half.tobytes() == ref.u_half.tobytes()
            for s, r in zip(b.sectors, ref.sectors, strict=True):
                assert s.index == r.index
                assert s.rho.dtype == r.rho.dtype and s.rho.tobytes() == r.rho.tobytes()
                assert s.tau_sq.tobytes() == r.tau_sq.tobytes()

    def test_m_above_l_max_raises_as_before(self, benchmark_geom):
        with pytest.raises(ValueError, match=r"^l_max=60 smaller than m=61$"):
            build_operators(benchmark_geom, HarmonicBasis(60), m_values=(0, -61, 70))
        with pytest.raises(ValueError, match=r"^l_max=60 smaller than m=61$"):
            CavityOperatorSet(geometry=benchmark_geom, basis=HarmonicBasis(60)).block(-61)

    def test_one_legendre_recurrence_per_chunk(self, monkeypatch, benchmark_geom):
        calls = []
        original = wave_ops._legendre

        def spy(l_max, m_lo, m_hi, x):
            calls.append((m_lo, m_hi))
            return original(l_max, m_lo, m_hi, x)

        monkeypatch.setattr(wave_ops, "_legendre", spy)
        ops = build_operators(benchmark_geom, HarmonicBasis(150))
        # the recurrence runs on the folded half of the mirror-symmetric rule
        n_nodes = ops.segments.mu.size
        n_bytes = 8 * n_nodes

        def table_bytes(lo, hi):
            return (151 - lo) * (hi - lo + 1) * n_bytes

        assert calls == wave_ops._legendre_chunks(150, n_nodes, range(151))
        assert [m for lo, hi in calls for m in range(lo, hi + 1)] == list(range(151))
        # each table within the cap, and a chunk ends only where one more m
        # would exceed it: the cap alone sets the call count
        assert all(table_bytes(lo, hi) <= wave_ops._LEGENDRE_CHUNK for lo, hi in calls)
        assert all(table_bytes(lo, hi + 1) > wave_ops._LEGENDRE_CHUNK for lo, hi in calls[:-1])
        assert len(calls) <= 30


class TestMirrorFold:
    """A cavity with two parity sectors assembles its blocks on the half of
    its mirrored rule from the middle up, at doubled weights; every other
    cavity on the whole rule."""

    FULL_RULE = {
        "unequal": CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9),
        "unequal-aperture": CavityGeometry(KR, 0.795, 0.6, 0.98, 0.98),
        "one-mirror": CavityGeometry(KR, 0.795, 0.0, 0.98, 0.0),
        "defocused": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3),
    }

    @pytest.mark.parametrize("l_max,nodes", [(150, 498), (151, 501)], ids=["even", "odd"])
    def test_folded_operators_match_direct_products(self, benchmark_geom, l_max, nodes):
        # order 166 per segment, or 167 with the centre node at weight 1.
        # rho of m = 0 at l_max 151 is 1.3e-14 off the direct products on
        # the whole rule as well, hence its 2e-14
        ms = (0, 1, 2, 75, l_max - 1, l_max)
        ops = build_operators(benchmark_geom, HarmonicBasis(l_max), m_values=ms)
        assert ops.grid.mu.size == nodes and ops.segments.mu.size == nodes - nodes // 2
        weights = np.concatenate([w[:, 0] for _, w, _ in ops.segments.parts])
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        # the middle panel's upper half starts at the middle node, doubled
        # unless it is its own mirror
        middle = ops.segments.parts[-1][1][0, 0]
        assert middle == ops.grid.w_theta[nodes // 2] * (1.0 if nodes % 2 else 2.0)
        for m in ms:
            b = ops.block(m)
            rho, _, tau_sq, flux = _direct_operators(benchmark_geom, l_max, ops.grid, m)
            assert np.max(np.abs(_dense(b) - rho)) < 2e-14
            assert np.max(np.abs(_dense(b, "tau_sq") - tau_sq)) < 1e-14
            assert abs(b.flux_residual - flux) < 1e-14

    def test_symmetric_recurrence_runs_on_half_the_nodes(self, benchmark_geom, monkeypatch):
        nodes = []
        original = wave_ops._legendre

        def spy(l_max, m_lo, m_hi, x):
            nodes.append(x)
            return original(l_max, m_lo, m_hi, x)

        monkeypatch.setattr(wave_ops, "_legendre", spy)
        ops = build_operators(benchmark_geom, HarmonicBasis(150))
        assert nodes and all(np.array_equal(x, ops.grid.mu[249:]) for x in nodes)

    @pytest.mark.parametrize("cavity", sorted(FULL_RULE))
    def test_other_cavities_are_assembled_on_the_whole_rule(self, cavity):
        geom, basis = self.FULL_RULE[cavity], HarmonicBasis(60)
        ops = build_operators(geom, basis)
        assert np.array_equal(ops.segments.mu, ops.grid.mu)
        ref = _build_blocks(geom, basis, full_rule_segments(geom, ops.grid), range(61))
        for m, b in ops.blocks.items():
            assert b.flux_residual == ref[m].flux_residual
            for s, r in zip(b.sectors, ref[m].sectors, strict=True):
                assert s.rho.dtype == r.rho.dtype and s.rho.tobytes() == r.rho.tobytes()
                assert s.tau_sq.tobytes() == r.tau_sq.tobytes()


class TestParitySectors:
    L_MAX = 60
    PHASES = math.pi * (np.arange(24) - 12) / 24

    def test_mirror_symmetric_blocks_split_in_two(self, benchmark_geom):
        ops = build_operators(benchmark_geom, HarmonicBasis(self.L_MAX),
                              m_values=(0, 1, 59, 60))
        for m in (0, 1, 59):
            b = ops.block(m)
            assert [s.index for s in b.sectors] == [slice(0, None, 2), slice(1, None, 2)]
            assert [s.rho.shape for s in b.sectors] == [
                ((b.dim + 1) // 2,) * 2, (b.dim // 2,) * 2]
        # the dim-1 block keeps its one l
        assert [s.index for s in ops.block(60).sectors] == [slice(None)]

    @pytest.mark.parametrize("geom", [
        CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9),
        CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, k_delta=0.3),
        CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3),
        CavityGeometry(KR, THETA_30PCT, THETA_30PCT, 0.98, 0.9),
        CavityGeometry(KR, 0.795, 0.6, 0.98, 0.98),
    ], ids=["unequal", "unequal-defocus", "defocus", "unequal-rho", "unequal-aperture"])
    def test_other_cavities_keep_one_sector(self, geom):
        ops = build_operators(geom, HarmonicBasis(20), m_values=(0, 5))
        for m in (0, 5):
            b = ops.block(m)
            assert [s.index for s in b.sectors] == [slice(None)]
            assert b.sectors[0].rho.shape == (b.dim, b.dim)

    @pytest.mark.parametrize("m", [0, 3, 40])
    def test_dense_operators_match_direct_products(self, benchmark_geom, m):
        ops = build_operators(benchmark_geom, HarmonicBasis(self.L_MAX), m_values=(m,))
        b = ops.block(m)
        rho, tau, tau_sq, flux = _direct_operators(benchmark_geom, self.L_MAX, ops.grid, m)
        assert np.max(np.abs(_dense(b) - rho)) < 1e-13
        assert np.max(np.abs(_dense(b, "tau_sq") - tau_sq)) < 1e-13
        assert abs(b.flux_residual - flux) < 1e-13
        tau_ops = transmission_operator(benchmark_geom, ops.grid, self.L_MAX, b)
        assert np.max(np.abs(_dense(b, tau_ops) - tau)) < 1e-13
        assert _dense(b).dtype == np.float64

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("m", [0, 1, 40, 60])
    def test_sector_answers_match_unsplit_solve(self, benchmark_geom, m, columns):
        # the oracle is the unsplit operator of direct weighted products,
        # whose opposite-parity entries are rounding, not exact zeros
        ops = build_operators(benchmark_geom, HarmonicBasis(self.L_MAX), m_values=(m,))
        block = ops.block(m)
        rho = _direct_operators(benchmark_geom, self.L_MAX, ops.grid, m)[0]
        rng = np.random.default_rng(11)
        shape = (block.dim, columns)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def check(modal):
            for phi0 in self.PHASES:
                x, _, modes = _solve_block(ops, m, np.exp(2j * phi0), rhs, 1.0)
                assert (modes is not None) == modal
                ref = np.linalg.solve(_dense_resolvent(block, float(phi0), rho), rhs)
                assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))

        check(modal=False)
        for phi0 in np.linspace(0.1, 0.2, _MODAL_AFTER - 1 - self.PHASES.size):
            _solve_block(ops, m, np.exp(2j * phi0), rhs, 1.0)
        check(modal=True)

    @pytest.mark.parametrize("rho", [0.98, 0.999])
    @pytest.mark.parametrize("kvec", [(5.0, 0.0, 3.0), (12.0, -4.0, 6.0), (2.0, 2.0, -8.0)])
    def test_value_matches_unsplit_dense_solve(self, rho, kvec):
        # the split changes only the order of the arithmetic: at rho 0.999
        # (resolvent condition about 2e3) the split and the unsplit value
        # are each off by 1e-14 to 3e-14 from a 34-digit evaluation of the
        # same operators
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, rho)
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(geom, basis)
        point = FieldPoint(kvec)
        r = enhancement_full(geom, basis, point, 0.0, ops=ops)
        ref = _all_blocks_value(ops, point, 0.0, dense=True)
        assert abs(r.value - ref) <= r.detail["skipped_bound"] + 1e-13 * ref

    def test_condition_estimate_is_the_whole_blocks(self, benchmark_geom):
        basis = HarmonicBasis(40)
        ops = build_operators(benchmark_geom, basis, m_values=(0,))
        r = enhancement_full(benchmark_geom, basis, FieldPoint.origin(), 0.0, ops=ops,
                             collect_condition=True)
        dense = np.linalg.cond(_dense_resolvent(ops.block(0), 0.0))
        assert r.condition == pytest.approx(dense, rel=1e-10)


class TestIntracavityField:
    def test_no_mirror_returns_input(self):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.0)
        basis = HarmonicBasis(80)
        ops = build_operators(geom, basis, m_values=(0,))
        f_in = plane_wave_coeffs(FieldPoint.axial(20.0), 80)
        g = intracavity_field_coeffs(ops, 0.13, coefficient_blocks(f_in))
        assert np.max(np.abs(g[0] - f_in.coeffs[0, 0])) < 1e-12
        assert np.vdot(g[0], g[0]).real == pytest.approx(f_in.norm_sq(), rel=1e-13)

    @pytest.mark.parametrize("phi0", [0.05, 0.07])
    def test_closed_sphere_recovers_per_mode_scalars(self, phi0):
        rho = 0.9
        geom = CavityGeometry.symmetric(KR, math.pi / 2, rho)
        basis = HarmonicBasis(30)
        ops = build_operators(geom, basis, m_values=(0, 2))
        for m in (0, 2):
            dim = basis.block_ls(m).size
            for i, l in enumerate(basis.block_ls(m)):
                e = np.zeros(dim, dtype=complex)
                e[i] = 1.0
                g = intracavity_field_coeffs(ops, phi0, {m: e})
                u2 = np.exp(-1j * l * (l + 1) / KR)
                u1 = np.exp(-1j * l * (l + 1) / (2 * KR))
                scalar = u1 / (u2 - (-1.0) ** l * rho * np.exp(2j * phi0)) * u1
                # g = U x with x the resolvent solution of U^2 x = ... tau=sqrt(1-rho^2)
                tau = math.sqrt(1 - rho * rho)
                expected = tau * u1 * u1 / (u2 - (-1.0) ** l * rho * np.exp(2j * phi0))
                assert g[m][i] == pytest.approx(expected, rel=1e-11)
                others = np.delete(g[m], i)
                # rounding noise amplified by the resolvent condition ~1/(1-rho)
                assert np.max(np.abs(others)) < 1e-11

    def test_nan_solve_raises(self, small_ops):
        # a NaN residual must fail the solve guard, not pass it
        f_in = plane_wave_coeffs(FieldPoint.axial(3.0), 60)
        with pytest.raises(SolverError):
            intracavity_field_coeffs(small_ops, math.nan, coefficient_blocks(f_in))


class TestEnhancementFull:
    def test_free_space_is_unity(self):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.0)
        basis = HarmonicBasis(70)
        for point in (FieldPoint.origin(), FieldPoint.axial(15.0),
                      FieldPoint((6.0, 2.0, -3.0)), FieldPoint((30.0, 0.0, 5.0))):
            r = enhancement_full(geom, basis, point, 0.2)
            assert r.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta_m", [1e-9, 1e-300])
    def test_vanishing_aperture_is_free_space(self, theta_m):
        # a cap whose edge cosine rounds to 1 covers no solid angle
        geom = CavityGeometry.symmetric(KR, theta_m, 0.9)
        r = enhancement_full(geom, HarmonicBasis(40), FieldPoint((2.0, 1.0, 3.0)), 0.1)
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

    @pytest.mark.parametrize("geom", [
        CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
        CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, k_delta=0.3),
    ], ids=["benchmark", "unequal-defocused"])
    def test_rotation_about_the_axis_keeps_every_bit(self, geom):
        # points of one kr = 13 and kz = 12 at eight azimuths: the input is
        # real and free of the azimuth, so the direct solves and the form
        # answers of a scan give one value each, bit for bit
        basis = HarmonicBasis(60)
        points = [FieldPoint(k) for k in [(3.0, 4.0, 12.0), (5.0, 0.0, 12.0), (-4.0, 3.0, 12.0),
                                          (0.0, 5.0, 12.0), (-3.0, -4.0, 12.0), (4.0, -3.0, 12.0),
                                          (0.0, -5.0, 12.0), (-5.0, 0.0, 12.0)]]
        assert {p.kr for p in points} == {13.0}
        direct = {enhancement_full(geom, basis, p, 0.01).value for p in points}
        assert len(direct) == 1
        ops = build_operators(geom, basis)
        scan = [enhancement_full(geom, basis, p, 0.01, ops=ops) for p in points]
        assert [r.detail["form_solves"] > 0 for r in scan] == [False] * 2 + [True] * 6
        assert {r.value for r in scan[:2]} == direct
        assert len({r.value for r in scan[2:]}) == 1
        assert abs(scan[-1].value - direct.pop()) <= 1e-13 * scan[-1].value

    def test_block_order_does_not_change_value(self, benchmark_geom):
        basis = HarmonicBasis(40)
        point = FieldPoint((5.0, 0.0, 3.0))
        ops_fwd = build_operators(benchmark_geom, basis, m_values=range(0, 41))
        ops_rev = build_operators(benchmark_geom, basis, m_values=list(range(40, -1, -1)))
        a = enhancement_full(benchmark_geom, basis, point, 0.01, ops=ops_fwd)
        b = enhancement_full(benchmark_geom, basis, point, 0.01, ops=ops_rev)
        assert a.value == b.value  # bitwise: fixed reduction order

    @pytest.mark.parametrize("l_max,kz,count", [(48, 10.0, 160), (40, 8.0, 128)])
    def test_frequency_average_redistributes_vacuum(self, l_max, kz, count):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.9)
        basis = HarmonicBasis(l_max)
        ops = build_operators(geom, basis, m_values=(0,))
        point = FieldPoint.axial(kz)
        phis = math.pi * (np.arange(count) + 0.5) / count
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

    @pytest.mark.parametrize("l_max", [10, 20, 40, 150])
    def test_lossless_resonance_raises_at_any_l_max(self, l_max):
        # whether the quadrature rounds the l = 0 entry of the closed sphere
        # to exactly 1 must not decide between an error and a value of 0
        geom = CavityGeometry.symmetric(KR, math.pi / 2, 1.0)
        with pytest.raises(SolverError, match="singular to working precision"):
            enhancement_full(geom, HarmonicBasis(l_max), FieldPoint.origin(), 0.0)

    @pytest.mark.parametrize("theta_m", [1.0, 1.2])
    @pytest.mark.parametrize("l_max", [10, 20, 40, 150])
    def test_lossless_open_cavity_stays_finite(self, theta_m, l_max):
        geom = CavityGeometry.symmetric(KR, theta_m, 1.0)
        r = enhancement_full(geom, HarmonicBasis(l_max), FieldPoint.origin(), 0.0)
        assert math.isfinite(r.value) and r.value > 1.0

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

    def test_operator_set_of_another_cavity_or_basis_rejected(self, benchmark_geom):
        # a set built for rho 0.98 once answered for a rho 0.90 cavity with
        # 16.78 instead of 3.88, and one of l_max 60 under a basis of l_max 80
        # failed inside numpy on mismatched shapes
        basis, point = HarmonicBasis(60), FieldPoint((3.0, 1.0, 2.0))
        ops = build_operators(benchmark_geom, basis)
        lossier = dataclasses.replace(benchmark_geom, rho1=0.9, rho2=0.9)
        for geom, other in ((lossier, basis), (benchmark_geom, HarmonicBasis(80))):
            with pytest.raises(ValueError, match="operator set built for"):
                enhancement_full(geom, other, point, 0.0, ops=ops)
        assert not ops.forms and not ops.solve_counts
        own = enhancement_full(lossier, basis, point, 0.0)
        assert own.value == pytest.approx(3.884563331532815, rel=1e-12)
        assert enhancement_full(benchmark_geom, basis, point, 0.0, ops=ops).value == \
            enhancement_full(benchmark_geom, basis, point, 0.0).value

    def test_condition_estimate_collected_on_request(self, benchmark_geom):
        basis = HarmonicBasis(40)
        r = enhancement_full(benchmark_geom, basis, FieldPoint.origin(), 0.0,
                             collect_condition=True)
        assert r.condition is not None and r.condition > 1.0


def test_defocused_cavity_routes_agree_off_the_centre():
    # the ray route moves mirror 2's defocus phase into the standing wave
    # as the operator route does; with the opposite sign the routes
    # disagreed by 59% at kz = 5, phi0 = -0.13 (their values at kz = +5 and
    # -5 swapped), and now by at most 6.9% over these points and phases
    geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3)
    basis = HarmonicBasis(100)
    ops = build_operators(geom, basis, m_values=())
    worst = 0.0
    for kvec in ((0.0, 0.0, 5.0), (0.0, 0.0, -5.0), (0.0, 0.0, 12.0), (0.0, 0.0, -12.0),
                 (4.0, 0.0, 3.0)):
        for phi0 in (0.0, -0.13, -0.3):
            point = FieldPoint(kvec)
            full = enhancement_full(geom, basis, point, phi0, ops=ops).value
            ray = enhancement_ray(geom, point, phi0).value
            worst = max(worst, abs(full - ray) / full)
    assert worst < 0.1


# Worst abs(full - ray) / full over the centre, kz = +5, -5 and 12, (4, 0, 3)
# and (10, 0, 0) at l_max 150, kR 1e5, per detuning phase 0, +0.01 and -0.01,
# as measured with these points and the default ray orders (the worst of
# the benchmark cavity at phi0 = -0.01 is kz = -5: full 5.3665, ray 4.7475).
# Each envelope is 1.2 times its measurement: on resonance every family
# agrees within 1%, on the red side the benchmark cavity and the unequal
# apertures by 11-12%.
_ROUTE_AGREEMENT = {
    "symmetric-0.98": (CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
                       (0.003233, 0.033853, 0.115348)),
    "symmetric-0.5": (CavityGeometry.symmetric(KR, THETA_30PCT, 0.5),
                      (0.001671, 0.001626, 0.001716)),
    "rho-0.98/0.9": (CavityGeometry(KR, THETA_30PCT, THETA_30PCT, 0.98, 0.9),
                     (0.001556, 0.031146, 0.037858)),
    "apertures-0.795/0.6": (CavityGeometry(KR, THETA_30PCT, 0.6, 0.98, 0.98),
                            (0.009293, 0.029034, 0.121202)),
    "rho-and-apertures": (CavityGeometry(KR, THETA_30PCT, 0.6, 0.98, 0.9),
                          (0.009032, 0.017147, 0.037695)),
    "one-mirror": (CavityGeometry(KR, THETA_30PCT, 0.0, 0.98, 0.0),
                   (0.001848, 0.008358, 0.008316)),
    "defocus-0.3": (CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3),
                    (0.009654, 0.007870, 0.011612)),
}


@pytest.mark.parametrize("family", sorted(_ROUTE_AGREEMENT))
def test_routes_agree_within_the_measured_map(family):
    # the two routes check each other on every cavity family; the red side
    # (phi0 = -0.01) is lopsided, the full line above the ray line at its
    # worst point, so a sign fault in either route fails here. The two
    # off-axis points run the full route's cut input on every family.
    geom, measured = _ROUTE_AGREEMENT[family]
    basis = HarmonicBasis(150)
    ops = CavityOperatorSet(geometry=geom, basis=basis)
    points = [FieldPoint(k) for k in ((0.0, 0.0, 0.0), (0.0, 0.0, 5.0), (0.0, 0.0, -5.0),
                                      (0.0, 0.0, 12.0), (4.0, 0.0, 3.0), (10.0, 0.0, 0.0))]
    for phi0, worst in zip((0.0, 0.01, -0.01), measured):
        full = np.array([enhancement_full(geom, basis, p, phi0, ops=ops).value
                         for p in points])
        ray = np.array([enhancement_ray(geom, p, phi0).value for p in points])
        deviation = np.abs(full - ray) / full
        assert np.max(deviation) <= 1.2 * worst, (phi0, deviation)
    i = int(np.argmax(deviation))
    assert full[i] > ray[i], (points[i], full[i], ray[i])



@settings(max_examples=100, deadline=None, derandomize=True)
@given(rho1=st.floats(0.3, 0.98), rho2=st.floats(0.3, 0.98),
       theta1=st.floats(0.3, 0.8), theta2=st.floats(0.3, 0.8))
def test_routes_agree_at_the_centre_on_resonance(rho1, rho2, theta1, theta2):
    # any drawn cavity: over a 144-cavity grid of these ranges (rho 0.3, 0.64,
    # 0.98 and apertures 0.3..0.8 rad in 4 steps, each on either mirror) the
    # worst abs(full - ray)/full at the centre with phi0 = 0 is 0.88%, at
    # rho 0.98/0.98 with apertures 0.3/0.8 (full 5.2216, ray 5.1755)
    geom = CavityGeometry(KR, theta1, theta2, rho1, rho2)
    full = enhancement_full(geom, HarmonicBasis(150), FieldPoint.origin(), 0.0).value
    ray = enhancement_ray(geom, FieldPoint.origin(), 0.0).value
    assert abs(full - ray) / full < 0.01, (full, ray)

class TestBlockSkip:
    def test_high_l_max_solves_only_the_blocks_with_energy(self, benchmark_geom):
        # 501 blocks are listed at l_max 250, but beyond |m| ~ 18 their share
        # of the input is far below 1e-16; without ops none of them is built
        basis = HarmonicBasis(250)
        point = FieldPoint((5.0, 0.0, 3.0))
        r = enhancement_full(benchmark_geom, basis, point, 0.0)
        assert r.detail["m_blocks"] == 501
        assert r.detail["blocks_solved"] <= 20
        ref = _all_blocks_value(build_operators(benchmark_geom, basis), point, 0.0, dense=True)
        assert r.value == pytest.approx(ref, rel=1e-14, abs=0)

    @pytest.mark.parametrize("kvec", [(5.0, 0.0, 3.0), (12.0, -4.0, 6.0), (2.0, 2.0, -8.0)])
    def test_skip_stays_within_its_bound_near_lossless(self, kvec):
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.999)
        basis = HarmonicBasis(60)
        ops = build_operators(geom, basis)
        point = FieldPoint(kvec)
        r = enhancement_full(geom, basis, point, 0.0, ops=ops)
        ref = _all_blocks_value(ops, point, 0.0)
        assert abs(r.value - ref) <= r.detail["skipped_bound"] + 1e-14 * ref
        # the bound carries the resolvent gain 1/(1 - rho)^2: a cavity that
        # may amplify a block keeps more blocks than free space
        free = CavityGeometry.symmetric(KR, THETA_30PCT, 0.0)
        r_free = enhancement_full(free, basis, point, 0.0)
        assert r.detail["blocks_solved"] > r_free.detail["blocks_solved"]
        assert r_free.detail["blocks_solved"] < basis.l_max + 1

    @pytest.mark.parametrize("kvec", [(5.0, 0.0, 3.0), (12.0, -4.0, 6.0), (2.0, 2.0, -8.0)])
    def test_tau_sq_form_error_is_pinned_near_lossless(self, kvec):
        # the error of _tau_sq_form against a 34-digit evaluation of the same
        # stored tau^2 and solution x, per block: measured worst 1.5e-14,
        # 2.5e-14 and 3.1e-14 of the form at these points (numpy 2.4 and
        # OpenBLAS 0.3.31 on x86-64); the bound adds a margin of 1.9e-14, so
        # that a summation order which moves the form more must say so
        mpmath = pytest.importorskip("mpmath")
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.999)
        ops = build_operators(geom, HarmonicBasis(60))
        v, _, _ = _focused_input(FieldPoint(kvec), 60, gain=ops.gain)
        phase = _phases(60)
        worst = 0.0
        with mpmath.workdps(34):
            for m in range(v.shape[0]):
                block = ops.block(m)
                rhs = block.u_half * (phase[m:] * v[m, m:])
                x, solved, _ = _solve_block(ops, m, 1.0 + 0j, rhs[:, None], 1.0)
                exact = mpmath.mpf(0)
                for sector in solved:
                    for part in (x[sector.index, 0].real, x[sector.index, 0].imag):
                        a = [mpmath.mpf(float(e)) for e in part]
                        exact += mpmath.fdot(a, [mpmath.fdot(row, a) for row in sector.tau_sq])
                form = wave_ops._tau_sq_form(solved, x[:, 0])
                worst = max(worst, float(abs(form - exact) / exact))
        assert 0.0 < worst <= 5e-14

    @pytest.mark.parametrize("l_max", [60, 150])
    @pytest.mark.parametrize("geom", [
        CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
        CavityGeometry.symmetric(KR, THETA_30PCT, 0.999),
        CavityGeometry(KR, THETA_30PCT, 0.6, 0.98, 0.9),
    ], ids=["benchmark", "rho-0.999", "unequal"])
    def test_cut_input_stays_within_its_bound(self, geom, l_max, monkeypatch):
        # the input cut at its reach against the whole input, each on an
        # operator set of its own, as a set holds the input of the point it
        # was last asked: each point at a phase of its own asks every block
        # once, below _FORM_AFTER, so both values are direct solves
        from cavityqed import specfun

        def uncut(point, l_max, tail_tol, gain):
            return specfun._focused_input(point, l_max, tail_tol)

        basis = HarmonicBasis(l_max)
        ops, other = (CavityOperatorSet(geometry=geom, basis=basis) for _ in range(2))
        rng = np.random.default_rng(l_max)
        for i in range(3):
            direction = rng.normal(size=3)
            kvec = rng.uniform(1.0, l_max - 30) * direction / np.linalg.norm(direction)
            point, phi0 = FieldPoint(tuple(kvec)), 0.003 * i
            cut = enhancement_full(geom, basis, point, phi0, ops=ops)
            with monkeypatch.context() as patch:
                patch.setattr(wave_ops, "_focused_input", uncut)
                whole = enhancement_full(geom, basis, point, phi0, ops=other)
            assert cut.detail.keys() == whole.detail.keys()
            for key in cut.detail.keys() - {"skipped_bound"}:
                assert cut.detail[key] == whole.detail[key], key
            # skipped_bound adds the cut's bound, at most 1e-16 of the input
            # energy (below 1), and that is below one rounding of the value:
            # allow a last-bit flip of a solve, which a cut too early would
            # exceed many times
            bound = _focused_input(point, l_max, gain=ops.gain)[2]
            assert bound <= 1e-16
            assert (cut.detail["skipped_bound"] - whole.detail["skipped_bound"]
                    == pytest.approx(bound, rel=1e-9, abs=1e-40))
            assert (abs(cut.value - whole.value)
                    <= cut.detail["skipped_bound"] + 4 * np.spacing(whole.value))

    def test_lossless_cavity_keeps_the_whole_input(self):
        geom = CavityGeometry.symmetric(KR, 1.0, 1.0)
        ops = CavityOperatorSet(geometry=geom, basis=HarmonicBasis(60))
        assert ops.gain == math.inf
        point = FieldPoint((30.0, 0.0, -4.0))
        v, _, cut = _focused_input(point, 60, gain=ops.gain)
        assert cut == 0.0
        assert v.tobytes() == _focused_input(point, 60)[0].tobytes()
        assert np.all(v[:, -1] != 0.0)

    def test_lossless_open_cavity_solves_every_listed_block(self):
        geom = CavityGeometry.symmetric(KR, 1.0, 1.0)
        basis = HarmonicBasis(40)
        r = enhancement_full(geom, basis, FieldPoint((5.0, 0.0, 3.0)), 0.0)
        assert math.isfinite(r.value) and r.value > 1.0
        assert r.detail["blocks_solved"] == basis.l_max + 1
        assert r.detail["skipped_bound"] == 0.0

    def test_closed_sphere_resonance_raises_off_axis(self):
        geom = CavityGeometry.symmetric(KR, math.pi / 2, 1.0)
        with pytest.raises(SolverError, match="singular to working precision"):
            enhancement_full(geom, HarmonicBasis(40), FieldPoint((2.0, 1.0, 1.0)), 0.0)

    @pytest.mark.parametrize("kvec", [(5.0, 0.0, 3.0), (12.0, -4.0, 6.0), (0.0, 0.0, 7.0)])
    def test_skip_equals_the_pair_by_pair_loop(self, benchmark_geom, kvec):
        # the summed bound of the skipped pairs, added one pair at a time
        # from the top while it stays within the floor
        coeffs = plane_wave_coeffs(FieldPoint(kvec), 60)
        energies = coeffs.m_energies()
        norm_sq = float(np.sum(energies))
        gain = 1.0 / (1.0 - 0.98) ** 2
        # the layout holds every |m| up to l_max off the axis, m = 0 on it
        top, skipped = (60 if kvec[0] else 0), 0.0
        while top > 0 and skipped + gain * energies[top] <= wave_ops._SKIP_FLOOR * norm_sq:
            skipped += gain * energies[top]
            top -= 1
        ops = CavityOperatorSet(geometry=benchmark_geom, basis=HarmonicBasis(60))
        assert wave_ops._solved_magnitudes(ops, coeffs.top, energies, norm_sq) == (top, skipped)

    def test_detail_counts_are_deterministic(self, benchmark_geom):
        basis = HarmonicBasis(60)
        point = FieldPoint((8.0, 3.0, -2.0))
        a = enhancement_full(benchmark_geom, basis, point, 0.01).detail
        b = enhancement_full(benchmark_geom, basis, point, 0.01).detail
        assert a == b
        assert 0 < a["blocks_solved"] < basis.l_max + 1
        assert 0.0 < a["skipped_bound"] <= 1e-16
        axis = enhancement_full(benchmark_geom, basis, FieldPoint.axial(8.0), 0.01).detail
        assert (axis["blocks_solved"], axis["skipped_bound"]) == (1, 0.0)


def _count_calls(monkeypatch, module, name):
    """Spy on module.name; the list returned gets the shape of the first
    argument of every call."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestModalSolve:
    L_MAX = 60
    # one free spectral range of phi0, the resonance at 0 included
    PHASES = math.pi * (np.arange(24) - 12) / 24

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("m", [0, 3, 40])
    @pytest.mark.parametrize("k_delta", [0.0, 0.3])
    def test_matches_direct_solve(self, k_delta, m, columns):
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, k_delta=k_delta)
        ops = build_operators(geom, HarmonicBasis(self.L_MAX), m_values=(m,))
        block = ops.block(m)
        rng = np.random.default_rng(5)
        shape = (block.dim, columns)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for phi0 in np.linspace(0.1, 0.2, _MODAL_AFTER - 1):
            assert _solve_block(ops, m, np.exp(2j * phi0), rhs, 1.0)[2] is None
        for phi0 in self.PHASES:
            x, _, modes = _solve_block(ops, m, np.exp(2j * phi0), rhs, 1.0)
            assert modes is not None
            ref = np.linalg.solve(_dense_resolvent(block, float(phi0)), rhs)
            # relative to the largest entry of the direct answer
            assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_intracavity_field_matches_direct_solve(self):
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, k_delta=0.3)
        basis = HarmonicBasis(self.L_MAX)
        f_in = plane_wave_coeffs(FieldPoint((4.0, 1.0, 3.0)), self.L_MAX)
        f_in = {m: c for m, c in coefficient_blocks(f_in).items() if abs(m) <= 3}
        ops = build_operators(geom, basis, m_values=range(4))
        for phi0 in np.linspace(0.1, 0.2, _MODAL_AFTER - 1):
            intracavity_field_coeffs(ops, float(phi0), f_in)
        for phi0 in (0.0, 0.05):
            got = intracavity_field_coeffs(ops, phi0, f_in)
            ref = intracavity_field_coeffs(build_operators(geom, basis, m_values=range(4)),
                                           phi0, f_in)
            for m in f_in:
                assert np.max(np.abs(got[m] - ref[m])) <= 1e-11 * np.max(np.abs(ref[m]))
        # one sector per block on this cavity, keyed (|m|, sector)
        assert sorted(ops.modes) == [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert all(f is not None for f in ops.modes.values())

    def test_corrupt_factors_fall_back_to_direct_answer(self, benchmark_geom, monkeypatch):
        basis = HarmonicBasis(self.L_MAX)
        point = FieldPoint.axial(5.0)
        ops = build_operators(benchmark_geom, basis, m_values=(0,))
        decompose = wave_ops._decompose

        def corrupt(block, sector):
            f = decompose(block, sector)
            return dataclasses.replace(f, eigenvalues=1.01 * f.eigenvalues)

        monkeypatch.setattr(wave_ops, "_decompose", corrupt)
        for phi0 in np.linspace(0.1, 0.2, _MODAL_AFTER - 1):
            enhancement_full(benchmark_geom, basis, point, float(phi0), ops=ops)
        solves = _count_calls(monkeypatch, np.linalg, "solve")
        for phi0 in (0.0, 0.03):
            r = enhancement_full(benchmark_geom, basis, point, phi0, ops=ops)
            direct = enhancement_full(benchmark_geom, basis, point, phi0)
            assert r.value == direct.value
            assert (r.detail["modal_solves"], r.detail["modal_condition"]) == (0, None)
        # the axial point reaches both sectors, and each drops its own factors
        assert ops.modes == {(0, 0): None, (0, 1): None}
        # four direct block solves, each of the two parity sectors
        assert len(solves) == 4 * 2

    def test_lossless_closed_sphere_raises_past_the_threshold(self):
        geom = CavityGeometry.symmetric(KR, math.pi / 2, 1.0)
        basis = HarmonicBasis(20)
        ops = build_operators(geom, basis, m_values=(0,))
        for phi0 in np.linspace(0.3, 0.6, _MODAL_AFTER + 2):
            r = enhancement_full(geom, basis, FieldPoint.origin(), float(phi0), ops=ops)
            assert math.isfinite(r.value) and r.detail["modal_solves"] == 0
        with pytest.raises(SolverError, match="singular to working precision"):
            enhancement_full(geom, basis, FieldPoint.origin(), 0.0, ops=ops)
        assert ops.modes == {}

    def test_lossless_open_cavity_stays_finite_past_the_threshold(self):
        geom = CavityGeometry.symmetric(KR, 1.0, 1.0)
        basis = HarmonicBasis(40)
        ops = build_operators(geom, basis, m_values=(0,))
        for phi0 in np.linspace(-0.1, 0.1, _MODAL_AFTER + 2):
            r = enhancement_full(geom, basis, FieldPoint.origin(), float(phi0), ops=ops)
            assert math.isfinite(r.value) and r.value > 0.0
            assert r.detail["modal_solves"] == 0
        assert ops.modes == {}

    def _sweep(self, geom, monkeypatch, point=FieldPoint.axial(3.0)):
        """A 200-phase sweep of the m = 0 block at point: the shapes passed
        to each np.linalg.solve and np.linalg.eig call, and the details."""
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(geom, basis, m_values=(0,))
        solves = _count_calls(monkeypatch, np.linalg, "solve")
        eigs = _count_calls(monkeypatch, np.linalg, "eig")
        details = [enhancement_full(geom, basis, point, float(p), ops=ops).detail
                   for p in np.linspace(-0.1, 0.1, 200)]
        assert [d["modal_solves"] for d in details] == (
            [0] * (_MODAL_AFTER - 1) + [1] * (200 - _MODAL_AFTER + 1))
        assert details[0]["modal_condition"] is None
        assert 1.0 <= details[-1]["modal_condition"] < 1e6
        assert len({d["zero_sectors"] for d in details}) == 1
        return solves, eigs, details[0]["zero_sectors"]

    def test_mixed_system_counts_its_modal_sector(self, benchmark_geom):
        # after a centre sweep only the even sector of m = 0 has modal
        # factors; the first axial point answers it from them and solves
        # its odd sector directly: one modal system of one modal sector
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(benchmark_geom, basis, m_values=(0,))
        for phi0 in np.linspace(-0.1, 0.1, _MODAL_AFTER):
            centre = enhancement_full(benchmark_geom, basis, FieldPoint.origin(), float(phi0),
                                      ops=ops).detail
        assert (centre["modal_solves"], centre["modal_sectors"]) == (1, 1)
        assert list(ops.modes) == [(0, 0)]
        axial = enhancement_full(benchmark_geom, basis, FieldPoint.axial(3.0), 0.05, ops=ops)
        assert (axial.detail["modal_solves"], axial.detail["modal_sectors"],
                axial.detail["zero_sectors"]) == (1, 1, 0)
        # a sweep there decomposes the odd sector too: both sectors modal
        for phi0 in np.linspace(0.06, 0.08, _MODAL_AFTER - 1):
            r = enhancement_full(benchmark_geom, basis, FieldPoint.axial(3.0), float(phi0),
                                 ops=ops).detail
        assert (r["modal_solves"], r["modal_sectors"]) == (1, 2)

    def test_sweep_decomposes_once(self, benchmark_geom, monkeypatch):
        # count guard: a sweep of one block makes _MODAL_AFTER - 1 direct
        # solves and one eigendecomposition per parity sector, and no more;
        # the mirror-symmetric cavity has two sectors of at most ceil(dim/2)
        solves, eigs, zero = self._sweep(benchmark_geom, monkeypatch)
        assert (len(solves), len(eigs), zero) == (2 * (_MODAL_AFTER - 1), 2, 0)
        half = (HarmonicBasis(self.L_MAX).block_ls(0).size + 1) // 2
        assert max(shape[0] for shape in solves + eigs) == half

    def test_centre_sweep_solves_the_even_sector_alone(self, benchmark_geom, monkeypatch):
        # count guard: at the centre the input is the l = 0 harmonic alone,
        # so the odd sector gets no solve and no decomposition (two of each
        # per phase before sectors were answered on their own); the even
        # sector's decomposition is one SVD of its rho and one eig of the
        # r x r core of rho's numerical rank, r < n
        svds = _count_calls(monkeypatch, np.linalg, "svd")
        solves, eigs, zero = self._sweep(benchmark_geom, monkeypatch, FieldPoint.origin())
        assert (len(solves), len(svds), len(eigs), zero) == (_MODAL_AFTER - 1, 1, 1, 1)
        half = (HarmonicBasis(self.L_MAX).block_ls(0).size + 1) // 2
        assert {shape[0] for shape in solves + svds} == {half}
        (r, c), = eigs
        assert r == c < half

    def test_sweep_decomposes_once_unequal_mirrors(self, monkeypatch):
        # one sector holding every l: one SVD of the whole block's rho and
        # one eig of the r x r core of its numerical rank, r < n
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9)
        n = HarmonicBasis(self.L_MAX).block_ls(0).size
        for point in (FieldPoint.axial(3.0), FieldPoint.origin()):
            with monkeypatch.context() as patch:
                svds = _count_calls(patch, np.linalg, "svd")
                solves, eigs, zero = self._sweep(geom, patch, point)
            assert (len(solves), len(svds), len(eigs), zero) == (_MODAL_AFTER - 1, 1, 1, 0)
            assert {shape[0] for shape in solves + svds} == {n}
            (r, c), = eigs
            assert r == c < n

    def _modal_errors(self, ops, phases, rhs):
        """Solve block 0 of ops at each phase (_solve_block); the largest
        deviation of each modal answer from np.linalg.solve, relative to
        the largest entry of the direct answer (None for a direct one)."""
        block = ops.block(0)
        errors = []
        for phi0 in phases:
            x, _, modal = _solve_block(ops, 0, np.exp(2j * phi0), rhs, 1.0)
            ref = np.linalg.solve(_dense_resolvent(block, float(phi0)), rhs)
            errors.append(None if modal is None
                          else np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
        return errors

    def test_unequal_mirrors_modal_answer_matches_direct_solve(self):
        # regression: the eigenvectors of the whole round trip of this
        # block had ||V||_1 ||V^-1||_1 = 8.7e8, and its modal answers
        # departed from the direct solve by 2.0e-8; those of the rank-r core
        # are within 1e-13
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9)
        ops = build_operators(geom, HarmonicBasis(150), m_values=(0,))
        rng = np.random.default_rng(5)
        shape = (ops.block(0).dim, 1)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        errors = self._modal_errors(
            ops, np.linspace(-0.05, 0.05, _MODAL_AFTER + 20), rhs)
        assert errors[: _MODAL_AFTER - 1] == [None] * (_MODAL_AFTER - 1)
        assert max(errors[_MODAL_AFTER - 1:]) <= 1e-12

    def test_unequal_mirrors_sweep_keeps_its_modes(self):
        # regression: at l_max 400 (||V||_1 ||V^-1||_1 = 7.5e9) the first
        # modal answer failed the residual check, and a 70-phase sweep
        # ended with modes[(0, 0)] None and every later phase solved directly
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9)
        basis = HarmonicBasis(400)
        ops = build_operators(geom, basis, m_values=(0,))
        point = FieldPoint.axial(3.0)
        for phi0 in np.linspace(-0.05, 0.05, 70):
            r = enhancement_full(geom, basis, point, float(phi0), ops=ops)
            direct = _all_blocks_value(ops, point, float(phi0))
            assert abs(r.value - direct) <= 1e-12 * direct
        assert r.detail["modal_solves"] == 1 and ops.modes[(0, 0)] is not None

    def test_complex_rho_sweep_is_answered_modally(self):
        # defocus makes rho complex symmetric: the same one path (SVD, rank
        # rule, eig of the core), factors of n x r with r < n
        geom = CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3)
        ops = build_operators(geom, HarmonicBasis(150), m_values=(0,))
        assert np.iscomplexobj(ops.block(0).sectors[0].rho)
        rng = np.random.default_rng(6)
        shape = (ops.block(0).dim, 1)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        errors = self._modal_errors(ops, np.linspace(-0.05, 0.05, _MODAL_AFTER + 20), rhs)
        assert max(errors[_MODAL_AFTER - 1:]) <= 1e-12
        factors = ops.modes[(0, 0)]
        n, r = factors.left.shape
        assert factors.right.shape == (r, n) and 0 < r < n

    def test_mirrorless_cavity_has_a_rank_zero_core(self):
        # rho = 0: the core is 0 x 0, and the modal answer is U^-2 b exactly
        geom = CavityGeometry.symmetric(KR, 0.0, 0.98)
        ops = build_operators(geom, HarmonicBasis(30), m_values=(0,))
        block = ops.block(0)
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal((block.dim, 1)) + 1j * rng.standard_normal((block.dim, 1))
        for phi0 in np.linspace(-0.05, 0.05, _MODAL_AFTER + 1):
            x, _, modal = _solve_block(ops, 0, np.exp(2j * phi0), rhs, 1.0)
        assert modal is not None
        for s, sector in enumerate(block.sectors):
            assert ops.modes[(0, s)].eigenvalues.shape == (0,)
        assert np.array_equal(x[:, 0], (1.0 / block.u_half**2) * rhs[:, 0])

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("empty", [0, 1])
    def test_zero_sector_is_exact_zero_and_leaves_the_other_alone(
            self, benchmark_geom, empty, columns):
        # a sector without input is neither solved nor counted nor
        # decomposed; the other sector's answer is bit for bit the one of
        # the whole right-hand side, by the direct and by the modal route
        basis = HarmonicBasis(self.L_MAX)
        whole, part = (build_operators(benchmark_geom, basis, m_values=(3,))
                       for _ in range(2))
        sectors = whole.block(3).sectors
        rng = np.random.default_rng(7)
        shape = (whole.block(3).dim, columns)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cut = rhs.copy()
        cut[sectors[empty].index] = 0.0
        full = sectors[1 - empty].index
        for n, phi0 in enumerate(np.linspace(-0.1, 0.1, _MODAL_AFTER + 3)):
            z = np.exp(2j * phi0)
            x, solved, modal = _solve_block(part, 3, z, cut, 1.0)
            ref, both, ref_modal = _solve_block(whole, 3, z, rhs, 1.0)
            assert [s.index for s in solved] == [full] and len(both) == 2
            assert not np.any(x[sectors[empty].index])
            assert x[full].tobytes() == ref[full].tobytes()
            assert (modal is None) == (ref_modal is None) == (n < _MODAL_AFTER - 1)
        assert part.solve_counts == {(3, 1 - empty): _MODAL_AFTER + 3}
        assert list(part.modes) == [(3, 1 - empty)]

    def test_lossless_guard_judges_the_whole_block_at_the_centre(self):
        # closed sphere at a phase where the odd sector alone is on
        # resonance (u_1^2 + z = 0): the centre's input reaches only the even
        # sector, whose own condition is modest, and the block is still
        # singular to working precision
        geom = CavityGeometry.symmetric(KR, math.pi / 2, 1.0)
        basis = HarmonicBasis(20)
        ops = build_operators(geom, basis, m_values=(0,))
        phi0 = math.pi / 2 - 1.0 / KR
        z = np.exp(2j * phi0)
        even, odd = ops.block(0).sectors
        even_cond = wave_ops._condition([wave_ops._resolvent_matrix(ops.block(0), even, z)])
        assert even_cond * ops.block(0).dim * np.finfo(float).eps < 1e-10
        for kwargs in ({}, {"ops": ops}):
            with pytest.raises(SolverError, match="singular to working precision"):
                enhancement_full(geom, basis, FieldPoint.origin(), phi0, **kwargs)
        assert ops.solve_counts == {} and ops.modes == {}

class TestHermitianForm:
    L_MAX = 60
    # on-axis and off-axis points; a fixed-phase scan of them forms every
    # block it solves at the third point that solves it
    POINTS = [(0.0, 0.0, 5.0), (0.0, 0.0, -3.0), (5.0, 0.0, 3.0), (12.0, -4.0, 6.0),
              (2.0, 2.0, -8.0), (0.0, 0.0, 0.0), (-3.0, 1.0, 0.5)]
    CAVITIES = {
        "benchmark": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
        "unequal": CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9),
        "defocused": CavityGeometry(KR, THETA_30PCT, THETA_30PCT, 0.98, 0.98, k_delta=0.3),
    }

    def _scan(self, geom, phi0, points, ops=None):
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(geom, basis) if ops is None else ops
        return ops, [enhancement_full(geom, basis, FieldPoint(k), phi0, ops=ops)
                     for k in points]

    @pytest.mark.parametrize("phi0", [0.0, 0.02])
    @pytest.mark.parametrize("name", sorted(CAVITIES))
    def test_form_answers_match_direct_solves(self, name, phi0):
        geom = self.CAVITIES[name]
        basis = HarmonicBasis(self.L_MAX)
        ops, results = self._scan(geom, phi0, 3 * self.POINTS)
        # each pass solves the blocks of each point again, so the third pass
        # answers every block of every point from its form
        for r in results[-len(self.POINTS):]:
            assert r.detail["form_solves"] == r.detail["blocks_solved"] > 0
            assert r.detail["modal_solves"] == 0
        # every block that a point solved is formed
        (state,) = ops.forms.values()
        assert state.formed_top == max(r.detail["blocks_solved"] for r in results) - 1
        assert not state.failed
        for k, r in zip(3 * self.POINTS, results):
            # without ops every block is solved directly
            direct = enhancement_full(geom, basis, FieldPoint(k), phi0)
            assert direct.detail["form_solves"] == 0
            assert abs(r.value - direct.value) <= 1e-13 * direct.value
            assert r.detail["blocks_solved"] == direct.detail["blocks_solved"]

    def test_failed_guard_keeps_no_form(self, benchmark_geom, monkeypatch):
        form = wave_ops._hermitian_form

        def strict(*args):
            # no row norm meets a negative limit: the n-column guard fails,
            # while the direct solves keep the usual limit
            with monkeypatch.context() as patch:
                patch.setattr(wave_ops, "_RESIDUAL_LIMIT", -1.0)
                return form(*args)

        monkeypatch.setattr(wave_ops, "_hermitian_form", strict)
        ops, results = self._scan(benchmark_geom, 0.01, 2 * self.POINTS)
        (state,) = ops.forms.values()
        assert state.formed_top >= 0 and state.failed == set(range(state.formed_top + 1))
        # a failed block's slots hold nothing that a point could read
        assert state.stacks and not any(np.any(stack) for stack in state.stacks)
        for k, r in zip(2 * self.POINTS, results):
            assert r.detail["form_solves"] == 0
            direct = enhancement_full(benchmark_geom, HarmonicBasis(self.L_MAX),
                                      FieldPoint(k), 0.01)
            assert r.value == direct.value

    def test_lossless_cavity_never_forms(self):
        geom = CavityGeometry.symmetric(KR, 1.0, 1.0)
        basis = HarmonicBasis(40)
        ops = build_operators(geom, basis, m_values=(0,))
        for kz in np.linspace(0.5, 4.0, 6):
            r = enhancement_full(geom, basis, FieldPoint.axial(float(kz)), 0.05, ops=ops)
            assert math.isfinite(r.value) and r.detail["form_solves"] == 0
        assert ops.forms == {}

    def test_phase_change_replaces_the_form(self, benchmark_geom):
        ops = build_operators(benchmark_geom, HarmonicBasis(self.L_MAX), m_values=(0,))
        axial = [(0.0, 0.0, kz) for kz in (1.0, 2.0, 3.0)]
        dims = [len(range(self.L_MAX + 1)[s.index]) for s in ops.block(0).sectors]
        held = None
        for phi0 in (0.0, 0.01):
            self._scan(benchmark_geom, phi0, axial[:1], ops)
            # a new phase frees the old stacks and restarts the count
            assert list(ops.forms) == [phi0]
            if held is not None:
                gc.collect()
                assert held() is None
            state = ops.forms[phi0]
            assert (state.tops, state.formed_top, state.stacks) == ([0], -1, [])
            self._scan(benchmark_geom, phi0, axial[1:], ops)
            assert (state.tops, state.formed_top, state.failed) == ([0, 0, 0], 0, set())
            # one slot per sector, padded to the larger: the odd sector of
            # 30 l is padded to the 31 of the even one
            (stack,) = state.stacks
            assert stack.shape == (2, dims[0], dims[0]) and stack.dtype == np.float64
            assert not np.any(stack[1, dims[1]:]) and not np.any(stack[1, :, dims[1]:])
            assert stack.nbytes <= wave_ops._FORM_PADDING * sum(8 * n * n for n in dims)
            held = weakref.ref(stack)
            del state, stack  # the only reference left is the set's
        # two solves of each sector at each phase; the form answers do not
        # count towards _MODAL_AFTER
        assert ops.solve_counts == {(0, 0): 4, (0, 1): 4}

    @pytest.mark.parametrize("name", sorted(CAVITIES))
    def test_stacks_hold_each_form_once_within_the_padding(self, name):
        # the bytes of one phase's stacks against one real n x n matrix per
        # formed sector, as forms grow over a scan whose points reach ever
        # higher |m|
        geom = self.CAVITIES[name]
        ops = build_operators(geom, HarmonicBasis(self.L_MAX))
        points = [(0.0, 0.0, 4.0)] + [(r, 0.3 * r, 2.0) for r in (1.0, 3.0, 6.0, 10.0, 15.0)]
        for k in 3 * points:
            self._scan(geom, 0.0, [k], ops)
            (state,) = ops.forms.values()
            sizes = [len(range(self.L_MAX - m + 1)[s.index])
                     for m in range(state.formed_top + 1) for s in ops.block(m).sectors]
            held = sum(stack.nbytes for stack in state.stacks)
            assert held <= wave_ops._FORM_PADDING * sum(8 * n * n for n in sizes)
        assert not state.failed and state.formed_top > 1 and len(state.stacks) > 1

    def test_mixed_route_point_matches_the_per_block_rule(self, benchmark_geom, monkeypatch):
        # a point whose top passes the highest formed |m| is answered from
        # the stacks below it and by solves above it; the counts are those
        # of the rule that counts each |m| on its own
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(benchmark_geom, basis)
        points = [(1.0, 0.5, 2.0), (2.0, -1.0, 1.0), (1.5, 1.0, -2.0), (4.0, 2.0, 3.0),
                  (9.0, -5.0, 2.0), (3.0, 0.0, -1.0), (12.0, 6.0, -4.0), (0.0, 0.0, 6.0)]
        asked = np.zeros(basis.l_max + 1, dtype=int)
        mixed = 0
        for k in points:
            r = enhancement_full(benchmark_geom, basis, FieldPoint(k), 0.0, ops=ops)
            top = r.detail["blocks_solved"] - 1
            asked[: top + 1] += 1
            formed = int(np.count_nonzero(asked[: top + 1] >= wave_ops._FORM_AFTER))
            assert (r.detail["form_solves"], r.detail["modal_solves"]) == (formed, 0)
            direct = enhancement_full(benchmark_geom, basis, FieldPoint(k), 0.0)
            assert r.detail["blocks_solved"] == direct.detail["blocks_solved"]
            assert abs(r.value - direct.value) <= 1e-13 * direct.value
            mixed += 0 < formed < top + 1
        assert mixed >= 2

    def test_position_scan_forms_once(self, benchmark_geom, monkeypatch):
        # count guard: an N-point scan at one phase makes two direct solves
        # of each block, then one n-column solve per parity sector that
        # forms it, and from then on no LAPACK call at all
        ops = build_operators(benchmark_geom, HarmonicBasis(self.L_MAX))
        calls = []
        for name in ("solve", "eig", "inv", "svd"):
            original = getattr(np.linalg, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                rhs = np.shape(args[1]) if len(args) > 1 else None
                calls.append((_name, np.shape(args[0]), rhs))
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        # equal kr and polar angle, so every point solves the same blocks
        points = [(6.0 * math.cos(phi), 6.0 * math.sin(phi), 4.0)
                  for phi in np.linspace(0.0, 2.0, 8)]
        per_point = []
        details = []
        for k in points:
            start = len(calls)
            details.append(self._scan(benchmark_geom, 0.0, [k], ops)[1][0].detail)
            per_point.append(calls[start:])
        solved = details[0]["blocks_solved"]
        assert solved > 1 and all(d["blocks_solved"] == solved for d in details)
        sector_ms = [(m, len(range(self.L_MAX - m + 1)[s.index]))
                     for m in range(solved) for s in ops.block(m).sectors]
        sectors = [n for _, n in sector_ms]
        for i in (0, 1):
            assert [c[0] for c in per_point[i]] == ["solve"] * len(sectors)
            # one column per |m|: the -m column of a pair is the +m one
            # times a unit phase and is not solved
            assert [c[2] for c in per_point[i]] == [(n, 1) for _, n in sector_ms]
            assert details[i]["form_solves"] == 0
        assert per_point[2] == [("solve", (n, n), (n, n)) for n in sectors]
        assert per_point[3:] == [[]] * (len(points) - 3)
        assert all(d["form_solves"] == solved for d in details[2:])


class TestHeldPoint:
    L_MAX = 60
    PHASES = [float(p) for p in np.linspace(-0.1, 0.1, 241)]
    CAVITIES = {
        "benchmark": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
        "defocused": CavityGeometry(KR, THETA_30PCT, THETA_30PCT, 0.98, 0.98, k_delta=0.3),
    }

    @pytest.mark.parametrize("kvec, modal", [((0.0, 0.0, 0.0), [(0, 0)]),
                                             ((0.0, 0.0, 3.0), [(0, 0), (0, 1)])])
    def test_sweep_pays_for_its_point_once(self, benchmark_geom, monkeypatch, kvec, modal):
        # count guard: one input and skip bound for the whole sweep, and one
        # projection of the point's right-hand side per modal sector
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(benchmark_geom, basis, m_values=(0,))
        inputs = _count_calls(monkeypatch, wave_ops, "_focused_input")
        projected = []
        project = wave_ops._ModalFactors.project

        def spy(factors, rhs):
            projected.append(next(k for k, f in ops.modes.items() if f is factors))
            return project(factors, rhs)

        monkeypatch.setattr(wave_ops._ModalFactors, "project", spy)
        for phi0 in self.PHASES:
            r = enhancement_full(benchmark_geom, basis, FieldPoint(kvec), phi0, ops=ops)
        assert r.detail["modal_sectors"] == len(modal)
        assert len(inputs) == 1
        assert projected == modal

    def test_new_point_replaces_the_held_one(self, benchmark_geom, monkeypatch):
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(benchmark_geom, basis, m_values=(0,))
        first, second = FieldPoint.axial(3.0), FieldPoint.axial(-2.0)
        for phi0 in self.PHASES[:_MODAL_AFTER + 1]:
            enhancement_full(benchmark_geom, basis, first, phi0, ops=ops)
        held = ops._held
        assert held.kvec == first.kvec and sorted(held.projections) == [(0, 0), (0, 1)]
        old_input = weakref.ref(held.v)
        del held
        focused_input, freed = wave_ops._focused_input, []

        def spy(*args):
            # the old point is freed before the new one's input is built
            gc.collect()
            freed.append(old_input() is None)
            return focused_input(*args)

        monkeypatch.setattr(wave_ops, "_focused_input", spy)
        r = enhancement_full(benchmark_geom, basis, second, 0.05, ops=ops)
        assert freed == [True]
        assert ops._held.kvec == second.kvec and r.detail["modal_sectors"] == 2
        # the new point's projections, from the same factors as the old ones
        assert {k: p[0] for k, p in ops._held.projections.items()} == {
            k: ops.modes[k] for k in [(0, 0), (0, 1)]}
        direct = enhancement_full(benchmark_geom, basis, second, 0.05)
        assert abs(r.value - direct.value) <= 1e-12 * direct.value

    def test_direct_solve_block_callers_get_no_projections(self, benchmark_geom, monkeypatch):
        # after a sweep has projected the held point's input, a caller of
        # _solve_block with a right-hand side of its own projects its own,
        # on every call, and leaves the held projections alone
        basis = HarmonicBasis(self.L_MAX)
        ops = build_operators(benchmark_geom, basis, m_values=(0,))
        for phi0 in self.PHASES[:_MODAL_AFTER + 1]:
            enhancement_full(benchmark_geom, basis, FieldPoint.axial(3.0), phi0, ops=ops)
        held = dict(ops._held.projections)
        project = _count_calls(monkeypatch, wave_ops._ModalFactors, "project")
        block = ops.block(0)
        rng = np.random.default_rng(11)
        for phi0 in (0.0, 0.02, 0.04):
            rhs = rng.standard_normal((block.dim, 1)) + 1j * rng.standard_normal((block.dim, 1))
            x, _, modal = _solve_block(ops, 0, np.exp(2j * phi0), rhs, 1.0)
            assert modal is not None
            ref = np.linalg.solve(_dense_resolvent(block, phi0), rhs)
            assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert len(project) == 3 * 2
        assert ops._held.projections == held

    def test_truncated_point_warns_on_every_call(self):
        # the held input keeps its tail, and every call judges it against
        # its own tail_tol, attributed to the line of the call
        import warnings

        geom = CavityGeometry.symmetric(KR, 0.5, 0.9)
        basis = HarmonicBasis(100)
        ops = build_operators(geom, basis, m_values=(0,))
        point = FieldPoint.axial(100.0)
        tail = _focused_input(point, 100, math.inf)[1]

        def call(phi0, tol=wave_ops.TAIL_TOL):
            return enhancement_full(geom, basis, point, phi0, ops=ops, tail_tol=tol)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for phi0 in (0.0, 0.01, 0.02):
                call(phi0)
            call(0.03, tol=1.0)
            call(0.04, tol=1e-9)
        found = [w for w in caught if w.category is TruncationWarning]
        assert [str(w.message) for w in found] == [
            f"truncation tail {tail:.3e} exceeds {tol:.1e} for kr=100 at l_max=100; "
            "increase l_max" for tol in (1e-8, 1e-8, 1e-8, 1e-9)]
        assert {(w.filename, w.lineno) for w in found} == {
            (__file__, call.__code__.co_firstlineno + 1)}

    @pytest.mark.parametrize("name", sorted(CAVITIES))
    def test_held_sweep_equals_a_sweep_that_holds_nothing(self, name):
        # one set reuses the point's input and projections over the sweep;
        # the other drops its held point before every phase, so it builds
        # both again each time: every value, and every detail, to the bit
        geom = self.CAVITIES[name]
        basis = HarmonicBasis(self.L_MAX)
        held, fresh = (build_operators(geom, basis) for _ in range(2))
        point = FieldPoint((4.0, 1.0, 3.0))
        for phi0 in self.PHASES[::6]:
            a = enhancement_full(geom, basis, point, phi0, ops=held)
            fresh._held = None
            b = enhancement_full(geom, basis, point, phi0, ops=fresh)
            assert a.value.hex() == b.value.hex() and a.detail == b.detail
        assert a.detail["modal_solves"] == a.detail["blocks_solved"] > 1


def test_operator_route_does_not_import_numpy_ma():
    # np.unique imports numpy.ma when first called, over 1 MB of RSS and
    # about 12 ms in every process that builds operators
    code = ("import sys\n"
            "from cavityqed.structures import CavityGeometry, FieldPoint, HarmonicBasis\n"
            "from cavityqed.wave_ops import build_operators, enhancement_full\n"
            "geom = CavityGeometry(1e5, 0.795, 0.6, 0.98, 0.9)\n"
            "basis = HarmonicBasis(30)\n"
            "ops = build_operators(geom, basis)\n"
            "for k in ((0.0, 0.0, 2.0), (3.0, -1.0, 2.0)):\n"
            "    enhancement_full(geom, basis, FieldPoint(k), 0.01, ops=ops)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(wave_ops.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)
    assert proc.stdout.strip() == "False"


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

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("kz, phi0", [(0.0, 0.0), (3.0, 0.11), (6.0, 0.05), (12.0, -0.2)])
    def test_equals_enhancement_full_on_closed_sphere(self, rho, kz, phi0):
        # both caps of half-aperture pi/2 coat the whole sphere, so every
        # operator is diagonal in l and the resolvent reduces to the mode sum
        geom = CavityGeometry.symmetric(KR, math.pi / 2, rho)
        basis = HarmonicBasis(60)
        ops = build_operators(geom, basis, m_values=(0,))
        got = enhancement_full(geom, basis, FieldPoint.axial(kz), phi0, ops=ops).value
        ref = closed_cavity_mode_sum(rho, kz, k_radius=KR, detuning_phase=phi0, l_max=60)
        assert abs(got - ref) <= 1e-13 * ref
