import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cavityqed import dipole_response
from cavityqed.dipole_response import (
    enhancement_ray,
    orientation_weight,
    response,
    shift_kernel,
)
from cavityqed.ray_model import (
    ResonanceSingularityError,
    airy_resonance_factor,
    ray_direction_phases,
    ray_integration_nodes,
)
from cavityqed.structures import (
    CavityGeometry,
    DipoleOrientation,
    FieldPoint,
    HarmonicBasis,
    ValidityWarning,
)
from cavityqed.wave_ops import build_operators
from oracles import center_closed_forms, one_mirror_response, unfolded_ray_response

KR = 1.0e5
THETA_30PCT = math.acos(0.7)


def _shift_kernel_symmetric(phi, x, rho):
    """Equal-mirror shift kernel, the oracle of shift_kernel:
    rho sin(2 phi) [cos^2(x)/|1 - rho e^{2i phi}|^2 - sin^2(x)/|1 + rho e^{2i phi}|^2]."""
    cos2phi = np.cos(2.0 * phi)
    d_minus = 1.0 + rho * rho - 2.0 * rho * cos2phi
    d_plus = 1.0 + rho * rho + 2.0 * rho * cos2phi
    return rho * np.sin(2.0 * phi) * (np.cos(x) ** 2 / d_minus - np.sin(x) ** 2 / d_plus)


@pytest.fixture(scope="module")
def benchmark_geom():
    return CavityGeometry.symmetric(KR, THETA_30PCT, 0.98)


class TestPolarizationFactor:
    # orientation_weight of an explicit dipole vector d is (3/2)(1 - (d.Omega)^2)
    def test_along_dipole_axis(self):
        for d, theta, phi_az in (((0, 0, 1), 0.0, 0.3), ((1, 0, 0), math.pi / 2, 0.0),
                                 ((0.6, 0.0, 0.8), math.acos(0.8), 0.0)):
            w = orientation_weight(DipoleOrientation.along(d), theta, phi_az)
            assert w == pytest.approx(0.0, abs=1e-15)

    def test_across_dipole_axis(self):
        for d, theta, phi_az in (((0, 0, 1), math.pi / 2, 0.0), ((0, 0, 1), math.pi / 2, 2.0),
                                 ((1, 0, 0), 0.0, 0.0), ((1, 0, 0), math.pi / 2, math.pi / 2)):
            w = orientation_weight(DipoleOrientation.along(d), theta, phi_az)
            assert w == pytest.approx(1.5, rel=1e-15)

    def test_sphere_average_is_unity(self):
        from cavityqed.quadrature import polar_rule

        cases = [(1.1, 20, 16, np.array([0.36, -0.48, 0.8]))]
        cases += [(1.0, 24, 24, d / np.linalg.norm(d))
                  for d in np.random.default_rng(7).normal(size=(3, 3))]
        for edge, n_polar, n_azimuthal, d in cases:
            grid = polar_rule([edge], n_polar)
            phi_az = 2.0 * math.pi * (np.arange(n_azimuthal) + 0.5) / n_azimuthal
            vals = orientation_weight(DipoleOrientation.along(d), grid.theta[:, None],
                                      phi_az[None, :])
            assert float(np.dot(grid.w_theta, vals.mean(axis=1))) == pytest.approx(1.0, abs=1e-13)


class TestOrientationIdentities:
    def test_sum_rule_on_and_off_axis(self, benchmark_geom):
        cases = [(FieldPoint.axial(12.0), 0.004), (FieldPoint((3.0, 2.0, 5.0)), -0.01)]
        rng = np.random.default_rng(21)
        for _ in range(6):
            if rng.uniform() < 0.5:
                point = FieldPoint.axial(float(rng.uniform(0, 40)))
            else:
                v = rng.uniform(-15, 15, size=3)
                point = FieldPoint(tuple(v))
            cases.append((point, float(rng.uniform(-0.05, 0.05))))
        for point, phi0 in cases:
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
    @pytest.mark.parametrize("seed,count,rho_max", [(4, 3000, 0.98), (12, 2000, 0.995)])
    def test_symmetric_and_asymmetric_agree_for_equal_mirrors(self, seed, count, rho_max):
        # the general shift kernel reduces to the equal-mirror two-series
        # form; deviation normalized to the kernel's own scale
        rng = np.random.default_rng(seed)
        phis = rng.uniform(-math.pi, math.pi, count)
        xs = rng.uniform(-30, 30, count)
        rho = rng.uniform(0.0, rho_max, count)
        general = shift_kernel(phis, xs, rho, rho)
        symmetric = _shift_kernel_symmetric(phis, xs, rho)
        assert np.max(np.abs(general - symmetric) / np.maximum(1.0, np.abs(symmetric))) < 1e-12

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
    theta, w, phi_az, rho_fwd, rho_back = ray_integration_nodes(
        geom, point, True, None, None, axisym)
    th2, ph2 = theta[:, None], phi_az[None, :]
    phi, x = ray_direction_phases(geom, point, phi0, th2, ph2)
    rho1, rho2 = rho_fwd[:, None], rho_back[:, None]
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

    def test_operator_build_holds_one_table_and_one_segment(self, benchmark_geom):
        # the m = 0 block at l_max 400: its 1.9 MiB Legendre table on the
        # 624 nodes of the folded rule and the copy of the block's slice peak
        # together, and the sweep over the segments holds the rows of one
        # segment (0.6 MiB) at a time; 5.4 MiB in all (7.7 on all 1248 nodes)
        basis = HarmonicBasis(400)
        build_operators(benchmark_geom, basis, m_values=(0,))  # Gauss rules cached
        tracemalloc.start()
        try:
            build_operators(benchmark_geom, basis, m_values=(0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

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


class TestRayScan:
    # _ray_scan shares each node set among the points of one resolved order
    # and each (point, phase)'s kernels among the orientations; every value
    # is bit for bit the one-point call's
    GEOMETRIES = {
        "benchmark": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
        "unequal": CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9),
        "defocus": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98, k_delta=0.3),
    }
    POINTS = [FieldPoint.origin(), FieldPoint.axial(5.0), FieldPoint.axial(120.0),
              FieldPoint((4.0, 0.0, 3.0)), FieldPoint((10.0, 0.0, 0.0))]
    PHASES = [-0.01, 0.0, 0.013]

    @pytest.mark.parametrize("corrections", [True, False])
    @pytest.mark.parametrize("orientations", [
        [DipoleOrientation(tag=tag) for tag in ("parallel", "perpendicular", "isotropic")],
        [DipoleOrientation.along((0.6, 0.0, 0.8))]], ids=["tags", "vector"])
    @pytest.mark.parametrize("family", sorted(GEOMETRIES))
    def test_scan_equals_the_one_point_calls(self, family, orientations, corrections):
        geom = self.GEOMETRIES[family]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ValidityWarning)
            values, nodes = dipole_response._ray_scan(geom, self.POINTS, self.PHASES,
                                                      orientations, corrections, None, None)
        # one warning for the one point beyond the ray range, on the corrected route only
        assert len(caught) == (1 if corrections else 0)
        assert values.shape == (2, len(self.POINTS), len(self.PHASES), len(orientations))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            for i, point in enumerate(self.POINTS):
                for j, phi0 in enumerate(self.PHASES):
                    for k, o in enumerate(orientations):
                        one, one_nodes = dipole_response._ray_scan(
                            geom, [point], [phi0], [o], corrections, None, None)
                        assert one_nodes == [nodes[i]]
                        assert values[:, i, j, k].tolist() == one[:, 0, 0, 0].tolist()
                        if corrections:
                            r = response(point, o, geom, phi0)
                            assert values[:, i, j, k].tolist() == [r.gamma_ratio,
                                                                   r.shift_ratio]
                    if orientations[-1].tag == "isotropic":
                        e = enhancement_ray(geom, point, phi0, corrections=corrections)
                        assert values[0, i, j, -1] == e.value

    def test_points_of_one_order_share_a_node_set(self, benchmark_geom, monkeypatch):
        # on the 16-step ladder, kz 0..100 needs 8 polar orders
        built = []
        real = dipole_response.ray_integration_nodes

        def spy(*args):
            built.append(args[1])
            return real(*args)

        monkeypatch.setattr(dipole_response, "ray_integration_nodes", spy)
        points = [FieldPoint.axial(float(kz)) for kz in np.linspace(0.0, 100.0, 201)]
        dipole_response._ray_scan(benchmark_geom, points, [0.0],
                                  [DipoleOrientation.isotropic()], True, None, None)
        assert len(built) == 8

    def test_a_point_in_one_block_is_weighed_once(self, benchmark_geom, monkeypatch):
        calls = []
        real = dipole_response.orientation_weight

        def spy(orientation, theta, phi_az):
            calls.append(orientation)
            return real(orientation, theta, phi_az)

        monkeypatch.setattr(dipole_response, "orientation_weight", spy)
        tags = [DipoleOrientation(tag=tag) for tag in ("parallel", "perpendicular", "isotropic")]
        dipole_response._ray_scan(benchmark_geom, [FieldPoint((3.0, 1.0, 2.0))],
                                  [-0.01, 0.0, 0.01, 0.02], tags, True, None, None)
        assert calls == tags

    def test_memory_does_not_grow_with_the_phase_count(self, benchmark_geom):
        # one phase's rows are held at a time: rows held for every phase
        # would take about 25 MB at 500 phases, three tags and 1024 nodes
        tags = [DipoleOrientation(tag=tag) for tag in ("parallel", "perpendicular", "isotropic")]

        def peak(count):
            phases = np.linspace(-0.05, 0.05, count)
            tracemalloc.start()
            try:
                dipole_response._ray_scan(benchmark_geom, [FieldPoint.origin()], phases, tags,
                                          True, 1024, None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the Gauss rule is cached
        assert peak(500) - peak(1) < 2**20


class TestAzimuthFold:
    # a point with ky = 0, every orientation's weight even in the azimuth,
    # evaluates the first n/2 of its n azimuthal columns; the oracle takes
    # every column, as the unfolded scan did
    GEOMETRIES = {
        "benchmark": CavityGeometry.symmetric(KR, THETA_30PCT, 0.98),
        "unequal-defocus": CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, 0.3),
    }
    ORIENTATIONS = {
        "parallel": DipoleOrientation.parallel(),
        "perpendicular": DipoleOrientation.perpendicular(),
        "isotropic": DipoleOrientation.isotropic(),
        "vector-dy0": DipoleOrientation.along((0.6, 0.0, 0.8)),
    }
    FOLDED = [FieldPoint((10.0, 0.0, 0.0)), FieldPoint((4.0, 0.0, 3.0)),
              FieldPoint((-7.0, 0.0, 20.0)), FieldPoint((60.0, 0.0, 5.0))]

    @staticmethod
    def _columns(monkeypatch):
        """The azimuthal columns of each ray_direction_phases call."""
        seen, real = [], dipole_response.ray_direction_phases

        def spy(geom, point, phi0, theta, phi_az, **kw):
            seen.append(np.shape(phi_az)[-1])
            return real(geom, point, phi0, theta, phi_az, **kw)

        monkeypatch.setattr(dipole_response, "ray_direction_phases", spy)
        return seen

    @pytest.mark.parametrize("azimuthal_order", [None, 40, 45], ids=["auto", "even", "odd"])
    @pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
    @pytest.mark.parametrize("family", sorted(GEOMETRIES))
    def test_folded_points_match_the_unfolded_quadrature(self, family, orientation,
                                                         azimuthal_order):
        geom, o = self.GEOMETRIES[family], self.ORIENTATIONS[orientation]
        for point in self.FOLDED:
            r = response(point, o, geom, 0.013, azimuthal_order=azimuthal_order)
            gamma, shift = unfolded_ray_response(point, o, geom, 0.013,
                                                 azimuthal_order=azimuthal_order)
            assert abs(r.gamma_ratio - gamma) <= 1e-15 * abs(gamma)
            assert abs(r.shift_ratio - shift) <= 1e-15 * abs(shift)
            nodes = ray_integration_nodes(geom, point, True, None, azimuthal_order, False)
            assert r.detail["azimuthal_nodes"] == nodes[2].size

    def test_odd_order_is_not_folded(self, benchmark_geom, monkeypatch):
        # the self-mirrored column phi = pi would need its own weight
        seen = self._columns(monkeypatch)
        point, o = FieldPoint((10.0, 0.0, 0.0)), DipoleOrientation.parallel()
        r = response(point, o, benchmark_geom, 0.013, azimuthal_order=45)
        assert seen == [45] and r.detail["azimuthal_nodes"] == 45
        assert (r.gamma_ratio, r.shift_ratio) == unfolded_ray_response(
            point, o, benchmark_geom, 0.013, azimuthal_order=45)

    def test_ky_zero_evaluates_half_the_azimuth(self, benchmark_geom, monkeypatch):
        seen = self._columns(monkeypatch)
        r = response(FieldPoint((10.0, 0.0, 3.0)), DipoleOrientation.perpendicular(),
                     benchmark_geom, 0.013)
        assert r.detail["azimuthal_nodes"] == 36 and seen == [18]

    @pytest.mark.parametrize("point,orientation", [
        (FieldPoint((7.0, -3.0, 11.0)), DipoleOrientation.perpendicular()),
        (FieldPoint((10.0, 0.0, 3.0)), DipoleOrientation.along((0.6, 0.3, 0.7))),
    ], ids=["ky", "vector-dy"])
    def test_other_points_are_not_folded(self, benchmark_geom, monkeypatch, point,
                                         orientation):
        seen = self._columns(monkeypatch)
        r = response(point, orientation, benchmark_geom, 0.013)
        assert seen == [r.detail["azimuthal_nodes"]]
        assert (r.gamma_ratio, r.shift_ratio) == unfolded_ray_response(
            point, orientation, benchmark_geom, 0.013)

    def test_scan_folds_point_by_point(self, benchmark_geom, monkeypatch):
        # kr_perp 10 for all three: one azimuthal order, folded for ky = 0 only
        seen = self._columns(monkeypatch)
        points = [FieldPoint((10.0, 0.0, 2.0)), FieldPoint((8.0, 6.0, 2.0)),
                  FieldPoint((-10.0, 0.0, 2.0))]
        o = DipoleOrientation.parallel()
        values, nodes = dipole_response._ray_scan(benchmark_geom, points, [0.013], [o], True,
                                                  None, None)
        assert seen == [18, 36, 18]
        assert [n["azimuthal_nodes"] for n in nodes] == [36, 36, 36]
        for i, point in enumerate(points):
            gamma, shift = unfolded_ray_response(point, o, benchmark_geom, 0.013)
            if point.kvec[1] == 0.0:
                assert abs(values[0, i, 0, 0] - gamma) <= 1e-15 * abs(gamma)
                assert abs(values[1, i, 0, 0] - shift) <= 1e-15 * abs(shift)
            else:
                assert values[:, i, 0, 0].tolist() == [gamma, shift]


class TestUnequalCapSplit:
    # the reflectivities jump at both caps' edges and at their antipodes; a
    # polar rule split only at {theta_1, pi - theta_2} leaves a jump inside
    # a segment, off by several 1e-3 at every order
    UNEQUAL = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9)

    @pytest.mark.parametrize("phi0", [0.0, 0.01])
    def test_one_mirror_center_value(self, phi0):
        # each end of a ray through the centre meets the one cap over a
        # solid-angle fraction (1 - cos theta)/2, with damping 1 + rho cos 2phi0
        geom = CavityGeometry(KR, THETA_30PCT, 0.0, 0.98, 0.0)
        got = enhancement_ray(geom, FieldPoint.origin(), phi0, corrections=False).value
        assert abs(got - (1.0 + 0.3 * 0.98 * math.cos(2.0 * phi0))) <= 1e-14

    def test_unequal_caps_center_value(self):
        # rays within the narrower cap meet both mirrors, with the resonant
        # factor A; the annulus between the caps meets mirror 1 alone
        rho1, rho2 = 0.98, 0.9
        a = (1.0 + rho1) * (1.0 + rho2) / (1.0 - rho1 * rho2)
        exact = (1.0 + (1.0 - math.cos(0.6)) * (a - 1.0)
                 + (math.cos(0.6) - math.cos(0.795)) * rho1)
        got = enhancement_ray(self.UNEQUAL, FieldPoint.origin(), 0.0, corrections=False).value
        assert abs(got - exact) <= 1e-14

    @pytest.mark.parametrize("k_delta", [0.0, 0.3])
    @pytest.mark.parametrize("tag", ["parallel", "perpendicular", "isotropic"])
    def test_default_order_is_converged(self, tag, k_delta):
        geom = CavityGeometry(KR, 0.795, 0.6, 0.98, 0.9, k_delta)
        point, orientation = FieldPoint((3.0, 1.0, 2.0)), DipoleOrientation(tag=tag)
        default = response(point, orientation, geom, 0.01)
        fine = response(point, orientation, geom, 0.01, polar_order=512)
        assert abs(default.gamma_ratio - fine.gamma_ratio) <= 1e-13
        assert abs(default.shift_ratio - fine.shift_ratio) <= 1e-13


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

    def test_naive_route_does_not_warn(self, benchmark_geom):
        # the validated range is the corrected model's; the naive value is
        # its uncorrected reference
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ValidityWarning)
            enhancement_ray(benchmark_geom, FieldPoint.axial(120.0), 0.0, corrections=False)
        assert caught == []


class TestFreeSpaceAndAverages:
    def test_free_space_recovery(self):
        geom = CavityGeometry.symmetric(KR, 0.8, 0.0)
        cases = [(p, 0.17) for p in (FieldPoint.origin(), FieldPoint.axial(9.0),
                                     FieldPoint((2.0, 1.0, 3.0)))]
        rng = np.random.default_rng(2)
        for _ in range(3):
            point = FieldPoint(tuple(rng.uniform(-20, 20, 3)))
            cases.append((point, float(rng.uniform(-1, 1))))
        for point, phi0 in cases:
            r = response(point, DipoleOrientation.isotropic(), geom, phi0)
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

    @pytest.mark.parametrize("phi0", [0.0, 0.01, 0.013])
    def test_matches_quadrature_at_center(self, benchmark_geom, phi0):
        for tag in ("parallel", "perpendicular", "isotropic"):
            o = DipoleOrientation(tag=tag)
            closed = center_closed_forms(o, THETA_30PCT, 0.98, phi0)
            values, _ = dipole_response._ray_scan(benchmark_geom, [FieldPoint.origin()], [phi0],
                                                  [o], False, None, None)
            gamma, shift = values[:, 0, 0, 0]
            assert gamma == pytest.approx(closed.gamma_ratio, rel=1e-12)
            assert shift == pytest.approx(closed.shift_ratio, rel=1e-12, abs=1e-15)

    def test_vector_orientation_rejected(self):
        with pytest.raises(ValueError):
            center_closed_forms(DipoleOrientation.along((1, 0, 0)), 0.7, 0.9, 0.0)

    @pytest.mark.parametrize("rho", [0.5, 0.98, 0.999, 0.9999])
    def test_matches_40_digit_evaluation_near_resonance(self, rho):
        # the resonance denominator and the transmission lose no digits to
        # cancellation as rho -> 1 and phi0 -> 0
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            c = mp.cos(mp.mpf(THETA_30PCT))
            s2 = 1 - c * c
            cav = 1 - c
            weights = {"parallel": (c * (1 + s2 / 2), cav * (1 - c * (1 + c) / 2)),
                       "perpendicular": (c * (1 - s2 / 4), cav * (1 + c * (1 + c) / 4)),
                       "isotropic": (c, cav)}
            r = mp.mpf(rho)
            for phi0 in (0.0, 1e-6, -1e-4, 1e-3, 0.01, 0.3):
                d = abs(1 - r * mp.exp(2j * mp.mpf(phi0))) ** 2
                airy = (1 - r * r) / d
                disp = r * mp.sin(2 * mp.mpf(phi0)) / d
                for tag, (w_vac, w_cav) in weights.items():
                    got = center_closed_forms(DipoleOrientation(tag=tag), THETA_30PCT, rho, phi0)
                    gamma = w_vac + w_cav * airy
                    shift = w_cav * disp
                    assert abs(got.gamma_ratio - gamma) <= 1e-14 * abs(gamma)
                    assert abs(got.shift_ratio - shift) <= 1e-14 * abs(shift)


class TestShiftSymmetry:
    def test_center_shift_vanishes_at_resonance(self, benchmark_geom):
        for tag in ("parallel", "perpendicular", "isotropic"):
            s = response(FieldPoint.origin(), DipoleOrientation(tag=tag), benchmark_geom,
                         0.0).shift_ratio
            assert s == 0.0

    @pytest.mark.parametrize("phi0", [0.003, 0.005, 0.011, 0.02, 0.03])
    def test_center_shift_odd_in_detuning(self, benchmark_geom, phi0):
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

    @pytest.mark.parametrize("phi0", [0.0, 0.3])
    def test_center_modulation_is_half_the_cavity_routes(self, phi0):
        # the average weighs only the directions toward the cap; the cavity
        # routes with the same single mirror count both ends of each line
        theta_m, rho = math.acos(0.7), 0.8
        modulation = (1.0 - math.cos(theta_m)) * rho * math.cos(2.0 * phi0)
        single = one_mirror_response(FieldPoint.origin(), DipoleOrientation.isotropic(),
                                     rho, phi0, theta_m).gamma_ratio
        cavity = enhancement_ray(CavityGeometry(KR, theta_m, 0.0, rho, 0.0), FieldPoint.origin(),
                                 phi0, corrections=False).value
        assert abs(single - (1.0 + modulation / 2.0)) <= 1e-14
        assert abs(cavity - (1.0 + modulation)) <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            one_mirror_response(FieldPoint.origin(), DipoleOrientation.isotropic(), 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            one_mirror_response(FieldPoint.origin(), DipoleOrientation.isotropic(), 0.5, 0.0, 0.0)
