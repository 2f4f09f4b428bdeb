import csv
import dataclasses
import json
import math
import re
import subprocess
import sys

import pytest

from cavityqed import __version__, cli
from cavityqed.io_formats import SCAN_KINDS
from cavityqed.presets import PRESETS, preset_config
from oracles import read_table_json

TINY_SCENARIO = {
    "geometry": {"k_radius": 1e5, "theta_m1": math.acos(0.7), "theta_m2": math.acos(0.7),
                 "rho1": 0.9, "rho2": 0.9},
    "dipole": {"orientation": "isotropic"},
    "scan": {"kind": "axial-profile",
             "kz_range": {"start": 0.0, "stop": 8.0, "count": 9}, "phi0": 0.0},
    "numerics": {"l_max": 40},
    "outputs": {"basename": "tiny"},
}

AIRY_SCENARIO = {
    "scan": {"kind": "airy-check", "rhos": [0.5], "phase_count": 4},
    "outputs": {"basename": "airy"},
}

# the scan of a tiny scenario of every scan kind
TINY_SCANS = {
    "detuning-sweep": {"phi0_range": {"start": -0.05, "stop": 0.05, "count": 3}},
    "axial-profile": {"kz_range": {"start": 0.0, "stop": 4.0, "count": 3}},
    "radial-map": {"kx_range": {"start": 0.0, "stop": 4.0, "count": 3}},
    "compare": {"kz_range": {"start": 0.0, "stop": 4.0, "count": 3}},
    "defocus-study": {"phi0_range": {"start": -0.2, "stop": 0.1, "count": 3}},
    "airy-check": {"rhos": [0.5], "phase_count": 2},
}

# documents that are invalid at one key, by a null, a non-finite number or a
# boolean reflectivity
BAD_DOCUMENTS = {
    "numerics.l_max": '{"scan": {"kind": "airy-check"}, "numerics": {"l_max": null}}',
    "outputs.basename": '{"scan": {"kind": "airy-check"}, "outputs": {"basename": null}}',
    "scan.phi0": '{"scan": {"kind": "airy-check", "phi0": NaN}}',
    "geometry.k_radius": '{"scan": {"kind": "airy-check"}, "geometry": {"k_radius": Infinity}}',
    "scan.rhos": '{"scan": {"kind": "airy-check", "rhos": [false, 0.5]}}',
}


def _write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _run_tiny(tmp_path, kind):
    """Run the tiny scenario of a scan kind into tmp_path/out, basename tiny."""
    # defocus-study needs a defocused cavity
    k_delta = 0.3 if kind == "defocus-study" else 0.0
    doc = {
        "geometry": dict(TINY_SCENARIO["geometry"], k_delta=k_delta),
        "scan": dict(TINY_SCANS[kind], kind=kind),
        "numerics": {"l_max": 40},
        "outputs": {"basename": "tiny"},
    }
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


class TestPresets:
    def test_listing_shows_all(self, capsys):
        assert cli.main(["reproduce"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out
        assert len(PRESETS) == 6

    def test_preset_configs_are_valid(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.geometry.k_radius == 1e5

    def test_axial_preset_covers_kr_0_100(self):
        cfg = preset_config("axial-profile")
        assert cfg.scan.kz_range.start == 0.0
        assert cfg.scan.kz_range.stop == 100.0

    def test_unknown_preset_is_config_error(self, capsys):
        assert cli.main(["reproduce", "no-such-thing", "--out", "/tmp/x"]) == cli.EXIT_CONFIG


class TestRun:
    def test_tiny_scenario(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, TINY_SCENARIO)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        for suffix in (".csv", ".json", ".gp"):
            assert (tmp_path / "out" / f"tiny{suffix}").exists()
        assert "gamma ratio" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG

    def test_invalid_config_reports_violations(self, tmp_path, capsys):
        doc = dict(TINY_SCENARIO)
        doc["geometry"] = dict(doc["geometry"], rho1=2.0)
        cfg = _write_config(tmp_path, doc)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "rho1" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = _write_config(tmp_path, TINY_SCENARIO)
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for suffix in (".csv", ".json"):
            assert ((tmp_path / "a" / f"tiny{suffix}").read_bytes()
                    == (tmp_path / "b" / f"tiny{suffix}").read_bytes())

    def test_strict_mode_escalates_validity_warnings(self, tmp_path, capsys):
        doc = dict(TINY_SCENARIO)
        doc["scan"] = {"kind": "axial-profile",
                       "kz_range": {"start": 108.0, "stop": 112.0, "count": 3},
                       "phi0": 0.0}
        doc["numerics"] = {"l_max": 150}
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "s2"),
                         "--strict"]) == cli.EXIT_STRICT
        assert "warning" in capsys.readouterr().err

    def test_warnings_print_one_line_per_source(self, tmp_path, capsys):
        # a 101-point compare scan to kz 200 at l_max 150 warns 177 times from
        # four sources: the ray range of the corrected and of the naive ray
        # call (50 each), kr beyond l_max - 30 (40) and the truncation tail (37)
        doc = {"scan": {"kind": "compare",
                        "kz_range": {"start": 0.0, "stop": 200.0, "count": 101},
                        "phi0": 0.0},
               "numerics": {"l_max": 150}, "outputs": {"basename": "scan"}}
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        lines = capsys.readouterr().err.splitlines()
        counts = [int(re.search(r", (\d+) more like it\)$", line)[1]) + 1 for line in lines]
        assert all(line.startswith("warning: ") for line in lines)
        assert counts == [50, 50, 40, 37]
        assert ["ray-model range" in line for line in lines] == [True, True, False, False]
        assert "l_max-30" in lines[2] and "truncation tail" in lines[3]
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
                         "--strict"]) == cli.EXIT_STRICT
        assert len(capsys.readouterr().err.splitlines()) == 5

    def test_compare_scenario_summary(self, tmp_path, capsys):
        doc = {
            "geometry": TINY_SCENARIO["geometry"],
            "scan": {"kind": "compare",
                     "kz_range": {"start": 0.0, "stop": 4.0, "count": 5}},
            "numerics": {"l_max": 40},
            "outputs": {"basename": "cmp"},
        }
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "center: full =" in out
        assert "max |full - ray|/full" in out

    def test_detuning_sweep_emits_orientation_columns(self, tmp_path):
        doc = {
            "geometry": TINY_SCENARIO["geometry"],
            "scan": {"kind": "detuning-sweep",
                     "phi0_range": {"start": -0.05, "stop": 0.05, "count": 5}},
            "outputs": {"basename": "sweep"},
        }
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        header = (tmp_path / "out" / "sweep.csv").read_bytes().split(b"\r\n")[0].decode()
        for col in ("gamma_parallel", "gamma_perpendicular",
                    "shift_parallel", "shift_perpendicular"):
            assert col in header

    def test_radial_map_scenario(self, tmp_path):
        doc = {
            "geometry": TINY_SCENARIO["geometry"],
            "dipole": {"orientation": "parallel"},
            "scan": {"kind": "radial-map",
                     "kx_range": {"start": 0.0, "stop": 6.0, "count": 4}},
            "outputs": {"basename": "radial"},
        }
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "radial.csv").exists()
        assert (tmp_path / "out" / "radial.gp").exists()

    @pytest.mark.parametrize("kind", SCAN_KINDS)
    def test_every_scan_kind_runs(self, tmp_path, kind):
        out = _run_tiny(tmp_path, kind)
        for suffix in (".csv", ".json", ".gp"):
            assert (out / f"tiny{suffix}").exists()

    def test_defocus_study_honours_azimuthal_order(self, tmp_path, monkeypatch):
        # the azimuthal node count of every ray evaluation shows the order
        # that reached it; at kr_perp = 6 the automatic count is 28
        real, nodes = cli.enhancement_ray, []

        def recording(*args, **kwargs):
            r = real(*args, **kwargs)
            nodes.append(r.detail["azimuthal_nodes"])
            return r

        monkeypatch.setattr(cli, "enhancement_ray", recording)
        for order in (32, 96):
            nodes.clear()
            doc = {
                "geometry": dict(TINY_SCENARIO["geometry"], k_delta=0.3),
                "scan": {"kind": "defocus-study", "point": [6.0, 0.0, 1.0],
                         "phi0_range": {"start": -0.1, "stop": 0.1, "count": 3}},
                "numerics": {"azimuthal_order": order},
                "outputs": {"basename": "d"},
            }
            cfg = _write_config(tmp_path, doc)
            out = tmp_path / str(order)
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert nodes == [order] * 6

    def test_non_finite_result_exits_numerical(self, tmp_path, monkeypatch, capsys):
        real = cli.response

        def nan_response(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), gamma_ratio=math.nan)

        monkeypatch.setattr(cli, "response", nan_response)
        doc = dict(TINY_SCENARIO, scan={"kind": "radial-map", **TINY_SCANS["radial-map"]})
        cfg = _write_config(tmp_path, doc)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        assert "non-finite value nan" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("tiny.*"))

    @pytest.mark.parametrize("key", list(BAD_DOCUMENTS))
    def test_null_and_non_finite_values_are_config_errors(self, tmp_path, capsys, key):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(BAD_DOCUMENTS[key])
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_defocus_requires_nonzero_kdelta(self, tmp_path, capsys):
        doc = {
            "geometry": TINY_SCENARIO["geometry"],
            "scan": {"kind": "defocus-study",
                     "phi0_range": {"start": -0.2, "stop": 0.1, "count": 7}},
            "outputs": {"basename": "d"},
        }
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("theta_m", [0.5, 0.0], ids=["mirrors", "no-mirrors"])
    def test_lossless_detuning_sweep_is_config_error(self, tmp_path, capsys, theta_m):
        # the detuning axis is in linewidths, and a lossless line has none
        doc = {
            "geometry": {"theta_m1": theta_m, "rho1": 1.0, "rho2": 1.0},
            "scan": {"kind": "detuning-sweep", **TINY_SCANS["detuning-sweep"]},
            "numerics": {"l_max": 40},
        }
        for l_max, reported in ((40, []), (-1, ["numerics.l_max"])):
            doc["numerics"]["l_max"] = l_max
            cfg = _write_config(tmp_path, doc)
            code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "geometry.rho1: detuning-sweep requires rho1 * rho2 < 1" in err
            assert all(key in err for key in reported)
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", [k for k in TINY_SCANS if k != "airy-check"])
    def test_lossless_pair_on_the_ray_route_is_config_error(self, tmp_path, capsys, kind):
        # the corrected ray route shrinks each mirror by a diffraction
        # correction that a lossless pair does not bound: rejected with the
        # other violations, before any point, and not as a numerical failure
        geometry = {"theta_m1": 0.5, "theta_m2": 0.0, "rho1": 1.0, "rho2": 1.0,
                    "k_delta": 0.3}
        doc = {"geometry": geometry, "scan": {"kind": kind, **TINY_SCANS[kind]},
               "numerics": {"l_max": -1}}
        cfg = _write_config(tmp_path, doc)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "geometry.rho1" in err and "numerics.l_max" in err
        assert "diffraction correction is unbounded for a lossless mirror pair" in err
        assert not (tmp_path / "out").exists()

    def test_mirror_narrower_than_its_diffraction_correction_is_config_error(
            self, tmp_path, capsys):
        # kR 1e5 and rho 0.98 shrink each mirror by 0.01589 rad, more than
        # mirror 1's 0.01: rejected at parse time, not as a numerical failure
        doc = {"geometry": {"k_radius": 1e5, "theta_m1": 0.01, "theta_m2": 0.7, "rho1": 0.98},
               "scan": {"kind": "axial-profile",
                        "kz_range": {"start": 0, "stop": 5, "count": 3}}}
        cfg = _write_config(tmp_path, doc)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "geometry.theta_m1" in err and "geometry.theta_m2" not in err
        assert "diffraction correction 0.01589 exceeds aperture 0.01" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("geometry", [
        {"theta_m1": 0.0, "rho1": 1.0, "rho2": 1.0},
        {"theta_m1": 0.5, "theta_m2": 0.0, "rho1": 0.9, "rho2": 0.9},
    ], ids=["no-mirrors", "one-mirror"])
    def test_ray_route_without_a_collapsing_mirror_runs(self, tmp_path, geometry):
        doc = {"geometry": geometry, "scan": {"kind": "axial-profile",
                                              **TINY_SCANS["axial-profile"]},
               "numerics": {"l_max": 40}}
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


# the exact scripts of two scans: a two-panel multiplot, and points on a log y-axis
PINNED_SCRIPTS = {
    "detuning-sweep": f"""\
# gnuplot script generated by cavityqed {__version__}
# data: tiny.csv
set datafile separator ','
set key autotitle columnhead
set grid
set multiplot layout 1,2
set xlabel 'detuning phase [rad]'
set ylabel 'damping ratio'
plot 'tiny.csv' every ::1 using 1:5 with lines title 'perpendicular', \\
     '' every ::1 using 1:3 with lines title 'parallel'
set ylabel 'level-shift ratio'
plot 'tiny.csv' every ::1 using 1:6 with lines title 'perpendicular', \\
     '' every ::1 using 1:4 with lines title 'parallel'
unset multiplot
""",
    "airy-check": f"""\
# gnuplot script generated by cavityqed {__version__}
# data: tiny.csv
set datafile separator ','
set key autotitle columnhead
set grid
set xlabel 'phase [rad]'
set ylabel 'relative error vs quadrature oracle'
set logscale y
plot 'tiny.csv' every ::1 using 2:4 with points title 'shift kernel', \\
     '' every ::1 using 2:6 with points title 'cos-weighted', \\
     '' every ::1 using 2:8 with points title 'sin-weighted'
""",
}


class TestPlotScripts:
    @pytest.mark.parametrize("kind", sorted(PINNED_SCRIPTS))
    def test_script_bytes_pinned(self, tmp_path, kind):
        out = _run_tiny(tmp_path, kind)
        assert (out / "tiny.gp").read_text() == PINNED_SCRIPTS[kind]

    @pytest.mark.parametrize("kind", SCAN_KINDS)
    def test_every_plotted_column_is_in_the_csv(self, tmp_path, kind):
        out = _run_tiny(tmp_path, kind)
        with open(out / "tiny.csv", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        pairs = re.findall(r"using (\d+):(\d+)", (out / "tiny.gp").read_text())
        assert pairs
        for x, y in pairs:
            assert 1 <= int(x) <= len(header) and 1 <= int(y) <= len(header)
            assert x != y


class TestOtherCommands:
    def test_airy_check_single_rho(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, AIRY_SCENARIO)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "max relative error" in capsys.readouterr().out

    @pytest.mark.parametrize("phase_count", [4, 5])
    def test_airy_check_writes_every_phase(self, tmp_path, capsys, phase_count):
        # an odd count keeps its last, unmirrored phase
        doc = dict(AIRY_SCENARIO, scan=dict(AIRY_SCENARIO["scan"], rhos=[0.5, 0.9],
                                            phase_count=phase_count))
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert f"2 reflectivities x {phase_count} phases" in capsys.readouterr().out
        table = read_table_json((tmp_path / "out" / "airy.json").read_bytes())
        rhos = [row[0] for row in table.rows]  # columns rho, phi, ...
        phis = [row[1] for row in table.rows]
        assert rhos == [0.5] * phase_count + [0.9] * phase_count
        assert phis[:phase_count] == phis[phase_count:]
        assert len(set(phis[:phase_count])) == phase_count

    @pytest.mark.parametrize("rho, phi", [(0.9, 0.1), (0.5, 0.7)])
    def test_closed_forms_agree_with_the_pv_oracle(self, rho, phi):
        # plain, cos- and sin-weighted kernels, as the airy-check scan runs them
        errors = [err for _, err in cli.pv_oracle_errors(rho, phi)]
        assert max(errors) < 1e-6

    def test_airy_check_bad_rho(self, tmp_path, capsys):
        doc = dict(AIRY_SCENARIO, scan=dict(AIRY_SCENARIO["scan"], rhos=[1.5]))
        cfg = _write_config(tmp_path, doc)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "scan.rhos" in capsys.readouterr().err

    def test_airy_check_at_zero_reflectivity(self, tmp_path, capsys):
        doc = dict(AIRY_SCENARIO, scan=dict(AIRY_SCENARIO["scan"], rhos=[0.0], phase_count=2))
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        table = read_table_json((tmp_path / "out" / "airy.json").read_bytes())
        assert all(math.isfinite(v) for row in table.rows for v in row)
        # the plain kernel vanishes at rho = 0; its error there is absolute
        # columns rho, phi, shift_closed, rel_err_shift, ...
        assert [row[2] for row in table.rows] == [0.0, 0.0]
        assert max(row[3] for row in table.rows) < 1e-12

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cavityqed.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "cavityqed" in proc.stdout
