import json
import math
import subprocess
import sys

import pytest

from cavityqed import cli
from cavityqed.io_formats import SCAN_KINDS, parse_config, read_table_json
from cavityqed.presets import PRESETS, preset_config

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
        # defocus-study needs a defocused cavity; its .gp checks its columns
        k_delta = 0.3 if kind == "defocus-study" else 0.0
        doc = {
            "geometry": dict(TINY_SCENARIO["geometry"], k_delta=k_delta),
            "scan": dict(TINY_SCANS[kind], kind=kind),
            "numerics": {"l_max": 40},
            "outputs": {"basename": "tiny"},
        }
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        for suffix in (".csv", ".json", ".gp"):
            assert (tmp_path / "out" / f"tiny{suffix}").exists()

    def test_defocus_study_honours_azimuthal_order(self, tmp_path):
        tables = []
        for order in (32, 96):
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
            tables.append((out / "d.csv").read_bytes())
        assert tables[0] != tables[1]

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


class TestOtherCommands:
    def test_validate_filter(self, capsys):
        assert cli.main(["validate", "--filter", "bessel-sum"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "bessel-sum-rule" in out

    def test_validate_unknown_filter(self, capsys):
        assert cli.main(["validate", "--filter", "zzz"]) == cli.EXIT_NUMERICAL

    def test_airy_check_single_rho(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, AIRY_SCENARIO)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "max relative error" in capsys.readouterr().out

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
        assert table.column("shift_closed") == [0.0, 0.0]
        assert max(table.column("rel_err_shift")) < 1e-12

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cavityqed.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "cavityqed" in proc.stdout
