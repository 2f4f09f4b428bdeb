import json
import math
import subprocess
import sys

import pytest

from cavityqed import cli
from cavityqed.io_formats import parse_config
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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cavityqed.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "cavityqed" in proc.stdout
