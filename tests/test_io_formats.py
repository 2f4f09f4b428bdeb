import json
import math

import pytest

from cavityqed.io_formats import (
    Column,
    ConfigError,
    ResultTable,
    config_hash,
    emit_plot_script,
    make_provenance,
    parse_config,
    read_table_json,
    serialize_config,
    write_table,
)

MINIMAL = '{"scan": {"kind": "axial-profile", "kz_range": {"start": 0, "stop": 10, "count": 5}}}'

BENCHMARK_CONFIG = json.dumps({
    "geometry": {"k_radius": 1e5, "theta_m1": math.acos(0.7), "theta_m2": math.acos(0.7),
                 "rho1": 0.98, "rho2": 0.98, "k_delta": 0.0},
    "dipole": {"orientation": "isotropic"},
    "scan": {"kind": "compare", "kz_range": {"start": 0.0, "stop": 100.0, "count": 201},
             "phi0": 0.0},
    "numerics": {"l_max": 150},
    "outputs": {"basename": "benchmark"},
})


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.numerics.l_max == 150
        assert cfg.numerics.polar_order == 64
        assert cfg.numerics.azimuthal_order == 32
        assert cfg.geometry.k_radius == 1e5
        assert cfg.dipole.tag == "isotropic"
        assert cfg.scan.kz_range.count == 5

    def test_reflectivity_out_of_range(self):
        bad = MINIMAL.replace('{"scan"', '{"geometry": {"rho1": 1.2}, "scan"')
        with pytest.raises(ConfigError, match=r"reflectivity out of \[0,1\]"):
            parse_config(bad)

    def test_collects_all_violations(self):
        doc = {
            "geometry": {"rho1": 1.5, "k_radius": -1},
            "scan": {"kind": "nonsense"},
            "numerics": {"l_max": -3},
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        text = str(err.value)
        for frag in ("rho1", "k_radius", "scan.kind", "l_max"):
            assert frag in text

    def test_missing_required_range(self):
        with pytest.raises(ConfigError, match="kz_range"):
            parse_config('{"scan": {"kind": "axial-profile"}}')

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"scan": }')

    def test_unknown_section_flagged(self):
        doc = json.loads(MINIMAL)
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config(json.dumps(doc))

    def test_unknown_nested_keys_flagged(self):
        doc = {
            "geometry": {"rho": 0.5},
            "dipole": {"tag": "parallel"},
            "numerics": {"lmax": 400},
            "scan": {"kind": "axial-profile", "phi_0": 0.3, "method": "ray-symmetric",
                     "kz_range": {"start": 0, "stop": 10, "count": 5, "step": 1}},
            "outputs": {"format": "csv"},
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert sorted(err.value.violations) == sorted(
            f"{path}: unknown key" for path in (
                "geometry.rho", "dipole.tag", "numerics.lmax", "scan.phi_0",
                "scan.method", "scan.kz_range.step", "outputs.format"))

    def test_benchmark_config_roundtrip_identity(self):
        cfg = parse_config(BENCHMARK_CONFIG)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == text
        assert config_hash(cfg2) == config_hash(cfg)

    def test_vector_dipole(self):
        doc = json.loads(MINIMAL)
        doc["dipole"] = {"vector": [0, 0, 2]}
        cfg = parse_config(json.dumps(doc))
        assert cfg.dipole.vector == (0.0, 0.0, 1.0)

    def test_dipole_exclusivity(self):
        doc = json.loads(MINIMAL)
        doc["dipole"] = {"vector": [0, 0, 1], "orientation": "parallel"}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(json.dumps(doc))


def _table():
    cfg = parse_config(BENCHMARK_CONFIG)
    cols = (Column("kz", "1/k"), Column("gamma_ratio", "ratio"),
            Column("shift_ratio", "ratio"), Column("method"))
    rows = [(0.0, 30.4, 0.0, "ray"), (1.0 / 3.0, 29.123456789012345, -2e-17, "ray")]
    return ResultTable(cols, rows, make_provenance(cfg, ["ray"]))


class TestResultTable:
    def test_header_only_csv_for_empty_rows(self):
        t = _table()
        t.rows = []
        data = write_table(t, "csv").decode()
        assert data == "kz [1/k],gamma_ratio [ratio],shift_ratio [ratio],method\r\n"

    def test_axial_profile_schema(self):
        t = _table()
        assert t.column_names() == ("kz", "gamma_ratio", "shift_ratio", "method")

    def test_csv_floats_roundtrip(self):
        t = _table()
        lines = write_table(t, "csv").decode().splitlines()
        cells = lines[2].split(",")
        assert float(cells[0]) == 1.0 / 3.0
        assert float(cells[1]) == 29.123456789012345
        assert float(cells[2]) == -2e-17

    def test_csv_quotes_embedded_separators(self):
        t = _table()
        t.rows = [(0.0, 1.0, 0.0, 'ray,"special"')]
        data = write_table(t, "csv").decode()
        assert '"ray,""special"""' in data

    def test_json_roundtrip_bit_exact(self):
        t = _table()
        data = write_table(t, "json")
        back = read_table_json(data)
        assert back.rows == t.rows
        assert [c.name for c in back.columns] == [c.name for c in t.columns]
        assert back.provenance["config_hash"] == t.provenance["config_hash"]
        assert write_table(back, "json") == data

    def test_provenance_block_present(self):
        t = _table()
        doc = json.loads(write_table(t, "json"))
        assert "provenance" in doc
        assert doc["provenance"]["config"]["geometry"]["rho1"] == 0.98
        assert doc["provenance"]["code_version"]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            ResultTable((Column("a"), Column("b")), [(1.0,)], {})

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            write_table(_table(), "parquet")


class TestPlotScripts:
    def test_compare_overlay(self):
        cfg = parse_config(BENCHMARK_CONFIG)
        cols = (Column("kz", "1/k"), Column("enhancement_full", "ratio"),
                Column("enhancement_ray", "ratio"))
        t = ResultTable(cols, [(0.0, 29.29, 29.30)], make_provenance(cfg, ["full", "ray"]))
        script = emit_plot_script(t, "compare", "benchmark.csv")
        assert "benchmark.csv" in script
        assert "full operator" in script and "corrected ray" in script
        assert "29.29" not in script  # data is referenced, never embedded

    def test_detuning_dual_panel(self):
        cfg = parse_config(BENCHMARK_CONFIG)
        cols = tuple(Column(n) for n in
                     ("phi0", "gamma_parallel", "gamma_perpendicular",
                      "shift_parallel", "shift_perpendicular"))
        t = ResultTable(cols, [], make_provenance(cfg, ["ray"]))
        script = emit_plot_script(t, "detuning-sweep", "d.csv")
        assert "multiplot layout 1,2" in script

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="plot kind"):
            emit_plot_script(_table(), "hexbin", "x.csv")

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lacks columns"):
            emit_plot_script(_table(), "compare", "x.csv")
