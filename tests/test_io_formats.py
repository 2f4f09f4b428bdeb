import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqed.io_formats import (
    SCAN_KINDS,
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
from cavityqed.presets import PRESETS, preset_config

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


def _minimal_with(path, value):
    """MINIMAL with the key at the dotted path set to value."""
    doc = json.loads(MINIMAL)
    *sections, key = path.split(".")
    node = doc
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


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

    @pytest.mark.parametrize("path", [
        "numerics.l_max", "geometry.k_radius", "geometry.rho1", "scan.phi0",
        "scan.phase_count", "outputs.basename",
    ])
    def test_null_is_a_type_violation(self, path):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(_minimal_with(path, None)))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"{path}: expected ")
        assert err.value.violations[0].endswith("got None")

    @pytest.mark.parametrize("bound", ["start", "stop", "count"])
    def test_missing_or_null_range_bound_reported_once(self, bound):
        for value in ("absent", None):
            doc = json.loads(MINIMAL)
            if value == "absent":
                del doc["scan"]["kz_range"][bound]
            else:
                doc["scan"]["kz_range"][bound] = value
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(doc))
            assert len(err.value.violations) == 1
            assert err.value.violations[0].startswith(f"scan.kz_range.{bound}: ")

    def test_null_dipole_and_range_rejected(self):
        for dipole in ({"orientation": None}, {"vector": None}):
            doc = dict(json.loads(MINIMAL), dipole=dipole)
            with pytest.raises(ConfigError, match="dipole"):
                parse_config(json.dumps(doc))
        doc = json.loads(MINIMAL)
        doc["scan"]["kz_range"] = None
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.violations == ["scan.kz_range: expected an object with start/stop/count"]

    @pytest.mark.parametrize("path,value", [
        ("scan.rhos", [False, 0.5]), ("scan.point", [True, 0, 0]),
        ("dipole.vector", [True, 0, 0]), ("numerics.l_max", True),
    ])
    def test_booleans_are_not_numbers(self, path, value):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(_minimal_with(path, value)))
        assert [v.split(":")[0] for v in err.value.violations] == [path]

    @pytest.mark.parametrize("path,literal", [
        ("scan.phi0", "NaN"), ("scan.phi0", "-Infinity"), ("geometry.k_radius", "Infinity"),
        ("geometry.k_delta", "1e400"), ("scan.kz_range.stop", "NaN"),
        ("scan.point", "[NaN, 0, 0]"), ("numerics.l_max", "9" * 400),
    ], ids=lambda v: v if len(v) < 20 else "400-digits")
    def test_non_finite_numbers_rejected(self, path, literal):
        text = json.dumps(_minimal_with(path, "@")).replace('"@"', literal)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [v.split(":")[0] for v in err.value.violations] == [path]

    def test_undecodable_documents_are_config_errors(self):
        for text in ('{"scan": {"kind": "airy-check", "phase_count": ' + "9" * 5000 + "}}",
                     "[" * 100_000):
            with pytest.raises(ConfigError, match="JSON parse error"):
                parse_config(text)

    @pytest.mark.parametrize("basename", ["", "a/b", "a\0b"])
    def test_basename_must_be_a_plain_file_stem(self, basename):
        with pytest.raises(ConfigError, match="outputs.basename"):
            parse_config(json.dumps(_minimal_with("outputs.basename", basename)))

    def test_vector_dipole_roundtrip(self):
        doc = json.loads(MINIMAL)
        for vector in ([1, 1, 0], [0.3, 0.4, 0.5], [0, 0, 2]):
            doc["dipole"] = {"vector": vector}
            cfg = parse_config(json.dumps(doc))
            assert parse_config(serialize_config(cfg)) == cfg

    def test_airy_check_fields_of_other_kinds_roundtrip(self):
        doc = json.loads(MINIMAL)
        doc["scan"].update(rhos=[0.5], phase_count=5)
        cfg = parse_config(json.dumps(doc))
        assert (cfg.scan.rhos, cfg.scan.phase_count) == ((0.1, 0.5, 0.9, 0.98), 32)
        assert parse_config(serialize_config(cfg)) == cfg


# config_hash of every preset, frozen before the serialization was derived
# from the dataclasses; a change here changes the provenance of every run
PRESET_HASHES = {
    "center-enhancement": "ffc72c81a506d6d3a9821183ceaabdd08836dd1af969681982fa0f9efe56662e",
    "detuning-sweep": "e3462d975b3797e584d16a931a05c39a720b9e4033434d16af36a4fd97d8c140",
    "axial-profile": "7ea4740f187d27b8de2ff5ceeb8e9124d724a23b96193e29137537d1f4530563",
    "ray-vs-full": "abd0fb3d957c527d95904633e982de9f13e7697722aabfed861a9c6b3f70a781",
    "defocus-study": "acf9f36e836bb59c7e1b3d655686bca3d3b7b99baf0c37f8c729b105e5604119",
    "airy-check": "2fb2ef5e4e493d764c5d7fe56d123d352ada7c2bca2985562abe64a9f5abaac4",
}


def test_preset_config_hashes_pinned():
    assert {name: config_hash(preset_config(name)) for name in PRESETS} == PRESET_HASHES


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6))


def _mixed(plausible):
    """Nineteen plausible values to one arbitrary scalar (one_of would flatten
    the scalar strategies into branches of their own and outweigh plausible)."""
    return st.sampled_from([plausible] * 19 + [_SCALARS]).flatmap(lambda s: s)


def _object(keys, required=()):
    return st.fixed_dictionaries({key: _mixed(keys[key]) for key in required},
                                 optional={key: _mixed(v) for key, v in keys.items()
                                           if key not in required})


_NUMBER = st.floats(-1.0, 1.0)
_RANGE = _object({"start": _NUMBER, "stop": _NUMBER, "count": st.integers(2, 5)},
                 required=("start", "stop", "count"))
_VECTOR = st.lists(_mixed(st.floats(-5.0, 5.0)), min_size=3, max_size=3)
# plausible values of every known key of every section
_KNOWN_KEYS = {
    "geometry": {"k_radius": st.floats(0.5, 1e6), "theta_m1": st.floats(0.0, 1.5),
                 "theta_m2": st.floats(0.0, 1.5), "rho1": st.floats(0.0, 1.0),
                 "rho2": st.floats(0.0, 1.0), "k_delta": _NUMBER},
    "dipole": {"orientation": st.sampled_from(["parallel", "perpendicular", "isotropic"]),
               "vector": _VECTOR},
    "scan": {"kind": st.sampled_from(SCAN_KINDS), "phi0": _NUMBER, "point": _VECTOR,
             "phi0_range": _RANGE, "kz_range": _RANGE, "kx_range": _RANGE,
             "rhos": st.lists(_mixed(st.floats(0.0, 0.99)), min_size=1, max_size=4),
             "phase_count": st.integers(2, 64)},
    "numerics": {"l_max": st.integers(0, 400), "polar_order": st.integers(2, 100),
                 "azimuthal_order": st.integers(2, 100), "tail_tol": st.floats(1e-12, 1.0)},
    "outputs": {"basename": st.text("abc.-_", min_size=1, max_size=6),
                "formats": st.lists(st.sampled_from(["csv", "json"]), max_size=2),
                "plot_script": st.booleans()},
}
# documents built from the known keys; the scan section and its kind are
# always there, so that a fair share of the documents is valid
_DOCUMENTS = _object(
    {section: (_object(keys, required=("kind",)) if section == "scan" else _object(keys))
     for section, keys in _KNOWN_KEYS.items()},
    required=("scan",))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DOCUMENTS)
def test_any_document_is_rejected_or_roundtrips(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


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
