import csv
import dataclasses
import json
import math
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavityqed import cli
from cavityqed.io_formats import (
    _KIND_RANGE,
    SCAN_KINDS,
    Column,
    ConfigError,
    Plot,
    ResultTable,
    config_hash,
    config_to_dict,
    emit_plot_script,
    make_provenance,
    parse_config,
    write_table,
)
from cavityqed.presets import PRESETS, preset_config
from cavityqed.ray_model import _auto_azimuthal_order, _auto_polar_order
from oracles import read_table_json


def _dump(cfg):
    """The JSON text of the dictionary that a run's provenance block records."""
    return json.dumps(config_to_dict(cfg), sort_keys=True)


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

    def test_defocus_study_without_defocus_collected_with_the_rest(self):
        doc = {"scan": {"kind": "defocus-study",
                        "phi0_range": {"start": -0.1, "stop": 0.1, "count": 3}},
               "numerics": {"l_max": -1}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert sorted(v.split(":")[0] for v in err.value.violations) == [
            "geometry.k_delta", "numerics.l_max"]
        doc["geometry"] = {"k_delta": 0.3}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert [v.split(":")[0] for v in err.value.violations] == ["numerics.l_max"]

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
        text = _dump(cfg)
        cfg2 = parse_config(text)
        assert cfg2 == cfg
        assert _dump(cfg2) == text
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

    @pytest.mark.parametrize("path,bound", [
        ("numerics.l_max", 1000), ("scan.kz_range.count", 100_000),
        ("scan.phi0_range.count", 100_000), ("scan.kx_range.count", 100_000),
        ("scan.phase_count", 65_536), ("scan.kz_range.start", 2040),
        ("scan.kz_range.stop", 2040),
    ])
    def test_sizes_are_bounded(self, path, bound):
        # parsed only: nothing of this size runs
        def doc(value):
            d = _minimal_with(path, value)
            for key in ("phi0_range", "kx_range"):
                d["scan"].setdefault(key, {"count": 2}).update(start=0, stop=1)
            return d

        parse_config(json.dumps(doc(bound)))
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc(bound + 1)))
        assert [v.split(":")[0] for v in err.value.violations] == [path]
        assert str(bound) in err.value.violations[0]

    def test_scan_positions_are_bounded(self):
        # a far point would make the ray quadrature's automatic orders
        # explode; the bound keeps both within 4220, the azimuthal order of
        # a hemisphere-wide mirror at kr 2040
        assert _auto_polar_order(2040) <= 4220
        assert max(_auto_azimuthal_order(2040, s) for s in (0.0, 0.5, 1.0)) == 4220
        parse_config(json.dumps(_minimal_with("scan.point", [1224.0, 0.0, 1632.0])))
        for path, value in (("scan.point", [1224.0, 0.0, 1632.1]),
                            ("scan.kz_range.start", -2041), ("scan.kx_range.stop", 1e6)):
            doc = _minimal_with(path, value)
            doc["scan"]["kx_range"] = {"start": 0, "stop": 1, "count": 2,
                                       **doc["scan"].get("kx_range", {})}
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(doc))
            assert [v.split(":")[0] for v in err.value.violations] == [path]
            assert "2040" in err.value.violations[0]

    def test_undecodable_documents_are_config_errors(self):
        for text in ('{"scan": {"kind": "airy-check", "phase_count": ' + "9" * 5000 + "}}",
                     "[" * 100_000):
            with pytest.raises(ConfigError, match="JSON parse error"):
                parse_config(text)

    @pytest.mark.parametrize("basename", ["", "a/b", "a\0b"])
    def test_basename_must_be_a_plain_file_stem(self, basename):
        with pytest.raises(ConfigError, match="outputs.basename"):
            parse_config(json.dumps(_minimal_with("outputs.basename", basename)))

    @pytest.mark.parametrize("formats", [[], ["csv", "csv"], ["json", "csv", "json"],
                                         ["csv", "xml"], "csv"])
    def test_formats_must_be_distinct_known_formats(self, formats):
        # no file, or one file written twice, is not a table a run can deliver
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(_minimal_with("outputs.formats", formats)))
        assert [v.split(":")[0] for v in err.value.violations] == ["outputs.formats"]

    def test_vector_dipole_roundtrip(self):
        doc = json.loads(MINIMAL)
        for vector in ([1, 1, 0], [0.3, 0.4, 0.5], [0, 0, 2]):
            doc["dipole"] = {"vector": vector}
            cfg = parse_config(json.dumps(doc))
            assert parse_config(_dump(cfg)) == cfg

    def test_airy_check_fields_of_other_kinds_roundtrip(self):
        doc = json.loads(MINIMAL)
        doc["scan"].update(rhos=[0.5], phase_count=5)
        cfg = parse_config(json.dumps(doc))
        assert (cfg.scan.rhos, cfg.scan.phase_count) == ((0.1, 0.5, 0.9, 0.98), 32)
        assert parse_config(_dump(cfg)) == cfg


# config_hash of every preset; a change here changes the provenance of
# every run
PRESET_HASHES = {
    "center-enhancement": "db133797e06b853e64a9a9fd96186bd82abe6cdd48eeea889b16f7e25cfa5276",
    "detuning-sweep": "9bd27182acebba9673c574007045acd9282d21bc64a30af4790aa80abc7e7019",
    "axial-profile": "9273047a86cab78940ef618e21cb5668457990618263f5b8d5844a56dacc8cbb",
    "ray-vs-full": "1cff82c6161f47bfee00bc79e5c96318a6ce11577ae6de22781ba39215eda4c9",
    "defocus-study": "21819483cde0344170244f1a4bc5bff98a0d2601ce0456739c4bf09aa67f9f05",
    "airy-check": "12e283f15f9aba40af07076374659ad04a4901cb217c1b859e54424c7d3c5e95",
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
    "numerics": {"l_max": st.integers(0, 400)},
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
    text = _dump(cfg)
    assert parse_config(text) == cfg
    assert _dump(parse_config(text)) == text


def _valid(keys, required=()):
    """An object of plausible values only, each key valid on its own."""
    return st.fixed_dictionaries({key: keys[key] for key in required},
                                 optional={key: v for key, v in keys.items()
                                           if key not in required})


_VALID_RANGE = st.fixed_dictionaries({"start": _NUMBER, "stop": _NUMBER,
                                      "count": st.integers(2, 5)})
# kR >= 1e3 and rho <= 0.99 bound the ray route's diffraction correction
# 1/sqrt(kR (1 - rho_av^2)) by 0.224, below every nonzero aperture drawn
_APERTURE = st.one_of(st.just(0.0), st.floats(0.3, 1.5))
_RAY_GEOMETRY = {"k_radius": st.floats(1e3, 1e6), "theta_m1": _APERTURE,
                 "theta_m2": _APERTURE, "rho1": st.floats(0.0, 0.99),
                 "rho2": st.floats(0.0, 0.99), "k_delta": _NUMBER}
_VALID_SCAN = {"phi0": _NUMBER, "point": st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
               "phi0_range": _VALID_RANGE, "kz_range": _VALID_RANGE, "kx_range": _VALID_RANGE,
               "rhos": st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4),
               "phase_count": st.integers(2, 64)}
# _KNOWN_KEYS["outputs"] draws any list of formats; a valid one is nonempty
# and holds each format once
_VALID_OUTPUTS = dict(_KNOWN_KEYS["outputs"], formats=st.lists(
    st.sampled_from(["csv", "json"]), min_size=1, max_size=2, unique=True))
_VALID_DIPOLE = st.one_of(
    _valid({"orientation": _KNOWN_KEYS["dipole"]["orientation"]}),
    st.fixed_dictionaries({"vector": st.lists(st.floats(-5.0, 5.0), min_size=3,
                                              max_size=3).filter(any)}))


def _runnable(kind):
    """Documents of one scan kind that parse: the range the kind requires,
    a nonzero defocus for defocus-study, and on the ray route (every kind
    but airy-check) a geometry whose apertures survive the diffraction
    correction."""
    geometry = dict(_KNOWN_KEYS["geometry"] if kind == "airy-check" else _RAY_GEOMETRY)
    geometry_keys, sections = (), ("scan",)
    if kind == "defocus-study":
        geometry["k_delta"] = st.one_of(st.floats(-1.0, -0.05), st.floats(0.05, 1.0))
        geometry_keys, sections = ("k_delta",), ("scan", "geometry")
    scan_keys = ("kind", _KIND_RANGE[kind]) if _KIND_RANGE[kind] else ("kind",)
    return _valid({"geometry": _valid(geometry, geometry_keys),
                   "scan": _valid(dict(_VALID_SCAN, kind=st.just(kind)), scan_keys),
                   "dipole": _VALID_DIPOLE, "numerics": _valid(_KNOWN_KEYS["numerics"]),
                   "outputs": _valid(_VALID_OUTPUTS)}, sections)


# three documents in four are valid by construction, one in four is drawn
# from the whole space of _DOCUMENTS, where most are rejected
_ACCEPTABLE = st.sampled_from([st.sampled_from(SCAN_KINDS).flatmap(_runnable)] * 3
                              + [_DOCUMENTS]).flatmap(lambda s: s)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(doc=_ACCEPTABLE)
def test_any_accepted_document_runs_to_finite_rows_or_a_documented_exit(doc, tmp_path_factory):
    # the examples counted are the accepted documents, each run end to end
    try:
        parse_config(json.dumps(doc))
    except ConfigError:
        assume(False)
    out = tmp_path_factory.mktemp("run")
    config = out / "scenario.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    if code != cli.EXIT_OK:
        return
    for path in out.glob("*.csv"):
        for row in list(csv.reader(path.open(newline="", encoding="utf-8")))[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a text column
                assert math.isfinite(value), (path.name, row)


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_refused(self, fmt, bad):
        t = _table()
        t.rows = [t.rows[0], (1.0, bad, 0.0, "ray")]
        with pytest.raises(FloatingPointError, match="gamma_ratio.*row 1"):
            write_table(t, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            write_table(_table(), "parquet")


COMPARE_PLOT = Plot("kz", "kz [1/k]", (("vacuum-fluctuation ratio",
                                         (("enhancement_full", "full operator"),
                                          ("enhancement_ray", "corrected ray"))),))

class TestPlotScripts:
    def test_compare_overlay(self):
        cfg = parse_config(BENCHMARK_CONFIG)
        cols = (Column("kz", "1/k"), Column("enhancement_full", "ratio"),
                Column("enhancement_ray", "ratio"))
        t = ResultTable(cols, [(0.0, 29.29, 29.30)], make_provenance(cfg, ["full", "ray"]))
        script = emit_plot_script(t, COMPARE_PLOT, "benchmark.csv")
        assert "benchmark.csv" in script
        assert "full operator" in script and "corrected ray" in script
        assert "29.29" not in script  # data is referenced, never embedded

    def test_two_panels_are_a_multiplot(self):
        cfg = parse_config(BENCHMARK_CONFIG)
        cols = tuple(Column(n) for n in ("phi0", "gamma", "shift"))
        t = ResultTable(cols, [], make_provenance(cfg, ["ray"]))
        plot = Plot("phi0", "phase", (("damping", (("gamma", "g"),)),
                                      ("shift", (("shift", "s"),))))
        script = emit_plot_script(t, plot, "d.csv")
        assert "multiplot layout 1,2" in script
        assert script.count("plot 'd.csv'") == 2
        assert "multiplot" not in emit_plot_script(t, dataclasses.replace(
            plot, panels=plot.panels[:1]), "d.csv")
