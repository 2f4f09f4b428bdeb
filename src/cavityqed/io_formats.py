"""Scenario configuration, result tables and plot-script emission.

Configurations are JSON documents validated into frozen dataclasses; result
tables carry a provenance block (configuration hash, package version, method
tags) sufficient to re-run the scenario exactly. CSV output follows RFC 4180
with units bracketed into the header names and 17-significant-digit floats,
so every value round-trips bit-exactly. Plot scripts target gnuplot and
reference the written data file rather than embedding data.

The dataclasses below are the one statement of the scenario format: each
JSON key is the name of a field, and each default is the field's default.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields

from . import __version__
from .structures import CavityGeometry, DipoleOrientation

__all__ = [
    "ConfigError",
    "ScanRange",
    "ScanSpec",
    "NumericsConfig",
    "OutputConfig",
    "ScenarioConfig",
    "parse_config",
    "serialize_config",
    "config_to_dict",
    "config_hash",
    "Column",
    "ResultTable",
    "write_table",
    "read_table_json",
    "emit_plot_script",
    "SCAN_KINDS",
]

# scan kind -> the range it scans (None: the kind scans no range); the
# kinds are also the plot kinds
_KIND_RANGE = {
    "detuning-sweep": "phi0_range",
    "axial-profile": "kz_range",
    "radial-map": "kx_range",
    "compare": "kz_range",
    "defocus-study": "phi0_range",
    "airy-check": None,
}
SCAN_KINDS = tuple(_KIND_RANGE)


class ConfigError(ValueError):
    """Invalid configuration; carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class ScanRange:
    start: float
    stop: float
    count: int


@dataclass(frozen=True)
class ScanSpec:
    kind: str
    phi0: float = 0.0
    point: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phi0_range: ScanRange | None = None
    kz_range: ScanRange | None = None
    kx_range: ScanRange | None = None
    # read by airy-check only; other kinds keep the defaults
    rhos: tuple[float, ...] = (0.1, 0.5, 0.9, 0.98)
    phase_count: int = 32


@dataclass(frozen=True)
class NumericsConfig:
    l_max: int = 150
    polar_order: int = 64
    azimuthal_order: int = 32
    tail_tol: float = 1e-8


@dataclass(frozen=True)
class OutputConfig:
    basename: str = "result"
    formats: tuple[str, ...] = ("csv", "json")
    plot_script: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: CavityGeometry
    dipole: DipoleOrientation
    scan: ScanSpec
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)


def _keys(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _reject_unknown(d, allowed, path, errors):
    for key in sorted(set(d) - set(allowed)):
        errors.append(f"{path}.{key}: unknown key")


def _section(raw, name, allowed, errors) -> dict:
    """raw[name] as an object ({} when absent), its unknown keys flagged."""
    d = raw.get(name, {})
    if not isinstance(d, dict):
        errors.append(f"{name}: expected an object")
        return {}
    _reject_unknown(d, allowed, name, errors)
    return d


def _number(v, types=(int, float)) -> bool:
    """v is of types and a finite double; a boolean is not a number."""
    try:
        return isinstance(v, types) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the double range
        return False


def _get(d, key, default, errors, path, types, constraint=None, describe=""):
    """d[key], or default when the key is absent or (violation collected) its
    value is invalid. An explicit null is invalid, as any other wrong type."""
    if key not in d:
        return default
    v = d[key]
    if not (isinstance(v, str) if types is str else _number(v, types)):
        errors.append(f"{path}.{key}: expected {describe or types}, got {v!r}")
        return default
    if constraint is not None and not constraint(v):
        errors.append(f"{path}.{key}: constraint violated ({describe}), got {v!r}")
        return default
    return v


def _parse_range(s, key, errors):
    if key not in s:
        return None
    path = f"scan.{key}"
    raw = s[key]
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected an object with start/stop/count")
        return None
    _reject_unknown(raw, _keys(ScanRange), path, errors)
    start = _get(raw, "start", None, errors, path, (int, float), describe="number")
    stop = _get(raw, "stop", None, errors, path, (int, float), describe="number")
    count = _get(raw, "count", None, errors, path, int,
                 constraint=lambda c: c >= 2, describe="integer >= 2")
    errors.extend(f"{path}.{name}: required" for name in _keys(ScanRange) if name not in raw)
    if None in (start, stop, count):
        return None
    return ScanRange(float(start), float(stop), count)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration.

    Collects every violation before failing, unknown keys at any level
    included; parse errors report the position from the JSON decoder.
    Non-finite numbers (NaN, Infinity, or literals beyond the double range)
    and explicit nulls are violations of the key that holds them.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    except (ValueError, RecursionError) as exc:  # a huge integer literal, or deep nesting
        raise ConfigError([f"JSON parse error: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    errors: list[str] = []

    g = _section(raw, "geometry", _keys(CavityGeometry), errors)
    k_radius = _get(g, "k_radius", 1e5, errors, "geometry", (int, float),
                    constraint=lambda v: v > 0, describe="positive number")
    theta_m1 = _get(g, "theta_m1", math.pi / 4, errors, "geometry", (int, float),
                    constraint=lambda v: 0 <= v <= math.pi / 2, describe="radians in [0, pi/2]")
    theta_m2 = _get(g, "theta_m2", theta_m1, errors, "geometry", (int, float),
                    constraint=lambda v: 0 <= v <= math.pi / 2, describe="radians in [0, pi/2]")
    rho1 = _get(g, "rho1", 0.98, errors, "geometry", (int, float),
                constraint=lambda v: 0 <= v <= 1, describe="reflectivity out of [0,1]")
    rho2 = _get(g, "rho2", rho1, errors, "geometry", (int, float),
                constraint=lambda v: 0 <= v <= 1, describe="reflectivity out of [0,1]")
    k_delta = _get(g, "k_delta", CavityGeometry.k_delta, errors, "geometry", (int, float),
                   describe="number")

    # DipoleOrientation's fields are tag and vector; the JSON keys differ
    d = _section(raw, "dipole", ("orientation", "vector"), errors)
    dipole = None
    if "orientation" in d and "vector" in d:
        errors.append("dipole: provide exactly one of orientation or vector")
    elif "vector" in d:
        try:
            if isinstance(d["vector"], list) and any(isinstance(c, bool) for c in d["vector"]):
                raise TypeError(f"expected three numbers, got {d['vector']!r}")
            dipole = DipoleOrientation.along(d["vector"])
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append(f"dipole.vector: {exc}")
    else:
        try:
            dipole = DipoleOrientation(tag=d.get("orientation", "isotropic"))
        except ValueError as exc:
            errors.append(f"dipole.orientation: {exc}")

    s = _section(raw, "scan", _keys(ScanSpec), errors)
    kind = s.get("kind")
    if kind not in SCAN_KINDS:
        errors.append(f"scan.kind: expected one of {SCAN_KINDS}, got {kind!r}")
        kind = "axial-profile"
    point = s.get("point", ScanSpec.point)
    if (not isinstance(point, (list, tuple)) or len(point) != 3
            or not all(_number(c) for c in point)):
        errors.append(f"scan.point: expected three numbers, got {point!r}")
        point = ScanSpec.point
    phi0 = _get(s, "phi0", ScanSpec.phi0, errors, "scan", (int, float), describe="number")
    ranges = {key: _parse_range(s, key, errors)
              for key in _keys(ScanSpec) if key.endswith("_range")}
    rhos = s.get("rhos", ScanSpec.rhos)
    if (not isinstance(rhos, (list, tuple)) or not rhos
            or not all(_number(r) and 0 <= r < 1 for r in rhos)):
        errors.append(f"scan.rhos: expected nonempty reflectivities in [0,1), got {rhos!r}")
        rhos = ScanSpec.rhos
    phase_count = _get(s, "phase_count", ScanSpec.phase_count, errors, "scan", int,
                       constraint=lambda v: v >= 2, describe="integer >= 2")
    if kind != "airy-check":  # config_to_dict leaves them out
        rhos, phase_count = ScanSpec.rhos, ScanSpec.phase_count
    needed = _KIND_RANGE[kind]
    if needed and needed not in s:
        errors.append(f"scan.{needed}: required for kind {kind!r}")

    n = _section(raw, "numerics", _keys(NumericsConfig), errors)
    numerics = NumericsConfig(
        l_max=_get(n, "l_max", NumericsConfig.l_max, errors, "numerics", int,
                   constraint=lambda v: v >= 0, describe="integer >= 0"),
        polar_order=_get(n, "polar_order", NumericsConfig.polar_order, errors, "numerics", int,
                         constraint=lambda v: v >= 2, describe="integer >= 2"),
        azimuthal_order=_get(n, "azimuthal_order", NumericsConfig.azimuthal_order, errors,
                             "numerics", int, constraint=lambda v: v >= 2,
                             describe="integer >= 2"),
        tail_tol=float(_get(n, "tail_tol", NumericsConfig.tail_tol, errors, "numerics",
                            (int, float), constraint=lambda v: v > 0,
                            describe="positive number")),
    )

    o = _section(raw, "outputs", _keys(OutputConfig), errors)
    basename = _get(o, "basename", OutputConfig.basename, errors, "outputs", str,
                    constraint=lambda v: v and "/" not in v and "\0" not in v,
                    describe="plain file stem")
    formats = o.get("formats", OutputConfig.formats)
    if (not isinstance(formats, (list, tuple))
            or not all(f in ("csv", "json") for f in formats)):
        errors.append(f"outputs.formats: expected subset of ['csv','json'], got {formats!r}")
        formats = OutputConfig.formats
    plot_script = o.get("plot_script", OutputConfig.plot_script)
    if not isinstance(plot_script, bool):
        errors.append(f"outputs.plot_script: expected boolean, got {plot_script!r}")
        plot_script = OutputConfig.plot_script

    for key in sorted(set(raw) - set(_keys(ScenarioConfig))):
        errors.append(f"{key}: unknown top-level section")

    geometry = None
    if not errors:
        try:
            geometry = CavityGeometry(k_radius, theta_m1, theta_m2, rho1, rho2, k_delta)
        except ValueError as exc:
            errors.append(f"geometry: {exc}")
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        geometry=geometry,
        dipole=dipole,
        scan=ScanSpec(kind=kind, phi0=float(phi0), point=tuple(float(c) for c in point),
                      **ranges, rhos=tuple(float(r) for r in rhos), phase_count=phase_count),
        numerics=numerics,
        outputs=OutputConfig(basename, tuple(formats), plot_script),
    )


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready form of cfg. Unset ranges are left out, and so are rhos and
    phase_count outside airy-check."""
    d = asdict(cfg)
    d["dipole"] = ({"orientation": cfg.dipole.tag} if cfg.dipole.tag is not None
                   else {"vector": list(cfg.dipole.vector)})
    d["scan"] = {key: v for key, v in d["scan"].items() if v is not None}
    if cfg.scan.kind != "airy-check":
        del d["scan"]["rhos"], d["scan"]["phase_count"]
    return d


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON form; parse_config(serialize_config(cfg)) == cfg."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2)


def config_hash(cfg: ScenarioConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# result tables


@dataclass(frozen=True)
class Column:
    name: str
    unit: str = ""

    @property
    def header(self) -> str:
        return f"{self.name} [{self.unit}]" if self.unit else self.name


@dataclass
class ResultTable:
    columns: tuple[Column, ...]
    rows: list[tuple]
    provenance: dict

    def __post_init__(self):
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> list:
        idx = self.column_names().index(name)
        return [row[idx] for row in self.rows]


def make_provenance(cfg: ScenarioConfig, method_tags, accuracy: dict | None = None) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "config": config_to_dict(cfg),
        "code_version": __version__,
        "methods": list(method_tags),
        "accuracy": accuracy or {},
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_table(table: ResultTable, fmt: str) -> bytes:
    """Serialize a table: 'csv' (RFC 4180, units bracketed into headers,
    17-significant-digit floats) or 'json' (schema-tagged object with the
    provenance block; floats round-trip bit-exactly)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow([c.header for c in table.columns])
        for row in table.rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        doc = {
            "schema": "cavityqed/result-table-v1",
            "provenance": table.provenance,
            "columns": [{"name": c.name, "unit": c.unit} for c in table.columns],
            "rows": [list(row) for row in table.rows],
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown table format {fmt!r}")


def read_table_json(data: bytes) -> ResultTable:
    doc = json.loads(data.decode("utf-8"))
    if doc.get("schema") != "cavityqed/result-table-v1":
        raise ValueError(f"unexpected schema {doc.get('schema')!r}")
    return ResultTable(
        columns=tuple(Column(c["name"], c.get("unit", "")) for c in doc["columns"]),
        rows=[tuple(row) for row in doc["rows"]],
        provenance=doc["provenance"],
    )


# --------------------------------------------------------------------------
# plot scripts (gnuplot)

_GNUPLOT_HEADER = """\
# gnuplot script generated by cavityqed {version}
# data: {data}
set datafile separator ','
set key autotitle columnhead
set grid
"""


def emit_plot_script(table: ResultTable, plot_kind: str, data_filename: str) -> str:
    """Standalone gnuplot script for a written data file; never embeds data."""
    if plot_kind not in SCAN_KINDS:
        raise ValueError(f"unknown plot kind {plot_kind!r}; expected one of {SCAN_KINDS}")
    names = table.column_names()

    def q(name):
        if name not in names:
            raise ValueError(f"table lacks columns {[name]} required by plot kind {plot_kind!r}")
        return names.index(name) + 1

    head = _GNUPLOT_HEADER.format(version=table.provenance.get("code_version", "?"),
                                  data=data_filename)
    if plot_kind == "detuning-sweep":
        body = f"""\
set multiplot layout 1,2
set xlabel 'detuning phase [rad]'
set ylabel 'damping ratio'
plot '{data_filename}' every ::1 using {q("phi0")}:{q("gamma_perpendicular")} with lines title 'perpendicular', \\
     '' every ::1 using {q("phi0")}:{q("gamma_parallel")} with lines title 'parallel'
set ylabel 'level-shift ratio'
plot '{data_filename}' every ::1 using {q("phi0")}:{q("shift_perpendicular")} with lines title 'perpendicular', \\
     '' every ::1 using {q("phi0")}:{q("shift_parallel")} with lines title 'parallel'
unset multiplot
"""
    elif plot_kind in ("axial-profile", "radial-map"):
        axis = "kz" if plot_kind == "axial-profile" else "kx"
        body = f"""\
set multiplot layout 1,2
set xlabel '{axis} [1/k]'
set ylabel 'damping ratio'
plot '{data_filename}' every ::1 using {q(axis)}:{q("gamma_ratio")} with lines title 'damping'
set ylabel 'level-shift ratio'
plot '{data_filename}' every ::1 using {q(axis)}:{q("shift_ratio")} with lines title 'shift'
unset multiplot
"""
    elif plot_kind == "compare":
        body = f"""\
set xlabel 'kz [1/k]'
set ylabel 'vacuum-fluctuation ratio'
plot '{data_filename}' every ::1 using {q("kz")}:{q("enhancement_full")} with lines title 'full operator', \\
     '' every ::1 using {q("kz")}:{q("enhancement_ray")} with lines title 'corrected ray'
"""
    elif plot_kind == "defocus-study":
        body = f"""\
set xlabel 'detuning phase [rad]'
set ylabel 'vacuum-fluctuation ratio'
plot '{data_filename}' every ::1 using {q("phi0")}:{q("enhancement_reference")} with lines title 'aligned', \\
     '' every ::1 using {q("phi0")}:{q("enhancement_defocused")} with lines title 'defocused'
"""
    else:
        body = f"""\
set xlabel 'phase [rad]'
set ylabel 'relative error vs quadrature oracle'
set logscale y
plot '{data_filename}' every ::1 using {q("phi")}:{q("rel_err_shift")} with points title 'shift kernel', \\
     '' every ::1 using {q("phi")}:{q("rel_err_shift_cos")} with points title 'cos-weighted', \\
     '' every ::1 using {q("phi")}:{q("rel_err_shift_sin")} with points title 'sin-weighted'
"""
    return head + body
