"""Scenario configuration, result tables and plot-script emission.

Configurations are JSON documents validated into frozen dataclasses; result
tables carry a provenance block (configuration hash, package version, method
tags) sufficient to re-run the scenario exactly. CSV output follows RFC 4180
with units bracketed into the header names and 17-significant-digit floats,
so every value round-trips bit-exactly. Plot scripts target gnuplot and
reference the written data file rather than embedding data.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

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
    "PLOT_KINDS",
]

SCAN_KINDS = (
    "detuning-sweep",
    "axial-profile",
    "radial-map",
    "compare",
    "defocus-study",
    "airy-check",
)


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


def _reject_unknown(d, allowed, path, errors):
    for key in sorted(set(d) - set(allowed)):
        errors.append(f"{path}.{key}: unknown key")


def _get(d, key, default, errors, path, types, constraint=None, describe=""):
    v = d.get(key, default)
    if v is None:
        return None
    if not isinstance(v, types) or isinstance(v, bool):
        errors.append(f"{path}.{key}: expected {describe or types}, got {v!r}")
        return default
    if constraint is not None and not constraint(v):
        errors.append(f"{path}.{key}: constraint violated ({describe}), got {v!r}")
        return default
    return v


def _parse_range(d, key, errors, path):
    raw = d.get(key)
    if raw is None:
        return None
    if not isinstance(raw, dict):
        errors.append(f"{path}.{key}: expected an object with start/stop/count")
        return None
    _reject_unknown(raw, ("start", "stop", "count"), f"{path}.{key}", errors)
    sub = []
    start = _get(raw, "start", None, sub, f"{path}.{key}", (int, float), describe="number")
    stop = _get(raw, "stop", None, sub, f"{path}.{key}", (int, float), describe="number")
    count = _get(raw, "count", None, sub, f"{path}.{key}", int,
                 constraint=lambda c: c >= 2, describe="integer >= 2")
    errors.extend(sub)
    for name, v in (("start", start), ("stop", stop), ("count", count)):
        if v is None:
            errors.append(f"{path}.{key}.{name}: required")
    if sub or start is None or stop is None or count is None:
        return None
    return ScanRange(float(start), float(stop), int(count))


_RANGE_REQUIRED = {
    "detuning-sweep": "phi0_range",
    "axial-profile": "kz_range",
    "radial-map": "kx_range",
    "compare": "kz_range",
    "defocus-study": "phi0_range",
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration.

    Collects every violation before failing, unknown keys at any level
    included; parse errors report the position from the JSON decoder.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    errors: list[str] = []

    g = raw.get("geometry", {})
    if not isinstance(g, dict):
        errors.append("geometry: expected an object")
        g = {}
    _reject_unknown(g, ("k_radius", "theta_m1", "theta_m2", "rho1", "rho2", "k_delta"),
                    "geometry", errors)
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
    k_delta = _get(g, "k_delta", 0.0, errors, "geometry", (int, float), describe="number")

    d = raw.get("dipole", {})
    if not isinstance(d, dict):
        errors.append("dipole: expected an object")
        d = {}
    _reject_unknown(d, ("orientation", "vector"), "dipole", errors)
    tag = d.get("orientation")
    vec = d.get("vector")
    dipole = None
    if tag is not None and vec is not None:
        errors.append("dipole: provide exactly one of orientation or vector")
    elif vec is not None:
        try:
            dipole = DipoleOrientation.along(vec)
        except (ValueError, TypeError) as exc:
            errors.append(f"dipole.vector: {exc}")
    else:
        if tag is None:
            tag = "isotropic"
        try:
            dipole = DipoleOrientation(tag=tag)
        except ValueError as exc:
            errors.append(f"dipole.orientation: {exc}")

    s = raw.get("scan", {})
    if not isinstance(s, dict):
        errors.append("scan: expected an object")
        s = {}
    _reject_unknown(s, ("kind", "phi0", "point", "phi0_range", "kz_range", "kx_range",
                        "rhos", "phase_count"), "scan", errors)
    kind = s.get("kind")
    if kind not in SCAN_KINDS:
        errors.append(f"scan.kind: expected one of {SCAN_KINDS}, got {kind!r}")
        kind = "axial-profile"
    point = s.get("point", (0.0, 0.0, 0.0))
    if (not isinstance(point, (list, tuple)) or len(point) != 3
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in point)):
        errors.append(f"scan.point: expected three numbers, got {point!r}")
        point = (0.0, 0.0, 0.0)
    phi0 = _get(s, "phi0", 0.0, errors, "scan", (int, float), describe="number")
    phi0_range = _parse_range(s, "phi0_range", errors, "scan")
    kz_range = _parse_range(s, "kz_range", errors, "scan")
    kx_range = _parse_range(s, "kx_range", errors, "scan")
    rhos = s.get("rhos", (0.1, 0.5, 0.9, 0.98))
    if (not isinstance(rhos, (list, tuple)) or not rhos
            or not all(isinstance(r, (int, float)) and 0 <= r < 1 for r in rhos)):
        errors.append(f"scan.rhos: expected nonempty reflectivities in [0,1), got {rhos!r}")
        rhos = (0.1, 0.5, 0.9, 0.98)
    phase_count = _get(s, "phase_count", 32, errors, "scan", int,
                       constraint=lambda v: v >= 2, describe="integer >= 2")
    needed = _RANGE_REQUIRED.get(kind)
    if needed and s.get(needed) is None:
        errors.append(f"scan.{needed}: required for kind {kind!r}")

    n = raw.get("numerics", {})
    if not isinstance(n, dict):
        errors.append("numerics: expected an object")
        n = {}
    _reject_unknown(n, ("l_max", "polar_order", "azimuthal_order", "tail_tol"),
                    "numerics", errors)
    l_max = _get(n, "l_max", 150, errors, "numerics", int,
                 constraint=lambda v: v >= 0, describe="integer >= 0")
    polar_order = _get(n, "polar_order", 64, errors, "numerics", int,
                       constraint=lambda v: v >= 2, describe="integer >= 2")
    azimuthal_order = _get(n, "azimuthal_order", 32, errors, "numerics", int,
                           constraint=lambda v: v >= 2, describe="integer >= 2")
    tail_tol = _get(n, "tail_tol", 1e-8, errors, "numerics", (int, float),
                    constraint=lambda v: v > 0, describe="positive number")

    o = raw.get("outputs", {})
    if not isinstance(o, dict):
        errors.append("outputs: expected an object")
        o = {}
    _reject_unknown(o, ("basename", "formats", "plot_script"), "outputs", errors)
    basename = _get(o, "basename", "result", errors, "outputs", str,
                    constraint=lambda v: v and "/" not in v, describe="plain file stem")
    formats = o.get("formats", ("csv", "json"))
    if (not isinstance(formats, (list, tuple))
            or not all(f in ("csv", "json") for f in formats)):
        errors.append(f"outputs.formats: expected subset of ['csv','json'], got {formats!r}")
        formats = ("csv", "json")
    plot_script = o.get("plot_script", True)
    if not isinstance(plot_script, bool):
        errors.append(f"outputs.plot_script: expected boolean, got {plot_script!r}")
        plot_script = True

    unknown = set(raw) - {"geometry", "dipole", "scan", "numerics", "outputs"}
    for key in sorted(unknown):
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
        scan=ScanSpec(
            kind=kind,
            phi0=float(phi0),
            point=tuple(float(c) for c in point),
            phi0_range=phi0_range,
            kz_range=kz_range,
            kx_range=kx_range,
            rhos=tuple(float(r) for r in rhos),
            phase_count=int(phase_count),
        ),
        numerics=NumericsConfig(int(l_max), int(polar_order), int(azimuthal_order), float(tail_tol)),
        outputs=OutputConfig(basename, tuple(formats), plot_script),
    )


def config_to_dict(cfg: ScenarioConfig) -> dict:
    g = cfg.geometry
    d: dict = {
        "geometry": {
            "k_radius": g.k_radius,
            "theta_m1": g.theta_m1,
            "theta_m2": g.theta_m2,
            "rho1": g.rho1,
            "rho2": g.rho2,
            "k_delta": g.k_delta,
        },
        "dipole": (
            {"orientation": cfg.dipole.tag}
            if cfg.dipole.tag is not None
            else {"vector": list(cfg.dipole.vector)}
        ),
        "scan": {"kind": cfg.scan.kind, "phi0": cfg.scan.phi0,
                 "point": list(cfg.scan.point)},
        "numerics": {
            "l_max": cfg.numerics.l_max,
            "polar_order": cfg.numerics.polar_order,
            "azimuthal_order": cfg.numerics.azimuthal_order,
            "tail_tol": cfg.numerics.tail_tol,
        },
        "outputs": {
            "basename": cfg.outputs.basename,
            "formats": list(cfg.outputs.formats),
            "plot_script": cfg.outputs.plot_script,
        },
    }
    for key in ("phi0_range", "kz_range", "kx_range"):
        r = getattr(cfg.scan, key)
        if r is not None:
            d["scan"][key] = {"start": r.start, "stop": r.stop, "count": r.count}
    if cfg.scan.kind == "airy-check":
        d["scan"]["rhos"] = list(cfg.scan.rhos)
        d["scan"]["phase_count"] = cfg.scan.phase_count
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

PLOT_KINDS = (
    "detuning-sweep",
    "axial-profile",
    "radial-map",
    "compare",
    "defocus-study",
    "airy-check",
)

_REQUIRED_COLUMNS = {
    "detuning-sweep": ("phi0", "gamma_parallel", "gamma_perpendicular",
                       "shift_parallel", "shift_perpendicular"),
    "axial-profile": ("kz", "gamma_ratio", "shift_ratio"),
    "radial-map": ("kx", "gamma_ratio", "shift_ratio"),
    "compare": ("kz", "enhancement_full", "enhancement_ray"),
    "defocus-study": ("phi0", "enhancement_reference", "enhancement_defocused"),
    "airy-check": ("phi", "rel_err_shift", "rel_err_shift_cos", "rel_err_shift_sin"),
}

_GNUPLOT_HEADER = """\
# gnuplot script generated by cavityqed {version}
# data: {data}
set datafile separator ','
set key autotitle columnhead
set grid
"""


def _col_index(table: ResultTable, name: str) -> int:
    return table.column_names().index(name) + 1


def emit_plot_script(table: ResultTable, plot_kind: str, data_filename: str) -> str:
    """Standalone gnuplot script for a written data file; never embeds data."""
    if plot_kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {plot_kind!r}; expected one of {PLOT_KINDS}")
    required = _REQUIRED_COLUMNS[plot_kind]
    missing = [c for c in required if c not in table.column_names()]
    if missing:
        raise ValueError(f"table lacks columns {missing} required by plot kind {plot_kind!r}")
    head = _GNUPLOT_HEADER.format(version=table.provenance.get("code_version", "?"),
                                  data=data_filename)
    q = lambda name: _col_index(table, name)
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
