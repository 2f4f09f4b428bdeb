"""Scenario configuration, result tables and plot-script emission.

Configurations are JSON documents validated into frozen dataclasses; result
tables carry a provenance block (configuration hash, package version, method
tags) sufficient to re-run the scenario exactly. CSV output follows RFC 4180
with units bracketed into the header names and 17-significant-digit floats,
so every value round-trips bit-exactly. Plot scripts target gnuplot and
reference the written data file rather than embedding data; the scan's
executor declares what its script draws (a Plot, by column names), and
emit_plot_script renders any Plot the same way.

The dataclasses below are the one statement of the scenario format: each
JSON key is the name of a field, and each default is the field's default.
CavityGeometry is the exception: its fields other than k_delta have no
default, and parse_config supplies them (k_radius 1e5, theta_m1 pi/4,
rho1 0.98, and mirror 2 copying mirror 1's aperture and reflectivity).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields

from . import __version__
from .ray_model import (_AZIMUTHAL_ORDER_FLOOR, _POLAR_ORDER_FLOOR, ApertureCollapseError,
                        effective_aperture)
from .specfun import TAIL_TOL
from .structures import CavityGeometry, DipoleOrientation

__all__ = [
    "ConfigError",
    "ScanRange",
    "ScanSpec",
    "NumericsConfig",
    "OutputConfig",
    "ScenarioConfig",
    "parse_config",
    "config_to_dict",
    "config_hash",
    "Column",
    "ResultTable",
    "write_table",
    "Plot",
    "emit_plot_script",
    "SCAN_KINDS",
]

# scan kind -> the range it scans (None: the kind scans no range)
_KIND_RANGE = {
    "detuning-sweep": "phi0_range",
    "axial-profile": "kz_range",
    "radial-map": "kx_range",
    "compare": "kz_range",
    "defocus-study": "phi0_range",
    "airy-check": None,
}
SCAN_KINDS = tuple(_KIND_RANGE)

# upper bounds on the sizes a scenario may ask for; they keep a typing slip
# from starting hours of work or gigabytes of operator blocks
_MAX_L = 1000
_MAX_ORDER = 4096
_MAX_COUNT = 100_000
_MAX_PHASE_COUNT = 65_536
# scan positions |k r|: the ray quadrature's automatic orders grow linearly
# with kr (ray_model._auto_polar_order and _auto_azimuthal_order); this keeps
# both within _MAX_ORDER, the largest order a document may request explicitly
_MAX_KR = (_MAX_ORDER - 16) // 2


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
    polar_order: int = _POLAR_ORDER_FLOOR
    azimuthal_order: int = _AZIMUTHAL_ORDER_FLOOR
    tail_tol: float = TAIL_TOL


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
    # kz_range and kx_range scan positions k r; phi0_range scans a phase
    bounded = key != "phi0_range"
    start, stop = (_get(raw, name, None, errors, path, (int, float),
                        constraint=lambda v: not bounded or abs(v) <= _MAX_KR,
                        describe=f"number of magnitude <= {_MAX_KR}" if bounded else "number")
                   for name in ("start", "stop"))
    count = _get(raw, "count", None, errors, path, int,
                 constraint=lambda c: 2 <= c <= _MAX_COUNT,
                 describe=f"integer in [2, {_MAX_COUNT}]")
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
            or not all(_number(c) for c in point) or math.hypot(*point) > _MAX_KR):
        errors.append(f"scan.point: expected three numbers with |k r| <= {_MAX_KR}, "
                      f"got {point!r}")
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
                       constraint=lambda v: 2 <= v <= _MAX_PHASE_COUNT,
                       describe=f"integer in [2, {_MAX_PHASE_COUNT}]")
    if kind != "airy-check":  # config_to_dict leaves them out
        rhos, phase_count = ScanSpec.rhos, ScanSpec.phase_count
    needed = _KIND_RANGE[kind]
    if needed and needed not in s:
        errors.append(f"scan.{needed}: required for kind {kind!r}")
    if kind == "defocus-study" and k_delta == 0.0:
        errors.append("geometry.k_delta: defocus-study requires geometry.k_delta != 0")
    if kind == "detuning-sweep" and rho1 * rho2 == 1.0:
        errors.append("geometry.rho1: detuning-sweep requires rho1 * rho2 < 1, "
                      "as it counts detuning in linewidths")
    for i, theta in ((1, theta_m1), (2, theta_m2)):
        if kind == "airy-check" or theta == 0.0:
            continue  # no ray route, or no mirror
        try:
            effective_aperture(theta, k_radius, rho1, rho2)
        except ApertureCollapseError as exc:
            errors.append(f"geometry.theta_m{i}: {kind} runs the corrected ray route, which "
                          "shrinks each mirror by 1/sqrt(kR (1 - rho_av^2)) of "
                          f"geometry.k_radius, geometry.rho1 and geometry.rho2: {exc}")

    n = _section(raw, "numerics", _keys(NumericsConfig), errors)
    numerics = NumericsConfig(
        l_max=_get(n, "l_max", NumericsConfig.l_max, errors, "numerics", int,
                   constraint=lambda v: 0 <= v <= _MAX_L, describe=f"integer in [0, {_MAX_L}]"),
        polar_order=_get(n, "polar_order", NumericsConfig.polar_order, errors, "numerics", int,
                         constraint=lambda v: 2 <= v <= _MAX_ORDER,
                         describe=f"integer in [2, {_MAX_ORDER}]"),
        azimuthal_order=_get(n, "azimuthal_order", NumericsConfig.azimuthal_order, errors,
                             "numerics", int, constraint=lambda v: 2 <= v <= _MAX_ORDER,
                             describe=f"integer in [2, {_MAX_ORDER}]"),
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
    provenance block; floats round-trip bit-exactly). A non-finite cell
    raises FloatingPointError: no table is written with NaN or infinity."""
    for i, row in enumerate(table.rows):
        for col, v in zip(table.columns, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise FloatingPointError(f"non-finite value {v} in column {col.name!r}, row {i}")
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


# --------------------------------------------------------------------------
# plot scripts (gnuplot)


@dataclass(frozen=True)
class Plot:
    """What a table's plot script draws: column x, labelled xlabel, against
    one panel per y-axis, each a (ylabel, ((column, title), ...)) pair, in
    one line style, optionally on a logarithmic y-axis."""
    x: str
    xlabel: str
    panels: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    style: str = "lines"
    log_y: bool = False


_GNUPLOT_HEADER = """\
# gnuplot script generated by cavityqed {version}
# data: {data}
set datafile separator ','
set key autotitle columnhead
set grid
"""


def emit_plot_script(table: ResultTable, plot: Plot, data_filename: str) -> str:
    """Standalone gnuplot script that draws plot from a written data file of
    table; never embeds data. A plot of n > 1 panels is a 1xn multiplot."""
    index = {name: i + 1 for i, name in enumerate(table.column_names())}
    x = index[plot.x]
    multiplot = len(plot.panels) > 1
    lines = [f"set multiplot layout 1,{len(plot.panels)}"] if multiplot else []
    lines.append(f"set xlabel '{plot.xlabel}'")
    for ylabel, series in plot.panels:
        lines.append(f"set ylabel '{ylabel}'")
        if plot.log_y:
            lines.append("set logscale y")
        curves = [f"every ::1 using {x}:{index[column]} with {plot.style} title '{title}'"
                  for column, title in series]
        lines.append(f"plot '{data_filename}' " + ", \\\n     '' ".join(curves))
    if multiplot:
        lines.append("unset multiplot")
    head = _GNUPLOT_HEADER.format(version=table.provenance.get("code_version", "?"),
                                  data=data_filename)
    return head + "\n".join(lines) + "\n"
