"""Command-line front end.

Subcommands: `run` executes a JSON scenario configuration and `reproduce`
runs a bundled preset (or lists them). Scan points are evaluated one after
another, in scan order. Each scan kind's executor builds its table and
declares the plot of it that the `.gp` script draws, naming the columns it
has just built. The comparison of the closed-form dispersive kernels
with the principal-value quadrature oracle is the `airy-check` scan kind
(`reproduce airy-check`, or `run` with `scan.kind = "airy-check"`).

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validity warning escalated by --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .airy_shift import airy_lorentzian, pv_shift, pv_shift_cos, pv_shift_sin
from .io_formats import (
    Column,
    ConfigError,
    Plot,
    ResultTable,
    ScenarioConfig,
    emit_plot_script,
    make_provenance,
    parse_config,
    write_table,
)
from .presets import PRESETS, preset_config, preset_descriptions
from .quadrature import PVConvergenceError, pv_integrate
from .ray_model import (
    ApertureCollapseError,
    ResonanceSingularityError,
    cavity_linewidth,
)
from .structures import (
    DipoleOrientation,
    FieldPoint,
    HarmonicBasis,
    SolverError,
    TruncationWarning,
    ValidityWarning,
)
from .dipole_response import enhancement_ray, response
from .wave_ops import build_operators, enhancement_full

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STRICT = 4

_NUMERICAL_ERRORS = (
    SolverError,
    PVConvergenceError,
    ApertureCollapseError,
    ResonanceSingularityError,
    np.linalg.LinAlgError,
    FloatingPointError,
)


def _linspace(r) -> np.ndarray:
    return np.linspace(r.start, r.stop, r.count)


def _ray_orders(cfg: ScenarioConfig) -> dict:
    """The quadrature orders of every ray-route call of a scenario."""
    return {"polar_order": cfg.numerics.polar_order,
            "azimuthal_order": cfg.numerics.azimuthal_order}


# --------------------------------------------------------------------------
# scan executors, one per scan kind: each returns (table, plot, summary_lines)


def _exec_detuning_sweep(cfg: ScenarioConfig):
    geom = cfg.geometry
    point = FieldPoint(cfg.scan.point)
    phis = _linspace(cfg.scan.phi0_range)
    width = cavity_linewidth(geom.rho1, geom.rho2)
    tags = ("parallel", "perpendicular", "isotropic")
    columns = (Column("phi0", "rad"), Column("phi0_linewidths"),
               *(Column(f"{ratio}_{tag}", "ratio") for tag in tags
                 for ratio in ("gamma", "shift")))
    orders = _ray_orders(cfg)
    rows = []
    for phi0 in phis:
        row = [float(phi0), float(phi0) / width * 2.0]
        for tag in tags:
            r = response(point, DipoleOrientation(tag=tag), geom, float(phi0), **orders)
            row.extend((r.gamma_ratio, r.shift_ratio))
        rows.append(tuple(row))
    g_perp = [r[4] for r in rows]
    s_perp = [r[5] for r in rows]
    i_peak = int(np.argmax(g_perp))
    i_shift = int(np.argmax(np.abs(s_perp)))
    summary = [
        f"cavity linewidth (FWHM of the round-trip line): {width:.6g} rad",
        f"peak perpendicular damping {g_perp[i_peak]:.4g} at phi0 = {rows[i_peak][0]:+.5g} rad",
        f"largest perpendicular shift {s_perp[i_shift]:+.4g} at phi0 = {rows[i_shift][0]:+.5g} rad",
    ]
    table = ResultTable(columns, rows,
                        make_provenance(cfg, ["ray"], {"linewidth_rad": width}))
    plot = Plot("phi0", "detuning phase [rad]", (
        ("damping ratio", (("gamma_perpendicular", "perpendicular"),
                           ("gamma_parallel", "parallel"))),
        ("level-shift ratio", (("shift_perpendicular", "perpendicular"),
                               ("shift_parallel", "parallel")))))
    return table, plot, summary


def _profile(cfg: ScenarioConfig, axis: str, coords, place):
    """Table and plot of the (axis, gamma ratio, shift ratio) rows of
    cfg.dipole at the points place(coordinate), at the scan's fixed detuning."""
    orders = _ray_orders(cfg)
    rows = []
    for c in coords:
        r = response(place(float(c)), cfg.dipole, cfg.geometry, cfg.scan.phi0, **orders)
        rows.append((float(c), r.gamma_ratio, r.shift_ratio))
    columns = (Column(axis, "1/k"), Column("gamma_ratio", "ratio"),
               Column("shift_ratio", "ratio"))
    table = ResultTable(columns, rows, make_provenance(cfg, ["ray"]))
    plot = Plot(axis, f"{axis} [1/k]", (("damping ratio", (("gamma_ratio", "damping"),)),
                                        ("level-shift ratio", (("shift_ratio", "shift"),))))
    return table, plot


def _exec_axial_profile(cfg: ScenarioConfig):
    table, plot = _profile(cfg, "kz", _linspace(cfg.scan.kz_range), FieldPoint.axial)
    rows = table.rows
    gammas = [r[1] for r in rows]
    summary = [
        f"gamma ratio at kz={rows[0][0]:g}: {gammas[0]:.4g}",
        f"max gamma ratio {max(gammas):.4g} at kz={rows[int(np.argmax(gammas))][0]:g}",
    ]
    return table, plot, summary


def _exec_radial_map(cfg: ScenarioConfig):
    kxs = _linspace(cfg.scan.kx_range)
    table, plot = _profile(cfg, "kx", kxs, FieldPoint.transverse)
    return table, plot, [f"transverse profile over kx in [{kxs[0]:g}, {kxs[-1]:g}]"]


def _exec_compare(cfg: ScenarioConfig):
    geom = cfg.geometry
    kzs = _linspace(cfg.scan.kz_range)
    basis = HarmonicBasis(cfg.numerics.l_max)
    ops = build_operators(geom, basis, m_values=(0,))
    columns = (Column("kz", "1/k"), Column("enhancement_full", "ratio"),
               Column("enhancement_ray", "ratio"), Column("enhancement_ray_naive", "ratio"),
               Column("rel_deviation"))
    orders = _ray_orders(cfg)
    rows = []
    for kz in kzs:
        point = FieldPoint.axial(float(kz))
        full = enhancement_full(geom, basis, point, cfg.scan.phi0, ops=ops,
                                tail_tol=cfg.numerics.tail_tol).value
        ray = enhancement_ray(geom, point, cfg.scan.phi0, **orders).value
        naive = enhancement_ray(geom, point, cfg.scan.phi0, corrections=False, **orders).value
        rows.append((float(kz), full, ray, naive, abs(full - ray) / full))
    max_dev = max(r[4] for r in rows)
    summary = [f"max |full - ray|/full over the profile: {max_dev:.3%}"]
    accuracy = {"max_rel_deviation": max_dev, "l_max": cfg.numerics.l_max}
    if rows and rows[0][0] == 0.0:
        full0, ray0, naive0 = rows[0][1], rows[0][2], rows[0][3]
        summary.insert(0, f"center: full = {full0:.4g}, ray (corrected) = {ray0:.4g}, "
                          f"ray (naive) = {naive0:.4g}")
        summary.insert(1, f"diffraction correction at the center: {naive0 - ray0:.4g}")
        if geom.is_symmetric and geom.rho1 < 1.0:
            t = geom.transmittivity1
            rough = 4.0 / t * (1.0 - math.cos(geom.theta_m1))
            summary.insert(2, f"rough estimate (4/T x mirror coverage): {rough:.4g}")
            accuracy["rough_estimate"] = rough
        accuracy.update(center_full=full0, center_ray=ray0, center_ray_naive=naive0)
    table = ResultTable(columns, rows, make_provenance(cfg, ["full", "ray", "ray-naive"],
                                                       accuracy))
    plot = Plot("kz", "kz [1/k]", (("vacuum-fluctuation ratio",
                                    (("enhancement_full", "full operator"),
                                     ("enhancement_ray", "corrected ray"))),))
    return table, plot, summary


def _exec_defocus_study(cfg: ScenarioConfig):
    geom = cfg.geometry
    reference = dataclasses.replace(geom, k_delta=0.0)
    point = FieldPoint(cfg.scan.point)
    phis = _linspace(cfg.scan.phi0_range)
    columns = (Column("phi0", "rad"), Column("enhancement_reference", "ratio"),
               Column("enhancement_defocused", "ratio"))
    orders = _ray_orders(cfg)
    rows = [(float(p),
             enhancement_ray(reference, point, float(p), **orders).value,
             enhancement_ray(geom, point, float(p), **orders).value)
            for p in phis]
    refs = [r[1] for r in rows]
    defs_ = [r[2] for r in rows]
    i_ref, i_def = int(np.argmax(refs)), int(np.argmax(defs_))
    ratio = defs_[i_def] / refs[i_ref]
    summary = [
        f"aligned peak {refs[i_ref]:.4g} at phi0 = {rows[i_ref][0]:+.5g} rad",
        f"defocused peak {defs_[i_def]:.4g} at phi0 = {rows[i_def][0]:+.5g} rad "
        f"(resonance shift {rows[i_def][0] - rows[i_ref][0]:+.5g} rad)",
        f"re-centered peak ratio: {ratio:.3f}",
    ]
    table = ResultTable(columns, rows,
                        make_provenance(cfg, ["ray"],
                                        {"peak_ratio": ratio,
                                         "peak_shift_rad": rows[i_def][0] - rows[i_ref][0]}))
    plot = Plot("phi0", "detuning phase [rad]", (("vacuum-fluctuation ratio",
                                                  (("enhancement_reference", "aligned"),
                                                   ("enhancement_defocused", "defocused"))),))
    return table, plot, summary


def pv_oracle_errors(rho: float, phi: float):
    """Closed-form shift kernels at (rho, phi) against the principal-value
    quadrature oracle. Returns ((value, relative error), ...) for the plain,
    cos-weighted and sin-weighted kernels, in that order; where a closed
    form is exactly 0 (the plain kernel at rho = 0) the error is absolute."""
    two_pi = 2.0 * math.pi
    # resonance peaks of the line inside one period, mirrored for the odd part
    trig_peaks = [phi % two_pi, (phi + math.pi) % two_pi,
                  (-phi) % two_pi, (math.pi - phi) % two_pi]
    cases = (
        (lambda d: airy_lorentzian(phi - d, rho), pv_shift, math.pi,
         [phi % math.pi, (-phi) % math.pi]),
        (lambda d: airy_lorentzian(phi - d, rho) * np.cos(phi - d), pv_shift_cos, two_pi,
         trig_peaks),
        (lambda d: airy_lorentzian(phi - d, rho) * np.sin(phi - d), pv_shift_sin, two_pi,
         trig_peaks),
    )
    out = []
    for kernel, closed, period, refine in cases:
        got = pv_integrate(kernel, period=period, refine_points=refine)
        ref = float(closed(phi, rho))
        out.append((ref, abs(got.value - ref) / (abs(ref) or 1.0)))
    return tuple(out)


def _exec_airy_check(cfg: ScenarioConfig):
    rhos = cfg.scan.rhos
    n = cfg.scan.phase_count
    half = (n + 1) // 2
    base = np.linspace(0.05, 1.35, half)
    phis = np.concatenate([base, -base])[:n]
    columns = (Column("rho"), Column("phi", "rad"),
               Column("shift_closed"), Column("rel_err_shift"),
               Column("shift_cos_closed"), Column("rel_err_shift_cos"),
               Column("shift_sin_closed"), Column("rel_err_shift_sin"))
    rows = []
    for rho in rhos:
        for phi in phis:
            (v1, e1), (v2, e2), (v3, e3) = pv_oracle_errors(rho, float(phi))
            rows.append((rho, float(phi), v1, e1, v2, e2, v3, e3))
    worst = max(max(r[3], r[5], r[7]) for r in rows)
    summary = [f"max relative error of the closed forms vs the quadrature oracle: {worst:.2e}",
               f"grid: {len(rhos)} reflectivities x {len(phis)} phases"]
    table = ResultTable(columns, rows,
                        make_provenance(cfg, ["closed-form", "pv-oracle"],
                                        {"max_rel_error": worst}))
    plot = Plot("phi", "phase [rad]", (("relative error vs quadrature oracle",
                                        (("rel_err_shift", "shift kernel"),
                                         ("rel_err_shift_cos", "cos-weighted"),
                                         ("rel_err_shift_sin", "sin-weighted"))),),
                style="points", log_y=True)
    return table, plot, summary


_EXECUTORS = {
    "detuning-sweep": _exec_detuning_sweep,
    "axial-profile": _exec_axial_profile,
    "radial-map": _exec_radial_map,
    "compare": _exec_compare,
    "defocus-study": _exec_defocus_study,
    "airy-check": _exec_airy_check,
}


def run_scenario(cfg: ScenarioConfig, out_dir: Path):
    """Execute one scenario and write its table, JSON document and plot
    script into out_dir. Returns the summary lines."""
    table, plot, summary = _EXECUTORS[cfg.scan.kind](cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = cfg.outputs.basename
    written = []
    for fmt in cfg.outputs.formats:
        path = out_dir / f"{base}.{fmt}"
        path.write_bytes(write_table(table, fmt))
        written.append(path.name)
    if cfg.outputs.plot_script and "csv" in cfg.outputs.formats:
        script = emit_plot_script(table, plot, f"{base}.csv")
        path = out_dir / f"{base}.gp"
        path.write_text(script)
        written.append(path.name)
    summary = list(summary)
    summary.append(f"wrote {', '.join(written)} to {out_dir}")
    return summary


def _execute(cfg: ScenarioConfig, out_dir: Path, strict: bool) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        warnings.simplefilter("always", ValidityWarning)
        summary = run_scenario(cfg, out_dir)
    for line in summary:
        print(line)
    validity = [w for w in caught
                if issubclass(w.category, (TruncationWarning, ValidityWarning))]
    sources: dict[tuple, list] = {}  # one line per category and warning line
    for w in validity:
        sources.setdefault((w.category, w.filename, w.lineno), []).append(w)
    for first, *rest in sources.values():
        more = f", {len(rest)} more like it" if rest else ""
        print(f"warning: {first.message} ({Path(first.filename).name}:{first.lineno}{more})",
              file=sys.stderr)
    if strict and validity:
        print("strict mode: validity warnings escalated to failure", file=sys.stderr)
        return EXIT_STRICT
    return EXIT_OK


def _cmd_run(args) -> int:
    path = Path(args.config)
    if not path.exists():
        print(f"config file not found: {path}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = parse_config(path.read_text(encoding="utf-8"))
    return _execute(cfg, Path(args.out), args.strict)


def _cmd_reproduce(args) -> int:
    if args.preset is None:
        print("available presets:")
        print(preset_descriptions())
        return EXIT_OK
    if args.preset not in PRESETS:
        print(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}",
              file=sys.stderr)
        return EXIT_CONFIG
    cfg = preset_config(args.preset)
    return _execute(cfg, Path(args.out), args.strict)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityqed",
        description="Vacuum fluctuations, damping rates and level shifts in a "
                    "wide-aperture concentric spherical resonator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON scenario configuration")
    p_run.add_argument("--config", required=True, help="path to the scenario JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--strict", action="store_true",
                       help="escalate validity warnings to exit code 4")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a bundled preset (omit name to list)")
    p_rep.add_argument("preset", nargs="?", default=None)
    p_rep.add_argument("--out", default="cavityqed-out", help="output directory")
    p_rep.add_argument("--strict", action="store_true")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
