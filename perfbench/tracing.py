"""Span tracing for the benchmark's traced pass.

A Tracer replaces functions at the sites where cavityqed modules import or
call each other with wrappers that record one span per call: name, start,
end, parent span, and a few per-call counts. Spans stay in memory and are
written out once, at the end of the process. Nothing under src/ changes;
the wrappers live only in the traced process.

`layer_metrics` turns the spans of one workload run (all its processes) into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time

# first solves of a process that count towards linalg.first_solves_s
FIRST_SOLVES = 10
# a process stalled when its first solves took this much longer than the
# median solve of the same dimension in that process
STALL_EXCESS_S = 0.05
# a block is useful when its right-hand side holds more than this share of
# the focused-wave energy
USEFUL_ENERGY = 1e-16


def _rule_key(args, kwargs, out):
    edges = args[0] if args else kwargs["theta_edges"]
    order = args[1] if len(args) > 1 else kwargs["order"]
    return {"key": repr((tuple(float(e) for e in edges), int(order)))}


def _cells(args, kwargs, out):
    return {"cells": int(out.size)}


def _block_cells(args, kwargs, out):
    return {"cells": int(out.size), "site": "wave_ops"}


def _directions(args, kwargs, out):
    return {"directions": int(out[1].size)}


def _pv_nodes(args, kwargs, out):
    return {"nodes": int(out.n_nodes)}


def _table_bytes(args, kwargs, out):
    return {"bytes": len(out)}


# (module, attribute, span name, per-call attributes). A function imported
# into several modules is wrapped at each site that the workloads reach.
SITES = (
    ("cavityqed.cli", "run_scenario", "cli.run_scenario", None),
    ("cavityqed.cli", "parse_config", "io_formats.parse_config", None),
    ("cavityqed.presets", "parse_config", "io_formats.parse_config", None),
    ("cavityqed.cli", "write_table", "io_formats.write_table", _table_bytes),
    ("cavityqed.cli", "response", "dipole_response.response", None),
    ("cavityqed.cli", "enhancement_ray", "ray_model.enhancement_ray", None),
    ("cavityqed.cli", "pv_integrate", "quadrature.pv_integrate", _pv_nodes),
    ("cavityqed.cli", "build_operators", "wave_ops.build_operators", None),
    ("cavityqed.cli", "enhancement_full", "wave_ops.enhancement_full", None),
    ("cavityqed.wave_ops", "build_operators", "wave_ops.build_operators", None),
    ("cavityqed.wave_ops", "enhancement_full", "wave_ops.enhancement_full", None),
    ("cavityqed.wave_ops", "legendre_table", "specfun.legendre_table", _block_cells),
    ("cavityqed.wave_ops", "plane_wave_coeffs", "specfun.plane_wave_coeffs", "energy"),
    ("cavityqed.wave_ops", "radial_bessel_table", "specfun.radial_bessel_table", None),
    ("cavityqed.specfun", "legendre_table", "specfun.legendre_table", _cells),
    ("cavityqed.specfun", "radial_bessel_table", "specfun.radial_bessel_table", None),
    ("cavityqed.ray_model", "polar_rule", "quadrature.polar_rule", _rule_key),
    ("cavityqed.quadrature", "polar_rule", "quadrature.polar_rule", _rule_key),
    ("cavityqed.ray_model", "ray_direction_phases", "ray.direction_phases", _directions),
    ("cavityqed.dipole_response", "ray_direction_phases", "ray.direction_phases", _directions),
    ("cavityqed.ray_model", "airy_resonance_factor", "ray.airy_resonance_factor", None),
    ("cavityqed.dipole_response", "airy_resonance_factor", "ray.airy_resonance_factor", None),
    ("cavityqed.ray_model", "standing_wave_weights", "ray.standing_wave_weights", None),
    ("cavityqed.dipole_response", "shift_kernel", "ray.shift_kernel", None),
)

KERNEL_SPANS = ("ray.airy_resonance_factor", "ray.standing_wave_weights", "ray.shift_kernel")


class Tracer:
    """In-memory span recorder for one process of one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs]
        self._ids = itertools.count()
        self._local = threading.local()
        self._energy = 1.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [next(self._ids), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every site in SITES, plus numpy.linalg.solve and the
        focused-wave coefficients whose energy the solve shares refer to."""
        for module_name, attr, name, attrs in SITES:
            if attrs == "energy":
                attrs = self._record_energy
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))
        linalg = importlib.import_module("numpy.linalg")
        linalg.solve = self.wrap("linalg.solve", linalg.solve, self._solve_attrs)

    def _record_energy(self, args, kwargs, out):
        self._energy = out.norm_sq() or 1.0
        return None

    def _solve_attrs(self, args, kwargs, out):
        a = args[0] if args else kwargs["a"]
        b = args[1] if len(args) > 1 else kwargs["b"]
        energy = float((abs(b) ** 2).sum()) / self._energy
        return {"dim": int(a.shape[-1]), "share": energy}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _self_times(spans):
    child = dict.fromkeys((s["id"] for s in spans), 0.0)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def _inside(by_id, sid, name):
    while sid is not None:
        if by_id[sid]["name"] == name:
            return True
        sid = by_id[sid]["parent"]
    return False


def _solve_stats(spans, selfs):
    solves = [(s, t) for s, t in zip(spans, selfs) if s["name"] == "linalg.solve"]
    if not solves:
        return 0.0, False
    by_dim: dict[int, list] = {}
    for s, t in solves:
        by_dim.setdefault(s["attrs"]["dim"], []).append(t)
    medians = {d: statistics.median(ts) for d, ts in by_dim.items()}
    first = solves[:FIRST_SOLVES]
    excess = sum(t - medians[s["attrs"]["dim"]] for s, t in first)
    return sum(t for _, t in first), excess > STALL_EXCESS_S


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one workload run from the spans of each of its
    processes (one list per process, ids local to that process)."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    m = {"ray.directions": 0, "specfun.legendre_table.cells": 0,
         "quadrature.pv_integrate.nodes": 0, "io_formats.write_table.bytes": 0,
         "wave_ops.blocks_built": 0, "wave_ops.blocks_solved": 0,
         "linalg.first_solves_s": 0.0, "linalg.stalled_processes": 0,
         "linalg.processes": 0}
    rules: set[str] = set()
    useful = 0
    flop = 0.0
    for spans in processes:
        selfs = _self_times(spans)
        by_id = {s["id"]: s for s in spans}
        for s, t in zip(spans, selfs):
            name, attrs = s["name"], s["attrs"] or {}
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + t
            if name == "quadrature.polar_rule":
                rules.add(attrs["key"])
            elif name == "ray.direction_phases":
                m["ray.directions"] += attrs["directions"]
            elif name == "specfun.legendre_table":
                # the operator blocks are the only legendre_table caller in wave_ops
                m["specfun.legendre_table.cells"] += attrs["cells"]
                m["wave_ops.blocks_built"] += attrs.get("site") == "wave_ops"
            elif name == "quadrature.pv_integrate":
                m["quadrature.pv_integrate.nodes"] += attrs["nodes"]
            elif name == "io_formats.write_table":
                m["io_formats.write_table.bytes"] += attrs["bytes"]
            elif name == "linalg.solve" and _inside(by_id, s["parent"],
                                                    "wave_ops.enhancement_full"):
                n = attrs["dim"]
                m["wave_ops.blocks_solved"] += 1
                useful += attrs["share"] > USEFUL_ENERGY
                # complex LU (8/3 n^3) plus two triangular solves (8 n^2), real flops
                flop += 8.0 / 3.0 * n**3 + 8.0 * n**2
        first_s, stalled = _solve_stats(spans, selfs)
        if first_s > 0.0:
            m["linalg.processes"] += 1
            m["linalg.first_solves_s"] += first_s
            m["linalg.stalled_processes"] += int(stalled)
    for name in ("quadrature.polar_rule", "quadrature.pv_integrate", "ray_model.enhancement_ray",
                 "dipole_response.response", "specfun.legendre_table",
                 "specfun.plane_wave_coeffs", "specfun.radial_bessel_table",
                 "wave_ops.build_operators", "wave_ops.enhancement_full", "linalg.solve",
                 "io_formats.parse_config", "io_formats.write_table", "cli.run_scenario"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = secs.get(name, 0.0)
    n_rules = calls.get("quadrature.polar_rule", 0)
    m["quadrature.polar_rule.unique_ratio"] = len(rules) / n_rules if n_rules else 0.0
    m["ray.kernel_s"] = sum(secs.get(n, 0.0) for n in KERNEL_SPANS)
    solved = m["wave_ops.blocks_solved"]
    m["wave_ops.blocks_useful_ratio"] = useful / solved if solved else 0.0
    m["wave_ops.solve_gflop"] = flop / 1e9
    return m
