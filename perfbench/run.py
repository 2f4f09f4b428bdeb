"""Benchmark of the cavityqed scans: three workloads, one client in a closed
loop, each workload run starting in a fresh interpreter with PYTHONPATH=src.

    python3 perfbench/run.py --workload cli-scenarios --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
    cli-scenarios  seven `python -m cavityqed.cli` processes: the six
                   `reproduce` presets, then a seeded off-axis radial map
    full-offaxis   build_operators over all m at l_max 150, then
                   enhancement_full at 30 seeded off-axis points
    full-sweep     m = 0 operators at l_max 400, a seeded 241-phase detuning
                   sweep at the center and a 101-point axial profile

Workload runs repeat until --seconds is used up (at least a minimum count).
Every output is checked against perfbench/reference.json. With --trace 0
the end-to-end metrics are reported; with --trace 1 untraced and traced runs
alternate and the per-layer metrics of the traced runs are reported. The
last line of standard output is one JSON object; the full record of the run
goes to perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from common import PRESETS, RADIAL_PHI0, RADIAL_STOP, abs_sums, radial_key, radial_scenario

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
PY = sys.executable

HARD_LIMIT_S = 170.0  # a run ends well within 180 s whatever happens
RTOL = 1e-9  # relative tolerance of an output against its frozen value
ATOL = 1e-12
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Printed with the end-to-end metrics. point_ms_tail and failed_ratio are not
# in BENCHMARK.json: the tail spreads far beyond any allowed bound on a
# shared 2-core host, and failed_ratio is 0 on a working tree.
E2E_UNITS = {"setup_s": "s", "run_s": "s", "points_per_s": "1/s", "point_ms_p50": "ms",
             "point_ms_tail": "ms", "peak_rss_mb": "MB", "failed_ratio": "ratio"}

# Physical figures the outputs must reproduce, each to the digits quoted:
# (JSON document, accuracy key) -> (low, high).
QUOTED = {
    ("center-enhancement", "center_full"): (29.2875, 29.2885),
    ("center-enhancement", "center_ray"): (29.2965, 29.2975),
    ("center-enhancement", "center_ray_naive"): (30.395, 30.405),
    ("center-enhancement", "max_rel_deviation"): (0.0, 0.03),
    ("ray-vs-full", "max_rel_deviation"): (0.0, 0.03),
    ("airy-check", "max_rel_error"): (0.0, 1e-5),
    ("defocus-study", "peak_ratio"): (0.5315, 0.5325),
    ("defocus-study", "peak_shift_rad"): (-0.1275 - 1e-9, -0.1275 + 1e-9),
}
# center enhancement by the operator route at each l_max used
QUOTED_CENTER = {150: (29.2875, 29.2885), 400: (29.4055, 29.4065)}


def close(value, ref: float) -> bool:
    return (isinstance(value, float) and math.isfinite(value)
            and abs(value - ref) <= RTOL * abs(ref) + ATOL)


def tail_percentile(samples: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10.0:
            return p
    raise ValueError(f"{samples} samples leave none with ten beyond")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


class Clock:
    """Deadline of the whole run; every child gets the time that is left."""

    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@dataclass
class Proc:
    returncode: int | None  # None when the child was stopped at the deadline
    start: float
    end: float
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], clock: Clock) -> Proc:
    start = time.monotonic()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, clock.left()))
        code, err = done.returncode, done.stderr
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        code, err = None, "stopped at the run deadline"
    return Proc(code, start, time.monotonic(), err)


@dataclass
class Iteration:
    """One workload run: its wall time, set-up time, and one latency and
    outcome per operation."""

    run_s: float
    setup_s: float | None
    latencies: list[float]
    errors: list[str | None]
    spans: list[list[dict]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)


def _load_spans(paths: list[Path]) -> list[list[dict]]:
    return [tracing.read_spans(p) for p in paths if p.exists()]


class CliScenarios:
    """Seven CLI processes one after another; an operation is one process."""

    name = "cli-scenarios"
    module = "cavityqed.cli"
    min_iterations = 3

    def __init__(self, seed: int, ref: dict, work: Path):
        rng = random.Random(seed)
        self.phi0 = rng.choice(RADIAL_PHI0)
        self.stop = rng.choice(RADIAL_STOP)
        self.ref = ref["cli-scenarios"]
        self.work = work
        self.config = work / "radial-map-config.json"
        self.config.write_text(json.dumps(radial_scenario(self.phi0, self.stop)), encoding="utf-8")
        self.digests: dict[str, str] | None = None
        self.inputs = {"radial_map": {"phi0": self.phi0, "kx_stop": self.stop}}

    @property
    def operations(self) -> int:
        return len(PRESETS) + 1

    def setup_probe(self, clock: Clock) -> float | None:
        proc = spawn([PY, "-c", f"import {self.module}"], clock)
        return proc.wall if proc.returncode == 0 else None

    def _invocations(self, out: Path):
        for preset in PRESETS:
            yield preset, ["reproduce", preset, "--out", str(out)]
        yield "radial-map", ["run", "--config", str(self.config), "--out", str(out)]

    def iteration(self, k: int, run_id: str, traced: bool, clock: Clock) -> Iteration:
        out = self.work / f"{'traced' if traced else 'plain'}-{k}"
        procs, span_files = [], []
        begin = time.monotonic()
        for name, argv in self._invocations(out):
            if traced:
                spans = self.work / f"spans-{k}-{name}.jsonl"
                span_files.append(spans)
                cmd = [PY, str(WORKER), "cli", "--spans", str(spans), "--run-id", run_id, "--"]
            else:
                cmd = [PY, "-m", "cavityqed.cli"]
            procs.append((name, spawn(cmd + argv, clock)))
        run_s = time.monotonic() - begin
        errors = [self._check(name, proc, out) for name, proc in procs]
        errors[-1] = errors[-1] or self._check_bytes(out)
        if k > 0 or traced:
            shutil.rmtree(out, ignore_errors=True)
        return Iteration(run_s, None, [p.wall for _, p in procs], errors,
                         _load_spans(span_files))

    def _check(self, name: str, proc: Proc, out: Path) -> str | None:
        if proc.returncode != 0:
            return f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        ref = self.ref["radial-map"][radial_key(self.phi0, self.stop)] \
            if name == "radial-map" else self.ref[name]["abs_sums"]
        try:
            sums = abs_sums(out / f"{name}.csv")
            doc = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return f"{name}: {exc}"
        if sums.keys() != ref.keys():
            return f"{name}: columns {sorted(sums)} differ from {sorted(ref)}"
        for col, want in ref.items():
            if not close(sums[col], want):
                return f"{name}: sum of |{col}| is {sums[col]!r}, frozen {want!r}"
        accuracy = doc.get("provenance", {}).get("accuracy", {})
        if name != "radial-map":
            for key, want in self.ref[name]["accuracy"].items():
                got = accuracy.get(key)
                if not (got == want or close(got, float(want))):
                    return f"{name}: accuracy.{key} is {got!r}, frozen {want!r}"
        for (doc_name, key), (lo, hi) in QUOTED.items():
            if doc_name == name and not lo <= accuracy.get(key, math.nan) <= hi:
                return f"{name}: accuracy.{key} = {accuracy.get(key)!r} outside [{lo}, {hi}]"
        return None

    def _check_bytes(self, out: Path) -> str | None:
        """Runs with the same seed must write byte-identical CSV and JSON."""
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.glob("*")) if p.suffix in (".csv", ".json")}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(n for n in digests.keys() | self.digests.keys()
                             if digests.get(n) != self.digests.get(n))
            return f"output bytes differ from the first run: {changed}"
        return None


class FullWorkload:
    """Library calls on the operator route in one fresh worker process per
    workload run; an operation is one enhancement_full call."""

    module = "cavityqed.wave_ops"

    def __init__(self, name: str, seed: int, ref: dict, work: Path):
        self.name = name
        rng = random.Random(seed)
        r = ref[name]
        if name == "full-offaxis":
            self.min_iterations = 4
            picks = rng.sample(range(len(r["points"])), 30)
            points = [[r["points"][i], 0.0] for i in picks]
            self.expected = [r["values"][i] for i in picks]
            m_values = None
        else:
            self.min_iterations = 3
            phases = sorted(rng.sample(range(len(r["phases"])), 241))
            kzs = sorted(rng.sample(range(len(r["kz"])), 101))
            points = ([[[0.0, 0.0, 0.0], r["phases"][i]] for i in phases]
                      + [[[0.0, 0.0, r["kz"][i]], 0.0] for i in kzs])
            self.expected = ([r["phase_values"][i] for i in phases]
                             + [r["kz_values"][i] for i in kzs])
            m_values = [0]
        self.l_max = r["l_max"]
        self.center = r["center"]
        self.work = work
        self.inputs = {"geometry": ref["geometry"], "l_max": self.l_max,
                       "m_values": m_values, "points": points}
        self.inputs_path = work / "inputs.json"
        self.inputs_path.write_text(json.dumps(self.inputs), encoding="utf-8")

    @property
    def operations(self) -> int:
        return len(self.expected)

    def iteration(self, k: int, run_id: str, traced: bool, clock: Clock) -> Iteration:
        result = self.work / f"result-{k}-{int(traced)}.json"
        cmd = [PY, str(WORKER), "full", str(self.inputs_path), str(result)]
        spans = self.work / f"spans-{k}.jsonl"
        if traced:
            cmd += ["--spans", str(spans), "--run-id", run_id]
        proc = spawn(cmd, clock)
        try:
            if proc.returncode != 0:
                raise ValueError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            res = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return Iteration(proc.wall, None, [], [str(exc)] * self.operations)
        errors = [self._check(i, v, e) for i, (v, e) in
                  enumerate(zip(res["values"], res["errors"]))]
        lo, hi = QUOTED_CENTER[self.l_max]
        if not (close(res["center"], self.center) and lo <= res["center"] <= hi):
            errors[0] = errors[0] or f"center value {res['center']!r}, frozen {self.center!r}"
        return Iteration(proc.wall, res["t_setup"] - proc.start, res["latencies"], errors,
                         _load_spans([spans]) if traced else [])

    def _check(self, i: int, value, error) -> str | None:
        if error is not None:
            return f"point {i}: {error}"
        if not close(value, self.expected[i]):
            return f"point {i}: {value!r}, frozen {self.expected[i]!r}"
        return None


def import_times(module: str, clock: Clock) -> dict[str, float]:
    """import.* metrics from one `python -X importtime` process: cumulative
    time of the first import of numpy, scipy.special and scipy.linalg (a
    package imported inside another counts in both), and the self time of
    the cavityqed modules."""
    proc = subprocess.run([PY, "-X", "importtime", "-c", f"import {module}"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, clock.left()), check=True)
    cumulative: dict[str, int] = {}
    own_us = 0
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        cumulative.setdefault(name, cum_us)
        if name == "cavityqed" or name.startswith("cavityqed."):
            own_us += self_us
    return {
        "import.numpy_s": cumulative.get("numpy", 0) / 1e6,
        "import.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
        "import.scipy_linalg_s": cumulative.get("scipy.linalg", 0) / 1e6,
        "import.cavityqed_s": own_us / 1e6,
    }


def machine_facts(clock: Clock) -> dict:
    proc = subprocess.run([PY, str(WORKER), "facts"], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=max(1.0, clock.left()),
                          check=True)
    return json.loads(proc.stdout)


def end_to_end(wl, plain: list[Iteration], setups: list[float]) -> tuple[dict, dict]:
    setup_s = statistics.median(setups)
    latencies = [t for it in plain for t in it.latencies]
    tail_p = tail_percentile(wl.min_iterations * wl.operations)
    per_s = [(len(it.errors) - it.failed) / (it.run_s - (it.setup_s or setup_s)) for it in plain]
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(it.run_s for it in plain),
        "points_per_s": statistics.median(per_s),
        "point_ms_p50": 1e3 * statistics.median(latencies),
        "point_ms_tail": 1e3 * percentile(latencies, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    notes = {"point_ms_tail_percentile": tail_p, "point_samples": len(latencies),
             "setup_samples": len(setups), "runs": len(plain)}
    return metrics, notes


def per_layer(wl, plain: list[Iteration], traced: list[Iteration], clock: Clock) -> dict:
    runs = [tracing.layer_metrics(it.spans) for it in traced]
    metrics = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    # a stall is rare, so report the worst traced run rather than the median
    metrics["linalg.stalled_processes"] = max(r["linalg.stalled_processes"] for r in runs)
    metrics.update(import_times(wl.module, clock))
    metrics["tracing.overhead_s"] = (statistics.median(it.run_s for it in traced)
                                     - statistics.median(it.run_s for it in plain))
    return metrics


def measure(wl, seconds: float, trace: bool, clock: Clock, run_name: str):
    """Closed loop: the next workload run starts when the previous one has
    ended, until the time is used up and the minimum count is reached."""
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    setups: list[float | None] = []
    begin = time.monotonic()
    if isinstance(wl, CliScenarios) and not trace:
        setups = [wl.setup_probe(clock) for _ in range(5)]
    spent: list[float] = []
    k = 0
    while clock.left() > 0:
        done = len(traced) if trace else len(plain)
        elapsed = time.monotonic() - begin
        if done >= (1 if trace else wl.min_iterations) and (
                elapsed + statistics.mean(spent) > seconds):
            break
        t0 = time.monotonic()
        # the traced pass runs pairs, alternating which side goes first
        sides = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for side in sides:
            (traced if side else plain).append(wl.iteration(k, f"{run_name}/{k}", side, clock))
        spent.append(time.monotonic() - t0)
        k += 1
    if not isinstance(wl, CliScenarios):
        setups = [it.setup_s for it in plain]
    return plain, traced, [s for s in setups if s is not None]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-scenarios", "full-offaxis", "full-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    clock = Clock()
    if not (SRC / "cavityqed" / "__init__.py").is_file():
        print(f"no cavityqed sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / run_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.workload == "cli-scenarios":
        wl = CliScenarios(args.seed, ref, work)
    else:
        wl = FullWorkload(args.workload, args.seed, ref, work)

    plain, traced, setups = measure(wl, args.seconds, bool(args.trace), clock, run_name)
    iterations = plain + traced
    attempted = sum(len(it.errors) for it in iterations)
    failed = sum(it.failed for it in iterations)
    if args.trace:
        values = per_layer(wl, plain, traced, clock)
        names = spec["per_layer"]
        notes = {"runs": len(traced)}
        units = {m["name"]: m["unit"] for m in names}
    else:
        values, notes = end_to_end(wl, plain, setups)
        values["failed_ratio"] = failed / attempted
        names = spec["end_to_end"]
        units = E2E_UNITS
    facts = machine_facts(clock)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": wl.inputs, "facts": facts, "notes": notes,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "reported": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "errors": [e for it in iterations for e in it.errors if e],
        "runs": [{"traced": side, "run_s": it.run_s, "setup_s": it.setup_s,
                  "latencies_s": it.latencies}
                 for side, runs in ((False, plain), (True, traced)) for it in runs],
        "setups_s": setups,
    }
    record_path = OUT / f"{run_name}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {notes['runs']} runs, {attempted} operations, "
          f"{failed} failed")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    if not args.trace:
        print(f"  point_ms_tail is p{notes['point_ms_tail_percentile']:g} of "
              f"{notes['point_samples']} samples; setup_s is the median of "
              f"{notes['setup_samples']} set-ups")
    blas = ", ".join(f"{b['library']} ({b.get('config', '?')}, {b.get('threads', '?')} threads)"
                     for b in facts["openblas"])
    print(f"  machine: {facts['nproc']} cpus, {facts['cpu_model']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}; {blas}; env {facts['env']}")
    for error in record["errors"][:5]:
        print(f"  failed: {error}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
