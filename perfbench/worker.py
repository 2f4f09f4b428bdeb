"""One process of a benchmark workload run; started by run.py with
PYTHONPATH=src in a fresh interpreter.

    worker.py full INPUTS RESULT [--spans FILE --run-id ID]
        Operator route: build_operators, the center solve that ends set-up,
        then enhancement_full at every input point. Writes RESULT as JSON.
    worker.py cli --spans FILE --run-id ID -- ARGS...
        Traced CLI invocation: installs the span wrappers, then calls
        cavityqed.cli.main(ARGS) in this process and exits with its code.
    worker.py facts
        Prints the machine and library facts recorded with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _tracer(args):
    if not args.spans:
        return None
    from tracing import Tracer

    tracer = Tracer(args.run_id)
    tracer.install()
    return tracer


def run_full(args) -> int:
    from cavityqed import wave_ops
    from cavityqed.structures import CavityGeometry, FieldPoint, HarmonicBasis

    tracer = _tracer(args)
    with open(args.inputs, encoding="utf-8") as fh:
        spec = json.load(fh)
    geom = CavityGeometry(**spec["geometry"])
    basis = HarmonicBasis(spec["l_max"])
    ops = wave_ops.build_operators(geom, basis, m_values=spec["m_values"])
    center = wave_ops.enhancement_full(geom, basis, FieldPoint.origin(), 0.0, ops=ops).value
    t_setup = time.monotonic()
    values, errors, latencies = [], [], []
    for kvec, phi0 in spec["points"]:
        t0 = time.perf_counter()
        try:
            value = wave_ops.enhancement_full(geom, basis, FieldPoint(kvec), phi0, ops=ops).value
            error = None
        except Exception as exc:  # every raised error is a failed point
            value, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        values.append(value)
        errors.append(error)
    result = {"t_setup": t_setup, "center": center, "values": values, "errors": errors,
              "latencies": latencies}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer:
        tracer.dump(args.spans)
    return 0


def run_cli(args) -> int:
    tracer = _tracer(args)
    from cavityqed import cli

    try:
        return cli.main(args.argv)
    finally:
        tracer.dump(args.spans)


def _openblas_builds() -> list[dict]:
    import ctypes

    builds = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": "/".join(path.split("/")[-2:])}
        for suffix in ("64_", ""):
            try:
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            info.update(config=config().decode(), threads=threads())
            break
        builds.append(info)
    return builds


def facts() -> int:
    import platform

    import numpy
    import scipy

    import cavityqed.cli  # noqa: F401  (loads both BLAS builds)

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    print(json.dumps({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_builds(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CAVITYQED_JOBS")},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_full = sub.add_parser("full")
    p_full.add_argument("inputs")
    p_full.add_argument("result")
    p_full.add_argument("--spans")
    p_full.add_argument("--run-id", default="")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans", required=True)
    p_cli.add_argument("--run-id", required=True)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    sub.add_parser("facts")
    args = parser.parse_args()
    if args.mode == "full":
        return run_full(args)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return facts()


if __name__ == "__main__":
    sys.exit(main())
