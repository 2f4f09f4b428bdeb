"""Compute the reference values the benchmark checks outputs against and
write them to perfbench/reference.json.

Run from the repository root, once per deliberate change of the numbers:

    PYTHONPATH=src python3 perfbench/freeze.py

The file holds the input pools the benchmark seeds draw from (off-axis
points, detuning phases, axial positions) together with the value of every
pool entry, and per-column sums of every CLI scenario output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
from pathlib import Path

from common import (GEOMETRY, PRESETS, RADIAL_PHI0, RADIAL_STOP, abs_sums, radial_key,
                    radial_scenario)

from cavityqed import cli, wave_ops
from cavityqed.structures import CavityGeometry, FieldPoint, HarmonicBasis

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "out" / "freeze"

OFFAXIS_L_MAX = 150
OFFAXIS_POOL = 200
OFFAXIS_KR_MAX = 40.0
SWEEP_L_MAX = 400
SWEEP_PHASES = [round(-0.12 + 0.00025 * i, 5) for i in range(961)]
SWEEP_KZ = [0.25 * i for i in range(401)]


def offaxis_pool() -> list[list[float]]:
    """Points uniform in the ball kr <= 40, none on the axis."""
    rng = random.Random(20031104)
    pool = []
    while len(pool) < OFFAXIS_POOL:
        v = [rng.uniform(-OFFAXIS_KR_MAX, OFFAXIS_KR_MAX) for _ in range(3)]
        v = [round(c, 3) for c in v]
        if math.hypot(*v) <= OFFAXIS_KR_MAX and math.hypot(v[0], v[1]) >= 1.0:
            pool.append(v)
    return pool


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"cavityqed {' '.join(argv)} exited with {code}")


def scenario_refs() -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    refs = {}
    for preset in PRESETS:
        run_cli(["reproduce", preset, "--out", str(WORK)])
        doc = json.loads((WORK / f"{preset}.json").read_text(encoding="utf-8"))
        refs[preset] = {"abs_sums": abs_sums(WORK / f"{preset}.csv"),
                        "accuracy": doc["provenance"].get("accuracy", {})}
    radial = {}
    for phi0 in RADIAL_PHI0:
        for stop in RADIAL_STOP:
            config = WORK / "radial-map-config.json"
            config.write_text(json.dumps(radial_scenario(phi0, stop)), encoding="utf-8")
            run_cli(["run", "--config", str(config), "--out", str(WORK)])
            radial[radial_key(phi0, stop)] = abs_sums(WORK / "radial-map.csv")
    refs["radial-map"] = radial
    return refs


def main() -> int:
    geom = CavityGeometry(**GEOMETRY)
    basis = HarmonicBasis(OFFAXIS_L_MAX)
    ops = wave_ops.build_operators(geom, basis)
    pool = offaxis_pool()
    offaxis = {
        "l_max": OFFAXIS_L_MAX,
        "center": wave_ops.enhancement_full(geom, basis, FieldPoint.origin(), 0.0, ops=ops).value,
        "points": pool,
        "values": [wave_ops.enhancement_full(geom, basis, FieldPoint(p), 0.0, ops=ops).value
                   for p in pool],
    }
    basis = HarmonicBasis(SWEEP_L_MAX)
    ops = wave_ops.build_operators(geom, basis, m_values=(0,))
    origin = FieldPoint.origin()
    sweep = {
        "l_max": SWEEP_L_MAX,
        "center": wave_ops.enhancement_full(geom, basis, origin, 0.0, ops=ops).value,
        "phases": SWEEP_PHASES,
        "phase_values": [wave_ops.enhancement_full(geom, basis, origin, p, ops=ops).value
                         for p in SWEEP_PHASES],
        "kz": SWEEP_KZ,
        "kz_values": [wave_ops.enhancement_full(geom, basis, FieldPoint.axial(z), 0.0,
                                                ops=ops).value for z in SWEEP_KZ],
    }
    reference = {"geometry": GEOMETRY, "full-offaxis": offaxis, "full-sweep": sweep,
                 "cli-scenarios": scenario_refs()}
    shutil.rmtree(WORK, ignore_errors=True)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
