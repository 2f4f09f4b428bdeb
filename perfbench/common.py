"""Definitions shared by the benchmark (run.py) and the script that freezes
its reference values (freeze.py). Standard library only, so the harness
itself never imports numpy, scipy or cavityqed."""

from __future__ import annotations

import csv
import math
from pathlib import Path

# the benchmark cavity of every preset: kR = 1e5, amplitude reflectivity
# 0.98, two caps covering 30% of the full solid angle, resonant at the center
GEOMETRY = {
    "k_radius": 1.0e5,
    "theta_m1": math.acos(0.7),
    "theta_m2": math.acos(0.7),
    "rho1": 0.98,
    "rho2": 0.98,
    "k_delta": 0.0,
}

PRESETS = ("center-enhancement", "detuning-sweep", "axial-profile", "ray-vs-full",
           "defocus-study", "airy-check")

# radial-map scenario of cli-scenarios: the seed picks the detuning and the
# end of the kx range; the point count stays 100 so the cost does not depend
# on the seed beyond the range end
RADIAL_PHI0 = tuple(round(-0.03 + 0.005 * i, 3) for i in range(13))
RADIAL_STOP = (96.0, 98.0, 100.0)
RADIAL_COUNT = 100


def radial_key(phi0: float, stop: float) -> str:
    return f"{phi0!r}/{stop!r}"


def radial_scenario(phi0: float, stop: float) -> dict:
    return {
        "geometry": dict(GEOMETRY),
        "dipole": {"orientation": "parallel"},
        "scan": {"kind": "radial-map",
                 "kx_range": {"start": 0.0, "stop": stop, "count": RADIAL_COUNT},
                 "phi0": phi0},
        "outputs": {"basename": "radial-map"},
    }


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def abs_sums(path: Path) -> dict[str, float]:
    """Sum of |value| per numeric column of a result CSV. Raises ValueError
    on a non-finite cell, so a NaN or infinity can never pass as a sum."""
    header, rows = read_csv(path)
    sums: dict[str, float] = {}
    for j, name in enumerate(header):
        try:
            column = [float(r[j]) for r in rows]
        except ValueError:
            continue  # a text column such as the method tag
        if not all(math.isfinite(v) for v in column):
            raise ValueError(f"{path.name}: non-finite value in column {name!r}")
        sums[name] = math.fsum(abs(v) for v in column)
    return sums
