"""Write every output the benchmark checks and print one sha256 per file.

    python tools/output_digest.py OUT_DIR

OUT_DIR receives, from the sources of the checkout that holds this script:

    presets/<preset>.{csv,json,gp}      the six bundled presets
    radial/<phi0>_<stop>/radial-map.*   the 39 seeded radial maps
    full-route.json                     every full-route value of
                                        perfbench/reference.json's inputs,
                                        computed in the order of freeze.py

Run it on two trees and compare the printed lines (or `diff -r` the two
directories) to tell whether a change moves any output bit. The script
reads perfbench/ and writes nothing there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from common import PRESETS, RADIAL_PHI0, RADIAL_STOP, radial_scenario  # noqa: E402

from cavityqed import cli, wave_ops  # noqa: E402
from cavityqed.structures import CavityGeometry, FieldPoint, HarmonicBasis  # noqa: E402


def _run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"cavityqed {' '.join(argv)} exited with {code}")


def full_route_values(reference: dict) -> dict:
    """The values of freeze.py's full-route pools, each pool on one
    operator set in freeze.py's order, so that every modal and form
    answer is reached as the benchmark reaches it."""
    geom = CavityGeometry(**reference["geometry"])
    offaxis, sweep = reference["full-offaxis"], reference["full-sweep"]
    basis = HarmonicBasis(offaxis["l_max"])
    ops = wave_ops.build_operators(geom, basis)

    def value(point, phase):
        return wave_ops.enhancement_full(geom, basis, point, phase, ops=ops).value

    out = {"full-offaxis": {"center": value(FieldPoint.origin(), 0.0),
                            "values": [value(FieldPoint(p), 0.0) for p in offaxis["points"]]}}
    basis = HarmonicBasis(sweep["l_max"])
    ops = wave_ops.build_operators(geom, basis, m_values=(0,))
    origin = FieldPoint.origin()
    out["full-sweep"] = {"center": value(origin, 0.0),
                         "phase_values": [value(origin, p) for p in sweep["phases"]],
                         "kz_values": [value(FieldPoint.axial(z), 0.0) for z in sweep["kz"]]}
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(args[0])
    for preset in PRESETS:
        _run_cli(["reproduce", preset, "--out", str(out / "presets")])
    for phi0 in RADIAL_PHI0:
        for stop in RADIAL_STOP:
            run_dir = out / "radial" / f"{phi0!r}_{stop!r}"
            run_dir.mkdir(parents=True, exist_ok=True)
            config = run_dir / "config.json"
            config.write_text(json.dumps(radial_scenario(phi0, stop)), encoding="utf-8")
            _run_cli(["run", "--config", str(config), "--out", str(run_dir)])
            config.unlink()
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    (out / "full-route.json").write_text(
        json.dumps(full_route_values(reference), indent=1) + "\n", encoding="utf-8")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out).as_posix())
    return 0


if __name__ == "__main__":
    sys.exit(main())
