"""Write every output the benchmark checks and print one sha256 per file.

    python tools/output_digest.py OUT_DIR [--against OTHER_DIR]

OUT_DIR receives, from the sources of the checkout that holds this script:

    presets/<preset>.{csv,json,gp}      the six bundled presets
    radial/<phi0>_<stop>/radial-map.*   the 39 seeded radial maps
    full-route.json                     every full-route value of
                                        perfbench/reference.json's inputs,
                                        computed in the order of freeze.py

Run it on two trees and compare the printed lines (or `diff -r` the two
directories) to tell whether a change moves any output bit. With
--against OTHER_DIR, the OUT_DIR of a run on the other tree, it then lists
each file that differs from OTHER_DIR's and, for each numeric series in it
that moved (a CSV or JSON-table column, a JSON list or lone number), the
largest relative and absolute change, then each other JSON leaf (a
string such as config_hash, a boolean, a null) that changed, and exits 1
unless every file is byte-identical to OTHER_DIR's. Without --against it exits 0. Any
error, such as a CLI run that fails, exits 2, so that exit 1 always means
a listed move. The script reads perfbench/ and writes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import traceback
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
        raise RuntimeError(f"cavityqed {' '.join(argv)} exited with {code}")


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


def file_contents(path: Path) -> tuple[dict[str, list[float]], dict[str, object]]:
    """The numbers of an output file by series, and the other leaves of a
    JSON file by key path. A series is each column of a CSV file (named as
    in its header, without the unit) or of a JSON table's rows, or each list
    of numbers and each lone number of a JSON file (named by its key path);
    the other leaves are a JSON file's strings, booleans and nulls."""
    series, leaves = {}, {}
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as f:
            header, *rows = list(csv.reader(f))
        for j, name in enumerate(header):
            try:
                series[name.split(" [")[0]] = [float(row[j]) for row in rows]
            except ValueError:
                pass
        return series, leaves
    if path.suffix != ".json":
        return series, leaves

    def walk(node, name):
        if isinstance(node, dict):
            if "rows" in node and "columns" in node:
                for j, column in enumerate(node["columns"]):
                    series[f"{name}rows.{column['name']}"] = [row[j] for row in node["rows"]]
            for key, value in node.items():
                if key not in ("rows", "columns"):
                    walk(value, f"{name}{key}.")
        elif isinstance(node, list) and node and all(_is_number(v) for v in node):
            series[name.rstrip(".")] = [float(v) for v in node]
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{name}{i}.")
        elif _is_number(node):
            series[name.rstrip(".")] = [float(node)]
        else:
            leaves[name.rstrip(".")] = node

    walk(json.loads(path.read_text(encoding="utf-8")), "")
    return series, leaves


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_trees(out: Path, other: Path) -> list[str]:
    """Report lines for the files of out that differ from other's: per
    numeric series that moved, its largest relative change |new - old| /
    |old| (inf where old is 0) and absolute change, and how many of its
    values moved; then, in a JSON file, each other leaf that changed or
    that only one tree holds."""
    names = sorted({p.relative_to(root).as_posix() for root in (out, other)
                    for p in root.rglob("*") if p.is_file()})
    lines, same = [], 0
    for name in names:
        new, old = out / name, other / name
        if not (new.is_file() and old.is_file()):
            lines.append(f"{name}: only in {out if new.is_file() else other}")
            continue
        if new.read_bytes() == old.read_bytes():
            same += 1
            continue
        lines.append(f"{name}: differs")
        (new_series, new_leaves), (old_series, old_leaves) = file_contents(new), file_contents(old)
        for key in sorted(new_series.keys() | old_series.keys()):
            a, b = new_series.get(key), old_series.get(key)
            if a is None or b is None or len(a) != len(b):
                lines.append(f"  {key}: present or sized differently in one tree")
                continue
            moved = [(x, y) for x, y in zip(a, b) if x != y]
            if not moved:
                continue
            rel = max(abs(x - y) / abs(y) if y else math.inf for x, y in moved)
            absolute = max(abs(x - y) for x, y in moved)
            lines.append(f"  {key}: max rel {rel:.2g}, max abs {absolute:.2g}, "
                         f"{len(moved)} of {len(a)} moved")
        for key in sorted(new_leaves.keys() | old_leaves.keys()):
            if key not in new_leaves or key not in old_leaves:
                lines.append(f"  {key}: present in one tree only")
            elif new_leaves[key] != old_leaves[key]:
                lines.append(f"  {key}: changed")
    lines.append(f"{same} of {len(names)} files byte-identical")
    return lines


def write_outputs(out: Path) -> None:
    """Write every output the benchmark checks under out."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, metavar="OTHER_DIR",
                        help="the OUT_DIR of a run on another tree, to compare with")
    args = parser.parse_args(argv)
    out = args.out_dir
    try:
        write_outputs(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out).as_posix())
        if args.against is None:
            return 0
        lines = compare_trees(out, args.against)
    except Exception:
        traceback.print_exc()
        return 2
    print("\n".join(lines))
    # every line but the closing count reports a file that differs
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
