"""tools/output_digest.py --against: the per-series table of what moved
between the outputs of two trees."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _write(root: Path, files: dict):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def test_against_lists_the_largest_change_per_series(tmp_path):
    table = {"columns": [{"name": "kz", "unit": "1/k"}, {"name": "ratio", "unit": ""}],
             "provenance": {"accuracy": {"center": 0.5}}, "rows": [[0, 1.0], [1, 2.0]]}
    old = {"presets/a.csv": "kz [1/k],ratio,label\n0,1.0,x\n1,2.0,y\n",
           "presets/a.json": json.dumps(table),
           "presets/a.gp": "plot\n",
           "full-route.json": json.dumps({"full-sweep": {"center": 0.0, "values": [1.0, 4.0]}})}
    table["rows"][1][1] = 2.5
    table["provenance"]["accuracy"]["center"] = 0.5 + 2.0**-52
    new = {**old,
           "presets/a.csv": "kz [1/k],ratio,label\n0,1.0,x\n1,2.5,z\n",
           "presets/a.json": json.dumps(table),
           "full-route.json": json.dumps({"full-sweep": {"center": 1e-300, "values": [1.0, 5.0]}})}
    _write(tmp_path / "old", old)
    _write(tmp_path / "new", new)
    (tmp_path / "new" / "extra.csv").write_text("a\n1\n", encoding="utf-8")
    lines = _load().compare_trees(tmp_path / "new", tmp_path / "old")
    assert lines == [
        f"extra.csv: only in {tmp_path / 'new'}",
        "full-route.json: differs",
        "  full-sweep.center: max rel inf, max abs 1e-300, 1 of 1 moved",
        "  full-sweep.values: max rel 0.25, max abs 1, 1 of 2 moved",
        "presets/a.csv: differs",
        "  ratio: max rel 0.25, max abs 0.5, 1 of 2 moved",
        "presets/a.json: differs",
        "  provenance.accuracy.center: max rel 4.4e-16, max abs 2.2e-16, 1 of 1 moved",
        "  rows.ratio: max rel 0.25, max abs 0.5, 1 of 2 moved",
        "1 of 5 files byte-identical",
    ]


def test_against_exits_1_when_a_file_differs(tmp_path, monkeypatch, capsys):
    module = _load()
    files = {"presets/a.csv": "kz [1/k],ratio\n0,1.0\n", "full-route.json": "{}"}
    _write(tmp_path / "old", files)
    outputs = {}
    monkeypatch.setattr(module, "write_outputs", lambda out: _write(out, outputs))
    outputs.update(files)
    assert module.main([str(tmp_path / "same"), "--against", str(tmp_path / "old")]) == 0
    assert capsys.readouterr().out.endswith("2 of 2 files byte-identical\n")
    outputs["presets/a.csv"] = "kz [1/k],ratio\n0,1.5\n"
    assert module.main([str(tmp_path / "new"), "--against", str(tmp_path / "old")]) == 1
    assert "presets/a.csv: differs" in capsys.readouterr().out
    # the one-directory form only prints the digests
    assert module.main([str(tmp_path / "alone")]) == 0
