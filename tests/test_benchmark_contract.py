"""The benchmark under perfbench/ reaches into the library by name and
checks its outputs against frozen values; these tests fail when a refactor
of src/ breaks one of those names or changes one of those values."""

import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from cavityqed import cli
from cavityqed.io_formats import parse_config
from cavityqed.structures import CavityGeometry, FieldPoint, HarmonicBasis
from cavityqed.wave_ops import build_operators, enhancement_full

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclasses of run.py look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_sites_resolve():
    # the traced run wraps every (module, attribute) pair of SITES
    missing = [(module, attribute) for module, attribute, *_ in _load("tracing").SITES
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert not missing


def test_radial_scenario_parses():
    common = _load("common")
    for phi0 in common.RADIAL_PHI0:
        for stop in common.RADIAL_STOP:
            cfg = parse_config(json.dumps(common.radial_scenario(phi0, stop)))
            assert cfg.scan.kx_range.count == common.RADIAL_COUNT


# Every output that the benchmark checks, checked here against its frozen
# value in perfbench/reference.json with the benchmark's own tolerance, so a
# change of the numbers fails tier-1 and not only a benchmark run.

@pytest.fixture(scope="module")
def harness():
    """perfbench/run.py, which imports its sibling modules by bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("run")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _run_cli(argv):
    assert cli.main(argv) == 0


def _check_outputs(harness, out, name, frozen_sums, frozen_accuracy):
    sums = harness.abs_sums(out / f"{name}.csv")
    assert sums.keys() == frozen_sums.keys()
    assert [c for c, want in frozen_sums.items() if not harness.close(sums[c], want)] == []
    doc = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
    accuracy = doc["provenance"].get("accuracy", {})
    assert [k for k, want in frozen_accuracy.items()
            if not (accuracy.get(k) == want or harness.close(accuracy.get(k), float(want)))] == []
    # the physical figures that the benchmark requires to the digits quoted
    assert [key for (doc, key), (lo, hi) in harness.QUOTED.items()
            if doc == name and not lo <= accuracy.get(key, math.nan) <= hi] == []


@pytest.mark.parametrize("preset", _load("common").PRESETS)
def test_preset_outputs_match_the_frozen_reference(harness, reference, preset, tmp_path):
    _run_cli(["reproduce", preset, "--out", str(tmp_path)])
    frozen = reference["cli-scenarios"][preset]
    _check_outputs(harness, tmp_path, preset, frozen["abs_sums"], frozen["accuracy"])


def test_radial_map_matches_the_frozen_reference(harness, reference, tmp_path):
    common = _load("common")
    phi0, stop = common.RADIAL_PHI0[6], common.RADIAL_STOP[-1]
    config = tmp_path / "radial-map-config.json"
    config.write_text(json.dumps(common.radial_scenario(phi0, stop)), encoding="utf-8")
    _run_cli(["run", "--config", str(config), "--out", str(tmp_path)])
    frozen = reference["cli-scenarios"]["radial-map"][common.radial_key(phi0, stop)]
    _check_outputs(harness, tmp_path, "radial-map", frozen, {})


def test_operator_route_matches_the_frozen_reference(harness, reference):
    geom = CavityGeometry(**reference["geometry"])
    off = reference["full-offaxis"]
    basis = HarmonicBasis(off["l_max"])
    ops = build_operators(geom, basis)
    got = [enhancement_full(geom, basis, FieldPoint.origin(), 0.0, ops=ops).value]
    want = [off["center"]]
    # five points, so that the last three are answered from the stacked forms
    for i in range(0, 200, 40):
        got.append(enhancement_full(geom, basis, FieldPoint(off["points"][i]), 0.0,
                                    ops=ops).value)
        want.append(off["values"][i])
    sweep = reference["full-sweep"]
    basis = HarmonicBasis(sweep["l_max"])
    ops = build_operators(geom, basis, m_values=(0,))
    for i in range(0, 961, 120):
        got.append(enhancement_full(geom, basis, FieldPoint.origin(), sweep["phases"][i],
                                    ops=ops).value)
        want.append(sweep["phase_values"][i])
    for i in range(0, 401, 100):
        got.append(enhancement_full(geom, basis, FieldPoint.axial(sweep["kz"][i]), 0.0,
                                    ops=ops).value)
        want.append(sweep["kz_values"][i])
    assert [(g, w) for g, w in zip(got, want) if not harness.close(g, w)] == []
