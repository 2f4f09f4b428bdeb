"""The benchmark under perfbench/ reaches into the library by name; these
tests fail when a refactor of src/ breaks one of those names."""

import importlib
import importlib.util
import json
from pathlib import Path

from cavityqed.io_formats import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
