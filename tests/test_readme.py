"""The README's scenario example and library quick start, run as written,
so that the documentation cannot drift from the code."""

import re
from pathlib import Path

from cavityqed.io_formats import config_to_dict, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(lang):
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.M | re.S)
    return block


def test_scenario_example_parses():
    cfg = parse_config(_block("json"))
    # every key of the example is a field of the configuration
    assert config_to_dict(cfg)["numerics"] == {"l_max": 150}
    assert cfg.scan.kind == "axial-profile" and cfg.scan.kz_range.count == 201


def test_library_quick_start_runs(capsys):
    code = _block("python")
    exec(compile(code, "README quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the first print's comment states the values it prints, to 2 decimals
    stated = [float(v) for v in re.search(r"print\(full.value, ray.value\)\s*# (.*)", code)[1]
              .split(",")]
    assert [round(float(v), 2) for v in printed[0].split()] == stated
    gamma, shift = map(float, printed[1].split())
    assert gamma > 0.0 and shift != 0.0
