"""The benchmark's per-layer names against the functions its tracer wraps."""

import importlib.util
import json
import re
from pathlib import Path

import dklb.cli  # noqa: F401  (loads every traced module)
from dklb import grid

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_function_is_traced():
    # perfbench/run.py --trace 1 raises KeyError for a <layer>.<fn>.calls or
    # .self_s figure whose function the tracer does not wrap
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m.group(1) for m in (re.fullmatch(r"(\w+\.\w+)\.(?:calls|self_s)",
                                                metric["name"])
                                   for metric in spec["per_layer"]) if m}
    assert "grid.to_values" in wanted
    original = grid.to_values
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert grid.to_values is not original
        assert wanted <= set(tracer.names), sorted(wanted - set(tracer.names))
    finally:
        tracer.uninstall()
    assert grid.to_values is original
