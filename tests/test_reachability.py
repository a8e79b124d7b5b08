"""Every public function in src/dklb is reached by a subcommand or allowed.

A function is reached when one of the CLI runs below calls it, traced with
sys.setprofile.  The runs are small, and together they cover every preset,
data kind, smoothing check and output format.  The only functions no run
has to reach are those the acceptance criteria import by name, those a
per-layer figure of BENCHMARK.json names, and those perfbench/ imports.
Anything else is surface that nothing reaches: wire it in or delete it.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

import dklb
from dklb.cli import main

ROOT = Path(__file__).resolve().parents[1]

SMALL = ("grid.n=64", "ensemble.size=3", "smoothing.nt=8", "solver.nt=8")

# (exit code, subcommand, overrides...)
RUNS = [
    (0, "simulate", "model.preset=kdvks", "data.kind=gaussian", "solver.t=0.05",
     "solver.dt=0.01", "weights.list=poly:1 exp:0.1",
     "output.formats=csv svg snapshots"),
    (0, "simulate", "model.preset=custom", "model.p=4", "model.terms=1 0 2",
     "data.kind=spectral-gaussian", "solver.method=linear", "solver.t=0.05"),
    (0, "picard", "model.preset=kdvb", "data.kind=mixture", "solver.t=0.05",
     "output.formats=csv snapshots"),
    (1, "picard", "model.preset=kdvks", "data.kind=cusp", "solver.max_iter=1"),
    (0, "verify-bracket", "brackets.max_n=2", "brackets.max_a=1", "brackets.pairs=1"),
    *[(0, "verify-smoothing", f"smoothing.check={check}", "smoothing.s=0.5",
       "output.formats=csv svg") for check in ("C1", "C2", "C3", "C4", "P_inf")],
    (0, "verify-smoothing", "model.preset=optimality:2"),
    (0, "conjugate-check", "model.preset=optimality:2", "conjugation.t=0.05"),
    (0, "conjugate-check", "data.kind=zero", "conjugation.b=0.25", "conjugation.t=0.05"),
    (0, "decay-experiment", "output.formats=csv svg"),
    (0, "existence-time", "model.preset=ost"),
]


def _modules():
    return [importlib.import_module(f"dklb.{info.name}")
            for info in pkgutil.iter_modules(dklb.__path__)]


def _public_functions():
    # (module.name, code) of every public function a dklb module defines
    for module in _modules():
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj  # lru_cache too
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                yield f"{module.__name__.removeprefix('dklb.')}.{name}", fn.__code__


def _imported_names(path: Path):
    # module.name for each `from dklb.module import name` in a file
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dklb."):
            for alias in node.names:
                yield f"{node.module.removeprefix('dklb.')}.{alias.name}"


def _allowed() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    figures = {m.group(1) for m in (re.match(r"(\w+\.\w+)\.", metric["name"])
                                    for metric in spec["per_layer"]) if m}
    bench = {name for path in (ROOT / "perfbench").glob("*.py")
             for name in _imported_names(path)}
    return figures | bench | set(_imported_names(ROOT / "tests" / "test_acceptance.py"))


def _reached(tmp_path) -> set:
    called = set()
    for module in _modules():  # a cached function counts once its body runs
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for i, (code, command, *overrides) in enumerate(RUNS):
            args = [command]
            for item in (*SMALL, *overrides, f"output.dir={tmp_path / str(i)}"):
                args += ["-D", item]
            try:
                main.main(args=args, prog_name="dklb", standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == code, (command, overrides, exc.code)
    finally:
        sys.setprofile(None)
    return called


def test_every_public_function_is_reached_or_allowed(tmp_path):
    called = _reached(tmp_path)
    functions = dict(_public_functions())
    reached = {name for name, code in functions.items() if code in called}
    # the trace sees each subcommand's library entry point
    assert {"solver.etdrk4_solve", "solver.picard_solve", "brackets.reduce_bracket",
            "norms.verify_smoothing", "conjugation.conjugation_check",
            "conjugation.regularity_gain_probe", "solver.existence_time"} <= reached
    stray = set(functions) - reached - _allowed()
    assert not stray, sorted(stray)
