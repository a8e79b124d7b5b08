"""The benchmark workloads: dklb CLI invocations and their correctness checks.

Each workload is a list of subcommands run in order through ``dklb.cli.main``
in this process, sharing one list of ``-D`` overrides.  The benchmark seed
feeds ``ensemble.seed``; every check reads only the artifacts the CLI wrote.
See README.md in this directory for why each workload is here.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Criterion 04's contractual bar on Picard/ETDRK4 agreement in L2.
ROUTE_GAP_BAR = 1e-6
# The conjugation identity must hold through the seam to this relative error.
SEAM_REL_ERROR_BAR = 1e-6
ENSEMBLE_SIZE = 200


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    overrides: tuple[str, ...]
    check: Callable[[Path], list[str]]

    def overrides_for(self, seed: int) -> list[str]:
        return [*self.overrides, f"ensemble.seed={seed}"]


def _l2_gap(a, b) -> float:
    import numpy as np

    return float(math.sqrt(a.grid.length) * np.linalg.norm(a.coeffs - b.coeffs))


def check_two_routes(outdir: Path) -> list[str]:
    from dklb.grid import read_snapshot

    problems = []
    picard, t_picard = read_snapshot(outdir / "picard-final.dklb")
    final = max(outdir.glob("simulate-*.dklb"))
    etd, t_etd = read_snapshot(final)
    if final.name != "simulate-001000.dklb":
        problems.append(f"last ETDRK4 snapshot is {final.name}, expected step 1000")
    if not math.isclose(t_picard, t_etd, rel_tol=1e-12):
        problems.append(f"routes end at different times {t_picard!r} and {t_etd!r}")
    gap = _l2_gap(picard, etd)
    if not gap <= ROUTE_GAP_BAR:
        problems.append(f"Picard/ETDRK4 L2 gap {gap!r} exceeds {ROUTE_GAP_BAR}")
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def check_ensemble(outdir: Path) -> list[str]:
    rows = _read_csv(outdir / "verify-smoothing.csv")
    samples = [float(r[1]) for r in rows if r[0] != "max"]
    maxima = [float(r[1]) for r in rows if r[0] == "max"]
    problems = []
    if len(samples) != ENSEMBLE_SIZE:
        problems.append(f"{len(samples)} ratios, expected {ENSEMBLE_SIZE}")
    if not all(math.isfinite(r) for r in samples):
        problems.append("non-finite smoothing ratio")
    elif maxima != [max(samples, default=math.nan)]:
        problems.append(f"max row {maxima} is not the largest ratio")
    elif not maxima[0] <= 1.0:
        problems.append(f"the C2 bound fails with constant 1: max ratio {maxima[0]!r}")
    return problems


def check_seam(outdir: Path) -> list[str]:
    rows = _read_csv(outdir / "conjugate-check.csv")
    errors = [float(r[2]) for r in rows]
    problems = []
    if len(errors) != 2:
        problems.append(f"{len(errors)} conjugation cells, expected 2")
    if not all(e <= SEAM_REL_ERROR_BAR for e in errors):
        problems.append(f"rel_error {max(errors)!r} exceeds {SEAM_REL_ERROR_BAR}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "two-routes", ("picard", "simulate"),
            ("model.preset=kdvks", "grid.n=2048", "grid.l=40", "data.kind=mixture",
             "data.l2=0.1", "solver.t=0.1", "solver.nt=128", "solver.dt=1e-4",
             "solver.snapshot_stride=125", "output.formats=csv snapshots"),
            check_two_routes),
        Workload(
            "ensemble", ("verify-smoothing",),
            ("model.preset=optimality:2", "grid.n=1024", "grid.l=40",
             f"ensemble.size={ENSEMBLE_SIZE}"),
            check_ensemble),
        # b = 0.5 at L = 160 is refused by the leakage guard, so it is left out
        Workload(
            "seam", ("conjugate-check",),
            ("grid.n=8192", "grid.l=160", "data.kind=spectral-gaussian",
             "data.center=-20", "data.width=3", "conjugation.b=0.25",
             "conjugation.t=0.05 0.1"),
            check_seam),
    )
}


def invoke(command: str, overrides: list[str], outdir: Path) -> int | None:
    """Run one subcommand through dklb.cli.main; its exit code, None on a crash.

    Console output is captured and dropped: the artifacts are the output.
    """
    from dklb.cli import main

    args = [command]
    for item in [*overrides, f"output.dir={outdir}"]:
        args += ["-D", item]
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main.main(args=args, prog_name="dklb", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback from the program is a failed run
        traceback.print_exc()
        return None
    return 0


def check(workload: Workload, codes: list[int | None], outdir: Path) -> list[str]:
    """Problems with one workload run: non-zero exits, then the artifact check."""
    bad = [f"{cmd} exited {code}" for cmd, code in zip(workload.commands, codes)
           if code != 0]
    if bad:
        return bad
    try:
        return workload.check(outdir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable artifacts: {exc}"]


def output_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
