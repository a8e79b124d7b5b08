"""Command-line entry points: reproducible experiment runs with artifacts.

Every subcommand reads one INI config (all values overridable with
-D section.key=value), writes its CSV artifacts into the configured output
directory, and drops a manifest file first: the resolved config echo plus a
content hash and the subcommand name.  Feeding that manifest back through
--config replays the run byte-identically.

Exit codes: 0 success, 1 numerical failure (divergence, overflow, boundary
leakage) or an allocation the machine refuses, 2 validation failure (bad
config or violated precondition).
Each key's own domain is checked by the config parser on every
subcommand; a rule that spans keys is checked by the subcommand that reads
them, and names them.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import brackets, norms
from .config import ExperimentConfig, load_config
from .conjugation import (
    conjugation_check,
    operator_polynomial,
    regularity_gain_probe,
)
from .errors import ConfigError, DklbError, LeakageError, NumericalError
from .grid import l2_norm, write_snapshot
from .norms import hs_norm, verify_smoothing, weighted_norm
from .plots import emit_plot
from .solver import (
    contraction_threshold,
    etdrk4_solve,
    existence_time,
    picard_solve,
)

# exit codes
OK, NUMERICAL, VALIDATION = 0, 1, 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _prepare(config_path, overrides, subcommand: str):
    cfg = load_config(config_path, tuple(overrides))
    outdir = Path(cfg.get("output", "dir"))
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = cfg.echo() + (
        "[manifest]\n"
        f"subcommand = {subcommand}\n"
        f"seed = {cfg.get('ensemble', 'seed')}\n"
        f"hash = {cfg.content_hash()}\n"
    )
    (outdir / f"{subcommand}-manifest.ini").write_text(manifest)
    return cfg, outdir


@contextmanager
def _fields(*keys: str):
    """Name the config keys behind a library precondition that spans them."""
    try:
        yield
    except DklbError:  # LeakageError is a ValueError too, but numerical
        raise
    except ValueError as exc:
        raise ConfigError(f"{'/'.join(keys)}: {exc}") from exc


def _subcommand(name: str):
    """Config/override options plus the exit-code policy, shared by all."""

    def decorate(fn):
        @click.option("--config", "-c", "config_path", default=None,
                      type=click.Path(),
                      help="INI config file (defaults apply without one).")
        @click.option("--set", "-D", "overrides", multiple=True,
                      metavar="SEC.KEY=VAL",
                      help="Override one config value; repeatable.")
        @functools.wraps(fn)
        def wrapper(config_path, overrides):
            try:
                cfg, outdir = _prepare(config_path, overrides, name)
                code = fn(cfg, outdir)
            except (NumericalError, LeakageError, ArithmeticError) as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(NUMERICAL)
            except MemoryError as exc:  # a grid or ensemble too large to hold
                click.echo(f"out of memory: {exc}" if str(exc) else "out of memory",
                           err=True)
                sys.exit(NUMERICAL)
            except (ConfigError, ValueError) as exc:
                click.echo(f"validation error: {exc}", err=True)
                sys.exit(VALIDATION)
            except DklbError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(NUMERICAL)
            sys.exit(code or OK)

        return wrapper

    return decorate


@click.group()
def main():
    """Spectral experiments for a dissipative third-order model family."""


@main.command()
@_subcommand("simulate")
def simulate(cfg: ExperimentConfig, outdir: Path) -> int:
    """Run ETDRK4 (or linear flow) and write a norm-vs-time CSV index."""
    phase = cfg.build_phase()
    grid = cfg.build_grid()
    u0 = cfg.build_data(grid)
    method = cfg.get("solver", "method")
    T = cfg.get("solver", "t")
    step_key = "solver.dt" if cfg.get("solver", "dt") else "solver.nt"
    dt = cfg.get("solver", "dt") or T / cfg.get("solver", "nt")
    s = cfg.get("solver", "s")
    weights = cfg.get("weights", "list") or []
    with _fields("weights.list", "grid.l"):  # an exp weight must stay representable
        wvals = [w.values(grid) for w in weights]
    for w, wv in zip(weights, wvals):  # an overflowing |x|^r fails here, before the solve
        weighted_norm(u0, w, wv)
    with _fields("solver.t", step_key):
        traj = etdrk4_solve(u0, phase, T, dt, nonlinear=(method != "linear"),
                            snapshot_stride=cfg.get("solver", "snapshot_stride"))
    header = ["step", "t", "l2", "hs"] + [w.label for w in weights]
    rows = []
    formats = cfg.get("output", "formats")
    for t, snap in zip(traj.times, traj.snapshots):
        step = int(round(t / dt))
        row = [step, float(t), l2_norm(snap), hs_norm(snap, s)]
        row += [weighted_norm(snap, w, wv) for w, wv in zip(weights, wvals)]
        rows.append(row)
        if "snapshots" in formats:
            write_snapshot(outdir / f"simulate-{step:06d}.dklb", snap, float(t))
    csv_path = outdir / "simulate.csv"
    _write_csv(csv_path, header, rows)
    if "svg" in formats:
        emit_plot(csv_path, "timeseries")
    click.echo(f"simulate: {len(traj)} snapshots, final l2={l2_norm(traj.final)!r}")
    click.echo(f"wrote {csv_path}")
    return OK


@main.command()
@_subcommand("picard")
def picard(cfg: ExperimentConfig, outdir: Path) -> int:
    """Solve the integral form by successive substitution; report contraction."""
    phase = cfg.build_phase()
    grid = cfg.build_grid()
    u0 = cfg.build_data(grid)
    with _fields("solver.nt"):  # Simpson's rule takes an even step count
        traj, report = picard_solve(
            u0, phase, cfg.get("solver", "t"), nt=cfg.get("solver", "nt"),
            tol=cfg.get("solver", "tol"), max_iter=cfg.get("solver", "max_iter"),
            s=cfg.get("solver", "s"))
    lambda_keys = list(report.lambda_values[0])
    header = ["iterate", "distance", "ratio"] + lambda_keys
    ratios = [""] + [repr(r) for r in report.distance_ratios]
    rows = [[i + 1, d, ratios[i]] + [lam[k] for k in lambda_keys]
            for i, (d, lam) in enumerate(zip(report.iterate_distances,
                                             report.lambda_values))]
    csv_path = outdir / "picard.csv"
    _write_csv(csv_path, header, rows)
    if "snapshots" in cfg.get("output", "formats"):
        write_snapshot(outdir / "picard-final.dklb", traj.final, traj.times[-1])
    click.echo(f"wrote {csv_path}")
    if not report.converged:
        click.echo(
            f"not converged after {report.iterations} iterations "
            f"(last distance {report.iterate_distances[-1]!r}, tol {report.tol!r})",
            err=True)
        return NUMERICAL
    click.echo(f"converged iterations={report.iterations}")
    return OK


@main.command(name="verify-bracket")
@_subcommand("verify-bracket")
def verify_bracket(cfg: ExperimentConfig, outdir: Path) -> int:
    """Check quadrature values of <n,m,a> against their exact reductions."""
    max_n = cfg.get("brackets", "max_n")
    max_a = cfg.get("brackets", "max_a")
    tol = cfg.get("brackets", "tol")
    pairs = brackets.standard_pairs()[: cfg.get("brackets", "pairs")]
    header = ["n", "m", "a", "residual", "bound"]
    rows, failures = [], 0
    for n in range(1, max_n + 1):
        for m in range(n):
            for a in range(max_a + 1):
                worst, bound = 0.0, tol
                for u, rho in pairs:
                    lhs, _, resid = brackets.reduction_residual(
                        brackets.Bracket(n, m, a), u, rho)
                    worst = max(worst, resid)
                    bound = max(bound, tol * max(1.0, abs(lhs)))
                rows.append([n, m, a, worst, bound])
                failures += worst > bound
    csv_path = outdir / "verify-bracket.csv"
    _write_csv(csv_path, header, rows)
    click.echo(f"wrote {csv_path}")
    click.echo(f"{len(rows)} reductions checked, {failures} over tolerance")
    if failures:
        raise NumericalError(f"{failures} bracket reductions exceed tolerance {tol}")
    return OK


@main.command(name="verify-smoothing")
@_subcommand("verify-smoothing")
def verify_smoothing_cmd(cfg: ExperimentConfig, outdir: Path) -> int:
    """Measure one linear smoothing bound over a seeded random ensemble."""
    phase = cfg.build_phase()
    # each check's hypotheses, and alpha > 0, relate its exponents to p
    with _fields("smoothing.check", "smoothing.s", "smoothing.a", "smoothing.b",
                 "smoothing.q", "model"):
        report = verify_smoothing(
            cfg.get("smoothing", "check"), phase, grid=cfg.build_grid(),
            T=cfg.get("smoothing", "t"), size=cfg.get("ensemble", "size"),
            seed=cfg.get("ensemble", "seed"), nt=cfg.get("smoothing", "nt"),
            s=cfg.get("smoothing", "s"), a=cfg.get("smoothing", "a"),
            b=cfg.get("smoothing", "b"), q=cfg.get("smoothing", "q"))
    header = ["sample_id", "ratio"]
    rows = [[i, float(r)] for i, r in enumerate(report.ratios)]
    rows.append(["max", report.max_ratio])
    csv_path = outdir / "verify-smoothing.csv"
    _write_csv(csv_path, header, rows)
    if "svg" in cfg.get("output", "formats"):
        emit_plot(csv_path, "histogram")
    click.echo(f"wrote {csv_path}")
    click.echo(f"check {report.check}: {report.sample_count} samples, "
               f"fitted constant {report.max_ratio!r}")
    return OK


@main.command(name="conjugate-check")
@_subcommand("conjugate-check")
def conjugate_check(cfg: ExperimentConfig, outdir: Path) -> int:
    """Exponential-weight conjugation identity across (b, t) cells."""
    grid = cfg.build_grid()
    f = cfg.build_data(grid)
    phase = cfg.build_phase()
    with _fields("model"):
        operator_polynomial(phase)
    header = ["b", "t", "rel_error", "bound_ratio", "delta", "mu",
              "boundary_leakage"]
    rows = []
    for b in cfg.get("conjugation", "b"):
        for t in cfg.get("conjugation", "t"):
            with _fields("conjugation.b", "grid.l"):  # |b|*L/2 <= EXP_WEIGHT_CAP
                r = conjugation_check(
                    f, phase, b, t, max_leakage=cfg.get("conjugation", "max_leakage"))
            rows.append([b, t, r.rel_error, r.bound_ratio, r.delta, r.mu,
                         r.boundary_leakage])
    csv_path = outdir / "conjugate-check.csv"
    _write_csv(csv_path, header, rows)
    # np.max propagates NaN; max() drops it unless it comes first
    worst = float(np.max([row[2] for row in rows]))
    click.echo(f"wrote {csv_path}")
    click.echo(f"{len(rows)} cells, worst rel_error {worst!r}")
    return OK


@main.command(name="decay-experiment")
@_subcommand("decay-experiment")
def decay_experiment(cfg: ExperimentConfig, outdir: Path) -> int:
    """Weighted-derivative growth of the flow on mollified cusp data."""
    report = regularity_gain_probe(
        cfg.get("decay", "k"), cfg.get("decay", "sigmas"),
        cfg.get("decay", "t"), eta=cfg.get("model", "eta"),
        grid=cfg.build_grid(), gamma=cfg.get("decay", "gamma"),
        h=cfg.get("decay", "h"))
    header = ["sigma", "t", "norm", "mult_bound", "fitted_rate"]
    rows = [[row["sigma"], row["t"], row["norm"], row["mult_bound"],
             report.fitted_rates[row["sigma"]]] for row in report.rows]
    csv_path = outdir / "decay-experiment.csv"
    _write_csv(csv_path, header, rows)
    if "svg" in cfg.get("output", "formats"):
        emit_plot(csv_path, "timeseries")
    click.echo(f"wrote {csv_path}")
    rates = ", ".join(f"sigma={s!r}: {r!r}"
                      for s, r in sorted(report.fitted_rates.items()))
    click.echo(f"fitted rates: {rates}")
    return OK


@main.command(name="existence-time")
@_subcommand("existence-time")
def existence_time_cmd(cfg: ExperimentConfig, outdir: Path) -> int:
    """Certified contraction horizons over a sweep of data sizes and cstar."""
    phase = cfg.build_phase()
    s = cfg.get("solver", "s")
    header = ["u0_norm", "cstar", "t0", "a_sum", "threshold"]
    rows = []
    for u0_norm in cfg.get("existence", "norms"):
        for cstar in cfg.get("existence", "cstars"):
            with _fields("solver.s", "model"):  # alpha(2, 4, s, p) > 0
                t0, z0 = existence_time(u0_norm, phase, s=s, cstar=cstar)
                a_sum = norms.A2(phase, t0) + norms.A3(phase, s, t0)
            threshold = contraction_threshold(cstar, z0)
            rows.append([u0_norm, cstar, t0, a_sum, threshold])
    csv_path = outdir / "existence-time.csv"
    _write_csv(csv_path, header, rows)
    click.echo(f"wrote {csv_path}")
    click.echo(f"{len(rows)} sweep points, min T0 {min(r[2] for r in rows)!r}")
    return OK


if __name__ == "__main__":
    main()
