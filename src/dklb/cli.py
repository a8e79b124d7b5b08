"""Command-line entry points: reproducible experiment runs with artifacts.

Every subcommand has one run shape.  It reads one INI config (all values
overridable with -D section.key=value), writes `<name>-manifest.ini` into
the configured output directory (the resolved config echo plus the
subcommand name, seed and content hash), runs, and writes `<name>.csv`.
The rows reach the file as the run yields them, into a temporary file in
the output directory that replaces `<name>.csv` once the run is done, so a
run that raises leaves no CSV.  With `svg` in output.formats, simulate,
verify-smoothing and decay-experiment also draw it as `<name>.svg`.  A run
that fails its own check (picard not converged, verify-bracket over
tolerance, a decay-experiment norm over its envelope) writes both files
first, then exits 1.  Feeding the manifest
back through --config replays the run byte-identically.

Exit codes: 0 success, 1 numerical failure (divergence, overflow, boundary
leakage, a smoothing exponent at which a norm of nonzero data rounds to 0 or
overflows, a smoothing bound constant that is not finite and positive) or an
allocation the machine refuses, 2 validation failure (bad
config, violated precondition, or an output.dir that cannot be created or
written).  Each key's own domain, model.terms included, is checked once, at
load, on every subcommand; a rule that spans keys is checked by the
subcommand that reads them, and names them.
"""

from __future__ import annotations

import functools
import os
import sys
from collections.abc import Generator
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import norms
from .config import ExperimentConfig, load_config
from .conjugation import (
    conjugation_check,
    operator_polynomial,
    regularity_gain_probe,
)
from .errors import BoundError, ConfigError, ExponentError, NumericalError
from .grid import SpectralField, l2_norm, write_snapshot
from .norms import hs_norm, verify_smoothing, weighted_norm
from .solver import (
    _full_spectrum,
    contraction_threshold,
    etdrk4_solve,
    existence_time,
    picard_solve,
)

# exit codes
OK, NUMERICAL, VALIDATION = 0, 1, 2

# a body yields its CSV header, then its rows, and returns its summary lines
# and a failure message or None
Run = Generator[list, None, tuple[list[str], str | None]]


@contextmanager
def _fields(*keys: str):
    """Name the config keys behind a library precondition that spans them."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{'/'.join(keys)}: {exc}") from exc


def _subcommand(name: str, plot: str | None = None):
    """Config/override options, the run shape of the module docstring (a
    `plot` kind draws the CSV) and the exit-code policy, shared by all."""

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
                cfg = load_config(config_path, tuple(overrides))
                outdir = Path(cfg.get("output", "dir"))
                outdir.mkdir(parents=True, exist_ok=True)
                (outdir / f"{name}-manifest.ini").write_text(
                    f"{cfg.echo()}[manifest]\nsubcommand = {name}\n"
                    f"seed = {cfg.get('ensemble', 'seed')}\n"
                    f"hash = {cfg.content_hash()}\n")
                csv_path = outdir / f"{name}.csv"
                partial = outdir / f".{name}.csv.partial"
                try:
                    # every non-finite result meets a guard that names it, so
                    # numpy's own floating-point warnings would only repeat it
                    with np.errstate(all="ignore"), open(partial, "w") as handle:
                        summary, failure = _write_rows(fn(cfg, outdir), handle)
                    os.replace(partial, csv_path)
                finally:
                    partial.unlink(missing_ok=True)
                if plot and "svg" in cfg.get("output", "formats"):
                    from .plots import emit_plot  # csv is loaded for svg only
                    emit_plot(csv_path, plot)
                click.echo("\n".join([f"wrote {csv_path}", *summary]))
                if failure:  # the run failed its own check, after writing
                    raise NumericalError(failure)
            except (NumericalError, ArithmeticError) as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(NUMERICAL)
            except MemoryError as exc:  # a grid or ensemble too large to hold
                click.echo(f"out of memory: {exc}" if str(exc) else "out of memory",
                           err=True)
                sys.exit(NUMERICAL)
            except (ConfigError, ValueError) as exc:
                click.echo(f"validation error: {exc}", err=True)
                sys.exit(VALIDATION)
            except OSError as exc:  # load_config maps its own read failures
                click.echo(f"validation error: output.dir: cannot write "
                           f"{exc.filename}: {exc.strerror}", err=True)
                sys.exit(VALIDATION)
            sys.exit(OK)

        return wrapper

    return decorate


def _write_rows(run: Run, handle) -> tuple[list[str], str | None]:
    """Write each row a body yields as one CSV line; return what it returns."""
    while True:
        try:
            row = next(run)
        except StopIteration as done:
            return done.value
        handle.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


@click.group()
def main():
    """Spectral experiments for a dissipative third-order model family."""


@main.command()
@_subcommand("simulate", plot="timeseries")
def simulate(cfg: ExperimentConfig, outdir: Path) -> Run:
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
    with _fields("solver.t", step_key):
        stream = etdrk4_solve(u0, phase, T, dt, nonlinear=(method != "linear"),
                              snapshot_stride=cfg.get("solver", "snapshot_stride"))
    yield ["step", "t", "l2", "hs"] + [w.label for w in weights]
    count = 0
    for step, t, snap in stream:  # row 0 is u0: an overflowing |x|^r fails before step 1
        row = [step, t, l2_norm(snap), hs_norm(snap, s)]
        row += [weighted_norm(snap, w, wv) for w, wv in zip(weights, wvals)]
        yield row
        count += 1
        if "snapshots" in cfg.get("output", "formats"):
            write_snapshot(outdir / f"simulate-{step:06d}.dklb", snap, t)
    return [f"simulate: {count} snapshots, final l2={row[2]!r}"], None


@main.command()
@_subcommand("picard")
def picard(cfg: ExperimentConfig, outdir: Path) -> Run:
    """Solve the integral form by successive substitution; report contraction."""
    phase = cfg.build_phase()
    grid = cfg.build_grid()
    u0 = cfg.build_data(grid)
    tol = cfg.get("solver", "tol")
    with _fields("solver.nt"):  # Simpson's rule takes an even step count
        try:
            nodes, report = picard_solve(
                u0, phase, cfg.get("solver", "t"), nt=cfg.get("solver", "nt"),
                tol=tol, max_iter=cfg.get("solver", "max_iter"),
                s=cfg.get("solver", "s"))
        except BoundError as exc:  # the lambda constants grow like exp(eta*T)
            raise NumericalError(f"model.eta/solver.t: {exc}") from exc
    lambda_keys = list(report.lambda_values[0])
    yield ["iterate", "distance", "ratio"] + lambda_keys
    ratios = ["", *report.distance_ratios]
    for i, (d, lam) in enumerate(zip(report.iterate_distances, report.lambda_values)):
        yield [i + 1, d, ratios[i]] + [lam[k] for k in lambda_keys]
    if "snapshots" in cfg.get("output", "formats"):  # the last node, whole
        real = nodes.shape[-1] < grid.n
        final = SpectralField(grid, _full_spectrum(nodes[-1], grid.n, real), real)
        write_snapshot(outdir / "picard-final.dklb", final, cfg.get("solver", "t"))
    if not report.converged:
        return [], (
            f"not converged after {report.iterations} iterations "
            f"(last distance {report.iterate_distances[-1]!r}, tol {tol!r})")
    return [f"converged iterations={report.iterations}", *report.notes], None


@main.command(name="verify-bracket")
@_subcommand("verify-bracket")
def verify_bracket(cfg: ExperimentConfig, outdir: Path) -> Run:
    """Check quadrature values of <n,m,a> against their exact reductions."""
    from . import brackets  # with fractions, loaded by this subcommand only

    tol = cfg.get("brackets", "tol")
    pairs = brackets.standard_pairs()[: cfg.get("brackets", "pairs")]
    yield ["n", "m", "a", "residual", "bound"]
    checked, failures = 0, 0
    for n in range(1, cfg.get("brackets", "max_n") + 1):
        for m in range(n):
            for a in range(cfg.get("brackets", "max_a") + 1):
                worst, bound = 0.0, tol
                for u, rho in pairs:
                    lhs, _, resid = brackets.reduction_residual(
                        brackets.Bracket(n, m, a), u, rho)
                    worst = max(worst, resid)
                    bound = max(bound, tol * max(1.0, abs(lhs)))
                yield [n, m, a, worst, bound]
                checked += 1
                failures += worst > bound
    summary = [f"{checked} reductions checked, {failures} over tolerance"]
    return summary, (
        f"{failures} bracket reductions exceed tolerance {tol}" if failures else None)


@main.command(name="verify-smoothing")
@_subcommand("verify-smoothing", plot="histogram")
def verify_smoothing_cmd(cfg: ExperimentConfig, outdir: Path) -> Run:
    """Measure one linear smoothing bound over a seeded random ensemble."""
    phase = cfg.build_phase()
    # each check's hypotheses, and alpha > 0, relate its exponents to p
    with _fields("smoothing.check", "smoothing.s", "smoothing.a", "smoothing.b",
                 "smoothing.q", "model"):
        try:
            report = verify_smoothing(
                cfg.get("smoothing", "check"), phase, grid=cfg.build_grid(),
                T=cfg.get("smoothing", "t"), size=cfg.get("ensemble", "size"),
                seed=cfg.get("ensemble", "seed"), nt=cfg.get("smoothing", "nt"),
                s=cfg.get("smoothing", "s"), a=cfg.get("smoothing", "a"),
                b=cfg.get("smoothing", "b"), q=cfg.get("smoothing", "q"))
        except ExponentError as exc:  # its parameters are named as the keys
            raise ExponentError(f"smoothing.{exc.name}", exc.detail) from exc
        except BoundError as exc:  # the constant grows like exp(eta*T)
            raise NumericalError(f"model.eta/smoothing.t: {exc}") from exc
    yield ["sample_id", "ratio"]
    for i, r in enumerate(report.ratios):
        yield [i, float(r)]
    yield ["max", report.max_ratio]
    return [f"check {report.check}: {report.sample_count} samples, "
            f"fitted constant {report.max_ratio!r}"], None


@main.command(name="conjugate-check")
@_subcommand("conjugate-check")
def conjugate_check(cfg: ExperimentConfig, outdir: Path) -> Run:
    """Exponential-weight conjugation identity across (b, t) cells."""
    grid = cfg.build_grid()
    f = cfg.build_data(grid)
    phase = cfg.build_phase()
    with _fields("model"):
        operator_polynomial(phase)
    yield ["b", "t", "rel_error", "bound_ratio", "delta", "mu", "boundary_leakage"]
    rows = []
    t_values = cfg.get("conjugation", "t")
    for b in cfg.get("conjugation", "b"):
        with _fields("conjugation.b", "grid.l"):  # |b|*L/2 <= EXP_WEIGHT_CAP
            cells = conjugation_check(f, phase, b, t_values,
                                      cfg.get("conjugation", "max_leakage"))
        rows += [[b, t, r.rel_error, r.bound_ratio, r.delta, r.mu, r.boundary_leakage]
                 for t, r in zip(t_values, cells)]
    # np.max propagates NaN; max() drops it unless it comes first
    worst = float(np.max([row[2] for row in rows]))
    yield from rows
    return [f"{len(rows)} cells, worst rel_error {worst!r}"], None


@main.command(name="decay-experiment")
@_subcommand("decay-experiment", plot="timeseries")
def decay_experiment(cfg: ExperimentConfig, outdir: Path) -> Run:
    """Weighted-derivative growth of the flow on mollified cusp data."""
    report = regularity_gain_probe(
        cfg.build_phase(), cfg.get("decay", "sigmas"), cfg.get("decay", "t"),
        grid=cfg.build_grid(), gamma=cfg.get("decay", "gamma"),
        h=cfg.get("decay", "h"))
    yield ["sigma", "t", "norm", "mult_bound", "fitted_rate"]
    for row in report.rows:
        yield [row["sigma"], row["t"], row["norm"], row["mult_bound"],
               report.fitted_rates[row["sigma"]]]
    rates = ", ".join(f"sigma={s!r}: {r!r}"
                      for s, r in sorted(report.fitted_rates.items()))
    over = report.over_envelope
    return [f"fitted rates: {rates}"], (
        f"{len(over)} norms exceed their envelope beyond rounding, the first "
        f"at sigma={over[0]['sigma']!r}, t={over[0]['t']!r}: norm "
        f"{over[0]['norm']!r} > mult_bound {over[0]['mult_bound']!r}" if over else None)


@main.command(name="existence-time")
@_subcommand("existence-time")
def existence_time_cmd(cfg: ExperimentConfig, outdir: Path) -> Run:
    """Certified contraction horizons over a sweep of data sizes and cstar."""
    phase = cfg.build_phase()
    s = cfg.get("solver", "s")
    yield ["u0_norm", "cstar", "t0", "a_sum", "threshold"]
    t0s = []
    for u0_norm in cfg.get("existence", "norms"):
        for cstar in cfg.get("existence", "cstars"):
            with _fields("solver.s", "model"):  # alpha(2, 4, s, p) > 0
                t0, z0 = existence_time(u0_norm, phase, s=s, cstar=cstar)
                a_sum = norms.A2(phase, t0) + norms.A3(phase, s, t0)
            threshold = contraction_threshold(cstar, z0)
            yield [u0_norm, cstar, t0, a_sum, threshold]
            t0s.append(t0)
    return [f"{len(t0s)} sweep points, min T0 {min(t0s)!r}"], None


if __name__ == "__main__":
    main()
