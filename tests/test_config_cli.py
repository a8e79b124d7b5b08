import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dklb
from dklb.cli import main
from dklb.config import _SCHEMA, load_config
from dklb.errors import ConfigError
from dklb.fields import mollified_cusp
from dklb.grid import SpectralGrid
from dklb.symbols import optimality, phase_eval


@pytest.fixture
def runner():
    return CliRunner()


# --- config loading ----------------------------------------------------------


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.get("grid", "n") == 256
    assert cfg.get("model", "preset") == "kdvks"
    assert cfg.get("solver", "dt") is None  # empty default means unset


def test_override_applies():
    cfg = load_config(None, ("grid.n=512", "model.eta=2.5"))
    assert cfg.get("grid", "n") == 512
    assert cfg.get("model", "eta") == 2.5


def test_unknown_override_key_rejected():
    with pytest.raises(ConfigError, match="grid.resolution"):
        load_config(None, ("grid.resolution=512",))
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, ("just-a-word",))


def test_unknown_section_and_key_in_file_rejected(tmp_path):
    p = tmp_path / "bad-section.ini"
    p.write_text("[grids]\nn = 128\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[grids\]"):
        load_config(p)
    p2 = tmp_path / "bad-key.ini"
    p2.write_text("[grid]\nnn = 128\n")
    with pytest.raises(ConfigError, match="grid.nn"):
        load_config(p2)


def test_manifest_section_is_tolerated(tmp_path):
    p = tmp_path / "with-manifest.ini"
    p.write_text("[grid]\nn = 128\n[manifest]\nsubcommand = simulate\nhash = abc\n")
    assert load_config(p).get("grid", "n") == 128


def test_cross_field_validation():
    with pytest.raises(ConfigError, match="grid.n"):
        load_config(None, ("grid.n=-256",))
    with pytest.raises(ConfigError, match="grid.n"):
        load_config(None, ("grid.n=100",))  # not a power of two
    with pytest.raises(ConfigError, match="solver.t"):
        load_config(None, ("solver.t=0",))
    with pytest.raises(ConfigError, match="data.width"):
        load_config(None, ("data.width=-1",))
    with pytest.raises(ConfigError, match="output.formats"):
        load_config(None, ("output.formats=csv parquet",))
    with pytest.raises(ConfigError, match="weights.list"):
        load_config(None, ("weights.list=poly",))
    with pytest.raises(ConfigError, match="model.preset"):
        load_config(None, ("model.preset=burgers",))


def test_non_finite_numbers_rejected_except_lebesgue_exponents():
    with pytest.raises(ConfigError, match="conjugation.b"):
        load_config(None, ("conjugation.b=0.25 inf",))
    with pytest.raises(ConfigError, match="smoothing.b"):
        load_config(None, ("smoothing.b=nan",))
    # an infinite Lebesgue exponent selects a supremum norm
    assert load_config(None, ("smoothing.b=inf",)).get("smoothing", "b") == math.inf


def test_custom_phase_from_config():
    cfg = load_config(None, ("model.preset=custom", "model.p=4",
                             "model.terms=1.0 0 2.0"))
    phase = cfg.build_phase()
    assert cfg.build_phase() is phase  # built once; construction runs find_M
    assert phase.p == 4.0
    assert phase_eval(phase, 2.0) == pytest.approx(-12.0)
    with pytest.raises(ConfigError, match="model.p"):
        load_config(None, ("model.preset=custom",)).build_phase()
    with pytest.raises(ConfigError, match="model.terms"):
        load_config(None, ("model.preset=custom", "model.p=4",
                           "model.terms=1.0 0",)).build_phase()


def test_echo_is_canonical_and_complete():
    cfg = load_config(None, ("grid.n=128",))
    echo = cfg.echo()
    sections = [line for line in echo.splitlines()
                if line.startswith("[") and line.endswith("]")]
    assert sections == [f"[{name}]" for name in _SCHEMA]
    assert "n = 128" in echo
    # every schema key appears exactly once
    for section, keys in _SCHEMA.items():
        for key in keys:
            assert sum(1 for line in echo.splitlines()
                       if line.startswith(f"{key} = ")) >= 1


def test_content_hash_is_git_blob_sha1():
    cfg = load_config(None)
    body = cfg.echo().encode()
    oracle = subprocess.run(["git", "hash-object", "--stdin"], input=body,
                            capture_output=True, check=True)
    assert cfg.content_hash() == oracle.stdout.decode().strip()
    assert cfg.content_hash() != load_config(None, ("grid.n=512",)).content_hash()


# --- CLI exit codes and messages ---------------------------------------------


def test_negative_n_exits_2_and_names_the_field(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "-D", "grid.n=-256",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2
    assert "grid.n" in result.output


@pytest.mark.parametrize("command, override", [
    ("verify-smoothing", "grid.l=inf"),
    ("simulate", "solver.t=nan"),
    ("existence-time", "existence.norms=0.1 nan"),
    ("simulate", "weights.list=poly:1 exp:nan"),
    ("simulate", "weights.list=poly:inf"),
])
def test_non_finite_number_exits_2_and_names_the_field(runner, tmp_path,
                                                       command, override):
    result = runner.invoke(main, [command, "-D", override,
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    assert override.split("=")[0] in result.output
    assert "finite" in result.output


@pytest.mark.parametrize("key", ["grid.n", "solver.t", "model.preset",
                                 "existence.norms", "output.formats"])
def test_empty_required_value_exits_2_and_names_the_field(runner, tmp_path, key):
    result = runner.invoke(main, ["existence-time", "-D", f"{key}=",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    assert f"{key}: needs a value" in result.output


HOSTILE_VALUES = ("", "0", "-1", "nan", "inf", "1e308", "1e-320", "abc")


def _hostile_cases():
    # every key through existence-time on kdvb (output.dir, whose hostile
    # value is a path under a regular file, has its own test below); the keys
    # conjugate-check reads through it, on the default kdvks symbol
    for section, keys in _SCHEMA.items():
        for key in keys:
            if (section, key) != ("output", "dir"):
                yield pytest.param(("existence-time", "-D", "model.preset=kdvb"),
                                   f"{section}.{key}", id=f"{section}.{key}")
    for section in ("model", "grid", "data", "conjugation"):
        for key in _SCHEMA[section]:
            yield pytest.param(("conjugate-check",), f"{section}.{key}",
                               id=f"conjugate-check:{section}.{key}")
    # both solver routes, on kdvb's real flow; simulate with a weighted column
    for command, extra in (("simulate", ("-D", "weights.list=poly:1")),
                           ("picard", ())):
        for section in ("model", "grid", "data", "solver"):
            for key in _SCHEMA[section]:
                yield pytest.param((command, "-D", "model.preset=kdvb", *extra),
                                   f"{section}.{key}",
                                   id=f"{command}:{section}.{key}")
    # the ensemble verifier, on a small ensemble
    for section in ("model", "grid", "data", "ensemble", "smoothing"):
        for key in _SCHEMA[section]:
            yield pytest.param(("verify-smoothing", "-D", "ensemble.size=4"),
                               f"{section}.{key}",
                               id=f"verify-smoothing:{section}.{key}")
    # the decay probe on a small grid, and the bracket verifier on few brackets
    for section in ("model", "grid", "decay"):
        for key in _SCHEMA[section]:
            yield pytest.param(("decay-experiment", "-D", "grid.n=64"),
                               f"{section}.{key}",
                               id=f"decay-experiment:{section}.{key}")
    for key in _SCHEMA["brackets"]:
        yield pytest.param(("verify-bracket", "-D", "brackets.max_n=2"),
                           f"brackets.{key}", id=f"verify-bracket:brackets.{key}")


def _non_finite_cells(path):
    # every numeric cell of a CSV must be finite, with two exceptions: the
    # contraction threshold is +inf when z0 is zero or underflows, and a
    # fitted decay rate is nan without two distinct times or with a zero norm
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    bad = []
    for row in rows:
        for column, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:  # verify-smoothing's "max", picard's first ratio
                continue
            if math.isfinite(value):
                continue
            if (path.name, column) == ("existence-time.csv", "threshold"):
                if value == math.inf:
                    continue
            elif (path.name, column) == ("decay-experiment.csv", "fitted_rate"):
                if math.isnan(value):
                    continue
            bad.append((column, cell))
    return bad


@pytest.mark.parametrize("value", HOSTILE_VALUES)
@pytest.mark.parametrize("command, key", _hostile_cases())
def test_hostile_value_ends_in_an_exit_code(runner, tmp_path, command, key,
                                            value):
    result = runner.invoke(main, [*command, "-D", f"{key}={value}",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    if result.exit_code == 2:
        assert key in result.output, result.output
    if result.exit_code == 0:
        for path in tmp_path.glob("*.csv"):
            assert _non_finite_cells(path) == [], path.name


@pytest.mark.parametrize("command", sorted(main.commands))
def test_uncreatable_output_dir_exits_2_and_names_it(runner, tmp_path, command):
    # the sweep's output.dir case: a directory whose parent is a regular file
    parent = tmp_path / "afile"
    parent.write_text("")
    result = runner.invoke(main, [command, "-D", f"output.dir={parent / 'sub'}"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "output.dir" in result.output, result.output


def test_unwritable_artifact_exits_2_and_names_the_output_dir(runner, tmp_path):
    (tmp_path / "existence-time.csv").mkdir()
    result = runner.invoke(main, ["existence-time", "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "output.dir" in result.output and "existence-time.csv" in result.output


def test_overflowing_custom_terms_exit_2_and_name_the_model(runner, tmp_path):
    result = runner.invoke(main, ["existence-time", "-D", "model.preset=custom",
                                  "-D", "model.p=4", "-D", "model.terms=1e300 0 2",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    assert "model:" in result.output
    assert ("overflows a double while its dominance threshold is located"
            in result.output)
    assert "(34," not in result.output


@pytest.mark.parametrize("override", ["conjugation.t=0.05 -1",
                                      "conjugation.max_leakage=-1"])
def test_negative_conjugation_input_exits_2_and_names_the_field(runner,
                                                                tmp_path,
                                                                override):
    result = runner.invoke(main, ["conjugate-check", "-D", override,
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    assert f"{override.split('=')[0]}: " in result.output
    assert "nonnegative" in result.output


@pytest.mark.parametrize("eta", ["65536", "1e308"])
def test_existence_time_survives_an_overflowing_growth_factor(runner, tmp_path,
                                                              eta):
    # exp(eta*T) overflows at T = 1; the bisection must move to smaller T
    out = tmp_path / "out"
    result = runner.invoke(main, ["existence-time", "-D", "model.preset=kdvb",
                                  "-D", f"model.eta={eta}",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "existence-time.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 3
    for line in lines[1:]:
        _, _, t0, a_sum, threshold = map(float, line.split(","))
        assert math.isfinite(t0) and 0.0 < t0 <= 1.0
        assert a_sum < threshold


def test_existence_time_with_underflowing_cstar_has_no_threshold(runner,
                                                                 tmp_path):
    # 2*cstar*z0 underflows to zero, so every horizon up to 1 is certified
    out = tmp_path / "out"
    result = runner.invoke(main, ["existence-time",
                                  "-D", "existence.cstars=1e-320",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "existence-time.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        _, _, t0, _, threshold = map(float, line.split(","))
        assert t0 == 1.0 and threshold == math.inf


@pytest.mark.parametrize("value", ["0", "-1"])
def test_picard_without_iterations_exits_2_and_names_the_field(runner, tmp_path,
                                                               value):
    result = runner.invoke(main, ["picard", "-D", f"solver.max_iter={value}",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    assert "solver.max_iter: must be >= 1" in result.output


@pytest.mark.parametrize("value", ["0", "-1"])
def test_picard_without_a_positive_tolerance_exits_2_and_names_the_field(
        runner, tmp_path, value):
    result = runner.invoke(main, ["picard", "-D", f"solver.tol={value}",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    assert "solver.tol: must be positive" in result.output


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_non_finite_sobolev_norm_exits_1(runner, tmp_path, command):
    # (1+xi^2)^(s/2) overflows at s = 1e308: no nan may reach the CSV, and
    # Picard must not iterate on nan distances
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "-D", "model.preset=kdvb",
                                  "-D", "solver.s=1e308",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "H^s norm at s=1e+308 is not finite" in result.output
    assert not (out / f"{command}.csv").exists()


@pytest.mark.parametrize("length", ["1e308", "1e-320"])
def test_degenerate_mixture_grid_exits_1_and_names_the_length(runner, tmp_path,
                                                              length):
    result = runner.invoke(main, ["verify-smoothing", "-D", f"grid.l={length}",
                                  "-D", "ensemble.size=4",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 1, result.output
    assert "could not draw a non-degenerate mixture" in result.output
    assert f"l={float(length)!r}" in result.output


def test_conjugate_check_refuses_non_finite_leakage(runner, tmp_path):
    # the weighted values overflow to nan; the guard must not read that as small
    out = tmp_path / "out"
    result = runner.invoke(main, ["conjugate-check", "-D", "data.amplitude=1e308",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "numerical failure" in result.output
    assert "not finite" in result.output
    assert not (out / "conjugate-check.csv").exists()


def test_verify_bracket_without_pairs_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["verify-bracket", "-D", "brackets.pairs=0",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2
    assert "brackets.pairs" in result.output


@pytest.mark.parametrize("pairs", ["4", "9"])
def test_verify_bracket_beyond_the_standard_pairs_exits_2(runner, tmp_path,
                                                          pairs):
    # only three standard pairs exist; the manifest must not claim more
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-bracket", "-D", f"brackets.pairs={pairs}",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 2, result.output
    assert "brackets.pairs: must be <= 3" in result.output
    assert not (out / "verify-bracket.csv").exists()


@pytest.mark.parametrize("override", ["brackets.max_n=0", "brackets.max_a=-1",
                                      "brackets.tol=0", "brackets.tol=-1e-8"])
def test_verify_bracket_that_would_check_nothing_exits_2(runner, tmp_path,
                                                         override):
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-bracket", "-D", override,
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 2, result.output
    assert f"{override.split('=')[0]}: " in result.output
    assert not (out / "verify-bracket.csv").exists()


def test_negative_l2_target_exits_2_and_names_the_field(runner, tmp_path):
    # a negative target would flip the sign of the data
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "-D", "data.l2=-1",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 2, result.output
    assert "data.l2: must be nonnegative, got -1.0" in result.output
    assert not (out / "simulate.csv").exists()


def test_domains_hold_each_element_of_a_list():
    for override, message in [("existence.norms=0.1 -1", "must be nonnegative"),
                              ("existence.cstars=1 0", "must be positive"),
                              ("decay.t=0.1 0", "must be positive"),
                              ("decay.sigmas=0 -0.5", "must be nonnegative")]:
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"{key}: {message}"):
            load_config(None, (override,))


def test_choices_return_their_canonical_spelling():
    cfg = load_config(None, ("smoothing.check=p_inf", "output.formats=CSV svg",
                             "solver.method=Linear"))
    assert cfg.get("smoothing", "check") == "P_inf"
    assert cfg.get("output", "formats") == ["csv", "svg"]
    assert cfg.get("solver", "method") == "linear"
    with pytest.raises(ConfigError, match="smoothing.check: must be one of"):
        load_config(None, ("smoothing.check=C5",))


@pytest.mark.parametrize("command, overrides, keys", [
    ("simulate", ("solver.dt=0.3",), ("solver.t", "solver.dt")),
    ("simulate", ("solver.t=1e-320",), ("solver.t", "solver.nt")),
    ("simulate", ("weights.list=exp:10", "grid.l=80"), ("weights.list", "grid.l")),
    ("picard", ("solver.nt=7",), ("solver.nt",)),
    ("conjugate-check", ("conjugation.b=10", "grid.l=80"),
     ("conjugation.b", "grid.l")),
    ("existence-time", ("model.preset=kdvb", "solver.s=1"), ("solver.s", "model")),
    ("verify-smoothing", ("smoothing.b=1.5", "ensemble.size=4"),
     ("smoothing.check", "smoothing.b")),
    ("verify-smoothing", ("smoothing.check=P_inf", "smoothing.q=2",
                          "ensemble.size=4"), ("smoothing.q", "model")),
])
def test_rule_across_keys_exits_2_and_names_every_key(runner, tmp_path, command,
                                                      overrides, keys):
    flags = [arg for item in overrides for arg in ("-D", item)]
    out = tmp_path / "out"
    result = runner.invoke(main, [command, *flags, "-D", f"output.dir={out}"])
    assert result.exit_code == 2, result.output
    for key in keys:
        assert key in result.output
    assert not (out / f"{command}.csv").exists()


def test_non_finite_smoothing_ratio_exits_1(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-smoothing", "-D", "smoothing.t=1e308",
                                  "-D", "ensemble.size=4",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "numerical failure: non-finite bound ratio" in result.output
    assert not (out / "verify-smoothing.csv").exists()


def test_overflowing_flow_exits_1_and_writes_no_csv(runner, tmp_path):
    # eta*t*Phi overflows a double on the unstable band, so no ratio is finite
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-smoothing", "-D", "model.eta=1e308",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "numerical failure: non-finite bound ratio" in result.output
    assert not (out / "verify-smoothing.csv").exists()


def test_decay_norms_are_the_exact_flow_at_long_times(runner, tmp_path):
    # optimality:2 grows like exp(0.105*t): at t = 1000 the norm is about 1.6e44
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment", "-D", "decay.t=100 500 1000",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    grid = SpectralGrid(256, 40.0)
    u0 = mollified_cusp(grid, 0.5, 0.05).coeffs
    phi = optimality(2)
    lines = (out / "decay-experiment.csv").read_text().splitlines()[1:]
    assert len(lines) == 9
    for line in lines:
        sigma, t, norm = map(float, line.split(",")[:3])
        flow = np.exp(t * phase_eval(phi, grid.xi) + 1j * t * grid.xi_odd**3)
        exact = math.sqrt(grid.length) * np.linalg.norm(
            np.abs(grid.xi) ** sigma * flow * u0)
        assert norm == pytest.approx(exact, rel=1e-12), (sigma, t)


@pytest.mark.parametrize("command, overrides, message", [
    # a finite exponent, but |x|^400 overflows on a domain of length 40
    ("simulate", ("weights.list=poly:400", "grid.n=64", "solver.t=0.1"),
     "poly:400-weighted norm is not finite"),
    ("decay-experiment", ("grid.n=64", "decay.t=1e308"), "decay probe norm"),
])
def test_non_finite_norm_exits_1_and_writes_no_csv(runner, tmp_path, command,
                                                   overrides, message):
    out = tmp_path / "out"
    args = [command, "-D", f"output.dir={out}"]
    for override in overrides:
        args += ["-D", override]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert f"numerical failure: {message}" in result.output
    assert not (out / f"{command}.csv").exists()


@pytest.mark.parametrize("weight", ["poly:400", "bracket:800"])
def test_overflowing_weight_is_refused_before_the_solve(runner, tmp_path,
                                                        monkeypatch, weight):
    import dklb.solver
    advection = dklb.solver._advection

    def no_step(grid, real):  # the kernel runs in every nonlinear ETDRK4 step
        keep, _ = advection(grid, real)

        def never(v, out):
            raise AssertionError("an ETDRK4 step ran")

        return keep, never

    monkeypatch.setattr(dklb.solver, "_advection", no_step)
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "-D", f"weights.list={weight}",
                                  "-D", "grid.n=64", "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert f"numerical failure: {weight}-weighted norm is not finite" in result.output
    assert not (out / "simulate.csv").exists()


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 64.0 GiB for an "
                                             "array with shape (4294967296,)"),
                                 MemoryError()])
def test_failed_allocation_exits_1_with_one_line(runner, tmp_path, monkeypatch,
                                                 exc):
    import dklb.cli

    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(dklb.cli, "etdrk4_steps", refuse)
    result = runner.invoke(main, ["simulate", "-D", "grid.n=64",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output.splitlines() == [f"out of memory: {exc}" if str(exc)
                                          else "out of memory"]


@pytest.mark.parametrize("command, overrides", [
    ("simulate", ("solver.s=1e308",)),
    ("picard", ("solver.s=1e308",)),
    ("simulate", ("weights.list=poly:400", "grid.n=64")),
])
def test_numerical_failure_is_one_line_on_stderr(tmp_path, command, overrides):
    # in a fresh interpreter, where numpy's floating-point warnings would
    # print source excerpts ahead of the one-line message
    args = [sys.executable, "-m", "dklb.cli", command,
            "-D", f"output.dir={tmp_path}"]
    for override in overrides:
        args += ["-D", override]
    paths = [str(Path(dklb.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(args, capture_output=True, text=True, env=env)
    assert result.returncode == 1, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("numerical failure: "), result.stderr


@pytest.mark.parametrize("command, overrides, rows, lines", [
    ("picard", ("data.amplitude=50.0", "grid.n=64", "solver.t=1.0",
                "solver.nt=8", "solver.max_iter=3"), 3,
     ["numerical failure: not converged after 3 iterations"]),
    ("verify-bracket", ("brackets.tol=1e-300", "brackets.max_n=2"), 12,
     ["12 reductions checked, 12 over tolerance",
      "numerical failure: 12 bracket reductions exceed tolerance 1e-300"]),
])
def test_run_that_fails_its_check_writes_its_csv_and_exits_1(runner, tmp_path,
                                                            command, overrides,
                                                            rows, lines):
    out = tmp_path / "out"
    args = [command, "-D", f"output.dir={out}"]
    for override in overrides:
        args += ["-D", override]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert (out / f"{command}-manifest.ini").exists()
    csv = (out / f"{command}.csv").read_text().splitlines()
    assert len(csv) == 1 + rows
    assert f"wrote {out / f'{command}.csv'}" in result.output
    for line in lines:
        assert line in result.output, result.output


def test_missing_config_file_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--config",
                                  str(tmp_path / "nope.ini")])
    assert result.exit_code == 2
    assert "cannot read config" in result.output


def test_picard_zero_data_converges_immediately(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["picard", "-D", "data.kind=zero",
                                  "-D", "grid.n=64", "-D", "solver.t=0.1",
                                  "-D", "solver.nt=8",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    assert "converged iterations=1" in result.output
    assert (out / "picard.csv").exists()
    assert (out / "picard-manifest.ini").exists()


def test_picard_prints_the_contraction_caveat_of_a_low_order_symbol(runner, tmp_path):
    result = runner.invoke(main, ["picard", "-D", "model.preset=kdvb",
                                  "-D", "grid.n=64", "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-1] == (
        "p=2 <= 5/2: the layered contraction norms are outside their validity "
        "range; diagnostics only")


def test_picard_nonconvergence_exits_1(runner, tmp_path):
    result = runner.invoke(main, ["picard", "-D", "data.amplitude=50.0",
                                  "-D", "grid.n=64", "-D", "solver.t=1.0",
                                  "-D", "solver.nt=8", "-D", "solver.max_iter=3",
                                  "-D", f"output.dir={tmp_path / 'out'}"])
    assert result.exit_code == 1
    assert "not converged" in result.output


def test_picard_csv_has_the_lambda_columns_and_replays_byte_identically(runner,
                                                                        tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["picard", "-D", "model.preset=kdvks",
                                  "-D", "grid.n=64", "-D", "solver.t=0.1",
                                  "-D", "solver.nt=8", "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    first = (out / "picard.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == ("iterate,distance,ratio,lambda1,lambda2,lambda3,"
                        "lambda4,lambda5,lambda6,Lambda")
    rows = [line.split(",") for line in lines[1:]]
    assert rows and all(len(row) == 10 for row in rows)
    assert [row[0] for row in rows] == [str(i + 1) for i in range(len(rows))]
    assert rows[0][2] == ""
    assert all(math.isfinite(float(v)) and float(v) > 0
               for row in rows for v in row[3:])
    replay = runner.invoke(main, ["picard", "--config",
                                  str(out / "picard-manifest.ini")])
    assert replay.exit_code == 0, replay.output
    assert (out / "picard.csv").read_bytes() == first


@pytest.mark.parametrize("preset", ["kdvb", "optimality:2"])
def test_conjugate_check_runs_on_every_polynomial_symbol(runner, tmp_path,
                                                         preset):
    out = tmp_path / "out"
    result = runner.invoke(main, ["conjugate-check", "-D", f"model.preset={preset}",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    assert len((out / "conjugate-check.csv").read_text().splitlines()) == 5


def test_conjugate_check_rejects_non_polynomial_symbols(runner, tmp_path):
    for model in (("model.preset=ost",),
                  ("model.preset=custom", "model.p=3", "model.terms=1 0 2")):
        flags = [arg for item in model for arg in ("-D", item)]
        out = tmp_path / "out"
        result = runner.invoke(main, ["conjugate-check", *flags,
                                      "-D", f"output.dir={out}"])
        assert result.exit_code == 2, result.output
        assert "model: " in result.output
        assert "not a differential-operator polynomial" in result.output
        assert not (out / "conjugate-check.csv").exists()


def test_conjugate_check_leakage_exits_1(runner, tmp_path):
    # a wide Gaussian parked near the right edge puts real mass under e^(bx)
    result = runner.invoke(main, ["conjugate-check",
                                  "-D", "data.center=16.0",
                                  "-D", "data.width=4.0",
                                  "-D", "grid.n=256",
                                  "-D", f"output.dir={tmp_path / 'out'}"])
    assert result.exit_code == 1
    assert "numerical failure" in result.output


def test_conjugate_check_writes_cell_table(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["conjugate-check", "-D", "grid.n=256",
                                  "-D", "grid.l=80.0",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "conjugate-check.csv").read_text().splitlines()
    assert lines[0] == "b,t,rel_error,bound_ratio,delta,mu,boundary_leakage"
    assert len(lines) == 1 + 2 * 2  # default b grid x t grid


def test_verify_bracket_table(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-bracket", "-D", "brackets.max_n=3",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    assert "0 over tolerance" in result.output
    lines = (out / "verify-bracket.csv").read_text().splitlines()
    assert lines[0] == "n,m,a,residual,bound"
    # n=1..3, m<n, a=0..3
    assert len(lines) == 1 + (1 + 2 + 3) * 4
    for line in lines[1:]:
        n, m, a, residual, bound = line.split(",")
        assert float(residual) <= float(bound)


def test_verify_smoothing_smoke(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-smoothing",
                                  "-D", "ensemble.size=4",
                                  "-D", "grid.n=128",
                                  "-D", "smoothing.t=0.5",
                                  "-D", "smoothing.nt=12",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "verify-smoothing.csv").read_text().splitlines()
    assert lines[0] == "sample_id,ratio"
    assert len(lines) == 1 + 4 + 1  # samples plus the max row
    assert lines[-1].startswith("max,")


def test_simulate_writes_norm_index_and_snapshots(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate",
                                  "-D", "grid.n=64",
                                  "-D", "solver.t=0.1", "-D", "solver.nt=8",
                                  "-D", "solver.s=1.0",
                                  "-D", "weights.list=bracket:1 exp:0.1",
                                  "-D", "output.formats=csv snapshots",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "step,t,l2,hs,bracket:1,exp:0.1"
    assert len(lines) == 1 + 9  # 8 steps plus t=0
    assert lines[1].startswith("0,0.0,")
    snaps = sorted(out.glob("simulate-*.dklb"))
    assert len(snaps) == 9


def test_simulate_memory_is_flat_in_the_snapshot_count(runner, tmp_path):
    # simulate holds one row of the solver's stream at a time; reading the
    # rows back from a Trajectory of every snapshot peaked 18 MiB higher at
    # stride 1 than at stride 400
    peaks = []
    for stride in (1, 400):
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["simulate", "-D", "grid.n=1024",
                                          "-D", "solver.t=0.4", "-D", "solver.dt=1e-3",
                                          "-D", f"solver.snapshot_stride={stride}",
                                          "-D", f"output.dir={tmp_path}"])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
    assert peaks[0] - peaks[1] < 2**20, [p / 2**20 for p in peaks]


def test_existence_time_sweep_table(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["existence-time",
                                  "-D", "existence.norms=0.1 1.0",
                                  "-D", "existence.cstars=1.0",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "existence-time.csv").read_text().splitlines()
    assert lines[0] == "u0_norm,cstar,t0,a_sum,threshold"
    assert len(lines) == 3
    for line in lines[1:]:
        _, _, t0, a_sum, threshold = map(float, line.split(","))
        assert 0.0 < t0 <= 1.0 and a_sum < threshold


def test_decay_experiment_smoke(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment",
                                  "-D", "grid.n=128",
                                  "-D", "decay.sigmas=0.0 0.5",
                                  "-D", "decay.t=0.1 0.2",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "decay-experiment.csv").read_text().splitlines()
    assert lines[0] == "sigma,t,norm,mult_bound,fitted_rate"
    assert len(lines) == 1 + 4


# --- replay determinism ------------------------------------------------------


def test_repeat_run_is_byte_identical(runner, tmp_path):
    out = tmp_path / "out"
    args = ["simulate", "-D", "grid.n=64", "-D", "solver.t=0.1",
            "-D", "solver.nt=8", "-D", f"output.dir={out}"]
    assert runner.invoke(main, args).exit_code == 0
    first = (out / "simulate.csv").read_bytes()
    first_manifest = (out / "simulate-manifest.ini").read_bytes()
    assert runner.invoke(main, args).exit_code == 0
    assert (out / "simulate.csv").read_bytes() == first
    assert (out / "simulate-manifest.ini").read_bytes() == first_manifest


def test_manifest_replays_run_byte_identically(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-smoothing",
                                  "-D", "ensemble.size=3",
                                  "-D", "grid.n=64", "-D", "smoothing.nt=8",
                                  "-D", "smoothing.t=0.25",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    first = (out / "verify-smoothing.csv").read_bytes()
    manifest = out / "verify-smoothing-manifest.ini"
    assert manifest.exists()
    # the manifest doubles as a config: replaying it reproduces the CSV bytes
    replay = runner.invoke(main, ["verify-smoothing", "--config", str(manifest)])
    assert replay.exit_code == 0, replay.output
    assert (out / "verify-smoothing.csv").read_bytes() == first


def test_verify_bracket_replays_byte_identically_from_its_manifest(runner,
                                                                   tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-bracket", "-D", "brackets.max_n=2",
                                  "-D", "brackets.max_a=1",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    first = (out / "verify-bracket.csv").read_bytes()
    assert len(first.decode().splitlines()) == 1 + (1 + 2) * 2
    replay = runner.invoke(main, ["verify-bracket", "--config",
                                  str(out / "verify-bracket-manifest.ini")])
    assert replay.exit_code == 0, replay.output
    assert (out / "verify-bracket.csv").read_bytes() == first


# data rows the replayed CSVs must hold, where the overrides fix them: one
# b times two t
REPLAY_ROWS = {"conjugate-check": 2}


@pytest.mark.parametrize("command, overrides", [
    ("conjugate-check", ("conjugation.b=0.25", "conjugation.t=0.05 0.1")),
    ("decay-experiment", ("grid.n=64",)),
    ("existence-time", ("existence.norms=0.1 1.0",)),
    ("verify-bracket", ("brackets.max_n=2", "brackets.max_a=1")),
])
def test_subcommand_replays_byte_identically_from_its_manifest(runner, tmp_path,
                                                               command,
                                                               overrides):
    out = tmp_path / "out"
    args = [command, *(arg for o in overrides for arg in ("-D", o)),
            "-D", f"output.dir={out}"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    csv, manifest = out / f"{command}.csv", out / f"{command}-manifest.ini"
    first, first_manifest = csv.read_bytes(), manifest.read_bytes()
    if command in REPLAY_ROWS:
        assert len(first.decode().splitlines()) == 1 + REPLAY_ROWS[command]
    csv.unlink()
    replay = runner.invoke(main, [command, "--config", str(manifest)])
    assert replay.exit_code == 0, replay.output
    assert csv.read_bytes() == first
    assert manifest.read_bytes() == first_manifest


def test_manifest_with_a_removed_key_exits_2_and_names_it(runner, tmp_path):
    # manifests written while solver.cstar existed are not replayable
    old = tmp_path / "picard-manifest.ini"
    old.write_text("[solver]\nt = 0.1\ncstar = 1.0\n"
                   "[manifest]\nsubcommand = picard\n")
    result = runner.invoke(main, ["picard", "--config", str(old),
                                  "-D", f"output.dir={tmp_path / 'out'}"])
    assert result.exit_code == 2, result.output
    assert "unknown config key solver.cstar" in result.output


def test_manifest_records_subcommand_seed_and_hash(runner, tmp_path):
    out = tmp_path / "out"
    runner.invoke(main, ["picard", "-D", "data.kind=zero", "-D", "grid.n=64",
                         "-D", "solver.t=0.1", "-D", "solver.nt=8",
                         "-D", f"output.dir={out}"])
    text = (out / "picard-manifest.ini").read_text()
    assert "[manifest]" in text
    assert "subcommand = picard" in text
    assert "seed = 2024" in text
    cfg = load_config(out / "picard-manifest.ini")
    assert f"hash = {cfg.content_hash()}" in text
