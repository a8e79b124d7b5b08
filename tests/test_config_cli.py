import ast
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
from dklb import cli
from dklb.cli import main
from dklb.config import _SCHEMA, load_config
from dklb.conjugation import regularity_gain_probe
from dklb.errors import ConfigError, NumericalError
from dklb.fields import mollified_cusp
from dklb.grid import SpectralGrid, from_kept, l2_norm, read_snapshot
from dklb.symbols import kdvks, optimality, phase_eval, preset

from conftest import hermitian_defect


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
    assert cfg.build_phase() is phase  # built once, at load; nothing is computed
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


def test_content_hash_without_sha1_is_still_the_git_blob_sha1():
    # a CPython built without its own _sha1 hashes through hashlib instead
    result = _fresh_python("-c", "import sys; sys.modules['_sha1'] = None; "
                           "from dklb.config import load_config; "
                           "cfg = load_config(None); "
                           "print('hashlib' in sys.modules, cfg.content_hash()); "
                           "sys.stdout.write(cfg.echo())")
    assert result.returncode == 0, result.stderr
    first, body = result.stdout.split("\n", 1)
    oracle = subprocess.run(["git", "hash-object", "--stdin"], input=body.encode(),
                            capture_output=True, check=True)
    assert first == f"True {oracle.stdout.decode().strip()}"


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


def _fresh_python(*args):
    # a fresh interpreter that imports this dklb, outside pytest's warning
    # filters and with none of the modules the tests have loaded
    paths = [str(Path(dklb.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def _fresh_cli(*args):
    return _fresh_python("-m", "dklb.cli", *args)


def test_the_cli_loads_brackets_and_plots_only_for_the_runs_that_use_them():
    # verify-bracket alone reads brackets (and fractions), the svg format
    # alone plots (and csv); the other runs do not load them
    unused = ("dklb.brackets", "fractions", "dklb.plots", "csv")
    result = _fresh_python("-c", "import sys, dklb.cli, dklb.config; "
                           "dklb.config.load_config(); "
                           f"print([m for m in {unused!r} if m in sys.modules])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_the_run_path_loads_no_dataclasses_configparser_or_locale(tmp_path):
    # after numpy and click, dklb's start-up adds only its own modules,
    # __future__ and _sha1: dataclasses (and copy), configparser and locale
    # (through click.Path) cost milliseconds on every run, and so does
    # pathlib (dklb names its files with os.path).  A --config run loads
    # configparser; verify-bracket alone loads dataclasses, with fractions.
    config = tmp_path / "run.ini"
    config.write_text(f"[grid]\nn = 64\n[output]\ndir = {tmp_path / 'file'}\n")
    bracket = ("verify-bracket", "-D", "brackets.max_n=2", "-D", "brackets.max_a=1",
               "-D", "brackets.pairs=1", "-D", f"output.dir={tmp_path / 'bracket'}")
    result = _fresh_python("-c", "import sys\n"
                           "import click, numpy\n"
                           "before = set(sys.modules)\n"
                           "import dklb.cli, dklb.config\n"
                           "dklb.config.load_config()\n"
                           "print('added', sorted(m for m in set(sys.modules) - before\n"
                           "                      if m.partition('.')[0] != 'dklb'))\n"
                           "for run in sys.argv[1:]:\n"
                           "    try:\n"
                           "        dklb.cli.main(run.split('|'))\n"
                           "    except SystemExit as done:\n"
                           "        assert done.code == 0, (run, done.code)\n"
                           "    print('loaded', [m for m in ('configparser', 'dataclasses',\n"
                           "                                 'fractions') if m in sys.modules])\n",
                           f"existence-time|--config|{config}", "|".join(bracket))
    assert result.returncode == 0, result.stderr
    lines = [line.split(" ", 1) for line in result.stdout.splitlines()]
    added = [ast.literal_eval(rest) for word, rest in lines if word == "added"]
    assert len(added) == 1 and set(added[0]) <= {"__future__", "_sha1"}, added
    assert [rest for word, rest in lines if word == "loaded"] == [
        "['configparser']", "['configparser', 'dataclasses', 'fractions']"]
    assert "n = 64\n" in (tmp_path / "file" / "existence-time-manifest.ini").read_text()


def test_a_bare_interpreter_loads_only_dklb_and_sha1_for_the_cli():
    # under -S no site-packages .pth file loads anything, so after numpy and
    # click, importing the cli adds dklb's own modules and the manifest's
    # _sha1 only (and __future__, where the installed click does not load
    # it): no pathlib, whose import adds fnmatch, ipaddress, ntpath, urllib
    # and urllib.parse on every run
    import click

    sites = {os.path.dirname(os.path.dirname(m.__file__)) for m in (np, click)}
    paths = [str(Path(dklb.__file__).resolve().parents[1]), *sorted(sites)]
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\n"
         "import click, numpy\n"
         "before = set(sys.modules)\n"
         "import dklb.cli\n"
         "print(sorted(m for m in set(sys.modules) - before\n"
         "             if m.partition('.')[0] != 'dklb'))\n"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert result.returncode == 0, result.stderr
    assert set(ast.literal_eval(result.stdout)) <= {"__future__", "_sha1"}, result.stdout


def test_simulate_norms_are_within_2_ulps_of_l2_norm(runner, tmp_path):
    # each default row's l2 and hs cells (s = 0) sum the mirrored power of
    # the snapshot's kept row, and l2_norm takes a BLAS norm of its full
    # spectrum: the two sum in other orders
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "-D", "output.formats=csv snapshots",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "simulate.csv").read_text().splitlines()[1:]
    assert len(lines) == 65
    for line in lines:
        step, _, l2, hs = line.split(",")
        assert l2 == hs
        field, _ = read_snapshot(out / f"simulate-{int(step):06d}.dklb")
        assert abs(float(l2) - l2_norm(field)) <= 2 * math.ulp(l2_norm(field)), step


@pytest.mark.parametrize("s, per_row", [("0", 1), ("0.5", 2)])
def test_simulate_takes_l2_once_where_hs_is_l2(runner, tmp_path, monkeypatch, s,
                                               per_row):
    # at solver.s = 0 the H^s norm is the L^2 norm, and each row takes it once
    calls = []
    hs_norm = cli.hs_norm

    def counting(grid, coeffs, s=0.0):
        calls.append(s)
        return hs_norm(grid, coeffs, s)

    monkeypatch.setattr(cli, "hs_norm", counting)
    result = runner.invoke(main, ["simulate", "-D", "grid.n=64", "-D", "solver.t=0.1",
                                  "-D", "solver.nt=8", "-D", f"solver.s={s}",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 9 * per_row


def test_no_run_loads_openssl(tmp_path):
    # the manifest hash comes from CPython's own _sha1, and numpy.random
    # (which imports secrets, hence hmac and hashlib) is imported with
    # _hashlib blocked, so no run loads OpenSSL's libcrypto, not even the
    # runs that draw random data
    runs = (("simulate",), ("picard",), ("existence-time",),
            ("decay-experiment",), ("verify-bracket",), ("conjugate-check",),
            ("verify-smoothing", "-D", "ensemble.size=4"),
            ("simulate", "-D", "data.kind=mixture", "-D", "solver.t=0.01"),
            ("picard", "-D", "data.kind=mixture", "-D", "solver.t=0.01"))
    result = _fresh_python("-c", "import os, sys\n"
                           "from dklb.cli import main\n"
                           f"for i, run in enumerate({runs!r}):\n"
                           f"    out = os.path.join({str(tmp_path)!r}, str(i))\n"
                           "    try:\n"
                           "        main([*run, '-D', 'output.dir=' + out])\n"
                           "    except SystemExit as done:\n"
                           "        assert done.code == 0, run\n"
                           "maps = '/proc/self/maps'\n"
                           "mapped = os.path.exists(maps) and 'libcrypto' in open(maps).read()\n"
                           "print('_hashlib' in sys.modules, mapped)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False False"
    assert len(list(tmp_path.glob("*/*-manifest.ini"))) == len(runs)


def test_hashlib_imported_after_a_draw_is_openssl_backed():
    result = _fresh_python("-c", "import sys\n"
                           "from dklb.fields import sample_ensemble\n"
                           "from dklb.grid import SpectralGrid\n"
                           "next(sample_ensemble(SpectralGrid(64, 10.0), 1, 0))\n"
                           "import hashlib, hmac, secrets\n"
                           "print('_hashlib' in sys.modules)\n"
                           "import _hashlib\n"
                           "import numpy as np\n"
                           "np.random.default_rng().standard_normal()\n"
                           "print(hmac.compare_digest is _hashlib.compare_digest, "
                           "secrets.compare_digest is _hashlib.compare_digest, "
                           "hashlib.sha256(b'').hexdigest()[:8])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "True", "True", "e3b0c442"]


# (test id, what the interpreter imports before its first draw)
_PRELUDES = (("guarded", ""),
             ("hashlib-first", "import hashlib\n"),
             ("hashlib-without-openssl",
              "sys.modules['_hashlib'] = None\n"
              "import hashlib\n"
              "del sys.modules['_hashlib']\n"))


@pytest.mark.parametrize("prelude", [p for _, p in _PRELUDES],
                         ids=[name for name, _ in _PRELUDES])
def test_the_first_draw_keeps_a_loaded_hashlib_and_draws_the_same(prelude):
    # an interpreter that loaded hashlib before its first draw, with or
    # without OpenSSL, keeps that module object (one that had not loaded it
    # still has none), and every interpreter draws the guarded one's first
    # ensemble sample bit for bit
    def first_sample(prelude):
        result = _fresh_python("-c", "import sys\n" + prelude +
                               "before = sys.modules.get('hashlib')\n"
                               "from dklb.fields import sample_ensemble\n"
                               "from dklb.grid import SpectralGrid\n"
                               "u0 = next(sample_ensemble(SpectralGrid(256, 40.0), 3, 7))\n"
                               "print(sys.modules.get('hashlib') is before, "
                               "u0.coeffs.tobytes().hex())")
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    kept, sample = first_sample(prelude)
    assert kept == "True"
    assert sample == first_sample("")[1]


def test_numpy_random_is_named_only_inside_fields_numpy_random():
    # annotations are not evaluated under `from __future__ import annotations`
    import ast

    def names_numpy_random(node):
        if isinstance(node, ast.Import):
            return any((a.name + ".").startswith("numpy.random.") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return ((node.module or "") + ".").startswith("numpy.random.") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        return (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))

    inside, outside = [], []
    for path in sorted(Path(dklb.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        annotations = [n.annotation for n in ast.walk(tree)
                       if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
        annotations += [n.returns for n in ast.walk(tree)
                        if isinstance(n, ast.FunctionDef) and n.returns]
        skip = {id(n) for root in annotations for n in ast.walk(root)}
        guarded = {id(n) for f in ast.walk(tree) if path.name == "fields.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "numpy_random"
                   for n in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) not in skip and names_numpy_random(node):
                (inside if id(node) in guarded else outside).append(
                    f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside  # the scan sees the one import it allows


def test_the_bracket_pairs_bound_is_the_number_of_standard_pairs():
    from dklb import brackets, config

    assert config._BRACKET_PAIRS == len(brackets.standard_pairs())
    assert _SCHEMA["brackets"]["pairs"][1] == str(config._BRACKET_PAIRS)


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
    for key in _SCHEMA["data"]:
        yield pytest.param(("conjugate-check", "-D", "data.kind=spectral-gaussian"),
                           f"data.{key}",
                           id=f"conjugate-check:spectral-gaussian:data.{key}")
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
    # the decay probe on a small grid, its model keys also on a custom symbol
    # (a preset ignores model.p and model.terms), and the bracket verifier on
    # few brackets
    for section in ("model", "grid", "decay"):
        for key in _SCHEMA[section]:
            yield pytest.param(("decay-experiment", "-D", "grid.n=64"),
                               f"{section}.{key}",
                               id=f"decay-experiment:{section}.{key}")
    for key in _SCHEMA["model"]:
        yield pytest.param(("decay-experiment", "-D", "grid.n=64",
                            "-D", "model.preset=custom", "-D", "model.p=4"),
                           f"model.{key}", id=f"decay-experiment:custom:model.{key}")
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


def _assert_ends_in_an_exit_code(result, tmp_path, *names):
    # exit 0, 1 or 2, never a traceback; a refusal names one of names, and
    # every CSV a run leaves holds only finite cells: a run that fails its
    # own check (exit 1, a picard that does not converge, say) still writes one
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    if result.exit_code == 2:
        assert any(name in result.output for name in names), result.output
    for path in tmp_path.glob("*.csv"):
        assert _non_finite_cells(path) == [], path.name


@pytest.mark.parametrize("value", HOSTILE_VALUES)
@pytest.mark.parametrize("command, key", _hostile_cases())
def test_hostile_value_ends_in_an_exit_code(runner, tmp_path, command, key,
                                            value):
    result = runner.invoke(main, [*command, "-D", f"{key}={value}",
                                  "-D", f"output.dir={tmp_path}"])
    _assert_ends_in_an_exit_code(result, tmp_path, key)


@pytest.mark.parametrize("value", HOSTILE_VALUES)
@pytest.mark.parametrize("key, template, other", [
    ("model.p", "{}", "model.terms=1 0 2"),
    ("model.terms", "{} 0 2", "model.p=4"),
    ("model.terms", "1 0 {}", "model.p=4"),
], ids=["p", "coeff", "power"])
@pytest.mark.parametrize("command", ["existence-time", "simulate", "decay-experiment"])
def test_hostile_custom_symbol_ends_in_an_exit_code(runner, tmp_path, command,
                                                    key, template, other, value):
    # a preset ignores model.p and model.terms, so the sweep above builds a
    # custom symbol only for decay-experiment, where a terms value is never
    # three numbers; "model:" is the rule that spans both keys, a correction
    # degree of at least p
    result = runner.invoke(main, [command, "-D", "model.preset=custom",
                                  "-D", other, "-D", "grid.n=64",
                                  "-D", f"{key}={template.format(value)}",
                                  "-D", f"output.dir={tmp_path}"])
    _assert_ends_in_an_exit_code(result, tmp_path, key, "model:")


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


_HUGE_TERMS = ("-D", "model.preset=custom", "-D", "model.p=4",
               "-D", "model.terms=1e300 0 2", "-D", "grid.n=64")


def test_finite_custom_terms_build_however_large(runner, tmp_path):
    # existence-time reads only p and eta, so the bytes are those of kdvks
    out = {}
    for name, symbol in (("huge", _HUGE_TERMS), ("kdvks", ("-D", "grid.n=64"))):
        out[name] = tmp_path / name
        result = runner.invoke(main, ["existence-time", *symbol,
                                      "-D", f"output.dir={out[name]}"])
        assert result.exit_code == 0, result.output
    assert ((out["huge"] / "existence-time.csv").read_bytes()
            == (out["kdvks"] / "existence-time.csv").read_bytes())


def test_overflowing_custom_terms_meet_the_solver_guard(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", *_HUGE_TERMS,
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "ETDRK4 lost finiteness at step 1" in result.output
    assert not (out / "simulate.csv").exists()


@pytest.mark.parametrize("command", ["conjugate-check", "simulate", "picard"])
def test_an_overflowing_spectral_gaussian_width_exits_1_naming_it(runner, tmp_path,
                                                                 command):
    # width**2 overflows in the normalizing factor (4 pi width^2)^(1/4)
    result = runner.invoke(main, [command, "-D", "data.kind=spectral-gaussian",
                                  "-D", "data.width=1e160",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "data.width" in result.output, result.output
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", sorted(main.commands))
@pytest.mark.parametrize("preset", ["custom", "kdvks"])
@pytest.mark.parametrize("terms", ["nan 0 2", "inf 0 2", "1 0 nan", "1 0 inf"])
def test_non_finite_terms_exit_2_and_name_the_field(runner, tmp_path, command,
                                                    preset, terms):
    result = runner.invoke(main, [command, "-D", f"model.preset={preset}",
                                  "-D", "model.p=4", "-D", f"model.terms={terms}",
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 2, result.output
    bad = next(tok for tok in terms.split() if tok in ("nan", "inf"))
    assert result.output.splitlines() == [
        f"validation error: model.terms: must be a finite number, got '{bad}'"]


def test_non_finite_terms_refusal_is_one_line_on_stderr(tmp_path):
    # refused at parsing, before any evaluation of the symbol could print a
    # numpy warning ahead of the message
    result = _fresh_cli("existence-time", "-D", "model.preset=custom",
                        "-D", "model.p=4", "-D", "model.terms=inf 0 2",
                        "-D", f"output.dir={tmp_path}")
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines() == [
        "validation error: model.terms: must be a finite number, got 'inf'"], \
        result.stderr


def test_no_symbol_build_runs_find_m(monkeypatch):
    import dklb.symbols

    def refuse(phi):
        raise AssertionError("find_M ran while a symbol was built")

    monkeypatch.setattr(dklb.symbols, "find_M", refuse)
    load_config(None, ("model.preset=custom", "model.p=4",
                       "model.terms=1 0 2; -3 1 1.5"))
    for name in ("kdvb", "ost", "kdvks", "optimality:2", "optimality:5"):
        load_config(None, (f"model.preset={name}",))


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


@pytest.mark.parametrize("override", ["existence.norms=1e300", "existence.norms=1e308",
                                      "existence.cstars=1e308"])
def test_existence_time_without_a_positive_horizon_exits_1_naming_the_keys(
        runner, tmp_path, override):
    # the bookkeeping fails at every double T > 0 (or z0 overflows), so the
    # first pair is refused and no CSV is written, not a row with t0 = 0.0
    result = runner.invoke(main, ["existence-time", "-D", override,
                                  "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 1, result.output
    pair = "norm 0.01, cstar 1e+308" if "cstars" in override else (
        f"norm {float(override.split('=')[1])!r}, cstar 0.5")
    assert (f"numerical failure: existence.norms/existence.cstars: no horizon at "
            f"{pair}: ") in result.output
    assert not (tmp_path / "existence-time.csv").exists()


@pytest.mark.parametrize("args", [
    ("decay-experiment", "-D", "decay.h=1e200"),  # h**2 overflows
    ("simulate", "-D", "data.kind=cusp", "-D", "decay.h=1e200"),
    ("decay-experiment", "-D", "decay.gamma=700"),  # the power overflows
    ("picard", "-D", "data.kind=cusp", "-D", "decay.gamma=-1e300"),  # inf, and 0
])
def test_cusp_data_that_leave_the_doubles_exit_1_naming_the_decay_keys(runner, tmp_path,
                                                                       args):
    result = runner.invoke(main, [*args, "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 1, result.output
    assert ("numerical failure: decay.gamma/decay.h: the cusp's node values at "
            in result.output)
    assert not list(tmp_path.glob("*.csv"))


def test_mollified_cusp_refuses_node_values_that_leave_the_doubles():
    grid = SpectralGrid(64, 40.0)
    with np.errstate(all="ignore"):
        for gamma, h in ((0.5, 1e200), (700.0, 0.05), (-1e300, 0.05), (-700.0, 1e3)):
            with pytest.raises(NumericalError, match="leave the doubles"):
                mollified_cusp(grid, gamma, h)
    # at gamma = 0 an h whose square overflows is harmless: its power is 1
    assert np.array_equal(mollified_cusp(grid, 0.0, 1e200).coeffs,
                          mollified_cusp(grid, 0.0, 1.0).coeffs)


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


@pytest.mark.parametrize("overrides", [
    ("model.preset=custom", "model.p=200"),
    ("model.preset=custom", "model.p=200", "solver.method=linear"),
    ("model.preset=kdvb", "model.eta=1e300"),
])
def test_simulate_runs_where_the_contour_terms_overflow(runner, tmp_path, overrides):
    # ETDRK4 runs on every symbol Picard runs on: here the contour means of
    # its coefficients overflow at modes whose flow multiplier is exactly 0
    args = [a for o in overrides for a in ("-D", o)]
    result = runner.invoke(main, ["simulate", *args, "-D", f"output.dir={tmp_path}"])
    assert result.exit_code == 0, result.output


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
    # P_inf, whose constant is 1: for the other checks exp(eta*T) overflows
    # their constant first
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-smoothing", "-D", "smoothing.t=1e308",
                                  "-D", "smoothing.check=P_inf",
                                  "-D", "ensemble.size=4",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "numerical failure: non-finite bound ratio" in result.output
    assert not (out / "verify-smoothing.csv").exists()


def test_overflowing_flow_exits_1_and_writes_no_csv(runner, tmp_path):
    # eta*t*Phi overflows a double on the unstable band, so no ratio is
    # finite; P_inf, as exp(eta*T) overflows the other checks' constant first
    out = tmp_path / "out"
    result = runner.invoke(main, ["verify-smoothing", "-D", "model.eta=1e308",
                                  "-D", "smoothing.check=P_inf",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "numerical failure: non-finite bound ratio" in result.output
    assert not (out / "verify-smoothing.csv").exists()


@pytest.mark.parametrize("overrides, key", [
    # every row's L^b_x norm rounds to 0 (unchecked: ratios 0.0, constant 0.066)
    (("smoothing.b=2000",), "smoothing.b"),
    # the L^a_T norm of the rows' sup norms rounds to 0; alpha(a, inf, 0) > 0
    # needs a < p + 1, and p = 3000 keeps |xi|^p finite on 16 modes
    (("smoothing.check=C1", "smoothing.a=2500", "model.preset=custom",
      "model.p=3000", "grid.n=16"), "smoothing.a"),
])
def test_an_exponent_that_makes_the_ratios_vacuous_exits_1(runner, tmp_path,
                                                          overrides, key):
    out = tmp_path / "out"
    args = ["verify-smoothing", "-D", "ensemble.size=4", "-D", f"output.dir={out}"]
    for override in overrides:
        args += ["-D", override]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert f"numerical failure: {key}: the L^" in result.output
    assert "rounds to 0" in result.output
    assert not (out / "verify-smoothing.csv").exists()


def test_decay_norms_are_the_exact_flow_at_long_times(runner, tmp_path):
    # optimality:2 grows like exp(0.105*t): at t = 1000 the norm is about 1.6e44
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment", "-D", "decay.t=100 500 1000",
                                  "-D", "model.preset=optimality:2",
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
        keep, tail, _, buffers = advection(grid, real)

        def never(v, out):
            raise AssertionError("an ETDRK4 step ran")

        return keep, tail, never, buffers

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

    monkeypatch.setattr(dklb.cli, "etdrk4_solve", refuse)
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
    result = _fresh_cli(command, "-D", f"output.dir={tmp_path}",
                        *(arg for override in overrides for arg in ("-D", override)))
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


def test_config_file_that_is_not_utf8_exits_2_and_names_it(runner, tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"\xff[grid]\nn = 64\n")
    result = runner.invoke(main, ["simulate", "--config", str(bad),
                                  "-D", f"output.dir={tmp_path / 'out'}"])
    assert result.exit_code == 2, result.output
    assert f"validation error: malformed config {bad}: " in result.output
    assert not (tmp_path / "out").exists()


def test_config_file_reads_as_utf8_under_an_ascii_locale(tmp_path, monkeypatch):
    # the manifest is written as UTF-8 too, so a replay reads what a run wrote
    config = tmp_path / "run.ini"
    config.write_bytes(b"# \xc3\xa9ta = 1\n[grid]\nn = 64\n")
    for name, value in (("LC_ALL", "C"), ("PYTHONCOERCECLOCALE", "0"), ("PYTHONUTF8", "0")):
        monkeypatch.setenv(name, value)
    result = _fresh_python("-c", "import sys\n"
                           "from dklb.config import load_config\n"
                           "print(load_config(sys.argv[1]).get('grid', 'n'))", str(config))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "64\n"


def test_help_names_the_config_option_path(runner):
    result = runner.invoke(main, ["simulate", "--help"])
    assert result.exit_code == 0, result.output
    assert "-c, --config PATH  " in result.output


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


def test_picard_divergence_exits_1_and_names_the_iterate(runner, tmp_path):
    # at T = 16 the default kdvks problem has no fixed point on 64 nodes: the
    # L4 norms of iterate 9 overflow, before the distance between iterates
    # does at iterate 10, and the message names the iterate and the lambda
    # rather than only saying that a norm is not finite
    out = tmp_path / "out"
    result = runner.invoke(main, ["picard", "-D", "solver.t=16",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.output.splitlines() == [
        "numerical failure: Picard iterate 9: lambda2: the L^4.0 norm of "
        "finite magnitudes, not all zero, overflows"]
    assert not (out / "picard.csv").exists()


@pytest.mark.parametrize("overrides, line", [
    # the last iterate allowed is the one whose lambdas overflow: no row of
    # inf reaches the CSV of a run that stops there
    (["solver.t=16", "solver.max_iter=9"],
     "Picard iterate 9: lambda2: the L^4.0 norm of finite magnitudes, "
     "not all zero, overflows"),
    # nonzero data whose fourth powers underflow: no lambda of 0.0
    (["model.preset=kdvb", "data.amplitude=1e-90"],
     "Picard iterate 1: lambda2: the L^4.0 norm of finite magnitudes, "
     "not all zero, rounds to 0"),
], ids=["overflows", "rounds-to-0"])
def test_picard_lambda_lost_at_its_exponent_exits_1(runner, tmp_path, overrides,
                                                    line):
    out = tmp_path / "out"
    args = ["picard", "-D", f"output.dir={out}"]
    for item in overrides:
        args += ["-D", item]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [f"numerical failure: {line}"]
    assert not (out / "picard.csv").exists()


@pytest.mark.parametrize("overrides", [("model.preset=kdvb", "model.eta=710"),
                                       ("model.preset=kdvb", "solver.t=800")])
def test_picard_with_an_infinite_lambda_constant_exits_1_and_names_its_keys(
        runner, tmp_path, overrides):
    # exp(eta*T) overflows, so lambda2 and lambda3 would read 0.0
    out = tmp_path / "out"
    args = ["picard", "-D", "grid.n=64", "-D", "solver.nt=8", "-D", f"output.dir={out}"]
    for override in overrides:
        args += ["-D", override]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.output.startswith("numerical failure: model.eta/solver.t: "
                                    "the bound constant A(2.0, 4.0, 0.0)(T) = inf")
    assert not (out / "picard.csv").exists()


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


def test_conjugate_check_bound_ratio_past_the_exp_range(runner, tmp_path):
    # e^720 overflows a double, but the bound's two exponentials taken as one
    # do not, and the ratio itself is representable
    out = tmp_path / "out"
    result = runner.invoke(main, ["conjugate-check", "-D", "conjugation.t=720",
                                  "-D", "conjugation.max_leakage=1",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    rows = (out / "conjugate-check.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        ratio = float(row.split(",")[3])
        assert math.isfinite(ratio) and ratio > 0.0, row


def test_decay_experiment_reports_an_infinite_envelope(runner, tmp_path):
    # eta*t*Phi overflows on the unstable band: the envelope is inf, not nan
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment", "-D", "model.eta=1e308",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "envelope inf at sigma=0.0, t=0.1" in result.output
    assert not (out / "decay-experiment.csv").exists()


def test_decay_experiment_where_eta_t_underflows(runner, tmp_path):
    # eta*t = 1e-330 and 1e-320: the envelope is finite and bounds every mode
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment", "-D", "model.eta=1e-300",
                                  "-D", "decay.t=1e-30 1e-20",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    grid = SpectralGrid(256, 40.0)
    phi = kdvks(1e-300)
    lines = (out / "decay-experiment.csv").read_text().splitlines()[1:]
    assert len(lines) == 6
    for line in lines:
        sigma, t, _, bound = map(float, line.split(",")[:4])
        modes = np.abs(grid.xi) ** sigma * np.exp(phi.eta * t * phase_eval(phi, grid.xi))
        assert math.isfinite(bound) and np.max(modes) <= bound, line


def test_decay_experiment_over_its_envelope_writes_the_csv_and_exits_1(
        runner, tmp_path, monkeypatch):
    # a doubled flow table doubles every norm; at sigma = 0 the envelope is
    # within 4% of the norm at t = 0.1, so that row breaks it
    from dklb import symbols

    flow = symbols.flow_multiplier
    monkeypatch.setattr(symbols, "flow_multiplier",
                        lambda phi, t, grid, real=False: 2.0 * flow(phi, t, grid, real))
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment", "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert "numerical failure: " in result.output
    assert "exceed their envelope beyond rounding, the first at sigma=0.0, t=0.1" \
        in result.output
    lines = (out / "decay-experiment.csv").read_text().splitlines()[1:]
    assert len(lines) == 9
    _, _, norm, bound = map(float, lines[0].split(",")[:4])
    assert norm > bound


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


@pytest.mark.parametrize("overrides", [("model.preset=kdvb", "model.eta=710"),
                                       ("smoothing.t=800",)])
def test_an_infinite_bound_constant_exits_1_and_names_its_keys(runner, tmp_path,
                                                              overrides):
    # exp(eta*T) overflows, so every ratio against A would read 0.0
    out = tmp_path / "out"
    args = ["verify-smoothing", "-D", "ensemble.size=4", "-D", f"output.dir={out}"]
    for override in overrides:
        args += ["-D", override]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert "numerical failure: model.eta/smoothing.t: the bound constant" \
        in result.output
    assert not (out / "verify-smoothing.csv").exists()
    # P_inf's constant is 1
    result = runner.invoke(main, [*args, "-D", "smoothing.check=P_inf",
                                  "-D", "smoothing.q=0.5"])
    assert result.exit_code == 0, result.output


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


def test_simulate_summary_counts_rows_with_or_without_snapshots(runner, tmp_path):
    # the summary counts the rows of simulate.csv, which the default
    # output.formats = csv writes without a single snapshot
    for formats, snapshots in (("csv", 0), ("csv snapshots", 9)):
        out = tmp_path / formats.replace(" ", "-")
        result = runner.invoke(main, ["simulate", "-D", "grid.n=64",
                                      "-D", "solver.t=0.1", "-D", "solver.nt=8",
                                      "-D", f"output.formats={formats}",
                                      "-D", f"output.dir={out}"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1].startswith("simulate: 9 rows, final l2=")
        assert len(list(out.glob("*.dklb"))) == snapshots


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
def test_simulate_step_0_snapshot_is_u0s_kept_row_whole(runner, tmp_path, name):
    # step 0 is extended from u0's kept row like every later row: for a real
    # flow an exactly Hermitian spectrum, where u0's own FFT spectrum misses
    # the exact conjugates by rounding
    overrides = (f"model.preset={name}", "solver.t=0.01", "solver.nt=2",
                 "output.formats=csv snapshots", f"output.dir={tmp_path}")
    args = [a for o in overrides for a in ("-D", o)]
    result = runner.invoke(main, ["simulate", *args])
    assert result.exit_code == 0, result.output
    cfg = load_config(None, overrides)
    grid = cfg.build_grid()
    u0 = cfg.build_data(grid)
    real = cfg.build_phase().is_even
    field, t = read_snapshot(tmp_path / "simulate-000000.dklb")
    assert t == 0.0 and field.is_real == real
    want = from_kept(grid, u0.coeffs[: grid.kept_modes(real)])
    assert np.array_equal(field.coeffs, want.coeffs)
    if real:
        assert hermitian_defect(field.coeffs) == 0.0 < hermitian_defect(u0.coeffs)


def test_simulate_memory_is_flat_in_the_snapshot_count(runner, tmp_path):
    # simulate holds one row of the solver's stream at a time, so its peak
    # does not grow with the snapshot count.  Each CSV row is written as it
    # comes: holding the rows and joining the CSV peaked 395 KiB higher at
    # 1500 rows than at 300 (n = 64), the streamed CSV less than 1 KiB higher
    def peak(n, T, stride):
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["simulate", "-D", f"grid.n={n}",
                                          "-D", f"solver.t={T}", "-D", "solver.dt=1e-3",
                                          "-D", f"solver.snapshot_stride={stride}",
                                          "-D", f"output.dir={tmp_path}"])
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        return traced

    strides = [peak(1024, 0.4, stride) for stride in (1, 400)]
    assert strides[0] - strides[1] < 2**20, [p / 2**20 for p in strides]
    steps = [peak(64, T, 1) for T in (0.3, 1.5)]
    assert steps[1] - steps[0] < 128 * 2**10, [p / 2**10 for p in steps]


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


def test_decay_experiment_probes_the_model_symbol(runner, tmp_path):
    # the rows are the probe's under the [model] symbol, so two presets write
    # two different tables
    cfg = load_config(None, ("grid.n=64",))
    tables = {}
    for name in ("kdvb", "optimality:2"):
        u0 = mollified_cusp(cfg.build_grid(), cfg.get("decay", "gamma"),
                            cfg.get("decay", "h"))
        report = regularity_gain_probe(preset(name), u0, cfg.get("decay", "sigmas"),
                                       cfg.get("decay", "t"))
        out = tmp_path / name.replace(":", "")
        result = runner.invoke(main, ["decay-experiment", "-D", "grid.n=64",
                                      "-D", f"model.preset={name}",
                                      "-D", f"output.dir={out}"])
        assert result.exit_code == 0, result.output
        tables[name] = (out / "decay-experiment.csv").read_text().splitlines()[1:]
        assert tables[name] == [
            f"{r['sigma']!r},{r['t']!r},{r['norm']!r},{r['mult_bound']!r},"
            f"{report.fitted_rates[r['sigma']]!r}" for r in report.rows]
    assert tables["kdvb"] != tables["optimality:2"]


def test_decay_experiment_at_a_large_leading_power_exits_0(runner, tmp_path):
    # the envelope's stationary point (q/(eta*t*p))**(1/p) lies just below 1,
    # where the search ends before x**p leaves the doubles
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment", "-D", "grid.n=64",
                                  "-D", "model.preset=custom", "-D", "model.p=1e4",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    rows = (out / "decay-experiment.csv").read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(r.split(",")[3])) for r in rows)


@pytest.mark.parametrize("p", ["1e308", "1e-320"])
def test_decay_experiment_whose_envelope_leaves_the_doubles_exits_1(runner,
                                                                    tmp_path, p):
    out = tmp_path / "out"
    result = runner.invoke(main, ["decay-experiment", "-D", "grid.n=64",
                                  "-D", "model.preset=custom", "-D", f"model.p={p}",
                                  "-D", f"output.dir={out}"])
    assert result.exit_code == 1, result.output
    assert ("numerical failure: the envelope's root search leaves the doubles "
            f"at leading power p={float(p)!r}") in result.output
    assert not (out / "decay-experiment.csv").exists()


@pytest.mark.parametrize("p", ["0.5", "0.3"])
def test_picard_omits_lambda2_where_its_constant_is_infinite(runner, tmp_path, p):
    # alpha(2, 4, 0) <= 0 for p <= 1/2: lambda2 is undefined, not a reason to
    # refuse solver.nt
    out = tmp_path / "out"
    result = runner.invoke(main, ["picard", "-D", "model.preset=custom",
                                  "-D", f"model.p={p}", "-D", f"output.dir={out}"])
    assert result.exit_code == 0, result.output
    lines = (out / "picard.csv").read_text().splitlines()
    assert lines[0] == "iterate,distance,ratio,lambda1,lambda4,lambda5"


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


# data rows the replayed CSVs must hold, where the overrides fix them: one
# b times two t; (1 + 2) (n, m) pairs times two a; nine Picard iterates
REPLAY_ROWS = {"conjugate-check": 2, "verify-bracket": 6, "picard": 9}


@pytest.mark.parametrize("command, overrides", [
    ("conjugate-check", ("conjugation.b=0.25", "conjugation.t=0.05 0.1")),
    ("decay-experiment", ("grid.n=64",)),
    ("existence-time", ("existence.norms=0.1 1.0",)),
    ("verify-bracket", ("brackets.max_n=2", "brackets.max_a=1")),
    # the complex flow, whose Picard iterate keeps every mode
    ("picard", ("model.preset=optimality:3",)),
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


@pytest.mark.parametrize("command, text, name", [
    ("picard", "[solver]\nt = 0.1\ncstar = 1.0\n", "solver.cstar"),
    ("simulate", "[grid]\nn = 64\ndealias = 0.6666666666666666\n", "grid.dealias"),
    ("decay-experiment", "[decay]\nk = 2\n", "decay.k"),
], ids=["solver.cstar", "grid.dealias", "decay.k"])
def test_manifest_with_a_removed_key_exits_2_and_names_it(runner, tmp_path,
                                                          command, text, name):
    # manifests written while one of these keys existed are not replayable
    old = tmp_path / f"{command}-manifest.ini"
    old.write_text(f"{text}[manifest]\nsubcommand = {command}\n")
    result = runner.invoke(main, [command, "--config", str(old),
                                  "-D", f"output.dir={tmp_path / 'out'}"])
    assert result.exit_code == 2, result.output
    assert f"unknown config key {name}" in result.output


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
