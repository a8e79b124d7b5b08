"""Experiment configuration: INI files to validated runtime objects.

One flat schema covers every subcommand; unknown sections or keys are
rejected so a typo cannot silently fall back to a default.  A [manifest]
section is tolerated and ignored, which lets a run's manifest file double
as the config for a byte-identical replay.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

try:
    from _sha1 import sha1
except ImportError:  # a CPython built without its own hash modules
    from hashlib import sha1

from . import fields, norms, symbols
from .errors import ConfigError, NumericalError
from .grid import SpectralField, SpectralGrid, WeightSpec, parse_weight


def _float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return val


def _exponent(text: str) -> float:
    """A Lebesgue exponent: a finite number, or inf for a supremum norm."""
    return math.inf if text.strip().lower() == "inf" else _float(text)


def _list(parse):
    def parse_each(text):
        return [parse(tok) for tok in text.split()]
    return parse_each


def _choice(*options):
    canonical = {option.lower(): option for option in options}

    def parse(text):
        val = text.strip().lower()
        if val not in canonical:
            raise ValueError(f"must be one of {', '.join(options)}; got {text!r}")
        return canonical[val]
    return parse


def _bounded(parse, lo, *, strict=False, hi=None):
    """parse, then hold the value, or each element of a list, to lo (strict
    or not) and, when given, to hi."""
    if lo == 0:
        floor = "positive" if strict else "nonnegative"
    else:
        floor = f"{'>' if strict else '>='} {lo}"

    def parse_bounded(text):
        val = parse(text)
        for v in val if isinstance(val, list) else (val,):
            if v < lo or (strict and v == lo):
                raise ValueError(f"must be {floor}, got {v}")
            if hi is not None and v > hi:
                raise ValueError(f"must be <= {hi}, got {v}")
        return val
    return parse_bounded


def _weight(text: str) -> WeightSpec:
    spec = parse_weight(text)
    if not math.isfinite(spec.param):
        raise ValueError(f"weight parameters must be finite, got {text.strip()!r}")
    return spec


def _terms(text: str) -> list[symbols.PhaseTerm]:
    """Correction terms 'coeff m n', separated by ';'."""
    terms = []
    for chunk in filter(None, (part.strip() for part in text.split(";"))):
        tokens = chunk.split()
        if len(tokens) != 3:
            raise ValueError(f"each term needs 'coeff m n', got {chunk!r}")
        terms.append(symbols.PhaseTerm(_float(tokens[0]), int(tokens[1]),
                                       _float(tokens[2])))
    return terms


def _grid_size(text: str) -> int:
    n = int(text)
    if n < 16 or n & (n - 1):
        raise ValueError(f"must be a power of two >= 16, got {n}")
    return n


_METHODS = ("etdrk4", "linear")
_DATA_KINDS = ("gaussian", "spectral-gaussian", "mixture", "cusp", "zero")
_FORMATS = ("csv", "svg", "snapshots")
# brackets.standard_pairs() has this many pairs; brackets, with fractions,
# is loaded by verify-bracket only
_BRACKET_PAIRS = 3
_positive = _bounded(_float, 0, strict=True)
_nonnegative = _bounded(_float, 0)

# section -> key -> (parser, default-as-text).  Each parser holds its key to
# the key's own domain; a rule that spans keys is checked where they are
# read.  An empty default marks an optional key, read as None when left
# empty; every other key needs a value.
_SCHEMA = {
    "model": {
        "preset": (str, "kdvks"),
        "eta": (_positive, "1.0"),
        "p": (_positive, ""),
        "terms": (_terms, ""),
    },
    "grid": {
        "n": (_grid_size, "256"),
        "l": (_positive, "40.0"),
    },
    "solver": {
        "method": (_choice(*_METHODS), "etdrk4"),
        "t": (_positive, "1.0"),
        "dt": (_positive, ""),
        "nt": (_bounded(int, 2), "64"),
        "tol": (_positive, "1e-8"),
        "max_iter": (_bounded(int, 1), "25"),
        "s": (_nonnegative, "0.0"),
        "snapshot_stride": (_bounded(int, 1), "1"),
    },
    "data": {
        "kind": (_choice(*_DATA_KINDS), "gaussian"),
        "center": (_float, "0.0"),
        "width": (_positive, "1.0"),
        "amplitude": (_float, "1.0"),
        "l2": (_nonnegative, ""),
    },
    "weights": {
        "list": (_list(_weight), ""),
    },
    "ensemble": {
        "size": (_bounded(int, 1), "100"),
        "seed": (_bounded(int, 0), "2024"),
    },
    "output": {
        "dir": (str, "out"),
        "formats": (_list(_choice(*_FORMATS)), "csv"),
    },
    "conjugation": {
        "b": (_list(_float), "0.25 0.5"),
        "t": (_bounded(_list(_float), 0), "0.05 0.1"),
        "max_leakage": (_nonnegative, "1e-8"),
    },
    "smoothing": {
        "check": (_choice(*norms.SMOOTHING_CHECKS), "C2"),
        "t": (_positive, "1.0"),
        "nt": (_bounded(int, 1), "48"),
        "s": (_nonnegative, "0.0"),
        "a": (_bounded(_exponent, 1), "2.0"),
        "b": (_bounded(_exponent, 1), "4.0"),
        "q": (_nonnegative, "1.0"),
    },
    "brackets": {
        # verify-bracket must check at least one reduction against a real bound
        "max_n": (_bounded(int, 1), "6"),
        "max_a": (_bounded(int, 0), "3"),
        "pairs": (_bounded(int, 1, hi=_BRACKET_PAIRS), str(_BRACKET_PAIRS)),
        "tol": (_positive, "1e-8"),
    },
    "existence": {
        "norms": (_bounded(_list(_float), 0), "0.01 0.1 1.0"),
        "cstars": (_bounded(_list(_float), 0, strict=True), "0.5 1.0 2.0"),
    },
    "decay": {
        "sigmas": (_bounded(_list(_float), 0), "0.0 0.25 0.5"),
        "t": (_bounded(_list(_float), 0, strict=True), "0.1 0.2 0.4"),
        "gamma": (_float, "0.5"),
        "h": (_positive, "0.05"),
    },
}


def _parse(section: str, key: str, text: str):
    parser, default = _SCHEMA[section][key]
    if text == "":
        if default:
            raise ConfigError(f"{section}.{key}: needs a value")
        return None
    try:
        return parser(text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


def _make_phase(values: dict) -> symbols.PhaseFunction:
    name, eta = values[("model", "preset")], values[("model", "eta")]
    if name != "custom":
        try:
            return symbols.preset(name, eta)
        except ValueError as exc:
            raise ConfigError(f"model.preset: {exc}") from exc
    p = values[("model", "p")]
    if p is None:
        raise ConfigError("model.p: required when model.preset = custom")
    terms = tuple(values[("model", "terms")] or ())
    try:
        return symbols.PhaseFunction(p=p, terms=terms, eta=eta)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


class ExperimentConfig:
    """A validated configuration: each key's text as given (echoed, hashed),
    its parsed value, and the symbol, all fixed at load."""

    def __init__(self, raw: dict[tuple[str, str], str],
                 values: dict[tuple[str, str], object], phase: symbols.PhaseFunction):
        self.raw = raw
        self.values = values
        self.phase = phase

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    # --- canonical text form (manifest echo, hashing, replay) ---------------

    def echo(self) -> str:
        return "\n".join(
            f"[{section}]\n" + "".join(f"{key} = {self.raw[(section, key)]}\n"
                                       for key in keys)
            for section, keys in _SCHEMA.items())

    def content_hash(self) -> str:
        """The git blob SHA-1 of `echo()`, as `git hash-object` gives it.

        The digest comes from CPython's own `_sha1` module, because `hashlib`
        loads OpenSSL's libcrypto, about 3.5 MiB of resident memory, to hash
        these 1.5 KB once per run; with `fields.numpy_random` importing
        numpy.random with OpenSSL blocked, no run loads it.  `hashlib.sha1` is
        the fallback for builds without `_sha1`; both give the same digest.
        """
        body = self.echo().encode()
        return sha1(b"blob %d\0" % len(body) + body).hexdigest()

    # --- builders ------------------------------------------------------------

    def build_phase(self) -> symbols.PhaseFunction:
        """The configured symbol, built once at load and validated there."""
        return self.phase

    def build_grid(self) -> SpectralGrid:
        return SpectralGrid(self.get("grid", "n"), self.get("grid", "l"))

    def build_data(self, grid: SpectralGrid) -> SpectralField:
        kind, center, width, amplitude = (
            self.get("data", key) for key in ("kind", "center", "width", "amplitude"))
        if kind == "gaussian":
            f = fields.gaussian(grid, center, width, amplitude)
        elif kind == "spectral-gaussian":
            try:
                f = fields.gaussian_spectral(grid, center, width, amplitude)
            except NumericalError as exc:  # only the width can overflow it
                raise NumericalError(f"data.width: {exc}") from None
        elif kind == "mixture":
            rng = fields.numpy_random().default_rng(self.get("ensemble", "seed"))
            f = fields.random_mixture(grid, rng) * amplitude
        elif kind == "cusp":
            f = fields.mollified_cusp(grid, self.get("decay", "gamma"),
                                      self.get("decay", "h"))
        else:
            f = SpectralField(grid, np.zeros(grid.n, dtype=complex), True)
        target = self.get("data", "l2")
        if target is not None:
            f = fields.normalize_l2(f, target)
        return f


def load_config(path: str | Path | None = None,
                overrides: tuple[str, ...] = ()) -> ExperimentConfig:
    """Read an INI file (optional) and apply section.key=value overrides."""
    raw = {(section, key): default
           for section, keys in _SCHEMA.items()
           for key, (_, default) in keys.items()}
    if path is not None:
        import configparser  # read only under --config

        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        for section in parser.sections():
            if section == "manifest":
                continue
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                raw[(section, key)] = value.strip()
    for item in overrides:
        target, sep, value = item.partition("=")
        if not sep or "." not in target:
            raise ConfigError(
                f"override {item!r} must have the form section.key=value")
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        raw[(section, key)] = value.strip()
    # raw keeps _SCHEMA's order, so the first bad key is the one reported
    values = {(section, key): _parse(section, key, text)
              for (section, key), text in raw.items()}
    return ExperimentConfig(raw, values, _make_phase(values))
