"""Experiment configuration: INI files to validated runtime objects.

One flat schema covers every subcommand; unknown sections or keys are
rejected so a typo cannot silently fall back to a default.  A [manifest]
section is tolerated and ignored, which lets a run's manifest file double
as the config for a byte-identical replay.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import symbols
from .errors import ConfigError
from .grid import SpectralGrid, WeightSpec, parse_weight


def _int(text: str) -> int:
    return int(text)


def _float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return val


def _exponent(text: str) -> float:
    """A Lebesgue exponent: a finite number, or inf for a supremum norm."""
    return math.inf if text.strip().lower() == "inf" else _float(text)


def _str(text: str) -> str:
    return text.strip()


def _floats(text: str) -> list[float]:
    return [_float(tok) for tok in text.split()]


def _strs(text: str) -> list[str]:
    return text.split()


def _choice(*options):
    def parse(text):
        val = text.strip().lower()
        if val not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {text!r}")
        return val
    return parse


_METHODS = ("etdrk4", "linear")
_DATA_KINDS = ("gaussian", "spectral-gaussian", "mixture", "cusp", "zero")
_FORMATS = ("csv", "svg", "snapshots")

# section -> key -> (parser, default-as-text).  An empty default marks an
# optional key, read as None when left empty; every other key needs a value.
_SCHEMA = {
    "model": {
        "preset": (_str, "kdvks"),
        "eta": (_float, "1.0"),
        "p": (_float, ""),
        "terms": (_str, ""),
    },
    "grid": {
        "n": (_int, "256"),
        "l": (_float, "40.0"),
        "dealias": (_float, repr(2.0 / 3.0)),
    },
    "solver": {
        "method": (_choice(*_METHODS), "etdrk4"),
        "t": (_float, "1.0"),
        "dt": (_float, ""),
        "nt": (_int, "64"),
        "tol": (_float, "1e-8"),
        "max_iter": (_int, "25"),
        "s": (_float, "0.0"),
        "cstar": (_float, "1.0"),
        "snapshot_stride": (_int, "1"),
    },
    "data": {
        "kind": (_choice(*_DATA_KINDS), "gaussian"),
        "center": (_float, "0.0"),
        "width": (_float, "1.0"),
        "amplitude": (_float, "1.0"),
        "l2": (_float, ""),
    },
    "weights": {
        "list": (_strs, ""),
    },
    "ensemble": {
        "size": (_int, "100"),
        "seed": (_int, "2024"),
    },
    "output": {
        "dir": (_str, "out"),
        "formats": (_strs, "csv"),
    },
    "conjugation": {
        "b": (_floats, "0.25 0.5"),
        "t": (_floats, "0.05 0.1"),
        "max_leakage": (_float, "1e-8"),
    },
    "smoothing": {
        "check": (_str, "C2"),
        "t": (_float, "1.0"),
        "nt": (_int, "48"),
        "s": (_float, "0.0"),
        "a": (_exponent, "2.0"),
        "b": (_exponent, "4.0"),
        "q": (_float, "1.0"),
    },
    "brackets": {
        "max_n": (_int, "6"),
        "max_a": (_int, "3"),
        "pairs": (_int, "3"),
        "tol": (_float, "1e-8"),
    },
    "existence": {
        "norms": (_floats, "0.01 0.1 1.0"),
        "cstars": (_floats, "0.5 1.0 2.0"),
    },
    "decay": {
        "k": (_int, "2"),
        "sigmas": (_floats, "0.0 0.25 0.5"),
        "t": (_floats, "0.1 0.2 0.4"),
        "gamma": (_float, "0.5"),
        "h": (_float, "0.05"),
    },
}


@dataclass
class ExperimentConfig:
    """Validated configuration; raw text values keyed by (section, key)."""

    raw: dict[tuple[str, str], str]
    _phase: symbols.PhaseFunction | None = field(default=None, init=False,
                                                 repr=False, compare=False)

    def get(self, section: str, key: str):
        parser, default = _SCHEMA[section][key]
        text = self.raw[(section, key)]
        if text == "":
            if default:
                raise ConfigError(f"{section}.{key}: needs a value")
            return None
        try:
            return parser(text)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc

    # --- canonical text form (manifest echo, hashing, replay) ---------------

    def echo(self) -> str:
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key in keys:
                lines.append(f"{key} = {self.raw[(section, key)]}")
            lines.append("")
        return "\n".join(lines)

    def content_hash(self) -> str:
        body = self.echo().encode()
        return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()

    # --- builders ------------------------------------------------------------

    def build_phase(self) -> symbols.PhaseFunction:
        """The configured symbol, built once: construction runs find_M."""
        if self._phase is None:
            self._phase = self._make_phase()
        return self._phase

    def _make_phase(self) -> symbols.PhaseFunction:
        name = self.get("model", "preset")
        eta = self.get("model", "eta")
        if name != "custom":
            try:
                return symbols.preset(name, eta).phase
            except ValueError as exc:
                raise ConfigError(f"model.preset: {exc}") from exc
        p = self.get("model", "p")
        if p is None:
            raise ConfigError("model.p: required when model.preset = custom")
        terms = []
        text = self.raw[("model", "terms")]
        for chunk in filter(None, (part.strip() for part in text.split(";"))):
            tokens = chunk.split()
            if len(tokens) != 3:
                raise ConfigError(
                    f"model.terms: each term needs 'coeff m n', got {chunk!r}")
            try:
                terms.append(symbols.PhaseTerm(float(tokens[0]),
                                               int(tokens[1]), float(tokens[2])))
            except ValueError as exc:
                raise ConfigError(f"model.terms: {exc}") from exc
        try:
            return symbols.PhaseFunction(p=p, terms=tuple(terms), eta=eta)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"model: {exc}") from exc

    def build_grid(self) -> SpectralGrid:
        try:
            return SpectralGrid(self.get("grid", "n"), self.get("grid", "l"),
                                self.get("grid", "dealias"))
        except ValueError as exc:
            raise ConfigError(f"grid.n/grid.l/grid.dealias: {exc}") from exc

    def build_data(self, grid: SpectralGrid):
        # imported here to keep config importable from low-level modules
        from . import fields
        from .grid import SpectralField
        import numpy as np

        kind = self.get("data", "kind")
        center = self.get("data", "center")
        width = self.get("data", "width")
        amplitude = self.get("data", "amplitude")
        try:
            if kind == "gaussian":
                f = fields.gaussian(grid, center, width, amplitude)
            elif kind == "spectral-gaussian":
                f = fields.gaussian_spectral(grid, center, width, amplitude)
            elif kind == "mixture":
                rng = np.random.default_rng(self.get("ensemble", "seed"))
                f = fields.random_mixture(grid, rng) * amplitude
            elif kind == "cusp":
                f = fields.mollified_cusp(grid, self.get("decay", "gamma"),
                                          self.get("decay", "h"))
            else:
                f = SpectralField(grid, np.zeros(grid.n, dtype=complex), True)
        except ValueError as exc:
            raise ConfigError(f"data: {exc}") from exc
        target = self.get("data", "l2")
        if target is not None:
            f = fields.normalize_l2(f, target)
        return f

    def weight_specs(self) -> list[WeightSpec]:
        specs = []
        for label in self.get("weights", "list") or []:
            try:
                spec = parse_weight(label)
            except ValueError as exc:
                raise ConfigError(f"weights.list: {exc}") from exc
            specs.append(spec)
        return specs

    def formats(self) -> list[str]:
        fmts = self.get("output", "formats")
        for fmt in fmts:
            if fmt not in _FORMATS:
                raise ConfigError(
                    f"output.formats: unknown format {fmt!r}; "
                    f"choose from {', '.join(_FORMATS)}")
        return fmts

    def validate(self) -> None:
        """Eagerly parse every key and check cross-field constraints."""
        for section, keys in _SCHEMA.items():
            for key in keys:
                self.get(section, key)
        n = self.get("grid", "n")
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigError(f"grid.n: must be a power of two >= 16, got {n}")
        if self.get("grid", "l") <= 0:
            raise ConfigError(f"grid.l: must be positive, got {self.get('grid', 'l')}")
        if self.get("solver", "t") <= 0:
            raise ConfigError(f"solver.t: must be positive, got {self.get('solver', 't')}")
        dt = self.get("solver", "dt")
        if dt is not None and dt <= 0:
            raise ConfigError(f"solver.dt: must be positive, got {dt}")
        if self.get("solver", "nt") < 2:
            raise ConfigError(f"solver.nt: must be >= 2, got {self.get('solver', 'nt')}")
        if self.get("solver", "tol") <= 0:
            raise ConfigError(
                f"solver.tol: must be positive, got {self.get('solver', 'tol')}")
        if self.get("solver", "max_iter") < 1:
            raise ConfigError(
                f"solver.max_iter: must be >= 1, got {self.get('solver', 'max_iter')}")
        if self.get("ensemble", "size") < 1:
            raise ConfigError(
                f"ensemble.size: must be >= 1, got {self.get('ensemble', 'size')}")
        if self.get("brackets", "pairs") < 1:
            raise ConfigError(
                f"brackets.pairs: must be >= 1, got {self.get('brackets', 'pairs')}")
        if any(t < 0 for t in self.get("conjugation", "t")):
            raise ConfigError(
                f"conjugation.t: times must be nonnegative, got "
                f"{self.get('conjugation', 't')}")
        if self.get("conjugation", "max_leakage") < 0:
            raise ConfigError(
                f"conjugation.max_leakage: must be nonnegative, got "
                f"{self.get('conjugation', 'max_leakage')}")
        if self.get("data", "width") <= 0:
            raise ConfigError(
                f"data.width: must be positive, got {self.get('data', 'width')}")
        self.formats()
        self.weight_specs()
        self.build_phase()


def load_config(path: str | Path | None = None,
                overrides: tuple[str, ...] = ()) -> ExperimentConfig:
    """Read an INI file (optional) and apply section.key=value overrides."""
    raw = {(section, key): default
           for section, keys in _SCHEMA.items()
           for key, (_, default) in keys.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
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
    cfg = ExperimentConfig(raw)
    cfg.validate()
    return cfg
