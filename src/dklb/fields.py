"""Initial-data constructors: Gaussians, seeded random mixtures, probe data."""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

from .errors import NumericalError
from .grid import SpectralField, SpectralGrid, from_values, l2_norm


def gaussian(grid: SpectralGrid, center: float = 0.0, width: float = 1.0,
             amplitude: float = 1.0) -> SpectralField:
    """amplitude * exp(-((x-center)/width)^2 / 2) sampled on the grid."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    vals = amplitude * np.exp(-0.5 * ((grid.x - center) / width) ** 2)
    return from_values(grid, vals)


def gaussian_spectral(grid: SpectralGrid, center: float = 0.0,
                      width: float = 1.0, norm: float = 1.0) -> SpectralField:
    """Unit-L2 Gaussian bump built directly in coefficient space.

    Writes the analytic Fourier coefficients of the periodization of
    (4*pi*width^2)^(-1/4)-normalized exp(-((x-center)/width)^2 / 2) instead
    of sampling and transforming, so the far tail of the coefficient array
    is exactly zero rather than FFT rounding residue.  That matters for
    weighted comparisons, where residue at high modes shows up at the
    domain seam amplified by the weight.  A width at which the normalizing
    factor overflows raises NumericalError.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    try:
        scale = (4.0 * np.pi * width**2) ** 0.25 / grid.length
    except OverflowError:  # width**2 leaves the doubles
        scale = math.inf
    if not math.isfinite(scale):
        raise NumericalError("the normalizing factor (4 pi width^2)^(1/4) "
                             f"overflows at width {width!r}")
    xi = grid.xi
    # e^{-i xi L/2} realigns the analytic coefficients with FFT node order
    # (nodes start at x = -L/2, not 0)
    c = (scale * np.exp(-0.5 * (xi * width) ** 2)
         * np.exp(-1j * xi * (center + grid.length / 2.0)) * norm)
    return SpectralField(grid, c, True)


def normalize_l2(f: SpectralField, target: float = 1.0) -> SpectralField:
    """Scale a field to the requested L2 norm (zero field stays zero)."""
    norm = l2_norm(f)
    if norm == 0.0:
        return f.copy()
    return f * (target / norm)


# Modules whose import loads OpenSSL's libcrypto (_hashlib) or imports a
# module that does; numpy.random imports secrets, which imports the rest.
_OPENSSL_CHAIN = ("_hashlib", "hashlib", "hmac", "secrets")


def numpy_random():
    """The numpy.random module, imported without loading OpenSSL.

    dklb's only import of numpy.random.  numpy.random imports secrets, hence
    hmac and hashlib, which load OpenSSL's libcrypto (about 3.5 MiB of resident
    memory) through _hashlib; nothing in dklb hashes with them.  So when none
    of _hashlib, hashlib, hmac and secrets is loaded yet, the import runs with
    _hashlib blocked: hmac and hashlib take their documented fallbacks,
    _operator's compare_digest and the builtin _sha* and _blake2 modules.
    Then the block and the modules the import added are dropped from
    sys.modules, so a later ``import hashlib`` loads the OpenSSL-backed
    module as usual.  The one thing that outlives the import is numpy's
    ``bit_generator.randbits``: ``SystemRandom().getrandbits`` of the dropped
    secrets module, the same function ``secrets.randbits`` is.  When any of
    the four is already loaded, this is a plain import.

    Not meant to run while another thread first imports hashlib; dklb draws
    on one thread.
    """
    guarded = sys.modules.keys().isdisjoint(_OPENSSL_CHAIN)
    if guarded:
        sys.modules["_hashlib"] = None
    try:
        import numpy.random
    finally:
        if guarded:
            for name in _OPENSSL_CHAIN:
                sys.modules.pop(name, None)
    return numpy.random


def random_mixture(grid: SpectralGrid, rng: np.random.Generator) -> SpectralField:
    """One random Gaussian mixture, L2-normalized.

    1 to 5 bumps, widths in [0.5, 4], centers in the middle half of the
    domain, standard-normal amplitudes.  Degenerate near-cancellations are
    resampled so normalization never amplifies noise; a grid on which every
    draw degenerates (bumps far narrower or wider than the grid resolves)
    raises NumericalError.
    """
    for _ in range(100):
        bumps = int(rng.integers(1, 6))
        widths = rng.uniform(0.5, 4.0, bumps)
        centers = rng.uniform(-grid.length / 4, grid.length / 4, bumps)
        amps = rng.standard_normal(bumps)
        vals = np.zeros(grid.n)
        for a, c, w in zip(amps, centers, widths):
            vals += a * np.exp(-0.5 * ((grid.x - c) / w) ** 2)
        f = from_values(grid, vals)
        if l2_norm(f) > 1e-8:
            return normalize_l2(f)
    raise NumericalError(
        f"could not draw a non-degenerate mixture on grid n={grid.n}, "
        f"l={grid.length!r}: 100 draws all had L2 norm <= 1e-8")


def sample_ensemble(grid: SpectralGrid, size: int, seed: int) -> Iterator[SpectralField]:
    """Deterministic ensemble of random mixtures, drawn lazily.

    Sample k has its own PRNG stream, child k of the root seed, so the
    ensemble is reproducible regardless of evaluation order; the iterator
    draws one sample per step and holds none, so memory stays flat in size.
    numpy.random comes from `numpy_random`, so drawing loads no OpenSSL.
    """
    random = numpy_random()
    root = random.SeedSequence(seed)
    for _ in range(size):  # spawning one at a time yields spawn(size)'s children
        yield random_mixture(grid, random.default_rng(root.spawn(1)[0]))


def mollified_cusp(grid: SpectralGrid, gamma: float = 0.5,
                   h: float = 0.05) -> SpectralField:
    """Limited-smoothness probe data: a cusp |x|^gamma mollified at scale h.

    (x^2 + h^2)^(gamma/2) / (1 + x^2), L2-normalized.  The cusp controls the
    high-frequency tail; the bracket factor sets the spatial decay, so the
    data decays like |x|^(gamma-2).
    """
    if h <= 0:
        raise ValueError(f"mollification scale must be positive, got {h}")
    x = grid.x
    vals = (x**2 + h**2) ** (gamma / 2.0) * (1.0 + x**2) ** -1.0
    return normalize_l2(from_values(grid, vals))
