"""Shared fixtures (small grids, the standard symbols, seeded RNG) and oracles."""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dklb import grid as grid_mod
from dklb import symbols

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def grid128():
    return grid_mod.SpectralGrid(128, 40.0)


@pytest.fixture
def grid256():
    return grid_mod.SpectralGrid(256, 40.0)


@pytest.fixture
def grid512():
    return grid_mod.SpectralGrid(512, 40.0)


@pytest.fixture
def kdvks_phi():
    return symbols.kdvks(eta=1.0)


@pytest.fixture
def kdvb_phi():
    return symbols.kdvb(eta=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_real_field(grid256, rng):
    vals = rng.standard_normal(grid256.n)
    return grid_mod.from_values(grid256, vals)


# --- oracles: closed forms the package does not carry ------------------------


def fractional_D(f, s):
    """|xi|**s multiplier; the zero mode maps to 0 for s > 0 (identity at s=0)."""
    if s < 0:
        raise ValueError(f"fractional derivative order must be >= 0, got {s}")
    if s == 0:
        return f.copy()
    return grid_mod.apply_multiplier(f, np.abs(f.grid.xi) ** s, True)


def field_hs_norm(f, s=0.0):
    """||(1+xi^2)^(s/2) u||_{L2} of one field, through a BLAS norm of its
    FFT-order spectrum."""
    w = (1.0 + f.grid.xi**2) ** (s / 2.0)
    return float(np.sqrt(f.grid.length) * np.linalg.norm(w * f.coeffs))


def field_weighted_norm(f, w):
    """||w(x) * u||_{L2} of one field, at the nodes of its to_values."""
    vals = np.abs(grid_mod.to_values(f))
    return float(np.sqrt(np.sum((w.values(f.grid) * vals) ** 2) * f.grid.dx))


def whole_row_norms(grid, coeffs, weight):
    """||m(xi) u|| of each row of (rows, kept modes) spectra as one array
    expression: |m u|^2 of each half row mirrored into the places of its
    conjugates, and each FFT-order row summed.  The oracle for the row
    blocks of norms.multiplier_norm."""
    n, keep = grid.n, coeffs.shape[-1]
    power = np.empty(coeffs.shape[:-1] + (n,))
    rows = np.abs(coeffs, out=power[:, :keep])
    rows *= weight
    rows *= rows
    if keep < n:
        power[:, keep:] = power[:, n // 2 - 1:0:-1]
    return np.sqrt(grid.length * np.sum(power, axis=1))


def derivative(f, order=1):
    """The spectral derivative (d/dx)^order, as multiplier (i*xi_odd)^order."""
    return grid_mod.apply_multiplier(f, (1j * f.grid.xi_odd) ** order, True)


def hermitian_defect(coeffs):
    """max |c_{-k} - conj(c_k)| relative to the largest |c_k| (0 for zero)."""
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return 0.0
    flipped = coeffs[(-np.arange(len(coeffs))) % len(coeffs)]
    return float(np.max(np.abs(flipped - np.conj(coeffs)))) / scale


def expanded_multiplier(b, eta, t, xi):
    """The kdvks conjugated multiplier exp(-t*S(i*xi - b)), S written out.

    From the binomial expansion of S(z) = z^3 + eta*(z^2 + z^4) at
    z = i*xi - b, so independent of the polynomial evaluation it checks.
    """
    xi = np.asarray(xi, dtype=float)
    re = (3.0 * b * xi**2 - b**3
          + eta * (-(xi**2) + b**2 + xi**4 - 6.0 * b**2 * xi**2 + b**4))
    im = (-(xi**3) + 3.0 * b**2 * xi
          + eta * (-2.0 * b * xi + 4.0 * b * xi**3 - 4.0 * b**3 * xi))
    return np.exp(-t * re - 1j * t * im)


def flow_table(u0, phi, t):
    """u0 under the linear flow: the FFT-order spectrum at time t, or one row
    per time for a vector of times."""
    return u0.coeffs * symbols.flow_multiplier(phi, t, u0.grid)


def flowed(u0, phi, t):
    """u0 under the linear flow at one time t, as a field."""
    return grid_mod.SpectralField(u0.grid, flow_table(u0, phi, t),
                                  u0.is_real and phi.is_even)


def final_field(rows):
    """The field of the last (step, t, field) row of a solver stream."""
    return deque(rows, maxlen=1)[0][2]
