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
