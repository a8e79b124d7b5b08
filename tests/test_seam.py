"""Double-double kernels, checked against exact rational arithmetic.

The oracles here are built from fractions.Fraction only: Machin's formula
pins pi to ~1e-80, and plain Taylor series (in rational arithmetic) pin exp,
sin and cos at exact-double arguments.  A (hi, lo) pair carries ~32
significant digits, so agreement is asserted at 1e-28 relative or better.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dklb._seam import (
    HALF_PI,
    LN2,
    TWO_PI,
    dd,
    dd_add,
    dd_exp,
    dd_field_values,
    dd_mul,
    dd_semigroup_multiplier,
    dd_sincos,
    dd_value,
    seam_indices,
)
from dklb.conjugation import operator_polynomial
from dklb.fields import gaussian_spectral
from dklb.grid import SpectralGrid
from dklb.symbols import kdvks, semigroup_multiplier


def _atan_frac(inv_x: int, terms: int = 60) -> Fraction:
    # arctan(1/inv_x) by its Taylor series in exact arithmetic
    x = Fraction(1, inv_x)
    return sum((-1) ** k * x ** (2 * k + 1) / (2 * k + 1) for k in range(terms))


PI_FRAC = 16 * _atan_frac(5) - 4 * _atan_frac(239)


def _exp_frac(x: Fraction, terms: int = 70) -> Fraction:
    term = Fraction(1)
    acc = Fraction(1)
    for k in range(1, terms):
        term *= x / k
        acc += term
    return acc


def _sin_frac(x: Fraction, terms: int = 80) -> Fraction:
    acc = Fraction(0)
    term = x
    for k in range(terms):
        acc += term
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
    return acc


def _cos_frac(x: Fraction, terms: int = 80) -> Fraction:
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        acc += term
        term *= -x * x / ((2 * k + 1) * (2 * k + 2))
    return acc


def _as_frac(pair) -> Fraction:
    hi, lo = pair
    return Fraction(float(hi)) + Fraction(float(lo))


def test_pi_constants_against_machin():
    assert abs(_as_frac(TWO_PI) - 2 * PI_FRAC) < Fraction(1, 10**30)
    assert abs(_as_frac(HALF_PI) - PI_FRAC / 2) < Fraction(1, 10**31)


def test_log_two_constant():
    # exp(hi + lo) must equal 2 to ~1e-32: evaluate exp at the stored pair
    # in rational arithmetic
    val = _exp_frac(_as_frac(LN2))
    assert abs(val - 2) < Fraction(1, 10**31)


def test_dd_mul_is_nearly_exact():
    a = dd(1.0 / 3.0)
    b = dd(math.pi)  # the double closest to pi
    prod = _as_frac(dd_mul(a, b))
    exact = Fraction(1.0 / 3.0) * Fraction(math.pi)
    assert abs(prod - exact) <= abs(exact) * Fraction(1, 10**30)


def test_dd_add_carries_the_low_part():
    s = dd_add(dd(1.0), dd(1e-20))
    assert _as_frac(s) == Fraction(1) + Fraction(1e-20)


@pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 2.25, -3.75, 10.0 / 3.0])
def test_dd_exp_against_taylor(x):
    got = _as_frac(dd_exp(dd(x)))
    want = _exp_frac(Fraction(x))
    assert abs(got - want) <= abs(want) * Fraction(1, 10**28)


@pytest.mark.parametrize("x", [0.0, 0.5, -1.25, 3.0, -7.5, 9.875])
def test_dd_sincos_against_taylor(x):
    (sin_pair, cos_pair) = dd_sincos(dd(x))
    want_sin = _sin_frac(Fraction(x))
    want_cos = _cos_frac(Fraction(x))
    assert abs(_as_frac(sin_pair) - want_sin) < Fraction(1, 10**28)
    assert abs(_as_frac(cos_pair) - want_cos) < Fraction(1, 10**28)


def test_dd_sincos_vectorized_pythagorean():
    xs = dd(np.linspace(-300.0, 300.0, 257))
    sin_pair, cos_pair = dd_sincos(xs)
    s = _pair_list(sin_pair)
    c = _pair_list(cos_pair)
    for sf, cf in zip(s, c):
        assert abs(sf * sf + cf * cf - 1) < Fraction(1, 10**28)


def _pair_list(pair):
    hi, lo = np.atleast_1d(pair[0]), np.atleast_1d(pair[1])
    return [Fraction(float(h)) + Fraction(float(l)) for h, l in zip(hi, lo)]


def test_dd_exp_underflow_clamps_to_zero():
    hi, lo = dd_exp(dd(-800.0))
    assert float(np.asarray(hi)) == 0.0 and float(np.asarray(lo)) == 0.0


def test_dd_value_collapses():
    assert dd_value(dd(1.5)) == 1.5
    assert dd_value(dd_add(dd(1.0), dd(2.0))) == 3.0


def test_seam_indices_select_amplified_nodes():
    grid = SpectralGrid(1024, 80.0)
    idx = seam_indices(grid, 0.25)
    assert np.all(0.25 * grid.x[idx] > 5.0)
    others = np.setdiff1d(np.arange(grid.n), idx)
    assert np.all(0.25 * grid.x[others] <= 5.0)
    assert seam_indices(grid, 0.0).size == 0


def test_dd_field_values_match_ifft_in_the_bulk():
    grid = SpectralGrid(1024, 80.0)
    f = gaussian_spectral(grid, center=-10.0, width=3.0)
    idx = np.arange(0, grid.n, 37)
    vals = dd_field_values(f.coeffs, grid, idx)
    bulk = np.fft.ifft(f.coeffs * grid.n)[idx]
    scale = np.max(np.abs(bulk))
    assert np.max(np.abs(vals - bulk)) <= 1e-14 * scale


def test_dd_semigroup_multiplier_matches_double():
    grid = SpectralGrid(1024, 80.0)
    phi = kdvks()
    poly = operator_polynomial(phi)
    t = 0.1
    pairs = dd_semigroup_multiplier(poly, t, grid)
    plain = semigroup_multiplier(phi, t, grid.xi)
    (re_h, re_l), (im_h, im_l) = pairs
    got = re_h + im_h * 1j
    live = np.abs(plain) > 1e-300
    diff = np.abs(got[live] - plain[live]) / np.abs(plain[live])
    # the double-precision path loses |log m| * eps, so the allowance scales
    # with the decay exponent of each surviving mode
    budget = (1.0 + np.abs(np.log(np.abs(plain[live])))) * 2e-15 + 1e-14
    assert np.max(diff / budget) <= 1.0


def test_dd_semigroup_multiplier_time_zero_is_exact():
    grid = SpectralGrid(256, 40.0)
    poly = operator_polynomial(kdvks())
    (re_h, re_l), (im_h, im_l) = dd_semigroup_multiplier(poly, 0.0, grid)
    assert np.all(re_h == 1.0) and np.all(re_l == 0.0)
    assert np.all(im_h == 0.0) and np.all(im_l == 0.0)


def test_dd_field_values_with_multiplier_match_double_flow():
    grid = SpectralGrid(512, 40.0)
    f = gaussian_spectral(grid, center=0.0, width=1.5)
    phi = kdvks()
    poly = operator_polynomial(phi)
    t = 0.05
    idx = np.arange(0, grid.n, 29)
    vals = dd_field_values(f.coeffs, grid, idx,
                           dd_semigroup_multiplier(poly, t, grid))
    flowed = f.coeffs * semigroup_multiplier(phi, t, grid.xi)
    bulk = np.fft.ifft(flowed * grid.n)[idx]
    scale = np.max(np.abs(bulk))
    assert np.max(np.abs(vals - bulk)) <= 1e-12 * scale


def _rounded(x: Fraction, digits: int) -> Fraction:
    return Fraction(round(x * 10**digits), 10**digits)


def _roots_frac(n: int, digits: int = 40):
    # e^{2*pi*i*m/n} for m = 0..n-1 as (re, im) rationals rounded to
    # 10^-digits: powers of the first root, carried to 1e-45 so that the
    # drift of n products stays far below the final rounding
    x = _rounded(2 * PI_FRAC / n, 45)
    w1 = (_rounded(_cos_frac(x), 45), _rounded(_sin_frac(x), 45))
    roots, w = [], (Fraction(1), Fraction(0))
    for _ in range(n):
        roots.append((_rounded(w[0], digits), _rounded(w[1], digits)))
        w = (_rounded(w[0] * w1[0] - w[1] * w1[1], 45),
             _rounded(w[0] * w1[1] + w[1] * w1[0], 45))
    return roots


@pytest.mark.parametrize("flow", [False, True])
def test_dd_field_values_against_an_exact_dft(flow):
    # sum_k c_k m_k e^{2*pi*i*k*j/n} at every node, in rational arithmetic;
    # beyond the final rounding to complex128, the transform may lose at
    # most 1e-30 * sum_k |c_k m_k| anywhere, tails included
    n = 64
    grid = SpectralGrid(n, 40.0)
    f = gaussian_spectral(grid, center=-10.0, width=2.0)
    spec = [(Fraction(float(c.real)), Fraction(float(c.imag))) for c in f.coeffs]
    mult = None
    plain = f.coeffs
    if flow:
        mult = dd_semigroup_multiplier(operator_polynomial(kdvks()),
                                       0.1, grid)
        (re_h, re_l), (im_h, im_l) = mult
        m = [(_as_frac((re_h[k], re_l[k])), _as_frac((im_h[k], im_l[k])))
             for k in range(n)]
        spec = [(a * c - b * d, a * d + b * c) for (a, b), (c, d) in zip(spec, m)]
        plain = f.coeffs * (re_h + re_l + 1j * (im_h + im_l))
    tol = Fraction(1e-30 * sum(abs(complex(float(a), float(b))) for a, b in spec))
    roots = _roots_frac(n)
    exact = []
    for j in range(n):
        w = [roots[k * j % n] for k in range(n)]
        exact.append((sum(a * c - b * d for (a, b), (c, d) in zip(spec, w)),
                      sum(a * d + b * c for (a, b), (c, d) in zip(spec, w))))

    def excess(values):
        # largest error beyond half an ulp of the exact value plus tol
        return max(abs(Fraction(float(part)) - want)
                   - Fraction(math.ulp(float(want)) / 2) - tol
                   for v, pair in zip(values, exact)
                   for part, want in zip((v.real, v.imag), pair))

    assert excess(dd_field_values(f.coeffs, grid, np.arange(n), mult)) <= 0
    # the bound bites: a double-precision inverse FFT misses it
    assert excess(np.fft.ifft(plain * n)) > 0


def test_dd_field_values_memory_stays_small():
    # 6143 seam nodes: the seam x modes direct sum this transform replaced
    # held 32 MB in its first (seam, modes) array alone
    grid = SpectralGrid(16384, 160.0)
    f = gaussian_spectral(grid, center=-20.0, width=3.0)
    idx = seam_indices(grid, 0.25)
    assert idx.size == 6143
    mult = dd_semigroup_multiplier(operator_polynomial(kdvks()), 0.1, grid)
    dd_field_values(f.coeffs, grid, idx, mult)  # fill the per-n caches
    tracemalloc.start()
    try:
        dd_field_values(f.coeffs, grid, idx, mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
