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
    _bit_reversal,
    _roots_of_unity,
    cdd_mul,
    cdd_mul_complex,
    dd,
    dd_add,
    dd_div_d,
    dd_exp,
    dd_field_values,
    dd_mul,
    dd_mul_d,
    dd_neg,
    dd_semigroup_multiplier,
    dd_sincos,
    dd_sub,
    dd_value,
)
from dklb.conjugation import operator_polynomial
from dklb.fields import gaussian, gaussian_spectral
from dklb.grid import SpectralGrid
from dklb.symbols import kdvks, preset, semigroup_multiplier


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


def _all_modes_multiplier(poly, t, grid):
    # exp(-t*S(i*xi)) with the Taylor exp and sincos run on every mode, and
    # dd_exp's own underflow rule zeroing the dead ones
    modes = grid.modes.astype(float)
    xi = dd_div_d(dd_mul_d(TWO_PI, modes), grid.length)
    acc = (dd(np.full_like(modes, poly[-1].real)),
           dd(np.full_like(modes, poly[-1].imag)))
    for c in poly[-2::-1]:
        acc = cdd_mul(acc, (dd(np.zeros_like(modes)), xi))
        acc = (dd_add(acc[0], dd(np.full_like(modes, c.real))),
               dd_add(acc[1], dd(np.full_like(modes, c.imag))))
    mag = dd_exp(dd_mul_d(acc[0], -t))
    s, c = dd_sincos(dd_mul_d(acc[1], -t))
    return dd_mul(mag, c), dd_mul(mag, s)


def _bits(mult):
    return [np.asarray(part).tobytes() for pair in mult for part in pair]


@pytest.mark.parametrize("name", ["kdvks", "kdvb", "optimality:2"])
@pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.1, 2.0, math.nan])
def test_dd_semigroup_multiplier_is_the_all_modes_formula(name, t):
    # evaluating exp and sincos only off the underflow changes no bit: the
    # dead modes are the exact zeros the all-modes product rounds to, and a
    # NaN time is NaN everywhere
    grid = SpectralGrid(1024, 80.0)
    poly = operator_polynomial(preset(name))
    with np.errstate(all="ignore"):  # the NaN time casts NaN to int
        got = dd_semigroup_multiplier(poly, t, grid)
        want = _all_modes_multiplier(poly, t, grid)
    assert _bits(got) == _bits(want)
    if math.isnan(t):
        assert all(np.all(np.isnan(part)) for pair in got for part in pair)
    # clear of the -745 edge, where the double exponent might round across it
    dead = -t * np.polynomial.polynomial.polyval(1j * grid.xi, poly).real < -750.0
    if t >= 2.0 or (t >= 0.05 and name != "kdvb"):  # kdvb damps only like xi^2
        assert np.any(dead)
    for pair in got:
        for part in pair:
            assert np.all(part[dead] == 0.0) and not np.any(np.signbit(part[dead]))


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
def test_dd_semigroup_multiplier_rows_are_the_per_time_calls(name):
    grid = SpectralGrid(512, 40.0)
    poly = operator_polynomial(preset(name))
    t_values = (0.0, 0.05, 0.1, 0.05, 3.0)
    table = dd_semigroup_multiplier(poly, t_values, grid)
    assert table.shape == (len(t_values), 2, 2, grid.n)
    for row, t in zip(table, t_values):
        assert _bits(row) == _bits(dd_semigroup_multiplier(poly, t, grid))


@pytest.mark.parametrize("name", ["kdvks", "kdvb", "optimality:2"])
def test_dd_semigroup_multiplier_of_a_real_field_is_the_half_table(name):
    # modes 0..n/2 only, each entry bitwise that of the full table
    grid = SpectralGrid(512, 40.0)
    poly = operator_polynomial(preset(name))
    for t in (0.05, (0.0, 0.05, 3.0)):
        full = dd_semigroup_multiplier(poly, t, grid)
        half = dd_semigroup_multiplier(poly, t, grid, real=True)
        assert half.shape == full.shape[:-1] + (grid.n // 2 + 1,)
        first = np.ascontiguousarray(full[..., : grid.n // 2 + 1])
        assert half.tobytes() == first.tobytes()


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("name", ["kdvks", "kdvb", "optimality:2"])
def test_dd_semigroup_multiplier_table_is_the_all_modes_formula(name, real):
    # every row of a table over several times is the all-modes formula at
    # its time: t = 0 keeps every mode live and t = 2 leaves a band of them,
    # each bitwise; a NaN time makes every exponent of its row NaN, and every
    # entry of the row stays NaN (its sign bits are not compared)
    grid = SpectralGrid(1024, 80.0)
    poly = operator_polynomial(preset(name))
    t_values = (0.0, 0.05, 2.0, math.nan)
    keep = grid.n // 2 + 1 if real else grid.n
    with np.errstate(all="ignore"):  # the NaN time casts NaN to int
        table = dd_semigroup_multiplier(poly, t_values, grid, real)
        for row, t in zip(table[:3], t_values):
            want = np.asarray(_all_modes_multiplier(poly, t, grid))[..., :keep]
            assert row.tobytes() == np.ascontiguousarray(want).tobytes(), t
    assert np.all(table[0, 0, 0] == 1.0)
    assert np.all(np.isnan(table[3]))


def test_dd_semigroup_multiplier_where_only_mode_zero_survives():
    # kdvb damps mode 1 by exp(-t*xi_1**2) = exp(-6168.5) at t = 1e6; mode 0
    # keeps exp(0) = 1 and every other entry is an exact zero
    grid = SpectralGrid(1024, 80.0)
    poly = operator_polynomial(preset("kdvb"))
    for t in (1e6, (0.05, 1e6)):
        got = dd_semigroup_multiplier(poly, t, grid)
        row = got[-1] if np.ndim(t) else got
        assert _bits(row) == _bits(_all_modes_multiplier(poly, 1e6, grid))
        assert row[0, 0, 0] == 1.0
        assert np.count_nonzero(row) == 1 and not np.any(np.signbit(row))


@pytest.mark.parametrize("k", [55, 79])
def test_dd_semigroup_multiplier_at_the_underflow_edge(k):
    # times within a few ulps of -t*Re S(i*xi_k) = -745, where the double
    # exponent and the double-double one may fall on either side of -745:
    # the prefilter's margin keeps mode k, and each multiplier is bitwise the
    # all-modes formula
    grid = SpectralGrid(256, 40.0)
    poly = operator_polynomial(kdvks())
    edge = 745.0 / np.polynomial.polynomial.polyval(1j * grid.xi[k], poly).real
    for t in edge + np.arange(-6, 6) * math.ulp(edge):
        got = dd_semigroup_multiplier(poly, t, grid)
        assert got.tobytes() == np.asarray(_all_modes_multiplier(poly, t, grid)).tobytes()


def test_dd_semigroup_multiplier_keeps_modes_whose_words_overflow():
    # at eta = 1e300 the double exponent -t*eta*xi**2 of every mode past 0 is
    # far below -745, but from |xi| of about 1.2 on, S(i*xi) leaves the range
    # of Dekker's split and the double-double exponent is NaN there: those
    # modes are evaluated, and are NaN as in the all-modes formula
    grid = SpectralGrid(256, 40.0)
    poly = operator_polynomial(preset("kdvb", eta=1e300))
    with np.errstate(all="ignore"):
        got = dd_semigroup_multiplier(poly, 0.05, grid)
        want = np.asarray(_all_modes_multiplier(poly, 0.05, grid))
    nan = np.isnan(want[0, 0])
    assert 0 < np.count_nonzero(nan) < grid.n - 1
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert got[..., ~nan].tobytes() == want[..., ~nan].tobytes()


def _cdd_mul_each(a, b):
    # the complex product with every real product splitting its own operands
    (ar, ai), (br, bi) = a, b
    return (dd_sub(dd_mul(ar, br), dd_mul(ai, bi)),
            dd_add(dd_mul(ar, bi), dd_mul(ai, br)))


def test_cdd_mul_splits_each_high_word_once_bitwise():
    rng = np.random.default_rng(5)
    a, b = (np.asarray(dd_mul(dd(rng.standard_normal((2, 257))),
                              dd(rng.standard_normal((2, 257))))) for _ in range(2))
    a[:, :, :40] = 0.0
    a[:, :, 40:60] = -0.0
    b[:, :, 50:80] *= 1e-300
    assert np.asarray(cdd_mul(a, b)).tobytes() == np.asarray(_cdd_mul_each(a, b)).tobytes()


def _allocating_dd_field_values(coeffs, grid, idx, mult=None):
    # the complex route as it was before the stage buffers: bit-reversed
    # input, one fresh (2, 2, n) array per stage, products split per product
    n = grid.n
    if mult is None:
        spec = (dd(coeffs.real), dd(coeffs.imag))
    else:
        spec = cdd_mul_complex(mult, coeffs)
    a = np.asarray(spec)[..., _bit_reversal(n)]
    roots = _roots_of_unity(n)
    h = 1
    while h < n:
        pairs = a.reshape(2, 2, n // (2 * h), 2, h)
        u, v = pairs[:, :, :, 0], pairs[:, :, :, 1]
        t = _cdd_mul_each(v, roots[..., : n // 2 : n // (2 * h)])
        out = np.empty_like(pairs)
        out[:, :, :, 0] = (dd_add(u[0], t[0]), dd_add(u[1], t[1]))
        out[:, :, :, 1] = (dd_sub(u[0], t[0]), dd_sub(u[1], t[1]))
        a = out.reshape(2, 2, n)
        h *= 2
    return dd_value(a[0][:, idx]) + 1j * dd_value(a[1][:, idx])


@pytest.mark.parametrize("name", ["optimality:2", "kdvb"])
@pytest.mark.parametrize("n", [16, 64, 1024])
def test_complex_dd_field_values_are_the_allocating_loop_bitwise(name, n):
    # the column stages, the block stages and the buffers change no bit of a
    # complex field's values, zero and negative-zero coefficients included
    grid = SpectralGrid(n, 40.0)
    f = gaussian_spectral(grid, center=-5.0, width=2.0)
    coeffs = f.coeffs * np.exp(1j * np.arange(n))
    coeffs[3], coeffs[5] = 0.0, complex(-0.0, -0.0)
    mult = dd_semigroup_multiplier(operator_polynomial(preset(name)), 0.05, grid)
    idx = np.arange(n)
    for m in (None, mult):
        got = dd_field_values(coeffs, grid, idx, m)
        assert got.dtype == complex
        assert got.tobytes() == _allocating_dd_field_values(coeffs, grid, idx, m).tobytes()


def _lift_each(coeffs, mult):
    # c_k * m_k with every real product on its own, c_k lifted exactly
    # without a multiplier
    if mult is None:
        return np.asarray((dd(coeffs.real), dd(coeffs.imag)))
    (ar, ai), zr, zi = mult, coeffs.real, coeffs.imag
    return np.asarray((dd_sub(dd_mul_d(ar, zr), dd_mul_d(ai, zi)),
                       dd_add(dd_mul_d(ar, zi), dd_mul_d(ai, zr))))


def _allocating_dd_fft(a, n):
    # the inverse DFT of a length-m (re/im, hi/lo, m) array, m = n or n/2:
    # bit-reversed input, one fresh array per level, products split per product
    m = a.shape[-1]
    a = a[..., _bit_reversal(m)]
    roots = _roots_of_unity(n)
    h = 1
    while h < m:
        pairs = a.reshape(2, 2, m // (2 * h), 2, h)
        u, v = pairs[:, :, :, 0], pairs[:, :, :, 1]
        t = _cdd_mul_each(v, roots[..., : n // 2 : n // (2 * h)])
        out = np.empty_like(pairs)
        out[:, :, :, 0] = (dd_add(u[0], t[0]), dd_add(u[1], t[1]))
        out[:, :, :, 1] = (dd_sub(u[0], t[0]), dd_sub(u[1], t[1]))
        a = out.reshape(2, 2, m)
        h *= 2
    return a


def _allocating_half_dd_field_values(coeffs, grid, idx, mult=None):
    # the real route with every mode lifted and packed: modes 0 and n/2 lose
    # their imaginary parts, Z_k = (X_k + X_{k+n/2}) + i*w^k*(X_k - X_{k+n/2})
    # with X_{k+n/2} = conj X_{n/2-k}, one length-n/2 allocating transform,
    # and x_{2m} = Re z_m, x_{2m+1} = Im z_m
    n = grid.n
    x = _lift_each(coeffs, mult)
    x[1, :, [0, n // 2]] = 0.0
    lr, li = x[0, :, : n // 2], x[1, :, : n // 2]
    hr, hi = x[0, :, n // 2 : 0 : -1], dd_neg(x[1, :, n // 2 : 0 : -1])
    s = (dd_add(lr, hr), dd_add(li, hi))
    d = _cdd_mul_each((dd_sub(lr, hr), dd_sub(li, hi)), _roots_of_unity(n))
    z = _allocating_dd_fft(np.asarray((dd_sub(s[0], d[1]), dd_add(s[1], d[0]))), n)
    vals = np.empty(n)
    vals[0::2], vals[1::2] = dd_value(z[0]), dd_value(z[1])
    return vals[idx]


def _half_spectrum(kind, grid):
    # modes 0..n/2 of a real field
    n = grid.n
    if kind == "sampled-gaussian":
        return gaussian(grid, center=-5.0, width=2.0).coeffs[: n // 2 + 1]
    c = gaussian_spectral(grid, center=-5.0, width=2.0).coeffs[: n // 2 + 1]
    if kind == "signed-zeros":
        c[[1, 4]] = 0.0
        c[[2, 7, n // 2]] = complex(-0.0, -0.0)
        c[5] = complex(0.0, -0.0)
    elif kind == "ends-at-mode-1":
        c[2:] = 0.0
    elif kind == "ends-at-nyquist":
        c[n // 2] = complex(3e-3, 2e-3)
    elif kind == "zero":
        c[:] = 0.0
    return c


@pytest.mark.parametrize("name", ["kdvks", "kdvb"])
@pytest.mark.parametrize("kind", ["spectral-gaussian", "sampled-gaussian",
                                  "signed-zeros", "ends-at-mode-1",
                                  "ends-at-nyquist", "zero"])
@pytest.mark.parametrize("n", [16, 1024])
def test_half_spectrum_dd_field_values_are_the_allocating_loop_bitwise(n, kind, name):
    # the real route over every mode, with and without a flow (kdvb keeps
    # a complex Nyquist multiplier live), zero and negative-zero
    # coefficients included
    grid = SpectralGrid(n, 40.0)
    coeffs = _half_spectrum(kind, grid)
    if kind == "spectral-gaussian":
        assert (coeffs[-1] == 0.0) == (n == 1024)
    if kind == "sampled-gaussian":
        assert np.all(coeffs != 0.0)
    mult = dd_semigroup_multiplier(operator_polynomial(preset(name)), 0.05, grid,
                                   real=True)
    idx = np.arange(n)
    for m in (None, mult):
        got = dd_field_values(coeffs.copy(), grid, idx, m)
        assert got.dtype == float
        want = _allocating_half_dd_field_values(coeffs.copy(), grid, idx, m)
        assert got.tobytes() == want.tobytes()
    if kind == "zero":
        assert got.tobytes() == np.zeros(n).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e305])
def test_live_band_keeps_products_that_are_not_exact_zeros(bad):
    # past the last nonzero coefficient a multiplier word that is not finite,
    # or too large for Dekker's split, makes 0 * m a NaN, as it does over
    # every mode: such a mode stays in the band
    grid = SpectralGrid(64, 40.0)
    coeffs = _half_spectrum("ends-at-mode-1", grid)
    mult = dd_semigroup_multiplier(operator_polynomial(kdvks()), 0.05, grid, real=True)
    mult[0, 0, 20] = bad
    idx = np.arange(grid.n)
    with np.errstate(invalid="ignore", over="ignore"):
        got = dd_field_values(coeffs.copy(), grid, idx, mult)
        want = _allocating_half_dd_field_values(coeffs.copy(), grid, idx, mult)
    assert np.all(np.isnan(got)) and np.all(np.isnan(want))


def test_seam_problem_dd_field_values_are_the_allocating_loops_bitwise():
    # the benchmark's seam cells: f and its flows at t = 0.05 and 0.1, from
    # the half spectrum, whose tail is exact zeros, at the seam nodes
    grid = SpectralGrid(8192, 160.0)
    half = gaussian_spectral(grid, center=-20.0, width=3.0).coeffs[: grid.n // 2 + 1]
    assert np.count_nonzero(half) < half.size // 4
    idx = np.nonzero(0.25 * grid.x > 5.0)[0]
    mults = dd_semigroup_multiplier(operator_polynomial(kdvks()), (0.05, 0.1),
                                    grid, real=True)
    for m in (None, *mults):
        got = dd_field_values(half, grid, idx, m)
        assert got.tobytes() == _allocating_half_dd_field_values(half, grid, idx, m).tobytes()


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


def _exact_values(spec, n):
    # sum_k c_k e^{2*pi*i*k*j/n} at every node j, in rational arithmetic
    roots = _roots_frac(n)
    exact = []
    for j in range(n):
        w = [roots[k * j % n] for k in range(n)]
        exact.append((sum(a * c - b * d for (a, b), (c, d) in zip(spec, w)),
                      sum(a * d + b * c for (a, b), (c, d) in zip(spec, w))))
    return exact


def _excess(values, exact, tol):
    # largest error beyond half an ulp of the exact value plus tol
    return max(abs(Fraction(float(part)) - want)
               - Fraction(math.ulp(float(want)) / 2) - tol
               for v, pair in zip(values, exact)
               for part, want in zip((v.real, v.imag), pair))


@pytest.mark.parametrize("flow", [False, True])
def test_dd_field_values_against_an_exact_dft(flow):
    # beyond the final rounding to complex128, the transform may lose at
    # most 1e-30 * sum_k |c_k m_k| anywhere, tails included
    _check_against_an_exact_dft(flow, half=False)


@pytest.mark.parametrize("flow", [False, True])
def test_half_spectrum_dd_field_values_against_an_exact_dft(flow):
    # a half spectrum is the real field whose negative modes are the
    # conjugates of its modes 1..n/2-1, and whose modes 0 and n/2 are real:
    # its exact values are those of that full spectrum, under the same bound
    _check_against_an_exact_dft(flow, half=True)


def _check_against_an_exact_dft(flow, half):
    n = 64
    grid = SpectralGrid(n, 40.0)
    f = gaussian_spectral(grid, center=-10.0, width=2.0)
    keep = n // 2 + 1 if half else n
    spec = [(Fraction(float(c.real)), Fraction(float(c.imag))) for c in f.coeffs[:keep]]
    mult = None
    plain = f.coeffs[:keep]
    if flow:
        mult = dd_semigroup_multiplier(operator_polynomial(kdvks()), 0.1, grid, half)
        (re_h, re_l), (im_h, im_l) = mult
        m = [(_as_frac((re_h[k], re_l[k])), _as_frac((im_h[k], im_l[k])))
             for k in range(keep)]
        spec = [(a * c - b * d, a * d + b * c) for (a, b), (c, d) in zip(spec, m)]
        plain = plain * (re_h + re_l + 1j * (im_h + im_l))
    if half:
        spec[0] = (spec[0][0], Fraction(0))
        spec[-1] = (spec[-1][0], Fraction(0))
        spec += [(a, -b) for a, b in spec[-2:0:-1]]
    tol = Fraction(1e-30 * sum(abs(complex(float(a), float(b))) for a, b in spec))
    exact = _exact_values(spec, n)
    got = dd_field_values(f.coeffs[:keep], grid, np.arange(n), mult)
    assert got.dtype == (float if half else complex)
    assert _excess(got, exact, tol) <= 0
    # the bound bites: a double-precision inverse FFT misses it
    plain_values = np.fft.irfft(plain * n, n) if half else np.fft.ifft(plain * n)
    assert _excess(plain_values, exact, tol) > 0


def test_half_spectrum_projects_a_complex_nyquist_multiplier():
    # kdvb damps only like xi^2, so at t = 0.05 on 64 modes the Nyquist
    # multiplier exp(-t*S(i*xi_N)) is live and complex; the real field of
    # the half spectrum is the real part of the full complex route
    n = 64
    grid = SpectralGrid(n, 40.0)
    f = gaussian_spectral(grid, center=-10.0, width=2.0)
    poly = operator_polynomial(preset("kdvb"))
    mult = dd_semigroup_multiplier(poly, 0.05, grid)
    nyquist = mult[:, 0, n // 2]
    assert nyquist[0] != 0.0 and nyquist[1] != 0.0
    idx = np.arange(n)
    full = dd_field_values(f.coeffs, grid, idx, mult)
    half = dd_field_values(f.coeffs[: n // 2 + 1], grid, idx,
                           dd_semigroup_multiplier(poly, 0.05, grid, real=True))
    spec = f.coeffs * (mult[0, 0] + mult[0, 1] + 1j * (mult[1, 0] + mult[1, 1]))
    tol = 1e-30 * np.sum(np.abs(spec))
    assert np.max(np.abs(half - full.real)) <= tol
    # what the projection drops, the Nyquist term's imaginary part, is far
    # above the bound
    assert np.max(np.abs(full.imag)) > 1e4 * tol


def test_dd_field_values_memory_stays_small():
    # 6143 seam nodes: the seam x modes direct sum this transform replaced
    # held 32 MB in its first (seam, modes) array alone
    grid = SpectralGrid(16384, 160.0)
    f = gaussian_spectral(grid, center=-20.0, width=3.0)
    idx = np.nonzero(0.25 * grid.x > 5.0)[0]
    assert idx.size == 6143
    poly = operator_polynomial(kdvks())
    half = grid.n // 2 + 1
    calls = [(f.coeffs, dd_semigroup_multiplier(poly, 0.1, grid)),
             (f.coeffs[:half], dd_semigroup_multiplier(poly, 0.1, grid, real=True))]
    for coeffs, mult in calls:
        dd_field_values(coeffs, grid, idx, mult)  # fill the per-n caches
        tracemalloc.start()
        try:
            dd_field_values(coeffs, grid, idx, mult)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, coeffs.size
