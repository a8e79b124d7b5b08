"""Double-double evaluation of field values near an exponential-weight seam.

Multiplying a field by exp(b*x) amplifies whatever sits at the right edge of
the domain by exp(b*L/2).  In plain double precision, every eps-relative
rounding of the live Fourier content (FFT stages, multiplier values) leaves
about 1e-16 * ||u||_inf of broadband residue at the seam; under a strong
weight that residue dominates weighted comparisons even though the true
field values there are far smaller.  The helpers here evaluate seam values
of spectral fields, and the semigroup multiplier feeding them, in
double-double arithmetic (~31 significant digits), so the seam carries the
true tiny tails instead of amplified rounding noise.  Field values come from
one inverse DFT in complex double-double: an iterative radix-2
decimation-in-time FFT (Cooley & Tukey, 1965), O(n log n) in the grid size,
whose twiddles are the double-double roots of unity of _roots_of_unity.  A
complex field is its full spectrum and takes a length-n transform.  A real
field is its half spectrum, modes 0..n/2, read as irfft reads it (modes 0
and n/2 by their real parts, so a complex Nyquist multiplier is projected
onto the real field), and takes one length-n/2 transform of the packed
spectrum (Cooley, Lewis & Welch, 1970).  Both lengths run one butterfly
loop, which splits each high word once per product of complex numbers and
writes each level into the other of two buffers, allocated once per
transform.  The semigroup multiplier is one table over a list of times,
from one evaluation of S(i*xi), on the modes its field holds; it runs its
Taylor exp and sincos once for all times, only on the entries whose
exponent does not underflow; the rest are exact zeros.  A conjugation check
transforms f once per weight and the flowed spectrum once per time.

A double-double is a pair (hi, lo) of float64 arrays with value hi + lo and
|lo| <= ulp(hi)/2.  The primitives are the classical error-free transforms
(Knuth two-sum, Dekker split and two-prod; no FMA assumed; see Hida, Li &
Bailey, ARITH-15, 2001) plus Taylor exp/sin/cos with double-double argument
reduction.  Everything is numpy-vectorized; scalars broadcast.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

# (hi, lo) splittings of the constants used in argument reduction
TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
HALF_PI = (1.5707963267948966, 6.123233995736766e-17)
LN2 = (0.6931471805599453, 2.3190468138462996e-17)

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant for binary64


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b, out=None):
    # requires |a| >= |b|; out, when given, receives the (hi, lo) words
    if out is None:
        s = a + b
        return s, b - (s - a)
    s = np.add(a, b, out=out[0])
    return s, np.subtract(b, s - a, out=out[1])


def _split(a):
    """Dekker's split of a into halves of 26 bits each, hi + lo == a."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b, a_split=None, b_split=None):
    # a*b and its rounding error; a_split and b_split are the _split of a
    # and of b where the caller has them already
    p = a * b
    ahi, alo = _split(a) if a_split is None else a_split
    bhi, blo = _split(b) if b_split is None else b_split
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd(x):
    """Lift an exact float64 (or array) into double-double."""
    x = np.asarray(x, dtype=float)
    return x, np.zeros_like(x)


def dd_add(a, b, out=None):
    s, e = _two_sum(a[0], b[0])
    e = e + a[1] + b[1]
    return _quick_two_sum(s, e, out)


def dd_neg(a):
    return -a[0], -a[1]


def dd_sub(a, b, out=None):
    return dd_add(a, dd_neg(b), out)


def dd_mul(a, b, a_split=None, b_split=None):
    p, e = _two_prod(a[0], b[0], a_split, b_split)
    e = e + (a[0] * b[1] + a[1] * b[0]) + a[1] * b[1]
    return _quick_two_sum(p, e)


def dd_mul_d(a, d):
    p, e = _two_prod(a[0], d)
    e = e + a[1] * d
    return _quick_two_sum(p, e)


def dd_div_d(a, d):
    q1 = a[0] / d
    p, e = _two_prod(q1, d)
    q2 = ((a[0] - p) - e + a[1]) / d
    return _quick_two_sum(q1, q2)


def dd_value(a):
    return a[0] + a[1]


# 1/n! for n = 0..31, each by one more double-double division
_INV_FACT = list(accumulate(range(1, 32), lambda inv, n: dd_div_d(inv, float(n)),
                            initial=(np.float64(1.0), np.float64(0.0))))


def _reduce(a, c):
    """(k, a - k*c) with k the integer nearest a/c, for a constant pair c."""
    k = np.round((a[0] + a[1]) / c[0])
    return k, dd_sub(a, dd_mul_d(c, k))


def _horner(x, coeffs):
    """The polynomial in x whose double-double coefficients are coeffs,
    highest power first."""
    acc = dd(np.zeros_like(x[0]))
    for c in coeffs:
        acc = dd_add(dd_mul(acc, x), c)
    return acc


# sin(r)/r and cos(r) as series in r^2: (-1)^m / (2m+1)! and (-1)^m / (2m)!,
# m = 14..0
_SIN, _COS = ([dd_neg(_INV_FACT[2 * m + j]) if m % 2 else _INV_FACT[2 * m + j]
               for m in range(14, -1, -1)] for j in (1, 0))


def dd_exp(a):
    """exp of a double-double, elementwise; underflows cleanly to zero."""
    k, r = _reduce(a, LN2)
    acc = _horner(r, _INV_FACT[26::-1])
    ik = k.astype(np.int64)
    hi = np.ldexp(acc[0], ik)
    lo = np.ldexp(acc[1], ik)
    dead = a[0] < -745.0
    if np.any(dead):
        hi = np.where(dead, 0.0, hi)
        lo = np.where(dead, 0.0, lo)
    return hi, lo


def dd_sincos(a):
    """(sin, cos) of a double-double, elementwise, via pi/2 reduction."""
    n, r = _reduce(a, HALF_PI)
    r2 = dd_mul(r, r)
    # each as one stacked (hi, lo) array
    s = np.asarray(dd_mul(_horner(r2, _SIN), r))
    c = np.asarray(_horner(r2, _COS))
    q = n.astype(np.int64) % 4
    quadrant = [q == 0, q == 1, q == 2]
    return (np.select(quadrant, [s, c, -s], -c),
            np.select(quadrant, [c, -s, -c], s))


# --- complex double-double: ((re_hi, re_lo), (im_hi, im_lo)) ------------------


def cdd_mul(a, b):
    """The product a*b, splitting each high word of a and of b once for the
    four real products; bitwise the same as splitting it in each of them."""
    (ar, ai), (br, bi) = a, b
    sr, si, tr, ti = (_split(part[0]) for part in (ar, ai, br, bi))
    re = dd_sub(dd_mul(ar, br, sr, tr), dd_mul(ai, bi, si, ti))
    im = dd_add(dd_mul(ar, bi, sr, ti), dd_mul(ai, br, si, tr))
    return re, im


def cdd_mul_complex(a, z):
    """Multiply a complex double-double by an exact complex128 array."""
    ar, ai = a
    zr, zi = np.real(z), np.imag(z)
    re = dd_sub(dd_mul_d(ar, zr), dd_mul_d(ai, zi))
    im = dd_add(dd_mul_d(ar, zi), dd_mul_d(ai, zr))
    return re, im


@lru_cache(maxsize=8)
def _roots_of_unity(n: int):
    """exp(2*pi*i*m/n) for m = 0..n/2-1, every twiddle of a length-n or
    length-n/2 transform, as one (re/im, hi/lo, m) array."""
    m = np.arange(n // 2, dtype=float)
    theta = dd_div_d(dd_mul_d(TWO_PI, m), float(n))
    s, c = dd_sincos(theta)
    return np.asarray((c, s))


@lru_cache(maxsize=8)
def _bit_reversal(n: int) -> np.ndarray:
    """The bit-reversal permutation of 0..n-1, for n a power of two."""
    bits = n.bit_length() - 1
    m = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((m >> b) & 1) << (bits - 1 - b)
    return rev


def seam_indices(grid, b: float) -> np.ndarray:
    """Grid indices where exp(b*x) exceeds e^5 (rounding there is leveraged)."""
    return np.nonzero(b * grid.x > 5.0)[0]


def dd_semigroup_multiplier(poly: np.ndarray, t, grid, real: bool = False):
    """exp(-t*S(i*xi)) per mode as a complex double-double.

    poly holds the ascending coefficients of the operator polynomial S (the
    same array the double route evaluates); its entries are taken as exact.
    The result is one (re/im, hi/lo, mode) array for a scalar t; a vector of
    times gives a (times, 2, 2, modes) array, row k bitwise the multiplier at
    t[k], from one evaluation of S(i*xi).  Every mode of the grid is
    evaluated, in FFT order, unless real is set: then only modes 0..n/2,
    the half spectrum that dd_field_values reads as a real field, each entry
    bitwise the one of the full table.  The Taylor exp and sincos run once,
    on the entries of all times together, and only where the real exponent
    does not underflow (dd_exp's -745 rule); every other entry is an exact
    zero, which is what the product there would round to.  Every step is
    elementwise, so each row is bitwise the one a single time would give.
    """
    times = np.asarray(t, dtype=float)
    modes = grid.modes[: grid.n // 2 + 1 if real else grid.n].astype(float)
    xi = dd_div_d(dd_mul_d(TWO_PI, modes), grid.length)
    # scalar coefficient pairs broadcast against the modes
    acc = (dd(poly[-1].real), dd(poly[-1].imag))
    z = (dd(np.zeros_like(modes)), xi)  # i*xi
    for c in poly[-2::-1]:
        acc = cdd_mul(acc, z)
        acc = (dd_add(acc[0], (c.real, 0.0)), dd_add(acc[1], (c.imag, 0.0)))
    # the exponents of every (time, mode) entry, each time a row; one Taylor
    # pass over the live entries of all of them, each entry elementwise
    neg_t = -times.reshape(-1, 1)
    ex_re = dd_mul_d(acc[0], neg_t)
    ex_im = dd_mul_d(acc[1], neg_t)
    # NaN is not below -745, so a NaN exponent still reaches dd_exp
    live = ~(ex_re[0] < -745.0)
    mag = dd_exp((ex_re[0][live], ex_re[1][live]))
    s, c = dd_sincos((ex_im[0][live], ex_im[1][live]))
    # (time, re/im, hi/lo, mode), written through its (re/im, hi/lo, time,
    # mode) view
    out = np.zeros((times.size, 2, 2, modes.size))
    parts = np.moveaxis(out, 0, 2)
    parts[0][:, live] = dd_mul(mag, c)
    parts[1][:, live] = dd_mul(mag, s)
    return out.reshape(*times.shape, 2, 2, modes.size)


def dd_field_values(coeffs: np.ndarray, grid, idx: np.ndarray,
                    mult=None) -> np.ndarray:
    """Evaluate sum_k c_k * mult_k * e^{2*pi*i*k*j/n} at selected grid indices.

    Matches the inverse-FFT convention of SpectralField values but carries
    the whole transform in double-double: the spectrum c_k * mult_k is
    formed in double-double (c_k lifted exactly when there is no
    multiplier), then transformed by _dd_fft, O(n log n) for n = grid.n a
    power of two.  coeffs (and mult, with the same length) hold either all
    n modes in FFT order, and complex128 values are returned, or the half
    spectrum of modes 0..n/2 of a real field, and float64 values are
    returned.  A half spectrum is read as irfft reads it: the negative modes
    are the conjugates of the positive ones, and modes 0 and n/2 are taken
    by their real parts, so a Nyquist multiplier that is complex is
    projected onto the real field.  Its n real values come from one
    length-n/2 complex transform of
    Z_k = (X_k + X_{k+n/2}) + i*w^k*(X_k - X_{k+n/2}), w = e^{2*pi*i/n}, as
    x_{2m} = Re z_m and x_{2m+1} = Im z_m (Cooley, Lewis & Welch, 1970).
    The transform runs in the spectrum's own array and one more of its
    size, each level written into the other.  Results are accurate in absolute terms far below the 1e-16 * max|u|
    floor of a standard inverse FFT.
    """
    n = grid.n
    if mult is None:
        spec = (dd(coeffs.real), dd(coeffs.imag))
    else:
        spec = cdd_mul_complex(mult, coeffs)
    # a complex double-double as one (re/im, hi/lo, ...) array
    spec = np.asarray(spec)
    if spec.shape[-1] == n:
        z = _dd_fft(spec, n)
        return dd_value(z[0][:, idx]) + 1j * dd_value(z[1][:, idx])
    z = _dd_fft(_packed_half_spectrum(spec, n), n)
    return dd_value(np.moveaxis(z[idx % 2, :, idx // 2], -1, 0))


def _packed_half_spectrum(x, n: int):
    # Z_k for k = 0..n/2-1 from the half spectrum x of a real field, with
    # X_{k+n/2} = conj X_{n/2-k}; modes 0 and n/2 lose their imaginary parts
    x[1, :, [0, n // 2]] = 0.0
    low = x[..., : n // 2]
    high = (x[0, :, n // 2 : 0 : -1], dd_neg(x[1, :, n // 2 : 0 : -1]))
    s = (dd_add(low[0], high[0]), dd_add(low[1], high[1]))
    d = cdd_mul((dd_sub(low[0], high[0]), dd_sub(low[1], high[1])),
                _roots_of_unity(n))
    return np.asarray((dd_sub(s[0], d[1]), dd_add(s[1], d[0])))


def _dd_fft(a, n: int):
    """The inverse DFT z_j = sum_k a_k e^{2*pi*i*k*j/m} of a (re/im, hi/lo, m)
    complex double-double array, m = n or n/2, consuming a.

    An iterative radix-2 decimation-in-time FFT (Cooley & Tukey, 1965):
    level h = 1, 2, ..., m/2 joins pairs of length-h transforms with the
    twiddles of _roots_of_unity(n) at stride n/(2h).  Each level is one
    vectorised _butterfly from one buffer into the other.  While a level has
    fewer twiddles than transforms, the transforms are columns (natural
    input order, long rows per twiddle); the bit-reversal permutation then
    turns them into contiguous blocks for the remaining levels.  Every
    butterfly is the same arithmetic in either layout.
    """
    m = a.shape[-1]
    roots = _roots_of_unity(n)
    buf = np.empty_like(a)
    h = 1
    while h < m // (2 * h):
        # column c holds the length-h transform of a_c, a_{c+cols}, ...
        cols = m // h
        x = a.reshape(2, 2, h, cols)
        y = buf.reshape(2, 2, 2, h, cols // 2)
        _butterfly(x[..., : cols // 2], x[..., cols // 2:],
                   roots[..., : n // 2 : n // (2 * h), None], y[:, :, 0], y[:, :, 1])
        a, buf = buf, a
        h *= 2
    cols = m // h
    buf.reshape(2, 2, cols, h)[...] = (
        a.reshape(2, 2, h, cols)[..., _bit_reversal(cols)].swapaxes(-1, -2))
    a, buf = buf, a
    while h < m:
        pairs = a.reshape(2, 2, m // (2 * h), 2, h)
        out = buf.reshape(2, 2, m // (2 * h), 2, h)
        _butterfly(pairs[:, :, :, 0], pairs[:, :, :, 1],
                   roots[..., : n // 2 : n // (2 * h)], out[:, :, :, 0], out[:, :, :, 1])
        a, buf = buf, a
        h *= 2
    return a


def _butterfly(u, v, w, plus, minus):
    # plus = u + v*w and minus = u - v*w, written into the given views
    t = cdd_mul(v, w)
    for c in range(2):
        dd_add(u[c], t[c], plus[c])
        dd_sub(u[c], t[c], minus[c])
