"""Double-double evaluation of field values under an exponential weight.

Multiplying a field by exp(b*x) amplifies whatever sits at the right edge of
the domain by exp(b*L/2).  In plain double precision, every eps-relative
rounding of the live Fourier content (FFT stages, multiplier values) leaves
about 1e-16 * ||u||_inf of broadband residue at every node; under a strong
weight that residue dominates weighted comparisons even though the true
field values there are far smaller.  The helpers here evaluate the node
values of spectral fields, and the semigroup multiplier feeding them, in
double-double arithmetic (~31 significant digits), so the weighted field
carries the true tiny tails instead of amplified rounding noise.  The
conjugation check takes every node this way, whatever the weight, and
reads a real field from its half spectrum only.  Field values come from
one inverse DFT in complex double-double: an iterative radix-2
decimation-in-time FFT (Cooley & Tukey, 1965), O(n log n) in the grid size,
whose twiddles are the double-double roots of unity of _roots_of_unity.  A
complex field is its full spectrum and takes a length-n transform.  A real
field is its half spectrum, modes 0..n/2, read as irfft reads it (modes 0
and n/2 by their real parts, so a complex Nyquist multiplier is projected
onto the real field), and takes one length-n/2 transform of the packed
spectrum (Cooley, Lewis & Welch, 1970).  Only the live band is lifted and
packed, the modes up to the last where the spectrum (times its multiplier)
is nonzero; the rest is exact zeros.  Both lengths run one butterfly loop,
which writes each level into the other of two buffers.  A complex
double-double is one (re/im, hi/lo, ...) array whose (re, im) words share
each real operation: a complex product is one dd_mul by (b, i*b) and one
dd_add, a butterfly forms u + v*w and u - v*w in one dd_add, and the first
level (twiddle 1 + 0i) takes no product.  The semigroup multiplier is one
table over a list of times, from one evaluation of S(i*xi) on the modes a
double-precision prefilter keeps; it runs its Taylor exp and sincos (one
loop for both series) once for all times, only on the entries whose
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
    highest power first; x's high word is split once for every product."""
    acc = dd(np.zeros_like(x[0]))
    x_split = _split(x[0])
    for c in coeffs:
        acc = dd_add(dd_mul(acc, x, None, x_split), c)
    return acc


# sin(r)/r and cos(r) as series in r^2, one (hi/lo, sin/cos) array per
# power: (-1)^m / (2m+1)! and (-1)^m / (2m)!, m = 14..0
_SINCOS = [(-1.0) ** m * np.array([_INV_FACT[2 * m + 1], _INV_FACT[2 * m]]).T
           for m in range(14, -1, -1)]


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
    # both series in one Horner loop along a last axis, each then (hi, lo)
    r2 = dd_mul(r, r)
    sc = np.asarray(_horner((r2[0][..., None], r2[1][..., None]), _SINCOS))
    s = np.asarray(dd_mul(sc[..., 0], r))
    c = sc[..., 1]
    q = n.astype(np.int64) % 4
    quadrant = [q == 0, q == 1, q == 2]
    return (np.select(quadrant, [s, c, -s], -c),
            np.select(quadrant, [c, -s, -c], s))


# --- complex double-double: one (re/im, hi/lo, ...) array ---------------------


def _pair(x):
    # a complex double-double as one double-double of stacked (re, im) words
    return x[:, 0], x[:, 1]


def cdd_mul(a, b):
    """a*b as the stacked sum of a_re*(b_re, b_im) and a_im*(-b_im, b_re),
    all four real products in one dd_mul.  A sign folded into a product
    negates its words exactly but for the sign of a zero, which dd_add never
    reads, so this is bitwise the four products, their difference and sum."""
    a = np.asarray(a)
    b = np.asarray(b)[[0, 1, 1, 0]]  # (b, i*b) once its third row is negated
    b[2] *= -1.0
    b = b.reshape(2, 2, *b.shape[1:])
    hi, lo = dd_mul((a[:, 0, None], a[:, 1, None]), (b[:, :, 0], b[:, :, 1]))
    out = np.empty((2, 2, *hi.shape[2:]))
    dd_add((hi[0], lo[0]), (hi[1], lo[1]), _pair(out))
    return out


def cdd_mul_complex(a, z):
    """Multiply a complex double-double by an exact complex128 array."""
    z = np.asarray(z)
    return cdd_mul(a, np.stack((dd(z.real), dd(z.imag))))


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


def dd_semigroup_multiplier(poly: np.ndarray, t, grid, real: bool = False):
    """exp(-t*S(i*xi)) per mode as a complex double-double.

    poly holds the ascending coefficients of the operator polynomial S (the
    same array the double route evaluates); its entries are taken as exact.
    The result is one (re/im, hi/lo, mode) array for a scalar t; a vector of
    times gives a (times, 2, 2, modes) array, row k bitwise the multiplier at
    t[k], from one evaluation of S(i*xi).  Every mode of the grid is
    evaluated, in FFT order, unless real is set: then only modes 0..n/2,
    the half spectrum that dd_field_values reads as a real field, each entry
    bitwise the one of the full table.  S is evaluated only on the modes a
    double prefilter keeps, and the Taylor exp and sincos run once, on the
    entries of all times together, only where the real exponent does not
    underflow (dd_exp's -745 rule); every other entry is an exact zero, what
    the product there would round to.  Every step is elementwise, so each
    row is bitwise the one a single time would give.
    """
    times = np.asarray(t, dtype=float)
    neg_t = -times.reshape(-1, 1)
    modes = grid.modes[: grid.kept_modes(real)].astype(float)
    xi = np.asarray(dd_div_d(dd_mul_d(TWO_PI, modes), grid.length))
    # a mode is dropped where every time's double exponent -t*Re S(i*xi) is
    # below -745 by over 1e-6 of B >= |t| sum |c_k| |xi|^k, far above its
    # rounding, and B < 1e290, where no word overflows into NaN; NaN stays
    polyval = np.polynomial.polynomial.polyval  # numpy loads it on first use
    with np.errstate(all="ignore"):
        big = np.maximum(np.abs(xi[0]), 1.0)
        bound = np.maximum(np.abs(neg_t), 1.0) * big * polyval(big, np.abs(poly))
        dead = ((neg_t * polyval(1j * xi[0], poly).real + 1e-6 * bound < -745.0)
                & (bound < 1e290))
    keep = np.flatnonzero(~np.all(dead, axis=0))
    z = np.stack((np.zeros((2, keep.size)), xi[:, keep]))  # i*xi
    acc = np.array([[[poly[-1].real], [0.0]], [[poly[-1].imag], [0.0]]])
    for c in poly[-2::-1]:
        acc = cdd_mul(acc, z)
        dd_add(_pair(acc), ([[c.real], [c.imag]], 0.0), _pair(acc))
    # the (time, re/im, mode) exponents; NaN is not below -745, so a NaN
    # exponent still reaches dd_exp
    hi, lo = dd_mul_d(_pair(acc), neg_t[:, None])
    live = ~(hi[:, 0] < -745.0)
    mag = dd_exp((hi[:, 0][live], lo[:, 0][live]))
    s, c = dd_sincos((hi[:, 1][live], lo[:, 1][live]))
    out = np.zeros((times.size, 2, 2, modes.size))
    rows, cols = np.nonzero(live)
    # mag*cos and mag*sin as one product, written as (entry, re/im, hi/lo)
    out[rows, :, :, keep[cols]] = np.transpose(dd_mul(mag, np.stack((c, s), 1)))
    return out.reshape(*times.shape, 2, 2, modes.size)


def dd_field_values(coeffs: np.ndarray, grid, idx: np.ndarray,
                    mult=None) -> np.ndarray:
    """Evaluate sum_k c_k * mult_k * e^{2*pi*i*k*j/n} at selected grid indices.

    Matches the inverse-FFT convention of SpectralField values but carries
    the whole transform in double-double: the spectrum c_k * mult_k is
    formed in double-double (c_k lifted exactly when there is no
    multiplier) on the live band, the modes up to the last one where it is
    nonzero, then transformed by _dd_fft, O(n log n) for n = grid.n a power
    of two.  coeffs (and mult, with the same length) hold either all
    n modes in FFT order, and complex128 values are returned, or the half
    spectrum of modes 0..n/2 of a real field, and float64 values are
    returned.  A half spectrum is read as irfft reads it: the negative modes
    are the conjugates of the positive ones, and modes 0 and n/2 are taken
    by their real parts, so a Nyquist multiplier that is complex is
    projected onto the real field.  Its n real values come from one
    length-n/2 complex transform of
    Z_k = (X_k + X_{k+n/2}) + i*w^k*(X_k - X_{k+n/2}), w = e^{2*pi*i/n}, as
    x_{2m} = Re z_m and x_{2m+1} = Im z_m (Cooley, Lewis & Welch, 1970).
    The transform runs in the spectrum's own array and one more of its size,
    each level written into the other.  Results are accurate in absolute
    terms far below the 1e-16 * max|u| floor of a standard inverse FFT.
    The transform forms every node whatever idx is, and the conjugation
    check passes every node.  idx stays because perfbench's tracer reads
    idx.size for its conjugation.seam_products count (idx.size times the
    live modes), and dropping it would break a traced run.
    """
    n = grid.n
    live = coeffs != 0
    if mult is not None:  # c*m is an exact zero where one factor is zero and
        # the other's words lie below 1e300, where Dekker's split is exact
        safe = np.all(np.abs(mult[:, 0]) < 1e300, axis=0)
        m_zero = np.all(mult[:, 0] == 0, axis=0)
        live = ~((~live & safe) | (m_zero & (np.abs(coeffs) < 1e300)))
    band = live.size - np.argmax(live[::-1]) if live.any() else 0
    spec = np.zeros((2, 2, coeffs.size))
    if mult is None:
        spec[:, 0, :band] = coeffs[:band].real, coeffs[:band].imag
    else:
        spec[..., :band] = cdd_mul_complex(mult[..., :band], coeffs[:band])
    if coeffs.size == n:
        z = _dd_fft(spec, n)
        return dd_value(z[0][:, idx]) + 1j * dd_value(z[1][:, idx])
    z = _dd_fft(_packed_half_spectrum(spec, n, band), n)
    return dd_value(np.moveaxis(z, 0, -1).reshape(2, n)[:, idx])


def _packed_half_spectrum(x, n: int, band: int):
    # Z_k, k < n/2, from the half spectrum x of a real field, X_{k+n/2} =
    # conj X_{n/2-k}, modes 0 and n/2 by their real parts; formed only where
    # X_k or X_{n/2-k} is in the live band, every other Z_k an exact zero
    x[1, :, [0, n // 2]] = 0.0
    k = np.r_[: min(band, n // 2), max(band, n // 2 - band + 1) : n // 2]
    low, high = _pair(x[..., k]), _pair(x[..., n // 2 - k] * [[[1.0]], [[-1.0]]])
    wd = cdd_mul(np.swapaxes(dd_sub(low, high), 0, 1), _roots_of_unity(n)[..., k])
    # (low + high) + i*wd as one stacked sum, i*wd = (-wd_im, wd_re) exactly
    z = np.zeros((2, 2, n // 2))
    z[..., k] = np.swapaxes(
        dd_add(dd_add(low, high), _pair(wd[[1, 0]] * [[[-1.0]], [[1.0]]])), 0, 1)
    return z


def _dd_fft(a, n: int):
    """The inverse DFT z_j = sum_k a_k e^{2*pi*i*k*j/m} of a (re/im, hi/lo, m)
    complex double-double array, m = n or n/2, consuming a.

    An iterative radix-2 decimation-in-time FFT (Cooley & Tukey, 1965):
    level h = 1, 2, ..., m/2 joins pairs of length-h transforms with the
    twiddles of _roots_of_unity(n) at stride n/(2h); level 1, whose only
    twiddle is 1 + 0i, takes no product.  Each level is one vectorised
    _butterfly from one buffer into the other.  While a level has
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
        _butterfly(a.reshape(2, 2, h, 2, cols // 2),
                   roots[..., : n // 2 : n // (2 * h), None],
                   buf.reshape(2, 2, 2, h, cols // 2).swapaxes(2, 3))
        a, buf = buf, a
        h *= 2
    cols = m // h
    buf.reshape(2, 2, cols, h)[...] = (
        a.reshape(2, 2, h, cols)[..., _bit_reversal(cols)].swapaxes(-1, -2))
    a, buf = buf, a
    while h < m:
        _butterfly(a.reshape(2, 2, m // (2 * h), 2, h),
                   roots[:, :, None, : n // 2 : n // (2 * h)],
                   buf.reshape(2, 2, m // (2 * h), 2, h))
        a, buf = buf, a
        h *= 2
    return a


def _butterfly(pairs, w, out):
    # u + v*w and u - v*w for the pairs (u, v) along axis -2 of pairs, written
    # along that axis of out as one stacked sum; a w of one twiddle (level 1)
    # is 1 + 0i, where v*w would round to v itself
    v = pairs[..., 1, :]
    t = v if w.size == 4 else cdd_mul(v, w)
    dd_add(_pair(pairs[..., :1, :]), _pair(t[..., None, :] * [[1.0], [-1.0]]),
           _pair(out))
