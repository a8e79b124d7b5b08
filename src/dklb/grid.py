"""Periodic spectral grid, fields, multiplier calculus, weights, snapshots.

Conventions, fixed once for the whole package:

  * fundamental domain [-L/2, L/2) with nodes x_j = -L/2 + j*L/N;
  * wavenumbers xi_k = 2*pi*k/L for k in [-N/2, N/2), stored in FFT order;
  * coefficients c_k = FFT(values)/N, so values_j = sum_k c_k exp(i xi_k x_j);
  * the L2 quadrature weight is L/N, hence ||u||_{L2}^2 = L * sum_k |c_k|^2.

A field whose is_real flag is set must have Hermitian coefficients,
c_{-k} = conj(c_k).  Realness is a static fact, never measured: from_values
reads it from the dtype of the values, and apply_multiplier takes it from
its caller.  The derivative multipliers (i*xi)^k and |xi|^s keep real
fields real, and so does the flow of a damping symbol exactly when the
symbol is even.  The rule holds on every grid because odd terms (odd
derivatives, the dispersive phase t*xi^3) are evaluated at
SpectralGrid.xi_odd, which is zero at the unpaired Nyquist mode k = -N/2:
the convention of Trefethen, Spectral Methods in MATLAB (2000), ch. 3.
multiplier_preserves_real checks the condition behind the rule,
m(-xi) = conj(m(xi)), on a given multiplier.
"""

from __future__ import annotations

import struct
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-12
# the 2/3 rule: products keep the modes |k| <= DEALIAS * N/2
DEALIAS = 2.0 / 3.0
# exp(300) ~ 1.9e130 is far below the largest double, ~exp(709.8); the cap is
# set by weighted norms, which square the weight: exp(600) ~ 3.8e260 leaves
# about e^109 for the field's own magnitude and the sum over the grid.
EXP_WEIGHT_CAP = 300.0


class SpectralGrid:
    """Uniform periodic grid with N nodes on a domain of length L.

    A plain immutable value: grids with equal n and length are equal and
    hash equal, and assigning to a field raises AttributeError.  The
    instance dict holds the fields and the cached_property arrays, each
    computed on first use.
    """

    def __init__(self, n: int, length: float):
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 16, got {n}")
        if not length > 0:
            raise ValueError(f"domain length must be positive, got {length}")
        vars(self).update(n=n, length=length)

    def __eq__(self, other):
        if type(other) is not SpectralGrid:
            return NotImplemented
        return (self.n, self.length) == (other.n, other.length)

    def __hash__(self):
        return hash((self.n, self.length))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def x(self) -> np.ndarray:
        """Physical nodes x_j = -L/2 + j*L/N."""
        return -self.length / 2 + np.arange(self.n) * (self.length / self.n)

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers k in FFT order, k in [-N/2, N/2)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers 2*pi*k/L in FFT order."""
        return 2.0 * np.pi * self.modes / self.length

    @cached_property
    def xi_odd(self) -> np.ndarray:
        """xi with the unpaired Nyquist entry zeroed: the wavenumbers of odd terms."""
        xi = self.xi.copy()
        xi[self.nyquist_index] = 0.0
        return xi

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on modes kept by the dealias cutoff |k| <= DEALIAS * N/2."""
        return np.abs(self.modes) <= DEALIAS * (self.n // 2)

    def kept_modes(self, real: bool) -> int:
        """Modes a flow keeps: N/2+1 (0..N/2) if it is real, else all N."""
        return self.n // 2 + 1 if real else self.n

    def dealias_tail(self, real: bool) -> slice:
        """The kept modes above the dealias band, one slice of a kept row.

        A real flow keeps modes 0..N/2, a complex one all N in FFT order.
        With K the top band mode, the modes above the band are K+1..N/2 of
        the half spectrum, or the FFT-order entries K+1..N-K-1 of the full
        one: contiguous either way, so the kept row without them is the
        band, modes 0..K and then, for a complex flow, -K..-1.
        """
        top = int(np.count_nonzero(self.dealias_mask[: self.kept_modes(True)]))  # K+1
        return slice(top, self.kept_modes(True) if real else self.n - top + 1)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def nyquist_index(self) -> int:
        return self.n // 2


class SpectralField:
    """A field on a SpectralGrid, represented by its Fourier coefficients.

    A mutable record with identity equality: comparing coefficient arrays
    is left to numpy.
    """

    def __init__(self, grid: SpectralGrid, coeffs: np.ndarray, is_real: bool):
        self.grid = grid
        self.coeffs = coeffs
        self.is_real = is_real

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.is_real)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             self.is_real and other.is_real)

    def __mul__(self, scalar) -> "SpectralField":
        c = complex(scalar)
        real_scalar = c.imag == 0.0
        return SpectralField(self.grid, self.coeffs * c, self.is_real and real_scalar)

    __rmul__ = __mul__


def _check_same_grid(f: SpectralField, g: SpectralField) -> None:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def from_values(grid: SpectralGrid, values) -> SpectralField:
    """Build a field from nodal values; it is real exactly when their dtype is."""
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} nodal values, got shape {values.shape}")
    coeffs = np.fft.fft(values) / grid.n
    return SpectralField(grid, coeffs, not np.iscomplexobj(values))


def to_values(f: SpectralField) -> np.ndarray:
    """Nodal values; real dtype when the field is flagged real."""
    vals = np.fft.ifft(f.coeffs) * f.grid.n
    return vals.real if f.is_real else vals


def _flip_index(n: int) -> np.ndarray:
    # index map k -> -k in FFT order (0 -> 0, Nyquist -> Nyquist)
    idx = np.arange(n)
    return (-idx) % n


def multiplier_preserves_real(grid: SpectralGrid, m: np.ndarray) -> bool:
    """True when m(-xi) == conj(m(xi)) within HERMITIAN_TOL, so real fields stay real."""
    m = np.asarray(m, dtype=complex)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return True
    defect = np.max(np.abs(m[_flip_index(grid.n)] - np.conj(m))) / scale
    return bool(defect <= HERMITIAN_TOL)


def apply_multiplier(f: SpectralField, m, keeps_real: bool) -> SpectralField:
    """Multiply the coefficients by the symbol values m (FFT order).

    keeps_real states whether m(-xi) == conj(m(xi)); the result is flagged
    real when f is and the multiplier keeps real fields real.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (f.grid.n,):
        raise ValueError(f"multiplier shape {m.shape} does not match grid")
    return SpectralField(f.grid, f.coeffs * m, f.is_real and keeps_real)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product with the 2/3-style truncation before and after.

    Both inputs are truncated to the dealias band, multiplied at the nodes,
    and the result truncated again; quadratic aliasing then cannot pollute
    the kept band.
    """
    _check_same_grid(f, g)
    mask = f.grid.dealias_mask
    fc = np.where(mask, f.coeffs, 0.0)
    gc = np.where(mask, g.coeffs, 0.0)
    fv = np.fft.ifft(fc) * f.grid.n
    gv = np.fft.ifft(gc) * f.grid.n
    if f.is_real and g.is_real:
        prod = fv.real * gv.real
    else:
        prod = fv * gv
    pc = np.fft.fft(prod) / f.grid.n
    return SpectralField(f.grid, np.where(mask, pc, 0.0), f.is_real and g.is_real)


def l2_norm(f: SpectralField) -> float:
    """||u||_{L2} via the coefficient-side Parseval identity."""
    return float(np.sqrt(f.grid.length) * np.linalg.norm(f.coeffs))


def boundary_leakage(f: SpectralField) -> float:
    """Share of the |u|^2 mass lying in the outer 5% of the domain.

    The strip straddles the periodic seam at +-L/2 (half its width on each
    side).  Returns 0 for the zero field.
    """
    vals = np.abs(to_values(f)) ** 2
    total = float(np.sum(vals))
    if total == 0.0:
        return 0.0
    half_strip = 0.025 * f.grid.length
    x = f.grid.x
    in_strip = (x < -f.grid.length / 2 + half_strip) | (x >= f.grid.length / 2 - half_strip)
    return float(np.sum(vals[in_strip])) / total


# --- spatial weights ------------------------------------------------------

WEIGHT_KINDS = ("poly", "bracket", "exp")


class WeightSpec:
    """A pointwise spatial weight: poly |x|^r, bracket (1+x^2)^(r/2), or exp(b*x).

    A plain immutable value, like SpectralGrid.
    """

    def __init__(self, kind: str, param: float):
        if kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {kind!r}; choose from {WEIGHT_KINDS}")
        if kind in ("poly", "bracket") and param < 0:
            raise ValueError(f"{kind} weight exponent must be >= 0, got {param}")
        vars(self).update(kind=kind, param=param)

    def __eq__(self, other):
        if type(other) is not WeightSpec:
            return NotImplemented
        return (self.kind, self.param) == (other.kind, other.param)

    def __hash__(self):
        return hash((self.kind, self.param))

    __setattr__ = __delattr__ = SpectralGrid.__setattr__

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.param:g}"

    def values(self, grid: SpectralGrid) -> np.ndarray:
        x = grid.x
        if self.kind == "poly":
            return np.abs(x) ** self.param
        if self.kind == "bracket":
            return (1.0 + x**2) ** (self.param / 2.0)
        if abs(self.param) * grid.length / 2.0 > EXP_WEIGHT_CAP:
            raise ValueError(
                f"exponential weight overflows the grid: |b|*L/2 = "
                f"{abs(self.param) * grid.length / 2.0:g} > {EXP_WEIGHT_CAP:g}"
            )
        return np.exp(self.param * x)


def parse_weight(text: str) -> WeightSpec:
    """Parse 'kind:param' labels such as 'poly:1.0' or 'exp:0.25'."""
    kind, sep, param = text.strip().partition(":")
    if not sep:
        raise ValueError(f"malformed weight {text!r}; expected kind:param")
    return WeightSpec(kind.strip(), float(param))


# --- binary snapshots -----------------------------------------------------

SNAPSHOT_MAGIC = b"DKLB"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIQddB")


def write_snapshot(path, f: SpectralField, t: float) -> None:
    """Write a field to the binary snapshot format.

    Layout: magic 'DKLB', version u32, N u64, L f64, t f64, is_real u8,
    then N little-endian (f64 re, f64 im) pairs holding the Fourier
    coefficients in FFT order.  Round trips are bit-exact.
    """
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, f.grid.n,
                          f.grid.length, float(t), 1 if f.is_real else 0)
    body = np.empty(2 * f.grid.n, dtype="<f8")
    body[0::2] = f.coeffs.real
    body[1::2] = f.coeffs.imag
    with open(path, "wb") as handle:
        handle.write(header + body.tobytes())


def read_snapshot(path) -> tuple[SpectralField, float]:
    """Read a binary snapshot; returns (field, t)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot file {path} is truncated")
    magic, version, n, length, t, is_real = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"snapshot file {path} has bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    expected = _HEADER.size + 16 * n
    if len(raw) != expected:
        raise ValueError(f"snapshot file {path} has {len(raw)} bytes, expected {expected}")
    body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    coeffs = body[0::2] + 1j * body[1::2]
    grid = SpectralGrid(int(n), float(length))
    return SpectralField(grid, coeffs, bool(is_real)), float(t)
