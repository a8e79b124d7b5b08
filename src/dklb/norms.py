"""Norm machinery: smoothing constants, mixed norms, ensemble ratio checks.

The linear flow trades decay of the damping symbol for integrability and
derivatives.  The bookkeeping exponent is

    alpha(a, b, s) = 1/a - s/p - (1/p) * (1/a1 - 1/b),   1/a + 1/a1 = 1,

and every time-local bound in the package has the shape

    A(a, b, s)(T) = exp(eta*T) * T**(1/a)
                    + eta**(-(1/a - alpha)) * (a*alpha)**(-1/a) * T**alpha,

finite exactly when alpha > 0.  The second term is the L^a_T norm of the
kernel bound ||D^s exp(-eta*t*|D|^p)||_{L^a1 -> L^b} <= (eta*t)**(-g),
g = (s + 1/a1 - 1/b)/p = 1/a - alpha: over 0 < t < T,

    (int_0^T (eta*t)**(-a*g) dt)**(1/a) = eta**(-g) * (T**(a*alpha)/(a*alpha))**(1/a),

since 1 - a*g = a*alpha.  Its factor eta**(-g) is 1 at eta = 1 and grows
as eta -> 0, where the data meet little damping.

Mixed space-time Lebesgue norms are computed by one quadrature, mixed_norm,
on the magnitudes of a flow at a grid of times (trapezoid in time, grid
quadrature in space, in the stated nesting order), and verify_* routines
measure bound ratios over seeded random ensembles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import symbols
from .errors import BoundError, ExponentError, NumericalError
from .fields import sample_ensemble
from .grid import SpectralGrid, WeightSpec, l2_norm

INF = math.inf

# Row blocks: Picard's advection sweep, the trajectory diagnostics and the
# ensemble checks walk their (rows, modes) arrays a block of rows at a time,
# so that their buffers stay block-sized whatever the number of time nodes.
# A block holds about 2**14 node values (128 KiB of doubles), between 4 and
# ROW_BLOCK rows (_block_rows): 16 rows up to n = 1024, 8 at 2048 and 4 from
# 4096.  Fewer rows add per-block work for little memory: 2-row blocks take
# Picard's peak at n = 16384, nt = 128 from 19.5 to 18.7 MiB only.  The
# heights are even, as n is a power of two, which the sweep's node pairs
# need; no row's arithmetic depends on them.
ROW_BLOCK = 16


def _block_rows(n: int) -> int:
    """Rows per block of fields on n nodes: min(ROW_BLOCK, max(4, 2**14 // n))."""
    return min(ROW_BLOCK, max(4, 2**14 // n))


def _row_blocks(rows: int, n: int) -> list[slice]:
    """Consecutive blocks of _block_rows(n) of rows 0..rows-1, the last partial."""
    height = _block_rows(n)
    return [slice(b, min(b + height, rows)) for b in range(0, rows, height)]


def conjugate_exponent(a: float) -> float:
    """a1 with 1/a + 1/a1 = 1 (a=1 -> inf, a=inf -> 1)."""
    if a == INF:
        return 1.0
    if a <= 1:
        if a == 1:
            return INF
        raise ValueError(f"exponent must be >= 1, got {a}")
    return a / (a - 1.0)


def alpha(a: float, b: float, s: float, p: float) -> float:
    """Smoothing exponent 1/a - s/p - (1/p)(1/a1 - 1/b); 1/inf is 0."""
    if a < 1 or b < 1:
        raise ValueError(f"Lebesgue exponents must be >= 1, got a={a}, b={b}")
    inv_a = 0.0 if a == INF else 1.0 / a
    inv_a1 = 1.0 - inv_a
    inv_b = 0.0 if b == INF else 1.0 / b
    return inv_a - s / p - (inv_a1 - inv_b) / p


def smoothing_A(a: float, b: float, s: float, phi: symbols.PhaseFunction,
                T: float) -> float:
    """Bound constant exp(eta*T)*T^(1/a) + eta^(-g) * (a*alpha)^(-1/a) * T^alpha.

    g = 1/a - alpha = (s + 1/a1 - 1/b)/p is the exponent of the kernel bound
    ||D^s exp(-eta*t*|D|^p)||_{L^a1 -> L^b} <= (eta*t)^(-g), and the second
    term is that bound's L^a norm over 0 < t < T:

        (int_0^T (eta*t)^(-a*g) dt)^(1/a) = eta^(-g) * T^(1/a - g) / (1 - a*g)^(1/a)
                                          = eta^(-g) * (a*alpha)^(-1/a) * T^alpha.

    At eta = 1 the factor eta^(-g) is exactly 1.  ValueError when s < 0, or
    when alpha <= 0 and the constant is infinite; inf when exp(eta*T) or
    eta^(-g) overflows.
    """
    if s < 0:
        raise ValueError(f"derivative gain s must be >= 0, got {s}")
    al = alpha(a, b, s, phi.p)
    if al <= 0:
        raise ValueError(f"alpha(a={a}, b={b}, s={s}) = {al:g} <= 0 "
                         f"for p={phi.p}; the bound constant is infinite")
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, got {T}")
    inv_a = 0.0 if a == INF else 1.0 / a
    try:
        growth = math.exp(phi.eta * T)
        damping = phi.eta ** -(inv_a - al)
    except OverflowError:  # eta*T past the largest exponent, or eta near 0
        return INF
    return growth * T**inv_a + damping * (a * al) ** (-inv_a) * T**al


def _bound_constant(a: float, b: float, s: float, phi: symbols.PhaseFunction,
                    T: float) -> float:
    """smoothing_A as the right-hand constant of a ratio: BoundError unless it
    is finite and positive, since every ratio against it would be vacuous."""
    const = smoothing_A(a, b, s, phi, T)
    if not 0.0 < const < INF:  # exp(eta*T) overflows: every ratio would be 0
        raise BoundError(f"the bound constant A{(a, b, s)}(T) = {const!r} at "
                         f"eta={phi.eta!r}, T={T!r} is not finite and positive, "
                         f"so every ratio against it would be vacuous")
    return const


def lambda_constants(phi: symbols.PhaseFunction, T: float,
                     s: float = 0.0) -> dict[str, float]:
    """The bound constants of lambda2, lambda3 and lambda6 at horizon T.

    A(2,4,0), A(2,4,s) and A(2,inf,1), each where its alpha > 0.  They
    depend on phi, T and s alone, so Picard takes them before any work, as
    its guard; one that is not finite and positive raises BoundError.
    """
    bounds = {"lambda2": (2.0, 4.0, 0.0), "lambda3": (2.0, 4.0, s),
              "lambda6": (2.0, INF, 1.0)}
    return {name: _bound_constant(*bound, phi, T)
            for name, bound in bounds.items() if alpha(*bound, phi.p) > 0}


def A2(phi: symbols.PhaseFunction, T: float) -> float:
    """Constant for the plain L2_T L4_x bound (a=2, b=4, s=0)."""
    return smoothing_A(2.0, 4.0, 0.0, phi, T)


def A3(phi: symbols.PhaseFunction, s: float, T: float) -> float:
    """Constant for the s-derivative L2_T L4_x bound (a=2, b=4)."""
    return smoothing_A(2.0, 4.0, s, phi, T)


# --- norms on fields and trajectories --------------------------------------


def _hs_powers(grid: SpectralGrid, weight: np.ndarray, power: np.ndarray):
    """The norms ||m(xi) u||_{L2} of the rows of (rows, kept modes) spectra.

    Returns norms(coeffs, out), which writes sqrt(L * sum |m u|^2) of each
    row of coeffs, a block of rows, into out, unchecked: weight holds m on
    the kept modes.  The powers are formed in power, a caller's buffer of
    (at least a block of) rows of N doubles, whose rows need not be
    adjacent.  A row of N entries is an FFT-order spectrum; a row of N/2+1
    entries is the half spectrum (modes 0..N/2) of a real field, whose
    modes 1..N/2-1 stand for their conjugates too and count twice: the
    weighted power of the half row is mirrored into the places of the
    conjugates, so that each row sums the power of its FFT-order spectrum
    in the same order and to the same bit.  norms also takes the band of
    such rows, the kept row without its SpectralGrid.dealias_tail, as
    Picard's steps are: the modes above the band are zero in the buffer, so
    the sum is that of the kept row whose tail is zero, to the bit.
    """
    n, keep = grid.n, len(weight)
    tail = grid.dealias_tail(keep < n)

    def norms(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        summed = power[: len(coeffs)]
        half = summed[:, :keep]
        if coeffs.shape[-1] == keep:
            np.abs(coeffs, out=half)
        else:  # the band: each piece into its place, and zeros above it
            head = tail.start
            np.abs(coeffs[:, :head], out=half[:, :head])
            np.abs(coeffs[:, head:], out=half[:, tail.stop:])
            half[:, tail] = 0.0
        half *= weight
        half *= half
        if keep < n:  # row by row, where source and target do not overlap
            for row in summed:
                row[keep:] = row[n // 2 - 1:0:-1]
        np.sum(summed, axis=1, out=out)
        out *= grid.length
        return np.sqrt(out, out=out)

    return norms


def multiplier_norm(grid: SpectralGrid, coeffs: np.ndarray,
                    weight: np.ndarray) -> np.ndarray:
    """||m(xi) u||_{L2} of each row of (rows, kept modes) spectra, unchecked,
    weight holding m on the kept modes (_hs_powers): the rows are walked in
    blocks of _block_rows(N), each summed in one buffer of that many rows."""
    power = np.empty((min(_block_rows(grid.n), len(coeffs)), grid.n))
    norms = _hs_powers(grid, weight, power)
    out = np.empty(len(coeffs))
    for rows in _row_blocks(len(coeffs), grid.n):
        norms(coeffs[rows], out[rows])
    return out


def _hs_weight(grid: SpectralGrid, keep: int, s: float) -> np.ndarray:
    """The Sobolev weight (1+xi^2)^(s/2) on the first keep modes."""
    return (1.0 + grid.xi[:keep] ** 2) ** (s / 2.0)


def _finite_hs(norms: np.ndarray, s: float) -> np.ndarray:
    """norms, H^s norms at s; NumericalError unless every one is finite."""
    if not np.isfinite(norms).all():  # np.max shows a NaN before an inf
        raise NumericalError(f"H^s norm at s={s!r} is not finite "
                             f"({float(np.max(norms))!r})")
    return norms


def hs_norm(grid: SpectralGrid, coeffs: np.ndarray, s: float = 0.0) -> np.ndarray:
    """Sobolev norm ||(1+xi^2)^(s/2) u||_{L2} of each row of (rows, kept
    modes) spectra (multiplier_norm); NumericalError if one is not finite."""
    weight = _hs_weight(grid, coeffs.shape[-1], s)
    return _finite_hs(multiplier_norm(grid, coeffs, weight), s)


def _node_norms(grid: SpectralGrid, coeffs: np.ndarray, norm) -> np.ndarray:
    """norm(vals) of each row of (rows, kept modes) spectra: norm maps a block
    of |values| at the nodes (a _block_reader's, irfft of half rows) to one
    norm per row."""
    kept = coeffs.shape[-1]
    out = np.empty(len(coeffs))
    read = _block_reader(grid.n, kept < grid.n, len(coeffs), kept)
    for rows, vals in zip(_row_blocks(len(coeffs), grid.n), read(coeffs)):
        out[rows] = norm(vals)
    return out


def lp_norm(grid: SpectralGrid, coeffs: np.ndarray, p: float) -> np.ndarray:
    """L^p norm at the nodes, with quadrature weight L/N, of each row of
    (rows, kept modes) spectra (_node_norms); p=inf is the grid max."""
    if p < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
    return _node_norms(grid, coeffs, lambda vals: _pnorm(vals, grid.dx, p, 1, vals))


def weighted_norm(grid: SpectralGrid, coeffs: np.ndarray, w: WeightSpec,
                  wv=None) -> np.ndarray:
    """||w(x) * u||_{L2} at the nodes of each row of (rows, kept modes)
    spectra (_node_norms); NumericalError if one is not finite.  wv, if
    given, holds w's values on grid."""
    wv = w.values(grid) if wv is None else wv
    out = _node_norms(grid, coeffs, lambda vals: np.sqrt(
        np.sum((wv * vals) ** 2, axis=1) * grid.dx))
    if not np.isfinite(out).all():
        raise NumericalError(f"{w.label}-weighted norm is not finite "
                             f"({float(np.max(out))!r})")
    return out


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if len(t) < 2:
        raise ValueError("a trajectory norm needs at least two time samples")
    d = np.diff(t)
    if np.any(d <= 0):
        raise ValueError("trajectory times must be strictly increasing")
    w = np.zeros(len(t))
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _power(vals: np.ndarray, weights, p: float, out=None) -> np.ndarray:
    """weights * vals**p, into out (which may be vals) or a new array."""
    if p == 4.0:  # two products: within 2 ulp of pow(), at a fraction of its cost
        power = np.multiply(vals, vals, out=out)
        power *= power
    else:
        power = np.power(vals, p, out=out)
    power *= weights
    return power


def _pnorm(vals: np.ndarray, weights, p: float, axis=None, out=None):
    if p == INF:
        return np.maximum.reduce(vals, axis=axis)
    return np.add.reduce(_power(vals, weights, p, out), axis=axis) ** (1.0 / p)


def _in_range(norms, peaks, p: float, name: str):
    """norms, L^p norms of magnitudes whose maxima peaks() gives, entry for
    entry: ExponentError naming `name` when a norm of finite magnitudes, not
    all zero, has rounded to 0 or overflowed."""
    if p == INF or (np.minimum.reduce(norms, axis=None) > 0
                    and np.maximum.reduce(norms, axis=None) < INF):
        return norms  # a maximum is exact, and no norm is 0 or inf
    peak = peaks()
    finite = (peak > 0) & (peak < INF)
    for lost, way in ((0.0, "rounds to 0"), (INF, "overflows")):
        if np.any(finite & (norms == lost)):
            raise ExponentError(name, f"the L^{p!r} norm of finite magnitudes, "
                                      f"not all zero, {way}")
    return norms


def _magnitudes(c: np.ndarray, n: int, real: bool, out: np.ndarray) -> np.ndarray:
    """|values| at the n nodes of the spectra along c's last axis, into out:
    irfft of the half spectra (modes 0..n/2) of a real field, or ifft, in
    place in c, of the FFT-order spectra of a complex one; both unnormalised."""
    if real:
        vals = np.fft.irfft(c, n, axis=-1, norm="forward", out=out)
        return np.abs(vals, out=vals)
    return np.abs(np.fft.ifft(c, n, axis=-1, norm="forward", out=c), out=out)


def _block_reader(n: int, real: bool, rows: int, modes: int):
    """Returns read(spectra, multiplier=None, gain=None), which yields the
    |values| at the n nodes of (rows, modes) spectra * multiplier (* gain),
    _block_rows(n) rows at a time: each block's product, gained in place,
    in one buffer and its transform (_magnitudes) in another; no
    multiplier, the spectra as they are.  Either factor may be one row that
    all blocks share.  The buffers, made once, serve every read: each block
    must be read before the next is drawn, and may then be overwritten, as
    mixed_norm does."""
    spectrum = np.empty((min(_block_rows(n), rows), modes), dtype=complex)
    magnitude = np.empty((len(spectrum), n))
    blocks = [(b, spectrum[: b.stop - b.start], magnitude[: b.stop - b.start])
              for b in _row_blocks(rows, n)]

    def read(spectra: np.ndarray, multiplier=None, gain=None):
        for block, buffer, out in blocks:
            c = spectra[block] if spectra.ndim == 2 else spectra
            m = multiplier[block] if np.ndim(multiplier) == 2 else multiplier
            if m is not None:
                # operand order matters: complex products are not bitwise commutative
                vals = np.multiply(c, m, out=buffer)
                if gain is not None:
                    vals *= gain
            elif real:  # irfft leaves its input as it is
                vals = c
            else:  # the complex transform runs in place: not in the caller's spectra
                vals = buffer
                vals[...] = c
            yield _magnitudes(vals, n, real, out=out)

    return read


def mixed_norm(V, tw: np.ndarray, dx: float, outer: float, inner: float,
               order: str = "t_outer_x_inner") -> float:
    """Mixed space-time norm of (times, nodes) magnitudes V.

    V is one array, or an iterable of arrays that are its consecutive row
    blocks; each block is read once, before the next is drawn, so that the
    blocks may share one buffer, and is then scratch: its powers are formed
    over it, after its peaks are taken.  One array is left as it is.  tw
    holds the trapezoid weights of the times (_trapezoid_weights) and dx
    the grid's quadrature weight.
    order='t_outer_x_inner' computes
    (int_0^T (int |u|^inner dx)^(outer/inner) dt)^(1/outer);
    'x_outer_t_inner' nests the other way around.  inf exponents take the
    maxima.  The value does not depend on the blocks: each row's space norm
    is its own, and the time sums of 'x_outer_t_inner' run on in row order,
    as a sum over the whole array's first axis does.

    ExponentError, naming 'inner' or 'outer', when a norm of finite
    magnitudes, not all zero, rounds to 0 or overflows at its exponent.
    Its two streaming callers draw V from a _block_reader: verify_smoothing
    one flow of each sample, lambda_diagnostics each map of an iterate.
    """
    if order not in ("t_outer_x_inner", "x_outer_t_inner"):
        raise ValueError(f"unknown nesting order {order!r}")
    blocks = [V] if isinstance(V, np.ndarray) else V
    scratch = blocks is V  # the blocks of an iterable take their own powers
    start = 0
    if order == "t_outer_x_inner":
        per_row = np.empty(len(tw))
        for block in blocks:
            rows = slice(start, start + len(block))
            top = block.max(axis=1)  # the range check reads magnitudes
            per_row[rows] = top if inner == INF else _in_range(
                _pnorm(block, dx, inner, 1, block if scratch else None),
                lambda: top, inner, "inner")
            start = rows.stop
        weights = tw
    else:
        peak = sums = None
        for block in blocks:
            rows = slice(start, start + len(block))
            top = block.max(axis=0)
            peak = top if peak is None else np.maximum(peak, top, out=peak)
            if inner != INF:
                power = _power(block, tw[rows, None], inner,
                               block if scratch else None)
                if sums is not None:  # the sums run on in row order
                    power[0] += sums
                sums = power.sum(axis=0, out=sums)
            start = rows.stop
        per_row = peak if inner == INF else _in_range(
            sums ** (1.0 / inner), lambda: peak, inner, "inner")
        weights = dx
    if start != len(tw):
        raise ValueError(f"magnitudes at {start} times, weights at {len(tw)}")
    norm = _in_range(_pnorm(per_row, weights, outer), per_row.max, outer, "outer")
    return float(norm)


def lambda_diagnostics(grid: SpectralGrid, phi: symbols.PhaseFunction,
                       times: np.ndarray, coeffs: np.ndarray,
                       s: float = 0.0) -> dict[str, float]:
    """The layered trajectory diagnostics lambda1..lambda6 (those defined).

    lambda1  sup-in-time H^s norm, the largest row of hs_norm
    lambda2  A2(T)^-1 ||u||_{L2_T L4_x}              (needs alpha(2,4,0) > 0)
    lambda3  A3(T)^-1 ||D^s u||_{L2_T L4_x}          (needs alpha(2,4,s) > 0)
    lambda4  ||D^s du/dx||_{L2_T L4_x}               (deliberately unnormalized)
    lambda5  ||du/dx||_{L2_T L4_x}                   (deliberately unnormalized)
    lambda6  A(2,inf,1)(T)^-1 ||du/dx||_{L2_T Linf_x} (needs alpha(2,inf,1) > 0)

    Aggregate: Lambda = lambda1+..+lambda5, reported when lambda3 is defined.

    Row k of coeffs is the field at times[k]: the half spectrum (modes
    0..N/2) of a real field, as hs_norm reads it, or the FFT-order
    spectrum of a complex one.  lambda2..lambda6 are mixed_norms, each map
    (u, du/dx, and at s > 0 their D^s) read once through one _block_reader;
    lambda6's per-row sups are noted in the pass over du/dx.  A lambda that
    mixed_norm refuses raises NumericalError naming it.  The constants of
    lambda2, lambda3 and lambda6 depend on phi, T and s alone
    (lambda_constants); one that is not finite and positive raises
    BoundError before any norm is taken.
    Weighted norms are not among them: simulate's weights.list writes those
    per snapshot.
    """
    if s < 0:
        raise ValueError(f"fractional derivative order must be >= 0, got {s}")
    T = float(times[-1])
    if T <= 0:
        raise ValueError("trajectory horizon must be positive")

    consts = lambda_constants(phi, T, s)
    tw = _trapezoid_weights(times)
    kept = coeffs.shape[-1]
    lambda1 = float(np.max(hs_norm(grid, coeffs, s)))
    gain = np.abs(grid.xi[:kept]) ** s if s else None
    ddx = 1j * grid.xi_odd[:kept]
    sups = np.empty(len(coeffs))
    read = _block_reader(grid.n, kept < grid.n, len(coeffs), kept)

    def l2_t(name, V, inner=4.0):
        # mixed_norm's L2_T L^inner_x, refused under the name of its lambda
        try:
            return mixed_norm(V, tw, grid.dx, 2.0, inner)
        except ExponentError as exc:
            raise NumericalError(f"{name}: {exc.detail}") from None

    def noting_sups(blocks):
        # each row's sup of |du/dx| goes to sups as its block passes
        for block, vals in zip(_row_blocks(len(sups), grid.n), blocks):
            np.maximum.reduce(vals, axis=1, out=sups[block])
            yield vals

    plain = l2_t("lambda2", read(coeffs))
    out: dict[str, float] = {"lambda1": lambda1}
    if "lambda2" in consts:  # implied by lambda3's
        out["lambda2"] = plain / consts["lambda2"]
    if "lambda3" in consts:
        gained = plain if gain is None else l2_t("lambda3", read(coeffs, gain))
        out["lambda3"] = gained / consts["lambda3"]
    lambda5 = l2_t("lambda5", noting_sups(read(coeffs, ddx)))
    out["lambda4"] = lambda5 if gain is None else l2_t("lambda4", read(coeffs, gain * ddx))
    out["lambda5"] = lambda5
    if "lambda6" in consts:
        out["lambda6"] = l2_t("lambda6", sups[:, None], INF) / consts["lambda6"]
    if "lambda3" in out:
        out["Lambda"] = sum(out[k] for k in
                            ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5"))
    return out


# --- ensemble verification of the linear-flow bounds ------------------------

SMOOTHING_CHECKS = ("C1", "C2", "C3", "C4", "P_inf")


class NormEnsembleReport(NamedTuple):
    """Bound ratios LHS/RHS over a seeded ensemble; the RHS constant is 1."""

    check: str
    sample_count: int
    ratios: np.ndarray
    max_ratio: float


def verify_smoothing(check: str, phi: symbols.PhaseFunction, *,
                     grid: SpectralGrid | None = None, T: float = 1.0,
                     size: int = 100, seed: int = 2024, nt: int = 48,
                     s: float = 0.0, a: float = 2.0, b: float = 4.0,
                     q: float = 1.0) -> NormEnsembleReport:
    """Measure one linear-flow bound over a seeded random ensemble.

    check selects the inequality:
      C1     ||D^s V u0||_{La_T Linf_x}  vs  A(a,inf,s)(T) ||u0||_{La1_x}
      C2     ||D^s V u0||_{L2_T Lb_x}    vs  A(2,b,s)(T)   ||u0||_{L2}
      C3     ||D^1 V u0||_{L2_T Lb_x}    vs  A(2,b,1-s)(T) ||D^s u0||_{L2}
      C4     ||D^s V u0||_{L2_T L2_x}    vs  A(2,2,s)(T)   ||u0||_{L2}
      P_inf  ||D^q V u0||_{Linf_x L2_T}  vs  ||u0||_{L2}   (fitted constant)

    Parameters outside an inequality's hypothesis range raise ValueError;
    a ratio that is not finite raises NumericalError, and an exponent a or
    b at which a norm of finite, nonzero magnitudes rounds to 0 or
    overflows raises ExponentError naming it, since its ratios would be
    vacuous; so would those against a bound constant that is not finite and
    positive, which raises BoundError.  Ratios use constant 1 on the right,
    so the fitted constant is simply the ensemble maximum, max_ratio.

    The flow multipliers at the nt+1 times form one (times, modes) table,
    half spectra only for a real flow (phi.is_even), and the table is the
    state.  Samples are drawn lazily, and each sample's flow is streamed to
    mixed_norm through one _block_reader, so memory is flat in size and in
    nt beyond the table.  The ratios are bitwise those of the whole
    (nt+1, n) array.
    """
    if check not in SMOOTHING_CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {SMOOTHING_CHECKS}")
    if grid is None:
        grid = SpectralGrid(256, 40.0)
    if T <= 0:
        raise ValueError("T must be positive")

    p = phi.p
    real = phi.is_even  # mixtures are real, and |xi|^s keeps real fields real
    keep = grid.kept_modes(real)
    if check == "C1" and a < 2:
        raise ValueError(f"C1 requires a >= 2, got a={a}")
    if check in ("C2", "C3") and b < 2:
        raise ValueError(f"{check} requires b >= 2, got b={b}")
    if check == "C3" and not 0 <= s <= 1:
        raise ValueError(f"C3 requires 0 <= s <= 1, got s={s}")
    if check == "P_inf" and q < 0:
        raise ValueError(f"P_inf requires q >= 0, got q={q}")
    if check == "P_inf" and not p > 2 * q:
        raise ValueError(f"P_inf requires p > 2q, got p={p}, q={q}")
    # Per check: outer and inner exponents, nesting and derivative order of
    # the left-hand mixed norm; the (a, b, s) of the bound constant (None for
    # the fitted constant 1); the right-hand norm of u0; the parameter that
    # holds each exponent that is not fixed.
    tx, xt = "t_outer_x_inner", "x_outer_t_inner"
    outer, inner, order, gain_order, bound, rhs_norm, names = {
        "C1": (a, INF, tx, s, (a, INF, s), lambda u0: lp_norm(
            grid, u0.coeffs[None, :keep], conjugate_exponent(a))[0], {"outer": "a"}),
        "C2": (2.0, b, tx, s, (2.0, b, s), l2_norm, {"inner": "b"}),
        "C3": (2.0, b, tx, 1.0, (2.0, b, 1.0 - s), lambda u0: multiplier_norm(
            grid, u0.coeffs[None, :keep], np.abs(grid.xi[:keep]) ** s)[0], {"inner": "b"}),
        "C4": (2.0, 2.0, tx, s, (2.0, 2.0, s), l2_norm, {}),
        "P_inf": (INF, 2.0, xt, q, None, l2_norm, {}),
    }[check]
    # smoothing_A validates alpha > 0
    const = 1.0 if bound is None else _bound_constant(*bound, phi, T)
    times = np.linspace(0.0, T, nt + 1)
    tw = _trapezoid_weights(times)
    flow = symbols.flow_multiplier(phi, times, grid, real)
    gain = (np.abs(grid.xi[:keep]) ** gain_order).astype(complex) if gain_order else None
    read = _block_reader(grid.n, real, nt + 1, keep)

    ratios = np.empty(size)
    for i, u0 in enumerate(sample_ensemble(grid, size, seed)):
        try:
            lhs = mixed_norm(read(u0.coeffs[:keep], flow, gain), tw, grid.dx,
                             outer, inner, order)
        except ExponentError as exc:  # the side's exponent is fixed unless named
            if exc.name not in names:
                raise NumericalError(exc.detail) from exc
            raise ExponentError(names[exc.name], exc.detail) from exc
        r = const * rhs_norm(u0)
        ratios[i] = lhs / r if r else 0.0

    if not np.all(np.isfinite(ratios)):
        raise NumericalError("non-finite bound ratio in ensemble")
    mx = float(np.max(ratios)) if len(ratios) else 0.0
    return NormEnsembleReport(check, size, ratios, mx)
