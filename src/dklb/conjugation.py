"""Exponential-weight conjugation of the flow and weighted persistence checks.

For symbols that are polynomials in i*xi (even integer leading power, even
absolute powers), multiplying by exp(b*x) conjugates the linear flow into
another explicit multiplier (Kato's weight trick): if w(0) = exp(b*x) f then

    w(t) = exp(-t * S(i*xi - b)) w(0),

where S is the operator polynomial with S(i*xi) = -i*xi^3 - eta*Phi(xi).
Every conjugation constant comes from S alone.  Expanding about xi = 0,
S(i*xi - b) = S(-b) + i*xi*S'(-b) + O(xi^2): the xi-independent decay rate
is delta = Re S(-b), and the weighted field is transported by mu*t with
mu = Re S'(-b).  For an even symbol S has real coefficients; for a complex
S (odd signed powers, optimality:k) delta and mu are these real parts, and
Im S'(-b) adds a damping or growth linear in xi instead of a transport.
This module computes the conjugated propagator, checks the commutation
identity on actual fields, and measures the weighted persistence and
smoothing-versus-decay trade of the linear flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbols
from ._seam import dd_field_values, dd_semigroup_multiplier, seam_indices
from .errors import LeakageError, NumericalError
from .fields import mollified_cusp, sample_ensemble
from .grid import (
    SpectralField,
    SpectralGrid,
    WeightSpec,
    apply_multiplier,
    boundary_leakage,
    fractional_D,
    from_values,
    l2_norm,
    to_values,
)
from .norms import hs_norm, weighted_norm


def operator_polynomial(phi: symbols.PhaseFunction) -> np.ndarray:
    """Coefficients (ascending) of S with S(i*xi) = (i*xi)^3 - eta*Phi(xi).

    Exists only for symbols polynomial in i*xi: p an even integer and every
    correction term with an even integer absolute power n.  Odd signed
    powers m give genuinely complex coefficients (a complex operator).
    """
    p = phi.p
    if int(p) != p or int(p) % 2:
        raise ValueError(f"leading power p={p} is not an even integer; "
                         "the symbol is not a differential-operator polynomial")
    deg = max(3, int(p))
    coeffs = np.zeros(deg + 1, dtype=complex)
    coeffs[3] += 1.0
    # -eta*Phi(xi) = eta*(xi^p - sum c_i xi^(m_i + n_i)); xi^k = (-i)^k z^k
    coeffs[int(p)] += phi.eta * (-1j) ** int(p)
    for t in phi.terms:
        if int(t.n) != t.n or int(t.n) % 2:
            raise ValueError(
                f"correction term |xi|^{t.n} is not an even integer power; "
                "the symbol is not a differential-operator polynomial"
            )
        k = int(t.m + t.n)
        coeffs[k] -= phi.eta * t.coeff * (-1j) ** k
    return coeffs


def shifted_multiplier(phi: symbols.PhaseFunction, b: float, t: float, xi
                       ) -> np.ndarray:
    """exp(-t * S(i*xi - b)) by direct complex polynomial evaluation."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    coeffs = operator_polynomial(phi)
    z = 1j * np.asarray(xi, dtype=float) - b
    Sz = np.polynomial.polynomial.polyval(z, coeffs)
    return np.exp(-t * Sz)


@dataclass
class ConjugationResult:
    """Outcome of one weight-then-flow versus flow-then-weight comparison."""

    rel_error: float
    bound_ratio: float
    boundary_leakage: float
    delta: float
    mu: float


def conjugation_check(f: SpectralField, phi: symbols.PhaseFunction, b: float,
                      t_values, max_leakage: float = 1e-8
                      ) -> list[ConjugationResult]:
    """Compare exp(b*x) * V(t) f against the conjugated propagator on exp(b*x) f.

    One ConjugationResult per time in t_values, in order.  phi may be any
    symbol that operator_polynomial accepts; any other raises its
    ValueError.  delta = Re S(-b) and mu = Re S'(-b) come from the operator
    polynomial S (the real parts, when S is complex).

    The identity is exact on the line; on the periodic grid it holds to
    rounding only while the weighted field stays away from the boundary, so
    the check refuses (LeakageError) when either weighted field puts more
    than max_leakage of its mass in the outer 5% of the domain, or when a
    leakage is not finite, whatever max_leakage is.  A rel_error that is not
    finite raises NumericalError.  Times are checked in order, and the first
    that fails raises.

    Node values of f and V(t) f under the seam (where exp(b*x) amplifies by
    more than e^5) are recomputed in double-double, because an inverse FFT
    only delivers them to 1e-16 * max|u| and the weight turns that absolute
    rounding floor into the dominant error of the whole comparison.  Each
    strip keeps the realness of its own field: V(t) f is real only when f is
    and phi is even, and a real field's strip (with its multiplier) is
    evaluated from its half spectrum, modes 0..n/2.  Everything that depends
    on b alone (the weighted f, its double-double strip, its leakage and
    norm, delta and mu) is computed once; the flow and its double-double
    multiplier are one table over t_values, and each time then costs one
    double-double transform, which runs its (re, im) words stacked, takes no
    product on its first level (twiddle 1) and lifts and packs only the live
    band, the modes up to the last where the spectrum is nonzero.

    bound_ratio measures ||exp(b*x) V(t) f|| against
    exp(-t*delta) * (1 + e^t) * ||exp(b*x) f||, the persistence bound shape
    with constant 1 and delta = Re S(-b).  Its two exponentials are taken as
    one, so the ratio stays representable past t ~ 709.8; where the bound
    itself overflows a double the ratio reads 0.0.
    """
    S = np.polynomial.Polynomial(operator_polynomial(phi))
    grid = f.grid
    wv = WeightSpec("exp", b).values(grid)
    idx = seam_indices(grid, b)
    g = _weighted(f, f.coeffs, f.is_real, idx, wv)
    g_leak = boundary_leakage(g)
    ng = l2_norm(g)
    delta = float(S(-b).real)
    mu = float(S.deriv()(-b).real)
    t_values = tuple(float(t) for t in t_values)
    table = symbols.flow_multiplier(phi, t_values, grid)
    real = f.is_real and phi.is_even
    mults = [None] * len(t_values)
    if idx.size:
        mults = dd_semigroup_multiplier(S.coef, t_values, grid, real)

    def cell(t: float, a_side: SpectralField) -> ConjugationResult:
        leaks = (g_leak, boundary_leakage(a_side))
        if not all(map(math.isfinite, leaks)):
            raise LeakageError(
                f"weighted field leakage is {leaks[0]} and {leaks[1]}; the "
                "weighted values are not finite"
            )
        leakage = max(leaks)
        if leakage > max_leakage:
            raise LeakageError(
                f"weighted field leans on the boundary (leakage {leakage:.3e} > "
                f"{max_leakage:.3e}); widen the domain or recentre the data"
            )
        # not Hermitian: the Nyquist entry exp(-t*S(i*xi_N - b)) is complex
        b_side = apply_multiplier(g, shifted_multiplier(phi, b, t, grid.xi), False)
        na = l2_norm(a_side)
        rel = l2_norm(a_side - b_side) / na if na else 0.0
        if not math.isfinite(rel):
            raise NumericalError(f"conjugation rel_error is {rel} at b={b:g}, t={t:g}")
        # exp(-t*delta) * (1 + e^t) as one exponent
        denom = float(np.exp(t * (1.0 - delta) + math.log1p(math.exp(-t)))) * ng
        ratio = na / denom if denom else 0.0
        return ConjugationResult(rel, ratio, leakage, delta, mu)

    # a cell's fields die with it, so one time's fields are not held through
    # the next time's double-double transform; f first, as in apply_multiplier:
    # complex products do not commute bitwise
    return [cell(t, _weighted(f, f.coeffs * row, real, idx, wv, mult))
            for t, row, mult in zip(t_values, table, mults)]


def _weighted(f: SpectralField, coeffs: np.ndarray, real: bool, idx: np.ndarray,
              wv: np.ndarray, mult=None) -> SpectralField:
    # wv times the field with spectrum coeffs, which is f's spectrum times the
    # flow whose double-double multiplier is mult (f's own without one); the
    # node values at idx are recomputed from f.coeffs and mult in double-double,
    # from the half spectrum when the field is real
    vals = to_values(SpectralField(f.grid, coeffs, real))
    if idx.size:
        keep = slice(f.grid.n // 2 + 1 if real else None)
        vals[idx] = dd_field_values(f.coeffs[keep], f.grid, idx, mult)
    return from_values(f.grid, vals * wv)


# --- polynomial-weight persistence -------------------------------------------


def weight_exchange_check(u0: SpectralField, phi: symbols.PhaseFunction,
                          r: float, s: float, t: float) -> float:
    """Ratio of ||x|^r V(t) u0|| to (1+t)*||u0||_{H^s} + ||x|^r u0||.

    The persistence mechanism trades K = p - 1 derivatives per power of
    decay, so r may not exceed s/(p-1); violating that is a usage error.
    Returns 0 for zero data.
    """
    w = _persistence_weight(phi, r, s)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    table = symbols.flow_multiplier(phi, (t,), u0.grid)
    return float(_persistence_ratios(u0, phi, w, w.values(u0.grid), s, (t,), table)[0])


def _persistence_weight(phi: symbols.PhaseFunction, r: float, s: float) -> WeightSpec:
    # |x|^r, once r and s meet the persistence hypotheses
    if r < 0 or s < 0:
        raise ValueError(f"r and s must be nonnegative, got r={r}, s={s}")
    K = phi.p - 1.0
    if r > s / K + 1e-12:
        raise ValueError(
            f"decay order r={r} exceeds s/(p-1) = {s / K:g}; the persistence "
            "mechanism cannot pay for that much weight"
        )
    return WeightSpec("poly", r)


def _persistence_ratios(u0: SpectralField, phi: symbols.PhaseFunction, w: WeightSpec,
                        wv: np.ndarray, s: float, t_values, table) -> np.ndarray:
    # ||w V(t)u0|| / ((1+t)||u0||_{H^s} + ||w u0||) per t, row k of table being
    # the flow multiplier at t_values[k]; 0 where the denominator vanishes (zero data)
    real = u0.is_real and phi.is_even
    # u0 first, as in apply_multiplier: complex products do not commute bitwise
    moved = np.array([weighted_norm(SpectralField(u0.grid, c, real), w, wv)
                      for c in u0.coeffs * table])
    denom = (1.0 + np.asarray(t_values)) * hs_norm(u0, s) + weighted_norm(u0, w, wv)
    return np.divide(moved, denom, out=np.zeros_like(denom), where=denom != 0.0)


@dataclass
class ExchangeReport:
    """Weighted-persistence ratios over a seeded ensemble and a time grid."""

    ratios: np.ndarray  # shape (samples, len(t_values))
    max_ratio: float


def exchange_ensemble(phi: symbols.PhaseFunction, r: float, s: float,
                      t_values, size: int = 50, seed: int = 2024,
                      grid: SpectralGrid | None = None) -> ExchangeReport:
    """weight_exchange_check over a random ensemble, drawn lazily, with one
    flow table over t_values; NumericalError unless every ratio is finite."""
    if grid is None:
        grid = SpectralGrid(256, 40.0)
    w = _persistence_weight(phi, r, s)
    t_values = tuple(float(t) for t in t_values)
    table, wv = symbols.flow_multiplier(phi, t_values, grid), w.values(grid)
    ratios = np.empty((size, len(t_values)))
    for i, u0 in enumerate(sample_ensemble(grid, size, seed)):
        ratios[i] = _persistence_ratios(u0, phi, w, wv, s, t_values, table)
    if not np.all(np.isfinite(ratios)):
        raise NumericalError("non-finite persistence ratio in ensemble")
    return ExchangeReport(ratios, float(np.max(ratios)) if ratios.size else 0.0)


# --- smoothing-versus-decay probe --------------------------------------------


@dataclass
class ProbeReport:
    """Derivative-norm growth of rough, decaying data under one linear flow."""

    rows: list[dict]          # sigma, t, norm, mult_bound
    fitted_rates: dict        # sigma -> least-squares slope of log norm vs log t
    over_envelope: list[dict]  # the rows whose norm exceeds its envelope


def regularity_gain_probe(phi: symbols.PhaseFunction, sigmas, t_values, *,
                          grid: SpectralGrid | None = None, gamma: float = 0.5,
                          h: float = 0.05) -> ProbeReport:
    """Tabulate ||D^sigma V(t) u0|| for mollified-cusp data under the flow of phi.

    The data decays like |x|^(gamma-2), as mollified_cusp builds it.
    Also records the spectral envelope mult_bound = sup |xi|^sigma *
    exp(eta*t*Phi), and per-sigma fitted decay rates of the norm in t.  A
    norm or an envelope that is not finite raises NumericalError.

    By Parseval, norm <= mult_bound * ||u0|| with ||u0|| = 1, so a computed
    norm exceeds its envelope only by rounding.  A row whose norm exceeds
    mult_bound * (1 + eps*(n + 16R + 16)) is listed in over_envelope, where
    eps is the double epsilon and R, the largest eta*t*(|xi|^p + sum_i
    |c_i| |xi|^d_i) over the modes whose real exponent eta*t*Phi is at least
    -746 (below it exp is 0, and a mode adds nothing), bounds the terms of
    the real exponent wherever a mode counts.  The terms: n for the two
    sums of n squared moduli, the norm's and that of the normalisation of
    u0 (each at most n/2 ulps after its square root); 8R for the argument
    of exp in the flow table, formed in at most 8 roundings of terms of
    size at most R, and 8R for the envelope's (its exponent 2*eta*t*Phi,
    halved by the square root); 16 for the fixed number of other roundings
    (products, powers, exp, cos and sin, square roots).
    """
    if grid is None:
        grid = SpectralGrid(512, 40.0)
    u0 = mollified_cusp(grid, gamma, h)
    sigmas = tuple(float(s) for s in sigmas)
    t_values = tuple(float(t) for t in t_values)
    # one flow table over t_values serves every sigma; row k is V(t_k)u0
    moved = [SpectralField(grid, c, u0.is_real and phi.is_even)
             for c in u0.coeffs * symbols.flow_multiplier(phi, t_values, grid)]
    x = np.abs(grid.xi)
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = x ** phi.p + sum(abs(term.coeff) * x ** term.degree
                                 for term in phi.terms)
        phase = symbols.phase_eval(phi, grid.xi)
        allowances = []
        for t in t_values:
            counted = phi.eta * t * phase >= -746.0  # exp is 0 below
            R = phi.eta * t * float(np.max(sizes[counted]))
            allowances.append(math.ulp(1.0) * (grid.n + 16.0 * R + 16.0))
    rows = []
    over = []
    rates = {}
    for sigma in sigmas:
        norms_t = []
        for t, vt, allowance in zip(t_values, moved, allowances):
            nrm = l2_norm(fractional_D(vt, sigma))
            bound = math.sqrt(symbols.weighted_multiplier_sup(phi, sigma, t))
            if not (math.isfinite(nrm) and math.isfinite(bound)):
                raise NumericalError(f"decay probe norm {nrm} and envelope {bound} "
                                     f"at sigma={sigma!r}, t={t!r}: not both finite")
            rows.append({"sigma": sigma, "t": t, "norm": nrm, "mult_bound": bound})
            if nrm > bound * (1.0 + allowance):
                over.append(rows[-1])
            norms_t.append(nrm)
        norms_arr = np.asarray(norms_t)
        # a slope needs two distinct times; repeats of one time fit nothing
        if np.all(norms_arr > 0) and len(set(t_values)) > 1:
            slope = np.polyfit(np.log(t_values), np.log(norms_arr), 1)[0]
        else:
            slope = float("nan")
        rates[sigma] = float(slope)
    return ProbeReport(rows, rates, over)
