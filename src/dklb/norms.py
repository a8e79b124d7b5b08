"""Norm machinery: smoothing constants, mixed norms, ensemble ratio checks.

The linear flow trades decay of the damping symbol for integrability and
derivatives.  The bookkeeping exponent is

    alpha(a, b, s) = 1/a - s/p - (1/p) * (1/a1 - 1/b),   1/a + 1/a1 = 1,

and every time-local bound in the package has the shape

    A(a, b, s)(T) = exp(eta*T) * T**(1/a) + (a*alpha)**(-1/a) * T**alpha,

finite exactly when alpha > 0.  Mixed space-time Lebesgue norms are computed
on discrete trajectories (trapezoid in time, grid quadrature in space, in the
stated nesting order), and verify_* routines measure bound ratios over
seeded random ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbols
from .errors import NumericalError
from .fields import sample_ensemble
from .grid import (
    SpectralField,
    SpectralGrid,
    Trajectory,
    WeightSpec,
    fractional_D,
    l2_norm,
    to_values,
)

INF = math.inf


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
    """Bound constant exp(eta*T)*T^(1/a) + (a*alpha)^(-1/a) * T^alpha.

    ValueError when s < 0, or when alpha <= 0 and the constant is infinite.
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
    except OverflowError:  # eta*T past the largest exponent: no finite bound
        return INF
    return growth * T**inv_a + (a * al) ** (-inv_a) * T**al


def A2(phi: symbols.PhaseFunction, T: float) -> float:
    """Constant for the plain L2_T L4_x bound (a=2, b=4, s=0)."""
    return smoothing_A(2.0, 4.0, 0.0, phi, T)


def A3(phi: symbols.PhaseFunction, s: float, T: float) -> float:
    """Constant for the s-derivative L2_T L4_x bound (a=2, b=4)."""
    return smoothing_A(2.0, 4.0, s, phi, T)


def A6(phi: symbols.PhaseFunction, T: float) -> float:
    """Constant for the gradient sup-in-x bound (a=2, b=inf, s=1)."""
    return smoothing_A(2.0, INF, 1.0, phi, T)


# --- norms on fields and trajectories --------------------------------------


def hs_norm(f: SpectralField, s: float = 0.0) -> float:
    """Sobolev norm ||(1+xi^2)^(s/2) u||_{L2}; NumericalError if not finite."""
    w = (1.0 + f.grid.xi**2) ** (s / 2.0)
    norm = float(np.sqrt(f.grid.length) * np.linalg.norm(w * f.coeffs))
    if not math.isfinite(norm):
        raise NumericalError(f"H^s norm at s={s!r} is not finite ({norm!r})")
    return norm


def sup_hs_norm(grid: SpectralGrid, coeffs: np.ndarray, s: float = 0.0) -> float:
    """The largest H^s norm among the rows of (rows, N) FFT-order spectra.

    One array expression over all rows; NumericalError if the result is not
    finite.
    """
    rows = np.abs(coeffs) * (1.0 + grid.xi**2) ** (s / 2.0)
    norm = float(np.sqrt(grid.length * np.max(np.sum(rows * rows, axis=1))))
    if not math.isfinite(norm):
        raise NumericalError(f"H^s norm at s={s!r} is not finite ({norm!r})")
    return norm


def lp_norm(f: SpectralField, p: float) -> float:
    """Physical-space L^p norm with quadrature weight L/N; p=inf is the grid max."""
    vals = np.abs(to_values(f))
    if p == INF:
        return float(np.max(vals))
    if p < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {p}")
    return float((np.sum(vals**p) * f.grid.dx) ** (1.0 / p))


def weighted_norm(f: SpectralField, w: WeightSpec, wv=None) -> float:
    """||w(x) * u||_{L2} at the nodes; NumericalError if not finite.  wv, if
    given, holds w's values on f's grid."""
    wv = w.values(f.grid) if wv is None else wv
    vals = np.abs(to_values(f))
    norm = float(np.sqrt(np.sum((wv * vals) ** 2) * f.grid.dx))
    if not math.isfinite(norm):
        raise NumericalError(f"{w.label}-weighted norm is not finite ({norm!r})")
    return norm


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


def _pnorm(vals: np.ndarray, weights, p: float, axis=None):
    if p == INF:
        return np.max(vals, axis=axis)
    if p == 4.0:  # two products: within 2 ulp of pow(), at a fraction of its cost
        power = vals * vals
        power *= power
    else:
        power = vals**p
    power *= weights
    return np.sum(power, axis=axis) ** (1.0 / p)


def mixed_norm(traj: Trajectory, outer: float, inner: float,
               order: str = "t_outer_x_inner", multiplier=None) -> float:
    """Mixed space-time norm of a trajectory.

    order='t_outer_x_inner' computes (int_0^T (int |u|^inner dx)^(outer/inner)
    dt)^(1/outer); 'x_outer_t_inner' nests the other way around.  inf
    exponents take grid maxima.  multiplier, an FFT-order spectral multiplier
    (a derivative, |xi|^s), maps every snapshot first; it must keep real
    fields real, since a real trajectory is transformed from its half spectra
    by one batched irfft (a complex one by one batched ifft).
    """
    if order not in ("t_outer_x_inner", "x_outer_t_inner"):
        raise ValueError(f"unknown nesting order {order!r}")
    if not len(traj):
        raise ValueError("cannot take a mixed norm of an empty trajectory")
    mags = _magnitudes(traj.coeffs, traj.grid.n, traj.is_real, multiplier)
    return _mixed_norm_of(mags, _trapezoid_weights(traj.times), traj.grid.dx, outer,
                          inner, order)


def _magnitudes(c: np.ndarray, n: int, real: bool, multiplier=None,
                out=None) -> np.ndarray:
    """|values| at the n nodes of the FFT-order spectra along c's last axis,
    after the multiplier: irfft of the half spectra (modes 0..n/2, all that
    is read) for a real field, ifft for a complex one, both unnormalised.
    With out, they land there and a complex c is transformed in place."""
    c = c[..., :n // 2 + 1] if real else c
    if multiplier is not None:
        c = c * np.asarray(multiplier)[:c.shape[-1]]
    if real:
        vals = np.fft.irfft(c, n, axis=-1, norm="forward", out=out)
        return np.abs(vals, out=vals)
    vals = np.fft.ifft(c, n, axis=-1, norm="forward", out=None if out is None else c)
    return np.abs(vals, out=out)


def _mixed_norm_of(V: np.ndarray, tw: np.ndarray, dx: float, outer: float,
                   inner: float, order: str) -> float:
    """mixed_norm's quadrature of (times, nodes) magnitudes; tw: trapezoid weights."""
    if order == "t_outer_x_inner":
        return float(_pnorm(_pnorm(V, dx, inner, axis=1), tw, outer))
    return float(_pnorm(_pnorm(V, tw[:, None], inner, axis=0), dx, outer))


def lambda_diagnostics(traj: Trajectory, s: float = 0.0, r: float | None = None,
                       b: float | None = None) -> dict[str, float]:
    """The layered trajectory diagnostics lambda1..lambda8 (those defined).

    lambda1  sup-in-time H^s norm
    lambda2  A2(T)^-1 ||u||_{L2_T L4_x}
    lambda3  A3(T)^-1 ||D^s u||_{L2_T L4_x}          (needs alpha(2,4,s) > 0)
    lambda4  ||D^s du/dx||_{L2_T L4_x}               (deliberately unnormalized)
    lambda5  ||du/dx||_{L2_T L4_x}                   (deliberately unnormalized)
    lambda6  A6(T)^-1 ||du/dx||_{L2_T Linf_x}        (needs alpha(2,inf,1) > 0)
    lambda7  sup-in-time |||x|^r u||_{L2}, when r is given
    lambda8  sup-in-time ||exp(b x) u||_{L2}, when b is given

    Aggregates: Lambda = lambda1+..+lambda5, Omega = Lambda+lambda6+lambda7,
    Theta = Lambda+lambda6+lambda8, reported when their parts are defined.

    All of it is read from traj.coeffs, with one batched transform per
    multiplier (see mixed_norm): |u| serves lambda2, 7 and 8, |du/dx| serves
    lambda5 and 6, and at s = 0 they serve lambda3 and 4 too.
    """
    if s < 0:
        raise ValueError(f"fractional derivative order must be >= 0, got {s}")
    phi = traj.phase
    grid = traj.grid
    T = float(traj.times[-1])
    if T <= 0:
        raise ValueError("trajectory horizon must be positive")

    tw = _trapezoid_weights(traj.times)

    def mags_of(multiplier=None):
        return _magnitudes(traj.coeffs, grid.n, traj.is_real, multiplier)

    def l2_t(mags, inner):
        return _mixed_norm_of(mags, tw, grid.dx, 2.0, inner, "t_outer_x_inner")

    def sup_weighted(mags, w):
        return float(np.sqrt(np.max(np.sum((w.values(grid) * mags) ** 2, axis=1))
                             * grid.dx))

    lambda1 = sup_hs_norm(grid, traj.coeffs, s)
    gain = np.abs(grid.xi) ** s if s else None
    ddx = 1j * grid.xi_odd
    u = mags_of()
    u_x = mags_of(ddx)
    plain = l2_t(u, 4.0)
    out: dict[str, float] = {"lambda1": lambda1, "lambda2": plain / A2(phi, T)}
    if alpha(2.0, 4.0, s, phi.p) > 0:
        gained = plain if gain is None else l2_t(mags_of(gain), 4.0)
        out["lambda3"] = gained / A3(phi, s, T)
    lambda5 = l2_t(u_x, 4.0)
    out["lambda4"] = lambda5 if gain is None else l2_t(mags_of(gain * ddx), 4.0)
    out["lambda5"] = lambda5
    if alpha(2.0, INF, 1.0, phi.p) > 0:
        out["lambda6"] = l2_t(u_x, INF) / A6(phi, T)
    if r is not None:
        out["lambda7"] = sup_weighted(u, WeightSpec("poly", r))
    if b is not None:
        out["lambda8"] = sup_weighted(u, WeightSpec("exp", b))
    if "lambda3" in out:
        out["Lambda"] = sum(out[k] for k in
                            ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5"))
        if "lambda6" in out and "lambda7" in out:
            out["Omega"] = out["Lambda"] + out["lambda6"] + out["lambda7"]
        if "lambda6" in out and "lambda8" in out:
            out["Theta"] = out["Lambda"] + out["lambda6"] + out["lambda8"]
    return out


# --- ensemble verification of the linear-flow bounds ------------------------

SMOOTHING_CHECKS = ("C1", "C2", "C3", "C4", "P_inf")


@dataclass
class NormEnsembleReport:
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
    a ratio that is not finite raises NumericalError.
    Ratios use constant 1 on the right, so the fitted constant is simply the
    ensemble maximum, max_ratio.

    The flow multipliers at the nt+1 times form one (times, modes) table,
    half spectra only for a real flow (phi.is_even).  Samples are drawn
    lazily; each is one product into one buffer, one in-place transform
    (irfft or ifft) and magnitudes into another, so memory is flat in size.
    """
    if check not in SMOOTHING_CHECKS:
        raise ValueError(f"unknown check {check!r}; choose from {SMOOTHING_CHECKS}")
    if grid is None:
        grid = SpectralGrid(256, 40.0)
    if T <= 0:
        raise ValueError("T must be positive")

    p = phi.p
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
    # the fitted constant 1); the right-hand norm of u0.
    tx, xt = "t_outer_x_inner", "x_outer_t_inner"
    outer, inner, order, gain_order, bound, rhs_norm = {
        "C1": (a, INF, tx, s, (a, INF, s),
               lambda u0: lp_norm(u0, conjugate_exponent(a))),
        "C2": (2.0, b, tx, s, (2.0, b, s), l2_norm),
        "C3": (2.0, b, tx, 1.0, (2.0, b, 1.0 - s),
               lambda u0: l2_norm(fractional_D(u0, s))),
        "C4": (2.0, 2.0, tx, s, (2.0, 2.0, s), l2_norm),
        "P_inf": (INF, 2.0, xt, q, None, l2_norm),
    }[check]
    # smoothing_A validates alpha > 0
    const = 1.0 if bound is None else smoothing_A(*bound, phi, T)

    real = phi.is_even  # mixtures are real, and |xi|^s keeps real fields real
    keep = grid.n // 2 + 1 if real else grid.n
    times = np.linspace(0.0, T, nt + 1)
    tw = _trapezoid_weights(times)
    flow = np.ascontiguousarray(symbols.flow_multiplier(phi, times, grid)[:, :keep])
    gain = (np.abs(grid.xi[:keep]) ** gain_order).astype(complex) if gain_order else None
    vals = np.empty_like(flow)
    mags = np.empty((nt + 1, grid.n))
    ratios = np.empty(size)
    for i, u0 in enumerate(sample_ensemble(grid, size, seed)):
        # operand order matters: complex products are not bitwise commutative
        np.multiply(u0.coeffs[:keep], flow, out=vals)
        if gain is not None:
            vals *= gain
        lhs = _mixed_norm_of(_magnitudes(vals, grid.n, real, out=mags), tw,
                             grid.dx, outer, inner, order)
        r = const * rhs_norm(u0)
        ratios[i] = lhs / r if r else 0.0

    if not np.all(np.isfinite(ratios)):
        raise NumericalError("non-finite bound ratio in ensemble")
    mx = float(np.max(ratios)) if len(ratios) else 0.0
    return NormEnsembleReport(check, size, ratios, mx)
