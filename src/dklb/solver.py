"""Time evolution: linear flow, Picard iteration, ETDRK4, existence horizon.

The equation integrated here is

    u_t + u_xxx + eta*L*u + u*u_x = 0,      (L u)^(xi) = -Phi(xi) u^(xi),

whose linear part is the diagonal multiplier exp(i*t*xi^3 + eta*t*Phi(xi)).
Two independent routes to the same solution are kept deliberately separate:
the Picard iteration solves the integral (Duhamel) form on a coarse stored
time grid, while ETDRK4 steps the differential form with exponential
integrator coefficients.  Cross-checking them is the point, so neither may
call the other.

Both routes run on the coefficients of the kept modes and evaluate the
advection term through one in-place kernel, _advection, whose calls
allocate nothing.  A real flow
(real data and an even symbol) keeps modes 0..N/2, a half spectrum, and
transforms with irfft/rfft; a complex flow keeps every mode and uses
ifft/fft.  Full spectra, with the negative modes filled in as conjugates,
are built only where a Trajectory or SpectralField is returned or measured.
The inner loops are linear in time: ETDRK4 runs its stages in preallocated
buffers, and Picard's Duhamel sweep runs its quadrature sums forward by the
semigroup law instead of summing over every pair of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import norms, symbols
from .errors import NumericalError
from .grid import (
    SpectralField,
    SpectralGrid,
    Trajectory,
    apply_multiplier,
)


def apply_semigroup(phi: symbols.PhaseFunction, t: float,
                    f: SpectralField) -> SpectralField:
    """Evolve a field by the linear flow for time t >= 0."""
    return apply_multiplier(f, symbols.flow_multiplier(phi, t, f.grid), phi.is_even)


def linear_trajectory(u0: SpectralField, phi: symbols.PhaseFunction, T: float,
                      nt: int) -> Trajectory:
    """Linear flow on nt+1 uniform time nodes: u0 times the flow table."""
    times = np.linspace(0.0, T, nt + 1)
    return Trajectory(u0.grid, phi, times,
                      u0.coeffs * symbols.flow_multiplier(phi, times, u0.grid),
                      u0.is_real and phi.is_even)


def _advection(grid: SpectralGrid, real: bool):
    """The kept modes and an in-place advection kernel on them.

    The kernel advect(v, out) writes -1/2 d/dx P(u^2) for the kept
    coefficients v into out and returns out.  P is the dealias truncation,
    applied to u before squaring and to the square after.  A real field
    keeps modes 0..N/2 and transforms with irfft/rfft; a complex field keeps
    every mode and uses ifft/fft.  The masked input and the node values live
    in two buffers of the kernel, so a call allocates nothing; the inverse
    transform runs unnormalised (norm="forward"), which is u at the nodes
    exactly because N is a power of two.  Returns (keep, advect): keep slices
    the kept modes out of an FFT-order spectrum.
    """
    n = grid.n
    if real:
        keep = slice(0, n // 2 + 1)
        to_nodes, to_modes = np.fft.irfft, np.fft.rfft
    else:
        keep = slice(0, n)
        to_nodes, to_modes = np.fft.ifft, np.fft.fft
    mask = grid.dealias_mask[keep]
    gain = mask * (-0.5j * grid.xi_odd[keep]) / n
    masked = np.zeros(mask.shape, dtype=complex)  # zero outside the band for good
    nodes = np.empty(n, dtype=float if real else complex)

    def advect(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.copyto(masked, v, where=mask)
        to_nodes(masked, n, norm="forward", out=nodes)
        np.multiply(nodes, nodes, out=nodes)
        to_modes(nodes, out=out)
        return np.multiply(gain, out, out=out)

    return keep, advect


def _full_spectrum(v: np.ndarray, n: int, real: bool) -> np.ndarray:
    """The FFT-order spectra whose kept modes are v, along the last axis.

    A real field's modes -N/2+1..-1 are the conjugates of modes N/2-1..1, an
    exact Hermitian extension into a new array; a complex field keeps every
    mode already, so v itself is returned.
    """
    if not real:
        return v
    full = np.empty(v.shape[:-1] + (n,), dtype=complex)
    full[..., : n // 2 + 1] = v
    full[..., n // 2 + 1:] = np.conj(v[..., n // 2 - 1:0:-1])
    return full


def nonlinearity(f: SpectralField) -> SpectralField:
    """The advection term as fed to Duhamel: -1/2 d/dx of the dealiased square.

    Equals -u*u_x up to dealiasing; its zero mode vanishes identically
    because it is a total derivative.
    """
    keep, advect = _advection(f.grid, f.is_real)
    out = advect(f.coeffs[keep], np.empty(keep.stop, dtype=complex))
    return SpectralField(f.grid, _full_spectrum(out, f.grid.n, f.is_real), f.is_real)


# --- Picard iteration on the integral form ----------------------------------


@dataclass
class ContractionReport:
    """Convergence record of one Picard run."""

    converged: bool
    iterations: int
    iterate_distances: list[float]
    lambda_values: list[dict[str, float]]
    tol: float
    notes: list[str] = field(default_factory=list)

    @property
    def distance_ratios(self) -> list[float]:
        d = self.iterate_distances
        return [d[i] / d[i - 1] if d[i - 1] > 0 else 0.0 for i in range(1, len(d))]


def picard_solve(u0: SpectralField, phi: symbols.PhaseFunction, T: float,
                 nt: int = 64, tol: float = 1e-8, max_iter: int = 25,
                 s: float = 0.0,
                 weight_r: float | None = None, weight_b: float | None = None
                 ) -> tuple[Trajectory, ContractionReport]:
    """Solve the integral form by successive substitution on a stored grid.

    The Duhamel map is w -> V(t)u0 + int_0^t V(t-t') N(w(t')) dt' with
    N(w) = -1/2 d/dx w^2, discretized on nt+1 uniform nodes by composite
    Simpson, with a 3/8 tail at odd nodes i >= 3 and a trapezoid at node 1.
    Iterates start from the linear flow; convergence is sup-in-time H^s
    distance <= tol between successive iterates.

    The sweep runs on the kept modes of _advection (0..N/2 for a real flow,
    all of them for a complex one) and is linear in nt.  The kernel writes
    each node's advection term into its row, and the quadrature sums run
    forward by the semigroup law M_{a+b} = M_a M_b: with R_m the Simpson
    sum at an even node m,

        R_{m+2}  = M2 R_m + dt/3 (M2 N_m + 4 M1 N_{m+1} + N_{m+2}),
        S_{m+3}  = M3 R_m + 3dt/8 (M3 N_m + 3 M2 N_{m+1} + 3 M1 N_{m+2} + N_{m+3}),

    where M1, M2 and M3 are the flow multipliers at dt, 2dt and 3dt.  The
    linear part takes the flow multiplier at every node, but the sums
    compound M1..M3, so their rounding grows like nt ulps.  Only the current
    and the new iterate are held as full spectra, (nt+1, N) arrays; the new
    one is measured for the distances and, as the coefficient array of a
    Trajectory, for the diagnostics, and the last one is returned.

    Returns the last iterate as a trajectory plus a ContractionReport with
    per-iterate distances and layered norm diagnostics.  Non-convergence is
    reported, not raised; NaN/overflow aborts with NumericalError.
    """
    if T <= 0:
        raise ValueError(f"horizon T must be positive, got {T}")
    if nt < 2 or nt % 2:
        raise ValueError(f"nt must be a positive even integer, got {nt}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    grid = u0.grid
    dt = T / nt
    times = np.linspace(0.0, T, nt + 1)
    is_real = u0.is_real and phi.is_even
    keep, advect = _advection(grid, is_real)

    linear = u0.coeffs[keep] * symbols.flow_multiplier(
        phi, np.arange(nt + 1) * dt, grid)[:, keep]
    M1, M2, M3 = symbols.flow_multiplier(phi, np.arange(1, 4) * dt, grid)[:, keep]
    trapezoid = (dt / 2.0 * M1, dt / 2.0)
    simpson = (dt / 3.0 * M2, 4.0 * dt / 3.0 * M1, dt / 3.0)
    three_eighths = (3.0 * dt / 8.0 * M3, 9.0 * dt / 8.0 * M2,
                     9.0 * dt / 8.0 * M1, 3.0 * dt / 8.0)
    nl = np.empty_like(linear)  # the advection term at every node
    run = np.empty_like(linear[0])  # R_m
    tmp = np.empty_like(linear[0])

    def add(acc, weights, rows):
        # acc += sum_k weights[k] * rows[k], in place
        for w, row in zip(weights, rows):
            acc += np.multiply(w, row, out=tmp)

    def duhamel(iterate: np.ndarray) -> np.ndarray:
        # full spectra of the iterate in, kept modes of its image out
        out = linear.copy()
        for row, term in zip(iterate, nl):
            advect(row[keep], term)
        add(out[1], trapezoid, nl[:2])
        run.fill(0.0)
        for m in range(0, nt, 2):
            if m + 3 <= nt:
                out[m + 3] += np.multiply(M3, run, out=tmp)
                add(out[m + 3], three_eighths, nl[m:m + 4])
            np.multiply(M2, run, out=run)
            add(run, simpson, nl[m:m + 3])
            out[m + 2] += run
        return out

    notes: list[str] = []
    if phi.p <= 2.5:
        notes.append(
            f"p={phi.p:g} <= 5/2: the layered contraction norms are outside "
            "their validity range; diagnostics only"
        )

    current = _full_spectrum(linear, grid.n, is_real)
    distances: list[float] = []
    lambdas: list[dict[str, float]] = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        new = duhamel(current)
        iterations += 1
        if not np.all(np.isfinite(new)):
            raise NumericalError(
                f"Picard iterate {iterations} lost finiteness (NaN/overflow)"
            )
        new = _full_spectrum(new, grid.n, is_real)
        dist = norms.sup_hs_norm(grid, new - current, s)
        distances.append(dist)
        traj = Trajectory(grid, phi, times, new, is_real)
        lambdas.append(norms.lambda_diagnostics(traj, s, weight_r, weight_b))
        current = new
        if dist <= tol:
            converged = True
            break

    if not converged:
        notes.append(
            f"no fixed point after {iterations} iterations: last distance "
            f"{distances[-1]:.3e} above tol {tol:g}; partial trajectory returned"
        )
    report = ContractionReport(converged, iterations, distances, lambdas, tol, notes)
    return traj, report


# --- ETDRK4 on the differential form ----------------------------------------


def _etdrk4_coeffs(z: np.ndarray, dt: float):
    """Exponential-integrator coefficients Q, f1, f2, f3 for nodes z = dt*c.

    Entire functions of z evaluated by averaging over 32 points of a unit
    circle around each node (full circle: the symbol is complex, so
    conjugate symmetry may not be assumed).
    """
    z = np.asarray(z, dtype=complex)
    theta = 2.0 * np.pi * (np.arange(32) + 0.5) / 32
    r = z[:, None] + np.exp(1j * theta)[None, :]
    er = np.exp(r)
    Q = dt * np.mean((np.exp(r / 2.0) - 1.0) / r, axis=1)
    f1 = dt * np.mean((-4.0 - r + er * (4.0 - 3.0 * r + r**2)) / r**3, axis=1)
    f2 = dt * np.mean((2.0 + r + er * (-2.0 + r)) / r**3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * r - r**2 + er * (4.0 - r)) / r**3, axis=1)
    return Q, f1, f2, f3


def etdrk4_steps(u0: SpectralField, phi: symbols.PhaseFunction, T: float,
                 dt: float, nonlinear: bool = True, snapshot_stride: int = 1):
    """Fourth-order exponential time differencing on the differential form.

    Checks T (an integer multiple of dt), dt and the stride at the call, then
    yields (step, t, field) at step 0 (a copy of u0), every snapshot_stride-th
    step and the last, each a fresh full spectrum.  With nonlinear=False each
    step is exactly the flow multiplier; NaN or overflow aborts at its step.

    The stages run on the kept modes of _advection, with the multipliers
    and coefficients sliced to them once: modes 0..N/2 through irfft/rfft
    for a real flow, every mode through ifft/fft for a complex one.  They
    run in preallocated buffers, E2*v and 2*f2 computed once, with every
    product and sum in the operand order of the plain formulas, so the
    trajectory is bitwise that of the allocating scheme.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    steps_f = T / dt
    steps = int(round(steps_f))
    if steps < 1 or abs(steps_f - steps) > 1e-9 * max(1.0, steps_f):
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")

    grid = u0.grid
    is_real = u0.is_real and phi.is_even
    keep, advect = _advection(grid, is_real)
    E = symbols.flow_multiplier(phi, dt, grid)[keep]
    E2 = symbols.flow_multiplier(phi, dt / 2.0, grid)[keep]
    c = 1j * grid.xi_odd[keep]**3 + phi.eta * symbols.phase_eval(phi, grid.xi[keep])
    z = c.real * dt + 1j * c.imag * dt
    Q, f1, f2, f3 = _etdrk4_coeffs(z, dt)
    twice_f2 = 2.0 * f2

    def N(v, out):
        # the advection term into out, or zero for the linear flow
        return advect(v, out) if nonlinear else out.fill(0.0)

    def rows():
        yield 0, 0.0, SpectralField(grid, u0.coeffs.copy(), is_real)
        v = u0.coeffs[keep].copy()
        E2v, a, b, cc, Nv, Na, Nb, Nc, tmp = np.empty((9, len(v)), dtype=complex)
        finite = np.empty(len(v), dtype=bool)
        for step in range(1, steps + 1):
            # the four stages in the order of Cox & Matthews, each in its buffer
            N(v, Nv)
            np.multiply(E2, v, out=E2v)
            np.multiply(Q, Nv, out=a)
            a += E2v
            N(a, Na)
            np.multiply(Q, Na, out=b)
            b += E2v
            N(b, Nb)
            np.multiply(2.0, Nb, out=cc)
            cc -= Nv
            np.multiply(Q, cc, out=cc)
            cc += np.multiply(E2, a, out=tmp)
            N(cc, Nc)
            np.multiply(E, v, out=v)
            v += np.multiply(f1, Nv, out=tmp)
            np.add(Na, Nb, out=tmp)
            v += np.multiply(twice_f2, tmp, out=tmp)
            v += np.multiply(f3, Nc, out=tmp)
            if not np.isfinite(v, out=finite).all():
                raise NumericalError(f"ETDRK4 lost finiteness at step {step}")
            if step % snapshot_stride == 0 or step == steps:  # v is live: copy it
                row = _full_spectrum(v, grid.n, True) if is_real else v.copy()
                yield step, step * dt, SpectralField(grid, row, is_real)

    return rows()


def etdrk4_solve(u0: SpectralField, phi: symbols.PhaseFunction, T: float,
                 dt: float, nonlinear: bool = True, snapshot_stride: int = 1
                 ) -> Trajectory:
    """The rows of etdrk4_steps, held together as one Trajectory."""
    _, times, rows = zip(*etdrk4_steps(u0, phi, T, dt, nonlinear, snapshot_stride))
    return Trajectory(u0.grid, phi, times, [f.coeffs for f in rows], rows[0].is_real)


def dissipation_residuals(traj: Trajectory) -> np.ndarray:
    """Per-step residual of the energy balance for the Burgers-type symbol.

    For Phi(xi) = -xi^2 the exact semi-discrete identity is
    d/dt ||u||^2 = -2*eta*||u_x||^2 (the advection term is a total
    derivative and drops out).  Returned is, for each step,

        | (E_{n+1} - E_n)/dt + eta*(D_n + D_{n+1}) | / E_n

    with E = ||u||^2 and D = ||u_x||^2 (trapezoid in time on D).
    """
    eta = traj.phase.eta
    power = np.abs(traj.coeffs) ** 2
    E = traj.grid.length * np.sum(power, axis=1)
    D = traj.grid.length * (power @ traj.grid.xi_odd**2)
    dts = np.diff(traj.times)
    res = np.abs((E[1:] - E[:-1]) / dts + eta * (D[:-1] + D[1:]))
    return np.where(E[:-1] > 0, res / np.where(E[:-1] > 0, E[:-1], 1.0), 0.0)


# --- the existence horizon from the contraction bookkeeping ------------------


def contraction_threshold(cstar: float, z0: float) -> float:
    """1/(2*cstar*z0), the bound (A2+A3)(T) must stay under.

    +inf when the product is zero: zero data, or a product that underflows.
    """
    denom = 2.0 * cstar * z0
    return float("inf") if denom == 0.0 else 1.0 / denom


def existence_time(u0_hs_norm: float, phi: symbols.PhaseFunction,
                   s: float = 0.0, cstar: float = 1.0) -> tuple[float, float]:
    """Largest horizon (capped at 1) the contraction bookkeeping certifies.

    z0 = 2*cstar*||u0||_{H^s}; the bookkeeping needs a horizon T with
    (A2+A3)(T) < 1/(2*cstar*z0), which exists because both constants vanish
    as T -> 0.  Returns (T0, z0) with T0 = min(1, T~), T~ found by bisection;
    the returned T0 satisfies the strict inequality.  Zero data makes the
    constraint vacuous and returns T0 = 1.
    """
    if u0_hs_norm < 0:
        raise ValueError("norm must be nonnegative")
    if cstar <= 0:
        raise ValueError(f"cstar must be positive, got {cstar}")
    z0 = 2.0 * cstar * u0_hs_norm
    if z0 == 0.0:
        return 1.0, 0.0

    def a_sum(T: float) -> float:
        return norms.A2(phi, T) + norms.A3(phi, s, T)

    threshold = contraction_threshold(cstar, z0)
    if a_sum(1.0) < threshold:
        return 1.0, z0
    lo = 1.0
    for _ in range(4096):
        lo /= 2.0
        if a_sum(lo) < threshold:
            break
    else:
        raise NumericalError("could not find a horizon satisfying the constraint")
    hi = 2.0 * lo
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if a_sum(mid) < threshold:
            lo = mid
        else:
            hi = mid
    return lo, z0
