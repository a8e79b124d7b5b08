"""Time evolution: Picard iteration, ETDRK4, existence horizon.

The equation integrated here is

    u_t + u_xxx + eta*L*u + u*u_x = 0,      (L u)^(xi) = -Phi(xi) u^(xi),

whose linear part is the diagonal multiplier exp(i*t*xi^3 + eta*t*Phi(xi)),
symbols.flow_multiplier: the one linear flow of the package, which both
routes read.  Two independent routes to the same solution are kept
deliberately separate: the Picard iteration solves the integral (Duhamel)
form on a coarse stored time grid, while ETDRK4 steps the differential form
with exponential integrator coefficients.  Cross-checking them is the point,
so neither may call the other.

Both routes run on the coefficients of the kept modes: a real flow (real
data and an even symbol) keeps modes 0..N/2, a half spectrum, and
transforms with irfft/rfft; a complex flow keeps every mode and uses
ifft/fft.  Flow tables are evaluated on the kept modes only, and the norms
read half spectra as they stand.  The advection term is dealiased by the
2/3 rule, so it is zero above the band |k| <= N/3
(SpectralGrid.dealias_tail), where every mode follows the linear flow
exactly: both routes do their nonlinear work on the band only, through one
in-place kernel, _advection, which works along the last axis of band-width
rows.  ETDRK4 passes it one row per stage and multiplies the modes above
the band by the step's flow multiplier alone.  Picard passes it its nodes
in blocks of norms._block_rows(N) rows, about 2**14 node values each; its
one (nt+1)-row array is the (nt+1, kept) iterate, whose modes above the
band are the linear flow's, written once, and each sweep overwrites the
iterate's band in place block by block, rebuilding the linear part's band
one row at a time, with the kernel's buffers as its scratch.  Picard
returns that iterate as its nodes;
etdrk4_solve yields its rows one at a time as (step, t, field), and nothing
gathers them.  Full spectra, with the negative modes filled in as
conjugates, are built only for the fields ETDRK4 yields and the Picard rows
a caller extends.  The inner loops are linear in time: ETDRK4 runs its
stages in preallocated buffers, and Picard's Duhamel sweep runs its
linear part and its quadrature sums forward by the semigroup law instead of
evaluating the flow at every node and summing over every pair of nodes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import norms, symbols
from .errors import NumericalError
from .grid import SpectralField, SpectralGrid


def _advection(grid: SpectralGrid, real: bool, rows: tuple[int, ...] = ()):
    """The kept modes, the modes above the band and an advection kernel.

    The kernel advect(v, out) writes -1/2 d/dx P(u^2) for the band v, of
    shape rows + (band modes,), into out of the same shape and returns out;
    all rows go through one batched transform pair along the last axis.
    With rows = (k,), v may also hold fewer than k rows: a block of rows
    that ends an array, as Picard's sweep passes them.  P is the dealias
    truncation, applied to u before squaring and to the square after, so
    the term is zero above the band and the kernel never forms it there.
    The band is the kept row without its dealias tail
    (SpectralGrid.dealias_tail): a real field keeps modes 0..N/2 and
    transforms with irfft/rfft, its band a prefix that irfft reads as it
    stands and zero-pads; a complex field keeps every mode and uses
    ifft/fft, its band spliced into a zeroed spectrum.  The node values and
    the spectra live in buffers of the kernel, so a call creates no array;
    the inverse transform runs unnormalised (norm="forward"), which is u at
    the nodes exactly because N is a power of two.  Returns (keep, tail,
    advect, buffers): keep slices the kept modes out of an FFT-order
    spectrum, tail the modes above the band out of a kept row, and buffers
    is the kernel's (spectra, nodes), its rows + (kept modes,) complex
    spectra and, for a real field, its rows + (N,) node values (None for a
    complex one).  Both are dead between calls, so a caller may use them
    for other work there, as Picard's sweep does.
    """
    n = grid.n
    keep = slice(0, grid.kept_modes(real))
    tail = grid.dealias_tail(real)
    mask = grid.dealias_mask[keep]
    gain = mask * (-0.5j * grid.xi_odd[keep]) / n
    head, low_gain, high_gain = tail.start, gain[:tail.start], gain[tail.stop:]
    spectra = np.empty(rows + (keep.stop,), dtype=complex)
    nodes = np.empty(rows + (n,)) if real else None

    def advect(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        w = spectra[:len(v)] if rows else spectra
        if real:
            u = nodes[:len(v)] if rows else nodes
            np.fft.irfft(v, n, norm="forward", out=u)
            np.multiply(u, u, out=u)
            np.fft.rfft(u, out=w)
        else:
            _splice(v, tail, w)
            w[..., tail] = 0.0
            np.fft.ifft(w, norm="forward", out=w)
            np.multiply(w, w, out=w)
            np.fft.fft(w, out=w)
        # the band of the square's spectrum, times the gain, into out
        np.multiply(low_gain, w[..., :head], out=out[..., :head])
        if high_gain.size:  # modes -K..-1, kept by a complex flow
            np.multiply(high_gain, w[..., tail.stop:], out=out[..., head:])
        return out

    return keep, tail, advect, (spectra, nodes)


def _cut(rows: np.ndarray, tail: slice, out: np.ndarray) -> np.ndarray:
    """The band of kept rows, their last axis without the entries tail, into out."""
    head = tail.start
    np.copyto(out[..., :head], rows[..., :head])
    np.copyto(out[..., head:], rows[..., tail.stop:])
    return out


def _splice(band: np.ndarray, tail: slice, rows: np.ndarray) -> np.ndarray:
    """The inverse of _cut: band into kept rows around their entries tail."""
    head = tail.start
    np.copyto(rows[..., :head], band[..., :head])
    np.copyto(rows[..., tail.stop:], band[..., head:])
    return rows


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
    np.conjugate(v[..., n // 2 - 1:0:-1], out=full[..., n // 2 + 1:])
    return full


def nonlinearity(f: SpectralField) -> SpectralField:
    """The advection term as fed to Duhamel: -1/2 d/dx of the dealiased square.

    Equals -u*u_x up to dealiasing; its zero mode vanishes identically
    because it is a total derivative, and the modes above the band are zero.
    """
    keep, tail, advect, _ = _advection(f.grid, f.is_real)
    band = np.delete(f.coeffs[keep], tail)
    out = _splice(advect(band, np.empty_like(band)), tail,
                  np.zeros(keep.stop, dtype=complex))
    return SpectralField(f.grid, _full_spectrum(out, f.grid.n, f.is_real), f.is_real)


# --- Picard iteration on the integral form ----------------------------------


class ContractionReport(NamedTuple):
    """Convergence record of one Picard run."""

    converged: bool
    iterations: int
    iterate_distances: list[float]
    lambda_values: list[dict[str, float]]
    notes: list[str]

    @property
    def distance_ratios(self) -> list[float]:
        d = self.iterate_distances
        return [d[i] / d[i - 1] if d[i - 1] > 0 else 0.0 for i in range(1, len(d))]


def picard_solve(u0: SpectralField, phi: symbols.PhaseFunction, T: float,
                 nt: int = 64, tol: float = 1e-8, max_iter: int = 25,
                 s: float = 0.0) -> tuple[np.ndarray, ContractionReport]:
    """Solve the integral form by successive substitution on a stored grid.

    The Duhamel map is w -> V(t)u0 + int_0^t V(t-t') N(w(t')) dt' with
    N(w) = -1/2 d/dx w^2, discretized on nt+1 uniform nodes by composite
    Simpson, with a 3/8 tail at odd nodes i >= 3 and a trapezoid at node 1.
    Iterates start from the linear flow; convergence is sup-in-time H^s
    distance <= tol between successive iterates.

    The iteration runs on the kept modes of _advection (0..N/2 for a real
    flow, all of them for a complex one), and each sweep is linear in nt.
    The advection term is zero above the dealias band, so there the Duhamel
    integral is zero and every iterate is the linear flow; only the band is
    swept.  The quadrature sums run forward by the semigroup law
    M_{a+b} = M_a M_b: with R_m the Simpson sum at an even node m,

        R_{m+2}  = M2 R_m + dt/3 (M2 N_m + 4 M1 N_{m+1} + N_{m+2}),
        S_{m+3}  = M3 R_m + 3dt/8 (M3 N_m + 3 M2 N_{m+1} + 3 M1 N_{m+2} + N_{m+3}),

    where M1, M2 and M3 are the flow multipliers at dt, 2dt and 3dt, taken
    on the band.  The linear part runs forward by the same law: node 0 is
    u0's kept modes and node k is node k-1 times M1.  So, like the sums, it
    compounds M1, and on damped flows it stays within about nt ulps of each
    row's largest entry of u0 times the multiplier evaluated at each node's
    time; both carry the rounding of the phase t*xi^3, which dominates
    their difference where the damping is weak.

    The lambda constants (norms.lambda_constants) depend on phi, T and s
    alone, so they are taken first: one that is not finite and positive
    raises BoundError before any flow multiplier is built.  The state is
    one (nt+1, kept modes) iterate, the only array with a row per node.
    The first iterate is the linear part, formed node by node; its row 0
    is checked to have a finite H^s norm first, its modes above the band
    are final, and where they are not finite they fail as the first
    iterate.  Each sweep rebuilds the linear part's band node by node from
    row 0's band, which no sweep changes, by the same products in one row
    buffer, so its rows are bitwise the band of the first iterate; and it
    overwrites the iterate's band in place.  That is safe because the step
    from node m writes nodes m+2 and m+3 and reads only the advection terms
    of nodes m..m+3, all taken from old rows: the sweep walks the nodes in
    blocks of norms._block_rows(N) rows, an even number, and one batched
    kernel call writes the terms of a block's old rows, after those of the
    two nodes before the block, before any of its rows is overwritten.  A
    real flow's kernel reads the old band where it lies in the iterate, a
    prefix of each kept row; a complex flow's band is two pieces, which the
    sweep copies out once per block.  The block's new band rows are formed
    in a block-sized buffer, each in the operand order of a whole-array
    sweep (the linear part, then M3 R_m, then the weighted terms); once
    the block is complete, each row's step (new - old, zero above the band)
    is formed in the kernel's spectra (in the complex flow's band copy),
    its H^s norm is taken by the body of norms.hs_norm, its powers in the
    kernel's node values (the complex flow's spectra, read as doubles), and
    the new rows overwrite the old.  The distance between iterates is the
    largest of those norms, bitwise the largest hs_norm of the whole step,
    and no value depends on the block height.  So beyond the iterate a sweep
    holds block-sized buffers only, the kernel's, the terms (two rows more
    than a block) and the new rows, for one sweep; the diagnostics then
    walk the new iterate in blocks of their own.

    Returns (nodes, report).  nodes is the last iterate on the kept modes,
    one row per node times[k] = k*T/nt: an (nt+1, N/2+1) array of half
    spectra for a real flow (real data and phi.is_even), (nt+1, N) FFT-order
    spectra for a complex one; _full_spectrum extends the rows a caller
    needs whole.  report is a ContractionReport with per-iterate distances
    and the layered diagnostics of each iterate
    (norms.lambda_diagnostics at s: lambda1..lambda6 and Lambda, those
    defined).  Non-convergence is reported, not raised; an iterate whose
    distance to the last one is not finite (NaN or overflow in either)
    aborts with a NumericalError that names it as diverged; one whose
    diagnostics refuse a lambda aborts with one that names both.
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
    # the lambda constants depend on phi, T and s alone: refused before any work
    norms.lambda_constants(phi, T, s)
    is_real = u0.is_real and phi.is_even
    keep = slice(0, grid.kept_modes(is_real))
    tail = grid.dealias_tail(is_real)

    # the first iterate is the linear part, node by node by the semigroup law;
    # above the band it is final
    steps = symbols.flow_multiplier(phi, np.arange(1, 4) * dt, grid, is_real)
    iterate = np.empty((nt + 1, keep.stop), dtype=complex)
    iterate[0] = u0.coeffs[keep]
    # data without a finite H^s norm fail here, not as a diverged iterate
    norms.hs_norm(grid, iterate[:1], s)
    for k in range(1, nt + 1):
        np.multiply(iterate[k - 1], steps[0], out=iterate[k])
    if not np.isfinite(iterate[:, tail]).all():  # so would every iterate
        raise NumericalError("Picard iterate 1 diverged: the linear flow above "
                             "the dealias band is not finite")

    M1, M2, M3 = np.delete(steps, tail, axis=1)
    trapezoid = (dt / 2.0 * M1, dt / 2.0)
    simpson = (dt / 3.0 * M2, 4.0 * dt / 3.0 * M1, dt / 3.0)
    three_eighths = (3.0 * dt / 8.0 * M3, 9.0 * dt / 8.0 * M2,
                     9.0 * dt / 8.0 * M1, 3.0 * dt / 8.0)
    blocks = norms._row_blocks(nt + 1, grid.n)
    size, width = blocks[0].stop, len(M1)  # rows in a block, band modes

    def duhamel(iterate: np.ndarray) -> float:
        # the image of the iterate overwrites its band, block by block, and
        # the H^s norm of each row's step goes to distances.  The kernel's
        # buffers are dead once a block's terms are formed, so its spectra
        # hold the block's step, new - old, and its node values (a complex
        # flow's spectra, read as doubles) the step's powers.  The buffers
        # live for one sweep, so none is held while the diagnostics run
        _, _, advect, (spectra, nodes) = _advection(grid, is_real, (size,))
        if is_real:  # the band is a prefix of each kept row, read where it lies
            steps, powers = spectra[:, :width], nodes
        else:  # the band is two pieces: the old rows' one copy takes the step
            steps = np.empty((size, width), dtype=complex)
            powers = spectra.view(float)[:, :grid.n]
        hs_norms = norms._hs_powers(grid, norms._hs_weight(grid, keep.stop, s), powers)
        distances = np.empty(nt + 1)
        # the advection terms of the block's nodes after those of the two
        # nodes before it, and the block's new rows
        terms = np.empty((size + 2, width), dtype=complex)
        stage = np.empty((size, width), dtype=complex)
        run = np.zeros(width, dtype=complex)  # R_m
        tmp = np.empty_like(run)
        # the band of the linear part at the node last formed: node 0's is
        # u0's, which no sweep changes
        line = _cut(iterate[0], tail, np.empty_like(run))

        def add(acc, weights, rows):
            # acc += sum_k weights[k] * rows[k], in place
            for w, row in zip(weights, rows):
                acc += np.multiply(w, row, out=tmp)

        for rows in blocks:
            k = rows.stop - rows.start
            step, new = steps[:k], stage[:k]
            old = iterate[rows, :width] if is_real else _cut(iterate[rows], tail, step)
            if rows.start:  # keep the terms of the two nodes before the block
                terms[:2] = terms[-2:]
            advect(old, terms[2:k + 2])
            for node, row in enumerate(new, rows.start):
                if node:  # the first iterate's product, so its band to the bit
                    np.multiply(line, M1, out=line)
                np.copyto(row, line)
            if not rows.start:
                add(new[1], trapezoid, terms[2:4])
            # row i of the block is node m+2, and terms[i:i+4] hold N_m..N_{m+3}
            for i in range(0 if rows.start else 2, k, 2):
                window = terms[i:i + 4]
                if i + 1 < k:  # node m+3 <= nt lies in the same block
                    new[i + 1] += np.multiply(M3, run, out=tmp)
                    add(new[i + 1], three_eighths, window)
                np.multiply(M2, run, out=run)
                add(run, simpson, window)
                new[i] += run
            hs_norms(np.subtract(new, old, out=step), distances[rows])
            _splice(new, tail, iterate[rows])
        return float(np.max(norms._finite_hs(distances, s)))

    notes: list[str] = []
    if phi.p <= 2.5:
        notes.append(
            f"p={phi.p:g} <= 5/2: the layered contraction norms are outside "
            "their validity range; diagnostics only"
        )

    distances: list[float] = []
    lambdas: list[dict[str, float]] = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        # the step is not finite where the new iterate is not
        try:
            dist = duhamel(iterate)
        except NumericalError as exc:
            raise NumericalError(
                f"Picard iterate {iterations} diverged: {exc}") from None
        distances.append(dist)
        try:
            lambdas.append(norms.lambda_diagnostics(grid, phi, times, iterate, s))
        except NumericalError as exc:  # names the lambda it refused
            raise NumericalError(f"Picard iterate {iterations}: {exc}") from None
        if dist <= tol:
            converged = True
            break

    if not converged:
        notes.append(
            f"no fixed point after {iterations} iterations: last distance "
            f"{distances[-1]:.3e} above tol {tol:g}; the last iterate is returned"
        )
    return iterate, ContractionReport(converged, iterations, distances, lambdas, notes)


# --- ETDRK4 on the differential form ----------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # overflowing terms: see the limits
def _etdrk4_coeffs(z: np.ndarray, dt: float):
    """Exponential-integrator coefficients Q, f1, f2, f3 for nodes z = dt*c.

    Entire functions of z, each the mean over 32 points of a unit circle
    around its node (a full circle: a complex symbol has no conjugate
    symmetry).  One pass adds each point's terms in a fixed order, 8 points
    to a group sum and each group to the totals (as accurate as numpy's
    pairwise mean), so a node's coefficients are its own to the bit.  The
    products with exp(r) call np.multiply: from 256 KiB, `a * temporary`
    runs in place as `temporary * a`, which rounds differently.  Past
    |z| ~ 1.3e154, or at a symbol of -inf, a term is 0*inf or inf/inf:
    where exp(z) is 0, the coefficients take their limits, to within 4/|z|
    relative; elsewhere such a node stays nan.
    """
    z = np.asarray(z, dtype=complex)
    sums, group = np.zeros((2, 4, len(z)), dtype=complex)
    for k, theta in enumerate(2.0 * np.pi * (np.arange(32) + 0.5) / 32):
        r = z + np.exp(1j * theta)
        er, r2, r3 = np.exp(r), r**2, r**3
        group[0] += (np.exp(r / 2.0) - 1.0) / r
        group[1] += (-4.0 - r + np.multiply(er, 4.0 - 3.0 * r + r2)) / r3
        group[2] += (2.0 + r + np.multiply(er, -2.0 + r)) / r3
        group[3] += (-4.0 - 3.0 * r - r2 + np.multiply(er, 4.0 - r)) / r3
        if k % 8 == 7:
            sums += group
            group.fill(0.0)
    Q, f1, f2, f3 = np.multiply(sums, dt / 32, out=sums)
    lost = ~np.isfinite(f1 + f2 + f3) & (np.exp(z.real) == 0.0)
    q = -dt / z[lost]  # the limit of Q and f3; f1's is q/z and f2's -q/z
    Q[lost], f1[lost], f2[lost], f3[lost] = q, q / z[lost], -q / z[lost], q
    return Q, f1, f2, f3


def etdrk4_solve(u0: SpectralField, phi: symbols.PhaseFunction, T: float,
                 dt: float, nonlinear: bool = True, snapshot_stride: int = 1):
    """Fourth-order exponential time differencing on the differential form.

    Checks T (an integer multiple of dt), dt and the stride and sets up the
    coefficients at the call, then returns a stream that yields
    (step, t, field) at step 0 (a copy of u0), every snapshot_stride-th step
    and the last, each a fresh full spectrum that the caller may keep.  With
    nonlinear=False each step is exactly the flow multiplier; NaN or
    overflow aborts at its step.

    The state is the kept modes of _advection: modes 0..N/2 through
    irfft/rfft for a real flow, every mode through ifft/fft for a complex
    one.  The four stages run on the band only, with E and E2 (one
    flow_multiplier call) cut to it and Q, f1, f2, f3 each band node's own
    (_etdrk4_coeffs, at their limits where E is 0); above the band the
    advection term is zero, so each step multiplies those modes by E alone,
    and the finiteness check covers the whole kept row.  The stages run in
    preallocated band-width buffers, E2*v and 2*f2 computed once, with every
    product and sum in the operand order of the plain formulas, so the band
    is bitwise that of the allocating full-width scheme, and the modes above
    it are its values (its E*v + 0 may differ in the sign of an exact zero).
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
    keep, tail, advect, _ = _advection(grid, is_real)
    E, E2 = symbols.flow_multiplier(phi, (dt, dt / 2.0), grid, is_real)
    E_tail = E[tail]
    E, E2 = np.delete(E, tail), np.delete(E2, tail)
    xi, xi_odd = np.delete(grid.xi[keep], tail), np.delete(grid.xi_odd[keep], tail)
    c = 1j * xi_odd**3 + phi.eta * symbols.phase_eval(phi, xi)
    z = c.real * dt + 1j * c.imag * dt
    Q, f1, f2, f3 = _etdrk4_coeffs(z, dt)
    twice_f2 = 2.0 * f2

    def N(v, out):
        # the advection term into out, or zero for the linear flow
        return advect(v, out) if nonlinear else out.fill(0.0)

    def rows():
        yield 0, 0.0, SpectralField(grid, u0.coeffs.copy(), is_real)
        # the kept row as its band, then the modes above the band, which
        # each step multiplies by E alone
        kept = u0.coeffs[keep]
        v = np.concatenate((np.delete(kept, tail), kept[tail]))
        v_band, above = v[:len(E)], v[len(E):]
        E2v, a, b, cc, Nv, Na, Nb, Nc, tmp = np.empty((9, len(E)), dtype=complex)
        finite = np.empty(len(v), dtype=bool)
        for step in range(1, steps + 1):
            # the four stages in the order of Cox & Matthews, each in its buffer
            N(v_band, Nv)
            np.multiply(E2, v_band, out=E2v)
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
            np.multiply(E, v_band, out=v_band)
            v_band += np.multiply(f1, Nv, out=tmp)
            np.add(Na, Nb, out=tmp)
            v_band += np.multiply(twice_f2, tmp, out=tmp)
            v_band += np.multiply(f3, Nc, out=tmp)
            np.multiply(E_tail, above, out=above)
            if not np.isfinite(v, out=finite).all():
                raise NumericalError(f"ETDRK4 lost finiteness at step {step}")
            if step % snapshot_stride == 0 or step == steps:  # a new row
                row = _splice(v_band, tail, np.empty(keep.stop, dtype=complex))
                row[tail] = above
                yield step, step * dt, SpectralField(
                    grid, _full_spectrum(row, grid.n, is_real), is_real)

    return rows()


def dissipation_residuals(rows, eta: float) -> np.ndarray:
    """Per-step residual of the energy balance for the Burgers-type symbol.

    For Phi(xi) = -xi^2 the exact semi-discrete identity is
    d/dt ||u||^2 = -2*eta*||u_x||^2 (the advection term is a total
    derivative and drops out).  rows are (step, t, field) rows, as
    etdrk4_solve yields them; returned is, for each step between two rows,

        | (E_{n+1} - E_n)/dt + eta*(D_n + D_{n+1}) | / E_n

    with E = ||u||^2 and D = L * sum xi^2 |c_k|^2 (trapezoid in time on D),
    ||u_x||^2 but at the Nyquist mode, which the flow damps at grid.xi.
    Each row is reduced to its E and D as it arrives, so the rows are read
    as a stream and only the previous row's t, E and D are held.
    """
    residuals = []
    previous = None
    for _, t, f in rows:
        power = np.abs(f.coeffs) ** 2
        E = f.grid.length * np.sum(power)
        D = f.grid.length * (power @ f.grid.xi**2)
        if previous is not None:
            t0, E0, D0 = previous
            res = abs((E - E0) / (t - t0) + eta * (D0 + D))
            residuals.append(res / E0 if E0 > 0 else 0.0)
        previous = t, E, D
    return np.array(residuals)


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
