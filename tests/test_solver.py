"""Time evolution: semigroup, Picard contraction, ETDRK4, existence times."""

import math
import tracemalloc

import numpy as np
import pytest

from dklb import norms, symbols
from dklb.errors import BoundError, NumericalError
from dklb.fields import gaussian, normalize_l2, random_mixture
from dklb.grid import (
    SpectralField,
    SpectralGrid,
    dealiased_product,
    from_values,
    l2_norm,
    multiplier_preserves_real,
    to_values,
)
from dklb.norms import (
    A2,
    A3,
    _block_rows,
    hs_norm,
    lambda_diagnostics,
    sup_hs_norm,
    verify_smoothing,
)
from dklb.solver import (
    _advection,
    _etdrk4_coeffs,
    _full_spectrum,
    dissipation_residuals,
    etdrk4_solve,
    existence_time,
    nonlinearity,
    picard_solve,
)

from conftest import (
    derivative,
    final_field,
    flow_table,
    flowed,
    hermitian_defect,
)


def _coeffs(rows):
    # the spectra of gathered (step, t, field) rows as one (rows, N) array
    return np.array([f.coeffs for _, _, f in rows])


def test_semigroup_at_zero_is_identity(grid256, kdvks_phi, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    g = flowed(f, kdvks_phi, 0.0)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_semigroup_law(grid256, kdvks_phi, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    ab = flowed(flowed(f, kdvks_phi, 0.2), kdvks_phi, 0.1)
    direct = flowed(f, kdvks_phi, 0.3)
    num = np.max(np.abs(ab.coeffs - direct.coeffs))
    assert num <= 1e-12 * max(1.0, np.max(np.abs(direct.coeffs)))


def test_semigroup_pure_mode_decay(grid256, kdvb_phi):
    k = 2 * np.pi / grid256.length
    mode = np.where(grid256.modes == 1, 0.5, 0.0) + np.where(
        grid256.modes == -1, 0.5, 0.0)
    f = SpectralField(grid256, mode.astype(complex), True)
    for t in (0.2, 1.0):
        g = flowed(f, kdvb_phi, t)
        assert l2_norm(g) == pytest.approx(
            l2_norm(f) * math.exp(-t * k**2), rel=1e-12)


def test_semigroup_rejects_negative_time(grid256, kdvks_phi):
    with pytest.raises(ValueError):
        symbols.flow_multiplier(kdvks_phi, -0.1, grid256)


def test_nonlinearity_of_zero(grid256):
    z = SpectralField(grid256, np.zeros(grid256.n, dtype=complex), True)
    assert np.max(np.abs(nonlinearity(z).coeffs)) == 0.0


def test_nonlinearity_of_sine():
    # u u_x for u = sin(x) is (1/2) sin(2x); the solver feeds it negated
    grid = SpectralGrid(128, 2 * np.pi)
    f = from_values(grid, np.sin(grid.x))
    expect = -0.5 * np.sin(2 * grid.x)
    assert np.max(np.abs(to_values(nonlinearity(f)) - expect)) <= 1e-12


def test_nonlinearity_forms_agree(grid256, rng):
    # -1/2 d/dx (u^2) and -u u_x coincide on dealiased products
    c = np.zeros(grid256.n, dtype=complex)
    band = 20
    lo = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    c[1:band // 2 + 1] = lo[:band // 2]
    c[-(band // 2):] = np.conj(lo[:band // 2][::-1])
    f = SpectralField(grid256, c, True)
    a = nonlinearity(f)
    b = dealiased_product(f, derivative(f)) * (-1.0)
    scale = max(1.0, np.max(np.abs(a.coeffs)))
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10 * scale


def _band_limited(grid, rng, band=20):
    # a real field whose modes lie well inside the dealias band
    c = np.zeros(grid.n, dtype=complex)
    lo = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    c[1:band + 1] = lo
    c[-band:] = np.conj(lo[::-1])
    c[0] = rng.standard_normal()
    return c


@pytest.mark.parametrize("real", [True, False])
def test_advection_conserves_l2(grid256, rng, real):
    # <u, -1/2 (P u^2)_x> = 1/2 <u_x, u^2> = 0 for real u in the band; a
    # constant phase times a real field keeps the real part of it zero, so
    # the complex kernel is tried on genuinely complex data
    for _ in range(5):
        c = _band_limited(grid256, rng)
        if not real:
            c = c * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        nl = nonlinearity(SpectralField(grid256, c, real)).coeffs
        inner = np.vdot(c, nl).real
        scale = (np.vdot(c, c).real * np.max(np.abs(grid256.xi))
                 * np.max(np.abs(np.fft.ifft(c) * grid256.n)))
        assert abs(inner) <= 1e-15 * scale, (inner, scale)


def test_real_nonlinearity_is_hermitian_and_matches_the_complex_path(grid256, rng):
    for _ in range(5):
        f = from_values(grid256, rng.standard_normal(grid256.n))
        real = nonlinearity(f)
        assert real.is_real
        assert hermitian_defect(real.coeffs) == 0.0
        cplx = nonlinearity(SpectralField(grid256, f.coeffs, False))
        scale = np.max(np.abs(cplx.coeffs))
        assert np.max(np.abs(real.coeffs - cplx.coeffs)) <= 1e-14 * scale


def test_full_spectrum_extends_half_spectra_exactly(grid256, rng):
    x = rng.standard_normal((2, grid256.n))
    half = np.fft.rfft(x) / grid256.n
    full = _full_spectrum(half, grid256.n, True)
    assert np.array_equal(full[:, : grid256.n // 2 + 1], half)
    for row in full:
        assert hermitian_defect(row) == 0.0
    assert np.allclose(full, np.fft.fft(x) / grid256.n, rtol=0.0, atol=1e-14)
    c = full[0] * 1j
    assert _full_spectrum(c, grid256.n, False) is c


def test_nonlinearity_matches_the_dealiased_product(rng):
    # the kernel against -1/2 d/dx of grid.dealiased_product on full-band
    # data, real and complex
    grid = SpectralGrid(256, 40.0)
    f = from_values(grid, rng.standard_normal(grid.n))
    for u in (f, from_values(grid, rng.standard_normal(grid.n)
                             + 1j * rng.standard_normal(grid.n))):
        ref = derivative(dealiased_product(u, u)) * (-0.5)
        got = nonlinearity(u)
        assert got.is_real == ref.is_real == u.is_real
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-14 * scale


def test_picard_memory_stays_small(kdvks_phi):
    # the two-routes benchmark problem.  A real flow's iterate stays on modes
    # 0..N/2, 2.1 MiB, and is the one (nt+1)-row array: the first iterate is
    # formed node by node by the semigroup law, and each sweep rebuilds the
    # linear part's band one row at a time.  Each sweep's block buffers of
    # _block_rows(2048) = 8 rows live for that sweep and the diagnostics' for
    # theirs; the sweep reads the old band in the iterate and forms the step
    # and its powers in the kernel's buffers; and the nodes are returned as
    # they are: 2.88 MiB at the peak, in the sweep.  16-row blocks with a
    # copy of the old band and a buffer of powers peaked at 3.78 MiB; a
    # whole flow table behind the first iterate and the linear part's band
    # held as an (nt+1, band) array at 5.06 MiB; a full-width linear part
    # with block buffers kept across sweeps at 6.11 MiB, four whole arrays
    # (a separate advection term and new iterate) at 9.35 MiB, a (nt+1, N)
    # node buffer, whole-array diagnostics and full spectra returned at
    # 14.6 MiB, and one-row sweeps over full spectra at 26.5 MiB
    grid = SpectralGrid(2048, 40.0)
    u0 = normalize_l2(random_mixture(grid, np.random.default_rng(1)), 0.1)
    tracemalloc.start()
    try:
        _, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=128, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iterations == 3
    assert peak <= 3.0 * 2**20, peak / 2**20


def _sweep_bound(grid, nt):
    # what Picard's traced peak may hold at once, in bytes: the (nt+1, N/2+1)
    # iterate; the run's rows: the flow multipliers at dt, 2dt and 3dt on
    # the kept modes and on the band, the six quadrature weights and the
    # linear part's three band rows, and the grid's cached wavenumbers and
    # dealias mask; the sweep's buffers in blocks of _block_rows(N) rows:
    # the advection terms (two rows more) and new rows on the band, and the
    # kernel's spectra and node values, which also hold each block's step
    # and its H^s powers; and numpy's iteration buffers for one broadcast
    # product, np.getbufsize() entries for each of three operands.  The
    # diagnostics' block buffers are never alive with the sweep's
    rows, n = _block_rows(grid.n), grid.n
    kept = n // 2 + 1
    tail = grid.dealias_tail(True)
    band = kept - (tail.stop - tail.start)
    c, f = 16, 8  # bytes of a complex and of a float entry
    return ((nt + 1) * kept * c
            + (3 * kept + 12 * band) * c + 3 * n * f + n
            + (2 * rows + 2) * band * c + rows * (kept * c + n * f)
            + 3 * np.getbufsize() * c)


def _picard_peak(u0, phi, nt):
    tracemalloc.start()
    try:
        _, rep = picard_solve(u0, phi, T=0.1, nt=nt, tol=0.0, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iterations == 3
    return peak


def test_picard_peak_is_bounded_by_its_arrays(kdvks_phi):
    # at n = 4096 and nt = 64, in blocks of _block_rows(4096) = 4 rows, the
    # traced peak is 3.16 MiB in the sweep, under _sweep_bound's 3.32 MiB.
    # With 16-row blocks, a copy of the old band and a buffer of powers it
    # peaked at 5.28 MiB; with the linear part's band held as an (nt+1,
    # band) array at 6.52 MiB, and a full-width linear part with the
    # sweep's buffers held across sweeps at 8.19 MiB
    grid = SpectralGrid(4096, 40.0)
    assert _block_rows(grid.n) == 4
    u0 = normalize_l2(random_mixture(grid, np.random.default_rng(1)), 0.1)
    peak = _picard_peak(u0, kdvks_phi, 64)
    bound = _sweep_bound(grid, 64)
    assert peak <= bound, (peak / 2**20, bound / 2**20)


def test_picard_sweep_buffers_stay_block_sized_at_n_8192(kdvks_phi):
    # beyond its iterate Picard's traced peak holds O(rows * n) bytes, flat
    # in nt: at n = 8192 in blocks of 4 rows, 1.90 MiB at nt = 16 and at
    # nt = 128, 7.6 blocks of 4 rows of N doubles, and within _sweep_bound.
    # In 16-row blocks, with a copy of the old band and a buffer of powers,
    # it was 5.9 MiB, 23 such blocks
    grid = SpectralGrid(8192, 40.0)
    rows = _block_rows(grid.n)
    assert rows == 4
    u0 = normalize_l2(random_mixture(grid, np.random.default_rng(1)), 0.1)
    block = rows * grid.n * 8
    grid.xi_odd, grid.dealias_mask  # cached on the grid by the first run
    extra = []
    for nt in (16, 128):
        peak = _picard_peak(u0, kdvks_phi, nt)
        assert peak <= _sweep_bound(grid, nt), (nt, peak / 2**20)
        extra.append(peak - (nt + 1) * (grid.n // 2 + 1) * 16)
    assert max(extra) <= 10 * block, [e / block for e in extra]
    assert abs(extra[1] - extra[0]) <= block / 4, [e / block for e in extra]


def _picard_fields(nodes, grid):
    # Picard's kept-mode nodes as fields: half spectra are a real flow's,
    # extended to full spectra
    real = nodes.shape[-1] < grid.n
    return [SpectralField(grid, row, real)
            for row in _full_spectrum(nodes, grid.n, real)]


def _full_width_advection(grid, real):
    # the kernel before the band: the band masked into a whole kept row, one
    # transform pair along the last axis, and a gain that is zero above the
    # band applied to every kept mode
    n = grid.n
    keep = n // 2 + 1 if real else n
    to_nodes, to_modes = (np.fft.irfft, np.fft.rfft) if real else (np.fft.ifft, np.fft.fft)
    mask = grid.dealias_mask[:keep]
    gain = mask * (-0.5j * grid.xi_odd[:keep]) / n

    def advect(v):
        u = to_nodes(np.where(mask, v, 0.0), n, norm="forward")
        return gain * to_modes(u * u)

    return advect


def _kept_rows(band, tail, kept):
    # band rows widened to kept rows, zero at the entries tail
    rows = np.zeros(band.shape[:-1] + (kept,), dtype=complex)
    rows[..., np.delete(np.arange(kept), tail)] = band
    return rows


def _assert_band_bitwise(got, want, tail):
    # the band to the bit; above it the values, where an exact zero's sign
    # may differ (x + 0.0 and x + -0.0 differ only when x is a zero)
    assert got.shape == want.shape
    assert (np.delete(got, tail, axis=-1).tobytes()
            == np.delete(want, tail, axis=-1).tobytes())
    assert np.array_equal(got[..., tail], want[..., tail])


@pytest.mark.parametrize("name", ["kdvks", "optimality:3"])
def test_batched_sweep_is_bitwise_the_per_row_kernel(grid256, monkeypatch, name):
    # Picard's sweep transforms its nodes in blocks of _block_rows(256) = 16
    # rows; with the one-row kernel called node by node every iterate,
    # distance and diagnostic must be the same to the bit, on the real route
    # (kdvks) and the complex one (optimality:3), with 17 and 35 nodes,
    # whose last blocks hold 1 and 3 rows
    import dklb.solver

    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    runs = {nt: picard_solve(u0, phi, 0.1, nt=nt, max_iter=3) for nt in (16, 34)}
    advection = dklb.solver._advection

    def per_row(grid, real, rows=()):
        keep, tail, _, buffers = advection(grid, real, rows)
        advect = _full_width_advection(grid, real)

        def each(v, out):
            for band, term in zip(v, out):
                term[...] = np.delete(advect(_kept_rows(band, tail, keep.stop)), tail)
            return out

        return keep, tail, each, buffers

    monkeypatch.setattr(dklb.solver, "_advection", per_row)
    for nt, (blocked, report) in runs.items():
        oracle, oracle_report = picard_solve(u0, phi, 0.1, nt=nt, max_iter=3)
        kept = grid256.n // 2 + 1 if name == "kdvks" else grid256.n
        assert blocked.shape == (nt + 1, kept)
        assert np.array_equal(blocked, oracle)
        assert report.iterate_distances == oracle_report.iterate_distances
        assert report.lambda_values == oracle_report.lambda_values


@pytest.mark.parametrize("name", ["kdvks", "optimality:3"])
def test_block_height_changes_no_bit(grid256, rng, monkeypatch, name):
    # every row block follows norms._block_rows, and the height changes no
    # row's arithmetic: Picard's nodes and report (distances and lambdas,
    # with the |xi|^s-gained maps at s = 0.5) and the ensemble ratios of
    # both nestings are the same to the bit in blocks of 4, 8 and 16 rows
    # and in one whole block, on a real flow (kdvks) and a complex one
    # (optimality:3).  129, 35 and 17 nodes end in partial blocks of 1, 3
    # and 1 rows at every height
    phi = symbols.preset(name)
    u0 = _rough_data(grid256, rng)

    def runs():
        out = []
        for nt in (128, 34, 16):
            nodes, report = picard_solve(u0, phi, 0.1, nt=nt, tol=0.0, max_iter=3, s=0.5)
            out.append((nodes.tobytes(), report))
            for check in ("C2", "P_inf"):
                rep = verify_smoothing(check, phi, grid=grid256, size=3, nt=nt, s=0.5)
                out.append(rep.ratios.tobytes())
        return out

    monkeypatch.setattr(norms, "_block_rows", lambda n: 1 << 30)
    whole = runs()
    for height in (4, 8, 16):
        monkeypatch.setattr(norms, "_block_rows", lambda n, height=height: height)
        assert runs() == whole, height


def test_block_rows_hold_about_2_to_the_14_nodes():
    # 16 rows up to n = 1024, then 2**14 // n, and at least 4 rows
    assert [_block_rows(2**k) for k in range(4, 18)] == [16] * 7 + [8] + [4] * 6


def _four_array_picard(u0, phi, T, nt, max_iter, s=0.0):
    # the sweep the banded in-place one replaced: the linear part, the
    # advection term of every node and two iterates, each a whole
    # (nt+1, kept) array in full-width arithmetic, and the distance the
    # whole-array sup_hs_norm of their difference.  The linear part runs
    # from u0 node by node by the semigroup law, times M1 at each step
    grid, dt = u0.grid, T / nt
    real = u0.is_real and phi.is_even
    keep = grid.n // 2 + 1 if real else grid.n
    advect = _full_width_advection(grid, real)
    M1, M2, M3 = symbols.flow_multiplier(phi, np.arange(1, 4) * dt, grid, real)
    linear = np.empty((nt + 1, keep), dtype=complex)
    linear[0] = u0.coeffs[:keep]
    for k in range(1, nt + 1):
        linear[k] = linear[k - 1] * M1
    simpson = (dt / 3.0 * M2, 4.0 * dt / 3.0 * M1, dt / 3.0)
    three_eighths = (3.0 * dt / 8.0 * M3, 9.0 * dt / 8.0 * M2,
                     9.0 * dt / 8.0 * M1, 3.0 * dt / 8.0)
    current = linear.copy()
    distances, lambdas = [], []
    for _ in range(max_iter):
        nl = advect(current)
        new = linear.copy()
        new[1] += dt / 2.0 * M1 * nl[0]
        new[1] += dt / 2.0 * nl[1]
        run = np.zeros_like(new[0])
        for m in range(0, nt, 2):
            if m + 3 <= nt:
                new[m + 3] += M3 * run
                for w, row in zip(three_eighths, nl[m:m + 4]):
                    new[m + 3] += w * row
            run = M2 * run
            for w, row in zip(simpson, nl[m:m + 3]):
                run += w * row
            new[m + 2] += run
        distances.append(sup_hs_norm(grid, new - current, s))
        lambdas.append(lambda_diagnostics(grid, phi, np.linspace(0.0, T, nt + 1), new, s))
        current = new
    return current, distances, lambdas


@pytest.mark.parametrize("name", ["kdvks", "optimality:3"])
def test_in_place_sweep_is_bitwise_the_four_array_sweep(grid256, name):
    # the sweep overwrites its iterate's band block by block; against whole
    # arrays every node, distance and diagnostic is the same to the bit.
    # The node counts end in blocks of 3, 5, 15, 1, 3, 15, 1, 3 and 1 rows,
    # and at nt = 64 the two rows of terms carried into a block are carried
    # four times
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    tail = grid256.dealias_tail(phi.is_even)
    for nt in (2, 4, 14, 16, 18, 30, 32, 34, 64):
        nodes, report = picard_solve(u0, phi, 0.1, nt=nt, tol=0.0, max_iter=3)
        oracle, distances, lambdas = _four_array_picard(u0, phi, 0.1, nt, 3)
        assert report.iterations == 3
        _assert_band_bitwise(nodes, oracle, tail)
        assert report.iterate_distances == distances, nt
        assert report.lambda_values == lambdas, nt


# symbols and damping strengths whose flows the band is tried on: kdvb at
# eta = 1e-3 keeps every mode above the band alive to the last step, and
# optimality:2 is complex
BAND_CASES = [("kdvks", 1.0), ("ost", 1.0), ("kdvb", 1e-3), ("optimality:2", 1.0)]


def _rough_data(grid, rng):
    # real data with every mode nonzero, the ones above the band included
    return normalize_l2(from_values(grid, rng.standard_normal(grid.n)), 0.5)


@pytest.mark.parametrize("name, eta", BAND_CASES)
@pytest.mark.parametrize("nt", [128, 34, 16])
def test_picard_on_the_band_is_bitwise_the_full_width_sweep(grid256, rng, name, eta, nt):
    # the band is swept and the modes above it hold the linear flow; against
    # the full-width sweep the band is the same to the bit, the modes above
    # it the same values, and every distance and diagnostic the same to the
    # bit.  129, 35 and 17 nodes end in blocks of 1, 3 and 1 rows
    phi = symbols.preset(name, eta)
    u0 = _rough_data(grid256, rng)
    tail = grid256.dealias_tail(phi.is_even)
    nodes, report = picard_solve(u0, phi, 0.1, nt=nt, tol=0.0, max_iter=3)
    oracle, distances, lambdas = _four_array_picard(u0, phi, 0.1, nt, 3)
    _assert_band_bitwise(nodes, oracle, tail)
    if eta < 1.0:
        assert np.all(nodes[-1, tail] != 0.0)
    assert report.iterate_distances == distances
    assert report.lambda_values == lambdas


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
def test_picard_linear_part_drifts_from_the_flow_table_by_nt_ulps(grid256, rng,
                                                                   monkeypatch, name):
    # with a zero advection kernel every node is the linear part, which
    # runs from u0 node by node, times the flow multiplier at dt; against
    # u0 times the multiplier evaluated at each node's time, on a real flow
    # (kdvks) and a complex one (optimality:2), each node stays within nt
    # ulps of its row's largest entry: 98 and 56 ulps measured at nt = 128.
    # Both sides also carry the rounding of the phase t*xi^3 itself, which
    # the damping keeps small against the row's largest entry here
    import dklb.solver

    advection = dklb.solver._advection

    def zero(grid, real, rows=()):
        keep, tail, _, buffers = advection(grid, real, rows)
        return keep, tail, lambda v, out: out.fill(0.0) or out, buffers

    monkeypatch.setattr(dklb.solver, "_advection", zero)
    phi = symbols.preset(name)
    u0 = _rough_data(grid256, rng)
    T, nt = 0.1, 128
    real = phi.is_even
    nodes, report = picard_solve(u0, phi, T, nt=nt)
    assert report.converged and report.iterate_distances == [0.0]
    exact = u0.coeffs[:nodes.shape[1]] * symbols.flow_multiplier(
        phi, np.linspace(0.0, T, nt + 1), grid256, real)
    assert nodes.shape == exact.shape
    drift = np.max(np.abs(nodes - exact), axis=1)
    ulp = np.finfo(float).eps * np.max(np.abs(exact), axis=1)
    assert np.all(drift <= nt * ulp), np.max(drift / ulp)


def test_picard_refuses_an_infinite_lambda_constant_before_any_work(grid256,
                                                                    monkeypatch):
    # the lambda constants depend on phi, T and s alone: on kdvb at
    # eta = 710, exp(eta*T) overflows at T = 1, and picard_solve refuses
    # them before it builds a flow multiplier or calls the kernel
    import dklb.solver

    def never(*args, **kwargs):
        raise AssertionError("work done before the lambda constants")

    monkeypatch.setattr(dklb.solver, "_advection", never)
    monkeypatch.setattr(symbols, "flow_multiplier", never)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    with pytest.raises(BoundError, match=r"^the bound constant A\(2\.0, 4\.0, 0\.0\)"):
        picard_solve(u0, symbols.preset("kdvb", 710.0), 1.0, nt=64)


def _simpson_weights(i: int, dt: float) -> np.ndarray:
    # quadrature weights over nodes 0..i for int_0^{t_i}: composite Simpson
    # for even i, Simpson on the first i-3 panels plus a 3/8 tail for odd
    # i >= 3, a trapezoid at i = 1
    w = np.zeros(i + 1)
    if i == 0:
        return w
    if i == 1:
        w[:2] = dt / 2.0
        return w
    if i % 2 == 0:
        w[0] = w[i] = dt / 3.0
        w[1:i:2] = 4.0 * dt / 3.0
        w[2:i:2] = 2.0 * dt / 3.0
        return w
    head = i - 3
    if head:
        w[0] = dt / 3.0
        w[1:head:2] = 4.0 * dt / 3.0
        w[2:head:2] = 2.0 * dt / 3.0
        w[head] = dt / 3.0
    w[head] += 3.0 * dt / 8.0
    w[head + 1] += 9.0 * dt / 8.0
    w[head + 2] += 9.0 * dt / 8.0
    w[i] += 3.0 * dt / 8.0
    return w


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
def test_picard_sweep_matches_the_loop_reference(grid256, name):
    # one Duhamel sweep of the linear flow, summed term by term over (i, j)
    # on full spectra with grid.dealiased_product and the exact multiplier
    # of every node separation, against max_iter=1; nt = 2 has no odd node,
    # and node 3 is a 3/8 tail with an empty Simpson head
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    T = 0.1
    # the sums run in another order and compound the multipliers, and the
    # iterate carries the rounding of the linear part it is added to
    floor = 1e-14 * np.max(np.abs(u0.coeffs))
    for nt in (2, 4, 6, 16):
        dt = T / nt
        nodes, _ = picard_solve(u0, phi, T, nt=nt, max_iter=1)
        snapshots = _picard_fields(nodes, grid256)
        mults = [symbols.flow_multiplier(phi, k * dt, grid256) for k in range(nt + 1)]
        linear = [u0.coeffs * m for m in mults]
        nl = [-0.5 * derivative(dealiased_product(f, f)).coeffs
              for f in (SpectralField(grid256, c, snapshots[0].is_real) for c in linear)]
        for i in range(nt + 1):
            w = _simpson_weights(i, dt)
            ref = np.zeros(grid256.n, dtype=complex)
            for j in range(i + 1):
                ref += w[j] * mults[i - j] * nl[j]
            got = snapshots[i].coeffs - linear[i]
            assert (np.max(np.abs(got - ref))
                    <= floor + 1e-12 * np.max(np.abs(ref))), (name, nt, i)


def _allocating_etdrk4(u0, phi, T, dt, nonlinear):
    # ETDRK4 on the kept modes with a fresh array for every operation: the
    # stepper whose trajectory the in-place stages must reproduce bit for bit
    grid, n = u0.grid, u0.grid.n
    real = u0.is_real and phi.is_even
    keep = slice(0, n // 2 + 1) if real else slice(0, n)
    to_nodes, to_modes = (np.fft.irfft, np.fft.rfft) if real else (np.fft.ifft, np.fft.fft)
    mask = grid.dealias_mask[keep]
    gain = mask * (-0.5j * grid.xi_odd[keep]) / n

    def N(v):
        if not nonlinear:
            return np.zeros_like(v)
        u = to_nodes(np.where(mask, v, 0.0), n) * n
        return gain * to_modes(u * u)

    E = symbols.flow_multiplier(phi, dt, grid)[keep]
    E2 = symbols.flow_multiplier(phi, dt / 2.0, grid)[keep]
    c = 1j * grid.xi_odd[keep]**3 + phi.eta * symbols.phase_eval(phi, grid.xi[keep])
    z = c.real * dt + 1j * c.imag * dt
    Q, f1, f2, f3 = _etdrk4_coeffs(z, dt)
    v = u0.coeffs[keep]
    rows = []
    for _ in range(int(round(T / dt))):
        Nv = N(v)
        a = E2 * v + Q * Nv
        Na = N(a)
        b = E2 * v + Q * Na
        Nb = N(b)
        cc = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = N(cc)
        v = E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc
        rows.append(v)
    return np.vstack([u0.coeffs, _full_spectrum(np.array(rows), n, real)])


@pytest.mark.parametrize("name, eta", BAND_CASES)
@pytest.mark.parametrize("nonlinear", [True, False])
def test_etdrk4_on_the_band_is_bitwise_the_full_width_stepper(grid256, rng, name,
                                                              eta, nonlinear):
    # the stages run on the band and the modes above it take the flow
    # multiplier alone; against the full-width stepper every row is the same
    # to the bit on the band and the same values above it
    phi = symbols.preset(name, eta)
    u0 = _rough_data(grid256, rng)
    ref = _allocating_etdrk4(u0, phi, 0.05, 0.0025, nonlinear)
    rows = _coeffs(etdrk4_solve(u0, phi, T=0.05, dt=0.0025, nonlinear=nonlinear))
    tail = grid256.dealias_tail(False)  # the rows are full spectra
    _assert_band_bitwise(rows, ref, tail)
    if eta < 1.0:
        assert np.all(rows[-1, tail] != 0.0)


@pytest.mark.parametrize("T", [250.0, 1000.0])
def test_linear_etdrk4_is_the_flow_over_long_horizons(grid256, kdvks_phi, T):
    # kdvks grows like exp(t/4) on its unstable band: each ETDRK4 step grows
    # by at most exp(0.125), while the flow at T grows by exp(62.5) or exp(250)
    u0 = gaussian(grid256, width=1.2, amplitude=2.0)
    dt = 0.5
    lin = final_field(etdrk4_solve(u0, kdvks_phi, T, dt, nonlinear=False,
                                   snapshot_stride=int(T / dt)))
    exact = flowed(u0, kdvks_phi, T)
    assert l2_norm(lin - exact) <= 1e-12 * l2_norm(exact)


@pytest.mark.parametrize("name, nonlinear", [("kdvks", True), ("optimality:2", True),
                                             ("kdvb", True), ("kdvks", False)])
def test_etdrk4_is_bitwise_the_allocating_stepper(grid256, name, nonlinear):
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    ref = _allocating_etdrk4(u0, phi, 0.05, 0.0025, nonlinear)
    rows = list(etdrk4_solve(u0, phi, T=0.05, dt=0.0025, nonlinear=nonlinear))
    assert np.array_equal(_coeffs(rows), ref)
    # 20 steps at stride 3 yield steps 3, 6, ..., 18 and the last one
    strided = list(etdrk4_solve(u0, phi, T=0.05, dt=0.0025, nonlinear=nonlinear,
                                snapshot_stride=3))
    assert np.array_equal(_coeffs(strided), ref[[0, 3, 6, 9, 12, 15, 18, 20]])


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
@pytest.mark.parametrize("stride", [1, 3])
def test_etdrk4_stream_rows_are_the_trajectory_rows(grid256, name, stride):
    # each row is a fresh array while the stream runs on, so rows held until
    # the stream ends are still the steps they were yielded at; a row that
    # shared the stepping buffer would show up as a trajectory of last steps
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    rows = list(etdrk4_solve(u0, phi, 0.05, 0.0025, snapshot_stride=stride))
    steps, times, fields = zip(*rows)
    # 20 steps: stride 3 does not divide them, so the last step is added
    assert list(steps) == sorted({*range(0, 20, stride), 20})
    assert times == tuple(k * 0.0025 for k in steps)
    ref = _allocating_etdrk4(u0, phi, 0.05, 0.0025, True)
    assert np.array_equal(_coeffs(rows), ref[list(steps)])
    assert [f.is_real for f in fields] == [phi.is_even] * len(rows)


def test_etdrk4_coeffs_match_their_taylor_series_near_zero():
    # the contour means need no small-|z| branch: where the direct formulas
    # cancel, they agree with the 4-term Taylor series to rounding
    z = np.concatenate([[0.0], np.linspace(-1e-4, 1e-4, 20),
                        1e-4 * np.linspace(0.05, 1.0, 20)
                        * np.exp(2j * np.pi * np.arange(20) / 20)])
    dt = 0.01
    taylor = (dt * (0.5 + z / 8.0 + z**2 / 48.0 + z**3 / 384.0),
              dt * (1.0 / 6.0 + z / 6.0 + 3.0 * z**2 / 40.0 + z**3 / 45.0),
              dt * (1.0 / 6.0 + z / 12.0 + z**2 / 40.0 + z**3 / 180.0),
              dt * (1.0 / 6.0 - z**2 / 120.0 - z**3 / 360.0))
    for got, want in zip(_etdrk4_coeffs(z, dt), taylor):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15


def _etdrk4_nodes(phi, n, dt):
    # z = dt*c on the kept modes of a flow of real data, as etdrk4_solve
    # forms it: modes 0..N/2 for an even symbol, every mode otherwise
    grid = SpectralGrid(n, 40.0)
    keep = slice(0, n // 2 + 1 if phi.is_even else n)
    c = 1j * grid.xi_odd[keep]**3 + phi.eta * symbols.phase_eval(phi, grid.xi[keep])
    return c.real * dt + 1j * c.imag * dt


@pytest.mark.parametrize("name, n", [(name, n) for name in ("kdvks", "optimality:2")
                                     for n in (64, 2048, 4096)]
                         + [("optimality:2", 16384)])
def test_etdrk4_coeffs_of_a_node_are_its_own(name, n):
    # a node's coefficients are the same bits computed alone as within the
    # whole call, so no batch size moves them.  kdvks keeps 33, 1025 and
    # 2049 modes, the complex flow of optimality:2 all 64, 2048 and 4096,
    # and at n = 16384 arrays of 256 KiB, where numpy forms a product of a
    # temporary in place; about 300 nodes of each call are taken alone
    z = _etdrk4_nodes(symbols.preset(name), n, 1e-3)
    whole = np.array(_etdrk4_coeffs(z, 1e-3))
    nodes = [*range(0, len(z), max(1, len(z) // 300)), len(z) - 1]
    alone = np.array([_etdrk4_coeffs(z[i:i + 1], 1e-3) for i in nodes])
    assert whole.shape == (4, len(z))
    assert np.array_equal(alone[:, :, 0].T, whole[:, nodes])


def _plain_etdrk4_means(z, dt):
    # the contour means on one (nodes, 32) array with numpy's mean, each with
    # the mean of its terms' magnitudes, which bounds any summation order's
    # rounding: the reference for the group sums.  The terms are formed as
    # _etdrk4_coeffs forms them, its products with exp(r) never in place
    r = np.asarray(z, dtype=complex)[:, None] + np.exp(
        1j * 2.0 * np.pi * (np.arange(32) + 0.5) / 32)
    er = np.exp(r)
    terms = ((np.exp(r / 2.0) - 1.0) / r,
             (-4.0 - r + np.multiply(er, 4.0 - 3.0 * r + r**2)) / r**3,
             (2.0 + r + np.multiply(er, -2.0 + r)) / r**3,
             (-4.0 - 3.0 * r - r**2 + np.multiply(er, 4.0 - r)) / r**3)
    return [(dt * np.mean(t, axis=1), dt * np.mean(np.abs(t), axis=1)) for t in terms]


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
def test_etdrk4_coeffs_are_the_plain_means_to_rounding(name):
    # the same 32 terms in another order: two sums of them differ by at most
    # 31 eps times the sum of their magnitudes each, plus the final scaling
    z = _etdrk4_nodes(symbols.preset(name), 2048, 1e-4)
    for got, (want, size) in zip(_etdrk4_coeffs(z, 1e-4), _plain_etdrk4_means(z, 1e-4)):
        assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * size)


def test_etdrk4_coeffs_memory_is_a_few_node_arrays(kdvks_phi):
    # at n = 16384 one (8193, 32) complex array alone is 4 MiB; one pass over
    # the contour points holds its group and total sums and a few
    # node-length temporaries, 1.88 MiB traced
    z = _etdrk4_nodes(kdvks_phi, 16384, 1e-4)
    tracemalloc.start()
    try:
        _etdrk4_coeffs(z, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak / 2**20


@pytest.mark.parametrize("phi", [symbols.PhaseFunction(p=200.0), symbols.kdvb(1e300)],
                         ids=["custom-p200", "kdvb-eta1e300"])
def test_linear_etdrk4_is_the_flow_where_the_contour_terms_overflow(grid256, phi):
    # |z| passes 1.3e154 at modes whose multiplier is exactly 0: the contour
    # terms there are 0*inf or inf/inf, the coefficients take their limits,
    # and E*v + f1*0 stays the flow
    u0 = gaussian(grid256)
    lin = final_field(etdrk4_solve(u0, phi, 1.0, 1.0 / 64, nonlinear=False))
    exact = flowed(u0, phi, 1.0)
    assert l2_norm(lin - exact) <= 1e-10 * l2_norm(exact)


def test_etdrk4_coeffs_take_their_limits_where_exp_z_is_zero():
    # past |z| ~ 1.3e154, or at a symbol of -inf, the contour terms are 0*inf
    # or inf/inf; where exp(z) is 0 each coefficient is its limit, and
    # elsewhere the nan is left to the stepper's finiteness guard
    z = np.array([-np.inf, complex(-np.inf, 5.0), complex(-1e200, 1e180), 1e160j])
    Q, f1, f2, f3 = _etdrk4_coeffs(z, 0.1)
    limit = -0.1 / z[:3]
    assert np.array_equal(Q[:3], limit) and np.array_equal(f3[:3], limit)
    assert np.array_equal(f1[:3], limit / z[:3]) and np.array_equal(f2[:3], -f1[:3])
    assert np.isnan(f1[3])


def test_picard_rejects_no_iterations(grid256, kdvks_phi):
    u0 = gaussian(grid256)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            picard_solve(u0, kdvks_phi, T=0.1, nt=8, max_iter=max_iter)


def test_nonlinearity_has_zero_mean(grid256, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    assert abs(nonlinearity(f).coeffs[0]) <= 1e-14


def test_picard_zero_data_converges_immediately(grid256, kdvks_phi):
    z = SpectralField(grid256, np.zeros(grid256.n, dtype=complex), True)
    nodes, rep = picard_solve(z, kdvks_phi, T=0.1, nt=8)
    assert rep.converged and rep.iterations == 1
    assert nodes.shape == (9, grid256.n // 2 + 1) and np.max(np.abs(nodes)) == 0.0


def test_picard_contraction_on_small_data(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    _, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=64, tol=1e-8)
    assert rep.converged
    assert rep.iterations <= 20
    ratios = rep.distance_ratios
    assert all(r <= 0.9 for r in ratios[1:])
    assert rep.iterate_distances[-1] <= 1e-8
    # diagnostics recorded per iterate
    assert len(rep.lambda_values) == rep.iterations
    assert all(np.isfinite(list(d.values())).all() for d in rep.lambda_values)


def test_picard_matches_etdrk4(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    nodes, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=40, tol=1e-10)
    assert rep.converged
    rows = etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.1 / 40)
    sup = max(l2_norm(a - b) for a, (_, _, b) in zip(_picard_fields(nodes, grid256),
                                                    rows, strict=True))
    assert sup <= 1e-6


@pytest.mark.parametrize("name", ["kdvb", "ost", "optimality:2"])
def test_picard_matches_etdrk4_on_more_symbols(grid256, name):
    # criterion 04's comparison on the real path (kdvb, ost) and the complex
    # path (optimality:2) of the advection kernel
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    nodes, report = picard_solve(u0, phi, 0.1, nt=64, tol=1e-8)
    assert report.converged
    snapshots = _picard_fields(nodes, grid256)
    times = np.linspace(0.0, 0.1, 65)
    sup = 0.0
    for _, t, f in etdrk4_solve(u0, phi, 0.1, 1e-3, snapshot_stride=25):
        i = int(round(t / (0.1 / 64)))
        assert abs(times[i] - t) < 1e-12
        assert snapshots[i].is_real == f.is_real == phi.is_even
        sup = max(sup, l2_norm(snapshots[i] - f))
    assert sup <= 1e-10


def test_picard_reports_nonconvergence(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.0), 40.0)
    nodes, rep = picard_solve(u0, kdvks_phi, T=0.5, nt=16, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert nodes.shape == (17, grid256.n // 2 + 1)  # the last iterate still returned
    assert rep.notes


def test_picard_divergence_names_the_iterate(grid256, kdvks_phi, monkeypatch):
    # a distance between iterates that overflows, or an iterate that does
    # (nan or inf in it makes the distance so too), is Picard's divergence;
    # data whose H^s norm is not finite fail before any iterate
    import dklb.solver

    u0 = normalize_l2(gaussian(grid256, width=1.0), 1e100)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match=r"^Picard iterate 1 diverged: H\^s"):
            picard_solve(u0, kdvks_phi, T=0.5, nt=16)
        with pytest.raises(NumericalError, match=r"^H\^s norm at s=1e\+308"):
            picard_solve(gaussian(grid256), kdvks_phi, T=0.1, nt=4, s=1e308)
    advection = dklb.solver._advection
    calls = []

    def poisoned(grid, real, rows=()):
        # the advection term of the third iterate's last node is nan; each
        # sweep builds its kernel, so the calls are counted across kernels
        keep, tail, advect, buffers = advection(grid, real, rows)

        def nan_at_the_third_sweep(v, out):
            advect(v, out)
            calls.append(len(v))
            if len(calls) == 3:
                out[-1, 7] = np.nan
            return out

        return keep, tail, nan_at_the_third_sweep, buffers

    monkeypatch.setattr(dklb.solver, "_advection", poisoned)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    with pytest.raises(NumericalError, match=r"^Picard iterate 3 diverged: .*\(nan\)"):
        picard_solve(u0, kdvks_phi, T=0.1, nt=8, tol=0.0, max_iter=5)


def test_a_flow_that_overflows_above_the_band_only_fails_in_both_routes():
    # Phi = -xi^2 (xi - 3.5)(xi - 5) is positive only on 3.5 < |xi| < 5,
    # above the band of a 64-mode grid on L = 40, so the linear flow
    # overflows there and nowhere else: ETDRK4's check of the whole row
    # stops it at the step the full-width stepper stopped at, and Picard,
    # whose modes above the band are never swept, fails as its first iterate
    grid = SpectralGrid(64, 40.0)
    phi = symbols.PhaseFunction(4.0, (symbols.PhaseTerm(8.5, 0, 3.0),
                                      symbols.PhaseTerm(-17.5, 0, 2.0)))
    tail = grid.dealias_tail(True)
    assert symbols.phase_eval(phi, grid.xi[:tail.start]).max() <= 0.0
    assert symbols.phase_eval(phi, grid.xi[tail]).max() > 10.0
    u0 = normalize_l2(gaussian(grid, width=1.5), 0.1)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="^ETDRK4 lost finiteness at step 141$"):
            final_field(etdrk4_solve(u0, phi, 100.0, 0.5, snapshot_stride=1000))
        with pytest.raises(NumericalError, match="^Picard iterate 1 diverged: "):
            picard_solve(u0, phi, 100.0, nt=8)


def test_picard_rejects_odd_quadrature(grid256, kdvks_phi):
    u0 = gaussian(grid256)
    with pytest.raises(ValueError):
        picard_solve(u0, kdvks_phi, T=0.1, nt=7)


def test_trajectory_time_grid(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256), 0.1)
    times = [t for _, t, _ in etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.025)]
    assert times[0] == 0.0
    assert len(times) == 5
    assert np.allclose(np.diff(times), 0.025, atol=1e-15)


def test_etdrk4_requires_integral_step_count(grid256, kdvks_phi):
    u0 = gaussian(grid256)
    with pytest.raises(ValueError):
        etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.03)


def test_etdrk4_linear_mode_is_exact(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.2))
    lin = final_field(etdrk4_solve(u0, kdvks_phi, T=0.2, dt=0.01, nonlinear=False))
    ref = flowed(u0, kdvks_phi, 0.2)
    rel = l2_norm(lin - ref) / l2_norm(ref)
    assert rel <= 1e-10


def test_etdrk4_self_convergence_order(kdvks_phi):
    grid = SpectralGrid(128, 40.0)
    u0 = gaussian(grid, width=1.2, amplitude=2.0)
    ref = final_field(etdrk4_solve(u0, kdvks_phi, T=0.1, dt=2.5e-4))
    errs = []
    for dt in (4e-3, 2e-3):
        errs.append(l2_norm(final_field(etdrk4_solve(u0, kdvks_phi, T=0.1, dt=dt))
                            - ref))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.0


def test_etdrk4_snapshot_stride(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256), 0.1)
    dense = list(etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.0125))
    strided = list(etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.0125, snapshot_stride=2))
    assert len(strided) == 5
    assert np.allclose([t for _, t, _ in strided], [t for _, t, _ in dense[::2]],
                       atol=1e-15)
    assert np.array_equal(strided[-1][2].coeffs, dense[-1][2].coeffs)


def test_etdrk4_aborts_on_overflow(grid256, kdvks_phi):
    u0 = gaussian(grid256, width=0.5, amplitude=1e150)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="step"):
            final_field(etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.025))


def test_kdvb_dissipation_identity(grid256, kdvb_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    rows = list(etdrk4_solve(u0, kdvb_phi, T=1.0, dt=0.01))
    res = dissipation_residuals(rows, kdvb_phi.eta)
    norms_sq = np.array([l2_norm(f) ** 2 for _, _, f in rows])
    assert np.all(res <= 1e-4 * norms_sq[1:])
    # second-order damping never creates mass
    assert np.all(np.diff(norms_sq) <= 1e-12)


def _whole_dissipation_residuals(coeffs, times, grid, eta):
    # the energy balance on the whole (rows, N) array, one matrix-vector
    # product for every D: the oracle for the streamed residuals
    power = np.abs(coeffs) ** 2
    E = grid.length * np.sum(power, axis=1)
    D = grid.length * (power @ grid.xi_odd**2)
    res = np.abs((E[1:] - E[:-1]) / np.diff(times) + eta * (D[:-1] + D[1:]))
    return np.where(E[:-1] > 0, res / np.where(E[:-1] > 0, E[:-1], 1.0), 0.0)


def test_streamed_dissipation_residuals_are_the_whole_array_formula(grid256, kdvb_phi):
    # criterion 06's problem.  Each row's D is one dot product, which BLAS
    # sums in another order than the rows of a matrix-vector product, so D
    # moves by a few ulps and the residual by a few ulps of eta*D/E (about
    # 0.2 here): 40 of the 100 residuals differ, by at most 1.2e-16, which
    # is 3.1e-11 of the residual, as E's difference cancels most of D.  E,
    # a pairwise sum either way, is the same to the bit
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    rows = list(etdrk4_solve(u0, kdvb_phi, 1.0, 0.01))
    got = dissipation_residuals(iter(rows), kdvb_phi.eta)
    want = _whole_dissipation_residuals(_coeffs(rows), [t for _, t, _ in rows],
                                        grid256, kdvb_phi.eta)
    assert got.shape == want.shape == (100,)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert len(dissipation_residuals(iter(rows[:1]), kdvb_phi.eta)) == 0


def test_linear_flow_norm_bound(grid256, kdvks_phi, rng):
    # max of Phi on the grid is 1/4 (attained near |xi| = 1/sqrt(2))
    u0 = from_values(grid256, rng.standard_normal(grid256.n))
    t = 1.0
    g = flowed(u0, kdvks_phi, t)
    bound = math.exp(kdvks_phi.eta * t * 0.25) * l2_norm(u0)
    assert l2_norm(g) <= bound * (1 + 1e-12)


def test_existence_time_zero_data(kdvks_phi):
    T0, z0 = existence_time(0.0, kdvks_phi)
    assert T0 == 1.0 and z0 == 0.0


def test_existence_time_aposteriori(kdvks_phi):
    for norm in (0.01, 0.1, 1.0):
        for cstar in (0.5, 1.0, 2.0):
            T0, z0 = existence_time(norm, kdvks_phi, s=0.0, cstar=cstar)
            assert 0 < T0 <= 1.0
            assert z0 == 2.0 * cstar * norm
            budget = A2(kdvks_phi, T0) + A3(kdvks_phi, 0.0, T0)
            assert budget < 1.0 / (2.0 * cstar * z0)


def test_existence_time_monotone(kdvks_phi):
    norms_grid = (0.01, 0.1, 1.0)
    cstars = (0.5, 1.0, 2.0)
    by_norm = [existence_time(n, kdvks_phi)[0] for n in norms_grid]
    assert all(a >= b for a, b in zip(by_norm, by_norm[1:]))
    by_cstar = [existence_time(0.1, kdvks_phi, cstar=c)[0] for c in cstars]
    assert all(a >= b for a, b in zip(by_cstar, by_cstar[1:]))


def test_flow_keeps_real_iff_symbol_is_even():
    # The measured Hermitian symmetry of the flow multiplier is the oracle for
    # the static rule, on grids where the Nyquist mode is barely damped (kdvb
    # at n = 256) and where it is damped least (n = 64).  At t = 0 every flow
    # is the identity, so the times start after it.
    for name in ("kdvb", "ost", "kdvks", "optimality:2"):
        phi = symbols.preset(name)
        for n in (64, 256, 1024):
            grid = SpectralGrid(n, 40.0)
            for t in np.linspace(0.0, 1.0, 49)[1:]:
                m = symbols.flow_multiplier(phi, float(t), grid)
                assert multiplier_preserves_real(grid, m) == phi.is_even, (name, n, t)
            real = normalize_l2(gaussian(grid, width=1.5), 0.1)
            for u0 in (real, real * 1j):
                expect = u0.is_real and phi.is_even
                rows = etdrk4_solve(u0, phi, T=0.01, dt=0.005)
                assert [f.is_real for _, _, f in rows][1:] == [expect] * 2
                nodes, _ = picard_solve(u0, phi, T=0.01, nt=2)
                assert nodes.shape == (3, n // 2 + 1 if expect else n)


def test_real_data_stays_real_under_flow(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    for _, _, f in etdrk4_solve(u0, kdvks_phi, T=0.05, dt=0.0125):
        assert f.is_real
        assert np.isrealobj(to_values(f))


def test_complex_evolution_permitted(grid256):
    phi = symbols.preset("optimality:2")
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    final = final_field(etdrk4_solve(u0, phi, T=0.02, dt=0.005))
    assert not final.is_real
    assert np.all(np.isfinite(final.coeffs))


@pytest.mark.parametrize("name", ["kdvks", "kdvb", "optimality:2"])
def test_linear_etdrk4_rows_are_the_flow_table(grid256, name):
    # with nonlinear=False, every streamed row is u0 under the flow at its
    # time: step k applies the multiplier at dt k times, where the table
    # takes the exponential at k*dt once, so they differ by rounding that
    # grows with k (at most 0.76 ulp of max|u0| per step on these symbols)
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256), 0.3)
    rows = list(etdrk4_solve(u0, phi, 0.2, 0.025, nonlinear=False))
    times = [t for _, t, _ in rows]
    assert times == [k * 0.025 for k in range(9)]
    gap = np.max(np.abs(_coeffs(rows) - flow_table(u0, phi, times)), axis=1)
    ulp = np.finfo(float).eps * np.max(np.abs(u0.coeffs))
    assert np.all(gap <= 2 * np.arange(9) * ulp), gap / ulp
    assert [f.is_real for _, _, f in rows] == [phi.is_even] * 9
