"""Time evolution: semigroup, Picard contraction, ETDRK4, existence times."""

import math
import tracemalloc

import numpy as np
import pytest

from dklb import symbols
from dklb.errors import NumericalError
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
from dklb.norms import A2, A3, hs_norm
from dklb.solver import (
    _advection,
    _etdrk4_coeffs,
    _full_spectrum,
    apply_semigroup,
    dissipation_residuals,
    etdrk4_solve,
    etdrk4_steps,
    existence_time,
    linear_trajectory,
    nonlinearity,
    picard_solve,
)

from conftest import derivative, hermitian_defect


def test_semigroup_at_zero_is_identity(grid256, kdvks_phi, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    g = apply_semigroup(kdvks_phi, 0.0, f)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_semigroup_law(grid256, kdvks_phi, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    ab = apply_semigroup(kdvks_phi, 0.1, apply_semigroup(kdvks_phi, 0.2, f))
    direct = apply_semigroup(kdvks_phi, 0.3, f)
    num = np.max(np.abs(ab.coeffs - direct.coeffs))
    assert num <= 1e-12 * max(1.0, np.max(np.abs(direct.coeffs)))


def test_semigroup_pure_mode_decay(grid256, kdvb_phi):
    k = 2 * np.pi / grid256.length
    mode = np.where(grid256.modes == 1, 0.5, 0.0) + np.where(
        grid256.modes == -1, 0.5, 0.0)
    f = SpectralField(grid256, mode.astype(complex), True)
    for t in (0.2, 1.0):
        g = apply_semigroup(kdvb_phi, t, f)
        assert l2_norm(g) == pytest.approx(
            l2_norm(f) * math.exp(-t * k**2), rel=1e-12)


def test_semigroup_rejects_negative_time(grid256, kdvks_phi):
    f = gaussian(grid256)
    with pytest.raises(ValueError):
        apply_semigroup(kdvks_phi, -0.1, f)


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
        keep, advect = _advection(grid256, real)
        nl = _full_spectrum(advect(c[keep], np.empty(keep.stop, dtype=complex)),
                            grid256.n, real)
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


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
def test_nonlinearity_matches_the_dealiased_product(rng, fraction):
    # the kernel against -1/2 d/dx of grid.dealiased_product on full-band
    # data, real and complex, with and without a live Nyquist mode
    grid = SpectralGrid(256, 40.0, fraction)
    f = from_values(grid, rng.standard_normal(grid.n))
    for u in (f, from_values(grid, rng.standard_normal(grid.n)
                             + 1j * rng.standard_normal(grid.n))):
        ref = derivative(dealiased_product(u, u)) * (-0.5)
        got = nonlinearity(u)
        assert got.is_real == ref.is_real == u.is_real
        scale = np.max(np.abs(ref.coeffs))
        assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-14 * scale


def test_picard_memory_stays_small(kdvks_phi):
    # the two-routes benchmark problem; the parent of the half-spectrum
    # sweep peaked at 26.5 MiB here
    grid = SpectralGrid(2048, 40.0)
    u0 = normalize_l2(random_mixture(grid, np.random.default_rng(1)), 0.1)
    tracemalloc.start()
    try:
        _, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=128, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iterations == 3
    assert peak < 25 * 2**20, peak / 2**20


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
        traj, _ = picard_solve(u0, phi, T, nt=nt, max_iter=1)
        mults = [symbols.flow_multiplier(phi, k * dt, grid256) for k in range(nt + 1)]
        linear = [u0.coeffs * m for m in mults]
        nl = [-0.5 * derivative(dealiased_product(f, f)).coeffs
              for f in (SpectralField(grid256, c, traj.final.is_real) for c in linear)]
        for i in range(nt + 1):
            w = _simpson_weights(i, dt)
            ref = np.zeros(grid256.n, dtype=complex)
            for j in range(i + 1):
                ref += w[j] * mults[i - j] * nl[j]
            got = traj.snapshots[i].coeffs - linear[i]
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


@pytest.mark.parametrize("T", [250.0, 1000.0])
def test_linear_etdrk4_is_the_flow_over_long_horizons(grid256, kdvks_phi, T):
    # kdvks grows like exp(t/4) on its unstable band: each ETDRK4 step grows
    # by at most exp(0.125), while the flow at T grows by exp(62.5) or exp(250)
    u0 = gaussian(grid256, width=1.2, amplitude=2.0)
    dt = 0.5
    lin = etdrk4_solve(u0, kdvks_phi, T, dt, nonlinear=False,
                       snapshot_stride=int(T / dt)).final
    exact = apply_semigroup(kdvks_phi, T, u0)
    assert l2_norm(lin - exact) <= 1e-12 * l2_norm(exact)


@pytest.mark.parametrize("name, nonlinear", [("kdvks", True), ("optimality:2", True),
                                             ("kdvb", True), ("kdvks", False)])
def test_etdrk4_is_bitwise_the_allocating_stepper(grid256, name, nonlinear):
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    ref = _allocating_etdrk4(u0, phi, 0.05, 0.0025, nonlinear)
    traj = etdrk4_solve(u0, phi, T=0.05, dt=0.0025, nonlinear=nonlinear)
    assert np.array_equal(traj.coeffs, ref)
    # 20 steps at stride 3 store steps 3, 6, ..., 18 and the last one
    strided = etdrk4_solve(u0, phi, T=0.05, dt=0.0025, nonlinear=nonlinear,
                           snapshot_stride=3)
    assert np.array_equal(strided.coeffs, ref[[0, 3, 6, 9, 12, 15, 18, 20]])


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
@pytest.mark.parametrize("stride", [1, 3])
def test_etdrk4_stream_rows_are_the_trajectory_rows(grid256, name, stride):
    # each row is copied while the stream runs on, so a row that shares the
    # stepping buffer shows up as a trajectory of last steps
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    rows = [(step, t, f.coeffs.copy(), f.is_real)
            for step, t, f in etdrk4_steps(u0, phi, 0.05, 0.0025,
                                           snapshot_stride=stride)]
    traj = etdrk4_solve(u0, phi, T=0.05, dt=0.0025, snapshot_stride=stride)
    steps, times, coeffs, real = zip(*rows)
    # 20 steps: stride 3 does not divide them, so the last step is added
    assert list(steps) == sorted({*range(0, 20, stride), 20})
    assert times == tuple(k * 0.0025 for k in steps)
    assert np.array_equal(np.array(times), traj.times)
    assert np.array_equal(np.array(coeffs), traj.coeffs)
    assert list(real) == [phi.is_even] * len(traj) and traj.is_real == phi.is_even


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
    traj, rep = picard_solve(z, kdvks_phi, T=0.1, nt=8)
    assert rep.converged and rep.iterations == 1
    assert all(np.max(np.abs(f.coeffs)) == 0.0 for f in traj.snapshots)


def test_picard_contraction_on_small_data(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    traj, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=64, tol=1e-8)
    assert rep.converged
    assert rep.iterations <= 20
    ratios = rep.distance_ratios
    assert all(r <= 0.9 for r in ratios[1:])
    assert rep.iterate_distances[-1] <= rep.tol
    # diagnostics recorded per iterate
    assert len(rep.lambda_values) == rep.iterations
    assert all(np.isfinite(list(d.values())).all() for d in rep.lambda_values)


def test_picard_matches_etdrk4(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    traj_p, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=40, tol=1e-10)
    assert rep.converged
    traj_e = etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.1 / 40)
    sup = max(
        l2_norm(a - b) for a, b in zip(traj_p.snapshots, traj_e.snapshots))
    assert sup <= 1e-6


@pytest.mark.parametrize("name", ["kdvb", "ost", "optimality:2"])
def test_picard_matches_etdrk4_on_more_symbols(grid256, name):
    # criterion 04's comparison on the real path (kdvb, ost) and the complex
    # path (optimality:2) of the advection kernel
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    traj, report = picard_solve(u0, phi, 0.1, nt=64, tol=1e-8)
    assert report.converged
    ref = etdrk4_solve(u0, phi, 0.1, 1e-3, snapshot_stride=25)
    assert traj.final.is_real == ref.final.is_real == phi.is_even
    sup = 0.0
    for k, t in enumerate(ref.times):
        i = int(round(t / (0.1 / 64)))
        assert abs(traj.times[i] - t) < 1e-12
        sup = max(sup, l2_norm(traj.snapshots[i] - ref.snapshots[k]))
    assert sup <= 1e-10


def test_picard_reports_nonconvergence(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.0), 40.0)
    traj, rep = picard_solve(u0, kdvks_phi, T=0.5, nt=16, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert traj.snapshots  # partial trajectory still returned
    assert rep.notes


def test_picard_rejects_odd_quadrature(grid256, kdvks_phi):
    u0 = gaussian(grid256)
    with pytest.raises(ValueError):
        picard_solve(u0, kdvks_phi, T=0.1, nt=7)


def test_trajectory_time_grid(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256), 0.1)
    traj = etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.025)
    assert traj.times[0] == 0.0
    assert len(traj.times) == len(traj.snapshots) == 5
    assert np.allclose(np.diff(traj.times), 0.025, atol=1e-15)


def test_etdrk4_requires_integral_step_count(grid256, kdvks_phi):
    u0 = gaussian(grid256)
    with pytest.raises(ValueError):
        etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.03)


def test_etdrk4_linear_mode_is_exact(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.2))
    traj = etdrk4_solve(u0, kdvks_phi, T=0.2, dt=0.01, nonlinear=False)
    ref = apply_semigroup(kdvks_phi, 0.2, u0)
    rel = l2_norm(traj.final - ref) / l2_norm(ref)
    assert rel <= 1e-10


def test_etdrk4_self_convergence_order(kdvks_phi):
    grid = SpectralGrid(128, 40.0)
    u0 = gaussian(grid, width=1.2, amplitude=2.0)
    ref = etdrk4_solve(u0, kdvks_phi, T=0.1, dt=2.5e-4).final
    errs = []
    for dt in (4e-3, 2e-3):
        traj = etdrk4_solve(u0, kdvks_phi, T=0.1, dt=dt)
        errs.append(l2_norm(traj.final - ref))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.0


def test_etdrk4_snapshot_stride(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256), 0.1)
    dense = etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.0125)
    strided = etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.0125, snapshot_stride=2)
    assert len(strided.snapshots) == 5
    assert np.allclose(strided.times, dense.times[::2], atol=1e-15)
    assert np.array_equal(strided.final.coeffs, dense.final.coeffs)


def test_etdrk4_aborts_on_overflow(grid256, kdvks_phi):
    u0 = gaussian(grid256, width=0.5, amplitude=1e150)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="step"):
            etdrk4_solve(u0, kdvks_phi, T=0.1, dt=0.025)


def test_kdvb_dissipation_identity(grid256, kdvb_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    traj = etdrk4_solve(u0, kdvb_phi, T=1.0, dt=0.01)
    res = dissipation_residuals(traj)
    norms_sq = np.array([l2_norm(f) ** 2 for f in traj.snapshots])
    assert np.all(res <= 1e-4 * norms_sq[1:])
    # second-order damping never creates mass
    assert np.all(np.diff(norms_sq) <= 1e-12)


def test_linear_flow_norm_bound(grid256, kdvks_phi, rng):
    # max of Phi on the grid is 1/4 (attained near |xi| = 1/sqrt(2))
    u0 = from_values(grid256, rng.standard_normal(grid256.n))
    t = 1.0
    g = apply_semigroup(kdvks_phi, t, u0)
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
                assert apply_semigroup(phi, 0.5, u0).is_real == expect
                traj = etdrk4_solve(u0, phi, T=0.01, dt=0.005)
                assert [f.is_real for f in traj.snapshots[1:]] == [expect] * 2
                traj, _ = picard_solve(u0, phi, T=0.01, nt=2)
                assert [f.is_real for f in traj.snapshots] == [expect] * 3


def test_real_data_stays_real_under_flow(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    traj = etdrk4_solve(u0, kdvks_phi, T=0.05, dt=0.0125)
    for f in traj.snapshots:
        assert f.is_real
        assert np.isrealobj(to_values(f))


def test_complex_evolution_permitted(grid256):
    phi = symbols.preset("optimality:2")
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    traj = etdrk4_solve(u0, phi, T=0.02, dt=0.005)
    assert not traj.final.is_real
    assert np.all(np.isfinite(traj.final.coeffs))


def test_linear_trajectory_matches_semigroup(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256), 0.3)
    traj = linear_trajectory(u0, kdvks_phi, 0.2, 8)
    for t, f in zip(traj.times, traj.snapshots):
        ref = apply_semigroup(kdvks_phi, float(t), u0)
        assert np.max(np.abs(f.coeffs - ref.coeffs)) <= 1e-14


def test_picard_weighted_diagnostics(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    traj, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=16, weight_r=1.0,
                             weight_b=0.25)
    assert rep.converged
    last = rep.lambda_values[-1]
    assert "lambda7" in last and "lambda8" in last
    assert "Omega" in last and "Theta" in last
