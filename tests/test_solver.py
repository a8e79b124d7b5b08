"""Time evolution: semigroup, Picard contraction, ETDRK4, existence times."""

import math

import numpy as np
import pytest

from dklb import symbols
from dklb.errors import NumericalError
from dklb.fields import gaussian, normalize_l2
from dklb.grid import (
    SpectralGrid,
    dealiased_product,
    derivative,
    from_coeffs,
    from_values,
    l2_norm,
    multiplier_preserves_real,
    to_values,
)
from dklb.norms import A2, A3, hs_norm
from dklb.solver import (
    apply_semigroup,
    dissipation_residuals,
    etdrk4_solve,
    existence_time,
    linear_trajectory,
    nonlinearity,
    picard_solve,
)


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
    f = from_coeffs(grid256, mode.astype(complex))
    for t in (0.2, 1.0):
        g = apply_semigroup(kdvb_phi, t, f)
        assert l2_norm(g) == pytest.approx(
            l2_norm(f) * math.exp(-t * k**2), rel=1e-12)


def test_semigroup_rejects_negative_time(grid256, kdvks_phi):
    f = gaussian(grid256)
    with pytest.raises(ValueError):
        apply_semigroup(kdvks_phi, -0.1, f)


def test_nonlinearity_of_zero(grid256):
    z = from_coeffs(grid256, np.zeros(grid256.n, dtype=complex))
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
    f = from_coeffs(grid256, c)
    a = nonlinearity(f)
    b = dealiased_product(f, derivative(f)) * (-1.0)
    scale = max(1.0, np.max(np.abs(a.coeffs)))
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10 * scale


def test_nonlinearity_has_zero_mean(grid256, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    assert abs(nonlinearity(f).coeffs[0]) <= 1e-14


def test_picard_zero_data_converges_immediately(grid256, kdvks_phi):
    z = from_coeffs(grid256, np.zeros(grid256.n, dtype=complex))
    traj, rep = picard_solve(z, kdvks_phi, T=0.1, nt=8)
    assert rep.converged and rep.iterations == 1
    assert all(np.max(np.abs(f.coeffs)) == 0.0 for f in traj.snapshots)


def test_picard_linear_mode_converges_immediately(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.2), 0.5)
    traj, rep = picard_solve(u0, kdvks_phi, T=0.1, nt=8, nonlinear=False)
    assert rep.converged and rep.iterations == 1
    ref = apply_semigroup(kdvks_phi, 0.1, u0)
    assert np.max(np.abs(traj.final.coeffs - ref.coeffs)) <= 1e-12


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
    assert traj.method == "etdrk4"


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
        phi = symbols.preset(name).phase
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
    phi = symbols.preset("optimality:2").phase
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
