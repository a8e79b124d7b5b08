"""Norm functionals, smoothing constants, and the ensemble verifier."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dklb import fields, solver, symbols
from dklb.errors import NumericalError
from dklb.fields import gaussian, normalize_l2, random_mixture, sample_ensemble
from dklb.grid import (
    SpectralGrid,
    Trajectory,
    WeightSpec,
    fractional_D,
    from_values,
    l2_norm,
    to_values,
)
from dklb.norms import (
    A2,
    A3,
    A6,
    alpha,
    conjugate_exponent,
    hs_norm,
    lambda_diagnostics,
    lp_norm,
    mixed_norm,
    smoothing_A,
    sup_hs_norm,
    verify_smoothing,
    weighted_norm,
)
from dklb.norms import _mixed_norm_of, _pnorm, _trapezoid_weights

from conftest import derivative


def test_alpha_anchor_values():
    # closed-form substitutions for the p=4 symbol
    assert alpha(2, 2, 1, 4) == pytest.approx(0.5 - 1 / 4, abs=1e-15)
    assert alpha(2, 4, 0, 4) == pytest.approx(7 / 16, abs=1e-15)
    assert alpha(2, math.inf, 1, 4) == pytest.approx(1 / 8, abs=1e-15)


@given(st.floats(2.0, 10.0), st.floats(2.0, 40.0), st.floats(0.0, 3.0),
       st.floats(2.0, 8.0))
def test_alpha_shift_identity(a, b, s, p):
    # the s-dependence is exactly -s/p for every (a, b)
    assert alpha(a, b, s, p) - alpha(a, b, 0.0, p) == pytest.approx(-s / p, abs=1e-12)


def test_alpha_l2_diagonal():
    for p in (2.0, 3.0, 4.0, 6.0):
        for s in (0.0, 0.5, 1.0):
            assert alpha(2, 2, s, p) == pytest.approx(0.5 - s / p, abs=1e-15)


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_smoothing_params_reject_nonpositive_alpha(kdvks_phi):
    with pytest.raises(ValueError):
        smoothing_A(2.0, 2.0, 3.0, kdvks_phi, 1.0)  # alpha(2,2,3) = -1/4 for p=4
    with pytest.raises(ValueError):
        smoothing_A(2.0, 2.0, -0.5, kdvks_phi, 1.0)


def test_smoothing_A_limits(kdvks_phi):
    vals = [smoothing_A(2.0, 4.0, 0.0, kdvks_phi, T)
            for T in (1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0)]
    assert vals[0] < 1e-3
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))


def test_named_accessors_match_general_form(kdvks_phi):
    T = 0.3
    s = 1.5
    assert A2(kdvks_phi, T) == smoothing_A(2.0, 4.0, 0.0, kdvks_phi, T)
    assert A3(kdvks_phi, s, T) == smoothing_A(2.0, 4.0, s, kdvks_phi, T)
    assert A6(kdvks_phi, T) == smoothing_A(2.0, math.inf, 1.0, kdvks_phi, T)


def test_exponent_and_constant_ordering(kdvks_phi):
    # the gain exponents order as alpha(2,inf,1) <= alpha(2,4,0); on T <= 1
    # the smaller exponent therefore gives the *larger* constant, so
    # A(2,4,0) <= A(2,inf,1) pointwise
    assert alpha(2, math.inf, 1, 4) <= alpha(2, 4, 0, 4)
    for T in np.linspace(0.05, 1.0, 20):
        assert A2(kdvks_phi, T) <= A6(kdvks_phi, T) * (1 + 1e-12)


def test_hs_norm_at_zero_is_l2(random_real_field):
    assert hs_norm(random_real_field, 0.0) == pytest.approx(
        l2_norm(random_real_field), rel=1e-14)


def test_hs_norm_monotone_in_s(random_real_field):
    norms = [hs_norm(random_real_field, s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_hs_norm_refuses_a_non_finite_result(random_real_field):
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NumericalError, match="not finite")):
        hs_norm(random_real_field, 1e308)


def test_sup_hs_norm_is_the_largest_row_norm(grid256, rng):
    rows = [from_values(grid256, rng.standard_normal(grid256.n)) for _ in range(4)]
    coeffs = np.array([f.coeffs for f in rows])
    for s in (0.0, 0.5, 2.0):
        expect = max(hs_norm(f, s) for f in rows)
        assert sup_hs_norm(grid256, coeffs, s) == pytest.approx(expect, rel=1e-14)
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NumericalError, match="not finite")):
        sup_hs_norm(grid256, coeffs, 1e308)


def test_random_mixture_on_a_degenerate_grid_raises_numerical_error():
    # bumps of width >= 0.5 fall between nodes spaced 1e306 apart
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NumericalError, match="non-degenerate mixture")):
        random_mixture(SpectralGrid(64, 1e308), np.random.default_rng(0))


def test_hs_norm_of_pure_mode(grid256):
    k = 2 * np.pi / grid256.length
    f = from_values(grid256, np.sin(k * grid256.x))
    for s in (0.0, 1.0, 2.0):
        expect = l2_norm(f) * (1 + k**2) ** (s / 2)
        assert hs_norm(f, s) == pytest.approx(expect, rel=1e-12)


def test_weighted_norm_gaussian_moment(grid256):
    # || |x| e^{-x^2/2} ||_{L2}^2 = integral x^2 e^{-x^2} = sqrt(pi)/2
    f = gaussian(grid256, width=1.0)
    val = weighted_norm(f, WeightSpec("poly", 1.0))
    assert val == pytest.approx(math.sqrt(math.sqrt(math.pi) / 2), rel=1e-8)


def test_lp_norm_special_cases(grid256, rng):
    from dklb.grid import to_values

    vals = rng.standard_normal(grid256.n)
    f = from_values(grid256, vals)
    assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-12)
    assert lp_norm(f, math.inf) == pytest.approx(np.max(np.abs(to_values(f))),
                                                 rel=1e-12)


def test_mixed_norm_constant_trajectory_collapses(grid256, kdvks_phi):
    f = gaussian(grid256, width=1.0)
    T = 0.8
    times = np.linspace(0.0, T, 33)
    traj = Trajectory(grid256, kdvks_phi, times, np.tile(f.coeffs, (len(times), 1)),
                      f.is_real)
    val = mixed_norm(traj, 2.0, 2.0)
    assert val == pytest.approx(math.sqrt(T) * l2_norm(f), rel=1e-12)


def test_mixed_norm_fubini(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5))
    traj = solver.linear_trajectory(u0, kdvks_phi, 0.5, 16)
    for p in (2.0, 4.0):
        a = mixed_norm(traj, p, p, order="t_outer_x_inner")
        b = mixed_norm(traj, p, p, order="x_outer_t_inner")
        assert a == pytest.approx(b, rel=1e-12)


def test_mixed_norm_rejects_empty_and_bad_order(grid256, kdvks_phi):
    traj = Trajectory(grid256, kdvks_phi, np.array([]),
                      np.empty((0, grid256.n), dtype=complex), True)
    with pytest.raises(ValueError, match="empty"):
        mixed_norm(traj, 2.0, 2.0)
    full = solver.linear_trajectory(gaussian(grid256), kdvks_phi, 0.1, 4)
    with pytest.raises(ValueError, match="order"):
        mixed_norm(full, 2.0, 2.0, order="sideways")


def test_mixed_norm_fine_grid_oracle(grid256, kdvks_phi):
    # trapezoid at nt=96 agrees with a 16x refined quadrature of the same
    # linear flow to 1e-6: the time integrand is smooth
    u0 = normalize_l2(gaussian(grid256, width=1.5))
    coarse = mixed_norm(solver.linear_trajectory(u0, kdvks_phi, 0.5, 96), 2.0, 4.0)
    fine = mixed_norm(solver.linear_trajectory(u0, kdvks_phi, 0.5, 1536), 2.0, 4.0)
    assert coarse == pytest.approx(fine, rel=1e-6)


def test_lambda_diagnostics_keys(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.2), 0.1)
    traj = solver.linear_trajectory(u0, kdvks_phi, 0.2, 16)
    d = lambda_diagnostics(traj, s=1.0, r=1.0, b=0.25)
    for key in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5",
                "lambda6", "lambda7", "lambda8", "Lambda", "Omega", "Theta"):
        assert key in d
        assert np.isfinite(d[key]) and d[key] >= 0
    assert d["Lambda"] == pytest.approx(
        sum(d[f"lambda{i}"] for i in range(1, 6)), rel=1e-12)


def _reference_lambdas(traj, s, r, b):
    """lambda_diagnostics rebuilt from per-snapshot fields, one inverse
    transform per snapshot and map, trapezoid in time."""
    phi, T, dx = traj.phase, float(traj.times[-1]), traj.grid.dx
    snaps = traj.snapshots

    def l2_t(op, inner):
        per_time = []
        for f in snaps:
            v = np.abs(to_values(op(f)))
            per_time.append(np.max(v) if inner == math.inf
                            else (np.sum(v**inner) * dx) ** (1.0 / inner))
        return math.sqrt(np.trapezoid(np.square(per_time), traj.times))

    out = {"lambda1": max(hs_norm(f, s) for f in snaps),
           "lambda2": l2_t(lambda f: f, 4.0) / A2(phi, T)}
    if alpha(2.0, 4.0, s, phi.p) > 0:
        out["lambda3"] = l2_t(lambda f: fractional_D(f, s), 4.0) / A3(phi, s, T)
    out["lambda4"] = l2_t(lambda f: derivative(fractional_D(f, s)), 4.0)
    out["lambda5"] = l2_t(derivative, 4.0)
    if alpha(2.0, math.inf, 1.0, phi.p) > 0:
        out["lambda6"] = l2_t(derivative, math.inf) / A6(phi, T)
    out["lambda7"] = max(weighted_norm(f, WeightSpec("poly", r)) for f in snaps)
    out["lambda8"] = max(weighted_norm(f, WeightSpec("exp", b)) for f in snaps)
    if "lambda3" in out:
        out["Lambda"] = sum(out[f"lambda{i}"] for i in range(1, 6))
        if "lambda6" in out:
            out["Omega"] = out["Lambda"] + out["lambda6"] + out["lambda7"]
            out["Theta"] = out["Lambda"] + out["lambda6"] + out["lambda8"]
    return out


@pytest.mark.parametrize("name", ["kdvks", "optimality:2", "kdvb"])
@pytest.mark.parametrize("data", ["real", "complex"])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_lambda_diagnostics_match_a_per_snapshot_reference(grid256, name, data, s):
    # the batched transforms (half spectra for a real flow) against one
    # field per snapshot; kdvb drops lambda3 at s = 1 and always lambda6
    phi = symbols.preset(name)
    u0 = normalize_l2(gaussian(grid256, width=1.2), 0.1)
    if data == "complex":
        u0 = from_values(grid256, to_values(u0) * np.exp(1j * grid256.x))
    traj = solver.linear_trajectory(u0, phi, 0.2, 16)
    assert traj.is_real == (data == "real" and phi.is_even)
    got = lambda_diagnostics(traj, s=s, r=1.0, b=0.25)
    want = _reference_lambdas(traj, s, 1.0, 0.25)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-14, abs=0.0), key


def test_smoothing_ratio_scale_invariance(grid256, kdvks_phi):
    # both sides of every bound are homogeneous of degree one in the data
    u0 = normalize_l2(gaussian(grid256, width=1.3))
    T = 0.5
    const = smoothing_A(2.0, 4.0, 0.0, kdvks_phi, T)

    def ratio(f):
        traj = solver.linear_trajectory(f, kdvks_phi, T, 32)
        return mixed_norm(traj, 2.0, 4.0) / (const * l2_norm(f))

    assert ratio(u0) == pytest.approx(ratio(u0 * 37.5), rel=1e-12)


def test_verify_smoothing_smoke_all_checks(kdvks_phi):
    grid = SpectralGrid(128, 40.0)
    for check in ("C1", "C2", "C3", "C4", "P_inf"):
        rep = verify_smoothing(check, kdvks_phi, grid=grid, T=0.5, size=8,
                               nt=16, s=0.5, q=1.0)
        assert rep.sample_count == 8
        assert rep.ratios.shape == (8,)
        assert np.all(np.isfinite(rep.ratios)) and np.all(rep.ratios > 0)
        assert rep.max_ratio == pytest.approx(np.max(rep.ratios))


def test_verify_smoothing_is_deterministic(kdvks_phi):
    grid = SpectralGrid(128, 40.0)
    r1 = verify_smoothing("C2", kdvks_phi, grid=grid, T=0.5, size=6, nt=16)
    r2 = verify_smoothing("C2", kdvks_phi, grid=grid, T=0.5, size=6, nt=16)
    assert np.array_equal(r1.ratios, r2.ratios)


def _snapshot_magnitudes(f, half_spectrum):
    # a real snapshot through irfft of its own half spectrum, as
    # norms._magnitudes reads it; otherwise through to_values (a full ifft)
    if half_spectrum and f.is_real:
        n = f.grid.n
        return np.abs(np.fft.irfft(f.coeffs[:n // 2 + 1], n, norm="forward"))
    return np.abs(to_values(f))


def _reference_ratios(check, phi, grid, T, size, seed, nt, s, q,
                      half_spectrum=True):
    """verify_smoothing's ratios, one linear trajectory per sample and one
    inverse transform per snapshot."""

    def lhs(traj, gain, outer, inner, order="t_outer_x_inner"):
        mags = np.stack([_snapshot_magnitudes(fractional_D(f, gain), half_spectrum)
                         for f in traj.snapshots])
        return _mixed_norm_of(mags, _trapezoid_weights(traj.times), grid.dx,
                              outer, inner, order)

    ratios = []
    for u0 in sample_ensemble(grid, size, seed):
        traj = solver.linear_trajectory(u0, phi, T, nt)
        if check == "C1":
            num = lhs(traj, s, 2.0, math.inf)
            rhs = smoothing_A(2.0, math.inf, s, phi, T) * lp_norm(u0, 2.0)
        elif check == "C2":
            num = lhs(traj, s, 2.0, 4.0)
            rhs = smoothing_A(2.0, 4.0, s, phi, T) * l2_norm(u0)
        elif check == "C3":
            num = lhs(traj, 1.0, 2.0, 4.0)
            rhs = smoothing_A(2.0, 4.0, 1.0 - s, phi, T) * l2_norm(fractional_D(u0, s))
        elif check == "C4":
            num = lhs(traj, s, 2.0, 2.0)
            rhs = smoothing_A(2.0, 2.0, s, phi, T) * l2_norm(u0)
        else:
            num = lhs(traj, q, math.inf, 2.0, order="x_outer_t_inner")
            rhs = l2_norm(u0)
        ratios.append(num / rhs)
    return np.array(ratios)


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
@pytest.mark.parametrize("check", ["C1", "C2", "C3", "C4", "P_inf"])
def test_verify_smoothing_matches_per_sample_trajectories(name, check):
    # the batched flow table must reproduce the per-sample trajectory route
    # bit for bit, on a real flow (kdvks) and a complex one (optimality:2)
    phi = symbols.preset(name)
    grid = SpectralGrid(128, 40.0)
    kw = dict(T=0.5, size=5, seed=11, nt=12, s=0.5, q=1.0)
    rep = verify_smoothing(check, phi, grid=grid, **kw)
    assert np.array_equal(rep.ratios, _reference_ratios(check, phi, grid, **kw))


@pytest.mark.parametrize("check", ["C1", "C2", "C3", "C4", "P_inf"])
def test_real_flow_ratios_match_the_complex_route(kdvks_phi, check):
    # the half-spectrum irfft route of a real flow stays pinned to the full
    # complex ifft route it replaced
    grid = SpectralGrid(128, 40.0)
    kw = dict(T=0.5, size=5, seed=11, nt=12, s=0.5, q=1.0)
    rep = verify_smoothing(check, kdvks_phi, grid=grid, **kw)
    ref = _reference_ratios(check, kdvks_phi, grid, **kw, half_spectrum=False)
    assert np.max(np.abs(rep.ratios - ref) / ref) <= 1e-15


def test_verify_smoothing_ratios_stable_as_T_shrinks(kdvks_phi):
    # the bound's T-dependence lives in A(T); the measured constants must
    # not blow up as the horizon shrinks
    grid = SpectralGrid(128, 40.0)
    maxima = [verify_smoothing("C2", kdvks_phi, grid=grid, T=T, size=10,
                               nt=24).max_ratio for T in (0.5, 0.25, 0.125)]
    assert max(maxima) / min(maxima) < 3.0


def test_verify_smoothing_rejects_bad_hypotheses(kdvks_phi):
    with pytest.raises(ValueError):
        verify_smoothing("C4", kdvks_phi, s=2.0)  # alpha(2,2,2) = 0 at p=4
    with pytest.raises(ValueError):
        verify_smoothing("C3", kdvks_phi, s=1.5)
    with pytest.raises(ValueError):
        verify_smoothing("C9", kdvks_phi)


def test_sample_ensemble_draws_child_k_for_sample_k(grid256):
    streams = np.random.SeedSequence(5).spawn(7)
    samples = list(sample_ensemble(grid256, 7, 5))
    assert len(samples) == 7
    for stream, f in zip(streams, samples):
        g = random_mixture(grid256, np.random.default_rng(stream))
        assert np.array_equal(f.coeffs, g.coeffs) and f.is_real == g.is_real


def test_sample_ensemble_draws_lazily(grid256, monkeypatch):
    draws = []

    def counting(grid, rng):
        draws.append(rng)
        return random_mixture(grid, rng)

    monkeypatch.setattr(fields, "random_mixture", counting)
    samples = sample_ensemble(grid256, 5, 3)
    assert draws == []
    next(samples)
    next(samples)
    assert len(draws) == 2


def test_verify_smoothing_memory_is_flat_in_size(kdvks_phi):
    # samples are drawn lazily into fixed buffers; holding them all in a
    # list peaked about 7 MiB higher at size 2000 than at size 200
    peaks = []
    for size in (200, 2000):
        tracemalloc.start()
        try:
            verify_smoothing("C2", kdvks_phi, size=size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 * 2**20, [p / 2**20 for p in peaks]


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_pnorm_integer_powers_agree_with_pow(rng, p):
    vals = rng.uniform(0.0, 3.0, (64, 256)) * 10.0 ** rng.integers(-6, 7, (64, 1))
    weights = rng.uniform(0.5, 2.0, (64, 1))
    got = _pnorm(vals, weights, p, axis=1)
    ref = np.sum(weights * vals**p, axis=1) ** (1.0 / p)
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))


def test_random_mixture_normalization(grid256, rng):
    for _ in range(5):
        f = random_mixture(grid256, rng)
        assert l2_norm(f) == pytest.approx(1.0, rel=1e-12)
