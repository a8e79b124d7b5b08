"""Norm functionals, smoothing constants, and the ensemble verifier."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dklb import fields, norms, solver, symbols
from dklb.errors import BoundError, ExponentError, NumericalError
from dklb.fields import gaussian, normalize_l2, random_mixture, sample_ensemble
from dklb.grid import SpectralField, SpectralGrid, WeightSpec, from_values, l2_norm, to_values
from dklb.norms import (
    A2,
    A3,
    alpha,
    conjugate_exponent,
    hs_norm,
    lambda_diagnostics,
    lp_norm,
    mixed_norm,
    multiplier_norm,
    smoothing_A,
    verify_smoothing,
    weighted_norm,
)
from dklb.norms import _block_rows, _magnitudes, _pnorm, _row_blocks, _trapezoid_weights

from conftest import (
    derivative,
    field_hs_norm,
    field_weighted_norm,
    flow_table,
    fractional_D,
    whole_row_norms,
)


def _kept(f):
    # a field's kept row, as the one row of (rows, kept modes) spectra
    return f.coeffs[None, : f.grid.kept_modes(f.is_real)]


def _hs_weight(grid, keep, s):
    return (1.0 + grid.xi[:keep] ** 2) ** (s / 2.0)


def _flow_mags(u0, phi, times):
    # |u| at the nodes of u0 under the linear flow, one row per time: a real
    # flow through irfft of the half spectra of its table
    real = u0.is_real and phi.is_even
    table = flow_table(u0, phi, times)
    if real:
        table = table[:, : u0.grid.n // 2 + 1]
    return _magnitudes(table, u0.grid.n, real, np.empty((len(times), u0.grid.n)))


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


def test_exponent_and_constant_ordering(kdvks_phi):
    # the gain exponents order as alpha(2,inf,1) <= alpha(2,4,0); on T <= 1
    # the smaller exponent therefore gives the *larger* constant, so
    # A(2,4,0) <= A(2,inf,1) pointwise
    assert alpha(2, math.inf, 1, 4) <= alpha(2, 4, 0, 4)
    for T in np.linspace(0.05, 1.0, 20):
        A6 = smoothing_A(2.0, math.inf, 1.0, kdvks_phi, T)
        assert A2(kdvks_phi, T) <= A6 * (1 + 1e-12)


def _undamped_A(a, b, s, phi, T):
    # smoothing_A without the kernel bound's factor eta^(-(1/a - alpha))
    al = alpha(a, b, s, phi.p)
    return math.exp(phi.eta * T) * T ** (1.0 / a) + (a * al) ** (-1.0 / a) * T**al


@pytest.mark.parametrize("name, mode, fixed, undamped", [("kdvb", 160, 0.4219, 1.5641),
                                                         ("ost", 40, 0.4580, 1.0028)])
def test_smoothing_A_carries_the_kernel_bounds_eta(monkeypatch, name, mode, fixed,
                                                   undamped):
    # one cosine (xi = 25.13 at mode 160, 6.28 at mode 40) meets little
    # damping at eta = 1e-3: its C4 ratio at s = 0.5 stays under 1 against
    # the constant with eta^(-(1/a - alpha)) in its alpha-term, and exceeds
    # 1 against the one without; at eta = 1 the factor is exactly 1
    grid = SpectralGrid(1024, 40.0)
    u0 = from_values(grid, np.cos(grid.xi[mode] * grid.x))
    monkeypatch.setattr(norms, "sample_ensemble", lambda grid, size, seed: iter([u0]))
    phi = symbols.preset(name, 1e-3)
    report = verify_smoothing("C4", phi, grid=grid, T=1.0, size=1, nt=48, s=0.5)
    const = smoothing_A(2.0, 2.0, 0.5, phi, 1.0)
    assert report.max_ratio == pytest.approx(fixed, abs=1e-4)
    old = report.max_ratio * const / _undamped_A(2.0, 2.0, 0.5, phi, 1.0)
    assert old == pytest.approx(undamped, abs=1e-4)
    at_one = symbols.preset(name)
    for a, b, s in ((2.0, 2.0, 0.5), (2.0, 4.0, 0.0), (2.0, 4.0, 0.5)):
        assert smoothing_A(a, b, s, at_one, 0.3) == _undamped_A(a, b, s, at_one, 0.3)


def test_smoothing_A_is_infinite_where_the_eta_factor_overflows():
    # eta^(-(1/a - alpha)) at a = 1, alpha = 0.01 and a subnormal eta
    phi = symbols.preset("kdvb", 1e-320)
    assert alpha(1.0, math.inf, 1.98, phi.p) == pytest.approx(0.01)
    assert smoothing_A(1.0, math.inf, 1.98, phi, 1.0) == math.inf


def test_hs_norm_at_zero_is_l2(random_real_field):
    assert hs_norm(random_real_field.grid, _kept(random_real_field), 0.0)[0] == \
        pytest.approx(l2_norm(random_real_field), rel=1e-14)


def test_hs_norm_monotone_in_s(random_real_field):
    norms = [hs_norm(random_real_field.grid, _kept(random_real_field), s)[0]
             for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_hs_norm_refuses_a_non_finite_result(random_real_field):
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NumericalError, match="H\\^s norm at s=1e\\+308 is not finite")):
        hs_norm(random_real_field.grid, _kept(random_real_field), 1e308)


def test_hs_norm_is_each_row_norm(grid256, rng):
    # on full spectra, and on the half spectra of the same real fields,
    # which count modes 1..N/2-1 twice and sum to the bit like their
    # Hermitian extensions, so that picard.csv does not depend on which
    # one Picard holds
    rows = [from_values(grid256, rng.standard_normal(grid256.n)) for _ in range(4)]
    coeffs = np.array([f.coeffs for f in rows])
    half = coeffs[:, : grid256.kept_modes(True)]
    extended = solver._full_spectrum(half, grid256.n, True)
    for s in (0.0, 0.5, 2.0):
        expect = [field_hs_norm(f, s) for f in rows]
        for kept in (coeffs, half):
            assert hs_norm(grid256, kept, s) == pytest.approx(expect, rel=1e-14)
        assert np.array_equal(hs_norm(grid256, half, s), hs_norm(grid256, extended, s))
    for kept in (coeffs, half):
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(NumericalError, match="not finite")):
            hs_norm(grid256, kept, 1e308)


def test_multiplier_norm_is_the_norm_of_the_multiplied_field(grid256, rng):
    # |xi|^s through the row rule against the field oracle's product and
    # BLAS norm: the two sum in other orders, so they agree to rounding
    f = from_values(grid256, rng.standard_normal(grid256.n))
    g = from_values(grid256, rng.standard_normal(grid256.n) + 1j)
    for s in (0.0, 0.5, 1.0, 2.0):
        for field in (f, g):
            kept = _kept(field)
            got = multiplier_norm(grid256, kept, np.abs(grid256.xi[:kept.shape[-1]]) ** s)
            assert got[0] == pytest.approx(l2_norm(fractional_D(field, s)), rel=1e-14)


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
        assert hs_norm(grid256, _kept(f), s)[0] == pytest.approx(expect, rel=1e-12)


def test_weighted_norm_gaussian_moment(grid256):
    # || |x| e^{-x^2/2} ||_{L2}^2 = integral x^2 e^{-x^2} = sqrt(pi)/2
    f = gaussian(grid256, width=1.0)
    val = weighted_norm(grid256, _kept(f), WeightSpec("poly", 1.0))[0]
    assert val == pytest.approx(math.sqrt(math.sqrt(math.pi) / 2), rel=1e-8)


@pytest.mark.parametrize("rows", [1, 16, 17, 35])
@pytest.mark.parametrize("real", [True, False])
def test_weighted_norm_of_rows_is_each_fields_nodal_norm(grid256, rng, rows, real):
    # irfft of each half row (or ifft of each full one), in blocks of 16
    # rows, against one to_values per field: the transforms round
    # differently, so they agree to rounding; the rows are independent of
    # their blocks, bitwise
    x = rng.standard_normal((rows, grid256.n))
    fields = [from_values(grid256, v if real else v + 1j * v[::-1]) for v in x]
    coeffs = np.array([f.coeffs[: grid256.kept_modes(real)] for f in fields])
    for w in (WeightSpec("poly", 1.0), WeightSpec("exp", 0.1)):
        got = weighted_norm(grid256, coeffs, w)
        assert got == pytest.approx([field_weighted_norm(f, w) for f in fields], rel=1e-14)
        one_by_one = [weighted_norm(grid256, row[None], w, w.values(grid256))[0]
                      for row in coeffs]
        assert np.array_equal(got, one_by_one)
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NumericalError, match="poly:400-weighted norm is not finite")):
        weighted_norm(SpectralGrid(256, 1e4), coeffs, WeightSpec("poly", 400.0))


def test_lp_norm_special_cases(grid256, rng):
    from dklb.grid import to_values

    vals = rng.standard_normal(grid256.n)
    f = from_values(grid256, vals)
    assert lp_norm(f, 2.0) == pytest.approx(l2_norm(f), rel=1e-12)
    assert lp_norm(f, math.inf) == pytest.approx(np.max(np.abs(to_values(f))),
                                                 rel=1e-12)


def test_mixed_norm_constant_trajectory_collapses(grid256):
    f = gaussian(grid256, width=1.0)
    T = 0.8
    times = np.linspace(0.0, T, 33)
    mags = np.tile(np.abs(to_values(f)), (len(times), 1))
    val = mixed_norm(mags, _trapezoid_weights(times), grid256.dx, 2.0, 2.0)
    assert val == pytest.approx(math.sqrt(T) * l2_norm(f), rel=1e-12)


def test_mixed_norm_fubini(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.5))
    times = np.linspace(0.0, 0.5, 17)
    mags, tw = _flow_mags(u0, kdvks_phi, times), _trapezoid_weights(times)
    for p in (2.0, 4.0):
        a = mixed_norm(mags, tw, grid256.dx, p, p, order="t_outer_x_inner")
        b = mixed_norm(mags, tw, grid256.dx, p, p, order="x_outer_t_inner")
        assert a == pytest.approx(b, rel=1e-12)


def test_mixed_norm_rejects_empty_and_bad_order(grid256, kdvks_phi):
    with pytest.raises(ValueError, match="two time samples"):
        _trapezoid_weights(np.array([]))
    times = np.linspace(0.0, 0.1, 5)
    mags = _flow_mags(gaussian(grid256), kdvks_phi, times)
    with pytest.raises(ValueError, match="order"):
        mixed_norm(mags, _trapezoid_weights(times), grid256.dx, 2.0, 2.0,
                   order="sideways")


def test_mixed_norm_fine_grid_oracle(grid256, kdvks_phi):
    # trapezoid at nt=96 agrees with a 16x refined quadrature of the same
    # linear flow to 1e-6: the time integrand is smooth
    u0 = normalize_l2(gaussian(grid256, width=1.5))

    def l2_l4(nt):
        times = np.linspace(0.0, 0.5, nt + 1)
        return mixed_norm(_flow_mags(u0, kdvks_phi, times), _trapezoid_weights(times),
                          grid256.dx, 2.0, 4.0)

    assert l2_l4(96) == pytest.approx(l2_l4(1536), rel=1e-6)


def test_lambda_diagnostics_keys(grid256, kdvks_phi):
    u0 = normalize_l2(gaussian(grid256, width=1.2), 0.1)
    times = np.linspace(0.0, 0.2, 17)
    kept = flow_table(u0, kdvks_phi, times)[:, : grid256.n // 2 + 1]
    d = lambda_diagnostics(grid256, kdvks_phi, times, kept, s=1.0)
    assert list(d) == ["lambda1", "lambda2", "lambda3", "lambda4", "lambda5",
                       "lambda6", "Lambda"]
    for key in d:
        assert key in d
        assert np.isfinite(d[key]) and d[key] >= 0
    assert d["Lambda"] == pytest.approx(
        sum(d[f"lambda{i}"] for i in range(1, 6)), rel=1e-12)


@pytest.mark.parametrize("eta, T", [(710.0, 1.0), (1.0, 800.0)])
def test_lambda_diagnostics_refuse_an_infinite_constant(grid256, eta, T):
    # exp(eta*T) overflows: lambda2, lambda3 and lambda6 would read 0.0
    phi = symbols.kdvb(eta)
    times = np.linspace(0.0, T, 9)
    coeffs = np.zeros((len(times), grid256.n // 2 + 1), dtype=complex)
    with pytest.raises(BoundError, match=re.escape(
            f"A(2.0, 4.0, 0.0)(T) = inf at eta={eta!r}, T={T!r}")):
        lambda_diagnostics(grid256, phi, times, coeffs)


def _reference_lambdas(phi, times, snaps, s):
    """lambda_diagnostics rebuilt from per-snapshot fields, one inverse
    transform per snapshot and map, trapezoid in time."""
    T, dx = float(times[-1]), snaps[0].grid.dx

    def l2_t(op, inner):
        per_time = []
        for f in snaps:
            v = np.abs(to_values(op(f)))
            per_time.append(np.max(v) if inner == math.inf
                            else (np.sum(v**inner) * dx) ** (1.0 / inner))
        return math.sqrt(np.trapezoid(np.square(per_time), times))

    out = {"lambda1": max(field_hs_norm(f, s) for f in snaps),
           "lambda2": l2_t(lambda f: f, 4.0) / A2(phi, T)}
    if alpha(2.0, 4.0, s, phi.p) > 0:
        out["lambda3"] = l2_t(lambda f: fractional_D(f, s), 4.0) / A3(phi, s, T)
    out["lambda4"] = l2_t(lambda f: derivative(fractional_D(f, s)), 4.0)
    out["lambda5"] = l2_t(derivative, 4.0)
    if alpha(2.0, math.inf, 1.0, phi.p) > 0:
        out["lambda6"] = (l2_t(derivative, math.inf)
                          / smoothing_A(2.0, math.inf, 1.0, phi, T))
    if "lambda3" in out:
        out["Lambda"] = sum(out[f"lambda{i}"] for i in range(1, 6))
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
    assert u0.is_real == (data == "real")
    real = u0.is_real and phi.is_even
    times = np.linspace(0.0, 0.2, 17)
    table = flow_table(u0, phi, times)
    snaps = [SpectralField(grid256, row, real) for row in table]
    kept = table[:, : grid256.n // 2 + 1] if real else table
    got = lambda_diagnostics(grid256, phi, times, kept, s=s)
    want = _reference_lambdas(phi, times, snaps, s)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-14, abs=0.0), key


def _whole_lambda_diagnostics(grid, phi, times, coeffs, s):
    # lambda_diagnostics with one transform of all rows per multiplier and
    # the mixed-norm quadrature on the whole (rows, nodes) array: the oracle
    # for its row blocks
    T = float(times[-1])
    tw = _trapezoid_weights(times)
    real = coeffs.shape[-1] < grid.n

    def mags_of(multiplier=None):
        c = coeffs if multiplier is None else coeffs * multiplier[:coeffs.shape[-1]]
        return np.abs(np.fft.irfft(c, grid.n, norm="forward") if real
                      else np.fft.ifft(c, norm="forward"))

    def l2_t(mags, inner):
        return mixed_norm(mags, tw, grid.dx, 2.0, inner, "t_outer_x_inner")

    gain = np.abs(grid.xi) ** s if s else None
    ddx = 1j * grid.xi_odd
    plain = l2_t(mags_of(), 4.0)
    u_x = mags_of(ddx)
    hs = whole_row_norms(grid, coeffs, _hs_weight(grid, coeffs.shape[-1], s))
    out = {"lambda1": float(np.max(hs)),
           "lambda2": plain / A2(phi, T)}
    if alpha(2.0, 4.0, s, phi.p) > 0:
        gained = plain if gain is None else l2_t(mags_of(gain), 4.0)
        out["lambda3"] = gained / A3(phi, s, T)
    lambda5 = l2_t(u_x, 4.0)
    out["lambda4"] = lambda5 if gain is None else l2_t(mags_of(gain * ddx), 4.0)
    out["lambda5"] = lambda5
    if alpha(2.0, math.inf, 1.0, phi.p) > 0:
        out["lambda6"] = l2_t(u_x, math.inf) / smoothing_A(2.0, math.inf, 1.0, phi, T)
    if "lambda3" in out:
        out["Lambda"] = sum(out[f"lambda{i}"] for i in range(1, 6))
    return out


@pytest.mark.parametrize("rows", [3, 16, 17, 35, 129])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_row_blocked_norms_are_bitwise_the_whole_array_formulas(grid256, rng, rows,
                                                                 real, s):
    # hs_norm and lambda_diagnostics walk the rows in blocks of
    # _block_rows(256) = 16: one partial block, one full one, a full one and
    # one row, and ends of 3 and 1 rows; half spectra of real fields and
    # full spectra of complex ones.  kdvb has no lambda6, nor lambda3 at s = 1
    n = grid256.n
    assert _block_rows(n) == 16
    x = rng.standard_normal((rows, n))
    coeffs = (np.fft.rfft(x) if real
              else np.fft.fft(x + 1j * rng.standard_normal((rows, n)))) / n
    times = np.linspace(0.0, 0.2, rows)
    assert np.array_equal(hs_norm(grid256, coeffs, s),
                          whole_row_norms(grid256, coeffs, _hs_weight(grid256, coeffs.shape[-1], s)))
    for name in ("kdvks", "kdvb"):
        phi = symbols.preset(name)
        got = lambda_diagnostics(grid256, phi, times, coeffs, s)
        want = _whole_lambda_diagnostics(grid256, phi, times, coeffs, s)
        assert list(got) == list(want) and got == want, (name, got, want)
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NumericalError, match="not finite")):
        hs_norm(grid256, coeffs, 1e308)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("s, maps", [(0.0, 2), (0.5, 4)])
def test_lambda_diagnostics_transform_each_map_once_per_block(grid256, rng,
                                                              monkeypatch, real,
                                                              s, maps):
    # u and du/dx, and at s > 0 (lambda3 defined on kdvks) D^s u and
    # D^s du/dx: one batched transform per map and block of _block_rows(256)
    # = 16 rows, so lambda5 and lambda6 share the pass over du/dx
    rows, n = 35, grid256.n
    x = rng.standard_normal((rows, n))
    coeffs = (np.fft.rfft(x) if real
              else np.fft.fft(x + 1j * rng.standard_normal((rows, n)))) / n
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return _magnitudes(*args, **kwargs)

    monkeypatch.setattr(norms, "_magnitudes", counted)
    got = lambda_diagnostics(grid256, symbols.preset("kdvks"),
                             np.linspace(0.0, 0.2, rows), coeffs, s)
    assert "lambda3" in got and "lambda6" in got
    assert sorted(calls) == sorted([16, 16, 3] * maps)  # 35 rows, 3 blocks


def test_smoothing_ratio_scale_invariance(grid256, kdvks_phi):
    # both sides of every bound are homogeneous of degree one in the data
    u0 = normalize_l2(gaussian(grid256, width=1.3))
    T = 0.5
    const = smoothing_A(2.0, 4.0, 0.0, kdvks_phi, T)

    times = np.linspace(0.0, T, 33)

    def ratio(f):
        lhs = mixed_norm(_flow_mags(f, kdvks_phi, times), _trapezoid_weights(times),
                         grid256.dx, 2.0, 4.0)
        return lhs / (const * l2_norm(f))

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


def _d_s_norm(u0, phi, s, half_spectrum=True):
    # C3's right-hand ||D^s u0||: the row rule on the flow's kept modes, or
    # the field oracle's product and BLAS norm
    if not half_spectrum:
        return l2_norm(fractional_D(u0, s))
    kept = u0.coeffs[None, : u0.grid.kept_modes(phi.is_even)]
    return whole_row_norms(u0.grid, kept, np.abs(u0.grid.xi[:kept.shape[-1]]) ** s)[0]


def _reference_ratios(check, phi, grid, T, size, seed, nt, s, q,
                      half_spectrum=True):
    """verify_smoothing's ratios, one field per sample and time and one
    inverse transform per field."""
    times = np.linspace(0.0, T, nt + 1)

    def lhs(snaps, gain, outer, inner, order="t_outer_x_inner"):
        mags = np.stack([_snapshot_magnitudes(fractional_D(f, gain), half_spectrum)
                         for f in snaps])
        return mixed_norm(mags, _trapezoid_weights(times), grid.dx,
                          outer, inner, order)

    ratios = []
    for u0 in sample_ensemble(grid, size, seed):
        snaps = [SpectralField(grid, row, u0.is_real and phi.is_even)
                 for row in flow_table(u0, phi, times)]
        if check == "C1":
            num = lhs(snaps, s, 2.0, math.inf)
            rhs = smoothing_A(2.0, math.inf, s, phi, T) * lp_norm(u0, 2.0)
        elif check == "C2":
            num = lhs(snaps, s, 2.0, 4.0)
            rhs = smoothing_A(2.0, 4.0, s, phi, T) * l2_norm(u0)
        elif check == "C3":
            num = lhs(snaps, 1.0, 2.0, 4.0)
            rhs = smoothing_A(2.0, 4.0, 1.0 - s, phi, T) * _d_s_norm(u0, phi, s, half_spectrum)
        elif check == "C4":
            num = lhs(snaps, s, 2.0, 2.0)
            rhs = smoothing_A(2.0, 2.0, s, phi, T) * l2_norm(u0)
        else:
            num = lhs(snaps, q, math.inf, 2.0, order="x_outer_t_inner")
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


def _whole_array_mixed_norm(V, tw, dx, outer, inner, order):
    # both norms over the whole (times, nodes) array at once
    if order == "t_outer_x_inner":
        return float(_pnorm(_pnorm(V, dx, inner, axis=1), tw, outer))
    return float(_pnorm(_pnorm(V, tw[:, None], inner, axis=0), dx, outer))


def _whole_array_ratios(check, phi, grid, T, size, seed, nt, s, a, b, q):
    """verify_smoothing's ratios with each sample's whole (nt+1, n) flow
    table formed, and its magnitudes taken, at once."""
    inf, tx, xt = math.inf, "t_outer_x_inner", "x_outer_t_inner"
    outer, inner, order, gain_order, bound, rhs_norm = {
        "C1": (a, inf, tx, s, (a, inf, s),
               lambda u0: lp_norm(u0, conjugate_exponent(a))),
        "C2": (2.0, b, tx, s, (2.0, b, s), l2_norm),
        "C3": (2.0, b, tx, 1.0, (2.0, b, 1.0 - s), lambda u0: _d_s_norm(u0, phi, s)),
        "C4": (2.0, 2.0, tx, s, (2.0, 2.0, s), l2_norm),
        "P_inf": (inf, 2.0, xt, q, None, l2_norm),
    }[check]
    const = 1.0 if bound is None else smoothing_A(*bound, phi, T)
    real = phi.is_even
    keep = grid.kept_modes(real)
    times = np.linspace(0.0, T, nt + 1)
    tw = _trapezoid_weights(times)
    flow = symbols.flow_multiplier(phi, times, grid, real)
    gain = (np.abs(grid.xi[:keep]) ** gain_order).astype(complex) if gain_order else None
    ratios = []
    for u0 in sample_ensemble(grid, size, seed):
        vals = u0.coeffs[:keep] * flow
        if gain is not None:
            vals *= gain
        mags = _magnitudes(vals, grid.n, real, np.empty((nt + 1, grid.n)))
        lhs = _whole_array_mixed_norm(mags, tw, grid.dx, outer, inner, order)
        ratios.append(lhs / (const * rhs_norm(u0)))
    return np.array(ratios)


@pytest.mark.parametrize("nt", [16, 34, 48])
@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
@pytest.mark.parametrize("check", ["C1", "C2", "C3", "C4", "P_inf"])
def test_row_blocked_ratios_are_bitwise_the_whole_array_ratios(check, name, nt):
    # verify_smoothing streams each sample through blocks of _block_rows(128)
    # = 16 rows: 17 rows end in a block of one, 35 in one of 3, 49 in one of
    # 1 after three full ones; a real flow (kdvks) and a complex one
    # (optimality:2)
    phi = symbols.preset(name)
    grid = SpectralGrid(128, 40.0)
    assert _block_rows(grid.n) == 16
    kw = dict(T=0.5, size=4, seed=5, nt=nt, s=0.5, a=3.0, b=6.0, q=1.0)
    rep = verify_smoothing(check, phi, grid=grid, **kw)
    want = _whole_array_ratios(check, phi, grid, **kw)
    assert np.array_equal(rep.ratios, want), (rep.ratios, want)


@pytest.mark.parametrize("rows", [2, 16, 17, 35, 49])
@pytest.mark.parametrize("order", ["t_outer_x_inner", "x_outer_t_inner"])
@pytest.mark.parametrize("outer, inner", [(2.0, 4.0), (3.0, math.inf),
                                          (math.inf, 2.0), (2.5, 3.5)])
def test_mixed_norm_of_row_blocks_is_bitwise_its_whole_array_value(rng, rows, order,
                                                                   outer, inner):
    # the same magnitudes as one array and as blocks that share one buffer,
    # over which mixed_norm forms each block's powers; the array is left as
    # it is
    mags = rng.uniform(0.0, 2.0, (rows, 64)) * 10.0 ** rng.integers(-3, 4, (rows, 64))
    tw = rng.uniform(0.5, 1.5, rows)
    buffer = np.empty((_block_rows(64), 64))

    def blocks():
        for block in _row_blocks(rows, 64):
            view = buffer[: block.stop - block.start]
            view[...] = mags[block]
            yield view

    want = _whole_array_mixed_norm(mags, tw, 0.25, outer, inner, order)
    kept = mags.copy()
    assert mixed_norm(mags, tw, 0.25, outer, inner, order) == want
    assert np.array_equal(mags, kept)
    assert mixed_norm(blocks(), tw, 0.25, outer, inner, order) == want
    with pytest.raises(ValueError, match="times"):
        mixed_norm(mags[:-1], tw, 0.25, outer, inner, order)


@pytest.mark.parametrize("order", ["t_outer_x_inner", "x_outer_t_inner"])
def test_mixed_norm_refuses_an_exponent_that_loses_nonzero_magnitudes(order):
    mags = np.full((5, 8), 0.5)
    mags[2] = 0.0  # a zero row or column has norm 0 at any exponent
    mags[:, 3] = 0.0
    tw = np.ones(5)
    assert mixed_norm(mags, tw, 1.0, 2.0, 1000.0, order) > 0.0
    with pytest.raises(ExponentError, match="^inner: .*rounds to 0") as info:
        mixed_norm(mags, tw, 1.0, 2.0, 2000.0, order)
    assert info.value.name == "inner"
    with pytest.raises(ExponentError, match="^outer: .*rounds to 0"):
        mixed_norm(mags * 0.2, tw, 1.0, 2000.0, 2.0, order)
    with (np.errstate(over="ignore"),
          pytest.raises(ExponentError, match="^inner: .*overflows")):
        mixed_norm(mags * 8.0, tw, 1.0, 2.0, 1000.0, order)
    # non-finite magnitudes are not the exponent's doing: their norm stands
    mags[0, 0] = math.inf
    assert mixed_norm(mags, tw, 1.0, 2.0, 2.0, order) == math.inf
    assert mixed_norm(np.zeros((5, 8)), tw, 1.0, 2000.0, 2000.0, order) == 0.0


@pytest.mark.parametrize("order", ["t_outer_x_inner", "x_outer_t_inner"])
def test_mixed_norm_checks_the_magnitudes_of_blocks_it_overwrites(order):
    # the blocks of an iterable take their own powers, and the range check
    # still reads their magnitudes: 1e80 and 1e-90 are finite and not zero,
    # while their fourth powers overflow and round to 0.  Checked against
    # the powers, the first would read inf, the second 0, and neither raise
    tw = np.ones(5)

    def blocks(value):
        for rows in (2, 3):
            yield np.full((rows, 8), value)

    with (np.errstate(over="ignore"),
          pytest.raises(ExponentError, match="^inner: .*overflows")):
        mixed_norm(blocks(1e80), tw, 1.0, 2.0, 4.0, order)
    with pytest.raises(ExponentError, match="^inner: .*rounds to 0"):
        mixed_norm(blocks(1e-90), tw, 1.0, 2.0, 4.0, order)
    assert mixed_norm(blocks(1e30), tw, 1.0, 2.0, 4.0, order) > 0.0


def test_vacuous_ratios_name_the_exponent_behind_them():
    # b = 2000 takes every row's L^b_x norm to 0; unchecked, the ratios are
    # 0.0 and the fitted constant 0.066.  C1's L^a_T norm over a flow of
    # large p does the same at a = 2500, where alpha(a, inf, 0) > 0 needs
    # a < p + 1
    grid = SpectralGrid(256, 40.0)
    with pytest.raises(ExponentError, match="^b: the L\\^2000.0 norm") as info:
        verify_smoothing("C2", symbols.preset("kdvks"), grid=grid, size=3, b=2000.0)
    assert info.value.name == "b"
    phi = symbols.PhaseFunction(p=3000.0, terms=(), eta=1.0)
    with pytest.raises(ExponentError, match="^a: the L\\^2500.0 norm") as info:
        verify_smoothing("C1", phi, grid=SpectralGrid(16, 40.0), size=3, a=2500.0)
    assert info.value.name == "a"


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


def test_verify_smoothing_peak_is_its_flow_table():
    # the state is the (49, 1024) complex flow table, 0.77 MiB, and blocks of
    # _block_rows(1024) = 16 rows; the peak, 1.43-1.51 MiB over the five
    # checks, is the table's own build.  Whole (49, 1024) products and
    # magnitudes per sample peaked at 2.06-2.40 MiB
    phi, grid = symbols.preset("optimality:2"), SpectralGrid(1024, 40.0)
    verify_smoothing("C2", phi, grid=grid, size=1)  # transform plans are cached
    for check in ("C1", "C2", "C3", "C4", "P_inf"):
        tracemalloc.start()
        try:
            verify_smoothing(check, phi, grid=grid, size=10, s=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 2**20, (check, peak / 2**20)


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
