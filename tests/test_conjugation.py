"""Exponential-weight conjugation: multiplier identity, transport, exchange."""

import math
import warnings

import numpy as np
import pytest

from dklb import conjugation, symbols
from dklb.conjugation import (
    conjugation_check,
    exchange_ensemble,
    operator_polynomial,
    regularity_gain_probe,
    shifted_multiplier,
    weight_exchange_check,
)
from dklb.errors import LeakageError
from dklb.fields import (
    gaussian,
    gaussian_spectral,
    mollified_cusp,
    normalize_l2,
    sample_ensemble,
)
from dklb.grid import (
    SpectralField,
    SpectralGrid,
    WeightSpec,
    apply_multiplier,
    fractional_D,
    l2_norm,
    to_values,
)
from dklb.norms import hs_norm, weighted_norm
from dklb.symbols import semigroup_multiplier

from conftest import expanded_multiplier, flowed


KDVKS = symbols.kdvks()
OPT2 = symbols.optimality(2)


# kdvks closed forms of the conjugation constants, S(z) = z^3 + eta*(z^2 + z^4):
# oracles for the values conjugation_check takes from the operator polynomial
def _delta(b, eta):
    return eta * (b**2 + b**4) - b**3


def _mu(b, eta):
    return 3.0 * b**2 - 2.0 * eta * b - 4.0 * eta * b**3


def _theta(xi, b, eta):
    return eta * xi**4 + (3.0 * b - eta - 6.0 * eta * b**2) * xi**2


@pytest.fixture
def wide_grid():
    return SpectralGrid(1024, 80.0)


def test_operator_polynomial_fourth_order():
    phi = symbols.kdvks(eta=1.0)
    poly = operator_polynomial(phi)
    assert np.allclose(poly, [0.0, 0.0, 1.0, 1.0, 1.0], atol=1e-15)


def test_operator_polynomial_matches_symbol(grid256):
    # S(i*xi) must reproduce -(i*xi^3 + eta*Phi(xi)) on the whole mode set
    for eta in (0.5, 1.0, 2.0):
        phi = symbols.kdvks(eta)
        poly = operator_polynomial(phi)
        xi = grid256.xi
        s_of_ixi = np.polynomial.polynomial.polyval(1j * xi, poly)
        expect = -(1j * xi**3) + eta * (xi**4 - xi**2)
        assert np.max(np.abs(s_of_ixi - expect)) <= 1e-10 * np.max(np.abs(expect))


def test_operator_polynomial_rejects_nonpolynomial_symbols():
    with pytest.raises(ValueError):
        operator_polynomial(symbols.ost())  # |xi| is not polynomial
    phi = symbols.PhaseFunction(p=4.0, terms=(symbols.PhaseTerm(1.0, 0, 1.0),),
                                eta=1.0)
    with pytest.raises(ValueError):
        operator_polynomial(phi)


def test_shift_zero_reduces_to_semigroup(grid256):
    phi = symbols.kdvks()
    for t in (0.05, 0.3):
        shifted = shifted_multiplier(phi, 0.0, t, grid256.xi)
        plain = semigroup_multiplier(phi, t, grid256.xi)
        assert np.max(np.abs(shifted - plain)) <= 1e-12


def test_expanded_form_matches_direct(wide_grid):
    for b in (0.25, 0.5):
        for t in (0.05, 0.1):
            for eta in (1.0, 2.0):
                phi = symbols.kdvks(eta)
                direct = shifted_multiplier(phi, b, t, wide_grid.xi)
                expanded = expanded_multiplier(b, eta, t, wide_grid.xi)
                scale = np.max(np.abs(direct))
                assert np.max(np.abs(direct - expanded)) <= 1e-12 * scale


def test_multiplier_magnitude_factorizes(wide_grid):
    # |exp(-t S(i xi - b))| = exp(-t (theta(xi) + delta))
    b, eta, t = 0.4, 1.0, 0.08
    phi = symbols.kdvks(eta)
    mags = np.abs(shifted_multiplier(phi, b, t, wide_grid.xi))
    expect = np.exp(-t * (_theta(wide_grid.xi, b, eta) + _delta(b, eta)))
    assert np.max(np.abs(mags - expect)) <= 1e-12 * np.max(expect)


def test_decay_shift_and_transport_values(wide_grid):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    [r1] = conjugation_check(f, KDVKS, 0.25, (0.0,))
    [r2] = conjugation_check(f, KDVKS, 0.5, (0.0,))
    assert r1.delta == (0.0625 + 0.00390625) - 0.015625
    assert r2.delta == 0.25 + 0.0625 - 0.125
    assert r1.mu == -0.375
    assert r2.mu == -0.75


@pytest.mark.parametrize("eta", [1.0, 2.0])
@pytest.mark.parametrize("b", [0.25, 0.5])
def test_delta_and_mu_are_the_kdvks_closed_forms(wide_grid, b, eta):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    [res] = conjugation_check(f, symbols.kdvks(eta), b, (0.1,))
    assert res.delta == _delta(b, eta)
    assert res.mu == _mu(b, eta)


def test_conjugation_identity_at_time_zero(wide_grid):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    [res] = conjugation_check(f, KDVKS, b=0.5, t_values=(0.0,))
    assert res.rel_error == 0.0


def test_conjugation_identity_unweighted_limit(wide_grid):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    [res] = conjugation_check(f, KDVKS, b=0.0, t_values=(0.1,))
    assert res.rel_error <= 1e-12


def test_conjugation_identity_moderate_weight(wide_grid):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    [res] = conjugation_check(f, KDVKS, b=0.25, t_values=(0.1,))
    assert res.rel_error <= 1e-9
    assert res.boundary_leakage <= 1e-8
    assert res.delta == _delta(0.25, 1.0)
    assert res.mu == _mu(0.25, 1.0)
    assert 0 < res.bound_ratio <= 1.0


def test_conjugation_bound_ratio_scale_invariant(wide_grid):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    [r1] = conjugation_check(f, KDVKS, 0.25, (0.1,), max_leakage=math.inf)
    [r2] = conjugation_check(f * 5.0, KDVKS, 0.25, (0.1,), max_leakage=math.inf)
    assert r1.bound_ratio == pytest.approx(r2.bound_ratio, rel=1e-12)
    assert r1.rel_error == pytest.approx(r2.rel_error, rel=1e-9)


def test_conjugation_refuses_boundary_leaners(wide_grid):
    f = gaussian_spectral(wide_grid, center=25.0, width=4.0)
    with pytest.raises(LeakageError):
        conjugation_check(f, KDVKS, b=0.5, t_values=(0.1,))


def test_conjugation_error_grows_with_leakage(wide_grid):
    # marching the bump toward the amplified boundary degrades the periodic
    # surrogate; both the reported leakage and the identity error grow
    prev_leak = prev_err = -1.0
    for center in (16.0, 20.0, 24.0, 28.0):
        f = gaussian_spectral(wide_grid, center=center, width=2.0)
        [res] = conjugation_check(f, KDVKS, b=0.25, t_values=(0.1,),
                                  max_leakage=math.inf)
        assert res.boundary_leakage > prev_leak
        assert res.rel_error > prev_err
        prev_leak, prev_err = res.boundary_leakage, res.rel_error


def test_conjugated_packet_transports(wide_grid):
    # the exp(b x)-conjugated flow translates a packet by mu*t
    b, eta, t = 0.25, 1.0, 1.0
    g = gaussian(wide_grid, center=0.0, width=2.0)
    moved = apply_multiplier(g, shifted_multiplier(KDVKS, b, t, wide_grid.xi),
                             False)
    vals = np.abs(to_values(moved))
    i = int(np.argmax(vals))
    # quadratic refinement around the grid maximum
    y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
    frac = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
    peak = wide_grid.x[i] + frac * wide_grid.dx
    expect = _mu(b, eta) * t
    assert abs(peak - expect) <= 2 * wide_grid.dx


def test_weight_exchange_basic_properties(grid256):
    phi = symbols.kdvks()
    u0 = normalize_l2(gaussian(grid256, width=1.5))
    z = SpectralField(grid256, np.zeros(grid256.n, dtype=complex), True)
    assert weight_exchange_check(z, phi, 0.5, 1.5, 0.5) == 0.0
    r0 = weight_exchange_check(u0, phi, 0.5, 1.5, 0.0)
    assert 0 < r0 <= 1.0
    for t in (0.1, 0.5, 1.0):
        r = weight_exchange_check(u0, phi, 0.5, 1.5, t)
        assert np.isfinite(r) and r > 0


def test_weight_exchange_enforces_precondition(grid256):
    phi = symbols.kdvks()  # p = 4, so r may not exceed s/3
    u0 = gaussian(grid256)
    with pytest.raises(ValueError, match="exceeds"):
        weight_exchange_check(u0, phi, 0.6, 1.5, 0.1)
    with pytest.raises(ValueError):
        weight_exchange_check(u0, phi, -0.1, 1.5, 0.1)
    # boundary case r == s/(p-1) is allowed
    assert weight_exchange_check(u0, phi, 0.5, 1.5, 0.1) > 0


def test_exchange_ensemble_stability():
    phi = symbols.kdvks()
    grid = SpectralGrid(128, 40.0)
    t_values = (0.1, 0.5, 1.0)
    rep1 = exchange_ensemble(phi, 0.5, 1.5, t_values, size=12, seed=7, grid=grid)
    rep2 = exchange_ensemble(phi, 0.5, 1.5, t_values, size=12, seed=7, grid=grid)
    assert np.array_equal(rep1.ratios, rep2.ratios)
    assert rep1.ratios.shape == (12, 3)
    assert np.all(np.isfinite(rep1.ratios))
    rep3 = exchange_ensemble(phi, 0.5, 1.5, t_values, size=12, seed=8, grid=grid)
    spread = abs(rep3.max_ratio - rep1.max_ratio) / rep1.max_ratio
    assert spread <= 0.2


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
def test_exchange_ensemble_matches_weight_exchange_check(name):
    phi = symbols.preset(name)
    grid = SpectralGrid(128, 40.0)
    t_values = (0.0, 0.1, 0.5)
    rep = exchange_ensemble(phi, 0.5, 1.5, t_values, size=6, seed=3, grid=grid)
    expected = [[weight_exchange_check(u0, phi, 0.5, 1.5, t) for t in t_values]
                for u0 in sample_ensemble(grid, 6, 3)]
    assert np.array_equal(rep.ratios, np.array(expected))


@pytest.mark.parametrize("name", ["kdvks", "optimality:2"])
def test_weight_exchange_check_is_the_semigroup_formula(name):
    # the ratio, bit for bit, as the flow applied at one time gives it
    phi = symbols.preset(name)
    grid = SpectralGrid(128, 40.0)
    w = WeightSpec("poly", 0.5)
    for u0 in sample_ensemble(grid, 4, 5):
        for t in (0.0, 0.1, 0.5):
            denom = (1.0 + t) * hs_norm(u0, 1.5) + weighted_norm(u0, w)
            expected = weighted_norm(flowed(u0, phi, t), w) / denom
            assert weight_exchange_check(u0, phi, 0.5, 1.5, t) == expected


def test_exchange_ensemble_builds_one_flow_table(monkeypatch):
    # one table over the t-list serves every sample: no per-(sample, t)
    # multiplier builds
    calls = []
    flow = symbols.flow_multiplier

    def counting(phi, t, grid):
        calls.append(np.shape(t))
        return flow(phi, t, grid)

    monkeypatch.setattr(symbols, "flow_multiplier", counting)
    rep = exchange_ensemble(KDVKS, 0.5, 1.5, (0.1, 0.5, 1.0), size=7, seed=2,
                            grid=SpectralGrid(128, 40.0))
    assert rep.ratios.shape == (7, 3)
    assert calls == [(3,)]


def test_exchange_ensemble_refuses_bad_exponents_before_drawing():
    with pytest.raises(ValueError, match="exceeds"):
        exchange_ensemble(KDVKS, 0.55, 1.5, (0.1,), size=0)
    with pytest.raises(ValueError, match="nonnegative"):
        exchange_ensemble(KDVKS, -0.1, 1.5, (0.1,), size=0)


def test_regularity_gain_probe_rows():
    rep = regularity_gain_probe(OPT2, sigmas=(0.0, 0.5), t_values=(0.1, 0.2, 0.4),
                                grid=SpectralGrid(256, 40.0))
    assert len(rep.rows) == 6
    for row in rep.rows:
        assert set(row) == {"sigma", "t", "norm", "mult_bound"}
        assert np.isfinite(row["norm"]) and row["norm"] > 0
        # the spectral envelope dominates each measured norm
        assert row["norm"] <= row["mult_bound"] * (1 + 1e-9)
    assert set(rep.fitted_rates) == {0.0, 0.5}
    assert all(np.isfinite(v) for v in rep.fitted_rates.values())


def test_regularity_gain_probe_fits_no_rate_through_one_repeated_time():
    # a slope through one abscissa is no rate; numpy's polyfit would return
    # one with a RankWarning
    grid = SpectralGrid(64, 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = regularity_gain_probe(OPT2, sigmas=(0.0, 0.5), t_values=(0.1, 0.1),
                                    grid=grid)
    assert len(rep.rows) == 4
    assert all(np.isnan(v) for v in rep.fitted_rates.values())
    rep = regularity_gain_probe(OPT2, sigmas=(0.0, 0.5), t_values=(0.1, 0.1, 0.2),
                                grid=grid)
    assert all(np.isfinite(v) for v in rep.fitted_rates.values())


def test_regularity_gain_probe_builds_one_flow_table(monkeypatch):
    # one table over the times serves every sigma, and each norm is the one
    # the flow applied at that time gives
    grid = SpectralGrid(128, 40.0)
    calls = []
    flow = symbols.flow_multiplier

    def counting(phi, t, grid):
        calls.append(np.shape(t))
        return flow(phi, t, grid)

    monkeypatch.setattr(symbols, "flow_multiplier", counting)
    rep = regularity_gain_probe(OPT2, sigmas=(0.0, 0.5), t_values=(0.1, 0.2, 0.4),
                                grid=grid)
    assert calls == [(3,)]
    monkeypatch.setattr(symbols, "flow_multiplier", flow)
    u0 = mollified_cusp(grid)
    for row in rep.rows:
        vt = flowed(u0, OPT2, row["t"])
        assert row["norm"] == l2_norm(fractional_D(vt, row["sigma"]))


def test_theta_profile_positive_for_small_b(wide_grid):
    # for b small the damping profile theta = Re S(i*xi - b) - delta, read off
    # the conjugated multiplier, stays positive away from zero
    b, t = 0.5, 1e-5
    m = shifted_multiplier(KDVKS, b, t, wide_grid.xi)
    th = -np.log(np.abs(m)) / t - _delta(b, 1.0)
    assert th[np.abs(wide_grid.xi) >= 2.0].min() > 0


# criterion 01's grid, data and bar; optimality:3 (p = 6) reaches it only at
# b = 0.25, and leans on the boundary at b = 0.5, t = 0.1
@pytest.mark.parametrize("name, bs", [("kdvb", (0.25, 0.5)),
                                      ("kdvks", (0.25, 0.5)),
                                      ("optimality:2", (0.25, 0.5)),
                                      ("optimality:3", (0.25,))])
def test_conjugation_identity_on_every_polynomial_symbol(wide_grid, name, bs):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    phi = symbols.preset(name)
    S = np.polynomial.Polynomial(operator_polynomial(phi))
    for b in bs:
        cells = conjugation_check(f, phi, b, (0.05, 0.1))
        for t, res in zip((0.05, 0.1), cells):
            assert res.rel_error <= 1e-7, (b, t, res.rel_error)
            assert res.delta == S(-b).real and res.mu == S.deriv()(-b).real
            assert 0 < res.bound_ratio <= 1.0


def test_conjugation_check_rejects_non_polynomial_symbols(wide_grid):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    odd_p = symbols.PhaseFunction(p=3.0, terms=(symbols.PhaseTerm(1.0, 0, 2.0),))
    for phi in (symbols.ost(), odd_p):
        with pytest.raises(ValueError, match="not a differential-operator"):
            conjugation_check(f, phi, 0.25, (0.1,))


def test_conjugation_check_rejects_negative_time(wide_grid):
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    with pytest.raises(ValueError):
        conjugation_check(f, KDVKS, 0.25, (0.05, -0.1))


@pytest.mark.parametrize("name, data", [("kdvks", "gaussian"),
                                        ("optimality:2", "gaussian"),
                                        ("kdvb", "complex")])
def test_conjugation_check_over_times_is_the_per_time_calls(wide_grid, name, data):
    # the b-only work done once changes no bit of any cell
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    if data == "complex":
        f = SpectralField(wide_grid, f.coeffs * np.exp(0.3j * wide_grid.xi), False)
    phi = symbols.preset(name)
    t_values = (0.0, 0.05, 0.1, 0.05)
    for b in (0.0, 0.25, 0.5):
        cells = conjugation_check(f, phi, b, t_values, max_leakage=math.inf)
        assert len(cells) == len(t_values)
        for t, cell in zip(t_values, cells):
            [single] = conjugation_check(f, phi, b, (t,), max_leakage=math.inf)
            assert cell == single, (b, t)


def test_conjugation_check_does_its_b_only_work_once(wide_grid, monkeypatch):
    # one strip of f, one flowed transform per time, one multiplier table
    calls = {"dd_field_values": 0, "dd_semigroup_multiplier": 0}
    for fname in calls:
        original = getattr(conjugation, fname)

        def counting(*args, _fn=original, _name=fname, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(conjugation, fname, counting)
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    t_values = (0.05, 0.1, 0.2)
    cells = conjugation_check(f, KDVKS, 0.25, t_values)
    assert len(cells) == 3
    assert calls == {"dd_field_values": 1 + len(t_values),
                     "dd_semigroup_multiplier": 1}


@pytest.mark.parametrize("name, data, want", [
    ("kdvks", "real", ["half", "half", "half"]),
    ("optimality:2", "real", ["half", "full", "full"]),
    ("kdvks", "complex", ["full", "full", "full"]),
])
def test_conjugation_check_reads_real_fields_from_half_spectra(
        wide_grid, monkeypatch, name, data, want):
    # f's strip, then one per time; a multiplier always matches its spectrum
    lengths = {wide_grid.n // 2 + 1: "half", wide_grid.n: "full"}
    seen = []
    original = conjugation.dd_field_values

    def recording(coeffs, grid, idx, mult=None):
        if mult is not None:
            assert mult.shape[-1] == coeffs.shape[-1]
        seen.append(lengths[coeffs.shape[-1]])
        return original(coeffs, grid, idx, mult)

    monkeypatch.setattr(conjugation, "dd_field_values", recording)
    f = gaussian_spectral(wide_grid, center=-10.0, width=3.0)
    if data == "complex":
        f = SpectralField(wide_grid, f.coeffs * np.exp(0.3j * wide_grid.xi), False)
    conjugation_check(f, symbols.preset(name), 0.25, (0.05, 0.1), max_leakage=math.inf)
    assert seen == want
