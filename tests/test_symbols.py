"""Symbol table: preset values, dominance thresholds, multiplier bounds."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dklb import symbols
from dklb.grid import SpectralGrid
from dklb.symbols import (
    PhaseFunction,
    PhaseTerm,
    find_M,
    flow_multiplier,
    phase_eval,
    phi1_eval,
    preset,
    semigroup_multiplier,
    weighted_multiplier_sup,
)

PRESET_NAMES = ("kdvb", "ost", "kdvks", "optimality:2", "optimality:3")


def test_preset_anchor_values():
    kdvks = preset("kdvks")
    assert phase_eval(kdvks, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert phase_eval(kdvks, 2.0) == pytest.approx(-12.0, rel=1e-14)
    ost = preset("ost")
    assert phase_eval(ost, 2.0) == pytest.approx(-6.0, rel=1e-14)
    kdvb = preset("kdvb")
    assert phase_eval(kdvb, 1.0) == pytest.approx(-1.0, rel=1e-14)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_phase_vanishes_at_origin(name):
    assert phase_eval(preset(name), 0.0) == 0.0


@pytest.mark.parametrize(
    "name,expected",
    [("kdvb", 0.0), ("ost", math.sqrt(2)), ("kdvks", math.sqrt(2)),
     ("optimality:2", 2.0)],
)
def test_dominance_threshold_values(name, expected):
    assert find_M(preset(name)) == pytest.approx(expected, rel=1e-6, abs=1e-9)


def _dominates(phi, x):
    # Phi1 below half the leading term and |Phi| above it, on both signs.
    for xi in (x, -x):
        half = abs(xi) ** phi.p / 2.0
        if float(phi1_eval(phi, xi)) > half:
            return False
        if abs(float(phase_eval(phi, xi))) < half:
            return False
    return True


@pytest.mark.parametrize("name", ["ost", "kdvks", "optimality:2"])
def test_threshold_is_sharp(name):
    phi = preset(name)
    M = find_M(phi)
    assert _dominates(phi, M)
    assert not _dominates(phi, 0.99 * M)


@pytest.mark.parametrize("name", ["ost", "kdvks"])
def test_threshold_is_root_two_to_the_last_bits(name):
    M = find_M(preset(name))
    assert abs(M - math.sqrt(2)) <= 4 * math.ulp(math.sqrt(2))


def test_threshold_finds_a_band_narrower_than_any_scan_step():
    # g = x^2 ((x-10)^2/2 - 1e-10) dips below zero only on 10 -+ 1.414e-5
    phi = PhaseFunction(p=4.0, terms=(PhaseTerm(10.0, 0, 3.0),
                                      PhaseTerm(-(50.0 - 1e-10), 0, 2.0)))
    assert not symbols._dominance_holds(phi, 10.0)
    M = find_M(phi)
    assert M > 10.0
    assert M == pytest.approx(10.0 + math.sqrt(2e-10), rel=1e-9)
    assert symbols._dominance_holds(phi, M)


MULTI_TERM_SYMBOLS = {
    # real exponents, mixed signs, a sign-carrying odd term, a constant
    "three-terms": PhaseFunction(p=3.7, terms=(PhaseTerm(2.0, 0, 1.3),
                                               PhaseTerm(-1.5, 1, 0.7),
                                               PhaseTerm(0.8, 0, 0.4))),
    "four-terms": PhaseFunction(p=5.5, terms=(PhaseTerm(3.0, 0, 4.1),
                                              PhaseTerm(-4.0, 0, 2.6),
                                              PhaseTerm(1.0, 1, 0.25),
                                              PhaseTerm(2.0, 0, 0.0))),
}


@pytest.mark.parametrize("name", sorted(MULTI_TERM_SYMBOLS))
def test_multi_term_real_exponent_threshold_is_sharp(name):
    phi = MULTI_TERM_SYMBOLS[name]
    M = find_M(phi)
    assert M > 1.0
    assert symbols._dominance_holds(phi, M)
    assert not symbols._dominance_holds(phi, math.nextafter(M, 0.0))
    # and dominance holds on a dense sweep beyond M
    assert all(symbols._dominance_holds(phi, x)
               for x in np.linspace(M, 4.0 * M, 2001))


def test_terms_sharing_a_degree_merge_and_cancel():
    # 3 xi^2 - 3 |xi|^2 is zero: the leading term dominates everywhere
    phi = PhaseFunction(p=4.0, terms=(PhaseTerm(3.0, 2, 0.0),
                                      PhaseTerm(-3.0, 0, 2.0)))
    assert find_M(phi) == 0.0
    # 1 xi^2 + 1 |xi|^2 is kdvks's correction doubled: x^4/2 = 2 x^2 at 2
    phi = PhaseFunction(p=4.0, terms=(PhaseTerm(1.0, 2, 0.0),
                                      PhaseTerm(1.0, 0, 2.0)))
    assert find_M(phi) == 2.0


def test_threshold_with_an_exponent_gap_below_one():
    # x^0.5/2 - 2 x^0.2 + ...: the derivative blows up at 0, and the sign
    # there is taken from the lowest-order term
    phi = PhaseFunction(p=0.5, terms=(PhaseTerm(2.0, 0, 0.2),
                                      PhaseTerm(-1.0, 0, 0.1)))
    M = find_M(phi)
    assert symbols._dominance_holds(phi, M)
    assert not symbols._dominance_holds(phi, math.nextafter(M, 0.0))


def test_multiplier_at_time_zero_is_one():
    for name in PRESET_NAMES:
        phi = preset(name)
        xi = np.linspace(-30.0, 30.0, 101)
        assert np.all(semigroup_multiplier(phi, 0.0, xi) == 1.0)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_flow_multiplier_drops_only_the_nyquist_phase(name):
    # on a grid the dispersive phase is zero at the unpaired Nyquist mode;
    # every other mode, and the damping everywhere, match the bare multiplier
    phi = preset(name)
    grid = SpectralGrid(64, 40.0)
    nyq = grid.nyquist_index
    m = flow_multiplier(phi, 1e-3, grid)
    bare = semigroup_multiplier(phi, 1e-3, grid.xi)
    assert np.array_equal(np.delete(m, nyq), np.delete(bare, nyq))
    assert m[nyq].imag == 0.0
    assert m[nyq].real == pytest.approx(
        math.exp(phi.eta * 1e-3 * phase_eval(phi, grid.xi[nyq])), rel=1e-15)
    assert bare[nyq].imag != 0.0


def test_kdvks_multiplier_magnitude_anchor():
    phi = preset("kdvks", eta=1.0)
    m = semigroup_multiplier(phi, 1.0, np.array([2.0]))
    assert abs(m[0]) == pytest.approx(math.exp(-12.0), rel=1e-12)


def test_kdvb_pure_mode_decay_rate():
    phi = preset("kdvb", eta=1.0)
    for t in (0.1, 0.5, 1.0):
        m = semigroup_multiplier(phi, t, np.array([1.0]))
        assert abs(m[0]) == pytest.approx(math.exp(-t), rel=1e-12)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
def test_multiplier_bound_beyond_threshold(name, t):
    # |multiplier| <= exp(-eta*t*|xi|^p/2) for every mode past the threshold
    phi = preset(name)
    M = find_M(phi)
    xi = np.linspace(-40.0, 40.0, 4001)
    xi = xi[np.abs(xi) >= M]
    mags = np.abs(semigroup_multiplier(phi, t, xi))
    bound = np.exp(-phi.eta * t * np.abs(xi) ** phi.p / 2.0)
    assert np.all(mags <= bound * (1.0 + 1e-12))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_weighted_sup_follows_smoothing_envelope(name):
    # sup |xi|^{2q} e^{2 eta t Phi} <= c (1 + t^{-2q/p}) with one c stable
    # over three decades of t; the fitted c never drifts by more than 4x.
    phi = preset(name)
    q = phi.p / 4.0
    ts = [1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0]
    ratios = [weighted_multiplier_sup(phi, q, t) / (1.0 + t ** (-2 * q / phi.p))
              for t in ts]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 4.0


def test_weighted_sup_bounds_every_grid_mode():
    # the decay probe's envelope over optimality:2..4 on three grids, q in
    # 0:0.25:3 and 25 log-spaced t in [1e-4, 10]: a 20001-point scan fell
    # short of a grid mode in 21 of these 2925 cells, by up to 3.3e-7
    # relative.  At t = 300 it clamped the exponent at 50 and fell short in
    # 39 of 117 cells, by up to a factor of 2.4e5.
    for k in (2, 3, 4):
        phi = symbols.optimality(k)
        for n, length in ((512, 40.0), (1024, 80.0), (4096, 40.0)):
            xi = SpectralGrid(n, length).xi
            for q in np.arange(0.0, 3.25, 0.25):
                for t in [*np.logspace(-4, 1, 25), 300.0]:
                    modes = np.abs(xi) ** (2 * q) * np.exp(
                        2 * phi.eta * t * phase_eval(phi, xi))
                    sup = weighted_multiplier_sup(phi, float(q), float(t))
                    assert np.max(modes) <= sup, (k, n, q, t)


def test_weighted_sup_rejects_bad_arguments():
    phi = preset("kdvks")
    with pytest.raises(ValueError):
        weighted_multiplier_sup(phi, 1.0, 0.0)
    with pytest.raises(ValueError):
        weighted_multiplier_sup(phi, -1.0, 0.1)


def test_evenness_flags():
    assert preset("kdvb").is_even
    assert preset("kdvks").is_even
    assert preset("ost").is_even
    assert not preset("optimality:2").is_even


def test_optimality_phase_is_odd_at_one():
    phi = preset("optimality:2")
    assert phase_eval(phi, 1.0) != phase_eval(phi, -1.0)


@given(st.floats(-20.0, 20.0))
def test_even_presets_are_even_functions(xi):
    for name in ("kdvb", "ost", "kdvks"):
        phi = preset(name)
        assert phase_eval(phi, xi) == phase_eval(phi, -xi)


def test_growing_multiplier_is_exp_of_its_exact_exponent():
    # kdvks grows like exp(eta*t/4) near |xi| = 1/sqrt(2): at t = 250 the
    # exponent reaches 62.5 and max|flow| 8.7e25; at t = 4000 it passes
    # exp's range (~709.8), where the mode is inf
    phi = preset("kdvks")
    grid = SpectralGrid(256, 40.0)
    for t in (250.0, 4000.0):
        re = phi.eta * t * phase_eval(phi, grid.xi)
        with np.errstate(over="ignore"):
            m = flow_multiplier(phi, t, grid)
            expected = np.exp(re + 1j * t * grid.xi_odd**3)
        assert np.array_equal(m, expected)
        assert np.all(np.isinf(m[re > 710.0]))
        assert np.all(np.isfinite(m[re < 709.0]))
    assert np.max(np.abs(flow_multiplier(phi, 250.0, grid))) > 8e25
    # a custom symbol with exponent 384 at xi = 2, bare wavenumbers
    custom = PhaseFunction(p=4.0, terms=(PhaseTerm(100.0, 2, 0.0),), eta=1.0)
    m = semigroup_multiplier(custom, 1.0, np.array([2.0]))
    assert abs(m[0]) == pytest.approx(math.exp(384.0), rel=1e-12)


def test_preset_rejects_unknown_name():
    with pytest.raises(ValueError):
        preset("airy")


def test_term_degrees_below_leading_order():
    for name in PRESET_NAMES:
        phi = preset(name)
        for term in phi.terms:
            assert term.degree < phi.p


def test_eta_scales_dissipation():
    phi1 = preset("kdvks", eta=1.0)
    phi3 = preset("kdvks", eta=3.0)
    m1 = semigroup_multiplier(phi1, 1.0, np.array([2.0]))
    m3 = semigroup_multiplier(phi3, 1.0, np.array([2.0]))
    assert abs(m3[0]) == pytest.approx(abs(m1[0]) ** 3, rel=1e-9)
