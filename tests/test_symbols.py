"""Symbol table: preset values, dominance thresholds, multiplier bounds."""

import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dklb import symbols
from dklb.errors import NumericalError
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


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("n", [16, 256, 2048])
def test_flow_multiplier_on_the_kept_modes_is_the_full_tables_prefix(name, n):
    # a real flow keeps modes 0..N/2; evaluating only those must not move a bit
    phi = preset(name)
    grid = SpectralGrid(n, 40.0)
    for t in (1e-3, 0.7, np.arange(129) * (0.1 / 128), np.linspace(0.0, 1.0, 49)):
        full = flow_multiplier(phi, t, grid)
        half = flow_multiplier(phi, t, grid, real=True)
        assert half.shape == full.shape[:-1] + (n // 2 + 1,)
        assert np.array_equal(half, full[..., : n // 2 + 1])


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("real", [True, False])
def test_flow_table_is_the_plain_exponential_to_the_bit(name, real):
    # the exponential taken in place in the complex exponent against
    # exp(re + i*t*xi^3) with every temporary fresh, at times where modes
    # overflow (inf) and on a grid whose xi^3 overflows by itself (nan)
    phi = preset(name)
    for grid in (SpectralGrid(256, 40.0), SpectralGrid(64, 1e-103)):
        keep = grid.n // 2 + 1 if real else grid.n
        xi, xi_odd = grid.xi[:keep], grid.xi_odd[:keep]
        for t in (0.7, np.arange(129) * (0.5 / 128), np.array([0.0, 1e3, 1e300])):
            col = np.asarray(t, dtype=float)[..., None] if np.ndim(t) else t
            with np.errstate(all="ignore"):
                want = np.exp(phi.eta * col * phase_eval(phi, xi)
                              + 1j * col * xi_odd ** 3)
                got = flow_multiplier(phi, t, grid, real)
            assert got.tobytes() == want.tobytes()
    scalar = semigroup_multiplier(phi, 0.5, 2.0)
    assert np.ndim(scalar) == 0
    assert scalar == np.exp(phi.eta * 0.5 * phase_eval(phi, 2.0) + 1j * 0.5 * 8.0)


@pytest.mark.parametrize("real", [True, False])
def test_flow_table_memory_is_the_result_and_one_real_exponent(real):
    # kdvks at n = 16384 and 129 times: the table is 16.1 MiB on the half
    # spectrum (32.3 on all modes), and beside it only the real exponent
    # (half its size) is alive at np.exp, a traced peak of 1.53 times the
    # table; a fresh complex sum and a fresh result peaked at 2.52 times it
    phi = preset("kdvks")
    grid = SpectralGrid(16384, 40.0)
    tracemalloc.start()
    try:
        table = flow_multiplier(phi, np.arange(129) * (0.5 / 128), grid, real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * table.nbytes, peak / table.nbytes


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
    # 39 of 117 cells, by up to a factor of 2.4e5.  kdvks and a symbol with
    # a constant and an odd term take the same bar.
    custom = PhaseFunction(4.0, (PhaseTerm(0.5, 0, 0.0), PhaseTerm(1.0, 1, 2.0)))
    for phi in (*(symbols.optimality(k) for k in (2, 3, 4)), symbols.kdvks(), custom):
        for n, length in ((512, 40.0), (1024, 80.0), (4096, 40.0)):
            xi = SpectralGrid(n, length).xi
            for q in np.arange(0.0, 3.25, 0.25):
                for t in [*np.logspace(-4, 1, 25), 300.0]:
                    modes = np.abs(xi) ** (2 * q) * np.exp(
                        2 * phi.eta * t * phase_eval(phi, xi))
                    sup = weighted_multiplier_sup(phi, float(q), float(t))
                    assert np.max(modes) <= sup, (phi, n, q, t)


@pytest.mark.parametrize("make, want", [
    (symbols.kdvb, 1.0),  # at q = 0, exp(0) at xi = 0
    (symbols.kdvks, math.inf),
    (lambda eta: symbols.optimality(2, eta), math.inf),
])
@pytest.mark.parametrize("t", [0.1, 10.0])
def test_weighted_sup_is_not_nan_where_eta_t_overflows(make, want, t):
    # at eta = 1e308, 2*eta*t overflows at t = 0.1 and eta*t itself at t = 10
    phi = make(1e308)
    with np.errstate(over="ignore"):
        assert weighted_multiplier_sup(phi, 0.0, t) == want
        assert not math.isnan(weighted_multiplier_sup(phi, 0.5, t))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("eta, t", [(1e-300, 1e-30), (1e-300, 1e-20), (1e-300, 1e-9)])
def test_weighted_sup_where_eta_t_underflows(k, eta, t):
    # eta*t is 0 or subnormal; the stationary point sits near
    # (q/(p*eta*t))**(1/p), where the correction terms weigh about
    # (eta*t)**(1/p) relative to the leading one, so the sup is the leading
    # term's (q/(p*eta*t))**(2q/p) * e^(-2q/p), taken in logs
    phi = symbols.optimality(k, eta)
    assert eta * t < np.finfo(float).tiny
    assert weighted_multiplier_sup(phi, 0.0, t) == 1.0
    log_ts = math.log(eta) + math.log(t)
    for q in (0.25, 0.5, 1.0):
        want = math.exp(2.0 * q / phi.p * (math.log(q / phi.p) - log_ts - 1.0))
        assert weighted_multiplier_sup(phi, q, t) == pytest.approx(want, rel=1e-12)


def _exact_log_product(a, b):
    # log(a*b) to 40 digits, from the exact binary values of a and b
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(a) * Decimal(b)).ln()


def test_log_product_is_the_rounded_log_of_the_product():
    # where eta*t is a normal double the log is log(eta*t), exactly log(t)
    # at eta = 1; elsewhere it is taken from the frexp mantissas and
    # exponents, and is within half an ulp of the 40-digit log (the sum
    # log(eta) + log(t) is off by up to 1.14 ulps over these pairs)
    rng = np.random.default_rng(4)
    pairs = [(1e-300, 1e-30), (1e-300, 1e-20), (1e-300, 1e-9), (5e-324, 5e-324),
             (1e308, 1e308), (1.7976931348623157e308, 2.0)]
    pairs += [tuple((10.0 ** rng.uniform(-320.0, -150.0, 2)).tolist()) for _ in range(300)]
    pairs += [tuple((10.0 ** rng.uniform(150.0, 308.0, 2)).tolist()) for _ in range(100)]
    for a, b in pairs:
        got = symbols._log_product(a, b)
        err = abs(Decimal(got) - _exact_log_product(a, b))
        assert err <= Decimal(0.5 + 1e-3) * Decimal(math.ulp(got)), (a, b)
    for t in (1e-30, 0.1, 1.0, 10.0, 2.2250738585072014e-308):
        assert symbols._log_product(1.0, t) == math.log(t)


def _exact_weighted_sup(phi, q, t):
    # sup over xi of |xi|**(2q) exp(2 eta t Phi(xi)) to 40 digits: Newton on
    # the derivative of 2q u + 2 eta t Phi(+-e^u) on each half-line, from
    # the leading term's stationary point u = log(q/(p eta t))/p
    with localcontext() as ctx:
        ctx.prec = 50
        ts, q_ = Decimal(phi.eta) * Decimal(t), Decimal(q)
        best = Decimal(0)
        for sign in (1, -1):
            terms = [(Decimal(-1), Decimal(phi.p))] + [
                (Decimal(c.coeff) * sign**c.m, Decimal(c.degree)) for c in phi.terms]
            u = ((q_ / (Decimal(phi.p) * ts)).ln()) / Decimal(phi.p)
            for _ in range(100):
                powers = [(c, d, (d * u).exp()) for c, d in terms]
                step = ((2 * q_ + 2 * ts * sum(c * d * x for c, d, x in powers))
                        / (2 * ts * sum(c * d * d * x for c, d, x in powers)))
                u -= step
                if abs(step) < Decimal("1e-45"):
                    break
            value = (2 * q_ * u + 2 * ts * sum(c * (d * u).exp() for c, d in terms)).exp()
            best = max(best, value)
        return best


@pytest.mark.parametrize("name, q, t", [("kdvks", 0.5, 1e-30), ("kdvks", 0.5, 1e-20),
                                        ("optimality:2", 1.0, 1e-30)])
def test_weighted_sup_where_eta_t_underflows_is_within_its_rounding(name, q, t):
    # at eta = 1e-300 the sup is exp(L), L = log of it, 189 to 379 here, taken
    # in doubles: its relative error is that of L, at most half an ulp of L
    # and 2q/p times half an ulp of log(eta*t), plus a few ulps of the sup.
    # Measured against a 40-digit reference: 179, 112 and 80 ulps, 0.70,
    # 0.54 and 0.23 of that budget; log(eta*t) is the rounded log in all
    # three, as log(eta) + log(t) was
    phi = symbols.preset(name, 1e-300)
    want = _exact_weighted_sup(phi, q, t)
    got = weighted_multiplier_sup(phi, q, t)
    log_ts = symbols._log_product(phi.eta, t)
    budget = (2.0 * q / phi.p * math.ulp(log_ts) / 2.0
              + math.ulp(float(want.ln())) / 2.0 + 4.0 * np.finfo(float).eps)
    assert abs(Decimal(got) / want - 1) <= Decimal(budget), float(Decimal(got) / want - 1)


@pytest.mark.parametrize("p", [1e-320, 1e-5, 1e-3, 1e308])
def test_weighted_sup_refuses_a_root_search_that_leaves_the_doubles(p):
    # the tail bound (q/(eta*t*p))**(1/p) overflows, or the tail is inf
    # because 1/p is, or the derivative of h in log x, -eta*t*p**2 * x**p,
    # has a coefficient past the largest double
    with pytest.raises(NumericalError, match=re.escape(f"leading power p={p!r}")):
        weighted_multiplier_sup(symbols.PhaseFunction(p), 0.25, 0.1)


@pytest.mark.parametrize("p, eta, t", [
    (1e4, 1.0, 0.1), (1e6, 1.0, 0.1), (1e12, 1.0, 0.1),
    # 1.25**p first overflows a double between these two
    (3177.0, 1.0, 0.1), (3178.0, 1.0, 0.1),
    # eta*t just above float_info.min, and subnormal
    (1e4, 1.0, 2.3e-308), (1e4, 1e-300, 1e-20),
])
def test_weighted_sup_at_large_leading_powers(p, eta, t):
    # h(x) = q - eta*t*p*x**p has its one root at x* = (q/(eta*t*p))**(1/p),
    # near 1, searched in u = log x (at p = 1e12, log x* ~ -2.7e-11); the
    # sup is x* ** (2q) * exp(-2q/p), both taken in logs
    q = 0.25
    phi = symbols.PhaseFunction(p, eta=eta)
    log_ts = math.log(eta) + math.log(t)
    log_x = (math.log(q) - log_ts - math.log(p)) / p
    x_star = math.exp(log_x)
    got = symbols._stationary_points(phi, q, log_ts)
    assert got == [pytest.approx(x_star, rel=1e-15), pytest.approx(-x_star, rel=1e-15)]
    want = math.exp(2.0 * q * (log_x - 1.0 / p))
    assert weighted_multiplier_sup(phi, q, t) == pytest.approx(want, rel=1e-15)


def test_weighted_sup_refuses_a_symbol_that_is_inf_minus_inf():
    # at the stationary point xi**2 ~ 5e307 both -xi**4 and 1e308*xi**2 overflow
    phi = symbols.PhaseFunction(4.0, (symbols.PhaseTerm(1e308, 0, 2.0),))
    with pytest.raises(NumericalError, match=re.escape("leading power p=4.0")):
        weighted_multiplier_sup(phi, 0.25, 0.1)


def test_weighted_sup_rejects_bad_arguments():
    phi = preset("kdvks")
    with pytest.raises(ValueError):
        weighted_multiplier_sup(phi, 1.0, 0.0)
    with pytest.raises(ValueError):
        weighted_multiplier_sup(phi, -1.0, 0.1)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 32), st.sampled_from((-1.0, 1.0)),
                          st.floats(-20.0, 20.0)),
                min_size=2, max_size=4, unique_by=lambda term: term[0]))
# (1 - y)(1 - 2y) and (1 - y)(1 - 2y)(1 - 4y) in y = exp(u): two and three roots
@example([(0, 1.0, 0.0), (4, -1.0, math.log(3.0)), (8, 1.0, math.log(2.0))])
@example([(0, 1.0, 0.0), (4, -1.0, math.log(7.0)), (8, 1.0, math.log(14.0)),
          (12, -1.0, math.log(8.0))])
def test_log_sign_changes_match_a_dense_scan(terms):
    # sum of sign * exp(l + e*u), the exponents e in quarters: a scan in u,
    # off the grid of simple floats and 3 past each end of the bracket,
    # finds every sign change inside the bracket, and each scan cell holds
    # an odd number of the returned roots exactly where its ends differ in
    # sign (two roots closer than a cell share one)
    poly = sorted((e / 4.0, sg, l) for e, sg, l in terms)
    lo, hi = symbols._log_bounds(poly)
    roots = np.array(symbols._log_sign_changes(poly, lo, hi))
    assert np.all((lo <= roots) & (roots <= hi))
    u = np.linspace(lo - 3.0 - 1e-3 * math.pi, hi + 3.0, 20001)
    z = np.array([l + e * u for e, _, l in poly])
    signs = np.array([sg for _, sg, _ in poly])[:, None]
    negative = np.sum(signs * np.exp(z - z.max(axis=0)), axis=0) < 0.0
    changed = negative[:-1] != negative[1:]
    assert np.all(u[1:][changed] >= lo) and np.all(u[:-1][changed] <= hi)
    held = np.bincount(np.searchsorted(u, roots), minlength=len(u) + 1)[1:-1]
    assert np.array_equal(held % 2 == 1, changed)


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
