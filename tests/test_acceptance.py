"""Acceptance gate: ten end-to-end checks, one test (and one verdict line) each.

Tolerances here are contractual; do not loosen them to make a box green.
Every test prints a single `criterion NN ...: PASS (...)` line with the
measured margin when it succeeds (visible under pytest -s; under plain
pytest the per-test PASSED/FAILED line is the verdict).
"""

import numpy as np
import pytest
from click.testing import CliRunner
from fractions import Fraction

from dklb import symbols
from dklb.brackets import (
    Bracket,
    evenodd_expand,
    reduce_bracket,
    reduction_residual,
    standard_pairs,
)
from dklb.cli import main
from dklb.conjugation import (
    conjugation_check,
    exchange_ensemble,
    shifted_multiplier,
    weight_exchange_check,
)
from dklb.fields import gaussian, gaussian_spectral, normalize_l2, random_mixture
from dklb.grid import SpectralField, SpectralGrid, l2_norm
from dklb.norms import (
    A2,
    A3,
    _magnitudes,
    _trapezoid_weights,
    mixed_norm,
    verify_smoothing,
)
from dklb.solver import (
    _full_spectrum,
    dissipation_residuals,
    etdrk4_solve,
    existence_time,
    picard_solve,
)

from conftest import expanded_multiplier, final_field, flowed


PRESETS = ("kdvb", "ost", "kdvks", "optimality:2", "optimality:3")


@pytest.fixture(scope="module")
def kdvks_phase():
    return symbols.kdvks(1.0)


@pytest.fixture(scope="module")
def grid256():
    return SpectralGrid(256, 40.0)


def test_criterion_01_conjugation_identity(kdvks_phase):
    grid = SpectralGrid(1024, 80.0)
    f = gaussian_spectral(grid, center=-10.0, width=3.0)
    worst_rel = 0.0
    for b in (0.25, 0.5):
        cells = conjugation_check(f, kdvks_phase, b, (0.05, 0.1))
        for t, r in zip((0.05, 0.1), cells):
            assert r.rel_error <= 1e-7, (b, t, r.rel_error)
            worst_rel = max(worst_rel, r.rel_error)
    worst_mult = 0.0
    for b in (0.25, 0.5):
        for t in (0.05, 0.1):
            direct = shifted_multiplier(kdvks_phase, b, t, grid.xi)
            expanded = expanded_multiplier(b, 1.0, t, grid.xi)
            gap = np.max(np.abs(direct - expanded))
            assert gap <= 1e-12 * max(1.0, np.max(np.abs(direct)))
            worst_mult = max(worst_mult, gap)
    print(f"criterion 01 conjugation identity: PASS "
          f"(worst rel_error {worst_rel:.3e} <= 1e-7, "
          f"multiplier forms agree to {worst_mult:.3e})")


def test_criterion_02_bracket_engine():
    pairs = standard_pairs()[:3]
    assert len(pairs) == 3
    checked, worst = 0, 0.0
    for n in range(1, 7):
        for m in range(n):
            for a in range(4):
                for u, rho in pairs:
                    lhs, _, resid = reduction_residual(Bracket(n, m, a), u, rho)
                    assert resid <= 1e-8 * max(1.0, abs(lhs)), (n, m, a, resid)
                    worst = max(worst, resid / max(1.0, abs(lhs)))
                    checked += 1
    # base cases in exact rational arithmetic
    for a in range(4):
        assert reduce_bracket(Bracket(2, 1, a)).terms == (
            (Bracket(1, 1, a + 1), Fraction(-1, 2)),)
        gap2 = dict(reduce_bracket(Bracket(2, 0, a)).terms)
        assert gap2 == {Bracket(1, 1, a): Fraction(-1),
                        Bracket(0, 0, a + 2): Fraction(1, 2)}
    # alternating even/odd structural form (self-verifying; raises on violation)
    for order in range(2, 8):
        terms = dict(evenodd_expand(order).terms)
        assert all(2 * b.n + b.a == order for b in terms)
        assert terms[Bracket(0, 0, order)] == Fraction((-1) ** order, 2)
    print(f"criterion 02 bracket engine: PASS "
          f"({checked} reductions, worst scaled residual {worst:.3e} <= 1e-8, "
          f"rational base cases exact, structural form holds to order 7)")


def test_criterion_03_multiplier_bounds():
    checked, violations, worst = 0, 0, 0.0
    for name in PRESETS:
        ph = symbols.preset(name, 1.0)
        M = symbols.find_M(ph)
        for grid in (SpectralGrid(256, 40.0), SpectralGrid(1024, 80.0)):
            xi = grid.xi
            sel = (np.abs(xi) >= M) & (np.abs(xi) > 0)
            for t in (0.01, 0.1, 1.0):
                mag = np.abs(symbols.semigroup_multiplier(ph, t, xi[sel]))
                bound = np.exp(-t * np.abs(xi[sel]) ** ph.p / 2.0)
                live = bound > 0
                violations += int(np.count_nonzero(mag[live] > bound[live]))
                if np.any(live):
                    worst = max(worst, float(np.max(mag[live] / bound[live])))
                checked += int(np.count_nonzero(live))
    assert violations == 0
    print(f"criterion 03 multiplier bounds: PASS "
          f"({checked} modes checked, 0 violations, worst ratio {worst:.6f})")


def test_criterion_04_picard_fixed_point(kdvks_phase, grid256):
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.1)
    assert l2_norm(u0) == pytest.approx(0.1, rel=1e-12)
    # Picard's nodes are the half spectra of the real flow at times k*T/64;
    # only the rows compared are extended to full spectra
    nodes, report = picard_solve(u0, kdvks_phase, 0.1, nt=64, tol=1e-8)
    assert report.converged and report.iterations <= 20
    assert nodes.shape == (65, grid256.n // 2 + 1)
    late = report.distance_ratios[1:]
    assert late and all(r <= 0.9 for r in late)
    times = np.linspace(0.0, 0.1, 65)
    sup = 0.0
    for _, t, f in etdrk4_solve(u0, kdvks_phase, 0.1, 1e-3, snapshot_stride=25):
        i = int(round(t / (0.1 / 64)))
        assert abs(times[i] - t) < 1e-12
        node = SpectralField(grid256, _full_spectrum(nodes[i], grid256.n, True), True)
        sup = max(sup, l2_norm(node - f))
    assert sup <= 1e-6
    print(f"criterion 04 picard fixed point: PASS "
          f"(converged in {report.iterations} <= 20 iterations, "
          f"max late ratio {max(late):.3e} <= 0.9, "
          f"sup-t L2 gap to ETDRK4 {sup:.3e} <= 1e-6)")


def test_criterion_05_etdrk4_self_convergence(kdvks_phase, grid256):
    u0 = gaussian(grid256, width=1.2, amplitude=2.0)
    ref = final_field(etdrk4_solve(u0, kdvks_phase, 0.2, 5e-4))
    dts = (4e-3, 2e-3, 1e-3)
    errs = [l2_norm(final_field(etdrk4_solve(u0, kdvks_phase, 0.2, dt)) - ref)
            for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 3.5
    lin = final_field(etdrk4_solve(u0, kdvks_phase, 0.2, 2e-3, nonlinear=False))
    exact = flowed(u0, kdvks_phase, 0.2)  # u0.coeffs * flow_multiplier
    lin_gap = l2_norm(lin - exact) / l2_norm(exact)
    assert lin_gap <= 1e-10
    print(f"criterion 05 etdrk4 self-convergence: PASS "
          f"(observed order {slope:.3f} >= 3.5, "
          f"linear-only mode matches semigroup to {lin_gap:.3e} <= 1e-10)")


def test_criterion_06_kdvb_dissipation_identity(grid256):
    phase = symbols.kdvb(1.0)
    u0 = normalize_l2(gaussian(grid256, width=1.5), 0.5)
    res = float(np.max(dissipation_residuals(etdrk4_solve(u0, phase, 1.0, 0.01),
                                              phase.eta)))
    assert res <= 1e-4
    print(f"criterion 06 kdvb dissipation identity: PASS "
          f"(worst per-step relative residual {res:.3e} <= 1e-4 over T=1)")


def test_criterion_07_smoothing_ratio_stability(kdvks_phase, grid256):
    worst_gap = 0.0
    for check in ("C1", "C2", "C3", "C4", "P_inf"):
        r1 = verify_smoothing(check, kdvks_phase, T=1.0, size=100, seed=2024,
                              nt=48, s=0.5, q=1.0)
        r2 = verify_smoothing(check, kdvks_phase, T=1.0, size=100, seed=31,
                              nt=48, s=0.5, q=1.0)
        hi = max(r1.max_ratio, r2.max_ratio)
        lo = min(r1.max_ratio, r2.max_ratio)
        assert hi <= 1.2 * lo, (check, r1.max_ratio, r2.max_ratio)
        worst_gap = max(worst_gap, hi / lo - 1.0)
    # the measured ratio is exactly scale-free in the data: mixed_norm on the
    # half spectra of the real flow's table at 49 times
    u0 = random_mixture(grid256, np.random.default_rng(5))
    times = np.linspace(0.0, 1.0, 49)
    flow = symbols.flow_multiplier(kdvks_phase, times, grid256, real=True)
    ratios = []
    for c in (1.0, 37.5):
        table = (c * u0).coeffs[: grid256.n // 2 + 1] * flow
        mags = _magnitudes(table, grid256.n, True, np.empty((49, grid256.n)))
        ratios.append(mixed_norm(mags, _trapezoid_weights(times), grid256.dx, 2, 4)
                      / (A2(kdvks_phase, 1.0) * l2_norm(c * u0)))
    scale_gap = abs(ratios[0] - ratios[1]) / ratios[0]
    assert scale_gap <= 1e-12
    print(f"criterion 07 smoothing ratio stability: PASS "
          f"(fitted constants agree across seeds to {100 * worst_gap:.1f}% "
          f"<= 20%, scaling invariance gap {scale_gap:.3e} <= 1e-12)")


def test_criterion_08_exchange_inequality(kdvks_phase, grid256):
    reports = [exchange_ensemble(kdvks_phase, 0.5, 1.5, (0.1, 0.5, 1.0),
                                 size=50, seed=seed) for seed in (2024, 7)]
    for rep in reports:
        assert rep.ratios.shape == (50, 3)
        assert np.all(np.isfinite(rep.ratios))
    hi = max(rep.max_ratio for rep in reports)
    lo = min(rep.max_ratio for rep in reports)
    assert hi <= 1.2 * lo
    # decay order above s/(p-1) = 0.5 must be refused
    u0 = normalize_l2(gaussian(grid256, width=2.0))
    with pytest.raises(ValueError, match="exceeds"):
        weight_exchange_check(u0, kdvks_phase, 0.55, 1.5, 0.1)
    print(f"criterion 08 exchange inequality: PASS "
          f"(300 ratios finite, max ratio stable to "
          f"{100 * (hi / lo - 1.0):.1f}% <= 20%, r > s/(p-1) refused)")


def test_criterion_09_existence_time_rule(kdvks_phase):
    norms_sweep, cstars = (0.01, 0.1, 1.0), (0.5, 1.0, 2.0)
    table = {}
    for u in norms_sweep:
        for c in cstars:
            t0, z0 = existence_time(u, kdvks_phase, s=0.0, cstar=c)
            assert 0.0 < t0 <= 1.0
            assert z0 == 2.0 * c * u
            a_sum = A2(kdvks_phase, t0) + A3(kdvks_phase, 0.0, t0)
            assert a_sum < 1.0 / (2.0 * c * z0), (u, c, t0)
            table[(u, c)] = t0
    for c in cstars:
        col = [table[(u, c)] for u in norms_sweep]
        assert all(a >= b for a, b in zip(col, col[1:]))
    for u in norms_sweep:
        row = [table[(u, c)] for c in cstars]
        assert all(a >= b for a, b in zip(row, row[1:]))
    print(f"criterion 09 existence-time rule: PASS "
          f"(9 sweep points satisfy (A2+A3)(T0) < 1/(2 cstar z0), T0 <= 1, "
          f"monotone; min T0 {min(table.values()):.4g})")


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    first = {}
    runs = {
        "simulate": ["simulate", "-D", "grid.n=64", "-D", "solver.t=0.1",
                     "-D", "solver.nt=8", "-D", f"output.dir={out}"],
        "verify-smoothing": ["verify-smoothing", "-D", "ensemble.size=3",
                             "-D", "grid.n=64", "-D", "smoothing.nt=8",
                             "-D", "smoothing.t=0.25",
                             "-D", f"output.dir={out}"],
    }
    for name, args in runs.items():
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        first[name] = (out / f"{name}.csv").read_bytes()
        replay = runner.invoke(
            main, [name, "--config", str(out / f"{name}-manifest.ini")])
        assert replay.exit_code == 0, replay.output
        assert (out / f"{name}.csv").read_bytes() == first[name]
    print("criterion 10 cli determinism: PASS "
          "(simulate and verify-smoothing replayed from their manifests "
          "byte-identically)")
