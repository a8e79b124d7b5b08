"""Grid layer: transforms, Fourier calculus, products, weights, snapshots."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dklb.grid import (
    EXP_WEIGHT_CAP,
    HERMITIAN_TOL,
    SpectralField,
    SpectralGrid,
    WeightSpec,
    apply_multiplier,
    boundary_leakage,
    dealiased_product,
    fractional_D,
    from_values,
    l2_norm,
    multiplier_preserves_real,
    parse_weight,
    read_snapshot,
    to_values,
    write_snapshot,
)
from dklb.fields import gaussian

from conftest import derivative, hermitian_defect

coeff_arrays = st.lists(
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    min_size=8, max_size=8,
).map(lambda xs: np.asarray(xs, dtype=complex))


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        SpectralGrid(100, 40.0)
    with pytest.raises(ValueError):
        SpectralGrid(8, 40.0)
    with pytest.raises(ValueError):
        SpectralGrid(256, -1.0)


def test_xi_odd_zeroes_only_the_nyquist_entry(grid256):
    nyq = grid256.nyquist_index
    assert grid256.modes[nyq] == -grid256.n // 2
    assert grid256.xi_odd[nyq] == 0.0
    assert np.array_equal(np.delete(grid256.xi_odd, nyq), np.delete(grid256.xi, nyq))


def test_nodes_cover_fundamental_domain(grid256):
    assert grid256.x[0] == -20.0
    assert grid256.x[-1] == pytest.approx(20.0 - 40.0 / 256)
    dx = np.diff(grid256.x)
    assert np.allclose(dx, 40.0 / 256, rtol=0, atol=1e-14)


def test_value_roundtrip(grid256, rng):
    vals = rng.standard_normal(grid256.n)
    f = from_values(grid256, vals)
    assert f.is_real
    back = to_values(f)
    assert np.max(np.abs(back - vals)) <= 1e-12


def test_pure_mode_has_two_coefficients(grid256):
    vals = np.sin(2 * np.pi * grid256.x / grid256.length)
    f = from_values(grid256, vals)
    nz = np.nonzero(np.abs(f.coeffs) > 1e-13)[0]
    assert set(grid256.modes[nz]) == {1, -1}
    assert np.allclose(np.abs(f.coeffs[nz]), 0.5, atol=1e-13)


def test_derivative_of_sine(grid256):
    k = 2 * np.pi / grid256.length
    f = from_values(grid256, np.sin(k * grid256.x))
    df = derivative(f)
    assert df.is_real
    expect = k * np.cos(k * grid256.x)
    assert np.max(np.abs(to_values(df) - expect)) <= 1e-12


def test_derivative_of_constant_vanishes(grid256):
    f = from_values(grid256, np.full(grid256.n, 3.7))
    assert np.max(np.abs(to_values(derivative(f)))) <= 1e-13


def test_gaussian_third_derivative_matches_hermite_form():
    # (d/dx)^3 e^{-x^2/2} = (3x - x^3) e^{-x^2/2}; tails are far below
    # machine precision at L=40 so the periodization error is invisible
    grid = SpectralGrid(512, 40.0)
    f = gaussian(grid, width=1.0)
    d3 = to_values(derivative(f, order=3))
    x = grid.x
    expect = (3 * x - x**3) * np.exp(-0.5 * x**2)
    rel = np.max(np.abs(d3 - expect)) / np.max(np.abs(expect))
    assert rel <= 1e-10


def test_riesz_order_zero_is_identity(random_real_field):
    g = fractional_D(random_real_field, 0.0)
    assert np.array_equal(g.coeffs, random_real_field.coeffs)


def test_half_derivative_composes_to_full(grid256, rng):
    vals = rng.standard_normal(grid256.n)
    f = from_values(grid256, vals - vals.mean())
    twice = fractional_D(fractional_D(f, 0.5), 0.5)
    once = fractional_D(f, 1.0)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-12


def test_parseval(grid256, rng):
    vals = rng.standard_normal(grid256.n)
    f = from_values(grid256, vals)
    quad = np.sqrt(grid256.length / grid256.n * np.sum(vals**2))
    assert l2_norm(f) == pytest.approx(quad, rel=1e-12)


def test_multipliers_commute(grid256, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    m1 = np.exp(-np.abs(grid256.xi))
    m2 = 1.0 / (1.0 + grid256.xi**2)
    ab = apply_multiplier(apply_multiplier(f, m1, True), m2, True)
    ba = apply_multiplier(apply_multiplier(f, m2, True), m1, True)
    joint = apply_multiplier(f, m1 * m2, True)
    assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-12
    assert np.max(np.abs(ab.coeffs - joint.coeffs)) <= 1e-12


def test_real_multiplier_keeps_fields_real(grid256, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    m = np.exp(-grid256.xi**2)
    assert multiplier_preserves_real(grid256, m)
    g = apply_multiplier(f, m, True)
    assert g.is_real
    assert hermitian_defect(g.coeffs) <= HERMITIAN_TOL


def test_odd_imaginary_multiplier_keeps_fields_real(random_real_field):
    grid = random_real_field.grid
    for order in (1, 2, 3):
        assert multiplier_preserves_real(grid, (1j * grid.xi_odd) ** order)
        g = derivative(random_real_field, order)
        assert g.is_real
        assert hermitian_defect(g.coeffs) <= HERMITIAN_TOL


def test_product_of_sine_and_cosine(grid256):
    k = 2 * np.pi / grid256.length
    s = from_values(grid256, np.sin(k * grid256.x))
    c = from_values(grid256, np.cos(k * grid256.x))
    prod = dealiased_product(s, c)
    expect = 0.5 * np.sin(2 * k * grid256.x)
    assert np.max(np.abs(to_values(prod) - expect)) <= 1e-13


def test_product_with_zero(grid256, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    z = SpectralField(grid256, np.zeros(grid256.n, dtype=complex), True)
    assert np.max(np.abs(dealiased_product(f, z).coeffs)) == 0.0


def test_band_limited_product_matches_convolution(grid256, rng):
    # supports small enough that the true product is alias-free: the
    # pseudospectral result must equal the exact coefficient convolution
    n = grid256.n
    half = 10
    c1 = np.zeros(n, dtype=complex)
    c2 = np.zeros(n, dtype=complex)
    for c in (c1, c2):
        lo = rng.standard_normal(2 * half + 1) + 1j * rng.standard_normal(2 * half + 1)
        c[:half + 1] = lo[:half + 1]
        c[-half:] = lo[half + 1:]
    f, g = SpectralField(grid256, c1, False), SpectralField(grid256, c2, False)
    prod = dealiased_product(f, g)

    modes = grid256.modes
    conv = np.zeros(n, dtype=complex)
    idx1 = np.nonzero(c1)[0]
    idx2 = np.nonzero(c2)[0]
    for i in idx1:
        for j in idx2:
            k = modes[i] + modes[j]
            where = np.nonzero(modes == k)[0]
            if where.size:
                conv[where[0]] += c1[i] * c2[j]
    assert np.max(np.abs(prod.coeffs - conv)) <= 1e-12


@given(coeff_arrays, coeff_arrays, coeff_arrays,
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_product_is_bilinear_and_commutative(a, b, c, s1, s2):
    grid = SpectralGrid(32, 40.0)
    pad = np.zeros(grid.n, dtype=complex)

    def lift(arr):
        full = pad.copy()
        full[:4] = arr[:4]
        full[-4:] = arr[4:]
        return SpectralField(grid, full, False)

    f, g, h = lift(a), lift(b), lift(c)
    fg = dealiased_product(f, g)
    gf = dealiased_product(g, f)
    assert np.max(np.abs(fg.coeffs - gf.coeffs)) <= 1e-12
    lin = dealiased_product(lift(a * s1 + b * s2), h).coeffs
    split = dealiased_product(f, h).coeffs * s1 + dealiased_product(g, h).coeffs * s2
    scale = 1.0 + max(np.max(np.abs(lin)), np.max(np.abs(split)))
    assert np.max(np.abs(lin - split)) <= 1e-10 * scale


def test_trivial_weights_are_identity(grid256):
    assert np.allclose(WeightSpec("bracket", 0.0).values(grid256), 1.0, atol=0)
    assert np.allclose(WeightSpec("exp", 0.0).values(grid256), 1.0, atol=0)
    assert np.allclose(WeightSpec("poly", 0.0).values(grid256), 1.0, atol=0)


def test_weight_values(grid256):
    x = grid256.x
    assert np.allclose(WeightSpec("poly", 2.0).values(grid256), x**2, rtol=1e-14)
    assert np.allclose(WeightSpec("bracket", 1.0).values(grid256),
                       np.sqrt(1.0 + x**2), rtol=1e-14)
    assert np.allclose(WeightSpec("exp", 0.25).values(grid256),
                       np.exp(0.25 * x), rtol=1e-14)


def test_exponential_weight_cap():
    grid = SpectralGrid(64, 80.0)
    b = (EXP_WEIGHT_CAP + 1.0) / 40.0
    with pytest.raises(ValueError):
        WeightSpec("exp", b).values(grid)


def test_parse_weight_roundtrip():
    w = parse_weight("exp:0.25")
    assert w.kind == "exp" and w.param == 0.25
    assert parse_weight(w.label).label == w.label
    with pytest.raises(ValueError):
        parse_weight("poly")
    with pytest.raises(ValueError):
        parse_weight("sech:1.0").values(SpectralGrid(32, 40.0))


def test_boundary_leakage_detects_edge_mass(grid256):
    centered = gaussian(grid256, center=0.0, width=1.0)
    edged = gaussian(grid256, center=19.0, width=1.0)
    assert boundary_leakage(centered) < 1e-30
    assert boundary_leakage(edged) > 0.1


def test_snapshot_roundtrip_is_bit_exact(tmp_path, grid256, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    path = tmp_path / "field.dklb"
    write_snapshot(path, f, 0.625)
    g, t = read_snapshot(path)
    assert t == 0.625
    assert g.is_real == f.is_real
    assert g.grid.n == grid256.n and g.grid.length == grid256.length
    assert np.array_equal(g.coeffs, f.coeffs)


def test_snapshot_rejects_corrupt_files(tmp_path):
    short = tmp_path / "short.dklb"
    short.write_bytes(b"DKLB")
    with pytest.raises(ValueError, match="truncated"):
        read_snapshot(short)

    grid = SpectralGrid(32, 40.0)
    f = from_values(grid, np.zeros(32))
    good = tmp_path / "good.dklb"
    write_snapshot(good, f, 0.0)
    raw = bytearray(good.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.dklb"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(bad)

    clipped = tmp_path / "clipped.dklb"
    clipped.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_snapshot(clipped)


def test_field_arithmetic(grid256, rng):
    f = from_values(grid256, rng.standard_normal(grid256.n))
    g = from_values(grid256, rng.standard_normal(grid256.n))
    d = f - g
    assert d.is_real
    assert np.array_equal(d.coeffs, f.coeffs - g.coeffs)
    assert np.allclose((f * 2.0).coeffs, 2 * f.coeffs, atol=0)
    assert not (f * 1j).is_real
