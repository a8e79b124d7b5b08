"""Bracket algebra: exact reductions, parity structure, quadrature checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dklb.brackets import (
    ONE,
    Bracket,
    GaussPoly,
    eval_bracket,
    eval_expression,
    evenodd_expand,
    reduce_bracket,
    reduction_residual,
    standard_pairs,
)


def test_bracket_canonical_order():
    assert Bracket(1, 2, 0) == Bracket(2, 1, 0)
    br = Bracket(0, 3, 1)
    assert (br.n, br.m) == (3, 0)


def test_bracket_rejects_bad_orders():
    with pytest.raises(ValueError):
        Bracket(-1, 0, 0)
    with pytest.raises(ValueError):
        Bracket(2, 1, -3)


def test_diagonal_brackets_are_irreducible():
    br = Bracket(3, 3, 2)
    assert reduce_bracket(br).terms == ((br, Fraction(1)),)


def test_adjacent_base_case_is_exact():
    # <m+1, m, a> = -1/2 <m, m, a+1>, exactly, for any m and a
    for m in range(4):
        for a in range(4):
            expr = reduce_bracket(Bracket(m + 1, m, a))
            assert expr.terms == ((Bracket(m, m, a + 1), Fraction(-1, 2)),)


def test_gap_two_base_case_is_exact():
    # <2, 0, a> = -<1, 1, a> + 1/2 <0, 0, a+2>, exactly
    for a in range(4):
        expr = reduce_bracket(Bracket(2, 0, a))
        assert dict(expr.terms) == {Bracket(1, 1, a): Fraction(-1),
                                    Bracket(0, 0, a + 2): Fraction(1, 2)}


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
def test_reduction_is_diagonal_and_conserves_order(n, m, a):
    # every rewrite moves one derivative, so 2j + a' == n + m + a per term
    br = Bracket(n, m, a)
    expr = reduce_bracket(br)
    assert expr.terms
    for term, coeff in expr.terms:
        assert term.is_diagonal
        assert 2 * term.n + term.a == br.n + br.m + br.a
        assert coeff != 0


@pytest.mark.parametrize("order", range(2, 8))
def test_evenodd_structure(order):
    # expansion of <order, 0, 0>: diagonal terms with alternating signs and
    # weight orders matching the parity bookkeeping; the expander verifies
    # this internally and raises on any violation
    terms = dict(evenodd_expand(order).terms)
    m, parity = divmod(order, 2)
    assert max(term.n for term in terms) == m
    lead = terms[Bracket(m, m, parity)]
    if parity:
        assert lead == Fraction((-1) ** (m + 1) * order, 2)
    else:
        assert lead == Fraction((-1) ** m)
    tail = terms[Bracket(0, 0, order)]
    assert tail == Fraction((-1) ** order, 2)


def test_evenodd_rejects_trivial_orders():
    with pytest.raises(ValueError):
        evenodd_expand(1)


def test_gaussian_energy_bracket_closed_form():
    # u = e^{-x^2}: integral of (u')^2 equals sqrt(pi/2)
    u = GaussPoly((1.0,), 1.0, 0.0)
    val = eval_bracket(Bracket(1, 1, 0), u, ONE)
    assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_gaussian_mass_bracket_closed_form():
    # integral of e^{-2x^2} = sqrt(pi/2)/2^{1/2} = sqrt(pi)/2^{1/2}/2^{1/2}...
    u = GaussPoly((1.0,), 1.0, 0.0)
    val = eval_bracket(Bracket(0, 0, 0), u, ONE)
    assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_reduction_residuals_on_standard_pairs():
    pairs = standard_pairs()
    assert len(pairs) == 3
    for n in range(1, 6):
        for m in range(n):
            for a in range(3):
                br = Bracket(n, m, a)
                for u, rho in pairs:
                    lhs, rhs, resid = reduction_residual(br, u, rho)
                    assert np.isfinite(lhs) and np.isfinite(rhs)
                    assert resid <= 1e-8 * max(1.0, abs(lhs))


def test_expression_evaluation_is_linear():
    u, rho = standard_pairs()[0]
    expr = reduce_bracket(Bracket(3, 2, 0))
    direct = sum(float(c) * eval_bracket(b, u, rho) for b, c in expr.terms)
    assert eval_expression(expr, u, rho) == pytest.approx(direct, rel=1e-14)


def test_gausspoly_derivative_matches_finite_difference():
    g = GaussPoly((0.5, -1.0, 0.3), 0.7, 0.4)
    xs = np.linspace(-2.0, 3.0, 11)
    h = 1e-5
    fd = (g(xs + h) - g(xs - h)) / (2 * h)
    assert np.max(np.abs(g.derivative(1)(xs) - fd)) <= 1e-8


def test_gausspoly_derivative_is_closed():
    g = GaussPoly((1.0, 2.0), 1.3, -0.2)
    d = g.derivative(3)
    assert isinstance(d, GaussPoly)
    assert d.a == g.a and d.c == g.c


def test_pure_polynomial_derivative():
    # a = 0 degenerates to polynomial differentiation
    q = GaussPoly((1.0, 0.0, 3.0), 0.0, 0.0)  # 1 + 3 x^2
    xs = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(q.derivative(1)(xs), 6.0 * xs, atol=1e-14)
    assert np.allclose(q.derivative(3)(xs), 0.0, atol=0)
