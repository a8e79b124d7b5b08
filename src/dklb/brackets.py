"""Exact integration-by-parts algebra for weighted derivative pairings.

A bracket <n, m, a> stands for the line integral of

    (d/dx)^n u * (d/dx)^m u * (d/dx)^a rho

for decaying u and a smooth localizing weight rho.  Because boundary terms
vanish, repeated integration by parts rewrites every bracket as an exact
rational combination of diagonal brackets <j, j, b>, which control signs in
energy estimates.  The rewrite rules are

    <n, m, a>   = -<n-1, m+1, a> - <n-1, m, a+1>      (n > m+1)
    <m+1, m, a> = -(1/2) <m, m, a+1>,

and coefficients are kept as exact fractions throughout.  Numerical
evaluation uses analytic test functions with closed-form derivatives, so the
reduction can be checked against direct quadrature with no differentiation
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class Bracket:
    """<n, m, a>: derivative orders n >= m >= 0 on u, weight order a >= 0.

    The pairing is symmetric in (n, m); constructors store the canonical
    order n >= m.
    """

    n: int
    m: int
    a: int

    def __post_init__(self):
        for v, label in ((self.n, "n"), (self.m, "m"), (self.a, "a")):
            if v < 0 or int(v) != v:
                raise ValueError(f"{label} must be a nonnegative integer, got {v}")
        if self.n < self.m:
            n, m = self.m, self.n
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "m", m)

    @property
    def is_diagonal(self) -> bool:
        return self.n == self.m


@dataclass(frozen=True)
class BracketExpression:
    """A rational linear combination of brackets."""

    terms: tuple[tuple[Bracket, Fraction], ...]

    @staticmethod
    def of(br: Bracket, coeff: Fraction = Fraction(1)) -> "BracketExpression":
        return BracketExpression(((br, coeff),))

    def __add__(self, other: "BracketExpression") -> "BracketExpression":
        acc: dict[Bracket, Fraction] = {}
        for br, c in self.terms + other.terms:
            acc[br] = acc.get(br, Fraction(0)) + c
        return BracketExpression(_sorted_terms(acc))

    def __mul__(self, scalar) -> "BracketExpression":
        c = Fraction(scalar)
        return BracketExpression(tuple((br, q * c) for br, q in self.terms if q * c != 0))

    __rmul__ = __mul__


def _sorted_terms(acc: dict[Bracket, Fraction]) -> tuple[tuple[Bracket, Fraction], ...]:
    # highest derivative order first, then weight order; drop exact zeros
    keys = sorted((b for b, c in acc.items() if c != 0),
                  key=lambda b: (-b.n, -b.m, b.a))
    return tuple((b, acc[b]) for b in keys)


@lru_cache(maxsize=None)
def reduce_bracket(br: Bracket) -> BracketExpression:
    """Rewrite a bracket as an exact combination of diagonal brackets."""
    if br.is_diagonal:
        return BracketExpression.of(br)
    if br.n == br.m + 1:
        down = Bracket(br.m, br.m, br.a + 1)
        return BracketExpression.of(down, Fraction(-1, 2))
    left = reduce_bracket(Bracket(br.n - 1, br.m + 1, br.a))
    right = reduce_bracket(Bracket(br.n - 1, br.m, br.a + 1))
    return left * Fraction(-1) + right * Fraction(-1)


def evenodd_expand(order: int) -> BracketExpression:
    """Reduce <order, 0, 0> and verify the parity structure of the result.

    Even order 2m yields terms (-1)^j * c_j * <j, j, 2(m-j)>, odd order
    2m+1 yields (-1)^(j+1) * c_j * <j, j, 1+2(m-j)>, with every c_j > 0.
    A violation means the rewrite rules were broken and is raised loudly.
    """
    if order < 2 or int(order) != order:
        raise ValueError(f"order must be an integer >= 2, got {order}")
    expr = reduce_bracket(Bracket(order, 0, 0))
    m, parity = divmod(order, 2)
    for br, coeff in expr.terms:
        if not br.is_diagonal:
            raise NumericalError(f"non-diagonal term {br} in expansion of order {order}")
        j = br.n
        expected_a = 2 * (m - j) + parity
        if br.a != expected_a:
            raise NumericalError(
                f"term {br} of order {order} has weight order {br.a}, expected {expected_a}"
            )
        expected_sign = (-1) ** (j + parity)
        if (coeff > 0) != (expected_sign > 0) or coeff == 0:
            raise NumericalError(
                f"term {br} of order {order} has coefficient {coeff}; "
                f"expected sign {expected_sign:+d} with positive magnitude"
            )
    return expr


# --- analytic test functions ------------------------------------------------


@dataclass(frozen=True)
class GaussPoly:
    """P(x - c) * exp(-a * (x - c)^2) with closed-form derivatives.

    poly holds the coefficients of P in ascending powers of (x - c).  The
    class is closed under differentiation, so any derivative order is exact.
    a = 0 degenerates to a plain polynomial (for weights like 1 or x^2).
    """

    poly: tuple[float, ...]
    a: float = 1.0
    c: float = 0.0

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"Gaussian width parameter must be >= 0, got {self.a}")
        if not self.poly:
            object.__setattr__(self, "poly", (0.0,))

    def derivative(self, order: int = 1) -> "GaussPoly":
        if order < 0 or int(order) != order:
            raise ValueError(f"derivative order must be a nonnegative integer, got {order}")
        p = np.asarray(self.poly, dtype=float)
        for _ in range(order):
            dp = np.polynomial.polynomial.polyder(p) if len(p) > 1 else np.zeros(1)
            # d/dx [P e^{-a y^2}] = (P' - 2 a y P) e^{-a y^2},  y = x - c
            shifted = np.concatenate(([0.0], -2.0 * self.a * p))
            n = max(len(dp), len(shifted))
            p = np.zeros(n)
            p[: len(dp)] += dp
            p[: len(shifted)] += shifted
        return GaussPoly(tuple(p), self.a, self.c)

    def __call__(self, x):
        y = np.asarray(x, dtype=float) - self.c
        val = np.polynomial.polynomial.polyval(y, np.asarray(self.poly))
        if self.a == 0:
            return val
        return val * np.exp(-self.a * y**2)


def standard_pairs() -> tuple[tuple[GaussPoly, GaussPoly], ...]:
    """Three fixed, independent (u, rho) pairs for reduction spot checks.

    u decays like a Gaussian so every bracket integral converges on the
    quadrature window of eval_bracket; rho ranges over a polynomial, a shifted
    polynomial, and a slowly decaying Gaussian envelope.
    """
    return (
        (GaussPoly((1.0,), 1.0, 0.0),
         GaussPoly((0.3, 0.1, 0.5, -0.2), 0.0, 0.0)),
        (GaussPoly((0.5, -1.0), 0.7, 0.8),
         GaussPoly((1.0, 0.2, -0.05, 0.01), 0.0, -0.4)),
        (GaussPoly((1.0, 0.0, 0.25), 1.3, -0.6),
         GaussPoly((0.6, -0.3), 0.02, 0.3)),
    )


def eval_bracket(br: Bracket, u, rho) -> float:
    """Evaluate <n, m, a> by trapezoid quadrature on 8193 nodes of [-30, 30].

    u and rho must expose derivative(order) returning a callable; the
    integrand decays like the test function, so trapezoid on a wide window
    converges spectrally.
    """
    xs = np.linspace(-30.0, 30.0, 8193)
    un = u.derivative(br.n)(xs)
    um = un if br.m == br.n else u.derivative(br.m)(xs)
    ra = rho.derivative(br.a)(xs)
    return float(np.trapezoid(un * um * ra, xs))


def eval_expression(expr: BracketExpression, u, rho) -> float:
    return sum(float(coeff) * eval_bracket(br, u, rho) for br, coeff in expr.terms)


def reduction_residual(br: Bracket, u, rho) -> tuple[float, float, float]:
    """(lhs, rhs, |lhs - rhs|) comparing a bracket against its reduction."""
    lhs = eval_bracket(br, u, rho)
    rhs = eval_expression(reduce_bracket(br), u, rho)
    return lhs, rhs, abs(lhs - rhs)
