"""Damping symbols and the Fourier multiplier of the linearized flow.

Every model in this package has a linear part that is diagonal in Fourier
space, so it is fully described by the real damping symbol

    Phi(xi) = -|xi|**p + sum_i c_i * xi**m_i * |xi|**n_i,

where each correction term has strictly lower degree m_i + n_i < p.  The
linearized equation u_t + u_xxx + eta*L*u = 0 with (L u)^(xi) = -Phi(xi)*u^(xi)
is solved mode-by-mode by the multiplier exp(i*t*xi**3 + eta*t*Phi(xi)).

This module owns the symbol description, the threshold M beyond which the
leading -|xi|**p term dominates the corrections, and the solution multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PhaseTerm:
    """One correction term c * xi**m * |xi|**n of the damping symbol.

    The signed power m keeps the sign of xi (odd m makes the term odd), the
    absolute power n does not.  m must be a nonnegative integer; n a
    nonnegative real.
    """

    coeff: float
    m: int
    n: float

    def __post_init__(self):
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError(f"signed power m must be a nonnegative integer, got {self.m}")
        if self.n < 0:
            raise ValueError(f"absolute power n must be nonnegative, got {self.n}")

    @property
    def degree(self) -> float:
        return self.m + self.n

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.coeff * xi**self.m * np.abs(xi) ** self.n


@dataclass(frozen=True)
class PhaseFunction:
    """Damping symbol Phi(xi) = -|xi|**p + Phi1(xi), Phi1 of lower degree.

    eta > 0 is the dissipation strength multiplying the symbol in the
    evolution.  M is the smallest threshold such that for all |xi| >= M the
    leading term dominates:  Phi1(xi) <= |xi|**p / 2  and  |Phi(xi)| >=
    |xi|**p / 2.  It is computed once, at construction, by find_M: the
    largest positive root of x**p/2 - Phi1(+-x), found by Rolle recursion
    and bisection and then stepped up with math.nextafter until both
    conditions hold at M itself.
    """

    p: float
    terms: tuple[PhaseTerm, ...] = ()
    eta: float = 1.0
    M: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.p > 0:
            raise ValueError(f"leading power p must be positive, got {self.p}")
        if not self.eta > 0:
            raise ValueError(f"dissipation strength eta must be positive, got {self.eta}")
        for t in self.terms:
            if t.degree >= self.p:
                raise ValueError(
                    f"correction term degree m+n={t.degree} must be < p={self.p}"
                )
        try:
            M = find_M(self)
        except OverflowError as exc:  # float ** raises a bare errno tuple
            raise OverflowError("the damping symbol overflows a double while "
                                "its dominance threshold is located") from exc
        object.__setattr__(self, "M", M)

    @property
    def is_even(self) -> bool:
        """True when Phi(-xi) == Phi(xi), i.e. every signed power is even."""
        return all(t.m % 2 == 0 for t in self.terms)


def phi1_eval(phi: PhaseFunction, xi):
    """Correction part Phi1(xi) = sum_i c_i xi**m_i |xi|**n_i."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    for t in phi.terms:
        out = out + t(xi)
    return out


def phase_eval(phi: PhaseFunction, xi):
    """Full damping symbol Phi(xi) = -|xi|**p + Phi1(xi); on a grid at grid.xi,
    odd terms included (see flow_multiplier)."""
    xi = np.asarray(xi, dtype=float)
    return -np.abs(xi) ** phi.p + phi1_eval(phi, xi)


def _dominance_holds(phi: PhaseFunction, x: float) -> bool:
    # Both dominance conditions, checked at +x and -x.
    for xi in (x, -x):
        half = abs(xi) ** phi.p / 2.0
        p1 = float(phi1_eval(phi, xi))
        if p1 > half:
            return False
        if abs(float(phase_eval(phi, xi))) < half:
            return False
    return True


def find_M(phi: PhaseFunction) -> float:
    """Smallest M >= 0 such that the leading term dominates for all |xi| >= M.

    Dominance means Phi1(xi) <= |xi|**p/2 and |Phi(xi)| >= |xi|**p/2.  The
    first condition implies the second (Phi = -|xi|**p + Phi1 <= -|xi|**p/2),
    so dominance fails exactly where one of the generalized polynomials

        g_s(x) = x**p / 2 - sum_i c_i * s**m_i * x**(m_i + n_i),  s = +1, -1,

    is negative, and M is the largest root at which some g_s turns
    nonnegative.  A term-wise bound gives a tail beyond which every g_s is
    positive (every correction degree is < p); the roots in [0, tail] come
    from _sign_changes, exact to the last bit the float evaluation resolves.
    M then steps up with math.nextafter, the step doubling, until
    _dominance_holds, so the returned M satisfies both conditions itself.
    """
    tail = _tail([(t.degree, t.coeff) for t in phi.terms], 0.5, phi.p)
    M = 0.0
    for s in (1.0, -1.0):
        poly = {phi.p: 0.5}
        for t in phi.terms:  # terms sharing a degree merge into one
            poly[t.degree] = poly.get(t.degree, 0.0) - t.coeff * s**t.m
        M = max([M, *_sign_changes(
            sorted((e, a) for e, a in poly.items() if a != 0.0), tail)])
    gap = 0.0
    while not _dominance_holds(phi, M):
        M = math.nextafter(M + gap, math.inf)
        gap = 2.0 * gap or math.ulp(M)
    return M


def _tail(lower, lead: float, p: float) -> float:
    """A point past which lead * x**p exceeds sum |a| * x**e over the (e, a)
    pairs of lower, every e < p.

    The bound is term-wise: |a| x**e <= lead * x**p / k for each of the k
    pairs, with a margin against rounding of the bound itself.
    """
    tail = 1.0
    for e, a in lower:
        if a != 0.0:
            tail = max(tail, (len(lower) * abs(a) / lead) ** (1.0 / (p - e)))
    return 1.25 * tail


def _sign_changes(poly, hi: float) -> list[float]:
    """Points of (0, hi] where sum a * x**e turns negative or nonnegative.

    poly lists (exponent, coefficient) pairs by ascending exponent, every
    coefficient nonzero.  Rolle recursion: divided by its lowest power the
    sum keeps its positive roots, and its derivative has one term fewer.
    The derivative's sign changes cut [0, hi] into pieces on which the sum
    is monotone, so each piece holds at most one sign change, and bisection
    pins it to adjacent floats; the nonnegative side is returned.  At the
    left end the sum equals its lowest-order coefficient, even where an
    exponent gap below 1 makes the derivative blow up there.
    """
    low = poly[0][0]
    poly = [(e - low, a) for e, a in poly]
    if len(poly) == 1:
        return []

    def negative(x):
        return (sum(a * x**e for e, a in poly) if x > 0.0 else poly[0][1]) < 0.0

    cuts = [0.0, *_sign_changes([(e - 1.0, a * e) for e, a in poly[1:]], hi), hi]
    roots = []
    for lo, up in zip(cuts, cuts[1:]):
        neg_lo = negative(lo)
        if neg_lo == negative(up):
            continue
        mid = 0.5 * (lo + up)
        while lo < mid < up:
            if negative(mid) == neg_lo:
                lo = mid
            else:
                up = mid
            mid = 0.5 * (lo + up)
        roots.append(up if neg_lo else lo)
    return roots


def semigroup_multiplier(phi: PhaseFunction, t: float, xi):
    """Multiplier exp(i*t*xi**3 + eta*t*Phi(xi)) of the linear flow at time t.

    xi is a bare array of wavenumbers; on a grid use flow_multiplier.  The
    exponent is exact, so a mode whose growth overflows a double is inf.
    """
    return _flow(phi, t, xi, xi)


def flow_multiplier(phi: PhaseFunction, t, grid):
    """The flow multiplier on a grid, its dispersive phase zero at the Nyquist mode.

    A vector of times t gives the (times, N) table, row k bitwise the
    multiplier at t[k].  The phase t*xi**3 is odd, so it is evaluated at
    grid.xi_odd; the multiplier then keeps real fields real exactly when
    phi.is_even.  Odd damping terms (optimality:k) keep the full Nyquist
    wavenumber: such a flow is complex for all data, so no realness rests
    on it, and moving it would change every optimality:k result.
    """
    return _flow(phi, t, grid.xi, grid.xi_odd)


def _flow(phi: PhaseFunction, t, xi, xi_odd):
    # exp(i*t*xi_odd**3 + eta*t*Phi(xi)); a vector of times becomes a
    # column, one row per time
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be nonnegative, got {t}")
    if t.ndim:
        t = t[:, None]
    xi = np.asarray(xi, dtype=float)
    re = phi.eta * t * phase_eval(phi, xi)
    return np.exp(re + 1j * t * np.asarray(xi_odd, dtype=float) ** 3)


def weighted_multiplier_sup(phi: PhaseFunction, q: float, t: float) -> float:
    """sup over xi of |xi|**(2q) * exp(2*eta*t*Phi(xi)), at its stationary points.

    On each half-line xi = s*x, x > 0, x/2 times the derivative of the
    logarithm is the sum of real powers

        h_s(x) = q - eta*t*p*x**p + sum_i eta*t*c_i*s**m_i*(m_i+n_i)*x**(m_i+n_i),

    negative past a term-wise tail bound because every correction degree is
    < p.  The sup is the largest value at the sign changes of h_s, pinned to
    adjacent floats by _sign_changes, and at xi = 0, its limit there.  It is
    inf where it overflows a double.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if q < 0:
        raise ValueError("q must be nonnegative")
    ts = phi.eta * t
    lead = ts * phi.p
    xs = [0.0]
    for s in (1.0, -1.0):
        lower = {0.0: q}
        for term in phi.terms:  # terms sharing a degree merge into one
            lower[term.degree] = lower.get(term.degree, 0.0) + (
                ts * term.coeff * s**term.m * term.degree)
        poly = sorted((e, a) for e, a in [*lower.items(), (phi.p, -lead)] if a != 0.0)
        tail = _tail(list(lower.items()), lead, phi.p)
        xs += [s * x for x in _sign_changes(poly, tail)]
    xs = np.array(xs)
    vals = np.abs(xs) ** (2.0 * q) * np.exp(2.0 * phi.eta * t * phase_eval(phi, xs))
    return float(np.max(vals))


def kdvb(eta: float = 1.0) -> PhaseFunction:
    """Second-order damping: Phi(xi) = -xi**2 (Burgers-type dissipation)."""
    return PhaseFunction(p=2.0, terms=(), eta=eta)


def ost(eta: float = 1.0) -> PhaseFunction:
    """Phi(xi) = -|xi|**3 + |xi|, the fully nonlocal third-order damping."""
    return PhaseFunction(p=3.0, terms=(PhaseTerm(1.0, 0, 1.0),), eta=eta)


def kdvks(eta: float = 1.0) -> PhaseFunction:
    """Phi(xi) = -xi**4 + xi**2, fourth-order damping with an unstable band."""
    return PhaseFunction(p=4.0, terms=(PhaseTerm(1.0, 0, 2.0),), eta=eta)


def optimality(k: int, eta: float = 1.0) -> PhaseFunction:
    """Phi(xi) = -|xi|**(2k) + xi**(2k-3)*|xi|**2, odd in its correction.

    The correction term carries an odd signed power, so the symbol is not
    even and the evolution does not preserve real-valued data.
    """
    if int(k) != k or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    k = int(k)
    return PhaseFunction(p=2.0 * k, terms=(PhaseTerm(1.0, 2 * k - 3, 2.0),), eta=eta)


def preset(name: str, eta: float = 1.0) -> PhaseFunction:
    """Look up a preset by name; 'optimality:k' selects the k-th family member."""
    key = name.strip().lower()
    if key == "kdvb":
        return kdvb(eta)
    if key == "ost":
        return ost(eta)
    if key == "kdvks":
        return kdvks(eta)
    if key.startswith("optimality:"):
        try:
            k = int(key.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed preset name {name!r}; expected optimality:<int>")
        return optimality(k, eta)
    raise ValueError(
        f"unknown preset {name!r}; choose kdvb, ost, kdvks, or optimality:<k>"
    )
