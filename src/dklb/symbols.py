"""Damping symbols and the Fourier multiplier of the linearized flow.

Every model in this package has a linear part that is diagonal in Fourier
space, so it is fully described by the real damping symbol

    Phi(xi) = -|xi|**p + sum_i c_i * xi**m_i * |xi|**n_i,

where each correction term has strictly lower degree m_i + n_i < p.  The
linearized equation u_t + u_xxx + eta*L*u = 0 with (L u)^(xi) = -Phi(xi)*u^(xi)
is solved mode-by-mode by the multiplier exp(i*t*xi**3 + eta*t*Phi(xi)).

This module owns the symbol description, the solution multiplier, the
smoothing envelope (one search, in log|xi|), and find_M, the threshold
beyond which the leading -|xi|**p term dominates the corrections
(criterion 03 reads it; building a symbol does not compute it).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NumericalError


class PhaseTerm:
    """One correction term c * xi**m * |xi|**n of the damping symbol.

    The signed power m keeps the sign of xi (odd m makes the term odd), the
    absolute power n does not.  m must be a nonnegative integer; n a
    nonnegative real.  A plain immutable value: equal fields give equal,
    equally hashed terms, and assigning to a field raises AttributeError.
    """

    def __init__(self, coeff: float, m: int, n: float):
        if m < 0 or int(m) != m:
            raise ValueError(f"signed power m must be a nonnegative integer, got {m}")
        if n < 0:
            raise ValueError(f"absolute power n must be nonnegative, got {n}")
        vars(self).update(coeff=coeff, m=m, n=n)

    def __eq__(self, other):
        if type(other) is not PhaseTerm:
            return NotImplemented
        return (self.coeff, self.m, self.n) == (other.coeff, other.m, other.n)

    def __hash__(self):
        return hash((self.coeff, self.m, self.n))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def degree(self) -> float:
        return self.m + self.n

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.coeff * xi**self.m * np.abs(xi) ** self.n


class PhaseFunction:
    """Damping symbol Phi(xi) = -|xi|**p + Phi1(xi), Phi1 of lower degree.

    eta > 0 is the dissipation strength multiplying the symbol in the
    evolution.  Construction only checks p, eta and the term degrees; it
    evaluates nothing, so a symbol builds however large its coefficients
    are, and a flow that overflows meets the guard of whatever evaluates it.
    The dominance threshold is find_M(phi), computed where it is read.
    terms is stored as a tuple.  A plain immutable value, like PhaseTerm.
    """

    def __init__(self, p: float, terms: tuple[PhaseTerm, ...] = (), eta: float = 1.0):
        terms = tuple(terms)
        if not p > 0:
            raise ValueError(f"leading power p must be positive, got {p}")
        if not eta > 0:
            raise ValueError(f"dissipation strength eta must be positive, got {eta}")
        for t in terms:
            if t.degree >= p:
                raise ValueError(f"correction term degree m+n={t.degree} must be < p={p}")
        vars(self).update(p=p, terms=terms, eta=eta)

    def __eq__(self, other):
        if type(other) is not PhaseFunction:
            return NotImplemented
        return (self.p, self.terms, self.eta) == (other.p, other.terms, other.eta)

    def __hash__(self):
        return hash((self.p, self.terms, self.eta))

    __setattr__ = __delattr__ = PhaseTerm.__setattr__

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
    return _pinned(negative, cuts)


def _log_sign_changes(poly, lo: float, hi: float) -> list[float]:
    """_sign_changes in u = log x: points of [lo, hi] where the sum of
    sign * exp(l + e*u) over the (e, sign, l) of poly, by ascending e, turns
    negative or nonnegative.  Each sum is taken relative to its largest
    term, so none leaves the doubles; divided by its lowest exp(e*u), its
    derivative in u has one term fewer, for the Rolle recursion and the
    bisection of _sign_changes.  ArithmeticError unless lo, hi and every l
    are finite.
    """
    low = poly[0][0]
    poly = [(e - low, sg, l) for e, sg, l in poly]
    if not all(map(math.isfinite, [lo, hi, *(l for _, _, l in poly)])):
        raise ArithmeticError("the search leaves the doubles")
    if len(poly) == 1:
        return []

    def negative(u):
        z = [l + e * u for e, _, l in poly]
        top = max(z)
        return sum(sg * math.exp(zi - top) for (_, sg, _), zi in zip(poly, z)) < 0.0

    derivative = [(e, sg, l + math.log(e)) for e, sg, l in poly[1:]]
    cuts = [lo, *_log_sign_changes(derivative, lo, hi), hi]
    return _pinned(negative, cuts)


def _log_bounds(poly) -> tuple[float, float]:
    """(head, tail) bracketing every sign change of poly's sum: each lies one
    past the term-wise bound beyond which each of the k other terms is under
    1/k of the lowest (head) or the highest (tail), and on its side of 0."""
    (e0, _, l0), (e1, _, l1) = poly[0], poly[-1]
    k = math.log(max(len(poly) - 1, 1))
    head = min([0.0, *((l0 - k - l) / (e - e0) for e, _, l in poly[1:])])
    tail = max([0.0, *((k + l - l1) / (e1 - e) for e, _, l in poly[:-1])])
    return head - 1.0, tail + 1.0


def _pinned(negative, cuts) -> list[float]:
    # the sign change on each piece between adjacent cuts that has one,
    # pinned to adjacent floats by bisection: its nonnegative side.  negative
    # may be any predicate that changes once at most on a piece, such as
    # existence_time's monotone one, whose last False is the horizon
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


def flow_multiplier(phi: PhaseFunction, t, grid, real: bool = False):
    """The flow multiplier on a grid, its dispersive phase zero at the Nyquist mode.

    A vector of times t gives the (times, N) table, row k bitwise the
    multiplier at t[k].  Every mode is evaluated, in FFT order, unless real
    is set: then only modes 0..N/2, the half spectrum a real flow keeps,
    each entry bitwise the one of the full table.  The phase t*xi**3 is
    odd, so it is evaluated at grid.xi_odd; the multiplier then keeps real
    fields real exactly when phi.is_even.  Odd damping terms (optimality:k)
    keep the full Nyquist wavenumber: such a flow is complex for all data,
    so no realness rests on it, and moving it would change every
    optimality:k result.
    """
    keep = grid.kept_modes(real)
    return _flow(phi, t, grid.xi[:keep], grid.xi_odd[:keep])


def _flow(phi: PhaseFunction, t, xi, xi_odd):
    # exp(i*t*xi_odd**3 + eta*t*Phi(xi)); a vector of times becomes a
    # column, one row per time.  The exponential of an array is taken in
    # place in the complex exponent, so the real exponent is the one other
    # table-sized array alive at np.exp; a scalar xi gives a scalar
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"time must be nonnegative, got {t}")
    if t.ndim:
        t = t[:, None]
    xi = np.asarray(xi, dtype=float)
    re = phi.eta * t * phase_eval(phi, xi)
    z = 1j * t * np.asarray(xi_odd, dtype=float) ** 3
    z += re
    return np.exp(z, out=z) if z.ndim else np.exp(z)


def weighted_multiplier_sup(phi: PhaseFunction, q: float, t: float) -> float:
    """sup over xi of |xi|**(2q) * exp(2*eta*t*Phi(xi)), at its stationary points.

    On each half-line xi = s*x, x > 0, x/2 times the derivative of the
    logarithm is the sum of real powers

        h_s(x) = q - eta*t*p*x**p + sum_i eta*t*c_i*s**m_i*(m_i+n_i)*x**(m_i+n_i).

    One search finds its sign changes: each term is held as (degree, sign,
    log of its size), log(eta*t) (_log_product) added in all but q, and
    _log_sign_changes pins them in u = log x between bounds taken in logs,
    so no coefficient or power leaves the doubles, whatever eta*t or p (at
    p = 1e12 the stationary point is u ~ -2.7e-11).  The sup is the largest
    value there and at xi = 0, its limit there: the plain formula where
    eta*t is a normal double, and term by term in logs where that formula
    is inf * 0 or eta*t is not.  It is inf where it overflows a double, and
    never nan: where the root search leaves the doubles (an extreme p, whose
    stationary point as a double no longer fixes x**p to within a factor
    e), or the symbol's terms overflow with opposite signs at a stationary
    point, it raises NumericalError naming p.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if q < 0:
        raise ValueError("q must be nonnegative")
    log_ts = _log_product(phi.eta, t)
    xs = np.array([0.0, *_stationary_points(phi, q, log_ts)])
    ts = phi.eta * t
    normal = sys.float_info.min <= ts <= sys.float_info.max
    with np.errstate(over="ignore", invalid="ignore"):  # told apart below
        phase = phase_eval(phi, xs)
        # a zero of Phi, xi = 0 among them, is exp(0) = 1 however large eta*t is
        expo = np.zeros_like(phase)
        np.multiply(2.0 * ts, phase, out=expo, where=phase != 0.0)
        vals = np.abs(xs) ** (2.0 * q) * np.exp(expo)
    if normal and np.isnan(phase).any():  # terms of opposite sign overflow: inf - inf
        raise NumericalError(f"the envelope's symbol leaves the doubles at a "
                             f"stationary point, leading power p={phi.p!r}")
    # in logs: inf * 0, where the power overflows and the exponential
    # underflows, and every stationary point where eta*t is not normal
    logs = np.isnan(vals) if normal else xs != 0.0
    vals[logs] = _log_values(phi, q, log_ts, xs[logs])
    return float(np.max(vals))


# ln 2 = LN2_HI + LN2_LO, LN2_HI with 32 significant bits, so that e*LN2_HI
# is exact for every binary exponent e of a product of two doubles
LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")


def _log_product(a: float, b: float) -> float:
    """log(a*b) of positive doubles, within about half an ulp of the result.

    Where a*b is a normal double that is log(a*b) (exactly log(b) at a = 1);
    elsewhere a*b = ma*mb * 2**e from frexp, ma*mb in [1/4, 1) rounded once,
    and the log is e*LN2_HI, exact, plus log(ma*mb) + e*LN2_LO.  The sum
    log(a) + log(b) carries the rounding of both logs and of their sum, up
    to about 1.2 ulps of the result.
    """
    ab = a * b
    if sys.float_info.min <= ab <= sys.float_info.max:
        return math.log(ab)
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    e = ea + eb
    return e * LN2_HI + (math.log(ma * mb) + e * LN2_LO)


def _stationary_points(phi: PhaseFunction, q: float, log_ts: float) -> list[float]:
    # the sign changes of h_s over both half-lines, signed
    xs = []
    for s in (1.0, -1.0):
        lower = {}
        for term in phi.terms:  # terms sharing a degree merge into one
            lower[term.degree] = lower.get(term.degree, 0.0) + term.coeff * s**term.m
        poly = [(0.0, 1.0, math.log(q))] if q > 0.0 else []
        poly += [(d, math.copysign(1.0, a), math.log(abs(a)) + math.log(d) + log_ts)
                 for d, a in sorted(lower.items()) if a != 0.0 and d > 0.0]
        poly.append((phi.p, -1.0, math.log(phi.p) + log_ts))
        try:
            roots = [_resolved(u, phi.p)
                     for u in _log_sign_changes(poly, *_log_bounds(poly))]
        except ArithmeticError:
            raise NumericalError(
                f"the envelope's root search leaves the doubles at leading "
                f"power p={phi.p!r}") from None
        xs += [s * x for x in roots]
    return xs


def _log_values(phi: PhaseFunction, q: float, log_ts: float, xs):
    # |xi|**(2q) * exp(2*eta*t*Phi(xi)) at nonzero xs in logs, 2*eta*t*Phi
    # relative to its largest term; d*log|xi| + log_ts is summed first, as
    # the two cancel near a stationary point
    log_x = np.log(np.abs(xs))
    terms = [(-1.0, 0, phi.p), *((c.coeff, c.m, c.degree) for c in phi.terms)]
    with np.errstate(over="ignore", divide="ignore"):  # a zero term is exp(-inf)
        z = np.array([(d * log_x + log_ts) + (math.log(2.0) + np.log(abs(c)))
                      for c, _, d in terms])
        signs = np.array([np.sign(c) * np.sign(xs) ** m for c, m, _ in terms])
        top = z.max(axis=0)
        rel = np.sum(signs * np.exp(z - top), axis=0)
        expo = np.sign(rel) * np.exp(top + np.log(np.abs(rel)))
        return np.exp(2.0 * q * log_x + expo)


def _resolved(u: float, p: float) -> float:
    """x = exp(u), ArithmeticError unless the double x fixes x**p to within
    a factor e, as the sup is evaluated there."""
    x = math.exp(u)
    if not (x > 0.0 and p * abs(math.log(x) - u) <= 1.0):
        raise ArithmeticError(f"exp({u!r}) does not resolve x**{p!r}")
    return x


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
