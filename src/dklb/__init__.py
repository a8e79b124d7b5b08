"""dklb: a spectral laboratory for dissipative third-order wave models.

The equation family is u_t + u_xxx + eta*L*u + u*u_x = 0 on a periodic
domain, where L is a Fourier multiplier with damping symbol Phi.  The
package computes with the exact flow multiplier, iterates the integral
(Duhamel) form to a fixed point, runs an independent ETDRK4 integrator,
and measures the smoothing, weighted-persistence, and weight-conjugation
inequalities that make the fixed-point argument close.
"""

__version__ = "0.1.0"
