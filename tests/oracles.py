"""Independent oracles shared by the test modules.

euler_factor_inverse expands one Euler factor term by term, so the
one-pass product series of formal_series can be checked against the
iterated product of these factors.

The semicircle interval mass is recomputed here by Gauss-Legendre
quadrature after the substitution t = sin(theta), which turns the
integrand into cos^2(theta): analytic on the whole interval, so 64 nodes
converge far below 1e-13.  No code path is shared with the library's
closed-form expression.
"""

from fractions import Fraction

import numpy as np

from hilbert_signs import FormalSeries, IdealFactorization

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quadrature_mass(a, b):
    """mu([a, b]) for the semicircle measure, independently of the library."""
    lo = np.arcsin(np.clip(np.asarray(a, dtype=np.float64), -1.0, 1.0))
    hi = np.arcsin(np.clip(np.asarray(b, dtype=np.float64), -1.0, 1.0))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    theta = mid[..., None] + half[..., None] * GL_NODES
    vals = np.cos(theta) ** 2 @ GL_WEIGHTS
    return (2.0 / np.pi) * half * vals


def euler_factor_inverse(P, u, X):
    """(1 - u M(P))^{-1} truncated at X: sum of u^k M(P^k) for N(P)^k <= X."""
    u = Fraction(u)
    coeffs = {IdealFactorization.unit(P.field): Fraction(1)}
    norm_k, u_k, k = P.norm, u, 1
    while norm_k <= X:
        coeffs[IdealFactorization.from_prime(P, k)] = u_k
        norm_k *= P.norm
        u_k *= u
        k += 1
    return FormalSeries(P.field, X, coeffs)
