"""Independent oracles shared by the test modules.

euler_factor_inverse expands one Euler factor term by term, so the
one-pass product series of formal_series can be checked against the
iterated product of these factors.

DictSeries is the dictionary implementation of formal series that the
library's id-table series replaced: Fraction coefficients keyed by
IdealFactorization, a product that merges factor tuples pair by pair, and
Euler series built by a recursion over norm-sorted primes.  It shares no
code with formal_series beyond the ideal types, so the two are compared
term by term.

The semicircle interval mass is recomputed here by Gauss-Legendre
quadrature after the substitution t = sin(theta), which turns the
integrand into cos^2(theta): analytic on the whole interval, so 64 nodes
converge far below 1e-13.  No code path is shared with the library's
closed-form expression.
"""

from fractions import Fraction

import numpy as np

from hilbert_signs import FormalSeries, IdealFactorization, good_primes

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


class DictSeries:
    """Finitely supported Fraction coefficients on ideals of norm <= cutoff."""

    def __init__(self, field, cutoff, coeffs=None):
        self.field = field
        self.cutoff = int(cutoff)
        self.coeffs = {}
        for m, v in (coeffs or {}).items():
            assert m.field == field and m.norm <= self.cutoff
            if Fraction(v):
                self.coeffs[m] = Fraction(v)

    def coefficient(self, m):
        return self.coeffs.get(m, Fraction(0))

    def sorted_items(self):
        return [(m.norm, m, v) for m, v in sorted(self.coeffs.items())]

    def __eq__(self, other):
        return (self.field, self.cutoff, self.coeffs) == (other.field, other.cutoff, other.coeffs)

    def __repr__(self):
        head = ", ".join(f"{m}: {v}" for _, m, v in self.sorted_items()[:6])
        more = "" if len(self.coeffs) <= 6 else f", ... ({len(self.coeffs)} terms)"
        return f"FormalSeries[{self.field}, X={self.cutoff}]{{{head}{more}}}"


def dict_series_mul(A, B):
    """Cauchy product truncated at the shared cutoff, one factor-tuple merge per pair."""
    assert (A.field, A.cutoff) == (B.field, B.cutoff)
    X = A.cutoff
    out = {}
    bs = B.sorted_items()
    for na, ma, ca in A.sorted_items():
        for nb, mb, cb in bs:
            if na * nb > X:
                break
            key = ma * mb
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return DictSeries(A.field, X, out)


def multiplicative_series(K, X, primes, prime_value, max_exponent=None):
    """Series whose coefficient at prod P_i^{e_i} is prod prime_value(P_i)^{e_i}.

    Enumerates every ideal of norm <= X supported on `primes` exactly once
    by recursive extension over the norm-sorted prime list.
    """
    norms = [P.norm for P in primes]
    values = [prime_value(P) for P in primes]
    coeffs = {}

    def extend(start, pairs, norm, val):
        coeffs[IdealFactorization.from_pairs(K, pairs)] = val
        for i in range(start, len(primes)):
            q = norms[i]
            if norm * q > X:
                break
            nn, vv, e = norm, val, 0
            while nn * q <= X:
                nn, vv, e = nn * q, vv * values[i], e + 1
                extend(i + 1, pairs + ((primes[i], e),), nn, vv)
                if max_exponent is not None and e >= max_exponent:
                    break

    extend(0, (), 1, Fraction(1))
    return DictSeries(K, X, coeffs)


def dict_zeta_series(chi, X):
    """Product over good primes of (1 - chi(P)/N(P) M(P))^{-1}."""
    value = lambda P: Fraction(chi.value_at(P), P.norm)  # noqa: E731
    return multiplicative_series(chi.field, X, good_primes(chi, X), value)


def dict_moebius_series(chi, X):
    """Product over good primes of (1 - chi(P)/N(P) M(P))."""
    value = lambda P: Fraction(-chi.value_at(P), P.norm)  # noqa: E731
    return multiplicative_series(chi.field, X, good_primes(chi, X), value, max_exponent=1)
