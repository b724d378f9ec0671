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

lambda_sign and sato_tate_coordinate decide one prime's sign and
coordinate in Python ints: the scalar references for the survey's
chunked numpy kernel.  value_at is the one-prime reference for the
character's values over the prime table, identity the unit formal
series, and series_from_entries builds an EigenvalueSeries from a
{prime: rational} dict, for the tests that write coefficients prime by
prime.  prime_residual is the one-prime Fraction reference
for the library's all-primes residual array, and tail_inequality decides
both sides of the tail inequality that the survey satisfies by
construction (see the sign_pipeline docstring), so it checks the
survey's signs against its coefficients.  quadratic_residue_symbol and save_fixture give the tests
the symbol of one element and a fixture file on disk.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from hilbert_signs import (
    EigenvalueSeries,
    FormalSeries,
    HasseBoundViolated,
    IdealFactorization,
    as_element,
    enumerate_prime_ideals,
)
from hilbert_signs.eigen_io import serialize_series
from hilbert_signs.field_arith import _euler_symbol, _prime_table

# Half-width of the band around eps inside which tail_inequality decides
# B(P) > eps from the exact coefficient instead of the float coordinate.
_CUTOFF_BAND = 1e-12

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


def identity(K, X):
    """The unit series: 1 at the unit ideal and 0 at every other ideal of norm <= X."""
    return FormalSeries(K, X, {IdealFactorization.unit(K): Fraction(1)})


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
    value = lambda P: Fraction(value_at(chi, P), P.norm)  # noqa: E731
    return multiplicative_series(chi.field, X, good_primes(chi, X), value)


def dict_moebius_series(chi, X):
    """Product over good primes of (1 - chi(P)/N(P) M(P))."""
    value = lambda P: Fraction(-value_at(chi, P), P.norm)  # noqa: E731
    return multiplicative_series(chi.field, X, good_primes(chi, X), value, max_exponent=1)


def good_primes(chi, X):
    """Primes of norm <= X where chi does not vanish, in norm order."""
    return [P for P in enumerate_prime_ideals(chi.field, X) if P not in chi.bad_set]


def value_at(chi, P):
    """chi(P) in {-1, 0, +1} at one prime, zero exactly on the bad set: the
    scalar reference for IdealCharacter.values_upto."""
    assert P.field == chi.field, f"{P} is not a prime of {chi.field}"
    if P in chi.bad_set:
        return 0
    return chi.psi_table.get(P, 1) * _euler_symbol(*chi.tau_omega, P)


def series_from_entries(K, weight, label, entries, x, level_support=()):
    """The EigenvalueSeries on the prime table of (K, x) holding a {prime: rational} dict.

    Every key must be a row of that table; rows without a key get no
    coefficient.
    """
    T = _prime_table(K, x)
    assert all(T.index(*P[:3]) is not None for P in entries), "a key is not a row of the table"
    cs = [Fraction(entries[P]) if P in entries else None for P in T.primes]
    num = [0 if c is None else c.numerator for c in cs]
    den = [0 if c is None else c.denominator for c in cs]
    return EigenvalueSeries(K, weight, label, x, num, den, level_support)


def sato_tate_coordinate(c, norm):
    """B(P) = c(P) sqrt(N(P)) / 2 in [-1, 1], for rational c.

    The containment check is exact, in integers: with cN = num/den, (cN)^2
    <= 4N is num^2 <= 4N den^2.
    """
    num, den = c.numerator * norm, c.denominator
    if num * num > 4 * norm * den * den:
        raise HasseBoundViolated(f"|c| = |{c}| exceeds 2/sqrt({norm})")
    # int true division is correctly rounded, like float() of the reduced Fraction
    return (num / den) / (2.0 * math.sqrt(float(norm)))


def lambda_sign(c, chi_p, norm):
    """sign(c(P) - chi(P)/N(P)), decided exactly as sign(c_num N - chi c_den)."""
    t = c.numerator * norm - chi_p * c.denominator
    return (t > 0) - (t < 0)


def prime_residual(c, lam, chi, P):
    """c(P) - chi(P)/N(P) - lam(P) at one good prime, in Fractions."""
    idx = IdealFactorization.from_prime(P)
    return c.coefficient(idx) - Fraction(value_at(chi, P), P.norm) - lam.coefficient(idx)


def tail_inequality(E, survey, x, epsilon):
    """(lhs, rhs) of the tail inequality at (x, eps) on a survey of E.

    rhs = #{good P : N(P) <= x, B(P) > eps}, for the exact value of eps:
    B(P) > eps is c(P) > 0 and c(P)^2 N(P) > 4 eps^2.  lhs = pi_{>0}(x) +
    pi(min(x, 1/(4 eps^2))); capping the pi term at x only shrinks lhs, and
    keeps every count inside the survey's table.
    """
    eps = Fraction(epsilon)
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    t = survey.tally(x)
    coords = survey.coords[: t.total - t.bad]
    # Each coordinate takes three correctly rounded steps (float(cN), sqrt,
    # division), so it is within ~4e-16 of the true B in [-1, 1], and
    # float(eps) is within 1.2e-16 * eps of eps.  Outside the band the float
    # comparison therefore agrees with the exact one.
    e = float(eps)
    near = np.abs(coords - e) <= _CUTOFF_BAND
    rhs = int(np.count_nonzero((coords > e) & ~near))
    if near.any():
        good = good_primes(survey.chi, survey.x)
        for i in np.flatnonzero(near).tolist():
            c = E.entries[good[i]]
            rhs += c > 0 and c * c * good[i].norm > 4 * eps * eps
    lhs = t.pos + survey.tally(min(t.x, int(1 / (4 * eps * eps)))).total
    return lhs, rhs


def quadratic_residue_symbol(a, P):
    """Euler-criterion symbol of the integral element a in O_K/P: -1, 0 or +1."""
    x, y = as_element(P.field, a).omega_coords()
    assert x.denominator == y.denominator == 1, f"{a} is not integral"
    return _euler_symbol(int(x), int(y), P)


def save_fixture(E, path):
    """Write E as an eigen-series document, the file that --fixture reads."""
    Path(path).write_text(serialize_series(E))
