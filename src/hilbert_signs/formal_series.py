"""Truncated ideal-indexed formal series with exact rational coefficients.

A series is sum a_m M(m) over integral ideals m of norm <= X in a fixed
field, where M is the formal multiplicative symbol: M(O_K) = 1 and
M(mn) = M(m) M(n).  Multiplication is the Cauchy product with terms of
norm > X discarded.  Because index norms only grow under multiplication,
truncation is exact on every retained index: the coefficient of any
surviving ideal equals the coefficient in the untruncated product, so
ring identities among truncated series hold exactly, not approximately.

The Euler-product utilities expand (1 - u M(P))^{-1} as the geometric
series sum u^k M(P^k), and build the full product over good primes of a
quadratic character chi directly as the series with completely
multiplicative coefficients chi*(n)/N(n).
"""

from __future__ import annotations

from fractions import Fraction

from .characters import IdealCharacter
from .errors import CutoffMismatch, FieldMismatch, NotNormalized
from .field_arith import (
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    enumerate_prime_ideals,
)

_ZERO = Fraction(0)


class FormalSeries:
    """Finitely supported coefficients on ideals of norm <= cutoff."""

    __slots__ = ("field", "cutoff", "coeffs")

    def __init__(self, field: QuadField, cutoff: int, coeffs=None):
        self.field = field
        self.cutoff = int(cutoff)
        clean: dict[IdealFactorization, Fraction] = {}
        for m, v in (coeffs or {}).items():
            if m.field != field:
                raise FieldMismatch(f"index ideal {m} is not an ideal of {field}")
            if m.norm > self.cutoff:
                raise ValueError(f"index {m} has norm {m.norm} beyond cutoff {cutoff}")
            v = Fraction(v)
            if v:
                clean[m] = v
        self.coeffs = clean

    @classmethod
    def identity(cls, K: QuadField, X: int) -> "FormalSeries":
        return cls(K, X, {IdealFactorization.unit(K): Fraction(1)})

    def coefficient(self, m: IdealFactorization) -> Fraction:
        return self.coeffs.get(m, _ZERO)

    def sorted_items(self) -> list[tuple[int, IdealFactorization, Fraction]]:
        """(norm, ideal, coefficient) in canonical ideal order, so ascending by norm."""
        return [(m.norm, m, v) for m, v in sorted(self.coeffs.items())]

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.field == other.field
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other):
        return series_mul(self, other)

    def __repr__(self):
        head = ", ".join(f"{m}: {v}" for _, m, v in self.sorted_items()[:6])
        more = "" if len(self.coeffs) <= 6 else f", ... ({len(self.coeffs)} terms)"
        return f"FormalSeries[{self.field}, X={self.cutoff}]{{{head}{more}}}"


def series_mul(A: FormalSeries, B: FormalSeries) -> FormalSeries:
    """Cauchy product, truncated at the shared cutoff.

    Both inputs are scanned in norm order so the inner loop stops as soon
    as the index norm product exceeds the cutoff.
    """
    if A.field != B.field:
        raise FieldMismatch("series over different fields")
    if A.cutoff != B.cutoff:
        raise CutoffMismatch(f"cutoffs differ: {A.cutoff} vs {B.cutoff}")
    X = A.cutoff
    out: dict[IdealFactorization, Fraction] = {}
    bs = B.sorted_items()
    for na, ma, ca in A.sorted_items():
        limit = X // na
        for nb, mb, cb in bs:
            if nb > limit:
                break
            key = ma * mb
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return FormalSeries(A.field, X, out)


def good_primes(chi: IdealCharacter, X: int) -> list[PrimeIdeal]:
    """Primes of norm <= X where chi does not vanish, in norm order."""
    return [P for P in enumerate_prime_ideals(chi.field, X) if P not in chi.bad_set]


def _multiplicative_series(
    K: QuadField, X: int, primes, prime_value, max_exponent=None
) -> FormalSeries:
    """Series whose coefficient at prod P_i^{e_i} is prod prime_value(P_i)^{e_i}.

    Enumerates every ideal of norm <= X supported on `primes` exactly once
    by recursive extension over the norm-sorted prime list.
    """
    norms = [P.norm for P in primes]
    values = [prime_value(P) for P in primes]
    coeffs: dict[IdealFactorization, Fraction] = {}

    def extend(start, pairs, norm, val):
        # pairs are canonical (distinct primes of K in sorted order) with norm
        # `norm`, so the validating from_pairs would rebuild the same key
        coeffs[IdealFactorization(norm, pairs, K)] = val
        for i in range(start, len(primes)):
            q = norms[i]
            if norm * q > X:
                break  # primes are norm-sorted, nothing further fits
            nn, vv, e = norm, val, 0
            while nn * q <= X:
                nn, vv, e = nn * q, vv * values[i], e + 1
                extend(i + 1, pairs + ((primes[i], e),), nn, vv)
                if max_exponent is not None and e >= max_exponent:
                    break

    extend(0, (), 1, Fraction(1))
    return FormalSeries(K, X, coeffs)


def character_zeta_series(chi: IdealCharacter, X: int) -> FormalSeries:
    """Expanded product over good primes of (1 - chi(P)/N(P) M(P))^{-1}.

    Coefficient at n is chi*(n)/N(n), zero (absent) off the good support.
    Equals the iterated product of the geometric-series factors, but is
    built in one pass.
    """
    primes = good_primes(chi, X)
    return _multiplicative_series(
        chi.field, X, primes, lambda P: Fraction(chi.value_at(P), P.norm)
    )


def character_moebius_series(chi: IdealCharacter, X: int) -> FormalSeries:
    """Expanded product over good primes of (1 - chi(P)/N(P) M(P)).

    Supported on squarefree good ideals; the exact inverse of
    character_zeta_series within the cutoff.
    """
    primes = good_primes(chi, X)
    return _multiplicative_series(
        chi.field, X, primes, lambda P: Fraction(-chi.value_at(P), P.norm), max_exponent=1
    )


def c_series_from_lambda(lam: FormalSeries, chi: IdealCharacter) -> FormalSeries:
    """Coefficient series of the lift: lam times the inverted Euler product."""
    if lam.field != chi.field:
        raise FieldMismatch("series and character over different fields")
    return series_mul(lam, character_zeta_series(chi, lam.cutoff))


def extract_prime_relation(
    c: FormalSeries, lam: FormalSeries, chi: IdealCharacter, P: PrimeIdeal
) -> Fraction:
    """Residual c(P) - chi(P)/N(P) - lam(P); exactly zero when c is the lift of lam.

    Requires c normalized to c(O_K) = 1 so the convolution at a prime
    index has exactly two terms.
    """
    unit = IdealFactorization.unit(c.field)
    if c.coefficient(unit) != 1:
        raise NotNormalized(f"c(O_K) = {c.coefficient(unit)} != 1")
    if P.norm > c.cutoff:
        raise ValueError(f"prime norm {P.norm} beyond cutoff {c.cutoff}")
    if chi.value_at(P) == 0:
        raise ValueError(f"{P} lies in the character's bad set; the relation needs a good prime")
    idx = IdealFactorization.from_prime(P)
    return c.coefficient(idx) - Fraction(chi.value_at(P), P.norm) - lam.coefficient(idx)
