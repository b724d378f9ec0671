"""Truncated ideal-indexed formal series with exact rational coefficients.

A series is sum a_m M(m) over integral ideals m of norm <= X in a fixed
field, where M(O_K) = 1 and M(mn) = M(m) M(n).  Multiplication is the
Cauchy product with terms of norm > X discarded; index norms only grow
under multiplication, so truncation is exact on every retained index.

On the ideal table of (K, X) a series holds one denominator D > 0 and the
N-twisted integer numerators num[m] = D N(m) a_m, with gcd(D, num) = 1.
N is completely multiplicative, so the twist commutes with the Cauchy
product, which becomes a gather over the table's divisor pairs, a multiply
and a segmented sum: in int64 where a bound proves the sums fit, in Python
ints otherwise, never in floats.  Twisted, the Euler products of a
quadratic character chi are the integer series chi(n) and mu(n) chi(n).

A series is built from its columns, and products, Euler series and
prime extraction run on ids alone.  The IdealFactorization of each id is
built, once per (K, X), only for the read-only view coeffs and its
sorted_items.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .characters import CharacterValues, IdealCharacter
from .errors import CutoffMismatch, FieldMismatch, NotNormalized
from .field_arith import IdealFactorization, QuadField, _absmax, _ideal_objects, _ideal_table, _lanes


class FormalSeries:
    """The coefficients a_m = num[m] / (den N(m)) on the ideals m of norm <= cutoff."""

    __slots__ = ("field", "cutoff", "table", "den", "num")

    def __init__(self, field: QuadField, cutoff: int, den: int, num: np.ndarray):
        self.field, self.cutoff, self.table = field, cutoff, _ideal_table(field, cutoff)
        g = math.gcd(den, int(np.gcd.reduce(num)))
        if g > 1 and num.any():
            num = num // g
        self.den, self.num = den // g, num.astype(_lanes(_absmax(num)), copy=False)

    @property
    def coeffs(self) -> MappingProxyType:
        """A read-only {ideal: coefficient} view of the nonzero terms, built on each read."""
        return MappingProxyType({m: v for _, m, v in self.sorted_items()})

    def sorted_items(self) -> list[tuple[int, IdealFactorization, Fraction]]:
        """(norm, ideal, coefficient) sorted into canonical ideal order; ids are in key order."""
        ideals = _ideal_objects(self.field, self.cutoff)[0]
        terms = sorted((ideals[i], int(self.num[i])) for i in np.flatnonzero(self.num).tolist())
        return [(m.norm, m, Fraction(n, self.den * m.norm)) for m, n in terms]

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and (self.field, self.cutoff, self.den) == (other.field, other.cutoff, other.den)
            and np.array_equal(self.num, other.num)
        )


def series_mul(A: FormalSeries, B: FormalSeries) -> FormalSeries:
    """Cauchy product, truncated at the shared cutoff."""
    if A.field != B.field:
        raise FieldMismatch("series over different fields")
    if A.cutoff != B.cutoff:
        raise CutoffMismatch(f"cutoffs differ: {A.cutoff} vs {B.cutoff}")
    T = A.table
    # a sum has at most T.divisors terms; the 1s keep a zero factor from hiding a big one
    lanes = _lanes(max(_absmax(A.num), 1) * max(_absmax(B.num), 1) * T.divisors)
    terms = A.num.astype(lanes, copy=False)[T.a] * B.num.astype(lanes, copy=False)[T.b]
    return FormalSeries(A.field, A.cutoff, A.den * B.den, np.add.reduceat(terms, T.start))


def _euler_series(K: QuadField, X: int, chi_P: np.ndarray, factor) -> FormalSeries:
    """The twisted series whose coefficient at m is prod factor(chi(P), e) over P^e || m.

    chi_P is chi on the rows of the prime table of (K, X)."""
    T = _ideal_table(K, X)
    num = np.ones(len(T.norm), np.int64)
    np.multiply.at(num, T.fac_id, factor(chi_P.astype(np.int64)[T.fac_row], T.fac_exp))
    return FormalSeries(K, X, 1, num)


def character_zeta_series(chi: IdealCharacter | CharacterValues, X: int) -> FormalSeries:
    """Expanded product over good primes of (1 - chi(P)/N(P) M(P))^{-1}: chi*(n)/N(n) at n."""
    return _euler_series(chi.field, X, chi.values_upto(X), lambda v, e: v**e)


def character_moebius_series(chi: IdealCharacter | CharacterValues, X: int) -> FormalSeries:
    """Expanded product over good primes of (1 - chi(P)/N(P) M(P)).

    Supported on squarefree good ideals; the inverse of character_zeta_series."""
    return _euler_series(chi.field, X, chi.values_upto(X), lambda v, e: np.where(e == 1, -v, 0))


def c_series_from_lambda(lam: FormalSeries, chi: IdealCharacter | CharacterValues) -> FormalSeries:
    """Coefficient series of the lift: lam times the inverted Euler product."""
    if lam.field != chi.field:
        raise FieldMismatch("series and character over different fields")
    return series_mul(lam, character_zeta_series(chi, lam.cutoff))


def extract_prime_relation(
    c: FormalSeries, lam: FormalSeries, chi: IdealCharacter | CharacterValues
) -> np.ndarray:
    """Residuals c(P) - chi(P)/N(P) - lam(P) at every good prime of norm <= X.

    An integer array, in prime-table order, of the residuals times
    den(c) den(lam) N(P); all zero when c is the lift of lam.  Requires c
    normalized to c(O_K) = 1 so the convolution at a prime index has
    exactly two terms.
    """
    if c.num[0] != c.den:  # id 0 is O_K, of norm 1
        raise NotNormalized(f"c(O_K) = {Fraction(int(c.num[0]), c.den)} != 1")
    if (lam.field, lam.cutoff, chi.field) != (c.field, c.cutoff, c.field):
        raise FieldMismatch("c, lam and chi must share one field and one cutoff")
    chi_P = chi.values_upto(c.cutoff)
    good = np.flatnonzero(chi_P)
    ids, dc, dl = c.table.prime_id[good], c.den, lam.den
    lanes = _lanes(_absmax(c.num) * dl + dc * dl + _absmax(lam.num) * dc)
    cn, ln, v = (x.astype(lanes) for x in (c.num[ids], lam.num[ids], chi_P[good]))
    return cn * dl - v * (dc * dl) - ln * dc
