"""Truncated ideal-indexed formal series with exact rational coefficients.

A series is sum a_m M(m) over integral ideals m of norm <= X in a fixed
field, where M(O_K) = 1 and M(mn) = M(m) M(n).  Multiplication is the
Cauchy product with terms of norm > X discarded; index norms only grow
under multiplication, so truncation is exact on every retained index.

On the ideal table of (K, X) a series holds one denominator D > 0 and the
N-twisted integer numerators num[m] = D N(m) a_m, with gcd(D, num) = 1.
N is completely multiplicative, so the twist commutes with the Cauchy
product.  The table keeps each divisor pair {a, b} once, so the product
becomes a gather of A[a]B[b] + A[b]B[a] over the pairs a < b, a segmented
sum, and A[d]B[d] added at each square d^2: in int64 where a bound on the
ordered pairs proves the sums fit, in Python ints otherwise, never in
floats.  Twisted, the Euler products of a quadratic character chi are the
integer series chi(n) and mu(n) chi(n), each set from n's parent.

A series is built from its columns, and products, Euler series and prime
extraction run on ids alone.  A character enters as chi_P, its int8
values on the rows of the prime table of (K, X), which are the prime ids
of the ideal table in row order.  The IdealFactorization of each id is
built once per (K, X), only for the read-only view coeffs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .field_arith import _LANES, IdealFactorization, QuadField, _ideal_objects, _ideal_table


def _absmax(values: np.ndarray) -> int:
    return int(np.abs(values).max(initial=0))


def _lanes(bound: int):
    """The dtype for values of size <= bound: int64 if bound fits int64, else Python ints.

    The one rule by which a series picks its lanes, for a whole column, from a bound."""
    return np.int64 if bound <= 2**63 - 1 else object


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
        raise ValueError("series over different fields")
    if A.cutoff != B.cutoff:
        raise ValueError(f"cutoffs differ: {A.cutoff} vs {B.cutoff}")
    T, n = A.table, len(A.num)
    # a sum has at most T.divisors terms; the 1s keep a zero factor from hiding a big one
    lanes = _lanes(max(_absmax(A.num), 1) * max(_absmax(B.num), 1) * T.divisors)
    x, y, out = A.num.astype(lanes, copy=False), B.num.astype(lanes, copy=False), np.zeros(n, lanes)
    # id m sums x[a] y[b] + x[b] y[a] over its pairs a < b, a chunk of ids at a time; every
    # id but O_K has the pair (O_K, m), so no segment of out[1:] is empty
    for m in range(1, n, _LANES):
        e = min(m + _LANES, n)
        lo, hi = T.start[m], T.start[e]
        a, b = T.a[lo:hi].astype(np.intp), T.b[lo:hi].astype(np.intp)
        out[m:e] = np.add.reduceat(x[a] * y[b] + x[b] * y[a], T.start[m:e] - lo)
    out[T.square] += x[: len(T.square)] * y[: len(T.square)]  # the pairs (d, d)
    return FormalSeries(A.field, A.cutoff, A.den * B.den, out)


def _on_rows(T, chi_P: np.ndarray) -> np.ndarray:
    """chi_P, if it holds one value per prime of the ideal table T."""
    if len(chi_P) != len(T.prime_id):
        raise ValueError(f"{len(chi_P)} character values for {len(T.prime_id)} primes")
    return chi_P


def _euler_series(K: QuadField, X: int, chi_P: np.ndarray, moebius: bool) -> FormalSeries:
    """The twisted series chi(m), or mu(m) chi(m): 1 at O_K, else f(m) times its value at m's parent."""
    T = _ideal_table(K, X)
    f = np.append(_on_rows(T, chi_P), 1)[T.last]  # chi(P) of m's last prime P; O_K's row -1 takes 1
    f = np.where(T.last[T.parent] == T.last, 0, -f) if moebius else f  # mu: 0 where P ends the parent too
    num = np.ones(len(T.norm), np.int8)
    bands = np.searchsorted(T.norm, 2 ** np.arange(1, X.bit_length() + 1))  # the ids of norm [N, 2N)
    for lo, hi in zip(bands[:-1], bands[1:]):  # a parent has at most half its child's norm
        num[lo:hi] = f[lo:hi] * num[T.parent[lo:hi]]
    return FormalSeries(K, X, 1, num)


def character_zeta_series(K: QuadField, X: int, chi_P: np.ndarray) -> FormalSeries:
    """Expanded product over good primes of (1 - chi(P)/N(P) M(P))^{-1}: chi*(n)/N(n) at n."""
    return _euler_series(K, X, chi_P, moebius=False)


def character_moebius_series(K: QuadField, X: int, chi_P: np.ndarray) -> FormalSeries:
    """Expanded product over good primes of (1 - chi(P)/N(P) M(P)).

    Supported on squarefree good ideals; the inverse of character_zeta_series."""
    return _euler_series(K, X, chi_P, moebius=True)


def c_series_from_lambda(lam: FormalSeries, chi_P: np.ndarray) -> FormalSeries:
    """Coefficient series of the lift: lam times the inverted Euler product."""
    return series_mul(lam, character_zeta_series(lam.field, lam.cutoff, chi_P))


def extract_prime_relation(c: FormalSeries, lam: FormalSeries, chi_P: np.ndarray) -> np.ndarray:
    """Residuals c(P) - chi(P)/N(P) - lam(P) at every good prime of norm <= X.

    An integer array, in prime-table order, of the residuals times
    den(c) den(lam) N(P); all zero when c is the lift of lam.  Requires c
    normalized to c(O_K) = 1 so the convolution at a prime index has
    exactly two terms.
    """
    if c.num[0] != c.den:  # id 0 is O_K, of norm 1
        raise ValueError(f"c(O_K) = {Fraction(int(c.num[0]), c.den)} != 1")
    if (lam.field, lam.cutoff) != (c.field, c.cutoff):
        raise ValueError("c and lam must share one field and one cutoff")
    good = np.flatnonzero(_on_rows(c.table, chi_P))
    ids, dc, dl = c.table.prime_id[good], c.den, lam.den
    lanes = _lanes(_absmax(c.num) * dl + dc * dl + _absmax(lam.num) * dc)
    cn, ln, v = (x.astype(lanes) for x in (c.num[ids], lam.num[ids], chi_P[good]))
    return cn * dl - v * (dc * dl) - ln * dc
