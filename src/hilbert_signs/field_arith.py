"""Exact ideal arithmetic in Q and in real quadratic fields Q(sqrt(d)).

Prime splitting, principal-ideal factorization, enumeration of prime
ideals by norm, and quadratic residue symbols in the residue fields via
the Euler criterion.  Everything is integer or Fraction arithmetic; no
floating point enters this module, so downstream sign decisions built on
it stay exact.

The prime ideals of norm <= X are the rows of one table per (K, X),
built once with numpy, and a PrimeIdeal is made from a row only to be
printed or to key a dict.  The int64 columns are exact because X <=
TABLE_MAX_X keeps every product of two residues mod p below 2^63.
Python ints remain where a value is unbounded (tau's coordinates and
norm, reduced limb by limb) and on the few lanes that take the scalar
route: the primes above 2 and the ramified primes.  Likewise the
integral ideals of norm <= X are the ids of one ideal table per (K, X),
and an IdealFactorization is made from an id only for text and dict keys.

Conventions.  d = 1 encodes Q itself (degree 1).  For quadratic d the
ring of integers is Z[w] with

    w = (1 + sqrt(d)) / 2   and   w^2 = w + (d-1)/4     if d = 1 mod 4,
    w = sqrt(d)             and   w^2 = d               otherwise.

How p decomposes is decided in one place, _class_of_residue, from the
class of p mod the discriminant.  A degree-one prime above p is
identified by the root of the minimal polynomial of w mod p that
generates its reduction map; the two primes above a split p are ordered
by that root as an integer in [0, p), the smaller root getting label 0.
Inert primes carry root 0 (unused).  Over Q every prime is the unique
degree-one prime above itself and is labeled as the first "split" prime.

QuadField, PrimeIdeal and IdealFactorization are named tuples whose
leading fields are their canonical order: a prime ideal sorts by
(norm, p, root_label), and an ideal by (norm, factors).  Plain sort(),
==, and hash() are therefore the canonical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    FieldMismatch,
    NotIntegral,
    NotSquarefree,
    NotTotallyPositive,
    UnsupportedField,
    ValidationError,
)

# d values for which every ideal class is trivial in the narrow sense
# (class number one and a fundamental unit of norm -1), so square roots
# of principal ideals and coefficient indexing are unambiguous.  1 is Q.
NARROW_CLASS_NUMBER_ONE = (1, 2, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)

# ======================================================================
# fields and elements
# ======================================================================


class QuadField(NamedTuple):
    """Q (d = 1) or the real quadratic field Q(sqrt(d)), d squarefree."""

    d: int
    disc: int
    degree: int

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def omega_square(self) -> tuple[int, int]:
        """(s, c) with w^2 = s*w + c for the integral generator w."""
        if self.d % 4 == 1:
            return 1, (self.d - 1) // 4
        return 0, self.d

    def __repr__(self):
        return "Q" if self.is_rational else f"Q(sqrt({self.d}))"


def make_field(d: int) -> QuadField:
    """Construct Q (d = 1) or Q(sqrt(d)) for allowlisted d.

    A d off the list is refused at once, with no trial division up to
    sqrt(d): NotSquarefree if d < 1 or the square of some m < 100 divides
    it, UnsupportedField otherwise.
    """
    if d not in NARROW_CLASS_NUMBER_ONE:
        if d < 1 or any(d % (m * m) == 0 for m in range(2, 100)):
            raise NotSquarefree(f"d must be squarefree and positive, got {d}")
        raise UnsupportedField(
            f"d={d} is outside the supported narrow-class-number-one list "
            f"{NARROW_CLASS_NUMBER_ONE}"
        )
    if d == 1:
        return QuadField(d=1, disc=1, degree=1)
    disc = d if d % 4 == 1 else 4 * d
    return QuadField(d=d, disc=disc, degree=2)


@dataclass(frozen=True)
class FieldElement:
    """a + b*sqrt(d) with rational a, b.  Over Q, b is folded into a."""

    field: QuadField
    a: Fraction
    b: Fraction

    def norm(self) -> Fraction:
        if self.field.is_rational:
            return self.a
        return self.a * self.a - self.field.d * self.b * self.b

    def omega_coords(self) -> tuple[Fraction, Fraction]:
        """(x, y) with self = x + y*w in the integral basis {1, w}."""
        if self.field.is_rational:
            return self.a, Fraction(0)
        if self.field.d % 4 == 1:
            return self.a - self.b, 2 * self.b
        return self.a, self.b

    def is_integral(self) -> bool:
        x, y = self.omega_coords()
        return x.denominator == 1 and y.denominator == 1

    def is_totally_positive(self) -> bool:
        # a + b*sqrt(d) > 0 under both embeddings  <=>  a > 0 and a^2 > d*b^2.
        if self.b == 0:
            return self.a > 0
        return self.a > 0 and self.a * self.a > self.field.d * self.b * self.b

    def __repr__(self):
        if self.field.is_rational or self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.field.d})"


def element(K: QuadField, a, b=0) -> FieldElement:
    """Build a + b*sqrt(d) in K; over Q the sqrt(1) part folds into a."""
    a, b = Fraction(a), Fraction(b)
    if K.is_rational:
        return FieldElement(K, a + b, Fraction(0))
    return FieldElement(K, a, b)


def as_element(K: QuadField, tau) -> FieldElement:
    """Coerce an int, Fraction, (a, b) pair, or FieldElement into K."""
    if isinstance(tau, FieldElement):
        if tau.field != K:
            raise FieldMismatch(f"element of {tau.field} used in {K}")
        return tau
    if isinstance(tau, tuple):
        return element(K, *tau)
    return element(K, tau)


# ======================================================================
# prime ideals
# ======================================================================


class Splitting(str, Enum):
    SPLIT_FIRST = "split_first"
    SPLIT_SECOND = "split_second"
    INERT = "inert"
    RAMIFIED = "ramified"


# Splitting by code: a column of codes maps to members and residue degrees.
_KINDS = (Splitting.SPLIT_FIRST, Splitting.SPLIT_SECOND, Splitting.INERT, Splitting.RAMIFIED)
_DEGREE_OF = (1, 1, 2, 1)
_SPLIT, _SECOND, _INERT, _RAMIFIED = range(4)


class PrimeIdeal(NamedTuple):
    """A maximal ideal of O_K, identified by (p, residue degree, root).

    root is the distinguished root in [0, p) of the minimal polynomial of
    w mod p for degree-one primes (reduction sends w to root); it is 0 and
    unused for inert primes.  root_label is 1 for the second split prime
    above p and 0 otherwise.
    """

    norm: int
    rational_prime: int
    root_label: int
    residue_degree: int
    splitting: Splitting
    root: int
    field: QuadField

    def __repr__(self):
        if self.field.is_rational:
            return f"({self.rational_prime})"
        tag = {
            Splitting.SPLIT_FIRST: "a",
            Splitting.SPLIT_SECOND: "b",
            Splitting.INERT: "i",
            Splitting.RAMIFIED: "r",
        }[self.splitting]
        return f"P{self.rational_prime}{tag}"


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks.  Requires odd prime p and a an actual square mod p."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # p = 1 mod 4: full Tonelli-Shanks with the smallest nonresidue as base
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _omega_roots_mod(K: QuadField, p: int) -> list[int]:
    """Roots in [0, p) of the minimal polynomial of w mod a split or ramified p."""
    s, c = K.omega_square()  # w^2 = s*w + c
    if p == 2:
        return [x for x in range(2) if (x * x - s * x - c) % 2 == 0]
    # odd p: both shapes reduce to a square root of d mod p
    sq = _sqrt_mod(K.d, p)
    if s == 0:
        roots = {sq, (p - sq) % p}
    else:
        inv2 = (p + 1) // 2
        roots = {(1 + sq) * inv2 % p, (1 - sq) * inv2 % p}
    return sorted(roots)


@lru_cache(maxsize=None)
def _class_of_residue(K: QuadField) -> np.ndarray:
    """How a prime p = r mod disc decomposes in the quadratic field K, at index r.

    The read-only int8 array holds _RAMIFIED where gcd(r, disc) > 1, and
    otherwise _SPLIT where r is a value mod disc of the norm form N(x + y w)
    = x^2 + s x y - c y^2, _INERT where it is none.  A split p is such a
    value: every supported field has narrow class number one, so a prime
    above p has a generator of norm > 0, and its norm is p.  An inert p is
    not: a norm prime to disc holds each inert prime to an even power, so
    the character of K (+1 at a split p, -1 at an inert p, and even, as K
    is real) is +1 on it, and it never lands in an inert p's class.
    """
    r = np.arange(K.disc)
    s, c = K.omega_square()  # w^2 = s*w + c
    x, y = r[:, None], r[None, :]
    cls = np.full(K.disc, _INERT, dtype=np.int8)
    cls[(x * x + s * x * y - c * y * y) % K.disc] = _SPLIT
    cls[np.gcd(r, K.disc) > 1] = _RAMIFIED
    cls.flags.writeable = False
    return cls


def _primes_above(K: QuadField, p: int) -> list[PrimeIdeal]:
    """Prime ideals of O_K above the prime p (not checked), by root label."""
    if K.is_rational:
        return [PrimeIdeal(p, p, 0, 1, Splitting.SPLIT_FIRST, 0, K)]
    cls = _class_of_residue(K)[p % K.disc]
    if cls == _RAMIFIED:
        # the minimal polynomial has a double root mod p
        return [PrimeIdeal(p, p, 0, 1, Splitting.RAMIFIED, _omega_roots_mod(K, p)[0], K)]
    if cls == _INERT:
        return [PrimeIdeal(p * p, p, 0, 2, Splitting.INERT, 0, K)]
    r1, r2 = _omega_roots_mod(K, p)
    return [
        PrimeIdeal(p, p, 0, 1, Splitting.SPLIT_FIRST, r1, K),
        PrimeIdeal(p, p, 1, 1, Splitting.SPLIT_SECOND, r2, K),
    ]


def split_rational_prime(K: QuadField, p: int) -> list[PrimeIdeal]:
    """Prime ideals of O_K above p, sorted by (norm, p, root_label)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _primes_above(K, p)


def primes_upto(n: int) -> np.ndarray:
    """Rational primes <= n, ascending.

    The sieve holds the odd numbers only: entry i stands for 2 i + 1, and
    entry 0, for 1, stands for 2 instead.
    """
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:  # p = 2 i + 1 is prime; strike p^2, p^2 + 2p, ...
            sieve[2 * i * (i + 1) :: 2 * i + 1] = False
    p = np.flatnonzero(sieve).astype(np.int64, copy=False)
    p *= 2
    p += 1
    p[0] = 2
    return p


# ----------------------------------------------------------------------
# the prime table: every prime ideal of norm <= X, in int64 lanes
# ----------------------------------------------------------------------

# Products of two residues mod p stay below p^2, which p <= X keeps < 2^63.
TABLE_MAX_X = math.isqrt(2**63 - 1)  # 3,037,000,499

# Lanes per numpy pass, so that each temporary array stays near 64 KiB
# whatever X is.
_LANES = 1 << 13


def _absmax(values: np.ndarray) -> int:
    return int(np.abs(values).max(initial=0))


def _lanes(bound: int, limit: int = 2**63 - 1):
    """The dtype for values of size <= bound: int64 if bound <= limit, else Python ints.

    The default limit is the int64 maximum; a caller that also needs the
    values as exact floats passes 2^53.
    """
    return np.int64 if bound <= limit else object


class _PrimeTable(NamedTuple):
    """The prime ideals of norm <= X in canonical order, one row each, as read-only columns.

    norm and root are the int64 PrimeIdeal fields of that name, and kind
    is the int8 index of the splitting in _KINDS.  key = 2 norm +
    root_label is strictly increasing: a norm names its p (p, or p^2,
    which is never prime), so key orders the rows by (norm, p, label).
    """

    norm: np.ndarray
    kind: np.ndarray
    root: np.ndarray
    key: np.ndarray

    def names(self, rows) -> tuple[list[int], list[int], list[int]]:
        """(norm, p, root_label) of the given rows, as lists of Python ints."""
        norm, inert = self.norm[rows], self.kind[rows] == _INERT
        p = np.where(inert, np.sqrt(norm).astype(np.int64), norm)  # exact: norm < 2^53
        return norm.tolist(), p.tolist(), (self.key[rows] & 1).tolist()

    def lookup(self, norm: list[int], p: list[int], label: list[int]) -> np.ndarray:
        """The row of each name (norm[i], p[i], label[i]), or -1 where no row has that name.

        The columns may hold any Python ints.  Each is range-checked whole
        in Python ints (min and max) before its int64 cast, and in a column
        that leaves the table's range (0..last norm, labels 0..1) the values
        outside it become -1, which names no row.  The rest is one
        searchsorted on key, then the p of each hit row checked.
        """
        last = int(self.norm[-1]) if len(self.key) else 0
        cols = []
        for col, top in ((norm, last), (p, last), (label, 1)):
            if len(col) and not (0 <= min(col) and max(col) <= top):
                col = [v if 0 <= v <= top else -1 for v in col]
            cols.append(np.array(col, dtype=np.int64))
        norm, p, label = cols
        if not len(self.key):
            return np.full(len(norm), -1)
        key = 2 * norm + label
        i = np.searchsorted(self.key, key) % len(self.key)  # past the end: row 0
        named = np.where(self.kind[i] == _INERT, p * p, p) == norm
        return np.where((self.key[i] == key) & named & (label >= 0), i, -1)


def _name_columns(primes) -> tuple[list[int], list[int], list[int]]:
    """The (norm, p, root_label) columns of some PrimeIdeals, as _PrimeTable.lookup takes them."""
    primes = list(primes)
    return [P.norm for P in primes], [P.rational_prime for P in primes], [P.root_label for P in primes]


def _prime_ideals(K: QuadField, T: _PrimeTable, rows) -> list[PrimeIdeal]:
    """The PrimeIdeal of each of the given rows of T, for text and for dict keys."""
    kinds = T.kind[rows].tolist()
    degrees, splittings = [_DEGREE_OF[k] for k in kinds], [_KINDS[k] for k in kinds]
    return list(map(PrimeIdeal, *T.names(rows), degrees, splittings, T.root[rows].tolist(), repeat(K)))


def _mod_lanes(n: int, p: np.ndarray) -> np.ndarray:
    """n mod p lane by lane, for a Python int n of any size (Horner on 30-bit limbs)."""
    m, limbs = abs(n), []
    while m:
        limbs.append(m & (2**30 - 1))
        m >>= 30
    r = np.zeros_like(p)
    for limb in reversed(limbs):
        r = ((r << 30) + limb) % p
    return r if n >= 0 else -r % p


def _pow_lanes(a: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^e mod p lane by lane, for 0 <= a < p <= TABLE_MAX_X and e >= 0."""
    r = np.ones_like(p)
    while e.any():
        r = np.where(e & 1 == 1, r * a % p, r)
        a, e = a * a % p, e >> 1
    return r


def _sqrt_lanes(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A square root of a mod p lane by lane; p an odd prime, a a nonzero square mod p.

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.5.1) over all lanes at once.  Lanes with p = 3 mod 4
    are done before the loop, and every other lane leaves it as soon as
    its root is found.
    """
    q, s = p - 1, np.zeros_like(p)
    while (even := q & 1 == 0).any():
        q, s = np.where(even, q >> 1, q), s + even
    x = _pow_lanes(a, q >> 1, p)
    root = a * x % p  # a^((q+1)/2), whose square is a * t
    t = root * x % p  # a^q
    live = np.flatnonzero(t != 1)
    pl, m, t, r = p[live], s[live], t[live], root[live]
    # The least nonresidue z is a prime below 1 + sqrt(p).  Live lanes have
    # p = 1 mod 4, so by reciprocity z = 2 is one iff p = 5 mod 8, and an odd
    # prime z iff p mod z is a nonresidue mod z.
    z, todo = np.full_like(pl, 2), np.flatnonzero(pl & 7 != 5)
    for zc in primes_upto(math.isqrt(int(pl.max(initial=0))) + 1).tolist()[1:]:
        if not todo.size:
            break
        square = np.zeros(zc, dtype=bool)
        square[np.arange(zc) ** 2 % zc] = True
        hit = ~square[pl[todo] % zc]
        z[todo[hit]] = zc
        todo = todo[~hit]
    c = _pow_lanes(z, q[live], pl)
    while live.size:
        # the least i with t^(2^i) = 1, then b = c^(2^(m-i-1))
        i, t2 = np.ones_like(m), t * t % pl
        while (t2 != 1).any():
            i, t2 = i + (t2 != 1), t2 * t2 % pl
        if (i >= m).any():
            raise ArithmeticError("Tonelli-Shanks lane given a nonresidue")
        b, k = c, m - i - 1
        for j in range(int(k.max())):
            b = np.where(j < k, b * b % pl, b)
        m, c = i, b * b % pl
        t, r = t * c % pl, r * b % pl
        done = t == 1
        root[live[done]] = r[done]
        live, pl, m, c, t, r = (v[~done] for v in (live, pl, m, c, t, r))
    return root


def _omega_roots_lanes(K: QuadField, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r1, r2): the roots r1 < r2 of the minimal polynomial of w mod each odd split p."""
    sq = _sqrt_lanes(K.d % p, p)
    if K.omega_square()[0]:  # w^2 = w + (d-1)/4: roots (1 +- sq)/2 mod p
        ra, rb = (1 + sq) % p, (1 - sq) % p
        ra, rb = (ra + (ra & 1) * p) >> 1, (rb + (rb & 1) * p) >> 1
    else:  # w^2 = d: roots +-sq
        ra, rb = sq, p - sq
    return np.minimum(ra, rb), np.maximum(ra, rb)


@lru_cache(maxsize=1)
def _prime_table(K: QuadField, X: int) -> _PrimeTable:
    """The prime table of (K, X), built once with numpy; the last one is kept.

    The sieve gives the rational primes, a lookup on p mod disc their
    class, and one vectorized square root of d mod each odd split p both
    roots of the minimal polynomial of w.  The table holds no Python
    object, and few temporaries of its length live at once.  X is refused
    before anything is allocated if p^2 could pass int64.
    """
    if X > TABLE_MAX_X:
        raise ValueError(f"the prime table needs X <= {TABLE_MAX_X} so that p^2 < 2^63, got {X}")
    p = primes_upto(X)
    if K.is_rational:  # (p) is the one prime above p
        kind, root = np.zeros(len(p), dtype=np.int8), np.zeros_like(p)
    else:
        cls = _class_of_residue(K)[p % K.disc]
        inert = p[(cls == _INERT) & (p <= math.isqrt(X))]
        # degree-one rows in p order: two rows for a split p, one for a ramified p
        rows = (cls == _SPLIT).astype(np.int8) + (cls != _INERT)
        p, kind = np.repeat(p, rows), np.repeat(cls, rows)
        del cls, rows  # free before the root lanes run
        # inert rows, of norm p^2, merged in by norm
        at = np.searchsorted(p, inert * inert)
        p, kind = np.insert(p, at, inert), np.insert(kind, at, _INERT)
        second = np.flatnonzero(p[1:] == p[:-1]) + 1  # the label-1 row of each split p
        kind[second] = _SECOND
        root = np.zeros_like(p)
        second = second[p[second] != 2]
        for lo in range(0, len(second), _LANES):
            i = second[lo : lo + _LANES]
            root[i - 1], root[i] = _omega_roots_lanes(K, p[i])
        # p = 2 when it splits, and the ramified primes: at most three, one at a time
        for i in np.flatnonzero((kind == _SPLIT) & (p == 2) | (kind == _RAMIFIED)).tolist():
            roots = _omega_roots_mod(K, int(p[i]))
            root[i : i + len(roots)] = roots
    norm = p  # p becomes the norm in place
    norm[kind == _INERT] **= 2
    cols = (norm, kind, root, 2 * norm + (kind == _SECOND))
    for c in cols:
        c.flags.writeable = False
    return _PrimeTable(*cols)


# ======================================================================
# quadratic residue symbols
# ======================================================================


def _euler_symbol_lanes(x: int, y: int, p: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The Euler criterion of x + y*w at degree-one primes (p, root), as int8 lanes.

    p may be any modulus up to TABLE_MAX_X, but only a lane with p an odd
    prime reads a symbol; the others are the caller's to discard.
    """
    out = np.empty(len(p), dtype=np.int8)
    for lo in range(0, len(p), _LANES):
        pl = p[lo : lo + _LANES]
        a = (_mod_lanes(x, pl) + _mod_lanes(y, pl) * root[lo : lo + _LANES]) % pl
        t = _pow_lanes(a, pl >> 1, pl)
        out[lo : lo + len(pl)] = np.where(t == pl - 1, -1, t)
    return out


# ======================================================================
# ideal factorizations
# ======================================================================


class IdealFactorization(NamedTuple):
    """An integral ideal: its norm and a sorted tuple of (PrimeIdeal, exponent > 0).

    The empty tuple is the unit ideal O_K.  Instances are canonical, so
    equality and hashing are structural.  Build them with from_pairs.
    """

    norm: int
    factors: tuple[tuple[PrimeIdeal, int], ...]
    field: QuadField

    @classmethod
    def from_pairs(cls, K: QuadField, pairs) -> "IdealFactorization":
        merged: dict[PrimeIdeal, int] = {}
        for P, e in pairs:
            if P.field != K:
                raise FieldMismatch(f"prime of {P.field} in ideal of {K}")
            if e:
                merged[P] = merged.get(P, 0) + e
        if any(e < 0 for e in merged.values()):
            raise ValueError("negative exponent: only integral ideals are supported")
        items = sorted((P, e) for P, e in merged.items() if e)
        return cls(math.prod(P.norm**e for P, e in items), tuple(items), K)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def support(self) -> tuple[PrimeIdeal, ...]:
        return tuple(P for P, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __mul__(self, other: "IdealFactorization") -> "IdealFactorization":
        if self.field != other.field:
            raise FieldMismatch("cannot multiply ideals of different fields")
        merged = dict(self.factors)
        for P, e in other.factors:
            merged[P] = merged.get(P, 0) + e
        return IdealFactorization(self.norm * other.norm, tuple(sorted(merged.items())), self.field)

    def __repr__(self):
        if self.is_unit:
            return "(1)"
        return "*".join(f"{P}^{e}" if e > 1 else f"{P}" for P, e in self.factors)


class _IdealTable(NamedTuple):
    """The integral ideals of norm <= X, each by its id: the rank of its key.

    norm and key are each ideal's norm and exact name (see _ideal_table);
    id 0 is O_K.  fac_id, fac_row and fac_exp list each P^e exactly
    dividing an ideal, P by its prime-table row, ascending in row within
    each ideal, and prime_id is the id of each prime row.  The pairs (a, b)
    with N(a) N(b) <= X are sorted by the id of ab: those of id m begin at
    start[m], and no id has more than `divisors` of them.  The arrays are
    read-only.
    """

    norm: np.ndarray
    key: np.ndarray
    fac_id: np.ndarray
    fac_row: np.ndarray
    fac_exp: np.ndarray
    prime_id: np.ndarray
    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    divisors: int


@lru_cache(maxsize=4)
def _ideal_table(K: QuadField, X: int) -> _IdealTable:
    """The ideal table of (K, X), built once in numpy; the last four are kept.

    The ideals are found level by level, as ascending lists of prime rows:
    an ideal m whose last row is r has the children m P_i for the rows
    i >= r with N(m) N(P_i) <= X, so each ideal is found once.  The key
    N(m) X + s(m), where s(m) is the product of N(P)^e over the P^e || m
    with root_label 1, names m: N(m) fixes every exponent but how e_0 + e_1
    is shared at a split p, and s(m) fixes e_1.  It is multiplicative,
    key(ab) = N(a) N(b) X + s(a) s(b), and as 1 <= s <= N <= X <=
    TABLE_MAX_X, it is below 2^63 and ascends with the norm.
    """
    if X < 1:
        raise ValueError(f"the cutoff must be >= 1, got {X}")
    P = _prime_table(K, X)
    s_of = np.where(P.key & 1 == 1, P.norm, 1)  # the s of each prime: N(P) at root_label 1
    norm, s, last = np.ones(1, np.int64), np.ones(1, np.int64), np.zeros(1, np.int64)
    rows = np.empty((1, 0), np.int64)  # level 0: O_K, with no rows
    levels = []
    while len(norm):
        levels.append((norm, s, rows))
        fits = np.maximum(np.searchsorted(P.norm, X // norm, side="right") - last, 0)
        up = np.repeat(np.arange(len(norm)), fits)
        last = last[up] + np.arange(len(up)) - np.repeat(np.cumsum(fits) - fits, fits)
        norm, s, rows = norm[up] * P.norm[last], s[up] * s_of[last], np.column_stack((rows[up], last))
    sizes = [len(n) for n, _, _ in levels]
    norm, s, row = (np.concatenate([c.ravel() for c in col]) for col in zip(*levels))
    # an ideal of level e has e rows
    owner = np.repeat(np.arange(len(norm)), np.repeat(np.arange(len(sizes)), sizes))
    # a factor P^e of an ideal is a run of e equal rows in its list
    head = np.flatnonzero(np.diff(owner, prepend=-1) | np.diff(row, prepend=-1))
    key = norm * X + s
    canon = np.argsort(key)  # an ideal's id is the rank of its key
    rank = np.empty_like(canon)
    rank[canon] = np.arange(len(canon))
    fac_id, fac_row, fac_exp = rank[owner[head]], row[head], np.diff(head, append=len(row))
    key, norm, s = key[canon], norm[canon], s[canon]
    # free the factor stage's temporaries before the pair stage, which peaks far higher
    del owner, row, head, rank, canon, levels
    per_a = np.searchsorted(norm, X // norm, side="right")  # the b are a prefix
    a = np.repeat(np.arange(len(norm)), per_a)
    b = np.arange(len(a)) - np.repeat(np.cumsum(per_a) - per_a, per_a)
    ab = np.searchsorted(key, norm[a] * norm[b] * X + s[a] * s[b])
    prime_id = np.searchsorted(key, P.norm * X + s_of)
    order = np.argsort(ab, kind="stable")
    start = np.searchsorted(ab[order], np.arange(len(norm)))
    divisors = int(np.diff(start, append=len(ab)).max())
    cols = (norm, key, fac_id, fac_row, fac_exp, prime_id, a[order], b[order], start)
    for c in cols:
        c.flags.writeable = False
    return _IdealTable(*cols, divisors)


@lru_cache(maxsize=4)
def _ideal_objects(K: QuadField, X: int) -> tuple[tuple[IdealFactorization, ...], dict]:
    """The IdealFactorization of each id of the ideal table of (K, X), and the id of each.

    Built once, for the coeffs view of a formal series.
    """
    T = _ideal_table(K, X)
    primes = _prime_ideals(K, _prime_table(K, X), slice(None))
    factors = [[] for _ in range(len(T.norm))]
    for i, r, e in zip(T.fac_id.tolist(), T.fac_row.tolist(), T.fac_exp.tolist()):
        factors[i].append((primes[r], e))
    ideals = tuple(map(IdealFactorization, T.norm.tolist(), map(tuple, factors), repeat(K)))
    return ideals, {m: i for i, m in enumerate(ideals)}


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """f = a^2 * r with r squarefree; both parts share f's field."""

    a: IdealFactorization
    r: IdealFactorization


def _factor_int(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, ascending in p, by one trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:  # no factor <= sqrt(n) is left, so n is a prime above every p found
        out[n] = 1
    return out


# factor_principal_ideal finds the primes of |N(tau)| by trial division up to
# its square root, ~0.1 s for a prime norm near 10^12 on a 2-vCPU VM (Python
# 3.11), ten times that per factor 100.  A larger norm is refused instead.
MAX_TAU_NORM = 10**12


def factorable_tau(K: QuadField, tau) -> FieldElement:
    """tau as an element of K, if factor_principal_ideal takes it: a totally
    positive algebraic integer with |N(tau)| <= MAX_TAU_NORM.

    The commands call it before any work that does not need tau.
    """
    el = as_element(K, tau)
    if not el.is_integral():
        raise NotIntegral(f"{el} is not an algebraic integer of {K}")
    if not el.is_totally_positive():
        raise NotTotallyPositive(f"{el} is not totally positive")
    n = int(abs(el.norm()))
    if n > MAX_TAU_NORM:
        raise ValidationError(f"|N({el})| = {n} exceeds {MAX_TAU_NORM}, too large to factor")
    return el


def factor_principal_ideal(K: QuadField, tau) -> IdealFactorization:
    """Factor the principal ideal tau*O_K into prime ideals.

    tau must pass factorable_tau.  The result is verified against |N(tau)|
    before being returned.
    """
    el = factorable_tau(K, tau)
    n = int(abs(el.norm()))
    pairs: list[tuple[PrimeIdeal, int]] = []
    if K.is_rational:
        for p, e in _factor_int(n).items():
            pairs.append((split_rational_prime(K, p)[0], e))
    else:
        x, y = (int(c) for c in el.omega_coords())
        for p, e_total in _factor_int(n).items():
            above = split_rational_prime(K, p)
            if above[0].splitting is Splitting.RAMIFIED:
                # N(P) = p and P is alone above p, so v_P = v_p(norm)
                pairs.append((above[0], e_total))
            elif above[0].splitting is Splitting.INERT:
                if e_total % 2:
                    raise ArithmeticError(f"odd valuation {e_total} at inert {p}")
                pairs.append((above[0], e_total // 2))
            else:
                P1, P2 = above
                vg = 0  # valuation of the rational content at p
                x1, y1 = x, y
                while x1 % p == 0 and y1 % p == 0:
                    x1, y1, vg = x1 // p, y1 // p, vg + 1
                rest = e_total - 2 * vg
                e1, e2 = vg, vg
                if rest:
                    # primitive part is divisible by exactly one of P1, P2
                    if (x1 + y1 * P1.root) % p == 0:
                        e1 += rest
                    elif (x1 + y1 * P2.root) % p == 0:
                        e2 += rest
                    else:
                        raise ArithmeticError(f"split prime {p} divides neither root branch")
                if e1:
                    pairs.append((P1, e1))
                if e2:
                    pairs.append((P2, e2))
    result = IdealFactorization.from_pairs(K, pairs)
    if result.norm != n:
        raise ArithmeticError(f"factorization norm {result.norm} != |N(tau)| = {n}")
    return result


def squarefree_decompose(f: IdealFactorization) -> SquarefreeDecomposition:
    """Split f = a^2 * r with squarefree r."""
    a = IdealFactorization.from_pairs(f.field, ((P, e // 2) for P, e in f.factors))
    r = IdealFactorization.from_pairs(f.field, ((P, e % 2) for P, e in f.factors))
    assert (a * a * r) == f and r.is_squarefree
    return SquarefreeDecomposition(a=a, r=r)
