"""Exact ideal arithmetic in Q and in real quadratic fields Q(sqrt(d)).

Prime splitting, principal-ideal factorization, enumeration of prime
ideals by norm, and the lane powers in F_p and in O_K/pO_K that the
residue symbols of the characters take.  Everything is integer
arithmetic; no floating point enters this module, so downstream sign
decisions built on it stay exact.

A prime ideal is its name (norm, p, root_label) everywhere, and
ideal_text renders a name or a product of names.  The prime ideals of
norm <= X are the rows of one table per (K, X), built once with numpy.
Their roots (below) only name the two primes above a split p: they are
no column, and no square root mod p is taken.  The lanes are exact for
X <= TABLE_MAX_X (see there).  Python ints remain where a value is
unbounded: tau's coordinates and norm, reduced limb by limb.  Likewise
the integral ideals of norm <= X are the ids of one ideal table per
(K, X), a tree of parents and last primes.  IdealFactorization objects
are made from ids only for the coeffs view of a formal series.

Conventions.  d = 1 encodes Q itself (degree 1).  For quadratic d the
ring of integers is Z[w] with

    w = (1 + sqrt(d)) / 2   and   w^2 = w + (d-1)/4     if d = 1 mod 4,
    w = sqrt(d)             and   w^2 = d               otherwise.

How p decomposes is decided in one place, _class_of_residue, from the
class of p mod the discriminant.  A degree-one prime above p is
identified by the root of the minimal polynomial of w mod p that
generates its reduction map; the two primes above a split p are named by
that root as an integer in [0, p), the smaller root getting label 0.
Over Q every prime is the unique degree-one prime above itself and is
labeled as the first "split" prime.

tau*O_K is factored with no square root.  At a split p, let x1 + y1 w be
tau divided by the largest power of p that divides it.  If p divides its
norm, x1^2 + s x1 y1 - c y1^2, then p does not divide y1, or p would
divide x1 too; so x1 + y1 w lies in the prime above p whose root is r =
-x1/y1 mod p, as reduction sends it to x1 + y1 r = 0.  The other root is
s - r, the roots summing to s, so that prime has label 0 iff r < (s - r)
mod p.

A name sorts by (norm, p, root_label).  A norm fixes its p, so that is
by norm and then label, the order of the prime table's rows, and a name
is found there by its norm alone.  QuadField and IdealFactorization are
named tuples whose leading fields are their canonical order: an ideal
sorts by (norm, factors).  Plain sort(), ==, and hash() are therefore
the canonical ones.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import HilbertSignsError

# d values for which every ideal class is trivial in the narrow sense
# (class number one and a fundamental unit of norm -1), so square roots
# of principal ideals and coefficient indexing are unambiguous.  1 is Q.
NARROW_CLASS_NUMBER_ONE = (1, 2, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)

# ======================================================================
# fields
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
    sqrt(d): "d must be squarefree and positive" if d < 1 or the square
    of some m < 100 divides it, "outside the supported ... list" otherwise.
    """
    if d not in NARROW_CLASS_NUMBER_ONE:
        if d < 1 or any(d % (m * m) == 0 for m in range(2, 100)):
            raise HilbertSignsError(f"d must be squarefree and positive, got {d}")
        raise HilbertSignsError(
            f"d={d} is outside the supported narrow-class-number-one list "
            f"{NARROW_CLASS_NUMBER_ONE}"
        )
    if d == 1:
        return QuadField(d=1, disc=1, degree=1)
    disc = d if d % 4 == 1 else 4 * d
    return QuadField(d=d, disc=disc, degree=2)


# ======================================================================
# prime ideals
# ======================================================================


# How p splits, by code: a column of codes maps to these texts and residue degrees.
# root_label is 1 for the second split prime above p and 0 otherwise.
_KINDS = ("split_first", "split_second", "inert", "ramified")
_DEGREE_OF = (1, 1, 2, 1)
_SPLIT, _SECOND, _INERT, _RAMIFIED = range(4)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s r with r odd
    r = (n - 1) >> s
    for a in bases:
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


def _names_above(K: QuadField, p: int) -> list[tuple[int, int, int]]:
    """The names (norm, p, root_label) of the prime ideals of O_K above the prime p (not checked), by label."""
    cls = _RAMIFIED if K.is_rational else _class_of_residue(K)[p % K.disc]  # over Q, (p) is alone above p
    if cls == _INERT:
        return [(p * p, p, 0)]
    return [(p, p, label) for label in range(1 + (cls == _SPLIT))]


def ideal_text(K: QuadField, factors) -> str:
    """The text of the ideal prod P^e over the pairs (name of P, e > 0) of factors, in their order.

    A prime is (p) over Q, and otherwise P<p> and a tag: a or b for the
    split primes above p by root label, i for an inert p, r for a ramified
    one.  So P11a, (37), P2i*P11a*P11b and (2)^2*(3); the unit ideal is (1).
    """
    out = []
    for (_, p, label), e in factors:  # the tags by the code of _KINDS: the class of p, plus the label
        P = f"({p})" if K.is_rational else f"P{p}{'abir'[_class_of_residue(K)[p % K.disc] + label]}"
        out.append(f"{P}^{e}" if e > 1 else P)
    return "*".join(out) or "(1)"


def _row_text(K: QuadField, X: int, row: int) -> str:
    """The text of the prime at one row of the prime table of (K, X)."""
    return ideal_text(K, [(next(zip(*_prime_table(K, X).names([row]))), 1)])


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

# p <= X keeps each product of two residues mod p below p^2 < 2^63, and the largest
# such prime, 3,037,000,493, the sums 2 (p-1)^2 + 24 p of _pow_quad_lanes below 2^64.
TABLE_MAX_X = math.isqrt(2**63 - 1)  # 3,037,000,499

# Lanes per numpy pass, so that each temporary stays near 64 KiB whatever X is.
_LANES = 1 << 13


class _PrimeTable(NamedTuple):
    """The prime ideals of norm <= X in canonical order, one row each, as read-only columns.

    norm is the int64 norm of each prime, and kind the int8 code of how
    its p splits, an index into _KINDS.  A norm names its p (p, or p^2,
    which is never prime), so the rows of one norm are the primes above
    one p, and root_label is kind == _SECOND: the norm orders the rows, and
    the label orders the two of a split p.
    """

    norm: np.ndarray
    kind: np.ndarray

    def names(self, rows) -> tuple[list[int], list[int], list[int]]:
        """(norm, p, root_label) of the given rows, as lists of Python ints."""
        norm, kind = self.norm[rows], self.kind[rows]
        p = np.where(kind == _INERT, np.sqrt(norm).astype(np.int64), norm)  # exact: norm < 2^53
        return norm.tolist(), p.tolist(), (kind == _SECOND).astype(np.int8).tolist()

    def lookup(self, norm, p, label) -> np.ndarray:
        """The row of each name (norm[i], p[i], label[i]), or -1 where no row has that name.

        The columns are sequences or arrays of any ints, each taken through
        np.asarray and range-checked whole (min and max) before its int64
        cast: in a column that leaves the table's range (0..last norm,
        labels 0..1) the values outside it become one past the range (last
        norm + 1, or label 2), which names no row and which every dtype
        np.asarray picks (int64, uint64, float64 or object) holds exactly.
        The row of a name is the first row of its norm plus its label, and
        there the norm, the label (against kind == _SECOND) and p are
        checked.
        """
        last = int(self.norm[-1]) if len(self.norm) else 0
        cols = []
        for col, top in ((norm, last), (p, last), (label, 1)):
            col = np.asarray(col)
            if col.size and not (0 <= col.min() and col.max() <= top):
                col = np.where((0 <= col) & (col <= top), col, top + 1)
            cols.append(col.astype(np.int64))
        norm, p, label = cols
        if not len(self.norm):
            return np.full(len(norm), -1)
        # a norm past the end, or a label past the rows, wraps to some row, whose checks reject it
        i = (np.searchsorted(self.norm, norm) + label) % len(self.norm)
        kind = self.kind[i]
        norm_of_p = np.where(kind == _INERT, p * p, p)
        return np.where((self.norm[i] == norm) & (label == (kind == _SECOND)) & (norm_of_p == norm), i, -1)


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


def _pow_quad_lanes(a, b, e, p, s: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with u + v T = (a + b T)^e in F_p[T]/(T^2 - s T - c), as int64 lanes.

    For 0 <= a, b < p, e >= 0, p prime <= TABLE_MAX_X, s <= 1 and c <= 24 (every
    supported field): the uint64 sums stay below 2^64, six reductions a bit.
    """
    a, b, e, p, s, c = (np.asarray(t, dtype=np.uint64) for t in (a, b, e, p, s, c))
    u, v = np.ones_like(p), np.zeros_like(p)
    while e.any():
        odd, bv = e & 1 == 1, b * v % p
        u, v = np.where(odd, (a * u + c * bv) % p, u), np.where(odd, (a * v + b * u + s * bv) % p, v)
        bb = b * b % p
        a, b, e = (a * a + c * bb) % p, (2 * a * b + s * bb) % p, e >> 1
    return u.astype(np.int64), v.astype(np.int64)


@lru_cache(maxsize=1)
def _prime_table(K: QuadField, X: int) -> _PrimeTable:
    """The prime table of (K, X), built once with numpy; the last one is kept.

    The sieve gives the rational primes, and a lookup on p mod disc their
    class.  The table holds no Python object, and few temporaries of its
    length live at once.  X is refused before anything is allocated if
    p^2 could pass int64.
    """
    if X > TABLE_MAX_X:
        raise ValueError(f"the prime table needs X <= {TABLE_MAX_X} so that p^2 < 2^63, got {X}")
    p = primes_upto(X)
    if K.is_rational:  # (p) is the one prime above p
        kind = np.zeros(len(p), dtype=np.int8)
    else:
        cls = _class_of_residue(K)[p % K.disc]
        inert = p[(cls == _INERT) & (p <= math.isqrt(X))]
        # degree-one rows in p order: two rows for a split p, one for a ramified p
        rows = (cls == _SPLIT).astype(np.int8) + (cls != _INERT)
        p, kind = np.repeat(p, rows), np.repeat(cls, rows)
        del cls, rows  # free before the inert rows are merged in
        # inert rows, of norm p^2, merged in by norm
        at = np.searchsorted(p, inert * inert)
        p, kind = np.insert(p, at, inert), np.insert(kind, at, _INERT)
        kind[np.flatnonzero(p[1:] == p[:-1]) + 1] = _SECOND  # the label-1 row of each split p
    norm = p  # p becomes the norm in place
    norm[kind == _INERT] **= 2
    norm.flags.writeable = kind.flags.writeable = False
    return _PrimeTable(norm, kind)


# ======================================================================
# ideal factorizations
# ======================================================================


class IdealFactorization(NamedTuple):
    """An integral ideal: its norm and a sorted tuple of (name of P, exponent > 0).

    The empty tuple is the unit ideal O_K.  Instances are canonical, so
    equality and hashing are structural.
    """

    norm: int
    factors: tuple[tuple[tuple[int, int, int], int], ...]
    field: QuadField

    def __repr__(self):
        return ideal_text(self.field, self.factors)


class _IdealTable(NamedTuple):
    """The integral ideals of norm <= X, each by its id: the rank of its key in _ideal_table.

    norm is each ideal's norm, which ascends with the id; id 0 is O_K.
    The key names an ideal only while the table is built.  The ideals are a
    tree: parent[m] is the id of m/P, of at most half m's norm, for P the
    last prime of m, at prime-table row last[m]; O_K is its own parent, at
    last -1.  prime_id is the id of each prime row.  Each divisor pair {a,
    b}, N(a) N(b) <= X, is kept once.  The pairs a < b are sorted by the id
    of ab, those of id m at start[m]:start[m + 1], and every id but O_K has
    (O_K, m).  The pairs (d, d) are those of the ids d < len(square), and
    square[d] is the id of d^2.  No id has more than `divisors` ordered
    pairs (a, b).  All arrays but norm and prime_id are int32, all read-only.
    """

    norm: np.ndarray
    parent: np.ndarray
    last: np.ndarray
    prime_id: np.ndarray
    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    square: np.ndarray
    divisors: int


@lru_cache(maxsize=4)
def _ideal_table(K: QuadField, X: int) -> _IdealTable:
    """The ideal table of (K, X), built once in numpy; the last four are kept.

    The ideals are found level by level, by their count of prime factors:
    an ideal m whose last row is r is the parent of m P_i, of last row i,
    for the rows i >= r with N(m) N(P_i) <= X, so each ideal is found once.
    The key N(m) X + s(m), where s(m) is the product of N(P)^e over the
    P^e || m with root_label 1, names m: N(m) fixes every exponent but how
    e_0 + e_1 is shared at a split p, and s(m) fixes e_1.  It is
    multiplicative, key(ab) = N(a) N(b) X + s(a) s(b), and as 1 <= s <= N
    <= X <= TABLE_MAX_X, it is below 2^63 and ascends with the norm.  The
    key lives only in the build: the table keeps its ranks, the ids.  The
    id of ab is found from key(ab) a chunk of pairs a < b at a time, so no
    key array spans the pairs.
    """
    if X < 1:
        raise ValueError(f"the cutoff must be >= 1, got {X}")
    P = _prime_table(K, X)
    s_of = np.where(P.kind == _SECOND, P.norm, 1)  # the s of each prime: N(P) at root_label 1
    norm, s, up, last = np.array([[1], [1], [0], [0]])  # level 0: O_K, its own parent, from row 0 on
    levels, base = [], 0  # base: the index of the level's first ideal in all levels
    while len(norm):
        levels.append((norm, s, up, last))
        fits = np.maximum(np.searchsorted(P.norm, X // norm, side="right") - last, 0)
        up = np.repeat(np.arange(len(norm)), fits)
        last = last[up] + np.arange(len(up)) - np.repeat(np.cumsum(fits) - fits, fits)
        norm, s, up, base = norm[up] * P.norm[last], s[up] * s_of[last], up + base, base + len(norm)
    norm, s, up, last = map(np.concatenate, zip(*levels))
    del levels  # freed before the sort by key
    last[0] = -1  # O_K has no last row
    key = norm * X + s
    canon = np.argsort(key)  # an ideal's id is the rank of its key
    rank = np.empty_like(canon)
    rank[canon] = np.arange(len(canon))
    parent, last = rank[up[canon]].astype(np.int32), last[canon].astype(np.int32)
    key, norm, s = key[canon], norm[canon], s[canon]
    del up, rank, canon  # freed before the pair stage
    prime_id = np.searchsorted(key, P.norm * X + s_of)
    # a < b gives N(a)^2 <= N(a) N(b) <= X, so a is one of the k ids d of the pairs (d, d)
    k = np.searchsorted(norm, math.isqrt(X), side="right")
    square = np.searchsorted(key, norm[:k] ** 2 * X + s[:k] ** 2).astype(np.int32)
    per_a = np.searchsorted(norm, X // norm[:k], side="right") - np.arange(1, k + 1)  # the b > a
    a = np.repeat(np.arange(k, dtype=np.int32), per_a)
    first = (np.cumsum(per_a) - per_a).astype(np.int32)  # the index of the first pair of each a
    b = a + 1 + (np.arange(len(a), dtype=np.int32) - np.repeat(first, per_a))
    ab = np.empty(len(a), np.int32)
    for lo in range(0, len(a), _LANES):  # the keys of ab, a chunk at a time
        i, j = a[lo : lo + _LANES], b[lo : lo + _LANES]
        ab[lo : lo + _LANES] = np.searchsorted(key, norm[i] * norm[j] * X + s[i] * s[j])
    del key, s  # freed before the sort by the id of ab
    count, order = np.bincount(ab, minlength=len(norm)), np.argsort(ab, kind="stable")
    a[:] = a[order]  # in place, as the loop's last i and j still view a and b
    b[:] = b[order]
    start = np.concatenate(([0], np.cumsum(count))).astype(np.int32)
    divisors = int(max(2 * count.max(), 2 * count[square].max() + 1))  # a square has one more
    cols = (norm, parent, last, prime_id, a, b, start, square)
    for c in cols:
        c.flags.writeable = False
    return _IdealTable(*cols, divisors)


@lru_cache(maxsize=4)
def _ideal_objects(K: QuadField, X: int) -> tuple[tuple[IdealFactorization, ...], dict]:
    """The IdealFactorization of each id of the ideal table of (K, X), and the id of each.

    Built once, for the coeffs view of a formal series.
    """
    T = _ideal_table(K, X)
    primes = list(zip(*_prime_table(K, X).names(slice(None))))
    factors, last = [()], T.last.tolist()
    for up, r in zip(T.parent.tolist()[1:], last[1:]):  # a parent's factors, with one more P
        f = factors[up]
        factors.append(f[:-1] + ((primes[r], f[-1][1] + 1),) if last[up] == r else f + ((primes[r], 1),))
    ideals = tuple(map(IdealFactorization, T.norm.tolist(), factors, repeat(K)))
    return ideals, {m: i for i, m in enumerate(ideals)}


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


def _norm(K: QuadField, x: int, y: int) -> int:
    """N(x + y*w): x over Q, and x^2 + s x y - c y^2 where w^2 = s*w + c."""
    if K.is_rational:
        return x
    s, c = K.omega_square()
    return x * x + s * x * y - c * y * y


def factorable_tau(K: QuadField, tau) -> tuple[tuple[int, int], str]:
    """tau's omega-coordinates (x, y), tau = x + y*w, and its text, if
    factor_principal_ideal takes it: a totally positive algebraic integer
    with |N(tau)| <= MAX_TAU_NORM.

    tau is a rational a or a pair (a, b) for a + b*sqrt(d), each an int or a
    Fraction; over Q, b folds into a.  The text is a, or a+b*sqrt(d) where
    b is not 0, each part as str writes it.  The commands call this before
    any work that does not need tau.
    """
    a, b = tau if isinstance(tau, tuple) else (tau, 0)
    if K.is_rational:
        a, b = a + b, 0
    text = f"{a}+{b}*sqrt({K.d})" if b else str(a)
    x, y = (a - b, 2 * b) if K.d % 4 == 1 else (a, b)
    if x.denominator != 1 or y.denominator != 1:
        raise HilbertSignsError(f"{text} is not an algebraic integer of {K}")
    # a + b*sqrt(d) > 0 under both embeddings  <=>  a > 0 and a^2 > d*b^2
    if not (a > 0 and a * a > K.d * b * b):
        raise HilbertSignsError(f"{text} is not totally positive")
    x, y = int(x), int(y)
    if (n := abs(_norm(K, x, y))) > MAX_TAU_NORM:
        raise HilbertSignsError(f"|N({text})| = {n} exceeds {MAX_TAU_NORM}, too large to factor")
    return (x, y), text


def factor_principal_ideal(K: QuadField, tau) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """The prime factorization of tau*O_K, as (name, exponent) pairs ascending in name.

    tau must pass factorable_tau.  A prime above a split p is told by the
    root-free rule of the module docstring.
    """
    (x, y), _ = factorable_tau(K, tau)
    pairs = []
    for p, e in _factor_int(abs(_norm(K, x, y))).items():
        above = _names_above(K, p)
        if len(above) == 1:  # alone above p: of norm p, or p^2 at an inert p
            pairs.append((above[0], e if above[0][0] == p else e // 2))
            continue
        x1, y1, v = x, y, 0  # tau = p^v (x1 + y1 w), where p does not divide both x1 and y1
        while x1 % p == 0 and y1 % p == 0:
            x1, y1, v = x1 // p, y1 // p, v + 1
        exps = [v, v]
        if e > 2 * v:  # x1 + y1 w lies in the prime with root r, label 1 iff r is the larger root
            r = -x1 * pow(y1, -1, p) % p
            exps[r > (K.omega_square()[0] - r) % p] += e - 2 * v
        pairs += [(P, k) for P, k in zip(above, exps) if k]
    return tuple(sorted(pairs))
