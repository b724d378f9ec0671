"""From ideal-indexed coefficient data to exact sign statistics.

For a primitive coefficient family c(P) (normalized so c(O_K) = 1 is
scaled out) and the quadratic ideal character chi = psi * eps_tau, the
reconstructed eigenvalue at a good prime is

    lambda(P) = c(P) - chi(P)/N(P),

and its sign is decided exactly, in integers; floats appear only
in the Sato-Tate coordinate B(P) = c(P) sqrt(N(P)) / 2 used for
distribution statistics, never in sign decisions.

The pipeline runs a chunk of _LANES numpy lanes at a time.  The Hasse
bound is checked once, as a series' integer columns are built, each chunk
written into preallocated columns.  The survey slices those columns, the
character and the norms per chunk of good primes, never copying one
whole, and decides a chunk by one expression:
the sign of c_num N - chi c_den, and B(P) = (c_num N / c_den) / (2 sqrt(N)).
A chunk runs in int64 when every |c_num| N and c_den in it is at most
2^53, where the difference is exact in int64 and both terms are exact
floats; any other chunk runs in Python ints.  Signs are exact either way,
and each coordinate is correctly rounded, the same bits on both dtypes.

Counting conventions.  The denominator of every density cli reports is the
number of ALL prime ideals of norm <= x; the numerator sets (positive,
negative, zero) run over good primes only, i.e. primes off the
character's bad set.  The tally therefore also reports the bad count, and
pos + neg + zero + bad = total.

The tail inequality pi_{>0}(x) + pi(1/(4 eps^2)) >= #{good P : N(P) <= x,
B(P) > eps} holds by construction: a good P with B(P) > eps either has
N(P) <= 1/(4 eps^2), or c(P) > 2 eps / sqrt(N(P)) > 1/N(P) >= chi(P)/N(P),
so lambda(P) > 0.  It therefore only checks that the signs agree with the
coefficients, and it lives with the tests (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .characters import IdealCharacter
from .errors import HilbertSignsError
from .field_arith import QuadField, _LANES, _absmax, _lanes, _prime_ideals, _prime_table, _row_text, ideal_text

# ======================================================================
# eigenvalue containers
# ======================================================================


def _reduce(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a/b in lowest terms with b > 0 (0/0 stays), in the dtype of a and b."""
    g = np.maximum(np.gcd(a, b), 1) * (1 - 2 * (b < 0))
    return a // g, b // g


def _floats(c: np.ndarray) -> np.ndarray:
    try:
        return c.astype(np.float64)
    except OverflowError:  # an integer past the float range; only its size is read
        return np.clip(c, -(2**64), 2**64).astype(np.float64)


def _merge(n: int, i: np.ndarray, x: np.ndarray, j: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x at rows i and y at rows j of one column, in int64 if _lanes allows."""
    c = np.empty(n, dtype=_lanes(max(_absmax(x), _absmax(y))))
    c[i], c[j] = x, y
    return c


def _hasse_columns(label: str, name, norm, num, den) -> tuple[np.ndarray, np.ndarray]:
    """num/den at each prime (of norm N) in lowest terms with den > 0, or 0/0 where den is 0.

    A chunk of _LANES rows at a time, each row is reduced and checked
    against num^2 N <= 4 den^2, so the first row over the bound is the one
    named, by the text name(i).  Rows with |num| and |den| below 2^62 are
    reduced in int64 and checked in floats, whose num^2 N and 4 den^2 are
    within a factor 1 +- 2^-50 of the exact ones; Python ints decide the
    rows the floats put within 2^-40 of the bound, and reduce and check the
    others.
    Each chunk is written into its rows of two preallocated columns.  They
    come back read-only: int64 where _lanes allows, else Python ints, to
    which a column moves once, at the first chunk that needs them.
    """
    if not isinstance(norm, np.ndarray):
        norm = np.array(norm, dtype=object)
    cols = [np.empty(len(norm), dtype=np.int64) for _ in range(2)]
    for lo in range(0, len(norm), _LANES):
        N, a, b = (c[lo : lo + _LANES] for c in (norm, num, den))
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype == np.int64):
            a, b = np.array(a, dtype=object), np.array(b, dtype=object)
        af, bf = _floats(a), _floats(b)
        small = (np.abs(af) < 2.0**62) & (np.abs(bf) < 2.0**62)
        fast, slow = np.flatnonzero(small), np.flatnonzero(~small)
        af, bf, Nf = af[fast], bf[fast], _floats(N[fast])
        check = np.concatenate([fast[af * af * Nf > 4.0 * bf * bf * (1 - 2.0**-40)], slow])
        x, y = _reduce(a[fast].astype(np.int64, copy=False), b[fast].astype(np.int64, copy=False))
        if slow.size:  # one dtype per chunk and column, by _lanes
            x, y = (
                _merge(len(N), fast, f, slow, s)
                for f, s in zip((x, y), _reduce(a[slow].astype(object), b[slow].astype(object)))
            )
        A, B = x[check].astype(object), y[check].astype(object)
        if (over := check[A * A * N[check].astype(object) > 4 * B * B]).size:
            i = over.min()
            c = Fraction(int(x[i]), int(y[i]))
            raise HilbertSignsError(f"{label}: |c({name(lo + i)})| = |{c}| exceeds 2/sqrt({N[i]})")
        for k, c in enumerate((x, y)):
            if c.dtype == object and cols[k].dtype != object:
                cols[k] = cols[k].astype(object)
            cols[k][lo : lo + len(N)] = c
    for c in cols:
        c.flags.writeable = False
    return tuple(cols)


def _even_weights(weight) -> tuple:
    """weight as a tuple, if it is nonempty and every weight is an even integer >= 2."""
    weight = tuple(weight)
    if not weight or any(k < 2 or k % 2 for k in weight):
        raise HilbertSignsError(f"weights must be even integers >= 2, got {weight}")
    return weight


class EigenvalueSeries:
    """Coefficients c(P) of one form, with weight and level bookkeeping.

    num and den are read-only integer columns aligned to the prime table of
    (field, x): c(P) = num / den at the row of P, and den == 0 where P has
    no coefficient.  The constructor, the one Hasse gate, reduces each
    pair to lowest terms with den > 0, enforces |c(P)| <= 2 N(P)^{-1/2}
    (checked exactly as num^2 N <= 4 den^2) and even weights >= 2.
    """

    def __init__(self, field: QuadField, weight, label: str, x: int, num, den, level_support=()):
        self.field = field
        self.weight = _even_weights(weight)
        self.label = str(label)
        self.x = int(x)
        self.level_support = frozenset(level_support)
        T = _prime_table(field, self.x)
        if not len(num) == len(den) == len(T.norm):
            raise ValueError(f"columns of {len(num)} and {len(den)} rows, for {len(T.norm)} primes")
        self.num, self.den = _hasse_columns(self.label, lambda i: _row_text(field, self.x, i), T.norm, num, den)

    @property
    def entries(self) -> MappingProxyType:
        """A read-only {prime: Fraction} view of the rows with a coefficient, built on each read."""
        rows = np.flatnonzero(self.den)
        primes = _prime_ideals(self.field, self.x, rows)
        fractions = map(Fraction, self.num[rows].tolist(), self.den[rows].tolist())
        return MappingProxyType(dict(zip(primes, fractions)))


# ======================================================================
# signs and coordinates, a chunk of lanes at a time
# ======================================================================


def _sign_lanes(num: np.ndarray, den: np.ndarray, chi: np.ndarray, norms: np.ndarray):
    """sign(c - chi/N) and B = c sqrt(N) / 2 at every good lane (chi != 0), as int8 and float64.

    The good lanes are taken _LANES at a time, each chunk sliced from the
    rows that hold it less their bad rows, so no column is copied whole.
    With t = c_num N, a chunk takes sign(t - chi c_den) and (t / c_den) /
    (2 sqrt(N)) in one dtype: int64 if every |t| and c_den in it is at most
    2^53, else Python ints.  An int64 column forms t in int64 when the
    chunk's max |c_num| times its max N is below 2^63.  Float division of
    exact floats and Python int true division are both correctly rounded,
    so B is the same bits on either dtype.
    """
    bad = np.flatnonzero(chi == 0)
    before = bad - np.arange(len(bad))  # the good lanes before each bad row
    signs = np.empty(len(chi) - len(bad), dtype=np.int8)
    coords = np.empty(len(signs), dtype=np.float64)
    for lo in range(0, len(signs), _LANES):
        hi = min(lo + _LANES, len(signs))
        # good lane g sits at row g plus the bad rows before it, so rows r0:r1 hold lanes lo:hi
        r0, r1 = np.searchsorted(before, [lo, hi], side="right") + [lo, hi]
        good = chi[r0:r1] != 0
        N, d, c, x = (col[r0:r1][good] for col in (norms, den, num, chi))
        if c.dtype != object and _absmax(c) * _absmax(N) >= 2**63:
            c = c.astype(object)  # some c_num N could pass int64
        t = c * N
        lanes = _lanes(max(_absmax(t), _absmax(d)), 2**53)
        t, d = t.astype(lanes), d.astype(lanes)
        signs[lo:hi] = np.sign(t - x * d)
        coords[lo:hi] = t / d / (2.0 * np.sqrt(N.astype(np.float64)))
    return signs, coords


# ======================================================================
# surveys and tallies
# ======================================================================


@dataclass(frozen=True)
class SignTally:
    """Sign counts at cutoff x over good primes; total counts all primes.

    tau is tau's text, and a_ideal the text of the ideal a with tau*O_K =
    a^2 r, r squarefree.
    """

    x: int
    tau: str
    a_ideal: str
    pos: int
    neg: int
    zero: int
    bad: int
    total: int


class SignSurvey:
    """Per-prime sign data for one (series, tau, psi) triple up to x.

    Built once, then queried at any cutoff <= x.  Signs are decided
    exactly at construction time; the survey keeps the signs and the
    coordinates of the good primes and the rows of the few bad ones, not
    the coefficients.
    """

    def __init__(self, E: EigenvalueSeries, tau, psi=None, *, x: int):
        self.x = int(x)
        self.chi = IdealCharacter.from_tau(E.field, tau, psi_table=psi, level_support=E.level_support)
        self.a_ideal = ideal_text(E.field, [(P, e // 2) for P, e in self.chi.tau_ideal if e > 1])
        T = _prime_table(E.field, self.x)
        chi = self.chi.values_upto(self.x)
        # a cutoff below E.x reads a prefix of the columns; past E.x no row is held
        n = min(len(T.norm), len(E.den))
        empty = np.flatnonzero(E.den[:n] == 0)
        gaps = np.concatenate([empty[chi[empty] != 0], n + np.flatnonzero(chi[n:])])
        if gaps.size:
            raise HilbertSignsError(f"{E.label}: no coefficient at good prime {_row_text(E.field, self.x, gaps.min())}")
        self.all_norms = T.norm
        self.bad_rows = np.flatnonzero(chi == 0)
        self.signs, self.coords = _sign_lanes(E.num[:n], E.den[:n], chi[:n], T.norm[:n])

    def tally(self, x: int | None = None) -> SignTally:
        x = self.x if x is None else int(x)
        if x > self.x:
            raise ValueError(f"survey only extends to {self.x}, asked for {x}")
        total = int(np.searchsorted(self.all_norms, x, side="right"))
        ngood = total - int(np.searchsorted(self.bad_rows, total))
        s = self.signs[:ngood]
        pos = int(np.count_nonzero(s > 0))
        neg = int(np.count_nonzero(s < 0))
        zero = ngood - pos - neg
        return SignTally(
            x=x,
            tau=self.chi.tau,
            a_ideal=self.a_ideal,
            pos=pos,
            neg=neg,
            zero=zero,
            bad=total - ngood,
            total=total,
        )
