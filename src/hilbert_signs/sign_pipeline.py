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
character and the norms per chunk of _LANES rows, never copying one
whole, and decides each good lane by one expression:
the sign of c_num N - chi c_den, and B(P) = (c_num N / c_den) / (2 sqrt(N)).
One test, _int64_rows, keeps a row in int64 lanes: its values must be
within +-(2^63 - 1), compared as integers.  Every other row runs in
Python ints, on its own, while the rest of its chunk stays in int64.  The
gate also takes to Python ints the few rows its float filter cannot
decide, and the survey a lane whose |c_num| N or c_den passes 2^53, so
that in int64 the difference is exact and both terms are exact floats.
Signs are exact either way, and each coordinate is correctly rounded,
the same bits on both routes.

Counting conventions.  The denominator of every density cli reports is the
number of ALL prime ideals of norm <= x; the numerator sets (positive,
negative, zero) run over good primes only, i.e. primes off the
character's bad set.  The survey therefore also counts the bad primes,
and pos + neg + zero + bad = total.

The tail inequality pi_{>0}(x) + pi(1/(4 eps^2)) >= #{good P : N(P) <= x,
B(P) > eps} holds by construction: a good P with B(P) > eps either has
N(P) <= 1/(4 eps^2), or c(P) > 2 eps / sqrt(N(P)) > 1/N(P) >= chi(P)/N(P),
so lambda(P) > 0.  It therefore only checks that the signs agree with the
coefficients, and it lives with the tests (tests/oracles.py).
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .characters import IdealCharacter
from .errors import HilbertSignsError
from .field_arith import QuadField, _LANES, _prime_table, _row_text, ideal_text

# ======================================================================
# eigenvalue containers
# ======================================================================


def _int64_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c in int64 lanes, 0 at the rows whose value is not within +-(2^63 - 1), and the mask of the other rows.

    An int64 c is read as it is.  An object c is compared with +-2^63 as
    Python ints, so the mask is exact, and the rows it holds are cast.
    This is the one test by which the gate and the survey keep a row in
    int64 lanes or send it to _python_ints.
    """
    if c.dtype == np.int64:
        return c, c != -(2**63)
    fits = (c < 2**63) & (c > -(2**63))
    return np.where(fits, c, 0).astype(np.int64), fits


def _python_ints(*cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """The given rows of each column as Python ints: the one step by which a row leaves int64 lanes."""
    return tuple(c.astype(object) for c in cols)


def _hasse_columns(label: str, name, norm, num, den) -> tuple[np.ndarray, np.ndarray]:
    """num/den at each prime (of norm N), both negated where den < 0, or 0/0 where both are 0.

    The gate does not reduce: a row keeps its rational with den > 0.  A
    chunk of _LANES rows at a time, each row is checked against num^2 N <=
    4 den^2, so the first row over the bound is the one named, by the text
    name(i); a row num/0 with num != 0 is over every bound, and is refused
    as a ValueError.  A row that _int64_rows keeps in int64 lanes is signed
    there and checked in floats, whose num^2 N and 4 den^2 are within a
    factor 1 +- 2^-50 of the exact ones; Python ints decide the rows the
    floats put within 2^-40 of the bound, and sign and check the rows past
    int64, those rows alone.
    Each chunk is written into its rows of two preallocated int64 columns,
    and the rows past int64 after the last chunk.  The columns come back
    read-only: int64 where _int64_rows fits every value, else Python ints.
    """
    norm, num, den = (c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in (norm, num, den))
    cols = [np.empty(len(norm), dtype=np.int64) for _ in range(2)]
    wide = []  # (rows, num, den) of the rows past int64, in Python ints
    for lo in range(0, len(norm), _LANES):
        N, a, b = (c[lo : lo + _LANES] for c in (norm, num, den))
        (x, fa), (y, fb) = _int64_rows(a), _int64_rows(b)
        s = np.where(y < 0, -1, 1)  # not sign(y): num/0 keeps its num, and fails the check
        x, y = x * s, y * s  # exact: |x| and |y| <= 2^63 - 1 where they fit
        past = ~(fa & fb)
        xf, yf = x.astype(np.float64), y.astype(np.float64)
        check = np.flatnonzero(past | (xf * xf * N.astype(np.float64) > 4.0 * yf * yf * (1 - 2.0**-40)))
        A, B, M = _python_ints(a[check], b[check], N[check])
        s = np.where(B < 0, -1, 1)
        A, B = A * s, B * s
        if (over := check[A * A * M > 4 * B * B]).size:
            i = over.min()
            j = np.searchsorted(check, i)
            if not B[j]:
                raise ValueError(f"{label}: c({name(lo + i)}) = {A[j]}/0 has a zero denominator")
            c = Fraction(int(A[j]), int(B[j]))
            raise HilbertSignsError(f"{label}: |c({name(lo + i)})| = |{c}| exceeds 2/sqrt({N[i]})")
        cols[0][lo : lo + len(N)], cols[1][lo : lo + len(N)] = x, y
        if (w := past[check]).any():
            wide.append((lo + check[w], A[w], B[w]))
    if wide:
        rows, *values = (np.concatenate(c) for c in zip(*wide))
        for k, v in enumerate(values):
            if not _int64_rows(v)[1].all():
                cols[k] = cols[k].astype(object)
            cols[k][rows] = v
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
    (field, x): c(P) = num / den at the row of P, with den > 0, and num ==
    den == 0 where P has no coefficient.  A column is int64 if _int64_rows
    fits every value in it, else Python ints.  The constructor, the one
    Hasse gate, keeps each pair as given, not reduced, with both negated
    where den < 0; it enforces |c(P)| <= 2 N(P)^{-1/2} (checked exactly as
    num^2 N <= 4 den^2) and even weights >= 2, and refuses a num/0 with
    num != 0 as a ValueError that names its row.
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
        """A read-only {name of P: Fraction} view of the rows with a coefficient, built on each read."""
        rows = np.flatnonzero(self.den)
        names = zip(*_prime_table(self.field, self.x).names(rows))
        fractions = map(Fraction, self.num[rows].tolist(), self.den[rows].tolist())
        return MappingProxyType(dict(zip(names, fractions)))


# ======================================================================
# signs and coordinates, a chunk of lanes at a time
# ======================================================================


def _sign_lanes(num: np.ndarray, den: np.ndarray, chi: np.ndarray, norms: np.ndarray):
    """sign(c - chi/N) and B = c sqrt(N) / 2 at every good lane (chi != 0), as int8 and float64.

    The rows are taken _LANES at a time, sliced so that no column is copied
    whole, and each chunk's good lanes are written after the previous
    chunk's.  With t = c_num N, a lane takes sign(t - chi c_den) and (t /
    c_den) / (2 sqrt(N)) in int64 if |t| and c_den are at most 2^53, and
    in Python ints otherwise, that lane alone.  Float division of exact
    floats and Python int true division are both correctly rounded, so B
    is the same bits on either route.
    """
    signs = np.empty(np.count_nonzero(chi), dtype=np.int8)
    coords = np.empty(len(signs), dtype=np.float64)
    lo = 0
    for r in range(0, len(chi), _LANES):
        good = chi[r : r + _LANES] != 0
        N, d, c, x = (col[r : r + _LANES][good] for col in (norms, den, num, chi))
        hi = lo + len(N)
        (a, fa), (b, fb) = _int64_rows(c), _int64_rows(d)
        top = 2**53 // N  # |c_num| N <= 2^53 iff |c_num| <= top
        exact = fa & fb & (-top <= a) & (a <= top) & (b <= 2**53)
        t, b = np.where(exact, a, 0) * N, np.where(exact, b, 1)
        signs[lo:hi] = np.sign(t - x * b)
        coords[lo:hi] = t / b / (2.0 * np.sqrt(N.astype(np.float64)))
        if (wide := np.flatnonzero(~exact)).size:
            a, b, M = _python_ints(c[wide], d[wide], N[wide])
            t = a * M
            signs[lo + wide] = np.sign(t - x[wide] * b)
            coords[lo + wide] = t / b / (2.0 * np.sqrt(N[wide].astype(np.float64)))
        lo = hi
    return signs, coords


# ======================================================================
# surveys
# ======================================================================


class SignSurvey:
    """Per-prime sign data for one (series, tau, psi) triple at the series' cutoff x = E.x.

    Signs are decided exactly at construction time; the survey keeps the
    character, and the signs and coordinates of the good primes in row
    order, not the coefficients.  It is also the tally: pos, neg and zero
    count the good primes by sign, bad the primes of the character's bad
    set, and total all primes of norm <= x.  tau is tau's text, and a_ideal
    the text of the ideal a with tau*O_K = a^2 r, r squarefree.
    """

    def __init__(self, E: EigenvalueSeries, tau, psi=None):
        self.x = E.x
        self.chi = IdealCharacter.from_tau(E.field, tau, psi_table=psi, level_support=E.level_support)
        self.tau = self.chi.tau
        self.a_ideal = ideal_text(E.field, [(P, e // 2) for P, e in self.chi.tau_ideal if e > 1])
        chi = self.chi.values_upto(self.x)
        empty = np.flatnonzero(E.den == 0)
        if (gaps := empty[chi[empty] != 0]).size:
            raise HilbertSignsError(f"{E.label}: no coefficient at good prime {_row_text(E.field, self.x, gaps[0])}")
        self.total = len(chi)
        self.signs, self.coords = _sign_lanes(E.num, E.den, chi, _prime_table(E.field, self.x).norm)
        self.pos = int(np.count_nonzero(self.signs > 0))
        self.neg = int(np.count_nonzero(self.signs < 0))
        self.zero = len(self.signs) - self.pos - self.neg
        self.bad = self.total - len(self.signs)
