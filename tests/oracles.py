"""Independent oracles shared by the test modules.

euler_factor_inverse expands one Euler factor term by term, so the
one-pass product series of formal_series can be checked against the
iterated product of these factors.

DictSeries is the dictionary implementation of formal series that the
library's id-table series replaced: Fraction coefficients keyed by
IdealFactorization, a product that merges factor tuples pair by pair, and
Euler series built by a recursion over norm-sorted primes.  It shares no
code with formal_series beyond the ideal types, so the two are compared
term by term.  series_from_dict builds a library series from the same
kind of {ideal: rational} dict, by placing each N-twisted numerator at
the ideal's id.

The semicircle interval mass is recomputed here by Gauss-Legendre
quadrature after the substitution t = sin(theta), which turns the
integrand into cos^2(theta): analytic on the whole interval, so 64 nodes
converge far below 1e-13.  No code path is shared with the library's
closed-form expression.

lambda_sign and sato_tate_coordinate decide one prime's sign and
coordinate in Python ints: the scalar references for the survey's
chunked numpy kernel.  enumerate_prime_ideals splits one rational prime
at a time, the reference for the library's prime table, and value_at is
the one-prime reference for the character's values over that table,
identity the unit formal
series, and series_from_entries builds an EigenvalueSeries from a
{prime: rational} dict, for the tests that write coefficients prime by
prime.  prime_residual is the one-prime Fraction reference
for the library's all-primes residual array, and tail_inequality decides
both sides of the tail inequality that the survey satisfies by
construction (see the sign_pipeline docstring), at any cutoff up to the
survey's, so it checks the survey's signs against its coefficients.
quadratic_residue_symbol and save_fixture give the tests the symbol of
one element and a fixture file on disk.

hasse_columns_by_row is the Hasse gate row by row in Fractions, the
reference for the gate's int64 rows, float prefilter and Python-int rows.
semicircle_ppf_halving is the sampler's definition, 64 halvings of
[-1, 1] with every lane evaluated at every halving: the reference for the
sampler, which skips the halvings a certified window decides.
ks_statistic_whole is the KS distance taken over the whole sorted sample
at once, the reference for the library's per-chunk D+ and D-.

series_to_obj, series_from_obj_by_entry and load_psi_table_by_entry are
the document code that eigen_io's column reader and row-template writer
replaced: a dict per entry, dumped by the JSON encoder, and an
entry-by-entry decoder that checks each entry's fields, then its name
and any repeat, in entry order.  Each name is checked on its own by
resolve_by_split, so the references share with the library only the
header checks, the text of a name and the Hasse gate.  The tests require
the same bytes, and the same value or the same exception and message.

_euler_symbol is the one-prime Euler criterion that the character's
int64 lanes replaced: in F_p at a degree-one prime, and by _fp2_pow in
F_{p^2} at an inert one, where the lanes take the Legendre symbol of the
norm instead.  It raises EvenCharacteristic in characteristic 2.

point_add, point_mul, hasse_traces and scalar_ap_bsgs are the one-prime,
Python-int baby-step giant-step that the library's int64 lane kernel
replaced: affine points with a modular inverse per group operation, and a
dict of baby steps.  The tests compare the lanes with them point by point.

FieldElement, PrimeIdeal, Splitting, split_rational_prime and
factor_principal_ideal are the scalar route and the object model that the
library's prime names replaced.  tau is a FieldElement of Fractions; a
PrimeIdeal holds its name (norm, p, root_label) as its first three
fields, then its residue degree, Splitting, root and field.
split_rational_prime finds the roots of the minimal polynomial of w mod p
by Tonelli-Shanks (the reference for the prime table's kinds and root
lanes), and factor_principal_ideal tells the two primes above a split p
by those roots, the reference for the library's root-free rule.
IdealFactorization here is the library's, its factors keyed by prime
name, with the algebra (from_pairs, a product, support, is_squarefree,
is_unit) that only the tests use and its text from prime_text, which
names a prime from its splitting: the reference for
field_arith.ideal_text.  squarefree_decompose splits f = a^2 r, and
resolve_by_split is eigen_io._resolve by splitting p, the reference for
its names and errors.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from hilbert_signs import field_arith
from hilbert_signs.curves import ap_symbol_sum
from hilbert_signs.eigen_io import SCHEMA_TAG, _header, serialize_series
from hilbert_signs.errors import HilbertSignsError
from hilbert_signs.field_arith import (
    _INERT,
    _RAMIFIED,
    QuadField,
    _class_of_residue,
    _factor_int,
    _ideal_objects,
    _ideal_table,
    _is_prime,
    _prime_table,
    factorable_tau,
    ideal_text,
    primes_upto,
)
from hilbert_signs.formal_series import FormalSeries
from hilbert_signs.sato_tate import _cdf_vec
from hilbert_signs.sign_pipeline import EigenvalueSeries, _hasse_columns

# Half-width of the band around eps inside which tail_inequality decides
# B(P) > eps from the exact coefficient instead of the float coordinate.
_CUTOFF_BAND = 1e-12

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


class Splitting(str, Enum):
    SPLIT_FIRST = "split_first"
    SPLIT_SECOND = "split_second"
    INERT = "inert"
    RAMIFIED = "ramified"


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
        return ideal_text(self.field, [(self[:3], 1)])


def quadrature_mass(a, b):
    """mu([a, b]) for the semicircle measure, independently of the library."""
    lo = np.arcsin(np.clip(np.asarray(a, dtype=np.float64), -1.0, 1.0))
    hi = np.arcsin(np.clip(np.asarray(b, dtype=np.float64), -1.0, 1.0))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    theta = mid[..., None] + half[..., None] * GL_NODES
    vals = np.cos(theta) ** 2 @ GL_WEIGHTS
    return (2.0 / np.pi) * half * vals


def semicircle_ppf_halving(u):
    """The sampler's definition: 64 halvings of [-1, 1], every lane evaluated every time."""
    u = np.asarray(u, dtype=np.float64)
    lo = np.full_like(u, -1.0)
    hi = np.ones_like(u)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _cdf_vec(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def ks_statistic_whole(samples):
    """max(D+, D-) of samples against the semicircle CDF, over the whole sorted array at once."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    F = _cdf_vec(s)
    i = np.arange(1, n + 1, dtype=np.float64)
    return max(float(np.max(i / n - F)), float(np.max(F - (i - 1.0) / n)))


def identity(K, X):
    """The unit series: 1 at the unit ideal and 0 at every other ideal of norm <= X."""
    return series_from_dict(K, X, {IdealFactorization(1, (), K): Fraction(1)})


def euler_factor_inverse(P, u, X):
    """(1 - u M(P))^{-1} truncated at X: sum of u^k M(P^k) for N(P)^k <= X."""
    u = Fraction(u)
    coeffs = {IdealFactorization(1, (), P.field): Fraction(1)}
    norm_k, u_k, k = P.norm, u, 1
    while norm_k <= X:
        coeffs[IdealFactorization.from_pairs(P.field, [(P, k)])] = u_k
        norm_k *= P.norm
        u_k *= u
        k += 1
    return series_from_dict(P.field, X, coeffs)


class DictSeries:
    """Finitely supported Fraction coefficients on ideals of norm <= cutoff."""

    def __init__(self, field, cutoff, coeffs=None):
        self.field = field
        self.cutoff = int(cutoff)
        self.coeffs = {}
        for m, v in (coeffs or {}).items():
            assert m.field == field and m.norm <= self.cutoff
            if Fraction(v):
                self.coeffs[IdealFactorization(*m)] = Fraction(v)

    def sorted_items(self):
        return [(m.norm, m, v) for m, v in sorted(self.coeffs.items())]

    def __eq__(self, other):
        return (self.field, self.cutoff, self.coeffs) == (other.field, other.cutoff, other.coeffs)


def series_from_dict(K, X, coeffs):
    """The FormalSeries of K up to X with these {ideal: rational} coefficients, as columns."""
    T, index = _ideal_table(K, X), _ideal_objects(K, X)[1]
    terms = {index[m]: Fraction(v) for m, v in coeffs.items()}
    den = math.lcm(*(v.denominator for v in terms.values()))
    num = np.zeros(len(T.norm), dtype=object)
    for i, v in terms.items():
        num[i] = den // v.denominator * v.numerator * int(T.norm[i])
    return FormalSeries(K, X, den, num)


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


def enumerate_prime_ideals(K, X):
    """All prime ideals of norm <= X, sorted by (norm, p, root_label), split one p at a time.

    The reference for the prime table: it shares no code with the table's
    numpy build beyond split_rational_prime.
    """
    above = (P for p in primes_upto(X).tolist() for P in split_rational_prime(K, p))
    return sorted(P for P in above if P.norm <= X)


def good_primes(chi, X):
    """Primes of norm <= X where chi does not vanish, in norm order."""
    return [P for P in enumerate_prime_ideals(chi.field, X) if P[:3] not in chi.bad_set]


class EvenCharacteristic(HilbertSignsError):
    """Quadratic residue symbol requested in a residue field of characteristic 2."""


def _fp2_pow(u: tuple[int, int], e: int, p: int, sq: tuple[int, int]) -> tuple[int, int]:
    """u^e in F_p[w]/(w^2 - s*w - c), elements as (x, y) = x + y*w."""
    s, c = sq
    rx, ry = 1, 0
    bx, by = u
    while e:
        if e & 1:
            # (rx + ry w)(bx + by w), reduced via w^2 = s w + c
            t = ry * by % p
            rx, ry = (rx * bx + c * t) % p, (rx * by + ry * bx + s * t) % p
        t = by * by % p
        bx, by = (bx * bx + c * t) % p, (2 * bx * by + s * t) % p
        e >>= 1
    return rx, ry


def _euler_symbol(x: int, y: int, P: PrimeIdeal) -> int:
    """Euler-criterion symbol of x + y*w in O_K/P, for integers x, y."""
    p = P.rational_prime
    if p == 2:
        raise EvenCharacteristic("no quadratic residue symbol in characteristic 2")
    if P.residue_degree == 1:
        t = pow((x + y * P.root) % p, (p - 1) // 2, p)
        return -1 if t == p - 1 else t
    x, y = x % p, y % p
    if x == 0 and y == 0:
        return 0
    rx, ry = _fp2_pow((x, y), (p * p - 1) // 2, p, P.field.omega_square())
    if (rx, ry) == (1, 0):
        return 1
    if (rx, ry) == (p - 1, 0):
        return -1
    raise ArithmeticError(f"Euler criterion did not land in {{-1,0,1}} at {P}")


def value_at(chi, P):
    """chi(P) in {-1, 0, +1} at one prime, zero exactly on the bad set: the
    scalar reference for IdealCharacter.values_upto."""
    assert P.field == chi.field, f"{P} is not a prime of {chi.field}"
    if P[:3] in chi.bad_set:
        return 0
    return chi.psi_table.get(P[:3], 1) * _euler_symbol(*chi.tau_omega, P)


def series_from_entries(K, weight, label, entries, x, level_support=()):
    """The EigenvalueSeries on the prime table of (K, x) holding a {prime: rational} dict.

    Every key must be a row of that table; rows without a key get no
    coefficient.
    """
    T = _prime_table(K, x)
    rows = T.lookup(*([P[i] for P in entries] for i in range(3))).tolist()
    assert min(rows, default=0) >= 0, "a key is not a row of the table"
    num, den = [0] * len(T.norm), [0] * len(T.norm)
    for j, c in zip(rows, map(Fraction, entries.values())):
        num[j], den[j] = c.numerator, c.denominator
    return EigenvalueSeries(K, weight, label, x, num, den, level_support)


def hasse_columns_by_row(label, name, norm, num, den):
    """The Hasse gate one row at a time in Fractions: the reference for _hasse_columns.

    Returns the rows as two lists, each row unreduced with num and den both
    negated where den < 0, and 0/0 where both are 0, or raises the gate's
    error at the first row over the bound or with num/0, num != 0.
    """
    nums, dens = [], []
    for i, (N, a, b) in enumerate(zip(norm, num, den)):
        a, b = int(a), int(b)
        if a and not b:
            raise ValueError(f"{label}: c({name(i)}) = {a}/0 has a zero denominator")
        c = Fraction(a, b) if b else Fraction(0)
        if c * c * int(N) > 4:
            raise HilbertSignsError(f"{label}: |c({name(i)})| = |{c}| exceeds 2/sqrt({N})")
        sign = (b > 0) - (b < 0)
        nums.append(sign * a)
        dens.append(sign * b)
    return nums, dens


def sato_tate_coordinate(c, norm):
    """B(P) = c(P) sqrt(N(P)) / 2 in [-1, 1], for rational c.

    The containment check is exact, in integers: with cN = num/den, (cN)^2
    <= 4N is num^2 <= 4N den^2.
    """
    num, den = c.numerator * norm, c.denominator
    if num * num > 4 * norm * den * den:
        raise HilbertSignsError(f"|c| = |{c}| exceeds 2/sqrt({norm})")
    # int true division is correctly rounded, like float() of the reduced Fraction
    return (num / den) / (2.0 * math.sqrt(float(norm)))


def lambda_sign(c, chi_p, norm):
    """sign(c(P) - chi(P)/N(P)), decided exactly as sign(c_num N - chi c_den)."""
    t = c.numerator * norm - chi_p * c.denominator
    return (t > 0) - (t < 0)


def prime_residual(c, lam, chi, P):
    """c(P) - chi(P)/N(P) - lam(P) at one good prime, in Fractions.

    c and lam are {ideal: coefficient} maps, such as the coeffs of two series.
    """
    idx = IdealFactorization.from_pairs(P.field, [(P, 1)])
    return c.get(idx, 0) - Fraction(value_at(chi, P), P.norm) - lam.get(idx, 0)


def tail_inequality(E, survey, x, epsilon):
    """(lhs, rhs) of the tail inequality at (x <= survey.x, eps) on a survey of E.

    rhs = #{good P : N(P) <= x, B(P) > eps}, for the exact value of eps:
    B(P) > eps is c(P) > 0 and c(P)^2 N(P) > 4 eps^2.  lhs = pi_{>0}(x) +
    pi(min(x, 1/(4 eps^2))); capping the pi term at x only shrinks lhs, and
    keeps every count inside the survey's table.  The primes of norm <= y
    are a prefix of the table's rows, and the good ones a prefix of the
    survey's signs and coordinates, short by the character's zero rows.
    """
    eps = Fraction(epsilon)
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if x > survey.x:
        raise ValueError(f"survey only extends to {survey.x}, asked for {x}")
    norms = _prime_table(E.field, survey.x).norm
    bad = np.flatnonzero(survey.chi.values_upto(survey.x) == 0)
    total = lambda y: int(np.searchsorted(norms, y, side="right"))  # noqa: E731
    good = total(x) - int(np.searchsorted(bad, total(x)))
    coords = survey.coords[:good]
    # Each coordinate takes three correctly rounded steps (float(cN), sqrt,
    # division), so it is within ~4e-16 of the true B in [-1, 1], and
    # float(eps) is within 1.2e-16 * eps of eps.  Outside the band the float
    # comparison therefore agrees with the exact one.
    e = float(eps)
    near = np.abs(coords - e) <= _CUTOFF_BAND
    rhs = int(np.count_nonzero((coords > e) & ~near))
    if near.any():
        primes, entries = good_primes(survey.chi, survey.x), E.entries
        for i in np.flatnonzero(near).tolist():
            c = entries[primes[i][:3]]
            rhs += c > 0 and c * c * primes[i].norm > 4 * eps * eps
    lhs = int(np.count_nonzero(survey.signs[:good] > 0)) + total(min(x, int(1 / (4 * eps * eps))))
    return lhs, rhs


def quadratic_residue_symbol(a, P):
    """Euler-criterion symbol of the integral element a in O_K/P: -1, 0 or +1."""
    x, y = as_element(P.field, a).omega_coords()
    assert x.denominator == y.denominator == 1, f"{a} is not integral"
    return _euler_symbol(int(x), int(y), P)


def series_to_obj(E):
    """E as an eigen-series document, each value in lowest terms: the object serialize_series writes."""
    keys = ("norm", "rational_prime", "root_label", "c_num", "c_den")
    rows = E.den.nonzero()[0]
    names = _prime_table(E.field, E.x).names(rows)
    c = list(map(Fraction, E.num[rows].tolist(), E.den[rows].tolist()))
    entries = [dict(zip(keys, v)) for v in zip(*names, (q.numerator for q in c), (q.denominator for q in c))]
    return {
        "format": SCHEMA_TAG,
        "d": E.field.d,
        "weight": list(E.weight),
        "label": E.label,
        "level_support": sorted(E.level_support),
        "entries": entries,
    }


def series_from_obj_by_entry(obj, x):
    """series_from_obj, one entry at a time: the reference for its series and its errors."""
    if not isinstance(obj, dict):
        raise HilbertSignsError("eigen-series document must be a JSON object")
    if obj.get("format") != SCHEMA_TAG:
        raise HilbertSignsError(f"unrecognized format tag {obj.get('format')!r}")
    for key in ("d", "weight", "label", "entries"):
        if key not in obj:
            raise HilbertSignsError(f"eigen-series document missing field {key!r}")
    level_support = obj.get("level_support", [])
    K = _header(obj["d"], obj["weight"], obj["label"], level_support)
    rows = obj["entries"]
    if type(rows) is not list:
        raise HilbertSignsError("eigen-series entries must be a JSON list")
    T, cells = _prime_table(K, x), []
    for i, row in enumerate(rows):
        try:
            norm, p, label = row["norm"], row["rational_prime"], row["root_label"]
            num, den = row["c_num"], row["c_den"]
        except (KeyError, TypeError) as e:
            raise HilbertSignsError(f"entry {i}: missing field ({e!r})") from e
        if not (type(norm) is type(p) is type(label) is type(num) is type(den) is int):
            raise HilbertSignsError(f"entry {i}: numeric fields must be JSON integers")
        if den == 0:
            raise HilbertSignsError(f"entry {i}: zero denominator")
        cells.append((norm, p, label, num, den))
    row_of = {P: j for j, P in enumerate(zip(*T.names(slice(None))))}
    nums, dens, seen = [0] * len(T.norm), [0] * len(T.norm), {}
    for i, (norm, p, label, num, den) in enumerate(cells):
        P = resolve_by_split(K, norm, p, label, f"entry {i}")
        first = seen.setdefault(P, (num, den))
        if first[0] * den != num * first[1]:
            raise HilbertSignsError(f"entry {i}: {ideal_text(K, [(P, 1)])} named again with another coefficient")
        if P in row_of:
            nums[row_of[P]], dens[row_of[P]] = first
    E = EigenvalueSeries(K, obj["weight"], obj["label"], x, nums, dens, level_support)
    past = sorted(P for P in seen if P not in row_of)
    nums, dens = [seen[P][0] for P in past], [seen[P][1] for P in past]
    _hasse_columns(E.label, lambda i: ideal_text(K, [(past[i], 1)]), [P[0] for P in past], nums, dens)
    return E


def load_psi_table_by_entry(K, source, x):
    """load_psi_table on a decoded list, one entry at a time: the reference for its table and errors."""
    if type(source) is not list:
        raise HilbertSignsError("psi table must be a JSON list of entries")
    names = []
    for i, entry in enumerate(source):
        try:
            norm, p, label = entry["prime_norm"], entry["rational_prime"], entry["root_label"]
            value = entry["value"]
        except (KeyError, TypeError) as e:
            raise HilbertSignsError(f"psi entry {i}: missing field ({e!r})") from e
        if not (type(norm) is type(p) is type(label) is type(value) is int):
            raise HilbertSignsError(f"psi entry {i}: numeric fields must be JSON integers")
        if value not in (-1, 1):
            raise HilbertSignsError(f"psi entry {i}: value must be +-1, got {value}")
        names.append((norm, p, label, value))
    table = {}
    for i, (norm, p, label, value) in enumerate(names):
        P = resolve_by_split(K, norm, p, label, f"psi entry {i}")
        if table.setdefault(P, value) != value:
            raise HilbertSignsError(f"psi entry {i}: {ideal_text(K, [(P, 1)])} named again with another value")
    return table


def save_fixture(E, path):
    """Write E as an eigen-series document, the file that --fixture reads."""
    Path(path).write_text("".join(serialize_series(E)))


def point_add(P, Q, a, p):
    """P + Q on y^2 = x^3 + a x + b over F_p (b is not needed); None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def point_mul(n, P, a, p):
    """[n]P for n >= 0, by double-and-add."""
    R = None
    while n:
        if n & 1:
            R = point_add(R, P, a, p)
        P = point_add(P, P, a, p)
        n >>= 1
    return R


def hasse_traces(P, a, p):
    """Every t with |t| <= 2 sqrt(p) and [p + 1 - t]P = O, by one-prime BSGS.

    Baby steps store [j]P for 0 <= j <= m; giant steps visit [n]P for
    n = lo + m, lo + 3m + 1, ..., each covering the group orders n - m..n + m.
    A baby match [n]P = [j]P gives s = -j and [n]P = -[j]P gives s = j; at
    y = 0 (O included) both hold.  A baby x-coordinate keeps every j that
    reaches it, since P may have small order.
    """
    bound = math.isqrt(4 * p)
    m = math.isqrt(bound) + 1
    baby = {}
    Q = None
    for j in range(m + 1):
        x, y = Q if Q is not None else (None, 0)
        baby.setdefault(x, []).append((j, y))
        Q = point_add(Q, P, a, p)
    step = point_add(Q, point_mul(m, P, a, p), a, p)  # [2m + 1]P
    lo, hi = p + 1 - bound, p + 1 + bound
    traces = set()
    n = lo + m
    G = point_mul(n, P, a, p)
    while n - m <= hi:
        x, y = G if G is not None else (None, 0)
        for j, yj in baby.get(x, ()):
            if yj == y:
                traces.add(p + 1 - (n - j))
            if (yj + y) % p == 0:
                traces.add(p + 1 - (n + j))
        G = point_add(G, step, a, p)
        n += 2 * m + 1
    return {t for t in traces if t * t <= 4 * p}


def scalar_ap_bsgs(E, p):
    """a_p for good p >= 5 from E and its twists, one x at a time, in Python ints.

    Each x with r = f(x) != 0 on the short model y^2 = x^3 + A x + B gives
    (r x, r^2) on the twist by r; chi(r) times its traces are intersected
    until one is left, and the symbol sum decides if the x run out.
    """
    b2, b4, b6, _ = E.b_invariants()
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    A, B = -27 * c4 % p, -54 * c6 % p
    candidates = None
    for x in range(p):
        r = (x * x * x + A * x + B) % p
        if r == 0:
            continue
        chi = 1 if pow(r, (p - 1) // 2, p) == 1 else -1
        found = {chi * t for t in hasse_traces((r * x % p, r * r % p), A * r * r % p, p)}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    return ap_symbol_sum(E, p)


# ----------------------------------------------------------------------
# the scalar route and the object model
# ----------------------------------------------------------------------


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
            raise ValueError(f"element of {tau.field} used in {K}")
        return tau
    if isinstance(tau, tuple):
        return element(K, *tau)
    return element(K, tau)


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


class IdealFactorization(field_arith.IdealFactorization):
    """The library's IdealFactorization with the algebra only the tests use.

    It equals and hashes as the library's ideal of the same fields, so
    either keys the same dict entry.
    """

    __slots__ = ()

    @classmethod
    def from_pairs(cls, K: QuadField, pairs) -> "IdealFactorization":
        """The ideal prod P^e over pairs of (PrimeIdeal or name of P, e), keyed by name."""
        merged: dict[tuple[int, int, int], int] = {}
        for P, e in pairs:
            if isinstance(P, PrimeIdeal) and P.field != K:
                raise ValueError(f"prime of {P.field} in ideal of {K}")
            if e:
                merged[tuple(P[:3])] = merged.get(tuple(P[:3]), 0) + e
        if any(e < 0 for e in merged.values()):
            raise ValueError("negative exponent: only integral ideals are supported")
        items = sorted((P, e) for P, e in merged.items() if e)
        return cls(math.prod(P[0] ** e for P, e in items), tuple(items), K)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def support(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(P for P, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __mul__(self, other: "IdealFactorization") -> "IdealFactorization":
        if self.field != other.field:
            raise ValueError("cannot multiply ideals of different fields")
        merged = dict(self.factors)
        for P, e in other.factors:
            merged[P] = merged.get(P, 0) + e
        return IdealFactorization(self.norm * other.norm, tuple(sorted(merged.items())), self.field)

    def __repr__(self):
        if self.is_unit:
            return "(1)"
        primes = [(split_rational_prime(self.field, p)[label], e) for (_, p, label), e in self.factors]
        return "*".join(f"{prime_text(P)}^{e}" if e > 1 else prime_text(P) for P, e in primes)


def prime_text(P: PrimeIdeal) -> str:
    """The text of a prime ideal from its splitting: the reference for field_arith.ideal_text."""
    if P.field.is_rational:
        return f"({P.rational_prime})"
    tag = {
        Splitting.SPLIT_FIRST: "a",
        Splitting.SPLIT_SECOND: "b",
        Splitting.INERT: "i",
        Splitting.RAMIFIED: "r",
    }[P.splitting]
    return f"P{P.rational_prime}{tag}"


def resolve_by_split(K: QuadField, norm: int, p: int, label: int, where: str) -> tuple[int, int, int]:
    """eigen_io._resolve by splitting p into its PrimeIdeals: the reference for its names and its errors."""
    if p >= 2**64:
        raise HilbertSignsError(f"{where}: rational prime {p} is not below 2^64")
    try:
        above = split_rational_prime(K, p)
    except ValueError as e:
        raise HilbertSignsError(f"{where}: {e}") from e
    if not 0 <= label < len(above):
        raise HilbertSignsError(f"{where}: no prime above {p} with root label {label} in {K}")
    if above[label].norm != norm:
        raise HilbertSignsError(f"{where}: no prime of norm {norm}, label {label} above {p} in {K}")
    return above[label][:3]


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """f = a^2 * r with r squarefree; both parts share f's field."""

    a: IdealFactorization
    r: IdealFactorization


def squarefree_decompose(f: IdealFactorization) -> SquarefreeDecomposition:
    """Split f = a^2 * r with squarefree r."""
    a = IdealFactorization.from_pairs(f.field, ((P, e // 2) for P, e in f.factors))
    r = IdealFactorization.from_pairs(f.field, ((P, e % 2) for P, e in f.factors))
    assert (a * a * r) == f and r.is_squarefree
    return SquarefreeDecomposition(a=a, r=r)


def factor_principal_ideal(K: QuadField, tau) -> IdealFactorization:
    """Factor the principal ideal tau*O_K into prime ideals, telling the primes above a split p by their roots.

    tau is refused as the library's factorable_tau refuses it.  The result
    is verified against |N(tau)| before being returned.
    """
    el = as_element(K, tau)
    factorable_tau(K, (el.a, el.b))
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
