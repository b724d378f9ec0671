"""From ideal-indexed coefficient data to exact sign statistics.

For a primitive coefficient family c(P) (normalized so c(O_K) = 1 is
scaled out) and the quadratic ideal character chi = psi * eps_tau, the
reconstructed eigenvalue at a good prime is

    lambda(P) = c(P) - chi(P)/N(P),

and its sign is decided exactly, in integers; floats appear only
in the Sato-Tate coordinate B(P) = c(P) sqrt(N(P)) / 2 used for
distribution statistics, never in sign decisions.

The Hasse bound is checked once, at ingestion.  The survey decides its
primes a chunk of numpy lanes at a time, by one expression per chunk:
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
from itertools import compress
from types import MappingProxyType

import numpy as np

from .characters import IdealCharacter
from .errors import HasseBoundViolated, MissingPrime, ValidationError
from .field_arith import (
    FieldElement,
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    _LANES,
    _absmax,
    _lanes,
    _prime_table,
    as_element,
    squarefree_decompose,
)

# ======================================================================
# eigenvalue containers
# ======================================================================


class EigenvalueSeries:
    """Coefficients c(P) of one form, with weight and level bookkeeping.

    entries is a read-only map from prime ideals to exact rationals.  Its
    ingestion, the one Hasse gate, enforces |c(P)| <= 2 N(P)^{-1/2}
    (checked exactly as c^2 N <= 4) and even weights >= 2.
    """

    def __init__(
        self,
        field: QuadField,
        weight,
        label: str,
        entries: dict[PrimeIdeal, Fraction],
        level_support=(),
    ):
        weight = tuple(weight)
        if not weight or any(k < 2 or k % 2 for k in weight):
            raise ValidationError(f"weights must be even integers >= 2, got {weight}")
        self.field = field
        self.weight = weight
        self.label = str(label)
        self.level_support = frozenset(level_support)
        checked = {}
        for P, c in entries.items():
            if P.field != field:
                raise ValidationError(f"entry at {P} does not belong to {field}")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c.numerator * c.numerator * P.norm > 4 * c.denominator * c.denominator:
                raise HasseBoundViolated(
                    f"{label}: |c({P})| = |{c}| exceeds 2/sqrt({P.norm})"
                )
            checked[P] = c
        self.entries = MappingProxyType(checked)

    @property
    def k0(self) -> int:
        return max(self.weight)

    def __repr__(self):
        return (
            f"EigenvalueSeries({self.label!r}, {self.field}, weight={self.weight}, "
            f"{len(self.entries)} primes)"
        )


# ======================================================================
# signs and coordinates, a chunk of lanes at a time
# ======================================================================


def _sign_lanes(coeffs: list[Fraction], chi: np.ndarray, norms: np.ndarray):
    """sign(c - chi/N) and B = c sqrt(N) / 2 at every lane, as int8 and float64.

    With t = c_num N, each chunk of _LANES lanes takes sign(t - chi c_den)
    and (t / c_den) / (2 sqrt(N)) in one dtype: int64 if every |t| and
    c_den in it is at most 2^53, else Python ints.  Float division of exact
    floats and Python int true division are both correctly rounded, so B
    is the same bits on either dtype.
    """
    signs = np.empty(len(coeffs), dtype=np.int8)
    coords = np.empty(len(coeffs), dtype=np.float64)
    for lo in range(0, len(coeffs), _LANES):
        part, N = coeffs[lo : lo + _LANES], norms[lo : lo + _LANES]
        t = np.array([c.numerator for c in part], dtype=object) * N
        den = np.array([c.denominator for c in part], dtype=object)
        lanes = _lanes(max(_absmax(t), _absmax(den)), 2**53)
        t, den = t.astype(lanes), den.astype(lanes)
        signs[lo : lo + len(part)] = np.sign(t - chi[lo : lo + _LANES] * den)
        coords[lo : lo + len(part)] = t / den / (2.0 * np.sqrt(N.astype(np.float64)))
    return signs, coords


# ======================================================================
# surveys and tallies
# ======================================================================


@dataclass(frozen=True)
class SignTally:
    """Sign counts at cutoff x over good primes; total counts all primes."""

    x: int
    tau: FieldElement
    a_ideal: IdealFactorization
    pos: int
    neg: int
    zero: int
    bad: int
    total: int


class SignSurvey:
    """Per-prime sign data for one (series, tau, psi) triple up to x.

    Built once, then queried at any cutoff <= x.  Signs are decided
    exactly at construction time; the survey keeps the signs and the
    coordinates of the good primes, not their coefficients.
    """

    def __init__(self, E: EigenvalueSeries, tau, psi=None, *, x: int):
        self.x = int(x)
        self.tau = as_element(E.field, tau)
        self.chi = IdealCharacter.from_tau(
            E.field, self.tau, psi_table=psi, level_support=E.level_support
        )
        self.a_ideal = squarefree_decompose(self.chi.tau_ideal).a
        T = _prime_table(E.field, self.x)
        chi = self.chi.values_upto(self.x)
        good = chi != 0
        coeffs = list(map(E.entries.get, compress(T.primes, good)))
        self.all_norms = T.norm
        self.good_norms = T.norm[good]
        n = next((i for i, c in enumerate(coeffs) if c is None), None)
        if n is not None:
            P = T.primes[np.flatnonzero(good)[n]]
            raise MissingPrime(f"{E.label}: no coefficient at good prime {P}")
        self.signs, self.coords = _sign_lanes(coeffs, chi[good], self.good_norms)

    def tally(self, x: int | None = None) -> SignTally:
        x = self.x if x is None else int(x)
        if x > self.x:
            raise ValueError(f"survey only extends to {self.x}, asked for {x}")
        total = int(np.searchsorted(self.all_norms, x, side="right"))
        ngood = int(np.searchsorted(self.good_norms, x, side="right"))
        s = self.signs[:ngood]
        pos = int(np.count_nonzero(s > 0))
        neg = int(np.count_nonzero(s < 0))
        zero = ngood - pos - neg
        return SignTally(
            x=x,
            tau=self.tau,
            a_ideal=self.a_ideal,
            pos=pos,
            neg=neg,
            zero=zero,
            bad=total - ngood,
            total=total,
        )
