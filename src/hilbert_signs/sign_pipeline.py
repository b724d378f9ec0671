"""From ideal-indexed coefficient data to exact sign statistics.

For a primitive coefficient family c(P) (normalized so c(O_K) = 1 is
scaled out) and the quadratic ideal character chi = psi * eps_tau, the
reconstructed eigenvalue at a good prime is

    lambda(P) = c(P) - chi(P)/N(P),

and its sign is decided exactly, in integers; floats appear only
in the Sato-Tate coordinate B(P) = c(P) sqrt(N(P)) / 2 used for
distribution statistics, never in sign decisions.

The survey decides its primes in numpy lanes.  A lane whose coefficient
has |c_num| N <= 2^53 and c_den <= 2^53 takes sign(c_num N - chi c_den)
in int64, and its B(P) from the exact floats c_num N and c_den, so it
rounds as sato_tate_coordinate does.  Every other lane, and every lane
whose float B(P) leaves the Hasse containment open, falls back to
lambda_sign and sato_tate_coordinate in Python ints.

Counting conventions.  The denominator of every density cli reports is the
number of ALL prime ideals of norm <= x; the numerator sets (positive,
negative, zero) run over good primes only, i.e. primes off the
character's bad set.  The tally therefore also reports the bad count, and
pos + neg + zero + bad = total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .characters import IdealCharacter
from .errors import HasseBoundViolated, MissingPrime, ValidationError
from .field_arith import (
    FieldElement,
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    _LANES,
    _prime_table,
    as_element,
    count_prime_ideals,
    factor_principal_ideal,
    squarefree_decompose,
)

# ======================================================================
# eigenvalue containers
# ======================================================================


class EigenvalueSeries:
    """Coefficients c(P) of one form, with weight and level bookkeeping.

    entries maps prime ideals to exact rationals.  Ingestion enforces the
    Hasse-type bound |c(P)| <= 2 N(P)^{-1/2} (checked exactly as
    c^2 N <= 4) and even weights >= 2.
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
        self.entries = {}
        for P, c in entries.items():
            if P.field != field:
                raise ValidationError(f"entry at {P} does not belong to {field}")
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c.numerator * c.numerator * P.norm > 4 * c.denominator * c.denominator:
                raise HasseBoundViolated(
                    f"{label}: |c({P})| = |{c}| exceeds 2/sqrt({P.norm})"
                )
            self.entries[P] = c

    @property
    def k0(self) -> int:
        return max(self.weight)

    def __repr__(self):
        return (
            f"EigenvalueSeries({self.label!r}, {self.field}, weight={self.weight}, "
            f"{len(self.entries)} primes)"
        )


# ======================================================================
# per-prime coordinate and sign
# ======================================================================


def sato_tate_coordinate(c, norm: int) -> float:
    """B(P) = c(P) sqrt(N(P)) / 2 in [-1, 1], for rational c.

    This equals C(P) / (2 N(P)^{(k0-1)/2}) with C(P) = c(P) N(P)^{k0/2}
    for every weight k0, and for c = a_p/p it is the classical
    a_p / (2 sqrt(p)).  The containment check is exact, in integers:
    with cN = num/den, (cN)^2 <= 4N is num^2 <= 4N den^2.
    """
    num, den = c.numerator * norm, c.denominator
    if num * num > 4 * norm * den * den:
        raise HasseBoundViolated(f"|c| = |{c}| exceeds 2/sqrt({norm})")
    # int true division is correctly rounded, like float() of the reduced Fraction
    return (num / den) / (2.0 * math.sqrt(float(norm)))


def lambda_sign(c: Fraction, chi_p: int, norm: int) -> int:
    """sign(c(P) - chi(P)/N(P)), decided exactly as sign(c_num N - chi c_den)."""
    t = c.numerator * norm - chi_p * c.denominator
    return (t > 0) - (t < 0)


# A lane is int64 when |c_num| N <= 2^53 and c_den <= 2^53: then c_num N - chi
# c_den is exact in int64, and both c_num N and c_den are exact floats.
_LANE_LIMIT = 2**53
# Past this |B| a lane's Hasse containment is decided in Python ints.
_NEAR_ONE = 1.0 - 2.0**-40


def _int64_lanes(values: list[int]) -> np.ndarray:
    """values as int64; a value outside int64 becomes its minimum, -2^63."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        obj = np.array(values, dtype=object)
        fits = (obj > -(2**63)) & (obj < 2**63)
        out = np.full(len(values), -(2**63), dtype=np.int64)
        out[fits] = obj[fits].astype(np.int64)
        return out


def _sign_lanes(coeffs: list[Fraction], chi: np.ndarray, norms: np.ndarray):
    """lambda_sign and sato_tate_coordinate at every lane, as int8 and float64.

    Lanes where |c_num| N <= 2^53 and c_den <= 2^53 run in int64, and their
    coordinate takes the same correctly rounded float steps as
    sato_tate_coordinate, so both agree bit for bit.  Every other lane, and
    every lane with |B| > 1 - 2^-40 (the float bound leaves containment
    open there), goes through lambda_sign and sato_tate_coordinate, in
    canonical order, so the first Hasse violation is the one raised.
    """
    signs = np.empty(len(coeffs), dtype=np.int8)
    coords = np.empty(len(coeffs), dtype=np.float64)
    for lo in range(0, len(coeffs), _LANES):
        part = coeffs[lo : lo + _LANES]
        N, x = norms[lo : lo + _LANES], chi[lo : lo + _LANES]
        num = _int64_lanes([c.numerator for c in part])
        den = _int64_lanes([c.denominator for c in part])
        lim = _LANE_LIMIT // N
        fast = (num >= -lim) & (num <= lim) & (den <= _LANE_LIMIT) & (den > 0)
        num_n = np.where(fast, num, 0) * N
        den = np.where(fast, den, 1)
        signs[lo : lo + len(part)] = np.sign(num_n - x * den)
        # each float step is correctly rounded, so |B| <= 1 - 2^-40 proves |B| < 1
        B = coords[lo : lo + len(part)]
        B[:] = num_n / den / (2.0 * np.sqrt(N.astype(np.float64)))
        for i in np.flatnonzero(~fast | (np.abs(B) > _NEAR_ONE)).tolist():
            c, n = part[i], int(N[i])
            signs[lo + i] = lambda_sign(c, int(x[i]), n)
            B[i] = sato_tate_coordinate(c, n)
    return signs, coords


# ======================================================================
# surveys and tallies
# ======================================================================

# Half-width of the band around eps inside which cutoff_report decides
# B(P) > eps from the exact coefficient instead of the float coordinate.
_CUTOFF_BAND = 1e-12


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


@dataclass(frozen=True)
class EpsilonCutoffReport:
    """One instance of the tail inequality

    pi_{>0}(x) + pi(1/(4 eps^2)) >= #{good P : N(P) <= x, B(P) > eps}.
    """

    x: int
    epsilon: float
    lhs: int
    rhs: int
    holds: bool


class SignSurvey:
    """Per-prime sign data for one (series, tau, psi) triple up to x.

    Built once, then queried at any cutoff <= x.  Signs are decided
    exactly at construction time, and the tail inequality is
    decided exactly from the stored coefficients.
    """

    def __init__(self, E: EigenvalueSeries, tau, psi=None, *, x: int):
        self.series = E
        self.x = int(x)
        self.tau = as_element(E.field, tau)
        self.chi = IdealCharacter.from_tau(
            E.field, self.tau, psi_table=psi, level_support=E.level_support
        )
        self.a_ideal = squarefree_decompose(
            factor_principal_ideal(E.field, self.tau)
        ).a
        T = _prime_table(E.field, self.x)
        chi = self.chi.values_upto(self.x)
        good = chi != 0
        coeffs = list(map(E.entries.get, compress(T.primes, good)))
        self.all_norms = T.norm
        self.good_norms = T.norm[good]
        n = next((i for i, c in enumerate(coeffs) if c is None), None)
        if n is not None:
            # a Hasse violation before the gap is raised first, as in canonical order
            _sign_lanes(coeffs[:n], chi[good][:n], self.good_norms[:n])
            P = T.primes[np.flatnonzero(good)[n]]
            raise MissingPrime(f"{E.label}: no coefficient at good prime {P}")
        self.signs, self.coords = _sign_lanes(coeffs, chi[good], self.good_norms)
        self._good_coeffs = coeffs

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

    def pi_ideals(self, bound: int) -> int:
        """#{prime ideals with norm <= bound}, using the local table if it reaches."""
        if bound <= self.x:
            return int(np.searchsorted(self.all_norms, bound, side="right"))
        return count_prime_ideals(self.series.field, bound)

    def cutoff_report(self, x: int, epsilon) -> EpsilonCutoffReport:
        """The tail inequality at (x, epsilon), decided exactly.

        epsilon may be a float or a Fraction; B(P) > eps is decided for the
        exact value of epsilon, as c(P) > 0 and c(P)^2 N(P) > 4 eps^2.
        """
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        x = int(x)
        if x > self.x:
            raise ValueError(f"survey only extends to {self.x}, asked for {x}")
        eps = Fraction(epsilon)
        ngood = int(np.searchsorted(self.good_norms, x, side="right"))
        coords = self.coords[:ngood]
        # Each coordinate takes three correctly rounded steps (float(cN),
        # sqrt, division), so it is within ~4e-16 of the true B in [-1, 1],
        # and float(eps) is within 1.2e-16 * eps of eps.  Outside the band
        # the float comparison therefore agrees with the exact one.
        e = float(eps)
        near = np.abs(coords - e) <= _CUTOFF_BAND
        rhs = int(np.count_nonzero((coords > e) & ~near))
        four_eps2 = 4 * eps * eps
        for i in np.flatnonzero(near).tolist():
            c = self._good_coeffs[i]
            if c > 0 and c * c * int(self.good_norms[i]) > four_eps2:
                rhs += 1
        pos = int(np.count_nonzero(self.signs[:ngood] > 0))
        lhs = pos + self.pi_ideals(int(Fraction(1, 4) / (eps * eps)))
        return EpsilonCutoffReport(
            x=x, epsilon=float(epsilon), lhs=lhs, rhs=rhs, holds=lhs >= rhs
        )

