"""From ideal-indexed coefficient data to exact sign statistics.

For a primitive coefficient family c(P) (normalized so c(O_K) = 1 is
scaled out) and the quadratic ideal character chi = psi * eps_tau, the
reconstructed eigenvalue at a good prime is

    lambda(P) = c(P) - chi(P)/N(P),

and its sign is decided in exact rational arithmetic; floats appear only
in the Sato-Tate coordinate B(P) = c(P) sqrt(N(P)) / 2 used for
distribution statistics, never in sign decisions.

Counting conventions.  The denominator of every reported density is the
number of ALL prime ideals of norm <= x; the numerator sets (positive,
negative, zero) run over good primes only, i.e. primes off the
character's bad set.  The tally therefore also reports the bad count, and
pos + neg + zero + bad = total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import IdealCharacter
from .errors import HasseBoundViolated, MissingPrime, ValidationError
from .field_arith import (
    FieldElement,
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    as_element,
    count_prime_ideals,
    enumerate_prime_ideals,
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
            c = Fraction(c)
            if c * c * P.norm > 4:
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
# pointwise normalizations
# ======================================================================


def sato_tate_coordinate(c, norm: int) -> float:
    """B(P) = c(P) sqrt(N(P)) / 2 in [-1, 1], for rational c.

    This equals C(P) / (2 N(P)^{(k0-1)/2}) with C(P) = c(P) N(P)^{k0/2}
    for every weight k0, and for c = a_p/p it is the classical
    a_p / (2 sqrt(p)).  The containment check is exact: (cN)^2 <= 4N.
    """
    cn = c * norm
    if cn * cn > 4 * norm:
        raise HasseBoundViolated(f"|c| = |{c}| exceeds 2/sqrt({norm})")
    return float(cn) / (2.0 * math.sqrt(float(norm)))


def lambda_sign(c: Fraction, chi_p: int, norm: int) -> int:
    """sign(c(P) - chi(P)/N(P)) decided in exact rational arithmetic."""
    lam = Fraction(c) - Fraction(chi_p, norm)
    return (lam > 0) - (lam < 0)


# ======================================================================
# surveys and tallies
# ======================================================================

# Half-width of the band around eps inside which cutoff_report decides
# B(P) > eps from the exact coefficient instead of the float coordinate.
_CUTOFF_BAND = 1e-12


@dataclass(frozen=True)
class SignTally:
    """Sign counts at cutoff x; densities use the all-primes denominator."""

    x: int
    tau: FieldElement
    a_ideal: IdealFactorization
    pos: int
    neg: int
    zero: int
    bad: int
    total: int

    def density(self, count: int) -> Fraction:
        return Fraction(count, self.total) if self.total else Fraction(0)

    @property
    def pos_density(self) -> Fraction:
        return self.density(self.pos)

    @property
    def neg_density(self) -> Fraction:
        return self.density(self.neg)

    @property
    def zero_density(self) -> Fraction:
        return self.density(self.zero)


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

    Built once, then queried at any cutoff <= x.  Signs are decided with
    exact rationals at construction time, and the tail inequality is
    decided exactly from the stored coefficients.
    """

    def __init__(self, E: EigenvalueSeries, tau, psi=None, x: int | None = None):
        if x is None:
            raise ValueError("survey needs an explicit norm cutoff x")
        self.series = E
        self.x = int(x)
        self.tau = as_element(E.field, tau)
        self.chi = IdealCharacter.from_tau(
            E.field, self.tau, psi_table=psi, level_support=E.level_support
        )
        self.a_ideal = squarefree_decompose(
            factor_principal_ideal(E.field, self.tau)
        ).a
        all_norms: list[int] = []
        good_norms: list[int] = []
        signs: list[int] = []
        coords: list[float] = []
        self._good_coeffs: list[Fraction] = []
        for P in enumerate_prime_ideals(E.field, self.x):
            all_norms.append(P.norm)
            v = self.chi.value_at(P)
            if v == 0:
                continue
            c = E.entries.get(P)
            if c is None:
                raise MissingPrime(f"{E.label}: no coefficient at good prime {P}")
            good_norms.append(P.norm)
            signs.append(lambda_sign(c, v, P.norm))
            coords.append(sato_tate_coordinate(c, P.norm))
            self._good_coeffs.append(c)
        self.all_norms = np.asarray(all_norms, dtype=np.int64)
        self.good_norms = np.asarray(good_norms, dtype=np.int64)
        self.signs = np.asarray(signs, dtype=np.int8)
        self.coords = np.asarray(coords, dtype=np.float64)

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


def tally_signs(E: EigenvalueSeries, tau, psi=None, x: int | None = None) -> SignTally:
    """Count positive/negative/zero lambda signs over primes of norm <= x."""
    return SignSurvey(E, tau, psi=psi, x=x).tally()


def epsilon_cutoff_check(
    E: EigenvalueSeries, tau, psi=None, x: int | None = None, epsilon=0.5
) -> EpsilonCutoffReport:
    """Verify the tail inequality at one (x, epsilon); see SignSurvey.cutoff_report."""
    survey = SignSurvey(E, tau, psi=psi, x=x)
    return survey.cutoff_report(survey.x, epsilon)


# ======================================================================
# output formats
# ======================================================================

TALLY_CSV_HEADER = "x,total,pos,neg,zero,pos_density"


def density_string(num: int, den: int, digits: int = 12) -> str:
    """num/den as a fixed-point decimal string, rounded half away from zero."""
    if den == 0:
        return "0." + "0" * digits
    scale = 10**digits
    q, r = divmod(num * scale, den)
    if 2 * r >= den:
        q += 1
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{digits}d}"


def tally_csv_row(t: SignTally) -> str:
    return f"{t.x},{t.total},{t.pos},{t.neg},{t.zero},{density_string(t.pos, t.total)}"


def tally_to_obj(t: SignTally) -> dict:
    return {
        "x": t.x,
        "tau": repr(t.tau),
        "a_ideal": repr(t.a_ideal),
        "counts": {
            "pos": t.pos,
            "neg": t.neg,
            "zero": t.zero,
            "bad": t.bad,
            "total": t.total,
        },
        "pos_density": density_string(t.pos, t.total),
        "neg_density": density_string(t.neg, t.total),
        "zero_density": density_string(t.zero, t.total),
    }
