"""Quadratic ideal characters twisted by a square class.

eps_tau is the quadratic character cut out by K(sqrt(tau))/K; at an odd
unramified prime P not dividing tau it equals the residue symbol of tau
in O_K/P, so it is +1 identically (off the bad set) when tau is a square.
An explicit finite table psi of +-1 values (trivial by default) multiplies
it, and the product extends to all integral ideals by complete
multiplicativity.

The extended character is zero exactly on a finite conservative bad set:
primes above 2, primes dividing the field discriminant, primes dividing
tau, and primes above any declared level support.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import FieldMismatch, ValidationError
from .field_arith import (
    FieldElement,
    PrimeIdeal,
    QuadField,
    _prime_factors,
    as_element,
    factor_principal_ideal,
    quadratic_residue_symbol,
    split_rational_prime,
)


def epsilon_tau(tau, P: PrimeIdeal) -> int:
    """Value at P of the quadratic character attached to K(sqrt(tau))/K.

    Computed as the Euler-criterion residue symbol of tau mod P, so it is
    0 when P divides tau and undefined (raises) in characteristic 2.
    """
    return quadratic_residue_symbol(tau, P)


@dataclass
class IdealCharacter:
    """(psi * eps_tau) extended multiplicatively to integral ideals."""

    field: QuadField
    tau: FieldElement
    psi_table: dict[PrimeIdeal, int]
    bad_set: frozenset[PrimeIdeal]
    _cache: dict[PrimeIdeal, int] = dc_field(default_factory=dict, repr=False)

    @classmethod
    def from_tau(
        cls,
        K: QuadField,
        tau,
        psi_table: dict[PrimeIdeal, int] | None = None,
        level_support=(),
    ) -> "IdealCharacter":
        el = as_element(K, tau)
        psi = dict(psi_table or {})
        for P, v in psi.items():
            if P.field != K:
                raise FieldMismatch(f"psi table prime {P} is not a prime of {K}")
            if v not in (-1, 1):
                raise ValidationError(f"psi value at {P} must be +-1, got {v}")
        bad: set[PrimeIdeal] = set()
        for p in sorted({2, *level_support, *_prime_factors(K.disc)}):
            bad.update(split_rational_prime(K, p))
        bad.update(factor_principal_ideal(K, el).support())
        return cls(field=K, tau=el, psi_table=psi, bad_set=frozenset(bad))

    def value_at(self, P: PrimeIdeal) -> int:
        """chi(P) in {-1, 0, +1}; zero exactly on the bad set."""
        if P.field != self.field:
            raise FieldMismatch(f"{P} is not a prime of {self.field}")
        v = self._cache.get(P)
        if v is None:
            if P in self.bad_set:
                v = 0
            else:
                v = self.psi_table.get(P, 1) * epsilon_tau(self.tau, P)
            self._cache[P] = v
        return v
