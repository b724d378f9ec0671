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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FieldMismatch, ValidationError
from .field_arith import (
    FieldElement,
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    _INERT,
    _euler_symbol_lanes,
    _factor_int,
    _name_columns,
    _prime_table,
    as_element,
    factor_principal_ideal,
    split_rational_prime,
)


class CharacterValues(NamedTuple):
    """A character's values on the prime table of (field, x), evaluated once.

    It stands in for the character where only values_upto(x) is read: the
    Euler series and the prime relation of one series-check check.
    """

    field: QuadField
    x: int
    values: np.ndarray

    def values_upto(self, X: int) -> np.ndarray:
        if X != self.x:
            raise ValueError(f"values held up to {self.x}, asked for {X}")
        return self.values


@dataclass
class IdealCharacter:
    """(psi * eps_tau) extended multiplicatively to integral ideals.

    tau_ideal is the factorization of tau*O_K, and tau_omega holds the
    integers (x, y) with tau = x + y*w, so each value is one Euler
    criterion in integers.
    """

    field: QuadField
    tau: FieldElement
    psi_table: dict[PrimeIdeal, int]
    bad_set: frozenset[PrimeIdeal]
    tau_ideal: IdealFactorization
    tau_omega: tuple[int, int]

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
        for p in sorted({2, *level_support, *_factor_int(K.disc)}):
            bad.update(split_rational_prime(K, p))
        # factoring proves tau integral, so its omega-coordinates are integers
        tau_ideal = factor_principal_ideal(K, el)
        bad.update(tau_ideal.support())
        x, y = el.omega_coords()
        return cls(K, el, psi, frozenset(bad), tau_ideal, (int(x), int(y)))

    def evaluated(self, X: int) -> CharacterValues:
        return CharacterValues(self.field, X, self.values_upto(X))

    def values_upto(self, X: int) -> np.ndarray:
        """chi at every prime of norm <= X, as int8 on the rows of the prime table.

        Every value is an Euler criterion in int64 lanes.  At an inert
        P = (p), tau^((p^2-1)/2) = N(tau)^((p-1)/2) mod P, so there it is
        the Legendre symbol of N(tau) mod p.  The bad set and psi find their
        rows by one table lookup each.
        """
        T = _prime_table(self.field, X)
        # every lane takes the degree-one criterion, where the norm is p;
        # inert lanes are redone below
        values = _euler_symbol_lanes(*self.tau_omega, T.norm, T.root)
        inert = np.flatnonzero(T.kind == _INERT)
        (x, y), (s, c) = self.tau_omega, self.field.omega_square()  # N(x + y w) = x^2 + s x y - c y^2
        p = np.array(T.names(inert)[1], np.int64)
        values[inert] = _euler_symbol_lanes(x * x + s * x * y - c * y * y, 0, p, T.root[inert])
        bad = T.lookup(*_name_columns(self.bad_set))
        psi, v = T.lookup(*_name_columns(self.psi_table)), np.array(list(self.psi_table.values()), np.int8)
        values[psi[psi >= 0]] *= v[psi >= 0]
        values[bad[bad >= 0]] = 0
        return values
