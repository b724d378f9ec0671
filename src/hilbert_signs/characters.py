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

import numpy as np

from .errors import FieldMismatch, ValidationError
from .field_arith import (
    FieldElement,
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    _INERT,
    _euler_symbol,
    _euler_symbol_lanes,
    _factor_int,
    _name_columns,
    _prime_ideals,
    _prime_table,
    as_element,
    factor_principal_ideal,
    split_rational_prime,
)


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

    def values_upto(self, X: int) -> np.ndarray:
        """chi at every prime of norm <= X, as int8 on the rows of the prime table.

        Degree-one primes take the Euler criterion in int64 lanes; the bad
        set and psi find their rows by one table lookup each, and each
        inert value is the Euler criterion in F_{p^2}.
        """
        T = _prime_table(self.field, X)
        # every lane takes the degree-one criterion, where the norm is p;
        # inert lanes are redone below
        values = _euler_symbol_lanes(*self.tau_omega, T.norm, T.root)
        bad = T.lookup(*_name_columns(self.bad_set))
        bad = bad[bad >= 0]
        inert = np.flatnonzero(T.kind == _INERT)
        inert = inert[~np.isin(inert, bad)]  # np.setdiff1d would import numpy.ma
        for i, P in zip(inert.tolist(), _prime_ideals(self.field, T, inert)):
            values[i] = _euler_symbol(*self.tau_omega, P)
        psi, v = T.lookup(*_name_columns(self.psi_table)), np.array(list(self.psi_table.values()), np.int8)
        values[psi[psi >= 0]] *= v[psi >= 0]
        values[bad] = 0
        return values
