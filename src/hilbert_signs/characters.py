"""Quadratic ideal characters twisted by a square class.

eps_tau is the quadratic character cut out by K(sqrt(tau))/K; at an odd
unramified prime P not dividing tau it equals the residue symbol of tau
in O_K/P, so it is +1 identically (off the bad set) when tau is a square.
An explicit finite table psi of +-1 values (trivial by default) multiplies
it, and the product extends to all integral ideals by complete
multiplicativity.

The square rule.  A tau that reaches from_tau is totally positive (it
passed factorable_tau), and it is a square in K iff every exponent of
tau*O_K is even.  One way is plain.  For the other, tau*O_K = I^2 and I =
(a) by class number one, so tau = u a^2 for a unit u.  Both tau and a^2
are totally positive, so u is too; every supported field has narrow
class number one, so its totally positive units are squares of units,
and tau = (b a)^2 with u = b^2.  The rule relies on that positivity: -1
has the same (empty) factorization as 1 and is not a square.  A square
tau is therefore the trivial character off the bad set, and values_upto
evaluates no residue symbol for it.

The extended character is zero exactly on a finite conservative bad set:
primes above 2, primes dividing the field discriminant, primes dividing
tau, and primes above any declared level support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HilbertSignsError
from .field_arith import (
    FieldElement,
    IdealFactorization,
    PrimeIdeal,
    QuadField,
    _INERT,
    _euler_symbol_lanes,
    _factor_int,
    _name_columns,
    _prime_roots,
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
    criterion in integers.  square records whether tau is a square in K,
    by the square rule of the module docstring.
    """

    field: QuadField
    tau: FieldElement
    psi_table: dict[PrimeIdeal, int]
    bad_set: frozenset[PrimeIdeal]
    tau_ideal: IdealFactorization
    tau_omega: tuple[int, int]
    square: bool

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
                raise ValueError(f"psi table prime {P} is not a prime of {K}")
            if v not in (-1, 1):
                raise HilbertSignsError(f"psi value at {P} must be +-1, got {v}")
        bad: set[PrimeIdeal] = set()
        for p in sorted({2, *level_support, *_factor_int(K.disc)}):
            bad.update(split_rational_prime(K, p))
        # factoring proves tau integral, so its omega-coordinates are integers
        tau_ideal = factor_principal_ideal(K, el)
        bad.update(tau_ideal.support())
        x, y = el.omega_coords()
        square = all(e % 2 == 0 for _, e in tau_ideal.factors)
        return cls(K, el, psi, frozenset(bad), tau_ideal, (int(x), int(y)), square)

    def evaluated(self, X: int) -> CharacterValues:
        return CharacterValues(self.field, X, self.values_upto(X))

    def values_upto(self, X: int) -> np.ndarray:
        """chi at every prime of norm <= X, as int8 on the rows of the prime table.

        For a square tau every value starts at 1: by the square rule of the
        module docstring, which relies on tau being totally positive, tau =
        b^2, and b is a unit mod every odd P not dividing tau, so the
        residue symbol is 1 at every row off the bad set.  Otherwise every
        value is an Euler criterion in int64 lanes.  At an inert P = (p),
        tau^((p^2-1)/2) = N(tau)^((p-1)/2) mod P, so there it is the
        Legendre symbol of N(tau) mod p.  Either way psi and then the bad
        set find their rows by one table lookup each.
        """
        T = _prime_table(self.field, X)
        if self.square:
            values = np.ones(len(T.norm), dtype=np.int8)
        else:
            # every lane takes the degree-one criterion, where the norm is p;
            # inert lanes are redone below
            root = _prime_roots(self.field, X)
            values = _euler_symbol_lanes(*self.tau_omega, T.norm, root)
            inert = np.flatnonzero(T.kind == _INERT)
            (x, y), (s, c) = self.tau_omega, self.field.omega_square()  # N(x + y w) = x^2 + s x y - c y^2
            p = np.array(T.names(inert)[1], np.int64)
            values[inert] = _euler_symbol_lanes(x * x + s * x * y - c * y * y, 0, p, root[inert])
        bad = T.lookup(*_name_columns(self.bad_set))
        psi, v = T.lookup(*_name_columns(self.psi_table)), np.array(list(self.psi_table.values()), np.int8)
        values[psi[psi >= 0]] *= v[psi >= 0]
        values[bad[bad >= 0]] = 0
        return values
