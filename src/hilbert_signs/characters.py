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
tau, and primes above any declared level support.  The bad set, the keys
of psi and the factors of tau*O_K are prime names (norm, p, root_label),
so a prime past the prime table needs no root, and values_upto finds the
rows of the bad set and of psi by one table lookup each.  A run reads the
character only as those values: values_upto(X), int8 on the rows of the
prime table of (K, X), is what the survey and the formal series take.  At
a tau that is not a square it makes them in one pass over chunks of rows,
finding the roots of each chunk's split p as it goes, so no root is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field_arith import (
    QuadField,
    _INERT,
    _LANES,
    _SECOND,
    _factor_int,
    _mod_lanes,
    _names_above,
    _norm,
    _omega_roots_lanes,
    _pow_lanes,
    _prime_table,
    factor_principal_ideal,
    factorable_tau,
    ideal_text,
)

Name = tuple[int, int, int]  # a prime ideal's (norm, p, root_label)


@dataclass
class IdealCharacter:
    """(psi * eps_tau) extended multiplicatively to integral ideals.

    tau is tau's text, tau_ideal the (name, exponent) factorization of
    tau*O_K, and tau_omega holds the integers (x, y) with tau = x + y*w,
    so each value is one Euler criterion in integers.  square records
    whether tau is a square in K, by the square rule of the module
    docstring.
    """

    field: QuadField
    tau: str
    psi_table: dict[Name, int]
    bad_set: frozenset[Name]
    tau_ideal: tuple[tuple[Name, int], ...]
    tau_omega: tuple[int, int]
    square: bool

    @classmethod
    def from_tau(
        cls,
        K: QuadField,
        tau,
        psi_table: dict[Name, int] | None = None,
        level_support=(),
    ) -> "IdealCharacter":
        psi = dict(psi_table or {})
        for P, v in psi.items():
            if v not in (-1, 1):
                raise ValueError(f"psi value at {ideal_text(K, [(P, 1)])} must be +-1, got {v}")
        omega, text = factorable_tau(K, tau)
        tau_ideal = factor_principal_ideal(K, tau)
        bad = {P for p in {2, *level_support, *_factor_int(K.disc)} for P in _names_above(K, p)}
        bad.update(P for P, _ in tau_ideal)
        square = all(e % 2 == 0 for _, e in tau_ideal)
        return cls(K, text, psi, frozenset(bad), tau_ideal, omega, square)

    def values_upto(self, X: int) -> np.ndarray:
        """chi at every prime of norm <= X, as int8 on the rows of the prime table.

        For a square tau every value starts at 1: by the square rule of the
        module docstring, which relies on tau being totally positive, tau =
        b^2, and b is a unit mod every odd P not dividing tau, so the
        residue symbol is 1 at every row off the bad set.  Otherwise the
        rows are taken 2 _LANES at a time (about _LANES split p, so each
        square-root pass is about _LANES wide), and each row takes one
        Euler criterion in int64 lanes.  At a degree-one P of root r it is
        the symbol of x + y r mod p, where tau = x + y w.  At an inert P =
        (p), tau^((p^2-1)/2) = N(tau)^((p-1)/2) mod P, so there it is the
        Legendre symbol of N(tau) mod p.  The roots of a chunk's odd split
        p take one _omega_roots_lanes call, and a chunk ends after the
        second prime above its last p, so both roots of each p fall in one
        chunk.  Every other row takes root 0: inert rows read none, and p =
        2 and the ramified p are in the bad set.  Either way psi and then
        the bad set find their rows by one table lookup each.
        """
        T = _prime_table(self.field, X)
        if self.square:
            values = np.ones(len(T.norm), dtype=np.int8)
        else:
            (x, y), n = self.tau_omega, _norm(self.field, *self.tau_omega)
            values = np.empty(len(T.norm), dtype=np.int8)
            lo = 0
            while lo < len(T.norm):
                hi = min(lo + 2 * _LANES, len(T.norm))
                if hi < len(T.norm) and T.kind[hi] == _SECOND:
                    hi += 1
                norm, kind = T.norm[lo:hi], T.kind[lo:hi]
                inert = kind == _INERT
                p = np.where(inert, np.sqrt(norm).astype(np.int64), norm)  # exact: norm < 2^53
                root = np.zeros_like(p)
                second = np.flatnonzero((kind == _SECOND) & (p != 2))
                root[second - 1], root[second] = _omega_roots_lanes(self.field, p[second])
                a = np.where(inert, _mod_lanes(n, p), (_mod_lanes(x, p) + _mod_lanes(y, p) * root) % p)
                t = _pow_lanes(a, p >> 1, p)
                values[lo:hi] = np.where(t == p - 1, -1, t)
                lo = hi
        if self.psi_table:
            psi, v = T.lookup(*zip(*self.psi_table)), np.array(list(self.psi_table.values()), np.int8)
            values[psi[psi >= 0]] *= v[psi >= 0]
        bad = T.lookup(*zip(*self.bad_set))  # never empty: it holds the primes above 2
        values[bad[bad >= 0]] = 0
        return values
