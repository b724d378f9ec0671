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
with one Euler criterion in O_K/pO_K per rational p and no square root.
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
    _pow_lanes,
    _pow_quad_lanes,
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
        rows are taken 2 _LANES at a time, and each rational p takes one
        lane at its first row: with tau = x + y w and w^2 = s w + c,

            u + v T = (x + y T)^((N-1)/2)  in  O_K/pO_K = F_p[T]/(T^2 - s T - c),

        N the norm of that row.  Where v = 0, every prime above p takes u,
        read as 1, -1 or 0.  That is every inert p, where the power is
        N(tau)^((p-1)/2), and every p over Q.  Where v != 0 at a split p, T
        goes to the root r1 or r2 at its two primes, and u + v ri is the
        symbol at each, which differ as r1 != r2: their sum sigma = 2u + s v
        is read in -1..1, and eps = +1 if sigma >= 0, else -1, is taken at
        the root r = (eps - u)/v mod p.  The prime of that root, label 1
        iff r > (s - r) mod p as in field_arith, takes eps and the other
        sigma - eps; sigma = +-1 is a p dividing N(tau), one prime above
        it in the bad set.  A chunk ends after the second prime above its
        last p, so both rows of each p fall in one chunk.  p = 2 and the
        ramified p, whose lanes decode to anything, are in the bad set.
        Either way psi and then the bad set find their rows by one table
        lookup each.
        """
        T = _prime_table(self.field, X)
        if self.square:
            values = np.ones(len(T.norm), dtype=np.int8)
        else:
            (x, y), (s, c) = self.tau_omega, self.field.omega_square()
            values = np.empty(len(T.norm), dtype=np.int8)
            lo = 0
            while lo < len(T.norm):
                hi = min(lo + 2 * _LANES, len(T.norm))
                if hi < len(T.norm) and T.kind[hi] == _SECOND:
                    hi += 1
                kind = T.kind[lo:hi]
                first = kind != _SECOND  # one lane per p, at its first row
                norm = T.norm[lo:hi][first]
                p = np.where(kind[first] == _INERT, np.sqrt(norm).astype(np.int64), norm)  # exact: norm < 2^53
                u, v = _pow_quad_lanes(_mod_lanes(x, p), _mod_lanes(y, p), (norm - 1) >> 1, p, s, c)
                label0 = np.where(u == p - 1, -1, u)
                label1 = label0.copy()
                nz = np.flatnonzero(v)  # a split p whose two values differ, or a (bad) ramified p
                p, u, v = p[nz], u[nz], v[nz]
                sigma = (2 * u + s * v) % p
                sigma = np.where(sigma == p - 1, -1, sigma)
                eps = np.where(sigma < 0, -1, 1)
                r = (eps - u) % p * _pow_lanes(v, p - 2, p) % p  # the root where chi = eps
                label0[nz] = np.where(r > (s - r) % p, sigma - eps, eps)
                label1[nz] = sigma - label0[nz]
                lane = np.cumsum(first) - 1
                values[lo:hi] = np.where(first, label0[lane], label1[lane])
                lo = hi
        if self.psi_table:
            psi, v = T.lookup(*zip(*self.psi_table)), np.array(list(self.psi_table.values()), np.int8)
            values[psi[psi >= 0]] *= v[psi >= 0]
        bad = T.lookup(*zip(*self.bad_set))  # never empty: it holds the primes above 2
        values[bad[bad >= 0]] = 0
        return values
