"""Elliptic curves over Q as weight-2 coefficient sources.

For a long Weierstrass model with good reduction at p, the trace
a_p = p + 1 - #E(F_p) satisfies |a_p| <= 2 sqrt(p), and c(p) = a_p / p is
the normalized coefficient the sign pipeline consumes.  Two point-count
routes are kept deliberately separate: a direct double loop over (x, y)
for small p (the verification oracle) and a quadratic-symbol sum over x
after completing the square for odd p (the production path).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadReduction, ValidationError
from .field_arith import _prime_factors, enumerate_prime_ideals, make_field
from .sign_pipeline import EigenvalueSeries


@dataclass(frozen=True)
class CurveSpec:
    """Long Weierstrass coefficients y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    label: str
    cm: bool = False

    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def bad_primes(self) -> tuple[int, ...]:
        return tuple(_prime_factors(abs(self.discriminant())))

    def __post_init__(self):
        if self.discriminant() == 0:
            raise ValidationError(f"{self.label}: singular model (discriminant 0)")


# Small registry of desk-scale test curves (Cremona labels).
CURVE_REGISTRY: dict[str, CurveSpec] = {
    c.label: c
    for c in (
        CurveSpec(0, -1, 1, -10, -20, "11a"),
        CurveSpec(0, 0, 1, -1, 0, "37a"),
        CurveSpec(0, 1, 1, -2, 0, "389a"),
        CurveSpec(0, 0, 1, -7, 6, "5077a"),
        CurveSpec(0, 0, 0, -1, 0, "32a", cm=True),
    )
}


def get_curve(label: str) -> CurveSpec:
    try:
        return CURVE_REGISTRY[label]
    except KeyError:
        raise ValidationError(
            f"unknown curve {label!r}; registry has {sorted(CURVE_REGISTRY)}"
        ) from None


def ap_naive(E: CurveSpec, p: int) -> int:
    """Trace by direct enumeration of all (x, y) in F_p^2.  Verification only."""
    if E.discriminant() % p == 0:
        raise BadReduction(f"{E.label} has bad reduction at {p}")
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + E.a2 * x * x + E.a4 * x + E.a6) % p
        for y in range(p):
            if (y * y + E.a1 * x * y + E.a3 * y) % p == rhs:
                count += 1
    return p + 1 - count


def ap_symbol_sum(E: CurveSpec, p: int) -> int:
    """Trace for odd good p as -sum_x chi_p(4x^3 + b2 x^2 + 2 b4 x + b6).

    Completing the square in y turns the affine count into a Legendre-symbol
    sum; the symbol table is built from the squares of 1..(p-1)/2.
    """
    if p == 2:
        raise ValueError("symbol sum needs odd p; use ap_naive at 2")
    if E.discriminant() % p == 0:
        raise BadReduction(f"{E.label} has bad reduction at {p}")
    b2, b4, b6, _ = E.b_invariants()
    x = np.arange(p, dtype=np.int64)
    g = (4 * x + b2 % p) % p
    g = (g * x + (2 * b4) % p) % p
    g = (g * x + b6 % p) % p
    chi = np.full(p, -1, dtype=np.int64)
    chi[0] = 0
    half = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    chi[(half * half) % p] = 1
    return -int(chi[g].sum())


def ap_oracle(E: CurveSpec, p: int) -> int:
    """a_p via the appropriate route; checks the Hasse bound before returning."""
    ap = ap_naive(E, p) if p == 2 else ap_symbol_sum(E, p)
    if ap * ap > 4 * p:
        raise ArithmeticError(f"{E.label}: a_{p} = {ap} violates the Hasse bound")
    return ap


def series_from_curve(E: CurveSpec, X: int) -> EigenvalueSeries:
    """Weight-2 eigenvalue series c(p) = a_p / p over good primes p <= X.

    Bad-reduction primes get no coefficient and enter the level support,
    together with 2 (the level convention keeps 4 in the modulus).
    """
    K = make_field(1)
    bad = set(E.bad_primes())
    entries = {
        P: Fraction(ap_oracle(E, P.rational_prime), P.rational_prime)
        for P in enumerate_prime_ideals(K, X)
        if P.rational_prime not in bad
    }
    return EigenvalueSeries(
        field=K,
        weight=(2,),
        label=E.label,
        entries=entries,
        level_support=bad | {2},
    )
