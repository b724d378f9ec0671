"""Elliptic curves over Q as weight-2 coefficient sources.

For a long Weierstrass model with good reduction at p, the trace
a_p = p + 1 - #E(F_p) satisfies |a_p| <= 2 sqrt(p), and c(p) = a_p / p is
the normalized coefficient the sign pipeline consumes.  `ap_oracle` counts
by baby-step giant-step for p >= 5 (Mestre's method, Cohen §7.4.12):
points of E and of its quadratic twist, taken in a fixed order, cut the
Hasse interval down until one trace is left, in O(p^{1/4}) group
operations per point.  Two exact counts stay as the small-p routes and
the test oracles: a direct double loop over (x, y) (used at p = 2) and a
quadratic-symbol sum over x after completing the square (used at p = 3,
and wherever the points leave more than one trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadReduction, ValidationError
from .field_arith import _factor_int, enumerate_prime_ideals, make_field
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
        return tuple(_factor_int(abs(self.discriminant())))

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
        CurveSpec(0, 0, 0, -1, 0, "32a"),
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


Point = tuple[int, int] | None  # an affine point mod p, or None for O


def _add(P: Point, Q: Point, a: int, p: int) -> Point:
    """P + Q on y^2 = x^3 + a x + b over F_p (b is not needed)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _mul(n: int, P: Point, a: int, p: int) -> Point:
    """[n]P for n >= 0, by double-and-add."""
    R = None
    while n:
        if n & 1:
            R = _add(R, P, a, p)
        P = _add(P, P, a, p)
        n >>= 1
    return R


def _hasse_traces(P: Point, a: int, p: int) -> set[int]:
    """Every t with |t| <= 2 sqrt(p) and [p + 1 - t]P = O.

    Baby steps store [j]P for 0 <= j <= m; giant steps visit [n]P for
    n = lo + m, lo + 3m + 1, ..., each covering the group orders n - m..n + m.
    [n + s]P = O means [n]P = -[s]P, so a baby match [n]P = [j]P gives
    s = -j and [n]P = -[j]P gives s = j; at y = 0 (O included) both hold.
    A baby x-coordinate keeps every j that reaches it, since P may have
    small order.
    """
    bound = math.isqrt(4 * p)
    m = math.isqrt(bound) + 1
    baby: dict[int | None, list[tuple[int, int]]] = {}
    Q = None
    for j in range(m + 1):
        x, y = Q if Q is not None else (None, 0)
        baby.setdefault(x, []).append((j, y))
        Q = _add(Q, P, a, p)
    step = _add(Q, _mul(m, P, a, p), a, p)  # [2m + 1]P
    lo, hi = p + 1 - bound, p + 1 + bound
    traces = set()
    n = lo + m
    G = _mul(n, P, a, p)
    while n - m <= hi:
        x, y = G if G is not None else (None, 0)
        for j, yj in baby.get(x, ()):
            if yj == y:
                traces.add(p + 1 - (n - j))
            if (yj + y) % p == 0:
                traces.add(p + 1 - (n + j))
        G = _add(G, step, a, p)
        n += 2 * m + 1
    return {t for t in traces if t * t <= 4 * p}


def ap_bsgs(E: CurveSpec, p: int) -> int:
    """Trace for good p >= 5 by baby-step giant-step on E and its twist.

    On the short model y^2 = f(x) = x^3 + A x + B, each x with r = f(x)
    != 0 gives the point (r x, r^2) on E_r: Y^2 = X^3 + A r^2 X + B r^3,
    the twist of E by r, so #E_r = p + 1 - chi(r) a_p.  Each point's
    candidate traces are intersected until one is left, which is a_p.
    Past p = 229 some point of E or its twist leaves one (Cremona and
    Sutherland, 2010); if every x leaves more, the symbol sum decides.
    """
    if p < 5:
        raise ValueError("baby-step giant-step needs p >= 5")
    if E.discriminant() % p == 0:
        raise BadReduction(f"{E.label} has bad reduction at {p}")
    b2, b4, b6, _ = E.b_invariants()
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    A, B = -27 * c4 % p, -54 * c6 % p
    candidates = None
    for x in range(p):
        r = (x * x * x + A * x + B) % p
        if r == 0:
            continue
        chi = 1 if pow(r, (p - 1) // 2, p) == 1 else -1
        traces = _hasse_traces((r * x % p, r * r % p), A * r * r % p, p)
        found = {chi * t for t in traces}
        candidates = found if candidates is None else candidates & found
        if len(candidates) == 1:
            return candidates.pop()
    return ap_symbol_sum(E, p)


def ap_oracle(E: CurveSpec, p: int) -> int:
    """a_p via the route for p; checks the Hasse bound before returning."""
    if p == 2:
        ap = ap_naive(E, p)
    elif p == 3:
        ap = ap_symbol_sum(E, p)
    else:
        ap = ap_bsgs(E, p)
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
