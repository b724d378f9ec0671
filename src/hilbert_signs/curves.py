"""Elliptic curves over Q as weight-2 coefficient sources.

For a long Weierstrass model with good reduction at p, the trace
a_p = p + 1 - #E(F_p) satisfies |a_p| <= 2 sqrt(p), and c(p) = a_p / p is
the normalized coefficient the sign pipeline consumes.

series_from_curve finds a_p for every p >= 5 at once by baby-step
giant-step (Mestre's method, Cohen §7.4.12).  Points of E and of its
quadratic twist cut the Hasse interval down until one trace is left, in
O(p^{1/4}) group operations per point.  The search runs on int64 numpy
lanes, one prime per lane, as in Kedlaya and Sutherland's batched BSGS
(ANTS VIII, 2008).  Its points are Jacobian, so a lane pays one Fermat
inverse per table of steps (Montgomery's trick).

ap_oracle counts points exactly at one prime: a double loop over (x, y)
at p = 2, and a quadratic-symbol sum over x at odd p.  It serves p = 2
and 3, and the symbol sum decides the rare lane left with several traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HilbertSignsError
from .field_arith import _LANES, _factor_int, _mod_lanes, _pow_lanes, _prime_table, make_field
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
            raise HilbertSignsError(f"{self.label}: singular model (discriminant 0)")


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
        raise HilbertSignsError(f"unknown curve {label!r}; registry has {sorted(CURVE_REGISTRY)}") from None


def ap_naive(E: CurveSpec, p: int) -> int:
    """Trace by direct enumeration of all (x, y) in F_p^2: the route at p = 2."""
    if E.discriminant() % p == 0:
        raise ValueError(f"{E.label} has bad reduction at {p}")
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
        raise ValueError(f"{E.label} has bad reduction at {p}")
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


# ----------------------------------------------------------------------
# baby-step giant-step on int64 lanes, one prime per lane
# ----------------------------------------------------------------------
#
# A lane point is a Jacobian triple (X, Y, Z) of int64 arrays: the affine
# point (X / Z^2, Y / Z^3) on y^2 = x^3 + a x + b mod p, or O where Z = 0.
# An affine lane point is a pair (x, y), with O as (-1, 0).  Every product
# of two residues is reduced at once, so it stays below p^2 < 2^63 for
# p <= TABLE_MAX_X, and a sum of a few reduced terms cannot overflow either.

Lanes = tuple[np.ndarray, np.ndarray, np.ndarray]
Affine = tuple[np.ndarray, np.ndarray]


def _double_lanes(P: Lanes, a: np.ndarray, p: np.ndarray) -> Lanes:
    """[2]P lane by lane; O and the points with y = 0 give Z = 0 by themselves."""
    X, Y, Z = P
    YY, ZZ = Y * Y % p, Z * Z % p
    S = 4 * (X * YY % p) % p
    M = (3 * (X * X % p) + a * (ZZ * ZZ % p) % p) % p
    X3 = (M * M % p - 2 * S) % p
    Y3 = (M * (S - X3) % p - 8 * (YY * YY % p)) % p
    return X3, Y3, 2 * (Y * Z % p) % p


def _add_lanes(P: Lanes, Q: Lanes | Affine, a: np.ndarray, p: np.ndarray) -> Lanes:
    """P + Q lane by lane, for 1-D lanes: P Jacobian, Q Jacobian or affine (x, y).

    An affine Q has Z = 1, which saves five products.  The chord formula
    gives Z = 0 at P = -Q by itself; the lanes with P = O, Q = O or P = Q
    (H = R = 0) are patched afterwards.
    """
    X1, Y1, Z1 = P
    if len(Q) == 2:
        X2, Y2 = Q
        U1, S1, Z12, O2 = X1, Y1, Z1, X2 < 0
        Q = X2, Y2, np.ones_like(p)
    else:
        X2, Y2, Z2 = Q
        Z2Z2 = Z2 * Z2 % p
        U1, S1 = X1 * Z2Z2 % p, Y1 * (Z2 * Z2Z2 % p) % p
        Z12, O2 = Z1 * Z2 % p, Z2 == 0
    Z1Z1 = Z1 * Z1 % p
    U2, S2 = X2 * Z1Z1 % p, Y2 * (Z1 * Z1Z1 % p) % p
    H, R = (U2 - U1) % p, (S2 - S1) % p
    HH = H * H % p
    HHH, V = H * HH % p, U1 * HH % p
    X3 = (R * R % p - HHH - 2 * V) % p
    Y3 = (R * (V - X3) % p - S1 * HHH % p) % p
    out = X3, Y3, Z12 * H % p
    O1, twin = Z1 == 0, (H == 0) & (R == 0)
    if (O1 | O2 | twin).any():
        twin &= ~(O1 | O2)
        if twin.any():
            for c, t in zip(out, _double_lanes([c[twin] for c in P], a[twin], p[twin])):
                c[twin] = t
        for mask, T in ((O1, Q), (O2, P)):
            for c, t in zip(out, T):
                c[mask] = t[mask]
    return out


def _mul_lanes(n: np.ndarray, P: Affine, a: np.ndarray, p: np.ndarray) -> Lanes:
    """[n]P lane by lane for n >= 0 and affine P, by double-and-add from the top bit."""
    R = np.ones_like(p), np.ones_like(p), np.zeros_like(p)
    for b in reversed(range(int(n.max(initial=0)).bit_length())):
        R = _double_lanes(R, a, p)
        bit = (n >> b) & 1 == 1
        R = tuple(np.where(bit, s, r) for s, r in zip(_add_lanes(R, P, a, p), R))
    return R


def _affine_lanes(X: np.ndarray, Y: np.ndarray, Z: np.ndarray, p: np.ndarray) -> Affine:
    """Jacobian points in [k, lanes] arrays made affine in place: (x, y) in X, Y; O is (-1, 0).

    Montgomery's trick along each lane: prefix products of the k Z's, one
    Fermat inverse of the last, and a backward pass that peels off each
    1/Z, so a lane inverts once for all k points.
    """
    O = Z == 0
    Z[O] = 1
    c = Z.copy()  # c[i] = Z[0] ... Z[i]
    for i in range(1, len(Z)):
        c[i] = c[i - 1] * Z[i] % p
    inv = _pow_lanes(c[-1], p - 2, p)  # 1 / c[i], for i walking down
    for i in reversed(range(len(Z))):
        zi = inv * c[i - 1] % p if i else inv
        inv = inv * Z[i] % p
        zz = zi * zi % p
        X[i], Y[i] = X[i] * zz % p, Y[i] * (zz * zi % p) % p
    X[O], Y[O] = -1, 0
    return X, Y


def _progression_lanes(start: Lanes, step: Affine, k: int, a: np.ndarray, p: np.ndarray) -> Lanes:
    """start + [i]step for 0 <= i < k, lane by lane, as Jacobian [k, lanes] arrays."""
    T = tuple(np.empty((k, len(p)), dtype=np.int64) for _ in range(3))
    Q = start
    for i in range(k):
        if i:
            Q = _add_lanes(Q, step, a, p)
        for row, c in zip(T, Q):
            row[i] = c
    return T


def _traces_lanes(x: np.ndarray, y: np.ndarray, a: np.ndarray, p: np.ndarray):
    """(lane, t) for every t with |t| <= 2 sqrt(p) and [p + 1 - t]P = O, P = (x, y).

    Baby steps store [j]P for 0 <= j <= m; giant steps visit [n]P for the
    multiples n of 2m + 1 from just below the Hasse interval p + 1 -+ 2
    sqrt(p) to just past it, so that the orders n - m..n + m cover it.
    Both tables are built in Jacobian coordinates and made affine at once.
    One interval width and one m serve every lane, which keeps the tables
    rectangular: a match anywhere is a true multiple of the order, and the
    Hasse filter at the end keeps the ones in range.  [n + s]P = O means
    [n]P = -[s]P, so a baby match [n]P = [j]P gives s = -j and
    [n]P = -[j]P gives s = j; at y = 0 (O included) both hold.
    """
    bound = math.isqrt(4 * int(p.max()))
    m = math.isqrt(bound) + 1
    O, P = (np.ones_like(p), np.ones_like(p), np.zeros_like(p)), (x, y)
    X, Y, Z = _progression_lanes(O, P, m + 2, a, p)
    # row m + 1 becomes the giant step [m + 1]P + [m]P, made affine with the babies
    X[m + 1], Y[m + 1], Z[m + 1] = _add_lanes((X[m + 1], Y[m + 1], Z[m + 1]), (X[m], Y[m], Z[m]), a, p)
    bx, by = _affine_lanes(X, Y, Z, p)
    step, bx, by = (bx[m + 1], by[m + 1]), bx[: m + 1], by[: m + 1]
    k = (np.maximum(p + 1 - bound, 0) + m) // (2 * m + 1)  # the first giant is [k]step
    giants = (2 * bound + 2 * m) // (2 * m + 1) + 1  # ceil(2 bound / (2m + 1)) + 1, at most m + 2
    gx, gy = _affine_lanes(*_progression_lanes(_mul_lanes(k, step, a, p), step, giants, a, p), p)
    lanes, traces = [], []
    for i in range(giants):
        j, lane = np.nonzero(bx == gx[i])
        yb, yg, q = by[j, lane], gy[i, lane], p[lane]
        order = (k[lane] + i) * (2 * m + 1)
        for hit, s in ((yb == yg, -j), ((yb + yg) % q == 0, j)):
            lanes.append(lane[hit])
            traces.append((q + 1 - order - s)[hit])
    lane, t = np.concatenate(lanes), np.concatenate(traces)
    keep = t * t <= 4 * p[lane]
    return lane[keep], t[keep]


def _ap_lanes(E: CurveSpec, p: np.ndarray) -> np.ndarray:
    """a_p at each good prime 5 <= p <= TABLE_MAX_X of an int64 array.

    On the short model y^2 = f(x) = x^3 + A x + B, each x with r = f(x)
    != 0 gives the point (r x, r^2) on E_r: Y^2 = X^3 + A r^2 X + B r^3,
    the twist of E by r, so #E_r = p + 1 - chi(r) a_p.  Each lane walks x =
    0, 1, ... and intersects chi(r) times its point's traces with its
    candidates until one is left, which is a_p.  Past p = 229 some point of
    E or its twist leaves one (Cremona and Sutherland, 2010); a lane whose
    x run out with more left takes the symbol sum.

    A pass takes the next 4 _LANES // (m + 2) undecided lanes, and a lane
    still undecided after it rejoins the queue, so each table of a pass
    stays near 256 KiB, four rows of _LANES lanes, at any X.  Timed
    in-process, series_from_curve on curve 37a (2-vCPU VM, from a process
    at 30.6 MB max RSS after import) at X = 10^6 takes 2.1-2.8, 1.8-2.1
    and 1.8 s with passes of 1, 4 and 16 times that width, and peaks at
    37.0, 42.6 and 65.2 MB.  At X = 10^5, 1, 2, 4 and 8 times take 0.20,
    0.18, 0.18 and 0.19 s (medians of 9) and peak at 32.6, 34.5, 38.4
    and 46.2 MB.  A wider pass saves little time, and its tables soon
    outgrow everything else the run holds.
    """
    b2, b4, b6, _ = E.b_invariants()
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    ap, x = p.copy(), np.zeros_like(p)  # p is no trace: a lane left without one fails every Hasse check
    rows = math.isqrt(math.isqrt(4 * int(p.max(initial=0)))) + 3  # m + 2, the most rows of a table
    width = max(1, 4 * _LANES // rows)
    todo, candidates = np.arange(len(p)), {}
    while todo.size:
        live, todo = todo[:width], todo[width:]
        q, xl = p[live], x[live]
        A, B = _mod_lanes(-27 * c4, q), _mod_lanes(-54 * c6, q)
        while True:  # the next x with r = f(x) != 0, or x = p if none is left
            r = ((xl * xl % q + A) % q * xl % q + B) % q
            if not (root := (r == 0) & (xl < q)).any():
                break
            xl = xl + root
        for i in live[xl == q].tolist():
            ap[i] = ap_symbol_sum(E, int(p[i]))
        on = xl < q
        live, q, A, xl, r = live[on], q[on], A[on], xl[on], r[on]
        if not live.size:
            continue
        x[live] = xl + 1
        chi = np.where(_pow_lanes(r, q >> 1, q) == 1, 1, -1)
        rr = r * r % q
        lane, t = _traces_lanes(r * xl % q, rr, A * rr % q, q)
        # a_p is among the found traces, so a lane with one found is decided
        one = np.bincount(lane, minlength=len(q))[lane] == 1
        lane, t = live[lane], chi[lane] * t
        ap[lane[one]] = t[one]
        found = {}
        for i, s in zip(lane[~one].tolist(), t[~one].tolist()):
            found.setdefault(i, set()).add(s)
        retry = []
        for i, s in found.items():
            s &= candidates.pop(i, s)
            if len(s) == 1:
                (ap[i],) = s
            else:
                candidates[i] = s
                retry.append(i)
        todo = np.concatenate([todo, np.array(retry, dtype=np.int64)])
    return ap


def ap_oracle(E: CurveSpec, p: int) -> int:
    """a_p via the route for p; checks the Hasse bound before returning."""
    ap = ap_naive(E, p) if p == 2 else ap_symbol_sum(E, p)
    if ap * ap > 4 * p:
        raise ArithmeticError(f"{E.label}: a_{p} = {ap} violates the Hasse bound")
    return ap


def series_from_curve(E: CurveSpec, X: int) -> EigenvalueSeries:
    """Weight-2 eigenvalue series c(p) = a_p / p over good primes p <= X.

    Bad-reduction primes get no coefficient and enter the level support,
    together with 2 (the level convention keeps 4 in the modulus).  p = 2
    and 3 take ap_oracle; every p >= 5 goes through the lanes at once,
    under the same Hasse check.
    """
    K, bad = make_field(1), E.bad_primes()
    p = _prime_table(K, X).norm  # over Q the norm of (p) is p
    good = ~np.isin(p, bad)
    ap = np.zeros_like(p)
    lanes = good & (p >= 5)
    ap[lanes] = _ap_lanes(E, p[lanes])
    for i in np.flatnonzero(good & (p < 5)).tolist():
        ap[i] = ap_oracle(E, int(p[i]))
    if (over := np.flatnonzero(ap * ap > 4 * p)).size:
        q, t = p[over[0]], ap[over[0]]
        raise ArithmeticError(f"{E.label}: a_{q} = {t} violates the Hasse bound")
    return EigenvalueSeries(K, (2,), E.label, X, ap, np.where(good, p, 0), {*bad, 2})
