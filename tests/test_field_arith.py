"""Exact quadratic-field arithmetic against brute-force oracles."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import (
    EvenCharacteristic,
    IdealFactorization,
    Splitting,
    as_element,
    element,
    enumerate_prime_ideals,
    factor_principal_ideal,
    prime_text,
    quadratic_residue_symbol,
    split_rational_prime,
    squarefree_decompose,
)

from hilbert_signs import field_arith
from hilbert_signs.errors import HilbertSignsError
from hilbert_signs.field_arith import (
    MAX_TAU_NORM,
    NARROW_CLASS_NUMBER_ONE,
    TABLE_MAX_X,
    _DEGREE_OF,
    _KINDS,
    _SECOND,
    _ideal_table,
    _is_prime,
    _pow_quad_lanes,
    _prime_table,
    ideal_text,
    make_field,
    primes_upto,
)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def naive_primes(n):
    out = []
    for m in range(2, n + 1):
        if all(m % q for q in range(2, int(math.isqrt(m)) + 1)):
            out.append(m)
    return out


def plain_sieve(n):
    """Primes <= n from a sieve over every integer up to n."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def naive_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any((y * y) % p == a for y in range(1, p)) else -1


def brute_split(K, p):
    """Classify p by scanning all roots of the minimal polynomial of w mod p."""
    if K.is_rational:
        return ("split", [0])
    s, c = K.omega_square()  # w^2 = s w + c
    roots = sorted(x for x in range(p) if (x * x - s * x - c) % p == 0)
    if K.disc % p == 0:
        return ("ramified", roots)
    if not roots:
        return ("inert", [])
    return ("split", roots)


def brute_enumerate(K, X):
    """(norm, p, root_label) triples of all prime ideals of norm <= X."""
    out = []
    for p in naive_primes(X):
        kind, roots = brute_split(K, p)
        if K.is_rational:
            out.append((p, p, 0))
        elif kind == "ramified":
            out.append((p, p, 0))
        elif kind == "inert":
            if p * p <= X:
                out.append((p * p, p, 0))
        else:
            out.append((p, p, 0))
            out.append((p, p, 1))
    return sorted(out)


def negative_pell_solvable(d):
    """Does x^2 - d y^2 = -1 have a solution?

    Solvable iff the continued-fraction period of sqrt(d) has odd length.
    """
    a0 = math.isqrt(d)
    assert a0 * a0 != d
    m, q, a = 0, 1, a0
    period = 0
    while True:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period += 1
        if q == 1 and a == 2 * a0:
            return period % 2 == 1


# ----------------------------------------------------------------------
# fields
# ----------------------------------------------------------------------


def test_make_field_disc_rule():
    assert make_field(5).disc == 5
    assert make_field(2).disc == 8
    K = make_field(1)
    assert K.disc == 1 and K.degree == 1 and K.is_rational


def test_make_field_rejects_bad_d():
    with pytest.raises(HilbertSignsError, match="must be squarefree and positive"):
        make_field(12)
    with pytest.raises(HilbertSignsError, match="must be squarefree and positive"):
        make_field(50)
    with pytest.raises(HilbertSignsError, match="must be squarefree and positive"):
        make_field(0)
    with pytest.raises(HilbertSignsError, match="must be squarefree and positive"):
        make_field(-5)
    with pytest.raises(HilbertSignsError, match="outside the supported narrow-class-number-one list"):
        make_field(3)  # fundamental unit has norm +1


def test_make_field_refuses_huge_d_at_once():
    # 10^16 + 1 = 353 * 449 * 641 * 1409 * 69857 is squarefree, so only the
    # allowlist refuses it; trial division up to its square root takes seconds
    t0 = time.perf_counter()
    with pytest.raises(HilbertSignsError, match="outside the supported narrow-class-number-one list"):
        make_field(10**16 + 1)
    assert time.perf_counter() - t0 < 1.0


def test_allowlist_units_have_norm_minus_one():
    # narrow h = 1 requires a unit of norm -1; the continued-fraction
    # oracle checks that necessary condition for every listed d > 1
    for d in NARROW_CLASS_NUMBER_ONE:
        if d > 1:
            assert negative_pell_solvable(d), d
    assert not negative_pell_solvable(3)
    assert not negative_pell_solvable(7)


def test_omega_square_rule(field5):
    assert field5.omega_square() == (1, 1)  # w^2 = w + 1 for the golden ratio
    assert make_field(2).omega_square() == (0, 2)
    assert make_field(13).omega_square() == (1, 3)


# ----------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------


def test_element_norm_and_coords(field5):
    t = element(field5, 4, 1)
    assert t.norm() == 11
    assert t.omega_coords() == (3, 2)  # 4 + sqrt5 = 3 + 2w
    assert t.is_integral() and t.is_totally_positive()


def test_half_integers_integral_iff_matching_parity(field5):
    # (1 + sqrt5)/2 is the generator w itself
    w = element(field5, Fraction(1, 2), Fraction(1, 2))
    assert w.is_integral()
    assert not element(field5, Fraction(1, 2), 0).is_integral()
    assert not element(make_field(2), Fraction(1, 2), Fraction(1, 2)).is_integral()


def test_total_positivity(field5):
    assert element(field5, 3, 1).is_totally_positive()  # 3 +- sqrt5 > 0
    assert not element(field5, 1, 1).is_totally_positive()  # 1 - sqrt5 < 0
    assert not element(field5, -7, 0).is_totally_positive()
    assert not element(field5, 0, 0).is_totally_positive()


def test_as_element_coercions(field5):
    assert as_element(field5, 3) == element(field5, 3)
    assert as_element(field5, (4, 1)) == element(field5, 4, 1)
    assert as_element(field5, Fraction(7, 2)) == element(field5, Fraction(7, 2))
    with pytest.raises(ValueError, match=r"^element of Q\(sqrt\(5\)\) used in Q\(sqrt\(2\)\)$"):
        as_element(make_field(2), element(field5, 1))


def test_rational_field_folds_b():
    Q = make_field(1)
    assert element(Q, 3, 4) == element(Q, 7)  # sqrt(1) = 1


# ----------------------------------------------------------------------
# splitting
# ----------------------------------------------------------------------


def test_splitting_examples(field5):
    (r,) = split_rational_prime(field5, 5)
    assert r.splitting is Splitting.RAMIFIED and r.norm == 5
    two = split_rational_prime(field5, 11)
    assert [P.splitting for P in two] == [Splitting.SPLIT_FIRST, Splitting.SPLIT_SECOND]
    assert [P.norm for P in two] == [11, 11]
    (i,) = split_rational_prime(field5, 2)
    assert i.splitting is Splitting.INERT and i.norm == 4


def test_rational_primes_split_first():
    Q = make_field(1)
    (P,) = split_rational_prime(Q, 7)
    assert P.splitting is Splitting.SPLIT_FIRST
    assert P.norm == 7 and P.residue_degree == 1


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_splitting_matches_brute_force(d):
    # the primes below 1500 reach every unit class mod disc (the last, for d = 97, at 1499),
    # so every entry of the splitting table is checked
    K = make_field(d)
    primes = naive_primes(1500)
    assert {p % K.disc for p in primes if K.disc % p} == {
        r for r in range(K.disc) if math.gcd(r, K.disc) == 1
    }
    for p in primes:
        kind, roots = brute_split(K, p)
        ideals = split_rational_prime(K, p)
        if kind == "ramified":
            assert len(ideals) == 1 and ideals[0].splitting is Splitting.RAMIFIED
            assert ideals[0].root == roots[0]
        elif kind == "inert":
            assert len(ideals) == 1 and ideals[0].splitting is Splitting.INERT
            assert ideals[0].norm == p * p
        else:
            assert [P.root for P in ideals] == roots  # smaller root labeled first
            assert [P.root_label for P in ideals] == list(range(len(roots)))


@pytest.mark.parametrize("d", [2, 5, 13, 97])
def test_residue_degrees_sum_to_field_degree(d):
    K = make_field(d)
    for p in naive_primes(500):
        if K.disc % p:
            assert sum(P.residue_degree for P in split_rational_prime(K, p)) == 2


def test_reduction_sends_omega_to_root(field5):
    for p in naive_primes(100):
        for P in split_rational_prime(field5, p):
            if P.residue_degree == 1:
                s, c = field5.omega_square()
                assert (P.root * P.root - s * P.root - c) % p == 0


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_enumeration_examples(field5):
    assert _prime_table(make_field(1), 10).norm.tolist() == [2, 3, 5, 7]
    assert _prime_table(field5, 11).norm.tolist() == [4, 5, 9, 11, 11]
    assert _prime_table(field5, 3).names(slice(None)) == ([], [], [])


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_enumeration_matches_brute_force(d):
    K = make_field(d)
    got = list(zip(*_prime_table(K, 500).names(slice(None))))
    assert got == brute_enumerate(K, 500)


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_enumeration_strictly_sorted(d):
    K = make_field(d)
    primes = list(zip(*_prime_table(K, 2000).names(slice(None))))
    assert sorted(primes) == primes and len(set(primes)) == len(primes)


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_prime_table_matches_split_rational_prime(d):
    # split_rational_prime, one p at a time, is the reference for the table
    K = make_field(d)
    for X in (1, 2, 3, 4, 5, 10, 1000, 50000):
        ref = sorted(
            P for p in primes_upto(X).tolist() for P in split_rational_prime(K, p) if P.norm <= X
        )
        T = _prime_table(K, X)
        got = list(zip(*T.names(slice(None))))
        assert got == [P[:3] for P in ref]
        assert [type(v) for P in got[:50] for v in P] == [int] * 3 * min(50, len(ref))
        assert T.norm.tolist() == [P.norm for P in ref]
        assert [_KINDS[k] for k in T.kind.tolist()] == [P.splitting.value for P in ref]
        assert [_DEGREE_OF[k] for k in T.kind.tolist()] == [P.residue_degree for P in ref]
        assert (T.kind == _SECOND).astype(int).tolist() == [P.root_label for P in ref]
        assert all(c.dtype != object and not c.flags.writeable for c in T)


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_prime_table_is_its_norm_and_kind_columns(d):
    # root_label is kind == _SECOND, so a prime costs 8 bytes of norm and 1 of kind, and no key
    K, X = make_field(d), 2000
    T = _prime_table(K, X)
    assert T._fields == ("norm", "kind")
    assert sum(c.nbytes for c in T) == 9 * len(T.norm)
    assert "key" not in _ideal_table(K, X)._fields


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_prime_table_index_matches_split_rational_prime(d):
    # one vector lookup, names in any order, against split_rational_prime
    K, X = make_field(d), 2000
    T = _prime_table(K, X)
    names, want = [], []  # want: the row of each name, or -1

    def name(norm, p, label, row=-1):
        names.append((norm, p, label))
        want.append(row)

    row_of = {P: i for i, P in enumerate(enumerate_prime_ideals(K, X))}
    for p in primes_upto(X + 100).tolist():
        above = split_rational_prime(K, p)
        for P in above:
            name(P.norm, p, P.root_label, row_of.get(P, -1))  # past X: -1
            name(P.norm, p, -1)
            name(P.norm, p, 2)
        if len(above) == 1:  # inert or ramified (over Q: the one prime above p)
            name(above[0].norm, p, 1)
        if above[0].splitting is Splitting.INERT:
            name(p, p, 0)  # an inert p named with norm p
        else:
            name(p * p, p, 0)  # a degree-one p named with norm p^2
            name(p * p, p, 1)
    for n in (1, 4, 9, 15, 1001, 1003):  # not prime
        name(n, n, 0)
        name(n * n, n, 0)
    # 2 norm + label is the key of another row, or the name is out of int64
    for norm, p, label in [(3, 5, 4), (4, 5, 2), (0, 0, 0), (-3, -3, 0), (3, 2**70, 0), (2**70, 3, 0), (5, 5, 2**64)]:
        name(norm, p, label)
    rows = list(range(len(names)))
    random.Random(d).shuffle(rows)  # in any order, in one call
    assert T.lookup(*zip(*(names[i] for i in rows))).tolist() == [want[i] for i in rows]
    # the names within int64 as int64 columns, as the curve cache reader passes them
    rows = [i for i in rows if all(abs(v) < 2**63 for v in names[i])]
    columns = [np.array(c, dtype=np.int64) for c in zip(*(names[i] for i in rows))]
    assert T.lookup(*columns).tolist() == [want[i] for i in rows]
    assert sorted(row_of.values()) == list(range(len(T.norm)))
    # each name past X is also -1 in the table of a smaller X, and an empty table has no rows
    assert (_prime_table(K, 1).lookup(*zip(*names)) == -1).all()


def test_prime_table_lookup_takes_every_dtype_np_asarray_picks():
    # nonnegative ints with one in [2^63, 2^64) make a uint64 column, and with one past int64
    # among int64 values a float64 one; each out-of-range name is -1 and the others keep their rows
    T, q = _prime_table(make_field(5), 100), 2**64 - 95
    five, eleven = T.lookup([5, 11], [5, 11], [0, 1]).tolist()
    assert five >= 0 and eleven >= 0
    assert np.asarray([q]).dtype == np.uint64 and np.asarray([5, q]).dtype == np.float64
    assert T.lookup([2**63], [2**63], [0]).tolist() == [-1]
    assert T.lookup([q], [q], [0]).tolist() == [-1]
    assert T.lookup([5], [q], [0]).tolist() == [-1]
    assert T.lookup([5, q, 11], [5, q, 11], [0, 0, 1]).tolist() == [five, -1, eleven]
    assert T.lookup([5, 11], [5, 11], [q, 1]).tolist() == [-1, eleven]
    assert T.lookup([5, 11], [5, 11], np.array([0, q], dtype=np.uint64)).tolist() == [five, -1]


def _pow_quad(a, b, e, p, s, c):
    """(a + b T)^e in F_p[T]/(T^2 - s T - c) in Python ints, left to right."""
    u, v = 1, 0
    for bit in bin(e)[2:]:
        u, v = (u * u + c * v * v) % p, (2 * u * v + s * v * v) % p
        if bit == "1":
            u, v = (a * u + c * b * v) % p, (a * v + b * u + s * b * v) % p
    return u, v


@pytest.mark.parametrize("s, c", [(1, 24), (0, 2), (1, 0), (1, 1)])
@pytest.mark.parametrize("p", [3037000493, 3037000453, 2**31 - 1, 998244353])
def test_pow_quad_lanes_match_python_ints(p, s, c):
    # 3037000493 is the largest prime below TABLE_MAX_X, where the uint64 sums come
    # closest to 2^64; (1, 24) is d = 97, the largest c, and (1, 0) is Q
    assert _is_prime(p) and p <= TABLE_MAX_X
    rng = random.Random(p + c)
    big, lanes = p * p // 2, [(p - 1, p - 1, e) for e in (0, 1, (p - 1) // 2, (p * p - 1) // 2)]
    lanes += [(p - 1, p - 1, (1 << k) - 1) for k in (31, 62) if 1 << k <= big]
    lanes += [(rng.randrange(p), rng.randrange(p), rng.randrange(big)) for _ in range(200)]
    a, b, e = (np.array(col, dtype=np.int64) for col in zip(*lanes))
    u, v = _pow_quad_lanes(a, b, e, np.full(len(lanes), p), s, c)
    assert list(zip(u.tolist(), v.tolist())) == [_pow_quad(*lane, p, s, c) for lane in lanes]


def test_prime_table_refuses_x_past_int64_before_allocating(field5, monkeypatch):
    def sieve(n):
        raise AssertionError(f"the sieve ran to {n}")  # it would take 10 GB here

    monkeypatch.setattr(field_arith, "primes_upto", sieve)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"X <= {TABLE_MAX_X}"):
            _prime_table(field5, 10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("d", [1, 2, 5, 29])
@pytest.mark.parametrize("X", [10, 100, 4999, 5000])
def test_count_agrees_with_enumeration(d, X):
    K = make_field(d)
    assert len(brute_enumerate(K, X)) == len(_prime_table(K, X).norm)


def test_primes_upto_matches_naive():
    assert list(primes_upto(1000)) == naive_primes(1000)
    assert list(primes_upto(1)) == []
    for n in [*range(2001), 10**6]:  # the odd-only sieve, at every end it can stop on
        got = primes_upto(n)
        assert got.dtype == np.int64 and got.tolist() == plain_sieve(n).tolist(), n


def test_is_prime_matches_naive():
    naive = set(naive_primes(10_000))
    for n in range(10_000 + 1):
        assert _is_prime(n) == (n in naive)


def test_is_prime_large_composites():
    assert _is_prime(2**61 - 1)  # Mersenne prime
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


# ----------------------------------------------------------------------
# residue symbols
# ----------------------------------------------------------------------


def test_symbol_examples():
    Q = make_field(1)
    (P11,) = split_rational_prime(Q, 11)
    (P5,) = split_rational_prime(Q, 5)
    (P7,) = split_rational_prime(Q, 7)
    assert quadratic_residue_symbol(element(Q, 5), P11) == 1  # 4^2 = 16 = 5
    assert quadratic_residue_symbol(element(Q, 10), P5) == 0
    assert quadratic_residue_symbol(element(Q, 2), P5) == -1
    assert quadratic_residue_symbol(element(Q, 9), P7) == 1  # 9 = 3^2 is always a square
    assert quadratic_residue_symbol(element(Q, 9), P11) == 1


def test_symbol_rejects_even_characteristic(field5):
    (P2,) = split_rational_prime(field5, 2)
    with pytest.raises(EvenCharacteristic):
        quadratic_residue_symbol(element(field5, 3), P2)


def test_symbol_rational_matches_legendre():
    Q = make_field(1)
    for p in naive_primes(60)[1:]:  # odd primes
        (P,) = split_rational_prime(Q, p)
        for a in range(-6, 30):
            assert quadratic_residue_symbol(element(Q, a), P) == naive_legendre(a, p)


def test_symbol_split_matches_legendre_of_image(field5):
    # reduction mod a degree-one prime sends a + b*sqrt5 = x + y*w to x + y*root
    for p in naive_primes(80):
        for P in split_rational_prime(field5, p):
            if P.residue_degree != 1 or p == 2 or P.splitting is Splitting.RAMIFIED:
                continue
            for (a, b) in [(2, 0), (4, 1), (1, 1), (7, 2), (0, 1)]:
                t = element(field5, a, b)
                x, y = t.omega_coords()
                image = (int(x) + int(y) * P.root) % p
                assert quadratic_residue_symbol(t, P) == naive_legendre(image, p)


def test_symbol_inert_matches_square_enumeration(field5):
    # oracle: list all squares of F_{p^2} = F_p[w]/(w^2 - w - 1) explicitly
    s, c = field5.omega_square()
    for p in [3, 7, 13, 23]:
        (P,) = split_rational_prime(field5, p)
        assert P.splitting is Splitting.INERT
        squares = set()
        for u in range(p):
            for v in range(p):
                # (u + v w)^2 = u^2 + c v^2 + (2uv + s v^2) w
                squares.add(((u * u + c * v * v) % p, (2 * u * v + s * v * v) % p))
        for x in range(p):
            for y in range(p):
                # build x + y*w from omega coords: w = (1 + sqrt5)/2
                a = Fraction(2 * x + y, 2)
                b = Fraction(y, 2)
                t = element(field5, a, b)
                assert t.omega_coords() == (x, y)
                expected = 0 if (x, y) == (0, 0) else (1 if (x, y) in squares else -1)
                assert quadratic_residue_symbol(t, P) == expected


# ----------------------------------------------------------------------
# factorization
# ----------------------------------------------------------------------


def test_factor_examples(field5):
    Q = make_field(1)
    f = factor_principal_ideal(Q, 12)
    assert f.factors == (((2, 2, 0), 2), ((3, 3, 0), 1))

    f5 = factor_principal_ideal(field5, 5)
    ((P, e),) = f5.factors
    assert split_rational_prime(field5, P[1])[P[2]].splitting is Splitting.RAMIFIED and e == 2

    ft = factor_principal_ideal(field5, (4, 1))
    ((P, e),) = ft.factors
    assert P[0] == 11 and e == 1
    assert split_rational_prime(field5, 11)[P[2]].root == 4  # 3 + 2*4 = 11 = 0 mod 11


def test_factor_rejects_bad_tau(field5):
    with pytest.raises(HilbertSignsError, match="is not an algebraic integer"):
        factor_principal_ideal(field5, Fraction(1, 2))
    with pytest.raises(HilbertSignsError, match="^-3 is not totally positive$"):
        factor_principal_ideal(field5, -3)
    with pytest.raises(HilbertSignsError, match="is not totally positive"):
        factor_principal_ideal(field5, (1, 2))  # 1 - 2 sqrt5 < 0


def test_factor_refuses_norm_above_bound(field5):
    assert factor_principal_ideal(make_field(1), MAX_TAU_NORM).norm == MAX_TAU_NORM
    with pytest.raises(HilbertSignsError, match="too large to factor"):
        factor_principal_ideal(make_field(1), MAX_TAU_NORM + 1)
    with pytest.raises(HilbertSignsError, match="too large to factor"):
        factor_principal_ideal(field5, 10**6 + 1)  # norm 10^12 + 2 * 10^6 + 1


def test_factor_splits_conjugates(field5):
    # 4 + sqrt5 and 4 - sqrt5... the latter is totally positive too
    f1 = factor_principal_ideal(field5, (4, 1))
    f2 = factor_principal_ideal(field5, (4, -1))
    assert f1 != f2 and f1.norm == f2.norm == 11


def test_squarefree_decompose_examples(field5):
    Q = make_field(1)
    d = squarefree_decompose(factor_principal_ideal(Q, 12))
    assert d.a.norm == 2 and d.r.norm == 3
    unit = IdealFactorization(1, (), Q)
    du = squarefree_decompose(unit)
    assert du.a == unit and du.r == unit
    d5 = squarefree_decompose(factor_principal_ideal(field5, 5))
    assert d5.a.norm == 5 and d5.r.is_unit


@st.composite
def integral_tp_elements(draw):
    d = draw(st.sampled_from([1, 2, 5, 13]))
    K = make_field(d)
    x = draw(st.integers(min_value=1, max_value=60))
    y = draw(st.integers(min_value=-8, max_value=8))
    if K.is_rational:
        t = element(K, x)
    else:
        a = Fraction(2 * x + y, 2) if d % 4 == 1 else Fraction(x)
        b = Fraction(y, 2) if d % 4 == 1 else Fraction(y)
        t = element(K, a, b)
    return K, t


@given(integral_tp_elements())
def test_factorization_remultiplies(Kt):
    K, t = Kt
    assume(t.is_integral() and t.is_totally_positive())
    f = factor_principal_ideal(K, t)
    assert f.norm == abs(t.norm())
    dec = squarefree_decompose(f)
    assert dec.a * dec.a * dec.r == f
    assert dec.r.is_squarefree


def test_ideal_algebra(field5):
    P11a, P11b = split_rational_prime(field5, 11)
    m = IdealFactorization.from_pairs(field5, [(P11a, 2)]) * IdealFactorization.from_pairs(
        field5, [(P11b, 1)]
    )
    assert m.norm == 11**3
    assert dict(m.factors) == {P11a[:3]: 2, P11b[:3]: 1}
    assert not m.is_squarefree
    with pytest.raises(ValueError, match="^cannot multiply ideals of different fields$"):
        m * IdealFactorization(1, (), make_field(2))
    with pytest.raises(ValueError):
        IdealFactorization.from_pairs(field5, [(P11a, -1)])


# ----------------------------------------------------------------------
# the root-free factorization and the names, against the scalar oracles
# ----------------------------------------------------------------------


def _rationals(K, x, y):
    """(a, b) with a + b*sqrt(d) = x + y*w."""
    return (Fraction(2 * x + y, 2), Fraction(y, 2)) if K.d % 4 == 1 else (Fraction(x), Fraction(y))


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_root_free_factorization_matches_the_root_oracle(d):
    # every totally positive integral x + y w with |x| <= 60 and |y| <= 20 (y = 0 over Q)
    K, count = make_field(d), 0
    for x in range(-60, 61):
        for y in range(-20, 21) if not K.is_rational else (0,):
            tau = _rationals(K, x, y)
            if not element(K, *tau).is_totally_positive():
                continue
            ref = factor_principal_ideal(K, tau)
            got = field_arith.factor_principal_ideal(K, tau)
            assert field_arith.factorable_tau(K, tau) == ((x, y), repr(element(K, *tau)))
            assert got == ref.factors, tau
            assert ideal_text(K, got) == repr(ref)
            halves = [(P, e // 2) for P, e in got if e > 1]
            assert ideal_text(K, halves) == repr(squarefree_decompose(ref).a)
            count += 1
    assert count >= (60 if K.is_rational else 700)


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_ideal_text_matches_the_splitting_text(d):
    K = make_field(d)
    for P in enumerate_prime_ideals(K, 10**4):
        assert ideal_text(K, [(P[:3], 1)]) == prime_text(P) == repr(P)
    assert ideal_text(K, []) == "(1)"
