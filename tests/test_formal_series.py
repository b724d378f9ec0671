"""Ideal-indexed series: Cauchy products, Euler factors, prime extraction."""

import collections
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DictSeries,
    IdealFactorization,
    dict_moebius_series,
    dict_series_mul,
    dict_zeta_series,
    enumerate_prime_ideals,
    euler_factor_inverse,
    good_primes,
    identity,
    prime_residual,
    series_from_dict,
    split_rational_prime,
    value_at,
)

from hilbert_signs import characters
from hilbert_signs.characters import IdealCharacter
from hilbert_signs.sato_tate import synth_eigen_series
from hilbert_signs.field_arith import _ideal_objects, _ideal_table, _prime_table, make_field
from hilbert_signs.formal_series import (
    FormalSeries,
    c_series_from_lambda,
    character_moebius_series,
    character_zeta_series,
    extract_prime_relation,
    series_mul,
)

Q = make_field(1)


def power(P, e=1):
    """The ideal P^e."""
    return IdealFactorization.from_pairs(P.field, [(P, e)])


def all_ideals(K, bound):
    primes = enumerate_prime_ideals(K, bound)
    out = [IdealFactorization(1, (), K)]

    def extend(start, current, norm):
        for i in range(start, len(primes)):
            if norm * primes[i].norm > bound:
                break
            m, n = current * power(primes[i]), norm * primes[i].norm
            while n <= bound:
                out.append(m)
                extend(i + 1, m, n)
                m, n = m * power(primes[i]), n * primes[i].norm

    extend(0, IdealFactorization(1, (), K), 1)
    return out


def random_series(K, X, rng, density=0.5, normalized=False):
    coeffs = {}
    for m in all_ideals(K, X):
        if rng.random() < density:
            coeffs[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if normalized:
        coeffs[IdealFactorization(1, (), K)] = Fraction(1)
    return series_from_dict(K, X, coeffs)


IDEAL_POOL_5 = None


def ideal_pool_5(field5):
    global IDEAL_POOL_5
    if IDEAL_POOL_5 is None:
        IDEAL_POOL_5 = all_ideals(field5, 100)
    return IDEAL_POOL_5


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------


def test_single_symbol_product(field5):
    P11a, P11b = split_rational_prime(field5, 11)
    A = series_from_dict(field5, 200, {power(P11a): Fraction(1)})
    B = series_from_dict(field5, 200, {power(P11b): Fraction(1)})
    prod = power(P11a) * power(P11b)
    assert series_mul(A, B).coeffs == {prod: Fraction(1)}


def test_identity_is_neutral(field5):
    rng = random.Random(11)
    A = random_series(field5, 100, rng)
    assert series_mul(identity(field5, 100), A) == A
    assert series_mul(A, identity(field5, 100)) == A


def test_telescoping():
    (P3,) = split_rational_prime(Q, 3)
    u = Fraction(1, 3)
    one_minus = series_from_dict(Q, 100, {IdealFactorization(1, (), Q): 1, power(P3): -u})
    inv = euler_factor_inverse(P3, u, 100)
    assert series_mul(one_minus, inv) == identity(Q, 100)


def test_telescoping_quadratic(field5):
    P5 = split_rational_prime(field5, 5)[0]
    u = Fraction(-2, 5)
    one_minus = series_from_dict(field5, 625, {IdealFactorization(1, (), field5): 1, power(P5): -u})
    assert series_mul(one_minus, euler_factor_inverse(P5, u, 625)) == identity(
        field5, 625
    )


def test_truncation_is_exact_on_survivors(field5):
    rng = random.Random(23)
    A_small = random_series(field5, 40, rng)
    B_small = random_series(field5, 40, rng)
    A_big = series_from_dict(field5, 200, A_small.coeffs)
    B_big = series_from_dict(field5, 200, B_small.coeffs)
    big = series_mul(A_big, B_big)
    small = series_mul(A_small, B_small)
    assert {m: v for m, v in big.coeffs.items() if m.norm <= 40} == small.coeffs


def test_mismatch_errors(field5):
    A = identity(field5, 100)
    with pytest.raises(ValueError, match="^cutoffs differ: 100 vs 50$"):
        series_mul(A, identity(field5, 50))
    with pytest.raises(ValueError, match="^series over different fields$"):
        series_mul(A, identity(Q, 100))


def test_zero_coefficients_dropped(field5):
    A = series_from_dict(field5, 10, {IdealFactorization(1, (), field5): 0})
    assert A.coeffs == {}


@st.composite
def small_series(draw, pool_getter, X=100):
    pool = pool_getter()
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(pool) - 1),
                st.fractions(max_denominator=6),
            ),
            max_size=8,
        )
    )
    return picks


def materialize(field5, picks):
    pool = ideal_pool_5(field5)
    coeffs = {}
    for i, v in picks:
        coeffs[pool[i]] = coeffs.get(pool[i], Fraction(0)) + v
    return series_from_dict(field5, 100, coeffs)


@settings(max_examples=60)
@given(a=st.data())
def test_ring_axioms_at_100(field5, a):
    A = materialize(field5, a.draw(small_series(lambda: ideal_pool_5(field5))))
    B = materialize(field5, a.draw(small_series(lambda: ideal_pool_5(field5))))
    C = materialize(field5, a.draw(small_series(lambda: ideal_pool_5(field5))))
    assert series_mul(A, B) == series_mul(B, A)
    assert series_mul(series_mul(A, B), C) == series_mul(A, series_mul(B, C))


def test_prime_index_has_two_term_support(field5):
    # (A*B)(P) can only see A(1)B(P) + A(P)B(1): nothing else divides P.
    rng = random.Random(5)
    A = random_series(field5, 100, rng)
    B = random_series(field5, 100, rng)
    unit = IdealFactorization(1, (), field5)
    prod = series_mul(A, B)
    a, b = A.coeffs, B.coeffs
    for P in enumerate_prime_ideals(field5, 100):
        idx = power(P)
        expected = a.get(unit, 0) * b.get(idx, 0) + a.get(idx, 0) * b.get(unit, 0)
        assert prod.coeffs.get(idx, 0) == expected


# ----------------------------------------------------------------------
# the ideal table and the id representation against the dict oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d, X", [
    *(pytest.param(d, 600, id=str(d)) for d in [1, 2, 5, 13, 17]),
    # O_K alone; then in Q(sqrt 5) the first inert norm, the first split norm and a prime's square
    *(pytest.param(5, X, id=f"5-X{X}") for X in [1, 4, 11, 121]),
])
def test_ideal_table_pairs_are_the_truncated_products(d, X):
    # d = 2 ramifies 2 and d = 17 splits it, so s(m) below meets both labels above 2
    K = make_field(d)
    T = _ideal_table(K, X)
    ideals, index = _ideal_objects(K, X)
    ideals = [IdealFactorization(*m) for m in ideals]  # with the product of the oracle
    assert sorted(ideals) == sorted(all_ideals(K, X))  # the same ideals, in key order
    assert all(index[m] == i for i, m in enumerate(ideals))
    # the key N(m) X + s(m), s(m) the product of N(P)^e over the P^e || m with root_label 1,
    # names m; an id is the rank of its key, so a key is found by searchsorted with no permutation
    s = [math.prod(norm**e for (norm, _, label), e in m.factors if label) for m in ideals]
    key = np.array([m.norm * X + v for m, v in zip(ideals, s)])
    assert (np.diff(key) > 0).all()
    assert len(np.unique(key)) == len(ideals)
    primes = enumerate_prime_ideals(K, X)
    prime_key = [P.norm * X + (P.norm if P.root_label else 1) for P in primes]
    assert T.prime_id.tolist() == np.searchsorted(key, prime_key).tolist()
    ordered = [(i, j) for i, m in enumerate(ideals) for j, n in enumerate(ideals) if m.norm * n.norm <= X]
    # each pair a < b once, sorted by the id of ab, and every id but O_K has (O_K, m)
    assert sorted(zip(T.a.tolist(), T.b.tolist())) == [(i, j) for i, j in ordered if i < j]
    ab = np.repeat(np.arange(len(ideals)), np.diff(T.start))
    assert all(ideals[k] == ideals[i] * ideals[j] for i, j, k in zip(T.a, T.b, ab))
    assert T.start[0] == T.start[1] == 0 and T.start[-1] == len(T.a) and (np.diff(T.start)[1:] > 0).all()
    # each d with N(d)^2 <= X once on the diagonal, at the id of d^2
    assert T.square.tolist() == [index[m * m] for m in ideals if m.norm**2 <= X]
    # divisors still counts the ordered pairs (a, b) of an id
    assert T.divisors == max(collections.Counter(index[ideals[i] * ideals[j]] for i, j in ordered).values())
    assert {c.dtype for c in (T.a, T.b, T.start, T.square)} == {np.dtype(np.int32)}
    assert [ideals[i] for i in T.prime_id] == [power(P) for P in primes]
    # the tree: m is its parent times the prime of its last row, its last factor, and a
    # parent has at most half its child's norm (at N(P) = 2, for d = 1, 2 and 17, exactly half)
    assert (T.parent[0], T.last[0]) == (0, -1)
    assert T.parent.dtype == T.last.dtype == np.dtype(np.int32)
    for m, up, r in list(zip(ideals, T.parent.tolist(), T.last.tolist()))[1:]:
        assert ideals[up] * power(primes[r]) == m and m.factors[-1][0] == primes[r][:3]
        assert 2 * ideals[up].norm <= m.norm


def test_ideal_table_size_at_10_4(field5):
    T = _ideal_table(field5, 10_000)
    # 20,456 ordered pairs: 10,206 pairs a < b, each twice, and 44 pairs (d, d)
    assert (len(T.norm), len(T.a), len(T.square)) == (4304, 10206, 44)


def test_ideal_table_leaves_no_garbage_cycle(field5):
    # the table is built level by level from numpy temporaries; a reference
    # cycle among them (say, a nested function that names itself) would keep
    # them past the call until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        _ideal_table.__wrapped__(field5, 10_000)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ideal_table_build_peaks_below_three_times_the_table(field5):
    # each stage's temporaries must be freed before the next: the level lists
    # before the sort by key, and the keys before the sort of the pairs
    X = 100_000
    _prime_table(field5, X)  # built and cached outside the measurement
    tracemalloc.start()
    try:
        T = _ideal_table.__wrapped__(field5, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(c.nbytes for c in T[:-1])


def assert_same(fast, ref, pool):
    assert fast.sorted_items() == ref.sorted_items()
    assert fast.coeffs == ref.coeffs
    assert all(fast.coeffs.get(m, 0) == ref.coeffs.get(m, 0) for m in pool)
    assert fast == series_from_dict(ref.field, ref.cutoff, ref.coeffs)


# numerators near 2^62 and denominators whose lcm passes 2^63 take the
# Python-int lanes once the N-twist multiplies them
_NUMS = st.one_of(
    st.integers(-9, 9), st.integers(2**62 - 9, 2**62 + 9), st.integers(-(2**62) - 9, -(2**62) + 9)
)
_DENS = st.one_of(st.integers(1, 9), st.integers(2**31, 2**33))
_VALUES = st.builds(Fraction, _NUMS, _DENS)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_and_euler_series_match_the_dict_oracle(data):
    # 2 ramifies in Q(sqrt 2) and splits in Q(sqrt 17), where keys depart most from norm order
    K = make_field(data.draw(st.sampled_from([1, 2, 5, 17, 29, 97]), label="d"))
    X = data.draw(st.integers(1, 300), label="X")
    pool = all_ideals(K, X)
    picks = st.lists(st.tuples(st.integers(0, len(pool) - 1), _VALUES), max_size=10)
    a = {pool[i]: v for i, v in data.draw(picks, label="A")}
    b = {pool[i]: v for i, v in data.draw(picks, label="B")}
    A, B = series_from_dict(K, X, a), series_from_dict(K, X, b)
    OA, OB = DictSeries(K, X, a), DictSeries(K, X, b)
    assert_same(A, OA, pool)
    assert_same(series_mul(A, B), dict_series_mul(OA, OB), pool)
    assert (A == B) == (OA == OB)
    quadratic = [(1, 0), (4, 1), (7, 2)]  # totally positive in Q(sqrt 2) and in Q(sqrt 5)
    taus = {
        1: [1, 2, 5, 7],
        2: quadratic,
        5: quadratic,
        17: [(1, 0), (5, 1), (9, 2)],
        29: [(1, 0), (6, 1), (11, 2)],  # norms 7 and 5: totally positive, not squares
        97: [(1, 0), (10, 1), (20, 2)],  # norms 3 and 12
    }
    tau = data.draw(st.sampled_from(taus[K.d]))
    chi = IdealCharacter.from_tau(K, tau)
    chi_P = chi.values_upto(X)
    zeta, moebius = dict_zeta_series(chi, X), dict_moebius_series(chi, X)
    assert_same(character_zeta_series(K, X, chi_P), zeta, pool)
    assert_same(character_moebius_series(K, X, chi_P), moebius, pool)
    assert_same(series_mul(A, character_zeta_series(K, X, chi_P)), dict_series_mul(OA, zeta), pool)


def test_python_int_lanes_match_the_oracle(field5):
    X = 100
    pool = all_ideals(field5, X)
    a = {pool[1]: Fraction(2**62 + 1, 3), pool[5]: Fraction(-1, 2**32 + 1)}
    b = {pool[0]: Fraction(5, 2**32 + 3), pool[2]: Fraction(-(2**62), 7)}
    A, B = series_from_dict(field5, X, a), series_from_dict(field5, X, b)
    assert A.num.dtype == object and B.num.dtype == object and A.den * B.den > 2**63
    OA, OB = DictSeries(field5, X, a), DictSeries(field5, X, b)
    assert_same(series_mul(A, B), dict_series_mul(OA, OB), pool)
    # every factor fits in 2^31 and every pair product in 2^62, but the sums
    # at ideals with several divisor pairs do not fit in int64
    wide = {m: Fraction(2**31, m.norm) for m in pool}
    W, OW = series_from_dict(field5, X, wide), DictSeries(field5, X, wide)
    assert W.num.dtype == np.int64 and series_mul(W, W).num.dtype == object
    assert_same(series_mul(W, W), dict_series_mul(OW, OW), pool)
    # a product that cancels back into int64 range is stored as int64 again
    inv = series_from_dict(field5, X, {pool[0]: 1 / Fraction(2**62 + 1, 3)})
    back = series_from_dict(field5, X, {pool[0]: Fraction(2**62 + 1, 3)})
    assert series_mul(inv, back).num.dtype == np.int64


@pytest.mark.parametrize("d, X, a, b, lanes", [
    (5, 1, 2**63 - 1, 1, np.int64),  # O_K alone: divisors = 1
    (5, 1, 2**62, 2, object),
    (1, 24, 2**30, 2**30, object),  # divisors = 8, the eight ordered pairs of 24
    (1, 24, 2**30, 2**30 - 1, np.int64),
])
def test_product_lanes_follow_the_bound_on_the_ordered_pairs(d, X, a, b, lanes):
    # max|A| max|B| divisors is 2^63 - 1 or 2^63 at X = 1; at X = 24, a sum at 24 of
    # 2^60 over each of its eight ordered pairs reaches 2^63
    K = make_field(d)
    n = len(_ideal_table(K, X).norm)
    A, B = FormalSeries(K, X, 1, np.full(n, a, np.int64)), FormalSeries(K, X, 1, np.full(n, b, np.int64))
    prod = series_mul(A, B)
    assert prod.num.dtype == lanes
    ideals, index = _ideal_objects(K, X)
    ideals = [IdealFactorization(*m) for m in ideals]
    pairs = collections.Counter(index[m * k] for m in ideals for k in ideals if m.norm * k.norm <= X)
    assert prod.num.tolist() == [a * b * pairs[i] for i in range(n)]


def test_coeffs_is_a_read_only_view(field5):
    A = identity(field5, 10)
    with pytest.raises(TypeError):
        A.coeffs[IdealFactorization(1, (), field5)] = Fraction(2)
    assert A.coeffs.get(IdealFactorization(1, (), field5), 0) == 1


def test_the_entries_and_coeffs_views_take_no_residue_symbol(field5, monkeypatch):
    # both views name each prime by its row of the prime table, which needs no character value
    calls = []
    monkeypatch.setattr(characters, "_pow_quad_lanes", lambda *args: calls.append(args))
    _ideal_objects.cache_clear()
    assert len(synth_eigen_series(field5, 10**6, 2, 3).entries) == 78_510
    n = len(_ideal_table(field5, 1000).norm)
    assert len(FormalSeries(field5, 1000, 1, np.ones(n, np.int64)).coeffs) == n
    assert calls == []


# ----------------------------------------------------------------------
# Euler factors
# ----------------------------------------------------------------------


def test_euler_factor_zero_u():
    (P3,) = split_rational_prime(Q, 3)
    assert euler_factor_inverse(P3, 0, 50) == identity(Q, 50)


def test_euler_factor_geometric():
    (P3,) = split_rational_prime(Q, 3)
    A = euler_factor_inverse(P3, Fraction(1, 3), 10)
    unit = IdealFactorization(1, (), Q)
    assert A.coeffs == {
        unit: Fraction(1),
        power(P3): Fraction(1, 3),
        power(P3, 2): Fraction(1, 9),
    }


def test_euler_factor_beyond_cutoff():
    (P3,) = split_rational_prime(Q, 3)
    assert euler_factor_inverse(P3, Fraction(1, 2), 2) == identity(Q, 2)


def test_zeta_equals_iterated_factors(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    X = 300
    zeta = character_zeta_series(field5, X, chi.values_upto(X))
    acc = identity(field5, X)
    for P in good_primes(chi, X):
        acc = series_mul(acc, euler_factor_inverse(P, Fraction(value_at(chi, P), P.norm), X))
    assert zeta == acc


@pytest.mark.parametrize("d", [1, 5, 13])
def test_euler_series_indices_equal_their_from_pairs_twins(d):
    # _multiplicative_series makes its index ideals without from_pairs
    K = make_field(d)
    chi_P = IdealCharacter.from_tau(K, 1).values_upto(2000)
    for series in (character_zeta_series(K, 2000, chi_P), character_moebius_series(K, 2000, chi_P)):
        assert len(series.coeffs) > 100
        for m in series.coeffs:
            twin = IdealFactorization.from_pairs(K, m.factors)
            assert isinstance(twin, type(m)) and tuple(m) == tuple(twin)


def test_zeta_times_moebius_is_identity(field5):
    chi_P = IdealCharacter.from_tau(field5, (4, 1)).values_upto(300)
    zeta = character_zeta_series(field5, 300, chi_P)
    moebius = character_moebius_series(field5, 300, chi_P)
    assert series_mul(zeta, moebius) == identity(field5, 300)


# ----------------------------------------------------------------------
# lifting lambda to c and extracting it back
# ----------------------------------------------------------------------


def test_identity_lambda_gives_zeta(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = identity(field5, 200)
    c = c_series_from_lambda(lam, chi.values_upto(200))
    assert c == character_zeta_series(field5, 200, chi.values_upto(200))
    for P in good_primes(chi, 200):
        assert c.coeffs.get(power(P), 0) == Fraction(value_at(chi, P), P.norm)


def test_all_bad_character_is_empty_product(field5):
    chi = IdealCharacter.from_tau(field5, 30)  # kills 2, 3, 5: every prime of norm <= 10
    assert good_primes(chi, 10) == []
    lam = random_series(field5, 10, random.Random(3), normalized=True)
    assert c_series_from_lambda(lam, chi.values_upto(10)) == lam


def test_roundtrip_and_residuals_at_1000(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = random_series(field5, 1000, random.Random(91), density=0.35, normalized=True)
    chi_P = chi.values_upto(1000)
    c = c_series_from_lambda(lam, chi_P)
    assert series_mul(c, character_moebius_series(field5, 1000, chi_P)) == lam
    cc, ll = c.coeffs, lam.coeffs
    for P in good_primes(chi, 1000):
        assert prime_residual(cc, ll, chi, P) == 0


def test_prime_square_relation(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = random_series(field5, 1000, random.Random(17), density=0.4, normalized=True)
    c = c_series_from_lambda(lam, chi.values_upto(1000))
    cc, ll = c.coeffs, lam.coeffs
    for P in good_primes(chi, 31):  # norm^2 <= 1000 needs norm <= 31
        sq = power(P, 2)
        lhs = cc.get(sq, 0) - Fraction(value_at(chi, P), P.norm) * cc.get(power(P), 0)
        assert lhs == ll.get(sq, 0)


def test_all_prime_residuals_at_once_match_each_prime(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    X = 1000
    lam = random_series(field5, X, random.Random(7), density=0.5, normalized=True)
    chi_P = chi.values_upto(X)
    c = c_series_from_lambda(lam, chi_P)
    assert not extract_prime_relation(c, lam, chi_P).any()
    # plant 1/N(P) at one good prime: exactly that residual becomes den(c) den(lam)
    good = good_primes(chi, X)
    P = good[17]
    idx = power(P)
    cc = c.coeffs
    bent = series_from_dict(field5, X, {**cc, idx: cc.get(idx, 0) + Fraction(1, P.norm)})
    r = extract_prime_relation(bent, lam, chi_P)
    assert len(r) == len(good) and np.flatnonzero(r).tolist() == [17]
    assert r[17] == prime_residual(bent.coeffs, lam.coeffs, chi, P) * bent.den * lam.den * P.norm


def test_all_prime_residuals_take_python_ints_past_int64(field5):
    # every numerator fits in int64, but times the other denominator it does not
    chi = IdealCharacter.from_tau(field5, (4, 1))
    X = 200
    big = {power(P): Fraction(2**40 + i, 2**31 - 1)
           for i, P in enumerate(good_primes(chi, X))}
    lam = series_from_dict(field5, X, {IdealFactorization(1, (), field5): 1, **big})
    chi_P = chi.values_upto(X)
    c = c_series_from_lambda(lam, chi_P)
    assert c.num.dtype == lam.num.dtype == np.int64 and c.den * lam.den > 2**61
    r = extract_prime_relation(c, lam, chi_P)
    assert r.dtype == object and not r.any()


def test_all_prime_residuals_need_one_field_and_cutoff(field5):
    chi_P = IdealCharacter.from_tau(field5, (4, 1)).values_upto(50)
    lam = identity(field5, 50)
    c = c_series_from_lambda(lam, chi_P)
    with pytest.raises(ValueError, match="^c and lam must share one field and one cutoff$"):
        extract_prime_relation(c, identity(field5, 40), chi_P)
    # values on another table: Q has 15 primes of norm <= 50, Q(sqrt 5) 14
    with pytest.raises(ValueError, match="^15 character values for 14 primes$"):
        extract_prime_relation(c, lam, IdealCharacter.from_tau(Q, 5).values_upto(50))


def test_direct_substitution_example():
    chi = IdealCharacter.from_tau(Q, 5)
    (P11,) = split_rational_prime(Q, 11)
    assert value_at(chi, P11) == 1
    unit = IdealFactorization(1, (), Q)
    idx = power(P11)
    c = series_from_dict(Q, 20, {unit: 1, idx: Fraction(3, 11)})
    lam = series_from_dict(Q, 20, {unit: 1, idx: Fraction(2, 11)})
    assert prime_residual(c.coeffs, lam.coeffs, chi, P11) == 0


def test_extract_requires_normalized(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = identity(field5, 20)
    c = series_from_dict(field5, 20, {IdealFactorization(1, (), field5): 2})
    with pytest.raises(ValueError, match=r"^c\(O_K\) = 2 != 1$"):
        extract_prime_relation(c, lam, chi.values_upto(20))


def test_field_mismatch_in_lift(field5):
    # chi on the 4 primes of Q of norm <= 10, for the 3 of Q(sqrt 5)
    chi_P = IdealCharacter.from_tau(Q, 5).values_upto(10)
    with pytest.raises(ValueError, match="^4 character values for 3 primes$"):
        c_series_from_lambda(identity(field5, 10), chi_P)

