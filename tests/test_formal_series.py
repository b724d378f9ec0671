"""Ideal-indexed series: Cauchy products, Euler factors, prime extraction."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DictSeries,
    dict_moebius_series,
    dict_series_mul,
    dict_zeta_series,
    euler_factor_inverse,
    good_primes,
    identity,
    prime_residual,
    value_at,
)

from hilbert_signs import (
    CutoffMismatch,
    FieldMismatch,
    FormalSeries,
    IdealCharacter,
    IdealFactorization,
    NotNormalized,
    c_series_from_lambda,
    character_moebius_series,
    character_zeta_series,
    enumerate_prime_ideals,
    extract_prime_relation,
    make_field,
    series_mul,
    split_rational_prime,
)
from hilbert_signs import field_arith
from hilbert_signs.field_arith import _ideal_table

Q = make_field(1)


def all_ideals(K, bound):
    primes = enumerate_prime_ideals(K, bound)
    out = [IdealFactorization.unit(K)]

    def extend(start, current, norm):
        for i in range(start, len(primes)):
            if norm * primes[i].norm > bound:
                break
            m, n = current * IdealFactorization.from_prime(primes[i]), norm * primes[i].norm
            while n <= bound:
                out.append(m)
                extend(i + 1, m, n)
                m, n = m * IdealFactorization.from_prime(primes[i]), n * primes[i].norm

    extend(0, IdealFactorization.unit(K), 1)
    return out


def random_series(K, X, rng, density=0.5, normalized=False):
    coeffs = {}
    for m in all_ideals(K, X):
        if rng.random() < density:
            coeffs[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if normalized:
        coeffs[IdealFactorization.unit(K)] = Fraction(1)
    return FormalSeries(K, X, coeffs)


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
    A = FormalSeries(field5, 200, {IdealFactorization.from_prime(P11a): Fraction(1)})
    B = FormalSeries(field5, 200, {IdealFactorization.from_prime(P11b): Fraction(1)})
    prod = IdealFactorization.from_prime(P11a) * IdealFactorization.from_prime(P11b)
    assert series_mul(A, B).coeffs == {prod: Fraction(1)}


def test_identity_is_neutral(field5):
    rng = random.Random(11)
    A = random_series(field5, 100, rng)
    assert series_mul(identity(field5, 100), A) == A
    assert series_mul(A, identity(field5, 100)) == A


def test_telescoping():
    (P3,) = split_rational_prime(Q, 3)
    u = Fraction(1, 3)
    one_minus = FormalSeries(
        Q, 100, {IdealFactorization.unit(Q): 1, IdealFactorization.from_prime(P3): -u}
    )
    inv = euler_factor_inverse(P3, u, 100)
    assert series_mul(one_minus, inv) == identity(Q, 100)


def test_telescoping_quadratic(field5):
    P5 = split_rational_prime(field5, 5)[0]
    u = Fraction(-2, 5)
    one_minus = FormalSeries(
        field5, 625, {IdealFactorization.unit(field5): 1, IdealFactorization.from_prime(P5): -u}
    )
    assert series_mul(one_minus, euler_factor_inverse(P5, u, 625)) == identity(
        field5, 625
    )


def test_truncation_is_exact_on_survivors(field5):
    rng = random.Random(23)
    A_small = random_series(field5, 40, rng)
    B_small = random_series(field5, 40, rng)
    A_big = FormalSeries(field5, 200, A_small.coeffs)
    B_big = FormalSeries(field5, 200, B_small.coeffs)
    big = series_mul(A_big, B_big)
    small = series_mul(A_small, B_small)
    assert {m: v for m, v in big.coeffs.items() if m.norm <= 40} == small.coeffs


def test_mismatch_errors(field5):
    A = identity(field5, 100)
    with pytest.raises(CutoffMismatch):
        series_mul(A, identity(field5, 50))
    with pytest.raises(FieldMismatch):
        series_mul(A, identity(Q, 100))
    with pytest.raises(FieldMismatch):
        FormalSeries(Q, 100, {IdealFactorization.unit(field5): 1})


def test_index_beyond_cutoff_rejected():
    (P3,) = split_rational_prime(Q, 3)
    with pytest.raises(ValueError):
        FormalSeries(Q, 2, {IdealFactorization.from_prime(P3): 1})


def test_zero_coefficients_dropped(field5):
    A = FormalSeries(field5, 10, {IdealFactorization.unit(field5): 0})
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
    return FormalSeries(field5, 100, coeffs)


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
    unit = IdealFactorization.unit(field5)
    prod = series_mul(A, B)
    for P in enumerate_prime_ideals(field5, 100):
        idx = IdealFactorization.from_prime(P)
        expected = A.coefficient(unit) * B.coefficient(idx) + A.coefficient(
            idx
        ) * B.coefficient(unit)
        assert prod.coefficient(idx) == expected


# ----------------------------------------------------------------------
# the ideal table and the id representation against the dict oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 5, 13])
def test_ideal_table_pairs_are_the_truncated_products(d):
    K, X = make_field(d), 600
    T = _ideal_table(K, X)
    assert list(T.ideals) == sorted(all_ideals(K, X))
    assert all(T.index[m] == i for i, m in enumerate(T.ideals))
    want = {(i, j) for i, m in enumerate(T.ideals) for j, n in enumerate(T.ideals)
            if m.norm * n.norm <= X}
    assert set(zip(T.a.tolist(), T.b.tolist())) == want and len(T.a) == len(want)
    ab = np.repeat(np.arange(len(T.ideals)), np.diff(T.start, append=len(T.a)))
    assert all(T.ideals[k] == T.ideals[i] * T.ideals[j] for i, j, k in zip(T.a, T.b, ab))
    assert T.divisors == np.diff(T.start, append=len(T.a)).max()
    primes = enumerate_prime_ideals(K, X)
    assert [T.ideals[i] for i in T.prime_id] == [IdealFactorization.from_prime(P) for P in primes]
    for i, m in enumerate(T.ideals):
        facs = [(primes[r], e) for k, r, e in zip(T.fac_id, T.fac_row, T.fac_exp) if k == i]
        assert tuple(facs) == m.factors


def test_ideal_table_size_at_10_4(field5):
    T = _ideal_table(field5, 10_000)
    assert (len(T.ideals), len(T.a)) == (4304, 20456)


def test_ideal_table_redraws_colliding_keys(monkeypatch):
    # seed 0 draws every weight as 0, so every key collides; the table must
    # notice and redraw rather than name every product by one id
    real = field_arith.random.Random

    class ZeroFirst(real):
        def __init__(self, seed):
            super().__init__(seed)
            self.zero = seed == 0

        def getrandbits(self, k):
            return 0 if self.zero else super().getrandbits(k)

    monkeypatch.setattr(field_arith.random, "Random", ZeroFirst)
    _ideal_table.cache_clear()
    try:
        K, X = make_field(13), 300
        T = _ideal_table(K, X)
        ab = np.repeat(np.arange(len(T.ideals)), np.diff(T.start, append=len(T.a)))
        assert all(T.ideals[k] == T.ideals[i] * T.ideals[j] for i, j, k in zip(T.a, T.b, ab))
    finally:
        _ideal_table.cache_clear()


def assert_same(fast, ref, pool):
    assert fast.sorted_items() == ref.sorted_items()
    assert repr(fast) == repr(ref)
    assert fast.coeffs == ref.coeffs
    assert all(fast.coefficient(m) == ref.coefficient(m) for m in pool)
    assert fast == FormalSeries(ref.field, ref.cutoff, ref.coeffs)


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
    K = make_field(data.draw(st.sampled_from([1, 5]), label="d"))
    X = data.draw(st.integers(1, 300), label="X")
    pool = all_ideals(K, X)
    picks = st.lists(st.tuples(st.integers(0, len(pool) - 1), _VALUES), max_size=10)
    a = {pool[i]: v for i, v in data.draw(picks, label="A")}
    b = {pool[i]: v for i, v in data.draw(picks, label="B")}
    A, B = FormalSeries(K, X, a), FormalSeries(K, X, b)
    OA, OB = DictSeries(K, X, a), DictSeries(K, X, b)
    assert_same(A, OA, pool)
    assert_same(A * B, dict_series_mul(OA, OB), pool)
    assert (A == B) == (OA == OB)
    tau = data.draw(st.sampled_from([1, 2, 5, 7] if K.is_rational else [(1, 0), (4, 1), (7, 2)]))
    chi = IdealCharacter.from_tau(K, tau)
    zeta, moebius = dict_zeta_series(chi, X), dict_moebius_series(chi, X)
    assert_same(character_zeta_series(chi, X), zeta, pool)
    assert_same(character_moebius_series(chi, X), moebius, pool)
    assert_same(A * character_zeta_series(chi, X), dict_series_mul(OA, zeta), pool)


def test_python_int_lanes_match_the_oracle(field5):
    X = 100
    pool = all_ideals(field5, X)
    a = {pool[1]: Fraction(2**62 + 1, 3), pool[5]: Fraction(-1, 2**32 + 1)}
    b = {pool[0]: Fraction(5, 2**32 + 3), pool[2]: Fraction(-(2**62), 7)}
    A, B = FormalSeries(field5, X, a), FormalSeries(field5, X, b)
    assert A.num.dtype == object and B.num.dtype == object and A.den * B.den > 2**63
    assert_same(A * B, dict_series_mul(DictSeries(field5, X, a), DictSeries(field5, X, b)), pool)
    # every factor fits in 2^31 and every pair product in 2^62, but the sums
    # at ideals with several divisor pairs do not fit in int64
    wide = {m: Fraction(2**31, m.norm) for m in pool}
    W, OW = FormalSeries(field5, X, wide), DictSeries(field5, X, wide)
    assert W.num.dtype == np.int64 and (W * W).num.dtype == object
    assert_same(W * W, dict_series_mul(OW, OW), pool)
    # a product that cancels back into int64 range is stored as int64 again
    inv = FormalSeries(field5, X, {pool[0]: 1 / Fraction(2**62 + 1, 3)})
    assert (inv * FormalSeries(field5, X, {pool[0]: Fraction(2**62 + 1, 3)})).num.dtype == np.int64


def test_coeffs_is_a_read_only_view(field5):
    A = identity(field5, 10)
    with pytest.raises(TypeError):
        A.coeffs[IdealFactorization.unit(field5)] = Fraction(2)
    assert A.coefficient(IdealFactorization.unit(field5)) == 1


# ----------------------------------------------------------------------
# Euler factors
# ----------------------------------------------------------------------


def test_euler_factor_zero_u():
    (P3,) = split_rational_prime(Q, 3)
    assert euler_factor_inverse(P3, 0, 50) == identity(Q, 50)


def test_euler_factor_geometric():
    (P3,) = split_rational_prime(Q, 3)
    A = euler_factor_inverse(P3, Fraction(1, 3), 10)
    unit = IdealFactorization.unit(Q)
    assert A.coeffs == {
        unit: Fraction(1),
        IdealFactorization.from_prime(P3): Fraction(1, 3),
        IdealFactorization.from_prime(P3, 2): Fraction(1, 9),
    }


def test_euler_factor_beyond_cutoff():
    (P3,) = split_rational_prime(Q, 3)
    assert euler_factor_inverse(P3, Fraction(1, 2), 2) == identity(Q, 2)


def test_zeta_equals_iterated_factors(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    X = 300
    zeta = character_zeta_series(chi, X)
    acc = identity(field5, X)
    for P in good_primes(chi, X):
        acc = series_mul(acc, euler_factor_inverse(P, Fraction(value_at(chi, P), P.norm), X))
    assert zeta == acc


@pytest.mark.parametrize("d", [1, 5, 13])
def test_euler_series_indices_equal_their_from_pairs_twins(d):
    # _multiplicative_series makes its index ideals without from_pairs
    K = make_field(d)
    chi = IdealCharacter.from_tau(K, 1)
    for series in (character_zeta_series(chi, 2000), character_moebius_series(chi, 2000)):
        assert len(series.coeffs) > 100
        for m in series.coeffs:
            twin = IdealFactorization.from_pairs(K, m.factors)
            assert type(m) is type(twin) and tuple(m) == tuple(twin)


def test_zeta_times_moebius_is_identity(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    zeta = character_zeta_series(chi, 300)
    moebius = character_moebius_series(chi, 300)
    assert series_mul(zeta, moebius) == identity(field5, 300)


# ----------------------------------------------------------------------
# lifting lambda to c and extracting it back
# ----------------------------------------------------------------------


def test_identity_lambda_gives_zeta(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = identity(field5, 200)
    c = c_series_from_lambda(lam, chi)
    assert c == character_zeta_series(chi, 200)
    for P in good_primes(chi, 200):
        assert c.coefficient(IdealFactorization.from_prime(P)) == Fraction(
            value_at(chi, P), P.norm
        )


def test_all_bad_character_is_empty_product(field5):
    chi = IdealCharacter.from_tau(field5, 30)  # kills 2, 3, 5: every prime of norm <= 10
    assert good_primes(chi, 10) == []
    lam = random_series(field5, 10, random.Random(3), normalized=True)
    assert c_series_from_lambda(lam, chi) == lam


def test_roundtrip_and_residuals_at_1000(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = random_series(field5, 1000, random.Random(91), density=0.35, normalized=True)
    c = c_series_from_lambda(lam, chi)
    assert series_mul(c, character_moebius_series(chi, 1000)) == lam
    for P in good_primes(chi, 1000):
        assert prime_residual(c, lam, chi, P) == 0


def test_prime_square_relation(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = random_series(field5, 1000, random.Random(17), density=0.4, normalized=True)
    c = c_series_from_lambda(lam, chi)
    for P in good_primes(chi, 31):  # norm^2 <= 1000 needs norm <= 31
        sq = IdealFactorization.from_prime(P, 2)
        lhs = c.coefficient(sq) - Fraction(value_at(chi, P), P.norm) * c.coefficient(
            IdealFactorization.from_prime(P)
        )
        assert lhs == lam.coefficient(sq)


def test_all_prime_residuals_at_once_match_each_prime(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    X = 1000
    lam = random_series(field5, X, random.Random(7), density=0.5, normalized=True)
    c = c_series_from_lambda(lam, chi)
    assert not extract_prime_relation(c, lam, chi).any()
    # plant 1/N(P) at one good prime: exactly that residual becomes den(c) den(lam)
    good = good_primes(chi, X)
    P = good[17]
    idx = IdealFactorization.from_prime(P)
    bent = FormalSeries(field5, X, {**c.coeffs, idx: c.coefficient(idx) + Fraction(1, P.norm)})
    r = extract_prime_relation(bent, lam, chi)
    assert len(r) == len(good) and np.flatnonzero(r).tolist() == [17]
    assert r[17] == prime_residual(bent, lam, chi, P) * bent.den * lam.den * P.norm


def test_all_prime_residuals_take_python_ints_past_int64(field5):
    # every numerator fits in int64, but times the other denominator it does not
    chi = IdealCharacter.from_tau(field5, (4, 1))
    X = 200
    big = {IdealFactorization.from_prime(P): Fraction(2**40 + i, 2**31 - 1)
           for i, P in enumerate(good_primes(chi, X))}
    lam = FormalSeries(field5, X, {IdealFactorization.unit(field5): 1, **big})
    c = c_series_from_lambda(lam, chi)
    assert c.num.dtype == lam.num.dtype == np.int64 and c.den * lam.den > 2**61
    r = extract_prime_relation(c, lam, chi)
    assert r.dtype == object and not r.any()


def test_all_prime_residuals_need_one_field_and_cutoff(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = identity(field5, 50)
    c = c_series_from_lambda(lam, chi)
    with pytest.raises(FieldMismatch):
        extract_prime_relation(c, identity(field5, 40), chi)
    with pytest.raises(FieldMismatch):
        extract_prime_relation(c, lam, IdealCharacter.from_tau(Q, 5))


def test_direct_substitution_example():
    chi = IdealCharacter.from_tau(Q, 5)
    (P11,) = split_rational_prime(Q, 11)
    assert value_at(chi, P11) == 1
    unit = IdealFactorization.unit(Q)
    idx = IdealFactorization.from_prime(P11)
    c = FormalSeries(Q, 20, {unit: 1, idx: Fraction(3, 11)})
    lam = FormalSeries(Q, 20, {unit: 1, idx: Fraction(2, 11)})
    assert prime_residual(c, lam, chi, P11) == 0


def test_extract_requires_normalized(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = identity(field5, 20)
    c = FormalSeries(field5, 20, {IdealFactorization.unit(field5): 2})
    with pytest.raises(NotNormalized):
        extract_prime_relation(c, lam, chi)


def test_field_mismatch_in_lift(field5):
    chi = IdealCharacter.from_tau(Q, 5)
    with pytest.raises(FieldMismatch):
        c_series_from_lambda(identity(field5, 10), chi)

