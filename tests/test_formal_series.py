"""Ideal-indexed series: Cauchy products, Euler factors, prime extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import euler_factor_inverse

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
from hilbert_signs.formal_series import good_primes

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
    assert series_mul(FormalSeries.identity(field5, 100), A) == A
    assert series_mul(A, FormalSeries.identity(field5, 100)) == A


def test_telescoping():
    (P3,) = split_rational_prime(Q, 3)
    u = Fraction(1, 3)
    one_minus = FormalSeries(
        Q, 100, {IdealFactorization.unit(Q): 1, IdealFactorization.from_prime(P3): -u}
    )
    inv = euler_factor_inverse(P3, u, 100)
    assert series_mul(one_minus, inv) == FormalSeries.identity(Q, 100)


def test_telescoping_quadratic(field5):
    P5 = split_rational_prime(field5, 5)[0]
    u = Fraction(-2, 5)
    one_minus = FormalSeries(
        field5, 625, {IdealFactorization.unit(field5): 1, IdealFactorization.from_prime(P5): -u}
    )
    assert series_mul(one_minus, euler_factor_inverse(P5, u, 625)) == FormalSeries.identity(
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
    A = FormalSeries.identity(field5, 100)
    with pytest.raises(CutoffMismatch):
        series_mul(A, FormalSeries.identity(field5, 50))
    with pytest.raises(FieldMismatch):
        series_mul(A, FormalSeries.identity(Q, 100))
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
# Euler factors
# ----------------------------------------------------------------------


def test_euler_factor_zero_u():
    (P3,) = split_rational_prime(Q, 3)
    assert euler_factor_inverse(P3, 0, 50) == FormalSeries.identity(Q, 50)


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
    assert euler_factor_inverse(P3, Fraction(1, 2), 2) == FormalSeries.identity(Q, 2)


def test_zeta_equals_iterated_factors(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    X = 300
    zeta = character_zeta_series(chi, X)
    acc = FormalSeries.identity(field5, X)
    for P in good_primes(chi, X):
        acc = series_mul(acc, euler_factor_inverse(P, Fraction(chi.value_at(P), P.norm), X))
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
    assert series_mul(zeta, moebius) == FormalSeries.identity(field5, 300)


# ----------------------------------------------------------------------
# lifting lambda to c and extracting it back
# ----------------------------------------------------------------------


def test_identity_lambda_gives_zeta(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = FormalSeries.identity(field5, 200)
    c = c_series_from_lambda(lam, chi)
    assert c == character_zeta_series(chi, 200)
    for P in good_primes(chi, 200):
        assert c.coefficient(IdealFactorization.from_prime(P)) == Fraction(
            chi.value_at(P), P.norm
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
        assert extract_prime_relation(c, lam, chi, P) == 0


def test_prime_square_relation(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = random_series(field5, 1000, random.Random(17), density=0.4, normalized=True)
    c = c_series_from_lambda(lam, chi)
    for P in good_primes(chi, 31):  # norm^2 <= 1000 needs norm <= 31
        sq = IdealFactorization.from_prime(P, 2)
        lhs = c.coefficient(sq) - Fraction(chi.value_at(P), P.norm) * c.coefficient(
            IdealFactorization.from_prime(P)
        )
        assert lhs == lam.coefficient(sq)


def test_direct_substitution_example():
    chi = IdealCharacter.from_tau(Q, 5)
    (P11,) = split_rational_prime(Q, 11)
    assert chi.value_at(P11) == 1
    unit = IdealFactorization.unit(Q)
    idx = IdealFactorization.from_prime(P11)
    c = FormalSeries(Q, 20, {unit: 1, idx: Fraction(3, 11)})
    lam = FormalSeries(Q, 20, {unit: 1, idx: Fraction(2, 11)})
    assert extract_prime_relation(c, lam, chi, P11) == 0


def test_extract_requires_normalized(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    P3 = split_rational_prime(field5, 3)[0]
    lam = FormalSeries.identity(field5, 20)
    c = FormalSeries(field5, 20, {IdealFactorization.unit(field5): 2})
    with pytest.raises(NotNormalized):
        extract_prime_relation(c, lam, chi, P3)


def test_extract_rejects_bad_prime_and_overflow(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lam = FormalSeries.identity(field5, 20)
    c = c_series_from_lambda(lam, chi)
    P2 = split_rational_prime(field5, 2)[0]
    with pytest.raises(ValueError):
        extract_prime_relation(c, lam, chi, P2)  # norm 4 is in the bad set
    P29 = split_rational_prime(field5, 29)[0]
    with pytest.raises(ValueError):
        extract_prime_relation(c, lam, chi, P29)  # beyond the cutoff


def test_field_mismatch_in_lift(field5):
    chi = IdealCharacter.from_tau(Q, 5)
    with pytest.raises(FieldMismatch):
        c_series_from_lambda(FormalSeries.identity(field5, 10), chi)

