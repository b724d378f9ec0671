"""Point counts: baby-step giant-step against the brute-force loop and the symbol sum."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hilbert_signs import (
    CURVE_REGISTRY,
    BadReduction,
    CurveSpec,
    ValidationError,
    ap_oracle,
    get_curve,
    make_field,
    primes_upto,
    series_from_curve,
    split_rational_prime,
)
from hilbert_signs import curves
from hilbert_signs.curves import _hasse_traces, _mul, ap_bsgs, ap_naive, ap_symbol_sum

# First trace values of the rank-0 and rank-1 workhorses, frozen after
# computing them independently with both counting routes.
FROZEN_AP = {
    "11a": [(2, -2), (3, -1), (5, 1), (7, -2), (13, 4), (17, -2), (19, 0),
            (23, -1), (29, 0), (31, 7), (37, 3), (41, -8), (43, -6), (47, 8),
            (997, 38), (9973, 4)],
    "37a": [(2, -2), (3, -3), (5, -2), (7, -1), (11, -5), (13, -2), (17, 0),
            (19, 0), (23, 2), (29, 6), (31, -4), (41, -9), (43, 2), (47, -9),
            (997, -42), (9973, 154)],
}


def test_registry_contents():
    assert sorted(CURVE_REGISTRY) == ["11a", "32a", "37a", "389a", "5077a"]
    E = get_curve("37a")
    assert (E.a1, E.a2, E.a3, E.a4, E.a6) == (0, 0, 1, -1, 0)


def test_get_curve_unknown():
    with pytest.raises(ValidationError):
        get_curve("9999z")


def test_discriminants_and_bad_primes():
    assert get_curve("11a").discriminant() == -(11**5)
    assert get_curve("37a").discriminant() == 37
    assert get_curve("389a").discriminant() == 389
    assert get_curve("5077a").discriminant() == 5077
    assert get_curve("32a").discriminant() == 64
    assert get_curve("11a").bad_primes() == (11,)
    assert get_curve("32a").bad_primes() == (2,)


def test_singular_model_rejected():
    with pytest.raises(ValidationError):
        CurveSpec(0, 0, 0, 0, 0, "cusp")


def test_hand_counted_traces():
    # y^2 = x^3 - x over F_3: each x makes the cubic 0, giving y = 0 only,
    # so 3 affine points + infinity = 4 and a_3 = 3 + 1 - 4 = 0.
    assert ap_naive(get_curve("32a"), 3) == 0
    assert ap_symbol_sum(get_curve("32a"), 3) == 0
    # y^2 + y = x^3 - x over F_3: cubic is 0 at every x, y^2 + y = 0 has
    # roots y in {0, 2}, so 6 affine points + infinity and a_3 = -3.
    assert ap_naive(get_curve("37a"), 3) == -3


def test_naive_matches_symbol_sum_everywhere():
    for E in CURVE_REGISTRY.values():
        bad = set(E.bad_primes())
        for q in primes_upto(64):
            p = int(q)
            if p in bad or p == 2:
                continue
            assert ap_naive(E, p) == ap_symbol_sum(E, p), (E.label, p)


def test_bsgs_matches_symbol_sum_to_3000():
    # covers every prime where a registry curve's points leave more than one trace
    for E in CURVE_REGISTRY.values():
        bad = set(E.bad_primes())
        for q in primes_upto(3000):
            p = int(q)
            if p >= 5 and p not in bad:
                assert ap_bsgs(E, p) == ap_symbol_sum(E, p), (E.label, p)


SMALL_PRIMES = [int(q) for q in primes_upto(100) if q >= 5]
MESTRE_PRIMES = [int(q) for q in primes_upto(5000) if q >= 230]


@given(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.sampled_from(SMALL_PRIMES) | st.sampled_from(MESTRE_PRIMES),
)
def test_bsgs_on_random_short_curves(a, b, p):
    assume((4 * a**3 + 27 * b**2) % p != 0)
    E = CurveSpec(0, 0, 0, a, b, "short")
    ap = ap_bsgs(E, p)
    assert ap == ap_symbol_sum(E, p)
    if p <= 100:
        assert ap == ap_naive(E, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101])
def test_hasse_traces_at_every_point(p):
    # every affine point, so points of order 2 (y = 0), 3, 4, ... and giant
    # steps that land on O all occur; the oracle multiplies P out for each t
    bound = math.isqrt(4 * p)
    for a, b in ((1, 1), (-1, 0), (0, 1), (2, 3)):
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        for x in range(p):
            for y in range(p):
                if (y * y - x**3 - a * x - b) % p:
                    continue
                want = {
                    t for t in range(-bound, bound + 1) if _mul(p + 1 - t, (x, y), a, p) is None
                }
                assert _hasse_traces((x, y), a, p) == want, (a, b, p, x, y)


def test_32a_at_5_falls_back_to_the_symbol_sum(monkeypatch):
    calls = []

    def spy(E, p):
        calls.append(p)
        return ap_symbol_sum(E, p)

    monkeypatch.setattr(curves, "ap_symbol_sum", spy)
    assert ap_oracle(get_curve("32a"), 5) == -2
    assert calls == [5]


def test_frozen_traces():
    for label, pairs in FROZEN_AP.items():
        E = get_curve(label)
        for p, expected in pairs:
            assert ap_oracle(E, p) == expected, (label, p)


def test_hasse_bound_holds():
    for E in CURVE_REGISTRY.values():
        bad = set(E.bad_primes())
        for q in primes_upto(2000):
            p = int(q)
            if p in bad:
                continue
            ap = ap_oracle(E, p)
            assert ap * ap <= 4 * p


def test_bad_reduction_raises():
    with pytest.raises(BadReduction):
        ap_naive(get_curve("11a"), 11)
    with pytest.raises(BadReduction):
        ap_symbol_sum(get_curve("37a"), 37)
    with pytest.raises(BadReduction):
        ap_oracle(get_curve("32a"), 2)
    with pytest.raises(ValueError):
        ap_symbol_sum(get_curve("11a"), 2)  # even p needs the naive route


def test_oracle_rejects_impossible_trace(monkeypatch):
    monkeypatch.setattr("hilbert_signs.curves.ap_symbol_sum", lambda E, p: 7)
    with pytest.raises(ArithmeticError):
        ap_oracle(get_curve("37a"), 3)  # 49 > 12


def test_series_from_curve():
    E = series_from_curve(get_curve("37a"), 100)
    assert E.weight == (2,) and E.label == "37a"
    assert E.level_support == {2, 37}
    Q = make_field(1)
    (P5,) = split_rational_prime(Q, 5)
    assert E.entries[P5] == Fraction(-2, 5)
    (P2,) = split_rational_prime(Q, 2)
    assert E.entries[P2] == Fraction(-2, 2)  # 2 is a good prime for 37a
    (P37,) = split_rational_prime(Q, 37)
    assert P37 not in E.entries
    assert len(E.entries) == 24  # pi(100) minus the one bad prime


def test_series_from_curve_level_keeps_two():
    E = series_from_curve(get_curve("11a"), 50)
    assert E.level_support == {2, 11}
