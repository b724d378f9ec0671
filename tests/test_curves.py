"""Point counts: baby-step giant-step against the brute-force loop and the symbol sum.

The library's BSGS runs on int64 numpy lanes, one prime per lane; the
one-prime Python-int BSGS it replaced lives in oracles.py, and the lanes
are checked against it point by point.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hilbert_signs import curves
from hilbert_signs.curves import (
    CURVE_REGISTRY,
    CurveSpec,
    _ap_lanes,
    _traces_lanes,
    ap_naive,
    ap_oracle,
    ap_symbol_sum,
    get_curve,
    series_from_curve,
)
from hilbert_signs.errors import BadReduction, ValidationError
from hilbert_signs.field_arith import (
    TABLE_MAX_X,
    _is_prime,
    make_field,
    primes_upto,
    split_rational_prime,
)
from oracles import hasse_traces, point_mul, scalar_ap_bsgs

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
    # covers every prime where a registry curve's points leave more than one
    # trace; all primes of a curve run as the lanes of one chunk
    for E in CURVE_REGISTRY.values():
        p = primes_upto(3000)
        p = p[(p >= 5) & ~np.isin(p, E.bad_primes())]
        want = [ap_symbol_sum(E, q) for q in p.tolist()]
        assert _ap_lanes(E, p).tolist() == want, E.label


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
    ap = int(_ap_lanes(E, np.array([p]))[0])
    assert ap == ap_symbol_sum(E, p)
    if p <= 100:
        assert ap == ap_naive(E, p)


SHORT_CURVES = ((1, 1), (-1, 0), (0, 1), (2, 3))


def affine_points(a, b, p):
    return [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0]


def lane_traces(points, a, p):
    """The lane kernel's trace sets, one point per lane of a single call."""
    x, y = (np.array(c, dtype=np.int64) for c in zip(*points))
    lane, t = _traces_lanes(x, y, np.full_like(x, a % p), np.full_like(x, p))
    found = [set() for _ in points]
    for i, s in zip(lane.tolist(), t.tolist()):
        found[i].add(s)
    return found


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101])
def test_hasse_traces_at_every_point(p):
    # every affine point, so points of order 2 (y = 0), 3, 4, ... and giant
    # steps that land on O all occur; the oracle multiplies P out for each t,
    # and the lane kernel runs each point as a lane of its own
    bound = math.isqrt(4 * p)
    for a, b in SHORT_CURVES:
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        for P in affine_points(a, b, p):
            want = {t for t in range(-bound, bound + 1) if point_mul(p + 1 - t, P, a, p) is None}
            assert hasse_traces(P, a, p) == want, (a, b, p, P)
            assert lane_traces([P], a, p) == [want], (a, b, p, P)


@pytest.mark.parametrize("p", [13, 101, 1009])
def test_hasse_traces_of_every_point_in_one_chunk(p):
    for a, b in SHORT_CURVES:
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        points = affine_points(a, b, p)
        assert lane_traces(points, a, p) == [hasse_traces(P, a, p) for P in points], (a, b, p)


def test_32a_at_5_falls_back_to_the_symbol_sum(monkeypatch):
    calls = []

    def spy(E, p):
        calls.append(p)
        return ap_symbol_sum(E, p)

    monkeypatch.setattr(curves, "ap_symbol_sum", spy)
    assert _ap_lanes(get_curve("32a"), np.array([5])).tolist() == [-2]
    assert calls == [5]
    # in a series the lanes fall back at the same primes, and p = 3 takes
    # the symbol sum as its route
    calls.clear()
    series_from_curve(get_curve("32a"), 30)
    assert sorted(calls) == [3, 5, 7, 11, 29]


# A pass holds 4 _LANES // 14 lanes at X = 5000 (tables of m + 2 = 14 rows):
# one lane at 1 (and at 3), 18 at 64 and 285 at 1000.
@pytest.mark.parametrize("lanes", [1, 64, 1000])
def test_chunk_boundaries_leave_the_series_unchanged(monkeypatch, lanes):
    want = {label: series_from_curve(E, 5000).num for label, E in CURVE_REGISTRY.items()}
    monkeypatch.setattr(curves, "_LANES", lanes)
    for label, E in CURVE_REGISTRY.items():
        assert np.array_equal(series_from_curve(E, 5000).num, want[label]), label


def test_lanes_at_primes_in_the_tens_of_thousands():
    E = get_curve("37a")
    p = np.array([10007, 30011, 65521, 99991], dtype=np.int64)
    assert _ap_lanes(E, p).tolist() == [ap_symbol_sum(E, q) for q in p.tolist()]


def test_lanes_at_the_largest_primes_the_table_allows():
    # every residue product is then near 2^63, so a product left unreduced
    # before its "% p" wraps around and the traces come out wrong
    top, q = [], TABLE_MAX_X
    while len(top) < 3:
        top += [q] if _is_prime(q) else []
        q -= 1
    for E in (get_curve("37a"), get_curve("5077a")):
        want = [scalar_ap_bsgs(E, q) for q in top]
        assert _ap_lanes(E, np.array(top, dtype=np.int64)).tolist() == want, E.label
        assert [int(_ap_lanes(E, np.array([q]))[0]) for q in top] == want, E.label


def test_frozen_traces():
    for label, pairs in FROZEN_AP.items():
        E = get_curve(label)
        for p, expected in pairs:
            assert ap_oracle(E, p) == expected, (label, p)


def test_hasse_bound_holds():
    for E in CURVE_REGISTRY.values():
        p = primes_upto(2000)
        p = p[~np.isin(p, E.bad_primes())]
        ap = np.array([ap_oracle(E, q) for q in p[p < 5].tolist()] + _ap_lanes(E, p[p >= 5]).tolist())
        assert (ap * ap <= 4 * p).all(), E.label


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


def test_series_rejects_impossible_lane_trace(monkeypatch):
    monkeypatch.setattr(curves, "_ap_lanes", lambda E, p: np.where(p == 53, 15, 0))
    with pytest.raises(ArithmeticError, match="a_53 = 15"):
        series_from_curve(get_curve("37a"), 100)  # 225 > 212


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
