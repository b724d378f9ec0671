"""Normalizations, exact sign extraction, tallies, and the tail inequality.

The tail inequality is decided by the tail_inequality oracle of
tests/oracles.py, which checks a survey's signs against the
coefficients it was built from.  The survey's chunked kernel is checked
lane by lane against the scalar lambda_sign and sato_tate_coordinate
there.
"""

import hashlib
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    enumerate_prime_ideals,
    hasse_columns_by_row,
    lambda_sign,
    sato_tate_coordinate,
    save_fixture,
    series_from_entries,
    split_rational_prime,
    tail_inequality,
    value_at,
)

from hilbert_signs import sign_pipeline
from hilbert_signs.characters import IdealCharacter
from hilbert_signs.cli import TALLY_CSV_HEADER, density_string, main
from hilbert_signs.errors import HilbertSignsError
from hilbert_signs.field_arith import _prime_table, make_field
from hilbert_signs.sato_tate import synth_eigen_series
from hilbert_signs.sign_pipeline import EigenvalueSeries, SignSurvey

Q = make_field(1)


def series_over_Q(X, cfun, weight=(2,), label="test"):
    entries = {P: cfun(P) for P in enumerate_prime_ideals(Q, X)}
    return series_from_entries(Q, weight, label, entries, X)


def seeded_series_over_Q(X, seed, weight=(2,)):
    rng = random.Random(seed)

    def cfun(P):
        c = Fraction(rng.randint(-1000, 1000), 1000)
        while c * c * P.norm > 4:
            c = Fraction(c.numerator - (1 if c > 0 else -1), 1000)
        return c

    return series_over_Q(X, cfun, weight=weight, label=f"seeded-{seed}")


# ----------------------------------------------------------------------
# pointwise maps
# ----------------------------------------------------------------------


def test_sato_tate_coordinate_examples():
    assert sato_tate_coordinate(Fraction(0), 11) == 0.0
    B = sato_tate_coordinate(Fraction(-2, 11), 11)  # a_11 = -2
    assert B == pytest.approx(-1 / 11**0.5, abs=1e-15)
    assert abs(B + 0.30151) < 1e-5


def test_sato_tate_bound_is_exact():
    # cN = 199/30 and (199/30)^2 * 900 = 39601 > 39600 = 44 * 900:
    # barely over 2*sqrt(11)
    with pytest.raises(HilbertSignsError, match=r"^\|c\| = \|199/330\| exceeds 2/sqrt\(11\)$"):
        sato_tate_coordinate(Fraction(199, 330), 11)
    assert sato_tate_coordinate(Fraction(6633, 11000), 11) < 1


def test_sato_tate_boundary_allowed():
    # norm 9 has rational 2 sqrt(N) = 6, so cN = +-6 gives B = +-1 exactly
    assert sato_tate_coordinate(Fraction(6, 9), 9) == 1.0
    assert sato_tate_coordinate(Fraction(-6, 9), 9) == -1.0
    with pytest.raises(HilbertSignsError, match=r"exceeds 2/sqrt\(9\)$"):
        sato_tate_coordinate(Fraction(6000000000001, 9 * 10**12), 9)


def test_lambda_sign_examples():
    assert lambda_sign(Fraction(3, 11), 1, 11) == 1
    assert lambda_sign(Fraction(1, 11), 1, 11) == 0
    assert lambda_sign(Fraction(0), -1, 11) == 1
    assert lambda_sign(Fraction(-3, 7), -1, 7) == -1


def test_lambda_sign_near_tie_is_exact():
    eps = Fraction(1, 10**18)
    assert lambda_sign(Fraction(1, 11) + eps, 1, 11) == 1
    assert lambda_sign(Fraction(1, 11) - eps, 1, 11) == -1
    # the float route collapses the same difference to zero
    assert float(Fraction(1, 11) + eps) - float(Fraction(1, 11)) == 0.0


@given(
    num=st.integers(min_value=-(10**6), max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
    chi=st.sampled_from([-1, 1]),
    norm=st.sampled_from([3, 5, 7, 11, 101, 9973]),
)
def test_lambda_sign_matches_high_precision_float(num, den, chi, norm):
    c = Fraction(num, den)
    with mpmath.workprec(256):
        v = mpmath.mpf(num) / den - mpmath.mpf(chi) / norm
        if abs(v) > mpmath.mpf("1e-30"):
            assert lambda_sign(c, chi, norm) == (1 if v > 0 else -1)
        else:
            assert lambda_sign(c, chi, norm) == 0


@given(
    chi=st.sampled_from([-1, 1]),
    norm=st.integers(min_value=2, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**40),
    offset=st.sampled_from([-1, 0, 1]),
)
def test_lambda_sign_matches_fraction_at_the_boundary(chi, norm, den, offset):
    # c = chi/N exactly, or one step of 1/den to either side of it
    c = Fraction(chi, norm) + Fraction(offset, den)
    lam = c - Fraction(chi, norm)
    assert lambda_sign(c, chi, norm) == (lam > 0) - (lam < 0) == offset


# ----------------------------------------------------------------------
# series container validation
# ----------------------------------------------------------------------


def test_series_rejects_bad_weight():
    with pytest.raises(HilbertSignsError, match="^weights must be even integers >= 2, got \\(3,\\)$"):
        EigenvalueSeries(Q, (3,), "odd", 1, [], [])
    with pytest.raises(HilbertSignsError, match="^weights must be even integers >= 2, got \\(0,\\)$"):
        EigenvalueSeries(Q, (0,), "small", 1, [], [])
    with pytest.raises(HilbertSignsError, match="^weights must be even integers >= 2, got \\(\\)$"):
        EigenvalueSeries(Q, (), "empty", 1, [], [])


def test_series_rejects_hasse_violation(field5):
    (P3,) = split_rational_prime(Q, 3)
    with pytest.raises(HilbertSignsError, match=r"^fat: \|c\(\(3\)\)\| = \|2\| exceeds 2/sqrt\(3\)$"):
        series_from_entries(Q, (2,), "fat", {P3: Fraction(2)}, 3)
    ok = series_from_entries(Q, (2,), "edge", {P3: Fraction(1)}, 3)  # 1*1*3 <= 4
    assert ok.entries[P3[:3]] == 1
    # the inert prime above 3 in Q(sqrt5) has N = 9, where c = 2/3 sits on the bound
    (P9,) = split_rational_prime(field5, 3)
    on_bound = series_from_entries(field5, (2,), "on", {P9: Fraction(2, 3)}, 9)  # c^2 N = 4
    assert on_bound.entries[P9[:3]] == Fraction(2, 3)
    with pytest.raises(HilbertSignsError, match=r"^over: .* exceeds 2/sqrt\(9\)$"):
        series_from_entries(field5, (2,), "over", {P9: Fraction(2, 3) + Fraction(1, 10**30)}, 9)


def test_series_columns_must_cover_the_table():
    with pytest.raises(ValueError, match="columns of 1 and 1 rows, for 2 primes"):
        EigenvalueSeries(Q, (2,), "short", 3, [0], [1])  # (2) and (3)
    E = EigenvalueSeries(Q, (2,), "two", 3, [0, 2], [0, -4])
    assert (E.num.tolist(), E.den.tolist(), E.num.dtype) == ([0, -2], [0, 4], np.int64)


def test_k0_is_max_component():
    E = EigenvalueSeries(Q, (2, 4), "mixed", 1, [], [])
    assert E.weight == (2, 4) and max(E.weight) == 4


# ----------------------------------------------------------------------
# tallies
# ----------------------------------------------------------------------


def test_forced_positive_tally():
    # c = 2/N makes lambda = (2 - chi)/N > 0 at every good prime
    E = series_over_Q(300, lambda P: Fraction(2, P.norm))
    t = SignSurvey(E, 1)
    assert t.pos == t.total - t.bad and t.neg == 0 and t.zero == 0
    assert t.bad == 1  # only the prime above 2


def test_forced_zero_tally():
    E = series_over_Q(300, lambda P: Fraction(1, P.norm))
    t = SignSurvey(E, 1)  # chi = +1 off the bad set, so c = chi/N
    assert t.zero == t.total - t.bad and t.pos == 0 and t.neg == 0


def test_tally_partition_and_monotonicity():
    # the seeded series at x is the prefix of the one at 2000
    prev = None
    for x in (50, 100, 400, 900, 1600, 2000):
        t = SignSurvey(seeded_series_over_Q(x, 7), 5)
        assert t.pos + t.neg + t.zero + t.bad == t.total
        if prev is not None:
            assert t.pos >= prev.pos and t.neg >= prev.neg
            assert t.zero >= prev.zero and t.bad >= prev.bad
        prev = t


def test_survey_matches_fresh_tally():
    # the seeded series at 400 is the prefix of the one at 1000, and so is its survey
    whole, part = SignSurvey(seeded_series_over_Q(1000, 13), 5), SignSurvey(seeded_series_over_Q(400, 13), 5)
    assert (whole.x, part.x) == (1000, 400)
    s = whole.signs[: len(part.signs)]
    assert np.array_equal(part.signs, s)
    assert part.coords.tobytes() == whole.coords[: len(part.coords)].tobytes()
    t = part
    assert (t.pos, t.neg, t.zero, t.bad, t.total) == (sum(s > 0), sum(s < 0), sum(s == 0), 2, 78)  # (2), (5); pi(400)
    # a series whose primes are all bad needs no coefficient
    empty = EigenvalueSeries(Q, (2,), "empty", 2, [0], [0])
    t = SignSurvey(empty, 1)
    assert (t.total, t.bad, t.pos + t.neg + t.zero) == (1, 1, 0)


def test_missing_prime():
    entries = {P: Fraction(0) for P in enumerate_prime_ideals(Q, 100)}
    del entries[split_rational_prime(Q, 97)[0]]
    E = series_from_entries(Q, (2,), "gappy", entries, 100)
    with pytest.raises(HilbertSignsError, match=r"gappy: no coefficient at good prime \(97\)$"):
        SignSurvey(E, 1)
    # but a series to a tighter cutoff never touches the gap
    below = series_from_entries(Q, (2,), "gappy", {P: c for P, c in entries.items() if P.norm <= 90}, 90)
    assert SignSurvey(below, 1).total == 24


def test_first_fault_in_canonical_order_is_raised():
    entries = {P: Fraction(0) for P in enumerate_prime_ideals(Q, 100)}
    P7, P53, P97 = (split_rational_prime(Q, p)[0] for p in (7, 53, 97))
    del entries[P53], entries[P97]
    E = series_from_entries(Q, (2,), "faulty", entries, 100)
    # ingestion is the one Hasse gate: no value can be put past it afterwards
    with pytest.raises(TypeError):
        E.entries[P7[:3]] = Fraction(1)
    with pytest.raises(ValueError, match="read-only"):
        E.num[3] = 1
    with pytest.raises(ValueError, match="read-only"):
        E.den[3] = 1
    with pytest.raises(HilbertSignsError, match=r"\(53\)"):  # the first gap is named
        SignSurvey(E, 1)


# Mersenne primes, so that every nonzero numerator keeps the whole denominator
PAST_2_53, PAST_2_63 = 2**61 - 1, 2**89 - 1
CHUNK = 64  # lanes per chunk in the surveys of the mixed-lane series


def mixed_lane_series():
    """A series over Q to 20000 whose surveys with tau = 5, taken CHUNK lanes
    at a time, mix chunks that fit int64 with chunks that need Python ints.

    The synthetic coefficients (denominator 10^12) fit int64, and so does
    c = chi/N, planted at every 37th good prime.  Chunk 0 holds (3), where
    |c_num| N = 2^53 + 1, and chunk 12 holds (6361), where |c_num| N = 2^53 - 1
    and no other plant sits.  Every third other chunk holds chi/N +- 10^-30
    plants.  Chunk 7 needs Python ints for its last lane only (a denominator
    past 2^63), chunk 13 for its first lane and a middle one (denominators
    past 2^53), and the last, short chunk for its last lane.
    """
    X, limit = 20000, 2**53
    E = synth_eigen_series(Q, X, 2, 3)
    chi = IdealCharacter.from_tau(Q, 5)
    good = [P for P in enumerate_prime_ideals(Q, X) if value_at(chi, P)]
    entries = dict(E.entries)
    rng = random.Random(5)

    def on_grid(P, D):  # a coefficient with denominator D inside the Hasse bound
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, D // math.isqrt(P.norm)), D)

    for P in good[3::37]:
        entries[P[:3]] = Fraction(value_at(chi, P), P.norm)
    for k in (k for k in range(3, len(good) // CHUNK, 3) if k != 12):
        for P in good[k * CHUNK + 2 : (k + 1) * CHUNK : 7]:
            tiny = Fraction(rng.choice((-1, 1)), 10**30)
            entries[P[:3]] = Fraction(value_at(chi, P), P.norm) + tiny
    for i, D in ((8 * CHUNK - 1, PAST_2_63), (13 * CHUNK, PAST_2_53), (13 * CHUNK + 30, PAST_2_53)):
        entries[good[i][:3]] = on_grid(good[i], D)
    entries[good[-1][:3]] = on_grid(good[-1], PAST_2_63)
    (P3,), (P6361,) = split_rational_prime(Q, 3), split_rational_prime(Q, 6361)
    num = (limit + 1) // 3
    entries[P3[:3]] = Fraction(-num, num + 1)
    num = (limit - 1) // 6361
    entries[P6361[:3]] = Fraction(num, 40 * num + 1)
    assert good.index(P3) // CHUNK == 0 and good.index(P6361) // CHUNK == 12
    return series_from_entries(Q, (2,), "mixed-lanes", entries, X), chi, good


def test_survey_lanes_match_scalar_decisions(monkeypatch):
    E, chi, good = mixed_lane_series()
    sent, to_ints = [], sign_pipeline._python_ints

    def spy(c, d, N):
        sent.append(N.tolist())
        return to_ints(c, d, N)

    whole = SignSurvey(E, 5)  # one chunk
    monkeypatch.setattr(sign_pipeline, "_LANES", CHUNK)
    monkeypatch.setattr(sign_pipeline, "_python_ints", spy)
    survey = SignSurvey(E, 5)
    zero, entries = 0, E.entries  # a view built on each read: read it once
    # the lanes past 2^53, and they alone, go to Python ints, one call per chunk that holds any
    wide = [i for i, P in enumerate(good) if max(abs(entries[P[:3]].numerator) * P.norm, entries[P[:3]].denominator) > 2**53]
    assert sorted({i // CHUNK for i in wide}) == [0, 3, 6, 7, 9, 13, 15, 18, 21, 24, 27, 30, 33, 35]
    assert len(sent) == 14 and sum(sent, []) == [good[i].norm for i in wide]
    assert np.array_equal(survey.signs, whole.signs)
    assert survey.coords.tobytes() == whole.coords.tobytes()
    for P, s, b in zip(good, survey.signs.tolist(), survey.coords.tolist()):
        c = entries[P[:3]]
        assert s == lambda_sign(c, value_at(chi, P), P.norm)
        assert b == sato_tate_coordinate(c, P.norm)  # bit for bit
        zero += s == 0
    assert zero > 50


# ----------------------------------------------------------------------
# the gate's and the survey's int64 routes, at their boundaries
# ----------------------------------------------------------------------

GATE_NORMS = (1, 2, 3, 4, 5, 9, 11, 49, 10007, 999983, 2**61 - 1)
EDGE_INTS = (2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 13, 10**30 + 7)


class Row(int):
    """A row index named in the gate's error, with the norm the message prints."""

    def __new__(cls, i, norm):
        row = super().__new__(cls, i)
        row.norm = norm
        return row

    def __str__(self):
        return f"row {int(self)}"


@st.composite
def gate_rows(draw):
    """(N, num, den): empty, inside the bound, on it, one past it, or a raw edge integer."""
    N = draw(st.sampled_from(GATE_NORMS))
    kind = draw(st.sampled_from(("empty", "inside", "edge", "over", "raw")))
    if kind == "empty":
        return N, 0, 0
    den = draw(st.one_of(st.sampled_from((1, 10**12, *EDGE_INTS)), st.integers(1, 2**66)))
    top = math.isqrt(4 * den * den // N)  # the largest |num| with num^2 N <= 4 den^2
    num = {
        "inside": lambda: draw(st.integers(-top, top)),
        "edge": lambda: top,
        "over": lambda: top + 1,
        "raw": lambda: draw(st.sampled_from(EDGE_INTS)),
    }[kind]()
    scale = draw(st.sampled_from((1, 3, 2**20)))  # a common factor for the reduction
    return N, draw(st.sampled_from((1, -1))) * num * scale, draw(st.sampled_from((1, -1))) * den * scale


def gate_or_error(gate, norm, num, den):
    try:
        return gate("g", lambda i: Row(i, int(norm[i])), norm, num, den)
    except HilbertSignsError as e:
        return str(e)


@settings(max_examples=300)
@given(st.lists(gate_rows(), min_size=1, max_size=30), st.sampled_from((2, 5, 64)), st.booleans())
def test_gate_matches_the_row_by_row_reference(rows, lanes, as_int64):
    # int64 rows, Python-int rows past 2^62, rows in the float's 2^-40 band and
    # over the bound, in chunks of `lanes`: the same columns or the same first error
    norm, num, den = (list(c) for c in zip(*rows))
    if as_int64 and all(-(2**63) <= v < 2**63 for v in num + den):
        num, den = np.array(num, dtype=np.int64), np.array(den, dtype=np.int64)
    want = gate_or_error(hasse_columns_by_row, norm, num, den)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sign_pipeline, "_LANES", lanes)
        got = gate_or_error(sign_pipeline._hasse_columns, np.array(norm, dtype=np.int64), num, den)
    if isinstance(want, str):
        assert got == want
        return
    for col, values in zip(got, want):
        assert col.tolist() == values and not col.flags.writeable
        assert col.dtype == (np.int64 if max(map(abs, values)) < 2**63 else object)


def test_gate_rows_the_floats_cannot_tell_are_decided_exactly():
    # den < 2^62, so the row takes the int64 route; on the bound it is within
    # 2^-40 of it, where the float check says "over", and one past it is over
    N, den = 5, 2**61 + 1
    top = math.isqrt(4 * den * den // N)
    assert float(top) ** 2 * N > 4.0 * float(den) ** 2 * (1 - 2.0**-40)
    norm = np.full(6, N)
    num, dens = np.array([0, top, 1, -top, 2, top]), np.full(6, den)
    a, b = sign_pipeline._hasse_columns("g", lambda i: Row(i, N), norm, num, dens)
    assert a.dtype == b.dtype == np.int64 and a.tolist() == num.tolist()
    num[4] = top + 1  # the chunk of 3 that holds row 4 also holds an exact row on the bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sign_pipeline, "_LANES", 3)
        with pytest.raises(HilbertSignsError, match=f"c\\(row 4\\)\\| = \\|{top + 1}/{den}\\|"):
            sign_pipeline._hasse_columns("g", lambda i: Row(i, N), norm, num, dens)


def test_gate_takes_integers_past_the_float_range():
    big = 10**400  # float(big) overflows; such rows go to Python ints by size
    norm, num, den = [1, 4, 9], [big, -(2**70), 2 * big], [big, 2**70 + 2**69, 3 * big]
    a, b = sign_pipeline._hasse_columns("g", lambda i: Row(i, norm[i]), norm, num, den)
    assert (a.tolist(), b.tolist()) == hasse_columns_by_row("g", None, norm, num, den)
    num[2] = 7 * big
    with pytest.raises(HilbertSignsError, match=r"c\(row 2\)\| = \|7/3\|"):
        sign_pipeline._hasse_columns("g", lambda i: Row(i, norm[i]), norm, num, den)


INT64_EDGES = (2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**64 + 13, 10**400, -(10**400))


@pytest.mark.parametrize("dtype", [object, np.int64])
def test_int64_rows_fit_exactly_the_values_within_2_63(dtype):
    values = [v for v in (0, -7, *INT64_EDGES) if dtype is object or -(2**63) <= v < 2**63]
    lanes, fits = sign_pipeline._int64_rows(np.array(values, dtype=dtype))
    assert fits.dtype == bool and fits.tolist() == [abs(v) < 2**63 for v in values]
    assert lanes.dtype == np.int64 and lanes[fits].tolist() == [v for v in values if abs(v) < 2**63]


def gate_refusal(gate, norm, num, den):
    try:
        gate("g", lambda i: Row(i, int(norm[i])), norm, num, den)
    except (HilbertSignsError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("top", [5, -5, 10**30])
@pytest.mark.parametrize("over", [None, 1, 5])
def test_a_coefficient_over_zero_is_refused_at_its_row(top, over):
    # row 3 is top/0, and row `over` is 3/1, over the bound: before it in its
    # chunk of 4 rows, or after it in the next chunk; the first is named
    norm = [2, 3, 5, 7, 11, 13, 17, 19]
    num, den = [0] * 8, [1] * 8
    num[3], den[3] = top, 0
    if over is not None:
        num[over] = 3
    if over == 1:
        want = (HilbertSignsError, "g: |c(row 1)| = |3| exceeds 2/sqrt(3)")
    else:
        want = (ValueError, f"g: c(row 3) = {top}/0 has a zero denominator")
    assert gate_refusal(hasse_columns_by_row, norm, num, den) == want
    columns = [np.array(num, dtype=object)] + [np.array(num)] * (abs(top) < 2**63)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sign_pipeline, "_LANES", 4)
        for column in columns:
            assert gate_refusal(sign_pipeline._hasse_columns, np.array(norm), column, np.array(den)) == want
    num[1] = 0  # row 1 within the bound: the constructor names row 3, the prime (7)
    with pytest.raises(ValueError, match=rf"^x: c\(\(7\)\) = {top}/0 has a zero denominator$"):
        EigenvalueSeries(Q, (2,), "x", 20, num, den)


# |c_num| N at 2^53 - 1, 2^53, 2^53 + 1 and 2^63 - 1, 2^63, 2^63 + 1, as (c_num, N)
SURVEY_EDGES = (
    ((2**53 - 1) // 6361, 6361), (2**51, 4), ((2**53 + 1) // 3, 3),
    ((2**63 - 1) // 7, 7), (2**61, 4), ((2**63 + 1) // 3, 3),
)


@st.composite
def survey_lanes(draw):
    """(c, chi, N) for a good prime, with |c_num| N at or next to 2^53 or 2^63, or small."""
    num, N = draw(st.one_of(st.sampled_from(SURVEY_EDGES), st.tuples(st.integers(0, 10**6), st.sampled_from(GATE_NORMS[:9]))))
    den = (math.isqrt(N) + 1) * num + draw(st.integers(1, 9))  # keeps c^2 N <= 4
    return Fraction(draw(st.sampled_from((1, -1))) * num, den), draw(st.sampled_from((1, -1))), N


@given(st.lists(survey_lanes(), min_size=1, max_size=20), st.sampled_from((1, 2, 7)))
def test_survey_lanes_at_the_int64_boundaries(lanes, width):
    c, chi, N = zip(*lanes)
    num, den = ([getattr(x, part) for x in c] for part in ("numerator", "denominator"))
    cols = [np.array(v, dtype=np.int64 if max(map(abs, v)) < 2**63 else object) for v in (num, den)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sign_pipeline, "_LANES", width)
        signs, coords = sign_pipeline._sign_lanes(*cols, np.array(chi, np.int8), np.array(N, np.int64))
    assert signs.tolist() == [lambda_sign(x, v, n) for x, v, n in zip(c, chi, N)]
    assert coords.tolist() == [sato_tate_coordinate(x, n) for x, n in zip(c, N)]


# |c_num| N at 2^53 - 1, 2^53 + 1, 2^63 - 1 and 2^63 + 1 over Q, as (c_num, N):
# each N divides its edge, and c_num and c_den = (isqrt(N) + 1) c_num + 1 fit int64
ROW_EDGES = (((2**53 - 1) // 6361, 6361), ((2**53 + 1) // 3, 3), ((2**63 - 1) // 7, 7), ((2**63 + 1) // 19, 19))


def edge_columns(X, lanes, rng):
    """(num, den, level support, chi) over Q to X, for surveys at tau = 5 taken `lanes` lanes at a time.

    Values past 2^53 sit at rows 0, lanes - 1, lanes and the last row, at
    the good lanes of those numbers, and next to every bad row: half past
    int64 (chi/N +- 10^-30), half inside it (chi/N + k/(N m) with N m near
    2^62, k in -1, 0, 1).  ROW_EDGES set their rows.  Every other row is a
    small value, unreduced, over a denominator of either sign.  The bad
    rows are (2), which holds a value past int64, and (5) and the level
    support, which hold 0/0.
    """
    norms = _prime_table(Q, X).norm.tolist()
    n = len(norms)
    level = [norms[i] for i in {lanes + 1, 2 * lanes + 3, n - 2} if 2 < i < n]
    chi = IdealCharacter.from_tau(Q, 5, level_support=level).values_upto(X).tolist()
    good = [i for i, v in enumerate(chi) if v]
    bad = [i for i, v in enumerate(chi) if not v]
    wide = {0, lanes - 1, lanes, n - 1, *(b + e for b in bad for e in (-1, 1))}
    wide = {i for i in wide if 0 <= i < n} | {good[i] for i in (0, lanes - 1, lanes, len(good) - 1)}
    num, den = [], []
    for N in norms:
        k, s = rng.choice((1, 3)), rng.choice((1, -1))
        b = rng.randint(1, 10**6)
        top = math.isqrt(4 * b * b // N) // 2  # far inside the bound
        num.append(s * k * rng.randint(-top, top))
        den.append(s * k * b)
    for j, i in enumerate(sorted(wide - {norms.index(N) for _, N in ROW_EDGES} - set(bad))):
        N = norms[i]
        if j % 2 == 0:
            num[i], den[i] = chi[i] * 10**30 + rng.choice((-1, 1)) * N, N * 10**30
        else:
            m = 2**62 // N
            num[i], den[i] = chi[i] * m + (0, 1, -1)[j // 2 % 3], N * m
    for a, N in ROW_EDGES:
        i = norms.index(N)
        num[i], den[i] = rng.choice((1, -1)) * a, (math.isqrt(N) + 1) * a + 1
    for i in bad[1:]:
        num[i], den[i] = 0, 0
    num[0], den[0] = 10**30 + 1, 2 * 10**30  # (2): bad, and past int64
    return num, den, level, chi


def all_rows_in_python_ints(c):
    return np.zeros(len(c), dtype=np.int64), np.zeros(len(c), dtype=bool)


@pytest.mark.parametrize("lanes", [1, 2, 7, sign_pipeline._LANES])
def test_rows_past_int64_or_2_53_run_alone_in_python_ints(monkeypatch, lanes):
    X = 100_000 if lanes == sign_pipeline._LANES else 10_000
    num, den, level, chi = edge_columns(X, lanes, random.Random(lanes))
    norms = _prime_table(Q, X).norm.tolist()
    sent, to_ints = [], sign_pipeline._python_ints

    def spy(*cols):
        sent.append(len(cols[0]))
        return to_ints(*cols)

    monkeypatch.setattr(sign_pipeline, "_LANES", lanes)
    monkeypatch.setattr(sign_pipeline, "_python_ints", spy)
    E = EigenvalueSeries(Q, (2,), "edges", X, num, den, level)
    # the gate: the rows with a value past int64, and only they (no row is near the bound)
    want = hasse_columns_by_row("edges", None, norms, num, den)
    assert (E.num.tolist(), E.den.tolist()) == want and E.num.dtype == E.den.dtype == object
    assert sum(sent) == sum(max(abs(a), b) >= 2**63 for a, b in zip(*want)) > 0
    sent.clear()
    survey = SignSurvey(E, 5)
    # the survey: the good lanes with |c_num| N or c_den past 2^53, and only they
    lanes_past = [i for i, v in enumerate(chi) if v and max(abs(want[0][i]) * norms[i], want[1][i]) > 2**53]
    assert sum(sent) == len(lanes_past) < len(norms) // 10
    good = [i for i, v in enumerate(chi) if v]
    c = [Fraction(want[0][i], want[1][i]) for i in good]
    assert survey.signs.tolist() == [lambda_sign(q, chi[i], norms[i]) for q, i in zip(c, good)]
    assert survey.coords.tolist() == [sato_tate_coordinate(q, norms[i]) for q, i in zip(c, good)]
    assert {0, -1, 1} <= set(survey.signs[[good.index(i) for i in lanes_past]].tolist())
    # every row in Python ints: the same columns, signs and coordinate bits
    monkeypatch.setattr(sign_pipeline, "_int64_rows", all_rows_in_python_ints)
    F = EigenvalueSeries(Q, (2,), "edges", X, num, den, level)
    assert (F.num.tolist(), F.den.tolist(), F.num.dtype, F.den.dtype) == (*want, object, object)
    every = SignSurvey(F, 5)
    assert np.array_equal(every.signs, survey.signs) and every.coords.tobytes() == survey.coords.tobytes()


# (wide row, int64 row), both over the bound: in one chunk of 4 rows, or across two
FIRST_FAULTS = [(1, 2), (2, 1), (1, 5), (5, 1)]


@pytest.mark.parametrize("wide,narrow", FIRST_FAULTS)
def test_the_gate_names_the_first_row_over_the_bound(wide, narrow):
    norm = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    num, den = [0] * 10, [1] * 10
    num[wide], den[wide] = 10**30, 10**29  # c = 10, past int64
    num[narrow] = 3  # c = 3, in int64
    first = min(wide, narrow)
    want = f"g: |c(row {first})| = |{num[first] // den[first]}| exceeds 2/sqrt({norm[first]})"
    assert gate_or_error(hasse_columns_by_row, norm, num, den) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sign_pipeline, "_LANES", 4)
        for column in (num, np.array(num, dtype=object)):
            assert gate_or_error(sign_pipeline._hasse_columns, np.array(norm), column, den) == want


# Exit code and sha256 of stdout of each command on the mixed-lane fixture, run
# CHUNK lanes at a time.  The plants near chi/N pile up at B = 0, so KS fails.
MIXED_LANE_GOLDEN = [
    (["signs", "--format", "json"], 0, "c86dc8cd0c6899cea7c11594916fcbb75545dc1f06988e9c17ece5116dcc52f1"),
    (["stats"], 1, "5810deab30c746a8475a64b0f2658180b7fae00edeb3c4e03f5a70b09544c906"),
]


@pytest.mark.parametrize("argv,code,digest", MIXED_LANE_GOLDEN, ids=[a[0] for a, *_ in MIXED_LANE_GOLDEN])
def test_mixed_lane_fixture_stdout_is_pinned(tmp_path, capsys, monkeypatch, argv, code, digest):
    save_fixture(mixed_lane_series()[0], tmp_path / "mixed.json")
    monkeypatch.setattr(sign_pipeline, "_LANES", CHUNK)
    assert main([*argv, "--fixture", str(tmp_path / "mixed.json"), "--x", "20000", "--tau", "5"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sign_flip_witnesses():
    # flipping chi at P changes the sign iff |c| < 1/N
    for N in (3, 7, 11, 101):
        small = Fraction(1, 2 * N)
        assert lambda_sign(small, 1, N) == -1 and lambda_sign(small, -1, N) == 1
        big = Fraction(3, 2 * N)
        assert lambda_sign(big, 1, N) == lambda_sign(big, -1, N) == 1
        assert lambda_sign(-big, 1, N) == lambda_sign(-big, -1, N) == -1


def test_tally_bad_set_excluded_from_numerators():
    E = seeded_series_over_Q(500, 3)
    t = SignSurvey(E, 5)
    assert t.bad == 2  # (2) and (5)
    assert t.total == 95  # pi(500)
    assert t.pos + t.neg + t.zero == 93


# ----------------------------------------------------------------------
# tail inequality
# ----------------------------------------------------------------------


def test_cutoff_trivial_regimes():
    E = seeded_series_over_Q(1000, 29)
    survey = SignSurvey(E, 1)
    assert tail_inequality(E, survey, 1000, 1.0)[1] == 0
    lhs, rhs = tail_inequality(E, survey, 1000, Fraction(1, 100))
    assert lhs >= rhs  # 1/(4 eps^2) = 2500 >= x, so lhs dominates by counting
    with pytest.raises(ValueError):
        tail_inequality(E, survey, 1000, 0.0)
    with pytest.raises(ValueError):
        tail_inequality(E, survey, 1001, 0.5)  # past the survey's cutoff


def test_tail_inequality_exact_below_float_resolution():
    # c(P) sits one step of 1/D below or above 2 eps / sqrt(N(P)), so
    # c^2 N - 4 eps^2 is a rational of size ~1/D, far below what a float B
    # can resolve; only the exact comparison counts B > eps correctly
    eps, D = Fraction(1, 3), 10**40
    rng = random.Random(3)

    def cfun(P):
        q = math.isqrt(4 * D * D // (9 * P.norm))  # q^2 N < 4 D^2 / 9 < (q+1)^2 N
        return Fraction(q + rng.randint(0, 1), D)

    E = series_over_Q(1000, cfun)
    survey = SignSurvey(E, 1)
    good = [(norm, c) for (norm, _, _), c in E.entries.items() if norm != 2]
    expected = sum(1 for norm, c in good if c > 0 and c * c * norm > 4 * eps * eps)
    assert 0 < expected < len(good)
    assert tail_inequality(E, survey, 1000, eps)[1] == expected
    # the same count from the float coordinates alone is wrong
    assert int((survey.coords > float(eps)).sum()) != expected


@settings(max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10),
    eps_thousandths=st.integers(min_value=1, max_value=1000),
    x=st.integers(min_value=2, max_value=1000),
)
def test_cutoff_inequality_always_holds(seed, eps_thousandths, x):
    E = seeded_series_over_Q(1000, seed)
    lhs, rhs = tail_inequality(E, SignSurvey(E, 1), x, Fraction(eps_thousandths, 1000))
    assert lhs >= rhs


# ----------------------------------------------------------------------
# text output
# ----------------------------------------------------------------------


def test_density_string():
    assert density_string(1, 3) == "0.333333333333"
    assert density_string(2, 3) == "0.666666666667"
    assert density_string(1, 2) == "0.500000000000"
    assert density_string(0, 0) == "0.000000000000"
    assert density_string(9592, 9592) == "1.000000000000"


def test_tally_csv(tmp_path, capsys):
    assert TALLY_CSV_HEADER == "x,total,pos,neg,zero,pos_density"
    E = series_over_Q(100, lambda P: Fraction(2, P.norm))
    save_fixture(E, tmp_path / "fx.json")
    assert main(["signs", "--fixture", str(tmp_path / "fx.json"), "--x", "100"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == TALLY_CSV_HEADER
    x, total, pos, neg, zero, dens = row.split(",")
    assert (x, total) == ("100", "25")
    assert int(pos) + int(neg) + int(zero) == 24
    assert dens == density_string(int(pos), 25)
