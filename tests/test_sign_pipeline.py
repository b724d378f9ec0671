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
    lambda_sign,
    sato_tate_coordinate,
    save_fixture,
    series_from_entries,
    tail_inequality,
    value_at,
)

from hilbert_signs import (
    EigenvalueSeries,
    HasseBoundViolated,
    IdealCharacter,
    MissingPrime,
    SignSurvey,
    ValidationError,
    enumerate_prime_ideals,
    make_field,
    split_rational_prime,
    synth_eigen_series,
)
from hilbert_signs import sign_pipeline
from hilbert_signs.cli import TALLY_CSV_HEADER, density_string, main

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
    with pytest.raises(HasseBoundViolated):
        sato_tate_coordinate(Fraction(199, 330), 11)
    assert sato_tate_coordinate(Fraction(6633, 11000), 11) < 1


def test_sato_tate_boundary_allowed():
    # norm 9 has rational 2 sqrt(N) = 6, so cN = +-6 gives B = +-1 exactly
    assert sato_tate_coordinate(Fraction(6, 9), 9) == 1.0
    assert sato_tate_coordinate(Fraction(-6, 9), 9) == -1.0
    with pytest.raises(HasseBoundViolated):
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
    with pytest.raises(ValidationError):
        EigenvalueSeries(Q, (3,), "odd", 1, [], [])
    with pytest.raises(ValidationError):
        EigenvalueSeries(Q, (0,), "small", 1, [], [])
    with pytest.raises(ValidationError):
        EigenvalueSeries(Q, (), "empty", 1, [], [])


def test_series_rejects_hasse_violation(field5):
    (P3,) = split_rational_prime(Q, 3)
    with pytest.raises(HasseBoundViolated):
        series_from_entries(Q, (2,), "fat", {P3: Fraction(2)}, 3)
    ok = series_from_entries(Q, (2,), "edge", {P3: Fraction(1)}, 3)  # 1*1*3 <= 4
    assert ok.entries[P3] == 1
    # the inert prime above 3 in Q(sqrt5) has N = 9, where c = 2/3 sits on the bound
    (P9,) = split_rational_prime(field5, 3)
    on_bound = series_from_entries(field5, (2,), "on", {P9: Fraction(2, 3)}, 9)  # c^2 N = 4
    assert on_bound.entries[P9] == Fraction(2, 3)
    with pytest.raises(HasseBoundViolated):
        series_from_entries(field5, (2,), "over", {P9: Fraction(2, 3) + Fraction(1, 10**30)}, 9)


def test_series_columns_must_cover_the_table():
    with pytest.raises(ValueError, match="columns of 1 and 1 rows, for 2 primes"):
        EigenvalueSeries(Q, (2,), "short", 3, [0], [1])  # (2) and (3)
    E = EigenvalueSeries(Q, (2,), "two", 3, [0, 2], [0, -4])
    assert (E.num.tolist(), E.den.tolist(), E.num.dtype) == ([0, -1], [0, 2], np.int64)


def test_k0_is_max_component():
    E = EigenvalueSeries(Q, (2, 4), "mixed", 1, [], [])
    assert E.weight == (2, 4) and max(E.weight) == 4


# ----------------------------------------------------------------------
# tallies
# ----------------------------------------------------------------------


def test_forced_positive_tally():
    # c = 2/N makes lambda = (2 - chi)/N > 0 at every good prime
    E = series_over_Q(300, lambda P: Fraction(2, P.norm))
    t = SignSurvey(E, 1, x=300).tally()
    assert t.pos == t.total - t.bad and t.neg == 0 and t.zero == 0
    assert t.bad == 1  # only the prime above 2


def test_forced_zero_tally():
    E = series_over_Q(300, lambda P: Fraction(1, P.norm))
    t = SignSurvey(E, 1, x=300).tally()  # chi = +1 off the bad set, so c = chi/N
    assert t.zero == t.total - t.bad and t.pos == 0 and t.neg == 0


def test_tally_partition_and_monotonicity():
    E = seeded_series_over_Q(2000, 7)
    survey = SignSurvey(E, 5, x=2000)
    prev = None
    for x in (50, 100, 400, 900, 1600, 2000):
        t = survey.tally(x)
        assert t.pos + t.neg + t.zero + t.bad == t.total
        if prev is not None:
            assert t.pos >= prev.pos and t.neg >= prev.neg
            assert t.zero >= prev.zero and t.bad >= prev.bad
        prev = t


def test_survey_matches_fresh_tally():
    E = seeded_series_over_Q(1000, 13)
    survey = SignSurvey(E, 5, x=1000)
    assert survey.tally(400) == SignSurvey(E, 5, x=400).tally()
    with pytest.raises(ValueError):
        survey.tally(1001)
    with pytest.raises(TypeError):
        SignSurvey(E, 5)  # cutoff is mandatory


def test_survey_reads_a_prefix_of_the_columns():
    E = seeded_series_over_Q(1000, 11)
    whole, part = SignSurvey(E, 5, x=1000), SignSurvey(E, 5, x=400)
    assert np.array_equal(part.signs, whole.signs[: len(part.signs)])
    assert part.coords.tobytes() == whole.coords[: len(part.coords)].tobytes()
    # past E.x no row has a coefficient: the first good prime there is the gap
    with pytest.raises(MissingPrime, match=r"seeded-11: no coefficient at good prime \(1009\)$"):
        SignSurvey(E, 5, x=1100)
    # while a cutoff whose extra primes are all bad needs none of them
    empty = EigenvalueSeries(Q, (2,), "empty", 1, [], [])
    assert (empty.num.size, empty.den.size) == (0, 0)
    t = SignSurvey(empty, 1, x=2).tally()
    assert (t.total, t.bad, t.pos + t.neg + t.zero) == (1, 1, 0)


def test_missing_prime():
    entries = {P: Fraction(0) for P in enumerate_prime_ideals(Q, 100)}
    del entries[split_rational_prime(Q, 97)[0]]
    E = series_from_entries(Q, (2,), "gappy", entries, 100)
    with pytest.raises(MissingPrime, match=r"gappy: no coefficient at good prime \(97\)$"):
        SignSurvey(E, 1, x=100).tally()
    # but a tighter cutoff never touches the gap
    assert SignSurvey(E, 1, x=90).tally().total == 24


def test_first_fault_in_canonical_order_is_raised():
    entries = {P: Fraction(0) for P in enumerate_prime_ideals(Q, 100)}
    P7, P53, P97 = (split_rational_prime(Q, p)[0] for p in (7, 53, 97))
    del entries[P53], entries[P97]
    E = series_from_entries(Q, (2,), "faulty", entries, 100)
    # ingestion is the one Hasse gate: no value can be put past it afterwards
    with pytest.raises(TypeError):
        E.entries[P7] = Fraction(1)
    with pytest.raises(ValueError, match="read-only"):
        E.num[3] = 1
    with pytest.raises(ValueError, match="read-only"):
        E.den[3] = 1
    with pytest.raises(MissingPrime, match=r"\(53\)"):  # the first gap is named
        SignSurvey(E, 1, x=100)


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
        entries[P] = Fraction(value_at(chi, P), P.norm)
    for k in (k for k in range(3, len(good) // CHUNK, 3) if k != 12):
        for P in good[k * CHUNK + 2 : (k + 1) * CHUNK : 7]:
            tiny = Fraction(rng.choice((-1, 1)), 10**30)
            entries[P] = Fraction(value_at(chi, P), P.norm) + tiny
    for i, D in ((8 * CHUNK - 1, PAST_2_63), (13 * CHUNK, PAST_2_53), (13 * CHUNK + 30, PAST_2_53)):
        entries[good[i]] = on_grid(good[i], D)
    entries[good[-1]] = on_grid(good[-1], PAST_2_63)
    (P3,), (P6361,) = split_rational_prime(Q, 3), split_rational_prime(Q, 6361)
    num = (limit + 1) // 3
    entries[P3] = Fraction(-num, num + 1)
    num = (limit - 1) // 6361
    entries[P6361] = Fraction(num, 40 * num + 1)
    assert good.index(P3) // CHUNK == 0 and good.index(P6361) // CHUNK == 12
    return series_from_entries(Q, (2,), "mixed-lanes", entries, X), chi, good


def test_survey_lanes_match_scalar_decisions(monkeypatch):
    E, chi, good = mixed_lane_series()
    lanes, pick = [], sign_pipeline._lanes

    def spy(*args):
        lanes.append(pick(*args))
        return lanes[-1]

    whole = SignSurvey(E, 5, x=20000)  # one chunk: Python ints
    monkeypatch.setattr(sign_pipeline, "_LANES", CHUNK)
    monkeypatch.setattr(sign_pipeline, "_lanes", spy)
    survey = SignSurvey(E, 5, x=20000)
    python_int_chunks = [k for k, t in enumerate(lanes) if t is object]
    assert python_int_chunks == [0, 3, 6, 7, 9, 13, 15, 18, 21, 24, 27, 30, 33, 35]
    assert len(lanes) == 36 and lanes.count(np.int64) == 22
    assert np.array_equal(survey.signs, whole.signs)
    assert survey.coords.tobytes() == whole.coords.tobytes()
    zero = 0
    for P, s, b in zip(good, survey.signs.tolist(), survey.coords.tolist()):
        c = E.entries[P]
        assert s == lambda_sign(c, value_at(chi, P), P.norm)
        assert b == sato_tate_coordinate(c, P.norm)  # bit for bit
        zero += s == 0
    assert zero > 50


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
    t = SignSurvey(E, 5, x=500).tally()
    assert t.bad == 2  # (2) and (5)
    assert t.total == 95  # pi(500)
    assert t.pos + t.neg + t.zero == 93


# ----------------------------------------------------------------------
# tail inequality
# ----------------------------------------------------------------------


def test_cutoff_trivial_regimes():
    E = seeded_series_over_Q(1000, 29)
    survey = SignSurvey(E, 1, x=1000)
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
    survey = SignSurvey(E, 1, x=1000)
    good = [(P, c) for P, c in E.entries.items() if P.norm != 2]
    expected = sum(1 for P, c in good if c > 0 and c * c * P.norm > 4 * eps * eps)
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
    lhs, rhs = tail_inequality(E, SignSurvey(E, 1, x=x), x, Fraction(eps_thousandths, 1000))
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
