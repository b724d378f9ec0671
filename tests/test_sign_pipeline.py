"""Normalizations, exact sign extraction, tallies, and the tail inequality.

The tail inequality is decided by the tail_inequality oracle of
tests/oracles.py, which checks a survey's signs against the
coefficients it was built from.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import save_fixture, tail_inequality

from hilbert_signs import (
    EigenvalueSeries,
    HasseBoundViolated,
    IdealCharacter,
    MissingPrime,
    SignSurvey,
    ValidationError,
    enumerate_prime_ideals,
    lambda_sign,
    make_field,
    sato_tate_coordinate,
    split_rational_prime,
)
from hilbert_signs.cli import TALLY_CSV_HEADER, density_string, main

Q = make_field(1)


def series_over_Q(X, cfun, weight=(2,), label="test"):
    entries = {P: cfun(P) for P in enumerate_prime_ideals(Q, X)}
    return EigenvalueSeries(Q, weight, label, entries)


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
        EigenvalueSeries(Q, (3,), "odd", {})
    with pytest.raises(ValidationError):
        EigenvalueSeries(Q, (0,), "small", {})
    with pytest.raises(ValidationError):
        EigenvalueSeries(Q, (), "empty", {})


def test_series_rejects_hasse_violation(field5):
    (P3,) = split_rational_prime(Q, 3)
    with pytest.raises(HasseBoundViolated):
        EigenvalueSeries(Q, (2,), "fat", {P3: Fraction(2)})
    ok = EigenvalueSeries(Q, (2,), "edge", {P3: Fraction(1)})  # 1*1*3 <= 4
    assert ok.entries[P3] == 1
    # the inert prime above 3 in Q(sqrt5) has N = 9, where c = 2/3 sits on the bound
    (P9,) = split_rational_prime(field5, 3)
    on_bound = EigenvalueSeries(field5, (2,), "on", {P9: Fraction(2, 3)})  # c^2 N = 4
    assert on_bound.entries[P9] == Fraction(2, 3)
    with pytest.raises(HasseBoundViolated):
        EigenvalueSeries(field5, (2,), "over", {P9: Fraction(2, 3) + Fraction(1, 10**30)})


def test_series_rejects_foreign_primes(field5):
    P3 = split_rational_prime(field5, 3)[0]
    with pytest.raises(ValidationError):
        EigenvalueSeries(Q, (2,), "foreign", {P3: Fraction(0)})


def test_k0_is_max_component():
    E = EigenvalueSeries(Q, (2, 4), "mixed", {})
    assert E.k0 == 4


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


def test_missing_prime():
    entries = {P: Fraction(0) for P in enumerate_prime_ideals(Q, 100)}
    del entries[split_rational_prime(Q, 97)[0]]
    E = EigenvalueSeries(Q, (2,), "gappy", entries)
    with pytest.raises(MissingPrime, match=r"gappy: no coefficient at good prime \(97\)$"):
        SignSurvey(E, 1, x=100).tally()
    # but a tighter cutoff never touches the gap
    assert SignSurvey(E, 1, x=90).tally().total == 24


def test_first_fault_in_canonical_order_is_raised():
    entries = {P: Fraction(0) for P in enumerate_prime_ideals(Q, 100)}
    P7, P53, P97 = (split_rational_prime(Q, p)[0] for p in (7, 53, 97))
    del entries[P53], entries[P97]
    E = EigenvalueSeries(Q, (2,), "faulty", entries)
    # ingestion is the one Hasse gate: no value can be put past it afterwards
    with pytest.raises(TypeError):
        E.entries[P7] = Fraction(1)
    with pytest.raises(MissingPrime, match=r"\(53\)"):  # the first gap is named
        SignSurvey(E, 1, x=100)


def test_survey_lanes_match_scalar_decisions():
    # tau = 5 makes chi the Legendre symbol (5/p), so both signs occur
    X, limit = 20000, 2**53
    chi = {P: IdealCharacter.from_tau(Q, 5).value_at(P) for P in enumerate_prime_ideals(Q, X)}
    entries = {P: c for P, c in seeded_series_over_Q(X, 77).entries.items()}
    good = [P for P, v in chi.items() if v]
    rng = random.Random(5)
    for P in good[3::5]:  # c = chi/N, and one step of 10^-30 to either side
        entries[P] = Fraction(chi[P], P.norm) + Fraction(rng.choice((-1, 0, 1)), 10**30)
    for P in good[4::11]:  # denominators past 2^53
        entries[P] = Fraction(rng.randint(-(2**54), 2**54), 2**54 + 1) / P.norm
    (P3,), (P6361,) = split_rational_prime(Q, 3), split_rational_prime(Q, 6361)
    num = (limit + 1) // 3  # |c_num| N = 2^53 + 1: one past the int64 lanes
    entries[P3] = Fraction(-num, num + 1)
    num = (limit - 1) // 6361  # |c_num| N = 2^53 - 1: the last int64 lane
    entries[P6361] = Fraction(num, 40 * num + 1)
    E = EigenvalueSeries(Q, (2,), "lanes", entries)
    assert abs(E.entries[P3].numerator) * 3 == limit + 1
    assert E.entries[P6361].numerator * 6361 == limit - 1
    survey = SignSurvey(E, 5, x=X)
    assert survey.good_norms.tolist() == [P.norm for P in good]
    zero = 0
    for P, s, b in zip(good, survey.signs.tolist(), survey.coords.tolist()):
        c = E.entries[P]
        assert s == lambda_sign(c, chi[P], P.norm)
        assert b == sato_tate_coordinate(c, P.norm)  # bit for bit
        zero += s == 0
    assert zero > 100


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
