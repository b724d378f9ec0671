"""The twisted quadratic ideal character and its finite psi tables."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import enumerate_prime_ideals, factor_principal_ideal, split_rational_prime, value_at

from hilbert_signs import characters
from hilbert_signs.characters import IdealCharacter
from hilbert_signs.eigen_io import load_psi_table
from hilbert_signs.errors import HilbertSignsError
from hilbert_signs.field_arith import NARROW_CLASS_NUMBER_ONE, _prime_table, make_field


@pytest.mark.parametrize("tau", [1, 4, 9])
def test_square_tau_trivial_over_Q(tau):
    Q = make_field(1)
    chi = IdealCharacter.from_tau(Q, tau)
    for P in enumerate_prime_ideals(Q, 300):
        v = value_at(chi, P)
        assert v == (0 if P[:3] in chi.bad_set else 1)


def test_square_tau_trivial_over_quadratic(field5):
    chi = IdealCharacter.from_tau(field5, 4)
    for P in enumerate_prime_ideals(field5, 300):
        assert value_at(chi, P) in (0, 1)
        if P[:3] not in chi.bad_set:
            assert value_at(chi, P) == 1


def test_bad_set_is_conservative(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))  # norm 11, splits at P11a
    bad_norms = sorted(P[0] for P in chi.bad_set)
    assert bad_norms == [4, 5, 11]  # above 2, the ramified 5, the tau prime
    for P in enumerate_prime_ideals(field5, 200):
        v = value_at(chi, P)
        assert (v == 0) == (P[:3] in chi.bad_set)
        assert v in (-1, 0, 1)


def test_level_support_joins_bad_set():
    Q = make_field(1)
    chi = IdealCharacter.from_tau(Q, 1, level_support=(37,))
    (P37,) = split_rational_prime(Q, 37)
    assert P37[:3] in chi.bad_set and value_at(chi, P37) == 0


def test_value_at_examples(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    P3 = split_rational_prime(field5, 3)[0]
    assert value_at(chi, P3) == -1  # 4 + sqrt5 is a nonsquare in F_9
    P2 = split_rational_prime(field5, 2)[0]
    assert value_at(chi, P2) == 0


def test_psi_flips_values(field5):
    base = IdealCharacter.from_tau(field5, (4, 1))
    P3 = split_rational_prime(field5, 3)[0]
    psi = {P3[:3]: -1}
    flipped = IdealCharacter.from_tau(field5, (4, 1), psi_table=psi)
    assert value_at(flipped, P3) == -value_at(base, P3)
    P19a = split_rational_prime(field5, 19)[0]
    assert value_at(flipped, P19a) == value_at(base, P19a)


def test_psi_value_off_plus_minus_one_is_a_misuse(field5):
    # load_psi_table refuses such a document first, so only a call from inside the package gets here
    P3 = split_rational_prime(field5, 3)[0]
    with pytest.raises(ValueError, match=r"psi value at P3i must be \+-1, got 2"):
        IdealCharacter.from_tau(field5, (4, 1), psi_table={P3[:3]: 2})


@given(st.integers(min_value=1, max_value=400))
def test_values_always_in_range(tau):
    Q = make_field(1)
    chi = IdealCharacter.from_tau(Q, tau)
    for P in enumerate_prime_ideals(Q, 100):
        assert value_at(chi, P) in (-1, 0, 1)


# ----------------------------------------------------------------------
# psi JSON tables
# ----------------------------------------------------------------------


def test_load_psi_table(tmp_path, field5):
    path = tmp_path / "psi.json"
    path.write_text(
        json.dumps(
            [
                {"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": -1},
                {"prime_norm": 11, "rational_prime": 11, "root_label": 1, "value": -1},
            ]
        )
    )
    table = load_psi_table(field5, path, 100)
    P3 = split_rational_prime(field5, 3)[0]
    _, P11b = split_rational_prime(field5, 11)
    assert table == {P3[:3]: -1, P11b[:3]: -1}
    chi = IdealCharacter.from_tau(field5, 4, psi_table=table)
    assert value_at(chi, P11b) == -1  # epsilon_4 is +1 there, psi flips it


def test_load_psi_table_from_decoded_list(field5):
    table = load_psi_table(
        field5, [{"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 1}], 100
    )
    assert list(table.values()) == [1]


def test_psi_table_rejects_bad_value(field5):
    doc = [{"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 2}]
    with pytest.raises(HilbertSignsError, match=r"value must be \+-1, got 2"):
        load_psi_table(field5, doc, 100)


def test_psi_table_rejects_unknown_prime(field5):
    doc = [{"prime_norm": 7, "rational_prime": 7, "root_label": 0, "value": 1}]
    with pytest.raises(HilbertSignsError, match="no prime of norm 7"):
        load_psi_table(field5, doc, 100)  # 7 is inert, norm 49: no prime of norm 7


def test_psi_table_rejects_garbage(tmp_path, field5):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(HilbertSignsError, match="not valid JSON"):
        load_psi_table(field5, path, 100)
    with pytest.raises(HilbertSignsError, match="^cannot read psi table "):
        load_psi_table(field5, tmp_path / "absent.json", 100)
    with pytest.raises(HilbertSignsError, match="^psi entry 0: missing field"):
        load_psi_table(field5, [{"prime_norm": 9}], 100)
    with pytest.raises(HilbertSignsError, match="^psi table must be a JSON list of entries$"):
        load_psi_table(field5, {"prime_norm": 9}, 100)


def _totally_positive(K, a, b):
    """a + b sqrt(d) moved up by the least integer that makes it totally positive."""
    while not (a > 0 and a * a > K.d * b * b):
        a += 1
    return (a, b)


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_values_upto_matches_value_at(d):
    K = make_field(d)
    X = 5000
    primes = enumerate_prime_ideals(K, X)
    beyond = [P for p in (5003, 5009, 5011) for P in split_rational_prime(K, p)]
    psi = {P[:3]: -1 for P in primes[1::7]}
    psi[beyond[0][:3]] = -1  # norm above X: never reached
    for tau in ((1, 0), (4, 1), (9, 2)):
        for table in (None, psi):
            chi = IdealCharacter.from_tau(K, _totally_positive(K, *tau), psi_table=table)
            assert chi.values_upto(X).tolist() == [value_at(chi, P) for P in primes]


def test_values_upto_reduces_huge_coordinates(field5):
    # (9 + 4 sqrt5)^40 is a unit, so its norm is tiny but its coordinates
    # run to ~166 bits, six 30-bit limbs to reduce
    a, b = 1, 0
    for _ in range(40):
        a, b = 9 * a + 20 * b, 4 * a + 9 * b
    chi = IdealCharacter.from_tau(field5, (a, b))
    assert a.bit_length() > 150
    primes = enumerate_prime_ideals(field5, 20000)
    assert chi.values_upto(20000).tolist() == [value_at(chi, P) for P in primes]
    assert chi.values_upto(1).tolist() == []


def _fundamental_unit(d):
    """(a, b) with a + b sqrt(d) the least unit > 1 of O_K: the least b > 0 of a^2 - d b^2 = +-1
    (or +-4 for halves when d = 1 mod 4)."""
    k = 4 if d % 4 == 1 else 1
    for b in itertools.count(1):
        for n in (d * b * b - k, d * b * b + k):
            if math.isqrt(n) ** 2 == n:
                return Fraction(math.isqrt(n), 2 if k == 4 else 1), Fraction(b, 2 if k == 4 else 1)


def _times(d, u, v):
    return u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_values_upto_matches_the_euler_oracle_at_square_and_nonsquare_tau(monkeypatch, d):
    # a square tau takes the trivial-character path and runs no residue symbol,
    # the rest take the Euler lanes; the scalar oracle runs the criterion at every
    # prime either way.  Roots are built a + b sqrt(d), as Fractions.  Chunks of
    # 2, 4 and 14 rows, to norm 600, put chunk edges inside split pairs and next
    # to inert rows and the rows above 2.
    K, X = make_field(d), 3000
    two, six = (Fraction(2), Fraction(0)), (Fraction(6), Fraction(0))
    roots = [(Fraction(1), Fraction(0)), two, six]
    nonsquares = [(Fraction(3), Fraction(0)), (Fraction(7), Fraction(0))]  # d is never 3 or 7
    if not K.is_rational:
        eps, m = _fundamental_unit(d), max(4, math.isqrt(d) + 1)
        nonsquare = (Fraction(m), Fraction(1))  # its norm m^2 - d is not a square
        # the unit squares eps^2 and 4 eps^2, d = (sqrt d)^2, and squares with both parts
        roots += [eps, _times(d, two, eps), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)),
                  _times(d, eps, (Fraction(3), Fraction(1)))]
        nonsquares += [nonsquare, _times(d, _times(d, eps, eps), nonsquare), _times(d, six, nonsquare)]
    if d == 5:  # N = 11 or 44: the split p = 11 divides N(tau), and one prime above it does not
        nonsquares += [(Fraction(4), Fraction(-1)), (Fraction(7), Fraction(1)), (Fraction(7), Fraction(-1))]
    primes = enumerate_prime_ideals(K, X)
    edged = sum(P[0] <= 600 for P in primes)  # the rows to norm 600
    psi = {P[:3]: -1 for P in primes[1::7]}
    for tau, square in [*((_times(d, r, r), True) for r in roots), *((t, False) for t in nonsquares)]:
        for table in (None, psi):
            chi = IdealCharacter.from_tau(K, tau, psi_table=table)
            assert chi.square is square, tau
            want = [value_at(chi, P) for P in primes]
            assert chi.values_upto(X).tolist() == want, tau
            for lanes in (1, 2, 7):
                with monkeypatch.context() as mp:
                    mp.setattr(characters, "_LANES", lanes)
                    assert chi.values_upto(600).tolist() == want[:edged], (tau, lanes)


def test_values_upto_at_a_nonsquare_tau_keeps_only_its_values():
    # the Euler powers are taken per chunk, so no column but the values is kept
    K, X = make_field(5), 10**7
    rows = len(_prime_table(K, X).norm)  # 664,500
    chi = IdealCharacter.from_tau(K, (4, 1))
    tracemalloc.start()
    try:
        values = chi.values_upto(X)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == rows and not chi.square
    assert peak < 4 * rows and retained < 1.5 * rows, (peak / rows, retained / rows)


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_bad_set_matches_splitting_each_p(d):
    # the primes above 2, the disc, the level support and the support of tau*O_K
    K = make_field(d)
    m = max(4, math.isqrt(d) + 1)
    for tau in (1, 30, (m, 1), (3 * m, 3)):
        chi = IdealCharacter.from_tau(K, tau, level_support=(3, 101))
        above = {2, 3, 101, d} - {1}  # each listed d > 1 is a prime, the one odd prime dividing disc
        want = {P for p in above for P in split_rational_prime(K, p)}
        want.update(factor_principal_ideal(K, tau).support())
        assert chi.bad_set == {P[:3] for P in want}, tau
