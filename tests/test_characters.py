"""The twisted quadratic ideal character and its finite psi tables."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import enumerate_prime_ideals, value_at

from hilbert_signs.characters import IdealCharacter
from hilbert_signs.eigen_io import load_psi_table
from hilbert_signs.errors import ParseError, ValidationError
from hilbert_signs.field_arith import NARROW_CLASS_NUMBER_ONE, make_field, split_rational_prime


@pytest.mark.parametrize("tau", [1, 4, 9])
def test_square_tau_trivial_over_Q(tau):
    Q = make_field(1)
    chi = IdealCharacter.from_tau(Q, tau)
    for P in enumerate_prime_ideals(Q, 300):
        v = value_at(chi, P)
        assert v == (0 if P in chi.bad_set else 1)


def test_square_tau_trivial_over_quadratic(field5):
    chi = IdealCharacter.from_tau(field5, 4)
    for P in enumerate_prime_ideals(field5, 300):
        assert value_at(chi, P) in (0, 1)
        if P not in chi.bad_set:
            assert value_at(chi, P) == 1


def test_bad_set_is_conservative(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))  # norm 11, splits at P11a
    bad_norms = sorted(P.norm for P in chi.bad_set)
    assert bad_norms == [4, 5, 11]  # above 2, the ramified 5, the tau prime
    for P in enumerate_prime_ideals(field5, 200):
        v = value_at(chi, P)
        assert (v == 0) == (P in chi.bad_set)
        assert v in (-1, 0, 1)


def test_level_support_joins_bad_set():
    Q = make_field(1)
    chi = IdealCharacter.from_tau(Q, 1, level_support=(37,))
    (P37,) = split_rational_prime(Q, 37)
    assert P37 in chi.bad_set and value_at(chi, P37) == 0


def test_value_at_examples(field5):
    chi = IdealCharacter.from_tau(field5, (4, 1))
    P3 = split_rational_prime(field5, 3)[0]
    assert value_at(chi, P3) == -1  # 4 + sqrt5 is a nonsquare in F_9
    P2 = split_rational_prime(field5, 2)[0]
    assert value_at(chi, P2) == 0


def test_psi_flips_values(field5):
    base = IdealCharacter.from_tau(field5, (4, 1))
    P3 = split_rational_prime(field5, 3)[0]
    psi = {P3: -1}
    flipped = IdealCharacter.from_tau(field5, (4, 1), psi_table=psi)
    assert value_at(flipped, P3) == -value_at(base, P3)
    P19a = split_rational_prime(field5, 19)[0]
    assert value_at(flipped, P19a) == value_at(base, P19a)


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
    assert table == {P3: -1, P11b: -1}
    chi = IdealCharacter.from_tau(field5, 4, psi_table=table)
    assert value_at(chi, P11b) == -1  # epsilon_4 is +1 there, psi flips it


def test_load_psi_table_from_decoded_list(field5):
    table = load_psi_table(
        field5, [{"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 1}], 100
    )
    assert list(table.values()) == [1]


def test_psi_table_rejects_bad_value(field5):
    doc = [{"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 2}]
    with pytest.raises(ValidationError):
        load_psi_table(field5, doc, 100)


def test_psi_table_rejects_unknown_prime(field5):
    doc = [{"prime_norm": 7, "rational_prime": 7, "root_label": 0, "value": 1}]
    with pytest.raises(ValidationError):
        load_psi_table(field5, doc, 100)  # 7 is inert, norm 49: no prime of norm 7


def test_psi_table_rejects_garbage(tmp_path, field5):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_psi_table(field5, path, 100)
    with pytest.raises(ParseError):
        load_psi_table(field5, tmp_path / "absent.json", 100)
    with pytest.raises(ParseError):
        load_psi_table(field5, [{"prime_norm": 9}], 100)
    with pytest.raises(ParseError):
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
    psi = {P: -1 for P in primes[1::7]}
    psi[beyond[0]] = -1  # norm above X: never reached
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
