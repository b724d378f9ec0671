"""Serialization, the psi-table decoder and the curve cache."""

import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import enumerate_prime_ideals, save_fixture, value_at

from hilbert_signs import (
    HasseBoundViolated,
    HilbertSignsError,
    IdealCharacter,
    ParseError,
    ValidationError,
    cached_curve_series,
    get_curve,
    load_fixture,
    load_psi_table,
    make_field,
    serialize_series,
    series_from_curve,
    series_from_obj,
    series_to_obj,
    split_rational_prime,
)
from hilbert_signs import eigen_io
from hilbert_signs.eigen_io import cache_path, default_cache_dir
from hilbert_signs.field_arith import _prime_ideals, _prime_table

Q = make_field(1)


def equal_series(A, B):
    return (
        A.field == B.field
        and A.weight == B.weight
        and A.label == B.label
        and A.level_support == B.level_support
        and A.entries == B.entries
    )


# ----------------------------------------------------------------------
# document round-trips
# ----------------------------------------------------------------------


def test_series_roundtrip_is_bit_stable():
    E = series_from_curve(get_curve("37a"), 200)
    text = serialize_series(E)
    back = series_from_obj(json.loads(text), 200)
    assert equal_series(E, back)
    assert serialize_series(back) == text


def test_fixture_roundtrip(tmp_path):
    E = series_from_curve(get_curve("11a"), 100)
    path = tmp_path / "11a.json"
    save_fixture(E, path)
    assert equal_series(load_fixture(path, 100), E)


def test_load_fixture_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    with pytest.raises(ParseError):
        load_fixture(path, 100)


def test_series_from_obj_errors():
    good = series_to_obj(series_from_curve(get_curve("37a"), 30))
    with pytest.raises(ParseError):
        series_from_obj([], 30)
    with pytest.raises(ParseError):
        series_from_obj({**good, "format": "nope/0"}, 30)
    for key in ("d", "weight", "label", "entries"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ParseError):
            series_from_obj(broken, 30)
    with pytest.raises(ValidationError):
        series_from_obj({**good, "d": 3}, 30)  # outside the field allowlist
    with pytest.raises(ValidationError):
        series_from_obj({**good, "weight": [3]}, 30)
    entry = {"norm": 3, "rational_prime": 3, "root_label": 0, "c_num": 2, "c_den": 1}
    with pytest.raises(HasseBoundViolated):
        series_from_obj({**good, "entries": [entry]}, 30)  # 4*3 > 4
    with pytest.raises(ValidationError):
        series_from_obj({**good, "entries": [{**entry, "c_den": 0}]}, 30)
    with pytest.raises(ValidationError):
        series_from_obj({**good, "entries": [{**entry, "norm": 9}]}, 30)  # no such prime
    with pytest.raises(ParseError):
        series_from_obj({**good, "entries": [{"norm": 3}]}, 30)


def test_hasse_violation_past_x_is_an_input_error():
    row = {"norm": 3, "rational_prime": 3, "root_label": 0, "c_num": 0, "c_den": 1}
    doc = {"format": "eigen-series/1", "d": 1, "weight": [2], "label": "x", "entries": [row]}
    past = {**row, "norm": 5, "rational_prime": 5, "c_num": 1}
    with pytest.raises(HasseBoundViolated, match=r"^x: \|c\(\(5\)\)\| = \|1\| exceeds 2/sqrt\(5\)$"):
        series_from_obj({**doc, "entries": [row, past]}, 3)
    # of several violations the first in canonical order is named, past x or not
    over = [{**row, "norm": p, "rational_prime": p, "c_num": 1} for p in (13, 11, 7)]
    for x in (3, 10, 100):
        with pytest.raises(HasseBoundViolated, match=r"^x: \|c\(\(7\)\)\|"):
            series_from_obj({**doc, "entries": [row, *over]}, x)


def fraction_decode(doc, x):
    """{prime: Fraction} over the names of norm <= x: the reference decode.

    Each name is split on its own and each value is a Fraction, so a name
    given twice must carry equal Fractions.
    """
    K, out = make_field(doc["d"]), {}
    for row in doc["entries"]:
        P = split_rational_prime(K, row["rational_prime"])[row["root_label"]]
        assert P.norm == row["norm"]
        c = Fraction(row["c_num"], row["c_den"])
        assert out.setdefault(P, c) == c
    return {P: c for P, c in out.items() if P.norm <= x}


def test_columns_match_a_fraction_decode(field5):
    x, rng = 3000, random.Random(14)
    chi = IdealCharacter.from_tau(field5, (4, 1))
    names = enumerate_prime_ideals(field5, x + 200)  # the last few are past x
    j = next(i for i, P in enumerate(names) if P.norm > x and i % 11 == 5)

    def row(P, num, den):
        return {"norm": P.norm, "rational_prime": P.rational_prime, "root_label": P.root_label,
                "c_num": num, "c_den": den}

    rows = []
    for i, P in enumerate(names):
        if i % 11 == 5:
            continue  # no coefficient
        den = rng.randint(1, 10**6)
        num = rng.randint(-1, 1) * math.isqrt(4 * den * den // P.norm)
        v, k = value_at(chi, P), rng.choice((1, 2, -1, -3))
        if i % 7 == 1 and v:  # chi/N +- 10^-30, past int64
            num, den = v * 10**30 + rng.choice((-1, 1)) * P.norm, P.norm * 10**30
        rows.append(row(P, k * num, k * den))  # unreduced, or over a negative denominator
        if i % 13 == 2:  # named again, in another form of the same value
            rows.append(row(P, -2 * k * num, -2 * k * den))
    # rows 5 and j have no other name: equal forms of one value, at a row and past x
    rows += [row(names[5], 2, 8), row(names[5], -1, -4), row(names[5], 1, 4)]
    rows += [row(names[j], 2, 200), row(names[j], 1, 100), row(names[j], -1, -100)]
    rng.shuffle(rows)
    doc = {"format": "eigen-series/1", "d": 5, "weight": [2], "label": "diff", "entries": rows}
    E, want = series_from_obj(doc, x), fraction_decode(doc, x)
    assert E.entries == want and E.num.dtype == E.den.dtype == object
    assert any(P.norm > x for P in fraction_decode(doc, 10**6))
    primes = enumerate_prime_ideals(field5, x)
    for P, num, den in zip(primes, E.num.tolist(), E.den.tolist()):
        c = want.get(P)
        assert (num, den) == ((0, 0) if c is None else (c.numerator, c.denominator))
    assert [r["c_num"] for r in series_to_obj(E)["entries"]] == [want[P].numerator for P in sorted(want)]
    # without the plants every value fits int64, and so do the columns
    small = [r for r in rows if abs(r["c_den"]) < 2**63]
    E = series_from_obj({**doc, "entries": small}, x)
    assert E.num.dtype == E.den.dtype == np.int64
    assert E.entries == fraction_decode({**doc, "entries": small}, x)
    # a repeat with another value is refused, by the entry that repeats
    for P in (names[5], names[j]):
        message = rf"^entry {len(rows)}: {P} named again with another coefficient$"
        with pytest.raises(ValidationError, match=message):
            series_from_obj({**doc, "entries": [*rows, row(P, 3, 400)]}, x)

    def psi(P, value):
        return {"prime_norm": P.norm, "rational_prime": P.rational_prime,
                "root_label": P.root_label, "value": value}

    # a psi table, shuffled, with names past x and some names twice with the same value
    table = {P: rng.choice((-1, 1)) for P in names}
    entries = [psi(P, v) for P, v in table.items()] + [psi(P, table[P]) for P in names[::7]]
    rng.shuffle(entries)
    assert load_psi_table(field5, entries, x) == table
    for P in (names[5], names[j]):
        message = rf"^psi entry {len(entries)}: {P} named again with another value$"
        with pytest.raises(ValidationError, match=message):
            load_psi_table(field5, [*entries, psi(P, -table[P])], x)


def test_load_fixture_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'{"label": "\xff"}')  # not UTF-8
    with pytest.raises(ParseError):
        load_fixture(path, 100)
    path.write_text('{"d": ' + "1" * 5000 + "}")  # past the int-string length limit
    with pytest.raises(ParseError):
        load_fixture(path, 100)
    path.write_text("[" * 100_000 + "]" * 100_000)  # nested past the recursion limit
    with pytest.raises(ParseError):
        load_fixture(path, 100)


def test_series_from_obj_integer_rule():
    good = series_to_obj(series_from_curve(get_curve("37a"), 30))
    entry = good["entries"][0]
    for key in entry:
        for bad in (True, float(entry[key]), str(entry[key]), None):
            with pytest.raises(ParseError):
                series_from_obj({**good, "entries": [{**entry, key: bad}]}, 30)
    header = {
        "d": [True, 1.0, "1"],
        "weight": [2, [], [2.0], [True], ["2"]],
        "label": [37, None],
        "level_support": [2, [2.0], [False], ["37"]],
        "entries": [{}, 5],
    }
    for key, values in header.items():
        for bad in values:
            with pytest.raises(ParseError):
                series_from_obj({**good, key: bad}, 30)
    with pytest.raises(ValidationError):
        series_from_obj({**good, "level_support": [2, 4]}, 30)


def test_psi_table_integer_rule(field5):
    entry = {"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 1}
    for key in entry:
        for bad in (True, float(entry[key]), str(entry[key])):
            with pytest.raises(ParseError):
                load_psi_table(field5, [{**entry, key: bad}], 10)


def test_prime_lookup_splits_each_p_once(field5, monkeypatch):
    # names of norm <= x are the rows of the prime table; only the names past
    # x are split, once per distinct p, in both decoders
    calls = []

    def counted(K, p):
        calls.append(p)
        return split_rational_prime(K, p)

    monkeypatch.setattr(eigen_io, "split_rational_prime", counted)
    x = 100
    T = _prime_table(field5, x)
    P11a, P11b = split_rational_prime(field5, 11)
    (P2,) = split_rational_prime(field5, 2)  # inert, norm 4
    P101a, P101b = split_rational_prime(field5, 101)
    (P13,) = split_rational_prime(field5, 13)  # inert, norm 169
    names = [(11, 11, 1), (11, 11, 0), (4, 2, 0), (101, 101, 1), (169, 13, 0), (101, 101, 0)]
    expected = {P11a, P11b, P2, P101a, P101b, P13}

    def psi(norm, p, label):
        return {"prime_norm": norm, "rational_prime": p, "root_label": label, "value": 1}

    def row(norm, p, label):
        return {"norm": norm, "rational_prime": p, "root_label": label, "c_num": 0, "c_den": 1}

    doc = {"format": "eigen-series/1", "d": 5, "weight": [2, 2], "label": "x"}
    # the series keeps only the rows of the table: names past x are validated, not kept
    decoders = (
        (lambda: load_psi_table(field5, [psi(*n) for n in names + names[:2]], x), expected),
        (
            lambda: series_from_obj({**doc, "entries": [row(*n) for n in names + names[:2]]}, x).entries,
            {P for P in expected if P.norm <= x},
        ),
    )
    for decode, kept in decoders:
        calls.clear()
        keys = decode()
        assert keys.keys() == kept and calls == [101, 13]
        rows = T.lookup([P for P in keys if P.norm <= x])
        assert _prime_ideals(field5, T, rows) == [P for P in keys if P.norm <= x]
    # inert 7 has label 0 only; 4, 9 and 1 are not prime; the error names the entry
    for p, label in ((7, 1), (4, 0), (9, 0), (1, 0)):
        with pytest.raises(ValidationError, match="^psi entry 1: "):
            load_psi_table(field5, [psi(11, 11, 0), psi(p, p, label)], 10)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


def test_atomic_write_reentered_for_same_path(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    real_replace = os.replace
    inner = []

    def replace(src, dst):
        if not inner:  # a second write to the same path lands mid-write
            inner.append(src)
            eigen_io._atomic_write(target, b"inner")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    eigen_io._atomic_write(target, b"outer")
    assert target.read_bytes() == b"outer"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_failure_leaves_no_temp(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(HilbertSignsError, match="out.json"):
        eigen_io._atomic_write(tmp_path / "out.json", b"data")
    assert list(tmp_path.iterdir()) == []


def test_cache_path_sanitizes_labels(tmp_path):
    p1 = cache_path("a/b c:d", tmp_path)
    assert p1.parent == tmp_path and p1.suffix == ".json"
    assert "/" not in p1.name[:-5] and " " not in p1.name and ":" not in p1.name
    # same sanitized stem, different digest: no collision
    assert cache_path("a/b", tmp_path) != cache_path("a_b", tmp_path)


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("HILBERT_SIGNS_CACHE", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"


def test_cached_curve_series_hits_disk(tmp_path, monkeypatch):
    E = get_curve("11a")
    first = cached_curve_series(E, 300, cache_dir=tmp_path)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    # poison the compute path: a second call must come from the cache alone
    monkeypatch.setattr(
        "hilbert_signs.eigen_io.series_from_curve",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("recomputed")),
    )
    again = cached_curve_series(E, 300, cache_dir=tmp_path)
    assert equal_series(first, again)
