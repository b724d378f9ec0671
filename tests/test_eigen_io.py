"""Serialization, the psi-table decoder and the curve cache."""

import hashlib
import importlib
import json
import math
import os
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    enumerate_prime_ideals,
    load_psi_table_by_entry,
    resolve_by_split,
    save_fixture,
    series_from_obj_by_entry,
    series_to_obj,
    split_rational_prime,
    value_at,
)

from hilbert_signs import curves, eigen_io, sign_pipeline
from hilbert_signs.characters import IdealCharacter
from hilbert_signs.curves import CURVE_REGISTRY, get_curve, series_from_curve
from hilbert_signs.eigen_io import (
    CURVE_CACHE_VERSION,
    SCHEMA_TAG,
    cache_path,
    cached_curve_series,
    default_cache_dir,
    load_fixture,
    load_psi_table,
    serialize_series,
    series_from_obj,
)
from hilbert_signs.errors import HilbertSignsError
from hilbert_signs.field_arith import NARROW_CLASS_NUMBER_ONE, _prime_table, make_field
from hilbert_signs.sign_pipeline import EigenvalueSeries

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
    text = "".join(serialize_series(E))
    back = series_from_obj(json.loads(text), 200)
    assert equal_series(E, back)
    assert "".join(serialize_series(back)) == text


def encoder_text(E):
    return json.dumps(series_to_obj(E), indent=1, sort_keys=True) + "\n"


_LABELS = ['"entries": [', 'x"entries": []', 'a "quoted" \\ label', "\x00\x07\x1f\t\n", "caf\u00e9 \u2603 \U0001f600"]


@settings(max_examples=60)
@given(st.data())
def test_serialize_series_matches_the_json_encoder(data):
    # the row template against json.dumps of one dict per entry, over labels
    # the encoder escapes and columns of Python ints past 2^63
    d, x = data.draw(st.sampled_from((1, 5, 13))), data.draw(st.integers(2, 150))
    K = make_field(d)
    label = data.draw(st.one_of(st.sampled_from(_LABELS), st.text()))
    weight = data.draw(st.lists(st.sampled_from((2, 4, 6)), min_size=1, max_size=2))
    level = data.draw(st.lists(st.sampled_from((2, 3, 5, 7, 37, 2**61 - 1)), unique=True))
    top = data.draw(st.sampled_from((10**6, 2**70)))
    num, den = [], []
    for N in _prime_table(K, x).norm.tolist():
        b = data.draw(st.integers(0, top))  # 0: no coefficient
        bound = math.isqrt(4 * b * b // N)
        num.append(data.draw(st.integers(-bound, bound)))
        den.append(b * data.draw(st.sampled_from((1, -1))))
    E = EigenvalueSeries(K, weight, label, x, num, den, level)
    assert "".join(serialize_series(E)) == encoder_text(E)


def test_serialize_series_with_no_coefficients():
    for d in (1, 5, 13):
        zeros = [0] * len(_prime_table(make_field(d), 50).norm)
        for label in _LABELS:
            E = EigenvalueSeries(make_field(d), (2,), label, 50, zeros, zeros)
            assert "".join(serialize_series(E)) == encoder_text(E)
            assert '"entries": []' in "".join(serialize_series(E))


@pytest.mark.parametrize("block", [1, 2, 7, 45, 46])
def test_serialize_series_blocks_join_to_the_document(monkeypatch, block):
    # 37a to 200 has 45 entries (none at 37): blocks of one row, an uneven
    # last block, one full block and one with room to spare
    E = series_from_curve(get_curve("37a"), 200)
    monkeypatch.setattr(eigen_io, "_BLOCK", block)
    chunks = list(serialize_series(E))
    assert len(chunks) == -(-45 // block) + 1  # the head rides on the first block; then the tail
    assert "".join(chunks) == encoder_text(E)


def test_fixture_roundtrip(tmp_path):
    E = series_from_curve(get_curve("11a"), 100)
    path = tmp_path / "11a.json"
    save_fixture(E, path)
    assert equal_series(load_fixture(path, 100), E)


def test_load_fixture_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    with pytest.raises(HilbertSignsError, match="not valid JSON"):
        load_fixture(path, 100)


def test_series_from_obj_errors():
    good = series_to_obj(series_from_curve(get_curve("37a"), 30))
    with pytest.raises(HilbertSignsError, match="^eigen-series document must be a JSON object$"):
        series_from_obj([], 30)
    with pytest.raises(HilbertSignsError, match="^unrecognized format tag 'nope/0'$"):
        series_from_obj({**good, "format": "nope/0"}, 30)
    for key in ("d", "weight", "label", "entries"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(HilbertSignsError, match=f"^eigen-series document missing field '{key}'$"):
            series_from_obj(broken, 30)
    with pytest.raises(HilbertSignsError, match="^bad field parameter d=3: .* outside the supported"):
        series_from_obj({**good, "d": 3}, 30)  # outside the field allowlist
    with pytest.raises(HilbertSignsError, match=r"^weights must be even integers >= 2, got \(3,\)$"):
        series_from_obj({**good, "weight": [3]}, 30)
    entry = {"norm": 3, "rational_prime": 3, "root_label": 0, "c_num": 2, "c_den": 1}
    with pytest.raises(HilbertSignsError, match=r"exceeds 2/sqrt\(3\)$"):
        series_from_obj({**good, "entries": [entry]}, 30)  # 4*3 > 4
    with pytest.raises(HilbertSignsError, match="^entry 0: zero denominator$"):
        series_from_obj({**good, "entries": [{**entry, "c_den": 0}]}, 30)
    with pytest.raises(HilbertSignsError, match="^entry 0: no prime of norm 9"):
        series_from_obj({**good, "entries": [{**entry, "norm": 9}]}, 30)  # no such prime
    with pytest.raises(HilbertSignsError, match="^entry 0: missing field"):
        series_from_obj({**good, "entries": [{"norm": 3}]}, 30)


def test_hasse_violation_past_x_is_an_input_error():
    row = {"norm": 3, "rational_prime": 3, "root_label": 0, "c_num": 0, "c_den": 1}
    doc = {"format": "eigen-series/1", "d": 1, "weight": [2], "label": "x", "entries": [row]}
    past = {**row, "norm": 5, "rational_prime": 5, "c_num": 1}
    with pytest.raises(HilbertSignsError, match=r"^x: \|c\(\(5\)\)\| = \|1\| exceeds 2/sqrt\(5\)$"):
        series_from_obj({**doc, "entries": [row, past]}, 3)
    # of several violations the first in canonical order is named, past x or not
    over = [{**row, "norm": p, "rational_prime": p, "c_num": 1} for p in (13, 11, 7)]
    for x in (3, 10, 100):
        with pytest.raises(HilbertSignsError, match=r"^x: \|c\(\(7\)\)\|"):
            series_from_obj({**doc, "entries": [row, *over]}, x)


def fraction_decode(doc, x):
    """{name of P: Fraction} over the names of norm <= x: the reference decode.

    Each name is split on its own and each value is a Fraction, so a name
    given twice must carry equal Fractions.
    """
    K, out = make_field(doc["d"]), {}
    for row in doc["entries"]:
        P = split_rational_prime(K, row["rational_prime"])[row["root_label"]]
        assert P.norm == row["norm"]
        c = Fraction(row["c_num"], row["c_den"])
        assert out.setdefault(P, c) == c
    return {P[:3]: c for P, c in out.items() if P.norm <= x}


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
    assert any(norm > x for norm, _, _ in fraction_decode(doc, 10**6))
    primes = enumerate_prime_ideals(field5, x)
    for P, num, den in zip(primes, E.num.tolist(), E.den.tolist()):
        c = want.get(P[:3])
        assert (num, den) == (0, 0) if c is None else den > 0 and Fraction(num, den) == c
    assert [r["c_num"] for r in series_to_obj(E)["entries"]] == [want[P].numerator for P in sorted(want)]
    # without the plants every value fits int64, and so do the columns
    small = [r for r in rows if abs(r["c_den"]) < 2**63]
    E = series_from_obj({**doc, "entries": small}, x)
    assert E.num.dtype == E.den.dtype == np.int64
    assert E.entries == fraction_decode({**doc, "entries": small}, x)
    # a repeat with another value is refused, by the entry that repeats
    for P in (names[5], names[j]):
        message = rf"^entry {len(rows)}: {P} named again with another coefficient$"
        with pytest.raises(HilbertSignsError, match=message):
            series_from_obj({**doc, "entries": [*rows, row(P, 3, 400)]}, x)

    def psi(P, value):
        return {"prime_norm": P.norm, "rational_prime": P.rational_prime,
                "root_label": P.root_label, "value": value}

    # a psi table, shuffled, with names past x and some names twice with the same value
    table = {P: rng.choice((-1, 1)) for P in names}
    entries = [psi(P, v) for P, v in table.items()] + [psi(P, table[P]) for P in names[::7]]
    rng.shuffle(entries)
    assert load_psi_table(field5, entries, x) == {P[:3]: v for P, v in table.items()}
    for P in (names[5], names[j]):
        message = rf"^psi entry {len(entries)}: {P} named again with another value$"
        with pytest.raises(HilbertSignsError, match=message):
            load_psi_table(field5, [*entries, psi(P, -table[P])], x)

    # two faults planted at random entries of each document: the columns and
    # the entry-by-entry reference give the same series or table, or the same
    # exception with the same message
    def rule(message):  # the kind of fault an error names
        if "missing field" in message or "must be JSON integers" in message:
            return "shape"
        return "hasse" if "exceeds 2/sqrt" in message else "value"

    def outcome(decode, *args):
        try:
            got = decode(*args)
        except HilbertSignsError as e:
            return type(e), str(e)
        if isinstance(got, EigenvalueSeries):
            return got.num.tolist(), got.den.tolist(), got.num.dtype, got.den.dtype
        return got

    past = [P for P in names if P.norm > x]
    bad_names = [(1001, 1001, 0), (121, 11, 0), (11, 11, 4), (25, 5, 1), (-3, -3, 0), (2**70, 2**70, 0)]
    bad_names += [(9, 3, -1), (4, 2, 1), (3003, 3003, 0)]  # 3003 > x, and no prime

    def plant(doc, name_key, value_key, kind):
        doc = [dict(e) if isinstance(e, dict) else e for e in doc]
        i = rng.choice([k for k, e in enumerate(doc) if isinstance(e, dict)])
        e = doc[i]
        if kind == "missing":
            if rng.random() < 0.3:
                doc[i] = rng.choice(([], 5, None, "norm"))
            else:
                del e[rng.choice(list(e))]
        elif kind == "type":
            key = rng.choice(list(e))
            e[key] = rng.choice((True, False, float(e[key]), str(e[key])))
        elif kind == "value":  # a zero denominator, or a psi value other than +-1
            if value_key == "value":
                e["value"] = rng.choice((0, 2, -3))
            else:
                e["c_den"] = 0
        elif kind in ("unknown", "past"):
            norm, p, label = rng.choice(bad_names) if kind == "unknown" else rng.choice(past)[:3]
            e[name_key], e["rational_prime"], e["root_label"] = norm, p, label
        elif kind == "repeat":
            again = dict(rng.choice([e for e in doc if isinstance(e, dict)]))
            if type(again.get(value_key)) is int:
                again[value_key] = -again[value_key] if value_key == "value" else again[value_key] + 1
            doc.insert(i, again)
        elif value_key == "c_num":  # a Hasse violation: |c| = 3
            e["c_num"] = 3 * e.get("c_den", 1)
        return doc

    kinds = ("missing", "type", "value", "unknown", "past", "repeat", "hasse")
    seen = set()
    for trial in range(80):
        planted = (rng.choice(kinds), rng.choice(kinds))
        doc_rows = plant(rows, "norm", "c_num", planted[0])
        doc_rows = plant(doc_rows, "norm", "c_num", planted[1])
        rng.shuffle(doc_rows)
        got = outcome(series_from_obj, {**doc, "entries": doc_rows}, x)
        assert got == outcome(series_from_obj_by_entry, {**doc, "entries": doc_rows}, x), planted
        psi_rows = plant(entries, "prime_norm", "value", planted[0])
        psi_rows = plant(psi_rows, "prime_norm", "value", planted[1])
        rng.shuffle(psi_rows)
        want = outcome(load_psi_table_by_entry, field5, psi_rows, x)
        assert outcome(load_psi_table, field5, psi_rows, x) == want, planted
        seen.update(rule(w[1]) for w in (got, want) if type(w) is tuple and len(w) == 2)
    assert seen == {"shape", "value", "hasse"}


def test_load_fixture_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'{"label": "\xff"}')  # not UTF-8
    with pytest.raises(HilbertSignsError, match="not valid JSON .*'utf-8' codec"):
        load_fixture(path, 100)
    path.write_text('{"d": ' + "1" * 5000 + "}")  # past the int-string length limit
    with pytest.raises(HilbertSignsError, match="not valid JSON .*integer string conversion"):
        load_fixture(path, 100)
    path.write_text("[" * 100_000 + "]" * 100_000)  # nested past the recursion limit
    with pytest.raises(HilbertSignsError, match="not valid JSON .*recursion"):
        load_fixture(path, 100)


def test_series_from_obj_integer_rule():
    good = series_to_obj(series_from_curve(get_curve("37a"), 30))
    entry = good["entries"][0]
    for key in entry:
        for bad in (True, float(entry[key]), str(entry[key]), None):
            with pytest.raises(HilbertSignsError, match="^entry 0: numeric fields must be JSON integers$"):
                series_from_obj({**good, "entries": [{**entry, key: bad}]}, 30)
    header = {
        "d": [True, 1.0, "1"],
        "weight": [2, [], [2.0], [True], ["2"]],
        "label": [37, None],
        "level_support": [2, [2.0], [False], ["37"]],
        "entries": [{}, 5],
    }
    rule = {
        "d": "field parameter d must be a JSON integer",
        "weight": "weight must be a non-empty list of JSON integers",
        "label": "label must be a string",
        "level_support": "level_support must be a list of JSON integers",
        "entries": "eigen-series entries must be a JSON list",
    }
    for key, values in header.items():
        for bad in values:
            with pytest.raises(HilbertSignsError, match=f"^{rule[key]}"):
                series_from_obj({**good, key: bad}, 30)
    with pytest.raises(HilbertSignsError, match="^level_support entry 4 is not a prime below 2"):
        series_from_obj({**good, "level_support": [2, 4]}, 30)


def test_psi_table_integer_rule(field5):
    entry = {"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 1}
    for key in entry:
        for bad in (True, float(entry[key]), str(entry[key])):
            with pytest.raises(HilbertSignsError, match="^psi entry 0: numeric fields must be JSON integers$"):
                load_psi_table(field5, [{**entry, key: bad}], 10)


def test_prime_lookup_resolves_only_the_names_past_x(field5, monkeypatch):
    # names of norm <= x are the rows of the prime table; only the names past
    # x are checked one by one, with no root, in both decoders
    calls, resolve = [], eigen_io._resolve

    def counted(K, norm, p, label, where):
        calls.append(p)
        return resolve(K, norm, p, label, where)

    monkeypatch.setattr(eigen_io, "_resolve", counted)
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
        (lambda: load_psi_table(field5, [psi(*n) for n in names + names[:2]], x), {P[:3] for P in expected}),
        (
            lambda: series_from_obj({**doc, "entries": [row(*n) for n in names + names[:2]]}, x).entries,
            {P[:3] for P in expected if P.norm <= x},
        ),
    )
    for decode, kept in decoders:
        calls.clear()
        keys = decode()
        assert keys.keys() == kept and calls == [101, 13, 101]
        rows = T.lookup(*zip(*(P[:3] for P in keys if P[0] <= x)))
        assert list(zip(*T.names(rows))) == [P for P in keys if P[0] <= x]
    # inert 7 has label 0 only; 4, 9 and 1 are not prime; the error names the entry
    for p, label in ((7, 1), (4, 0), (9, 0), (1, 0)):
        with pytest.raises(HilbertSignsError, match="^psi entry 1: "):
            load_psi_table(field5, [psi(11, 11, 0), psi(p, p, label)], 10)


# ----------------------------------------------------------------------
# the column reader of files in the writer's layout, against the JSON reader
# ----------------------------------------------------------------------


def writer_text(doc):
    """doc in the writer's layout: the bytes serialize_series writes for a series."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def series_outcome(decode, *args):
    """The series decode gives, as its fields and columns, or the text of its input error."""
    try:
        E = decode(*args)
    except HilbertSignsError as e:
        return str(e)
    columns = E.num.tolist(), E.den.tolist(), E.num.dtype, E.den.dtype
    return E.field.d, E.weight, E.label, E.level_support, E.x, *columns


def in_lowest_terms(E):
    """E with each row in lowest terms, 0/0 where it has no coefficient."""
    g = [math.gcd(a, b) or 1 for a, b in zip(E.num.tolist(), E.den.tolist())]
    num, den = ([v // k for v, k in zip(c.tolist(), g)] for c in (E.num, E.den))
    return EigenvalueSeries(E.field, E.weight, E.label, E.x, num, den, E.level_support)


def reference_outcome(path, x):
    """The entry-by-entry decoder on json.loads of the file, worded as load_fixture words a bad file."""
    try:
        doc = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as e:
        return f"{path}: not valid JSON ({e})"
    return series_outcome(series_from_obj_by_entry, doc, x)


class ReadPaths:
    """Counts the reads of load_fixture that went to the JSON reader."""

    def __init__(self, monkeypatch):
        self.json = 0
        real = eigen_io._read_json

        def read_json(path, what):
            self.json += 1
            return real(path, what)

        monkeypatch.setattr(eigen_io, "_read_json", read_json)

    def load(self, path, x):
        """load_fixture's outcome, and whether it read the file as JSON."""
        before = self.json
        got = series_outcome(load_fixture, path, x)
        assert got == reference_outcome(path, x)
        return got, self.json > before


@pytest.mark.parametrize("block", [1, 2, 3, 512])
@settings(max_examples=25)
@given(data=st.data())
def test_column_reader_matches_the_json_reader_on_writer_documents(tmp_path_factory, block, data):
    # random series in the writer's layout, read at their own x and at
    # another, with reader blocks cut at every row (block 1) and wider
    d, x = data.draw(st.sampled_from((1, 5, 13))), data.draw(st.integers(2, 150))
    K = make_field(d)
    label = data.draw(st.one_of(st.sampled_from(_LABELS), st.text(max_size=20)))
    weight = data.draw(st.lists(st.sampled_from((2, 4, 6)), min_size=1, max_size=2))
    level = data.draw(st.lists(st.sampled_from((2, 3, 5, 7, 37, 2**61 - 1)), unique=True))
    top = data.draw(st.sampled_from((10**6, 2**62, 2**70)))
    num, den = [], []
    for N in _prime_table(K, x).norm.tolist():
        b = data.draw(st.integers(0, top))  # 0: no coefficient
        bound = math.isqrt(4 * b * b // N)
        num.append(data.draw(st.integers(-bound, bound)))
        den.append(b * data.draw(st.sampled_from((1, -1))))
    E = EigenvalueSeries(K, weight, label, x, num, den, level)
    path = tmp_path_factory.mktemp("writer") / "doc.json"
    save_fixture(E, path)
    E = in_lowest_terms(E)  # as the writer writes it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigen_io, "_BLOCK", block)
        reads = ReadPaths(mp)
        for at in (x, data.draw(st.integers(1, 200))):
            got, as_json = reads.load(path, at)
            small = all(abs(v) < 2**63 for v in E.num.tolist() + E.den.tolist())
            assert as_json == (not small or not E.den.any())  # past int64, or no entry: "entries": []
            if at == x:
                assert got == series_outcome(lambda: E)


@pytest.mark.parametrize("block", [2, 512])
def test_column_reader_matches_the_json_reader_on_every_one_byte_edit(tmp_path, monkeypatch, block):
    # each byte of a small cache file replaced by a digit, a minus, a space
    # or a newline, or deleted: the same series or the same error either way
    monkeypatch.setattr(eigen_io, "_BLOCK", block)
    text = "".join(serialize_series(series_from_curve(get_curve("11a"), 40))).encode()
    reads, path, kinds = ReadPaths(monkeypatch), tmp_path / "edit.json", set()
    for i in range(len(text)):
        for edit in (b"7", b"-", b" ", b"\n", b""):
            if text[i : i + 1] == edit:
                continue
            path.write_bytes(text[:i] + edit + text[i + 1 :])
            got, as_json = reads.load(path, 30)  # names past 30 are checked, not kept
            kinds.add((type(got) is str, as_json))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_column_reader_sends_what_the_writer_never_writes_to_the_json_reader(tmp_path, monkeypatch):
    doc = series_to_obj(series_from_curve(get_curve("37a"), 60))
    entries = doc["entries"]
    reads, path = ReadPaths(monkeypatch), tmp_path / "doc.json"

    def read(text):
        path.write_text(text)
        return reads.load(path, 60)

    good = writer_text(doc)
    assert read(good)[1] is False
    first = '"c_num": %d,' % entries[0]["c_num"]
    for value in (2**63, -(2**63), 2**63 - 1, -(2**63) + 1):
        got, as_json = read(good.replace(first, '"c_num": %d,' % value, 1))
        assert as_json == (abs(value) >= 2**63) and "exceeds 2/sqrt(2)" in got
    tag, label = f' "format": "{SCHEMA_TAG}",\n', ' "label": "37a",\n'
    assert tag + label in good
    for text in (
        good.replace(tag + label, label + tag),  # "label" before "format"
        good.replace(' "label": "37a",\n', ' "label": "37a",\n "label": "37a",\n'),  # a key twice
        good.replace(first, first + "\n   " + first, 1),  # a key twice in an entry
        writer_text({**doc, "entries": [entries[0], *entries]}),  # a name twice, same value
        writer_text({**doc, "entries": [*entries[1:], entries[0]]}),  # names out of order
    ):
        got, as_json = read(text)
        assert as_json and type(got) is tuple
    for i, key in ((0, "c_den"), (5, "c_den"), (5, "norm")):
        got, as_json = read(writer_text({**doc, "entries": [*entries[:i], {**entries[i], key: 0}, *entries[i + 1 :]]}))
        assert as_json and type(got) is str  # a zero denominator, a name out of order
    got, as_json = read(writer_text({**doc, "entries": [*entries, {**entries[-1], "c_num": 3}]}))
    assert as_json and got == f"entry {len(entries)}: (59) named again with another coefficient"


def test_column_reader_checks_the_names_past_x(tmp_path, monkeypatch):
    # a cache file read at a smaller x: its names past x are split, a
    # composite p refused and the Hasse bound checked, as the JSON reader does
    doc = series_to_obj(series_from_curve(get_curve("11a"), 1000))
    entries, reads, path = doc["entries"], ReadPaths(monkeypatch), tmp_path / "doc.json"
    assert entries[-1]["norm"] == 997
    composite = {"norm": 999, "rational_prime": 999, "root_label": 0, "c_num": 0, "c_den": 1}
    cases = {
        "none": entries,
        "composite": [*entries[:-1], composite],
        "composite appended": [*entries, {**composite, "norm": 1003, "rational_prime": 1003}],
        "hasse": [*entries[:-1], {**entries[-1], "c_num": entries[-1]["c_den"]}],
        "label": [*entries[:-1], {**entries[-1], "root_label": 1}],
    }
    want = {
        "none": None,
        "composite": f"entry {len(entries) - 1}: 999 is not prime",
        "composite appended": f"entry {len(entries)}: 1003 is not prime",
        "hasse": "11a: |c((997))| = |1| exceeds 2/sqrt(997)",
        "label": f"entry {len(entries) - 1}: no prime above 997 with root label 1 in Q",
    }
    for case, rows in cases.items():
        path.write_text(writer_text({**doc, "entries": rows}))
        for x in (100, 1000):
            got, as_json = reads.load(path, x)
            assert not as_json
            assert got == want[case] if want[case] else type(got) is tuple


@pytest.mark.parametrize("wide,narrow", [(1, 2), (2, 1), (1, 5), (5, 1)])
def test_load_fixture_names_the_first_entry_over_the_bound(tmp_path, monkeypatch, wide, narrow):
    # one value past int64 and one in int64 lanes, both over the bound, in one chunk of 4 rows or across two
    monkeypatch.setattr(sign_pipeline, "_LANES", 4)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    rows = [{"norm": p, "rational_prime": p, "root_label": 0, "c_num": 0, "c_den": 1} for p in primes]
    rows[wide].update(c_num=10**30, c_den=10**29)  # c = 10
    rows[narrow].update(c_num=3)  # c = 3
    path = tmp_path / "over.json"
    path.write_text(json.dumps({"format": SCHEMA_TAG, "d": 1, "weight": [2], "label": "x", "entries": rows}))
    first = min(wide, narrow)
    p, c = primes[first], 10 if first == wide else 3
    with pytest.raises(HilbertSignsError) as e:
        load_fixture(path, 30)
    assert str(e.value) == f"x: |c(({p}))| = |{c}| exceeds 2/sqrt({p})"


def test_name_rows_compares_int64_repeats_exactly():
    # 2^32/1 and 0/2^32 name one prime: their cross products, 0 and 2^64,
    # are equal once wrapped to int64, but the values are not
    names = [np.array([3, 3]), np.array([3, 3]), np.array([0, 0])]
    num, den = np.array([2**32, 0]), np.array([1, 2**32])
    with pytest.raises(HilbertSignsError, match=r"^entry 1: \(3\) named again with another coefficient$"):
        eigen_io._name_rows(Q, 10, names, num, den, "entry", "coefficient")


def test_every_cache_file_loads_without_the_json_reader(tmp_path, monkeypatch):
    # a later change must not send the cache reads down the JSON path unseen
    written = {label: cached_curve_series(E, 20_000, tmp_path) for label, E in sorted(CURVE_REGISTRY.items())}
    assert len(list(tmp_path.glob("*.json"))) == len(written) == 5

    def refuse(*args):
        raise AssertionError("a cache file went to the JSON reader")

    monkeypatch.setattr(eigen_io, "series_from_obj", refuse)
    monkeypatch.setattr(curves, "series_from_curve", refuse)
    for label, E in written.items():
        again = cached_curve_series(CURVE_REGISTRY[label], 20_000, tmp_path)
        assert equal_series(again, E)
        assert again.num.dtype == again.den.dtype == np.int64


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
            eigen_io._atomic_write(target, [b"inner"])
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    eigen_io._atomic_write(target, [b"outer"])
    assert target.read_bytes() == b"outer"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_failure_leaves_no_temp(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(HilbertSignsError, match="out.json"):
        eigen_io._atomic_write(tmp_path / "out.json", [b"data"])
    assert list(tmp_path.iterdir()) == []


def test_cache_path_sanitizes_labels(tmp_path):
    p1 = cache_path("a/b c:d", tmp_path)
    assert p1.parent == tmp_path and p1.suffix == ".json"
    assert "/" not in p1.name[:-5] and " " not in p1.name and ":" not in p1.name
    # same sanitized stem, different digest: no collision
    assert cache_path("a/b", tmp_path) != cache_path("a_b", tmp_path)


def test_cache_path_names_are_pinned(tmp_path):
    # the first 16 hex digits of the label's sha256; a new digest would orphan every cache file
    assert cache_path("curve-37a-X100000-v1", tmp_path).name == "curve-37a-X100000-v1-6e2e19639ea4c09d.json"
    assert cache_path("curve-11a-X100-v1", tmp_path).name == "curve-11a-X100-v1-c8254a5191e3630e.json"


@pytest.mark.parametrize("label", [*sorted(CURVE_REGISTRY), "курва-37a/√5"])
def test_cache_path_digest_is_hashlib_sha256(tmp_path, label):
    key = f"curve-{label}-X100000-v{CURVE_CACHE_VERSION}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    assert cache_path(key, tmp_path).name.endswith(f"-{digest}.json")


def test_cache_path_falls_back_to_hashlib(tmp_path, monkeypatch):
    # an interpreter without its own SHA-256 module names the file the same
    def no_builtin_sha(name):
        if name in ("_sha2", "_sha256"):
            raise ImportError(name)
        return importlib.__import__(name)

    monkeypatch.setattr(importlib, "import_module", no_builtin_sha)
    assert cache_path("curve-37a-X100000-v1", tmp_path).name == "curve-37a-X100000-v1-6e2e19639ea4c09d.json"


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
        "hilbert_signs.curves.series_from_curve",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("recomputed")),
    )
    again = cached_curve_series(E, 300, cache_dir=tmp_path)
    assert equal_series(first, again)


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_resolve_names_and_errors_match_splitting_each_p(d):
    # every name around the integers below 200, and around primes and
    # composites up to 2^64: the same name, or the same error text
    K = make_field(d)

    def outcome(resolve, norm, p, label):
        try:
            return resolve(K, norm, p, label, "entry 3")
        except HilbertSignsError as e:
            return str(e)

    big = [2**61 - 1, 3215031751, 399165290221 * 798330580441, 2**64 - 59, 2**64 - 1, 2**64, 2**70]
    for p in [*range(-3, 200), *big]:
        for norm in (p, p * p, p + 1):
            for label in (-1, 0, 1, 2):
                assert outcome(eigen_io._resolve, norm, p, label) == outcome(resolve_by_split, norm, p, label)


def test_resolve_words_each_refusal(field5):
    for name, message in (
        ((15, 15, 0), "entry 3: 15 is not prime"),
        ((11, 11, 2), "entry 3: no prime above 11 with root label 2 in Q(sqrt(5))"),
        ((7, 7, 0), "entry 3: no prime of norm 7, label 0 above 7 in Q(sqrt(5))"),
    ):
        with pytest.raises(HilbertSignsError, match=f"^{re.escape(message)}$"):
            eigen_io._resolve(field5, *name, "entry 3")
