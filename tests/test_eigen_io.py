"""Serialization, disk caching, and the injectable remote-fetch path."""

import json
import os
from fractions import Fraction

import pytest

from hilbert_signs import (
    HasseBoundViolated,
    HilbertSignsError,
    NetworkError,
    ParseError,
    ValidationError,
    cached_curve_series,
    fetch_lmfdb,
    get_curve,
    load_fixture,
    load_psi_table,
    make_field,
    save_fixture,
    serialize_series,
    series_from_curve,
    series_from_obj,
    series_to_obj,
    split_rational_prime,
)
from hilbert_signs.curves import ap_oracle
from hilbert_signs import eigen_io
from hilbert_signs.eigen_io import _series_from_remote_payload, cache_path, default_cache_dir

Q = make_field(1)


def curve_payload(label, X, form="pairs"):
    """Record-set payload in the remote shape, built from the count oracle."""
    E = get_curve(label)
    bad = set(E.bad_primes())
    from hilbert_signs import primes_upto

    eigenvalues = []
    for q in primes_upto(X):
        p = int(q)
        if p in bad:
            continue
        ap = ap_oracle(E, p)
        if form == "pairs":
            eigenvalues.append([p, ap])
        else:
            eigenvalues.append([p, [ap, p]])
    return {
        "data": [
            {
                "label": label,
                "weight": 2,
                "level_support": sorted(bad | {2}),
                "eigenvalues": eigenvalues,
            }
        ]
    }


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
    back = series_from_obj(json.loads(text))
    assert equal_series(E, back)
    assert serialize_series(back) == text


def test_fixture_roundtrip(tmp_path):
    E = series_from_curve(get_curve("11a"), 100)
    path = tmp_path / "11a.json"
    save_fixture(E, path)
    assert equal_series(load_fixture(path), E)


def test_load_fixture_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    with pytest.raises(ParseError):
        load_fixture(path)


def test_series_from_obj_errors():
    good = series_to_obj(series_from_curve(get_curve("37a"), 30))
    with pytest.raises(ParseError):
        series_from_obj([])
    with pytest.raises(ParseError):
        series_from_obj({**good, "format": "nope/0"})
    for key in ("d", "weight", "label", "entries"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ParseError):
            series_from_obj(broken)
    with pytest.raises(ValidationError):
        series_from_obj({**good, "d": 3})  # outside the field allowlist
    with pytest.raises(ValidationError):
        series_from_obj({**good, "weight": [3]})
    entry = {"norm": 3, "rational_prime": 3, "root_label": 0, "c_num": 2, "c_den": 1}
    with pytest.raises(HasseBoundViolated):
        series_from_obj({**good, "entries": [entry]})  # 4*3 > 4
    with pytest.raises(ValidationError):
        series_from_obj({**good, "entries": [{**entry, "c_den": 0}]})
    with pytest.raises(ValidationError):
        series_from_obj({**good, "entries": [{**entry, "norm": 9}]})  # no such prime
    with pytest.raises(ParseError):
        series_from_obj({**good, "entries": [{"norm": 3}]})


def test_load_fixture_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b'{"label": "\xff"}')  # not UTF-8
    with pytest.raises(ParseError):
        load_fixture(path)
    path.write_text('{"d": ' + "1" * 5000 + "}")  # past the int-string length limit
    with pytest.raises(ParseError):
        load_fixture(path)
    path.write_text("[" * 100_000 + "]" * 100_000)  # nested past the recursion limit
    with pytest.raises(ParseError):
        load_fixture(path)


def test_series_from_obj_integer_rule():
    good = series_to_obj(series_from_curve(get_curve("37a"), 30))
    entry = good["entries"][0]
    for key in entry:
        for bad in (True, float(entry[key]), str(entry[key]), None):
            with pytest.raises(ParseError):
                series_from_obj({**good, "entries": [{**entry, key: bad}]})
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
                series_from_obj({**good, key: bad})
    with pytest.raises(ValidationError):
        series_from_obj({**good, "level_support": [2, 4]})


def test_psi_table_integer_rule(field5):
    entry = {"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 1}
    for key in entry:
        for bad in (True, float(entry[key]), str(entry[key])):
            with pytest.raises(ParseError):
                load_psi_table(field5, [{**entry, key: bad}])


def test_remote_payload_integer_rule():
    def decode(normalization="arithmetic", **fields):
        record = {"label": "x", "weight": 2, "eigenvalues": [[3, 1]], **fields}
        return _series_from_remote_payload({"data": [record]}, "x", normalization)

    assert list(decode().entries.values()) == [Fraction(1, 3)]
    for pairs in ([["3", 1]], [[3, 1.0]], [[3, True, 1]], [[3]], [3], [[3, 0, 1, 2]], {}):
        with pytest.raises(ParseError):
            decode(eigenvalues=pairs)
    for pairs in ([[3, [1, 3.0]]], [[3, 1]], [[3, [1]]]):
        with pytest.raises(ParseError):
            decode("coefficient", eigenvalues=pairs)
    for fields in ({"weight": "2"}, {"weight": [2.0]}, {"d": "5"}, {"level_support": [2.0]}):
        with pytest.raises(ParseError):
            decode(**fields)
    with pytest.raises(ValidationError):
        decode(level_support=[4])
    with pytest.raises(ValidationError):
        decode("coefficient", eigenvalues=[[3, [1, 0]]])
    for payload in ({"data": 5}, [1, 2]):
        with pytest.raises(ParseError):
            _series_from_remote_payload(payload, "x", "arithmetic")


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


# ----------------------------------------------------------------------
# remote fetch with injected transports
# ----------------------------------------------------------------------


def test_fetch_parses_arithmetic_payload(tmp_path):
    payload = json.dumps(curve_payload("37a", 100)).encode()
    calls = []

    def transport(url):
        calls.append(url)
        return payload

    E = fetch_lmfdb("https://example.test/api", "37a", cache_dir=tmp_path, transport=transport)
    assert len(calls) == 1 and "37a" in calls[0]
    assert equal_series(E, series_from_curve(get_curve("37a"), 100))
    verbatim = cache_path("lmfdb-37a", tmp_path)
    assert verbatim.read_bytes() == payload
    assert cache_path("lmfdb-37a-parsed", tmp_path).exists()


def test_fetch_prefers_cache(tmp_path):
    payload = json.dumps(curve_payload("37a", 50)).encode()
    fetch_lmfdb("https://example.test", "37a", cache_dir=tmp_path, transport=lambda u: payload)

    def explode(url):
        raise AssertionError("network touched despite cache")

    E = fetch_lmfdb("https://example.test", "37a", cache_dir=tmp_path, transport=explode)
    assert equal_series(E, series_from_curve(get_curve("37a"), 50))


def test_fetch_offline_without_cache(tmp_path):
    with pytest.raises(NetworkError):
        fetch_lmfdb("https://example.test", "37a", cache_dir=tmp_path, offline=True)


def test_fetch_offline_with_cache(tmp_path):
    payload = json.dumps(curve_payload("11a", 50)).encode()
    fetch_lmfdb("https://example.test", "11a", cache_dir=tmp_path, transport=lambda u: payload)
    E = fetch_lmfdb("https://example.test", "11a", cache_dir=tmp_path, offline=True)
    assert E.label == "11a"


def test_fetch_retries_then_succeeds(tmp_path):
    payload = json.dumps(curve_payload("37a", 30)).encode()
    calls = []

    def flaky(url):
        calls.append(url)
        if len(calls) < 3:
            raise NetworkError("transient")
        return payload

    E = fetch_lmfdb(
        "https://example.test", "37a", cache_dir=tmp_path, transport=flaky, backoff=0.0
    )
    assert len(calls) == 3 and E.label == "37a"


def test_fetch_retries_exhausted(tmp_path):
    calls = []

    def dead(url):
        calls.append(url)
        raise NetworkError("down")

    with pytest.raises(NetworkError):
        fetch_lmfdb(
            "https://example.test", "37a", cache_dir=tmp_path, transport=dead, backoff=0.0
        )
    assert len(calls) == 3


def test_fetch_coefficient_normalization(tmp_path):
    payload = json.dumps(curve_payload("37a", 50, form="coeff")).encode()
    E = fetch_lmfdb(
        "https://example.test",
        "37a",
        normalization="coefficient",
        cache_dir=tmp_path,
        transport=lambda u: payload,
    )
    assert equal_series(E, series_from_curve(get_curve("37a"), 50))


def test_fetch_split_prime_addressing(tmp_path, field5):
    payload = json.dumps(
        {
            "data": [
                {
                    "label": "toy",
                    "weight": [2],
                    "d": 5,
                    "eigenvalues": [[11, 1, [1, 11]], [11, 0, [-1, 11]], [3, [0, 1]]],
                }
            ]
        }
    ).encode()
    E = fetch_lmfdb(
        "https://example.test",
        "toy",
        normalization="coefficient",
        cache_dir=tmp_path,
        transport=lambda u: payload,
    )
    P11a, P11b = split_rational_prime(field5, 11)
    P3 = split_rational_prime(field5, 3)[0]
    assert E.entries == {P11b: Fraction(1, 11), P11a: Fraction(-1, 11), P3: Fraction(0)}


def test_fetch_rejects_unknown_root_label(tmp_path):
    payload = json.dumps(
        {"data": [{"label": "toy", "weight": [2], "d": 5, "eigenvalues": [[3, 7, [0, 1]]]}]}
    ).encode()
    with pytest.raises(ValidationError):
        fetch_lmfdb(
            "https://example.test",
            "toy",
            normalization="coefficient",
            cache_dir=tmp_path,
            transport=lambda u: payload,
        )


def test_fetch_native_document_passthrough(tmp_path):
    native = serialize_series(series_from_curve(get_curve("11a"), 60)).encode()
    E = fetch_lmfdb(
        "https://example.test", "11a", cache_dir=tmp_path, transport=lambda u: native
    )
    assert equal_series(E, series_from_curve(get_curve("11a"), 60))


def test_fetch_error_taxonomy(tmp_path):
    with pytest.raises(ParseError):
        fetch_lmfdb(
            "https://example.test", "x", cache_dir=tmp_path, transport=lambda u: b"not json"
        )
    with pytest.raises(ParseError):
        fetch_lmfdb(
            "https://example.test", "x", cache_dir=tmp_path, transport=lambda u: b"{}"
        )
    good = json.dumps(curve_payload("37a", 30)).encode()
    with pytest.raises(ValidationError):
        fetch_lmfdb(
            "https://example.test",
            "other-label",
            cache_dir=tmp_path,
            transport=lambda u: good,
        )
    with pytest.raises(ValidationError):
        fetch_lmfdb(
            "https://example.test",
            "37a",
            normalization="weird",
            cache_dir=tmp_path,
            transport=lambda u: good,
        )


def test_fetch_does_not_cache_invalid_payload(tmp_path):
    with pytest.raises(ParseError):
        fetch_lmfdb(
            "https://example.test", "bad", cache_dir=tmp_path, transport=lambda u: b"oops"
        )
    assert not cache_path("lmfdb-bad", tmp_path).exists()
