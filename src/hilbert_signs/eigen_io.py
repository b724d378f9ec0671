"""Input documents: eigen-series fixtures, psi tables, caches, remote payloads.

This is the one module that decodes outside documents.  The eigen-series
schema is JSON:

    {
      "format": "eigen-series/1",
      "d": 1,
      "weight": [2],
      "label": "37a",
      "level_support": [2, 37],
      "entries": [
        {"norm": 3, "rational_prime": 3, "root_label": 0,
         "c_num": -3, "c_den": 3},
        ...
      ]
    }

Every document passes one JSON reader, one integer rule (a numeric field
must be a JSON integer: booleans, floats and numeric strings are
ParseError, never coerced) and one resolver from (p, root_label, norm) to
a prime ideal.  Level-support entries must be primes.

Entries are kept in canonical (norm, p, root_label) order so that
load -> serialize -> load is bit-stable.  Remote eigenvalue data is
fetched from a configurable base URL, cached verbatim in a local
directory keyed by label (atomic write-then-rename), and mapped into the
schema under an explicit normalization flag; nothing in this package
requires the network.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import urllib.error
import urllib.parse
import urllib.request
from fractions import Fraction
from pathlib import Path

from .curves import CurveSpec, series_from_curve
from .errors import HilbertSignsError, NetworkError, ParseError, ValidationError
from .field_arith import PrimeIdeal, QuadField, _is_prime, make_field, prime_ideal
from .sign_pipeline import EigenvalueSeries

SCHEMA_TAG = "eigen-series/1"
CACHE_ENV = "HILBERT_SIGNS_CACHE"


# ----------------------------------------------------------------------
# the shared decoding pieces
# ----------------------------------------------------------------------


def _parse_json(data: bytes | str, where) -> object:
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as e:  # also bad UTF-8, huge ints, deep nesting
        raise ParseError(f"{where}: not valid JSON ({e})") from e


def _read_json(path, what: str) -> object:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from e
    return _parse_json(data, path)


def _header(d, weight, label, level_support) -> QuadField:
    """Check the fields EigenvalueSeries takes besides its entries; return the field."""
    if type(d) is not int:
        raise ParseError(f"field parameter d must be a JSON integer, got {d!r}")
    if type(weight) is not list or not weight or any(type(k) is not int for k in weight):
        raise ParseError(f"weight must be a non-empty list of JSON integers, got {weight!r}")
    if type(label) is not str:
        raise ParseError(f"label must be a string, got {label!r}")
    if type(level_support) is not list or any(type(p) is not int for p in level_support):
        raise ParseError(f"level_support must be a list of JSON integers, got {level_support!r}")
    for p in level_support:
        if not _is_prime(p):
            raise ValidationError(f"level_support entry {p} is not prime")
    try:
        return make_field(d)
    except HilbertSignsError as e:
        raise ValidationError(f"bad field parameter d={d}: {e}") from e


def _resolve(K: QuadField, p: int, label: int, norm: int | None, where: str) -> PrimeIdeal:
    """The prime above p with this root label, checked against norm if one is given."""
    try:
        P = prime_ideal(K, p, label)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from e
    if norm is not None and P.norm != norm:
        raise ValidationError(f"{where}: no prime of norm {norm}, label {label} above {p} in {K}")
    return P


# ----------------------------------------------------------------------
# schema <-> EigenvalueSeries
# ----------------------------------------------------------------------


def series_to_obj(E: EigenvalueSeries) -> dict:
    entries = []
    for P in sorted(E.entries, key=lambda P: P.sort_key):
        c = E.entries[P]
        entries.append(
            {
                "norm": P.norm,
                "rational_prime": P.rational_prime,
                "root_label": P.root_label,
                "c_num": c.numerator,
                "c_den": c.denominator,
            }
        )
    return {
        "format": SCHEMA_TAG,
        "d": E.field.d,
        "weight": list(E.weight),
        "label": E.label,
        "level_support": sorted(E.level_support),
        "entries": entries,
    }


def series_from_obj(obj) -> EigenvalueSeries:
    if not isinstance(obj, dict):
        raise ParseError("eigen-series document must be a JSON object")
    if obj.get("format") != SCHEMA_TAG:
        raise ParseError(f"unrecognized format tag {obj.get('format')!r}")
    for key in ("d", "weight", "label", "entries"):
        if key not in obj:
            raise ParseError(f"eigen-series document missing field {key!r}")
    level_support = obj.get("level_support", [])
    K = _header(obj["d"], obj["weight"], obj["label"], level_support)
    rows = obj["entries"]
    if type(rows) is not list:
        raise ParseError("eigen-series entries must be a JSON list")
    entries = {}
    # 10^5-entry documents are common: the per-entry checks stay inline
    for i, row in enumerate(rows):
        try:
            norm, p, label = row["norm"], row["rational_prime"], row["root_label"]
            num, den = row["c_num"], row["c_den"]
        except (KeyError, TypeError) as e:
            raise ParseError(f"entry {i}: missing field ({e!r})") from e
        if not (type(norm) is type(p) is type(label) is type(num) is type(den) is int):
            raise ParseError(f"entry {i}: numeric fields must be JSON integers")
        if den == 0:
            raise ValidationError(f"entry {i}: zero denominator")
        entries[_resolve(K, p, label, norm, f"entry {i}")] = Fraction(num, den)
    return EigenvalueSeries(K, obj["weight"], obj["label"], entries, level_support)


def serialize_series(E: EigenvalueSeries) -> str:
    return json.dumps(series_to_obj(E), indent=1, sort_keys=True) + "\n"


def load_fixture(path) -> EigenvalueSeries:
    """Read an eigen-series JSON document from disk."""
    return series_from_obj(_read_json(path, "fixture"))


def save_fixture(E: EigenvalueSeries, path) -> None:
    _atomic_write(Path(path), serialize_series(E).encode())


# ----------------------------------------------------------------------
# psi tables
# ----------------------------------------------------------------------


def load_psi_table(K: QuadField, source) -> dict[PrimeIdeal, int]:
    """Read a psi table: a JSON list of {prime_norm, rational_prime, root_label, value}.

    source may be a path or an already-decoded list.  Entries must name
    primes that exist in K; values must be +-1.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = _read_json(source, "psi table")
    if type(source) is not list:
        raise ParseError("psi table must be a JSON list of entries")
    table: dict[PrimeIdeal, int] = {}
    for i, entry in enumerate(source):
        try:
            norm, p, label = entry["prime_norm"], entry["rational_prime"], entry["root_label"]
            value = entry["value"]
        except (KeyError, TypeError) as e:
            raise ParseError(f"psi entry {i}: missing field ({e!r})") from e
        if not (type(norm) is type(p) is type(label) is type(value) is int):
            raise ParseError(f"psi entry {i}: numeric fields must be JSON integers")
        if value not in (-1, 1):
            raise ValidationError(f"psi entry {i}: value must be +-1, got {value}")
        table[_resolve(K, p, label, norm, f"psi entry {i}")] = value
    return table


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hilbert_signs"


def cache_path(label: str, cache_dir=None) -> Path:
    base = Path(cache_dir) if cache_dir else default_cache_dir()
    digest = hashlib.sha256(label.encode()).hexdigest()[:16]
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "item"
    return base / f"{safe}-{digest}.json"


def _atomic_write(path: Path, data: bytes) -> None:
    """Write through a temp file named for this call alone, then rename.

    An OSError from any step (a parent that is a file, a full disk, a
    refused rename) becomes a HilbertSignsError that names path.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.urandom(8).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as e:
        raise HilbertSignsError(f"cannot write {path}: {e}") from e


def cached_curve_series(E: CurveSpec, X: int, cache_dir=None) -> EigenvalueSeries:
    """series_from_curve with a disk cache keyed by (label, X)."""
    path = cache_path(f"curve-{E.label}-X{X}", cache_dir)
    if path.exists():
        return load_fixture(path)
    series = series_from_curve(E, X)
    _atomic_write(path, serialize_series(series).encode())
    return series


# ----------------------------------------------------------------------
# remote fetch
# ----------------------------------------------------------------------


HTTP_TIMEOUT_S = 30.0
FETCH_ATTEMPTS = 3


def _http_get(url: str) -> bytes:
    try:
        with urllib.request.urlopen(url, timeout=HTTP_TIMEOUT_S) as resp:
            return resp.read()
    except (urllib.error.URLError, OSError) as e:
        raise NetworkError(f"GET {url}: {e}") from e


def _series_from_remote_payload(obj, label: str, normalization: str) -> EigenvalueSeries:
    """Map a remote JSON payload into the native schema.

    Accepted shapes: the native eigen-series document itself, or a record
    set {"data": [{"label", "weight", "d"?, "level_support"?,
    "eigenvalues": [[p, value], ...]}]} whose values are read according to
    `normalization`:

      "arithmetic"   value is the integer C(p) (classical a_p scale);
                     c(p) = value / p^{k0/2}
      "coefficient"  value is [num, den], the coefficient c(p) itself

    An eigenvalue entry may also be [p, root_label, value] to address one
    of the two primes above a split p; the two-element form always means
    the first (or only) prime.  A scalar weight means [weight].
    """
    if isinstance(obj, dict) and obj.get("format") == SCHEMA_TAG:
        return series_from_obj(obj)
    if normalization not in ("arithmetic", "coefficient"):
        raise ValidationError(
            f"normalization must be 'arithmetic' or 'coefficient', got {normalization!r}"
        )
    records = obj.get("data") if isinstance(obj, dict) else None
    if type(records) is not list:
        raise ParseError("remote payload has neither native format nor a 'data' list")
    record = next((r for r in records if isinstance(r, dict) and r.get("label") == label), None)
    if record is None:
        raise ValidationError(f"no record labeled {label!r} in remote payload")
    try:
        weight, pairs = record["weight"], record["eigenvalues"]
    except KeyError as e:
        raise ParseError(f"remote record missing field {e}") from e
    weight = weight if type(weight) is list else [weight]
    level_support = record.get("level_support", [])
    K = _header(record.get("d", 1), weight, label, level_support)
    if type(pairs) is not list:
        raise ParseError("remote record eigenvalues must be a JSON list")
    arithmetic = normalization == "arithmetic"
    k0 = max(weight)
    entries = {}
    for i, entry in enumerate(pairs):
        if type(entry) is not list or len(entry) not in (2, 3):
            raise ParseError(f"remote entry {i}: expected [p, value] or [p, root_label, value]")
        p, root_label, value = entry if len(entry) == 3 else (entry[0], 0, entry[1])
        if arithmetic:
            num, den = value, 1
        elif type(value) is list and len(value) == 2:
            num, den = value
        else:
            raise ParseError(f"remote entry {i}: coefficient value must be [num, den]")
        if not (type(p) is type(root_label) is type(num) is type(den) is int):
            raise ParseError(f"remote entry {i}: numeric fields must be JSON integers")
        if den == 0:
            raise ValidationError(f"remote entry {i}: zero denominator")
        P = _resolve(K, p, root_label, None, f"remote entry {i}")
        entries[P] = Fraction(num, den * P.norm ** (k0 // 2) if arithmetic else den)
    return EigenvalueSeries(K, weight, label, entries, level_support)


def fetch_lmfdb(
    base_url: str,
    label: str,
    normalization: str = "arithmetic",
    cache_dir=None,
    offline: bool = False,
    transport=None,
    backoff: float = 0.25,
) -> EigenvalueSeries:
    """Fetch eigenvalue data for `label`, with verbatim local caching.

    The cache is consulted first and hits never touch the network, so
    repeated offline runs are fully deterministic.  offline=True forbids
    any fetch and raises NetworkError on a cache miss.  `transport` is a
    callable url -> bytes, injectable for tests.
    """
    path = cache_path(f"lmfdb-{label}", cache_dir)
    if path.exists():
        return _series_from_remote_payload(_read_json(path, "cache"), label, normalization)
    if offline:
        raise NetworkError(f"offline mode and no cached payload for {label!r}")
    url = f"{base_url.rstrip('/')}/{urllib.parse.quote(label)}?_format=json"
    get = transport or _http_get
    last: Exception | None = None
    raw = None
    for attempt in range(FETCH_ATTEMPTS):
        try:
            raw = get(url)
            break
        except NetworkError as e:
            last = e
            if attempt + 1 < FETCH_ATTEMPTS:
                time.sleep(backoff * (2**attempt))
    if raw is None:
        raise NetworkError(f"fetch failed after {FETCH_ATTEMPTS} attempts: {last}")
    payload = _parse_json(raw, f"remote payload for {label!r}")
    series = _series_from_remote_payload(payload, label, normalization)  # validate first
    _atomic_write(path, raw if isinstance(raw, bytes) else raw.encode())
    # the parsed form sits next to the verbatim response as a diffable artifact
    _atomic_write(
        cache_path(f"lmfdb-{label}-parsed", cache_dir), serialize_series(series).encode()
    )
    return series
