"""Eigenvalue-series documents: fixtures, caching, and remote fetch.

The on-disk schema is JSON:

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
from .field_arith import make_field, prime_ideal
from .sign_pipeline import EigenvalueSeries

SCHEMA_TAG = "eigen-series/1"
CACHE_ENV = "HILBERT_SIGNS_CACHE"


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
    try:
        K = make_field(int(obj["d"]))
    except HilbertSignsError as e:
        raise ValidationError(f"bad field parameter d={obj['d']}: {e}") from e
    entries = {}
    for i, row in enumerate(obj["entries"]):
        try:
            norm = int(row["norm"])
            p = int(row["rational_prime"])
            label = int(row["root_label"])
            c = Fraction(int(row["c_num"]), int(row["c_den"]))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"entry {i}: missing or ill-typed field ({e})") from e
        except ZeroDivisionError as e:
            raise ValidationError(f"entry {i}: zero denominator") from e
        P = prime_ideal(K, p, label)
        if P.norm != norm:
            raise ValidationError(
                f"entry {i}: no prime of norm {norm}, label {label} above {p} in {K}"
            )
        entries[P] = c
    return EigenvalueSeries(
        field=K,
        weight=obj["weight"],
        label=obj["label"],
        entries=entries,
        level_support=obj.get("level_support", ()),
    )


def serialize_series(E: EigenvalueSeries) -> str:
    return json.dumps(series_to_obj(E), indent=1, sort_keys=True) + "\n"


def load_fixture(path) -> EigenvalueSeries:
    """Read an eigen-series JSON document from disk."""
    try:
        with open(path, "rb") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}") from e
    except OSError as e:
        raise ParseError(f"cannot read fixture {path}: {e}") from e
    return series_from_obj(obj)


def save_fixture(E: EigenvalueSeries, path) -> None:
    _atomic_write(Path(path), serialize_series(E).encode())


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
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def cached_curve_series(
    E: CurveSpec, X: int, cache_dir=None, force: bool = False
) -> EigenvalueSeries:
    """series_from_curve with a disk cache keyed by (label, X)."""
    key = f"curve-{E.label}-X{X}"
    path = cache_path(key, cache_dir)
    if path.exists() and not force:
        return load_fixture(path)
    series = series_from_curve(E, X)
    _atomic_write(path, serialize_series(series).encode())
    return series


# ----------------------------------------------------------------------
# remote fetch
# ----------------------------------------------------------------------


def _http_get(url: str, timeout: float = 30.0) -> bytes:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
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
    the first (or only) prime.
    """
    if isinstance(obj, dict) and obj.get("format") == SCHEMA_TAG:
        return series_from_obj(obj)
    if normalization not in ("arithmetic", "coefficient"):
        raise ValidationError(
            f"normalization must be 'arithmetic' or 'coefficient', got {normalization!r}"
        )
    try:
        records = obj["data"]
    except (TypeError, KeyError) as e:
        raise ParseError("remote payload has neither native format nor a 'data' list") from e
    record = next((r for r in records if r.get("label") == label), None)
    if record is None:
        raise ValidationError(f"no record labeled {label!r} in remote payload")
    try:
        weight = record["weight"]
        weight = [int(k) for k in (weight if isinstance(weight, list) else [weight])]
        K = make_field(int(record.get("d", 1)))
        pairs = record["eigenvalues"]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"remote record malformed: {e}") from e
    k0 = max(weight)
    entries = {}
    for entry in pairs:
        if len(entry) == 3:
            p, root_label, value = entry
        else:
            (p, value), root_label = entry, 0
        P = prime_ideal(K, int(p), int(root_label))
        if normalization == "arithmetic":
            c = Fraction(int(value), P.norm ** (k0 // 2))
        else:
            num, den = value
            c = Fraction(int(num), int(den))
        entries[P] = c
    return EigenvalueSeries(
        field=K,
        weight=weight,
        label=label,
        entries=entries,
        level_support=record.get("level_support", ()),
    )


def fetch_lmfdb(
    base_url: str,
    label: str,
    normalization: str = "arithmetic",
    cache_dir=None,
    offline: bool = False,
    transport=None,
    retries: int = 3,
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
        try:
            payload = json.loads(path.read_bytes())
        except json.JSONDecodeError as e:
            raise ParseError(f"cache {path}: {e.msg}") from e
        return _series_from_remote_payload(payload, label, normalization)
    if offline:
        raise NetworkError(f"offline mode and no cached payload for {label!r}")
    url = f"{base_url.rstrip('/')}/{urllib.parse.quote(label)}?_format=json"
    get = transport or _http_get
    last: Exception | None = None
    raw = None
    for attempt in range(max(1, retries)):
        try:
            raw = get(url)
            break
        except NetworkError as e:
            last = e
            if attempt + 1 < retries:
                time.sleep(backoff * (2**attempt))
    if raw is None:
        raise NetworkError(f"fetch failed after {retries} attempts: {last}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(f"remote payload for {label!r}: {e.msg}") from e
    series = _series_from_remote_payload(payload, label, normalization)  # validate first
    _atomic_write(path, raw if isinstance(raw, bytes) else raw.encode())
    # the parsed form sits next to the verbatim response as a diffable artifact
    _atomic_write(
        cache_path(f"lmfdb-{label}-parsed", cache_dir), serialize_series(series).encode()
    )
    return series
