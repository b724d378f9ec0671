"""Input documents: eigen-series fixtures, psi tables and the curve cache.

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
ParseError, never coerced) and one resolver from (norm, p, root_label) to
a prime ideal, the run's prime table first (see _resolve).  Level-support
entries and rational primes must be primes below 2^64, and a prime named
twice must carry the same value both times.

A series keeps the names of norm <= x, as columns in canonical (norm, p,
root_label) order, so load -> serialize -> load is bit-stable; names past
x are validated, Hasse bound included, but not kept.  Data from elsewhere
enters as such a document; an eigenvalue a on the classical a_p scale at a
prime of norm N is c_num = a, c_den = N^(k0/2), k0 = max(weight).

The package reads local files only.  Its one cache holds the series of
built-in curves, keyed by (label, X, CURVE_CACHE_VERSION) and written by
atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

from .curves import CurveSpec, series_from_curve
from .errors import HilbertSignsError, ParseError, ValidationError
from .field_arith import (
    PrimeIdeal, QuadField, _PrimeTable, _is_prime, _prime_table, make_field, split_rational_prime
)
from .sign_pipeline import EigenvalueSeries, _hasse_columns

SCHEMA_TAG = "eigen-series/1"
CACHE_ENV = "HILBERT_SIGNS_CACHE"

# Every rational prime a document names must lie below this: _is_prime is
# exact only there, and no larger prime has a norm <= cli.MAX_X anyway.
PRIME_LIMIT = 2**64


# ----------------------------------------------------------------------
# the shared decoding pieces
# ----------------------------------------------------------------------


def _read_json(path, what: str) -> object:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from e
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as e:  # also bad UTF-8, huge ints, deep nesting
        raise ParseError(f"{path}: not valid JSON ({e})") from e


def _header(d, weight, label, level_support) -> QuadField:
    """Check the fields EigenvalueSeries takes besides its columns; return the field."""
    if type(d) is not int:
        raise ParseError(f"field parameter d must be a JSON integer, got {d!r}")
    if type(weight) is not list or not weight or any(type(k) is not int for k in weight):
        raise ParseError(f"weight must be a non-empty list of JSON integers, got {weight!r}")
    if type(label) is not str:
        raise ParseError(f"label must be a string, got {label!r}")
    if type(level_support) is not list or any(type(p) is not int for p in level_support):
        raise ParseError(f"level_support must be a list of JSON integers, got {level_support!r}")
    for p in level_support:
        if not (p < PRIME_LIMIT and _is_prime(p)):
            raise ValidationError(f"level_support entry {p} is not a prime below 2^64")
    try:
        return make_field(d)
    except HilbertSignsError as e:
        raise ValidationError(f"bad field parameter d={d}: {e}") from e


def _resolve(
    K: QuadField,
    T: _PrimeTable,
    above: dict[int, list[PrimeIdeal]],
    p: int,
    label: int,
    norm: int,
    where: str,
) -> tuple[int | None, PrimeIdeal]:
    """The row of T (None past x) and the prime above p with this root label.

    A name of norm <= x is a row of T, the prime table of (K, x).  Any
    other takes the per-p route, which words every error: `above` belongs
    to one document and maps each p seen so far to its primes, whose root
    labels are their indices, so each distinct p is split once per decode.
    """
    if (i := T.index(norm, p, label)) is not None:
        return i, T.primes[i]
    if p not in above:
        if p >= PRIME_LIMIT:
            raise ValidationError(f"{where}: rational prime {p} is not below 2^64")
        try:
            above[p] = split_rational_prime(K, p)
        except ValueError as e:
            raise ValidationError(f"{where}: {e}") from e
    if not 0 <= label < len(above[p]):
        raise ValidationError(f"{where}: no prime above {p} with root label {label} in {K}")
    P = above[p][label]
    if P.norm != norm:
        raise ValidationError(f"{where}: no prime of norm {norm}, label {label} above {p} in {K}")
    return None, P


# ----------------------------------------------------------------------
# schema <-> EigenvalueSeries
# ----------------------------------------------------------------------


def series_to_obj(E: EigenvalueSeries) -> dict:
    keys = ("norm", "rational_prime", "root_label", "c_num", "c_den")
    rows = zip(_prime_table(E.field, E.x).primes, E.num.tolist(), E.den.tolist())
    entries = [dict(zip(keys, (*P[:3], num, den))) for P, num, den in rows if den]
    return {
        "format": SCHEMA_TAG,
        "d": E.field.d,
        "weight": list(E.weight),
        "label": E.label,
        "level_support": sorted(E.level_support),
        "entries": entries,
    }


def series_from_obj(obj, x: int) -> EigenvalueSeries:
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
    T, above, past = _prime_table(K, x), {}, {}
    nums, dens = [0] * len(T.primes), [0] * len(T.primes)
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
        j, P = _resolve(K, T, above, p, label, norm, f"entry {i}")
        if j is not None and not dens[j]:
            nums[j], dens[j] = num, den
        first = past.setdefault(P, (num, den)) if j is None else (nums[j], dens[j])
        if first[0] * den != num * first[1]:
            raise ValidationError(f"entry {i}: {P} named again with another coefficient")
    E = EigenvalueSeries(K, obj["weight"], obj["label"], x, nums, dens, level_support)
    primes = sorted(past)  # past x: no part in the run, but the same gate after the table's
    nums, dens = [past[P][0] for P in primes], [past[P][1] for P in primes]
    _hasse_columns(E.label, primes, [P.norm for P in primes], nums, dens)
    return E


def serialize_series(E: EigenvalueSeries) -> str:
    return json.dumps(series_to_obj(E), indent=1, sort_keys=True) + "\n"


def load_fixture(path, x: int) -> EigenvalueSeries:
    """Read an eigen-series JSON document from disk, for a run with cutoff x."""
    return series_from_obj(_read_json(path, "fixture"), x)


# ----------------------------------------------------------------------
# psi tables
# ----------------------------------------------------------------------


def load_psi_table(K: QuadField, source, x: int) -> dict[PrimeIdeal, int]:
    """Read a psi table: a JSON list of {prime_norm, rational_prime, root_label, value}.

    source may be a path or an already-decoded list, and x is the run's
    cutoff.  Entries must name primes that exist in K; values must be +-1.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = _read_json(source, "psi table")
    if type(source) is not list:
        raise ParseError("psi table must be a JSON list of entries")
    T, table, above = _prime_table(K, x), {}, {}
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
        P = _resolve(K, T, above, p, label, norm, f"psi entry {i}")[1]
        if table.setdefault(P, value) != value:
            raise ValidationError(f"psi entry {i}: {P} named again with another value")
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


# Part of every curve cache key.  Bump it in any change after which
# series_from_curve(E, X) may serialize to other bytes for the same (label,
# X): new a_p values, a changed registry curve, a new entry encoding.  Files
# written under an older version are then never read again.
CURVE_CACHE_VERSION = 1


def cached_curve_series(E: CurveSpec, X: int, cache_dir=None) -> EigenvalueSeries:
    """series_from_curve with a disk cache keyed by (label, X, CURVE_CACHE_VERSION)."""
    path = cache_path(f"curve-{E.label}-X{X}-v{CURVE_CACHE_VERSION}", cache_dir)
    if path.exists():
        return load_fixture(path, X)
    series = series_from_curve(E, X)
    _atomic_write(path, serialize_series(series).encode())
    return series
