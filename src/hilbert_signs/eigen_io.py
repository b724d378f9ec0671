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

Every document passes one JSON reader.  Its entries are read as columns,
one per field, under one integer rule checked per column (a numeric
field must be a JSON integer: booleans, floats and numeric strings are
ParseError, never coerced), and its name columns (norm, p, root_label)
go to rows of the run's prime table in one lookup, then _resolve for any
name no row has.  Level-support entries and rational primes must be
primes below 2^64, and a prime named twice must carry the same value
both times.  An error names the first entry at fault, as an entry by
entry reader would: a missing field, a field that is not an integer, a
bad value, in entry order; then names and repeats; then the Hasse gate.

A series keeps the names of norm <= x, as columns in canonical (norm, p,
root_label) order, so load -> serialize -> load is bit-stable; names past
x are validated, Hasse bound included, but not kept.  Data from elsewhere
enters as such a document; an eigenvalue a on the classical a_p scale at a
prime of norm N is c_num = a, c_den = N^(k0/2), k0 = max(weight).

The package reads local files only.  Its one cache holds the series of
built-in curves, keyed by (label, X, CURVE_CACHE_VERSION) and written by
atomic rename.  The writer's bytes are those of json.dumps(...,
indent=1, sort_keys=True): the encoder writes the header, and each entry
is one template formatted over the columns, written a block of rows at a
time.
"""

from __future__ import annotations

import importlib
import json
import os
import re
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .curves import CurveSpec, series_from_curve
from .errors import HilbertSignsError, ParseError, ValidationError
from .field_arith import (
    PrimeIdeal, QuadField, _is_prime, _prime_ideals, _prime_table, make_field, split_rational_prime
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
    K: QuadField, above: dict[int, list[PrimeIdeal]], norm: int, p: int, label: int, where: str
) -> PrimeIdeal:
    """The prime above p with this root label and norm, by the per-p route, which words every error.

    It takes the names no row of the run's prime table has, past x or of
    no prime.  `above` belongs to one document and maps each p seen so far
    to its primes, by root label, so each distinct p is split once.
    """
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
    return P


# ----------------------------------------------------------------------
# entries as columns
# ----------------------------------------------------------------------


def _columns(rows: list, keys: tuple[str, ...], what: str, refuse) -> list[list[int]]:
    """The fields keys of every entry, one column per key, under the one integer rule.

    Each column is pulled by one comprehension and checked whole: every
    value a JSON integer (a bool is not), and refuse(last column) empty,
    refuse returning the error text of a value it refuses.  Only when a
    check fails are the entries walked, to name the first at fault by the
    per-entry precedence: a missing field, a field that is not a JSON
    integer, a refused last field.
    """
    try:
        cols = [[row[k] for row in rows] for k in keys]
        if all(set(map(type, c)) <= {int} for c in cols) and not refuse(cols[-1]):
            return cols
    except (KeyError, TypeError):
        pass
    for i, row in enumerate(rows):
        try:
            values = [row[k] for k in keys]
        except (KeyError, TypeError) as e:
            raise ParseError(f"{what} {i}: missing field ({e!r})") from e
        if not all(type(v) is int for v in values):
            raise ParseError(f"{what} {i}: numeric fields must be JSON integers")
        if error := refuse(values[-1:]):
            raise ValidationError(f"{what} {i}: {error}")


def _name_rows(K: QuadField, T, names, num: np.ndarray, den: np.ndarray, what: str, of: str):
    """The row of T of each entry's name (or -1), and {P: (num, den)} for the names T lacks.

    names are the (norm, p, root_label) columns and num / den the value
    of each entry, as object arrays.  A name T lacks is split by
    _resolve, in entry order.  An entry whose value differs from that of
    the first entry naming its prime is refused; the repeats on T's rows
    are found in one pass over the hits sorted by row.  The first entry at
    fault, a bad name or a repeat, is the one named.
    """
    j = T.lookup(*names)
    hit, clash = np.flatnonzero(j >= 0), len(j)
    if hit.size and np.bincount(j[hit]).max() > 1:
        order = hit[np.argsort(j[hit], kind="stable")]
        start = np.diff(j[order], prepend=-1) != 0
        first = order[np.maximum.accumulate(np.where(start, np.arange(len(order)), 0))]
        clash = int(order[num[first] * den[order] != num[order] * den[first]].min(initial=clash))
    above, past = {}, {}
    for i in np.flatnonzero(j[:clash] < 0).tolist():
        P = _resolve(K, above, names[0][i], names[1][i], names[2][i], f"{what} {i}")
        a, b = past.setdefault(P, (num[i], den[i]))
        if a * den[i] != num[i] * b:
            raise ValidationError(f"{what} {i}: {P} named again with another {of}")
    if clash < len(j):
        P = _prime_ideals(K, T, [j[clash]])[0]
        raise ValidationError(f"{what} {clash}: {P} named again with another {of}")
    return j, past


# ----------------------------------------------------------------------
# schema <-> EigenvalueSeries
# ----------------------------------------------------------------------

# One entry as json.dumps(..., indent=1, sort_keys=True) lays it out in the list.
_ENTRY = (
    '  {\n   "c_den": %d,\n   "c_num": %d,\n   "norm": %d,\n'
    '   "rational_prime": %d,\n   "root_label": %d\n  }'
)


def _zero_den(den: list[int]) -> str:
    return "zero denominator" if 0 in den else ""


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
    T, keys = _prime_table(K, x), ("norm", "rational_prime", "root_label", "c_num", "c_den")
    *names, num, den = _columns(rows, keys, "entry", _zero_den)
    num, den = np.array(num, dtype=object), np.array(den, dtype=object)
    j, past = _name_rows(K, T, names, num, den, "entry", "coefficient")
    hit, nums, dens = j >= 0, np.zeros(len(T.key), dtype=object), np.zeros(len(T.key), dtype=object)
    nums[j[hit]], dens[j[hit]] = num[hit], den[hit]  # a repeat carries an equal value
    E = EigenvalueSeries(K, obj["weight"], obj["label"], x, nums, dens, level_support)
    primes = sorted(past)  # past x: no part in the run, but the same gate after the table's
    nums, dens = [past[P][0] for P in primes], [past[P][1] for P in primes]
    _hasse_columns(E.label, primes.__getitem__, [P.norm for P in primes], nums, dens)
    return E


# Rows formatted per chunk of serialize_series: a chunk of 37a's series is
# ~0.45 MB, and the document is never held whole.
_BLOCK = 4096


def serialize_series(E: EigenvalueSeries) -> Iterator[str]:
    """The eigen-series document of E in chunks, as json.dumps(..., indent=1, sort_keys=True) writes it.

    The encoder writes the header; the entries follow in blocks of _BLOCK
    rows, each row _ENTRY formatted over the columns; the tail closes the
    document.  "".join of the chunks is the document.
    """
    rows = np.flatnonzero(E.den)
    head = {"format": SCHEMA_TAG, "d": E.field.d, "weight": list(E.weight), "label": E.label,
            "level_support": sorted(E.level_support), "entries": []}
    head = json.dumps(head, indent=1, sort_keys=True) + "\n"
    if not rows.size:
        yield head
        return
    before, after = head.split('"entries": []', 1)  # only "d", an int, sorts before it
    T, sep = _prime_table(E.field, E.x), f'{before}"entries": [\n'
    for i in range(0, rows.size, _BLOCK):
        block = rows[i : i + _BLOCK]
        cols = E.den[block].tolist(), E.num[block].tolist(), *T.names(block)
        yield sep + ",\n".join(map(_ENTRY.__mod__, zip(*cols)))
        sep = ",\n"
    yield f"\n ]{after}"


def load_fixture(path, x: int) -> EigenvalueSeries:
    """Read an eigen-series JSON document from disk, for a run with cutoff x."""
    return series_from_obj(_read_json(path, "fixture"), x)


# ----------------------------------------------------------------------
# psi tables
# ----------------------------------------------------------------------


def _not_unit(values: list[int]) -> str:
    return next((f"value must be +-1, got {v}" for v in set(values) - {-1, 1}), "")


def load_psi_table(K: QuadField, source, x: int) -> dict[PrimeIdeal, int]:
    """Read a psi table: a JSON list of {prime_norm, rational_prime, root_label, value}.

    source may be a path or an already-decoded list, and x is the run's
    cutoff.  Entries must name primes that exist in K; values must be +-1.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = _read_json(source, "psi table")
    if type(source) is not list:
        raise ParseError("psi table must be a JSON list of entries")
    T, keys = _prime_table(K, x), ("prime_norm", "rational_prime", "root_label", "value")
    *names, value = _columns(source, keys, "psi entry", _not_unit)
    value = np.array(value, dtype=object)
    j, past = _name_rows(K, T, names, value, np.ones(len(value), dtype=object), "psi entry", "value")
    hit = np.flatnonzero(j >= 0)
    table = dict(zip(_prime_ideals(K, T, j[hit]), value[hit].tolist()))
    return {**table, **{P: v for P, (v, _) in past.items()}}


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hilbert_signs"


def _sha256(data: bytes):
    """SHA-256 from the interpreter's own module, the one hashlib falls back to without
    OpenSSL: hashlib would load OpenSSL (~3.3 MB max RSS on a 2-vCPU VM), so it is the last resort."""
    for name in ("_sha2", "_sha256", "hashlib"):  # Python 3.12+, 3.10-3.11, any
        try:
            return importlib.import_module(name).sha256(data)
        except ImportError:
            pass


def cache_path(label: str, cache_dir=None) -> Path:
    base = Path(cache_dir) if cache_dir else default_cache_dir()
    digest = _sha256(label.encode()).hexdigest()[:16]
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "item"
    return base / f"{safe}-{digest}.json"


class _Encoded:
    """str chunks as UTF-8 bytes, one chunk at a time; len() is the bytes given so far.

    The len() lets a caller, or perfbench's eigen_io.bytes_written
    counter, read what a write of these chunks wrote.
    """

    def __init__(self, chunks: Iterable[str]):
        self.chunks, self.size = chunks, 0

    def __iter__(self) -> Iterator[bytes]:
        for chunk in self.chunks:
            data = chunk.encode()
            self.size += len(data)
            yield data

    def __len__(self) -> int:
        return self.size


def _atomic_write(path: Path, data: Iterable[bytes]) -> None:
    """Write the chunks of data through a temp file named for this call alone, then rename.

    An OSError from any step (a parent that is a file, a full disk, a
    refused rename) becomes a HilbertSignsError that names path.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.urandom(8).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                fh.writelines(data)
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
    _atomic_write(path, _Encoded(serialize_series(series)))
    return series
