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
refused, never coerced), and its name columns (norm, p, root_label)
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

load_fixture reads a file in that layout at the cost of its columns: a
block of rows at a time, the integers of each block are split out and
accepted only if the writer's renderer gives back the block's bytes,
and the header only if the encoder gives back the head and tail.  Every
other file, and any block that fails, goes to the JSON reader whole, so
each error is worded as that reader words it.
"""

from __future__ import annotations

import importlib
import json
import os
import re
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import HilbertSignsError
from .field_arith import QuadField, _is_prime, _names_above, _prime_table, _row_text, ideal_text, make_field
from .sign_pipeline import EigenvalueSeries, _hasse_columns

if TYPE_CHECKING:
    from .curves import CurveSpec

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
        raise HilbertSignsError(f"cannot read {what} {path}: {e}") from e
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as e:  # also bad UTF-8, huge ints, deep nesting
        raise HilbertSignsError(f"{path}: not valid JSON ({e})") from e


def _header(d, weight, label, level_support) -> QuadField:
    """Check the fields EigenvalueSeries takes besides its columns; return the field."""
    if type(d) is not int:
        raise HilbertSignsError(f"field parameter d must be a JSON integer, got {d!r}")
    if type(weight) is not list or not weight or any(type(k) is not int for k in weight):
        raise HilbertSignsError(f"weight must be a non-empty list of JSON integers, got {weight!r}")
    if type(label) is not str:
        raise HilbertSignsError(f"label must be a string, got {label!r}")
    if type(level_support) is not list or any(type(p) is not int for p in level_support):
        raise HilbertSignsError(f"level_support must be a list of JSON integers, got {level_support!r}")
    for p in level_support:
        if not (p < PRIME_LIMIT and _is_prime(p)):
            raise HilbertSignsError(f"level_support entry {p} is not a prime below 2^64")
    try:
        return make_field(d)
    except HilbertSignsError as e:
        raise HilbertSignsError(f"bad field parameter d={d}: {e}") from e


def _resolve(K: QuadField, norm: int, p: int, label: int, where: str) -> tuple[int, int, int]:
    """The name (norm, p, label) if it names a prime of K, checked one prime at a time, which words every error.

    It takes the names no row of the run's prime table has, past x or of
    no prime.
    """
    if p >= PRIME_LIMIT:
        raise HilbertSignsError(f"{where}: rational prime {p} is not below 2^64")
    if not _is_prime(p):
        raise HilbertSignsError(f"{where}: {p} is not prime")
    above = _names_above(K, p)
    if not 0 <= label < len(above):
        raise HilbertSignsError(f"{where}: no prime above {p} with root label {label} in {K}")
    if above[label][0] != norm:
        raise HilbertSignsError(f"{where}: no prime of norm {norm}, label {label} above {p} in {K}")
    return above[label]


# ----------------------------------------------------------------------
# entries as columns
# ----------------------------------------------------------------------


def _int_column(values: list[int]) -> np.ndarray:
    """A column of Python ints as int64 if every value fits, else as Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _columns(rows: list, keys: tuple[str, ...], what: str, refuse) -> list[np.ndarray]:
    """The fields keys of every entry, one column per key, under the one integer rule.

    Each column is pulled by one comprehension and checked whole: every
    value a JSON integer (a bool is not), and refuse(last column) empty,
    refuse returning the error text of a value it refuses.  Only when a
    check fails are the entries walked, to name the first at fault by the
    per-entry precedence: a missing field, a field that is not a JSON
    integer, a refused last field.  A column comes back int64 if every
    value in it fits, else as Python ints.
    """
    try:
        cols = [[row[k] for row in rows] for k in keys]
        if all(set(map(type, c)) <= {int} for c in cols) and not refuse(cols[-1]):
            return list(map(_int_column, cols))
    except (KeyError, TypeError):
        pass
    for i, row in enumerate(rows):
        try:
            values = [row[k] for k in keys]
        except (KeyError, TypeError) as e:
            raise HilbertSignsError(f"{what} {i}: missing field ({e!r})") from e
        if not all(type(v) is int for v in values):
            raise HilbertSignsError(f"{what} {i}: numeric fields must be JSON integers")
        if error := refuse(values[-1:]):
            raise HilbertSignsError(f"{what} {i}: {error}")


def _name_rows(K: QuadField, x: int, names, num: np.ndarray, den: np.ndarray, what: str, of: str):
    """The row of each entry's name in T, the prime table of (K, x), or -1, and {name: (num, den)}
    for the names T lacks.

    names are the (norm, p, root_label) columns and num / den the value of
    each entry, each an int64 array, or a Python-int array where a value
    is past int64.  A name T lacks is split by _resolve, in entry order,
    and its value kept as Python ints.  An entry whose value differs from
    that of the first entry naming its prime is refused; the repeats on
    T's rows are found in one pass over the hits sorted by row.  The first
    entry at fault, a bad name or a repeat, is the one named.
    """
    j = _prime_table(K, x).lookup(*names)
    hit, clash = np.flatnonzero(j >= 0), len(j)
    if hit.size and np.bincount(j[hit]).max() > 1:
        order = hit[np.argsort(j[hit], kind="stable")]
        start = np.diff(j[order], prepend=-1) != 0
        first = order[np.maximum.accumulate(np.where(start, np.arange(len(order)), 0))]
        a, b = num.astype(object, copy=False), den.astype(object, copy=False)  # no int64 wrap
        clash = int(order[a[first] * b[order] != a[order] * b[first]].min(initial=clash))
    past = {}
    for i in np.flatnonzero(j[:clash] < 0).tolist():
        norm, p, label, n, d = (int(c[i]) for c in (*names, num, den))
        P = _resolve(K, norm, p, label, f"{what} {i}")
        a, b = past.setdefault(P, (n, d))
        if a * d != n * b:
            raise HilbertSignsError(f"{what} {i}: {ideal_text(K, [(P, 1)])} named again with another {of}")
    if clash < len(j):
        raise HilbertSignsError(f"{what} {clash}: {_row_text(K, x, j[clash])} named again with another {of}")
    return j, past


# ----------------------------------------------------------------------
# schema <-> EigenvalueSeries
# ----------------------------------------------------------------------

# One entry as json.dumps(..., indent=1, sort_keys=True) lays it out in the list.
_ENTRY = (
    '  {\n   "c_den": %d,\n   "c_num": %d,\n   "norm": %d,\n'
    '   "rational_prime": %d,\n   "root_label": %d\n  }'
)

# Rows per block, written or read.  A row of int64 values is at most 191
# bytes with its separator, so a block's text stays below glibc's 128 KiB
# mmap threshold, past which a freed block raises the threshold and the
# process's high-water mark with it.  A block of 37a's rows is ~56 KB.
_BLOCK = 512


def _entries(values: tuple) -> str:
    """The rows of _ENTRY over values, five to a row in _ENTRY's order, as the list lays them out."""
    return ",\n".join([_ENTRY] * (len(values) // 5)) % values


def _zero_den(den: list[int]) -> str:
    return "zero denominator" if 0 in den else ""


def _document(obj) -> QuadField:
    """The field of an eigen-series document, once its header and the type of its entries are checked."""
    if not isinstance(obj, dict):
        raise HilbertSignsError("eigen-series document must be a JSON object")
    if obj.get("format") != SCHEMA_TAG:
        raise HilbertSignsError(f"unrecognized format tag {obj.get('format')!r}")
    for key in ("d", "weight", "label", "entries"):
        if key not in obj:
            raise HilbertSignsError(f"eigen-series document missing field {key!r}")
    K = _header(obj["d"], obj["weight"], obj["label"], obj.get("level_support", []))
    if type(obj["entries"]) is not list:
        raise HilbertSignsError("eigen-series entries must be a JSON list")
    return K


def _series(obj: dict, K: QuadField, x: int, names, num: np.ndarray, den: np.ndarray) -> EigenvalueSeries:
    """The series of a checked document from its entry columns, as _name_rows takes them.

    The names go to rows of the prime table, the table's rows pass the
    Hasse gate in EigenvalueSeries, and then the names past x pass it too.
    """
    T = _prime_table(K, x)
    j, past = _name_rows(K, x, names, num, den, "entry", "coefficient")
    hit, nums, dens = j >= 0, np.zeros(len(T.norm), dtype=num.dtype), np.zeros(len(T.norm), dtype=den.dtype)
    nums[j[hit]], dens[j[hit]] = num[hit], den[hit]  # a repeat carries an equal value
    E = EigenvalueSeries(K, obj["weight"], obj["label"], x, nums, dens, obj.get("level_support", []))
    primes = sorted(past)  # past x: no part in the run, but the same gate after the table's
    nums, dens = [past[P][0] for P in primes], [past[P][1] for P in primes]
    _hasse_columns(E.label, lambda i: ideal_text(K, [(primes[i], 1)]), [P[0] for P in primes], nums, dens)
    return E


def series_from_obj(obj, x: int) -> EigenvalueSeries:
    K, keys = _document(obj), ("norm", "rational_prime", "root_label", "c_num", "c_den")
    *names, num, den = _columns(obj["entries"], keys, "entry", _zero_den)
    return _series(obj, K, x, names, num, den)


def serialize_series(E: EigenvalueSeries) -> Iterator[str]:
    """The eigen-series document of E in chunks, as json.dumps(..., indent=1, sort_keys=True) writes it.

    The encoder writes the header; the entries follow in blocks of _BLOCK
    rows, each value in lowest terms, rendered by _entries; the tail closes
    the document.  "".join of the chunks is the document, and it is never
    held whole.
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
        num, den = E.num[block], E.den[block]
        g = np.gcd(num, den)  # den > 0 here, so g > 0
        cols = (den // g).tolist(), (num // g).tolist(), *T.names(block)
        yield sep + _entries(tuple(chain.from_iterable(zip(*cols))))
        sep = ",\n"
    yield f"\n ]{after}"


# The head of a document in the writer's layout, to its first entry: "d" is
# the one key that sorts before "entries".
_HEAD = re.compile(rb'\{\n "d": (-?[0-9]+),\n "entries": \[\n')
# Every byte but -0-9 becomes a space, so a block of rows splits into its integers.
_ONLY_INTEGERS = bytes(c if c in b"-0123456789" else 32 for c in range(256))


def _writer_columns(path) -> tuple[dict, np.ndarray] | None:
    """The header and the int64 rows of a file in the writer's layout, or None for any other file.

    The file is read _BLOCK shortest rows' worth of bytes at a time, so a
    block holds no more rows than a write block, and each block is cut
    after its last whole row.  The integers of a block are accepted only
    if _entries renders them back to the block's bytes, and the header
    only if the encoder renders it back to the head and tail.  The rows
    must also name primes in ascending (norm, p, root_label) order, with
    no value past +-(2^63 - 1) and no c_den of 0.  Then the file is what
    the writer writes for those columns, and the JSON reader would find
    the same document in it; None sends every other file to that reader.
    """
    try:
        fh = open(path, "rb")
    except OSError:
        return None  # the JSON reader words the error
    shortest = len(_ENTRY % ((0,) * 5))
    with fh:
        if not (head := _HEAD.match(data := fh.read(size := _BLOCK * shortest))):
            return None
        # room for every row the file could hold, zeroed by calloc: only the pages written are resident
        values, n = np.zeros(os.fstat(fh.fileno()).st_size // shortest * 5, dtype=np.int64), 0
        data, sep = data[head.end() :], ""
        try:
            while True:
                if (cut := data.rfind(b"\n  }") + 4) > 3:  # after the last whole row
                    block, data = data[:cut], data[cut:]
                    ints = tuple(map(int, block.translate(_ONLY_INTEGERS).split()))
                    if block != (sep + _entries(ints)).encode():
                        return None
                    values[n : n + len(ints)] = ints
                    n, sep = n + len(ints), ",\n"
                if not (chunk := fh.read(size)):
                    break
                data += chunk
        except (ValueError, TypeError, OverflowError):  # no integer, a row short, past int64
            return None
    if not n or not data.startswith(b"\n ]"):  # data is the tail
        return None
    try:
        header = json.loads(b'{"d": ' + head[1] + b', "entries": []' + data[3:])
        before, _, after = (json.dumps(header, indent=1, sort_keys=True) + "\n").partition('"entries": []')
    except (ValueError, RecursionError):
        return None
    if head[0] != f'{before}"entries": [\n'.encode() or data != f"\n ]{after}".encode():
        return None
    rows = values[:n].reshape(-1, 5)
    a, b = rows[:-1, 2:], rows[1:, 2:]  # (norm, p, root_label) of each row and the next
    up, same = b > a, b == a
    ascending = up[:, 0] | same[:, 0] & (up[:, 1] | same[:, 1] & up[:, 2])
    if rows.min() == -(2**63) or not rows[:, 0].all() or not ascending.all():
        return None
    return header, rows


def load_fixture(path, x: int) -> EigenvalueSeries:
    """Read an eigen-series JSON document from disk, for a run with cutoff x.

    A file in the writer's layout is read as its columns, any other as JSON:
    both give the same series, or the same error.
    """
    if (read := _writer_columns(path)) is None:
        return series_from_obj(_read_json(path, "fixture"), x)
    doc, rows = read
    den, num, *names = rows.T
    return _series(doc, _document(doc), x, names, num, den)


# ----------------------------------------------------------------------
# psi tables
# ----------------------------------------------------------------------


def _not_unit(values: list[int]) -> str:
    return next((f"value must be +-1, got {v}" for v in set(values) - {-1, 1}), "")


def load_psi_table(K: QuadField, source, x: int) -> dict[tuple[int, int, int], int]:
    """Read a psi table: a JSON list of {prime_norm, rational_prime, root_label, value}.

    source may be a path or an already-decoded list, and x is the run's
    cutoff.  Entries must name primes that exist in K; values must be +-1.
    The table maps each prime's name (norm, p, root_label) to its value.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = _read_json(source, "psi table")
    if type(source) is not list:
        raise HilbertSignsError("psi table must be a JSON list of entries")
    keys = ("prime_norm", "rational_prime", "root_label", "value")
    *names, value = _columns(source, keys, "psi entry", _not_unit)
    j, past = _name_rows(K, x, names, value, np.ones(len(value), dtype=np.int64), "psi entry", "value")
    hit = np.flatnonzero(j >= 0)
    table = dict(zip(zip(*_prime_table(K, x).names(j[hit])), value[hit].tolist()))
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
    try:
        cached = path.exists()  # raises, not False, on a stat error such as EACCES
    except OSError as e:
        raise HilbertSignsError(f"cannot read curve cache {path}: {e}") from e
    if cached:
        return load_fixture(path, X)
    from .curves import series_from_curve  # only a cache miss loads the a_p lanes
    series = series_from_curve(E, X)
    _atomic_write(path, (chunk.encode() for chunk in serialize_series(series)))
    return series
