"""Command-line front end.

Subcommands: primes, char, signs, stats, simulate, series-check.  Every
command writes CSV or JSON to stdout (or --out) and exits 0 only if its
declared checks pass; input errors and write errors exit 2.  This is the
one module that formats results: tables pass through _emit_table, a block
of rows at a time, and JSON documents through _emit_json.
"""

from __future__ import annotations

import os

# No command calls BLAS, so OpenBLAS's worker threads, started when numpy loads, only burn CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .characters import IdealCharacter
from .errors import HilbertSignsError
from .field_arith import _DEGREE_OF, _KINDS, _LANES, _ideal_table, _prime_table, factorable_tau, make_field
from .formal_series import (
    FormalSeries,
    c_series_from_lambda,
    character_moebius_series,
    extract_prime_relation,
    series_mul,
)

# eigen_io, curves, sign_pipeline and sato_tate are imported by the commands
# that run them, so series-check loads none of them.
if TYPE_CHECKING:
    from .sign_pipeline import SignSurvey

# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------

TALLY_CSV_HEADER = "x,total,pos,neg,zero,pos_density"
SIMULATE_CSV_HEADER = (
    "x,total,pos,neg,zero,bad,pos_density,zero_density,ks_n,ks_statistic,ks_threshold,ks_pass"
)


def _emit(blocks, out: str | None) -> None:
    """Write the blocks of text to the file out, or to stdout; a write error exits 2 with one line."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
    except OSError as e:
        if not out:  # nothing more reaches stdout, not even the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if out or not isinstance(e, BrokenPipeError):  # a reader that closed early (`| head`) ends it quietly
            raise HilbertSignsError(f"cannot write {out or 'stdout'}: {e}") from e


def _emit_json(obj, out: str | None) -> None:
    _emit([json.dumps(obj, indent=1) + "\n"], out)


def _emit_table(args, header: str, n: int, columns, obj=None) -> None:
    """Write n rows as CSV under header or, with --format json, as objects keyed by its columns (or write obj).

    columns(rows) gives a slice of rows as one sequence per column, a text
    already quoted for JSON.  Each _LANES rows are one block: one row template,
    in the layout of the CSV lines or of json.dumps(indent=1), over their values.
    """
    if args.format == "json" and obj is not None:
        return _emit_json(obj, args.out)
    if args.format == "json":
        row = " {\n" + ",\n".join(f'  "{k}": %s' for k in header.split(",")) + "\n }"
        head, sep, tail = "[", ",\n", "\n]\n" if n else "]\n"
    else:
        row, head, sep, tail = ",".join(["%s"] * (header.count(",") + 1)), header, "\n", "\n"

    def block(lo: int) -> str:
        values = tuple(chain.from_iterable(zip(*columns(slice(lo, lo + _LANES)))))
        return (sep if lo else "\n") + sep.join([row] * min(_LANES, n - lo)) % values

    _emit(chain([head], map(block, range(0, n, _LANES)), [tail]), args.out)


def density_string(num: int, den: int) -> str:
    """num/den to 12 decimal places, rounded half away from zero."""
    if den == 0:
        return "0.000000000000"
    q, r = divmod(num * 10**12, den)
    if 2 * r >= den:
        q += 1
    whole, frac = divmod(q, 10**12)
    return f"{whole}.{frac:012d}"


def _tally_obj(t: SignSurvey) -> dict:
    return {
        "x": t.x,
        "tau": t.tau,
        "a_ideal": t.a_ideal,
        "counts": {"pos": t.pos, "neg": t.neg, "zero": t.zero, "bad": t.bad, "total": t.total},
        "pos_density": density_string(t.pos, t.total),
        "neg_density": density_string(t.neg, t.total),
        "zero_density": density_string(t.zero, t.total),
    }


def _rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise HilbertSignsError(f"{flag} must be a rational such as 3 or 7/2, got {text!r}") from None


def _threshold_coefficient(args) -> float:
    c = args.threshold_coefficient
    if not 0 < c < math.inf:
        raise HilbertSignsError(f"--threshold-coefficient must be finite and > 0, got {c}")
    return c


def _tau_element(args):
    return (_rational("--tau", args.tau), _rational("--tau-b", args.tau_b))


def _load_series(args, tau):
    """Resolve the --curve/--fixture source flags into the series and its psi table.

    A curve's series is over Q, so tau, --d and --psi-file are checked
    there before the series is computed or read.  A fixture names its
    field, so they are checked after the document is read, tau by the
    survey.
    """
    from . import eigen_io
    if args.curve:
        from .curves import get_curve
        curve = get_curve(args.curve)
        K = make_field(1)
        factorable_tau(K, tau)
    else:
        series = eigen_io.load_fixture(args.fixture, args.x)
        K = series.field
    d = getattr(args, "d", None)  # stats has no --d
    if d is not None and K.d != d:
        raise HilbertSignsError(f"series is over d={K.d}, but --d {d} was given")
    psi = eigen_io.load_psi_table(K, args.psi_file, args.x) if args.psi_file else None
    if args.curve:
        series = eigen_io.cached_curve_series(curve, args.x, args.cache_dir)
    return series, psi


def _add_source_flags(sp):
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", help="registry label of a built-in curve")
    src.add_argument("--fixture", help="path to an eigen-series JSON document")
    sp.add_argument("--cache-dir", default=None, help="where --curve series are cached")


def _add_tau_flags(sp):
    sp.add_argument("--tau", default="1", help="rational part of tau (fraction ok)")
    sp.add_argument("--tau-b", default="0", help="coefficient of sqrt(d) in tau")


def cmd_primes(args) -> int:
    T = _prime_table(make_field(args.d), args.x)
    kind = np.array(_KINDS if args.format == "csv" else [json.dumps(k) for k in _KINDS], object)  # a text per kind
    degree = np.array(_DEGREE_OF)
    columns = lambda rows: (*T.names(rows), degree[T.kind[rows]].tolist(), kind[T.kind[rows]].tolist())
    _emit_table(args, "norm,rational_prime,root_label,residue_degree,splitting", len(T.norm), columns)
    return 0


def cmd_char(args) -> int:
    from . import eigen_io
    tau = _tau_element(args)
    K = make_field(args.d)
    psi = eigen_io.load_psi_table(K, args.psi_file, args.x) if args.psi_file else None
    chi = IdealCharacter.from_tau(K, tau, psi_table=psi).values_upto(args.x)
    names = _prime_table(K, args.x).names
    _emit_table(args, "norm,rational_prime,root_label,chi", len(chi), lambda rows: (*names(rows), chi[rows].tolist()))
    return 0


def cmd_signs(args) -> int:
    from .sign_pipeline import SignSurvey
    tau = _tau_element(args)
    series, psi = _load_series(args, tau)
    t = SignSurvey(series, tau, psi=psi)
    row = (t.x, t.total, t.pos, t.neg, t.zero, density_string(t.pos, t.total))
    _emit_table(args, TALLY_CSV_HEADER, 1, lambda _: zip(row), _tally_obj(t))
    return 0


def cmd_stats(args) -> int:
    from . import sato_tate
    from .sign_pipeline import SignSurvey
    coefficient = _threshold_coefficient(args)
    tau = _tau_element(args)
    series, psi = _load_series(args, tau)
    survey = SignSurvey(series, tau, psi=psi)
    report = sato_tate.ks_statistic(survey.coords, coefficient=coefficient)
    if args.hist_out:
        _emit([sato_tate.histogram_csv(survey.coords)], args.hist_out)
    if args.svg:
        _emit([sato_tate.histogram_svg(survey.coords)], args.svg)
    obj = {
        "label": series.label,
        "x": survey.x,
        "n": report.n,
        "ks_statistic": f"{report.statistic:.12f}",
        "ks_threshold": f"{report.threshold:.12f}",
        "ks_pass": report.passed,
    }
    _emit_json(obj, args.out)
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    from . import sato_tate
    from .sign_pipeline import SignSurvey, _even_weights
    if not 0 <= args.seed < 2**128:  # the key range of the Philox sampler
        raise HilbertSignsError(f"--seed must be in [0, 2^128), got {args.seed}")
    coefficient = _threshold_coefficient(args)
    K = make_field(args.d)
    _even_weights((args.k0,))
    tau = _tau_element(args)
    factorable_tau(K, tau)  # refused before the series is drawn
    series = sato_tate.synth_eigen_series(K, args.x, args.k0, args.seed)
    t = SignSurvey(series, tau)
    report = sato_tate.ks_statistic(t.coords, coefficient=coefficient)
    ks = {
        "ks_n": report.n,
        "ks_statistic": f"{report.statistic:.12f}",
        "ks_threshold": f"{report.threshold:.12f}",
    }
    row = (
        t.x, t.total, t.pos, t.neg, t.zero, t.bad,
        density_string(t.pos, t.total), density_string(t.zero, t.total),
        *ks.values(), int(report.passed),
    )
    obj = {**_tally_obj(t), "seed": args.seed, "k0": args.k0, **ks, "ks_pass": report.passed}
    _emit_table(args, SIMULATE_CSV_HEADER, 1, lambda _: zip(row), obj)
    return 0 if report.passed else 1


# series-check holds every integral ideal of norm <= --x (about 0.43 x of
# them), with its parent and last prime, and each divisor pair once.  On a
# 2-vCPU VM, `--d 5 --count 10` took 1.3-1.4 s and 86 MB max RSS at 10^6
# (430,407 ideals, 1,447,225 pairs a < b and 431 (d, d), 0.2-0.3 s to build),
# and 14.2-14.6 s and 540 MB at 10^7 (4,304,070 ideals, 16,604,975 pairs),
# so the cap keeps it well under a GB.
SERIES_CHECK_MAX_X = 10**7

# Each check costs ~1.25 s at the --x cap (~0.16 s at 10^6), so 10^3 of
# them take ~20 minutes there, and keeps a ~0.8 KB record for the output
# (10^5 checks at --x 10: 38 s and 122 MB max RSS, still growing with the
# count).  On a 2-vCPU VM, 10^3 checks took 0.6 s and 36 MB at --x 10.
SERIES_CHECK_MAX_COUNT = 10**3


def _randbelow(bits, n: int) -> int:
    """random.Random.randrange(n) on the same stream: n.bit_length() bits until they are below n."""
    k = n.bit_length()
    while (r := bits(k)) >= n:
        pass
    return r


def cmd_series_check(args) -> int:
    """Round-trip the Euler-product identity on random series; exit 0 iff exact."""
    if args.x > SERIES_CHECK_MAX_X:
        raise HilbertSignsError(f"series-check --x must be <= {SERIES_CHECK_MAX_X}, got {args.x}")
    if not 1 <= args.count <= SERIES_CHECK_MAX_COUNT:
        raise HilbertSignsError(f"--count must be in [1, {SERIES_CHECK_MAX_COUNT}], got {args.count}")
    if args.seed < 0:  # random.Random seeds from abs(seed), so -7 would rerun 7
        raise HilbertSignsError(f"series-check --seed must be >= 0, got {args.seed}")
    K = make_field(args.d)
    rng = random.Random(args.seed)
    draw, bits = rng.random, rng.getrandbits
    # m + sqrt(d) is totally positive, as m^2 > d.  Its norm m^2 - d is not a
    # square for any d in NARROW_CLASS_NUMBER_ONE, so it is not a square and
    # chi is nontrivial.  m = 4 for every d <= 13.
    m = max(4, math.isqrt(K.d) + 1)
    tau_pool = [1, 4, 9, 2, 5] if K.is_rational else [(1, 0), (4, 0), (m, 1), (9, 0)]
    checks = []
    all_ok = True
    T = _ideal_table(K, args.x)
    prime_rows = range(len(T.prime_id))
    for i in range(args.count):
        chi_P = IdealCharacter.from_tau(K, tau_pool[rng.randrange(len(tau_pool))]).values_upto(args.x)
        # lam is 1 at O_K and, with probability 1/2 at each prime row j, a/q with
        # a = randint(-9, 9) and q = randint(1, 9), drawn as randint draws them
        draws = [(j, _randbelow(bits, 19) - 9, _randbelow(bits, 9) + 1) for j in prime_rows if draw() < 0.5]
        rows, a, q = np.array(draws, np.int64).reshape(-1, 3).T
        den, ids = math.lcm(*q.tolist()), T.prime_id[rows]
        num = np.zeros(len(T.norm), np.int64)
        num[0], num[ids] = den, den // q * a * T.norm[ids]
        lam = FormalSeries(K, args.x, den, num)
        c = c_series_from_lambda(lam, chi_P)
        back = series_mul(c, character_moebius_series(K, args.x, chi_P))
        roundtrip_ok = back == lam
        residuals_zero = not extract_prime_relation(c, lam, chi_P).any()
        checks.append({"series": i, "roundtrip": roundtrip_ok, "residuals_zero": residuals_zero})
        all_ok = all_ok and roundtrip_ok and residuals_zero
    obj = {"d": args.d, "x": args.x, "count": args.count, "ok": all_ok, "checks": checks}
    _emit_json(obj, args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hilbert-signs",
        description="Sign statistics of reconstructed eigenvalues over quadratic fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("primes", help="enumerate prime ideals by norm")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_primes)

    sp = sub.add_parser("char", help="evaluate the twisted character at primes")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--x", type=int, required=True)
    _add_tau_flags(sp)
    sp.add_argument("--psi-file", default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("signs", help="tally reconstructed eigenvalue signs")
    sp.add_argument("--d", type=int, default=None, help="require the series to be over this d")
    sp.add_argument("--x", type=int, required=True)
    _add_tau_flags(sp)
    _add_source_flags(sp)
    sp.add_argument("--psi-file", default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_signs)

    sp = sub.add_parser("stats", help="KS report and histogram of B coordinates")
    sp.add_argument("--x", type=int, required=True)
    _add_tau_flags(sp)
    _add_source_flags(sp)
    sp.add_argument("--psi-file", default=None)
    sp.add_argument("--threshold-coefficient", type=float, default=1.63)
    sp.add_argument("--hist-out", default=None, help="write 64-bin histogram CSV here")
    sp.add_argument("--svg", default=None, help="write histogram SVG here")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("simulate", help="synthetic end-to-end pipeline run")
    sp.add_argument("--d", type=int, default=5)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--k0", type=int, default=2)
    sp.add_argument("--seed", type=int, required=True)
    _add_tau_flags(sp)
    sp.add_argument("--threshold-coefficient", type=float, default=1.63)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("series-check", help="exact Euler-product round-trip checks")
    sp.add_argument("--d", type=int, default=5)
    sp.add_argument("--x", type=int, default=1000)
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_series_check)

    return ap


# Every command builds the prime table of norm <= --x once, at 9 bytes per
# ideal retained and ~27 at the peak of its build, and the character adds 1.
# primes and char write the table _LANES rows at a time, and simulate streams
# the rest in chunks.  At 10^8 (5,761,588 ideals at d = 5, 2-vCPU VM) primes
# and char took 3.3-7.4 s and 179 MB max RSS in either format, and simulate
# ~275 MB at either tau; signs and stats also hold the series they read, and
# series-check has its own cap.  A larger x would fail late, in an allocation.
MAX_X = 10**8


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 1 <= args.x <= MAX_X:
            raise HilbertSignsError(f"--x must be in [1, {MAX_X}], got {args.x}")
        return args.func(args)
    except HilbertSignsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
