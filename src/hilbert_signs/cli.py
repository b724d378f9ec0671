"""Command-line front end.

Subcommands: primes, char, signs, stats, simulate, series-check.  Every
command writes CSV or JSON to stdout (or --out) and exits 0 only if its
declared checks pass; input errors exit 2.  This is the one module that
formats results: tables pass through _emit_table and JSON documents
through _emit_json.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import eigen_io, sato_tate
from .characters import IdealCharacter
from .curves import get_curve
from .errors import HilbertSignsError, ValidationError
from .field_arith import IdealFactorization, enumerate_prime_ideals, make_field
from .formal_series import (
    FormalSeries,
    c_series_from_lambda,
    character_moebius_series,
    extract_prime_relation,
    series_mul,
)
from .sign_pipeline import SignSurvey, SignTally

# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------

TALLY_CSV_HEADER = "x,total,pos,neg,zero,pos_density"
SIMULATE_CSV_HEADER = (
    "x,total,pos,neg,zero,bad,pos_density,zero_density,ks_n,ks_statistic,ks_threshold,ks_pass"
)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise HilbertSignsError(f"cannot write {out}: {e}") from e
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=1) + "\n", out)


def _emit_table(args, header: str, rows: list[tuple], obj=None) -> None:
    """Write rows as CSV under header or, with --format json, write obj.

    obj defaults to the rows themselves, each as an object keyed by the
    header's columns.
    """
    if args.format == "json":
        if obj is None:
            columns = header.split(",")
            obj = [dict(zip(columns, row)) for row in rows]
        _emit_json(obj, args.out)
    else:
        lines = [header, *(",".join(map(str, row)) for row in rows)]
        _emit("\n".join(lines) + "\n", args.out)


def density_string(num: int, den: int) -> str:
    """num/den to 12 decimal places, rounded half away from zero."""
    if den == 0:
        return "0.000000000000"
    q, r = divmod(num * 10**12, den)
    if 2 * r >= den:
        q += 1
    whole, frac = divmod(q, 10**12)
    return f"{whole}.{frac:012d}"


def _tally_obj(t: SignTally) -> dict:
    return {
        "x": t.x,
        "tau": repr(t.tau),
        "a_ideal": repr(t.a_ideal),
        "counts": {"pos": t.pos, "neg": t.neg, "zero": t.zero, "bad": t.bad, "total": t.total},
        "pos_density": density_string(t.pos, t.total),
        "neg_density": density_string(t.neg, t.total),
        "zero_density": density_string(t.zero, t.total),
    }


def _rational(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{flag} must be a rational such as 3 or 7/2, got {text!r}") from None


def _threshold_coefficient(args) -> float:
    c = args.threshold_coefficient
    if not 0 < c < math.inf:
        raise ValidationError(f"--threshold-coefficient must be finite and > 0, got {c}")
    return c


def _tau_element(args):
    return (_rational("--tau", args.tau), _rational("--tau-b", args.tau_b))


def _load_series(args):
    """Resolve the --curve/--fixture source flags into a series."""
    if args.curve:
        return eigen_io.cached_curve_series(get_curve(args.curve), args.x, args.cache_dir)
    return eigen_io.load_fixture(args.fixture, args.x)


def _add_source_flags(sp):
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", help="registry label of a built-in curve")
    src.add_argument("--fixture", help="path to an eigen-series JSON document")
    sp.add_argument("--cache-dir", default=None, help="where --curve series are cached")


def _add_tau_flags(sp):
    sp.add_argument("--tau", default="1", help="rational part of tau (fraction ok)")
    sp.add_argument("--tau-b", default="0", help="coefficient of sqrt(d) in tau")


def cmd_primes(args) -> int:
    rows = [
        (P.norm, P.rational_prime, P.root_label, P.residue_degree, P.splitting.value)
        for P in enumerate_prime_ideals(make_field(args.d), args.x)
    ]
    _emit_table(args, "norm,rational_prime,root_label,residue_degree,splitting", rows)
    return 0


def cmd_char(args) -> int:
    K = make_field(args.d)
    psi = eigen_io.load_psi_table(K, args.psi_file, args.x) if args.psi_file else None
    chi = IdealCharacter.from_tau(K, _tau_element(args), psi_table=psi)
    rows = [
        (P.norm, P.rational_prime, P.root_label, v)
        for P, v in zip(enumerate_prime_ideals(K, args.x), chi.values_upto(args.x).tolist())
    ]
    _emit_table(args, "norm,rational_prime,root_label,chi", rows)
    return 0


def cmd_signs(args) -> int:
    series = _load_series(args)
    K = series.field
    if args.d is not None and K.d != args.d:
        raise ValidationError(f"series is over d={K.d}, but --d {args.d} was given")
    psi = eigen_io.load_psi_table(K, args.psi_file, args.x) if args.psi_file else None
    t = SignSurvey(series, _tau_element(args), psi=psi, x=args.x).tally()
    row = (t.x, t.total, t.pos, t.neg, t.zero, density_string(t.pos, t.total))
    _emit_table(args, TALLY_CSV_HEADER, [row], _tally_obj(t))
    return 0


def cmd_stats(args) -> int:
    coefficient = _threshold_coefficient(args)
    series = _load_series(args)
    K = series.field
    psi = eigen_io.load_psi_table(K, args.psi_file, args.x) if args.psi_file else None
    survey = SignSurvey(series, _tau_element(args), psi=psi, x=args.x)
    report = sato_tate.ks_statistic(survey.coords, coefficient=coefficient)
    if args.hist_out:
        _emit(sato_tate.histogram_csv(survey.coords), args.hist_out)
    if args.svg:
        _emit(sato_tate.histogram_svg(survey.coords), args.svg)
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
    if not 0 <= args.seed < 2**128:  # the key range of the Philox sampler
        raise ValidationError(f"--seed must be in [0, 2^128), got {args.seed}")
    coefficient = _threshold_coefficient(args)
    K = make_field(args.d)
    series = sato_tate.synth_eigen_series(K, args.x, args.k0, args.seed)
    survey = SignSurvey(series, _tau_element(args), x=args.x)
    t = survey.tally()
    report = sato_tate.ks_statistic(survey.coords, coefficient=coefficient)
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
    _emit_table(args, SIMULATE_CSV_HEADER, [row], obj)
    return 0 if report.passed else 1


# series-check holds every integral ideal of norm <= --x (about 0.43 x of
# them) with its divisor pairs.  On a 2-vCPU VM, `--d 5 --count 10` took
# 2.4 s and 84 MB max RSS at 10^5, and 28 s and 548 MB at 10^6 (430,407
# ideals, 2,894,881 pairs, about 8 s of it building that table).
SERIES_CHECK_MAX_X = 10**6


def cmd_series_check(args) -> int:
    """Round-trip the Euler-product identity on random series; exit 0 iff exact."""
    if args.x > SERIES_CHECK_MAX_X:
        raise ValidationError(f"series-check --x must be <= {SERIES_CHECK_MAX_X}, got {args.x}")
    if args.count < 1:
        raise ValidationError(f"--count must be >= 1, got {args.count}")
    K = make_field(args.d)
    rng = random.Random(args.seed)
    tau_pool = [1, 4, 9, 2, 5] if K.is_rational else [(1, 0), (4, 0), (4, 1), (9, 0)]
    checks = []
    all_ok = True
    for i in range(args.count):
        chi = IdealCharacter.from_tau(K, tau_pool[rng.randrange(len(tau_pool))])
        unit = IdealFactorization.unit(K)
        coeffs = {unit: Fraction(1)}
        for P in enumerate_prime_ideals(K, args.x):
            if rng.random() < 0.5:
                coeffs[IdealFactorization.from_prime(P)] = Fraction(
                    rng.randint(-9, 9), rng.randint(1, 9)
                )
        lam = FormalSeries(K, args.x, coeffs)
        c = c_series_from_lambda(lam, chi)
        back = series_mul(c, character_moebius_series(chi, args.x))
        roundtrip_ok = back == lam
        residuals_zero = not extract_prime_relation(c, lam, chi).any()
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


# Every command builds the prime table of norm <= --x once, at ~193 bytes
# per ideal retained and ~203 at the peak of the build (tracemalloc, d = 5,
# X = 10^7: 664,500 ideals, 128 MB), so 10^8 bounds a run at a few GB.  A
# larger x would fail late, in an allocation.
MAX_X = 10**8


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 1 <= args.x <= MAX_X:
            raise ValidationError(f"--x must be in [1, {MAX_X}], got {args.x}")
        return args.func(args)
    except HilbertSignsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
