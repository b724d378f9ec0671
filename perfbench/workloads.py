"""Benchmark workloads: generated inputs, CLI command sequences, output checks.

Everything the checks compare against is computed here, independently of
the package under test: the prime ideals of Q(sqrt 5) come from a plain
sieve and the classification of p mod 5, the twisted character from the
Euler criterion, and the expected sign tally of a generated fixture from
an exact recount in Python ints.  The package only ever sees the
generated files and the command-line flags.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("curve-37a-cold", "fixture-d5-twisted", "simulate-d5", "series-check-d5")

# Norm cutoffs per size; "tiny" is the self-test size (X <= 10^3).
SIZES = {
    "full": {"curve": 100_000, "fixture": 1_000_000, "simulate": 1_000_000, "series": 10_000},
    "tiny": {"curve": 1_000, "fixture": 1_000, "simulate": 1_000, "series": 1_000},
}
SERIES_COUNT = 10

# Curve 37a: (signs CSV row, stats n, stats ks_statistic) per cutoff.
CURVE_PINS = {
    100_000: ("100000,9592,4755,4821,14,0.495725604671", 9590, "0.006634799114"),
    1_000: ("1000,168,77,85,4,0.458333333333", 166, "0.051608449141"),
}

# `simulate` exits 1 when its KS statistic exceeds 1.63/sqrt(n), which an
# honest semicircle sample does about 1% of the time.  The benchmark seed
# picks one of these sampler seeds; each passes at d=5, X=10^6 (seed 0 also
# at X=10^3), so a run never fails by chance.
SIMULATE_SEEDS = tuple(range(40))

# tau = 4 + sqrt(5) = 3 + 2w with w = (1 + sqrt 5)/2; N(tau) = 11.
TAU = ("4", "1")
TAU_OMEGA = (3, 2)
TAU_NORM = 11

# Share of good primes given an exact-boundary coefficient of each kind.
PLANT_SHARE = 0.01
TINY = 10**30  # offset of the near-boundary plants; denominators pass int64


# ----------------------------------------------------------------------
# independent arithmetic for Q(sqrt 5)
# ----------------------------------------------------------------------


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


def _sqrt5_mod(p: int) -> int:
    """A square root of 5 mod an odd prime p = +-1 mod 5 (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(5, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(5, q, p), pow(5, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _legendre(a: int, p: int) -> int:
    t = pow(a % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


@dataclass(frozen=True)
class Ideal:
    norm: int
    p: int
    label: int
    eps: int  # eps_tau(P) for tau = 4 + sqrt 5; 0 on the bad set


def ideals_d5(X: int) -> list[Ideal]:
    """Prime ideals of Q(sqrt 5) with norm <= X, in (norm, p, label) order.

    Split primes (p = +-1 mod 5) give two ideals, labelled by the roots of
    w^2 - w - 1 mod p in ascending order; inert primes give one ideal of
    norm p^2; 5 ramifies.  eps is the Euler-criterion symbol of tau
    (inert: the Legendre symbol of N(tau)), and 0 above 2, 5 and 11 | tau.
    """
    out = []
    for p in primes_upto(X):
        if p == 5:
            out.append(Ideal(5, 5, 0, 0))
        elif p % 5 in (1, 4):
            s = _sqrt5_mod(p)
            inv2 = (p + 1) // 2
            for label, root in enumerate(sorted({(1 + s) * inv2 % p, (1 - s) * inv2 % p})):
                out.append(Ideal(p, p, label, _legendre(TAU_OMEGA[0] + TAU_OMEGA[1] * root, p)))
        elif p * p <= X:
            out.append(Ideal(p * p, p, 0, 0 if p == 2 else _legendre(TAU_NORM, p)))
    out.sort(key=lambda P: (P.norm, P.p, P.label))
    return out


def density_string(num: int, den: int) -> str:
    """num/den to 12 places, rounded half up (the CLI's density format)."""
    q, r = divmod(num * 10**12, den)
    q += 2 * r >= den
    return f"{q // 10**12}.{q % 10**12:012d}"


def ks_threshold(n: int) -> str:
    """The CLI's KS pass threshold 1.63/sqrt(n), as it prints it."""
    return f"{1.63 / math.sqrt(n):.12f}"


# ----------------------------------------------------------------------
# generated fixture and psi table
# ----------------------------------------------------------------------


def make_fixture(seed: int, X: int, workdir: Path) -> tuple[Path, Path, dict]:
    """Write an eigen-series document and a psi table; return the expected tally.

    Coefficients are random rationals inside the Hasse bound c^2 N <= 4,
    except for planted entries: c = chi/N exactly (lambda = 0) and
    c = chi/N +- 10^-30 (lambda of known sign, denominator past int64).
    """
    rng = random.Random(f"fixture-d5-{seed}")
    ideals = ideals_d5(X)
    psi = {P: rng.choice((-1, 1)) for P in ideals if rng.random() < 0.02}
    entries = []
    counts = {"pos": 0, "neg": 0, "zero": 0, "bad": 0, "total": len(ideals)}
    for P in ideals:
        chi = P.eps * psi.get(P, 1)
        u = rng.random()
        if chi and u < PLANT_SHARE:
            num, den = chi, P.norm
        elif chi and u < 3 * PLANT_SHARE:
            off = 1 if u < 2 * PLANT_SHARE else -1
            num, den = chi * TINY + off * P.norm, P.norm * TINY
        else:
            den = rng.randint(1, 10**12)
            bound = math.isqrt(4 * den * den // P.norm)
            num = rng.randint(-bound, bound)
        entries.append(
            {"norm": P.norm, "rational_prime": P.p, "root_label": P.label, "c_num": num, "c_den": den}
        )
        if chi == 0:
            counts["bad"] += 1
            continue
        s = num * P.norm - chi * den  # den > 0, so this is sign(c - chi/N)
        counts["pos" if s > 0 else "neg" if s < 0 else "zero"] += 1
    doc = {
        "format": "eigen-series/1",
        "d": 5,
        "weight": [2],
        "label": f"bench-d5-{seed}",
        "level_support": [],
        "entries": entries,
    }
    fixture = workdir / "fixture-d5.json"
    fixture.write_text(json.dumps(doc, indent=1) + "\n")
    psi_file = workdir / "psi-d5.json"
    psi_doc = [
        {"prime_norm": P.norm, "rational_prime": P.p, "root_label": P.label, "value": v}
        for P, v in psi.items()
    ]
    psi_file.write_text(json.dumps(psi_doc, indent=1) + "\n")
    return fixture, psi_file, counts


# ----------------------------------------------------------------------
# output checks: each returns None when the output is right, else why not
# ----------------------------------------------------------------------

Check = Callable[[int, str], "str | None"]


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as e:
        raise ValueError(f"stdout is not JSON: {e}") from None


def _guarded(check: Callable[[str], "str | None"]) -> Check:
    """Fail a nonzero exit code, then a stdout the check cannot parse."""

    def run(rc: int, stdout: str) -> str | None:
        try:
            return f"exit code {rc}, expected 0" if rc else check(stdout)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
            return f"malformed output: {e}"

    return run


def curve_signs_check(X: int) -> Check:
    row = CURVE_PINS[X][0]

    def check(stdout):
        want = f"x,total,pos,neg,zero,pos_density\n{row}\n"
        return None if stdout == want else f"tally {stdout!r} != {want!r}"

    return _guarded(check)


def curve_stats_check(X: int, hist: Path, svg: Path) -> Check:
    _, n, ks = CURVE_PINS[X]

    def check(stdout):
        obj = _json(stdout)
        got = (obj["label"], obj["x"], obj["n"], obj["ks_statistic"], obj["ks_threshold"], obj["ks_pass"])
        want = ("37a", X, n, ks, ks_threshold(n), True)
        if got != want:
            return f"stats {got} != {want}"
        rows = hist.read_text().splitlines()[1:]
        if len(rows) != 64 or sum(int(r.split(",")[2]) for r in rows) != n:
            return "histogram CSV does not hold 64 bins summing to n"
        if not svg.read_text().startswith("<svg"):
            return "SVG output missing"
        return None

    return _guarded(check)


def fixture_check(X: int, counts: dict) -> Check:
    def check(stdout):
        obj = _json(stdout)
        if obj["x"] != X or obj["counts"] != counts:
            return f"tally {obj['x']}, {obj['counts']} != exact recount {X}, {counts}"
        for key in ("pos", "neg", "zero"):
            want = density_string(counts[key], counts["total"])
            if obj[f"{key}_density"] != want:
                return f"{key}_density {obj[f'{key}_density']} != {want}"
        return None

    return _guarded(check)


def simulate_check(X: int, total: int, bad: int) -> Check:
    def check(stdout):
        header, row = stdout.splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        x, tot, pos, neg, zero, nbad, ks_n = (
            int(rec[k]) for k in ("x", "total", "pos", "neg", "zero", "bad", "ks_n")
        )
        if (x, tot, nbad) != (X, total, bad) or pos + neg + zero + nbad != tot:
            return f"tally x={x} total={tot} bad={nbad} does not add up to {total}, bad={bad}"
        if (rec["pos_density"], rec["zero_density"]) != (
            density_string(pos, tot), density_string(zero, tot)
        ):
            return f"densities {rec['pos_density']}, {rec['zero_density']} do not match the counts"
        if (ks_n, rec["ks_threshold"], rec["ks_pass"]) != (tot - nbad, ks_threshold(tot - nbad), "1"):
            return f"KS n={ks_n} threshold={rec['ks_threshold']} pass={rec['ks_pass']}"
        return None

    return _guarded(check)


def series_check_check(X: int, count: int) -> Check:
    def check(stdout):
        obj = _json(stdout)
        ok = all(c["roundtrip"] is c["residuals_zero"] is True for c in obj["checks"])
        ok = ok and [c["series"] for c in obj["checks"]] == list(range(count))
        if not (obj["ok"] is True and ok and (obj["d"], obj["x"], obj["count"]) == (5, X, count)):
            return f"series-check not ok: ok={obj['ok']} x={obj['x']} checks={len(obj['checks'])}"
        return None

    return _guarded(check)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # arguments after `python -m hilbert_signs.cli`
    check: Check


# prepare(seed, size, workdir) makes the inputs once per run and returns
# commands(iteration_dir), the command sequence of one iteration.
Commands = Callable[[Path], list[Command]]


def prepare(name: str, seed: int, size: str, workdir: Path) -> Commands:
    X = SIZES[size]
    if name == "curve-37a-cold":
        x = str(X["curve"])

        def commands(it: Path) -> list[Command]:
            cache, hist, svg = it / "cache", it / "hist.csv", it / "hist.svg"
            src = ("--curve", "37a", "--x", x, "--cache-dir", str(cache))
            return [
                Command(("signs", *src), curve_signs_check(X["curve"])),
                Command(
                    ("stats", *src, "--hist-out", str(hist), "--svg", str(svg)),
                    curve_stats_check(X["curve"], hist, svg),
                ),
            ]

        return commands
    if name == "fixture-d5-twisted":
        fixture, psi, counts = make_fixture(seed, X["fixture"], workdir)
        cmd = Command(
            ("signs", "--fixture", str(fixture), "--x", str(X["fixture"]),
             "--tau", TAU[0], "--tau-b", TAU[1], "--psi-file", str(psi), "--format", "json"),
            fixture_check(X["fixture"], counts),
        )
        return lambda it: [cmd]
    if name == "simulate-d5":
        ideals = ideals_d5(X["simulate"])
        bad = sum(1 for P in ideals if P.p in (2, 5))  # tau = 1: bad set is above 2 and 5
        cmd = Command(
            ("simulate", "--d", "5", "--x", str(X["simulate"]),
             "--seed", str(SIMULATE_SEEDS[seed % len(SIMULATE_SEEDS)])),
            simulate_check(X["simulate"], len(ideals), bad),
        )
        return lambda it: [cmd]
    if name == "series-check-d5":
        cmd = Command(
            ("series-check", "--d", "5", "--x", str(X["series"]),
             "--count", str(SERIES_COUNT), "--seed", str(seed)),
            series_check_check(X["series"], SERIES_COUNT),
        )
        return lambda it: [cmd]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
