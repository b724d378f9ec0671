"""Acceptance gate: one test per criterion, one visible PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py`; every test prints a
`[acceptance NN]` line through the capture bypass so the verdicts appear
in the terminal regardless of capture mode.  Budgets are wall-clock
upper bounds, generous on purpose: they catch complexity regressions,
not scheduler noise.
"""

import json
import os
import random
import socket
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    IdealFactorization,
    enumerate_prime_ideals,
    good_primes,
    prime_residual,
    quadrature_mass,
    series_from_dict,
    tail_inequality,
)

import hilbert_signs
from hilbert_signs.characters import IdealCharacter
from hilbert_signs.cli import SIMULATE_CSV_HEADER, main
from hilbert_signs.curves import CURVE_REGISTRY, _ap_lanes, ap_naive, ap_symbol_sum
from hilbert_signs.field_arith import _RAMIFIED, _SPLIT, _prime_table, primes_upto
from hilbert_signs.formal_series import (
    c_series_from_lambda,
    character_moebius_series,
    character_zeta_series,
    series_mul,
)
from hilbert_signs.sato_tate import ks_statistic, semicircle_mass
from hilbert_signs.sign_pipeline import SignSurvey


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_semicircle_exactness(capsys):
    start = time.perf_counter()
    half = semicircle_mass(0.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 10_000)
    closed = np.array([semicircle_mass(-1.0, t) for t in grid])
    err = float(np.max(np.abs(closed - quadrature_mass(np.full_like(grid, -1.0), grid))))
    elapsed = time.perf_counter() - start
    ok = abs(half - 0.5) <= 1e-15 and err <= 1e-12 and elapsed < 1.0
    verdict(
        capsys, 1, "semicircle closed form vs quadrature", ok,
        f"mass(0,1) off by {abs(half - 0.5):.1e}, grid err {err:.2e}, {elapsed:.2f}s",
    )


def test_02_euler_product_roundtrip(capsys, field5):
    start = time.perf_counter()
    X = 10_000
    rng = random.Random(2024)
    tau_pool = [(1, 0), (4, 0), (9, 0), (2, 0), (5, 0), (4, 1)]
    primes = enumerate_prime_ideals(field5, X)
    unit = IdealFactorization(1, (), field5)
    failures = 0
    for _ in range(20):
        chi = IdealCharacter.from_tau(field5, tau_pool[rng.randrange(len(tau_pool))])
        chi_P = chi.values_upto(X)
        coeffs = {unit: Fraction(1)}
        for P in primes:
            if rng.random() < 0.5:
                coeffs[IdealFactorization.from_pairs(field5, [(P, 1)])] = Fraction(
                    rng.randint(-9, 9), rng.randint(1, 9)
                )
        lam = series_from_dict(field5, X, coeffs)
        c = c_series_from_lambda(lam, chi_P)
        if series_mul(c, character_moebius_series(field5, X, chi_P)) != lam:
            failures += 1
            continue
        cc, ll = c.coeffs, lam.coeffs
        if any(prime_residual(cc, ll, chi, P) != 0 for P in good_primes(chi, X)):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    verdict(
        capsys, 2, "Euler-product round-trip, 20 random series at X=10^4", ok,
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_03_synthetic_equidistribution(capsys, tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "--d", "5", "--x", "1000000", "--k0", "2", "--seed", "42",
         "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    header, row = out.read_text().strip().split("\n")
    cols = dict(zip(SIMULATE_CSV_HEADER.split(","), row.split(",")))
    pos_density = float(cols["pos_density"])
    zero_density = float(cols["zero_density"])
    ok = (
        code == 0
        and header == SIMULATE_CSV_HEADER
        and 0.495 <= pos_density <= 0.505
        and zero_density <= 1e-4
        and cols["ks_pass"] == "1"
        and elapsed < 60.0
    )
    verdict(
        capsys, 3, "synthetic signs at x=10^6 (seed 42)", ok,
        f"pos {pos_density:.6f}, zero {zero_density:.1e}, "
        f"KS {cols['ks_statistic']} <= {cols['ks_threshold']}, {elapsed:.1f}s",
    )


def test_04_curve_37a_equidistribution(capsys, curve37_series_1e5):
    start = time.perf_counter()
    survey = SignSurvey(curve37_series_1e5, 1)
    t = survey
    report = ks_statistic(survey.coords)
    elapsed = time.perf_counter() - start
    density = t.pos / t.total
    ok = (
        t.total == 9592
        and 0.45 <= density <= 0.55
        and report.statistic <= 0.05
        and elapsed < 60.0
    )
    verdict(
        capsys, 4, "curve 37a, tau=1, p<=10^5", ok,
        f"total {t.total}, pos density {density:.6f}, KS {report.statistic:.6f}, "
        f"{elapsed:.1f}s",
    )


def test_05_twisted_signs(capsys, curve37_series_1e5):
    start = time.perf_counter()
    densities = {}
    for tau in (2, 5):
        t = SignSurvey(curve37_series_1e5, tau)
        densities[tau] = t.pos / t.total
    elapsed = time.perf_counter() - start
    ok = all(0.45 <= d <= 0.55 for d in densities.values()) and elapsed < 30.0
    verdict(
        capsys, 5, "curve 37a twisted by tau=2 and tau=5", ok,
        f"densities {densities[2]:.6f} / {densities[5]:.6f}, {elapsed:.1f}s",
    )


def test_06_cutoff_inequality_thousand_pairs(capsys, curve37_series_1e5, synth5_series_1e5):
    start = time.perf_counter()
    rng = random.Random(5150)
    pairs = [(rng.randint(2, 100_000), 1.0 - rng.random()) for _ in range(1000)]
    violations = 0
    for E in (synth5_series_1e5, curve37_series_1e5):
        survey = SignSurvey(E, 1)
        for x, eps in pairs:
            lhs, rhs = tail_inequality(E, survey, x, eps)
            violations += lhs < rhs
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    verdict(
        capsys, 6, "tail inequality on 10^3 random (x, eps) pairs, both datasets", ok,
        f"{violations} violations across {2 * len(pairs)} checks, {elapsed:.1f}s",
    )


def test_07_chebotarev_split_fraction(capsys, field5):
    # a split p has one _SPLIT row (and one _SECOND row); inert p past sqrt(X) have no row
    start = time.perf_counter()
    kind = _prime_table.__wrapped__(field5, 1_000_000).kind
    split = int(np.count_nonzero(kind == _SPLIT))
    unramified = len(primes_upto(1_000_000)) - int(np.count_nonzero(kind == _RAMIFIED))
    fraction = split / unramified
    elapsed = time.perf_counter() - start
    ok = abs(fraction - 0.5) <= 0.01 and elapsed < 10.0
    verdict(
        capsys, 7, "split fraction in Q(sqrt5) for p <= 10^6", ok,
        f"{split}/{unramified} = {fraction:.6f}, {elapsed:.1f}s",
    )


def test_08_point_count_self_consistency(capsys, curve37_series_1e5):
    start = time.perf_counter()
    mismatches = 0
    for E in CURVE_REGISTRY.values():
        bad = set(E.bad_primes())
        for q in primes_upto(64):
            p = int(q)
            if p in bad or p == 2:
                continue
            counts = {ap_naive(E, p), ap_symbol_sum(E, p)}
            if p >= 5:
                counts.add(int(_ap_lanes(E, np.array([p]))[0]))
            if len(counts) != 1:
                mismatches += 1
    hasse_ok = all(
        c * c * norm <= 4 for (norm, _, _), c in curve37_series_1e5.entries.items()
    )
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and hasse_ok
    verdict(
        capsys, 8, "naive, symbol-sum and BSGS counts agree; Hasse bound to 10^5", ok,
        f"{mismatches} mismatches, Hasse {'exact' if hasse_ok else 'VIOLATED'}, "
        f"{elapsed:.1f}s",
    )


def test_09_uniform_sample_fails_ks(capsys):
    rng = np.random.Generator(np.random.Philox(key=99))
    report = ks_statistic(rng.uniform(-1.0, 1.0, 100_000))
    ok = not report.passed
    verdict(
        capsys, 9, "uniform[-1,1] n=10^5 rejected by the KS test", ok,
        f"D = {report.statistic:.4f} > threshold {report.threshold:.4f}",
    )


def test_10_offline_determinism(capsys, tmp_path):
    with pytest.raises(RuntimeError, match="network"):
        socket.socket().connect(("127.0.0.1", 9))
    outs = []
    for name in ("a", "b"):
        sim = tmp_path / f"sim-{name}.csv"
        sign = tmp_path / f"signs-{name}.csv"
        assert main(["simulate", "--d", "5", "--x", "50000", "--seed", "911",
                     "--out", str(sim)]) == 0
        assert main(["signs", "--curve", "37a", "--x", "10000", "--out", str(sign)]) == 0
        outs.append(sim.read_bytes() + sign.read_bytes())
    ok = outs[0] == outs[1]
    verdict(
        capsys, 10, "socket guard active; seeded reruns bit-identical", ok,
        f"{len(outs[0])} bytes compared",
    )


_THREADS = (
    "import os, hilbert_signs.cli; "
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _import_cli(**more):
    """Threads and OPENBLAS_NUM_THREADS of a fresh process right after `import hilbert_signs.cli`."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(hilbert_signs.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _THREADS], env=env | more, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    threads, value = proc.stdout.split()
    return int(threads), value


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc and two CPUs, where OpenBLAS would start a worker thread")
def test_11_cli_starts_without_a_blas_thread_pool(capsys):
    alone, pinned = _import_cli(), _import_cli(OPENBLAS_NUM_THREADS="2")
    ok = alone == (1, "1") and pinned[1] == "2"
    verdict(
        capsys, 11, "importing the CLI starts one thread and keeps a set OPENBLAS_NUM_THREADS", ok,
        f"unset: {alone[0]} thread(s), OPENBLAS_NUM_THREADS={alone[1]}; set to 2: reads {pinned[1]}",
    )



_OPENSSL_AND_RANDOM = ("_hashlib", "numpy.random")

_PROBE = """
import contextlib, io, json, sys
from hilbert_signs import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, [m for m in %r if m in sys.modules]]))
""" % (_OPENSSL_AND_RANDOM,)


def _loads(tmp_path, *argv, prelude=""):
    """Which of _hashlib and numpy.random a fresh process has loaded after `cli.main(argv)` returned 0."""
    env = os.environ | {"PYTHONPATH": str(Path(hilbert_signs.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", prelude + _PROBE, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0, proc.stderr
    return loaded


def test_12_no_command_loads_openssl_or_numpy_random(capsys, tmp_path):
    probe = f"import sys, numpy; print([m for m in {_OPENSSL_AND_RANDOM!r} if m in sys.modules])"
    by_numpy = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout
    if by_numpy.strip() != "[]":
        pytest.skip(f"a bare `import numpy` loads {by_numpy.strip()} itself (numpy {np.__version__})")
    primes = ("primes", "--d", "5", "--x", "100")
    control = _loads(tmp_path, *primes, prelude="import hashlib\n")
    commands = {
        "signs --curve": ("signs", "--curve", "11a", "--x", "100", "--cache-dir", "."),
        "primes": primes,
        "series-check": ("series-check", "--d", "5", "--x", "100", "--count", "1"),
        "simulate": ("simulate", "--d", "5", "--x", "1000", "--seed", "1"),
    }
    loaded = {name: _loads(tmp_path, *argv) for name, argv in commands.items()}
    (doc,) = tmp_path.glob("curve-11a-*.json")
    loaded["signs --fixture"] = _loads(tmp_path, "signs", "--fixture", doc.name, "--x", "100")
    wrong = {name: mods for name, mods in loaded.items() if mods}
    ok = control == ["_hashlib"] and not wrong
    verdict(
        capsys, 12, "no command loads OpenSSL's _hashlib or numpy.random", ok,
        f"the probe sees {control} after `import hashlib`; loaded by a command: {wrong or 'none'}",
    )
