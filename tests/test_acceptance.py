"""Acceptance gate: one test per criterion, one visible PASS/FAIL line each.

Run with `pytest -v tests/test_acceptance.py`; every test prints a
`[acceptance NN]` line through the capture bypass so the verdicts appear
in the terminal regardless of capture mode.  Budgets are wall-clock
upper bounds, generous on purpose: they catch complexity regressions,
not scheduler noise.
"""

import json
import random
import socket
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import good_primes, prime_residual, quadrature_mass, tail_inequality

from hilbert_signs import (
    CURVE_REGISTRY,
    FormalSeries,
    IdealCharacter,
    IdealFactorization,
    SignSurvey,
    c_series_from_lambda,
    character_moebius_series,
    enumerate_prime_ideals,
    ks_statistic,
    kronecker_symbol,
    primes_upto,
    semicircle_mass,
    series_mul,
)
from hilbert_signs.cli import SIMULATE_CSV_HEADER, main
from hilbert_signs.curves import ap_bsgs, ap_naive, ap_symbol_sum
from hilbert_signs.formal_series import character_zeta_series


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
    unit = IdealFactorization.unit(field5)
    failures = 0
    for _ in range(20):
        chi = IdealCharacter.from_tau(field5, tau_pool[rng.randrange(len(tau_pool))])
        coeffs = {unit: Fraction(1)}
        for P in primes:
            if rng.random() < 0.5:
                coeffs[IdealFactorization.from_prime(P)] = Fraction(
                    rng.randint(-9, 9), rng.randint(1, 9)
                )
        lam = FormalSeries(field5, X, coeffs)
        c = c_series_from_lambda(lam, chi)
        if series_mul(c, character_moebius_series(chi, X)) != lam:
            failures += 1
            continue
        if any(prime_residual(c, lam, chi, P) != 0 for P in good_primes(chi, X)):
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
    survey = SignSurvey(curve37_series_1e5, 1, x=100_000)
    t = survey.tally()
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
        t = SignSurvey(curve37_series_1e5, tau, x=100_000).tally()
        densities[tau] = t.pos / t.total
    elapsed = time.perf_counter() - start
    ok = all(0.45 <= d <= 0.55 for d in densities.values()) and elapsed < 30.0
    verdict(
        capsys, 5, "curve 37a twisted by tau=2 and tau=5", ok,
        f"densities {densities[2]:.6f} / {densities[5]:.6f}, {elapsed:.1f}s",
    )


def test_06_cutoff_inequality_thousand_pairs(capsys, curve37_series_1e5, synth5_series_1e6):
    start = time.perf_counter()
    rng = random.Random(5150)
    pairs = [(rng.randint(2, 100_000), 1.0 - rng.random()) for _ in range(1000)]
    violations = 0
    for E in (synth5_series_1e6, curve37_series_1e5):
        survey = SignSurvey(E, 1, x=100_000)
        for x, eps in pairs:
            lhs, rhs = tail_inequality(E, survey, x, eps)
            violations += lhs < rhs
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    verdict(
        capsys, 6, "tail inequality on 10^3 random (x, eps) pairs, both datasets", ok,
        f"{violations} violations across {2 * len(pairs)} checks, {elapsed:.1f}s",
    )


def test_07_chebotarev_split_fraction(capsys):
    start = time.perf_counter()
    split = 0
    unramified = 0
    for q in primes_upto(1_000_000):
        p = int(q)
        if p == 5:
            continue
        unramified += 1
        if kronecker_symbol(5, p) == 1:
            split += 1
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
                counts.add(ap_bsgs(E, p))
            if len(counts) != 1:
                mismatches += 1
    hasse_ok = all(
        c * c * P.norm <= 4 for P, c in curve37_series_1e5.entries.items()
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
