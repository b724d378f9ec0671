"""Semicircle law: masses, KS distance, the seeded sampler, synthetic data."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import enumerate_prime_ideals, ks_statistic_whole, quadrature_mass, semicircle_ppf_halving

from hilbert_signs import sato_tate
from hilbert_signs.errors import EmptySample
from hilbert_signs.field_arith import _LANES, _prime_table, make_field
from hilbert_signs.sato_tate import (
    HIST_BINS,
    HIST_CSV_HEADER,
    QUANT_DEN,
    histogram_csv,
    histogram_rows,
    histogram_svg,
    ks_statistic,
    sample_semicircle,
    semicircle_cdf,
    semicircle_mass,
    semicircle_ppf,
    synth_eigen_series,
)
from hilbert_signs.sign_pipeline import SignSurvey

# ----------------------------------------------------------------------
# masses and the distribution function
# ----------------------------------------------------------------------


def test_mass_examples():
    assert semicircle_mass(-1, 1) == pytest.approx(1.0, abs=1e-15)
    assert semicircle_mass(0, 1) == pytest.approx(0.5, abs=1e-15)
    expected = 1.0 / 3.0 + math.sqrt(3.0) / (2.0 * math.pi)
    assert semicircle_mass(-0.5, 0.5) == pytest.approx(expected, abs=1e-14)


def test_mass_matches_quadrature_oracle():
    grid = np.linspace(-1.0, 1.0, 1001)
    exact = np.array([semicircle_mass(-1.0, t) for t in grid])
    assert np.max(np.abs(exact - quadrature_mass(np.full_like(grid, -1.0), grid))) < 1e-13
    lo, hi = grid[:-1], grid[1:]
    pieces = np.array([semicircle_mass(a, b) for a, b in zip(lo, hi)])
    assert np.max(np.abs(pieces - quadrature_mass(lo, hi))) < 1e-13


def test_mass_additivity_and_symmetry():
    pts = [-1.0, -0.7, -0.2, 0.0, 0.4, 0.9, 1.0]
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        assert semicircle_mass(a, b) + semicircle_mass(b, c) == pytest.approx(
            semicircle_mass(a, c), abs=1e-15
        )
    for a, b in zip(pts, pts[1:]):
        assert semicircle_mass(a, b) == pytest.approx(semicircle_mass(-b, -a), abs=1e-15)


def test_mass_clamps_and_rejects_reversed():
    assert semicircle_mass(-5, 5) == pytest.approx(1.0, abs=1e-15)
    assert semicircle_mass(1, 2) == 0.0
    with pytest.raises(ValueError):
        semicircle_mass(0.5, -0.5)


def test_cdf_examples():
    assert semicircle_cdf(-1.0) == 0.0
    assert semicircle_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert semicircle_cdf(0.0) == 0.5
    assert semicircle_cdf(0.5) == pytest.approx(0.8044988905221147, abs=1e-15)
    assert semicircle_cdf(-3.0) == 0.0 and semicircle_cdf(7.0) == pytest.approx(1.0)


def test_cdf_strictly_increasing_inside():
    grid = np.linspace(-1.0, 1.0, 2001)
    vals = [semicircle_cdf(t) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
def test_mass_from_cdf(a, b):
    lo, hi = min(a, b), max(a, b)
    assert semicircle_mass(lo, hi) == pytest.approx(
        semicircle_cdf(hi) - semicircle_cdf(lo), abs=1e-15
    )


# ----------------------------------------------------------------------
# KS statistic
# ----------------------------------------------------------------------


def test_ks_single_point():
    r = ks_statistic([0.0])
    assert r.statistic == 0.5 and r.n == 1 and r.passed


def test_ks_at_quantiles_is_half_over_n():
    n = 100
    u = (np.arange(1, n + 1) - 0.5) / n
    s = semicircle_ppf(u)
    r = ks_statistic(s)
    assert abs(r.statistic - 1.0 / (2 * n)) < 1e-9


def test_ks_empty_sample():
    with pytest.raises(EmptySample):
        ks_statistic([])


def test_ks_threshold_coefficient():
    r = ks_statistic([0.0], coefficient=0.4)
    assert r.threshold == 0.4 and not r.passed
    assert ks_statistic([0.0]).threshold == pytest.approx(1.63)


def test_ks_seeded_semicircle_passes():
    r = ks_statistic(sample_semicircle(100_000, 7))
    assert r.passed and r.statistic < 0.004


@pytest.mark.parametrize("n", [1, _LANES - 1, _LANES, _LANES + 1, 78_508])
def test_ks_per_chunk_is_the_whole_array_formula(n):
    # the semicircle draws, and a sample far from it whose D+ or D- peaks in a late chunk
    for s in (sample_semicircle(n, n), 1.0 - 2.0 * philox(n, n) ** 3, 2.0 * philox(n + 1, n) ** 3 - 1.0):
        assert ks_statistic(s).statistic.hex() == ks_statistic_whole(s).hex()


def test_ks_uniform_fails():
    rng = np.random.Generator(np.random.Philox(key=99))
    r = ks_statistic(rng.uniform(-1.0, 1.0, 100_000))
    assert not r.passed and r.statistic > 0.05


# ----------------------------------------------------------------------
# sampler
# ----------------------------------------------------------------------


def test_sampler_deterministic():
    a = sample_semicircle(5000, 42)
    b = sample_semicircle(5000, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_semicircle(5000, 43))
    assert np.array_equal(sample_semicircle(600, 42), a[:600])  # longer runs extend


def test_sampler_edge_cases():
    assert sample_semicircle(0, 9).size == 0
    with pytest.raises(ValueError):
        sample_semicircle(-1, 9)


def test_sampler_range_and_moments():
    s = sample_semicircle(100_000, 1234)
    assert np.all(s >= -1.0) and np.all(s <= 1.0)
    assert abs(s.mean()) < 0.004  # E[t] = 0
    assert abs(s.var() - 0.25) < 0.004  # Var[t] = 1/4


def test_ppf_inverts_cdf():
    u = np.linspace(0.0, 1.0, 4001)
    t = semicircle_ppf(u)
    errs = [abs(semicircle_cdf(x) - ui) for x, ui in zip(t, u)]
    assert max(errs) < 1e-12


def philox(seed, n):
    return np.random.Generator(np.random.Philox(key=seed)).random(n)


@pytest.mark.parametrize("seed", [0, 1, 3, 39, 2**64 - 1, 2**64, 2**128 - 1, 0x5A_3C96_F00D_1E7B_24C6_81F3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, 78_510, 78_511])
def test_philox_lanes_are_numpys_bits(seed, n):
    assert sato_tate._philox_uniforms(n, seed).tobytes() == philox(seed, n).tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_philox_read_in_pieces_is_the_one_shot_stream(seed):
    # pieces that start and end inside a block of four draws, and across chunks
    cuts = [0, 1, 3, 4, 9, 14, _LANES - 2, _LANES + 3, 3 * _LANES + 1, 3 * _LANES + 7]
    whole = sato_tate._philox_uniforms(cuts[-1], seed)
    pieces = [sato_tate._philox_uniforms(b - a, seed, a) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(pieces).tobytes() == whole.tobytes() == philox(seed, cuts[-1]).tobytes()
    for start in (1, 2, 3, 5, _LANES + 3):
        assert sato_tate._philox_uniforms(0, seed, start).size == 0
        assert sato_tate._philox_uniforms(2, seed, start).tobytes() == whole[start : start + 2].tobytes()


@pytest.mark.parametrize("seed", [-1, 2**128, -(2**127)])
def test_seed_outside_the_philox_key_range_raises(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        sample_semicircle(3, seed)


def test_ppf_is_the_64_halvings_bit_for_bit():
    u = philox(2024, 1_000_000)
    assert semicircle_ppf(u).tobytes() == semicircle_ppf_halving(u).tobytes()


def test_ppf_bits_at_the_edges():
    # the ends and the middle, where no window is certified or 0 is a grid point
    e = 2.0**-53
    rng = np.random.Generator(np.random.Philox(key=8))
    u = np.concatenate([
        [0.0, e, 0.5 - e, 0.5, 0.5 + e, 1.0 - e, 1.0],
        rng.random(50_000) * 1e-12,
        0.5 + (rng.random(50_000) - 0.5) * 2e-12,
        1.0 - rng.random(50_000) * 1e-12,
    ])
    assert semicircle_ppf(u).tobytes() == semicircle_ppf_halving(u).tobytes()


def test_ppf_outside_the_unit_interval_is_the_halvings_too():
    u = np.array([[-0.5, 1.5, -np.inf], [np.inf, np.nan, 0.25]])
    with np.errstate(all="raise"):
        t = semicircle_ppf(u)
    assert t.shape == u.shape and t.tobytes() == semicircle_ppf_halving(u).tobytes()
    assert semicircle_ppf(0.3).shape == () and semicircle_ppf([]).size == 0


@pytest.mark.parametrize("n", [_LANES - 1, _LANES, _LANES + 1, sato_tate._PPF_LANES + 1])
def test_sampler_chunks_and_prefixes(n):
    full = sample_semicircle(n + 5, 3)
    assert full.tobytes() == semicircle_ppf_halving(philox(3, n + 5)).tobytes()
    assert sample_semicircle(n, 3).tobytes() == full[:n].tobytes()
    assert sample_semicircle(5, 3, n).tobytes() == full[n:].tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="np.longdouble is float64 here")
def test_eps_bounds_the_cdf_error():
    rng = np.random.Generator(np.random.Philox(key=4))
    n = 250_000
    edge = 1.0 - 2.0 ** -rng.uniform(1.0, 40.0, n)  # toward +-1, past the 2^-27 of eps's range
    t = np.concatenate([rng.uniform(-1.0, 1.0, n), edge, -edge, rng.uniform(-1e-3, 1e-3, n)])
    tl = t.astype(np.longdouble)
    F = 0.5 + (np.arcsin(tl) + tl * np.sqrt(1 - tl * tl)) / np.arccos(np.longdouble(-1))
    err = np.abs(sato_tate._cdf_inside(t) - F).astype(np.float64)
    inside = 1.0 - np.abs(t) >= 2.0**-27
    assert inside.sum() > 3 * n and not inside.all()
    assert np.all(err[inside] <= sato_tate._eps(t[inside]))
    assert err.max() <= 2.0**-42


# ----------------------------------------------------------------------
# synthetic eigenvalue data
# ----------------------------------------------------------------------


def test_synth_series_is_exact_and_on_grid(field5):
    E = synth_eigen_series(field5, 3000, 2, 11)
    assert E.field is field5 and E.weight == (2,) and max(E.weight) == 2
    for P, c in E.entries.items():
        assert QUANT_DEN % c.denominator == 0
        assert c * c * P.norm <= 4  # exact rational Hasse check
    assert E.label == "synthetic-d5-X3000-k2-s11"


def test_synth_series_recovers_sampled_coordinates(field5):
    E = synth_eigen_series(field5, 3000, 2, 11)
    primes = enumerate_prime_ideals(field5, 3000)
    coords = sample_semicircle(len(primes), 11)
    for P, b in zip(primes, coords):
        recovered = float(E.entries[P]) * math.sqrt(P.norm) / 2.0
        assert abs(recovered - b) <= 3e-12 * math.sqrt(P.norm)


def scalar_synth_entries(K, X, seed, coords=None):
    """synth_eigen_series's coefficients computed one prime at a time."""
    primes = enumerate_prime_ideals(K, X)
    if coords is None:
        coords = sample_semicircle(len(primes), seed)
    entries = {}
    for P, b in zip(primes, coords):
        q = round(2.0 * float(b) / math.sqrt(P.norm) * QUANT_DEN)
        while q * q * P.norm > 4 * QUANT_DEN * QUANT_DEN:
            q -= 1 if q > 0 else -1
        entries[P] = Fraction(q, QUANT_DEN)
    return entries


@pytest.mark.parametrize("d", [1, 2, 5, 13, 97])
def test_synth_series_matches_scalar_rounding(d):
    K = make_field(d)
    for seed in (0, 7):
        assert synth_eigen_series(K, 30000, 2, seed).entries == scalar_synth_entries(K, 30000, seed)


def test_synth_series_rounds_half_to_even_and_nudges_in_ints(monkeypatch, field5):
    # coordinates that land on q + 1/2 exactly, and on the Hasse bound itself
    primes = enumerate_prime_ideals(field5, 5000)
    coords = np.array([
        (k + 0.5) / QUANT_DEN * math.sqrt(P.norm) / 2.0 if i % 3 else (-1.0) ** i
        for i, (k, P) in enumerate(zip(range(-300, 10**9), primes))
    ])
    monkeypatch.setattr(sato_tate, "sample_semicircle", lambda n, seed, start: coords[start : start + n])
    E = synth_eigen_series(field5, 5000, 2, 0)
    assert E.entries == scalar_synth_entries(field5, 5000, 0, coords)


def test_synth_series_hands_int64_columns_to_the_gate(monkeypatch, field5):
    seen = []
    monkeypatch.setattr(sato_tate, "EigenvalueSeries", lambda *args: seen.append(args[4:6]))
    synth_eigen_series(field5, 3000, 2, 11)
    (num, den), = seen
    assert num.dtype == den.dtype == np.int64 and np.all(den == QUANT_DEN)


def test_simulate_stages_hold_little_past_the_columns_they_return(field5):
    # what simulate runs at d = 5, X = 10^6 (78,510 primes), with the prime table
    # built first: the stages stream in chunks, so their peak is their columns
    T = _prime_table(field5, 10**6)
    tracemalloc.start()
    try:
        E = synth_eigen_series(field5, 10**6, 2, 3)
        survey = SignSurvey(E, 1, x=10**6)
        assert ks_statistic(survey.coords).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = [v for obj in (E, survey) for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert peak - sum(v.nbytes for v in held if v is not T.norm) <= 1.5e6


def test_synth_series_deterministic(field5):
    a = synth_eigen_series(field5, 500, 2, 3)
    b = synth_eigen_series(field5, 500, 2, 3)
    assert a.entries == b.entries
    assert a.entries != synth_eigen_series(field5, 500, 2, 4).entries


def test_synth_series_higher_weight():
    Q = make_field(1)
    E = synth_eigen_series(Q, 200, 6, 8)
    assert max(E.weight) == 6 and all(c * c * P.norm <= 4 for P, c in E.entries.items())


def test_synth_series_nudge_steps_one_grid_point(monkeypatch):
    # B = 1 puts every coefficient on the bound 2/sqrt(N); where rounding to
    # the grid overshoots, the nudge must step back one grid point only
    monkeypatch.setattr(sato_tate, "sample_semicircle", lambda n, seed, start: np.ones(n))
    Q = make_field(1)
    E = synth_eigen_series(Q, 2000, 2, 0)
    assert len(E.entries) == 303
    for P, c in E.entries.items():
        assert c * c * P.norm <= 4
        assert abs(float(c) - 2 / math.sqrt(P.norm)) <= 2e-12


# ----------------------------------------------------------------------
# histogram exports
# ----------------------------------------------------------------------


def test_histogram_rows_cover_interval():
    s = sample_semicircle(20_000, 3)
    rows = histogram_rows(s)
    assert len(rows) == HIST_BINS
    assert rows[0][0] == -1.0 and rows[-1][1] == 1.0
    for (lo, hi, *_), (lo2, _, *_) in zip(rows, rows[1:]):
        assert hi == lo2
    assert sum(r[2] for r in rows) == 20_000
    assert sum(r[3] for r in rows) == pytest.approx(1.0, abs=1e-12)
    assert sum(r[4] for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_histogram_csv_layout():
    text = histogram_csv(sample_semicircle(1000, 1))
    lines = text.strip().split("\n")
    assert lines[0] == HIST_CSV_HEADER
    assert len(lines) == HIST_BINS + 1
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_histogram_svg_markup():
    svg = histogram_svg(sample_semicircle(1000, 1))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == HIST_BINS + 1  # bars plus background
    assert "<polyline" in svg


def test_histogram_empty():
    with pytest.raises(EmptySample):
        histogram_rows([])
