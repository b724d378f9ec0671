"""Semicircle measure utilities and deterministic synthetic data.

The measure is mu = (2/pi) sqrt(1 - t^2) dt on [-1, 1], with distribution
function

    F(t) = 1/2 + (arcsin t + t sqrt(1 - t^2)) / pi,

so F(-1) = 0, F(0) = 1/2, F(1) = 1.  This module provides closed-form
interval masses, the one-sample Kolmogorov-Smirnov distance against F,
an inverse-CDF sampler driven by the counter-based Philox generator
(reproducible and splittable by sample index), and a synthetic
eigenvalue-series builder that feeds the sign pipeline end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample
from .field_arith import QuadField, _prime_table
from .sign_pipeline import EigenvalueSeries

# ----------------------------------------------------------------------
# measure
# ----------------------------------------------------------------------


def semicircle_cdf(t: float) -> float:
    """F(t) for the semicircle measure; clamps t into [-1, 1]."""
    t = min(1.0, max(-1.0, float(t)))
    return 0.5 + (math.asin(t) + t * math.sqrt(1.0 - t * t)) / math.pi


def semicircle_mass(a: float, b: float) -> float:
    """mu([a, b]) in closed form; inputs are clamped to [-1, 1]."""
    a = min(1.0, max(-1.0, float(a)))
    b = min(1.0, max(-1.0, float(b)))
    if a > b:
        raise ValueError(f"interval endpoints out of order: {a} > {b}")
    return semicircle_cdf(b) - semicircle_cdf(a)


def _cdf_vec(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, -1.0, 1.0)
    return 0.5 + (np.arcsin(t) + t * np.sqrt(1.0 - t * t)) / np.pi


# ----------------------------------------------------------------------
# Kolmogorov-Smirnov
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KsReport:
    n: int
    statistic: float
    threshold: float
    passed: bool


def ks_statistic(samples, coefficient: float = 1.63) -> KsReport:
    """One-sample KS distance of `samples` against the semicircle CDF.

    D_n = max_i max(i/n - F(s_i), F(s_i) - (i-1)/n) on the sorted sample.
    The pass threshold is coefficient/sqrt(n); the default 1.63 is the
    asymptotic point at significance level about 0.01.
    """
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    if n == 0:
        raise EmptySample("KS statistic of an empty sample")
    F = _cdf_vec(s)
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = float(np.max(i / n - F))
    d_minus = float(np.max(F - (i - 1.0) / n))
    stat = max(d_plus, d_minus)
    threshold = coefficient / math.sqrt(n)
    return KsReport(n=n, statistic=stat, threshold=threshold, passed=stat <= threshold)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def semicircle_ppf(u) -> np.ndarray:
    """Inverse CDF by interval halving to below 1e-12 (64 halvings of [-1, 1])."""
    u = np.asarray(u, dtype=np.float64)
    lo = np.full_like(u, -1.0)
    hi = np.ones_like(u)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _cdf_vec(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sample_semicircle(n: int, seed: int) -> np.ndarray:
    """n deterministic semicircle draws for this seed.

    The uniforms come from the counter-based Philox stream keyed by seed,
    so draw i depends only on (seed, i) and a longer run extends a
    shorter one.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return semicircle_ppf(np.random.Generator(np.random.Philox(key=seed)).random(n))


# ----------------------------------------------------------------------
# synthetic eigenvalue data
# ----------------------------------------------------------------------

QUANT_DEN = 10**12


def synth_eigen_series(K: QuadField, X: int, k0: int, seed: int) -> EigenvalueSeries:
    """Synthetic series with B(P) drawn iid from the semicircle measure.

    Primes are enumerated in canonical (norm, p, label) order and sample i
    is assigned to prime i, so the output is reproducible and extendable.
    Coefficients c(P) = 2 B(P) N(P)^{-1/2} are rounded to the grid
    1/QUANT_DEN, then nudged toward zero one grid step at a time if
    rounding pushed them over the Hasse bound; the grid integers and
    QUANT_DEN are the series' num and den columns.
    """
    T = _prime_table(K, X)
    coords = sample_semicircle(len(T.norm), seed)
    # round(2.0 * b / math.sqrt(N) * QUANT_DEN), step for step; rint is half-even
    qf = np.rint(2.0 * coords / np.sqrt(T.norm.astype(np.float64)) * QUANT_DEN)
    qs = qf.astype(np.int64).tolist()
    bound = 4 * QUANT_DEN * QUANT_DEN
    # the float q^2 N is within a factor 1 +- 2^-52 of the exact one, so every
    # lane over the bound is among these, where Python ints decide
    for i in np.flatnonzero(qf * qf * T.norm > bound * (1 - 2.0**-40)).tolist():
        q, N = qs[i], int(T.norm[i])
        while q * q * N > bound:  # c^2 N > 4 with c = q / QUANT_DEN
            q -= 1 if q > 0 else -1
        qs[i] = q
    name = f"synthetic-d{K.d}-X{X}-k{k0}-s{seed}"
    return EigenvalueSeries(K, (k0,), name, X, qs, [QUANT_DEN] * len(qs))


# ----------------------------------------------------------------------
# histogram exports
# ----------------------------------------------------------------------

HIST_BINS = 64
HIST_CSV_HEADER = "bin_lo,bin_hi,count,frequency,expected_mass"


def histogram_rows(samples) -> list[tuple[float, float, int, float, float]]:
    """64 equal-width bins on [-1, 1] with observed and predicted weight."""
    s = np.asarray(samples, dtype=np.float64)
    if s.size == 0:
        raise EmptySample("histogram of an empty sample")
    edges = np.linspace(-1.0, 1.0, HIST_BINS + 1)
    counts, _ = np.histogram(s, bins=edges)
    rows = []
    for i in range(HIST_BINS):
        lo, hi = float(edges[i]), float(edges[i + 1])
        rows.append(
            (lo, hi, int(counts[i]), counts[i] / s.size, semicircle_mass(lo, hi))
        )
    return rows


def histogram_csv(samples) -> str:
    lines = [HIST_CSV_HEADER]
    for lo, hi, count, freq, mass in histogram_rows(samples):
        lines.append(f"{lo:.6f},{hi:.6f},{count},{freq:.12f},{mass:.12f}")
    return "\n".join(lines) + "\n"


def histogram_svg(samples) -> str:
    """Self-contained 640x360 SVG: observed frequency bars with the density curve."""
    rows = histogram_rows(samples)
    width, height = 640, 360
    margin, plot_w, plot_h = 40, width - 80, height - 80
    peak = max(max(r[3] for r in rows), max(r[4] for r in rows)) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for lo, hi, _, freq, _ in rows:
        x = margin + (lo + 1.0) / 2.0 * plot_w
        w = (hi - lo) / 2.0 * plot_w
        h = freq / peak * plot_h
        parts.append(
            f'<rect x="{x:.2f}" y="{margin + plot_h - h:.2f}" width="{w:.2f}" '
            f'height="{h:.2f}" fill="#7aa6c2" stroke="#365f7d" stroke-width="0.5"/>'
        )
    curve = []
    for lo, hi, _, _, mass in rows:
        cx = margin + ((lo + hi) / 2.0 + 1.0) / 2.0 * plot_w
        cy = margin + plot_h - mass / peak * plot_h
        curve.append(f"{cx:.2f},{cy:.2f}")
    parts.append(
        f'<polyline points="{" ".join(curve)}" fill="none" stroke="#c0392b" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{margin + plot_w}" '
        f'y2="{margin + plot_h}" stroke="black" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
