"""Semicircle measure utilities and deterministic synthetic data.

The measure is mu = (2/pi) sqrt(1 - t^2) dt on [-1, 1], with distribution
function

    F(t) = 1/2 + (arcsin t + t sqrt(1 - t^2)) / pi,

so F(-1) = 0, F(0) = 1/2, F(1) = 1.  This module provides closed-form
interval masses, the one-sample Kolmogorov-Smirnov distance against F,
an inverse-CDF sampler driven by the counter-based Philox generator
(reproducible and splittable by sample index), and a synthetic
eigenvalue-series builder that feeds the sign pipeline end to end.

The pipeline runs _LANES draws at a time: the builder samples, rounds and
nudges each chunk into its one int64 column, and the KS distance sorts
once and takes D+ and D- per chunk.  So Philox, the inverse CDF, the
rounding and the KS differences hold no array as long as the prime table:
only the columns a stage returns and the KS sort are that long.  Draw i is
the same bits in any chunk, because Philox is counter-based.

The Philox4x64-10 stream is computed here in uint64 numpy lanes.  Its
uniforms are the bits numpy's Generator(Philox(key=seed)).random(n) gives,
and numpy.random, whose import loads OpenSSL through secrets and hashlib
(~16 ms and ~5 MB max RSS on a 2-vCPU VM), is never imported.

The sampler's value at u is defined by 64 halvings of [-1, 1] against
the float F.  It is computed from the root of Kepler's equation
E - sin E = 2 pi u (E = 2 arcsin t + pi) and a window around that root
whose float-error bound is proven below, so only the halvings inside
the window evaluate F: the same bits at ~14 evaluations per draw, not 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample
from .field_arith import QuadField, _LANES, _prime_table
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
    return _cdf_inside(np.clip(t, -1.0, 1.0))


def _cdf_inside(t: np.ndarray) -> np.ndarray:
    """F at t in [-1, 1]: the sampler's decision function, bit for bit."""
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
    d = np.full(2, -np.inf)  # D+ and D-, taken _LANES sorted draws at a time
    for lo in range(0, n, _LANES):
        F = _cdf_vec(s[lo : lo + _LANES])
        i = np.arange(lo + 1, lo + len(F) + 1, dtype=np.float64)
        np.maximum(d, (np.max(i / n - F), np.max(F - (i - 1.0) / n)), out=d)
    stat = float(d.max())
    threshold = coefficient / math.sqrt(n)
    return KsReport(n=n, statistic=stat, threshold=threshold, passed=stat <= threshold)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


# |_cdf_inside(t) - F(t)| <= eps(t) = 2^-51 + 2^-55 / sqrt(s), s = 1 - t^2,
# wherever 1 - |t| >= 2^-27.  Counted in units of r = 2^-53, step by step:
# 1 - t*t is off by at most 0.75r (Sterbenz makes the subtraction exact once
# t*t >= 1/2), so its square root by 0.375r (1 + 2^-25) / sqrt(s), plus r/2
# for rounding the root; times t adds r/2, arcsin one ulp (2r) and the sum r.
# Divided by pi, with 0.5r + 0.18r for dividing by the double pi and 0.5r for
# adding 1/2, that is at most 2.46r + 0.12r / sqrt(s).  The constants round
# it up to 4r + r / (4 sqrt(s)); the spare 1.5r covers the window tests.  On
# that range F + eps and F - eps both increase (their slopes are (2/pi)
# sqrt(s) -+ 2^-55 t s^-1.5, and s >= 2^-27), so a window [a, b] with
# _cdf_inside(a) + 2 eps(a) < u <= _cdf_inside(b) - 2 eps(b) has every t <= a
# below u and every t >= b at or above it.  Within 2^-27 of +-1 the error is
# at most 2^-42 and F is within 2^-41 of 0 or 1, which no window inside
# _EDGE leaves in doubt.
_EPS0, _EPS1 = 2.0**-51, 2.0**-55
_EDGE = 1.0 - 2.0**-20
_WINDOW = 3.0  # the half-width of the window, in units of eps / F'
_PPF_LANES = 2 * _LANES  # draws per chunk: the temporaries stay small


def _eps(t: np.ndarray) -> np.ndarray:
    return _EPS0 + _EPS1 / np.sqrt(1.0 - t * t)


def _jump(u: np.ndarray):
    """Per draw: lo and hi once the halvings a certified window decides are done, the
    halvings left, and whether the window is certified.

    The root of F(t) = u comes from Kepler's equation E - sin E = 2 pi v at
    eccentricity 1, v = min(u, 1 - u) and t = -cos(E / 2): the cube-root
    starter E = (12 pi v)^(1/3), then two Halley steps and one Newton step on
    _cdf_inside.  The first j halvings of [-1, 1] are exact dyadic arithmetic
    while j <= 53, and a window strictly inside a cell of width 2^(1-j)
    decides all j, so (lo, hi) is that cell for the largest such j.  With
    2^(e-1) a lower bound on |mid|, lo and hi are adjacent doubles after
    54 - e halvings (or meet sooner), so mid rounds to one of them, which is
    then the result whichever way the halvings go: a draw stops there, or
    at 64.
    """
    w = np.clip(u, 0.0, 1.0)
    v = np.maximum(np.minimum(w, 1.0 - w), 2.0**-40)
    r = np.copysign(np.cos(0.5 * np.cbrt(12.0 * np.pi * v)), w - 0.5)
    for step in range(3):
        d = (2.0 / np.pi) * np.sqrt(1.0 - r * r)  # F'(r)
        f = _cdf_inside(r) - w
        r = r - (f / d if step == 2 else 2.0 * f * d / (2.0 * d * d + f * (4.0 / np.pi**2) * r / d))
    m = _WINDOW * _eps(r) / d
    a, b = r - m, r + m
    ok = (np.abs(a) <= _EDGE) & (np.abs(b) <= _EDGE)
    a[~ok] = b[~ok] = 0.5
    ok &= (_cdf_inside(a) + 2.0 * _eps(a) < u) & (_cdf_inside(b) - 2.0 * _eps(b) >= u)
    # a and b on the grid of 2^-62 from -1, rounded outward past the error of a + 1
    A = ((a + 1.0) * 2.0**62).astype(np.int64) - 513
    B = ((b + 1.0) * 2.0**62).astype(np.int64) + 513
    k = np.clip(np.frexp((A - 1) ^ B)[1], 10, 63)  # the cell is 2^k grid steps wide
    lo = -1.0 + ((B >> k) << k) * 2.0**-62
    e = np.frexp(np.maximum(np.maximum(a, -b) - 2.0**-30, 2.0**-60))[1]
    return lo, lo + np.ldexp(1.0, k - 62), np.minimum(54 - e, 64) - (63 - k), ok


def _halve(u: np.ndarray, lo: np.ndarray, hi: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(lo + hi) / 2 after steps[i] more halvings of [lo[i], hi[i]] toward u[i].

    Draws run longest first, so the draws still halving are a prefix.  The
    update has no branch: a halving that goes up sets lo = max(lo, mid) and
    hi = min(hi, mid + 4), one that goes down lo = max(lo, mid - 4) and
    hi = min(hi, mid), and each keeps the bits of mid, lo and hi.
    """
    order = np.argsort(-steps.astype(np.int8), kind="stable")
    u, lo, hi, steps = u[order], lo[order], hi[order], steps[order]
    for n in np.searchsorted(-steps, -np.arange(steps.max(initial=0)), side="left").tolist():
        low, high = lo[:n], hi[:n]
        mid = 0.5 * (low + high)
        up = 4.0 * (_cdf_inside(mid) < u[:n])
        np.maximum(low, mid - (4.0 - up), out=low)
        np.minimum(high, mid + up, out=high)
    out = np.empty_like(u)
    out[order] = 0.5 * (lo + hi)
    return out


def semicircle_ppf(u) -> np.ndarray:
    """Inverse CDF: the midpoint of [lo, hi] after 64 halvings of [-1, 1].

    Each halving keeps the upper half where _cdf_inside(mid) < u, so the
    result is within 2^-62 of F^-1(u) (to the rounding of mid).  _jump
    certifies a window around the root per draw and skips every halving
    whose answer it implies; _halve runs the rest, so the bits are those of
    all 64 halvings at ~14 evaluations per draw.  Draws without a
    certified window (u within ~1e-9 of 0 or 1) run all 64, in one batch.
    """
    u = np.asarray(u, dtype=np.float64)
    flat, out, rest = u.ravel(), np.empty(u.size), [np.empty(0, dtype=np.intp)]
    for lo in range(0, u.size, _PPF_LANES):
        v = flat[lo : lo + _PPF_LANES]
        a, b, steps, ok = _jump(v)
        out[lo : lo + len(v)][ok] = _halve(v[ok], a[ok], b[ok], steps[ok])
        rest.append(lo + np.flatnonzero(~ok))
    rest = np.concatenate(rest)
    n = len(rest)
    out[rest] = _halve(flat[rest], np.full(n, -1.0), np.ones(n), np.full(n, 64))
    return out.reshape(u.shape)


# Philox4x64-10's multipliers and the Weyl constants that bump its key
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the 128-bit product m * x, from 32-bit halves."""
    m0, m1, x0, x1 = m & 0xFFFFFFFF, m >> 32, x & 0xFFFFFFFF, x >> 32
    t = m1 * x0 + ((m0 * x0) >> 32)
    u = m0 * x1 + (t & 0xFFFFFFFF)
    return m * x, m1 * x1 + (t >> 32) + (u >> 32)


def _philox_uniforms(n: int, seed: int, start: int = 0) -> np.ndarray:
    """numpy's Generator(Philox(key=seed)).random(start + n)[start:], bit for bit,
    without numpy.random.

    Philox4x64-10 (Salmon et al., SC 2011) in uint64 lanes: the key is the
    low and high word of seed, block b encrypts the counter (b + 1, 0, 0, 0)
    and yields its four words in order, and each word x is the double
    (x >> 11) 2^-53.  Only the blocks that hold draws start to start + n - 1
    are encrypted, so a stream read in consecutive pieces is the same bits.
    """
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2^128), got {seed}")
    c0 = np.arange(start // 4 + 1, -(-(start + n) // 4) + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2**64)
        k1 = np.uint64((seed // 2**64 + r * _PHILOX_W[1]) % 2**64)
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=1).ravel()[start % 4 : start % 4 + n]
    return (words >> 11).astype(np.float64) * 2.0**-53


def sample_semicircle(n: int, seed: int, start: int = 0) -> np.ndarray:
    """Draws start to start + n - 1 of the deterministic semicircle sequence for this seed.

    The uniforms come from the counter-based Philox stream keyed by seed,
    so draw i depends only on (seed, i): a longer run extends a shorter
    one, and a run read in pieces is the same bits.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return semicircle_ppf(_philox_uniforms(n, seed, start))


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
    QUANT_DEN are the series' num and den columns.  The draws are sampled,
    rounded and nudged _LANES primes at a time, straight into the num
    column, and den is one QUANT_DEN read as a column.
    """
    T = _prime_table(K, X)
    qs = np.empty(len(T.norm), dtype=np.int64)
    bound = 4 * QUANT_DEN * QUANT_DEN
    for lo in range(0, len(qs), _LANES):
        N = T.norm[lo : lo + _LANES]
        coords = sample_semicircle(len(N), seed, lo)
        # round(2.0 * b / math.sqrt(N) * QUANT_DEN), step for step; rint is half-even
        qf = np.rint(2.0 * coords / np.sqrt(N.astype(np.float64)) * QUANT_DEN)
        out = qs[lo : lo + len(N)]
        out[:] = qf
        # the float q^2 N is within a factor 1 +- 2^-52 of the exact one, so every
        # lane over the bound is among these, where Python ints decide
        for i in np.flatnonzero(qf * qf * N > bound * (1 - 2.0**-40)).tolist():
            q, n = int(out[i]), int(N[i])
            while q * q * n > bound:  # c^2 N > 4 with c = q / QUANT_DEN
                q -= 1 if q > 0 else -1
            out[i] = q
    name = f"synthetic-d{K.d}-X{X}-k{k0}-s{seed}"
    return EigenvalueSeries(K, (k0,), name, X, qs, np.broadcast_to(np.int64(QUANT_DEN), len(qs)))


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
