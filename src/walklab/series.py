"""Absorption series of the clean quantum walk, and a ratio-test estimator.

The absorbed amplitude at step t is the degree-t coefficient of a generating
function built from two branch-cut series f(z) and g(z): f·g^(m1−1) for the
initial coin L, g^m1 for R. Both series are odd, f = z·F(z²) and
g = z·G(z²), so the amplitudes are computed in w = z², on half as many
coefficients: one chain of powers G, G², … serves every absorber position of
a table, and each row costs one truncated FFT product. Squaring the
amplitudes gives the per-step absorption probabilities, whose sums yield the
total absorption probability and the average absorbing time. A ratio
(Raabe) test estimator classifies convergence of the associated series from
their exact term ratios.

All series have real coefficients and are truncated at a fixed order; a
truncated product keeps every retained coefficient to within FFT round-off.
The functions work on numpy arrays; only `generating_function` wraps its
row in a `PowerSeries`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
DEFAULT_ORDER = 2 ** 14
# Largest series order a table may ask for. A row at order T holds length-T
# float64 arrays, complex FFT buffers of T/2 + 1 entries and the tail fit's
# matrices: about 95 bytes per unit of order at its peak (a ten-row table at
# 2^20 peaked 96 MB above the interpreter), so about 400 MB at 2^22.
MAX_ORDER = 2 ** 22


@dataclass(frozen=True)
class PowerSeries:
    """Real-coefficient polynomial truncated at a fixed maximum degree.

    coeffs[k] is the coefficient of z^k. A product truncates to the smaller
    operand order and multiplies by direct convolution, so every retained
    coefficient is exact; `generating_function` returns its amplitudes in
    this form.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", np.asarray(self.coeffs, dtype=np.float64)
        )
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ConfigurationError("coefficients must be a nonempty 1D array")

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def coefficient(self, k: int) -> float:
        if not 0 <= k <= self.order:
            raise ConfigurationError(
                f"coefficient index {k} outside truncation order {self.order}"
            )
        return float(self.coeffs[k])

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            full = np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])
            return PowerSeries(full[: n + 1])
        return PowerSeries(self.coeffs * float(other))

    __rmul__ = __mul__


def _sqrt_binomial(n_terms: int) -> np.ndarray:
    """C(1/2, k) for k = 0..n_terms−1: the Taylor coefficients of √(1+x)."""
    k = np.arange(n_terms - 1)
    return np.cumprod(np.concatenate(([1.0], (0.5 - k) / (k + 1))))


def _w_series(n: int) -> tuple[np.ndarray, np.ndarray]:
    """G and F to n coefficients in w = z², with g = z·G(w), f = z·F(w).

    G(w) = −(1 + Σ_{k≥1} C(1/2, k)·w^(2k−1))/√2, and F = G + √2 (from
    f = g + √2·z), which only flips the sign of the constant term.
    """
    g = np.zeros(n)
    g[:1] = -_INV_SQRT2
    g[1::2] = -_sqrt_binomial(n // 2 + 1)[1:] * _INV_SQRT2
    f = g.copy()
    f[:1] = _INV_SQRT2
    return g, f


def _in_z(w_coeffs: np.ndarray, k: int, order: int) -> np.ndarray:
    """Coefficients 0..order of z^k·Q(z²), from Q's coefficients in w."""
    out = np.zeros(order + 1)
    out[k::2] = w_coeffs[: out[k::2].size]
    return out


def _product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of a·b, by FFT (no wrap-around reaches them)."""
    size = 1 << (a.size + b.size - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _amplitude_rows(
    m1s: Sequence[int], initial: str, order: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (m1, amplitudes) once per distinct m1, in order of |m1|.

    amplitudes[t] is the absorbed amplitude at step t = 0..order (up to a
    global phase). For m1 > 0 the row is f·g^(m1−1) = z^m1·F·G^(m1−1) with
    the initial coin L and g^m1 = z^m1·G^m1 with R. A negative m1 is the
    mirrored walk: the absorber sits at |m1| and the coin roles swap, which
    leaves p_t values exact. Every row is checked before any array is made.
    """
    if initial not in ("L", "R"):
        raise ConfigurationError(f"initial coin state must be 'L' or 'R', got {initial!r}")
    if order > MAX_ORDER:
        raise ConfigurationError(
            f"series order {order} is above the memory budget of {MAX_ORDER}"
        )
    for m1 in m1s:  # a lazy range is checked before anything is stored
        if m1 == 0:
            raise ConfigurationError("absorber position must be nonzero")
        if abs(m1) > order:
            raise ConfigurationError(
                f"absorber at {abs(m1)} needs series order >= {abs(m1)}, got {order}"
            )
    # (power k = |m1|, row uses f) -> m1
    rows = {(abs(m1), (m1 > 0) == (initial == "L")): m1 for m1 in m1s}
    n = (order + 1) // 2
    g, f = _w_series(n)
    power = None  # G^(k−1); None stands for G^0 = 1, which needs no product
    for k in range(1, max((k for k, _ in rows), default=0) + 1):
        if (k, True) in rows:
            row = f if power is None else _product(f, power, n)
            yield rows[k, True], _in_z(row, k, order)
        power = g if power is None else _product(g, power, n)
        if (k, False) in rows:
            yield rows[k, False], _in_z(power, k, order)


def generating_function(
    m1: int, initial: str = "L", order: int = DEFAULT_ORDER
) -> PowerSeries:
    """Absorbed-amplitude generating function for an absorber at m1.

    The degree-t coefficient is the amplitude absorbed at step t (up to a
    global phase); its square is the absorption probability p_t. `initial`
    names the initial coin component, "L" or "R". Negative m1 maps to the
    mirrored walk: the absorber sits on the other side and the coin roles
    swap, which leaves p_t values exact.
    """
    ((_, amps),) = _amplitude_rows([m1], initial, order)
    return PowerSeries(amps)


def absorption_probabilities(
    m1: int, initial: str = "L", order: int = DEFAULT_ORDER
) -> np.ndarray:
    """p_t for t = 1..order: squared generating-function coefficients."""
    ((_, amps),) = _amplitude_rows([m1], initial, order)
    return (amps * amps)[1:]


def quantum_absorption_prob(t: int) -> float:
    """Closed-form p_t for the absorber at 2, initial L.

    Nonzero only at t = 4m − 2 (m ≥ 1), where the absorbed amplitude is
    (2m−2)! / (2^{2m−1}·(m−1)!·m!); p_t is its square: 1/4, 1/64, 1/256, ...
    """
    t = int(t)
    if t < 2 or (t + 2) % 4 != 0:
        return 0.0
    m = (t + 2) // 4
    amp = math.comb(2 * m - 2, m - 1) / (2 ** (2 * m - 1) * m)
    return amp * amp


def quantum_avg_time_ratio(m1: int = 2) -> Callable:
    """Term ratio u_m/u_{m+1} of the average-time numerator series
    u_m = t·p_t (t = 4m − 2): 4(m+1)² / ((2m+1)(2m−1)).

    Vectorized over m (m ≥ 1); feeds the Raabe estimator, which finds the
    limit 2 > 1, i.e. convergence. Only the absorber-at-2 series has this
    closed form.
    """
    if m1 != 2:
        raise ConfigurationError(
            "closed-form average-time terms exist only for the absorber at 2"
        )

    def ratio(n):
        m = np.asarray(n, dtype=np.float64)
        return 4 * (m + 1) ** 2 / ((2 * m + 1) * (2 * m - 1))

    return ratio


def _tail_power_law(
    ts: np.ndarray, ps: np.ndarray, order: int
) -> tuple[float, float, int]:
    """Estimate Σ_{t>order} p_t and Σ_{t>order} t·p_t from a power-law tail.

    Fits ln p = ln c − β·ln t over the last decade of support and integrates
    ρ·c·t^(−β) beyond the truncation, with ρ the support density. Returns
    (s0, s1, points), points being the number of fitted p_t; (s0, s1) is
    (0, 0) when the tail is too sparse or decays too slowly to extrapolate.
    """
    window = ts >= order / 8
    peak = float(np.max(ps[window], initial=0.0))
    # keep genuine support only: FFT round-off at the structural zeros sits
    # 24-30 decades below the peak (p_t/peak <= 1.4e-28 at order 2^14,
    # 8.6e-25 at 2^20)
    window &= ps > peak * 1e-12
    points = int(np.count_nonzero(window))
    if points < 8:
        return 0.0, 0.0, points
    t_w = ts[window]
    p_w = ps[window]
    beta, log_c = np.polyfit(np.log(t_w), np.log(p_w), 1)
    beta = -beta
    if beta <= 2.05:
        return 0.0, 0.0, points
    density = (t_w.size - 1) / (t_w[-1] - t_w[0])
    c = math.exp(log_c)
    s0 = density * c * order ** (1.0 - beta) / (beta - 1.0)
    s1 = density * c * order ** (2.0 - beta) / (beta - 2.0)
    return s0, s1, points


def _summary(amps: np.ndarray, order: int, tail: str) -> tuple[float, float]:
    ps = (amps * amps)[1:]
    ts = np.arange(1, order + 1, dtype=np.float64)
    s0 = float(np.sum(ps))
    s1 = float(np.sum(ts * ps))
    if tail == "power_law":
        extra0, extra1, _ = _tail_power_law(ts, ps, order)
        s0 += extra0
        s1 += extra1
    if s0 <= 0.0:
        raise NumericalError(f"no absorption mass within order {order}")
    return s0, s1 / s0


def absorption_summaries(
    m1s: Sequence[int],
    initial: str = "L",
    order: int = DEFAULT_ORDER,
    tail: str = "power_law",
) -> list[tuple[float, float]]:
    """(P, t_a) for each absorber position in m1s, from one chain of powers:
    the total absorption probability P = Σ p_t and the average absorbing
    time t_a = Σ t·p_t / Σ p_t, both tail-corrected."""
    if tail not in ("power_law", "none"):
        raise ConfigurationError(f"unknown tail mode {tail!r}")
    done = {m1: _summary(amps, order, tail)
            for m1, amps in _amplitude_rows(m1s, initial, order)}
    return [done[m1] for m1 in m1s]


def absorption_summary(
    m1: int,
    initial: str = "L",
    order: int = DEFAULT_ORDER,
    tail: str = "power_law",
) -> tuple[float, float]:
    """(P, t_a) for one absorber position; see absorption_summaries."""
    return absorption_summaries([m1], initial, order, tail)[0]


# Raabe limits within RAABE_BAND of 1 are inconclusive; E_n is sampled at
# RAABE_POINTS_PER_OCTAVE geometric grid points per octave of n. Past
# RAABE_MAX_N float64 no longer resolves u_n/u_{n+1} − 1 ≈ E/n (at 1e10 the
# limits are still within 6e-7 of 2 and 1/2).
RAABE_BAND = 0.05
RAABE_MAX_N = 10 ** 10
RAABE_POINTS_PER_OCTAVE = 8


@dataclass
class RaabeReport:
    """Outcome of the ratio-test (Raabe) convergence estimate."""

    limit: float
    verdict: str  # "converges" | "diverges" | "inconclusive"
    n_max: int
    band: float
    samples: list  # (n, E_n) pairs on the evaluation grid


def raabe_estimate(ratio: Callable, n_max: int = 10 ** 6) -> RaabeReport:
    """Estimate E = lim n·(u_n/u_{n+1} − 1) for a positive series u_n from
    its term ratio, `ratio(n)` = u_n/u_{n+1} (vectorized over n).

    E > 1 means Σu_n converges, E < 1 diverges; |E − 1| < RAABE_BAND is
    reported inconclusive. E_n is evaluated on a geometric grid up to n_max
    (16..RAABE_MAX_N) and extrapolated by a least-squares fit of
    E_n = E + c/n over the top two octaves, which cancels the leading
    finite-n bias.
    """
    if not 16 <= n_max <= RAABE_MAX_N:
        raise ConfigurationError(
            f"n_max must be in 16..{RAABE_MAX_N}, got {n_max}")
    octaves = int(math.floor(math.log2(n_max / 4)))
    scales = 2.0 ** (np.arange(octaves * RAABE_POINTS_PER_OCTAVE + 1)
                     / RAABE_POINTS_PER_OCTAVE)
    ns = np.unique(np.round(n_max / scales).astype(np.int64))
    ns = ns[ns >= 4]
    r = np.asarray(ratio(ns), dtype=np.float64)
    bad = np.nonzero(~(r > 0))[0]
    if bad.size:
        raise NumericalError(
            f"series term ratio at n = {int(ns[bad[0]])} is not positive"
        )
    e_samples = ns * (r - 1.0)
    top = ns >= n_max / 4
    if np.count_nonzero(top) >= 3:
        slope_fit = np.polyfit(1.0 / ns[top], e_samples[top], 1)
        limit = float(slope_fit[1])
    else:
        limit = float(e_samples[-1])
    if limit > 1.0 + RAABE_BAND:
        verdict = "converges"
    elif limit < 1.0 - RAABE_BAND:
        verdict = "diverges"
    else:
        verdict = "inconclusive"
    return RaabeReport(
        limit=limit,
        verdict=verdict,
        n_max=int(n_max),
        band=RAABE_BAND,
        samples=list(zip(ns.tolist(), e_samples.tolist())),
    )
