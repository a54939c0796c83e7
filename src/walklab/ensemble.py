"""Disorder ensembles: averaged absorbing times, averaged spreading, fits.

Realization i of an ensemble walks with step lengths drawn from the derived
seed child_seed(master_seed, i), so results are reproducible. All
realizations run as the rows of one batched walk, split into blocks only
to bound memory; averages are reduced in fixed realization-index order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .disorder import DisorderSpec, child_seed, sample_realization
from .engine import SITE_BYTES, AbsorptionRecord, WalkConfig, run_walk
from .errors import ConfigurationError, NoAbsorptionError, NumericalError
from .series import MAX_ARRAY_BYTES

# The rows of a block share one window, which at its widest holds
# rows · C · itemsize · (1 + 2·max Σl) bytes for C channels per site. Blocks
# are sized to keep that under BLOCK_BYTES (a single row may exceed it); a
# step briefly holds a few such windows.
BLOCK_BYTES = 2 ** 18


@dataclass(frozen=True)
class EnsembleConfig:
    """A walk template plus ensemble size, disorder, and seeding.

    With disorder, realization i runs the template with step lengths drawn
    from the seed child_seed(master_seed, i); without, every realization
    runs the template as it is.
    """

    walk: WalkConfig
    realizations: int
    master_seed: int = 1
    disorder: Optional[DisorderSpec] = None

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ConfigurationError(
                f"realizations must be >= 1, got {self.realizations}"
            )


@dataclass
class AveragedCurve:
    """Pointwise disorder average with per-point spread and coverage."""

    abscissa: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    realization_count: int
    included: np.ndarray  # realizations contributing per point
    label: str = ""

    @property
    def excluded(self) -> np.ndarray:
        return self.realization_count - self.included


@dataclass
class FitResult:
    """Least-squares power-law fit ln(value) = alpha·ln(t) + intercept."""

    alpha: float
    intercept: float
    ci95_halfwidth: float
    residual_rms: float
    fit_range: tuple
    n_points: int


def run_ensemble(
    config: EnsembleConfig, sigma_times: Optional[Iterable[int]] = None
) -> tuple[np.ndarray, np.ndarray]:
    """All realizations' absorption and sigma curves, in index order.

    Returns (absorbed, sigma), each shaped (realizations, steps). σ is NaN
    after a realization lost all its mass and at steps outside
    `sigma_times` (default: every step); with `sigma_times` empty no σ
    matrix is built and sigma is None. Without disorder one walk stands
    for every realization. A (realizations × steps) matrix beyond
    MAX_ARRAY_BYTES is refused before anything is sampled.
    """
    walk, count = config.walk, config.realizations
    nbytes = count * walk.steps * 8  # one 8-byte value per realization and step
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigurationError(
            f"{count} realizations × {walk.steps} steps need {nbytes} bytes per "
            f"matrix, above the budget of {MAX_ARRAY_BYTES}"
        )
    blocks = [(slice(None), walk)]
    if config.disorder is not None:
        lengths = np.empty((count, walk.steps), dtype=np.int64)
        for i, row in enumerate(lengths):
            row[:] = sample_realization(config.disorder, walk.steps,
                                        child_seed(config.master_seed, i)).lengths
        widest = 1 + 2 * int(lengths.sum(axis=1).max())
        size = max(1, BLOCK_BYTES // (SITE_BYTES[walk.engine] * widest))
        blocks = [(slice(i, i + size), replace(walk, step_lengths=lengths[i:i + size]))
                  for i in range(0, count, size)]
    times = None if sigma_times is None else set(sigma_times)
    absorbed = np.zeros((count, walk.steps))
    sigma = None if times == set() else np.full((count, walk.steps), np.nan)
    for rows, block in blocks:
        result = run_walk(block, times)
        absorbed[rows, :result.record.horizon] = result.record.per_step
        if sigma is not None:
            sigma[rows, :result.record.horizon] = result.sigma
    return absorbed, sigma


def finite_horizon_avg_time(record: AbsorptionRecord, n: int) -> float:
    """Weighted average absorbing time Σ_{t≤n} t·p_t / Σ_{t≤n} p_t."""
    if n < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {n}")
    upto = min(n, record.horizon)
    p = record.per_step[:upto]
    den = float(np.sum(p))
    if den <= 0.0:
        raise NoAbsorptionError(f"no absorption within horizon {n}")
    ts = np.arange(1, upto + 1, dtype=np.float64)
    return float(np.sum(ts * p)) / den


def _horizon_ratios(absorbed: np.ndarray, horizons: np.ndarray) -> np.ndarray:
    """Per-realization t_a^(n) at each horizon; NaN where nothing absorbed.

    Overwrites `absorbed` (with its running sums): the matrix may be large.
    The result is in F order: each horizon's column is contiguous, which
    fixes the (pairwise) order in which `_nan_average` sums it.
    """
    steps = absorbed.shape[1]
    num = np.multiply(absorbed, np.arange(1, steps + 1, dtype=np.float64), order="F")
    np.cumsum(num, axis=1, out=num)
    den = np.cumsum(absorbed, axis=1, out=absorbed)
    if horizons.size < steps:  # distinct steps in 1..steps: else every step
        num, den = num[:, horizons - 1], den[:, horizons - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.divide(num, den, out=num)
    ratios[den <= 0.0] = np.nan
    return ratios


def _nan_average(matrix: np.ndarray, abscissa: np.ndarray, realizations: int,
                 label: str, error: type, empty_message: str) -> AveragedCurve:
    """Columnwise mean/stderr/count ignoring NaN entries, as a curve over
    `abscissa`; raises `error` if some column has no entry at all.

    Overwrites `matrix`: the matrix may be large.
    """
    missing = np.isnan(matrix)
    included = matrix.shape[0] - missing.sum(axis=0)
    if np.any(included == 0):
        raise error(f"{empty_message} {abscissa[included == 0].tolist()}")
    matrix[missing] = 0.0
    means = matrix.sum(axis=0) / included
    matrix -= means
    matrix *= matrix
    matrix[missing] = 0.0
    spread = np.sqrt(matrix.sum(axis=0) / np.maximum(included - 1, 1))
    stderr = np.where(included > 1, spread, 0.0) / np.sqrt(included)
    return AveragedCurve(abscissa=abscissa, values=means, stderr=stderr,
                         realization_count=realizations, included=included,
                         label=label)


def disorder_avg_absorb_time(
    config: EnsembleConfig, horizons: Sequence[int]
) -> AveragedCurve:
    """⟨t_a^(n)⟩ across realizations at each horizon n.

    Realizations with zero absorption by a horizon are excluded from that
    horizon's average; the per-point inclusion count is reported. Every
    horizon must keep at least one realization.
    """
    steps = config.walk.steps
    if config.walk.absorber is None:
        raise ConfigurationError("absorbing-time averages need an absorber")
    hs = np.asarray(sorted(set(int(h) for h in horizons)), dtype=np.int64)
    if hs.size == 0:
        raise ConfigurationError("at least one horizon is required")
    if hs[0] < 1 or hs[-1] > steps:
        raise ConfigurationError(
            f"horizons must lie in 1..{steps}, got {hs[0]}..{hs[-1]}"
        )
    ratios = _horizon_ratios(run_ensemble(config, sigma_times=())[0], hs)
    return _nan_average(ratios, hs, config.realizations,
                        "avg_absorb_time", NoAbsorptionError,
                        "no realization absorbed anything by horizon(s)")


def disorder_avg_sigma(
    config: EnsembleConfig, t_grid: Optional[Sequence[int]] = None
) -> AveragedCurve:
    """⟨σ(t)⟩ across realizations at each t of `t_grid` (default: every
    step); σ is the surviving-mass (renormalized) spread whenever an
    absorber is present, and is computed only at those t."""
    steps = config.walk.steps
    if t_grid is None:
        t_grid = range(1, steps + 1)
    ts = np.asarray(sorted(set(int(t) for t in t_grid)), dtype=np.int64)
    if ts.size == 0 or ts[0] < 1 or ts[-1] > steps:
        raise ConfigurationError(f"t grid must lie within 1..{steps}")
    _, sigma = run_ensemble(config, sigma_times=ts.tolist())
    return _nan_average(sigma[:, ts - 1], ts, config.realizations, "avg_sigma",
                        NumericalError, "no surviving mass at t =")


def check_fit_range(t_lo: int, t_hi: int, points: int) -> None:
    """Raise unless [t_lo, t_hi], holding `points` curve points, can be fit."""
    if t_lo >= t_hi:
        raise ConfigurationError(
            f"fit range needs t_lo < t_hi, got [{t_lo}, {t_hi}]"
        )
    if points < 3:
        raise ConfigurationError(
            f"fit range [{t_lo}, {t_hi}] covers fewer than 3 curve points"
        )


def fit_exponent(curve: AveragedCurve, t_lo: int = 20, t_hi: int = 80) -> FitResult:
    """OLS fit of ln(value) against ln(t) over integer t in [t_lo, t_hi]."""
    mask = (curve.abscissa >= t_lo) & (curve.abscissa <= t_hi)
    check_fit_range(t_lo, t_hi, np.count_nonzero(mask))
    t_sel = curve.abscissa[mask].astype(np.float64)
    v_sel = curve.values[mask]
    bad = np.nonzero(~(v_sel > 0.0))[0]
    if bad.size:
        raise NumericalError(
            f"curve value at t = {int(t_sel[bad[0]])} is not positive"
        )
    x = np.log(t_sel)
    y = np.log(v_sel)
    n = x.size
    x_bar = float(np.mean(x))
    y_bar = float(np.mean(y))
    sxx = float(np.sum((x - x_bar) ** 2))
    alpha = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    intercept = y_bar - alpha * x_bar
    resid = y - (alpha * x + intercept)
    rss = float(np.sum(resid ** 2))
    residual_rms = math.sqrt(rss / n)
    if n > 2:
        # imported on use: scipy would dominate the CLI's start-up
        from scipy.special import stdtrit

        slope_se = math.sqrt(rss / (n - 2) / sxx)
        ci95 = float(stdtrit(n - 2, 0.975)) * slope_se
    else:
        ci95 = float("inf")
    return FitResult(
        alpha=alpha,
        intercept=intercept,
        ci95_halfwidth=ci95,
        residual_rms=residual_rms,
        fit_range=(int(t_lo), int(t_hi)),
        n_points=n,
    )
