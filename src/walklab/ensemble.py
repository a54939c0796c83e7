"""Disorder ensembles: averaged absorbing times, averaged spreading, fits.

Each realization i of an ensemble runs one full walk whose step lengths are
drawn with the derived seed mix(master_seed, i), so results are reproducible
and independent of worker count or execution order. Averages are reduced in
fixed realization-index order and are bit-identical across worker settings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import Optional, Sequence

import numpy as np
from scipy.special import stdtrit

from .disorder import DisorderSpec, child_seed, sample_realization
from .engine import AbsorptionRecord, WalkConfig, run_walk
from .errors import ConfigurationError, NoAbsorptionError, NumericalError


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
    workers: int = 1

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ConfigurationError(
                f"realizations must be >= 1, got {self.realizations}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")


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


def _run_realization(config: EnsembleConfig, index: int) -> tuple:
    """One walk; returns (per-step absorption, per-step sigma), padded."""
    walk = config.walk
    if config.disorder is not None:
        seed = child_seed(config.master_seed, index)
        lengths = sample_realization(config.disorder, walk.steps, seed).lengths
        walk = replace(walk, step_lengths=lengths)
    result = run_walk(walk)
    p = np.zeros(walk.steps)
    p[: result.record.horizon] = result.record.per_step
    s = np.full(walk.steps, np.nan)
    s[: result.sigma.size] = result.sigma
    return p, s


def _worker(args: tuple) -> tuple:
    return _run_realization(*args)


def run_ensemble(config: EnsembleConfig) -> tuple[np.ndarray, np.ndarray]:
    """All realizations' absorption and sigma curves, in index order.

    Returns (absorbed, sigma), each shaped (realizations, steps).
    """
    jobs = [(config, i) for i in range(config.realizations)]
    if config.workers > 1 and config.realizations > 1:
        with Pool(processes=config.workers) as pool:
            rows = pool.map(_worker, jobs)
    else:
        rows = [_run_realization(config, i) for i in range(config.realizations)]
    absorbed = np.stack([r[0] for r in rows])
    sigma = np.stack([r[1] for r in rows])
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
    """Per-realization t_a^(n) at each horizon; NaN where nothing absorbed."""
    steps = absorbed.shape[1]
    ts = np.arange(1, steps + 1, dtype=np.float64)
    num = np.cumsum(absorbed * ts, axis=1)
    den = np.cumsum(absorbed, axis=1)
    cols = horizons - 1
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = num[:, cols] / den[:, cols]
    ratios[den[:, cols] <= 0.0] = np.nan
    return ratios


def _nan_average(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnwise mean/stderr/count ignoring NaN entries."""
    mask = ~np.isnan(matrix)
    included = mask.sum(axis=0)
    filled = np.where(mask, matrix, 0.0)
    safe_count = np.maximum(included, 1)
    means = filled.sum(axis=0) / safe_count
    with np.errstate(invalid="ignore"):
        ssd = np.where(mask, (matrix - means) ** 2, 0.0).sum(axis=0)
    spread = np.sqrt(ssd / np.maximum(included - 1, 1))
    values = np.where(included > 0, means, np.nan)
    stderr = np.where(
        included > 0,
        np.where(included > 1, spread, 0.0) / np.sqrt(safe_count),
        np.nan,
    )
    return values, stderr, included


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
    absorbed, _ = run_ensemble(config)
    ratios = _horizon_ratios(absorbed, hs)
    values, stderr, included = _nan_average(ratios)
    if np.any(included == 0):
        empty = hs[included == 0].tolist()
        raise NoAbsorptionError(
            f"no realization absorbed anything by horizon(s) {empty}"
        )
    return AveragedCurve(
        abscissa=hs,
        values=values,
        stderr=stderr,
        realization_count=config.realizations,
        included=included,
        label="avg_absorb_time",
    )


def disorder_avg_sigma(
    config: EnsembleConfig, t_grid: Optional[Sequence[int]] = None
) -> AveragedCurve:
    """⟨σ(t)⟩ across realizations; σ is the surviving-mass (renormalized)
    spread whenever an absorber is present."""
    steps = config.walk.steps
    if t_grid is None:
        ts = np.arange(1, steps + 1, dtype=np.int64)
    else:
        ts = np.asarray(sorted(set(int(t) for t in t_grid)), dtype=np.int64)
        if ts.size == 0 or ts[0] < 1 or ts[-1] > steps:
            raise ConfigurationError(
                f"t grid must lie within 1..{steps}"
            )
    _, sigma = run_ensemble(config)
    values, stderr, included = _nan_average(sigma[:, ts - 1])
    if np.any(included == 0):
        empty = ts[included == 0].tolist()
        raise NumericalError(f"no surviving mass at t = {empty}")
    return AveragedCurve(
        abscissa=ts,
        values=values,
        stderr=stderr,
        realization_count=config.realizations,
        included=included,
        label="avg_sigma",
    )


def fit_exponent(curve: AveragedCurve, t_lo: int = 20, t_hi: int = 80) -> FitResult:
    """OLS fit of ln(value) against ln(t) over integer t in [t_lo, t_hi]."""
    if t_lo >= t_hi:
        raise ConfigurationError(
            f"fit range needs t_lo < t_hi, got [{t_lo}, {t_hi}]"
        )
    mask = (curve.abscissa >= t_lo) & (curve.abscissa <= t_hi)
    if np.count_nonzero(mask) < 3:
        raise ConfigurationError(
            f"fit range [{t_lo}, {t_hi}] covers fewer than 3 curve points"
        )
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
