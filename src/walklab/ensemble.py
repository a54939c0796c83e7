"""Disorder ensembles: averaged absorbing times, averaged spreading, fits.

Realization i of an ensemble walks with step lengths drawn from the derived
seed child_seed(master_seed, i), so results are reproducible. All
realizations run as the rows of one batched walk, split into blocks only
to bound memory; averages are reduced in fixed realization-index order.
Each block's lengths are drawn just before it runs, and its results are
written straight into the ensemble's matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .disorder import DisorderSpec, child_seed, sample_realization
from .engine import (
    MAX_ARRAY_BYTES,
    SITE_BYTES,
    AbsorptionRecord,
    WalkConfig,
    frame_span,
    record_walk,
)
from .errors import ConfigurationError, NoAbsorptionError, NumericalError

# A row of a block holds its step lengths (8 bytes a step), its share of the
# block's two walk buffers (C · itemsize bytes a column for C channels) and
# of the three float arrays a σ holds (8 bytes a column each). Blocks take
# realizations in index order while their rows stay under BLOCK_BYTES (a
# single row may exceed it).
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


def _row_bytes(walk: WalkConfig, farthest: int, longest: int) -> int:
    """What one row of a block of `walk`s holds, for rows that move at most
    `farthest` in all and `longest` in one step."""
    _, columns = frame_span(walk.initial_position, farthest, longest,
                            walk.absorber, rows=2)
    return 8 * walk.steps + (2 * SITE_BYTES[walk.engine] + 3 * 8) * columns


def run_ensemble(
    config: EnsembleConfig, sigma_times: Optional[Iterable[int]] = None,
    absorbed: bool = True,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """All realizations' absorption and sigma curves, in index order.

    Returns (absorbed, sigma): absorbed[i, t − 1] is realization i's p_t,
    and sigma[i, j] its σ after the j-th of the sorted distinct
    `sigma_times` (default: every step), NaN after it lost all its mass or
    for a time beyond the steps. With `sigma_times` empty no σ matrix is
    built and sigma is None; with `absorbed` False absorbed is None. Without
    disorder one walk stands for every realization. A
    (realizations × steps) matrix beyond MAX_ARRAY_BYTES is refused before
    anything is sampled.
    """
    walk, count = config.walk, config.realizations
    nbytes = count * walk.steps * 8  # one 8-byte value per realization and step
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigurationError(
            f"{count} realizations × {walk.steps} steps need {nbytes} bytes per "
            f"matrix, above the budget of {MAX_ARRAY_BYTES}"
        )
    times = range(1, walk.steps + 1) if sigma_times is None \
        else sorted(set(sigma_times))
    per_step = np.zeros((count, walk.steps)) if absorbed else None
    sigma = np.full((count, len(times)), np.nan) if times else None
    columns = {t: j for j, t in enumerate(times)}
    if config.disorder is None:
        record_walk(walk, per_step, sigma, columns)
        return per_step, sigma

    def run_block(first: int, rows: list) -> None:
        """Run realizations first, first + 1, … with the sampled lengths
        `rows`, which it empties so that only the block's array holds them."""
        block, done = np.array(rows), slice(first, first + len(rows))
        rows.clear()
        record_walk(replace(walk, step_lengths=block),
                    None if per_step is None else per_step[done],
                    None if sigma is None else sigma[done], columns)

    rows, farthest, longest = [], 0, 0
    for i in range(count):
        lengths = sample_realization(config.disorder, walk.steps,
                                     child_seed(config.master_seed, i)).lengths
        reach, top = int(lengths.sum()), int(lengths.max())
        if rows and (len(rows) + 1) * _row_bytes(
                walk, max(farthest, reach), max(longest, top)) > BLOCK_BYTES:
            run_block(i - len(rows), rows)
            farthest = longest = 0
        rows.append(lengths)
        farthest, longest = max(farthest, reach), max(longest, top)
    run_block(count - len(rows), rows)
    return per_step, sigma


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
                 error: type, empty_message: str) -> AveragedCurve:
    """Columnwise mean/stderr/count ignoring NaN entries, as a curve over
    `abscissa`; a column with no entry averages to NaN (mean and stderr),
    and `error` is raised if no column has any.

    Overwrites `matrix`: the matrix may be large.
    """
    missing = np.isnan(matrix)
    included = matrix.shape[0] - missing.sum(axis=0)
    if not included.any():
        raise error(f"{empty_message} {abscissa.tolist()}")
    # an empty column: x / NaN gives NaN, with no 0/0 warning
    counts = np.where(included > 0, included, np.nan)
    matrix[missing] = 0.0
    means = matrix.sum(axis=0) / counts
    matrix -= means
    matrix *= matrix
    matrix[missing] = 0.0
    spread = np.sqrt(matrix.sum(axis=0) / np.maximum(included - 1, 1))
    stderr = np.where(included > 1, spread, 0.0) / np.sqrt(counts)
    return AveragedCurve(abscissa=abscissa, values=means, stderr=stderr,
                         realization_count=realizations, included=included)


def _upto(config: EnsembleConfig, last: int) -> EnsembleConfig:
    """`config` with its walk stopped after step `last`, the last one an
    average reads: each realization draws the same first `last` lengths."""
    lengths = config.walk.step_lengths
    if lengths is not None:
        lengths = np.asarray(lengths)[..., :last]
    return replace(config, walk=replace(config.walk, steps=last,
                                        step_lengths=lengths))


def disorder_avg_absorb_time(
    config: EnsembleConfig, horizons: Sequence[int]
) -> AveragedCurve:
    """⟨t_a^(n)⟩ across realizations at each horizon n.

    Realizations with zero absorption by a horizon are excluded from that
    horizon's average; the per-point inclusion count is reported, and a
    horizon with none included averages to NaN. Some horizon must keep at
    least one realization. The walks stop at the last horizon.
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
    absorbed, _ = run_ensemble(_upto(config, int(hs[-1])), sigma_times=())
    return _nan_average(_horizon_ratios(absorbed, hs), hs, config.realizations,
                        NoAbsorptionError,
                        "no realization absorbed anything by horizon(s)")


def disorder_avg_sigma(
    config: EnsembleConfig, t_grid: Optional[Sequence[int]] = None
) -> AveragedCurve:
    """⟨σ(t)⟩ across realizations at each t of `t_grid` (default: every
    step); σ is the surviving-mass (renormalized) spread whenever an
    absorber is present, and is computed only at those t; the walks stop at
    the last one."""
    steps = config.walk.steps
    if t_grid is None:
        t_grid = range(1, steps + 1)
    ts = np.asarray(sorted(set(int(t) for t in t_grid)), dtype=np.int64)
    if ts.size == 0 or ts[0] < 1 or ts[-1] > steps:
        raise ConfigurationError(f"t grid must lie within 1..{steps}")
    _, sigma = run_ensemble(_upto(config, int(ts[-1])), sigma_times=ts.tolist(),
                            absorbed=False)
    return _nan_average(sigma, ts, config.realizations, NumericalError,
                        "no surviving mass at t =")


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
