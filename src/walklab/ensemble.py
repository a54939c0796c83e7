"""Disorder ensembles: averaged absorbing times, averaged spreading, fits.

Realization i of an ensemble walks the lengths that every caller draws,
sample_realization(disorder, steps, child_seed(master_seed, i)). All
realizations run as the rows of one batched walk, split into blocks only
to bound memory; averages are reduced in fixed realization-index order.
Each block's lengths are drawn just before it runs, and its results are
written straight into the ensemble's matrices. Blocks are sized by the bytes
their rows store, so a real-amplitude quantum walk runs fewer, larger
blocks. Fits take their t quantile from finite sums, so no scipy is loaded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .disorder import DisorderSpec, child_seed, sample_realization
from .engine import SITE_BYTES, WalkConfig, frame_span, real_amplitudes, record_walk
from .errors import ConfigurationError, NoAbsorptionError, NumericalError
from .lattice import check_matrix, checked, step_times

# A row of a block holds its step lengths (8 bytes a step), its share of the
# two walk buffers (SITE_BYTES a column, half for a real quantum walk), the
# larger of a step's temporaries (a site a column: the coin's cross terms, or
# a classical step's indexed read) and a σ step's three float arrays (8 bytes
# a column each), and about 16 more 8-byte values. An in-place ufunc on a
# window, a strided view, adds numpy's iteration buffers for its input and
# output, up to np.getbufsize() elements each. Blocks take realizations in
# index order while under BLOCK_BYTES (a single row may exceed it). Every block
# step pays a fixed Python cost; 2 MiB runs each default `sweep` ensemble whole.
BLOCK_BYTES = 2 ** 21


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
        rows = checked("walk", self.walk, WalkConfig).rows
        if self.disorder is not None:
            checked("disorder", self.disorder, DisorderSpec)
        realizations = checked("realizations", self.realizations, lo=1)
        if rows not in ((), (realizations,)):
            raise ConfigurationError(f"walk has {rows[0]} rows of step lengths, "
                                     f"not one per realization ({realizations})")
        object.__setattr__(self, "realizations", realizations)
        object.__setattr__(self, "master_seed", checked("master_seed", self.master_seed))


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


def _block_bytes(walk: WalkConfig, rows: int, farthest: int, longest: int) -> int:
    """What a block of `rows` `walk`s holds at its peak, for rows that move
    at most `farthest` in all and `longest` in one step."""
    _, columns = frame_span(farthest, longest, walk.absorber, rows=2)
    site = SITE_BYTES[walk.engine] // (2 if real_amplitudes(walk) else 1)
    item = site // 2 if walk.engine == "quantum" else site  # bytes of an element
    row = 8 * (walk.steps + 16) + (2 * site + max(site, 3 * 8)) * columns
    return rows * row + 2 * item * min(rows * columns, np.getbufsize())


def run_ensemble(
    config: EnsembleConfig, sigma_times: Optional[Iterable[int]] = None,
    absorbed: bool = True,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """All realizations' absorption and sigma curves, in index order.

    Returns (absorbed, sigma): absorbed[i, t − 1] is realization i's p_t,
    and sigma[i, j] its σ after the j-th of the sorted distinct
    `sigma_times` (default: every step; a time beyond the steps raises, see
    `lattice.step_times`), NaN after it lost all its mass. With
    `sigma_times` empty no σ matrix is built and sigma is None; with
    `absorbed` False absorbed is None. Without disorder one walk stands for
    every realization. A (realizations × steps) matrix beyond
    MAX_ARRAY_BYTES is refused before anything is sampled.
    """
    walk, count = checked("config", config, EnsembleConfig).walk, config.realizations
    check_matrix(count, walk.steps, "realizations")
    times = step_times(sigma_times, walk.steps, "sigma time").tolist()
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
        if rows and _block_bytes(walk, len(rows) + 1, max(farthest, reach),
                                 max(longest, top)) > BLOCK_BYTES:
            run_block(i - len(rows), rows)
            farthest = longest = 0
        rows.append(lengths)
        farthest, longest = max(farthest, reach), max(longest, top)
    run_block(count - len(rows), rows)
    return per_step, sigma


def finite_horizon_avg_time(per_step: np.ndarray, n: int) -> float:
    """Weighted average absorbing time Σ_{t≤n} t·p_t / Σ_{t≤n} p_t of one
    walk's per-step p_t (`WalkResult.per_step`): the `_horizon_ratios` of
    one row."""
    n = checked("horizon", n, lo=1)
    try:
        p = np.asarray(per_step)
    except ValueError:  # a ragged nesting
        p = np.empty(())
    if p.ndim != 1 or p.dtype.kind not in "iuf":
        raise ConfigurationError("per_step must be one walk's 1-D record of numbers")
    p = p[np.newaxis, :n].astype(np.float64)
    if not p.any():
        raise NoAbsorptionError(f"no absorption within horizon {n}")
    return float(_horizon_ratios(p, np.array([p.shape[1]]))[0, -1])


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


def _nan_average(matrix: np.ndarray, abscissa: np.ndarray, error: type,
                 empty_message: str) -> AveragedCurve:
    """Columnwise mean/stderr/count ignoring NaN entries, as a curve over
    `abscissa`; a column with no entry averages to NaN (mean and stderr),
    and `error` is raised if no column has any.

    Overwrites `matrix`: the matrix may be large.
    """
    missing, realizations = np.isnan(matrix), matrix.shape[0]
    included = realizations - missing.sum(axis=0)
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


def _stop_at_grid(config: EnsembleConfig, values: Optional[Iterable[int]],
                  what: str) -> tuple[np.ndarray, EnsembleConfig]:
    """The steps at which an average reads `config`'s walks (`step_times` of
    `values`, None: every step; refused when empty), and `config` stopped
    after the last, each realization drawing the same first lengths. The
    default grid is a matrix row long: the matrix is checked before it."""
    if values is None:
        check_matrix(config.realizations, config.walk.steps, "realizations")
    times = step_times(values, config.walk.steps, what)
    if not times.size:
        raise ConfigurationError(f"at least one {what} is required")
    last, lengths = int(times[-1]), config.walk.step_lengths
    if lengths is not None:
        lengths = np.asarray(lengths)[..., :last]
    return times, replace(config, walk=replace(config.walk, steps=last,
                                               step_lengths=lengths))


def disorder_avg_absorb_time(
    config: EnsembleConfig, horizons: Optional[Sequence[int]] = None
) -> AveragedCurve:
    """⟨t_a^(n)⟩ across realizations at each horizon n (default: every step).

    Realizations with zero absorption by a horizon are excluded from that
    horizon's average; the per-point inclusion count is reported, and a
    horizon with none included averages to NaN. Some horizon must keep at
    least one realization. The walks stop at the last horizon.
    """
    if checked("config", config, EnsembleConfig).walk.absorber is None:
        raise ConfigurationError("absorbing-time averages need an absorber")
    hs, stopped = _stop_at_grid(config, horizons, "horizon")
    absorbed, _ = run_ensemble(stopped, sigma_times=())
    return _nan_average(_horizon_ratios(absorbed, hs), hs, NoAbsorptionError,
                        "no realization absorbed anything by horizon(s)")


def disorder_avg_sigma(
    config: EnsembleConfig, t_grid: Optional[Sequence[int]] = None
) -> AveragedCurve:
    """⟨σ(t)⟩ across realizations at each t of `t_grid` (default: every
    step); σ is the surviving-mass (renormalized) spread whenever an
    absorber is present, and is computed only at those t; the walks stop at
    the last one."""
    ts, stopped = _stop_at_grid(checked("config", config, EnsembleConfig), t_grid, "t grid value")
    _, sigma = run_ensemble(stopped, sigma_times=ts, absorbed=False)
    return _nan_average(sigma, ts, NumericalError, "no surviving mass at t =")


def check_fit_range(t_lo: int, t_hi: int, points: int) -> None:
    """Raise unless [t_lo, t_hi], holding `points` curve points, can be fit."""
    if t_lo >= t_hi:
        raise ConfigurationError(f"fit range needs t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if points < 3:
        raise ConfigurationError(
            f"fit range [{t_lo}, {t_hi}] covers fewer than 3 curve points"
        )


def _t_quantile(nu: int, q: float) -> float:
    """The q quantile, for q in [1/2, 1), of Student's t with `nu` ≥ 1
    (integer) degrees of freedom.

    With θ = atan(t/√ν), A(θ) = P(|T| ≤ t) is a finite sum in θ
    (Abramowitz & Stegun 26.7.3 for odd ν, 26.7.4 for even ν), concave and
    increasing on [0, π/2), so Newton steps from θ = 0 rise to the root of
    A(θ) = 2q − 1 without overshooting.
    """
    odd = nu & 1
    slope = 2.0 * math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)) \
        / math.sqrt(math.pi)  # dA/dθ = slope · cos^(ν−1) θ
    ratios = [(2 * k - 1 + odd) / (2 * k + odd) for k in range(1, nu // 2)]
    theta = 0.0
    for _ in range(100):
        sin, cos = math.sin(theta), math.cos(theta)
        cos2 = cos * cos
        term, total = 1.0, 1.0 if nu > 1 else 0.0  # ν = 1 has no sum
        for ratio in ratios:
            term *= ratio * cos2
            total += term
        if odd:
            area = 2.0 / math.pi * (theta + sin * cos * total)
        else:
            area = sin * total
        delta = (2.0 * q - 1.0 - area) / (slope * cos ** (nu - 1))
        theta += delta
        # quadratic convergence: the error left is far below rounding
        if abs(delta) <= 1e-12 * theta:
            break
    return math.sqrt(nu) * math.tan(theta)


def fit_exponent(curve: AveragedCurve, t_lo: int = 20, t_hi: int = 80) -> FitResult:
    """OLS fit of ln(value) against ln(t) over integer t in [t_lo, t_hi]."""
    t_lo, t_hi = checked("t_lo", t_lo), checked("t_hi", t_hi)
    mask = (checked("curve", curve, AveragedCurve).abscissa >= t_lo) & (curve.abscissa <= t_hi)
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
    # check_fit_range asked for n >= 3 points
    slope_se = math.sqrt(rss / (n - 2) / sxx)
    return FitResult(
        alpha=alpha,
        intercept=intercept,
        ci95_halfwidth=_t_quantile(n - 2, 0.975) * slope_se,
        residual_rms=residual_rms,
        fit_range=(t_lo, t_hi),
        n_points=n,
    )
