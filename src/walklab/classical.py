"""Classical random walk kernels and first-passage laws.

The walker splits its mass half left, half right by the step length each
step; the absorber cuts the window at its position and returns the mass
beyond it, exactly as in the quantum engine. `engine.run_walk` drives these
kernels for configs with engine "classical". Exact vector propagation
replaces Monte Carlo everywhere; trajectory sampling exists only in the test
suite as a cross-check oracle.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, NoAbsorptionError
from .lattice import ClassicalState, place_rows, row_sum, shift_span

if TYPE_CHECKING:  # engine imports this module for its kernels
    from .engine import AbsorberConfig

# exact integer binomials below this step count, log-gamma beyond
_EXACT_COMB_LIMIT = 1000


def crw_step(state: ClassicalState, l=1) -> ClassicalState:
    """One fair step of length l: p'(n) = ½ p(n+l) + ½ p(n−l).

    `l` is one length, or one per row; the window grows by the longest.
    """
    top, l = shift_span(l)
    if top == 0:
        return ClassicalState(time=state.time + 1, n_min=state.n_min,
                              prob=state.prob.copy())
    w = state.width
    new = np.zeros(state.prob.shape[:-1] + (w + 2 * top,))
    half = 0.5 * state.prob
    if isinstance(l, int):  # every row moves by top: plain slices
        new[..., :w] += half
        new[..., 2 * top:] += half
    else:
        place_rows(new, half, top - l)
        place_rows(new, half, top + l)
    return ClassicalState(time=state.time + 1, n_min=state.n_min - top, prob=new)


def crw_apply_absorber(
    state: ClassicalState, absorber: AbsorberConfig
) -> tuple[ClassicalState, float]:
    """Cut the window at the absorber; return (a view of the kept sites, the
    mass of the cut sites), the cut mass per row for a state with rows."""
    kept, cut = absorber.split(state.n_min, state.width)
    absorbed = row_sum(state.prob[..., cut], 1)
    return ClassicalState(time=state.time, n_min=state.n_min + kept.start,
                          prob=state.prob[..., kept]), absorbed


def classical_first_passage(t: int, m1: int) -> float:
    """Probability the unit-step walk first reaches ±|m1| at step t.

    p_t = (|m1| / (t·2^t)) · t! / (((t+|m1|)/2)! ((t−|m1|)/2)!), nonzero only
    for t ≥ |m1| with t ≡ m1 (mod 2). Symmetric in the sign of m1.
    """
    if m1 == 0:
        raise ConfigurationError("absorber position must be nonzero")
    m = abs(int(m1))
    t = int(t)
    if t < m or (t - m) % 2 != 0:
        return 0.0
    if t <= _EXACT_COMB_LIMIT:
        return m * math.comb(t, (t + m) // 2) / (t * 2 ** t)
    return float(np.exp(_log_first_passage(np.array([t], dtype=np.float64), m))[0])


def _log_first_passage(ts: np.ndarray, m: int) -> np.ndarray:
    """log p_t on the support grid (callers guarantee parity and t ≥ m)."""
    # imported on use: scipy would dominate the CLI's start-up
    from scipy.special import gammaln

    return (
        np.log(m)
        - np.log(ts)
        - ts * math.log(2.0)
        + gammaln(ts + 1.0)
        - gammaln((ts + m) / 2.0 + 1.0)
        - gammaln((ts - m) / 2.0 + 1.0)
    )


def _support_grid(m: int, horizon: int) -> np.ndarray:
    return np.arange(m, horizon + 1, 2, dtype=np.float64)


def first_passage_series(m1: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(support times, first-passage probabilities) for t ≤ horizon."""
    if m1 == 0:
        raise ConfigurationError("absorber position must be nonzero")
    m = abs(int(m1))
    if horizon < m:
        return np.empty(0), np.empty(0)
    ts = _support_grid(m, horizon)
    return ts, np.exp(_log_first_passage(ts, m))


def classical_total_absorption(m1: int, horizon: int) -> float:
    """Partial sum Σ_{t≤horizon} p_t; approaches 1 as the horizon grows."""
    _, ps = first_passage_series(m1, horizon)
    return float(np.sum(ps))


def classical_avg_time_partial(m1: int, horizon: int) -> float:
    """Finite-horizon average absorbing time Σ t·p_t / Σ p_t for t ≤ horizon.

    Diverges like √horizon as the horizon grows: the numerator series fails
    the ratio test (limit 1/2 < 1) while the denominator sums to 1.
    """
    ts, ps = first_passage_series(m1, horizon)
    den = float(np.sum(ps))
    if den <= 0.0:
        raise NoAbsorptionError(
            f"no absorption possible by step {horizon} with absorber at {m1}"
        )
    return float(np.sum(ts * ps)) / den


def classical_avg_time_term(m1: int):
    """Terms u_n = t·p_t (t = |m1| + 2n) of the average-time numerator series.

    Vectorized over n (n ≥ 1); feeds the Raabe convergence estimator, which
    finds the limit 1/2, i.e. divergence.
    """
    if m1 == 0:
        raise ConfigurationError("absorber position must be nonzero")
    m = abs(int(m1))

    def term(n):
        ts = m + 2.0 * np.asarray(n, dtype=np.float64)
        return ts * np.exp(_log_first_passage(ts, m))

    return term
