"""Classical random walk kernels and first-passage laws.

The walker splits its mass half left, half right by the step length each
step, writing both halves straight into the spare buffer of its state (see
`lattice`); the absorber cuts the window at its position and returns the
mass beyond it, exactly as in the quantum engine. `engine.run_walk` drives
these kernels for configs with engine "classical". Exact vector propagation
replaces Monte Carlo everywhere; trajectory sampling exists only in the test
suite as a cross-check oracle.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigurationError, NoAbsorptionError
from .lattice import ClassicalState, cut_window, image, place_rows, plan_move

if TYPE_CHECKING:  # engine imports this module for its kernels
    from .engine import AbsorberConfig


def crw_step(state: ClassicalState, l=1,
             within: Optional[tuple[int, int]] = None) -> ClassicalState:
    """One fair step of length l: p'(n) = ½ p(n+l) + ½ p(n−l).

    `l` is one length, or one per row; the window grows by the longest and
    is cut to the sites `within` (lo, hi) when given. The step overwrites
    the input state's window.
    """
    if not (l if isinstance(l, int) else np.any(l)):
        # no row moves: the same window, one step later
        return state.with_window(state.time + 1, state.n_min, state.prob,
                                 state.parity, state.frame)
    move, moved = plan_move(state, l, within)
    moved.time += 1
    out, start, stop, lo, hi, base, down, up = move
    prob = state.prob
    if isinstance(down, int):  # every row moves alike: plain slices
        width = prob.shape[-1]
        (to_l, from_l), (to_r, from_r) = (image(move, down, width),
                                          image(move, up, width))
        np.multiply(prob[..., from_l], 0.5, out=out[..., to_l])
        if to_l.start > lo:
            out[..., lo:to_l.start] = 0
        if to_l.stop < hi:
            out[..., to_l.stop:hi] = 0
        half, target = prob[..., from_r], out[..., to_r]
        np.add(target, np.multiply(half, 0.5, out=half), out=target)
        return moved
    half = 0.5 * prob
    span = out[..., start:stop]
    span[...] = 0
    place_rows(span, half, base + down - start)
    place_rows(span, half, base + up - start)
    return moved


def crw_apply_absorber(
    state: ClassicalState, absorber: AbsorberConfig
) -> tuple[ClassicalState, float]:
    """Cut the window at the absorber; return (a view of the kept sites, the
    mass of the cut sites), the cut mass per row for a state with rows."""
    return cut_window(state, absorber.position)


def classical_first_passage(t: int, m1: int) -> float:
    """Probability the unit-step walk first reaches ±|m1| at step t.

    p_t = (|m1| / (t·2^t)) · t! / (((t+|m1|)/2)! ((t−|m1|)/2)!), nonzero only
    for t ≥ |m1| with t ≡ m1 (mod 2). Symmetric in the sign of m1. Exact
    integers, rounded once.
    """
    m = _distance(m1)
    t = int(t)
    if t < m or (t - m) % 2 != 0:
        return 0.0
    return m * math.comb(t, (t + m) // 2) / (t * 2 ** t)


def _distance(m1: int) -> int:
    if m1 == 0:
        raise ConfigurationError("absorber position must be nonzero")
    return abs(int(m1))


def first_passage_series(m1: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(support times, first-passage probabilities) for t ≤ horizon.

    Steps the exact term ratio p_{t+2}/p_t = t(t+1)/((t+m+2)(t−m+2)) from
    p_m = 2^−m (m = |m1|), summed in logs so that no partial product
    underflows or overflows.
    """
    m = _distance(m1)
    ts = np.arange(m, horizon + 1, 2, dtype=np.float64)
    t = ts[:-1]
    log_p = np.empty(ts.size)
    log_p[:1] = -m * math.log(2.0)
    log_p[1:] = np.log(t * (t + 1) / ((t + m + 2) * (t - m + 2)))
    return ts, np.exp(np.cumsum(log_p))


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


def classical_avg_time_ratio(m1: int):
    """Term ratio u_n/u_{n+1} of the average-time numerator series
    u_n = t·p_t (t = |m1| + 2n): (t+m+2)(t−m+2) / ((t+1)(t+2)).

    Vectorized over n (n ≥ 0); feeds the Raabe convergence estimator, which
    finds the limit 1/2, i.e. divergence.
    """
    m = _distance(m1)

    def ratio(n):
        t = m + 2.0 * np.asarray(n, dtype=np.float64)
        return (t + m + 2) * (t - m + 2) / ((t + 1) * (t + 2))

    return ratio
