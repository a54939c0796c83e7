"""Classical random walk kernels and first-passage laws.

The walker splits its mass half left, half right by the step length each
step, writing both halves straight into the spare buffer of its state (see
`lattice`): by plain slices for one length, by index for one per row. The
absorber cuts the window at its position and returns the mass beyond it,
exactly as in the quantum engine. `engine.run_walk` drives these kernels
for configs with engine "classical". Exact vector propagation replaces
Monte Carlo everywhere; trajectory sampling exists only in the test suite
as a cross-check oracle.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, NoAbsorptionError
from .lattice import ClassicalState, cut_window, place_rows, plan_move

if TYPE_CHECKING:  # engine imports this module for its kernels
    from .engine import AbsorberConfig


def crw_step(state: ClassicalState, l=1) -> ClassicalState:
    """One fair step of length l: p'(n) = ½ p(n+l) + ½ p(n−l).

    `l` is one length, or one per row; the window grows by the longest. The
    step overwrites the input state's window.
    """
    if not (l if isinstance(l, int) else np.any(l)):
        # no row moves: the same window, one step later
        return state.with_window(state.time + 1, state.n_min, state.prob,
                                 state.parity, state.frame)
    moved, down, up = plan_move(state, l)
    moved.time += 1
    prob, out = state.prob, moved.prob
    if isinstance(down, int):  # one length and parity: plain slices, l apart
        width = prob.shape[-1]
        np.multiply(prob, 0.5, out=out[..., :width])
        out[..., width:] = 0
        target = out[..., up:]
        np.add(target, np.multiply(prob, 0.5, out=prob), out=target)
        return moved
    half = 0.5 * prob
    out[...] = 0
    place_rows(out, half, down)
    place_rows(out, half, up)
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
