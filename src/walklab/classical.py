"""Classical random walk kernels and first-passage laws.

A step splits the walker's mass half left, half right by the step length,
writing both halves into the spare buffer along the step's `Move` (see
`lattice`): by plain slices for one walk, by one indexed copy per image
for a block. The absorber cuts the window exactly as in the quantum
engine. `engine.iterate_walk` drives these kernels for the "classical"
engine and, after every step of either engine, ends the window at its
outermost live column, so no step computes the columns of a long walk
whose mass underflowed to zero.
Exact vector propagation replaces Monte Carlo; trajectory sampling exists
only in the test suite as an oracle. The first-passage law has one
entry point, `first_passage_series`, which steps its exact term ratio: its
term at t is p_t, and its sum the absorbed total up to the horizon.
"""
from __future__ import annotations

import math

import numpy as np

from .lattice import (AbsorberConfig, ClassicalState, Move, check_budget, checked, cut_at,
                      shift_window)


def crw_step(state: ClassicalState, move: Move) -> ClassicalState:
    """One fair step along `move` of the state of `engine.iterate_walk`, in
    place: p'(n) = ½ p(n+l) + ½ p(n−l), for one length l or one per row.
    The step overwrites the input window."""
    if not (move.low or move.high):  # no row moves: the same window
        state.time += 1
        return state
    prob, rows = shift_window(state, move)
    if rows is None:  # one walk: its images are plain slices, l apart
        out, width = state.values, prob.shape[-1]
        np.multiply(prob, 0.5, out=out[:width])
        out[width:] = 0
        target = out[move.length:]
        np.add(target, np.multiply(prob, 0.5, out=prob), out=target)
    else:  # a block: one indexed copy per image
        np.multiply(prob, 0.5, out=prob)
        state.values[...] = 0
        rows[move.starts[:, 0]] = prob
        rows[move.starts[:, 1]] += prob
    return state


def crw_apply_absorber(state: ClassicalState, absorber: AbsorberConfig):
    """Cut the window at the absorber; return (the state, the mass of the
    cut sites), the cut mass per row for a state with rows."""
    return state, cut_at(state, absorber.position)


def first_passage_series(m1: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(support times, first-passage probabilities) for t ≤ horizon.

    p_t = (|m1| / (t·2^t)) · t! / (((t+|m1|)/2)! ((t−|m1|)/2)!) is the
    probability that the unit-step walk first reaches ±|m1| at step t,
    nonzero only for t ≥ |m1| with t ≡ m1 (mod 2). Steps the exact term
    ratio p_{t+2}/p_t = t(t+1)/((t+m+2)(t−m+2)) from p_m = 2^−m (m = |m1|),
    summed in logs so that no partial product underflows or overflows.
    |m1| and the horizon are at most 2^53, so that every time is an exact float64.
    """
    m = abs(checked("absorber position", AbsorberConfig(m1).position, lo=-2 ** 53, hi=2 ** 53))
    horizon = checked("horizon", horizon, lo=0, hi=2 ** 53)
    terms = max(horizon - m + 2, 0) // 2  # t = m, m + 2, ... up to the horizon
    check_budget(8 * terms, f"{terms} first-passage terms need {{}} bytes")
    ts = np.arange(m, horizon + 1, 2, dtype=np.float64)
    t = ts[:-1]
    log_p = np.empty(ts.size)
    log_p[:1] = -m * math.log(2.0)
    log_p[1:] = np.log(t * (t + 1) / ((t + m + 2) * (t - m + 2)))
    return ts, np.exp(np.cumsum(log_p))


def classical_avg_time_ratio(m1: int):
    """Term ratio u_n/u_{n+1} of the average-time numerator series
    u_n = t·p_t (t = |m1| + 2n): (t+m+2)(t−m+2) / ((t+1)(t+2)).

    Vectorized over n (n ≥ 0); feeds the Raabe convergence estimator, which
    finds the limit 1/2, i.e. divergence.
    """
    m = abs(AbsorberConfig(m1).position)

    def ratio(n):
        t = m + 2.0 * np.asarray(n, dtype=np.float64)
        return (t + m + 2) * (t - m + 2) / ((t + 1) * (t + 2))

    return ratio
