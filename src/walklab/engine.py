"""Walk engine: quantum kernels and the one walk pipeline of both engines.

A quantum time step is coin → shift → absorb. The shift moves the
left-mover component l sites down and the right-mover component l sites up;
l = 0 steps apply the coin but no movement. The absorber is an edge of the
window: every step it cuts off the sites at or beyond its position (on its
side of the origin), whose mass is that step's absorption probability, so
absorbed sites are never stored. A classical step is the fair split
`classical.crw_step` followed by `classical.crw_apply_absorber`; a walk
config's engine picks only the initial state and that kernel pair, so both
engines share the config, the iterator, the runner and the snapshots.
Step lengths shaped (R, steps) run R independent walks (rows) at once on
one shared window; every kernel works row by row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .classical import crw_apply_absorber, crw_step
from .errors import ConfigurationError
from .lattice import (
    LEFT,
    RIGHT,
    ClassicalState,
    PositionDistribution,
    QuantumState,
    initial_classical_state,
    initial_quantum_state,
    place_rows,
    probability_distribution,
    row_sum,
    shift_span,
    std_dev,
)
from .series import MAX_ARRAY_BYTES

WalkerState = Union[QuantumState, ClassicalState]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class CoinOperator:
    """2×2 unitary acting on the coin space.

    Acts componentwise as |L⟩ → a|L⟩ + b|R⟩ and |R⟩ → c|L⟩ + d|R⟩.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    name: str = "custom"

    def __post_init__(self) -> None:
        u = self.matrix()
        if not np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12):
            raise ConfigurationError(f"coin {self.name!r} is not unitary")

    def matrix(self) -> np.ndarray:
        # column j holds the image of basis state j in the (L, R) basis
        return np.array([[self.a, self.c], [self.b, self.d]], dtype=np.complex128)


def hadamard_coin() -> CoinOperator:
    """Balanced real coin: a = b = c = 1/√2, d = −1/√2."""
    return CoinOperator(_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2, "hadamard")


def mirrored_hadamard_coin() -> CoinOperator:
    """Hadamard conjugated by the L/R swap: the minus sign sits on a."""
    return CoinOperator(-_INV_SQRT2, _INV_SQRT2, _INV_SQRT2, _INV_SQRT2,
                        "hadamard-mirrored")


def kempe_coin() -> CoinOperator:
    """Balanced complex coin: a = d = 1/√2, b = c = i/√2."""
    return CoinOperator(_INV_SQRT2, 1j * _INV_SQRT2, 1j * _INV_SQRT2, _INV_SQRT2,
                        "kempe")


_COIN_FACTORIES = {
    "hadamard": hadamard_coin,
    "hadamard-mirrored": mirrored_hadamard_coin,
    "kempe": kempe_coin,
}


def coin_by_name(name: str) -> CoinOperator:
    try:
        return _COIN_FACTORIES[name]()
    except KeyError:
        known = ", ".join(sorted(_COIN_FACTORIES))
        raise ConfigurationError(f"unknown coin {name!r} (known: {known})") from None


@dataclass(frozen=True)
class AbsorberConfig:
    """One absorbing boundary at a nonzero lattice position.

    For position > 0 it removes mass at sites n ≥ position; for position < 0
    at sites n ≤ position.
    """

    position: int

    def __post_init__(self) -> None:
        if int(self.position) != self.position or self.position == 0:
            raise ConfigurationError("absorber position must be nonzero")

    def split(self, n_min: int, width: int) -> tuple[slice, slice]:
        """(kept, absorbed) index ranges of a window [n_min, n_min + width)."""
        if self.position > 0:
            k = min(max(self.position - n_min, 0), width)
            return slice(0, k), slice(k, width)
        k = min(max(self.position - n_min + 1, 0), width)
        return slice(k, width), slice(0, k)


def apply_coin(state: QuantumState, coin: CoinOperator) -> QuantumState:
    psi = state.psi
    new = np.empty_like(psi)
    new[..., LEFT, :] = coin.a * psi[..., LEFT, :] + coin.c * psi[..., RIGHT, :]
    new[..., RIGHT, :] = coin.b * psi[..., LEFT, :] + coin.d * psi[..., RIGHT, :]
    return QuantumState(time=state.time, n_min=state.n_min, psi=new)


def apply_shift(state: QuantumState, l=1) -> QuantumState:
    """Move the L component l sites down and the R component l sites up.

    `l` is one length, or one per row; the window grows by the longest.
    """
    top, l = shift_span(l)
    if top == 0:
        return QuantumState(time=state.time, n_min=state.n_min,
                            psi=state.psi.copy())
    psi, w = state.psi, state.width
    new = np.zeros(psi.shape[:-1] + (w + 2 * top,), dtype=np.complex128)
    if isinstance(l, int):  # every row moves by top: plain slices
        new[..., LEFT, :w] = psi[..., LEFT, :]
        new[..., RIGHT, 2 * top:] = psi[..., RIGHT, :]
    else:
        place_rows(new[:, LEFT], psi[:, LEFT], top - l)
        place_rows(new[:, RIGHT], psi[:, RIGHT], top + l)
    return QuantumState(time=state.time, n_min=state.n_min - top, psi=new)


def step(state: QuantumState, coin: CoinOperator, l=1) -> QuantumState:
    """One full evolution step (coin then shift); advances the step counter."""
    moved = apply_shift(apply_coin(state, coin), l)
    return QuantumState(time=state.time + 1, n_min=moved.n_min, psi=moved.psi)


def apply_absorber(
    state: QuantumState, absorber: AbsorberConfig
) -> tuple[QuantumState, float]:
    """Cut the window at the absorber; return (a view of the kept sites, the
    mass of the cut sites), the cut mass per row for a state with rows."""
    kept, cut = absorber.split(state.n_min, state.width)
    absorbed = row_sum(np.abs(state.psi[..., cut]) ** 2, 2)
    return QuantumState(time=state.time, n_min=state.n_min + kept.start,
                        psi=state.psi[..., kept]), absorbed


@dataclass
class AbsorptionRecord:
    """Per-step absorbed probabilities p_t for t = 1..horizon (per row)."""

    per_step: np.ndarray  # shape ([rows,] horizon)
    horizon: int

    @property
    def cumulative_total(self):
        return row_sum(self.per_step, 1)


# bytes per site of each engine's window: complex L and R amplitudes, or one
# probability
SITE_BYTES = {"quantum": 2 * 16, "classical": 8}


@dataclass
class WalkConfig:
    """Full specification of one walk run, quantum or classical.

    The classical engine starts from a point mass and ignores the coin and
    the initial coin amplitudes. Step lengths shaped (R, steps) run R walks
    at once, one per row.
    """

    steps: int
    engine: str = "quantum"
    coin: CoinOperator = field(default_factory=hadamard_coin)
    initial_position: int = 0
    initial_amp_left: complex = 1.0
    initial_amp_right: complex = 0.0
    absorber: Optional[AbsorberConfig] = None
    step_lengths: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.engine not in SITE_BYTES:
            raise ConfigurationError(
                f"engine must be one of {tuple(SITE_BYTES)}, got {self.engine!r}"
            )
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.step_lengths is not None:
            lengths = np.asarray(self.step_lengths)
            if lengths.ndim not in (1, 2) or lengths.shape[-1] != self.steps \
                    or lengths.size == 0:
                raise ConfigurationError(
                    f"step_lengths must have length {self.steps} (per row), "
                    f"got {lengths.shape}"
                )
            if np.any(lengths < 0) or not np.issubdtype(lengths.dtype, np.integer):
                raise ConfigurationError("step lengths must be nonnegative integers")

    def lengths(self) -> np.ndarray:
        if self.step_lengths is None:
            return np.ones(self.steps, dtype=np.int64)
        return np.asarray(self.step_lengths, dtype=np.int64)


@dataclass
class WalkResult:
    """Outcome of a full run: absorption record and per-step spread.

    sigma[..., t-1] is the standard deviation of the surviving
    (renormalized) position distribution after step t; NaN if that step left
    no mass, or if σ was not asked for at t. None if σ was asked for at no t.
    """

    record: AbsorptionRecord
    sigma: Optional[np.ndarray]
    final_state: WalkerState


def iterate_walk(config: WalkConfig) -> Iterator[tuple[WalkerState, float]]:
    """Yield (state after step t, mass absorbed at step t) for t = 1..steps.

    Stops early after a step that leaves every row without surviving mass:
    nothing evolves past that point. Rows share one window: the sites within
    the farthest any row has moved from the start, up to the absorber. A
    window that could pass MAX_ARRAY_BYTES is refused before the walk starts.
    """
    if config.step_lengths is None:
        count, farthest = 1, config.steps
    else:
        sums = np.sum(config.step_lengths, axis=-1)
        count, farthest = np.size(sums), int(np.max(sums))
    sites = 1 + 2 * farthest
    nbytes = count * sites * SITE_BYTES[config.engine]
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigurationError(
            f"a walk window of {count} row(s) × {sites} sites needs {nbytes} "
            f"bytes, above the budget of {MAX_ARRAY_BYTES}"
        )
    lengths = config.lengths()
    rows = lengths.shape[:-1]
    if config.engine == "quantum":
        state = initial_quantum_state(
            config.initial_position, config.initial_amp_left,
            config.initial_amp_right,
        )
        state.psi = np.tile(state.psi, rows + (1, 1))

        def advance(current, l):
            return step(current, config.coin, l)

        absorb = apply_absorber
    else:
        state = initial_classical_state(config.initial_position)
        state.prob = np.tile(state.prob, rows + (1,))
        advance, absorb = crw_step, crw_apply_absorber
    # a step widens the window by its longest row length; clamp it back to
    # the farthest any row has moved (no row has mass beyond that)
    n0 = config.initial_position
    reach = np.cumsum(lengths, axis=-1).reshape(-1, config.steps).max(axis=0)
    for l, r in zip(lengths.T, reach.tolist()):
        state = advance(state, l).clamped(n0 - r, n0 + r)
        absorbed = 0.0
        if config.absorber is not None:
            state, absorbed = absorb(state, config.absorber)
        yield state, absorbed
        # only absorption removes mass, so only a step that absorbed can empty
        if np.count_nonzero(absorbed) and np.count_nonzero(state.mass()) == 0:
            return


def run_walk(config: WalkConfig,
             sigma_times: Optional[Iterable[int]] = None) -> WalkResult:
    """Run the whole walk; σ only after the steps in `sigma_times` (default:
    every step). An empty `sigma_times` stores no σ at all (sigma is None)."""
    wanted = None if sigma_times is None else set(sigma_times)
    rows = config.lengths().shape[:-1]
    per_step = np.zeros(rows + (config.steps,))
    sigma = None if wanted == set() else np.full(rows + (config.steps,), np.nan)
    state, horizon = None, 0
    for state, absorbed in iterate_walk(config):
        horizon = state.time
        per_step[..., horizon - 1] = absorbed
        if sigma is not None and (wanted is None or horizon in wanted):
            dist = probability_distribution(state)
            # std_dev gives NaN for an empty row; a single empty walk has no σ
            if rows or dist.mass() > 0.0:
                sigma[..., horizon - 1] = std_dev(dist)
    return WalkResult(
        record=AbsorptionRecord(per_step=per_step[..., :horizon], horizon=horizon),
        sigma=None if sigma is None else sigma[..., :horizon],
        final_state=state,
    )


def snapshot_distributions(
    config: WalkConfig, times: Iterable[int]
) -> list[PositionDistribution]:
    """Position distributions after each of `times` steps (post-absorption),
    sorted by time and taken from one pass of the walk. A snapshot after
    the walk was fully absorbed is empty."""
    wanted = sorted(set(times))
    bad = [t for t in wanted if not 0 < t <= config.steps]
    if bad:
        raise ConfigurationError(
            f"snapshot time must be in 1..{config.steps}, got {bad[0]}"
        )
    walk = iterate_walk(config)
    dists = []
    for t in wanted:
        for state, _ in walk:
            if state.time == t:
                dists.append(probability_distribution(state))
                break
        else:  # the walk was fully absorbed before t
            dists.append(PositionDistribution(
                time=t, positions=np.empty(0, dtype=np.int64),
                probs=np.empty(config.lengths().shape[:-1] + (0,))))
    return dists


def snapshot_distribution(
    config: WalkConfig, at_time: int
) -> PositionDistribution:
    """Position distribution after `at_time` steps (post-absorption)."""
    return snapshot_distributions(config, [at_time])[0]
