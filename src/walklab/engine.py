"""Walk engine: quantum kernels and the one walk pipeline of both engines.

A quantum time step is coin → shift → absorb. The shift moves the
left-mover component l sites down and the right-mover component l sites up;
l = 0 steps apply the coin but no movement. The absorber removes, every
step, all probability amplitude at or beyond its position (on its side of
the origin), and the removed mass is recorded as that step's absorption
probability. A classical step is the fair split `classical.crw_step`
followed by `classical.crw_apply_absorber`; a walk config's engine picks
only the initial state and that kernel pair, so both engines share the
config, the iterator, the runner and the snapshots.
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
    probability_distribution,
    std_dev,
)

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

    def window_slice(self, n_min: int, width: int) -> slice:
        """Indices of the absorbed region inside a window [n_min, n_min+width)."""
        if self.position > 0:
            return slice(max(self.position - n_min, 0), width)
        return slice(0, min(max(self.position - n_min + 1, 0), width))


def apply_coin(state: QuantumState, coin: CoinOperator) -> QuantumState:
    new = np.empty_like(state.psi)
    new[LEFT] = coin.a * state.psi[LEFT] + coin.c * state.psi[RIGHT]
    new[RIGHT] = coin.b * state.psi[LEFT] + coin.d * state.psi[RIGHT]
    return QuantumState(time=state.time, n_min=state.n_min, psi=new)


def apply_shift(state: QuantumState, l: int = 1) -> QuantumState:
    """Move the L component l sites down and the R component l sites up."""
    if l < 0:
        raise ConfigurationError(f"step length must be nonnegative, got {l}")
    if l == 0:
        return QuantumState(time=state.time, n_min=state.n_min,
                            psi=state.psi.copy())
    w = state.width
    new = np.zeros((2, w + 2 * l), dtype=np.complex128)
    new[LEFT, :w] = state.psi[LEFT]
    new[RIGHT, 2 * l:] = state.psi[RIGHT]
    return QuantumState(time=state.time, n_min=state.n_min - l, psi=new)


def step(state: QuantumState, coin: CoinOperator, l: int = 1) -> QuantumState:
    """One full evolution step (coin then shift); advances the step counter."""
    moved = apply_shift(apply_coin(state, coin), l)
    return QuantumState(time=state.time + 1, n_min=moved.n_min, psi=moved.psi)


def apply_absorber(
    state: QuantumState, absorber: AbsorberConfig
) -> tuple[QuantumState, float]:
    """Remove amplitude on the absorber's side; return (state, removed mass)."""
    sl = absorber.window_slice(state.n_min, state.width)
    if sl.start >= sl.stop:
        return state, 0.0
    absorbed = float(np.sum(np.abs(state.psi[:, sl]) ** 2))
    if absorbed == 0.0:
        return state, 0.0
    psi = state.psi.copy()
    psi[:, sl] = 0.0
    return QuantumState(time=state.time, n_min=state.n_min, psi=psi), absorbed


@dataclass
class AbsorptionRecord:
    """Per-step absorbed probabilities p_t for t = 1..horizon."""

    per_step: np.ndarray
    horizon: int

    @property
    def cumulative_total(self) -> float:
        return float(np.sum(self.per_step))

    def cumulative_series(self) -> np.ndarray:
        return np.cumsum(self.per_step)


ENGINES = ("quantum", "classical")


@dataclass
class WalkConfig:
    """Full specification of one walk run, quantum or classical.

    The classical engine starts from a point mass and ignores the coin and
    the initial coin amplitudes.
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
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.step_lengths is not None:
            lengths = np.asarray(self.step_lengths)
            if lengths.shape != (self.steps,):
                raise ConfigurationError(
                    f"step_lengths must have length {self.steps}, "
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

    sigma[t-1] is the standard deviation of the surviving (renormalized)
    position distribution after step t; NaN if that step absorbed all mass.
    """

    record: AbsorptionRecord
    sigma: np.ndarray
    final_state: WalkerState


def iterate_walk(config: WalkConfig) -> Iterator[tuple[WalkerState, float]]:
    """Yield (state after step t, mass absorbed at step t) for t = 1..steps.

    Stops early after a step that leaves no surviving mass: nothing evolves
    past that point.
    """
    if config.engine == "quantum":
        state = initial_quantum_state(
            config.initial_position, config.initial_amp_left,
            config.initial_amp_right,
        )

        def advance(current, l):
            return step(current, config.coin, l)

        absorb = apply_absorber
    else:
        state = initial_classical_state(config.initial_position)
        advance, absorb = crw_step, crw_apply_absorber
    for l in config.lengths():
        state = advance(state, int(l))
        absorbed = 0.0
        if config.absorber is not None:
            state, absorbed = absorb(state, config.absorber)
        yield state, absorbed
        # only absorption removes mass, so only a step that absorbed can empty
        if absorbed > 0.0 and state.mass() == 0.0:
            return


def run_walk(config: WalkConfig) -> WalkResult:
    per_step = []
    sigma = []
    state = None
    for state, absorbed in iterate_walk(config):
        per_step.append(absorbed)
        dist = probability_distribution(state)
        sigma.append(std_dev(dist) if dist.mass() > 0.0 else np.nan)
    return WalkResult(
        record=AbsorptionRecord(per_step=np.array(per_step), horizon=len(per_step)),
        sigma=np.array(sigma),
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
                time=t, positions=np.empty(0, dtype=np.int64), probs=np.empty(0)))
    return dists


def snapshot_distribution(
    config: WalkConfig, at_time: int
) -> PositionDistribution:
    """Position distribution after `at_time` steps (post-absorption)."""
    return snapshot_distributions(config, [at_time])[0]
