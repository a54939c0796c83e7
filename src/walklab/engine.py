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

States store one parity sublattice per row (see `lattice`). A walk
allocates its two buffers once, over a frame that holds every site it can
reach; a step writes the coin's output straight into its shifted place in
the spare buffer, so no step allocates a window. Rows that move alike move
by plain slices; rows that move by different amounts move by one indexed
copy of all rows.
"""
from __future__ import annotations

import itertools
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
    cut_window,
    image,
    initial_classical_state,
    initial_quantum_state,
    place_rows,
    plan_move,
    point_in_frame,
    probability_distribution,
    row_sum,
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


def _evolve(state: QuantumState, coin: Optional[CoinOperator], l,
            within: Optional[tuple[int, int]] = None) -> QuantumState:
    """Apply `coin` (None: none) and move the components l sites apart,
    writing into the spare buffer; overwrites the input window."""
    move, moved = plan_move(state, l, within)
    out, start, stop, lo, hi, base, down, up = move
    psi = state.psi
    if isinstance(down, int):  # every row moves alike: plain slices
        width = psi.shape[-1]
        (to_l, from_l), (to_r, from_r) = (image(move, down, width),
                                          image(move, up, width))
        left, right = out[..., LEFT, to_l], out[..., RIGHT, to_r]
        src_l, src_r = psi[..., LEFT, from_l], psi[..., RIGHT, from_r]
        if coin is None:
            left[...], right[...] = src_l, src_r
        else:
            # a·L + c·R and b·L + d·R with no temporary: each cross term
            # is written first, then each source scaled in place and added
            np.multiply(psi[..., RIGHT, from_l], coin.c, out=left)
            np.multiply(psi[..., LEFT, from_r], coin.b, out=right)
            np.add(left, np.multiply(src_l, coin.a, out=src_l), out=left)
            np.add(right, np.multiply(src_r, coin.d, out=src_r), out=right)
        for channel, image_to in ((LEFT, to_l), (RIGHT, to_r)):
            if image_to.start > lo:
                out[..., channel, lo:image_to.start] = 0
            if image_to.stop < hi:
                out[..., channel, image_to.stop:hi] = 0
        return moved
    if coin is not None:  # in place: the input window is spent
        left, right = psi[:, LEFT], psi[:, RIGHT]
        cross_l, cross_r = coin.c * right, coin.b * left
        np.add(np.multiply(left, coin.a, out=left), cross_l, out=left)
        np.add(np.multiply(right, coin.d, out=right), cross_r, out=right)
    span = out[..., start:stop]
    span[...] = 0
    place_rows(span, psi, base - start + np.stack([down, up], axis=1))
    return moved


def apply_coin(state: QuantumState, coin: CoinOperator) -> QuantumState:
    """Apply the coin at every site; overwrites the input state's window."""
    return _evolve(state, coin, 0)


def apply_shift(state: QuantumState, l=1) -> QuantumState:
    """Move the L component l sites down and the R component l sites up.

    `l` is one length, or one per row; the window grows by the longest.
    """
    return _evolve(state, None, l)


def step(state: QuantumState, coin: CoinOperator, l=1,
         within: Optional[tuple[int, int]] = None) -> QuantumState:
    """One full evolution step (coin then shift); advances the step counter.

    The new window is cut to the sites `within` (lo, hi) when given. The
    step overwrites the input state's window.
    """
    moved = _evolve(state, coin, l, within)
    moved.time += 1
    return moved


def apply_absorber(
    state: QuantumState, absorber: AbsorberConfig
) -> tuple[QuantumState, float]:
    """Cut the window at the absorber; return (a view of the kept sites, the
    mass of the cut sites), the cut mass per row for a state with rows."""
    return cut_window(state, absorber.position)


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

    @property
    def rows(self) -> tuple:
        """The leading row axis of the walk's arrays: () for one walk."""
        return () if self.step_lengths is None else np.shape(self.step_lengths)[:-1]


def frame_span(start: int, farthest: int, longest: int,
               absorber: Optional[AbsorberConfig], rows: int) -> tuple[int, int]:
    """(origin, columns) of the frame a walk's two buffers share.

    It holds every site within `farthest` of `start`, and for several rows
    `longest` + 1 more on each side: rows that move by different amounts
    are placed whole before the window is cut to their reach, and a window
    column may hold a site one past the reach for the rows of the other
    parity. Past an absorber it holds only the `longest` sites a step can
    carry mass beyond it. The origin takes the absorber's parity (or the
    one after it, for a left absorber), so that the cut falls between two
    columns for either row parity.
    """
    pad = longest + 1 if rows > 1 else 0
    lo, hi = start - farthest - pad, start + farthest + pad
    parity = lo
    if absorber is not None:
        a = absorber.position
        if a > 0:
            hi, parity = min(hi, max(a - 1, start) + longest), a
        else:
            lo, parity = max(lo, min(a + 1, start) - longest), a + 1
    origin = lo - ((lo - parity) & 1)
    return origin, (hi - origin) // 2 + 1


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

    A yielded state is valid until the next step, which overwrites it. Stops
    early after a step that leaves every row without surviving mass: nothing
    evolves past that point. Rows share one window: the columns within the
    farthest any row has moved from the start, up to the absorber. The walk
    allocates its two buffers before the first step; a walk whose window
    could pass MAX_ARRAY_BYTES is refused before that.
    """
    lengths = config.step_lengths
    if lengths is None:
        count, farthest, longest = 1, config.steps, 1
    else:
        lengths = np.asarray(lengths)
        sums = np.sum(lengths, axis=-1)
        count, farthest, longest = np.size(sums), int(np.max(sums)), int(lengths.max())
    sites = 1 + 2 * farthest
    nbytes = count * sites * SITE_BYTES[config.engine]
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigurationError(
            f"a walk window of {count} row(s) × {sites} sites needs {nbytes} "
            f"bytes, above the budget of {MAX_ARRAY_BYTES}"
        )
    n0 = config.initial_position
    if config.engine == "quantum":
        start = initial_quantum_state(n0, config.initial_amp_left,
                                      config.initial_amp_right)

        def advance(current, l, within):
            return step(current, config.coin, l, within)

        absorb = apply_absorber
    else:
        start = initial_classical_state(n0)
        advance, absorb = crw_step, crw_apply_absorber
    rows = config.rows
    state = point_in_frame(
        start, *frame_span(n0, farthest, longest, config.absorber, count), rows)
    if lengths is None:
        schedule = zip(itertools.repeat(1, config.steps), itertools.repeat(None))
    elif lengths.ndim == 1:
        schedule = zip(lengths.tolist(), itertools.repeat(None))
    else:
        # a step widens the window by its longest row length; cut it back to
        # the farthest any row has moved (no row has mass beyond that)
        reach = np.cumsum(lengths, axis=-1).max(axis=0).tolist()
        schedule = ((l, (n0 - r, n0 + r)) for l, r in zip(lengths.T, reach))
    for l, within in schedule:
        state = advance(state, l, within)
        if config.absorber is None:
            yield state, 0.0
            continue
        state, absorbed = absorb(state, config.absorber)
        yield state, absorbed
        # only absorption removes mass, so only a step that absorbed can empty
        if (absorbed.any() if rows else absorbed) and state.is_empty():
            return


def record_walk(config: WalkConfig, per_step: Optional[np.ndarray],
                sigma: Optional[np.ndarray], columns: dict[int, int]):
    """Run `config`, writing p_t to per_step[..., t − 1] (unless per_step is
    None) and σ after step t to sigma[..., columns[t]] for each t in
    `columns`; returns (the final state, the last step run)."""
    state, horizon = None, 0
    for state, absorbed in iterate_walk(config):
        horizon = state.time
        if per_step is not None:
            per_step[..., horizon - 1] = absorbed
        column = columns.get(horizon)
        if column is not None:
            dist = probability_distribution(state)
            # std_dev gives NaN for an empty row; a single empty walk has no σ
            if config.rows or dist.mass() > 0.0:
                sigma[..., column] = std_dev(dist)
    return state, horizon


def run_walk(config: WalkConfig,
             sigma_times: Optional[Iterable[int]] = None) -> WalkResult:
    """Run the whole walk; σ only after the steps in `sigma_times` (default:
    every step). An empty `sigma_times` stores no σ at all (sigma is None)."""
    times = range(1, config.steps + 1) if sigma_times is None else set(sigma_times)
    shape = config.rows + (config.steps,)
    per_step = np.zeros(shape)
    sigma = np.full(shape, np.nan) if times else None
    state, horizon = record_walk(config, per_step, sigma,
                                 {t: t - 1 for t in times})
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
                probs=np.empty(config.rows + (0,))))
    return dists


def snapshot_distribution(
    config: WalkConfig, at_time: int
) -> PositionDistribution:
    """Position distribution after `at_time` steps (post-absorption)."""
    return snapshot_distributions(config, [at_time])[0]
