"""Walk engine: quantum kernels and the one walk pipeline of both engines.

A quantum time step is coin → shift → absorb. The shift moves the
left-mover component l sites down and the right-mover component l sites up;
l = 0 steps apply the coin but no movement. The absorber is an edge of the
window: every step it cuts off the sites at or beyond its position (on its
side of the origin), whose mass is that step's absorption probability, so
absorbed sites are never stored. A classical step is the fair split
`classical.crw_step` followed by `classical.crw_apply_absorber`; a walk
config's engine picks only the initial state and that kernel pair, so both
engines share the config, the iterator, the runner (whose result holds
the absorbed p_t as one array, `WalkResult.per_step`) and the snapshots.
Step lengths shaped (R, steps) run R independent walks (rows) at once on
one shared window; every kernel works row by row.

A quantum walk whose four coin entries and two start amplitudes are all
real keeps every amplitude real, so it stores float64 amplitudes; any other
(say the complex kempe coin, or a complex start) stores complex128. On real
inputs complex arithmetic adds only ±0 imaginary parts, so p_t and σ are the
same, bit for bit, at half the bytes a step.

`iterate_walk` is one planned loop. It allocates a walk's two buffers
once (see `lattice`) and derives each step's `lattice.Move` from the step
lengths alone: Python ints for one walk; for a block of rows, the row
parities and image starts in a few row-sized operations a step. A kernel
then only does the arithmetic, writing the coin's output straight to its
place in the spare buffer (plain slices for one walk, one indexed copy for
a block). After the cut at the absorber, one rule ends the window of
either engine at its outermost live column (`lattice.trim`), and an empty
window, no row holding mass, ends a walk.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .classical import crw_apply_absorber, crw_step
from .errors import ConfigurationError
from .lattice import (
    LEFT,
    RIGHT,
    MAX_ARRAY_BYTES,  # read by callers as walklab.engine.MAX_ARRAY_BYTES too
    AbsorberConfig,
    ClassicalState,
    Move,
    PositionDistribution,
    QuantumState,
    WalkerState,
    check_budget,
    check_matrix,
    checked,
    cut_at,
    point_in_frame,
    probability_distribution,
    shift_window,
    step_times,
    trim,
    window_sigma,
)

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
        for entry in "abcd":
            checked(f"coin entry {entry}", getattr(self, entry), numbers.Number)
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
    return _COIN_FACTORIES[checked("coin", name, _COIN_FACTORIES)]()


def step(state: QuantumState, coin: CoinOperator, move: Move) -> QuantumState:
    """One full evolution step along `move` of the state of `iterate_walk`,
    in place: apply `coin` and move the L component l sites down and the R
    component l sites up (one l, or one per row), writing into the spare
    buffer; overwrites the input window."""
    psi, rows = shift_window(state, move)
    src_l, src_r = psi[..., LEFT, :], psi[..., RIGHT, :]
    if rows is None:  # one walk: plain slices, l apart
        out, width, l = state.values, psi.shape[-1], move.length
        left, right = out[..., LEFT, :width], out[..., RIGHT, l:]
        # a·L + c·R and b·L + d·R with no temporary: each cross term
        # is written first, then each source scaled in place and added
        np.multiply(src_r, coin.c, out=left)
        np.multiply(src_l, coin.b, out=right)
        np.add(left, np.multiply(src_l, coin.a, out=src_l), out=left)
        np.add(right, np.multiply(src_r, coin.d, out=src_r), out=right)
        out[..., LEFT, width:] = out[..., RIGHT, :l] = 0
        return state
    # a block: coin in place (the input window is spent), then one indexed
    # copy puts every row's L and R image at its start
    cross_l, cross_r = coin.c * src_r, coin.b * src_l
    np.add(np.multiply(src_l, coin.a, out=src_l), cross_l, out=src_l)
    np.add(np.multiply(src_r, coin.d, out=src_r), cross_r, out=src_r)
    state.values[...] = 0
    rows[move.starts] = psi
    return state


def apply_absorber(state: QuantumState, absorber: AbsorberConfig):
    """Cut the window at the absorber; return (the state, the mass of the
    cut sites), the cut mass per row for a state with rows."""
    return state, cut_at(state, absorber.position)


# bytes per site of each engine's window, as the budget counts them: complex
# L and R amplitudes, or one probability (a real quantum walk stores half)
SITE_BYTES = {"quantum": 2 * 16, "classical": 8}


@dataclass
class WalkConfig:
    """Full specification of one walk run, quantum or classical.

    Every walk starts at site 0 (a start elsewhere is the same walk with the
    absorber moved). The classical engine starts from a point mass and
    ignores the coin and the initial coin amplitudes. Step lengths shaped
    (R, steps) run R walks at once, one per row. A field of the wrong type
    is a ConfigurationError that names it.
    """

    steps: int
    engine: str = "quantum"
    coin: CoinOperator = field(default_factory=hadamard_coin)
    initial_amp_left: complex = 1.0
    initial_amp_right: complex = 0.0
    absorber: Optional[AbsorberConfig] = None
    step_lengths: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        checked("engine", self.engine, SITE_BYTES)
        self.steps = checked("steps", self.steps, lo=1)
        if self.absorber is not None:
            checked("absorber", self.absorber, AbsorberConfig)
        if self.engine == "quantum":  # the classical engine ignores coin and amplitudes
            checked("coin", self.coin, CoinOperator)
            amps = (checked("initial_amp_left", self.initial_amp_left, numbers.Number),
                    checked("initial_amp_right", self.initial_amp_right, numbers.Number))
            norm = abs(amps[0]) ** 2 + abs(amps[1]) ** 2
            if abs(norm - 1.0) > 1e-12:
                raise ConfigurationError(
                    f"initial coin amplitudes must be normalized, got |.|^2 = {norm}"
                )
        if self.step_lengths is not None:
            try:
                lengths = np.asarray(self.step_lengths)
            except ValueError:  # a ragged nesting
                raise ConfigurationError("step_lengths must not be ragged") from None
            if lengths.ndim not in (1, 2) or lengths.shape[-1] != self.steps \
                    or lengths.size == 0:
                raise ConfigurationError(
                    f"step_lengths must have length {self.steps} (per row), "
                    f"got {lengths.shape}"
                )
            if lengths.dtype.kind not in "iu":  # read one by one: 2.0 is 2, 2.5 an error
                exact = [checked("step length", v) for v in lengths.ravel().tolist()]
                self.step_lengths = lengths = np.array(exact).reshape(lengths.shape)
            if np.any(lengths < 0):
                raise ConfigurationError("step lengths must be nonnegative integers")

    @property
    def rows(self) -> tuple:
        """The leading row axis of the walk's arrays: () for one walk."""
        return () if self.step_lengths is None else np.shape(self.step_lengths)[:-1]


def real_amplitudes(config: WalkConfig) -> bool:
    """True for a quantum walk whose coin entries and start amplitudes all
    have zero imaginary part: its amplitudes stay real."""
    c = config.coin
    return config.engine == "quantum" and not any(
        complex(v).imag for v in (c.a, c.b, c.c, c.d, config.initial_amp_left,
                                  config.initial_amp_right))


def frame_span(farthest: int, longest: int, absorber: Optional[AbsorberConfig],
               rows: int) -> tuple[int, int]:
    """(origin, columns) of the frame a walk's two buffers share.

    It holds every site within `farthest` of the start, site 0, and for
    several rows `longest` + 1 more on each side: rows are placed whole, so
    before the trim a block's window may run one longest step past the
    reach, and a window column may hold a site one past it for the rows of
    the other parity. Past an absorber it holds only the `longest` sites a
    step can carry mass beyond it. The origin takes the absorber's parity
    (or the one after it, for a left absorber), so that the cut falls
    between two columns for either row parity.
    """
    pad = longest + 1 if rows > 1 else 0
    lo, hi = -farthest - pad, farthest + pad
    parity = lo
    if absorber is not None:
        a = absorber.position
        if a > 0:
            hi, parity = min(hi, a - 1 + longest), a
        else:
            lo, parity = max(lo, a + 1 - longest), a + 1
    origin = lo - ((lo - parity) & 1)
    return origin, (hi - origin) // 2 + 1


@dataclass
class WalkResult:
    """Outcome of a full run. per_step[..., t-1] is the probability absorbed
    at step t, up to the last step run; sigma[..., t-1] is the standard
    deviation of the surviving (renormalized) position distribution after
    step t; NaN if that step left no mass, or if σ was not asked for at t.
    None if σ was asked for at no t.
    """

    per_step: np.ndarray  # shape ([rows,] horizon)
    sigma: Optional[np.ndarray]
    final_state: WalkerState


def _moves(lengths: Optional[np.ndarray], steps: int, origin: int, columns: int,
           components: int) -> Iterator[Move]:
    """Each step's `Move` for a walk that starts at parity −origin & 1 in a
    frame of `columns` columns of `components` arrays a row: Python ints for
    one walk; for a block, each step's row parities and image starts."""
    parity = -origin & 1
    if lengths is None or lengths.ndim == 1:
        for l in itertools.repeat(1, steps) if lengths is None else lengths.tolist():
            moved = parity + l
            parity = moved & 1
            yield Move(l, parity, (moved >> 1) - l, moved >> 1)
        return
    # row r's L (or only) array starts at element r·components·columns of the
    # flat buffer, its R array `columns` later
    base = np.arange(len(lengths))[:, np.newaxis] * (components * columns) \
        + np.array([0, (components - 1) * columns])
    parities = np.full(len(lengths), parity)
    for l in lengths.T:
        moved = parities + l
        parities = moved & 1
        up = moved >> 1
        low = int((up - l).min())
        starts = base - low + up[:, np.newaxis]
        starts[:, 0] -= l
        yield Move(l, parities, low, int(up.max()), starts)


def iterate_walk(config: WalkConfig) -> Iterator[tuple[WalkerState, float]]:
    """Yield (state after step t, mass absorbed at step t) for t = 1..steps.

    A yielded state is valid until the next step, which overwrites it. Every
    step is the kernel, the cut at the absorber and `lattice.trim`, so for
    either engine, one walk or a block, the window ends on each side at its
    outermost column where some row holds a value of at least its state's
    `floor`, and lies within the columns the rows can have reached. Stops
    early after a step that leaves every row without such a value, whose
    window is empty: nothing evolves past that point. The walk allocates its
    two buffers before the first step, float64 for real amplitudes (see
    `real_amplitudes`) and complex128 otherwise; a walk whose window could
    pass MAX_ARRAY_BYTES at SITE_BYTES is refused before that.
    """
    lengths = checked("config", config, WalkConfig).step_lengths
    if lengths is None:
        count, farthest, longest = 1, config.steps, 1
    else:
        lengths = np.asarray(lengths)
        # float sums do not wrap, and are exact for any walk within the budget
        sums = lengths.sum(axis=-1, dtype=np.float64)
        count, farthest, longest = sums.size, int(sums.max()), int(lengths.max())
    sites = 1 + 2 * farthest
    check_budget(count * sites * SITE_BYTES[config.engine],
                 f"a walk window of {count} row(s) × {sites} sites needs {{}} bytes")
    if lengths is not None:  # for the plan: an unsigned up − l would wrap
        lengths = lengths.astype(np.int64, copy=False)
    if config.engine == "quantum":
        coin, amps = config.coin, (config.initial_amp_left, config.initial_amp_right)
        kind, site = QuantumState, np.array(amps, np.complex128)
        if real_amplitudes(config):
            coin = replace(coin, **{k: complex(getattr(coin, k)).real for k in "abcd"})
            site = site.real

        def advance(current, move):
            return step(current, coin, move)

        absorb = apply_absorber
    else:
        kind, site = ClassicalState, np.array(1.0)
        advance, absorb = crw_step, crw_apply_absorber
    origin, columns = frame_span(farthest, longest, config.absorber, count)
    state = point_in_frame(kind, site, origin, columns, config.rows)
    absorber = config.absorber
    for move in _moves(lengths, config.steps, origin, columns, site.size):
        state, absorbed = advance(state, move), 0.0
        if absorber is not None:
            state, absorbed = absorb(state, absorber)
        trim(state)
        yield state, absorbed
        if not state.width:  # no row holds mass
            return


def record_walk(config: WalkConfig, per_step: Optional[np.ndarray],
                sigma: Optional[np.ndarray], columns: dict[int, int]):
    """Run `config`, writing p_t to per_step[..., t − 1] (unless per_step is
    None) and σ after step t to sigma[..., columns[t]] for each t in
    `columns` (NaN for a row without mass); returns (the final state, the
    last step run)."""
    state, horizon = None, 0
    for state, absorbed in iterate_walk(config):
        horizon = state.time
        if per_step is not None:
            per_step[..., horizon - 1] = absorbed
        column = columns.get(horizon)
        if column is not None:
            sigma[..., column] = window_sigma(state)
    return state, horizon


def run_walk(config: WalkConfig,
             sigma_times: Optional[Iterable[int]] = None) -> WalkResult:
    """Run the whole walk; σ only after the steps in `sigma_times` (see
    `lattice.step_times`). An empty `sigma_times` stores no σ at all (sigma
    is None). A (rows × steps) record beyond the budget is refused first."""
    shape = checked("config", config, WalkConfig).rows + (config.steps,)
    check_matrix(math.prod(config.rows), config.steps, "row(s)")
    times = step_times(sigma_times, config.steps, "sigma time").tolist()
    per_step = np.zeros(shape)
    sigma = np.full(shape, np.nan) if times else None
    state, horizon = record_walk(config, per_step, sigma,
                                 {t: t - 1 for t in times})
    return WalkResult(
        per_step=per_step[..., :horizon],
        sigma=None if sigma is None else sigma[..., :horizon],
        final_state=state,
    )


def snapshot_distributions(
    config: WalkConfig, times: Iterable[int]
) -> list[PositionDistribution]:
    """Position distributions after each of `times` steps (post-absorption),
    sorted by time and taken from one pass of the walk. A snapshot after
    the walk was fully absorbed is empty."""
    walk = iterate_walk(checked("config", config, WalkConfig))
    dists = []
    for t in step_times(times, config.steps, "snapshot time").tolist():
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
