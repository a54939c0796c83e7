"""Walker states on the 1D integer lattice and distribution statistics.

A step of length l moves a walker's mass from site n to n ± l, so after
every step all of one walk's mass sits on sites of one parity. A state
stores only that sublattice: column j of a row of parity p is site
n_min + p + 2j, in two amplitude arrays (quantum: left- and right-mover,
float64 or complex128) or one probability array (classical) over a window
of columns. A leading row axis holds R independent walks (rows), each of
its own parity, on one shared window; masses, distributions and spreads
are taken per row.

The window is a view into one of two buffers in a fixed `Frame` that only
`engine.iterate_walk` allocates (`point_in_frame`). The walk advances one
state in place along one `Move` a step, which the step lengths alone fix:
`shift_window` moves the state to the next window in the spare buffer,
which the step kernel writes, and swaps the buffers, so a state is valid
only until the next step. Every step the window is cut at the absorber
(`cut_at`) and then ends, on each side, at its outermost column where some
row holds a value of at least its state class's `floor` (`trim`): the
columns dropped hold no probability that shows, and every column kept lies
within reach of the start. A row's sites lie two apart, so its σ is twice
the spread of its column index (`window_sigma`): no site array is built a
step.

Every entry point checks its arguments through one rule, `checked`: an
exact integer within optional bounds (2.0 reads as 2, 2.5 is an error), an
instance of a type, or one of a known set. Absorber sites (`AbsorberConfig`)
and step times (`step_times`) are read here, and each large array is checked
against the memory budget (`check_budget`, `check_matrix`) before it is made.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigurationError, EmptyStateError

# coin basis component indices
LEFT = 0
RIGHT = 1


def checked(name: str, value, kind=int, lo: Optional[int] = None,
            hi: Optional[int] = None):
    """The one argument rule: `value` if it is of `kind`, else a
    ConfigurationError that names `name`. Three forms:

    - `int` (the default): `value` as an int when it is exactly one (2.0
      reads as 2; a NaN, an infinity, a fraction or a non-number is refused),
      at least `lo` and at most `hi` when given (`hi` only with `lo`);
    - a type: `value` when it is an instance of it;
    - a collection: `value` when it is one of its members (an unhashable
      value is none).
    """
    if kind is int:
        try:
            as_int = int(value)
        except (TypeError, ValueError, OverflowError):
            as_int = None
        if as_int is None or as_int != value:
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if lo is not None and (as_int < lo or hi is not None and as_int > hi):
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ConfigurationError(f"{name} must be {bound}, got {as_int}")
        return as_int
    if isinstance(kind, type):
        if not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOU" else "a"
            raise ConfigurationError(f"{name} must be {article} {kind.__name__}, got {value!r}")
        return value
    try:
        if value in kind:
            return value
    except (TypeError, ValueError):  # unhashable, or an array's ambiguous truth
        pass
    raise ConfigurationError(f"unknown {name} {value!r} (known: {', '.join(kind)})")


# Largest array a run may ask for, each checked before it is allocated: a
# walk's window (all rows, both parities, at `engine.SITE_BYTES` a site), the
# (rows × steps) matrix of a walk's record or of an ensemble's, a disordered
# walk's step lengths and the terms of `classical.first_passage_series`. A
# walk's two buffers hold about one window in all; an ensemble peaks at 2.56
# matrices (the absorbing-time reduction) or 1.35 (the σ average), and the
# CLI writes its tables from their arrays in chunks of `cli.CHUNK_ROWS` rows.
# The series order has its own cap, `series.MAX_ORDER`.
MAX_ARRAY_BYTES = 2 ** 26


def check_budget(nbytes: int, needs: str) -> None:
    """Refuse an array of `nbytes` bytes beyond MAX_ARRAY_BYTES before it is
    allocated; `needs` says what would hold it, with {} for the bytes."""
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigurationError(
            f"{needs.format(nbytes)}, above the budget of {MAX_ARRAY_BYTES}")


def check_matrix(count: int, steps: int, of: str) -> None:
    """Refuse a (count × steps) matrix of 8-byte values, one per `of` and step."""
    check_budget(count * steps * 8,
                 f"{count} {of} × {steps} steps need {{}} bytes per matrix")


@dataclass(frozen=True)
class AbsorberConfig:
    """One absorbing boundary at a nonzero lattice position.

    For position > 0 it removes mass at sites n ≥ position; for position < 0
    at sites n ≤ position.
    """

    position: int

    def __post_init__(self) -> None:
        position = checked("absorber position", self.position)
        if position == 0:
            raise ConfigurationError("absorber position must be nonzero")
        object.__setattr__(self, "position", position)


def step_times(values: Optional[Iterable[int]], steps: int, what: str) -> np.ndarray:
    """The distinct times in `values` (None: every step), sorted, as int64.
    Each must be an exact integer in 1..steps, else a ConfigurationError
    names `what`."""
    if values is None:
        return np.arange(1, steps + 1, dtype=np.int64)
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    # not np.unique: its first call imports numpy.ma, about 1 MB of memory
    times = sorted({checked(what, t) for t in checked(f"{what}s", values, Iterable)})
    if times:  # the end that is out of range, if one is
        checked(what, times[0] if times[0] < 1 else times[-1], lo=1, hi=steps)
    return np.array(times, dtype=np.int64)


class Frame(NamedTuple):
    """Two buffers over one column frame: column k holds site
    origin + p + 2k in a row of parity p. `live` holds the window, `spare`
    is what the next step writes."""

    origin: int
    live: np.ndarray
    spare: np.ndarray


class Move(NamedTuple):
    """One step's geometry, which the step lengths alone fix. A row of
    parity p moves by l to parity (p + l) & 1, its column k to k + up and
    k + up − l (up = (p + l) >> 1). The next window runs from `low` columns
    past the current first column to `high` past the current end. One
    walk: ints, its images `length` columns apart. A block: `length` and
    `parity` per row, and `starts` of each row's down and up image in the
    flat spare buffer from that first column.
    """

    length: Union[int, np.ndarray]
    parity: Union[int, np.ndarray]
    low: int
    high: int
    starts: Optional[np.ndarray] = None


@dataclass
class WalkerState:
    """A quantum or classical state: the time, the site n_min of the
    window's first column, the window array `values` (a view into
    `frame.live`), the row parity (one per row for a block) and the frame."""

    time: int
    n_min: int
    values: np.ndarray
    parity: Union[int, np.ndarray]
    frame: Frame

    @property
    def width(self) -> int:
        return self.values.shape[-1]

    @property
    def positions(self) -> np.ndarray:
        """Sites of the window's columns: one row per walk for a block."""
        sites = self.n_min + 2 * np.arange(self.width)
        if isinstance(self.parity, np.ndarray):
            return sites + self.parity[:, np.newaxis]
        return sites + self.parity

    def mass(self):
        return self.mass_of(self.values)


class QuantumState(WalkerState):
    """Coin ⊗ position amplitudes over a window of parity columns: `values`
    has shape ([rows,] 2, width), L = 0, R = 1, float64 when the walk's coin
    and start are real (its amplitudes stay real), else complex128."""

    # far below the 2^-537 or so whose square is the least positive float:
    # a dropped column holds no probability that shows, nor could it change
    # the rounding of an amplitude whose square is nonzero
    floor = 2.0 ** -600

    @property
    def psi(self) -> np.ndarray:
        return self.values

    @staticmethod
    def mass_of(values: np.ndarray):
        return (np.abs(values) ** 2).sum(axis=(-2, -1))


class ClassicalState(WalkerState):
    """Probability mass over a window of parity columns: `values` is float64
    of shape ([rows,] width)."""

    floor = 5e-324  # the least positive float: a zero column stays zero

    @property
    def prob(self) -> np.ndarray:
        return self.values

    @staticmethod
    def mass_of(values: np.ndarray):
        return values.sum(axis=-1)


def keep_columns(state, start: int, stop: int) -> None:
    """Cut the state's window to its columns start..stop − 1."""
    state.n_min += 2 * start
    state.values = state.values[..., start:stop]


def shift_window(state, move: Move):
    """Advance the state to the window of the step `move` in the spare
    buffer, which the step then writes, and swap the buffers. Returns the
    window it held, the step's input, and for a block a flat view of the
    new buffer that `move.starts` index: its row q is the input's width of
    elements from q elements past the first column of the new window."""
    origin, live, spare = state.frame
    values, rows = state.values, None
    width = values.shape[-1]
    lo = (state.n_min - origin) >> 1
    start, stop = lo + move.low, lo + width + move.high
    if move.starts is not None:
        size = spare.itemsize
        rows = np.ndarray((spare.size - start - width + 1, width), spare.dtype, spare,
                          start * size, (size, size))
    state.time += 1
    state.n_min = origin + 2 * start
    state.values = spare[..., start:stop]
    state.parity = move.parity
    state.frame = Frame(origin, spare, live)
    return values, rows


def trim(state) -> None:
    """End the window, on each side, at its outermost column where some row
    holds a value of magnitude at least the state's `floor`; no columns are
    left when none does."""
    values, floor = state.values, state.floor
    width = values.shape[-1]
    start, stop = 0, width
    if isinstance(state.parity, np.ndarray):  # a block: a column of all rows at once
        lines = values.reshape(-1, width)
        while stop > start and not (np.abs(lines[:, stop - 1]) >= floor).any():
            stop -= 1
        while start < stop and not (np.abs(lines[:, start]) >= floor).any():
            start += 1
    else:  # one walk: Python scalars, far cheaper than a reduction
        at = values.reshape(-1, width).item  # (line, column): L and R, or one line
        while stop > start and not (abs(at(0, stop - 1)) >= floor
                                    or abs(at(-1, stop - 1)) >= floor):
            stop -= 1
        while start < stop and not (abs(at(0, start)) >= floor or abs(at(-1, start)) >= floor):
            start += 1
    if stop - start < width:
        keep_columns(state, start, stop)


def cut_at(state, position: int):
    """Cut the window at an absorber at `position` (sites n ≥ position, or
    n ≤ position for position < 0); returns the cut mass (per row for a
    block), 0.0 when no column is cut. The frame's origin has the parity of
    the absorber (or of the site after it, if left; see `engine.frame_span`),
    so column (position − n_min + 1) >> 1 is the first cut (right) or first
    kept (left) column for rows of either parity."""
    values = state.values
    width = values.shape[-1]
    edge = min(max((position - state.n_min + 1) >> 1, 0), width)
    if position > 0:
        cut = values[..., edge:]
        keep_columns(state, 0, edge)
    else:
        cut = values[..., :edge]
        keep_columns(state, edge, width)
    return state.mass_of(cut) if cut.shape[-1] else 0.0


def point_in_frame(kind, site: np.ndarray, origin: int, columns: int, rows: tuple):
    """A `kind` state at time 0 whose every one of `rows` holds `site` (the
    coin amplitudes, or the probability) at site 0, in a fresh pair of
    buffers of `columns` columns from `origin`."""
    live = np.empty(rows + site.shape + (columns,), site.dtype)
    spare = np.empty_like(live)
    k = -origin >> 1
    live[..., k] = site
    return kind(0, origin + 2 * k, live[..., k:k + 1], -origin & 1,
                Frame(origin, live, spare))


@dataclass
class PositionDistribution:
    """Probabilities by lattice site at a fixed time; mass may be < 1."""

    time: int
    positions: np.ndarray
    probs: np.ndarray  # shape ([rows,] sites)

    def mass(self):
        return self.probs.sum(axis=-1)


def _column_probs(state) -> np.ndarray:
    """Probabilities of the window's columns (per row): the state's own
    array for a classical state."""
    if isinstance(checked("state", state, WalkerState), QuantumState):
        psi = state.psi
        return np.abs(psi[..., LEFT, :]) ** 2 + np.abs(psi[..., RIGHT, :]) ** 2
    return state.prob


def probability_distribution(state) -> PositionDistribution:
    """Site-by-site probabilities of a quantum or classical state (per row)."""
    probs = _column_probs(state)
    if probs is state.values:
        probs = probs.copy()
    return PositionDistribution(time=state.time, positions=state.positions,
                                probs=probs)


def _spread(probs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Standard deviation of `coords` (one per column, or one row per row)
    under the renormalized `probs`, one per row; NaN for a row without mass.

    Each row is centred on its heaviest column before the two passes (the
    mean, then the centred second moment), so a point mass reads exactly 0
    and σ loses nothing to rounding when it is small next to the mean.
    """
    if not probs.shape[-1]:
        return np.full(probs.shape[:-1], np.nan)
    mass = probs.sum(axis=-1)
    # a row without mass: x / NaN gives NaN, with no 0/0 warning
    mass = np.where(mass > 0.0, mass, np.nan)
    heaviest = probs.argmax(axis=-1)
    if coords.ndim == 1:  # one coordinate per column, shared by any rows
        centre = coords[heaviest]
    else:
        centre = np.take_along_axis(coords, heaviest[..., np.newaxis], -1)[..., 0]
    dev = np.subtract(coords, centre[..., np.newaxis], dtype=np.float64)
    weighted = dev * probs
    mean = weighted.sum(axis=-1) / mass
    dev -= mean[..., np.newaxis]
    np.multiply(dev, probs, out=weighted)
    weighted *= dev
    return np.sqrt(weighted.sum(axis=-1) / mass)


def std_dev(dist: PositionDistribution):
    """Standard deviation of position under the (renormalized) distribution.

    With rows, one spread per row, NaN for a row without mass; a single
    distribution without mass raises EmptyStateError.
    """
    if checked("dist", dist, PositionDistribution).probs.ndim == 1 and dist.mass() <= 0.0:
        raise EmptyStateError("zero-mass distribution has no spread")
    sigma = _spread(dist.probs, dist.positions)
    return float(sigma) if dist.probs.ndim == 1 else sigma


def window_sigma(state) -> np.ndarray:
    """σ of a state's sites (per row; NaN for a row without mass) from its
    column probabilities: a row's sites lie two apart, so σ is twice the
    spread of the column index, and the sites themselves are never built."""
    index = np.arange(state.width, dtype=np.float64)
    return 2.0 * _spread(_column_probs(state), index)
