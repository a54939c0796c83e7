"""Walker states on the 1D integer lattice and distribution statistics.

A step of length l moves a walker's mass from site n to n ± l, so after
every step all of one walk's mass sits on sites of one parity. A state
stores only that sublattice: column j of a row of parity p is site
n_min + p + 2j. A quantum state stores two complex amplitude arrays
(left-mover and right-mover components) over a window of such columns; a
classical state stores one probability array over the same kind of window.
A walk's window holds the columns within reach of its start, cut at the
absorber: no site outside it carries surviving mass, so propagation is
exact. Every array may carry a leading row axis: R independent walks (rows)
on one shared window of columns, whose masses, distributions and spreads
are taken per row. Rows may differ in parity, so `positions` is then per
row.

The window is a view into one of two buffers in a fixed `Frame`. A step
writes the next window into the spare buffer and hands the old one over as
the next spare, so a walk allocates its buffers once; in exchange a step
consumes its input, and a state is valid only until the next step.
`plan_move` places the next window; a block of rows is placed whole, and
`clamped` cuts its window back to the reach, a view like `cut_window`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigurationError, EmptyStateError

# coin basis component indices
LEFT = 0
RIGHT = 1


def row_sum(values: np.ndarray, walk_ndim: int):
    """Sum over one walk's axes (the last `walk_ndim`): a float for a single
    walk, one sum per row when `values` has a leading row axis."""
    if values.ndim == walk_ndim:
        return float(values.sum())
    return values.reshape(values.shape[0], -1).sum(axis=1)


def step_lengths(l):
    """`l` as one int, or as one length per row; every length must be
    nonnegative."""
    if isinstance(l, (int, np.integer)) or np.ndim(l) == 0:
        l = shortest = int(l)
    else:
        l = np.asarray(l)
        shortest = int(l.min())
    if shortest < 0:
        raise ConfigurationError(f"step length must be nonnegative, got {shortest}")
    return l


def place_rows(out: np.ndarray, values: np.ndarray, starts: np.ndarray) -> None:
    """Add each row of `values` (its last axis) into the same row of `out`
    from column starts[row] on; `starts` has the leading shape of both."""
    width = values.shape[-1]
    windows = as_strided(out, out.shape[:-1] + (out.shape[-1] - width + 1, width),
                         out.strides + out.strides[-1:])
    rows = np.arange(len(starts)).reshape((-1,) + (1,) * (starts.ndim - 1))
    lead = (rows,) if starts.ndim == 1 else (rows, np.arange(starts.shape[1]))
    windows[lead + (starts,)] += values


class Frame(NamedTuple):
    """Two buffers over one column frame: column k holds site
    origin + p + 2k in a row of parity p. `live` holds the window, `spare`
    is what the next step writes (None: that step allocates it)."""

    origin: int
    live: np.ndarray
    spare: Optional[np.ndarray]


class _Window:
    """What both states share: each is a dataclass of (time, n_min, its
    window array, parity, frame), and `values` is the window array."""

    @property
    def width(self) -> int:
        return self.values.shape[-1]

    @property
    def positions(self) -> np.ndarray:
        """Sites of the window's columns: one row per walk when the rows
        differ in parity."""
        sites = self.n_min + 2 * np.arange(self.width)
        if isinstance(self.parity, np.ndarray):
            return sites + self.parity[:, np.newaxis]
        return sites + self.parity

    def is_empty(self) -> bool:
        """True when no row holds a nonzero amplitude or probability."""
        return not self.values.any()

    def mass(self):
        return self.mass_of(self.values)

    def with_window(self, time: int, n_min: int, values: np.ndarray,
                    parity, frame: Optional[Frame]):
        return type(self)(time, n_min, values, parity, frame)


@dataclass
class QuantumState(_Window):
    """Coin ⊗ position amplitudes over a window of parity columns."""

    time: int
    n_min: int
    psi: np.ndarray  # complex128, shape ([rows,] 2, width); L = 0, R = 1
    parity: Union[int, np.ndarray] = 0  # per row when the rows differ
    frame: Optional[Frame] = None

    @property
    def values(self) -> np.ndarray:
        return self.psi

    @staticmethod
    def mass_of(values: np.ndarray):
        return row_sum(np.abs(values) ** 2, 2)


@dataclass
class ClassicalState(_Window):
    """Probability mass over a window of parity columns."""

    time: int
    n_min: int
    prob: np.ndarray  # float64, shape ([rows,] width)
    parity: Union[int, np.ndarray] = 0  # per row when the rows differ
    frame: Optional[Frame] = None

    @property
    def values(self) -> np.ndarray:
        return self.prob

    @staticmethod
    def mass_of(values: np.ndarray):
        return row_sum(values, 1)


def _parity_range(parity) -> tuple[int, int]:
    """(lowest, highest) parity of the rows."""
    if isinstance(parity, np.ndarray):
        return int(parity.min()), int(parity.max())
    return parity, parity


def plan_move(state, l):
    """Plan one step of length `l` (one, or one per row) of `state`.

    A row of parity p moves to parity p' = (p + l) mod 2, and its column k
    to k + (p + l − p')/2 (up) and that less l (down). The new window spans
    both images of every row. Returns the state of the new window, whose
    values are not yet written, and the columns of that window where the
    down and up images start: 0 and l for one length and parity, else one
    of each per row.
    """
    values, parity, width = state.values, state.parity, state.values.shape[-1]
    if not (isinstance(l, int) and l >= 0):
        l = step_lengths(l)
    moved_to = parity + l
    new_parity, up = moved_to & 1, moved_to >> 1
    down = up - l
    if isinstance(down, np.ndarray):
        first, last = _parity_range(new_parity)
        if first == last:
            new_parity = first
        low = int(down.min())
        down, up = down - low, up - low
        grown = int(up.max())
    else:
        low, down, up, grown = down, 0, l, l
    origin, live, spare = state.frame or (state.n_min, values, None)
    lo = ((state.n_min - origin) >> 1) + low
    hi = lo + width + grown
    if (spare is None or lo < 0 or hi > spare.shape[-1]
            or spare.shape[:-1] != values.shape[:-1]):
        shift = max(-lo, 0)
        origin, lo, hi = origin - 2 * shift, lo + shift, hi + shift
        spare = np.empty(values.shape[:-1] + (hi,), values.dtype)
    return state.with_window(state.time, origin + 2 * lo, spare[..., lo:hi],
                             new_parity, Frame(origin, spare, live)), down, up


def clamped(state, center: int, reach: int):
    """A view of the window cut to the columns that hold, for some row, a
    site within `reach` of `center`."""
    pmin, pmax = _parity_range(state.parity)
    offset = center - state.n_min
    start = max((offset - reach - pmax + 1) >> 1, 0)
    stop = max(min(((offset + reach - pmin) >> 1) + 1, state.width), start)
    return state.with_window(state.time, state.n_min + 2 * start,
                             state.values[..., start:stop], state.parity, state.frame)


def cut_window(state, position: int):
    """Cut the window at an absorber at `position`; return (a view of the
    kept columns, the mass of the cut sites), the cut mass per row for a
    state with rows.

    For position > 0 the sites n ≥ position are cut, for position < 0 the
    sites n ≤ position. When rows differ in parity the cut may fall inside a
    column: that column's sites at or beyond the absorber are absorbed and
    zeroed, and the column stays for the rows it still holds a site of.
    """
    values, parity = state.values, state.parity
    width = values.shape[-1]
    pmin, pmax = _parity_range(parity)
    offset = position - state.n_min
    if position > 0:  # first cut column for parity p: ceil((offset − p)/2)
        edge, end = (offset - pmax + 1) >> 1, (offset - pmin + 1) >> 1
    else:  # first kept column for parity p: floor((offset − p)/2) + 1
        edge, end = ((offset - pmax) >> 1) + 1, ((offset - pmin) >> 1) + 1
    edge, end = min(max(edge, 0), width), min(max(end, 0), width)
    kept, cut = (slice(0, end), slice(end, width)) if position > 0 \
        else (slice(edge, width), slice(0, edge))
    absorbed = state.mass_of(values[..., cut])
    if edge != end:  # the rows whose parity reaches it lose column `edge`
        hit = parity == (pmax if position > 0 else pmin)
        absorbed[hit] += state.mass_of(values[hit, ..., edge:edge + 1])
        values[hit, ..., edge] = 0
    return state.with_window(state.time, state.n_min + 2 * kept.start,
                             values[..., kept], parity, state.frame), absorbed


def point_in_frame(state, origin: int, columns: int, rows: tuple):
    """A copy of the one-site state `state` for each of `rows` in a fresh
    pair of buffers of `columns` columns from `origin`."""
    values = state.values
    live = np.empty(rows + values.shape[:-1] + (columns,), values.dtype)
    spare = np.empty_like(live)
    offset = state.n_min - origin
    k = offset >> 1
    live[..., k:k + 1] = values
    return state.with_window(state.time, origin + 2 * k, live[..., k:k + 1],
                             offset & 1, Frame(origin, live, spare))


@dataclass
class PositionDistribution:
    """Probabilities by lattice site at a fixed time; mass may be < 1."""

    time: int
    positions: np.ndarray
    probs: np.ndarray  # shape ([rows,] sites)

    def mass(self):
        return row_sum(self.probs, 1)


def initial_quantum_state(
    position: int = 0,
    amp_left: complex = 1.0,
    amp_right: complex = 0.0,
) -> QuantumState:
    """Walker localized at one site with the given coin amplitudes.

    The coin vector must be normalized: |amp_left|² + |amp_right|² = 1.
    """
    norm = abs(amp_left) ** 2 + abs(amp_right) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ConfigurationError(
            f"initial coin amplitudes must be normalized, got |.|^2 = {norm}"
        )
    psi = np.zeros((2, 1), dtype=np.complex128)
    psi[LEFT, 0] = amp_left
    psi[RIGHT, 0] = amp_right
    return QuantumState(time=0, n_min=int(position), psi=psi)


def initial_classical_state(position: int = 0) -> ClassicalState:
    """Point mass at one lattice site."""
    return ClassicalState(time=0, n_min=int(position), prob=np.array([1.0]))


def total_mass(state):
    """Unabsorbed probability mass of a quantum or classical state (per row)."""
    return state.mass()


def probability_distribution(state) -> PositionDistribution:
    """Site-by-site probabilities of a quantum or classical state (per row)."""
    if isinstance(state, QuantumState):
        psi = state.psi
        probs = np.abs(psi[..., LEFT, :]) ** 2 + np.abs(psi[..., RIGHT, :]) ** 2
    elif isinstance(state, ClassicalState):
        probs = state.prob.copy()
    else:
        raise ConfigurationError(f"not a walker state: {type(state).__name__}")
    return PositionDistribution(time=state.time, positions=state.positions,
                                probs=probs)


def renormalize(dist: PositionDistribution) -> PositionDistribution:
    """Rescale to unit mass (conditioning on survival)."""
    m = dist.mass()
    if m <= 0.0:
        raise EmptyStateError("cannot renormalize a zero-mass distribution")
    return PositionDistribution(
        time=dist.time, positions=dist.positions.copy(), probs=dist.probs / m
    )


def mean_position(dist: PositionDistribution) -> float:
    m = dist.mass()
    if m <= 0.0:
        raise EmptyStateError("zero-mass distribution has no mean position")
    return float(np.sum(dist.positions * dist.probs) / m)


def std_dev(dist: PositionDistribution):
    """Standard deviation of position under the (renormalized) distribution.

    With rows, one spread per row, NaN for a row without mass; a single
    distribution without mass raises EmptyStateError.
    """
    m = dist.mass()
    if dist.probs.ndim == 1 and m <= 0.0:
        raise EmptyStateError("zero-mass distribution has no spread")
    with np.errstate(invalid="ignore"):  # 0/0 on a row without mass
        mu = np.sum(dist.positions * dist.probs, axis=-1) / m
        # centred second pass: E[n²] − μ² would lose σ to rounding when σ is
        # small next to |μ| (a point mass at −3 read σ = 4e-8)
        dev = dist.positions - mu[..., np.newaxis]
        dev *= dev
        dev *= dist.probs
        sigma = np.sqrt(np.sum(dev, axis=-1) / m)
    return float(sigma) if dist.probs.ndim == 1 else sigma
