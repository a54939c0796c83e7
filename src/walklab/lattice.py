"""Walker states on the 1D integer lattice and distribution statistics.

A step of length l moves a walker's mass from site n to n ± l, so after
every step all of one walk's mass sits on sites of one parity. A state
stores only that sublattice: column j of a row of parity p is site
n_min + p + 2j. A quantum state stores two amplitude arrays (left-mover
and right-mover components, float64 or complex128) over a window of such
columns; a classical state stores one probability array over the same kind
of window.
A walk's window holds the columns within reach of its start, cut at the
absorber: no site outside it carries surviving mass, so propagation is
exact. Every array may carry a leading row axis: R independent walks (rows)
on one shared window of columns, whose masses, distributions and spreads
are taken per row. Rows may differ in parity, so `positions` is then per
row.

The window is a view into one of two buffers in a fixed `Frame`, which
only `engine.iterate_walk` allocates (`point_in_frame`), over every site
the walk can reach. A step writes the next window into the spare buffer
and hands the old one over as the next spare; in exchange a step consumes
its input, and a state is valid only until the next step. `plan_move`
places the next window; a block of rows is placed whole, and `clamped`
cuts its window back to the reach, a view like `cut_window`.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Union

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


# as_strided reads __array_interface__, whose "typestr" key numpy interns
# anew per call unless something holds it; holding it spares the interpreter
# reallocating its interned-string table (1-2 MB) every 10^4 or so steps
_TYPESTR = sys.intern("typestr")


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
    is what the next step writes."""

    origin: int
    live: np.ndarray
    spare: np.ndarray


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
                    parity, frame: Frame):
        return type(self)(time, n_min, values, parity, frame)


@dataclass
class QuantumState(_Window):
    """Coin ⊗ position amplitudes over a window of parity columns."""

    time: int
    n_min: int
    # shape ([rows,] 2, width), L = 0, R = 1: float64 when the walk's coin
    # and start are real (its amplitudes stay real), else complex128
    psi: np.ndarray
    parity: Union[int, np.ndarray]  # per row when the rows differ
    frame: Frame

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
    parity: Union[int, np.ndarray]  # per row when the rows differ
    frame: Frame

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
    parity, width = state.parity, state.values.shape[-1]
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
    origin, live, spare = state.frame
    lo = ((state.n_min - origin) >> 1) + low
    hi = lo + width + grown
    return state.with_window(state.time, origin + 2 * lo, spare[..., lo:hi],
                             new_parity, Frame(origin, spare, live)), down, up


def clamped(state, reach: int):
    """A view of the window cut to the columns that hold, for some row, a
    site within `reach` of the start, site 0."""
    pmin, pmax = _parity_range(state.parity)
    offset = -state.n_min
    start = max((offset - reach - pmax + 1) >> 1, 0)
    stop = max(min(((offset + reach - pmin) >> 1) + 1, state.width), start)
    return state.with_window(state.time, state.n_min + 2 * start,
                             state.values[..., start:stop], state.parity, state.frame)


def cut_window(state, position: int):
    """Cut the window at an absorber at `position`; return (a view of the
    kept columns, the mass of the cut sites), the cut mass per row for a
    state with rows.

    For position > 0 the sites n ≥ position are cut, for position < 0 the
    sites n ≤ position. The frame's origin has the absorber's parity (or
    the one after it, for position < 0; see `engine.frame_span`), so the
    cut falls between two columns for rows of either parity: column
    (position − n_min + 1) >> 1 is the first cut one for position > 0 and
    the first kept one for position < 0.
    """
    values = state.values
    width = values.shape[-1]
    edge = min(max((position - state.n_min + 1) >> 1, 0), width)
    kept, cut = (slice(0, edge), slice(edge, width)) if position > 0 \
        else (slice(edge, width), slice(0, edge))
    absorbed = state.mass_of(values[..., cut])
    return state.with_window(state.time, state.n_min + 2 * kept.start,
                             values[..., kept], state.parity, state.frame), absorbed


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
        return row_sum(self.probs, 1)


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
