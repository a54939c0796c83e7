"""Walker states on the 1D integer lattice and distribution statistics.

A quantum state stores two complex amplitude arrays (left-mover and
right-mover components) over a contiguous position window; a classical state
stores one probability array over the same kind of window. A walk's window
holds the sites within reach of its start, cut at the absorber: no site
outside it carries surviving mass, so propagation is exact.
Every array may carry a leading row axis: R independent walks (rows) on one
shared window, whose masses, distributions and spreads are taken per row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, EmptyStateError

# coin basis component indices
LEFT = 0
RIGHT = 1


def row_sum(values: np.ndarray, walk_ndim: int):
    """Sum over one walk's axes (the last `walk_ndim`): a float for a single
    walk, one sum per row when `values` has a leading row axis."""
    if values.ndim == walk_ndim:
        return float(np.sum(values))
    return values.reshape(values.shape[0], -1).sum(axis=1)


def shift_span(l) -> tuple:
    """(longest step length, `l` as that int when every row takes it, else
    as one length per row)."""
    if isinstance(l, (int, np.integer)) or np.ndim(l) == 0:
        top = shortest = int(l)
    else:
        l = np.asarray(l)
        top, shortest = int(l.max()), int(l.min())
    if shortest < 0:
        raise ConfigurationError(f"step length must be nonnegative, got {shortest}")
    return top, (top if shortest == top else l)


def place_rows(out: np.ndarray, values: np.ndarray, starts: np.ndarray) -> None:
    """Add row r of `values` into row r of `out` from column starts[r] on."""
    windows = sliding_window_view(out, values.shape[-1], axis=-1, writeable=True)
    windows[np.arange(len(starts)), starts] += values


@dataclass
class QuantumState:
    """Coin ⊗ position amplitudes over the window [n_min, n_min + width)."""

    time: int
    n_min: int
    psi: np.ndarray  # complex128, shape ([rows,] 2, width); L = 0, R = 1

    @property
    def width(self) -> int:
        return self.psi.shape[-1]

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_min + self.width)

    def mass(self):
        return row_sum(np.abs(self.psi) ** 2, 2)

    def clamped(self, lo: int, hi: int) -> "QuantumState":
        """A view of the window cut to the sites lo..hi."""
        a, b = max(lo - self.n_min, 0), max(hi + 1 - self.n_min, 0)
        return QuantumState(self.time, self.n_min + a, self.psi[..., a:b])


@dataclass
class ClassicalState:
    """Probability mass over the window [n_min, n_min + width)."""

    time: int
    n_min: int
    prob: np.ndarray  # float64, shape ([rows,] width)

    @property
    def width(self) -> int:
        return self.prob.shape[-1]

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_min + self.width)

    def mass(self):
        return row_sum(self.prob, 1)

    def clamped(self, lo: int, hi: int) -> "ClassicalState":
        """A view of the window cut to the sites lo..hi."""
        a, b = max(lo - self.n_min, 0), max(hi + 1 - self.n_min, 0)
        return ClassicalState(self.time, self.n_min + a, self.prob[..., a:b])


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
    return PositionDistribution(
        time=state.time, positions=state.positions.copy(), probs=probs
    )


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
        sigma = np.sqrt(np.sum(dev * dev * dist.probs, axis=-1) / m)
    return float(sigma) if dist.probs.ndim == 1 else sigma
