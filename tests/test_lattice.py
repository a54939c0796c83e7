import numpy as np
import pytest

from walklab import (
    ConfigurationError,
    EmptyStateError,
    PositionDistribution,
    WalkConfig,
    iterate_walk,
    probability_distribution,
    std_dev,
)


def dist(pairs, time=0):
    positions = np.array([n for n, _ in pairs], dtype=np.int64)
    probs = np.array([p for _, p in pairs], dtype=np.float64)
    return PositionDistribution(time=time, positions=positions, probs=probs)


def standing_walk(engine):
    """The state after one step of length 0: still the initial point mass
    (the quantum coin acts, but moves nothing)."""
    state, _ = next(iterate_walk(
        WalkConfig(steps=1, engine=engine, step_lengths=np.array([0]))))
    return state


def test_initial_quantum_state_point_mass():
    state = standing_walk("quantum")
    assert state.mass() == pytest.approx(1.0, abs=1e-15)
    d = probability_distribution(state)
    assert d.positions.tolist() == [0]
    assert d.probs.tolist() == pytest.approx([1.0], abs=1e-15)


def test_initial_quantum_state_normalization_check():
    with pytest.raises(ConfigurationError):
        WalkConfig(steps=1, initial_amp_left=1.0, initial_amp_right=1.0)
    # a NaN amplitude is not normalized either
    with pytest.raises(ConfigurationError, match=r"normalized, got \|\.\|\^2 = nan$"):
        WalkConfig(steps=1, initial_amp_left=float("nan"))
    # any phase on a normalized pair is fine
    WalkConfig(steps=1, initial_amp_left=1j / np.sqrt(2),
               initial_amp_right=-1 / np.sqrt(2))
    # the classical engine ignores the amplitudes
    WalkConfig(steps=1, engine="classical", initial_amp_left=1.0, initial_amp_right=1.0)


def test_initial_classical_state():
    state = standing_walk("classical")
    assert state.mass() == pytest.approx(1.0, abs=1e-15)
    d = probability_distribution(state)
    assert d.positions.tolist() == [0]


def test_std_dev_two_point():
    assert std_dev(dist([(-1, 0.5), (1, 0.5)])) == pytest.approx(1.0, abs=1e-12)


def test_std_dev_binomial_t2():
    d = dist([(-2, 0.25), (0, 0.5), (2, 0.25)])
    assert std_dev(d) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_std_dev_renormalizes_internally():
    # same shape at half the mass must give the same spread
    full = dist([(-1, 0.5), (1, 0.5)])
    half = dist([(-1, 0.25), (1, 0.25)])
    assert std_dev(half) == pytest.approx(std_dev(full), abs=1e-12)


def test_empty_distribution_errors():
    empty = dist([(0, 0.0), (2, 0.0)])
    with pytest.raises(EmptyStateError):
        std_dev(empty)
    with pytest.raises(ConfigurationError, match="^state must be a WalkerState, got <object "):
        probability_distribution(object())


def test_std_dev_point_mass_off_centre_is_zero():
    # 3 · 0.1 / 0.1 rounds to 3.0000000000000004: a mean taken from the sites
    # leaves σ at the rounding floor, one centred on the heaviest site reads 0
    assert std_dev(dist([(-1, 0.0), (1, 0.0), (3, 0.1), (5, 0.0)])) == 0.0
    rows = PositionDistribution(
        time=1, positions=np.array([[-1, 1, 3], [3, 5, 7]]),
        probs=np.array([[0.0, 0.0, 0.7], [0.0, 0.0, 0.3]]))
    assert std_dev(rows).tolist() == [0.0, 0.0]
