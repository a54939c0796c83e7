from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import dict_quantum_walk
from walklab import (
    AbsorberConfig,
    ConfigurationError,
    CoinOperator,
    WalkConfig,
    absorption_probabilities,
    coin_by_name,
    hadamard_coin,
    iterate_walk,
    kempe_coin,
    mirrored_hadamard_coin,
    probability_distribution,
    run_walk,
    std_dev,
)
from walklab.engine import snapshot_distribution

COINS = {
    "hadamard": hadamard_coin(),
    "hadamard-mirrored": mirrored_hadamard_coin(),
    "kempe": kempe_coin(),
}


def coin_tuple(coin):
    return ((coin.a, coin.b), (coin.c, coin.d))


def dist_dict(state):
    d = probability_distribution(state)
    return {int(n): p for n, p in zip(d.positions, d.probs) if p != 0.0}


def last_state(config):
    for state, _ in iterate_walk(config):
        pass
    return state


def test_coin_matrices_unitary():
    for coin in COINS.values():
        m = coin.matrix()
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_non_unitary_coin_rejected():
    with pytest.raises(ConfigurationError):
        CoinOperator(1.0, 0.0, 0.0, 0.5)


_H = 1 / np.sqrt(2)
# the Hadamard coin with its real entries held as complex numbers
COMPLEX_TYPED_HADAMARD = CoinOperator(_H + 0j, _H + 0j, _H + 0j, -_H + 0j)


@pytest.mark.parametrize("coin, amps, dtype", [
    (hadamard_coin(), (1.0, 0.0), np.float64),
    (mirrored_hadamard_coin(), (0.0, 1.0), np.float64),
    (COMPLEX_TYPED_HADAMARD, (1 + 0j, 0j), np.float64),
    (kempe_coin(), (1.0, 0.0), np.complex128),
    (hadamard_coin(), (_H, 1j * _H), np.complex128),
], ids=["hadamard", "mirrored", "complex-typed-real", "kempe", "complex-start"])
def test_walk_amplitude_dtype(coin, amps, dtype):
    config = WalkConfig(steps=6, coin=coin, initial_amp_left=amps[0],
                        initial_amp_right=amps[1], absorber=AbsorberConfig(2))
    for state, _ in iterate_walk(config):
        assert state.psi.dtype == dtype


def test_complex_typed_real_coin_walks_like_hadamard():
    config = WalkConfig(steps=20, coin=COMPLEX_TYPED_HADAMARD, initial_amp_left=1 + 0j,
                        initial_amp_right=0j, absorber=AbsorberConfig(2))
    want = run_walk(WalkConfig(steps=20, absorber=AbsorberConfig(2)))
    got = run_walk(config)
    assert np.array_equal(got.per_step, want.per_step)
    assert np.array_equal(got.sigma, want.sigma)


def test_coin_by_name():
    assert coin_by_name("hadamard").name == "hadamard"
    assert coin_by_name("kempe").name == "kempe"
    with pytest.raises(ConfigurationError):
        coin_by_name("nosuch")


def test_one_step_hand_values():
    state = last_state(WalkConfig(steps=1))
    assert dist_dict(state) == pytest.approx({-1: 0.5, 1: 0.5}, abs=1e-12)


def test_two_step_hand_values():
    state = last_state(WalkConfig(steps=2))
    assert dist_dict(state) == pytest.approx(
        {-2: 0.25, 0: 0.5, 2: 0.25}, abs=1e-12
    )


def test_matches_dict_oracle_clean():
    state = last_state(WalkConfig(steps=25))
    psi, _ = dict_quantum_walk(25, coin_tuple(hadamard_coin()))
    oracle = {n: abs(v[0]) ** 2 + abs(v[1]) ** 2 for n, v in psi.items()}
    mine = dist_dict(state)
    assert set(mine) == {n for n, p in oracle.items() if p > 1e-30}
    for n, p in mine.items():
        assert p == pytest.approx(oracle[n], abs=1e-12)


@pytest.mark.parametrize("m1", [2, -2, 1, -3])
def test_matches_dict_oracle_with_absorber(m1):
    config = WalkConfig(steps=30, absorber=AbsorberConfig(m1))
    result = run_walk(config)
    _, absorbed = dict_quantum_walk(
        30, coin_tuple(hadamard_coin()), absorber=m1
    )
    np.testing.assert_allclose(result.per_step, absorbed, atol=1e-12)


def test_mass_conservation_no_absorber():
    for state, _ in iterate_walk(WalkConfig(steps=300)):
        assert abs(state.mass() - 1.0) < 1e-12


def test_absorber_empties_far_side():
    config = WalkConfig(steps=40, absorber=AbsorberConfig(2))
    result = run_walk(config)
    d = probability_distribution(result.final_state)
    assert np.all(d.probs[d.positions >= 2] == 0.0)
    # mass accounting closes
    assert result.final_state.mass() + result.per_step.sum(axis=-1) \
        == pytest.approx(1.0, abs=1e-12)


def test_absorber_negative_side_mirror():
    left = run_walk(WalkConfig(steps=60, absorber=AbsorberConfig(-2),
                               initial_amp_left=0.0, initial_amp_right=1.0))
    right = run_walk(WalkConfig(steps=60, absorber=AbsorberConfig(2)))
    np.testing.assert_allclose(
        left.per_step, right.per_step, atol=1e-12
    )


def test_absorber_zero_rejected():
    with pytest.raises(ConfigurationError, match="absorber position must be nonzero"):
        AbsorberConfig(0)


def test_apply_absorber_returns_removed_mass():
    # a step conserves mass, so what the absorber cuts is all the state loses
    before, cut = 1.0, []
    config = WalkConfig(steps=3, absorber=AbsorberConfig(2))
    for state, absorbed in iterate_walk(config):
        assert state.mass() == pytest.approx(before - absorbed, abs=1e-12)
        before = state.mass()
        cut.append(absorbed)
    assert max(cut) > 0.0


def test_coin_variants_same_probabilities():
    # all three parameterizations give identical statistics, with and
    # without the absorber
    base = run_walk(WalkConfig(steps=100, absorber=AbsorberConfig(2)))
    for name in ("hadamard-mirrored", "kempe"):
        other = run_walk(
            WalkConfig(steps=100, coin=COINS[name], absorber=AbsorberConfig(2))
        )
        np.testing.assert_allclose(
            other.per_step, base.per_step, atol=1e-12
        )
        np.testing.assert_allclose(other.sigma, base.sigma, atol=1e-10)
    free_base = run_walk(WalkConfig(steps=100))
    for name in ("hadamard-mirrored", "kempe"):
        free = run_walk(WalkConfig(steps=100, coin=COINS[name]))
        np.testing.assert_allclose(free.sigma, free_base.sigma, atol=1e-10)


def test_global_phase_invariance():
    phase = np.exp(1j * 0.7321)
    plain = run_walk(WalkConfig(steps=80, absorber=AbsorberConfig(2)))
    rotated = run_walk(
        WalkConfig(
            steps=80,
            absorber=AbsorberConfig(2),
            initial_amp_left=phase,
            initial_amp_right=0.0,
        )
    )
    np.testing.assert_allclose(rotated.sigma, plain.sigma, atol=1e-12)
    np.testing.assert_allclose(
        rotated.per_step, plain.per_step, atol=1e-12
    )


def test_shift_lengths():
    moved = last_state(WalkConfig(steps=1, step_lengths=np.array([3])))
    d = probability_distribution(moved)
    support = {int(n) for n, p in zip(d.positions, d.probs) if p != 0.0}
    assert support == {-3, 3}


def test_zero_length_applies_coin_only():
    walk = iterate_walk(WalkConfig(steps=2, step_lengths=np.array([0, 0])))
    state, _ = next(walk)
    d = dist_dict(state)
    assert set(d) == {0}
    assert state.time == 1
    # the coin did act: a second zero-length step interferes
    state, _ = next(walk)
    amp_l = state.psi[0, 0]
    amp_r = state.psi[1, 0]
    # H^2 = identity restores the initial coin state
    assert amp_l == pytest.approx(1.0, abs=1e-12)
    assert amp_r == pytest.approx(0.0, abs=1e-12)


def test_negative_length_rejected():
    for engine in ("quantum", "classical"):
        with pytest.raises(ConfigurationError):
            WalkConfig(steps=1, engine=engine, step_lengths=np.array([-1]))


@pytest.mark.parametrize("value, exact", [
    (2.0, True), (np.int64(2), True), (Fraction(4, 2), True),
    (float("nan"), False), (float("inf"), False), (2.5, False),
    (np.float64(1.5), False), ("2", False), (None, False), (2j, False),
])
def test_absorber_position_and_steps_are_exact_integers(value, exact):
    if not exact:
        with pytest.raises(ConfigurationError, match="must be an integer"):
            AbsorberConfig(value)
        with pytest.raises(ConfigurationError, match="must be an integer"):
            WalkConfig(steps=value)
        return
    config = WalkConfig(steps=value, absorber=AbsorberConfig(value))
    assert type(config.steps) is int and type(config.absorber.position) is int
    want = run_walk(WalkConfig(steps=2, absorber=AbsorberConfig(2)))
    assert np.array_equal(run_walk(config).per_step, want.per_step)


def test_config_validates_lengths():
    with pytest.raises(ConfigurationError):
        WalkConfig(steps=3, step_lengths=np.array([1, 2]))
    with pytest.raises(ConfigurationError):
        WalkConfig(steps=2, step_lengths=np.array([1, -1]))
    with pytest.raises(ConfigurationError):
        WalkConfig(steps=0)


def test_snapshot_matches_stepping():
    config = WalkConfig(steps=20, absorber=AbsorberConfig(3))
    snap = snapshot_distribution(config, 20)
    result = run_walk(config)
    final = probability_distribution(result.final_state)
    np.testing.assert_allclose(snap.probs, final.probs, atol=1e-14)
    assert snap.time == 20
    for t in (0, 21):
        with pytest.raises(ConfigurationError, match=f"snapshot time must be in 1..20, got {t}"):
            snapshot_distribution(config, t)


def test_walk_stops_once_fully_absorbed():
    # from R, Hadamard steps of length 0 then 1 carry every path to site 1,
    # the absorber, at step 2
    config = WalkConfig(steps=5, initial_amp_left=0.0, initial_amp_right=1.0,
                        absorber=AbsorberConfig(1),
                        step_lengths=np.array([0, 1, 1, 1, 1]))
    result = run_walk(config)
    assert result.per_step.shape[-1] == 2
    np.testing.assert_allclose(result.per_step, [0.0, 1.0], atol=1e-15)
    assert result.sigma[0] == 0.0 and np.isnan(result.sigma[1])
    late = snapshot_distribution(config, 4)
    assert late.time == 4
    assert late.mass() == 0.0


def test_batched_walk_runs_until_every_row_is_empty():
    # from R, Hadamard steps of length 0 then 1 carry all of row 0 to site 1
    # at step 2; row 1 keeps walking, and row 0 reads p = 0, sigma = NaN
    config = WalkConfig(steps=4, initial_amp_left=0.0, initial_amp_right=1.0,
                        absorber=AbsorberConfig(1),
                        step_lengths=np.array([[0, 1, 0, 1], [1, 1, 1, 1]]))
    result = run_walk(config)
    assert result.per_step.shape[-1] == 4
    np.testing.assert_allclose(result.per_step[0], [0, 1, 0, 0], atol=1e-15)
    assert np.isnan(result.sigma[0, 1:]).all()
    assert np.isfinite(result.sigma[1]).all()
    assert result.final_state.mass()[0] == 0.0


def test_sigma_is_renormalized_spread():
    config = WalkConfig(steps=30, absorber=AbsorberConfig(2))
    result = run_walk(config)
    expected = []
    for state, _ in iterate_walk(config):
        dist = probability_distribution(state)
        dist.probs /= dist.mass()
        expected.append(std_dev(dist))
    np.testing.assert_allclose(result.sigma, expected, atol=1e-12)


@pytest.mark.parametrize("engine", ["quantum", "classical"])
@pytest.mark.parametrize("lengths", [[3], [[3], [1]], [[3], [0]]],
                         ids=["one walk", "rows", "mixed parities"])
def test_surviving_point_mass_has_zero_sigma(engine, lengths):
    # the absorber at −1 takes the mass sent left: what survives of each row
    # is a point mass at site 3 (the one column of a walk's window, or a
    # column of the rows' shared window), at 1, or at 0, whose σ is exactly 0
    config = WalkConfig(steps=1, engine=engine, absorber=AbsorberConfig(-1),
                        step_lengths=np.array(lengths))
    result = run_walk(config)
    state = result.final_state
    assert state.width > 1 or np.ndim(lengths) == 1
    np.testing.assert_array_equal(result.sigma, np.zeros(config.rows + (1,)))
    np.testing.assert_array_equal(std_dev(probability_distribution(state)),
                                  np.zeros(config.rows))


@pytest.mark.parametrize("position", [2, -3])
def test_long_quantum_walk_window_ends_at_its_amplitude(position):
    # past t = 1,200 the free front's amplitude 2^(−t/2) falls below 2^-600,
    # and the window drops those columns: at every step its first and last
    # columns hold some |ψ| ≥ 2^-600, and the walk keeps the series' p_t and
    # its mass budget
    steps = 3000
    series = absorption_probabilities(position, "L", order=steps)
    absorbed_so_far = 0.0
    for state, absorbed in iterate_walk(
            WalkConfig(steps=steps, absorber=AbsorberConfig(position))):
        assert np.all(np.abs(state.psi[:, [0, -1]]).max(axis=0) >= 2.0 ** -600)
        assert abs(absorbed - series[state.time - 1]) <= 1e-14
        absorbed_so_far += absorbed
        assert abs(absorbed_so_far + state.mass() - 1.0) <= 1e-12
    assert state.time == steps
    assert state.width < steps // 2


@pytest.mark.parametrize("engine", ["quantum", "classical"])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
@pytest.mark.parametrize("lengths", [
    [1, 2, 0, 3, 1],
    [[1, 2, 0, 3, 1], [1, 1, 1, 1, 1], [0, 0, 2, 1, 0]],
], ids=["one walk", "rows"])
def test_unsigned_step_lengths_walk_as_int64(engine, dtype, lengths):
    # the walk plan's arithmetic is int64: an unsigned up − l would wrap
    config = WalkConfig(steps=5, engine=engine, absorber=AbsorberConfig(2),
                        step_lengths=np.array(lengths, dtype=np.int64))
    want = run_walk(config)
    got = run_walk(replace(config, step_lengths=np.array(lengths, dtype=dtype)))
    assert np.array_equal(got.per_step, want.per_step)
    assert np.array_equal(got.sigma, want.sigma, equal_nan=True)
