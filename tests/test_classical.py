import tracemalloc

import numpy as np
import pytest

from oracles import brute_force_first_passage, dict_classical_walk, exact_avg_times
from walklab import (
    AbsorberConfig,
    ConfigurationError,
    WalkConfig,
    classical_avg_time_ratio,
    first_passage_series,
    iterate_walk,
    probability_distribution,
    run_walk,
    snapshot_distribution,
)


def first_passage(t, m1):
    """p_t of the first-passage law: the term at t of `first_passage_series`,
    or 0 off its support."""
    ts, ps = first_passage_series(m1, t)
    return float(ps[-1]) if ts.size and ts[-1] == t else 0.0


def total_absorption(m1, horizon):
    """Σ_{t≤horizon} p_t of the first-passage law."""
    return first_passage_series(m1, horizon)[1].sum()


def dist_dict(state):
    d = probability_distribution(state)
    return {int(n): p for n, p in zip(d.positions, d.probs) if p != 0.0}


def last_state(steps, lengths=None):
    config = WalkConfig(steps=steps, engine="classical", step_lengths=lengths)
    for state, _ in iterate_walk(config):
        pass
    return state


def test_two_step_hand_values():
    assert dist_dict(last_state(2)) == pytest.approx(
        {-2: 0.25, 0: 0.5, 2: 0.25}, abs=1e-15
    )


def test_zero_length_step_is_identity():
    state = last_state(1, np.array([0]))
    assert dist_dict(state) == {0: 1.0}
    assert state.time == 1


def test_step_length_two():
    state = last_state(1, np.array([2]))
    assert dist_dict(state) == pytest.approx({-2: 0.5, 2: 0.5}, abs=1e-15)


def test_matches_dict_oracle_with_absorber():
    result = run_walk(WalkConfig(steps=40, engine="classical", absorber=AbsorberConfig(2)))
    _, absorbed = dict_classical_walk(40, absorber=2)
    np.testing.assert_allclose(result.per_step, absorbed, atol=1e-14)


def test_first_passage_matches_brute_force():
    for m1 in (1, 2, 3, -2):
        exact = brute_force_first_passage(14, m1)
        for t in range(1, 15):
            assert first_passage(t, m1) == pytest.approx(
                float(exact[t]), abs=1e-15
            )


@pytest.mark.parametrize("m1", range(1, 11))
def test_propagation_equals_closed_form(m1):
    # simulated per-step absorption against the ballot-problem formula
    result = run_walk(
        WalkConfig(steps=200, engine="classical", absorber=AbsorberConfig(m1))
    )
    expected = [first_passage(t, m1) for t in range(1, 201)]
    np.testing.assert_allclose(result.per_step, expected, atol=1e-12)


def test_negative_absorber_mirror():
    left = run_walk(WalkConfig(steps=100, engine="classical", absorber=AbsorberConfig(-4)))
    right = run_walk(WalkConfig(steps=100, engine="classical", absorber=AbsorberConfig(4)))
    np.testing.assert_allclose(left.per_step, right.per_step, atol=1e-15)


def test_first_passage_support_and_parity():
    assert first_passage(3, 2) == 0.0
    assert first_passage(1, 2) == 0.0
    assert first_passage(2, 3) == 0.0
    assert first_passage(2, 2) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ConfigurationError):
        first_passage(4, 0)


def test_large_t_log_branch_continuous():
    # the closed form stays exact at large t
    for m1 in (1, 2, 5):
        for t in range(995, 1011):
            if (t - m1) % 2:
                continue
            import math

            exact = (
                abs(m1) / t * math.comb(t, (t + abs(m1)) // 2) / 2.0 ** t
            )
            assert first_passage(t, m1) == pytest.approx(
                exact, rel=1e-12
            )


@pytest.mark.parametrize("m1", range(3, 13))
def test_first_passage_recurrences(m1):
    # four convolution identities tying absorber distance m1 to m1 - 2
    p = first_passage
    assert p(m1, m1) == pytest.approx(0.25 * p(m1 - 2, m1 - 2), abs=1e-15)
    assert p(m1 + 2, m1) == pytest.approx(
        0.25 * p(m1, m1 - 2) + 0.5 * p(m1, m1), abs=1e-15
    )
    assert p(m1 + 4, m1) == pytest.approx(
        0.25 * p(m1 + 2, m1 - 2) + 0.5 * p(m1 + 2, m1)
        + 0.25 * p(2, 2) * p(m1, m1),
        abs=1e-15,
    )
    assert p(m1 + 6, m1) == pytest.approx(
        0.25 * p(m1 + 4, m1 - 2) + 0.5 * p(m1 + 4, m1)
        + 0.25 * (p(4, 2) * p(m1, m1) + p(2, 2) * p(m1 + 2, m1)),
        abs=1e-15,
    )


def test_series_grid_and_totals():
    ts, ps = first_passage_series(2, 50)
    assert ts[0] == 2 and ts[-1] == 50
    assert np.all(np.diff(ts) == 2)
    assert total_absorption(2, 50) == pytest.approx(ps.sum(), abs=1e-15)


def test_total_absorption_approaches_one():
    # limit is 1; the approach is slow (~ 1/sqrt(t))
    assert total_absorption(2, 10 ** 4) >= 0.98
    assert total_absorption(1, 1000) >= 0.97
    assert total_absorption(2, 10 ** 6) > total_absorption(2, 10 ** 4)


def test_avg_time_partial_diverges():
    # the average absorbing time has no finite limit: partial sums grow ~ sqrt(n)
    a, b, c = exact_avg_times(2, [250, 10 ** 3, 4 * 10 ** 3])
    assert b / a == pytest.approx(2.0, rel=0.15)
    assert c / b == pytest.approx(2.0, rel=0.15)


def test_avg_time_term_values():
    ratio = classical_avg_time_ratio(2)
    # u_n = t * p_t at t = 2 + 2n: u_0 = 2 * 1/4, u_1 = 4 * 1/8, u_2 = 6 * 5/64
    np.testing.assert_allclose(ratio(np.array([0, 1])), [0.5 / 0.5, 0.5 / (30 / 64)],
                               atol=1e-15)


def test_mass_accounting():
    result = run_walk(WalkConfig(steps=60, engine="classical", absorber=AbsorberConfig(3)))
    assert result.final_state.mass() + result.per_step.sum(axis=-1) \
        == pytest.approx(1.0, abs=1e-12)


def test_snapshot_matches_run():
    config = WalkConfig(steps=25, engine="classical", absorber=AbsorberConfig(2))
    snap = snapshot_distribution(config, 25)
    result = run_walk(config)
    final = probability_distribution(result.final_state)
    np.testing.assert_allclose(snap.probs, final.probs, atol=1e-15)


@pytest.mark.parametrize("steps", [2000, 8000])
def test_walk_loop_allocates_no_window_per_step(steps):
    # the walk writes every step into one of two buffers it allocated up
    # front, so its traced peak stays a small multiple of that pair however
    # many steps it runs
    config = WalkConfig(steps=steps, engine="classical", absorber=AbsorberConfig(2))
    tracemalloc.start()
    try:
        for state, _ in iterate_walk(config):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.time == steps
    pair = state.frame.live.nbytes + state.frame.spare.nbytes
    assert peak <= 3 * pair


# perfbench's absorb check holds p_t to this bound against the closed form
FIRST_PASSAGE_ABS_TOL = 1e-14


@pytest.mark.parametrize("position", [2, -3])
def test_long_walk_window_ends_at_its_mass(position):
    # past t ≈ 1,075 the outermost sites' mass 2^-t underflows to zero, and
    # the window drops those columns: at every step its first and last
    # columns hold mass, and the walk keeps its closed-form p_t and its
    # mass budget
    steps = 3000
    ts, ps = first_passage_series(position, steps)
    closed_form = np.zeros(steps + 1)
    closed_form[ts.astype(int)] = ps
    absorbed_so_far = 0.0
    for state, absorbed in iterate_walk(
            WalkConfig(steps=steps, engine="classical", absorber=AbsorberConfig(position))):
        assert state.prob[0] != 0.0 and state.prob[-1] != 0.0
        assert abs(absorbed - closed_form[state.time]) <= FIRST_PASSAGE_ABS_TOL
        absorbed_so_far += absorbed
        assert abs(absorbed_so_far + state.mass() - 1.0) <= 1e-12
    assert state.time == steps
    assert state.width < steps // 2
