import numpy as np
import pytest

from oracles import brute_force_first_passage, dict_classical_walk
from walklab import (
    AbsorberConfig,
    ConfigurationError,
    NoAbsorptionError,
    WalkConfig,
    classical_avg_time_partial,
    classical_avg_time_ratio,
    classical_first_passage,
    classical_total_absorption,
    crw_step,
    first_passage_series,
    initial_classical_state,
    probability_distribution,
    run_walk,
    snapshot_distribution,
    total_mass,
)


def dist_dict(state):
    d = probability_distribution(state)
    return {int(n): p for n, p in zip(d.positions, d.probs) if p != 0.0}


def test_two_step_hand_values():
    state = initial_classical_state()
    for _ in range(2):
        state = crw_step(state)
    assert dist_dict(state) == pytest.approx(
        {-2: 0.25, 0: 0.5, 2: 0.25}, abs=1e-15
    )


def test_zero_length_step_is_identity():
    state = crw_step(initial_classical_state(), l=0)
    assert dist_dict(state) == {0: 1.0}
    assert state.time == 1


def test_step_length_two():
    state = crw_step(initial_classical_state(), l=2)
    assert dist_dict(state) == pytest.approx({-2: 0.5, 2: 0.5}, abs=1e-15)


def test_matches_dict_oracle_with_absorber():
    result = run_walk(WalkConfig(steps=40, engine="classical", absorber=AbsorberConfig(2)))
    _, absorbed = dict_classical_walk(40, absorber=2)
    np.testing.assert_allclose(result.record.per_step, absorbed, atol=1e-14)


def test_first_passage_matches_brute_force():
    for m1 in (1, 2, 3, -2):
        exact = brute_force_first_passage(14, m1)
        for t in range(1, 15):
            assert classical_first_passage(t, m1) == pytest.approx(
                float(exact[t]), abs=1e-15
            )


@pytest.mark.parametrize("m1", range(1, 11))
def test_propagation_equals_closed_form(m1):
    # simulated per-step absorption against the ballot-problem formula
    result = run_walk(
        WalkConfig(steps=200, engine="classical", absorber=AbsorberConfig(m1))
    )
    expected = [classical_first_passage(t, m1) for t in range(1, 201)]
    np.testing.assert_allclose(result.record.per_step, expected, atol=1e-12)


def test_negative_absorber_mirror():
    left = run_walk(WalkConfig(steps=100, engine="classical", absorber=AbsorberConfig(-4)))
    right = run_walk(WalkConfig(steps=100, engine="classical", absorber=AbsorberConfig(4)))
    np.testing.assert_allclose(left.record.per_step, right.record.per_step, atol=1e-15)


def test_first_passage_support_and_parity():
    assert classical_first_passage(3, 2) == 0.0
    assert classical_first_passage(1, 2) == 0.0
    assert classical_first_passage(2, 3) == 0.0
    assert classical_first_passage(2, 2) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ConfigurationError):
        classical_first_passage(4, 0)


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
            assert classical_first_passage(t, m1) == pytest.approx(
                exact, rel=1e-12
            )


def recurrence_p(t, m1):
    return classical_first_passage(t, m1)


@pytest.mark.parametrize("m1", range(3, 13))
def test_first_passage_recurrences(m1):
    # four convolution identities tying absorber distance m1 to m1 - 2
    p = recurrence_p
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
    assert classical_total_absorption(2, 50) == pytest.approx(ps.sum(), abs=1e-15)


def test_total_absorption_approaches_one():
    # limit is 1; the approach is slow (~ 1/sqrt(t))
    assert classical_total_absorption(2, 10 ** 4) >= 0.98
    assert classical_total_absorption(1, 1000) >= 0.97
    assert classical_total_absorption(2, 10 ** 6) > classical_total_absorption(2, 10 ** 4)


def test_avg_time_partial_diverges():
    # the average absorbing time has no finite limit: partial sums grow ~ sqrt(n)
    a = classical_avg_time_partial(2, 10 ** 3)
    b = classical_avg_time_partial(2, 4 * 10 ** 3)
    c = classical_avg_time_partial(2, 16 * 10 ** 3)
    assert b / a == pytest.approx(2.0, rel=0.15)
    assert c / b == pytest.approx(2.0, rel=0.15)


def test_avg_time_partial_errors_without_support():
    with pytest.raises(NoAbsorptionError):
        classical_avg_time_partial(5, 3)


def test_avg_time_term_values():
    ratio = classical_avg_time_ratio(2)
    # u_n = t * p_t at t = 2 + 2n: u_0 = 2 * 1/4, u_1 = 4 * 1/8, u_2 = 6 * 5/64
    np.testing.assert_allclose(ratio(np.array([0, 1])), [0.5 / 0.5, 0.5 / (30 / 64)],
                               atol=1e-15)


def test_mass_accounting():
    result = run_walk(WalkConfig(steps=60, engine="classical", absorber=AbsorberConfig(3)))
    assert total_mass(result.final_state) + result.record.cumulative_total \
        == pytest.approx(1.0, abs=1e-12)


def test_snapshot_matches_run():
    config = WalkConfig(steps=25, engine="classical", absorber=AbsorberConfig(2))
    snap = snapshot_distribution(config, 25)
    result = run_walk(config)
    final = probability_distribution(result.final_state)
    np.testing.assert_allclose(snap.probs, final.probs, atol=1e-15)
