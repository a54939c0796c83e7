"""Property tests of the one walk pipeline against the dict-walk oracles.

Hypothesis draws the engine, the coin and initial coin state, a step-length
sequence that may contain zero-length steps, and an absorber on either side
of the origin (or none).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dict_classical_walk, dict_quantum_walk
from walklab import (
    AbsorberConfig,
    WalkConfig,
    coin_by_name,
    iterate_walk,
    probability_distribution,
    run_walk,
    total_mass,
)

TOL = 1e-12


@st.composite
def walks(draw):
    lengths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=24))
    position = draw(st.one_of(st.none(), st.integers(-6, 6).filter(bool)))
    initial = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0))))
    return WalkConfig(
        steps=len(lengths),
        engine=draw(st.sampled_from(("quantum", "classical"))),
        coin=coin_by_name(draw(st.sampled_from(
            ("hadamard", "hadamard-mirrored", "kempe")))),
        initial_amp_left=initial[0],
        initial_amp_right=initial[1],
        absorber=None if position is None else AbsorberConfig(position),
        step_lengths=np.array(lengths, dtype=np.int64),
    )


def oracle(config, t):
    """({site: probability}, per-step absorbed) after t steps of `config`."""
    absorber = config.absorber.position if config.absorber else None
    lengths = config.step_lengths[:t]
    if config.engine == "classical":
        return dict_classical_walk(t, absorber=absorber, lengths=lengths)
    c = config.coin
    psi, absorbed = dict_quantum_walk(
        t, ((c.a, c.b), (c.c, c.d)), config.initial_amp_left,
        config.initial_amp_right, absorber=absorber, lengths=lengths,
    )
    return {n: abs(l) ** 2 + abs(r) ** 2 for n, (l, r) in psi.items()}, absorbed


@settings(max_examples=60, deadline=None)
@given(walks())
def test_run_walk_matches_oracle_every_step(config):
    result = run_walk(config)
    _, absorbed = oracle(config, config.steps)
    assert result.record.horizon == config.steps
    np.testing.assert_allclose(result.record.per_step, absorbed, rtol=0, atol=TOL)
    for state, _ in iterate_walk(config):
        want, _ = oracle(config, state.time)
        dist = probability_distribution(state)
        got = dict(zip(dist.positions.tolist(), dist.probs.tolist()))
        for site in set(got) | set(want):
            assert abs(got.get(site, 0.0) - want.get(site, 0.0)) <= TOL


@settings(max_examples=100, deadline=None)
@given(walks())
def test_absorbed_plus_surviving_mass_is_one(config):
    absorbed_so_far = 0.0
    for state, absorbed in iterate_walk(config):
        absorbed_so_far += absorbed
        assert abs(absorbed_so_far + total_mass(state) - 1.0) <= TOL
    result = run_walk(config)
    total = result.record.cumulative_total + total_mass(result.final_state)
    assert abs(total - 1.0) <= TOL
