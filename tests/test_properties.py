"""Property tests of the one walk pipeline against the dict-walk oracles,
of batched (R-row) walks against single walks, of the mirror symmetry, and
of the absorption series against the exact Fraction oracle.

Hypothesis draws the engine, the coin (a named one, or any 2×2 unitary) and
initial coin state, a step-length sequence that may contain zero-length
steps, and an absorber on either side of the origin (or none). The parity
windows are drawn wider still: up to four rows that part in parity, an even
or odd start, and an absorber on either side of it.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dict_classical_walk,
    dict_quantum_walk,
    exact_absorption_probabilities,
    exact_first_passage,
)
from walklab import (
    TABLE2_PRESETS,
    AbsorberConfig,
    CoinOperator,
    EnsembleConfig,
    WalkConfig,
    absorption_probabilities,
    absorption_summaries,
    absorption_summary,
    child_seed,
    coin_by_name,
    ensemble,
    first_passage_series,
    generating_function,
    iterate_walk,
    poisson,
    probability_distribution,
    run_ensemble,
    run_walk,
    sample_realization,
    series,
    total_mass,
)

TOL = 1e-12
# Rows on a shared (wider) window, or a mirrored walk, sum the same terms in
# another order: absorbed mass may differ by W·2^-52 for a window of W sites,
# and sigma by a relative 1e-12, which also bounds sigma against the
# math.fsum oracle.
SIGMA_RTOL = 1e-12


def mass_tol(width):
    return width * 2.0 ** -52


def assert_sigma_close(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=SIGMA_RTOL, atol=0)


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


def oracle(config, t, lengths=None):
    """({site: probability}, per-step absorbed) after t steps of `config`,
    or of its row with step lengths `lengths`. The dict walks start at 0, so
    they run with the absorber moved by −start, which keeps it on the same
    side, and their sites are moved back."""
    start = config.initial_position
    absorber = config.absorber.position - start if config.absorber else None
    lengths = (config.step_lengths if lengths is None else lengths)[:t]
    if config.engine == "classical":
        dist, absorbed = dict_classical_walk(t, absorber=absorber, lengths=lengths)
    else:
        c = config.coin
        psi, absorbed = dict_quantum_walk(
            t, ((c.a, c.b), (c.c, c.d)), config.initial_amp_left,
            config.initial_amp_right, absorber=absorber, lengths=lengths,
        )
        dist = {n: abs(l) ** 2 + abs(r) ** 2 for n, (l, r) in psi.items()}
    return {n + start: p for n, p in dist.items()}, absorbed


def oracle_sigma(dist):
    """σ of a {site: probability} distribution, renormalized, summed with
    math.fsum; NaN without mass."""
    mass = math.fsum(dist.values())
    if mass == 0.0:
        return math.nan
    mean = math.fsum(n * p for n, p in dist.items()) / mass
    return math.sqrt(math.fsum(p * (n - mean) ** 2 for n, p in dist.items()) / mass)


def assert_live_window(config, state):
    """The window is exactly the columns that hold, for some row, a site of
    that row's parity within the farthest any row has moved from the start,
    cut at the absorber: no row holds a site at or beyond it."""
    moved = np.atleast_2d(config.step_lengths)[:, :state.time].sum(axis=1)
    n0 = config.initial_position
    lo, hi = n0 - int(moved.max()), n0 + int(moved.max())
    if config.absorber is not None:
        a = config.absorber.position
        lo, hi = (lo, min(hi, a - 1)) if a > 0 else (max(lo, a + 1), hi)
    sites = np.broadcast_to(state.positions, (moved.size, state.width))
    # each row holds the sites of its own parity, two apart
    assert np.all(sites % 2 == ((n0 + moved) % 2)[:, np.newaxis])
    assert np.all(np.diff(sites, axis=1) == 2)
    inside = (sites >= lo) & (sites <= hi)
    if config.absorber is not None:
        assert not np.any(sites >= a if a > 0 else sites <= a)
    # every column holds a site in the window, and no row lacks one
    assert np.all(inside.any(axis=0))
    for row, parity in zip(sites, (n0 + moved) % 2):
        first = lo + (lo - parity) % 2
        want = np.arange(first, hi + 1, 2)
        assert set(want.tolist()) <= set(row.tolist())


@settings(max_examples=60, deadline=None)
@given(walks())
# a surviving point mass at −3: σ is 0, not the rounding floor of E[n²] − μ²
@example(WalkConfig(steps=1, absorber=AbsorberConfig(1), step_lengths=np.array([3])))
def test_run_walk_matches_oracle_every_step(config):
    result = run_walk(config)
    _, absorbed = oracle(config, config.steps)
    # the walk stops early only once nothing is left to absorb
    horizon = result.record.horizon
    padded = np.pad(result.record.per_step, (0, config.steps - horizon))
    np.testing.assert_allclose(padded, absorbed, rtol=0, atol=TOL)
    for state, _ in iterate_walk(config):
        assert_live_window(config, state)
        want, _ = oracle(config, state.time)
        dist = probability_distribution(state)
        got = dict(zip(dist.positions.tolist(), dist.probs.tolist()))
        for site in set(got) | set(want):
            assert abs(got.get(site, 0.0) - want.get(site, 0.0)) <= TOL
        assert_sigma_close(result.sigma[state.time - 1], oracle_sigma(want))


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


angles = st.floats(0.0, 2 * math.pi, allow_nan=False)


@st.composite
def unitary_coins(draw):
    """e^{iφ}·[[cos θ e^{iα}, sin θ e^{iβ}], [−sin θ e^{−iβ}, cos θ e^{−iα}]]:
    every 2×2 unitary has this form."""
    phase, theta, alpha, beta = (draw(angles) for _ in range(4))
    g = complex(math.cos(phase), math.sin(phase))

    def e(x):
        return complex(math.cos(x), math.sin(x))

    return CoinOperator(g * math.cos(theta) * e(alpha), -g * math.sin(theta) * e(-beta),
                        g * math.sin(theta) * e(beta), g * math.cos(theta) * e(-alpha))


@pytest.mark.parametrize("absorbing", [False, True])
@settings(max_examples=50, deadline=None)
@given(
    coin=unitary_coins(),
    chi=angles,
    psi=angles,
    lengths=st.lists(st.integers(0, 3), min_size=1, max_size=24),
    position=st.integers(-6, 6).filter(bool),
)
def test_random_unitary_coin_matches_oracle(absorbing, coin, chi, psi, lengths,
                                            position):
    config = WalkConfig(
        steps=len(lengths), coin=coin,
        initial_amp_left=math.cos(chi),
        initial_amp_right=math.sin(chi) * complex(math.cos(psi), math.sin(psi)),
        absorber=AbsorberConfig(position) if absorbing else None,
        step_lengths=np.array(lengths, dtype=np.int64),
    )
    result = run_walk(config)
    want, absorbed = oracle(config, config.steps)
    padded = np.pad(result.record.per_step, (0, config.steps - result.record.horizon))
    np.testing.assert_allclose(padded, absorbed, rtol=0, atol=TOL)
    dist = probability_distribution(result.final_state)
    got = dict(zip(dist.positions.tolist(), dist.probs.tolist()))
    for site in set(got) | set(want):
        assert abs(got.get(site, 0.0) - want.get(site, 0.0)) <= TOL
    absorbed_so_far = 0.0
    for state, step_absorbed in iterate_walk(config):
        absorbed_so_far += step_absorbed
        assert abs(absorbed_so_far + total_mass(state) - 1.0) <= TOL
    if not absorbing:
        assert not np.any(result.record.per_step)


@st.composite
def parity_walks(draw):
    """1..4 rows of step lengths, which may be zero, so rows part in parity;
    an even or odd start; and an absorber on either side of it, or none."""
    steps, rows = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    lengths = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=steps, max_size=steps),
        min_size=rows, max_size=rows))
    start = draw(st.integers(-5, 5))
    side = draw(st.sampled_from((None, "right", "left")))
    absorber = None
    if side == "right":
        nearest = max(start + 1, 1)
        absorber = AbsorberConfig(draw(st.integers(nearest, nearest + 7)))
    elif side == "left":
        nearest = min(start - 1, -1)
        absorber = AbsorberConfig(draw(st.integers(nearest - 7, nearest)))
    initial = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0))))
    return WalkConfig(
        steps=steps,
        engine=draw(st.sampled_from(("quantum", "classical"))),
        coin=coin_by_name(draw(st.sampled_from(
            ("hadamard", "hadamard-mirrored", "kempe")))),
        initial_position=start,
        initial_amp_left=initial[0],
        initial_amp_right=initial[1],
        absorber=absorber,
        step_lengths=np.array(lengths if rows > 1 else lengths[0], dtype=np.int64),
    )


@settings(max_examples=120, deadline=None)
@given(parity_walks())
# rows of both parities, the right absorber at an odd site
@example(WalkConfig(steps=3, initial_position=-1, absorber=AbsorberConfig(1),
                    step_lengths=np.array([[1, 0, 2], [0, 1, 1], [3, 0, 0]])))
# an odd start, the left absorber, a zero-length first step
@example(WalkConfig(steps=4, engine="classical", initial_position=3,
                    absorber=AbsorberConfig(-2),
                    step_lengths=np.array([[0, 2, 1, 3], [1, 1, 1, 1]])))
def test_parity_windows_match_oracles_every_step(config):
    """Every row of every step against the dict walk of its own lengths: its
    p_t and its distribution at TOL, and its mass budget."""
    lengths = np.atleast_2d(config.step_lengths)
    absorbed_so_far = np.zeros(len(lengths))
    for state, absorbed in iterate_walk(config):
        t = state.time
        assert_live_window(config, state)
        absorbed_so_far += absorbed
        np.testing.assert_allclose(absorbed_so_far + total_mass(state), 1.0,
                                   rtol=0, atol=TOL)
        dist = probability_distribution(state)
        probs = np.atleast_2d(dist.probs)
        sites = np.broadcast_to(dist.positions, probs.shape)
        for row, own, got_absorbed in zip(
                lengths, zip(sites.tolist(), probs.tolist()),
                np.broadcast_to(absorbed, absorbed_so_far.shape)):
            want, want_absorbed = oracle(config, t, row)
            assert abs(got_absorbed - want_absorbed[t - 1]) <= TOL
            got = dict(zip(*own))
            for site in set(got) | set(want):
                assert abs(got.get(site, 0.0) - want.get(site, 0.0)) <= TOL


@st.composite
def batched_walks(draw):
    """A walk whose step lengths are 1..4 rows of one length each."""
    config = draw(walks())
    extra = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=config.steps, max_size=config.steps),
        max_size=3,
    ))
    rows = np.array([list(config.step_lengths)] + extra, dtype=np.int64)
    return replace(config, step_lengths=rows)


@settings(max_examples=60, deadline=None)
@given(batched_walks())
# a window cropped symmetrically at t = 2 would drop row 2's mass at +3
# before the absorber at 2 counted it
@example(WalkConfig(steps=2, absorber=AbsorberConfig(2),
                    step_lengths=np.array([[5, 0], [0, 3]])))
# rows that move alike take the per-row placement, as any rows do
@example(WalkConfig(steps=3, absorber=AbsorberConfig(2),
                    step_lengths=np.array([[1, 2, 0], [1, 2, 0]])))
def test_batched_walk_equals_single_row_walks(config):
    batch = run_walk(config)
    atol = mass_tol(batch.final_state.width)
    horizons = []
    for row, lengths in enumerate(config.step_lengths):
        single = run_walk(replace(config, step_lengths=lengths))
        h = single.record.horizon
        horizons.append(h)
        np.testing.assert_allclose(batch.record.per_step[row, :h],
                                   single.record.per_step, rtol=0, atol=atol)
        assert_sigma_close(batch.sigma[row, :h], single.sigma)
        # a row that emptied early reads p = 0 and sigma = NaN from then on
        assert not np.any(batch.record.per_step[row, h:])
        assert np.all(np.isnan(batch.sigma[row, h:]))
    assert batch.record.horizon == max(horizons)
    for state, _ in iterate_walk(config):
        assert_live_window(config, state)


def mirror(config):
    """The same walk reflected through the origin, L and R swapped."""
    c = config.coin
    return replace(
        config,
        coin=CoinOperator(c.d, c.c, c.b, c.a),
        initial_amp_left=config.initial_amp_right,
        initial_amp_right=config.initial_amp_left,
        absorber=None if config.absorber is None
        else AbsorberConfig(-config.absorber.position),
    )


@settings(max_examples=60, deadline=None)
@given(walks())
def test_mirror_symmetry(config):
    walk, image = run_walk(config), run_walk(mirror(config))
    width = walk.final_state.width
    np.testing.assert_allclose(image.record.per_step, walk.record.per_step,
                               rtol=0, atol=mass_tol(width))
    assert_sigma_close(image.sigma, walk.sigma)
    dist = probability_distribution(walk.final_state)
    reflected = probability_distribution(image.final_state)
    np.testing.assert_array_equal(reflected.positions, -dist.positions[::-1])
    np.testing.assert_allclose(reflected.probs, dist.probs[::-1],
                               rtol=0, atol=mass_tol(width))


@settings(max_examples=30, deadline=None)
@given(
    engine=st.sampled_from(("quantum", "classical")),
    disorder=st.sampled_from([poisson(1.0), *TABLE2_PRESETS.values()]),
    realizations=st.integers(2, 8),
    steps=st.integers(1, 24),
    absorber=st.one_of(st.none(), st.integers(-4, 4).filter(bool)),
    block_bytes=st.integers(1, 4096),
    seed=st.integers(0, 2 ** 16),
)
def test_block_layout_does_not_change_ensembles(
    engine, disorder, realizations, steps, absorber, block_bytes, seed
):
    config = EnsembleConfig(
        walk=WalkConfig(steps=steps, engine=engine,
                        absorber=None if absorber is None else AbsorberConfig(absorber)),
        realizations=realizations, master_seed=seed, disorder=disorder,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "BLOCK_BYTES", 2 ** 40)
        absorbed, sigma = run_ensemble(config)  # one block
        patch.setattr(ensemble, "BLOCK_BYTES", block_bytes)
        split_absorbed, split_sigma = run_ensemble(config)
    lengths = [sample_realization(disorder, steps, child_seed(seed, i)).lengths
               for i in range(realizations)]
    width = 1 + 2 * int(max(row.sum() for row in lengths))  # the widest window
    np.testing.assert_allclose(split_absorbed, absorbed, rtol=0, atol=mass_tol(width))
    assert_sigma_close(split_sigma, sigma)


# FFT products in w = z² against exact rational p_t: absolute 1e-15
SERIES_ATOL = 1e-15
positions = st.integers(1, 12).flatmap(lambda m: st.sampled_from((m, -m)))


@settings(max_examples=80, deadline=None)
@given(m1=positions, initial=st.sampled_from("LR"), order=st.integers(12, 64))
def test_series_probabilities_match_fraction_oracle(m1, initial, order):
    # a negative m1 is the mirrored walk: absorber at |m1|, coin roles swapped
    mirrored = initial if m1 > 0 else "RL"[initial == "R"]
    exact = exact_absorption_probabilities(abs(m1), mirrored, order)
    got = absorption_probabilities(m1, initial, order)
    np.testing.assert_allclose(got, exact, rtol=0, atol=SERIES_ATOL)


@settings(max_examples=60, deadline=None)
@given(
    m1s=st.lists(positions, min_size=1, max_size=8),
    initial=st.sampled_from("LR"),
    order=st.integers(12, 64),
    tail=st.sampled_from(("power_law", "none")),
)
def test_multi_row_summaries_equal_one_row_calls(m1s, initial, order, tail):
    # bit for bit: every row reads the same chain of powers
    assert absorption_summaries(m1s, initial, order, tail) == [
        absorption_summary(m1, initial, order, tail) for m1 in m1s
    ]
    rows = dict(series._amplitude_rows(m1s, initial, order))
    assert sorted(rows) == sorted(set(m1s))
    for m1, amps in rows.items():
        np.testing.assert_array_equal(
            amps, generating_function(m1, initial, order).coeffs)


# The first-passage law from its term ratio, summed in logs: relative 1e-11
# wherever the exact p_t is a normal float (measured worst 6.9e-13 over
# t <= 4·10^4 for m1 in 1, 2, 5, 1500); below that, the exp rounds to
# subnormals and zero.
FIRST_PASSAGE_RTOL = 1e-11
TINY = np.finfo(np.float64).tiny


@settings(max_examples=40, deadline=None)
@given(
    m1=st.integers(1, 1200).flatmap(lambda m: st.sampled_from((m, -m))),
    horizon=st.integers(0, 2500),
)
@example(m1=1100, horizon=2500)  # p_m = 2^-1100 is below every float
@example(m1=1, horizon=2500)
def test_first_passage_series_matches_exact_oracle(m1, horizon):
    ts, ps = first_passage_series(m1, horizon)
    np.testing.assert_array_equal(ts, np.arange(abs(m1), horizon + 1, 2))
    exact = np.array([float(exact_first_passage(int(t), m1)) for t in ts])
    np.testing.assert_allclose(ps, exact, rtol=FIRST_PASSAGE_RTOL,
                               atol=FIRST_PASSAGE_RTOL * TINY)
