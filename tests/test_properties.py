"""Property tests of the one walk pipeline against the dict-walk oracles,
of batched (R-row) walks against single walks, of the mirror symmetry, and
of the absorption series against the exact Fraction and Lagrange-inversion
oracles.

Hypothesis draws the engine, the coin (a named one, or any 2×2 unitary) and
initial coin state, a step-length sequence that may contain zero-length
steps, and an absorber on either side of the origin (or none). The parity
windows are drawn wider still: up to four rows that part in parity, and an
absorber at an even or odd site on either side of the origin.
"""
import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dict_classical_walk,
    dict_quantum_walk,
    exact_absorption_probabilities,
    exact_absorption_term,
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
    child_seed,
    coin_by_name,
    engine,
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
)

TOL = 1e-12
# Rows on a shared (wider) window, or a mirrored walk, sum the same terms in
# another order: absorbed mass may differ by W·2^-52 for a window of W sites,
# and sigma by a relative 1e-12, which also bounds sigma against the exact
# Fraction oracle.
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
    or of its row with step lengths `lengths`."""
    absorber = config.absorber.position if config.absorber else None
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
    return dist, absorbed


def oracle_sigma(dist):
    """σ of a {site: probability} distribution, renormalized: exact in
    Fraction, rounded once to a float before the square root; NaN without
    mass."""
    probs = {n: Fraction(p) for n, p in dist.items()}
    mass = sum(probs.values())
    if mass == 0:
        return math.nan
    mean = sum(n * p for n, p in probs.items()) / mass
    return math.sqrt(sum(p * (n - mean) ** 2 for n, p in probs.items()) / mass)


def assert_live_window(config, state):
    """The window holds, for some row, a site of that row's parity within
    the farthest any row has moved from the start, site 0, cut at the
    absorber: no row holds a site at or beyond it. For either engine it
    ends, on each side, at its outermost column where some row holds a
    value of magnitude at least the state's floor. A walk that no row
    survives ends on an empty window."""
    if not state.width:
        return
    moved = np.atleast_2d(config.step_lengths)[:, :state.time].sum(axis=1)
    lo, hi = -int(moved.max()), int(moved.max())
    if config.absorber is not None:
        a = config.absorber.position
        lo, hi = (lo, min(hi, a - 1)) if a > 0 else (max(lo, a + 1), hi)
    sites = np.broadcast_to(state.positions, (moved.size, state.width))
    # each row holds the sites of its own parity, two apart
    assert np.all(sites % 2 == (moved % 2)[:, np.newaxis])
    assert np.all(np.diff(sites, axis=1) == 2)
    inside = (sites >= lo) & (sites <= hi)
    if config.absorber is not None:
        assert not np.any(sites >= a if a > 0 else sites <= a)
    # every column holds a site in the window
    assert np.all(inside.any(axis=0))
    edges = np.abs(state.values[..., [0, -1]]).reshape(-1, 2).max(axis=0)
    assert np.all(edges >= state.floor)


@settings(max_examples=60, deadline=None)
@given(walks())
# a surviving point mass at −3: σ is 0, not the rounding floor of E[n²] − μ²
@example(WalkConfig(steps=1, absorber=AbsorberConfig(1), step_lengths=np.array([3])))
def test_run_walk_matches_oracle_every_step(config):
    result = run_walk(config)
    _, absorbed = oracle(config, config.steps)
    # the walk stops early only once nothing is left to absorb
    horizon = result.per_step.shape[-1]
    padded = np.pad(result.per_step, (0, config.steps - horizon))
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
        assert abs(absorbed_so_far + state.mass() - 1.0) <= TOL
    result = run_walk(config)
    total = result.per_step.sum(axis=-1) + result.final_state.mass()
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
    padded = np.pad(result.per_step, (0, config.steps - result.per_step.shape[-1]))
    np.testing.assert_allclose(padded, absorbed, rtol=0, atol=TOL)
    dist = probability_distribution(result.final_state)
    got = dict(zip(dist.positions.tolist(), dist.probs.tolist()))
    for site in set(got) | set(want):
        assert abs(got.get(site, 0.0) - want.get(site, 0.0)) <= TOL
    absorbed_so_far = 0.0
    for state, step_absorbed in iterate_walk(config):
        absorbed_so_far += step_absorbed
        assert abs(absorbed_so_far + state.mass() - 1.0) <= TOL
    if not absorbing:
        assert not np.any(result.per_step)


@st.composite
def parity_walks(draw):
    """1..4 rows of step lengths, which may be zero, so rows part in parity,
    and an absorber at an even or odd site on either side of the origin, or
    none."""
    steps, rows = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    lengths = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=steps, max_size=steps),
        min_size=rows, max_size=rows))
    side = draw(st.sampled_from((None, "right", "left")))
    absorber = None
    if side == "right":
        absorber = AbsorberConfig(draw(st.integers(1, 8)))
    elif side == "left":
        absorber = AbsorberConfig(draw(st.integers(-8, -1)))
    initial = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0))))
    return WalkConfig(
        steps=steps,
        engine=draw(st.sampled_from(("quantum", "classical"))),
        coin=coin_by_name(draw(st.sampled_from(
            ("hadamard", "hadamard-mirrored", "kempe")))),
        initial_amp_left=initial[0],
        initial_amp_right=initial[1],
        absorber=absorber,
        step_lengths=np.array(lengths if rows > 1 else lengths[0], dtype=np.int64),
    )


@settings(max_examples=120, deadline=None)
@given(parity_walks())
# rows of both parities, the right absorber at an even site
@example(WalkConfig(steps=3, absorber=AbsorberConfig(2),
                    step_lengths=np.array([[1, 0, 2], [0, 1, 1], [3, 0, 0]])))
# the left absorber at an odd site, a zero-length first step
@example(WalkConfig(steps=4, engine="classical", absorber=AbsorberConfig(-5),
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
        np.testing.assert_allclose(absorbed_so_far + state.mass(), 1.0,
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
def framed_walks(draw):
    """Either engine, 1–4 rows of step lengths 0–4, and an absorber at
    ±1..±6 or none."""
    steps, rows = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    lengths = draw(st.lists(
        st.lists(st.integers(0, 4), min_size=steps, max_size=steps),
        min_size=rows, max_size=rows))
    position = draw(st.one_of(st.none(), st.integers(-6, 6).filter(bool)))
    return WalkConfig(
        steps=steps,
        engine=draw(st.sampled_from(("quantum", "classical"))),
        absorber=None if position is None else AbsorberConfig(position),
        step_lengths=np.array(lengths if rows > 1 else lengths[0], dtype=np.int64),
    )


def first_cut_column(state, position, parity):
    """The first column of a row of `parity` that holds a site at or beyond
    the absorber at `position` (position > 0), or the first that holds one
    short of it (position < 0)."""
    gap = position - state.n_min - parity
    return -(-gap // 2) if position > 0 else gap // 2 + 1


@settings(max_examples=100, deadline=None)
@given(framed_walks())
# rows of both parities, the left absorber at an odd site
@example(WalkConfig(steps=3, engine="classical", absorber=AbsorberConfig(-3),
                    step_lengths=np.array([[1, 0, 4], [0, 1, 1]])))
def test_every_window_lies_in_its_frame(config):
    """What the kernels assume of every state the walk yields: its window is
    a view into the live buffer of its frame, its first site has the parity
    of the frame's origin, and the absorber's cut falls between the same two
    columns for rows of either parity."""
    for state, _ in iterate_walk(config):
        origin, live, spare = state.frame
        values = state.values
        assert live.shape == spare.shape and live.shape[:-1] == values.shape[:-1]
        assert (state.n_min - origin) % 2 == 0
        start = (state.n_min - origin) // 2
        assert 0 <= start and start + state.width <= live.shape[-1]
        assert values.base is live
        offset = values.__array_interface__["data"][0] - live.__array_interface__["data"][0]
        assert offset == start * live.strides[-1]
        if config.absorber is not None:
            a = config.absorber.position
            assert first_cut_column(state, a, 0) == first_cut_column(state, a, 1)


@st.composite
def real_walks(draw):
    """A quantum walk with a real coin and start: 1–4 rows of step lengths,
    and an absorber on either side of the origin or none."""
    steps, rows = draw(st.integers(1, 24)), draw(st.integers(1, 4))
    lengths = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=steps, max_size=steps),
        min_size=rows, max_size=rows))
    position = draw(st.one_of(st.none(), st.integers(-6, 6).filter(bool)))
    initial = draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0))))
    return WalkConfig(
        steps=steps,
        coin=coin_by_name(draw(st.sampled_from(("hadamard", "hadamard-mirrored")))),
        initial_amp_left=initial[0],
        initial_amp_right=initial[1],
        absorber=None if position is None else AbsorberConfig(position),
        step_lengths=np.array(lengths if rows > 1 else lengths[0], dtype=np.int64),
    )


@settings(max_examples=80, deadline=None)
@given(real_walks())
def test_real_amplitudes_equal_complex_walk_bit_for_bit(config):
    """The float64 fast path against the same walk stepped on complex128."""
    fast = run_walk(config)
    with mock.patch.object(engine, "real_amplitudes", return_value=False):
        slow = run_walk(config)
    assert fast.final_state.psi.dtype == np.float64
    assert slow.final_state.psi.dtype == np.complex128
    assert fast.per_step.shape[-1] == slow.per_step.shape[-1]
    assert np.array_equal(fast.per_step, slow.per_step)
    assert np.array_equal(fast.sigma, slow.sigma, equal_nan=True)


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
    assert_block_equals_rows(config, batch, mass_tol(batch.final_state.width))
    for state, _ in iterate_walk(config):
        assert_live_window(config, state)


@st.composite
def planned_blocks(draw):
    """2–5 rows of step lengths 0–4 on either engine: the first row stands
    still and the second moves by one at the first step, so the rows part
    in parity, and an absorber on either side of the origin or none."""
    steps, extra = draw(st.integers(1, 16)), draw(st.integers(0, 3))
    rows = [draw(st.lists(st.integers(0, 4), min_size=steps - 1, max_size=steps - 1))
            for _ in range(2 + extra)]
    lengths = np.array([[0] + rows[0], [1] + rows[1]]
                       + [[draw(st.integers(0, 4))] + row for row in rows[2:]])
    position = draw(st.one_of(st.none(), st.integers(-6, 6).filter(bool)))
    return WalkConfig(
        steps=steps,
        engine=draw(st.sampled_from(("quantum", "classical"))),
        coin=coin_by_name(draw(st.sampled_from(("hadamard", "kempe")))),
        absorber=None if position is None else AbsorberConfig(position),
        step_lengths=lengths,
    )


@settings(max_examples=80, deadline=None)
@given(planned_blocks())
def test_planned_block_equals_its_rows(config):
    """A block walks its rows from one plan: each row's p_t and σ equal its
    own walk's, within the rounding of a window of every reachable site."""
    reach = int(config.step_lengths.sum(axis=1).max())
    assert_block_equals_rows(config, run_walk(config), mass_tol(1 + 2 * reach))


def assert_block_equals_rows(config, batch, atol):
    horizons = []
    for row, lengths in enumerate(config.step_lengths):
        single = run_walk(replace(config, step_lengths=lengths))
        h = single.per_step.shape[-1]
        horizons.append(h)
        np.testing.assert_allclose(batch.per_step[row, :h],
                                   single.per_step, rtol=0, atol=atol)
        assert_sigma_close(batch.sigma[row, :h], single.sigma)
        # a row that emptied early reads p = 0 and sigma = NaN from then on
        assert not np.any(batch.per_step[row, h:])
        assert np.all(np.isnan(batch.sigma[row, h:]))
    assert batch.per_step.shape[-1] == max(horizons)


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
    np.testing.assert_allclose(image.per_step, walk.per_step,
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


@pytest.mark.parametrize("absorber", [2, None], ids=["with", "without"])
@pytest.mark.parametrize("preset", sorted(TABLE2_PRESETS))
def test_sweep_sigma_matches_exact_oracle(preset, absorber):
    """The sweep's σ, rows of one block of its 80-step Hadamard walks, at the
    ends and middle of its fit range, against the exact oracle."""
    times, seed = (20, 50, 80), 1
    config = EnsembleConfig(
        walk=WalkConfig(steps=80,
                        absorber=None if absorber is None else AbsorberConfig(absorber)),
        realizations=3, master_seed=seed, disorder=TABLE2_PRESETS[preset],
    )
    _, sigma = run_ensemble(config, sigma_times=times, absorbed=False)
    for i, row in enumerate(sigma):
        lengths = sample_realization(config.disorder, 80, child_seed(seed, i)).lengths
        for got, t in zip(row, times):
            want, _ = oracle(config.walk, t, lengths)
            assert_sigma_close(got, oracle_sigma(want))


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
        absorption_summaries([m1], initial, order, tail)[0] for m1 in m1s
    ]
    rows = dict(series._amplitude_rows(m1s, initial, order))
    assert sorted(rows) == sorted(set(m1s))
    for m1, amps in rows.items():
        np.testing.assert_array_equal(
            amps, generating_function(m1, initial, order).coeffs)


# The rows at the CLI's default order against the exact p_t of Lagrange
# inversion: |p_t − exact| <= 1e-13 × the row's largest p_t, fixed before the
# first run (measured: at most 1.9e-15 × the peak, over 119 t in each row).
EXACT_TERM_REL_PEAK = 1e-13


@settings(max_examples=100, deadline=None)
@given(m1=st.integers(1, 10).flatmap(lambda m: st.sampled_from((m, -m))),
       initial=st.sampled_from("LR"), t=st.integers(1, series.DEFAULT_ORDER))
@example(m1=2, initial="L", t=4)  # a zero of the sum A, not of parity
@example(m1=10, initial="R", t=8)  # before the absorber is reached
@example(m1=-9, initial="L", t=series.DEFAULT_ORDER - 1)
def test_absorption_rows_match_exact_terms(m1, initial, t):
    probs = absorption_probabilities(m1, initial, series.DEFAULT_ORDER)
    num, den = exact_absorption_term(m1, initial, t)
    assert abs(probs[t - 1] - num / den) <= EXACT_TERM_REL_PEAK * float(probs.max())


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
