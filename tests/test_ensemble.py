"""Tests for disorder ensembles: averaging, exclusions, and exponent fits."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import exact_avg_times
from walklab import (
    TABLE2_PRESETS,
    AbsorberConfig,
    AveragedCurve,
    ConfigurationError,
    EnsembleConfig,
    NoAbsorptionError,
    NumericalError,
    WalkConfig,
    child_seed,
    coin_by_name,
    disorder_avg_absorb_time,
    disorder_avg_sigma,
    finite_horizon_avg_time,
    fit_exponent,
    point_mass,
    poisson,
    run_ensemble,
    run_walk,
    sample_realization,
)
from walklab import ensemble

def _pad(result, steps):
    p = np.zeros(steps)
    p[: result.per_step.shape[-1]] = result.per_step
    s = np.full(steps, np.nan)
    s[: result.sigma.size] = result.sigma
    return p, s


@pytest.mark.parametrize("engine", ["quantum", "classical"])
@pytest.mark.parametrize("absorbing", [False, True])
def test_point_mass_ensemble_reduces_to_clean_walk(engine, absorbing):
    steps = 25
    absorber = AbsorberConfig(position=2) if absorbing else None
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=steps, engine=engine, absorber=absorber),
        realizations=3,
        disorder=point_mass(1),
    )
    absorbed, sigma = run_ensemble(cfg)
    clean = run_walk(WalkConfig(steps=steps, engine=engine, absorber=absorber))
    p, s = _pad(clean, steps)
    for i in range(cfg.realizations):
        assert np.array_equal(absorbed[i], p)
        assert np.array_equal(sigma[i], s, equal_nan=True)


@pytest.mark.parametrize("engine", ["quantum", "classical"])
def test_block_layout_does_not_change_results(engine, monkeypatch):
    # rows share a window whose width depends on the block, so pairwise sums
    # may round differently: absorbed within W·2^-52 (W = widest window),
    # sigma within a relative 1e-12
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=30, engine=engine, absorber=AbsorberConfig(position=3)),
        realizations=6,
        master_seed=2,
        disorder=poisson(1.0),
    )
    a1, s1 = run_ensemble(cfg)  # one block
    monkeypatch.setattr(ensemble, "BLOCK_BYTES", 1)
    a6, s6 = run_ensemble(cfg)  # one row per block
    lengths = np.stack([
        sample_realization(cfg.disorder, 30, child_seed(2, i)).lengths for i in range(6)
    ])
    width = 1 + 2 * int(lengths.sum(axis=1).max())
    np.testing.assert_allclose(a6, a1, rtol=0, atol=width * 2.0 ** -52)
    np.testing.assert_allclose(s6, s1, rtol=1e-12, atol=0)
    assert np.array_equal(np.isnan(s6), np.isnan(s1))


def test_ensemble_without_sigma_stores_none():
    # 2,000 realizations × 100 steps: one 1.6 MB matrix. The ensemble holds
    # its absorbed matrix and its step lengths, plus block windows of at most
    # BLOCK_BYTES; asked for no σ, it builds no σ rows or σ matrix. The
    # average then reduces in place, one more matrix and a mask at most, so
    # its peak is the ensemble's own (2.56 matrices measured)
    steps, count = 100, 2000
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=steps, engine="classical", absorber=AbsorberConfig(2)),
        realizations=count,
        disorder=poisson(1.0),
    )
    matrix = count * steps * 8
    sample_realization(cfg.disorder, 1, 0)  # table and numpy.random loaded first
    tracemalloc.start()
    try:
        absorbed, sigma = run_ensemble(cfg, sigma_times=())
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        disorder_avg_absorb_time(cfg, range(1, steps + 1))
        average_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert sigma is None
    assert peak < 3 * matrix
    assert average_peak < 5 * matrix
    assert average_peak < 3 * matrix
    with_sigma, _ = run_ensemble(cfg, sigma_times=[steps])
    assert np.array_equal(absorbed, with_sigma)


def test_sigma_average_holds_only_its_columns():
    # 2,000 realizations × 100 steps, σ at t = 20..80: the ensemble keeps a
    # (realizations × 61) σ matrix, reduces it in place, and holds no
    # absorption matrix; a block of rows adds only what its rows hold, which
    # `_block_bytes` counts against BLOCK_BYTES (0.79 of it measured)
    steps, count, ts = 100, 2000, range(20, 81)
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=steps, engine="classical", absorber=AbsorberConfig(2)),
        realizations=count,
        disorder=poisson(1.0),
    )
    matrix = count * len(ts) * 8
    sample_realization(cfg.disorder, 1, 0)  # table and numpy.random loaded first
    tracemalloc.start()
    try:
        curve = disorder_avg_sigma(cfg, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= matrix + ensemble.BLOCK_BYTES
    # the average walks only to its last t, 80
    stopped = replace(cfg, walk=replace(cfg.walk, steps=80))
    _, sigma = run_ensemble(stopped, sigma_times=ts, absorbed=False)
    np.testing.assert_array_equal(curve.values, np.nanmean(sigma, axis=0))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("spec", [poisson(1.0), TABLE2_PRESETS["tableII-hypergeometric"]],
                         ids=["poisson", "hypergeometric"])
def test_ensemble_rows_are_the_public_draws(spec, seed, monkeypatch):
    # run_ensemble's rows must be sample_realization's draws from
    # child_seed(seed, i), in one block or in many
    steps, count, blocks = 40, 12, []
    record = ensemble.record_walk
    def capture(config, *args):
        blocks.append(np.array(config.step_lengths))
        return record(config, *args)
    monkeypatch.setattr(ensemble, "record_walk", capture)
    cfg = EnsembleConfig(WalkConfig(steps=steps, absorber=AbsorberConfig(2)),
                         count, seed, spec)
    want = np.stack([sample_realization(spec, steps, child_seed(seed, i)).lengths
                     for i in range(count)])
    for block_bytes in (ensemble.BLOCK_BYTES, 1):
        monkeypatch.setattr(ensemble, "BLOCK_BYTES", block_bytes)
        blocks.clear()
        run_ensemble(cfg, sigma_times=())
        got = np.concatenate(blocks)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    assert len(blocks) == count


@pytest.mark.parametrize("spec", [poisson(1.0), None], ids=["disordered", "clean"])
def test_an_ensemble_draws_only_through_sample_realization(spec, monkeypatch):
    # the one draw path: a disordered ensemble calls sample_realization once
    # per realization, with child_seed(seed, i), and a clean one never; the
    # counted run gives the same matrices as the uncounted one
    steps, count, seed, calls = 40, 12, 3, []
    draw = ensemble.sample_realization
    def counted(*args):
        calls.append(args)
        return draw(*args)
    cfg = EnsembleConfig(WalkConfig(steps=steps, absorber=AbsorberConfig(2)),
                         count, seed, spec)
    want = run_ensemble(cfg, sigma_times=[10, 40])
    monkeypatch.setattr(ensemble, "sample_realization", counted)
    got = run_ensemble(cfg, sigma_times=[10, 40])
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    want_calls = [] if spec is None else [(spec, steps, child_seed(seed, i))
                                          for i in range(count)]
    assert calls == want_calls


def _sweep_ensembles(coin, presets=tuple(TABLE2_PRESETS)):
    """The default `sweep` ensembles of `presets` (200 realizations of 80
    steps, with the absorber at 2 and without), on the quantum walk with
    `coin` or, for None, on the classical walk."""
    for name in presets:
        spec = TABLE2_PRESETS[name]
        for absorber in (AbsorberConfig(2), None):
            walk = WalkConfig(steps=80, engine="classical" if coin is None else "quantum",
                              coin=coin_by_name(coin or "hadamard"), absorber=absorber)
            yield EnsembleConfig(walk, 200, 1, spec)


@pytest.mark.parametrize("block_bytes", [2 ** 18, 2 ** 21], ids=["256KiB", "2MiB"])
@pytest.mark.parametrize("coin", ["hadamard", "kempe", None],
                         ids=["quantum", "quantum-complex", "classical"])
def test_block_peak_stays_within_block_bytes(coin, block_bytes, monkeypatch):
    # above the σ matrix, a σ average holds at most BLOCK_BYTES at its peak:
    # the blocks' arrays and step temporaries, and numpy's iteration buffers
    # (up to np.getbufsize() elements per operand of an in-place ufunc on a
    # window), which the parent did not count: at 256 KiB its quantum peak
    # was 1.15 times BLOCK_BYTES, its complex one 1.35 times. The other two
    # presets draw the same laws (geometric) or nearly (hypergeometric)
    monkeypatch.setattr(ensemble, "BLOCK_BYTES", block_bytes)
    ts = range(20, 81)
    matrix = 200 * len(ts) * 8
    for cfg in _sweep_ensembles(coin, ("tableII-binomial", "tableII-negbinomial")):
        sample_realization(cfg.disorder, 1, 0)  # table and numpy.random loaded first
        tracemalloc.start()
        try:
            disorder_avg_sigma(cfg, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - matrix <= block_bytes, (cfg.disorder.to_text(), cfg.walk.absorber)


def test_default_sweep_ensembles_run_as_one_block(monkeypatch):
    # every block step pays a fixed Python cost, so the default BLOCK_BYTES
    # runs each default `sweep` ensemble whole
    blocks = []
    record = ensemble.record_walk
    def count_rows(config, *args):
        blocks.append(len(config.step_lengths))
        return record(config, *args)
    monkeypatch.setattr(ensemble, "record_walk", count_rows)
    for cfg in _sweep_ensembles("hadamard"):
        blocks.clear()
        disorder_avg_sigma(cfg, range(20, 81))
        assert blocks == [200], cfg.disorder.to_text()


def test_single_realization_matches_clean_run():
    cfg = EnsembleConfig(walk=WalkConfig(steps=30, engine="quantum"), realizations=1)
    curve = disorder_avg_sigma(cfg)
    clean = run_walk(WalkConfig(steps=30))
    assert np.allclose(curve.values, clean.sigma, atol=0, rtol=0)
    assert np.all(curve.stderr == 0.0)
    assert np.all(curve.included == 1)
    assert np.all(curve.excluded == 0)


@pytest.mark.parametrize("engine", ["quantum", "classical"])
def test_an_average_stops_at_the_last_step_it_reads(engine):
    """Without disorder every realization walks the clean template; an
    average that reads only the first steps reads them off that one walk."""
    walk = WalkConfig(steps=10, engine=engine, absorber=AbsorberConfig(3))
    cfg = EnsembleConfig(walk=walk, realizations=2)
    full = run_walk(walk)
    assert disorder_avg_sigma(cfg, [2, 5]).values.tolist() == full.sigma[[1, 4]].tolist()
    curve = disorder_avg_absorb_time(cfg, [4, 6])
    assert curve.values.tolist() == [finite_horizon_avg_time(full.per_step, n) for n in (4, 6)]


def test_avg_sigma_stderr_is_sample_spread_over_sqrt_count():
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=40, engine="classical"),
        realizations=50,
        master_seed=9,
        disorder=poisson(1.0),
    )
    _, sigma = run_ensemble(cfg)
    curve = disorder_avg_sigma(cfg, t_grid=[10, 25, 40])
    for j, t in enumerate([10, 25, 40]):
        col = sigma[:, t - 1]
        assert curve.values[j] == pytest.approx(float(np.mean(col)), abs=1e-14)
        expected = float(np.std(col, ddof=1)) / math.sqrt(col.size)
        assert curve.stderr[j] == pytest.approx(expected, abs=1e-14)


def test_avg_sigma_stderr_shrinks_with_ensemble_size():
    def stderr_at(realizations):
        cfg = EnsembleConfig(
            walk=WalkConfig(steps=40, engine="classical"),
            realizations=realizations,
            master_seed=9,
            disorder=poisson(1.0),
        )
        return float(disorder_avg_sigma(cfg, t_grid=[40]).stderr[0])

    ratio = stderr_at(50) / stderr_at(200)
    # fourfold ensemble should cut stderr about in half
    assert 1.2 < ratio < 3.2


def test_finite_horizon_avg_time_hand_values():
    per_step = np.array([0.5, 0.25])
    assert finite_horizon_avg_time(per_step, 1) == pytest.approx(1.0, abs=1e-15)
    assert finite_horizon_avg_time(per_step, 2) == pytest.approx(4.0 / 3.0, abs=1e-15)
    # horizons beyond the recorded range clamp to what was recorded
    assert finite_horizon_avg_time(per_step, 10) == pytest.approx(4.0 / 3.0, abs=1e-15)
    with pytest.raises(ConfigurationError):
        finite_horizon_avg_time(per_step, 0)
    empty = np.zeros(4)
    with pytest.raises(NoAbsorptionError):
        finite_horizon_avg_time(empty, 4)


def test_avg_absorb_time_excludes_empty_realizations_per_horizon():
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=8, engine="classical", absorber=AbsorberConfig(position=6)),
        realizations=20,
        master_seed=5,
        disorder=poisson(1.0),
    )
    curve = disorder_avg_absorb_time(cfg, horizons=[4, 8])
    assert curve.included.tolist() == [5, 15]
    assert curve.excluded.tolist() == [15, 5]
    # later horizons can only gain realizations, never lose them
    assert curve.included[1] >= curve.included[0]
    assert np.all(np.isfinite(curve.values))
    assert np.all(curve.values > 0)


def test_avg_absorb_time_matches_manual_average():
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=8, engine="classical", absorber=AbsorberConfig(position=6)),
        realizations=20,
        master_seed=5,
        disorder=poisson(1.0),
    )
    absorbed, _ = run_ensemble(cfg)
    ratios = []
    for row in absorbed:
        den = row.sum()
        if den > 0:
            ts = np.arange(1, row.size + 1)
            ratios.append(float((ts * row).sum() / den))
    curve = disorder_avg_absorb_time(cfg, horizons=[8])
    assert curve.values[0] == pytest.approx(np.mean(ratios), abs=1e-12)


def test_avg_absorb_time_every_horizon_equals_a_horizon_subset():
    # bit for bit: every step as a horizon skips the column selection, but
    # each horizon's column is reduced in the same order either way
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=100, engine="classical", absorber=AbsorberConfig(2)),
        realizations=300,
        master_seed=5,
        disorder=poisson(1.0),
    )
    every = disorder_avg_absorb_time(cfg, range(1, 101))
    subset = disorder_avg_absorb_time(cfg, range(2, 101))
    for field in ("values", "stderr", "included"):
        np.testing.assert_array_equal(getattr(every, field)[1:], getattr(subset, field))


def test_avg_absorb_time_all_empty_raises():
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=3, engine="classical", absorber=AbsorberConfig(position=50)),
        realizations=2,
        disorder=point_mass(1),
    )
    with pytest.raises(NoAbsorptionError):
        disorder_avg_absorb_time(cfg, horizons=[3])


def test_avg_absorb_time_empty_horizon_is_nan():
    # one step cannot reach the absorber at 2; the second step absorbs 1/4
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=3, engine="classical", absorber=AbsorberConfig(position=2)),
        realizations=2,
        disorder=point_mass(1),
    )
    curve = disorder_avg_absorb_time(cfg, horizons=[1, 3])
    assert curve.included.tolist() == [0, 2]
    assert np.isnan(curve.values[0]) and np.isnan(curve.stderr[0])
    assert curve.values[1] == 2.0
    assert curve.stderr[1] == 0.0


def test_avg_absorb_time_validation():
    cfg = EnsembleConfig(walk=WalkConfig(steps=10, engine="classical"), realizations=2)
    with pytest.raises(ConfigurationError):
        disorder_avg_absorb_time(cfg, horizons=[5])  # no absorber
    cfg = EnsembleConfig(
        walk=WalkConfig(steps=10, engine="classical", absorber=AbsorberConfig(position=1)),
        realizations=2,
    )
    with pytest.raises(ConfigurationError):
        disorder_avg_absorb_time(cfg, horizons=[])
    with pytest.raises(ConfigurationError):
        disorder_avg_absorb_time(cfg, horizons=[0, 5])
    with pytest.raises(ConfigurationError):
        disorder_avg_absorb_time(cfg, horizons=[5, 11])


def test_avg_sigma_grid_validation():
    cfg = EnsembleConfig(walk=WalkConfig(steps=10, engine="classical"), realizations=2)
    with pytest.raises(ConfigurationError):
        disorder_avg_sigma(cfg, t_grid=[0, 5])
    with pytest.raises(ConfigurationError):
        disorder_avg_sigma(cfg, t_grid=[11])
    with pytest.raises(ConfigurationError):
        disorder_avg_sigma(cfg, t_grid=[])


def test_ensemble_config_validation():
    with pytest.raises(ConfigurationError):
        EnsembleConfig(walk=WalkConfig(steps=10, engine="stochastic"), realizations=2)
    with pytest.raises(ConfigurationError):
        EnsembleConfig(walk=WalkConfig(steps=0, engine="quantum"), realizations=2)
    with pytest.raises(ConfigurationError):
        EnsembleConfig(walk=WalkConfig(steps=10, engine="quantum"), realizations=0)


def _curve(ts, values):
    ts = np.asarray(ts, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    return AveragedCurve(
        abscissa=ts,
        values=values,
        stderr=np.zeros_like(values),
        realization_count=1,
        included=np.ones(ts.size, dtype=np.int64),
    )


def test_fit_exponent_recovers_exact_power_law():
    ts = np.arange(10, 101)
    fit = fit_exponent(_curve(ts, 3.0 * ts ** 0.7), t_lo=10, t_hi=100)
    assert fit.alpha == pytest.approx(0.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual_rms <= 1e-12
    assert fit.ci95_halfwidth <= 1e-12
    assert fit.n_points == 91
    assert fit.fit_range == (10, 100)

    fit = fit_exponent(_curve(ts, np.sqrt(ts)), t_lo=20, t_hi=80)
    assert fit.alpha == pytest.approx(0.5, abs=1e-12)
    assert fit.n_points == 61


def test_fit_exponent_uses_only_requested_window():
    ts = np.arange(1, 101)
    values = 2.0 * ts ** 1.3
    # corrupt points outside the window; the fit must not see them
    values[:10] = 1e-6
    fit = fit_exponent(_curve(ts, values), t_lo=20, t_hi=80)
    assert fit.alpha == pytest.approx(1.3, abs=1e-12)


def test_fit_exponent_errors():
    ts = np.arange(10, 31)
    values = ts.astype(float)
    with pytest.raises(ConfigurationError):
        fit_exponent(_curve(ts, values), t_lo=50, t_hi=40)
    with pytest.raises(ConfigurationError):
        fit_exponent(_curve(ts, values), t_lo=200, t_hi=300)
    bad = values.copy()
    bad[ts.tolist().index(25)] = 0.0
    with pytest.raises(NumericalError, match="25"):
        fit_exponent(_curve(ts, bad), t_lo=10, t_hi=30)


def test_absorbing_time_growth_reverses_under_disorder():
    """⟨t_a^(n)⟩ ∝ n^γ over horizons n = 100..400, absorber 2. Bounds fixed
    from measured fits (value ± ci95): clean quantum 0.0087 ± 0.0011, the
    classical closed form 0.529 ± 0.003 (tending to 1/2 from above), and a
    Poisson(1) quantum ensemble of 40 (seed 1) 0.611 ± 0.022; seeds 1..12
    gave 0.58..0.68."""
    hs = np.unique(np.geomspace(25, 400, 24).astype(np.int64))
    walk = WalkConfig(steps=400, absorber=AbsorberConfig(2))

    def gamma(curve):
        return fit_exponent(curve, 100, 400)

    clean = gamma(disorder_avg_absorb_time(EnsembleConfig(walk, 1), hs))
    assert abs(clean.alpha) < 0.02
    values = np.array(exact_avg_times(2, hs.tolist()))
    classical = gamma(AveragedCurve(hs, values, np.zeros(hs.size), 1,
                                    np.ones(hs.size, dtype=np.int64)))
    assert abs(classical.alpha - 0.5) < 0.05
    disordered = gamma(disorder_avg_absorb_time(
        EnsembleConfig(walk, 40, master_seed=1, disorder=poisson(1.0)), hs))
    assert disordered.alpha - disordered.ci95_halfwidth > 0.5


def test_t_quantile_matches_scipy_stdtrit():
    # scipy is an oracle here only; the library takes the quantile from
    # finite sums
    from scipy.special import stdtrit

    nus = np.arange(1, 2001)
    want = stdtrit(nus, 0.975)
    got = np.array([ensemble._t_quantile(int(nu), 0.975) for nu in nus])
    np.testing.assert_allclose(got, want, rtol=2e-13, atol=0)


@pytest.mark.parametrize("q", [0.5, 0.6, 0.75, 0.9, 0.95, 0.975])
def test_t_quantile_matches_closed_forms(q):
    cauchy = math.tan(math.pi * (q - 0.5))
    assert ensemble._t_quantile(1, q) == pytest.approx(cauchy, rel=1e-15, abs=1e-15)
    two = (2 * q - 1) / math.sqrt(2 * q * (1 - q))
    assert ensemble._t_quantile(2, q) == pytest.approx(two, rel=1e-15, abs=1e-15)


def test_fit_ci95_is_t_quantile_times_slope_stderr():
    ts = np.arange(20, 81)
    values = ts ** 0.6 * (1.0 + 0.01 * np.sin(ts))
    fit = fit_exponent(_curve(ts, values), t_lo=20, t_hi=80)
    # the slope's standard error from numpy's least-squares covariance
    _, cov = np.polyfit(np.log(ts), np.log(values), 1, cov=True)
    slope_se = math.sqrt(cov[0, 0])
    assert fit.n_points == 61
    assert fit.ci95_halfwidth == pytest.approx(
        ensemble._t_quantile(59, 0.975) * slope_se, rel=1e-12)
