"""Arguments: every public entry point checks its arguments through one
rule, `lattice.checked`, in three forms. An integer must be exact and in
range (2.0 reads as 2; 2.5 is refused, as is a value below or above its
bounds), a config, spec or curve must be an instance of its type, and a
name must be one of a known set. Absorber sites and step times are read
through `AbsorberConfig` and `lattice.step_times`, which use the same rule.
Any breach is a ConfigurationError that names the argument. The last
test gives every argument of one call of each public callable a pool of
wrong values: each call must succeed or raise a WalklabError."""
import dataclasses
import math
import re
import tracemalloc
import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab
from walklab import (
    AbsorberConfig,
    AveragedCurve,
    CoinOperator,
    ConfigurationError,
    DisorderSpec,
    EnsembleConfig,
    PowerSeries,
    WalkConfig,
    WalklabError,
    absorption_probabilities,
    absorption_summaries,
    binomial,
    build_spec,
    child_seed,
    classical_avg_time_ratio,
    disorder_avg_absorb_time,
    disorder_avg_sigma,
    finite_horizon_avg_time,
    first_passage_series,
    fit_exponent,
    generating_function,
    hypergeometric,
    iterate_walk,
    point_mass,
    poisson,
    quantum_avg_time_ratio,
    raabe_estimate,
    run_ensemble,
    run_walk,
    sample_realization,
    snapshot_distribution,
    std_dev,
)
from walklab.cli import main
from walklab.engine import coin_by_name, snapshot_distributions
from walklab.lattice import step_times

WALK = WalkConfig(steps=6, absorber=AbsorberConfig(2))
ENSEMBLE = EnsembleConfig(WALK, realizations=3, disorder=poisson(1.0))
PER_STEP = np.array([0.0, 0.5, 0.25, 0.0])
TS = np.arange(1, 31)
CURVE = AveragedCurve(abscissa=TS, values=np.sqrt(TS), stderr=np.zeros(30),
                      realization_count=1, included=np.ones(30, dtype=np.int64))


def _dists(dists):
    return [(d.time, d.positions, d.probs) for d in dists]


def _fields(obj):
    return dataclasses.astuple(obj)


# entry point -> (the start of the error for 2.5, the call with a value v in
# the argument's place). v is 2.5, 2.0 or 2, shifted by a whole number where
# 2 itself is not a valid value.
INTEGER_ARGUMENTS = {
    "WalkConfig.steps": (
        "steps must be an integer", lambda v: run_walk(WalkConfig(steps=v)).sigma),
    "WalkConfig.step_lengths": (
        "step length must be an integer",
        lambda v: run_walk(WalkConfig(steps=3, step_lengths=[v, 1, v])).sigma),
    "AbsorberConfig.position": (
        "absorber position must be an integer",
        lambda v: run_walk(WalkConfig(steps=6, absorber=AbsorberConfig(v))).per_step),
    "run_walk.sigma_times": (
        "sigma time must be an integer", lambda v: run_walk(WALK, sigma_times=[v, 3]).sigma),
    "snapshot_distributions.times": (
        "snapshot time must be an integer",
        lambda v: _dists(snapshot_distributions(WALK, [v, 3]))),
    "snapshot_distribution.at_time": (
        "snapshot time must be an integer",
        lambda v: _dists([snapshot_distribution(WALK, v)])),
    "EnsembleConfig.realizations": (
        "realizations must be an integer",
        lambda v: run_ensemble(replace(ENSEMBLE, realizations=v))),
    "EnsembleConfig.master_seed": (
        "master_seed must be an integer",
        lambda v: run_ensemble(replace(ENSEMBLE, master_seed=v))),
    "run_ensemble.sigma_times": (
        "sigma time must be an integer", lambda v: run_ensemble(ENSEMBLE, sigma_times=[v])),
    "disorder_avg_absorb_time.horizons": (
        "horizon must be an integer",
        lambda v: _fields(disorder_avg_absorb_time(ENSEMBLE, [v + 2, 6]))),
    "disorder_avg_sigma.t_grid": (
        "t grid value must be an integer",
        lambda v: _fields(disorder_avg_sigma(ENSEMBLE, [v, 4]))),
    "finite_horizon_avg_time.n": (
        "horizon must be an integer", lambda v: finite_horizon_avg_time(PER_STEP, v + 1)),
    "fit_exponent.t_lo": (
        "t_lo must be an integer", lambda v: _fields(fit_exponent(CURVE, v, 20))),
    "fit_exponent.t_hi": (
        "t_hi must be an integer", lambda v: _fields(fit_exponent(CURVE, 1, v + 18))),
    "first_passage_series.m1": (
        "absorber position must be an integer", lambda v: first_passage_series(v, 10)),
    "first_passage_series.horizon": (
        "horizon must be an integer", lambda v: first_passage_series(2, v + 8)),
    "classical_avg_time_ratio.m1": (
        "absorber position must be an integer",
        lambda v: classical_avg_time_ratio(v)(np.arange(4))),
    "quantum_avg_time_ratio.m1": (
        "absorber position must be an integer",
        lambda v: quantum_avg_time_ratio(v)(np.arange(1, 4))),
    "generating_function.m1": (
        "absorber position must be an integer",
        lambda v: generating_function(v, order=32).coeffs),
    "generating_function.order": (
        "order must be an integer", lambda v: generating_function(2, order=v + 30).coeffs),
    "absorption_probabilities.m1": (
        "absorber position must be an integer",
        lambda v: absorption_probabilities(v, order=32)),
    "absorption_probabilities.order": (
        "order must be an integer", lambda v: absorption_probabilities(2, order=v + 30)),
    "absorption_summaries.m1s": (
        "absorber position must be an integer",
        lambda v: absorption_summaries([1, v, -v], order=64)),
    "absorption_summaries.order": (
        "order must be an integer", lambda v: absorption_summaries([1, 2], order=v + 62)),
    "PowerSeries.coefficient": (
        "coefficient index must be an integer",
        lambda v: PowerSeries(np.arange(4.0)).coefficient(v)),
    "raabe_estimate.n_max": (
        "n_max must be an integer",
        lambda v: _fields(raabe_estimate(quantum_avg_time_ratio(), n_max=v + 98))),
    "sample_realization.n_steps": (
        "n_steps must be an integer", lambda v: sample_realization(poisson(1.0), v, 7).lengths),
    "sample_realization.seed": (
        "seed must be an integer", lambda v: sample_realization(poisson(1.0), 5, v).lengths),
    "child_seed.master_seed": ("seed must be an integer", lambda v: child_seed(v, 0)),
    "child_seed.index": ("index must be an integer", lambda v: child_seed(1, v)),
    "binomial.n": (
        "binomial needs an integer n", lambda v: binomial(v, 0.5).support_table()),
    "hypergeometric.K": (
        "hypergeometric needs an integer K",
        lambda v: hypergeometric(10, v + 3, 2).support_table()),
    "point_mass.length": (
        "point_mass needs an integer length", lambda v: point_mass(v).support_table()),
    "build_spec.fields": (
        "binomial needs an integer n",
        lambda v: build_spec("binomial", {"n": v, "p": 0.5}).support_table()),
}


@pytest.mark.parametrize("message, call", INTEGER_ARGUMENTS.values(),
                         ids=INTEGER_ARGUMENTS.keys())
def test_integer_argument_reads_2_0_as_2_and_refuses_2_5(message, call):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}, got "):
        call(2.5)
    np.testing.assert_equal(call(2.0), call(2))


# entry point -> (the call, its whole error): integers in range only
OUT_OF_RANGE = {
    "child_seed.master_seed": (lambda: child_seed(-1, 0), "seed must be >= 0, got -1"),
    "child_seed.index": (lambda: child_seed(1, -1), "index must be >= 0, got -1"),
    "sample_realization.seed": (lambda: sample_realization(poisson(1.0), 5, -1),
                                "seed must be >= 0, got -1"),
    # float64 times are exact integers only up to 2^53: these gave six equal times
    "first_passage_series.m1": (
        lambda: first_passage_series(2 ** 62, 2 ** 62 + 10),
        f"absorber position must be in {-2 ** 53}..{2 ** 53}, got {2 ** 62}"),
    "first_passage_series.m1-negative": (
        lambda: first_passage_series(-2 ** 53 - 1, 10),
        f"absorber position must be in {-2 ** 53}..{2 ** 53}, got {-2 ** 53 - 1}"),
    "first_passage_series.horizon": (
        lambda: first_passage_series(2, 2 ** 53 + 1),
        f"horizon must be in 0..{2 ** 53}, got {2 ** 53 + 1}"),
}


@pytest.mark.parametrize("call, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_an_integer_out_of_range_is_refused(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("values, want", [
    ([3, 1, 3], [1, 3]),
    ((2.0, 1), [1, 2]),
    ([Fraction(4, 2), np.int64(5)], [2, 5]),
    (np.array([[4], [2]], dtype=np.uint8), [2, 4]),
    (range(2, 5), [2, 3, 4]),
    (iter([4, 4]), [4]),
    ([], []),
    (None, [1, 2, 3, 4, 5]),
])
def test_step_times_are_the_sorted_distinct_exact_integers(values, want):
    times = step_times(values, 5, "time")
    assert times.dtype == np.int64
    assert times.tolist() == want


@pytest.mark.parametrize("values, message", [
    ([3, 2.5], "time must be an integer, got 2.5"),
    ([float("nan")], "time must be an integer, got nan"),
    ([float("inf")], "time must be an integer, got inf"),
    (["2"], "time must be an integer, got '2'"),
    ([None], "time must be an integer, got None"),
    ([0, 3], "time must be in 1..5, got 0"),
    ([7, 6], "time must be in 1..5, got 7"),
    ([2 ** 70], f"time must be in 1..5, got {2 ** 70}"),
    (np.array([-1], dtype=np.int8), "time must be in 1..5, got -1"),
])
def test_step_times_refuses_a_time_outside_the_steps(values, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        step_times(values, 5, "time")


def test_no_times_means_every_step():
    every = range(1, WALK.steps + 1)
    np.testing.assert_equal(run_walk(WALK).sigma, run_walk(WALK, every).sigma)
    np.testing.assert_equal(run_ensemble(ENSEMBLE), run_ensemble(ENSEMBLE, every))
    np.testing.assert_equal(_fields(disorder_avg_sigma(ENSEMBLE)),
                            _fields(disorder_avg_sigma(ENSEMBLE, every)))
    np.testing.assert_equal(_fields(disorder_avg_absorb_time(ENSEMBLE)),
                            _fields(disorder_avg_absorb_time(ENSEMBLE, every)))


def _peak_while_refused(call, message):
    """The tracemalloc peak of `call`, which must raise `message`."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_walk_refuses_a_record_beyond_the_budget_before_allocating():
    # 10^10 steps would need an 80 GB record. Zero-length steps keep the
    # window of three rows one site wide, so only their 100 MB record is
    # too big.
    steps = 2 ** 22
    cases = [
        (WalkConfig(steps=10 ** 10),
         "1 row(s) × 10000000000 steps need 80000000000 bytes per matrix"),
        (WalkConfig(steps=steps, engine="classical",
                    step_lengths=np.zeros((3, steps), dtype=np.uint8)),
         f"3 row(s) × {steps} steps need {3 * 8 * steps} bytes per matrix"),
    ]
    for config, message in cases:
        assert _peak_while_refused(lambda: run_walk(config), message) < 2 ** 20


@pytest.mark.parametrize("average", [disorder_avg_sigma, disorder_avg_absorb_time])
def test_an_average_refuses_its_matrix_before_building_the_default_grid(average):
    # every step of 10^10 would be an 80 GB grid
    config = replace(ENSEMBLE, walk=replace(WALK, steps=10 ** 10), realizations=1)
    message = "1 realizations × 10000000000 steps need 80000000000 bytes per matrix"
    assert _peak_while_refused(lambda: average(config), message) < 2 ** 20


@pytest.mark.parametrize("average, what", [(disorder_avg_sigma, "t grid value"),
                                           (disorder_avg_absorb_time, "horizon")])
def test_an_average_refuses_an_empty_grid(average, what):
    with pytest.raises(ConfigurationError, match=f"^at least one {what} is required$"):
        average(ENSEMBLE, [])


@pytest.mark.parametrize("call, message", [
    # 8,388,609 terms (t = 2, 4, ..., 16,777,218) would be 67,108,872 bytes
    # an array, 8 bytes past the budget
    (lambda: first_passage_series(2, 16_777_218),
     "8388609 first-passage terms need 67108872 bytes, above the budget of 67108864"),
    (lambda: first_passage_series(-3, 10 ** 10),
     "4999999999 first-passage terms need 39999999992 bytes"),
    # the library's own draw, not only the CLI, refuses its lengths
    (lambda: sample_realization(poisson(1.0), 2 ** 23 + 1, 1),
     "8388609 disordered steps need 67108872 bytes of step lengths, above the budget"),
], ids=["first_passage_series", "first_passage_series-1e10", "sample_realization"])
def test_a_long_array_is_refused_before_it_is_allocated(call, message):
    assert _peak_while_refused(call, message) < 2 ** 20


@pytest.mark.parametrize("per_step", [
    np.ones((3, 5)), np.ones((1, 4)), np.float64(0.5), [[0.5, 0.25], [0.25]],
    ["0.5", "0.25"], [0.5, None], {"p": 0.5}, np.array([0.5j, 0.25]),
], ids=["2-D", "one-row-2-D", "scalar", "ragged", "strings", "None", "dict", "complex"])
def test_finite_horizon_avg_time_refuses_what_is_not_one_walks_record(per_step):
    with pytest.raises(ConfigurationError,
                       match="^per_step must be one walk's 1-D record of numbers$"):
        finite_horizon_avg_time(per_step, 2)


def test_finite_horizon_avg_time_reads_a_list_as_its_array():
    for n in (2, 3, 4):
        assert finite_horizon_avg_time(PER_STEP.tolist(), n) \
            == finite_horizon_avg_time(PER_STEP, n)
    assert finite_horizon_avg_time([0, 1, 1], 3) == 2.5


# a config field or argument of the wrong type, or a name outside its known
# set -> (the call, its whole error)
WRONG_TYPES = {
    "WalkConfig.absorber": (lambda: run_walk(WalkConfig(steps=3, absorber=2)),
                            "absorber must be an AbsorberConfig, got 2"),
    "WalkConfig.coin": (lambda: run_walk(WalkConfig(steps=3, coin="hadamard")),
                        "coin must be a CoinOperator, got 'hadamard'"),
    "WalkConfig.initial_amp_left": (lambda: WalkConfig(steps=3, initial_amp_left="1"),
                                    "initial_amp_left must be a Number, got '1'"),
    "WalkConfig.engine": (lambda: WalkConfig(steps=3, engine=["quantum"]),
                          "unknown engine ['quantum'] (known: quantum, classical)"),
    "CoinOperator.a": (lambda: CoinOperator("a", "b", "c", "d"),
                       "coin entry a must be a Number, got 'a'"),
    "WalkConfig.step_lengths": (lambda: WalkConfig(steps=2, step_lengths=[[1, 2], [1]]),
                                "step_lengths must not be ragged"),
    "EnsembleConfig.walk": (lambda: run_ensemble(EnsembleConfig(None, 2, 1)),
                            "walk must be a WalkConfig, got None"),
    "EnsembleConfig.disorder": (
        lambda: run_ensemble(EnsembleConfig(WALK, 2, 1, "poisson:lambda=1")),
        "disorder must be a DisorderSpec, got 'poisson:lambda=1'"),
    "EnsembleConfig.walk-rows": (
        lambda: run_ensemble(EnsembleConfig(WalkConfig(
            steps=4, step_lengths=np.ones((3, 4), int), absorber=AbsorberConfig(2)), 5)),
        "walk must have no step_lengths: an ensemble draws them from its disorder"),
    "EnsembleConfig.walk-lengths": (
        lambda: run_ensemble(EnsembleConfig(WalkConfig(
            steps=4, step_lengths=[1, 0, 2, 1], absorber=AbsorberConfig(2)), 3, 1,
            poisson(1.0))),
        "walk must have no step_lengths: an ensemble draws them from its disorder"),
    "run_walk.config": (lambda: run_walk(2.5), "config must be a WalkConfig, got 2.5"),
    "iterate_walk.config": (lambda: next(iterate_walk(None)),
                            "config must be a WalkConfig, got None"),
    "snapshot_distributions.config": (lambda: snapshot_distributions(None, [1]),
                                      "config must be a WalkConfig, got None"),
    "run_ensemble.config": (lambda: run_ensemble(None),
                            "config must be an EnsembleConfig, got None"),
    "disorder_avg_sigma.config": (lambda: disorder_avg_sigma(None),
                                  "config must be an EnsembleConfig, got None"),
    "disorder_avg_absorb_time.config": (lambda: disorder_avg_absorb_time(None),
                                        "config must be an EnsembleConfig, got None"),
    "fit_exponent.curve": (lambda: fit_exponent(None, 1, 5),
                           "curve must be an AveragedCurve, got None"),
    "sample_realization.spec": (lambda: sample_realization("poisson:lambda=1", 3, 1),
                                "spec must be a DisorderSpec, got 'poisson:lambda=1'"),
    "DisorderSpec.params": (lambda: DisorderSpec("poisson", (("lambda", "1"),)),
                            "disorder parameter lambda must be a Real, got '1'"),
    "DisorderSpec.params-not-a-tuple": (lambda: DisorderSpec("poisson", None),
                                        "params must be a tuple, got None"),
    "DisorderSpec.params-not-pairs": (lambda: DisorderSpec("poisson", ("x",)),
                                      "params pair must be a tuple, got 'x'"),
    "DisorderSpec.params-short-pair": (lambda: DisorderSpec("poisson", (("lambda",),)),
                                       "params pair length must be in 2..2, got 1"),
    "build_spec.fields": (lambda: build_spec("poisson", None),
                          "disorder parameters must be a Mapping, got None"),
    "run_walk.sigma_times": (lambda: run_walk(WALK, 2.5),
                             "sigma times must be an Iterable, got 2.5"),
    "disorder_avg_absorb_time.horizons": (lambda: disorder_avg_absorb_time(ENSEMBLE, 5),
                                          "horizons must be an Iterable, got 5"),
    "absorption_summaries.m1s": (lambda: absorption_summaries(2, order=8),
                                 "m1s must be a Collection, got 2"),
    "std_dev.dist": (lambda: std_dev(None), "dist must be a PositionDistribution, got None"),
    "PowerSeries.coeffs": (lambda: PowerSeries(["x"]),
                           "coefficients must be a nonempty 1D array"),
    "PowerSeries.coeffs-ragged": (lambda: PowerSeries([[1.0, 2.0], [1.0]]),
                                  "coefficients must be a nonempty 1D array"),
    "raabe_estimate.ratio-not-callable": (lambda: raabe_estimate(2.0),
                                          "ratio must be a Callable, got 2.0"),
    "raabe_estimate.ratio": (lambda: raabe_estimate(lambda n: np.ones(3)),
                             "ratio must give one number per n"),
    "raabe_estimate.ratio-scalar": (lambda: raabe_estimate(lambda n: 2.0),
                                    "ratio must give one number per n"),
    "raabe_estimate.ratio-strings": (lambda: raabe_estimate(lambda n: ["a"] * len(n)),
                                     "ratio must give one number per n"),
    "WalkConfig.engine-unknown": (lambda: WalkConfig(steps=3, engine="quantm"),
                                  "unknown engine 'quantm' (known: quantum, classical)"),
    "absorption_summaries.initial": (
        lambda: absorption_summaries([2], initial="X", order=8),
        "unknown initial coin state 'X' (known: L, R)"),
    "absorption_summaries.tail": (
        lambda: absorption_summaries([2], order=8, tail="exp"),
        "unknown tail mode 'exp' (known: power_law, none)"),
    "coin_by_name": (lambda: coin_by_name("nosuch"),
                     "unknown coin 'nosuch' (known: hadamard, hadamard-mirrored, kempe)"),
    "build_spec.family": (
        lambda: build_spec("nosuch", {}),
        "unknown disorder family 'nosuch' (known: poisson, binomial, hypergeometric, "
        "negative_binomial, geometric, geometric_shifted, point_mass)"),
}


@pytest.mark.parametrize("call, message", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_a_value_of_the_wrong_type_is_refused(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


def test_absorption_summaries_refuses_positions_it_cannot_read_twice():
    # a generator would be spent by the first pass: its table came back empty
    with pytest.raises(ConfigurationError, match="^m1s must be a Collection, got <generator"):
        absorption_summaries((m1 for m1 in [1, 2]), order=8)
    assert absorption_summaries(np.array([1, 2]), order=8) \
        == absorption_summaries(range(1, 3), order=8)


def test_the_classical_engine_ignores_the_coin_and_amplitudes():
    config = WalkConfig(steps=6, engine="classical", coin="hadamard", initial_amp_left="1")
    np.testing.assert_equal(run_walk(config).sigma,
                            run_walk(WalkConfig(steps=6, engine="classical")).sigma)


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
def test_a_non_finite_coin_entry_is_refused_before_the_unitarity_product(entry):
    # the product of an infinite entry warns; under this filter the warning
    # would be raised in place of the error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigurationError,
                           match=f"^coin entry a must be finite, got {re.escape(repr(entry))}$"):
            CoinOperator(entry, 0, 0, 1)


@pytest.mark.parametrize("call, name", [
    (lambda: CoinOperator(10 ** 400, 0, 0, 1), "coin entry a"),
    (lambda: WalkConfig(3, initial_amp_left=10 ** 400), "initial_amp_left"),
    (lambda: WalkConfig(3, initial_amp_right=-10 ** 400), "initial_amp_right"),
    (lambda: poisson(10 ** 400), "disorder parameter lambda"),
    (lambda: binomial(2, Fraction(10 ** 400, 3)), "disorder parameter p"),
], ids=["coin", "amp-left", "amp-right", "poisson", "binomial-fraction"])
def test_a_number_beyond_float_range_is_refused(call, name):
    # these ended in a raw OverflowError where the number was read as a float
    with pytest.raises(ConfigurationError, match=f"^{re.escape(name)} is beyond float range, got "):
        call()


@pytest.mark.parametrize("amp", [1e200, complex(1e308, 1e308)])
def test_a_huge_finite_amplitude_is_not_normalized(amp):
    # its square overflows to an infinite norm, not to an OverflowError
    with pytest.raises(ConfigurationError, match=r"normalized, got \|\.\|\^2 = inf$"):
        WalkConfig(3, initial_amp_left=amp)


@pytest.mark.parametrize("text, make, message", [
    ("poisson:lambda=inf", lambda: poisson(math.inf),
     "disorder parameter lambda must be finite, got inf"),
    ("binomial:n=2,p=nan", lambda: binomial(2, math.nan),
     "disorder parameter p must be finite, got nan"),
])
def test_a_non_finite_disorder_parameter_is_refused(text, make, message, capsys):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        make()
    assert main(["walk", "--engine", "quantum", "--steps", "3", "--disorder", text,
                 "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


# public callable -> one valid, cheap call: (positional, keyword arguments)
_H = 1 / math.sqrt(2)
_MESSAGE = (("a message",), {})
BASE_CALLS = {
    "AbsorberConfig": ((2,), {}),
    "AveragedCurve": ((TS, np.sqrt(TS), np.zeros(30), 1, np.ones(30, dtype=np.int64)), {}),
    "CoinOperator": ((_H, _H, _H, -_H), {"name": "h"}),
    "ConfigurationError": _MESSAGE,
    "DisorderSpec": (("poisson", (("lambda", 1.0),)), {}),
    "EmptyStateError": _MESSAGE,
    "EnsembleConfig": ((WALK, 3), {"master_seed": 1, "disorder": poisson(1.0)}),
    "NoAbsorptionError": _MESSAGE,
    "NumericalError": _MESSAGE,
    "PositionDistribution": ((1, np.array([-1, 1]), np.array([0.5, 0.5])), {}),
    "PowerSeries": ((np.arange(4.0),), {}),
    "WalkConfig": ((3,), {"engine": "quantum", "coin": coin_by_name("hadamard"),
                          "initial_amp_left": 1.0, "initial_amp_right": 0.0,
                          "absorber": AbsorberConfig(2), "step_lengths": [1, 0, 2]}),
    "WalklabError": _MESSAGE,
    "absorption_probabilities": ((2,), {"initial": "L", "order": 32}),
    "absorption_summaries": (([1, 2],), {"initial": "L", "order": 64, "tail": "power_law"}),
    "binomial": ((2, 0.5), {}),
    "build_spec": (("poisson", {"lambda": 1.0}), {}),
    "child_seed": ((1, 0), {}),
    "classical_avg_time_ratio": ((2,), {}),
    "coin_by_name": (("kempe",), {}),
    "disorder_avg_absorb_time": ((ENSEMBLE, [2, 6]), {}),
    "disorder_avg_sigma": ((ENSEMBLE, [2, 6]), {}),
    "finite_horizon_avg_time": ((PER_STEP, 3), {}),
    "first_passage_series": ((2, 10), {}),
    "fit_exponent": ((CURVE, 1, 20), {}),
    "generating_function": ((2,), {"initial": "L", "order": 32}),
    "geometric": ((0.5,), {}),
    "geometric_shifted": ((0.5,), {}),
    "hypergeometric": ((10, 5, 2), {}),
    "iterate_walk": ((WALK,), {}),
    "negative_binomial": ((1.0, 0.5), {}),
    "point_mass": ((3,), {}),
    "poisson": ((1.0,), {}),
    "probability_distribution": ((run_walk(WALK).final_state,), {}),
    "quantum_avg_time_ratio": ((2,), {}),
    "raabe_estimate": ((quantum_avg_time_ratio(),), {"n_max": 64}),
    "run_ensemble": ((ENSEMBLE, [2, 3]), {"absorbed": True}),
    "run_walk": ((WALK, [2, 3]), {}),
    "sample_realization": ((poisson(1.0), 5, 7), {}),
    "snapshot_distribution": ((WALK, 3), {}),
    "std_dev": ((snapshot_distribution(WALK, 3),), {}),
}
# each argument of a base call is replaced by each of these in turn
POOL = ("x", None, [[1, 2], [3]], 2.5, math.nan, math.inf, 1j, True, {"a": 1}, 10 ** 30,
        10 ** 400, -1)


def _slots(name):
    args, kwargs = BASE_CALLS[name]
    return [*range(len(args)), *kwargs]


def _use(result):
    """Run what a call made but has not run yet: a walk's steps, a spec's
    table, a config's walk or ensemble."""
    if isinstance(result, Iterator):
        deque(result, maxlen=0)
    elif isinstance(result, DisorderSpec):
        result.support_table()
    elif isinstance(result, WalkConfig):
        run_walk(result)
    elif isinstance(result, EnsembleConfig):
        run_ensemble(result)


def test_every_public_callable_has_a_base_call():
    public = {name for name in walklab.__all__ if callable(getattr(walklab, name))}
    assert set(BASE_CALLS) == public
    for name, (args, kwargs) in BASE_CALLS.items():
        _use(getattr(walklab, name)(*args, **kwargs))


@pytest.mark.parametrize("name", BASE_CALLS)
@settings(max_examples=max(len(_slots(name)) for name in BASE_CALLS) * len(POOL),
          deadline=None)
@given(data=st.data())
def test_any_value_in_any_argument_is_taken_or_refused(name, data):
    """Hypothesis draws from a finite space, so it tries every (argument,
    value) pair of the row, each once."""
    slot, value = data.draw(st.sampled_from(
        [(slot, value) for slot in _slots(name) for value in POOL]))
    args, kwargs = list(BASE_CALLS[name][0]), dict(BASE_CALLS[name][1])
    if isinstance(slot, int):
        args[slot] = value
    else:
        kwargs[slot] = value
    try:
        _use(getattr(walklab, name)(*args, **kwargs))
    except WalklabError:
        pass
