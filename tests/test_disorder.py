import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import negative_binomial_product_pmf, pmf_oracle
from walklab import disorder
from walklab import (
    ConfigurationError,
    EnsembleConfig,
    TABLE2_PRESETS,
    WalkConfig,
    binomial,
    build_spec,
    child_seed,
    geometric,
    geometric_shifted,
    hypergeometric,
    negative_binomial,
    point_mass,
    poisson,
    run_ensemble,
    sample_realization,
)
from walklab.disorder import DisorderSpec, parse_disorder

ALL_SPECS = [
    poisson(1.0),
    poisson(2.5),
    binomial(2, 0.5),
    binomial(5, 0.2),
    hypergeometric(10, 5, 2),
    negative_binomial(1.0, 0.5),
    negative_binomial(2.0, 0.3),
    geometric(0.5),
    geometric_shifted(0.5),
    # large N and r: near binomial(2, 1/2) and Poisson(0.1)
    hypergeometric(10 ** 16, 5 * 10 ** 15, 2),
    hypergeometric(10 ** 18, 10 ** 18 - 3, 5),
    negative_binomial(1e10, 1e-11),
    negative_binomial(1e13, 1e-14),
]


def table_pmf(spec, l):
    """p(l) read from the spec's table, which must hold l."""
    ls, ps = spec.support_table()
    assert ls[0] <= l <= ls[-1], (spec.to_text(), l)
    return float(ps[l - ls[0]])


def numeric_moments(spec):
    ls, ps = spec.support_table()
    mean = float(np.sum(ls * ps))
    var = float(np.sum((ls - mean) ** 2 * ps))
    return mean, var


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.to_text())
def test_pmf_normalization(spec):
    _, ps = spec.support_table()
    assert abs(ps.sum() - 1.0) < 1e-10
    assert np.all(ps >= 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.to_text())
def test_moments_match_numeric(spec):
    mean, var = spec.moments()
    n_mean, n_var = numeric_moments(spec)
    assert mean == pytest.approx(n_mean, abs=1e-9)
    assert var == pytest.approx(n_var, abs=1e-9)


def test_preset_moments_and_classification():
    # unit mean everywhere; variances 1/2, 4/9, 2, 2
    expected = {
        "tableII-binomial": (0.5, "sub_poissonian"),
        "tableII-hypergeometric": (4.0 / 9.0, "sub_poissonian"),
        "tableII-negbinomial": (2.0, "super_poissonian"),
        "tableII-geometric": (2.0, "super_poissonian"),
    }
    for name, (var, kind) in expected.items():
        spec = TABLE2_PRESETS[name]
        mean, got_var = spec.moments()
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert got_var == pytest.approx(var, abs=1e-12)
        assert spec.classification() == kind
    assert poisson(1.0).classification() == "poissonian"
    assert poisson(7.0).classification() == "poissonian"


def test_pmf_values():
    spec = poisson(1.0)
    assert table_pmf(spec, 0) == pytest.approx(math.exp(-1), abs=1e-12)
    assert table_pmf(spec, 2) == pytest.approx(math.exp(-1) / 2, abs=1e-12)
    spec = binomial(2, 0.5)
    assert table_pmf(spec, 1) == pytest.approx(0.5, abs=1e-15)
    spec = hypergeometric(10, 5, 2)
    # P(l=1) = K(N-K)n(N-n)/... = C(5,1)C(5,1)/C(10,2) = 25/45
    assert table_pmf(spec, 1) == pytest.approx(25 / 45, abs=1e-12)
    assert geometric(0.5).support_table()[0][0] == 1  # no length 0
    assert table_pmf(geometric(0.5), 1) == pytest.approx(0.5, abs=1e-15)
    assert table_pmf(geometric_shifted(0.5), 0) == pytest.approx(0.5, abs=1e-15)
    # a pmf from term ratios spans its support: one past the cap is refused
    with pytest.raises(ConfigurationError, match="beyond the support cap"):
        hypergeometric(10 ** 12, 10 ** 11, 10 ** 11).support_table()


def test_negbinomial_equals_shifted_geometric():
    a = negative_binomial(1.0, 0.5)
    b = geometric_shifted(0.5)
    for l in range(30):
        assert table_pmf(a, l) == pytest.approx(table_pmf(b, l), abs=1e-14)
        assert table_pmf(a, l) == pytest.approx(0.5 ** (l + 1), abs=1e-14)


def test_degenerate_geometric_is_point_mass(recwarn):
    # a degenerate binomial is a point mass too; each spec object builds
    # its own table, so no earlier build hides a warning
    for p, table in ((0.0, [1.0, 0.0, 0.0]), (1.0, [0.0, 0.0, 1.0])):
        ls, ps = binomial(2, p).support_table()
        assert ls.tolist() == [0, 1, 2]
        assert ps.tolist() == table
    assert not recwarn.list
    assert table_pmf(geometric(1.0), 1) == 1.0
    assert table_pmf(geometric_shifted(1.0), 0) == 1.0
    ls, ps = point_mass(1).support_table()
    assert float(ps[ls == 1][0]) == 1.0
    assert float(np.sum(ps)) == 1.0
    spec = point_mass(3)
    assert spec.moments() == (3.0, 0.0)
    assert [a.tolist() for a in spec.support_table()] == [[3], [1.0]]


def test_spec_text_round_trip():
    # every spec comes back equal from its family:key=value text
    for spec in ALL_SPECS:
        text = spec.family + ":" + ",".join(f"{k}={v!r}" for k, v in spec.params)
        assert parse_disorder(text) == spec
    for name, spec in TABLE2_PRESETS.items():
        assert parse_disorder(name) is spec


def test_build_spec_validation():
    with pytest.raises(ConfigurationError):
        build_spec("nosuch", {"a": "1"})
    with pytest.raises(ConfigurationError):
        build_spec("poisson", {"mu": "1"})  # wrong key
    with pytest.raises(ConfigurationError, match=r"needs parameters \('lambda',\), got \('mu',\)"):
        DisorderSpec("poisson", (("mu", 1.0),))
    with pytest.raises(ConfigurationError):
        build_spec("poisson", {"lambda": "-1"})
    with pytest.raises(ConfigurationError):
        build_spec("binomial", {"n": "2"})  # missing p
    with pytest.raises(ConfigurationError):
        build_spec("binomial", {"n": "2", "p": "1.5"})
    with pytest.raises(ConfigurationError):
        build_spec("hypergeometric", {"N": "5", "K": "7", "n": "2"})
    with pytest.raises(ConfigurationError):
        build_spec("geometric", {"k": "0"})
    # integer parameters are checked before anything is converted to int
    for family, fields in [
        ("binomial", {"n": "2.5", "p": "0.5"}),
        ("point_mass", {"length": "1.5"}),
        ("hypergeometric", {"N": "10.7", "K": "5", "n": "2"}),
        ("hypergeometric", {"N": "10", "K": "5", "n": "2.000001"}),
        # a float would round this one to the integer 9007199254740994
        ("hypergeometric", {"N": "9007199254740993.5", "K": "5", "n": "2"}),
    ]:
        with pytest.raises(ConfigurationError, match="needs an integer"):
            build_spec(family, fields)
    with pytest.raises(ConfigurationError, match="needs an integer n"):
        binomial(2.5, 0.5)
    spec = build_spec("poisson", {"lambda": "1"})
    assert spec.params == (("lambda", 1.0),)
    spec = build_spec("binomial", {"p": "0.5", "n": "2.0"})  # any key order
    assert spec == binomial(2, 0.5)
    assert type(spec.values[0]) is int
    # integer keys are read exactly, past float64's 2^53 as well
    for text in ("9007199254740993", "9.007199254740993e15", "9007199254740993.0"):
        spec = build_spec("hypergeometric", {"N": text, "K": "5", "n": "2"})
        assert spec.values == (9007199254740993, 5, 2)
        assert "N=9007199254740993 " in spec.to_text()


# The library sums the logs of up to a few thousand term ratios (the
# geometric at k = 0.01), a relative error of ~1e-10 at most; values near
# underflow carry no relative precision.
PMF_RTOL, PMF_ATOL = 1e-9, 1e-300

PMF_PARAMS = {
    "poisson": st.fixed_dictionaries({"lambda": st.floats(0.01, 100.0)}),
    "binomial": st.fixed_dictionaries(
        {"n": st.integers(1, 300), "p": st.floats(0.0, 1.0)}),
    # N up to 10^18, where differences of log-gammas cancel; K anywhere or
    # within 400 of N (a support that starts above 0); n up to 300
    "hypergeometric": st.integers(1, 10 ** 18).flatmap(
        lambda big_n: st.fixed_dictionaries({
            "N": st.just(big_n),
            "K": st.one_of(st.integers(0, big_n), st.integers(max(0, big_n - 400), big_n)),
            "n": st.integers(0, min(big_n, 300)),
        })),
    "negative_binomial": st.fixed_dictionaries(
        {"r": st.floats(0.05, 20.0), "k": st.floats(0.01, 0.95)}),
    "geometric": st.fixed_dictionaries({"k": st.floats(0.01, 1.0)}),
    "geometric_shifted": st.fixed_dictionaries({"k": st.floats(0.01, 1.0)}),
    "point_mass": st.fixed_dictionaries({"length": st.integers(0, 1000)}),
}


@pytest.mark.parametrize("family", list(PMF_PARAMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pmf_matches_oracle(family, data):
    assert_table_matches_oracle(build_spec(family, data.draw(PMF_PARAMS[family])))


@pytest.mark.parametrize("spec", [
    poisson(5e-324),
    binomial(300, 0.0),
    binomial(300, 1.0),
    binomial(300, 5e-324),
    geometric(1.0),
    negative_binomial(0.5, 5e-324),
], ids=lambda s: s.to_text())
def test_extreme_pmf_tables_match_oracle(spec):
    # a zero probability (log 0 = −inf) or a ratio that would underflow
    assert_table_matches_oracle(spec)


def assert_table_matches_oracle(spec):
    family = spec.family
    ls, ps = spec.support_table()
    params = dict(spec.params)
    for l, p in zip(ls.tolist(), ps.tolist()):
        assert math.isclose(p, pmf_oracle(family, params, l),
                            rel_tol=PMF_RTOL, abs_tol=PMF_ATOL), (spec.to_text(), l)


@pytest.mark.parametrize("r, k", [
    (1e6, 2e-6), (1e10, 1e-11), (1e10, 3e-10), (1e13, 1e-14), (1e13, 2.5e-13),
    (3.7e12, 1e-12),
])
def test_negative_binomial_large_r_matches_product_oracle(r, k):
    # log Γ(l + r) − log Γ(r) cancels at large r (and math.lgamma with it), so
    # the oracle multiplies the exact term ratios instead
    spec = negative_binomial(r, k)
    ls, ps = spec.support_table()
    assert 1.0 - float(np.sum(ps)) < 1e-12
    for l, p in zip(ls.tolist(), ps.tolist()):
        assert math.isclose(p, negative_binomial_product_pmf(r, k, l),
                            rel_tol=1e-12, abs_tol=PMF_ATOL), (spec.to_text(), l)


def test_sampler_determinism():
    spec = poisson(1.0)
    a = sample_realization(spec, 100, 12345)
    b = sample_realization(spec, 100, 12345)
    c = sample_realization(spec, 100, 54321)
    assert a.lengths.tolist() == b.lengths.tolist()
    assert a.lengths.tolist() != c.lengths.tolist()
    assert a.lengths.dtype == np.int64
    assert np.all(a.lengths >= 0)
    with pytest.raises(ConfigurationError, match="n_steps must be >= 1, got 0"):
        sample_realization(spec, 0, 1)


def test_child_seed_mixing():
    seeds = {child_seed(1, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert child_seed(1, 0) != child_seed(2, 0)
    # stable across calls
    assert child_seed(7, 3) == child_seed(7, 3)


# The draw chain reproduces numpy's SeedSequence and PCG64 bit for bit; numpy's
# own SeedSequence and default_rng are its oracle, imported by the tests only.
# These values sit at the edges of SeedSequence's uint32 words and of its
# pool of four words: 2^64 is three words, 10^30 four, 10^60 seven.
WORD_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 10 ** 30, 10 ** 60]


def _numpy_child_seed(master, index):
    return int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])


@settings(deadline=None)
@given(master=st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2 ** 200)),
       index=st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2 ** 70)))
def test_child_seed_is_numpys_seed_sequence(master, index):
    assert child_seed(master, index) == _numpy_child_seed(master, index)


@pytest.mark.parametrize("master", WORD_EDGES)
def test_child_seeds_of_an_index_array_are_the_single_seeds(master):
    # indices of one and of two words in one array
    index = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 64 - 1], dtype=np.uint64)
    seeds = child_seed(master, index)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [_numpy_child_seed(master, int(i)) for i in index]
    assert child_seed(master, index.astype(np.int64)[:-1]).tolist() == seeds.tolist()[:-1]


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, 10 ** 30])
def test_the_draws_are_numpys_default_rng(seed):
    # each uniform, all 53 bits of it, and the lengths it picks
    steps = 8000
    want = np.random.default_rng(seed).random(steps)
    got = np.empty(steps)
    for _, k, u in disorder._uniforms(seed, steps):
        got[k:k + u.shape[1]] = u[0]
    np.testing.assert_array_equal(got, want)
    spec = poisson(1.0)
    ls, _, cumulative = spec._table
    for n in [*range(1, 301), steps]:
        u = np.random.default_rng(seed).random(n)
        np.testing.assert_array_equal(sample_realization(spec, n, seed).lengths,
                                      ls[np.searchsorted(cumulative, u, side="right")])


@pytest.mark.parametrize("steps", [1, 80, 1025, 3000])
def test_a_batched_draw_is_its_rows_drawn_one_by_one(steps):
    # rows of one draw are generated several lanes and up to 1,024 steps at a
    # time: 80 steps put 25 lanes in one go, 1,025 and 3,000 cross the jump table
    spec = TABLE2_PRESETS["tableII-hypergeometric"]
    seeds = np.concatenate((np.array([0, 2 ** 32, 2 ** 64 - 1], dtype=np.uint64),
                            child_seed(7, np.arange(40))))
    batch = sample_realization(spec, steps, seeds).lengths
    assert batch.shape == (seeds.size, steps) and batch.dtype == np.int64
    for row, seed in zip(batch, seeds.tolist()):
        np.testing.assert_array_equal(row, sample_realization(spec, steps, seed).lengths)
    assert sample_realization(spec, steps, seeds[:0]).lengths.shape == (0, steps)


@pytest.mark.parametrize("call, message", [
    (lambda: sample_realization(poisson(1.0), 5, np.array([[1, 2]])),
     "seeds must be a 1-D integer array, got int64 of shape (1, 2)"),
    (lambda: sample_realization(poisson(1.0), 5, np.array([1.0])),
     "seeds must be a 1-D integer array, got float64 of shape (1,)"),
    (lambda: sample_realization(poisson(1.0), 5, np.array([3, -1])),
     "seed must be >= 0, got -1"),
    (lambda: child_seed(1, np.array([-2, 3])), "index must be >= 0, got -2"),
    (lambda: sample_realization(poisson(1.0), 2 ** 22, np.arange(3)),
     "12582912 disordered steps need 100663296 bytes of step lengths, above the budget"),
], ids=["2-D", "float", "negative", "negative-index", "budget"])
def test_a_bad_seed_array_is_refused(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize(
    "spec",
    [poisson(1.0), binomial(2, 0.5), geometric_shifted(0.5), hypergeometric(10, 5, 2)],
    ids=lambda s: s.family,
)
def test_sampler_matches_pmf(spec):
    # empirical pmf over 10^6 draws within 4 standard errors per bucket;
    # dozens of buckets are checked, so a 3-sigma bound trips on noise
    n = 10 ** 6
    lengths = sample_realization(spec, n, 2024).lengths
    ls, ps = spec.support_table()
    counts = np.bincount(lengths, minlength=int(ls[-1]) + 1)
    for l, p in zip(ls, ps):
        if p < 1e-6:
            continue
        se = math.sqrt(p * (1 - p) / n)
        assert counts[int(l)] / n == pytest.approx(p, abs=4 * se + 1e-9), (
            f"bucket {l} off for {spec.to_text()}"
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(TABLE2_PRESETS))
def test_sampler_is_inverse_cdf_of_oracle_table(name, seed):
    spec = TABLE2_PRESETS[name]
    ls, _ = spec.support_table()
    params = dict(spec.params)
    cum = np.cumsum([pmf_oracle(spec.family, params, l) for l in ls.tolist()])
    u = np.random.default_rng(seed).random(2000)
    want = ls[np.minimum(np.searchsorted(cum, u, side="right"), ls.size - 1)]
    np.testing.assert_array_equal(sample_realization(spec, 2000, seed).lengths, want)


def test_point_mass_lengths():
    r = sample_realization(point_mass(1), 50, 7)
    assert r.lengths.tolist() == [1] * 50
    r = sample_realization(point_mass(3), 10, 7)
    assert r.lengths.tolist() == [3] * 10


def test_sample_empirical_mean():
    spec = poisson(1.0)
    lengths = sample_realization(spec, 10 ** 6, 99).lengths
    assert lengths.mean() == pytest.approx(1.0, abs=0.005)


def test_support_table_is_built_once_per_spec_and_read_only():
    spec = poisson(1.7)
    ls, ps = spec.support_table()
    # one object builds its arrays once; an equal object builds its own
    again = spec.support_table()
    assert again[0] is ls and again[1] is ps
    for table in spec._table:
        with pytest.raises(ValueError):
            table[0] = 0
    fresh_ls, fresh_ps = poisson(1.7).support_table()
    assert fresh_ls is not ls
    np.testing.assert_array_equal(ls, fresh_ls)
    np.testing.assert_array_equal(ps, fresh_ps)


def test_one_spec_object_builds_its_table_once(monkeypatch):
    builds = []

    def counted(*args):
        builds.append(args)
        return from_ratios(*args)

    from_ratios = disorder._from_ratios
    monkeypatch.setattr(disorder, "_from_ratios", counted)
    # a fresh copy of a preset: the module's own object may be built already
    spec = dataclasses.replace(TABLE2_PRESETS["tableII-binomial"])
    spec.support_table()
    spec.support_table()
    run_ensemble(EnsembleConfig(WalkConfig(steps=8), 50, 3, spec))
    assert len(builds) == 1


def test_a_dropped_spec_leaves_no_table_behind():
    # 8 tables of about 100,000 lengths, 2.4 MB each with their running sums;
    # one small draw first, so that the modules a first draw loads are not counted
    sample_realization(binomial(2, 0.5), 10, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        specs = [binomial(100_000 - i, 0.5) for i in range(8)]
        for i, spec in enumerate(specs):
            sample_realization(spec, 10, i)
        assert tracemalloc.get_traced_memory()[0] - before > 8 * 2 ** 21  # while they live
        del spec, specs
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 2 ** 20


def _sample_from_zero(spec, n, seed):
    """Inverse-CDF draws over a table of every length from 0 to the top of
    the spec's table, zeros below its support included."""
    ls, ps = spec.support_table()
    full = np.arange(int(ls[-1]) + 1)
    probs = np.zeros(full.size)
    probs[ls] = ps
    cum = np.cumsum(probs)
    idx = np.searchsorted(cum, np.random.default_rng(seed).random(n), side="right")
    return full[np.minimum(idx, full.size - 1)]


@pytest.mark.parametrize(
    "spec",
    [*TABLE2_PRESETS.values(), geometric(0.5), hypergeometric(10, 8, 5),
     point_mass(3), point_mass(100_000)],
    ids=lambda s: s.to_text(),
)
def test_support_table_starts_at_lowest_length(spec):
    # leading zero-probability lengths would only pad the table: the draws
    # are the same as from a table that starts at 0
    ls, ps = spec.support_table()
    lowest, highest = disorder._FAMILIES[spec.family].support(*spec.values)
    assert ls[0] == lowest and ps[0] > 0.0
    if highest == lowest:
        assert ls.tolist() == [lowest] and ps.tolist() == [1.0]
    for seed in range(5):
        np.testing.assert_array_equal(
            sample_realization(spec, 2000, seed).lengths,
            _sample_from_zero(spec, 2000, seed))
