import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    binomial_half_coeffs,
    exact_absorption_fractions,
    exact_absorption_probabilities,
    exact_first_passage,
)
from walklab import series
from walklab import (
    AbsorberConfig,
    ConfigurationError,
    NumericalError,
    PowerSeries,
    WalkConfig,
    absorption_probabilities,
    absorption_summaries,
    absorption_summary,
    classical_avg_time_ratio,
    generating_function,
    quantum_absorption_prob,
    quantum_avg_time_ratio,
    raabe_estimate,
    run_walk,
)


def test_power_series_arithmetic():
    a = PowerSeries(np.array([1.0, 2.0, 3.0]))
    b = PowerSeries(np.array([0.0, 1.0, 0.0]))
    # products truncate at the shared order
    assert (a * b).coeffs.tolist() == [0.0, 1.0, 2.0]
    assert (2.0 * a).coeffs.tolist() == [2.0, 4.0, 6.0]


def test_monomial_and_coefficient():
    s = PowerSeries(np.array([0.0, 0.0, 0.0, 2.5, 0.0, 0.0]))
    assert s.coefficient(3) == 2.5
    assert s.coefficient(0) == 0.0
    with pytest.raises(ConfigurationError):
        s.coefficient(9)


def _f_and_g(order):
    """f(z) = (1 + z² − √(1+z⁴)) / (√2·z) and g(z) = (1 − z² − √(1+z⁴)) /
    (√2·z) to degree `order`, from G and F in w = z²."""
    g, f = series._w_series((order + 1) // 2)
    return series._in_z(f, 1, order), series._in_z(g, 1, order)


def test_sqrt_series_matches_binomial_oracle():
    n_terms = 512 // 4 + 1
    coeffs = series._sqrt_binomial(n_terms)
    exact = binomial_half_coeffs(n_terms)
    assert coeffs.size == n_terms
    for c, e in zip(coeffs, exact):
        assert c == pytest.approx(float(e), rel=1e-14)


def test_fg_product_identity():
    # f*g = (1 - sqrt(1 + z^4)) / z^2 with coefficients -C(1/2, k) at 4k - 2
    order = 256
    product = np.convolve(*_f_and_g(order))[: order + 1]
    exact = binomial_half_coeffs(order // 4 + 1)
    for k in range(1, len(exact)):
        deg = 4 * k - 2
        if deg > order:
            break
        assert product[deg] == pytest.approx(-float(exact[k]), rel=1e-13, abs=1e-16)
    np.testing.assert_allclose(product[2], -0.5, atol=1e-15)
    np.testing.assert_allclose(product[6], 0.125, atol=1e-15)
    np.testing.assert_allclose(product[10], -0.0625, atol=1e-15)
    # all other degrees vanish, up to round-off
    others = np.ones(order + 1, dtype=bool)
    others[2::4] = False
    np.testing.assert_allclose(product[others], 0.0, atol=1e-16)


def test_first_coefficients_of_f_and_g():
    f, g = _f_and_g(16)
    inv_rt2 = 1 / math.sqrt(2)
    assert f[1] == pytest.approx(inv_rt2, abs=1e-15)
    assert f[3] == pytest.approx(-0.5 * inv_rt2, abs=1e-15)
    assert g[1] == pytest.approx(-inv_rt2, abs=1e-15)
    assert g[3] == pytest.approx(-0.5 * inv_rt2, abs=1e-15)
    # even coefficients vanish for both
    for deg in range(0, 17, 2):
        assert f[deg] == 0.0
        assert g[deg] == 0.0


@pytest.mark.parametrize("initial", ["L", "R"])
@pytest.mark.parametrize("m1", [1, 2, 3, 4, 5, 6])
def test_absorption_probabilities_match_exact_oracle(m1, initial):
    order = 64
    mine = absorption_probabilities(m1, initial, order)
    exact = exact_absorption_probabilities(m1, initial, order)
    np.testing.assert_allclose(mine, exact, atol=1e-13)


def direct_amplitudes(order, m1_max):
    """{(m1, initial): amplitudes} by direct convolution in z, as a chain
    f·g^(m1−1) (initial L) and g^m1 (initial R) of truncated products."""
    c = [float(x) for x in binomial_half_coeffs(order // 4 + 2)]
    f, g = np.zeros(order + 1), np.zeros(order + 1)
    f[1], g[1] = 1.0, -1.0
    for k in range(1, len(c)):
        if 4 * k - 1 <= order:
            f[4 * k - 1] = g[4 * k - 1] = -c[k]
    f, g = f / math.sqrt(2), g / math.sqrt(2)
    rows, power = {}, np.zeros(order + 1)
    power[0] = 1.0
    for m1 in range(1, m1_max + 1):
        rows[m1, "L"] = np.convolve(f, power)[: order + 1]
        power = np.convolve(g, power)[: order + 1]
        rows[m1, "R"] = power
    return rows


def test_fft_amplitudes_match_direct_convolution():
    # tolerance fixed before the comparison: absolute 1e-15 per amplitude
    order = 2 ** 12
    ts = np.arange(1, order + 1, dtype=np.float64)
    direct = direct_amplitudes(order, 10)
    for (m1, initial), want in direct.items():
        got = generating_function(m1, initial, order).coeffs
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        # FFT round-off at the structural zeros stays below the tail fit's
        # peak·1e-12 filter, so both paths fit the same points
        fitted = [series._tail_power_law(ts, (a * a)[1:], order)[2]
                  for a in (got, want)]
        assert fitted[0] == fitted[1] >= 8, (m1, initial, fitted)


@pytest.mark.parametrize("m1", [-1, -2, -5])
def test_mirrored_absorber_equals_simulation(m1):
    probs = absorption_probabilities(m1, "L", 128)
    result = run_walk(
        WalkConfig(steps=128, absorber=AbsorberConfig(m1))
    )
    np.testing.assert_allclose(result.record.per_step, probs, atol=1e-10)


def test_closed_form_matches_series():
    probs = absorption_probabilities(2, "L", 4000)
    for t in range(1, 4001):
        assert probs[t - 1] == pytest.approx(
            quantum_absorption_prob(t), abs=1e-12
        )


def test_closed_form_first_values():
    assert quantum_absorption_prob(2) == pytest.approx(0.25, abs=1e-15)
    assert quantum_absorption_prob(6) == pytest.approx(1 / 64, abs=1e-15)
    assert quantum_absorption_prob(10) == pytest.approx(1 / 256, abs=1e-15)
    assert quantum_absorption_prob(4) == 0.0
    assert quantum_absorption_prob(3) == 0.0


def test_total_absorption_closed_values():
    # absorber at 1: all mass eventually absorbed has probability 2/pi
    assert absorption_summary(1, "L", 2 ** 13)[0] == pytest.approx(
        2 / math.pi, abs=5e-4
    )
    assert absorption_summary(2, "L", 2 ** 13)[0] == pytest.approx(
        4 / math.pi - 1, abs=5e-4
    )


def test_avg_absorb_time_anchor():
    assert absorption_summary(2, "L", 2 ** 13)[1] == pytest.approx(2.66, abs=1e-2)


def test_tail_extrapolation_consistency():
    # halving the truncation order must not move the tail-corrected values
    for m1 in (2, 7, 10):
        lo_p, lo_t = absorption_summary(m1, "L", 2 ** 12)
        hi_p, hi_t = absorption_summary(m1, "L", 2 ** 14)
        assert lo_p == pytest.approx(hi_p, abs=2e-4)
        assert lo_t == pytest.approx(hi_t, abs=3e-2)


def test_tail_none_lags_tail_power_law():
    # raw truncation underestimates the average time; the tail closes the gap
    raw = absorption_summary(2, "L", 2 ** 12, tail="none")[1]
    corrected = absorption_summary(2, "L", 2 ** 12, tail="power_law")[1]
    assert raw < corrected


def test_generating_function_validation():
    with pytest.raises(ConfigurationError):
        generating_function(0)
    with pytest.raises(ConfigurationError):
        generating_function(2, "X")
    with pytest.raises(ConfigurationError):
        generating_function(100, "L", order=50)
    # a table checks every row, and its tail mode, before it computes any
    with pytest.raises(ConfigurationError):
        absorption_summaries([2, 0], "L", 256)
    with pytest.raises(ConfigurationError):
        absorption_summaries([2], "L", 256, tail="cubic")
    assert absorption_summaries([], "L", 256) == []


def power_law_ratio(s):
    """u_n/u_{n+1} for u_n = n^(-s)."""
    return lambda n: (1.0 + 1.0 / np.asarray(n, float)) ** s


def test_raabe_on_analytic_power_laws():
    # non-circular check: u_n = n^(-s) has ratio limit exactly s
    for s in (0.5, 1.5, 2.0):
        report = raabe_estimate(power_law_ratio(s))
        assert report.limit == pytest.approx(s, abs=1e-6)
    assert raabe_estimate(power_law_ratio(2.0)).verdict == "converges"
    assert raabe_estimate(power_law_ratio(0.5)).verdict == "diverges"


def test_raabe_geometric_converges():
    # u_n = 2^(-n)
    report = raabe_estimate(lambda n: np.full(np.shape(n), 2.0), n_max=500)
    assert report.verdict == "converges"
    assert report.limit > 1.5


def test_raabe_borderline_inconclusive():
    report = raabe_estimate(power_law_ratio(1.0))
    assert report.verdict == "inconclusive"
    assert report.limit == pytest.approx(1.0, abs=1e-6)


def test_raabe_classical_terms():
    report = raabe_estimate(classical_avg_time_ratio(2))
    assert report.limit == pytest.approx(0.5, abs=0.01)
    assert report.verdict == "diverges"


def test_raabe_quantum_terms():
    report = raabe_estimate(quantum_avg_time_ratio(2))
    assert report.limit == pytest.approx(2.0, abs=0.02)
    assert report.verdict == "converges"


def test_raabe_rejects_nonpositive_terms():
    # a zero or undefined ratio: the terms are not all positive
    for value in (0.0, np.nan):
        with pytest.raises(NumericalError):
            raabe_estimate(lambda n: np.full(np.shape(n), value), n_max=100)


def test_quantum_avg_time_term_closed_form_guard():
    with pytest.raises(ConfigurationError):
        quantum_avg_time_ratio(3)
    ratio = quantum_avg_time_ratio(2)
    # u_1 = 2 * 1/4, u_2 = 6 * 1/64, u_3 = 10 * 1/256
    np.testing.assert_allclose(ratio(np.array([1, 2])), [0.5 / (6 / 64), (6 / 64) / (10 / 256)],
                               atol=1e-14)


def test_avg_time_ratios_are_exact_term_ratios():
    # u_n = t·p_t from the exact rational series (quantum, t = 4n − 2) and
    # the reflection principle (classical, t = |m1| + 2n)
    ns = range(1, 41)
    p = exact_absorption_fractions(2, "L", 4 * 41 - 2)
    u = {n: (4 * n - 2) * p[4 * n - 3] for n in range(1, 42)}
    np.testing.assert_allclose(quantum_avg_time_ratio(2)(np.array(ns)),
                               [float(u[n] / u[n + 1]) for n in ns], rtol=1e-15, atol=0)
    for m1 in (1, 2, 5, -3):
        u = {n: (abs(m1) + 2 * n) * exact_first_passage(abs(m1) + 2 * n, m1)
             for n in range(1, 42)}
        np.testing.assert_allclose(classical_avg_time_ratio(m1)(np.array(ns)),
                                   [float(u[n] / u[n + 1]) for n in ns], rtol=1e-15, atol=0)


@pytest.mark.parametrize("mode, limit", [("quantum", 2), ("classical", Fraction(1, 2))])
def test_raabe_samples_match_exact_rationals(mode, limit):
    # E_n = n·(ratio(n) − 1) in exact rationals; in floats, ratio(n) is
    # rounded once (its factors are exact integers), so E_n is off by at
    # most n·2^-52 ≈ 2.2e-10 at n = 10^6
    if mode == "quantum":
        report = raabe_estimate(quantum_avg_time_ratio(2), n_max=10 ** 6)
        exact = lambda n: 4 * (n + 1) ** 2 / ((2 * n + 1) * (2 * n - 1))
    else:
        report = raabe_estimate(classical_avg_time_ratio(2), n_max=10 ** 6)
        exact = lambda n: (2 * n + 6) * (2 * n + 2) / ((2 * n + 3) * (2 * n + 4))
    for n, e_n in report.samples:
        n = Fraction(n)
        assert abs(Fraction(e_n) - n * (exact(n) - 1)) <= 1e-9
    assert abs(report.limit - limit) <= 1e-9
