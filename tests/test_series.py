import math

import numpy as np
import pytest

from oracles import binomial_half_coeffs, exact_absorption_probabilities
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
    classical_avg_time_term,
    generating_function,
    quantum_absorption_prob,
    quantum_avg_time_term,
    raabe_estimate,
    run_walk,
    series_f,
    series_g,
    sqrt_one_plus_z4,
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


def test_sqrt_series_matches_binomial_oracle():
    order = 512
    series = sqrt_one_plus_z4(order)
    exact = binomial_half_coeffs(order // 4 + 1)
    for k, c in enumerate(exact):
        assert series.coefficient(4 * k) == pytest.approx(float(c), rel=1e-14)
    # all other degrees vanish
    mask = np.ones(order + 1, dtype=bool)
    mask[::4] = False
    assert np.all(series.coeffs[mask] == 0.0)


def test_fg_product_identity():
    # f*g = (1 - sqrt(1 + z^4)) / z^2 with coefficients -C(1/2, k) at 4k - 2
    order = 256
    product = series_f(order) * series_g(order)
    exact = binomial_half_coeffs(order // 4 + 1)
    for k in range(1, len(exact)):
        deg = 4 * k - 2
        if deg > order:
            break
        assert product.coefficient(deg) == pytest.approx(
            -float(exact[k]), rel=1e-13, abs=1e-16
        )
    np.testing.assert_allclose(product.coefficient(2), -0.5, atol=1e-15)
    np.testing.assert_allclose(product.coefficient(6), 0.125, atol=1e-15)
    np.testing.assert_allclose(product.coefficient(10), -0.0625, atol=1e-15)


def test_first_coefficients_of_f_and_g():
    f = series_f(16)
    g = series_g(16)
    inv_rt2 = 1 / math.sqrt(2)
    assert f.coefficient(1) == pytest.approx(inv_rt2, abs=1e-15)
    assert f.coefficient(3) == pytest.approx(-0.5 * inv_rt2, abs=1e-15)
    assert g.coefficient(1) == pytest.approx(-inv_rt2, abs=1e-15)
    assert g.coefficient(3) == pytest.approx(-0.5 * inv_rt2, abs=1e-15)
    # even coefficients vanish for both
    for deg in range(0, 17, 2):
        assert f.coefficient(deg) == 0.0
        assert g.coefficient(deg) == 0.0


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


def test_raabe_on_analytic_power_laws():
    # non-circular check: u_n = n^(-s) has ratio limit exactly s
    for s in (0.5, 1.5, 2.0):
        report = raabe_estimate(lambda n, s=s: np.asarray(n, float) ** -s)
        assert report.limit == pytest.approx(s, abs=1e-6)
    assert raabe_estimate(lambda n: np.asarray(n, float) ** -2.0).verdict == "converges"
    assert raabe_estimate(lambda n: np.asarray(n, float) ** -0.5).verdict == "diverges"


def test_raabe_geometric_converges():
    report = raabe_estimate(lambda n: 0.5 ** np.asarray(n, float), n_max=500)
    assert report.verdict == "converges"
    assert report.limit > 1.5


def test_raabe_borderline_inconclusive():
    report = raabe_estimate(lambda n: 1.0 / np.asarray(n, float))
    assert report.verdict == "inconclusive"
    assert report.limit == pytest.approx(1.0, abs=1e-6)


def test_raabe_classical_terms():
    report = raabe_estimate(classical_avg_time_term(2))
    assert report.limit == pytest.approx(0.5, abs=0.01)
    assert report.verdict == "diverges"


def test_raabe_quantum_terms():
    report = raabe_estimate(quantum_avg_time_term(2))
    assert report.limit == pytest.approx(2.0, abs=0.02)
    assert report.verdict == "converges"


def test_raabe_rejects_nonpositive_terms():
    with pytest.raises(NumericalError):
        raabe_estimate(lambda n: np.zeros_like(np.asarray(n, float)), n_max=100)


def test_quantum_avg_time_term_closed_form_guard():
    with pytest.raises(ConfigurationError):
        quantum_avg_time_term(3)
    term = quantum_avg_time_term(2)
    # u_1 = 2 * 1/4, u_2 = 6 * 1/64
    np.testing.assert_allclose(term(np.array([1, 2])), [0.5, 6 / 64], atol=1e-14)
