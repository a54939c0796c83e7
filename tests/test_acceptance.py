"""Acceptance dashboard: one test per shipped target, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the dashboard lines.
Three targets are not reachable by a converged implementation (the avg-time
table beyond m1=2, the geometric preset's absorbed-spreading band, and the
classical horizon-400 plateau); those tests keep the stated tolerances and
fail by design, and the README explains each gap.
"""
import math
import time

import numpy as np
import pytest

from walklab import (
    AbsorberConfig,
    EnsembleConfig,
    TABLE2_PRESETS,
    WalkConfig,
    absorption_probabilities,
    absorption_summaries,
    classical_avg_time_ratio,
    coin_by_name,
    disorder_avg_absorb_time,
    disorder_avg_sigma,
    first_passage_series,
    fit_exponent,
    iterate_walk,
    point_mass,
    poisson,
    probability_distribution,
    quantum_avg_time_ratio,
    raabe_estimate,
    run_ensemble,
    run_walk,
    sample_realization,
)

TABLE1_TOTAL_ABSORPTION = {
    1: 0.64, 2: 0.27, 3: 0.18, 4: 0.16, 5: 0.15,
    6: 0.14, 7: 0.14, 8: 0.14, 9: 0.14, 10: 0.14,
}
TABLE1_AVG_TIME = {
    1: 1.57, 2: 2.66, 3: 4.87, 4: 7.48, 5: 10.07,
    6: 12.91, 7: 15.50, 8: 18.07, 9: 20.61, 10: 23.39,
}
TABLE2_ALPHA_WITH = {
    "tableII-binomial": 1.02,
    "tableII-hypergeometric": 1.03,
    "tableII-negbinomial": 0.91,
    "tableII-geometric": 1.01,
}
TABLE2_ALPHA_WITHOUT = {
    "tableII-binomial": 0.79,
    "tableII-hypergeometric": 0.81,
    "tableII-negbinomial": 0.69,
    "tableII-geometric": 0.74,
}

# master seeds for the desk-scale ensembles; fixed so runs are reproducible
DESK_SEED = 3
PRESET_SEED = 1


def _report(number, label, checks):
    failures = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def absorption_table():
    start = time.monotonic()
    rows = {m1: absorption_summaries([m1])[0] for m1 in range(1, 11)}
    return rows, time.monotonic() - start


def test_criterion_01_total_absorption_column(absorption_table):
    rows, elapsed = absorption_table
    checks = [
        (
            abs(rows[m1][0] - TABLE1_TOTAL_ABSORPTION[m1]) <= 0.01,
            f"P(m1={m1}) = {rows[m1][0]:.4f}, target {TABLE1_TOTAL_ABSORPTION[m1]}",
        )
        for m1 in range(1, 11)
    ]
    checks += [
        (
            abs(rows[m1][1] - TABLE1_AVG_TIME[m1]) <= 0.05,
            f"t_a(m1={m1}) = {rows[m1][1]:.3f}, target {TABLE1_AVG_TIME[m1]}",
        )
        for m1 in (1, 2)
    ]
    checks.append((elapsed <= 60.0, f"table took {elapsed:.1f} s > 60 s"))
    _report(1, "absorption table, totals and short-range avg times", checks)


def test_criterion_01_avg_time_column_beyond_m1_2(absorption_table):
    """Average-time targets for m1 >= 3 sit below the converged series values
    by 0.08..0.46; the shipped tolerance is kept so the gap stays visible.
    This test fails by design. The converged column, computed here from the
    same series that pass every cross-check, is
    4.954, 7.676, 10.418, 13.132, 15.817, 18.504, 21.166, 23.851.
    """
    rows, _ = absorption_table
    checks = [
        (
            abs(rows[m1][1] - TABLE1_AVG_TIME[m1]) <= 0.05,
            f"t_a(m1={m1}) = {rows[m1][1]:.3f}, target {TABLE1_AVG_TIME[m1]}",
        )
        for m1 in range(3, 11)
    ]
    _report("1 (avg-time m1>=3)", "long-range avg-time column", checks)


def test_criterion_02_closed_form_anchors():
    ((p, t),) = absorption_summaries([2], order=2 ** 13)
    exact = 4.0 / math.pi - 1.0
    checks = [
        (abs(p - exact) <= 5e-4, f"P(2) = {p:.6f}, 4/pi-1 = {exact:.6f}"),
        (abs(t - 2.66) <= 1e-2, f"t_a(2) = {t:.4f}, target 2.66"),
    ]
    _report(2, "closed-form anchors at the absorber-at-2 walk", checks)


def test_criterion_03_simulator_matches_series():
    start = time.monotonic()
    checks = []
    for m1 in range(1, 11):
        series = {
            initial: absorption_probabilities(m1, initial, 200)
            for initial in ("L", "R")
        }
        for initial, ps in series.items():
            amp_l, amp_r = (1.0, 0.0) if initial == "L" else (0.0, 1.0)
            result = run_walk(
                WalkConfig(
                    steps=200,
                    initial_amp_left=amp_l,
                    initial_amp_right=amp_r,
                    absorber=AbsorberConfig(m1),
                )
            )
            sim = np.zeros(200)
            sim[: result.per_step.shape[-1]] = result.per_step
            diff = float(np.max(np.abs(sim - ps)))
            checks.append(
                (diff <= 1e-10, f"m1={m1} initial={initial}: max |dp_t| = {diff:.2e}")
            )
    elapsed = time.monotonic() - start
    checks.append((elapsed <= 10.0, f"equivalence scan took {elapsed:.1f} s > 10 s"))
    _report(3, "simulated p_t equals squared series coefficients", checks)


def _first_passage(t, m1):
    """p_t of the first-passage law: the term at t of `first_passage_series`,
    or 0 off its support."""
    ts, ps = first_passage_series(m1, t)
    return float(ps[-1]) if ts.size and ts[-1] == t else 0.0


def test_criterion_04_classical_exactness():
    checks = []
    for m1 in range(1, 11):
        result = run_walk(
            WalkConfig(steps=200, engine="classical", absorber=AbsorberConfig(m1))
        )
        sim = np.zeros(200)
        sim[: result.per_step.shape[-1]] = result.per_step
        closed = np.array(
            [_first_passage(t, m1) for t in range(1, 201)]
        )
        diff = float(np.max(np.abs(sim - closed)))
        checks.append(
            (diff <= 1e-12, f"m1={m1}: propagation vs closed form differs {diff:.2e}")
        )
    p = _first_passage
    for m in range(3, 11):
        relations = [
            (p(m, m), 0.25 * p(m - 2, m - 2), "seed"),
            (p(m + 2, m), 0.25 * p(m, m - 2) + 0.5 * p(m, m), "step2"),
            (
                p(m + 4, m),
                0.25 * p(m + 2, m - 2) + 0.5 * p(m + 2, m)
                + 0.25 * p(2, 2) * p(m, m),
                "step4",
            ),
            (
                p(m + 6, m),
                0.25 * p(m + 4, m - 2) + 0.5 * p(m + 4, m)
                + 0.25 * (p(4, 2) * p(m, m) + p(2, 2) * p(m + 2, m)),
                "step6",
            ),
        ]
        for left, right, tag in relations:
            checks.append(
                (
                    abs(left - right) <= 1e-12,
                    f"recurrence {tag} at m1={m}: {left:.3e} vs {right:.3e}",
                )
            )
    partial = first_passage_series(2, 10 ** 4)[1].sum()
    checks.append(
        (partial >= 0.98, f"partial total absorption {partial:.4f} < 0.98 at 1e4")
    )
    _report(4, "classical first-passage exactness and recurrences", checks)


def test_criterion_05_ratio_test_diagnostics():
    start = time.monotonic()
    classical = raabe_estimate(classical_avg_time_ratio(2), n_max=10 ** 6)
    quantum = raabe_estimate(quantum_avg_time_ratio(2), n_max=10 ** 6)
    elapsed = time.monotonic() - start
    checks = [
        (
            abs(classical.limit - 0.5) <= 0.01,
            f"classical limit {classical.limit:.4f} outside 0.5 +/- 0.01",
        ),
        (
            classical.verdict == "diverges",
            f"classical verdict {classical.verdict!r}",
        ),
        (
            abs(quantum.limit - 2.0) <= 0.02,
            f"quantum limit {quantum.limit:.4f} outside 2.0 +/- 0.02",
        ),
        (quantum.verdict == "converges", f"quantum verdict {quantum.verdict!r}"),
        (elapsed <= 5.0, f"estimators took {elapsed:.1f} s > 5 s"),
    ]
    _report(5, "ratio-test divergence/convergence diagnostics", checks)


def _clean_alpha(engine, absorber=None):
    config = EnsembleConfig(
        walk=WalkConfig(steps=80, engine=engine, absorber=absorber),
        realizations=1,
    )
    return fit_exponent(disorder_avg_sigma(config), 20, 80).alpha


def test_criterion_06_clean_spreading_exponents():
    start = time.monotonic()
    quantum_free = _clean_alpha("quantum")
    classical_free = _clean_alpha("classical")
    quantum_absorbed = _clean_alpha("quantum", AbsorberConfig(2))
    elapsed = time.monotonic() - start
    checks = [
        (
            abs(quantum_free - 1.00) <= 0.02,
            f"quantum free alpha {quantum_free:.4f} outside 1.00 +/- 0.02",
        ),
        (
            abs(classical_free - 0.50) <= 0.02,
            f"classical alpha {classical_free:.4f} outside 0.50 +/- 0.02",
        ),
        (
            abs(quantum_absorbed - 0.96) <= 0.02,
            f"absorbed quantum alpha {quantum_absorbed:.4f} outside 0.96 +/- 0.02",
        ),
        (elapsed <= 30.0, f"clean fits took {elapsed:.1f} s > 30 s"),
    ]
    _report(6, "clean spreading exponents over t in [20, 80]", checks)


def _disordered_alpha(engine, absorber, seed, realizations=200):
    config = EnsembleConfig(
        walk=WalkConfig(steps=80, engine=engine, absorber=absorber),
        realizations=realizations,
        master_seed=seed,
        disorder=poisson(1.0),
    )
    return fit_exponent(disorder_avg_sigma(config), 20, 80).alpha


def test_criterion_07_disordered_spreading_desk_scale():
    start = time.monotonic()
    quantum_free = _disordered_alpha("quantum", None, DESK_SEED)
    quantum_absorbed = _disordered_alpha("quantum", AbsorberConfig(2), DESK_SEED)
    classical_free = _disordered_alpha("classical", None, DESK_SEED)
    classical_absorbed = _disordered_alpha("classical", AbsorberConfig(2), DESK_SEED)
    elapsed = time.monotonic() - start
    spread = abs(classical_absorbed - classical_free)
    checks = [
        (
            abs(quantum_free - 0.70) <= 0.05,
            f"quantum free alpha {quantum_free:.4f} outside 0.70 +/- 0.05",
        ),
        (
            abs(quantum_absorbed - 0.98) <= 0.04,
            f"absorbed quantum alpha {quantum_absorbed:.4f} outside 0.98 +/- 0.04",
        ),
        (
            abs(classical_free - 0.51) <= 0.04,
            f"classical free alpha {classical_free:.4f} outside 0.51 +/- 0.04",
        ),
        (
            abs(classical_absorbed - 0.51) <= 0.04,
            f"absorbed classical alpha {classical_absorbed:.4f} outside 0.51 +/- 0.04",
        ),
        (
            spread <= 0.02,
            f"classical fits differ by {spread:.4f} > 0.02",
        ),
        (elapsed <= 600.0, f"ensembles took {elapsed:.1f} s > 600 s"),
    ]
    _report(7, "Poisson-disorder spreading at desk scale (R = 200)", checks)


@pytest.fixture(scope="module")
def preset_alphas():
    start = time.monotonic()
    out = {}
    for name, spec in TABLE2_PRESETS.items():
        alphas = {}
        for label, absorber in (("with", AbsorberConfig(2)), ("without", None)):
            config = EnsembleConfig(
                walk=WalkConfig(steps=80, engine="quantum", absorber=absorber),
                realizations=200,
                master_seed=PRESET_SEED,
                disorder=spec,
            )
            alphas[label] = fit_exponent(disorder_avg_sigma(config), 20, 80).alpha
        out[name] = (alphas["with"], alphas["without"])
    return out, time.monotonic() - start


def test_criterion_08_preset_spreading_table(preset_alphas):
    alphas, elapsed = preset_alphas
    checks = []
    for name, (with_a, without_a) in alphas.items():
        if name != "tableII-geometric":
            target = TABLE2_ALPHA_WITH[name]
            checks.append(
                (
                    abs(with_a - target) <= 0.05,
                    f"{name} absorbed alpha {with_a:.4f} outside {target} +/- 0.05",
                )
            )
        target = TABLE2_ALPHA_WITHOUT[name]
        checks.append(
            (
                abs(without_a - target) <= 0.05,
                f"{name} free alpha {without_a:.4f} outside {target} +/- 0.05",
            )
        )
        gap = with_a - without_a
        checks.append(
            (gap >= 0.15, f"{name} restoration gap {gap:.4f} < 0.15")
        )
    checks.append((elapsed <= 2400.0, f"preset sweep took {elapsed:.1f} s > 2400 s"))
    _report(8, "preset disorder spreading table at desk scale", checks)


def test_criterion_08_geometric_preset_absorber_band(preset_alphas):
    """The negbinomial and geometric presets are the same distribution (unit
    mean, variance 2), so both ensembles produce the same absorbed alpha near
    0.92; the geometric row's 1.01 +/- 0.05 target cannot also hold. A
    support-from-1 geometric with mean 2 (disorder geometric:k=0.5) does land
    on 1.01/0.74. The target is kept as shipped; this test fails by design.
    """
    alphas, _ = preset_alphas
    with_a, _ = alphas["tableII-geometric"]
    target = TABLE2_ALPHA_WITH["tableII-geometric"]
    _report(
        "8 (geometric absorbed band)",
        "geometric preset absorbed-spreading band",
        [
            (
                abs(with_a - target) <= 0.05,
                f"tableII-geometric absorbed alpha {with_a:.4f} outside "
                f"{target} +/- 0.05 (matches tableII-negbinomial, as the "
                "distributions are identical)",
            )
        ],
    )


def test_criterion_09_quantum_horizon_averages():
    start = time.monotonic()
    config = EnsembleConfig(
        walk=WalkConfig(steps=400, engine="quantum", absorber=AbsorberConfig(2)),
        realizations=40,
        master_seed=1,
        disorder=poisson(1.0),
    )
    curve = disorder_avg_absorb_time(config, horizons=[100, 200, 300, 400])
    elapsed = time.monotonic() - start
    values = curve.values.tolist()
    increasing = all(b > a for a, b in zip(values, values[1:]))
    checks = [
        (
            34.0 <= values[-1] <= 42.0,
            f"quantum horizon-400 average {values[-1]:.2f} outside [34, 42]",
        ),
        (
            increasing,
            f"horizon averages not strictly increasing: {values}",
        ),
        (elapsed <= 300.0, f"quantum ensemble took {elapsed:.1f} s > 300 s"),
    ]
    _report(9, "disordered quantum averaged absorbing times", checks)


def test_criterion_09_classical_horizon_average():
    """A classical walk confined below the absorber reaches |position| of
    order sqrt(horizon), so the horizon-400 averaged absorbing time sits near
    1.35*sqrt(400) = 27, not at the 7.75 +/- 0.5 target (which matches a
    horizon near 33). The target is kept as shipped; this test fails by
    design.
    """
    config = EnsembleConfig(
        walk=WalkConfig(steps=400, engine="classical", absorber=AbsorberConfig(2)),
        realizations=40,
        master_seed=1,
        disorder=poisson(1.0),
    )
    curve = disorder_avg_absorb_time(config, horizons=[400])
    value = float(curve.values[0])
    _report(
        "9 (classical plateau)",
        "disordered classical averaged absorbing time",
        [
            (
                abs(value - 7.75) <= 0.5,
                f"classical horizon-400 average {value:.2f} outside 7.75 +/- 0.5",
            )
        ],
    )


def test_criterion_10_property_suite():
    checks = []

    for name in ("hadamard", "hadamard-mirrored", "kempe"):
        coin = coin_by_name(name)
        u = np.array([[coin.a, coin.c], [coin.b, coin.d]])
        gap = float(np.max(np.abs(u @ u.conj().T - np.eye(2))))
        checks.append((gap <= 1e-12, f"coin {name} unitarity gap {gap:.2e}"))

    state = None
    for state, _ in iterate_walk(WalkConfig(steps=10 ** 4)):
        pass
    mass = probability_distribution(state).mass()
    checks.append(
        (abs(mass - 1.0) <= 1e-9, f"mass after 1e4 free steps drifted {mass - 1.0:.2e}")
    )

    result = run_walk(WalkConfig(steps=60, absorber=AbsorberConfig(2)))
    dist = probability_distribution(result.final_state)
    beyond = dist.probs[dist.positions >= 2]
    checks.append(
        (
            beyond.size == 0 or float(np.max(beyond)) == 0.0,
            "mass survives at or beyond the absorber",
        )
    )
    budget = result.per_step.sum(axis=-1) + dist.mass()
    checks.append(
        (abs(budget - 1.0) <= 1e-9, f"absorbed+surviving mass {budget:.12f} != 1")
    )

    phase = complex(math.cos(0.7), math.sin(0.7))
    base = run_walk(WalkConfig(steps=50))
    rotated = run_walk(WalkConfig(steps=50, initial_amp_left=phase))
    sigma_gap = float(np.max(np.abs(base.sigma - rotated.sigma)))
    checks.append(
        (sigma_gap <= 1e-12, f"global phase shifts sigma by {sigma_gap:.2e}")
    )

    cfg = EnsembleConfig(
        walk=WalkConfig(steps=30, engine="quantum", absorber=AbsorberConfig(2)),
        realizations=2,
        disorder=point_mass(1),
    )
    absorbed, _ = run_ensemble(cfg)
    clean = run_walk(WalkConfig(steps=30, absorber=AbsorberConfig(2)))
    p = np.zeros(30)
    p[: clean.per_step.shape[-1]] = clean.per_step
    checks.append(
        (
            bool(np.array_equal(absorbed[0], p) and np.array_equal(absorbed[1], p)),
            "point-mass ensemble differs from the clean walk",
        )
    )

    for name, spec in {**TABLE2_PRESETS, "point": point_mass(2)}.items():
        _, ps = spec.support_table()
        gap = abs(float(np.sum(ps)) - 1.0)
        checks.append((gap <= 1e-9, f"{name} pmf sums to 1 {gap:.2e} off"))

    a = sample_realization(poisson(1.0), 200, 42).lengths
    b = sample_realization(poisson(1.0), 200, 42).lengths
    c = sample_realization(poisson(1.0), 200, 43).lengths
    checks.append((bool(np.array_equal(a, b)), "sampler not deterministic"))
    checks.append((not np.array_equal(a, c), "sampler ignores the seed"))

    ts = np.arange(5, 120)
    from walklab import AveragedCurve

    curve = AveragedCurve(
        abscissa=ts,
        values=2.5 * ts ** 0.8,
        stderr=np.zeros(ts.size),
        realization_count=1,
        included=np.ones(ts.size, dtype=np.int64),
    )
    fit = fit_exponent(curve, 10, 100)
    checks.append(
        (
            abs(fit.alpha - 0.8) <= 1e-12 and fit.residual_rms <= 1e-12,
            f"synthetic fit alpha {fit.alpha:.12f}, residual {fit.residual_rms:.2e}",
        )
    )

    _report(10, "offline property suite", checks)
