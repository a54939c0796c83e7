"""CLI behavior: output schemas, determinism, anchors, exit codes, goldens."""
import argparse
import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from walklab import ConfigurationError, PowerSeries, ensemble
from walklab.cli import _render, build_parser, main, parse_disorder
from walklab.engine import MAX_ARRAY_BYTES
from walklab.series import MAX_ORDER, RAABE_MAX_N

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("WALKLAB_SEED", raising=False)


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_walk_quantum_one_step(capsys):
    rc, out, _ = run_cli(
        ["walk", "--engine", "quantum", "--steps", "1", "--seed", "1"], capsys
    )
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["time", "position", "probability"]
    assert meta["engine"] == "quantum"
    assert meta["coin"] == "hadamard"
    got = {int(r[1]): float(r[2]) for r in rows}
    assert set(got) == {-1, 1}
    assert got[-1] == pytest.approx(0.5, abs=1e-12)
    assert got[1] == pytest.approx(0.5, abs=1e-12)


def test_walk_classical_two_steps(capsys):
    rc, out, _ = run_cli(
        ["walk", "--engine", "classical", "--steps", "2", "--seed", "1"], capsys
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 3
    got = {int(r[1]): float(r[2]) for r in rows}
    assert got == {-2: 0.25, 0: 0.5, 2: 0.25}


def test_walk_snapshots_are_sorted_and_filtered(capsys):
    rc, out, _ = run_cli(
        ["walk", "--engine", "classical", "--steps", "4", "--seed", "1",
         "--snapshot", "3", "--snapshot", "1"],
        capsys,
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    times = [int(r[0]) for r in rows]
    assert times == sorted(times)
    assert set(times) == {1, 3}


def test_walk_absorbed_quantum_mass_piles_up_left(capsys):
    rc, out, _ = run_cli(
        ["walk", "--engine", "quantum", "--steps", "50", "--absorber", "2",
         "--initial", "L", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert all(int(r[1]) < 2 for r in rows)
    top = max(rows, key=lambda r: float(r[2]))
    assert int(top[1]) in (-34, -32)


def test_absorb_clean_quantum_long_run_anchors(capsys):
    rc, out, _ = run_cli(
        ["absorb", "--engine", "quantum", "--absorber", "2", "--steps", "400",
         "--seed", "1"],
        capsys,
    )
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["t", "p_t", "cumulative", "avg_time"]
    assert float(meta["cumulative_total"]) == pytest.approx(
        4.0 / math.pi - 1.0, abs=1e-3
    )
    assert float(rows[-1][3]) == pytest.approx(2.661, abs=0.02)
    # cumulative column is the running sum of p_t and never decreases
    cums = [float(r[2]) for r in rows]
    assert all(b >= a for a, b in zip(cums, cums[1:]))


def test_absorb_classical_near_certain_absorption(capsys):
    rc, out, _ = run_cli(
        ["absorb", "--engine", "classical", "--absorber", "1", "--steps", "1000",
         "--seed", "1"],
        capsys,
    )
    assert rc == 0
    meta, _, _ = parse_csv(out)
    assert float(meta["cumulative_total"]) >= 0.97


@pytest.mark.parametrize("engine, steps", [("classical", 4000), ("quantum", 1000)])
def test_absorb_avg_time_matches_per_horizon_reference(engine, steps, capsys):
    # the column comes from running sums of at most `steps` positive terms,
    # within steps * eps <= 8.9e-13 relative of the correctly rounded sums
    # that math.fsum takes afresh at each horizon
    rc, out, _ = run_cli(
        ["absorb", "--engine", engine, "--absorber", "2", "--steps", str(steps),
         "--seed", "1"],
        capsys,
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    p = [float(r[1]) for r in rows]
    tp = [t * pt for t, pt in enumerate(p, start=1)]
    for t, row in enumerate(rows, start=1):
        if row[3] == "":
            assert not any(p[:t])
        else:
            want = math.fsum(tp[:t]) / math.fsum(p[:t])
            assert float(row[3]) == pytest.approx(want, rel=1e-12, abs=0)


def test_absorb_disordered_schema(capsys):
    rc, out, _ = run_cli(
        ["absorb", "--engine", "classical", "--absorber", "2", "--steps", "10",
         "--disorder", "poisson:lambda=1", "--realizations", "5",
         "--horizons", "5,10", "--seed", "3"],
        capsys,
    )
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["horizon", "avg_time", "stderr", "included", "excluded"]
    assert meta["disorder"] == "family=poisson lambda=1"
    assert meta["realizations"] == "5"
    assert [int(r[0]) for r in rows] == [5, 10]
    for r in rows:
        assert int(r[3]) + int(r[4]) == 5


def test_absorb_rejects_realizations_without_disorder(capsys):
    rc, _, err = run_cli(
        ["absorb", "--engine", "quantum", "--absorber", "2", "--steps", "10",
         "--realizations", "5", "--seed", "1"],
        capsys,
    )
    assert rc == 2
    assert "--realizations requires --disorder" in err


def test_absorb_rejects_horizons_without_disorder(capsys):
    rc, out, err = run_cli(
        ["absorb", "--engine", "quantum", "--absorber", "2", "--steps", "10",
         "--horizons", "abc", "--seed", "1"],
        capsys,
    )
    assert rc == 2
    assert out == ""
    assert "--horizons requires --disorder" in err


def test_absorb_rejects_absorber_at_origin(capsys):
    rc, _, err = run_cli(
        ["absorb", "--engine", "quantum", "--absorber", "0", "--steps", "5",
         "--seed", "1"],
        capsys,
    )
    assert rc == 2
    assert "absorber position must be nonzero" in err


def test_series_default_table_covers_ten_rows(capsys):
    rc, out, _ = run_cli(["series", "--T", "128", "--seed", "1"], capsys)
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["m1", "total_absorption", "avg_time"]
    assert [int(r[0]) for r in rows] == list(range(1, 11))
    totals = [float(r[1]) for r in rows]
    times = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert all(b > a for a, b in zip(times, times[1:]))


def test_series_anchor_values(capsys):
    rc, out, _ = run_cli(
        ["series", "--m1", "2", "--T", "1024", "--seed", "1"], capsys
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(4.0 / math.pi - 1.0, abs=1e-6)
    assert float(rows[0][2]) == pytest.approx(2.66105, abs=5e-3)


def test_series_m1_range(capsys):
    rc, out, _ = run_cli(
        ["series", "--m1-range", "3..5", "--T", "64", "--seed", "1"], capsys
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == [3, 4, 5]


def test_series_rejects_an_empty_m1_range(capsys):
    rc, out, err = run_cli(["series", "--m1-range", "3..1", "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: empty m1 range '3..1'\n"


def test_series_rejects_m1_with_range(capsys):
    rc, _, err = run_cli(
        ["series", "--m1", "2", "--m1-range", "1..4", "--seed", "1"], capsys
    )
    assert rc == 2
    assert "either --m1 or --m1-range" in err


def test_series_order_above_budget_exits_2_before_allocating(capsys):
    tracemalloc.start()
    try:
        rc, out, err = run_cli(
            ["series", "--T", str(MAX_ORDER + 1), "--seed", "1"], capsys
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert out == ""
    assert f"series order {MAX_ORDER + 1} is above the memory budget" in err
    # one length-T float64 array would already be 32 MiB
    assert peak < 2 ** 20


def test_series_m1_range_beyond_order_exits_2_before_listing(capsys):
    tracemalloc.start()
    try:
        rc, out, err = run_cli(
            ["series", "--m1-range", "1..100000000", "--seed", "1"], capsys
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert out == ""
    assert "absorber at 16385 needs series order >= 16385, got 16384" in err
    # a list of the whole range would hold 10^8 ints
    assert peak < 2 ** 20


def run_cli_traced(argv, capsys):
    """run_cli plus the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        rc, out, err = run_cli(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, out, err, peak


@pytest.mark.parametrize("spec", [
    "binomial:n=1e30,p=0.5",
    "binomial:n=1e9,p=0.5",
    "hypergeometric:N=1e12,K=1e11,n=1e11",
    "point_mass:length=1e18",
    "point_mass:length=100000000",
])
def test_bounded_support_above_cap_exits_2_before_allocating(spec, capsys):
    rc, out, err, peak = run_cli_traced(
        ["walk", "--engine", "quantum", "--steps", "3", "--disorder", spec,
         "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert "beyond the support cap of 100000" in err
    # the smallest of these tables would hold 10^8 lengths
    assert peak < 2 ** 20


def test_walk_window_above_budget_exits_2_before_allocating(capsys):
    # 1000 steps of length 10^5 reach 1 + 2·10^8 sites, 6.4 GB of amplitudes
    rc, out, err, peak = run_cli_traced(
        ["walk", "--engine", "quantum", "--steps", "1000",
         "--disorder", "point_mass:length=100000", "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert (f"a walk window of 1 row(s) × 200000001 sites needs 6400000032 "
            f"bytes, above the budget of {MAX_ARRAY_BYTES}") in err
    # the point mass is tabulated as its one length, not 10^5 of them
    assert peak < 4 * 2 ** 20


def test_disordered_walk_steps_above_budget_exit_2_before_sampling(capsys):
    # length-0 steps keep the window one site wide, so only the 8 TB of step
    # lengths themselves stand in the way
    rc, out, err, peak = run_cli_traced(
        ["walk", "--engine", "classical", "--steps", "1000000000000",
         "--disorder", "point_mass:length=0", "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert (f"1000000000000 disordered steps need 8000000000000 bytes of step "
            f"lengths, above the budget of {MAX_ARRAY_BYTES}") in err
    assert peak < 2 ** 20
    # the first length count past the budget
    steps = MAX_ARRAY_BYTES // 8 + 1
    rc, out, err = run_cli(
        ["walk", "--engine", "quantum", "--steps", str(steps),
         "--disorder", "poisson:lambda=1", "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert f"{steps} disordered steps need {8 * steps} bytes" in err


def test_ensemble_above_budget_exits_2_before_sampling(capsys):
    rc, out, err, peak = run_cli_traced(
        ["absorb", "--engine", "classical", "--absorber", "2", "--steps", "100000",
         "--disorder", "poisson:lambda=1", "--realizations", "1000000",
         "--horizons", "10", "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    # the walks stop at the last horizon, so the matrix is 10 steps wide
    assert (f"1000000 realizations × 10 steps need 80000000 bytes per "
            f"matrix, above the budget of {MAX_ARRAY_BYTES}") in err
    assert peak < 2 ** 20


def test_series_raabe_ignores_order_budget(capsys):
    rc, out, _ = run_cli(
        ["series", "--raabe", "quantum", "--n-max", "1000", "--T", str(2 ** 40),
         "--seed", "1"],
        capsys,
    )
    assert rc == 0
    assert parse_csv(out)[0]["verdict"] == "converges"


def test_series_raabe_classical_diverges(capsys):
    rc, out, _ = run_cli(
        ["series", "--raabe", "classical", "--n-max", "10000", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    meta, header, rows = parse_csv(out)
    assert header == ["n", "ratio_estimate"]
    assert meta["verdict"] == "diverges"
    assert float(meta["limit"]) == pytest.approx(0.5, abs=0.01)
    assert len(rows) > 10


def test_series_raabe_quantum_converges(capsys):
    rc, out, _ = run_cli(
        ["series", "--raabe", "quantum", "--n-max", "10000", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    meta, _, _ = parse_csv(out)
    assert meta["verdict"] == "converges"
    assert float(meta["limit"]) == pytest.approx(2.0, abs=0.02)


@pytest.mark.parametrize("n_max", [RAABE_MAX_N * 10, 10 ** 20])
def test_series_raabe_n_max_past_float64_resolution_exits_2(n_max, capsys):
    # float64 cannot resolve u_n/u_{n+1} − 1 ≈ 2/n there: the limit read 0.0
    # and "diverges" at 1e18, and the int64 grid overflowed past 2^63
    rc, out, err = run_cli(
        ["series", "--raabe", "quantum", "--n-max", str(n_max), "--seed", "1"],
        capsys,
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: n_max must be in 16..{RAABE_MAX_N}, got {n_max}\n"


def test_exponent_classical_free_is_exactly_half(capsys):
    rc, out, _ = run_cli(
        ["exponent", "--engine", "classical", "--steps", "60",
         "--t-range", "10:60", "--format", "json", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "exponent"
    fit = payload["fit"][0]
    assert set(fit) == {
        "alpha", "ci95_halfwidth", "intercept", "residual_rms",
        "t_lo", "t_hi", "n_points",
    }
    assert fit["alpha"] == pytest.approx(0.5, abs=1e-12)
    assert fit["residual_rms"] <= 1e-12
    assert fit["n_points"] == 51


def test_exponent_fit_range_is_clipped_to_the_walk(capsys):
    # sigma is computed only on the fit range, clipped to 1..steps
    rc, out, _ = run_cli(
        ["exponent", "--engine", "quantum", "--steps", "80", "--disorder",
         "poisson:lambda=1", "--realizations", "4", "--t-range", "20:100",
         "--format", "json", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    fit = json.loads(out)["fit"][0]
    assert (fit["t_lo"], fit["t_hi"], fit["n_points"]) == (20, 100, 61)


@pytest.mark.parametrize("argv, message", [
    (["exponent", "--engine", "quantum", "--steps", "80", "--t-range", "100:200"],
     "fit range [100, 200] covers fewer than 3 curve points"),
    (["exponent", "--engine", "quantum", "--steps", "80", "--t-range", "80:20"],
     "fit range needs t_lo < t_hi, got [80, 20]"),
    (["exponent", "--engine", "classical", "--steps", "80", "--t-range", "79:200"],
     "fit range [79, 200] covers fewer than 3 curve points"),
    (["sweep", "--presets", "tableII-binomial", "--steps", "30", "--t-range", "40:60"],
     "fit range [40, 60] covers fewer than 3 curve points"),
], ids=["beyond-steps", "inverted", "two-points", "sweep"])
def test_bad_fit_range_exits_before_any_walk(argv, message, capsys, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran before the fit range was checked")

    monkeypatch.setattr(ensemble, "record_walk", no_walk)
    disorder = [] if argv[0] == "sweep" else ["--disorder", "poisson:lambda=1"]
    rc, out, err = run_cli(argv + disorder + ["--realizations", "2000", "--seed", "1"],
                           capsys)
    assert rc == 2
    assert out == ""
    assert f"error: {message}" in err


def test_exponent_quantum_free_is_ballistic(capsys):
    rc, out, _ = run_cli(
        ["exponent", "--engine", "quantum", "--steps", "80", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][0]) == pytest.approx(1.0, abs=0.02)


def test_sweep_single_preset_schema(capsys):
    rc, out, _ = run_cli(
        ["sweep", "--presets", "tableII-binomial", "--steps", "30",
         "--realizations", "5", "--t-range", "5:30", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == [
        "preset", "family", "mean", "variance", "classification",
        "alpha_with_absorber", "ci95_with", "alpha_no_absorber",
        "ci95_without", "restoration_gap",
    ]
    assert len(rows) == 1
    assert rows[0][0] == "tableII-binomial"
    assert rows[0][4] == "sub_poissonian"
    gap = float(rows[0][5]) - float(rows[0][7])
    assert float(rows[0][9]) == pytest.approx(gap, abs=1e-12)


def test_exit_code_bad_disorder(capsys):
    rc, _, err = run_cli(
        ["walk", "--engine", "classical", "--steps", "2",
         "--disorder", "nosuch", "--seed", "1"],
        capsys,
    )
    assert rc == 2
    assert "disorder spec" in err
    rc, _, err = run_cli(
        ["walk", "--engine", "classical", "--steps", "2",
         "--disorder", "poisson:lambda", "--seed", "1"],
        capsys,
    )
    assert rc == 2
    assert "key=value" in err


@pytest.mark.parametrize("spec, key", [
    ("binomial:n=2.5,p=0.5", "n"),
    ("point_mass:length=1.5", "length"),
    ("hypergeometric:N=10.7,K=5,n=2", "N"),
    # a float would round N to the integer 9007199254740994
    ("hypergeometric:N=9007199254740993.5,K=5,n=2", "N"),
])
def test_non_integer_disorder_parameter_exits_2(spec, key, capsys):
    rc, out, err = run_cli(
        ["walk", "--engine", "quantum", "--steps", "3", "--disorder", spec,
         "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert f"needs an integer {key}" in err


@pytest.mark.parametrize("argv", [
    ["exponent", "--engine", "quantum", "--t-range", "5"],
    ["exponent", "--engine", "quantum", "--t-range", "a:b"],
    ["series", "--m1-range", "1-3"],
    ["series", "--m1-range", "1..2..3"],
    ["absorb", "--engine", "classical", "--absorber", "2", "--steps", "10",
     "--disorder", "poisson:lambda=1", "--horizons", "5,x"],
], ids=["t-range-one-item", "t-range-not-integers", "m1-range-wrong-separator",
        "m1-range-three-items", "horizons-not-integers"])
def test_malformed_integer_flag_exits_2(argv, capsys):
    rc, out, err = run_cli(argv + ["--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and argv[-2] in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_one_cell_rule(fmt):
    # a numpy float64 renders as the Python float it holds; NaN and None are
    # both missing: empty cells in CSV, null in JSON
    columns = ["a", "b", "c", "d", "e"]
    args = argparse.Namespace(format=fmt)
    numpy_row = (np.float64(0.1), np.float64("nan"), None, 3, "x")
    python_row = (0.1, float("nan"), None, 3, "x")
    text = _render(args, {"k": 1}, columns, [numpy_row])
    assert text == _render(args, {"k": 1}, columns, [python_row])
    if fmt == "csv":
        assert text.splitlines()[-1] == "0.1,,,3,x"
    else:
        row = json.loads(text)["rows"][0]
        assert row == {"a": 0.1, "b": None, "c": None, "d": 3, "e": "x"}
        assert '"a": 0.1,' in text and '"b": null,' in text


def test_exit_code_unknown_preset(capsys):
    rc, _, err = run_cli(["sweep", "--presets", "nope", "--seed", "1"], capsys)
    assert rc == 2
    assert "unknown preset" in err


def test_exit_code_bad_workers(capsys):
    rc, _, err = run_cli(
        ["walk", "--engine", "classical", "--steps", "2", "--workers", "0",
         "--seed", "1"],
        capsys,
    )
    assert rc == 2
    assert "workers" in err


@pytest.mark.parametrize("command, required, defaults", [
    ("walk", ["--engine", "--steps"], {"absorber": None}),
    ("absorb", ["--engine", "--steps", "--absorber"], {}),
    ("exponent", ["--engine"], {"steps": 80, "absorber": None}),
])
def test_walk_flags_required_and_defaults(command, required, defaults, capsys):
    given = {"--engine": "quantum", "--steps": "5", "--absorber": "2"}
    args = build_parser().parse_args(
        [command] + [x for flag in required for x in (flag, given[flag])])
    expected = {"coin": "hadamard", "initial": "L", "disorder": None, **defaults}
    assert {key: getattr(args, key) for key in expected} == expected
    for missing in required:
        argv = [x for flag in required if flag != missing for x in (flag, given[flag])]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2
        assert f"the following arguments are required: {missing}" \
            in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["walk", "--engine", "classical", "--steps", "3"],
    ["absorb", "--engine", "classical", "--absorber", "2", "--steps", "3"],
    ["exponent", "--engine", "classical", "--steps", "10", "--t-range", "2:10"],
], ids=["walk", "absorb", "exponent"])
def test_unknown_coin_rejected_for_classical_engine(argv, capsys):
    rc, out, err = run_cli(argv + ["--coin", "nosuch", "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert "unknown coin 'nosuch'" in err


def test_exit_code_no_absorption(capsys):
    rc, _, err = run_cli(
        ["absorb", "--engine", "classical", "--absorber", "50", "--steps", "5",
         "--disorder", "poisson:lambda=1", "--realizations", "3", "--seed", "1"],
        capsys,
    )
    assert rc == 3
    assert "numerical error" in err


@pytest.mark.parametrize("argv, expected", [
    (["absorb", "--engine", "quantum", "--absorber", "-3", "--steps", "200",
      "--disorder", "tableII-binomial", "--realizations", "50", "--seed", "7"],
     ["1,,,0,50",
      "100,14.602458404291113,0.550678105723335,50,0",
      "200,22.490343810612185,1.0216254355922056,50,0"]),
    (["absorb", "--engine", "classical", "--absorber", "4", "--steps", "300",
      "--disorder", "tableII-hypergeometric", "--realizations", "40", "--seed", "2"],
     ["1,,,0,40",
      "4,3.5459770114942533,0.12181816594047844,29,11",
      "100,23.721832195840854,0.4576499652970642,40,0"]),
], ids=["quantum", "classical"])
def test_disordered_absorb_leaves_unreached_horizons_empty(argv, expected, capsys):
    # no realization reaches the absorber in step 1: that horizon's cells are
    # empty, and the reached horizons print what `--horizons` limited to them
    # printed when the command still exited 3
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0, err
    rows = {row[0]: ",".join(row) for row in parse_csv(out)[2]}
    for line in expected:
        assert rows[line.partition(",")[0]] == line


def test_exponent_walks_only_to_the_fit_range(capsys):
    # the fit reads t <= 80, so 10^7 steps run as 80 (and fit the budget)
    argv = ["exponent", "--engine", "quantum", "--seed", "1", "--steps"]
    rc, short, _ = run_cli(argv + ["80"], capsys)
    assert rc == 0
    rc, long, err = run_cli(argv + ["10000000"], capsys)
    assert rc == 0, err
    assert parse_csv(long)[2] == parse_csv(short)[2]


def test_reruns_are_byte_identical(capsys):
    argv = ["exponent", "--engine", "classical", "--steps", "40",
            "--disorder", "poisson:lambda=1", "--realizations", "10",
            "--t-range", "10:40", "--seed", "5"]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_env_seed_matches_flag(capsys, monkeypatch):
    argv = ["absorb", "--engine", "classical", "--absorber", "2", "--steps", "10",
            "--disorder", "poisson:lambda=1", "--realizations", "5",
            "--horizons", "10"]
    monkeypatch.setenv("WALKLAB_SEED", "7")
    rc1, out_env, _ = run_cli(argv, capsys)
    monkeypatch.delenv("WALKLAB_SEED")
    rc2, out_flag, _ = run_cli(argv + ["--seed", "7"], capsys)
    assert rc1 == rc2 == 0
    assert out_env == out_flag


def test_explicit_seed_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("WALKLAB_SEED", "99")
    rc, out, _ = run_cli(
        ["walk", "--engine", "classical", "--steps", "2", "--seed", "3"], capsys
    )
    assert rc == 0
    meta, _, _ = parse_csv(out)
    assert meta["seed"] == "3"


@pytest.mark.parametrize("argv, env", [
    (["walk", "--engine", "quantum", "--steps", "5",
      "--disorder", "poisson:lambda=1", "--seed", "-1"], None),
    (["sweep"], "-1"),
], ids=["walk-flag", "sweep-env"])
def test_negative_seed_with_disorder_exits_2(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("WALKLAB_SEED", env)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_invalid_env_seed_rejected(capsys, monkeypatch):
    monkeypatch.setenv("WALKLAB_SEED", "abc")
    rc, _, err = run_cli(
        ["walk", "--engine", "classical", "--steps", "2"], capsys
    )
    assert rc == 2
    assert "WALKLAB_SEED" in err


def test_workers_flag_does_not_change_output(capsys):
    argv = ["absorb", "--engine", "quantum", "--absorber", "2", "--steps", "20",
            "--disorder", "poisson:lambda=1", "--realizations", "6",
            "--horizons", "20", "--seed", "2"]
    rc1, out1, _ = run_cli(argv + ["--workers", "1"], capsys)
    rc2, out2, _ = run_cli(argv + ["--workers", "2"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    rc, out, _ = run_cli(
        ["walk", "--engine", "classical", "--steps", "2", "--seed", "1",
         "--output", str(target)],
        capsys,
    )
    assert rc == 0
    assert out == ""
    meta, header, rows = parse_csv(target.read_text())
    assert header == ["time", "position", "probability"]
    assert len(rows) == 3


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_output_exits_2(where, tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv" if where == "missing-dir" else tmp_path
    rc, out, err = run_cli(
        ["walk", "--engine", "classical", "--steps", "2", "--seed", "1",
         "--output", str(target)],
        capsys,
    )
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


def test_json_payload_shape(capsys):
    rc, out, _ = run_cli(
        ["absorb", "--engine", "quantum", "--absorber", "2", "--steps", "6",
         "--format", "json", "--seed", "1"],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["meta"]["tool"] == "walklab"
    assert {"t", "p_t", "cumulative", "avg_time"} == set(payload["record"][0])
    # unabsorbed first step reports no average time
    assert payload["record"][0]["avg_time"] is None


def test_parse_disorder_grammar():
    assert parse_disorder("tableII-binomial").family == "binomial"
    spec = parse_disorder("point_mass:length=2")
    assert spec.family == "point_mass"
    assert spec.params == (("length", 2),)
    with pytest.raises(ConfigurationError):
        parse_disorder("tableII-unknown")
    with pytest.raises(ConfigurationError):
        parse_disorder("poisson:lambda=1,bogus=2")
    # each key once, whatever its value
    for text in ("binomial:n=2,n=3,p=0.5", "binomial:n=2,p=0.5,n=2",
                 "poisson: lambda=1,lambda =1"):
        with pytest.raises(ConfigurationError, match="parameter '(n|lambda)' is given twice"):
            parse_disorder(text)
    # integer keys are read exactly, also past 2^53; 2.0 is still 2
    spec = parse_disorder("hypergeometric:N=9007199254740993,K=5,n=2")
    assert spec.params == (("N", 9007199254740993), ("K", 5), ("n", 2))
    assert spec.to_text() == "family=hypergeometric N=9007199254740993 K=5 n=2"
    assert parse_disorder("binomial:n=2.0,p=0.5").params == (("n", 2), ("p", 0.5))
    with pytest.raises(ConfigurationError, match="needs an integer n"):
        parse_disorder("binomial:n=2.5,p=0.5")
    with pytest.raises(ConfigurationError, match="non-numeric disorder parameter"):
        parse_disorder("poisson:lambda=abc")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["walk", "--engine", "classical", "--steps", "4", "--seed", "1"],
         "walk_classical_steps4.csv"),
        (["absorb", "--engine", "quantum", "--absorber", "2", "--steps", "6",
          "--format", "json", "--seed", "1"],
         "absorb_quantum_a2_s6.json"),
        (["series", "--m1", "1", "--T", "64", "--tail", "none", "--seed", "1"],
         "series_m1_T64_no_tail.csv"),
        (["absorb", "--engine", "classical", "--absorber", "2", "--steps", "10",
          "--disorder", "poisson:lambda=1", "--realizations", "5",
          "--horizons", "5,10", "--seed", "3"],
         "absorb_classical_poisson.csv"),
    ],
    ids=["walk-csv", "absorb-json", "series-csv", "absorb-disordered-csv"],
)
def test_golden_outputs(argv, golden, capsys):
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "walklab.cli", "walk", "--engine", "quantum",
         "--steps", "1", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "time,position,probability" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "walklab.cli", "absorb", "--engine", "quantum",
         "--absorber", "0", "--steps", "3", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "absorber position must be nonzero" in proc.stderr


@pytest.mark.parametrize("spec", [
    "point_mass:length=inf",
    "binomial:n=inf,p=0.5",
    "hypergeometric:N=inf,K=5,n=2",
    "poisson:lambda=inf",
    "negative_binomial:r=inf,k=0.5",
    "poisson:lambda=nan",
])
def test_non_finite_disorder_parameter_exits_2(spec):
    proc = walk_with_disorder(spec)
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr


@pytest.mark.parametrize("p, positions", [("0", {0}), ("1", {-6, -2, 2, 6})])
def test_degenerate_binomial_walks_without_warning(p, positions):
    # every step has length 0 (p = 0) or 2 (p = 1)
    proc = walk_with_disorder(f"binomial:n=2,p={p}")
    assert proc.returncode == 0
    assert proc.stderr == ""
    _, _, rows = parse_csv(proc.stdout)
    assert {int(row[1]) for row in rows} <= positions


def test_subnormal_disorder_parameter_walks_without_warning():
    # the term ratio (j + r)·k/(j + 1) underflows to 0 at k = 5e-324, the
    # logs of its factors do not; every step has length 0
    proc = walk_with_disorder("negative_binomial:r=0.5,k=5e-324")
    assert proc.returncode == 0
    assert proc.stderr == ""
    _, _, rows = parse_csv(proc.stdout)
    assert [row[:2] for row in rows] == [["3", "0"]]


def walk_with_disorder(spec):
    """A three-step quantum walk in a fresh interpreter, so that no warning
    filter of the test run hides what the CLI prints; it never leaks a
    traceback or a RuntimeWarning."""
    proc = subprocess.run(
        [sys.executable, "-m", "walklab.cli", "walk", "--engine", "quantum",
         "--steps", "3", "--disorder", spec, "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    return proc


def test_star_import_brings_in_no_module():
    names = {}
    exec("from walklab import *", names)
    del names["__builtins__"]
    assert names
    assert not [n for n, v in names.items() if inspect.ismodule(v)]


def test_cli_import_leaves_out_multiprocessing():
    # ensembles run as one batched walk in one process
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, walklab.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
# the thread count of numpy's bundled OpenBLAS, asked through ctypes; None
# when numpy bundles no such library
OPENBLAS_THREADS = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                              "numpy.libs", "libscipy_openblas64_*.so"))
if libs:
    get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
print(get_threads() if libs else None)
"""


def _import_cli(openblas_threads):
    """Import walklab.cli in a fresh interpreter whose OPENBLAS_NUM_THREADS
    is `openblas_threads` (None: not set); return the scipy modules it
    loaded and the thread count its OpenBLAS reports, as printed."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, walklab.cli\nprint({SCIPY_MODULES})\n{OPENBLAS_THREADS}"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_leaves_out_scipy_stats():
    # importing scipy (any of it: scipy.special pulls in numpy.testing and
    # more) costs most of the CLI's start-up time, so scipy is imported only
    # inside the functions that call it
    scipy_modules, threads = _import_cli(None)
    assert scipy_modules == "[]"
    # nor does it start a BLAS worker: on 2 cores an idle OpenBLAS worker
    # spun for about 0.125 CPU-s after import, a third of a short command
    if threads == "None":
        pytest.skip("numpy bundles no scipy-openblas library to ask")
    assert threads == "1"


def test_exported_openblas_threads_win():
    # walklab only sets a default; OpenBLAS caps the count at the CPUs it has
    _, threads = _import_cli("2")
    if threads == "None":
        pytest.skip("numpy bundles no scipy-openblas library to ask")
    assert threads == str(min(2, len(os.sched_getaffinity(0))))


@pytest.mark.parametrize("argv", [
    ["series", "--m1-range", "1..3", "--T", "256"],
    ["absorb", "--engine", "quantum", "--steps", "50", "--absorber", "2"],
    ["absorb", "--engine", "classical", "--steps", "50", "--absorber", "-3"],
    ["walk", "--engine", "quantum", "--steps", "20", "--absorber", "2",
     "--snapshot", "5", "--snapshot", "20"],
    ["walk", "--engine", "classical", "--steps", "20"],
    ["series", "--raabe", "quantum", "--n-max", "1000"],
    ["series", "--raabe", "classical", "--n-max", "1000"],
], ids=["series", "absorb-quantum", "absorb-classical", "walk-quantum",
        "walk-classical", "raabe-quantum", "raabe-classical"])
def test_commands_without_disorder_or_fits_run_without_scipy(argv):
    # the closed-form series step exact term ratios
    _assert_runs_without_scipy(argv)


@pytest.mark.parametrize("argv", [
    ["walk", "--engine", "quantum", "--steps", "30", "--absorber", "-2",
     "--disorder", "poisson:lambda=1"],
    ["absorb", "--engine", "classical", "--steps", "30", "--absorber", "2",
     "--disorder", "binomial:n=3,p=0.3", "--horizons", "10,30"],
    ["walk", "--engine", "classical", "--steps", "30", "--absorber", "3",
     "--disorder", "hypergeometric:N=10,K=5,n=2"],
    ["absorb", "--engine", "quantum", "--steps", "30", "--absorber", "-3",
     "--disorder", "negative_binomial:r=2.5,k=0.3", "--horizons", "30"],
    ["walk", "--engine", "quantum", "--steps", "30", "--absorber", "4",
     "--disorder", "geometric:k=0.5"],
    ["absorb", "--engine", "classical", "--steps", "30", "--absorber", "-2",
     "--disorder", "geometric_shifted:k=0.5"],
    ["walk", "--engine", "classical", "--steps", "30",
     "--disorder", "point_mass:length=2"],
], ids=["walk-poisson", "absorb-binomial", "walk-hypergeometric",
        "absorb-negative-binomial", "walk-geometric", "absorb-geometric-shifted",
        "walk-point-mass"])
def test_disordered_walk_and_absorb_run_without_scipy(argv):
    # pmf tables take log-gamma from math.lgamma
    _assert_runs_without_scipy(argv)


@pytest.mark.parametrize("argv", [
    ["sweep", "--presets", "tableII-binomial", "--realizations", "5",
     "--steps", "30", "--t-range", "10:30"],
    ["exponent", "--engine", "quantum", "--steps", "30", "--t-range", "10:30"],
    ["exponent", "--engine", "classical", "--steps", "30", "--t-range", "10:30",
     "--disorder", "poisson:lambda=1", "--realizations", "5"],
], ids=["sweep", "exponent-quantum", "exponent-classical"])
def test_fits_run_without_scipy(argv):
    # the fit's t quantile comes from finite sums
    _assert_runs_without_scipy(argv)


def _assert_runs_without_scipy(argv):
    code = (f"import sys; from walklab.cli import main; rc = main({argv!r}); "
            f"print(rc, {SCIPY_MODULES}, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == "0 []"


def test_benchmark_tracer_targets_exist():
    """perfbench/tracing.py wraps these names from outside the program and
    records a missing one instead of failing, so a renamed or deleted target
    would leave a traced benchmark run silently incomplete."""
    source = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    (targets,) = [
        ast.literal_eval(node.value) for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
    assert callable(getattr(PowerSeries, "__mul__", None))
