"""Each workload check accepts a real CLI output and rejects it with one value altered.

    python3 -m pytest perfbench/test_checks.py

Runs every workload's CLI command once (about half a minute), from the
root of the checkout.
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, WALK_ABSORBER, WALK_SNAPSHOTS, parse_csv  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def outputs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("WALKLAB_SEED", None)
    env.pop("WALKLAB_WORKERS", None)
    return {
        name: subprocess.run([sys.executable, "-m", "walklab.cli", *w.cli_args(SEED)],
                             capture_output=True, text=True, env=env, cwd=ROOT,
                             check=True).stdout
        for name, w in WORKLOADS.items()
    }


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def alter(text: str, index: int, column: str, new) -> str:
    """Replace one cell of data row `index`; `new` maps the old cell text."""
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    names = lines[header].rstrip("\n").split(",")
    cells = lines[header + 1 + index].rstrip("\n").split(",")
    col = names.index(column)
    cells[col] = str(new(cells[col]))
    lines[header + 1 + index] = ",".join(cells) + "\n"
    return "".join(lines)


def scale(factor):
    return lambda cell: repr(float(cell) * factor)


def shift(delta):
    return lambda cell: repr(float(cell) + delta)


def const(value):
    return lambda cell: value


def walk_row(text: str, time: int, k: int) -> int:
    _, rows = parse_csv(text)
    return [i for i, r in enumerate(rows) if int(r["time"]) == time][k]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes(outputs, name):
    assert WORKLOADS[name].check(outputs[name], SEED) == []


ALTERATIONS = {
    "series-table": [
        (0, "total_absorption", shift(1e-6)),      # P(1) = 2/pi
        (0, "avg_time", shift(-1e-6)),             # t_a(1) = pi/2
        (1, "total_absorption", shift(1e-6)),      # P(2) = 4/pi - 1
        (4, "total_absorption", const("1.5")),     # outside (0, 1)
        (6, "total_absorption", const("0.999")),   # no longer decreasing
        (9, "avg_time", const("2.0")),             # no longer increasing
    ],
    "sweep-table": [
        (0, "mean", const("1.1")),
        (1, "variance", scale(1.01)),
        (2, "classification", const("sub_poissonian")),
        (3, "family", const("geometric")),
        (0, "restoration_gap", shift(1e-6)),
        (1, "alpha_no_absorber", const("2.0")),    # gap and restoration both break
        (3, "alpha_with_absorber", shift(-1.0)),
    ],
    "absorb-long-classical": [
        (99, "p_t", scale(1 + 1e-9)),
        (19_999, "p_t", scale(1 + 1e-6)),
        (500, "cumulative", shift(1e-9)),
        (1000, "avg_time", scale(1 + 1e-6)),
        (0, "avg_time", const("1.0")),             # nothing absorbed at t = 1
        (4, "avg_time", const("")),
    ],
}


@pytest.mark.parametrize(
    "name,index,column,new",
    [(name, *alt) for name, alts in ALTERATIONS.items() for alt in alts])
def test_altered_output_fails(outputs, name, index, column, new):
    altered = alter(outputs[name], index, column, new)
    assert altered != outputs[name]
    assert WORKLOADS[name].check(altered, SEED) != []


@pytest.mark.parametrize("time,k,column,new", [
    (WALK_SNAPSHOTS[0], 10, "probability", scale(1 + 1e-6)),   # oracle mismatch
    (WALK_SNAPSHOTS[-1], 5, "probability", const("-1e-30")),   # negative
    (WALK_SNAPSHOTS[-1], 5, "position", const(str(WALK_ABSORBER))),  # at the absorber
    (WALK_SNAPSHOTS[1], 20, "probability", shift(0.3)),        # mass rises
])
def test_altered_walk_fails(outputs, time, k, column, new):
    text = outputs["walk-snapshots"]
    altered = alter(text, walk_row(text, time, k), column, new)
    assert altered != text
    assert WORKLOADS["walk-snapshots"].check(altered, SEED) != []


def test_layer_metrics_self_time_and_names():
    # cli.command [0, 100) holds engine.snapshot [10, 60), which holds two steps
    trace = {"import_ns": 5, "gf_distinct": 0, "counters": {"engine.snapshot_max_time": 2},
             "spans": [["cli.command", 0, 100, -1, True],
                       ["engine.snapshot", 10, 60, 0, True],
                       ["engine.step", 20, 30, 1, True],
                       ["engine.step", 40, 45, 1, True]]}
    m = layer_metrics(trace)
    assert m["cli.command_s"] == 100e-9 and m["cli.command_self_s"] == 50e-9
    assert m["engine.snapshot_self_s"] == 35e-9 and m["engine.step_s"] == 15e-9
    assert m["engine.step_calls"] == 2 and m["engine.snapshot_useful_ratio"] == 1.0
    # run.py adds the overhead figures and the -X importtime reading
    added = {"trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
             "import.scipy_stats_s"}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(m) | added == declared


def fake_checkout(root, main_body: str) -> None:
    """A checkout whose walklab.cli is only a main() with the given body."""
    package = root / "src" / "walklab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"def main(argv=None):\n    {main_body}\n")


def run_bench(root, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "series-table",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root)
    with open(root / ".perfbench-out" / f"result-series-table-1-trace{trace}.json") as fh:
        return proc, json.load(fh)


def test_no_successful_invocation_is_incorrect(tmp_path):
    fake_checkout(tmp_path, "return 1")
    proc, record = run_bench(tmp_path, trace=0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1
    assert record["problems"] == ["no invocation exited 0"]


def test_missing_trace_target_is_incorrect(tmp_path):
    fake_checkout(tmp_path, "print('# nothing here'); return 0")
    proc, record = run_bench(tmp_path, trace=1)
    assert proc.returncode == 0 and record["correct"] is False
    missing = [p for p in record["problems"] if p.startswith("trace targets not found")]
    assert missing and "walklab.engine.step" in missing[0]
