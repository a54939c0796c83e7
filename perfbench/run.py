"""Time fixed walklab CLI invocations end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a walklab checkout; the CLI is started from its
`src/` tree. Each invocation is a separate process, started one at a time
and timed from just before it is started until it has been reaped:

    wall_s       process start to exit, including interpreter start-up
    setup_s      process start until `import walklab.cli` returns
    cpu_s        user + system CPU of the CLI and every process it waited for
    peak_rss_mb  largest resident set of the CLI or any of its workers

Whole invocations are repeated until S seconds have passed, and each
metric is the median over them. The first output is checked (see
workloads.py), and every later one must be byte-identical to it. A workload
with a --workers 1 form runs that once afterwards, outside the timed
region, and it too must match.

With --trace 1 the same timed loop gives the untraced wall time; then one
more invocation runs with every layer wrapped (tracing.py), and the result
holds the per-layer metrics and the tracing overhead. The --workers 1 pass
is traced as well and supplies the layers that otherwise run inside pool
workers. A wrapped function that no longer exists makes the traced run
incorrect, so a renamed layer cannot pass for one that costs nothing.

The last line of stdout is the JSON result; samples and traces go to
.perfbench-out/. If no invocation exits 0, the result has correct = false
and no metrics, and run.py exits 1. --seconds defaults to BENCHMARK.json's
run_seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench-out"
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
E2E_METRICS = [m["name"] for m in _DECLARED["end_to_end"]]
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
# layers whose calls run inside pool workers when --workers > 1
WORKER_LAYERS = ("disorder.", "engine.", "classical.", "lattice.")


@dataclass
class Invocation:
    code: int
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WALKLAB_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["TMPDIR"] = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    return env


def invoke(cli_args: list[str], tag: str, trace: bool = False) -> tuple[Invocation, str]:
    """Run one CLI process to its end; return its timings and its stdout."""
    base = os.path.join(OUT_DIR, tag)
    argv = [sys.executable, os.path.join(HERE, "launch.py"), base + ".stamp",
            base + ".trace.json" if trace else "-", *cli_args]
    with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
        started = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(base + ".stamp") as fh:
            setup_ns = int(fh.read()) - started
        os.remove(base + ".stamp")
    except (OSError, ValueError):
        setup_ns = ended - started
    with open(base + ".out") as fh:
        text = fh.read()
    return Invocation(
        code=proc.returncode,
        wall_s=(ended - started) / 1e9,
        setup_s=setup_ns / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    ), text


def scipy_stats_import_s() -> float:
    """Cumulative `scipy.stats` import time under -X importtime (0 if absent)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import walklab.cli"],
                          capture_output=True, text=True, env=_child_env(), check=True)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.stats":
            return int(fields[1]) / 1e6
    return 0.0


def _check(workload, text: str, seed: int) -> list[str]:
    try:
        return workload.check(text, seed)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    cli_args = workload.cli_args(seed)
    tag = workload_name  # invocation files are overwritten by the next run
    samples, outputs = [], []
    deadline = time.monotonic() + seconds
    while True:
        sample, text = invoke(cli_args, tag)
        samples.append(sample)
        outputs.append(text)
        if time.monotonic() >= deadline:
            break
    timed = [s for s in samples if s.code == 0]
    if not timed:  # nothing to check or time; failed samples give no medians
        return _report(workload_name, seed, trace, cli_args, samples,
                       ["no invocation exited 0"], {})

    # every other invocation must reproduce the first successful output
    reference = next(t for s, t in zip(samples, outputs) if s.code == 0)
    extra = {}
    if trace:
        extra["traced"] = invoke(cli_args, tag + "-traced", trace=True)
    if workload.serial_args is not None:
        extra["serial"] = invoke(workload.serial_args(seed), tag + "-serial", trace=trace)
    for sample, text in extra.values():
        samples.append(sample)
        outputs.append(text)

    problems = _check(workload, reference, seed)
    if any(s.code == 0 and t != reference for s, t in zip(samples, outputs)):
        problems.append("an invocation's output differs from the first one "
                        "(timed, traced and --workers 1 outputs must all match)")

    if trace:
        failed = [f"{kind} invocation exited {s.code}" for kind, (s, _) in extra.items() if s.code]
        if failed:
            return _report(workload_name, seed, trace, cli_args, samples, problems + failed, {})
        metrics, missing = _layer_metrics(tag, workload.serial_args is not None)
        if missing:  # a vanished layer must not read as a zero-cost one
            problems.append("trace targets not found: " + ", ".join(missing))
        untraced = statistics.median(s.wall_s for s in timed)
        traced = extra["traced"][0].wall_s
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["import.scipy_stats_s"] = scipy_stats_import_s()
    else:
        metrics = {k: statistics.median(getattr(s, k) for s in timed) for k in E2E_METRICS}
    return _report(workload_name, seed, trace, cli_args, samples, problems, metrics)


def _report(workload_name: str, seed: int, trace: bool, cli_args: list[str],
            samples: list[Invocation], problems: list[str], metrics: dict) -> dict:
    """The result line; the full record, with every sample, goes to OUT_DIR."""
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": sum(s.code != 0 for s in samples),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    path = os.path.join(OUT_DIR, f"result-{workload_name}-{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({**result, "workload": workload_name, "seed": seed,
                   "cli_args": cli_args, "problems": problems,
                   "samples": [asdict(s) for s in samples]}, fh, indent=1)
    return result


def _layer_metrics(tag: str, has_serial: bool) -> tuple[dict, list[str]]:
    """Layer metrics of the traced invocation, and the wrap targets it lacked."""
    def load(suffix):
        with open(os.path.join(OUT_DIR, f"{tag}-{suffix}.trace.json")) as fh:
            trace = json.load(fh)
        return layer_metrics(trace), trace["missing"]

    metrics, missing = load("traced")
    if has_serial:
        serial, serial_missing = load("serial")
        metrics.update({k: v for k, v in serial.items() if k.startswith(WORKER_LAYERS)})
        missing = sorted(set(missing) | set(serial_missing))
    return metrics, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "walklab", "cli.py")):
        print("perfbench: src/walklab/cli.py not found; run from the root of a "
              "walklab checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
