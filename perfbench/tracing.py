"""Spans and counters for one traced walklab CLI process, and their summary.

Child side: install() wraps the public functions of each walklab layer
from outside the program. Each wrapper goes on the module attribute and on
every copy of it that another walklab module imported, and records a span
(name, start, end, parent) plus the counts its layer metrics need. Spans
are kept in memory and written once, by Recorder.dump().

Parent side: layer_metrics() turns a written trace into the per-layer
metrics, with each span name's total and self time. Calls made inside pool
workers run in other processes and leave no spans here.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); lattice.moments covers both functions
TARGETS = (
    ("walklab.cli", "build_parser", "cli.parse"),
    ("walklab.cli", "cmd_walk", "cli.command"),
    ("walklab.cli", "cmd_absorb", "cli.command"),
    ("walklab.cli", "cmd_series", "cli.command"),
    ("walklab.cli", "cmd_exponent", "cli.command"),
    ("walklab.cli", "cmd_sweep", "cli.command"),
    ("walklab.cli", "_render", "cli.render"),
    ("walklab.disorder", "sample_realization", "disorder.sample"),
    ("walklab.engine", "step", "engine.step"),
    ("walklab.engine", "apply_absorber", "engine.absorber"),
    ("walklab.engine", "snapshot_distribution", "engine.snapshot"),
    ("walklab.classical", "crw_step", "classical.step"),
    ("walklab.classical", "crw_apply_absorber", "classical.absorber"),
    ("walklab.lattice", "probability_distribution", "lattice.moments"),
    ("walklab.lattice", "std_dev", "lattice.moments"),
    ("walklab.series", "generating_function", "series.gf"),
    ("walklab.ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("walklab.ensemble", "fit_exponent", "ensemble.fit"),
    ("walklab.ensemble", "finite_horizon_avg_time", "ensemble.avg_time"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS)) + ("series.product",)


class Recorder:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, outermost of its name]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.gf_keys: set = set()
        self.missing: list[str] = []

    def wrap(self, name, fn, count=None):
        spans, stack, depth = self.spans, self.stack, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, depth[name] == 0])
            stack.append(index)
            depth[name] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                depth[name] -= 1
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str, import_ns: int) -> None:
        with open(path, "w") as fh:
            json.dump({"import_ns": import_ns, "spans": self.spans,
                       "counters": dict(self.counters),
                       "gf_distinct": len(self.gf_keys),
                       "missing": self.missing}, fh)


def _count_parser(rec, args, kwargs, parser):
    parser.parse_args = rec.wrap("cli.parse", parser.parse_args)


def _count_render(rec, args, kwargs, text):
    rec.counters["cli.rows"] += len(args[3] if len(args) > 3 else kwargs["rows"])
    rec.counters["cli.output_bytes"] += len(text.encode())


def _count_quantum_step(rec, args, kwargs, state):
    import numpy as np
    c = rec.counters
    width = state.psi.shape[1]
    c["engine.site_updates"] += width
    c["engine.bytes_computed"] += args[0].psi.nbytes + state.psi.nbytes
    c["engine.live_sites"] += int(np.count_nonzero(np.any(state.psi != 0, axis=0)))
    c["engine.peak_width"] = max(c["engine.peak_width"], width)


def _count_classical_step(rec, args, kwargs, state):
    import numpy as np
    c = rec.counters
    width = state.prob.shape[0]
    c["classical.site_updates"] += width
    c["classical.bytes_computed"] += args[0].prob.nbytes + state.prob.nbytes
    c["classical.live_sites"] += int(np.count_nonzero(state.prob))
    c["classical.peak_width"] = max(c["classical.peak_width"], width)


def _count_snapshot(rec, args, kwargs, dist):
    rec.counters["engine.snapshot_max_time"] = max(
        rec.counters["engine.snapshot_max_time"], dist.time)


def _count_ensemble(rec, args, kwargs, result):
    rec.counters["ensemble.realizations"] += (args[0] if args else kwargs["config"]).realizations


def _counter_for_gf(fn):
    signature = inspect.signature(fn)

    def count(rec, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        rec.gf_keys.add((a["m1"], a["initial"], a["order"]))
    return count


def _count_product(rec, args, kwargs, result):
    n = result.coeffs.size  # a series product convolves two length-n operands
    rec.counters["series.product_madds"] += n * n if hasattr(args[1], "coeffs") else n


COUNTERS = {
    "build_parser": _count_parser,
    "_render": _count_render,
    "step": _count_quantum_step,
    "crw_step": _count_classical_step,
    "snapshot_distribution": _count_snapshot,
    "run_ensemble": _count_ensemble,
}


def _replace_everywhere(original, wrapper) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "walklab" or mod_name.startswith("walklab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def install() -> Recorder:
    """Wrap every target that exists; a missing one is listed, not fatal."""
    rec = Recorder()
    for mod_name, attr, span in TARGETS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            rec.missing.append(f"{mod_name}.{attr}")
            continue
        count = _counter_for_gf(original) if attr == "generating_function" else COUNTERS.get(attr)
        _replace_everywhere(original, rec.wrap(span, original, count))
    power_series = getattr(sys.modules.get("walklab.series"), "PowerSeries", None)
    if power_series is None:
        rec.missing.append("walklab.series.PowerSeries.__mul__")
    else:
        original = power_series.__mul__
        wrapper = rec.wrap("series.product", original, _count_product)
        for attr in ("__mul__", "__rmul__"):
            if getattr(power_series, attr) is original:
                setattr(power_series, attr, wrapper)
    return rec


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from one written trace, keyed by metric name."""
    spans = trace["spans"]
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    under_snapshot = [False] * len(spans)
    snapshot_steps = 0
    for i, (name, start, end, parent, outermost) in enumerate(spans):
        calls[name] += 1
        if outermost:
            total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        under_snapshot[i] = name == "engine.snapshot" or (parent >= 0 and under_snapshot[parent])
        if name == "engine.step" and under_snapshot[i]:
            snapshot_steps += 1

    c = defaultdict(float, trace["counters"])
    out = {"import.walklab_cli_s": trace["import_ns"] / 1e9}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = total_ns[name] / 1e9
        out[f"{name}_self_s"] = self_ns[name] / 1e9
    out.update({
        "cli.rows": c["cli.rows"],
        "cli.output_bytes": c["cli.output_bytes"],
        "disorder.sample_calls": calls["disorder.sample"],
        "engine.step_calls": calls["engine.step"],
        "engine.site_updates": c["engine.site_updates"],
        "engine.bytes_computed": c["engine.bytes_computed"],
        "engine.peak_width": c["engine.peak_width"],
        "engine.live_site_ratio": _ratio(c["engine.live_sites"], c["engine.site_updates"]),
        "engine.snapshot_useful_ratio": _ratio(c["engine.snapshot_max_time"], snapshot_steps),
        "classical.step_calls": calls["classical.step"],
        "classical.site_updates": c["classical.site_updates"],
        "classical.bytes_computed": c["classical.bytes_computed"],
        "classical.peak_width": c["classical.peak_width"],
        "classical.live_site_ratio": _ratio(c["classical.live_sites"], c["classical.site_updates"]),
        "lattice.moments_calls": calls["lattice.moments"],
        "series.product_calls": calls["series.product"],
        "series.product_madds": c["series.product_madds"],
        "series.gf_calls": calls["series.gf"],
        "series.gf_useful_ratio": _ratio(trace["gf_distinct"], calls["series.gf"]),
        "ensemble.realizations": c["ensemble.realizations"],
        "ensemble.avg_time_calls": calls["ensemble.avg_time"],
        "trace.spans": len(spans),
    })
    return out
