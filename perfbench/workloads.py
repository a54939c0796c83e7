"""The benchmark's workloads: fixed walklab CLI invocations and their checks.

Each check reads the CLI's CSV output and returns a list of problems (empty
when the output is right). No check compares against a stored copy of an
earlier output: every expected value is either computed here, apart from
the program, or is a property the method must have for any seed.
"""
from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

SERIES_ABS_TOL = 1e-7          # today's series anchors agree within 2e-9
FIRST_PASSAGE_ABS_TOL = 1e-14  # today's largest |p_t - closed form| is 2e-16
RUNNING_SUM_ABS_TOL = 1e-12
AVG_TIME_REL_TOL = 1e-9
ORACLE_ABS_TOL = 1e-13
MASS_TOL = 1e-12

ABSORB_STEPS = 20_000
ABSORB_AT = 2
WALK_STEPS = 8_000
WALK_ABSORBER = -64
WALK_SNAPSHOTS = tuple(WALK_STEPS * k // 5 for k in range(1, 6))

# preset -> (family, mean, variance): closed forms of binomial(2, 1/2),
# hypergeometric(N=10, K=5, n=2), negative_binomial(r=1, k=1/2) and the
# support-from-0 geometric(k=1/2), all unit-mean rows of Table II.
SWEEP_PRESETS = {
    "tableII-binomial": ("binomial", 2 * 0.5, 2 * 0.5 * 0.5),
    "tableII-hypergeometric": (
        "hypergeometric", 2 * 5 / 10, 2 * (5 / 10) * (1 - 5 / 10) * (10 - 2) / (10 - 1)),
    "tableII-negbinomial": ("negative_binomial", 0.5 / 0.5, 0.5 / 0.5 ** 2),
    "tableII-geometric": ("geometric_shifted", 0.5 / 0.5, 0.5 / 0.5 ** 2),
}


def cli_seed(seed: int) -> int:
    """The CLI's --seed for a benchmark seed (the CLI needs one >= 0)."""
    return seed % 2 ** 31


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """Split the CLI's CSV into its `# key=value` meta and its row dicts."""
    lines = text.splitlines()
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    if not lines:
        return meta, []
    header = lines[0].split(",")
    return meta, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _float(cell: str) -> Optional[float]:
    return None if cell == "" else float(cell)


def check_series(text: str, seed: int) -> list[str]:
    _, rows = parse_csv(text)
    if [int(r["m1"]) for r in rows] != list(range(1, 11)):
        return ["series table does not have rows m1 = 1..10"]
    total = [float(r["total_absorption"]) for r in rows]
    avg = [float(r["avg_time"]) for r in rows]
    problems = []
    for label, got, want in (
        ("P(1) = 2/pi", total[0], 2 / math.pi),
        ("t_a(1) = pi/2", avg[0], math.pi / 2),
        ("P(2) = 4/pi - 1", total[1], 4 / math.pi - 1),
    ):
        if not abs(got - want) <= SERIES_ABS_TOL:
            problems.append(f"{label}: got {got!r}, want {want!r}")
    if not all(0.0 < p < 1.0 for p in total):
        problems.append("a total absorption lies outside (0, 1)")
    if not all(a > b for a, b in zip(total, total[1:])):
        problems.append("total absorption does not strictly decrease with m1")
    if not all(a < b for a, b in zip(avg, avg[1:])):
        problems.append("avg_time does not strictly increase with m1")
    return problems


def check_sweep(text: str, seed: int) -> list[str]:
    _, rows = parse_csv(text)
    if [r["preset"] for r in rows] != list(SWEEP_PRESETS):
        return [f"sweep rows are not the presets {list(SWEEP_PRESETS)}"]
    problems = []
    for row in rows:
        name = row["preset"]
        family, mean, var = SWEEP_PRESETS[name]
        if row["family"] != family:
            problems.append(f"{name}: family {row['family']!r}, want {family!r}")
        for col, want in (("mean", mean), ("variance", var)):
            if not math.isclose(float(row[col]), want, rel_tol=1e-12):
                problems.append(f"{name}: {col} {row[col]}, want {want!r}")
        if math.isclose(var, mean, rel_tol=1e-9):
            kind = "poissonian"
        else:
            kind = "sub_poissonian" if var < mean else "super_poissonian"
        if row["classification"] != kind:
            problems.append(f"{name}: classification {row['classification']!r}, want {kind!r}")
        with_a = float(row["alpha_with_absorber"])
        without = float(row["alpha_no_absorber"])
        gap = float(row["restoration_gap"])
        if not abs(gap - (with_a - without)) <= 1e-12:
            problems.append(f"{name}: restoration_gap {gap!r} != {with_a!r} - {without!r}")
        if not with_a > without:
            problems.append(f"{name}: the absorber does not raise alpha ({with_a!r} <= {without!r})")
    return problems


def first_passage(t: int, m: int) -> float:
    """m/t * C(t, (t+m)/2) / 2^t: first passage of a fair unit walk to m."""
    if t < m or (t - m) % 2:
        return 0.0
    log_p = (math.log(m / t) - t * math.log(2.0) + math.lgamma(t + 1)
             - math.lgamma((t + m) // 2 + 1) - math.lgamma((t - m) // 2 + 1))
    return math.exp(log_p)


def check_absorb(text: str, seed: int) -> list[str]:
    _, rows = parse_csv(text)
    if [int(r["t"]) for r in rows] != list(range(1, ABSORB_STEPS + 1)):
        return [f"absorb record does not have rows t = 1..{ABSORB_STEPS}"]
    problems = []
    running = weighted = 0.0
    for r in rows:
        t, p = int(r["t"]), float(r["p_t"])
        want = first_passage(t, ABSORB_AT)
        if not abs(p - want) <= FIRST_PASSAGE_ABS_TOL:
            problems.append(f"t={t}: p_t {p!r}, closed form {want!r}")
        running += p
        weighted += t * p
        if not abs(float(r["cumulative"]) - running) <= RUNNING_SUM_ABS_TOL:
            problems.append(f"t={t}: cumulative {r['cumulative']} != running sum {running!r}")
        avg = _float(r["avg_time"])
        if running == 0.0:
            if avg is not None:
                problems.append(f"t={t}: avg_time {avg!r} before any absorption")
        elif avg is None or not math.isclose(avg, weighted / running, rel_tol=AVG_TIME_REL_TOL):
            problems.append(f"t={t}: avg_time {avg!r}, want {weighted / running!r}")
        if len(problems) >= 5:
            break
    return problems


def _load_oracles():
    path = os.path.join("tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("walklab_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def walk_lengths(seed: int):
    """The step lengths `walklab walk --disorder poisson:lambda=1` draws."""
    src = os.path.abspath("src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from walklab.disorder import child_seed, poisson, sample_realization
    return sample_realization(
        poisson(1.0), WALK_STEPS, child_seed(cli_seed(seed), 0)).lengths


def check_walk(text: str, seed: int) -> list[str]:
    _, rows = parse_csv(text)
    by_time = {t: {} for t in WALK_SNAPSHOTS}
    problems = []
    for r in rows:
        t, pos, prob = int(r["time"]), int(r["position"]), float(r["probability"])
        if t not in by_time:
            return [f"row at t={t}, which is not a snapshot time"]
        if not prob >= 0.0:
            problems.append(f"t={t}, site {pos}: negative probability {prob!r}")
        if pos <= WALK_ABSORBER and prob != 0.0:
            problems.append(f"t={t}: site {pos} at or beyond the absorber holds {prob!r}")
        by_time[t][pos] = prob
    masses = [math.fsum(by_time[t].values()) for t in WALK_SNAPSHOTS]
    if not masses[0] <= 1.0 + MASS_TOL:
        problems.append(f"surviving mass {masses[0]!r} exceeds 1")
    for t, before, after in zip(WALK_SNAPSHOTS[1:], masses, masses[1:]):
        if not after <= before + MASS_TOL:
            problems.append(f"surviving mass rises to {after!r} at t={t} from {before!r}")

    oracles = _load_oracles()
    h = 1 / math.sqrt(2.0)
    first = WALK_SNAPSHOTS[0]
    psi, _ = oracles.dict_quantum_walk(
        first, ((h, h), (h, -h)), absorber=WALK_ABSORBER,
        lengths=walk_lengths(seed)[:first])
    want = {pos: abs(l) ** 2 + abs(r) ** 2 for pos, (l, r) in psi.items()}
    got = by_time[first]
    worst = max(abs(got.get(pos, 0.0) - want.get(pos, 0.0))
                for pos in set(got) | set(want))
    if not worst <= ORACLE_ABS_TOL:
        problems.append(f"t={first}: differs from the dict-walk oracle by {worst!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: Callable[[int], list[str]]
    check: Callable[[str, int], list[str]]
    # a --workers 1 form of the same command, run outside the timed region;
    # its output must match byte for byte
    serial_args: Optional[Callable[[int], list[str]]] = None


def _seeded(*args: str) -> Callable[[int], list[str]]:
    return lambda seed: [*args, "--seed", str(cli_seed(seed))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series-table", _seeded("series"), check_series),
        Workload("sweep-table", _seeded("sweep", "--workers", "2"), check_sweep,
                 serial_args=_seeded("sweep", "--workers", "1")),
        Workload("absorb-long-classical",
                 _seeded("absorb", "--engine", "classical", "--absorber",
                         str(ABSORB_AT), "--steps", str(ABSORB_STEPS)),
                 check_absorb),
        Workload("walk-snapshots",
                 _seeded("walk", "--engine", "quantum", "--steps", str(WALK_STEPS),
                         "--absorber", str(WALK_ABSORBER),
                         "--disorder", "poisson:lambda=1",
                         *(a for t in WALK_SNAPSHOTS for a in ("--snapshot", str(t)))),
                 check_walk),
    )
}
