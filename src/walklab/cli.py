"""Command-line front end.

Subcommands: walk (position distributions), absorb (absorption records and
averaged absorbing times), series (absorption analytics and convergence
diagnostics), exponent (spreading-exponent fits), sweep (preset disorder
comparison table).

Every command accepts --seed/--format/--output; identical invocations
produce byte-identical output. The environment variable WALKLAB_SEED
overrides the built-in seed; an explicit flag overrides both. --workers
is accepted and checked to be >= 1, and changes nothing: walklab runs in
one process. Exit codes: 0 success, 2 invalid configuration, 3 numerical
failure.

Disorder specs on the command line are either a preset name
(tableII-binomial, tableII-hypergeometric, tableII-negbinomial,
tableII-geometric) or family:key=value[,key=value...], e.g.
poisson:lambda=1 or binomial:n=2,p=0.5.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .classical import classical_avg_time_ratio
from .disorder import TABLE2_PRESETS, DisorderSpec, child_seed, parse_disorder, sample_realization
from .engine import (
    MAX_ARRAY_BYTES,
    AbsorberConfig,
    WalkConfig,
    coin_by_name,
    iterate_walk,
    snapshot_distributions,
)
from .ensemble import (
    EnsembleConfig,
    _horizon_ratios,
    check_fit_range,
    disorder_avg_absorb_time,
    disorder_avg_sigma,
    fit_exponent,
)
from .errors import ConfigurationError, NumericalError
from .series import (
    DEFAULT_ORDER,
    absorption_summaries,
    quantum_avg_time_ratio,
    raabe_estimate,
)


def _ints(text: str, sep: str, flag: str, pair: bool = False) -> list[int]:
    """The integer grammar of every flag: `text` split on `sep`, each item
    an integer; a pair (LO:HI, A..B) has exactly two."""
    items = text.split(sep)
    if not pair or len(items) == 2:
        try:
            return [int(item) for item in items]
        except ValueError:
            pass
    shape = f"LO{sep}HI, two integers" if pair else f"integers separated by {sep!r}"
    raise ConfigurationError(f"{flag} must be {shape}, got {text!r}")


def _value(value):
    """The one cell rule: None and NaN are missing (empty in CSV, null in JSON);
    a numpy float64 prints as its Python float (numpy 2's repr: np.float64(x))."""
    if isinstance(value, float):  # np.float64 included
        return None if math.isnan(value) else float(value)
    return value


def _render(args, meta: dict, columns: list[str], rows: list[tuple],
            json_key: str = "rows") -> str:
    meta = {"tool": "walklab", "version": __version__, **meta}
    if args.format == "csv":
        lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
        lines.append(",".join(columns))
        for row in rows:
            cells = ("" if v is None else str(v) for v in map(_value, row))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    payload = {
        "meta": {k: _value(v) for k, v in meta.items()},
        json_key: [dict(zip(columns, map(_value, row))) for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(args, text: str) -> None:
    if args.output and args.output != "-":
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _walk_config(args, absorber: Optional[AbsorberConfig],
                 step_lengths=None) -> WalkConfig:
    """The walk that --engine/--coin/--initial/--steps describe."""
    amp_l, amp_r = (1.0, 0.0) if args.initial == "L" else (0.0, 1.0)
    return WalkConfig(
        steps=args.steps,
        engine=args.engine,
        coin=coin_by_name(args.coin),
        initial_amp_left=amp_l,
        initial_amp_right=amp_r,
        absorber=absorber,
        step_lengths=step_lengths,
    )


def _walk_meta(args, spec: Optional[DisorderSpec]) -> dict:
    """The meta keys every walk command shares."""
    quantum = args.engine == "quantum"
    return {
        "command": args.command,
        "engine": args.engine,
        "coin": args.coin if quantum else "n/a",
        "initial": args.initial if quantum else "n/a",
        "steps": args.steps,
        "absorber": args.absorber if args.absorber is not None else "none",
        "disorder": spec.to_text() if spec is not None else "none",
        "seed": args.seed,
    }


def cmd_walk(args) -> str:
    spec = parse_disorder(args.disorder) if args.disorder else None
    absorber = AbsorberConfig(args.absorber) if args.absorber is not None else None
    lengths = None
    if spec is not None:
        nbytes = args.steps * 8  # one int64 length per step, drawn before the walk
        if nbytes > MAX_ARRAY_BYTES:
            raise ConfigurationError(
                f"{args.steps} disordered steps need {nbytes} bytes of step "
                f"lengths, above the budget of {MAX_ARRAY_BYTES}"
            )
        lengths = sample_realization(spec, args.steps, child_seed(args.seed, 0)).lengths
    config = _walk_config(args, absorber, lengths)
    rows = []
    for dist in snapshot_distributions(config, args.snapshot or [args.steps]):
        for pos, prob in zip(dist.positions.tolist(), dist.probs.tolist()):
            # the window holds only sites of the walk's parity and none that
            # was absorbed; sites whose mass is exactly zero are left out
            if prob != 0.0:
                rows.append((dist.time, pos, float(prob)))
    return _render(args, _walk_meta(args, spec), ["time", "position", "probability"], rows)


def cmd_absorb(args) -> str:
    spec = parse_disorder(args.disorder) if args.disorder else None
    absorber = AbsorberConfig(args.absorber)
    if spec is None:
        if args.realizations is not None:
            raise ConfigurationError("--realizations requires --disorder")
        if args.horizons is not None:
            raise ConfigurationError("--horizons requires --disorder")
        per_step = np.array(
            [absorbed for _, absorbed in iterate_walk(_walk_config(args, absorber))]
        )
        ts = np.arange(1, per_step.size + 1)
        avg_time = _horizon_ratios(per_step[np.newaxis, :].copy(), ts)[0]
        rows = list(zip(ts.tolist(), per_step.tolist(),
                        np.cumsum(per_step).tolist(), avg_time.tolist()))
        meta = {**_walk_meta(args, spec), "cumulative_total": float(np.sum(per_step))}
        return _render(
            args, meta, ["t", "p_t", "cumulative", "avg_time"], rows, "record"
        )
    realizations = args.realizations if args.realizations is not None else 40
    horizons = (
        _ints(args.horizons, ",", "--horizons")
        if args.horizons
        else list(range(1, args.steps + 1))
    )
    config = EnsembleConfig(_walk_config(args, absorber), realizations, args.seed, spec)
    curve = disorder_avg_absorb_time(config, horizons)
    rows = list(zip(curve.abscissa.tolist(), curve.values.tolist(),
                    curve.stderr.tolist(), curve.included.tolist(),
                    curve.excluded.tolist()))
    meta = {**_walk_meta(args, spec), "realizations": realizations,
            "total_excluded": int(np.sum(curve.excluded))}
    return _render(
        args,
        meta,
        ["horizon", "avg_time", "stderr", "included", "excluded"],
        rows,
        "curve",
    )


def cmd_series(args) -> str:
    if args.raabe:
        m1 = args.m1 if args.m1 is not None else 2
        if args.raabe == "classical":
            ratio = classical_avg_time_ratio(m1)
        else:
            ratio = quantum_avg_time_ratio(m1)
        report = raabe_estimate(ratio, n_max=args.n_max)
        meta = {
            "command": "series",
            "mode": f"raabe-{args.raabe}",
            "m1": m1,
            "n_max": report.n_max,
            "band": report.band,
            "limit": report.limit,
            "verdict": report.verdict,
            "seed": args.seed,
        }
        return _render(args, meta, ["n", "ratio_estimate"], report.samples, "samples")
    if args.m1 is not None and args.m1_range:
        raise ConfigurationError("use either --m1 or --m1-range, not both")
    if args.m1 is not None:
        positions = [args.m1]
    elif args.m1_range:
        a, b = _ints(args.m1_range, "..", "--m1-range", pair=True)
        if a > b:
            raise ConfigurationError(f"empty m1 range {args.m1_range!r}")
        # lazy: the table checks the order and each position before storing any
        positions = range(a, b + 1)
    else:
        positions = list(range(1, 11))
    summaries = absorption_summaries(positions, args.initial, args.T, args.tail)
    rows = [(m1, *summary) for m1, summary in zip(positions, summaries)]
    meta = {
        "command": "series",
        "mode": "absorption-table",
        "initial": args.initial,
        "order": args.T,
        "tail": args.tail,
        "seed": args.seed,
    }
    return _render(args, meta, ["m1", "total_absorption", "avg_time"], rows)


def _fit_sigma(config: EnsembleConfig, t_lo: int, t_hi: int):
    """Fit the ensemble's ⟨σ⟩, computing σ only where the fit reads it:
    the fit range clipped to 1..steps, checked before any walk runs."""
    grid = range(max(t_lo, 1), min(t_hi, config.walk.steps) + 1)
    check_fit_range(t_lo, t_hi, len(grid))
    return fit_exponent(disorder_avg_sigma(config, grid), t_lo, t_hi)


def cmd_exponent(args) -> str:
    spec = parse_disorder(args.disorder) if args.disorder else None
    absorber = AbsorberConfig(args.absorber) if args.absorber is not None else None
    realizations = args.realizations
    if realizations is None:
        realizations = 200 if spec is not None else 1
    t_lo, t_hi = _ints(args.t_range, ":", "--t-range", pair=True)
    config = EnsembleConfig(_walk_config(args, absorber), realizations, args.seed, spec)
    fit = _fit_sigma(config, t_lo, t_hi)
    meta = {**_walk_meta(args, spec), "realizations": realizations,
            "t_range": args.t_range}
    rows = [(fit.alpha, fit.ci95_halfwidth, fit.intercept, fit.residual_rms,
             *fit.fit_range, fit.n_points)]
    columns = [
        "alpha", "ci95_halfwidth", "intercept", "residual_rms",
        "t_lo", "t_hi", "n_points",
    ]
    return _render(args, meta, columns, rows, "fit")


def cmd_sweep(args) -> str:
    names = (
        [s.strip() for s in args.presets.split(",")]
        if args.presets
        else list(TABLE2_PRESETS)
    )
    for name in names:
        if name not in TABLE2_PRESETS:
            known = ", ".join(TABLE2_PRESETS)
            raise ConfigurationError(f"unknown preset {name!r} (known: {known})")
    t_lo, t_hi = _ints(args.t_range, ":", "--t-range", pair=True)
    absorber = AbsorberConfig(args.absorber)
    rows = []
    for name in names:
        spec = TABLE2_PRESETS[name]
        mean, var = spec.moments()
        fits = {}
        for label, absorber_cfg in (("with", absorber), ("without", None)):
            config = EnsembleConfig(_walk_config(args, absorber_cfg),
                                    args.realizations, args.seed, spec)
            fits[label] = _fit_sigma(config, t_lo, t_hi)
        rows.append(
            (
                name,
                spec.family,
                mean,
                var,
                spec.classification(),
                fits["with"].alpha,
                fits["with"].ci95_halfwidth,
                fits["without"].alpha,
                fits["without"].ci95_halfwidth,
                fits["with"].alpha - fits["without"].alpha,
            )
        )
    meta = {
        "command": "sweep",
        "engine": "quantum",
        "absorber": args.absorber,
        "realizations": args.realizations,
        "steps": args.steps,
        "t_range": args.t_range,
        "seed": args.seed,
    }
    columns = [
        "preset", "family", "mean", "variance", "classification",
        "alpha_with_absorber", "ci95_with", "alpha_no_absorber", "ci95_without",
        "restoration_gap",
    ]
    return _render(args, meta, columns, rows)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: WALKLAB_SEED or 1)")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility (>= 1); walklab runs "
                             "in one process")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default="-",
                        help="output path, or - for stdout")


def _add_walk_flags(parser: argparse.ArgumentParser, steps: Optional[int] = None,
                    absorber_required: bool = False) -> None:
    """The flags of one walk; --steps is required unless given a default."""
    parser.add_argument("--engine", choices=("quantum", "classical"), required=True)
    parser.add_argument("--coin", default="hadamard")
    parser.add_argument("--initial", choices=("L", "R"), default="L")
    parser.add_argument("--steps", type=int, default=steps, required=steps is None)
    parser.add_argument("--absorber", type=int, default=None, required=absorber_required)
    parser.add_argument("--disorder", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="Quantum and classical random walks with absorbers, "
                    "step-length disorder, and spreading analytics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walk", help="position distributions at snapshot times")
    _add_walk_flags(p)
    p.add_argument("--snapshot", type=int, action="append",
                   help="snapshot time (repeatable; default: final step)")
    _add_common(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("absorb", help="absorption record or averaged absorbing time")
    _add_walk_flags(p, absorber_required=True)
    p.add_argument("--realizations", type=int, default=None,
                   help="ensemble size (requires --disorder; default 40)")
    p.add_argument("--horizons", default=None,
                   help="comma-separated horizon list (default: every step)")
    _add_common(p)
    p.set_defaults(func=cmd_absorb)

    p = sub.add_parser("series", help="absorption series table or ratio test")
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m1-range", dest="m1_range", default=None,
                   help="inclusive range A..B (default 1..10)")
    p.add_argument("--initial", choices=("L", "R"), default="L")
    p.add_argument("--T", dest="T", type=int, default=DEFAULT_ORDER,
                   help="series truncation order")
    p.add_argument("--tail", choices=("power_law", "none"), default="power_law")
    p.add_argument("--raabe", choices=("classical", "quantum"), default=None,
                   help="run the ratio-test estimator instead of the table")
    p.add_argument("--n-max", dest="n_max", type=int, default=10 ** 6)
    _add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("exponent", help="fit the spreading exponent")
    _add_walk_flags(p, steps=80)
    p.add_argument("--realizations", type=int, default=None,
                   help="default: 200 with disorder, 1 without")
    p.add_argument("--t-range", dest="t_range", default="20:80")
    _add_common(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("sweep", help="preset disorder comparison table")
    p.add_argument("--presets", default=None,
                   help="comma-separated preset names (default: all)")
    p.add_argument("--absorber", type=int, default=2)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--realizations", type=int, default=200)
    p.add_argument("--t-range", dest="t_range", default="20:80")
    _add_common(p)
    # sweep always runs the default quantum walk
    p.set_defaults(func=cmd_sweep, engine="quantum", coin="hadamard", initial="L")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            raw = os.environ.get("WALKLAB_SEED", "")
            try:
                args.seed = int(raw) if raw else 1
            except ValueError:
                raise ConfigurationError(
                    f"WALKLAB_SEED must be an integer, got {raw!r}") from None
        if args.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {args.workers}")
        text = args.func(args)
        _write(args, text)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
