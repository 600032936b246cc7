"""Command-line front end.

Subcommands: run (one simulation), batch (style x strategy sweep),
field-dump (potential field of the initial scene on a grid), validate
(scenario file check). Exit codes: 0 success, 2 usage, 3 bad
configuration, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError, LanegameError
from .field import total_field
from .scenario import STRATEGIES, load_scenario
from .simulate import (STYLES_ALL, batch, comparison_csv, initial_cars,
                       metrics_lines, prepare_scene, run_simulation,
                       summarize, write_trace)

# Largest field-dump grid in points (the default window holds a few thousand).
FIELD_DUMP_MAX_POINTS = 1_000_000


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lanegame",
                                description="Game-theoretic lane-change "
                                            "simulation")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scenario run")
    run_p.add_argument("scenario", help="path to a scenario file or a "
                                        "bundled name (scenario_a, scenario_b)")
    run_p.add_argument("--style", choices=STYLES_ALL, default=None,
                       help="override the ego driving style")
    run_p.add_argument("--strategy", choices=STRATEGIES, default=None,
                       help="override the equilibrium strategy")
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="write the step trace CSV here")
    run_p.add_argument("--metrics", default=None, metavar="PATH",
                       help="write run metrics here instead of stdout")

    batch_p = sub.add_parser("batch", help="sweep styles and strategies")
    batch_p.add_argument("scenario")
    batch_p.add_argument("--styles", default=",".join(STYLES_ALL),
                         help="comma-separated style list")
    batch_p.add_argument("--strategies", default=",".join(STRATEGIES),
                         help="comma-separated strategy list")
    batch_p.add_argument("--out", default=None, metavar="PATH",
                         help="write the comparison CSV here instead of stdout")
    batch_p.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="also write per-run trace CSVs into this directory")

    dump_p = sub.add_parser("field-dump", help="sample the initial potential field")
    dump_p.add_argument("scenario")
    dump_p.add_argument("--s-min", type=float, default=None)
    dump_p.add_argument("--s-max", type=float, default=None)
    dump_p.add_argument("--ds", type=float, default=2.0)
    dump_p.add_argument("--dd", type=float, default=0.25)
    dump_p.add_argument("--out", default=None, metavar="PATH")

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("scenario")
    return p


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    trace = run_simulation(cfg, style=args.style, strategy=args.strategy)
    metrics = summarize(trace)
    if args.trace:
        write_trace(trace, args.trace)
    _emit("\n".join(metrics_lines(metrics)) + "\n", args.metrics)
    if trace.aborted:
        sys.stderr.write(f"run aborted: {trace.abort_reason}\n")
        return 4
    return 0


def _cmd_batch(args) -> int:
    cfg = load_scenario(args.scenario)
    styles = tuple(s for s in args.styles.split(",") if s)
    strategies = tuple(s for s in args.strategies.split(",") if s)
    if not styles:
        raise ConfigError("--styles names no style")
    if not strategies:
        raise ConfigError("--strategies names no strategy")
    results = batch(cfg, styles=styles, strategies=strategies)
    if args.trace_dir:
        import os
        os.makedirs(args.trace_dir, exist_ok=True)
        for trace, _ in results:
            name = f"{trace.scenario}_{trace.strategy}_{trace.style}.csv"
            write_trace(trace, os.path.join(args.trace_dir, name))
    _emit(comparison_csv([m for _, m in results]), args.out)
    if any(t.aborted for t, _ in results):
        sys.stderr.write("one or more runs aborted\n")
        return 4
    return 0


def _cmd_field_dump(args) -> int:
    cfg = load_scenario(args.scenario)
    road = cfg.road
    ego = cfg.ego()
    s_lo = args.s_min if args.s_min is not None else max(0.0, ego.s - 20.0)
    s_hi = args.s_max if args.s_max is not None else min(road.length, ego.s + 120.0)
    if not np.isfinite([s_lo, s_hi, args.ds, args.dd]).all():
        raise ConfigError("field-dump: window and steps must be finite")
    if s_hi <= s_lo or args.ds <= 0 or args.dd <= 0:
        raise ConfigError("field-dump: empty sample window")
    if s_lo < 0 or s_hi > road.length:
        raise ConfigError(f"field-dump: window outside the road [0, {road.length:g}]")
    d_max, d_min = road.lateral_extent()
    points = (np.ceil((s_hi + 1e-9 - s_lo) / args.ds)
              * np.ceil((d_max + 1e-9 - d_min) / args.dd))
    if points > FIELD_DUMP_MAX_POINTS:
        raise ConfigError(f"field-dump: grid of {points:.3g} points exceeds "
                          f"{FIELD_DUMP_MAX_POINTS:,}")
    field = prepare_scene(road, initial_cars(cfg), cfg.field)
    ss = np.arange(s_lo, s_hi + 1e-9, args.ds)
    dd = np.arange(d_min, d_max + 1e-9, args.dd)
    lines = ["s,d,x,y,gamma"]
    for s in ss:
        xs, ys = road.to_global(np.full_like(dd, s), dd)
        vals = total_field(xs, ys, field)
        for j, d in enumerate(dd):
            lines.append(f"{s:.9g},{d:.9g},{xs[j]:.9g},{ys[j]:.9g},{vals[j]:.9g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_scenario(args.scenario)  # a failed check raises ConfigError
    sys.stdout.write(f"{cfg.name}: ok ({len(cfg.vehicles)} vehicles, "
                     f"{cfg.road.lane_count} lanes)\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "batch": _cmd_batch,
                "field-dump": _cmd_field_dump, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 3
    except (LanegameError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
