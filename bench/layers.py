"""The layer map: which public names a traced run wraps, and how the
recorded spans reduce to per-layer metrics.

Layers are named after the program's modules. Every span inside a
`bench.unit` span maps to exactly one self-time metric, so the per-layer
self times of a unit add up to the unit's traced wall time.
"""

from __future__ import annotations

from tracing import Span, self_times, within

UNIT = "bench.unit"
GAME_SOLVERS = ("solve_nash_2p", "solve_stackelberg_2p", "solve_nash_two_ac",
                "solve_stackelberg_two_ac", "solve_solo")

# Span name -> the per-layer self-time metric it adds to.
SELF_TIME = {
    UNIT: "bench.self_s",
    "simulate.run": "simulate.self_s",
    "simulate.summarize": "simulate.summarize_s",
    "games.solve": "games.solve_s",
    "games.candidates": "games.candidates_s",
    "costs.payoff": "costs.payoff_s",
    "costs.breakdown": "costs.breakdown_s",
    "planner.solve": "planner.solve_s",
    "planner.mpc_cost": "planner.solve_s",
    "planner.horizon_model": "planner.horizon_model_s",
    "field.eval": "field.eval_s",
    "road.to_frenet": "road.to_frenet_s",
    "vehicle.step": "vehicle.step_s",
    "vehicle.linearize": "vehicle.linearize_s",
    "vehicle.discretize": "vehicle.discretize_s",
}


# Per-layer metrics in report order, with units.
PER_LAYER = (
    ("scenario.load_s", "s"), ("simulate.self_s", "s"),
    ("simulate.summarize_s", "s"), ("simulate.write_trace_s", "s"),
    ("bench.self_s", "s"),
    ("games.solve_s", "s"), ("games.candidates_s", "s"), ("games.solves", "count"),
    ("games.mode0", "count"), ("games.mode1", "count"), ("games.mode2", "count"),
    ("games.infeasible", "count"), ("games.strategy_agree_ratio", "ratio"),
    ("costs.payoff_s", "s"), ("costs.payoff_cells", "count"),
    ("costs.breakdown_s", "s"),
    ("planner.solve_s", "s"), ("planner.solves", "count"),
    ("planner.iterations", "count"), ("planner.maxiter_hits", "count"),
    ("planner.cost_evals", "count"), ("planner.cost_rows", "count"),
    ("planner.linesearch_accept_ratio", "ratio"),
    ("planner.horizon_model_s", "s"),
    ("field.eval_s", "s"), ("field.calls", "count"), ("field.points", "count"),
    ("field.ns_per_point", "ns"),
    ("road.to_frenet_s", "s"), ("road.to_frenet_calls", "count"),
    ("vehicle.step_s", "s"), ("vehicle.linearize_s", "s"),
    ("vehicle.discretize_s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_s", "s"), ("fail_ratio", "ratio"),
    ("bench.raw_run_s", "s"), ("bench.kernel_ms", "ms"),
)


def _cost_note(args, out):
    """(du sequences scored, the cost when exactly one was)."""
    return (1, float(out)) if out.ndim == 0 else (out.shape[0], None)


def _points(args, out) -> int:
    return out.size


def _cells(args, out) -> int:
    # pair_payoff_matrices(ego, ego_lane, sigma, ego_accels, ac, ac_lane, ac_accels, ...)
    return len(args[3]) * len(args[6])


def patches(tracer, lg) -> list:
    """(owner, attribute, wrapper factory) for every traced entry point.

    Names are patched where the caller looks them up: `simulate` for the
    closed loop, `games` for scene solves and for what solvers call,
    `planner` for what the planner calls.
    """
    sim, games, planner = lg.simulate, lg.games, lg.planner
    w = tracer.wrapper
    out = [
        (lg.scenario, "load_scenario", w("scenario.load")),
        (sim, "run_simulation", w("simulate.run")),
        (sim, "summarize", w("simulate.summarize")),
        (sim, "write_trace", w("simulate.write_trace")),
        (sim, "solve_plan", w("planner.solve")),
        (sim, "step", w("vehicle.step")),
        (games, "ego_candidates", w("games.candidates")),
        (games, "ac_candidates", w("games.candidates")),
        (games, "pair_payoff_matrices", w("costs.payoff", note=_cells)),
        (games, "ego_cost", w("costs.breakdown")),
        (games, "ac_cost", w("costs.breakdown")),
        (planner, "HorizonModel", w("planner.horizon_model")),
        (planner, "mpc_cost", w("planner.mpc_cost", note=_cost_note)),
        (planner, "total_field", w("field.eval", note=_points)),
        (planner, "linearize", w("vehicle.linearize")),
        (planner, "discretize", w("vehicle.discretize")),
        (lg.road.RoadGeometry, "to_frenet", w("road.to_frenet")),
    ]
    for name in GAME_SOLVERS:
        out += [(sim, name, w("games.solve")), (games, name, w("games.solve"))]
    return out


def linesearch(spans: list[Span]) -> tuple[int, int]:
    """(accepted, tried) line-search steps, from single-row cost values.

    Within one planner solve the single-row `mpc_cost` calls are, in
    order: the zero-increment cost, every trial step, and the final
    re-evaluation. A trial is accepted exactly when it beats the best
    cost so far.
    """
    per_solve: dict[int, list[float]] = {}
    for s in spans:
        if s.name == "planner.mpc_cost" and s.note[1] is not None:
            per_solve.setdefault(s.parent, []).append(s.note[1])
    accepted = tried = 0
    for values in per_solve.values():
        best = values[0]
        for v in values[1:-1]:
            tried += 1
            if v < best:
                accepted += 1
                best = v
    return accepted, tried


def reduce(spans: list[Span], units: int) -> tuple[dict[str, float], list[str]]:
    """Per-unit layer metrics from spans, and any accounting problem."""
    selfs = self_times(spans)
    inside = within(spans, UNIT)
    per = dict.fromkeys(SELF_TIME.values(), 0.0)
    counts = dict.fromkeys(("games.solves", "costs.payoff_cells", "planner.solves",
                            "planner.cost_evals", "planner.cost_rows",
                            "field.calls", "field.points",
                            "road.to_frenet_calls"), 0)
    outside = {"scenario.load": 0.0, "simulate.write_trace": 0.0}
    problems = []
    for s, own, ins in zip(spans, selfs, inside):
        if not ins:
            if s.name in outside:
                outside[s.name] += own
            else:
                problems.append(f"span {s.name} outside any unit")
            continue
        per[SELF_TIME[s.name]] += own
        if s.name == "games.solve" and spans[s.parent].name != "games.solve":
            counts["games.solves"] += 1
        elif s.name == "costs.payoff":
            counts["costs.payoff_cells"] += s.note
        elif s.name == "planner.solve":
            counts["planner.solves"] += 1
        elif s.name == "planner.mpc_cost":
            counts["planner.cost_evals"] += 1
            counts["planner.cost_rows"] += s.note[0]
        elif s.name == "field.eval":
            counts["field.calls"] += 1
            counts["field.points"] += s.note
        elif s.name == "road.to_frenet":
            counts["road.to_frenet_calls"] += 1
    unit_total = sum(s.end - s.start for s in spans if s.name == UNIT)
    layer_total = sum(per.values())
    if abs(layer_total - unit_total) > 1e-9 * max(unit_total, 1.0):
        problems.append(f"layer self times sum to {layer_total} s, "
                        f"traced units to {unit_total} s")
    accepted, tried = linesearch([s for s, ins in zip(spans, inside) if ins])
    out = {k: v / units for k, v in per.items()}
    out.update({k: v / units for k, v in counts.items()})
    out["scenario.load_s"] = outside["scenario.load"]
    out["simulate.write_trace_s"] = outside["simulate.write_trace"] / units
    out["planner.linesearch_accept_ratio"] = accepted / tried if tried else 0.0
    points = counts["field.points"]
    out["field.ns_per_point"] = per["field.eval_s"] / points * 1e9 if points else 0.0
    out["trace.run_s"] = unit_total / units
    return out, problems
