"""Tests of the benchmark's own machinery: span accounting, the percentile
rule, and output checks that must reject tampered results."""

from __future__ import annotations

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
from inputs import jittered, one_opponent, solve, two_opponent  # noqa: E402
from lanegame import load_scenario, run_simulation, summarize  # noqa: E402
from tracing import (Span, Tracer, patched, percentile, self_times,  # noqa: E402
                     tail_percentile, within)


def _tree():
    # unit [0,10] > run [1,9] > {plan [2,6] > field [3,4], step [7,8]}
    return [Span("bench.unit", 0.0, 10.0, -1),
            Span("simulate.run", 1.0, 9.0, 0),
            Span("planner.solve", 2.0, 6.0, 1),
            Span("field.eval", 3.0, 4.0, 2, note=40),
            Span("vehicle.step", 7.0, 8.0, 1),
            Span("scenario.load", 10.5, 11.0, -1)]


def test_self_time_on_synthetic_tree():
    assert self_times(_tree()) == [2.0, 3.0, 3.0, 1.0, 1.0, 0.5]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0), Span("a", 1.0, 5.0, 0), Span("b", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_within_follows_parents():
    assert within(_tree(), "bench.unit") == [True] * 5 + [False]


def test_layer_self_times_add_up_to_the_unit():
    out, problems = layers.reduce(_tree(), units=1)
    assert problems == []
    layer_sum = sum(out[m] for m in set(layers.SELF_TIME.values()))
    assert layer_sum == pytest.approx(out["trace.run_s"]) == pytest.approx(10.0)
    assert out["planner.solve_s"] == 3.0 and out["field.eval_s"] == 1.0
    assert out["field.points"] == 40 and out["scenario.load_s"] == 0.5
    assert out["field.ns_per_point"] == pytest.approx(1e9 / 40)


def test_reduce_flags_unmapped_spans_outside_units():
    _, problems = layers.reduce(_tree() + [Span("vehicle.step", 12.0, 13.0)], 1)
    assert problems == ["span vehicle.step outside any unit"]


def test_linesearch_ratio_from_single_row_costs():
    # zero cost 10, probes, trials 12 (rejected) and 8 (accepted), probes,
    # trial 9 (rejected), trial 7 (accepted), final re-evaluation 7.
    notes = [(1, 10.0), (10, None), (1, 12.0), (1, 8.0), (10, None),
             (1, 9.0), (1, 7.0), (1, 7.0)]
    spans = [Span("planner.solve", 0.0, 1.0)]
    spans += [Span("planner.mpc_cost", 0.1, 0.2, 0, note=n) for n in notes]
    assert layers.linesearch(spans) == (2, 4)


def test_percentile_rule():
    assert percentile(range(1, 11), 50) == 5.5
    assert percentile([3.0], 95) == 3.0
    assert percentile(range(101), 95) == 95.0
    assert tail_percentile(range(200), 95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        tail_percentile(range(199), 95)    # 9.95 samples beyond p95


def test_patched_restores_originals_even_on_error():
    mod = types.ModuleType("m")
    mod.f = lambda x: x + 1
    original = mod.f
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched([(mod, "f", tracer.wrapper("m.f", note=lambda a, out: out))]):
            assert mod.f(1) == 2
            raise RuntimeError
    assert mod.f is original
    assert [(s.name, s.note) for s in tracer.spans] == [("m.f", 2)]


def test_benchmark_json_lists_the_per_layer_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_speed_scale_uses_samples_near_the_interval():
    meter = speed.Speedometer()
    # Kernel at twice the reference time around t=10, at the reference near t=100.
    meter.at = [9.0, 10.5, 12.0, 99.0, 101.0]
    meter.took = [2 * speed.NOMINAL_S] * 3 + [speed.NOMINAL_S] * 2
    assert meter.scale(10.0, 11.0) == pytest.approx(0.5)
    assert meter.scale(100.0, 100.5, 0.2) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        meter.factor(50.0, 51.0)     # no sample within the window


def _short(cfg, steps=20):
    return replace(cfg, duration=steps * cfg.dt)


@pytest.fixture(scope="module")
def merge_cfg():
    return load_scenario("scenario_a")


def test_outcome_check_rejects_flipped_final_lane(merge_cfg):
    m = summarize(run_simulation(_short(merge_cfg), style="aggressive"))
    good = replace(m, sigma_commit=-1, merged=True, final_lane=1)
    assert checks.outcome_problems("merge", good) == []
    assert checks.outcome_problems("merge", replace(good, final_lane=2))
    stay = replace(m, sigma_commit=0, t_commit=float("nan"), final_lane=2)
    assert checks.outcome_problems("overtake", stay) == []
    assert checks.outcome_problems("overtake", replace(stay, final_lane=1))
    assert checks.run_problems(m) == []
    assert checks.run_problems(replace(m, box_violations=1))


def test_ordering_check():
    assert checks.ordering_problems({"aggressive": 0.9, "normal": 2.15,
                                     "conservative": 2.7}) == []
    assert checks.ordering_problems({"aggressive": 2.2, "normal": 2.15,
                                     "conservative": 2.7})


def test_digest_tells_one_changed_byte_apart(merge_cfg, tmp_path):
    cfg = _short(merge_cfg)
    trace = run_simulation(cfg, style="normal")
    path = tmp_path / "t.csv"
    digest = checks.trace_digest(trace, path)
    assert checks.trace_digest(run_simulation(cfg, style="normal"), path) == digest
    text = path.read_bytes()
    tampered = replace(trace, rows=[list(r) for r in trace.rows])
    # t = 0.25 printed as 0.35: exactly one byte of the file differs.
    tampered.rows[5][0] = 0.35
    assert checks.trace_digest(tampered, path) != digest
    diff = [a != b for a, b in zip(text, path.read_bytes())]
    assert len(text) == len(path.read_bytes()) and sum(diff) == 1
    assert checks.trace_digest(checks.prefix(trace, 5), path) != digest


def test_jitter_keeps_seed_zero_and_moves_others(merge_cfg):
    assert jittered(merge_cfg, 0) is merge_cfg
    a, b = jittered(merge_cfg, 3), jittered(merge_cfg, 3)
    assert a.vehicles == b.vehicles != merge_cfg.vehicles
    assert a.ego() == merge_cfg.ego()


def _non_equilibrium(scene, sol, strategy):
    """A cell of the same game that is provably not the solution concept.

    Nash: keep the opponent's move and give the ego a row that costs it
    more, so deviating back pays. Stackelberg: a leader row whose worst
    case over follower best responses exceeds the reported value.
    """
    game, e, a = checks.side_game(scene, sol)
    here = game.j_ego(e, a)
    for e2 in game.rows:
        if strategy == "nash":
            a2 = a
            worse = game.j_ego(e2, a) > here + 1e-6
        else:
            br = game.best_responses(e2)
            a2 = max(br, key=lambda c: game.j_ego(e2, c))
            worse = game.j_ego(e2, a2) > here + 1e-6
        if worse:
            return replace(sol, ego_action=e2,
                           ac_actions={**sol.ac_actions, game.lane: a2},
                           ego_cost=replace(sol.ego_cost, total=game.j_ego(e2, a2)))
    raise AssertionError("no dominated row in this scene")


@pytest.mark.parametrize("make,kind", [(one_opponent, "scenario_a"),
                                       (two_opponent, "scenario_b")])
@pytest.mark.parametrize("strategy", ["nash", "stackelberg"])
def test_game_check_rejects_a_non_equilibrium_cell(make, kind, strategy):
    scene = make(load_scenario(kind), np.random.default_rng(7))
    sol = solve(scene, strategy)
    check = checks.nash_problems if strategy == "nash" else checks.stackelberg_problems
    assert check(scene, sol, enumerate_all=True) == []
    assert check(scene, _non_equilibrium(scene, sol, strategy), enumerate_all=True)
