"""Every name the benchmark harness patches or imports still resolves,
a planner solve still goes through the names patched in `planner`, and
the closed loop still decides through the solver names patched in
`simulate`.

`bench/tracing.patched` reads each patched name from its owner's own
namespace, `vars(owner)[attr]`, so a name renamed away in `src/` makes
every `bench/run.py` run fail. These tests fail first.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lanegame
from lanegame import costs, games, planner, simulate
from lanegame.field import FieldParams
from lanegame.scenario import load_scenario
from lanegame.styles import style_profile
from lanegame.vehicle import IVX, NX

from reference import ObstaclePose, prepare_poses

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_every_patched_name_is_in_its_owners_namespace(monkeypatch):
    layers = _bench_module("layers", monkeypatch)
    tracing = _bench_module("tracing", monkeypatch)
    patches = layers.patches(tracing.Tracer(), lanegame)
    assert patches
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in patches
               if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("name", ["checks", "inputs"])
def test_bench_imports_resolve(name, monkeypatch):
    _bench_module(name, monkeypatch)


def test_a_solve_calls_every_patched_planner_name(monkeypatch, two_lane_road):
    # `--trace 1` times the planner's horizon model, field and vehicle
    # layers through the `planner` globals the harness patches, so a
    # solve that stopped calling one would read 0 there without failing.
    layers = _bench_module("layers", monkeypatch)
    tracing = _bench_module("tracing", monkeypatch)
    names = [attr for owner, attr, _ in layers.patches(tracing.Tracer(), lanegame)
             if owner is planner]
    assert sorted(names) == ["HorizonModel", "discretize", "linearize", "mpc_cost",
                             "total_field"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=vars(planner)[name], **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(planner, name, counted)
    x0 = np.zeros(NX)
    x0[IVX] = 20.0
    cars = [ObstaclePose(x=30.0, y=0.0, heading=0.0, v=15.0)]
    scene = prepare_poses(cars, two_lane_road, FieldParams())
    plan = planner.solve_plan(x0, 0.0, 0.0, scene, 1, planner.MpcConfig(),
                              style_profile("normal").driver, 0.05, (-10.0, 10.0))
    assert plan.iterations >= 1
    assert all(calls.values()), calls


def _bystander(cfg):
    """cfg with its game opponents made plain traffic: a solo scene."""
    return replace(cfg, vehicles=[replace(v, role=f"LC{i}") if v.strategic else v
                                  for i, v in enumerate(cfg.vehicles)])


# (scene, strategy, the solver its decisions take, their mode).
LOOPS = [
    ("solo", "nash", "solve_solo", 0),
    ("scenario_a", "nash", "solve_nash_2p", 1),
    ("scenario_a", "stackelberg", "solve_stackelberg_2p", 1),
    ("scenario_b", "nash", "solve_nash_two_ac", 2),
    ("scenario_b", "stackelberg", "solve_stackelberg_two_ac", 2),
]


def test_closed_loops_reach_every_patched_solver(monkeypatch):
    # `--trace 1` times decisions through the solver names the harness
    # patches on `simulate`, and the payoff layer (costs.payoff) through
    # `games.pair_payoff_matrices`. A short closed loop of each mode
    # decides through its own solver and no other. Each one- and
    # two-opponent decision scores through the payoff name exactly once,
    # and a solo decision scores on the ego's grid: it calls neither the
    # payoff name nor `costs._pair_parts`, so costs.payoff keeps meaning
    # the games with an opponent.
    layers = _bench_module("layers", monkeypatch)
    tracing = _bench_module("tracing", monkeypatch)
    patched = {(owner, attr)
               for owner, attr, _ in layers.patches(tracing.Tracer(), lanegame)}
    solvers = sorted(layers.GAME_SOLVERS)
    assert all((simulate, name) in patched for name in solvers)
    assert sorted(s for _, _, s, _ in LOOPS) == solvers
    assert (games, "pair_payoff_matrices") in patched
    calls = dict.fromkeys(solvers, 0)
    inner = {name: [] for name in solvers}   # per decision: inner call counts
    active = []

    def counted(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            active.append(dict.fromkeys(("payoff", "pair_parts"), 0))
            try:
                return real(*args, **kwargs)
            finally:
                inner[name].append(active.pop())
        return wrapped

    def inside(key, real):
        def wrapped(*args, **kwargs):
            active[-1][key] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in solvers:
        monkeypatch.setattr(simulate, name, counted(name, vars(simulate)[name]))
    monkeypatch.setattr(games, "pair_payoff_matrices",
                        inside("payoff", games.pair_payoff_matrices))
    for owner in (costs, games):   # and wherever it is imported
        if "_pair_parts" in vars(owner):
            monkeypatch.setattr(owner, "_pair_parts", inside("pair_parts", costs._pair_parts))
    for scene, strategy, solver, mode in LOOPS:
        cfg = (_bystander(load_scenario("scenario_a")) if scene == "solo"
               else load_scenario(scene))
        for name in solvers:
            calls[name], inner[name] = 0, []
        trace = simulate.run_simulation(replace(cfg, duration=0.25), strategy=strategy)
        assert not trace.aborted
        rows = np.array(trace.rows)
        decided = rows[:, trace.columns.index("decided")] == 1.0
        assert decided.any()
        assert set(rows[decided, trace.columns.index("mode")].tolist()) == {mode}
        assert calls == {name: int(decided.sum()) if name == solver else 0
                         for name in solvers}, scene
        want = {"payoff": 1, "pair_parts": 1} if mode else {"payoff": 0, "pair_parts": 0}
        assert inner[solver] == [want] * calls[solver], scene
