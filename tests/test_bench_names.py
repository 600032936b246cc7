"""Every name the benchmark harness patches or imports still resolves,
and a planner solve still goes through the names patched in `planner`.

`bench/tracing.patched` reads each patched name from its owner's own
namespace, `vars(owner)[attr]`, so a name renamed away in `src/` makes
every `bench/run.py` run fail. These tests fail first.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import lanegame
from lanegame import planner
from lanegame.field import FieldParams
from lanegame.styles import style_profile
from lanegame.vehicle import IVX, NX, VehicleParams

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
                              VehicleParams(), style_profile("normal").driver, 0.05,
                              (-10.0, 10.0))
    assert plan.iterations >= 1
    assert all(calls.values()), calls
