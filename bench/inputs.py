"""Seeded workload inputs: jittered bundled scenarios and open-loop scenes.

The program only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from lanegame import games
from lanegame.costs import KinematicState, LaneView, NeighborView
from lanegame.scenario import EGO_ROLE, ScenarioConfig, validate
from lanegame.styles import BUILTIN_STYLES, StyleProfile, style_profile

# Seeds other than 0 move every non-ego car's initial station and speed by
# a uniform draw inside these half-widths. Small enough that each style
# keeps its bundled outcome, large enough that the planner sees new states.
JITTER_S = 1.0   # m
JITTER_V = 0.3   # m/s


def jittered(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    """The bundled scenario for seed 0, a jittered copy otherwise."""
    if seed == 0:
        return cfg
    rng = np.random.default_rng(seed)
    vehicles = []
    for v in cfg.vehicles:
        if v.role != EGO_ROLE:
            v = replace(v, s=v.s + rng.uniform(-JITTER_S, JITTER_S),
                        v=v.v + rng.uniform(-JITTER_V, JITTER_V))
        vehicles.append(v)
    out = replace(cfg, vehicles=vehicles)
    problems = validate(out)
    if problems:
        raise ValueError(f"seed {seed} jitter made an invalid scenario: {problems}")
    return out


@dataclass
class Scene:
    """One open-loop decision: the ego on lane 2 against one or two cars."""

    kind: int                              # number of opponents, 1 or 2
    ego: KinematicState
    opponents: dict[int, KinematicState]   # lane -> adjacent car
    nb: NeighborView
    cfg: ScenarioConfig                    # grid, gains and horizon source
    ego_style: StyleProfile
    ac_style: StyleProfile
    ego_lane: int = 2


def _view(cfg: ScenarioConfig, s_e: float, lanes: dict[int, LaneView]) -> NeighborView:
    road, dec = cfg.road, cfg.decision
    for idx, spec in road.lanes.items():
        lanes[idx].v_min, lanes[idx].v_max = spec.v_min, spec.v_max
    end_remaining = {i: road.remaining(i, s_e) for i in road.lanes
                     if math.isfinite(road.remaining(i, s_e))}
    return NeighborView(lanes=lanes, lane_width=road.lane_width,
                        flow_ref=cfg.ego().v, end_remaining=end_remaining,
                        a_end=dec.a_end, end_margin=dec.end_margin,
                        a_brake=dec.a_brake)


def _styles(rng) -> tuple[StyleProfile, StyleProfile]:
    names = sorted(BUILTIN_STYLES)
    return style_profile(names[rng.integers(len(names))]), style_profile("normal")


# State ranges enclose every decision step of the bundled runs (all three
# styles): scenario_a ego s 2..277 m at 20..23.7 m/s with the opponent 0..45 m
# behind while it is adjacent; scenario_b ego 12..356 m at 15.6..23.5 m/s,
# lead 13..50 m ahead, left car 40 m behind to 2 m behind, right car up to
# 15 m ahead. Lane 2 of scenario_a ends at 200 m, so ego s stops at 150.

def one_opponent(cfg: ScenarioConfig, rng) -> Scene:
    """scenario_a road: ego on the ending lane 2, one car on lane 1."""
    s_e = rng.uniform(2.0, 150.0)
    ego = KinematicState(s=s_e, v=rng.uniform(15.0, 24.0))
    ac = KinematicState(s=s_e + rng.uniform(-45.0, 10.0), v=rng.uniform(13.0, 18.0))
    lanes = {1: LaneView(adjacent=ac, adjacent_v_ref=ac.v), 2: LaneView()}
    ego_style, ac_style = _styles(rng)
    return Scene(kind=1, ego=ego, opponents={1: ac}, nb=_view(cfg, s_e, lanes),
                 cfg=cfg, ego_style=ego_style, ac_style=ac_style)


def two_opponent(cfg: ScenarioConfig, rng) -> Scene:
    """scenario_b road: slow lead ahead on lane 2, cars on lanes 1 and 3."""
    s_e = rng.uniform(12.0, 360.0)
    ego = KinematicState(s=s_e, v=rng.uniform(15.0, 24.0))
    lead = KinematicState(s=s_e + rng.uniform(10.0, 55.0), v=rng.uniform(14.0, 16.0))
    left = KinematicState(s=s_e + rng.uniform(-45.0, 10.0), v=rng.uniform(13.0, 17.0))
    right = KinematicState(s=s_e + rng.uniform(-15.0, 20.0), v=rng.uniform(16.0, 19.5))
    lanes = {1: LaneView(adjacent=left, adjacent_v_ref=left.v),
             2: LaneView(lead=lead),
             3: LaneView(adjacent=right, adjacent_v_ref=right.v)}
    ego_style, ac_style = _styles(rng)
    return Scene(kind=2, ego=ego, opponents={1: left, 3: right},
                 nb=_view(cfg, s_e, lanes), cfg=cfg, ego_style=ego_style,
                 ac_style=ac_style)


def scenes(cfg_a: ScenarioConfig, cfg_b: ScenarioConfig, seed: int):
    """Endless scene stream: two one-opponent scenes, then a two-opponent one.

    A two-opponent solve costs about two one-opponent solves, so this mix
    gives each kind half the solve time, and the per-solve median and p95
    fall inside one kind each instead of on the gap between them.
    """
    rng = np.random.default_rng(seed)
    while True:
        yield one_opponent(cfg_a, rng)
        yield one_opponent(cfg_a, rng)
        yield two_opponent(cfg_b, rng)


def solve(scene: Scene, strategy: str):
    """Solve a scene through the public solvers, looked up at call time."""
    c = scene.cfg
    grid, gains, horizon = c.grid, c.gains, c.decision.horizon
    if scene.kind == 1:
        (lane, ac), = scene.opponents.items()
        fn = games.solve_nash_2p if strategy == "nash" else games.solve_stackelberg_2p
        return fn(scene.ego, scene.ego_lane, ac, lane, scene.nb, grid, grid,
                  scene.ego_style, scene.ac_style, gains, horizon)
    fn = games.solve_nash_two_ac if strategy == "nash" else games.solve_stackelberg_two_ac
    return fn(scene.ego, scene.ego_lane, scene.opponents[scene.ego_lane - 1],
              scene.opponents[scene.ego_lane + 1], scene.nb, grid, grid,
              scene.ego_style, scene.ac_style, scene.ac_style, gains, horizon)
