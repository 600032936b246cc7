"""Scenario configuration: parsing, validation, bundled references.

A scenario is a JSON document with a road block, a vehicle roster, and
optional parameter blocks (grid, gains, field, mpc, decision); absent
blocks fall back to the library defaults. Two reference scenarios ship
inside the package: a two-lane merge forced by an ending lane, and a
three-lane overtake behind a slow car on a gentle arc.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dfield
from importlib import resources

import numpy as np

from .costs import CostGains
from .errors import ConfigError
from .field import ObstacleFieldParams, RoadFieldParams
from .games import ActionGrid
from .planner import MpcConfig
from .road import LaneSpec, RoadGeometry
from .styles import BUILTIN_STYLES
from .vehicle import V_FLOOR

STRATEGIES = ("nash", "stackelberg")
EGO_ROLE = "EC"

BUNDLED = ("scenario_a", "scenario_b")


@dataclass
class VehicleSpec:
    role: str
    lane: int
    s: float
    v: float
    d: float | None = None  # None = lane centerline
    style: str = "normal"

    @property
    def strategic(self) -> bool:
        """Adjacent cars (game opponents) have roles AC, AC1, AC2, ..."""
        return self.role.startswith("AC")


@dataclass
class DecisionParams:
    horizon: float = 3.0        # projection window for candidate costs, s
    commit_lat_tol: float = 0.2   # |lateral error| ending a lane change, m
    commit_yaw_tol: float = 0.02  # |yaw error| ending a lane change, rad
    a_end: float = 3.0          # decel shaping the ending-lane speed cap
    end_margin: float = 30.0    # reserved merge distance at a lane end, m
    a_brake: float = 6.0        # emergency decel for the keep-lane cutoff

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigError("decision.horizon must be positive")
        if self.a_end <= 0 or self.a_brake <= 0:
            raise ConfigError("decision.a_end and decision.a_brake must be positive")


@dataclass
class ScenarioConfig:
    name: str
    road: RoadGeometry
    vehicles: list[VehicleSpec]
    strategy: str = "nash"
    duration: float = 12.0
    dt: float = 0.05
    grid: ActionGrid = dfield(default_factory=ActionGrid)
    gains: CostGains = dfield(default_factory=CostGains)
    obstacle_field: ObstacleFieldParams = dfield(default_factory=ObstacleFieldParams)
    road_field: RoadFieldParams = dfield(default_factory=RoadFieldParams)
    mpc: MpcConfig = dfield(default_factory=MpcConfig)
    decision: DecisionParams = dfield(default_factory=DecisionParams)

    def ego(self) -> VehicleSpec:
        return next(v for v in self.vehicles if v.role == EGO_ROLE)


def _road_from(block: dict) -> RoadGeometry:
    lanes = {}
    for ln in block.get("lanes", []):
        spec = LaneSpec(index=int(ln["index"]),
                        v_min=float(ln.get("v_min", 0.0)),
                        v_max=float(ln.get("v_max", 25.0)),
                        end_station=ln.get("end_station"))
        if spec.end_station is not None:
            spec.end_station = float(spec.end_station)
        lanes[spec.index] = spec
    try:
        return RoadGeometry(kind=block.get("kind", "straight"),
                            radius=float(block.get("radius", 0.0)),
                            length=float(block.get("length", 500.0)),
                            lane_width=float(block.get("lane_width", 4.0)),
                            lanes=lanes)
    except ValueError as exc:
        raise ConfigError(f"road: {exc}") from exc


def _grid_from(block: dict) -> ActionGrid:
    if "accelerations" in block:
        accs = tuple(float(a) for a in block["accelerations"])
    else:
        a_min = float(block.get("a_min", -4.0))
        a_max = float(block.get("a_max", 3.0))
        step = float(block.get("step", 0.5))
        if step <= 0 or a_max < a_min:
            raise ConfigError("grid: need step > 0 and a_max >= a_min")
        n = int(round((a_max - a_min) / step))
        accs = tuple(round(a_min + i * step, 9) for i in range(n + 1))
    sigmas = tuple(int(s) for s in block.get("sigmas", (-1, 0, 1)))
    try:
        return ActionGrid(accelerations=accs, sigmas=sigmas,
                          v_min=float(block.get("v_min", 0.0)),
                          v_max=float(block.get("v_max", 25.0)))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _mpc_from(block: dict) -> MpcConfig:
    kw = {}
    for key in ("n_p", "n_c", "max_iter"):
        if key in block:
            kw[key] = int(block[key])
    for key in ("dt", "r", "u_min", "u_max", "du_min", "du_max", "tol", "fd_step"):
        if key in block:
            kw[key] = float(block[key])
    if "q_diag" in block:
        d = block["q_diag"]
        if len(d) != 3:
            raise ConfigError("mpc.q_diag must have 3 entries")
        kw["q"] = np.diag([float(x) for x in d])
    elif "q" in block:
        kw["q"] = np.asarray(block["q"], dtype=float)
    try:
        return MpcConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"mpc: {exc}") from exc


def _dataclass_from(cls, block: dict, label: str):
    try:
        return cls(**{k: float(v) for k, v in block.items()})
    except TypeError as exc:
        raise ConfigError(f"{label}: unknown or missing key ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _vehicles_from(block: list) -> list[VehicleSpec]:
    out = []
    for i, v in enumerate(block):
        try:
            out.append(VehicleSpec(role=str(v["role"]), lane=int(v["lane"]),
                                   s=float(v["s"]), v=float(v["v"]),
                                   d=None if v.get("d") is None else float(v["d"]),
                                   style=str(v.get("style", "normal"))))
        except KeyError as exc:
            raise ConfigError(f"vehicles[{i}]: missing key {exc}") from exc
    return out


def config_from_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    if "road" not in doc or "vehicles" not in doc:
        raise ConfigError("scenario needs 'road' and 'vehicles' blocks")
    cfg = ScenarioConfig(
        name=str(doc.get("name", "unnamed")),
        road=_road_from(doc["road"]),
        vehicles=_vehicles_from(doc["vehicles"]),
        strategy=str(doc.get("strategy", "nash")),
        duration=float(doc.get("duration", 12.0)),
        dt=float(doc.get("dt", 0.05)),
        grid=_grid_from(doc.get("grid", {})),
        gains=_dataclass_from(CostGains, doc.get("gains", {}), "gains"),
        obstacle_field=_dataclass_from(ObstacleFieldParams,
                                       {k: v for k, v in doc.get("field", {}).items()
                                        if k in ("a_oc", "rho_x", "rho_y", "b", "c")},
                                       "field"),
        road_field=_dataclass_from(RoadFieldParams,
                                   {k: v for k, v in doc.get("field", {}).items()
                                    if k in ("a_r", "d_safe", "w", "edge_weight",
                                             "interior_weight")},
                                   "field"),
        mpc=_mpc_from(doc.get("mpc", {})),
        decision=_dataclass_from(DecisionParams, doc.get("decision", {}), "decision"),
    )
    problems = validate(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def validate(cfg: ScenarioConfig) -> list[str]:
    """All invariant violations, each naming the offending field."""
    problems = []
    egos = [v for v in cfg.vehicles if v.role == EGO_ROLE]
    if len(egos) != 1:
        problems.append(f"vehicles: exactly one {EGO_ROLE} required, found {len(egos)}")
    roles = [v.role for v in cfg.vehicles]
    if len(set(roles)) != len(roles):
        problems.append("vehicles: duplicate roles")
    strategic_lanes = set()
    for i, v in enumerate(cfg.vehicles):
        if not cfg.road.has_lane(v.lane):
            problems.append(f"vehicles[{i}].lane: no lane {v.lane} on the road")
        if not math.isfinite(v.s) or not math.isfinite(v.v) or v.v < 0:
            problems.append(f"vehicles[{i}]: position/velocity invalid")
        elif v.role == EGO_ROLE and v.v <= V_FLOOR:
            problems.append(f"vehicles[{i}].v: ego speed must exceed {V_FLOOR} m/s")
        if v.strategic:
            if v.lane in strategic_lanes:
                problems.append(f"vehicles[{i}].lane: lane {v.lane} already "
                                f"has a strategic car")
            strategic_lanes.add(v.lane)
        if v.style not in BUILTIN_STYLES:
            problems.append(f"vehicles[{i}].style: unknown style {v.style!r}")
    if cfg.strategy not in STRATEGIES:
        problems.append(f"strategy: must be one of {STRATEGIES}")
    if cfg.duration <= 0:
        problems.append("duration: must be positive")
    if cfg.dt <= 0:
        problems.append("dt: must be positive")
    return problems


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled name."""
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: parse error at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
        return config_from_dict(doc)
    name = source.removesuffix(".json")
    if name in BUNDLED:
        text = resources.files("lanegame.scenarios").joinpath(f"{name}.json").read_text()
        return config_from_dict(json.loads(text))
    raise ConfigError(f"no such scenario file or bundled name: {source!r}")
