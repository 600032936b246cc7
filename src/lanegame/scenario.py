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
import re
from dataclasses import MISSING, dataclass, field as dfield, fields
from importlib import resources

import numpy as np

from .costs import CostGains
from .errors import ConfigError
from .field import ObstacleFieldParams, RoadFieldParams
from .games import ACCEL_RANGE, ActionGrid, accel_range
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
            raise ConfigError("horizon must be positive")
        if self.a_end <= 0 or self.a_brake <= 0:
            raise ConfigError("a_end and a_brake must be positive")
        # A zero or negative tolerance is never met: a change never ends.
        if self.commit_lat_tol <= 0 or self.commit_yaw_tol <= 0:
            raise ConfigError("commit_lat_tol and commit_yaw_tol must be positive")
        if self.end_margin < 0:
            raise ConfigError("end_margin must be nonnegative")


@dataclass(kw_only=True)
class ScenarioConfig:
    name: str = "unnamed"
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


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _number(value) -> float:
    """A JSON number that is a real number. Booleans and strings are not
    numbers, and JSON readers accept NaN, Infinity and overflowing
    literals such as 1e400, which no parameter means."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not a finite number")
    return x


def _whole(value) -> int:
    """A JSON number with no fractional part, such as 3 or 3.0."""
    if not _number(value).is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _list_of(each):
    def cast(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(each(x) for x in value)
    return cast


# Declared field type -> cast of a JSON value; other fields are not keys.
_CASTS = {
    "str": _text, "int": _whole, "float": _number,
    "float | None": lambda v: None if v is None else _number(v),
    "tuple[float, ...]": _list_of(_number),
    "tuple[int, ...]": _list_of(_whole),
    "np.ndarray": lambda v: np.vectorize(_number, otypes=[float])(
        np.asarray(v, dtype=object)),
}

_LOOP_SET = ("dt", "u_min", "u_max")  # MpcConfig fields the closed loop sets

# Top-level keys parsed as blocks of their own; "description" is free text.
_BLOCKS = ("road", "vehicles", "grid", "gains", "field", "mpc", "decision",
           "description")

_RANGE_KEYS = ("a_min", "a_max", "step")  # grid form standing in for accelerations


def _cast(cast, value, where: str):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _expect(block, kind: type, label: str):
    if not isinstance(block, kind):
        raise ConfigError(f"{label}: expected a JSON {'object' if kind is dict else 'list'}")
    return block


def _build(cls, block, label: str, skip=(), **given):
    """An instance of dataclass `cls` from one JSON object.

    The class's fields are the block's keys: each value is cast by the
    field's declared type and an absent key keeps the class default.
    Nested blocks are parsed by the caller and passed in `given`; those
    keys and the ones in `skip` are not read from the block.
    """
    kw = dict(given)
    types = {f.name: f.type for f in fields(cls)}
    for key, value in _expect(block, dict, label).items():
        cast = _CASTS.get(types.get(key))
        if cast is None or key in given or key in skip:
            raise ConfigError(f"{label}: unknown key {key!r}")
        kw[key] = _cast(cast, value, f"{label}.{key}")
    for f in fields(cls):
        if f.name not in kw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{label}: missing key {f.name!r}")
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _road_from(block) -> RoadGeometry:
    rest = dict(_expect(block, dict, "road"))
    lanes = {}
    for i, ln in enumerate(_expect(rest.pop("lanes", []), list, "road.lanes")):
        lane = _build(LaneSpec, ln, f"road.lanes[{i}]")
        if lane.index in lanes:
            raise ConfigError(f"road.lanes[{i}]: repeats lane index {lane.index}")
        lanes[lane.index] = lane
    return _build(RoadGeometry, rest, "road", lanes=lanes)


def _grid_from(block) -> ActionGrid:
    rest = dict(_expect(block, dict, "grid"))
    given = {}
    if any(k in rest for k in _RANGE_KEYS):
        bounds = [_cast(_number, rest.pop(k, d), f"grid.{k}")
                  for k, d in zip(_RANGE_KEYS, ACCEL_RANGE)]
        given["accelerations"] = _cast(lambda b: accel_range(*b), bounds, "grid")
    return _build(ActionGrid, rest, "grid", **given)


def _mpc_from(block) -> MpcConfig:
    rest = dict(_expect(block, dict, "mpc"))
    given = {}
    if "q_diag" in rest:
        diag = _cast(_CASTS["tuple[float, ...]"], rest.pop("q_diag"), "mpc.q_diag")
        if len(diag) != 3:
            raise ConfigError("mpc.q_diag must have 3 entries")
        given["q"] = np.diag(diag)
    return _build(MpcConfig, rest, "mpc", skip=_LOOP_SET, **given)


def config_from_dict(doc: dict) -> ScenarioConfig:
    doc = _expect(doc, dict, "scenario")
    if "road" not in doc or "vehicles" not in doc:
        raise ConfigError("scenario needs 'road' and 'vehicles' blocks")
    # One field block feeds both field dataclasses; keys in neither are unknown.
    obstacle_keys = {f.name for f in fields(ObstacleFieldParams)}
    fb = _expect(doc.get("field", {}), dict, "field")
    ofb = {k: v for k, v in fb.items() if k in obstacle_keys}
    rfb = {k: v for k, v in fb.items() if k not in obstacle_keys}
    cfg = _build(
        ScenarioConfig, {k: v for k, v in doc.items() if k not in _BLOCKS}, "scenario",
        road=_road_from(doc["road"]),
        vehicles=[_build(VehicleSpec, v, f"vehicles[{i}]")
                  for i, v in enumerate(_expect(doc["vehicles"], list, "vehicles"))],
        grid=_grid_from(doc.get("grid", {})),
        gains=_build(CostGains, doc.get("gains", {}), "gains"),
        obstacle_field=_build(ObstacleFieldParams, ofb, "field"),
        road_field=_build(RoadFieldParams, rfb, "field"),
        mpc=_mpc_from(doc.get("mpc", {})),
        decision=_build(DecisionParams, doc.get("decision", {}), "decision"),
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
    # Roles name trace columns such as s_ac1: plain words, unique ignoring case.
    roles: dict[str, str] = {}
    strategic_lanes = set()
    road = cfg.road
    # The planner queries the road field along its whole first horizon, so
    # the ego's fastest projection over it must stay on the road.
    t_plan = cfg.mpc.n_p * cfg.dt
    a_top = max(0.0, max(cfg.grid.accelerations))
    for i, v in enumerate(cfg.vehicles):
        if not re.fullmatch(r"[A-Za-z0-9_]+", v.role):
            problems.append(f"vehicles[{i}].role: {v.role!r} must be letters, "
                            f"digits and _ only")
        elif v.role.lower() in roles:
            problems.append(f"vehicles[{i}].role: duplicate roles {roles[v.role.lower()]!r} "
                            f"and {v.role!r} (case is ignored)")
        roles.setdefault(v.role.lower(), v.role)
        if not road.has_lane(v.lane):
            problems.append(f"vehicles[{i}].lane: no lane {v.lane} on the road")
        elif min(road.remaining(v.lane, v.s), road.length - v.s) < 0:
            problems.append(f"vehicles[{i}].s: past the end of lane {v.lane}")
        elif v.d is not None and not (abs(v.d - road.lane_offset(v.lane))
                                      <= road.lane_width / 2):  # NaN fails too
            problems.append(f"vehicles[{i}].d: outside lane {v.lane}")
        if v.role == EGO_ROLE and v.s < 0:
            problems.append(f"vehicles[{i}].s: the ego must start at s >= 0")
        if not math.isfinite(v.s) or not math.isfinite(v.v) or v.v < 0:
            problems.append(f"vehicles[{i}]: position/velocity invalid")
        elif v.role == EGO_ROLE and v.v <= V_FLOOR:
            problems.append(f"vehicles[{i}].v: ego speed must exceed {V_FLOOR} m/s")
        elif v.role == EGO_ROLE:
            reach = v.s + v.v * t_plan + 0.5 * a_top * t_plan * t_plan
            if reach > road.length:
                problems.append(f"vehicles[{i}].s: the first {t_plan:g} s planner "
                                f"horizon reaches s={reach:.1f}, past the road end "
                                f"at {road.length:g}")
        if v.strategic:
            if v.lane in strategic_lanes:
                problems.append(f"vehicles[{i}].lane: lane {v.lane} already "
                                f"has a strategic car")
            strategic_lanes.add(v.lane)
        if v.style not in BUILTIN_STYLES:
            problems.append(f"vehicles[{i}].style: unknown style {v.style!r}")
    if cfg.strategy not in STRATEGIES:
        problems.append(f"strategy: must be one of {STRATEGIES}")
    if not 0 < cfg.duration < math.inf:   # NaN fails too
        problems.append("duration: must be positive and finite")
    if not 0 < cfg.dt < math.inf:
        problems.append("dt: must be positive and finite")
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
