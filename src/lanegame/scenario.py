"""Scenario configuration: parsing, validation, bundled references.

A scenario is a JSON document with a road block, a vehicle roster, and
optional parameter blocks (grid, gains, field, mpc, decision); absent
blocks fall back to the library defaults. Each block parses into one
dataclass whose fields are its keys: road into RoadGeometry (its lanes
into LaneSpec), each vehicle into VehicleSpec, grid into ActionGrid,
gains into CostGains, field into FieldParams, mpc into MpcConfig and
decision into DecisionParams. The one alternate spelling is grid's
a_min/a_max/step range, which stands in for its accelerations list. Two
reference scenarios ship inside the package: a two-lane merge forced by
an ending lane, and a three-lane overtake behind a slow car on a gentle
arc.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, field as dfield, fields
from importlib import resources

from .costs import T_DM, CostGains
from .errors import ConfigError
from .field import FieldParams
from .games import ACCEL_RANGE, ActionGrid, accel_range
from .planner import MpcConfig
from .road import LaneSpec, RoadGeometry
from .styles import BUILTIN_STYLES
from .vehicle import V_FLOOR

STRATEGIES = ("nash", "stackelberg")
EGO_ROLE = "EC"
# Largest roster validate accepts. Every car but the ego is an obstacle of
# the planner's field; planner.MAX_PLAN_CELLS gives the peak this allows.
MAX_VEHICLES = 16
# Most steps, round(duration / dt), of a run: a 16-car trace near 70 MB.
MAX_STEPS = 20_000
# Shortest start gap, m, between two cars on one lane: one car length, the
# vehicle-length margin CostGains.l_v. Closer, they start in contact.
CAR_LENGTH = 5.0

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


# Longest decision horizon, s (the paper uses 3 s). A candidate holds one
# acceleration over the whole horizon, so a minute is already far past any
# meaningful projection; without a cap, a horizon near 1e154 s overflows
# the projection's a·t·t and the gap term's squares, and the run commits
# on non-finite costs.
MAX_HORIZON = 60.0


@dataclass
class DecisionParams:
    horizon: float = T_DM       # projection window for candidate costs, s
    commit_lat_tol: float = 0.2   # |lateral error| ending a lane change, m
    commit_yaw_tol: float = 0.02  # |yaw error| ending a lane change, rad
    a_end: float = 3.0          # decel shaping the ending-lane speed cap
    end_margin: float = 30.0    # reserved merge distance at a lane end, m
    a_brake: float = 6.0        # emergency decel for the keep-lane cutoff

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not 0 < self.horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must be in (0, {MAX_HORIZON:g}] s, "
                              f"got {self.horizon:g}")
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
    field: FieldParams = dfield(default_factory=FieldParams)
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
}

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


def _build(cls, block, label: str, **given):
    """An instance of dataclass `cls` from one JSON object.

    The class's fields are the block's keys: each value is cast by the
    field's declared type and an absent key keeps the class default.
    Nested blocks are parsed by the caller and passed in `given`; those
    keys are not read from the block.
    """
    kw = dict(given)
    types = {f.name: f.type for f in fields(cls)}
    for key, value in _expect(block, dict, label).items():
        cast = _CASTS.get(types.get(key))
        if cast is None or key in given:
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


def config_from_dict(doc: dict) -> ScenarioConfig:
    doc = _expect(doc, dict, "scenario")
    if "road" not in doc or "vehicles" not in doc:
        raise ConfigError("scenario needs 'road' and 'vehicles' blocks")
    cfg = _build(
        ScenarioConfig, {k: v for k, v in doc.items() if k not in _BLOCKS}, "scenario",
        road=_road_from(doc["road"]),
        vehicles=[_build(VehicleSpec, v, f"vehicles[{i}]")
                  for i, v in enumerate(_expect(doc["vehicles"], list, "vehicles"))],
        grid=_grid_from(doc.get("grid", {})),
        gains=_build(CostGains, doc.get("gains", {}), "gains"),
        field=_build(FieldParams, doc.get("field", {}), "field"),
        mpc=_build(MpcConfig, doc.get("mpc", {}), "mpc"),
        decision=_build(DecisionParams, doc.get("decision", {}), "decision"),
    )
    problems = validate(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def validate(cfg: ScenarioConfig) -> list[str]:
    """All invariant violations, each naming the offending field."""
    problems = []
    # The name is the stem of batch trace files and a value of the
    # comparison CSV and the metrics lines: a plain file name.
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", cfg.name):
        problems.append(f"name: {cfg.name!r} must be letters, digits, _, . "
                        f"and - only, and not empty")
    if len(cfg.vehicles) > MAX_VEHICLES:
        problems.append(f"vehicles: {len(cfg.vehicles)} cars exceed the "
                        f"largest roster, {MAX_VEHICLES}")
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
        elif road.has_lane(v.lane):
            # The closed loop clips the other cars' speeds to their lane's
            # band in one step; the ego's is not clipped.
            band = road.lanes[v.lane]
            if not band.v_min <= v.v <= band.v_max:
                problems.append(f"vehicles[{i}].v: {v.v:g} m/s is outside lane "
                                f"{v.lane}'s speed band [{band.v_min:g}, {band.v_max:g}]")
        if v.strategic:
            if v.lane in strategic_lanes:
                problems.append(f"vehicles[{i}].lane: lane {v.lane} already "
                                f"has a strategic car")
            strategic_lanes.add(v.lane)
        if v.style not in BUILTIN_STYLES:
            problems.append(f"vehicles[{i}].style: unknown style {v.style!r}")
    # Sorted by lane and station, each car's next entry is its car ahead.
    placed = sorted((v.lane, v.s, v.role) for v in cfg.vehicles if math.isfinite(v.s))
    for (lane, s, role), (ahead_lane, ahead_s, ahead_role) in zip(placed, placed[1:]):
        if lane == ahead_lane and ahead_s - s < CAR_LENGTH:
            problems.append(f"vehicles: {role!r} and {ahead_role!r} start "
                            f"{ahead_s - s:.2f} m apart on lane {lane}, closer than "
                            f"a car length ({CAR_LENGTH:g} m)")
    if cfg.strategy not in STRATEGIES:
        problems.append(f"strategy: must be one of {STRATEGIES}")
    if not 0 < cfg.duration < math.inf:   # NaN fails too
        problems.append("duration: must be positive and finite")
    if not 0 < cfg.dt < math.inf:
        problems.append("dt: must be positive and finite")
    elif cfg.duration / cfg.dt > MAX_STEPS + 0.5:   # round() would pass MAX_STEPS
        problems.append(f"duration, dt: {cfg.duration:g} s in steps of {cfg.dt:g} s "
                        f"exceed the longest run, {MAX_STEPS} steps")
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
        except (UnicodeDecodeError, RecursionError, IsADirectoryError) as exc:
            # Not UTF-8, nested deeper than the reader recurses, or a directory.
            raise ConfigError(f"{source}: not a readable JSON file: {exc}") from exc
        return config_from_dict(doc)
    name = source.removesuffix(".json")
    if name in BUNDLED:
        text = resources.files("lanegame.scenarios").joinpath(f"{name}.json").read_text()
        return config_from_dict(json.loads(text))
    raise ConfigError(f"no such scenario file or bundled name: {source!r}")
