"""Closed-loop simulation of one scenario and its run metrics.

Per step: (1) finish or continue any committed lane change, (2) build
the ego's view of the scene once (`_scene_view`: each lane's lead and
speed cap, and the game opponent on each other lane), (3) if no change
is in progress, solve the decision game against the opponents beside
the ego, (4) log style-free running cost components, (5) plan the
steering preview command, (6) integrate the ego and advance the other
cars as point masses. The game and the running costs read the roster
only through that view.

The running `j_*` columns differ from the decision cost on purpose. They
are instantaneous (the scene now, not a projection over the decision
horizon) and style-free, so runs of different styles are scored on one
scale: safety follows the active interaction partner (the opponent on
the target lane during a change, else the lead), comfort is
`comfort_cost` of the held command, and efficiency is the squared
shortfall from the view's speed cap on the lane the ego occupies, not
from the style-shaped `desired_speed`. Only `j_total` weights them by
the ego style.

Other cars follow their initial lane; adjacent (strategic) cars apply
the acceleration from their side of the game while one is active and
hold it during the ego's lane change, then coast. Everything is
deterministic, so repeated runs produce identical traces. A layer that
fails (no feasible decision, a query outside a model's domain) aborts
the run with a reason; the rows produced so far are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .costs import (KinematicState, LaneView, NeighborView, combine,
                    comfort_cost, lane_change_lat_accel, lateral_safety_cost,
                    longitudinal_safety_cost)
from .errors import DomainError, InfeasibleDecisionError
from .field import ObstaclePose, prepare_field, total_field
from .games import (GameSolution, solve_nash_2p, solve_nash_two_ac,
                    solve_solo, solve_stackelberg_2p, solve_stackelberg_two_ac)
from .planner import MpcConfig, solve_plan
from .road import RoadGeometry
from .scenario import EGO_ROLE, ScenarioConfig, VehicleSpec
from .styles import BUILTIN_STYLES, style_profile
from .vehicle import (DEFAULT_VEHICLE, IDELTA, IPHI, IR, IVX, IVY, IX, IY,
                      ControlInput, DriverParams, step)

# Cars closer laterally than this are treated as sharing a lane when the
# inter-vehicle clearance metric is collected.
LANE_SHARE_BAND = 2.5


@dataclass
class _Car:
    """Point-mass runtime state of a non-ego vehicle."""

    role: str
    lane: int
    strategic: bool
    style: str
    s: float
    d: float
    v: float
    v_ref: float     # initial speed, defended as the car's own cruise speed
    a: float = 0.0


@dataclass
class TraceLog:
    """Column-oriented record of one run."""

    scenario: str
    style: str
    strategy: str
    columns: list[str]
    rows: list[list[float]] = field(default_factory=list)
    roles: list[str] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""
    max_iter: int = MpcConfig.max_iter   # the planner's iteration cap in this run

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)


@dataclass
class RunMetrics:
    """Per-run outcome; the defaults are those of a run with no steps."""

    scenario: str
    style: str
    strategy: str
    steps: int
    aborted: bool
    abort_reason: str
    t_commit: float = math.nan   # first lane-change commitment, nan if none
    sigma_commit: int = 0        # direction of that first commitment
    merged: bool = False         # a lane change finished during the run
    t_merge_done: float = math.nan
    final_lane: int = 0
    # role -> s_ego - s_role, and role (and EC) -> speed, at t_commit
    gap_at_commit: dict[str, float] = field(default_factory=dict)
    v_at_commit: dict[str, float] = field(default_factory=dict)
    rms_safety: float = math.nan
    rms_comfort: float = math.nan
    rms_efficiency: float = math.nan
    rms_total: float = math.nan
    min_clearance: float = math.inf  # lane-sharing pairs only; inf if none occur
    max_field: float = math.nan
    planner_regressions: int = 0     # steps where the plan lost to zero increments
    box_violations: int = 0
    degraded_steps: int = 0
    maxiter_steps: int = 0           # plans that stopped at the iteration cap
    security_steps: int = 0
    clamp_steps: int = 0


BASE_COLUMNS = [
    "t", "s_ec", "d_ec", "v_ec", "vy_ec", "yaw_ec", "x_ec", "y_ec",
    "delta_ec", "lane_ec", "target_lane", "sigma", "a_cmd", "latched",
    "decided", "mode", "multiplicity", "security", "side", "u_cmd",
    "mpc_cost", "mpc_cost_zero", "mpc_iters", "mpc_degraded",
    "box_violation", "dec_j_ds", "dec_j_rc", "dec_j_pe", "dec_total",
    "j_ds", "j_rc", "j_pe", "j_total", "field_ec", "min_clearance",
    "clamped",
]


def _scene_view(road: RoadGeometry, cfg: ScenarioConfig, cars: list[_Car],
                ego_lane: int, s_e: float,
                flow_ref: float) -> tuple[NeighborView, dict[int, _Car]]:
    """The ego's view of the roster at station s_e, one pass per lane.

    A lane's lead is the nearest car ahead of the ego that it would
    follow there: strategic cars count only on the ego's lane, elsewhere
    they are game opponents. Every other lane's opponent is its first
    strategic car, and that lane's `ac_lead` the nearest car ahead of it.
    Ties go to the earlier car in roster order. Returns the view and the
    opponents by lane.
    """
    def nearest_ahead(pool, s):
        car = min((c for c in pool if c.s > s), key=lambda c: c.s, default=None)
        return None if car is None else KinematicState(s=car.s, v=car.v)

    lanes: dict[int, LaneView] = {}
    opponents: dict[int, _Car] = {}
    end_remaining: dict[int, float] = {}
    for idx, spec in road.lanes.items():
        on = [c for c in cars if c.lane == idx]
        opp = None if idx == ego_lane else next((c for c in on if c.strategic), None)
        if opp is not None:
            opponents[idx] = opp
        lanes[idx] = LaneView(
            lead=nearest_ahead([c for c in on if idx == ego_lane or not c.strategic], s_e),
            adjacent=None if opp is None else KinematicState(s=opp.s, v=opp.v),
            ac_lead=None if opp is None else nearest_ahead(on, opp.s),
            adjacent_v_ref=None if opp is None else opp.v_ref,
            v_min=spec.v_min,
            v_max=spec.v_max,
        )
        rem = road.remaining(idx, s_e)
        if math.isfinite(rem):
            end_remaining[idx] = rem
    dec = cfg.decision
    return NeighborView(lanes=lanes, lane_width=road.lane_width, flow_ref=flow_ref,
                        end_remaining=end_remaining, a_end=dec.a_end,
                        end_margin=dec.end_margin, a_brake=dec.a_brake), opponents


def _decide(cfg: ScenarioConfig, strategy: str, nb: NeighborView,
            ego_kin: KinematicState, ego_lane: int, ego_style,
            opponents: dict[int, _Car]) -> tuple[GameSolution, int]:
    """Solve the decision game against the opponents beside the ego.

    Returns the solution and its mode, the number of side opponents: 0
    solo, 1 one opponent, 2 opponents on both sides. The solvers are
    looked up by name at call time.
    """
    sides = [lane for lane in (ego_lane - 1, ego_lane + 1) if lane in opponents]
    styles = [style_profile(opponents[lane].style) for lane in sides]
    grid = cfg.grid
    gains = cfg.gains
    horizon = cfg.decision.horizon
    if len(sides) == 2:
        solver = solve_nash_two_ac if strategy == "nash" else solve_stackelberg_two_ac
        sol = solver(ego_kin, ego_lane, nb.adjacent(sides[0]), nb.adjacent(sides[1]),
                     nb, grid, grid, ego_style, *styles, gains, horizon)
    elif sides:
        solver = solve_nash_2p if strategy == "nash" else solve_stackelberg_2p
        sol = solver(ego_kin, ego_lane, nb.adjacent(sides[0]), sides[0], nb,
                     grid, grid, ego_style, *styles, gains, horizon)
    else:
        sol = solve_solo(ego_kin, ego_lane, nb, grid, ego_style, gains, horizon)
    return sol, len(sides)


def _u_box(road: RoadGeometry, cfg: ScenarioConfig, dp: DriverParams,
           s_e: float, v_e: float) -> tuple[float, float]:
    """Global lateral bounds for the preview command over the horizon.

    The preview point ranges over the road cross-sections between the
    current station and the far end of the prediction window; the box is
    the global Y-extent of those sections (exactly the road edges on a
    straight segment).
    """
    far = s_e + v_e * (dp.t_p + cfg.mpc.n_p * cfg.dt)
    d_max, d_min = road.lateral_extent()
    ys = []
    for ss in (s_e, far):
        for dd in (d_min, d_max):
            _, y = road.to_global(ss, dd)
            ys.append(float(y))
    return min(ys), max(ys)


def _start_offset(road: RoadGeometry, spec: VehicleSpec) -> float:
    """Initial lateral offset: the vehicle's own d, else its lane centerline."""
    return road.lane_offset(spec.lane) if spec.d is None else spec.d


def initial_cars(cfg: ScenarioConfig) -> list[_Car]:
    """Point-mass state of every non-ego vehicle at t = 0, in roster order."""
    return [_Car(role=spec.role, lane=spec.lane, strategic=spec.strategic,
                 style=spec.style, s=spec.s, d=_start_offset(cfg.road, spec),
                 v=spec.v, v_ref=spec.v)
            for spec in cfg.vehicles if spec.role != EGO_ROLE]


def obstacle_poses(road: RoadGeometry, cars: list[_Car]) -> list[ObstaclePose]:
    """Global poses of the other cars, as the planner and the field see them."""
    poses = []
    for c in cars:
        x, y = road.to_global(c.s, c.d)
        poses.append(ObstaclePose(x=float(x), y=float(y),
                                  heading=float(road.tangent_heading(c.s)), v=c.v))
    return poses


def _lane_share_clearance(ego_d, ego_x, ego_y, cars, obstacles) -> float:
    """Smallest distance among pairs currently sharing a lane laterally."""
    poses = [(ego_d, ego_x, ego_y)]
    poses += [(c.d, o.x, o.y) for c, o in zip(cars, obstacles)]
    best = math.inf
    for i, (d_i, x_i, y_i) in enumerate(poses):
        for d_j, x_j, y_j in poses[i + 1:]:
            if abs(d_i - d_j) < LANE_SHARE_BAND:
                best = min(best, math.hypot(x_i - x_j, y_i - y_j))
    return best


def run_simulation(cfg: ScenarioConfig, style: str | None = None,
                   strategy: str | None = None) -> TraceLog:
    """Simulate one run; ego style and strategy may override the scenario."""
    road = cfg.road
    dec = cfg.decision
    strategy = strategy or cfg.strategy
    ego_spec = cfg.ego()
    style_name = style or ego_spec.style
    ego_style = style_profile(style_name)
    vp = DEFAULT_VEHICLE
    dp = ego_style.driver

    cars = initial_cars(cfg)
    roles = [c.role for c in cars]
    columns = BASE_COLUMNS + [f"{q}_{r.lower()}" for r in roles for q in "sdva"]
    trace = TraceLog(scenario=cfg.name, style=style_name, strategy=strategy,
                     columns=columns, roles=roles, max_iter=cfg.mpc.max_iter)

    # Ego starts aligned with the road on its lane centerline.
    s0 = ego_spec.s
    x0, y0 = road.to_global(s0, _start_offset(road, ego_spec))
    phi0 = float(road.tangent_heading(s0))
    state = np.zeros(8)
    state[IVX] = ego_spec.v
    state[IPHI] = phi0
    state[IX], state[IY] = float(x0), float(y0)
    if road.kind == "arc":
        state[IR] = ego_spec.v / road.radius
    u_prev = float(y0) + dp.t_p * ego_spec.v * phi0

    ego_lane = ego_spec.lane
    target_lane = ego_lane
    latched = False
    sigma_now = 0
    a_cmd = 0.0
    flow_ref = ego_spec.v
    a_y_change = lane_change_lat_accel(road.lane_width)
    game = (-1.0, 0.0, 0.0, 0.0)       # mode, multiplicity, security, side
    dec_cost = (0.0, 0.0, 0.0, 0.0)    # j_ds, j_rc, j_pe, total

    n_steps = int(round(cfg.duration / cfg.dt))
    for k in range(n_steps):
        t = k * cfg.dt
        x = state
        s_e, d_e = road.to_frenet(x[IX], x[IY])
        s_e, d_e = float(s_e), float(d_e)
        v_e = float(x[IVX])
        ego_kin = KinematicState(s=s_e, v=v_e)

        if latched:
            y2 = d_e - road.lane_offset(target_lane)
            y3 = float(x[IPHI]) - float(road.tangent_heading(s_e))
            if abs(y2) < dec.commit_lat_tol and abs(y3) < dec.commit_yaw_tol:
                ego_lane = target_lane
                latched = False
                sigma_now = 0

        nb, opponents = _scene_view(road, cfg, cars, ego_lane, s_e, flow_ref)
        obstacles = obstacle_poses(road, cars)
        u_lo, u_hi = _u_box(road, cfg, dp, s_e, v_e)
        decided = 0.0
        try:
            if not latched:
                sol, mode = _decide(cfg, strategy, nb, ego_kin, ego_lane,
                                    ego_style, opponents)
                decided = 1.0
                sigma_now = sol.ego_action.sigma
                a_cmd = sol.ego_action.a_x
                if sigma_now != 0:
                    latched = True
                    target_lane = ego_lane + sigma_now
                for c in cars:
                    if c.strategic:
                        c.a = sol.ac_actions.get(c.lane, 0.0)
                cb = sol.ego_cost
                game = (float(mode), float(sol.multiplicity),
                        float(sol.security_fallback),
                        0.0 if sol.side is None else float(sol.side))
                dec_cost = (cb.j_ds, cb.j_rc, cb.j_pe, cb.total)
            plan = solve_plan(x, u_prev, a_cmd, obstacles, road,
                              target_lane if latched else ego_lane,
                              cfg.obstacle_field, cfg.road_field,
                              replace(cfg.mpc, dt=cfg.dt, u_min=u_lo, u_max=u_hi),
                              vp, dp)
            here = prepare_field(obstacles, road, cfg.obstacle_field, cfg.road_field)
            field_here = float(total_field(x[IX], x[IY], here))
        except (InfeasibleDecisionError, DomainError) as exc:
            what = ("decision infeasible" if isinstance(exc, InfeasibleDecisionError)
                    else "domain error")
            trace.aborted = True
            trace.abort_reason = f"{what} at t={t:.2f}: {exc}"
            break
        u_cmd = plan.u_applied
        box_violation = float(not (u_lo - 1e-9 <= u_cmd <= u_hi + 1e-9)
                              or plan.cost > plan.cost_zero + 1e-9)

        # Running cost components (see the module docstring); safety
        # follows the active interaction partner.
        if sigma_now != 0:
            j_ds_m = lateral_safety_cost(ego_kin, nb.adjacent(target_lane), cfg.gains)
        else:
            j_ds_m = longitudinal_safety_cost(ego_kin, nb.lead(ego_lane), cfg.gains)
        j_rc_m = comfort_cost(a_cmd, a_y_change, sigma_now, cfg.gains)
        j_pe_m = (v_e - float(nb.v_cap(road.nearest_lane(d_e)))) ** 2
        j_total_m = float(combine(ego_style, j_ds_m, j_rc_m, j_pe_m))
        clearance = _lane_share_clearance(d_e, float(x[IX]), float(x[IY]),
                                          cars, obstacles)

        state, clamped = step(x, ControlInput(y_p=u_cmd, a_x=a_cmd), vp, dp,
                              cfg.dt)
        row = [t, s_e, d_e, v_e, float(x[IVY]), float(x[IPHI]),
               float(x[IX]), float(x[IY]), float(x[IDELTA]),
               float(ego_lane), float(target_lane), float(sigma_now), a_cmd,
               float(latched), decided, *game, u_cmd, plan.cost,
               plan.cost_zero, float(plan.iterations), float(plan.degraded),
               box_violation, *dec_cost, j_ds_m, j_rc_m, j_pe_m, j_total_m,
               field_here, clearance, float(clamped)]
        for c in cars:
            row += [c.s, c.d, c.v, c.a]
        trace.rows.append(row)

        if not np.all(np.isfinite(state)):
            trace.aborted = True
            trace.abort_reason = f"non-finite ego state after t={t:.2f}"
            break
        for c in cars:
            lane = road.lanes[c.lane]
            c.s += c.v * cfg.dt + 0.5 * c.a * cfg.dt * cfg.dt
            c.v = float(np.clip(c.v + c.a * cfg.dt, lane.v_min, lane.v_max))
        u_prev = u_cmd

    return trace


def summarize(trace: TraceLog) -> RunMetrics:
    """Reduce a trace to the quantities the scenario studies compare."""
    col = trace.column
    n = len(trace.rows)
    head = RunMetrics(scenario=trace.scenario, style=trace.style,
                      strategy=trace.strategy, steps=n, aborted=trace.aborted,
                      abort_reason=trace.abort_reason)
    if n == 0:
        return head
    sigma = col("sigma")
    t = col("t")
    committed = np.flatnonzero(sigma != 0)
    t_commit = float(t[committed[0]]) if committed.size else math.nan
    sigma_commit = int(sigma[committed[0]]) if committed.size else 0
    lane = col("lane_ec")
    changed = np.flatnonzero(lane != lane[0])
    merged = changed.size > 0
    t_merge_done = float(t[changed[0]]) if merged else math.nan

    gap_at_commit: dict[str, float] = {}
    v_at_commit: dict[str, float] = {}
    if committed.size:
        i = committed[0]
        s_e = col("s_ec")[i]
        v_at_commit["EC"] = float(col("v_ec")[i])
        for r in trace.roles:
            rl = r.lower()
            gap_at_commit[r] = float(s_e - col(f"s_{rl}")[i])
            v_at_commit[r] = float(col(f"v_{rl}")[i])

    def rms(name: str) -> float:
        x = col(name)
        return float(np.sqrt(np.mean(x * x)))

    return replace(
        head, t_commit=t_commit, sigma_commit=sigma_commit, merged=merged,
        t_merge_done=t_merge_done, final_lane=int(lane[-1]),
        gap_at_commit=gap_at_commit, v_at_commit=v_at_commit,
        rms_safety=rms("j_ds"), rms_comfort=rms("j_rc"),
        rms_efficiency=rms("j_pe"), rms_total=rms("j_total"),
        min_clearance=float(np.min(col("min_clearance"))),
        max_field=float(np.max(col("field_ec"))),
        planner_regressions=int(np.sum(col("mpc_cost") > col("mpc_cost_zero") + 1e-9)),
        box_violations=int(np.sum(col("box_violation"))),
        degraded_steps=int(np.sum(col("mpc_degraded"))),
        maxiter_steps=int(np.sum(col("mpc_iters") >= trace.max_iter)),
        security_steps=int(np.sum(col("security"))),
        clamp_steps=int(np.sum(col("clamped"))),
    )


def write_trace(trace: TraceLog, path: str) -> None:
    """Fixed column order, 9 significant digits per value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(trace.columns) + "\n")
        for row in trace.rows:
            fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def _fmt(value) -> str:
    """One metric value as text: flags as 0/1, floats to 9 significant digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def metrics_lines(m: RunMetrics) -> list[str]:
    """Flat key=value lines in field order, a per-role dict one line per role."""
    out = []
    for f in fields(RunMetrics):
        value = getattr(m, f.name)
        if isinstance(value, dict):
            out += [f"{f.name}_{r}={_fmt(v)}" for r, v in value.items()]
        elif f.name != "abort_reason" or value:
            out.append(f"{f.name}={_fmt(value)}")
    return out


def write_metrics(m: RunMetrics, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(metrics_lines(m)) + "\n")


STYLES_ALL = tuple(BUILTIN_STYLES)


def batch(cfg: ScenarioConfig, styles=STYLES_ALL,
          strategies=("nash", "stackelberg")) -> list[tuple[TraceLog, RunMetrics]]:
    """Every style x strategy combination for one scenario."""
    out = []
    for strat in strategies:
        for sty in styles:
            trace = run_simulation(cfg, style=sty, strategy=strat)
            out.append((trace, summarize(trace)))
    return out


def comparison_csv(metrics: list[RunMetrics]) -> str:
    """Side-by-side table over runs, one row per run."""
    cols = ("scenario", "style", "strategy", "t_commit", "sigma_commit",
            "merged", "t_merge_done", "final_lane", "rms_safety",
            "rms_comfort", "rms_efficiency", "rms_total", "min_clearance",
            "max_field", "aborted", "maxiter_steps")
    lines = [",".join(cols)]
    lines += [",".join(_fmt(getattr(m, c)) for c in cols) for m in metrics]
    return "\n".join(lines) + "\n"
