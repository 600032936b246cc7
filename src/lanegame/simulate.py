"""Closed-loop simulation of one scenario and its run metrics.

Per step (`_Loop.advance`): (1) finish or continue any committed lane
change, (2) build the ego's view of the scene once (`_scene_view`: each
lane's lead and speed cap, and the game opponent on each other lane) and
its field (`prepare_scene`), (3) if no change is in progress, solve the
decision game against the opponents beside the ego, (4) log style-free
running cost components, (5) plan the steering preview command, starting
from the previous step's plan moved on one step, (6) integrate the ego
and advance the other cars as point masses. The game and the running
costs read the roster only through that view; the planner, the field at
the ego and the clearance metric read that one field.

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
hold it during the ego's lane change, then coast; a car whose speed
reaches its lane's speed band holds the band's edge speed from there.
Everything is deterministic, so repeated runs give identical traces and
`batch` can share a style's loop among its strategies (`_runs`). A layer
that fails (no feasible decision, a query outside a model's domain)
aborts the run with a reason; the rows produced so far are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .costs import (KinematicState, LaneView, NeighborView, combine,
                    comfort_cost, lane_change_lat_accel, lateral_safety_cost,
                    longitudinal_safety_cost)
from .errors import ConfigError, DomainError, InfeasibleDecisionError
from .field import FieldParams, PreparedField, prepare_field, total_field
from .games import (GameSolution, solve_nash_2p, solve_nash_two_ac,
                    solve_solo, solve_stackelberg_2p, solve_stackelberg_two_ac)
from .planner import solve_plan
from .road import RoadGeometry
from .scenario import CAR_LENGTH, EGO_ROLE, STRATEGIES, ScenarioConfig, VehicleSpec
from .styles import BUILTIN_STYLES, style_profile
from .vehicle import IDELTA, IPHI, IR, IVX, IVY, IX, IY, DriverParams, step

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
    # Planner totals over the run, kept off the CSV columns.
    mpc_cost_rows: int = 0   # output rows scored
    maxiter_steps: int = 0   # plans that ran out of iterations

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


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
    contact_steps: int = 0           # steps with min_clearance under CAR_LENGTH
    max_field: float = math.nan
    planner_regressions: int = 0     # steps where the plan lost to zero increments
    box_violations: int = 0
    degraded_steps: int = 0
    maxiter_steps: int = 0           # plans that ran out of iterations
    mpc_iterations: int = 0          # planner iterations summed over the run
    mpc_cost_rows: int = 0           # planner output rows scored over the run
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


def prepare_scene(road: RoadGeometry, cars: list[_Car],
                  params: FieldParams) -> PreparedField:
    """The other cars at their global poses, laid out as the field's obstacles;
    a straight road's scalar heading is written out to the car count."""
    s = np.array([c.s for c in cars], dtype=float)
    x, y = road.to_global(s, np.array([c.d for c in cars], dtype=float))
    heading = np.empty(s.shape)
    heading[...] = road.tangent_heading(s)
    return prepare_field(x, y, heading, [c.v for c in cars], road, params)


def _lane_share_clearance(ego_d, ego_x, ego_y, cars, scene: PreparedField) -> float:
    """Smallest distance among pairs currently sharing a lane laterally."""
    poses = [(ego_d, ego_x, ego_y)]
    poses += zip([c.d for c in cars], scene.x.tolist(), scene.y.tolist())
    best = math.inf
    for i, (d_i, x_i, y_i) in enumerate(poses):
        for d_j, x_j, y_j in poses[i + 1:]:
            if abs(d_i - d_j) < LANE_SHARE_BAND:
                best = min(best, math.hypot(x_i - x_j, y_i - y_j))
    return best


def _check_names(styles, strategies) -> None:
    """ConfigError, naming the known ones, for an unknown style or strategy."""
    for kind, names, known in (("style", styles, BUILTIN_STYLES),
                               ("strategy", strategies, STRATEGIES)):
        for name in (n for n in names if n not in known):
            raise ConfigError(f"unknown {kind} {name!r}; known: {', '.join(known)}")


class _Loop:
    """One style's closed loop, shared by the strategies in `group` while
    their decisions agree bit for bit (`repr`: `==` takes -0.0 for 0.0,
    which the trace tells apart), failures included; those that decide
    otherwise move to `parted`. `advance` keeps its step's inputs: the
    ego's kinematic state `ego`, its view `nb`, the `opponents` by lane,
    and `outcome`, the last decision's `(solution, mode)` or the failure
    a solver raised. The previous plan `start` is loop state, so a rerun
    from step 0 plans afresh, as an independent run does."""

    def __init__(self, cfg: ScenarioConfig, style_name: str, group: list[str]):
        self.cfg, self.group, self.parted = cfg, group, []
        self.style = style_profile(style_name)
        self.cars = initial_cars(cfg)
        roles = [c.role for c in self.cars]
        columns = BASE_COLUMNS + [f"{q}_{r.lower()}" for r in roles for q in "sdva"]
        self.trace = TraceLog(scenario=cfg.name, style=style_name, strategy=group[0],
                              columns=columns, roles=roles)
        # Ego starts aligned with the road on its lane centerline.
        road, spec = cfg.road, cfg.ego()
        x0, y0 = road.to_global(spec.s, _start_offset(road, spec))
        phi0 = float(road.tangent_heading(spec.s))
        self.state = np.zeros(8)
        self.state[IVX] = spec.v
        self.state[IPHI] = phi0
        self.state[IX], self.state[IY] = float(x0), float(y0)
        if road.kind == "arc":
            self.state[IR] = spec.v / road.radius
        self.u_prev = float(y0) + self.style.driver.t_p * spec.v * phi0
        self.start = None   # the last plan moved on one step, where the next solve starts
        # A lane change toward lane + sigma is under way while sigma != 0.
        self.lane, self.sigma = spec.lane, 0
        self.flow_ref = spec.v
        self.a_y_change = lane_change_lat_accel(road.lane_width)
        self.ego = self.nb = self.opponents = self.outcome = None

    def decide(self, strategy: str) -> tuple[GameSolution, int] | Exception:
        """The decision game of `strategy` in the held view: the solution
        and its mode, the number of side opponents (0 solo, 1 one, 2 both
        sides), or the layer failure a solver raised. The solvers are
        looked up by name at call time."""
        ego, lane, nb, grid = self.ego, self.lane, self.nb, self.cfg.grid
        gains, horizon, nash = self.cfg.gains, self.cfg.decision.horizon, strategy == "nash"
        sides = [side for side in (lane - 1, lane + 1) if side in self.opponents]
        styles = [style_profile(self.opponents[side].style) for side in sides]
        try:
            if len(sides) == 2:
                solver = solve_nash_two_ac if nash else solve_stackelberg_two_ac
                sol = solver(ego, lane, nb.adjacent(sides[0]), nb.adjacent(sides[1]),
                             nb, grid, grid, self.style, *styles, gains, horizon)
            elif sides:
                solver = solve_nash_2p if nash else solve_stackelberg_2p
                sol = solver(ego, lane, nb.adjacent(sides[0]), sides[0], nb,
                             grid, grid, self.style, *styles, gains, horizon)
            else:
                sol = solve_solo(ego, lane, nb, grid, self.style, gains, horizon)
        except (InfeasibleDecisionError, DomainError) as exc:
            return exc
        return sol, len(sides)

    def advance(self) -> str:
        """Run the next step: append its row and return "", or return why
        the run aborts there, with no row for a step whose layer failed."""
        cfg, road, dec, dp = self.cfg, self.cfg.road, self.cfg.decision, self.style.driver
        dt = cfg.dt
        t = len(self.trace.rows) * dt
        x = self.state
        s_e, d_e = map(float, road.to_frenet(x[IX], x[IY]))
        v_e = float(x[IVX])
        self.ego = KinematicState(s=s_e, v=v_e)
        if self.sigma != 0:
            y2 = d_e - road.lane_offset(self.lane + self.sigma)
            y3 = float(x[IPHI]) - float(road.tangent_heading(s_e))
            if abs(y2) < dec.commit_lat_tol and abs(y3) < dec.commit_yaw_tol:
                self.lane, self.sigma = self.lane + self.sigma, 0
        self.nb, self.opponents = _scene_view(road, cfg, self.cars, self.lane, s_e,
                                              self.flow_ref)
        scene = prepare_scene(road, self.cars, cfg.field)
        u_lo, u_hi = _u_box(road, cfg, dp, s_e, v_e)
        decided = self.sigma == 0
        try:
            if decided:
                outcomes = [self.decide(s) for s in self.group]
                if len(self.group) > 1:
                    first = repr(outcomes[0])
                    self.parted += [s for s, o in zip(self.group, outcomes)
                                    if repr(o) != first]
                    self.group = [s for s, o in zip(self.group, outcomes)
                                  if repr(o) == first]
                self.outcome = outcomes[0]
                if isinstance(self.outcome, Exception):
                    raise self.outcome
                sol = self.outcome[0]
                self.sigma = sol.ego_action.sigma
                for c in self.cars:
                    if c.strategic:
                        c.a = sol.ac_actions.get(c.lane, 0.0)
            sol, mode = self.outcome
            a_cmd = sol.ego_action.a_x
            # After the decision, so a change committed now tracks its new lane.
            plan_lane = self.lane + self.sigma
            plan = solve_plan(x, self.u_prev, a_cmd, scene, plan_lane, cfg.mpc, dp,
                              dt, (u_lo, u_hi), self.start)
            field_here = float(total_field(x[IX], x[IY], scene))
        except (InfeasibleDecisionError, DomainError) as exc:
            what = ("decision infeasible" if isinstance(exc, InfeasibleDecisionError)
                    else "domain error")
            return f"{what} at t={t:.2f}: {exc}"
        u_cmd = plan.u_applied
        self.trace.mpc_cost_rows += plan.cost_rows
        self.trace.maxiter_steps += plan.at_cap
        box_violation = float(not u_lo - 1e-9 <= u_cmd <= u_hi + 1e-9)

        # Running cost components (see the module docstring); safety
        # follows the active interaction partner.
        if self.sigma != 0:
            j_ds_m = lateral_safety_cost(self.ego, self.nb.adjacent(plan_lane), cfg.gains)
        else:
            j_ds_m = longitudinal_safety_cost(self.ego, self.nb.lead(self.lane), cfg.gains)
        j_rc_m = comfort_cost(a_cmd, self.a_y_change, self.sigma, cfg.gains)
        j_pe_m = (v_e - float(self.nb.v_cap(road.nearest_lane(d_e)))) ** 2
        j_total_m = float(combine(self.style, j_ds_m, j_rc_m, j_pe_m))
        clearance = _lane_share_clearance(d_e, float(x[IX]), float(x[IY]), self.cars, scene)

        self.state, clamped = step(x, u_cmd, a_cmd, dp, dt)
        cb = sol.ego_cost
        row = [t, s_e, d_e, v_e, float(x[IVY]), float(x[IPHI]),
               float(x[IX]), float(x[IY]), float(x[IDELTA]),
               float(self.lane), float(plan_lane), float(self.sigma), a_cmd,
               float(self.sigma != 0), float(decided), float(mode),
               float(sol.multiplicity), float(sol.security_fallback),
               0.0 if sol.side is None else float(sol.side), u_cmd, plan.cost,
               plan.cost_zero, float(plan.iterations), float(plan.degraded),
               box_violation, cb.j_ds, cb.j_rc, cb.j_pe, cb.total,
               j_ds_m, j_rc_m, j_pe_m, j_total_m, field_here, clearance, float(clamped)]
        for c in self.cars:
            row += [c.s, c.d, c.v, c.a]
        self.trace.rows.append(row)

        if not np.isfinite(self.state).all():
            return f"non-finite ego state after t={t:.2f}"
        for c in self.cars:
            band = road.lanes[c.lane]
            v = c.v + c.a * dt
            held = min(max(v, band.v_min), band.v_max)
            # Constant acceleration up to the band's edge, then the edge speed.
            tau = min(max((held - c.v) / c.a, 0.0), dt) if held != v and c.a else dt
            c.s += c.v * tau + 0.5 * c.a * tau * tau + held * (dt - tau)
            c.v = float(held)
        self.u_prev = u_cmd
        self.start = np.zeros(len(plan.du_sequence))
        self.start[:-1] = plan.du_sequence[1:]
        return ""


def _runs(cfg: ScenarioConfig, style_name: str,
          strategies) -> dict[str, TraceLog]:
    """One `_Loop` for the given strategies, a trace per name. Any that
    part from it rerun from step 0 among themselves, so each trace is that
    of an independent run. Names must be known (`_check_names`)."""
    group = list(dict.fromkeys(strategies))
    if not group:
        return {}
    loop = _Loop(cfg, style_name, group)
    for _ in range(int(round(cfg.duration / cfg.dt))):
        if reason := loop.advance():
            loop.trace.aborted, loop.trace.abort_reason = True, reason
            break
    traces = {s: replace(loop.trace, strategy=s, rows=[r[:] for r in loop.trace.rows])
              for s in loop.group[1:]}
    return {loop.group[0]: loop.trace} | traces | _runs(cfg, style_name, loop.parted)


def run_simulation(cfg: ScenarioConfig, style: str | None = None,
                   strategy: str | None = None) -> TraceLog:
    """Simulate one run; ego style and strategy may override the scenario."""
    strategy, style = strategy or cfg.strategy, style or cfg.ego().style
    _check_names([style], [strategy])
    return _runs(cfg, style, (strategy,))[strategy]


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
        contact_steps=int(np.sum(col("min_clearance") < CAR_LENGTH)),
        max_field=float(np.max(col("field_ec"))),
        planner_regressions=int(np.sum(col("mpc_cost") > col("mpc_cost_zero") + 1e-9)),
        box_violations=int(np.sum(col("box_violation"))),
        degraded_steps=int(np.sum(col("mpc_degraded"))),
        maxiter_steps=trace.maxiter_steps,
        mpc_iterations=int(np.sum(col("mpc_iters"))),
        mpc_cost_rows=trace.mpc_cost_rows,
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


STYLES_ALL = tuple(BUILTIN_STYLES)


def batch(cfg: ScenarioConfig, styles=STYLES_ALL,
          strategies=("nash", "stackelberg")) -> list[tuple[TraceLog, RunMetrics]]:
    """Every style x strategy combination for one scenario, strategy-major
    and repeated names included; each style runs one `_runs` loop."""
    _check_names(styles, strategies)
    runs = {sty: _runs(cfg, sty, strategies) for sty in dict.fromkeys(styles)}
    traces = [runs[sty][strat] for strat in strategies for sty in styles]
    return [(trace, summarize(trace)) for trace in traces]


def comparison_csv(metrics: list[RunMetrics]) -> str:
    """Side-by-side table over runs, one row per run."""
    cols = ("scenario", "style", "strategy", "t_commit", "sigma_commit",
            "merged", "t_merge_done", "final_lane", "rms_safety",
            "rms_comfort", "rms_efficiency", "rms_total", "min_clearance",
            "max_field", "aborted", "maxiter_steps")
    lines = [",".join(cols)]
    lines += [",".join(_fmt(getattr(m, c)) for c in cols) for m in metrics]
    return "\n".join(lines) + "\n"
