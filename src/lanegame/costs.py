"""Lane-change decision costs.

A candidate decision is a pair (sigma, a_x): stay, move one lane left, or
move one lane right, together with a longitudinal acceleration held for
the decision horizon. Costs are evaluated on constant-acceleration
projections of every involved car, not on the instantaneous scene; the
safety terms take their worst value along the projection so a candidate
cannot score well by teleporting past a conflict. The ego's and the
adjacent car's costs come from one evaluation: each payoff call projects
every car once, and merge partners share the one lateral pair term.

Sign conventions for the velocity gates:
  longitudinal: dv = v_lead - v_ego, penalized only while closing (dv < 0)
  lateral:      dv = v_ego - v_adjacent, penalized only when slower (dv < 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .styles import StyleProfile

# Nominal duration of one lane-change maneuver, s.
T_LC = 3.0
# Decision evaluation horizon, s.
T_DM = 3.0
# Sample count for worst-point safety evaluation along the horizon.
K_SAMPLES = 7

INF = math.inf


@dataclass(frozen=True)
class DecisionAction:
    """One candidate: sigma in {-1, 0, +1} (left, stay, right) and a_x."""

    sigma: int
    a_x: float

    def __post_init__(self) -> None:
        if self.sigma not in (-1, 0, 1):
            raise ValueError("sigma must be -1, 0, or +1")


@dataclass(frozen=True)
class CostGains:
    kappa_v_lon: float = 1.0    # longitudinal closing-speed gain
    kappa_s_lon: float = 100.0  # longitudinal gap gain
    kappa_v_lat: float = 1.0    # lateral closing-speed gain
    kappa_s_lat: float = 100.0  # lateral gap gain
    kappa_ax: float = 1.0       # longitudinal comfort gain
    kappa_ay: float = 1.0       # lateral comfort gain
    epsilon: float = 0.01       # gap denominator guard, m^2
    l_v: float = 5.0            # vehicle-length margin subtracted from gaps, m

    def __post_init__(self) -> None:
        gains = (self.kappa_v_lon, self.kappa_s_lon, self.kappa_v_lat,
                 self.kappa_s_lat, self.kappa_ax, self.kappa_ay)
        if any(g < 0 for g in gains):
            raise ValueError("cost gains must be nonnegative")
        if self.epsilon <= 0 or self.l_v <= 0:
            raise ValueError("epsilon and l_v must be positive")


@dataclass(frozen=True)
class CostBreakdown:
    j_ds: float  # safety
    j_rc: float  # comfort
    j_pe: float  # efficiency
    total: float

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.total)


INFEASIBLE = CostBreakdown(j_ds=INF, j_rc=INF, j_pe=INF, total=INF)


@dataclass(frozen=True)
class KinematicState:
    """Point-mass view of one car: station along its lane and speed."""

    s: float
    v: float


@dataclass
class LaneView:
    """What the decision layer knows about one lane."""

    lead: KinematicState | None = None      # nearest non-strategic car ahead of ego
    adjacent: KinematicState | None = None  # the game opponent on this lane, if any
    ac_lead: KinematicState | None = None   # nearest car ahead of that opponent
    adjacent_v_ref: float | None = None     # the opponent's own cruise speed
    v_min: float = 0.0
    v_max: float = 25.0


@dataclass
class NeighborView:
    """Per-lane scene summary handed to the cost and game layers."""

    lanes: dict[int, LaneView]
    lane_width: float = 4.0
    # Nominal flow speed anchoring desired speeds on lanes with no lead.
    flow_ref: float = 20.0
    # Remaining distance to a lane's end station, by lane; absent = endless.
    end_remaining: dict[int, float] = field(default_factory=dict)
    a_end: float = 3.0       # comfortable decel shaping the end-of-lane speed cap
    end_margin: float = 30.0  # distance reserved for the merge itself, m
    a_brake: float = 6.0     # emergency decel for the keep-lane cutoff

    def has_lane(self, lane: int) -> bool:
        return lane in self.lanes

    def lead(self, lane: int) -> KinematicState | None:
        return self.lanes[lane].lead if lane in self.lanes else None

    def adjacent(self, lane: int) -> KinematicState | None:
        return self.lanes[lane].adjacent if lane in self.lanes else None

    def remaining(self, lane: int) -> float:
        return self.end_remaining.get(lane, INF)

    def v_cap(self, lane: int, ds_ahead=0.0):
        """Attainable speed on a lane at a point ds_ahead meters up the road.

        On a lane that ends the cap falls off as the square-root braking
        profile at a_end (> 0) toward the end margin; on an endless lane
        it is the lane limit v_max. Broadcasts over ds_ahead.
        """
        v_max, rem = self.lanes[lane].v_max, self.remaining(lane)
        if math.isinf(rem):
            return v_max if np.ndim(ds_ahead) == 0 else np.full(np.shape(ds_ahead), v_max)
        run = np.maximum(rem - np.asarray(ds_ahead, dtype=float) - self.end_margin, 0.0)
        return np.minimum(v_max, np.sqrt(2.0 * self.a_end * run))

    def keep_lane_blocked(self, lane: int, v: float) -> bool:
        """True when staying on an ending lane can no longer be offered.

        Cutoff: remaining distance below the braking distance at the
        current speed plus the merge margin.
        """
        rem = self.remaining(lane)
        if not math.isfinite(rem):
            return False
        return rem < v * v / (2.0 * self.a_brake) + self.end_margin


def lane_change_lat_accel(w_lane: float, t_lc: float = T_LC) -> float:
    """Peak lateral acceleration of a one-lane change of width w_lane.

    The lateral path y = w (t/T - sin(2 pi t/T) / (2 pi)) over T = t_lc
    has the sine acceleration profile 2 pi w / T^2 sin(2 pi t/T), whose
    peak is 2 pi w / T^2.
    """
    return 2.0 * math.pi * w_lane / (t_lc * t_lc)


def propagate(s, v, a, t):
    """Constant-acceleration projection with a stop at v = 0.

    Broadcasts over all arguments; returns (position, velocity) arrays.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    neg = a < 0
    t_stop = np.where(neg, v / np.where(neg, -a, 1.0), INF)
    stopped = t >= t_stop
    pos_free = s + v * t + 0.5 * a * t * t
    pos_hold = s + np.where(neg, v * v / (2.0 * np.where(neg, -a, 1.0)), 0.0)
    pos = np.where(stopped, pos_hold, pos_free)
    vel = np.maximum(v + a * t, 0.0)
    return pos, vel


def _gap_term(dv, dist, g: CostGains, lateral: bool):
    """Safety integrand: closing-speed penalty plus inverse-square gap.

    The lateral gain pair applies between the ego and its merge partner,
    the longitudinal pair between a car and the car it follows.
    """
    if lateral:
        kv, ks = g.kappa_v_lat, g.kappa_s_lat
    else:
        kv, ks = g.kappa_v_lon, g.kappa_s_lon
    gap = np.maximum(np.abs(dist) - g.l_v, 0.0)
    closing = np.where(dv < 0.0, 1.0, 0.0)
    return kv * closing * dv * dv + ks / (gap * gap + g.epsilon)


def longitudinal_safety_cost(ego: KinematicState, lead: KinematicState | None,
                             g: CostGains) -> float:
    """Instantaneous following risk against the lead car on the same lane."""
    if lead is None:
        return 0.0
    return float(_gap_term(lead.v - ego.v, lead.s - ego.s, g, lateral=False))


def lateral_safety_cost(ego: KinematicState, adjacent: KinematicState | None,
                        g: CostGains) -> float:
    """Instantaneous merge risk against the adjacent car on the target lane.

    The caller applies the sigma^2 gate; absent adjacent car means no
    interaction and zero cost.
    """
    if adjacent is None:
        return 0.0
    return float(_gap_term(ego.v - adjacent.v, adjacent.s - ego.s, g, lateral=True))


def comfort_cost(a_x, a_y, sigma: int, g: CostGains):
    """Longitudinal plus sigma^2-gated lateral acceleration penalty. Broadcasts."""
    return g.kappa_ax * a_x * a_x + sigma * sigma * g.kappa_ay * a_y * a_y


def desired_speed(v_limit, lead_v, v_factor: float, anchor_default):
    """Style-shaped speed target on a lane.

    The target sits between an anchor and the lane limit: the anchor is
    a slower lead when one exists, otherwise the nominal flow speed.
    Assertive drivers (v_factor near 1) aim near the limit, planning to
    pass or press; timid drivers settle onto the anchor. The limit here
    is the static lane bound: an end-of-lane cap must stay out of it so
    that riding a dying lane keeps hurting. Broadcasts; the result never
    exceeds the limit.
    """
    v_limit = np.asarray(v_limit, dtype=float)
    lead_v = np.asarray(lead_v, dtype=float)
    fallback = np.minimum(np.asarray(anchor_default, dtype=float), v_limit)
    follow = np.isfinite(lead_v) & (lead_v < v_limit)
    anchor = np.where(follow, np.where(follow, lead_v, 0.0), fallback)
    return anchor + v_factor * (v_limit - anchor)


def _sample_times(horizon: float) -> np.ndarray:
    return np.linspace(0.0, horizon, K_SAMPLES)


def _pair_parts(ego: KinematicState, ego_lane: int, sigma: int, a_e,
                ego_style: StyleProfile | None, ac: KinematicState | None,
                ac_lane: int | None, a_a, ac_style: StyleProfile | None,
                nb: NeighborView, g: CostGains, horizon: float):
    """Safety/comfort/efficiency arrays of the ego and the adjacent car.

    Every car is projected once: the ego over a_e, the adjacent car over
    a_a (the two broadcast against each other) and, on keep-lane, each
    follower's lead at its constant speed. When sigma moves the ego onto
    the adjacent car's lane the two are merge partners and both pay the
    one lateral pair term; otherwise each follows its own lead. The
    adjacent car's comfort covers only its longitudinal acceleration: it
    is not the one swerving. Returns (ego parts, adjacent parts), each a
    (j_ds, j_rc, j_pe) triple broadcasting to the shape of a_e and a_a,
    or None for a player whose style is not given.
    """
    ts = _sample_times(horizon)
    a_e = np.asarray(a_e, dtype=float)
    a_a = np.asarray(a_a, dtype=float)
    se, ve = propagate(ego.s, ego.v, a_e[..., None], ts)
    if ac is not None:
        sa, va = propagate(ac.s, ac.v, a_a[..., None], ts)
    pair = None
    if sigma != 0 and ac is not None and ego_lane + sigma == ac_lane:
        pair = np.max(_gap_term(ve - va, sa - se, g, lateral=True), axis=-1)

    def safety(lead, s, v):
        # Merge partners share the pair term; a car keeping its lane
        # follows its lead, and a car moving to a free lane pays nothing.
        if pair is not None:
            return pair
        if sigma != 0 or lead is None:
            return 0.0
        sl, vl = propagate(lead.s, lead.v, 0.0, ts)
        return np.max(_gap_term(vl - v, sl - s, g, lateral=False), axis=-1)

    ego_parts = ac_parts = None
    if ego_style is not None:
        target = ego_lane + sigma
        lead_t = nb.lead(target)
        v_bar = desired_speed(nb.lanes[target].v_max,
                              lead_t.v if lead_t is not None else INF,
                              ego_style.v_factor, nb.flow_ref)
        ego_parts = (safety(nb.lead(ego_lane), se, ve),
                     comfort_cost(a_e, lane_change_lat_accel(nb.lane_width), sigma, g),
                     np.square(ve[..., -1] - v_bar))
    if ac_style is not None and ac is not None:
        lane = nb.lanes[ac_lane]
        v_ref = lane.adjacent_v_ref if lane.adjacent_v_ref is not None else ac.v
        lead_v = lane.ac_lead.v if lane.ac_lead is not None else INF
        if pair is not None:
            # A merged ego that ends up ahead becomes this car's lead.
            lead_v = np.where(se[..., -1] > sa[..., -1], ve[..., -1], lead_v)
        # The adjacent car defends its own cruise speed, not the lane limit.
        v_bar = desired_speed(min(lane.v_max, v_ref), lead_v, ac_style.v_factor, v_ref)
        ac_parts = (safety(lane.ac_lead, sa, va), comfort_cost(a_a, 0.0, 0, g),
                    np.square(va[..., -1] - v_bar))
    return ego_parts, ac_parts


def combine(style: StyleProfile, j_ds, j_rc, j_pe):
    return style.w_ds * np.asarray(j_ds) + style.w_rc * np.asarray(j_rc) \
        + style.w_pe * np.asarray(j_pe)


def ego_cost(ego: KinematicState, ego_lane: int, action: DecisionAction,
             opponent_accels: dict[int, float], neighbors: NeighborView,
             style: StyleProfile, gains: CostGains,
             horizon: float = T_DM) -> CostBreakdown:
    """Full cost breakdown of one ego candidate against fixed opponents."""
    target = ego_lane + action.sigma
    if not neighbors.has_lane(target):
        return INFEASIBLE
    if action.sigma == 0 and neighbors.keep_lane_blocked(ego_lane, ego.v):
        return INFEASIBLE
    partner = neighbors.adjacent(target) if action.sigma != 0 else None
    parts, _ = _pair_parts(ego, ego_lane, action.sigma, action.a_x, style,
                           partner, target, opponent_accels.get(target, 0.0),
                           None, neighbors, gains, horizon)
    return CostBreakdown(*map(float, parts), float(combine(style, *parts)))


def ac_cost(ac: KinematicState, ac_lane: int, ego: KinematicState,
            ego_lane: int, ego_action: DecisionAction, ac_accel: float,
            neighbors: NeighborView, ac_style: StyleProfile, gains: CostGains,
            horizon: float = T_DM) -> CostBreakdown:
    """Cost breakdown of one adjacent-car response to one ego candidate."""
    _, parts = _pair_parts(ego, ego_lane, ego_action.sigma, ego_action.a_x,
                           None, ac, ac_lane, ac_accel, ac_style, neighbors,
                           gains, horizon)
    return CostBreakdown(*map(float, parts), float(combine(ac_style, *parts)))


def pair_payoff_matrices(ego: KinematicState, ego_lane: int, sigma: int,
                         ego_accels: np.ndarray, ac: KinematicState | None,
                         ac_lane: int | None, ac_accels: np.ndarray,
                         neighbors: NeighborView, ego_style: StyleProfile,
                         ac_style: StyleProfile, gains: CostGains,
                         horizon: float = T_DM) -> tuple[np.ndarray, np.ndarray]:
    """Cost matrices (ego, adjacent) for one sigma block of the game.

    Rows index ego accelerations, columns the adjacent car's. Both
    matrices come from one parts evaluation, so every car is projected
    once per call and a merge's pair term is computed once. Without an
    adjacent car the ego column is constant and the opponent matrix zero.
    """
    shape = (len(ego_accels), len(ac_accels))
    ego_parts, ac_parts = _pair_parts(
        ego, ego_lane, sigma, np.asarray(ego_accels, dtype=float)[:, None],
        ego_style, ac, ac_lane, np.asarray(ac_accels, dtype=float)[None, :],
        ac_style, neighbors, gains, horizon)
    j_ego = combine(ego_style, *ego_parts)
    j_ac = 0.0 if ac_parts is None else combine(ac_style, *ac_parts)
    return np.array(np.broadcast_to(j_ego, shape)), np.array(np.broadcast_to(j_ac, shape))
