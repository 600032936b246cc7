"""Lane-change decision costs.

A candidate decision is a pair (sigma, a_x): stay, move one lane left, or
move one lane right, together with a longitudinal acceleration held for
the decision horizon. Costs are evaluated on constant-acceleration
projections of every involved car, not on the instantaneous scene; the
safety terms take their worst value along the projection so a candidate
cannot score well by teleporting past a conflict. One payoff call
scores all side games of a decision for both players, each opponent's
accelerations a block of columns. Every car is projected once; merge
partners share one lateral pair term, and off the merge cells each
player's cost depends on its own action alone, so only the merge cells
are evaluated per cell. A cell's breakdown is read from those parts by
`breakdown_at`, and `ego_cost`/`ac_cost` are the same call on one cell.
The ego's off-merge parts have one broadcasting definition, `_ego_parts`:
on a payoff call's rows, on one candidate (`ego_cost` with no merge
partner), or on the whole (sigma x acceleration) grid of a solo decision.

A projection has two stages. Its acceleration-only terms are cached
read-only per (accelerations, horizon) by `projection_terms`, keyed on
the accelerations' bytes so that a grid holding -0.0 keeps its own;
`project` then combines them with the cars' states. `propagate` runs
both stages, one formula in one operation order. The game layer
projects the ego and every opponent over a grid in one call. The leads
a payoff call scores are not projected: they coast at their speed,
s + v t.

Sign conventions for the velocity gates:
  longitudinal: dv = v_lead - v_ego, penalized only while closing (dv < 0)
  lateral:      dv = v_ego - v_adjacent, penalized only when slower (dv < 0)
"""

from __future__ import annotations

import functools
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
        profile at a_end (> 0) toward the end margin, broadcasting over
        ds_ahead; on an endless lane it is the lane limit v_max, a scalar.
        """
        v_max, rem = self.lanes[lane].v_max, self.remaining(lane)
        if math.isinf(rem):
            return v_max
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


def lane_change_lat_accel(w_lane: float) -> float:
    """Peak lateral acceleration of a one-lane change of width w_lane.

    The lateral path y = w (t/T - sin(2 pi t/T) / (2 pi)) over T = T_LC
    has the sine acceleration profile 2 pi w / T^2 sin(2 pi t/T), whose
    peak is 2 pi w / T^2.
    """
    return 2.0 * math.pi * w_lane / (T_LC * T_LC)


def propagate(s, v, a, t):
    """Constant-acceleration projection with a stop at v = 0.

    Broadcasts over all arguments; returns (position, velocity) arrays.
    Runs both stages of the projection: `_terms` of (a, t), then `project`.
    """
    return project(_terms(np.asarray(a, dtype=float), np.asarray(t, dtype=float)),
                   np.asarray(s, dtype=float), np.asarray(v, dtype=float))


def _terms(a, t):
    """The acceleration-only terms of a projection: (t, a < 0, brake rate,
    0.5·a·t·t, 2·brake, a·t)."""
    neg = a < 0
    brake = np.where(neg, -a, 1.0)
    return t, neg, brake, 0.5 * a * t * t, 2.0 * brake, a * t


@functools.lru_cache(maxsize=16)
def projection_terms(accels: bytes, horizon: float):
    """`_terms` of the float64 accelerations packed in `accels`, as a column,
    at sample_times(horizon); read-only and shared per key. Keyed on bytes,
    not values, so a grid holding -0.0 never shares a grid holding 0.0."""
    terms = _terms(np.frombuffer(accels)[:, None], sample_times(horizon))
    for x in terms:
        x.flags.writeable = False
    return terms


def project(terms, s, v):
    """The state stage of a projection: (position, velocity) of the states
    (s, v) under `terms`, broadcasting s and v against them. A braking car
    stops at t_stop = v / brake and holds its station."""
    t, neg, brake, half_at2, two_brake, at = terms
    stopped = t >= np.where(neg, v / brake, INF)
    pos = np.where(stopped, s + np.where(neg, v * v / two_brake, 0.0),
                   s + v * t + half_at2)
    return pos, np.maximum(v + at, 0.0)


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


def _worst(x):
    """The largest value along each row of x. NumPy reduces a short last
    axis row by row, so this reduces the first axis of a transposed copy,
    a few times faster on the (merge cells, K) samples."""
    return np.ascontiguousarray(x.T).max(axis=0)


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
    anchor = np.where(follow, lead_v, fallback)
    return anchor + v_factor * (v_limit - anchor)


@functools.lru_cache(maxsize=16)
def sample_times(horizon: float) -> np.ndarray:
    """The K_SAMPLES times a decision is projected at, read-only; the
    last is `horizon` itself."""
    ts = np.linspace(0.0, horizon, K_SAMPLES)
    ts.flags.writeable = False
    return ts


_NO_LANE = LaneView(v_max=math.nan)  # what `_ego_parts` reads of a lane the road lacks
# Merge cells whose pair term is evaluated at once: bounds the (cells, K)
# temporaries of a large grid to a few MB.
PAIR_CHUNK = 4096


def _behind(lead: KinematicState, s, v, g: CostGains, horizon: float):
    """Worst following term along each row of the projection (s, v), at
    sample_times(horizon), behind a lead that coasts at its speed."""
    return _worst(_gap_term(lead.v - v, lead.s + lead.v * sample_times(horizon) - s, g,
                            lateral=False))


def _ego_parts(ego_lane: int, sigma, a_x, s, v, style: StyleProfile,
               nb: NeighborView, g: CostGains, horizon: float):
    """The ego's parts off the merge cells, (j_ds, j_rc, j_pe, total).

    s and v are the ego's projection at sample_times(horizon), a row
    (..., K) per acceleration a_x. The lane moves sigma broadcast against
    a_x: one per row on given rows, or a column of moves against the row
    of accelerations for the whole (sigma x acceleration) grid. The ego
    follows its lead on keep-lane candidates, pays longitudinal and
    sigma^2-gated lateral comfort, and aims at the desired speed of its
    target lane; a lane the road lacks has none, so a move onto it scores
    NaN efficiency and total.
    """
    sigma = np.asarray(sigma)
    keep = sigma == 0
    lead = nb.lead(ego_lane)
    rc = comfort_cost(a_x, lane_change_lat_accel(nb.lane_width), sigma, g)
    ds = (np.zeros(rc.shape) if lead is None or not keep.any()
          else np.where(keep, _behind(lead, s, v, g, horizon), 0.0))
    moves = sorted(set(sigma.ravel().tolist()))
    targets = [nb.lanes.get(ego_lane + m, _NO_LANE) for m in moves]
    v_bar = desired_speed([t.v_max for t in targets],
                          [INF if t.lead is None else t.lead.v for t in targets],
                          style.v_factor, nb.flow_ref)
    pe = np.square(v[:, -1] - v_bar[np.asarray(moves).searchsorted(sigma)])
    return ds, rc, pe, combine(style, ds, rc, pe)


def _pair_parts(ego: KinematicState, ego_lane: int, sigma, a_e,
                ego_style: StyleProfile, acs, ac_lanes, widths, a_a, ac_styles,
                nb: NeighborView, g: CostGains, horizon: float, tracks=None):
    """Safety/comfort/efficiency parts of the ego and the opponents.

    Rows are the ego accelerations a_e, each with its lane move in sigma
    (one for all rows, or one per row). Columns are the opponents'
    accelerations a_a in blocks: acs[b] on lane ac_lanes[b] owns the next
    widths[b] columns, with its state, lead, cruise speed and style; there
    is at least one opponent (`_ego_parts` scores the ego alone). Each
    car is projected once, unless `tracks` gives the rows' and the
    columns' projections at sample_times(horizon), ((rows, K), (columns,
    K)) pairs (s, v); the leads coast at their speed, s + v t.

    Where sigma moves the ego onto a column's lane the two are merge
    partners and both pay the one lateral pair term: a merge cell.
    Elsewhere the opponent follows its own lead, and the ego takes its
    `_ego_parts`: it follows its lead on keep-lane and pays nothing on a
    move to a lane whose car is not in that column. An opponent's comfort
    covers only its longitudinal acceleration: it is not the one
    swerving. So off the merge cells the ego's parts depend on the row
    alone and an opponent's on the column alone.

    Returns (cells, ego, ac): the merge cells as (rows, columns) index
    arrays, and per player (j_ds, j_rc, j_pe, total), each an (off, on)
    pair: `off` broadcasts to the matrix shape, a column (rows, 1) for
    the ego and a row (columns,) for the opponents, and `on` holds the
    merge cells' values (None where they take `off`). `breakdown_at`
    reads one cell of them.
    """
    a_e = np.asarray(a_e, dtype=float).reshape(-1)
    a_a = np.asarray(a_a, dtype=float).reshape(-1)
    sigma = np.zeros(a_e.shape, dtype=int) + sigma
    target = ego_lane + sigma
    moving = sigma != 0
    if tracks is not None:
        (se, ve), (sa, va) = tracks
    else:
        ts = sample_times(horizon)
        se, ve = propagate(ego.s, ego.v, a_e[:, None], ts)
        sa, va = propagate(np.repeat([ac.s for ac in acs], widths)[:, None],
                           np.repeat([ac.v for ac in acs], widths)[:, None],
                           a_a[:, None], ts)
    lane_c = np.asarray(ac_lanes).repeat(widths)
    cells = ri, ci = (moving[:, None] & (target[:, None] == lane_c)).nonzero()
    pair = np.empty(len(ri))
    for lo in range(0, len(ri), PAIR_CHUNK):
        r, c = ri[lo:lo + PAIR_CHUNK], ci[lo:lo + PAIR_CHUNK]
        pair[lo:lo + PAIR_CHUNK] = _worst(_gap_term(ve.take(r, 0) - va.take(c, 0),
                                                    sa.take(c, 0) - se.take(r, 0), g,
                                                    lateral=True))

    ds, rc, pe, j = _ego_parts(ego_lane, sigma, a_e, se, ve, ego_style, nb, g, horizon)
    ego_parts = ((ds[:, None], pair), (rc[:, None], None), (pe[:, None], None),
                 (j[:, None], combine(ego_style, pair, rc[ri], pe[ri])))
    n = len(a_a)
    block = np.arange(len(acs)).repeat(widths)
    lanes = [nb.lanes[lane] for lane in ac_lanes]
    # Per car: cruise speed, lane limit, its lead's speed, style.
    car = np.array([(ac.v if lv.adjacent_v_ref is None else lv.adjacent_v_ref,
                     lv.v_max, INF if lv.ac_lead is None else lv.ac_lead.v,
                     st.v_factor, st.w_ds, st.w_rc, st.w_pe)
                    for ac, lv, st in zip(acs, lanes, ac_styles)])
    # Every column, then every merge cell, in one evaluation; in a merge
    # cell, an ego that ends up ahead becomes the column car's lead.
    at = np.concatenate([np.arange(n), ci])
    v_ref, v_max, lead_v, v_fac, *w = car[block.take(at)].T
    ahead = se[:, -1].take(ri) > sa[:, -1].take(ci)
    lead_v[n:] = np.where(ahead, ve[:, -1].take(ri), lead_v[n:])
    # An opponent follows its lead unless every row merges with it.
    ds, hi = np.zeros(n), 0
    for lane, lv, width in zip(ac_lanes, lanes, widths):
        lo, hi = hi, hi + width
        if lv.ac_lead is not None and not (moving & (target == lane)).all():
            ds[lo:hi] = _behind(lv.ac_lead, sa[lo:hi], va[lo:hi], g, horizon)
    rc = comfort_cost(a_a, 0.0, 0, g)
    # The adjacent car defends its own cruise speed, not the lane limit.
    pe = np.square(va[:, -1].take(at) - desired_speed(np.minimum(v_max, v_ref), lead_v,
                                                      v_fac, v_ref))
    j = w[0] * np.concatenate([ds, pair]) + w[1] * rc.take(at) + w[2] * pe
    ac_parts = ((ds, pair), (rc, None), (pe[:n], pe[n:]), (j[:n], j[n:]))
    return cells, ego_parts, ac_parts


def _spread(part, cells, shape):
    """One part as a (rows, columns) matrix: `off` broadcast, `on` at the merge cells."""
    off, on = part
    out = np.empty(shape)
    out[...] = off
    out[cells] = on
    return out


def breakdown_at(cells, parts, r, c) -> CostBreakdown:
    """One player's breakdown at cell (r, c) of a `_pair_parts` call: each
    part's `on` where (r, c) is a merge cell, else its `off` at row r (the
    ego's parts) or at column c (an opponent's)."""
    k = ((cells[0] == r) & (cells[1] == c)).nonzero()[0]
    return CostBreakdown(*(float(on[k[0]]) if len(k) and on is not None
                           else float(off[r, 0] if off.ndim == 2 else off[c])
                           for off, on in parts))


def combine(style: StyleProfile, j_ds, j_rc, j_pe):
    return style.w_ds * j_ds + style.w_rc * j_rc + style.w_pe * j_pe


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
    if partner is None:
        a_x = np.array([action.a_x])
        s, v = propagate(ego.s, ego.v, a_x[:, None], sample_times(horizon))
        return CostBreakdown(*(float(x[0]) for x in _ego_parts(
            ego_lane, action.sigma, a_x, s, v, style, neighbors, gains, horizon)))
    cells, parts, _ = _pair_parts(ego, ego_lane, action.sigma, action.a_x, style,
                                  (partner,), (target,), (1,),
                                  opponent_accels.get(target, 0.0), (style,),
                                  neighbors, gains, horizon)
    return breakdown_at(cells, parts, 0, 0)


def ac_cost(ac: KinematicState, ac_lane: int, ego: KinematicState,
            ego_lane: int, ego_action: DecisionAction, ac_accel: float,
            neighbors: NeighborView, ac_style: StyleProfile, gains: CostGains,
            horizon: float = T_DM) -> CostBreakdown:
    """Cost breakdown of one adjacent-car response to one ego candidate."""
    # An ego move off the road merges with no one: to the opponent, a keep-lane.
    sigma = ego_action.sigma if neighbors.has_lane(ego_lane + ego_action.sigma) else 0
    cells, _, parts = _pair_parts(ego, ego_lane, sigma, ego_action.a_x,
                                  ac_style, (ac,), (ac_lane,), (1,), ac_accel,
                                  (ac_style,), neighbors, gains, horizon)
    return breakdown_at(cells, parts, 0, 0)


def pair_payoff_matrices(ego: KinematicState, ego_lane: int, sigma,
                         ego_accels, ac, ac_lane, ac_accels,
                         neighbors: NeighborView, ego_style: StyleProfile,
                         ac_style, gains: CostGains, horizon: float = T_DM, *,
                         widths=None, tracks=None):
    """Cost matrices (ego, opponents) of one or more side games, and the
    ego's breakdown reader.

    Rows index ego accelerations, each with its own lane move when sigma
    is an array (a scalar sigma applies to every row). Columns index the
    opponent's accelerations: ac on lane ac_lane with style ac_style.
    Several side games share one call when widths is given: ac, ac_lane
    and ac_style then list one opponent each, and ac_accels holds their
    columns block after block, widths[b] of them for opponent b. A
    caller restricts each game to its own rows and its block's columns.
    Both matrices come from one parts evaluation, so every car is
    projected at most once per call (the ego and the opponents not at
    all when `tracks` gives their projections, see `_pair_parts`) and a
    merge's pair term is computed once. The third value, called with a
    cell (r, c), gives the ego's `CostBreakdown` there (`breakdown_at`).
    """
    if widths is None:
        ac, ac_lane, ac_style, widths = (ac,), (ac_lane,), (ac_style,), (len(ac_accels),)
    shape = (len(ego_accels), len(ac_accels))
    cells, ego_parts, ac_parts = _pair_parts(
        ego, ego_lane, sigma, ego_accels, ego_style, ac, ac_lane, widths, ac_accels,
        ac_style, neighbors, gains, horizon, tracks)
    return (_spread(ego_parts[3], cells, shape), _spread(ac_parts[3], cells, shape),
            functools.partial(breakdown_at, cells, ego_parts))
