"""Pure-strategy game solvers over finite action grids.

Two layers. The matrix cores work on plain cost matrices (rows = ego
candidates, columns = opponent accelerations) and know nothing about
driving; they carry the equilibrium logic and the documented index
tie-breaks. The scene wrappers enumerate feasible candidates as arrays:
the ego and all adjacent cars are projected over the grid in one
stacked call (one call per grid when the ego's and the opponents'
differ), sampled over the horizon so that the same projection serves
the scoring, and the feasible candidates are picked by mask from
preference orders cached per grid. One function plays a game per
adjacent car on the ego's candidates, enumerated once per decision:
each side game keeps the rows whose sigma does not move the ego onto
another side's lane, so with a car on each side the left game keeps
sigma in {-1, 0} and the right one {0, +1}. Every side game of a
decision is scored in one payoff call: all candidates as rows, each
car's accelerations as its own block of columns. Each core then runs
on its game's rows and block; the winning cell maps back to actions,
and the ego's breakdown there comes from the reader that call
returned, which reads the cell from the payoff parts. The solo game
makes no payoff call: it scores the ego's whole grid at once and takes
the first lowest total among the feasible cells.

Tie-break order everywhere: lower ego cost, then lower row index, then
lower column index. Candidate lists are ordered so that the row index
encodes the preference (smaller |a_x| first, then sigma in 0, -1, +1
order), which makes the index tie-break implement the documented one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .costs import (CostBreakdown, CostGains, DecisionAction, KinematicState,
                    NeighborView, T_DM, _ego_parts, pair_payoff_matrices, project,
                    projection_terms)
# Not called here; bench/layers.py patches them on this module for its
# costs.breakdown layer, until a benchmark change drops that layer.
from .costs import ac_cost, ego_cost  # noqa: F401
from .errors import InfeasibleDecisionError
from .styles import StyleProfile

# Preference rank of sigma -1, 0, +1, indexed by sigma + 1: keep, left, right.
_SIGMA_RANK = np.array([1, 0, 2])
_VTOL = 1e-9
# Relative tolerance of the Stackelberg follower's best-response set.
_BRTOL = 1e-9


ACCEL_RANGE = (-4.0, 3.0, 0.5)  # default grid: a_min, a_max, step, m/s^2
# Largest grid, in either spelling: every decision step scores every ego
# candidate against every opponent acceleration. By tracemalloc a
# two-opponent decision peaks at about 75 bytes per (ego candidates x
# accelerations), so near 165 MB at this cap (2,189 candidates).
MAX_ACCELS = 1000


def _check_count(n: int, what: str) -> None:
    if n > MAX_ACCELS:
        raise ValueError(f"{what} holds {n} accelerations, at most {MAX_ACCELS} allowed")


def accel_range(a_min: float, a_max: float, step: float) -> tuple[float, ...]:
    """Evenly spaced accelerations from a_min to a_max, both included; the
    step must divide a_max - a_min, to within rounding."""
    if step <= 0 or a_max < a_min:
        raise ValueError("need step > 0 and a_max >= a_min")
    n = int(round((a_max - a_min) / step))
    _check_count(n + 1, "range")  # before building it
    if abs(n * step - (a_max - a_min)) > 1e-9 * max(1.0, a_max - a_min):
        raise ValueError(f"step {step} does not divide a_max - a_min = {a_max - a_min}")
    return tuple(round(a_min + i * step, 9) for i in range(n + 1))


@dataclass(frozen=True)
class ActionGrid:
    """Finite action menu: acceleration samples and allowed sigmas. The
    speed band a candidate must end in belongs to its lane."""

    accelerations: tuple[float, ...] = accel_range(*ACCEL_RANGE)
    sigmas: tuple[int, ...] = (-1, 0, 1)

    def __post_init__(self) -> None:
        _check_count(len(self.accelerations), "list")
        accs = tuple(float(a) for a in self.accelerations)
        object.__setattr__(self, "accelerations", accs)
        if not accs:
            raise ValueError("acceleration grid is empty")
        if any(b <= a for a, b in zip(accs, accs[1:])):
            raise ValueError("acceleration grid must be strictly ascending")
        if (not self.sigmas or any(s not in (-1, 0, 1) for s in self.sigmas)
                or len(set(self.sigmas)) != len(self.sigmas)):
            raise ValueError("sigmas must be a non-empty subset of {-1, 0, +1}, "
                             "each listed once")

    def restrict_sigmas(self, allowed) -> "ActionGrid":
        kept = tuple(s for s in self.sigmas if s in allowed)
        if not kept:
            raise ValueError("sigma restriction leaves an empty set")
        return replace(self, sigmas=kept)

    @functools.cached_property
    def _packed(self) -> bytes:
        """The accelerations as float64 bytes: the key of
        costs.projection_terms, under which -0.0 and 0.0 stay apart."""
        return np.array(self.accelerations).tobytes()

    @functools.cached_property
    def _orders(self):
        """Read-only preference orders, made on first use: the
        accelerations; the ego's order of every (sigma, a_x) pair (smaller
        |a_x|, then sigma rank, then a_x) as flat indices, sigma position
        times accelerations plus acceleration index, with each pair's sigma
        and acceleration index; and an opponent's order of the
        accelerations (smaller |a|, then a)."""
        accs = np.frombuffer(self._packed)
        n = len(accs)
        a_x = np.tile(accs, len(self.sigmas))
        sigma = np.repeat(np.asarray(self.sigmas, dtype=int), n)
        ego = np.lexsort((a_x, _SIGMA_RANK[sigma + 1], np.abs(a_x)))
        orders = (accs, ego, sigma[ego], ego % n, np.lexsort((accs, np.abs(accs))))
        for x in orders:
            x.flags.writeable = False
        return orders


@dataclass
class GameSolution:
    ego_action: DecisionAction
    ac_actions: dict[int, float]
    ego_cost: CostBreakdown
    multiplicity: int
    security_fallback: bool = False
    side: int | None = None  # winning branch of a two-opponent solve


def _envelope(nb, lanes, s, s_end, v_end):
    """Mask of end speeds inside each lane's band, a row per lane, the
    band's upper bound the lane cap taken at each projected station
    s_end; and (lo, hi), a row each. s_end and v_end are one row for all
    lanes or one row per lane, s broadcasting against s_end."""
    ds = s_end - s
    lo = np.array([nb.lanes[lane].v_min for lane in lanes])[:, None]
    hi = np.empty((len(lanes), ds.shape[-1]))
    for i, lane in enumerate(lanes):
        hi[i] = nb.v_cap(lane, ds if ds.ndim == 1 else ds[i])
    return (lo - _VTOL <= v_end) & (v_end <= hi + _VTOL), lo, hi


def _project(cars, grid: ActionGrid, horizon: float):
    """Every car projected over the grid's accelerations at
    sample_times(horizon), in one call: (s, v), each (cars, accelerations, K)."""
    return project(projection_terms(grid._packed, horizon),
                   np.array([c.s for c in cars])[:, None, None],
                   np.array([c.v for c in cars])[:, None, None])


def _ego_mask(ego: KinematicState, ego_lane: int, grid: ActionGrid,
              nb: NeighborView, s_end, v_end):
    """The ego's feasible cells, a (sigmas, accelerations) mask of the grid:
    the target lane exists, keeping an ending lane is still allowed, and
    the end of the ego's projection, (s_end, v_end) per acceleration,
    stays inside the speed band of the target lane."""
    offered = [i for i, sg in enumerate(grid.sigmas) if nb.has_lane(ego_lane + sg)
               and not (sg == 0 and nb.keep_lane_blocked(ego_lane, ego.v))]
    ok = np.zeros((len(grid.sigmas), len(s_end)), dtype=bool)
    ok[offered] = _envelope(nb, [ego_lane + grid.sigmas[i] for i in offered], ego.s,
                            s_end, v_end)[0]
    return ok


def _ego_rows(ego: KinematicState, ego_lane: int, grid: ActionGrid,
              nb: NeighborView, horizon: float, track=None):
    """The ego's feasible candidates (`_ego_mask`) in the grid's cached
    preference order, as (sigma, a_x) arrays, and their rows of the grid's
    projection (s, v) at sample_times(horizon), each (candidates, K);
    `track` passes in that projection when the caller has made it."""
    s, v = project(projection_terms(grid._packed, horizon), ego.s, ego.v) \
        if track is None else track
    accs, order, sigma, idx, _ = grid._orders
    keep = _ego_mask(ego, ego_lane, grid, nb, s[:, -1], v[:, -1]).reshape(-1)[order]
    sigma, idx = sigma[keep], idx[keep]
    return sigma, accs[idx], (s.take(idx, 0), v.take(idx, 0))


def _ac_columns(acs, ac_lanes, grid: ActionGrid, nb: NeighborView, horizon: float,
                track=None):
    """Every adjacent car's feasible accelerations, preference-ordered,
    laid one car's block after another: (block widths, accelerations,
    their rows of the cars' projection (s, v) over the grid at
    sample_times(horizon), each (columns, K)). `track` passes in that
    projection, (cars, accelerations, K) each, when the caller has made it.

    A car whose lane band excludes everything keeps the least-violating
    single action (ties to the smaller |a|, then the smaller a), so each
    game always has an opponent move.
    """
    s, v = _project(acs, grid, horizon) if track is None else track
    accs, *_, order = grid._orders
    v_end = v[..., -1]
    ok, lo, hi = _envelope(nb, ac_lanes, np.array([ac.s for ac in acs])[:, None],
                           s[..., -1], v_end)
    for i in (~ok.any(axis=1)).nonzero()[0]:
        violation = np.maximum(lo[i] - v_end[i], v_end[i] - hi[i])
        ok[i, np.lexsort((accs, np.abs(accs), violation))[0]] = True
    # Each car's feasible accelerations in the cached order, car by car.
    block, col = ok[:, order].nonzero()
    col = order.take(col)
    widths = np.bincount(block, minlength=len(acs)).tolist()
    return widths, accs[col], (s[block, col], v[block, col])


def ego_candidates(ego: KinematicState, ego_lane: int, grid: ActionGrid,
                   nb: NeighborView, horizon: float = T_DM) -> list[DecisionAction]:
    """Feasible (sigma, a_x) pairs in tie-break preference order; see
    `_ego_mask` for the rules."""
    sigma, a_x, _ = _ego_rows(ego, ego_lane, grid, nb, horizon)
    return [DecisionAction(sigma=sg, a_x=a) for sg, a in zip(sigma.tolist(), a_x.tolist())]


def ac_candidates(ac: KinematicState, ac_lane: int, grid: ActionGrid,
                  nb: NeighborView, horizon: float = T_DM) -> list[float]:
    """Feasible accelerations for an adjacent car, preference-ordered,
    with the fallback of `_ac_columns`."""
    return _ac_columns([ac], [ac_lane], grid, nb, horizon)[1].tolist()


def nash_2p_matrices(j_row: np.ndarray, j_col: np.ndarray) -> tuple[int, int, int, bool]:
    """Pure Nash cell of a bimatrix game; both players minimize.

    Returns (row, col, multiplicity, security_fallback). Among equilibria
    the cell with the lowest row-player cost wins, then lower row index,
    then lower column index. With no pure equilibrium the row player
    falls back to its security strategy (min over rows of the row-wise
    worst case) and the reported column is the worst-case response.
    """
    j_row = np.asarray(j_row, dtype=float)
    j_col = np.asarray(j_col, dtype=float)
    row_br = j_row == j_row.min(axis=0, keepdims=True)
    col_br = j_col == j_col.min(axis=1, keepdims=True)
    rows, cols = (row_br & col_br).nonzero()
    if rows.size == 0:
        worst = j_row.max(axis=1)
        r = int(worst.argmin())
        c = int(j_row[r].argmax())
        return r, c, 0, True
    # nonzero lists cells row by row, so the first lowest cost also has the
    # lowest row, then column.
    best = int(j_row[rows, cols].argmin())
    return int(rows[best]), int(cols[best]), int(rows.size), False


def stackelberg_2p_matrices(j_row: np.ndarray,
                            j_col: np.ndarray) -> tuple[int, int, int]:
    """Leader-follower cell: min over rows of the worst cost across the
    follower's best-response set.

    The follower's set per row holds every column within the relative
    tolerance _BRTOL of the row's minimum follower cost, so ties up to
    rounding count as best responses. Returns (row, col,
    multiplicity) where multiplicity counts rows achieving the leader
    value and col realizes the worst case on the chosen row.
    """
    j_row = np.asarray(j_row, dtype=float)
    j_col = np.asarray(j_col, dtype=float)
    m = j_col.min(axis=1, keepdims=True)
    br = j_col <= m + _BRTOL * np.maximum(1.0, np.abs(m))
    worst = np.where(br, j_row, -np.inf).max(axis=1)
    r = int(worst.argmin())
    in_set = br[r] & (j_row[r] == worst[r])
    c = int(in_set.argmax())
    mult = int((worst == worst[r]).sum())
    return r, c, mult


def _solve(kind, ego, ego_lane, sides, nb, ego_grid, ac_grid, ego_style,
           gains, horizon) -> GameSolution:
    """One game per side (lane, car, style) on the rows of the module
    docstring's rule; a side whose lane is absent or that keeps no row is
    skipped, and the lowest ego total decides. The ego and the cars of
    the sides whose lanes exist are projected in one stacked call per
    distinct grid. Every side game is scored in one payoff call, its
    columns one block per car, on the projections the enumeration made."""
    present = [side for side in sides if side[0] in nb.lanes]
    cars, ego_track = [ac for _, ac, _ in present], None
    if ego_grid._packed == ac_grid._packed:
        s, v = _project([ego, *cars], ego_grid, horizon)
        ego_track, ac_track = (s[0], v[0]), (s[1:], v[1:])
    else:
        ac_track = _project(cars, ac_grid, horizon)
    sigma, a_x, ego_track = _ego_rows(ego, ego_lane, ego_grid, nb, horizon, ego_track)
    target = ego_lane + sigma
    played = []
    for k, (ac_lane, ac, ac_style) in enumerate(present):
        rows = np.arange(len(sigma))
        for other, _, _ in sides:
            if other != ac_lane:
                rows = rows[target[rows] != other]
        if len(rows):
            played.append((ac_lane, ac, ac_style, rows, k))
    if not played:
        raise InfeasibleDecisionError("no feasible ego action")
    ac_lanes, acs, ac_styles, _, ks = zip(*played)
    if len(ks) < len(present):
        ac_track = tuple(x[list(ks)] for x in ac_track)
    widths, a_a, ac_track = _ac_columns(acs, ac_lanes, ac_grid, nb, horizon, ac_track)
    j_e, j_a, ego_at = pair_payoff_matrices(
        ego, ego_lane, sigma, a_x, acs, ac_lanes, a_a, nb, ego_style, ac_styles, gains,
        horizon, widths=widths, tracks=(ego_track, ac_track))
    ac_actions, results, hi = {}, [], 0
    for (ac_lane, _, _, rows, _), n in zip(played, widths):
        lo, hi = hi, hi + n
        # A game that keeps every row plays on views, not copies.
        sub = slice(None) if len(rows) == len(sigma) else rows
        if kind == "nash":
            r, c, mult, sec = nash_2p_matrices(j_e[sub, lo:hi], j_a[sub, lo:hi])
        else:
            r, c, mult = stackelberg_2p_matrices(j_e[sub, lo:hi], j_a[sub, lo:hi])
            sec = False
        r, c = rows[r], lo + c
        ac_actions[ac_lane] = float(a_a[c])
        results.append((ego_at(r, c), r, mult, sec, ac_lane - ego_lane))
    # min keeps the first of equal totals: an exact tie goes to the left.
    eb, r, mult, sec, side = min(results, key=lambda p: p[0].total)
    return GameSolution(ego_action=DecisionAction(sigma=int(sigma[r]), a_x=float(a_x[r])),
                        ac_actions=ac_actions, ego_cost=eb, multiplicity=mult,
                        security_fallback=sec, side=side if len(sides) == 2 else None)


def solve_nash_2p(ego: KinematicState, ego_lane: int, ac: KinematicState,
                  ac_lane: int, nb: NeighborView, ego_grid: ActionGrid,
                  ac_grid: ActionGrid, ego_style: StyleProfile,
                  ac_style: StyleProfile, gains: CostGains,
                  horizon: float = T_DM) -> GameSolution:
    """Mutual best response between the ego and one adjacent car."""
    return _solve("nash", ego, ego_lane, [(ac_lane, ac, ac_style)], nb,
                  ego_grid, ac_grid, ego_style, gains, horizon)


def solve_stackelberg_2p(ego: KinematicState, ego_lane: int, ac: KinematicState,
                         ac_lane: int, nb: NeighborView, ego_grid: ActionGrid,
                         ac_grid: ActionGrid, ego_style: StyleProfile,
                         ac_style: StyleProfile, gains: CostGains,
                         horizon: float = T_DM) -> GameSolution:
    """Ego leads, the adjacent car follows; worst case over follower ties."""
    return _solve("stackelberg", ego, ego_lane, [(ac_lane, ac, ac_style)], nb,
                  ego_grid, ac_grid, ego_style, gains, horizon)


def solve_solo(ego: KinematicState, ego_lane: int, nb: NeighborView,
               grid: ActionGrid, style: StyleProfile, gains: CostGains,
               horizon: float = T_DM) -> GameSolution:
    """Degenerate game with no adjacent car: plain argmin for the ego.

    Scores the whole (sigma x acceleration) grid at once, the ego's parts
    (`costs._ego_parts`) on one projection, and takes the first lowest
    total among the feasible cells (`_ego_mask`) in the grid's cached
    preference order, so exact ties go to the earlier candidate. An
    adjacent car does not enter; `simulate._Loop.decide` calls this only
    when neither side lane has one.
    """
    s, v = project(projection_terms(grid._packed, horizon), ego.s, ego.v)
    ok = _ego_mask(ego, ego_lane, grid, nb, s[:, -1], v[:, -1])
    accs, order, *_ = grid._orders
    flat = order[ok.reshape(-1)[order]]    # the feasible cells, preferred first
    if not len(flat):
        raise InfeasibleDecisionError("no feasible ego action")
    parts = _ego_parts(ego_lane, np.array(grid.sigmas)[:, None], accs, s, v, style, nb,
                       gains, horizon)
    i, j = divmod(flat[parts[3].reshape(-1).take(flat).argmin()].item(), len(accs))
    return GameSolution(ego_action=DecisionAction(sigma=grid.sigmas[i], a_x=accs.item(j)),
                        ac_actions={}, ego_cost=CostBreakdown(*[x.item(i, j) for x in parts]),
                        multiplicity=1)


def solve_nash_two_ac(ego: KinematicState, ego_lane: int,
                      ac_left: KinematicState, ac_right: KinematicState,
                      nb: NeighborView, ego_grid: ActionGrid,
                      ac_grid: ActionGrid, ego_style: StyleProfile,
                      left_style: StyleProfile, right_style: StyleProfile,
                      gains: CostGains, horizon: float = T_DM) -> GameSolution:
    """Two side games on one enumeration of the ego's candidates: the
    left keeps the rows with sigma in {-1, 0}, the right those in
    {0, +1}. The side with the lower ego equilibrium cost decides the
    ego action, an exact tie going left; each adjacent car keeps the
    acceleration from its own side."""
    sides = [(ego_lane - 1, ac_left, left_style),
             (ego_lane + 1, ac_right, right_style)]
    return _solve("nash", ego, ego_lane, sides, nb, ego_grid, ac_grid,
                  ego_style, gains, horizon)


def solve_stackelberg_two_ac(ego: KinematicState, ego_lane: int,
                             ac_left: KinematicState, ac_right: KinematicState,
                             nb: NeighborView, ego_grid: ActionGrid,
                             ac_grid: ActionGrid, ego_style: StyleProfile,
                             left_style: StyleProfile, right_style: StyleProfile,
                             gains: CostGains,
                             horizon: float = T_DM) -> GameSolution:
    """The two-sided decomposition of solve_nash_two_ac with each side
    game solved leader-follower."""
    sides = [(ego_lane - 1, ac_left, left_style),
             (ego_lane + 1, ac_right, right_style)]
    return _solve("stackelberg", ego, ego_lane, sides, nb, ego_grid, ac_grid,
                  ego_style, gains, horizon)
