"""Pure-strategy game solvers over finite action grids.

Two layers. The matrix cores work on plain cost matrices (rows = ego
candidates, columns = opponent accelerations) and know nothing about
driving; they carry the equilibrium logic and the documented index
tie-breaks. The scene wrappers enumerate feasible candidates (one
projection of the whole grid per player) and score every game, the solo
one included, in one payoff call over all its rows, each row with its
own lane move. They map the winning cell back to actions and read the
ego's cost breakdown there from the parts that call returned. One
driver plays a game per adjacent car on the ego's candidates,
enumerated once per decision: each side game keeps the rows whose sigma
does not move the ego onto another side's lane, so with a car on each
side the left game keeps sigma in {-1, 0} and the right one {0, +1}.

Tie-break order everywhere: lower ego cost, then lower row index, then
lower column index. Candidate lists are ordered so that the row index
encodes the preference (smaller |a_x| first, then sigma in 0, -1, +1
order), which makes the index tie-break implement the documented one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costs import (CostBreakdown, CostGains, DecisionAction, KinematicState,
                    NeighborView, T_DM, pair_payoff_matrices, propagate)
# Not called here; bench/layers.py patches them on this module until ROADMAP item 2.
from .costs import ac_cost, ego_cost  # noqa: F401
from .errors import InfeasibleDecisionError
from .styles import StyleProfile

_SIGMA_ORDER = {0: 0, -1: 1, 1: 2}
_VTOL = 1e-9
# Relative tolerance of the Stackelberg follower's best-response set.
_BRTOL = 1e-9


ACCEL_RANGE = (-4.0, 3.0, 0.5)  # default grid: a_min, a_max, step, m/s^2
# Largest range accel_range builds: every decision step enumerates the
# grid once per player, so an unbounded step count is refused up front.
MAX_ACCELS = 1000


def accel_range(a_min: float, a_max: float, step: float) -> tuple[float, ...]:
    """Evenly spaced accelerations from a_min to a_max, both included."""
    if step <= 0 or a_max < a_min:
        raise ValueError("need step > 0 and a_max >= a_min")
    n = int(round((a_max - a_min) / step))
    if n + 1 > MAX_ACCELS:
        raise ValueError(f"range holds {n + 1} accelerations, at most "
                         f"{MAX_ACCELS} allowed")
    return tuple(round(a_min + i * step, 9) for i in range(n + 1))


@dataclass(frozen=True)
class ActionGrid:
    """Finite action menu: acceleration samples and allowed sigmas. The
    speed band a candidate must end in belongs to its lane."""

    accelerations: tuple[float, ...] = accel_range(*ACCEL_RANGE)
    sigmas: tuple[int, ...] = (-1, 0, 1)

    def __post_init__(self) -> None:
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


@dataclass
class GameSolution:
    ego_action: DecisionAction
    ac_actions: dict[int, float]
    ego_cost: CostBreakdown
    multiplicity: int
    security_fallback: bool = False
    side: int | None = None  # winning branch of a two-opponent solve


def _envelope(nb, lane, s, s_end, v_end):
    """Mask of end speeds inside a lane's band, its upper bound the lane
    cap taken at each projected station s_end; and (lo, hi)."""
    lo = nb.lanes[lane].v_min
    hi = nb.v_cap(lane, s_end - s)
    return (lo - _VTOL <= v_end) & (v_end <= hi + _VTOL), lo, hi


def ego_candidates(ego: KinematicState, ego_lane: int, grid: ActionGrid,
                   nb: NeighborView, horizon: float = T_DM) -> list[DecisionAction]:
    """Feasible (sigma, a_x) pairs in tie-break preference order.

    A candidate survives when its target lane exists, keeping an ending
    lane is still allowed, and the projected end speed stays inside the
    speed band of its target lane. The grid is projected once, since the
    projection does not depend on sigma, and tested per target lane.
    """
    accs = grid.accelerations
    s_end, v_end = propagate(ego.s, ego.v, accs, horizon)
    out = []
    for sigma in grid.sigmas:
        target = ego_lane + sigma
        if not nb.has_lane(target) or (
                sigma == 0 and nb.keep_lane_blocked(ego_lane, ego.v)):
            continue
        ok = _envelope(nb, target, ego.s, s_end, v_end)[0]
        out += [DecisionAction(sigma=sigma, a_x=accs[i]) for i in np.flatnonzero(ok)]
    out.sort(key=lambda c: (abs(c.a_x), _SIGMA_ORDER[c.sigma], c.a_x))
    return out


def ac_candidates(ac: KinematicState, ac_lane: int, grid: ActionGrid,
                  nb: NeighborView, horizon: float = T_DM) -> list[float]:
    """Feasible accelerations for an adjacent car, preference-ordered.

    Falls back to the least-violating single action (ties to the smaller
    |a|, then the smaller a) when the lane band excludes everything, so
    the game always has an opponent move.
    """
    accs = np.asarray(grid.accelerations)
    s_end, v_end = propagate(ac.s, ac.v, accs, horizon)
    ok, lo, hi = _envelope(nb, ac_lane, ac.s, s_end, v_end)
    if ok.any():
        keep = np.flatnonzero(ok)
    else:
        violation = np.maximum(lo - v_end, v_end - hi)
        keep = np.lexsort((accs, np.abs(accs), violation))[:1]
    return sorted((grid.accelerations[i] for i in keep), key=lambda a: (abs(a), a))


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
    eq = row_br & col_br
    cells = np.argwhere(eq)
    if cells.size == 0:
        worst = j_row.max(axis=1)
        r = int(np.argmin(worst))
        c = int(np.argmax(j_row[r]))
        return r, c, 0, True
    vals = j_row[cells[:, 0], cells[:, 1]]
    best = int(np.lexsort((cells[:, 1], cells[:, 0], vals))[0])
    r, c = int(cells[best, 0]), int(cells[best, 1])
    return r, c, int(len(cells)), False


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
    r = int(np.argmin(worst))
    in_set = br[r] & (j_row[r] == worst[r])
    c = int(np.argmax(in_set))
    mult = int(np.sum(worst == worst[r]))
    return r, c, mult


def _score(ego, ego_lane, rows, ac, ac_lane, ac_accels, nb, ego_style,
           ac_style, gains, horizon):
    """One payoff call over all rows: (ego matrix, opponent matrix, and a
    map from a cell (r, c) to the ego's breakdown there)."""
    j_e, j_a, parts = pair_payoff_matrices(
        ego, ego_lane, [c.sigma for c in rows], [c.a_x for c in rows], ac,
        ac_lane, ac_accels, nb, ego_style, ac_style, gains, horizon)
    return j_e, j_a, lambda r, c: CostBreakdown(*(float(p[r, c]) for p in parts),
                                                float(j_e[r, c]))


def _solve(kind, ego, ego_lane, sides, nb, ego_grid, ac_grid, ego_style,
           gains, horizon) -> GameSolution:
    """One game per side (lane, car, style) on the rows of the module
    docstring's rule; a side whose lane is absent or that keeps no row is
    skipped, and the lowest ego total decides."""
    cands = ego_candidates(ego, ego_lane, ego_grid, nb, horizon)
    lanes = {lane for lane, _, _ in sides}
    ac_actions, played = {}, []
    for ac_lane, ac, ac_style in sides:
        others = lanes - {ac_lane}
        rows = [c for c in cands if ego_lane + c.sigma not in others]
        if ac_lane not in nb.lanes or not rows:
            continue
        ac_accels = ac_candidates(ac, ac_lane, ac_grid, nb, horizon)
        j_e, j_a, breakdown = _score(ego, ego_lane, rows, ac, ac_lane, ac_accels,
                                     nb, ego_style, ac_style, gains, horizon)
        if kind == "nash":
            r, c, mult, sec = nash_2p_matrices(j_e, j_a)
        else:
            r, c, mult = stackelberg_2p_matrices(j_e, j_a)
            sec = False
        ac_actions[ac_lane] = float(ac_accels[c])
        played.append((breakdown(r, c), rows[r], mult, sec, ac_lane - ego_lane))
    if not played:
        raise InfeasibleDecisionError("no feasible ego action")
    # min keeps the first of equal totals: an exact tie goes to the left.
    eb, action, mult, sec, side = min(played, key=lambda p: p[0].total)
    return GameSolution(ego_action=action, ac_actions=ac_actions, ego_cost=eb,
                        multiplicity=mult, security_fallback=sec,
                        side=side if len(sides) == 2 else None)


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

    Scores through the payoff assembly with no opponent, so an adjacent
    car would not enter; `simulate._decide` calls this only when neither
    side lane has one. Exact ties go to the earlier candidate.
    """
    cands = ego_candidates(ego, ego_lane, grid, nb, horizon)
    if not cands:
        raise InfeasibleDecisionError("no feasible ego action")
    j_e, _, breakdown = _score(ego, ego_lane, cands, None, None, (0.0,), nb,
                               style, style, gains, horizon)
    r = int(np.argmin(j_e[:, 0]))
    return GameSolution(ego_action=cands[r], ac_actions={},
                        ego_cost=breakdown(r, 0), multiplicity=1)


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
