"""Output checks. Each returns a list of problems; an empty list passes.

Game cells are checked against the scalar `ego_cost` / `ac_cost`, a
second code path from the vectorised payoff matrices the solvers use.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

from lanegame import simulate
from lanegame.costs import ac_cost, ego_cost
from lanegame.games import ac_candidates, ego_candidates

# Relative slack for comparing a scalar cost with a matrix entry.
REL_TOL = 1e-9
# Follower best-response tolerance, the solver's own default.
BR_TOL = 1e-9

STYLE_ORDER = ("aggressive", "normal", "conservative")


def trace_digest(trace, path) -> str:
    """sha256 of the bytes `write_trace` produces for this trace."""
    simulate.write_trace(trace, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prefix(trace, steps: int):
    """The first `steps` rows of a trace, as a trace of its own."""
    return replace(trace, rows=trace.rows[:steps])


def run_problems(m) -> list[str]:
    """Invariants every closed-loop run must keep."""
    out = []
    if m.aborted:
        out.append(f"aborted: {m.abort_reason}")
    if m.planner_regressions:
        out.append(f"planner_regressions={m.planner_regressions}")
    if m.box_violations:
        out.append(f"box_violations={m.box_violations}")
    return out


def outcome_problems(workload: str, m) -> list[str]:
    """The bundled outcome of one run: merge left, or stay behind the lead."""
    if workload == "merge":
        if not (m.sigma_commit == -1 and m.merged and m.final_lane == 1):
            return [f"{m.style}: expected a left merge into lane 1, got "
                    f"sigma_commit={m.sigma_commit} merged={m.merged} "
                    f"final_lane={m.final_lane}"]
    elif workload == "overtake":
        if m.sigma_commit != 0 or not math.isnan(m.t_commit) or m.final_lane != 2:
            return [f"{m.style}: expected no commitment and lane 2, got "
                    f"sigma_commit={m.sigma_commit} final_lane={m.final_lane}"]
    return []


def ordering_problems(t_commit: dict[str, float]) -> list[str]:
    """Commit times must rise from aggressive to conservative."""
    ts = [t_commit[s] for s in STYLE_ORDER]
    if all(a < b for a, b in zip(ts, ts[1:])):
        return []
    return [f"t_commit not ordered aggressive < normal < conservative: {ts}"]


def _worse(a: float, b: float) -> bool:
    """a exceeds b by more than rounding."""
    return a > b + REL_TOL * max(1.0, abs(b))


def _sub_game(scene, sol):
    """(opponent lane, ego grid) of the game whose cell `sol` reports.

    A two-opponent solve returns the cell of its winning side game; the
    left game allows sigma in {-1, 0}, the right one {0, +1}.
    """
    grid = scene.cfg.grid
    if scene.kind == 1:
        (lane,) = scene.opponents
        return lane, grid
    if sol.side not in (-1, 1):
        raise ValueError(f"two-opponent solution without a side: {sol.side!r}")
    sigmas = (-1, 0) if sol.side < 0 else (0, 1)
    return scene.ego_lane + sol.side, grid.restrict_sigmas(sigmas)


class _Game:
    """Scalar-cost access to one side game of a scene."""

    def __init__(self, scene, lane, grid):
        c = scene.cfg
        self.s, self.lane = scene, lane
        self.gains, self.horizon = c.gains, c.decision.horizon
        self.ac = scene.opponents[lane]
        self.rows = ego_candidates(scene.ego, scene.ego_lane, grid, scene.nb,
                                   self.horizon)
        self.cols = ac_candidates(self.ac, lane, c.grid, scene.nb, self.horizon)

    def j_ego(self, action, a_ac: float) -> float:
        s = self.s
        return ego_cost(s.ego, s.ego_lane, action, {self.lane: a_ac}, s.nb,
                        s.ego_style, self.gains, self.horizon).total

    def j_ac(self, action, a_ac: float) -> float:
        s = self.s
        return ac_cost(self.ac, self.lane, s.ego, s.ego_lane, action, a_ac,
                       s.nb, s.ac_style, self.gains, self.horizon).total

    def best_responses(self, action) -> list[float]:
        costs = [self.j_ac(action, a) for a in self.cols]
        m = min(costs)
        return [a for a, c in zip(self.cols, costs)
                if c <= m + BR_TOL * max(1.0, abs(m))]


def side_game(scene, sol):
    """The scalar-cost game that picked `sol`'s cell, and that cell."""
    lane, grid = _sub_game(scene, sol)
    game = _Game(scene, lane, grid)
    return game, sol.ego_action, sol.ac_actions.get(lane)


def _cell_problems(game, e, a) -> list[str]:
    if e not in game.rows:
        return [f"ego action {e} is not a feasible candidate"]
    if a not in game.cols:
        return [f"opponent acceleration {a} is not a feasible candidate"]
    return []


def nash_problems(scene, sol, enumerate_all: bool = False) -> list[str]:
    """No player gains by deviating alone from the reported cell.

    With `enumerate_all`, also rebuild both matrices from scalar costs and
    check that the cell is the equilibrium with the lowest ego cost, or,
    for a security fallback, that no pure equilibrium exists.
    """
    game, e, a = side_game(scene, sol)
    bad = _cell_problems(game, e, a)
    if bad:
        return bad
    if sol.security_fallback:
        enumerate_all = True
    else:
        here_e, here_a = game.j_ego(e, a), game.j_ac(e, a)
        if _worse(here_e, sol.ego_cost.total) or _worse(sol.ego_cost.total, here_e):
            bad.append(f"reported ego cost {sol.ego_cost.total} != {here_e}")
        for e2 in game.rows:
            if _worse(here_e, game.j_ego(e2, a)):
                bad.append(f"ego gains by deviating from {e} to {e2}")
                break
        for a2 in game.cols:
            if _worse(here_a, game.j_ac(e, a2)):
                bad.append(f"opponent gains by deviating from {a} to {a2}")
                break
    if enumerate_all and not bad:
        bad += _nash_enumeration(game, sol, e, a)
    return bad


def _nash_enumeration(game, sol, e, a) -> list[str]:
    je = [[game.j_ego(r, c) for c in game.cols] for r in game.rows]
    ja = [[game.j_ac(r, c) for c in game.cols] for r in game.rows]
    eq = []
    for i in range(len(game.rows)):
        for k in range(len(game.cols)):
            row_best = all(not _worse(je[i][k], je[i2][k]) for i2 in range(len(game.rows)))
            col_best = all(not _worse(ja[i][k], ja[i][k2]) for k2 in range(len(game.cols)))
            if row_best and col_best:
                eq.append((je[i][k], i, k))
    if sol.security_fallback:
        if eq:
            return [f"security fallback although {len(eq)} pure equilibria exist"]
        worst = [max(r) for r in je]
        if _worse(worst[game.rows.index(e)], min(worst)):
            return ["security row does not minimise the worst case"]
        return []
    if not eq:
        return ["no pure equilibrium found by enumeration"]
    best = min(v for v, _, _ in eq)
    if _worse(je[game.rows.index(e)][game.cols.index(a)], best):
        return [f"equilibrium ego cost is not the lowest ({best})"]
    return []


def stackelberg_problems(scene, sol, enumerate_all: bool = False) -> list[str]:
    """The follower best-responds to the reported leader row; with
    `enumerate_all`, that row also minimises the leader's worst case over
    follower best responses, taken over every row by enumeration."""
    game, e, a = side_game(scene, sol)
    bad = _cell_problems(game, e, a)
    if bad:
        return bad
    br = game.best_responses(e)
    if a not in br:
        return [f"follower acceleration {a} is not a best response to {e}"]
    value = max(game.j_ego(e, c) for c in br)
    here = game.j_ego(e, a)
    if _worse(value, here) or _worse(here, sol.ego_cost.total) \
            or _worse(sol.ego_cost.total, here):
        bad.append(f"cell cost {here} is not the worst case {value} over "
                   f"follower ties, or differs from the reported "
                   f"{sol.ego_cost.total}")
    if enumerate_all and not bad:
        for r in game.rows:
            br_r = game.best_responses(r)
            worst_r = max(game.j_ego(r, c) for c in br_r)
            if _worse(value, worst_r):
                bad.append(f"leader row {r} guarantees {worst_r} < {value}")
                break
    return bad


def same_cell(a, b) -> bool:
    """Two solutions pick the same ego action and opponent accelerations."""
    return a.ego_action == b.ego_action and a.ac_actions == b.ac_actions
