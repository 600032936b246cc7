"""Game solvers: matrix cores against brute force, scene wrappers, merging."""

from dataclasses import replace

import numpy as np
import pytest

from lanegame.costs import (T_DM, CostGains, DecisionAction, KinematicState,
                            LaneView, ac_cost, ego_cost, propagate)
from lanegame.errors import InfeasibleDecisionError
from lanegame.games import (ActionGrid, ac_candidates, ego_candidates,
                            nash_2p_matrices, solve_nash_2p, solve_nash_two_ac,
                            solve_solo, solve_stackelberg_2p,
                            solve_stackelberg_two_ac, stackelberg_2p_matrices)
from lanegame.styles import style_profile

from conftest import make_neighbors


def brute_nash(j_row, j_col):
    """Reference enumeration with the documented tie-break."""
    rows, cols = j_row.shape
    cells = []
    for r in range(rows):
        for c in range(cols):
            if j_row[r, c] == j_row[:, c].min() and j_col[r, c] == j_col[r, :].min():
                cells.append((j_row[r, c], r, c))
    if not cells:
        worst = j_row.max(axis=1)
        r = int(np.argmin(worst))
        c = int(np.argmax(j_row[r]))
        return r, c, 0, True
    cells.sort()
    _, r, c = cells[0]
    return r, c, len(cells), False


def brute_stackelberg(j_row, j_col, tol=1e-9):
    rows, cols = j_row.shape
    worst = np.empty(rows)
    pick = np.empty(rows, dtype=int)
    for r in range(rows):
        m = j_col[r].min()
        br = [c for c in range(cols) if j_col[r, c] <= m + tol * max(1.0, abs(m))]
        vals = [j_row[r, c] for c in br]
        worst[r] = max(vals)
        pick[r] = br[int(np.argmax(vals))]
    r = int(np.argmin(worst))
    return r, int(pick[r]), int(np.sum(worst == worst[r]))


def random_bimatrix(rng, quantize=False):
    m = rng.integers(1, 13)
    n = rng.integers(1, 13)
    j_row = rng.uniform(0.0, 10.0, (m, n))
    j_col = rng.uniform(0.0, 10.0, (m, n))
    if quantize:
        # Coarse values force plateaus, ties, and multiple equilibria.
        j_row = np.round(j_row)
        j_col = np.round(j_col)
    return j_row, j_col


def test_nash_core_matches_brute_force(rng):
    for k in range(400):
        j_row, j_col = random_bimatrix(rng, quantize=k % 2 == 0)
        assert nash_2p_matrices(j_row, j_col) == brute_nash(j_row, j_col)


def test_stackelberg_core_matches_brute_force(rng):
    for k in range(400):
        j_row, j_col = random_bimatrix(rng, quantize=k % 2 == 0)
        got = stackelberg_2p_matrices(j_row, j_col)
        assert got == brute_stackelberg(j_row, j_col)


def test_nash_security_fallback():
    # Matching pennies shape: no pure equilibrium anywhere.
    j_row = np.array([[0.0, 1.0], [1.0, 0.0]])
    j_col = np.array([[1.0, 0.0], [0.0, 1.0]])
    r, c, mult, sec = nash_2p_matrices(j_row, j_col)
    assert sec and mult == 0
    # Both rows have worst case 1; the tie-break picks row 0 and its
    # worst column.
    assert r == 0 and j_row[r, c] == 1.0


def test_stackelberg_pessimism_over_follower_ties():
    # The follower is indifferent on row 0; the leader must price in the
    # worse of the two columns.
    j_row = np.array([[0.0, 9.0], [5.0, 5.0]])
    j_col = np.array([[1.0, 1.0], [2.0, 3.0]])
    r, c, mult = stackelberg_2p_matrices(j_row, j_col)
    assert (r, c) == (1, 0)
    assert mult == 1


GRID = ActionGrid(accelerations=(-4.0, -2.0, 0.0, 2.0))


def test_candidate_feasibility_rules():
    nb = make_neighbors()
    ego = KinematicState(s=0.0, v=20.0)
    cands = ego_candidates(ego, 2, GRID, nb)
    # Lane 3 does not exist on the two-lane road: sigma +1 never appears.
    assert {c.sigma for c in cands} == {-1, 0}
    # a = +2 would end at 26 m/s, past the lanes' 25 m/s limit.
    assert all(c.a_x != 2.0 for c in cands)
    # Preference order: |a| ascending, keep-lane before left at equal |a|.
    assert cands[0] == DecisionAction(0, 0.0)
    assert cands[1] == DecisionAction(-1, 0.0)


def test_candidates_respect_lane_end():
    nb = make_neighbors(end_remaining={2: 50.0}, a_brake=6.0, end_margin=30.0)
    ego = KinematicState(s=0.0, v=20.0)
    cands = ego_candidates(ego, 2, GRID, nb)
    # 20^2/12 + 30 > 50: keeping the dying lane is off the menu.
    assert all(c.sigma != 0 for c in cands)
    assert any(c.sigma == -1 for c in cands)


def test_candidates_can_all_vanish():
    nb = make_neighbors(lanes={2: LaneView()}, end_remaining={2: 10.0})
    with pytest.raises(InfeasibleDecisionError):
        solve_solo(KinematicState(s=0.0, v=20.0), 2, nb, GRID,
                   style_profile("normal"), CostGains())


def test_ac_candidates_fallback():
    nb = make_neighbors(lanes={1: LaneView(v_min=18.0, v_max=25.0), 2: LaneView()})
    # Every grid move leaves v outside [18, 25] for a crawling car; the
    # least-violating single action survives.
    accs = ac_candidates(KinematicState(s=0.0, v=5.0), 1, GRID, nb)
    assert accs == [2.0]


def scalar_ego_candidates(ego, ego_lane, grid, nb, seen):
    """Per-acceleration reference for ego_candidates; notes in `seen`
    which rule dropped a candidate."""
    out = []
    for sigma in grid.sigmas:
        target = ego_lane + sigma
        if not nb.has_lane(target):
            continue
        if sigma == 0 and nb.keep_lane_blocked(ego_lane, ego.v):
            seen.add("keep blocked")
            continue
        lv = nb.lanes[target]
        for a in grid.accelerations:
            s_end, v_end = propagate(ego.s, ego.v, a, T_DM)
            hi = float(nb.v_cap(target, float(s_end) - ego.s))
            v_end = float(v_end)
            if lv.v_min - 1e-9 <= v_end <= hi + 1e-9:
                out.append(DecisionAction(sigma=sigma, a_x=a))
            elif v_end < lv.v_min - 1e-9:
                seen.add("lane v_min")
            elif v_end <= lv.v_max:
                seen.add("lane-end cap")
    order = {0: 0, -1: 1, 1: 2}
    return sorted(out, key=lambda c: (abs(c.a_x), order[c.sigma], c.a_x))


def scalar_ac_candidates(ac, ac_lane, grid, nb, seen):
    """Per-acceleration reference for ac_candidates."""
    lo = nb.lanes[ac_lane].v_min
    feasible, violations = [], []
    for a in grid.accelerations:
        s_end, v_end = propagate(ac.s, ac.v, a, T_DM)
        hi = float(nb.v_cap(ac_lane, float(s_end) - ac.s))
        v_end = float(v_end)
        if lo - 1e-9 <= v_end <= hi + 1e-9:
            feasible.append(a)
        else:
            violations.append((max(lo - v_end, v_end - hi), abs(a), a))
    if not feasible:
        seen.add("fallback")
        feasible = [min(violations)[2]]
    return sorted(feasible, key=lambda a: (abs(a), a))


def random_candidate_scene(rng):
    """Three lanes with random bounds and lane ends, the ego on the middle
    one, an opponent on a side lane, and a grid of +-a pairs around 0."""
    lanes, ends = {}, {}
    for lane in (1, 2, 3):
        lanes[lane] = LaneView(v_min=float(rng.choice([0.0, rng.uniform(8.0, 18.0)])),
                               v_max=float(rng.uniform(18.0, 30.0)))
        if rng.random() < 0.5:
            ends[lane] = float(rng.uniform(0.0, 150.0))
    nb = make_neighbors(lanes=lanes, end_remaining=ends)
    mags = np.sort(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0], rng.integers(1, 5),
                              replace=False))
    accs = np.concatenate([-mags[::-1], [0.0] if rng.random() < 0.7 else [], mags])
    sigmas = (-1, 0, 1) if rng.random() < 0.7 else tuple(
        rng.choice([-1, 0, 1], rng.integers(1, 3), replace=False).tolist())
    grid = ActionGrid(accelerations=tuple(round(float(a), 9) for a in accs),
                      sigmas=sigmas)
    ego = KinematicState(s=float(rng.uniform(0.0, 50.0)), v=float(rng.uniform(2.0, 28.0)))
    ac = KinematicState(s=float(rng.uniform(-20.0, 40.0)), v=float(rng.uniform(0.0, 30.0)))
    return ego, ac, int(rng.choice([1, 3])), grid, nb


def test_broadcast_candidates_match_scalar_loop():
    seen = set()
    for seed in range(200):
        ego, ac, ac_lane, grid, nb = random_candidate_scene(np.random.default_rng(seed))
        cands = ego_candidates(ego, 2, grid, nb)
        assert cands == scalar_ego_candidates(ego, 2, grid, nb, seen), seed
        assert all(type(c.a_x) is float for c in cands)
        accs = ac_candidates(ac, ac_lane, grid, nb)
        assert accs == scalar_ac_candidates(ac, ac_lane, grid, nb, seen), seed
        assert all(type(a) is float for a in accs)
        if {c.sigma for c in cands} == {-1, 0, 1}:
            seen.add("all sigmas")
    assert seen == {"keep blocked", "lane v_min", "lane-end cap", "fallback",
                    "all sigmas"}
    # Equal-|a| pairs: |a| first, then keep, left, right, then the sign.
    grid = ActionGrid(accelerations=(-1.0, -0.5, 0.5, 1.0))
    nb = make_neighbors(lanes={1: LaneView(), 2: LaneView(), 3: LaneView()})
    got = [(c.sigma, c.a_x) for c in ego_candidates(KinematicState(0.0, 20.0), 2,
                                                      grid, nb)]
    assert got[:6] == [(0, -0.5), (0, 0.5), (-1, -0.5), (-1, 0.5), (1, -0.5), (1, 0.5)]
    assert ac_candidates(KinematicState(0.0, 20.0), 1, grid, nb) == [-0.5, 0.5, -1.0, 1.0]


SOLO_SCENES = [
    # A slower lead on the ego lane: (neighbors, grid, style, tied minima).
    (make_neighbors(lanes={1: LaneView(),
                           2: LaneView(lead=KinematicState(s=30.0, v=12.0))}),
     GRID, style_profile("aggressive"), 1),
    # With v_factor 0 the desired speed is the 20 m/s flow speed, which the
    # ego drives: keeping the lane at -1 and at +1 ends 3 m/s off it at
    # equal comfort cost, an exact tie the earlier candidate must win.
    (make_neighbors(), ActionGrid(accelerations=(-1.0, 1.0)),
     replace(style_profile("normal"), v_factor=0.0), 2),
]


def test_solo_matches_enumeration(gains):
    ego = KinematicState(s=0.0, v=20.0)
    for nb, grid, style, n_best in SOLO_SCENES:
        sol = solve_solo(ego, 2, nb, grid, style, gains)
        cands = ego_candidates(ego, 2, grid, nb)
        totals = [ego_cost(ego, 2, c, {}, nb, style, gains).total for c in cands]
        best = totals.index(min(totals))   # the first of equal minima
        assert totals.count(totals[best]) == n_best
        assert sol.ego_action == cands[best]
        assert sol.ego_cost.total == totals[best]
        assert sol.ac_actions == {} and sol.multiplicity == 1


def _pair_scene(gains):
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=2.0, v=16.0), adjacent_v_ref=16.0),
        2: LaneView(lead=KinematicState(s=35.0, v=13.0)),
    }, end_remaining={2: 120.0})
    return KinematicState(s=0.0, v=20.0), KinematicState(s=2.0, v=16.0), nb


def brute_solve_pair(kind, ego, ac, nb, gains, ego_style, ac_style):
    cands = ego_candidates(ego, 2, GRID, nb)
    accs = ac_candidates(ac, 1, GRID, nb)
    j_e = np.array([[ego_cost(ego, 2, cand, {1: a}, nb, ego_style, gains).total
                     for a in accs] for cand in cands])
    j_a = np.array([[ac_cost(ac, 1, ego, 2, cand, a, nb, ac_style, gains).total
                     for a in accs] for cand in cands])
    if kind == "nash":
        r, c, _, _ = brute_nash(j_e, j_a)
    else:
        r, c, _ = brute_stackelberg(j_e, j_a)
    return cands[r], float(accs[c])


@pytest.mark.parametrize("kind", ["nash", "stackelberg"])
def test_scene_wrappers_match_enumeration(kind, gains):
    ego, ac, nb = _pair_scene(gains)
    st_e, st_a = style_profile("normal"), style_profile("conservative")
    solver = solve_nash_2p if kind == "nash" else solve_stackelberg_2p
    sol = solver(ego, 2, ac, 1, nb, GRID, GRID, st_e, st_a, gains)
    want_action, want_acc = brute_solve_pair(kind, ego, ac, nb, gains, st_e, st_a)
    assert sol.ego_action == want_action
    assert sol.ac_actions[1] == pytest.approx(want_acc)
    # Reported breakdowns are the equilibrium cell re-evaluated.
    cb = ego_cost(ego, 2, sol.ego_action, {1: sol.ac_actions[1]}, nb, st_e, gains)
    assert sol.ego_cost.total == pytest.approx(cb.total)


def _two_ac_scene():
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=4.0, v=17.0), adjacent_v_ref=17.0),
        2: LaneView(lead=KinematicState(s=30.0, v=12.0)),
        3: LaneView(adjacent=KinematicState(s=-6.0, v=14.0), adjacent_v_ref=14.0),
    })
    return KinematicState(s=0.0, v=20.0), nb


@pytest.mark.parametrize("kind", ["nash", "stackelberg"])
def test_two_ac_picks_cheaper_side(kind, gains):
    ego, nb = _two_ac_scene()
    ac_l = nb.lanes[1].adjacent
    ac_r = nb.lanes[3].adjacent
    st = style_profile("normal")
    solver = solve_nash_two_ac if kind == "nash" else solve_stackelberg_two_ac
    side_solver = solve_nash_2p if kind == "nash" else solve_stackelberg_2p
    sol = solver(ego, 2, ac_l, ac_r, nb, GRID, GRID, st, st, st, gains)

    left = side_solver(ego, 2, ac_l, 1, nb, GRID.restrict_sigmas((-1, 0)),
                       GRID, st, st, gains)
    right = side_solver(ego, 2, ac_r, 3, nb, GRID.restrict_sigmas((0, 1)),
                        GRID, st, st, gains)
    want = left if left.ego_cost.total <= right.ego_cost.total else right
    want_side = -1 if want is left else 1
    assert sol.ego_action == want.ego_action
    assert sol.side == want_side
    assert sol.ego_cost.total == pytest.approx(want.ego_cost.total)
    # Both opponents keep their own branch accelerations in the merged view.
    assert set(sol.ac_actions) == {1, 3}
    assert sol.ac_actions[1] == pytest.approx(left.ac_actions[1])
    assert sol.ac_actions[3] == pytest.approx(right.ac_actions[3])


def test_two_ac_survives_one_dead_side(gains):
    # No lane 3: the right subgame is gone, the left one must still decide.
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=4.0, v=17.0)),
        2: LaneView(),
    })
    ego = KinematicState(s=0.0, v=20.0)
    st = style_profile("normal")
    sol = solve_nash_two_ac(ego, 2, nb.lanes[1].adjacent,
                            KinematicState(s=0.0, v=15.0), nb, GRID, GRID,
                            st, st, st, gains)
    assert sol.side == -1
    assert set(sol.ac_actions) == {1}


def test_grid_validation():
    with pytest.raises(ValueError):
        ActionGrid(accelerations=())
    with pytest.raises(ValueError):
        ActionGrid(accelerations=(1.0, 1.0))
    with pytest.raises(ValueError):
        ActionGrid(accelerations=(0.0,), sigmas=(2,))
    with pytest.raises(ValueError, match="each listed once"):
        ActionGrid(accelerations=(0.0,), sigmas=(0, 0))
    with pytest.raises(ValueError):
        GRID.restrict_sigmas(())
    assert GRID.restrict_sigmas((-1, 0)).sigmas == (-1, 0)


def test_default_grid_shape():
    g = ActionGrid()
    assert g.accelerations[0] == -4.0
    assert g.accelerations[-1] == 3.0
    assert len(g.accelerations) == 15
    assert np.allclose(np.diff(g.accelerations), 0.5)
