"""The staged projection and the cached preference orders against a
reference that projects and sorts on every use.

The reference below is the enumeration the decision layer used before
the per-grid caches: `propagate` for each use (the ego's grid and the
opponents' stacked grid), one `np.lexsort` per preference order, and
`max(axis=-1)` for the worst sample. Every `GameSolution` field must
come out the same, to the last bit. The leads, which coast at their
speed, are checked against `propagate` at zero acceleration apart. The
solo reference scores its enumerated rows with `costs._ego_parts`, which
`solve_solo` applies to the whole grid at once.
"""

import math

import numpy as np
import pytest

from lanegame import costs, games
from lanegame.costs import (CostGains, KinematicState, LaneView,
                            pair_payoff_matrices, project, projection_terms,
                            propagate, sample_times)
from lanegame.errors import InfeasibleDecisionError
from lanegame.games import (ActionGrid, GameSolution, ac_candidates,
                            ego_candidates, nash_2p_matrices, solve_solo,
                            stackelberg_2p_matrices)
from lanegame.styles import BUILTIN_STYLES, style_profile

from conftest import make_neighbors

_SIGMA_RANK = np.array([1, 0, 2])


def _ref_envelope(nb, lane, s, s_end, v_end):
    lo = nb.lanes[lane].v_min
    hi = nb.v_cap(lane, s_end - s)
    return (lo - 1e-9 <= v_end) & (v_end <= hi + 1e-9), lo, hi


def _ref_ego_rows(ego, ego_lane, grid, nb, horizon):
    accs = np.asarray(grid.accelerations)
    s, v = propagate(ego.s, ego.v, accs[:, None], sample_times(horizon))
    sigmas = [sg for sg in grid.sigmas if nb.has_lane(ego_lane + sg) and not (
        sg == 0 and nb.keep_lane_blocked(ego_lane, ego.v))]
    ok = [_ref_envelope(nb, ego_lane + sg, ego.s, s[:, -1], v[:, -1])[0] for sg in sigmas]
    which, idx = np.nonzero(np.reshape(ok, (len(sigmas), len(accs))))
    sigma, a_x = np.asarray(sigmas, dtype=int)[which], accs[idx]
    order = np.lexsort((a_x, _SIGMA_RANK[sigma + 1], np.abs(a_x)))
    idx = idx[order]
    return sigma[order], a_x[order], (s.take(idx, 0), v.take(idx, 0))


def _ref_ac_columns(acs, ac_lanes, grid, nb, horizon):
    accs = np.asarray(grid.accelerations)
    s, v = propagate(np.array([ac.s for ac in acs])[:, None, None],
                     np.array([ac.v for ac in acs])[:, None, None], accs[:, None],
                     sample_times(horizon))
    order = np.lexsort((accs, np.abs(accs)))
    cols = []
    for ac, lane, v_k, s_k in zip(acs, ac_lanes, v[..., -1], s[..., -1]):
        ok, lo, hi = _ref_envelope(nb, lane, ac.s, s_k, v_k)
        if ok.any():
            cols.append(order[ok[order]])
        else:
            violation = np.maximum(lo - v_k, v_k - hi)
            cols.append(np.lexsort((accs, np.abs(accs), violation))[:1])
    widths = [len(c) for c in cols]
    block, col = np.repeat(np.arange(len(cols)), widths), np.concatenate(cols)
    return widths, accs[col], (s[block, col], v[block, col])


def _ref_solve(kind, ego, ego_lane, sides, nb, ego_grid, ac_grid, ego_style, gains,
               horizon):
    sigma, a_x, ego_track = _ref_ego_rows(ego, ego_lane, ego_grid, nb, horizon)
    target = ego_lane + sigma
    played = []
    for ac_lane, ac, ac_style in sides:
        rows = np.arange(len(sigma))
        for other, _, _ in sides:
            if other != ac_lane:
                rows = rows[target[rows] != other]
        if ac_lane in nb.lanes and len(rows):
            played.append((ac_lane, ac, ac_style, rows))
    if not played:
        raise InfeasibleDecisionError("no feasible ego action")
    ac_lanes, acs, ac_styles, _ = zip(*played)
    widths, a_a, ac_track = _ref_ac_columns(acs, ac_lanes, ac_grid, nb, horizon)
    j_e, j_a, ego_at = pair_payoff_matrices(
        ego, ego_lane, sigma, a_x, acs, ac_lanes, a_a, nb, ego_style, ac_styles, gains,
        horizon, widths=widths, tracks=(ego_track, ac_track))
    ac_actions, results, hi = {}, [], 0
    for (ac_lane, _, _, rows), n in zip(played, widths):
        lo, hi = hi, hi + n
        if kind == "nash":
            r, c, mult, sec = nash_2p_matrices(j_e[rows, lo:hi], j_a[rows, lo:hi])
        else:
            r, c, mult = stackelberg_2p_matrices(j_e[rows, lo:hi], j_a[rows, lo:hi])
            sec = False
        r, c = rows[r], lo + c
        ac_actions[ac_lane] = float(a_a[c])
        results.append((ego_at(r, c), r, mult, sec, ac_lane - ego_lane))
    eb, r, mult, sec, side = min(results, key=lambda p: p[0].total)
    return GameSolution(ego_action=costs.DecisionAction(sigma=int(sigma[r]),
                                                        a_x=float(a_x[r])),
                        ac_actions=ac_actions, ego_cost=eb, multiplicity=mult,
                        security_fallback=sec, side=side if len(sides) == 2 else None)


def _ref_solo(ego, ego_lane, nb, grid, style, gains, horizon):
    sigma, a_x, ego_track = _ref_ego_rows(ego, ego_lane, grid, nb, horizon)
    if not len(sigma):
        raise InfeasibleDecisionError("no feasible ego action")
    parts = costs._ego_parts(ego_lane, sigma, a_x, *ego_track, style, nb, gains, horizon)
    r = int(np.argmin(parts[3]))
    return GameSolution(ego_action=costs.DecisionAction(sigma=int(sigma[r]),
                                                        a_x=float(a_x[r])),
                        ac_actions={}, ego_cost=costs.CostBreakdown(
                            *(float(x[r]) for x in parts)),
                        multiplicity=1)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except InfeasibleDecisionError as exc:
        return f"infeasible: {exc}"


# Grids: the default, all-negative (cars stop within the horizon), ones
# whose sigmas are subsets in another order, and ones holding -0.0 or 0.0.
GRIDS = [
    ActionGrid(),
    ActionGrid(accelerations=(-4.0, -3.0, -2.5)),
    ActionGrid(accelerations=(-1.0, -0.0, 0.5, 2.0), sigmas=(1, -1)),
    ActionGrid(sigmas=(0, 1)),
    ActionGrid(accelerations=(-2.0, 0.0, 1.0, 3.0), sigmas=(1, 0, -1)),
    ActionGrid(accelerations=(-6.0, -1.5, 0.0, 0.5), sigmas=(-1, 0)),
]


def _car(rng, s_lo, s_hi, stopped=0.15):
    v = 0.0 if rng.random() < stopped else float(rng.uniform(0.0, 28.0))
    return KinematicState(s=float(rng.uniform(s_lo, s_hi)), v=v)


def _scene(rng, ego_lane=2):
    """Three lanes, the ego on ego_lane, each lane with or without a lead
    (sometimes standing still), an opponent on every other lane with or
    without its own lead, and sometimes an ending lane, so that the lane
    caps are arrays."""
    ego = KinematicState(s=0.0, v=float(rng.choice([3.0, rng.uniform(5.0, 28.0)])))
    lanes = {}
    for lane in (1, 2, 3):
        lv = LaneView(v_min=float(rng.choice([0.0, 5.0])),
                      v_max=float(rng.uniform(18.0, 30.0)))
        if rng.random() < 0.6:
            lv.lead = _car(rng, 8.0, 80.0)
        if lane != ego_lane:
            lv.adjacent = _car(rng, -30.0, 30.0)
            if rng.random() < 0.7:
                lv.adjacent_v_ref = float(rng.uniform(10.0, 28.0))
            if rng.random() < 0.6:
                lv.ac_lead = _car(rng, 35.0, 90.0)
        lanes[lane] = lv
    ends = {}
    if rng.random() < 0.4:
        ends[int(rng.choice([1, 2]))] = float(rng.uniform(40.0, 300.0))
    return ego, make_neighbors(lanes=lanes, end_remaining=ends)


def test_solutions_equal_the_reference(monkeypatch):
    rng = np.random.default_rng(20261019)
    gains = CostGains()
    names = sorted(BUILTIN_STYLES)
    new, ref, solved = [], [], 0
    for _ in range(60):
        ego_lane = int(rng.choice([2, 2, 1]))   # lane 1 has no left neighbour
        ego, nb = _scene(rng, ego_lane)
        e_grid = GRIDS[rng.integers(len(GRIDS))]
        # The same grid object, an equal grid, or another grid altogether.
        a_grid = [e_grid, ActionGrid(e_grid.accelerations, e_grid.sigmas),
                  GRIDS[rng.integers(len(GRIDS))]][rng.integers(3)]
        st_e, st_l, st_r = (style_profile(str(rng.choice(names))) for _ in range(3))
        horizon = float(rng.choice([costs.T_DM, 1.5]))
        left, right = (ego_lane - 1, nb.adjacent(ego_lane - 1), st_l), \
            (ego_lane + 1, nb.adjacent(ego_lane + 1), st_r)
        games_ = [[left], [right]] + ([[left, right]] if ego_lane == 2 else [])
        for kind in ("nash", "stackelberg"):
            for sides in games_:
                args = (kind, ego, ego_lane, sides, nb, e_grid, a_grid, st_e, gains,
                        horizon)
                new.append(_outcome(games._solve, *args))
                with monkeypatch.context() as m:
                    m.setattr(costs, "_worst", lambda x: x.max(axis=-1))
                    ref.append(_outcome(_ref_solve, *args))
        args = (ego, ego_lane, nb, e_grid, st_e, gains, horizon)
        new.append(_outcome(solve_solo, *args))
        with monkeypatch.context() as m:
            m.setattr(costs, "_worst", lambda x: x.max(axis=-1))
            ref.append(_outcome(_ref_solo, *args))
    # Left and right tie in a symmetric scene, a slow lead close ahead:
    # only the preference order picks the side.
    nb = make_neighbors(lanes={1: LaneView(), 3: LaneView(),
                               2: LaneView(lead=KinematicState(s=12.0, v=5.0))})
    for grid in (ActionGrid(accelerations=(0.0,)), GRIDS[0], GRIDS[4]):
        args = (KinematicState(s=0.0, v=20.0), 2, nb, grid, style_profile("normal"),
                gains, costs.T_DM)
        new.append(_outcome(solve_solo, *args))
        ref.append(_outcome(_ref_solo, *args))
    assert "sigma=-1" in new[-3]
    for i, (got, want) in enumerate(zip(new, ref)):
        assert got == want, i
        solved += not got.startswith("infeasible")
    # Enough of them are decisions, not refusals, to compare the fields.
    assert solved > 0.8 * len(new)


def test_candidate_lists_equal_the_reference():
    rng = np.random.default_rng(7)
    for _ in range(40):
        ego, nb = _scene(rng)
        for grid in GRIDS:
            sigma, a_x, _ = _ref_ego_rows(ego, 2, grid, nb, costs.T_DM)
            got = ego_candidates(ego, 2, grid, nb)
            assert [(c.sigma, repr(c.a_x)) for c in got] == \
                [(int(s), repr(float(a))) for s, a in zip(sigma, a_x)]
            for lane in (1, 3):
                ac = nb.adjacent(lane)
                want = _ref_ac_columns([ac], [lane], grid, nb, costs.T_DM)[1]
                assert [repr(a) for a in ac_candidates(ac, lane, grid, nb)] == \
                    [repr(float(a)) for a in want]


@pytest.mark.parametrize("accels", [(-4.0, -0.0, 0.5, 3.0), (0.0, 0.5, 2.0),
                                    (-3.0, -1.0), (0.0,)])
def test_staged_projection_equals_propagate(accels):
    """The cached terms and the state stage give propagate's values bit
    for bit, for braking cars that stop, for grids without a negative
    acceleration and for -0.0."""
    a = np.array(accels)
    ts = sample_times(costs.T_DM)
    s = np.array([0.0, -12.5, 40.0])[:, None, None]
    v = np.array([20.0, 3.0, 0.0])[:, None, None]
    want = propagate(s, v, a[:, None], ts)
    got = project(projection_terms(a.tobytes(), costs.T_DM), s, v)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("horizon", [costs.T_DM, 1.5])
def test_coasting_leads_equal_propagate_at_zero_acceleration(horizon, monkeypatch):
    """A payoff call's leads coast: their position s + v t and speed v
    equal propagate's at a = 0 for every speed a scene allows (v >= 0,
    standing still included), and the costs read exactly those. Checked
    on every following term a keep-lane call makes, for the ego's lead
    and the opponent's."""
    rng = np.random.default_rng(11)
    ts = sample_times(horizon)
    leads = {}
    real = costs._gap_term

    def logged(dv, dist, g, lateral):
        if not lateral:
            leads.setdefault(len(leads), (dv, dist))
        return real(dv, dist, g, lateral)

    monkeypatch.setattr(costs, "_gap_term", logged)
    for _ in range(30):
        ego = KinematicState(s=0.0, v=float(rng.uniform(5.0, 28.0)))
        ac = KinematicState(s=float(rng.uniform(-20.0, 20.0)),
                            v=float(rng.uniform(5.0, 28.0)))
        cars = [KinematicState(s=float(rng.uniform(25.0, 90.0)),
                               v=float(rng.choice([0.0, rng.uniform(0.0, 28.0)])))
                for _ in range(2)]
        nb = make_neighbors(lanes={1: LaneView(adjacent=ac, ac_lead=cars[1]),
                                   2: LaneView(lead=cars[0])})
        leads.clear()
        e_acc, a_acc = np.array([-2.0, 0.0, 1.0]), np.array([-1.0, 0.5])
        pair_payoff_matrices(ego, 2, 0, e_acc, ac, 1, a_acc, nb, style_profile("normal"),
                             style_profile("normal"), CostGains(), horizon)
        pairs = ((cars[0], e_acc, ego), (cars[1], a_acc, ac))
        for k, (car, a, follower) in enumerate(pairs):
            s_l, v_l = propagate(car.s, car.v, 0.0, ts)
            s_f, v_f = propagate(follower.s, follower.v, a[:, None], ts)
            dv, dist = leads[k]
            assert np.array_equal(dv, v_l - v_f) and np.array_equal(dist, s_l - s_f)


@pytest.mark.parametrize("first", [(-0.0, 0.5), (0.0, 0.5)])
def test_signed_zero_grids_never_share_a_cache(first):
    """(-0.0, 0.5) and (0.0, 0.5) compare equal as tuples and as grids,
    but each keeps its own zero, whichever is solved first, and every
    cached array is read-only."""
    costs.projection_terms.cache_clear()
    nb = make_neighbors(lanes={1: LaneView(), 2: LaneView()})
    ego = KinematicState(s=0.0, v=25.0)   # at the limit: only a_x = 0 keeps it
    style = style_profile("normal")
    second = tuple(-a if a == 0.0 else a for a in first)
    grids = [ActionGrid(accelerations=a) for a in (first, second, first)]
    assert grids[0] == grids[1]
    for grid in grids:
        sign = math.copysign(1.0, grid.accelerations[0])
        sol = solve_solo(ego, 2, nb, grid, style, CostGains())
        assert sol.ego_action.a_x == 0.0
        assert math.copysign(1.0, sol.ego_action.a_x) == sign
        assert [math.copysign(1.0, c.a_x) for c in ego_candidates(ego, 2, grid, nb)] \
            == [sign] * 2
    cached = [projection_terms(g._packed, costs.T_DM) for g in grids] + \
        [g._orders for g in grids]
    arrays = [x for group in cached for x in group]
    assert arrays and not any(x.flags.writeable for x in arrays)
