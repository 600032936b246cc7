"""Decision costs: closed-form oracles, gates, propagation semantics."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from lanegame import costs
from lanegame.costs import (INFEASIBLE, CostGains, DecisionAction,
                            KinematicState, LaneView, NeighborView, T_DM,
                            ac_cost, comfort_cost, desired_speed, ego_cost,
                            lane_change_lat_accel, lateral_safety_cost,
                            longitudinal_safety_cost, pair_payoff_matrices,
                            propagate)
from lanegame.styles import BUILTIN_STYLES, style_profile

from conftest import make_neighbors
from reference import breakdown_from_matrices


def test_longitudinal_substitution_oracle(gains):
    # v_ego 20 vs lead 15 at 50 m: 1*25 + 100/(45^2 + 0.01)
    ego = KinematicState(s=0.0, v=20.0)
    lead = KinematicState(s=50.0, v=15.0)
    val = longitudinal_safety_cost(ego, lead, gains)
    assert val == pytest.approx(25.0 + 100.0 / (45.0**2 + 0.01), rel=1e-12)
    assert val == pytest.approx(25.049, abs=5e-4)


def test_longitudinal_receding_lead_pays_gap_only(gains):
    ego = KinematicState(s=0.0, v=20.0)
    lead = KinematicState(s=30.0, v=22.0)
    assert longitudinal_safety_cost(ego, lead, gains) == pytest.approx(
        100.0 / (25.0**2 + 0.01), rel=1e-12)


def test_longitudinal_no_lead_is_free(gains):
    assert longitudinal_safety_cost(KinematicState(0.0, 20.0), None, gains) == 0.0


def test_lateral_substitution_oracle(gains):
    # Ego slower than the adjacent car by 2 at 10 m: 4 + 100/25.01
    ego = KinematicState(s=0.0, v=20.0)
    ac = KinematicState(s=10.0, v=22.0)
    val = lateral_safety_cost(ego, ac, gains)
    assert val == pytest.approx(4.0 + 100.0 / 25.01, rel=1e-12)
    assert val == pytest.approx(7.998, abs=5e-4)


def test_lateral_no_adjacent_is_free(gains):
    assert lateral_safety_cost(KinematicState(0.0, 20.0), None, gains) == 0.0


def test_safety_monotone_in_gap_and_closing_speed(gains):
    ego = KinematicState(s=0.0, v=20.0)
    vals = [longitudinal_safety_cost(ego, KinematicState(s=d, v=15.0), gains)
            for d in (60.0, 40.0, 20.0, 10.0, 6.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [longitudinal_safety_cost(ego, KinematicState(s=40.0, v=v), gains)
            for v in (19.0, 17.0, 14.0, 10.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_comfort_gating(gains):
    assert comfort_cost(1.5, 3.0, 0, gains) == pytest.approx(2.25)
    assert comfort_cost(0.0, 1.2, -1, gains) == pytest.approx(1.44)
    assert comfort_cost(0.0, 5.0, 0, gains) == 0.0
    assert comfort_cost(2.0, 1.0, 1, gains) == pytest.approx(5.0)
    # Broadcasts over candidate accelerations.
    assert comfort_cost(np.array([1.5, 2.0]), 1.0, 1, gains) == \
        pytest.approx([3.25, 5.0])


def test_lane_change_lat_accel_closed_form():
    assert lane_change_lat_accel(4.0) == pytest.approx(2.0 * math.pi * 4.0 / 9.0)


def test_desired_speed_shaping():
    # Slower lead anchors the target between the lead and the limit.
    assert desired_speed(25.0, 15.0, 0.6, 20.0) == pytest.approx(21.0)
    assert desired_speed(25.0, 15.0, 0.95, 20.0) == pytest.approx(24.5)
    assert desired_speed(25.0, 15.0, 0.0, 20.0) == pytest.approx(15.0)
    # Faster lead drops out; the flow reference takes over.
    assert desired_speed(25.0, 27.0, 0.6, 20.0) == pytest.approx(23.0)
    assert desired_speed(25.0, math.inf, 0.6, 20.0) == pytest.approx(23.0)
    # The anchor itself never exceeds the limit.
    assert desired_speed(18.0, math.inf, 0.5, 20.0) == pytest.approx(18.0)
    out = desired_speed(np.array([25.0, 20.0]), np.array([15.0, math.inf]),
                        0.5, 20.0)
    assert out == pytest.approx([20.0, 20.0])


def test_propagate_holds_at_standstill():
    s, v = propagate(0.0, 10.0, -4.0, 5.0)
    # Stops after 2.5 s having covered 12.5 m, then stays put.
    assert v == pytest.approx(0.0)
    assert s == pytest.approx(12.5)
    s2, v2 = propagate(0.0, 10.0, 1.0, np.array([1.0, 2.0]))
    assert v2 == pytest.approx([11.0, 12.0])
    assert s2 == pytest.approx([10.5, 22.0])


def test_v_cap_profile():
    nb = make_neighbors(end_remaining={2: 100.0}, a_end=3.0, end_margin=30.0)
    # Far lane keeps its limit; the dying lane follows the braking root.
    assert nb.v_cap(1, 0.0) == 25.0
    assert nb.v_cap(2, 0.0) == pytest.approx(min(25.0, math.sqrt(2 * 3 * 70)))
    assert nb.v_cap(2, 70.0) == 0.0
    caps = nb.v_cap(2, np.array([0.0, 40.0, 70.0, 90.0]))
    assert caps[1] == pytest.approx(math.sqrt(2 * 3 * 30))
    assert caps[2] == 0.0 and caps[3] == 0.0


def test_keep_lane_blocked_cutoff():
    nb = make_neighbors(end_remaining={2: 60.0}, a_brake=6.0, end_margin=30.0)
    # Needs v^2/12 + 30 < 60, so 18.97 m/s is the threshold.
    assert not nb.keep_lane_blocked(2, 18.0)
    assert nb.keep_lane_blocked(2, 20.0)
    assert not nb.keep_lane_blocked(1, 40.0)


def _style(name="normal"):
    return style_profile(name)


def test_ego_cost_gates_safety_by_sigma(gains):
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=5.0, v=18.0), adjacent_v_ref=18.0),
        2: LaneView(lead=KinematicState(s=40.0, v=15.0)),
    })
    ego = KinematicState(s=0.0, v=20.0)
    keep = ego_cost(ego, 2, DecisionAction(0, 0.0), {1: 0.0}, nb, _style(), gains)
    move = ego_cost(ego, 2, DecisionAction(-1, 0.0), {1: 0.0}, nb, _style(), gains)
    # Keeping pays the following risk, moving pays the merge risk; the two
    # must come out different and both positive here.
    assert keep.j_ds > 0.0 and move.j_ds > 0.0
    assert keep.j_ds != pytest.approx(move.j_ds)
    # Comfort: lateral term only when actually changing lanes.
    assert keep.j_rc == pytest.approx(0.0)
    ay = lane_change_lat_accel(nb.lane_width)
    assert move.j_rc == pytest.approx(ay * ay)


def test_ego_cost_total_is_weighted_sum(gains):
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=5.0, v=18.0)),
        2: LaneView(lead=KinematicState(s=40.0, v=15.0)),
    })
    st = _style("aggressive")
    cb = ego_cost(KinematicState(0.0, 20.0), 2, DecisionAction(-1, 1.0),
                  {1: -0.5}, nb, st, gains)
    assert cb.total == pytest.approx(
        st.w_ds * cb.j_ds + st.w_rc * cb.j_rc + st.w_pe * cb.j_pe, rel=1e-12)
    assert math.isfinite(cb.total)


def test_ego_cost_infeasible_cases(gains):
    nb = make_neighbors()
    off_road = ego_cost(KinematicState(0.0, 20.0), 2, DecisionAction(1, 0.0),
                        {}, nb, _style(), gains)
    assert off_road == INFEASIBLE and not math.isfinite(off_road.total)
    nb_end = make_neighbors(end_remaining={2: 40.0})
    blocked = ego_cost(KinematicState(0.0, 20.0), 2, DecisionAction(0, 0.0),
                       {}, nb_end, _style(), gains)
    assert blocked == INFEASIBLE


def test_ego_alone_at_target_speed_costs_nothing(gains):
    nb = make_neighbors(flow_ref=20.0)
    v_bar = desired_speed(25.0, math.inf, _style().v_factor, 20.0)
    cb = ego_cost(KinematicState(0.0, float(v_bar)), 2, DecisionAction(0, 0.0),
                  {}, nb, _style(), gains)
    assert cb.total == pytest.approx(0.0, abs=1e-12)


def test_ac_shares_the_pair_lateral_term(gains):
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=5.0, v=18.0), adjacent_v_ref=18.0),
        2: LaneView(),
    })
    ego = KinematicState(s=0.0, v=20.0)
    ac = KinematicState(s=5.0, v=18.0)
    act = DecisionAction(-1, 0.5)
    eb = ego_cost(ego, 2, act, {1: -1.0}, nb, _style(), gains)
    ab = ac_cost(ac, 1, ego, 2, act, -1.0, nb, _style("conservative"), gains)
    assert ab.j_ds == pytest.approx(eb.j_ds, rel=1e-12)
    # AC comfort covers only its own longitudinal acceleration.
    assert ab.j_rc == pytest.approx(1.0)


def test_ac_ignores_lateral_when_ego_keeps(gains):
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=5.0, v=18.0)),
        2: LaneView(),
    })
    ab = ac_cost(KinematicState(5.0, 18.0), 1, KinematicState(0.0, 20.0), 2,
                 DecisionAction(0, 0.0), 0.0, nb, _style(), gains)
    assert ab.j_ds == 0.0


def test_ac_cost_of_an_ego_move_off_the_road_is_its_keep_lane_cost(gains):
    # No lane 3: the ego's move right merges with no one, so the opponent
    # pays what it pays when the ego keeps its lane.
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=5.0, v=18.0), adjacent_v_ref=19.0,
                    ac_lead=KinematicState(s=30.0, v=16.0)),
        2: LaneView(lead=KinematicState(s=40.0, v=15.0)),
    })
    ac, ego = KinematicState(5.0, 18.0), KinematicState(0.0, 20.0)
    off_road, keep = (ac_cost(ac, 1, ego, 2, DecisionAction(sigma, 1.0), -0.5, nb,
                              _style(), gains) for sigma in (1, 0))
    assert off_road == keep and keep.j_ds > 0.0


def test_ac_defends_its_own_cruise_speed(gains):
    # An AC already at its reference speed loses by being pushed off it,
    # not by failing to reach the lane limit.
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=0.0, v=15.0), adjacent_v_ref=15.0),
        2: LaneView(),
    })
    hold = ac_cost(KinematicState(0.0, 15.0), 1, KinematicState(-30.0, 20.0), 2,
                   DecisionAction(0, 0.0), 0.0, nb, _style(), gains)
    assert hold.j_pe == pytest.approx(0.0, abs=1e-12)


def _two_lane_merge():
    """Ego on lane 2 (ending, lead ahead), the AC on lane 1 with its lead."""
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=4.0, v=16.0), adjacent_v_ref=16.0,
                    ac_lead=KinematicState(s=60.0, v=14.0)),
        2: LaneView(lead=KinematicState(s=45.0, v=15.0)),
    }, end_remaining={2: 150.0})
    return nb, KinematicState(s=0.0, v=20.0), KinematicState(s=4.0, v=16.0), 1


def _three_lane_right_opponent():
    """Ego on lane 2, the AC on lane 3 just behind it, lane 1 free of
    opponents. Sigma +1 makes the AC the merge partner, and the ego ends
    ahead of it in some cells only; sigma -1 moves away from it."""
    nb = make_neighbors(lanes={
        1: LaneView(lead=KinematicState(s=50.0, v=17.0)),
        2: LaneView(lead=KinematicState(s=40.0, v=16.0)),
        3: LaneView(adjacent=KinematicState(s=-3.0, v=19.0), adjacent_v_ref=21.0,
                    ac_lead=KinematicState(s=70.0, v=18.0)),
    })
    return nb, KinematicState(s=0.0, v=20.0), KinematicState(s=-3.0, v=19.0), 3


def test_matrices_match_scalar_entries(gains):
    """Vectorized payoff assembly equals cell-by-cell scalar evaluation,
    for every sigma: merge, keep-lane, and a move away from the AC."""
    e_acc = np.array([-2.0, 0.0, 1.5])
    a_acc = np.array([-1.0, 0.0, 2.0])
    st_e, st_a = _style("aggressive"), _style("normal")
    for scene, sigma in ((_two_lane_merge, -1), (_two_lane_merge, 0),
                         (_three_lane_right_opponent, -1),
                         (_three_lane_right_opponent, 0),
                         (_three_lane_right_opponent, 1)):
        nb, ego, ac, ac_lane = scene()
        j_e, j_a, _ = pair_payoff_matrices(ego, 2, sigma, e_acc, ac, ac_lane, a_acc,
                                           nb, st_e, st_a, gains)
        for i, ae in enumerate(e_acc):
            for j, aa in enumerate(a_acc):
                eb = ego_cost(ego, 2, DecisionAction(sigma, float(ae)),
                              {ac_lane: float(aa)}, nb, st_e, gains)
                ab = ac_cost(ac, ac_lane, ego, 2, DecisionAction(sigma, float(ae)),
                             float(aa), nb, st_a, gains)
                assert j_e[i, j] == pytest.approx(eb.total, rel=1e-12)
                assert j_a[i, j] == pytest.approx(ab.total, rel=1e-12)
                if sigma == -1 and ac_lane == 3:
                    # Moving away: the AC still follows its own lead.
                    assert ab.j_ds == ac_cost(ac, ac_lane, ego, 2,
                                              DecisionAction(0, float(ae)), float(aa),
                                              nb, st_a, gains).j_ds


def _random_three_lane_scene(rng):
    """Ego on lane 2 at s = 0, the AC on lane 1 or 3, leads drawn at random."""
    def maybe_lead(s_from):
        if rng.random() < 0.3:
            return None
        return KinematicState(s=float(rng.uniform(s_from + 5.0, s_from + 80.0)),
                              v=float(rng.uniform(10.0, 24.0)))

    ac_lane = int(rng.choice([1, 3]))
    ac = KinematicState(s=float(rng.uniform(-20.0, 20.0)), v=float(rng.uniform(12.0, 24.0)))
    lanes = {i: LaneView(lead=maybe_lead(0.0), v_max=float(rng.uniform(18.0, 28.0)))
             for i in (1, 2, 3)}
    lanes[ac_lane] = LaneView(adjacent=ac, adjacent_v_ref=float(rng.uniform(12.0, 24.0)),
                              ac_lead=maybe_lead(ac.s), v_max=lanes[ac_lane].v_max)
    nb = make_neighbors(lanes=lanes, flow_ref=float(rng.uniform(15.0, 25.0)))
    return nb, KinematicState(s=0.0, v=float(rng.uniform(12.0, 24.0))), ac, ac_lane


def test_breakdown_totals_equal_matrix_cells_exactly(gains, rng):
    """The breakdown a solver reports is the matrix entry it chose on, to
    the last bit: both paths square the end-speed error the same way. On
    300 random scenes a scalar `** 2` put several cells one rounding step
    off."""
    names = sorted(BUILTIN_STYLES)
    for _ in range(300):
        nb, ego, ac, ac_lane = _random_three_lane_scene(rng)
        st_e, st_a = (_style(str(rng.choice(names))) for _ in range(2))
        e_acc, a_acc = rng.uniform(-4.0, 3.0, (2, 6))
        for sigma in (-1, 0, 1):
            j_e, j_a, ego_at = pair_payoff_matrices(ego, 2, sigma, e_acc, ac, ac_lane,
                                                    a_acc, nb, st_e, st_a, gains)
            # One cell per row and column: each breakdown has its own speeds.
            for i, (ae, aa) in enumerate(zip(e_acc, a_acc)):
                action = DecisionAction(sigma, float(ae))
                eb = ego_cost(ego, 2, action, {ac_lane: float(aa)}, nb, st_e, gains)
                ab = ac_cost(ac, ac_lane, ego, 2, action, float(aa), nb, st_a, gains)
                assert (eb.total, ab.total) == (j_e[i, i], j_a[i, i]), (sigma, i)
                assert eb == ego_at(i, i), (sigma, i)


def test_per_row_sigmas_equal_one_call_per_sigma(gains, rng):
    """One call with a lane move per row gives, row for row and to the
    last bit, what one call per sigma gives: both matrices and the ego's
    breakdown at every cell."""
    names = sorted(BUILTIN_STYLES)
    for _ in range(100):
        nb, ego, ac, ac_lane = _random_three_lane_scene(rng)
        st_e, st_a = (_style(str(rng.choice(names))) for _ in range(2))
        sigmas = rng.choice([-1, 0, 1], 9)
        e_acc, a_acc = rng.uniform(-4.0, 3.0, 9), rng.uniform(-4.0, 3.0, 5)
        j_e, j_a, ego_at = pair_payoff_matrices(ego, 2, sigmas, e_acc, ac, ac_lane,
                                                a_acc, nb, st_e, st_a, gains)
        for sigma in np.unique(sigmas):
            rows = (sigmas == sigma).nonzero()[0]
            want = pair_payoff_matrices(ego, 2, int(sigma), e_acc[rows], ac, ac_lane,
                                        a_acc, nb, st_e, st_a, gains)
            assert np.array_equal(j_e[rows], want[0])
            assert np.array_equal(j_a[rows], want[1])
            for k, r in enumerate(rows):
                for c in range(len(a_acc)):
                    assert _bits(ego_at(r, c)) == _bits(want[2](k, c))


def _bits(cb):
    """A breakdown's fields as hex strings: equal only when equal bit for bit."""
    return tuple(float(x).hex() for x in astuple(cb))


def _random_two_opponent_scene(rng):
    """Ego on lane 2 at s = 0 with an opponent on each side, leads drawn
    at random."""
    lanes = {}
    for lane in (1, 2, 3):
        lv = LaneView(v_max=float(rng.uniform(18.0, 28.0)))
        if rng.random() < 0.7:
            lv.lead = KinematicState(s=float(rng.uniform(5.0, 80.0)),
                                     v=float(rng.uniform(10.0, 24.0)))
        if lane != 2:
            lv.adjacent = KinematicState(s=float(rng.uniform(-20.0, 20.0)),
                                         v=float(rng.uniform(12.0, 24.0)))
            lv.adjacent_v_ref = float(rng.uniform(12.0, 24.0))
            if rng.random() < 0.7:
                lv.ac_lead = KinematicState(s=float(rng.uniform(25.0, 90.0)),
                                            v=float(rng.uniform(10.0, 24.0)))
        lanes[lane] = lv
    nb = make_neighbors(lanes=lanes, flow_ref=float(rng.uniform(15.0, 25.0)))
    return nb, KinematicState(s=0.0, v=float(rng.uniform(12.0, 24.0)))


def test_breakdown_reader_equals_the_spread_matrices(gains, rng):
    """`breakdown_at` gives, bit for bit, what the parts spread into full
    matrices give at every cell, for the ego and for every opponent: on
    one-opponent calls and two-opponent block calls, merge cells and
    others alike. (A solo decision scores no payoff call: see
    test_games.py::test_solo_matches_enumeration_on_random_scenes.)"""
    names = sorted(BUILTIN_STYLES)
    merge = other = 0
    for trial in range(120):
        st_e, st_1, st_3 = (_style(str(rng.choice(names))) for _ in range(3))
        sigmas = rng.choice([-1, 0, 1], 7)
        e_acc = rng.uniform(-4.0, 3.0, 7)
        if trial % 2 == 0:
            nb, ego, ac, ac_lane = _random_three_lane_scene(rng)
            acs, lanes, styles, widths = (ac,), (ac_lane,), (st_1,), (5,)
        else:
            nb, ego = _random_two_opponent_scene(rng)
            acs, lanes = (nb.adjacent(1), nb.adjacent(3)), (1, 3)
            styles, widths = (st_1, st_3), (4, 3)
        a_acc = rng.uniform(-4.0, 3.0, sum(widths))
        cells, ego_parts, ac_parts = costs._pair_parts(
            ego, 2, sigmas, e_acc, st_e, acs, lanes, widths, a_acc, styles, nb, gains,
            T_DM)
        shape = (len(e_acc), len(a_acc))
        merged = set(zip(*(x.tolist() for x in cells)))
        for r in range(shape[0]):
            for c in range(shape[1]):
                for parts in (ego_parts, ac_parts):
                    assert _bits(costs.breakdown_at(cells, parts, r, c)) == _bits(
                        breakdown_from_matrices(cells, parts, shape, r, c)), (trial, r, c)
                merge += (r, c) in merged
                other += (r, c) not in merged
    assert merge > 100 and other > 100


def test_pair_chunking_changes_no_bit(gains, rng, monkeypatch):
    """The pair term is evaluated PAIR_CHUNK merge cells at a time; with
    chunks far smaller than the merge cells, both matrices and every
    ego breakdown come out the same, bit for bit."""
    for trial in range(12):
        nb, ego = _random_two_opponent_scene(rng)
        sigma = rng.choice([-1, 0, 1], 40)
        e_acc, a_acc = rng.uniform(-4.0, 3.0, 40), rng.uniform(-4.0, 3.0, 30)
        args = (ego, 2, sigma, e_acc, (nb.adjacent(1), nb.adjacent(3)), (1, 3), a_acc, nb,
                _style(), (_style("aggressive"), _style("conservative")), gains)
        outs = []
        for chunk in (costs.PAIR_CHUNK, 7, 1):
            monkeypatch.setattr(costs, "PAIR_CHUNK", chunk)
            j_e, j_a, ego_at = costs.pair_payoff_matrices(*args, widths=(16, 14))
            outs.append((j_e.tobytes(), j_a.tobytes(),
                         [_bits(ego_at(r, c)) for r in range(40) for c in range(30)]))
        cells = costs._pair_parts(ego, 2, sigma, e_acc, _style(), args[4], (1, 3), (16, 14),
                                  a_acc, args[9], nb, gains, T_DM)[0]
        assert len(cells[0]) > 7 * 10
        assert outs[1] == outs[0] and outs[2] == outs[0], trial


def test_ac_follows_its_lead_unless_merged(gains):
    """Only a merge involves the AC with the ego: against a keep-lane row
    or a move to the far lane it pays the same following term behind its
    own lead, so every non-merge row of its matrix is the same row."""
    ac = KinematicState(s=10.0, v=20.0)
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=ac, adjacent_v_ref=20.0,
                    ac_lead=KinematicState(s=22.0, v=14.0)),
        2: LaneView(), 3: LaneView()})
    e_acc, a_acc = np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    rows = [pair_payoff_matrices(KinematicState(0.0, 20.0), 2, sigma, e_acc, ac, 1,
                                 a_acc, nb, _style(), _style(), gains)[1]
            for sigma in (0, 1)]
    j_a = np.concatenate(rows)
    assert np.all(j_a == j_a[0])
    assert j_a[0, 1] > 1000.0   # 12 m behind a car 6 m/s slower


def test_one_projection_per_car(gains, monkeypatch):
    """One payoff call projects the ego once and all the opponents'
    columns in one more call, each column from its car's state; the leads
    coast at their speed and are not projected. Counted at the state stage
    of the projection, which every projection runs once per call, on a
    merge, on keep-lane and when keep-lane and merge rows share the call."""
    calls = []
    real = costs.project

    def counted(terms, s, v):
        calls.append(sorted(zip(np.ravel(s).tolist(), np.ravel(v).tolist())))
        return real(terms, s, v)

    monkeypatch.setattr(costs, "project", counted)
    nb, ego, ac, ac_lane = _two_lane_merge()
    a_acc = np.array([-1.0, 0.0, 2.0])
    for sigma in (-1, 0, [0, -1, 0]):
        calls.clear()
        pair_payoff_matrices(ego, 2, sigma, np.array([-2.0, 0.0, 1.5]), ac, ac_lane,
                             a_acc, nb, _style("aggressive"), _style("normal"), gains)
        assert calls == [[(0.0, 20.0)], [(4.0, 16.0)] * len(a_acc)], sigma


def test_weight_shift_toward_efficiency_never_raises_velocity_error(gains, rng):
    """Scalarization property on a fixed grid: growing the efficiency
    weight (renormalized) cannot increase the chosen action's j_pe."""
    from dataclasses import replace
    base = _style("normal")
    nb = make_neighbors(lanes={
        1: LaneView(adjacent=KinematicState(s=6.0, v=17.0), adjacent_v_ref=17.0),
        2: LaneView(lead=KinematicState(s=35.0, v=14.0)),
    })
    ego = KinematicState(s=0.0, v=19.0)
    grid = [DecisionAction(s, a) for s in (0, -1)
            for a in (-3.0, -1.5, 0.0, 1.5, 3.0)]

    def pick(style):
        best, best_cb = None, None
        for act in grid:
            cb = ego_cost(ego, 2, act, {1: 0.0}, nb, style, gains)
            if best_cb is None or cb.total < best_cb.total - 1e-15:
                best, best_cb = act, cb
        return best_cb

    prev_pe = None
    for w_pe in (0.1, 0.3, 0.5, 0.7, 0.9):
        rest = 1.0 - w_pe
        style = replace(base, w_ds=rest * 0.6, w_rc=rest * 0.4, w_pe=w_pe)
        cb = pick(style)
        if prev_pe is not None:
            assert cb.j_pe <= prev_pe + 1e-12
        prev_pe = cb.j_pe


def test_gains_validation():
    with pytest.raises(ValueError):
        CostGains(kappa_ax=-1.0)
    with pytest.raises(ValueError):
        CostGains(epsilon=0.0)
    with pytest.raises(ValueError):
        CostGains(l_v=0.0)
    with pytest.raises(ValueError):
        DecisionAction(sigma=2, a_x=0.0)
