"""Closed-loop harness: determinism, trace schema, metric reduction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lanegame import simulate
from lanegame.costs import KinematicState
from lanegame.road import LaneSpec, RoadGeometry
from lanegame.scenario import load_scenario
from lanegame.simulate import (BASE_COLUMNS, STYLES_ALL, TraceLog, _Car,
                               _scene_view, batch, comparison_csv,
                               metrics_lines, run_simulation, summarize,
                               write_metrics, write_trace)


@pytest.fixture(scope="module")
def merge_cfg():
    return load_scenario("scenario_a")


@pytest.fixture(scope="module")
def short_trace(merge_cfg):
    # 1.5 s is enough for the aggressive profile to commit without paying
    # for a full merge in every test.
    cfg = replace(merge_cfg, duration=1.5)
    return run_simulation(cfg, style="aggressive", strategy="nash")


def test_trace_schema(short_trace, merge_cfg):
    assert short_trace.columns[:len(BASE_COLUMNS)] == BASE_COLUMNS
    assert short_trace.roles == ["AC1"]
    assert short_trace.columns[-4:] == ["s_ac1", "d_ac1", "v_ac1", "a_ac1"]
    assert len(short_trace.rows) == int(round(1.5 / merge_cfg.dt))
    assert not short_trace.aborted
    arr = short_trace.as_array()
    assert arr.shape == (len(short_trace.rows), len(short_trace.columns))
    # min_clearance is inf while no pair shares a lane; everything else
    # must stay finite.
    clr = short_trace.columns.index("min_clearance")
    mask = np.ones(arr.shape[1], dtype=bool)
    mask[clr] = False
    assert np.all(np.isfinite(arr[:, mask]))
    assert not np.any(np.isnan(arr))
    # The ego must actually drive forward.
    s = short_trace.column("s_ec")
    assert np.all(np.diff(s) > 0)
    with pytest.raises(ValueError):
        short_trace.column("no_such_column")


def test_style_and_strategy_override(merge_cfg):
    cfg = replace(merge_cfg, duration=0.25)
    tr = run_simulation(cfg, style="conservative", strategy="stackelberg")
    assert tr.style == "conservative"
    assert tr.strategy == "stackelberg"


def test_repeat_runs_byte_identical(merge_cfg, tmp_path):
    cfg = replace(merge_cfg, duration=1.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(run_simulation(cfg, style="normal"), str(p1))
    write_trace(run_simulation(cfg, style="normal"), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert len(b1) > 1000


def test_write_trace_round_trips(short_trace, tmp_path):
    p = tmp_path / "trace.csv"
    write_trace(short_trace, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(short_trace.columns)
    loaded = np.loadtxt(str(p), delimiter=",", skiprows=1)
    # 9 significant digits: relative agreement, not bit equality.
    assert np.allclose(loaded, short_trace.as_array(), rtol=1e-8, atol=1e-12)


def test_summarize_recomputes_from_columns(short_trace):
    m = summarize(short_trace)
    t = short_trace.column("t")
    sigma = short_trace.column("sigma")
    first = np.flatnonzero(sigma != 0)[0]
    assert m.t_commit == pytest.approx(t[first])
    assert m.sigma_commit == int(sigma[first]) == -1
    assert m.steps == len(short_trace.rows)
    # Commit-time bookkeeping against the raw columns.
    gap = short_trace.column("s_ec")[first] - short_trace.column("s_ac1")[first]
    assert m.gap_at_commit["AC1"] == pytest.approx(gap)
    assert m.v_at_commit["EC"] == pytest.approx(short_trace.column("v_ec")[first])
    j = short_trace.column("j_total")
    assert m.rms_total == pytest.approx(float(np.sqrt(np.mean(j * j))))
    assert m.min_clearance == pytest.approx(float(np.min(short_trace.column("min_clearance"))))
    assert m.max_field == pytest.approx(float(np.max(short_trace.column("field_ec"))))
    # 1.5 s is too short for the change to finish.
    assert not m.merged and math.isnan(m.t_merge_done)
    assert m.final_lane == 2
    assert m.planner_regressions == 0
    assert m.box_violations == 0


def test_summarize_empty_trace():
    tr = TraceLog(scenario="x", style="normal", strategy="nash",
                  columns=list(BASE_COLUMNS), aborted=True,
                  abort_reason="nothing ran")
    m = summarize(tr)
    assert m.steps == 0 and m.aborted
    assert math.isnan(m.t_commit) and m.sigma_commit == 0
    assert m.min_clearance == math.inf


def test_layer_failure_aborts_with_reason(merge_cfg):
    # 40 m before the road end the planner's horizon soon leaves the road:
    # the run stops at that step, names it, and keeps the rows before it.
    vehicles = [replace(v, s=460.0) if v.role == "EC" else v
                for v in merge_cfg.vehicles]
    cfg = replace(merge_cfg, vehicles=vehicles, duration=1.0)
    tr = run_simulation(cfg)
    assert tr.aborted
    assert 0 < len(tr.rows) < 20
    assert tr.abort_reason.startswith(
        f"domain error at t={len(tr.rows) * cfg.dt:.2f}: ")
    m = summarize(tr)
    assert m.aborted and m.steps == len(tr.rows)


def test_maxiter_steps_counts_plans_at_the_cap(merge_cfg):
    # With a cap of 10 some solves stop there and some converge first.
    # The cap rides on the trace, so the trace columns stay as they are.
    cfg = replace(merge_cfg, duration=1.0, mpc=replace(merge_cfg.mpc, max_iter=10))
    tr = run_simulation(cfg, style="aggressive")
    assert tr.max_iter == 10 and tr.columns[:len(BASE_COLUMNS)] == BASE_COLUMNS
    m = summarize(tr)
    assert 0 < m.maxiter_steps < m.steps
    assert m.maxiter_steps == int(np.sum(tr.column("mpc_iters") == 10))
    assert f"maxiter_steps={m.maxiter_steps}" in metrics_lines(m)


def test_metrics_text_outputs(short_trace, tmp_path):
    m = summarize(short_trace)
    lines = metrics_lines(m)
    as_dict = dict(line.split("=", 1) for line in lines)
    assert as_dict["scenario"] == "scenario_a"
    assert as_dict["style"] == "aggressive"
    assert as_dict["sigma_commit"] == "-1"
    assert as_dict["merged"] == "0"
    assert "gap_at_commit_AC1" in as_dict
    p = tmp_path / "metrics.txt"
    write_metrics(m, str(p))
    assert p.read_text() == "\n".join(lines) + "\n"


def test_batch_and_comparison_table(merge_cfg):
    cfg = replace(merge_cfg, duration=0.5)
    runs = batch(cfg, styles=("normal",), strategies=("nash", "stackelberg"))
    assert len(runs) == 2
    assert runs[0][0].strategy == "nash"
    assert runs[1][0].strategy == "stackelberg"
    csv = comparison_csv([m for _, m in runs])
    lines = csv.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("scenario,style,strategy,")
    assert lines[0].endswith(",aborted,maxiter_steps")
    assert lines[1].split(",")[1] == "normal"
    assert STYLES_ALL == ("aggressive", "normal", "conservative")


def _reference_view(cars, lanes, ego_lane, s_e):
    """Reference: one roster scan per question the view answers. Per lane
    the lead the ego would follow, the first strategic car on any other
    lane, and the nearest car ahead of that one."""
    def lead_for(lane):
        best = None
        for c in cars:
            if c.lane != lane or c.s <= s_e:
                continue
            if c.strategic and lane != ego_lane:
                continue
            if best is None or c.s < best.s:
                best = c
        return best

    def adjacent_on(lane):
        if lane == ego_lane:
            return None
        for c in cars:
            if c.strategic and c.lane == lane:
                return c
        return None

    out = {}
    for lane in lanes:
        adj = adjacent_on(lane)
        ahead = [c for c in cars if adj is not None and c.lane == lane and c.s > adj.s]
        out[lane] = (lead_for(lane), adj, min(ahead, key=lambda c: c.s) if ahead else None)
    return out


def _kin(car):
    return None if car is None else KinematicState(s=car.s, v=car.v)


def test_scene_view_matches_the_roster_scans(merge_cfg):
    """On seeded rosters (2-3 lanes, strategic cars on the ego's lane, cars
    behind the ego, stations on a 5 m grid so ties are common) the view
    holds what the separate scans found, field for field; every car has
    its own speed, so a tie broken the other way shows."""
    rng = np.random.default_rng(99)
    dec = merge_cfg.decision
    ties = capped = 0
    for _ in range(400):
        n_lanes = int(rng.integers(2, 4))
        road = RoadGeometry(lanes={i: LaneSpec(index=i, v_max=20.0 + i,
                                               end_station=100.0 if i == 2 else None)
                                   for i in range(1, n_lanes + 1)})
        ego_lane = int(rng.integers(1, n_lanes + 1))
        s_e = float(rng.choice([0.0, 10.0, 25.0]))
        cars = [_Car(role=f"C{k}", lane=int(rng.integers(1, n_lanes + 1)),
                     strategic=bool(rng.random() < 0.4), style="normal",
                     s=5.0 * float(rng.integers(-4, 12)), d=0.0, v=10.0 + k,
                     v_ref=30.0 - k)
                for k in range(int(rng.integers(0, 9)))]
        stations = [(c.lane, c.s) for c in cars]
        ties += len(stations) - len(set(stations))
        nb, opponents = _scene_view(road, merge_cfg, cars, ego_lane, s_e, 17.0)
        ref = _reference_view(cars, road.lanes, ego_lane, s_e)
        assert set(nb.lanes) == set(road.lanes)
        assert (nb.lane_width, nb.flow_ref) == (road.lane_width, 17.0)
        assert (nb.a_end, nb.end_margin, nb.a_brake) == (dec.a_end, dec.end_margin,
                                                         dec.a_brake)
        for lane, (lead, adj, ac_lead) in ref.items():
            view = nb.lanes[lane]
            assert view.lead == _kin(lead)
            assert view.adjacent == _kin(adj)
            assert view.ac_lead == _kin(ac_lead)
            assert view.adjacent_v_ref == (None if adj is None else adj.v_ref)
            assert opponents.get(lane) is adj
            assert (view.v_min, view.v_max) == (road.lanes[lane].v_min,
                                                road.lanes[lane].v_max)
            # The cap written out: the lane limit, cut on the ending lane
            # by the braking profile toward the end margin.
            v_max, rem = road.lanes[lane].v_max, road.remaining(lane, s_e)
            run = max(rem - dec.end_margin, 0.0)
            cap = v_max if math.isinf(rem) else min(v_max, math.sqrt(2.0 * dec.a_end * run))
            capped += cap < v_max
            assert nb.v_cap(lane) == cap
    assert ties > 50 and capped > 50


def test_decide_looks_the_solver_up_at_call_time(merge_cfg, monkeypatch):
    # Layer timing wraps the solvers by module attribute, so the closed
    # loop must call whatever `simulate.solve_nash_2p` names now.
    calls = []
    real = simulate.solve_nash_2p

    def counted(*args, **kw):
        calls.append(args[3])   # the opponent's lane
        return real(*args, **kw)

    monkeypatch.setattr(simulate, "solve_nash_2p", counted)
    tr = run_simulation(replace(merge_cfg, duration=0.25), style="normal",
                        strategy="nash")
    assert calls == [1] * int(np.sum(tr.column("decided")))
    assert calls and set(tr.column("mode")) == {1.0}
