"""Closed-loop harness: determinism, trace schema, metric reduction."""

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from lanegame import field, games, planner, simulate
from lanegame.cli import main
from lanegame.costs import DecisionAction, KinematicState
from lanegame.errors import ConfigError, InfeasibleDecisionError
from lanegame.games import GameSolution
from lanegame.road import LaneSpec, RoadGeometry
from lanegame.scenario import CAR_LENGTH, VehicleSpec, load_scenario
from lanegame.styles import style_profile
from lanegame.simulate import (BASE_COLUMNS, STYLES_ALL, TraceLog, _Car,
                               _scene_view, batch, comparison_csv,
                               metrics_lines, run_simulation, summarize,
                               write_trace)


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
    arr = np.array(short_trace.rows)
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


@pytest.mark.parametrize("kind,name", [("strategy", "Nash"), ("strategy", "foo"),
                                       ("style", "Normal")])
def test_unknown_strategy_or_style_is_a_config_error(merge_cfg, monkeypatch, kind, name):
    # Not run under another solver or labelled with the name, and no bare
    # KeyError: a ConfigError naming the known values, before any step.
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(simulate, "step", no_step)
    known = "aggressive, normal, conservative" if kind == "style" else "nash, stackelberg"
    match = f"unknown {kind} '{name}'; known: {known}"
    with pytest.raises(ConfigError, match=match):
        run_simulation(merge_cfg, **{kind: name})
    sweep = {"styles": STYLES_ALL, "strategies": ("nash", "stackelberg")}
    sweep["styles" if kind == "style" else "strategies"] += (name,)
    with pytest.raises(ConfigError, match=match):
        batch(merge_cfg, **sweep)


def test_one_field_layout_per_step(merge_cfg, monkeypatch):
    # The closed loop lays the other cars out once per step, and the
    # planner coasts that layout: one pass over the lane lines per step.
    calls = []
    real = field._weighted_lines
    monkeypatch.setattr(field, "_weighted_lines",
                        lambda *args: calls.append(1) or real(*args))
    tr = run_simulation(replace(merge_cfg, duration=0.5))
    assert len(tr.rows) == 10 and not tr.aborted
    assert len(calls) == len(tr.rows)


@pytest.mark.parametrize("n_cars", [0, 1, 3])
@pytest.mark.parametrize("radius", [None, 2000.0, 300.0], ids=["straight", "arc", "tight_arc"])
def test_prepare_scene_matches_the_per_car_scalar_path(n_cars, radius):
    # The closed loop places the other cars with one array call each of
    # to_global and tangent_heading. Bit for bit, that is every car placed
    # on its own: scalar calls, and math.cos / math.sin of its heading.
    road = (RoadGeometry(length=500.0) if radius is None else
            RoadGeometry(kind="arc", radius=radius, length=600.0,
                         lanes={i: LaneSpec(index=i) for i in (1, 2, 3)}))
    rng = np.random.default_rng(n_cars)
    for _ in range(50):
        cars = [_Car(role=f"C{k}", lane=1, strategic=False, style="normal",
                     s=float(rng.uniform(0.0, 500.0)), d=float(rng.uniform(-6.0, 6.0)),
                     v=float(rng.uniform(0.0, 30.0)), v_ref=20.0)
                for k in range(n_cars)]
        poses = [(*map(float, road.to_global(c.s, c.d)), float(road.tangent_heading(c.s)))
                 for c in cars]
        want = {"x": [x for x, _, _ in poses], "y": [y for _, y, _ in poses],
                "cos": [math.cos(h) for _, _, h in poses],
                "sin": [math.sin(h) for _, _, h in poses], "v": [c.v for c in cars]}
        scene = simulate.prepare_scene(road, cars, field.FieldParams())
        for name, values in want.items():
            got = getattr(scene, name)
            assert got.shape == (n_cars,) and got.dtype == np.float64, name
            assert got.tobytes() == np.array(values, dtype=float).tobytes(), name
        assert scene.road is road


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
    assert np.allclose(loaded, np.array(short_trace.rows), rtol=1e-8, atol=1e-12)


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


def test_regression_is_not_a_box_violation(merge_cfg, monkeypatch):
    # A plan that scores worse than zero increments while its command stays
    # in the box counts as a planner regression only, so the two checks
    # tell the outcomes apart.
    real = simulate.solve_plan

    def regressing(*args):
        plan = real(*args)
        return replace(plan, cost=plan.cost_zero + 1.0)

    monkeypatch.setattr(simulate, "solve_plan", regressing)
    m = summarize(run_simulation(replace(merge_cfg, duration=0.25)))
    assert m.planner_regressions == m.steps > 0
    assert m.box_violations == 0


def test_summarize_empty_trace():
    tr = TraceLog(scenario="x", style="normal", strategy="nash",
                  columns=list(BASE_COLUMNS), aborted=True,
                  abort_reason="nothing ran")
    m = summarize(tr)
    assert m.steps == 0 and m.aborted
    assert math.isnan(m.t_commit) and m.sigma_commit == 0
    assert m.min_clearance == math.inf and m.contact_steps == 0


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
    # With a cap of 5 some solves stop there and some converge first.
    # The cap rides on the trace, so the trace columns stay as they are.
    cfg = replace(merge_cfg, duration=1.0, mpc=replace(merge_cfg.mpc, max_iter=5))
    tr = run_simulation(cfg, style="aggressive")
    assert tr.max_iter == 5 and tr.columns[:len(BASE_COLUMNS)] == BASE_COLUMNS
    m = summarize(tr)
    assert 0 < m.maxiter_steps < m.steps
    assert m.maxiter_steps == int(np.sum(tr.column("mpc_iters") == 5))
    assert f"maxiter_steps={m.maxiter_steps}" in metrics_lines(m)


def test_mpc_iterations_sums_the_trace_column(short_trace):
    m = summarize(short_trace)
    iters = short_trace.column("mpc_iters")
    assert m.mpc_iterations == int(iters.sum()) > len(iters)
    assert f"mpc_iterations={m.mpc_iterations}" in metrics_lines(m)
    assert summarize(replace(short_trace, rows=[])).mpc_iterations == 0


def test_mpc_cost_rows_counts_the_planner_output_rows(merge_cfg, monkeypatch):
    # The run's row count is the rows the planner's _outputs scored, and
    # it is printed with the metrics but is no trace column.
    rows = []
    real = planner._outputs

    def counted(poses, *args):
        rows.append(poses[..., 0, 0].size)
        return real(poses, *args)

    monkeypatch.setattr(planner, "_outputs", counted)
    tr = run_simulation(replace(merge_cfg, duration=0.5), style="aggressive",
                        strategy="nash")
    m = summarize(tr)
    assert m.mpc_cost_rows == sum(rows) > 0
    assert f"mpc_cost_rows={m.mpc_cost_rows}" in metrics_lines(m)
    assert "mpc_cost_rows" not in tr.columns
    assert summarize(replace(tr, rows=[])).mpc_cost_rows == 0


def test_metrics_text_outputs(short_trace, tmp_path, capsys):
    m = summarize(short_trace)
    lines = metrics_lines(m)
    as_dict = dict(line.split("=", 1) for line in lines)
    assert as_dict["scenario"] == "scenario_a"
    assert as_dict["style"] == "aggressive"
    assert as_dict["sigma_commit"] == "-1"
    assert as_dict["merged"] == "0"
    assert "gap_at_commit_AC1" in as_dict
    # `lanegame run --metrics PATH` writes the text it prints without it.
    scene = tmp_path / "short_a.json"
    scene.write_text(json.dumps(dict(json.loads(
        resources.files("lanegame.scenarios").joinpath("scenario_a.json").read_text()),
        duration=1.5)))
    argv = ["run", str(scene), "--style", "aggressive", "--strategy", "nash"]
    p = tmp_path / "metrics.txt"
    assert main(argv + ["--metrics", str(p)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert p.read_text() == capsys.readouterr().out == "\n".join(lines) + "\n"


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
    # Layer timing wraps the solvers by module attribute, so `_Loop.decide`
    # must call whatever `simulate.solve_nash_2p` names now.
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


# --- one closed loop, stepped by hand -------------------------------------

@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_every_run_decides_its_first_step(name):
    # The row's game and dec_* columns read the loop's last decision, so
    # no run may start with a step that has none.
    cfg = load_scenario(name)
    for style in STYLES_ALL:
        loop = simulate._Loop(cfg, style, ["nash", "stackelberg"])
        assert loop.outcome is None and loop.trace.rows == []
        assert loop.advance() == ""
        row = dict(zip(loop.trace.columns, loop.trace.rows[0]))
        assert row["decided"] == 1.0 and row["t"] == 0.0, style
        assert row["mode"] == loop.outcome[1] == (1 if name == "scenario_a" else 2)
        assert loop.group == ["nash", "stackelberg"] and loop.parted == []


def _solved_from_the_kept_view(loop, strategy):
    """The kept step's game, passed straight to its mode's solver."""
    cfg, lane, nb, ego_style = loop.cfg, loop.lane, loop.nb, style_profile(loop.trace.style)
    sides = [side for side in (lane - 1, lane + 1) if side in loop.opponents]
    styles = [style_profile(loop.opponents[side].style) for side in sides]
    tail = (cfg.gains, cfg.decision.horizon)
    if not sides:
        return games.solve_solo(loop.ego, lane, nb, cfg.grid, ego_style, *tail), 0
    name = f"solve_{strategy}_{'2p' if len(sides) == 1 else 'two_ac'}"
    opps = [nb.adjacent(side) for side in sides]
    if len(sides) == 1:
        opps.append(sides[0])
    sol = getattr(games, name)(loop.ego, lane, *opps, nb, cfg.grid, cfg.grid,
                               ego_style, *styles, *tail)
    return sol, len(sides)


@pytest.mark.parametrize("name,strategy,steps,modes,decided", [
    ("scenario_a", "stackelberg", 240, {0, 1}, {0.0, 1.0}),
    ("scenario_b", "nash", 20, {2}, {1.0}),
])
def test_a_decided_step_keeps_what_its_solver_saw(name, strategy, steps, modes, decided):
    # At each decided step, the view and opponents the loop kept reproduce
    # its outcome through the solver of that mode, and the row's game and
    # dec_* columns are that outcome's; a held step's columns stay its.
    loop = simulate._Loop(load_scenario(name), "normal", [strategy])
    seen = set()
    for k in range(steps):
        assert loop.advance() == ""
        row = dict(zip(loop.trace.columns, loop.trace.rows[k]))
        sol, mode = loop.outcome
        if row["decided"]:
            assert repr(_solved_from_the_kept_view(loop, strategy)) == repr(loop.outcome), k
            seen.add(mode)
        cb = sol.ego_cost
        assert [row[c] for c in ("mode", "multiplicity", "security", "side", "dec_j_ds",
                                 "dec_j_rc", "dec_j_pe", "dec_total")] == \
            [mode, sol.multiplicity, sol.security_fallback, sol.side or 0,
             cb.j_ds, cb.j_rc, cb.j_pe, cb.total], k
    assert seen == modes
    assert set(loop.trace.column("decided")) == decided


# --- strategies sharing one closed loop ----------------------------------

def _separate_runs_agree(runs, cfg, tmp_path):
    """Each batch trace, by `write_trace` bytes and abort reason, is that
    of its own `run_simulation` call."""
    for trace, m in runs:
        alone = run_simulation(cfg, style=trace.style, strategy=trace.strategy)
        write_trace(trace, str(tmp_path / "shared.csv"))
        write_trace(alone, str(tmp_path / "alone.csv"))
        key = (trace.style, trace.strategy)
        assert (tmp_path / "shared.csv").read_bytes() == \
            (tmp_path / "alone.csv").read_bytes(), key
        assert (trace.aborted, trace.abort_reason) == (alone.aborted, alone.abort_reason), key
        assert metrics_lines(m) == metrics_lines(summarize(alone)), key
    return {(t.strategy, t.style): t for t, _ in runs}


def _patched_stackelberg(monkeypatch, change):
    """Make `simulate.solve_stackelberg_2p` return change(ego, solution)."""
    real = simulate.solve_stackelberg_2p
    monkeypatch.setattr(simulate, "solve_stackelberg_2p",
                        lambda ego, *args: change(ego, real(ego, *args)))


def _first_difference(a: TraceLog, b: TraceLog):
    return next((k for k, (ra, rb) in enumerate(zip(a.rows, b.rows))
                 if repr(ra) != repr(rb)), None)


def test_a_strategy_that_parts_by_action_reruns_alone(merge_cfg, monkeypatch, tmp_path):
    # From 10 m past its start the Stackelberg ego keeps its lane at 0.25
    # m/s^2, off the action grid so that Nash never plays it: it shares
    # the Nash loop up to there, step 10, and then runs on its own.
    cfg = replace(merge_cfg, duration=1.5)
    s0 = cfg.ego().s
    assert 0.25 not in cfg.grid.accelerations
    _patched_stackelberg(monkeypatch, lambda ego, sol: sol if ego.s <= s0 + 10.0 else
                         replace(sol, ego_action=DecisionAction(sigma=0, a_x=0.25)))
    traces = _separate_runs_agree(batch(cfg), cfg, tmp_path)
    for style in STYLES_ALL:
        nash, stack = traces[("nash", style)], traces[("stackelberg", style)]
        assert _first_difference(nash, stack) == 10, style
        assert stack.column("a_cmd")[10:].tolist() == [0.25] * 20


@pytest.mark.parametrize("strategies", [("nash", "stackelberg"), ("stackelberg", "nash")])
def test_a_strategy_that_parts_by_failure_aborts_alone(merge_cfg, monkeypatch, tmp_path,
                                                      strategies):
    # A solver failure is an outcome like any other: the failing strategy
    # aborts as its own run would, first in the group or not, and the
    # other runs on.
    cfg = replace(merge_cfg, duration=1.5)
    s0 = cfg.ego().s

    def fail_past(ego, sol):
        if ego.s > s0 + 10.0:
            raise InfeasibleDecisionError("no stable cell past the mark")
        return sol

    _patched_stackelberg(monkeypatch, fail_past)
    runs = batch(cfg, styles=("normal",), strategies=strategies)
    traces = _separate_runs_agree(runs, cfg, tmp_path)
    stack, nash = traces[("stackelberg", "normal")], traces[("nash", "normal")]
    assert stack.aborted and not nash.aborted
    assert stack.abort_reason == ("decision infeasible at t=0.50: "
                                  "no stable cell past the mark")
    assert len(stack.rows) == 10 and stack.rows == nash.rows[:10]


def test_a_strategy_that_parts_by_the_sign_of_zero_reruns_alone(merge_cfg, monkeypatch,
                                                               tmp_path):
    # -0.0 == 0.0, but the trace writes -0 and 0: a Stackelberg ego that
    # holds -0.0 where Nash holds 0.0 no longer shares the Nash loop.
    cfg = replace(merge_cfg, duration=3.0)
    _patched_stackelberg(monkeypatch, lambda ego, sol: sol if sol.ego_action.a_x != 0.0 else
                         replace(sol, ego_action=replace(sol.ego_action, a_x=-0.0)))
    runs = [(t, m) for t, m in batch(cfg) if t.style == "normal"]
    traces = _separate_runs_agree(runs, cfg, tmp_path)
    write_trace(traces[("stackelberg", "normal")], str(tmp_path / "stack.csv"))
    lines = (tmp_path / "stack.csv").read_text().splitlines()
    a_cmd = lines[0].split(",").index("a_cmd")
    assert sum(line.split(",")[a_cmd] == "-0" for line in lines[1:]) > 0
    assert traces[("nash", "normal")].column("a_cmd").tolist().count(0.0) > 0


def test_bundled_strategies_share_one_loop(merge_cfg, monkeypatch):
    # Nash and Stackelberg decide alike on every bundled merge run, so a
    # batch plans each step of each style once.
    calls = []
    real = simulate.solve_plan
    monkeypatch.setattr(simulate, "solve_plan", lambda *a: calls.append(1) or real(*a))
    runs = batch(merge_cfg)
    n_steps = int(round(merge_cfg.duration / merge_cfg.dt))
    assert len(calls) == len(STYLES_ALL) * n_steps == 720
    assert [len(t.rows) for t, _ in runs] == [n_steps] * 6
    # Each trace owns its rows.
    assert len({id(t.rows) for t, _ in runs}) == 6


def test_one_strategy_run_compares_no_outcomes(merge_cfg, monkeypatch):
    def no_repr(self):
        raise AssertionError("an outcome was compared")

    monkeypatch.setattr(GameSolution, "__repr__", no_repr)
    tr = run_simulation(replace(merge_cfg, duration=0.25), style="normal")
    assert np.sum(tr.column("decided")) == 5


def test_batch_repeats_names_in_order(merge_cfg):
    cfg = replace(merge_cfg, duration=0.5)
    styles, strategies = ("normal", "normal", "aggressive"), ("stackelberg", "nash",
                                                             "stackelberg")
    runs = batch(cfg, styles=styles, strategies=strategies)
    want = [summarize(run_simulation(cfg, style=sty, strategy=strat))
            for strat in strategies for sty in styles]
    assert [(m.strategy, m.style) for _, m in runs] == [(m.strategy, m.style) for m in want]
    assert comparison_csv([m for _, m in runs]) == comparison_csv(want)


@pytest.mark.parametrize("sweep", [{"strategies": ()}, {"styles": ()},
                                   {"styles": (), "strategies": ()}])
def test_batch_of_no_runs_is_empty(merge_cfg, monkeypatch, sweep):
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(simulate, "step", no_step)
    assert batch(merge_cfg, **sweep) == []


def test_contact_steps_counts_steps_under_a_car_length(merge_cfg, short_trace):
    # The ego starts at 23.2 m/s, 8.6 m behind a 12.8 m/s car on its own
    # lane: too close to keep clear. The run goes on, and the steps where
    # the pair is closer than a car length are counted.
    vehicles = [replace(v, s=40.0, v=23.2) if v.role == "EC" else v
                for v in merge_cfg.vehicles]
    vehicles.append(VehicleSpec(role="LC", lane=2, s=48.6, v=12.8))
    tr = run_simulation(replace(merge_cfg, vehicles=vehicles, duration=3.0))
    m = summarize(tr)
    assert not m.aborted and m.min_clearance < 0.3
    assert m.contact_steps == np.sum(tr.column("min_clearance") < CAR_LENGTH) == 19
    assert "contact_steps=19" in metrics_lines(m)
    assert summarize(short_trace).contact_steps == 0


@pytest.mark.parametrize("v0,a_x", [(1.0, -4.0), (24.9, 3.0)])
def test_other_cars_hold_their_band_edge_speed(merge_cfg, monkeypatch, v0, a_x):
    # AC1 holds a command that drives its speed out of the lane's band
    # [0, 25]: it accelerates up to the edge and then moves at the edge
    # speed, so a braking car stops where `costs.project` stops it and
    # never rolls back, and a fast one gains no station beyond v_max.
    real = simulate.solve_nash_2p
    monkeypatch.setattr(simulate, "solve_nash_2p", lambda *args: replace(
        real(*args), ego_action=DecisionAction(sigma=0, a_x=0.0), ac_actions={1: a_x}))
    vehicles = [replace(v, v=v0) if v.role == "AC1" else v for v in merge_cfg.vehicles]
    tr = run_simulation(replace(merge_cfg, vehicles=vehicles, duration=1.5))
    assert not tr.aborted and set(tr.column("sigma")) == {0.0}
    edge = 0.0 if a_x < 0 else 25.0
    tau = (edge - v0) / a_x
    t = tr.column("t")
    held = np.minimum(t, tau)
    want = v0 * held + 0.5 * a_x * held * held + edge * (t - held)
    assert tr.column("s_ac1") == pytest.approx(want, rel=0.0, abs=1e-9)
    assert tr.column("v_ac1")[t > tau].tolist() == [edge] * int(np.sum(t > tau))
    assert np.all(np.diff(tr.column("s_ac1")) >= 0.0)
