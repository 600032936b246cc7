"""Acceptance run for the whole package.

Each test covers one release criterion and prints a single verdict line
(run with -s to see them as they happen, or -rA for the captured block).
The two scenario batches are computed once per module and shared by the
pattern, cost-comparison, safety, determinism and fingerprint checks.
"""

import functools
import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lanegame.costs import (CostGains, KinematicState, LaneView, ac_cost,
                            ego_cost)
from lanegame.field import FieldParams
from lanegame.games import (ActionGrid, ac_candidates, ego_candidates,
                            nash_2p_matrices, solve_nash_2p, solve_nash_two_ac,
                            solve_stackelberg_2p, solve_stackelberg_two_ac,
                            stackelberg_2p_matrices)
from lanegame.planner import solve_plan
from lanegame.road import RoadGeometry
from lanegame.scenario import load_scenario
from lanegame.cli import main as cli_main
from lanegame.simulate import batch, comparison_csv, run_simulation, write_trace
from lanegame.styles import style_profile
from lanegame.vehicle import IVX, NX, derivatives, discretize, linearize

from conftest import FINGERPRINTS, check_fingerprints, make_neighbors
from reference import ObstaclePose, obstacle_field, prepare_poses, road_field

STYLES = ("aggressive", "normal", "conservative")
STRATS = ("nash", "stackelberg")


def criterion(name):
    """Print one verdict line per criterion, whatever pytest does next."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE  {name}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE  {name}: PASS", flush=True)
        return wrapper
    return deco


def warning_free_batch(cfg):
    """batch(cfg) with every warning an error, so a NumPy overflow or
    invalid value in a bundled run fails instead of passing unseen."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return batch(cfg)


@pytest.fixture(scope="module")
def merge_runs():
    cfg = load_scenario("scenario_a")
    t0 = time.perf_counter()
    runs = warning_free_batch(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, {(m.strategy, m.style): m for _, m in runs}, runs, elapsed


@pytest.fixture(scope="module")
def overtake_runs():
    cfg = load_scenario("scenario_b")
    runs = warning_free_batch(cfg)
    return cfg, {(m.strategy, m.style): m for _, m in runs}, runs


# --- solver equivalence ---------------------------------------------------

def enum_nash(j_row, j_col):
    """Exhaustive cell scan with precomputed best responses."""
    rows, cols = j_row.shape
    col_best = j_row.min(axis=0)
    row_best = j_col.min(axis=1)
    cells = [(j_row[r, c], r, c)
             for r in range(rows) for c in range(cols)
             if j_row[r, c] == col_best[c] and j_col[r, c] == row_best[r]]
    if not cells:
        worst = j_row.max(axis=1)
        r = int(np.argmin(worst))
        return r, int(np.argmax(j_row[r])), 0, True
    cells.sort()
    _, r, c = cells[0]
    return int(r), int(c), len(cells), False


def enum_stackelberg(j_row, j_col, tol=1e-9):
    """Min-max over the follower's tolerance-banded best-response sets."""
    rows = j_row.shape[0]
    worst = np.empty(rows)
    pick = np.empty(rows, dtype=int)
    for r in range(rows):
        m = j_col[r].min()
        in_set = j_col[r] <= m + tol * max(1.0, abs(m))
        masked = np.where(in_set, j_row[r], -np.inf)
        c = int(np.argmax(masked))
        worst[r] = masked[c]
        pick[r] = c
    r = int(np.argmin(worst))
    return r, int(pick[r]), int(np.sum(worst == worst[r]))


def _as_ints(t):
    return tuple(int(v) if not isinstance(v, bool) else v for v in t)


GRID = ActionGrid(accelerations=(-4.0, -2.0, 0.0, 2.0))


def _random_pair_scene(rng):
    adj_v = float(rng.uniform(8.0, 22.0))
    lanes = {
        1: LaneView(adjacent=KinematicState(s=float(rng.uniform(-12.0, 12.0)),
                                            v=adj_v),
                    adjacent_v_ref=adj_v,
                    lead=(KinematicState(s=float(rng.uniform(20.0, 60.0)),
                                         v=float(rng.uniform(8.0, 20.0)))
                          if rng.random() < 0.5 else None)),
        2: LaneView(lead=(KinematicState(s=float(rng.uniform(15.0, 50.0)),
                                         v=float(rng.uniform(6.0, 18.0)))
                          if rng.random() < 0.7 else None)),
    }
    nb = make_neighbors(lanes=lanes)
    ego = KinematicState(s=0.0, v=float(rng.uniform(10.0, 24.0)))
    return ego, nb


def _pair_matrices(ego, nb, grid, gains, ego_style, ac_style):
    cands = ego_candidates(ego, 2, grid, nb)
    accs = ac_candidates(nb.lanes[1].adjacent, 1, GRID, nb)
    j_e = np.array([[ego_cost(ego, 2, cand, {1: a}, nb, ego_style, gains).total
                     for a in accs] for cand in cands])
    j_a = np.array([[ac_cost(nb.lanes[1].adjacent, 1, ego, 2, cand, a, nb,
                             ac_style, gains).total
                     for a in accs] for cand in cands])
    return cands, accs, j_e, j_a


@criterion("game solvers match exhaustive enumeration (>=1000 tensors, < 60 s)")
def test_game_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    checked = 0
    for k in range(1000):
        m = int(rng.integers(1, 46))   # up to 15 accelerations x 3 directions
        n = int(rng.integers(1, 16))
        j_row = rng.uniform(0.0, 10.0, (m, n))
        j_col = rng.uniform(0.0, 10.0, (m, n))
        if k % 2:
            # Integer-valued costs force plateaus, ties, and fallbacks.
            j_row, j_col = np.round(j_row), np.round(j_col)
        assert _as_ints(nash_2p_matrices(j_row, j_col)) == enum_nash(j_row, j_col)
        assert _as_ints(stackelberg_2p_matrices(j_row, j_col)) == \
            enum_stackelberg(j_row, j_col)
        checked += 1

    # The scene-level wrappers must agree with enumerating the same
    # candidate-ordered cost matrices.
    gains = CostGains()
    scenes = 0
    while scenes < 60:
        ego, nb = _random_pair_scene(rng)
        st_e = style_profile(STYLES[scenes % 3])
        st_a = style_profile(STYLES[(scenes + 1) % 3])
        cands, accs, j_e, j_a = _pair_matrices(ego, nb, GRID, gains, st_e, st_a)
        if not cands:
            continue
        r, c, _, _ = enum_nash(j_e, j_a)
        sol = solve_nash_2p(ego, 2, nb.lanes[1].adjacent, 1, nb, GRID, GRID,
                            st_e, st_a, gains)
        assert sol.ego_action == cands[r]
        assert sol.ac_actions[1] == pytest.approx(float(accs[c]))
        r, c, _ = enum_stackelberg(j_e, j_a)
        sol = solve_stackelberg_2p(ego, 2, nb.lanes[1].adjacent, 1, nb, GRID,
                                   GRID, st_e, st_a, gains)
        assert sol.ego_action == cands[r]
        assert sol.ac_actions[1] == pytest.approx(float(accs[c]))
        scenes += 1

    elapsed = time.perf_counter() - t0
    print(f"  {checked} tensors + {scenes} scenes in {elapsed:.1f} s")
    assert checked >= 1000
    assert elapsed < 60.0


def _random_two_ac_scene(rng):
    v_l = float(rng.uniform(8.0, 22.0))
    v_r = float(rng.uniform(8.0, 22.0))
    lanes = {
        1: LaneView(adjacent=KinematicState(s=float(rng.uniform(-12.0, 12.0)),
                                            v=v_l), adjacent_v_ref=v_l),
        2: LaneView(lead=(KinematicState(s=float(rng.uniform(15.0, 45.0)),
                                         v=float(rng.uniform(6.0, 16.0)))
                          if rng.random() < 0.7 else None)),
        3: LaneView(adjacent=KinematicState(s=float(rng.uniform(-12.0, 12.0)),
                                            v=v_r), adjacent_v_ref=v_r),
    }
    nb = make_neighbors(lanes=lanes)
    ego = KinematicState(s=0.0, v=float(rng.uniform(10.0, 24.0)))
    return ego, nb


def _enum_side(kind, ego, ac, ac_lane, nb, sigmas, gains, st_e, st_a):
    try:
        grid = GRID.restrict_sigmas(sigmas)
    except ValueError:
        return None
    cands = ego_candidates(ego, 2, grid, nb)
    if not cands:
        return None
    accs = ac_candidates(ac, ac_lane, GRID, nb)
    j_e = np.array([[ego_cost(ego, 2, cand, {ac_lane: a}, nb, st_e, gains).total
                     for a in accs] for cand in cands])
    j_a = np.array([[ac_cost(ac, ac_lane, ego, 2, cand, a, nb, st_a, gains).total
                     for a in accs] for cand in cands])
    if kind == "nash":
        r, c, _, _ = enum_nash(j_e, j_a)
    else:
        r, c, _ = enum_stackelberg(j_e, j_a)
    return cands[r], float(accs[c]), float(j_e[r, c])


@criterion("two-opponent decomposition matches brute force")
def test_two_ac_decomposition():
    rng = np.random.default_rng(23)
    gains = CostGains()
    st = style_profile("normal")
    for k in range(40):
        ego, nb = _random_two_ac_scene(rng)
        ac_l = nb.lanes[1].adjacent
        ac_r = nb.lanes[3].adjacent
        for kind, solver in (("nash", solve_nash_two_ac),
                             ("stackelberg", solve_stackelberg_two_ac)):
            left = _enum_side(kind, ego, ac_l, 1, nb, (-1, 0), gains, st, st)
            right = _enum_side(kind, ego, ac_r, 3, nb, (0, 1), gains, st, st)
            sol = solver(ego, 2, ac_l, ac_r, nb, GRID, GRID, st, st, st, gains)
            if right is None or (left is not None and left[2] <= right[2]):
                want, want_side = left, -1
            else:
                want, want_side = right, +1
            assert sol.side == want_side
            assert sol.ego_action == want[0]
            assert sol.ego_cost.total == pytest.approx(want[2])
            if left is not None:
                assert sol.ac_actions[1] == pytest.approx(left[1])
            if right is not None:
                assert sol.ac_actions[3] == pytest.approx(right[1])


# --- model accuracy -------------------------------------------------------

@criterion("complex-step Jacobians within 1e-5 of central differences (500 states)")
def test_linearization_accuracy():
    rng = np.random.default_rng(11)
    dp = style_profile("normal").driver
    h = 1e-6
    worst = 0.0
    for _ in range(500):
        x = rng.normal(0.0, 0.3, NX)
        x[IVX] = rng.uniform(5.0, 30.0)
        y_p, a_x = rng.normal(0.0, 2.0), rng.normal(0.0, 1.0)
        a_lin, b_lin = linearize(x, y_p, a_x, dp)
        scale = max(1.0, np.max(np.abs(a_lin)))
        for j in range(NX):
            e = np.zeros(NX)
            e[j] = h
            col = (derivatives(x + e, y_p, a_x, dp)
                   - derivatives(x - e, y_p, a_x, dp)) / (2.0 * h)
            worst = max(worst, np.max(np.abs(col - a_lin[:, j])) / scale)
        bcol = (derivatives(x, y_p + h, a_x, dp)
                - derivatives(x, y_p - h, a_x, dp)) / (2.0 * h)
        worst = max(worst, np.max(np.abs(bcol - b_lin[:, 0])) / scale)
    print(f"  max relative Jacobian error {worst:.3g}")
    assert worst < 1e-5


@criterion("zero-order-hold step within 1e-6 of fine integration (dt 0.05)")
def test_discretization_accuracy():
    # The reference splits the step into 10 substeps, each integrated to
    # 1e-12 so the comparison measures the discretizer, not the reference.
    rng = np.random.default_rng(13)
    dp = style_profile("normal").driver
    dt = 0.05
    worst = 0.0
    for _ in range(50):
        x0 = rng.normal(0.0, 0.3, NX)
        x0[IVX] = rng.uniform(5.0, 30.0)
        u_val = float(rng.uniform(-6.0, 6.0))
        a_c, b_c = linearize(x0, u_val, 0.0, dp)
        a_d, b_d = discretize(a_c, b_c, dt)
        ref = solve_ivp(lambda t, z: a_c @ z + b_c[:, 0] * u_val,
                        (0.0, dt), x0, method="DOP853",
                        max_step=dt / 10.0, rtol=1e-12, atol=1e-12)
        x = ref.y[:, -1]
        worst = max(worst, np.max(np.abs(a_d @ x0 + b_d[:, 0] * u_val - x)))
    print(f"  max per-component step error {worst:.3g}")
    assert worst < 1e-6


# --- scenario studies -----------------------------------------------------

@criterion("merge study: all six runs commit left, ordered by style, < 2 min")
def test_merge_scenario_pattern(merge_runs):
    _, ms, _, elapsed = merge_runs
    for key, m in ms.items():
        assert not m.aborted, key
        assert m.sigma_commit == -1, key
        assert m.merged and m.final_lane == 1, key
    for strat in STRATS:
        tc = [ms[(strat, s)].t_commit for s in STYLES]
        assert tc[0] < tc[1] < tc[2], (strat, tc)
        gaps = [ms[(strat, s)].gap_at_commit["AC1"] for s in STYLES]
        print(f"  {strat}: t_c={tc[0]:.2f}/{tc[1]:.2f}/{tc[2]:.2f} s, "
              f"gap at commit {gaps[0]:+.2f}/{gaps[1]:+.2f}/{gaps[2]:+.2f} m")
    # batch shares each style's loop between the strategies while they
    # decide alike, so the six runs may take three simulations.
    print(f"  six runs (one shared loop per style) in {elapsed:.1f} s")
    assert elapsed < 120.0


@criterion("overtake study: fast styles pass on the left, cautious one waits")
def test_overtake_scenario_pattern(overtake_runs):
    _, ms, _ = overtake_runs
    for strat in STRATS:
        agg = ms[(strat, "aggressive")]
        nor = ms[(strat, "normal")]
        con = ms[(strat, "conservative")]
        for m in (agg, nor, con):
            assert not m.aborted, (strat, m.style)
        assert agg.sigma_commit == -1 and nor.sigma_commit == -1, strat
        assert agg.merged and nor.merged, strat
        assert agg.final_lane == 1 and nor.final_lane == 1, strat
        assert agg.t_commit < nor.t_commit, strat
        assert con.sigma_commit == 0 and math.isnan(con.t_commit), strat
        assert not con.merged and con.final_lane == 2, strat
        print(f"  {strat}: t_c agg {agg.t_commit:.2f} s, normal "
              f"{nor.t_commit:.2f} s, conservative holds lane")


@criterion("leader strategy never raises RMS total vs simultaneous play")
def test_leader_strategy_advantage(merge_runs, overtake_runs):
    for label, ms in (("merge", merge_runs[1]), ("overtake", overtake_runs[1])):
        for style in STYLES:
            ne = ms[("nash", style)].rms_total
            se = ms[("stackelberg", style)].rms_total
            assert se <= ne + 1e-12, (label, style, ne, se)
            pct = 0.0 if ne == 0 else 100.0 * (ne - se) / ne
            print(f"  {label}/{style}: RMS total {ne:.3f} -> {se:.3f} "
                  f"({pct:.1f}% lower)")


@criterion("style signature: aggressive fastest, conservative safest")
def test_style_signature(merge_runs, overtake_runs):
    for label, ms in (("merge", merge_runs[1]), ("overtake", overtake_runs[1])):
        for strat in STRATS:
            eff = {s: ms[(strat, s)].rms_efficiency for s in STYLES}
            saf = {s: ms[(strat, s)].rms_safety for s in STYLES}
            assert min(eff, key=eff.get) == "aggressive", (label, strat, eff)
            assert min(saf, key=saf.get) == "conservative", (label, strat, saf)


@criterion("clearance stays above 5 m and field below the inner-core level")
def test_planner_safety(merge_runs, overtake_runs):
    for cfg, ms in ((merge_runs[0], merge_runs[1]),
                    (overtake_runs[0], overtake_runs[1])):
        # The inner-core level: the field one shape unit from an obstacle's
        # CoG, where the bump's exponent is exactly -1.
        limit = cfg.field.a_oc * math.exp(-1.0)
        for key, m in ms.items():
            assert m.min_clearance > 5.0, (key, m.min_clearance)
            assert m.contact_steps == 0, key
            assert m.max_field <= limit, (key, m.max_field, limit)


@criterion("planning invariants hold on every call of every run")
def test_planner_invariants(merge_runs, overtake_runs):
    for ms in (merge_runs[1], overtake_runs[1]):
        for key, m in ms.items():
            assert m.planner_regressions == 0, key
            assert m.box_violations == 0, key
            assert m.degraded_steps == 0 and m.maxiter_steps == 0, key
    # Direct spot checks of fresh planning calls away from the scenarios.
    rng = np.random.default_rng(31)
    road = RoadGeometry(kind="straight", length=400.0)
    cfg = replace(load_scenario("scenario_a").mpc)
    params = FieldParams()
    dp = style_profile("normal").driver
    # The increment box alone lets a plan reach n_c * du_max = 1.5 from
    # u_prev = 0, so this command box binds wherever a plan heads upward.
    lo, hi = -2.0, 1.0
    on_edge = 0
    for _ in range(10):
        x0 = np.zeros(NX)
        x0[IVX] = rng.uniform(8.0, 24.0)
        x0[5] = rng.uniform(-1.0, 5.0)
        obstacles = [ObstaclePose(x=float(rng.uniform(10.0, 50.0)), y=0.0,
                                  heading=0.0, v=float(rng.uniform(5.0, 15.0)))]
        plan = solve_plan(x0, 0.0, 0.0, prepare_poses(obstacles, road, params), 1,
                          cfg, dp, 0.05, (lo, hi))
        assert plan.cost <= plan.cost_zero
        assert np.all(plan.du_sequence >= cfg.du_min - 1e-12)
        assert np.all(plan.du_sequence <= cfg.du_max + 1e-12)
        u = np.cumsum(plan.du_sequence)
        assert np.all((u >= lo - 1e-9) & (u <= hi + 1e-9))
        on_edge += min(abs(u[-1] - lo), abs(u[-1] - hi)) <= 1e-9
    assert on_edge >= 1


@criterion("lane-change columns: latched and target lane follow sigma on every row")
def test_lane_change_columns(merge_runs, overtake_runs):
    commits = 0
    for runs in (merge_runs[2], overtake_runs[2]):
        for trace, m in runs:
            key = (m.scenario, m.strategy, m.style)
            sigma = trace.column("sigma")
            lane = trace.column("lane_ec")
            target = trace.column("target_lane")
            assert np.array_equal(trace.column("latched"), (sigma != 0) * 1.0), key
            assert np.array_equal(target, lane + sigma), key
            # A commitment's own row already targets the new lane.
            before = np.concatenate(([0.0], sigma[:-1]))
            first = np.flatnonzero((sigma != 0) & (before == 0))
            assert np.all(target[first] != lane[first]), key
            commits += first.size
    assert commits > 0


# --- field shape ----------------------------------------------------------

@criterion("field shape: peak, symmetry, forward skew, rotation, road decay")
def test_field_shape():
    p = FieldParams()
    for v in (0.0, 10.0, 30.0):
        obs = ObstaclePose(x=3.0, y=-2.0, heading=0.4, v=v)
        assert float(obstacle_field(3.0, -2.0, obs, p)) == pytest.approx(p.a_oc)

    still = ObstaclePose(x=0.0, y=0.0, heading=0.0, v=0.0)
    dx = np.linspace(0.5, 20.0, 40)
    fore = obstacle_field(dx, 0.0, still, p)
    aft = obstacle_field(-dx, 0.0, still, p)
    assert np.max(np.abs(fore - aft)) < 1e-12

    moving = ObstaclePose(x=0.0, y=0.0, heading=0.0, v=15.0)
    fore = obstacle_field(dx, 0.0, moving, p)
    aft = obstacle_field(-dx, 0.0, moving, p)
    assert np.all(fore >= aft)

    # Same relative geometry, rotated scene: identical values.
    rng = np.random.default_rng(41)
    for _ in range(20):
        th = float(rng.uniform(-np.pi, np.pi))
        ox, oy = float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))
        lx, ly = float(rng.uniform(-15, 15)), float(rng.uniform(-6, 6))
        v = float(rng.uniform(0, 25))
        base = ObstaclePose(x=ox, y=oy, heading=0.0, v=v)
        val0 = float(obstacle_field(ox + lx, oy + ly, base, p))
        cs, sn = math.cos(th), math.sin(th)
        rot = ObstaclePose(x=ox, y=oy, heading=th, v=v)
        val1 = float(obstacle_field(ox + cs * lx - sn * ly,
                                    oy + sn * lx + cs * ly, rot, p))
        assert abs(val0 - val1) < 1e-12

    road = RoadGeometry(kind="straight", length=200.0)
    d = np.linspace(-2.0, 6.0, 161)
    x = np.full_like(d, 50.0)
    vals = np.asarray(road_field(x, d, road, p))
    mid = np.argmin(np.abs(d - 2.0))
    assert np.all(np.diff(vals[:mid + 1]) < 0)   # falls off the right edge
    assert np.all(np.diff(vals[mid:]) > 0)       # climbs to the left edge


# --- reproducibility ------------------------------------------------------

@criterion("repeated runs produce byte-identical traces")
def test_determinism(merge_runs, tmp_path):
    cfg, _, runs, _ = merge_runs
    base = next(t for t, m in runs
                if m.strategy == "nash" and m.style == "normal")
    again = run_simulation(cfg, style="normal", strategy="nash")
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace(base, str(p1))
    write_trace(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# --- locked behaviour -----------------------------------------------------

def test_bundled_output_fingerprints(merge_runs, overtake_runs, tmp_path):
    """The bytes of the bundled outputs: each batch trace as `write_trace`
    writes it, each comparison CSV and each default field dump. A change
    in the last printed digit fails here, where the golden metrics below
    bound only how far a declared change may move a run."""
    outputs = {"traces": {}, "comparison": {}, "field_dump": {}}
    for cfg, runs in ((merge_runs[0], merge_runs[2]),
                      (overtake_runs[0], overtake_runs[2])):
        for trace, _ in runs:
            path = tmp_path / f"{trace.scenario}_{trace.strategy}_{trace.style}.csv"
            write_trace(trace, str(path))
            outputs["traces"][path.name] = path.read_bytes()
        csv = comparison_csv([m for _, m in runs])
        outputs["comparison"][cfg.name] = csv.encode()
        dump = tmp_path / f"{cfg.name}_field.csv"
        assert cli_main(["field-dump", cfg.name, "--out", str(dump)]) == 0
        outputs["field_dump"][cfg.name] = dump.read_bytes()
    check_fingerprints(outputs)
    recorded = json.loads(FINGERPRINTS.read_text())
    assert len(outputs["traces"]) == 12
    assert {kind: set(by_name) for kind, by_name in outputs.items()} == \
        {kind: set(recorded[kind]) for kind in outputs}


# Per-run metrics of the 12 bundled runs. The exact fields were recorded
# before the cost terms were consolidated, the tolerance-checked ones
# when the planner became projected Newton, again for the first five
# rows when its step became the model's exact minimizer over the box, and
# for all six when each solve started from the previous plan and stopped
# where the model promised no more than the tolerance. A refactor must
# reproduce them; an intended change to any of them must be justified in
# CHANGES.md. t_commit is k * dt at the committing step and is compared
# exactly, like the other integers.
GOLDEN_EXACT = ("steps", "t_commit", "sigma_commit", "merged", "final_lane")
GOLDEN_CLOSE = ("rms_safety", "rms_comfort", "rms_efficiency", "rms_total",
                "min_clearance", "max_field")
GOLDEN_REL_TOL = 1e-6
_GOLDEN_BY_STYLE = {
    ("scenario_a", "aggressive"): (240, 0.9, -1, True, 1, 2.97143432,
                                   4.72393904, 7.9613069, 6.81749796,
                                   15.2758871, 9.05578137),
    ("scenario_a", "normal"): (240, 2.15, -1, True, 1, 0.257208032,
                               3.33418586, 13.1396405, 3.35487084,
                               21.8418686, 5.33525854),
    ("scenario_a", "conservative"): (240, 2.7, -1, True, 1, 0.177892904,
                                     3.48818712, 19.0216582, 2.32472612,
                                     24.3671003, 5.62925525),
    ("scenario_b", "aggressive"): (300, 1.7000000000000002, -1, True, 1,
                                   15.0546661, 5.64091806, 7.13353958,
                                   7.33462054, 21.4772766, 6.08542761),
    ("scenario_b", "normal"): (300, 3.3000000000000003, -1, True, 1,
                               12.3004813, 5.8409287, 15.0266534,
                               9.62239605, 22.6562286, 6.06788772),
    ("scenario_b", "conservative"): (300, math.nan, 0, False, 2,
                                     10.4968582, 0.190394328, 60.7738625,
                                     11.9874067, 12.6524766, 5.24535699),
}
# The planner's effort on each bundled run: (mpc_iterations,
# mpc_cost_rows), deterministic counts. A change that makes the planner
# score more or fewer batches fails here with the counts it read.
_EFFORT_BY_STYLE = {
    ("scenario_a", "aggressive"): (451, 5261),
    ("scenario_a", "normal"): (546, 6339),
    ("scenario_a", "conservative"): (590, 6814),
    ("scenario_b", "aggressive"): (1063, 12892),
    ("scenario_b", "normal"): (954, 11959),
    ("scenario_b", "conservative"): (651, 7455),
}
# Nash and Stackelberg give the same metrics on every bundled run.
GOLDEN = {(scen, strat, style): vals
          for (scen, style), vals in _GOLDEN_BY_STYLE.items()
          for strat in STRATS}


def test_golden_run_metrics(merge_runs, overtake_runs):
    runs = merge_runs[2] + overtake_runs[2]
    seen = {(m.scenario, m.strategy, m.style): m for _, m in runs}
    assert set(seen) == set(GOLDEN)
    for key, vals in GOLDEN.items():
        m = seen[key]
        want = dict(zip(GOLDEN_EXACT + GOLDEN_CLOSE, vals))
        for name in GOLDEN_EXACT:
            got, exp = getattr(m, name), want[name]
            assert got == exp or (math.isnan(exp) and math.isnan(got)), \
                (key, name, got, exp)
        for name in GOLDEN_CLOSE:
            got, exp = getattr(m, name), want[name]
            assert math.isclose(got, exp, rel_tol=GOLDEN_REL_TOL), \
                (key, name, got, exp)


def test_planner_effort(merge_runs, overtake_runs):
    runs = merge_runs[2] + overtake_runs[2]
    got = {(m.scenario, m.strategy, m.style): (m.mpc_iterations, m.mpc_cost_rows)
           for _, m in runs}
    assert got == {(scen, strat, style): counts
                   for (scen, style), counts in _EFFORT_BY_STYLE.items()
                   for strat in STRATS}
