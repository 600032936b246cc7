"""Receding-horizon planner: prediction model, boxes, zero-dominance."""

import numpy as np
import pytest

from lanegame.errors import DomainError
from lanegame.field import (ObstacleFieldParams, ObstaclePose, RoadFieldParams,
                            obstacle_field, prepare_field, road_field, total_field)
from lanegame.planner import (CHANNELS, FD_STEP, FIRST_TRIALS, HorizonModel,
                              MpcConfig, _coasted, _outputs, _project, mpc_cost,
                              solve_plan)
from lanegame.styles import style_profile
from lanegame.vehicle import IPHI, IR, IVX, IVY, IX, IY, NX, VehicleParams

VP = VehicleParams()
DP = style_profile("normal").driver
OFP = ObstacleFieldParams()
RFP = RoadFieldParams()


def _x0(v=20.0, y=0.0):
    x = np.zeros(NX)
    x[IVX] = v
    x[IY] = y
    return x


def small_cfg(**kw):
    kw.setdefault("n_p", 12)
    kw.setdefault("n_c", 4)
    kw.setdefault("max_iter", 30)
    return MpcConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(n_p=3, n_c=5)
    with pytest.raises(ValueError):
        MpcConfig(n_c=0)
    with pytest.raises(ValueError):
        MpcConfig(dt=0.0)
    with pytest.raises(ValueError):
        MpcConfig(r=-1.0)
    with pytest.raises(ValueError):
        MpcConfig(q=np.ones((2, 2)))
    with pytest.raises(ValueError):
        MpcConfig(q=np.diag([1.0, -2.0, 1.0]))
    q = np.diag([1.0, 2.0, 3.0])
    q[0, 1] = 5.0
    with pytest.raises(ValueError):
        MpcConfig(q=q)
    with pytest.raises(ValueError):
        MpcConfig(u_min=1.0, u_max=-1.0)
    with pytest.raises(ValueError):
        MpcConfig(du_min=0.5, du_max=-0.5)
    # The zero-increment baseline must be feasible, every solve must
    # iterate at least once, and a negative tolerance is never met.
    with pytest.raises(ValueError, match="must contain 0"):
        MpcConfig(du_min=0.1, du_max=0.3)
    with pytest.raises(ValueError, match="must contain 0"):
        MpcConfig(du_min=-0.3, du_max=-0.1)
    with pytest.raises(ValueError, match="max_iter >= 1"):
        MpcConfig(max_iter=0)
    with pytest.raises(ValueError, match="tol >= 0"):
        MpcConfig(tol=-1.0)
    MpcConfig(du_min=0.0, du_max=0.0, max_iter=1, tol=0.0)


def test_horizon_model_needs_forward_speed():
    # A named domain error, so a closed-loop run can abort on it cleanly.
    with pytest.raises(DomainError):
        HorizonModel(_x0(v=0.2), 0.0, 0.0, VP, DP, small_cfg())


def test_accel_enters_through_affine_term():
    # v_y = r = 0 at the linearization point, so the speed row of A is
    # zero and the discrete speed update is exactly v + a_x * dt.
    cfg = small_cfg()
    m = HorizonModel(_x0(), 0.0, 2.0, VP, DP, cfg)
    steps = np.arange(1, cfg.n_p + 1)
    assert np.allclose(m.base[:, IVX], 20.0 + 2.0 * cfg.dt * steps, atol=1e-12)
    m0 = HorizonModel(_x0(), 0.0, 0.0, VP, DP, cfg)
    assert np.allclose(m0.base[:, IVX], 20.0, atol=1e-12)


def test_base_is_held_command_rollout():
    cfg = small_cfg()
    m = HorizonModel(_x0(y=1.0), 0.5, 0.0, VP, DP, cfg)
    x = m.x0.copy()
    for i in range(cfg.n_p):
        x = m.a_d @ x + m.b_u * 0.5 + m.w_d
        assert np.allclose(m.base[i], x, atol=1e-12)
    assert np.allclose(m.states(np.zeros(cfg.n_c)), m.base)


def test_states_batched_matches_rows(rng):
    cfg = small_cfg()
    m = HorizonModel(_x0(), 0.0, 0.0, VP, DP, cfg)
    batch = rng.uniform(-0.3, 0.3, (7, cfg.n_c))
    got = m.states(batch)
    assert got.shape == (7, cfg.n_p, NX)
    for b in range(7):
        assert np.array_equal(got[b], m.states(batch[b]))
    # The cost's 3-channel prediction is the full one, bit for bit, for
    # one sequence and for batches of the sizes the planner scores, and
    # one sequence gives its row in a batch.
    for n_p, n_c, rows in ((12, 4, 7), (20, 5, 10), (20, 5, 13), (20, 5, 12),
                           (30, 8, 25), (5, 1, 3)):
        cfg = small_cfg(n_p=n_p, n_c=n_c)
        m = HorizonModel(_x0(v=rng.uniform(8.0, 30.0), y=rng.uniform(-2.0, 2.0)),
                         rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0), VP, DP, cfg)
        batch = rng.uniform(-0.3, 0.3, (rows, n_c))
        assert np.array_equal(m.poses(batch), m.states(batch)[..., [IX, IY, IPHI]])
        assert np.array_equal(m.poses(batch[0]), m.states(batch[0])[..., [IX, IY, IPHI]])
        assert np.array_equal(m.poses(batch[-1]), m.poses(batch)[-1])


def test_states_linear_in_du(rng):
    cfg = small_cfg()
    m = HorizonModel(_x0(), 0.0, 0.0, VP, DP, cfg)
    du = rng.uniform(-0.3, 0.3, cfg.n_c)
    lhs = m.states(2.0 * du) - m.base
    rhs = 2.0 * (m.states(du) - m.base)
    assert np.allclose(lhs, rhs, atol=1e-10)
    # Commands after n_c are held: the last increment reaches every later step.
    bump = np.zeros(cfg.n_c)
    bump[-1] = 0.1
    diff = m.states(bump) - m.base
    assert np.all(np.abs(diff[cfg.n_c - 1:, IY]) > 0.0) or np.any(diff != 0.0)


def test_coasted_sweeps_constant_velocity():
    cfg = small_cfg()
    obs = [ObstaclePose(x=10.0, y=-4.0, heading=0.1, v=15.0)]
    swept = _coasted(obs, cfg)
    assert len(swept) == 1
    t = (np.arange(cfg.n_p) + 1) * cfg.dt
    assert np.allclose(swept[0].x, 10.0 + 15.0 * t * np.cos(0.1))
    assert np.allclose(swept[0].y, -4.0 + 15.0 * t * np.sin(0.1))
    assert swept[0].heading == 0.1 and swept[0].v == 15.0


def test_outputs_channels(two_lane_road):
    cfg = small_cfg()
    m = HorizonModel(_x0(), 0.0, 0.0, VP, DP, cfg)
    obs = [ObstaclePose(x=30.0, y=0.0, heading=0.0, v=10.0)]
    states = m.states(np.zeros(cfg.n_c))
    field = prepare_field(_coasted(obs, cfg), two_lane_road, OFP, RFP)
    y = _outputs(m.poses(np.zeros(cfg.n_c)), field, 1)
    assert y.shape == (cfg.n_p, 3)
    # Cross-check the vectorized field sweep step by step.
    t = (np.arange(cfg.n_p) + 1) * cfg.dt
    for i in range(cfg.n_p):
        stepped = [ObstaclePose(x=30.0 + 10.0 * t[i], y=0.0, heading=0.0, v=10.0)]
        ref = total_field(states[i, IX], states[i, IY],
                          prepare_field(stepped, two_lane_road, OFP, RFP))
        assert y[i, 0] == pytest.approx(float(ref), rel=1e-12)
    # Lane 1 centerline sits at +4 on this road; the ego starts at 0.
    s, d = two_lane_road.to_frenet(states[:, IX], states[:, IY])
    assert np.allclose(y[:, 1], d - 4.0, atol=1e-12)
    assert np.allclose(y[:, 2], states[:, IPHI] - two_lane_road.tangent_heading(s),
                       atol=1e-12)


def test_mpc_cost_closed_form():
    q = np.diag([2.0, 1.0, 1.0])
    outputs = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    du = np.array([0.5, -0.5])
    # 2*1 + 4 + 0 + 0 + 1 + 9 = 16, du energy = 0.5
    assert mpc_cost(outputs, du, q, 1.0) == pytest.approx(16.5)
    batch = np.stack([outputs, np.zeros_like(outputs)])
    got = mpc_cost(batch, np.stack([du, du]), q, 2.0)
    assert np.allclose(got, [17.0, 1.0])


def test_project_respects_running_command_box():
    cfg = small_cfg(u_min=-10.0, u_max=10.0, du_min=-0.3, du_max=0.3)
    out = _project(np.array([0.3, 0.3, 0.3, 0.3]), 9.9, cfg)
    assert np.allclose(out, [0.1, 0.0, 0.0, 0.0])
    out = _project(np.array([-1.0, -1.0, -1.0, -1.0]), -9.5, cfg)
    assert np.allclose(out, [-0.3, -0.2, 0.0, 0.0])
    # Inside every box the projection is the identity.
    du = np.array([0.1, -0.2, 0.05, 0.0])
    assert np.allclose(_project(du, 0.0, cfg), du)


def test_project_batch_matches_rows(rng):
    cfg = small_cfg(u_min=-1.0, u_max=1.0, du_min=-0.3, du_max=0.3)
    for u_prev in (0.0, 0.85, -0.95):
        batch = rng.uniform(-0.6, 0.6, (9, cfg.n_c))
        got = _project(batch, u_prev, cfg)
        assert got.shape == batch.shape
        for b in range(9):
            assert np.array_equal(got[b], _project(batch[b], u_prev, cfg))


def _halving_search(x0, u_prev, a_x, obstacles, road, lane, cfg):
    """(du, iterations, cost, accepted) of a line search that scores one
    trial at a time.

    Each iteration halves the step from 1/max|grad| until a trial beats
    the best cost, scoring every trial alone as a one-row batch, with an
    elementwise projection written out here. `accepted` lists the
    accepted halving counts.
    """
    model = HorizonModel(x0, u_prev, a_x, VP, DP, cfg)
    coasted = _coasted(obstacles, cfg)

    def cost_of(du):
        # The full prediction, and the field one obstacle at a time.
        states = model.states(du)
        xs, ys = states[..., IX], states[..., IY]
        y1 = np.zeros(xs.shape)
        for o in coasted:
            y1 = y1 + obstacle_field(xs, ys, o, OFP)
        y1 = y1 + road_field(xs, ys, road, RFP)
        s, d = road.to_frenet(xs, ys)
        y = np.stack([y1, d - road.lane_offset(lane),
                      states[..., IPHI] - road.tangent_heading(s)], axis=-1)
        return mpc_cost(y, du, cfg.q, cfg.r)

    def project(du):
        out, u = np.empty_like(du), u_prev
        for j in range(len(du)):
            lo = max(cfg.du_min, cfg.u_min - u)
            hi = min(cfg.du_max, cfg.u_max - u)
            out[j] = min(max(du[j], lo), hi)
            u += out[j]
        return out

    n_c = cfg.n_c
    eye = np.eye(n_c)
    du = np.zeros(n_c)
    best = float(cost_of(du))
    iterations = 0
    accepted = []
    for _ in range(cfg.max_iter):
        iterations += 1
        vals = cost_of(np.concatenate([du + FD_STEP * eye, du - FD_STEP * eye]))
        grad = (vals[:n_c] - vals[n_c:]) / (2.0 * FD_STEP)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm == 0.0:
            break
        alpha = 1.0 / gnorm
        converged = False
        for k in range(25):
            cand = project(du - alpha * grad)
            val = float(cost_of(cand[None])[0])
            if val < best:
                converged = best - val <= cfg.tol * max(1.0, val)
                du, best = cand, val
                accepted.append(k)
                break
            alpha *= 0.5
        else:
            break
        if converged:
            break
    return du, iterations, float(cost_of(du)), accepted


def _random_scene(rng, road):
    """A planning problem anywhere near the middle of the road."""
    lane = int(rng.integers(1, road.lane_count + 1))
    s = rng.uniform(100.0, 250.0)
    d = road.lane_offset(lane) + rng.uniform(-1.5, 1.5)
    phi = float(road.tangent_heading(s)) + rng.uniform(-0.03, 0.03)
    v = rng.uniform(8.0, 30.0)
    x0 = np.zeros(NX)
    x0[IVX], x0[IVY], x0[IPHI] = v, rng.uniform(-0.2, 0.2), phi
    x0[IX], x0[IY] = (float(c) for c in road.to_global(s, d))
    x0[IR] = (v / road.radius if road.kind == "arc" else 0.0) + rng.uniform(-0.02, 0.02)
    u_prev = float(x0[IY] + DP.t_p * v * phi) + rng.uniform(-0.5, 0.5)
    obstacles = []
    for _ in range(rng.integers(0, 4)):
        so = s + rng.uniform(-10.0, 40.0)
        xo, yo = road.to_global(so, road.lane_offset(int(rng.integers(1, road.lane_count + 1))))
        obstacles.append(ObstaclePose(x=float(xo), y=float(yo),
                                      heading=float(road.tangent_heading(so)),
                                      v=rng.uniform(5.0, 25.0)))
    # A tight command box around u_prev makes the projection bite.
    reach = rng.choice([0.2, 1.0, 10.0])
    cfg = MpcConfig(max_iter=40, u_min=u_prev - reach, u_max=u_prev + reach)
    target = int(np.clip(lane + rng.integers(-1, 2), 1, road.lane_count))
    return x0, u_prev, rng.uniform(-3.0, 2.0), obstacles, target, cfg


def _settled_scene(rng):
    """A lane change nearly done: the ego 0.2 m short of lane 1's centerline.

    The state is the bundled merge (scenario_a, normal) at t = 10.2 s,
    scaled per entry by 1 + 0.003 * U(-1, 1), with the car it merged
    behind 70 m back. Near such a rest point the first improving trial
    can lie past FIRST_TRIALS halvings.
    """
    x0 = np.array([22.1316, -0.0131, 0.01536, -0.00148, 220.479, 3.8063,
                   0.00204, -0.00814]) * (1.0 + 0.003 * rng.uniform(-1.0, 1.0, NX))
    u_prev = 3.79692 + 0.003 * rng.uniform(-1.0, 1.0)
    obstacles = [ObstaclePose(x=153.0, y=4.0, heading=0.0, v=15.0)]
    cfg = MpcConfig(n_p=30, q=np.diag([1.0, 60.0, 50.0]), r=5.0, u_min=-2.0, u_max=6.0)
    return x0, u_prev, 0.0, obstacles, 1, cfg


# Seeds 0-23 are random scenes; 21 of them end on a line search where no
# trial improves, so both batches are scored and rejected. The other
# seeds are settled scenes whose accepted trial index reaches FIRST_TRIALS,
# so the second batch is scored and one of its trials taken.
SETTLED_SEEDS = (26, 50, 116, 120, 138)


@pytest.mark.parametrize("seed", [*range(24), *SETTLED_SEEDS])
def test_batched_line_search_matches_halving_loop(seed, two_lane_road, three_lane_arc):
    rng = np.random.default_rng(seed)
    if seed in SETTLED_SEEDS:
        road = two_lane_road
        x0, u_prev, a_x, obstacles, target, cfg = _settled_scene(rng)
    else:
        road = two_lane_road if seed % 2 else three_lane_arc
        x0, u_prev, a_x, obstacles, target, cfg = _random_scene(rng, road)
    plan = solve_plan(x0, u_prev, a_x, obstacles, road, target, OFP, RFP,
                      cfg, VP, DP)
    du, iterations, cost, accepted = _halving_search(x0, u_prev, a_x, obstacles,
                                                     road, target, cfg)
    assert np.array_equal(plan.du_sequence, du)
    assert plan.iterations == iterations
    assert plan.cost == cost
    assert plan.cost <= plan.cost_zero
    if seed in SETTLED_SEEDS:
        assert max(accepted) >= FIRST_TRIALS


# Seed 93 on the straight road is a scene where scoring the returned plan
# through a second contraction, apart from the one the line search used,
# reports a cost one rounding step off the accepted one.
@pytest.mark.parametrize("seed", [*range(12), 93])
def test_plan_reports_the_accepted_cost(seed, two_lane_road, three_lane_arc):
    rng = np.random.default_rng(seed)
    road = two_lane_road if seed % 2 else three_lane_arc
    x0, u_prev, a_x, obstacles, target, cfg = _random_scene(rng, road)
    plan = solve_plan(x0, u_prev, a_x, obstacles, road, target, OFP, RFP,
                      cfg, VP, DP)
    model = HorizonModel(x0, u_prev, a_x, VP, DP, cfg)
    prepared = prepare_field(_coasted(obstacles, cfg), road, OFP, RFP)
    du = plan.du_sequence[None]
    y = _outputs(model.poses(du), prepared, target)
    assert plan.cost == float(mpc_cost(y, du, cfg.q, cfg.r)[0])
    assert plan.cost <= plan.cost_zero
    assert np.array_equal(plan.predicted_outputs, y[0])
    assert np.array_equal(plan.predicted_states[:, CHANNELS], model.poses(du)[0])


def test_plan_never_beats_zero_baseline(two_lane_road, rng):
    cfg = small_cfg()
    for _ in range(5):
        x0 = _x0(v=rng.uniform(10.0, 25.0), y=rng.uniform(-1.0, 5.0))
        obs = [ObstaclePose(x=rng.uniform(10.0, 40.0), y=0.0, heading=0.0,
                            v=rng.uniform(5.0, 15.0))]
        plan = solve_plan(x0, 0.0, 0.0, obs, two_lane_road, 1, OFP, RFP,
                          cfg, VP, DP)
        assert plan.cost <= plan.cost_zero
        assert np.all(plan.du_sequence >= cfg.du_min - 1e-12)
        assert np.all(plan.du_sequence <= cfg.du_max + 1e-12)
        u = np.cumsum(plan.du_sequence)
        assert np.all(u >= cfg.u_min - 1e-9) and np.all(u <= cfg.u_max + 1e-9)
        assert plan.u_applied == pytest.approx(plan.du_sequence[0])


def test_plan_moves_toward_target_lane(two_lane_road):
    # Starting on lane 2 with the preview at the old centerline, switching
    # the target to lane 1 must pull the command upward and strictly
    # improve on doing nothing.
    cfg = small_cfg()
    plan = solve_plan(_x0(), 0.0, 0.0, [], two_lane_road, 1, OFP, RFP,
                      cfg, VP, DP)
    assert plan.cost < plan.cost_zero
    assert plan.du_sequence[0] > 0.0
    assert not plan.degraded
    assert plan.predicted_states.shape == (cfg.n_p, NX)
    assert plan.predicted_outputs.shape == (cfg.n_p, 3)


def test_plan_at_rest_point_stays_put(two_lane_road):
    # With the road field off, the target centerline with matching preview
    # is an exact rest point: every output is zero, the gradient vanishes,
    # and the optimizer must keep the zero sequence rather than wander.
    cfg = small_cfg()
    quiet = RoadFieldParams(edge_weight=0.0, interior_weight=0.0)
    plan = solve_plan(_x0(), 0.0, 0.0, [], two_lane_road, 2, OFP, quiet,
                      cfg, VP, DP)
    assert plan.cost_zero == pytest.approx(0.0, abs=1e-18)
    assert plan.cost == pytest.approx(plan.cost_zero, abs=1e-18)
    assert not np.any(plan.du_sequence)
    assert not plan.degraded


def test_plan_keeps_lane_despite_road_field(two_lane_road):
    # The live road field pulls slightly toward the road center; the lane
    # tracking term must keep that drift to centimeters over the horizon.
    cfg = small_cfg()
    plan = solve_plan(_x0(), 0.0, 0.0, [], two_lane_road, 2, OFP, RFP,
                      cfg, VP, DP)
    assert plan.cost <= plan.cost_zero
    assert np.max(np.abs(plan.predicted_outputs[:, 1])) < 0.2


def test_applied_command_is_first_increment(two_lane_road):
    # Receding horizon: only the first increment of the plan is applied.
    cfg = small_cfg()
    obs = [ObstaclePose(x=25.0, y=0.0, heading=0.0, v=10.0)]
    plan = solve_plan(_x0(), 0.4, 0.0, obs, two_lane_road, 1, OFP, RFP,
                      cfg, VP, DP)
    assert np.any(plan.du_sequence != 0.0)
    assert plan.u_applied == 0.4 + plan.du_sequence[0]
