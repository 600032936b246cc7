"""Receding-horizon planner: prediction model, boxes, zero-dominance."""

import dataclasses
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanegame import planner
from lanegame.errors import DomainError
from lanegame.field import FieldParams, coasted, total_field
from lanegame.planner import (CHANNELS, FD_STEP, MAX_HORIZON_STEPS, MAX_PLAN_CELLS,
                              NEWTON_STEPS, HorizonModel, MpcConfig, PlanResult,
                              _bounds, _box_qp, _outputs, _project, mpc_cost,
                              solve_plan)
from lanegame.road import LaneSpec, RoadGeometry
from lanegame.styles import style_profile
from lanegame.vehicle import (IPHI, IR, IVX, IVY, IX, IY, NX, derivatives,
                              discretize, linearize)

from reference import ObstaclePose, obstacle_field, prepare_poses, road_field

DP = style_profile("normal").driver
FP = FieldParams()
# Step and preview-command box of the solves below, unless a test sets its own.
DT = 0.05
BOX = (-10.0, 10.0)


def _x0(v=20.0, y=0.0):
    x = np.zeros(NX)
    x[IVX] = v
    x[IY] = y
    return x


def _times(n_p):
    """Prediction times of the horizon steps, as solve_plan coasts the scene."""
    return (np.arange(n_p) + 1) * DT


def small_cfg(**kw):
    kw.setdefault("n_p", 12)
    kw.setdefault("n_c", 4)
    kw.setdefault("max_iter", 30)
    return MpcConfig(**kw)


def test_config_validation(two_lane_road):
    with pytest.raises(ValueError):
        MpcConfig(n_p=3, n_c=5)
    with pytest.raises(ValueError):
        MpcConfig(n_c=0)
    with pytest.raises(ValueError):
        MpcConfig(r=-1.0)
    with pytest.raises(ValueError, match="3 nonnegative weights"):
        MpcConfig(q_diag=(1.0, 2.0))
    with pytest.raises(ValueError, match="3 nonnegative weights"):
        MpcConfig(q_diag=(1.0, -2.0, 1.0))
    MpcConfig(q_diag=(0.0, 0.0, 0.0))
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
    # The horizon and n_p * n_c are capped so that no config asks for a
    # solve's memory to grow without bound; only the configs are built
    # here, never solved.
    widest = MAX_PLAN_CELLS // MAX_HORIZON_STEPS
    MpcConfig(n_p=MAX_HORIZON_STEPS, n_c=widest)
    with pytest.raises(ValueError, match="n_p = 1001 exceeds the largest horizon"):
        MpcConfig(n_p=MAX_HORIZON_STEPS + 1)
    with pytest.raises(ValueError, match="n_p \\* n_c = 41,000 exceeds 40,000"):
        MpcConfig(n_p=MAX_HORIZON_STEPS, n_c=widest + 1)
    with pytest.raises(ValueError, match="n_p \\* n_c = 40,401 exceeds"):
        MpcConfig(n_p=201, n_c=201)
    # The step and the command box are checked where they are passed.
    for dt, box in ((0.0, BOX), (float("nan"), BOX), (DT, (1.0, -1.0)),
                    (DT, (float("nan"), 1.0))):
        with pytest.raises(ValueError, match="dt > 0 .* lo <= hi"):
            solve_plan(_x0(), 0.0, 0.0, prepare_poses([], two_lane_road, FP), 1,
                       small_cfg(), DP, dt, box)


@pytest.mark.parametrize("field,q_diag,cost", [
    # An infinite peak is inf near the car 30 m ahead and inf * 0 = NaN
    # where the bump of the car 100 m aside underflows to 0.
    (FieldParams(a_oc=math.inf), (1.0, 10.0, 50.0), "nan"),
    (FieldParams(a_oc=1e308), (1.0, 10.0, 50.0), "inf"),
    (FP, (1e308, 1e308, 1e308), "inf")], ids=["nan_field", "inf_field", "inf_weights"])
def test_non_finite_zero_increment_cost_is_a_domain_error(field, q_diag, cost,
                                                          two_lane_road):
    # No trial can beat a NaN or an infinite cost, so the solve would hold
    # the command; a named error lets the closed loop abort instead.
    obs = [ObstaclePose(x=30.0, y=0.0, heading=0.0, v=10.0),
           ObstaclePose(x=30.0, y=100.0, heading=0.0, v=10.0)]
    with np.errstate(all="ignore"), pytest.raises(
            DomainError, match=f"the zero-increment horizon cost is {cost}"):
        solve_plan(_x0(), 0.0, 0.0, prepare_poses(obs, two_lane_road, field), 1,
                   small_cfg(q_diag=q_diag), DP, DT, BOX)


def test_horizon_model_needs_forward_speed():
    # A named domain error, so a closed-loop run can abort on it cleanly.
    with pytest.raises(DomainError):
        HorizonModel(_x0(v=0.2), 0.0, 0.0, DP, small_cfg(), DT)


def test_accel_enters_through_affine_term():
    # v_y = r = phi = 0 at the linearization point, so the speed row of A
    # is zero, X moves at the speed, and the held a_x enters through the
    # affine remainder alone: X = X0 + v t + a_x t^2 / 2 on the exact
    # discretization, and Y and phi stay 0 with the preview on the path.
    cfg = small_cfg()
    t = _times(cfg.n_p)
    for a_x in (2.0, 0.0):
        m = HorizonModel(_x0(), 0.0, a_x, DP, cfg, DT)
        assert np.allclose(m.base[:, 0], 20.0 * t + 0.5 * a_x * t * t,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(m.base[:, 1:], 0.0, rtol=0.0, atol=1e-12)


def _sequential_model(x0, u_prev, a_x, n_p):
    """(base, cum) of the full state by the gemv chain on the discretized
    linearization: base[i] = A base[i-1] + c from x0, with c the held
    command's drift B u_prev + w, and cum[k] = sum_{i<k} A^i B with one
    A @ power per step."""
    a_c, b_c = linearize(x0, u_prev, a_x, DP)
    drift = derivatives(x0, u_prev, a_x, DP) - a_c @ x0
    a_d, b_d = discretize(a_c, np.column_stack([b_c[:, 0], drift]), DT)
    base, x = [], x0
    cum, power = [np.zeros(NX)], b_d[:, 0].copy()
    for _ in range(n_p):
        x = a_d @ x + b_d[:, 1]
        base.append(x)
        cum.append(cum[-1] + power)
        power = a_d @ power
    return np.array(base), np.array(cum)


def test_base_is_held_command_rollout():
    cfg = small_cfg()
    x0 = _x0(y=1.0)
    m = HorizonModel(x0, 0.5, 0.0, DP, cfg, DT)
    base, _ = _sequential_model(x0, 0.5, 0.0, cfg.n_p)
    assert m.base.shape == (cfg.n_p, 3)
    for i in range(cfg.n_p):
        assert np.allclose(m.base[i], base[i, CHANNELS], atol=1e-12)
    assert np.allclose(m.poses(np.zeros(cfg.n_c)), m.base)


def _assert_close_to(got, want):
    # The rollout goes by doubling, not one gemv at a time: the sums
    # round differently, within 1e-12 of the largest value.
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sens_is_the_lagged_cumulative_input_gain():
    cfg = small_cfg(n_p=9, n_c=4)
    m = HorizonModel(_x0(y=1.0), 0.5, 1.0, DP, cfg, DT)
    assert m.sens.shape == (cfg.n_p, 3, cfg.n_c)
    for i in range(cfg.n_p):
        for j in range(cfg.n_c):
            if j > i:     # du_j has not acted yet
                assert np.array_equal(m.sens[i, :, j], np.zeros(3))
            else:         # the same gain, j steps later
                assert m.sens[i, :, j].tobytes() == m.sens[i - j, :, 0].tobytes()
    _, cum = _sequential_model(_x0(y=1.0), 0.5, 1.0, cfg.n_p)
    _assert_close_to(m.sens[:, :, 0], cum[1:, CHANNELS])


# n_p = 1 is one product and no squaring; 2 and 17 end the doubling on a
# partial block, 1 of 2 and 2 of 16 steps.
@pytest.mark.parametrize("n_p", [1, 2, 17, 20, 30, 1000])
def test_doubled_powers_match_the_gemv_chain(n_p):
    cfg = small_cfg(n_p=n_p, n_c=min(n_p, 4))
    m = HorizonModel(_x0(y=1.0), 0.5, 1.0, DP, cfg, DT)
    base, cum = _sequential_model(_x0(y=1.0), 0.5, 1.0, n_p)
    _assert_close_to(m.base, base[:, CHANNELS])
    _assert_close_to(m.sens[:, :, 0], cum[1:, CHANNELS])


def test_states_batched_matches_rows(rng, two_lane_road, three_lane_arc):
    cfg = small_cfg()
    m = HorizonModel(_x0(), 0.0, 0.0, DP, cfg, DT)
    batch = rng.uniform(-0.3, 0.3, (7, cfg.n_c))
    got = m.poses(batch)
    assert got.shape == (7, cfg.n_p, 3)
    for b in range(7):
        assert np.array_equal(got[b], m.poses(batch[b]))
    # For batches of the sizes the planner scores (1 + n_c to start, the
    # trials + n_c probe rows, n_c probe rows alone, and other sizes), one
    # sequence gives its row in a batch: prediction, outputs and cost alike.
    # The field's query layout is made once per rank and kept: one
    # prepared scene of 0, 1 or 3 cars, on either road, queried at ranks
    # 2, 0, 1 and 2 again, and its coasted copy, match fresh fields.
    w = np.array([1.0, 10.0, 50.0])
    cars = [ObstaclePose(x=15.0, y=0.5, heading=0.02, v=10.0),
            ObstaclePose(x=40.0, y=-3.5, heading=-0.01, v=0.0),
            ObstaclePose(x=-5.0, y=4.2, heading=0.0, v=25.0)]
    for n_p, n_c, rows in ((12, 4, 7), (20, 5, 5), (20, 5, 31), (30, 5, 31),
                           (30, 8, 8), (30, 8, 25), (5, 1, 3),
                           (12, 4, 5), (12, 4, 35), (30, 5, 6), (30, 5, 36),
                           (30, 8, 9), (30, 8, 39), (5, 1, 2), (5, 1, 32)):
        cfg = small_cfg(n_p=n_p, n_c=n_c)
        m = HorizonModel(_x0(v=rng.uniform(8.0, 30.0), y=rng.uniform(-2.0, 2.0)),
                         rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0), DP, cfg, DT)
        batch = rng.uniform(-0.3, 0.3, (rows, n_c))
        poses = m.poses(batch)
        assert np.array_equal(m.poses(batch[0]), poses[0])
        assert np.array_equal(m.poses(batch[-1]), poses[-1])
        assert mpc_cost(poses, batch, w, 1.0)[-1] == mpc_cost(poses[-1], batch[-1], w, 1.0)
        qx, qy = poses[..., 0], poses[..., 1]
        for road in (two_lane_road, three_lane_arc):
            for obstacles in ([], cars[:1], cars):
                scene = prepare_poses(obstacles, road, FP)
                for q in (np.s_[...], np.s_[0, 0], np.s_[rows // 2], np.s_[1:]):
                    got = total_field(qx[q], qy[q], scene)
                    want = total_field(qx[q], qy[q], prepare_poses(obstacles, road, FP))
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                field = coasted(scene, _times(n_p))
                ys = _outputs(poses, field, 1)
                want = _outputs(poses, coasted(prepare_poses(obstacles, road, FP),
                                               _times(n_p)), 1)
                assert ys.tobytes() == want.tobytes()
                for b in (0, rows // 2, rows - 1):
                    assert np.array_equal(_outputs(poses[b], field, 1), ys[b])
                    assert np.array_equal(_outputs(poses[b:b + 1], field, 1)[0], ys[b])


def test_states_linear_in_du(rng):
    cfg = small_cfg()
    m = HorizonModel(_x0(), 0.0, 0.0, DP, cfg, DT)
    du = rng.uniform(-0.3, 0.3, cfg.n_c)
    lhs = m.poses(2.0 * du) - m.base
    rhs = 2.0 * (m.poses(du) - m.base)
    assert np.allclose(lhs, rhs, atol=1e-10)
    # Commands after n_c are held: the last increment reaches every later step.
    bump = np.zeros(cfg.n_c)
    bump[-1] = 0.1
    diff = m.poses(bump) - m.base
    assert np.all(np.abs(diff[cfg.n_c - 1:, 1]) > 0.0) or np.any(diff != 0.0)


def _swept_one_pose_at_a_time(obstacles, t):
    """(x, y) of each pose coasting for times t, as x + v * t * cos(heading)."""
    return (np.array([o.x + o.v * t * np.cos(o.heading) for o in obstacles]),
            np.array([o.y + o.v * t * np.sin(o.heading) for o in obstacles]))


def test_coasted_sweeps_constant_velocity(rng, two_lane_road, three_lane_arc):
    # The swept positions equal the per-pose formula bit for bit, for cars
    # on a straight road and on an arc, still and moving, and for no cars;
    # everything but the positions is the prepared scene's own.
    t = _times(20)
    for road in (two_lane_road, three_lane_arc):
        for n_obs in (0, 1, 4):
            obstacles = []
            for _ in range(n_obs):
                s = rng.uniform(50.0, 400.0)
                x, y = road.to_global(s, road.lane_offset(int(rng.integers(1, 3))))
                obstacles.append(ObstaclePose(
                    x=float(x), y=float(y), heading=float(road.tangent_heading(s)),
                    v=float(rng.choice([0.0, rng.uniform(5.0, 30.0)]))))
            scene = prepare_poses(obstacles, road, FP)
            swept = coasted(scene, t)
            want_x, want_y = _swept_one_pose_at_a_time(obstacles, t)
            assert swept.x.shape == swept.y.shape == (n_obs, t.size)
            assert swept.x.tobytes() == want_x.tobytes()
            assert swept.y.tobytes() == want_y.tobytes()
            for name in ("cos", "sin", "v", "road", "offsets", "gains", "params"):
                assert getattr(swept, name) is getattr(scene, name)
    assert any(o.v == 0.0 for o in obstacles) and any(o.v > 0.0 for o in obstacles)


def test_outputs_channels(two_lane_road):
    cfg = small_cfg()
    m = HorizonModel(_x0(), 0.0, 0.0, DP, cfg, DT)
    obs = [ObstaclePose(x=30.0, y=0.0, heading=0.0, v=10.0)]
    poses = m.poses(np.zeros(cfg.n_c))
    field = coasted(prepare_poses(obs, two_lane_road, FP), _times(cfg.n_p))
    y = _outputs(poses, field, 1)
    assert y.shape == (cfg.n_p, 3)
    # Cross-check the vectorized field sweep step by step.
    t = (np.arange(cfg.n_p) + 1) * DT
    for i in range(cfg.n_p):
        stepped = [ObstaclePose(x=30.0 + 10.0 * t[i], y=0.0, heading=0.0, v=10.0)]
        ref = total_field(poses[i, 0], poses[i, 1],
                          prepare_poses(stepped, two_lane_road, FP))
        assert y[i, 0] == pytest.approx(float(ref), rel=1e-12)
    # Lane 1 centerline sits at +4 on this road; the ego starts at 0.
    s, d = two_lane_road.to_frenet(poses[:, 0], poses[:, 1])
    assert np.allclose(y[:, 1], d - 4.0, atol=1e-12)
    assert np.allclose(y[:, 2], poses[:, 2] - two_lane_road.tangent_heading(s),
                       atol=1e-12)


def test_mpc_cost_closed_form():
    w = np.array([2.0, 1.0, 1.0])
    outputs = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    du = np.array([0.5, -0.5])
    # 2*1 + 4 + 0 + 0 + 1 + 9 = 16, du energy = 0.5
    assert mpc_cost(outputs, du, w, 1.0) == pytest.approx(16.5)
    batch = np.stack([outputs, np.zeros_like(outputs)])
    got = mpc_cost(batch, np.stack([du, du]), w, 2.0)
    assert np.allclose(got, [17.0, 1.0])


def _quadratic_form_cost(outputs, du, w, r):
    """The cost with the full weight matrix diag(w), as one einsum."""
    quad = np.einsum("...ni,ij,...nj->...", outputs, np.diag(w), outputs)
    return quad + r * np.sum(du * du, axis=-1)


@pytest.mark.parametrize("kind", ["one", "jacobian", "trials"])
def test_weights_match_the_quadratic_form_bit_for_bit(kind, rng):
    # The cost and the weighted Jacobian equal the forms with the matrix
    # diag(w), bit for bit, for one sequence, the n_c Jacobian rows and
    # the 31 trials the planner scores; y spans the scales of the field,
    # the lateral offset and the yaw error.
    for _ in range(300):
        n_c = int(rng.integers(1, 9))
        n_p = int(rng.integers(n_c, 41))
        lead = {"one": (), "jacobian": (n_c,), "trials": (31,)}[kind]
        scale = np.array([50.0, 4.0, 0.1]) * 10.0 ** rng.uniform(-3.0, 1.0, 3)
        y = rng.normal(size=lead + (n_p, 3)) * scale
        du = rng.uniform(-0.3, 0.3, lead + (n_c,))
        w = rng.uniform(0.0, 60.0, 3) * (rng.uniform(size=3) > 0.1)
        r = rng.uniform(0.1, 10.0)
        got = mpc_cost(y, du, w, r)
        assert np.shape(got) == lead
        assert np.array_equal(got, _quadratic_form_cost(y, du, w, r))
        assert np.array_equal(y * w, y @ np.diag(w))


def _project_loop(du, u_prev, u_box, cfg):
    """_project through its loop, the path of a solve whose u box can bind."""
    return _project(du, u_prev, u_box, cfg, False, np.empty_like(du))


def test_project_respects_running_command_box():
    cfg = small_cfg(du_min=-0.3, du_max=0.3)
    out = _project_loop(np.array([0.3, 0.3, 0.3, 0.3]), 9.9, BOX, cfg)
    assert np.allclose(out, [0.1, 0.0, 0.0, 0.0])
    out = _project_loop(np.array([-1.0, -1.0, -1.0, -1.0]), -9.5, BOX, cfg)
    assert np.allclose(out, [-0.3, -0.2, 0.0, 0.0])
    # Inside every box the projection is the identity.
    du = np.array([0.1, -0.2, 0.05, 0.0])
    assert np.allclose(_project_loop(du, 0.0, BOX, cfg), du)


def test_project_from_outside_the_u_box_stays_in_the_du_box():
    # A command outside the u box is moved toward it by at most the du
    # box per increment, from above as from below, whatever du asks for,
    # and kept inside once there.
    cfg = small_cfg(du_min=-0.3, du_max=0.3)
    assert np.allclose(_project_loop(np.zeros(4), 10.5, BOX, cfg), [-0.3, -0.2, 0.0, 0.0])
    assert np.allclose(_project_loop(np.zeros(4), -10.5, BOX, cfg), [0.3, 0.2, 0.0, 0.0])
    for u_prev in (10.5, -10.5):
        for du in (np.zeros(4), np.full(4, 1.0), np.full(4, -1.0)):
            out = _project_loop(du, u_prev, BOX, cfg)
            assert abs(out[0]) == 0.3 and np.sign(out[0]) == -np.sign(u_prev)
            assert np.all(out >= cfg.du_min) and np.all(out <= cfg.du_max)
            u = u_prev + np.cumsum(out)
            assert np.all((u[1:] >= BOX[0] - 1e-12) & (u[1:] <= BOX[1] + 1e-12))
    # A box the du box cannot reach in n_c increments: every increment
    # is the du box's edge nearest the u box.
    assert np.array_equal(_project_loop(np.zeros(4), 12.0, BOX, cfg), np.full(4, -0.3))
    assert np.array_equal(_project_loop(np.zeros(4), -12.0, BOX, cfg), np.full(4, 0.3))
    lo, hi = _bounds(np.array([12.0, -12.0, 0.0]), BOX, cfg)
    assert np.array_equal(lo, [-0.3, 0.3, -0.3])
    assert np.array_equal(hi, [-0.3, 0.3, 0.3])


def test_project_batch_matches_rows(rng):
    cfg = small_cfg(du_min=-0.3, du_max=0.3)
    box = (-1.0, 1.0)
    for u_prev in (0.0, 0.85, -0.95):
        batch = rng.uniform(-0.6, 0.6, (9, cfg.n_c))
        got = _project_loop(batch, u_prev, box, cfg)
        assert got.shape == batch.shape
        for b in range(9):
            assert np.array_equal(got[b], _project_loop(batch[b], u_prev, box, cfg))


def _sequential_project(du, u_prev, u_box, cfg):
    """The projection as one loop over the increments, on every row: each
    bound is the room to its edge of the u box clipped to the du box, so
    from outside the u box both are the du box's edge nearest it. The clip
    takes the maximum first, as _bounds does, so that a du box of (-0.0,
    0.0) gives the sign of zero the planner gives."""
    out = np.empty_like(du)
    u = np.full(du.shape[:-1], float(u_prev))
    for j in range(du.shape[-1]):
        lo = np.minimum(np.maximum(u_box[0] - u, cfg.du_min), cfg.du_max)
        hi = np.minimum(np.maximum(u_box[1] - u, cfg.du_min), cfg.du_max)
        out[..., j] = np.minimum(np.maximum(du[..., j], lo), hi)
        u = u + out[..., j]
    return out


def _logged_solve(monkeypatch, *args):
    """solve_plan(*args) with every projected batch (input and result) and
    every _bounds and _running call of the planner logged."""
    batches, bounds, running = [], [], []
    project, real_bounds, real_running = planner._project, planner._bounds, planner._running

    def logged_project(du, *a, **k):
        got = project(du, *a, **k)
        batches.append((du.copy(), got.copy()))
        return got

    monkeypatch.setattr(planner, "_project", logged_project)
    monkeypatch.setattr(planner, "_bounds",
                        lambda *a: bounds.append(1) or real_bounds(*a))
    monkeypatch.setattr(planner, "_running",
                        lambda *a: running.append(1) or real_running(*a))
    plan = solve_plan(*args)
    monkeypatch.undo()
    return plan, batches, len(bounds), len(running)


def test_project_clips_only_where_the_u_box_cannot_bind(two_lane_road, monkeypatch):
    # The solve decides once whether the u box can bind. Far from the box
    # every batch is the plain du clip and no _bounds call is made. With
    # the box binding some rows, and with the extreme running command
    # exactly du_max below the box, every batch runs the loop: n_c _bounds
    # calls per projected batch, and one per active-set test. Each batch
    # equals the sequential projection bit for bit.
    cfg = small_cfg(du_min=-0.25, du_max=0.25)
    scene = prepare_poses([], two_lane_road, FP)
    for u_prev, box, rows_bound in ((0.0, BOX, "none"), (0.5, (-1.0, 1.0), "some"),
                                    (0.0, (-1.0, 1.0), "none")):
        box_free = box == BOX
        assert planner._box_free(u_prev, box, cfg) == box_free
        plan, batches, n_bounds, n_running = _logged_solve(
            monkeypatch, _x0(), u_prev, 0.0, scene, 1, cfg, DP, DT, box)
        # The baseline, then one batch of trials per iteration that scored
        # one, as many as the search that scores each batch alone scores.
        _, _, scored = _one_batch_per_purpose(_x0(), u_prev, 0.0, [], two_lane_road,
                                              1, cfg, box)
        assert len(batches) == 1 + scored and plan.iterations >= 2
        assert n_running == (0 if box_free else plan.iterations)
        assert n_bounds == (0 if box_free else cfg.n_c * len(batches) + n_running)
        clipped = []
        for du, got in batches:
            assert got.tobytes() == _sequential_project(du, u_prev, box, cfg).tobytes()
            clipped.append(np.all(got == np.clip(du, cfg.du_min, cfg.du_max), axis=-1))
        if rows_bound == "none":
            assert all(c.all() for c in clipped)
        else:
            assert any(c.any() and not c.all() for c in clipped)


def _first_bound(u_free: float, u_bound: float, free) -> float:
    """The u_prev nearest u_free at which free(u_prev) turns False, between
    u_free (free) and u_bound (not), bisected down to adjacent floats."""
    a, b = u_free, u_bound
    while True:
        m = a + (b - a) / 2
        if m == a or m == b:
            return b
        a, b = (m, b) if free(m) else (a, m)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(center=st.floats(-2.0, 2.0), spare=st.floats(0.01, 1.0), n_c=st.integers(1, 8),
       du_box=st.tuples(st.floats(-0.5, 0.0), st.floats(0.0, 0.5)),
       rows=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
                     min_size=1, max_size=8))
def test_box_decision_picks_the_clip_only_where_it_is_the_loop(center, spare, n_c,
                                                               du_box, rows):
    # At each edge of the u box, the decision's threshold for u_prev and
    # one float step on either side of it: the clip the decision picks
    # equals the sequential projection bit for bit, on the drawn rows and
    # on the two rows whose running commands reach the extremes. The step
    # inside is free, the threshold and the step outside are not.
    cfg = small_cfg(n_p=8, n_c=n_c, du_min=du_box[0], du_max=du_box[1])
    reach = 0.5 * n_c + spare
    box = (center - reach, center + reach)
    batch = np.array([[1.0] * n_c, [-1.0] * n_c] + [r[:n_c] for r in rows])

    def free(u_prev):
        return planner._box_free(u_prev, box, cfg)

    assert free(center)
    outcomes = []
    for edge in box:
        threshold = _first_bound(center, edge, free)
        for u_prev in (np.nextafter(threshold, center), threshold,
                       np.nextafter(threshold, 2.0 * edge - center)):
            decided = free(float(u_prev))
            outcomes.append(decided)
            want = _sequential_project(batch, u_prev, box, cfg)
            got = _project(batch, u_prev, box, cfg, decided, np.empty_like(batch))
            assert got.tobytes() == want.tobytes(), (u_prev, decided)
        assert outcomes[-3:] == [True, False, False]
    assert True in outcomes and False in outcomes


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(u_prev=st.floats(-2.0, 2.0), half_width=st.floats(0.0, 3.0),
       du_box=st.tuples(st.floats(-0.5, 0.0), st.floats(0.0, 0.5)),
       rows=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                     min_size=1, max_size=8))
def test_project_matches_the_sequential_loop(u_prev, half_width, du_box, rows):
    cfg = small_cfg(du_min=du_box[0], du_max=du_box[1])
    box = (-half_width, half_width)
    u_prev = min(max(u_prev, box[0]), box[1])   # the command starts in its box
    batch = np.array(rows)
    want = _sequential_project(batch, u_prev, box, cfg)
    assert _project_loop(batch, u_prev, box, cfg).tobytes() == want.tobytes()


def _halving_search(x0, u_prev, a_x, obstacles, road, lane, cfg, box):
    """Cost of the plan a one-trial-at-a-time gradient search finds.

    Projected gradient descent: the gradient by central differences with
    a 1e-4 step, then each iteration halves the step from 1/max|grad|, at
    most 25 times, until a trial beats the best cost, scoring every trial
    alone with the full prediction, the field one obstacle at a time and
    an elementwise projection written out here.
    """
    model = HorizonModel(x0, u_prev, a_x, DP, cfg, DT)
    t = _times(cfg.n_p)
    # How far each obstacle has coasted from its pose at each step.
    shifts = [(o.v * t * np.cos(o.heading), o.v * t * np.sin(o.heading))
              for o in obstacles]
    h = 1e-4

    def cost_of(du):
        # The pose prediction, and the field one obstacle at a time, each
        # queried in the frame that coasts with it.
        poses = model.poses(du)
        xs, ys = poses[..., 0], poses[..., 1]
        y1 = np.zeros(xs.shape)
        for o, (sx, sy) in zip(obstacles, shifts):
            y1 = y1 + obstacle_field(xs - sx, ys - sy, o, FP)
        y1 = y1 + road_field(xs, ys, road, FP)
        s, d = road.to_frenet(xs, ys)
        y = np.stack([y1, d - road.lane_offset(lane),
                      poses[..., 2] - road.tangent_heading(s)], axis=-1)
        return mpc_cost(y, du, np.array(cfg.q_diag), cfg.r)

    def project(du):
        out, u = np.empty_like(du), u_prev
        for j in range(len(du)):
            lo = max(cfg.du_min, box[0] - u)
            hi = min(cfg.du_max, box[1] - u)
            out[j] = min(max(du[j], lo), hi)
            u += out[j]
        return out

    n_c = cfg.n_c
    eye = np.eye(n_c)
    du = np.zeros(n_c)
    best = float(cost_of(du))
    for _ in range(cfg.max_iter):
        vals = cost_of(np.concatenate([du + h * eye, du - h * eye]))
        grad = (vals[:n_c] - vals[n_c:]) / (2.0 * h)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm == 0.0:
            break
        alpha = 1.0 / gnorm
        converged = False
        for _ in range(25):
            cand = project(du - alpha * grad)
            val = float(cost_of(cand[None])[0])
            if val < best:
                converged = best - val <= cfg.tol * max(1.0, val)
                du, best = cand, val
                break
            alpha *= 0.5
        else:
            break
        if converged:
            break
    return best


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
    box = (u_prev - reach, u_prev + reach)
    target = int(np.clip(lane + rng.integers(-1, 2), 1, road.lane_count))
    return (x0, u_prev, rng.uniform(-3.0, 2.0), obstacles, target,
            MpcConfig(max_iter=40), box)


def _settled_scene(rng):
    """A lane change nearly done: the ego 0.2 m short of lane 1's centerline.

    The state is the bundled merge (scenario_a, normal) at t = 10.2 s,
    scaled per entry by 1 + 0.003 * U(-1, 1), with the car it merged
    behind 70 m back. Near such a rest point the gradient search's first
    improving trial can lie 13 or more halvings down.
    """
    x0 = np.array([22.1316, -0.0131, 0.01536, -0.00148, 220.479, 3.8063,
                   0.00204, -0.00814]) * (1.0 + 0.003 * rng.uniform(-1.0, 1.0, NX))
    u_prev = 3.79692 + 0.003 * rng.uniform(-1.0, 1.0)
    obstacles = [ObstaclePose(x=153.0, y=4.0, heading=0.0, v=15.0)]
    cfg = MpcConfig(n_p=30, q_diag=(1.0, 60.0, 50.0), r=5.0)
    return x0, u_prev, 0.0, obstacles, 1, cfg, (-2.0, 6.0)


# Seeds 0-23 are random scenes on both roads, some with a command box
# tight enough for the projection to bite; the other seeds are settled
# merge states.
SETTLED_SEEDS = (26, 50, 116, 120, 138)


SCENE_SEEDS = (*range(24), *SETTLED_SEEDS)


def _scene(seed, two_lane_road, three_lane_arc):
    """(road, x0, u_prev, a_x, obstacles, target, cfg, box) of one seed."""
    rng = np.random.default_rng(seed)
    if seed in SETTLED_SEEDS:
        return (two_lane_road, *_settled_scene(rng))
    road = two_lane_road if seed % 2 else three_lane_arc
    return (road, *_random_scene(rng, road))


@pytest.mark.parametrize("seed", SCENE_SEEDS)
def test_batched_line_search_matches_halving_loop(seed, two_lane_road, three_lane_arc):
    # The plan's cost matches the gradient search's to 1e-3 relative or
    # beats it, never loses to zero increments, and keeps the boxes.
    road, x0, u_prev, a_x, obstacles, target, cfg, box = _scene(
        seed, two_lane_road, three_lane_arc)
    plan = solve_plan(x0, u_prev, a_x, prepare_poses(obstacles, road, FP), target,
                      cfg, DP, DT, box)
    reference = _halving_search(x0, u_prev, a_x, obstacles, road, target, cfg, box)
    assert plan.cost <= reference * (1.0 + 1e-3)
    assert plan.cost <= plan.cost_zero
    du = plan.du_sequence
    assert np.all(du >= cfg.du_min) and np.all(du <= cfg.du_max)
    u = u_prev + np.cumsum(du)
    assert np.all(u >= box[0] - 1e-9) and np.all(u <= box[1] + 1e-9)


def _one_batch_per_purpose(x0, u_prev, a_x, obstacles, road, lane, cfg, box,
                           start=None):
    """solve_plan's search with every output batch scored on its own.

    The same starts, Jacobian, box QP step, trials, tie rule and stopping
    tests, but each start is scored alone, every iteration scores its n_c
    probe rows in one batch and its len(NEWTON_STEPS) trials in another,
    and the step's box is always read at the running command. Returns the
    plan, the index of the trial each accepted step took, for the steps
    after which the search went on, and the number of trial batches scored.
    """
    model = HorizonModel(x0, u_prev, a_x, DP, cfg, DT)
    prepared = coasted(prepare_poses(obstacles, road, FP), _times(cfg.n_p))
    w, r, n_c = np.array(cfg.q_diag), cfg.r, cfg.n_c
    eye = np.eye(n_c)

    def outputs_of(du_batch):
        return _outputs(model.poses(du_batch), prepared, lane)

    du = _project_loop(np.zeros(n_c), u_prev, box, cfg)
    y = outputs_of(du)
    best = cost_zero = float(mpc_cost(y, du, w, r))
    if start is not None:
        projected = _project_loop(np.asarray(start, dtype=float), u_prev, box, cfg)
        y_start = outputs_of(projected)
        cost = float(mpc_cost(y_start, projected, w, r))
        if cost < best:
            du, best, y = projected, cost, y_start
    went_on_after = []
    degraded = at_cap = False
    scored = 0
    for iterations in range(1, cfg.max_iter + 1):
        jac = (outputs_of(du + FD_STEP * eye) - y) / FD_STEP
        jw = (jac * w).reshape(n_c, -1)
        g = jw @ y.ravel() + r * du
        lo, hi = _bounds(np.cumsum(np.concatenate(([u_prev], du[:-1]))), box, cfg)
        hess = jw @ jac.reshape(n_c, -1).T + r * eye
        d = _box_qp(hess, g, lo - du, hi - du)
        # The model's decrease is half the cost's: g and hess are half its
        # gradient and Hessian.
        if -2.0 * (g @ d + 0.5 * (d @ hess @ d)) <= cfg.tol * max(1.0, best):
            break
        trials = _project_loop(du + NEWTON_STEPS[:, None] * d, u_prev, box, cfg)
        ys = outputs_of(trials)
        scored += 1
        vals = mpc_cost(ys, trials, w, r)
        k = int(np.argmin(vals))
        if not vals[k] < best:
            degraded = iterations == 1
            break
        drop = best - float(vals[k])
        du, best, y = trials[k], float(vals[k]), ys[k]
        if drop <= cfg.tol * max(1.0, best):
            break
        if iterations < cfg.max_iter:
            went_on_after.append(k)
    else:
        at_cap = True
    plan = PlanResult(du_sequence=du, u_applied=float(u_prev + du[0]),
                      predicted_poses=model.poses(du), predicted_outputs=y,
                      cost=best, cost_zero=cost_zero, iterations=iterations,
                      degraded=degraded, cost_rows=0,   # rows not counted here
                      at_cap=at_cap)
    return plan, went_on_after, scored


def _rows_per_outputs_call(monkeypatch):
    """Patch the planner's _outputs to log the rows of every call it gets,
    and its _bounds to count its calls."""
    rows, bounds = [], []
    real, real_bounds = planner._outputs, planner._bounds

    def logged(poses, *args):
        rows.append(poses[..., 0, 0].size)
        return real(poses, *args)

    monkeypatch.setattr(planner, "_outputs", logged)
    monkeypatch.setattr(planner, "_bounds",
                        lambda *a: bounds.append(1) or real_bounds(*a))
    return rows, bounds


# A settled merge state under a wide and under a tight command box, and
# the projection each solve should take: the plain du clip (the u box
# cannot bind) or the loop.
BOXED_SCENES = ((10.0, "clip"), (0.4, "loop"))


def _boxed_scene(reach, two_lane_road):
    """(road, x0, u_prev, a_x, obstacles, target, cfg, box) with u_prev +- reach."""
    x0, u_prev, a_x, obstacles, target, cfg, _ = _settled_scene(np.random.default_rng(7))
    box = (u_prev - reach, u_prev + reach)
    return two_lane_road, x0, u_prev, a_x, obstacles, target, cfg, box


def test_fused_batches_match_one_batch_per_purpose(two_lane_road, three_lane_arc,
                                                   monkeypatch):
    # Every PlanResult field but the row count equals, bit for bit, the
    # search that scores each batch on its own and projects through the
    # loop, and each solve makes the calls it should: one of 1 + n_c rows
    # per start, one of len(NEWTON_STEPS) + n_c per iteration that scored
    # its trials, and one of n_c after each step that took another trial
    # than the full step and did not end the search. The plan's row count
    # is the rows of those calls. Each scene is solved from the zero
    # increments alone and again with the closed loop's start, the plan
    # moved on one step. The scenes take both branches, and both
    # projections: the boxed scenes check which one each took, by its
    # _bounds calls.
    n_trials = len(NEWTON_STEPS)
    scenes = [(seed, _scene(seed, two_lane_road, three_lane_arc), None)
              for seed in SCENE_SEEDS]
    scenes += [(reach, _boxed_scene(reach, two_lane_road), path)
               for reach, path in BOXED_SCENES]
    went_on_after, paths, model_stops = [], set(), 0
    for label, scene, path in scenes:
        road, x0, u_prev, a_x, obstacles, target, cfg, box = scene
        start = None
        for n_starts in (1, 2):
            want, after, scored = _one_batch_per_purpose(
                x0, u_prev, a_x, obstacles, road, target, cfg, box, start)
            rows, bounds = _rows_per_outputs_call(monkeypatch)
            got = solve_plan(x0, u_prev, a_x, prepare_poses(obstacles, road, FP),
                             target, cfg, DP, DT, box, start=start)
            monkeypatch.undo()
            _plan_fields_equal(got, want, (label, n_starts))
            n_c = cfg.n_c
            fallbacks = sum(k != 0 for k in after)
            assert len(rows) == 1 + scored + fallbacks, label
            assert rows[0] == n_starts * (1 + n_c)
            assert rows[1:].count(n_trials + n_c) == scored
            assert rows[1:].count(n_c) == fallbacks
            assert got.cost_rows == sum(rows)
            took = "loop" if bounds else "clip"
            assert took == ("clip" if planner._box_free(u_prev, box, cfg) else "loop")
            assert path in (None, took), label
            paths.add(took)
            went_on_after += after
            model_stops += scored < got.iterations
            start = np.append(want.du_sequence[1:], 0.0)
    assert paths == {"clip", "loop"}
    assert went_on_after.count(0) > 0
    assert len(went_on_after) - went_on_after.count(0) > 0
    assert model_stops > 0


def _model(hess, g, d):
    return g @ d + 0.5 * (d @ hess @ d)


def _enumerated_qp(hess, g, lo, hi):
    """The box QP's minimizer by trying all 3**n ways to hold each component
    on its lower bound, on its upper bound or free, keeping the feasible
    lowest."""
    n, best = g.size, None
    for way in itertools.product((0, 1, 2), repeat=n):
        way = np.array(way)
        held = way < 2
        d = np.where(way == 0, lo, hi)
        free = ~held
        if free.any():
            d[free] = np.linalg.solve(hess[np.ix_(free, free)],
                                      -(g[free] + hess[np.ix_(free, held)] @ d[held]))
        if np.all(d >= lo - 1e-12) and np.all(d <= hi + 1e-12):
            if best is None or _model(hess, g, d) < _model(hess, g, best):
                best = d
    return best


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_box_qp_step_is_the_model_minimizer_over_the_box(n, seed):
    # Random SPD H and g, and boxes that hold 0, some with a side at 0.
    # The step is feasible and meets the KKT conditions to 1e-9, is the
    # minimizer found by enumeration for n <= 6, and when the box binds
    # nothing it is np.linalg.solve(H, -g) bit for bit. It ends before
    # the loop's bound of 4 n + 2 passes, one np.linalg.solve each.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    hess = a @ a.T + rng.uniform(0.01, 2.0) * np.eye(n)
    g = rng.normal(size=n) * rng.choice([0.1, 1.0, 3.0])
    lo = -rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.2)
    hi = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.2)
    if rng.uniform() < 0.2:
        lo, hi = lo - 100.0, hi + 100.0
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
        d = _box_qp(hess, g, lo, hi)
    assert 1 <= solve.call_count < 4 * n + 2
    assert np.all(lo <= d) and np.all(d <= hi)
    mult = hess @ d + g
    free = (lo < d) & (d < hi)
    assert np.all(np.abs(mult[free]) <= 1e-9)
    assert np.all(mult[(d == lo) & (lo < hi)] >= -1e-9)
    assert np.all(mult[(d == hi) & (lo < hi)] <= 1e-9)
    if n <= 6:
        assert np.allclose(d, _enumerated_qp(hess, g, lo, hi), rtol=0.0, atol=1e-9)
    newton = np.linalg.solve(hess, -g)
    if np.all(lo + 1e-9 < newton) and np.all(newton < hi - 1e-9):
        assert d.tobytes() == newton.tobytes()


def _lane_change_solve(monkeypatch, road, u_box, worse_trials=False):
    """The solve of test_plan_moves_toward_target_lane under u_box, and the
    g of each step it computed. With worse_trials every trial row after the
    first batch scores 10 m further off the lane than it would."""
    gs = []
    real_qp, real_outputs = planner._box_qp, planner._outputs

    def logged_qp(hess, g, *args):
        gs.append(g.copy())
        return real_qp(hess, g, *args)

    def shifted(poses, *args):
        out = real_outputs(poses, *args)
        if len(out) == len(NEWTON_STEPS) + cfg.n_c:
            out[:len(NEWTON_STEPS), :, 1] += 10.0
        return out

    cfg = small_cfg()
    monkeypatch.setattr(planner, "_box_qp", logged_qp)
    if worse_trials:
        monkeypatch.setattr(planner, "_outputs", shifted)
    plan = solve_plan(_x0(), 0.0, 0.0, prepare_poses([], road, FP), 1,
                      cfg, DP, DT, u_box)
    monkeypatch.undo()
    return plan, gs


def test_degraded_flags_a_step_that_missed_its_model(two_lane_road, monkeypatch):
    # Every trial scores worse than the model promised, by far: the solve
    # keeps the zero increments in its first iteration and says so.
    plan, gs = _lane_change_solve(monkeypatch, two_lane_road, BOX,
                                  worse_trials=True)
    assert plan.iterations == 1 and len(gs) == 1
    assert not plan.du_sequence.any() and plan.cost == plan.cost_zero
    assert plan.degraded
    # Unpatched, the same solve takes the step.
    plan, _ = _lane_change_solve(monkeypatch, two_lane_road, BOX)
    assert plan.cost < plan.cost_zero and not plan.degraded


def test_degraded_spares_an_optimum_on_the_box_edge(two_lane_road, monkeypatch):
    # The target lane pulls the command up, and u_prev = 0 is the top of
    # the u box: every increment's upper bound is 0 and its gradient points
    # out of the box, so the step is 0 and the zero increments are the
    # plan. The former rule (no step taken while 2 |g| > 1e-6) flagged it.
    plan, gs = _lane_change_solve(monkeypatch, two_lane_road, (-10.0, 0.0))
    assert plan.iterations == 1 and len(gs) == 1
    assert not plan.du_sequence.any() and plan.cost == plan.cost_zero
    assert np.all(gs[0] < 0.0) and 2.0 * np.abs(gs[0]).max() > 1e-6
    assert not plan.degraded


def test_predicted_drop_is_the_cost_drop_of_a_short_step(two_lane_road, monkeypatch):
    # A lane-change solve's first QP step, scaled down to 1e-3 of itself:
    # the drop of the cost it scores is the model's prediction within 5%.
    # g and H are half the cost's gradient and Hessian, so the model's own
    # decrease -(g.d + d.H.d / 2) reads about half the scored drop.
    calls = []
    real = planner._predicted_drop
    monkeypatch.setattr(planner, "_predicted_drop",
                        lambda *a: calls.append(a) or real(*a))
    cfg = small_cfg()
    scene = prepare_poses([], two_lane_road, FP)
    solve_plan(_x0(), 0.0, 0.0, scene, 1, cfg, DP, DT, BOX)
    monkeypatch.undo()
    hess, g, d = calls[0]
    du = np.array([np.zeros(cfg.n_c), 1e-3 * d])
    model = HorizonModel(_x0(), 0.0, 0.0, DP, cfg, DT)
    y = _outputs(model.poses(du), coasted(scene, _times(cfg.n_p)), 1)
    costs = mpc_cost(y, du, np.array(cfg.q_diag), cfg.r)
    predicted = real(hess, g, du[1])
    assert predicted > 1e-10 * costs[0]
    assert abs((costs[0] - costs[1]) - predicted) <= 0.05 * predicted


def _plan_fields_equal(got, want, label=None):
    """Every PlanResult field but the row count, bit for bit."""
    for f in dataclasses.fields(PlanResult):
        if f.name != "cost_rows":
            a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, f.name)


def test_at_cap_only_when_the_cap_cuts_the_search_short(two_lane_road, three_lane_arc):
    # Free, each scene's search stops on its own after k iterations. With
    # max_iter = k a stop rule fires on the last allowed iteration: the same
    # plan, not at the cap. With max_iter = k - 1 the search runs out.
    cut_short = 0
    for seed in SCENE_SEEDS:
        road, x0, u_prev, a_x, obstacles, target, cfg, box = _scene(
            seed, two_lane_road, three_lane_arc)
        scene = prepare_poses(obstacles, road, FP)

        def solve(cap):
            return solve_plan(x0, u_prev, a_x, scene, target,
                              dataclasses.replace(cfg, max_iter=cap), DP, DT, box)

        free = solve(1000)
        k = free.iterations
        assert k < 1000 and not free.at_cap, seed
        at_k = solve(k)
        assert not at_k.at_cap, seed
        _plan_fields_equal(at_k, free, seed)
        if k > 1:
            cut = solve(k - 1)
            assert cut.at_cap and cut.iterations == k - 1, seed
            cut_short += 1
    assert cut_short > 0


@pytest.mark.parametrize("seed", [*range(6), *SETTLED_SEEDS])
def test_a_start_that_costs_more_leaves_the_plan_alone(seed, two_lane_road,
                                                       three_lane_arc):
    # A start that does not cost less than the zero increments, one that
    # ties them (the zeros themselves) and one whose cost is not finite:
    # the plan is the plan with no start, bit for bit, and the start adds
    # only its own rows to the first batch.
    road, x0, u_prev, a_x, obstacles, target, cfg, box = _scene(
        seed, two_lane_road, three_lane_arc)
    scene = prepare_poses(obstacles, road, FP)
    alone = solve_plan(x0, u_prev, a_x, scene, target, cfg, DP, DT, box)
    away = -np.sign(alone.du_sequence.sum() or 1.0) * np.full(cfg.n_c, cfg.du_max)
    for start in (away, np.zeros(cfg.n_c), np.full(cfg.n_c, np.nan)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = solve_plan(x0, u_prev, a_x, scene, target, cfg, DP, DT, box,
                              start=start)
        _plan_fields_equal(plan, alone, (seed, start))
        assert plan.cost_rows == alone.cost_rows + 1 + cfg.n_c


def test_a_start_that_is_not_finite_hides_no_prediction_past_the_road_end():
    # The ego 5 m before the end of a 100 m road, its horizon reaching 20 m
    # on, on its target lane's centerline with the road field off: the
    # zero increments already sit at the model's rest point, so no trial
    # batch would be scored after the first. Their prediction leaves the
    # road, and a NaN start scored beside them must not hide that.
    road = RoadGeometry(kind="straight", length=100.0)
    scene = prepare_poses([], road, FieldParams(edge_weight=0.0, interior_weight=0.0))
    x0 = _x0()
    x0[IX] = 95.0
    cfg = small_cfg(n_p=20)
    for start in (None, np.full(cfg.n_c, np.nan)):
        with pytest.raises(DomainError, match="station range"):
            solve_plan(x0, 0.0, 0.0, scene, 2, cfg, DP, DT, BOX, start=start)


@pytest.mark.parametrize("seed", [*range(6), *SETTLED_SEEDS])
def test_a_solve_from_its_own_plan_ends_after_its_first_batch(seed, two_lane_road,
                                                              three_lane_arc):
    # In these scenes the model promises no more than the tolerance at the
    # plan a solve returns, so a solve started from that plan stops in its
    # first iteration: the first batch alone, the zero increments and the
    # start each with its probe rows, and the same plan and cost bit for bit.
    road, x0, u_prev, a_x, obstacles, target, cfg, box = _scene(
        seed, two_lane_road, three_lane_arc)
    scene = prepare_poses(obstacles, road, FP)
    first = solve_plan(x0, u_prev, a_x, scene, target, cfg, DP, DT, box)
    again = solve_plan(x0, u_prev, a_x, scene, target, cfg, DP, DT, box,
                       start=first.du_sequence)
    assert again.iterations == 1 and not again.degraded
    assert again.cost_rows == 2 * (1 + cfg.n_c)
    assert again.du_sequence.tobytes() == first.du_sequence.tobytes()
    assert again.cost == first.cost and again.cost_zero == first.cost_zero


def test_plan_from_below_the_u_box(two_lane_road):
    # u_prev under the u box: the baseline climbs back into the box, and
    # the solve climbs further toward the target lane, with no
    # floating-point warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = solve_plan(_x0(), -10.5, 0.0, prepare_poses([], two_lane_road, FP), 2,
                          small_cfg(), DP, DT, BOX)
    assert plan.cost < plan.cost_zero
    assert plan.du_sequence[0] > 0.0 and not plan.degraded


def test_plan_from_above_the_u_box(two_lane_road):
    # The mirror of the case above: u_prev over the u box, and the solve
    # descends toward the target lane with every increment inside the du
    # box (the clip once took -0.5 past du_min = -0.3 here).
    cfg = small_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = solve_plan(_x0(), 10.5, 0.0, prepare_poses([], two_lane_road, FP), 2,
                          cfg, DP, DT, BOX)
    assert plan.cost < plan.cost_zero
    assert plan.du_sequence[0] < 0.0 and not plan.degraded
    assert np.all(plan.du_sequence >= cfg.du_min)
    assert np.all(plan.du_sequence <= cfg.du_max)


def test_plan_from_outside_the_u_box_returns_into_it(two_lane_road):
    # The target lane pulls the command further up from u_prev = 10.5
    # over u_box = (-10, 10). The baseline is the zero increments
    # projected, which bring the command back into the box; the zeros
    # themselves would keep it at 10.5 and beat every projected trial.
    cfg = MpcConfig(n_p=12, n_c=4)
    scene = prepare_poses([], two_lane_road, FP)
    for u_prev, du, u_applied in ((10.5, [-0.3, -0.2, 0.0, 0.0], 10.2),
                                  (10.05, [-0.05, 0.0, 0.0, 0.0], 10.0)):
        plan = solve_plan(_x0(), u_prev, 0.0, scene, 1, cfg, DP, DT, BOX)
        assert np.allclose(plan.du_sequence, du, rtol=0.0, atol=1e-12)
        assert plan.u_applied == pytest.approx(u_applied, abs=1e-12)
        assert plan.cost <= plan.cost_zero
        assert u_prev + np.cumsum(plan.du_sequence)[-1] <= BOX[1] + 1e-12


# Seed 93 on the straight road is a scene where scoring the returned plan
# through a second contraction, apart from the one the line search used,
# reports a cost one rounding step off the accepted one.
@pytest.mark.parametrize("seed", [*range(12), 93])
def test_plan_reports_the_accepted_cost(seed, two_lane_road, three_lane_arc):
    rng = np.random.default_rng(seed)
    road = two_lane_road if seed % 2 else three_lane_arc
    x0, u_prev, a_x, obstacles, target, cfg, box = _random_scene(rng, road)
    scene = prepare_poses(obstacles, road, FP)
    plan = solve_plan(x0, u_prev, a_x, scene, target, cfg, DP, DT, box)
    model = HorizonModel(x0, u_prev, a_x, DP, cfg, DT)
    prepared = coasted(scene, _times(cfg.n_p))
    du = plan.du_sequence[None]
    y = _outputs(model.poses(du), prepared, target)
    assert plan.cost == float(mpc_cost(y, du, np.array(cfg.q_diag), cfg.r)[0])
    assert plan.cost <= plan.cost_zero
    assert np.array_equal(plan.predicted_outputs, y[0])
    assert np.array_equal(plan.predicted_poses, model.poses(du)[0])


_NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def _planning_problems(draw):
    """(x0, u_prev, a_x, scene, target, cfg, dt, u_box, start) of one solve.

    Straight roads and arcs of 150-1,000 m radius with 2 or 3 lanes, 0-4
    cars coasting near the ego, horizons of 1-60 steps, du boxes with 0 on
    an edge and u boxes with lo = hi among the draws, u_prev inside the u
    box, on an edge or outside it, and starts inside, on and outside both
    boxes, some not finite.
    """
    lanes = {i: LaneSpec(index=i) for i in range(1, draw(st.sampled_from((2, 3))) + 1)}
    if draw(st.booleans()):
        road = RoadGeometry(kind="straight", length=600.0, lanes=lanes)
    else:
        radius = draw(st.floats(150.0, 1000.0))
        road = RoadGeometry(kind="arc", radius=radius, length=min(600.0, 3.0 * radius),
                            lanes=lanes)
    lane = draw(st.integers(1, road.lane_count))
    s = draw(st.floats(20.0, 200.0))
    d = road.lane_offset(lane) + draw(st.floats(-1.5, 1.5))
    v = draw(st.floats(3.0, 30.0))
    phi = float(road.tangent_heading(s)) + draw(st.floats(-0.05, 0.05))
    x0 = np.zeros(NX)
    x0[IVX], x0[IVY], x0[IPHI] = v, draw(st.floats(-0.3, 0.3)), phi
    x0[IX], x0[IY] = (float(c) for c in road.to_global(s, d))
    x0[IR] = v / road.radius if road.kind == "arc" else 0.0
    cars = []
    for _ in range(draw(st.integers(0, 4))):
        so = s + draw(st.floats(-15.0, 50.0))
        car_lane = draw(st.integers(1, road.lane_count))
        xo, yo = road.to_global(so, road.lane_offset(car_lane))
        cars.append(ObstaclePose(x=float(xo), y=float(yo),
                                 heading=float(road.tangent_heading(so)),
                                 v=draw(st.floats(0.0, 30.0))))
    n_p = draw(st.integers(1, 60))
    n_c = draw(st.integers(1, min(10, n_p)))
    du_min = draw(st.sampled_from((0.0, -0.05)) | st.floats(-0.5, 0.0))
    du_max = draw(st.sampled_from((0.0, 0.05)) | st.floats(0.0, 0.5))
    cfg = MpcConfig(n_p=n_p, n_c=n_c, du_min=du_min, du_max=du_max,
                    max_iter=draw(st.sampled_from((1, 5, 100))))
    u_ref = float(x0[IY]) + DP.t_p * v * phi
    lo = u_ref + draw(st.floats(-3.0, 1.0))
    u_box = (lo, lo + draw(st.just(0.0) | st.floats(0.0, 4.0)))
    where = draw(st.sampled_from(("inside", "edge", "below", "above")))
    if where == "inside":
        u_prev = draw(st.floats(*u_box))
    elif where == "edge":
        u_prev = draw(st.sampled_from(u_box))
    else:
        out = draw(st.floats(0.01, 3.0))
        u_prev = u_box[0] - out if where == "below" else u_box[1] + out
    finite = st.floats(-1.0, 1.0) | st.sampled_from((du_min, du_max))
    start = draw(st.none() | st.lists(finite, min_size=n_c, max_size=n_c)
                 | st.lists(finite | st.sampled_from(_NON_FINITE), min_size=n_c,
                            max_size=n_c))
    target = draw(st.integers(1, road.lane_count))
    return (x0, u_prev, draw(st.floats(-3.0, 2.0)), prepare_poses(cars, road, FP),
            target, cfg, draw(st.floats(0.01, 0.2)), u_box, start)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(problem=_planning_problems())
def test_solve_plan_contract(problem):
    # Every solve raises DomainError or returns a plan that scores no worse
    # than the zero increments and keeps the du box, the u box from inside
    # it, and from outside it moves the command toward the box as far as
    # the du box allows, so no farther from it than u_prev; its outputs and
    # poses are finite, and no floating-point warning is raised.
    x0, u_prev, a_x, scene, target, cfg, dt, (lo, hi), start = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            plan = solve_plan(x0, u_prev, a_x, scene, target, cfg, DP, dt,
                              (lo, hi), start=start)
        except DomainError:
            return
    assert plan.cost <= plan.cost_zero
    du = plan.du_sequence
    assert np.all(du >= cfg.du_min) and np.all(du <= cfg.du_max)
    if lo <= u_prev <= hi:
        u = u_prev + np.cumsum(du)
        assert np.all(u >= lo - 1e-9) and np.all(u <= hi + 1e-9)
    elif u_prev > hi:
        assert plan.u_applied <= max(hi, u_prev + cfg.du_min) + 1e-9
    else:
        assert plan.u_applied >= min(lo, u_prev + cfg.du_max) - 1e-9
    assert np.isfinite(plan.predicted_outputs).all()
    assert np.isfinite(plan.predicted_poses).all()


def test_plan_never_beats_zero_baseline(two_lane_road, rng):
    cfg = small_cfg()
    for _ in range(5):
        x0 = _x0(v=rng.uniform(10.0, 25.0), y=rng.uniform(-1.0, 5.0))
        obs = [ObstaclePose(x=rng.uniform(10.0, 40.0), y=0.0, heading=0.0,
                            v=rng.uniform(5.0, 15.0))]
        plan = solve_plan(x0, 0.0, 0.0, prepare_poses(obs, two_lane_road, FP), 1,
                          cfg, DP, DT, BOX)
        assert plan.cost <= plan.cost_zero
        assert np.all(plan.du_sequence >= cfg.du_min - 1e-12)
        assert np.all(plan.du_sequence <= cfg.du_max + 1e-12)
        u = np.cumsum(plan.du_sequence)
        assert np.all(u >= BOX[0] - 1e-9) and np.all(u <= BOX[1] + 1e-9)
        assert plan.u_applied == pytest.approx(plan.du_sequence[0])


def test_plan_moves_toward_target_lane(two_lane_road):
    # Starting on lane 2 with the preview at the old centerline, switching
    # the target to lane 1 must pull the command upward and strictly
    # improve on doing nothing.
    cfg = small_cfg()
    plan = solve_plan(_x0(), 0.0, 0.0, prepare_poses([], two_lane_road, FP), 1,
                      cfg, DP, DT, BOX)
    assert plan.cost < plan.cost_zero
    assert plan.du_sequence[0] > 0.0
    assert not plan.degraded
    assert plan.predicted_poses.shape == (cfg.n_p, 3)
    assert plan.predicted_outputs.shape == (cfg.n_p, 3)


def test_plan_at_rest_point_stays_put(two_lane_road):
    # With the road field off, the target centerline with matching preview
    # is an exact rest point: every output is zero, the gradient vanishes,
    # and the optimizer must keep the zero sequence rather than wander.
    cfg = small_cfg()
    quiet = FieldParams(edge_weight=0.0, interior_weight=0.0)
    plan = solve_plan(_x0(), 0.0, 0.0, prepare_poses([], two_lane_road, quiet), 2,
                      cfg, DP, DT, BOX)
    assert plan.cost_zero == pytest.approx(0.0, abs=1e-18)
    assert plan.cost == pytest.approx(plan.cost_zero, abs=1e-18)
    assert not np.any(plan.du_sequence)
    assert not plan.degraded


def test_plan_keeps_lane_despite_road_field(two_lane_road):
    # The live road field pulls slightly toward the road center; the lane
    # tracking term must keep that drift to centimeters over the horizon.
    cfg = small_cfg()
    plan = solve_plan(_x0(), 0.0, 0.0, prepare_poses([], two_lane_road, FP), 2,
                      cfg, DP, DT, BOX)
    assert plan.cost <= plan.cost_zero
    assert np.max(np.abs(plan.predicted_outputs[:, 1])) < 0.2


def test_applied_command_is_first_increment(two_lane_road):
    # Receding horizon: only the first increment of the plan is applied.
    cfg = small_cfg()
    obs = [ObstaclePose(x=25.0, y=0.0, heading=0.0, v=10.0)]
    plan = solve_plan(_x0(), 0.4, 0.0, prepare_poses(obs, two_lane_road, FP), 1,
                      cfg, DP, DT, BOX)
    assert np.any(plan.du_sequence != 0.0)
    assert plan.u_applied == 0.4 + plan.du_sequence[0]
