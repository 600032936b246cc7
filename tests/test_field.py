"""Potential field: obstacle bump shape, road barrier, composition."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lanegame import field as field_module
from lanegame.errors import DomainError
from lanegame.field import RHO_MIN, FieldParams, coasted, total_field

from reference import ObstaclePose, gamma_crit, obstacle_field, prepare_poses, road_field

P = FieldParams(a_oc=50.0, rho_x=8.0, rho_y=1.2, b=1.0, c=0.05)


def test_peak_at_center_regardless_of_speed():
    for v in (0.0, 10.0, 30.0):
        obs = ObstaclePose(x=3.0, y=-1.0, heading=0.2, v=v)
        assert obstacle_field(3.0, -1.0, obs, P) == pytest.approx(50.0, abs=1e-12)


def test_one_shape_unit_out():
    # At x-hat = rho_x * sqrt(2) the exponent is exactly -1 for a still car.
    obs = ObstaclePose(x=0.0, y=0.0, v=0.0)
    val = obstacle_field(8.0 * math.sqrt(2.0), 0.0, obs, P)
    assert val == pytest.approx(50.0 * math.exp(-1.0), rel=1e-12)
    assert gamma_crit(P) == pytest.approx(50.0 / math.e, rel=1e-12)


def test_fore_aft_symmetry_when_still():
    obs = ObstaclePose(x=10.0, y=2.0, v=0.0)
    dx = np.linspace(0.5, 20.0, 40)
    fore = obstacle_field(10.0 + dx, 2.0, obs, P)
    aft = obstacle_field(10.0 - dx, 2.0, obs, P)
    assert np.max(np.abs(fore - aft)) < 1e-12


def test_forward_skew_when_moving():
    obs = ObstaclePose(x=0.0, y=0.0, v=20.0)
    dx = np.linspace(0.5, 25.0, 50)
    fore = obstacle_field(dx, 0.0, obs, P)
    aft = obstacle_field(-dx, 0.0, obs, P)
    assert np.all(fore >= aft)
    assert np.any(fore > aft * 1.5)


def test_rotation_invariance():
    ang = 0.77
    obs0 = ObstaclePose(x=0.0, y=0.0, heading=0.0, v=12.0)
    obs1 = ObstaclePose(x=0.0, y=0.0, heading=ang, v=12.0)
    pts = np.array([[4.0, 1.0], [-3.0, 0.4], [10.0, -2.0], [0.3, 0.0]])
    ch, sh = math.cos(ang), math.sin(ang)
    rot = np.array([[ch, -sh], [sh, ch]])
    rotated = pts @ rot.T
    v0 = obstacle_field(pts[:, 0], pts[:, 1], obs0, P)
    v1 = obstacle_field(rotated[:, 0], rotated[:, 1], obs1, P)
    assert np.max(np.abs(v1 - v0)) < 1e-12


def test_coasted_field_matches_scalar_poses(two_lane_road):
    # The planner sweeps a prepared scene along the horizon with `coasted`;
    # step by step its bump must agree with a scalar pose at that step.
    t = np.arange(1, 6) * 0.1
    h, v = 0.3, 14.0
    xs = 2.0 + v * t * math.cos(h)
    ys = -1.0 + v * t * math.sin(h)
    scene = prepare_poses([ObstaclePose(x=2.0, y=-1.0, heading=h, v=v)],
                          two_lane_road, replace(P, edge_weight=0.0))   # no lines
    qx = np.linspace(0.0, 12.0, 5)
    qy = np.linspace(-2.0, 2.0, 5)
    batched = total_field(qx, qy, coasted(scene, t))
    single = [obstacle_field(qx[i], qy[i],
                             ObstaclePose(x=xs[i], y=ys[i], heading=h, v=v), P)
              for i in range(5)]
    assert np.allclose(batched, single, atol=1e-15)


def test_road_field_decays_from_edges(two_lane_road):
    rp = FieldParams(a_r=10.0, d_safe=0.2, w=1.8)
    # Left edge sits at d = +6, right edge at d = -2, interior midpoint at 2.
    d_from_left = np.linspace(6.0, 2.0, 30)
    vals_left = road_field(np.zeros(30), d_from_left, two_lane_road, rp)
    assert np.all(np.diff(vals_left) < 0.0)
    d_from_right = np.linspace(-2.0, 2.0, 30)
    vals_right = road_field(np.zeros(30), d_from_right, two_lane_road, rp)
    assert np.all(np.diff(vals_right) < 0.0)


def test_road_field_line_value(two_lane_road):
    rp = FieldParams(a_r=10.0, d_safe=0.2, w=1.8)
    # On the left edge line the own-line term is a_r e^(d_safe + w/2);
    # the far edge adds its tail from 8 m away.
    val = road_field(0.0, 6.0, two_lane_road, rp)
    own = 10.0 * math.exp(0.2 + 0.9)
    far = 10.0 * math.exp(-8.0 + 0.2 + 0.9)
    assert val == pytest.approx(own + far, rel=1e-12)


def test_interior_lines_can_be_weighted(two_lane_road):
    rp = FieldParams(a_r=10.0, d_safe=0.2, w=1.8, interior_weight=1.0)
    base = FieldParams(a_r=10.0, d_safe=0.2, w=1.8)
    # Lane divider of the two-lane road sits at d = +2.
    with_div = road_field(0.0, 2.0, two_lane_road, rp)
    without = road_field(0.0, 2.0, two_lane_road, base)
    assert with_div == pytest.approx(without + 10.0 * math.exp(0.2 + 0.9), rel=1e-12)


def test_station_domain_enforced(three_lane_arc):
    x, y = three_lane_arc.to_global(-5.0, 0.0)
    with pytest.raises(DomainError):
        road_field(x, y, three_lane_arc, P)
    x, y = three_lane_arc.to_global(three_lane_arc.length + 5.0, 0.0)
    with pytest.raises(DomainError):
        road_field(x, y, three_lane_arc, P)


def _power_bumps(dx, dy, cos_h, sin_h, cv, p):
    """The bump with the shape term always through np.power and the skew
    sign as a factor."""
    xh = cos_h * dx + sin_h * dy
    yh = -sin_h * dx + cos_h * dy
    ax = xh * xh / (2.0 * p.rho_x**2)
    ay = yh * yh / (2.0 * p.rho_y**2)
    r2 = ax + ay
    denom = np.sqrt(np.where(r2 > 0.0, r2, 1.0))
    skew = np.where(xh < 0.0, -1.0, 1.0) * np.where(r2 > 0.0, ax / denom, 0.0)
    return p.a_oc * np.exp(-np.power(r2, p.b) + cv * skew)


@pytest.mark.parametrize("b", [1.0, 1.5])
def test_bumps_skip_the_power_only_at_b_1(b, rng, monkeypatch):
    # Bit for bit the np.power form on random offsets and, at heading 0,
    # on offsets with r2 == 0 and with xh == +0 and -0; b = 1 calls no
    # power, any other b one.
    p = FieldParams(b=b)
    edge_dx = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 1e-170])
    edge_dy = np.array([0.0, -0.0, 1.0, 1.0, -1.0, 0.0])
    xh = 1.0 * edge_dx + 0.0 * edge_dy
    assert np.signbit(xh).tolist() == [False, True, False, False, True, False]
    dx = np.concatenate([rng.normal(0.0, 20.0, 500), edge_dx])
    dy = np.concatenate([rng.normal(0.0, 3.0, 500), edge_dy])
    real_power = np.power
    for heading in (0.0, 0.3, -2.9):
        ch, sh = math.cos(heading), math.sin(heading)
        for cv in (0.0, 0.75):
            want = _power_bumps(dx, dy, ch, sh, cv, p)
            powers = []
            monkeypatch.setattr(np, "power", lambda *a: powers.append(a) or real_power(*a))
            got = field_module._bumps(dx, dy, ch, sh, cv, p)
            monkeypatch.undo()
            assert got.tobytes() == want.tobytes()
            assert len(powers) == (0 if b == 1.0 else 1)


def _masked_bumps(dx, dy, cos_h, sin_h, cv, p):
    """The bump written with masks: where(r2 > 0) around the skew ratio,
    where(xh < 0) for its sign, and the exponent -shape + cv*skew."""
    xh = cos_h * dx + sin_h * dy
    yh = -sin_h * dx + cos_h * dy
    ax = xh * xh / (2.0 * p.rho_x**2)
    ay = yh * yh / (2.0 * p.rho_y**2)
    r2 = ax + ay
    off_center = r2 > 0.0
    ratio = np.where(off_center, ax / np.sqrt(np.where(off_center, r2, 1.0)), 0.0)
    skew = np.where(xh < 0.0, -ratio, ratio)
    shape = r2 if p.b == 1.0 else np.power(r2, p.b)
    return p.a_oc * np.exp(-shape + cv * skew)


def _assert_bumps_match_masked(dx, dy, heading, v, p):
    """_bumps on arrays, and obstacle_field one 0-d query at a time, both
    bit for bit the masked formula."""
    ch, sh = math.cos(heading), math.sin(heading)
    want = _masked_bumps(dx, dy, ch, sh, p.c * v, p)
    assert field_module._bumps(dx, dy, ch, sh, p.c * v, p).tobytes() == want.tobytes()
    # The obstacle sits at the origin, so the query is the offset itself.
    obs = ObstaclePose(x=0.0, y=0.0, heading=heading, v=v)
    for i in range(dx.size):
        got = obstacle_field(float(dx[i]), float(dy[i]), obs, p)
        assert np.ndim(got) == 0
        assert np.float64(got).tobytes() == want[i].tobytes()
    return want


@pytest.mark.parametrize("b", [1.0, 1.5])
@pytest.mark.parametrize("v", [0.0, 15.0])
@pytest.mark.parametrize("heading", [0.0, 0.3, -2.9])
def test_bumps_match_the_masked_formula_on_edge_cases(b, v, heading):
    # r2 == 0 at the CoG and where the squares underflow, xh = +0 and -0
    # (at heading 0), and offsets so far that exp underflows to 0.
    p = FieldParams(b=b)
    dx = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 1e-170, -1e-170, 5e3, -5e3, 0.0, 40.0])
    dy = np.array([0.0, -0.0, 1.0, 1.0, -1.0, 1e-170, 0.0, 0.0, 1.0, 3e3, -2.0])
    want = _assert_bumps_match_masked(dx, dy, heading, v, p)
    assert want[0] == p.a_oc              # r2 == 0: the peak
    assert want[7] == 0.0 and want[9] == 0.0     # exp underflows
    if heading == 0.0:
        xh = 1.0 * dx + 0.0 * dy
        assert np.signbit(xh[[1, 4]]).all() and not np.signbit(xh[[0, 2, 3]]).any()


OFFSET = st.floats(min_value=-1e4, max_value=1e4)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(points=st.lists(st.tuples(OFFSET, OFFSET), min_size=1, max_size=12),
       heading=st.sampled_from([0.0, -0.0, math.pi]) | st.floats(-math.pi, math.pi),
       v=st.just(0.0) | st.floats(0.0, 60.0),
       b=st.sampled_from([1.0, 1.5]),
       rho=st.tuples(st.floats(0.5, 20.0), st.floats(0.3, 5.0)))
def test_bumps_match_the_masked_formula(points, heading, v, b, rho):
    # Offsets from subnormal to far beyond exp's underflow, zeros of both signs.
    p = FieldParams(rho_x=rho[0], rho_y=rho[1], b=b)
    dx, dy = np.array(points, dtype=float).T
    _assert_bumps_match_masked(dx, dy, heading, v, p)


def test_total_is_sum_of_parts(two_lane_road):
    obs = [ObstaclePose(x=30.0, y=0.0, v=10.0), ObstaclePose(x=60.0, y=4.0, v=5.0)]
    qx = np.linspace(10.0, 80.0, 15)
    qy = np.linspace(-1.0, 5.0, 15)
    total = total_field(qx, qy, prepare_poses(obs, two_lane_road, P))
    parts = (obstacle_field(qx, qy, obs[0], P) + obstacle_field(qx, qy, obs[1], P)
             + road_field(qx, qy, two_lane_road, P))
    assert np.allclose(total, parts, rtol=1e-14)


def test_param_validation():
    with pytest.raises(ValueError):
        FieldParams(a_oc=0.0)
    with pytest.raises(ValueError):
        FieldParams(b=0.5)
    with pytest.raises(ValueError):
        FieldParams(c=-0.1)
    with pytest.raises(ValueError):
        FieldParams(a_r=0.0)
    with pytest.raises(ValueError):
        FieldParams(d_safe=-1.0)
    # The bump divides by 2*rho**2, which must neither underflow to 0 nor
    # overflow; and below a floor on rho a road-scale offset overflows the
    # exponent even where 2*rho**2 is a positive subnormal (1e-160, 1e-155).
    for name in ("rho_x", "rho_y"):
        for rho, spread in ((1e-200, "0"), (1e200, "inf"), (1e154, "inf"),
                            (float("nan"), "nan")):
            with pytest.raises(ValueError, match=f"{name} = .* gives 2\\*{name}\\*\\*2 = "
                                                 f"{spread}, which must be positive"):
                FieldParams(**{name: rho})
        for rho in (1e-160, 1e-155, np.nextafter(RHO_MIN, 0.0)):
            with pytest.raises(ValueError, match=f"{name} = .* m is below the 0.001 m floor"):
                FieldParams(**{name: rho})
        FieldParams(**{name: RHO_MIN})
        FieldParams(**{name: 1e150})


def _reference_field(qx, qy, poses, road, p):
    """The field one obstacle and one lane line at a time, written out."""
    total = np.zeros(np.broadcast(qx, qy).shape)
    for o in poses:
        ch, sh = math.cos(o.heading), math.sin(o.heading)
        dx, dy = qx - o.x, qy - o.y
        xh = ch * dx + sh * dy
        yh = -sh * dx + ch * dy
        ax = xh * xh / (2.0 * p.rho_x**2)
        ay = yh * yh / (2.0 * p.rho_y**2)
        r2 = ax + ay
        ratio = np.where(r2 > 0.0, ax / np.sqrt(np.where(r2 > 0.0, r2, 1.0)), 0.0)
        skew = np.where(xh < 0.0, -1.0, 1.0) * ratio
        total = total + p.a_oc * np.exp(-np.power(r2, p.b) + p.c * o.v * skew)
    _, d = road.to_frenet(qx, qy)
    barrier = np.zeros(np.shape(d))
    d_left, _ = road.lateral_extent()
    for i in range(road.lane_count + 1):
        weight = p.edge_weight if i in (0, road.lane_count) else p.interior_weight
        if weight != 0.0:
            dist = np.abs(d - (d_left - i * road.lane_width))
            barrier = barrier + weight * p.a_r * np.exp(-dist + p.d_safe + 0.5 * p.w)
    return total + barrier


@pytest.mark.parametrize("seed", range(16))
def test_stacked_field_matches_obstacle_loop(seed, two_lane_road, three_lane_arc):
    # Seeds cycle through 0-3 obstacles on a straight and on an arc road.
    rng = np.random.default_rng(seed)
    road = two_lane_road if (seed // 4) % 2 else three_lane_arc
    p = FieldParams(interior_weight=0.5 if seed >= 8 else 0.0)
    t = np.arange(1, 21) * 0.05
    fixed, swept = [], []   # swept: the positions over t, written out
    for _ in range(seed % 4):
        so = rng.uniform(110.0, 140.0)
        xo, yo = (float(c) for c in road.to_global(so, rng.uniform(-4.0, 4.0)))
        turn = rng.choice([0.0, rng.uniform(-0.3, 0.3)])
        heading = float(road.tangent_heading(so)) + turn
        v = float(rng.choice([0.0, rng.uniform(5.0, 25.0)]))
        fixed.append(ObstaclePose(x=xo, y=yo, heading=heading, v=v))
        swept.append(SimpleNamespace(x=xo + v * t * np.cos(heading),
                                     y=yo + v * t * np.sin(heading), heading=heading, v=v))
    # Query batches shaped like the planner's (rows, horizon), all near the cars.
    rows = int(rng.integers(1, 26))
    qx, qy = road.to_global(rng.uniform(100.0, 160.0, (rows, t.size)),
                            rng.uniform(-5.0, 5.0, (rows, t.size)))
    for poses, field in ((fixed, prepare_poses(fixed, road, p)),
                         (swept, coasted(prepare_poses(fixed, road, p), t))):
        want = _reference_field(qx, qy, poses, road, p)
        assert np.array_equal(total_field(qx, qy, field), want)
        # Road coordinates handed in give the same values.
        assert np.array_equal(total_field(qx, qy, field, frenet=road.to_frenet(qx, qy)),
                              want)
        # A query off the road's station range is still refused.
        off_x, off_y = road.to_global(np.linspace(-5.0, 120.0, t.size), np.zeros(t.size))
        with pytest.raises(DomainError):
            total_field(off_x, off_y, field)
    # One point at a time, as simulate queries the field at the ego.
    field = prepare_poses(fixed, road, p)
    for i in range(rows):
        assert np.array_equal(total_field(qx[i, 0], qy[i, 0], field),
                              _reference_field(qx[i, 0], qy[i, 0], fixed, road, p))
