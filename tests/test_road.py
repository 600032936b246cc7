import math

import numpy as np
import pytest

from lanegame.road import LaneSpec, RoadGeometry


def test_lane_offsets_two_lane(two_lane_road):
    assert two_lane_road.lane_offset(1) == 4.0
    assert two_lane_road.lane_offset(2) == 0.0
    assert two_lane_road.lateral_extent() == (6.0, -2.0)


def test_lane_offsets_three_lane(three_lane_arc):
    assert three_lane_arc.lane_offset(1) == 4.0
    assert three_lane_arc.lane_offset(2) == 0.0
    assert three_lane_arc.lane_offset(3) == -4.0
    assert three_lane_arc.lateral_extent() == (6.0, -6.0)


def test_straight_frenet_is_identity(two_lane_road):
    s, d = two_lane_road.to_frenet(12.5, -1.25)
    assert (s, d) == (12.5, -1.25)
    x, y = two_lane_road.to_global(12.5, -1.25)
    assert (x, y) == (12.5, -1.25)
    assert two_lane_road.tangent_heading(100.0) == 0.0


def test_arc_round_trip(three_lane_arc, rng):
    s = rng.uniform(0.0, three_lane_arc.length, 64)
    d = rng.uniform(-6.0, 6.0, 64)
    x, y = three_lane_arc.to_global(s, d)
    s2, d2 = three_lane_arc.to_frenet(x, y)
    assert np.max(np.abs(s2 - s)) < 1e-9
    assert np.max(np.abs(d2 - d)) < 1e-9


def test_arc_geometry_anchors(three_lane_arc):
    # Station 0 sits at the origin headed along +X; on a left-curving arc
    # positive d points toward the curvature center.
    x, y = three_lane_arc.to_global(0.0, 2.0)
    assert x == pytest.approx(0.0)
    assert y == pytest.approx(2.0)
    assert three_lane_arc.tangent_heading(0.0) == 0.0
    assert three_lane_arc.tangent_heading(200.0) == pytest.approx(0.1)


def test_remaining_and_nearest(two_lane_road):
    two_lane_road.lanes[2].end_station = 200.0
    assert two_lane_road.remaining(2, 50.0) == 150.0
    assert two_lane_road.remaining(1, 50.0) == math.inf
    assert two_lane_road.nearest_lane(0.3) == 2
    assert two_lane_road.nearest_lane(3.1) == 1
    assert two_lane_road.nearest_lane(-1.9) == 2


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="kind"):
        RoadGeometry(kind="spiral")
    with pytest.raises(ValueError, match="radius"):
        RoadGeometry(kind="arc", radius=0.0)
    with pytest.raises(ValueError, match="2 or 3"):
        RoadGeometry(lanes={1: LaneSpec(index=1)})
    with pytest.raises(ValueError, match="numbered"):
        RoadGeometry(lanes={2: LaneSpec(index=2), 3: LaneSpec(index=3)})
    with pytest.raises(ValueError, match="lane_width"):
        RoadGeometry(lane_width=0.0)
    # An arc must stay where to_frenet inverts to_global: past half a turn
    # the station wraps (on R = 50, s = 200 maps back to -114), and two
    # lanes reach d = 6 to the left, beyond the center of a 3 m arc.
    road = RoadGeometry(kind="arc", radius=50.0, length=150.0)
    s, _ = road.to_frenet(*road.to_global(200.0, 0.0))
    assert float(s) == pytest.approx(200.0 - 2.0 * math.pi * 50.0)
    with pytest.raises(ValueError, match=r"arc length 200 must stay below pi \* radius"):
        RoadGeometry(kind="arc", radius=50.0, length=200.0)
    with pytest.raises(ValueError, match="arc radius 3 must exceed the left road edge"):
        RoadGeometry(kind="arc", radius=3.0, length=5.0)
    RoadGeometry(kind="arc", radius=6.5, length=20.0)


def test_default_road_has_two_lanes():
    road = RoadGeometry()
    assert road.lane_count == 2
    assert road.has_lane(1) and road.has_lane(2) and not road.has_lane(3)
