"""Road geometry: straight or constant-curvature segments with indexed lanes.

Lanes are numbered 1..lane_count from left to right. Station s runs along
the road centerline, lateral offset d is positive toward the left edge.
Lane 2 sits on the road centerline so a two-lane road puts the ego lane at
d = 0 with one lane to its left, matching the reference scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# Lane whose centerline coincides with the road reference line.
REF_LANE = 2


@dataclass
class LaneSpec:
    """Per-lane speed bounds and optional termination station."""

    index: int
    v_min: float = 0.0
    v_max: float = 25.0
    end_station: float | None = None  # None means the lane runs the full length

    def __post_init__(self):
        if not 0.0 <= self.v_min <= self.v_max:   # NaN fails too
            raise ValueError(f"speed band [{self.v_min:g}, {self.v_max:g}] must "
                             f"satisfy 0 <= v_min <= v_max")


@dataclass
class RoadGeometry:
    """Straight segment or constant-curvature arc with 2 or 3 lanes."""

    kind: str = "straight"            # "straight" or "arc"
    radius: float = 0.0               # arc radius in m, ignored for straight
    length: float = 500.0
    lane_width: float = 4.0
    lanes: dict[int, LaneSpec] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("straight", "arc"):
            raise ValueError(f"unknown road kind {self.kind!r}")
        if self.kind == "arc" and self.radius <= 0.0:
            raise ValueError("arc road needs a positive radius")
        if self.lane_width <= 0.0:
            raise ValueError("lane_width must be positive")
        if not self.lanes:
            self.lanes = {i: LaneSpec(index=i) for i in (1, 2)}
        n = len(self.lanes)
        if n not in (2, 3):
            raise ValueError("road must have 2 or 3 lanes")
        if sorted(self.lanes) != list(range(1, n + 1)):
            raise ValueError("lanes must be numbered 1..lane_count")
        # to_frenet maps angles in (-pi, pi] and needs r = radius - d > 0.
        if self.kind == "arc" and self.length >= math.pi * self.radius:
            raise ValueError(f"arc length {self.length:g} must stay below "
                             f"pi * radius = {math.pi * self.radius:g}")
        if self.kind == "arc" and self.radius <= self.lateral_extent()[0]:
            raise ValueError(f"arc radius {self.radius:g} must exceed the left "
                             f"road edge offset {self.lateral_extent()[0]:g}")

    @property
    def lane_count(self) -> int:
        return len(self.lanes)

    def has_lane(self, lane: int) -> bool:
        return lane in self.lanes

    def lane_offset(self, lane: int) -> float:
        """Lateral offset of a lane centerline from the road reference line."""
        if lane not in self.lanes:
            raise ValueError(f"no lane {lane}")
        return (REF_LANE - lane) * self.lane_width

    def lateral_extent(self) -> tuple[float, float]:
        """Left/right road edge offsets (d_max, d_min)."""
        offs = [self.lane_offset(i) for i in self.lanes]
        half = 0.5 * self.lane_width
        return max(offs) + half, min(offs) - half

    def to_global(self, s, d):
        """Map (station, lateral offset) to global (X, Y). Broadcasts."""
        if self.kind == "straight":
            return s, d
        # Arc curving left; center of curvature at (0, radius).
        ang = np.asarray(s, dtype=float) / self.radius
        rr = self.radius - np.asarray(d, dtype=float)
        return rr * np.sin(ang), self.radius - rr * np.cos(ang)

    def to_frenet(self, x, y):
        """Map global (X, Y) to (station, lateral offset). Broadcasts."""
        if self.kind == "straight":
            return x, y
        dx = np.asarray(x, dtype=float)
        dy = np.asarray(y, dtype=float) - self.radius
        ang = np.arctan2(dx, -dy)
        rr = np.hypot(dx, dy)
        return self.radius * ang, self.radius - rr

    def tangent_heading(self, s):
        """Heading of the road tangent at station s (rad, global frame)."""
        if self.kind == "straight":
            return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0
        return np.asarray(s, dtype=float) / self.radius if np.ndim(s) else s / self.radius

    def remaining(self, lane: int, s: float) -> float:
        """Distance from station s to the end of a lane (inf if it never ends)."""
        spec = self.lanes[lane]
        if spec.end_station is None:
            return math.inf
        return spec.end_station - s

    def nearest_lane(self, d: float) -> int:
        return min(self.lanes, key=lambda i: abs(self.lane_offset(i) - d))
