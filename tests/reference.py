"""Reference paths for the tests.

The potential field: the program lays every scene out with
`field.prepare_field` from arrays and queries it with `field.total_field`.
The tests compare that path against the field of one obstacle pose and of
the road barrier on its own, built here on the program's one bump formula
(`field._bumps`) and its one lane-line formula (`field._barrier`).

The decision costs: the program reads a cell's breakdown straight from the
(off, on) parts of `costs._pair_parts` with `costs.breakdown_at`. The
tests compare it against the parts spread into full matrices and indexed
at the cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from lanegame.costs import CostBreakdown
from lanegame.field import (FieldParams, PreparedField, _barrier, _bumps, _leading,
                            _weighted_lines, prepare_field)
from lanegame.road import RoadGeometry


@dataclass(frozen=True)
class ObstaclePose:
    """Obstacle car pose and speed in global coordinates."""

    x: float
    y: float
    heading: float = 0.0
    v: float = 0.0


def gamma_crit(p: FieldParams) -> float:
    """Inner-core threshold: the field value one shape unit from the CoG."""
    return p.a_oc * math.exp(-1.0)


def obstacle_field(qx, qy, obs: ObstaclePose, p: FieldParams) -> np.ndarray:
    """Field of one obstacle car at query position(s) (qx, qy)."""
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    return _bumps(qx - obs.x, qy - obs.y, math.cos(obs.heading),
                  math.sin(obs.heading), p.c * obs.v, p)


def road_field(qx, qy, road: RoadGeometry, p: FieldParams) -> np.ndarray:
    """Summed lane-line barrier at query position(s) (qx, qy)."""
    s, d = road.to_frenet(np.asarray(qx, dtype=float), np.asarray(qy, dtype=float))
    offsets, gains = _weighted_lines(road, p)
    lines = np.ndim(d) + 1
    return _barrier(s, d, road, _leading(offsets, lines), _leading(gains, lines), p)


def prepare_poses(poses, road: RoadGeometry, params: FieldParams) -> PreparedField:
    """`prepare_field` of a list of poses: one array per pose attribute."""
    return prepare_field(*(np.array([getattr(o, k) for o in poses], dtype=float)
                           for k in ("x", "y", "heading", "v")), road, params)


def spread(part, cells, shape):
    """One (off, on) part of `costs._pair_parts` as a (rows, columns)
    matrix: `off` broadcast, and `on` at the merge cells (a read-only view
    when `on` is None)."""
    off, on = part
    if on is None:
        return np.broadcast_to(off, shape)
    out = np.empty(shape)
    out[...] = off
    out[cells] = on
    return out


def breakdown_from_matrices(cells, parts, shape, r, c) -> CostBreakdown:
    """A player's breakdown at cell (r, c), read from its parts spread."""
    return CostBreakdown(*(float(spread(p, cells, shape)[r, c]) for p in parts))
