"""Collision-risk potential field over road coordinates.

Two ingredients: a velocity-skewed exponential bump around each obstacle
car, and an exponential barrier along the road edge lines. Both are summed
into a single scalar surface that the planner reads as its first output
channel; one `FieldParams` holds the constants of both. `prepare_field`
lays a scene out once (one array entry per obstacle along a leading axis,
zero-weight lane lines dropped), `coasted` sweeps its obstacles along a horizon, and
`total_field` queries it; all query arguments broadcast, so a whole
prediction horizon (or a batch of candidate horizons) evaluates in one
call. A prepared field lines its arrays up with a query once per query
rank and keeps that layout, so repeated queries of one rank, such as the
batches of a planner solve, do only the arithmetic that depends on the
query points. `_bumps` is the one obstacle-field formula and `_barrier`
the one lane-line formula.

Obstacles and lines are summed with `.sum(axis=0)`, which numpy takes
row after row, bit for bit a per-obstacle loop. Only a one-point query
with 8 or more terms reduces a 1-D array, which numpy sums pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import DomainError
from .road import RoadGeometry


# Smallest rho_x, rho_y, m, far below any car: at it xh**2/(2*rho**2) is finite
# for offsets to 1e150 m; below it a road-scale offset can overflow it to inf.
RHO_MIN = 1e-3


@dataclass(frozen=True)
class FieldParams:
    """The obstacle bump and the lane-line barrier: a scenario's `field` block."""

    a_oc: float = 50.0   # peak value at the obstacle CoG
    rho_x: float = 8.0   # longitudinal convergence length, m
    rho_y: float = 1.2   # lateral convergence length, m
    b: float = 1.0       # shape exponent
    c: float = 0.05      # velocity-skew gain, s/m
    a_r: float = 10.0    # peak value on a lane line
    d_safe: float = 0.2  # safety threshold distance, m
    w: float = 1.8       # vehicle width, m
    # Weight per lane-line kind. Interior (dashed) lines default to zero:
    # crossing them is the whole point of a lane change.
    edge_weight: float = 1.0
    interior_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.a_oc <= 0 or self.rho_x <= 0 or self.rho_y <= 0:
            raise ValueError("a_oc, rho_x, rho_y must be positive")
        # _bumps divides by 2*rho**2, which underflows to 0 for a tiny rho
        # and overflows (an OverflowError for a float) for a huge one.
        for name in ("rho_x", "rho_y"):
            rho = getattr(self, name)
            try:
                spread = 2.0 * rho**2
            except OverflowError:
                spread = math.inf
            if not 0.0 < spread < math.inf:
                raise ValueError(f"{name} = {rho:g} gives 2*{name}**2 = {spread:g}, "
                                 f"which must be positive and finite")
            if rho < RHO_MIN:
                raise ValueError(f"{name} = {rho:g} m is below the {RHO_MIN:g} m floor")
        if self.b < 1:
            raise ValueError("shape exponent b must be >= 1")
        if self.c < 0:
            raise ValueError("skew gain c must be >= 0")
        if self.a_r <= 0 or self.w <= 0 or self.d_safe < 0:
            raise ValueError("a_r and w must be positive, d_safe nonnegative")


def _bumps(dx, dy, cos_h, sin_h, cv, p: FieldParams) -> np.ndarray:
    """The obstacle bump at offsets (dx, dy) from the obstacle CoG.

    The one obstacle-field formula: every path to an obstacle's field
    value runs through here. The offset is rotated into the obstacle
    frame by (cos_h, sin_h); ahead of a moving obstacle the exponent picks
    up a positive skew cv = c*v so the bump reaches farther forward than
    backward. The skew ratio is 0 at the CoG, which keeps the exponent
    continuous there and pins the peak at a_oc. All arguments broadcast.

    The temporaries are reused in place. At r2 == 0 the ratio is
    0 / sqrt(5e-324) = 0, the subnormal floor standing in for a mask;
    copysign then gives the skew a sign that is negative at xh = -0.0,
    which the exponent cv*skew - shape adds to -0.0 or subtracts from a
    positive shape, so exp sees the same value as with a +0.0 skew.
    """
    xh = np.asarray(cos_h * dx + sin_h * dy)
    r2 = np.asarray(cos_h * dy - sin_h * dx)
    skew = np.asarray(xh * xh)
    skew /= 2.0 * p.rho_x**2          # ax
    r2 *= r2
    r2 /= 2.0 * p.rho_y**2            # ay
    r2 += skew
    np.copysign(skew, xh, out=skew)
    root = np.sqrt(np.maximum(r2, 5e-324, out=xh), out=xh)
    skew /= root
    # pow(r2, 1) == r2 in IEEE arithmetic, so b == 1 skips the power.
    shape = r2 if p.b == 1.0 else np.power(r2, p.b)
    skew *= cv
    skew -= shape
    np.exp(skew, out=skew)
    skew *= p.a_oc
    return skew[()]


def _weighted_lines(road: RoadGeometry, p: FieldParams):
    """(lateral offsets, weight * a_r) of the lane lines with non-zero weight."""
    d_left, _ = road.lateral_extent()
    n_lines = road.lane_count + 1
    offsets, gains = [], []
    for i in range(n_lines):
        edge = i == 0 or i == n_lines - 1
        weight = p.edge_weight if edge else p.interior_weight
        if weight != 0.0:
            offsets.append(d_left - i * road.lane_width)
            gains.append(weight * p.a_r)
    return np.array(offsets), np.array(gains)


def _leading(a: np.ndarray, ndim: int) -> np.ndarray:
    """View of an (n, *rest) array as (n, 1, ..., 1, *rest) with `ndim` axes.

    Lines a per-obstacle (or per-line) array up with a query of
    `ndim - 1` axes, so the leading axis broadcasts over the entries.
    """
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _barrier(s, d, road: RoadGeometry, offsets: np.ndarray, gains: np.ndarray,
             p: FieldParams) -> np.ndarray:
    """Lane-line barrier at road coordinates (s, d), summed over the lines:
    weight * a_r * exp(-|d - d_e| + d_safe + 0.5*w) for the line at lateral
    offset d_e, on straight and arc roads alike. `offsets` and `gains` are
    the weighted lines laid out by `_leading` with one axis more than d, so
    the leading axis runs over the lines.
    """
    # fmin and fmax skip NaN, so a NaN station (a planner start that is not
    # finite) hides no other station outside the range.
    if (np.fmin.reduce(s, axis=None) < -1e-9
            or np.fmax.reduce(s, axis=None) > road.length + 1e-9):
        raise DomainError("query station outside the road's station range")
    terms = np.abs(d - offsets)
    np.negative(terms, out=terms)
    terms += p.d_safe
    terms += 0.5 * p.w
    np.exp(terms, out=terms)
    terms *= gains
    return terms.sum(axis=0)


@dataclass(frozen=True)
class PreparedField:
    """Obstacles and lane lines of one field, laid out for many queries.

    The obstacle arrays carry a leading obstacle axis: `x` and `y` are
    (n_obs,) for fixed poses or (n_obs, n) for poses `coasted` over n
    prediction steps; `cos`, `sin` (of the heading) and `v` are (n_obs,).
    `offsets` and `gains` hold only the lane lines with non-zero weight.
    Build one with `prepare_field`.

    The first query of each rank (number of query axes) lines the
    obstacle arrays, c*v and the lines up with it (see `_layout`) and
    keeps that layout for later queries of the rank, so a planner solve
    lays its coasted scene out once for all its batches. The layouts are
    no init field, so a new field, such as `coasted` makes, starts with
    none.
    """

    x: np.ndarray
    y: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    v: np.ndarray
    road: RoadGeometry
    offsets: np.ndarray
    gains: np.ndarray
    params: FieldParams
    _layouts: dict = dataclass_field(default_factory=dict, init=False, repr=False,
                                     compare=False)


def prepare_field(x, y, heading, v, road: RoadGeometry,
                  params: FieldParams) -> PreparedField:
    """Lay out obstacles given as (n_obs,) arrays of global position, heading
    and speed, and keep the weighted lines."""
    heading = np.asarray(heading, dtype=float)
    offsets, gains = _weighted_lines(road, params)
    return PreparedField(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
                         cos=np.cos(heading), sin=np.sin(heading),
                         v=np.asarray(v, dtype=float),
                         road=road, offsets=offsets, gains=gains, params=params)


def coasted(field: PreparedField, t: np.ndarray) -> PreparedField:
    """`field` with its fixed poses coasting at constant velocity for times t:
    `x` and `y` become (n_obs, len(t)), x + v*t*cos and y + v*t*sin."""
    vt = field.v[:, None] * t
    return PreparedField(x=field.x[:, None] + vt * field.cos[:, None],
                         y=field.y[:, None] + vt * field.sin[:, None],
                         cos=field.cos, sin=field.sin, v=field.v, road=field.road,
                         offsets=field.offsets, gains=field.gains, params=field.params)


def _layout(field: PreparedField, rank: int) -> tuple:
    """(x, y, cos, sin, c*v, offsets, gains) of `field` lined up with a query
    of `rank` axes, made on the first such query and kept on the field.

    The obstacle arrays get the axes that broadcast their leading axis
    over the query (and over the horizon of coasted poses); the lines get
    one axis more than the query's road coordinates.
    """
    layout = field._layouts.get(rank)
    if layout is None:
        ndim = 1 + max(rank, field.x.ndim - 1)
        lines = rank + 1
        layout = field._layouts[rank] = (
            _leading(field.x, ndim), _leading(field.y, ndim),
            _leading(field.cos, ndim), _leading(field.sin, ndim),
            _leading(field.params.c * field.v, ndim),
            _leading(field.offsets, lines), _leading(field.gains, lines))
    return layout


def total_field(qx, qy, field: PreparedField, frenet=None) -> np.ndarray:
    """Obstacle fields summed over all OCs plus the road barrier.

    All obstacles are evaluated in one broadcast over the leading
    obstacle axis and added up in obstacle order; the barrier is added
    last. Only the arithmetic that depends on the query runs per call;
    the field's layout for the query's rank is made once. `frenet` may
    pass road coordinates (s, d) of the query, in its shape, that the
    caller already holds, so they are not computed twice.
    """
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    x, y, cos, sin, cv, offsets, gains = _layout(field, max(qx.ndim, qy.ndim))
    bumps = _bumps(qx - x, qy - y, cos, sin, cv, field.params)
    s, d = field.road.to_frenet(qx, qy) if frenet is None else frenet
    return bumps.sum(axis=0) + _barrier(s, d, field.road, offsets, gains, field.params)
