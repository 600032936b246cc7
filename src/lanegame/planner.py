"""Receding-horizon preview-point planner.

Each planning step linearizes the driver-vehicle model once at the
current state, discretizes it, and predicts the horizon with those frozen
matrices plus the affine remainder of the linearization (which is what
carries the commanded longitudinal acceleration into the prediction).
The optimizer works on the control increments du over the control
horizon, with the preview command held after that; it is a projected
gradient descent with backtracking that only ever accepts improvements,
so the returned sequence never scores worse than leaving the command
alone. Each iteration scores its halving trial steps in at most two
batched cost evaluations, the first FIRST_TRIALS and then the rest only
if none of those improves, and takes the first that improves, which is
the step a one-trial-at-a-time halving loop would accept.

The horizon cost is prepared once per solve and has one evaluation
path, which the zero-increment cost, every trial and the returned plan
share: the coasted obstacles are stacked into one PreparedField, one
contraction predicts the 3 channels the cost reads (X, Y, phi) for one
du sequence or a batch, and the positions are mapped to road coordinates
once per call. Every value is the one the per-obstacle, full-state
evaluation gives, bit for bit, and the plan's cost is the accepted one.

Outputs per predicted step: y1 collision field at the predicted position
(obstacles coasting at constant velocity), y2 lateral offset from the
target lane centerline, y3 yaw error against the road tangent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .field import (ObstacleFieldParams, ObstaclePose, PreparedField,
                    RoadFieldParams, prepare_field, total_field)
from .road import RoadGeometry
from .vehicle import (ControlInput, DriverParams, IPHI, IX, IY, NX, V_FLOOR,
                      VehicleParams, derivatives, discretize, linearize)


# Central finite-difference step of the cost gradient, in preview-command m.
FD_STEP = 1e-4
# Line-search step factors 0.5**k: every trial of one iteration, scored as
# one batch. Halving by 0.5 is exact, so these are the steps a loop that
# halves alpha would try.
HALVINGS = 0.5 ** np.arange(25)
# Trials 0..FIRST_TRIALS-1 are scored first, the rest only if none of
# those improves. In the six bundled Nash runs 21 of 46,032 accepted
# steps had an index above 12, none of them in the slowest run
# (scenario_b conservative, 15,889 steps), so the second batch is rare.
FIRST_TRIALS = 13
# State channels the cost reads: position for the field and the lateral
# offset, yaw for the heading error.
CHANNELS = [IX, IY, IPHI]


def _default_q() -> np.ndarray:
    return np.diag([1.0, 10.0, 50.0])


@dataclass
class MpcConfig:
    """Planner settings; a closed-loop run sets dt and the u box each step."""

    n_p: int = 20
    n_c: int = 5
    dt: float = 0.05
    q: np.ndarray = field(default_factory=_default_q)
    r: float = 1.0
    u_min: float = -10.0
    u_max: float = 10.0
    du_min: float = -0.3
    du_max: float = 0.3
    max_iter: int = 100
    tol: float = 1e-6

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float)
        if self.n_c < 1 or self.n_p < self.n_c:
            raise ValueError("need n_p >= n_c >= 1")
        if self.dt <= 0 or self.r <= 0:
            raise ValueError("dt and r must be positive")
        if self.q.shape != (3, 3) or not np.allclose(self.q, self.q.T, atol=1e-12):
            raise ValueError("q must be a symmetric 3x3 matrix")
        if np.min(np.linalg.eigvalsh(self.q)) < -1e-12:
            raise ValueError("q must be positive semidefinite")
        if self.u_min > self.u_max:
            raise ValueError("bounds out of order")
        # The solver's zero-increment baseline must be a feasible plan.
        if not self.du_min <= 0.0 <= self.du_max:
            raise ValueError("the increment box [du_min, du_max] must contain 0")
        if self.max_iter < 1 or self.tol < 0:
            raise ValueError("need max_iter >= 1 and tol >= 0")


@dataclass
class PlanResult:
    du_sequence: np.ndarray       # (n_c,)
    u_applied: float
    predicted_states: np.ndarray  # (n_p, 8)
    predicted_outputs: np.ndarray  # (n_p, 3)
    cost: float
    cost_zero: float
    iterations: int
    degraded: bool


class HorizonModel:
    """Frozen linear prediction over one planning step.

    Holds the discretized (A, B, affine) triple and the stacked powers
    needed to map a du sequence to states in one tensor contraction.
    """

    def __init__(self, x0: np.ndarray, u_prev: float, a_x: float,
                 vp: VehicleParams, dp: DriverParams, cfg: MpcConfig):
        if x0[0] <= V_FLOOR:
            raise DomainError("linearization needs forward speed above the floor")
        self.x0 = np.asarray(x0, dtype=float)
        self.u_prev = float(u_prev)
        self.cfg = cfg
        u0 = ControlInput(y_p=u_prev, a_x=a_x)
        a_c, b_c = linearize(self.x0, u0, vp, dp)
        # Affine remainder: the model is not linear through the origin, and
        # a_x enters the prediction only through this term.
        w_c = derivatives(self.x0, u0, vp, dp) - a_c @ self.x0 - b_c[:, 0] * u_prev
        b_aug = np.column_stack([b_c, w_c])
        self.a_d, b_d = discretize(a_c, b_aug, cfg.dt)
        self.b_u = b_d[:, 0]
        self.w_d = b_d[:, 1]

        n_p, n_c = cfg.n_p, cfg.n_c
        # base[i] = state after i+1 steps with u held at u_prev.
        base = np.empty((n_p, NX))
        x = self.x0
        for i in range(n_p):
            x = self.a_d @ x + self.b_u * self.u_prev + self.w_d
            base[i] = x
        self.base = base
        # cum[k] = sum_{m=0}^{k-1} A^m B, so d(state i)/d(du_j) = cum[i-j].
        cum = np.zeros((n_p + 1, NX))
        acc = np.zeros(NX)
        power = self.b_u.copy()
        for k in range(1, n_p + 1):
            acc = acc + power
            cum[k] = acc
            power = self.a_d @ power
        # sens[i, :, j] maps du_j to state i (du frozen after n_c).
        sens = np.zeros((n_p, NX, n_c))
        for i in range(n_p):
            for j in range(min(i + 1, n_c)):
                sens[i, :, j] = cum[i + 1 - j]
        self.sens = sens
        self.base_xyphi = base[:, CHANNELS]
        self.sens_xyphi = sens[:, CHANNELS, :]

    def states(self, du: np.ndarray) -> np.ndarray:
        """Predicted states for one du sequence or a batch over leading axes."""
        return self.base + np.einsum("...j,ixj->...ix", du, self.sens)

    def poses(self, du: np.ndarray) -> np.ndarray:
        """Predicted (X, Y, phi), equal to states(du)[..., CHANNELS] bit for bit."""
        return self.base_xyphi + np.einsum("...j,ixj->...ix", du, self.sens_xyphi)


def _coasted(obstacles: list[ObstaclePose], cfg: MpcConfig) -> list[ObstaclePose]:
    """Obstacle poses swept along the horizon, one array-valued pose each.

    Positions become (n_p,) arrays indexed by prediction step, so a field
    query over the whole horizon is a single broadcast instead of a
    per-step loop. Heading and speed stay scalar (constant coasting).
    """
    t = (np.arange(cfg.n_p) + 1) * cfg.dt
    return [ObstaclePose(x=o.x + o.v * t * np.cos(o.heading),
                         y=o.y + o.v * t * np.sin(o.heading),
                         heading=o.heading, v=o.v)
            for o in obstacles]


def _outputs(poses: np.ndarray, prepared: PreparedField, target_lane) -> np.ndarray:
    """(..., n_p, 3) outputs for (..., n_p, 3) predicted (X, Y, phi).

    `prepared` must come from _coasted poses so the obstacle
    positions line up with the prediction steps on the last axis. The
    road coordinates of the poses are computed once and serve both the
    road barrier and y2/y3.
    """
    xs = poses[..., 0]
    ys = poses[..., 1]
    road = prepared.road
    s, d = road.to_frenet(xs, ys)
    y1 = total_field(xs, ys, prepared, frenet=(s, d))
    y2 = d - road.lane_offset(target_lane)
    y3 = poses[..., 2] - road.tangent_heading(s)
    return np.stack([y1, y2, y3], axis=-1)


def mpc_cost(outputs: np.ndarray, du: np.ndarray, q: np.ndarray, r: float):
    """Sum of output quadratic forms plus weighted increment energy."""
    outputs = np.asarray(outputs, dtype=float)
    du = np.asarray(du, dtype=float)
    quad = np.einsum("...ni,ij,...nj->...", outputs, q, outputs)
    return quad + r * np.sum(du * du, axis=-1)


def _project(du: np.ndarray, u_prev: float, cfg: MpcConfig) -> np.ndarray:
    """Clip du sequences into the du boxes and the cumulative u box.

    Works on one sequence or a batch over leading axes. Sequential along
    the last axis: each increment is clipped to the intersection of its
    own box with what keeps the running command inside [u_min, u_max].
    The intersection is never empty while the running command stays in
    the box, which it does by induction.
    """
    out = np.empty_like(du)
    u = np.full(du.shape[:-1], float(u_prev))
    for j in range(du.shape[-1]):
        lo = np.maximum(cfg.du_min, cfg.u_min - u)
        hi = np.minimum(cfg.du_max, cfg.u_max - u)
        out[..., j] = np.minimum(np.maximum(du[..., j], lo), hi)
        u = u + out[..., j]
    return out


def solve_plan(x0: np.ndarray, u_prev: float, a_x: float,
               obstacles: list[ObstaclePose], road: RoadGeometry,
               target_lane: int, ofp: ObstacleFieldParams,
               rfp: RoadFieldParams, cfg: MpcConfig, vp: VehicleParams,
               dp: DriverParams) -> PlanResult:
    """Minimize the horizon cost over bounded preview increments.

    Projected gradient descent with central finite differences and
    backtracking. The horizon cost is prepared once per solve: the
    coasted obstacles are stacked into one PreparedField, a batch of du
    sequences is predicted on the 3 channels the cost reads, and each
    cost call maps the predicted positions to road coordinates once.
    The trial steps alpha0 * HALVINGS of an iteration are scored in two
    batches, the first FIRST_TRIALS and then, only if none of those
    improves, the rest; the first trial that beats the best cost so far
    is taken, exactly as a loop that halves until improvement would.
    Only improving iterates are accepted, so the returned cost, which is
    the accepted one, never exceeds the zero-increment cost; if no step
    is accepted while the first gradient is clearly nonzero, the plan is
    flagged degraded. The returned outputs are the ones that cost read,
    and the full 8-state prediction is made for the returned plan.
    """
    model = HorizonModel(x0, u_prev, a_x, vp, dp, cfg)
    n_c = cfg.n_c
    prepared = prepare_field(_coasted(obstacles, cfg), road, ofp, rfp)

    def cost_of(du_batch: np.ndarray) -> np.ndarray:
        y = _outputs(model.poses(du_batch), prepared, target_lane)
        return mpc_cost(y, du_batch, cfg.q, cfg.r)

    du = np.zeros(n_c)
    best = float(cost_of(du))
    cost_zero = best
    eye = np.eye(n_c)
    iterations = 0
    grad0_norm = 0.0

    for _ in range(cfg.max_iter):
        iterations += 1
        probe = np.concatenate([du + FD_STEP * eye, du - FD_STEP * eye], axis=0)
        vals = cost_of(probe)
        grad = (vals[:n_c] - vals[n_c:]) / (2.0 * FD_STEP)
        gnorm = float(np.max(np.abs(grad)))
        if iterations == 1:
            grad0_norm = gnorm
        if gnorm == 0.0:
            break
        # The first trial moves the largest component by 1.
        alphas = (1.0 / gnorm) * HALVINGS
        cands = _project(du - alphas[:, None] * grad, u_prev, cfg)
        step = None
        for trials in (cands[:FIRST_TRIALS], cands[FIRST_TRIALS:]):
            vals = cost_of(trials)
            improving = np.flatnonzero(vals < best)
            if improving.size:
                k = improving[0]
                step = trials[k], float(vals[k])
                break
        if step is None:
            break
        drop = best - step[1]
        du, best = step
        if drop <= cfg.tol * max(1.0, best):
            break  # converged

    degraded = grad0_norm > 1e-6 and not np.any(du)
    u_applied = float(u_prev + du[0])
    return PlanResult(du_sequence=du, u_applied=u_applied,
                      predicted_states=model.states(du),
                      predicted_outputs=_outputs(model.poses(du), prepared, target_lane),
                      cost=best, cost_zero=cost_zero, iterations=iterations,
                      degraded=degraded)
