"""Receding-horizon preview-point planner.

Each planning step linearizes the driver-vehicle model once at the
current state, discretizes it with the step dt it is given, and predicts
the horizon with those frozen matrices plus the affine remainder of the
linearization (which is what carries the commanded longitudinal
acceleration into the prediction). The optimizer works on the control
increments du over the control horizon, with the preview command held
after that and kept inside the given box u_box. It is a projected
Newton method on a Gauss-Newton model of the cost (Bertsekas 1982): each
iteration takes the output Jacobian by forward differences, takes as its
step the exact minimizer of the model over the increments' box (a small
active-set QP, _box_qp, that usually ends after one linear solve), and
scores halvings of that step in one batch. Only improvements are
accepted, so the returned sequence never scores worse than leaving the
command alone (or, from outside u_box, than moving it straight back).

A receding-horizon caller can pass the previous plan moved on one step
as the solve's start (the shift initialization of Diehl, Bock and
Schloeder 2005, SIAM J. Control Optim. 43(5)); the search begins from
the cheaper of that start and the zero increments, so the plan still
never scores worse than the zero increments. Before scoring a trial
batch, an iteration asks the model what its step can gain, and the
search ends there if that is within the tolerance. The 720 solves of the
three bundled scenario_a runs score 887 trial batches between them.

A solve makes one output batch to start, plus one per iteration that
scores trials. The Jacobian's probe rows ride with rows that are scored
anyway: the first batch holds each start with its probes, and every
trial batch also holds the probes of the full step, which is the usual
winner (it scores lowest in all 351 trial batches of the bundled
overtake run and in 880 of the 887 of the three scenario_a runs). Only
when another trial wins and the search goes on are its probes scored
alone. A trial batch is len(NEWTON_STEPS) + n_c rows.

The linear prediction is a rollout of the discrete step map over the
horizon, taken by doubling (see HorizonModel), so its NumPy calls grow
with the log of the horizon; it keeps the 3 channels the cost reads, the
pose (X, Y, phi). The horizon cost is prepared once per solve and has
one evaluation path, which the starts' costs, every trial and the
returned plan share: the caller's PreparedField is coasted along the
horizon, one contraction predicts the poses for one du sequence or a
batch, and the positions are mapped to road coordinates once per call.
Every field value is the one the per-obstacle evaluation gives, bit for
bit, and the plan's cost is the accepted one.

What depends only on the solve is done once per solve: whether the u
box can bind any projection (see _box_free; it cannot in every
scenario_b solve and in 215-230 of the 240 solves of each scenario_a
run, and every projection is then the plain du clip), the coasted
scene with its query layout (made on the first batch and kept by the
PreparedField), and the buffer that each iteration's trials and probe
rows are built in.

At n_c = 5 a solve's time goes to calls more than to arithmetic, so the
Newton systems go to LAPACK's gesv gufunc directly (vehicle._solve)
rather than through NumPy's public solve and its checks, and _box_qp
keeps its bookkeeping on Python floats, with NumPy's rounding and tie
rules. Both give the bits of the NumPy forms: the public solve, and the
array form of _box_qp kept in tests/reference.py.

Outputs per predicted step: y1 collision field at the predicted position
(obstacles coasting at constant velocity), y2 lateral offset from the
target lane centerline, y3 yaw error against the road tangent. The cost
weights their squares by MpcConfig.q_diag and adds r times the squared
increments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .field import PreparedField, coasted, total_field
from .vehicle import (DriverParams, IPHI, IX, IY, NX, V_FLOOR, _solve,
                      derivatives, discretize, linearize)


# Forward finite-difference step of the output Jacobian, in preview-command m.
FD_STEP = 1e-4
# Trial step factors of one iteration, all scored as one batch: halvings
# of the step that minimizes the Gauss-Newton model over the box.
NEWTON_STEPS = 0.5 ** np.arange(6)
# State channels the cost reads: position for the field and the lateral
# offset, yaw for the heading error.
CHANNELS = [IX, IY, IPHI]
# Longest prediction horizon MpcConfig accepts, in steps.
MAX_HORIZON_STEPS = 1000
# Largest n_p * n_c MpcConfig accepts. A solve peaks at about
# (300 + 45 * obstacles) bytes per n_p * (n_c + 6), as a trial batch
# scores len(NEWTON_STEPS) = 6 trials and n_c probe rows (tracemalloc of
# three-iteration solves on a straight three-lane road, at n_p = n_c = 40
# and 200 and at n_p = 1000, n_c = 40, with 0, 3 and 15 obstacles). With
# n_p <= MAX_HORIZON_STEPS the cap bounds both, so with the largest roster
# (scenario.MAX_VEHICLES = 16 cars, 15 obstacles) a solve peaks near
# 45 MB; n_p = 1000, n_c = 40 read 37 MB.
MAX_PLAN_CELLS = 40_000


@dataclass
class MpcConfig:
    """Planner settings; the step and the u box are solve_plan arguments."""

    n_p: int = 20
    n_c: int = 5
    q_diag: tuple[float, ...] = (1.0, 10.0, 50.0)  # weights of (y1, y2, y3)
    r: float = 1.0
    du_min: float = -0.3
    du_max: float = 0.3
    max_iter: int = 100
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_c < 1 or self.n_p < self.n_c:
            raise ValueError("need n_p >= n_c >= 1")
        if self.n_p > MAX_HORIZON_STEPS:
            raise ValueError(f"n_p = {self.n_p} exceeds the largest horizon, "
                             f"{MAX_HORIZON_STEPS} steps")
        if self.n_p * self.n_c > MAX_PLAN_CELLS:
            raise ValueError(f"n_p * n_c = {self.n_p * self.n_c:,} exceeds "
                             f"{MAX_PLAN_CELLS:,}")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if len(self.q_diag) != 3 or not all(w >= 0 for w in self.q_diag):
            raise ValueError("q_diag must hold 3 nonnegative weights")
        # The solver's zero-increment baseline must be a feasible plan.
        if not self.du_min <= 0.0 <= self.du_max:
            raise ValueError("the increment box [du_min, du_max] must contain 0")
        if self.max_iter < 1 or self.tol < 0:
            raise ValueError("need max_iter >= 1 and tol >= 0")


@dataclass
class PlanResult:
    du_sequence: np.ndarray       # (n_c,)
    u_applied: float
    predicted_poses: np.ndarray   # (n_p, 3): X, Y, phi
    predicted_outputs: np.ndarray  # (n_p, 3)
    cost: float
    cost_zero: float
    iterations: int
    degraded: bool
    cost_rows: int                # output rows scored, probes included
    at_cap: bool                  # the search ran out of iterations


@functools.lru_cache(maxsize=8)
def _lag(n_p: int, n_c: int) -> np.ndarray:
    """Read-only (n_p, n_c) array lag[i, j] = max(i + 1 - j, 0), shared per size."""
    lag = np.clip(np.arange(1, n_p + 1)[:, None] - np.arange(n_c), 0, None)
    lag.flags.writeable = False
    return lag


class HorizonModel:
    """Frozen linear prediction of the pose (X, Y, phi) over one planning step.

    Linearized at x0 with the preview command u_prev and acceleration a_x
    held, and discretized with the step dt. Holds the held-command rollout
    `base` (n_p, 3) and the lagged input gains `sens` (n_p, 3, n_c) that map
    a du sequence to poses in one tensor contraction. Both are the pose
    channels of one rollout of the discretized augmented step map
    M = [[A, B, c], [0, 1, 0], [0, 0, 1]], c = B u_prev + w the held
    command's drift, applied to the two columns (0, 1, 0) and (x0, 0, 1):
    M^k of them holds the input gain sum_{m<k} A^m B and the held-command
    state after k steps. The rollout goes by doubling: with M^m known and
    the first m steps rolled out, one matrix product gives the next m and
    one squaring gives M^2m, so a horizon of n_p steps takes
    ceil(log2(n_p + 1)) products. They differ from the step-by-step rollout
    by rounding only, within 1e-12 of the largest value (6.1e-15 over the
    1,620 planner steps of the six bundled Nash runs); `sens` repeats each
    gain bit for bit at every lag.
    """

    def __init__(self, x0: np.ndarray, u_prev: float, a_x: float,
                 dp: DriverParams, cfg: MpcConfig, dt: float):
        if x0[0] <= V_FLOOR:
            raise DomainError("linearization needs forward speed above the floor")
        x0 = np.asarray(x0, dtype=float)
        a_c, b_c = linearize(x0, u_prev, a_x, dp)
        # Drift of the held command, f(x0, u_prev) - A x0 = B u_prev + w: the
        # model is affine, not linear through the origin, and a_x enters
        # the prediction only through its remainder w.
        b_aug = np.empty((NX, 2))
        b_aug[:, :1] = b_c
        np.subtract(derivatives(x0, u_prev, a_x, dp), a_c @ x0, out=b_aug[:, 1])
        a_d, b_d = discretize(a_c, b_aug, dt)

        n_p = cfg.n_p
        # roll[k] holds M^k z0 and M^k z1 as rows, for z0 = (0, 1, 0) and
        # z1 = (x0, 0, 1), k = 0..n_p. On rows, each doubling is one
        # product of the rows so far with step_t = (M^m)'.
        step_t = np.zeros((NX + 2, NX + 2))
        step_t[:NX, :NX] = a_d.T
        step_t[NX:, :NX] = b_d.T
        step_t[NX, NX] = step_t[NX + 1, NX + 1] = 1.0
        roll = np.zeros((n_p + 1, 2, NX + 2))
        roll[0, 1, :NX] = x0
        roll[0, 0, NX] = roll[0, 1, NX + 1] = 1.0
        rows = roll.reshape(2 * (n_p + 1), NX + 2)
        m = 1
        while m <= n_p:
            k = min(m, n_p + 1 - m)
            np.matmul(rows[:2 * k], step_t, out=rows[2 * m:2 * (m + k)])
            m += k
            if m <= n_p:
                step_t = step_t @ step_t
        poses = roll.take(CHANNELS, axis=2)
        # base[i] = pose after i+1 steps with u held at u_prev.
        self.base = poses[1:, 1]
        # sens[i, :, j] = gain after i + 1 - j steps maps du_j to pose i
        # (du frozen after n_c); the zero gain of roll[0] fills the steps
        # before du_j acts.
        self.sens = np.ascontiguousarray(
            poses[_lag(n_p, cfg.n_c), 0].transpose(0, 2, 1))

    def poses(self, du: np.ndarray) -> np.ndarray:
        """Predicted (X, Y, phi) for one du sequence or a batch over leading axes."""
        return self.base + np.einsum("...j,ixj->...ix", du, self.sens)


def _outputs(poses: np.ndarray, prepared: PreparedField, target_lane) -> np.ndarray:
    """(..., n_p, 3) outputs for (..., n_p, 3) predicted (X, Y, phi).

    `prepared` is the scene coasted over the horizon, so its obstacles
    line up with the prediction steps on the last axis. The poses' road
    coordinates are computed once, for the road barrier and y2/y3.
    """
    xs = poses[..., 0]
    ys = poses[..., 1]
    road = prepared.road
    s, d = road.to_frenet(xs, ys)
    out = np.empty(poses.shape)
    out[..., 0] = total_field(xs, ys, prepared, frenet=(s, d))
    np.subtract(d, road.lane_offset(target_lane), out=out[..., 1])
    np.subtract(poses[..., 2], road.tangent_heading(s), out=out[..., 2])
    return out


def mpc_cost(outputs: np.ndarray, du: np.ndarray, w: np.ndarray, r: float):
    """Squared outputs weighted by w, plus weighted increment energy.

    The weighted squares are summed one after the other in (step,
    channel) order, which is how the quadratic form with the matrix
    diag(w) sums them.
    """
    quad = np.einsum("...ni,i,...ni->...", outputs, w, outputs)
    return quad + r * (du * du).sum(axis=-1)


def _project(du: np.ndarray, u_prev: float, u_box: tuple[float, float],
             cfg: MpcConfig, box_free: bool, out: np.ndarray) -> np.ndarray:
    """Clip du sequences into the du boxes and the cumulative u box.

    Works on one sequence or a batch over leading axes. Sequential along
    the last axis: each increment is clipped to the intersection of its
    own box with what keeps the running command inside u_box.
    The intersection is never empty while the running command stays in
    the box, which it does by induction.

    `box_free` is the solve's decision (see `_box_free`) that the u box
    can bind no increment; every increment is then just clipped to
    [du_min, du_max], which is what the loop would give. The result goes
    into `out`, an array of du's shape.
    """
    if box_free:
        return np.minimum(np.maximum(du, cfg.du_min), cfg.du_max, out=out)
    u = np.empty(du.shape[:-1])
    u.fill(u_prev)
    for j in range(du.shape[-1]):
        lo, hi = _bounds(u, u_box, cfg)
        u += np.minimum(np.maximum(du[..., j], lo), hi, out=out[..., j])
    return out


def _box_free(u_prev: float, u_box: tuple[float, float], cfg: MpcConfig) -> bool:
    """Whether the u box can bind no increment of any du-clipped sequence.

    u_prev plus n_c - 1 times du_min, and plus n_c - 1 times du_max, summed
    one after the other as _project's loop sums the running command,
    bound every running command of a sequence clipped to [du_min, du_max],
    since rounded addition is monotone. When even these extremes leave
    more room to the u box than the du box allows (strictly, as _bounds'
    maximum and minimum then pick the du box), every projection is the
    plain clip and every increment's bounds are (du_min, du_max).
    """
    lo = hi = float(u_prev)
    for _ in range(cfg.n_c - 1):
        lo += cfg.du_min
        hi += cfg.du_max
    return u_box[0] - lo < cfg.du_min and u_box[1] - hi > cfg.du_max


def _running(du: np.ndarray, u_prev: float) -> np.ndarray:
    """Command before each increment of du: u_prev plus the ones before it,
    summed one after the other as _project's loop sums them."""
    start = np.empty(du.shape[:-1] + (1,))
    start.fill(u_prev)
    return np.cumsum(np.concatenate([start, du[..., :-1]], axis=-1), axis=-1)


def _bounds(u, u_box: tuple[float, float], cfg: MpcConfig):
    """(lo, hi) at running command u: the du box within what keeps u in u_box.

    Each bound is the room to its edge of u_box clipped to the du box, so
    lo <= hi always. With u inside u_box that is the intersection of the
    two boxes; with u outside, both bounds are the du box's edge nearest
    u_box, and the increment moves the command toward it as far as the
    du box allows.
    """
    return (np.minimum(np.maximum(u_box[0] - u, cfg.du_min), cfg.du_max),
            np.minimum(np.maximum(u_box[1] - u, cfg.du_min), cfg.du_max))


@functools.lru_cache(maxsize=8)
def _probes(n_c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only per-size constants of a solve, shared like _lag: the identity
    (which _box_qp also reads), the probe steps FD_STEP * I and the first
    batch's offsets from each start (0, then the probe steps)."""
    eye = np.eye(n_c)
    probes = FD_STEP * eye
    first = np.concatenate([np.zeros((1, n_c)), probes])
    consts = (eye, probes, first)
    for a in consts:
        a.flags.writeable = False
    return consts


def _clip(x: float, lo: float, hi: float) -> float:
    """np.minimum(np.maximum(x, lo), hi) on Python floats: a tie takes the
    bound, as np.maximum and np.minimum take their second argument (which
    tells -0.0 from 0.0), and a NaN x stays NaN."""
    x = x if x > lo or x != x else lo
    return x if x < hi or x != x else hi


def _box_qp(hess: np.ndarray, g: np.ndarray, lo: np.ndarray | float,
            hi: np.ndarray | float) -> np.ndarray:
    """The d minimizing g.d + d.H.d / 2 over lo <= d <= hi.

    H must be symmetric positive definite and the box must hold 0; lo and
    hi are (n,) arrays or numbers. Primal active set from d = 0 (Nocedal &
    Wright 2006, Algorithm 16.3), with the components that sit on a bound
    at 0 and whose gradient points out of the box held from the start.
    Each pass makes one LAPACK solve (vehicle._solve) of the masked
    system, identity rows for the held components and H rows for the
    others, whose solution minimizes the model with the held ones on
    their bounds. A solution inside the box is taken; then the held
    component whose multiplier H d + g has the wrong sign for its bound,
    the largest first, is let go, or the minimizer is found. A solution
    outside the box is approached from d up to the first bound it
    crosses, the first such component on a tie, and that component is
    held there. With no component held, the first pass is the solve of
    H z = -g and a box test, and nothing else when z lies in the box.

    The solves and H d stay in NumPy, whose rounding they set; the rest
    is done on Python floats with the rounding and tie rules of NumPy's
    (see _clip), so d is, bit for bit, that of the NumPy-array form in
    tests/reference.py.

    No pass raises the model, so d stays feasible and scores no higher on
    it than 0. Every pass but the last holds or lets go one component, and
    the model falls strictly between two passes that let go, so no held
    set comes back and the loop ends: within 2 n + 2 passes on random
    problems, and within 10 (n = 5) on the bundled runs. At its bound,
    4 n + 2 passes, it returns the last d, feasible and no worse on the
    model than 0, though not its minimizer.
    """
    n = g.size
    gs = g.tolist()
    los = lo.tolist() if np.ndim(lo) else [float(lo)] * n
    his = hi.tolist() if np.ndim(hi) else [float(hi)] * n
    held = [(l == 0.0 and gi > 0.0) or (h == 0.0 and gi < 0.0)
            for gi, l, h in zip(gs, los, his)]
    rhs = -g
    d = [0.0] * n
    for _ in range(4 * n + 2):
        held_at = [i for i in range(n) if held[i]]
        if held_at:
            eye = _probes(n)[0]
            a, b = hess.copy(), rhs.copy()
            for i in held_at:
                a[i], b[i] = eye[i], d[i]
            z = _solve(a, b)
            for i in held_at:
                z[i] = d[i]
        else:
            z = _solve(hess, rhs)
        zs = z.tolist()
        crossed = [i for i in range(n) if zs[i] < los[i] or zs[i] > his[i]]
        if crossed:
            # Go from d toward z up to the first bound crossed, and hold it.
            frac = [math.inf] * n
            for i in crossed:
                bound = los[i] if zs[i] < los[i] else his[i]
                frac[i] = (bound - d[i]) / (zs[i] - d[i])
            # np.argmin's pick: the first NaN, else the first least.
            nans = [i for i in crossed if frac[i] != frac[i]]
            k = nans[0] if nans else frac.index(min(frac))
            f = frac[k]
            d = [_clip(di + f * (zi - di), l, h)
                 for di, zi, l, h in zip(d, zs, los, his)]
            d[k] = los[k] if zs[k] < los[k] else his[k]
            held[k] = True
            continue
        if not held_at:
            return z
        d = zs
        mult = (hess @ z + g).tolist()
        wrong = [i for i in held_at if (mult[i] < 0.0 and d[i] < his[i])
                 or (mult[i] > 0.0 and d[i] > los[i])]
        if not wrong:
            return z
        held[max(wrong, key=lambda i: abs(mult[i]))] = False
    return np.array(d)


def _predicted_drop(hess: np.ndarray, g: np.ndarray, d: np.ndarray) -> float:
    """The drop in the horizon cost that the Gauss-Newton model predicts for
    the step d: g and hess are half the cost's gradient and Hessian, so the
    model's decrease -(g.d + d.H.d / 2) is half of it."""
    return -2.0 * (g @ d + 0.5 * (d @ hess @ d))


def solve_plan(x0: np.ndarray, u_prev: float, a_x: float, scene: PreparedField,
               target_lane: int, cfg: MpcConfig, dp: DriverParams, dt: float,
               u_box: tuple[float, float], start: np.ndarray | None = None) -> PlanResult:
    """Minimize the horizon cost over bounded preview increments.

    The ego starts at state x0 with the preview command u_prev and holds
    the acceleration a_x; dp is its steering driver. `scene` holds the
    other cars now; they coast over the horizon. dt is the model step and
    u_box = (lo, hi) bounds the preview command over the horizon;
    ValueError unless dt > 0 and lo <= hi.

    Projected Newton on a Gauss-Newton model. Each iteration keeps the
    outputs y of the accepted du and of its n_c probe rows du + FD_STEP *
    e_j, and takes the output Jacobian J from forward differences against
    y. With W weighting the outputs by q_diag at every horizon step,
    g = J'Wy + r du is half the cost gradient and H = J'WJ + r I half its
    Gauss-Newton Hessian. The first batch scores the zero increments
    projected, which are zeros from a u_prev inside u_box and move the
    command toward the box from outside; cost_zero is their cost. `start`,
    a du sequence of n_c increments or None, is projected the same way and
    scored in that batch, and the search begins from whichever of the two
    costs less; the zero increments win a tie and a start whose cost is
    not finite. The step d minimizes the model g.d + d.H.d / 2 over
    lo - du <= d <= hi - du, where (lo, hi) are the bounds _project clips
    to at du's running commands (see _bounds and _box_qp); du is a
    projection, so that box holds 0. If the drop in the cost the model
    predicts for d (_predicted_drop, twice the model's decrease) is at
    most tol * max(1, best), the search ends before scoring; that
    iteration is counted. Otherwise the trials du + NEWTON_STEPS * d go
    through _project and are scored in one batch, and the lowest is taken,
    the first on a tie, if it beats the best cost so far. The search also
    stops when no trial does or the drop is at most tol * max(1, best),
    so the returned cost, which is the accepted one, never exceeds
    cost_zero. A plan is flagged at_cap when max_iter iterations pass and
    no stop rule fires. A plan is flagged degraded when the first iteration scored
    its trials, so its model promised more than the tolerance, and none
    of them gained. The returned outputs are the ones the accepted cost
    read, the returned poses are the plan's predicted (X, Y, phi), and
    cost_rows counts the output rows the solve scored.

    The outputs come in as few batches as the search allows, each row
    scored as it would be alone: the starts with their probe rows, then
    per iteration that scores trials, the trials with the probe rows of
    trial 0, the full Newton step. When trial 0 is taken, the next
    Jacobian reads those; when another trial is taken and the search goes
    on, its probe rows are scored in a batch of their own.

    Whether the u box can bind is decided once, before the first
    iteration. When no running command of any du-clipped sequence comes
    near enough to the u box for it to bind (see _box_free), every
    projection is the plain [du_min, du_max] clip and the step's bounds
    are the du box, with no _bounds call; otherwise each batch runs
    _project's loop and the bounds are read at the running command. Both
    give the loop's result bit for bit.

    DomainError if the zero increments' cost is not finite (a field or a
    weight that overflows), since no trial could then be compared with it.
    """
    if not dt > 0 or not u_box[0] <= u_box[1]:   # NaN fails too
        raise ValueError("need dt > 0 and a u box (lo, hi) with lo <= hi")
    model = HorizonModel(x0, u_prev, a_x, dp, cfg, dt)
    n_c, r = cfg.n_c, cfg.r
    w = np.array(cfg.q_diag, dtype=float)
    prepared = coasted(scene, (np.arange(cfg.n_p) + 1) * dt)

    scored = 0

    def outputs_of(du_batch: np.ndarray) -> np.ndarray:
        nonlocal scored
        scored += len(du_batch)
        return _outputs(model.poses(du_batch), prepared, target_lane)

    eye, probes, first = _probes(n_c)
    r_eye = r * eye
    box_free = _box_free(u_prev, u_box, cfg)
    # The first batch: the zero increments, then the start if there is
    # one, each projected and followed by its probe rows. The projected
    # zeros are zeros from a u_prev inside u_box, a move toward it from
    # outside.
    starts = np.zeros((1 if start is None else 2, n_c))
    starts[1:] = start      # an empty slice when there is no start
    _project(starts, u_prev, u_box, cfg, box_free, out=starts)
    ys = outputs_of((starts[:, None] + first).reshape(-1, n_c)).reshape(
        len(starts), 1 + n_c, cfg.n_p, 3)
    costs = mpc_cost(ys[:, 0], starts, w, r)
    cost_zero = float(costs[0])
    if not np.isfinite(cost_zero):
        raise DomainError(f"the zero-increment horizon cost is {cost_zero}")
    # The zero increments win a tie and a start whose cost is not finite.
    i = int(costs[-1] < cost_zero)
    du, best, y, y_probe = starts[i], float(costs[i]), ys[i, 0], ys[i, 1:]
    n_trials = len(NEWTON_STEPS)
    # Unprojected trials, and the batch scored each iteration: the
    # projected trials, then the probe rows of trial 0.
    steps = np.empty((n_trials, n_c))
    batch = np.empty((n_trials + n_c, n_c))
    trials = batch[:n_trials]
    degraded = at_cap = False

    for iterations in range(1, cfg.max_iter + 1):
        if y_probe is None:
            y_probe = outputs_of(du + probes)
        jac = (y_probe - y) / FD_STEP    # (n_c, n_p, 3)
        jw = (jac * w).reshape(n_c, -1)
        g = jw @ y.ravel() + r * du
        hess = jw @ jac.reshape(n_c, -1).T + r_eye
        # du is a projection, and the running commands are summed in
        # _project's order, so the step's box holds 0: a clipped increment
        # equals its bound.
        if box_free:
            lo, hi = cfg.du_min, cfg.du_max
        else:
            lo, hi = _bounds(_running(du, u_prev), u_box, cfg)
        d = _box_qp(hess, g, lo - du, hi - du)
        if _predicted_drop(hess, g, d) <= cfg.tol * max(1.0, best):
            break   # the model says no trial can pay for its batch
        np.multiply(NEWTON_STEPS[:, None], d, out=steps)
        np.add(du, steps, out=steps)
        _project(steps, u_prev, u_box, cfg, box_free, out=trials)
        np.add(trials[0], probes, out=batch[n_trials:])
        ys = outputs_of(batch)
        vals = mpc_cost(ys[:n_trials], trials, w, r)
        k = int(vals.argmin())
        if not vals[k] < best:
            # The model promised more than the tolerance; a first
            # iteration that gains nothing missed it.
            degraded = iterations == 1
            break
        drop = best - float(vals[k])
        du, best, y = trials[k].copy(), float(vals[k]), ys[k]
        y_probe = ys[n_trials:] if k == 0 else None
        if drop <= cfg.tol * max(1.0, best):
            break  # converged
    else:
        at_cap = True

    u_applied = float(u_prev + du[0])
    return PlanResult(du_sequence=du, u_applied=u_applied,
                      predicted_poses=model.poses(du), predicted_outputs=y,
                      cost=best, cost_zero=cost_zero, iterations=iterations,
                      degraded=degraded, cost_rows=scored, at_cap=at_cap)
