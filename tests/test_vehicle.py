"""Driver-vehicle model: closed forms, integration, linearization."""

import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg
from scipy.linalg import expm as scipy_expm

from lanegame import planner
from lanegame.scenario import load_scenario
from lanegame.simulate import run_simulation
from lanegame.styles import style_profile
from lanegame.vehicle import (IDDELTA, IDELTA, IPHI, IR, IVX, IVY, IX, IY, NX,
                              V_FLOOR, DriverParams, _expm, _solve, derivatives,
                              discretize, lateral_forces, linearize, step)

NORMAL_DRIVER = DriverParams(t_d=0.18, t_p=0.94, g_s=0.75, a=0.23)


def _state(**kw):
    x = np.zeros(NX)
    x[IVX] = kw.pop("v_x", 20.0)
    for name, idx in (("v_y", IVY), ("r", IR), ("phi", IPHI), ("X", IX),
                      ("Y", IY), ("delta", IDELTA), ("ddelta", IDDELTA)):
        x[idx] = kw.pop(name, 0.0)
    assert not kw
    return x


def test_slip_angles_and_forces_closed_form():
    # alpha_f = -delta + (v_y + l_f r)/v_x, alpha_r = (v_y - l_r r)/v_x
    x = _state(v_x=20.0, v_y=0.5, r=0.1, delta=0.02)
    f_yf, f_yr = lateral_forces(x)
    assert f_yf == pytest.approx(-35000.0 * 0.01125, abs=1e-9)
    assert f_yr == pytest.approx(-38000.0 * 0.0184, abs=1e-9)


def test_lateral_acceleration_row():
    x = _state(v_x=20.0, v_y=0.5, r=0.1, delta=0.02)
    f = derivatives(x, 0.0, 0.0, NORMAL_DRIVER)
    f_yf, f_yr = lateral_forces(x)
    expect = -20.0 * 0.1 + (f_yf * np.cos(0.02) + f_yr) / 1300.0
    assert f[IVY] == pytest.approx(expect, rel=1e-12)


def test_steering_acceleration_from_rest():
    # From the all-zero lateral state with Y_p = 4 the steering row reduces
    # to the bare gain path: (g_s / (a t_d^2)) * 4.
    x = _state(v_x=20.0)
    f = derivatives(x, 4.0, 0.0, NORMAL_DRIVER)
    assert f[IDDELTA] == pytest.approx((0.75 / (0.23 * 0.18**2)) * 4.0, rel=1e-12)
    assert f[IX] == pytest.approx(20.0)
    assert f[IY] == pytest.approx(0.0)


def test_preview_error_uses_projected_position():
    dp = NORMAL_DRIVER
    x = _state(v_x=20.0, phi=0.01, Y=1.0)
    f = derivatives(x, 0.0, 0.0, dp)
    err = 0.0 - (1.0 + dp.t_p * 20.0 * 0.01)
    assert f[IDDELTA] == pytest.approx((dp.g_s / (dp.a * dp.t_d**2)) * err, rel=1e-12)


def test_ax_enters_vx_row_only():
    x = _state(v_x=15.0, v_y=0.3, r=0.05, phi=0.02, delta=0.01)
    f0 = derivatives(x, 2.0, 0.0, NORMAL_DRIVER)
    f1 = derivatives(x, 2.0, 1.7, NORMAL_DRIVER)
    diff = f1 - f0
    assert diff[IVX] == pytest.approx(1.7, rel=1e-12)
    assert np.allclose(np.delete(diff, IVX), 0.0, atol=1e-15)


def test_rk4_step_order():
    """Richardson check: halving dt must shrink the error about 16-fold."""
    dp = style_profile("normal").driver
    x0 = _state(v_x=20.0, Y=-2.0)

    def integrate(dt, t_end=0.4):
        x = x0.copy()
        for _ in range(int(round(t_end / dt))):
            x, _ = step(x, 1.0, 0.5, dp, dt)
        return x

    ref = integrate(0.0005)
    err_a = np.max(np.abs(integrate(0.02) - ref))
    err_b = np.max(np.abs(integrate(0.01) - ref))
    assert err_a < 5e-6
    assert err_a / err_b > 10.0


def test_step_clamps_speed_floor():
    x = _state(v_x=V_FLOOR + 0.01)
    nxt, clamped = step(x, 0.0, -5.0, NORMAL_DRIVER, 0.05)
    assert clamped
    assert nxt[IVX] == V_FLOOR


def _assert_matches_central_differences(x, y_p, a_x, dp, h=1e-6):
    A, B = linearize(x, y_p, a_x, dp)
    scale = max(1.0, np.max(np.abs(A)))
    for j in range(NX):
        e = np.zeros(NX)
        e[j] = h
        col = (derivatives(x + e, y_p, a_x, dp)
               - derivatives(x - e, y_p, a_x, dp)) / (2 * h)
        assert np.max(np.abs(col - A[:, j])) / scale < 1e-5
    bcol = (derivatives(x, y_p + h, a_x, dp)
            - derivatives(x, y_p - h, a_x, dp)) / (2 * h)
    assert np.max(np.abs(bcol - B[:, 0])) / scale < 1e-5


def test_linearize_matches_finite_differences(rng):
    for _ in range(25):
        x = rng.normal(0.0, 0.3, NX)
        x[IVX] = rng.uniform(5.0, 30.0)
        _assert_matches_central_differences(x, rng.normal(0.0, 2.0),
                                            rng.normal(0.0, 1.0), NORMAL_DRIVER)


def test_linearize_matches_finite_differences_along_a_bundled_run(monkeypatch):
    # Every 10th linearization point of the aggressive overtake, which
    # changes lane on the arc among three cars.
    points = []

    def record(x, y_p, a_x, dp):
        points.append((x.copy(), y_p, a_x, dp))
        return linearize(x, y_p, a_x, dp)

    monkeypatch.setattr(planner, "linearize", record)
    trace = run_simulation(load_scenario("scenario_b"), style="aggressive",
                           strategy="nash")
    assert len(points) == len(trace.rows) == 300
    for x, y_p, a_x, dp in points[::10]:
        _assert_matches_central_differences(x, y_p, a_x, dp)


@pytest.mark.parametrize("kind", [float, complex])
def test_derivatives_of_a_batch_equal_its_columns(rng, kind):
    # linearize evaluates its probes as one batch, states along a trailing
    # axis, so each column must be that state's own result bit for bit:
    # an (NX, 1) batch of it, and for a real state the (NX,) call that
    # step makes. NumPy's complex scalar product rounds apart from its
    # array loop in the last bit, so a complex (NX,) call agrees to
    # rounding only.
    n = 23
    states = rng.normal(0.0, 0.3, (NX, n)).astype(kind)
    states[IVX] += rng.uniform(5.0, 30.0, n)
    y_p = rng.normal(0.0, 2.0, n).astype(kind)
    if kind is complex:
        states += 1j * rng.normal(0.0, 1e-3, (NX, n))
        y_p += 1j * rng.normal(0.0, 1e-3, n)
    dp = style_profile("aggressive").driver

    def f(x, y):
        return derivatives(x, y, 0.7, dp)

    out = f(states, y_p)
    assert out.shape == (NX, n) and out.dtype == np.dtype(kind)
    for j in range(n):
        assert f(states[:, j:j + 1], y_p[j:j + 1])[:, 0].tobytes() == out[:, j].tobytes(), j
        one = f(states[:, j], y_p[j])
        assert one.dtype == np.dtype(kind)
        if kind is float:
            assert one.tobytes() == out[:, j].tobytes(), j
        for part in (np.real, np.imag):
            want = part(out[:, j])
            assert np.max(np.abs(part(one) - want)) <= 1e-14 * np.max(np.abs(want)), j


def test_control_enters_steering_row_only():
    A, B = linearize(_state(v_x=20.0), 0.0, 0.0, NORMAL_DRIVER)
    assert B[IDDELTA, 0] == pytest.approx(0.75 / (0.23 * 0.18**2), rel=1e-12)
    mask = np.ones(NX, dtype=bool)
    mask[IDDELTA] = False
    assert np.all(B[mask, 0] == 0.0)


def test_discretize_against_fine_integration():
    dp = style_profile("normal").driver
    x0 = _state(v_x=22.0, v_y=0.2, r=0.03, phi=0.01, Y=1.5, delta=0.01)
    u_val = 2.5
    A, B = linearize(x0, u_val, 0.0, dp)
    dt = 0.05
    a_d, b_d = discretize(A, B, dt)

    # RK4 on the frozen linear system, ten substeps per dt.
    x = x0.copy()
    h = dt / 10.0
    rhs = lambda z: A @ z + B[:, 0] * u_val
    for _ in range(10):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(a_d @ x0 + b_d[:, 0] * u_val - x)) < 1e-6


def test_discretize_zero_dt_is_identity():
    A, B = linearize(_state(v_x=20.0), 0.0, 0.0, NORMAL_DRIVER)
    a_d, b_d = discretize(A, B, 0.0)
    assert np.allclose(a_d, np.eye(NX), atol=1e-14)
    assert np.allclose(b_d, 0.0, atol=1e-14)


def _rel_diff(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


def test_expm_matches_scipy_across_scalings():
    # 1-norms from 1e-6 to 100 run 0 to 5 squarings (theta_13 = 5.37).
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for norm in np.logspace(-6, 2, 17):
        for _ in range(4):
            a = rng.standard_normal((10, 10))
            a *= norm / np.abs(a).sum(axis=0).max()
            worst = max(worst, _rel_diff(_expm(a), scipy_expm(a)))
    assert worst <= 1e-13


def test_discretize_matches_scipy_on_a_bundled_step():
    # The augmented matrix the planner builds at scenario_a's first step:
    # the linearization at the ego's start plus its affine remainder.
    cfg = load_scenario("scenario_a")
    ego = cfg.ego()
    dp = style_profile(ego.style).driver
    x0 = np.zeros(NX)
    x0[IVX] = ego.v
    x0[IX], x0[IY] = cfg.road.to_global(ego.s, cfg.road.lane_offset(ego.lane))
    y_p = float(x0[IY])
    a_c, b_c = linearize(x0, y_p, 1.0, dp)
    w_c = derivatives(x0, y_p, 1.0, dp) - a_c @ x0 - b_c[:, 0] * y_p
    b_aug = np.column_stack([b_c, w_c])
    aug = np.zeros((NX + 2, NX + 2))
    aug[:NX, :NX] = a_c
    aug[:NX, NX:] = b_aug
    ref = scipy_expm(aug * cfg.dt)
    a_d, b_d = discretize(a_c, b_aug, cfg.dt)
    assert _rel_diff(np.hstack([a_d, b_d]), ref[:NX]) <= 1e-13
    assert _rel_diff(_expm(aug * cfg.dt), ref) <= 1e-13


def test_expm_exact_cases():
    assert np.array_equal(_expm(np.zeros((10, 10))), np.eye(10))
    # N @ N = 0, so exp(N) = I + N; 64 and 1000 are scaled and squared.
    for v in (2.0**-20, 1.0, 3.7, -7.1, 64.0, 1000.0):
        n = np.array([[0.0, v], [0.0, 0.0]])
        assert np.array_equal(_expm(n), np.eye(2) + n), v
    n = np.zeros((10, 10))
    n[0, 9], n[3, 9], n[0, 5] = 8.0, -0.3, 11.3
    assert not (n @ n).any()
    assert np.array_equal(_expm(n), np.eye(10) + n)


def test_solve_gives_numpy_solve_bit_for_bit():
    # Sizes 1-10, right-hand sides (n,), (n, 1) and (n, 3), and matrices
    # from well to badly conditioned.
    rng = np.random.default_rng(20261022)
    for n in range(1, 11):
        for shift in (10.0, 1.0, 1e-8):
            a = rng.standard_normal((n, n)) + shift * np.eye(n)
            for shape in ((n,), (n, 1), (n, 3)):
                b = rng.standard_normal(shape)
                got = _solve(a, b)
                assert got.shape == shape
                assert got.tobytes() == np.linalg.solve(a, b).tobytes(), (n, shape)


def test_numpy_solve_still_calls_the_gufuncs_solve_calls():
    # _solve calls np.linalg.solve's gufuncs directly; a NumPy that moves
    # or stops using them must fail here, not change results quietly.
    a, b = np.eye(3) + 0.5, np.arange(3.0)
    for name, rhs in (("solve1", b), ("solve", b[:, None])):
        gufunc = getattr(_umath_linalg, name)
        with mock.patch.object(_umath_linalg, name, wraps=gufunc) as called:
            np.linalg.solve(a, rhs)
        assert called.call_count == 1
        assert called.call_args.kwargs == {"signature": "dd->d"}


def test_solve_of_a_singular_system_raises_and_warns_nothing():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for b in (np.ones(2), np.ones((2, 2))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinAlgError, match="Singular matrix"):
                _solve(singular, b)
            with pytest.raises(LinAlgError, match="Singular matrix"):
                np.linalg.solve(singular, b)


def test_expm_of_a_nan_matrix_is_not_finite_and_raises_nothing():
    for a in (np.full((10, 10), np.nan), np.where(np.eye(10) > 0, np.nan, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(_expm(a)).any()


def test_import_and_load_do_not_import_scipy():
    # SciPy is a test dependency only; importing it costs every command
    # about 0.3 s and 28 MB.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, lanegame, lanegame.cli\n"
            "from lanegame.scenario import load_scenario\n"
            "load_scenario('scenario_a')\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Feedback submatrix for the lateral loop: v_x is held by the exogenous
# acceleration channel and X feeds nothing back.
_LOOP = [IVY, IR, IPHI, IY, IDELTA, IDDELTA]


@pytest.mark.parametrize("name", ["aggressive", "normal", "conservative"])
def test_driver_loop_converges(name):
    """Holding Y_p constant, |Y - Y_p| falls below 0.05 m within 10 s from a
    4 m offset, the excursion never grows past its start, and the lateral
    loop is eigenvalue-stable across the operating speeds."""
    prof = style_profile(name)
    dp = prof.driver

    for v in (10.0, 15.0, 20.0, 25.0):
        xeq = _state(v_x=v)
        A, _ = linearize(xeq, 0.0, 0.0, dp)
        eig = np.linalg.eigvals(A[np.ix_(_LOOP, _LOOP)])
        assert np.max(eig.real) < 0.0, f"{name} unstable at {v} m/s"

    x = _state(v_x=20.0, Y=-4.0)
    dt = 0.005
    t_cross = None
    peak = 0.0
    for k in range(int(12.0 / dt)):
        x, _ = step(x, 0.0, 0.0, dp, dt)
        peak = max(peak, abs(x[IY]))
        if t_cross is None and abs(x[IY]) < 0.05:
            t_cross = (k + 1) * dt
    assert t_cross is not None and t_cross < 10.0
    assert peak <= 4.0 + 1e-6
    assert abs(x[IY]) < 1.0
