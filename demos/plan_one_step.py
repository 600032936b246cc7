"""Dissect a single planning call during a lane change.

Shows the preview increments the optimizer picks, the predicted lateral
path, and how the plan cost compares with leaving the command alone.

Run: python3 demos/plan_one_step.py
"""

import numpy as np

from lanegame.field import FieldParams, prepare_field
from lanegame.planner import MpcConfig, solve_plan
from lanegame.road import LaneSpec, RoadGeometry
from lanegame.styles import style_profile
from lanegame.vehicle import IVX, IX, IY, NX


def main():
    road = RoadGeometry(kind="straight", length=300.0,
                        lanes={1: LaneSpec(index=1), 2: LaneSpec(index=2)})
    cfg = MpcConfig(n_p=30, n_c=5, q_diag=(1.0, 60.0, 50.0), r=5.0)
    dp = style_profile("normal").driver

    # Mid lane change: the ego sits on the lane 2 centerline, the target
    # is lane 1, and a slow car coasts ahead in the old lane.
    x = np.zeros(NX)
    x[IVX] = 20.0
    x[IX], x[IY] = 30.0, 0.0

    # Lay the scene out once, one array entry per car (here the car at
    # x = 65 m heading along the road at 10 m/s); the planner coasts it
    # along the horizon. One 0.05 s step; the preview command stays within
    # the road edges.
    scene = prepare_field(x=[65.0], y=[0.0], heading=[0.0], v=[10.0], road=road,
                          params=FieldParams())
    plan = solve_plan(x, u_prev=0.0, a_x=0.0, scene=scene, target_lane=1,
                      cfg=cfg, dp=dp, dt=0.05, u_box=(-2.0, 6.0))

    print("preview increments:",
          " ".join(f"{d:+.3f}" for d in plan.du_sequence))
    print(f"first command applied: {plan.u_applied:+.3f} m")
    print(f"cost {plan.cost:.2f} vs {plan.cost_zero:.2f} if left alone "
          f"({plan.iterations} iterations)")
    print()
    print("horizon preview (every third step):")
    print("   k      x       y    field  lane-err  yaw-err")
    for k in range(0, cfg.n_p, 3):
        px, py, _ = plan.predicted_poses[k]
        y1, y2, y3 = plan.predicted_outputs[k]
        print(f"{k:4d} {px:7.2f} {py:7.3f} {y1:8.3f} {y2:9.3f} "
              f"{y3:8.4f}")
    print()
    print("The lateral error shrinks along the horizon while the field")
    print("stays low: the planner slides toward lane 1 behind the slow car")
    print("rather than through its forward risk lobe.")


if __name__ == "__main__":
    main()
