"""ASCII heat map of the risk field around two cars on a straight road.

Run: python3 demos/field_map.py
"""

import math

import numpy as np

from lanegame.field import FieldParams, prepare_field, total_field
from lanegame.road import LaneSpec, RoadGeometry

SHADES = " .,:;o*#@"


def main():
    road = RoadGeometry(kind="straight", length=200.0,
                        lanes={1: LaneSpec(index=1), 2: LaneSpec(index=2)})
    params = FieldParams()
    # A slow car ahead in lane 2 and a faster one alongside in lane 1,
    # both heading along the road: one array entry per car.
    field = prepare_field(x=[60.0, 40.0], y=[0.0, 4.0], heading=[0.0, 0.0],
                          v=[10.0, 18.0], road=road, params=params)
    xs = np.arange(10.0, 110.0, 2.0)
    ds = np.arange(6.5, -2.75, -0.5)
    # The inner-core threshold: the field one shape unit from a car's CoG.
    crit = params.a_oc * math.exp(-1.0)
    print(f"risk field, inner-core threshold {crit:.2f} marked with X")
    print(f"cars at x=60 (lane 2, 10 m/s) and x=40 (lane 1, 18 m/s)")
    print()
    for d in ds:
        vals = total_field(xs, np.full_like(xs, d), field)
        row = []
        for v in np.asarray(vals):
            if v >= crit:
                row.append("X")
            else:
                k = int(min(v / crit, 0.999) * len(SHADES))
                row.append(SHADES[k])
        tag = ""
        if abs(d - 4.0) < 0.26:
            tag = "  <- lane 1 center"
        elif abs(d) < 0.26:
            tag = "  <- lane 2 center"
        print(f"d={d:+5.1f} |{''.join(row)}|{tag}")
    print()
    print("x from 10 m to 108 m, one column per 2 m. The moving cars push")
    print("their cores forward; the road edges wall off the top and bottom.")


if __name__ == "__main__":
    main()
