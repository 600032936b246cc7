"""Step the preview point one lane width and watch each style settle.

The driver model chases the preview point through a first-order lag and
a delayed steering channel, so the three styles differ visibly in how
fast they close a 4 m lateral error and how much they overshoot.

Run: python3 demos/driver_step_response.py
"""

import numpy as np

from lanegame.styles import BUILTIN_STYLES, style_profile
from lanegame.vehicle import IVX, IY, NX, step

SPEED = 20.0
TARGET = 4.0
DT = 0.005
T_END = 12.0


def response(style_name):
    dp = style_profile(style_name).driver
    x = np.zeros(NX)
    x[IVX] = SPEED
    ys = []
    n = int(T_END / DT)
    for _ in range(n):
        x, _ = step(x, TARGET, 0.0, dp, DT)
        ys.append(x[IY])
    return np.array(ys)


def sparkline(ys, width=64):
    marks = " .:-=+*#%@"
    idx = np.linspace(0, len(ys) - 1, width).astype(int)
    lo, hi = 0.0, max(float(np.max(ys)), TARGET)
    out = []
    for i in idx:
        frac = (ys[i] - lo) / (hi - lo)
        out.append(marks[int(round(frac * (len(marks) - 1)))])
    return "".join(out)


def main():
    t = np.arange(int(T_END / DT)) * DT
    print(f"preview step 0 -> {TARGET} m at {SPEED} m/s, {T_END:.0f} s shown")
    print()
    for name in BUILTIN_STYLES:
        ys = response(name)
        crossed = np.flatnonzero(np.abs(ys - TARGET) < 0.05)
        t_settle = t[crossed[0]] if crossed.size else float("nan")
        peak = float(np.max(ys))
        print(f"{name:>12}:  first within 5 cm at {t_settle:5.2f} s, "
              f"peak {peak:5.2f} m")
        print(f"{'':>12}   |{sparkline(ys)}|")
    print()
    print("The aggressive profile reacts fastest; the conservative one")
    print("carries the most overshoot before the lane capture ends it.")


if __name__ == "__main__":
    main()
