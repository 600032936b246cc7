"""Driving-style profiles.

A style bundles two things: the steering-driver constants for the loop
model, and the weights that blend safety, comfort, and efficiency in the
decision cost. The v_factor sets how much of the available speed headroom
above the common flow speed a driver of this style tries to claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .vehicle import DriverParams

# The published steering gains are steering-wheel gains. The driver loop
# actuates the front wheels, so the stored g_s must carry the wheel-to-road
# transmission ratio as well. 1/30 keeps the closed lateral loop stable up
# to about 28 m/s for every style (eigenvalue check on the linearized
# model), comfortably past the 25 m/s lane speed caps.
STEER_TRANSMISSION = 1.0 / 30.0


@dataclass(frozen=True)
class StyleProfile:
    name: str
    driver: DriverParams
    w_ds: float      # weight on the driving-safety term
    w_rc: float      # weight on the ride-comfort term
    w_pe: float      # weight on the travel-efficiency term
    v_factor: float  # fraction of speed headroom claimed as desired speed


AGGRESSIVE = StyleProfile(
    name="aggressive",
    driver=DriverParams(t_d=0.14, t_p=1.02, g_s=0.84 * STEER_TRANSMISSION, a=0.24),
    w_ds=0.10, w_rc=0.10, w_pe=0.80,
    v_factor=0.95,
)

NORMAL = StyleProfile(
    name="normal",
    driver=DriverParams(t_d=0.18, t_p=0.94, g_s=0.75 * STEER_TRANSMISSION, a=0.23),
    w_ds=0.50, w_rc=0.30, w_pe=0.20,
    v_factor=0.60,
)

CONSERVATIVE = StyleProfile(
    name="conservative",
    driver=DriverParams(t_d=0.24, t_p=0.83, g_s=0.62 * STEER_TRANSMISSION, a=0.22),
    w_ds=0.70, w_rc=0.20, w_pe=0.10,
    v_factor=0.30,
)

BUILTIN_STYLES = {p.name: p for p in (AGGRESSIVE, NORMAL, CONSERVATIVE)}


def style_profile(name: str) -> StyleProfile:
    """Look up a builtin style by name. Raises KeyError on unknown names."""
    try:
        return BUILTIN_STYLES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_STYLES))
        raise KeyError(f"unknown driving style {name!r}; known styles: {known}") from None
