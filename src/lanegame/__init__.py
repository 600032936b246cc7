"""Game-theoretic lane-change decision making with a driver-in-the-loop
vehicle model, potential-field risk maps, and a preview-tracking planner.

The package exports the entry points that README "Library use" names,
and the dataclasses needed to call them:

- ``load_scenario`` / ``run_simulation`` / ``summarize`` / ``batch`` for
  closed-loop runs
- ``solve_nash_2p`` / ``solve_stackelberg_2p`` and the two-opponent variants
  for standalone decision games, scored by ``pair_payoff_matrices``
- ``prepare_field`` / ``total_field`` for risk-map sampling, ``solve_plan``
  for one planner step
- ``derivatives`` / ``step`` / ``linearize`` / ``discretize`` for the
  vehicle model, which takes the preview point and the acceleration as
  two numbers; its constants are those of ``lanegame.vehicle``

Everything else is reached through its module.
"""

from .costs import (CostGains, KinematicState, LaneView, NeighborView,
                    pair_payoff_matrices)
from .errors import ConfigError, DomainError, InfeasibleDecisionError
from .field import FieldParams, PreparedField, prepare_field, total_field
from .games import (ActionGrid, solve_nash_2p, solve_nash_two_ac,
                    solve_stackelberg_2p, solve_stackelberg_two_ac)
from .planner import MpcConfig, solve_plan
from .road import LaneSpec, RoadGeometry
from .scenario import ScenarioConfig, load_scenario
from .simulate import batch, run_simulation, summarize
from .styles import StyleProfile
from .vehicle import DriverParams, derivatives, discretize, linearize, step

__version__ = "0.1.0"
