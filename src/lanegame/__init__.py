"""Game-theoretic lane-change decision making with a driver-in-the-loop
vehicle model, potential-field risk maps, and a preview-tracking planner.

The usual entry points:

- ``load_scenario`` / ``run_simulation`` / ``summarize`` for closed-loop runs
- ``solve_nash_2p`` / ``solve_stackelberg_2p`` and the two-opponent variants
  for standalone decision games
- ``prepare_field`` / ``total_field`` for risk-map sampling, ``solve_plan``
  for one planner step
"""

from .costs import (CostBreakdown, CostGains, DecisionAction, KinematicState,
                    LaneView, NeighborView, comfort_cost, desired_speed,
                    ego_cost, lateral_safety_cost, longitudinal_safety_cost,
                    pair_payoff_matrices)
from .errors import (ConfigError, DomainError, InfeasibleDecisionError,
                     LanegameError)
from .field import (FieldParams, ObstaclePose, gamma_crit, obstacle_field,
                    prepare_field, road_field, total_field)
from .games import (ActionGrid, GameSolution, nash_2p_matrices, solve_nash_2p,
                    solve_nash_two_ac, solve_solo, solve_stackelberg_2p,
                    solve_stackelberg_two_ac, stackelberg_2p_matrices)
from .planner import MpcConfig, PlanResult, solve_plan
from .road import LaneSpec, RoadGeometry
from .scenario import (DecisionParams, ScenarioConfig, VehicleSpec,
                       load_scenario, validate)
from .simulate import (RunMetrics, TraceLog, batch, comparison_csv,
                       metrics_lines, run_simulation, summarize,
                       write_metrics, write_trace)
from .styles import (AGGRESSIVE, BUILTIN_STYLES, CONSERVATIVE, NORMAL,
                     StyleProfile, style_profile)
from .vehicle import (DEFAULT_VEHICLE, ControlInput, DriverParams,
                      VehicleParams, derivatives, discretize, lateral_forces,
                      linearize, step)

__version__ = "0.1.0"
