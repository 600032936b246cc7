"""Scenario parsing, validation, and the bundled references."""

import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from lanegame.costs import CostGains
from lanegame.errors import ConfigError
from lanegame.field import FieldParams
from lanegame.scenario import (BUNDLED, CAR_LENGTH, MAX_HORIZON, MAX_STEPS, MAX_VEHICLES,
                               DecisionParams, config_from_dict, load_scenario,
                               validate)
from lanegame.simulate import run_simulation


def minimal_doc(**over):
    doc = {
        "road": {"lanes": [{"index": 1}, {"index": 2}]},
        "vehicles": [
            {"role": "EC", "lane": 2, "s": 0.0, "v": 20.0},
            {"role": "AC1", "lane": 1, "s": 5.0, "v": 15.0},
        ],
    }
    doc.update(over)
    return doc


def test_minimal_document_fills_defaults():
    cfg = config_from_dict(minimal_doc())
    assert cfg.name == "unnamed"
    assert cfg.strategy == "nash"
    assert cfg.duration == 12.0 and cfg.dt == 0.05
    assert cfg.road.kind == "straight" and cfg.road.length == 500.0
    assert cfg.grid.accelerations[0] == -4.0
    assert cfg.mpc.n_p == 20
    assert cfg.ego().role == "EC"
    assert cfg.ego().d is None
    assert cfg.vehicles[1].strategic and not cfg.ego().strategic


def test_bundled_scenarios_load_and_validate():
    a = load_scenario("scenario_a")
    assert a.road.kind == "straight"
    assert a.road.lanes[2].end_station == 200.0
    assert {v.role for v in a.vehicles} == {"EC", "AC1"}
    assert validate(a) == []

    b = load_scenario("scenario_b.json")
    assert b.road.kind == "arc" and b.road.radius == 2000.0
    assert {v.role for v in b.vehicles} == {"LC", "EC", "AC1", "AC2"}
    assert b.road.lanes[3].v_max == 20.0
    assert validate(b) == []


def test_load_from_file(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(minimal_doc(name="roundtrip", duration=3.0)))
    cfg = load_scenario(str(p))
    assert cfg.name == "roundtrip"
    assert cfg.duration == 3.0


def test_parse_error_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"road": }')
    with pytest.raises(ConfigError, match="line 1"):
        load_scenario(str(p))


def test_unknown_source_rejected():
    with pytest.raises(ConfigError, match="no such scenario"):
        load_scenario("scenario_z")


def test_missing_blocks_rejected():
    with pytest.raises(ConfigError, match="'road' and 'vehicles'"):
        config_from_dict({"vehicles": []})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d["vehicles"].pop(0), "exactly one EC"),
    (lambda d: d["vehicles"].append({"role": "EC", "lane": 1, "s": 9.0, "v": 1.0}),
     "exactly one EC"),
    (lambda d: d["vehicles"].__setitem__(1, dict(d["vehicles"][0])), "duplicate roles"),
    (lambda d: d["vehicles"][0].__setitem__("lane", 7), "no lane 7"),
    (lambda d: d["vehicles"][0].__setitem__("v", -1.0), "invalid"),
    (lambda d: d["vehicles"][0].__setitem__("style", "reckless"), "unknown style"),
    (lambda d: d.__setitem__("strategy", "minimax"), "strategy"),
    (lambda d: d.__setitem__("duration", 0.0), "duration"),
    (lambda d: d.__setitem__("dt", -0.05), "dt"),
    # The planner linearizes about the ego's forward speed, which must
    # clear the vehicle model's floor.
    (lambda d: d["vehicles"][0].__setitem__("v", 0.5), "ego speed must exceed"),
    # One strategic car per lane: the game reads a single opponent there.
    (lambda d: d["vehicles"].append({"role": "AC2", "lane": 1, "s": 40.0, "v": 15.0}),
     "lane 1 already has a strategic car"),
    # Placement: on the road, inside the car's own lane, the ego ahead of 0.
    (lambda d: d["vehicles"][1].__setitem__("s", 510.0), "past the end of lane 1"),
    (lambda d: (d["road"]["lanes"][1].__setitem__("end_station", 200.0),
                d["vehicles"][0].__setitem__("s", 250.0)), "past the end of lane 2"),
    (lambda d: d["vehicles"][0].__setitem__("s", -1.0), "the ego must start at s >= 0"),
    (lambda d: d["vehicles"][0].__setitem__("d", 2.1), "d: outside lane 2"),
    (lambda d: d["vehicles"][1].__setitem__("d", 1.9), "d: outside lane 1"),
    # The closed loop would clip another car's speed to its lane's band in
    # one step.
    (lambda d: d["vehicles"][1].__setitem__("v", 28.0),
     r"vehicles\[1\]\.v: 28 m/s is outside lane 1's speed band \[0, 25\]"),
    (lambda d: d.__setitem__("duration", float("nan")),
     "scenario.duration: nan .* finite"),
    (lambda d: d.__setitem__("dt", float("inf")), "scenario.dt: inf .* finite"),
    # The ego's first planner horizon (n_p * dt, at the grid's top
    # acceleration) must end on the road: 495 + 20 + 1.5 > 500, and with
    # scenario_a's 30-step horizon 470 + 30 + 3.375 > 500.
    (lambda d: d["vehicles"][0].update(s=495.0, lane=1),
     r"vehicles\[0\]\.s: the first 1 s planner horizon reaches s=516\.5, "
     r"past the road end at 500"),
    (lambda d: (d["vehicles"][0].update(s=470.0, lane=1), d.__setitem__("mpc", {"n_p": 30})),
     r"the first 1\.5 s planner horizon reaches s=503\.4"),
    # 200000 x 200000 increments: the planner's first sensitivity gather
    # alone would be 320 GB of indices.
    (lambda d: (d.__setitem__("mpc", {"n_p": 200000, "n_c": 200000}),
                d.__setitem__("dt", 5e-5)),
     "mpc: n_p = 200000 exceeds the largest horizon, 1000 steps"),
    # A run's step count, round(duration / dt), is capped: 1e300 / 1e-300
    # overflows int(), and 2e10 steps would never finish.
    (lambda d: d.update(duration=1e300, dt=1e-300),
     r"duration, dt: 1e\+300 s in steps of 1e-300 s exceed the longest run, 20000 steps"),
    (lambda d: d.update(duration=1e9), r"duration, dt: 1e\+09 s in steps of 0\.05 s exceed"),
    (lambda d: d.update(duration=1000.05), "exceed the longest run"),
    # A repeated lane index would silently drop the earlier lane.
    (lambda d: d["road"]["lanes"].append({"index": 2, "v_max": 10.0}),
     r"road\.lanes\[2\]: repeats lane index 2"),
    # A range form with a tiny step would enumerate millions of actions.
    (lambda d: d.__setitem__("grid", {"step": 1e-6}),
     "grid: range holds 7000001 accelerations, at most 1000 allowed"),
    # Roles name trace columns (s_ec, s_ac1): unique ignoring case, plain words.
    (lambda d: d["vehicles"].append({"role": "ec", "lane": 1, "s": 120.0, "v": 20.0}),
     r"vehicles\[2\]\.role: duplicate roles 'EC' and 'ec'"),
    (lambda d: d["vehicles"].append({"role": "Ac1", "lane": 2, "s": 60.0, "v": 20.0}),
     r"vehicles\[2\]\.role: duplicate roles 'AC1' and 'Ac1'"),
    (lambda d: d["vehicles"][1].__setitem__("role", "AC,1"),
     r"vehicles\[1\]\.role: 'AC,1' must be letters, digits and _ only"),
    (lambda d: d["vehicles"][1].__setitem__("role", ""),
     r"vehicles\[1\]\.role: '' must be letters"),
    # A tolerance the lane change can never meet keeps it from finishing.
    (lambda d: d.__setitem__("decision", {"commit_lat_tol": -1.0}),
     "decision: commit_lat_tol and commit_yaw_tol must be positive"),
    (lambda d: d.__setitem__("decision", {"commit_yaw_tol": 0.0}),
     "decision: commit_lat_tol and commit_yaw_tol must be positive"),
    (lambda d: d.__setitem__("decision", {"end_margin": -1.0}),
     "decision: end_margin must be nonnegative"),
    # Each lane owns its speed band; the grid has none.
    (lambda d: d["road"]["lanes"][0].update(v_min=30.0, v_max=10.0),
     r"road\.lanes\[0\]: speed band \[30, 10\] must satisfy 0 <= v_min <= v_max"),
    (lambda d: d["road"]["lanes"][0].update(v_max=-5.0),
     r"road\.lanes\[0\]: speed band \[0, -5\]"),
    (lambda d: d.__setitem__("grid", {"v_min": 0.0}), "grid: unknown key 'v_min'"),
    (lambda d: d.__setitem__("grid", {"v_max": 25.0}), "grid: unknown key 'v_max'"),
    # A sigma listed twice would enumerate its candidates twice.
    (lambda d: d.__setitem__("grid", {"sigmas": [0, 0]}),
     "grid: sigmas must be .* each listed once"),
    # The name is the stem of batch trace files and a value of the
    # comparison CSV: a "/" would write outside --trace-dir, a "," would
    # shift the CSV's columns.
    (lambda d: d.__setitem__("name", "../escaped"), r"name: '\.\./escaped' must be letters"),
    (lambda d: d.__setitem__("name", "a,b"), r"name: 'a,b' must be letters"),
    (lambda d: d.__setitem__("name", ""), r"name: '' must be letters"),
    (lambda d: d.__setitem__("name", "two\nlines"), r"name: 'two\\nlines' must be letters"),
    # A solve's memory grows with the roster (planner.MAX_PLAN_CELLS).
    (lambda d: d["vehicles"].extend({"role": f"LC{i}", "lane": 1, "s": 100.0 + 10.0 * i,
                                     "v": 20.0} for i in range(MAX_VEHICLES - 1)),
     "vehicles: 17 cars exceed the largest roster, 16"),
])
def test_validation_catches_bad_fields(mutate, needle):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=needle):
        config_from_dict(doc)


NAN, INF = float("nan"), float("inf")

# Python's json reads NaN, Infinity and 1e400 (as inf); no float key of
# any block may take such a value, nor any entry of a float list.
NON_FINITE = [
    ("gains", "kappa_ax", NAN),
    ("decision", "end_margin", NAN),
    ("decision", "horizon", INF),
    ("grid", "accelerations", [0.0, NAN]),
    ("grid", "a_min", -INF),
    ("mpc", "r", NAN),
    ("mpc", "q_diag", [1.0, INF, 1.0]),
    ("field", "rho_x", NAN),
    ("field", "a_r", INF),
    ("road", "length", INF),
    ("road.lanes[0]", "v_max", NAN),
    ("road.lanes[1]", "end_station", NAN),
    ("vehicles[1]", "s", INF),
    ("vehicles[0]", "d", NAN),
]


def _block(doc, label):
    """The JSON object a dotted label such as road.lanes[0] names."""
    block = doc
    for part in label.replace("[", ".").replace("]", "").split("."):
        block = block[int(part)] if part.isdigit() else block.setdefault(part, {})
    return block


@pytest.mark.parametrize("label,key,value", NON_FINITE,
                         ids=[f"{label}.{key}" for label, key, _ in NON_FINITE])
def test_non_finite_value_names_block_and_key(label, key, value):
    doc = minimal_doc()
    _block(doc, label)[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{label}.{key}: ")
                       + ".*not a finite number"):
        config_from_dict(doc)


# Values of the wrong JSON type were cast to the declared one (1.5 -> lane
# 1, "1" -> 1, true -> 1.0, 7 -> "7", [-0.5, 0.5] -> sigmas (0, 0)); each
# is refused, naming its block and key.
MISTYPED = [
    ("vehicles[1]", "lane", 1.5, "a whole number"),
    ("vehicles[1]", "lane", "1", "a number"),
    ("vehicles[1]", "role", 7, "a string"),
    ("mpc", "n_p", 30.7, "a whole number"),
    ("mpc", "n_c", True, "a number"),
    ("mpc", "r", "5", "a number"),
    ("mpc", "q_diag", [1.0, True, 1.0], "a number"),
    ("road", "length", "500", "a number"),
    ("road.lanes[1]", "index", 2.9, "a whole number"),
    ("road.lanes[1]", "end_station", "200", "a number"),
    ("gains", "kappa_ax", True, "a number"),
    ("grid", "sigmas", [-0.5, 0.5], "a whole number"),
    ("grid", "sigmas", [True, 0], "a number"),
    ("grid", "sigmas", "0", "a list"),
    ("grid", "accelerations", [0.0, "1"], "a number"),
    ("grid", "a_min", "-4", "a number"),
    ("decision", "end_margin", True, "a number"),
]


@pytest.mark.parametrize("label,key,value,kind", MISTYPED,
                         ids=[f"{label}.{key}={value!r}" for label, key, value, _ in MISTYPED])
def test_mistyped_value_names_block_and_key(label, key, value, kind):
    doc = minimal_doc()
    _block(doc, label)[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{label}.{key}: expected {kind}, got ")):
        config_from_dict(doc)


def test_whole_numbers_written_as_floats_are_accepted():
    doc = minimal_doc(mpc={"n_p": 30.0}, grid={"sigmas": [-1.0, 0]})
    doc["vehicles"][1]["lane"] = 1.0
    cfg = config_from_dict(doc)
    assert cfg.mpc.n_p == 30 and type(cfg.mpc.n_p) is int
    assert cfg.grid.sigmas == (-1, 0) and cfg.vehicles[1].lane == 1


def test_placement_allows_cars_behind_start_and_off_center():
    doc = minimal_doc()
    doc["vehicles"][1].update(s=-20.0, d=2.1)   # AC1 on lane 1, centered at d=4
    doc["vehicles"][0]["d"] = -1.9
    assert validate(config_from_dict(doc)) == []
    # The first 1.5 s horizon from s=466 ends at 499.375, on the road.
    doc["vehicles"][0].update(s=466.0, lane=1, d=None)
    doc["mpc"] = {"n_p": 30}
    assert validate(config_from_dict(doc)) == []


def test_speed_band_exempts_the_ego():
    # The ego's speed is never clipped to its lane's band; the game bounds
    # its candidates instead. Another car may start on its band's edge.
    doc = minimal_doc()
    doc["road"]["lanes"][1]["v_max"] = 18.0   # the ego's lane; it starts at 20
    doc["vehicles"][1]["v"] = 25.0            # lane 1's upper edge
    assert validate(config_from_dict(doc)) == []


UNKNOWN_KEYS = [
    ("scenario", (), "durration"),
    ("road", ("road",), "lenght"),
    ("road.lanes[1]", ("road", "lanes", 1), "vmax"),
    ("vehicles[0]", ("vehicles", 0), "stlye"),
    ("grid", ("grid",), "stepp"),
    ("gains", ("gains",), "kappa_v_lonn"),
    ("field", ("field",), "a_OC"),
    ("mpc", ("mpc",), "n_pp"),
    ("decision", ("decision",), "horizn"),
    # The planner step and the preview box are solve_plan arguments, not
    # MpcConfig fields: a run takes the step from the scenario's dt and the
    # box from the road. The finite-difference step is a planner constant.
    ("mpc", ("mpc",), "dt"),
    ("mpc", ("mpc",), "u_min"),
    ("mpc", ("mpc",), "u_max"),
    ("mpc", ("mpc",), "fd_step"),
    # The planner weights its outputs by q_diag; there is no matrix form.
    ("mpc", ("mpc",), "q"),
]


@pytest.mark.parametrize("label,path,key", UNKNOWN_KEYS,
                         ids=[f"{label}.{key}" for label, _, key in UNKNOWN_KEYS])
def test_unknown_key_names_block_and_key(label, path, key):
    doc = minimal_doc(grid={}, gains={}, field={}, mpc={}, decision={})
    block = doc
    for step in path:
        block = block[step]
    block[key] = 1.0
    with pytest.raises(ConfigError) as exc:
        config_from_dict(doc)
    assert f"{label}: unknown key {key!r}" in str(exc.value)


def test_vehicle_missing_key_names_index():
    doc = minimal_doc()
    del doc["vehicles"][1]["v"]
    with pytest.raises(ConfigError, match=r"vehicles\[1\]"):
        config_from_dict(doc)


def test_grid_block_forms():
    cfg = config_from_dict(minimal_doc(grid={"a_min": -2.0, "a_max": 2.0,
                                             "step": 1.0, "sigmas": [-1, 0]}))
    assert cfg.grid.accelerations == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert cfg.grid.sigmas == (-1, 0)
    cfg = config_from_dict(minimal_doc(grid={"accelerations": [0, 1]}))
    assert cfg.grid.accelerations == (0.0, 1.0)
    with pytest.raises(ConfigError, match="grid"):
        config_from_dict(minimal_doc(grid={"step": -1.0}))
    with pytest.raises(ConfigError, match="grid"):
        config_from_dict(minimal_doc(grid={"sigmas": [5]}))
    # Both ends are included, so a step must divide the range.
    for step in (0.35, 0.3):
        with pytest.raises(ConfigError, match="grid: step .* does not divide"):
            config_from_dict(minimal_doc(grid={"a_min": -1, "a_max": 1, "step": step}))
    cfg = config_from_dict(minimal_doc(grid={"a_min": -1, "a_max": 1, "step": 0.25}))
    assert cfg.grid.accelerations[0] == -1.0 and cfg.grid.accelerations[-1] == 1.0


def test_mpc_block_q_diag():
    cfg = config_from_dict(minimal_doc(mpc={"n_p": 8, "n_c": 2,
                                            "q_diag": [1, 2, 3], "r": 4}))
    assert cfg.mpc.n_p == 8 and cfg.mpc.r == 4.0
    assert cfg.mpc.q_diag == (1.0, 2.0, 3.0)
    with pytest.raises(ConfigError, match="mpc: q_diag must hold 3 nonnegative"):
        config_from_dict(minimal_doc(mpc={"q_diag": [1, 2]}))
    with pytest.raises(ConfigError, match="mpc: q_diag must hold 3 nonnegative"):
        config_from_dict(minimal_doc(mpc={"q_diag": [1, -2, 3]}))
    with pytest.raises(ConfigError, match="mpc"):
        config_from_dict(minimal_doc(mpc={"n_p": 2, "n_c": 5}))


def test_field_block_is_one_param_set():
    # Obstacle and lane-line keys share one FieldParams; untouched keys
    # keep their defaults.
    cfg = config_from_dict(minimal_doc(field={"a_oc": 60, "a_r": 12,
                                              "rho_y": 1.5}))
    assert cfg.field == FieldParams(a_oc=60.0, a_r=12.0, rho_y=1.5)
    assert cfg.field.rho_x == 8.0 and cfg.field.w == 1.8


def test_largest_roster_validates():
    doc = minimal_doc()
    doc["vehicles"].extend({"role": f"LC{i}", "lane": 1, "s": 100.0 + 10.0 * i, "v": 20.0}
                           for i in range(MAX_VEHICLES - 2))
    assert len(config_from_dict(doc).vehicles) == MAX_VEHICLES


def test_longest_run_validates():
    cfg = config_from_dict(minimal_doc(duration=MAX_STEPS * 0.05))
    assert int(round(cfg.duration / cfg.dt)) == MAX_STEPS


def test_cars_on_one_lane_start_a_car_length_apart():
    # EC and LC 1.46 m apart on lane 2 would start in contact; the check
    # names both, whichever order the roster lists them in.
    doc = minimal_doc()
    doc["vehicles"][0]["s"] = 41.48
    doc["vehicles"].insert(0, {"role": "LC", "lane": 2, "s": 42.94, "v": 15.0})
    with pytest.raises(ConfigError, match=r"vehicles: 'EC' and 'LC' start 1\.46 m apart "
                                          r"on lane 2, closer than a car length \(5 m\)"):
        config_from_dict(doc)
    # Exactly a car length apart, or side by side on two lanes, they start.
    doc["vehicles"][1]["s"] = 40.0
    doc["vehicles"][0]["s"] = 40.0 + CAR_LENGTH
    assert validate(config_from_dict(doc)) == []
    doc["vehicles"][0].update(s=40.0, lane=1)
    assert validate(config_from_dict(doc)) == []
    assert CAR_LENGTH == CostGains().l_v


def test_gains_and_decision_blocks():
    cfg = config_from_dict(minimal_doc(gains={"kappa_v_lon": 2.0},
                                       decision={"end_margin": 10.0}))
    assert cfg.gains.kappa_v_lon == 2.0
    assert cfg.decision.end_margin == 10.0
    with pytest.raises(ConfigError, match="gains"):
        config_from_dict(minimal_doc(gains={"nonsense": 1.0}))
    with pytest.raises(ConfigError, match="decision"):
        config_from_dict(minimal_doc(decision={"horizon": -1.0}))


def test_decision_params_validate():
    with pytest.raises(ConfigError):
        DecisionParams(horizon=0.0)
    # Library use can pass what JSON parsing refuses: NaN fails the range.
    for bad in (NAN, INF, MAX_HORIZON * (1 + 1e-12)):
        with pytest.raises(ConfigError, match="horizon must be in"):
            DecisionParams(horizon=bad)
    assert DecisionParams(horizon=MAX_HORIZON).horizon == MAX_HORIZON
    with pytest.raises(ConfigError):
        DecisionParams(a_brake=-2.0)


def test_explicit_lateral_offset_survives():
    doc = minimal_doc()
    doc["vehicles"][0]["d"] = 1.25
    cfg = config_from_dict(doc)
    assert cfg.ego().d == 1.25


def _objects(node):
    """Every JSON object in a document, the document itself first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _objects(child)


PERTURBED = {"s": st.floats(-60.0, 650.0), "v": st.floats(-2.0, 30.0),
             "d": st.floats(-10.0, 10.0), "lane": st.integers(0, 4)}


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(BUNDLED), misspell=st.booleans(), data=st.data())
def test_mutated_scenario_runs_or_fails_cleanly(name, misspell, data):
    """One typo or one moved vehicle: a named config error, or a short run
    that ends cleanly or aborts with a reason; never another exception."""
    text = resources.files("lanegame.scenarios").joinpath(f"{name}.json").read_text()
    doc = json.loads(text)
    doc["duration"] = 0.25
    if misspell:
        block = data.draw(st.sampled_from(list(_objects(doc))), label="block")
        key = data.draw(st.sampled_from(sorted(block)), label="key")
        block[key + key[-1]] = block.pop(key)   # last letter typed twice
    else:
        car = data.draw(st.sampled_from(doc["vehicles"]), label="car")
        key = data.draw(st.sampled_from(sorted(PERTURBED)), label="key")
        car[key] = data.draw(PERTURBED[key], label="value")
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    trace = run_simulation(cfg)
    assert trace.abort_reason if trace.aborted else len(trace.rows) == 5
