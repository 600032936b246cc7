"""Scenario parsing, validation, and the bundled references."""

import json

import numpy as np
import pytest

from lanegame.errors import ConfigError
from lanegame.scenario import (DecisionParams, config_from_dict, load_scenario,
                               validate)


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
])
def test_validation_catches_bad_fields(mutate, needle):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=needle):
        config_from_dict(doc)


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


def test_mpc_block_q_diag():
    cfg = config_from_dict(minimal_doc(mpc={"n_p": 8, "n_c": 2,
                                            "q_diag": [1, 2, 3], "r": 4}))
    assert cfg.mpc.n_p == 8 and cfg.mpc.r == 4.0
    assert np.allclose(cfg.mpc.q, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigError, match="q_diag"):
        config_from_dict(minimal_doc(mpc={"q_diag": [1, 2]}))
    with pytest.raises(ConfigError, match="mpc"):
        config_from_dict(minimal_doc(mpc={"n_p": 2, "n_c": 5}))


def test_field_block_splits_across_both_param_sets():
    cfg = config_from_dict(minimal_doc(field={"a_oc": 60, "a_r": 12,
                                              "rho_y": 1.5}))
    assert cfg.obstacle_field.a_oc == 60.0
    assert cfg.obstacle_field.rho_y == 1.5
    assert cfg.road_field.a_r == 12.0
    # Untouched halves keep their defaults.
    assert cfg.obstacle_field.rho_x == 8.0
    assert cfg.road_field.w == 1.8


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
    with pytest.raises(ConfigError):
        DecisionParams(a_brake=-2.0)


def test_explicit_lateral_offset_survives():
    doc = minimal_doc()
    doc["vehicles"][0]["d"] = 1.25
    cfg = config_from_dict(doc)
    assert cfg.ego().d == 1.25
