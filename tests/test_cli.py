"""Command-line entry points, driven through main() with argv lists."""

import json

import numpy as np
import pytest

from lanegame import cli
from lanegame.cli import main
from lanegame.errors import DomainError, InfeasibleDecisionError
from lanegame.scenario import STRATEGIES, load_scenario
from lanegame.simulate import STYLES_ALL


def _bundled_text(name):
    from importlib import resources
    return resources.files("lanegame.scenarios").joinpath(f"{name}.json").read_text()


@pytest.fixture()
def short_scene(tmp_path):
    # A bundled scenario trimmed to a fraction of a second so CLI runs
    # stay cheap.
    cfg = json.loads(_bundled_text("scenario_a"))
    cfg["duration"] = 0.5
    p = tmp_path / "short_a.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_validate_bundled(capsys):
    assert main(["validate", "scenario_a"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "2 lanes" in out
    assert main(["validate", "scenario_b"]) == 0


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"road": {}, "vehicles": []}')
    assert main(["validate", str(p)]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_missing_scenario_is_config_error(capsys):
    assert main(["run", "scenario_zz"]) == 3
    assert "no such scenario" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["not_utf8", "too_deep", "directory"])
def test_undecodable_scenario_file_exits_3(kind, tmp_path, capsys):
    p = tmp_path / "scene.json"
    if kind == "not_utf8":
        p.write_bytes(b"\xff\xfe{}")
    elif kind == "too_deep":
        p.write_text("[" * 100_000 + "]" * 100_000)
    else:
        p.mkdir()
    assert main(["validate", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {p}: not a readable JSON file")
    assert "Traceback" not in err


def test_non_finite_scenario_value_exits_3(tmp_path, capsys):
    # json writes and reads Infinity; the parser refuses it before a run
    # overflows on it.
    cfg = json.loads(_bundled_text("scenario_a"))
    cfg["duration"] = 1.0
    cfg["decision"]["horizon"] = float("inf")
    p = tmp_path / "inf_horizon.json"
    p.write_text(json.dumps(cfg))
    assert "Infinity" in p.read_text()
    assert main(["run", str(p)]) == 3
    err = capsys.readouterr().err
    assert "decision.horizon: inf is not a finite number" in err
    assert "Traceback" not in err


BAD_VALUES = [
    # Lane 1's band: reversed, then below zero; np.clip would pin the car.
    (lambda c: c["road"]["lanes"][0].update(v_min=30.0, v_max=10.0),
     "road.lanes[0]: speed band [30, 10] must satisfy 0 <= v_min <= v_max"),
    (lambda c: c["road"]["lanes"][0].update(v_max=-5.0),
     "road.lanes[0]: speed band [0, -5] must satisfy"),
    # A fractional lane is not rounded to a lane that exists.
    (lambda c: c["vehicles"][1].update(lane=1.5),
     "vehicles[1].lane: expected a whole number, got 1.5"),
    # The speed band belongs to the lanes, not to the action grid.
    (lambda c: c["grid"].update(v_max=25.0), "grid: unknown key 'v_max'"),
    # Another car starting above its lane's band would be clipped in one step.
    (lambda c: c["vehicles"][1].update(v=28.0),
     "vehicles[1].v: 28 m/s is outside lane 1's speed band [0, 25]"),
    # The ego and a car ahead on its lane, 1.46 m apart, would start in contact.
    (lambda c: (c["vehicles"][0].update(s=41.48),
                c["vehicles"].append({"role": "LC", "lane": 2, "s": 42.94, "v": 15.0})),
     "vehicles: 'EC' and 'LC' start 1.46 m apart on lane 2"),
    # round(duration / dt) overflows int(); 2e10 steps would never finish.
    (lambda c: c.update(duration=1e300, dt=1e-300),
     "duration, dt: 1e+300 s in steps of 1e-300 s exceed the longest run, 20000 steps"),
    (lambda c: c.update(duration=1e9, dt=0.05),
     "duration, dt: 1e+09 s in steps of 0.05 s exceed the longest run, 20000 steps"),
]


@pytest.mark.parametrize("mutate,needle", BAD_VALUES,
                         ids=["band_reversed", "band_negative", "lane_fraction",
                              "grid_v_max", "car_above_band", "cars_in_contact",
                              "steps_overflow", "steps_too_many"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_bad_scenario_value_exits_3(tmp_path, capsys, command, mutate, needle):
    cfg = json.loads(_bundled_text("scenario_a"))
    cfg["duration"] = 0.5
    mutate(cfg)
    p = tmp_path / "bad_value.json"
    p.write_text(json.dumps(cfg))
    assert main([command, str(p)]) == 3
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["../escaped", "a,b", ""], ids=["slash", "comma", "empty"])
@pytest.mark.parametrize("command", ["validate", "batch"])
def test_name_unsafe_for_a_file_name_exits_3(tmp_path, capsys, command, name):
    # The name is the stem of the batch trace files: "../escaped" would
    # write next to --trace-dir instead of inside it, and "a,b" would shift
    # the comparison CSV's columns.
    cfg = json.loads(_bundled_text("scenario_a"))
    cfg["name"] = name
    p = tmp_path / "named.json"
    p.write_text(json.dumps(cfg))
    argv = [command, str(p)]
    if command == "batch":
        argv += ["--styles", "normal", "--strategies", "nash",
                 "--trace-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"name: {name!r} must be letters" in err
    assert "Traceback" not in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["named.json"]


def test_explicit_acceleration_list_over_the_cap_exits_3(tmp_path, capsys):
    # Both spellings of the grid share the cap: every decision step scores
    # each candidate against each acceleration, so 3,001 entries would
    # make millions of cells per step.
    cfg = json.loads(_bundled_text("scenario_a"))
    p = tmp_path / "wide_grid.json"
    for n, code in ((1000, 0), (3001, 3)):
        cfg["grid"] = {"accelerations": [round(-4.0 + 7.0 * i / (n - 1), 9)
                                         for i in range(n)]}
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == code, n
    err = capsys.readouterr().err
    assert "grid: list holds 3001 accelerations, at most 1000 allowed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("radius", [60.0, 3.0])
def test_validate_arc_outside_the_frenet_mapping_exits_3(tmp_path, capsys, radius):
    # scenario_b is 600 m long: radius 60 wraps past half a turn, radius 3
    # also puts the left lane beyond the center of curvature.
    cfg = json.loads(_bundled_text("scenario_b"))
    cfg["road"]["radius"] = radius
    p = tmp_path / "tight_arc.json"
    p.write_text(json.dumps(cfg))
    assert main(["validate", str(p)]) == 3
    err = capsys.readouterr().err
    assert "road: arc length 600 must stay below pi * radius" in err
    assert "Traceback" not in err


def test_run_aborted_by_layer_failure_exits_4(tmp_path, capsys):
    # The ego starts 60 m before the road end: its first planner horizon
    # ends on the road, so the scenario validates, but it drives on until
    # the planner queries the field past the end. Lane 1 runs the full
    # length; lane 2 ends at 200 m.
    cfg = json.loads(_bundled_text("scenario_a"))
    cfg["duration"] = 2.0
    cfg["vehicles"][0].update(s=440.0, lane=1)   # the ego, EC
    p = tmp_path / "road_end.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p)]) == 4
    captured = capsys.readouterr()
    assert "aborted=1" in captured.out
    assert "run aborted: domain error at t=1.40" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("rho_x,spread", [(1e-200, "0"), (1e200, "inf")],
                         ids=["underflow", "overflow"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_field_spread_out_of_range_exits_3(tmp_path, capsys, command, rho_x, spread):
    # The bump divides by 2*rho_x**2: 0 would make the first horizon cost
    # NaN, and a float too large to square raised OverflowError mid-run.
    cfg = json.loads(_bundled_text("scenario_b"))
    cfg["duration"] = 1.0
    cfg["field"]["rho_x"] = rho_x
    p = tmp_path / "spread.json"
    p.write_text(json.dumps(cfg))
    assert main([command, str(p)]) == 3
    err = capsys.readouterr().err
    assert (f"field: rho_x = {rho_x:g} gives 2*rho_x**2 = {spread}, which must be "
            f"positive and finite") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name,rho", [("rho_x", 1e-160), ("rho_y", 1e-155)])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_field_spread_below_floor_exits_3(tmp_path, capsys, command, name, rho):
    # 2*rho**2 is positive, but an offset of a metre squared over it
    # overflows: rho_x made the first horizon cost NaN (exit 4), and rho_y
    # turned the lateral term inf, so every bump read 0 and the run passed.
    cfg = json.loads(_bundled_text("scenario_b"))
    cfg["duration"] = 1.0
    cfg["field"][name] = rho
    p = tmp_path / "floor.json"
    p.write_text(json.dumps(cfg))
    assert main([command, str(p)]) == 3
    err = capsys.readouterr().err
    assert f"field: {name} = {rho:g} m is below the 0.001 m floor" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("horizon", [1e154, 60.5])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_decision_horizon_over_the_cap_exits_3(tmp_path, capsys, command, horizon):
    # A horizon near 1e154 s validated, and the run then committed on
    # costs that overflowed in the projection and the gap term.
    cfg = json.loads(_bundled_text("scenario_a"))
    cfg["duration"] = 1.0
    cfg["decision"]["horizon"] = horizon
    p = tmp_path / "long_horizon.json"
    p.write_text(json.dumps(cfg))
    assert main([command, str(p)]) == 3
    err = capsys.readouterr().err
    assert f"decision: horizon must be in (0, 60] s, got {horizon:g}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block,key,value,cost", [
    ("field", "a_oc", 1e308, "inf"), ("field", "c", 1e300, "inf"),
    ("mpc", "q_diag", [1e308, 1e308, 1e308], "inf")],
    ids=["a_oc", "c", "q_diag"])
def test_overflowing_cost_aborts_with_exit_4(tmp_path, capsys, block, key, value, cost):
    # Each value validates, but the first horizon cost is not finite: the
    # field, its skew or the weights overflow.
    cfg = json.loads(_bundled_text("scenario_b"))
    cfg["duration"] = 1.0
    cfg[block][key] = value
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(cfg))
    assert main(["validate", str(p)]) == 0
    with np.errstate(all="ignore"):
        assert main(["run", str(p)]) == 4
    captured = capsys.readouterr()
    assert "aborted=1" in captured.out
    assert (f"run aborted: domain error at t=0.00: the zero-increment horizon "
            f"cost is {cost}") in captured.err
    assert "Traceback" not in captured.err


def test_run_writes_trace_and_metrics(short_scene, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    metrics = tmp_path / "m.txt"
    rc = main(["run", short_scene, "--style", "normal",
               "--trace", str(trace), "--metrics", str(metrics)])
    assert rc == 0
    assert trace.exists() and metrics.exists()
    head = trace.read_text().splitlines()[0]
    assert head.startswith("t,s_ec,")
    body = metrics.read_text()
    assert "style=normal" in body
    # Metrics went to the file, not stdout.
    assert capsys.readouterr().out == ""


def test_run_metrics_to_stdout(short_scene, capsys):
    assert main(["run", short_scene]) == 0
    out = capsys.readouterr().out
    assert "scenario=" in out and "rms_total=" in out


def test_batch_rejects_unknown_style(short_scene, capsys):
    assert main(["batch", short_scene, "--styles", "normal,bogus"]) == 3
    assert "unknown style" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--styles", ""), ("--strategies", ",")])
def test_batch_rejects_empty_sweep(flag, value, short_scene, capsys):
    assert main(["batch", short_scene, flag, value]) == 3
    captured = capsys.readouterr()
    assert f"{flag} names no" in captured.err
    assert captured.out == ""


def test_batch_writes_comparison_and_traces(short_scene, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    tdir = tmp_path / "traces"
    rc = main(["batch", short_scene, "--styles", "normal",
               "--strategies", "nash", "--out", str(out),
               "--trace-dir", str(tdir)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "nash"
    assert (tdir / "scenario_a_nash_normal.csv").exists()


def test_batch_traces_equal_separate_runs(short_scene, tmp_path, capsys):
    # batch runs a style's strategies on one closed loop while they decide
    # alike; every trace it writes is the one `run --trace` writes.
    tdir = tmp_path / "traces"
    assert main(["batch", short_scene, "--out", str(tmp_path / "cmp.csv"),
                 "--trace-dir", str(tdir)]) == 0
    assert len(list(tdir.iterdir())) == len(STYLES_ALL) * len(STRATEGIES)
    for style in STYLES_ALL:
        for strategy in STRATEGIES:
            alone = tmp_path / "alone.csv"
            assert main(["run", short_scene, "--style", style, "--strategy", strategy,
                         "--trace", str(alone), "--metrics", str(tmp_path / "m.txt")]) == 0
            shared = tdir / f"scenario_a_{strategy}_{style}.csv"
            assert shared.read_bytes() == alone.read_bytes(), (style, strategy)


def test_field_dump_grid(short_scene, tmp_path):
    out = tmp_path / "field.csv"
    rc = main(["field-dump", short_scene, "--s-min", "0", "--s-max", "10",
               "--ds", "5", "--dd", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,d,x,y,gamma"
    # Road spans d in [-2, 6]: 5 lateral samples at 3 stations.
    assert len(lines) == 1 + 3 * 5
    cfg = load_scenario("scenario_a")
    vals = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(v > 0.0 for v in vals)


def test_field_dump_empty_window(short_scene, capsys):
    assert main(["field-dump", short_scene, "--s-min", "10",
                 "--s-max", "5"]) == 3
    assert "empty sample window" in capsys.readouterr().err
    # The field is defined over the road's stations only.
    for window in (["--s-max", "600"], ["--s-min", "-5"]):
        assert main(["field-dump", short_scene, *window]) == 3
        assert "outside the road [0, 500]" in capsys.readouterr().err
    for window in (["--ds", "nan"], ["--dd", "nan"], ["--s-min", "nan"],
                   ["--s-max", "inf"], ["--ds", "inf"]):
        assert main(["field-dump", short_scene, *window]) == 3
        assert "must be finite" in capsys.readouterr().err
    # Grids past the point cap are refused before anything is allocated.
    for steps in (["--ds", "1e-9"], ["--dd", "1e-300"], ["--ds", "1e-4", "--dd", "1e-3"]):
        assert main(["field-dump", short_scene, *steps]) == 3
        assert "exceeds 1,000,000" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("exc", [
    DomainError("query station outside the road's station range"),
    InfeasibleDecisionError("every candidate action was excluded"),
])
def test_package_error_exits_4_without_traceback(exc, short_scene, monkeypatch, capsys):
    # Any LanegameError that reaches main() is a runtime failure (exit 4)
    # with a one-line message, whatever builtin base it also has.
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "total_field", fail)
    assert main(["field-dump", short_scene]) == 4
    assert capsys.readouterr().err == f"error: {exc}\n"
