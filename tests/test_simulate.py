"""Closed-loop harness: determinism, trace schema, metric reduction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lanegame.scenario import load_scenario
from lanegame.simulate import (BASE_COLUMNS, STYLES_ALL, TraceLog, batch,
                               comparison_csv, metrics_lines, run_simulation,
                               summarize, write_metrics, write_trace)


@pytest.fixture(scope="module")
def merge_cfg():
    return load_scenario("scenario_a")


@pytest.fixture(scope="module")
def short_trace(merge_cfg):
    # 1.5 s is enough for the aggressive profile to commit without paying
    # for a full merge in every test.
    cfg = replace(merge_cfg, duration=1.5)
    return run_simulation(cfg, style="aggressive", strategy="nash")


def test_trace_schema(short_trace, merge_cfg):
    assert short_trace.columns[:len(BASE_COLUMNS)] == BASE_COLUMNS
    assert short_trace.roles == ["AC1"]
    assert short_trace.columns[-4:] == ["s_ac1", "d_ac1", "v_ac1", "a_ac1"]
    assert len(short_trace.rows) == int(round(1.5 / merge_cfg.dt))
    assert not short_trace.aborted
    arr = short_trace.as_array()
    assert arr.shape == (len(short_trace.rows), len(short_trace.columns))
    # min_clearance is inf while no pair shares a lane; everything else
    # must stay finite.
    clr = short_trace.columns.index("min_clearance")
    mask = np.ones(arr.shape[1], dtype=bool)
    mask[clr] = False
    assert np.all(np.isfinite(arr[:, mask]))
    assert not np.any(np.isnan(arr))
    # The ego must actually drive forward.
    s = short_trace.column("s_ec")
    assert np.all(np.diff(s) > 0)
    with pytest.raises(ValueError):
        short_trace.column("no_such_column")


def test_style_and_strategy_override(merge_cfg):
    cfg = replace(merge_cfg, duration=0.25)
    tr = run_simulation(cfg, style="conservative", strategy="stackelberg")
    assert tr.style == "conservative"
    assert tr.strategy == "stackelberg"


def test_repeat_runs_byte_identical(merge_cfg, tmp_path):
    cfg = replace(merge_cfg, duration=1.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(run_simulation(cfg, style="normal"), str(p1))
    write_trace(run_simulation(cfg, style="normal"), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert len(b1) > 1000


def test_write_trace_round_trips(short_trace, tmp_path):
    p = tmp_path / "trace.csv"
    write_trace(short_trace, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == ",".join(short_trace.columns)
    loaded = np.loadtxt(str(p), delimiter=",", skiprows=1)
    # 9 significant digits: relative agreement, not bit equality.
    assert np.allclose(loaded, short_trace.as_array(), rtol=1e-8, atol=1e-12)


def test_summarize_recomputes_from_columns(short_trace):
    m = summarize(short_trace)
    t = short_trace.column("t")
    sigma = short_trace.column("sigma")
    first = np.flatnonzero(sigma != 0)[0]
    assert m.t_commit == pytest.approx(t[first])
    assert m.sigma_commit == int(sigma[first]) == -1
    assert m.steps == len(short_trace.rows)
    # Commit-time bookkeeping against the raw columns.
    gap = short_trace.column("s_ec")[first] - short_trace.column("s_ac1")[first]
    assert m.gap_at_commit["AC1"] == pytest.approx(gap)
    assert m.v_at_commit["EC"] == pytest.approx(short_trace.column("v_ec")[first])
    j = short_trace.column("j_total")
    assert m.rms_total == pytest.approx(float(np.sqrt(np.mean(j * j))))
    assert m.min_clearance == pytest.approx(float(np.min(short_trace.column("min_clearance"))))
    assert m.max_field == pytest.approx(float(np.max(short_trace.column("field_ec"))))
    # 1.5 s is too short for the change to finish.
    assert not m.merged and math.isnan(m.t_merge_done)
    assert m.final_lane == 2
    assert m.planner_regressions == 0
    assert m.box_violations == 0


def test_summarize_empty_trace():
    tr = TraceLog(scenario="x", style="normal", strategy="nash", dt=0.05,
                  columns=list(BASE_COLUMNS), aborted=True,
                  abort_reason="nothing ran")
    m = summarize(tr)
    assert m.steps == 0 and m.aborted
    assert math.isnan(m.t_commit) and m.sigma_commit == 0
    assert m.min_clearance == math.inf


def test_layer_failure_aborts_with_reason(merge_cfg):
    # 40 m before the road end the planner's horizon soon leaves the road:
    # the run stops at that step, names it, and keeps the rows before it.
    vehicles = [replace(v, s=460.0) if v.role == "EC" else v
                for v in merge_cfg.vehicles]
    cfg = replace(merge_cfg, vehicles=vehicles, duration=1.0)
    tr = run_simulation(cfg)
    assert tr.aborted
    assert 0 < len(tr.rows) < 20
    assert tr.abort_reason.startswith(
        f"domain error at t={len(tr.rows) * cfg.dt:.2f}: ")
    m = summarize(tr)
    assert m.aborted and m.steps == len(tr.rows)


def test_maxiter_steps_counts_plans_at_the_cap(merge_cfg):
    # With a cap of 10 some solves stop there and some converge first.
    # The cap rides on the trace, so the trace columns stay as they are.
    cfg = replace(merge_cfg, duration=1.0, mpc=replace(merge_cfg.mpc, max_iter=10))
    tr = run_simulation(cfg, style="aggressive")
    assert tr.max_iter == 10 and tr.columns[:len(BASE_COLUMNS)] == BASE_COLUMNS
    m = summarize(tr)
    assert 0 < m.maxiter_steps < m.steps
    assert m.maxiter_steps == int(np.sum(tr.column("mpc_iters") == 10))
    assert f"maxiter_steps={m.maxiter_steps}" in metrics_lines(m)


def test_metrics_text_outputs(short_trace, tmp_path):
    m = summarize(short_trace)
    lines = metrics_lines(m)
    as_dict = dict(line.split("=", 1) for line in lines)
    assert as_dict["scenario"] == "scenario_a"
    assert as_dict["style"] == "aggressive"
    assert as_dict["sigma_commit"] == "-1"
    assert as_dict["merged"] == "0"
    assert "gap_at_commit_AC1" in as_dict
    p = tmp_path / "metrics.txt"
    write_metrics(m, str(p))
    assert p.read_text() == "\n".join(lines) + "\n"


def test_batch_and_comparison_table(merge_cfg):
    cfg = replace(merge_cfg, duration=0.5)
    runs = batch(cfg, styles=("normal",), strategies=("nash", "stackelberg"))
    assert len(runs) == 2
    assert runs[0][0].strategy == "nash"
    assert runs[1][0].strategy == "stackelberg"
    csv = comparison_csv([m for _, m in runs])
    lines = csv.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("scenario,style,strategy,")
    assert lines[0].endswith(",aborted,maxiter_steps")
    assert lines[1].split(",")[1] == "normal"
    assert STYLES_ALL == ("aggressive", "normal", "conservative")
