"""A perturbed closed-loop corpus: bundled scenarios with every car moved.

The recipe (ROADMAP, "the corpus"): take a bundled scenario at random and
run it for 3 s; shift every car's s by U(-30, 60) m and its v by U(-8, 8)
m/s with a floor of 0.5 m/s, and drop d; move each non-ego car to a random
lane with probability 0.2 and give every car a random style; on
scenario_b, with probability 0.5, set the arc radius to 300, 500 or
1,000 m; with probability 0.3, set n_p to 10, 20 or 40. The corpus is the
first 20 drafts from random.Random(1) that the scenario checks accept.
"""

import json
import random
import warnings
from importlib import resources

import numpy as np
import pytest

from lanegame.errors import ConfigError
from lanegame.scenario import BUNDLED, EGO_ROLE, config_from_dict
from lanegame.simulate import run_simulation, summarize
from lanegame.styles import BUILTIN_STYLES

RUNS = 20
DURATION = 3.0


def _drafts(rng: random.Random):
    """Perturbed scenario documents, one after another, by the recipe."""
    texts = {name: resources.files("lanegame.scenarios").joinpath(f"{name}.json").read_text()
             for name in BUNDLED}
    styles = sorted(BUILTIN_STYLES)
    while True:
        name = rng.choice(BUNDLED)
        doc = json.loads(texts[name])
        doc["duration"] = DURATION
        lanes = [lane["index"] for lane in doc["road"]["lanes"]]
        for car in doc["vehicles"]:
            car["s"] += rng.uniform(-30.0, 60.0)
            car["v"] = max(car["v"] + rng.uniform(-8.0, 8.0), 0.5)
            car.pop("d", None)
            if car["role"] != EGO_ROLE and rng.random() < 0.2:
                car["lane"] = rng.choice(lanes)
            car["style"] = rng.choice(styles)
        if name == "scenario_b" and rng.random() < 0.5:
            doc["road"]["radius"] = rng.choice([300.0, 500.0, 1000.0])
        if rng.random() < 0.3:
            doc.setdefault("mpc", {})["n_p"] = rng.choice([10, 20, 40])
        yield doc


def _corpus():
    configs = []
    for doc in _drafts(random.Random(1)):
        try:
            configs.append(config_from_dict(doc))
        except ConfigError:
            continue
        if len(configs) == RUNS:
            return configs


@pytest.fixture(scope="module")
def corpus_runs():
    runs = []
    for cfg in _corpus():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_simulation(cfg)
        runs.append((cfg, trace, summarize(trace)))
    return runs


def test_perturbed_runs_end_clean(corpus_runs):
    # Every run goes its full length with no floating-point warning, no
    # plan that loses to its baseline or leaves the command box, and no
    # degraded or max_iter plan; every trace value is finite but
    # min_clearance, which is inf while no two cars share a lane.
    assert len(corpus_runs) == RUNS
    for i, (cfg, trace, m) in enumerate(corpus_runs):
        assert not trace.aborted, (i, trace.abort_reason)
        assert len(trace.rows) == int(round(DURATION / cfg.dt))
        assert (m.planner_regressions, m.box_violations, m.degraded_steps,
                m.maxiter_steps) == (0, 0, 0, 0), i
        rows = np.array(trace.rows)
        others = np.delete(rows, trace.columns.index("min_clearance"), axis=1)
        assert np.isfinite(others).all(), i


def test_perturbed_runs_play_every_game(corpus_runs):
    # Solo, one-opponent and two-opponent decisions all occur, so every
    # game path runs in the closed loop.
    modes = []
    for _, trace, _ in corpus_runs:
        rows = np.array(trace.rows)
        decided = rows[:, trace.columns.index("decided")] == 1.0
        modes += rows[decided, trace.columns.index("mode")].tolist()
    assert {0.0, 1.0, 2.0} <= set(modes)
