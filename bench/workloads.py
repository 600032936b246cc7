"""The three workloads: plain timed runs, their checks, and traced repeats.

Imported only after `run.py` has put this checkout's `src/` first on the
path, so `lanegame` here is the program under test.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import lanegame as lg
from lanegame import simulate as sim

import layers
from checks import (nash_problems, ordering_problems, outcome_problems, prefix,
                    run_problems, same_cell, stackelberg_problems, trace_digest)
from inputs import jittered, scenes, solve
from speed import Speedometer
from tracing import Tracer, patched, mark_after, time_calls

OUT = Path(__file__).resolve().parent / ".out"

STRATEGY = "nash"                     # closed-loop runs
STRATEGIES = ("nash", "stackelberg")  # each decide scene is solved with both
CLOSED_LOOP = {
    "merge": ("scenario_a", ("aggressive", "normal", "conservative")),
    "overtake": ("scenario_b", ("conservative",)),
}
DECIDE_SCENARIOS = ("scenario_a", "scenario_b")
PREFIX_STEPS = 20       # steps of the determinism re-run of every style
DECIDE_BATCH = 24       # scenes per decide unit (16 one-, 8 two-opponent)
FULL_CHECK_SCENES = 16  # leading decide scenes checked by full enumeration
TRACED_DECIDE_BATCHES = 10
WARM_S = 0.5           # seconds of kernel runs before timing starts


def scenarios_of(workload: str) -> tuple[str, ...]:
    return DECIDE_SCENARIOS if workload == "decide" else (CLOSED_LOOP[workload][0],)


@dataclass
class Unit:
    """One timed unit of work, kept raw: the pieces between kernel samples
    (wall start, wall end, CPU seconds), and the step and game-solve
    intervals inside them."""

    pieces: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    decisions: list = field(default_factory=list)

    def raw_s(self) -> float:
        """Unscaled wall seconds."""
        return sum(t1 - t0 for t0, t1, _ in self.pieces)


@dataclass
class Outcome:
    """What a workload measured and what its checks found.

    Timed intervals are kept raw while the workload runs and scaled by the
    machine-speed kernel (speed.py) in `finish`, once samples from both
    sides of every interval exist. Each piece of a unit is scaled by the
    samples near it, so a unit that spans a change of machine speed is
    scaled where the change happened.
    """

    speed: Speedometer = field(default_factory=Speedometer)
    units: list[Unit] = field(default_factory=list)
    # Scaled by `finish`, in seconds at the kernel's reference speed.
    units_wall: list[float] = field(default_factory=list)
    units_cpu: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    decision_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)  # one per failed operation
    # Kept for the checks and the traced repeat.
    runs: list = field(default_factory=list)            # closed loop: (style, unit index, trace, metrics)
    batches: list = field(default_factory=list)         # decide: first scene batches
    agreements: list = field(default_factory=list)      # decide: Nash cell == Stackelberg cell
    digests: dict = field(default_factory=dict)         # closed loop: style -> sha256

    @property
    def failed(self) -> int:
        return len(self.problems)

    def finish(self) -> None:
        sp = self.speed
        for u in self.units:
            wall = sum(sp.scale(t0, t1) for t0, t1, _ in u.pieces)
            self.units_wall.append(wall)
            self.units_cpu.append(sum(sp.scale(t0, t1, c) for t0, t1, c in u.pieces))
            # One factor per unit for its steps and solves: a factor per short
            # interval would add the kernel's own noise to their tails.
            k = wall / u.raw_s()
            self.step_s += [(t1 - t0) * k for t0, t1 in u.steps]
            self.decision_s += [(t1 - t0) * k for t0, t1 in u.decisions]
        self.rss_mb = _peak_rss_mb()

    def raw_run_s(self) -> float:
        """Mean unscaled wall seconds per unit."""
        return statistics.fmean(u.raw_s() for u in self.units) \
            if self.units else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- closed loop

def closed_loop(workload: str, seed: int, seconds: float) -> Outcome:
    scenario, styles = CLOSED_LOOP[workload]
    cfg = jittered(lg.load_scenario(scenario), seed)
    res = Outcome()
    start = res.speed.warm(WARM_S)
    while True:
        # Whole style sets only, so every measurement mixes the styles alike.
        for style in styles:
            # After each step: one kernel sample, taken out of the run's time.
            marks, decisions = [], []
            probes = [(sim, "step", mark_after(marks, res.speed.sample))]
            probes += [(sim, n, time_calls(decisions)) for n in layers.GAME_SOLVERS]
            res.attempted += 1
            try:
                with patched(probes):
                    t0, c0 = time.perf_counter(), time.process_time()
                    trace = sim.run_simulation(cfg, style=style, strategy=STRATEGY)
                    m = sim.summarize(trace)
                    t1, c1 = time.perf_counter(), time.process_time()
            except Exception:
                res.problems.append(f"{style}: raised\n{traceback.format_exc()}")
                continue
            unit, (resumed, c_resumed) = Unit(decisions=decisions), (t0, c0)
            for returned, c_returned, after, c_after in marks:
                unit.steps.append((resumed, returned))
                unit.pieces.append((resumed, returned, c_returned - c_resumed))
                resumed, c_resumed = after, c_after
            unit.pieces.append((resumed, t1, c1 - c_resumed))   # summarize
            res.units.append(unit)
            res.runs.append((style, len(res.units) - 1, trace, m))
        if time.perf_counter() - start >= seconds:
            break
    res.finish()
    _check_closed_loop(res, workload, seed, cfg)
    return res


def _check_closed_loop(res: Outcome, workload: str, seed: int, cfg) -> None:
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"trace_{workload}_{seed}.csv"
    short_cfg = replace(cfg, duration=PREFIX_STEPS * cfg.dt)
    bad = {i: run_problems(m) + outcome_problems(workload, m)
           for i, (_, _, _, m) in enumerate(res.runs)}
    for i, (style, _, trace, _) in enumerate(res.runs):
        digest = trace_digest(trace, scratch)
        if style not in res.digests:
            again = sim.run_simulation(short_cfg, style=style, strategy=STRATEGY)
            if trace_digest(again, scratch) != trace_digest(prefix(trace, PREFIX_STEPS), scratch):
                bad[i].append(f"first {PREFIX_STEPS} steps differ on re-run")
        if res.digests.setdefault(style, digest) != digest:
            bad[i].append("trace differs from an earlier repetition")
    scratch.unlink(missing_ok=True)
    if workload == "merge" and seed == 0:
        first: dict[str, float] = {}
        for style, _, _, m in res.runs:
            first.setdefault(style, m.t_commit)
        if len(first) == len(CLOSED_LOOP[workload][1]):
            for problem in ordering_problems(first):
                for i in bad:
                    bad[i].append(problem)
    res.problems += [f"{res.runs[i][0]}: " + "; ".join(p) for i, p in bad.items() if p]


def traced_closed_loop(res: Outcome, workload: str, seed: int):
    """Repeat one run per style under tracing; its trace bytes must match."""
    scenario, styles = CLOSED_LOOP[workload]
    tracer, traces = Tracer(), []
    scratch = OUT / f"trace_{workload}_{seed}.csv"
    with patched(layers.patches(tracer, lg)):
        cfg = jittered(lg.scenario.load_scenario(scenario), seed)
        for style in styles:
            res.attempted += 1
            try:
                with tracer.span(layers.UNIT):
                    trace = sim.run_simulation(cfg, style=style, strategy=STRATEGY)
                    sim.summarize(trace)
            except Exception:
                res.problems.append(f"{style}: traced run raised\n{traceback.format_exc()}")
                continue
            traces.append(trace)
            if trace_digest(trace, scratch) != res.digests.get(style):
                res.problems.append(f"{style}: traced run wrote other trace bytes")
    scratch.unlink(missing_ok=True)

    out, problems = layers.reduce(tracer.spans, len(styles))
    res.problems += problems
    plain = {}
    for style, unit, _, _ in res.runs:
        plain.setdefault(style, res.units[unit].raw_s())
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.fmean(plain.values()) \
        if plain else 0.0
    max_iter = cfg.mpc.max_iter
    sums = dict.fromkeys(("games.mode0", "games.mode1", "games.mode2",
                          "games.infeasible", "planner.iterations",
                          "planner.maxiter_hits"), 0)
    for trace in traces:
        mode = trace.column("mode")[trace.column("decided") == 1]
        iters = trace.column("mpc_iters")
        for k in range(3):
            sums[f"games.mode{k}"] += int((mode == k).sum())
        sums["games.infeasible"] += trace.abort_reason.startswith("decision infeasible")
        sums["planner.iterations"] += int(iters.sum())
        sums["planner.maxiter_hits"] += int((iters == max_iter).sum())
    out.update({k: v / max(len(traces), 1) for k, v in sums.items()})
    out["games.strategy_agree_ratio"] = 0.0   # the closed loop runs Nash only
    return out, tracer


# ---------------------------------------------------------------------- decide

def decide(seed: int, seconds: float) -> Outcome:
    """Solve seeded scenes in batches until `seconds` of solving are timed.

    Each batch is checked right after its timed loop, so memory does not
    grow with the number of scenes a faster program gets through.
    """
    cfg_a, cfg_b = (lg.load_scenario(n) for n in DECIDE_SCENARIOS)
    stream = scenes(cfg_a, cfg_b, seed)
    res = Outcome()
    res.speed.warm(WARM_S)
    checked = 0
    solving = 0.0
    while solving < seconds:
        batch = [next(stream) for _ in range(DECIDE_BATCH)]
        solved, unit = [], Unit()
        for scene in batch:
            ts, cs = time.perf_counter(), time.process_time()
            sols = []
            for strategy in STRATEGIES:
                t = time.perf_counter()
                try:
                    sols.append(solve(scene, strategy))
                except lg.InfeasibleDecisionError as exc:
                    sols.append(exc)
                except Exception:
                    sols.append(traceback.format_exc())
                unit.decisions.append((t, time.perf_counter()))
            te, ce = time.perf_counter(), time.process_time()
            unit.steps.append((ts, te))
            unit.pieces.append((ts, te, ce - cs))
            solved.append(sols)
            res.speed.sample()   # between scenes, outside the timed intervals
        res.units.append(unit)
        solving += unit.raw_s()
        for scene, sols in zip(batch, solved):
            _check_scene(res, checked, scene, sols)
            checked += 1
        if len(res.batches) < TRACED_DECIDE_BATCHES:
            res.batches.append(batch)
    res.finish()
    return res


def _check_scene(res: Outcome, index: int, scene, sols) -> None:
    for strategy, sol in zip(STRATEGIES, sols):
        res.attempted += 1
        if isinstance(sol, lg.InfeasibleDecisionError):
            continue
        if isinstance(sol, str):
            res.problems.append(f"scene {index} {strategy}: raised\n{sol}")
            continue
        check = nash_problems if strategy == "nash" else stackelberg_problems
        bad = check(scene, sol, enumerate_all=index < FULL_CHECK_SCENES)
        if bad:
            res.problems.append(f"scene {index} {strategy}: " + "; ".join(bad))
    if not any(isinstance(s, (str, Exception)) for s in sols):
        res.agreements.append(same_cell(*sols))


def traced_decide(res: Outcome):
    """Re-solve the first decide batches under tracing."""
    tracer = Tracer()
    batches = res.batches
    modes = [0, 0, 0]
    infeasible = 0
    with patched(layers.patches(tracer, lg)):
        for name in DECIDE_SCENARIOS:
            lg.scenario.load_scenario(name)
        for batch in batches:
            with tracer.span(layers.UNIT):
                for scene in batch:
                    for strategy in STRATEGIES:
                        try:
                            solve(scene, strategy)
                        except lg.InfeasibleDecisionError:
                            infeasible += 1
            for scene in batch:
                modes[scene.kind] += len(STRATEGIES)
    n = len(batches)
    out, problems = layers.reduce(tracer.spans, n)
    res.problems += problems
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.fmean(u.raw_s() for u in res.units[:n])
    out.update({f"games.mode{k}": modes[k] / n for k in range(3)})
    out["games.infeasible"] = infeasible / n
    out["games.strategy_agree_ratio"] = statistics.fmean(res.agreements) \
        if res.agreements else 0.0
    out["planner.iterations"] = out["planner.maxiter_hits"] = 0.0
    return out, tracer
