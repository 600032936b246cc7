"""lanegame benchmark: one workload per call, the result as JSON on the last line.

    python3 bench/run.py --workload merge --seed 0 --seconds 5 --trace 0

Workloads (bench/README.md says why each exists):
  merge     closed loop, scenario_a, styles aggressive/normal/conservative
  overtake  closed loop, scenario_b, conservative ego
  decide    open loop, seeded one- and two-opponent scenes, both strategies

--trace 0 prints the end-to-end metrics. --trace 1 makes the same plain
measurement, repeats part of it under tracing and prints the per-layer
metrics instead. Output checks run outside the timed region in both modes.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads. With the
# default two OpenBLAS threads a run burns about twice its wall time in CPU
# for no wall-clock gain (bench/README.md).
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
from tracing import percentile, tail_percentile  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 7       # fresh processes per set-up measurement, median kept
SETUP_KERNELS = 40      # kernel samples right after each timed set-up
# argv: src dir, bench dir, scenario names. Prints the set-up seconds and
# the median kernel seconds that follow them in the same process.
SETUP_CODE = (
    "import statistics, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lanegame\n"
    "for name in sys.argv[3:]:\n"
    "    lanegame.load_scenario(name)\n"
    "took = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "meter = speed.Speedometer()\n"
    f"for _ in range({SETUP_KERNELS} + 1):\n"
    "    meter.sample()\n"
    "print(took, statistics.median(meter.took[1:]))\n"
)


def import_program() -> None:
    """Put this checkout's src/ first and refuse any other lanegame."""
    sys.path.insert(0, str(SRC))
    try:
        import lanegame
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import lanegame from {SRC}: {exc}")
    where = Path(lanegame.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SystemExit(f"bench: lanegame imported from {where}, not {SRC}")


def measure_setup(scenarios) -> float:
    """Median seconds of `import lanegame` + `load_scenario` in fresh processes,
    each scaled by the kernel it times right after (speed.py).

    The first process only warms bytecode and file caches and is not kept.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH),
                               *scenarios],
                              capture_output=True, text=True, timeout=120, check=True)
        took, kernel_s = map(float, done.stdout.split())
        if i:
            times.append(took * speed.NOMINAL_S / kernel_s)
    return statistics.median(times)


def end_to_end(res, setup_s: float) -> dict:
    step_ms = [x * 1e3 for x in res.step_s]
    decision_ms = [x * 1e3 for x in res.decision_s]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.fmean(res.units_wall), "s"),
        "cpu_s": (statistics.fmean(res.units_cpu), "s"),
        "step_ms.p50": (percentile(step_ms, 50), "ms"),
        "step_ms.p95": (tail_percentile(step_ms, 95), "ms"),
        "decision_ms.p50": (percentile(decision_ms, 50), "ms"),
        "decision_ms.p95": (tail_percentile(decision_ms, 95), "ms"),
        "peak_rss_mb": (res.rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("merge", "overtake", "decide"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    import workloads as wl  # imports lanegame, so only after import_program

    if args.workload == "decide":
        res = wl.decide(args.seed, args.seconds)
    else:
        res = wl.closed_loop(args.workload, args.seed, args.seconds)

    if args.trace:
        if args.workload == "decide":
            values, tracer = wl.traced_decide(res)
        else:
            values, tracer = wl.traced_closed_loop(res, args.workload, args.seed)
        values["fail_ratio"] = res.failed / max(res.attempted, 1)
        values["bench.raw_run_s"] = res.raw_run_s()
        values["bench.kernel_ms"] = res.speed.median_s() * 1e3
        wl.OUT.mkdir(exist_ok=True)
        tracer.write(wl.OUT / f"spans_{args.workload}_{args.seed}.csv")
        metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
    else:
        metrics = end_to_end(res, measure_setup(wl.scenarios_of(args.workload)))

    for problem in res.problems:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"unscaled: {res.raw_run_s():.6g} s wall per unit, kernel median "
          f"{res.speed.median_s() * 1e3:.6g} ms (reference {speed.NOMINAL_S * 1e3:g} ms)")
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": max(res.attempted, 1),
        "failed": res.failed if res.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
