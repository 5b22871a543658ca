"""Benchmark of toricfib: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload oracle_sweep --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  The run sets up the workload's inputs, then repeats whole passes
of its fixed operation list, each pass in a fresh forked child, until
--seconds have gone by.  Every operation's output is checked.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the run makes one untraced and one profiled pass
and reports the per-layer metrics instead (see README.md).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from child import Runner  # noqa: E402
from layers import metric_specs, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, WRONG, OracleSweep, use_source_tree  # noqa: E402

# Set-up is timed this many times per run, the first times in forked
# children that start from the same state as the parent's own set-up,
# and the median is reported.
SETUP_SAMPLES = 3


def set_up(workload, seed: int):
    """Import toricfib and build the workload's inputs; return (inputs, s)."""
    t0 = perf_counter()
    import toricfib  # noqa: F401
    inputs = workload.setup(seed)
    return inputs, perf_counter() - t0


def setup_sample(workload, seed: int, done) -> float:
    """One set-up in a forked child; the child removes what it wrote."""
    inputs, seconds = set_up(workload, seed)
    done()
    workload.teardown(inputs)
    return seconds


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    use_source_tree()

    traced = Runner(trace=True)
    setups = []
    if args.trace:
        prof = cProfile.Profile()
        inputs, setup_s = prof.runcall(set_up, workload, args.seed)
        prof.create_stats()
        traced.add_stats(prof.stats)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            res = Runner(trace=False).call(setup_sample, (workload, args.seed))
            if res.error is not None:
                raise SystemExit(f"{workload.name}: set-up failed: {res.error}")
            setups.append(res.value)
        inputs, setup_s = set_up(workload, args.seed)
    setups.append(setup_s)
    try:
        result = measure(workload, inputs, setups, args, traced)
    finally:
        workload.teardown(inputs)
    print(json.dumps(result))
    return 0


def measure(workload, inputs, setups: list[float], args, traced: Runner) -> dict:
    """Timed passes for args.seconds; with --trace 1, one untraced pass
    (the baseline of trace.overhead_s) and one traced pass instead.

    The loop checks the clock only between passes, so every run attempts
    whole passes of the same operations.  A pass's time is the sum of its
    children's measured work: forks, pipes and output checks are left out.
    """
    timed, walls = [], []
    start = perf_counter()
    while True:
        runner = Runner(trace=False)
        timed += workload.run_pass(inputs, runner)
        walls.append(runner.work_s)
        if args.trace or perf_counter() - start >= args.seconds:
            break
    wall_s = statistics.median(walls)
    records = list(timed)
    if args.trace:
        records += workload.run_pass(inputs, traced)

    failures = [(label, why) for label, _, why in records if why is not None]
    for label, why in failures[:10]:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    # Each operation's time is its median over the timed passes, so the
    # percentiles are over the fixed operation list whatever the number of
    # passes.  An operation that raised or was killed has no time.
    per_op: dict[str, list[float]] = {}
    for label, seconds, _ in timed:
        if seconds is not None:
            per_op.setdefault(label, []).append(seconds * 1000)
    if not per_op:
        raise SystemExit(f"{workload.name}: no operation completed")
    op_ms = [statistics.median(times) for times in per_op.values()]
    print(f"{workload.name}: seed {args.seed}, {len(walls)} timed pass(es) of "
          f"{len(timed) // len(walls)} operations, {len(records)} attempted, "
          f"{len(failures)} failed; op percentiles over {len(op_ms)} operations; "
          "pass walls " + ", ".join(f"{w:.3f}s" for w in walls))

    if args.trace:
        box_points = (OracleSweep.box_points(inputs)
                      if isinstance(workload, OracleSweep) else 0)
        values = per_layer_metrics(
            traced.stats, box_points=box_points, cache_hits=traced.cache_hits,
            cache_misses=traced.cache_misses, points_kept=traced.points_kept,
            overhead_s=traced.work_s - wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in metric_specs()}
    else:
        print(f"set-up timed {len(setups)} times: "
              + ", ".join(f"{s:.3f}s" for s in setups))
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": nearest_rank(op_ms, 0.5), "unit": "ms"},
            "op_p90_ms": {"value": nearest_rank(op_ms, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    correct = not any(why.startswith(WRONG) for _, why in failures)
    return {"correct": correct, "attempted": len(records),
            "failed": len(failures), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
