"""Steadiness check: two sets of runs of one commit, compared to the bounds.

    python3 perfbench/steadiness.py

Runs the command of BENCHMARK.json ten times per workload in each of two
sets, each run with its own seed, interleaving the workloads.  For every
end-to-end metric it prints, per set, the median and the spread (the
distance between the first and third quartile as a share of the median)
against the metric's bound, and how far the second set's median moved
from the first set's.  The commit is steady when every spread and every
move, either way, is within the metric's bound, and the share of failed
operations is the same in both sets.  The raw results go to
perfbench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
RUNS = 10
SETS = 2


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {name: [] for name in names}  # per workload: list of sets
    for s in range(SETS):
        for name in names:
            results[name].append([])
        for i in range(RUNS):
            seed = 1000 * (s + 1) + i
            for name in names:
                res = run_once(spec, name, seed, spec["run_seconds"])
                results[name][s].append(res)
                print(f"set {s + 1} run {i + 1} {name} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = True
    lines = ["| workload | metric | bound | " + " | ".join(
        f"set {s + 1} median | set {s + 1} spread" for s in range(SETS))
        + " | second vs first |", "|" + "---|" * (3 + 2 * SETS + 1)]
    for name in names:
        counts = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in results[name]]
        if len({f / a for f, a in counts}) != 1 or not all(
                r["correct"] for runs in results[name] for r in runs):
            ok = False
        for metric, bound in bounds.items():
            sets = [[r["metrics"][metric]["value"] for r in runs]
                    for runs in results[name]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = medians[1] / medians[0] - 1
            if abs(drift) > bound or max(spreads) > bound:
                ok = False
            cells = " | ".join(f"{m:.4g} | {sp:.3f}" for m, sp in zip(medians, spreads))
            lines.append(f"| {name} | {metric} | {bound} | {cells} | {drift:+.3f} |")
        lines.append(f"| {name} | failed / attempted | exact | "
                     + " | ".join(f"{f}/{a} | -" for f, a in counts) + " | - |")
    table = "\n".join(lines)
    print(table)
    print("steady" if ok else "NOT steady: a spread or a median moved past its bound, "
          "or the failed share differs")
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / f"steadiness-{stamp}.json").write_text(json.dumps(
        {"bounds": bounds, "results": results, "table": table}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
