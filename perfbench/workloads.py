"""The benchmark's two workloads: set-up, one pass of operations, checks.

A pass is a fixed list of operations.  Every pass starts in a child
forked from a parent that has only imported toricfib and built the
workload's inputs, so no pass inherits a cache that another pass warmed.
Each workload returns, per pass, one record per operation:
``(label, seconds, failure)``.  ``failure`` is None, a message starting
with WRONG when the output broke a check, or an error: a non-zero exit,
an exception, a child that died.  After an exception or a dead child the
operation has no time, and ``seconds`` is None.

Checks test properties of the method (oracle bounds, witness identities,
closed forms on the ladder and twisted families, consistency between CLI
commands), not copies of a recorded output.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from layers import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The oracle box of oracle_sweep.  At 6 the two brute-force oracles do
# most of the pass; the CLI and experiment defaults stay at 4.
SWEEP_BOX = 6

# Failure messages of outputs that broke a check start with this; other
# failures are errors (an exception, a non-zero exit, a killed child).
WRONG = "wrong output: "


def wrong(message: str | None) -> str | None:
    return None if message is None else WRONG + message


def use_source_tree() -> None:
    """Import toricfib from the checkout's src/, or stop with exit code 1."""
    if not (SRC / "toricfib" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no toricfib package under {SRC}")
    sys.path.insert(0, str(SRC))


def _multiple(u, w) -> int | None:
    """The integer m > 0 with u = m*w, or None."""
    j = next(k for k, x in enumerate(w) if x != 0)
    if u[j] % w[j] != 0:
        return None
    m = u[j] // w[j]
    if m <= 0 or tuple(m * x for x in w) != tuple(u):
        return None
    return m


class Workload:
    """setup(seed) builds the inputs; run_pass(inputs, runner) returns the
    records of one pass; teardown(inputs) removes what setup wrote."""

    name = ""

    def teardown(self, inputs) -> None:
        pass


# --- oracle_sweep -----------------------------------------------------------

class OracleSweep(Workload):
    """Exact threshold, box oracle and delta infimum over the whole suite."""

    name = "oracle_sweep"

    def setup(self, seed: int):
        from toricfib import contraction_suite
        return contraction_suite()

    def run_pass(self, suite, runner):
        res = runner.call(_sweep, (suite, SWEEP_BOX))
        if res.error is not None:
            n_ops = sum(2 * len(inst.contraction.target.rays) + 1
                        for inst in suite if inst.contraction.target.rays)
            return [("oracle sweep", None, res.error)] * n_ops
        return res.value

    @staticmethod
    def box_points(suite) -> int:
        """Points the box oracle scans in one pass: sum of (2*box+1)^rank."""
        return sum((2 * SWEEP_BOX + 1) ** inst.pair.fan.rank
                   for inst in suite for _ in inst.contraction.target.rays)


def _sweep(suite, box, done):
    from toricfib import base_lct_infimum, lct_box_oracle, lct_over_direction
    raw = []

    def timed(label, inst, w, call, *args):
        t0 = perf_counter()
        out = call(*args)
        raw.append((label, inst, w, perf_counter() - t0, out))

    for inst in suite:
        f = inst.contraction
        for w in f.target.rays:
            timed("lct_over_direction", inst, w, lct_over_direction, inst.pair, f, w)
            timed("lct_box_oracle", inst, w, lct_box_oracle, inst.pair, f, w, box)
        if f.target.rays:
            timed("base_lct_infimum", inst, None, base_lct_infimum, inst.pair, f, box)
    done()
    ops = []
    exact: dict = {}
    for label, inst, w, seconds, out in raw:
        if label == "lct_over_direction":
            exact[inst.name, w] = out
            failure = _check_lct(inst, w, out)
        elif label == "lct_box_oracle":
            failure = _check_oracle(exact[inst.name, w], out, box)
        else:
            lcts = [res.t for (name, _), res in exact.items() if name == inst.name]
            failure = _check_infimum(inst, out, lcts)
        where = inst.name if w is None else f"{inst.name} {w}"
        ops.append((f"{label} {where}", seconds, wrong(failure)))
    return ops


def _check_lct(inst, w, exact) -> str | None:
    t, r = exact.t, exact.witness
    m = _multiple(inst.contraction.pi.apply(r), w)
    if m is None:
        return f"witness {r} does not map to a positive multiple of {w}"
    if inst.pair.a_function.value(r) / m != t:
        return f"a({r})/{m} differs from t = {t}"
    if inst.name.startswith("ladder_k") and w == (1,):
        k = int(inst.name[len("ladder_k"):])
        if t != Fraction(1, k):
            return f"lct over (1,) is {t}, expected 1/{k}"
    return None


def _check_oracle(exact, oracle, box) -> str | None:
    if oracle is None or oracle < exact.t:
        return f"oracle {oracle} below the exact threshold {exact.t}"
    if max(abs(x) for x in exact.witness) <= box and oracle != exact.t:
        return (f"witness {exact.witness} lies in the box but the oracle "
                f"gives {oracle} != {exact.t}")
    return None


def _check_infimum(inst, res, lcts) -> str | None:
    from toricfib import lct_over_direction
    if not res.exact:
        return f"delta {res.delta} disagrees with the oracle {res.oracle_delta}"
    if not 0 <= res.delta <= min(lcts):
        return f"delta {res.delta} outside [0, min lct = {min(lcts)}]"
    if inst.name == "x2xp1_to_p1xp1":
        if res.delta != Fraction(1, 2):
            return f"delta {res.delta}, expected 1/2"
        t = lct_over_direction(inst.pair, inst.contraction, (1, 1)).t
        if t != Fraction(3, 2):
            return f"lct over (1, 1) is {t}, expected 3/2"
    return None


# --- cli_calls --------------------------------------------------------------

class CliCalls(Workload):
    """toricfib.cli.main, one child per call: every command on the built-in
    fixture documents, then the three catalog experiments."""

    name = "cli_calls"

    def setup(self, seed: int):
        import toricfib.cli  # noqa: F401  (the children call it pre-imported)
        from toricfib import builtin_fixtures, to_json_text
        folder = OUT / f"fixtures-{os.getpid()}"
        folder.mkdir(parents=True, exist_ok=True)
        ops = []
        for fx in builtin_fixtures():
            path = folder / f"{fx.name}.json"
            path.write_text(to_json_text(fx.document()))
            rays = fx.contraction.target.rays
            calls = [(cmd, None) for cmd in ("validate", "classify", "mld", "fiber")]
            if rays:
                calls += [("adjunction", None), ("base-inf", None)]
            calls += [(cmd, w) for w in rays for cmd in ("lct", "fiber")]
            for cmd, w in calls:
                argv = [cmd, "--input", str(path), "--json"]
                if w is not None:
                    # argparse reads "--direction -1,0" as two options; only
                    # the "--direction=-1,0" form reaches the command
                    argv.append("--direction=" + ",".join(map(str, w)))
                ops.append((fx.name, cmd, w, argv))
        for kind in EXPERIMENTS:
            ops.append((kind, "catalog", None, ["catalog", "--experiment", kind,
                                                "--seed", str(seed), "--json"]))
        return folder, ops

    def run_pass(self, state, runner):
        _, ops = state
        results = [runner.call(_cli_call, (argv,)) for _, _, _, argv in ops]
        return _check_cli(ops, results)

    def teardown(self, state):
        shutil.rmtree(state[0], ignore_errors=True)


def _cli_call(argv, done):
    from toricfib.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        code = main(argv)
        seconds = perf_counter() - t0
    done()
    return seconds, code, out.getvalue(), err.getvalue()


def _check_cli(ops, results):
    """One record per call; failures from exit codes and cross-checks."""
    records, parsed = [], {}
    for (name, cmd, w, argv), res in zip(ops, results):
        label = f"{cmd} {name}" + ("" if w is None else f" {w}")
        if res.error is not None:
            records.append([label, None, res.error])
            continue
        seconds, code, out, err = res.value
        failure = None
        if code != 0:
            failure = f"exit {code}: {err.strip()}"
        else:
            try:
                parsed[(name, cmd, w)] = json.loads(out)
            except ValueError:
                failure = wrong("output is not JSON")
        records.append([label, seconds, failure])
    for rec, (name, cmd, w, _) in zip(records, ops):
        if rec[2] is None:
            rec[2] = wrong(_cli_property(name, cmd, w, parsed))
    return [tuple(rec) for rec in records]


def _check_multiplicity(out) -> str | None:
    for row in out["rows"]:
        name, mld, mult = row["name"], Fraction(row["mld"]), row["max_multiplicity"]
        if row["eps_lc"] != (mld >= Fraction(out["epsilon"])):
            return f"{name}: eps_lc {row['eps_lc']} with mld {mld}"
        if name.startswith("ladder_k"):
            k = int(name[len("ladder_k"):])
            if mld != min(Fraction(1), Fraction(2, k)):
                return f"{name}: mld {mld}, expected min(1, 2/{k})"
            if mult != k:
                return f"{name}: multiplicity {mult}, expected {k}"
        if name.startswith("twisted_"):
            m = int(name.split("_")[2])  # twisted_<plane>_<m>_<a>_<b>
            if mult != m:
                return f"{name}: multiplicity {mult}, expected {m}"
    hits = [row["max_multiplicity"] for row in out["rows"] if row["eps_lc"]]
    if out["max_over_eps_lc"] != (max(hits) if hits else None):
        return f"max_over_eps_lc {out['max_over_eps_lc']} is not the max of {hits}"
    return None


def _check_delta(out) -> str | None:
    for row in out["rows"]:
        name, delta = row["name"], Fraction(row["delta"])
        if not row["exact"]:
            return f"{name}: delta {delta} disagrees with the oracle"
        if name.startswith("ladder_k"):
            k = int(name[len("ladder_k"):])
            if delta != Fraction(out["alpha"]) / k:
                return f"{name}: delta {delta}, expected {out['alpha']}/{k}"
    return None


def _check_monotonicity(out) -> str | None:
    if len(out["rows"]) != 50:
        return f"{len(out['rows'])} rows, expected 50"
    if not out["all_hold"]:
        bad = [row["name"] for row in out["rows"]
               if not (row["thresholds_ordered"] and row["moduli_proportional"])]
        return f"order laws fail on {bad}"
    return None


EXPERIMENT_CHECKS = {"multiplicity": _check_multiplicity, "delta": _check_delta,
                     "monotonicity": _check_monotonicity}


def _cli_property(name, cmd, w, parsed) -> str | None:
    out = parsed[(name, cmd, w)]
    if cmd == "catalog":
        return EXPERIMENT_CHECKS[name](out)
    lcts = {key[2]: Fraction(doc["t"]) for key, doc in parsed.items()
            if key[0] == name and key[1] == "lct"}
    if cmd == "classify" and out["smooth"] and not out["simplicial"]:
        return "smooth but not simplicial"
    if cmd == "mld":
        # eps-lc also honours the 1 - b floor of the boundary's generic members
        floor = [Fraction(out["mld"])]
        if out["generic_floor"] is not None:
            floor.append(Fraction(out["generic_floor"]))
        if out["eps_lc"] != (min(floor) >= Fraction(out["epsilon"])):
            return f"eps_lc {out['eps_lc']} with mld {out['mld']}"
    if cmd == "fiber" and w is not None:
        if out["max_multiplicity"] != max(f["multiplicity"] for f in out["fibers"]):
            return "max_multiplicity is not the largest listed"
    if cmd == "adjunction":
        for entry in out["discriminant"]:
            t = lcts.get(tuple(entry["ray"]))
            if t is None or Fraction(entry["coeff"]) != 1 - t:
                return f"coefficient {entry['coeff']} at {entry['ray']} is not 1 - lct ({t})"
    if cmd == "base-inf":
        if not lcts or any(Fraction(out["delta"]) > t for t in lcts.values()):
            return f"delta {out['delta']} exceeds an lct in {sorted(lcts.values())}"
    return None


WORKLOADS = {wl.name: wl for wl in (OracleSweep(), CliCalls())}
