"""Per-layer metrics of a traced run, read from cProfile tables.

The traced pass runs under ``cProfile``, a profiler hook in C that sees
every call by its code object.  That matters here because calls are not
always looked up in the module that defines them: ``from .x import y``
binds ``y`` in each importing module, and ``fibration._cached_section``
keeps its own reference to ``fan.cone_preimage_section``.  A wrapper
installed on one module attribute would miss those calls; the profiler
does not.

Per function, the table gives the call count, the self time (the
function's own duration minus the time its callees cover) and the
cumulative time, and, per caller, how many of the calls came from it.
``<fn>.s`` is cumulative time; ``<module>.self_s`` sums the self time of
every function defined in that module file.
"""

from __future__ import annotations

from pathlib import Path

MODULES = ("lattice", "fan", "polytope", "divisors", "pair", "fibration",
           "cover", "serialize", "catalog", "experiments", "cli")

# (metric stem, defining module, function name, fields reported)
FUNCTIONS = (
    ("fibration.lct_box_oracle", "fibration", "lct_box_oracle", ("calls", "s")),
    ("fibration.delta_oracle", "fibration", "_delta_box_oracle", ("s",)),
    ("fibration.lct_over_direction", "fibration", "lct_over_direction", ("calls", "s")),
    ("fibration.base_lct_infimum", "fibration", "base_lct_infimum", ("calls", "s")),
    ("fan.cone_preimage_section", "fan", "cone_preimage_section", ("calls", "s")),
    ("fan.hull", "fan", "hull", ("calls", "s")),
    ("fan.extreme_rays", "fan", "extreme_rays", ("calls", "s")),
    ("fan.facets", "fan", "facets", ("calls", "s")),
    ("fan.walls", "fan", "walls", ("calls",)),
    ("fan.validate_fan", "fan", "validate_fan", ("s",)),
    ("lattice.snf_decompose", "lattice", "snf_decompose", ("calls", "s")),
    ("lattice.matmul", "lattice", "__matmul__", ("calls",)),
    ("lattice.kernel_basis", "lattice", "kernel_basis", ("calls",)),
    ("lattice.kernel_direction", "lattice", "kernel_direction", ("calls",)),
    ("lattice.hnf_rows", "lattice", "hnf_rows", ("calls",)),
    ("catalog.contraction_suite", "catalog", "contraction_suite", ("s",)),
    ("catalog.builtin_fixtures", "catalog", "builtin_fixtures", ("s",)),
    ("catalog.generate_family", "catalog", "generate_family", ("calls", "s")),
    ("serialize.parse_text", "serialize", "parse_text", ("calls", "s")),
    ("serialize.to_json_text", "serialize", "to_json_text", ("s",)),
    ("cli.main", "cli", "main", ("calls", "s")),
    ("divisors.is_nef", "divisors", "is_nef", ("calls", "s")),
    ("pair.build_pair", "pair", "build_pair", ("calls", "s")),
    ("pair.mld_and_eps_check", "pair", "mld_and_eps_check", ("calls", "s")),
    ("polytope.lattice_points", "polytope", "lattice_points", ("calls", "s")),
)

EXPERIMENTS = ("multiplicity", "delta", "monotonicity")

# Metrics that are not a function's calls or seconds: (name, unit, better).
DERIVED = (
    ("fibration.box_points", "computed_points", "lower"),
    ("fibration.box_hit_ratio", "ratio", "higher"),
    ("fibration.delta_oracle.directions", "count", "lower"),
    ("fibration.section_cache_hit_ratio", "ratio", "higher"),
    ("polytope.points_scanned", "count", "lower"),
    ("polytope.points_kept_ratio", "ratio", "higher"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for stem, _, _, fields in FUNCTIONS:
        specs += [(f"{stem}.{field}", "count" if field == "calls" else "s", "lower")
                  for field in fields]
    specs += [(f"experiments.{kind}_s", "s", "lower") for kind in EXPERIMENTS]
    specs += list(DERIVED)
    specs += [(f"{module}.self_s", "s", "lower") for module in MODULES]
    specs += [("fractions.self_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return specs


def _module_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent.name == "toricfib":
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    return None


def _index(stats: dict) -> dict:
    """(module, function name) -> [calls, self s, cumulative s, callers]."""
    out: dict = {}
    for (filename, _, func), (_, calls, self_s, cum_s, callers) in stats.items():
        module = _module_of(filename)
        if module is None:
            continue
        entry = out.setdefault((module, func), [0, 0.0, 0.0, {}])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += cum_s
        for (c_file, _, c_func), counts in callers.items():
            key = (_module_of(c_file), c_func)
            entry[3][key] = entry[3].get(key, 0) + counts[0]
    return out


def _calls_from(index, callee, callers) -> int:
    entry = index.get(callee)
    if entry is None:
        return 0
    return sum(n for key, n in entry[3].items() if key in callers)


def per_layer_metrics(stats: dict, *, box_points: int, cache_hits: int,
                      cache_misses: int, points_kept: int,
                      overhead_s: float) -> dict[str, float]:
    """Every metric of metric_specs() from a merged cProfile table and the
    counts the traced pass collected beside it.  A function the workload
    never reaches reads 0, and so does a ratio with a zero base."""
    index = _index(stats)
    zero = [0, 0.0, 0.0, {}]
    values: dict[str, float] = {}
    for stem, module, func, fields in FUNCTIONS:
        calls, _, cum_s, _ = index.get((module, func), zero)
        for field in fields:
            values[f"{stem}.{field}"] = calls if field == "calls" else cum_s
    for kind in EXPERIMENTS:
        values[f"experiments.{kind}_s"] = index.get(
            ("experiments", f"run_{kind}_experiment"), zero)[2]

    hits = _calls_from(index, ("fan", "support_contains"),
                       {("fibration", "lct_box_oracle")})
    scanned = _calls_from(index, ("polytope", "contains"),
                          {("polytope", "lattice_points"), ("polytope", "<listcomp>")})
    lookups = cache_hits + cache_misses
    values.update({
        "fibration.box_points": box_points,
        "fibration.box_hit_ratio": hits / box_points if box_points else 0.0,
        "fibration.delta_oracle.directions": _calls_from(
            index, ("fibration", "lct_over_direction"),
            {("fibration", "_delta_box_oracle")}),
        "fibration.section_cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "polytope.points_scanned": scanned,
        "polytope.points_kept_ratio": points_kept / scanned if scanned else 0.0,
    })
    for module in MODULES + ("fractions",):
        values[f"{module}.self_s"] = sum(
            (entry[1] for (mod, _), entry in index.items() if mod == module), 0.0)
    values["trace.overhead_s"] = overhead_s
    return values


def install_point_counter() -> dict[str, int]:
    """Count the points HPolytope.lattice_points returns, for the kept
    ratio the profile cannot see.  Installed in traced children only."""
    counts = {"points_kept": 0}
    try:
        from toricfib.polytope import HPolytope
    except ImportError:
        return counts
    scan = HPolytope.lattice_points

    def counted(self):
        points = scan(self)
        counts["points_kept"] += len(points)
        return points

    HPolytope.lattice_points = counted
    return counts
