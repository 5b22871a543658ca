"""Batch experiments over the generated catalog.

Each experiment walks the instances of the selected families in name
order, computes exact rational invariants, and reduces them to a single
summary value, so reports are reproducible across runs and platforms.
The monotonicity experiment draws its boundaries from a seeded RNG; the
randomness picks the questions, never the arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .catalog import FAMILY_NAMES, generate_family
from .divisors import classes_equal
from .fibration import (
    base_lct_infimum,
    discriminant_divisor,
    fiber_multiplicities_over,
    lct_over_direction,
)
from .pair import BoundaryData, average_boundary, build_pair, mld_and_eps_check
from .serialize import Instance


@dataclass(frozen=True)
class ExperimentConfig:
    epsilon: Fraction = Fraction(1)
    alpha: Fraction = Fraction(1, 2)
    box: int = 4
    families: tuple[str, ...] = FAMILY_NAMES
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "families", tuple(self.families))
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon {self.epsilon} must lie in (0, 1]")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha {self.alpha} must lie in (0, 1)")
        if self.box < 4:
            raise ValueError("oracle boxes below 4 are too blunt to check anything")
        unknown = [name for name in self.families if name not in FAMILY_NAMES]
        if unknown:
            raise ValueError(f"unknown families: {', '.join(sorted(unknown))}")


def config_instances(cfg: ExperimentConfig) -> list[Instance]:
    """The selected instances, deduplicated and in name order."""
    seen = {}
    for family in cfg.families:
        for inst in generate_family(family):
            seen.setdefault(inst.name, inst)
    return [seen[name] for name in sorted(seen)]


@dataclass(frozen=True)
class MultiplicityRow:
    name: str
    mld: Fraction
    eps_lc: bool
    max_multiplicity: int


@dataclass(frozen=True)
class MultiplicityReport:
    epsilon: Fraction
    rows: tuple[MultiplicityRow, ...]
    max_over_eps_lc: int | None


def run_multiplicity_experiment(cfg: ExperimentConfig) -> MultiplicityReport:
    """Largest fiber multiplicity that eps-lc varieties in the catalog
    actually reach.

    The eps-lc verdict is taken on the underlying variety (empty
    boundary); the multiplicity is the largest over all invariant fibers,
    and 1 when the base has no invariant divisors.
    """
    rows = []
    for inst in config_instances(cfg):
        fan = inst.pair.fan
        variety = build_pair(fan, BoundaryData.zero(fan))
        res = mld_and_eps_check(variety, cfg.epsilon)
        mult = max((m
                    for w in inst.contraction.target.rays
                    for _, m in fiber_multiplicities_over(inst.contraction, w)),
                   default=1)
        rows.append(MultiplicityRow(inst.name, res.mld_toric, res.eps_lc, mult))
    hits = [row.max_multiplicity for row in rows if row.eps_lc]
    return MultiplicityReport(cfg.epsilon, tuple(rows),
                              max(hits) if hits else None)


@dataclass(frozen=True)
class DeltaRow:
    name: str
    input_eps_lc: bool
    delta: Fraction
    exact: bool


@dataclass(frozen=True)
class DeltaReport:
    epsilon: Fraction
    alpha: Fraction
    rows: tuple[DeltaRow, ...]
    min_over_eps_lc: Fraction | None


def run_delta_experiment(cfg: ExperimentConfig) -> DeltaReport:
    """Base infimum of the lc threshold for boundaries averaged toward
    the reduced invariant one.

    Each instance boundary B is replaced by alpha*B + (1-alpha)*Delta
    and the infimum over divisorial directions of the base is computed
    exactly (checked against the exact lct over the cfg.box directions).
    Instances over a point base carry no divisorial directions and are
    skipped, and one over the budget of box directions stops the run.
    The summary is the smallest infimum among eps-lc inputs.
    """
    rows = []
    for inst in config_instances(cfg):
        if not inst.contraction.target.rays:
            continue
        fan = inst.pair.fan
        averaged = build_pair(
            fan, average_boundary(inst.pair.boundary, fan, cfg.alpha))
        res = base_lct_infimum(averaged, inst.contraction, cfg.box)
        input_lc = mld_and_eps_check(inst.pair, cfg.epsilon).eps_lc
        rows.append(DeltaRow(inst.name, input_lc, res.delta, res.exact))
    hits = [row.delta for row in rows if row.input_eps_lc]
    return DeltaReport(cfg.epsilon, cfg.alpha, tuple(rows),
                       min(hits) if hits else None)


@dataclass(frozen=True)
class MonotonicityRow:
    name: str
    low: Fraction
    high: Fraction
    thresholds_ordered: bool
    alpha: Fraction
    moduli_proportional: bool


@dataclass(frozen=True)
class MonotonicityReport:
    seed: int
    rows: tuple[MonotonicityRow, ...]
    all_hold: bool


def run_monotonicity_experiment(cfg: ExperimentConfig,
                                count: int = 50) -> MonotonicityReport:
    """Random spot checks of two exact order laws.

    For boundaries c*Delta with c drawn at two levels low <= high, the
    lc threshold over every divisorial direction of the base must be
    weakly smaller at the higher level.  And averaging an instance
    boundary toward Delta with a random weight must scale its moduli
    class linearly.  Both checks are exact rational comparisons.
    """
    rng = random.Random(cfg.seed)
    pool = [inst for inst in config_instances(cfg)
            if inst.contraction.target.rays]
    if not pool:
        raise ValueError("the selected families have no positive-dimensional bases")
    rows = []
    for _ in range(count):
        inst = pool[rng.randrange(len(pool))]
        fan, f = inst.pair.fan, inst.contraction
        den = rng.choice((2, 3, 4, 5, 6, 8, 12))
        low, high = sorted(Fraction(rng.randrange(den + 1), den)
                           for _ in range(2))
        pair_low = build_pair(fan, BoundaryData(
            tuple(low for _ in fan.rays)))
        pair_high = build_pair(fan, BoundaryData(
            tuple(high for _ in fan.rays)))
        ordered = all(
            lct_over_direction(pair_high, f, w).t
            <= lct_over_direction(pair_low, f, w).t
            for w in f.target.rays)
        alpha = Fraction(rng.randrange(1, den), den)
        base = discriminant_divisor(inst.pair, f)
        averaged = build_pair(
            fan, average_boundary(inst.pair.boundary, fan, alpha))
        scaled = discriminant_divisor(averaged, f)
        proportional = classes_equal(
            f.target, scaled.moduli_class,
            tuple(alpha * x for x in base.moduli_class))
        rows.append(MonotonicityRow(inst.name, low, high, ordered,
                                    alpha, proportional))
    return MonotonicityReport(
        cfg.seed, tuple(rows),
        all(r.thresholds_ordered and r.moduli_proportional for r in rows))
